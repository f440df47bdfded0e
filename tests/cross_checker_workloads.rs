//! Every checker realization agrees on every generated domain workload,
//! and every injected violation is detected at its first-definite state —
//! the strong form of experiment T4 run as a test.
//!
//! Cross-backend agreement goes through the `rtic-oracle` differential
//! harness, so these workloads exercise the full mode list (naive,
//! incremental, windowed, active, the fleet, and the checkpoint/resume
//! stitch), not just the four standalone checkers.

use std::sync::Arc;

use rtic::active::ActiveChecker;
use rtic::core::observe::{step_all, CollectingObserver, StepEvent};
use rtic::core::{
    Checker, CompiledConstraint, ConstraintSet, IncrementalChecker, NaiveChecker, StepReport,
};
use rtic::temporal::Constraint;
use rtic::workload::{Audit, Generated, Library, Monitor, RandomWorkload, Reservations};
use rtic_oracle::{check_case, Case, Mode};

/// Runs one constraint of a workload through every oracle mode, asserting
/// byte-identical reports, and returns the reports for detection checks.
fn run_all(generated: &Generated, constraint: &Constraint) -> Vec<StepReport> {
    let case = Case {
        index: 0,
        seed: 7, // fixes the stitch kill step; any value works
        catalog: Arc::clone(&generated.catalog),
        constraint: constraint.clone(),
        transitions: generated.transitions.clone(),
    };
    if let Some(d) = check_case(&case, &Mode::ALL) {
        panic!(
            "backends diverged on constraint `{}`:\n{d}",
            constraint.name
        );
    }
    let mut inc = IncrementalChecker::new(constraint.clone(), Arc::clone(&generated.catalog))
        .expect("workload constraint compiles");
    generated
        .transitions
        .iter()
        .map(|tr| inc.step(tr.time, &tr.update).expect("step succeeds"))
        .collect()
}

fn assert_expectations(generated: &Generated, reports: &[StepReport]) {
    for exp in &generated.expected {
        assert!(
            reports.iter().any(|r| exp.found_in(r)),
            "expected violation at {} not reported",
            exp.time
        );
    }
}

#[test]
fn reservations_workload_agrees_and_detects() {
    let generated = Reservations {
        steps: 80,
        new_per_step: 2,
        deadline: 4,
        violation_rate: 0.15,
        seed: 21,
    }
    .generate();
    assert!(!generated.expected.is_empty());
    let reports = run_all(&generated, &generated.constraints[0]);
    assert_expectations(&generated, &reports);
}

#[test]
fn library_workload_agrees_and_detects() {
    let generated = Library {
        steps: 70,
        checkouts_per_step: 2,
        period: 6,
        violation_rate: 0.2,
        late_by: 2,
        seed: 22,
    }
    .generate();
    assert!(!generated.expected.is_empty());
    let reports = run_all(&generated, &generated.constraints[0]);
    assert_expectations(&generated, &reports);
}

#[test]
fn monitor_workload_agrees_and_detects() {
    let generated = Monitor {
        steps: 70,
        sensors: 6,
        raise_rate: 0.15,
        ack_window: 3,
        violation_rate: 0.3,
        spike_rate: 0.05,
        seed: 23,
    }
    .generate();
    assert!(!generated.expected.is_empty());
    let mut all_reports = Vec::new();
    for constraint in &generated.constraints {
        all_reports.extend(run_all(&generated, constraint));
    }
    assert_expectations(&generated, &all_reports);
}

#[test]
fn audit_workload_agrees_and_detects() {
    let generated = Audit {
        steps: 80,
        unapproved_rate: 0.15,
        flag_rate: 0.08,
        ..Default::default()
    }
    .generate();
    assert!(!generated.expected.is_empty());
    let mut all_reports = Vec::new();
    for constraint in &generated.constraints {
        all_reports.extend(run_all(&generated, constraint));
    }
    assert_expectations(&generated, &all_reports);
}

#[test]
fn random_workload_agrees() {
    for seed in [1u64, 2, 3] {
        let generated = RandomWorkload {
            steps: 50,
            domain: 12,
            updates_per_step: 6,
            bound: 4,
            seed,
            max_gap: 3, // exercise clock gaps across all four checkers
        }
        .generate();
        run_all(&generated, &generated.constraints[0]);
    }
}

#[test]
fn detections_happen_at_the_earliest_definite_state_not_before() {
    // For the reservations workload: the first report of each witness is
    // exactly at its recorded expected time.
    let generated = Reservations {
        steps: 60,
        new_per_step: 1,
        deadline: 5,
        violation_rate: 0.5,
        seed: 99,
    }
    .generate();
    let catalog = &generated.catalog;
    let mut inc =
        IncrementalChecker::new(generated.constraints[0].clone(), Arc::clone(catalog)).unwrap();
    let mut first_seen: std::collections::BTreeMap<Vec<rtic::relation::Value>, u64> =
        Default::default();
    for tr in &generated.transitions {
        let r = inc.step(tr.time, &tr.update).unwrap();
        for row in r.violations.rows() {
            first_seen.entry(row.values().to_vec()).or_insert(tr.time.0);
        }
    }
    assert_eq!(first_seen.len(), generated.expected.len());
    let expected_times: std::collections::BTreeSet<u64> =
        generated.expected.iter().map(|e| e.time.0).collect();
    for (_, t) in first_seen {
        assert!(
            expected_times.contains(&t),
            "first detection at unexpected time {t}"
        );
    }
}

/// An event stream with its checker names and latencies left out: the
/// kind, the constraint and the witness count of each event.
fn event_shape(events: &[StepEvent<'_>]) -> Vec<(&'static str, String, usize)> {
    events
        .iter()
        .map(|e| match e {
            StepEvent::ConstraintEval(e) => ("eval", e.constraint.to_string(), e.violations),
            StepEvent::Violation(e) => {
                let r = &e.report;
                ("violation", r.constraint.to_string(), r.violation_count())
            }
            StepEvent::StepEnd(e) => ("step", String::new(), e.violations),
            other => (other.kind(), String::new(), 0),
        })
        .collect()
}

/// `observe::step_all` over each reference backend and the fleet's
/// `ConstraintSet::step_observed` emit one event sequence: the same kinds,
/// constraints in the same order and the same witness counts, step by
/// step, on a multi-constraint workload.
#[test]
fn both_observed_steppers_emit_the_same_events() {
    let generated = Monitor {
        steps: 60,
        violation_rate: 0.3,
        spike_rate: 0.05,
        ..Default::default()
    }
    .generate();
    assert!(
        generated.constraints.len() > 1,
        "constraint order is pinned"
    );
    let catalog = &generated.catalog;
    let mut set = ConstraintSet::new(generated.constraints.iter().cloned(), Arc::clone(catalog))
        .expect("workload constraints compile");
    let mut fleet = CollectingObserver::default();
    for tr in &generated.transitions {
        set.step_observed(tr.time, &tr.update, &mut fleet).unwrap();
    }
    let expected = event_shape(&fleet.events);
    assert!(expected.iter().any(|(kind, _, _)| *kind == "violation"));
    type Make = fn(CompiledConstraint) -> Box<dyn Checker>;
    let backends: [(&str, Make); 3] = [
        ("naive", |c| Box::new(NaiveChecker::from_compiled(c))),
        ("windowed", |c| Box::new(NaiveChecker::windowed(c))),
        ("active", |c| Box::new(ActiveChecker::from_compiled(c))),
    ];
    for (name, make) in backends {
        let mut checkers: Vec<Box<dyn Checker>> = (generated.constraints.iter())
            .map(|c| make(CompiledConstraint::compile(c.clone(), Arc::clone(catalog)).unwrap()))
            .collect();
        let mut obs = CollectingObserver::default();
        for tr in &generated.transitions {
            step_all(&mut checkers, tr.time, &tr.update, &mut obs).unwrap();
        }
        assert_eq!(event_shape(&obs.events), expected, "{name} vs the fleet");
    }
}
