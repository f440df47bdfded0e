//! Library loans: every borrowed book must come back within the loan
//! period. Exercises `since` with an unbounded upper bound.
//!
//! Relations:
//! * `loan(b, m)` — book `b` out with member `m`, held until returned;
//! * `checkout(b, m)` — transient checkout event.
//!
//! Constraint (loan period `D`):
//!
//! ```text
//! deny overdue: loan(b, m) && (loan(b, m) since[D,*] checkout(b, m))
//! ```
//!
//! i.e. the loan has been held continuously for at least `D` ticks since
//! its checkout. First flagged at exactly `t₀ + D`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::TimePoint;

use crate::{Expected, Generated};

/// Parameters for the library workload.
#[derive(Clone, Copy, Debug)]
pub struct Library {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Checkouts per step.
    pub checkouts_per_step: usize,
    /// Loan period `D`.
    pub period: u64,
    /// Probability a loan is returned late (injected violation).
    pub violation_rate: f64,
    /// How many ticks past the deadline a late loan stays out.
    pub late_by: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Library {
    fn default() -> Library {
        Library {
            steps: 200,
            checkouts_per_step: 2,
            period: 7,
            violation_rate: 0.05,
            late_by: 2,
            seed: 42,
        }
    }
}

struct Loan {
    b: String,
    m: String,
    return_at: u64,
}

impl Library {
    /// The constraint text for period `D`.
    pub fn constraint_text(&self) -> String {
        format!(
            "deny overdue: loan(b, m) && (loan(b, m) since[{},*] checkout(b, m))",
            self.period
        )
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(
            self.period >= 2,
            "period must leave room for on-time returns"
        );
        let catalog = Arc::new(
            Catalog::new()
                .with("loan", Schema::of(&[("b", Sort::Str), ("m", Sort::Str)]))
                .expect("static workload schema")
                .with(
                    "checkout",
                    Schema::of(&[("b", Sort::Str), ("m", Sort::Str)]),
                )
                .expect("static workload schema"),
        );
        let constraint = parse_constraint(&self.constraint_text()).expect("template parses");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let mut loans: Vec<Loan> = Vec::new();
        let mut last_events: Vec<(String, String)> = Vec::new();
        let mut next_book = 0u64;
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            for (b, m) in last_events.drain(..) {
                u.delete("checkout", tuple![b.as_str(), m.as_str()]);
            }
            for _ in 0..self.checkouts_per_step {
                let b = format!("b{next_book}");
                next_book += 1;
                let m = format!("m{}", rng.gen_range(0..30));
                u.insert("loan", tuple![b.as_str(), m.as_str()]);
                u.insert("checkout", tuple![b.as_str(), m.as_str()]);
                let late = rng.gen_bool(self.violation_rate);
                let return_at = if late {
                    if t + self.period <= self.steps as u64 {
                        expected.push(Expected {
                            constraint: "overdue".into(),
                            time: TimePoint(t + self.period),
                            witness: vec![("b", Value::str(&b)), ("m", Value::str(&m))],
                        });
                    }
                    t + self.period + self.late_by
                } else {
                    t + rng.gen_range(1..self.period)
                };
                last_events.push((b.clone(), m.clone()));
                loans.push(Loan { b, m, return_at });
            }
            loans.retain(|l| {
                if l.return_at == t {
                    u.delete("loan", tuple![l.b.as_str(), l.m.as_str()]);
                    false
                } else {
                    true
                }
            });
            transitions.push(Transition::new(t, u));
        }
        Generated {
            catalog,
            constraints: vec![constraint],
            transitions,
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::{Checker, CompiledConstraint, IncrementalChecker, NaiveChecker};

    #[test]
    fn deterministic() {
        let a = Library::default().generate();
        let b = Library::default().generate();
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn overdue_loans_flagged_at_deadline() {
        let gen = Library {
            steps: 100,
            violation_rate: 0.25,
            ..Default::default()
        }
        .generate();
        assert!(!gen.expected.is_empty());
        let mut checker =
            IncrementalChecker::new(gen.constraints[0].clone(), Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        for exp in &gen.expected {
            let report = reports.iter().find(|r| r.time == exp.time).unwrap();
            assert!(exp.found_in(report), "missing overdue loan at {}", exp.time);
        }
    }

    #[test]
    fn on_time_returns_never_flagged() {
        let gen = Library {
            steps: 80,
            violation_rate: 0.0,
            ..Default::default()
        }
        .generate();
        let mut checker =
            IncrementalChecker::new(gen.constraints[0].clone(), Arc::clone(&gen.catalog)).unwrap();
        for r in crate::run(&mut checker, &gen.transitions) {
            assert!(r.ok(), "spurious violation at {}", r.time);
        }
    }

    #[test]
    fn unbounded_since_makes_windowed_degenerate() {
        // since[D,*] has an unbounded horizon: the windowed checker cannot
        // prune on this workload (documented fallback).
        let gen = Library {
            steps: 30,
            ..Default::default()
        }
        .generate();
        let compiled =
            CompiledConstraint::compile(gen.constraints[0].clone(), Arc::clone(&gen.catalog));
        let mut w = NaiveChecker::windowed(compiled.unwrap());
        crate::run(&mut w, &gen.transitions);
        assert_eq!(w.space().stored_states, 30);
    }
}
