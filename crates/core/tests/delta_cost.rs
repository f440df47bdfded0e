//! A step costs what its update costs — pinned without a stopwatch.
//!
//! The `check-resident` shape of the pipeline benchmark: the paper's
//! motivating constraint over 10⁴ resident rows, stepped with 16-tuple
//! updates. Every memoized scan and probe partition is refreshed in place
//! from the update's row delta, so once the table is loaded no step
//! duplicates a resident row set: [`RuntimePlanStats::rows_copied`] stays
//! zero, and the probes stream a few dozen rows per step instead of the
//! table. Reports stay byte-identical to the tree-walking interpreter.
//! The same holds for an engine woken from sleep with a live violation:
//! the witnesses it replayed while asleep are let go before the plans run,
//! and for the paper's *bounded* forms (EXPERIMENTS.md T3b's shapes (b)–(e))
//! at 2×10⁴ resident rows: each window's expiry index pops what is due
//! and each probe moves only the rows its input delta and the window's
//! flips name. An identity-shaped atom — its sorted variables are its
//! relation's columns in order — reads the relation's own row set and
//! publishes its net delta: no memo copy to refresh, nothing streamed.
//! A checker restored from a checkpoint starts warm: each `once` node over
//! a plain relation read chains from that relation's delta on its first
//! step instead of re-reading it, and the checkpoint of that state is
//! written into one allocation sized from its row and key counts.

use std::sync::Arc;

use rtic_core::checkpoint::{restore, save};
use rtic_core::{Checker, ConstraintSet, EncodingOptions, IncrementalChecker};
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::TimePoint;

const RESIDENT: usize = 10_000;
const BOUNDED_RESIDENT: usize = 20_000;
const EVENTS: usize = 8;
const STEPS: usize = 12;
const WARM_UP: usize = 3;

fn row(k: usize) -> rtic_relation::Tuple {
    tuple![format!("p{k}").as_str(), k as i64]
}

/// Update 0 loads the table; every later update reserves `EVENTS` fresh
/// keys, confirms the previous update's (one straggler per update never
/// confirms) and cancels the stragglers three updates on — one update
/// after their age-2 violation.
fn update(step: usize) -> Update {
    update_over(step, RESIDENT)
}

fn update_over(step: usize, resident: usize) -> Update {
    let mut u = Update::new();
    if step == 0 {
        for k in 0..resident {
            u.insert("reserved", row(k));
            u.insert("confirmed", row(k));
        }
        return u;
    }
    let key = |s: usize, j: usize| resident + s * EVENTS + j;
    for j in 0..EVENTS {
        u.insert("reserved", row(key(step, j)));
        if step >= 2 && j > 0 {
            u.insert("confirmed", row(key(step - 1, j)));
        }
    }
    if step >= 4 {
        u.delete("reserved", row(key(step - 3, 0)));
    }
    u
}

fn catalog() -> Arc<Catalog> {
    let pf = || Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]);
    let catalog = Catalog::new().with("reserved", pf());
    Arc::new(catalog.and_then(|c| c.with("confirmed", pf())).unwrap())
}

const MOTIVATING: &str =
    "deny unconfirmed: reserved(p, f) && once[2,*] reserved(p, f) && !once confirmed(p, f)";

#[test]
fn resident_rows_are_never_copied_in_steady_state() {
    let catalog = catalog();
    let constraint = parse_constraint(MOTIVATING).unwrap();
    let checker = |options| {
        IncrementalChecker::with_options(constraint.clone(), Arc::clone(&catalog), options).unwrap()
    };
    let mut compiled = checker(EncodingOptions {
        profile_plans: true,
        ..Default::default()
    });
    let mut reference = checker(EncodingOptions {
        interpret_eval: true,
        ..Default::default()
    });
    let streamed = |c: &IncrementalChecker| -> u64 {
        let profile = c.plan_profile().expect("profiling enabled");
        let roots = profile.nodes.iter().filter(|n| n.desc.depth == 0);
        roots.map(|n| n.counts.block_rows).sum()
    };

    let mut violations = 0;
    for step in 0..STEPS {
        let u = update(step);
        if step >= 4 {
            assert_eq!(u.len(), 2 * EVENTS, "steady-state updates carry 16 tuples");
        }
        let copied_before = compiled.plan_stats().unwrap().rows_copied;
        let streamed_before = streamed(&compiled);
        let time = TimePoint(step as u64 + 1);
        // The report is rendered and dropped before the next step, as the
        // CLI does: a held report is a legitimate second holder of its
        // witness rows, and a delta into them would copy.
        let got = compiled.step(time, &u).unwrap();
        let expected = reference.step(time, &u).unwrap();
        assert_eq!(got.to_string(), expected.to_string(), "step {step}");
        violations += got.violation_count();
        if step >= WARM_UP {
            let copied = compiled.plan_stats().unwrap().rows_copied - copied_before;
            assert_eq!(copied, 0, "step {step} duplicated {copied} resident row(s)");
            let rows = streamed(&compiled) - streamed_before;
            assert!(
                rows < 200,
                "step {step} streamed {rows} rows through the kernels for a 16-tuple update"
            );
        }
    }
    assert!(violations > 0, "the stragglers must surface as violations");
}

#[test]
fn a_sleeping_engine_with_a_live_violation_wakes_without_copying() {
    // Eight steady updates leave stragglers violating; then the stream
    // goes quiet. Two ticks later the last update's reservations — never
    // confirmed now — have aged into `once[2,*]` and nothing can change
    // any more: the engine sleeps, replaying its ten witnesses. The next
    // 16-tuple update (seven late confirmations among them) wakes it —
    // catch-up, then the usual in-place delta refresh of 10⁴ resident
    // rows: had the replayed witnesses still been held, that refresh
    // would have copied them.
    let options = EncodingOptions {
        profile_plans: true,
        ..Default::default()
    };
    let constraint = parse_constraint(MOTIVATING).unwrap();
    let mut set = ConstraintSet::with_options([constraint], catalog(), options).unwrap();
    let streamed = |set: &ConstraintSet| -> u64 {
        let profiles = set.plan_profiles();
        let nodes = profiles.iter().flat_map(|(_, p)| &p.nodes);
        let roots = nodes.filter(|n| n.desc.depth == 0);
        roots.map(|n| n.counts.block_rows).sum()
    };
    let mut clock = 0u64;
    let mut step = |set: &mut ConstraintSet, u: &Update| {
        clock += 1;
        set.step(TimePoint(clock), u).unwrap()[0].violation_count()
    };
    for s in 0..8 {
        step(&mut set, &update(s));
    }
    let quiet: Vec<usize> = (0..8).map(|_| step(&mut set, &Update::new())).collect();
    assert_eq!(quiet, [2, 10, 10, 10, 10, 10, 10, 10], "witnesses replayed");
    assert_eq!(
        set.dispatch_stats().skipped,
        6,
        "asleep once nothing can age"
    );
    assert_eq!(
        set.deferred_ticks(),
        [(3, 2)],
        "six deferred, bound + 1 kept"
    );

    let (copied, rows) = (set.plan_stats().rows_copied, streamed(&set));
    assert_eq!(step(&mut set, &update(8)), 2);
    assert_eq!(set.deferred_ticks(), [(0, 2)], "woken by the delta");
    assert_eq!(
        set.plan_stats().rows_copied,
        copied,
        "no resident row copied"
    );
    let rows = streamed(&set) - rows;
    assert!(
        rows < 200,
        "waking streamed {rows} rows for a 16-tuple update"
    );
}

/// T3b's bounded shapes over the same stream: (b) the paper's
/// form, (c) both windows bounded, (d) a finite `hist`, (e) `since`.
const BOUNDED: [&str; 4] = [
    "deny b: reserved(p, f) && !once[0,2] confirmed(p, f) && once[2,*] reserved(p, f)",
    "deny c: reserved(p, f) && once[2,50] reserved(p, f) && !once[0,50] confirmed(p, f)",
    "deny d: reserved(p, f) && hist[0,5] reserved(p, f) && !once confirmed(p, f)",
    "deny e: reserved(p, f) && (reserved(p, f) since[3,*] reserved(p, f)) && !once confirmed(p, f)",
];

#[test]
fn bounded_windows_cost_what_changed_at_resident_scale() {
    for src in BOUNDED {
        let constraint = parse_constraint(src).unwrap();
        let checker = |options| {
            IncrementalChecker::with_options(constraint.clone(), catalog(), options).unwrap()
        };
        let mut compiled = checker(EncodingOptions {
            profile_plans: true,
            ..Default::default()
        });
        let mut reference = checker(EncodingOptions {
            interpret_eval: true,
            ..Default::default()
        });
        let streamed = |c: &IncrementalChecker| -> u64 {
            let profile = c.plan_profile().expect("profiling enabled");
            let roots = profile.nodes.iter().filter(|n| n.desc.depth == 0);
            roots.map(|n| n.counts.block_rows).sum()
        };
        for step in 0..STEPS {
            let u = update_over(step, BOUNDED_RESIDENT);
            let copied_before = compiled.plan_stats().unwrap().rows_copied;
            let streamed_before = streamed(&compiled);
            let time = TimePoint(step as u64 + 1);
            let got = compiled.step(time, &u).unwrap();
            let expected = reference.step(time, &u).unwrap();
            assert_eq!(got.to_string(), expected.to_string(), "{src}: step {step}");
            // The loaded table ages into `since[3,*]` at step 3: warm up
            // past every lower bound first.
            if step > WARM_UP {
                let copied = compiled.plan_stats().unwrap().rows_copied - copied_before;
                assert_eq!(copied, 0, "{src}: step {step} duplicated {copied} row(s)");
                let rows = streamed(&compiled) - streamed_before;
                assert!(rows < 200, "{src}: step {step} streamed {rows} rows");
            }
        }
    }
}

#[test]
fn an_identity_shaped_atom_reads_its_relation_and_streams_nothing() {
    // `job(k)` is identity-shaped; `once[2,*] job(k)` probes its rows and
    // `!once done(k)` the survivors. Update 0 loads 2×10⁴ jobs; each later
    // update opens eight, finishes seven of the previous update's and
    // retires one from three updates back.
    let catalog = Catalog::new().with("job", Schema::of(&[("k", Sort::Int)]));
    let catalog = catalog.and_then(|c| c.with("done", Schema::of(&[("k", Sort::Int)])));
    let catalog = Arc::new(catalog.unwrap());
    let src = "deny stale: job(k) && once[2,*] job(k) && !once done(k)";
    let constraint = parse_constraint(src).unwrap();
    let checker = |options| {
        IncrementalChecker::with_options(constraint.clone(), Arc::clone(&catalog), options).unwrap()
    };
    let mut compiled = checker(EncodingOptions {
        profile_plans: true,
        ..Default::default()
    });
    let mut reference = checker(EncodingOptions {
        interpret_eval: true,
        ..Default::default()
    });
    let update = |step: usize| {
        let mut u = Update::new();
        let key = |s: usize, j: usize| (BOUNDED_RESIDENT + s * EVENTS + j) as i64;
        if step == 0 {
            u.extend(true, "job", (0..BOUNDED_RESIDENT as i64).map(|k| tuple![k]));
            return u;
        }
        u.extend(true, "job", (0..EVENTS).map(|j| tuple![key(step, j)]));
        if step >= 2 {
            u.extend(true, "done", (1..EVENTS).map(|j| tuple![key(step - 1, j)]));
        }
        if step >= 4 {
            u.delete("job", tuple![key(step - 3, 0)]);
        }
        u
    };
    // Rows streamed so far by the atom nodes and by the probe nodes.
    let streamed = |c: &IncrementalChecker| -> (u64, u64) {
        let profile = c.plan_profile().expect("profiling enabled");
        let rows = |f: &dyn Fn(&str) -> bool| -> u64 {
            let nodes = profile.nodes.iter().filter(|n| f(&n.desc.label));
            nodes.map(|n| n.counts.block_rows).sum()
        };
        (
            rows(&|l| l == "atom(job)"),
            rows(&|l| l.starts_with("probe(")),
        )
    };
    let profile = compiled.plan_profile().expect("profiling enabled");
    let atom = profile.nodes.iter().find(|n| n.desc.label == "atom(job)");
    assert!(!atom.expect("the atom is planned").desc.memoized);
    for step in 0..STEPS {
        let u = update(step);
        let copied_before = compiled.plan_stats().unwrap().rows_copied;
        let probes_before = streamed(&compiled).1;
        let time = TimePoint(step as u64 + 1);
        let got = compiled.step(time, &u).unwrap();
        let expected = reference.step(time, &u).unwrap();
        assert_eq!(got.to_string(), expected.to_string(), "step {step}");
        let (atom, probes) = streamed(&compiled);
        assert_eq!(atom, 0, "step {step}: the atom streamed rows itself");
        if step > WARM_UP {
            let copied = compiled.plan_stats().unwrap().rows_copied - copied_before;
            assert_eq!(copied, 0, "step {step} duplicated {copied} row(s)");
            let rows = probes - probes_before;
            assert!(rows < 200, "step {step}: the probes streamed {rows} rows");
        }
    }
}

#[test]
fn a_two_column_atom_whose_names_sort_against_its_columns_reads_its_relation() {
    // By name `reserved(p, f)`'s variables sort `(f, p)`, against the
    // relation's `(p, f)`; ranked by first occurrence they sort `(p, f)`.
    // So both atoms are identity-shaped: over 2×10⁴ resident rows neither
    // keeps a memo, copies a row or streams one itself, and each step's
    // probe moves only what its eight new reservations name.
    let src = "deny aged: reserved(p, f) && once[2,*] reserved(p, f)";
    let constraint = parse_constraint(src).unwrap();
    let checker =
        |options| IncrementalChecker::with_options(constraint.clone(), catalog(), options).unwrap();
    let mut compiled = checker(EncodingOptions {
        profile_plans: true,
        ..Default::default()
    });
    let mut reference = checker(EncodingOptions {
        interpret_eval: true,
        ..Default::default()
    });
    assert_eq!(compiled.plan_stats().unwrap().plan.cached_nodes, 0);
    let profile = compiled.plan_profile().expect("profiling enabled");
    let atoms = profile
        .nodes
        .iter()
        .filter(|n| n.desc.label == "atom(reserved)");
    assert_eq!(
        atoms.filter(|n| !n.desc.memoized).count(),
        2,
        "neither atom is memoized"
    );
    // Rows streamed so far by the atom nodes, and by every plan root.
    let streamed = |c: &IncrementalChecker| -> (u64, u64) {
        let profile = c.plan_profile().expect("profiling enabled");
        let rows = |f: &dyn Fn(&rtic_core::NodeDesc) -> bool| -> u64 {
            let nodes = profile.nodes.iter().filter(|n| f(&n.desc));
            nodes.map(|n| n.counts.block_rows).sum()
        };
        (
            rows(&|d| d.label == "atom(reserved)"),
            rows(&|d| d.depth == 0),
        )
    };
    let mut violations = 0;
    for step in 0..STEPS {
        let u = update_over(step, BOUNDED_RESIDENT);
        let copied_before = compiled.plan_stats().unwrap().rows_copied;
        let streamed_before = streamed(&compiled).1;
        let time = TimePoint(step as u64 + 1);
        let got = compiled.step(time, &u).unwrap();
        let expected = reference.step(time, &u).unwrap();
        assert!(
            got == expected,
            "step {step}: the plans and the interpreter disagree"
        );
        violations += got.violation_count();
        let (atoms, roots) = streamed(&compiled);
        assert_eq!(atoms, 0, "step {step}: an atom streamed rows itself");
        if step > WARM_UP {
            let copied = compiled.plan_stats().unwrap().rows_copied - copied_before;
            assert_eq!(copied, 0, "step {step} duplicated {copied} row(s)");
            let rows = roots - streamed_before;
            assert!(
                rows < 200,
                "step {step} streamed {rows} rows for 8 reservations"
            );
        }
    }
    assert!(violations > 0, "reservations two ticks old are witnesses");
}

#[test]
fn a_checkpoint_section_is_allocated_once() {
    // One save of the 10⁴-row state: sized up front from its row and key
    // counts, not grown by doubling.
    let constraint = parse_constraint(MOTIVATING).unwrap();
    let mut checker = IncrementalChecker::new(constraint, catalog()).unwrap();
    for step in 0..STEPS {
        checker
            .step(TimePoint(step as u64 + 1), &update(step))
            .unwrap();
    }
    let text = save(&checker);
    let (len, capacity) = (text.len(), text.capacity());
    assert!(len > 600_000, "the state is resident: {len} bytes");
    assert!(
        capacity * 4 <= len * 5,
        "{capacity} bytes allocated for {len} written"
    );
}

#[test]
fn a_restored_engine_streams_only_the_delta_through_its_once_nodes() {
    // 2×10⁴ resident rows checkpointed after the warm-up. Both `once`
    // nodes read a plain relation, and the restored runs are those
    // relations' rows at the checkpoint's time: the first step after the
    // restore — eight reservations, seven confirmations — reads their
    // row deltas, where a rebuild would re-read all 2×10⁴ rows of each.
    let constraint = parse_constraint(MOTIVATING).unwrap();
    let mut uninterrupted = IncrementalChecker::new(constraint.clone(), catalog()).unwrap();
    for step in 0..=WARM_UP {
        let u = update_over(step, BOUNDED_RESIDENT);
        uninterrupted.step(TimePoint(step as u64 + 1), &u).unwrap();
    }
    let text = save(&uninterrupted);
    let mut restored = restore(constraint, catalog(), EncodingOptions::default(), &text).unwrap();
    let streamed =
        |c: &IncrementalChecker| -> u64 { c.node_stats().iter().map(|n| n.streamed).sum() };
    assert_eq!(streamed(&restored), 0, "restoring reads no operand");
    let copied = restored.plan_stats().unwrap().rows_copied;
    let (step, time) = (WARM_UP + 1, TimePoint(WARM_UP as u64 + 2));
    let u = update_over(step, BOUNDED_RESIDENT);
    let expected = uninterrupted.step(time, &u).unwrap();
    let got = restored.step(time, &u).unwrap();
    assert_eq!(got.to_string(), expected.to_string());
    let rows = streamed(&restored);
    assert!(
        rows < 200,
        "the first step after the restore streamed {rows} rows through the once nodes"
    );
    let copied = restored.plan_stats().unwrap().rows_copied - copied;
    assert_eq!(copied, 0, "the first step duplicated {copied} row(s)");
}
