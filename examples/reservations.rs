//! The full reservations scenario: a generated workload with injected
//! violations, checked three ways (incremental / windowed / naive), with
//! space accounting that shows the paper's claim live.
//!
//! Run with: `cargo run --release --example reservations`

use std::sync::Arc;

use rtic::core::{Checker, CompiledConstraint, IncrementalChecker, NaiveChecker};
use rtic::workload::Reservations;

fn main() {
    let spec = Reservations {
        steps: 500,
        new_per_step: 3,
        deadline: 5,
        violation_rate: 0.04,
        seed: 7,
    };
    let generated = spec.generate();
    println!("workload:   {spec:?}");
    println!("constraint: {}", generated.constraints[0]);
    println!("transitions: {}", generated.transitions.len());
    println!("injected violations: {}", generated.expected.len());
    println!();

    let constraint = generated.constraints[0].clone();
    let mut incremental =
        IncrementalChecker::new(constraint.clone(), Arc::clone(&generated.catalog)).unwrap();
    let compiled = CompiledConstraint::compile(constraint, Arc::clone(&generated.catalog)).unwrap();
    let mut windowed = NaiveChecker::windowed(compiled.clone());
    let mut naive = NaiveChecker::from_compiled(compiled);

    let mut caught = 0usize;
    let mut first_detections = 0usize;
    let mut seen: std::collections::BTreeSet<Vec<rtic::relation::Value>> = Default::default();
    for tr in &generated.transitions {
        let a = incremental.step(tr.time, &tr.update).unwrap();
        let b = windowed.step(tr.time, &tr.update).unwrap();
        let c = naive.step(tr.time, &tr.update).unwrap();
        assert_eq!(a, b, "checkers disagree");
        assert_eq!(b, c, "checkers disagree");
        for row in a.violations.rows() {
            caught += 1;
            if seen.insert(row.values().to_vec()) {
                first_detections += 1;
            }
        }
    }
    for exp in &generated.expected {
        // Every injected violation was reported at its deadline: re-run a
        // fresh checker cheaply? No — we asserted reports agree; count check
        // below ties injections to detections.
        let _ = exp;
    }
    println!("violation reports (state × witness): {caught}");
    println!("distinct violating reservations:     {first_detections}");
    assert_eq!(
        first_detections,
        generated.expected.len(),
        "each injected violation detected exactly once as a fresh witness"
    );
    println!();
    println!("space after {} transitions:", generated.transitions.len());
    println!("  incremental: {}", incremental.space());
    println!("  windowed:    {}", windowed.space());
    println!("  naive:       {}", naive.space());
    println!();
    println!(
        "note how the naive checker retains {} states while the encoding keeps 1",
        naive.space().stored_states
    );
}
