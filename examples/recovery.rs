//! Crash recovery: checkpoint the bounded auxiliary state mid-stream,
//! "crash", restore, and continue — producing exactly the reports an
//! uninterrupted checker would have produced.
//!
//! This is the operational payoff of the paper's space bound: the state a
//! real-time checker must persist to survive restarts is the current
//! database plus a few timestamps per live key, *not* the history.
//!
//! Run with: `cargo run --example recovery`

use std::sync::Arc;

use rtic::core::checkpoint::{restore, save};
use rtic::core::{Checker, EncodingOptions, IncrementalChecker, StepReport};
use rtic::history::Transition;
use rtic::workload::Monitor;

/// Steps `checker` through `transitions`, collecting its reports.
fn run(checker: &mut IncrementalChecker, transitions: &[Transition]) -> Vec<StepReport> {
    let step = |t: &Transition| checker.step(t.time, &t.update).unwrap();
    transitions.iter().map(step).collect()
}

fn main() {
    let spec = Monitor {
        steps: 100,
        sensors: 5,
        raise_rate: 0.12,
        ack_window: 4,
        violation_rate: 0.25,
        spike_rate: 0.0,
        seed: 17,
    };
    let generated = spec.generate();
    let constraint = generated.constraints[0].clone(); // unacked alarms
    println!("constraint: {constraint}");

    // Reference: an uninterrupted run.
    let mut reference =
        IncrementalChecker::new(constraint.clone(), Arc::clone(&generated.catalog)).unwrap();
    let reference_reports = run(&mut reference, &generated.transitions);

    // Interrupted run: process half, checkpoint, drop the checker ("crash"),
    // restore from the text, continue.
    let half = generated.transitions.len() / 2;
    let mut first_half =
        IncrementalChecker::new(constraint.clone(), Arc::clone(&generated.catalog)).unwrap();
    let mut reports = run(&mut first_half, &generated.transitions[..half]);
    let checkpoint_text = save(&first_half);
    println!(
        "\ncheckpoint after {} transitions: {} bytes, {} lines \
         (the whole recoverable state)",
        half,
        checkpoint_text.len(),
        checkpoint_text.lines().count()
    );
    for line in checkpoint_text.lines().take(6) {
        println!("  {line}");
    }
    println!("  …");
    drop(first_half); // the crash

    let mut resumed = restore(
        constraint,
        Arc::clone(&generated.catalog),
        EncodingOptions::default(),
        &checkpoint_text,
    )
    .unwrap();
    reports.extend(run(&mut resumed, &generated.transitions[half..]));

    assert_eq!(
        reports, reference_reports,
        "resumed run must be indistinguishable from the uninterrupted one"
    );
    let violations: usize = reports.iter().map(|r| r.violation_count()).sum();
    println!(
        "\nresumed run matches the uninterrupted one: {} reports, {} violation witnesses",
        reports.len(),
        violations
    );
    println!("final space: {}", resumed.space());
}
