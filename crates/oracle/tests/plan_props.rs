//! Planned against interpreted execution as seeded oracle runs, byte for
//! byte, and the plan profiler leaving reports as they are. A failure
//! panics with the case shrunk to a repro, ready for `tests/corpus/`.

use rtic_core::BackendId;
use rtic_oracle::{fuzz, GenConfig, Mode};

const NAIVE: Mode = Mode::Single(BackendId::Naive);

fn assert_agree(seed: u64, cases: usize, modes: &[Mode]) {
    if let Some(found) = fuzz(seed, cases, &GenConfig::default(), modes) {
        panic!("{found}");
    }
}

/// The naive checker through its compiled plans against the interpreting
/// reference.
#[test]
fn planned_naive_matches_interpreted_byte_for_byte() {
    assert_agree(11, 32, &[NAIVE, Mode::NaivePlanned]);
}

/// The incremental checker through its compiled plans against the same
/// checker forced onto the interpreting evaluator.
#[test]
fn planned_incremental_matches_interpreted_byte_for_byte() {
    let modes = [
        Mode::IncrementalInterpreted,
        Mode::Single(BackendId::Incremental),
    ];
    assert_agree(12, 32, &modes);
}

/// The `stitch` mode builds its fleet with `profile_plans: true`, checks
/// each profile's shape (pre-order node ids, the body root run at most
/// once a step) and is diffed against the reference.
#[test]
fn profiling_leaves_reports_byte_identical() {
    assert_agree(8, 12, &[NAIVE, Mode::Stitch]);
}
