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

/// The incremental engine through its compiled plans (the `set` fleet)
/// against the same engine forced onto the interpreting evaluator. The
/// naive checker's planned body against its interpreting reference is
/// `equivalence_props::peephole_optimizer_preserves_reports`.
#[test]
fn planned_incremental_matches_interpreted_byte_for_byte() {
    assert_agree(12, 32, &[Mode::IncrementalInterpreted, Mode::SetSequential]);
}

/// The `stitch` mode builds its fleet with `profile_plans: true`, checks
/// each profile's shape (pre-order node ids, the body root run at most
/// once a step) and is diffed against the reference.
#[test]
fn profiling_leaves_reports_byte_identical() {
    assert_agree(8, 12, &[NAIVE, Mode::Stitch]);
}
