//! Kill and restore of a fleet as seeded oracle runs of the `stitch`
//! mode. A failure panics with the case shrunk to a repro, ready for
//! `tests/corpus/`.

use rtic_core::BackendId;
use rtic_oracle::{fuzz, GenConfig, Mode};

const MODES: [Mode; 2] = [Mode::Single(BackendId::Naive), Mode::Stitch];

fn assert_agree(seed: u64, cases: usize) {
    if let Some(found) = fuzz(seed, cases, &GenConfig::default(), &MODES) {
        panic!("{found}");
    }
}

/// Killed at a seed-chosen step, checkpointed and restored into a fresh
/// fleet, the stitched report halves are the reference's, and `space()`
/// is the same before the kill and after the restore.
#[test]
fn kill_at_any_step_and_restore_is_equivalent() {
    assert_agree(15, 40);
}

/// At the kill, the `stitch` mode also restores the checkpoint with its
/// database section lost or torn and expects a typed refusal.
#[test]
fn a_lost_or_torn_database_section_is_a_typed_error() {
    assert_agree(16, 12);
}
