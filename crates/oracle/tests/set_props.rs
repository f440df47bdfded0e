//! The `ConstraintSet` fleet as seeded oracle runs of the `set` mode. A
//! failure panics with the case shrunk to a repro, ready for
//! `tests/corpus/`.

use rtic_core::BackendId;
use rtic_oracle::{fuzz, GenConfig, Mode};

const MODES: [Mode; 2] = [Mode::Single(BackendId::Naive), Mode::SetSequential];

fn assert_agree(seed: u64, cases: usize) {
    if let Some(found) = fuzz(seed, cases, &GenConfig::default(), &MODES) {
        panic!("{found}");
    }
}

/// A fleet, stepped with relevance dispatch, reports per constraint what
/// the reference reports.
#[test]
fn fleet_matches_independent_checkers() {
    assert_agree(13, 16);
}

/// The `set` mode steps a forced-full twin (every update plus ghost
/// deletes) beside the fleet and compares reports, `save_set` sections,
/// `space()` and the deferral bound each step.
#[test]
fn a_sleeping_set_is_its_forced_full_twin() {
    assert_agree(14, 16);
}
