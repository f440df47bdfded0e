//! The observer hooks as a seeded oracle run of the `set` mode. A failure
//! panics with the case shrunk to a repro, ready for `tests/corpus/`.

use rtic_core::BackendId;
use rtic_oracle::{fuzz, GenConfig, Mode};

/// The `set` mode steps its fleet through `step_observed` with a
/// `CollectingObserver`, checks the event counts against the step's
/// reports and is diffed against the plain reference.
#[test]
fn observed_checkers_match_plain_ones() {
    let modes = [Mode::Single(BackendId::Naive), Mode::SetSequential];
    if let Some(found) = fuzz(18, 24, &GenConfig::default(), &modes) {
        panic!("{found}");
    }
}
