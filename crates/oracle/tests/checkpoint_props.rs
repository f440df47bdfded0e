//! Checkpoint and restore as a seeded oracle run of the `stitch` mode. A
//! failure panics with the case shrunk to a repro, ready for
//! `tests/corpus/`.

use rtic_core::BackendId;
use rtic_oracle::{fuzz, GenConfig, Mode};

/// A checkpoint written at a seed-chosen step and restored resumes with
/// the reports the uninterrupted reference gives. A case whose catalog has
/// no spare relation is a fleet of one, so its `save_set`/`restore_set`
/// is the single checker's.
#[test]
fn restore_resumes_identically() {
    let modes = [Mode::Single(BackendId::Naive), Mode::Stitch];
    if let Some(found) = fuzz(17, 12, &GenConfig::default(), &modes) {
        panic!("{found}");
    }
}
