//! The active-database checker as seeded oracle runs: its reports are the
//! incremental engine's (stepped as a `set` fleet), and its space does not
//! grow with the history.
//! A failure panics with the case shrunk to a repro, ready for
//! `tests/corpus/`.

use rtic_core::BackendId;
use rtic_oracle::{fuzz, space_fuzz, GenConfig, Mode};

#[test]
fn active_agrees_with_incremental() {
    let modes = [Mode::SetSequential, Mode::Single(BackendId::Active)];
    if let Some(found) = fuzz(19, 32, &GenConfig::default(), &modes) {
        panic!("{found}");
    }
}

/// A history replayed a third time, past every window, leaves the active
/// checker's auxiliary space as the second time left it.
#[test]
fn active_space_stays_bounded() {
    if let Some((i, repro)) = space_fuzz(20, 32, &GenConfig::default(), BackendId::Active) {
        panic!("case {i}: --- repro ---\n{}", repro.to_text());
    }
}
