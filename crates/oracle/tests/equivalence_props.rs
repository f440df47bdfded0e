//! The paper's equivalence as seeded oracle runs: every standalone
//! checker reports what the naive reference reports, and the bounded
//! encoding's space does not grow with the history. A failure panics with
//! the case shrunk to a repro, ready for `tests/corpus/`.

use rtic_core::BackendId;
use rtic_oracle::{fuzz, space_fuzz, GenConfig, Mode};

fn assert_agree(seed: u64, cases: usize, cfg: &GenConfig, modes: &[Mode]) {
    if let Some(found) = fuzz(seed, cases, cfg, modes) {
        panic!("{found}");
    }
}

/// The incremental (as a `set` fleet), windowed and active checkers
/// against the naive reference, which re-evaluates the full stored
/// history.
#[test]
fn all_checkers_agree() {
    let modes = [
        Mode::Single(BackendId::Naive),
        Mode::SetSequential,
        Mode::Single(BackendId::Windowed),
        Mode::Single(BackendId::Active),
    ];
    assert_agree(7, 24, &GenConfig::default(), &modes);
}

/// The reference compiles without the peephole rewrites and interprets
/// its body; the windowed checker compiles with them and runs its body
/// through the compiled plan, over the same stored states (pruning only
/// drops states no operator can reach), so the diff is the rewrites' and
/// the plan executor's.
#[test]
fn peephole_optimizer_preserves_reports() {
    let modes = [
        Mode::Single(BackendId::Naive),
        Mode::Single(BackendId::Windowed),
    ];
    for seed in [9, 11] {
        assert_agree(seed, 32, &GenConfig::default(), &modes);
    }
}

/// A history replayed a third time, past every window, leaves the
/// incremental checker's auxiliary space as the second time left it.
#[test]
fn incremental_space_is_history_independent() {
    if let Some((i, repro)) = space_fuzz(10, 32, &GenConfig::default(), BackendId::Incremental) {
        panic!("case {i}: --- repro ---\n{}", repro.to_text());
    }
}
