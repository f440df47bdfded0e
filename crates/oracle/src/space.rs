//! The paper's space claim as a seeded run: the bounded encoding keeps
//! what the constraint's windows need, not the history. Replaying a case's
//! history a third time, past every window, must leave a checker's
//! auxiliary space exactly as the second time left it.

use std::sync::Arc;

use rtic_core::{BackendId, Checker, SpaceStats};
use rtic_history::Transition;
use rtic_relation::Catalog;
use rtic_temporal::{Constraint, TimePoint};

use crate::generate::{case, GenConfig};
use crate::modes::single_checker;
use crate::repro::Repro;
use crate::shrink::{shrink, ShrinkBudget};

/// A checker's auxiliary space after the history a case draws, repeated
/// `copies` times, each copy past the last one's windows.
fn space_after_copies(
    checker: &mut dyn Checker,
    ts: &[Transition],
    copies: u64,
) -> Vec<SpaceStats> {
    let (Some(first), Some(last)) = (ts.first(), ts.last()) else {
        return Vec::new();
    };
    // Past every window a generated constraint opens (bounds ≤ 16).
    let period = last.time.0 - first.time.0 + 64;
    (0..copies)
        .map(|k| {
            for t in ts {
                let time = TimePoint(t.time.0 + k * period);
                checker.step(time, &t.update).expect("monotone history");
            }
            checker.space()
        })
        .collect()
}

/// Where the space after the second copy and after the third differ, if
/// they do: a state that keeps growing with the history's length.
pub fn growth(
    backend: BackendId,
    c: &Constraint,
    catalog: &Arc<Catalog>,
    ts: &[Transition],
) -> Option<String> {
    let mut checker = single_checker(backend, c, catalog).ok()?;
    match space_after_copies(checker.as_mut(), ts, 3).as_slice() {
        [_, second, third] if second != third => Some(format!("{second} → {third}")),
        _ => None,
    }
}

/// Cases `0..cases` of `seed` through [`growth`]. The first case whose
/// space grows is shrunk while it keeps growing and returned with its
/// index; `None` means no case grew.
pub fn space_fuzz(
    seed: u64,
    cases: usize,
    cfg: &GenConfig,
    backend: BackendId,
) -> Option<(usize, Repro)> {
    (0..cases).find_map(|i| {
        let c = case(seed, i, cfg);
        let grew = growth(backend, &c.constraint, &c.catalog, &c.transitions)?;
        let (constraint, transitions) = shrink(
            &c.constraint,
            &c.transitions,
            &c.catalog,
            ShrinkBudget::default(),
            |cand, ts| growth(backend, cand, &c.catalog, ts).is_some(),
        );
        let repro = Repro {
            seed: c.seed,
            note: format!("{} space grows: {grew}", backend.name()),
            catalog: Arc::clone(&c.catalog),
            constraint,
            transitions,
        };
        Some((i, repro))
    })
}
