//! Mutation smoke: plant a known bug in a cloned checker and prove the
//! oracle catches it.
//!
//! An equivalence oracle that never fires is indistinguishable from one
//! that cannot fire. Each [`Mutant`] here is a deliberately broken checker
//! realization; the smoke harness fuzzes until the oracle flags it, then
//! shrinks the counterexample exactly as it would for a real bug.

use std::sync::Arc;

use rtic_core::encode::IndexBug;
use rtic_core::{BackendId, Bindings, IncrementalChecker, SleepBug, StepReport};
use rtic_history::Transition;
use rtic_relation::Catalog;
use rtic_temporal::{Constraint, Formula, Interval, TimePoint, UpperBound, Var};

use crate::generate::{case, GenConfig};
use crate::modes::{run_constraint, run_single, single_checker, Mode};
use crate::repro::Repro;
use crate::shrink::{shrink, ShrinkBudget};

/// A deliberately injected checker bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutant {
    /// Every finite metric upper bound is widened by one — the classic
    /// window off-by-one.
    OffByOneWindow,
    /// Steps whose update touches none of the constraint's relations
    /// (including pure clock ticks) are skipped entirely instead of
    /// advancing the temporal state — an engine that sleeps and never wakes.
    DroppedQuiescent,
    /// A cached probe partition is trusted even when its input's version
    /// token neither matches nor chains through a recorded row delta —
    /// the stale-cache bug the version tokens exist to rule out.
    StaleVersion,
    /// A sleeping engine's deadline is computed one tick late, so it
    /// sleeps through the state at which a stamp ages into or out of its
    /// window.
    LateDeadline,
    /// Waking up, the engine absorbs every deferred state but the newest
    /// one — a short catch-up.
    ShortCatchUp,
    /// A run relation's expiry index (`once`, `since`, `hist`) files every
    /// `+ b + 1` deadline one tick late, so a verdict that flipped is
    /// neither published nor pruned on time.
    LateExpiry,
    /// A run relation leaves a run open after its key left the operand,
    /// so the key keeps covering later states.
    OpenRun,
    /// A probe partition applies a window's flips even when they lead from
    /// an epoch other than the one it saw (a window that flipped every key
    /// publishes none).
    StaleEpoch,
    /// The database's net delta keeps a tuple an update deletes and
    /// re-inserts in `removed`, so every reader of the delta drops a row
    /// the relation still holds.
    UnnettedReinsert,
}

impl Mutant {
    /// Every mutant.
    pub const ALL: [Mutant; 9] = [
        Mutant::OffByOneWindow,
        Mutant::DroppedQuiescent,
        Mutant::StaleVersion,
        Mutant::LateDeadline,
        Mutant::ShortCatchUp,
        Mutant::LateExpiry,
        Mutant::OpenRun,
        Mutant::StaleEpoch,
        Mutant::UnnettedReinsert,
    ];

    /// Display/flag name.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::OffByOneWindow => "off-by-one-window",
            Mutant::DroppedQuiescent => "dropped-quiescent",
            Mutant::StaleVersion => "stale-version",
            Mutant::LateDeadline => "late-deadline",
            Mutant::ShortCatchUp => "short-catch-up",
            Mutant::LateExpiry => "late-expiry",
            Mutant::OpenRun => "open-run",
            Mutant::StaleEpoch => "stale-epoch",
            Mutant::UnnettedReinsert => "unnetted-reinsert",
        }
    }

    /// Runs the mutant checker over the history, producing report lines
    /// comparable with the healthy reference. `via` runs `off-by-one-window`'s
    /// widened constraint in that mode (the others live inside a checker).
    pub fn run(
        self,
        via: Option<Mode>,
        constraint: &Constraint,
        catalog: &Arc<Catalog>,
        transitions: &[Transition],
        seed: u64,
    ) -> Result<Vec<String>, String> {
        if via.is_some() && self != Mutant::OffByOneWindow {
            return Err(format!("mutant `{}` has no hook in a mode", self.name()));
        }
        match self {
            Mutant::OffByOneWindow => {
                let mutated = Constraint {
                    body: widen_finite_bounds(&constraint.body),
                    ..constraint.clone()
                };
                let mode = via.unwrap_or(Mode::Single(BackendId::Windowed));
                run_constraint(mode, &mutated, catalog, transitions, seed)
            }
            Mutant::DroppedQuiescent => {
                let mut inner = single_checker(BackendId::Incremental, constraint, catalog)?;
                let relations = constraint.body.relations();
                let touches = |t: &Transition| {
                    t.update
                        .inserts()
                        .chain(t.update.deletes())
                        .any(|(rel, tuples)| !tuples.is_empty() && relations.contains(&rel))
                };
                let mut lines = Vec::with_capacity(transitions.len());
                for t in transitions {
                    if touches(t) {
                        let report = inner.step(t.time, &t.update).map_err(|e| e.to_string())?;
                        lines.push(report.to_string());
                    } else {
                        // The bug: pretend nothing can change and emit a
                        // fabricated "ok" without advancing the engine.
                        lines.push(ok_line(constraint, t.time));
                    }
                }
                Ok(lines)
            }
            _ => {
                let mut inner = IncrementalChecker::new(constraint.clone(), Arc::clone(catalog))
                    .map_err(|e| format!("constraint `{}`: {e}", constraint.name))?;
                match self {
                    Mutant::LateDeadline => inner.arm_sleep_bug(SleepBug::LateDeadline),
                    Mutant::ShortCatchUp => inner.arm_sleep_bug(SleepBug::ShortCatchUp),
                    Mutant::LateExpiry => inner.arm_index_bug(IndexBug::LateExpiry),
                    Mutant::OpenRun => inner.arm_index_bug(IndexBug::OpenRun),
                    Mutant::StaleEpoch => inner.arm_stale_epochs(),
                    Mutant::UnnettedReinsert => inner.arm_unnetted_reinsert(),
                    _ => inner.arm_stale_versions(),
                }
                run_single(Box::new(inner), transitions)
            }
        }
    }
}

/// The report line of a step at which `constraint` holds.
pub(crate) fn ok_line(constraint: &Constraint, time: TimePoint) -> String {
    StepReport {
        constraint: constraint.name,
        time,
        violations: Bindings::none(Vec::<Var>::new()),
    }
    .to_string()
}

/// `[a,b]` → `[a,b+1]` on every temporal operator; unbounded and
/// degenerate intervals are left alone.
fn widen_finite_bounds(f: &Formula) -> Formula {
    let widen = |i: &Interval| match i.hi() {
        UpperBound::Finite(h) => Interval::bounded(i.lo().0, h.0 + 1).unwrap_or(*i),
        UpperBound::Infinite => *i,
    };
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => f.clone(),
        Formula::Not(g) => Formula::Not(Box::new(widen_finite_bounds(g))),
        Formula::And(a, b) => Formula::And(
            Box::new(widen_finite_bounds(a)),
            Box::new(widen_finite_bounds(b)),
        ),
        Formula::Or(a, b) => Formula::Or(
            Box::new(widen_finite_bounds(a)),
            Box::new(widen_finite_bounds(b)),
        ),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(widen_finite_bounds(a)),
            Box::new(widen_finite_bounds(b)),
        ),
        Formula::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(widen_finite_bounds(g))),
        Formula::Forall(vs, g) => Formula::Forall(vs.clone(), Box::new(widen_finite_bounds(g))),
        Formula::Prev(i, g) => Formula::Prev(widen(i), Box::new(widen_finite_bounds(g))),
        Formula::Once(i, g) => Formula::Once(widen(i), Box::new(widen_finite_bounds(g))),
        Formula::Hist(i, g) => Formula::Hist(widen(i), Box::new(widen_finite_bounds(g))),
        Formula::Since(i, l, r) => Formula::Since(
            widen(i),
            Box::new(widen_finite_bounds(l)),
            Box::new(widen_finite_bounds(r)),
        ),
        Formula::CountCmp {
            vars,
            body,
            op,
            threshold,
        } => Formula::CountCmp {
            vars: vars.clone(),
            body: Box::new(widen_finite_bounds(body)),
            op: *op,
            threshold: *threshold,
        },
    }
}

/// Whether the mutant is a no-op on this constraint (e.g. no finite bound
/// to widen) — such cases can never expose the bug and are skipped.
pub fn mutation_applies(m: Mutant, constraint: &Constraint) -> bool {
    match m {
        Mutant::OffByOneWindow => widen_finite_bounds(&constraint.body) != constraint.body,
        _ => true,
    }
}

/// The outcome of hunting one mutant.
#[derive(Clone, Debug)]
pub struct MutationCatch {
    /// Which mutant was caught.
    pub mutant: Mutant,
    /// The case index that exposed it.
    pub case_index: usize,
    /// The shrunk counterexample.
    pub repro: Repro,
}

/// Fuzzes the mutant (run `via` a mode, see [`Mutant::run`]) against the
/// healthy naive reference until a case exposes it, then shrinks. `Err`
/// if `max_cases` cases go by silently — which would mean the oracle
/// cannot catch this class of bug.
pub fn hunt(
    m: Mutant,
    via: Option<Mode>,
    base_seed: u64,
    max_cases: usize,
    cfg: &GenConfig,
) -> Result<MutationCatch, String> {
    let reference = Mode::Single(BackendId::Naive);
    for i in 0..max_cases {
        let c = case(base_seed, i, cfg);
        if !mutation_applies(m, &c.constraint) {
            continue;
        }
        let expected = reference
            .run(&c)
            .map_err(|e| format!("reference failed: {e}"))?;
        let actual = m.run(via, &c.constraint, &c.catalog, &c.transitions, c.seed);
        if actual.as_ref() == Ok(&expected) {
            continue;
        }
        // Caught. Shrink while the mutant keeps disagreeing with naive.
        let diverges = |cand: &Constraint, ts: &[Transition]| {
            if !mutation_applies(m, cand) {
                return false;
            }
            let healthy = run_constraint(reference, cand, &c.catalog, ts, 0);
            let broken = m.run(via, cand, &c.catalog, ts, c.seed);
            match (healthy, broken) {
                (Ok(h), Ok(b)) => h != b,
                _ => false,
            }
        };
        let (sc, sts) = shrink(
            &c.constraint,
            &c.transitions,
            &c.catalog,
            ShrinkBudget::default(),
            diverges,
        );
        return Ok(MutationCatch {
            mutant: m,
            case_index: i,
            repro: Repro {
                seed: c.seed,
                note: format!("mutation-smoke {} vs naive", planted_name(m, via)),
                catalog: Arc::clone(&c.catalog),
                constraint: sc,
                transitions: sts,
            },
        });
    }
    Err(format!(
        "mutant `{}` survived {max_cases} cases — the oracle failed its self-check",
        planted_name(m, via)
    ))
}

/// `name`, or `name via mode` for a mutant handed to a mode.
pub fn planted_name(m: Mutant, via: Option<Mode>) -> String {
    match via {
        None => m.name().to_string(),
        Some(mode) => format!("{} via {}", m.name(), mode.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mutant_is_caught_quickly() {
        let cfg = GenConfig::default();
        for m in Mutant::ALL {
            let caught = hunt(m, None, 42, 200, &cfg).expect("mutant must be caught");
            assert!(
                caught.repro.log_lines() <= 10,
                "{}: shrunk repro has {} log lines",
                m.name(),
                caught.repro.log_lines()
            );
            // The shrunk counterexample must still expose the mutant.
            let healthy = run_constraint(
                Mode::Single(BackendId::Naive),
                &caught.repro.constraint,
                &caught.repro.catalog,
                &caught.repro.transitions,
                0,
            )
            .expect("healthy run");
            let broken = m
                .run(
                    None,
                    &caught.repro.constraint,
                    &caught.repro.catalog,
                    &caught.repro.transitions,
                    0,
                )
                .expect("mutant run");
            assert_ne!(healthy, broken);
        }
    }

    #[test]
    fn a_widened_window_served_to_the_daemon_is_caught() {
        // The daemon has no mutation hook: what it is handed is the bug.
        let c = case(42, 0, &GenConfig::default());
        assert!(mutation_applies(Mutant::OffByOneWindow, &c.constraint));
        let healthy = Mode::Single(BackendId::Naive).run(&c).expect("healthy run");
        let (ts, seed) = (&c.transitions, c.seed);
        let m = Mutant::OffByOneWindow;
        let served = m.run(Some(Mode::Serve), &c.constraint, &c.catalog, ts, seed);
        assert_ne!(healthy, served.expect("served run"));
        let m = Mutant::LateDeadline;
        let hookless = m.run(Some(Mode::Serve), &c.constraint, &c.catalog, ts, seed);
        assert!(hookless.unwrap_err().contains("no hook"));
    }

    #[test]
    fn widening_is_identity_on_unbounded_intervals() {
        let f = rtic_temporal::Formula::atom("r0", [rtic_temporal::Term::var("x")])
            .once(Interval::all());
        assert_eq!(widen_finite_bounds(&f), f);
        let g = rtic_temporal::Formula::atom("r0", [rtic_temporal::Term::var("x")])
            .once(Interval::up_to(2));
        assert_ne!(widen_finite_bounds(&g), g);
    }
}
