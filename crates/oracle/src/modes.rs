//! The checker realizations a case is run through.
//!
//! Individual-backend modes come from the shared [`BackendId`] enumeration
//! in `rtic-core` (the same one the CLI and the bench tables use); the
//! fleet and checkpoint/resume modes are oracle-specific compositions on
//! top of [`ConstraintSet`], and `serve` drives that fleet through a live
//! daemon.

use std::sync::Arc;

use rtic_active::ActiveChecker;
use rtic_core::{
    checkpoint, BackendId, Checker, ConstraintSet, EncodingOptions, IncrementalChecker,
    NaiveChecker, WindowedChecker,
};
use rtic_history::Transition;
use rtic_relation::Catalog;
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;

use crate::derive_seed;
use crate::generate::{Case, SPARE};

/// One way of checking a case end to end, producing canonical report lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// A single standalone checker from the shared backend enumeration.
    Single(BackendId),
    /// The naive checker evaluating its body through the compiled plan.
    /// The reference (`Single(Naive)`) runs the interpreting evaluator,
    /// so this entry diffs planned against interpreted execution over the
    /// very same history storage.
    NaivePlanned,
    /// The incremental checker forced back onto the interpreting
    /// evaluator (`EncodingOptions::interpret_eval`) — the converse
    /// plan-vs-interpret probe, through the bounded encoding.
    IncrementalInterpreted,
    /// A [`ConstraintSet`] of the constraint plus one or two companions
    /// over the spare relation, stepped line by line — pins relevance
    /// dispatch against the reference: while one engine works the other
    /// sleeps until its next window deadline.
    SetSequential,
    /// Kill that fleet at a seed-derived step (possibly mid-sleep),
    /// checkpoint, restore into a fresh process image, and stitch the two
    /// report halves together.
    Stitch,
    /// Stream that fleet through a live `rtic serve` daemon, killed and
    /// resumed mid-stream, and read its drained report (`soak.rs`).
    Serve,
}

impl Mode {
    /// Every mode, reference first. The naive checker re-evaluates the
    /// full stored history through the interpreting evaluator and is the
    /// semantics-defining baseline all other modes are diffed against.
    pub const ALL: [Mode; 9] = [
        Mode::Single(BackendId::Naive),
        Mode::Single(BackendId::Incremental),
        Mode::Single(BackendId::Windowed),
        Mode::Single(BackendId::Active),
        Mode::NaivePlanned,
        Mode::IncrementalInterpreted,
        Mode::SetSequential,
        Mode::Stitch,
        Mode::Serve,
    ];

    /// The mode's `--backends` flag name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Single(b) => b.name(),
            Mode::NaivePlanned => "naive-plan",
            Mode::IncrementalInterpreted => "inc-interp",
            Mode::SetSequential => "set",
            Mode::Stitch => "stitch",
            Mode::Serve => "serve",
        }
    }

    /// Parses a `--backends` list entry; the error is the usage message.
    pub fn parse(s: &str) -> Result<Mode, String> {
        if s == "fleet-sharded" {
            return Err(
                "backend `fleet-sharded` was removed: the per-key shard plane was slower than \
                 the one engine at every recorded point (docs/PERFORMANCE.md §6a); `stitch` \
                 keeps the fleet kill+resume drill"
                    .into(),
            );
        }
        let known = Mode::ALL.into_iter().find(|m| m.name() == s);
        known.ok_or_else(|| format!("unknown backend `{s}` (expected {})", Mode::flag_help()))
    }

    /// The `a|b|c` listing for usage text.
    pub fn flag_help() -> String {
        let names: Vec<&str> = Mode::ALL.iter().map(|m| m.name()).collect();
        names.join("|")
    }

    /// Runs the case, returning one report line per
    /// constraint-step (the [`rtic_core::StepReport`] display form).
    /// Checker errors are surfaced as `Err` and treated as divergence.
    pub fn run(self, case: &Case) -> Result<Vec<String>, String> {
        run_constraint(
            self,
            &case.constraint,
            &case.catalog,
            &case.transitions,
            case.seed,
        )
    }
}

/// [`Mode::run`] for an explicit constraint/catalog/history triple — the
/// shrinker and mutation harness re-run candidates through this.
pub fn run_constraint(
    mode: Mode,
    constraint: &Constraint,
    catalog: &Arc<Catalog>,
    transitions: &[Transition],
    seed: u64,
) -> Result<Vec<String>, String> {
    match mode {
        Mode::Single(b) => {
            let checker = single_checker(b, constraint, catalog)?;
            run_single(checker, transitions)
        }
        Mode::NaivePlanned => {
            let err = |e: rtic_core::CompileError| format!("constraint `{}`: {e}", constraint.name);
            let checker =
                NaiveChecker::new(constraint.clone(), Arc::clone(catalog)).map_err(err)?;
            run_single(Box::new(checker), transitions)
        }
        Mode::IncrementalInterpreted => {
            let err = |e: rtic_core::CompileError| format!("constraint `{}`: {e}", constraint.name);
            let options = EncodingOptions {
                interpret_eval: true,
                ..Default::default()
            };
            let checker =
                IncrementalChecker::with_options(constraint.clone(), Arc::clone(catalog), options)
                    .map_err(err)?;
            run_single(Box::new(checker), transitions)
        }
        Mode::SetSequential => run_set(constraint, catalog, transitions, seed),
        Mode::Stitch => run_stitch(constraint, catalog, transitions, seed),
        Mode::Serve => crate::soak::run_serve(constraint, catalog, transitions, seed),
    }
}

pub(crate) fn run_single(
    mut checker: Box<dyn Checker>,
    transitions: &[Transition],
) -> Result<Vec<String>, String> {
    let mut lines = Vec::with_capacity(transitions.len());
    for t in transitions {
        let report = checker.step(t.time, &t.update).map_err(|e| e.to_string())?;
        lines.push(report.to_string());
    }
    Ok(lines)
}

/// Constructs a standalone checker for a [`BackendId`] — the oracle-side
/// twin of the CLI's backend construction (the oracle depends on every
/// backend crate, so it can realize the whole enumeration). The naive
/// checker is built in interpreting mode: as the reference it must stay on
/// the semantics-defining evaluator, not the plans under test.
pub fn single_checker(
    b: BackendId,
    constraint: &Constraint,
    catalog: &Arc<Catalog>,
) -> Result<Box<dyn Checker>, String> {
    let c = constraint.clone();
    let cat = Arc::clone(catalog);
    let err = |e: rtic_core::CompileError| format!("constraint `{}`: {e}", constraint.name);
    Ok(match b {
        BackendId::Incremental => Box::new(IncrementalChecker::new(c, cat).map_err(err)?),
        BackendId::Naive => Box::new(NaiveChecker::new_interpreted(c, cat).map_err(err)?),
        BackendId::Windowed => Box::new(WindowedChecker::new(c, cat).map_err(err)?),
        BackendId::Active => Box::new(ActiveChecker::new(c, cat).map_err(err)?),
    })
}

/// The fleet the `set`/`stitch`/`serve` modes step: the constraint under test
/// plus, when the catalog declares [`SPARE`], one or two (seed-derived)
/// companions that read nothing else — so an update wakes at most one
/// side, and the other sleeps.
pub(crate) fn fleet(constraint: &Constraint, catalog: &Arc<Catalog>, seed: u64) -> Vec<Constraint> {
    const COMPANIONS: [&str; 2] = [
        "deny w0: s0(x) && once[1,3] s0(x)",
        "deny w1: s0(x) && !hist[0,2] s0(x)",
    ];
    let mut fleet = vec![constraint.clone()];
    if catalog.schema_of(SPARE.into()).is_some() {
        let n = 1 + (derive_seed(seed, 0xF1EE7) % 2) as usize;
        let parse = |src: &&str| parse_constraint(src).expect("companion parses");
        fleet.extend(COMPANIONS[..n].iter().map(parse));
    }
    fleet
}

/// Steps `set` over `transitions`, keeping the report lines of the
/// constraint under test (the fleet's first member).
fn step_fleet(
    set: &mut ConstraintSet,
    transitions: &[Transition],
    lines: &mut Vec<String>,
) -> Result<(), String> {
    for t in transitions {
        let reports = set.step(t.time, &t.update).map_err(|e| e.to_string())?;
        lines.extend(reports.first().map(|r| r.to_string()));
    }
    Ok(())
}

/// [`Mode::SetSequential`]: the fleet (relevance dispatch on) stepped
/// one transition at a time.
fn run_set(
    constraint: &Constraint,
    catalog: &Arc<Catalog>,
    transitions: &[Transition],
    seed: u64,
) -> Result<Vec<String>, String> {
    let mut set = ConstraintSet::new(fleet(constraint, catalog, seed), Arc::clone(catalog))
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?;
    let mut lines = Vec::with_capacity(transitions.len());
    step_fleet(&mut set, transitions, &mut lines)?;
    Ok(lines)
}

/// Picks the seed-derived kill step for [`Mode::Stitch`]: some step
/// strictly inside the history (1..len), or 0 for single-step histories
/// (restore-before-first-step).
pub fn stitch_kill_step(seed: u64, len: usize) -> usize {
    if len <= 1 {
        0
    } else {
        1 + (derive_seed(seed, 0xDEAD) % (len as u64 - 1)) as usize
    }
}

fn run_stitch(
    constraint: &Constraint,
    catalog: &Arc<Catalog>,
    transitions: &[Transition],
    seed: u64,
) -> Result<Vec<String>, String> {
    let kill = stitch_kill_step(seed, transitions.len());
    let fleet = fleet(constraint, catalog, seed);
    let mut set = ConstraintSet::new(fleet.clone(), Arc::clone(catalog))
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?;
    let mut lines = Vec::with_capacity(transitions.len());
    step_fleet(&mut set, &transitions[..kill], &mut lines)?;
    // "Crash": drop the live set, keeping only the serialized checkpoint,
    // then restore into a fresh fleet and finish the history.
    let sections: Vec<String> = checkpoint::save_set(&set)
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    drop(set);
    let mut resumed = checkpoint::restore_set(fleet, Arc::clone(catalog), &sections)
        .map_err(|e| format!("restore: {e}"))?;
    step_fleet(&mut resumed, &transitions[kill..], &mut lines)?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{case, GenConfig};

    #[test]
    fn mode_names_round_trip() {
        for m in Mode::ALL {
            assert_eq!(Mode::parse(m.name()), Ok(m));
        }
        assert!(Mode::parse("bogus")
            .unwrap_err()
            .contains("unknown backend"));
        let gone = Mode::parse("fleet-sharded").unwrap_err();
        assert!(
            gone.contains("was removed") && gone.contains("§6a"),
            "{gone}"
        );
        assert!(Mode::flag_help().starts_with("naive|incremental"));
    }

    #[test]
    fn kill_step_is_inside_the_history() {
        for len in [2usize, 3, 10, 100] {
            for seed in 0..20u64 {
                let k = stitch_kill_step(seed, len);
                assert!((1..len).contains(&k), "kill {k} outside 1..{len}");
            }
        }
        assert_eq!(stitch_kill_step(7, 1), 0);
    }

    #[test]
    fn all_modes_agree_on_a_sample_case() {
        let c = case(11, 0, &GenConfig::default());
        let reference = Mode::ALL[0].run(&c).expect("naive runs");
        for m in &Mode::ALL[1..] {
            assert_eq!(
                m.run(&c).expect("mode runs"),
                reference,
                "{} diverged",
                m.name()
            );
        }
    }
}
