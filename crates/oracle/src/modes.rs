//! The checker realizations a case is run through.
//!
//! Individual-backend modes come from the shared [`BackendId`] enumeration
//! in `rtic-core` (the same one the CLI and the bench tables use); the
//! fleet and checkpoint/resume modes are oracle-specific compositions on
//! top of [`ConstraintSet`], and `serve` drives that fleet through a live
//! daemon.

use std::sync::Arc;

use rtic_active::ActiveChecker;
use rtic_core::checkpoint::{self, CheckpointError};
use rtic_core::observe::CollectingObserver;
use rtic_core::{
    BackendId, Checker, CompiledConstraint, ConstraintSet, EncodingOptions, IncrementalChecker,
    NaiveChecker, StepEvent, StepReport,
};
use rtic_history::Transition;
use rtic_relation::{Catalog, Database, Sort, Symbol, Tuple, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;

use crate::derive_seed;
use crate::generate::{Case, SPARE};

/// One way of checking a case end to end, producing canonical report lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// A single standalone checker from the shared backend enumeration.
    /// `Single(Incremental)` is no entry of [`Mode::ALL`]: that checker is
    /// a one-member [`ConstraintSet`], which `set` steps with more checks.
    Single(BackendId),
    /// The incremental checker forced back onto the interpreting
    /// evaluator (`EncodingOptions::interpret_eval`) — the one fuzzed
    /// check of the executor the engine's planned path is measured and
    /// tested against.
    IncrementalInterpreted,
    /// A [`ConstraintSet`] of the constraint plus one or two companions
    /// over the spare relation, stepped line by line — pins relevance
    /// dispatch against the reference: while one engine works the other
    /// sleeps until its next window deadline. Its observer events, its
    /// forced-full twin and a database clone held across a step are
    /// checked on the way (docs/TESTING.md, "Checks inside a mode").
    SetSequential,
    /// Kill that fleet, built with the plan profiler on, at a seed-derived
    /// step (possibly mid-sleep), checkpoint, restore into a fresh process
    /// image, and stitch the two report halves together. The profiles, the
    /// space accounting across the restore and the refusal of a lost or
    /// torn database section are checked on the way (docs/TESTING.md).
    Stitch,
    /// Stream that fleet through a live `rtic serve` daemon, killed and
    /// resumed mid-stream, and read its drained report (`soak.rs`).
    Serve,
}

impl Mode {
    /// Every mode, reference first. The naive checker re-evaluates the
    /// full stored history through the interpreting evaluator and is the
    /// semantics-defining baseline all other modes are diffed against;
    /// `windowed` runs the same stored-history checker through its
    /// compiled plan over the horizon's window.
    pub const ALL: [Mode; 7] = [
        Mode::Single(BackendId::Naive),
        Mode::Single(BackendId::Windowed),
        Mode::Single(BackendId::Active),
        Mode::IncrementalInterpreted,
        Mode::SetSequential,
        Mode::Stitch,
        Mode::Serve,
    ];

    /// The mode's `--backends` flag name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Single(b) => b.name(),
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
/// checker is built in interpreting mode from the unoptimized compile: as
/// the reference it must stay on the semantics-defining evaluator, not the
/// plans or the peephole rewrites under test, so every diff against it
/// also checks the rewrites. A body that only its rewrites make safe
/// (`hist hist q(x)` is `hist q(x)`) falls back to the optimized compile.
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
        BackendId::Naive => {
            let plain = CompiledConstraint::compile_unoptimized(c.clone(), Arc::clone(&cat));
            let compiled = plain.or_else(|_| CompiledConstraint::compile(c, cat));
            let compiled = compiled.map_err(err)?;
            Box::new(NaiveChecker::interpreted(compiled))
        }
        BackendId::Windowed => {
            let compiled = CompiledConstraint::compile(c, cat).map_err(err)?;
            Box::new(NaiveChecker::windowed(compiled))
        }
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

fn build_set(
    fleet: &[Constraint],
    catalog: &Arc<Catalog>,
    options: EncodingOptions,
) -> Result<ConstraintSet, String> {
    ConstraintSet::with_options(fleet.iter().cloned(), Arc::clone(catalog), options)
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))
}

/// [`Mode::SetSequential`]: the fleet (relevance dispatch on) stepped
/// one transition at a time through `step_observed`. Three checks ride
/// along; a failed one is an `Err`, which the diff reports (and the
/// shrinker minimizes) as a divergence:
///
/// * the observer's events agree with the reports ([`check_events`]);
/// * a forced-full twin — the same fleet stepped with every update plus a
///   delete of an absent tuple from each relation, so no engine is ever
///   quiescent and none ever sleeps — reports the same and holds the
///   same `space()` after every step, whatever the set has deferred, and
///   the same settled state (`save_set` sections without their
///   `dispatch` line) after a seed-chosen one step in four and the last
///   (writing both sets' sections every step would double the mode's
///   cost again); the set never defers more than `b + 1` states, and the
///   twin never sleeps;
/// * on seed-chosen steps a clone of the database is held across the
///   step, so the step copies each relation it changes instead of editing
///   it in place: the holder must read afterwards what it read before.
fn run_set(
    constraint: &Constraint,
    catalog: &Arc<Catalog>,
    transitions: &[Transition],
    seed: u64,
) -> Result<Vec<String>, String> {
    let fleet = fleet(constraint, catalog, seed);
    let options = EncodingOptions::default();
    let (mut set, mut twin) = (
        build_set(&fleet, catalog, options)?,
        build_set(&fleet, catalog, options)?,
    );
    let ghosts = ghost_deletes(catalog);
    let mut obs = CollectingObserver::default();
    let mut lines = Vec::with_capacity(transitions.len());
    for (n, t) in transitions.iter().enumerate() {
        let at = t.time;
        let held = derive_seed(seed, 0xC0DE ^ n as u64)
            .is_multiple_of(4)
            .then(|| {
                let db = set.database().clone();
                let rows = rows_of(&db);
                (db, rows)
            });
        let reports = set
            .step_observed(at, &t.update, &mut obs)
            .map_err(|e| e.to_string())?;
        check_events(&obs.events, &reports).map_err(|e| format!("t={at}: events: {e}"))?;
        obs.events.clear();
        if let Some((db, rows)) = held {
            if rows_of(&db) != rows {
                return Err(format!(
                    "t={at}: a database clone held across the step changed"
                ));
            }
        }
        let mut forced = t.update.clone();
        for (rel, ghost) in &ghosts {
            forced.delete(*rel, ghost.clone());
        }
        let expected = twin.step(at, &forced).map_err(|e| e.to_string())?;
        if reports != expected {
            return Err(format!(
                "t={at}: sleeping {reports:?}, forced-full twin {expected:?}"
            ));
        }
        let sampled = derive_seed(seed, 0x5EC7 ^ n as u64).is_multiple_of(4);
        if (sampled || n + 1 == transitions.len()) && sections(&set) != sections(&twin) {
            return Err(format!(
                "t={at}: settled state differs from the forced-full twin's"
            ));
        }
        if set.space() != twin.space() {
            let (lazy, eager) = (set.space(), twin.space());
            return Err(format!("t={at}: space {lazy}, forced-full twin {eager}"));
        }
        for (deferred, bound) in set.deferred_ticks() {
            if deferred as u64 > bound + 1 {
                return Err(format!("t={at}: {deferred} states deferred, bound {bound}"));
            }
        }
        lines.extend(reports.first().map(|r| r.to_string()));
    }
    match twin.dispatch_stats().skipped {
        0 => Ok(lines),
        n => Err(format!(
            "the forced-full twin slept through {n} engine-step(s)"
        )),
    }
}

/// One absent tuple per relation: deleting it changes nothing, but makes
/// the update touch every relation. Its values lie outside anything a
/// generated history, a repro or a scenario writes (a relation of `bool`
/// columns alone has no such tuple; no catalog the oracle runs has one).
fn ghost_deletes(catalog: &Catalog) -> Vec<(Symbol, Tuple)> {
    let ghost = |sort: Sort| match sort {
        Sort::Int => Value::Int(i64::MIN),
        Sort::Str => Value::str("\u{1}ghost"),
        Sort::Bool => Value::Bool(false),
    };
    let schemas = catalog
        .names()
        .filter_map(|n| Some((n, catalog.schema_of(n)?)));
    schemas
        .map(|(n, schema)| (n, Tuple::new(schema.sorts().map(ghost))))
        .collect()
}

/// Every relation's rows, in a canonical order.
fn rows_of(db: &Database) -> Vec<(Symbol, Vec<Tuple>)> {
    let mut names: Vec<Symbol> = db.catalog().names().collect();
    names.sort();
    let rows = |n: Symbol| {
        db.relation(n)
            .map(|r| r.sorted().into_iter().cloned().collect())
    };
    names
        .into_iter()
        .map(|n| (n, rows(n).unwrap_or_default()))
        .collect()
}

/// `save_set` sections without their `dispatch` line — the one place a
/// sleeping set and its forced-full twin may differ.
fn sections(set: &ConstraintSet) -> Vec<String> {
    let strip = |text: String| {
        let kept = text.lines().filter(|l| !l.starts_with("dispatch "));
        kept.collect::<Vec<_>>().join("\n")
    };
    let saved = checkpoint::save_set(set);
    saved.into_iter().map(|(_, text)| strip(text)).collect()
}

/// One step's observer events against its reports: one `step_start` and
/// one `step` event, one `eval` per report, the evals' violation counts
/// summing to the step's and to the reports', and one `violation` event
/// per violating report.
fn check_events(events: &[StepEvent<'_>], reports: &[StepReport]) -> Result<(), String> {
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    let (starts, ends, evals) = (count("step_start"), count("step"), count("eval"));
    if (starts, ends, evals) != (1, 1, reports.len()) {
        return Err(format!(
            "{starts} step_start, {ends} step and {evals} eval event(s) for {} report(s)",
            reports.len()
        ));
    }
    let mut eval_violations = 0;
    let mut violating_evals = 0;
    let mut step_violations = 0;
    for e in events {
        match e {
            StepEvent::ConstraintEval(eval) => {
                eval_violations += eval.violations;
                violating_evals += usize::from(eval.violations > 0);
            }
            StepEvent::StepEnd(end) => step_violations = end.violations,
            _ => {}
        }
    }
    let reported: usize = reports.iter().map(StepReport::violation_count).sum();
    let violating = reports.iter().filter(|r| !r.ok()).count();
    if (eval_violations, step_violations) != (reported, reported) {
        return Err(format!(
            "evals count {eval_violations} and the step {step_violations} violation(s), \
             the reports {reported}"
        ));
    }
    let violation_events = count("violation");
    if (violation_events, violating_evals) != (violating, violating) {
        return Err(format!(
            "{violation_events} violation event(s) and {violating_evals} violating eval(s) \
             for {violating} violating report(s)"
        ));
    }
    Ok(())
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

/// [`Mode::Stitch`]. The fleet runs with the plan profiler on, and
/// each incarnation's profiles must be well formed ([`check_profiles`]).
/// At the kill, restoring the checkpoint with its database section lost
/// or torn must fail with a typed error ([`check_refusals`]), and the
/// restored fleet's `space()` must equal the killed one's.
fn run_stitch(
    constraint: &Constraint,
    catalog: &Arc<Catalog>,
    transitions: &[Transition],
    seed: u64,
) -> Result<Vec<String>, String> {
    let kill = stitch_kill_step(seed, transitions.len());
    let fleet = fleet(constraint, catalog, seed);
    let options = EncodingOptions {
        profile_plans: true,
        ..Default::default()
    };
    let mut set = build_set(&fleet, catalog, options)?;
    let mut lines = Vec::with_capacity(transitions.len());
    step_fleet(&mut set, &transitions[..kill], &mut lines)?;
    check_profiles(&set, kill)?;
    // "Crash": drop the live set, keeping only the serialized checkpoint,
    // then restore into a fresh fleet and finish the history.
    let sections: Vec<String> = checkpoint::save_set(&set)
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    let space = set.space();
    drop(set);
    check_refusals(&fleet, catalog, &sections)?;
    let restore = checkpoint::restore_set_with_options;
    let mut resumed = restore(fleet, Arc::clone(catalog), options, &sections)
        .map_err(|e| format!("restore: {e}"))?;
    if resumed.space() != space {
        let after = resumed.space();
        return Err(format!("space {space} at the kill, {after} restored"));
    }
    step_fleet(&mut resumed, &transitions[kill..], &mut lines)?;
    check_profiles(&resumed, transitions.len() - kill)?;
    Ok(lines)
}

/// A profiled fleet after `steps` steps: one profile per engine, one row
/// per plan node with ids in pre-order, and the body root run at most
/// once per step (an engine asleep until its next deadline is not
/// re-evaluated).
fn check_profiles(set: &ConstraintSet, steps: usize) -> Result<(), String> {
    let profiles = set.plan_profiles();
    if profiles.len() != set.len() {
        let n = profiles.len();
        return Err(format!("{n} profile(s) for {} engine(s)", set.len()));
    }
    for (name, profile) in profiles {
        if profile.nodes.is_empty() {
            return Err(format!("`{name}`: empty profile"));
        }
        if let Some((i, row)) = profile
            .nodes
            .iter()
            .enumerate()
            .find(|(i, r)| r.desc.id != *i)
        {
            return Err(format!("`{name}`: profile row {i} has id {}", row.desc.id));
        }
        let roots = profile
            .nodes
            .iter()
            .filter(|r| r.desc.depth == 0 && r.desc.path == "body");
        let calls: u64 = roots.map(|r| r.counts.calls).sum();
        if calls > steps as u64 {
            return Err(format!(
                "`{name}`: body root ran {calls} times in {steps} step(s)"
            ));
        }
    }
    Ok(())
}

/// The fleet's database lives in the first section. With that section
/// lost (with or without its constraint), or torn inside its rows (cut
/// short, or a row turned to garbage), restoring is a typed error — never
/// a fleet that runs on over a wrong database. Nothing to check while
/// the database is empty or the fleet has one member.
fn check_refusals(
    fleet: &[Constraint],
    catalog: &Arc<Catalog>,
    sections: &[String],
) -> Result<(), String> {
    let Some((bearer, rest)) = sections.split_first() else {
        return Ok(());
    };
    let Some(row) = bearer
        .find("\nrel ")
        .and_then(|r| bearer[r..].find("\n| ").map(|i| r + i))
    else {
        return Ok(());
    };
    if rest.is_empty() {
        return Ok(());
    }
    let restore = |constraints: &[Constraint], sections: &[String]| {
        checkpoint::restore_set(constraints.iter().cloned(), Arc::clone(catalog), sections)
    };
    for constraints in [fleet, &fleet[1..]] {
        match restore(constraints, rest) {
            Err(CheckpointError::Mismatch { .. }) => {}
            other => return Err(refused_wrongly("lost", other)),
        }
    }
    let row_end = bearer[row + 1..]
        .find('\n')
        .map_or(bearer.len(), |e| row + 1 + e);
    let cut = bearer[..row_end].to_string();
    let garbage = format!("{}garbage {}", &bearer[..row + 3], &bearer[row + 3..]);
    for torn in [cut, garbage] {
        let damaged: Vec<String> = std::iter::once(torn).chain(rest.iter().cloned()).collect();
        for constraints in [fleet, &fleet[1..]] {
            match restore(constraints, &damaged) {
                Err(CheckpointError::Format { .. }) => {}
                other => return Err(refused_wrongly("torn", other)),
            }
        }
    }
    Ok(())
}

fn refused_wrongly(damage: &str, outcome: Result<ConstraintSet, CheckpointError>) -> String {
    match outcome {
        Ok(_) => format!("a {damage} database section restored"),
        Err(e) => format!("a {damage} database section: wrong error: {e}"),
    }
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
        // `naive-plan` and `incremental` were retired with no tombstone:
        // `windowed` runs the planned naive body, `set` the incremental
        // checker's one-member fleet.
        for gone in ["bogus", "naive-plan", "incremental"] {
            let err = Mode::parse(gone).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown backend `{gone}`")),
                "{err}"
            );
        }
        let gone = Mode::parse("fleet-sharded").unwrap_err();
        assert!(
            gone.contains("was removed") && gone.contains("§6a"),
            "{gone}"
        );
        assert_eq!(
            Mode::flag_help(),
            "naive|windowed|active|inc-interp|set|stitch|serve"
        );
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
