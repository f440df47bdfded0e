//! Checking several constraints over one shared database state.
//!
//! A deployment rarely has a single constraint; a [`ConstraintSet`] applies
//! each transition **once** to one shared database and advances every
//! constraint's auxiliary engine against it, instead of paying for one
//! database copy per constraint as separate [`IncrementalChecker`]s would.
//!
//! One scaling lever on top of that, semantics-preserving: **relevance
//! dispatch**. Each compiled constraint knows which relations its body
//! reads; an update touching none of them is a pure clock tick for that
//! constraint, and until the engine's next window deadline
//! ([`NodeEngine::sleep`]) such a tick is deferred and the previous
//! violations replayed, in O(1). Constraints step one after
//! another on the calling thread, in insertion order — the paper's checker
//! is sequential by construction, and a per-step worker pool measured
//! slower at every recorded point (EXPERIMENTS.md T8, PERFORMANCE.md §6a).
//!
//! ```
//! use rtic_core::ConstraintSet;
//! use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
//! use rtic_temporal::parser::parse_constraint;
//! use rtic_temporal::TimePoint;
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(
//!     Catalog::new()
//!         .with("job", Schema::of(&[("id", Sort::Int)]))
//!         .unwrap(),
//! );
//! let mut set = ConstraintSet::new(
//!     vec![
//!         parse_constraint("deny slow: job(j) && once[3,*] job(j)").unwrap(),
//!         parse_constraint("deny busy: job(j) && count k . (job(k)) > 1").unwrap(),
//!     ],
//!     catalog,
//! )
//! .unwrap();
//! let reports = set
//!     .step(TimePoint(1), &Update::new().with_insert("job", tuple![7]))
//!     .unwrap();
//! assert_eq!(reports.len(), 2);
//! assert!(reports.iter().all(|r| r.ok()));
//! assert_eq!(set.space().stored_states, 1); // one shared state copy
//! ```

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rtic_history::HistoryError;
use rtic_relation::{Catalog, Database, Symbol, Update};
use rtic_temporal::{Constraint, TimePoint};

use crate::compile::CompiledConstraint;
use crate::error::CompileError;
use crate::incremental::{EncodingOptions, NodeEngine, NodeStat};
use crate::observe::{
    emit_eval, ConstraintQuarantined, NopObserver, PlanProfileSample, PlanStatsSample, SpaceSample,
    StepEnd, StepEvent, StepObserver, StepStart,
};
use crate::report::{SpaceStats, StepReport};

/// Best-effort rendering of a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Running tallies of relevance-dispatch outcomes, summed over all steps
/// and engines (each engine contributes one tally per step).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DispatchStats {
    /// Full-path engine-steps where the update touched one of the
    /// constraint's relations.
    pub affected: u64,
    /// Engine-steps spent asleep until the engine's next deadline: the
    /// update touched none of the constraint's relations and no window
    /// edge was due, so the state was deferred and the cached violations
    /// — empty or not — replayed in O(1).
    pub skipped: u64,
    /// Engine-steps that were quiescent but still took the full path (the
    /// first step, a deadline arriving, or a node that declines to sleep).
    pub quiescent_full: u64,
    /// Engine-steps skipped because the constraint's engine had panicked
    /// earlier and is quarantined — the fleet is running degraded. Not
    /// part of [`DispatchStats::total`], since nothing was evaluated.
    pub quarantined: u64,
}

impl DispatchStats {
    /// Total engine-steps tallied.
    pub fn total(&self) -> u64 {
        self.affected + self.skipped + self.quiescent_full
    }
}

/// A fleet's health summary: engines still reporting vs. quarantined
/// after a mid-step panic ([`ConstraintSet::health`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FleetHealth {
    /// Engines still producing reports.
    pub healthy: usize,
    /// Engines quarantined after a panic; the fleet runs degraded.
    pub quarantined: usize,
}

impl FleetHealth {
    /// Whether any engine is quarantined.
    pub fn is_degraded(&self) -> bool {
        self.quarantined > 0
    }
}

/// A set of constraints checked together over one database.
#[derive(Clone, Debug)]
pub struct ConstraintSet {
    db: Database,
    engines: Vec<NodeEngine>,
    last_time: Option<TimePoint>,
    steps: usize,
    dispatch: DispatchStats,
    /// Per-engine quarantine reason; `Some` once the engine panicked.
    quarantined: Vec<Option<String>>,
    /// Fault injection: 1-based transition number at which each engine
    /// should panic (test/chaos tooling via [`ConstraintSet::arm_panic`]).
    armed_panics: Vec<Option<u64>>,
}

/// Mutable view of a [`ConstraintSet`] for checkpoint restore and fault
/// injection.
pub(crate) struct Parts<'a> {
    pub(crate) db: &'a mut Database,
    pub(crate) engines: &'a mut [NodeEngine],
    pub(crate) steps: &'a mut usize,
    pub(crate) last_time: &'a mut Option<TimePoint>,
    pub(crate) dispatch: &'a mut DispatchStats,
}

impl ConstraintSet {
    /// Compiles every constraint against `catalog`. Fails on the first
    /// constraint that does not compile (the error names it via the
    /// returned pair).
    pub fn new(
        constraints: impl IntoIterator<Item = Constraint>,
        catalog: Arc<Catalog>,
    ) -> Result<ConstraintSet, (Constraint, CompileError)> {
        Self::with_options(constraints, catalog, EncodingOptions::default())
    }

    /// [`ConstraintSet::new`] with explicit [`EncodingOptions`] applied to
    /// every engine (e.g. `profile_plans` for fleet-wide profiling).
    pub fn with_options(
        constraints: impl IntoIterator<Item = Constraint>,
        catalog: Arc<Catalog>,
        options: EncodingOptions,
    ) -> Result<ConstraintSet, (Constraint, CompileError)> {
        let mut engines = Vec::new();
        for c in constraints {
            match CompiledConstraint::compile(c.clone(), Arc::clone(&catalog)) {
                Ok(compiled) => engines.push(NodeEngine::new(Arc::new(compiled), options)),
                Err(e) => return Err((c, e)),
            }
        }
        Ok(ConstraintSet::of_engines(catalog, engines))
    }

    /// A fresh set stepping `engines` over an empty database.
    pub(crate) fn of_engines(catalog: Arc<Catalog>, engines: Vec<NodeEngine>) -> ConstraintSet {
        let n = engines.len();
        ConstraintSet {
            db: Database::new(catalog),
            engines,
            last_time: None,
            steps: 0,
            dispatch: DispatchStats::default(),
            quarantined: vec![None; n],
            armed_panics: vec![None; n],
        }
    }

    /// Relevance-dispatch tallies accumulated so far.
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.dispatch
    }

    /// Number of constraints in the set.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The constraints, in insertion order.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.engines.iter().map(|e| &e.compiled.constraint)
    }

    /// The compiled constraints, in insertion order.
    pub fn compiled(&self) -> impl Iterator<Item = &CompiledConstraint> {
        self.engines.iter().map(|e| &*e.compiled)
    }

    /// The shared current database state.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of transitions processed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Timestamp of the last processed transition, if any. This is the
    /// replay cursor a resumed run skips up to (inclusive).
    pub fn last_time(&self) -> Option<TimePoint> {
        self.last_time
    }

    /// Quarantined constraints with their panic reasons, in insertion
    /// order. A non-empty result means the fleet is running degraded:
    /// these constraints stopped producing reports at the step recorded
    /// in their reason, while the rest of the fleet kept checking.
    pub fn quarantined(&self) -> Vec<(Symbol, &str)> {
        self.engines
            .iter()
            .zip(&self.quarantined)
            .filter_map(|(e, q)| {
                q.as_deref()
                    .map(|reason| (e.compiled.constraint.name, reason))
            })
            .collect()
    }

    /// The fleet's health summary: how many engines are still reporting
    /// and how many are quarantined. Resident drivers (`rtic serve`)
    /// surface a degraded fleet as `DEGRADED` status responses.
    pub fn health(&self) -> FleetHealth {
        let quarantined = self.quarantined.iter().filter(|q| q.is_some()).count();
        FleetHealth {
            healthy: self.engines.len() - quarantined,
            quarantined,
        }
    }

    /// Quiescence hook: absorbs a pure clock tick at `time` — exactly
    /// [`ConstraintSet::step_observed`] with an empty update, so engines
    /// asleep until a later deadline defer it and the rest evaluate
    /// against the unchanged state. Drivers draining a resident
    /// fleet use this to settle the clock before the final checkpoint.
    pub fn tick(
        &mut self,
        time: TimePoint,
        obs: &mut dyn StepObserver,
    ) -> Result<Vec<StepReport>, HistoryError> {
        self.step_observed(time, &Update::new(), obs)
    }

    /// Fault injection: make the engine for `constraint` panic while
    /// processing its `nth` transition (1-based, counted from now).
    /// Returns `false` if no such constraint is in the set. This is the
    /// hook the failpoint facility uses to exercise quarantine; it is
    /// deliberately explicit — nothing panics unless armed.
    pub fn arm_panic(&mut self, constraint: &str, nth: u64) -> bool {
        let mut found = false;
        for (engine, armed) in self.engines.iter().zip(self.armed_panics.iter_mut()) {
            if engine.compiled.constraint.name.as_str() == constraint {
                *armed = Some(self.steps as u64 + nth.max(1));
                found = true;
            }
        }
        found
    }

    /// Every engine, in insertion order.
    pub(crate) fn engines(&self) -> &[NodeEngine] {
        &self.engines
    }

    /// The engines checkpointing saves, in insertion order: quarantined
    /// ones are left out because their mid-panic state is not trustworthy.
    pub(crate) fn healthy_engines(&self) -> impl Iterator<Item = &NodeEngine> {
        let healthy = self.engines.iter().zip(&self.quarantined);
        healthy.filter_map(|(e, q)| q.is_none().then_some(e))
    }

    /// Mutable parts for checkpoint restore and fault injection: shared
    /// database, engines, and the step/time/dispatch cursor slots.
    pub(crate) fn parts_mut(&mut self) -> Parts<'_> {
        Parts {
            db: &mut self.db,
            engines: &mut self.engines,
            steps: &mut self.steps,
            last_time: &mut self.last_time,
            dispatch: &mut self.dispatch,
        }
    }

    /// Processes one transition; returns one report per constraint, in
    /// insertion order. Relevance dispatch is report-for-report invisible.
    pub fn step(
        &mut self,
        time: TimePoint,
        update: &Update,
    ) -> Result<Vec<StepReport>, HistoryError> {
        self.step_observed(time, update, &mut NopObserver)
    }

    /// [`ConstraintSet::step`] with observation: one `StepStart`/`StepEnd`
    /// pair brackets the logical step, with one `ConstraintEval` (and
    /// `Violation` when witnesses were found) per constraint in insertion
    /// order. A constraint that panics emits `ConstraintQuarantined` in
    /// place of its report and stays silent from then on. On error, events
    /// after `StepStart` are withheld.
    pub fn step_observed(
        &mut self,
        time: TimePoint,
        update: &Update,
        obs: &mut dyn StepObserver,
    ) -> Result<Vec<StepReport>, HistoryError> {
        if let Some(last) = self.last_time {
            if time <= last {
                return Err(HistoryError::NonMonotonicTime { last, new: time });
            }
        }
        obs.observe(&StepEvent::StepStart(StepStart {
            checker: "set",
            time,
            tuples: update.len(),
        }));
        let step_start = Instant::now();
        self.db.apply(update)?;

        let nth_step = self.steps as u64 + 1;
        let mut reports = Vec::with_capacity(self.engines.len());
        let mut total_violations = 0usize;
        for idx in 0..self.engines.len() {
            if self.quarantined[idx].is_some() {
                self.dispatch.quarantined += 1;
                continue;
            }
            let db = &self.db;
            let engine = &mut self.engines[idx];
            let constraint = engine.compiled.constraint.name;
            // An engine armed to panic this step counts as affected, which
            // forces it onto the full path so the panic surfaces inside
            // `catch_unwind`.
            let inject = self.armed_panics[idx] == Some(nth_step);
            let quiescent = engine.is_quiescent(update) && !inject;
            let eval_start = Instant::now();
            let asleep = quiescent.then(|| engine.sleep(time)).flatten();
            let outcome = match asleep {
                Some(violations) => {
                    self.dispatch.skipped += 1;
                    Ok(violations)
                }
                None => {
                    if quiescent {
                        self.dispatch.quiescent_full += 1;
                    } else {
                        self.dispatch.affected += 1;
                    }
                    // One poisoned constraint cannot take down the fleet:
                    // it is quarantined below instead.
                    catch_unwind(AssertUnwindSafe(|| {
                        if inject {
                            panic!("injected engine panic (failpoint)");
                        }
                        engine.advance(db, time);
                        engine.violations(db, time)
                    }))
                }
            };
            match outcome {
                Ok(violations) => {
                    let report = engine.compiled.report(time, violations);
                    total_violations += emit_eval(obs, "set", &report, eval_start);
                    reports.push(report);
                }
                Err(payload) => {
                    let detail = panic_detail(payload.as_ref());
                    self.quarantined[idx] =
                        Some(format!("panicked at step {nth_step} (t={time}): {detail}"));
                    obs.observe(&StepEvent::ConstraintQuarantined(ConstraintQuarantined {
                        checker: "set",
                        constraint,
                        time,
                        detail,
                    }));
                }
            }
        }
        obs.observe(&StepEvent::StepEnd(StepEnd {
            checker: "set",
            time,
            violations: total_violations,
            latency_ns: step_start.elapsed().as_nanos() as u64,
        }));
        self.last_time = Some(time);
        self.steps += 1;
        Ok(reports)
    }

    /// Emits one `SpaceSample` event per constraint (drivers call this on
    /// their sampling schedule). Samples carry each constraint's own aux
    /// footprint; the shared database tuples are attributed to every
    /// sample, mirroring what a per-constraint checker would report.
    pub fn sample_space(&self, step_index: u64, obs: &mut dyn StepObserver) {
        let Some(time) = self.last_time else {
            return;
        };
        for (engine, quarantined) in self.engines.iter().zip(&self.quarantined) {
            if quarantined.is_some() {
                // A quarantined engine's aux state froze mid-panic; its
                // numbers would be misleading.
                continue;
            }
            let (aux_keys, aux_timestamps) = engine.aux_space();
            obs.observe(&StepEvent::SpaceSample(SpaceSample {
                checker: "set",
                constraint: engine.compiled.constraint.name,
                time,
                step_index,
                stats: SpaceStats {
                    aux_keys,
                    aux_timestamps,
                    stored_states: 1,
                    stored_tuples: self.db.total_tuples(),
                },
            }));
        }
    }

    /// Aggregate space: the single shared state plus every engine's aux.
    pub fn space(&self) -> SpaceStats {
        let mut aux_keys = 0;
        let mut aux_timestamps = 0;
        for e in &self.engines {
            let (k, t) = e.aux_space();
            aux_keys += k;
            aux_timestamps += t;
        }
        SpaceStats {
            aux_keys,
            aux_timestamps,
            stored_states: 1,
            stored_tuples: self.db.total_tuples(),
        }
    }

    /// Per-temporal-node auxiliary footprint of the named constraint
    /// ([`crate::IncrementalChecker::node_stats`] for a fleet member).
    /// Empty for an unknown name.
    pub fn node_stats(&self, constraint: &str) -> Vec<NodeStat> {
        self.engines
            .iter()
            .find(|e| e.compiled.constraint.name.as_str() == constraint)
            .map_or_else(Vec::new, NodeEngine::node_stats)
    }

    /// Per engine, in insertion order: how many states it has deferred
    /// while asleep, and the largest finite window bound `b` of its
    /// constraint — never more than `b + 1` states are kept, so sleeping
    /// stays inside the paper's space bound.
    pub fn deferred_ticks(&self) -> Vec<(usize, u64)> {
        self.engines.iter().map(NodeEngine::deferred).collect()
    }

    /// Each constraint's runtime plan statistics, in insertion order. The
    /// rows the shared database copied count with the first engine, whose
    /// checkpoint section holds the database.
    fn plan_stats_per_engine(
        &self,
    ) -> impl Iterator<Item = (Symbol, crate::plan::RuntimePlanStats)> + '_ {
        let mut db_copied = Some(self.db.rows_copied());
        self.engines.iter().map(move |e| {
            let mut stats = e.plan_stats();
            stats.rows_copied += db_copied.take().unwrap_or(0);
            (e.compiled.constraint.name, stats)
        })
    }

    /// Aggregate compiled-plan statistics across every engine: plan shape
    /// counts and copied rows add up, the scratch high-water mark takes
    /// the fleet maximum.
    pub fn plan_stats(&self) -> crate::plan::RuntimePlanStats {
        let mut total = crate::plan::RuntimePlanStats::default();
        for (_, stats) in self.plan_stats_per_engine() {
            total.absorb(stats);
        }
        total
    }

    /// Emits one `PlanStatsSample` event per engine, mirroring
    /// [`ConstraintSet::sample_space`].
    pub fn sample_plan_stats(&self, obs: &mut dyn StepObserver) {
        for (constraint, stats) in self.plan_stats_per_engine() {
            obs.observe(&StepEvent::PlanStatsSample(PlanStatsSample {
                checker: "set",
                constraint,
                stats,
            }));
        }
    }

    /// Per-constraint execution profiles, in insertion order — empty unless
    /// the set was built with `EncodingOptions::profile_plans`.
    pub fn plan_profiles(&self) -> Vec<(Symbol, crate::plan::PlanProfile)> {
        self.engines
            .iter()
            .filter_map(|e| e.plan_profile().map(|p| (e.compiled.constraint.name, p)))
            .collect()
    }

    /// Emits one `PlanProfileSample` event per profiled engine, mirroring
    /// [`ConstraintSet::sample_plan_stats`].
    pub fn sample_plan_profiles(&self, obs: &mut dyn StepObserver) {
        for e in &self.engines {
            if let Some(profile) = e.plan_profile() {
                obs.observe(&StepEvent::PlanProfileSample(PlanProfileSample {
                    checker: "set",
                    constraint: e.compiled.constraint.name,
                    profile: Cow::Borrowed(&profile),
                }));
            }
        }
    }
}

// ——— Shims for the frozen `benchmark/` crate ———
//
// The per-key shard plane is gone (DESIGN.md, "Why there is one state
// layout"), but `benchmark/src/traced.rs` has been frozen since PR 11 and
// still names its entry points. Everything in this block is inert; the
// next `[benchmark]` PR (ROADMAP, "Unfreeze and refresh the pipeline
// benchmark") deletes it together with the ignored `--shard`/
// `--shard-evict` arguments in `src/cli.rs`, the re-export of
// `restore_set_sharded` in `checkpoint.rs` and the `()` that keeps
// `RecoveryOutcome::restored` a triple in `rtic-resilience`.

/// What the shard plane's lifecycle counters were; always zero now.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct ShardStats {
    pub peak: usize,
    pub created: u64,
    pub evicted: u64,
}

#[doc(hidden)]
impl ConstraintSet {
    pub fn with_sharding(self, _enabled: bool) -> ConstraintSet {
        self
    }

    pub fn set_shard_eviction(&mut self, _horizon: u32) {}

    pub fn shard_stats(&self) -> Vec<(Symbol, ShardStats)> {
        Vec::new()
    }
}

#[doc(hidden)]
pub fn restore_set_sharded(
    constraints: impl IntoIterator<Item = Constraint>,
    catalog: Arc<Catalog>,
    options: EncodingOptions,
    sections: &[String],
    _sharding: bool,
) -> Result<ConstraintSet, crate::checkpoint::CheckpointError> {
    crate::checkpoint::restore_set_with_options(constraints, catalog, options, sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::CollectingObserver;
    use crate::{Checker, IncrementalChecker};
    use rtic_relation::{tuple, Schema, Sort};
    use rtic_temporal::parser::parse_constraint;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("q", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        )
    }

    fn constraints() -> Vec<Constraint> {
        vec![
            parse_constraint("deny both: p(x) && q(x)").unwrap(),
            parse_constraint("deny lingering: p(x) && once[2,4] q(x)").unwrap(),
            parse_constraint("deny steady: p(x) && hist[0,1] p(x)").unwrap(),
        ]
    }

    fn updates(t: u64) -> Update {
        match t % 5 {
            0 => Update::new().with_insert("p", tuple!["a"]),
            1 => Update::new().with_insert("q", tuple!["a"]),
            2 => Update::new().with_delete("p", tuple!["a"]),
            3 => Update::new().with_delete("q", tuple!["a"]),
            _ => Update::new(),
        }
    }

    #[test]
    fn set_matches_independent_checkers() {
        let cat = catalog();
        let mut set = ConstraintSet::new(constraints(), Arc::clone(&cat)).unwrap();
        let mut singles: Vec<IncrementalChecker> = constraints()
            .into_iter()
            .map(|c| IncrementalChecker::new(c, Arc::clone(&cat)).unwrap())
            .collect();
        for t in 1..30u64 {
            let u = updates(t);
            let set_reports = set.step(TimePoint(t), &u).unwrap();
            for (i, single) in singles.iter_mut().enumerate() {
                let r = single.step(TimePoint(t), &u).unwrap();
                assert_eq!(set_reports[i], r, "constraint {i} diverged at {t}");
            }
        }
    }

    #[test]
    fn shared_state_is_stored_once() {
        let cat = catalog();
        let mut set = ConstraintSet::new(constraints(), Arc::clone(&cat)).unwrap();
        set.step(TimePoint(1), &Update::new().with_insert("p", tuple!["a"]))
            .unwrap();
        assert_eq!(set.space().stored_states, 1);
        assert_eq!(set.space().stored_tuples, 1, "one copy of the shared db");
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn relevance_dispatch_partitions_engines() {
        // `deny qonly` only reads q; an update touching just p is
        // quiescent for it, and it sleeps until its window's next edge.
        let cs = vec![
            parse_constraint("deny ponly: p(x) && once[0,*] p(x)").unwrap(),
            parse_constraint("deny qonly: once[2,3] q(x)").unwrap(),
        ];
        let mut set = ConstraintSet::new(cs, catalog()).unwrap();
        let mut step = |t: u64, u: Update| {
            let reports = set.step(TimePoint(t), &u).unwrap();
            let d = set.dispatch_stats();
            let tallies = (d.affected, d.quiescent_full, d.skipped);
            (
                reports[1].violation_count(),
                tallies,
                set.deferred_ticks()[1].0,
            )
        };
        let p = || Update::new().with_insert("p", tuple!["a"]);
        // An engine's first step is a full one, touched or not; with no
        // stamp stored the q-engine then sleeps without a deadline.
        assert_eq!(step(1, p()), (0, (1, 1, 0), 0));
        assert_eq!(step(2, p()), (0, (2, 1, 1), 1));
        // q(a) holds at 3 only. Its stamp ages into [2,3] at 5 — the
        // deadline wakes the engine to the violation — the engine sleeps
        // through 6 replaying it, and wakes at 7 (3 + 3 + 1) to see it go.
        // Meanwhile the p-engine sleeps through 3 and 4.
        assert_eq!(step(3, Update::new().with_insert("q", tuple!["a"])).0, 0);
        assert_eq!(step(4, Update::new().with_delete("q", tuple!["a"])).0, 0);
        assert_eq!(step(5, p()), (1, (5, 2, 3), 0));
        assert_eq!(step(6, p()), (1, (6, 2, 4), 1));
        assert_eq!(step(7, p()), (0, (7, 3, 4), 0));
    }

    #[test]
    fn dispatch_preserves_reports() {
        // A fleet where some constraints are quiescent most steps must
        // match plain per-constraint checkers byte for byte.
        let cat = catalog();
        let cs = vec![
            parse_constraint("deny a: p(x) && once[0,3] q(x)").unwrap(),
            parse_constraint("deny b: q(x) && !once[0,*] p(x)").unwrap(),
            parse_constraint("deny c: p(x) && hist[0,2] p(x)").unwrap(),
            parse_constraint("deny d: q(x) && once[1,4] q(x)").unwrap(),
        ];
        let mut set = ConstraintSet::new(cs.clone(), Arc::clone(&cat)).unwrap();
        let mut singles: Vec<IncrementalChecker> = cs
            .iter()
            .map(|c| IncrementalChecker::new(c.clone(), Arc::clone(&cat)).unwrap())
            .collect();
        for t in 1..60u64 {
            let u = match t % 7 {
                0 => Update::new().with_insert("p", tuple!["a"]),
                1 => Update::new().with_insert("q", tuple!["a"]),
                3 => Update::new().with_delete("p", tuple!["a"]),
                5 => Update::new().with_delete("q", tuple!["a"]),
                _ => Update::new(), // quiescent for everyone
            };
            let rs = set.step(TimePoint(t), &u).unwrap();
            for (i, single) in singles.iter_mut().enumerate() {
                let r = single.step(TimePoint(t), &u).unwrap();
                assert_eq!(rs[i], r, "constraint {i} diverged at t={t}");
            }
        }
        assert!(set.dispatch_stats().skipped > 0, "no engine ever slept");
    }

    #[test]
    fn observed_events_are_insertion_ordered() {
        let mut obs = CollectingObserver::default();
        let mut set = ConstraintSet::new(constraints(), catalog()).unwrap();
        for t in 1..20u64 {
            set.step_observed(TimePoint(t), &updates(t), &mut obs)
                .unwrap();
        }
        // Per step: the bracket, and between it one eval per constraint in
        // insertion order, each violation right after its own eval.
        let mut evals: Vec<&str> = Vec::new();
        for e in &obs.events {
            match e {
                StepEvent::StepStart(_) => assert!(evals.is_empty()),
                StepEvent::ConstraintEval(eval) => evals.push(eval.constraint.as_str()),
                StepEvent::Violation(v) => {
                    assert_eq!(evals.last(), Some(&v.report.constraint.as_str()));
                }
                StepEvent::StepEnd(_) => {
                    assert_eq!(evals, ["both", "lingering", "steady"]);
                    evals.clear();
                }
                other => panic!("unexpected event `{}`", other.kind()),
            }
        }
        assert!(obs.events.iter().any(|e| e.kind() == "violation"));
    }

    #[test]
    fn observed_step_failure_withholds_completion_events() {
        let mut set = ConstraintSet::new(constraints(), catalog()).unwrap();
        let mut obs = CollectingObserver::default();
        set.step_observed(TimePoint(5), &Update::new(), &mut obs)
            .unwrap();
        assert!(set
            .step_observed(TimePoint(5), &Update::new(), &mut obs)
            .is_err());
        let kinds: Vec<&str> = obs.events.iter().map(StepEvent::kind).collect();
        assert_eq!(
            kinds,
            vec!["step_start", "eval", "eval", "eval", "step"],
            "failed step emits nothing (monotonicity is checked before StepStart)"
        );
    }

    #[test]
    fn sample_space_emits_one_sample_per_constraint() {
        let mut set = ConstraintSet::new(constraints(), catalog()).unwrap();
        set.step(TimePoint(1), &Update::new().with_insert("p", tuple!["a"]))
            .unwrap();
        let mut obs = CollectingObserver::default();
        set.sample_space(0, &mut obs);
        assert_eq!(obs.events.len(), 3);
        assert!(obs
            .events
            .iter()
            .all(|e| matches!(e, StepEvent::SpaceSample(_))));
    }

    #[test]
    fn compile_error_names_the_constraint() {
        let bad = parse_constraint("deny nope: !p(x)").unwrap();
        let err = ConstraintSet::new(vec![bad.clone()], catalog()).unwrap_err();
        assert_eq!(err.0, bad);
    }

    #[test]
    fn monotonic_time_shared() {
        let mut set = ConstraintSet::new(constraints(), catalog()).unwrap();
        set.step(TimePoint(4), &Update::new()).unwrap();
        assert!(set.step(TimePoint(4), &Update::new()).is_err());
        // The refused step left nothing behind: the set is where it was
        // and keeps stepping.
        assert_eq!((set.steps(), set.last_time()), (1, Some(TimePoint(4))));
        assert_eq!(set.step(TimePoint(5), &Update::new()).unwrap().len(), 3);
    }

    #[test]
    fn panicking_engine_is_quarantined_and_fleet_continues() {
        let cat = catalog();
        let mut set = ConstraintSet::new(constraints(), Arc::clone(&cat)).unwrap();
        let mut healthy = ConstraintSet::new(constraints(), Arc::clone(&cat)).unwrap();
        assert!(set.arm_panic("lingering", 2));
        assert!(!set.arm_panic("no_such_constraint", 1));
        let mut obs = CollectingObserver::default();

        let u1 = Update::new().with_insert("p", tuple!["a"]);
        let r1 = set.step_observed(TimePoint(1), &u1, &mut obs).unwrap();
        assert_eq!(r1.len(), 3, "before the panic all constraints report");
        healthy.step(TimePoint(1), &u1).unwrap();

        let u2 = Update::new().with_insert("q", tuple!["a"]);
        let r2 = set.step_observed(TimePoint(2), &u2, &mut obs).unwrap();
        let h2 = healthy.step(TimePoint(2), &u2).unwrap();
        assert_eq!(r2.len(), 2, "the panicked constraint drops out");
        assert_eq!(r2[0], h2[0], "constraint before the victim unaffected");
        assert_eq!(r2[1], h2[2], "constraint after the victim unaffected");
        let q = set.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0.as_str(), "lingering");
        assert!(
            q[0].1.contains("injected engine panic"),
            "reason: {}",
            q[0].1
        );
        assert_eq!(
            obs.events
                .iter()
                .filter(|e| e.kind() == "quarantine")
                .count(),
            1,
            "quarantine event emitted exactly once"
        );

        // Subsequent steps: fleet keeps matching an all-healthy run minus
        // the quarantined constraint, and the skip is tallied.
        for t in 3..10u64 {
            let u = updates(t);
            let r = set.step(TimePoint(t), &u).unwrap();
            let h = healthy.step(TimePoint(t), &u).unwrap();
            assert_eq!(r.len(), 2);
            assert_eq!(r[0], h[0]);
            assert_eq!(r[1], h[2]);
        }
        assert_eq!(set.dispatch_stats().quarantined, 7);
        assert_eq!(set.quarantined().len(), 1, "no double quarantine");
    }

    #[test]
    fn quarantine_reports_stay_insertion_ordered() {
        let cat = catalog();
        let mut set = ConstraintSet::new(constraints(), Arc::clone(&cat)).unwrap();
        set.arm_panic("steady", 1);
        let mut obs = CollectingObserver::default();
        set.step_observed(
            TimePoint(1),
            &Update::new().with_insert("p", tuple!["a"]),
            &mut obs,
        )
        .unwrap();
        let kinds: Vec<&str> = obs.events.iter().map(StepEvent::kind).collect();
        // `steady` is the last constraint: its quarantine event arrives in
        // insertion order, after the healthy evals.
        assert_eq!(
            kinds,
            vec!["step_start", "eval", "eval", "quarantine", "step"]
        );
    }
}
