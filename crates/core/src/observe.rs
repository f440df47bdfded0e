//! Step-boundary observation hooks.
//!
//! Production monitoring needs visibility into per-step latency,
//! per-constraint violation rates, and the bounded-space trajectory that is
//! the paper's central claim — without taxing the hot path when nobody is
//! watching. This module provides exactly the hook surface; the concrete
//! observers (metrics registry, structured trace writers) live in the
//! `rtic-obs` crate.
//!
//! Two steppers emit a step's events, both through `emit_eval`:
//! [`crate::ConstraintSet::step_observed`] for the incremental fleet, and
//! [`step_all`] for checkers behind the [`Checker`] trait. The incremental
//! checker always steps observed — its plain `step` is `step_observed`
//! with the [`NopObserver`], whose hooks are empty calls — while the
//! reference backends' plain [`Checker::step`] carries no hook at all.
//!
//! ```
//! use rtic_core::observe::{step_all, CollectingObserver, StepEvent};
//! use rtic_core::{Checker, IncrementalChecker};
//! use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
//! use rtic_temporal::parser::parse_constraint;
//! use rtic_temporal::TimePoint;
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(
//!     Catalog::new().with("p", Schema::of(&[("x", Sort::Str)])).unwrap(),
//! );
//! let c = parse_constraint("deny d: p(x) && hist[0,1] p(x)").unwrap();
//! let mut checkers: Vec<Box<dyn Checker>> =
//!     vec![Box::new(IncrementalChecker::new(c, catalog).unwrap())];
//! let mut obs = CollectingObserver::default();
//! let update = Update::new().with_insert("p", tuple!["a"]);
//! step_all(&mut checkers, TimePoint(1), &update, &mut obs).unwrap();
//! assert!(matches!(obs.events[0], StepEvent::StepStart(_)));
//! assert!(matches!(obs.events.last(), Some(StepEvent::StepEnd(_))));
//! ```

use std::borrow::Cow;
use std::time::Instant;

use rtic_history::HistoryError;
use rtic_relation::{Symbol, Update};
use rtic_temporal::TimePoint;

use crate::checker::Checker;
use crate::plan::{PlanProfile, RuntimePlanStats};
use crate::report::{SpaceStats, StepReport};

/// One observable event at a step boundary. Each kind carries its payload
/// struct, declared once below and read by every exposition.
///
/// Events are delivered in a fixed order per logical step:
/// `StepStart`, then per constraint `ConstraintEval` (and `Violation` when
/// witnesses were found), then `StepEnd`. `CheckpointSave`/
/// `CheckpointRestore` bracket persistence, and `SpaceSample` is emitted by
/// drivers on their own schedule (e.g. every N steps).
#[derive(Clone, Debug)]
pub enum StepEvent<'a> {
    /// A logical step (one transition) is about to be processed.
    StepStart(StepStart),
    /// One constraint was evaluated against the new state.
    ConstraintEval(ConstraintEval),
    /// A constraint reported violation witnesses at this state.
    Violation(Violation<'a>),
    /// The logical step finished.
    StepEnd(StepEnd),
    /// A checkpoint was serialized.
    CheckpointSave(CheckpointSection),
    /// A checkpoint was restored.
    CheckpointRestore(CheckpointSection),
    /// A constraint engine panicked mid-step and was quarantined: it
    /// stops producing reports while the rest of the fleet keeps
    /// checking (degraded mode). Emitted once, at the failing step.
    ConstraintQuarantined(ConstraintQuarantined),
    /// A corrupt or unreadable checkpoint candidate was rejected during
    /// recovery and the next rotation entry was tried.
    CheckpointFallback(CheckpointFallback),
    /// A malformed history line was skipped under a lenient bad-line
    /// policy (it would have aborted the run under the strict default).
    BadLine(BadLine),
    /// A reading of a checker's compiled-plan statistics (plan node
    /// counts, cached index shapes, scratch high-water marks). Emitted by
    /// drivers once per run, after stepping, for checkers running the
    /// planned executor.
    PlanStatsSample(PlanStatsSample),
    /// A reading of a checker's per-plan-node execution profile (wall
    /// time, cardinalities, memo-cache hits). Emitted by drivers once per
    /// run, after stepping, for checkers built with
    /// `EncodingOptions::profile_plans`.
    PlanProfileSample(PlanProfileSample<'a>),
    /// A scheduled reading of a checker's space footprint.
    SpaceSample(SpaceSample),
    /// A reading of a resident server's ingest-plane gauges (`rtic
    /// serve`). Emitted by the serve driver after each queue pass and at
    /// drain, so metrics snapshots and the Prometheus exposition carry
    /// the live queue picture alongside the checker counters.
    ServeSample(ServeGauges),
}

/// [`StepEvent::StepStart`]'s payload.
#[derive(Clone, Copy, Debug)]
pub struct StepStart {
    /// Checker implementation name (the run's backend).
    pub checker: &'static str,
    /// Timestamp of the incoming transition.
    pub time: TimePoint,
    /// Tuples inserted + deleted by the update.
    pub tuples: usize,
}

/// [`StepEvent::ConstraintEval`]'s payload.
#[derive(Clone, Copy, Debug)]
pub struct ConstraintEval {
    /// Checker implementation name.
    pub checker: &'static str,
    /// The constraint that was evaluated.
    pub constraint: Symbol,
    /// Timestamp of the new state.
    pub time: TimePoint,
    /// Violation witnesses found.
    pub violations: usize,
    /// Wall-clock time of this constraint's step, in nanoseconds.
    pub latency_ns: u64,
}

/// [`StepEvent::Violation`]'s payload.
#[derive(Clone, Debug)]
pub struct Violation<'a> {
    /// Checker implementation name.
    pub checker: &'static str,
    /// The full report, including the witness assignments: lent by the
    /// checker, owned by a [`CollectingObserver`].
    pub report: Cow<'a, StepReport>,
}

/// [`StepEvent::StepEnd`]'s payload.
#[derive(Clone, Copy, Debug)]
pub struct StepEnd {
    /// Checker implementation name (the run's backend).
    pub checker: &'static str,
    /// Timestamp of the new state.
    pub time: TimePoint,
    /// Violation witnesses across all constraints of the step.
    pub violations: usize,
    /// Wall-clock time of the whole logical step, in nanoseconds.
    pub latency_ns: u64,
}

/// The payload of [`StepEvent::CheckpointSave`] and
/// [`StepEvent::CheckpointRestore`].
#[derive(Clone, Copy, Debug)]
pub struct CheckpointSection {
    /// The checkpointed constraint.
    pub constraint: Symbol,
    /// Size of the serialized text.
    pub bytes: usize,
}

/// [`StepEvent::ConstraintQuarantined`]'s payload.
#[derive(Clone, Debug)]
pub struct ConstraintQuarantined {
    /// Checker implementation name.
    pub checker: &'static str,
    /// The constraint whose engine panicked.
    pub constraint: Symbol,
    /// Timestamp of the step during which the panic happened.
    pub time: TimePoint,
    /// The rendered panic payload.
    pub detail: String,
}

/// [`StepEvent::CheckpointFallback`]'s payload.
#[derive(Clone, Debug)]
pub struct CheckpointFallback {
    /// Path of the rejected candidate.
    pub path: String,
    /// Why it was rejected (checksum mismatch, truncation, ...).
    pub detail: String,
}

/// [`StepEvent::BadLine`]'s payload.
#[derive(Clone, Debug)]
pub struct BadLine {
    /// 1-based line number in the history stream.
    pub line: usize,
    /// The parse error.
    pub detail: String,
}

/// [`StepEvent::PlanStatsSample`]'s payload.
#[derive(Clone, Copy, Debug)]
pub struct PlanStatsSample {
    /// Checker implementation name.
    pub checker: &'static str,
    /// The constraint whose checker was sampled.
    pub constraint: Symbol,
    /// The plan statistics.
    pub stats: RuntimePlanStats,
}

/// [`StepEvent::PlanProfileSample`]'s payload.
#[derive(Clone, Debug)]
pub struct PlanProfileSample<'a> {
    /// Checker implementation name.
    pub checker: &'static str,
    /// The constraint whose checker was profiled.
    pub constraint: Symbol,
    /// The accumulated profile: lent by the checker, owned by a
    /// [`CollectingObserver`].
    pub profile: Cow<'a, PlanProfile>,
}

/// [`StepEvent::SpaceSample`]'s payload.
#[derive(Clone, Copy, Debug)]
pub struct SpaceSample {
    /// Checker implementation name.
    pub checker: &'static str,
    /// The constraint whose checker was sampled.
    pub constraint: Symbol,
    /// Timestamp of the state at which the sample was taken.
    pub time: TimePoint,
    /// 0-based index of the step after which the sample was taken.
    pub step_index: u64,
    /// The footprint.
    pub stats: SpaceStats,
}

/// [`StepEvent::ServeSample`]'s payload: a resident server's ingest-plane
/// gauges — bounded-queue occupancy, backpressure sheds, client
/// connections, and checkpoint freshness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeGauges {
    /// Updates currently waiting in the bounded ingest queue.
    pub queue_depth: usize,
    /// The queue's configured bound.
    pub queue_capacity: usize,
    /// High-water mark of the queue depth over the run.
    pub queue_peak: usize,
    /// Updates rejected with `BUSY` because the queue was full.
    pub shed: u64,
    /// Currently connected clients.
    pub connections: usize,
    /// Slow or stalled clients disconnected after the write timeout.
    pub disconnected: u64,
    /// Milliseconds since the last durable checkpoint, if any was
    /// written.
    pub last_checkpoint_age_ms: Option<u64>,
    /// Total graceful-drain duration in milliseconds, once drained.
    pub drain_ms: Option<u64>,
}

impl StepEvent<'_> {
    /// Short machine-readable event name (used by the trace writer).
    pub fn kind(&self) -> &'static str {
        match self {
            StepEvent::StepStart(_) => "step_start",
            StepEvent::ConstraintEval(_) => "eval",
            StepEvent::Violation(_) => "violation",
            StepEvent::StepEnd(_) => "step",
            StepEvent::CheckpointSave(_) => "checkpoint_save",
            StepEvent::CheckpointRestore(_) => "checkpoint_restore",
            StepEvent::ConstraintQuarantined(_) => "quarantine",
            StepEvent::CheckpointFallback(_) => "checkpoint_fallback",
            StepEvent::BadLine(_) => "bad_line",
            StepEvent::PlanStatsSample(_) => "plan_stats",
            StepEvent::PlanProfileSample(_) => "plan_profile",
            StepEvent::SpaceSample(_) => "space_sample",
            StepEvent::ServeSample(_) => "serve_sample",
        }
    }
}

/// A sink for [`StepEvent`]s.
///
/// Observers must be behavior-neutral: they see borrowed reports and
/// cannot influence checking (the differential oracle's `set` mode steps
/// through a [`CollectingObserver`] and checks the events against the
/// reports, `crates/oracle`).
pub trait StepObserver {
    /// Receives one event.
    fn observe(&mut self, event: &StepEvent<'_>);
}

/// The disabled observer: every hook is an empty inlinable call.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopObserver;

impl StepObserver for NopObserver {
    #[inline(always)]
    fn observe(&mut self, _event: &StepEvent<'_>) {}
}

/// An observer that owns copies of every event it sees — for tests and for
/// ad-hoc inspection. Violation reports and plan profiles are cloned into
/// owned form.
#[derive(Clone, Debug, Default)]
pub struct CollectingObserver {
    /// The events, in delivery order (with `'static` owned payloads).
    pub events: Vec<StepEvent<'static>>,
}

impl StepObserver for CollectingObserver {
    fn observe(&mut self, event: &StepEvent<'_>) {
        // Re-wrapped kind by kind: only the two lent payloads borrow.
        self.events.push(match event.clone() {
            StepEvent::StepStart(e) => StepEvent::StepStart(e),
            StepEvent::ConstraintEval(e) => StepEvent::ConstraintEval(e),
            StepEvent::Violation(e) => StepEvent::Violation(Violation {
                checker: e.checker,
                report: Cow::Owned(e.report.into_owned()),
            }),
            StepEvent::StepEnd(e) => StepEvent::StepEnd(e),
            StepEvent::CheckpointSave(e) => StepEvent::CheckpointSave(e),
            StepEvent::CheckpointRestore(e) => StepEvent::CheckpointRestore(e),
            StepEvent::ConstraintQuarantined(e) => StepEvent::ConstraintQuarantined(e),
            StepEvent::CheckpointFallback(e) => StepEvent::CheckpointFallback(e),
            StepEvent::BadLine(e) => StepEvent::BadLine(e),
            StepEvent::PlanStatsSample(e) => StepEvent::PlanStatsSample(e),
            StepEvent::PlanProfileSample(e) => StepEvent::PlanProfileSample(PlanProfileSample {
                checker: e.checker,
                constraint: e.constraint,
                profile: Cow::Owned(e.profile.into_owned()),
            }),
            StepEvent::SpaceSample(e) => StepEvent::SpaceSample(e),
            StepEvent::ServeSample(e) => StepEvent::ServeSample(e),
        });
    }
}

/// Emits a constraint's [`StepEvent::ConstraintEval`] for `report`, plus
/// its [`StepEvent::Violation`] when it has witnesses, timing the
/// evaluation from `eval_start`. Returns the witness count.
pub(crate) fn emit_eval(
    obs: &mut dyn StepObserver,
    checker: &'static str,
    report: &StepReport,
    eval_start: Instant,
) -> usize {
    let latency_ns = eval_start.elapsed().as_nanos() as u64;
    let violations = report.violation_count();
    obs.observe(&StepEvent::ConstraintEval(ConstraintEval {
        checker,
        constraint: report.constraint,
        time: report.time,
        violations,
        latency_ns,
    }));
    if violations > 0 {
        let report = Cow::Borrowed(report);
        obs.observe(&StepEvent::Violation(Violation { checker, report }));
    }
    violations
}

/// Steps several checkers (one per constraint, sharing a backend) through
/// one transition as a single logical step, emitting one
/// `StepStart`/`StepEnd` pair plus per-constraint events. On error, events
/// after `StepStart` are withheld — the step never completed.
///
/// This is what `rtic check` drives for the reference backends; one boxed
/// checker is a one-element slice.
pub fn step_all(
    checkers: &mut [Box<dyn Checker>],
    time: TimePoint,
    update: &Update,
    obs: &mut dyn StepObserver,
) -> Result<Vec<StepReport>, HistoryError> {
    let label = checkers.first().map_or("none", |c| c.name());
    obs.observe(&StepEvent::StepStart(StepStart {
        checker: label,
        time,
        tuples: update.len(),
    }));
    let step_start = Instant::now();
    let mut reports = Vec::with_capacity(checkers.len());
    let mut total_violations = 0usize;
    for checker in checkers.iter_mut() {
        let eval_start = Instant::now();
        let report = checker.step(time, update)?;
        total_violations += emit_eval(obs, checker.name(), &report, eval_start);
        reports.push(report);
    }
    obs.observe(&StepEvent::StepEnd(StepEnd {
        checker: label,
        time,
        violations: total_violations,
        latency_ns: step_start.elapsed().as_nanos() as u64,
    }));
    Ok(reports)
}

/// Emits one [`StepEvent::SpaceSample`] per checker (drivers call this on
/// their sampling schedule, e.g. every N transitions).
pub fn sample_space(
    checkers: &[Box<dyn Checker>],
    time: TimePoint,
    step_index: u64,
    obs: &mut dyn StepObserver,
) {
    for checker in checkers {
        obs.observe(&StepEvent::SpaceSample(SpaceSample {
            checker: checker.name(),
            constraint: checker.constraint().name,
            time,
            step_index,
            stats: checker.space(),
        }));
    }
}

/// Emits one [`StepEvent::PlanStatsSample`] per checker that reports plan
/// statistics ([`Checker::plan_stats`]). Drivers call this once per run,
/// after stepping, so the scratch high-water marks cover the whole run.
pub fn sample_plan_stats(checkers: &[Box<dyn Checker>], obs: &mut dyn StepObserver) {
    for checker in checkers {
        if let Some(stats) = checker.plan_stats() {
            obs.observe(&StepEvent::PlanStatsSample(PlanStatsSample {
                checker: checker.name(),
                constraint: checker.constraint().name,
                stats,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalChecker;
    use rtic_relation::{tuple, Catalog, Schema, Sort};
    use rtic_temporal::parser::parse_constraint;
    use std::sync::Arc;

    fn checker() -> IncrementalChecker {
        let catalog = Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        );
        IncrementalChecker::new(
            parse_constraint("deny d: p(x) && hist[0,1] p(x)").unwrap(),
            catalog,
        )
        .unwrap()
    }

    /// `checker()` boxed, the one-element fleet [`step_all`] steps.
    fn boxed() -> Vec<Box<dyn Checker>> {
        vec![Box::new(checker())]
    }

    #[test]
    fn step_observed_brackets_the_step() {
        let mut c = boxed();
        let mut obs = CollectingObserver::default();
        let insert = Update::new().with_insert("p", tuple!["a"]);
        step_all(&mut c, TimePoint(1), &insert, &mut obs).unwrap();
        let r = step_all(&mut c, TimePoint(2), &Update::new(), &mut obs).unwrap();
        assert_eq!(r[0].violation_count(), 1);
        let kinds: Vec<&str> = obs.events.iter().map(StepEvent::kind).collect();
        // hist over the empty prefix is vacuously true, so the insert at
        // t=1 already violates; both steps emit the full event quartet.
        assert_eq!(
            kinds,
            vec![
                "step_start",
                "eval",
                "violation",
                "step",
                "step_start",
                "eval",
                "violation",
                "step"
            ]
        );
        let StepEvent::StepStart(start) = obs.events[0] else {
            panic!("first event must be step_start");
        };
        assert_eq!(start.tuples, 1);
    }

    #[test]
    fn step_observed_matches_plain_step() {
        let mut observed = boxed();
        let mut plain = checker();
        let updates = [
            Update::new().with_insert("p", tuple!["a"]),
            Update::new(),
            Update::new().with_delete("p", tuple!["a"]),
        ];
        for (t, u) in updates.iter().enumerate() {
            let a = step_all(&mut observed, TimePoint(t as u64), u, &mut NopObserver).unwrap();
            let b = plain.step(TimePoint(t as u64), u).unwrap();
            assert_eq!(a, vec![b], "observation changed the verdict at t={t}");
        }
    }

    #[test]
    fn step_all_emits_one_step_per_transition() {
        let mut checkers: Vec<Box<dyn Checker>> = vec![Box::new(checker()), Box::new(checker())];
        let mut obs = CollectingObserver::default();
        step_all(
            &mut checkers,
            TimePoint(1),
            &Update::new().with_insert("p", tuple!["a"]),
            &mut obs,
        )
        .unwrap();
        step_all(&mut checkers, TimePoint(2), &Update::new(), &mut obs).unwrap();
        let steps = obs.events.iter().filter(|e| e.kind() == "step").count();
        assert_eq!(steps, 2, "one step event per transition, not per checker");
        let evals = obs.events.iter().filter(|e| e.kind() == "eval").count();
        assert_eq!(evals, 4, "one eval event per checker per transition");
    }

    #[test]
    fn sample_space_reports_per_checker() {
        let mut checkers = boxed();
        step_all(
            &mut checkers,
            TimePoint(1),
            &Update::new(),
            &mut NopObserver,
        )
        .unwrap();
        let mut obs = CollectingObserver::default();
        sample_space(&checkers, TimePoint(1), 0, &mut obs);
        assert_eq!(obs.events.len(), 1);
        assert!(matches!(obs.events[0], StepEvent::SpaceSample(_)));
    }

    #[test]
    fn failed_step_withholds_completion_events() {
        let mut c = boxed();
        let mut obs = CollectingObserver::default();
        step_all(&mut c, TimePoint(5), &Update::new(), &mut obs).unwrap();
        // Non-monotonic time: the step fails after StepStart.
        assert!(step_all(&mut c, TimePoint(5), &Update::new(), &mut obs).is_err());
        let kinds: Vec<&str> = obs.events.iter().map(StepEvent::kind).collect();
        assert_eq!(kinds, vec!["step_start", "eval", "step", "step_start"]);
    }
}
