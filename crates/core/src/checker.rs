//! The common checker interface.

use rtic_history::{HistoryError, Transition};
use rtic_relation::Update;
use rtic_temporal::{Constraint, TimePoint};

use crate::plan::{PlanProfile, RuntimePlanStats};
use crate::report::{SpaceStats, StepReport};

/// An online integrity-constraint checker: consumes one transition at a
/// time and reports violations at each state.
///
/// All four implementations ([`crate::IncrementalChecker`],
/// [`crate::NaiveChecker`], [`crate::WindowedChecker`] and the
/// `ActiveChecker` of `rtic-active`) produce *identical
/// reports* on identical input (property-tested); they differ in what they
/// store and how long a step takes — exactly the axes the paper's
/// evaluation compares.
pub trait Checker {
    /// The constraint being checked.
    fn constraint(&self) -> &Constraint;

    /// Processes one transition and reports violations at the new state.
    fn step(&mut self, time: TimePoint, update: &Update) -> Result<StepReport, HistoryError>;

    /// What the checker currently retains.
    fn space(&self) -> SpaceStats;

    /// A short implementation name for experiment tables.
    fn name(&self) -> &'static str;

    /// Statistics of the compiled evaluation plans this checker executes
    /// (node counts, cached index shapes, scratch high-water marks), or
    /// `None` when the checker runs the interpreting evaluator instead.
    fn plan_stats(&self) -> Option<RuntimePlanStats> {
        None
    }

    /// The accumulated per-plan-node execution profile (wall time,
    /// cardinalities, memo-cache hit rates), or `None` when the checker
    /// was not built with profiling enabled (see
    /// `EncodingOptions::profile_plans`). Profiling never changes reports.
    fn plan_profile(&self) -> Option<PlanProfile> {
        None
    }

    /// Downcasting support (e.g. the CLI checkpoints the concrete
    /// [`crate::IncrementalChecker`] behind a `Box<dyn Checker>`).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Convenience: run a whole transition sequence, collecting reports.
    fn run(
        &mut self,
        transitions: impl IntoIterator<Item = Transition>,
    ) -> Result<Vec<StepReport>, HistoryError>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        for t in transitions {
            out.push(self.step(t.time, &t.update)?);
        }
        Ok(out)
    }
}
