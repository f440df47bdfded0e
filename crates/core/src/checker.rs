//! The common checker interface.

use rtic_history::HistoryError;
use rtic_relation::Update;
use rtic_temporal::{Constraint, TimePoint};

use crate::plan::RuntimePlanStats;
use crate::report::{SpaceStats, StepReport};

/// An online integrity-constraint checker: consumes one transition at a
/// time and reports violations at each state.
///
/// Every implementation ([`crate::IncrementalChecker`], the naive and
/// windowed forms of [`crate::NaiveChecker`], and the `ActiveChecker` of
/// `rtic-active`) produces *identical reports* on identical input (the
/// differential oracle, `crates/oracle`, diffs them on seeded random
/// cases); they differ in what they store and how long a step takes —
/// exactly the axes the paper's evaluation compares.
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

    /// Downcasting support (the pipeline benchmark's traced driver,
    /// `benchmark/src/traced.rs`, checkpoints the concrete
    /// [`crate::IncrementalChecker`] behind a `Box<dyn Checker>`).
    fn as_any(&self) -> &dyn std::any::Any;
}
