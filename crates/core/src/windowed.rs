//! The windowed baseline checker: store only the formula's lookback
//! horizon worth of states, evaluate naively over the window.
//!
//! The intermediate point between the naive checker and the bounded
//! encoding: space is bounded (by the horizon, when finite) but each step
//! still re-evaluates the temporal formula over every stored state. When
//! the constraint contains an unbounded interval the horizon is infinite
//! and this checker degenerates into the naive one (documented fallback —
//! no pruning is sound then).

use std::sync::Arc;

use rtic_history::{History, HistoryError};
use rtic_relation::{Catalog, Update};
use rtic_temporal::{Constraint, Horizon, TimePoint};

use crate::binding::Scratch;
use crate::checker::Checker;
use crate::compile::CompiledConstraint;
use crate::error::CompileError;
use crate::naive::eval_at_planned;
use crate::report::{SpaceStats, StepReport};

/// Horizon-window checker.
#[derive(Clone, Debug)]
pub struct WindowedChecker {
    compiled: CompiledConstraint,
    history: History,
    scratch: Scratch,
}

impl WindowedChecker {
    /// Compiles and initializes a checker for `constraint`.
    pub fn new(
        constraint: Constraint,
        catalog: Arc<Catalog>,
    ) -> Result<WindowedChecker, CompileError> {
        let compiled = CompiledConstraint::compile(constraint, Arc::clone(&catalog))?;
        Ok(Self::from_compiled(compiled))
    }

    /// Builds a checker from an already-compiled constraint.
    pub fn from_compiled(compiled: CompiledConstraint) -> WindowedChecker {
        let history = History::new(Arc::clone(&compiled.catalog));
        WindowedChecker {
            compiled,
            history,
            scratch: Scratch::new(),
        }
    }

    /// The lookback horizon governing pruning.
    pub fn horizon(&self) -> Horizon {
        self.compiled.horizon
    }

    /// The currently retained window.
    pub fn window(&self) -> &History {
        &self.history
    }
}

impl Checker for WindowedChecker {
    fn constraint(&self) -> &Constraint {
        &self.compiled.constraint
    }

    fn step(&mut self, time: TimePoint, update: &Update) -> Result<StepReport, HistoryError> {
        self.history.append(time, update)?;
        if let Horizon::Finite(h) = self.compiled.horizon {
            // Keep states with age ≤ h: drop those with t < time − h. The
            // naive evaluation over the pruned window is exact because no
            // temporal operator can look past the horizon (and a pruned
            // `prev`-predecessor would have been age-gated out anyway).
            if let Some(cutoff) = time.minus(h) {
                self.history.prune_before(cutoff);
            }
        }
        let i = self.history.len() - 1;
        let violations = eval_at_planned(&self.history, i, &self.compiled, &mut self.scratch);
        Ok(self.compiled.report(time, violations))
    }

    fn space(&self) -> SpaceStats {
        SpaceStats {
            aux_keys: 0,
            aux_timestamps: self.history.len(),
            stored_states: self.history.len(),
            stored_tuples: self.history.total_stored_tuples(),
        }
    }

    fn name(&self) -> &'static str {
        "windowed"
    }

    fn plan_stats(&self) -> Option<crate::plan::RuntimePlanStats> {
        // Only the body plan runs over the window; the temporal recursion
        // stays interpreted.
        Some(crate::plan::RuntimePlanStats {
            plan: self.compiled.plans.body.stats(),
            scratch_high_water: self.scratch.high_water(),
            rows_copied: self.scratch.rows_copied(),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{tuple, Schema, Sort};
    use rtic_temporal::parser::parse_constraint;
    use rtic_temporal::Duration;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("q", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        )
    }

    fn checker(src: &str) -> WindowedChecker {
        WindowedChecker::new(parse_constraint(src).unwrap(), catalog()).unwrap()
    }

    #[test]
    fn window_stays_bounded_for_finite_horizon() {
        let mut c = checker("deny d: p(x) && once[0,3] q(x)");
        assert_eq!(c.horizon(), Horizon::Finite(Duration(3)));
        for t in 0..100u64 {
            c.step(TimePoint(t), &Update::new()).unwrap();
            assert!(
                c.space().stored_states <= 4,
                "window of span 3 keeps ≤ 4 states"
            );
        }
    }

    #[test]
    fn unbounded_horizon_degenerates_to_naive() {
        let mut c = checker("deny d: p(x) && once[2,*] q(x)");
        assert_eq!(c.horizon(), Horizon::Unbounded);
        for t in 0..20u64 {
            c.step(TimePoint(t), &Update::new()).unwrap();
        }
        assert_eq!(c.space().stored_states, 20);
    }

    #[test]
    fn pruning_preserves_answers() {
        // once[0,2] q: a q-witness matters for exactly 2 ticks.
        let mut c = checker("deny d: p(x) && once[0,2] q(x)");
        c.step(TimePoint(0), &Update::new().with_insert("q", tuple!["a"]))
            .unwrap();
        c.step(
            TimePoint(1),
            &Update::new()
                .with_insert("p", tuple!["a"])
                .with_delete("q", tuple!["a"]),
        )
        .unwrap();
        let r = c.step(TimePoint(2), &Update::new()).unwrap();
        assert_eq!(r.violation_count(), 1, "age 2 in window");
        let r = c.step(TimePoint(3), &Update::new()).unwrap();
        assert!(r.ok(), "witness expired with the window");
    }

    #[test]
    fn nested_horizons_add() {
        let c = checker("deny d: p(x) && once[0,2] once[0,3] q(x)");
        assert_eq!(c.horizon(), Horizon::Finite(Duration(5)));
    }
}
