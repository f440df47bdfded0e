//! Running a checker over a transition stream with instrumentation.

use std::time::Instant;

use rtic_core::{Checker, SpaceStats};
use rtic_history::Transition;

/// Instrumented results of one checker run.
#[derive(Clone, Debug)]
pub struct RunMeasurement {
    /// Transitions processed.
    pub steps: usize,
    /// Median per-step time over the **last quarter** of the run (where a
    /// history-dependent checker is at its slowest) in microseconds — the
    /// median, so one preempted step on a shared host does not move it.
    pub tail_step_us: f64,
    /// Space at the end of the run.
    pub final_space: SpaceStats,
    /// Largest retained-unit footprint observed at any step.
    pub max_retained_units: usize,
    /// Total violation witnesses reported across the run.
    pub violations: usize,
}

impl RunMeasurement {
    /// Steady-state throughput (states/second) based on the tail median.
    pub fn tail_throughput(&self) -> f64 {
        if self.tail_step_us == 0.0 {
            f64::INFINITY
        } else {
            1_000_000.0 / self.tail_step_us
        }
    }
}

/// The median of `xs` (sorted in place); NaN when empty.
pub(crate) fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Runs `checker` over `transitions`, timing every step and polling space.
///
/// Space is polled every `space_every` steps (1 = every step) because
/// space polling itself walks the aux structures.
pub fn run_instrumented(
    checker: &mut dyn Checker,
    transitions: &[Transition],
    space_every: usize,
) -> RunMeasurement {
    assert!(!transitions.is_empty(), "nothing to measure");
    let mut step_times = Vec::with_capacity(transitions.len());
    let mut violations = 0usize;
    let mut max_retained = 0usize;
    for (i, tr) in transitions.iter().enumerate() {
        let s = Instant::now();
        let report = checker
            .step(tr.time, &tr.update)
            .unwrap_or_else(|e| panic!("checker {} failed at {}: {e}", checker.name(), tr.time));
        step_times.push(s.elapsed().as_secs_f64() * 1e6);
        violations += report.violation_count();
        if space_every > 0 && i % space_every == 0 {
            max_retained = max_retained.max(checker.space().retained_units());
        }
    }
    let final_space = checker.space();
    max_retained = max_retained.max(final_space.retained_units());
    let tail_from = step_times.len() - step_times.len() / 4 - 1;
    RunMeasurement {
        steps: transitions.len(),
        tail_step_us: median(&mut step_times[tail_from..]),
        final_space,
        max_retained_units: max_retained,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::IncrementalChecker;
    use rtic_temporal::parser::parse_constraint;
    use rtic_workload::RandomWorkload;
    use std::sync::Arc;

    #[test]
    fn instrumentation_reports_sane_numbers() {
        let gen = RandomWorkload {
            steps: 40,
            ..Default::default()
        }
        .generate();
        let c = parse_constraint(&RandomWorkload::default().constraint_text()).unwrap();
        let mut checker = IncrementalChecker::new(c, Arc::clone(&gen.catalog)).unwrap();
        let m = run_instrumented(&mut checker, &gen.transitions, 1);
        assert_eq!(m.steps, 40);
        assert!(m.tail_step_us > 0.0);
        assert!(m.max_retained_units >= m.final_space.retained_units());
        assert!(m.tail_throughput() > 0.0);
    }
}
