//! Running a checker over a transition stream with instrumentation, and
//! the one way a table's stopwatch readings are taken: [`passes`].

use std::time::Instant;

use rtic_core::{Checker, SpaceStats};
use rtic_history::Transition;

/// Instrumented results of one checker run.
#[derive(Clone, Debug)]
pub struct RunMeasurement {
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

/// The median of `xs` (sorted in place); NaN when empty.
pub(crate) fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Passes every timed table takes, after one warm-up pass it drops.
pub const PASSES: usize = 9;

/// Runs each of `arms` arms once per pass, pass `p` starting at arm
/// `p mod arms`, and returns the readings by pass, `by_pass[pass][arm]`.
/// A check reads a ratio within each pass and its median over passes
/// ([`median_over`]): a slow phase of a shared host then moves both sides
/// of the ratio, where a best-of reading can pair one arm's fast phase
/// with another's slow one.
pub fn passes<T>(arms: usize, mut run: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    let mut by_pass = Vec::new();
    for pass in 0..=PASSES {
        let mut readings: Vec<Option<T>> = (0..arms).map(|_| None).collect();
        for arm in (pass..pass + arms).map(|k| k % arms) {
            readings[arm] = Some(run(arm));
        }
        by_pass.push(readings.into_iter().flatten().collect());
    }
    by_pass.split_off(1)
}

/// The median over passes of `stat`, read within each pass; NaN without one.
pub fn median_over<P>(by_pass: &[P], stat: impl Fn(&P) -> f64) -> f64 {
    median(&mut by_pass.iter().map(stat).collect::<Vec<_>>())
}

/// Each arm's median over passes: what a table cell shows.
pub fn arm_medians(by_pass: &[Vec<f64>]) -> Vec<f64> {
    let arms = by_pass.first().map_or(0, Vec::len);
    (0..arms).map(|a| median_over(by_pass, |p| p[a])).collect()
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
        assert!(m.tail_step_us > 0.0);
        assert!(m.max_retained_units >= m.final_space.retained_units());
    }

    /// Two fake arms, arm 1 truly 3× arm 0, on a host that is fast (½×)
    /// for two calls in a row, both arm 0's: the end of pass 1 and the
    /// start of pass 2, where the rotation has arm 0 go last, then first.
    #[test]
    fn the_within_pass_median_reads_the_true_ratio_where_best_of_is_skewed() {
        let (mut calls, mut firsts) = (0, Vec::new());
        let by_pass = passes(2, |arm| {
            if calls % 2 == 0 {
                firsts.push(arm);
            }
            let speed = if calls == 3 || calls == 4 { 0.5 } else { 1.0 };
            calls += 1;
            [1.0, 3.0][arm] * speed
        });
        assert_eq!(calls, 2 * (PASSES + 1), "a warm-up pass, then PASSES");
        let rotation: Vec<usize> = (0..=PASSES).map(|p| p % 2).collect();
        assert_eq!(firsts, rotation, "each arm goes first in turn");
        assert_eq!(by_pass.len(), PASSES);
        assert_eq!(by_pass[0], [0.5, 3.0], "pass 1 reads 6");
        assert_eq!(median_over(&by_pass, |p| p[1] / p[0]), 3.0);
        let best = |arm: usize| by_pass.iter().map(|p| p[arm]).fold(f64::INFINITY, f64::min);
        assert_eq!(best(1) / best(0), 6.0, "a best-of reading pairs phases");
        assert_eq!(arm_medians(&by_pass), [1.0, 3.0]);
    }

    #[test]
    fn three_arms_rotate_and_keep_their_places() {
        let mut order = Vec::new();
        let by_pass = passes(3, |arm| {
            order.push(arm);
            arm as f64
        });
        let firsts: Vec<usize> = order.chunks(3).map(|pass| pass[0]).collect();
        assert_eq!(firsts, (0..=PASSES).map(|p| p % 3).collect::<Vec<_>>());
        assert!(by_pass.iter().all(|p| p == &[0.0, 1.0, 2.0]));
        assert!(median_over(&[] as &[Vec<f64>], |p| p[0]).is_nan());
    }
}
