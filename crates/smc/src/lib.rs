//! Statistical model checking (SMC) over the production scenario library.
//!
//! Exhaustive checking proves one history; production assurance needs a
//! statement about the *distribution* of histories a scenario generates.
//! This crate samples N randomized histories per scenario (each a fresh
//! seed derived from the base seed), checks each through a configurable
//! backend, and reports, per constraint, the estimated probability that a
//! history of the configured shape violates it — with Wilson confidence
//! intervals and Okamoto/Massart adaptive stopping, so the declared
//! `(confidence, epsilon)` target is met with a provable worst-case
//! sample bound.
//!
//! Three backends cross-validate the whole stack on the way:
//!
//! * the batch backend ([`Backend::Sequential`]) steps a `ConstraintSet`
//!   in-process;
//! * the soak backend ([`Backend::Soak`]) drives a live `rtic serve`
//!   daemon per sample over a unix socket and cross-checks its drained
//!   report byte-for-byte against the sequential batch run;
//! * an oracle subsample re-checks every k-th sample against the naive
//!   reference evaluator.
//!
//! Everything is seeded and wall-clock-free, so a run's report (and its
//! JSON artifact, [`artifact::render`]) reproduces byte-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod artifact;
pub mod bound;
pub mod driver;
pub mod soak;

use std::path::PathBuf;

use rtic_core::{StepEvent, StepObserver};
use rtic_relation::Symbol;
use rtic_workload::{library, Generated, ScenarioParams};

pub use bound::Precision;
pub use driver::{run_batch, violated_constraint, Backend};
pub use soak::{run_soak, SoakOutcome, SoakPaths, SoakSample};

/// How many samples to draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleMode {
    /// Adaptive: stop at the Massart bound for the running estimate,
    /// never past the Okamoto worst case.
    Auto,
    /// Exactly this many samples, no adaptive stopping.
    Fixed(u64),
}

/// Configuration of one SMC run.
#[derive(Clone, Debug)]
pub struct SmcConfig {
    /// Scenario name from the workload registry.
    pub scenario: String,
    /// Scenario shape; `params.seed` is the base seed every per-sample
    /// seed derives from.
    pub params: ScenarioParams,
    /// The `(confidence, epsilon)` target.
    pub precision: Precision,
    /// Fixed or adaptive sample count.
    pub samples: SampleMode,
    /// Adaptive stopping never stops before this many samples (guards
    /// against a lucky early p̂ at the extremes).
    pub min_samples: u64,
    /// The checking backend.
    pub backend: Backend,
    /// Re-check every k-th sample against the naive oracle (0 = off).
    pub oracle_every: u64,
    /// Scratch directory for soak-mode sockets/checkpoints/reports.
    /// Defaults to a per-process temp directory, cleaned after each
    /// sample; set explicitly (with [`SmcConfig::soak_keep`]) to drill
    /// crash-resume across two invocations.
    pub soak_dir: Option<PathBuf>,
    /// Keep per-sample soak files instead of cleaning them.
    pub soak_keep: bool,
    /// Boot each sample's soak daemon from its checkpoint if present.
    pub soak_resume: bool,
    /// Failpoint spec forwarded to every soak daemon (chaos drills).
    pub soak_failpoints: Option<String>,
}

impl SmcConfig {
    /// A default-shaped run of one scenario: 0.95/0.05 precision,
    /// adaptive stopping, sequential backend, oracle every 8th sample.
    pub fn new(scenario: &str) -> SmcConfig {
        SmcConfig {
            scenario: scenario.to_string(),
            params: ScenarioParams::default(),
            precision: Precision {
                confidence: 0.95,
                epsilon: 0.05,
            },
            samples: SampleMode::Auto,
            min_samples: 20,
            backend: Backend::Sequential,
            oracle_every: 8,
            soak_dir: None,
            soak_keep: false,
            soak_resume: false,
            soak_failpoints: None,
        }
    }
}

/// Per-constraint violation-probability estimate.
#[derive(Clone, Debug)]
pub struct ConstraintEstimate {
    /// The constraint's name.
    pub name: String,
    /// Samples whose history violated it at least once.
    pub violated_samples: u64,
    /// Point estimate `violated_samples / samples_used`.
    pub estimate: f64,
    /// Wilson interval lower bound at the configured confidence.
    pub ci_low: f64,
    /// Wilson interval upper bound at the configured confidence.
    pub ci_high: f64,
}

/// The result of one SMC run.
#[derive(Clone, Debug)]
pub struct SmcReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend every sample ran through.
    pub backend: Backend,
    /// The sampled scenario shape (seed = base seed).
    pub params: ScenarioParams,
    /// Confidence target `1 − δ`.
    pub confidence: f64,
    /// Absolute half-width target `ε`.
    pub epsilon: f64,
    /// The worst-case sample bound the run declared up front.
    pub bound: u64,
    /// Samples actually drawn.
    pub samples_used: u64,
    /// Whether adaptive stopping ended the run before the bound.
    pub stopped_adaptively: bool,
    /// Per-constraint estimates, in the scenario's constraint order.
    pub constraints: Vec<ConstraintEstimate>,
    /// Samples re-checked against the naive oracle.
    pub oracle_checked: u64,
    /// Oracle disagreements (0 on a healthy stack).
    pub oracle_mismatches: u64,
    /// Soak samples cross-checked against the sequential batch run.
    pub soak_checked: u64,
    /// Soak-vs-batch disagreements (0 on a healthy stack).
    pub soak_mismatches: u64,
}

/// Runs one SMC campaign, emitting a [`StepEvent::SmcSample`] per
/// completed sample.
pub fn run(config: &SmcConfig, obs: &mut dyn StepObserver) -> Result<SmcReport, String> {
    let scenario = library::find(&config.scenario)
        .ok_or_else(|| format!("unknown scenario `{}` ({})", config.scenario, names()))?;
    let bound = match config.samples {
        SampleMode::Auto => config.precision.okamoto_bound(),
        SampleMode::Fixed(n) => {
            if n == 0 {
                return Err("--samples must be at least 1".into());
            }
            n
        }
    };

    // Constraint names in scenario order, fixed across samples.
    let constraint_names: Vec<String> = {
        let gen = scenario.generate(&config.params);
        gen.constraints.iter().map(|c| c.name.to_string()).collect()
    };
    let mut violated = vec![0u64; constraint_names.len()];

    let soak_scratch = config
        .soak_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("rtic-smc-{}", std::process::id())));

    let mut samples_used = 0u64;
    let mut stopped_adaptively = false;
    let mut oracle_checked = 0u64;
    let mut oracle_mismatches = 0u64;
    let mut soak_checked = 0u64;
    let mut soak_mismatches = 0u64;

    for i in 0..bound {
        let mut params = config.params;
        params.seed = rtic_oracle::derive_seed(config.params.seed, i);
        let gen = scenario.generate(&params);

        let lines = match config.backend {
            Backend::Soak => {
                let paths = SoakPaths {
                    dir: soak_scratch.clone(),
                    tag: format!("s{i}"),
                };
                let outcome = run_soak(SoakSample {
                    gen: &gen,
                    paths: paths.clone(),
                    resume: config.soak_resume,
                    failpoints: config.soak_failpoints.clone(),
                })?;
                // Every soak sample is cross-checked against the batch
                // engine; a wire-protocol or resume bug becomes a visible
                // mismatch count, not a silently skewed estimate.
                let batch = run_batch(&gen)?;
                soak_checked += 1;
                if outcome.lines != batch {
                    soak_mismatches += 1;
                }
                if !config.soak_keep {
                    soak::cleanup(&paths, 3);
                }
                outcome.lines
            }
            Backend::Sequential => run_batch(&gen)?,
        };

        let mut hit = vec![false; constraint_names.len()];
        for line in &lines {
            if let Some(name) = violated_constraint(line) {
                if let Some(idx) = constraint_names.iter().position(|n| n == name) {
                    hit[idx] = true;
                }
            }
        }
        for (idx, was_hit) in hit.iter().enumerate() {
            if *was_hit {
                violated[idx] += 1;
            }
        }

        if config.oracle_every > 0 && i % config.oracle_every == 0 {
            oracle_checked += 1;
            if !oracle_agrees(&gen, &lines, params.seed)? {
                oracle_mismatches += 1;
            }
        }

        obs.observe(&StepEvent::SmcSample {
            scenario: Symbol::intern(&config.scenario),
            sample: i,
            bound,
            violated_constraints: hit
                .iter()
                .enumerate()
                .filter(|(_, h)| **h)
                .map(|(idx, _)| Symbol::intern(&constraint_names[idx]))
                .collect(),
        });

        samples_used = i + 1;
        if config.samples == SampleMode::Auto && samples_used >= config.min_samples {
            // The loosest constraint (p̂ nearest ½) dictates the stop.
            let needed = violated
                .iter()
                .map(|&v| {
                    config
                        .precision
                        .massart_bound(v as f64 / samples_used as f64)
                })
                .max()
                .unwrap_or(1);
            if samples_used >= needed {
                stopped_adaptively = samples_used < bound;
                break;
            }
        }
    }

    let constraints = constraint_names
        .iter()
        .zip(&violated)
        .map(|(name, &v)| {
            let (ci_low, ci_high) = config.precision.wilson_interval(v, samples_used);
            ConstraintEstimate {
                name: name.clone(),
                violated_samples: v,
                estimate: v as f64 / samples_used as f64,
                ci_low,
                ci_high,
            }
        })
        .collect();

    Ok(SmcReport {
        scenario: config.scenario.clone(),
        backend: config.backend,
        params: config.params,
        confidence: config.precision.confidence,
        epsilon: config.precision.epsilon,
        bound,
        samples_used,
        stopped_adaptively,
        constraints,
        oracle_checked,
        oracle_mismatches,
        soak_checked,
        soak_mismatches,
    })
}

/// Re-checks one sample's violation lines against the naive reference
/// evaluator, constraint by constraint.
fn oracle_agrees(gen: &Generated, lines: &[String], seed: u64) -> Result<bool, String> {
    use rtic_core::BackendId;
    use rtic_oracle::modes::{run_constraint, Mode};
    for constraint in &gen.constraints {
        let reference: Vec<String> = run_constraint(
            Mode::Single(BackendId::Naive),
            constraint,
            &gen.catalog,
            &gen.transitions,
            seed,
        )?
        .into_iter()
        .filter(|line| violated_constraint(line).is_some())
        .collect();
        let ours: Vec<&String> = lines
            .iter()
            .filter(|line| violated_constraint(line) == Some(constraint.name.as_str()))
            .collect();
        if ours.len() != reference.len()
            || ours.iter().zip(&reference).any(|(a, b)| a.as_str() != b)
        {
            return Ok(false);
        }
    }
    Ok(true)
}

fn names() -> String {
    library::names().join("|")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::NopObserver;

    fn quick(scenario: &str) -> SmcConfig {
        let mut config = SmcConfig::new(scenario);
        config.params = ScenarioParams {
            steps: 30,
            entities: 8,
            events_per_step: 3,
            violation_rate: 0.3,
            seed: 11,
        };
        config.samples = SampleMode::Fixed(6);
        config.oracle_every = 3;
        config
    }

    #[test]
    fn unknown_scenarios_are_rejected_with_the_roster() {
        let err = run(&SmcConfig::new("nope"), &mut NopObserver).unwrap_err();
        assert!(err.contains("unknown scenario `nope`"));
        assert!(err.contains("fraud"), "roster lists the scenarios: {err}");
    }

    #[test]
    fn fixed_mode_draws_exactly_n_samples_and_estimates_every_constraint() {
        let config = quick("ratelimit");
        let report = run(&config, &mut NopObserver).unwrap();
        assert_eq!(report.samples_used, 6);
        assert_eq!(report.bound, 6);
        assert!(!report.stopped_adaptively);
        assert_eq!(report.constraints.len(), 2);
        for est in &report.constraints {
            assert_eq!(
                est.estimate,
                est.violated_samples as f64 / report.samples_used as f64
            );
            assert!(est.ci_low <= est.estimate && est.estimate <= est.ci_high);
        }
        // A 30% injection rate over 30 steps violates nearly every sample.
        assert!(report.constraints.iter().any(|e| e.violated_samples > 0));
        assert_eq!(report.oracle_checked, 2, "samples 0 and 3");
        assert_eq!(report.oracle_mismatches, 0);
    }

    #[test]
    fn seeded_runs_reproduce_exactly() {
        let config = quick("telemetry");
        let a = run(&config, &mut NopObserver).unwrap();
        let b = run(&config, &mut NopObserver).unwrap();
        assert_eq!(a.samples_used, b.samples_used);
        assert_eq!(a.constraints.len(), b.constraints.len());
        for (x, y) in a.constraints.iter().zip(&b.constraints) {
            assert_eq!(x.violated_samples, y.violated_samples);
            assert_eq!(x.estimate, y.estimate);
            assert_eq!(x.ci_low, y.ci_low);
            assert_eq!(x.ci_high, y.ci_high);
        }
        assert_eq!(artifact::render(&a), artifact::render(&b));
    }

    #[test]
    fn adaptive_stopping_terminates_within_the_declared_bound() {
        let mut config = quick("fraud");
        config.samples = SampleMode::Auto;
        config.min_samples = 5;
        // Loose precision keeps the test fast: okamoto(0.9, 0.2) = 38.
        config.precision = Precision::new(0.9, 0.2).unwrap();
        config.oracle_every = 0;
        let report = run(&config, &mut NopObserver).unwrap();
        assert_eq!(report.bound, config.precision.okamoto_bound());
        assert!(report.samples_used <= report.bound);
        assert!(report.samples_used >= config.min_samples);
        // Injected violations push p̂ to the edge, so the Massart bound
        // undercuts the worst case and the run stops early.
        assert!(report.stopped_adaptively, "used {}", report.samples_used);
    }

    #[test]
    fn samples_emit_progress_events() {
        use rtic_core::observe::CollectingObserver;
        let mut config = quick("access");
        config.samples = SampleMode::Fixed(3);
        config.oracle_every = 0;
        let mut obs = CollectingObserver::default();
        let report = run(&config, &mut obs).unwrap();
        let smc: Vec<_> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                StepEvent::SmcSample {
                    scenario,
                    sample,
                    bound,
                    violated_constraints,
                } => Some((scenario, *sample, *bound, violated_constraints.len())),
                _ => None,
            })
            .collect();
        assert_eq!(smc.len(), 3);
        assert_eq!(smc[0].0.as_str(), "access");
        assert_eq!(smc[0].1, 0);
        assert_eq!(smc[2].1, 2);
        assert!(smc.iter().all(|s| s.2 == 3));
        let violated_events: usize = smc.iter().map(|s| s.3).sum();
        let violated_report: u64 = report.constraints.iter().map(|e| e.violated_samples).sum();
        assert_eq!(violated_events as u64, violated_report);
    }

    #[test]
    fn soak_backend_matches_batch_estimates() {
        let mut config = quick("telemetry");
        config.samples = SampleMode::Fixed(2);
        config.oracle_every = 0;
        config.backend = Backend::Soak;
        config.soak_dir =
            Some(std::env::temp_dir().join(format!("rtic-smc-lib-test-{}", std::process::id())));
        let soak = run(&config, &mut NopObserver).unwrap();
        assert_eq!(soak.soak_checked, 2);
        assert_eq!(soak.soak_mismatches, 0);
        config.backend = Backend::Sequential;
        let batch = run(&config, &mut NopObserver).unwrap();
        for (a, b) in soak.constraints.iter().zip(&batch.constraints) {
            assert_eq!(a.violated_samples, b.violated_samples);
        }
        std::fs::remove_dir_all(config.soak_dir.as_deref().expect("set above")).ok();
    }
}
