//! Parameterized random workload for the scaling experiments (domain size,
//! update size, metric bound sweeps).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;

use crate::Generated;

/// Parameters for the random workload.
#[derive(Clone, Copy, Debug)]
pub struct RandomWorkload {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Key domain size (keys are integers `0..domain`).
    pub domain: usize,
    /// Tuple changes per step.
    pub updates_per_step: usize,
    /// The metric bound `B` in the constraint `base(k) && once[0,B] ev(k)`.
    pub bound: u64,
    /// Maximum clock gap between states (gaps are uniform in `1..=max_gap`;
    /// 1 = one state per tick).
    pub max_gap: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomWorkload {
    fn default() -> RandomWorkload {
        RandomWorkload {
            steps: 200,
            domain: 64,
            updates_per_step: 8,
            bound: 8,
            max_gap: 1,
            seed: 42,
        }
    }
}

impl RandomWorkload {
    /// The constraint text.
    pub fn constraint_text(&self) -> String {
        format!("deny hit: base(k) && once[0,{}] ev(k)", self.bound)
    }

    /// Generates the workload: half the changes are transient `ev` events,
    /// half toggle `base` membership.
    pub fn generate(&self) -> Generated {
        let catalog = Arc::new(
            Catalog::new()
                .with("base", Schema::of(&[("k", Sort::Int)]))
                .expect("static workload schema")
                .with("ev", Schema::of(&[("k", Sort::Int)]))
                .expect("static workload schema"),
        );
        let constraint = parse_constraint(&self.constraint_text()).expect("template parses");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut in_base = vec![false; self.domain];
        let mut last_events: Vec<i64> = Vec::new();
        assert!(self.max_gap >= 1, "gaps are at least one tick");
        let mut transitions = Vec::with_capacity(self.steps);
        let mut t = 0u64;
        for _ in 0..self.steps {
            t += if self.max_gap == 1 {
                1
            } else {
                rng.gen_range(1..=self.max_gap)
            };
            let mut u = Update::new();
            for k in last_events.drain(..) {
                u.delete("ev", tuple![k]);
            }
            for c in 0..self.updates_per_step {
                let k = rng.gen_range(0..self.domain);
                if c % 2 == 0 {
                    u.insert("ev", tuple![k as i64]);
                    last_events.push(k as i64);
                } else if in_base[k] {
                    u.delete("base", tuple![k as i64]);
                    in_base[k] = false;
                } else {
                    u.insert("base", tuple![k as i64]);
                    in_base[k] = true;
                }
            }
            transitions.push(Transition::new(t, u));
        }
        Generated {
            catalog,
            constraints: vec![constraint],
            transitions,
            expected: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::{Checker, CompiledConstraint, IncrementalChecker, NaiveChecker};

    #[test]
    fn deterministic() {
        let a = RandomWorkload::default().generate();
        let b = RandomWorkload::default().generate();
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn checkers_agree_on_random_workload() {
        let gen = RandomWorkload {
            steps: 60,
            domain: 8,
            updates_per_step: 4,
            bound: 3,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let mut inc =
            IncrementalChecker::new(gen.constraints[0].clone(), Arc::clone(&gen.catalog)).unwrap();
        let compiled =
            CompiledConstraint::compile(gen.constraints[0].clone(), Arc::clone(&gen.catalog));
        let mut naive = NaiveChecker::from_compiled(compiled.unwrap());
        for tr in &gen.transitions {
            let a = inc.step(tr.time, &tr.update).unwrap();
            let b = naive.step(tr.time, &tr.update).unwrap();
            assert_eq!(a, b, "diverged at {}", tr.time);
        }
    }

    #[test]
    fn update_size_is_respected() {
        let gen = RandomWorkload {
            updates_per_step: 10,
            steps: 5,
            ..Default::default()
        }
        .generate();
        for tr in &gen.transitions {
            // Each step carries the new changes plus last step's event
            // retractions; toggles may coincide, so just sanity-bound it.
            assert!(tr.update.len() <= 2 * 10);
            assert!(tr.update.len() >= 5);
        }
    }
}
