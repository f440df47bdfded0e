//! Process/alarm monitoring: the "real-time" flavor of the paper's title.
//! Exercises `hist` (continuous condition) and `prev` (state-to-state
//! comparison).
//!
//! Relations:
//! * `alarm(s)` — sensor `s` is in alarm, held until acknowledged/resolved;
//! * `ack(s)` — transient acknowledgement event;
//! * `reading(s, v)` — the current value of sensor `s` (replaced each step).
//!
//! Constraints (ack window `K`):
//!
//! ```text
//! deny unacked: alarm(s) && hist[0,K] alarm(s) && !once[0,K] ack(s)
//! deny spike:   reading(s, v) && prev[1,1] reading(s, w) && w < v
//! ```
//!
//! `unacked` fires first at exactly `t₀ + K` for an alarm raised at `t₀`
//! and never acknowledged; `spike` denies any increase of a (nominally
//! non-increasing) sensor value between consecutive states.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

use crate::{Expected, Generated};

/// Parameters for the monitoring workload.
#[derive(Clone, Copy, Debug)]
pub struct Monitor {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Number of sensors.
    pub sensors: usize,
    /// Per-step probability that an idle sensor raises an alarm.
    pub raise_rate: f64,
    /// Acknowledgement window `K`.
    pub ack_window: u64,
    /// Probability a raised alarm is never acknowledged (injected).
    pub violation_rate: f64,
    /// Per-step probability of an injected reading spike.
    pub spike_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Monitor {
    fn default() -> Monitor {
        Monitor {
            steps: 200,
            sensors: 10,
            raise_rate: 0.08,
            ack_window: 4,
            violation_rate: 0.1,
            spike_rate: 0.02,
            seed: 42,
        }
    }
}

/// Per-sensor alarm lifecycle.
enum SensorState {
    Idle { cooldown_until: u64 },
    Alarmed { raised: u64, ack_at: Option<u64> }, // None = injected violator
}

impl Monitor {
    /// The two constraints for window `K`.
    pub fn constraint_texts(&self) -> [String; 2] {
        let k = self.ack_window;
        [
            format!("deny unacked: alarm(s) && hist[0,{k}] alarm(s) && !once[0,{k}] ack(s)"),
            "deny spike: reading(s, v) && prev[1,1] reading(s, w) && w < v".to_string(),
        ]
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(self.ack_window >= 2, "window must leave room for acks");
        let catalog = Arc::new(
            Catalog::new()
                .with("alarm", Schema::of(&[("s", Sort::Str)]))
                .expect("static workload schema")
                .with("ack", Schema::of(&[("s", Sort::Str)]))
                .expect("static workload schema")
                .with("reading", Schema::of(&[("s", Sort::Str), ("v", Sort::Int)]))
                .expect("static workload schema"),
        );
        let constraints: Vec<Constraint> = self
            .constraint_texts()
            .iter()
            .map(|t| parse_constraint(t).expect("template parses"))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let k = self.ack_window;
        // Warm-up: within the first K ticks the hist window is clipped at
        // the history start, so a just-raised alarm would be vacuously
        // "continuously on". Real deployments have history; we simply don't
        // raise alarms until enough states exist.
        let mut states: Vec<SensorState> = (0..self.sensors)
            .map(|_| SensorState::Idle {
                cooldown_until: k + 2,
            })
            .collect();
        let mut values: Vec<i64> = (0..self.sensors).map(|_| 1_000_000).collect();
        let mut last_acks: Vec<String> = Vec::new();
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            for s in last_acks.drain(..) {
                u.delete("ack", tuple![s.as_str()]);
            }
            for (i, st) in states.iter_mut().enumerate() {
                let name = format!("s{i}");
                match st {
                    SensorState::Idle { cooldown_until } => {
                        if t >= *cooldown_until && rng.gen_bool(self.raise_rate) {
                            u.insert("alarm", tuple![name.as_str()]);
                            let violator = rng.gen_bool(self.violation_rate);
                            let ack_at = if violator {
                                if t + k <= self.steps as u64 {
                                    expected.push(Expected {
                                        constraint: "unacked".into(),
                                        time: TimePoint(t + k),
                                        witness: vec![("s", Value::str(&name))],
                                    });
                                }
                                None
                            } else {
                                Some(t + rng.gen_range(1..k))
                            };
                            *st = SensorState::Alarmed { raised: t, ack_at };
                        }
                    }
                    SensorState::Alarmed { raised, ack_at } => {
                        let resolve_unacked = ack_at.is_none() && t == *raised + k + 2;
                        if *ack_at == Some(t) {
                            u.insert("ack", tuple![name.as_str()]);
                            u.delete("alarm", tuple![name.as_str()]);
                            last_acks.push(name.clone());
                            // Ack events linger in once[0,K]: cool down past it.
                            *st = SensorState::Idle {
                                cooldown_until: t + k + 2,
                            };
                        } else if resolve_unacked {
                            u.delete("alarm", tuple![name.as_str()]);
                            *st = SensorState::Idle {
                                cooldown_until: t + k + 2,
                            };
                        }
                    }
                }
            }
            // Readings: non-increasing drift, with injected spikes.
            for (i, v) in values.iter_mut().enumerate() {
                let name = format!("s{i}");
                let old = *v;
                // No spike at t = 1: there is no previous reading for
                // `prev` to compare against.
                if t > 1 && rng.gen_bool(self.spike_rate) {
                    *v = old + 50;
                    expected.push(Expected {
                        constraint: "spike".into(),
                        time: TimePoint(t),
                        witness: vec![("s", Value::str(&name))],
                    });
                } else {
                    *v = old - rng.gen_range(0i64..3);
                }
                if t > 1 {
                    u.delete("reading", tuple![name.as_str(), old]);
                }
                u.insert("reading", tuple![name.as_str(), *v]);
            }
            transitions.push(Transition::new(t, u));
        }
        Generated {
            catalog,
            constraints,
            transitions,
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::{Checker, IncrementalChecker};

    #[test]
    fn deterministic() {
        let a = Monitor::default().generate();
        let b = Monitor::default().generate();
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn unacked_alarms_and_spikes_detected() {
        let gen = Monitor {
            steps: 120,
            ..Default::default()
        }
        .generate();
        assert!(!gen.expected.is_empty(), "some violations injected");
        let mut checkers: Vec<IncrementalChecker> = gen
            .constraints
            .iter()
            .map(|c| IncrementalChecker::new(c.clone(), Arc::clone(&gen.catalog)).unwrap())
            .collect();
        let mut reports = Vec::new();
        for tr in &gen.transitions {
            for c in &mut checkers {
                reports.push(c.step(tr.time, &tr.update).unwrap());
            }
        }
        for exp in &gen.expected {
            assert!(
                reports.iter().any(|r| exp.found_in(r)),
                "missing expected violation at {}",
                exp.time
            );
        }
    }

    #[test]
    fn clean_run_is_quiet() {
        let gen = Monitor {
            steps: 100,
            violation_rate: 0.0,
            spike_rate: 0.0,
            ..Default::default()
        }
        .generate();
        assert!(gen.expected.is_empty());
        for c in &gen.constraints {
            let mut checker = IncrementalChecker::new(c.clone(), Arc::clone(&gen.catalog)).unwrap();
            for r in crate::run(&mut checker, &gen.transitions) {
                assert!(
                    r.ok(),
                    "spurious violation of {} at {}",
                    r.constraint,
                    r.time
                );
            }
        }
    }

    #[test]
    fn spike_fires_only_at_injection() {
        let gen = Monitor {
            steps: 60,
            raise_rate: 0.0,
            spike_rate: 0.05,
            ..Default::default()
        }
        .generate();
        let spike = gen.constraints[1].clone();
        let mut checker = IncrementalChecker::new(spike, Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        let fired: usize = reports.iter().map(|r| r.violation_count()).sum();
        assert_eq!(fired, gen.expected.len());
    }
}
