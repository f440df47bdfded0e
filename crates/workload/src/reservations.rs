//! The paper's motivating scenario: airline reservations that must be
//! confirmed within a deadline.
//!
//! Relations:
//! * `reserved(p, f)` — the reservation, held from creation to retirement;
//! * `reserved_at(p, f)` — transient creation event (present for one state);
//! * `confirmed(p, f)` — the confirmation, recorded when it happens.
//!
//! Constraint (deadline `d`, retirement at `d + 2`):
//!
//! ```text
//! deny unconfirmed:
//!     reserved(p, f) && once[d, d+2] reserved_at(p, f)
//!                    && !once[0, d+2] confirmed(p, f)
//! ```
//!
//! A reservation created at `t₀` and never confirmed is flagged first at
//! exactly `t₀ + d` — the earliest state where the violation is definite.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::TimePoint;

use crate::{Expected, Generated};

/// Parameters for the reservations workload.
#[derive(Clone, Copy, Debug)]
pub struct Reservations {
    /// Number of transitions to generate (one tick apart).
    pub steps: usize,
    /// Reservations created per step.
    pub new_per_step: usize,
    /// Confirmation deadline `d` (ticks).
    pub deadline: u64,
    /// Probability a reservation is never confirmed (injected violation).
    pub violation_rate: f64,
    /// RNG seed (generation is fully deterministic given the parameters).
    pub seed: u64,
}

impl Default for Reservations {
    fn default() -> Reservations {
        Reservations {
            steps: 200,
            new_per_step: 2,
            deadline: 5,
            violation_rate: 0.05,
            seed: 42,
        }
    }
}

struct Pending {
    p: String,
    f: i64,
    created: u64,
    confirm_at: Option<u64>, // None = injected violator
    confirmed: bool,
}

impl Reservations {
    /// The constraint text for deadline `d`.
    pub fn constraint_text(&self) -> String {
        let d = self.deadline;
        let d2 = d + 2;
        format!(
            "deny unconfirmed: reserved(p, f) && once[{d},{d2}] reserved_at(p, f) \
             && !once[0,{d2}] confirmed(p, f)"
        )
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(
            self.deadline >= 2,
            "deadline must leave room for confirmation"
        );
        let catalog = Arc::new(
            Catalog::new()
                .with(
                    "reserved",
                    Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]),
                )
                .expect("static workload schema")
                .with(
                    "reserved_at",
                    Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]),
                )
                .expect("static workload schema")
                .with(
                    "confirmed",
                    Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]),
                )
                .expect("static workload schema"),
        );
        let constraint = parse_constraint(&self.constraint_text()).expect("template parses");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pending: Vec<Pending> = Vec::new();
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let mut next_flight: i64 = 0;
        let mut last_events: Vec<(String, i64)> = Vec::new();
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            // Retire yesterday's creation events.
            for (p, f) in last_events.drain(..) {
                u.delete("reserved_at", tuple![p.as_str(), f]);
            }
            // New reservations.
            for _ in 0..self.new_per_step {
                let p = format!("p{}", rng.gen_range(0..50));
                let f = next_flight;
                next_flight += 1;
                u.insert("reserved", tuple![p.as_str(), f]);
                u.insert("reserved_at", tuple![p.as_str(), f]);
                let violator = rng.gen_bool(self.violation_rate);
                let confirm_at = if violator {
                    if t + self.deadline <= self.steps as u64 {
                        expected.push(Expected {
                            constraint: "unconfirmed".into(),
                            time: TimePoint(t + self.deadline),
                            witness: vec![
                                ("p", rtic_relation::Value::str(&p)),
                                ("f", rtic_relation::Value::Int(f)),
                            ],
                        });
                    }
                    None
                } else {
                    Some(t + rng.gen_range(1..self.deadline))
                };
                last_events.push((p.clone(), f));
                pending.push(Pending {
                    p,
                    f,
                    created: t,
                    confirm_at,
                    confirmed: false,
                });
            }
            // Confirmations and retirements.
            pending.retain_mut(|r| {
                if r.confirm_at == Some(t) {
                    u.insert("confirmed", tuple![r.p.as_str(), r.f]);
                    r.confirmed = true;
                }
                if t == r.created + self.deadline + 2 {
                    u.delete("reserved", tuple![r.p.as_str(), r.f]);
                    if r.confirmed {
                        u.delete("confirmed", tuple![r.p.as_str(), r.f]);
                    }
                    false
                } else {
                    true
                }
            });
            transitions.push(Transition::new(t, u));
        }
        Generated {
            catalog,
            constraints: vec![constraint],
            transitions,
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::IncrementalChecker;

    #[test]
    fn deterministic_given_seed() {
        let a = Reservations::default().generate();
        let b = Reservations::default().generate();
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.expected, b.expected);
        let c = Reservations {
            seed: 7,
            ..Default::default()
        }
        .generate();
        assert_ne!(a.transitions, c.transitions);
    }

    #[test]
    fn injected_violations_are_caught_exactly() {
        let spec = Reservations {
            steps: 120,
            violation_rate: 0.2,
            ..Default::default()
        };
        let gen = spec.generate();
        assert!(
            !gen.expected.is_empty(),
            "workload injected some violations"
        );
        let mut checker =
            IncrementalChecker::new(gen.constraints[0].clone(), Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        // Every injected violation is found at its first-definite state.
        for exp in &gen.expected {
            let report = reports
                .iter()
                .find(|r| r.time == exp.time)
                .expect("a report exists at the expected time");
            assert!(
                exp.found_in(report),
                "missing expected violation at {}",
                exp.time
            );
        }
        // And no violation is reported before it could be definite: the
        // count of *distinct first detections* matches the injection count.
        let mut firsts = 0;
        let mut seen: std::collections::BTreeSet<Vec<rtic_relation::Value>> = Default::default();
        for r in &reports {
            for row in r.violations.rows() {
                if seen.insert(row.values().to_vec()) {
                    firsts += 1;
                }
            }
        }
        assert_eq!(firsts, gen.expected.len(), "no spurious violations");
    }

    #[test]
    fn clean_run_has_no_violations() {
        let gen = Reservations {
            violation_rate: 0.0,
            steps: 80,
            ..Default::default()
        }
        .generate();
        assert!(gen.expected.is_empty());
        let mut checker =
            IncrementalChecker::new(gen.constraints[0].clone(), Arc::clone(&gen.catalog)).unwrap();
        for r in crate::run(&mut checker, &gen.transitions) {
            assert!(r.ok(), "spurious violation at {}", r.time);
        }
    }
}
