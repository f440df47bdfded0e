//! Rate-limit / abuse rules at production flavor: a consecutive-tick
//! hammering rule and a banned-client gate.
//!
//! Relations:
//! * `req(c, i)` — transient request `i` from client `c`;
//! * `banned(c)` — held while client `c` is banned.
//!
//! Constraints (hammer window `W`):
//!
//! ```text
//! deny hammer:     req(c, i) && hist[1,W] (exists j . req(c, j))
//! deny banned_req: req(c, i) && banned(c)
//! ```
//!
//! `hammer` fires exactly when a client has requested at `W + 1`
//! consecutive ticks — `hist[1,W]` demands a request at every one of the
//! `W` preceding ticks. Honest clients issue request runs of length at
//! most `W`, starting no earlier than tick 2 and separated by at least
//! one quiet tick, so no honest span ever reaches `W + 1` consecutive
//! ticks and a clean run is provably quiet (the clipped `hist` window in
//! the first ticks always contains a request-free state for them). An
//! injected abuser fires a run of exactly `W + 1` requests from tick
//! `s ≥ 2`, definite once at `s + W`. Banned clients never request
//! honestly; an injected banned request trips `banned_req` at its own
//! tick. Both rules key every atom on the client `c`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Tuple, Update, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

use crate::{Expected, Generated};

/// Parameters for the rate-limit workload.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Clients in play (entity-key domain; scale to 10⁵–10⁶).
    pub clients: usize,
    /// Honest request runs started per step.
    pub events_per_step: usize,
    /// Hammer window `W`: `W + 1` consecutive request ticks violate.
    pub window: u64,
    /// Fraction of clients banned from the start.
    pub ban_fraction: f64,
    /// Per-step probability of starting an injected hammer run and of an
    /// injected banned request.
    pub violation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RateLimit {
    fn default() -> RateLimit {
        RateLimit {
            steps: 200,
            clients: 64,
            events_per_step: 8,
            window: 4,
            ban_fraction: 0.1,
            violation_rate: 0.05,
            seed: 42,
        }
    }
}

impl RateLimit {
    /// The two constraints.
    pub fn constraint_texts(&self) -> [String; 2] {
        let w = self.window;
        [
            format!("deny hammer: req(c, i) && hist[1,{w}] (exists j . req(c, j))"),
            "deny banned_req: req(c, i) && banned(c)".to_string(),
        ]
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(self.clients >= 4, "need a few clients to rotate through");
        assert!(self.window >= 1, "window must be at least one tick");
        let catalog = Arc::new(
            Catalog::new()
                .with("req", Schema::of(&[("c", Sort::Str), ("i", Sort::Int)]))
                .expect("static workload schema")
                .with("banned", Schema::of(&[("c", Sort::Str)]))
                .expect("static workload schema"),
        );
        let constraints: Vec<Constraint> = self
            .constraint_texts()
            .iter()
            .map(|t| parse_constraint(t).expect("template parses"))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let w = self.window;
        let banned_count = ((self.clients as f64) * self.ban_fraction) as usize;
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let mut next_id: i64 = 0;
        // Per-client run state: requesting through `until`; after a run
        // ends the client stays quiet through `cool` (≥ one tick) so two
        // honest runs can never fuse into a W + 1 consecutive span.
        struct Run {
            until: u64,
            cool: u64,
            abusive: bool,
        }
        let mut runs: Vec<Option<Run>> = (0..self.clients).map(|_| None).collect();
        let mut last_events: Vec<(&'static str, Tuple)> = Vec::new();
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            for (rel, tuple) in last_events.drain(..) {
                u.delete(rel, tuple);
            }
            if t == 1 {
                // The ban list is part of the initial state and never churns;
                // banned clients are the top of the index space.
                for c in 0..banned_count {
                    u.insert("banned", tuple![format!("b{c}").as_str()]);
                }
            }
            // Honest runs start at tick ≥ 2 (the clipped hist window at
            // tick 1 is vacuously full, so a tick-1 request would be a
            // false positive) and last at most W ticks.
            if t >= 2 {
                for _ in 0..self.events_per_step {
                    let c = banned_count + rng.gen_range(0..(self.clients - banned_count));
                    if runs[c].as_ref().is_some_and(|r| t <= r.cool) {
                        continue;
                    }
                    let len = rng.gen_range(1..=w);
                    runs[c] = Some(Run {
                        until: t + len - 1,
                        cool: t + len, // ≥ one quiet tick after the run
                        abusive: false,
                    });
                }
                // Injected hammer: a cold client fires W + 1 consecutive
                // requests; `hammer` turns definite at the run's last tick.
                if rng.gen_bool(self.violation_rate) && t + w <= self.steps as u64 {
                    let candidate = (0..8)
                        .map(|_| banned_count + rng.gen_range(0..(self.clients - banned_count)))
                        .find(|&c| runs[c].as_ref().is_none_or(|r| t > r.cool));
                    if let Some(c) = candidate {
                        runs[c] = Some(Run {
                            until: t + w,
                            cool: t + w + 1,
                            abusive: true,
                        });
                    }
                }
            }
            for (c, run) in runs.iter().enumerate() {
                let Some(run) = run else { continue };
                if t > run.until {
                    continue;
                }
                let name = format!("b{c}");
                let id = next_id;
                next_id += 1;
                let row = tuple![name.as_str(), id];
                u.insert("req", row.clone());
                last_events.push(("req", row));
                if run.abusive && t == run.until {
                    expected.push(Expected {
                        constraint: "hammer".into(),
                        time: TimePoint(t),
                        witness: vec![("c", Value::str(&name)), ("i", Value::Int(id))],
                    });
                }
            }
            // Injected banned request: banned clients never request
            // honestly, so this trips `banned_req` immediately. Tick ≥ 2
            // keeps it clear of the clipped hammer window, and one-off
            // requests can never hammer.
            if t >= 2 && banned_count > 0 && rng.gen_bool(self.violation_rate) {
                let c = rng.gen_range(0..banned_count);
                let name = format!("b{c}");
                let id = next_id;
                next_id += 1;
                let row = tuple![name.as_str(), id];
                u.insert("req", row.clone());
                last_events.push(("req", row));
                expected.push(Expected {
                    constraint: "banned_req".into(),
                    time: TimePoint(t),
                    witness: vec![("c", Value::str(&name)), ("i", Value::Int(id))],
                });
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

    fn run_all(gen: &Generated) -> Vec<rtic_core::StepReport> {
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
        reports
    }

    #[test]
    fn deterministic() {
        let a = RateLimit::default().generate();
        let b = RateLimit::default().generate();
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn injected_hammers_and_banned_requests_detected() {
        let gen = RateLimit {
            steps: 160,
            violation_rate: 0.15,
            ..Default::default()
        }
        .generate();
        assert!(
            gen.expected
                .iter()
                .any(|e| e.constraint.as_str() == "hammer"),
            "some hammer runs injected"
        );
        assert!(
            gen.expected
                .iter()
                .any(|e| e.constraint.as_str() == "banned_req"),
            "some banned requests injected"
        );
        let reports = run_all(&gen);
        for exp in &gen.expected {
            assert!(
                reports.iter().any(|r| exp.found_in(r)),
                "missing expected {} violation at {}",
                exp.constraint,
                exp.time
            );
        }
    }

    #[test]
    fn honest_traffic_is_quiet() {
        let gen = RateLimit {
            steps: 140,
            violation_rate: 0.0,
            ..Default::default()
        }
        .generate();
        assert!(gen.expected.is_empty());
        for r in run_all(&gen) {
            assert!(r.ok(), "spurious {} violation at {}", r.constraint, r.time);
        }
    }

    #[test]
    fn hammer_fires_exactly_once_per_injected_run() {
        let gen = RateLimit {
            steps: 160,
            violation_rate: 0.2,
            events_per_step: 0,
            ban_fraction: 0.0,
            ..Default::default()
        }
        .generate();
        let hammer = gen.constraints[0].clone();
        let mut checker = IncrementalChecker::new(hammer, Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        let fired: usize = reports.iter().map(|r| r.violation_count()).sum();
        assert_eq!(fired, gen.expected.len(), "one firing per injected run");
    }
}
