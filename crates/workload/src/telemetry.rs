//! IoT telemetry SLA windows at production flavor: heartbeat liveness for
//! online devices and delivery freshness for broker messages.
//!
//! Relations:
//! * `online(d)` — held while device `d` has an open session;
//! * `heartbeat(d)` — transient keep-alive from device `d`;
//! * `enqueue(d, m)` — transient: the broker accepted message `m` for `d`;
//! * `deliver(d, m)` — transient: message `m` was delivered downstream.
//!
//! Constraints (heartbeat SLA `P`, freshness SLA `L`):
//!
//! ```text
//! deny silent:  online(d) && !once[0,P] heartbeat(d)
//! assert fresh: deliver(d, m) -> once[0,L] enqueue(d, m)
//! ```
//!
//! Devices churn through sessions (online for a bounded stretch, then
//! offline), so keys keep entering and leaving the auxiliary relations:
//! both constraints key on `d`. Honest devices heartbeat at their online tick
//! and every `hb_period ≤ P` ticks after, so a clean run is provably
//! quiet. An injected silent session heartbeats only at its online tick
//! and goes offline right after the SLA trips, so `silent` turns definite
//! exactly once, at `online_tick + P + 1`. An injected stale delivery has
//! no matching enqueue and trips `fresh` at its own tick.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Tuple, Update, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

use crate::{Expected, Generated};

/// Parameters for the IoT telemetry workload.
#[derive(Clone, Copy, Debug)]
pub struct Telemetry {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Devices in the fleet (entity-key domain; scale to 10⁵–10⁶).
    pub devices: usize,
    /// Broker messages enqueued per step (spread over online devices).
    pub events_per_step: usize,
    /// Heartbeat SLA `P`: an online device must heartbeat every `P` ticks.
    pub heartbeat_sla: u64,
    /// Honest heartbeat cadence (clamped to `heartbeat_sla`).
    pub hb_period: u64,
    /// Freshness SLA `L`: a delivery must follow its enqueue within `L`.
    pub freshness_sla: u64,
    /// Shortest honest session, in ticks.
    pub min_session: u64,
    /// Longest honest session, in ticks.
    pub max_session: u64,
    /// Probability that a new session is injected-silent, and per-step
    /// probability of an injected stale delivery.
    pub violation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry {
            steps: 200,
            devices: 64,
            events_per_step: 8,
            heartbeat_sla: 6,
            hb_period: 4,
            freshness_sla: 3,
            min_session: 10,
            max_session: 30,
            violation_rate: 0.05,
            seed: 42,
        }
    }
}

/// Per-device session lifecycle.
enum DevState {
    /// Offline; comes online at `until`.
    Offline { until: u64 },
    /// Online with an open session.
    Online {
        /// `online(d)` is deleted at this tick.
        ends: u64,
        /// Next honest heartbeat tick; `None` for an injected-silent session.
        next_hb: Option<u64>,
    },
}

impl Telemetry {
    /// The two constraints.
    pub fn constraint_texts(&self) -> [String; 2] {
        let p = self.heartbeat_sla;
        let l = self.freshness_sla;
        [
            format!("deny silent: online(d) && !once[0,{p}] heartbeat(d)"),
            format!("assert fresh: deliver(d, m) -> once[0,{l}] enqueue(d, m)"),
        ]
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(self.devices >= 2, "need at least two devices");
        assert!(
            self.min_session <= self.max_session,
            "session bounds inverted"
        );
        let hb = self.hb_period.clamp(1, self.heartbeat_sla);
        let catalog = Arc::new(
            Catalog::new()
                .with("online", Schema::of(&[("d", Sort::Str)]))
                .expect("static workload schema")
                .with("heartbeat", Schema::of(&[("d", Sort::Str)]))
                .expect("static workload schema")
                .with("enqueue", Schema::of(&[("d", Sort::Str), ("m", Sort::Int)]))
                .expect("static workload schema")
                .with("deliver", Schema::of(&[("d", Sort::Str), ("m", Sort::Int)]))
                .expect("static workload schema"),
        );
        let constraints: Vec<Constraint> = self
            .constraint_texts()
            .iter()
            .map(|t| parse_constraint(t).expect("template parses"))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let p = self.heartbeat_sla;
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let mut next_msg: i64 = 0;
        // Stagger first-online ticks so sessions don't move in lockstep.
        let mut states: Vec<DevState> = (0..self.devices)
            .map(|_| DevState::Offline {
                until: 1 + rng.gen_range(0..self.max_session.max(2)),
            })
            .collect();
        // Enqueued messages awaiting delivery: (deliver_at, device, msg).
        let mut in_flight: Vec<(u64, u32, i64)> = Vec::new();
        let mut last_events: Vec<(&'static str, Tuple)> = Vec::new();
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            for (rel, tuple) in last_events.drain(..) {
                u.delete(rel, tuple);
            }
            for (idx, state) in states.iter_mut().enumerate() {
                let name = format!("d{idx}");
                match state {
                    DevState::Offline { until } if *until == t => {
                        u.insert("online", tuple![name.as_str()]);
                        let row = tuple![name.as_str()];
                        u.insert("heartbeat", row.clone());
                        last_events.push(("heartbeat", row));
                        // An injected-silent session never heartbeats again
                        // and ends right after the SLA trips, so the deny
                        // fires at exactly one tick: t + P + 1.
                        let silent = rng.gen_bool(self.violation_rate) && t + p < self.steps as u64;
                        if silent {
                            expected.push(Expected {
                                constraint: "silent".into(),
                                time: TimePoint(t + p + 1),
                                witness: vec![("d", Value::str(&name))],
                            });
                            *state = DevState::Online {
                                ends: t + p + 2,
                                next_hb: None,
                            };
                        } else {
                            let len = rng.gen_range(self.min_session..=self.max_session);
                            *state = DevState::Online {
                                ends: t + len,
                                next_hb: Some(t + hb),
                            };
                        }
                    }
                    DevState::Online { ends, .. } if *ends == t => {
                        u.delete("online", tuple![name.as_str()]);
                        let gap = rng.gen_range(2..=self.max_session.max(3));
                        *state = DevState::Offline { until: t + gap };
                    }
                    DevState::Online { next_hb, .. } => {
                        if let Some(due) = next_hb {
                            if *due <= t {
                                let row = tuple![name.as_str()];
                                u.insert("heartbeat", row.clone());
                                last_events.push(("heartbeat", row));
                                *next_hb = Some(t + hb);
                            }
                        }
                    }
                    DevState::Offline { .. } => {}
                }
            }
            // Broker traffic: enqueue now, deliver within the SLA.
            for _ in 0..self.events_per_step {
                let dev = rng.gen_range(0..self.devices as u32);
                if !matches!(states[dev as usize], DevState::Online { .. }) {
                    continue;
                }
                let name = format!("d{dev}");
                let msg = next_msg;
                next_msg += 1;
                let row = tuple![name.as_str(), msg];
                u.insert("enqueue", row.clone());
                last_events.push(("enqueue", row));
                in_flight.push((t + rng.gen_range(0..=self.freshness_sla), dev, msg));
            }
            in_flight.retain(|&(due, dev, msg)| {
                if due == t {
                    let name = format!("d{dev}");
                    let row = tuple![name.as_str(), msg];
                    u.insert("deliver", row.clone());
                    last_events.push(("deliver", row));
                    false
                } else {
                    due > t
                }
            });
            // Injected stale delivery: a message that was never enqueued.
            if rng.gen_bool(self.violation_rate) {
                let dev = rng.gen_range(0..self.devices as u32);
                let name = format!("d{dev}");
                let msg = next_msg;
                next_msg += 1;
                let row = tuple![name.as_str(), msg];
                u.insert("deliver", row.clone());
                last_events.push(("deliver", row));
                expected.push(Expected {
                    constraint: "fresh".into(),
                    time: TimePoint(t),
                    witness: vec![("d", Value::str(&name)), ("m", Value::Int(msg))],
                });
            }
            transitions.push(Transition::new(t, u));
        }
        // Sessions whose SLA trip falls beyond the horizon were filtered at
        // injection time, so every Expected is inside the stream.
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
        let a = Telemetry::default().generate();
        let b = Telemetry::default().generate();
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn injected_silences_and_stale_deliveries_detected() {
        let gen = Telemetry {
            steps: 160,
            violation_rate: 0.12,
            ..Default::default()
        }
        .generate();
        assert!(
            gen.expected
                .iter()
                .any(|e| e.constraint.as_str() == "silent"),
            "some silent sessions injected"
        );
        assert!(
            gen.expected
                .iter()
                .any(|e| e.constraint.as_str() == "fresh"),
            "some stale deliveries injected"
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
    fn honest_fleet_is_quiet() {
        let gen = Telemetry {
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
    fn silent_fires_exactly_once_per_injected_session() {
        let gen = Telemetry {
            steps: 180,
            violation_rate: 0.2,
            events_per_step: 0,
            ..Default::default()
        }
        .generate();
        let silent = gen.constraints[0].clone();
        let mut checker = IncrementalChecker::new(silent, Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        let fired: usize = reports.iter().map(|r| r.violation_count()).sum();
        let injected = gen
            .expected
            .iter()
            .filter(|e| e.constraint.as_str() == "silent")
            .count();
        assert_eq!(fired, injected, "one firing per injected silent session");
    }
}
