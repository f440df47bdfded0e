//! Fraud/AML transaction monitoring at production flavor: structuring
//! (smurfing) detection via a windowed `count` aggregate, and compliance
//! screening of large transfers via an assert over `once`.
//!
//! Relations:
//! * `xfer(a, i)` — transient transfer event `i` on account `a`;
//! * `large(a, i)` — transient large-transfer event (reportable size);
//! * `review(a)` — transient compliance-review event on account `a`.
//!
//! Constraints (burst window `W`, burst threshold `N`, review window `R`):
//!
//! ```text
//! deny structuring: xfer(a, i) && count j . (once[0,W] xfer(a, j)) > N
//! assert screened:  large(a, i) -> once[0,R] review(a)
//! ```
//!
//! `structuring` fires when an account lands more than `N` transfers
//! inside any `W`-tick window — the classic AML smurfing rule: an
//! aggregate over the account's window beside a plain per-account
//! deadline (`screened`), a realistic mixed fleet. Honest traffic is generated under the per-account budget, so a
//! zero violation rate yields a provably quiet run; injected bursts are
//! `N + 1` transfers on consecutive ticks, definite at the burst's last
//! tick. Injected unscreened large transfers are definite immediately.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Tuple, Update, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

use crate::{Expected, Generated};

/// Parameters for the fraud/AML workload.
#[derive(Clone, Copy, Debug)]
pub struct Fraud {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Accounts in play (entity-key domain; scale to 10⁵–10⁶).
    pub accounts: usize,
    /// Honest transfers attempted per step.
    pub events_per_step: usize,
    /// Structuring window `W`.
    pub burst_window: u64,
    /// Structuring threshold `N` (deny fires beyond `N` transfers in `W`).
    pub burst_threshold: u64,
    /// Review look-back window `R` for large transfers.
    pub review_window: u64,
    /// Per-step probability of starting an injected structuring burst and
    /// of emitting an injected unscreened large transfer.
    pub violation_rate: f64,
    /// Per-step probability of a (properly screened) large transfer.
    pub large_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fraud {
    fn default() -> Fraud {
        Fraud {
            steps: 200,
            accounts: 64,
            events_per_step: 8,
            burst_window: 6,
            burst_threshold: 3,
            review_window: 4,
            violation_rate: 0.05,
            large_rate: 0.1,
            seed: 42,
        }
    }
}

/// An injected burst in flight: one transfer per tick until `until`.
struct Burst {
    acct: u32,
    until: u64,
}

impl Fraud {
    /// The two constraints.
    pub fn constraint_texts(&self) -> [String; 2] {
        let (w, n, r) = (self.burst_window, self.burst_threshold, self.review_window);
        [
            format!("deny structuring: xfer(a, i) && count j . (once[0,{w}] xfer(a, j)) > {n}"),
            format!("assert screened: large(a, i) -> once[0,{r}] review(a)"),
        ]
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(self.accounts >= 4, "need a few accounts to rotate through");
        assert!(
            self.burst_window >= self.burst_threshold,
            "the window must be able to hold a burst"
        );
        let catalog = Arc::new(
            Catalog::new()
                .with("xfer", Schema::of(&[("a", Sort::Str), ("i", Sort::Int)]))
                .expect("static workload schema")
                .with("large", Schema::of(&[("a", Sort::Str), ("i", Sort::Int)]))
                .expect("static workload schema")
                .with("review", Schema::of(&[("a", Sort::Str)]))
                .expect("static workload schema"),
        );
        let constraints: Vec<Constraint> = self
            .constraint_texts()
            .iter()
            .map(|t| parse_constraint(t).expect("template parses"))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let w = self.burst_window;
        let n = self.burst_threshold;
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let mut next_id: i64 = 0;
        // Transfer timestamps per account, pruned to the live window — the
        // honest-traffic budget that keeps clean accounts at ≤ N.
        let mut recent: HashMap<u32, Vec<u64>> = HashMap::new();
        // Last review tick per account (screened large transfers).
        let mut last_review: HashMap<u32, u64> = HashMap::new();
        // Screened large transfers scheduled after their review: (t, acct).
        let mut scheduled_large: Vec<(u64, u32)> = Vec::new();
        let mut bursts: Vec<Burst> = Vec::new();
        let mut last_events: Vec<(&'static str, Tuple)> = Vec::new();
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            for (rel, tuple) in last_events.drain(..) {
                u.delete(rel, tuple);
            }
            let xfer = |acct: u32,
                        id: i64,
                        u: &mut Update,
                        recent: &mut HashMap<u32, Vec<u64>>,
                        last_events: &mut Vec<(&'static str, Tuple)>| {
                let name = format!("a{acct}");
                let row = tuple![name.as_str(), id];
                u.insert("xfer", row.clone());
                last_events.push(("xfer", row));
                recent.entry(acct).or_default().push(t);
            };
            // Honest traffic: accounts draw transfers under the budget —
            // an account already at N transfers inside the window sits the
            // step out instead of tripping the structuring rule.
            for _ in 0..self.events_per_step {
                let acct = rng.gen_range(0..self.accounts as u32);
                let times = recent.entry(acct).or_default();
                times.retain(|&at| at + w >= t);
                let bursting = bursts.iter().any(|b| b.acct == acct);
                if times.len() as u64 >= n || bursting {
                    continue;
                }
                let id = next_id;
                next_id += 1;
                xfer(acct, id, &mut u, &mut recent, &mut last_events);
            }
            // Injected structuring: a quiet account fires N + 1 transfers
            // on consecutive ticks; the count rule turns definite at the
            // burst's last tick.
            if rng.gen_bool(self.violation_rate) && t + n <= self.steps as u64 {
                let candidate =
                    (0..8)
                        .map(|_| rng.gen_range(0..self.accounts as u32))
                        .find(|acct| {
                            let quiet = recent.get(acct).is_none_or(|ts| {
                                ts.iter().all(|&at| at + w < t) // nothing live in-window
                            });
                            quiet && !bursts.iter().any(|b| b.acct == *acct)
                        });
                if let Some(acct) = candidate {
                    bursts.push(Burst { acct, until: t + n });
                }
            }
            let mut finished = Vec::new();
            for b in &bursts {
                let id = next_id;
                next_id += 1;
                xfer(b.acct, id, &mut u, &mut recent, &mut last_events);
                if t == b.until {
                    expected.push(Expected {
                        constraint: "structuring".into(),
                        time: TimePoint(t),
                        witness: vec![
                            ("a", Value::str(&format!("a{}", b.acct))),
                            ("i", Value::Int(id)),
                        ],
                    });
                    finished.push(b.acct);
                }
            }
            bursts.retain(|b| !finished.contains(&b.acct));
            // Screened large transfers: review now, large a few ticks
            // later (inside the review window).
            if rng.gen_bool(self.large_rate) {
                let acct = rng.gen_range(0..self.accounts as u32);
                let name = format!("a{acct}");
                let row = tuple![name.as_str()];
                u.insert("review", row.clone());
                last_events.push(("review", row));
                last_review.insert(acct, t);
                scheduled_large.push((t + rng.gen_range(0..=self.review_window), acct));
            }
            scheduled_large.retain(|&(due, acct)| {
                if due == t {
                    let name = format!("a{acct}");
                    let id = next_id;
                    next_id += 1;
                    let row = tuple![name.as_str(), id];
                    u.insert("large", row.clone());
                    last_events.push(("large", row));
                    false
                } else {
                    due > t
                }
            });
            // Injected unscreened large transfer: an account with no
            // review inside the window — the assert is violated at once.
            if rng.gen_bool(self.violation_rate) {
                let candidate =
                    (0..8)
                        .map(|_| rng.gen_range(0..self.accounts as u32))
                        .find(|acct| {
                            last_review
                                .get(acct)
                                .is_none_or(|&at| at + self.review_window < t)
                                && !scheduled_large.iter().any(|&(_, a)| a == *acct)
                        });
                if let Some(acct) = candidate {
                    let name = format!("a{acct}");
                    let id = next_id;
                    next_id += 1;
                    let row = tuple![name.as_str(), id];
                    u.insert("large", row.clone());
                    last_events.push(("large", row));
                    expected.push(Expected {
                        constraint: "screened".into(),
                        time: TimePoint(t),
                        witness: vec![("a", Value::str(&name)), ("i", Value::Int(id))],
                    });
                }
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
        let a = Fraud::default().generate();
        let b = Fraud::default().generate();
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn injected_bursts_and_unscreened_larges_detected() {
        let gen = Fraud {
            steps: 150,
            violation_rate: 0.15,
            ..Default::default()
        }
        .generate();
        assert!(
            gen.expected
                .iter()
                .any(|e| e.constraint.as_str() == "structuring"),
            "some bursts injected"
        );
        assert!(
            gen.expected
                .iter()
                .any(|e| e.constraint.as_str() == "screened"),
            "some unscreened larges injected"
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
        let gen = Fraud {
            steps: 120,
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
    fn structuring_fires_exactly_once_per_burst() {
        let gen = Fraud {
            steps: 150,
            violation_rate: 0.2,
            large_rate: 0.0,
            events_per_step: 0,
            ..Default::default()
        }
        .generate();
        let structuring = gen.constraints[0].clone();
        let mut checker = IncrementalChecker::new(structuring, Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        let fired: usize = reports.iter().map(|r| r.violation_count()).sum();
        let injected = gen
            .expected
            .iter()
            .filter(|e| e.constraint.as_str() == "structuring")
            .count();
        assert_eq!(fired, injected, "one firing per injected burst");
    }
}
