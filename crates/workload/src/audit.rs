//! Transaction auditing: exercises **assert-mode** constraints (compiled
//! through implication + negation pushing) and `exists` under negation
//! over a temporal operator.
//!
//! Relations:
//! * `txn(id, acct)` — transient transaction event;
//! * `approved(id)` — transient pre-approval event;
//! * `flagged(acct)` — the account is under review, held until cleared.
//!
//! Constraints (approval window `W`, staleness window `S`):
//!
//! ```text
//! assert approval:  txn(i, a) -> once[0,W] approved(i)
//! deny stale_flag:  flagged(a) && hist[0,S] flagged(a)
//!                   && !(exists i . once[0,S] txn(i, a))
//! ```
//!
//! `approval` (an assertion) is violated by any transaction whose id was
//! not approved within the last `W` ticks — detected at the transaction's
//! own state. `stale_flag` fires when an account has been continuously
//! flagged for `S` ticks with no transaction on it in that span — a review
//! that is going nowhere.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

use crate::{Expected, Generated};

/// Parameters for the audit workload.
#[derive(Clone, Copy, Debug)]
pub struct Audit {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Accounts in play.
    pub accounts: usize,
    /// Transactions per step.
    pub txns_per_step: usize,
    /// Approval look-back window `W`.
    pub approval_window: u64,
    /// Staleness window `S`.
    pub stale_window: u64,
    /// Probability a transaction is injected unapproved.
    pub unapproved_rate: f64,
    /// Per-step probability an idle account gets flagged; flagged accounts
    /// that see no transactions go stale (injected) with probability ½.
    pub flag_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Audit {
    fn default() -> Audit {
        Audit {
            steps: 200,
            accounts: 12,
            txns_per_step: 2,
            approval_window: 3,
            stale_window: 6,
            unapproved_rate: 0.06,
            flag_rate: 0.05,
            seed: 42,
        }
    }
}

enum FlagState {
    Idle { cooldown_until: u64 },
    Flagged { raised: u64, stale: bool },
}

impl Audit {
    /// The two constraints.
    pub fn constraint_texts(&self) -> [String; 2] {
        let w = self.approval_window;
        let s = self.stale_window;
        [
            format!("assert approval: txn(i, a) -> once[0,{w}] approved(i)"),
            format!(
                "deny stale_flag: flagged(a) && hist[0,{s}] flagged(a) \
                 && !(exists i . once[0,{s}] txn(i, a))"
            ),
        ]
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(self.approval_window >= 1 && self.stale_window >= 2);
        let catalog = Arc::new(
            Catalog::new()
                .with("txn", Schema::of(&[("id", Sort::Int), ("acct", Sort::Str)]))
                .expect("static workload schema")
                .with("approved", Schema::of(&[("id", Sort::Int)]))
                .expect("static workload schema")
                .with("flagged", Schema::of(&[("acct", Sort::Str)]))
                .expect("static workload schema"),
        );
        let constraints: Vec<Constraint> = self
            .constraint_texts()
            .iter()
            .map(|t| parse_constraint(t).expect("template parses"))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let w = self.approval_window;
        let s = self.stale_window;
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let mut next_id: i64 = 0;
        // Events to retract next step: (relation, tuple).
        let mut last_events: Vec<(&'static str, rtic_relation::Tuple)> = Vec::new();
        // Approvals scheduled ahead of their transactions: (time, id).
        let mut future_txns: Vec<(u64, i64, String)> = Vec::new();
        let mut flags: Vec<FlagState> = (0..self.accounts)
            .map(|_| FlagState::Idle {
                cooldown_until: s + 2,
            })
            .collect();
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            for (rel, tup) in last_events.drain(..) {
                u.delete(rel, tup);
            }
            // Emit transactions scheduled for now.
            future_txns.retain(|(when, id, acct)| {
                if *when == t {
                    u.insert("txn", tuple![*id, acct.as_str()]);
                    last_events.push(("txn", tuple![*id, acct.as_str()]));
                    false
                } else {
                    true
                }
            });
            // Schedule new transactions; approvals precede them (or don't).
            for _ in 0..self.txns_per_step {
                let id = next_id;
                next_id += 1;
                // Flagged accounts see no scheduled transactions, so stale
                // flags stay stale.
                let acct = loop {
                    let i = rng.gen_range(0..self.accounts);
                    if matches!(flags[i], FlagState::Idle { .. }) {
                        break format!("acct{i}");
                    }
                };
                let delay = rng.gen_range(0..w);
                let txn_at = t + delay;
                let unapproved = rng.gen_bool(self.unapproved_rate);
                if unapproved {
                    if txn_at <= self.steps as u64 {
                        expected.push(Expected {
                            constraint: "approval".into(),
                            time: TimePoint(txn_at),
                            witness: vec![("i", Value::Int(id)), ("a", Value::str(&acct))],
                        });
                    }
                } else {
                    u.insert("approved", tuple![id]);
                    last_events.push(("approved", tuple![id]));
                }
                if txn_at == t {
                    u.insert("txn", tuple![id, acct.as_str()]);
                    last_events.push(("txn", tuple![id, acct.as_str()]));
                } else {
                    future_txns.push((txn_at, id, acct));
                }
            }
            // Flag lifecycle. An account with a transaction already landed
            // this step or still scheduled cannot go stale (the txn would
            // fall inside the staleness window), so it is not flagged now.
            let busy: std::collections::BTreeSet<String> = future_txns
                .iter()
                .map(|(_, _, acct)| acct.clone())
                .chain(
                    last_events
                        .iter()
                        .filter(|(rel, _)| *rel == "txn")
                        .map(|(_, tup)| tup[1].as_symbol().expect("acct col").to_string()),
                )
                .collect();
            for (i, st) in flags.iter_mut().enumerate() {
                let acct = format!("acct{i}");
                match st {
                    FlagState::Idle { cooldown_until } => {
                        if t >= *cooldown_until
                            && !busy.contains(&acct)
                            && rng.gen_bool(self.flag_rate)
                        {
                            u.insert("flagged", tuple![acct.as_str()]);
                            let stale = rng.gen_bool(0.5);
                            if stale && t + s <= self.steps as u64 {
                                expected.push(Expected {
                                    constraint: "stale_flag".into(),
                                    time: TimePoint(t + s),
                                    witness: vec![("a", Value::str(&acct))],
                                });
                            }
                            *st = FlagState::Flagged { raised: t, stale };
                        }
                    }
                    FlagState::Flagged { raised, stale } => {
                        // Active (non-stale) reviews see a transaction each
                        // step, keeping the flag fresh; all reviews clear
                        // after s + 1 ticks.
                        let clear_at = *raised + s + 1;
                        if !*stale && t < clear_at {
                            let id = next_id;
                            next_id += 1;
                            u.insert("txn", tuple![id, acct.as_str()]);
                            u.insert("approved", tuple![id]);
                            last_events.push(("txn", tuple![id, acct.as_str()]));
                            last_events.push(("approved", tuple![id]));
                        }
                        if t == clear_at {
                            u.delete("flagged", tuple![acct.as_str()]);
                            // Past txns linger in once[0,S]: long cooldown.
                            *st = FlagState::Idle {
                                cooldown_until: t + s + 2,
                            };
                        }
                    }
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
    use rtic_core::{Checker, CompiledConstraint, IncrementalChecker, NaiveChecker};

    #[test]
    fn deterministic() {
        let a = Audit::default().generate();
        let b = Audit::default().generate();
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn assert_mode_constraint_compiles_and_detects() {
        let gen = Audit {
            steps: 120,
            unapproved_rate: 0.2,
            ..Default::default()
        }
        .generate();
        let approvals: Vec<_> = gen
            .expected
            .iter()
            .filter(|e| e.constraint.as_str() == "approval")
            .collect();
        assert!(!approvals.is_empty());
        let mut checker =
            IncrementalChecker::new(gen.constraints[0].clone(), Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        for exp in &approvals {
            assert!(
                reports.iter().any(|r| exp.found_in(r)),
                "unapproved txn not flagged at {}",
                exp.time
            );
        }
        // Exactness: total approval violations == injected.
        let total: usize = reports.iter().map(|r| r.violation_count()).sum();
        assert_eq!(total, approvals.len(), "no spurious approval violations");
    }

    #[test]
    fn stale_flags_detected() {
        let gen = Audit {
            steps: 150,
            flag_rate: 0.1,
            ..Default::default()
        }
        .generate();
        let stales: Vec<_> = gen
            .expected
            .iter()
            .filter(|e| e.constraint.as_str() == "stale_flag")
            .collect();
        assert!(!stales.is_empty());
        let mut checker =
            IncrementalChecker::new(gen.constraints[1].clone(), Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        for exp in &stales {
            assert!(
                reports.iter().any(|r| exp.found_in(r)),
                "stale flag not detected at {}",
                exp.time
            );
        }
    }

    #[test]
    fn incremental_and_naive_agree_on_audit() {
        let gen = Audit {
            steps: 60,
            ..Default::default()
        }
        .generate();
        for c in &gen.constraints {
            let mut inc = IncrementalChecker::new(c.clone(), Arc::clone(&gen.catalog)).unwrap();
            let compiled = CompiledConstraint::compile(c.clone(), Arc::clone(&gen.catalog));
            let mut nai = NaiveChecker::from_compiled(compiled.unwrap());
            for tr in &gen.transitions {
                let a = inc.step(tr.time, &tr.update).unwrap();
                let b = nai.step(tr.time, &tr.update).unwrap();
                assert_eq!(a, b, "diverged on `{c}` at {}", tr.time);
            }
        }
    }

    #[test]
    fn clean_run_is_quiet() {
        let gen = Audit {
            steps: 100,
            unapproved_rate: 0.0,
            flag_rate: 0.0,
            ..Default::default()
        }
        .generate();
        assert!(gen.expected.is_empty());
        for c in &gen.constraints {
            let mut checker = IncrementalChecker::new(c.clone(), Arc::clone(&gen.catalog)).unwrap();
            for r in crate::run(&mut checker, &gen.transitions) {
                assert!(r.ok(), "spurious {} violation at {}", r.constraint, r.time);
            }
        }
    }
}
