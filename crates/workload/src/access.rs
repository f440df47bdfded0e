//! Access-control audit trails at production flavor: session staleness,
//! privileged-action gating, and approval trails for new grants.
//!
//! Relations:
//! * `session(u, s)` — held while session `s` of user `u` is open;
//! * `login(u, s)` — transient login event opening session `s`;
//! * `grant(u)` — held while user `u` holds elevated privileges;
//! * `approve(u)` — transient approval for granting `u`;
//! * `sudo(u, s)` — transient privileged action in session `s`.
//!
//! Constraints (session TTL `T`, approval window `A`):
//!
//! ```text
//! deny stale_session: session(u, s) && (session(u, s) since[T,*] login(u, s))
//! assert sudo_grant:  sudo(u, s) -> grant(u)
//! assert grant_trail: grant(u) && !(prev[1,1] grant(u)) -> once[0,A] approve(u)
//! ```
//!
//! `stale_session` is the paper's return-within-period shape applied to
//! session hygiene: a session still open `T` ticks after its login is
//! overdue for re-authentication, definite first at `login + T`.
//! `sudo_grant` is a pure-state gate, and `grant_trail` demands that the
//! tick a grant *appears* (true now, false at the previous state) lies
//! within `A` ticks of an approval. Honest sessions log out before the
//! TTL, honest sudo comes only from granted users, and honest grants
//! follow an approval within the window — a clean run is provably quiet.
//! Injected violations: a session held one tick past its TTL (fires once
//! at `login + T`), a sudo from an ungranted user, and a grant with no
//! approval on record.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Tuple, Update, Value};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

use crate::{Expected, Generated};

/// Parameters for the access-control workload.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Users in play (entity-key domain; scale to 10⁵–10⁶).
    pub users: usize,
    /// Honest logins started per step.
    pub events_per_step: usize,
    /// Session TTL `T`: a session open `T` ticks after login is stale.
    pub session_ttl: u64,
    /// Approval window `A` for new grants.
    pub approval_window: u64,
    /// Per-step probability of each injected violation kind (stale
    /// session, ungranted sudo, unapproved grant).
    pub violation_rate: f64,
    /// Per-step probability of an honest grant/revoke cycle starting.
    pub grant_rate: f64,
    /// Per-step probability that an open session runs a (granted) sudo.
    pub sudo_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Access {
    fn default() -> Access {
        Access {
            steps: 200,
            users: 64,
            events_per_step: 8,
            session_ttl: 8,
            approval_window: 3,
            violation_rate: 0.05,
            grant_rate: 0.2,
            sudo_rate: 0.3,
            seed: 42,
        }
    }
}

/// Per-user privilege lifecycle.
#[derive(Clone, Copy, PartialEq)]
enum Priv {
    None,
    /// Approved at the recorded tick; grant lands within the window.
    Approved {
        grant_at: u64,
    },
    Granted {
        revoke_at: u64,
    },
}

impl Access {
    /// The three constraints.
    pub fn constraint_texts(&self) -> [String; 3] {
        let t = self.session_ttl;
        let a = self.approval_window;
        [
            format!(
                "deny stale_session: session(u, s) && (session(u, s) since[{t},*] login(u, s))"
            ),
            "assert sudo_grant: sudo(u, s) -> grant(u)".to_string(),
            format!(
                "assert grant_trail: grant(u) && !(prev[1,1] grant(u)) -> once[0,{a}] approve(u)"
            ),
        ]
    }

    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        assert!(self.users >= 4, "need a few users to rotate through");
        assert!(self.session_ttl >= 2, "TTL must leave room for sessions");
        let catalog = Arc::new(
            Catalog::new()
                .with("session", Schema::of(&[("u", Sort::Str), ("s", Sort::Int)]))
                .expect("static workload schema")
                .with("login", Schema::of(&[("u", Sort::Str), ("s", Sort::Int)]))
                .expect("static workload schema")
                .with("grant", Schema::of(&[("u", Sort::Str)]))
                .expect("static workload schema")
                .with("approve", Schema::of(&[("u", Sort::Str)]))
                .expect("static workload schema")
                .with("sudo", Schema::of(&[("u", Sort::Str), ("s", Sort::Int)]))
                .expect("static workload schema"),
        );
        let constraints: Vec<Constraint> = self
            .constraint_texts()
            .iter()
            .map(|t| parse_constraint(t).expect("template parses"))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ttl = self.session_ttl;
        let mut transitions = Vec::with_capacity(self.steps);
        let mut expected = Vec::new();
        let mut next_session: i64 = 0;
        // Open sessions: (user, session id, logout tick). Stale-injected
        // sessions log out at login + T + 1, one tick past definite.
        let mut open: Vec<(u32, i64, u64)> = Vec::new();
        let mut privs: Vec<Priv> = vec![Priv::None; self.users];
        // Last approve tick per user (0 = never) — injected unapproved
        // grants must avoid users with an in-window approval on record.
        let mut last_approve: Vec<u64> = vec![0; self.users];
        let approve_p = (self.grant_rate * 8.0 / self.users as f64).min(1.0);
        let mut last_events: Vec<(&'static str, Tuple)> = Vec::new();
        for t in 1..=self.steps as u64 {
            let mut u = Update::new();
            for (rel, tuple) in last_events.drain(..) {
                u.delete(rel, tuple);
            }
            // Close expired sessions first so a user can re-login at the
            // same tick a prior session ends without overlap.
            open.retain(|&(user, sid, ends)| {
                if ends == t {
                    let name = format!("u{user}");
                    u.delete("session", tuple![name.as_str(), sid]);
                    false
                } else {
                    true
                }
            });
            // Honest logins: sessions that always log out before the TTL.
            for _ in 0..self.events_per_step {
                let user = rng.gen_range(0..self.users as u32);
                let name = format!("u{user}");
                let sid = next_session;
                next_session += 1;
                let row = tuple![name.as_str(), sid];
                u.insert("session", row.clone());
                u.insert("login", row.clone());
                last_events.push(("login", row));
                open.push((user, sid, t + rng.gen_range(1..ttl)));
            }
            // Injected stale session: held exactly one tick past the TTL,
            // so `stale_session` turns definite once, at t + T.
            if rng.gen_bool(self.violation_rate) && t + ttl <= self.steps as u64 {
                let user = rng.gen_range(0..self.users as u32);
                let name = format!("u{user}");
                let sid = next_session;
                next_session += 1;
                let row = tuple![name.as_str(), sid];
                u.insert("session", row.clone());
                u.insert("login", row.clone());
                last_events.push(("login", row));
                open.push((user, sid, t + ttl + 1));
                expected.push(Expected {
                    constraint: "stale_session".into(),
                    time: TimePoint(t + ttl),
                    witness: vec![("u", Value::str(&name)), ("s", Value::Int(sid))],
                });
            }
            // Honest privilege cycles: approve at t, grant inside the
            // window, revoke later.
            for (user, p) in privs.iter_mut().enumerate() {
                let name = format!("u{user}");
                match *p {
                    Priv::None if rng.gen_bool(approve_p) => {
                        let row = tuple![name.as_str()];
                        u.insert("approve", row.clone());
                        last_events.push(("approve", row));
                        last_approve[user] = t;
                        *p = Priv::Approved {
                            grant_at: t + rng.gen_range(0..=self.approval_window),
                        };
                    }
                    Priv::Approved { grant_at } if grant_at <= t => {
                        u.insert("grant", tuple![name.as_str()]);
                        *p = Priv::Granted {
                            revoke_at: t + rng.gen_range(2u64..=12),
                        };
                    }
                    Priv::Granted { revoke_at } if revoke_at == t => {
                        u.delete("grant", tuple![name.as_str()]);
                        *p = Priv::None;
                    }
                    _ => {}
                }
            }
            // Honest sudo: only from granted users with an open session.
            if rng.gen_bool(self.sudo_rate) {
                let pick = open.iter().find(|&&(user, _, _)| {
                    matches!(privs[user as usize], Priv::Granted { revoke_at } if revoke_at > t)
                });
                if let Some(&(user, sid, _)) = pick {
                    let name = format!("u{user}");
                    let row = tuple![name.as_str(), sid];
                    u.insert("sudo", row.clone());
                    last_events.push(("sudo", row));
                }
            }
            // Injected ungranted sudo: fires `sudo_grant` at this tick.
            let mut sudo_victim: Option<u32> = None;
            if rng.gen_bool(self.violation_rate) {
                let pick = open
                    .iter()
                    .find(|&&(user, _, _)| privs[user as usize] == Priv::None);
                if let Some(&(user, sid, _)) = pick {
                    let name = format!("u{user}");
                    let row = tuple![name.as_str(), sid];
                    u.insert("sudo", row.clone());
                    last_events.push(("sudo", row));
                    sudo_victim = Some(user);
                    expected.push(Expected {
                        constraint: "sudo_grant".into(),
                        time: TimePoint(t),
                        witness: vec![("u", Value::str(&name)), ("s", Value::Int(sid))],
                    });
                }
            }
            // Injected unapproved grant: no approval on record inside the
            // window (and not the user who just ran an ungranted sudo —
            // that would legalize the sudo), so `grant_trail` fires at the
            // grant tick. The user is revoked next tick.
            if rng.gen_bool(self.violation_rate) {
                let pick = (0..8).map(|_| rng.gen_range(0..self.users)).find(|&user| {
                    privs[user] == Priv::None
                        && sudo_victim != Some(user as u32)
                        && last_approve[user] + self.approval_window < t
                });
                if let Some(user) = pick {
                    let name = format!("u{user}");
                    u.insert("grant", tuple![name.as_str()]);
                    privs[user] = Priv::Granted { revoke_at: t + 1 };
                    expected.push(Expected {
                        constraint: "grant_trail".into(),
                        time: TimePoint(t),
                        witness: vec![("u", Value::str(&name))],
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
        let a = Access::default().generate();
        let b = Access::default().generate();
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn all_three_injected_violation_kinds_detected() {
        let gen = Access {
            steps: 200,
            violation_rate: 0.12,
            ..Default::default()
        }
        .generate();
        for kind in ["stale_session", "sudo_grant", "grant_trail"] {
            assert!(
                gen.expected.iter().any(|e| e.constraint.as_str() == kind),
                "no {kind} injected at this seed"
            );
        }
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
        let gen = Access {
            steps: 160,
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
    fn stale_session_fires_exactly_once_per_injection() {
        let gen = Access {
            steps: 200,
            violation_rate: 0.15,
            events_per_step: 2,
            sudo_rate: 0.0,
            grant_rate: 0.0,
            ..Default::default()
        }
        .generate();
        let stale = gen.constraints[0].clone();
        let mut checker = IncrementalChecker::new(stale, Arc::clone(&gen.catalog)).unwrap();
        let reports = crate::run(&mut checker, &gen.transitions);
        let fired: usize = reports.iter().map(|r| r.violation_count()).sum();
        let injected = gen
            .expected
            .iter()
            .filter(|e| e.constraint.as_str() == "stale_session")
            .count();
        assert_eq!(fired, injected, "one firing per injected stale session");
    }
}
