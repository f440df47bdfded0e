//! # rtic-workload — deterministic workload generators
//!
//! Drives the examples, tests and experiments with the paper-styled
//! domain scenarios, a production scenario library, and a parameterized
//! random workload for scaling sweeps:
//!
//! * [`Reservations`] — confirm-within-deadline (`once` with a bounded
//!   window, negated `once`);
//! * [`Library`] — return-within-period (`since` with an unbounded bound);
//! * [`Monitor`] — acknowledge-within-window and no-spike
//!   (`hist` + `prev` + order comparisons);
//! * [`RandomWorkload`] — uniform random churn with tunable domain, update
//!   size, and metric bound;
//! * [`Audit`] — transaction auditing (assert-mode constraints, `exists`
//!   under negation over a temporal operator).
//!
//! The production library (see `docs/SCENARIOS.md` in the repository)
//! scales to 10⁵–10⁶ entity keys:
//!
//! * [`Fraud`] — fraud/AML monitoring: structuring bursts via a windowed
//!   `count` aggregate plus large-transfer screening;
//! * [`Telemetry`] — IoT heartbeat-liveness and delivery-freshness SLAs
//!   over churning device sessions;
//! * [`RateLimit`] — consecutive-tick hammering and a banned-client gate;
//! * [`Access`] — session TTLs, sudo gating, and approval trails.
//!
//! All of them are enumerable by name through the [`library`] registry
//! (`library::all()`, `library::find(name)`), which the CLI, the bench
//! recorder, and the oracle's golden corpus share.
//!
//! Every generator is deterministic given its parameters (seeded
//! [`rand::rngs::StdRng`]), emits transitions one tick apart, and records
//! the violations it *injects* as [`Expected`] witnesses: a violation is
//! expected at the first state where it becomes definite (e.g. the
//! deadline), which the T4 experiment asserts the checkers report exactly.
//!
//! ```
//! use rtic_core::{Checker, IncrementalChecker};
//! use rtic_workload::Reservations;
//! use std::sync::Arc;
//!
//! let generated = Reservations { steps: 60, violation_rate: 0.2, ..Default::default() }
//!     .generate();
//! let mut checker = IncrementalChecker::new(
//!     generated.constraints[0].clone(),
//!     Arc::clone(&generated.catalog),
//! )
//! .unwrap();
//! let reports: Vec<_> = (generated.transitions.iter())
//!     .map(|t| checker.step(t.time, &t.update).unwrap())
//!     .collect();
//! // Every injected violation is reported at its deadline state.
//! for expected in &generated.expected {
//!     assert!(reports.iter().any(|r| expected.found_in(r)));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod access;
mod audit;
mod expected;
mod fraud;
pub mod library;
mod loans;
mod monitor;
mod random;
mod ratelimit;
mod reservations;
mod telemetry;

use std::sync::Arc;

use rtic_history::Transition;
use rtic_relation::Catalog;
use rtic_temporal::Constraint;

pub use access::Access;
pub use audit::Audit;
pub use expected::Expected;
pub use fraud::Fraud;
pub use library::{Scenario, ScenarioParams};
pub use loans::Library;
pub use monitor::Monitor;
pub use random::RandomWorkload;
pub use ratelimit::RateLimit;
pub use reservations::Reservations;
pub use telemetry::Telemetry;

/// A generated workload: schema, constraints, the transition stream, and
/// the injected violations' expected detections.
#[derive(Clone, Debug)]
pub struct Generated {
    /// Relation schemas the transitions use.
    pub catalog: Arc<Catalog>,
    /// The constraints this workload is checked against.
    pub constraints: Vec<Constraint>,
    /// The transition stream, timestamps strictly increasing.
    pub transitions: Vec<Transition>,
    /// Injected violations, each at its first-definite state.
    pub expected: Vec<Expected>,
}

/// Steps `checker` through `transitions`, collecting its reports.
#[cfg(test)]
fn run(checker: &mut dyn rtic_core::Checker, ts: &[Transition]) -> Vec<rtic_core::StepReport> {
    let step = |t: &Transition| checker.step(t.time, &t.update).unwrap();
    ts.iter().map(step).collect()
}
