//! # rtic-core — bounded history encoding for real-time integrity constraints
//!
//! The primary contribution of *Real-Time Integrity Constraints* (Chomicki,
//! PODS 1992): checking Past Metric Temporal Logic constraints over a
//! database history **incrementally**, storing only the current state plus
//! auxiliary relations whose size is bounded by the constraint's metric
//! bounds and the active domain — independent of history length.
//!
//! Four interchangeable [`Checker`] implementations, three of them here:
//!
//! * [`IncrementalChecker`] — the paper's bounded history encoding: a
//!   [`ConstraintSet`] of one, stepping the loop every fleet steps.
//! * [`NaiveChecker`] — stores the full history, re-evaluates from scratch
//!   (the semantics-defining baseline).
//! * [`WindowedChecker`] — stores only the formula's lookback horizon and
//!   evaluates naively over the window (the intermediate baseline).
//! * `ActiveChecker` (crate `rtic-active`) — the same encoding stored as
//!   database relations and advanced by triggers.
//!
//! All four produce identical [`StepReport`]s on identical input — this is
//! property-tested — and expose [`SpaceStats`] so the paper's space and
//! time claims can be measured (see `rtic-bench`).
//!
//! ```
//! use rtic_core::{Checker, IncrementalChecker};
//! use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
//! use rtic_temporal::parser::parse_constraint;
//! use rtic_temporal::TimePoint;
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(
//!     Catalog::new()
//!         .with("reserved", Schema::of(&[("p", Sort::Str)]))
//!         .unwrap()
//!         .with("confirmed", Schema::of(&[("p", Sort::Str)]))
//!         .unwrap(),
//! );
//! let c = parse_constraint(
//!     "deny unconfirmed: once[2,*] reserved(p) && reserved(p) && !once confirmed(p)",
//! )
//! .unwrap();
//! let mut checker = IncrementalChecker::new(c, catalog).unwrap();
//! checker
//!     .step(TimePoint(0), &Update::new().with_insert("reserved", tuple!["ann"]))
//!     .unwrap();
//! let report = checker.step(TimePoint(2), &Update::new()).unwrap();
//! assert_eq!(report.violation_count(), 1); // two ticks passed, never confirmed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod backend;
mod binding;
mod checker;
pub mod checkpoint;
mod compile;
pub mod encode;
mod error;
pub mod eval;
pub mod explain;
mod incremental;
mod monitor;
pub mod naive;
pub mod observe;
pub mod plan;
mod report;
mod set;
mod windowed;

pub use backend::BackendId;
pub use binding::{Bindings, Scratch};
pub use checker::Checker;
pub use compile::CompiledConstraint;
pub use error::CompileError;
pub use incremental::{EncodingOptions, IncrementalChecker, NodeStat, SleepBug};
pub use monitor::QueryMonitor;
pub use naive::NaiveChecker;
pub use observe::{NopObserver, StepEvent, StepObserver};
pub use plan::{
    EvalPlans, NodeCounters, NodeDesc, NodePlans, Plan, PlanProfile, PlanStats, ProfiledNode,
    RuntimePlanStats,
};
pub use report::{SpaceStats, StepReport};
pub use set::{ConstraintSet, DispatchStats, FleetHealth, ShardStats};
pub use windowed::WindowedChecker;
