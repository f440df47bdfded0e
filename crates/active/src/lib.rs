//! # rtic-active — trigger-based realization of the encoding
//!
//! Demonstrates that the bounded history encoding of
//! [`rtic-core`](rtic_core) is implementable *inside* a DBMS: the auxiliary
//! state lives in ordinary relations, maintained by ECA (event–condition–
//! action) rules fired on every commit, with a final detection rule raising
//! the violations. This mirrors the research line's companion
//! implementation route ("Implementing Temporal Integrity Constraints Using
//! an Active DBMS").
//!
//! [`ActiveChecker`] implements the same [`rtic_core::Checker`] interface
//! as the direct checkers and produces identical reports (the
//! differential oracle's `active` mode, `crates/oracle`); experiment T5
//! measures the constant-factor cost of going through relations.
//!
//! ```
//! use rtic_active::ActiveChecker;
//! use rtic_core::Checker;
//! use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
//! use rtic_temporal::parser::parse_constraint;
//! use rtic_temporal::TimePoint;
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(
//!     Catalog::new().with("req", Schema::of(&[("id", Sort::Int)])).unwrap(),
//! );
//! let c = parse_constraint("deny stuck: req(r) && once[4,*] req(r)").unwrap();
//! let mut triggers = ActiveChecker::new(c, catalog).unwrap();
//! // The installed ECA rules, as a DBA would review them:
//! for rule in triggers.rules() {
//!     assert!(rule.starts_with("ON commit"));
//! }
//! triggers
//!     .step(TimePoint(1), &Update::new().with_insert("req", tuple![9]))
//!     .unwrap();
//! let report = triggers.step(TimePoint(5), &Update::new()).unwrap();
//! assert_eq!(report.violation_count(), 1); // request 9 is 4 ticks old
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod engine;

pub use engine::ActiveChecker;
