//! Online temporal *queries*: the checking machinery, read as answers
//! instead of violations.
//!
//! A denial constraint's violation witnesses are exactly the satisfying
//! assignments of its body — so the same bounded encoding that checks
//! constraints also answers standing Past MTL queries incrementally
//! ("which reservations were confirmed within 2 ticks of being made?").
//! [`QueryMonitor`] exposes that reading directly.
//!
//! ```
//! use rtic_core::QueryMonitor;
//! use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
//! use rtic_temporal::parser::parse_formula;
//! use rtic_temporal::TimePoint;
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(
//!     Catalog::new()
//!         .with("ping", Schema::of(&[("host", Sort::Str)]))
//!         .unwrap(),
//! );
//! let query = parse_formula("once[0,5] ping(h)").unwrap(); // hosts seen recently
//! let mut recent = QueryMonitor::new("recent_hosts", query, catalog).unwrap();
//! recent
//!     .step(TimePoint(1), &Update::new().with_insert("ping", tuple!["web1"]))
//!     .unwrap();
//! let answers = recent.step(TimePoint(4), &Update::new()).unwrap();
//! assert_eq!(answers.len(), 1); // web1's ping is 3 ticks old: still in [0,5]
//! ```

use std::sync::Arc;

use rtic_history::HistoryError;
use rtic_relation::{Catalog, Update};
use rtic_temporal::ast::{Formula, Var};
use rtic_temporal::{Constraint, TimePoint};

use crate::checker::Checker;
use crate::error::CompileError;
use crate::incremental::IncrementalChecker;
use crate::report::SpaceStats;
use crate::Bindings;

/// A standing temporal query, answered at every state.
#[derive(Clone, Debug)]
pub struct QueryMonitor {
    inner: IncrementalChecker,
}

impl QueryMonitor {
    /// Compiles `query` (a safe-range Past MTL formula; its free variables
    /// are the answer columns) against `catalog`.
    pub fn new(
        name: &str,
        query: Formula,
        catalog: Arc<Catalog>,
    ) -> Result<QueryMonitor, CompileError> {
        let inner = IncrementalChecker::new(Constraint::deny(name, query), catalog)?;
        Ok(QueryMonitor { inner })
    }

    /// The answer columns (the query's free variables, in name order).
    pub fn answer_vars(&self) -> Vec<Var> {
        self.inner.compiled().witness.vars.clone()
    }

    /// Advances to the new state and returns the assignments satisfying
    /// the query *at that state*.
    pub fn step(&mut self, time: TimePoint, update: &Update) -> Result<Bindings, HistoryError> {
        Ok(self.inner.step(time, update)?.violations)
    }

    /// What the monitor currently retains.
    pub fn space(&self) -> SpaceStats {
        self.inner.space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{tuple, Schema, Sort};
    use rtic_temporal::parser::parse_formula;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("reserved", Schema::of(&[("p", Sort::Str)]))
                .unwrap()
                .with("confirmed", Schema::of(&[("p", Sort::Str)]))
                .unwrap(),
        )
    }

    #[test]
    fn answers_track_the_query() {
        // Who confirmed within 2 ticks of (still) being reserved?
        let q = parse_formula("reserved(p) && once[0,2] confirmed(p)").unwrap();
        let mut m = QueryMonitor::new("prompt_confirmers", q, catalog()).unwrap();
        assert_eq!(m.answer_vars().len(), 1);
        let a = m
            .step(
                TimePoint(1),
                &Update::new().with_insert("reserved", tuple!["ann"]),
            )
            .unwrap();
        assert!(a.is_empty());
        let a = m
            .step(
                TimePoint(2),
                &Update::new().with_insert("confirmed", tuple!["ann"]),
            )
            .unwrap();
        assert_eq!(a.len(), 1);
        // The confirmation event ages out of the window.
        m.step(
            TimePoint(3),
            &Update::new().with_delete("confirmed", tuple!["ann"]),
        )
        .unwrap();
        m.step(TimePoint(4), &Update::new()).unwrap();
        let a = m.step(TimePoint(5), &Update::new()).unwrap();
        assert!(a.is_empty(), "confirmation older than 2 ticks");
    }

    #[test]
    fn unsafe_queries_are_rejected() {
        let q = parse_formula("!reserved(p)").unwrap();
        assert!(QueryMonitor::new("bad", q, catalog()).is_err());
    }

    #[test]
    fn closed_queries_answer_yes_no() {
        let q = parse_formula("exists p . reserved(p)").unwrap();
        let mut m = QueryMonitor::new("any_reservation", q, catalog()).unwrap();
        assert!(m.answer_vars().is_empty());
        let a = m.step(TimePoint(1), &Update::new()).unwrap();
        assert!(a.is_empty(), "no ⇒ zero rows");
        let a = m
            .step(
                TimePoint(2),
                &Update::new().with_insert("reserved", tuple!["x"]),
            )
            .unwrap();
        assert_eq!(a.len(), 1, "yes ⇒ the unit row");
    }
}
