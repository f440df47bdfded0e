//! The naive baseline checker: store the whole history, re-evaluate the
//! temporal formula from scratch at every state.
//!
//! This is the semantics-defining implementation: temporal operators are
//! evaluated by direct recursion over stored past states, transliterating
//! the satisfaction relation from the paper (see [`rtic_temporal::ast`]).
//! Its space grows linearly with history length and its step time grows
//! with it too — the comparison point for experiments T1/F1.

use std::sync::Arc;

use rtic_history::{History, HistoryError};
use rtic_relation::{Catalog, FastMap, Tuple, Update};
use rtic_temporal::ast::Formula;
use rtic_temporal::{Constraint, TimePoint};

use crate::binding::{Bindings, Scratch};
use crate::checker::Checker;
use crate::compile::CompiledConstraint;
use crate::error::CompileError;
use crate::eval::{eval, Node, Oracle};
use crate::report::{SpaceStats, StepReport};

/// Full-history, recompute-everything checker.
#[derive(Clone, Debug)]
pub struct NaiveChecker {
    compiled: CompiledConstraint,
    history: History,
    /// Evaluate the body through the interpreter instead of the compiled
    /// plan — the reference mode for the differential oracle.
    interpret: bool,
    scratch: Scratch,
}

impl NaiveChecker {
    /// Compiles and initializes a checker for `constraint`.
    pub fn new(
        constraint: Constraint,
        catalog: Arc<Catalog>,
    ) -> Result<NaiveChecker, CompileError> {
        let compiled = CompiledConstraint::compile(constraint, Arc::clone(&catalog))?;
        Ok(Self::from_compiled(compiled))
    }

    /// [`NaiveChecker::new`], evaluating the body through the interpreting
    /// [`eval`] instead of the compiled plan. This is the reference
    /// executor the differential oracle compares every planned backend
    /// against; reports are byte-identical either way.
    pub fn new_interpreted(
        constraint: Constraint,
        catalog: Arc<Catalog>,
    ) -> Result<NaiveChecker, CompileError> {
        let compiled = CompiledConstraint::compile(constraint, Arc::clone(&catalog))?;
        Ok(Self::from_compiled_interpreted(compiled))
    }

    /// Builds a checker from an already-compiled constraint.
    pub fn from_compiled(compiled: CompiledConstraint) -> NaiveChecker {
        let history = History::new(Arc::clone(&compiled.catalog));
        NaiveChecker {
            compiled,
            history,
            interpret: false,
            scratch: Scratch::new(),
        }
    }

    /// [`NaiveChecker::from_compiled`] in interpreting reference mode.
    pub fn from_compiled_interpreted(compiled: CompiledConstraint) -> NaiveChecker {
        NaiveChecker {
            interpret: true,
            ..Self::from_compiled(compiled)
        }
    }

    /// The stored history (grows without bound).
    pub fn history(&self) -> &History {
        &self.history
    }
}

impl Checker for NaiveChecker {
    fn constraint(&self) -> &Constraint {
        &self.compiled.constraint
    }

    fn step(&mut self, time: TimePoint, update: &Update) -> Result<StepReport, HistoryError> {
        self.history.append(time, update)?;
        let i = self.history.len() - 1;
        let violations = if self.interpret {
            eval_at(&self.history, i, &self.compiled.body)
        } else {
            eval_at_planned(&self.history, i, &self.compiled, &mut self.scratch)
        };
        Ok(self.compiled.report(time, violations))
    }

    fn space(&self) -> SpaceStats {
        SpaceStats {
            aux_keys: 0,
            aux_timestamps: self.history.len(), // one timestamp per stored state
            stored_states: self.history.len(),
            stored_tuples: self.history.total_stored_tuples(),
        }
    }

    fn name(&self) -> &'static str {
        "naive"
    }

    fn plan_stats(&self) -> Option<crate::plan::RuntimePlanStats> {
        if self.interpret {
            return None;
        }
        // Only the body plan runs here; the temporal recursion stays
        // interpreted, so node-operand plans are not counted.
        Some(crate::plan::RuntimePlanStats {
            plan: self.compiled.plans.body.stats(),
            scratch_high_water: self.scratch.high_water(),
            rows_copied: self.scratch.rows_copied(),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Evaluates `f` at position `i` of `history` by recursion, returning the
/// satisfying assignments over `f`'s free variables.
pub fn eval_at(history: &History, i: usize, f: &Formula) -> Bindings {
    let oracle = NaiveOracle::new(history, i);
    eval(f, history.state(i), &oracle, &Bindings::unit())
}

/// Evaluates `f` at position `i` under candidate assignments `input`.
pub fn eval_at_with(history: &History, i: usize, f: &Formula, input: &Bindings) -> Bindings {
    let oracle = NaiveOracle::new(history, i);
    eval(f, history.state(i), &oracle, input)
}

/// Evaluates `compiled`'s body at position `i` through its compiled plan.
/// Temporal subformulas are still answered by the interpreting recursion
/// (the oracle below) — the plan only replaces the per-step first-order
/// work, exactly as in the other checkers.
pub fn eval_at_planned(
    history: &History,
    i: usize,
    compiled: &CompiledConstraint,
    scratch: &mut Scratch,
) -> Bindings {
    let oracle = NaiveOracle::new(history, i);
    compiled
        .plans
        .body
        .execute(history.state(i), &oracle, &Bindings::unit(), scratch)
}

struct NaiveOracle<'h> {
    history: &'h History,
    i: usize,
    /// Per-evaluation memo of node extensions, so the semijoin-pushdown
    /// `contains` probes don't recompute the (expensive, history-scanning)
    /// extension once per candidate row.
    extensions: std::cell::RefCell<FastMap<Formula, Bindings>>,
}

impl<'h> NaiveOracle<'h> {
    fn new(history: &'h History, i: usize) -> NaiveOracle<'h> {
        NaiveOracle {
            history,
            i,
            extensions: Default::default(),
        }
    }

    fn cached_extension(&self, node: &Formula) -> Bindings {
        if let Some(b) = self.extensions.borrow().get(node) {
            return b.clone();
        }
        let b = self.compute_extension(node);
        self.extensions.borrow_mut().insert(node.clone(), b.clone());
        b
    }
}

impl Oracle for NaiveOracle<'_> {
    fn extension(&self, node: Node<'_>) -> Bindings {
        self.cached_extension(node.formula)
    }

    fn contains(&self, node: Node<'_>, key: &Tuple) -> bool {
        let node = node.formula;
        // Probe through the cache WITHOUT cloning the extension per row.
        if let Some(b) = self.extensions.borrow().get(node) {
            return b.contains(key);
        }
        let b = self.compute_extension(node);
        let hit = b.contains(key);
        self.extensions.borrow_mut().insert(node.clone(), b);
        hit
    }

    fn hist_holds(&self, node: Node<'_>, key: &Tuple) -> bool {
        let node = node.formula;
        let Formula::Hist(interval, g) = node else {
            panic!("hist query for non-hist node `{node}`")
        };
        let h = self.history;
        let t_i = h.time(self.i);
        let vars = node.sorted_free_vars();
        for j in (0..=self.i).rev() {
            let age = t_i.age_of(h.time(j));
            if !interval.hi().admits(age) {
                break;
            }
            if age >= interval.lo() {
                let sat = eval_at(h, j, g).project(&vars);
                if !sat.contains(key) {
                    return false;
                }
            }
        }
        true
    }
}

impl NaiveOracle<'_> {
    fn compute_extension(&self, node: &Formula) -> Bindings {
        let h = self.history;
        let t_i = h.time(self.i);
        match node {
            Formula::Prev(interval, g) => {
                if self.i == 0 {
                    return Bindings::none(node.sorted_free_vars());
                }
                let age = t_i.age_of(h.time(self.i - 1));
                if interval.contains(age) {
                    eval_at(h, self.i - 1, g)
                } else {
                    Bindings::none(node.sorted_free_vars())
                }
            }
            Formula::Once(interval, g) => {
                let mut result = Bindings::none(node.sorted_free_vars());
                for j in (0..=self.i).rev() {
                    let age = t_i.age_of(h.time(j));
                    if !interval.hi().admits(age) {
                        break; // even older states only get older
                    }
                    if age >= interval.lo() {
                        result.union_in_place(&eval_at(h, j, g));
                    }
                }
                result
            }
            Formula::Since(interval, f, g) => {
                // ∃ j ≤ i: age(j) ∈ I, g at j, and f at every k with
                // j < k ≤ i — transliterated directly (quadratic, which is
                // the point of this baseline).
                let vars = node.sorted_free_vars();
                let mut result = Bindings::none(vars.clone());
                for j in (0..=self.i).rev() {
                    let age = t_i.age_of(h.time(j));
                    if !interval.hi().admits(age) {
                        break; // older anchors only get older
                    }
                    if age < interval.lo() {
                        continue; // too recent to anchor, but keep scanning
                    }
                    let mut anchors = eval_at(h, j, g).project(&vars);
                    for k in (j + 1)..=self.i {
                        if anchors.is_empty() {
                            break;
                        }
                        anchors = eval_at_with(h, k, f, &anchors).project(&vars);
                    }
                    result.union_in_place(&anchors);
                }
                result
            }
            other => panic!("extension query for non-generator node `{other}`"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{tuple, Schema, Sort};
    use rtic_temporal::parser::parse_constraint;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("q", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        )
    }

    fn checker(src: &str) -> NaiveChecker {
        NaiveChecker::new(parse_constraint(src).unwrap(), catalog()).unwrap()
    }

    #[test]
    fn once_window_semantics() {
        let mut c = checker("deny d: p(x) && once[2,3] q(x)");
        c.step(TimePoint(0), &Update::new().with_insert("q", tuple!["a"]))
            .unwrap();
        c.step(
            TimePoint(1),
            &Update::new()
                .with_insert("p", tuple!["a"])
                .with_delete("q", tuple!["a"]),
        )
        .unwrap();
        // age of q-witness = 1: not yet in [2,3].
        assert!(
            c.step(TimePoint(1).0.into(), &Update::new()).is_err(),
            "monotonic"
        );
        let r = c.step(TimePoint(2), &Update::new()).unwrap();
        assert_eq!(r.violation_count(), 1, "age 2 hits the window");
        let r = c.step(TimePoint(3), &Update::new()).unwrap();
        assert_eq!(r.violation_count(), 1, "age 3 still in window");
        let r = c.step(TimePoint(4), &Update::new()).unwrap();
        assert!(r.ok(), "age 4 out of window");
    }

    #[test]
    fn since_requires_continuity() {
        let mut c = checker("deny d: p(x) since q(x)");
        // t0: q(a) anchors.
        let r = c
            .step(TimePoint(0), &Update::new().with_insert("q", tuple!["a"]))
            .unwrap();
        assert_eq!(
            r.violation_count(),
            1,
            "anchor state itself satisfies since"
        );
        // t1: p(a) holds → still satisfied.
        let r = c
            .step(
                TimePoint(1),
                &Update::new()
                    .with_insert("p", tuple!["a"])
                    .with_delete("q", tuple!["a"]),
            )
            .unwrap();
        assert_eq!(r.violation_count(), 1);
        // t2: p(a) gone → broken.
        let r = c
            .step(TimePoint(2), &Update::new().with_delete("p", tuple!["a"]))
            .unwrap();
        assert!(r.ok());
    }

    #[test]
    fn hist_filter_semantics() {
        // Tuples persist across states, so breaking hist requires deleting q.
        let mut c = checker("deny d: p(x) && hist[0,1] q(x)");
        c.step(TimePoint(0), &Update::new().with_insert("q", tuple!["a"]))
            .unwrap();
        let r = c
            .step(
                TimePoint(1),
                &Update::new()
                    .with_insert("p", tuple!["a"])
                    .with_delete("q", tuple!["a"]),
            )
            .unwrap();
        assert!(r.ok(), "q(a) failed at t=1 (age 0 in window)");
        let mut c2 = checker("deny d: p(x) && hist[0,1] q(x)");
        c2.step(TimePoint(0), &Update::new().with_insert("q", tuple!["a"]))
            .unwrap();
        let r = c2
            .step(TimePoint(1), &Update::new().with_insert("p", tuple!["a"]))
            .unwrap();
        assert_eq!(r.violation_count(), 1, "q covered both states in window");
    }

    #[test]
    fn space_grows_with_history() {
        let mut c = checker("deny d: p(x) && q(x)");
        c.step(TimePoint(0), &Update::new().with_insert("p", tuple!["a"]))
            .unwrap();
        let s1 = c.space();
        for t in 1..10u64 {
            c.step(TimePoint(t), &Update::new()).unwrap();
        }
        let s2 = c.space();
        assert!(s2.stored_states > s1.stored_states);
        assert!(s2.stored_tuples > s1.stored_tuples);
    }
}
