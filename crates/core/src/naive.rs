//! The stored-history checker: keep past states, re-evaluate the
//! temporal formula over them at every state.
//!
//! This is the semantics-defining implementation: temporal operators are
//! evaluated by direct recursion over stored past states, transliterating
//! the satisfaction relation from the paper (see [`rtic_temporal::ast`]).
//! It comes in the paper's two baseline forms:
//!
//! * **naive** keeps the whole history, so its space and step time grow
//!   with history length — the comparison point for experiments T1/F1;
//! * **windowed** drops the states older than the constraint's lookback
//!   horizon: space is bounded (by the horizon, when finite) but each step
//!   still re-evaluates over every stored state. With an unbounded
//!   interval the horizon is infinite and nothing is pruned (no pruning is
//!   sound then), so this form degenerates into the naive one.

use std::cell::{Ref, RefCell};
use std::ops::Range;
use std::sync::Arc;

use rtic_history::{History, HistoryError};
use rtic_relation::{FastMap, Tuple, Update};
use rtic_temporal::ast::Formula;
use rtic_temporal::{Constraint, Horizon, Interval, TimePoint};

use crate::binding::{Bindings, Scratch};
use crate::checker::Checker;
use crate::compile::CompiledConstraint;
use crate::eval::{eval, Node, Oracle};
use crate::report::{SpaceStats, StepReport};

/// Stored-history, recompute-everything checker.
#[derive(Clone, Debug)]
pub struct NaiveChecker {
    compiled: CompiledConstraint,
    history: History,
    form: Form,
    scratch: Scratch,
}

/// How a [`NaiveChecker`] evaluates its body and what history it keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Form {
    /// The interpreting [`eval`] over the whole history.
    Interpreted,
    /// The compiled body plan over the whole history.
    Planned,
    /// The compiled body plan over the horizon's window.
    Windowed,
}

impl NaiveChecker {
    /// The naive checker: the whole history, the body through its
    /// compiled plan.
    pub fn from_compiled(compiled: CompiledConstraint) -> NaiveChecker {
        Self::with_form(compiled, Form::Planned)
    }

    /// The windowed checker: [`NaiveChecker::from_compiled`] over only the
    /// states the constraint's horizon can still reach.
    pub fn windowed(compiled: CompiledConstraint) -> NaiveChecker {
        Self::with_form(compiled, Form::Windowed)
    }

    /// The reference the differential oracle diffs every other checker
    /// against: the whole history, the body through the interpreting
    /// [`eval`]. Reports are byte-identical to the planned forms'.
    pub fn interpreted(compiled: CompiledConstraint) -> NaiveChecker {
        Self::with_form(compiled, Form::Interpreted)
    }

    fn with_form(compiled: CompiledConstraint, form: Form) -> NaiveChecker {
        let history = History::new(Arc::clone(&compiled.catalog));
        NaiveChecker {
            compiled,
            history,
            form,
            scratch: Scratch::new(),
        }
    }
}

impl Checker for NaiveChecker {
    fn constraint(&self) -> &Constraint {
        &self.compiled.constraint
    }

    fn step(&mut self, time: TimePoint, update: &Update) -> Result<StepReport, HistoryError> {
        self.history.append(time, update)?;
        if let (Form::Windowed, Horizon::Finite(h)) = (self.form, self.compiled.horizon) {
            // Keep states with age ≤ h: drop those with t < time − h. The
            // evaluation over the pruned window is exact because no
            // temporal operator can look past the horizon (and a pruned
            // `prev`-predecessor would have been age-gated out anyway).
            if let Some(cutoff) = time.minus(h) {
                self.history.prune_before(cutoff);
            }
        }
        let i = self.history.len() - 1;
        let (state, oracle) = (self.history.state(i), NaiveOracle::new(&self.history, i));
        let unit = Bindings::unit();
        // Temporal subformulas are answered by the interpreting recursion
        // (the oracle below) either way: the plan only replaces the
        // per-step first-order work.
        let violations = match self.form {
            Form::Interpreted => eval(&self.compiled.body, state, &oracle, &unit),
            Form::Planned | Form::Windowed => {
                let plan = &self.compiled.plans.body;
                plan.execute(state, &oracle, &unit, &mut self.scratch)
            }
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
        match self.form {
            Form::Windowed => "windowed",
            Form::Interpreted | Form::Planned => "naive",
        }
    }

    fn plan_stats(&self) -> Option<crate::plan::RuntimePlanStats> {
        if self.form == Form::Interpreted {
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

/// Evaluates `f` at position `i` of `history` by recursion under candidate
/// assignments `input`, returning the satisfying assignments over `f`'s
/// free variables.
fn eval_at(history: &History, i: usize, f: &Formula, input: &Bindings) -> Bindings {
    let oracle = NaiveOracle::new(history, i);
    eval(f, history.state(i), &oracle, input)
}

struct NaiveOracle<'h> {
    history: &'h History,
    i: usize,
    /// Per-evaluation memo of node extensions (a `hist` node's: the keys
    /// it holds for), so the semijoin-pushdown `contains` and `hist_holds`
    /// probes don't recompute the (expensive, history-scanning) extension
    /// once per candidate row.
    extensions: RefCell<FastMap<Formula, Bindings>>,
}

impl<'h> NaiveOracle<'h> {
    fn new(history: &'h History, i: usize) -> NaiveOracle<'h> {
        NaiveOracle {
            history,
            i,
            extensions: Default::default(),
        }
    }

    /// `node`'s extension, computed on first use; a probe reads it in
    /// place, without a clone per row.
    fn cached_extension(&self, node: &Formula) -> Ref<'_, Bindings> {
        if !self.extensions.borrow().contains_key(node) {
            let b = self.compute_extension(node);
            self.extensions.borrow_mut().insert(node.clone(), b);
        }
        Ref::map(self.extensions.borrow(), |cached| &cached[node])
    }

    /// The positions of the stored states whose age lies in `interval`.
    /// Ages grow towards older states, so those states are one run.
    fn window(&self, interval: Interval) -> Range<usize> {
        let (h, t_i) = (self.history, self.history.time(self.i));
        let (mut start, mut end) = (self.i + 1, 0);
        for j in (0..=self.i).rev() {
            let age = t_i.age_of(h.time(j));
            if !interval.hi().admits(age) {
                break; // older states only get older
            }
            if age >= interval.lo() {
                end = end.max(j + 1);
                start = j;
            }
        }
        start.min(end)..end
    }
}

impl Oracle for NaiveOracle<'_> {
    fn extension(&self, node: Node<'_>) -> Bindings {
        self.cached_extension(node.formula).clone()
    }

    fn contains(&self, node: Node<'_>, key: &Tuple) -> bool {
        self.cached_extension(node.formula).contains(key)
    }

    fn hist_holds(&self, node: Node<'_>, key: &Tuple) -> bool {
        let Formula::Hist(interval, _) = node.formula else {
            panic!("hist query for non-hist node `{}`", node.formula)
        };
        // With no stored state in its window, `hist` holds vacuously.
        self.window(*interval).is_empty() || self.contains(node, key)
    }
}

impl NaiveOracle<'_> {
    fn compute_extension(&self, node: &Formula) -> Bindings {
        let h = self.history;
        let t_i = h.time(self.i);
        let unit = Bindings::unit();
        match node {
            Formula::Prev(interval, g) => {
                if self.i == 0 {
                    return Bindings::none(node.sorted_free_vars());
                }
                let age = t_i.age_of(h.time(self.i - 1));
                if interval.contains(age) {
                    eval_at(h, self.i - 1, g, &unit)
                } else {
                    Bindings::none(node.sorted_free_vars())
                }
            }
            Formula::Once(interval, g) => {
                let mut result = Bindings::none(node.sorted_free_vars());
                for j in self.window(*interval).rev() {
                    result.union_in_place(&eval_at(h, j, g, &unit));
                }
                result
            }
            // The keys whose operand rows hold at every state of a non-empty
            // window (`hist_holds` answers the empty one): each state is
            // evaluated once, however many keys are probed.
            Formula::Hist(interval, g) => {
                let vars = node.sorted_free_vars();
                let mut keys: Option<Bindings> = None;
                for j in self.window(*interval).rev() {
                    let sat = eval_at(h, j, g, &unit).project(&vars);
                    let held = match keys {
                        Some(keys) => keys.semijoin(&sat),
                        None => sat,
                    };
                    let none_left = held.is_empty();
                    keys = Some(held);
                    if none_left {
                        break; // no key can hold at an older state either
                    }
                }
                keys.unwrap_or_else(|| Bindings::none(vars))
            }
            Formula::Since(interval, f, g) => {
                // ∃ j ≤ i: age(j) ∈ I, g at j, and f at every k with
                // j < k ≤ i — transliterated directly (quadratic, which is
                // the point of this baseline).
                let vars = node.sorted_free_vars();
                let mut result = Bindings::none(vars.clone());
                for j in self.window(*interval).rev() {
                    let mut anchors = eval_at(h, j, g, &unit).project(&vars);
                    for k in (j + 1)..=self.i {
                        if anchors.is_empty() {
                            break;
                        }
                        anchors = eval_at(h, k, f, &anchors).project(&vars);
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
    use rtic_relation::{tuple, Catalog, Schema, Sort};
    use rtic_temporal::parser::parse_constraint;
    use rtic_temporal::Duration;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("q", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        )
    }

    fn compiled(src: &str) -> CompiledConstraint {
        CompiledConstraint::compile(parse_constraint(src).unwrap(), catalog()).unwrap()
    }

    fn checker(src: &str) -> NaiveChecker {
        NaiveChecker::from_compiled(compiled(src))
    }

    fn windowed(src: &str) -> NaiveChecker {
        NaiveChecker::windowed(compiled(src))
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

    #[test]
    fn window_stays_bounded_for_finite_horizon() {
        let mut c = windowed("deny d: p(x) && once[0,3] q(x)");
        assert_eq!(c.compiled.horizon, Horizon::Finite(Duration(3)));
        for t in 0..100u64 {
            c.step(TimePoint(t), &Update::new()).unwrap();
            assert!(
                c.space().stored_states <= 4,
                "window of span 3 keeps ≤ 4 states"
            );
        }
    }

    #[test]
    fn unbounded_horizon_degenerates_to_naive() {
        let mut c = windowed("deny d: p(x) && once[2,*] q(x)");
        assert_eq!(c.compiled.horizon, Horizon::Unbounded);
        for t in 0..20u64 {
            c.step(TimePoint(t), &Update::new()).unwrap();
        }
        assert_eq!(c.space().stored_states, 20);
    }

    #[test]
    fn pruning_preserves_answers() {
        // once[0,2] q: a q-witness matters for exactly 2 ticks.
        let mut c = windowed("deny d: p(x) && once[0,2] q(x)");
        c.step(TimePoint(0), &Update::new().with_insert("q", tuple!["a"]))
            .unwrap();
        c.step(
            TimePoint(1),
            &Update::new()
                .with_insert("p", tuple!["a"])
                .with_delete("q", tuple!["a"]),
        )
        .unwrap();
        let r = c.step(TimePoint(2), &Update::new()).unwrap();
        assert_eq!(r.violation_count(), 1, "age 2 in window");
        let r = c.step(TimePoint(3), &Update::new()).unwrap();
        assert!(r.ok(), "witness expired with the window");
    }

    #[test]
    fn nested_horizons_add() {
        let c = windowed("deny d: p(x) && once[0,2] once[0,3] q(x)");
        assert_eq!(c.compiled.horizon, Horizon::Finite(Duration(5)));
    }

    #[test]
    fn each_form_names_itself_and_only_the_interpreted_one_has_no_plan() {
        let src = "deny d: p(x) && once[0,2] q(x)";
        let forms = [
            (checker(src), "naive", true),
            (windowed(src), "windowed", true),
            (NaiveChecker::interpreted(compiled(src)), "naive", false),
        ];
        for (c, name, planned) in forms {
            assert_eq!((c.name(), c.plan_stats().is_some()), (name, planned));
        }
    }
}
