//! The shared first-order evaluator.
//!
//! Evaluates a normalized, safe-range formula against one database state,
//! delegating every *temporal* subformula to an [`Oracle`]. The naive
//! checker's oracle recurses over the stored history; the incremental
//! checker's oracle reads the bounded auxiliary state. Sharing this
//! evaluator is what makes the differential oracle's diffs meaningful: the
//! two checkers differ *only* in how they answer temporal questions.

use std::sync::Arc;

use rtic_relation::{Database, Tuple, TupleMap};
use rtic_temporal::ast::{CmpOp, Formula, Term, Var};
use rtic_temporal::safety;

use crate::binding::Bindings;

/// A temporal node as the evaluators address it: its index among the
/// compiled constraint's nodes — resolved once, when a plan is built or
/// when the interpreter reaches the node, never per probed row — and the
/// subformula itself.
#[derive(Clone, Copy, Debug)]
pub struct Node<'a> {
    /// Index into `CompiledConstraint::nodes` (`usize::MAX` when the
    /// oracle keys nodes by formula instead).
    pub id: usize,
    /// The temporal subformula.
    pub formula: &'a Formula,
}

/// The keys whose verdict a window's last advance flipped: valid for a
/// consumer that saw the window at epoch `from` and now sees `epoch`.
/// `from` is `None` when the window rebuilt and cannot say what flipped.
#[derive(Clone, Copy, Debug)]
pub struct Flips<'a> {
    /// The window's current epoch (one per advance).
    pub epoch: u64,
    /// The epoch the flips lead from.
    pub from: Option<u64>,
    /// The flipped keys, over the node's sorted free variables.
    pub keys: &'a [Arc<Tuple>],
}

/// Answers temporal subformula queries at the evaluator's current state.
pub trait Oracle {
    /// The index of `node` for this oracle's [`Node::id`]; the default
    /// keys nodes by formula alone.
    fn node_id(&self, _node: &Formula) -> usize {
        usize::MAX
    }

    /// The finite extension (rows over the node's sorted free variables) of
    /// a `prev`/`once`/`since` node at the current state.
    fn extension(&self, node: Node<'_>) -> Bindings;

    /// Whether a `hist` node holds for `key` (the candidate's values for
    /// the node's sorted free variables) at the current state.
    fn hist_holds(&self, node: Node<'_>, key: &Tuple) -> bool;

    /// Membership probe into a generator node's extension — the *semijoin
    /// pushdown* path: when a node's variables are already bound by earlier
    /// conjuncts, the evaluator asks per candidate instead of materializing
    /// the whole extension, keeping step time independent of how many keys
    /// the auxiliary state has accumulated (crucial for unbounded
    /// intervals, whose aux relations grow with the active domain).
    ///
    /// The default materializes; implementations should override with an
    /// O(1)/O(log) probe.
    fn contains(&self, node: Node<'_>, key: &Tuple) -> bool {
        self.extension(node).contains(key)
    }

    /// The keys whose [`Oracle::contains`] verdict flipped at the node's
    /// last advance, so a probe can keep its input partitioned by verdict
    /// and move only those rows — O(|delta| + |flips|) per step instead
    /// of O(|input|). A window that only ever admits keys (`once[a,∞)`)
    /// is the case whose flips never revoke. The default, `None`, makes
    /// every probe re-test its whole input.
    fn flips(&self, _node: Node<'_>) -> Option<Flips<'_>> {
        None
    }
}

/// Evaluates `f` at `db`, extending `input` (candidate assignments for the
/// already-bound variables) with `f`'s remaining free variables.
///
/// Requires `f` normalized and safe under `input.vars()` (checked at
/// constraint-compile time); violations of that contract panic, they are
/// compiler bugs rather than user errors.
pub fn eval<O: Oracle + ?Sized>(
    f: &Formula,
    db: &Database,
    oracle: &O,
    input: &Bindings,
) -> Bindings {
    match f {
        Formula::True => input.clone(),
        Formula::False => Bindings::none(input.vars().iter().copied()),
        Formula::Atom { relation, terms } => {
            let rel = db
                .relation(*relation)
                .expect("atom over undeclared relation (typecheck bug)");
            input.join_atom(rel, terms)
        }
        Formula::Cmp(op, a, b) => eval_cmp(*op, a, b, input),
        Formula::Not(g) => {
            let gvars = g.sorted_free_vars();
            let candidates = input.project(&gvars);
            let sat = eval(g, db, oracle, &candidates);
            input.antijoin(&sat)
        }
        Formula::And(..) => {
            let conjuncts = safety::flatten_and(f);
            let pre = input.vars().iter().copied().collect();
            let order = safety::conjunct_order(&conjuncts, &pre)
                .expect("unsafe conjunction (safety-analysis bug)");
            let mut acc = input.clone();
            for i in order {
                acc = eval(conjuncts[i], db, oracle, &acc);
            }
            acc
        }
        Formula::Or(a, b) => {
            let ra = eval(a, db, oracle, input);
            let rb = eval(b, db, oracle, input);
            ra.union(&rb)
        }
        Formula::Exists(vs, g) => {
            // Compilation renames quantified variables apart, so `vs` never
            // collides with `input`'s variables.
            let inner = eval(g, db, oracle, input);
            inner.project_away(vs)
        }
        Formula::Prev(..) | Formula::Once(..) | Formula::Since(..) => {
            let node = Node {
                id: oracle.node_id(f),
                formula: f,
            };
            let node_vars = f.sorted_free_vars();
            let positions: Option<Vec<usize>> =
                node_vars.iter().map(|v| input.position(*v)).collect();
            match positions {
                // All node variables already bound: probe per candidate
                // (semijoin pushdown) instead of materializing.
                Some(pos) => input.filter(|row| oracle.contains(node, &row.project(&pos))),
                // The node generates fresh variables: join the extension.
                None => input.natural_join(&oracle.extension(node)),
            }
        }
        Formula::Hist(..) => {
            let node = Node {
                id: oracle.node_id(f),
                formula: f,
            };
            let node_vars = f.sorted_free_vars();
            let pos: Vec<usize> = node_vars
                .iter()
                .map(|v| input.position(*v).expect("unguarded hist (safety bug)"))
                .collect();
            input.filter(|row| oracle.hist_holds(node, &row.project(&pos)))
        }
        Formula::CountCmp {
            vars,
            body,
            op,
            threshold,
        } => {
            // Group the body's current extension by the aggregate's free
            // (outer) variables; each group's row count is the number of
            // distinct counted-variable assignments (rows are sets).
            let ext = eval(body, db, oracle, &Bindings::unit());
            let outer = f.sorted_free_vars();
            let outer_pos: Vec<usize> = outer
                .iter()
                .map(|v| ext.position(*v).expect("outer vars are free in the body"))
                .collect();
            let mut counts: TupleMap<i64> = TupleMap::default();
            for row in ext.rows() {
                *counts.entry(row.project(&outer_pos)).or_insert(0) += 1;
            }
            let threshold = rtic_relation::Value::Int(*threshold);
            let sat = |n: i64| op.eval(rtic_relation::Value::Int(n), threshold);
            let _ = vars; // counted vars are implicit in the grouping
            if sat(0) {
                // Filter: unseen groups (count 0) qualify, so the outer
                // variables must already be bound (safety guarantees it).
                let pos: Vec<usize> = outer
                    .iter()
                    .map(|v| input.position(*v).expect("unguarded count (safety bug)"))
                    .collect();
                input.filter(|row| sat(counts.get(&row.project(&pos)).copied().unwrap_or(0)))
            } else {
                // Generator: only groups present in the extension qualify.
                let rows = counts.into_iter().filter(|&(_, n)| sat(n)).map(|(k, _)| k);
                input.natural_join(&Bindings::from_rows(outer, rows))
            }
        }
        Formula::Implies(..) | Formula::Forall(..) => {
            panic!("un-normalized formula reached the evaluator (compile bug)")
        }
    }
}

fn eval_cmp(op: CmpOp, a: &Term, b: &Term, input: &Bindings) -> Bindings {
    let bound = |t: &Term| match t {
        Term::Const(_) => true,
        Term::Var(v) => input.position(*v).is_some(),
    };
    match (bound(a), bound(b)) {
        (true, true) => {
            input.filter(|row| op.eval(input.term_value(row, a), input.term_value(row, b)))
        }
        (true, false) => {
            let v = a_or_b_var(b);
            assert_eq!(op, CmpOp::Eq, "non-equality with unbound side (safety bug)");
            input.extend_with(v, |row| input.term_value(row, a))
        }
        (false, true) => {
            let v = a_or_b_var(a);
            assert_eq!(op, CmpOp::Eq, "non-equality with unbound side (safety bug)");
            input.extend_with(v, |row| input.term_value(row, b))
        }
        (false, false) => panic!("comparison with two unbound sides (safety bug)"),
    }
}

fn a_or_b_var(t: &Term) -> Var {
    match t {
        Term::Var(v) => *v,
        Term::Const(_) => unreachable!("constants are always bound"),
    }
}

/// An oracle for formulas with no temporal operators (errors on any
/// temporal query). Used for plain first-order evaluation and in tests.
pub struct NoTemporal;

impl Oracle for NoTemporal {
    fn extension(&self, node: Node<'_>) -> Bindings {
        panic!(
            "temporal subformula `{}` under the non-temporal oracle",
            node.formula
        )
    }

    fn hist_holds(&self, node: Node<'_>, _key: &Tuple) -> bool {
        panic!(
            "temporal subformula `{}` under the non-temporal oracle",
            node.formula
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{tuple, Catalog, Schema, Sort, Update};

    use rtic_temporal::normalize::normalize;
    use std::sync::Arc;

    fn db() -> Database {
        let catalog = Arc::new(
            Catalog::new()
                .with(
                    "emp",
                    Schema::of(&[("name", Sort::Str), ("dept", Sort::Str)]),
                )
                .unwrap()
                .with(
                    "mgr",
                    Schema::of(&[("dept", Sort::Str), ("boss", Sort::Str)]),
                )
                .unwrap()
                .with(
                    "sal",
                    Schema::of(&[("name", Sort::Str), ("amt", Sort::Int)]),
                )
                .unwrap(),
        );
        let mut db = Database::new(catalog);
        db.apply(
            &Update::new()
                .with_insert("emp", tuple!["ann", "eng"])
                .with_insert("emp", tuple!["bob", "eng"])
                .with_insert("emp", tuple!["cal", "ops"])
                .with_insert("mgr", tuple!["eng", "dot"])
                .with_insert("sal", tuple!["ann", 90])
                .with_insert("sal", tuple!["bob", 70])
                .with_insert("sal", tuple!["cal", 80]),
        )
        .unwrap();
        db
    }

    fn run(src: &str) -> Bindings {
        let f = normalize(&rtic_temporal::parser::parse_formula(src).unwrap());
        rtic_temporal::safety::check(&f).unwrap();
        eval(&f, &db(), &NoTemporal, &Bindings::unit())
    }

    #[test]
    fn atom_enumerates() {
        let r = run("emp(n, d)");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn join_through_shared_var() {
        let r = run("emp(n, d) && mgr(d, b)");
        assert_eq!(r.len(), 2, "only eng has a manager");
    }

    #[test]
    fn negation_filters() {
        let r = run("emp(n, d) && !mgr(d, b) && b = \"dot\"");
        // !mgr(d, "dot"-bound b): ops has no manager.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn exists_projects() {
        let r = run("exists n . emp(n, d)");
        assert_eq!(r.vars().len(), 1);
        assert_eq!(r.len(), 2, "two departments");
    }

    #[test]
    fn comparison_as_filter_and_generator() {
        let r = run("sal(n, a) && a >= 80");
        assert_eq!(r.len(), 2);
        let r = run("sal(n, a) && m = a && m > 85");
        assert_eq!(r.len(), 1, "m generated by equality then filtered");
    }

    #[test]
    fn disjunction_unions() {
        let r = run("emp(n, \"ops\") || sal(n, 90) && true");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn false_and_true_behave() {
        assert!(run("emp(n, d) && false").is_empty());
        assert_eq!(run("emp(n, d) && true").len(), 3);
    }

    #[test]
    fn closed_negation() {
        // No employee earns 1000.
        let r = run("emp(n, d) && !(exists m . sal(m, 1000))");
        assert_eq!(r.len(), 3);
        let r = run("emp(n, d) && !(exists m . sal(m, 90))");
        assert!(r.is_empty());
    }

    #[test]
    fn count_aggregate_generates_and_filters() {
        // Employees in departments with at least 2 members.
        let r = run("emp(n, d) && count m . (emp(m, d)) >= 2");
        assert_eq!(r.len(), 2, "ann and bob share eng");
        // Departments where nobody earns ≥ 100 (count = 0 qualifies → filter).
        let r = run("emp(n, d) && count m . (exists a . emp(m, d) && sal(m, a) && a >= 100) = 0");
        assert_eq!(r.len(), 3, "no one earns 100 anywhere");
        let r = run("emp(n, d) && count m . (exists a . emp(m, d) && sal(m, a) && a >= 80) = 0");
        assert_eq!(r.len(), 0, "every department has someone at 80+");
        // Closed count.
        let r = run("emp(n, d) && count m, e . (emp(m, e)) = 3");
        assert_eq!(r.len(), 3);
        let r = run("emp(n, d) && count m, e . (emp(m, e)) > 3");
        assert!(r.is_empty());
    }

    #[test]
    fn nullary_atoms_gate_like_booleans() {
        // A 0-ary relation acts as a boolean flag: empty = false.
        let catalog = Arc::new(
            Catalog::new()
                .with("alarm", Schema::empty())
                .unwrap()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        );
        let mut db = Database::new(catalog);
        db.apply(&Update::new().with_insert("p", tuple!["a"]))
            .unwrap();
        let f = normalize(&rtic_temporal::parser::parse_formula("p(x) && alarm()").unwrap());
        rtic_temporal::safety::check(&f).unwrap();
        let off = eval(&f, &db, &NoTemporal, &Bindings::unit());
        assert!(off.is_empty(), "alarm unset gates everything out");
        db.apply(&Update::new().with_insert("alarm", rtic_relation::Tuple::empty()))
            .unwrap();
        let on = eval(&f, &db, &NoTemporal, &Bindings::unit());
        assert_eq!(on.len(), 1);
    }

    #[test]
    fn empty_relation_atom_yields_empty() {
        let r = run("emp(n, d) && mgr(\"never\", b)");
        assert!(r.is_empty());
    }

    #[test]
    fn variable_to_variable_equality() {
        let r = run("emp(n, d) && mgr(d, b) && n = b");
        assert!(r.is_empty());
        let r = run("emp(n, d) && b = n && emp(b, d2)");
        assert_eq!(r.len(), 3);
    }
}
