//! Constraint compilation: normalization, renaming, static checks, variable
//! ranks, and the temporal-subformula DAG shared by every checker.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

use rtic_relation::{Catalog, FastMap, Symbol, Tuple, Value};
use rtic_temporal::ast::{Formula, Var};
use rtic_temporal::normalize::{rank_vars, rename_apart};
use rtic_temporal::optimize::optimize;
use rtic_temporal::{analysis, safety, typecheck, Constraint, Horizon, TimePoint};

use crate::binding::Bindings;
use crate::error::CompileError;
use crate::plan::EvalPlans;
use crate::report::StepReport;

/// A constraint compiled into checkable form: the normalized,
/// variables-renamed-apart denial body, plus its temporal subformulas in
/// children-first order.
#[derive(Clone, Debug)]
pub struct CompiledConstraint {
    /// The source constraint.
    pub constraint: Constraint,
    /// The catalog the constraint was compiled against.
    pub catalog: Arc<Catalog>,
    /// Normalized, alpha-renamed denial body with its variables ranked
    /// ([`rank_vars`]); its satisfying assignments are the violation
    /// witnesses.
    pub body: Formula,
    /// `body` printed, once: the checkpoint's `body` line.
    pub body_text: String,
    /// Distinct temporal subformulas of `body` in post-order (every node's
    /// operands' temporal subformulas precede it) — the update order of the
    /// bounded encoding.
    pub nodes: Vec<Formula>,
    /// `nodes` index by subformula.
    pub node_ids: FastMap<Formula, usize>,
    /// The body's lookback horizon.
    pub horizon: Horizon,
    /// Relations the body reads — an update touching none of them cannot
    /// change the body's extension (relevance dispatch).
    pub relations: BTreeSet<Symbol>,
    /// Compiled evaluation plans: the body and every temporal node's
    /// operands lowered once, so stepping never re-derives conjunct orders,
    /// variable lists, or join shapes (see [`crate::plan`]).
    pub plans: EvalPlans,
    /// The body's free variables in name order: the columns of every
    /// report ([`CompiledConstraint::report`]).
    pub witness: NameOrder,
    /// Per temporal node, its keys in name order: the columns of its
    /// checkpoint rows.
    pub node_keys: Vec<NameOrder>,
}

impl CompiledConstraint {
    /// Compiles `constraint` against `catalog`: normalizes the denial body,
    /// renames quantified variables apart, applies the gap-safe peephole
    /// rewrites, sort-checks, runs the safety analysis, and extracts the
    /// temporal DAG.
    pub fn compile(
        constraint: Constraint,
        catalog: Arc<Catalog>,
    ) -> Result<CompiledConstraint, CompileError> {
        Self::compile_with(constraint, catalog, true)
    }

    /// [`CompiledConstraint::compile`] with the peephole optimizer
    /// switched off — what the differential oracle's naive reference
    /// compiles, so every diff against it also checks the rewrites.
    pub fn compile_unoptimized(
        constraint: Constraint,
        catalog: Arc<Catalog>,
    ) -> Result<CompiledConstraint, CompileError> {
        Self::compile_with(constraint, catalog, false)
    }

    fn compile_with(
        constraint: Constraint,
        catalog: Arc<Catalog>,
        peephole: bool,
    ) -> Result<CompiledConstraint, CompileError> {
        let mut body = rename_apart(&constraint.denial_body());
        if peephole {
            body = optimize(&body);
        }
        typecheck::typecheck(&body, &catalog)?;
        safety::check(&body)?;
        let body = rank_vars(&body);
        let mut nodes = Vec::new();
        let mut node_ids = FastMap::default();
        collect_temporal_postorder(&body, &mut nodes, &mut node_ids);
        let horizon = analysis::horizon(&body);
        let relations = body.relations();
        let plans = EvalPlans::build(&body, &nodes);
        let node_keys = nodes.iter().map(|n| NameOrder::of(&n.sorted_free_vars()));
        Ok(CompiledConstraint {
            witness: NameOrder::of(&body.sorted_free_vars()),
            node_keys: node_keys.collect(),
            constraint,
            catalog,
            body_text: body.to_string(),
            body,
            nodes,
            node_ids,
            horizon,
            relations,
            plans,
        })
    }

    /// The report of `violations` — rows over the body's free variables
    /// in rank order — at `time`: named columns, in name order.
    pub fn report(&self, time: TimePoint, violations: Bindings) -> StepReport {
        StepReport {
            constraint: self.constraint.name,
            time,
            violations: self.witness.bindings(violations),
        }
    }
}

/// A rank-ordered column list seen in name order, the order of every row
/// a report, explain plan or checkpoint shows. Computed once per
/// constraint, so stepping never compares names.
#[derive(Clone, Debug)]
pub struct NameOrder {
    /// The variables, unranked, in name order.
    pub vars: Vec<Var>,
    /// The rank-order column behind each name-order one; empty when the
    /// two orders agree.
    cols: Vec<usize>,
}

impl NameOrder {
    /// The name order of `vars`, a sorted (rank-order) column list.
    pub fn of(vars: &[Var]) -> NameOrder {
        // A handful of variables: each column's place is the number of
        // names before its own.
        let mut cols = vec![0; vars.len()];
        for (c, v) in vars.iter().enumerate() {
            cols[vars.iter().filter(|u| u.unranked() < v.unranked()).count()] = c;
        }
        let vars = cols.iter().map(|&c| vars[c].unranked()).collect();
        if cols.iter().enumerate().all(|(i, &c)| i == c) {
            cols.clear();
        }
        NameOrder { vars, cols }
    }

    /// The rank-order column behind each name-order one.
    pub fn columns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.vars.len()).map(|i| self.cols.get(i).map_or(i, |&c| c))
    }

    /// A rank-order row's values in name order.
    pub fn values<'t>(&'t self, row: &'t Tuple) -> impl Iterator<Item = Value> + 't {
        self.columns().map(|c| row[c])
    }

    /// Rank-order rows compared in name order.
    pub fn cmp(&self, a: &Tuple, b: &Tuple) -> Ordering {
        self.values(a).cmp(self.values(b))
    }

    /// A name-order row (a checkpoint's) in rank order; one of another
    /// arity than the columns' is left as it is.
    pub fn ranked(&self, row: &[Value]) -> Tuple {
        if self.cols.len() != row.len() {
            return Tuple::new(row.iter().copied());
        }
        let at = |c: usize| self.cols.iter().position(|&x| x == c).unwrap_or(c);
        (0..row.len()).map(|c| row[at(c)]).collect()
    }

    /// Rank-order rows as named columns in name order — O(1) when the two
    /// orders agree, a copy of the rows when they do not.
    pub fn bindings(&self, rows: Bindings) -> Bindings {
        rows.permuted(self.vars.clone(), &self.cols)
    }
}

/// Appends `f`'s temporal subformulas to `nodes` in post-order, deduplicating
/// structurally equal nodes (equal subformulas share auxiliary state).
fn collect_temporal_postorder(
    f: &Formula,
    nodes: &mut Vec<Formula>,
    ids: &mut FastMap<Formula, usize>,
) {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => {}
        Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => {
            collect_temporal_postorder(g, nodes, ids)
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            collect_temporal_postorder(a, nodes, ids);
            collect_temporal_postorder(b, nodes, ids);
        }
        Formula::Prev(_, g) | Formula::Once(_, g) | Formula::Hist(_, g) => {
            collect_temporal_postorder(g, nodes, ids);
            insert_node(f, nodes, ids);
        }
        Formula::Since(_, a, b) => {
            collect_temporal_postorder(a, nodes, ids);
            collect_temporal_postorder(b, nodes, ids);
            insert_node(f, nodes, ids);
        }
        Formula::CountCmp { body, .. } => collect_temporal_postorder(body, nodes, ids),
    }
}

fn insert_node(f: &Formula, nodes: &mut Vec<Formula>, ids: &mut FastMap<Formula, usize>) {
    if !ids.contains_key(f) {
        ids.insert(f.clone(), nodes.len());
        nodes.push(f.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{Schema, Sort};
    use rtic_temporal::parser::parse_constraint;
    use rtic_temporal::Interval;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with(
                    "reserved",
                    Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]),
                )
                .unwrap()
                .with(
                    "confirmed",
                    Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]),
                )
                .unwrap(),
        )
    }

    fn compile(src: &str) -> Result<CompiledConstraint, CompileError> {
        CompiledConstraint::compile(parse_constraint(src).unwrap(), catalog())
    }

    #[test]
    fn compiles_the_motivating_constraint() {
        let c = compile(
            "deny unconfirmed: once[2,*] reserved(p, f) && reserved(p, f) \
             && !once[0,*] confirmed(p, f)",
        )
        .unwrap();
        assert_eq!(c.nodes.len(), 2);
        assert_eq!(c.horizon, Horizon::Unbounded);
        assert_eq!(c.relations.len(), 2);
        assert!(c.relations.contains(&Symbol::from("reserved")));
        assert!(c.relations.contains(&Symbol::from("confirmed")));
    }

    #[test]
    fn nodes_are_postorder() {
        let c = compile("deny nested: once[0,2] once[0,3] reserved(p, f)").unwrap();
        assert_eq!(c.nodes.len(), 2);
        // Inner node (smaller) first.
        assert!(c.nodes[0].size() < c.nodes[1].size());
        if let Formula::Once(i, inner) = &c.nodes[1] {
            assert_eq!(*i, Interval::up_to(2));
            assert_eq!(**inner, c.nodes[0]);
        } else {
            panic!("expected once at the root node");
        }
    }

    #[test]
    fn duplicate_subformulas_share_a_node() {
        let c = compile("deny dup: once[0,2] reserved(p, f) && once[0,2] reserved(p, f)").unwrap();
        assert_eq!(c.nodes.len(), 1);
    }

    #[test]
    fn type_errors_surface() {
        let e = compile("deny bad: reserved(p)").unwrap_err();
        assert!(matches!(e, CompileError::Type(_)));
    }

    #[test]
    fn safety_errors_surface() {
        let e = compile("deny bad: !reserved(p, f)").unwrap_err();
        assert!(matches!(e, CompileError::Safety(_)));
    }

    #[test]
    fn assert_mode_checks_the_negation() {
        // assert reserved->confirmed == deny reserved && !confirmed.
        let c = compile("assert conf: reserved(p, f) -> once confirmed(p, f)").unwrap();
        assert_eq!(c.nodes.len(), 1);
        safety::check(&c.body).unwrap();
    }

    #[test]
    fn since_node_collected_with_operand_children() {
        let c = compile("deny s: (once[0,1] reserved(p, f)) since[0,9] confirmed(p, f)").unwrap();
        assert_eq!(c.nodes.len(), 2);
        assert!(matches!(c.nodes[0], Formula::Once(..)));
        assert!(matches!(c.nodes[1], Formula::Since(..)));
    }

    /// The accepted language is the optimized compile's. The peephole
    /// rewrite collapses `hist hist` into `hist` before the safe-range
    /// check, so `p(x) && hist hist q(x)` compiles while the unoptimized
    /// compile (the oracle's naive reference, which then falls back to the
    /// optimized one) refuses it; a bounded `hist[a,b] hist` does not
    /// collapse, and both compiles refuse it.
    #[test]
    fn safe_range_verdicts_of_the_optimized_and_unoptimized_compiles() {
        let catalog = Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("q", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        );
        let verdicts = |body: &str| {
            let c = parse_constraint(&format!("deny d: p(x) && {body}")).unwrap();
            let unsafe_range = |r: Result<_, CompileError>| match r {
                Ok(_) => false,
                Err(CompileError::Safety(_)) => true,
                Err(e) => panic!("`{body}`: {e}"),
            };
            let cat = || Arc::clone(&catalog);
            (
                unsafe_range(CompiledConstraint::compile(c.clone(), cat())),
                unsafe_range(CompiledConstraint::compile_unoptimized(c, cat())),
            )
        };
        assert_eq!(verdicts("hist hist q(x)"), (false, true));
        for body in ["hist[0,3] hist q(x)", "hist[2,2] hist q(x)"] {
            assert_eq!(verdicts(body), (true, true), "`{body}`");
        }
    }
}
