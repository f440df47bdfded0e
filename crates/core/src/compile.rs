//! Constraint compilation: normalization, renaming, static checks, and the
//! temporal-subformula DAG shared by every checker.

use std::collections::BTreeSet;
use std::sync::Arc;

use rtic_relation::{Catalog, FastMap, Symbol};
use rtic_temporal::ast::Formula;
use rtic_temporal::normalize::rename_apart;
use rtic_temporal::optimize::optimize;
use rtic_temporal::{analysis, safety, typecheck, Constraint, Horizon};

use crate::error::CompileError;
use crate::plan::EvalPlans;

/// A constraint compiled into checkable form: the normalized,
/// variables-renamed-apart denial body, plus its temporal subformulas in
/// children-first order.
#[derive(Clone, Debug)]
pub struct CompiledConstraint {
    /// The source constraint.
    pub constraint: Constraint,
    /// The catalog the constraint was compiled against.
    pub catalog: Arc<Catalog>,
    /// Normalized, alpha-renamed denial body; its satisfying assignments
    /// are the violation witnesses.
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
    /// switched off — used by the optimizer-equivalence property tests.
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
        let mut nodes = Vec::new();
        let mut node_ids = FastMap::default();
        collect_temporal_postorder(&body, &mut nodes, &mut node_ids);
        let horizon = analysis::horizon(&body);
        let relations = analysis::touched_relations(&body);
        let plans = EvalPlans::build(&body, &nodes);
        Ok(CompiledConstraint {
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
}
