//! Abstract syntax of Past Metric Temporal Logic (Past MTL).
//!
//! Formulas are first-order logic over database atoms and comparisons,
//! extended with the four metric past operators of the paper:
//! `prev[I]`, `once[I]`, `hist[I]` and binary `since[I]`.
//!
//! # Semantics
//!
//! Over a history `ρ = (D_0,t_0) … (D_n,t_n)` with strictly increasing
//! timestamps, at position `i` under valuation `ν`:
//!
//! * `R(u̅)` — `ν(u̅) ∈ D_i(R)`.
//! * Boolean connectives and comparisons as usual; quantifiers range over
//!   the (infinite) domain, which is why constraints must be *safe-range*
//!   (see [`crate::safety`]).
//! * `prev[I] f` — `i > 0`, `t_i − t_{i−1} ∈ I`, and `f` holds at `i−1`.
//! * `once[I] f` — ∃ `j ≤ i` with `t_i − t_j ∈ I` and `f` at `j`.
//! * `hist[I] f` — ∀ `j ≤ i` with `t_i − t_j ∈ I`, `f` at `j`.
//! * `f since[I] g` — ∃ `j ≤ i` with `t_i − t_j ∈ I`, `g` at `j`, and `f`
//!   at every `k` with `j < k ≤ i`.
//!
//! Note `once[I] f ≡ true since[I] f` and, at `I = [0,∞]`, these are the
//! classical (non-metric) past operators.

use std::collections::BTreeSet;
use std::fmt;

use rtic_relation::{Symbol, Value};

use crate::time::Interval;

/// A logic variable: a name and, once its constraint is compiled, a rank.
///
/// `Ord` compares ranks first — an integer compare, no symbol-table lock —
/// and names only between variables of equal rank. Compiling a constraint
/// ranks its variables by first occurrence
/// ([`crate::normalize::rank_vars`]), so the engine's columns follow
/// rank; unranked variables (parsed, not compiled) sort by name. Name
/// order governs user-visible output only: reports, explain plans and
/// checkpoints map a compiled constraint's columns back to it, so they
/// are stable across processes and independent of interning order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Var {
    name: Symbol,
    rank: u32,
}

/// The rank of a variable no compilation has ranked: after every ranked
/// one.
const UNRANKED: u32 = u32::MAX;

impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Var) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Var {
    fn cmp(&self, other: &Var) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank).then_with(|| {
            if self.name == other.name {
                std::cmp::Ordering::Equal
            } else {
                self.name.as_str().cmp(other.name.as_str())
            }
        })
    }
}

impl Var {
    /// An unranked variable named `name`.
    pub fn new(name: impl Into<Symbol>) -> Var {
        Var {
            name: name.into(),
            rank: UNRANKED,
        }
    }

    /// The variable's name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// This variable ranked `rank` among its constraint's.
    pub fn ranked(self, rank: u32) -> Var {
        Var { rank, ..self }
    }

    /// This variable unranked: what it is called at the output boundary.
    pub fn unranked(self) -> Var {
        Var::new(self.name)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

/// Shorthand for [`Var::new`].
pub fn var(name: &str) -> Var {
    Var::new(name)
}

/// A term: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A variable occurrence.
    Var(Var),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<Symbol>) -> Term {
        Term::Var(Var::new(name))
    }

    /// An integer constant.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// A string constant.
    pub fn str(s: &str) -> Term {
        Term::Const(Value::str(s))
    }

    /// The variable, if this is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => c.write_literal(f),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

impl From<i64> for Term {
    fn from(i: i64) -> Term {
        Term::int(i)
    }
}

impl From<&str> for Term {
    /// Bare strings become *variables*; use [`Term::str`] for string
    /// constants (mirroring the concrete syntax, where constants are
    /// quoted).
    fn from(s: &str) -> Term {
        Term::var(s)
    }
}

/// A comparison operator. Order operators apply to integers only (enforced
/// by [`crate::typecheck`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on concrete values. Order comparisons on
    /// non-integers return `false` (the type checker rejects them earlier).
    pub fn eval(self, a: Value, b: Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => match self {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Eq | CmpOp::Ne => unreachable!(),
                },
                _ => false,
            },
        }
    }

    /// The operator with its arguments swapped (`<` ↦ `>` etc.).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The negated operator (`<` ↦ `>=` etc.).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A Past MTL formula.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The always-true formula.
    True,
    /// The always-false formula.
    False,
    /// A database atom `R(u̅)`.
    Atom {
        /// Relation name.
        relation: Symbol,
        /// Argument terms (arity checked against the catalog).
        terms: Vec<Term>,
    },
    /// A comparison `u ⊙ v`.
    Cmp(CmpOp, Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication (sugar; normalized away).
    Implies(Box<Formula>, Box<Formula>),
    /// Existential quantification.
    Exists(Vec<Var>, Box<Formula>),
    /// Universal quantification (sugar; normalized away).
    Forall(Vec<Var>, Box<Formula>),
    /// `prev[I] f`.
    Prev(Interval, Box<Formula>),
    /// `once[I] f`.
    Once(Interval, Box<Formula>),
    /// `hist[I] f`.
    Hist(Interval, Box<Formula>),
    /// `f since[I] g` — first operand is the *maintained* formula `f`,
    /// second the *anchor* formula `g`.
    Since(Interval, Box<Formula>, Box<Formula>),
    /// A counting aggregate `count x̄ . (body) ⊙ n`: the number of distinct
    /// assignments to `x̄` satisfying `body` *at the current state*,
    /// compared against the integer constant `n`. The aggregate itself is
    /// not temporal (it reads the current state), but `body` may freely
    /// contain temporal subformulas. An extension beyond the PODS'92
    /// operator set (aggregates are the research line's stated follow-up).
    CountCmp {
        /// The counted (bound) variables.
        vars: Vec<Var>,
        /// The counted formula.
        body: Box<Formula>,
        /// The comparison applied to the count.
        op: CmpOp,
        /// The constant threshold.
        threshold: i64,
    },
}

impl Formula {
    /// An atom `relation(terms…)`.
    pub fn atom(relation: impl Into<Symbol>, terms: impl IntoIterator<Item = Term>) -> Formula {
        Formula::Atom {
            relation: relation.into(),
            terms: terms.into_iter().collect(),
        }
    }

    /// A comparison.
    pub fn cmp(op: CmpOp, lhs: impl Into<Term>, rhs: impl Into<Term>) -> Formula {
        Formula::Cmp(op, lhs.into(), rhs.into())
    }

    /// Equality `lhs = rhs`.
    pub fn eq(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Formula {
        Formula::cmp(CmpOp::Eq, lhs, rhs)
    }

    /// Negation `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Conjunction `self && rhs`.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction `self || rhs`.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// Implication `self -> rhs`.
    pub fn implies(self, rhs: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(rhs))
    }

    /// `exists vars . self`.
    pub fn exists(self, vars: impl IntoIterator<Item = Var>) -> Formula {
        Formula::Exists(vars.into_iter().collect(), Box::new(self))
    }

    /// `forall vars . self`.
    pub fn forall(self, vars: impl IntoIterator<Item = Var>) -> Formula {
        Formula::Forall(vars.into_iter().collect(), Box::new(self))
    }

    /// `prev[i] self`.
    pub fn prev(self, i: Interval) -> Formula {
        Formula::Prev(i, Box::new(self))
    }

    /// `once[i] self`.
    pub fn once(self, i: Interval) -> Formula {
        Formula::Once(i, Box::new(self))
    }

    /// `hist[i] self`.
    pub fn hist(self, i: Interval) -> Formula {
        Formula::Hist(i, Box::new(self))
    }

    /// `self since[i] anchor`.
    pub fn since(self, i: Interval, anchor: Formula) -> Formula {
        Formula::Since(i, Box::new(self), Box::new(anchor))
    }

    /// `count vars . (self) op threshold`.
    pub fn count_cmp(
        self,
        vars: impl IntoIterator<Item = Var>,
        op: CmpOp,
        threshold: i64,
    ) -> Formula {
        Formula::CountCmp {
            vars: vars.into_iter().collect(),
            body: Box::new(self),
            op,
            threshold,
        }
    }

    /// The set of free variables.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        fn go(f: &Formula, bound: &mut Vec<Var>, out: &mut BTreeSet<Var>) {
            match f {
                Formula::True | Formula::False => {}
                Formula::Atom { terms, .. } => {
                    for t in terms {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                out.insert(*v);
                            }
                        }
                    }
                }
                Formula::Cmp(_, a, b) => {
                    for t in [a, b] {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                out.insert(*v);
                            }
                        }
                    }
                }
                Formula::Not(g)
                | Formula::Prev(_, g)
                | Formula::Once(_, g)
                | Formula::Hist(_, g) => go(g, bound, out),
                Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Formula::Since(_, a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                    let n = bound.len();
                    bound.extend(vs.iter().copied());
                    go(g, bound, out);
                    bound.truncate(n);
                }
                Formula::CountCmp { vars, body, .. } => {
                    let n = bound.len();
                    bound.extend(vars.iter().copied());
                    go(body, bound, out);
                    bound.truncate(n);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// The free variables as a list in [`Var`] order: a compiled
    /// formula's columns (rank order), any other's in name order.
    pub fn sorted_free_vars(&self) -> Vec<Var> {
        self.free_vars().into_iter().collect()
    }

    /// `self` with every variable — in terms and in binder lists — replaced
    /// by `f` of it, visited in pre-order, left to right.
    pub fn map_vars(&self, f: &mut dyn FnMut(Var) -> Var) -> Formula {
        let term = |t: &Term, f: &mut dyn FnMut(Var) -> Var| match t {
            Term::Var(v) => Term::Var(f(*v)),
            c => *c,
        };
        let boxed = |g: &Formula, f: &mut dyn FnMut(Var) -> Var| Box::new(g.map_vars(f));
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom { relation, terms } => Formula::Atom {
                relation: *relation,
                terms: terms.iter().map(|t| term(t, f)).collect(),
            },
            Formula::Cmp(op, a, b) => Formula::Cmp(*op, term(a, f), term(b, f)),
            Formula::Not(g) => Formula::Not(boxed(g, f)),
            Formula::And(a, b) => Formula::And(boxed(a, f), boxed(b, f)),
            Formula::Or(a, b) => Formula::Or(boxed(a, f), boxed(b, f)),
            Formula::Implies(a, b) => Formula::Implies(boxed(a, f), boxed(b, f)),
            Formula::Exists(vs, g) => {
                Formula::Exists(vs.iter().map(|v| f(*v)).collect(), boxed(g, f))
            }
            Formula::Forall(vs, g) => {
                Formula::Forall(vs.iter().map(|v| f(*v)).collect(), boxed(g, f))
            }
            Formula::Prev(i, g) => Formula::Prev(*i, boxed(g, f)),
            Formula::Once(i, g) => Formula::Once(*i, boxed(g, f)),
            Formula::Hist(i, g) => Formula::Hist(*i, boxed(g, f)),
            Formula::Since(i, a, b) => Formula::Since(*i, boxed(a, f), boxed(b, f)),
            Formula::CountCmp {
                vars,
                body,
                op,
                threshold,
            } => Formula::CountCmp {
                vars: vars.iter().map(|v| f(*v)).collect(),
                body: boxed(body, f),
                op: *op,
                threshold: *threshold,
            },
        }
    }

    /// The metric interval of a temporal operator at the root, if any.
    pub fn interval(&self) -> Option<Interval> {
        match self {
            Formula::Prev(i, _)
            | Formula::Once(i, _)
            | Formula::Hist(i, _)
            | Formula::Since(i, _, _) => Some(*i),
            _ => None,
        }
    }

    /// Whether the formula contains any temporal operator.
    pub fn is_temporal(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => false,
            Formula::Prev(..) | Formula::Once(..) | Formula::Hist(..) | Formula::Since(..) => true,
            Formula::Not(g) => g.is_temporal(),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.is_temporal() || b.is_temporal()
            }
            Formula::Exists(_, g) | Formula::Forall(_, g) => g.is_temporal(),
            Formula::CountCmp { body, .. } => body.is_temporal(),
        }
    }

    /// Maximum nesting depth of temporal operators.
    pub fn temporal_depth(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => 0,
            Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => g.temporal_depth(),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.temporal_depth().max(b.temporal_depth())
            }
            Formula::Prev(_, g) | Formula::Once(_, g) | Formula::Hist(_, g) => {
                1 + g.temporal_depth()
            }
            Formula::Since(_, a, b) => 1 + a.temporal_depth().max(b.temporal_depth()),
            Formula::CountCmp { body, .. } => body.temporal_depth(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => 1,
            Formula::Not(g)
            | Formula::Exists(_, g)
            | Formula::Forall(_, g)
            | Formula::Prev(_, g)
            | Formula::Once(_, g)
            | Formula::Hist(_, g) => 1 + g.size(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(_, a, b) => 1 + a.size() + b.size(),
            Formula::CountCmp { body, .. } => 1 + body.size(),
        }
    }

    /// All relation names mentioned in atoms.
    pub fn relations(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| {
            if let Formula::Atom { relation, .. } = f {
                out.insert(*relation);
            }
        });
        out
    }

    /// Pre-order visit of every subformula.
    pub fn visit(&self, f: &mut impl FnMut(&Formula)) {
        f(self);
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => {}
            Formula::Not(g)
            | Formula::Exists(_, g)
            | Formula::Forall(_, g)
            | Formula::Prev(_, g)
            | Formula::Once(_, g)
            | Formula::Hist(_, g) => g.visit(f),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Formula::CountCmp { body, .. } => body.visit(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reserved() -> Formula {
        Formula::atom("reserved", [Term::var("p"), Term::var("f")])
    }

    #[test]
    fn free_vars_of_atom() {
        let fv = reserved().free_vars();
        assert_eq!(fv.len(), 2);
        assert!(fv.contains(&var("p")));
    }

    #[test]
    fn quantifier_binds() {
        let f = reserved().exists([var("p")]);
        let fv = f.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![var("f")]);
    }

    #[test]
    fn shadowing_inner_bound_stays_bound() {
        // exists p . (reserved(p,f) && exists p . reserved(p,g))
        let inner = Formula::atom("reserved", [Term::var("p"), Term::var("g")]).exists([var("p")]);
        let f = reserved().and(inner).exists([var("p")]);
        let fv = f.free_vars();
        assert!(fv.contains(&var("f")) && fv.contains(&var("g")) && !fv.contains(&var("p")));
    }

    #[test]
    fn since_free_vars_union_both_sides() {
        let f = reserved().since(
            Interval::up_to(3),
            Formula::atom("confirmed", [Term::var("p")]),
        );
        assert_eq!(f.free_vars().len(), 2);
    }

    #[test]
    fn temporal_detection_and_depth() {
        assert!(!reserved().is_temporal());
        let f = reserved().once(Interval::all());
        assert!(f.is_temporal());
        assert_eq!(f.temporal_depth(), 1);
        let g = f.clone().since(Interval::up_to(2), f);
        assert_eq!(g.temporal_depth(), 2);
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(reserved().size(), 1);
        assert_eq!(reserved().and(Formula::True).size(), 3);
    }

    #[test]
    fn relations_collects_atoms() {
        let f = reserved().and(Formula::atom("confirmed", [Term::var("p")]).not());
        let rels = f.relations();
        assert_eq!(rels.len(), 2);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval(Value::Int(1), Value::Int(2)));
        assert!(
            !CmpOp::Lt.eval(Value::str("a"), Value::str("b")),
            "order on non-int is false"
        );
        assert!(CmpOp::Ne.eval(Value::str("a"), Value::str("b")));
        assert!(CmpOp::Eq.eval(Value::Bool(true), Value::Bool(true)));
    }

    #[test]
    fn cmp_negated_is_complement_on_ints() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for a in -2..3 {
                for b in -2..3 {
                    let (a, b) = (Value::Int(a), Value::Int(b));
                    assert_ne!(op.eval(a, b), op.negated().eval(a, b));
                }
            }
        }
    }

    #[test]
    fn cmp_flipped_swaps_args() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for a in -2..3 {
                for b in -2..3 {
                    let (a, b) = (Value::Int(a), Value::Int(b));
                    assert_eq!(op.eval(a, b), op.flipped().eval(b, a));
                }
            }
        }
    }

    #[test]
    fn count_cmp_binds_its_vars() {
        // count f . (reserved(p, f)) >= 3 — free var is p only.
        let f = Formula::atom("reserved", [Term::var("p"), Term::var("f")]).count_cmp(
            [var("f")],
            CmpOp::Ge,
            3,
        );
        let fv = f.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![var("p")]);
        assert!(!f.is_temporal());
        assert_eq!(f.size(), 2);
        let g = Formula::atom("q", [Term::var("x")])
            .once(Interval::all())
            .count_cmp([var("x")], CmpOp::Lt, 2);
        assert!(
            g.is_temporal(),
            "temporal body makes the aggregate temporal"
        );
    }

    #[test]
    fn term_from_impls() {
        assert_eq!(Term::from("x"), Term::var("x"));
        assert_eq!(Term::from(3), Term::int(3));
    }
}
