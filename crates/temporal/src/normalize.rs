//! Normalization: desugar `->` and `forall`, simplify constants and double
//! negation.
//!
//! The checker compilers (`rtic-core`'s and the naive evaluator) operate on
//! *normalized* formulas: no [`Formula::Implies`], no [`Formula::Forall`],
//! no `!!f`, and no redundant `true`/`false` operands. Normalization
//! preserves semantics exactly (it is pure sugar elimination plus boolean
//! identities).

use crate::ast::Formula;

/// Normalizes a formula; see the module docs for the guarantees.
pub fn normalize(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => f.clone(),
        // Negation is pushed through the boolean skeleton (De Morgan) and
        // into comparisons, so that `assert`-style bodies like
        // `!(a && !b)` become the safe-range `!a || b`. Negation stops at
        // atoms, quantifiers, and temporal operators.
        Formula::Not(g) => match normalize(g) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            Formula::And(a, b) => normalize(&Formula::Not(a)).or(normalize(&Formula::Not(b))),
            Formula::Or(a, b) => normalize(&Formula::Not(a)).and(normalize(&Formula::Not(b))),
            Formula::Cmp(op, a, b) => Formula::Cmp(op.negated(), a, b),
            // !(count … ⊙ n) ≡ count … ⊙̄ n.
            Formula::CountCmp {
                vars,
                body,
                op,
                threshold,
            } => Formula::CountCmp {
                vars,
                body,
                op: op.negated(),
                threshold,
            },
            g => g.not(),
        },
        Formula::And(a, b) => match (normalize(a), normalize(b)) {
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::True, g) | (g, Formula::True) => g,
            (a, b) => a.and(b),
        },
        Formula::Or(a, b) => match (normalize(a), normalize(b)) {
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::False, g) | (g, Formula::False) => g,
            (a, b) => a.or(b),
        },
        // a -> b  ≡  !a || b
        Formula::Implies(a, b) => normalize(&Formula::Or(
            Box::new(Formula::Not(a.clone())),
            Box::new((**b).clone()),
        )),
        Formula::Exists(vs, g) => match normalize(g) {
            // exists x . false  ≡  false; exists x . true ≡ true over a
            // nonempty domain (ours is infinite).
            Formula::False => Formula::False,
            Formula::True => Formula::True,
            g => g.exists(vs.iter().copied()),
        },
        // forall x . f  ≡  !(exists x . !f)
        Formula::Forall(vs, g) => normalize(&Formula::Not(Box::new(Formula::Exists(
            vs.clone(),
            Box::new(Formula::Not(g.clone())),
        )))),
        Formula::Prev(i, g) => match normalize(g) {
            // prev of false can never hold; prev of true still asserts a
            // previous state exists at an admissible age, so it stays.
            Formula::False => Formula::False,
            g => g.prev(*i),
        },
        Formula::Once(i, g) => match normalize(g) {
            Formula::False => Formula::False,
            g => g.once(*i),
        },
        Formula::Hist(i, g) => {
            // hist of true is a tautology over whatever window exists.
            match normalize(g) {
                Formula::True => Formula::True,
                g => g.hist(*i),
            }
        }
        Formula::CountCmp {
            vars,
            body,
            op,
            threshold,
        } => match normalize(body) {
            // Counting an unsatisfiable body yields zero everywhere.
            Formula::False => {
                if op.eval(
                    rtic_relation::Value::Int(0),
                    rtic_relation::Value::Int(*threshold),
                ) {
                    Formula::True
                } else {
                    Formula::False
                }
            }
            body => Formula::CountCmp {
                vars: vars.clone(),
                body: Box::new(body),
                op: *op,
                threshold: *threshold,
            },
        },
        Formula::Since(i, a, b) => match (normalize(a), normalize(b)) {
            // Anchors can never be created by a false anchor formula.
            (_, Formula::False) => Formula::False,
            // `true since[I] g` is exactly `once[I] g`.
            (Formula::True, g) => g.once(*i),
            (a, b) => a.since(*i, b),
        },
    }
}

/// Renames quantified variables apart: after this, every quantifier binds
/// fresh names distinct from all free variables and from every other
/// quantifier's names. Evaluators rely on this to ignore shadowing.
///
/// Fresh names take the form `x__1`, `x__2`, … derived from the original
/// name; the counter is global to the formula, so the result is
/// deterministic.
pub fn rename_apart(f: &Formula) -> Formula {
    use crate::ast::{Term, Var};
    use std::collections::BTreeMap;

    fn rename_term(t: &Term, sub: &BTreeMap<Var, Var>) -> Term {
        match t {
            Term::Var(v) => Term::Var(*sub.get(v).unwrap_or(v)),
            c => *c,
        }
    }

    fn go(f: &Formula, sub: &BTreeMap<Var, Var>, counter: &mut usize) -> Formula {
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Atom { relation, terms } => Formula::Atom {
                relation: *relation,
                terms: terms.iter().map(|t| rename_term(t, sub)).collect(),
            },
            Formula::Cmp(op, a, b) => Formula::Cmp(*op, rename_term(a, sub), rename_term(b, sub)),
            Formula::Not(g) => go(g, sub, counter).not(),
            Formula::And(a, b) => go(a, sub, counter).and(go(b, sub, counter)),
            Formula::Or(a, b) => go(a, sub, counter).or(go(b, sub, counter)),
            Formula::Implies(a, b) => go(a, sub, counter).implies(go(b, sub, counter)),
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                let mut inner_sub = sub.clone();
                let fresh: Vec<Var> = vs
                    .iter()
                    .map(|v| {
                        *counter += 1;
                        let fresh = Var::new(format!("{}__{}", v.name(), counter).as_str());
                        inner_sub.insert(*v, fresh);
                        fresh
                    })
                    .collect();
                let body = go(g, &inner_sub, counter);
                if matches!(f, Formula::Exists(..)) {
                    body.exists(fresh)
                } else {
                    body.forall(fresh)
                }
            }
            Formula::Prev(i, g) => go(g, sub, counter).prev(*i),
            Formula::Once(i, g) => go(g, sub, counter).once(*i),
            Formula::Hist(i, g) => go(g, sub, counter).hist(*i),
            Formula::Since(i, a, b) => go(a, sub, counter).since(*i, go(b, sub, counter)),
            Formula::CountCmp {
                vars,
                body,
                op,
                threshold,
            } => {
                let mut inner_sub = sub.clone();
                let fresh: Vec<Var> = vars
                    .iter()
                    .map(|v| {
                        *counter += 1;
                        let fresh = Var::new(format!("{}__{}", v.name(), counter).as_str());
                        inner_sub.insert(*v, fresh);
                        fresh
                    })
                    .collect();
                go(body, &inner_sub, counter).count_cmp(fresh, *op, *threshold)
            }
        }
    }

    go(f, &BTreeMap::new(), &mut 0)
}

/// Ranks `f`'s variables by their first occurrence in a term, in pre-order,
/// left to right; a variable that only a binder names ranks after those,
/// in binder order. This is canonical alpha-renaming: renaming a formula's
/// variables leaves every rank, and so every [`Var`] comparison, as it was.
/// `f` must be renamed apart ([`rename_apart`]): each name one variable.
///
/// Ranked, `reserved(p, f)` orders its columns `(p, f)`, as the relation
/// does, where name order would say `(f, p)`.
pub fn rank_vars(f: &Formula) -> Formula {
    use crate::ast::{Term, Var};

    let mut order: Vec<Var> = Vec::new();
    f.visit(&mut |g| {
        let terms = match g {
            Formula::Atom { terms, .. } => terms.as_slice(),
            Formula::Cmp(_, a, b) => &[*a, *b][..],
            _ => &[],
        };
        for t in terms {
            if let Term::Var(v) = t {
                if !order.contains(v) {
                    order.push(*v);
                }
            }
        }
    });
    f.map_vars(&mut |v| {
        let rank = order.iter().position(|&u| u == v).unwrap_or_else(|| {
            order.push(v);
            order.len() - 1
        });
        v.ranked(u32::try_from(rank).expect("fewer than 2^32 variables"))
    })
}

/// Whether a formula is already in normal form.
pub fn is_normalized(f: &Formula) -> bool {
    let mut ok = true;
    f.visit(&mut |g| match g {
        Formula::Implies(..) | Formula::Forall(..) => ok = false,
        Formula::Not(inner) => {
            if matches!(
                **inner,
                Formula::Not(_)
                    | Formula::True
                    | Formula::False
                    | Formula::And(..)
                    | Formula::Or(..)
                    | Formula::Cmp(..)
                    | Formula::CountCmp { .. }
            ) {
                ok = false;
            }
        }
        _ => {}
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{var, Term};
    use crate::time::Interval;

    fn p() -> Formula {
        Formula::atom("p", [Term::var("x")])
    }

    fn q() -> Formula {
        Formula::atom("q", [Term::var("x")])
    }

    #[test]
    fn implies_desugars() {
        let n = normalize(&p().implies(q()));
        assert_eq!(n, p().not().or(q()));
    }

    #[test]
    fn forall_desugars() {
        let n = normalize(&p().forall([var("x")]));
        assert_eq!(n, p().not().exists([var("x")]).not());
    }

    #[test]
    fn double_negation_collapses() {
        assert_eq!(normalize(&p().not().not()), p());
        assert_eq!(normalize(&p().not().not().not()), p().not());
    }

    #[test]
    fn negation_pushes_through_de_morgan() {
        assert_eq!(normalize(&p().and(q()).not()), p().not().or(q().not()));
        assert_eq!(normalize(&p().or(q()).not()), p().not().and(q().not()));
        // !(p -> q) == p && !q
        assert_eq!(normalize(&p().implies(q()).not()), p().and(q().not()));
    }

    #[test]
    fn negated_comparison_flips_operator() {
        use crate::ast::CmpOp;
        let lt = Formula::cmp(CmpOp::Lt, Term::var("x"), Term::int(3));
        assert_eq!(
            normalize(&lt.not()),
            Formula::cmp(CmpOp::Ge, Term::var("x"), Term::int(3))
        );
    }

    #[test]
    fn negation_stops_at_quantifiers_and_temporal() {
        let f = p().exists([var("x")]).not();
        assert_eq!(normalize(&f), f, "negated exists stays");
        let g = p().once(Interval::all()).not();
        assert_eq!(normalize(&g), g, "negated once stays");
    }

    #[test]
    fn boolean_identities() {
        assert_eq!(normalize(&p().and(Formula::True)), p());
        assert_eq!(normalize(&p().and(Formula::False)), Formula::False);
        assert_eq!(normalize(&p().or(Formula::False)), p());
        assert_eq!(normalize(&p().or(Formula::True)), Formula::True);
        assert_eq!(normalize(&Formula::True.not()), Formula::False);
    }

    #[test]
    fn temporal_constant_folding() {
        let i = Interval::up_to(3);
        assert_eq!(normalize(&Formula::False.once(i)), Formula::False);
        assert_eq!(normalize(&Formula::True.hist(i)), Formula::True);
        assert_eq!(normalize(&p().since(i, Formula::False)), Formula::False);
        assert_eq!(normalize(&Formula::True.since(i, q())), q().once(i));
        // prev true is NOT folded: it asserts a previous state exists.
        assert_eq!(normalize(&Formula::True.prev(i)), Formula::True.prev(i));
    }

    #[test]
    fn normalized_detection() {
        assert!(is_normalized(&p().and(q())));
        assert!(!is_normalized(&p().implies(q())));
        assert!(!is_normalized(&p().forall([var("x")])));
        assert!(!is_normalized(&p().not().not()));
        assert!(is_normalized(&normalize(
            &p().implies(q().forall([var("x")]))
        )));
    }

    #[test]
    fn rename_apart_freshens_quantifiers() {
        // exists x . (p(x) && exists x . q(x, y))
        let inner = Formula::atom("q", [Term::var("x"), Term::var("y")]).exists([var("x")]);
        let f = p().and(inner).exists([var("x")]);
        let r = rename_apart(&f);
        // Free variable y untouched; the two quantifiers bind distinct names.
        assert!(r.free_vars().contains(&var("y")));
        let mut quantified = Vec::new();
        r.visit(&mut |g| {
            if let Formula::Exists(vs, _) = g {
                quantified.extend(vs.iter().copied());
            }
        });
        assert_eq!(quantified.len(), 2);
        assert_ne!(quantified[0], quantified[1]);
        assert!(!quantified.contains(&var("x")), "original name replaced");
        assert!(
            !quantified.contains(&var("y")),
            "fresh names avoid free vars"
        );
    }

    #[test]
    fn rename_apart_preserves_free_vars_and_structure() {
        let f = p().and(q()).once(Interval::up_to(2));
        assert_eq!(rename_apart(&f), f, "no quantifiers, no change");
    }

    #[test]
    fn rank_vars_orders_by_first_occurrence_and_prints_the_same() {
        // `f` sorts before `p` by name, after it by rank; `z`, named only
        // by its binder, ranks last.
        let reserved = Formula::atom("reserved", [Term::var("p"), Term::var("f")]);
        let f = reserved.and(Formula::atom("q", [Term::var("f")]).exists([var("z")]));
        let ranked = rank_vars(&f);
        assert_eq!(ranked.to_string(), f.to_string());
        let names: Vec<String> = ranked
            .sorted_free_vars()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(names, ["p", "f"]);
        assert_eq!(
            f.sorted_free_vars(),
            [var("f"), var("p")],
            "unranked: by name"
        );
        let Formula::And(_, exists) = &ranked else {
            unreachable!()
        };
        let Formula::Exists(vs, _) = &**exists else {
            unreachable!()
        };
        assert_eq!(vs[0], var("z").ranked(2));
    }

    #[test]
    fn rename_apart_is_capture_free_for_shadowed_use() {
        // exists x . p(x) — inner atom follows the fresh name.
        let f = p().exists([var("x")]);
        let r = rename_apart(&f);
        if let Formula::Exists(vs, body) = &r {
            assert_eq!(body.free_vars().into_iter().collect::<Vec<_>>(), vs.clone());
        } else {
            panic!("expected exists");
        }
    }

    #[test]
    fn negated_count_flips_the_operator() {
        use crate::ast::CmpOp;
        let c = q().count_cmp([var("x")], CmpOp::Ge, 2);
        assert_eq!(
            normalize(&c.clone().not()),
            q().count_cmp([var("x")], CmpOp::Lt, 2)
        );
        // count of false folds by comparing 0 against the threshold.
        let z = Formula::False.count_cmp([var("x")], CmpOp::Lt, 1);
        assert_eq!(normalize(&z), Formula::True);
        let z = Formula::False.count_cmp([var("x")], CmpOp::Ge, 1);
        assert_eq!(normalize(&z), Formula::False);
    }

    #[test]
    fn normalize_is_idempotent() {
        let f = p().implies(q()).forall([var("x")]).once(Interval::all());
        let n1 = normalize(&f);
        assert_eq!(normalize(&n1), n1);
    }
}
