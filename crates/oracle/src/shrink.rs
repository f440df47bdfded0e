//! Counterexample minimization: shrink the history (ddmin over
//! transitions, then individual tuple operations) and the formula (drop
//! conjuncts, unwrap operators, push intervals toward boundaries) while
//! re-checking that the divergence persists at every step.

use std::cell::Cell;
use std::sync::Arc;

use rtic_core::CompiledConstraint;
use rtic_history::Transition;
use rtic_relation::{Catalog, Update};
use rtic_temporal::{Constraint, Formula, Interval, UpperBound};

/// Caps the number of candidate re-runs a shrink may spend; each re-run
/// executes two full checker passes, so this bounds shrink latency.
#[derive(Clone, Copy, Debug)]
pub struct ShrinkBudget {
    /// Maximum predicate evaluations.
    pub max_checks: usize,
}

impl Default for ShrinkBudget {
    fn default() -> ShrinkBudget {
        ShrinkBudget { max_checks: 3000 }
    }
}

/// Tries removing each tuple operation from each remaining update
/// while `fails` still holds (an update can shrink to an empty pure
/// tick).
fn shrink_updates(ts: &mut Vec<Transition>, mut fails: impl FnMut(&[Transition]) -> bool) {
    let mut i = 0;
    while i < ts.len() {
        let mut op = 0;
        while let Some(candidate_update) = remove_nth_op(&ts[i].update, op) {
            let mut candidate = ts.clone();
            candidate[i].update = candidate_update;
            if fails(&candidate) {
                *ts = candidate;
                // Same index now names the next op; don't advance.
            } else {
                op += 1;
            }
        }
        i += 1;
    }
}

/// ddmin-lite: removes chunks of `items` (halving sizes down to singles)
/// as long as `fails` still holds of what is left.
pub fn ddmin<T: Clone>(items: &mut Vec<T>, mut fails: impl FnMut(&[T]) -> bool) {
    let mut chunk = (items.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < items.len() {
            let mut candidate = items.clone();
            let end = (i + chunk).min(candidate.len());
            candidate.drain(i..end);
            if fails(&candidate) {
                *items = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
}

/// Greedily replaces `case` by the first of its `candidates` of which
/// `fails` still holds, until none does. Terminates when every candidate
/// is strictly smaller than its source.
pub fn minimize<T>(
    case: &mut T,
    candidates: impl Fn(&T) -> Vec<T>,
    mut fails: impl FnMut(&T) -> bool,
) {
    while let Some(smaller) = candidates(case).into_iter().find(|c| fails(c)) {
        *case = smaller;
    }
}

/// Minimizes `(constraint, transitions)` while `diverges` stays true.
/// `diverges` must be true of the input; the result is a local minimum
/// (no single remaining rewrite preserves the divergence) within budget.
pub fn shrink(
    constraint: &Constraint,
    transitions: &[Transition],
    catalog: &Arc<Catalog>,
    budget: ShrinkBudget,
    mut diverges: impl FnMut(&Constraint, &[Transition]) -> bool,
) -> (Constraint, Vec<Transition>) {
    let checks_left = Cell::new(budget.max_checks);
    let mut still_diverges = |c: &Constraint, ts: &[Transition]| match checks_left.get() {
        0 => false,
        left => {
            checks_left.set(left - 1);
            diverges(c, ts)
        }
    };
    let rewrites = |c: &Constraint| -> Vec<Constraint> {
        let rewrite = |body| Constraint { body, ..c.clone() };
        candidates(&c.body).into_iter().map(rewrite).collect()
    };
    let mut c = constraint.clone();
    let mut ts = transitions.to_vec();
    loop {
        let before = (measure(&c.body), ts.len(), ops(&ts));
        ddmin(&mut ts, |candidate| still_diverges(&c, candidate));
        shrink_updates(&mut ts, |candidate| still_diverges(&c, candidate));
        minimize(&mut c, rewrites, |candidate| {
            let compiled = CompiledConstraint::compile(candidate.clone(), Arc::clone(catalog));
            compiled.is_ok() && still_diverges(candidate, &ts)
        });
        let after = (measure(&c.body), ts.len(), ops(&ts));
        if after >= before || checks_left.get() == 0 {
            break;
        }
    }
    (c, ts)
}

fn ops(ts: &[Transition]) -> usize {
    ts.iter().map(|t| t.update.len()).sum()
}

/// Rebuilds `update` without its `n`-th tuple operation (deletes first,
/// then inserts, both in deterministic order); `None` once `n` runs off
/// the end.
fn remove_nth_op(update: &Update, n: usize) -> Option<Update> {
    let mut out = Update::new();
    let mut idx = 0;
    let mut removed = false;
    for (rel, tuples) in update.deletes() {
        for t in tuples {
            if idx == n {
                removed = true;
            } else {
                out.delete(rel, t.clone());
            }
            idx += 1;
        }
    }
    for (rel, tuples) in update.inserts() {
        for t in tuples {
            if idx == n {
                removed = true;
            } else {
                out.insert(rel, t.clone());
            }
            idx += 1;
        }
    }
    removed.then_some(out)
}

/// A strictly decreasing measure over the rewrites [`candidates`]
/// proposes: node count dominates, interval bounds break ties (so
/// bound-tightening rewrites make progress even at constant size).
fn measure(f: &Formula) -> usize {
    let mut bounds = 0usize;
    f.visit(&mut |g| {
        if let Formula::Prev(i, _)
        | Formula::Once(i, _)
        | Formula::Hist(i, _)
        | Formula::Since(i, ..) = g
        {
            bounds += interval_weight(i);
        }
    });
    f.size() * 1000 + bounds
}

fn interval_weight(i: &Interval) -> usize {
    let hi = match i.hi() {
        UpperBound::Finite(d) => d.0 as usize,
        UpperBound::Infinite => 0,
    };
    i.lo().0 as usize + hi
}

fn interval_candidates(i: &Interval) -> Vec<Interval> {
    let lo = i.lo().0;
    let mut out = Vec::new();
    match i.hi() {
        UpperBound::Finite(h) => {
            if lo > 0 {
                out.push(Interval::up_to(h.0));
            }
            if h.0 > lo {
                out.push(Interval::exactly(lo));
            }
        }
        UpperBound::Infinite => {
            if lo > 0 {
                out.push(Interval::all());
            }
        }
    }
    out
}

/// All single-step simplifications of `f`: dropping a conjunct or
/// disjunct, unwrapping an operator, or tightening one interval. Every
/// candidate strictly reduces [`measure`], so greedy application
/// terminates. Candidates may be unsafe — the caller compile-checks.
pub(crate) fn candidates(f: &Formula) -> Vec<Formula> {
    let mut out = Vec::new();
    match f {
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            out.push((**a).clone());
            out.push((**b).clone());
            let rebuild: fn(Box<Formula>, Box<Formula>) -> Formula = match f {
                Formula::And(..) => Formula::And,
                Formula::Or(..) => Formula::Or,
                _ => Formula::Implies,
            };
            for ca in candidates(a) {
                out.push(rebuild(Box::new(ca), b.clone()));
            }
            for cb in candidates(b) {
                out.push(rebuild(a.clone(), Box::new(cb)));
            }
        }
        Formula::Not(g) => {
            out.push((**g).clone());
            for c in candidates(g) {
                out.push(Formula::Not(Box::new(c)));
            }
        }
        Formula::Exists(vs, g) => {
            out.push((**g).clone());
            for c in candidates(g) {
                out.push(Formula::Exists(vs.clone(), Box::new(c)));
            }
        }
        Formula::Forall(vs, g) => {
            out.push((**g).clone());
            for c in candidates(g) {
                out.push(Formula::Forall(vs.clone(), Box::new(c)));
            }
        }
        Formula::Prev(i, g) | Formula::Once(i, g) | Formula::Hist(i, g) => {
            out.push((**g).clone());
            let rebuild: fn(Interval, Box<Formula>) -> Formula = match f {
                Formula::Prev(..) => Formula::Prev,
                Formula::Once(..) => Formula::Once,
                _ => Formula::Hist,
            };
            for ni in interval_candidates(i) {
                out.push(rebuild(ni, g.clone()));
            }
            for c in candidates(g) {
                out.push(rebuild(*i, Box::new(c)));
            }
        }
        Formula::Since(i, lhs, anchor) => {
            out.push((**lhs).clone());
            out.push((**anchor).clone());
            for ni in interval_candidates(i) {
                out.push(Formula::Since(ni, lhs.clone(), anchor.clone()));
            }
            for c in candidates(lhs) {
                out.push(Formula::Since(*i, Box::new(c), anchor.clone()));
            }
            for c in candidates(anchor) {
                out.push(Formula::Since(*i, lhs.clone(), Box::new(c)));
            }
        }
        Formula::CountCmp {
            vars,
            body,
            op,
            threshold,
        } => {
            for c in candidates(body) {
                out.push(Formula::CountCmp {
                    vars: vars.clone(),
                    body: Box::new(c),
                    op: *op,
                    threshold: *threshold,
                });
            }
        }
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_history::gen::{schedule, GapKind};
    use rtic_relation::tuple;
    use rtic_temporal::{Term, TimePoint};

    use crate::generate::case_catalog;

    fn noisy_history() -> Vec<Transition> {
        let times = schedule(TimePoint(0), 12, |_| GapKind::Cluster);
        times
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let mut u = Update::new();
                u.insert("r0", tuple![i as i64 % 3]);
                u.insert("r1", tuple![i as i64 % 2]);
                Transition::new(t, u)
            })
            .collect()
    }

    #[test]
    fn shrinks_to_the_relevant_core() {
        let catalog = case_catalog();
        // "Divergence" stand-in: any history that still inserts r0(1)
        // under a constraint still mentioning r0.
        let c = Constraint::deny(
            "t",
            Formula::atom("r0", [Term::var("x")])
                .and(Formula::atom("r1", [Term::var("x")]).once(Interval::up_to(5))),
        );
        let ts = noisy_history();
        let (sc, sts) = shrink(&c, &ts, &catalog, ShrinkBudget::default(), |c, ts| {
            c.body
                .relations()
                .contains(&rtic_relation::Symbol::intern("r0"))
                && ts.iter().any(|t| {
                    t.update
                        .inserts()
                        .any(|(r, tuples)| r.as_str() == "r0" && tuples.contains(&tuple![1i64]))
                })
        });
        assert_eq!(sts.len(), 1, "history should shrink to one transition");
        assert_eq!(ops(&sts), 1, "update should shrink to one op");
        assert!(sc.body.size() < c.body.size(), "formula should shrink");
    }

    #[test]
    fn ddmin_shrinks_to_the_planted_pair() {
        let mut items: Vec<u32> = (0..40).collect();
        ddmin(&mut items, |c| c.contains(&3) && c.contains(&7));
        assert_eq!(items, [3, 7]);
    }

    #[test]
    fn minimize_shrinks_a_formula_to_one_atom() {
        let x = || [Term::var("x")];
        let mut f = Formula::atom("r0", x()).and(
            Formula::atom("r1", x())
                .or(Formula::atom("r0", x()).not())
                .once(Interval::bounded(2, 5).expect("valid")),
        );
        let r1 = rtic_relation::Symbol::intern("r1");
        minimize(&mut f, candidates, |g| g.relations().contains(&r1));
        assert_eq!(f, Formula::atom("r1", x()));
    }

    #[test]
    fn a_predicate_that_never_fails_is_called_at_most_the_budget() {
        let c = Constraint::deny("t", Formula::atom("r0", [Term::var("x")]));
        let ts = noisy_history();
        let mut calls = 0;
        let budget = ShrinkBudget { max_checks: 10 };
        let (sc, sts) = shrink(&c, &ts, &case_catalog(), budget, |_, _| {
            calls += 1;
            false
        });
        assert_eq!(calls, budget.max_checks);
        assert_eq!((sc, sts), (c, ts), "nothing smaller fails");
    }

    #[test]
    fn interval_candidates_strictly_reduce_weight() {
        for i in [
            Interval::bounded(2, 5).expect("valid"),
            Interval::at_least(3),
            Interval::up_to(4),
        ] {
            for c in interval_candidates(&i) {
                assert!(interval_weight(&c) < interval_weight(&i));
            }
        }
        assert!(interval_candidates(&Interval::all()).is_empty());
        assert!(interval_candidates(&Interval::exactly(0)).is_empty());
    }

    #[test]
    fn remove_nth_op_enumerates_every_op() {
        let mut u = Update::new();
        u.insert("r0", tuple![1i64]);
        u.insert("r1", tuple![2i64]);
        u.delete("r0", tuple![3i64]);
        assert_eq!(u.len(), 3);
        for n in 0..3 {
            let smaller = remove_nth_op(&u, n).expect("op exists");
            assert_eq!(smaller.len(), 2);
        }
        assert!(remove_nth_op(&u, 3).is_none());
    }
}
