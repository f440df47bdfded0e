//! Static analysis of formulas: lookback horizon and aux-space bound.

use crate::ast::Formula;
use crate::time::{Duration, UpperBound};

/// The *horizon* of a formula: the maximum age (in clock ticks) of any past
/// state the formula's truth at `now` can depend on.
///
/// `Horizon::Finite(h)` means states older than `h` ticks are irrelevant —
/// the correctness basis of the windowed baseline checker and of all window
/// pruning inside the bounded encoding. Any unbounded interval anywhere
/// makes the horizon [`Horizon::Unbounded`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Horizon {
    /// All relevant states are at most this old.
    Finite(Duration),
    /// Arbitrarily old states can matter.
    Unbounded,
}

impl Horizon {
    /// The finite payload, if any.
    pub fn finite(self) -> Option<Duration> {
        match self {
            Horizon::Finite(d) => Some(d),
            Horizon::Unbounded => None,
        }
    }

    fn max(self, other: Horizon) -> Horizon {
        match (self, other) {
            (Horizon::Finite(a), Horizon::Finite(b)) => Horizon::Finite(a.max(b)),
            _ => Horizon::Unbounded,
        }
    }

    fn plus(self, bound: UpperBound) -> Horizon {
        match (self, bound) {
            (Horizon::Finite(a), UpperBound::Finite(b)) => {
                Horizon::Finite(Duration(a.0.saturating_add(b.0)))
            }
            _ => Horizon::Unbounded,
        }
    }
}

/// Computes the lookback [`Horizon`] of `f`.
///
/// Temporal operators *nest additively*: `once[0,3] once[0,4] p` can depend
/// on states up to 7 ticks old (3 ticks back to the outer witness, which
/// itself looks 4 further back).
pub fn horizon(f: &Formula) -> Horizon {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Cmp(..) => {
            Horizon::Finite(Duration(0))
        }
        Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => horizon(g),
        Formula::CountCmp { body, .. } => horizon(body),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            horizon(a).max(horizon(b))
        }
        Formula::Prev(i, g) | Formula::Once(i, g) | Formula::Hist(i, g) => horizon(g).plus(i.hi()),
        Formula::Since(i, a, b) => horizon(a).max(horizon(b)).plus(i.hi()),
    }
}

/// An upper bound on the number of timestamps the bounded encoding stores
/// *per live key* of any single auxiliary relation — the quantity the paper
/// proves independent of history length.
///
/// For a subformula with metric bound `[a, b]`, at most `b + 1` distinct
/// integer timestamps fit in a window of span `b`; the `a = 0` and `b = ∞`
/// specializations store exactly one. Returns the maximum over all temporal
/// subformulas (1 if there are none, since `prev` stores one state).
pub fn per_key_timestamp_bound(f: &Formula) -> UpperBound {
    fn node_bound(f: &Formula) -> UpperBound {
        match f {
            Formula::Once(i, _) | Formula::Since(i, _, _) => {
                if i.lo().0 == 0 {
                    UpperBound::Finite(Duration(1))
                } else {
                    match i.hi() {
                        UpperBound::Finite(b) => UpperBound::Finite(Duration(b.0 + 1)),
                        UpperBound::Infinite => UpperBound::Finite(Duration(1)),
                    }
                }
            }
            // A run is two timestamps; the number of runs in a window of
            // span b is at most ⌈(b+1)/2⌉; unbounded hist keeps one run.
            Formula::Hist(i, _) => match i.hi() {
                UpperBound::Finite(b) => UpperBound::Finite(Duration(b.0 + 2)),
                UpperBound::Infinite => UpperBound::Finite(Duration(2)),
            },
            Formula::Prev(..) => UpperBound::Finite(Duration(1)),
            _ => UpperBound::Finite(Duration(0)),
        }
    }
    let mut worst = UpperBound::Finite(Duration(1));
    f.visit(&mut |g| {
        let b = node_bound(g);
        if b > worst {
            worst = b;
        }
    });
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Formula, Term};
    use crate::time::Interval;

    fn p() -> Formula {
        Formula::atom("p", [Term::var("x")])
    }

    #[test]
    fn nontemporal_horizon_is_zero() {
        assert_eq!(horizon(&p().and(p().not())), Horizon::Finite(Duration(0)));
    }

    #[test]
    fn single_operator_horizon_is_its_bound() {
        assert_eq!(
            horizon(&p().once(Interval::up_to(5))),
            Horizon::Finite(Duration(5))
        );
    }

    #[test]
    fn nesting_is_additive() {
        let f = p().once(Interval::up_to(4)).once(Interval::up_to(3));
        assert_eq!(horizon(&f), Horizon::Finite(Duration(7)));
    }

    #[test]
    fn since_takes_max_of_operands() {
        let f = p()
            .once(Interval::up_to(10))
            .since(Interval::up_to(2), p().once(Interval::up_to(1)));
        assert_eq!(horizon(&f), Horizon::Finite(Duration(12)));
    }

    #[test]
    fn any_unbounded_interval_is_unbounded() {
        let f = p().and(p().once(Interval::at_least(3)));
        assert_eq!(horizon(&f), Horizon::Unbounded);
    }

    #[test]
    fn prev_adds_its_bound() {
        let f = p().prev(Interval::up_to(2)).prev(Interval::up_to(2));
        assert_eq!(horizon(&f), Horizon::Finite(Duration(4)));
    }

    #[test]
    fn per_key_bound_specializations() {
        // a = 0: one timestamp regardless of b.
        assert_eq!(
            per_key_timestamp_bound(&p().once(Interval::up_to(100))),
            UpperBound::Finite(Duration(1))
        );
        // b = ∞, a > 0: one timestamp.
        assert_eq!(
            per_key_timestamp_bound(&p().once(Interval::at_least(5))),
            UpperBound::Finite(Duration(1))
        );
        // General case: b + 1.
        assert_eq!(
            per_key_timestamp_bound(&p().once(Interval::bounded(2, 9).unwrap())),
            UpperBound::Finite(Duration(10))
        );
    }
}
