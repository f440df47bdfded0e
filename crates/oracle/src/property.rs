//! Seeded property runs that shrink. [`check`] draws `cases` inputs, each
//! from its own [`derive_seed`] stream, and on the first one that fails
//! its property shrinks it with the oracle's own shrinkers — [`ddmin`]
//! for vectors (strings are drawn as `Vec<char>` so they shrink the same
//! way), [`minimize`] over formula rewrites for formulas — and panics with
//! the seed, the case index, the shrunk input and its failure message.

use std::any::Any;
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_temporal::Formula;

use crate::derive_seed;
use crate::shrink::{candidates, ddmin, minimize, ShrinkBudget};

/// An input [`check`] can shrink.
pub trait Shrink: Clone {
    /// Replaces `self` by a smaller input of which `fails` still holds,
    /// as far as one is found. The default keeps `self` as drawn.
    fn shrink(&mut self, _fails: &mut dyn FnMut(&Self) -> bool) {}
}

macro_rules! atoms {
    ($($t:ty),+) => { $(impl Shrink for $t {})+ };
}

atoms!(bool, char, u8, u64, usize, i64, f64, &'static str);

/// ddmin over the items, then each remaining item in place.
impl<T: Shrink> Shrink for Vec<T> {
    fn shrink(&mut self, fails: &mut dyn FnMut(&Self) -> bool) {
        ddmin(self, |items| fails(&items.to_vec()));
        for i in 0..self.len() {
            let mut item = self[i].clone();
            item.shrink(&mut |smaller| {
                let mut whole = self.clone();
                whole[i] = smaller.clone();
                fails(&whole)
            });
            self[i] = item;
        }
    }
}

macro_rules! tuples {
    ($(($($t:ident $i:tt),+))+) => {$(
        /// Each component in turn, the others held.
        impl<$($t: Shrink),+> Shrink for ($($t,)+) {
            fn shrink(&mut self, fails: &mut dyn FnMut(&Self) -> bool) {
                $({
                    let mut part = self.$i.clone();
                    part.shrink(&mut |smaller| {
                        let mut whole = self.clone();
                        whole.$i = smaller.clone();
                        fails(&whole)
                    });
                    self.$i = part;
                })+
            }
        }
    )+};
}

tuples! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// The oracle's formula rewrites: drop a conjunct, unwrap an operator,
/// tighten an interval.
impl Shrink for Formula {
    fn shrink(&mut self, fails: &mut dyn FnMut(&Self) -> bool) {
        minimize(self, candidates, fails);
    }
}

/// Runs `holds` on cases `0..cases` of `seed`, each drawn by `draw` from
/// `StdRng::seed_from_u64(derive_seed(seed, case))`. A property fails by
/// panicking (`assert!` and friends). The first failing case is shrunk
/// within [`ShrinkBudget::default`] re-runs, then this panics with the
/// seed, the case index, the shrunk input and its failure message.
pub fn check<T: Shrink + Debug>(
    seed: u64,
    cases: usize,
    draw: impl Fn(&mut StdRng) -> T,
    holds: impl Fn(&T),
) {
    let failure = |input: &T| {
        let run = panic::catch_unwind(AssertUnwindSafe(|| holds(input)));
        run.err().map(|payload| message(&*payload))
    };
    for case in 0..cases {
        let mut input = draw(&mut StdRng::seed_from_u64(derive_seed(seed, case as u64)));
        let Some(first) = failure(&input) else {
            continue;
        };
        let mut checks_left = ShrinkBudget::default().max_checks;
        let last = quietly(|| {
            input.shrink(&mut |candidate| {
                if checks_left == 0 {
                    return false;
                }
                checks_left -= 1;
                failure(candidate).is_some()
            });
            failure(&input)
        });
        let why = last.unwrap_or(first);
        panic!("property failed at seed {seed}, case {case}\nshrunk input: {input:?}\n{why}");
    }
}

/// `len` items, each from `item`.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut item: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// One of `items`, uniformly.
pub fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

/// `len` characters, each one of `palette`'s.
pub fn chars(rng: &mut StdRng, palette: &str, len: Range<usize>) -> Vec<char> {
    let palette: Vec<char> = palette.chars().collect();
    vec_of(rng, len, |r| pick(r, &palette))
}

fn message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's panic messages unprinted, so the re-runs a
/// shrink makes do not print one message each. Other threads print as
/// before.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = f();
    QUIET.with(|q| q.set(false));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_property_panics_with_its_shrunk_input() {
        let run = panic::catch_unwind(|| {
            check(
                7,
                64,
                |rng| vec_of(rng, 0..40, |r| r.gen_range(0u8..10)),
                |v| assert!(!(v.contains(&3) && v.contains(&7)), "holds 3 and 7"),
            )
        });
        let text = message(&*run.expect_err("the property fails"));
        assert!(
            text.starts_with("property failed at seed 7, case "),
            "{text}"
        );
        let shrunk = text.lines().nth(1).expect("an input line");
        assert!(
            shrunk == "shrunk input: [3, 7]" || shrunk == "shrunk input: [7, 3]",
            "{text}"
        );
        assert!(text.ends_with("holds 3 and 7"), "{text}");
    }

    #[test]
    fn a_holding_property_draws_every_case() {
        let drawn = Cell::new(0);
        check(
            1,
            32,
            |rng| pick(rng, &['a', 'b']),
            |_| drawn.set(drawn.get() + 1),
        );
        assert_eq!(drawn.get(), 32);
    }
}
