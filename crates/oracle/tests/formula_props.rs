//! Property tests for the temporal crate: parser/printer round-trip,
//! normalization invariants, and analysis monotonicity.

use rand::rngs::StdRng;
use rand::Rng;
use rtic_oracle::property::{chars, check, pick, vec_of};
use rtic_temporal::ast::{CmpOp, Formula, Term, Var};
use rtic_temporal::normalize::{is_normalized, normalize, rename_apart};
use rtic_temporal::parser::{parse_constraint, parse_file, parse_formula};
use rtic_temporal::time::Interval;
use rtic_temporal::{horizon, Duration, Horizon};

const CASES: usize = 512;

/// The tokens formula-like input is drawn from.
const TOKENS: &[&str] = &[
    "once", "hist", "prev", "since", "exists", "deny", "(", ")", "[", "]", ",", ".", "&&", "||",
    "!", "<", "=", "\"", " ", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n",
    "o", "p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z", "0", "1", "2", "3", "4", "5", "6",
    "7", "8", "9",
];

fn interval(rng: &mut StdRng) -> Interval {
    match rng.gen_range(0..4) {
        0 => Interval::all(),
        1 => Interval::up_to(rng.gen_range(0..6)),
        2 => Interval::at_least(rng.gen_range(0..6)),
        _ => {
            let (a, d): (u64, u64) = (rng.gen_range(0..5), rng.gen_range(0..5));
            Interval::bounded(a, a + d).unwrap()
        }
    }
}

fn term(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..3) {
        0 => Term::var(pick(rng, &["x", "y", "z"])),
        1 => Term::int(rng.gen_range(-3..4)),
        _ => Term::str(pick(rng, &["ann", "bob", "jfk"])),
    }
}

fn leaf(rng: &mut StdRng) -> Formula {
    match rng.gen_range(0..4) {
        0 => Formula::True,
        1 => Formula::False,
        2 => match rng.gen_range(0..3) {
            0 => Formula::atom("r0", []),
            1 => Formula::atom("p", [term(rng)]),
            _ => Formula::atom("q", [term(rng), term(rng)]),
        },
        _ => {
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            Formula::Cmp(pick(rng, &ops), term(rng), term(rng))
        }
    }
}

/// Up to `depth` operator levels; each level is an operator one draw in
/// three, otherwise the level below.
fn formula_at(rng: &mut StdRng, depth: u32) -> Formula {
    if depth == 0 {
        return leaf(rng);
    }
    if rng.gen_range(0..3) < 2 {
        return formula_at(rng, depth - 1);
    }
    let sub = |r: &mut StdRng| formula_at(r, depth - 1);
    match rng.gen_range(0..10) {
        0 => sub(rng).not(),
        1 => sub(rng).and(sub(rng)),
        2 => sub(rng).or(sub(rng)),
        3 => sub(rng).implies(sub(rng)),
        4 => sub(rng).exists([Var::new(pick(rng, &["x", "y"]))]),
        5 => sub(rng).forall([Var::new(pick(rng, &["x", "y"]))]),
        6 => sub(rng).prev(interval(rng)),
        7 => sub(rng).once(interval(rng)),
        8 => sub(rng).hist(interval(rng)),
        _ => sub(rng).since(interval(rng), sub(rng)),
    }
}

fn formula(rng: &mut StdRng) -> Formula {
    formula_at(rng, 4)
}

#[test]
fn print_parse_round_trip() {
    check(31, CASES, formula, |f| {
        let printed = f.to_string();
        let reparsed = parse_formula(&printed)
            .unwrap_or_else(|e| panic!("printed form failed to parse: {printed}\n{e}"));
        assert_eq!(&reparsed, f, "round trip changed the formula: {printed}");
    });
}

#[test]
fn normalize_is_idempotent_and_normalizes() {
    check(32, CASES, formula, |f| {
        let n = normalize(f);
        assert!(is_normalized(&n), "not normalized: {n}");
        assert_eq!(normalize(&n), n);
    });
}

#[test]
fn normalize_never_grows_free_vars() {
    check(33, CASES, formula, |f| {
        // Simplification may *drop* variables (e.g. `p(x) && false`) but
        // must never invent new ones.
        let before = f.free_vars();
        for v in normalize(f).free_vars() {
            assert!(before.contains(&v), "normalizing invented {v}");
        }
    });
}

#[test]
fn normalized_round_trips_too() {
    check(34, CASES, formula, |f| {
        let n = normalize(f);
        assert_eq!(parse_formula(&n.to_string()).unwrap(), n);
    });
}

#[test]
fn horizon_of_normalized_never_exceeds_original() {
    check(35, CASES, formula, |f| {
        // Normalization only removes lookback (constant folding), never adds.
        match (horizon(&normalize(f)), horizon(f)) {
            (Horizon::Unbounded, Horizon::Finite(_)) => {
                panic!("normalization increased horizon")
            }
            (Horizon::Finite(a), Horizon::Finite(b)) => assert!(a <= b),
            _ => {}
        }
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    // Printable characters: ASCII, and some that take two to four bytes.
    let printable: String = (' '..='~').chain("éßλΩ∀∧→≤日本🦀".chars()).collect();
    let draw = |rng: &mut StdRng| chars(rng, &printable, 0..9);
    check(36, CASES, draw, |chars| {
        // Errors are fine; panics are not.
        let s: String = chars.iter().collect();
        let _ = parse_formula(&s);
        let _ = parse_constraint(&s);
        let _ = parse_file(&s);
    });
}

#[test]
fn parser_never_panics_on_formula_like_input() {
    let draw = |rng: &mut StdRng| vec_of(rng, 0..9, |r| pick(r, TOKENS));
    check(37, CASES, draw, |tokens| {
        let s = tokens.concat();
        let _ = parse_formula(&s);
        let _ = parse_file(&s);
    });
}

#[test]
fn rename_apart_preserves_print_semantics_shape() {
    check(38, CASES, formula, |f| {
        let r = rename_apart(f);
        assert_eq!(r.size(), f.size(), "renaming preserves structure");
        assert_eq!(r.free_vars(), f.free_vars(), "free variables unchanged");
        // Renamed-apart formulas still round-trip through the parser.
        assert_eq!(parse_formula(&r.to_string()).unwrap(), r);
    });
}

#[test]
fn temporal_depth_bounds_horizon_structure() {
    check(39, CASES, formula, |f| {
        // A formula with no temporal operators has zero horizon.
        if !f.is_temporal() {
            assert_eq!(horizon(f), Horizon::Finite(Duration(0)));
        }
    });
}
