//! Boundary-case properties for the metric window operators: all checker
//! realizations must agree byte-for-byte exactly where off-by-one bugs
//! live — `[0,b]` (a == 0), point intervals `[a,a]` (a == b), bounds that
//! coincide with the formula's horizon, single-state histories, and clock
//! gaps that land exactly on / just past a bound.

use rand::rngs::StdRng;
use rand::Rng;
use rtic_history::Transition;
use rtic_oracle::generate::case_catalog;
use rtic_oracle::property::{check, vec_of};
use rtic_oracle::{check_case, Case, Mode};
use rtic_relation::{tuple, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;

/// Constraint templates over the oracle catalog (`r0`/`r1` unary int),
/// one per window-operator shape. The two-interval template makes
/// bound == horizon exact whenever `{i}` and `{j}` draw the same bound.
const TEMPLATES: &[&str] = &[
    "r0(x) && prev{i} r1(x)",
    "r0(x) && once{i} r1(x)",
    "r0(x) && hist{i} r1(x)",
    "r1(x) since{i} r0(x)",
    "r0(x) && !once{i} r1(x)",
    "r0(x) && prev{i} r1(x) && once{j} r1(x)",
];

/// The boundary interval shapes, as a function of the bound `b`.
fn interval_text(shape: usize, b: u64) -> String {
    match shape {
        0 => "[0,0]".to_string(),
        1 => format!("[{b},{b}]"), // a == b
        2 => format!("[0,{b}]"),   // a == 0
        3 => format!("[1,{}]", b.max(1)),
        _ => format!("[{b},*]"),
    }
}

/// A template, the interval shapes for `{i}` and `{j}`, and the bound.
type Shape = (usize, usize, usize, u64);

fn shape(rng: &mut StdRng) -> Shape {
    let template = rng.gen_range(0..TEMPLATES.len());
    (
        template,
        rng.gen_range(0..5),
        rng.gen_range(0..5),
        rng.gen_range(1..4),
    )
}

fn boundary_constraint(&(template, shape_i, shape_j, b): &Shape) -> Constraint {
    let body = TEMPLATES[template]
        .replace("{i}", &interval_text(shape_i, b))
        .replace("{j}", &interval_text(shape_j, b));
    parse_constraint(&format!("deny c: {body}")).expect("template parses")
}

/// One generated step: a gap-palette index plus `(relation, insert?, value)`
/// tuple operations.
type Step = (usize, Vec<(u8, bool, i64)>);

/// Builds a history whose gaps cluster around the bound `b`: one tick,
/// exactly `b`, one past `b` (window-expiring), and a huge gap.
fn history(b: u64, steps: &[Step]) -> Vec<Transition> {
    let mut t = 0u64;
    let mut out = Vec::new();
    for (k, (gap, changes)) in steps.iter().enumerate() {
        if k > 0 {
            t += [1, b.max(1), b + 1, 50][*gap];
        }
        let mut u = Update::new();
        for &(rel, ins, x) in changes {
            let name = if rel == 0 { "r0" } else { "r1" };
            if ins {
                u.insert(name, tuple![x]);
            } else {
                u.delete(name, tuple![x]);
            }
        }
        out.push(Transition::new(t, u));
    }
    out
}

fn assert_all_agree(constraint: Constraint, ts: Vec<Transition>) {
    let case = Case {
        index: 0,
        seed: 13, // fixes the stitch kill step
        catalog: case_catalog(),
        constraint,
        transitions: ts,
    };
    if let Some(d) = check_case(&case, &Mode::ALL) {
        panic!("boundary divergence on `{}`:\n{d}", case.constraint);
    }
}

/// a == 0, a == b, bound == horizon, and gaps landing exactly on the
/// bound and one past it: every realization agrees byte-for-byte.
#[test]
fn window_boundaries_agree_across_all_backends() {
    let step = |r: &mut StdRng| {
        let change =
            |r: &mut StdRng| (r.gen_range(0..2), r.gen_range(0..2) == 1, r.gen_range(0..2));
        (r.gen_range(0..4), vec_of(r, 0..3, change))
    };
    let draw = |rng: &mut StdRng| (shape(rng), vec_of(rng, 1..10, step));
    check(41, 256, draw, |(shape, steps)| {
        // The history's gap palette is tied to this constraint's own
        // bound, so gaps hit b and b+1 exactly.
        assert_all_agree(boundary_constraint(shape), history(shape.3, steps));
    });
}

/// Single-state histories: the degenerate case where no previous
/// state exists for prev/once/hist/since to look back into.
#[test]
fn single_state_histories_agree() {
    let draw = |rng: &mut StdRng| {
        let fill = vec_of(rng, 0..3, |r| (r.gen_range(0..2), r.gen_range(0..2)));
        (shape(rng), rng.gen_range(0..3), fill)
    };
    check(
        42,
        256,
        draw,
        |(shape, start, fill): &(Shape, u64, Vec<(u8, i64)>)| {
            let mut u = Update::new();
            for &(rel, x) in fill {
                u.insert(if rel == 0 { "r0" } else { "r1" }, tuple![x]);
            }
            assert_all_agree(boundary_constraint(shape), vec![Transition::new(*start, u)]);
        },
    );
}

/// Maximal clock gaps: every transition far beyond any window, so all
/// bounded lookback expires between every pair of states.
#[test]
fn maximal_gap_histories_agree() {
    let draw = |rng: &mut StdRng| (shape(rng), rng.gen_range(1..6), rng.gen_range(0..2));
    check(43, 256, draw, |&(shape, n, x): &(Shape, usize, i64)| {
        let ts: Vec<Transition> = (0..n)
            .map(|k| {
                let mut u = Update::new();
                u.insert(if k % 2 == 0 { "r1" } else { "r0" }, tuple![x]);
                Transition::new(k as u64 * 1_000_000, u)
            })
            .collect();
        assert_all_agree(boundary_constraint(&shape), ts);
    });
}
