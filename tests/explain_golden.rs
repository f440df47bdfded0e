//! Golden test for the explain plan: the output is deterministic, and this
//! pins its exact shape so accidental changes to compilation (conjunct
//! ordering, aux strategy selection, horizon analysis) are caught.

use std::sync::Arc;

use rtic::core::{explain::explain, CompiledConstraint};
use rtic::relation::{Catalog, Schema, Sort};
use rtic::temporal::parser::parse_constraint;

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

#[test]
fn motivating_constraint_plan_is_stable() {
    let compiled = CompiledConstraint::compile(
        parse_constraint(
            "deny unconfirmed: reserved(p, f) && once[2,9] reserved(p, f) \
             && !once[0,9] confirmed(p, f)",
        )
        .unwrap(),
        catalog(),
    )
    .unwrap();
    let expected = "\
constraint : deny unconfirmed: reserved(p, f) && once[2,9] reserved(p, f) && !(once[0,9] confirmed(p, f))
denial body: reserved(p, f) && once[2,9] reserved(p, f) && !(once[0,9] confirmed(p, f))
witnesses  : (f: int, p: str)
horizon    : 9 ticks (windowed checking is exact)
aux state  : 2 temporal node(s)
  [0] once[2,9] reserved(p, f)
      keys(f, p); witness runs per key over the last 9 ticks' states (≤ 10 stamps/key)
      untouched: sleeps until a stamp ages in (s + 2) or ages out (s + 10)
  [1] once[0,9] confirmed(p, f)
      keys(f, p); witness runs per key; the newest end is the stamp (a = 0)
      untouched: sleeps until a stamp ages out (s + 10)
per-key stamp bound: 10
evaluation plan:
  1. reserved(p, f)  — generates f, p
  2. once[2,9] reserved(p, f)  — filter
  3. !(once[0,9] confirmed(p, f))  — filter
";
    let got = explain(&compiled);
    assert_eq!(
        got, expected,
        "explain output changed; if intentional, update this golden:\n{got}"
    );
}

#[test]
fn since_and_hist_strategies_are_named() {
    let compiled = CompiledConstraint::compile(
        parse_constraint(
            "deny d: reserved(p, f) && (reserved(p, f) since[3,*] confirmed(p, f)) \
             && hist[1,*] reserved(p, f)",
        )
        .unwrap(),
        catalog(),
    )
    .unwrap();
    let text = explain(&compiled);
    assert!(
        text.contains("anchor runs per key; the first start is the stamp (b = ∞)"),
        "{text}"
    );
    assert!(
        text.contains("the run from the first state per key (filter)"),
        "{text}"
    );
    assert!(
        text.contains("unbounded (aux space bounded by the active domain)"),
        "{text}"
    );
    // Each node says what it does while its relations are left alone.
    assert!(
        text.contains("sleeps until a stamp ages in (s + 3); declines right after a fresh anchor"),
        "{text}"
    );
    assert!(
        text.contains("sleeps until the oldest recent state ages 1"),
        "{text}"
    );
}
