//! Golden bytes for the checkpoint writer: `save_set` and `save` over a
//! small fleet must reproduce `golden/checkpoint.txt` byte for byte.
//!
//! The fixture was recorded with the `fmt`-based writer that cloned and
//! sorted every key before printing it, so it pins that the one-pass
//! writer changed no byte. It covers every node block kind (`prev`,
//! `once`, `since`, `histf`, `histi`), string values holding `"`, `\` and
//! a newline, negative integers down to `i64::MIN`, the `database
//! shared` marker, and a sleeping engine saved with deferred ticks — one
//! gap narrower than its `once[5,8]` window can fall into and one wide
//! enough to split its open runs. A change here is a format change:
//! re-bless only on purpose, with
//!
//! RTIC_BLESS=1 cargo test -p rtic-core --test checkpoint_golden

use std::sync::Arc;

use rtic_core::{checkpoint, Checker, ConstraintSet, IncrementalChecker};
use rtic_relation::{tuple, Catalog, Schema, Sort, Tuple, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

const GOLDEN: &str = "tests/golden/checkpoint.txt";

fn catalog() -> Arc<Catalog> {
    let pair = || Schema::of(&[("x", Sort::Str), ("n", Sort::Int)]);
    let mut cat = Catalog::new();
    for rel in ["p", "q", "r"] {
        cat.declare(rel, pair()).expect("distinct names");
    }
    Arc::new(cat)
}

fn constraints() -> Vec<Constraint> {
    [
        // Every node kind over p and q.
        "deny kinds: p(x, n) && once[1,3] q(x, n) && !(q(x, n) since[0,5] p(x, n)) \
         && hist[0,2] p(x, n) || q(x, n) && prev p(x, n) && hist[1,*] p(x, n)",
        // Over r alone: asleep whenever an update leaves r be.
        "deny sleepy: r(x, n) && once[5,8] r(x, n)",
    ]
    .iter()
    .map(|c| parse_constraint(c).expect("parses"))
    .collect()
}

/// Values that need escaping, and integers at both ends.
fn row(i: usize) -> Tuple {
    match i % 5 {
        0 => tuple!["a\"b", -1],
        1 => tuple!["c\\d", 0],
        2 => tuple!["e\nf", i64::MIN],
        3 => tuple!["plain", i64::MAX],
        _ => tuple!["", -42],
    }
}

/// The stream: p and q change at every step, r only up to t = 3. From
/// then on `sleepy` wakes only at its deadlines (6, when its runs from
/// t = 1 count, and 11, when the closed one leaves its window); the next
/// is 20, so it defers 12, 13 (gaps of one) and 19 (a gap of six, wider
/// than `b − a + 1 = 4`).
fn stream() -> Vec<(u64, Update)> {
    let times = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 19];
    let mut out = Vec::new();
    for (i, &t) in times.iter().enumerate() {
        let mut u = Update::new()
            .with_insert("p", row(i))
            .with_insert("q", row(i + 1))
            .with_delete("p", row(i + 3))
            .with_delete("q", row(i + 2));
        match t {
            1 => u = u.with_insert("r", row(0)).with_insert("r", row(2)),
            3 => u = u.with_delete("r", row(2)),
            _ => {}
        }
        out.push((t, u));
    }
    out
}

/// Every checkpoint of the run, each headed by the time it was taken.
fn checkpoints() -> String {
    let mut set = ConstraintSet::new(constraints(), catalog()).expect("compiles");
    let mut single =
        IncrementalChecker::new(constraints()[0].clone(), catalog()).expect("compiles");
    let mut out = String::new();
    let mut save = |at: &str, set: &ConstraintSet, single: &IncrementalChecker| {
        for (name, section) in checkpoint::save_set(set) {
            out.push_str(&format!("=== save_set after {at}: {name}\n{section}"));
        }
        out.push_str(&format!(
            "=== save after {at}\n{}",
            checkpoint::save(single)
        ));
    };
    save("none", &set, &single);
    for (t, u) in stream() {
        set.step(TimePoint(t), &u).expect("steps");
        single.step(TimePoint(t), &u).expect("steps");
        if [3, 6, 13, 19].contains(&t) {
            save(&format!("@{t}"), &set, &single);
        }
    }
    // `sleepy` (engine 1) is saved mid-sleep, both gaps deferred.
    assert_eq!(set.deferred_ticks()[1].0, 3, "12, 13 and 19 deferred");
    out
}

#[test]
fn save_set_reproduces_the_golden_bytes() {
    let got = checkpoints();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var("RTIC_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, &got).expect("bless");
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {GOLDEN}: {e} (run with RTIC_BLESS=1 to record)"));
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
        panic!(
            "checkpoint bytes moved from {GOLDEN} (first differing line: {line:?}; \
             if intentional, re-bless with RTIC_BLESS=1)"
        );
    }
}
