//! Property: a [`ConstraintSet`] — relevance dispatch always on, bodies
//! run through the compiled plans — produces step reports byte-identical
//! to stepping one independent [`IncrementalChecker`] per constraint
//! through the tree-walking interpreter, over random fleets and random
//! streams (including pure ticks).
//!
//! This is the semantic contract of the fleet engine: dispatch and the
//! plans' memo/delta machinery are performance features, never visible
//! in reports.

use std::sync::Arc;

use proptest::prelude::*;
use rtic_core::{checkpoint, Checker, ConstraintSet, EncodingOptions, IncrementalChecker};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;

/// Four unary relations so fleets overlap only partially — the mix keeps
/// some constraints quiescent on most steps, exercising both dispatch
/// outcomes.
const RELATIONS: [&str; 4] = ["p", "q", "r", "s"];

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new();
    for rel in RELATIONS {
        cat.declare(rel, Schema::of(&[("x", Sort::Str)]))
            .expect("distinct names");
    }
    Arc::new(cat)
}

/// Body templates; `{a}`/`{b}` are relation names, `{i}`/`{j}` intervals.
/// The last flat one is the monotone-probe shape (an unbounded `once`
/// feeding a `!once` antijoin), so the probe partition cache and its
/// fallbacks both run under the property.
const TEMPLATES: &[&str] = &[
    "{a}(x) && once{i} {b}(x)",
    "{b}(x) since{i} {a}(x)",
    "{a}(x) && hist{i} {b}(x)",
    "{b}(x) && prev{i} {a}(x)",
    "{a}(x) && !once{i} {b}(x)",
    "{a}(x) && hist{i} {b}(x) && !once{j} {b}(x)",
    "once[1,*] {a}(x) && {a}(x) && !once{i} {b}(x)",
    // Nested: the outer node's operand is another node's extension.
    "{a}(x) && once{i} once{j} {b}(x)",
    "{a}(x) && once{i} prev{j} {b}(x)",
];

fn interval_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (0u64..4).prop_map(|b| format!("[0,{b}]")),
        (1u64..4).prop_map(|a| format!("[{a},*]")),
        (1u64..3, 0u64..3).prop_map(|(a, d)| format!("[{a},{}]", a + d)),
    ]
}

fn fleet() -> impl Strategy<Value = Vec<Constraint>> {
    proptest::collection::vec(
        (
            0..TEMPLATES.len(),
            0..RELATIONS.len(),
            0..RELATIONS.len(),
            interval_text(),
            interval_text(),
        ),
        1..5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(n, (t, a, b, i, j))| {
                let body = TEMPLATES[t]
                    .replace("{a}", RELATIONS[a])
                    .replace("{b}", RELATIONS[b])
                    .replace("{i}", &i)
                    .replace("{j}", &j);
                parse_constraint(&format!("deny c{n}: {body}")).expect("template parses")
            })
            .collect()
    })
}

fn transitions() -> impl Strategy<Value = Vec<Transition>> {
    let change = (0..RELATIONS.len(), any::<bool>(), 0u8..2);
    proptest::collection::vec((1u64..3, proptest::collection::vec(change, 0..3)), 2..18).prop_map(
        |steps| {
            const DOM: [&str; 2] = ["a", "b"];
            let mut t = 0u64;
            steps
                .into_iter()
                .map(|(gap, changes)| {
                    t += gap;
                    let mut u = Update::new();
                    for (rel, ins, x) in changes {
                        let tup = tuple![DOM[x as usize]];
                        if ins {
                            u.insert(RELATIONS[rel], tup);
                        } else {
                            u.delete(RELATIONS[rel], tup);
                        }
                    }
                    Transition::new(t, u)
                })
                .collect()
        },
    )
}

/// Sparse clocks and mostly-empty updates: long quiet runs in which a
/// window edge may or may not fall between two states.
fn sparse_transitions() -> impl Strategy<Value = Vec<Transition>> {
    const GAPS: [u64; 8] = [1, 1, 1, 2, 3, 4, 7, 15];
    let change = (0..RELATIONS.len(), any::<bool>(), 0u8..2);
    let step = (
        0..GAPS.len(),
        0u8..4,
        proptest::collection::vec(change, 1..3),
    );
    proptest::collection::vec(step, 2..48).prop_map(|steps| {
        const DOM: [&str; 2] = ["a", "b"];
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(gap, busy, changes)| {
                t += GAPS[gap];
                let mut u = Update::new();
                for (rel, ins, x) in changes.into_iter().filter(|_| busy == 0) {
                    let tup = tuple![DOM[x as usize]];
                    if ins {
                        u.insert(RELATIONS[rel], tup);
                    } else {
                        u.delete(RELATIONS[rel], tup);
                    }
                }
                Transition::new(t, u)
            })
            .collect()
    })
}

/// `save_set` sections without their `dispatch` line — the one place a
/// sleeping set and its forced-full twin may differ.
fn sections(set: &ConstraintSet) -> Vec<String> {
    let strip = |text: String| {
        let kept = text.lines().filter(|l| !l.starts_with("dispatch "));
        kept.collect::<Vec<_>>().join("\n")
    };
    let saved = checkpoint::save_set(set);
    saved.into_iter().map(|(_, text)| strip(text)).collect()
}

proptest! {
    #[test]
    fn a_sleeping_set_is_its_forced_full_twin(
        constraints in fleet(),
        ts in sparse_transitions(),
    ) {
        // The twin sees every update plus a delete of an absent tuple from
        // each relation: nothing changes in the database, but no engine is
        // ever quiescent, so none ever sleeps. Reports, the settled state
        // (checkpoint sections, stamp for stamp) and space accounting must
        // agree at *every* step, whatever is deferred at that moment.
        let cat = catalog();
        let options = EncodingOptions::default();
        let build = || {
            ConstraintSet::with_options(constraints.iter().cloned(), Arc::clone(&cat), options)
                .map_err(|(c, e)| format!("`{c}`: {e}"))
                .unwrap()
        };
        let (mut lazy, mut eager) = (build(), build());
        for tr in &ts {
            let mut forced = tr.update.clone();
            for rel in RELATIONS {
                forced.delete(rel, tuple!["ghost"]);
            }
            let got = lazy.step(tr.time, &tr.update).expect("monotone stream");
            let expected = eager.step(tr.time, &forced).expect("monotone stream");
            prop_assert_eq!(&got, &expected, "sleeping diverged at t={}", tr.time);
            prop_assert_eq!(sections(&lazy), sections(&eager), "settled state at t={}", tr.time);
            prop_assert_eq!(lazy.space(), eager.space());
            for (deferred, bound) in lazy.deferred_ticks() {
                prop_assert!(deferred as u64 <= bound + 1, "{deferred} deferred, bound {bound}");
            }
        }
        prop_assert_eq!(eager.dispatch_stats().skipped, 0, "the twin never sleeps");
    }

    #[test]
    fn fleet_matches_independent_checkers(
        constraints in fleet(),
        ts in transitions(),
    ) {
        let cat = catalog();
        let mut singles: Vec<IncrementalChecker> = constraints
            .iter()
            .map(|c| {
                let interpreted = EncodingOptions { interpret_eval: true, ..Default::default() };
                IncrementalChecker::with_options(c.clone(), Arc::clone(&cat), interpreted)
                    .unwrap_or_else(|e| panic!("`{c}` does not compile: {e}"))
            })
            .collect();
        let mut set = ConstraintSet::new(constraints.iter().cloned(), Arc::clone(&cat))
            .map_err(|(c, e)| format!("`{c}`: {e}"))
            .unwrap();
        for tr in &ts {
            let expected: Vec<_> = singles
                .iter_mut()
                .map(|s| s.step(tr.time, &tr.update).expect("monotone stream"))
                .collect();
            let got = set.step(tr.time, &tr.update).expect("monotone stream");
            prop_assert_eq!(&got, &expected, "fleet diverged at t={}", tr.time);
            // Byte for byte: the rendered reports agree, not just the values.
            let render = |reports: &[rtic_core::StepReport]| {
                reports.iter().map(ToString::to_string).collect::<Vec<_>>()
            };
            prop_assert_eq!(render(&got), render(&expected));
        }
        // The set's shared database matches any single checker's count.
        prop_assert_eq!(
            set.database().total_tuples(),
            singles
                .first()
                .map(|s| s.database().total_tuples())
                .unwrap_or(0)
        );
    }
}
