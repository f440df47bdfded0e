//! The plan layer's correctness property:
//!
//! > Executing a compiled evaluation plan is **byte-for-byte identical**
//! > to interpreting the formula it was lowered from — same reports, same
//! > `Display` text — on every history.
//!
//! Planned execution is the default in every checker, so this pins the
//! plan lowering (conjunct order, join shapes, projection maps, the
//! bound-vs-generating temporal decision) against the interpreting
//! evaluator, which stays the semantics-defining reference.

use std::sync::Arc;

use proptest::prelude::*;
use rtic_core::{Checker, EncodingOptions, IncrementalChecker, NaiveChecker};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::new()
            .with("p", Schema::of(&[("x", Sort::Str)]))
            .unwrap()
            .with("q", Schema::of(&[("x", Sort::Str)]))
            .unwrap()
            .with("r", Schema::of(&[("x", Sort::Str), ("y", Sort::Str)]))
            .unwrap(),
    )
}

/// Interval text with all four shapes.
fn interval_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()), // omitted = [0,*]
        (0u64..4).prop_map(|b| format!("[0,{b}]")),
        (1u64..4).prop_map(|a| format!("[{a},*]")),
        (1u64..4, 0u64..3).prop_map(|(a, d)| format!("[{a},{}]", a + d)),
        (0u64..4).prop_map(|k| format!("[{k},{k}]")),
    ]
}

/// Constraint templates biased toward the shapes the plan lowering has to
/// get right: multi-conjunct reorderings, negated probes, comparisons,
/// disjunction, quantifiers, counting, and every temporal operator both
/// bound (probe) and generating (join).
const TEMPLATES: &[&str] = &[
    "p(x) && once{i} q(x)",
    "p(x) && !once{i} q(x)",
    "once{i} q(x) && p(x)",
    "q(x) since{i} p(x)",
    "p(x) since{i} (p(x) && q(x))",
    "p(x) && hist{i} q(x)",
    "q(x) && prev{i} p(x)",
    "once{i} once{j} p(x)",
    "r(x, y) && !once{i} q(x)",
    "exists y . r(x, y) && once{i} p(x)",
    "once{i} (p(x) && q(x))",
    "(p(x) since{i} q(x)) && !prev{j} p(x)",
    "q(x) && hist{i} p(x) && !p(x)",
    "(once{i} q(x)) since{j} p(x)",
    "p(x) || q(x)",
    "once{i} (q(x) since{j} p(x))",
    "r(x, y) && r(y, z) && once{i} q(x)",
    "(r(x, y) since{i} r(x, y)) && p(x)",
    "p(x) && !(exists z . r(x, z))",
    "r(x, y) && x != y",
    "r(x, y) && x = y && once{i} p(x)",
    "p(x) && count y . (r(x, y)) >= 2",
    "p(x) && count y . (r(x, y)) = 0",
    "p(x) && count y . (r(x, y) && once{i} q(y)) >= 1",
    "(count y . (r(x, y)) >= 1) since{i} p(x)",
];

fn constraint() -> impl Strategy<Value = Constraint> {
    (0..TEMPLATES.len(), interval_text(), interval_text()).prop_map(|(t, i, j)| {
        let body = TEMPLATES[t].replace("{i}", &i).replace("{j}", &j);
        parse_constraint(&format!("deny plan_c: {body}"))
            .unwrap_or_else(|e| panic!("template failed to parse: {body}: {e}"))
    })
}

/// One random step: time gap 1–3, a few inserts/deletes over a 2-value
/// domain (collisions force real join work).
#[derive(Clone, Debug)]
struct Step {
    gap: u64,
    changes: Vec<(u8, bool, u8, u8)>, // (relation, insert?, value x, value y)
}

fn step() -> impl Strategy<Value = Step> {
    let change = (0u8..3, any::<bool>(), 0u8..2, 0u8..2);
    (1u64..4, proptest::collection::vec(change, 0..4))
        .prop_map(|(gap, changes)| Step { gap, changes })
}

fn transitions(steps: &[Step]) -> Vec<Transition> {
    const DOM: [&str; 2] = ["a", "b"];
    let mut t = 0u64;
    steps
        .iter()
        .map(|s| {
            t += s.gap;
            let mut u = Update::new();
            for &(rel, ins, x, y) in &s.changes {
                let (name, tup) = match rel {
                    0 => ("p", tuple![DOM[x as usize]]),
                    1 => ("q", tuple![DOM[x as usize]]),
                    _ => ("r", tuple![DOM[x as usize], DOM[y as usize]]),
                };
                if ins {
                    u.insert(name, tup);
                } else {
                    u.delete(name, tup);
                }
            }
            Transition::new(t, u)
        })
        .collect()
}

proptest! {
    // Case count honors PROPTEST_CASES (default 256).

    #[test]
    fn planned_naive_matches_interpreted_byte_for_byte(
        c in constraint(),
        steps in proptest::collection::vec(step(), 1..14),
    ) {
        let cat = catalog();
        let ts = transitions(&steps);
        let mut planned = NaiveChecker::new(c.clone(), Arc::clone(&cat)).unwrap();
        let mut interp = NaiveChecker::new_interpreted(c.clone(), Arc::clone(&cat)).unwrap();
        for tr in &ts {
            let a = planned.step(tr.time, &tr.update).unwrap();
            let b = interp.step(tr.time, &tr.update).unwrap();
            prop_assert_eq!(&a, &b, "plan diverged on `{}` at {}", c, tr.time);
            prop_assert_eq!(
                a.to_string(), b.to_string(),
                "plan changed the report text of `{}` at {}", c, tr.time
            );
        }
    }

    #[test]
    fn planned_incremental_matches_interpreted_byte_for_byte(
        c in constraint(),
        steps in proptest::collection::vec(step(), 1..14),
    ) {
        let cat = catalog();
        let ts = transitions(&steps);
        let mut planned = IncrementalChecker::new(c.clone(), Arc::clone(&cat)).unwrap();
        let mut interp = IncrementalChecker::with_options(
            c.clone(),
            Arc::clone(&cat),
            EncodingOptions { interpret_eval: true, ..Default::default() },
        )
        .unwrap();
        for tr in &ts {
            let a = planned.step(tr.time, &tr.update).unwrap();
            let b = interp.step(tr.time, &tr.update).unwrap();
            prop_assert_eq!(&a, &b, "plan diverged on `{}` at {}", c, tr.time);
            prop_assert_eq!(
                a.to_string(), b.to_string(),
                "plan changed the report text of `{}` at {}", c, tr.time
            );
        }
    }

    /// Turning the plan-node profiler on must be invisible in the
    /// reports: same verdicts, same witnesses, same `Display` text — the
    /// profiler only ever *reads* the execution it annotates.
    #[test]
    fn profiling_leaves_reports_byte_identical(
        c in constraint(),
        steps in proptest::collection::vec(step(), 1..14),
    ) {
        let cat = catalog();
        let ts = transitions(&steps);
        let mut plain = IncrementalChecker::new(c.clone(), Arc::clone(&cat)).unwrap();
        let mut profiled = IncrementalChecker::with_options(
            c.clone(),
            Arc::clone(&cat),
            EncodingOptions { profile_plans: true, ..Default::default() },
        )
        .unwrap();
        for tr in &ts {
            let a = plain.step(tr.time, &tr.update).unwrap();
            let b = profiled.step(tr.time, &tr.update).unwrap();
            prop_assert_eq!(&a, &b, "profiler changed `{}` at {}", c, tr.time);
            prop_assert_eq!(
                a.to_string(), b.to_string(),
                "profiler changed the report text of `{}` at {}", c, tr.time
            );
        }
        // And the profile it produced is well-formed: one row per plan
        // node, ids in pre-order, and the body root runs at most once per
        // step (an engine asleep until its next deadline is not re-evaluated).
        let profile = profiled.plan_profile().expect("profiling was enabled");
        prop_assert!(!profile.nodes.is_empty());
        for (i, row) in profile.nodes.iter().enumerate() {
            prop_assert_eq!(row.desc.id, i, "profile rows are pre-order ids");
        }
        let root_calls: u64 = profile
            .nodes
            .iter()
            .filter(|r| r.desc.depth == 0 && r.desc.path == "body")
            .map(|r| r.counts.calls)
            .sum();
        prop_assert!(
            root_calls <= ts.len() as u64,
            "body root runs at most once per step ({} calls over {} steps)",
            root_calls, ts.len()
        );
    }
}
