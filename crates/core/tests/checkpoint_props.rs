//! Property: checkpointing at *any* position of *any* history for *any*
//! constraint template and restoring yields a checker whose subsequent
//! reports are identical to an uninterrupted run's.

use std::sync::Arc;

use proptest::prelude::*;
use rtic_core::checkpoint::{restore, save};
use rtic_core::{Checker, EncodingOptions, IncrementalChecker};
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
            .unwrap(),
    )
}

const TEMPLATES: &[&str] = &[
    "p(x) && once{i} q(x)",
    "q(x) since{i} p(x)",
    "p(x) && hist{i} q(x)",
    "q(x) && prev{i} p(x)",
    "once{i} (q(x) since{j} p(x))",
    "p(x) && hist{i} q(x) && !once{j} q(x)",
];

fn interval_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (0u64..4).prop_map(|b| format!("[0,{b}]")),
        (1u64..4).prop_map(|a| format!("[{a},*]")),
        (1u64..3, 0u64..3).prop_map(|(a, d)| format!("[{a},{}]", a + d)),
    ]
}

fn constraint() -> impl Strategy<Value = Constraint> {
    (0..TEMPLATES.len(), interval_text(), interval_text()).prop_map(|(t, i, j)| {
        let body = TEMPLATES[t].replace("{i}", &i).replace("{j}", &j);
        parse_constraint(&format!("deny c: {body}")).expect("template parses")
    })
}

fn transitions() -> impl Strategy<Value = Vec<Transition>> {
    let change = (0u8..2, any::<bool>(), 0u8..2);
    proptest::collection::vec((1u64..3, proptest::collection::vec(change, 0..3)), 2..16).prop_map(
        |steps| {
            const DOM: [&str; 2] = ["a", "b"];
            let mut t = 0u64;
            steps
                .into_iter()
                .map(|(gap, changes)| {
                    t += gap;
                    let mut u = Update::new();
                    for (rel, ins, x) in changes {
                        let name = if rel == 0 { "p" } else { "q" };
                        let tup = tuple![DOM[x as usize]];
                        if ins {
                            u.insert(name, tup);
                        } else {
                            u.delete(name, tup);
                        }
                    }
                    Transition::new(t, u)
                })
                .collect()
        },
    )
}

proptest! {
    #[test]
    fn restore_resumes_identically(
        c in constraint(),
        ts in transitions(),
        cut_frac in 0.0f64..1.0,
    ) {
        let cat = catalog();
        let options = EncodingOptions::default();
        let cut = ((ts.len() as f64) * cut_frac) as usize;
        // Uninterrupted run.
        let mut reference =
            IncrementalChecker::with_options(c.clone(), Arc::clone(&cat), options).unwrap();
        let mut expected = Vec::new();
        for tr in &ts {
            expected.push(reference.step(tr.time, &tr.update).unwrap());
        }
        // Interrupted run.
        let mut head =
            IncrementalChecker::with_options(c.clone(), Arc::clone(&cat), options).unwrap();
        let mut got = Vec::new();
        for tr in &ts[..cut] {
            got.push(head.step(tr.time, &tr.update).unwrap());
        }
        let text = save(&head);
        let mut resumed = restore(c.clone(), Arc::clone(&cat), options, &text)
            .unwrap_or_else(|e| panic!("restore failed for `{c}`: {e}\n{text}"));
        for tr in &ts[cut..] {
            got.push(resumed.step(tr.time, &tr.update).unwrap());
        }
        prop_assert_eq!(got, expected, "constraint `{}` cut at {}", c, cut);
        // And the space accounting survives the round trip.
        prop_assert_eq!(resumed.space().aux_keys > 0, reference.space().aux_keys > 0);
    }
}
