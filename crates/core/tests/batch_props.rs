//! Property: [`ConstraintSet::apply_batch`] — any partition of a stream
//! into micro-batches, through the compiled plans — produces step reports
//! byte-identical to stepping the same set one line at a time through the
//! tree-walking interpreter, over random fleets and random streams
//! (including pure ticks).
//!
//! This is the semantic contract of batched ingestion: batching and the
//! plans' memo/delta machinery amortize work around and inside the steps,
//! but are never visible in reports, violations, or the shared database.

use std::sync::Arc;

use proptest::prelude::*;
use rtic_core::{ConstraintSet, EncodingOptions, NopObserver};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;

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
/// The mix covers the monotone-probe shapes (`!once` with an unbounded
/// window) alongside bounded windows and `since`, so the probe
/// partition cache and its fallbacks both run under the property.
const TEMPLATES: &[&str] = &[
    "{a}(x) && once{i} {b}(x)",
    "{b}(x) since{i} {a}(x)",
    "{a}(x) && hist{i} {b}(x)",
    "{a}(x) && !once {b}(x)",
    "once[1,*] {a}(x) && {a}(x) && !once{i} {b}(x)",
];

fn interval_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (0u64..4).prop_map(|b| format!("[0,{b}]")),
        (1u64..4).prop_map(|a| format!("[{a},*]")),
    ]
}

fn fleet() -> impl Strategy<Value = Vec<Constraint>> {
    proptest::collection::vec(
        (
            0..TEMPLATES.len(),
            0..RELATIONS.len(),
            0..RELATIONS.len(),
            interval_text(),
        ),
        1..4,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(n, (t, a, b, i))| {
                let body = TEMPLATES[t]
                    .replace("{a}", RELATIONS[a])
                    .replace("{b}", RELATIONS[b])
                    .replace("{i}", &i);
                parse_constraint(&format!("deny c{n}: {body}")).expect("template parses")
            })
            .collect()
    })
}

/// Random streams with pure ticks (empty change lists), same-step
/// insert+delete pairs, and churn over a tiny domain — the inputs that
/// stress the row-delta bookkeeping hardest.
fn transitions() -> impl Strategy<Value = Vec<Transition>> {
    let change = (0..RELATIONS.len(), any::<bool>(), 0u8..2);
    proptest::collection::vec((1u64..3, proptest::collection::vec(change, 0..4)), 2..20).prop_map(
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

proptest! {
    #[test]
    fn batched_ingestion_matches_line_at_a_time(
        constraints in fleet(),
        ts in transitions(),
        batch in 1usize..7,
    ) {
        let cat = catalog();
        let mut line_at_a_time = ConstraintSet::with_options(
            constraints.iter().cloned(),
            Arc::clone(&cat),
            EncodingOptions { interpret_eval: true, ..Default::default() },
        )
        .map_err(|(c, e)| format!("`{c}`: {e}"))
        .unwrap();
        let mut batched = ConstraintSet::new(constraints.iter().cloned(), Arc::clone(&cat))
            .map_err(|(c, e)| format!("`{c}`: {e}"))
            .unwrap();

        let expected: Vec<_> = ts
            .iter()
            .map(|tr| {
                line_at_a_time
                    .step(tr.time, &tr.update)
                    .expect("monotone stream")
            })
            .collect();

        let lines: Vec<_> = ts.iter().map(|tr| (tr.time, tr.update.clone())).collect();
        let mut got = Vec::with_capacity(lines.len());
        for chunk in lines.chunks(batch) {
            got.extend(
                batched
                    .apply_batch(chunk, &mut NopObserver)
                    .expect("monotone stream"),
            );
        }

        prop_assert_eq!(&got, &expected, "batch={}", batch);
        // Byte-for-byte: the rendered reports agree, not just the values.
        for (g, e) in got.iter().zip(&expected) {
            let render = |reports: &[rtic_core::StepReport]| {
                reports.iter().map(ToString::to_string).collect::<Vec<_>>()
            };
            prop_assert_eq!(render(g), render(e));
        }
        prop_assert_eq!(
            batched.database().total_tuples(),
            line_at_a_time.database().total_tuples()
        );
    }
}
