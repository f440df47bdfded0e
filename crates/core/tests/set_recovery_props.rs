//! Property: killing a constraint fleet at *any* step, checkpointing at
//! that cut, and restoring yields a fleet whose remaining reports are
//! identical to an uninterrupted run's.
//! This is the core recovery-equivalence guarantee the CLI's
//! `--resume` path builds on.

use std::sync::Arc;

use proptest::prelude::*;
use rtic_core::checkpoint::{restore_set, save_set, CheckpointError};
use rtic_core::ConstraintSet;
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::new()
            .with("p", Schema::of(&[("x", Sort::Str)]))
            .unwrap()
            .with("q", Schema::of(&[("x", Sort::Str)]))
            .unwrap(),
    )
}

const FLEET_BODIES: &[&str] = &[
    "deny both: p(x) && q(x)",
    "deny lingering: p(x) && once[2,4] q(x)",
    "deny steady: p(x) && hist[0,1] p(x)",
    "deny sinced: q(x) since[0,5] p(x)",
];

fn fleet(mask: u8) -> Vec<Constraint> {
    FLEET_BODIES
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, b)| parse_constraint(b).expect("fleet constraint parses"))
        .collect()
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
    fn kill_at_any_step_and_restore_is_equivalent(
        mask in 1u8..16,
        ts in transitions(),
        cut_frac in 0.0f64..1.0,
    ) {
        let cat = catalog();
        let cut = ((ts.len() as f64) * cut_frac) as usize;

        // Uninterrupted reference run.
        let mut reference = ConstraintSet::new(fleet(mask), Arc::clone(&cat)).unwrap();
        let mut expected = Vec::new();
        for tr in &ts {
            expected.push(reference.step(tr.time, &tr.update).unwrap());
        }

        // Killed-and-recovered run: step to the cut, "crash" (drop the
        // set, keeping only the checkpoint sections), restore, continue.
        let mut head = ConstraintSet::new(fleet(mask), Arc::clone(&cat)).unwrap();
        let mut got = Vec::new();
        for tr in &ts[..cut] {
            got.push(head.step(tr.time, &tr.update).unwrap());
        }
        let sections: Vec<String> = save_set(&head).into_iter().map(|(_, s)| s).collect();
        let cursor = head.last_time();
        drop(head);
        let mut resumed = restore_set(fleet(mask), Arc::clone(&cat), &sections)
            .unwrap_or_else(|e| panic!("restore_set failed at cut {cut}: {e}"));
        prop_assert_eq!(resumed.last_time(), cursor, "replay cursor survives");
        for tr in &ts[cut..] {
            got.push(resumed.step(tr.time, &tr.update).unwrap());
        }
        prop_assert_eq!(got, expected, "mask {:04b} cut {}", mask, cut);
        // Space accounting also survives the round trip.
        prop_assert_eq!(resumed.space(), reference.space());
    }

    /// The fleet's database lives in one section of the checkpoint. With
    /// that section lost, or torn inside its rows, what is left is a
    /// typed error — never a fleet that runs on over an empty database.
    #[test]
    fn a_lost_or_torn_database_section_is_a_typed_error(
        mask in 3u8..16,
        ts in transitions(),
    ) {
        // Two engines or more: one to hold the database, one to miss it.
        let mask = if mask.count_ones() > 1 { mask } else { mask | 1 };
        let cat = catalog();
        let mut head = ConstraintSet::new(fleet(mask), Arc::clone(&cat)).unwrap();
        // One row that no transition removes, so there is a database to lose.
        head.step(TimePoint(0), &Update::new().with_insert("p", tuple!["kept"])).unwrap();
        for tr in &ts {
            head.step(tr.time, &tr.update).unwrap();
        }
        let sections: Vec<String> = save_set(&head).into_iter().map(|(_, s)| s).collect();
        let bearer = &sections[0];
        prop_assert!(bearer.contains("rel p\n") && !sections[1..].concat().contains("rel "));

        // Lost, together with its constraint or not.
        let survivors = fleet(mask).split_off(1);
        let err = restore_set(survivors, Arc::clone(&cat), &sections[1..]).unwrap_err();
        prop_assert!(matches!(err, CheckpointError::Mismatch { .. }), "{}", err);
        let err = restore_set(fleet(mask), Arc::clone(&cat), &sections[1..]).unwrap_err();
        prop_assert!(matches!(err, CheckpointError::Mismatch { .. }), "{}", err);

        // Torn: cut inside the rows, or a row turned to garbage.
        let cut = bearer.find("| \"kept\"").unwrap() + "| \"ke".len();
        for torn in [bearer[..cut].to_string(), bearer.replacen("| \"kept\"", "| kept", 1)] {
            let mut damaged = sections.clone();
            damaged[0] = torn;
            for constraints in [fleet(mask), fleet(mask).split_off(1)] {
                let err = restore_set(constraints, Arc::clone(&cat), &damaged).unwrap_err();
                prop_assert!(matches!(err, CheckpointError::Format { .. }), "{}", err);
            }
        }
    }
}
