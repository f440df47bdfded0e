//! A constraint *fleet*: many constraints over one shared database, with
//! relevance dispatch deciding per step which constraints actually need
//! evaluation.
//!
//! Run with: `cargo run --example fleet`

use std::sync::Arc;

use rtic::core::ConstraintSet;
use rtic::relation::{tuple, Catalog, Schema, Sort, Update};
use rtic::temporal::parser::parse_constraint;
use rtic::temporal::TimePoint;

fn main() {
    // A building with badge readers, door sensors, and zone alarms. Each
    // constraint watches its own slice of the schema — most updates are
    // irrelevant to most constraints, which is what dispatch exploits.
    let catalog = Arc::new(
        Catalog::new()
            .with("checkin", Schema::of(&[("guest", Sort::Str)]))
            .unwrap()
            .with("checkout", Schema::of(&[("guest", Sort::Str)]))
            .unwrap()
            .with("keycard", Schema::of(&[("guest", Sort::Str)]))
            .unwrap()
            .with("alarm", Schema::of(&[("zone", Sort::Int)]))
            .unwrap()
            .with("reset", Schema::of(&[("zone", Sort::Int)]))
            .unwrap(),
    );

    let constraints = vec![
        // Nobody checks out who never checked in.
        parse_constraint("deny ghost_exit: checkout(g) && !once checkin(g)").unwrap(),
        // A keycard used 6+ ticks after check-in without a checkout.
        parse_constraint("deny lingering: keycard(g) && once[6,*] checkin(g) && !once checkout(g)")
            .unwrap(),
        // An alarm standing with no reset seen in the last 2 ticks.
        parse_constraint("deny unanswered: alarm(z) && !once[0,2] reset(z)").unwrap(),
    ];

    // Constraints step in registration order; reports come back in it.
    let mut fleet = ConstraintSet::new(constraints, Arc::clone(&catalog)).unwrap();
    println!(
        "fleet: {} constraints over one shared database\n",
        fleet.len()
    );

    let stream: Vec<(u64, Update)> = vec![
        (1, Update::new().with_insert("checkin", tuple!["ann"])),
        // Alarm traffic only — the guest constraints are quiescent here.
        (2, Update::new().with_insert("alarm", tuple![4])),
        (3, Update::new().with_insert("reset", tuple![4])),
        (4, Update::new().with_delete("alarm", tuple![4])),
        (5, Update::new()),
        // Bob checks out without ever checking in: ghost_exit fires.
        (6, Update::new().with_insert("checkout", tuple!["bob"])),
        (7, Update::new().with_delete("checkout", tuple!["bob"])),
        // Ann's keycard, 7 ticks after check-in, no checkout: lingering.
        (8, Update::new().with_insert("keycard", tuple!["ann"])),
        (9, Update::new().with_delete("keycard", tuple!["ann"])),
        (12, Update::new()),
    ];

    for (t, update) in stream {
        let reports = fleet.step(TimePoint(t), &update).unwrap();
        print!("@{t}:");
        let mut clean = true;
        for r in &reports {
            if !r.ok() {
                print!(" [{}: {}]", r.constraint, r.violations);
                clean = false;
            }
        }
        println!("{}", if clean { " ok" } else { "" });
    }

    // How much evaluation did relevance dispatch actually save?
    let d = fleet.dispatch_stats();
    println!(
        "\ndispatch: {} engine-steps — {} affected, {} asleep until its next \
         deadline, {} quiescent but fully evaluated",
        d.total(),
        d.affected,
        d.skipped,
        d.quiescent_full,
    );
    println!("shared-state space: {}", fleet.space());
}
