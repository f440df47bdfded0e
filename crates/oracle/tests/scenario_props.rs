//! Scenario properties that do not compare against committed goldens
//! (those live alone in `crates/workload/tests/scenario_golden.rs` — see
//! the note there on why that file holds exactly one test).
//!
//! The seeded property pins determinism over the whole parameter space:
//! any `(steps, entities, events, rate, seed)` generates the same history
//! and expectations twice in a row.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use rtic_history::log::format_log;
use rtic_oracle::property::check;
use rtic_workload::{library, ScenarioParams};

#[test]
fn goldens_contain_injected_expectations() {
    // The pinned parameterization must actually exercise the injection
    // paths — a golden with no expectations pins nothing interesting.
    // Keep equal to `golden_params()` in
    // `crates/workload/tests/scenario_golden.rs`.
    let params = ScenarioParams {
        steps: 60,
        entities: 16,
        events_per_step: 4,
        violation_rate: 0.1,
        seed: 7,
    };
    for scenario in library::all() {
        if scenario.name == "random" {
            continue; // random churn injects nothing by design
        }
        let gen = scenario.generate(&params);
        assert!(
            !gen.expected.is_empty(),
            "{} golden has no injected violations at the pinned seed",
            scenario.name
        );
    }
}

#[test]
fn generation_is_deterministic_across_the_parameter_space() {
    let draw = |rng: &mut StdRng| {
        let unit = (rng.gen_range(0u64..1 << 53)) as f64 / (1u64 << 53) as f64;
        let (steps, entities, events) = (
            rng.gen_range(1..60),
            rng.gen_range(4..32),
            rng.gen_range(0..6),
        );
        (steps, entities, events, 0.3 * unit, rng.next_u64())
    };
    check(51, 16, draw, |&(steps, entities, events, rate, seed)| {
        let params = ScenarioParams {
            steps,
            entities,
            events_per_step: events,
            violation_rate: rate,
            seed,
        };
        for scenario in library::all() {
            let a = scenario.generate(&params);
            let b = scenario.generate(&params);
            assert_eq!(
                format_log(&a.transitions),
                format_log(&b.transitions),
                "{} transitions not deterministic",
                scenario.name
            );
            assert_eq!(
                &a.expected, &b.expected,
                "{} expectations not deterministic",
                scenario.name
            );
            for e in &a.expected {
                assert!(
                    e.time.0 >= 1 && e.time.0 <= steps as u64,
                    "{} expectation at {} outside the horizon",
                    scenario.name,
                    e.time
                );
            }
        }
    });
}
