//! Golden-file test for every registered scenario.
//!
//! Each scenario has a committed golden under `tests/golden/` capturing
//! the constraints, the injected `Expected` set, and the full transition
//! stream for one pinned parameterization. Same seed ⇒ byte-identical
//! golden, across machines and releases; a diff here means generator
//! behavior changed and the golden must be consciously re-blessed:
//!
//! ```text
//! RTIC_BLESS=1 cargo test -p rtic-workload --test scenario_golden
//! ```
//!
//! This must stay the **only** test in its binary. `Symbol`'s `Ord` is
//! intern order, and relations and bindings iterate in `Ord` order, so the
//! rendered text depends on which strings the process interned first. A
//! second test in the same process (the determinism property lived here
//! once) races this one to the interner and the goldens drift at random.
//! Everything else about scenarios, the determinism property included,
//! lives in `crates/oracle/tests/scenario_props.rs`.

use rtic_history::log::format_log;
use rtic_workload::{library, ScenarioParams};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The pinned parameterization every golden was recorded at.
fn golden_params() -> ScenarioParams {
    ScenarioParams {
        steps: 60,
        entities: 16,
        events_per_step: 4,
        violation_rate: 0.1,
        seed: 7,
    }
}

/// Renders a scenario run as the canonical golden text: constraints,
/// expectations (constraint, tick, witness), then the transition log.
fn render(name: &str, params: &ScenarioParams) -> String {
    let scenario = library::find(name).expect("registered scenario");
    let gen = scenario.generate(params);
    let mut out = String::new();
    let _ = writeln!(out, "# scenario: {name}");
    let _ = writeln!(
        out,
        "# params: steps={} entities={} events={} rate={} seed={}",
        params.steps, params.entities, params.events_per_step, params.violation_rate, params.seed
    );
    for c in &gen.constraints {
        let _ = writeln!(out, "constraint {c}");
    }
    for e in &gen.expected {
        let _ = write!(out, "expected {} {}", e.constraint, e.time);
        for (var, value) in &e.witness {
            let _ = write!(out, " {var}={value:?}");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "---");
    out.push_str(&format_log(&gen.transitions));
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"))
}

#[test]
fn every_scenario_matches_its_committed_golden() {
    let params = golden_params();
    let bless = std::env::var("RTIC_BLESS").is_ok();
    let mut mismatches = Vec::new();
    for scenario in library::all() {
        let current = render(scenario.name, &params);
        let path = golden_path(scenario.name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
            std::fs::write(&path, &current).expect("write golden");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden for {}: {e} (run with RTIC_BLESS=1 to record)",
                scenario.name
            )
        });
        if committed != current {
            mismatches.push(scenario.name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "scenario generators drifted from their goldens: {mismatches:?} \
         (if intentional, re-bless with RTIC_BLESS=1)"
    );
}
