//! The golden corpus: every scenario of the workload registry folded into
//! replayable repro files.
//!
//! `tests/cross_checker_workloads.rs` used to be the only cross-backend
//! agreement check; the registry's scenarios now live as
//! `tests/corpus/*.repro` files generated here (one file per scenario
//! constraint), so the same regression test that replays minimized fuzz
//! counterexamples also replays every scenario on every mode, the live
//! `serve` daemon included.

use std::sync::Arc;

use rtic_workload::library::{self, Scenario, ScenarioParams};

use crate::repro::Repro;

/// Steps per workload in the golden corpus — long enough to cross every
/// deadline in each scenario, short enough to replay in milliseconds.
pub const GOLDEN_STEPS: usize = 48;

/// The shape a scenario's golden history is drawn at: the shared
/// defaults, except that the four paper-styled scenarios keep their
/// generators' own defaults, which their golden files were first
/// written with.
fn golden_params(s: &Scenario) -> ScenarioParams {
    let (entities, events_per_step, violation_rate) = match s.name {
        "reservations" | "library" => (64, 2, 0.05),
        "monitor" => (10, 8, 0.1),
        "audit" => (12, 2, 0.06),
        _ => (64, 8, 0.05),
    };
    ScenarioParams {
        steps: GOLDEN_STEPS,
        entities,
        events_per_step,
        violation_rate,
        ..ScenarioParams::default()
    }
}

/// Builds the golden corpus: `(file_stem, repro)` per scenario constraint,
/// deterministic (the generators are seeded). String values sort by first
/// interning, so the paper-styled scenarios, whose files came first, are
/// also generated first.
pub fn golden() -> Vec<(String, Repro)> {
    let mut out = Vec::new();
    let paper = library::all().iter().filter(|s| !s.production);
    for s in paper.chain(library::production()) {
        let g = s.generate(&golden_params(s));
        let name = s.name;
        for c in &g.constraints {
            out.push((
                format!("golden-{name}-{}", c.name),
                Repro {
                    seed: 0,
                    note: format!("golden corpus: {name} workload, constraint {}", c.name),
                    catalog: Arc::clone(&g.catalog),
                    constraint: c.clone(),
                    transitions: g.transitions.clone(),
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_corpus_is_deterministic_and_round_trips() {
        let a = golden();
        let b = golden();
        assert!(!a.is_empty());
        for ((na, ra), (nb, rb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(ra.to_text(), rb.to_text());
            let parsed = Repro::from_text(&ra.to_text()).expect("parses");
            assert_eq!(parsed.constraint, ra.constraint);
            assert_eq!(parsed.transitions, ra.transitions);
        }
    }
}
