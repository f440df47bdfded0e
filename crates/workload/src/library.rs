//! The scenario registry: every workload generator, enumerable by name.
//!
//! The CLI (`rtic generate`), the bench recorder, and the oracle's golden
//! corpus all resolve scenarios here instead of hard-coding generator
//! structs. Each entry maps the shared [`ScenarioParams`] knobs onto the
//! generator's own parameters; scenario-specific knobs (windows, rates)
//! stay at their defaults so a `(name, params)` pair fully determines the
//! generated history.

use crate::{
    Access, Audit, Fraud, Generated, Library, Monitor, RandomWorkload, RateLimit, Reservations,
    Telemetry,
};

/// Shared generator knobs every scenario understands.
///
/// `entities` is the entity-key domain size (accounts, devices, clients,
/// users, sensors, …) — production shapes run it at 10⁵–10⁶.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioParams {
    /// Number of transitions (one tick apart).
    pub steps: usize,
    /// Entity-key domain size.
    pub entities: usize,
    /// Honest events per step.
    pub events_per_step: usize,
    /// Injected-violation probability (per step or per lifecycle start,
    /// scenario-dependent).
    pub violation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioParams {
    fn default() -> ScenarioParams {
        ScenarioParams {
            steps: 200,
            entities: 64,
            events_per_step: 8,
            violation_rate: 0.05,
            seed: 42,
        }
    }
}

/// A named, registered workload generator.
pub struct Scenario {
    /// Registry name (CLI-facing).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// True for the production-flavor scenarios (fraud, telemetry,
    /// ratelimit, access); false for the paper-styled originals.
    pub production: bool,
    /// Builds the generated workload from the shared knobs.
    pub build: fn(&ScenarioParams) -> Generated,
}

impl Scenario {
    /// Generates this scenario's workload.
    pub fn generate(&self, params: &ScenarioParams) -> Generated {
        (self.build)(params)
    }
}

static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "fraud",
        summary: "fraud/AML: structuring bursts (windowed count) + large-transfer screening",
        production: true,
        build: |p| {
            Fraud {
                steps: p.steps,
                accounts: p.entities,
                events_per_step: p.events_per_step,
                violation_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "telemetry",
        summary: "IoT telemetry: heartbeat liveness SLA + delivery freshness, churning sessions",
        production: true,
        build: |p| {
            Telemetry {
                steps: p.steps,
                devices: p.entities,
                events_per_step: p.events_per_step,
                violation_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "ratelimit",
        summary: "rate limiting: consecutive-tick hammering + banned-client gate",
        production: true,
        build: |p| {
            RateLimit {
                steps: p.steps,
                clients: p.entities,
                events_per_step: p.events_per_step,
                violation_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "access",
        summary: "access control: session TTLs, sudo gating, approval trails for grants",
        production: true,
        build: |p| {
            Access {
                steps: p.steps,
                users: p.entities,
                events_per_step: p.events_per_step,
                violation_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "reservations",
        summary: "paper: confirm-within-deadline (bounded once under negation)",
        production: false,
        build: |p| {
            Reservations {
                steps: p.steps,
                new_per_step: p.events_per_step,
                violation_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "library",
        summary: "paper: return-within-period (since with an unbounded bound)",
        production: false,
        build: |p| {
            Library {
                steps: p.steps,
                checkouts_per_step: p.events_per_step,
                violation_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "monitor",
        summary: "paper: ack-within-window + no-spike (hist, prev, order comparisons)",
        production: false,
        build: |p| {
            Monitor {
                steps: p.steps,
                sensors: p.entities,
                violation_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "audit",
        summary: "paper: transaction auditing (assert mode, exists under negation)",
        production: false,
        build: |p| {
            Audit {
                steps: p.steps,
                accounts: p.entities,
                txns_per_step: p.events_per_step,
                unapproved_rate: p.violation_rate,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
    Scenario {
        name: "random",
        summary: "uniform random churn for scaling sweeps (no injected violations)",
        production: false,
        build: |p| {
            RandomWorkload {
                steps: p.steps,
                domain: p.entities,
                updates_per_step: p.events_per_step,
                seed: p.seed,
                ..Default::default()
            }
            .generate()
        },
    },
];

/// Every registered scenario, production-flavor entries first.
pub fn all() -> &'static [Scenario] {
    SCENARIOS
}

/// The four production-flavor scenarios.
pub fn production() -> impl Iterator<Item = &'static Scenario> {
    SCENARIOS.iter().filter(|s| s.production)
}

/// Looks a scenario up by registry name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// The registry names, for usage strings and error messages.
pub fn names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_findable() {
        assert_eq!(all().len(), 9);
        assert_eq!(production().count(), 4);
        for s in all() {
            assert!(std::ptr::eq(find(s.name).unwrap(), s));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_scenario_generates_under_shared_params() {
        let params = ScenarioParams {
            steps: 40,
            entities: 16,
            events_per_step: 4,
            violation_rate: 0.1,
            seed: 7,
        };
        for s in all() {
            let gen = s.generate(&params);
            assert_eq!(gen.transitions.len(), 40, "{} transition count", s.name);
            assert!(!gen.constraints.is_empty(), "{} has constraints", s.name);
            for exp in &gen.expected {
                assert!(
                    exp.time.0 >= 1 && exp.time.0 <= 40,
                    "{} expectation inside the horizon",
                    s.name
                );
            }
        }
    }

    #[test]
    fn production_scenarios_inject_violations() {
        let params = ScenarioParams {
            steps: 120,
            entities: 32,
            events_per_step: 6,
            violation_rate: 0.15,
            seed: 11,
        };
        for s in production() {
            let gen = s.generate(&params);
            assert!(!gen.expected.is_empty(), "{} injects at this seed", s.name);
        }
    }
}
