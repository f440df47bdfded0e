//! Per-sample execution backends.
//!
//! Every sample is one generated history run through a checking backend;
//! the sample's outcome is the ordered list of violation lines, each
//! byte-identical to what `rtic check` prints. Batch backends step a
//! [`ConstraintSet`] in-process; the soak backend (see [`crate::soak`])
//! streams the history into a live `rtic serve` daemon and reads its
//! drained report back.

use std::sync::Arc;

use rtic_core::ConstraintSet;
use rtic_workload::Generated;

/// How a sample's history is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One `ConstraintSet` stepped in-process.
    Sequential,
    /// A live `rtic serve` daemon driven over a unix socket (soak mode);
    /// every sample is additionally cross-checked byte-for-byte against
    /// the sequential batch run of the same history.
    Soak,
}

impl Backend {
    /// All batch + soak backends, in registry order.
    pub const ALL: [Backend; 2] = [Backend::Sequential, Backend::Soak];

    /// CLI-facing name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Sequential => "sequential",
            Backend::Soak => "soak-serve",
        }
    }

    /// Parses a CLI backend name (with common aliases).
    pub fn parse(name: &str) -> Result<Backend, String> {
        match name {
            "sequential" | "set" => Ok(Backend::Sequential),
            "soak-serve" | "soak" => Ok(Backend::Soak),
            "fleet-sharded" | "sharded" => Err(
                "backend `fleet-sharded` was removed: the per-key shard plane was slower than \
                 the one engine on every production scenario (docs/PERFORMANCE.md §6a); \
                 use `sequential`"
                    .into(),
            ),
            other => Err(format!("unknown backend `{other}` (sequential|soak-serve)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Runs one generated history through a batch [`ConstraintSet`]
/// ([`Backend::Sequential`]) and returns the ordered violation lines.
pub fn run_batch(gen: &Generated) -> Result<Vec<String>, String> {
    let mut set = ConstraintSet::new(gen.constraints.iter().cloned(), Arc::clone(&gen.catalog))
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?;
    let mut lines = Vec::new();
    for t in &gen.transitions {
        let reports = set.step(t.time, &t.update).map_err(|e| e.to_string())?;
        lines.extend(reports.iter().filter(|r| !r.ok()).map(ToString::to_string));
    }
    Ok(lines)
}

/// Extracts the constraint name from a violation line
/// (`@t VIOLATION <name> x<n>: {…}`).
pub fn violated_constraint(line: &str) -> Option<&str> {
    let mut tokens = line.split_whitespace();
    let _time = tokens.next()?;
    if tokens.next()? != "VIOLATION" {
        return None;
    }
    tokens.next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_workload::{library, ScenarioParams};

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.as_str()).unwrap(), b);
        }
        assert_eq!(Backend::parse("soak").unwrap(), Backend::Soak);
        let gone = Backend::parse("fleet-sharded").unwrap_err();
        assert!(
            gone.contains("was removed") && gone.contains("§6a"),
            "{gone}"
        );
        assert!(Backend::parse("naive").is_err());
        assert!(Backend::parse("parallel").is_err(), "removed with the pool");
    }

    #[test]
    fn violation_lines_parse_back_to_their_constraint() {
        let params = ScenarioParams {
            steps: 60,
            entities: 12,
            events_per_step: 3,
            violation_rate: 0.2,
            seed: 3,
        };
        let gen = library::find("telemetry").unwrap().generate(&params);
        let lines = run_batch(&gen).unwrap();
        assert!(!lines.is_empty());
        let names: Vec<&str> = gen.constraints.iter().map(|c| c.name.as_str()).collect();
        for line in &lines {
            let name = violated_constraint(line).expect("line parses");
            assert!(names.contains(&name), "unknown constraint in `{line}`");
        }
    }
}
