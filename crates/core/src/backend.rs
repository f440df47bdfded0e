//! The canonical enumeration of checker backends.
//!
//! Every surface that names backends — the CLI's `--checker` flag, the
//! experiment tables in `rtic-bench`, and the differential-testing oracle
//! in `rtic-oracle` — used to carry its own copy of the
//! `incremental|naive|windowed|active` list, and the copies drifted. This
//! module is the single source of truth: parsing, display names, and the
//! ordered list all come from [`BackendId`].
//!
//! Construction stays with the callers (the `active` backend lives in a
//! downstream crate), but names and enumeration are shared.

use std::fmt;
use std::str::FromStr;

/// A per-constraint checker implementation, by name.
///
/// The order of [`BackendId::ALL`] is the canonical presentation order
/// (CLI help, experiment table columns, oracle backend lists).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BackendId {
    /// The paper's bounded history encoding ([`crate::IncrementalChecker`]).
    Incremental,
    /// Full-history re-evaluation ([`crate::NaiveChecker`]), the
    /// semantics-defining reference.
    Naive,
    /// Horizon-window re-evaluation ([`crate::NaiveChecker::windowed`]).
    Windowed,
    /// The trigger-based realization (`rtic-active`'s `ActiveChecker`).
    Active,
}

impl BackendId {
    /// Every backend, in canonical presentation order.
    pub const ALL: [BackendId; 4] = [
        BackendId::Incremental,
        BackendId::Naive,
        BackendId::Windowed,
        BackendId::Active,
    ];

    /// The backend's flag/report name.
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Incremental => "incremental",
            BackendId::Naive => "naive",
            BackendId::Windowed => "windowed",
            BackendId::Active => "active",
        }
    }

    /// Parses a flag value; `None` for unknown names.
    pub fn parse(s: &str) -> Option<BackendId> {
        BackendId::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The `a|b|c` listing for usage strings and error messages.
    pub fn flag_help() -> String {
        let names: Vec<&str> = BackendId::ALL.iter().map(|b| b.name()).collect();
        names.join("|")
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendId {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendId, String> {
        BackendId::parse(s).ok_or_else(|| {
            format!(
                "unknown checker `{s}` (expected {})",
                BackendId::flag_help()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_backend() {
        for b in BackendId::ALL {
            assert_eq!(BackendId::parse(b.name()), Some(b));
            assert_eq!(b.name().parse::<BackendId>(), Ok(b));
        }
        assert_eq!(BackendId::parse("nope"), None);
    }

    #[test]
    fn flag_help_lists_all_in_order() {
        assert_eq!(BackendId::flag_help(), "incremental|naive|windowed|active");
    }

    #[test]
    fn unknown_name_error_lists_choices() {
        let err = "hybrid".parse::<BackendId>().unwrap_err();
        assert!(err.contains("incremental|naive|windowed|active"));
    }
}
