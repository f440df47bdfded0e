//! Fault injection for chaos testing.
//!
//! A [`FailPlan`] is an explicit, per-run set of named failure points,
//! parsed from a spec string (CLI `--failpoints` flag or the
//! `RTIC_FAILPOINTS` environment variable). Code that wants to be
//! chaos-testable asks the plan at a named *site* — e.g.
//! `"checkpoint.write"` before persisting a checkpoint — and the plan
//! answers with the fault to inject, if any.
//!
//! The plan is an explicit value threaded through call sites rather than
//! a process-global registry: the CLI test-suite runs many monitors
//! in-process and in parallel, and global failpoint state would race
//! across them.
//!
//! # Spec grammar
//!
//! ```text
//! spec    := entry (';' entry)*
//! entry   := site '=' action ('@' nth)?
//! action  := 'io-error' | 'abort' | 'panic' | 'truncate:' BYTES | 'bitflip:' BIT
//! ```
//!
//! `@nth` (1-based) makes the fault fire only on the nth time the site is
//! checked; without it the fault fires on every check. Examples:
//!
//! * `run.abort=abort@7` — simulate a crash while reading the 7th transition.
//! * `checkpoint.write=bitflip:100` — flip bit 100 of every checkpoint
//!   before it reaches the disk (a torn/corrupt write).
//! * `engine-panic:no_dupes=panic@3` — make the engine for constraint
//!   `no_dupes` panic while processing its 3rd transition.
//!
//! # Named sites
//!
//! Sites are free-form strings owned by their call sites; the ones the
//! chaos drills exercise today:
//!
//! | site               | checked by                                     |
//! |--------------------|------------------------------------------------|
//! | `run.abort`        | `rtic check` before each transition            |
//! | `checkpoint.write` | `rtic check` persisting a checkpoint           |
//! | `engine-panic:<c>` | the fleet engine for constraint `<c>`          |
//! | `serve.accept`     | the daemon's accept loop, per poll             |
//! | `serve.read`       | the daemon, after each client line read        |
//! | `serve.step`       | the daemon's engine loop, per dequeued job     |
//! | `serve.write`      | the daemon, before each reply write (one per client per pass) |
//! | `serve.checkpoint` | the daemon's checkpoint writer thread, per write |
//!
//! `serve.step=abort@N` is the daemon's kill -9 model: the engine dies
//! mid-job with no reply, no cleanup, and no final checkpoint, which is
//! exactly what the `--resume` recovery drills need to exercise. A
//! checkpoint write already in flight still lands (the daemon joins its
//! writer thread), so a drill knows which checkpoint it resumes from.

use std::collections::HashMap;
use std::sync::Mutex;

/// The fault a [`FailPlan`] injects at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Fail the operation with an injected I/O error.
    IoError,
    /// Abort the whole run, simulating a process kill.
    Abort,
    /// Panic at the site.
    Panic,
    /// Corrupt a byte payload by truncating it to the given length.
    Truncate(usize),
    /// Corrupt a byte payload by flipping the given bit (bit index
    /// `i` flips bit `i % 8` of byte `i / 8`, wrapping at the payload end).
    BitFlip(usize),
}

#[derive(Debug)]
struct Point {
    action: FailAction,
    /// 1-based hit on which the fault fires; `None` fires on every hit.
    at_hit: Option<u64>,
    hits: u64,
}

/// A named set of failure points for one run. Checking a site counts a
/// hit even when no fault fires, so `@nth` triggers are deterministic.
#[derive(Debug, Default)]
pub struct FailPlan {
    points: Mutex<HashMap<String, Point>>,
    /// Whether `points` is non-empty. The set of points is fixed once the
    /// plan is built (only hit counts change), so an empty plan answers
    /// every check without taking the lock.
    armed: bool,
}

/// Environment variable consulted by [`FailPlan::from_env`].
pub const ENV_VAR: &str = "RTIC_FAILPOINTS";

impl FailPlan {
    /// An empty plan that never injects anything.
    pub fn none() -> FailPlan {
        FailPlan::default()
    }

    /// `true` if the plan has no failure points.
    pub fn is_empty(&self) -> bool {
        !self.armed
    }

    /// Parse a failpoint spec (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FailPlan, String> {
        let mut points = HashMap::new();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("failpoint `{entry}`: expected `site=action`"))?;
            let site = site.trim();
            if site.is_empty() {
                return Err(format!("failpoint `{entry}`: empty site name"));
            }
            let (action_text, at_hit) = match rest.split_once('@') {
                Some((a, n)) => {
                    let nth: u64 = n
                        .trim()
                        .parse()
                        .map_err(|_| format!("failpoint `{entry}`: bad hit count `{n}`"))?;
                    if nth == 0 {
                        return Err(format!("failpoint `{entry}`: hit count is 1-based"));
                    }
                    (a.trim(), Some(nth))
                }
                None => (rest.trim(), None),
            };
            let action = parse_action(action_text)
                .ok_or_else(|| format!("failpoint `{entry}`: unknown action `{action_text}`"))?;
            points.insert(
                site.to_string(),
                Point {
                    action,
                    at_hit,
                    hits: 0,
                },
            );
        }
        Ok(FailPlan {
            armed: !points.is_empty(),
            points: Mutex::new(points),
        })
    }

    /// Build a plan from the `RTIC_FAILPOINTS` environment variable;
    /// an unset or empty variable yields the empty plan.
    pub fn from_env() -> Result<FailPlan, String> {
        match std::env::var(ENV_VAR) {
            Ok(spec) if !spec.trim().is_empty() => FailPlan::parse(&spec),
            _ => Ok(FailPlan::none()),
        }
    }

    /// Count a hit at `site` and return the fault to inject, if any.
    pub fn check(&self, site: &str) -> Option<FailAction> {
        if !self.armed {
            return None;
        }
        let mut points = self.points.lock().ok()?;
        let point = points.get_mut(site)?;
        point.hits += 1;
        match point.at_hit {
            Some(nth) if point.hits != nth => None,
            _ => Some(point.action),
        }
    }

    /// Armed engine panics: entries named `engine-panic:<constraint>` with
    /// a `panic@nth` action, returned as `(constraint, nth)` pairs. These
    /// are wired into the fleet by the caller rather than checked at a
    /// site, because the panic has to originate inside the engine step.
    pub fn engine_panics(&self) -> Vec<(String, u64)> {
        let points = match self.points.lock() {
            Ok(points) => points,
            Err(_) => return Vec::new(),
        };
        let mut armed: Vec<(String, u64)> = points
            .iter()
            .filter_map(|(site, point)| {
                let constraint = site.strip_prefix("engine-panic:")?;
                if point.action != FailAction::Panic {
                    return None;
                }
                Some((constraint.to_string(), point.at_hit.unwrap_or(1)))
            })
            .collect();
        armed.sort();
        armed
    }
}

fn parse_action(text: &str) -> Option<FailAction> {
    if let Some(len) = text.strip_prefix("truncate:") {
        return len.trim().parse().ok().map(FailAction::Truncate);
    }
    if let Some(bit) = text.strip_prefix("bitflip:") {
        return bit.trim().parse().ok().map(FailAction::BitFlip);
    }
    match text {
        "io-error" => Some(FailAction::IoError),
        "abort" => Some(FailAction::Abort),
        "panic" => Some(FailAction::Panic),
        _ => None,
    }
}

/// Apply a byte-corrupting action ([`FailAction::Truncate`] or
/// [`FailAction::BitFlip`]) to a payload in place. Other actions are a
/// no-op here; they fail the surrounding operation instead.
pub fn apply_corruption(bytes: &mut Vec<u8>, action: FailAction) {
    match action {
        FailAction::Truncate(len) => bytes.truncate(len),
        FailAction::BitFlip(bit) => {
            if !bytes.is_empty() {
                let idx = (bit / 8) % bytes.len();
                bytes[idx] ^= 1 << (bit % 8);
            }
        }
        FailAction::IoError | FailAction::Abort | FailAction::Panic => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multi_entry_specs() {
        let plan = FailPlan::parse(
            "run.abort=abort@3; checkpoint.write=bitflip:64; engine-panic:demo=panic@2",
        )
        .unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.engine_panics(), vec![("demo".to_string(), 2)]);
        // bitflip fires on every hit
        assert_eq!(
            plan.check("checkpoint.write"),
            Some(FailAction::BitFlip(64))
        );
        assert_eq!(
            plan.check("checkpoint.write"),
            Some(FailAction::BitFlip(64))
        );
        // abort fires only on the 3rd hit
        assert_eq!(plan.check("run.abort"), None);
        assert_eq!(plan.check("run.abort"), None);
        assert_eq!(plan.check("run.abort"), Some(FailAction::Abort));
        assert_eq!(plan.check("run.abort"), None);
        // unknown sites never fire
        assert_eq!(plan.check("nope"), None);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FailPlan::parse("no-equals").is_err());
        assert!(FailPlan::parse("x=explode").is_err());
        assert!(FailPlan::parse("x=abort@0").is_err());
        assert!(FailPlan::parse("x=truncate:abc").is_err());
        assert!(FailPlan::parse("=abort").is_err());
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FailPlan::parse("").unwrap().is_empty());
        assert!(FailPlan::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn an_empty_plan_never_fires_and_an_armed_one_fires_on_its_nth_hit() {
        let empty = FailPlan::none();
        assert!(empty.is_empty());
        assert_eq!(empty.check("serve.write"), None);
        assert_eq!(FailPlan::parse(" ; ").unwrap().check("serve.write"), None);

        let plan = FailPlan::parse("serve.write=io-error@3").unwrap();
        assert!(!plan.is_empty());
        let fired: Vec<Option<FailAction>> = (0..5).map(|_| plan.check("serve.write")).collect();
        assert_eq!(
            fired,
            vec![None, None, Some(FailAction::IoError), None, None],
            "fires on exactly the 3rd hit"
        );
        assert_eq!(plan.check("serve.read"), None, "other sites stay quiet");
    }

    #[test]
    fn corruption_helpers() {
        let mut bytes = vec![0u8; 4];
        apply_corruption(&mut bytes, FailAction::BitFlip(9));
        assert_eq!(bytes, vec![0, 2, 0, 0]);
        apply_corruption(&mut bytes, FailAction::Truncate(2));
        assert_eq!(bytes, vec![0, 2]);
        let mut empty: Vec<u8> = Vec::new();
        apply_corruption(&mut empty, FailAction::BitFlip(3));
        assert!(empty.is_empty());
    }
}
