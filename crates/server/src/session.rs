//! One recovery path: how `rtic check` and `rtic serve` restore, replay
//! and seal a checkpoint.
//!
//! A resumed run walks its rotation set newest-first ([`recover`]),
//! restores the fleet from the first intact candidate, arms the
//! `engine-panic:` failpoints and announces its replay cursor
//! ([`start`]), then skips every transition at or before that cursor
//! ([`Replay::covers`]): the run that wrote the checkpoint already
//! checked them. Every checkpoint it writes is one [`seal`]ed container
//! of the fleet's sections, plus the daemon's serve-report section.
//!
//! What differs between the two commands stays with them: the policy for
//! an empty rotation set (`check` refuses, `serve` starts fresh), the
//! wording of a refusal, how a sealed container reaches the disk
//! ([`Rotation::write`] or the daemon's writer thread) and the failpoint
//! site that write asks.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rtic_core::checkpoint::{self, CheckpointError};
use rtic_core::observe::{CheckpointFallback, CheckpointSection};
use rtic_core::{ConstraintSet, EncodingOptions, StepEvent, StepObserver};
use rtic_relation::{Catalog, Symbol};
use rtic_resilience::{container, FailPlan, Rotation};
use rtic_temporal::{Constraint, TimePoint};

use crate::report::ServeReport;

/// A fleet restored from the newest intact candidate of a rotation set.
pub struct Recovered {
    /// The candidate that opened.
    pub path: PathBuf,
    /// The fleet, every engine restored from its section.
    pub set: ConstraintSet,
    /// The serve-report section, when a daemon sealed one beside the
    /// engines.
    pub report: Option<String>,
}

/// Why a rotation set that holds candidates restored no fleet.
#[derive(Debug)]
pub enum Refused {
    /// Every candidate of the rotation set at this primary path was
    /// corrupt or unreadable.
    Corrupt(PathBuf),
    /// The candidate at this path opened, but its sections do not
    /// restore the fleet.
    Restore(PathBuf, CheckpointError),
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refused::Corrupt(primary) => write!(
                f,
                "cannot resume from `{}`: every candidate in the rotation set is corrupt or \
                 unreadable",
                primary.display()
            ),
            Refused::Restore(path, e) => write!(f, "cannot resume from `{}`: {e}", path.display()),
        }
    }
}

/// A fleet of `constraints` with no history.
pub fn fresh(
    constraints: &[Constraint],
    catalog: &Arc<Catalog>,
    options: EncodingOptions,
) -> Result<ConstraintSet, String> {
    ConstraintSet::with_options(constraints.iter().cloned(), Arc::clone(catalog), options)
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))
}

/// Walks `rotation` newest-first and restores `constraints` from the
/// first intact candidate. Each rejected candidate is observed as a
/// `CheckpointFallback` and printed as a `checkpoint candidate … rejected:`
/// line; each restored engine section is observed as a
/// `CheckpointRestore`. `Ok(None)` when the rotation set is empty.
pub fn recover(
    rotation: &Rotation,
    constraints: &[Constraint],
    catalog: &Arc<Catalog>,
    options: EncodingOptions,
    obs: &mut dyn StepObserver,
    out: &mut String,
) -> Result<Option<Recovered>, Refused> {
    let outcome = rotation.recover();
    for (cand, why) in &outcome.rejected {
        let path = cand.display().to_string();
        let _ = writeln!(out, "checkpoint candidate `{path}` rejected: {why}");
        obs.observe(&StepEvent::CheckpointFallback(CheckpointFallback {
            path,
            detail: why.clone(),
        }));
    }
    let Some((path, mut sections, ())) = outcome.restored else {
        return match outcome.rejected.is_empty() {
            true => Ok(None),
            false => Err(Refused::Corrupt(rotation.primary().to_path_buf())),
        };
    };
    let at = sections.iter().position(|s| ServeReport::is_section(s));
    let report = at.map(|at| sections.remove(at));
    let (fleet, catalog) = (constraints.iter().cloned(), Arc::clone(catalog));
    let set = checkpoint::restore_set_with_options(fleet, catalog, options, &sections)
        .map_err(|e| Refused::Restore(path.clone(), e))?;
    for section in &sections {
        if let Some(name) = checkpoint::section_constraint_name(section) {
            obs.observe(&StepEvent::CheckpointRestore(CheckpointSection {
                constraint: Symbol::intern(name),
                bytes: section.len(),
            }));
        }
    }
    Ok(Some(Recovered { path, set, report }))
}

/// Arms every `engine-panic:<constraint>` failpoint of `faults` on `set`
/// and, for a fleet resumed from `resumed`, prints where it resumed: at
/// its cursor, or at the start of the `input` when the checkpoint was
/// written before the first transition. Returns the run's replay test.
pub fn start(
    set: &mut ConstraintSet,
    faults: &FailPlan,
    resumed: Option<&Path>,
    input: &str,
    out: &mut String,
) -> Result<Replay, String> {
    for (name, nth) in faults.engine_panics() {
        if !set.arm_panic(&name, nth) {
            return Err(format!(
                "failpoint `engine-panic:{name}`: no such constraint in the fleet"
            ));
        }
    }
    let Some(path) = resumed else {
        return Ok(Replay::default());
    };
    let cursor = set.last_time();
    let at = cursor.map_or_else(|| format!("the start of the {input}"), |t| format!("t={t}"));
    let _ = writeln!(out, "resumed from `{}` at {at}", path.display());
    Ok(Replay {
        cursor,
        ..Replay::default()
    })
}

/// The replay test of a run: a resumed run skips the transitions its
/// checkpoint covers instead of reporting them twice.
#[derive(Debug, Default)]
pub struct Replay {
    /// The time the checkpoint covers up to, if the run resumed from one
    /// written after a transition.
    pub cursor: Option<TimePoint>,
    skipped: u64,
    past: bool,
}

impl Replay {
    /// Whether the transition at `time` is covered (`time <= cursor`);
    /// a covered one is counted as skipped.
    pub fn covers(&mut self, time: TimePoint) -> bool {
        let covered = self.cursor.is_some_and(|cursor| time <= cursor);
        self.skipped += u64::from(covered);
        self.past |= !covered;
        covered
    }

    /// Whether the input is still inside the prefix the checkpoint
    /// covers: no transition past the cursor has been seen yet.
    pub fn in_prefix(&self) -> bool {
        self.cursor.is_some() && !self.past
    }

    /// Prints how many covered transitions were skipped, if any.
    pub fn finish(&self, out: &mut String) {
        if self.skipped > 0 {
            let _ = writeln!(
                out,
                "skipped {} transition(s) already covered by the checkpoint",
                self.skipped
            );
        }
    }
}

/// Seals `set`'s sections, and `extra` after them, into one checkpoint
/// container, observing one `CheckpointSave` per engine section.
pub fn seal(set: &ConstraintSet, extra: Option<&str>, obs: &mut dyn StepObserver) -> String {
    let sections = checkpoint::save_set(set);
    for (name, text) in &sections {
        obs.observe(&StepEvent::CheckpointSave(CheckpointSection {
            constraint: *name,
            bytes: text.len(),
        }));
    }
    container::seal(sections.iter().map(|(_, text)| text.as_str()).chain(extra))
}
