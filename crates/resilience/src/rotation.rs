//! Checkpoint rotation and newest-first crash recovery.
//!
//! A [`Rotation`] manages a small family of checkpoint files —
//! `state.ckpt`, `state.ckpt.1`, `state.ckpt.2`, … — so that a corrupt
//! newest checkpoint (torn write, bit rot) never strands a run:
//! [`Rotation::recover`] walks the candidates newest-first, validates
//! each through the checksummed container, and falls back to the first
//! intact one, reporting every rejected candidate along the way.

use std::fs;
use std::path::{Path, PathBuf};

use crate::container;
use crate::durable::{self, DurableError};
use crate::failpoint::FailPlan;

/// A rotated family of checkpoint files rooted at one path.
#[derive(Debug, Clone)]
pub struct Rotation {
    path: PathBuf,
    keep: usize,
}

/// The result of walking a rotation set for an intact checkpoint.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The first intact candidate: its path and its checkpoint sections.
    /// `None` when no candidate exists or all of them are corrupt. The
    /// `()` keeps the tuple's arity for the frozen `benchmark/` crate,
    /// which destructures three fields; the next `[benchmark]` PR drops it.
    pub restored: Option<(PathBuf, Vec<String>, ())>,
    /// Candidates that existed but were rejected, newest first, with the
    /// typed error that rejected them (rendered for display).
    pub rejected: Vec<(PathBuf, String)>,
}

impl Rotation {
    /// A rotation rooted at `path`, keeping at most `keep` generations
    /// (`keep` is clamped to at least 1, i.e. just the primary file).
    pub fn new(path: impl Into<PathBuf>, keep: usize) -> Rotation {
        Rotation {
            path: path.into(),
            keep: keep.max(1),
        }
    }

    /// The primary (newest) checkpoint path.
    pub fn primary(&self) -> &Path {
        &self.path
    }

    /// All candidate paths, newest first: `path`, `path.1`, `path.2`, …
    pub fn candidates(&self) -> Vec<PathBuf> {
        (0..self.keep).map(|i| self.candidate(i)).collect()
    }

    fn candidate(&self, index: usize) -> PathBuf {
        if index == 0 {
            self.path.clone()
        } else {
            PathBuf::from(format!("{}.{index}", self.path.display()))
        }
    }

    /// Atomically write `text` as the new primary, shifting the existing
    /// generations down one slot. The temp file is written and fsynced
    /// before anything rotates, so a failed write leaves the set as it
    /// was. Asks `faults` at `site` so chaos tests can inject write
    /// failures or on-disk corruption.
    pub fn write(&self, text: &str, faults: &FailPlan, site: &str) -> Result<(), DurableError> {
        let tmp = durable::write_temp(&self.path, text.as_bytes(), faults, site)?;
        for i in (1..self.keep).rev() {
            let from = self.candidate(i - 1);
            let to = self.candidate(i);
            match fs::rename(&from, &to) {
                // An un-filled slot: nothing to shift down.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                result => result.map_err(|e| DurableError::Io {
                    path: to,
                    op: "rotate",
                    message: e.to_string(),
                })?,
            }
        }
        durable::commit(&tmp, &self.path)
    }

    /// Walk the rotation newest-first and return the first candidate
    /// that validates, along with every corrupt candidate skipped on the
    /// way. Missing files are skipped silently (an un-filled rotation
    /// slot is normal); existing-but-invalid files are reported.
    pub fn recover(&self) -> RecoveryOutcome {
        let mut rejected = Vec::new();
        for candidate in self.candidates() {
            let bytes = match fs::read(&candidate) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    rejected.push((candidate, format!("cannot read: {e}")));
                    continue;
                }
            };
            match container::open_any(&bytes) {
                Ok(sections) => {
                    return RecoveryOutcome {
                        restored: Some((candidate, sections, ())),
                        rejected,
                    };
                }
                Err(e) => rejected.push((candidate, e.to_string())),
            }
        }
        RecoveryOutcome {
            restored: None,
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::seal;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtic-rotation-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn section(tag: &str) -> String {
        format!("rtic-checkpoint v1\nconstraint {tag}\nbody G {tag}\ntime 1\nsteps 1\n")
    }

    #[test]
    fn rotation_keeps_generations_newest_first() {
        let rot = Rotation::new(temp_root("gen.ckpt"), 3);
        let plan = FailPlan::none();
        for tag in ["a", "b", "c", "d"] {
            rot.write(&seal([section(tag).as_str()]), &plan, "t")
                .unwrap();
        }
        let outcome = rot.recover();
        let (path, sections, _) = outcome.restored.unwrap();
        assert_eq!(path, rot.primary());
        assert!(sections[0].contains("constraint d"));
        // The oldest surviving generation is "b" (a rotated off the end).
        let bytes = fs::read(rot.candidates()[2].clone()).unwrap();
        let old = container::open_any(&bytes).unwrap();
        assert!(old[0].contains("constraint b"));
        assert!(outcome.rejected.is_empty());
    }

    #[test]
    fn recover_falls_back_past_corrupt_newest() {
        let rot = Rotation::new(temp_root("fall.ckpt"), 3);
        let plan = FailPlan::none();
        rot.write(&seal([section("good").as_str()]), &plan, "t")
            .unwrap();
        // The next write is torn: truncated mid-payload on disk.
        let torn = FailPlan::parse("t=truncate:80").unwrap();
        rot.write(&seal([section("bad").as_str()]), &torn, "t")
            .unwrap();
        let outcome = rot.recover();
        let (path, sections, _) = outcome.restored.unwrap();
        assert_eq!(path, rot.candidates()[1]);
        assert!(sections[0].contains("constraint good"));
        assert_eq!(outcome.rejected.len(), 1);
        assert!(outcome.rejected[0].1.contains("truncated"));
    }

    #[test]
    fn a_failed_write_rotates_nothing() {
        let rot = Rotation::new(temp_root("failed.ckpt"), 3);
        for path in rot.candidates() {
            fs::remove_file(path).ok();
        }
        let plan = FailPlan::parse("t=io-error@3").unwrap();
        for tag in ["a", "b", "c"] {
            let result = rot.write(&seal([section(tag).as_str()]), &plan, "t");
            assert_eq!(result.is_err(), tag == "c", "{tag}");
        }
        let tag_of = |path: &Path| {
            let sections = container::open_any(&fs::read(path).unwrap()).unwrap();
            sections[0].lines().nth(1).unwrap().to_string()
        };
        let candidates = rot.candidates();
        assert_eq!(tag_of(&candidates[0]), "constraint b");
        assert_eq!(tag_of(&candidates[1]), "constraint a");
        assert!(!candidates[2].exists());
    }

    #[test]
    fn recover_reports_all_corrupt() {
        let rot = Rotation::new(temp_root("dead.ckpt"), 2);
        fs::write(rot.primary(), b"garbage").unwrap();
        fs::write(&rot.candidates()[1], b"more garbage").unwrap();
        let outcome = rot.recover();
        assert!(outcome.restored.is_none());
        assert_eq!(outcome.rejected.len(), 2);
    }

    #[test]
    fn recover_with_no_files_is_empty() {
        let rot = Rotation::new(temp_root("absent.ckpt"), 3);
        let outcome = rot.recover();
        assert!(outcome.restored.is_none());
        assert!(outcome.rejected.is_empty());
    }
}
