//! Atomic, durable file writes.
//!
//! [`write_atomic`] writes run artifacts (checkpoints, metrics snapshots,
//! traces) so that a crash at any instant leaves either the previous
//! complete file or the new complete file — never a truncated hybrid:
//! the bytes go to a temp file in the same directory, are fsynced, and
//! the temp file is renamed over the destination (rename within a
//! directory is atomic on POSIX). The parent directory is fsynced
//! best-effort so the rename itself survives power loss.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::failpoint::{apply_corruption, FailAction, FailPlan};

/// A failed durable write, carrying the path and the operation that failed.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io {
        /// Destination path of the write.
        path: PathBuf,
        /// The operation that failed (`create`, `write`, `sync`, `rename`).
        op: &'static str,
        /// The OS error message.
        message: String,
    },
    /// A failpoint injected an I/O failure at this site.
    Injected {
        /// Destination path of the write.
        path: PathBuf,
        /// The failpoint site that fired.
        site: String,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io { path, op, message } => {
                write!(f, "cannot {op} `{}`: {message}", path.display())
            }
            DurableError::Injected { path, site } => {
                write!(
                    f,
                    "injected I/O error writing `{}` (failpoint `{site}`)",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for DurableError {}

/// Atomically replace `path` with `bytes` (temp file + fsync + rename).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    write_atomic_with(path, bytes, &FailPlan::none(), "durable.write")
}

/// [`write_atomic`] with fault injection: asks `faults` at `site` first.
/// An `io-error`/`abort` action fails the write; `truncate`/`bitflip`
/// corrupt the payload but let the (now torn) write succeed, modelling
/// silent on-disk corruption; `panic` panics.
pub fn write_atomic_with(
    path: &Path,
    bytes: &[u8],
    faults: &FailPlan,
    site: &str,
) -> Result<(), DurableError> {
    let tmp = write_temp(path, bytes, faults, site)?;
    commit(&tmp, path)
}

/// The first half of [`write_atomic_with`]: asks `faults` at `site`,
/// then writes and fsyncs `bytes` to `path`'s temp file, whose path it
/// returns. Nothing at `path` has changed yet.
pub(crate) fn write_temp(
    path: &Path,
    bytes: &[u8],
    faults: &FailPlan,
    site: &str,
) -> Result<PathBuf, DurableError> {
    let mut owned: Vec<u8>;
    let mut data: &[u8] = bytes;
    match faults.check(site) {
        None => {}
        Some(FailAction::IoError) | Some(FailAction::Abort) => {
            return Err(DurableError::Injected {
                path: path.to_path_buf(),
                site: site.to_string(),
            });
        }
        Some(FailAction::Panic) => panic!("injected panic at failpoint `{site}`"),
        Some(action) => {
            owned = bytes.to_vec();
            apply_corruption(&mut owned, action);
            data = &owned;
        }
    }

    let tmp = tmp_path(path);
    let mut file = File::create(&tmp).map_err(io_error(path, "create"))?;
    file.write_all(data).map_err(io_error(path, "write"))?;
    file.sync_all().map_err(io_error(path, "sync"))?;
    Ok(tmp)
}

/// The second half of [`write_atomic_with`]: renames the temp file
/// `tmp` over `path`, then fsyncs the directory.
pub(crate) fn commit(tmp: &Path, path: &Path) -> Result<(), DurableError> {
    fs::rename(tmp, path).map_err(io_error(path, "rename"))?;
    // Best-effort directory fsync: makes the rename durable, but its
    // failure (e.g. on filesystems without directory handles) does not
    // invalidate the already-complete write.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

fn io_error(path: &Path, op: &'static str) -> impl FnOnce(std::io::Error) -> DurableError {
    let path = path.to_path_buf();
    move |e| DurableError::Io {
        path,
        op,
        message: e.to_string(),
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtic-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let path = temp_dir().join("artifact.txt");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!tmp_path(&path).exists(), "temp file must not linger");
    }

    #[test]
    fn injected_io_error_leaves_previous_file_intact() {
        let path = temp_dir().join("kept.txt");
        write_atomic(&path, b"stable").unwrap();
        let plan = FailPlan::parse("checkpoint.write=io-error").unwrap();
        let err = write_atomic_with(&path, b"doomed", &plan, "checkpoint.write").unwrap_err();
        assert!(err.to_string().contains("injected I/O error"));
        assert_eq!(fs::read(&path).unwrap(), b"stable");
    }

    #[test]
    fn injected_corruption_writes_torn_bytes() {
        let path = temp_dir().join("torn.txt");
        let plan = FailPlan::parse("checkpoint.write=truncate:3").unwrap();
        write_atomic_with(&path, b"longer payload", &plan, "checkpoint.write").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"lon");
    }

    #[test]
    fn error_for_missing_directory_is_typed() {
        let path = temp_dir().join("no-such-dir").join("f.txt");
        let err = write_atomic(&path, b"x").unwrap_err();
        assert!(matches!(err, DurableError::Io { op: "create", .. }));
    }
}
