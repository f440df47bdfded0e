//! A checkpoint writer thread: the durable write off the caller's path.
//!
//! A daemon that seals a checkpoint and then waits for the disk pays
//! the whole write — temp file, `fsync`, generation renames, directory
//! `fsync` — on whichever reply carries the checkpoint. A
//! [`CheckpointWriter`] owns the [`Rotation`] on a thread of its own, so
//! the caller only seals the text and hands it over.
//!
//! At most one write is in flight: [`CheckpointWriter::submit`] first
//! waits for the previous write to return, so generations land in
//! submission order, and a write that failed (or panicked) is reported by
//! the next `submit` or [`CheckpointWriter::wait`] (a text refused that
//! way is not written). Dropping the writer lets a pending write finish
//! and joins the thread. The hand-off is one `Mutex` + `Condvar` slot
//! rather than a channel: a slot of one is all the ordering needs.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::durable::DurableError;
use crate::failpoint::FailPlan;
use crate::rotation::Rotation;

type OnDurable = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct State {
    /// A sealed text the thread has not taken yet, and what to run once
    /// it is durable.
    pending: Option<(String, OnDurable)>,
    /// The thread is writing the text it took.
    writing: bool,
    /// The last write's failure, until `submit` or `wait` reports it.
    failed: Option<DurableError>,
    /// The writer was dropped: finish what is pending, then exit.
    closed: bool,
}

/// What the caller and the writer thread share.
struct Slot {
    state: Mutex<State>,
    changed: Condvar,
    rotation: Rotation,
    faults: Arc<FailPlan>,
    site: &'static str,
}

/// One background writer for a rotation set (see the module docs).
pub struct CheckpointWriter {
    slot: Arc<Slot>,
    thread: Option<JoinHandle<()>>,
}

impl CheckpointWriter {
    /// Starts the writer thread. It owns `rotation` and writes through
    /// [`Rotation::write`], asking `faults` at `site`.
    pub fn spawn(
        rotation: Rotation,
        faults: Arc<FailPlan>,
        site: &'static str,
    ) -> CheckpointWriter {
        let slot = Arc::new(Slot {
            state: Mutex::default(),
            changed: Condvar::new(),
            rotation,
            faults,
            site,
        });
        let thread = std::thread::spawn({
            let slot = Arc::clone(&slot);
            move || slot.run()
        });
        CheckpointWriter {
            slot,
            thread: Some(thread),
        }
    }

    /// The rotation's primary (newest) checkpoint path.
    pub fn primary(&self) -> &Path {
        self.slot.rotation.primary()
    }

    /// Waits for the previous write, then hands `text` to the thread and
    /// returns. `on_durable` runs on the writer thread once the write's
    /// final rename has returned. Fails, without taking `text`, if the
    /// previous write failed.
    pub fn submit(
        &self,
        text: String,
        on_durable: impl FnOnce() + Send + 'static,
    ) -> Result<(), DurableError> {
        let mut state = self.slot.idle();
        if let Some(e) = state.failed.take() {
            return Err(e);
        }
        state.pending = Some((text, Box::new(on_durable)));
        drop(state);
        self.slot.changed.notify_all();
        Ok(())
    }

    /// Waits for the write in flight, if any, and reports its failure.
    pub fn wait(&self) -> Result<(), DurableError> {
        self.slot.idle().failed.take().map_or(Ok(()), Err)
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        self.slot.lock().closed = true;
        self.slot.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            // The thread catches a write's panic, so `join` cannot fail;
            // a write failure nobody waited for dies with the writer.
            let _ = thread.join();
        }
    }
}

impl Slot {
    /// Every update leaves `State` valid, so a poisoned lock is usable.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The lock, once no write is pending or in flight.
    fn idle(&self) -> MutexGuard<'_, State> {
        self.changed
            .wait_while(self.lock(), |s| s.pending.is_some() || s.writing)
            .unwrap_or_else(|e| e.into_inner())
    }

    fn run(&self) {
        loop {
            let (text, on_durable) = {
                let mut state = self
                    .changed
                    .wait_while(self.lock(), |s| s.pending.is_none() && !s.closed)
                    .unwrap_or_else(|e| e.into_inner());
                let Some(job) = state.pending.take() else {
                    return;
                };
                state.writing = true;
                job
            };
            // A panic (a `panic` failpoint) must not leave `writing` set
            // and the caller waiting forever: it fails the write.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let written = self.rotation.write(&text, &self.faults, self.site);
                written.map(|()| on_durable())
            }));
            let mut state = self.lock();
            state.writing = false;
            state.failed = outcome
                .unwrap_or_else(|_| {
                    Err(DurableError::Io {
                        path: self.rotation.primary().to_path_buf(),
                        op: "write",
                        message: "the checkpoint writer panicked".into(),
                    })
                })
                .err();
            drop(state);
            self.changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{self, seal};
    use std::fs;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn rotation(name: &str) -> Rotation {
        let dir = std::env::temp_dir().join(format!("rtic-writer-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let rot = Rotation::new(dir.join(name), 3);
        for path in rot.candidates() {
            fs::remove_file(path).ok();
        }
        rot
    }

    fn sealed(tag: &str) -> String {
        seal([format!("rtic-checkpoint v1\nconstraint {tag}\ntime 1\nsteps 1\n").as_str()])
    }

    /// The tag of each generation on disk, newest first (`-` for none).
    fn generations(rot: &Rotation) -> Vec<String> {
        rot.candidates()
            .iter()
            .map(|path| match fs::read(path) {
                Ok(bytes) => {
                    let sections = container::open_any(&bytes).unwrap();
                    let line = sections[0].lines().nth(1).unwrap();
                    line.trim_start_matches("constraint ").to_string()
                }
                Err(_) => "-".to_string(),
            })
            .collect()
    }

    fn spawn(rot: &Rotation, faults: &str) -> CheckpointWriter {
        let plan = Arc::new(FailPlan::parse(faults).unwrap());
        CheckpointWriter::spawn(rot.clone(), plan, "t")
    }

    #[test]
    fn generations_are_recovered_in_submission_order() {
        let rot = rotation("order.ckpt");
        let writer = spawn(&rot, "");
        let durable = Arc::new(AtomicUsize::new(0));
        for tag in ["a", "b", "c", "d"] {
            let durable = Arc::clone(&durable);
            writer
                .submit(sealed(tag), move || {
                    durable.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        writer.wait().unwrap();
        assert_eq!(durable.load(Ordering::SeqCst), 4);
        assert_eq!(generations(&rot), ["d", "c", "b"]);
        let (path, _, _) = rot.recover().restored.unwrap();
        assert_eq!(path, rot.primary());
    }

    #[test]
    fn a_second_submit_blocks_until_the_first_write_returns() {
        let rot = rotation("block.ckpt");
        let writer = Arc::new(spawn(&rot, ""));
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let first_done = Arc::new(AtomicBool::new(false));
        writer
            .submit(sealed("a"), {
                let first_done = Arc::clone(&first_done);
                move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    first_done.store(true, Ordering::SeqCst);
                }
            })
            .unwrap();
        // The first write is now held inside its completion.
        entered.recv().unwrap();
        let (calling_tx, calling) = mpsc::channel();
        let second = std::thread::spawn({
            let writer = Arc::clone(&writer);
            let first_done = Arc::clone(&first_done);
            move || {
                calling_tx.send(()).unwrap();
                writer.submit(sealed("b"), || {}).unwrap();
                // Wherever the release lands, `submit` returns only once
                // the first write has.
                assert!(first_done.load(Ordering::SeqCst));
            }
        });
        calling.recv().unwrap();
        release.send(()).unwrap();
        second.join().unwrap();
        writer.wait().unwrap();
        assert_eq!(generations(&rot), ["b", "a", "-"]);
    }

    #[test]
    fn a_failed_write_is_returned_by_the_next_submit_or_wait() {
        let rot = rotation("fail.ckpt");
        let writer = spawn(&rot, "t=io-error@2");
        writer.submit(sealed("a"), || {}).unwrap();
        // "b" is taken; its write fails on the writer thread.
        writer
            .submit(sealed("b"), || panic!("b never lands"))
            .unwrap();
        let err = writer.submit(sealed("c"), || {}).unwrap_err();
        assert!(err.to_string().contains("injected I/O error"), "{err}");
        // "c" was refused, not written; the error was reported once.
        writer.wait().unwrap();
        assert_eq!(generations(&rot), ["a", "-", "-"]);

        writer.submit(sealed("d"), || {}).unwrap();
        writer.wait().unwrap();
        assert_eq!(generations(&rot), ["d", "a", "-"]);

        let rot = rotation("fail-wait.ckpt");
        let writer = spawn(&rot, "t=io-error@1");
        writer.submit(sealed("a"), || {}).unwrap();
        assert!(writer.wait().is_err());
        assert!(writer.wait().is_ok());
    }

    #[test]
    fn a_panicking_write_is_an_error_not_a_hang() {
        let rot = rotation("panic.ckpt");
        let writer = spawn(&rot, "t=panic@1");
        writer.submit(sealed("a"), || {}).unwrap();
        let err = writer.wait().unwrap_err();
        assert!(err.to_string().contains("writer panicked"), "{err}");
        writer.submit(sealed("b"), || {}).unwrap();
        writer.wait().unwrap();
        assert_eq!(generations(&rot), ["b", "-", "-"]);
    }

    #[test]
    fn drop_joins_the_thread_and_loses_no_submitted_write() {
        let rot = rotation("drop.ckpt");
        let durable = Arc::new(AtomicBool::new(false));
        {
            let writer = spawn(&rot, "");
            writer.submit(sealed("a"), || {}).unwrap();
            let durable = Arc::clone(&durable);
            writer
                .submit(sealed("b"), move || durable.store(true, Ordering::SeqCst))
                .unwrap();
        }
        assert!(durable.load(Ordering::SeqCst));
        assert_eq!(generations(&rot), ["b", "a", "-"]);
    }
}
