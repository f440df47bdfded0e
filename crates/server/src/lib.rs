//! # rtic-server — a crash-safe resident monitoring daemon
//!
//! The paper frames integrity constraints as something a *running*
//! system checks against a live update stream; this crate is that
//! runtime shape. `rtic serve` loads a constraint catalog, listens on a
//! unix or TCP socket speaking a line protocol
//! ([`protocol`]: `UPDATE`/`TICK`/`QUERY`/`DRAIN`), and feeds a
//! [`rtic_core::ConstraintSet`] through a bounded ingest queue.
//!
//! Robustness is the headline:
//!
//! * **Backpressure, never unbounded buffering** — a full queue answers
//!   `BUSY <retry-after-ms>` ([`queue`]); the bundled [`Client`]
//!   retries with capped exponential backoff + jitter; clients that
//!   stall past the write timeout are disconnected.
//! * **Crash safety** — periodic checkpoints seal engine state *and*
//!   the violation report into one checksummed container ([`report`])
//!   before the pass is acked, and a writer thread makes it durable off
//!   the reply path, so a kill -9'd server restarted with `--resume`
//!   reproduces a byte-identical final report.
//! * **Graceful drain** — SIGTERM or `DRAIN` stops accepting, flushes
//!   the queue, writes a final checkpoint, and exits 0 ([`signal`]).
//! * **One recovery path** — `rtic serve` and batch `rtic check`
//!   restore, replay and seal checkpoints through [`session`].
//! * **Deterministic chaos** — named failpoints (`serve.accept`,
//!   `serve.read`, `serve.step`, `serve.write`, `serve.checkpoint`)
//!   inject faults into every server I/O path.
//!
//! This crate allows `unsafe` in exactly one place: the two-line
//! SIGTERM handler FFI in [`signal`] (libc is already linked through
//! std; a signal-handling dependency would be dead weight).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod report;
pub mod server;
pub mod session;
pub mod signal;

pub use client::{Client, Closer, Reply, RetryPolicy};
pub use protocol::Command;
pub use queue::{IngestQueue, QueueFull};
pub use report::ServeReport;
pub use server::{serve, Listen, ServeConfig};
