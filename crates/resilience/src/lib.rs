//! # rtic-resilience — crash safety for long-running monitors
//!
//! The bounded-history encoding makes a checker's recoverable state small;
//! this crate makes persisting and recovering that state *safe* against
//! the failures a monitor that "runs forever" actually meets: process
//! kills mid-write, torn or bit-flipped checkpoint files, and injected
//! faults for chaos testing. It is deliberately free of rtic dependencies —
//! everything here works on paths, bytes, and opaque text sections — so
//! any layer (CLI, benches, tests) can use it without cycles.
//!
//! * [`durable`] — atomic temp-file + fsync + rename writes, so a crash
//!   never leaves a truncated artifact behind.
//! * [`container`] — the checkpoint container format v2: a versioned
//!   header and a CRC32 trailer around one or more checkpoint sections;
//!   any truncation or bit flip is detected as a typed error.
//! * [`rotation`] — a rotation set (`f`, `f.1`, `f.2`, …) with
//!   newest-first recovery that falls back past corrupt entries.
//! * [`writer`] — a thread that owns a rotation and does its durable
//!   writes, one in flight, in submission order.
//! * [`policy`] — periodic checkpoint scheduling (every N steps and/or
//!   every T seconds).
//! * [`failpoint`] — an env/flag-gated fault-injection plan that can
//!   force I/O errors, corrupt checkpoint bytes in flight, abort a run
//!   mid-stream, or arm engine panics.
//!
//! ```
//! use rtic_resilience::container;
//!
//! let sections = vec!["rtic-checkpoint v1\nconstraint demo\n".to_string()];
//! let sealed = container::seal(sections.iter().map(String::as_str));
//! let reopened = container::open_any(sealed.as_bytes()).unwrap();
//! assert_eq!(reopened, sections);
//! // Any single corrupted bit is detected:
//! let mut bytes = sealed.into_bytes();
//! bytes[10] ^= 1;
//! assert!(container::open_any(&bytes).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod container;
mod crc32;
pub mod durable;
pub mod failpoint;
pub mod policy;
pub mod rotation;
pub mod writer;

pub use container::ContainerError;
pub use crc32::crc32;
pub use durable::{write_atomic, write_atomic_with, DurableError};
pub use failpoint::{FailAction, FailPlan, ENV_VAR};
pub use policy::{CheckpointPolicy, CheckpointTicker};
pub use rotation::{RecoveryOutcome, Rotation};
pub use writer::CheckpointWriter;
