//! # rtic-bench — experiment harness
//!
//! Measures and checks every table and figure of EXPERIMENTS.md:
//!
//! * [`experiments`] — one function per experiment (T1–T11, F1–F4, O1),
//!   each checking its claim as a relationship over its own readings;
//! * [`measure`] — instrumented checker runs (per-step timing, space polls);
//! * [`readings`] — the machine-stamped `--json` document of every
//!   reading, and its comparison against a committed baseline;
//! * [`table`] — markdown tables with a `holds:`/`BROKEN:` line per
//!   relationship.
//!
//! `cargo run -p rtic-bench --release --bin experiments` prints every
//! table and exits 1 if a relationship is broken (`--quick` for a
//! seconds-scale sweep, `--table t1` for one; `--json FILE` writes the
//! readings, `--compare BASELINE` diffs them against a committed file).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod experiments;
pub mod measure;
pub mod readings;
pub mod table;
