//! # rtic-bench — experiment harness
//!
//! Measures and checks every table and figure of EXPERIMENTS.md, and
//! records the perf trajectory:
//!
//! * [`experiments`] — one function per experiment (T1–T9, F1–F3, O1),
//!   each checking its claim as a relationship over its own readings;
//! * [`measure`] — instrumented checker runs (per-step timing, space polls);
//! * [`record`] — perf-trajectory snapshots (`BENCH_<workload>.json`);
//! * [`table`] — markdown tables with a `holds:`/`BROKEN:` line per
//!   relationship.
//!
//! `cargo run -p rtic-bench --release --bin experiments` prints every
//! table and exits 1 if a relationship is broken (`--quick` for a
//! seconds-scale sweep, `--table t1` for one);
//! `cargo run -p rtic-bench --release --bin record` writes a perf
//! snapshot and optionally diffs it against a committed baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod experiments;
pub mod measure;
pub mod record;
pub mod table;
