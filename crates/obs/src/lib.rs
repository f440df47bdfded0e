//! # rtic-obs — run telemetry for rtic checkers
//!
//! Concrete [`StepObserver`]s that plug into the hook layer defined in
//! `rtic_core::observe`:
//!
//! * [`MetricsRegistry`] — counters, gauges, and fixed-bucket latency
//!   histograms, with JSON and Prometheus text exposition.
//! * [`TraceWriter`] — the structured trace: each step event's one JSON
//!   document, to a file or stderr, as JSON lines or as a Chrome trace
//!   format array (viewable in Perfetto / `chrome://tracing`) whose spans
//!   carry the documents as their `args` ([`TraceLayout`]).
//! * [`MultiObserver`] — fans one event stream out to several observers.
//! * [`report`] — renders a saved metrics JSON file as a summary table
//!   (the `rtic report` subcommand).
//!
//! The hooks themselves live in rtic-core so checkers gain instrumentation
//! without depending on this crate; [`NopObserver`]'s hooks are empty
//! calls. Space samples come from `rtic_core::observe::sample_space` and
//! `ConstraintSet::sample_space`, on the driver's own schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

mod multi;

pub use metrics::MetricsRegistry;
pub use multi::MultiObserver;
pub use rtic_core::{NopObserver, StepEvent, StepObserver};
pub use trace::{TraceLayout, TraceWriter};
