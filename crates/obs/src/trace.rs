//! Structured trace writer: one JSON line per step event.

use std::fs::{self, File};
use std::io::{self, BufWriter, Stderr, Write};
use std::path::{Path, PathBuf};

use rtic_core::{StepEvent, StepObserver};

use crate::json::Json;
use crate::metrics::{plan_stats_json, profiled_node_json, serve_json, space_json};

/// Converts one event into its trace-line JSON document.
///
/// Every line carries `seq` (delivery order) and `event` (the kind name
/// from [`StepEvent::kind`]); the remaining fields are per-kind.
pub fn event_json(seq: u64, event: &StepEvent<'_>) -> Json {
    let base = Json::object().set("seq", seq).set("event", event.kind());
    match event {
        StepEvent::StepStart(e) => base
            .set("checker", e.checker)
            .set("time", e.time.0)
            .set("tuples", e.tuples),
        StepEvent::ConstraintEval(e) => base
            .set("checker", e.checker)
            .set("constraint", e.constraint.as_str())
            .set("time", e.time.0)
            .set("violations", e.violations)
            .set("latency_ns", e.latency_ns),
        StepEvent::Violation(e) => base
            .set("checker", e.checker)
            .set("constraint", e.report.constraint.as_str())
            .set("time", e.report.time.0)
            .set("violations", e.report.violation_count())
            .set("witnesses", format!("{}", e.report.violations)),
        StepEvent::StepEnd(e) => base
            .set("checker", e.checker)
            .set("time", e.time.0)
            .set("violations", e.violations)
            .set("latency_ns", e.latency_ns),
        StepEvent::CheckpointSave(e) | StepEvent::CheckpointRestore(e) => base
            .set("constraint", e.constraint.as_str())
            .set("bytes", e.bytes),
        StepEvent::ConstraintQuarantined(e) => base
            .set("checker", e.checker)
            .set("constraint", e.constraint.as_str())
            .set("time", e.time.0)
            .set("detail", e.detail.as_str()),
        StepEvent::CheckpointFallback(e) => base
            .set("path", e.path.as_str())
            .set("detail", e.detail.as_str()),
        StepEvent::BadLine(e) => base
            .set("line", e.line as u64)
            .set("detail", e.detail.as_str()),
        StepEvent::PlanStatsSample(e) => {
            let doc = base
                .set("checker", e.checker)
                .set("constraint", e.constraint.as_str());
            plan_stats_json(doc, "plan_nodes", &e.stats)
        }
        StepEvent::PlanProfileSample(e) => base
            .set("checker", e.checker)
            .set("constraint", e.constraint.as_str())
            .set("total_time_ns", e.profile.total_time_ns())
            .set(
                "nodes",
                Json::Arr(e.profile.nodes.iter().map(profiled_node_json).collect()),
            ),
        StepEvent::SpaceSample(e) => {
            let doc = base
                .set("checker", e.checker)
                .set("constraint", e.constraint.as_str())
                .set("time", e.time.0)
                .set("step", e.step_index);
            space_json(doc, &e.stats)
        }
        StepEvent::ServeSample(gauges) => serve_json(base, gauges),
    }
}

enum Sink {
    File {
        writer: BufWriter<File>,
        tmp: PathBuf,
        dest: PathBuf,
    },
    Stderr(Stderr),
    Memory(Vec<u8>),
}

/// Opens a file sink writing to a same-directory `<path>.tmp`; the commit
/// in [`finish_sink`] renames it over `path`.
fn file_sink(path: impl AsRef<Path>) -> io::Result<Sink> {
    let dest = path.as_ref().to_path_buf();
    let mut name = dest
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "trace".into());
    name.push(".tmp");
    let tmp = dest.with_file_name(name);
    let file = File::create(&tmp)?;
    Ok(Sink::File {
        writer: BufWriter::new(file),
        tmp,
        dest,
    })
}

impl Sink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        match self {
            Sink::File { writer, .. } => writeln!(writer, "{line}"),
            Sink::Stderr(w) => writeln!(w, "{line}"),
            Sink::Memory(buf) => writeln!(buf, "{line}"),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::File { writer, .. } => writer.flush(),
            Sink::Stderr(w) => w.flush(),
            Sink::Memory(_) => Ok(()),
        }
    }
}

/// A [`StepObserver`] that appends one JSON line per event to a file,
/// stderr, or an in-memory buffer.
///
/// I/O errors after construction are counted, not propagated — tracing
/// must never fail the checking run. Call [`TraceWriter::finish`] to flush
/// and learn whether any write failed.
pub struct TraceWriter {
    sink: Sink,
    seq: u64,
    write_errors: u64,
}

impl TraceWriter {
    /// Traces to `path`. The lines accumulate in a same-directory
    /// `<path>.tmp` file; [`TraceWriter::finish`] flushes, fsyncs, and
    /// atomically renames it into place, so `path` only ever holds a
    /// complete trace — a crash mid-run leaves any previous trace at
    /// `path` untouched.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<TraceWriter> {
        Ok(TraceWriter::with_sink(file_sink(path)?))
    }

    /// Traces to stderr.
    pub fn to_stderr() -> TraceWriter {
        TraceWriter::with_sink(Sink::Stderr(io::stderr()))
    }

    /// Traces to an in-memory buffer (for tests; read back via `finish`).
    pub fn in_memory() -> TraceWriter {
        TraceWriter::with_sink(Sink::Memory(Vec::new()))
    }

    fn with_sink(sink: Sink) -> TraceWriter {
        TraceWriter {
            sink,
            seq: 0,
            write_errors: 0,
        }
    }

    /// Events written so far.
    pub fn lines_written(&self) -> u64 {
        self.seq
    }

    /// Flushes and consumes the writer, returning any buffered content
    /// (in-memory sink only) or an error if any write or the flush failed.
    /// For a file sink this is also the commit point: the temp file is
    /// fsynced and renamed over the destination.
    pub fn finish(self) -> Result<String, String> {
        finish_sink(self.sink, self.write_errors)
    }
}

/// Shared commit path for trace sinks: flush, surface counted write
/// errors, and (file sinks) fsync + atomically rename into place.
fn finish_sink(mut sink: Sink, write_errors: u64) -> Result<String, String> {
    sink.flush()
        .map_err(|e| format!("trace flush failed: {e}"))?;
    if write_errors > 0 {
        return Err(format!("{write_errors} trace write(s) failed"));
    }
    match sink {
        Sink::Memory(buf) => String::from_utf8(buf).map_err(|e| format!("non-utf8 trace: {e}")),
        Sink::File { writer, tmp, dest } => {
            let file = writer
                .into_inner()
                .map_err(|e| format!("trace flush failed: {e}"))?;
            file.sync_all()
                .map_err(|e| format!("trace fsync failed: {e}"))?;
            drop(file);
            fs::rename(&tmp, &dest).map_err(|e| {
                format!(
                    "renaming trace {} -> {} failed: {e}",
                    tmp.display(),
                    dest.display()
                )
            })?;
            Ok(String::new())
        }
        Sink::Stderr(_) => Ok(String::new()),
    }
}

impl StepObserver for TraceWriter {
    fn observe(&mut self, event: &StepEvent<'_>) {
        let line = event_json(self.seq, event).render();
        self.seq += 1;
        if self.sink.write_line(&line).is_err() {
            self.write_errors += 1;
        }
    }
}

/// Pid used for every rtic trace event (one process).
const CHROME_PID: u64 = 1;
/// Track carrying the step → dispatch → eval span hierarchy.
const CHROME_STEP_TID: u64 = 1;
/// First track used for per-constraint plan-node profiles.
const CHROME_PLAN_TID_BASE: u64 = 100;

/// A [`StepObserver`] that renders the event stream as [Chrome trace
/// format] — a JSON array of complete (`"ph": "X"`) span events viewable
/// in Perfetto or `chrome://tracing`.
///
/// Events carry no absolute wall-clock timestamps, so the writer lays
/// steps end-to-end on a synthetic timeline: each step span starts where
/// the previous one ended and lasts its measured `latency_ns`. Within a
/// step the causal hierarchy is rendered as nested spans on one track:
/// *step* ⊇ *dispatch* ⊇ one *eval* span per constraint (sequentially, in
/// delivery order). Violations, checkpoints, quarantines, and bad lines
/// become instant events; space samples become counter tracks; a final
/// [`StepEvent::PlanProfileSample`] becomes a per-constraint track whose
/// nested spans show each plan node's inclusive wall time.
///
/// Like [`TraceWriter`], I/O errors are counted, not propagated, and a
/// file sink commits atomically on [`ChromeTraceWriter::finish`].
///
/// [Chrome trace format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
pub struct ChromeTraceWriter {
    sink: Sink,
    events_written: u64,
    write_errors: u64,
    /// Whether the process/thread `"M"` metadata events were written.
    preamble_emitted: bool,
    /// Synthetic timeline cursor (µs since trace start).
    cursor_us: f64,
    /// The in-flight step: `(time, tuples)` from `StepStart`.
    step: Option<(u64, usize)>,
    /// Eval spans collected since `StepStart`:
    /// `(checker, constraint, violations, latency_ns)`.
    evals: Vec<(&'static str, &'static str, usize, u64)>,
    /// Track id per profiled constraint (insertion order).
    plan_tids: Vec<&'static str>,
}

impl ChromeTraceWriter {
    /// Traces to `path` (committed atomically on finish).
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<ChromeTraceWriter> {
        Ok(ChromeTraceWriter::with_sink(file_sink(path)?))
    }

    /// Traces to stderr.
    pub fn to_stderr() -> ChromeTraceWriter {
        ChromeTraceWriter::with_sink(Sink::Stderr(io::stderr()))
    }

    /// Traces to an in-memory buffer (read back via `finish`).
    pub fn in_memory() -> ChromeTraceWriter {
        ChromeTraceWriter::with_sink(Sink::Memory(Vec::new()))
    }

    fn with_sink(sink: Sink) -> ChromeTraceWriter {
        ChromeTraceWriter {
            sink,
            events_written: 0,
            write_errors: 0,
            preamble_emitted: false,
            cursor_us: 0.0,
            step: None,
            evals: Vec::new(),
            plan_tids: Vec::new(),
        }
    }

    /// Emits the process/thread name metadata once. Runs before the first
    /// real event and unconditionally at [`ChromeTraceWriter::finish`], so
    /// even a zero-step trace names its process and step track.
    fn ensure_preamble(&mut self) {
        if self.preamble_emitted {
            return;
        }
        self.preamble_emitted = true;
        self.emit(
            Json::object()
                .set("name", "process_name")
                .set("ph", "M")
                .set("pid", CHROME_PID)
                .set("args", Json::object().set("name", "rtic")),
        );
        self.emit(
            Json::object()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", CHROME_PID)
                .set("tid", CHROME_STEP_TID)
                .set("args", Json::object().set("name", "steps")),
        );
    }

    /// Trace events emitted so far (spans, instants, counters, metadata).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    fn emit(&mut self, event: Json) {
        let lead = if self.events_written == 0 { '[' } else { ',' };
        self.events_written += 1;
        if self
            .sink
            .write_line(&format!("{lead}{}", event.render()))
            .is_err()
        {
            self.write_errors += 1;
        }
    }

    fn span(name: &str, ts_us: f64, dur_us: f64, tid: u64, args: Json) -> Json {
        Json::object()
            .set("name", name)
            .set("cat", "rtic")
            .set("ph", "X")
            .set("ts", ts_us)
            .set("dur", dur_us)
            .set("pid", CHROME_PID)
            .set("tid", tid)
            .set("args", args)
    }

    fn instant(name: &str, ts_us: f64, tid: u64, args: Json) -> Json {
        Json::object()
            .set("name", name)
            .set("cat", "rtic")
            .set("ph", "i")
            .set("s", "t")
            .set("ts", ts_us)
            .set("pid", CHROME_PID)
            .set("tid", tid)
            .set("args", args)
    }

    /// The track id for a profiled constraint, naming it on first use.
    fn plan_tid(&mut self, constraint: &'static str) -> u64 {
        if let Some(i) = self.plan_tids.iter().position(|c| *c == constraint) {
            return CHROME_PLAN_TID_BASE + i as u64;
        }
        self.plan_tids.push(constraint);
        let tid = CHROME_PLAN_TID_BASE + (self.plan_tids.len() - 1) as u64;
        self.emit(
            Json::object()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", CHROME_PID)
                .set("tid", tid)
                .set(
                    "args",
                    Json::object().set("name", format!("plan {constraint}")),
                ),
        );
        tid
    }

    /// Lays the collected eval spans (and violation instants) end-to-end
    /// from `start` on the step track; returns the timeline frontier.
    fn layout_evals(
        &mut self,
        start: f64,
        evals: Vec<(&'static str, &'static str, usize, u64)>,
    ) -> f64 {
        let mut at = start;
        for (eval_checker, constraint, eval_violations, eval_ns) in evals {
            let dur = eval_ns as f64 / 1e3;
            self.emit(Self::span(
                &format!("eval {constraint}"),
                at,
                dur,
                CHROME_STEP_TID,
                Json::object()
                    .set("checker", eval_checker)
                    .set("constraint", constraint)
                    .set("violations", eval_violations)
                    .set("latency_ns", eval_ns),
            ));
            at += dur;
            if eval_violations > 0 {
                self.emit(Self::instant(
                    &format!("violation {constraint}"),
                    at,
                    CHROME_STEP_TID,
                    Json::object().set("violations", eval_violations),
                ));
            }
        }
        at
    }

    /// Closes a step whose `StepEnd` never arrived (the run aborted or was
    /// quarantined mid-step): its collected eval spans are laid out under
    /// a step span marked unfinished, so no span is silently dropped.
    fn close_open_step(&mut self) {
        let Some((step_time, tuples)) = self.step.take() else {
            return;
        };
        let start = self.cursor_us;
        let evals = std::mem::take(&mut self.evals);
        let step_us: f64 = evals.iter().map(|e| e.3 as f64 / 1e3).sum();
        self.emit(Self::span(
            &format!("step t={step_time} (unfinished)"),
            start,
            step_us,
            CHROME_STEP_TID,
            Json::object()
                .set("time", step_time)
                .set("tuples", tuples)
                .set("unfinished", true),
        ));
        self.layout_evals(start, evals);
        self.cursor_us = start + step_us;
    }

    /// Finishes the array and commits (file sinks: fsync + rename). Any
    /// step still open (no `StepEnd`) is closed first, and a trace with no
    /// events at all still gets its metadata preamble.
    pub fn finish(mut self) -> Result<String, String> {
        self.ensure_preamble();
        self.close_open_step();
        if self.sink.write_line("]").is_err() {
            self.write_errors += 1;
        }
        finish_sink(self.sink, self.write_errors)
    }
}

impl StepObserver for ChromeTraceWriter {
    fn observe(&mut self, event: &StepEvent<'_>) {
        self.ensure_preamble();
        match event {
            StepEvent::StepStart(e) => {
                self.step = Some((e.time.0, e.tuples));
                self.evals.clear();
            }
            StepEvent::ConstraintEval(e) => {
                let eval = (e.checker, e.constraint.as_str(), e.violations, e.latency_ns);
                self.evals.push(eval);
            }
            // The eval span already carries the violation count; the
            // instant marker is emitted during StepEnd layout.
            StepEvent::Violation(_) => {}
            StepEvent::StepEnd(end) => {
                let (step_time, tuples) = self.step.take().unwrap_or((end.time.0, 0));
                let start = self.cursor_us;
                let evals_us: f64 = self.evals.iter().map(|e| e.3 as f64 / 1e3).sum();
                // Measured eval time can exceed the step reading by jitter;
                // widen the step span so children always nest.
                let step_us = (end.latency_ns as f64 / 1e3).max(evals_us);
                self.emit(Self::span(
                    &format!("step t={step_time}"),
                    start,
                    step_us,
                    CHROME_STEP_TID,
                    Json::object()
                        .set("checker", end.checker)
                        .set("time", step_time)
                        .set("tuples", tuples)
                        .set("violations", end.violations),
                ));
                let evals = std::mem::take(&mut self.evals);
                self.emit(Self::span(
                    "dispatch",
                    start,
                    step_us,
                    CHROME_STEP_TID,
                    Json::object().set("constraints", evals.len()),
                ));
                self.layout_evals(start, evals);
                self.cursor_us = start + step_us;
            }
            StepEvent::CheckpointSave(e) | StepEvent::CheckpointRestore(e) => {
                let ts = self.cursor_us;
                self.emit(Self::instant(
                    &format!("{} {}", event.kind(), e.constraint),
                    ts,
                    CHROME_STEP_TID,
                    Json::object().set("bytes", e.bytes),
                ));
            }
            StepEvent::ConstraintQuarantined(quarantine) => {
                // Mid-step, the marker lands at the frontier of the eval
                // spans collected so far, so it stays inside the step span
                // and after the work that already completed.
                let ts = self.cursor_us + self.evals.iter().map(|e| e.3 as f64 / 1e3).sum::<f64>();
                self.emit(Self::instant(
                    &format!("quarantine {}", quarantine.constraint),
                    ts,
                    CHROME_STEP_TID,
                    Json::object().set("detail", quarantine.detail.as_str()),
                ));
            }
            StepEvent::CheckpointFallback(e) => {
                let ts = self.cursor_us;
                self.emit(Self::instant(
                    "checkpoint_fallback",
                    ts,
                    CHROME_STEP_TID,
                    Json::object()
                        .set("path", e.path.as_str())
                        .set("detail", e.detail.as_str()),
                ));
            }
            StepEvent::BadLine(e) => {
                let ts = self.cursor_us;
                self.emit(Self::instant(
                    "bad_line",
                    ts,
                    CHROME_STEP_TID,
                    Json::object()
                        .set("line", e.line as u64)
                        .set("detail", e.detail.as_str()),
                ));
            }
            StepEvent::PlanStatsSample(e) => {
                let ts = self.cursor_us;
                self.emit(Self::instant(
                    &format!("plan_stats {}", e.constraint),
                    ts,
                    CHROME_STEP_TID,
                    Json::object()
                        .set("nodes", e.stats.plan.nodes)
                        .set("scratch_high_water", e.stats.scratch_high_water)
                        .set("rows_copied", e.stats.rows_copied),
                ));
            }
            StepEvent::SpaceSample(e) => {
                // Counter track: Perfetto renders these as a line chart.
                let ts = self.cursor_us;
                self.emit(
                    Json::object()
                        .set("name", format!("retained_units {}", e.constraint))
                        .set("ph", "C")
                        .set("ts", ts)
                        .set("pid", CHROME_PID)
                        .set(
                            "args",
                            Json::object().set("units", e.stats.retained_units()),
                        ),
                );
            }
            StepEvent::ServeSample(gauges) => {
                // Counter track: ingest queue pressure on the server.
                let ts = self.cursor_us;
                self.emit(
                    Json::object()
                        .set("name", "serve queue")
                        .set("ph", "C")
                        .set("ts", ts)
                        .set("pid", CHROME_PID)
                        .set(
                            "args",
                            Json::object()
                                .set("depth", gauges.queue_depth)
                                .set("shed", gauges.shed),
                        ),
                );
            }
            StepEvent::PlanProfileSample(e) => {
                // One track per constraint; node spans nest by tree depth,
                // children laid sequentially from the parent's start (their
                // inclusive times sum to at most the parent's).
                let tid = self.plan_tid(e.constraint.as_str());
                let mut base = 0.0f64;
                // (depth, child-cursor) of the open ancestor chain.
                let mut stack: Vec<(usize, f64)> = Vec::new();
                for node in &e.profile.nodes {
                    while stack.last().is_some_and(|&(d, _)| d >= node.desc.depth) {
                        stack.pop();
                    }
                    let start = stack.last().map_or(base, |&(_, at)| at);
                    let dur = node.counts.time_ns as f64 / 1e3;
                    let mut args = Json::object()
                        .set("path", node.desc.path.clone())
                        .set("calls", node.counts.calls)
                        .set("rows_in", node.counts.rows_in)
                        .set("rows_out", node.counts.rows_out)
                        .set("cache_hits", node.counts.cache_hits)
                        .set("cache_misses", node.counts.cache_misses);
                    // Vectorized nodes report their columnar batch shape.
                    if let Some(rpb) = node.counts.rows_per_block() {
                        args = args
                            .set("blocks", node.counts.blocks)
                            .set("rows_per_block", rpb);
                    }
                    self.emit(Self::span(&node.desc.label, start, dur, tid, args));
                    if let Some(top) = stack.last_mut() {
                        top.1 += dur;
                    } else {
                        base += dur;
                    }
                    stack.push((node.desc.depth, start));
                }
                let _ = base;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use rtic_core::observe::{step_all, BadLine, ConstraintQuarantined, StepStart};
    use rtic_core::{Checker, IncrementalChecker};
    use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
    use rtic_temporal::parser::parse_constraint;
    use rtic_temporal::TimePoint;
    use std::sync::Arc;

    #[test]
    fn file_sink_commits_atomically_on_finish() {
        let dir = std::env::temp_dir().join(format!(
            "rtic-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("run.trace");
        std::fs::write(&dest, "previous trace\n").unwrap();

        let mut trace = TraceWriter::to_file(&dest).unwrap();
        trace.observe(&StepEvent::BadLine(BadLine {
            line: 3,
            detail: "expected `@`".into(),
        }));
        // Mid-run the destination still holds the previous complete trace.
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "previous trace\n");
        trace.finish().unwrap();
        let text = std::fs::read_to_string(&dest).unwrap();
        let doc = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("bad_line"));
        assert_eq!(doc.get("line").and_then(Json::as_u64), Some(3));
        assert!(
            !dir.join("run.trace.tmp").exists(),
            "temp file renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_line_is_json_with_seq_and_kind() {
        let catalog = Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        );
        let mut checkers: Vec<Box<dyn Checker>> = vec![Box::new(
            IncrementalChecker::new(
                parse_constraint("deny d: p(x) && hist[0,1] p(x)").unwrap(),
                catalog,
            )
            .unwrap(),
        )];
        let mut trace = TraceWriter::in_memory();
        let insert = Update::new().with_insert("p", tuple!["a"]);
        step_all(&mut checkers, TimePoint(1), &insert, &mut trace).unwrap();
        step_all(&mut checkers, TimePoint(2), &Update::new(), &mut trace).unwrap();
        // Both steps violate (hist over the empty prefix is vacuously
        // true), so each emits start/eval/violation/step.
        assert_eq!(trace.lines_written(), 8);
        let text = trace.finish().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            let doc = json::parse(line).unwrap_or_else(|e| panic!("line {i} not JSON: {e}"));
            assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert!(doc.get("event").and_then(Json::as_str).is_some());
        }
        let last = json::parse(lines[7]).unwrap();
        assert_eq!(last.get("event").and_then(Json::as_str), Some("step"));
        assert_eq!(last.get("violations").and_then(Json::as_u64), Some(1));
        let violation = json::parse(lines[6]).unwrap();
        assert_eq!(
            violation.get("event").and_then(Json::as_str),
            Some("violation")
        );
        assert!(violation.get("witnesses").and_then(Json::as_str).is_some());
    }

    #[test]
    fn chrome_trace_with_no_steps_still_carries_the_preamble() {
        let text = ChromeTraceWriter::in_memory().finish().unwrap();
        let doc = json::parse(text.trim()).unwrap();
        let events = doc.as_arr().expect("a valid JSON array");
        // Even a zero-step trace names its process and step track, so
        // Perfetto renders an identified (if empty) timeline.
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("process_name")
        );
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("thread_name")
        );
    }

    #[test]
    fn quarantine_before_any_eval_closes_the_open_step() {
        use rtic_relation::Symbol;
        let mut trace = ChromeTraceWriter::in_memory();
        // A step starts, the first constraint panics before any eval
        // lands, and the run aborts: no StepEnd ever arrives.
        trace.observe(&StepEvent::StepStart(StepStart {
            checker: "set",
            time: TimePoint(5),
            tuples: 2,
        }));
        trace.observe(&StepEvent::ConstraintQuarantined(ConstraintQuarantined {
            checker: "set",
            constraint: Symbol::intern("flaky"),
            time: TimePoint(5),
            detail: "boom".into(),
        }));
        let text = trace.finish().unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.as_arr().expect("valid JSON array despite the abort");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("process_name")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("quarantine flaky")));
        let step = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("the open step span is closed at finish");
        assert_eq!(
            step.get("name").and_then(Json::as_str),
            Some("step t=5 (unfinished)")
        );
        assert!(matches!(
            step.get("args").and_then(|a| a.get("unfinished")),
            Some(Json::Bool(true))
        ));
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_nested_spans() {
        use rtic_core::{ConstraintSet, EncodingOptions};

        let catalog = Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        );
        let mut set = ConstraintSet::with_options(
            [parse_constraint("deny d: p(x) && hist[0,1] p(x)").unwrap()],
            catalog,
            EncodingOptions {
                profile_plans: true,
                ..Default::default()
            },
        )
        .unwrap();
        let mut trace = ChromeTraceWriter::in_memory();
        for t in 1..=3u64 {
            set.step_observed(
                TimePoint(t),
                &Update::new().with_insert("p", tuple!["a"]),
                &mut trace,
            )
            .unwrap();
        }
        set.sample_plan_profiles(&mut trace);
        let text = trace.finish().unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.as_arr().expect("chrome trace is a JSON array");
        assert!(!events.is_empty());

        // Three step spans laid end-to-end on the step track, each
        // containing a dispatch span over the same interval and an eval
        // span inside it.
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        let steps: Vec<&&Json> = spans
            .iter()
            .filter(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("step "))
            })
            .collect();
        assert_eq!(steps.len(), 3);
        let mut prev_end = 0.0f64;
        for step in &steps {
            let ts = step.get("ts").and_then(Json::as_f64).unwrap();
            let dur = step.get("dur").and_then(Json::as_f64).unwrap();
            assert!(ts >= prev_end, "steps never overlap: {ts} < {prev_end}");
            prev_end = ts + dur;
        }
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("eval d")));

        // The plan profile lands on its own named track as nested node
        // spans (an atom node under the root conjunction).
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("plan d")
        }));
        let plan_spans: Vec<&&Json> = spans
            .iter()
            .filter(|s| s.get("tid").and_then(Json::as_u64) == Some(100))
            .collect();
        assert!(
            plan_spans.iter().any(|s| s
                .get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("atom("))),
            "plan-node spans present: {text}"
        );
        // Every plan-node span lies within its root span's interval.
        let root = plan_spans
            .iter()
            .find(|s| {
                s.get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(Json::as_str)
                    == Some("body")
            })
            .expect("root body span");
        let root_ts = root.get("ts").and_then(Json::as_f64).unwrap();
        let root_end = root_ts + root.get("dur").and_then(Json::as_f64).unwrap();
        for span in &plan_spans {
            let path = span
                .get("args")
                .and_then(|a| a.get("path"))
                .and_then(Json::as_str)
                .unwrap_or("");
            if !path.starts_with("body") {
                continue;
            }
            let ts = span.get("ts").and_then(Json::as_f64).unwrap();
            let end = ts + span.get("dur").and_then(Json::as_f64).unwrap();
            const EPS: f64 = 1e-6;
            assert!(
                ts + EPS >= root_ts && end <= root_end + EPS,
                "node span [{ts}, {end}] nests in root [{root_ts}, {root_end}]"
            );
        }
    }
}
