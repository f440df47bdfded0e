//! The trace writer: each step event's one JSON document, laid out as JSON
//! lines or as a Chrome trace format array.

use std::fs::{self, File};
use std::io::{self, BufWriter, Stderr, Write};
use std::path::{Path, PathBuf};

use rtic_core::{StepEvent, StepObserver};

use crate::json::Json;
use crate::metrics::{plan_stats_json, profiled_node_json, serve_json, space_json};

/// Converts one event into its trace JSON document.
///
/// Every document carries `seq` (delivery order), `event` (the kind name
/// from [`StepEvent::kind`]) and the event's `constraint` where it has one;
/// the remaining fields are per-kind.
pub fn event_json(seq: u64, event: &StepEvent<'_>) -> Json {
    let mut base = Json::object().set("seq", seq).set("event", event.kind());
    if let Some(constraint) = event.constraint() {
        base = base.set("constraint", constraint.as_str());
    }
    match event {
        StepEvent::StepStart(e) => base
            .set("checker", e.checker)
            .set("time", e.time.0)
            .set("tuples", e.tuples),
        StepEvent::ConstraintEval(e) => base
            .set("checker", e.checker)
            .set("time", e.time.0)
            .set("violations", e.violations)
            .set("latency_ns", e.latency_ns),
        StepEvent::Violation(e) => base
            .set("checker", e.checker)
            .set("time", e.report.time.0)
            .set("violations", e.report.violation_count())
            .set("witnesses", format!("{}", e.report.violations)),
        StepEvent::StepEnd(e) => base
            .set("checker", e.checker)
            .set("time", e.time.0)
            .set("violations", e.violations)
            .set("latency_ns", e.latency_ns),
        StepEvent::CheckpointSave(e) | StepEvent::CheckpointRestore(e) => {
            base.set("bytes", e.bytes)
        }
        StepEvent::ConstraintQuarantined(e) => base
            .set("checker", e.checker)
            .set("time", e.time.0)
            .set("detail", e.detail.as_str()),
        StepEvent::CheckpointFallback(e) => base
            .set("path", e.path.as_str())
            .set("detail", e.detail.as_str()),
        StepEvent::BadLine(e) => base
            .set("line", e.line as u64)
            .set("detail", e.detail.as_str()),
        StepEvent::PlanStatsSample(e) => {
            plan_stats_json(base.set("checker", e.checker), "plan_nodes", &e.stats)
        }
        StepEvent::PlanProfileSample(e) => base
            .set("checker", e.checker)
            .set("total_time_ns", e.profile.total_time_ns())
            .set(
                "nodes",
                Json::Arr(e.profile.nodes.iter().map(profiled_node_json).collect()),
            ),
        StepEvent::SpaceSample(e) => {
            let doc = base
                .set("checker", e.checker)
                .set("time", e.time.0)
                .set("step", e.step_index);
            space_json(doc, &e.stats)
        }
        StepEvent::ServeSample(gauges) => serve_json(base, gauges),
    }
}

/// How a [`TraceWriter`] lays its events out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLayout {
    /// JSON Lines: each event's document on a line of its own.
    Lines,
    /// A [Chrome trace format] array, viewable in Perfetto or
    /// `chrome://tracing`, whose spans and instants carry the event
    /// documents as their `args`.
    ///
    /// [Chrome trace format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
    Chrome,
}

enum Target {
    File {
        writer: BufWriter<File>,
        tmp: PathBuf,
        dest: PathBuf,
    },
    Stderr(Stderr),
    Memory(Vec<u8>),
}

/// Where the trace goes, and how many writes to it failed.
struct Sink {
    target: Target,
    write_errors: u64,
}

impl Sink {
    /// Writes `line` and its newline with one `write_all`.
    fn line(&mut self, mut line: String) {
        line.push('\n');
        let written = match &mut self.target {
            Target::File { writer, .. } => writer.write_all(line.as_bytes()),
            Target::Stderr(w) => w.write_all(line.as_bytes()),
            Target::Memory(buf) => buf.write_all(line.as_bytes()),
        };
        if written.is_err() {
            self.write_errors += 1;
        }
    }
}

/// A [`StepObserver`] that writes each event's [`event_json`] document to
/// a file, stderr, or an in-memory buffer, in the [`TraceLayout`] chosen
/// at construction.
///
/// I/O errors after construction are counted, not propagated — tracing
/// must never fail the checking run. Call [`TraceWriter::finish`] to flush
/// and learn whether any write failed.
pub struct TraceWriter {
    sink: Sink,
    seq: u64,
    layout: TraceLayout,
    /// The Chrome layout's timeline.
    timeline: Timeline,
}

impl TraceWriter {
    /// Traces to `path`. The trace accumulates in a same-directory
    /// `<path>.tmp` file; [`TraceWriter::finish`] flushes, fsyncs, and
    /// atomically renames it into place, so `path` only ever holds a
    /// complete trace — a crash mid-run leaves any previous trace at
    /// `path` untouched.
    pub fn to_file(path: impl AsRef<Path>, layout: TraceLayout) -> io::Result<TraceWriter> {
        let dest = path.as_ref().to_path_buf();
        let mut name = dest
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "trace".into());
        name.push(".tmp");
        let tmp = dest.with_file_name(name);
        let writer = BufWriter::new(File::create(&tmp)?);
        Ok(TraceWriter::new(Target::File { writer, tmp, dest }, layout))
    }

    /// Traces to stderr.
    pub fn to_stderr(layout: TraceLayout) -> TraceWriter {
        TraceWriter::new(Target::Stderr(io::stderr()), layout)
    }

    /// Traces to an in-memory buffer (for tests; read back via `finish`).
    pub fn in_memory(layout: TraceLayout) -> TraceWriter {
        TraceWriter::new(Target::Memory(Vec::new()), layout)
    }

    fn new(target: Target, layout: TraceLayout) -> TraceWriter {
        TraceWriter {
            sink: Sink {
                target,
                write_errors: 0,
            },
            seq: 0,
            layout,
            timeline: Timeline::default(),
        }
    }

    /// Events observed so far.
    pub fn events_written(&self) -> u64 {
        self.seq
    }

    /// Flushes and consumes the writer, returning any buffered content
    /// (in-memory sink only) or an error if any write or the flush failed.
    /// A Chrome trace first closes a step still open (no `StepEnd`) and its
    /// array; a trace with no events at all still names its process. For a
    /// file sink this is also the commit point: the temp file is fsynced
    /// and renamed over the destination.
    pub fn finish(mut self) -> Result<String, String> {
        if self.layout == TraceLayout::Chrome {
            if self.seq == 0 {
                preamble(&mut self.sink);
            }
            self.timeline.close_open_step(&mut self.sink);
            self.sink.line("]".into());
        }
        let Sink {
            mut target,
            write_errors,
        } = self.sink;
        let flushed = match &mut target {
            Target::File { writer, .. } => writer.flush(),
            Target::Stderr(w) => w.flush(),
            Target::Memory(_) => Ok(()),
        };
        flushed.map_err(|e| format!("trace flush failed: {e}"))?;
        if write_errors > 0 {
            return Err(format!("{write_errors} trace write(s) failed"));
        }
        match target {
            Target::Memory(buf) => {
                String::from_utf8(buf).map_err(|e| format!("non-utf8 trace: {e}"))
            }
            Target::File { writer, tmp, dest } => {
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
            Target::Stderr(_) => Ok(String::new()),
        }
    }
}

impl StepObserver for TraceWriter {
    fn observe(&mut self, event: &StepEvent<'_>) {
        let doc = event_json(self.seq, event);
        match self.layout {
            TraceLayout::Lines => self.sink.line(doc.render()),
            TraceLayout::Chrome => {
                if self.seq == 0 {
                    preamble(&mut self.sink);
                }
                self.timeline.draw(event, doc, &mut self.sink);
            }
        }
        self.seq += 1;
    }
}

/// Pid used for every rtic trace event (one process).
const CHROME_PID: u64 = 1;
/// Track carrying the step → dispatch → eval span hierarchy.
const CHROME_STEP_TID: u64 = 1;
/// First track used for per-constraint plan-node profiles.
const CHROME_PLAN_TID_BASE: u64 = 100;

/// The Chrome layout's synthetic timeline.
///
/// Events carry no absolute wall-clock timestamps, so steps are laid end
/// to end: each step span starts where the previous one ended and lasts
/// its measured `latency_ns`. Within a step the causal hierarchy is nested
/// spans on one track: *step* ⊇ *dispatch* ⊇ one *eval* span per
/// constraint (sequentially, in delivery order), each followed by its
/// violation instant. The other events become instants, counters (space
/// and serve samples) or, for a plan profile, a per-constraint track whose
/// nested spans show each plan node's inclusive wall time. A span's or
/// instant's `args` is its event's [`event_json`] document; a counter's
/// are its sample's series, a plan-node span's its node's row.
#[derive(Default)]
struct Timeline {
    /// Where the next step starts (µs since trace start).
    cursor_us: f64,
    /// The open step: its time and its `step_start` document.
    step: Option<(u64, Json)>,
    /// The open step's eval spans (with a duration in µs) and violation
    /// instants (without), in delivery order.
    pending: Vec<(String, Option<f64>, Json)>,
    /// Constraints with a plan-profile track, in first-profile order.
    plan_tracks: Vec<&'static str>,
}

impl Timeline {
    fn draw(&mut self, event: &StepEvent<'_>, doc: Json, sink: &mut Sink) {
        let name = match event.constraint() {
            Some(constraint) => format!("{} {constraint}", event.kind()),
            None => event.kind().to_string(),
        };
        let at = self.cursor_us;
        match event {
            StepEvent::StepStart(e) => {
                self.step = Some((e.time.0, doc));
                self.pending.clear();
            }
            StepEvent::ConstraintEval(e) => {
                let dur = e.latency_ns as f64 / 1e3;
                self.pending.push((name, Some(dur), doc));
            }
            StepEvent::Violation(_) => self.pending.push((name, None, doc)),
            StepEvent::StepEnd(e) => {
                let (time, start) = self.step.take().unwrap_or((e.time.0, Json::object()));
                // Measured eval time can exceed the step reading by jitter;
                // widen the step span so children always nest.
                let step_us = (e.latency_ns as f64 / 1e3).max(self.evals_us());
                // The step's document, plus the tuples its start counted.
                let (name, args) = (format!("step t={time}"), merged(start, doc));
                emit(sink, at, span(&name, step_us, CHROME_STEP_TID, args));
                let constraints = self.pending.iter().filter(|p| p.1.is_some()).count();
                let args = Json::object().set("constraints", constraints);
                emit(sink, at, span("dispatch", step_us, CHROME_STEP_TID, args));
                self.lay_out(sink, step_us);
            }
            StepEvent::SpaceSample(e) => {
                let series = space_json(Json::object(), &e.stats);
                emit(sink, at, counter(&name, series));
            }
            StepEvent::ServeSample(gauges) => {
                let series = serve_json(Json::object(), gauges);
                emit(sink, at, counter(&name, series));
            }
            StepEvent::PlanProfileSample(e) => {
                let tid = self.plan_track(e.constraint.as_str(), sink);
                // Node spans nest by tree depth, children laid sequentially
                // from the parent's start (their inclusive times sum to at
                // most the parent's). `stack` holds the open ancestor
                // chain's (depth, child cursor).
                let mut base = 0.0f64;
                let mut stack: Vec<(usize, f64)> = Vec::new();
                for node in &e.profile.nodes {
                    while stack.last().is_some_and(|&(d, _)| d >= node.desc.depth) {
                        stack.pop();
                    }
                    let start = stack.last().map_or(base, |&(_, at)| at);
                    let dur = node.counts.time_ns as f64 / 1e3;
                    let args = profiled_node_json(node);
                    emit(sink, start, span(&node.desc.label, dur, tid, args));
                    match stack.last_mut() {
                        Some(top) => top.1 += dur,
                        None => base += dur,
                    }
                    stack.push((node.desc.depth, start));
                }
            }
            // Every other event is an instant. Mid-step, a quarantine lands
            // at the frontier of the eval spans collected so far, so it stays
            // inside the step span and after the work that already completed.
            _ => {
                let quarantine = matches!(event, StepEvent::ConstraintQuarantined(_));
                let ts = if quarantine { at + self.evals_us() } else { at };
                emit(sink, ts, instant(&name, doc));
            }
        }
    }

    /// The summed duration of the open step's eval spans.
    fn evals_us(&self) -> f64 {
        self.pending.iter().filter_map(|p| p.1).sum()
    }

    /// Lays the open step's eval spans and violation instants end to end
    /// from the cursor, then moves the cursor past the step.
    fn lay_out(&mut self, sink: &mut Sink, step_us: f64) {
        let mut at = self.cursor_us;
        for (name, dur, args) in self.pending.drain(..) {
            match dur {
                Some(dur) => {
                    emit(sink, at, span(&name, dur, CHROME_STEP_TID, args));
                    at += dur;
                }
                None => emit(sink, at, instant(&name, args)),
            }
        }
        self.cursor_us += step_us;
    }

    /// Closes a step whose `StepEnd` never arrived (the run aborted or was
    /// quarantined mid-step): its eval spans are laid out under a step span
    /// marked unfinished, so no span is silently dropped.
    fn close_open_step(&mut self, sink: &mut Sink) {
        let Some((time, start)) = self.step.take() else {
            return;
        };
        let (at, step_us) = (self.cursor_us, self.evals_us());
        let name = format!("step t={time} (unfinished)");
        let args = start.set("unfinished", true);
        emit(sink, at, span(&name, step_us, CHROME_STEP_TID, args));
        self.lay_out(sink, step_us);
    }

    /// The track id for a profiled constraint, naming it on first use.
    fn plan_track(&mut self, constraint: &'static str, sink: &mut Sink) -> u64 {
        if let Some(index) = self.plan_tracks.iter().position(|c| *c == constraint) {
            return CHROME_PLAN_TID_BASE + index as u64;
        }
        let tid = CHROME_PLAN_TID_BASE + self.plan_tracks.len() as u64;
        self.plan_tracks.push(constraint);
        name_track(sink, Some(tid), &format!("plan {constraint}"));
        tid
    }
}

/// `over`'s fields on top of `under`'s.
fn merged(under: Json, over: Json) -> Json {
    match (under, over) {
        (Json::Obj(mut fields), Json::Obj(over)) => {
            fields.extend(over);
            Json::Obj(fields)
        }
        (_, over) => over,
    }
}

/// Opens the array with the process and step-track names, so even a
/// zero-step trace renders an identified (if empty) timeline.
fn preamble(sink: &mut Sink) {
    name_track(sink, None, "rtic");
    name_track(sink, Some(CHROME_STEP_TID), "steps");
}

/// Writes one array element after the first, at `ts_us` on the timeline.
fn emit(sink: &mut Sink, ts_us: f64, event: Json) {
    sink.line(format!(",{}", event.set("ts", ts_us).render()));
}

/// Writes the `"M"` event naming the process (`tid` `None`; it opens the
/// array) or a track.
fn name_track(sink: &mut Sink, tid: Option<u64>, name: &str) {
    let event = Json::object()
        .set("ph", "M")
        .set("pid", CHROME_PID)
        .set("args", Json::object().set("name", name));
    let line = match tid {
        None => format!("[{}", event.set("name", "process_name").render()),
        Some(tid) => {
            let event = event.set("name", "thread_name").set("tid", tid);
            format!(",{}", event.render())
        }
    };
    sink.line(line);
}

/// An event for the timeline (its `ts` is set as it is written): a span,
/// an instant or a counter.
fn drawn(name: &str, ph: &str, args: Json) -> Json {
    Json::object()
        .set("name", name)
        .set("ph", ph)
        .set("pid", CHROME_PID)
        .set("args", args)
}

fn span(name: &str, dur_us: f64, tid: u64, args: Json) -> Json {
    drawn(name, "X", args)
        .set("cat", "rtic")
        .set("dur", dur_us)
        .set("tid", tid)
}

fn instant(name: &str, args: Json) -> Json {
    drawn(name, "i", args)
        .set("cat", "rtic")
        .set("s", "t")
        .set("tid", CHROME_STEP_TID)
}

/// A counter track: Perfetto plots each of its `args` as a series.
fn counter(name: &str, series: Json) -> Json {
    drawn(name, "C", series)
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

        let mut trace = TraceWriter::to_file(&dest, TraceLayout::Lines).unwrap();
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
        let mut trace = TraceWriter::in_memory(TraceLayout::Lines);
        let insert = Update::new().with_insert("p", tuple!["a"]);
        step_all(&mut checkers, TimePoint(1), &insert, &mut trace).unwrap();
        step_all(&mut checkers, TimePoint(2), &Update::new(), &mut trace).unwrap();
        // Both steps violate (hist over the empty prefix is vacuously
        // true), so each emits start/eval/violation/step.
        assert_eq!(trace.events_written(), 8);
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
        let text = TraceWriter::in_memory(TraceLayout::Chrome)
            .finish()
            .unwrap();
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
        let mut trace = TraceWriter::in_memory(TraceLayout::Chrome);
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
        let mut trace = TraceWriter::in_memory(TraceLayout::Chrome);
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
