//! The traced run: the per-layer numbers.
//!
//! The harness replays the workload's input in this process, on one
//! thread, through the layers' public functions in the order the binary
//! calls them, and records one span around each call. Spans live in
//! memory and are written as a Chrome trace when the run ends. The
//! end-to-end metrics never come from here: a replica with spans is
//! compared with one without to report what tracing costs.
//!
//! Two layers cannot be spanned where they run because they sit inside
//! another layer's public function: log parsing inside the daemon's
//! `parse_command`, and `Database::apply` inside the engine step. Both
//! are measured by calling them on the same input afterwards ("shadow"
//! spans, on their own trace track, never counted as coverage).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Cursor, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtic_core::observe::step_all;
use rtic_core::{
    checkpoint, Checker, CompiledConstraint, ConstraintSet, EncodingOptions, IncrementalChecker,
    NopObserver, RuntimePlanStats, StepObserver, StepReport,
};
use rtic_history::log::{parse_log, LogReader};
use rtic_history::{HistoryError, Transition};
use rtic_obs::json::Json;
use rtic_obs::MetricsRegistry;
use rtic_relation::{Database, Symbol, Update};
use rtic_resilience::{container, CheckpointPolicy, CheckpointTicker, FailPlan, Rotation};
use rtic_server::protocol::parse_command;
use rtic_server::{Command, IngestQueue, ServeReport};
use rtic_temporal::parser::{parse_file, ConstraintFile};
use rtic_temporal::TimePoint;

use crate::e2e::{self, Ctx, PassOptions, Prepared};
use crate::metrics::{named, Metric, PER_LAYER};
use crate::stats::{percentile_sorted, self_time};
use crate::workloads::{Mode, Spec};
use crate::RunOutcome;

/// "No span": the parent of a root, and what a disabled tracer returns.
const NONE: u32 = u32::MAX;
/// The engine's footprint is sampled this often.
const SPACE_SAMPLE_EVERY: usize = 256;
/// `PING` round trips timed on the live daemon.
const PINGS: usize = 200;
/// Cross-thread queue hand-offs timed.
const HANDOFFS: usize = 1_000;

/// One recorded call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the update's root span, or [`NONE`] for a root.
    parent: u32,
    /// The update this span belongs to.
    update: u32,
    /// Measured beside the update's path, not on it.
    shadow: bool,
}

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock, so the same replica code runs traced and untraced.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Tracer {
    /// All tracers of one run share its `origin`, so their spans lie on
    /// one timeline.
    fn new(origin: Instant, on: bool, capacity: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            on,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: u32, update: usize) -> u32 {
        self.open(name, parent, update, false)
    }

    fn open(&mut self, name: &'static str, parent: u32, update: usize, shadow: bool) -> u32 {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            update: update as u32,
            shadow,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.now();
        }
    }
}

/// Self time and call count of one layer, from the spans.
#[derive(Default)]
struct Layer {
    self_ns: u64,
    calls: u64,
    /// Self time of each call, for percentiles.
    each_ns: Vec<u64>,
}

impl Layer {
    fn per_update_us(&self, updates: usize) -> f64 {
        self.self_ns as f64 / 1e3 / updates as f64
    }

    fn per_call_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e6 / self.calls as f64
        }
    }
}

/// Groups spans by name; a span's self time is its duration minus what
/// its children cover.
fn layers(spans: &[Span]) -> HashMap<&'static str, Layer> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NONE) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: HashMap<&'static str, Layer> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = self_time(
            s.start_ns,
            s.end_ns,
            children.get(&(i as u32)).map_or(&[], Vec::as_slice),
        );
        let layer = by_name.entry(s.name).or_default();
        layer.self_ns += own;
        layer.calls += 1;
        layer.each_ns.push(own);
    }
    by_name
}

/// The binary's two engine shapes behind one step call.
enum Engine {
    /// `rtic check` without fleet flags: one checker per constraint.
    Independent(Vec<Box<dyn Checker>>),
    /// The daemon, and `check` with `--shard`/`--batch`/`--parallel`.
    Fleet(Box<ConstraintSet>),
}

fn options_of(spec: &Spec) -> EncodingOptions {
    EncodingOptions {
        vectorize: spec.vectorize,
        ..Default::default()
    }
}

impl Engine {
    fn build(spec: &Spec, file: &ConstraintFile) -> Result<Engine, String> {
        let catalog = Arc::new(file.catalog.clone());
        if spec.fleet() {
            let mut set = ConstraintSet::with_options(
                file.constraints.iter().cloned(),
                catalog,
                options_of(spec),
            )
            .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?
            .with_sharding(spec.shard_evict.is_some());
            if let Some(horizon) = spec.shard_evict {
                set.set_shard_eviction(horizon);
            }
            return Ok(Engine::Fleet(Box::new(set)));
        }
        let mut checkers: Vec<Box<dyn Checker>> = Vec::new();
        for c in &file.constraints {
            let compiled = CompiledConstraint::compile(c.clone(), Arc::clone(&catalog))
                .map_err(|e| format!("constraint `{}`: {e}", c.name))?;
            checkers.push(Box::new(IncrementalChecker::from_compiled(
                compiled,
                options_of(spec),
            )));
        }
        Ok(Engine::Independent(checkers))
    }

    fn step(
        &mut self,
        time: TimePoint,
        update: &Update,
        obs: &mut dyn StepObserver,
    ) -> Result<Vec<StepReport>, HistoryError> {
        match self {
            Engine::Independent(checkers) => step_all(checkers, time, update, obs),
            Engine::Fleet(set) => set.step_observed(time, update, obs),
        }
    }

    fn save(&self) -> Vec<(Symbol, String)> {
        match self {
            Engine::Fleet(set) => checkpoint::save_set(set),
            Engine::Independent(checkers) => checkers
                .iter()
                .map(|ch| {
                    let inc = ch
                        .as_any()
                        .downcast_ref::<IncrementalChecker>()
                        .expect("build() makes incremental checkers only");
                    (inc.constraint().name, checkpoint::save(inc))
                })
                .collect(),
        }
    }

    fn restore(spec: &Spec, file: &ConstraintFile, sections: &[String]) -> Result<Engine, String> {
        let catalog = Arc::new(file.catalog.clone());
        if spec.fleet() {
            let engine_sections: Vec<String> = sections
                .iter()
                .filter(|s| !ServeReport::is_section(s))
                .cloned()
                .collect();
            return checkpoint::restore_set_sharded(
                file.constraints.iter().cloned(),
                catalog,
                options_of(spec),
                &engine_sections,
                spec.shard_evict.is_some(),
            )
            .map(|set| Engine::Fleet(Box::new(set)))
            .map_err(|e| e.to_string());
        }
        let mut checkers: Vec<Box<dyn Checker>> = Vec::new();
        for c in &file.constraints {
            let wanted = format!("constraint {}", c.name);
            let section = sections
                .iter()
                .find(|s| s.lines().any(|l| l == wanted))
                .ok_or_else(|| format!("checkpoint has no section for `{}`", c.name))?;
            let restored =
                checkpoint::restore(c.clone(), Arc::clone(&catalog), options_of(spec), section)
                    .map_err(|e| e.to_string())?;
            checkers.push(Box::new(restored));
        }
        Ok(Engine::Independent(checkers))
    }

    fn retained_units(&self) -> usize {
        match self {
            Engine::Fleet(set) => set.space().retained_units(),
            Engine::Independent(checkers) => {
                checkers.iter().map(|ch| ch.space().retained_units()).sum()
            }
        }
    }

    fn plan_stats(&self) -> RuntimePlanStats {
        match self {
            Engine::Fleet(set) => set.plan_stats(),
            Engine::Independent(checkers) => {
                let mut total = RuntimePlanStats::default();
                for stats in checkers.iter().filter_map(|ch| ch.plan_stats()) {
                    total.absorb(stats);
                }
                total
            }
        }
    }
}

/// What one replay of the input left behind.
struct Replay {
    wall: Duration,
    spans: Vec<Span>,
    report: String,
    witnesses: u64,
    engine: Engine,
    registry: MetricsRegistry,
    checkpoints_written: u64,
    checkpoint_bytes_written: u64,
    checkpoint_bytes_end: u64,
    reply_bytes: u64,
    retained_end: usize,
    retained_peak: usize,
}

/// Checkpoints written by one replay.
#[derive(Default)]
struct CheckpointTally {
    written: u64,
    bytes: u64,
    last_bytes: u64,
}

/// Seals and writes one checkpoint under `parent`, the way the binary's
/// `write_checkpoint` / `write_server_checkpoint` do.
fn write_checkpoint(
    tracer: &mut Tracer,
    parent: u32,
    update: usize,
    engine: &Engine,
    serve_report: Option<&ServeReport>,
    rotation: &Rotation,
    tally: &mut CheckpointTally,
) -> Result<(), String> {
    let s = tracer.begin("core.checkpoint.save", parent, update);
    let sections = engine.save();
    tracer.end(s);
    let s = tracer.begin("resilience.seal", parent, update);
    let report_section = serve_report.map(ServeReport::to_section);
    let sealed = container::seal(
        sections
            .iter()
            .map(|(_, text)| text.as_str())
            .chain(report_section.as_deref()),
    );
    tracer.end(s);
    let s = tracer.begin("resilience.write", parent, update);
    rotation
        .write(&sealed, &FailPlan::default(), "checkpoint.write")
        .map_err(|e| format!("replica checkpoint: {e}"))?;
    tracer.end(s);
    tally.written += 1;
    tally.bytes += sealed.len() as u64;
    tally.last_bytes = sealed.len() as u64;
    Ok(())
}

/// Replays the whole input once. `traced` records spans; `observed`
/// steps with a [`MetricsRegistry`] as the binary does, otherwise with
/// the no-op observer.
fn replay(
    spec: &Spec,
    file: &ConstraintFile,
    prepared: &Prepared,
    ctx: &Ctx,
    origin: Instant,
    traced: bool,
    observed: bool,
) -> Result<Replay, String> {
    let lines = &prepared.input.lines;
    let serve = matches!(spec.mode, Mode::Serve { .. });
    let mut engine = Engine::build(spec, file)?;
    let mut registry = MetricsRegistry::new();
    let mut nop = NopObserver;
    let rotation = Rotation::new(ctx.dir.join("replica.ckpt"), 3);
    let mut ticker = CheckpointTicker::new(CheckpointPolicy {
        every_steps: spec.checkpoint_every,
        every: None,
    });
    let mut tracer = Tracer::new(origin, traced, lines.len() * 8 + 16);
    let mut ckpt = CheckpointTally::default();

    // Check mode streams the log through `LogReader`, as `rtic check`
    // does over its `BufReader<File>`.
    let mut log = lines.join("\n");
    log.push('\n');
    let mut reader = LogReader::new(Cursor::new(log.as_bytes()));
    // Serve mode: the ingest queue between connection and engine thread,
    // and a socket pair standing in for the client connection.
    let queue: IngestQueue<Transition> = IngestQueue::new(64);
    let (mut wire, mut far_end) =
        UnixStream::pair().map_err(|e| format!("cannot make a socket pair: {e}"))?;
    let mut sink = Vec::new();
    let mut serve_report = ServeReport::default();

    let mut report = String::new();
    let mut witnesses = 0u64;
    let mut reply_bytes = 0u64;
    let (mut retained_end, mut retained_peak) = (0, 0);
    let started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let root = tracer.begin("update", NONE, i);
        let tr = if serve {
            let s = tracer.begin("server.protocol", root, i);
            let command = parse_command(line).map_err(|e| format!("update {i}: {e}"))?;
            tracer.end(s);
            let Some(Command::Update(tr)) = command else {
                return Err(format!("update {i} did not parse as an update"));
            };
            let s = tracer.begin("server.queue", root, i);
            queue
                .try_push(tr)
                .map_err(|_| "replica queue refused a push")?;
            let tr = queue.try_pop().ok_or("replica queue lost an update")?;
            tracer.end(s);
            tr
        } else {
            let s = tracer.begin("history.parse", root, i);
            let item = reader.next().ok_or("log ended early")?;
            tracer.end(s);
            item.map_err(|e| format!("log: {e}"))?
        };

        let s = tracer.begin("core.step", root, i);
        let obs: &mut dyn StepObserver = if observed { &mut registry } else { &mut nop };
        let reports = engine
            .step(tr.time, &tr.update, obs)
            .map_err(|e| format!("replica step at {}: {e}", tr.time))?;
        tracer.end(s);

        let s = tracer.begin("core.report", root, i);
        let mut violations = Vec::new();
        let mut step_witnesses = 0usize;
        for r in reports.iter().filter(|r| !r.ok()) {
            step_witnesses += r.violation_count();
            if serve {
                violations.push(r.to_string());
            } else {
                let _ = writeln!(report, "{r}");
            }
        }
        if serve {
            serve_report.record_step(&violations, step_witnesses);
        }
        witnesses += step_witnesses as u64;
        tracer.end(s);

        if ticker.step_completed() {
            let sr = serve.then_some(&serve_report);
            write_checkpoint(&mut tracer, root, i, &engine, sr, &rotation, &mut ckpt)?;
        }

        if serve {
            // Checkpoint before ack, then one write per reply line and
            // its newline, as `ClientHandle::write_line` does.
            let s = tracer.begin("server.reply", root, i);
            let mut written = 0;
            let ok = format!("OK {step_witnesses}");
            for v in &violations {
                let reply = format!("VIOL {v}");
                wire.write_all(reply.as_bytes())
                    .and_then(|()| wire.write_all(b"\n"))
                    .map_err(|e| format!("replica reply: {e}"))?;
                written += reply.len() + 1;
            }
            wire.write_all(ok.as_bytes())
                .and_then(|()| wire.write_all(b"\n"))
                .map_err(|e| format!("replica reply: {e}"))?;
            written += ok.len() + 1;
            tracer.end(s);
            // The client's side of the socket is not the daemon's work.
            sink.resize(written, 0);
            far_end
                .read_exact(&mut sink)
                .map_err(|e| format!("replica reply read: {e}"))?;
            reply_bytes += written as u64;
        }
        tracer.end(root);

        if i % SPACE_SAMPLE_EVERY == 0 || i + 1 == lines.len() {
            retained_end = engine.retained_units();
            retained_peak = retained_peak.max(retained_end);
        }
    }
    // Both binaries end with one unconditional checkpoint.
    let root = tracer.begin("finish", NONE, lines.len());
    let sr = serve.then_some(&serve_report);
    write_checkpoint(
        &mut tracer,
        root,
        lines.len(),
        &engine,
        sr,
        &rotation,
        &mut ckpt,
    )?;
    tracer.end(root);
    let wall = started.elapsed();

    if serve {
        for v in &serve_report.violations {
            let _ = writeln!(report, "{v}");
        }
    }
    Ok(Replay {
        wall,
        spans: tracer.spans,
        report,
        witnesses,
        engine,
        registry,
        checkpoints_written: ckpt.written,
        checkpoint_bytes_written: ckpt.bytes,
        checkpoint_bytes_end: ckpt.last_bytes,
        reply_bytes,
        retained_end,
        retained_peak,
    })
}

/// Median push → `pop_timeout` wake latency across two threads, in µs.
fn queue_handoff_us() -> Result<f64, String> {
    let queue: Arc<IngestQueue<Instant>> = Arc::new(IngestQueue::new(64));
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let consumer_queue = Arc::clone(&queue);
    let consumer = std::thread::spawn(move || {
        let mut waits = Vec::with_capacity(HANDOFFS);
        for _ in 0..HANDOFFS {
            if ready_tx.send(()).is_err() {
                break;
            }
            match consumer_queue.pop_timeout(Duration::from_secs(5)) {
                Some(pushed) => waits.push(pushed.elapsed().as_secs_f64() * 1e6),
                None => break,
            }
        }
        waits
    });
    for _ in 0..HANDOFFS {
        if ready_rx.recv().is_err() {
            break;
        }
        // Let the consumer reach its condvar wait before pushing.
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_micros(30) {
            std::hint::spin_loop();
        }
        if queue.try_push(Instant::now()).is_err() {
            break;
        }
    }
    queue.close();
    let mut waits = consumer
        .join()
        .map_err(|_| "queue hand-off consumer panicked")?;
    if waits.is_empty() {
        return Err("no queue hand-off completed".into());
    }
    waits.sort_by(f64::total_cmp);
    Ok(percentile_sorted(&waits, 0.5))
}

/// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete events, the update path on thread 1, shadow spans on 2.
fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    out.push_str("[\n");
    for (tid, name) in [(1, "update path"), (2, "shadow (measured beside the path)")] {
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"update\":{}}}}}",
            s.name,
            if s.shadow { 2 } else { 1 },
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.update
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One traced run: a single set-up, one live child pass (for the
/// numbers only a live process has, and the end-to-end time coverage is
/// a share of), then the in-process replays. The work is fixed by the
/// input, not by `--seconds`.
pub fn run(spec: &Spec, seed: u64, ctx: &Ctx) -> Result<RunOutcome, String> {
    let serve = matches!(spec.mode, Mode::Serve { .. });
    let (prepared, setup) = e2e::set_up(spec, seed, ctx)?;
    let updates = prepared.input.lines.len();
    let live = e2e::run_pass(
        spec,
        &prepared,
        ctx,
        PassOptions {
            pings: if serve { PINGS } else { 0 },
            metrics: serve,
        },
    )?;
    if let Some(why) = &live.mismatch {
        eprintln!("{}: live pass: {why}", spec.name);
    }

    let t = Instant::now();
    let file = parse_file(&prepared.input.constraints_text).map_err(|e| e.to_string())?;
    let parse_file_ms = ms(t.elapsed());
    let t = Instant::now();
    let compiled = Engine::build(spec, &file)?;
    let compile_ms = ms(t.elapsed());
    drop(compiled);

    // A: spans + registry (the layer numbers and the trace file);
    // B: no spans (what tracing costs); C: spans, no registry (what
    // observation costs the step).
    let origin = Instant::now();
    let mut a = replay(spec, &file, &prepared, ctx, origin, true, true)?;
    let b = replay(spec, &file, &prepared, ctx, origin, false, true)?;
    let c = replay(spec, &file, &prepared, ctx, origin, true, false)?;
    // Everything recorded so far is on the update path.
    let on_path_ns: u64 = a
        .spans
        .iter()
        .filter(|s| s.parent != NONE)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let replica_ok = a.report == prepared.reference
        && b.report == prepared.reference
        && c.report == prepared.reference;
    if !replica_ok {
        eprintln!(
            "{}: replica: {}",
            spec.name,
            crate::reference::first_difference(&prepared.reference, &a.report)
        );
    }

    // What the binary does on restart: open the newest intact
    // checkpoint, restore the engine from its sections.
    let mut tracer = Tracer::new(origin, true, 4);
    let root = tracer.begin("resume", NONE, updates + 1);
    let s = tracer.begin("resilience.open", root, updates + 1);
    let outcome = Rotation::new(ctx.dir.join("replica.ckpt"), 3).recover();
    tracer.end(s);
    let (_, sections, _) = outcome.restored.ok_or("replica checkpoint did not open")?;
    let s = tracer.begin("core.checkpoint.restore", root, updates + 1);
    Engine::restore(spec, &file, &sections)?;
    tracer.end(s);
    tracer.end(root);
    a.spans.append(&mut tracer.spans);

    // Shadow measurements, on the same input.
    let mut shadow = Tracer::new(origin, true, updates * 2);
    if serve {
        for (i, line) in prepared.input.lines.iter().enumerate() {
            let s = shadow.open("history.parse", NONE, i, true);
            let parsed = parse_log(line).map_err(|e| format!("log: {e}"))?;
            shadow.end(s);
            std::hint::black_box(parsed);
        }
    }
    let mut db = Database::new(Arc::new(file.catalog.clone()));
    for (i, tr) in prepared.input.transitions.iter().enumerate() {
        let s = shadow.open("relation.apply", NONE, i, true);
        db.apply(&tr.update).map_err(|e| format!("apply: {e}"))?;
        shadow.end(s);
    }
    a.spans.append(&mut shadow.spans);

    let t = Instant::now();
    let rendered = a.registry.render_json();
    let render_json_ms = ms(t.elapsed());
    let t = Instant::now();
    let prometheus = a.registry.render_prometheus();
    let render_prometheus_ms = ms(t.elapsed());
    std::hint::black_box((rendered, prometheus));

    let trace_path = std::path::Path::new(crate::HOME)
        .join("out")
        .join(format!("trace-{}.json", spec.name));
    write_chrome_trace(&trace_path, &a.spans)?;
    println!(
        "# chrome trace: {} ({} spans)",
        trace_path.display(),
        a.spans.len()
    );

    let by_name = layers(&a.spans);
    let empty = Layer::default();
    let layer = |name: &str| by_name.get(name).unwrap_or(&empty);
    let step = layer("core.step");
    let mut step_us: Vec<f64> = step.each_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    step_us.sort_by(f64::total_cmp);
    let step_c_ns = layers(&c.spans).get("core.step").map_or(0, |l| l.self_ns);

    let input_bytes: usize = prepared.input.lines.iter().map(|l| l.len() + 1).sum();
    let tuples: usize = prepared
        .input
        .transitions
        .iter()
        .map(|t| t.update.len())
        .sum();
    let parse = layer("history.parse");
    let plan = a.engine.plan_stats();
    let (affected, skipped, quiescent_full) = match &a.engine {
        Engine::Fleet(set) => {
            let d = set.dispatch_stats();
            let total = d.total().max(1) as f64;
            (
                d.affected as f64 / total,
                d.skipped as f64 / total,
                d.quiescent_full as f64 / total,
            )
        }
        // No dispatcher: every checker evaluates every step.
        Engine::Independent(_) => (1.0, 0.0, 0.0),
    };
    let (shard_peak, shard_created, shard_evicted) = match &a.engine {
        Engine::Fleet(set) => set.shard_stats().iter().fold((0, 0, 0), |acc, (_, s)| {
            (acc.0 + s.peak as u64, acc.1 + s.created, acc.2 + s.evicted)
        }),
        Engine::Independent(_) => (0, 0, 0),
    };
    let serve_gauge = |key: &str| -> f64 {
        live.metrics
            .as_ref()
            .and_then(|doc| doc.get("serve"))
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let e2e_us_per_update = 1e6 / live.updates_per_s;

    let mut values: Vec<(&'static Metric, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &str, value: f64| values.push((named(PER_LAYER, name), value));
    put("temporal.parse_file_ms", parse_file_ms);
    put("core.compile_ms", compile_ms);
    put("workload.generate_s", setup.generate_s);
    put("history.parse_us", parse.per_update_us(updates));
    put(
        "history.parse_mb_s",
        input_bytes as f64 / 1e6 / (parse.self_ns as f64 / 1e9),
    );
    put(
        "history.bytes_per_update",
        input_bytes as f64 / updates as f64,
    );
    put("history.tuples_per_update", tuples as f64 / updates as f64);
    // parse_command's own work: its span minus the log parse inside it.
    put(
        "server.protocol_us",
        if serve {
            layer("server.protocol").per_update_us(updates) - parse.per_update_us(updates)
        } else {
            0.0
        },
    );
    put(
        "server.queue_us",
        layer("server.queue").per_update_us(updates),
    );
    put(
        "server.queue_handoff_us",
        if serve { queue_handoff_us()? } else { 0.0 },
    );
    put(
        "server.reply_us",
        layer("server.reply").per_update_us(updates),
    );
    put(
        "server.reply_bytes_per_update",
        a.reply_bytes as f64 / updates as f64,
    );
    put("server.ping_rtt_us", live.ping_rtt_us);
    put("server.queue_peak", serve_gauge("queue_peak"));
    put("server.shed", serve_gauge("shed"));
    put("server.busy_replies", live.busy_replies as f64);
    put("server.drain_ms", serve_gauge("drain_ms"));
    put(
        "relation.apply_us",
        layer("relation.apply").per_update_us(updates),
    );
    put("core.step_us", step.per_update_us(updates));
    put("core.step_p50_us", percentile_sorted(&step_us, 0.5));
    put("core.step_p99_us", percentile_sorted(&step_us, 0.99));
    put("core.step_share", step.self_ns as f64 / on_path_ns as f64);
    put("core.plan.nodes", plan.plan.nodes as f64);
    put(
        "core.plan.scratch_high_water",
        plan.scratch_high_water as f64,
    );
    put("core.dispatch.affected_share", affected);
    put("core.dispatch.skipped_share", skipped);
    put("core.dispatch.quiescent_full_share", quiescent_full);
    put(
        "core.report_us",
        layer("core.report").per_update_us(updates),
    );
    put(
        "core.violations_per_kupdate",
        a.witnesses as f64 * 1e3 / updates as f64,
    );
    put("core.space.retained_units_end", a.retained_end as f64);
    put("core.space.retained_units_peak", a.retained_peak as f64);
    put("core.shard.peak", shard_peak as f64);
    put("core.shard.created", shard_created as f64);
    put("core.shard.evicted", shard_evicted as f64);
    put(
        "core.checkpoint.save_ms",
        layer("core.checkpoint.save").per_call_ms(),
    );
    put("core.checkpoint.bytes_end", a.checkpoint_bytes_end as f64);
    put(
        "core.checkpoint.restore_ms",
        layer("core.checkpoint.restore").per_call_ms(),
    );
    put("resilience.seal_ms", layer("resilience.seal").per_call_ms());
    put(
        "resilience.write_ms",
        layer("resilience.write").per_call_ms(),
    );
    put(
        "resilience.checkpoints_written",
        a.checkpoints_written as f64,
    );
    put(
        "resilience.bytes_written_per_input_byte",
        a.checkpoint_bytes_written as f64 / input_bytes as f64,
    );
    put("resilience.open_ms", layer("resilience.open").per_call_ms());
    put(
        "obs.step_overhead_share",
        (step.self_ns as f64 - step_c_ns as f64) / step_c_ns as f64,
    );
    put("obs.render_json_ms", render_json_ms);
    put("obs.render_prometheus_ms", render_prometheus_ms);
    put(
        "trace.inproc_updates_per_s",
        updates as f64 / b.wall.as_secs_f64(),
    );
    put(
        "trace.coverage_share",
        on_path_ns as f64 / 1e3 / updates as f64 / e2e_us_per_update,
    );
    put(
        "trace.overhead_share",
        (a.wall.as_secs_f64() - b.wall.as_secs_f64()) / b.wall.as_secs_f64(),
    );
    put("trace.spans", a.spans.len() as f64);
    debug_assert_eq!(values.len(), PER_LAYER.len());

    Ok(RunOutcome {
        correct: live.report_ok && replica_ok,
        attempted: live.attempted,
        failed: live.failed,
        values,
    })
}
