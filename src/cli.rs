//! The `rtic` command-line interface.
//!
//! Thin, testable argument handling over the library: the binary in
//! `src/bin/rtic.rs` forwards to [`run`], and the CLI integration tests
//! call [`run`] directly with captured output. `rtic --help` prints the
//! synopsis of every subcommand and flag.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rtic_active::ActiveChecker;
use rtic_core::observe;
use rtic_core::{explain, BackendId, Checker, CompiledConstraint, EncodingOptions};
use rtic_core::{ConstraintSet, NaiveChecker};
use rtic_core::{StepEvent, StepObserver};
use rtic_history::log::{format_log, LogErrorKind, LogReader};
use rtic_history::Transition;
use rtic_obs::{json, report, ChromeTraceWriter, MetricsRegistry, MultiObserver, TraceWriter};
use rtic_relation::{LexError, Symbol};
use rtic_resilience::{
    write_atomic, CheckpointPolicy, CheckpointTicker, FailAction, FailPlan, Rotation,
};
use rtic_server::session::{self, Replay};
use rtic_server::{Client, Listen, ServeConfig};
use rtic_temporal::parser::{parse_file, ConstraintFile};
use rtic_workload::{library, ScenarioParams};

const USAGE: &str = "\
rtic — real-time integrity constraints (Chomicki, PODS 1992)

USAGE:
  rtic check <constraints-file> <log-file> [--checker incremental|naive|windowed|active]
             [--constraints FILE]... [--profile]
             [--quiet] [--stats] [--explain] [--checkpoint FILE] [--resume FILE]
             [--checkpoint-every N] [--checkpoint-secs T] [--checkpoint-keep K]
             [--on-bad-line strict|skip] [--bad-line-budget N] [--failpoints SPEC]
             [--metrics FILE] [--trace FILE|-] [--trace-format json|chrome]
             [--sample-space N]
  rtic report <metrics-file>
  rtic explain <constraints-file> [--profile <log-file>]
  rtic generate <scenario>|--list [--steps N] [--entities N] [--events N] [--seed N]
             [--violation-rate R]
  rtic serve <constraints-file> --listen unix:PATH|tcp:HOST:PORT
             [--constraints FILE]... [--queue N] [--retry-ms MS] [--write-timeout-ms MS]
             [--checkpoint FILE] [--resume] [--checkpoint-every N] [--checkpoint-secs T]
             [--checkpoint-keep K] [--failpoints SPEC] [--report FILE] [--metrics FILE]
  rtic send <log-file> --connect unix:PATH|tcp:HOST:PORT [--drain] [--quiet]
             [--connect-timeout-ms MS]

The constraints file declares relations and deny/assert constraints; the
log file is one `@time +rel(values…) -rel(values…)` line per transition,
consumed streaming. `generate` writes a log (plus its constraint file as
`# commented` header lines) to standard output; `generate --list` prints
the scenario registry (production flavors fraud, telemetry, ratelimit,
access plus the paper-styled originals). `--entities` scales the
entity-key domain (production shapes run at 1e5–1e6).

Multi-constraint fleets: `--constraints FILE` (repeatable) merges more
constraint files into the run — relation declarations shared between
files must agree exactly, constraint names must be unique. The
incremental checker (the default) checks the whole fleet as one
shared-state constraint set with relevance dispatch: each transition is
applied once and only the constraints it touches are re-evaluated — the
rest sleep until their next window deadline, replaying their reports. A
constraint engine that panics mid-step is quarantined — it stops
reporting while the rest of the fleet keeps checking — and is listed in
the summary and `--stats`. `--checker naive|windowed|active` run one
independent reference checker per constraint instead.

Inert flags: `--vectorize` is accepted and ignored: the columnar kernels
it used to select are the only compiled path. `--shard V` and
`--shard-evict N` (on `check` and `serve`) are accepted and ignored too:
the per-key shard plane they selected lost every comparison with the one
engine and was removed (`--resume` refuses a checkpoint it wrote, naming
the line). So is `--batch N` on `serve` (the daemon always drains what
is queued); on `check` it is rejected — every driver steps one
transition at a time.
Any other unknown `--flag` is a usage error.

Checkpoints: `--checkpoint FILE` durably saves the checkers' bounded
state (checksummed container, written atomically) after the run and,
with `--checkpoint-every N` steps and/or `--checkpoint-secs T`, during
it. Writes rotate through FILE, FILE.1, … (`--checkpoint-keep K`,
default 3). `--resume FILE` restores before the run, falling back to the
newest intact rotation entry if a candidate is corrupt, and skips log
lines at or before the checkpoint cursor, so a log can be checked in
consecutive segments. Incremental checker only.

Bad input: `--on-bad-line skip` skips malformed log lines (up to
`--bad-line-budget N`, default 100) instead of aborting; skipped lines
are counted in the summary and surfaced as trace events. `--failpoints
\"site=action[@nth];…\"` (or RTIC_FAILPOINTS) injects faults for crash
drills: sites `run.abort`, `checkpoint.write`, `engine-panic:<name>`;
actions io-error, abort, panic, truncate:K, bitflip:K.

Telemetry: `--metrics FILE` writes a metrics snapshot after the run (JSON,
or Prometheus text when FILE ends in `.prom`); `--trace FILE` appends one
JSON line per step event (`-` traces to stderr), or — with
`--trace-format chrome` — a Chrome trace format array viewable in
Perfetto / chrome://tracing; `--sample-space N` records every checker's
space footprint every N steps. `rtic report` renders a JSON metrics
snapshot as a summary table.

Serving: `rtic serve` runs the fleet as a resident daemon speaking a
line protocol (UPDATE/TICK/QUERY/DRAIN — see docs/SERVING.md) over a
unix or TCP socket. Ingest flows through a bounded queue (`--queue N`,
default 64): a full queue answers `BUSY <retry-after-ms>` instead of
buffering, and clients stalled past `--write-timeout-ms` are
disconnected. `--checkpoint` + `--checkpoint-every/-secs` make the
daemon crash-safe (state and the violation report are sealed together);
`--resume` restores the newest intact checkpoint on boot and acks
already-covered updates as replayed. SIGTERM or DRAIN drains
gracefully: stop accepting, flush, final checkpoint, exit 0. `--report
FILE` writes the final violation lines (byte-identical to `rtic check`
on the same stream) on drain. After each wakeup the engine steps
whatever is already queued (at most one queue's worth) one update at a
time, then seals at most one checkpoint and replies in order — group
commit. A checkpoint is sealed before its pass is acked; a writer
thread makes it durable before the next one starts (`QUERY status`
shows `sealed=` for the newest durable one). `rtic send` streams a log to
a serving daemon with backoff+jitter retries, printing violations as
they come.

Profiling: `--profile` (incremental checker) turns on per-plan-node
counters — inclusive wall time, cardinalities, memo-cache hits — and
prints an EXPLAIN-ANALYZE-style table per constraint after the run; the
profile also lands in `--metrics` snapshots and traces. `rtic explain
FILE --profile LOG` additionally replays LOG and annotates each
constraint's report with the measured plan profile.";

/// Runs the CLI; returns the process exit code. All output goes through
/// `out` so tests can capture it.
pub fn run(args: &[String], out: &mut String) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..], out),
        Some("report") => report_cmd(&args[1..], out),
        Some("explain") => explain_cmd(&args[1..], out),
        Some("generate") => generate(&args[1..], out),
        Some("smc") => Err(SMC_REMOVED.into()),
        Some("serve") => serve_cmd(&args[1..], out),
        Some("send") => send_cmd(&args[1..], out),
        Some("--help") | Some("-h") | None => {
            let _ = writeln!(out, "{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`; try --help")),
    }
}

/// The value of `--flag VALUE`, if the flag is present. A value flag that
/// ends the command line, or is followed by another `--flag`, is a usage
/// error — silently dropping it would skip the checkpoint, report or
/// metrics file the caller asked for.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    Ok(flag_values(args, name)?.into_iter().next())
}

/// All values of a repeatable `--flag VALUE` pair, in order.
fn flag_values<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a str>, String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .map(|(i, _)| match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(v.as_str()),
            _ => Err(format!("{name} needs a value; try --help")),
        })
        .collect()
}

/// A `--token` missing from the subcommand's whitespace-separated `known`
/// list is a usage error: a typo must not silently run without the
/// checkpoint or report it asked for.
fn reject_unknown_flags(args: &[String], known: &str) -> Result<(), String> {
    let unknown = |a: &&String| a.starts_with("--") && !known.split(' ').any(|k| k == *a);
    match args.iter().find(unknown) {
        Some(flag) => Err(format!("unknown flag `{flag}`; try --help")),
        None => Ok(()),
    }
}

/// `--shard V` / `--shard-evict N` selected the per-key shard plane, which
/// no longer exists. Both are still consumed — a missing value stays a
/// usage error — and otherwise ignored, because the frozen `benchmark/`
/// passes them; the next `[benchmark]` PR drops them (ROADMAP, "Unfreeze
/// and refresh the pipeline benchmark").
fn ignore_shard_flags(args: &[String]) -> Result<(), String> {
    flag_value(args, "--shard")?;
    flag_value(args, "--shard-evict")?;
    Ok(())
}

/// `--flag VALUE` parsed as a `T`; a malformed value is a usage error
/// naming the flag.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, name)?
        .map(|v| v.parse().map_err(|e| format!("bad {name}: {e}")))
        .transpose()
}

/// The checkpoint flags `check` and `serve` share: the rotation depth
/// (`--checkpoint-keep`, default 3) and the mid-run cadence, which needs
/// a `--checkpoint` to write to. `--checkpoint-secs 0` means every step
/// boundary; negative, NaN and infinite values are usage errors here
/// because `Duration::from_secs_f64` panics on them.
fn checkpoint_flags(
    args: &[String],
    checkpointing: bool,
) -> Result<(usize, CheckpointPolicy), String> {
    let keep = parsed_flag(args, "--checkpoint-keep")?.unwrap_or(3);
    if keep == 0 {
        return Err("--checkpoint-keep needs at least one generation".into());
    }
    let every_steps = parsed_flag(args, "--checkpoint-every")?;
    let every = flag_value(args, "--checkpoint-secs")?
        .map(|v| {
            let secs: Option<f64> = v.parse().ok();
            secs.and_then(|s| Duration::try_from_secs_f64(s).ok())
                .ok_or_else(|| {
                    format!("bad --checkpoint-secs `{v}`: needs a finite, non-negative number")
                })
        })
        .transpose()?;
    if (every_steps.is_some() || every.is_some()) && !checkpointing {
        return Err("--checkpoint-every/--checkpoint-secs require --checkpoint".into());
    }
    Ok((keep, CheckpointPolicy { every_steps, every }))
}

/// The fault plan of `--failpoints SPEC`, or else of the environment.
fn failpoints(args: &[String]) -> Result<FailPlan, String> {
    match flag_value(args, "--failpoints")? {
        Some(spec) => FailPlan::parse(spec).map_err(|e| format!("bad --failpoints: {e}")),
        None => FailPlan::from_env().map_err(|e| format!("bad {}: {e}", rtic_resilience::ENV_VAR)),
    }
}

/// `rtic smc` sampled scenario histories; its two cross-checks moved into
/// the oracle.
const SMC_REMOVED: &str = "`rtic smc` was removed: its daemon-vs-batch and naive re-checks \
     are the oracle's `serve` mode and scenario corpus (`rtic-oracle --backends naive,serve`, \
     docs/TESTING.md); the violation-rate estimate described the generator, not the engine";

/// `--parallel` selected a per-step worker pool that no longer exists;
/// say so instead of rejecting the flag like any other unknown one.
fn reject_parallel(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--parallel") {
        return Err(
            "--parallel was removed: the worker pool was slower than sequential stepping \
             at every measured point (EXPERIMENTS.md T8, docs/PERFORMANCE.md §6a); drop the flag"
                .into(),
        );
    }
    Ok(())
}

fn load_constraints(path: &str) -> Result<ConstraintFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read constraints file `{path}`: {e}"))?;
    parse_file(&text).map_err(|e| format!("{path}:{e}"))
}

/// Loads `primary` and merges every `--constraints` extra into it:
/// shared relation declarations must agree, constraint names must be
/// unique across files.
fn load_merged_constraints(primary: &str, extras: &[&str]) -> Result<ConstraintFile, String> {
    let mut file = load_constraints(primary)?;
    for path in extras {
        let extra = load_constraints(path)?;
        file.catalog
            .try_merge(&extra.catalog)
            .map_err(|e| format!("`{path}`: {e}"))?;
        for c in extra.constraints {
            if file.constraints.iter().any(|have| have.name == c.name) {
                return Err(format!(
                    "`{path}`: constraint `{}` is already defined by an earlier file",
                    c.name
                ));
            }
            file.constraints.push(c);
        }
    }
    if file.constraints.is_empty() {
        return Err(format!("`{primary}` declares no constraints"));
    }
    Ok(file)
}

/// The two evaluation engines behind `rtic check`: the incremental
/// backend always runs as one shared-state [`ConstraintSet`] fleet with
/// relevance dispatch; the reference backends (`naive|windowed|active`)
/// run one independent checker per constraint and never checkpoint or
/// profile.
enum CheckEngine {
    Independent(Vec<Box<dyn Checker>>),
    Fleet(Box<ConstraintSet>),
}

impl CheckEngine {
    fn fleet(&self) -> Option<&ConstraintSet> {
        match self {
            CheckEngine::Fleet(set) => Some(set),
            CheckEngine::Independent(_) => None,
        }
    }
}

/// The trace writer behind `--trace`, in the format `--trace-format`
/// picked: JSON lines (the default) or a Chrome trace format array.
enum AnyTrace {
    Json(TraceWriter),
    Chrome(ChromeTraceWriter),
}

impl AnyTrace {
    fn events_written(&self) -> u64 {
        match self {
            AnyTrace::Json(t) => t.lines_written(),
            AnyTrace::Chrome(t) => t.events_written(),
        }
    }

    fn finish(self) -> Result<String, String> {
        match self {
            AnyTrace::Json(t) => t.finish(),
            AnyTrace::Chrome(t) => t.finish(),
        }
    }
}

impl StepObserver for AnyTrace {
    fn observe(&mut self, event: &StepEvent<'_>) {
        match self {
            AnyTrace::Json(t) => t.observe(event),
            AnyTrace::Chrome(t) => t.observe(event),
        }
    }
}

/// The run's observers: the metrics registry, and the trace if one is on.
fn observers<'a>(
    registry: &'a mut MetricsRegistry,
    trace: &'a mut Option<AnyTrace>,
) -> MultiObserver<'a> {
    let mut obs = MultiObserver::new().with(registry);
    if let Some(t) = trace.as_mut() {
        obs.push(t);
    }
    obs
}

/// Builds one reference checker from a compiled constraint.
type MakeReference = fn(CompiledConstraint) -> Box<dyn Checker>;

/// The reference backends' constructors; `None` for the incremental
/// backend, which runs as a [`ConstraintSet`].
fn reference_backend(backend: BackendId) -> Option<MakeReference> {
    match backend {
        BackendId::Incremental => None,
        BackendId::Naive => Some(|c| Box::new(NaiveChecker::from_compiled(c))),
        BackendId::Windowed => Some(|c| Box::new(NaiveChecker::windowed(c))),
        BackendId::Active => Some(|c| Box::new(ActiveChecker::from_compiled(c))),
    }
}

/// Every flag `check` reads; the last three are inert (see
/// [`ignore_shard_flags`]) and stay listed while the frozen `benchmark/`
/// passes them.
const CHECK_FLAGS: &str = "--checker --constraints --profile --quiet --stats --explain \
    --checkpoint --resume --checkpoint-every --checkpoint-secs --checkpoint-keep --on-bad-line \
    --bad-line-budget --failpoints --metrics --trace --trace-format --sample-space \
    --vectorize --shard --shard-evict";

/// What every refused `--resume` ends with: the log is the source of
/// truth, and a checkpoint only saves replaying it.
const REPLAY: &str = "run without `--resume` to check the log from its start";

fn check(args: &[String], out: &mut String) -> Result<i32, String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [constraints_path, log_path] = positional.as_slice() else {
        return Err("check needs <constraints-file> and <log-file>; try --help".into());
    };
    reject_parallel(args)?;
    if args.iter().any(|a| a == "--batch") {
        return Err(
            "--batch was removed: micro-batched ingestion was flat at every recorded batch \
             size (docs/PERFORMANCE.md §6b); drop the flag — `--checkpoint-every N` spaces \
             checkpoints"
                .into(),
        );
    }
    reject_unknown_flags(args, CHECK_FLAGS)?;
    let quiet = args.iter().any(|a| a == "--quiet");
    let stats = args.iter().any(|a| a == "--stats");
    let show_explain = args.iter().any(|a| a == "--explain");
    let profile = args.iter().any(|a| a == "--profile");
    let backend: BackendId = flag_value(args, "--checker")?
        .unwrap_or("incremental")
        .parse()?;
    if profile && backend != BackendId::Incremental {
        return Err("--profile requires the incremental checker".into());
    }
    // Accepted and ignored since the columnar kernels became the only
    // compiled path; still refused where it never applied.
    if args.iter().any(|a| a == "--vectorize") && backend != BackendId::Incremental {
        return Err("--vectorize requires the incremental checker".into());
    }
    let options = EncodingOptions {
        profile_plans: profile,
        ..Default::default()
    };
    let checkpoint_path = flag_value(args, "--checkpoint")?;
    let resume_path = flag_value(args, "--resume")?;
    if (checkpoint_path.is_some() || resume_path.is_some()) && backend != BackendId::Incremental {
        return Err("--checkpoint/--resume require the incremental checker".into());
    }
    ignore_shard_flags(args)?;
    let (checkpoint_keep, checkpoint_policy) = checkpoint_flags(args, checkpoint_path.is_some())?;
    let skip_bad_lines = match flag_value(args, "--on-bad-line")? {
        None | Some("strict") => false,
        Some("skip") => true,
        Some(other) => return Err(format!("bad --on-bad-line `{other}` (strict|skip)")),
    };
    let bad_line_budget: u64 = parsed_flag(args, "--bad-line-budget")?.unwrap_or(100);
    if flag_value(args, "--bad-line-budget")?.is_some() && !skip_bad_lines {
        return Err("--bad-line-budget requires --on-bad-line skip".into());
    }
    let faults = failpoints(args)?;
    match faults.engine_panics().first() {
        Some((name, _)) if backend != BackendId::Incremental => {
            return Err(format!(
                "failpoint `engine-panic:{name}` requires the incremental checker"
            ))
        }
        _ => {}
    }
    let extra_constraint_paths = flag_values(args, "--constraints")?;
    let metrics_path = flag_value(args, "--metrics")?;
    let trace_path = flag_value(args, "--trace")?;
    let trace_chrome = match flag_value(args, "--trace-format")? {
        None | Some("json") => false,
        Some("chrome") => true,
        Some(other) => return Err(format!("bad --trace-format `{other}` (json|chrome)")),
    };
    if flag_value(args, "--trace-format")?.is_some() && trace_path.is_none() {
        return Err("--trace-format requires --trace".into());
    }
    let sample_every: u64 = parsed_flag(args, "--sample-space")?.unwrap_or(0);

    // Every run aggregates into a registry; the summary line, the exit
    // code, --stats and --metrics all read its counts of the event stream.
    let mut registry = MetricsRegistry::new();
    let mut trace = match (trace_path, trace_chrome) {
        (Some("-"), false) => Some(AnyTrace::Json(TraceWriter::to_stderr())),
        (Some("-"), true) => Some(AnyTrace::Chrome(ChromeTraceWriter::to_stderr())),
        (Some(path), chrome) => Some(
            (if chrome {
                ChromeTraceWriter::to_file(path).map(AnyTrace::Chrome)
            } else {
                TraceWriter::to_file(path).map(AnyTrace::Json)
            })
            .map_err(|e| format!("cannot open trace file `{path}`: {e}"))?,
        ),
        (None, _) => None,
    };

    let file = load_merged_constraints(constraints_path, &extra_constraint_paths)?;
    let catalog = Arc::new(file.catalog.clone());

    // Recovery: the newest intact candidate of the rotation set, each
    // rejected one surfaced (rtic_server::session); an empty set is refused.
    let recovered = resume_path.map(|path| {
        let rotation = Rotation::new(path, checkpoint_keep);
        let obs = &mut observers(&mut registry, &mut trace);
        session::recover(&rotation, &file.constraints, &catalog, options, obs, out)
            .map_err(|refused| format!("{refused}; {REPLAY}"))?
            .ok_or_else(|| format!("cannot resume from `{path}`: no checkpoint found; {REPLAY}"))
    });
    let recovered = recovered.transpose()?;
    let resumed = recovered.as_ref().map(|r| r.path.clone());
    // `check` steps a daemon's fleet but not its report, so a checkpoint it
    // wrote would carry the engines past the report they were sealed with.
    let daemons = recovered
        .as_ref()
        .filter(|r| r.report.is_some() && checkpoint_path.is_some());
    if let Some(r) = daemons {
        return Err(format!(
            "cannot --checkpoint a run resumed from `{}`: it carries a daemon's `{}` section, \
             which `rtic check` does not keep; resume it with `rtic serve --resume`, or drop \
             --checkpoint",
            r.path.display(),
            rtic_server::report::SECTION_HEADER,
        ));
    }
    let mut engine = if let Some(make) = reference_backend(backend) {
        let mut checkers = Vec::with_capacity(file.constraints.len());
        for c in &file.constraints {
            let compiled = CompiledConstraint::compile(c.clone(), Arc::clone(&catalog))
                .map_err(|e| format!("constraint `{}`: {e}", c.name))?;
            if show_explain {
                let _ = writeln!(out, "{}", explain::explain(&compiled));
            }
            checkers.push(make(compiled));
        }
        CheckEngine::Independent(checkers)
    } else {
        let set = match recovered {
            Some(recovered) => recovered.set,
            None => session::fresh(&file.constraints, &catalog, options)?,
        };
        if show_explain {
            for compiled in set.compiled() {
                let _ = writeln!(out, "{}", explain::explain(compiled));
            }
        }
        CheckEngine::Fleet(Box::new(set))
    };

    // Armed engine panics (failpoint `engine-panic:<constraint>`): the
    // constraint-set step path quarantines a panicking engine instead of
    // crashing the run. A resumed run skips the log prefix its checkpoint
    // already covers instead of double-reporting it.
    let mut replay = match &mut engine {
        CheckEngine::Independent(_) => Replay::default(),
        CheckEngine::Fleet(set) => session::start(set, &faults, resumed.as_deref(), "log", out)?,
    };

    // Stream the log: one transition at a time, never the whole file.
    let log_file = std::fs::File::open(log_path)
        .map_err(|e| format!("cannot read log file `{log_path}`: {e}"))?;
    let mut reader = LogReader::new(std::io::BufReader::new(log_file));
    let checkpoint_rotation = checkpoint_path.map(|p| Rotation::new(p, checkpoint_keep));
    // Atomic temp file + fsync + rename; older generations shift to `.1`, ….
    let write_checkpoint = |rotation: &Rotation, set: &ConstraintSet, obs: &mut MultiObserver| {
        let sealed = session::seal(set, None, obs);
        rotation
            .write(&sealed, &faults, "checkpoint.write")
            .map_err(|e| format!("cannot write checkpoint: {e}"))
            .map(|()| sealed.len())
    };
    let mut ticker = CheckpointTicker::new(checkpoint_policy);
    let mut bad_lines = 0u64;
    let mut replayed_bad = 0u64;
    let mut last_time = None;
    while let Some(item) = reader.next() {
        let tr: Transition = match item {
            Ok(tr) => tr,
            // Malformed lines in the prefix the checkpoint covers were
            // charged against the budget by the run that wrote it; charging
            // them again would shrink the budget with each restart.
            Err(e) if skip_bad_lines && e.kind == LogErrorKind::Parse && replay.in_prefix() => {
                replayed_bad += 1;
                continue;
            }
            Err(e) if skip_bad_lines && e.kind == LogErrorKind::Parse => {
                bad_lines += 1;
                if bad_lines > bad_line_budget {
                    return Err(format!(
                        "{log_path}:{e} — bad-line budget exhausted \
                         ({bad_lines} malformed line(s), budget {bad_line_budget})"
                    ));
                }
                let mut obs = observers(&mut registry, &mut trace);
                obs.observe(&StepEvent::BadLine(observe::BadLine {
                    line: e.line,
                    detail: e.message.clone(),
                }));
                continue;
            }
            Err(e) => return Err(format!("{log_path}:{e}")),
        };
        if replay.covers(tr.time) {
            continue;
        }
        if let Some(action) = faults.check("run.abort") {
            match action {
                FailAction::Panic => panic!("injected panic (failpoint `run.abort`)"),
                _ => return Err("injected crash (failpoint `run.abort`)".into()),
            }
        }
        let line = reader.lines_read();
        let step_index = registry.steps();
        last_time = Some(tr.time);
        let mut obs = observers(&mut registry, &mut trace);
        let reports = match &mut engine {
            CheckEngine::Independent(checkers) => {
                observe::step_all(checkers, tr.time, &tr.update, &mut obs)
            }
            CheckEngine::Fleet(set) => set.step_observed(tr.time, &tr.update, &mut obs),
        }
        .map_err(|e| format!("{log_path}:line {line}: at {}: {e}", tr.time))?;
        if sample_every != 0 && step_index.is_multiple_of(sample_every) {
            match &engine {
                CheckEngine::Independent(checkers) => {
                    observe::sample_space(checkers, tr.time, step_index, &mut obs);
                }
                CheckEngine::Fleet(set) => set.sample_space(step_index, &mut obs),
            }
        }
        for report in reports.iter().filter(|r| !r.ok() && !quiet) {
            let _ = writeln!(out, "{report}");
        }
        if let (Some(rotation), Some(set)) = (&checkpoint_rotation, engine.fleet()) {
            if ticker.step_completed() {
                write_checkpoint(rotation, set, &mut obs)?;
            }
        }
    }
    replay.finish(out);
    if replayed_bad > 0 {
        let _ = writeln!(
            out,
            "skipped {replayed_bad} malformed line(s) already covered by the checkpoint \
             (not charged against the bad-line budget)"
        );
    }
    {
        // Final footprint reading, so --stats and the metrics snapshot
        // reflect end-of-run space even without --sample-space.
        let steps = registry.steps();
        let mut obs = observers(&mut registry, &mut trace);
        match &engine {
            CheckEngine::Independent(checkers) => {
                let time = last_time.unwrap_or(rtic_temporal::TimePoint(0));
                observe::sample_space(checkers, time, steps, &mut obs);
                observe::sample_plan_stats(checkers, &mut obs);
            }
            CheckEngine::Fleet(set) => {
                set.sample_space(steps, &mut obs);
                set.sample_plan_stats(&mut obs);
                set.sample_plan_profiles(&mut obs);
            }
        }
    }
    if let (Some(rotation), Some(set)) = (&checkpoint_rotation, engine.fleet()) {
        let bytes = write_checkpoint(rotation, set, &mut observers(&mut registry, &mut trace))?;
        let _ = writeln!(
            out,
            "checkpoint written to {} ({bytes} bytes)",
            rotation.primary().display()
        );
    }
    let _ = writeln!(
        out,
        "checked {} transitions against {} constraint(s) [{}]: {} violation witness(es) over {} state(s)",
        registry.steps(),
        file.constraints.len(),
        backend,
        registry.violations(),
        registry.violating_steps(),
    );
    if bad_lines > 0 {
        let _ = writeln!(
            out,
            "skipped {bad_lines} malformed line(s) (--on-bad-line skip, budget {bad_line_budget})"
        );
    }
    // Everything below that is fleet-only (quarantine, profiles, dispatch
    // tallies, per-node footprints) is simply absent for the reference
    // backends.
    let fleet = engine.fleet();
    for (name, detail) in fleet.map(ConstraintSet::quarantined).unwrap_or_default() {
        let _ = writeln!(out, "quarantined `{name}`: {detail}");
    }
    if let (true, Some(set)) = (profile, fleet) {
        for (name, prof) in &set.plan_profiles() {
            let _ = writeln!(out, "profile[{name}]:");
            out.push_str(&explain::render_profile(prof));
        }
    }
    if stats {
        // Uniform across backends, read back from the registry (fed by
        // the final space sample above).
        for (constraint, _, space) in registry.latest_space_by_constraint() {
            let _ = writeln!(out, "space[{constraint}]: {space}");
            for stat in fleet.map_or_else(Vec::new, |set| set.node_stats(constraint)) {
                let _ = writeln!(
                    out,
                    "  node `{}`: {} key(s), {} timestamp(s)",
                    stat.formula, stat.keys, stat.timestamps
                );
            }
        }
        if let Some(set) = fleet {
            let d = set.dispatch_stats();
            let _ = writeln!(
                out,
                "dispatch: {} engine-step(s) total — {} affected, {} asleep until its next deadline, {} quiescent but fully evaluated",
                d.total(),
                d.affected,
                d.skipped,
                d.quiescent_full,
            );
            if d.quarantined > 0 {
                let _ = writeln!(
                    out,
                    "dispatch: {} engine-step(s) skipped by quarantine",
                    d.quarantined
                );
            }
        }
        for (name, plan) in registry.plan_stats_by_checker() {
            let _ = writeln!(
                out,
                "plan[{name}]: {} node(s), {} atom shape(s), {} join shape(s), {} probe(s), {} memoized, scratch high-water {}, {} row(s) copied",
                plan.plan.nodes,
                plan.plan.atom_shapes,
                plan.plan.join_shapes,
                plan.plan.probe_nodes,
                plan.plan.cached_nodes,
                plan.scratch_high_water,
                plan.rows_copied,
            );
        }
        if registry.checkpoint_fallbacks() > 0 {
            let _ = writeln!(
                out,
                "recovery: {} corrupt checkpoint candidate(s) rejected",
                registry.checkpoint_fallbacks()
            );
        }
        if registry.bad_lines() > 0 {
            let _ = writeln!(out, "bad lines skipped: {}", registry.bad_lines());
        }
    }
    if let Some(path) = metrics_path {
        let rendered = registry.render_for(path);
        write_atomic(Path::new(path), rendered.as_bytes())
            .map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
        let _ = writeln!(out, "metrics written to {path}");
    }
    if let Some(t) = trace {
        let events = t.events_written();
        t.finish()?;
        if let Some(path) = trace_path.filter(|p| *p != "-") {
            let _ = writeln!(out, "trace written to {path} ({events} events)");
        }
    }
    // Every report, metrics file, trace and checkpoint is written and
    // flushed, and the process exits once `out` is printed: freeing the
    // engine's row sets and relations one allocation at a time would cost
    // ≈ 2 ms on a 10⁴-row database and return nothing the exit does not.
    std::mem::forget(engine);
    Ok(if registry.violations() > 0 { 1 } else { 0 })
}

fn report_cmd(args: &[String], out: &mut String) -> Result<i32, String> {
    reject_unknown_flags(args, "")?;
    let [path] = args else {
        return Err("report needs <metrics-file>; try --help".into());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read metrics file `{path}`: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("`{path}` is not valid JSON: {e}"))?;
    out.push_str(&report::render(&doc)?);
    Ok(0)
}

fn explain_cmd(args: &[String], out: &mut String) -> Result<i32, String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [path] = positional.as_slice() else {
        return Err("explain needs <constraints-file>; try --help".into());
    };
    reject_unknown_flags(args, "--profile")?;
    let profile_log = flag_value(args, "--profile")?;
    let file = load_constraints(path)?;
    let catalog = Arc::new(file.catalog.clone());

    // Without --profile this is a pure compile-time report. With it, the
    // log is replayed through a profiling fleet first, so each
    // constraint's report ends with measured per-node annotations — an
    // EXPLAIN ANALYZE for the compiled plans.
    let mut profiles: Vec<(Symbol, rtic_core::PlanProfile)> = Vec::new();
    if let Some(log_path) = profile_log {
        let options = EncodingOptions {
            profile_plans: true,
            ..Default::default()
        };
        let mut set = session::fresh(&file.constraints, &catalog, options)?;
        let log_file = std::fs::File::open(log_path)
            .map_err(|e| format!("cannot read log file `{log_path}`: {e}"))?;
        let mut reader = LogReader::new(std::io::BufReader::new(log_file));
        while let Some(item) = reader.next() {
            let tr: Transition = item.map_err(|e| format!("{log_path}:{e}"))?;
            let line = reader.lines_read();
            set.step(tr.time, &tr.update)
                .map_err(|e| format!("{log_path}:line {line}: at {}: {e}", tr.time))?;
        }
        profiles = set.plan_profiles();
    }

    for c in &file.constraints {
        let compiled = CompiledConstraint::compile(c.clone(), Arc::clone(&catalog))
            .map_err(|e| format!("constraint `{}`: {e}", c.name))?;
        let text = explain::explain(&compiled);
        match profiles.iter().find(|(name, _)| *name == c.name) {
            Some((_, p)) => {
                out.push_str(text.trim_end());
                let _ = writeln!(out);
                out.push_str(&explain::render_profile(p));
                let _ = writeln!(out);
            }
            None => {
                let _ = writeln!(out, "{text}");
            }
        }
    }
    Ok(0)
}

/// Parses the shared scenario-shape flags over the given defaults.
fn scenario_params(args: &[String], defaults: ScenarioParams) -> Result<ScenarioParams, String> {
    let mut p = defaults;
    if let Some(steps) = parsed_flag(args, "--steps")? {
        p.steps = steps;
    }
    if let Some(entities) = parsed_flag(args, "--entities")? {
        p.entities = entities;
        if p.entities == 0 {
            return Err("--entities needs at least one entity".into());
        }
    }
    if let Some(events) = parsed_flag(args, "--events")? {
        p.events_per_step = events;
    }
    if let Some(rate) = parsed_flag(args, "--violation-rate")? {
        p.violation_rate = rate;
        if !(0.0..=1.0).contains(&p.violation_rate) {
            return Err("--violation-rate must be in [0, 1]".into());
        }
    }
    if let Some(seed) = parsed_flag(args, "--seed")? {
        p.seed = seed;
    }
    Ok(p)
}

fn scenario_roster() -> String {
    library::names().join("|")
}

/// The scenario-shape flags [`scenario_params`] reads.
const SCENARIO_FLAGS: &str = "--steps --entities --events --violation-rate --seed";

fn generate(args: &[String], out: &mut String) -> Result<i32, String> {
    let Some(kind) = args.first() else {
        return Err(format!(
            "generate needs a scenario name ({}); try --help",
            scenario_roster()
        ));
    };
    reject_unknown_flags(args, &format!("--list {SCENARIO_FLAGS}"))?;
    if kind == "--list" {
        for s in library::all() {
            let _ = writeln!(out, "{:<14} {}", s.name, s.summary);
        }
        return Ok(0);
    }
    let Some(scenario) = library::find(kind) else {
        return Err(format!("unknown scenario `{kind}` ({})", scenario_roster()));
    };
    // Default shape matches the historical CLI default of 100 steps.
    let params = scenario_params(
        args,
        ScenarioParams {
            steps: 100,
            ..Default::default()
        },
    )?;
    let generated = scenario.generate(&params);
    // Header: the matching constraint file, commented out for reference.
    let _ = writeln!(
        out,
        "# workload: {kind} steps={} entities={} events={} seed={}",
        params.steps, params.entities, params.events_per_step, params.seed
    );
    let _ = writeln!(out, "# matching constraint file:");
    for name in generated.catalog.names() {
        let Some(schema) = generated.catalog.schema_of(name) else {
            continue; // names() only lists declared relations
        };
        let attrs: Vec<String> = schema.attributes().iter().map(|a| format!("{a}")).collect();
        let _ = writeln!(out, "#   relation {name}({})", attrs.join(", "));
    }
    for c in &generated.constraints {
        let _ = writeln!(out, "#   {c}");
    }
    let _ = writeln!(out, "# injected violations: {}", generated.expected.len());
    out.push_str(&format_log(&generated.transitions));
    Ok(0)
}

/// Every flag `serve` reads; the last four are inert and stay listed
/// while the frozen `benchmark/` passes them.
const SERVE_FLAGS: &str = "--listen --constraints --queue --retry-ms --write-timeout-ms \
    --checkpoint --resume --checkpoint-every --checkpoint-secs --checkpoint-keep --failpoints \
    --report --metrics --vectorize --shard --shard-evict --batch";

fn serve_cmd(args: &[String], out: &mut String) -> Result<i32, String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [constraints_path] = positional.as_slice() else {
        return Err("serve needs <constraints-file>; try --help".into());
    };
    reject_parallel(args)?;
    reject_unknown_flags(args, SERVE_FLAGS)?;
    let listen_spec =
        flag_value(args, "--listen")?.ok_or("serve needs --listen unix:<path>|tcp:<host:port>")?;
    let mut config = ServeConfig::new(Listen::parse(listen_spec)?);
    if let Some(capacity) = parsed_flag(args, "--queue")? {
        config.queue_capacity = capacity;
        if config.queue_capacity == 0 {
            return Err("--queue needs capacity for at least one update".into());
        }
    }
    if let Some(ms) = parsed_flag(args, "--retry-ms")? {
        config.retry_ms = ms;
    }
    if let Some(ms) = parsed_flag(args, "--write-timeout-ms")? {
        if ms == 0 {
            return Err("--write-timeout-ms needs at least one millisecond".into());
        }
        config.write_timeout = Duration::from_millis(ms);
    }
    config.checkpoint = flag_value(args, "--checkpoint")?.map(String::from);
    (config.checkpoint_keep, config.policy) = checkpoint_flags(args, config.checkpoint.is_some())?;
    config.resume = args.iter().any(|a| a == "--resume");
    ignore_shard_flags(args)?;
    // `--batch N` bounded the daemon's queue drain, which is now always
    // on and bounded by `--queue`. Consumed and ignored like the shard
    // flags, and for the same reason (ROADMAP, "Unfreeze and refresh the
    // pipeline benchmark").
    flag_value(args, "--batch")?;
    config.faults = failpoints(args)?;
    config.report_path = flag_value(args, "--report")?.map(String::from);
    config.metrics_path = flag_value(args, "--metrics")?.map(String::from);

    let extra_constraint_paths = flag_values(args, "--constraints")?;
    let file = load_merged_constraints(constraints_path, &extra_constraint_paths)?;
    let catalog = Arc::new(file.catalog.clone());
    rtic_server::serve(file.constraints, catalog, config, out)
}

fn send_cmd(args: &[String], out: &mut String) -> Result<i32, String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [log_path] = positional.as_slice() else {
        return Err("send needs <log-file>; try --help".into());
    };
    reject_unknown_flags(args, "--connect --drain --quiet --connect-timeout-ms")?;
    let connect_spec =
        flag_value(args, "--connect")?.ok_or("send needs --connect unix:<path>|tcp:<host:port>")?;
    let listen = Listen::parse(connect_spec)?;
    let quiet = args.iter().any(|a| a == "--quiet");
    let do_drain = args.iter().any(|a| a == "--drain");
    let connect_timeout: u64 = parsed_flag(args, "--connect-timeout-ms")?.unwrap_or(5000);

    let log = std::fs::File::open(log_path)
        .map_err(|e| format!("cannot read log file `{log_path}`: {e}"))?;
    let mut client = Client::connect_retry(&listen, Duration::from_millis(connect_timeout))?;
    let (mut sent, mut replayed, mut witnesses) = (0u64, 0u64, 0u64);
    // Line by line, as `check` reads: the lines before a bad one are sent.
    for (line, n) in std::io::BufRead::split(std::io::BufReader::new(log), b'\n').zip(1..) {
        let line = line.map_err(|e| format!("{log_path}:line {n}: I/O error: {e}"))?;
        let line = std::str::from_utf8(&line)
            .map_err(|e| format!("{log_path}:line {n}: {}", LexError::Utf8(e.valid_up_to())))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let reply = client
            .send_update(trimmed)
            .map_err(|e| format!("{log_path}: sending `{trimmed}`: {e}"))?;
        sent += 1;
        if reply.ok == "replayed" {
            replayed += 1;
        } else {
            witnesses += reply.ok.parse::<u64>().unwrap_or(0);
        }
        if !quiet {
            for violation in &reply.violations {
                let _ = writeln!(out, "{violation}");
            }
        }
    }
    if replayed > 0 {
        let _ = writeln!(
            out,
            "{replayed} update(s) acked as already covered by the server's checkpoint"
        );
    }
    let busy = client.busy_retries();
    if busy > 0 {
        let _ = writeln!(out, "absorbed {busy} BUSY rejection(s) with backoff");
    }
    if do_drain {
        let drained = client.drain()?;
        let _ = writeln!(out, "server {drained}");
    }
    let _ = writeln!(
        out,
        "sent {sent} update(s): {witnesses} violation witness(es)"
    );
    Ok(if witnesses > 0 { 1 } else { 0 })
}
