//! The rtic pipeline benchmark.
//!
//! ```text
//! rtic-benchmark --rtic BIN --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last stdout line is the result object
//! rtic-benchmark --rtic BIN [--seed N] [--seconds S] [--repeats K] [--smoke] [--out FILE]
//!     a full pass: every workload, K untraced runs and one traced run each
//! rtic-benchmark compare A.json B.json
//! rtic-benchmark --bless
//! ```
//!
//! `benchmark/run.sh` builds both binaries and forwards its arguments.
//!
//! Every run is a process of its own, and so is every input generation
//! (`--generate`, internal): rtic prints string-valued witnesses in the
//! order its process first saw them, so the harness must meet a run's
//! strings in the order the binary will — constraint file, then log, top
//! to bottom — and never in a generator's or an earlier seed's order.

mod child;
mod compare;
mod e2e;
mod metrics;
mod reference;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use rtic_obs::json::Json;

use e2e::{Ctx, PassOptions};
use metrics::{named, Metric, END_TO_END};
use workloads::{Sizes, Spec};

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, name) {
        Some(v) => v.parse().map_err(|e| format!("bad {name} `{v}`: {e}")),
        None => Ok(default),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..])
    } else if has("--bless") {
        bless()
    } else if has("--generate") {
        generate(&args)
    } else if has("--digest") {
        digest(&args)
    } else if flag_value(&args, "--workload").is_some() {
        single_run(&args)
    } else {
        full_pass(&args)
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("rtic-benchmark: {message}");
            std::process::exit(2);
        }
    }
}

/// The benchmark's own directory, relative to the repository root the
/// harness runs from.
const HOME: &str = "benchmark";

fn digests_path() -> PathBuf {
    PathBuf::from(HOME).join("digests.json")
}

fn this_binary() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find the harness binary: {e}"))
}

/// A fresh per-run temp dir under `benchmark/out/`.
fn context(args: &[String]) -> Result<Ctx, String> {
    let rtic = PathBuf::from(flag_value(args, "--rtic").unwrap_or_default());
    let dir = PathBuf::from(HOME)
        .join("out")
        .join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(Ctx {
        rtic,
        harness: this_binary()?,
        dir,
        digests: digests_path(),
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// The workload `--workload` names, at full or `--smoke` size.
fn workload(args: &[String]) -> Result<(&'static Spec, Sizes), String> {
    let name = flag_value(args, "--workload").ok_or("--workload <name> is required")?;
    let spec = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` ({})", names.join("|"))
    })?;
    let smoke = args.iter().any(|a| a == "--smoke");
    Ok((spec, spec.sizes_for(smoke)))
}

/// Internal (`--generate --workload W --seed N --dir D [--smoke]`):
/// writes one generated input as the files the binary reads.
fn generate(args: &[String]) -> Result<i32, String> {
    let (spec, sizes) = workload(args)?;
    let seed: u64 = parsed(args, "--seed", reference::BLESSED_SEED)?;
    let dir = PathBuf::from(flag_value(args, "--dir").ok_or("--generate needs --dir")?);
    spec.input(&sizes, seed).write(&dir)?;
    Ok(0)
}

/// Internal (`--digest --workload W [--smoke]`): prints the seed-42
/// reference digest of one workload, from a process that has seen no
/// other input.
fn digest(args: &[String]) -> Result<i32, String> {
    let (spec, sizes) = workload(args)?;
    let ctx = context(args)?;
    let prepared = e2e::prepare(spec, reference::BLESSED_SEED, &ctx).map(|(p, _)| p);
    e2e::clean_up(&ctx.dir);
    println!("{} {}", sizes.label(), stats::digest(&prepared?.reference));
    Ok(0)
}

/// `--bless`: re-records `digests.json` for every workload at full and
/// smoke size.
fn bless() -> Result<i32, String> {
    let mut doc = Json::object();
    for spec in workloads::WORKLOADS {
        for smoke in [false, true] {
            let mut child = vec!["--digest", "--workload", spec.name];
            child.extend(smoke.then_some("--smoke"));
            let line = child_stdout(&child)?;
            let (sizes, digest) = line
                .trim()
                .rsplit_once(' ')
                .ok_or_else(|| format!("unexpected digest line `{line}`"))?;
            println!("{} [{sizes}] {digest}", spec.name);
            doc = doc.set(&reference::digest_key(spec.name, sizes), digest);
        }
    }
    let path = digests_path();
    std::fs::write(&path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(0)
}

/// Runs this binary with `args` and returns its stdout; stderr passes
/// through. A failing child is an error carrying what it printed.
fn child_stdout(args: &[&str]) -> Result<String, String> {
    let output = Command::new(this_binary()?)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the harness: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "`rtic-benchmark {}` failed ({}):\n{stdout}",
            args.join(" "),
            output.status
        ))
    }
}

/// One untraced run's raw outcome.
pub struct RunOutcome {
    /// Whether every pass reproduced the reference report and every
    /// resume probe resumed.
    pub correct: bool,
    /// Operations attempted: updates of every pass, plus resume probes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One value per metric, in declaration order.
    pub values: Vec<(&'static Metric, f64)>,
}

/// A run is this many rounds of set-up, passes and resume probes, so that
/// every metric samples the whole run and not one stretch of it: the host's
/// slow spells last from a tenth of a second to a minute.
const ROUNDS: usize = 5;
/// Set-ups per round: one, then more until the time budget has passed or
/// the second count is reached.
const SETUPS: std::ops::RangeInclusive<usize> = 1..=5;
const SETUP_BUDGET: f64 = 0.4;
/// How long a run measures unless `--seconds` says otherwise; the
/// driver passes `BENCHMARK.json`'s `run_seconds`, which is the same.
pub const RUN_SECONDS: f64 = 25.0;

/// One untraced run. `seconds` is the time spent in passes; every timing
/// reported is the quiet value ([`stats::quiet`]) of its repeats.
fn run_untraced(spec: &Spec, seed: u64, seconds: f64, ctx: &Ctx) -> Result<RunOutcome, String> {
    let (mut setup_s, mut passes, mut resume_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut resume_failed = 0;
    let mut passing = 0.0;
    for round in 1..=ROUNDS {
        let started = Instant::now();
        let mut done = 0;
        let prepared = loop {
            let (prepared, times) = e2e::set_up(spec, seed, ctx)?;
            setup_s.push(times.total_s);
            done += 1;
            let budget_spent = started.elapsed().as_secs_f64() >= SETUP_BUDGET;
            if done >= *SETUPS.end() || (done >= *SETUPS.start() && budget_spent) {
                break prepared;
            }
        };

        let started = Instant::now();
        let until = seconds * round as f64 / ROUNDS as f64 - passing;
        let mut ran = 0;
        while ran == 0 || started.elapsed().as_secs_f64() < until {
            let pass = e2e::run_pass(spec, &prepared, ctx, PassOptions::default())?;
            if let Some(why) = &pass.mismatch {
                eprintln!("{}: pass {}: {why}", spec.name, passes.len() + 1);
            }
            println!(
                "# pass {}: updates_per_s={:.1} ack_p50_us={:.1} ack_p99_us={:.1} cpu_us_per_update={:.1} (sys {:.0}%) peak_rss_mb={:.1}",
                passes.len() + 1,
                pass.updates_per_s,
                pass.ack_p50_us,
                pass.ack_p99_us,
                pass.cpu_us_per_update,
                pass.cpu_sys_share * 100.0,
                pass.peak_rss_mb
            );
            passes.push(pass);
            ran += 1;
        }
        passing += started.elapsed().as_secs_f64();

        let (ms, failed) = e2e::resume_probes(spec, ctx);
        resume_ms.extend(ms);
        resume_failed += failed;
    }
    if resume_ms.is_empty() {
        return Err("no resume probe succeeded".into());
    }
    let list = |v: &[f64]| -> String {
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        shown.join(" ")
    };
    println!("# setup_s, each set-up: {}", list(&setup_s));
    println!("# resume_ms, each probe: {}", list(&resume_ms));
    println!(
        "# reported: the quiet value of {} set-ups, {} passes and {} resume probes",
        setup_s.len(),
        passes.len(),
        resume_ms.len()
    );

    let over_passes = |name: &str, f: fn(&e2e::Pass) -> f64| {
        let metric = named(END_TO_END, name);
        let column: Vec<f64> = passes.iter().map(f).collect();
        (metric, stats::quiet(&column, metric.lower_is_better))
    };
    // Memory is not a timing: no quiet side, so the median.
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let values = vec![
        (named(END_TO_END, "setup_s"), stats::quiet(&setup_s, true)),
        over_passes("updates_per_s", |p| p.updates_per_s),
        over_passes("ack_p50_us", |p| p.ack_p50_us),
        over_passes("ack_p99_us", |p| p.ack_p99_us),
        over_passes("cpu_us_per_update", |p| p.cpu_us_per_update),
        (named(END_TO_END, "peak_rss_mb"), stats::median(&rss)),
        (
            named(END_TO_END, "resume_ms"),
            stats::quiet(&resume_ms, true),
        ),
    ];
    debug_assert!(values
        .iter()
        .zip(END_TO_END)
        .all(|((m, _), e)| m.name == e.name));
    let probes = resume_ms.len() as u64 + resume_failed;
    Ok(RunOutcome {
        correct: resume_failed == 0 && passes.iter().all(|p| p.report_ok),
        attempted: passes.iter().map(|p| p.attempted).sum::<u64>() + probes,
        failed: passes.iter().map(|p| p.failed).sum::<u64>() + resume_failed,
        values,
    })
}

/// The `rtic` argv of a workload with `DIR` for the run's temp dir.
fn argv_label(spec: &Spec) -> String {
    format!("rtic {}", spec.argv(Path::new("DIR"), false, &[]).join(" "))
}

/// The driver's contract: one workload, one seed, one result line.
fn single_run(args: &[String]) -> Result<i32, String> {
    let (spec, sizes) = workload(args)?;
    let seed: u64 = parsed(args, "--seed", reference::BLESSED_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS)?;
    let trace = match flag_value(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace `{other}` (0|1)")),
    };
    let ctx = context(args)?;
    if !ctx.rtic.is_file() {
        return Err(format!(
            "--rtic `{}` is not the rtic binary",
            ctx.rtic.display()
        ));
    }
    println!(
        "# {} seed={seed} {} argv: {}",
        spec.name,
        sizes.label(),
        argv_label(spec)
    );
    println!("# timings are this sandbox's: fsync and page cache are the container's");
    let cpu = child::pin_to_one_cpu()?;
    println!("# harness and every child process run on cpu {cpu} only");
    let outcome = if trace {
        traced::run(spec, seed, &ctx)
    } else {
        run_untraced(spec, seed, seconds, &ctx)
    };
    e2e::clean_up(&ctx.dir);
    let outcome = outcome?;
    for (m, v) in &outcome.values {
        println!("{:<15} {:<44} {v:>16.4} {}", spec.name, m.name, m.unit);
    }
    let metrics = outcome.values.iter().fold(Json::object(), |doc, (m, v)| {
        doc.set(m.name, Json::object().set("value", *v).set("unit", m.unit))
    });
    let line = Json::object()
        .set("correct", outcome.correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", line.render());
    Ok(0)
}

/// `uname -r`, `rustc --version` and friends; `unknown` when a tool is
/// missing, never an error.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one single run as a child process and parses its result line.
fn child_run(
    spec: &Spec,
    common: &[&str],
    seed: u64,
    trace: bool,
) -> Result<(String, Json), String> {
    let seed = seed.to_string();
    let mut args = vec![
        "--workload",
        spec.name,
        "--seed",
        &seed,
        "--trace",
        if trace { "1" } else { "0" },
    ];
    args.extend_from_slice(common);
    let stdout = child_stdout(&args)?;
    let line = stdout.lines().last().unwrap_or_default();
    let result =
        rtic_obs::json::parse(line).map_err(|e| format!("{}: result line: {e}", spec.name))?;
    Ok((stdout, result))
}

/// Every workload: `repeats` untraced runs (seed, seed+1, …) and one
/// traced run, each a process of its own as under the driver, gathered
/// into one JSON document: machine stamp, flags and sizes, the raw
/// per-repeat values, and medians with their quartiles.
fn full_pass(args: &[String]) -> Result<i32, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = parsed(args, "--seed", reference::BLESSED_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", if smoke { 1.0 } else { RUN_SECONDS })?;
    let repeats: u64 = parsed(args, "--repeats", if smoke { 1 } else { 3 })?.max(1);
    let rtic = flag_value(args, "--rtic").ok_or("--rtic <path to the rtic binary> is required")?;
    let out_path = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(HOME)
                .join("out")
                .join(format!("result-{seed}.json"))
        });
    let seconds_arg = seconds.to_string();
    let mut common = vec!["--rtic", rtic, "--seconds", &seconds_arg];
    common.extend(smoke.then_some("--smoke"));

    let number = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut workloads_doc = Json::object();
    let mut all_correct = true;
    for spec in workloads::WORKLOADS {
        let sizes = spec.sizes_for(smoke);
        let mut raw: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed, mut passes) = (0.0, 0.0, 0);
        for r in 0..repeats {
            eprintln!(
                "{}: untraced run {} of {repeats} (seed {})",
                spec.name,
                r + 1,
                seed + r
            );
            let (stdout, result) = child_run(spec, &common, seed + r, false)?;
            for (column, m) in raw.iter_mut().zip(END_TO_END) {
                let value = result
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .map_or(f64::NAN, |entry| number(entry, "value"));
                column.push(value);
            }
            attempted += number(&result, "attempted");
            failed += number(&result, "failed");
            passes += stdout.lines().filter(|l| l.starts_with("# pass ")).count();
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
        }
        eprintln!("{}: traced run (seed {seed})", spec.name);
        let (layers_stdout, layers) = child_run(spec, &common, seed, true)?;
        all_correct &= layers.get("correct") == Some(&Json::Bool(true));

        let mut e2e_doc = Json::object();
        for (m, column) in END_TO_END.iter().zip(&raw) {
            let median = stats::median(column);
            let mut entry = Json::object()
                .set("unit", m.unit)
                .set("median", median)
                .set("samples", column.len())
                .set(
                    "values",
                    Json::Arr(column.iter().map(|v| Json::from(*v)).collect()),
                );
            let mut note = String::new();
            if let Some((q1, q3)) = stats::quartiles(column) {
                entry = entry.set("q1", q1).set("q3", q3);
                note = format!(" (n={}, IQR {:.4})", column.len(), q3 - q1);
            }
            println!(
                "{:<15} {:<44} {median:>16.4} {}{note}",
                spec.name, m.name, m.unit
            );
            e2e_doc = e2e_doc.set(m.name, entry);
        }
        // The traced child already printed its metrics one per line.
        for line in layers_stdout.lines().filter(|l| l.starts_with(spec.name)) {
            println!("{line}");
        }
        let failed_share = failed / attempted;
        println!(
            "{:<15} {:<44} {failed_share:>16.4} share",
            spec.name, "failed_share"
        );
        workloads_doc = workloads_doc.set(
            spec.name,
            Json::object()
                .set("why", spec.why)
                .set("sizes", sizes.label())
                .set("argv", argv_label(spec))
                .set("passes", passes)
                .set("attempted", attempted)
                .set("failed", failed)
                .set("failed_share", failed_share)
                .set("end_to_end", e2e_doc)
                .set(
                    "per_layer",
                    layers.get("metrics").cloned().unwrap_or(Json::Null),
                ),
        );
    }

    let doc = Json::object()
        .set("schema", "rtic-benchmark-result v1")
        .set("correct", all_correct)
        .set(
            "machine",
            Json::object()
                .set(
                    "nproc",
                    std::thread::available_parallelism().map_or(0, |n| n.get()),
                )
                .set("kernel", tool_output("uname", &["-sr"]))
                .set("rustc", tool_output("rustc", &["--version"]))
                .set(
                    "git_rev",
                    tool_output("git", &["rev-parse", "--short", "HEAD"]),
                )
                .set(
                    "note",
                    "sandbox timings: fsync and page cache are the container's",
                ),
        )
        .set("seed", seed)
        .set("seconds", seconds)
        .set("repeats", repeats)
        .set("smoke", smoke)
        .set("workloads", workloads_doc);
    if let Some(parent) = out_path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out_path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!("result document: {}", out_path.display());
    Ok(if all_correct { 0 } else { 1 })
}
