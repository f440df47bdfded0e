//! Set-up, measured passes and resume probes: everything that drives the
//! unmodified `rtic` binary as a child process. Tracing is off here; the
//! per-layer numbers come from [`crate::traced`].

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rtic_obs::json::{self, Json};

use crate::child::{Conn, Rtic, Usage};
use crate::reference;
use crate::stats::percentile_sorted;
use crate::workloads::{Input, Mode, Spec};

/// Where the binary is and where this run's files live. Both paths are
/// relative to the working directory the children inherit, which keeps
/// the unix socket path under the kernel's 108-byte limit.
pub struct Ctx {
    /// The `rtic` binary under test.
    pub rtic: PathBuf,
    /// This harness, re-run with `--generate` to make inputs.
    pub harness: PathBuf,
    /// The per-run temp dir (inputs, sockets, checkpoints, captures).
    pub dir: PathBuf,
    /// The committed seed-42 digests.
    pub digests: PathBuf,
    /// `--smoke`: about an eighth of the updates per pass.
    pub smoke: bool,
}

/// The share of a pass's first acks left out of the latency sample.
const WARMUP_SHARE: f64 = 0.05;
/// Resume probes per round of a run: at least the first, then more until
/// the time budget has passed or the second are taken.
const RESUME_PROBES: std::ops::RangeInclusive<usize> = 3..=60;
const RESUME_BUDGET: Duration = Duration::from_millis(400);

/// A generated input with its reference report, written to `ctx.dir`.
pub struct Prepared {
    /// The generated input.
    pub input: Input,
    /// The report every pass must reproduce.
    pub reference: String,
}

/// Wall time of one set-up, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generating the input and writing its files (a child process).
    pub generate_s: f64,
    /// The whole set-up: generate, read the files back, compute the
    /// reference, and (`serve-*`) boot a daemon to its first `PING` reply.
    pub total_s: f64,
}

/// Generates the input for `seed` in a child process, reads its files
/// back and computes the reference report.
pub fn prepare(spec: &Spec, seed: u64, ctx: &Ctx) -> Result<(Prepared, SetupTimes), String> {
    let started = Instant::now();
    let mut generate = std::process::Command::new(&ctx.harness);
    generate
        .args(["--generate", "--workload", spec.name, "--seed"])
        .arg(seed.to_string())
        .arg("--dir")
        .arg(&ctx.dir)
        .args(ctx.smoke.then_some("--smoke"));
    let status = generate
        .status()
        .map_err(|e| format!("cannot run the generator: {e}"))?;
    if !status.success() {
        return Err(format!("the generator failed ({status})"));
    }
    let generate_s = started.elapsed().as_secs_f64();
    let input = Input::load(&ctx.dir)?;
    let reference = reference::compute(&input.constraints_text, &input.transitions)?;
    let times = SetupTimes {
        generate_s,
        total_s: started.elapsed().as_secs_f64(),
    };
    Ok((Prepared { input, reference }, times))
}

/// One full set-up: [`prepare`], hold the reference against the
/// committed digest, and (for a daemon workload) boot a daemon until it
/// answers `PING`.
pub fn set_up(spec: &Spec, seed: u64, ctx: &Ctx) -> Result<(Prepared, SetupTimes), String> {
    let started = Instant::now();
    let (prepared, mut times) = prepare(spec, seed, ctx)?;
    reference::check_blessed(
        &ctx.digests,
        spec.name,
        &spec.sizes_for(ctx.smoke),
        seed,
        &prepared.reference,
    )?;
    if let Mode::Serve { .. } = spec.mode {
        let argv = spec.argv(&ctx.dir, false, &[]);
        let mut daemon = Rtic::spawn(&ctx.rtic, &argv, &ctx.dir, "boot")?;
        let mut conn = Conn::connect(&ctx.dir.join("rtic.sock"), &mut daemon)?;
        expect_ok(&conn.request("PING")?.terminal, &daemon)?;
        times.total_s = started.elapsed().as_secs_f64();
        daemon.kill();
    }
    Ok((prepared, times))
}

fn expect_ok(terminal: &str, daemon: &Rtic) -> Result<(), String> {
    if terminal.starts_with("OK") {
        Ok(())
    } else {
        Err(format!(
            "daemon answered `{terminal}`; stderr: {}",
            daemon.stderr().trim()
        ))
    }
}

/// What the traced run additionally asks of its one child pass.
#[derive(Clone, Copy, Default)]
pub struct PassOptions {
    /// `PING` round trips to time on the live daemon before streaming.
    pub pings: usize,
    /// Ask the daemon for its `--metrics` snapshot.
    pub metrics: bool,
}

/// One child-process lifetime over the whole input.
#[derive(Debug, Default)]
pub struct Pass {
    /// Updates submitted.
    pub attempted: u64,
    /// Updates refused (`ERR`, `BUSY`) — all of them when the report
    /// differs from the reference.
    pub failed: u64,
    /// Whether the report was byte-identical to the reference.
    pub report_ok: bool,
    /// Why not, when it was not.
    pub mismatch: Option<String>,
    /// Updates acknowledged (or checked and reported) per wall second.
    pub updates_per_s: f64,
    /// Median request-written → terminal-reply latency, warm-up excluded
    /// (`serve-*`); the pass's wall time per update on `check-*`.
    pub ack_p50_us: f64,
    /// 99th percentile of the same sample (`serve-*`); equal to
    /// `ack_p50_us` on `check-*`, where no per-update sample exists.
    pub ack_p99_us: f64,
    /// Child user + system time per update.
    pub cpu_us_per_update: f64,
    /// The share of that CPU time spent in the kernel.
    pub cpu_sys_share: f64,
    /// Child peak resident set (`VmHWM`).
    pub peak_rss_mb: f64,
    /// `BUSY` replies seen.
    pub busy_replies: u64,
    /// Reply bytes per update (`serve-*`).
    pub reply_bytes_per_update: f64,
    /// Median `PING` round trip, when asked for.
    pub ping_rtt_us: f64,
    /// The daemon's `--metrics` snapshot, when asked for.
    pub metrics: Option<Json>,
}

/// Runs one pass and checks its report against the reference.
pub fn run_pass(
    spec: &Spec,
    prepared: &Prepared,
    ctx: &Ctx,
    options: PassOptions,
) -> Result<Pass, String> {
    // A pass starts from nothing: no checkpoint of an earlier pass.
    for entry in std::fs::read_dir(&ctx.dir).map_err(|e| format!("{}: {e}", ctx.dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("state.ckpt"))
        {
            let _ = std::fs::remove_file(path);
        }
    }
    let extra: Vec<String> = if options.metrics {
        vec![
            "--metrics".into(),
            ctx.dir.join("metrics.json").display().to_string(),
        ]
    } else {
        Vec::new()
    };
    let argv = spec.argv(&ctx.dir, false, &extra);
    let mut pass = match spec.mode {
        Mode::Serve { window } => serve_pass(prepared, ctx, &argv, window, options)?,
        Mode::Check => check_pass(prepared, ctx, &argv)?,
    };
    if !pass.report_ok {
        pass.failed = pass.attempted;
    }
    if options.metrics {
        let path = ctx.dir.join("metrics.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        pass.metrics = Some(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(pass)
}

fn exit_in(usage: &Usage, allowed: &[i32], child: &Rtic) -> Result<(), String> {
    match usage.exit_code {
        Some(code) if allowed.contains(&code) => Ok(()),
        other => Err(format!(
            "rtic exited with {other:?} (expected one of {allowed:?}); stderr: {}",
            child.stderr().trim()
        )),
    }
}

fn compare(pass: &mut Pass, reference: &str, actual: &str) {
    pass.report_ok = actual == reference;
    if !pass.report_ok {
        pass.mismatch = Some(reference::first_difference(reference, actual));
    }
}

fn check_pass(prepared: &Prepared, ctx: &Ctx, argv: &[String]) -> Result<Pass, String> {
    let updates = prepared.input.lines.len() as u64;
    let started = Instant::now();
    let mut child = Rtic::spawn(&ctx.rtic, argv, &ctx.dir, "pass")?;
    let usage = child.wait()?;
    let wall = started.elapsed();
    // 0 = clean, 1 = violations found; 2 is a usage, compile or I/O error.
    exit_in(&usage, &[0, 1], &child)?;
    let mut pass = Pass {
        attempted: updates,
        ..Default::default()
    };
    // Everything but the two trailer lines is the violation report.
    let stdout = child.stdout();
    let mut report = String::new();
    let mut summary = None;
    for line in stdout.lines() {
        if line.starts_with("checked ") {
            summary = Some(line);
        } else if !line.starts_with("checkpoint written to ") {
            report.push_str(line);
            report.push('\n');
        }
    }
    compare(&mut pass, &prepared.reference, &report);
    let expected = format!("checked {updates} transitions against ");
    if !summary.is_some_and(|s| s.starts_with(&expected)) {
        pass.report_ok = false;
        pass.mismatch = Some(format!(
            "summary line is {summary:?}, expected `{expected}…`"
        ));
    }
    fill_rates(&mut pass, updates, wall, &usage);
    let per_update_us = wall.as_secs_f64() * 1e6 / updates as f64;
    pass.ack_p50_us = per_update_us;
    pass.ack_p99_us = per_update_us;
    Ok(pass)
}

fn fill_rates(pass: &mut Pass, updates: u64, wall: Duration, usage: &Usage) {
    pass.updates_per_s = updates as f64 / wall.as_secs_f64();
    pass.cpu_us_per_update = usage.cpu.as_secs_f64() * 1e6 / updates as f64;
    pass.cpu_sys_share = usage.cpu_sys.as_secs_f64() / usage.cpu.as_secs_f64();
    pass.peak_rss_mb = usage.peak_rss_mb;
}

fn serve_pass(
    prepared: &Prepared,
    ctx: &Ctx,
    argv: &[String],
    window: usize,
    options: PassOptions,
) -> Result<Pass, String> {
    let lines = &prepared.input.lines;
    let updates = lines.len();
    let mut pass = Pass {
        attempted: updates as u64,
        ..Default::default()
    };
    let mut daemon = Rtic::spawn(&ctx.rtic, argv, &ctx.dir, "pass")?;
    let mut conn = Conn::connect(&ctx.dir.join("rtic.sock"), &mut daemon)?;
    if options.pings > 0 {
        let mut rtts = Vec::with_capacity(options.pings);
        for _ in 0..options.pings {
            let t = Instant::now();
            expect_ok(&conn.request("PING")?.terminal, &daemon)?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        rtts.sort_by(f64::total_cmp);
        pass.ping_rtt_us = percentile_sorted(&rtts, 0.5);
    }
    let bytes_before = conn.reply_bytes;

    // Closed loop: at most `window` requests in flight, the next one
    // leaves only when a reply has come back.
    let warmup = (updates as f64 * WARMUP_SHARE) as usize;
    let mut latencies = Vec::with_capacity(updates - warmup);
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut streamed = String::new();
    let (mut next, mut acked) = (0, 0);
    let started = Instant::now();
    while acked < updates {
        while in_flight.len() < window && next < updates {
            in_flight.push_back(Instant::now());
            conn.send(&lines[next])?;
            next += 1;
        }
        let reply = conn.recv()?;
        let sent = in_flight
            .pop_front()
            .expect("a reply answers a request in flight");
        if acked >= warmup {
            latencies.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        acked += 1;
        if !reply.terminal.starts_with("OK") {
            pass.failed += 1;
            pass.busy_replies += u64::from(reply.terminal.starts_with("BUSY"));
        }
        for v in reply.violations {
            streamed.push_str(&v);
            streamed.push('\n');
        }
    }
    let wall = started.elapsed();
    pass.reply_bytes_per_update = (conn.reply_bytes - bytes_before) as f64 / updates as f64;

    // The daemon's footprint with the whole stream resident, before the
    // drain lets it go (`wait` keeps sampling until it exits).
    daemon.sample_rss();
    let drained = conn.request("DRAIN")?;
    if !drained.terminal.starts_with("OK drained") {
        return Err(format!("DRAIN answered `{}`", drained.terminal));
    }
    let usage = daemon.wait()?;
    exit_in(&usage, &[0], &daemon)?;

    // Both what the client was told and what the daemon wrote must be
    // the reference report.
    let report_path = ctx.dir.join("report.txt");
    let written = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    compare(&mut pass, &prepared.reference, &written);
    if pass.report_ok {
        compare(&mut pass, &prepared.reference, &streamed);
    }
    fill_rates(&mut pass, updates as u64, wall, &usage);
    latencies.sort_by(f64::total_cmp);
    pass.ack_p50_us = percentile_sorted(&latencies, 0.5);
    pass.ack_p99_us = percentile_sorted(&latencies, 0.99);
    Ok(pass)
}

/// One round's resume probes, taken until its budget is spent: the
/// successful probes' times in milliseconds, and how many failed.
pub fn resume_probes(spec: &Spec, ctx: &Ctx) -> (Vec<f64>, u64) {
    let (mut ms, mut failed) = (Vec::new(), 0);
    let started = Instant::now();
    loop {
        let taken = ms.len() + failed as usize;
        if taken >= *RESUME_PROBES.end()
            || (taken >= *RESUME_PROBES.start() && started.elapsed() >= RESUME_BUDGET)
        {
            return (ms, failed);
        }
        match resume_probe(spec, ctx) {
            Ok(t) => ms.push(t),
            Err(why) => {
                eprintln!("{}: resume probe: {why}", spec.name);
                failed += 1;
            }
        }
    }
}

/// One resume probe: how long a restart from the last pass's final
/// checkpoint takes, in milliseconds. `serve-*`: spawn `rtic serve
/// --resume` → the daemon listens (a connect succeeds); the `PING` that
/// follows proves it serves but is not timed, because the accept loop
/// polls every 5 ms and would quantize the probe. `check-*`: `rtic check
/// --resume` against a one-line tail log, spawn → exit.
fn resume_probe(spec: &Spec, ctx: &Ctx) -> Result<f64, String> {
    if !ctx.dir.join("state.ckpt").exists() {
        return Err("the pass left no checkpoint to resume from".into());
    }
    let argv = spec.argv(&ctx.dir, true, &[]);
    let started = Instant::now();
    let mut child = Rtic::spawn(&ctx.rtic, &argv, &ctx.dir, "resume")?;
    match spec.mode {
        Mode::Serve { .. } => {
            let mut conn = Conn::connect(&ctx.dir.join("rtic.sock"), &mut child)?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            expect_ok(&conn.request("PING")?.terminal, &child)?;
            // SIGKILL: a drain would rewrite the checkpoint being probed.
            child.kill();
            Ok(ms)
        }
        Mode::Check => {
            let usage = child.wait()?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            exit_in(&usage, &[0, 1], &child)?;
            if !child.stdout().starts_with("resumed from ") {
                return Err(format!("resume printed: {}", child.stdout().trim()));
            }
            Ok(ms)
        }
    }
}

/// Removes the run's temp dir; failures here never mask a result.
pub fn clean_up(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
