//! `record` — write a `BENCH_<workload>.json` perf curve.
//!
//! ```text
//! record batch-exec|scenarios [--steps N] [--seed N] [--out FILE]
//!        [--compare BASELINE] [--warn-pct P]
//! record compare-all [--current DIR] [--baselines DIR] [--warn-pct P]
//! ```
//!
//! `--out` defaults to `BENCH_<workload>.json` in the current directory.
//! With `--compare`, the fresh snapshot is diffed against a committed
//! baseline and regressions beyond `--warn-pct` (default 25%) are
//! printed — warn-only, the exit code stays 0 so noisy CI runners never
//! block a merge on timing jitter. Every document kind participates:
//! the curve workloads (`scenarios`, `batch-exec`)
//! diff point-by-point against their committed baselines.
//!
//! `compare-all` discovers every committed `BENCH_*.json` baseline (in
//! `--baselines`, default `.`) and warn-diffs each against the
//! same-named fresh snapshot in `--current` (default `bench-current`) —
//! baselines without a fresh counterpart are reported, so coverage gaps
//! are visible in the log.

use rtic_bench::experiments::{deadline_constraint, metric_constraint};
use rtic_bench::record::{
    batch_exec_curve, batch_exec_to_json, compare, compare_all, git_rev, machine_stamp,
    scenario_sweep, scenario_sweep_to_json,
};
use rtic_obs::json;

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run(args: &[String]) -> Result<i32, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "record batch-exec|scenarios [--steps N] [--seed N] [--out FILE] \
             [--compare BASELINE] [--warn-pct P]\n\
             record compare-all [--current DIR] [--baselines DIR] [--warn-pct P]"
        );
        return Ok(0);
    }
    let workload = args
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .next()
        .unwrap_or("");
    let steps: usize = flag_value(args, "--steps")
        .map(|v| v.parse().map_err(|e| format!("bad --steps: {e}")))
        .transpose()?
        .unwrap_or(2_000);
    let seed: u64 = flag_value(args, "--seed")
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let warn_pct: f64 = flag_value(args, "--warn-pct")
        .map(|v| v.parse().map_err(|e| format!("bad --warn-pct: {e}")))
        .transpose()?
        .unwrap_or(25.0);
    let out_path = flag_value(args, "--out")
        .map(String::from)
        .unwrap_or_else(|| format!("BENCH_{}.json", workload.replace('-', "_")));

    // Discovery mode: diff every committed baseline against the fresh
    // snapshots a CI run just recorded.
    if workload == "compare-all" {
        let baselines = flag_value(args, "--baselines").unwrap_or(".");
        let current = flag_value(args, "--current").unwrap_or("bench-current");
        let reports = compare_all(
            std::path::Path::new(baselines),
            std::path::Path::new(current),
            warn_pct,
        )?;
        if reports.is_empty() {
            println!("no BENCH_*.json baselines found in {baselines}");
            return Ok(0);
        }
        for (file, warnings) in &reports {
            if warnings.is_empty() {
                println!("{file}: within {warn_pct}% of every tracked metric");
            } else {
                for w in warnings {
                    println!("PERF WARNING {file}: {w}");
                }
            }
        }
        return Ok(0);
    }

    let doc = if workload == "batch-exec" {
        // The batch-exec recording writes a tuples/sec-vs-active-domain
        // curve, each stream stepped one transition at a time. (The name
        // and the `vectorized_tuples_per_sec` key are kept from when it
        // also swept micro-batch sizes, so the trajectory stays
        // comparable.)
        let smoke = std::env::var("RTIC_BENCH_SMOKE").is_ok();
        let entity_counts: &[usize] = if smoke {
            &[256]
        } else {
            &[1_000, 10_000, 100_000]
        };
        let curve_steps = if flag_value(args, "--steps").is_some() {
            steps
        } else if smoke {
            40
        } else {
            400
        };
        let curve = batch_exec_curve(&deadline_constraint(), entity_counts, curve_steps, seed)?;
        // The same sweep under the paper-form constraint: a bounded window.
        let metric = batch_exec_curve(&metric_constraint(), entity_counts, curve_steps, seed)?;
        let doc = batch_exec_to_json(&curve, &metric, curve_steps, seed, &git_rev())
            .set("machine", machine_stamp());
        write_doc(&out_path, &doc)?;
        for (name, points) in [("domain", &curve), ("metric", &metric)] {
            for p in points {
                println!(
                    "batch-exec {name} entities={}: {:.0} tuples/s over {} tuples",
                    p.entities, p.vectorized_tuples_per_sec, p.tuples
                );
            }
        }
        println!("recorded batch-exec ({curve_steps} steps/point, seed {seed}) -> {out_path}");
        doc
    } else if workload == "scenarios" {
        // The production-scenario sweep times the whole scenario library
        // (fraud, telemetry, ratelimit, access) through one constraint
        // set at a production-scale entity domain (default 10⁵).
        let smoke = std::env::var("RTIC_BENCH_SMOKE").is_ok();
        let entities: usize = flag_value(args, "--entities")
            .map(|v| v.parse().map_err(|e| format!("bad --entities: {e}")))
            .transpose()?
            .unwrap_or(if smoke { 64 } else { 100_000 });
        let sweep_steps = if flag_value(args, "--steps").is_some() {
            steps
        } else if smoke {
            40
        } else {
            500
        };
        let points = scenario_sweep(sweep_steps, entities, 8, seed)?;
        let doc = scenario_sweep_to_json(&points, seed, &git_rev()).set("machine", machine_stamp());
        write_doc(&out_path, &doc)?;
        for p in &points {
            println!(
                "scenarios {}: {:.0} steps/s, {:.0} tuples/s over {} steps ({} tuples) \
                 at {} entities, {} violations ({} injected)",
                p.scenario,
                p.steps_per_sec,
                p.tuples_per_sec,
                p.steps,
                p.tuples,
                p.entities,
                p.violations,
                p.expected
            );
        }
        println!("recorded scenarios (seed {seed}) -> {out_path}");
        doc
    } else {
        return Err(format!(
            "unknown workload `{workload}` (expected batch-exec, scenarios or compare-all)"
        ));
    };

    if let Some(baseline_path) = flag_value(args, "--compare") {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
        let baseline = json::parse(&text)
            .map_err(|e| format!("baseline `{baseline_path}` is not valid JSON: {e}"))?;
        let warnings = compare(&doc, &baseline, warn_pct);
        if warnings.is_empty() {
            println!("baseline {baseline_path}: within {warn_pct}% of every tracked metric");
        } else {
            for w in &warnings {
                println!("PERF WARNING {w}");
            }
        }
    }
    Ok(0)
}

fn write_doc(out_path: &str, doc: &json::Json) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(out_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
    }
    std::fs::write(out_path, format!("{}\n", doc.render()))
        .map_err(|e| format!("cannot write `{out_path}`: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("record: {e}");
            std::process::exit(2);
        }
    }
}
