//! Perf-trajectory recorder: machine-readable benchmark curves.
//!
//! `cargo run -p rtic-bench --release --bin record -- batch-exec|scenarios`
//! sweeps what the pipeline benchmark does not draw — tuples/sec against
//! the active domain, and the production scenario library — and writes a
//! `BENCH_<workload>.json` curve with the git revision, so a repository
//! can accumulate a perf trajectory over time. `--compare BASELINE
//! --warn-pct N` diffs the fresh curve against a committed baseline and
//! prints warn-only regressions (CI never fails on noise, it surfaces it).

use std::time::Instant;

use rtic_obs::json::{self, Json};
use rtic_temporal::Constraint;
use rtic_workload::{library, ScenarioParams};

/// Bumped when the snapshot layout changes shape (field renames,
/// semantic changes) so downstream tooling can refuse mixed files.
pub const SCHEMA_VERSION: u64 = 1;

/// One production scenario's measured point in the `record scenarios`
/// sweep: the whole fleet checked through one constraint set at a
/// production-scale entity domain.
#[derive(Clone, Debug)]
pub struct ScenarioPoint {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Transitions processed.
    pub steps: usize,
    /// Entity-key domain size.
    pub entities: usize,
    /// Steps/second through the constraint set.
    pub steps_per_sec: f64,
    /// Tuples inserted + deleted across the run. Scenarios differ by
    /// orders of magnitude in tuples per step (telemetry at 10⁵ entities
    /// ingests tens of thousands), so steps/second alone misreads a
    /// heavy step as a stall.
    pub tuples: usize,
    /// Tuples/second — the unit that is comparable across scenarios.
    pub tuples_per_sec: f64,
    /// Violation witnesses across the run.
    pub violations: usize,
    /// Injected-violation expectations the generator planted.
    pub expected: usize,
}

/// Runs every production scenario (fraud, telemetry, ratelimit, access)
/// at the given shape through one [`rtic_core::ConstraintSet`], timed
/// end to end. `entities` sizes the key domain — production shapes run
/// it at 10⁵.
pub fn scenario_sweep(
    steps: usize,
    entities: usize,
    events_per_step: usize,
    seed: u64,
) -> Result<Vec<ScenarioPoint>, String> {
    use rtic_core::ConstraintSet;

    let params = ScenarioParams {
        steps,
        entities,
        events_per_step,
        violation_rate: 0.05,
        seed,
    };
    let mut points = Vec::new();
    for scenario in library::production() {
        let generated = scenario.generate(&params);
        let mut set = ConstraintSet::new(
            generated.constraints.iter().cloned(),
            std::sync::Arc::clone(&generated.catalog),
        )
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?;
        let mut violations = 0usize;
        let start = Instant::now();
        for tr in &generated.transitions {
            let reports = set
                .step(tr.time, &tr.update)
                .map_err(|e| format!("{} step at {}: {e}", scenario.name, tr.time))?;
            violations += reports.iter().map(|r| r.violation_count()).sum::<usize>();
        }
        let secs = start.elapsed().as_secs_f64();
        let per_sec = |count: usize| if secs > 0.0 { count as f64 / secs } else { 0.0 };
        let steps = generated.transitions.len();
        let tuples = generated.transitions.iter().map(|t| t.update.len()).sum();
        points.push(ScenarioPoint {
            scenario: scenario.name.to_string(),
            steps,
            entities,
            steps_per_sec: per_sec(steps),
            tuples,
            tuples_per_sec: per_sec(tuples),
            violations,
            expected: generated.expected.len(),
        });
    }
    Ok(points)
}

/// Renders a scenario sweep as the `BENCH_scenarios.json` document.
pub fn scenario_sweep_to_json(points: &[ScenarioPoint], seed: u64, rev: &str) -> Json {
    let rows: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::object()
                .set("scenario", p.scenario.as_str())
                .set("steps", p.steps as u64)
                .set("entities", p.entities as u64)
                .set("steps_per_sec", round3(p.steps_per_sec))
                .set("tuples", p.tuples as u64)
                .set("tuples_per_sec", round3(p.tuples_per_sec))
                .set("violations", p.violations as u64)
                .set("expected", p.expected as u64)
        })
        .collect();
    Json::object()
        .set("schema_version", SCHEMA_VERSION)
        .set("workload", "scenarios")
        .set("seed", seed)
        .set("git_rev", rev)
        .set("scenarios", Json::Arr(rows))
}

/// One point of the batch-exec throughput curve: an ingestion stream
/// stepped one transition at a time through the compiled plans.
#[derive(Clone, Debug)]
pub struct BatchExecPoint {
    /// Entity-key domain size (the active domain the stream grows to).
    pub entities: usize,
    /// Transitions in the stream.
    pub steps: usize,
    /// Total update tuples ingested.
    pub tuples: usize,
    /// Tuples/second. (The name dates from when the columnar kernels
    /// were one of two compiled paths and ingestion was micro-batched —
    /// the final sweep had batch 1 and 64 within 1 % — and is kept so
    /// the committed trajectory stays comparable.)
    pub vectorized_tuples_per_sec: f64,
}

/// The tuples/sec-vs-active-domain curve: for each entity count, a
/// [`crate::experiments::batch_stream`] history stepped through one
/// [`rtic_core::ConstraintSet`] of `constraint`, report lines rendered as a
/// driver would.
pub fn batch_exec_curve(
    constraint: &Constraint,
    entity_counts: &[usize],
    steps: usize,
    seed: u64,
) -> Result<Vec<BatchExecPoint>, String> {
    use crate::experiments::{batch_stream, reservations_catalog};
    use rtic_core::ConstraintSet;

    let mut points = Vec::with_capacity(entity_counts.len());
    for &entities in entity_counts {
        let events = entities.div_ceil(steps.max(1)).max(1);
        let transitions = batch_stream(entities, steps, events, seed);
        let tuples: usize = transitions.iter().map(|t| t.update.len()).sum();
        let mut set = ConstraintSet::new([constraint.clone()], reservations_catalog())
            .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?;
        // Rendering the reports is part of the measured work, as it was
        // at every earlier point of the trajectory.
        let mut lines = Vec::new();
        let start = Instant::now();
        for tr in &transitions {
            let reports = set
                .step(tr.time, &tr.update)
                .map_err(|e| format!("batch-exec step at {}: {e}", tr.time))?;
            lines.extend(reports.iter().map(|r| r.to_string()));
        }
        let secs = start.elapsed().as_secs_f64();
        points.push(BatchExecPoint {
            entities,
            steps: transitions.len(),
            tuples,
            vectorized_tuples_per_sec: if secs > 0.0 {
                tuples as f64 / secs
            } else {
                0.0
            },
        });
    }
    Ok(points)
}

/// Renders the batch-exec curves as the `BENCH_batch_exec.json` document:
/// `domain_curve` for the motivating (unbounded) constraint, `metric_curve`
/// for its paper form with a bounded confirmation window.
pub fn batch_exec_to_json(
    curve: &[BatchExecPoint],
    metric: &[BatchExecPoint],
    steps: usize,
    seed: u64,
    rev: &str,
) -> Json {
    let rows = |points: &[BatchExecPoint], key: &str| {
        let row = |p: &BatchExecPoint| {
            Json::object()
                .set("entities", p.entities as u64)
                .set("steps", p.steps as u64)
                .set("tuples", p.tuples as u64)
                .set(key, round3(p.vectorized_tuples_per_sec))
        };
        Json::Arr(points.iter().map(row).collect())
    };
    Json::object()
        .set("schema_version", SCHEMA_VERSION)
        .set("workload", "batch-exec")
        .set("steps", steps as u64)
        .set("seed", seed)
        .set("git_rev", rev)
        .set("domain_curve", rows(curve, "vectorized_tuples_per_sec"))
        .set("metric_curve", rows(metric, "tuples_per_sec"))
}

/// Where a recording was taken — the stamp `benchmark/run.sh` puts on its
/// result documents: timings from different machines do not compare.
pub fn machine_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::object()
        .set("nproc", nproc as u64)
        .set("kernel", tool_output("uname", &["-sr"]))
        .set("rustc", tool_output("rustc", &["--version"]))
}

/// A tool's trimmed standard output, or `"unknown"` when the tool is
/// missing, fails or prints nothing (snapshots must never fail on a
/// bare export).
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// repository.
pub fn git_rev() -> String {
    tool_output("git", &["rev-parse", "--short=12", "HEAD"])
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// The comparable metrics of a snapshot document, flattened to
/// `(label, value, higher_is_better)` rows. Schema-aware: curve
/// documents (`scenarios`, `batch-exec`) key their
/// rows by the sweep parameter so two docs only compare points measured
/// at the same scale — a smoke-scale run silently shares no labels with
/// a full-scale baseline instead of producing nonsense deltas.
fn metric_rows(doc: &Json) -> Vec<(String, f64, bool)> {
    type Row = (String, f64, bool);
    let mut rows: Vec<Row> = Vec::new();
    let num = |node: &Json, key: &str| node.get(key).and_then(Json::as_f64);
    let each = |doc: &Json, arr: &str, f: &mut dyn FnMut(&Json, &mut Vec<Row>)| {
        let mut out = Vec::new();
        if let Some(points) = doc.get(arr).and_then(Json::as_arr) {
            for p in points {
                f(p, &mut out);
            }
        }
        out
    };
    match doc.get("workload").and_then(Json::as_str).unwrap_or("") {
        "scenarios" => {
            rows = each(doc, "scenarios", &mut |p, out| {
                let Some(name) = p.get("scenario").and_then(Json::as_str) else {
                    return;
                };
                if let Some(v) = num(p, "steps_per_sec") {
                    out.push((format!("scenarios[{name}].steps_per_sec"), v, true));
                }
            });
        }
        "batch-exec" => {
            for (curve, key) in [
                ("domain_curve", "vectorized_tuples_per_sec"),
                ("metric_curve", "tuples_per_sec"),
            ] {
                rows.extend(each(doc, curve, &mut |p, out| {
                    let Some(entities) = num(p, "entities") else {
                        return;
                    };
                    if let Some(v) = num(p, key) {
                        out.push((format!("{curve}[entities={entities}].{key}"), v, true));
                    }
                }));
            }
        }
        _ => {}
    }
    rows
}

/// Compares a fresh snapshot against a baseline document. Returns one
/// human-readable warning per metric that regressed by more than
/// `warn_pct` percent — empty means within threshold. Comparison is
/// warn-only by design: one-shot CI timings are noisy, so the trajectory
/// is surfaced, not enforced. Understands every committed `BENCH_*.json`
/// schema (scenarios, batch-exec);
/// metrics present in only one document are skipped.
pub fn compare(current: &Json, baseline: &Json, warn_pct: f64) -> Vec<String> {
    let mut warnings = Vec::new();
    let cur_kind = current.get("workload").and_then(Json::as_str);
    let base_kind = baseline.get("workload").and_then(Json::as_str);
    if cur_kind != base_kind {
        warnings.push(format!(
            "workload mismatch: fresh snapshot is {:?}, baseline is {:?}",
            cur_kind.unwrap_or("<missing>"),
            base_kind.unwrap_or("<missing>")
        ));
        return warnings;
    }
    let base_rows: std::collections::HashMap<String, f64> = metric_rows(baseline)
        .into_iter()
        .map(|(label, v, _)| (label, v))
        .collect();
    for (label, cur, higher_better) in metric_rows(current) {
        let Some(&base) = base_rows.get(&label) else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        let delta_pct = (cur - base) / base * 100.0;
        let regressed = if higher_better {
            delta_pct < -warn_pct
        } else {
            delta_pct > warn_pct
        };
        if regressed {
            warnings.push(format!(
                "{label}: {cur:.3} vs baseline {base:.3} ({delta_pct:+.1}%, \
                 warn threshold {warn_pct}%)"
            ));
        }
    }
    warnings
}

/// Discovers every `BENCH_*.json` baseline in `baseline_dir` and
/// warn-diffs each against the same-named fresh snapshot in
/// `current_dir`. Returns `(file, warnings)` per baseline, sorted by
/// file name; a baseline without a fresh counterpart gets a single
/// "no fresh snapshot" note so missing coverage is visible rather than
/// silently green.
pub fn compare_all(
    baseline_dir: &std::path::Path,
    current_dir: &std::path::Path,
    warn_pct: f64,
) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("cannot read `{}`: {e}", baseline_dir.display()))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    let mut reports = Vec::with_capacity(names.len());
    for name in names {
        let base_text = std::fs::read_to_string(baseline_dir.join(&name))
            .map_err(|e| format!("cannot read baseline `{name}`: {e}"))?;
        let baseline =
            json::parse(&base_text).map_err(|e| format!("baseline `{name}` is not JSON: {e}"))?;
        let current_path = current_dir.join(&name);
        let warnings = match std::fs::read_to_string(&current_path) {
            Ok(text) => {
                let current = json::parse(&text).map_err(|e| {
                    format!("snapshot `{}` is not JSON: {e}", current_path.display())
                })?;
                compare(&current, &baseline, warn_pct)
            }
            Err(_) => vec![format!(
                "no fresh snapshot at {} — baseline not covered this run",
                current_path.display()
            )],
        };
        reports.push((name, warnings));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_obs::json;

    /// A `scenarios` document with one point per `(scenario, steps/s)`.
    fn scenarios(points: &[(&str, f64)]) -> Json {
        let rows = points.iter().map(|&(name, rate)| {
            Json::object()
                .set("scenario", name)
                .set("steps_per_sec", rate)
        });
        Json::object()
            .set("workload", "scenarios")
            .set("scenarios", Json::Arr(rows.collect()))
    }

    #[test]
    fn compare_warns_only_beyond_threshold() {
        let base = scenarios(&[("fraud", 1000.0), ("access", 200.0)]);
        // Within threshold: no warnings.
        let near = scenarios(&[("fraud", 960.0), ("access", 196.0)]);
        assert!(compare(&near, &base, 10.0).is_empty());
        // Every collapsed point warns.
        let worse = scenarios(&[("fraud", 500.0), ("access", 100.0)]);
        let warnings = compare(&worse, &base, 10.0);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("scenarios[fraud]"), "{warnings:?}");
        // Improvements never warn.
        let better = scenarios(&[("fraud", 2000.0), ("access", 400.0)]);
        assert!(compare(&better, &base, 10.0).is_empty());
    }

    #[test]
    fn compare_understands_curve_schemas() {
        // batch-exec: rows are keyed by sweep parameter, so only points
        // measured at the same scale compare, and a slower path at a
        // matching domain warns. The baseline is a document from before
        // the batch-size sweep was deleted: its `batch_sweep` is ignored.
        let base = json::parse(
            r#"{"workload": "batch-exec",
                "domain_curve": [
                  {"entities": 1000, "vectorized_tuples_per_sec": 400.0}],
                "batch_sweep": [{"batch": 64, "tuples_per_sec": 400.0}]}"#,
        )
        .unwrap();
        let worse = json::parse(
            r#"{"workload": "batch-exec",
                "domain_curve": [
                  {"entities": 1000, "vectorized_tuples_per_sec": 150.0}]}"#,
        )
        .unwrap();
        let warnings = compare(&worse, &base, 25.0);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].contains("domain_curve[entities=1000].vectorized_tuples_per_sec"),
            "{warnings:?}"
        );
        assert!(
            compare(&base, &worse, 25.0).is_empty(),
            "faster never warns"
        );
        // A smoke-scale snapshot shares no row labels with a full-scale
        // baseline: vacuously green, never nonsense deltas.
        let smoke = json::parse(
            r#"{"workload": "batch-exec",
                "domain_curve": [
                  {"entities": 256, "vectorized_tuples_per_sec": 1.0}]}"#,
        )
        .unwrap();
        assert!(compare(&smoke, &base, 25.0).is_empty());
        // Mismatched document kinds warn instead of comparing.
        let scenarios = json::parse(r#"{"workload": "scenarios", "scenarios": []}"#).unwrap();
        let warnings = compare(&scenarios, &base, 25.0);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("workload mismatch"), "{warnings:?}");
    }

    #[test]
    fn compare_all_discovers_every_committed_baseline() {
        let root = std::env::temp_dir().join(format!("rtic_compare_all_{}", std::process::id()));
        let baselines = root.join("baselines");
        let fresh = root.join("fresh");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        let batch_exec = r#"{"workload": "batch-exec",
            "domain_curve": [{"entities": 64, "vectorized_tuples_per_sec": 1000.0}]}"#;
        std::fs::write(baselines.join("BENCH_batch_exec.json"), batch_exec).unwrap();
        let base = scenarios(&[("fraud", 100.0)]).render();
        std::fs::write(baselines.join("BENCH_scenarios.json"), base).unwrap();
        std::fs::write(baselines.join("not_a_baseline.txt"), "ignored").unwrap();
        // Fresh snapshot only for scenarios: a regression there warns,
        // and the uncovered batch-exec baseline is reported, not skipped.
        let fresh_doc = scenarios(&[("fraud", 40.0)]).render();
        std::fs::write(fresh.join("BENCH_scenarios.json"), fresh_doc).unwrap();
        let reports = compare_all(&baselines, &fresh, 25.0).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            reports.iter().map(|(f, _)| f.as_str()).collect::<Vec<_>>(),
            vec!["BENCH_batch_exec.json", "BENCH_scenarios.json"]
        );
        assert!(reports[0].1[0].contains("no fresh snapshot"), "{reports:?}");
        assert!(reports[1].1[0].contains("scenarios[fraud]"), "{reports:?}");
    }

    #[test]
    fn scenario_sweep_covers_every_production_scenario() {
        let points = scenario_sweep(40, 32, 4, 7).unwrap();
        assert_eq!(points.len(), 4);
        let names: Vec<&str> = points.iter().map(|p| p.scenario.as_str()).collect();
        assert_eq!(names, ["fraud", "telemetry", "ratelimit", "access"]);
        for p in &points {
            assert!(p.steps_per_sec > 0.0, "{p:?}");
            assert!(p.expected > 0, "{} injects at this seed", p.scenario);
            assert!(
                p.violations >= p.expected,
                "{}: every injection is caught",
                p.scenario
            );
            assert!(
                p.tuples >= p.steps,
                "{}: every step carries events",
                p.scenario
            );
            assert!(p.tuples_per_sec >= p.steps_per_sec, "{p:?}");
        }
        let doc = json::parse(&scenario_sweep_to_json(&points, 7, "abc").render()).unwrap();
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("scenarios")
        );
        let rows = doc.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0].get("scenario").and_then(Json::as_str),
            Some("fraud")
        );
        assert_eq!(
            rows[0].get("tuples").and_then(Json::as_u64),
            Some(points[0].tuples as u64)
        );
        assert!(rows[0].get("tuples_per_sec").is_some());
        assert!(rows[0].get("peak_shards").is_none(), "the plane is gone");
    }

    #[test]
    fn batch_exec_curve_measures_batched_ingestion() {
        // Smoke scale; the committed baseline runs up to 10⁵ entities.
        // (Named, like the recorder, from when the curve ran in 64-line
        // micro-batches; it steps one transition at a time now.)
        let c = crate::experiments::deadline_constraint();
        let points = batch_exec_curve(&c, &[128], 30, 11).unwrap();
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.entities, 128);
        assert_eq!(p.steps, 30);
        assert!(p.tuples > 0);
        assert!(p.vectorized_tuples_per_sec > 0.0);
    }

    #[test]
    fn batch_exec_json_round_trips() {
        let curve = batch_exec_curve(&crate::experiments::deadline_constraint(), &[64], 20, 5);
        let metric = batch_exec_curve(&crate::experiments::metric_constraint(), &[64], 20, 5);
        let (curve, metric) = (curve.unwrap(), metric.unwrap());
        let doc = batch_exec_to_json(&curve, &metric, 20, 5, "abc123").render();
        let doc = json::parse(&doc).unwrap();
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("batch-exec")
        );
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(5));
        let rows = doc
            .get("domain_curve")
            .and_then(Json::as_arr)
            .expect("domain_curve array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("entities").and_then(Json::as_u64), Some(64));
        assert!(rows[0]
            .get("vectorized_tuples_per_sec")
            .and_then(Json::as_f64)
            .is_some_and(|s| s > 0.0));
        assert!(doc.get("batch_sweep").is_none());
        // The paper-form (bounded) curve rides along, keyed the same way.
        let metric = doc.get("metric_curve").and_then(Json::as_arr);
        let rate = metric
            .and_then(|m| m[0].get("tuples_per_sec"))
            .and_then(Json::as_f64);
        assert!(rate.is_some_and(|s| s > 0.0));
        let labels: Vec<String> = metric_rows(&doc).into_iter().map(|r| r.0).collect();
        assert!(labels.contains(&"metric_curve[entities=64].tuples_per_sec".to_string()));
    }
}
