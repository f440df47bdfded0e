//! Human-readable rendering of a saved metrics snapshot (`rtic report`).

use std::fmt::Write as _;

use crate::json::Json;

/// Renders the document produced by
/// [`MetricsRegistry::render_json`](crate::MetricsRegistry::render_json)
/// as a fixed-width summary table. Errors describe the missing or
/// malformed field.
pub fn render(doc: &Json) -> Result<String, String> {
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics file missing numeric field {key:?}"))
    };
    let steps = num("steps")?;
    let tuples = num("tuples_ingested")?;
    let violations = num("violations")?;
    let violating_steps = num("violating_steps")?;
    let saves = num("checkpoint_saves")?;
    let restores = num("checkpoint_restores")?;

    let checkers: Vec<&str> = doc
        .get("checkers")
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();

    let mut out = String::new();
    let _ = writeln!(out, "rtic run report");
    let _ = writeln!(out, "===============");
    let _ = writeln!(out);
    let _ = writeln!(out, "  steps            {steps}");
    let _ = writeln!(out, "  tuples ingested  {tuples}");
    let _ = writeln!(
        out,
        "  violations       {violations} witness(es) over {violating_steps} step(s)"
    );
    if saves + restores > 0 {
        let _ = writeln!(out, "  checkpoints      {saves} saved, {restores} restored");
    }
    let _ = writeln!(
        out,
        "  checkers         {}",
        if checkers.is_empty() {
            "(none)".to_string()
        } else {
            checkers.join(", ")
        }
    );

    if let Some(hist) = doc.get("step_latency_us") {
        let _ = writeln!(out);
        let _ = writeln!(out, "step latency (us)");
        let field = |key: &str| hist.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  count {:<8} mean {:<10.1} p50 {:<10.1} p90 {:<10.1} p95 {:<10.1} p99 {:<10.1} max {:.1}",
            field("count"),
            field("mean_us"),
            field("p50_us"),
            field("p90_us"),
            field("p95_us"),
            field("p99_us"),
            field("max_us"),
        );
    }

    if let Some(by) = doc.get("violations_by_constraint").and_then(Json::as_obj) {
        if !by.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "violations by constraint");
            let width = by.keys().map(String::len).max().unwrap_or(0).max(10);
            for (name, n) in by {
                let n = n.as_u64().unwrap_or(0);
                let _ = writeln!(out, "  {name:<width$}  {n}");
            }
        }
    }

    if let Some(space) = doc.get("space") {
        let field = |key: &str| space.get(key).and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(out);
        let _ = writeln!(out, "space (latest)");
        let _ = writeln!(
            out,
            "  aux_keys {}  aux_ts {}  states {}  stored_tuples {}  retained {}",
            field("aux_keys"),
            field("aux_timestamps"),
            field("stored_states"),
            field("stored_tuples"),
            field("retained_units"),
        );
    }

    if let Some(serve) = doc.get("serve") {
        let field = |key: &str| serve.get(key).and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(out);
        let _ = writeln!(out, "serve");
        let _ = writeln!(
            out,
            "  queue depth      {}/{} (peak {})",
            field("queue_depth"),
            field("queue_capacity"),
            field("queue_peak"),
        );
        let _ = writeln!(out, "  shed (BUSY)      {}", field("shed"));
        let _ = writeln!(
            out,
            "  connections      {} active, {} disconnected",
            field("connections"),
            field("disconnected"),
        );
        if let Some(age) = serve.get("last_checkpoint_age_ms").and_then(Json::as_u64) {
            let _ = writeln!(out, "  checkpoint age   {age} ms");
        }
        if let Some(ms) = serve.get("drain_ms").and_then(Json::as_u64) {
            let _ = writeln!(out, "  drain duration   {ms} ms");
        }
    }

    if let Some(samples) = doc.get("space_samples").and_then(Json::as_arr) {
        if !samples.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "space trajectory ({} samples)", samples.len());
            let retained: Vec<u64> = samples
                .iter()
                .map(|s| s.get("retained_units").and_then(Json::as_u64).unwrap_or(0))
                .collect();
            let peak = retained.iter().copied().max().unwrap_or(0);
            for (sample, units) in samples.iter().zip(&retained) {
                let step = sample.get("step").and_then(Json::as_u64).unwrap_or(0);
                let checker = sample.get("checker").and_then(Json::as_str).unwrap_or("?");
                let bar_len = if peak == 0 {
                    0
                } else {
                    (units * 40 / peak.max(1)) as usize
                };
                let _ = writeln!(
                    out,
                    "  step {step:<8} {checker:<12} {units:>8}  {}",
                    "#".repeat(bar_len)
                );
            }
            let _ = writeln!(out, "  peak retained units: {peak}");
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A handcrafted snapshot in the exact shape `MetricsRegistry` emits.
    pub const FIXTURE: &str = r#"{
        "steps": 4,
        "transitions_started": 4,
        "tuples_ingested": 6,
        "violations": 2,
        "violating_steps": 1,
        "evals_by_constraint": {"unconfirmed": 4},
        "violations_by_constraint": {"unconfirmed": 2},
        "checkpoint_saves": 1,
        "checkpoint_restores": 0,
        "checkpoint_bytes": 321,
        "step_latency_us": {"count": 4, "min_us": 1.5, "max_us": 9.0,
            "mean_us": 4.0, "p50_us": 3.0, "p90_us": 8.0, "p95_us": 8.5,
            "p99_us": 9.0,
            "buckets": [{"le": 1, "count": 0}, {"le": "+Inf", "count": 4}]},
        "eval_latency_us": {"count": 4, "min_us": 1.0, "max_us": 8.0,
            "mean_us": 3.5, "p50_us": 2.5, "p90_us": 7.0, "p95_us": 7.5,
            "p99_us": 8.0,
            "buckets": [{"le": 1, "count": 1}, {"le": "+Inf", "count": 4}]},
        "space": {"aux_keys": 2, "aux_timestamps": 3, "stored_states": 1,
            "stored_tuples": 5, "retained_units": 10},
        "space_samples": [
            {"step": 0, "time": 0, "checker": "incremental", "constraint": "unconfirmed",
             "aux_keys": 1, "aux_timestamps": 1, "stored_states": 1,
             "stored_tuples": 2, "retained_units": 4},
            {"step": 2, "time": 2, "checker": "incremental", "constraint": "unconfirmed",
             "aux_keys": 2, "aux_timestamps": 3, "stored_states": 1,
             "stored_tuples": 5, "retained_units": 10}
        ],
        "checkers": ["incremental"]
    }"#;

    #[test]
    fn golden_rendering() {
        let doc = json::parse(FIXTURE).unwrap();
        let rendered = render(&doc).unwrap();
        let expected = "\
rtic run report
===============

  steps            4
  tuples ingested  6
  violations       2 witness(es) over 1 step(s)
  checkpoints      1 saved, 0 restored
  checkers         incremental

step latency (us)
  count 4        mean 4.0        p50 3.0        p90 8.0        p95 8.5        p99 9.0        max 9.0

violations by constraint
  unconfirmed  2

space (latest)
  aux_keys 2  aux_ts 3  states 1  stored_tuples 5  retained 10

space trajectory (2 samples)
  step 0        incremental         4  ################
  step 2        incremental        10  ########################################
  peak retained units: 10
";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn serve_section_renders_when_present() {
        let doc = json::parse(FIXTURE).unwrap();
        // The batch fixture has no serve section…
        assert!(!render(&doc).unwrap().contains("serve"));
        // …and a resident-server snapshot grows one.
        let with_serve = FIXTURE.trim_end().trim_end_matches('}').to_string()
            + r#", "serve": {"queue_depth": 3, "queue_capacity": 64,
                "queue_peak": 17, "shed": 5, "connections": 2,
                "disconnected": 1, "last_checkpoint_age_ms": 250,
                "drain_ms": 12}}"#;
        let rendered = render(&json::parse(&with_serve).unwrap()).unwrap();
        assert!(
            rendered.contains("queue depth      3/64 (peak 17)"),
            "{rendered}"
        );
        assert!(rendered.contains("shed (BUSY)      5"), "{rendered}");
        assert!(
            rendered.contains("connections      2 active, 1 disconnected"),
            "{rendered}"
        );
        assert!(rendered.contains("checkpoint age   250 ms"), "{rendered}");
        assert!(rendered.contains("drain duration   12 ms"), "{rendered}");
    }

    #[test]
    fn missing_fields_are_reported() {
        let doc = json::parse(r#"{"steps": 3}"#).unwrap();
        let err = render(&doc).unwrap_err();
        assert!(err.contains("tuples_ingested"), "got: {err}");
    }

    #[test]
    fn registry_output_renders() {
        // End-to-end: a real registry snapshot renders without error.
        use rtic_core::ConstraintSet;
        use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
        use rtic_temporal::parser::parse_constraint;
        use rtic_temporal::TimePoint;
        use std::sync::Arc;

        let catalog = Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        );
        let mut set = ConstraintSet::new(
            [parse_constraint("deny d: p(x) && hist[0,1] p(x)").unwrap()],
            catalog,
        )
        .unwrap();
        let mut registry = crate::MetricsRegistry::new();
        let insert = Update::new().with_insert("p", tuple!["a"]);
        set.step_observed(TimePoint(1), &insert, &mut registry)
            .unwrap();
        let doc = json::parse(&registry.render_json()).unwrap();
        let rendered = render(&doc).unwrap();
        assert!(rendered.contains("steps            1"));
    }
}
