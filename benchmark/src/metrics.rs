//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` lists
//! the same names; a unit test holds the two together.

/// One metric.
#[derive(Debug)]
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// End to end: the share of the parent's median by which the metric
    /// may worsen. Per layer: none.
    pub bound: Option<f64>,
    /// A count that must repeat exactly for a seed (not a timing).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
        exact: false,
    }
}

const fn timing(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees; measured with tracing off.
pub static END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("updates_per_s", "1/s", false, 0.25),
    e2e("ack_p50_us", "us", true, 0.25),
    e2e("ack_p99_us", "us", true, 0.25),
    e2e("cpu_us_per_update", "us", true, 0.25),
    e2e("peak_rss_mb", "MiB", true, 0.10),
    e2e("resume_ms", "ms", true, 0.25),
];

/// Single layers, from the traced run. A layer that is not on a
/// workload's path reports 0 there.
pub static PER_LAYER: &[Metric] = &[
    timing("temporal.parse_file_ms", "ms", true),
    timing("core.compile_ms", "ms", true),
    timing("workload.generate_s", "s", true),
    timing("history.parse_us", "us", true),
    timing("history.parse_mb_s", "MB/s", false),
    count("history.bytes_per_update", "B", true),
    count("history.tuples_per_update", "count", true),
    timing("server.protocol_us", "us", true),
    timing("server.queue_us", "us", true),
    timing("server.queue_handoff_us", "us", true),
    timing("server.reply_us", "us", true),
    count("server.reply_bytes_per_update", "B", true),
    timing("server.ping_rtt_us", "us", true),
    timing("server.queue_peak", "count", true),
    count("server.shed", "count", true),
    count("server.busy_replies", "count", true),
    timing("server.drain_ms", "ms", true),
    timing("relation.apply_us", "us", true),
    timing("core.step_us", "us", true),
    timing("core.step_p50_us", "us", true),
    timing("core.step_p99_us", "us", true),
    timing("core.step_share", "share", true),
    count("core.plan.nodes", "count", true),
    count("core.plan.scratch_high_water", "count", true),
    count("core.dispatch.affected_share", "share", true),
    count("core.dispatch.skipped_share", "share", false),
    count("core.dispatch.quiescent_full_share", "share", true),
    timing("core.report_us", "us", true),
    count("core.violations_per_kupdate", "count", true),
    count("core.space.retained_units_end", "count", true),
    count("core.space.retained_units_peak", "count", true),
    count("core.shard.peak", "count", true),
    count("core.shard.created", "count", true),
    count("core.shard.evicted", "count", false),
    timing("core.checkpoint.save_ms", "ms", true),
    count("core.checkpoint.bytes_end", "B", true),
    timing("core.checkpoint.restore_ms", "ms", true),
    timing("resilience.seal_ms", "ms", true),
    timing("resilience.write_ms", "ms", true),
    count("resilience.checkpoints_written", "count", true),
    count("resilience.bytes_written_per_input_byte", "ratio", true),
    timing("resilience.open_ms", "ms", true),
    timing("obs.step_overhead_share", "share", true),
    timing("obs.render_json_ms", "ms", true),
    timing("obs.render_prometheus_ms", "ms", true),
    timing("trace.inproc_updates_per_s", "1/s", false),
    timing("trace.coverage_share", "share", false),
    timing("trace.overhead_share", "share", true),
    count("trace.spans", "count", true),
];

/// Looks a metric up in `table`; an unknown name is a bug in the harness.
pub fn named(table: &'static [Metric], name: &str) -> &'static Metric {
    table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_obs::json::{self, Json};

    /// `BENCHMARK.json` and the tables above must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let table = |t: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            t.iter()
                .map(|m| {
                    let better = if m.lower_is_better { "lower" } else { "higher" };
                    (m.name.into(), m.unit.into(), better.into(), m.bound)
                })
                .collect()
        };
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap();
                (s("name"), s("why"))
            })
            .collect();
        let declared: Vec<(&str, &str)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, declared);
    }
}
