//! Metrics registry: counters, gauges, latency histograms, and their JSON
//! and Prometheus text expositions.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

use rtic_core::observe::{ServeGauges, SpaceSample};
use rtic_core::{PlanProfile, ProfiledNode, RuntimePlanStats, SpaceStats, StepEvent, StepObserver};
use rtic_relation::{FastMap, Symbol};

use crate::json::Json;

/// Upper bucket bounds for step latencies, in microseconds. The final
/// implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_US: [f64; 12] = [
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10_000.0,
];

/// A fixed-bucket latency histogram over microseconds.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS_US.len() + 1],
    count: u64,
    sum_us: f64,
    min_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS_US.len() + 1],
            count: 0,
            sum_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record_ns(&mut self, ns: u64) {
        let us = ns as f64 / 1000.0;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&le| us <= le)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// Estimated quantile (`q` in 0..=1) by linear interpolation within
    /// the containing bucket; exact at the recorded min/max extremes.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let lo_seen = seen;
            seen += n;
            if (seen as f64) < rank {
                continue;
            }
            let lo = if idx == 0 {
                self.min_us.min(LATENCY_BUCKETS_US[0])
            } else {
                LATENCY_BUCKETS_US[idx - 1]
            };
            let hi = if idx == LATENCY_BUCKETS_US.len() {
                self.max_us.max(lo)
            } else {
                LATENCY_BUCKETS_US[idx]
            };
            let lo = lo.max(self.min_us).min(hi);
            let hi = hi.min(self.max_us).max(lo);
            let frac = ((rank - lo_seen as f64) / n as f64).clamp(0.0, 1.0);
            // Defensive clamp: whatever the bucket interpolation yields,
            // a quantile can never leave the recorded [min, max] range
            // (saturated edge buckets have bounds far from the extremes).
            return (lo + (hi - lo) * frac).clamp(self.min_us, self.max_us);
        }
        self.max_us
    }

    /// Cumulative `(le_us, count)` pairs, Prometheus-style, ending with
    /// the `+Inf` bucket (`le = f64::INFINITY`).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (idx, &n) in self.counts.iter().enumerate() {
            cum += n;
            let le = LATENCY_BUCKETS_US
                .get(idx)
                .copied()
                .unwrap_or(f64::INFINITY);
            out.push((le, cum));
        }
        out
    }

    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .cumulative_buckets()
            .into_iter()
            .map(|(le, count)| {
                Json::object()
                    .set(
                        "le",
                        if le.is_finite() {
                            Json::Num(le)
                        } else {
                            Json::Str("+Inf".into())
                        },
                    )
                    .set("count", count)
            })
            .collect();
        Json::object()
            .set("count", self.count)
            .set(
                "min_us",
                round3(if self.count == 0 { 0.0 } else { self.min_us }),
            )
            .set("max_us", round3(self.max_us))
            .set("mean_us", round3(self.mean_us()))
            .set("p50_us", round3(self.quantile_us(0.50)))
            .set("p90_us", round3(self.quantile_us(0.90)))
            .set("p95_us", round3(self.quantile_us(0.95)))
            .set("p99_us", round3(self.quantile_us(0.99)))
            .set("buckets", Json::Arr(buckets))
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// A space footprint's fields, set on `doc`: the registry's `space` and
/// `space_samples` rows and the trace's `space_sample` lines.
pub(crate) fn space_json(doc: Json, stats: &SpaceStats) -> Json {
    doc.set("aux_keys", stats.aux_keys)
        .set("aux_timestamps", stats.aux_timestamps)
        .set("stored_states", stats.stored_states)
        .set("stored_tuples", stats.stored_tuples)
        .set("retained_units", stats.retained_units())
}

/// A serve sample's gauges, set on `doc`: the registry's `serve` object
/// and the trace's `serve_sample` lines.
pub(crate) fn serve_json(doc: Json, gauges: &ServeGauges) -> Json {
    scalars_json(doc, SERVE_GAUGES, gauges)
}

/// A plan-statistics reading's fields, set on `doc` with the node count
/// under `nodes`: the registry's `plan_stats` rows and the trace's
/// `plan_stats` lines.
pub(crate) fn plan_stats_json(doc: Json, nodes: &str, stats: &RuntimePlanStats) -> Json {
    doc.set(nodes, stats.plan.nodes)
        .set("atom_shapes", stats.plan.atom_shapes)
        .set("join_shapes", stats.plan.join_shapes)
        .set("probe_nodes", stats.plan.probe_nodes)
        .set("cached_nodes", stats.plan.cached_nodes)
        .set("scratch_high_water", stats.scratch_high_water)
        .set("rows_copied", stats.rows_copied)
}

/// One profiled plan node as a JSON row, as the trace's `plan_profile`
/// lines carry it; the registry's rows add the node's static flags.
pub(crate) fn profiled_node_json(node: &ProfiledNode) -> Json {
    let doc = Json::object()
        .set("path", node.desc.path.clone())
        .set("label", node.desc.label.clone())
        .set("calls", node.counts.calls)
        .set("time_ns", node.counts.time_ns)
        .set("rows_in", node.counts.rows_in)
        .set("rows_out", node.counts.rows_out)
        .set("cache_hits", node.counts.cache_hits)
        .set("cache_misses", node.counts.cache_misses);
    // Vectorized nodes report their columnar batch shape.
    match node.counts.rows_per_block() {
        Some(rpb) => doc
            .set("blocks", node.counts.blocks)
            .set("rows_per_block", rpb),
        None => doc,
    }
}

/// A registry row for a profiled node: the trace's row plus where the node
/// sits and how it is executed.
fn registry_node_json(node: &ProfiledNode) -> Json {
    profiled_node_json(node)
        .set("depth", node.desc.depth)
        .set("memoized", node.desc.memoized)
        .set("probe", node.desc.probe)
        .set("materialize", node.desc.materialize)
}

/// One scalar signal of a `T`: its JSON key, its Prometheus family (name
/// and help; `None` for a JSON-only field) and how to read it. A field
/// that reads `None` (a gauge not known yet) is left out of both
/// expositions, and a `_ms` field is exposed to Prometheus in seconds.
struct Scalar<T> {
    json: &'static str,
    prom: Option<(&'static str, &'static str)>,
    get: fn(&T) -> Option<u64>,
}

/// The registry's scalar counters, in exposition order.
const SCALARS: &[Scalar<MetricsRegistry>] = &[
    Scalar {
        json: "steps",
        prom: Some(("steps_total", "Completed logical steps (transitions).")),
        get: |r| Some(r.steps),
    },
    Scalar {
        json: "transitions_started",
        prom: None,
        get: |r| Some(r.transitions_started),
    },
    Scalar {
        json: "tuples_ingested",
        prom: Some((
            "tuples_ingested_total",
            "Tuples inserted plus deleted across all transitions.",
        )),
        get: |r| Some(r.tuples_ingested),
    },
    Scalar {
        json: "violations",
        prom: Some((
            "violations_total",
            "Violation witnesses across all constraints.",
        )),
        get: |r| Some(r.violations),
    },
    Scalar {
        json: "violating_steps",
        prom: Some((
            "violating_steps_total",
            "Steps with at least one violation witness.",
        )),
        get: |r| Some(r.violating_steps),
    },
    Scalar {
        json: "checkpoint_saves",
        prom: Some(("checkpoint_saves_total", "Checkpoints serialized.")),
        get: |r| Some(r.checkpoint_saves),
    },
    Scalar {
        json: "checkpoint_restores",
        prom: Some(("checkpoint_restores_total", "Checkpoints restored.")),
        get: |r| Some(r.checkpoint_restores),
    },
    Scalar {
        json: "checkpoint_bytes",
        prom: None,
        get: |r| Some(r.checkpoint_bytes),
    },
    Scalar {
        json: "checkpoint_fallbacks",
        prom: Some((
            "checkpoint_fallbacks_total",
            "Corrupt checkpoint candidates rejected during recovery.",
        )),
        get: |r| Some(r.checkpoint_fallbacks),
    },
    Scalar {
        json: "quarantines",
        prom: Some((
            "quarantines_total",
            "Constraint engines quarantined after a panic.",
        )),
        get: |r| Some(r.quarantines),
    },
    Scalar {
        json: "bad_lines",
        prom: Some((
            "bad_lines_total",
            "Malformed history lines skipped under a lenient policy.",
        )),
        get: |r| Some(r.bad_lines),
    },
];

/// A resident server's ingest gauges, in exposition order.
const SERVE_GAUGES: &[Scalar<ServeGauges>] = &[
    Scalar {
        json: "queue_depth",
        prom: Some((
            "serve_queue_depth",
            "Updates waiting in the resident server's ingest queue.",
        )),
        get: |g| Some(g.queue_depth as u64),
    },
    Scalar {
        json: "queue_capacity",
        prom: Some((
            "serve_queue_capacity",
            "Bound of the resident server's ingest queue.",
        )),
        get: |g| Some(g.queue_capacity as u64),
    },
    Scalar {
        json: "queue_peak",
        prom: Some((
            "serve_queue_peak",
            "High-water mark of the ingest queue depth.",
        )),
        get: |g| Some(g.queue_peak as u64),
    },
    Scalar {
        json: "shed",
        prom: Some((
            "serve_shed_total",
            "Updates rejected with BUSY because the ingest queue was full.",
        )),
        get: |g| Some(g.shed),
    },
    Scalar {
        json: "connections",
        prom: Some(("serve_connections", "Currently connected clients.")),
        get: |g| Some(g.connections as u64),
    },
    Scalar {
        json: "disconnected",
        prom: Some((
            "serve_disconnected_total",
            "Clients disconnected for stalling past the write timeout.",
        )),
        get: |g| Some(g.disconnected),
    },
    Scalar {
        json: "last_checkpoint_age_ms",
        prom: Some((
            "serve_last_checkpoint_age_seconds",
            "Seconds since the resident server's last checkpoint.",
        )),
        get: |g| g.last_checkpoint_age_ms,
    },
    Scalar {
        json: "drain_ms",
        prom: Some((
            "serve_drain_duration_seconds",
            "Wall time the graceful drain took.",
        )),
        get: |g| g.drain_ms,
    },
];

/// Sets each of `rows`' fields that `of` has a value for on `doc`.
fn scalars_json<T>(doc: Json, rows: &[Scalar<T>], of: &T) -> Json {
    rows.iter().fold(doc, |doc, row| match (row.get)(of) {
        Some(value) => doc.set(row.json, value),
        None => doc,
    })
}

/// Writes the Prometheus family of each of `rows` that `of` has a value
/// for.
fn scalars_prometheus<T>(out: &mut String, rows: &[Scalar<T>], of: &T) {
    for row in rows {
        let (Some((name, help)), Some(value)) = (row.prom, (row.get)(of)) else {
            continue;
        };
        if row.json.ends_with("_ms") {
            family(out, name, help, [("", value as f64 / 1e3)]);
        } else {
            family(out, name, help, [("", value)]);
        }
    }
}

/// Writes one Prometheus family under the `rtic_` prefix: its `# HELP`
/// and `# TYPE` lines, then a sample per `(suffix, value)`, the suffix
/// being its labels (`{checker="set"}`) or a histogram's `_bucket{…}`,
/// `_sum` or `_count`. The name decides the type: `counter` exactly when
/// it ends in `_total` (the rule `promtool check metrics` enforces),
/// `histogram` for a `_latency_seconds` family, `gauge` otherwise.
fn family<L: Display, V: Display>(
    out: &mut String,
    name: &str,
    help: &str,
    samples: impl IntoIterator<Item = (L, V)>,
) {
    let kind = if name.ends_with("_total") {
        "counter"
    } else if name.ends_with("_latency_seconds") {
        "histogram"
    } else {
        "gauge"
    };
    let _ = writeln!(out, "# HELP rtic_{name} {help}");
    let _ = writeln!(out, "# TYPE rtic_{name} {kind}");
    for (suffix, value) in samples {
        let _ = writeln!(out, "rtic_{name}{suffix} {value}");
    }
}

/// A counter per constraint, keyed by symbol: counting takes no lock,
/// where resolving a name takes the process-wide interner's. Names are
/// resolved, and sorted, only when an exposition is rendered.
#[derive(Clone, Debug, Default)]
struct ByConstraint(FastMap<Symbol, u64>);

impl ByConstraint {
    fn add(&mut self, constraint: Symbol, n: u64) {
        *self.0.entry(constraint).or_default() += n;
    }

    /// `(name, count)` in name order, resolved under one interner lock.
    fn by_name(&self) -> Vec<(&'static str, u64)> {
        let names = Symbol::names();
        let mut rows: Vec<_> = self.0.iter().map(|(c, n)| (names.get(*c), *n)).collect();
        drop(names);
        rows.sort_unstable();
        rows
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> Option<&u64> {
        self.0.get(&Symbol::intern(name))
    }
}

/// A Prometheus label set of one label.
fn label(key: &str, value: &str) -> String {
    format!("{{{key}=\"{value}\"}}")
}

/// A [`StepObserver`] that aggregates the event stream into counters,
/// gauges, and histograms, and renders them as JSON or Prometheus text.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    steps: u64,
    transitions_started: u64,
    tuples_ingested: u64,
    violations: u64,
    violating_steps: u64,
    evals_by_constraint: ByConstraint,
    violations_by_constraint: ByConstraint,
    checkpoint_saves: u64,
    checkpoint_restores: u64,
    checkpoint_bytes: u64,
    checkpoint_fallbacks: u64,
    quarantines: u64,
    quarantined_constraints: Vec<&'static str>,
    bad_lines: u64,
    step_latency: LatencyHistogram,
    eval_latency: LatencyHistogram,
    checkers: BTreeMap<&'static str, SpaceStats>,
    space_samples: Vec<SpaceSample>,
    plan_stats: BTreeMap<(&'static str, &'static str), RuntimePlanStats>,
    plan_profiles: BTreeMap<(&'static str, &'static str), PlanProfile>,
    /// Latest resident-server ingest gauges (`rtic serve` runs only).
    serve: Option<ServeGauges>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Completed steps (one per transition, regardless of checker count).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total violation witnesses across all constraints.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Completed steps at which some constraint found a witness.
    pub fn violating_steps(&self) -> u64 {
        self.violating_steps
    }

    /// Tuples inserted plus deleted across all observed transitions.
    pub fn tuples_ingested(&self) -> u64 {
        self.tuples_ingested
    }

    /// The step-latency histogram.
    pub fn step_latency(&self) -> &LatencyHistogram {
        &self.step_latency
    }

    /// Constraint engines quarantined after a panic.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Names of quarantined constraints, in quarantine order.
    pub fn quarantined_constraints(&self) -> &[&'static str] {
        &self.quarantined_constraints
    }

    /// Corrupt checkpoint candidates rejected during recovery.
    pub fn checkpoint_fallbacks(&self) -> u64 {
        self.checkpoint_fallbacks
    }

    /// Malformed history lines skipped under a lenient bad-line policy.
    pub fn bad_lines(&self) -> u64 {
        self.bad_lines
    }

    /// Latest observed space stats, summed across checkers.
    pub fn space_now(&self) -> SpaceStats {
        let mut total = SpaceStats::default();
        for stats in self.checkers.values() {
            total.aux_keys += stats.aux_keys;
            total.aux_timestamps += stats.aux_timestamps;
            total.stored_states += stats.stored_states;
            total.stored_tuples += stats.stored_tuples;
        }
        total
    }

    /// The latest resident-server ingest gauges, when the event stream
    /// came from an `rtic serve` run.
    pub fn serve_gauges(&self) -> Option<ServeGauges> {
        self.serve
    }

    /// Latest compiled-plan statistics per checker backend, aggregated
    /// across that backend's constraints (plan shapes add up, the scratch
    /// high-water mark takes the maximum). Empty when every checker runs
    /// the interpreting evaluator.
    pub fn plan_stats_by_checker(&self) -> BTreeMap<&'static str, RuntimePlanStats> {
        let mut by_checker: BTreeMap<&'static str, RuntimePlanStats> = BTreeMap::new();
        for ((checker, _constraint), stats) in &self.plan_stats {
            by_checker.entry(checker).or_default().absorb(*stats);
        }
        by_checker
    }

    /// Latest per-plan-node execution profile per `(checker, constraint)`,
    /// in key order. Empty unless a profiled run sampled its checkers.
    pub fn plan_profiles(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, &PlanProfile)> + '_ {
        self.plan_profiles
            .iter()
            .map(|((checker, constraint), profile)| (*checker, *constraint, profile))
    }

    /// The `limit` hottest plan nodes by inclusive wall time across every
    /// profiled constraint: `(constraint, node)`, hottest first, ties
    /// broken by constraint name and node id for determinism.
    pub fn hot_nodes(&self, limit: usize) -> Vec<(&'static str, &ProfiledNode)> {
        let mut rows: Vec<(&'static str, &ProfiledNode)> = self
            .plan_profiles
            .iter()
            .flat_map(|((_, constraint), profile)| {
                profile.nodes.iter().map(move |n| (*constraint, n))
            })
            .collect();
        rows.sort_by(|a, b| {
            b.1.counts
                .time_ns
                .cmp(&a.1.counts.time_ns)
                .then(a.0.cmp(b.0))
                .then(a.1.desc.id.cmp(&b.1.desc.id))
        });
        rows.truncate(limit);
        rows
    }

    /// The most recent space sample per constraint, in first-sampled
    /// order: `(constraint, checker, stats)`.
    pub fn latest_space_by_constraint(&self) -> Vec<(&'static str, &'static str, SpaceStats)> {
        let mut order: Vec<Symbol> = Vec::new();
        let mut latest: FastMap<Symbol, (&'static str, SpaceStats)> = FastMap::default();
        for row in &self.space_samples {
            if latest
                .insert(row.constraint, (row.checker, row.stats))
                .is_none()
            {
                order.push(row.constraint);
            }
        }
        order
            .into_iter()
            .map(|constraint| {
                let (checker, stats) = latest[&constraint];
                (constraint.as_str(), checker, stats)
            })
            .collect()
    }

    /// The full snapshot as a JSON document.
    pub fn to_json(&self) -> Json {
        let by = |counts: &ByConstraint| {
            let mut obj = Json::object();
            for (name, n) in counts.by_name() {
                obj = obj.set(name, n);
            }
            obj
        };
        let samples: Vec<Json> = self
            .space_samples
            .iter()
            .map(|row| {
                let doc = Json::object()
                    .set("step", row.step_index)
                    .set("time", row.time.0)
                    .set("checker", row.checker)
                    .set("constraint", row.constraint.as_str());
                space_json(doc, &row.stats)
            })
            .collect();
        let checkers: Vec<Json> = self
            .checkers
            .keys()
            .map(|name| Json::Str((*name).into()))
            .collect();
        let doc = scalars_json(Json::object(), SCALARS, self)
            .set("evals_by_constraint", by(&self.evals_by_constraint))
            .set(
                "violations_by_constraint",
                by(&self.violations_by_constraint),
            )
            .set(
                "quarantined_constraints",
                Json::Arr(
                    self.quarantined_constraints
                        .iter()
                        .map(|name| Json::Str((*name).into()))
                        .collect(),
                ),
            )
            .set("step_latency_us", self.step_latency.to_json())
            .set("eval_latency_us", self.eval_latency.to_json())
            .set("space", space_json(Json::object(), &self.space_now()))
            .set("space_samples", Json::Arr(samples))
            .set("checkers", Json::Arr(checkers))
            .set("plan_stats", {
                let mut obj = Json::object();
                for (name, stats) in self.plan_stats_by_checker() {
                    obj = obj.set(name, plan_stats_json(Json::object(), "nodes", &stats));
                }
                obj
            })
            .set("plan_profiles", {
                let mut obj = Json::object();
                for ((checker, constraint), profile) in &self.plan_profiles {
                    let nodes: Vec<Json> = profile.nodes.iter().map(registry_node_json).collect();
                    obj = obj.set(
                        constraint,
                        Json::object()
                            .set("checker", *checker)
                            .set("total_time_ns", profile.total_time_ns())
                            .set("nodes", Json::Arr(nodes)),
                    );
                }
                obj
            })
            .set(
                "plan_hot_nodes",
                Json::Arr(
                    self.hot_nodes(5)
                        .into_iter()
                        .map(|(constraint, node)| {
                            registry_node_json(node).set("constraint", constraint)
                        })
                        .collect(),
                ),
            );
        match &self.serve {
            Some(gauges) => doc.set("serve", serve_json(Json::object(), gauges)),
            None => doc,
        }
    }

    /// Pretty-printed JSON exposition.
    pub fn render_json(&self) -> String {
        self.to_json().render_pretty()
    }

    /// The exposition a metrics file at `path` holds: Prometheus text for
    /// a `.prom` file, JSON for any other.
    pub fn render_for(&self, path: &str) -> String {
        if path.ends_with(".prom") {
            self.render_prometheus()
        } else {
            self.render_json()
        }
    }

    /// Prometheus text exposition (metric names under the `rtic_` prefix).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        scalars_prometheus(&mut out, SCALARS, self);
        let by = |counts: &ByConstraint| {
            let rows = counts.by_name().into_iter();
            rows.map(|(name, n)| (label("constraint", name), n))
        };
        family(
            &mut out,
            "evals_total",
            "Constraint evaluations.",
            by(&self.evals_by_constraint),
        );
        family(
            &mut out,
            "constraint_violations_total",
            "Violation witnesses per constraint.",
            by(&self.violations_by_constraint),
        );
        let latency = &self.step_latency;
        let buckets = latency.cumulative_buckets().into_iter().map(|(le_us, n)| {
            let le = if le_us.is_finite() {
                (le_us / 1e6).to_string()
            } else {
                "+Inf".to_string()
            };
            (format!("_bucket{{le=\"{le}\"}}"), n.to_string())
        });
        let sum = latency.mean_us() * latency.count() as f64 / 1e6;
        family(
            &mut out,
            "step_latency_seconds",
            "Wall-clock latency per logical step.",
            buckets.chain([
                ("_sum".to_string(), sum.to_string()),
                ("_count".to_string(), latency.count().to_string()),
            ]),
        );
        let checkers = |value: fn(&SpaceStats) -> usize| {
            let rows = self.checkers.iter();
            rows.map(move |(name, stats)| (label("checker", name), value(stats)))
        };
        family(
            &mut out,
            "retained_units",
            "Current space footprint per checker backend.",
            checkers(SpaceStats::retained_units),
        );
        family(
            &mut out,
            "stored_tuples",
            "Currently stored tuples per checker backend.",
            checkers(|stats| stats.stored_tuples),
        );
        let plans = self.plan_stats_by_checker();
        if !plans.is_empty() {
            let plans = |value: fn(&RuntimePlanStats) -> u64| {
                let rows = plans.iter();
                rows.map(move |(name, stats)| (label("checker", name), value(stats)))
            };
            family(
                &mut out,
                "plan_nodes",
                "Compiled evaluation-plan nodes per checker backend.",
                plans(|stats| stats.plan.nodes as u64),
            );
            family(
                &mut out,
                "plan_scratch_high_water",
                "Widest join or index key, in columns, any plan kernel probed with per checker backend.",
                plans(|stats| stats.scratch_high_water as u64),
            );
            family(
                &mut out,
                "plan_rows_copied_total",
                "Rows duplicated because a memoized row set was still shared when a delta arrived.",
                plans(|stats| stats.rows_copied),
            );
        }
        let hot = self.hot_nodes(10);
        if !hot.is_empty() {
            let nodes = |value: fn(&ProfiledNode) -> String| {
                hot.iter().map(move |(constraint, node)| {
                    let path = &node.desc.path;
                    (
                        format!("{{constraint=\"{constraint}\",node=\"{path}\"}}"),
                        value(node),
                    )
                })
            };
            family(
                &mut out,
                "plan_node_time_seconds",
                "Inclusive wall time of the hottest plan nodes.",
                nodes(|node| (node.counts.time_ns as f64 / 1e9).to_string()),
            );
            family(
                &mut out,
                "plan_node_calls",
                "Executions of the hottest plan nodes.",
                nodes(|node| node.counts.calls.to_string()),
            );
            family(
                &mut out,
                "plan_node_rows_out",
                "Output rows of the hottest plan nodes.",
                nodes(|node| node.counts.rows_out.to_string()),
            );
        }
        if let Some(gauges) = &self.serve {
            scalars_prometheus(&mut out, SERVE_GAUGES, gauges);
        }
        out
    }
}

impl StepObserver for MetricsRegistry {
    fn observe(&mut self, event: &StepEvent<'_>) {
        match event {
            StepEvent::StepStart(e) => {
                self.transitions_started += 1;
                self.tuples_ingested += e.tuples as u64;
            }
            StepEvent::ConstraintEval(e) => {
                self.evals_by_constraint.add(e.constraint, 1);
                if e.violations > 0 {
                    self.violations_by_constraint
                        .add(e.constraint, e.violations as u64);
                }
                self.eval_latency.record_ns(e.latency_ns);
                self.checkers.entry(e.checker).or_default();
            }
            StepEvent::Violation(_) => {}
            StepEvent::StepEnd(e) => {
                self.steps += 1;
                self.violations += e.violations as u64;
                if e.violations > 0 {
                    self.violating_steps += 1;
                }
                self.step_latency.record_ns(e.latency_ns);
            }
            StepEvent::CheckpointSave(e) => {
                self.checkpoint_saves += 1;
                self.checkpoint_bytes += e.bytes as u64;
            }
            StepEvent::CheckpointRestore(_) => self.checkpoint_restores += 1,
            StepEvent::ConstraintQuarantined(e) => {
                self.quarantines += 1;
                self.quarantined_constraints.push(e.constraint.as_str());
            }
            StepEvent::CheckpointFallback(_) => self.checkpoint_fallbacks += 1,
            StepEvent::BadLine(_) => self.bad_lines += 1,
            // Keyed per (checker, constraint) so re-sampling replaces the
            // previous snapshot instead of double-counting plan shapes.
            StepEvent::PlanStatsSample(e) => {
                let key = (e.checker, e.constraint.as_str());
                self.plan_stats.insert(key, e.stats);
            }
            // Counters are cumulative over the run, so the latest sample
            // replaces any earlier snapshot.
            StepEvent::PlanProfileSample(e) => {
                let key = (e.checker, e.constraint.as_str());
                self.plan_profiles
                    .insert(key, e.profile.clone().into_owned());
            }
            StepEvent::SpaceSample(e) => {
                self.checkers.insert(e.checker, e.stats);
                self.space_samples.push(*e);
            }
            // Gauges: the latest sample replaces the previous one.
            StepEvent::ServeSample(gauges) => self.serve = Some(*gauges),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use rtic_core::observe::{
        step_all, BadLine, CheckpointFallback, CheckpointSection, ConstraintQuarantined,
        PlanStatsSample, StepStart,
    };
    use rtic_core::{Checker, ConstraintSet, IncrementalChecker};
    use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
    use rtic_temporal::parser::parse_constraint;
    use rtic_temporal::TimePoint;
    use std::sync::Arc;

    fn run_workload(registry: &mut MetricsRegistry) {
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
        let insert = Update::new().with_insert("p", tuple!["a"]);
        step_all(&mut checkers, TimePoint(1), &insert, registry).unwrap();
        step_all(&mut checkers, TimePoint(2), &Update::new(), registry).unwrap();
    }

    #[test]
    fn counters_track_the_run() {
        let mut registry = MetricsRegistry::new();
        run_workload(&mut registry);
        assert_eq!(registry.steps(), 2);
        assert_eq!(registry.tuples_ingested(), 1);
        // Both steps violate: hist over the empty prefix is vacuously true.
        assert_eq!(registry.violations(), 2);
        assert_eq!(registry.evals_by_constraint.get("d"), Some(&2));
        assert_eq!(registry.violations_by_constraint.get("d"), Some(&2));
        assert_eq!(registry.step_latency().count(), 2);
    }

    #[test]
    fn json_exposition_is_parseable_and_consistent() {
        let mut registry = MetricsRegistry::new();
        run_workload(&mut registry);
        let doc = json::parse(&registry.render_json()).unwrap();
        assert_eq!(doc.get("steps").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("violations").and_then(Json::as_u64), Some(2));
        let hist = doc.get("step_latency_us").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        let buckets = hist.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), LATENCY_BUCKETS_US.len() + 1);
        assert_eq!(
            buckets.last().unwrap().get("count").and_then(Json::as_u64),
            Some(2),
            "+Inf bucket holds every observation"
        );
    }

    #[test]
    fn prometheus_exposition_has_core_families() {
        let mut registry = MetricsRegistry::new();
        run_workload(&mut registry);
        let text = registry.render_prometheus();
        assert!(text.contains("rtic_steps_total 2"));
        assert!(text.contains("rtic_violations_total 2"));
        assert!(text.contains("rtic_constraint_violations_total{constraint=\"d\"} 2"));
        assert!(text.contains("rtic_step_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("# TYPE rtic_step_latency_seconds histogram"));
    }

    #[test]
    fn resilience_events_reach_counters_and_expositions() {
        use rtic_relation::Symbol;
        let mut registry = MetricsRegistry::new();
        registry.observe(&StepEvent::ConstraintQuarantined(ConstraintQuarantined {
            checker: "set",
            constraint: Symbol::intern("flaky"),
            time: TimePoint(7),
            detail: "boom".into(),
        }));
        registry.observe(&StepEvent::CheckpointFallback(CheckpointFallback {
            path: "ckpt.1".into(),
            detail: "checksum mismatch".into(),
        }));
        registry.observe(&StepEvent::BadLine(BadLine {
            line: 12,
            detail: "expected `@`".into(),
        }));
        registry.observe(&StepEvent::BadLine(BadLine {
            line: 19,
            detail: "expected a value".into(),
        }));
        assert_eq!(registry.quarantines(), 1);
        assert_eq!(registry.quarantined_constraints(), ["flaky"]);
        assert_eq!(registry.checkpoint_fallbacks(), 1);
        assert_eq!(registry.bad_lines(), 2);
        let doc = json::parse(&registry.render_json()).unwrap();
        assert_eq!(doc.get("quarantines").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("bad_lines").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("checkpoint_fallbacks").and_then(Json::as_u64),
            Some(1)
        );
        let text = registry.render_prometheus();
        assert!(text.contains("rtic_quarantines_total 1"));
        assert!(text.contains("rtic_checkpoint_fallbacks_total 1"));
        assert!(text.contains("rtic_bad_lines_total 2"));
    }

    #[test]
    fn plan_stats_samples_aggregate_per_checker() {
        use rtic_core::RuntimePlanStats;
        use rtic_relation::Symbol;
        let mut registry = MetricsRegistry::new();
        let sample = |constraint: &str, nodes: usize, high: usize| {
            StepEvent::PlanStatsSample(PlanStatsSample {
                checker: "incremental",
                constraint: Symbol::intern(constraint),
                stats: RuntimePlanStats {
                    plan: rtic_core::PlanStats {
                        nodes,
                        atom_shapes: 2,
                        join_shapes: 1,
                        probe_nodes: 1,
                        cached_nodes: 1,
                    },
                    scratch_high_water: high,
                    rows_copied: 3,
                },
            })
        };
        registry.observe(&sample("a", 5, 8));
        registry.observe(&sample("b", 3, 2));
        // Re-sampling the same constraint replaces, never double-counts.
        registry.observe(&sample("a", 5, 16));
        let by = registry.plan_stats_by_checker();
        let inc = by.get("incremental").unwrap();
        assert_eq!(inc.plan.nodes, 8);
        assert_eq!(inc.scratch_high_water, 16);
        assert_eq!(inc.rows_copied, 6, "copied rows add up across constraints");
        let doc = json::parse(&registry.render_json()).unwrap();
        let plans = doc.get("plan_stats").unwrap().get("incremental").unwrap();
        assert_eq!(plans.get("nodes").and_then(Json::as_u64), Some(8));
        assert_eq!(
            plans.get("scratch_high_water").and_then(Json::as_u64),
            Some(16)
        );
        let text = registry.render_prometheus();
        assert!(text.contains("rtic_plan_nodes{checker=\"incremental\"} 8"));
        assert!(text.contains("rtic_plan_scratch_high_water{checker=\"incremental\"} 16"));
        assert!(text.contains("rtic_plan_rows_copied_total{checker=\"incremental\"} 6"));
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::default();
        for ns in [800, 1_500, 3_000, 40_000, 90_000, 2_000_000] {
            h.record_ns(ns);
        }
        let (p50, p95, p99) = (h.quantile_us(0.5), h.quantile_us(0.95), h.quantile_us(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= h.max_us);
        assert!(h.quantile_us(0.0) >= 0.0);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn empty_histogram_renders_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0.0);
        assert_eq!(h.quantile_us(0.0), 0.0);
        assert_eq!(h.count(), 0);
        let doc = h.to_json();
        assert_eq!(doc.get("min_us").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("p50_us").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("p90_us").and_then(Json::as_f64), Some(0.0));
        let buckets = doc.get("buckets").and_then(Json::as_arr).unwrap();
        assert!(buckets
            .iter()
            .all(|b| b.get("count").and_then(Json::as_u64) == Some(0)));
    }

    #[test]
    fn observations_beyond_the_last_bucket_land_in_plus_inf() {
        let mut h = LatencyHistogram::default();
        // All far past the last finite bound (10ms).
        for ns in [20_000_000u64, 50_000_000, 90_000_000] {
            h.record_ns(ns);
        }
        let buckets = h.cumulative_buckets();
        let (le, count) = *buckets.last().unwrap();
        assert!(le.is_infinite());
        assert_eq!(count, 3);
        assert!(
            buckets[..buckets.len() - 1].iter().all(|&(_, c)| c == 0),
            "finite buckets stay empty"
        );
        // Quantiles interpolate between the last bound and the seen max.
        let p50 = h.quantile_us(0.5);
        assert!(p50 >= *LATENCY_BUCKETS_US.last().unwrap(), "{p50}");
        assert!(p50 <= h.max_us, "{p50} vs max {}", h.max_us);
        assert_eq!(h.quantile_us(1.0), h.max_us);
    }

    #[test]
    fn saturated_bucket_quantiles_stay_within_recorded_extremes() {
        // Every observation saturates one finite bucket (2.5ms..10ms]
        // whose bounds sit far outside the recorded extremes; quantiles
        // must stay clamped to [min, max] anyway.
        let mut h = LatencyHistogram::default();
        for ns in [2_600_000u64, 3_000_000, 3_100_000, 3_200_000] {
            h.record_ns(ns);
        }
        for i in 0..=100u32 {
            let q = f64::from(i) / 100.0;
            let v = h.quantile_us(q);
            assert!(
                v + 1e-9 >= h.min_us && v <= h.max_us + 1e-9,
                "q={q}: {v} outside [{}, {}]",
                h.min_us,
                h.max_us
            );
        }
        assert_eq!(h.quantile_us(1.0), h.max_us);
        assert!(
            h.quantile_us(0.0) + 1e-9 >= 2_600.0,
            "p0 is the recorded min, not the bucket floor"
        );
    }

    #[test]
    fn serve_samples_reach_json_and_prometheus() {
        let mut registry = MetricsRegistry::new();
        // Batch runs never emit ServeSample, so the section stays absent.
        assert!(registry.serve_gauges().is_none());
        let sample = |depth, shed| {
            StepEvent::ServeSample(ServeGauges {
                queue_depth: depth,
                queue_capacity: 64,
                queue_peak: 17,
                shed,
                connections: 2,
                disconnected: 1,
                last_checkpoint_age_ms: Some(250),
                drain_ms: None,
            })
        };
        registry.observe(&sample(9, 3));
        // Gauges: re-sampling replaces the earlier snapshot.
        registry.observe(&sample(3, 5));
        let gauges = registry.serve_gauges().unwrap();
        assert_eq!(gauges.queue_depth, 3);
        assert_eq!(gauges.shed, 5);
        let doc = json::parse(&registry.render_json()).unwrap();
        let serve = doc.get("serve").unwrap();
        assert_eq!(serve.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(serve.get("queue_capacity").and_then(Json::as_u64), Some(64));
        assert_eq!(serve.get("queue_peak").and_then(Json::as_u64), Some(17));
        assert_eq!(serve.get("shed").and_then(Json::as_u64), Some(5));
        assert_eq!(serve.get("connections").and_then(Json::as_u64), Some(2));
        assert_eq!(
            serve.get("last_checkpoint_age_ms").and_then(Json::as_u64),
            Some(250)
        );
        assert!(serve.get("drain_ms").is_none());
        let text = registry.render_prometheus();
        assert!(text.contains("rtic_serve_queue_depth 3"));
        assert!(text.contains("rtic_serve_queue_capacity 64"));
        assert!(text.contains("rtic_serve_queue_peak 17"));
        assert!(text.contains("rtic_serve_shed_total 5"));
        assert!(text.contains("rtic_serve_connections 2"));
        assert!(text.contains("rtic_serve_disconnected_total 1"));
        assert!(text.contains("rtic_serve_last_checkpoint_age_seconds 0.25"));
        assert!(!text.contains("rtic_serve_drain_duration_seconds"));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = LatencyHistogram::default();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            h.record_ns(seed % 20_000_000);
        }
        let mut last = 0.0f64;
        for i in 0..=100u32 {
            let q = f64::from(i) / 100.0;
            let v = h.quantile_us(q);
            assert!(v + 1e-9 >= last, "not monotone at q={q}: {v} < {last}");
            last = v;
        }
        assert!(h.quantile_us(1.0) <= h.max_us + 1e-9);
        assert!(h.quantile_us(0.0) + 1e-9 >= h.min_us);
    }

    #[test]
    fn json_exposes_interpolated_quantile_ladder() {
        let mut registry = MetricsRegistry::new();
        run_workload(&mut registry);
        let doc = json::parse(&registry.render_json()).unwrap();
        let hist = doc.get("step_latency_us").unwrap();
        let p50 = hist.get("p50_us").and_then(Json::as_f64).unwrap();
        let p90 = hist.get("p90_us").and_then(Json::as_f64).unwrap();
        let p95 = hist.get("p95_us").and_then(Json::as_f64).unwrap();
        let p99 = hist.get("p99_us").and_then(Json::as_f64).unwrap();
        assert!(
            p50 <= p90 && p90 <= p95 && p95 <= p99,
            "{p50} {p90} {p95} {p99}"
        );
    }

    /// Four violating steps through a one-constraint profiling fleet.
    fn profiled_run(registry: &mut MetricsRegistry) -> ConstraintSet {
        use rtic_core::EncodingOptions;

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
        for t in 1..=4u64 {
            set.step_observed(
                TimePoint(t),
                &Update::new().with_insert("p", tuple!["a"]),
                registry,
            )
            .unwrap();
        }
        set
    }

    #[test]
    fn plan_profile_samples_expose_hot_nodes() {
        let mut registry = MetricsRegistry::new();
        profiled_run(&mut registry).sample_plan_profiles(&mut registry);
        let hot = registry.hot_nodes(3);
        assert!(!hot.is_empty(), "profiled run must surface hot nodes");
        assert_eq!(hot[0].0, "d");
        assert!(hot[0].1.counts.calls > 0);
        let doc = json::parse(&registry.render_json()).unwrap();
        let profiles = doc.get("plan_profiles").unwrap();
        let d = profiles.get("d").expect("constraint profile in JSON");
        assert!(d.get("total_time_ns").and_then(Json::as_u64).is_some());
        assert!(!d.get("nodes").and_then(Json::as_arr).unwrap().is_empty());
        let hot_json = doc.get("plan_hot_nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(hot_json.len().min(5), hot_json.len());
        assert!(!hot_json.is_empty());
        let text = registry.render_prometheus();
        assert!(
            text.contains("rtic_plan_node_time_seconds{constraint=\"d\""),
            "{text}"
        );
        assert!(
            text.contains("rtic_plan_node_calls{constraint=\"d\""),
            "{text}"
        );
    }

    #[test]
    fn a_family_is_a_counter_exactly_when_its_name_ends_in_total() {
        use rtic_relation::Symbol;

        // Every event kind, so every family the registry can emit is in
        // the exposition: the step/eval/violation events and the three
        // samplers from a real run, the rest observed directly.
        let mut registry = MetricsRegistry::new();
        let set = profiled_run(&mut registry);
        set.sample_space(3, &mut registry);
        set.sample_plan_stats(&mut registry);
        set.sample_plan_profiles(&mut registry);
        let d = Symbol::intern("d");
        registry.observe(&StepEvent::CheckpointSave(CheckpointSection {
            constraint: d,
            bytes: 10,
        }));
        registry.observe(&StepEvent::CheckpointRestore(CheckpointSection {
            constraint: d,
            bytes: 10,
        }));
        registry.observe(&StepEvent::ConstraintQuarantined(ConstraintQuarantined {
            checker: "set",
            constraint: d,
            time: TimePoint(4),
            detail: "boom".into(),
        }));
        registry.observe(&StepEvent::CheckpointFallback(CheckpointFallback {
            path: "ckpt.1".into(),
            detail: "checksum mismatch".into(),
        }));
        registry.observe(&StepEvent::BadLine(BadLine {
            line: 3,
            detail: "expected `@`".into(),
        }));
        registry.observe(&StepEvent::ServeSample(ServeGauges {
            queue_depth: 1,
            queue_capacity: 64,
            queue_peak: 8,
            shed: 2,
            connections: 1,
            disconnected: 1,
            last_checkpoint_age_ms: Some(250),
            drain_ms: Some(4),
        }));

        let text = registry.render_prometheus();
        let families: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter_map(|rest| rest.split_once(' '))
            .collect();
        for family in [
            "rtic_steps_total",
            "rtic_plan_rows_copied_total",
            "rtic_plan_node_calls",
            "rtic_serve_shed_total",
            "rtic_serve_drain_duration_seconds",
        ] {
            assert!(
                families.iter().any(|(name, _)| *name == family),
                "{family} missing from the exposition"
            );
        }
        for (name, kind) in families {
            assert_eq!(
                kind == "counter",
                name.ends_with("_total"),
                "{name} is typed {kind}"
            );
        }
    }

    #[test]
    fn a_metrics_file_is_prometheus_text_only_when_named_prom() {
        let mut registry = MetricsRegistry::new();
        registry.observe(&StepEvent::StepStart(StepStart {
            checker: "set",
            time: TimePoint(1),
            tuples: 2,
        }));
        assert_eq!(registry.render_for("m.prom"), registry.render_prometheus());
        for path in ["m.json", "m", "m.prom.json"] {
            assert_eq!(registry.render_for(path), registry.render_json(), "{path}");
        }
    }
}
