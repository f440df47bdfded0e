//! Every exposition of one scripted event stream, pinned byte for byte.
//!
//! The stream carries all fourteen [`StepEvent`] kinds with fixed
//! latencies, so the metrics JSON (compact; `render_json` pretty-prints the
//! same document), the Prometheus text, the JSON-lines trace, the Chrome
//! trace and the `rtic report` table are deterministic. A change to any
//! renderer shows up as a diff against `tests/fixtures/expositions/`.

use std::sync::Arc;

use rtic_core::plan::{NodeCounters, NodeDesc, PlanProfile, PlanStats, ProfiledNode};
use rtic_core::{Checker, IncrementalChecker, RuntimePlanStats, SpaceStats};
use rtic_obs::{json, report, ChromeTraceWriter, MetricsRegistry, MultiObserver, TraceWriter};
use rtic_obs::{StepEvent, StepObserver};
use rtic_relation::{tuple, Catalog, Schema, Sort, Symbol, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::TimePoint;

/// Three plan nodes: a root and two children, one streaming column blocks.
fn profile() -> PlanProfile {
    let node = |id: usize, path: &str, label: &str, time_ns, blocks| ProfiledNode {
        desc: NodeDesc {
            id,
            depth: id.min(1),
            path: path.into(),
            label: label.into(),
            memoized: id == 1,
            probe: id == 2,
            materialize: false,
        },
        counts: NodeCounters {
            calls: 4,
            time_ns,
            rows_in: 12,
            rows_out: 4,
            cache_hits: 2,
            cache_misses: 2,
            blocks,
            block_rows: 4 * blocks,
        },
    };
    let nodes = vec![
        node(0, "body", "and", 9_000, 0),
        node(1, "body/and[0]", "atom(p)", 2_500, 3),
        node(2, "body/and[1]", "probe(hist[0,1] p(x))", 5_000, 0),
    ];
    PlanProfile { nodes }
}

/// Renders the five expositions of the scripted stream, by fixture name.
fn expositions() -> Vec<(&'static str, String)> {
    let catalog = Catalog::new().with("p", Schema::of(&[("x", Sort::Str)]));
    let constraint = parse_constraint("deny d: p(x) && hist[0,1] p(x)").expect("parses");
    let mut checker = IncrementalChecker::new(constraint, Arc::new(catalog.expect("one relation")))
        .expect("compiles");
    let update = Update::new().with_insert("p", tuple!["a"]);
    let report = checker.step(TimePoint(1), &update).expect("steps");
    assert!(!report.ok(), "the scripted step must violate");
    let profile = profile();
    let (d, e) = (Symbol::intern("d"), Symbol::intern("e"));
    let stats = SpaceStats {
        aux_keys: 2,
        aux_timestamps: 5,
        stored_states: 0,
        stored_tuples: 1,
    };
    let (checker, at) = ("set", TimePoint);
    let start = |t, tuples| StepEvent::StepStart {
        checker,
        time: at(t),
        tuples,
    };
    let eval = |constraint, t, violations, latency_ns| StepEvent::ConstraintEval {
        checker,
        constraint,
        time: at(t),
        violations,
        latency_ns,
    };
    let space = |constraint, t, step_index, aux_keys| StepEvent::SpaceSample {
        checker,
        constraint,
        time: at(t),
        step_index,
        stats: SpaceStats { aux_keys, ..stats },
    };
    let plan = PlanStats {
        nodes: 3,
        atom_shapes: 1,
        join_shapes: 1,
        probe_nodes: 1,
        cached_nodes: 1,
    };
    let events = [
        StepEvent::CheckpointFallback {
            path: "s.ckpt".into(),
            detail: "checksum mismatch".into(),
        },
        StepEvent::CheckpointRestore {
            constraint: d,
            bytes: 120,
        },
        StepEvent::BadLine {
            line: 7,
            detail: "expected `@`".into(),
        },
        start(1, 1),
        eval(d, 1, 1, 4_200),
        StepEvent::Violation {
            checker,
            report: &report,
        },
        eval(e, 1, 0, 1_300),
        StepEvent::StepEnd {
            checker,
            time: at(1),
            violations: 1,
            latency_ns: 7_000,
        },
        space(d, 1, 0, 2),
        StepEvent::CheckpointSave {
            constraint: d,
            bytes: 140,
        },
        StepEvent::ServeSample {
            queue_depth: 2,
            queue_capacity: 64,
            queue_peak: 9,
            shed: 1,
            connections: 3,
            disconnected: 1,
            last_checkpoint_age_ms: Some(250),
            drain_ms: Some(12),
        },
        StepEvent::SmcSample {
            scenario: Symbol::intern("fraud"),
            sample: 0,
            bound: 738,
            violated_constraints: vec![d],
        },
        // A step the quarantine interrupts: it never ends.
        start(3, 0),
        eval(d, 3, 0, 900),
        StepEvent::ConstraintQuarantined {
            checker,
            constraint: e,
            time: at(3),
            detail: "index out of bounds".into(),
        },
        space(e, 3, 1, 1),
        StepEvent::PlanStatsSample {
            checker,
            constraint: d,
            stats: RuntimePlanStats {
                plan,
                scratch_high_water: 2,
                rows_copied: 4,
            },
        },
        StepEvent::PlanProfileSample {
            checker,
            constraint: d,
            profile: &profile,
        },
    ];
    let (mut registry, mut trace) = (MetricsRegistry::new(), TraceWriter::in_memory());
    let mut chrome = ChromeTraceWriter::in_memory();
    let mut all = MultiObserver::new()
        .with(&mut registry)
        .with(&mut trace)
        .with(&mut chrome);
    events.iter().for_each(|event| all.observe(event));
    drop(all);
    let doc = json::parse(&registry.render_json()).expect("the registry renders valid JSON");
    vec![
        ("metrics.json", format!("{}\n", registry.to_json().render())),
        ("metrics.prom", registry.render_prometheus()),
        ("trace.jsonl", trace.finish().expect("in memory")),
        ("chrome.json", chrome.finish().expect("in memory")),
        ("report.txt", report::render(&doc).expect("renders")),
    ]
}

#[test]
fn every_exposition_of_the_scripted_stream_is_byte_identical_to_its_fixture() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expositions");
    for (name, actual) in expositions() {
        let path = dir.join(name);
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert!(
            actual == expected,
            "{name} differs from its fixture\n--- expected\n{expected}\n--- actual\n{actual}"
        );
    }
}
