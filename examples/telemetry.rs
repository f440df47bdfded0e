//! Instrumented run: the reservations workload checked with a metrics
//! registry attached, printing the space trajectory, a summary report,
//! the per-plan-node profile (the library side of `rtic check
//! --profile`), and a Chrome trace viewable in Perfetto (the library
//! side of `--trace FILE --trace-format chrome`).
//!
//! Run with: `cargo run --release --example telemetry`

use std::sync::Arc;

use rtic::core::observe::{sample_space, step_all};
use rtic::core::{
    explain, Checker, CompiledConstraint, ConstraintSet, EncodingOptions, NaiveChecker,
};
use rtic::obs::{MetricsRegistry, MultiObserver, TraceLayout, TraceWriter};
use rtic::workload::Reservations;

/// Space is sampled every this many steps (`rtic check --sample-space`).
const SAMPLE_EVERY: u64 = 50;

fn main() {
    let spec = Reservations {
        steps: 500,
        new_per_step: 3,
        deadline: 5,
        violation_rate: 0.04,
        seed: 7,
    };
    let generated = spec.generate();
    println!("workload:   {spec:?}");
    println!("constraint: {}", generated.constraints[0]);
    println!();

    // Same workload through both backends, each with its own registry, so
    // the trajectories can be compared side by side. The incremental run
    // is a one-constraint fleet, as `rtic check` steps it, and carries
    // plan-node profiling (the library side of `rtic check --profile`):
    // per-node inclusive time, cardinality, and memo-cache counters, at a
    // single branch of cost when disabled.
    let constraint = generated.constraints[0].clone();
    let mut set = ConstraintSet::with_options(
        [constraint.clone()],
        Arc::clone(&generated.catalog),
        EncodingOptions {
            profile_plans: true,
            ..Default::default()
        },
    )
    .unwrap();
    let compiled = CompiledConstraint::compile(constraint, Arc::clone(&generated.catalog)).unwrap();
    let mut naive: Vec<Box<dyn Checker>> = vec![Box::new(NaiveChecker::from_compiled(compiled))];
    let mut registries = [MetricsRegistry::new(), MetricsRegistry::new()];

    // The incremental run also streams to a Chrome trace: open the
    // written file in https://ui.perfetto.dev to see the step → dispatch
    // → eval span hierarchy plus a per-constraint plan-profile track.
    let trace_path = std::env::temp_dir().join("rtic-telemetry.trace.json");
    let mut trace = TraceWriter::to_file(&trace_path, TraceLayout::Chrome).unwrap();

    let [inc_registry, naive_registry] = &mut registries;
    for (index, tr) in generated.transitions.iter().enumerate() {
        let index = index as u64;
        let mut both = MultiObserver::new().with(&mut *inc_registry);
        both.push(&mut trace);
        set.step_observed(tr.time, &tr.update, &mut both).unwrap();
        step_all(&mut naive, tr.time, &tr.update, naive_registry).unwrap();
        if index.is_multiple_of(SAMPLE_EVERY) {
            set.sample_space(index, &mut both);
            sample_space(&naive, tr.time, index, naive_registry);
        }
    }
    // The accumulated profile becomes nested plan-node spans on the
    // trace's per-constraint track...
    set.sample_plan_profiles(&mut trace);
    trace.finish().unwrap();
    let runs = [("incremental", &registries[0]), ("naive", &registries[1])];

    println!("space trajectory (retained units every 50 steps)");
    println!("{:>8}  {:>12}  {:>12}", "step", runs[0].0, runs[1].0);
    let samples: Vec<Vec<(u64, usize)>> = runs
        .iter()
        .map(|(_, registry)| {
            registry
                .to_json()
                .get("space_samples")
                .and_then(|s| s.as_arr().map(<[_]>::to_vec))
                .unwrap_or_default()
                .iter()
                .map(|row| {
                    (
                        row.get("step").and_then(|v| v.as_u64()).unwrap_or(0),
                        row.get("retained_units")
                            .and_then(|v| v.as_u64())
                            .unwrap_or(0) as usize,
                    )
                })
                .collect()
        })
        .collect();
    for (a, b) in samples[0].iter().zip(&samples[1]) {
        println!("{:>8}  {:>12}  {:>12}", a.0, a.1, b.1);
    }
    println!();
    println!(
        "incremental plateaus while naive grows with history — the paper's claim, measured live."
    );
    println!();

    for (name, registry) in runs {
        println!(
            "[{name}] steps={} violations={} p50_step={:.1}us p90_step={:.1}us p95_step={:.1}us",
            registry.steps(),
            registry.violations(),
            registry.step_latency().quantile_us(0.50),
            registry.step_latency().quantile_us(0.90),
            registry.step_latency().quantile_us(0.95),
        );
    }
    println!();

    // ...and is also renderable as the EXPLAIN-ANALYZE table `rtic check
    // --profile` prints: where the incremental checker's time went,
    // node by node.
    for (_, profile) in set.plan_profiles() {
        println!("plan-node profile of the incremental run:");
        print!("{}", explain::render_profile(&profile));
    }
    println!();
    println!(
        "chrome trace written to {} — open it in https://ui.perfetto.dev",
        trace_path.display()
    );
}
