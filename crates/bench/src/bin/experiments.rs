//! Prints the experiment tables. See EXPERIMENTS.md for the mapping to the
//! paper's claims.

use rtic_bench::experiments::{self, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: experiments [--quick] [--table t1|f1|t2|f2|t3a|t3b|t4|f3|t5|t6|t7|t8]\n\
             \x20                  [--metrics FILE] [--trace FILE]"
        );
        eprintln!(
            "--metrics/--trace run the instrumented telemetry pass (motivating\n\
             constraint, reservations workload) and write the observer output."
        );
        return;
    }
    let metrics_path = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1));
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1));
    if metrics_path.is_some() || trace_path.is_some() {
        let mut registry = rtic_obs::MetricsRegistry::new();
        let mut trace = trace_path.map(|p| {
            rtic_obs::TraceWriter::to_file(p)
                .unwrap_or_else(|e| panic!("cannot open trace file `{p}`: {e}"))
        });
        let m = {
            let mut obs = rtic_obs::MultiObserver::new().with(&mut registry);
            if let Some(t) = trace.as_mut() {
                obs.push(t);
            }
            experiments::telemetry_run(&scale, &mut obs)
        };
        println!(
            "telemetry run [{}]: {} steps, {} violation(s), tail {:.1} us/step",
            m.checker, m.steps, m.violations, m.tail_step_us
        );
        if let Some(p) = metrics_path {
            rtic_resilience::write_atomic(
                std::path::Path::new(p),
                registry.render_json().as_bytes(),
            )
            .unwrap_or_else(|e| panic!("cannot write metrics `{p}`: {e}"));
            println!("metrics written to {p}");
        }
        if let Some(t) = trace {
            let lines = t.lines_written();
            t.finish().expect("trace flush");
            println!(
                "trace written to {} ({lines} events)",
                trace_path.expect("trace implies trace_path")
            );
        }
        return;
    }
    println!(
        "rtic experiments — {} scale\n",
        if quick { "quick" } else { "full" }
    );
    #[allow(clippy::type_complexity)]
    let tables: Vec<(&str, fn(&Scale) -> rtic_bench::table::Table)> = vec![
        ("t1", experiments::t1_space),
        ("f1", experiments::f1_step_latency),
        ("t2", experiments::t2_bound_space),
        ("f2", experiments::f2_bound_time),
        ("t3a", experiments::t3a_update_scaling),
        ("t3b", experiments::t3b_state_scaling),
        ("t4", experiments::t4_detection),
        ("f3", experiments::f3_throughput),
        ("t5", experiments::t5_active_overhead),
        ("t6", experiments::t6_ablation),
        ("t7", experiments::t7_adom_bound),
        ("t8", experiments::t8_constraint_scaling),
    ];
    for (id, f) in tables {
        if only.as_deref().is_some_and(|o| o != id) {
            continue;
        }
        println!("{}", f(&scale).render());
    }
}
