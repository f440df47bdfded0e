//! Prints the experiment tables as markdown, each with the relationships it
//! checks, and exits 1 naming every relationship that did not hold. See
//! EXPERIMENTS.md for the mapping to the paper's claims.

use rtic_bench::experiments::{self, Scale, TABLES};

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
        let ids: Vec<&str> = TABLES.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "usage: experiments [--quick] [--table {}]\n\
             \x20                  [--metrics FILE] [--trace FILE]",
            ids.join("|")
        );
        eprintln!(
            "--metrics/--trace run the instrumented telemetry pass (motivating\n\
             constraint, reservations workload) and write the observer output.\n\
             Without them every table is printed with a `holds:` or `BROKEN:`\n\
             line per relationship; any BROKEN one makes the exit status 1."
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
        "# rtic experiments — {} scale\n",
        if quick { "quick" } else { "full" }
    );
    let mut broken = Vec::new();
    for (id, table) in TABLES {
        if only.as_deref().is_some_and(|o| o != id) {
            continue;
        }
        let table = table(&scale);
        println!("{}", table.render());
        broken.extend(table.broken().map(|c| format!("{}: {}", table.id, c.claim)));
    }
    if !broken.is_empty() {
        eprintln!("experiments: {} relationship(s) broken", broken.len());
        for b in &broken {
            eprintln!("  BROKEN {b}");
        }
        std::process::exit(1);
    }
}
