//! T9 — compiled evaluation plans vs the interpreting evaluator, on the
//! paper's unbounded motivating constraint (the F1 workload), measured the
//! same way as F1: one step taken after an n-length warmup. Plan-once/
//! execute-many stepping amortizes conjunct ordering, join column maps,
//! and projection vectors across steps, reads a relation's own rows for an
//! atom over its columns in order, memoizes other database-pure relation
//! scans by relation version (refreshing them in place from the net
//! delta), advances monotone probe partitions from row deltas, and
//! skips idempotent window re-recording on unchanged extensions — so
//! steady-state planned stepping beats re-interpreting the formula tree on
//! every transition.
//!
//! `RTIC_BENCH_SMOKE=1` shrinks the sweep to one short history — used by
//! CI to keep the bench compiling and running without paying for a full
//! measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtic_core::{Checker, EncodingOptions, IncrementalChecker};
use rtic_temporal::parser::parse_constraint;
use rtic_workload::Reservations;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("RTIC_BENCH_SMOKE").is_ok();
    let sweep: &[usize] = if smoke { &[50] } else { &[200, 800] };
    let mut group = c.benchmark_group("t9_eval_plan");
    group.sample_size(10);
    let constraint = parse_constraint(
        "deny unconfirmed_ever: reserved(p, f) && once[2,*] reserved_at(p, f) \
         && !once confirmed(p, f)",
    )
    .unwrap();
    for &n in sweep {
        let g = Reservations {
            steps: n,
            ..Default::default()
        }
        .generate();
        let options = [
            ("planned", EncodingOptions::default()),
            (
                "interpreted",
                EncodingOptions {
                    interpret_eval: true,
                    ..Default::default()
                },
            ),
        ];
        for (name, opts) in options {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                let mut ck = IncrementalChecker::with_options(
                    constraint.clone(),
                    Arc::clone(&g.catalog),
                    opts,
                )
                .unwrap();
                for tr in &g.transitions {
                    ck.step(tr.time, &tr.update).unwrap();
                }
                let mut t = g.transitions.last().unwrap().time.0;
                b.iter(|| {
                    t += 1;
                    ck.step(t.into(), &rtic_relation::Update::new()).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
