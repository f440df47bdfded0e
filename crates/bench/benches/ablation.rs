//! T6 — the stamp view: `once[0,b]` keeps a key's newest end, `once[1,b]`
//! every covered state of the last `b` ticks, over one workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtic_core::{Checker, IncrementalChecker};
use rtic_temporal::parser::parse_constraint;
use rtic_workload::RandomWorkload;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t6_ablation");
    group.sample_size(10);
    for b_bound in [8u64, 64] {
        let g = RandomWorkload {
            steps: 150,
            bound: b_bound,
            ..Default::default()
        }
        .generate();
        for lo in [0u64, 1] {
            let text = format!("deny hit: base(k) && once[{lo},{b_bound}] ev(k)");
            let constraint = parse_constraint(&text).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("once[{lo},b]"), b_bound),
                &b_bound,
                |bch, _| {
                    bch.iter(|| {
                        let mut ck =
                            IncrementalChecker::new(constraint.clone(), Arc::clone(&g.catalog))
                                .unwrap();
                        for tr in &g.transitions {
                            ck.step(tr.time, &tr.update).unwrap();
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
