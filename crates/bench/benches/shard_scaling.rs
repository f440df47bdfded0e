//! T9 — step latency of the entity-key sharded data plane vs the
//! unsharded fleet as the number of distinct entities grows: sharding
//! should keep per-step cost tied to the touched shard, not the total
//! population, while staying report-identical to the unsharded run.
//!
//! `RTIC_BENCH_SMOKE=1` shrinks the sweep to one small key count — used
//! by CI to keep the bench compiling and running without paying for a
//! full measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtic_bench::experiments::{shard_catalog, shard_constraint, shard_stream};
use rtic_core::ConstraintSet;
use std::sync::Arc;

const WARMUP_STEPS: usize = 128;

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("RTIC_BENCH_SMOKE").is_ok();
    let key_counts: &[usize] = if smoke { &[8] } else { &[8, 64, 256] };
    let mut group = c.benchmark_group("t9_shard_scaling");
    group.sample_size(10);
    for &keys in key_counts {
        let catalog = shard_catalog();
        let constraint = shard_constraint();
        let warmup = shard_stream(keys, WARMUP_STEPS, 42);
        // The steady-state updates the warmed-up sets keep replaying;
        // times keep advancing so windows stay live.
        let steady = shard_stream(keys, 96, 43);

        for (label, sharded) in [("unsharded", false), ("sharded", true)] {
            group.bench_with_input(BenchmarkId::new(label, keys), &keys, |b, _| {
                let mut set = ConstraintSet::new([constraint.clone()], Arc::clone(&catalog))
                    .map_err(|(_, e)| e)
                    .unwrap()
                    .with_sharding(sharded);
                for tr in &warmup {
                    set.step(tr.time, &tr.update).unwrap();
                }
                let mut t = WARMUP_STEPS as u64;
                let mut i = 0usize;
                b.iter(|| {
                    t += 1;
                    let tr = &steady[i];
                    i = (i + 1) % steady.len();
                    set.step(t.into(), &tr.update).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
