//! T8 — fleet step latency vs #constraints at a fixed relevance fraction:
//! a [`ConstraintSet`] with relevance dispatch should stay near-flat as
//! untouched constraints sleep until their next window deadline, while
//! `n` independent checkers step every constraint on every update (they
//! sleep too, but pay for `n` database copies). Runs the populated fleet
//! shape (`once[2,8]` over a loaded `audit`, live violations), where an
//! engine's sleep is bounded by a deadline, not the vacuous one.
//!
//! `RTIC_BENCH_SMOKE=1` shrinks the sweep to one tiny fleet — used by CI
//! to keep the bench compiling and running without paying for a full
//! measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtic_bench::experiments::{fleet_catalog, fleet_constraints, fleet_stream, FLEET_AUDITED};
use rtic_core::{Checker, ConstraintSet, IncrementalChecker};
use rtic_relation::Update;
use std::sync::Arc;

const WARMUP_STEPS: usize = 64;

/// The rotating updates the warmed-up engines keep stepping through: the
/// stream's second period (the first opens by loading `audit`).
fn steady_updates(n: usize, affected: usize) -> Vec<Update> {
    fleet_stream(n, affected, 12, FLEET_AUDITED)
        .into_iter()
        .skip(6)
        .map(|tr| tr.update)
        .collect()
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("RTIC_BENCH_SMOKE").is_ok();
    let fleets: &[usize] = if smoke { &[4] } else { &[4, 16, 64] };
    let mut group = c.benchmark_group("t8_constraint_scaling");
    group.sample_size(10);
    for &n in fleets {
        let affected = (n / 4).max(1);
        let cat = fleet_catalog(n);
        let constraints = fleet_constraints(n, FLEET_AUDITED);
        let warmup = fleet_stream(n, affected, WARMUP_STEPS, FLEET_AUDITED);
        let updates = steady_updates(n, affected);

        group.bench_with_input(BenchmarkId::new("independent", n), &n, |b, _| {
            let mut singles: Vec<IncrementalChecker> = constraints
                .iter()
                .map(|c| IncrementalChecker::new(c.clone(), Arc::clone(&cat)).unwrap())
                .collect();
            for tr in &warmup {
                for s in &mut singles {
                    s.step(tr.time, &tr.update).unwrap();
                }
            }
            let mut t = WARMUP_STEPS as u64;
            let mut i = 0usize;
            b.iter(|| {
                t += 1;
                i = (i + 1) % updates.len();
                for s in &mut singles {
                    s.step(t.into(), &updates[i]).unwrap();
                }
            })
        });

        group.bench_with_input(BenchmarkId::new("set_dispatch", n), &n, |b, _| {
            let mut set = ConstraintSet::new(constraints.iter().cloned(), Arc::clone(&cat))
                .map_err(|(_, e)| e)
                .unwrap();
            for tr in &warmup {
                set.step(tr.time, &tr.update).unwrap();
            }
            let mut t = WARMUP_STEPS as u64;
            let mut i = 0usize;
            b.iter(|| {
                t += 1;
                i = (i + 1) % updates.len();
                set.step(t.into(), &updates[i]).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
