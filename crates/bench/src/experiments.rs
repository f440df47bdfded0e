//! One function per table/figure of EXPERIMENTS.md, each checking its claim.
//!
//! Each function builds its workload, runs the relevant checkers with
//! instrumentation, renders a [`Table`] and states the table's claim as
//! relationships over its own readings ([`Table::checks`]): counts (space
//! units, keys, stamps, detections) exactly, step times one way. Every timed
//! arm of a table runs once per pass ([`passes`]); a ratio is read within a
//! pass, and its median over passes is checked against a threshold at least
//! 1.25× beyond the worst of sixty `--quick` readings (EXPERIMENTS.md). The
//! binary `cargo run -p rtic-bench --release --bin experiments` prints every
//! table of [`TABLES`] and exits 1 when a relationship is broken.

use std::sync::Arc;
use std::time::Instant;

use rtic_active::ActiveChecker;
use rtic_core::observe::step_all;
use rtic_core::{
    checkpoint, BackendId, Checker, CompiledConstraint, ConstraintSet, DispatchStats,
    EncodingOptions, IncrementalChecker, NaiveChecker, NopObserver,
};
use rtic_history::Transition;
use rtic_relation::{tuple, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{Constraint, TimePoint};
use rtic_workload::ScenarioParams;
use rtic_workload::{library, Generated, Library, Monitor, RandomWorkload, Reservations};

use crate::measure::{arm_medians, median, median_over, passes, run_instrumented, RunMeasurement};
use crate::table::Gauge::{Count, Timing};
use crate::table::{fmt_micros, Check, Table};

/// One experiment: measures its workload at a scale and checks its table.
pub type Experiment = fn(&Scale) -> Table;

/// Every experiment, in print order: `(id for --table, experiment)`.
pub const TABLES: [(&str, Experiment); 17] = [
    ("t1", t1_space),
    ("f1", f1_step_latency),
    ("t2", t2_bound_space),
    ("f2", f2_bound_time),
    ("t3a", t3a_update_scaling),
    ("t3b", t3b_state_scaling),
    ("t4", t4_detection),
    ("f3", f3_throughput),
    ("f4", f4_domain_throughput),
    ("t5", t5_active_overhead),
    ("t6", t6_ablation),
    ("t7", t7_adom_bound),
    ("t8", t8_constraint_scaling),
    ("t9", t9_eval_plan),
    ("t10", t10_checkpoint),
    ("t11", t11_scenarios),
    ("o1", o1_observation),
];

/// Sweep sizes: `quick` for CI-speed runs, `full` for the recorded tables.
#[derive(Clone, Debug)]
pub struct Scale {
    /// `"quick"` or `"full"`: stamped on a `--json` document, and a
    /// baseline of another scale is refused.
    pub name: &'static str,
    /// History lengths for T1/F1/T5/T7/T9.
    pub history_lengths: Vec<usize>,
    /// Largest history the naive checker is asked to process for
    /// *unbounded* constraints (quadratic cost); longer rows print `—`.
    pub naive_cap: usize,
    /// Metric bounds for T2/F2/T6.
    pub bounds: Vec<u64>,
    /// Updates-per-step sizes for T3a.
    pub update_sizes: Vec<usize>,
    /// Resident rows for T3b.
    pub resident_sizes: Vec<usize>,
    /// History length for throughput/overhead runs (F3/T5/O1).
    pub run_length: usize,
    /// Fleet sizes (#constraints) for T8.
    pub fleet_sizes: Vec<usize>,
    /// Entity domains for F4 (each stream runs `F4_STEPS`).
    pub domain_sizes: Vec<usize>,
    /// `(entities, steps)` of every T11 scenario.
    pub scenario_shape: (usize, usize),
}

impl Scale {
    /// The full published sweep.
    pub fn full() -> Scale {
        Scale {
            name: "full",
            history_lengths: vec![250, 500, 1000, 2000, 4000, 8000],
            naive_cap: 2000,
            bounds: vec![4, 8, 16, 32, 64, 128],
            update_sizes: vec![4, 8, 16, 32, 64, 128],
            resident_sizes: vec![5_000, 10_000, 20_000],
            run_length: 600,
            fleet_sizes: vec![4, 16, 64],
            domain_sizes: vec![1_000, 10_000, 100_000],
            scenario_shape: (100_000, 500),
        }
    }

    /// A seconds-scale smoke sweep.
    pub fn quick() -> Scale {
        Scale {
            name: "quick",
            history_lengths: vec![100, 200, 400],
            naive_cap: 400,
            bounds: vec![4, 16, 64],
            update_sizes: vec![4, 16, 64],
            resident_sizes: vec![1_000, 4_000],
            run_length: 150,
            fleet_sizes: vec![4, 16],
            domain_sizes: vec![1_000, 10_000],
            scenario_shape: (1_000, 200),
        }
    }
}

/// Steps of every F4 stream: its entities arrive spread over them.
const F4_STEPS: usize = 400;

/// Largest over smallest reading; NaN when there is none.
fn spread(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NAN, f64::max);
    max / xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Last over first reading; NaN when there is none.
fn growth(xs: &[f64]) -> f64 {
    xs.last().zip(xs.first()).map_or(f64::NAN, |(l, f)| l / f)
}

/// The median over passes of each pass's [`spread`].
fn spread_over(by_pass: &[Vec<f64>]) -> f64 {
    median_over(by_pass, |p| spread(p))
}

/// The median over passes of each pass's [`growth`].
fn growth_over(by_pass: &[Vec<f64>]) -> f64 {
    median_over(by_pass, |p| growth(p))
}

/// Each item's `stat` as its median over passes, the worst by `pick` (NaN
/// when there is none): a ratio is read within a pass, then the worst ratio.
fn worst<T>(by_pass: &[Vec<T>], stat: impl Fn(&T) -> f64, pick: fn(f64, f64) -> f64) -> f64 {
    let items = by_pass.first().map_or(0, Vec::len);
    let median = |i: usize| median_over(by_pass, |p| stat(&p[i]));
    (0..items).map(median).fold(f64::NAN, pick)
}

/// `f` of every `x`.
fn each<X, T>(xs: &[X], f: impl Fn(&X) -> T) -> Vec<T> {
    xs.iter().map(f).collect()
}

/// Checker runs in [`passes`]: arm `col * gs.len() + i` steps column
/// `col`'s checker, built by `column`, through `gs[i]`.
fn run_passes(
    gs: &[Generated],
    arms: usize,
    column: impl Fn(usize, &Generated) -> Box<dyn Checker>,
) -> Vec<Vec<RunMeasurement>> {
    passes(arms, |arm| {
        let g = &gs[arm % gs.len()];
        run_instrumented(column(arm / gs.len(), g).as_mut(), &g.transitions, 0)
    })
}

/// Every run's tail step (µs), by pass.
fn tails(runs: &[Vec<RunMeasurement>]) -> Vec<Vec<f64>> {
    each(runs, |p| each(p, |m| m.tail_step_us))
}

fn reservations_at(n: usize) -> Generated {
    Reservations {
        steps: n,
        new_per_step: 2,
        deadline: 5,
        violation_rate: 0.02,
        seed: 42,
    }
    .generate()
}

/// The paper's *motivating* (unbounded-interval) constraint over the
/// reservations schema — the one that forces naive history scans.
fn motivating_constraint() -> Constraint {
    parse_constraint(
        "deny unconfirmed_ever: reserved(p, f) && once[2,*] reserved_at(p, f) \
         && !once confirmed(p, f)",
    )
    .expect("parses")
}

fn inc(c: &Constraint, g: &Generated) -> IncrementalChecker {
    inc_with(c, g, EncodingOptions::default())
}

/// The incremental encoding under `options`; [`interpreted`] switches the
/// compiled-plan executor off, which isolates what the plan layer buys.
fn inc_with(c: &Constraint, g: &Generated, options: EncodingOptions) -> IncrementalChecker {
    IncrementalChecker::with_options(c.clone(), Arc::clone(&g.catalog), options).expect("compiles")
}

/// Same maintenance, but every per-step evaluation re-walks the formula tree.
fn interpreted() -> EncodingOptions {
    EncodingOptions {
        interpret_eval: true,
        ..EncodingOptions::default()
    }
}

fn compiled(c: &Constraint, g: &Generated) -> CompiledConstraint {
    CompiledConstraint::compile(c.clone(), Arc::clone(&g.catalog)).expect("compiles")
}

fn nai(c: &Constraint, g: &Generated) -> NaiveChecker {
    NaiveChecker::from_compiled(compiled(c, g))
}

fn act(c: &Constraint, g: &Generated) -> ActiveChecker {
    ActiveChecker::new(c.clone(), Arc::clone(&g.catalog)).expect("compiles")
}

/// Constructs any backend from the shared [`BackendId`] enumeration, so F3
/// derives its columns from `BackendId::ALL`.
fn backend_checker(b: BackendId, c: &Constraint, g: &Generated) -> Box<dyn Checker> {
    match b {
        BackendId::Incremental => Box::new(inc(c, g)),
        BackendId::Naive => Box::new(nai(c, g)),
        BackendId::Windowed => Box::new(NaiveChecker::windowed(compiled(c, g))),
        BackendId::Active => Box::new(act(c, g)),
    }
}

/// Column `col` of F2 and T3a: incremental, windowed, naive.
fn inc_win_naive(col: usize, g: &Generated) -> Box<dyn Checker> {
    use BackendId::{Incremental, Naive, Windowed};
    backend_checker([Incremental, Windowed, Naive][col], &g.constraints[0], g)
}

/// T1 — retained space vs. history length, bounded constraint.
pub fn t1_space(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T1",
        "retained space vs history length (bounded constraint; units = aux keys + timestamps + stored tuples)",
        &["n", "incremental", "windowed", "naive", "naive/incremental"],
    );
    t.note("claim: encoding space is independent of history length; naive grows linearly");
    let (mut inc_units, mut naive_units) = (Vec::new(), Vec::new());
    for &n in &scale.history_lengths {
        let g = reservations_at(n);
        let c = &g.constraints[0];
        let mi = run_instrumented(&mut inc(c, &g), &g.transitions, 16);
        let mw = run_instrumented(&mut *inc_win_naive(1, &g), &g.transitions, 16);
        let mn = run_instrumented(&mut nai(c, &g), &g.transitions, 16);
        assert_eq!(mi.violations, mn.violations, "checkers must agree");
        inc_units.push(mi.max_retained_units as f64);
        naive_units.push(mn.max_retained_units as f64);
        t.row(vec![
            n.to_string(),
            mi.max_retained_units.to_string(),
            mw.max_retained_units.to_string(),
            mn.max_retained_units.to_string(),
            format!(
                "{:.1}x",
                mn.max_retained_units as f64 / mi.max_retained_units.max(1) as f64
            ),
        ]);
    }
    let ns: Vec<f64> = scale.history_lengths.iter().map(|&n| n as f64).collect();
    t.checks = t1_checks(&ns, &inc_units, &naive_units);
    t
}

/// T1: incremental units flat; naive units grow at least half as fast as n.
fn t1_checks(ns: &[f64], inc: &[f64], naive: &[f64]) -> Vec<Check> {
    vec![
        Check::at_most(Count, "incremental units max/min over n", spread(inc), 1.1),
        Check::at_least(Count, "naive units growth", growth(naive), growth(ns) / 2.0),
    ]
}

/// F1 — per-step latency vs. history length, both constraint classes.
pub fn f1_step_latency(scale: &Scale) -> Table {
    let mut t = Table::new(
        "F1",
        "tail per-step latency vs history length",
        &[
            "n",
            "inc (bounded)",
            "naive (bounded)",
            "inc (unbounded)",
            "inc interp (unbounded)",
            "naive (unbounded)",
        ],
    );
    t.note("claim: encoding step time does not grow with history length;");
    t.note("naive re-evaluation over the full history does (visible on the unbounded constraint);");
    t.note("'inc interp' disables the compiled-plan executor — the gap to 'inc' is the plan layer");
    let unbounded = motivating_constraint();
    let gs = each(&scale.history_lengths, |&n| reservations_at(n));
    let len = gs.len();
    let capped = (scale.history_lengths).partition_point(|&n| n <= scale.naive_cap);
    // Four columns over every n, then naive (unbounded) up to its cap.
    let runs = run_passes(&gs, 4 * len + capped, |col, g| match col {
        0 => Box::new(inc(&g.constraints[0], g)),
        1 => Box::new(nai(&g.constraints[0], g)),
        2 => Box::new(inc(&unbounded, g)),
        3 => Box::new(inc_with(&unbounded, g, interpreted())),
        _ => Box::new(nai(&unbounded, g)),
    });
    let found = |col: usize| runs[0][col * len..][..len].iter().map(|m| m.violations);
    assert!(found(2).eq(found(3)), "executors must agree");
    let by_pass = tails(&runs);
    let us = arm_medians(&by_pass);
    for (i, n) in scale.history_lengths.iter().enumerate() {
        let mut row = vec![n.to_string()];
        row.extend(us.iter().skip(i).step_by(len).map(|&us| fmt_micros(us)));
        row.resize(6, "—".into());
        t.row(row);
    }
    // Column `c`'s steps by `n`, by pass (naive (unbounded) stops at its cap).
    let col = |c: usize| {
        each(&by_pass, |p| {
            p.iter().skip(c * len).take(len).copied().collect()
        })
    };
    t.checks = f1_checks(&col(0), &col(2), &col(4));
    t
}

/// F1, over each pass's steps by `n`: the incremental step is flat on
/// both constraints; naive on the unbounded one grows.
fn f1_checks(bounded: &[Vec<f64>], unbounded: &[Vec<f64>], naive: &[Vec<f64>]) -> Vec<Check> {
    let flat = |what, by_pass| Check::at_most(Timing, what, spread_over(by_pass), 2.5);
    let grows = growth_over(naive);
    vec![
        flat("inc (bounded) step max/min over n", bounded),
        flat("inc (unbounded) step max/min over n", unbounded),
        Check::at_least(Timing, "naive (unbounded) step growth", grows, 2.0),
    ]
}

/// T2 — aux space vs. metric bound for the general (two-sided) window.
pub fn t2_bound_space(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T2",
        "aux timestamps vs metric bound b for once[1,b] (one run relation, stamps as its view)",
        &[
            "b",
            "max aux timestamps",
            "live keys",
            "ts per key",
            "paper bound b+1",
        ],
    );
    t.note("claim: per-key timestamps stay ≤ b+1 on an integer clock");
    let mut of_bound = Vec::new();
    for &b in &scale.bounds {
        let g = RandomWorkload {
            steps: scale.run_length,
            domain: 16,
            updates_per_step: 8,
            bound: b,
            seed: 42,
            ..Default::default()
        }
        .generate();
        let c = parse_constraint(&format!("deny hit: base(k) && once[1,{b}] ev(k)"))
            .expect("template parses");
        let mut checker = inc(&c, &g);
        let mut max_ts = 0usize;
        let mut keys_at_max = 1usize;
        for tr in &g.transitions {
            checker
                .step(tr.time, &tr.update)
                .expect("generated stream is monotone");
            let s = checker.space();
            if s.aux_timestamps > max_ts {
                max_ts = s.aux_timestamps;
                keys_at_max = s.aux_keys.max(1);
            }
        }
        let per_key = max_ts as f64 / keys_at_max as f64;
        of_bound.push(per_key / (b + 1) as f64);
        t.row(vec![
            b.to_string(),
            max_ts.to_string(),
            keys_at_max.to_string(),
            format!("{per_key:.1}"),
            (b + 1).to_string(),
        ]);
    }
    t.checks = t2_checks(&of_bound);
    t
}

/// T2: timestamps per live key over `b + 1`, at every `b`.
fn t2_checks(of_bound: &[f64]) -> Vec<Check> {
    let worst = of_bound.iter().copied().fold(0.0, f64::max);
    vec![Check::at_most(
        Count,
        "ts per key / (b+1), worst b",
        worst,
        1.0,
    )]
}

/// F2 — per-step time vs. metric bound (deadline), three checkers.
pub fn f2_bound_time(scale: &Scale) -> Table {
    let mut t = Table::new(
        "F2",
        "tail per-step latency vs deadline d (reservations, bounded constraint)",
        &["d", "incremental", "windowed", "naive"],
    );
    t.note("claim: windowed degrades with the bound (window holds O(d) states);");
    t.note("the encoding pays only for what changes");
    let gs = each(&scale.bounds, |&d| {
        Reservations {
            steps: scale.run_length,
            new_per_step: 2,
            deadline: d.max(2),
            violation_rate: 0.02,
            seed: 42,
        }
        .generate()
    });
    let len = gs.len();
    let by_pass = tails(&run_passes(&gs, 3 * len, inc_win_naive));
    let us = arm_medians(&by_pass);
    for (i, d) in scale.bounds.iter().enumerate() {
        let mut row = vec![d.to_string()];
        row.extend(us.iter().skip(i).step_by(len).map(|&us| fmt_micros(us)));
        t.row(row);
    }
    let win_over_inc = |p: &Vec<f64>| (0..len).map(|i| p[len + i] / p[i]).collect::<Vec<_>>();
    t.checks = f2_checks(&each(&by_pass, win_over_inc));
    t
}

/// F2, over each pass's windowed/incremental by `d`: it grows from the
/// smallest bound to the largest.
fn f2_checks(win_over_inc: &[Vec<f64>]) -> Vec<Check> {
    let what = "windowed/incremental growth over d";
    let grows = growth_over(win_over_inc);
    vec![Check::at_least(Timing, what, grows, 4.0)]
}

/// T3a — scaling in update size at a fixed active domain.
pub fn t3a_update_scaling(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T3a",
        "tail per-step latency and aux keys vs update size u (random workload, fixed domain)",
        &["u", "inc step", "win step", "naive step", "inc aux keys"],
    );
    t.note("claim: encoding step cost scales with the update, not the history");
    let domain = 4 * scale.update_sizes.iter().copied().max().unwrap_or(1);
    let gs = each(&scale.update_sizes, |&u| {
        RandomWorkload {
            steps: scale.run_length,
            domain,
            updates_per_step: u,
            bound: 8,
            seed: 42,
            ..Default::default()
        }
        .generate()
    });
    let len = gs.len();
    let runs = run_passes(&gs, 3 * len, inc_win_naive);
    let by_pass = tails(&runs);
    let us = arm_medians(&by_pass);
    for (i, u) in scale.update_sizes.iter().enumerate() {
        let mut row = vec![u.to_string()];
        row.extend(us.iter().skip(i).step_by(len).map(|&us| fmt_micros(us)));
        row.push(runs[0][i].final_space.aux_keys.to_string());
        t.row(row);
    }
    let sizes: Vec<f64> = scale.update_sizes.iter().map(|&u| u as f64).collect();
    t.checks = t3a_checks(&sizes, &each(&by_pass, |p| p[..len].to_vec()));
    t
}

/// T3a, over each pass's incremental steps by `u`: the step grows no
/// faster than the update.
fn t3a_checks(sizes: &[f64], steps: &[Vec<f64>]) -> Vec<Check> {
    let per_update = growth_over(steps) / growth(sizes);
    let what = "inc step growth / u growth";
    vec![Check::at_most(Timing, what, per_update, 1.0)]
}

/// T3b's stream over `resident` loaded rows: update 0 loads
/// the table, every later one reserves 8 fresh keys, confirms the
/// previous update's but one, and cancels that straggler three updates on.
fn resident_update(step: usize, resident: usize) -> Update {
    let row = |k: usize| tuple![format!("p{k}").as_str(), k as i64];
    let mut u = Update::new();
    if step == 0 {
        for k in 0..resident {
            u.insert("reserved", row(k));
            u.insert("confirmed", row(k));
        }
        return u;
    }
    let key = |s: usize, j: usize| resident + s * 8 + j;
    for j in 0..8 {
        u.insert("reserved", row(key(step, j)));
        if step >= 2 && j > 0 {
            u.insert("confirmed", row(key(step - 1, j)));
        }
    }
    if step >= 4 {
        u.delete("reserved", row(key(step - 3, 0)));
    }
    u
}

/// T3b's shapes (a)–(e): the temporal conjuncts each adds to
/// `reserved(p, f)`.
const RESIDENT_SHAPES: [(&str, &str); 5] = [
    ("a", "once[2,*] reserved(p, f) && !once confirmed(p, f)"),
    (
        "b",
        "!once[0,2] confirmed(p, f) && once[2,*] reserved(p, f)",
    ),
    (
        "c",
        "once[2,50] reserved(p, f) && !once[0,50] confirmed(p, f)",
    ),
    ("d", "hist[0,5] reserved(p, f) && !once confirmed(p, f)"),
    (
        "e",
        "(reserved(p, f) since[3,*] reserved(p, f)) && !once confirmed(p, f)",
    ),
];

/// Median per-step time (µs) of `shape` over the resident stream, after
/// the load has aged into every window (the first 8 steps) — the median,
/// so a preempted step on a shared host does not move the row.
fn resident_step_us(shape: &str, resident: usize, steps: usize) -> f64 {
    let catalog = reservations_catalog();
    let mut checker = IncrementalChecker::new(shape_constraint(shape), catalog).expect("compiles");
    let updates: Vec<Update> = (0..steps).map(|s| resident_update(s, resident)).collect();
    let mut timed = Vec::with_capacity(steps);
    for (s, u) in updates.iter().enumerate() {
        let start = Instant::now();
        checker.step(TimePoint(s as u64 + 1), u).expect("steps");
        if s >= 8 {
            timed.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&mut timed)
}

/// T3b — scaling in resident state at a fixed update: shapes (a)–(e),
/// per step.
pub fn t3b_state_scaling(scale: &Scale) -> Table {
    let sizes = &scale.resident_sizes;
    let mut cols: Vec<String> = vec!["shape".into()];
    cols.extend(sizes.iter().map(|n| format!("step @ {n} rows")));
    cols.extend(["vs (a)".into(), "growth".into()]);
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "T3b",
        "median per-step latency vs resident rows, 16-tuple updates (the resident stream)",
        &cols,
    );
    t.note("claim: a step costs what the update touches, for bounded windows too");
    let steps = (scale.run_length / 2).max(40);
    let w = sizes.len();
    // Arm `s * w + i` steps shape `s` over table size `i`.
    let by_pass = passes(RESIDENT_SHAPES.len() * w, |arm| {
        resident_step_us(RESIDENT_SHAPES[arm / w].1, sizes[arm % w], steps)
    });
    let shapes = |p: &Vec<f64>| p.chunks(w).map(<[f64]>::to_vec).collect::<Vec<_>>();
    let rows = shapes(&arm_medians(&by_pass));
    let base = rows.first().and_then(|r| r.last().copied());
    for ((id, _), times) in RESIDENT_SHAPES.iter().zip(&rows) {
        let mut row = vec![format!("({id})")];
        row.extend(times.iter().map(|&us| fmt_micros(us)));
        let vs_a = times.last().zip(base).map(|(l, a)| l / a);
        row.push(vs_a.map_or("—".into(), |r| format!("{r:.2}×")));
        row.push(format!("{:.2}×", growth(times)));
        t.row(row);
    }
    t.checks = t3b_checks(&each(&by_pass, shapes));
    t
}

/// T3b, over each pass's shapes' steps by table size: at the largest
/// table every shape is within a constant of shape (a), and no shape grows
/// with it.
fn t3b_checks(by_pass: &[Vec<Vec<f64>>]) -> Vec<Check> {
    let last = |r: &Vec<f64>| r.last().copied().unwrap_or(f64::NAN);
    let vs_a = each(by_pass, |p| each(p, |r| last(r) / last(&p[0])));
    let vs_a = worst(&vs_a, |&r| r, f64::max);
    let grows = worst(by_pass, |r| growth(r), f64::max);
    vec![
        Check::at_most(Timing, "worst shape vs (a), largest table", vs_a, 2.0),
        Check::at_most(Timing, "worst shape's growth over table size", grows, 2.5),
    ]
}

/// T4 — detection exactness on the three domain workloads.
pub fn t4_detection(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T4",
        "injected violations vs detections (incremental checker)",
        &[
            "workload",
            "constraint",
            "injected",
            "found at deadline",
            "exact",
        ],
    );
    t.note("claim: every violation is reported at the earliest state where it is definite");
    let n = scale.run_length;
    let res = Reservations {
        steps: n,
        violation_rate: 0.08,
        ..Default::default()
    }
    .generate();
    let lib = Library {
        steps: n,
        violation_rate: 0.08,
        ..Default::default()
    }
    .generate();
    let mon = Monitor {
        steps: n,
        violation_rate: 0.2,
        spike_rate: 0.02,
        ..Default::default()
    }
    .generate();
    let mut counts = Vec::new();
    for g in [&res, &lib, &mon] {
        for c in &g.constraints {
            let relevant: Vec<_> = g
                .expected
                .iter()
                .filter(|e| e.constraint == c.name)
                .collect();
            let mut checker = inc(c, g);
            let reports: Vec<_> = g
                .transitions
                .iter()
                .map(|tr| {
                    checker
                        .step(tr.time, &tr.update)
                        .expect("generated stream is monotone")
                })
                .collect();
            let found = relevant
                .iter()
                .filter(|e| reports.iter().any(|r| e.found_in(r)))
                .count();
            counts.push((relevant.len(), found));
            t.row(vec![
                match g.constraints[0].name.as_str() {
                    "unconfirmed" => "reservations".into(),
                    "overdue" => "library".into(),
                    _ => "monitor".into(),
                },
                c.name.to_string(),
                relevant.len().to_string(),
                found.to_string(),
                if found == relevant.len() { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    t.checks = t4_checks(&counts);
    t
}

/// T4, over `(injected, found at deadline)` per row: they agree on every row.
fn t4_checks(counts: &[(usize, usize)]) -> Vec<Check> {
    let off = counts.iter().filter(|(i, f)| i != f).count() as f64;
    let what = "rows where found ≠ injected";
    vec![Check::at_most(Count, what, off, 0.0)]
}

/// F3 — steady-state throughput across workloads and checkers.
pub fn f3_throughput(scale: &Scale) -> Table {
    let mut columns = vec!["workload"];
    columns.extend(BackendId::ALL.iter().map(|b| b.name()));
    let mut t = Table::new(
        "F3",
        "steady-state throughput (states/second, tail median)",
        &columns,
    );
    t.note("claim: the encoding wins end to end; an unbounded horizon breaks the baselines");
    let n = scale.run_length;
    let names = ["reservations", "library", "monitor"];
    let gs = [
        Reservations {
            steps: n,
            ..Default::default()
        }
        .generate(),
        Library {
            steps: n,
            ..Default::default()
        }
        .generate(),
        Monitor {
            steps: n,
            ..Default::default()
        }
        .generate(),
    ];
    let len = gs.len();
    let by_pass = tails(&run_passes(&gs, BackendId::ALL.len() * len, |col, g| {
        backend_checker(BackendId::ALL[col], &g.constraints[0], g)
    }));
    let (us, per_second) = (arm_medians(&by_pass), |us: &f64| format!("{:.0}", 1e6 / us));
    for (i, name) in names.iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(us.iter().skip(i).step_by(len).map(per_second));
        t.row(row);
    }
    // On library (workload 1), incremental/windowed throughput is
    // windowed's step over incremental's (`ALL` is in declaration order).
    let at = |b: BackendId| b as usize * len + 1;
    let (inc, win) = (at(BackendId::Incremental), at(BackendId::Windowed));
    t.checks = f3_checks(&each(&by_pass, |p| p[win] / p[inc]));
    t
}

/// F3, over each pass's reading on `library`: on its unbounded
/// `since[D,*]` the encoding beats windowed by an order of magnitude.
fn f3_checks(library_inc_over_win: &[f64]) -> Vec<Check> {
    let what = "incremental/windowed throughput on library";
    let ratio = median_over(library_inc_over_win, |&r| r);
    vec![Check::at_least(Timing, what, ratio, 10.0)]
}

/// T5 — trigger-engine overhead vs. the direct encoding.
pub fn t5_active_overhead(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T5",
        "active (trigger-table) realization vs direct encoding (reservations)",
        &[
            "n",
            "direct step",
            "active step",
            "overhead",
            "direct units",
            "active units",
        ],
    );
    t.note("claim: the encoding is realizable as ECA rules over ordinary tables");
    t.note("at a constant-factor cost, with the same bounded table sizes");
    let mut units = Vec::new();
    for &n in &scale.history_lengths {
        if n > 2 * scale.naive_cap {
            continue;
        }
        let g = reservations_at(n);
        let c = &g.constraints[0];
        let mi = run_instrumented(&mut inc(c, &g), &g.transitions, 16);
        let ma = run_instrumented(&mut act(c, &g), &g.transitions, 16);
        assert_eq!(mi.violations, ma.violations);
        units.push((mi.max_retained_units, ma.max_retained_units));
        t.row(vec![
            n.to_string(),
            fmt_micros(mi.tail_step_us),
            fmt_micros(ma.tail_step_us),
            format!("{:.1}x", ma.tail_step_us / mi.tail_step_us.max(1e-9)),
            mi.max_retained_units.to_string(),
            ma.max_retained_units.to_string(),
        ]);
    }
    t.checks = t5_checks(&units);
    t
}

/// T5, over `(direct, active)` units per `n`: the trigger tables stay
/// within 1.5× the direct encoding.
fn t5_checks(units: &[(usize, usize)]) -> Vec<Check> {
    let ratios = units.iter().map(|&(d, a)| a as f64 / d as f64);
    let worst = ratios.fold(f64::NAN, f64::max);
    vec![Check::at_most(
        Count,
        "active units / direct units, worst n",
        worst,
        1.5,
    )]
}

/// T6 — what the `a = 0` stamp view keeps: `once[0,b]` against
/// `once[1,b]` over one workload, same run relation, same deltas.
pub fn t6_ablation(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T6",
        "stamps kept, once[0,b] (a key's newest end) vs once[1,b] (every covered state)",
        &[
            "b",
            "[0,b] ts",
            "[0,b] keys",
            "[1,b] ts",
            "[0,b] step",
            "[1,b] step",
        ],
    );
    t.note("claim: with a = 0 only a key's newest stamp can witness, so space is 1 stamp per key;");
    t.note("with a > 0 every covered state of the last b ticks can, up to b + 1 per key");
    let mut readings = Vec::new();
    for &b in &scale.bounds {
        let g = RandomWorkload {
            steps: scale.run_length,
            domain: 16,
            updates_per_step: 8,
            bound: b,
            seed: 42,
            ..Default::default()
        }
        .generate();
        let mut space = Vec::new();
        let mut steps = Vec::new();
        for lo in [0, 1] {
            let text = format!("deny hit: base(k) && once[{lo},{b}] ev(k)");
            let c = parse_constraint(&text).expect("T6 constraint parses");
            let mut checker = inc(&c, &g);
            let (mut max_ts, mut max_keys, mut times) = (0usize, 0usize, Vec::new());
            for tr in &g.transitions {
                let s = Instant::now();
                checker
                    .step(tr.time, &tr.update)
                    .expect("generated stream is monotone");
                times.push(s.elapsed().as_secs_f64() * 1e6);
                let s = checker.space();
                (max_ts, max_keys) = (max_ts.max(s.aux_timestamps), max_keys.max(s.aux_keys));
            }
            let tail_from = times.len() - times.len() / 4 - 1;
            space.push((max_ts, max_keys));
            steps.push(fmt_micros(median(&mut times[tail_from..])));
        }
        let ((zero_ts, zero_keys), (one_ts, _)) = (space[0], space[1]);
        readings.push((zero_ts, zero_keys, one_ts));
        let counts = [zero_ts, zero_keys, one_ts].map(|x| x.to_string());
        t.row([vec![b.to_string()], counts.to_vec(), steps].concat());
    }
    t.checks = t6_checks(&readings);
    t
}

/// T6, over `([0,b] stamps, [0,b] live keys, [1,b] stamps)` per `b`: the
/// `a = 0` view keeps at most one stamp per live key, and the general
/// window's stamps rise with `b`.
fn t6_checks(readings: &[(usize, usize, usize)]) -> Vec<Check> {
    let over = readings.iter().filter(|r| r.0 > r.1).count() as f64;
    let flat = readings.windows(2).filter(|w| w[0].2 >= w[1].2).count() as f64;
    vec![
        Check::at_most(Count, "b where [0,b] stamps > live keys", over, 0.0),
        Check::at_most(Count, "next b where [1,b] stamps do not rise", flat, 0.0),
    ]
}

/// T7 — unbounded intervals: space bounded by the *active domain*, not the
/// history.
pub fn t7_adom_bound(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T7",
        "aux space for an unbounded constraint vs history length (fixed key domain)",
        &[
            "n",
            "inc aux keys",
            "domain",
            "inc step",
            "naive stored tuples",
        ],
    );
    t.note("claim: with b = ∞ the aux relations grow with the active domain and then stop;");
    t.note("the naive checker's footprint keeps growing with the history regardless");
    let domain = 24usize;
    let c = parse_constraint("deny hit: base(k) && once[1,*] ev(k)").expect("template parses");
    let mut keys = Vec::new();
    for &n in &scale.history_lengths {
        let g = RandomWorkload {
            steps: n,
            domain,
            updates_per_step: 8,
            bound: 8, // unused by this constraint
            seed: 42,
            ..Default::default()
        }
        .generate();
        let mi = run_instrumented(&mut inc(&c, &g), &g.transitions, 0);
        let naive_tuples = if n <= scale.naive_cap {
            let mn = run_instrumented(&mut nai(&c, &g), &g.transitions, 0);
            mn.final_space.stored_tuples.to_string()
        } else {
            "—".into()
        };
        keys.push(mi.final_space.aux_keys);
        t.row(vec![
            n.to_string(),
            mi.final_space.aux_keys.to_string(),
            domain.to_string(),
            fmt_micros(mi.tail_step_us),
            naive_tuples,
        ]);
    }
    t.checks = t7_checks(&keys, domain);
    t
}

/// T7: incremental aux keys equal the key domain at every history length.
fn t7_checks(aux_keys: &[usize], domain: usize) -> Vec<Check> {
    let off = aux_keys.iter().filter(|&&k| k != domain).count() as f64;
    let what = format!("n where incremental aux keys ≠ domain {domain}");
    vec![Check::at_most(Count, what, off, 0.0)]
}

/// Declares the T8 fleet catalog: `n` unary relations `r0..r{n-1}` (one
/// per constraint, so relevance dispatch can tell the fleet apart) plus a
/// shared `audit` relation only a stream's first update may touch.
fn fleet_catalog(n: usize) -> Arc<rtic_relation::Catalog> {
    let mut cat = rtic_relation::Catalog::new();
    for i in 0..n {
        cat.declare(format!("r{i}"), Schema::of(&[("x", Sort::Str)]))
            .expect("generated names are distinct");
    }
    cat.declare("audit", Schema::of(&[("x", Sort::Str)]))
        .expect("audit is not an r{i}");
    Arc::new(cat)
}

/// One of T8's two fleet shapes: the lower bound of every constraint's
/// `once[lo,8] audit(x)` window and the rows the shared `audit` relation
/// is loaded with by the stream's first update.
#[derive(Clone, Copy, Debug)]
struct FleetShape {
    /// Table label.
    label: &'static str,
    /// Lower bound of the window.
    lo: u64,
    /// What `audit` holds from the first update on.
    audit: &'static [&'static str],
}

/// The shape every earlier T8 table ran: a window that only ever loses
/// tuples on a tick, over a relation that is never populated — nothing is
/// stored, nothing is violated, an untouched engine sleeps for good.
const FLEET_EMPTY: FleetShape = FleetShape {
    label: "once[0,8], audit empty",
    lo: 0,
    audit: &[],
};

/// The honest shape: stamps age *into* `once[2,8]`, `audit` holds half of
/// the stream's values — so every engine stores a full deque per key and
/// reports live violations — and an untouched engine sleeps only until
/// its next window deadline, replaying those violations meanwhile.
const FLEET_AUDITED: FleetShape = FleetShape {
    label: "once[2,8], audit populated",
    lo: 2,
    audit: &["v0", "v1", "v2"],
};

/// One constraint per relation, `deny c_i: r_i(x) && once[lo,8] audit(x)`.
fn fleet_constraints(n: usize, shape: FleetShape) -> Vec<Constraint> {
    (0..n)
        .map(|i| {
            let src = format!("deny c{i}: r{i}(x) && once[{},8] audit(x)", shape.lo);
            parse_constraint(&src).expect("generated constraint parses")
        })
        .collect()
}

/// A stream of `steps` transitions that touches `affected` rotating
/// relations per step — the relevance fraction `affected / n` stays fixed
/// as the fleet grows. The first update also loads `shape.audit`.
fn fleet_stream(n: usize, affected: usize, steps: usize, shape: FleetShape) -> Vec<Transition> {
    const VALS: [&str; 6] = ["v0", "v1", "v2", "v3", "v4", "v5"];
    (0..steps)
        .map(|s| {
            let mut u = Update::new();
            for k in 0..affected.min(n) {
                let rel = format!("r{}", (s + k) % n);
                u.insert(rel.as_str(), tuple![VALS[s % 6]]);
                u.delete(rel.as_str(), tuple![VALS[(s + 3) % 6]]);
            }
            for x in shape.audit.iter().filter(|_| s == 0) {
                u.insert("audit", tuple![*x]);
            }
            Transition::new((s + 1) as u64, u)
        })
        .collect()
}

/// Seconds to step a T8 fleet's stream through sets of `per_set` of its
/// constraints each under `options` — one per set is `n` independent
/// checkers, all in one relevance dispatch — and the first set's tallies.
fn fleet_secs(
    (shape, n, affected): (FleetShape, usize, usize),
    steps: usize,
    per_set: usize,
    options: EncodingOptions,
) -> (f64, DispatchStats) {
    let (catalog, stream) = (fleet_catalog(n), fleet_stream(n, affected, steps, shape));
    let mut sets: Vec<ConstraintSet> = (fleet_constraints(n, shape).chunks(per_set))
        .map(|cs| ConstraintSet::with_options(cs.to_vec(), Arc::clone(&catalog), options))
        .map(|set| set.expect("generated constraint compiles"))
        .collect();
    let start = Instant::now();
    for tr in &stream {
        for set in &mut sets {
            set.step(tr.time, &tr.update)
                .expect("generated stream is monotone");
        }
    }
    (start.elapsed().as_secs_f64(), sets[0].dispatch_stats())
}

/// T3b's and F4's catalog: the paper's two reservation relations, both
/// keyed by passenger and flight.
fn reservations_catalog() -> Arc<rtic_relation::Catalog> {
    let mut cat = rtic_relation::Catalog::new();
    for name in ["reserved", "confirmed"] {
        cat.declare(name, Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]))
            .expect("the two relation names are distinct");
    }
    Arc::new(cat)
}

/// `reserved(p, f)` and one of T3b's shapes over [`reservations_catalog`]:
/// shape (a) is the motivating deadline constraint, (b) the paper's form
/// of it, whose confirmation must come within two ticks.
fn shape_constraint(shape: &str) -> Constraint {
    let text = format!("deny unconfirmed: reserved(p, f) && {shape}");
    parse_constraint(&text).expect("a resident shape parses")
}

/// An ingestion stream for F4: per step,
/// `events_per_step` fresh reservations land over an `entities`-sized
/// key domain; last step's keys are confirmed, except a deterministic
/// straggler per 64 keys that instead fires a real violation at age 2
/// and is cancelled one step later. The live `reserved`/`confirmed`
/// relations grow toward `entities` rows — the active domain F4
/// sweeps — while per-step deltas stay `O(events_per_step)`, which is
/// exactly the shape where version-keyed memo refresh beats the
/// global-stamp rescan.
fn batch_stream(entities: usize, steps: usize, events_per_step: usize) -> Vec<Transition> {
    let events = events_per_step.max(1);
    let key = |i: usize| i % entities.max(1);
    let straggler = |k: usize| (k + 42).is_multiple_of(64);
    (0..steps)
        .map(|s| {
            let mut u = Update::new();
            for j in 0..events {
                let k = key(s * events + j);
                u.insert("reserved", tuple![format!("p{k}").as_str(), k as i64]);
            }
            if s >= 1 {
                for j in 0..events {
                    let k = key((s - 1) * events + j);
                    if !straggler(k) {
                        u.insert("confirmed", tuple![format!("p{k}").as_str(), k as i64]);
                    }
                }
            }
            if s >= 3 {
                for j in 0..events {
                    let k = key((s - 3) * events + j);
                    if straggler(k) {
                        u.delete("reserved", tuple![format!("p{k}").as_str(), k as i64]);
                    }
                }
            }
            Transition::new((s + 1) as u64, u)
        })
        .collect()
}

/// Seconds to step `stream` through a one-constraint set with its report
/// lines rendered, as `rtic check` would.
fn ingest_secs(c: &Constraint, stream: &[Transition]) -> f64 {
    let mut set = ConstraintSet::new([c.clone()], reservations_catalog())
        .map_err(|(_, e)| e)
        .expect("the constraint compiles");
    let mut lines = Vec::new();
    let start = Instant::now();
    for tr in stream {
        let reports = set.step(tr.time, &tr.update).expect("monotone stream");
        lines.extend(reports.iter().map(|r| r.to_string()));
    }
    start.elapsed().as_secs_f64()
}

/// F4 — tuples/second against the active domain: a [`batch_stream`] per
/// entity count, under the deadline constraint and its paper form.
pub fn f4_domain_throughput(scale: &Scale) -> Table {
    let steps = F4_STEPS;
    let title = format!("tuples/second vs active domain ({steps}-step ingestion stream)");
    let header = [
        "entities",
        "tuples",
        "deadline (unbounded)",
        "paper form (bounded)",
    ];
    let mut t = Table::new("F4", title, &header);
    t.note("claim: a step costs what its update touches, so throughput holds while the live");
    t.note("relations grow toward the entity domain (the stream confirms all but 1 in 64 keys)");
    let constraints = each(&RESIDENT_SHAPES[..2], |&(_, shape)| shape_constraint(shape));
    let streams = each(&scale.domain_sizes, |&n| {
        batch_stream(n, steps, n.div_ceil(steps).max(1))
    });
    let tuples: Vec<usize> = each(&streams, |s| s.iter().map(|tr| tr.update.len()).sum());
    let len = streams.len();
    // Arm `c * len + i` ingests stream `i` under constraint `c`, read as tuples/s.
    let by_pass = passes(2 * len, |arm| {
        let i = arm % len;
        tuples[i] as f64 / ingest_secs(&constraints[arm / len], &streams[i])
    });
    let rates = arm_medians(&by_pass);
    for (i, entities) in scale.domain_sizes.iter().enumerate() {
        let mut row = vec![entities.to_string(), tuples[i].to_string()];
        row.extend(rates.iter().skip(i).step_by(len).map(|r| format!("{r:.0}")));
        t.row(row);
    }
    let by_constraint = |p: &Vec<f64>| p.chunks(len).map(<[f64]>::to_vec).collect::<Vec<_>>();
    t.checks = f4_checks(&each(&by_pass, by_constraint));
    t
}

/// F4, over each pass's rates per constraint by entity count: each
/// constraint's tuples/s max/min over the entity counts, the worse
/// constraint's.
fn f4_checks(rates: &[Vec<Vec<f64>>]) -> Vec<Check> {
    let worst = worst(rates, |r| spread(r), f64::max);
    let what = "worse constraint's tuples/s max/min over entities";
    vec![Check::at_most(Timing, what, worst, 3.0)]
}

/// T8 — fleet scaling: mean step latency vs #constraints with a fixed
/// number of affected constraints per step — `n` independent incremental
/// checkers against a [`ConstraintSet`] with relevance dispatch, over
/// both fleet shapes.
pub fn t8_constraint_scaling(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T8",
        "fleet step latency vs #constraints × relevance fraction",
        &[
            "fleet shape",
            "constraints",
            "affected/step",
            "independent",
            "independent (interp)",
            "set (dispatch)",
            "asleep",
        ],
    );
    t.note("claim: with a fixed number of affected constraints per step, the untouched");
    t.note("rest sleeps until its next window deadline, so set step latency grows");
    t.note("sub-linearly in fleet size while n independent checkers pay full price for");
    t.note("every one; 'independent (interp)' runs the same checkers without compiled");
    t.note("plans and never sleeps; 'asleep' is the share of engine-steps deferred");
    let steps = scale.run_length;
    let fleets = scale.fleet_sizes.iter().flat_map(|&n| {
        let mut fractions = vec![1usize, (n / 4).max(1)];
        fractions.dedup();
        fractions.into_iter().map(move |affected| (n, affected))
    });
    let fleets: Vec<(usize, usize)> = fleets.collect();
    let shapes = [FLEET_EMPTY, FLEET_AUDITED];
    let mut setups = Vec::new();
    for shape in shapes {
        setups.extend(fleets.iter().map(|&(n, affected)| (shape, n, affected)));
    }
    // Arm `3 k + j` steps fleet `k` through independent checkers (`j = 0`),
    // one set with dispatch (1), or independent checkers without compiled
    // plans (2): the gated pair runs back to back.
    let plain = EncodingOptions::default();
    let arms = [(1, plain), (usize::MAX, plain), (1, interpreted())];
    let mut stats = vec![DispatchStats::default(); 3 * setups.len()];
    let by_pass = passes(3 * setups.len(), |arm| {
        let (per_set, options) = arms[arm % 3];
        let (secs, dispatch) = fleet_secs(setups[arm / 3], steps, per_set, options);
        stats[arm] = dispatch;
        secs * 1e6 / steps as f64
    });
    let us = arm_medians(&by_pass);
    for (k, &(shape, n, affected)) in setups.iter().enumerate() {
        let set = stats[3 * k + 1];
        let asleep = 100.0 * set.skipped as f64 / set.total().max(1) as f64;
        let mut row = vec![shape.label.into(), n.to_string(), affected.to_string()];
        row.extend([0, 2, 1].map(|j| fmt_micros(us[3 * k + j])));
        row.push(format!("{asleep:.0}%"));
        t.row(row);
    }
    // Independent/set at each shape's largest fleet (its last).
    let largest = [fleets.len() - 1, 2 * fleets.len() - 1].map(|k| 3 * k);
    t.checks = t8_checks(&each(&by_pass, |p| each(&largest, |&k| p[k] / p[k + 1])));
    t
}

/// T8, over each pass's independent/set per shape at the largest fleet
/// with ¼ relevance: the set wins on both shapes.
fn t8_checks(ratios: &[Vec<f64>]) -> Vec<Check> {
    let worse = worst(ratios, |&r| r, f64::min);
    let what = "independent/set, largest fleet at ¼ relevance, worse shape";
    vec![Check::at_least(Timing, what, worse, 1.4)]
}

/// Steady-state step time (µs) after stepping through `g`: ticks with an
/// empty update, timed in blocks of 64, the median block.
fn steady_step_us(checker: &mut IncrementalChecker, g: &Generated) -> f64 {
    for tr in &g.transitions {
        checker.step(tr.time, &tr.update).expect("monotone stream");
    }
    let mut t = g.transitions.last().map_or(0, |tr| tr.time.0);
    let mut blocks: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..64 {
                t += 1;
                checker
                    .step(TimePoint(t), &Update::new())
                    .expect("time advances");
            }
            start.elapsed().as_secs_f64() * 1e6 / 64.0
        })
        .collect();
    median(&mut blocks)
}

/// T9 — compiled evaluation plans vs the interpreting evaluator at steady
/// state, on the paper's unbounded motivating constraint (F1's histories).
pub fn t9_eval_plan(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T9",
        "steady-state step after an n-step history, planned vs interpreted (unbounded constraint)",
        &["n", "planned", "interpreted", "interpreted/planned"],
    );
    t.note("claim: plan once, execute many — a compiled plan steps faster than re-walking the");
    t.note("formula tree; on an empty tick (no update, no deadline) the planned engine sleeps");
    t.note("and replays its violations, while the interpreting reference never sleeps");
    let c = motivating_constraint();
    let gs = each(&scale.history_lengths, |&n| reservations_at(n));
    // Arm `2 i` steps the planned engine after history `i`, `2 i + 1` the interpreter.
    let by_pass = passes(2 * gs.len(), |arm| {
        let g = &gs[arm / 2];
        let options = [EncodingOptions::default(), interpreted()][arm % 2];
        steady_step_us(&mut inc_with(&c, g, options), g)
    });
    let us = arm_medians(&by_pass);
    for (n, us) in scale.history_lengths.iter().zip(us.chunks(2)) {
        let (planned, interpreted) = (format!("{:.3}µs", us[0]), fmt_micros(us[1]));
        let ratio = format!("{:.2}×", us[1] / us[0]);
        t.row(vec![n.to_string(), planned, interpreted, ratio]);
    }
    let ratios = |p: &Vec<f64>| p.chunks(2).map(|r| r[1] / r[0]).collect::<Vec<_>>();
    t.checks = t9_checks(&each(&by_pass, ratios));
    t
}

/// T9, over each pass's interpreted/planned by `n`: at least 2 at every
/// `n` — two equal arms read 0.95–1.07, so 1 would not tell a planned arm
/// from an interpreted one.
fn t9_checks(ratios: &[Vec<f64>]) -> Vec<Check> {
    let worst = worst(ratios, |&r| r, f64::min);
    let what = "interpreted/planned, worst n";
    vec![Check::at_least(Timing, what, worst, 2.0)]
}

/// T10's fleet: one constraint per node kind over the random workload's
/// `base`/`ev` keys, so a checkpoint writes every block kind.
const T10_FLEET: [&str; 5] = [
    "deny onc: base(k) && once[1,8] ev(k)",
    "deny snc: base(k) && !(base(k) since[0,8] ev(k))",
    "deny hsf: base(k) && hist[0,8] base(k)",
    "deny hsi: base(k) && hist[1,*] base(k)",
    "deny prv: base(k) && prev ev(k)",
];

/// T10 — checkpoint size and write time vs history length at a fixed
/// active domain.
pub fn t10_checkpoint(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T10",
        "checkpoint bytes, save and restore time vs history length (16 keys, one constraint per node kind)",
        &[
            "n",
            "checkpoints",
            "max bytes",
            "bytes at end",
            "median save",
            "median restore",
        ],
    );
    t.note("claim: a checkpoint is the bounded state — the database plus the aux relations —");
    t.note("so its size and the time to write or read it back do not grow with the history it");
    t.note("summarizes; a save every 16 steps and a restore of it, each timed once");
    let constraints: Vec<Constraint> = T10_FLEET
        .iter()
        .map(|c| parse_constraint(c).expect("template parses"))
        .collect();
    let gs = each(&scale.history_lengths, |&n| {
        RandomWorkload {
            steps: n,
            domain: 16,
            updates_per_step: 8,
            seed: 42,
            ..Default::default()
        }
        .generate()
    });
    // Per history: the checkpoints taken, the largest's bytes, the last's.
    let mut counts = vec![(0, 0, 0); gs.len()];
    let by_pass = passes(gs.len(), |i| {
        let g = &gs[i];
        let mut set = ConstraintSet::new(constraints.clone(), Arc::clone(&g.catalog))
            .expect("fleet compiles");
        let (mut max_bytes, mut end_bytes, mut saves, mut restores) = (0, 0, vec![], vec![]);
        for (k, tr) in g.transitions.iter().enumerate() {
            set.step(tr.time, &tr.update)
                .expect("generated stream is monotone");
            if (k + 1) % 16 != 0 && k + 1 != g.transitions.len() {
                continue;
            }
            let start = Instant::now();
            let sections = checkpoint::save_set(&set);
            saves.push(start.elapsed().as_secs_f64() * 1e6);
            end_bytes = sections.iter().map(|(_, text)| text.len()).sum();
            max_bytes = max_bytes.max(end_bytes);
            let texts: Vec<String> = sections.into_iter().map(|(_, text)| text).collect();
            let start = Instant::now();
            let catalog = Arc::clone(&g.catalog);
            checkpoint::restore_set(constraints.clone(), catalog, &texts)
                .expect("a checkpoint restores");
            restores.push(start.elapsed().as_secs_f64() * 1e6);
        }
        counts[i] = (saves.len(), max_bytes, end_bytes);
        [median(&mut saves), median(&mut restores)]
    });
    let saves = each(&by_pass, |p| each(p, |r| r[0]));
    let restores = each(&by_pass, |p| each(p, |r| r[1]));
    let times = arm_medians(&saves).into_iter().zip(arm_medians(&restores));
    for ((n, (taken, max_bytes, end_bytes)), (save, restore)) in
        scale.history_lengths.iter().zip(&counts).zip(times)
    {
        let counts = [n, taken, max_bytes, end_bytes].map(|x| x.to_string());
        t.row([counts.to_vec(), vec![fmt_micros(save), fmt_micros(restore)]].concat());
    }
    let bytes = each(&counts, |c| c.1 as f64);
    t.checks = t10_checks(&bytes, &saves, &restores);
    t
}

/// T10: the largest checkpoint of a run and, over each pass, its median
/// save and restore times, each max/min over `n`. Bytes repeat for a
/// seed; what moves them is which keys are live when a save lands and one
/// more digit per stamp from n = 1000 on, so 1.3 separates them from a
/// checkpoint that keeps the history (×4 at `--quick`, ×32 at full scale).
fn t10_checks(bytes: &[f64], save_us: &[Vec<f64>], restore_us: &[Vec<f64>]) -> Vec<Check> {
    let flat = |what, us| Check::at_most(Timing, what, spread_over(us), 2.5);
    vec![
        Check::at_most(Count, "checkpoint bytes max/min over n", spread(bytes), 1.3),
        flat("median save time max/min over n", save_us),
        flat("median restore time max/min over n", restore_us),
    ]
}

/// T11 — the production scenarios (fraud, telemetry, ratelimit, access),
/// each stepped through one [`ConstraintSet`] at a production-scale domain.
pub fn t11_scenarios(scale: &Scale) -> Table {
    let (entities, steps) = scale.scenario_shape;
    let title = format!(
        "production scenarios through one constraint set \
         ({entities} entities, {steps} steps of 8 events, 5% injected)"
    );
    let header = [
        "scenario",
        "tuples",
        "steps/s",
        "tuples/s",
        "violations",
        "injected",
    ];
    let mut t = Table::new("T11", title, &header);
    t.note("claim: every injected violation is reported, at production-scale key domains;");
    t.note("tuples/s is what compares across scenarios (a telemetry step carries thousands)");
    let params = ScenarioParams {
        steps,
        entities,
        events_per_step: 8,
        violation_rate: 0.05,
        seed: 42,
    };
    let mut counts = Vec::new();
    for scenario in library::production() {
        let g = scenario.generate(&params);
        let constraints = g.constraints.iter().cloned();
        let mut set = ConstraintSet::new(constraints, Arc::clone(&g.catalog))
            .map_err(|(_, e)| e)
            .expect("scenario constraints compile");
        let mut violations = 0;
        let start = Instant::now();
        for tr in &g.transitions {
            let reports = set.step(tr.time, &tr.update).expect("monotone stream");
            violations += reports.iter().map(|r| r.violation_count()).sum::<usize>();
        }
        let secs = start.elapsed().as_secs_f64();
        let per_sec = |n: usize| format!("{:.0}", n as f64 / secs);
        let tuples: usize = g.transitions.iter().map(|tr| tr.update.len()).sum();
        counts.push((g.expected.len(), violations));
        t.row(vec![
            scenario.name.to_string(),
            tuples.to_string(),
            per_sec(g.transitions.len()),
            per_sec(tuples),
            violations.to_string(),
            g.expected.len().to_string(),
        ]);
    }
    t.checks = t11_checks(&counts);
    t
}

/// T11, over `(injected, violations)` per scenario: they agree on every one.
fn t11_checks(counts: &[(usize, usize)]) -> Vec<Check> {
    let off = counts.iter().filter(|(i, v)| i != v).count() as f64;
    let what = "scenarios where violations ≠ injected";
    vec![Check::at_most(Count, what, off, 0.0)]
}

/// O1 — what observation costs: a whole reservations run stepped plainly,
/// through `observe::step_all` with the `NopObserver`, and with per-node
/// plan profiling on. Every arm steps one boxed checker.
pub fn o1_observation(scale: &Scale) -> Table {
    let mut t = Table::new(
        "O1",
        "what observation costs: one reservations run (motivating constraint)",
        &[
            "arm",
            "median run",
            "per step",
            "vs plain (median of passes)",
        ],
    );
    t.note("claim: an observer hook that observes nothing costs nothing;");
    t.note("profiling is opt-in and its price is what is shown");
    let g = reservations_at(scale.run_length);
    let c = motivating_constraint();
    let profiled = EncodingOptions {
        profile_plans: true,
        ..EncodingOptions::default()
    };
    let plain = EncodingOptions::default();
    let arms = [
        ("step", plain, false),
        ("step_all(NopObserver)", plain, true),
        ("step, profile_plans on", profiled, false),
    ];
    let by_pass = passes(arms.len(), |arm| {
        let (_, options, observed) = arms[arm];
        let mut checkers: Vec<Box<dyn Checker>> = vec![Box::new(inc_with(&c, &g, options))];
        let start = Instant::now();
        for tr in &g.transitions {
            if observed {
                step_all(&mut checkers, tr.time, &tr.update, &mut NopObserver).map(drop)
            } else {
                checkers[0].step(tr.time, &tr.update).map(drop)
            }
            .expect("generated stream is monotone");
        }
        start.elapsed().as_secs_f64() * 1e6
    });
    for (a, ((name, _, _), us)) in arms.iter().zip(arm_medians(&by_pass)).enumerate() {
        let per_step = fmt_micros(us / g.transitions.len() as f64);
        let ratio = format!("{:.3}×", median_over(&by_pass, |p| p[a] / p[0]));
        t.row(vec![name.to_string(), fmt_micros(us), per_step, ratio]);
    }
    t.checks = o1_checks(&each(&by_pass, |p| p[1] / p[0]));
    t
}

/// O1, over each pass's run observed by the `NopObserver` over its plain
/// run. The claim is ≤ 1.02; the host's noise allows a gate of 1.35
/// (EXPERIMENTS.md).
fn o1_checks(nop_over_plain: &[f64]) -> Vec<Check> {
    let what = "NopObserver-observed run / plain run";
    let ratio = median_over(nop_over_plain, |&r| r);
    vec![Check::at_most(Timing, what, ratio, 1.35)]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::table::Gauge;

    /// A scale small enough for a debug build.
    pub(crate) fn tiny() -> Scale {
        Scale {
            name: "tiny",
            history_lengths: vec![40, 80],
            naive_cap: 80,
            bounds: vec![3, 6],
            update_sizes: vec![4, 8],
            resident_sizes: vec![200, 400],
            run_length: 50,
            fleet_sizes: vec![2, 4],
            domain_sizes: vec![64, 256],
            scenario_shape: (64, 40),
        }
    }

    /// Smoke: every experiment runs at tiny scale, produces rows, and its
    /// count relationships hold (timing ones are not read at this scale).
    #[test]
    fn all_experiments_run_at_tiny_scale() {
        for (id, table) in TABLES {
            let table = table(&tiny());
            assert!(!table.rows.is_empty() && !table.checks.is_empty(), "{id}");
            assert!(table.render().contains(table.id));
            for c in table.checks.iter().filter(|c| c.gauge == Gauge::Count) {
                assert!(c.holds(), "{id}: {}", c.claim());
            }
        }
    }

    #[test]
    fn t1_shows_the_separation() {
        let scale = Scale {
            history_lengths: vec![50, 200],
            naive_cap: 200,
            ..tiny()
        };
        let t = t1_space(&scale);
        assert_eq!(t.broken().count(), 0, "{}", t.render());
    }

    #[test]
    fn f4_and_t11_run_every_point_and_every_production_scenario() {
        let f4 = f4_domain_throughput(&tiny());
        assert_eq!(f4.rows.len(), 2);
        // Its timing predicate is not read at this scale; a rate is measured.
        assert!(f4.checks[0].reading >= 1.0, "{}", f4.render());
        let t11 = t11_scenarios(&tiny());
        let names: Vec<&str> = t11.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, ["fraud", "telemetry", "ratelimit", "access"]);
        for row in &t11.rows {
            assert!(row[5].parse::<usize>().unwrap() > 0, "{} injects", row[0]);
            assert_eq!(row[4], row[5], "{}: every injection is found", row[0]);
        }
        assert_eq!(t11.broken().count(), 0, "{}", t11.render());
    }

    fn holds(checks: Vec<Check>) -> bool {
        checks.iter().all(Check::holds)
    }

    // Each predicate holds on a reading like the recorded ones and breaks
    // on one that contradicts its claim.

    #[test]
    fn t1_breaks_when_incremental_units_double_or_naive_stays_flat() {
        let ns = [100.0, 400.0];
        assert!(holds(t1_checks(&ns, &[105.0, 109.0], &[2488.0, 10218.0])));
        assert!(!holds(t1_checks(&ns, &[105.0, 210.0], &[2488.0, 10218.0])));
        assert!(!holds(t1_checks(&ns, &[105.0, 109.0], &[2488.0, 2600.0])));
    }

    /// One pass of readings, as a timing check takes them by pass.
    fn one<T>(pass: T) -> Vec<T> {
        vec![pass]
    }

    #[test]
    fn f1_breaks_when_the_step_grows_with_history_or_naive_does_not() {
        let (bounded, flat) = (one(vec![9.7, 5.2]), one(vec![5.2, 5.1]));
        let naive = one(vec![227.0, 1270.0]);
        assert!(holds(f1_checks(&bounded, &flat, &naive)));
        assert!(!holds(f1_checks(&bounded, &one(vec![5.2, 52.0]), &naive)));
        assert!(!holds(f1_checks(&bounded, &flat, &one(vec![227.0, 230.0]))));
    }

    #[test]
    fn a_timing_check_reads_the_median_pass() {
        let naive = one(vec![227.0, 1270.0]);
        let by_pass = [vec![5.0, 5.1], vec![5.0, 52.0], vec![5.2, 5.1]];
        assert!(holds(f1_checks(&by_pass, &by_pass, &naive)));
        assert!(!holds(f1_checks(&by_pass[1..2], &by_pass, &naive)));
        // Each shape's growth is its median over passes, then the worst.
        // One pass skews (b)'s growth, another (a)'s: the worst reads 1.4.
        let (a, b) = (vec![10.0, 14.0], vec![10.0, 11.0]);
        let by_pass = [
            vec![a.clone(), vec![6.0, 11.0]],
            vec![vec![6.0, 14.0], b.clone()],
            vec![a, b],
        ];
        assert_eq!(t3b_checks(&by_pass)[1].reading, 1.4);
    }

    #[test]
    fn t2_breaks_above_b_plus_one_stamps_per_key() {
        assert!(holds(t2_checks(&[1.4 / 5.0, 15.1 / 65.0])));
        assert!(!holds(t2_checks(&[1.4 / 5.0, 66.0 / 65.0])));
    }

    #[test]
    fn f2_breaks_when_windowed_keeps_pace() {
        assert!(holds(f2_checks(&one(vec![3.7, 75.0]))));
        assert!(!holds(f2_checks(&one(vec![3.7, 3.9]))));
    }

    #[test]
    fn t3a_breaks_when_the_step_outgrows_the_update() {
        assert!(holds(t3a_checks(&[4.0, 64.0], &one(vec![2.4, 28.0]))));
        assert!(!holds(t3a_checks(&[4.0, 64.0], &one(vec![2.4, 80.0]))));
    }

    #[test]
    fn t3b_breaks_when_a_shape_grows_with_the_table_or_leaves_a() {
        let a = vec![11.0, 15.0];
        assert!(holds(t3b_checks(&one(vec![a.clone(), vec![12.0, 9.0]]))));
        assert!(!holds(t3b_checks(&one(vec![a, vec![12.0, 40.0]]))));
        let grows = vec![vec![11.0, 40.0], vec![20.0, 40.0]];
        assert!(!holds(t3b_checks(&one(grows))));
    }

    #[test]
    fn t4_breaks_on_a_missed_detection() {
        assert!(holds(t4_checks(&[(23, 23), (12, 12)])));
        assert!(!holds(t4_checks(&[(23, 23), (12, 11)])));
    }

    #[test]
    fn f3_breaks_when_windowed_keeps_up_on_library() {
        assert!(holds(f3_checks(&[182.0])));
        assert!(!holds(f3_checks(&[1.2])));
    }

    #[test]
    fn f4_breaks_when_throughput_falls_with_the_domain() {
        let unbounded = vec![9.6e5, 1.2e6, 9.0e5];
        let bounded = |last| vec![1.1e6, 1.6e6, last];
        assert!(holds(f4_checks(&one(vec![
            unbounded.clone(),
            bounded(1.2e6)
        ]))));
        assert!(!holds(f4_checks(&one(vec![unbounded, bounded(1.2e5)]))));
    }

    #[test]
    fn t5_breaks_when_the_trigger_tables_outgrow_the_encoding() {
        assert!(holds(t5_checks(&[(105, 134), (109, 140)])));
        assert!(!holds(t5_checks(&[(105, 134), (109, 400)])));
    }

    #[test]
    fn t6_breaks_on_extra_a0_stamps_or_flat_general_stamps() {
        assert!(holds(t6_checks(&[(15, 16, 20), (16, 16, 67)])));
        assert!(!holds(t6_checks(&[(15, 16, 20), (17, 16, 67)])));
        assert!(!holds(t6_checks(&[(15, 16, 20), (16, 16, 20)])));
    }

    #[test]
    fn t7_breaks_off_the_domain() {
        assert!(holds(t7_checks(&[24, 24], 24)));
        assert!(!holds(t7_checks(&[24, 25], 24)));
        assert!(!holds(t7_checks(&[23, 24], 24)));
    }

    #[test]
    fn t8_breaks_when_the_set_is_slower_than_independent_checkers() {
        assert!(holds(t8_checks(&one(vec![2.9, 2.4]))));
        assert!(!holds(t8_checks(&one(vec![2.9, 0.8]))));
        assert!(!holds(t8_checks(&[])));
    }

    #[test]
    fn t9_breaks_when_planned_is_no_faster_than_interpreted() {
        assert!(holds(t9_checks(&one(vec![124.0, 95.0]))));
        assert!(!holds(t9_checks(&one(vec![124.0, 0.95]))));
    }

    #[test]
    fn t10_breaks_when_the_checkpoint_grows_with_the_history() {
        let (flat, grows) = (one(vec![9.0, 11.0]), one(vec![9.0, 36.0]));
        assert!(holds(t10_checks(&[2900.0, 3100.0], &flat, &flat)));
        assert!(!holds(t10_checks(&[2900.0, 11600.0], &flat, &flat)));
        assert!(!holds(t10_checks(&[2900.0, 3100.0], &grows, &flat)));
        assert!(!holds(t10_checks(&[2900.0, 3100.0], &flat, &grows)));
    }

    #[test]
    fn t11_breaks_on_a_missed_injection() {
        assert!(holds(t11_checks(&[(45, 45), (70166, 70166)])));
        assert!(!holds(t11_checks(&[(45, 45), (70166, 70165)])));
    }

    #[test]
    fn o1_breaks_when_a_nop_observer_costs_something() {
        assert!(holds(o1_checks(&[1.01])));
        assert!(!holds(o1_checks(&[1.5])));
    }
}
