//! One function per table/figure of EXPERIMENTS.md.
//!
//! Each function builds its workload, runs the relevant checkers with
//! instrumentation, and renders a [`Table`]. The binary
//! `cargo run -p rtic-bench --release --bin experiments` prints them all;
//! the Criterion benches in `benches/` sample the same code paths.

use std::sync::Arc;
use std::time::Instant;

use rtic_active::ActiveChecker;
use rtic_core::{
    BackendId, Checker, ConstraintSet, EncodingOptions, IncrementalChecker, NaiveChecker,
    WindowedChecker,
};
use rtic_history::Transition;
use rtic_relation::{tuple, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;
use rtic_workload::{Generated, Library, Monitor, RandomWorkload, Reservations};

use crate::measure::{run_instrumented, RunMeasurement};
use crate::table::{fmt_micros, Table};

/// Sweep sizes: `quick` for CI-speed runs, `full` for the recorded tables.
#[derive(Clone, Debug)]
pub struct Scale {
    /// History lengths for T1/F1.
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
    /// History length for throughput/overhead runs (F3/T5).
    pub run_length: usize,
    /// Fleet sizes (#constraints) for T8.
    pub fleet_sizes: Vec<usize>,
}

impl Scale {
    /// The full published sweep.
    pub fn full() -> Scale {
        Scale {
            history_lengths: vec![250, 500, 1000, 2000, 4000, 8000],
            naive_cap: 2000,
            bounds: vec![4, 8, 16, 32, 64, 128],
            update_sizes: vec![4, 8, 16, 32, 64, 128],
            resident_sizes: vec![5_000, 10_000, 20_000],
            run_length: 600,
            fleet_sizes: vec![4, 16, 64],
        }
    }

    /// A seconds-scale smoke sweep.
    pub fn quick() -> Scale {
        Scale {
            history_lengths: vec![100, 200, 400],
            naive_cap: 400,
            bounds: vec![4, 16, 64],
            update_sizes: vec![4, 16, 64],
            resident_sizes: vec![1_000, 4_000],
            run_length: 150,
            fleet_sizes: vec![4, 16],
        }
    }
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
    IncrementalChecker::new(c.clone(), Arc::clone(&g.catalog)).expect("compiles")
}

/// The incremental encoding with the compiled-plan executor switched off:
/// same maintenance, but every per-step evaluation re-walks the formula
/// tree. The planned-vs-interpreted columns in F1/T8 isolate what the
/// plan layer buys on top of the encoding itself.
fn inc_interp(c: &Constraint, g: &Generated) -> IncrementalChecker {
    IncrementalChecker::with_options(
        c.clone(),
        Arc::clone(&g.catalog),
        EncodingOptions {
            interpret_eval: true,
            ..EncodingOptions::default()
        },
    )
    .expect("compiles")
}

fn win(c: &Constraint, g: &Generated) -> WindowedChecker {
    WindowedChecker::new(c.clone(), Arc::clone(&g.catalog)).expect("compiles")
}

fn nai(c: &Constraint, g: &Generated) -> NaiveChecker {
    NaiveChecker::new(c.clone(), Arc::clone(&g.catalog)).expect("compiles")
}

fn act(c: &Constraint, g: &Generated) -> ActiveChecker {
    ActiveChecker::new(c.clone(), Arc::clone(&g.catalog)).expect("compiles")
}

/// Constructs any backend from the shared [`BackendId`] enumeration against
/// a generated workload, so tables that sweep "all checkers" derive their
/// columns from `BackendId::ALL` instead of a hand-maintained list.
pub fn backend_checker(b: BackendId, c: &Constraint, g: &Generated) -> Box<dyn Checker> {
    match b {
        BackendId::Incremental => Box::new(inc(c, g)),
        BackendId::Naive => Box::new(nai(c, g)),
        BackendId::Windowed => Box::new(win(c, g)),
        BackendId::Active => Box::new(act(c, g)),
    }
}

/// T1 — retained space vs. history length, bounded constraint.
pub fn t1_space(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T1",
        "retained space vs history length (bounded constraint; units = aux keys + timestamps + stored tuples)",
        &["n", "incremental", "windowed", "naive", "naive/incremental"],
    );
    t.note("claim: encoding space is independent of history length; naive grows linearly");
    for &n in &scale.history_lengths {
        let g = reservations_at(n);
        let c = &g.constraints[0];
        let mi = run_instrumented(&mut inc(c, &g), &g.transitions, 16);
        let mw = run_instrumented(&mut win(c, &g), &g.transitions, 16);
        let mn = run_instrumented(&mut nai(c, &g), &g.transitions, 16);
        assert_eq!(mi.violations, mn.violations, "checkers must agree");
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
    t
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
    for &n in &scale.history_lengths {
        let g = reservations_at(n);
        let bounded = &g.constraints[0];
        let mib = run_instrumented(&mut inc(bounded, &g), &g.transitions, 0);
        let mnb = run_instrumented(&mut nai(bounded, &g), &g.transitions, 0);
        let miu = run_instrumented(&mut inc(&unbounded, &g), &g.transitions, 0);
        let mii = run_instrumented(&mut inc_interp(&unbounded, &g), &g.transitions, 0);
        assert_eq!(miu.violations, mii.violations, "executors must agree");
        let mnu = if n <= scale.naive_cap {
            Some(run_instrumented(
                &mut nai(&unbounded, &g),
                &g.transitions,
                0,
            ))
        } else {
            None
        };
        t.row(vec![
            n.to_string(),
            fmt_micros(mib.tail_step_us),
            fmt_micros(mnb.tail_step_us),
            fmt_micros(miu.tail_step_us),
            fmt_micros(mii.tail_step_us),
            mnu.map_or("—".into(), |m| fmt_micros(m.tail_step_us)),
        ]);
    }
    t
}

/// T2 — aux space vs. metric bound for the general (two-sided) window.
pub fn t2_bound_space(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T2",
        "aux timestamps vs metric bound b for once[1,b] (general deque encoding)",
        &[
            "b",
            "max aux timestamps",
            "live keys",
            "ts per key",
            "paper bound b+1",
        ],
    );
    t.note("claim: per-key timestamps stay ≤ b+1 on an integer clock");
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
        assert!(per_key <= (b + 1) as f64 + 1e-9, "paper bound violated");
        t.row(vec![
            b.to_string(),
            max_ts.to_string(),
            keys_at_max.to_string(),
            format!("{per_key:.1}"),
            (b + 1).to_string(),
        ]);
    }
    t
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
    for &d in &scale.bounds {
        let g = Reservations {
            steps: scale.run_length,
            new_per_step: 2,
            deadline: d.max(2),
            violation_rate: 0.02,
            seed: 42,
        }
        .generate();
        let c = &g.constraints[0];
        let mi = run_instrumented(&mut inc(c, &g), &g.transitions, 0);
        let mw = run_instrumented(&mut win(c, &g), &g.transitions, 0);
        let mn = run_instrumented(&mut nai(c, &g), &g.transitions, 0);
        t.row(vec![
            d.to_string(),
            fmt_micros(mi.tail_step_us),
            fmt_micros(mw.tail_step_us),
            fmt_micros(mn.tail_step_us),
        ]);
    }
    t
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
    for &u in &scale.update_sizes {
        let g = RandomWorkload {
            steps: scale.run_length,
            domain,
            updates_per_step: u,
            bound: 8,
            seed: 42,
            ..Default::default()
        }
        .generate();
        let c = &g.constraints[0];
        let mi = run_instrumented(&mut inc(c, &g), &g.transitions, 16);
        let mw = run_instrumented(&mut win(c, &g), &g.transitions, 0);
        let mn = run_instrumented(&mut nai(c, &g), &g.transitions, 0);
        t.row(vec![
            u.to_string(),
            fmt_micros(mi.tail_step_us),
            fmt_micros(mw.tail_step_us),
            fmt_micros(mn.tail_step_us),
            mi.final_space.aux_keys.to_string(),
        ]);
    }
    t
}

/// ROADMAP item 1's stream over `resident` loaded rows: update 0 loads
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

/// ROADMAP item 1's rows: the temporal conjuncts each shape adds to
/// `reserved(p, f)`.
pub const RESIDENT_SHAPES: [(&str, &str); 5] = [
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
    let pf = || Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]);
    let catalog = rtic_relation::Catalog::new().with("reserved", pf());
    let catalog = Arc::new(
        catalog
            .and_then(|c| c.with("confirmed", pf()))
            .expect("catalog"),
    );
    let c = parse_constraint(&format!("deny d: reserved(p, f) && {shape}")).expect("parses");
    let mut checker = IncrementalChecker::new(c, catalog).expect("compiles");
    let updates: Vec<Update> = (0..steps).map(|s| resident_update(s, resident)).collect();
    let mut timed = Vec::with_capacity(steps);
    for (s, u) in updates.iter().enumerate() {
        let start = Instant::now();
        checker
            .step(rtic_temporal::TimePoint(s as u64 + 1), u)
            .expect("steps");
        if s >= 8 {
            timed.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    timed.sort_by(f64::total_cmp);
    timed[timed.len() / 2]
}

/// T3b — scaling in resident state at a fixed update: ROADMAP item 1's
/// table, per step.
pub fn t3b_state_scaling(scale: &Scale) -> Table {
    let sizes = &scale.resident_sizes;
    let mut cols: Vec<String> = vec!["shape".into()];
    cols.extend(sizes.iter().map(|n| format!("step @ {n} rows")));
    cols.extend(["vs (a)".into(), "growth".into()]);
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "T3b",
        "median per-step latency vs resident rows, 16-tuple updates (item 1's stream)",
        &cols,
    );
    t.note("claim: a step costs what the update touches, for bounded windows too");
    let steps = (scale.run_length / 2).max(40);
    let rows: Vec<(&str, Vec<f64>)> = RESIDENT_SHAPES
        .iter()
        .map(|(id, shape)| {
            (
                *id,
                sizes
                    .iter()
                    .map(|&n| resident_step_us(shape, n, steps))
                    .collect(),
            )
        })
        .collect();
    let base = rows
        .first()
        .and_then(|(_, r)| r.last().copied())
        .unwrap_or(1.0);
    for (id, times) in &rows {
        let (first, last) = (times.first().copied(), times.last().copied());
        let mut row = vec![format!("({id})")];
        row.extend(times.iter().map(|&us| fmt_micros(us)));
        row.push(last.map_or("—".into(), |l| format!("{:.2}×", l / base)));
        let growth = first.zip(last).map(|(f, l)| format!("{:.2}×", l / f));
        row.push(growth.unwrap_or_else(|| "—".into()));
        t.row(row);
    }
    t
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
            t.row(vec![
                match g.constraints[0].name.as_str() {
                    "unconfirmed" => "reservations".into(),
                    "overdue" => "library".into(),
                    _ => "monitor".into(),
                },
                c.name.to_string(),
                relevant.len().to_string(),
                found.to_string(),
                if found == relevant.len() {
                    "yes".into()
                } else {
                    "NO".to_string()
                },
            ]);
        }
    }
    t
}

/// F3 — steady-state throughput across workloads and checkers.
pub fn f3_throughput(scale: &Scale) -> Table {
    let mut columns = vec!["workload"];
    columns.extend(BackendId::ALL.iter().map(|b| b.name()));
    let mut t = Table::new(
        "F3",
        "steady-state throughput (states/second, tail mean)",
        &columns,
    );
    let n = scale.run_length;
    let workloads: Vec<(&str, Generated)> = vec![
        (
            "reservations",
            Reservations {
                steps: n,
                ..Default::default()
            }
            .generate(),
        ),
        (
            "library",
            Library {
                steps: n,
                ..Default::default()
            }
            .generate(),
        ),
        (
            "monitor",
            Monitor {
                steps: n,
                ..Default::default()
            }
            .generate(),
        ),
    ];
    for (name, g) in &workloads {
        let c = &g.constraints[0];
        let mut row = vec![name.to_string()];
        for b in BackendId::ALL {
            let mut checker = backend_checker(b, c, g);
            let m = run_instrumented(checker.as_mut(), &g.transitions, 0);
            row.push(format!("{:.0}", m.tail_throughput()));
        }
        t.row(row);
    }
    t
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
    for &n in &scale.history_lengths {
        if n > 2 * scale.naive_cap {
            continue;
        }
        let g = reservations_at(n);
        let c = &g.constraints[0];
        let mi = run_instrumented(&mut inc(c, &g), &g.transitions, 16);
        let ma = run_instrumented(&mut act(c, &g), &g.transitions, 16);
        assert_eq!(mi.violations, ma.violations);
        t.row(vec![
            n.to_string(),
            fmt_micros(mi.tail_step_us),
            fmt_micros(ma.tail_step_us),
            format!("{:.1}x", ma.tail_step_us / mi.tail_step_us.max(1e-9)),
            mi.max_retained_units.to_string(),
            ma.max_retained_units.to_string(),
        ]);
    }
    t
}

/// T6 — what the `a = 0` stamp view keeps: `once[0,b]` against
/// `once[1,b]` over one workload, same run relation, same deltas.
pub fn t6_ablation(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T6",
        "stamps kept, once[0,b] (a key's newest end) vs once[1,b] (every covered state)",
        &["b", "[0,b] ts", "[1,b] ts", "[0,b] step", "[1,b] step"],
    );
    t.note("claim: with a = 0 only a key's newest stamp can witness, so space is 1 stamp per key;");
    t.note("with a > 0 every covered state of the last b ticks can, up to b + 1 per key");
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
        let mut stamps = Vec::new();
        let mut steps = Vec::new();
        for lo in [0, 1] {
            let text = format!("deny hit: base(k) && once[{lo},{b}] ev(k)");
            let c = parse_constraint(&text).expect("T6 constraint parses");
            let mut checker = inc(&c, &g);
            let (mut max_ts, mut times) = (0usize, Vec::new());
            for tr in &g.transitions {
                let s = Instant::now();
                checker
                    .step(tr.time, &tr.update)
                    .expect("generated stream is monotone");
                times.push(s.elapsed().as_secs_f64() * 1e6);
                max_ts = max_ts.max(checker.space().aux_timestamps);
            }
            let tail = &times[times.len() - times.len() / 4 - 1..];
            stamps.push(max_ts.to_string());
            steps.push(fmt_micros(tail.iter().sum::<f64>() / tail.len() as f64));
        }
        t.row([vec![b.to_string()], stamps, steps].concat());
    }
    t
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
        assert!(
            mi.final_space.aux_keys <= domain,
            "aux keys exceeded the domain: {}",
            mi.final_space.aux_keys
        );
        t.row(vec![
            n.to_string(),
            mi.final_space.aux_keys.to_string(),
            domain.to_string(),
            fmt_micros(mi.tail_step_us),
            naive_tuples,
        ]);
    }
    t
}

/// Declares the T8 fleet catalog: `n` unary relations `r0..r{n-1}` (one
/// per constraint, so relevance dispatch can tell the fleet apart) plus a
/// shared `audit` relation only a stream's first update may touch.
pub fn fleet_catalog(n: usize) -> Arc<rtic_relation::Catalog> {
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
pub struct FleetShape {
    /// Table label.
    pub label: &'static str,
    /// Lower bound of the window.
    pub lo: u64,
    /// What `audit` holds from the first update on.
    pub audit: &'static [&'static str],
}

/// The shape every earlier T8 table ran: a window that only ever loses
/// tuples on a tick, over a relation that is never populated — nothing is
/// stored, nothing is violated, an untouched engine sleeps for good.
pub const FLEET_EMPTY: FleetShape = FleetShape {
    label: "once[0,8], audit empty",
    lo: 0,
    audit: &[],
};

/// The honest shape: stamps age *into* `once[2,8]`, `audit` holds half of
/// the stream's values — so every engine stores a full deque per key and
/// reports live violations — and an untouched engine sleeps only until
/// its next window deadline, replaying those violations meanwhile.
pub const FLEET_AUDITED: FleetShape = FleetShape {
    label: "once[2,8], audit populated",
    lo: 2,
    audit: &["v0", "v1", "v2"],
};

/// One constraint per relation, `deny c_i: r_i(x) && once[lo,8] audit(x)`.
pub fn fleet_constraints(n: usize, shape: FleetShape) -> Vec<Constraint> {
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
pub fn fleet_stream(n: usize, affected: usize, steps: usize, shape: FleetShape) -> Vec<Transition> {
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

/// Catalog for the batch-exec workload: the paper's two reservation
/// relations, both keyed by passenger and flight.
pub fn reservations_catalog() -> Arc<rtic_relation::Catalog> {
    let mut cat = rtic_relation::Catalog::new();
    for name in ["reserved", "confirmed"] {
        cat.declare(name, Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]))
            .expect("the two relation names are distinct");
    }
    Arc::new(cat)
}

/// The motivating deadline constraint over [`reservations_catalog`].
pub fn deadline_constraint() -> Constraint {
    parse_constraint(
        "deny unconfirmed: reserved(p, f) && once[2,*] reserved(p, f) && !once confirmed(p, f)",
    )
    .expect("the motivating constraint parses")
}

/// The paper's form of the deadline constraint (ROADMAP item 1, row (b)):
/// the confirmation must come within two ticks — a *bounded* window.
pub fn metric_constraint() -> Constraint {
    parse_constraint(
        "deny unconfirmed: reserved(p, f) && !once[0,2] confirmed(p, f) && once[2,*] reserved(p, f)",
    )
    .expect("the paper-form constraint parses")
}

/// An ingestion stream for the batch-exec curve: per step,
/// `events_per_step` fresh reservations land over an `entities`-sized
/// key domain; last step's keys are confirmed, except a deterministic
/// straggler per 64 keys that instead fires a real violation at age 2
/// and is cancelled one step later. The live `reserved`/`confirmed`
/// relations grow toward `entities` rows — the active domain the curve
/// sweeps — while per-step deltas stay `O(events_per_step)`, which is
/// exactly the shape where version-keyed memo refresh beats the
/// global-stamp rescan. `seed` rotates which keys straggle.
pub fn batch_stream(
    entities: usize,
    steps: usize,
    events_per_step: usize,
    seed: u64,
) -> Vec<Transition> {
    let events = events_per_step.max(1);
    let key = |i: usize| i % entities.max(1);
    let straggler = |k: usize| (k as u64).wrapping_add(seed).is_multiple_of(64);
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
    for shape in [FLEET_EMPTY, FLEET_AUDITED] {
        for &(n, affected) in &fleets {
            let cat = fleet_catalog(n);
            let constraints = fleet_constraints(n, shape);
            let stream = fleet_stream(n, affected, steps, shape);

            // Baseline: one independent checker per constraint, through
            // the compiled plans and through the interpreting executor
            // (which isolates the plan layer's contribution at fleet scale).
            let independent = |options: EncodingOptions| {
                let mut singles: Vec<IncrementalChecker> = constraints
                    .iter()
                    .map(|c| {
                        IncrementalChecker::with_options(c.clone(), Arc::clone(&cat), options)
                            .expect("generated constraint compiles")
                    })
                    .collect();
                let start = Instant::now();
                for tr in &stream {
                    for s in &mut singles {
                        s.step(tr.time, &tr.update)
                            .expect("generated stream is monotone");
                    }
                }
                start.elapsed()
            };
            let planned = independent(EncodingOptions::default());
            let interpreted = independent(EncodingOptions {
                interpret_eval: true,
                ..EncodingOptions::default()
            });

            let mut set = ConstraintSet::new(constraints.iter().cloned(), Arc::clone(&cat))
                .map_err(|(_, e)| e)
                .expect("generated constraint compiles");
            let start = Instant::now();
            for tr in &stream {
                set.step(tr.time, &tr.update)
                    .expect("generated stream is monotone");
            }
            let seq = start.elapsed();
            let stats = set.dispatch_stats();

            let per_step = |d: std::time::Duration| d.as_secs_f64() * 1e6 / steps as f64;
            let asleep = 100.0 * stats.skipped as f64 / stats.total().max(1) as f64;
            t.row(vec![
                shape.label.to_string(),
                n.to_string(),
                affected.to_string(),
                fmt_micros(per_step(planned)),
                fmt_micros(per_step(interpreted)),
                fmt_micros(per_step(seq)),
                format!("{asleep:.0}%"),
            ]);
        }
    }
    t
}

/// The motivating-constraint reservations run with an observer attached:
/// the experiment harness's entry point for external telemetry (`--metrics`
/// / `--trace` on the experiments binary). Returns the incremental
/// checker's measurement; every step and space poll also flows to `obs`.
pub fn telemetry_run(
    scale: &Scale,
    obs: &mut dyn rtic_core::observe::StepObserver,
) -> RunMeasurement {
    let g = reservations_at(scale.run_length);
    let c = motivating_constraint();
    crate::measure::run_instrumented_observed(&mut inc(&c, &g), &g.transitions, 16, obs)
}

/// Runs every experiment at `scale`, in id order.
pub fn all_tables(scale: &Scale) -> Vec<Table> {
    vec![
        t1_space(scale),
        f1_step_latency(scale),
        t2_bound_space(scale),
        f2_bound_time(scale),
        t3a_update_scaling(scale),
        t3b_state_scaling(scale),
        t4_detection(scale),
        f3_throughput(scale),
        t5_active_overhead(scale),
        t6_ablation(scale),
        t7_adom_bound(scale),
        t8_constraint_scaling(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: every experiment runs at tiny scale and produces rows.
    #[test]
    fn all_experiments_run_at_tiny_scale() {
        let scale = Scale {
            history_lengths: vec![40, 80],
            naive_cap: 80,
            bounds: vec![3, 6],
            update_sizes: vec![4, 8],
            resident_sizes: vec![200, 400],
            run_length: 50,
            fleet_sizes: vec![2, 4],
        };
        for table in all_tables(&scale) {
            assert!(!table.rows.is_empty(), "{} has no rows", table.id);
            let rendered = table.render();
            assert!(rendered.contains(table.id));
        }
    }

    #[test]
    fn t1_shows_the_separation() {
        let scale = Scale {
            history_lengths: vec![50, 200],
            naive_cap: 200,
            bounds: vec![],
            update_sizes: vec![],
            resident_sizes: vec![],
            run_length: 50,
            fleet_sizes: vec![],
        };
        let t = t1_space(&scale);
        let small: usize = t.rows[0][3].parse().unwrap();
        let large: usize = t.rows[1][3].parse().unwrap();
        assert!(large > 2 * small, "naive space must grow with n");
        let inc_small: usize = t.rows[0][1].parse().unwrap();
        let inc_large: usize = t.rows[1][1].parse().unwrap();
        assert!(
            inc_large <= inc_small * 2,
            "encoding space must not grow with n ({inc_small} -> {inc_large})"
        );
    }
}
