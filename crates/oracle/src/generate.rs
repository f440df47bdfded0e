//! Random Past-MTL constraints and histories, biased toward the places
//! real-time checkers break.
//!
//! Formulas are built as a generator atom conjoined with random temporal
//! and relational conjuncts — or, one draw in five, taken whole from
//! [`TEMPLATES`], the shapes that conjoining cannot build — then validated
//! through [`CompiledConstraint::compile`] (which enforces the safe-range
//! rules); unsafe draws are retried deterministically. Metric intervals
//! are biased toward the boundary values the literature singles out: `0`,
//! `a == b` (point intervals), and bounds that coincide with the formula's
//! horizon.
//! Histories mix dense timestamp clusters, horizon-expiring clock gaps,
//! relation churn against the live state (a tuple now and then deleted
//! and re-inserted by one update), empty updates (pure ticks), and
//! *sleep runs*: stretches that leave the constraint's relations alone
//! while the clock lands on, just before and just past its window edges —
//! where an engine asleep until its next deadline must wake on time. A
//! [`HistoryBias::Resident`] history (every case under that bias, a
//! quarter of them otherwise) instead loads a resident table first and
//! then steps small deltas over it with gaps that cross every interval
//! bound: the shape under which windows keep open runs and probes keep
//! their input partitioned, advanced by row deltas, expiry-index pops and
//! flips rather than rebuilt.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_core::CompiledConstraint;
use rtic_history::gen::GapKind;
use rtic_history::Transition;
use rtic_relation::{Catalog, Schema, Sort, Symbol, Tuple, Update, Value};
use rtic_temporal::analysis::Horizon;
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::{var, CmpOp, Constraint, Formula, Interval, Term, TimePoint};

use crate::derive_seed;

/// Which histories a run draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryBias {
    /// Small, churn-heavy histories; a quarter of them over a resident
    /// load.
    Churn,
    /// Every history: a resident load, then small deltas over it, gaps
    /// crossing every bound.
    Resident,
}

impl HistoryBias {
    /// Parses a `--bias` value.
    pub fn parse(s: &str) -> Result<HistoryBias, String> {
        match s {
            "churn" => Ok(HistoryBias::Churn),
            "resident" => Ok(HistoryBias::Resident),
            other => Err(format!("unknown history bias `{other}` (churn|resident)")),
        }
    }
}

/// Tuning knobs for case generation.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Maximum number of conjuncts beyond the generator atom (also caps
    /// temporal nesting depth).
    pub max_formula_depth: usize,
    /// Maximum history length (transitions per case).
    pub max_steps: usize,
    /// Values are drawn from `0..domain` (a resident load from a wider
    /// range).
    pub domain: i64,
    /// Which histories to draw.
    pub bias: HistoryBias,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_formula_depth: 4,
            max_steps: 24,
            domain: 4,
            bias: HistoryBias::Churn,
        }
    }
}

/// One generated differential-test case: a constraint and a history over a
/// shared catalog, reproducible from `seed` alone.
#[derive(Clone, Debug)]
pub struct Case {
    /// Case index within its run.
    pub index: usize,
    /// The derived per-case seed (everything below is a function of it).
    pub seed: u64,
    /// The relations in play.
    pub catalog: Arc<Catalog>,
    /// The constraint under test.
    pub constraint: Constraint,
    /// The history to check.
    pub transitions: Vec<Transition>,
}

/// The relation no generated constraint reads: updates confined to it
/// are quiescent for the constraint under test, and the fleet modes'
/// companion constraints read nothing else.
pub const SPARE: &str = "s0";

/// The fixed case catalog: two unary relations and one binary relation
/// over `int` for the constraint, `r3` pairing an `int` key with a `str`
/// payload (only [`TEMPLATES`] read it), plus [`SPARE`].
pub fn case_catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::new()
            .with("r0", Schema::of(&[("a", Sort::Int)]))
            .expect("fresh catalog accepts r0")
            .with("r1", Schema::of(&[("a", Sort::Int)]))
            .expect("fresh catalog accepts r1")
            .with("r2", Schema::of(&[("a", Sort::Int), ("b", Sort::Int)]))
            .expect("fresh catalog accepts r2")
            .with(
                STR_RELATION,
                Schema::of(&[("a", Sort::Int), ("b", Sort::Str)]),
            )
            .expect("fresh catalog accepts r3")
            .with(SPARE, Schema::of(&[("a", Sort::Int)]))
            .expect("fresh catalog accepts the spare relation"),
    )
}

const UNARY: [&str; 2] = ["r0", "r1"];

/// The relation with a `str` column. A history churns it only when the
/// constraint reads it, so the `int` relations keep their share of every
/// other history's churn.
const STR_RELATION: &str = "r3";

/// The `str` values, indexed by the drawn number: the `\"`, `\\` and `\n`
/// escapes the log, checkpoint, protocol and report writers know, and a
/// raw tab.
const STRINGS: [&str; 4] = ["a", "say \"hi\"", "back\\slash\nline", "tab\there"];

/// The value number `n` stands for in a column of sort `sort`.
fn value(sort: Sort, n: i64) -> Value {
    match sort {
        Sort::Int => Value::Int(n),
        Sort::Str => Value::str(STRINGS[n.rem_euclid(STRINGS.len() as i64) as usize]),
        Sort::Bool => Value::Bool(n % 2 == 1),
    }
}

/// Whole-body shapes the conjunct generator cannot build: nested windows
/// (the peephole optimizer's rewrite triggers), `since` over temporal
/// operands, quantifiers, a top-level disjunction, and `r3`'s `str`
/// column. `{i}` and `{j}` are replaced by boundary intervals; every
/// template compiles under every interval (`every_template_compiles`),
/// which is why `hist hist` carries no intervals: with them, most draws
/// fail the safe-range rules.
pub const TEMPLATES: &[&str] = &[
    "r0(x) && once{i} once{j} r1(x)",
    "r0(x) && hist hist r1(x)",
    "r0(x) && hist{i} once{j} r1(x)",
    "(once{i} r1(x)) since{j} r0(x)",
    "(hist{i} r1(x)) since{j} r1(x)",
    "once{i} (r1(x) since{j} r0(x))",
    "exists y . r2(x, y) && once{i} r0(x)",
    "r0(x) && !(exists z . r2(x, z))",
    "once{i} exists y . r2(x, y)",
    "r0(x) || once{i} r1(x)",
    "(r0(x) && !once{i} r1(x)) || (r1(x) && prev{j} r0(x))",
    "r3(x, s) && !once{i} r3(x, s)",
    "r3(x, s) && hist{i} r3(x, s)",
    "exists s . r3(x, s) && once{i} (r3(x, s) && r1(x))",
];

/// Draws one of [`TEMPLATES`] with fresh boundary intervals.
fn template(rng: &mut StdRng, name: &str) -> Constraint {
    let body = TEMPLATES[rng.gen_range(0..TEMPLATES.len())]
        .replace("{i}", &boundary_interval(rng).to_string())
        .replace("{j}", &boundary_interval(rng).to_string());
    parse_constraint(&format!("deny {name}: {body}")).expect("templates parse")
}

/// The small bound pool intervals draw from, heavily weighted toward 0
/// and adjacent values — off-by-one bugs live at small bounds.
const BOUNDS: [u64; 8] = [0, 0, 1, 1, 2, 3, 5, 8];

fn pick_bound(rng: &mut StdRng) -> u64 {
    BOUNDS[rng.gen_range(0..BOUNDS.len())]
}

/// Draws a metric interval with boundary bias: point intervals (`[0,0]`,
/// `[a,a]`), zero lower bounds, unbounded tails, and small finite spans.
pub fn boundary_interval(rng: &mut StdRng) -> Interval {
    match rng.gen_range(0u32..10) {
        0 => Interval::exactly(0),
        1 | 2 => Interval::exactly(pick_bound(rng)),
        3 | 4 => Interval::up_to(pick_bound(rng)),
        5 | 6 => {
            let a = pick_bound(rng);
            let b = a + pick_bound(rng);
            Interval::bounded(a, b).unwrap_or_else(|_| Interval::exactly(a))
        }
        7 => Interval::at_least(pick_bound(rng)),
        8 => Interval::all(),
        _ => Interval::up_to(1 + pick_bound(rng)),
    }
}

fn unary_atom(rng: &mut StdRng, v: &str) -> Formula {
    Formula::atom(UNARY[rng.gen_range(0..UNARY.len())], [Term::var(v)])
}

/// One random conjunct over variables already bound by the generator atom.
/// `binds_y` says whether `y` is in scope (base atom was binary).
fn conjunct(rng: &mut StdRng, cfg: &GenConfig, binds_y: bool) -> Formula {
    match rng.gen_range(0u32..9) {
        // once[I] a(x) — a temporal generator conjunct.
        0 => unary_atom(rng, "x").once(boundary_interval(rng)),
        // !once[I] a(x) — guarded negation (x bound by the base atom).
        1 => unary_atom(rng, "x").once(boundary_interval(rng)).not(),
        // prev[I] a(x).
        2 => unary_atom(rng, "x").prev(boundary_interval(rng)),
        // hist[I] a(x) — a filter; x is generator-bound.
        3 => unary_atom(rng, "x").hist(boundary_interval(rng)),
        // a(x) since[I] b(x) — lhs free vars ⊆ anchor free vars.
        4 => {
            let lhs = unary_atom(rng, "x");
            let anchor = unary_atom(rng, "x");
            lhs.since(boundary_interval(rng), anchor)
        }
        // Nested temporal: once[I] (prev[J] a(x)).
        5 => unary_atom(rng, "x")
            .prev(boundary_interval(rng))
            .once(boundary_interval(rng)),
        // Comparison against a constant (x is bound).
        6 => {
            let op = [CmpOp::Le, CmpOp::Ne, CmpOp::Lt][rng.gen_range(0..3usize)];
            Formula::cmp(op, Term::var("x"), Term::int(rng.gen_range(0..cfg.domain)))
        }
        // count z . r2(x, z) >= k (k ≥ 1: zero-satisfying counts are unsafe).
        7 => Formula::atom("r2", [Term::var("x"), Term::var("z")]).count_cmp(
            [var("z")],
            CmpOp::Ge,
            rng.gen_range(1..=2),
        ),
        // Balanced disjunction (both branches bind exactly {x}), or a
        // binary-relation conjunct when y is in scope.
        _ => {
            if binds_y && rng.gen_bool(0.5) {
                Formula::atom("r2", [Term::var("x"), Term::var("y")]).once(boundary_interval(rng))
            } else {
                Formula::atom("r0", [Term::var("x")]).or(Formula::atom("r1", [Term::var("x")]))
            }
        }
    }
}

/// Builds one random safe denial constraint: one draw in five is a
/// [`TEMPLATES`] body, the rest conjoin random conjuncts onto a generator
/// atom. Candidates that fail safe-range compilation are redrawn
/// (deterministically); after a bounded number of attempts a known-safe
/// fallback is used.
pub fn random_constraint(
    rng: &mut StdRng,
    cfg: &GenConfig,
    catalog: &Arc<Catalog>,
    name: &str,
) -> Constraint {
    for _ in 0..64 {
        if rng.gen_bool(0.2) {
            return template(rng, name);
        }
        let binary_base = rng.gen_bool(0.4);
        let base = if binary_base {
            Formula::atom("r2", [Term::var("x"), Term::var("y")])
        } else {
            unary_atom(rng, "x")
        };
        let extras = rng.gen_range(1..=cfg.max_formula_depth.max(1));
        let mut body = base;
        for _ in 0..extras {
            body = body.and(conjunct(rng, cfg, binary_base));
        }
        let candidate = Constraint::deny(name, body);
        if CompiledConstraint::compile(candidate.clone(), Arc::clone(catalog)).is_ok() {
            return candidate;
        }
    }
    // Safe under every rule: generator atom plus a bounded once.
    let fallback = Formula::atom("r0", [Term::var("x")])
        .and(Formula::atom("r1", [Term::var("x")]).once(Interval::up_to(2)));
    Constraint::deny(name, fallback)
}

/// The largest finite metric bound mentioned in the constraint (for
/// horizon-expiring gap sizing); falls back to 8 for unbounded bodies.
fn horizon_of(constraint: &Constraint, catalog: &Arc<Catalog>) -> u64 {
    match CompiledConstraint::compile(constraint.clone(), Arc::clone(catalog)) {
        Ok(c) => match c.horizon {
            Horizon::Finite(d) => d.0.max(1),
            Horizon::Unbounded => 8,
        },
        Err(_) => 8,
    }
}

/// The offsets from a stored timestamp `s` at which a window of the
/// constraint changes its answer: `a` (the stamp ages in) and `b + 1` (it
/// ages out) for every metric interval `[a, b]` in the body.
fn window_edges(constraint: &Constraint) -> Vec<u64> {
    // (A constraint without metric operators still gets single ticks.)
    let mut edges = vec![1];
    constraint.body.visit(&mut |f| {
        if let Some(i) = f.interval() {
            edges.push(i.lo().0);
            edges.extend(i.hi().finite().map(|b| b.0 + 1));
        }
    });
    edges
}

/// Generates a random history for `constraint`: clustered timestamps with
/// occasional horizon-expiring gaps, inserts/deletes churning against the
/// live relation contents, empty updates (pure clock ticks), and — after
/// a burst — sleep runs of `1 ..= horizon + 3` consecutive steps that are
/// empty or touch only relations the constraint does not read, their
/// gaps mixing single ticks with jumps that land exactly on, one before
/// and one past a window edge (`s + a`, `s + b + 1`) of an earlier state.
pub fn random_history(
    rng: &mut StdRng,
    cfg: &GenConfig,
    catalog: &Arc<Catalog>,
    constraint: &Constraint,
) -> Vec<Transition> {
    let horizon = horizon_of(constraint, catalog);
    let edges = window_edges(constraint);
    let read = constraint.body.relations();
    let steps = rng.gen_range(1..=cfg.max_steps.max(1));
    let mut t = rng.gen_range(0u64..=2);
    // Resident: enough rows that probes keep their input partitioned.
    let resident = cfg.bias == HistoryBias::Resident || rng.gen_bool(0.25);
    let rows = if resident { rng.gen_range(64..=160) } else { 0 };
    let domain = if resident { 2 * rows } else { cfg.domain };

    let names: Vec<(Symbol, Vec<Sort>)> = {
        let mut v: Vec<_> = catalog
            .names()
            .filter(|n| n.as_str() != STR_RELATION || read.contains(n))
            .map(|n| {
                let sorts = catalog.schema_of(n).map(|s| s.sorts().collect());
                (n, sorts.unwrap_or_default())
            })
            .collect();
        v.sort();
        v
    };
    // A row from its first column's number and the rest's: the first
    // column ranges over the whole domain, later ones over `cfg.domain`.
    let row = |sorts: &[Sort], first: i64, rest: i64| {
        let numbers = std::iter::once(first).chain(std::iter::repeat(rest));
        Tuple::new(sorts.iter().zip(numbers).map(|(&s, n)| value(s, n)))
    };
    let unread: Vec<usize> = (0..names.len())
        .filter(|&ri| !read.contains(&names[ri].0))
        .collect();
    // Live contents per relation, mirrored so deletes can target tuples
    // that are actually present (real churn, not no-op deletes).
    let mut live: Vec<BTreeSet<Tuple>> = names.iter().map(|_| BTreeSet::new()).collect();
    let mut load = Update::new();
    for (ri, (name, sorts)) in names.iter().enumerate() {
        for v in 0..rows {
            let tup = row(sorts, v, v % cfg.domain);
            load.insert(*name, tup.clone());
            live[ri].insert(tup);
        }
    }
    let mut churn = |rng: &mut StdRng, update: &mut Update, ri: usize| {
        let (name, sorts) = &names[ri];
        let name = *name;
        let delete_existing = !live[ri].is_empty() && rng.gen_bool(0.35);
        if delete_existing {
            let k = rng.gen_range(0..live[ri].len());
            let victim = live[ri]
                .iter()
                .nth(k)
                .cloned()
                .expect("index within live set");
            update.delete(name, victim.clone());
            // Now and then the same update puts it back: no change.
            if rng.gen_bool(0.25) {
                update.insert(name, victim);
            } else {
                live[ri].remove(&victim);
            }
        } else {
            let tup = row(
                sorts,
                rng.gen_range(0..domain),
                rng.gen_range(0..cfg.domain),
            );
            update.insert(name, tup.clone());
            live[ri].insert(tup);
        }
    };

    let mut out: Vec<Transition> = Vec::with_capacity(steps + 1);
    if resident {
        out.push(Transition::new(TimePoint(t), load));
    }
    for i in 0..steps {
        if i > 0 || resident {
            let gap = match rng.gen_range(0u32..10) {
                // Over a resident load: land on, before and past an edge.
                _ if resident && rng.gen_bool(0.5) => {
                    let edge = edges[rng.gen_range(0..edges.len())];
                    GapKind::Step((edge + rng.gen_range(0u64..3)).saturating_sub(1).max(1))
                }
                0..=4 => GapKind::Cluster,
                5..=7 => GapKind::Step(rng.gen_range(1..=3)),
                _ => GapKind::BeyondHorizon {
                    horizon,
                    extra: rng.gen_range(0..=2),
                },
            };
            t = t.saturating_add(gap.advance());
        }
        let mut update = Update::new();
        if !rng.gen_bool(0.15) {
            for _ in 0..rng.gen_range(1..=3) {
                let ri = rng.gen_range(0..names.len());
                churn(rng, &mut update, ri);
            }
        }
        let burst = !update.is_empty();
        out.push(Transition::new(TimePoint(t), update));
        if !(burst && rng.gen_bool(0.3)) {
            continue;
        }
        for _ in 0..rng.gen_range(1..=horizon + 3) {
            // Aim at an edge of some earlier state, or just tick.
            let stamp = out[rng.gen_range(0..out.len())].time.0;
            let edge = stamp + edges[rng.gen_range(0..edges.len())];
            let aim = (edge + rng.gen_range(0u64..3)).saturating_sub(1);
            t = if rng.gen_bool(0.5) && aim > t {
                aim
            } else {
                t + 1
            };
            let mut update = Update::new();
            if !unread.is_empty() && rng.gen_bool(0.5) {
                let ri = unread[rng.gen_range(0..unread.len())];
                churn(rng, &mut update, ri);
            }
            out.push(Transition::new(TimePoint(t), update));
        }
    }
    out
}

/// Builds case `index` of the run seeded by `base_seed`.
pub fn case(base_seed: u64, index: usize, cfg: &GenConfig) -> Case {
    let seed = derive_seed(base_seed, index as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = case_catalog();
    let name = format!("c{index}");
    let constraint = random_constraint(&mut rng, cfg, &catalog, &name);
    let transitions = random_history(&mut rng, cfg, &catalog, &constraint);
    Case {
        index,
        seed,
        catalog,
        constraint,
        transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let cfg = GenConfig::default();
        let a = case(42, 7, &cfg);
        let b = case(42, 7, &cfg);
        assert_eq!(a.constraint, b.constraint);
        assert_eq!(a.transitions, b.transitions);
        let c = case(42, 8, &cfg);
        assert!(c.constraint != a.constraint || c.transitions != a.transitions);
    }

    #[test]
    fn generated_constraints_compile() {
        let cfg = GenConfig::default();
        for i in 0..50 {
            let c = case(1, i, &cfg);
            CompiledConstraint::compile(c.constraint.clone(), Arc::clone(&c.catalog))
                .expect("generated constraint must be safe");
        }
    }

    #[test]
    fn histories_are_strictly_increasing_and_apply_cleanly() {
        let cfg = GenConfig::default();
        for i in 0..50 {
            let c = case(3, i, &cfg);
            let mut db = rtic_relation::Database::new(Arc::clone(&c.catalog));
            let mut last = None;
            for t in &c.transitions {
                if let Some(prev) = last {
                    assert!(t.time > prev);
                }
                last = Some(t.time);
                db.apply(&t.update).expect("update applies");
            }
        }
    }

    #[test]
    fn sleep_runs_leave_the_constraint_alone_and_land_on_window_edges() {
        // Across a batch of cases: many steps are quiescent for the
        // constraint (empty, or touching only relations it does not read),
        // they come in runs, and their clock lands exactly on, one before
        // and one past an edge of an earlier state.
        let cfg = GenConfig::default();
        let (mut quiet, mut longest, mut landed) = (0usize, 0usize, [0usize; 3]);
        for i in 0..100 {
            let c = case(5, i, &cfg);
            let read = c.constraint.body.relations();
            let edges = window_edges(&c.constraint);
            let mut run = 0;
            for (n, t) in c.transitions.iter().enumerate() {
                let touched = t.update.inserts().chain(t.update.deletes());
                let touches = touched.into_iter().any(|(rel, _)| read.contains(&rel));
                run = if touches { 0 } else { run + 1 };
                quiet += usize::from(!touches);
                longest = longest.max(run);
                for (earlier, edge) in c.transitions[..n].iter().zip(edges.iter().cycle()) {
                    let at = earlier.time.0 + edge;
                    for (k, hit) in landed.iter_mut().enumerate() {
                        *hit += usize::from(t.time.0 + 1 == at + k as u64);
                    }
                }
            }
        }
        assert!(quiet > 400, "only {quiet} quiescent steps");
        assert!(longest >= 8, "longest quiescent run: {longest}");
        assert!(landed.iter().all(|&n| n > 50), "edge landings: {landed:?}");
    }

    #[test]
    fn every_template_compiles() {
        // Each template, under every interval shape the generator draws.
        let catalog = case_catalog();
        let mut rng = StdRng::seed_from_u64(17);
        for t in TEMPLATES {
            for _ in 0..40 {
                let body = t
                    .replace("{i}", &boundary_interval(&mut rng).to_string())
                    .replace("{j}", &boundary_interval(&mut rng).to_string());
                let c = parse_constraint(&format!("deny t: {body}")).expect("parses");
                CompiledConstraint::compile(c, Arc::clone(&catalog))
                    .unwrap_or_else(|e| panic!("`{body}` does not compile: {e}"));
            }
        }
    }

    #[test]
    fn interval_bias_hits_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut point = 0;
        let mut zero_lo = 0;
        for _ in 0..500 {
            let i = boundary_interval(&mut rng);
            if let rtic_temporal::UpperBound::Finite(h) = i.hi() {
                if h == i.lo() {
                    point += 1;
                }
            }
            if i.lo().0 == 0 {
                zero_lo += 1;
            }
        }
        assert!(point > 50, "point intervals should be common, got {point}");
        assert!(
            zero_lo > 150,
            "zero lower bounds should be common, got {zero_lo}"
        );
    }
}
