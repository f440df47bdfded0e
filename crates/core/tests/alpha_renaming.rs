//! What a constraint's variables are called changes nothing but the names
//! it prints.
//!
//! Compiling ranks every variable by its first occurrence in the
//! normalised body (canonical alpha-renaming), and every engine-side
//! column order follows rank; names come back only at the report, explain
//! and checkpoint boundaries. So a seeded injective renaming of a
//! constraint's variables must leave its plan as it was — node count, atom
//! and join shapes, probes, memoized subtrees, and the kind and flags of
//! every plan node — and its reports equal once the witnesses' names are
//! mapped back. Under name order the plan followed the names:
//! `reservations` kept 3 memoized atoms, and none once `(p, f)` was
//! renamed `(a, b)`.
//!
//! Nothing in normalisation orders by name (conjuncts keep their written
//! order, quantified variables are renamed apart by a counter), so the
//! invariance holds with no exception.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtic_core::{Bindings, Checker, CompiledConstraint, IncrementalChecker, PlanStats, StepReport};
use rtic_history::Transition;
use rtic_oracle::generate::case;
use rtic_oracle::GenConfig;
use rtic_relation::{Catalog, Symbol};
use rtic_temporal::ast::Var;
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;
use rtic_workload::library::{self, ScenarioParams};

/// Renames every variable of `c` — free and bound — injectively to a name
/// drawn at random, so the names' order is shuffled too. Returns the
/// renamed constraint and the map from new names back to old.
fn renamed(c: &Constraint, rng: &mut StdRng) -> (Constraint, BTreeMap<Symbol, Symbol>) {
    let mut names = BTreeSet::new();
    c.body.map_vars(&mut |v| {
        names.insert(v.name().as_str());
        v
    });
    let mut pool: Vec<usize> = (0..1000).collect();
    for i in 0..names.len() {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    let to: BTreeMap<Symbol, Symbol> = (names.iter().zip(&pool))
        .map(|(old, n)| (Symbol::intern(old), Symbol::intern(&format!("v{n:03}"))))
        .collect();
    let body = c.body.map_vars(&mut |v| Var::new(to[&v.name()]));
    let back = to.iter().map(|(old, new)| (*new, *old)).collect();
    (Constraint { body, ..c.clone() }, back)
}

/// The plan facts no name can show through: the shape statistics, and
/// each node's position, operator kind and flags.
fn plan_facts(c: &Constraint, catalog: &Arc<Catalog>) -> (PlanStats, Vec<String>) {
    let compiled = CompiledConstraint::compile(c.clone(), Arc::clone(catalog))
        .unwrap_or_else(|e| panic!("`{c}` compiles: {e}"));
    let nodes = compiled.plans.describe().into_iter().map(|d| {
        let kind = d.label.split('(').next().unwrap_or_default().to_string();
        let flags = (d.memoized, d.probe, d.materialize);
        format!("{} {kind} {flags:?}", d.path)
    });
    (compiled.plans.stats(), nodes.collect())
}

/// `report`'s witnesses with their columns named back through `back`.
fn named_back(report: &StepReport, back: &BTreeMap<Symbol, Symbol>) -> Bindings {
    let vars = report
        .violations
        .vars()
        .iter()
        .map(|v| Var::new(back[&v.name()]));
    Bindings::from_rows(vars.collect(), report.violations.rows().cloned())
}

/// Checks `c` and a renaming of it over `transitions`: equal plans, equal
/// reports once named back.
fn assert_invariant(c: &Constraint, catalog: &Arc<Catalog>, transitions: &[Transition], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (r, back) = renamed(c, &mut rng);
    assert_eq!(
        plan_facts(c, catalog),
        plan_facts(&r, catalog),
        "`{c}` and its renaming `{r}` plan differently"
    );
    let mut original = IncrementalChecker::new(c.clone(), Arc::clone(catalog)).unwrap();
    let mut renaming = IncrementalChecker::new(r.clone(), Arc::clone(catalog)).unwrap();
    for t in transitions {
        let want = original.step(t.time, &t.update).unwrap();
        let got = renaming.step(t.time, &t.update).unwrap();
        assert_eq!(
            (got.time, named_back(&got, &back)),
            (want.time, want.violations.clone()),
            "`{r}` (renamed from `{c}`) reports differently at {}",
            t.time
        );
    }
}

#[test]
fn registry_scenarios_plan_and_report_alike_under_any_renaming() {
    let params = ScenarioParams {
        steps: 120,
        ..ScenarioParams::default()
    };
    for scenario in library::all() {
        let generated = scenario.generate(&params);
        for (i, c) in generated.constraints.iter().enumerate() {
            for seed in 0..4 {
                let seed = 1000 * i as u64 + seed;
                assert_invariant(c, &generated.catalog, &generated.transitions, seed);
            }
        }
    }
}

#[test]
fn oracle_constraints_plan_and_report_alike_under_any_renaming() {
    let cfg = GenConfig::default();
    for index in 0..300 {
        let case = case(42, index, &cfg);
        assert_invariant(
            &case.constraint,
            &case.catalog,
            &case.transitions,
            case.seed,
        );
    }
}

#[test]
fn atoms_whose_names_sort_against_their_columns_read_their_relation() {
    // Each atom here lists its variables in first-occurrence order, which
    // name order contradicts: `(f, p)`, `(s, u)`, `(a, i)`.
    let catalog = |relations: &[(&str, &[(&str, rtic_relation::Sort)])]| {
        let mut catalog = Catalog::new();
        for (name, attrs) in relations {
            catalog = catalog
                .with(*name, rtic_relation::Schema::of(attrs))
                .unwrap();
        }
        Arc::new(catalog)
    };
    use rtic_relation::Sort::{Int, Str};
    let cases = [
        (
            "deny aged: reserved(p, f) && once[2,*] reserved(p, f)",
            catalog(&[("reserved", &[("p", Str), ("f", Int)])]),
        ),
        (
            "deny stale_session: session(u, s) && session(u, s) since[8,*] login(u, s)",
            catalog(&[
                ("session", &[("u", Str), ("s", Int)]),
                ("login", &[("u", Str), ("s", Int)]),
            ]),
        ),
        (
            "assert approval: txn(i, a) -> once[0,3] approved(i)",
            catalog(&[
                ("txn", &[("id", Int), ("acct", Str)]),
                ("approved", &[("id", Int)]),
            ]),
        ),
    ];
    for (src, catalog) in cases {
        let c = parse_constraint(src).unwrap();
        let compiled = CompiledConstraint::compile(c, catalog).unwrap();
        assert_eq!(compiled.plans.stats().cached_nodes, 0, "`{src}` memoizes");
    }
}
