//! Human-readable compilation reports ("explain plans") for constraints.
//!
//! Shows what the checker will actually do: the normalized denial body,
//! the violation-witness schema, the lookback horizon, the auxiliary
//! strategy chosen per temporal subformula (with the paper's per-key space
//! bound), and the conjunct evaluation order with generator/filter roles.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use rtic_temporal::analysis::per_key_timestamp_bound;
use rtic_temporal::ast::{Formula, Var};
use rtic_temporal::time::UpperBound;
use rtic_temporal::typecheck::typecheck;
use rtic_temporal::{safety, Horizon};

use crate::compile::{CompiledConstraint, NameOrder};
use crate::plan::PlanProfile;

/// `vars` by name, the order everything printed lists variables in (a
/// compiled body's variables sort by rank).
fn by_name(vars: &BTreeSet<Var>) -> Vec<Var> {
    let vs: Vec<Var> = vars.iter().copied().collect();
    NameOrder::of(&vs).columns().map(|c| vs[c]).collect()
}

fn vars_of(f: &Formula) -> String {
    let vs: Vec<String> = by_name(&f.free_vars())
        .iter()
        .map(|v| v.to_string())
        .collect();
    if vs.is_empty() {
        "∅".into()
    } else {
        vs.join(", ")
    }
}

/// Renders the explain plan for a compiled constraint.
pub fn explain(compiled: &CompiledConstraint) -> String {
    let mut out = String::new();
    let c = &compiled.constraint;
    let _ = writeln!(out, "constraint : {c}");
    let _ = writeln!(out, "denial body: {}", compiled.body);
    // Witness schema.
    let sorts =
        typecheck(&compiled.body, &compiled.catalog).expect("compiled constraints typecheck");
    let witness: Vec<String> = by_name(&compiled.body.free_vars())
        .into_iter()
        .map(|v| match sorts.get(&v) {
            Some(s) => format!("{v}: {s}"),
            None => v.to_string(),
        })
        .collect();
    let _ = writeln!(
        out,
        "witnesses  : ({})",
        if witness.is_empty() {
            "closed — yes/no".into()
        } else {
            witness.join(", ")
        }
    );
    let _ = writeln!(
        out,
        "horizon    : {}",
        match compiled.horizon {
            Horizon::Finite(d) => format!("{d} ticks (windowed checking is exact)"),
            Horizon::Unbounded => "unbounded (aux space bounded by the active domain)".into(),
        }
    );
    // Temporal nodes.
    if compiled.nodes.is_empty() {
        let _ = writeln!(out, "aux state  : none (first-order constraint)");
    } else {
        let _ = writeln!(
            out,
            "aux state  : {} temporal node(s)",
            compiled.nodes.len()
        );
        for (i, node) in compiled.nodes.iter().enumerate() {
            let strategy = match node {
                Formula::Prev(iv, _) => {
                    format!("previous-state rows, age gate {iv}")
                }
                Formula::Once(iv, _) | Formula::Since(iv, _, _) => {
                    let what = if matches!(node, Formula::Once(..)) {
                        "witness"
                    } else {
                        "anchor"
                    };
                    match (iv.lo().0, iv.hi()) {
                        (_, UpperBound::Infinite) => {
                            format!("{what} runs per key; the first start is the stamp (b = ∞)")
                        }
                        (0, _) => {
                            format!("{what} runs per key; the newest end is the stamp (a = 0)")
                        }
                        (_, UpperBound::Finite(b)) => format!(
                            "{what} runs per key over the last {} ticks' states (≤ {} stamps/key)",
                            b.0,
                            b.0 + 1
                        ),
                    }
                }
                Formula::Hist(iv, _) if iv.is_bounded() => {
                    "satisfaction runs per key + shared recent-state times (filter)".into()
                }
                Formula::Hist(..) => "the run from the first state per key (filter)".into(),
                other => unreachable!("non-temporal node `{other}`"),
            };
            let _ = writeln!(out, "  [{i}] {node}");
            let _ = writeln!(out, "      keys({}); {strategy}", vars_of(node));
            let _ = writeln!(out, "      untouched: {}", sleep_rule(node));
        }
        let _ = writeln!(
            out,
            "per-key stamp bound: {}",
            match per_key_timestamp_bound(&compiled.body) {
                UpperBound::Finite(d) => format!("{d}"),
                UpperBound::Infinite => "unbounded".into(),
            }
        );
    }
    // Conjunct plan of the top-level body — read straight off the compiled
    // evaluation plan, so the report shows exactly the order the planned
    // executor runs (no separate re-derivation that could drift).
    let conjuncts = safety::flatten_and(&compiled.body);
    if conjuncts.len() > 1 {
        let order = compiled
            .plans
            .body
            .root_conjunct_order()
            .expect("a multi-conjunct body compiles to a conjunction plan");
        let _ = writeln!(out, "evaluation plan:");
        let mut bound: BTreeSet<Var> = BTreeSet::new();
        for (step, &i) in order.iter().enumerate() {
            let f = conjuncts[i];
            let fresh: Vec<String> = by_name(&f.free_vars().difference(&bound).copied().collect())
                .iter()
                .map(|v| v.to_string())
                .collect();
            let role = if fresh.is_empty() {
                "filter".to_string()
            } else {
                format!("generates {}", fresh.join(", "))
            };
            let _ = writeln!(out, "  {}. {f}  — {role}", step + 1);
            bound.extend(f.free_vars());
        }
    }
    out
}

/// What a temporal node does while its constraint's relations are left
/// alone — how long it lets the engine sleep, or why it declines (the
/// per-operator `next_change` rules of [`crate::encode`]).
fn sleep_rule(node: &Formula) -> String {
    match node {
        Formula::Prev(iv, _) if iv.lo().0 <= 1 && !iv.is_bounded() => {
            "sleeps once two states in a row agree".into()
        }
        Formula::Prev(..) => "declines to sleep (every gap can open or shut the age gate)".into(),
        Formula::Once(iv, _) | Formula::Since(iv, _, _) => {
            let mut edges = Vec::new();
            if iv.lo().0 > 0 {
                edges.push(format!("ages in (s + {})", iv.lo()));
            }
            if let UpperBound::Finite(b) = iv.hi() {
                edges.push(format!("ages out (s + {})", b.0 + 1));
            }
            let until = if edges.is_empty() {
                "sleeps indefinitely".to_string()
            } else {
                format!("sleeps until a stamp {}", edges.join(" or "))
            };
            if matches!(node, Formula::Since(..)) {
                format!("{until}; declines right after a fresh anchor")
            } else {
                until
            }
        }
        Formula::Hist(iv, _) if iv.is_bounded() => {
            "sleeps until a stored state enters or leaves the window".into()
        }
        Formula::Hist(iv, _) if iv.lo().0 == 0 => "sleeps indefinitely".into(),
        Formula::Hist(iv, _) => format!("sleeps until the oldest recent state ages {}", iv.lo()),
        other => unreachable!("non-temporal node `{other}`"),
    }
}

/// Pretty nanoseconds: picks the unit a human would.
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

/// Renders a [`PlanProfile`] as an EXPLAIN-ANALYZE-style table: one row
/// per plan node in pre-order, indented by tree depth, with inclusive wall
/// time, share of total plan time, cardinalities, and memo-cache touches.
pub fn render_profile(profile: &PlanProfile) -> String {
    let total = profile.total_time_ns();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan profile ({} node(s), total {}):",
        profile.nodes.len(),
        fmt_ns(total)
    );
    let _ = writeln!(
        out,
        "  {:>9}  {:>6}  {:>8}  {:>9}  {:>9}  {:>9}  node",
        "time", "%", "calls", "rows in", "rows out", "cache h/m"
    );
    for row in &profile.nodes {
        let c = row.counts;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * c.time_ns as f64 / total as f64
        };
        let cache = if c.cache_hits + c.cache_misses == 0 {
            "-".to_string()
        } else {
            format!("{}/{}", c.cache_hits, c.cache_misses)
        };
        let memo = if row.desc.memoized { "*" } else { "" };
        let _ = writeln!(
            out,
            "  {:>9}  {:>5.1}%  {:>8}  {:>9}  {:>9}  {:>9}  {:indent$}{label}{memo}  [{path}]",
            fmt_ns(c.time_ns),
            pct,
            c.calls,
            c.rows_in,
            c.rows_out,
            cache,
            "",
            indent = row.desc.depth * 2,
            label = row.desc.label,
            path = row.desc.path,
        );
    }
    out.push_str("  (* = memoized database-pure subtree; times include children)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{Catalog, Schema, Sort};
    use rtic_temporal::parser::parse_constraint;
    use std::sync::Arc;

    fn compiled(src: &str) -> CompiledConstraint {
        let catalog = Arc::new(
            Catalog::new()
                .with(
                    "reserved",
                    Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]),
                )
                .unwrap()
                .with(
                    "confirmed",
                    Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]),
                )
                .unwrap(),
        );
        CompiledConstraint::compile(parse_constraint(src).unwrap(), catalog).unwrap()
    }

    #[test]
    fn explains_the_motivating_constraint() {
        let text = explain(&compiled(
            "deny unconfirmed: reserved(p, f) && once[2,*] reserved(p, f) \
             && !once confirmed(p, f)",
        ));
        assert!(text.contains("unbounded"), "horizon note: {text}");
        // `once` is `once[0,∞]`: its first start witnesses for good.
        let unbounded = text.matches("the first start is the stamp (b = ∞)");
        assert_eq!(unbounded.count(), 2, "{text}");
        assert!(text.contains("evaluation plan"), "{text}");
        assert!(text.contains("generates"), "{text}");
        assert!(text.contains("filter"), "{text}");
        assert!(text.contains("p: str"), "witness sorts: {text}");
        assert!(
            text.contains("sleeps until a stamp ages in (s + 2)"),
            "{text}"
        );
        assert!(text.contains("untouched: sleeps indefinitely"), "{text}");
    }

    #[test]
    fn explains_general_window_and_hist() {
        let text = explain(&compiled(
            "deny d: reserved(p, f) && once[2,9] confirmed(p, f) \
             && hist[0,4] reserved(p, f)",
        ));
        assert!(text.contains("≤ 10 stamps/key"), "{text}");
        assert!(!text.contains("(a = 0)"), "{text}");
        assert!(text.contains("satisfaction runs"), "{text}");
        assert!(text.contains("9 ticks"), "finite horizon: {text}");
    }

    #[test]
    fn first_order_constraint_has_no_aux() {
        let text = explain(&compiled("deny d: reserved(p, f) && confirmed(p, f)"));
        assert!(text.contains("none (first-order constraint)"), "{text}");
    }

    #[test]
    fn renders_a_profile_table() {
        use crate::{Checker, IncrementalChecker};
        use rtic_relation::{tuple, Update};
        use rtic_temporal::TimePoint;

        let c = compiled(
            "deny unconfirmed: reserved(p, f) && once[2,*] reserved(p, f) \
             && !once confirmed(p, f)",
        );
        let mut checker = IncrementalChecker::from_compiled(
            c,
            crate::EncodingOptions {
                profile_plans: true,
                ..Default::default()
            },
        );
        for t in 1..=5u64 {
            checker
                .step(
                    TimePoint(t),
                    &Update::new().with_insert("reserved", tuple!["ann", 7]),
                )
                .unwrap();
        }
        let profile = checker.plan_profile().expect("profiling enabled");
        let text = render_profile(&profile);
        assert!(text.contains("plan profile"), "{text}");
        assert!(text.contains("atom(reserved)"), "{text}");
        assert!(text.contains("probe("), "probe node rendered: {text}");
        assert!(text.contains("[body"), "node paths rendered: {text}");
        assert!(text.contains('%'), "{text}");
    }

    #[test]
    fn closed_constraint_notes_yes_no() {
        let text = explain(&compiled(
            "deny d: exists p, f . reserved(p, f) && confirmed(p, f)",
        ));
        assert!(text.contains("closed — yes/no"), "{text}");
    }
}
