//! Horizon-boundary audit for the windowed `NaiveChecker`'s pruning.
//!
//! The checker keeps states with age ≤ h (h = the compiled horizon) by
//! dropping those with timestamp < time − h. Two edges are easy to get
//! wrong by one:
//!
//! * a state at age **exactly h** must be retained — `once[a,h]` can still
//!   have a witness there;
//! * a `prev`-predecessor sitting **exactly at the cutoff** must be
//!   retained — a nested `once[0,a] prev[lo,b] q` evaluated at the oldest
//!   in-window state reaches back exactly a + b ticks.
//!
//! The regression tests pin both edges; the differential sweep checks
//! pruned evaluation against the full-history naive checker over gappy
//! pseudo-random streams whose alignments repeatedly land on the cutoff.

use std::sync::Arc;

use rtic_core::{Checker, CompiledConstraint, NaiveChecker};
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::TimePoint;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::new()
            .with("p", Schema::of(&[("x", Sort::Str)]))
            .unwrap()
            .with("q", Schema::of(&[("x", Sort::Str)]))
            .unwrap(),
    )
}

/// The windowed and the full-history form of one compiled constraint.
fn pair(src: &str) -> (NaiveChecker, NaiveChecker) {
    let c = CompiledConstraint::compile(parse_constraint(src).unwrap(), catalog()).unwrap();
    (
        NaiveChecker::windowed(c.clone()),
        NaiveChecker::from_compiled(c),
    )
}

#[test]
fn witness_at_age_exactly_horizon_is_kept() {
    // once[2,4] q: horizon 4. A q-witness from t=0 is at age exactly 4
    // when evaluated at t=4 — the oldest state the window may keep.
    let (mut w, mut n) = pair("deny d: p(x) && once[2,4] q(x)");
    let steps = [
        (0u64, Update::new().with_insert("q", tuple!["a"])),
        (1, Update::new().with_delete("q", tuple!["a"])),
        (2, Update::new().with_insert("p", tuple!["a"])),
        (3, Update::new()),
        (4, Update::new()),
        (5, Update::new()),
    ];
    for (t, u) in steps {
        let rw = w.step(TimePoint(t), &u).unwrap();
        let rn = n.step(TimePoint(t), &u).unwrap();
        assert_eq!(rw, rn, "diverged from naive at t={t}");
        if t == 4 {
            assert_eq!(
                rw.violation_count(),
                1,
                "witness at age exactly h=4 must still be visible"
            );
        }
        if t == 5 {
            assert!(rw.ok(), "witness aged past the horizon");
        }
    }
    // The test only bites if pruning actually ran.
    assert!(
        w.space().stored_states < n.space().stored_states,
        "windowed checker never pruned — boundary not exercised"
    );
}

#[test]
fn prev_predecessor_exactly_at_cutoff_is_kept() {
    // once[0,2] prev[1,2] q: horizon 2 + 2 = 4. Evaluated at t=4, the
    // once-window reaches the state at t=2, whose prev-predecessor is the
    // state at t=0 — timestamp exactly equal to the cutoff 4 − 4 = 0. An
    // off-by-one dropping it would erase the violation.
    let (mut w, mut n) = pair("deny d: p(x) && once[0,2] prev[1,2] q(x)");
    let steps = [
        (0u64, Update::new().with_insert("q", tuple!["a"])),
        (2, Update::new().with_insert("p", tuple!["a"])),
        (4, Update::new()),
    ];
    for (t, u) in steps {
        let rw = w.step(TimePoint(t), &u).unwrap();
        let rn = n.step(TimePoint(t), &u).unwrap();
        assert_eq!(rw, rn, "diverged from naive at t={t}");
        if t == 4 {
            assert_eq!(
                rw.violation_count(),
                1,
                "prev-predecessor at the exact cutoff must be retained"
            );
        }
    }
    assert_eq!(
        w.space().stored_states,
        3,
        "all three states are within the horizon at t=4"
    );
    // One more tick: t=0 crosses the cutoff and must now be pruned, and
    // both checkers must still agree.
    let rw = w.step(TimePoint(5), &Update::new()).unwrap();
    let rn = n.step(TimePoint(5), &Update::new()).unwrap();
    assert_eq!(rw, rn, "diverged from naive after the predecessor aged out");
    assert_eq!(w.space().stored_states, 3, "state at t=0 pruned, t=5 added");
}

/// Minimal deterministic LCG so the sweep needs no external crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

#[test]
fn pruned_evaluation_matches_naive_on_gappy_streams() {
    let formulas = [
        "deny d: p(x) && once[0,3] q(x)",
        "deny d: p(x) && once[2,4] q(x)",
        "deny d: p(x) && once[3,3] q(x)",
        "deny d: p(x) && hist[1,3] q(x)",
        "deny d: p(x) && !once[0,4] q(x)",
        "deny d: p(x) && once[0,2] prev[1,2] q(x)",
        "deny d: p(x) && prev[1,3] once[0,2] q(x)",
        "deny d: p(x) && once[0,2] once[1,2] q(x)",
        "deny d: p(x) && once[0,3] (q(x) && hist[0,2] q(x))",
        "deny d: p(x) && (q(x) since[0,3] p(x))",
    ];
    let domain = ["a", "b"];
    for (fi, src) in formulas.iter().enumerate() {
        let (mut w, mut n) = pair(src);
        let mut rng = Lcg(0x9E3779B97F4A7C15 ^ (fi as u64));
        let mut t = 0u64;
        let mut pruned_once = false;
        for step in 0..120 {
            // Gaps of 1..=3 make window edges land on and around stored
            // timestamps in all alignments.
            t += 1 + rng.next(3);
            let mut u = Update::new();
            for _ in 0..rng.next(3) {
                let x = domain[rng.next(2) as usize];
                let rel = if rng.next(2) == 0 { "p" } else { "q" };
                if rng.next(3) == 0 {
                    u.delete(rel, tuple![x]);
                } else {
                    u.insert(rel, tuple![x]);
                }
            }
            let rw = w.step(TimePoint(t), &u).unwrap();
            let rn = n.step(TimePoint(t), &u).unwrap();
            assert_eq!(rw, rn, "{src}: diverged from naive at step {step} (t={t})");
            pruned_once |= w.space().stored_states < n.space().stored_states;
        }
        assert!(
            pruned_once,
            "{src}: pruning never engaged — sweep is vacuous"
        );
    }
}
