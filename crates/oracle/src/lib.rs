//! # rtic-oracle — differential conformance oracle
//!
//! The paper's central claim is an *equivalence*: the bounded history
//! encoding reports exactly the violations that checking the full stored
//! history would report. This crate turns that claim into an always-on
//! test harness:
//!
//! 1. [`generate`] draws random well-formed Past-MTL constraints (seeded,
//!    size-bounded, biased toward metric-interval boundary values) and
//!    random histories (timestamp clusters, horizon-expiring clock gaps,
//!    relation churn, empty states, quiet runs landing on window edges).
//! 2. [`modes`] runs each case through every checker realization — naive
//!    reference, windowed, active, the interpreted engine, `ConstraintSet`
//!    (the incremental checker is a set of one), a kill-at-a-random-step
//!    checkpoint/resume stitch, and a live `rtic serve` daemon killed and
//!    resumed mid-stream (`soak.rs`) —
//!    and [`diff`] asserts byte-identical violation reports. The `set`
//!    and `stitch` modes check more on the way (observer events, a
//!    forced-full twin, plan profiles, checkpoint refusals); a failed
//!    check is a divergence too.
//! 3. On divergence, [`shrink`] minimizes both the history and the formula
//!    while preserving the disagreement, and [`repro`] serializes a
//!    self-contained repro file (seed + constraint text + log lines) for
//!    `tests/corpus/`. [`fuzz`] is that loop over a seed's cases; the
//!    binary and the seeded runs in this crate's `tests/` share it.
//!    [`space_fuzz`] is the same loop over the paper's space claim.
//!    [`property`] runs any seeded property on the same shrinkers, so a
//!    failing property test prints a minimal input.
//!
//! [`mutation`] closes the loop: it deliberately breaks a cloned checker
//! (off-by-one window, dropped quiescent steps, a late sleep deadline, a
//! short catch-up, …) and asserts the oracle catches each planted bug — evidence the oracle has teeth.
//!
//! The `rtic-oracle` binary drives all of this; see `docs/TESTING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod corpus;
pub mod diff;
pub mod generate;
pub mod modes;
pub mod mutation;
pub mod property;
pub mod repro;
pub mod shrink;
mod soak;
pub mod space;

pub use diff::{check_case, fuzz, Divergence, Finding};
pub use generate::{Case, GenConfig};
pub use modes::Mode;
pub use mutation::Mutant;
pub use repro::Repro;
pub use space::space_fuzz;

/// Derives an independent child seed from a base seed and a stream index,
/// so every case (and every decision *within* a case) is a pure function
/// of `(seed, index)`. SplitMix64 finalizer — the same mixer the vendored
/// `rand` uses internally.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0x2545_f491_4f6c_dd1d));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_index() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0));
    }
}
