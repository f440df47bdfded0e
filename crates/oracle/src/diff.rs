//! Differential comparison: every mode against the reference, byte for
//! byte.

use std::fmt;
use std::sync::Arc;

use crate::generate::{case, Case, GenConfig};
use crate::modes::{run_constraint, Mode};
use crate::repro::Repro;
use crate::shrink::{shrink, ShrinkBudget};

/// A disagreement between two checker realizations on one case.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The reference mode (normally `naive`).
    pub reference: Mode,
    /// The mode that disagreed.
    pub backend: Mode,
    /// The reference's report lines.
    pub expected: Vec<String>,
    /// The diverging mode's report lines (or a single error string).
    pub actual: Vec<String>,
}

impl Divergence {
    /// The first line index where the two runs differ (equal prefixes are
    /// common after shrinking).
    pub fn first_diff(&self) -> usize {
        let n = self.expected.len().min(self.actual.len());
        (0..n)
            .find(|&i| self.expected[i] != self.actual[i])
            .unwrap_or(n)
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence: {} vs {} (first differing report #{})",
            self.backend.name(),
            self.reference.name(),
            self.first_diff()
        )?;
        let i = self.first_diff();
        let at =
            |v: &[String], i: usize| v.get(i).map(String::as_str).unwrap_or("<end>").to_owned();
        writeln!(f, "  {}: {}", self.reference.name(), at(&self.expected, i))?;
        write!(f, "  {}: {}", self.backend.name(), at(&self.actual, i))
    }
}

/// Runs `case` through every mode in `modes` and compares each against the
/// first entry (the reference). Returns the first divergence, if any. A
/// mode that errors out diverges with its error text as the sole line.
pub fn check_case(case: &Case, modes: &[Mode]) -> Option<Divergence> {
    let (&reference, rest) = modes.split_first()?;
    let expected = match reference.run(case) {
        Ok(lines) => lines,
        Err(e) => vec![format!("<error: {e}>")],
    };
    for &m in rest {
        let actual = match m.run(case) {
            Ok(lines) => lines,
            Err(e) => vec![format!("<error: {e}>")],
        };
        if actual != expected {
            return Some(Divergence {
                reference,
                backend: m,
                expected,
                actual,
            });
        }
    }
    None
}

/// A divergence a seeded run found, and its shrunk repro.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The index of the case that diverged.
    pub case_index: usize,
    /// The divergence, on the case as generated.
    pub divergence: Divergence,
    /// The case shrunk while the two modes keep disagreeing.
    pub repro: Repro,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (i, seed) = (self.case_index, self.repro.seed);
        writeln!(f, "case {i} (seed {seed}): {}", self.divergence)?;
        write!(f, "--- repro ---\n{}", self.repro.to_text())
    }
}

/// The seeded run: cases `0..cases` of `seed` through `modes` (reference
/// first). The first divergence is shrunk — ddmin over the history, then
/// formula rewrites — into a repro; `None` means every case agreed.
pub fn fuzz(seed: u64, cases: usize, cfg: &GenConfig, modes: &[Mode]) -> Option<Finding> {
    (0..cases).find_map(|i| {
        let c = case(seed, i, cfg);
        let divergence = check_case(&c, modes)?;
        let (reference, backend) = (divergence.reference, divergence.backend);
        let (constraint, transitions) = shrink(
            &c.constraint,
            &c.transitions,
            &c.catalog,
            ShrinkBudget::default(),
            |cand, ts| {
                let a = run_constraint(reference, cand, &c.catalog, ts, c.seed);
                let b = run_constraint(backend, cand, &c.catalog, ts, c.seed);
                a != b
            },
        );
        let repro = Repro {
            seed: c.seed,
            note: format!("{} vs {}", backend.name(), reference.name()),
            catalog: Arc::clone(&c.catalog),
            constraint,
            transitions,
        };
        Some(Finding {
            case_index: i,
            divergence,
            repro,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{case, GenConfig};

    #[test]
    fn healthy_backends_produce_no_divergence() {
        let cfg = GenConfig::default();
        for i in 0..25 {
            let c = case(5, i, &cfg);
            assert!(
                check_case(&c, &Mode::ALL).is_none(),
                "unexpected divergence on case {i}"
            );
        }
    }

    #[test]
    fn first_diff_points_at_the_disagreement() {
        let d = Divergence {
            reference: Mode::ALL[0],
            backend: Mode::ALL[1],
            expected: vec!["a".into(), "b".into(), "c".into()],
            actual: vec!["a".into(), "X".into(), "c".into()],
        };
        assert_eq!(d.first_diff(), 1);
        assert!(d.to_string().contains("first differing report #1"));
    }
}
