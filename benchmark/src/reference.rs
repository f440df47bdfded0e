//! The reference report a run must reproduce byte for byte, and the
//! committed seed-42 digests that pin the reference itself.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use rtic_core::{ConstraintSet, EncodingOptions};
use rtic_history::Transition;
use rtic_obs::json::{self, Json};
use rtic_temporal::parser::parse_file;

use crate::stats::digest;
use crate::workloads::Sizes;

/// The seed whose reference digests are committed.
pub const BLESSED_SEED: u64 = 42;

/// Runs `transitions` through an in-process [`ConstraintSet`] evaluated
/// by the tree-walking interpreter — unsharded, sequential, no plans.
///
/// rtic orders string-valued witnesses by when its process first saw
/// each string, so the calling process must have met this input's
/// strings in file order ([`crate::workloads::Input::load`]) and no
/// other input's.
///
/// Returns the violation lines, one per violated constraint per state,
/// each newline-terminated — what `rtic check` prints and `rtic serve`
/// writes to `--report`.
pub fn compute(constraints_text: &str, transitions: &[Transition]) -> Result<String, String> {
    let file = parse_file(constraints_text).map_err(|e| format!("constraint file: {e}"))?;
    let options = EncodingOptions {
        interpret_eval: true,
        ..Default::default()
    };
    let mut set = ConstraintSet::with_options(file.constraints, Arc::new(file.catalog), options)
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))?;
    let mut text = String::new();
    for tr in transitions {
        let reports = set
            .step(tr.time, &tr.update)
            .map_err(|e| format!("reference step at {}: {e}", tr.time))?;
        for report in reports.iter().filter(|r| !r.ok()) {
            let _ = writeln!(text, "{report}");
        }
    }
    Ok(text)
}

/// Describes where `actual` first departs from `expected`.
pub fn first_difference(expected: &str, actual: &str) -> String {
    let (mut e, mut a) = (expected.lines(), actual.lines());
    for n in 1.. {
        match (e.next(), a.next()) {
            (Some(x), Some(y)) if x == y => {}
            (None, None) => return "reports are identical".into(),
            (x, y) => {
                return format!(
                    "report line {n} differs\n  reference: {}\n  run:       {}",
                    x.unwrap_or("<end of report>"),
                    y.unwrap_or("<end of report>")
                )
            }
        }
    }
    unreachable!("the loop returns when either report ends")
}

/// The key a digest is committed under: workload name and sizes label.
pub fn digest_key(workload: &str, sizes_label: &str) -> String {
    format!("{workload} {sizes_label}")
}

/// Checks `reference` against the committed digest, when one is
/// committed for this workload at these sizes and `seed` is
/// [`BLESSED_SEED`]. A mismatch means the reference evaluator's output
/// changed since `--bless`.
pub fn check_blessed(
    digests: &Path,
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    reference: &str,
) -> Result<(), String> {
    if seed != BLESSED_SEED {
        return Ok(());
    }
    let text = std::fs::read_to_string(digests)
        .map_err(|e| format!("cannot read {}: {e}", digests.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", digests.display()))?;
    let key = digest_key(workload, &sizes.label());
    let Some(blessed) = doc.get(&key).and_then(Json::as_str) else {
        return Ok(());
    };
    let got = digest(reference);
    if blessed == got {
        Ok(())
    } else {
        Err(format!(
            "{key}: reference digest {got} differs from the blessed {blessed} (seed {seed}); \
             if the change is intended, rerun with --bless"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(
            first_difference("a\nb\n", "a\nb\n"),
            "reports are identical"
        );
        let d = first_difference("a\nb\n", "a\nc\n");
        assert!(d.contains("line 2") && d.contains("reference: b") && d.contains("run:       c"));
        assert!(first_difference("a\n", "a\nb\n").contains("<end of report>"));
    }
}
