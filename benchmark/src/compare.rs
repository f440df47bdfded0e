//! `compare A.json B.json`: applies each end-to-end metric's bound to
//! two result documents of a full pass (A the parent, B the change).

use rtic_obs::json::{self, Json};

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// How B's runs of one metric stand against A's.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's run-to-run spread is wider than the bound, so the
    /// medians cannot be told apart — unless every run of B reads
    /// better than every run of A, which stays `Within`.
    Unresolved,
}

/// Judges one metric from the two sides' per-run values.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("only end-to-end metrics are judged");
    // Orient so that larger is worse.
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a).abs();
    if worse_by > bound {
        return Verdict::Worse;
    }
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    let b_always_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    if noisy && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn layer_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints one row per (workload, metric); exit code 1 when any row is
/// `worse`.
pub fn run(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs two result documents: compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    for spec in crate::workloads::WORKLOADS {
        for metric in END_TO_END {
            let (Some(av), Some(bv)) = (
                values(&a, spec.name, metric.name),
                values(&b, spec.name, metric.name),
            ) else {
                return Err(format!(
                    "{}/{} is missing from a document",
                    spec.name, metric.name
                ));
            };
            let verdict = judge(metric, &av, &bv);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<15} {:<22} {:>14.4} -> {:>14.4} {:<6} bound {:>4.0}%  spread {:>5.1}% / {:>5.1}%  {}",
                spec.name,
                metric.name,
                median(&av),
                median(&bv),
                metric.unit,
                metric.bound.unwrap_or(0.0) * 100.0,
                spread(&av).unwrap_or(0.0) * 100.0,
                spread(&bv).unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Counts repeat exactly for a seed: between two runs of one
        // commit any difference is a bug, between two commits it is the
        // change itself, stated as a count.
        if a.get("seed") == b.get("seed") {
            for metric in PER_LAYER.iter().filter(|m| m.exact) {
                let (x, y) = (
                    layer_value(&a, spec.name, metric.name),
                    layer_value(&b, spec.name, metric.name),
                );
                if x != y {
                    println!(
                        "{:<15} {:<44} {:?} -> {:?} {} differs",
                        spec.name, metric.name, x, y, metric.unit
                    );
                }
            }
        }
    }
    Ok(i32::from(any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::named;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let rate = named(END_TO_END, "updates_per_s"); // higher is better
        let lat = named(END_TO_END, "ack_p50_us"); // lower is better
        let steady = [100.0, 101.0, 99.0, 100.0];
        let around = |centre: f64| [centre, centre + 1.0, centre, centre + 1.0];
        // Half a bound away is within, a bound and a half is worse — in
        // the direction that is worse for the metric.
        let step = |m: &Metric, bounds: f64| 100.0 * m.bound.unwrap() * bounds;
        assert_eq!(
            judge(rate, &steady, &around(100.0 - step(rate, 0.5))),
            Verdict::Within
        );
        assert_eq!(
            judge(rate, &steady, &around(100.0 - step(rate, 1.5))),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &steady, &around(100.0 + step(rate, 1.5))),
            Verdict::Within
        );
        assert_eq!(
            judge(lat, &steady, &around(100.0 + step(lat, 1.5))),
            Verdict::Worse
        );
        assert_eq!(
            judge(lat, &steady, &around(100.0 - step(lat, 1.5))),
            Verdict::Within
        );
        // A spread wider than the bound hides the medians…
        let wide = step(lat, 1.0);
        let noisy = [
            100.0 - wide,
            100.0 + wide,
            100.0 - wide / 2.0,
            100.0 + wide / 2.0,
        ];
        assert_eq!(judge(lat, &noisy, &steady), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(
            judge(lat, &noisy, &around(100.0 - 2.0 * wide)),
            Verdict::Within
        );
        // One run per side: medians only.
        assert_eq!(judge(lat, &[100.0], &[105.0]), Verdict::Within);
    }
}
