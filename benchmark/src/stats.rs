//! Order statistics, the report digest, and span self-time arithmetic.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The share of a run's repeats, counted from the best, that the quiet
/// value averages.
const QUIET_SHARE: f64 = 0.05;

/// The quiet value of a run's repeats of one measurement: the mean of the
/// best twentieth of them, rounded up to whole repeats.
///
/// The same work is repeated, so the repeats differ only by what else the
/// host was doing, and that only ever slows a repeat down. The best
/// twentieth stays put while all the other repeats are disturbed; a median
/// moves as soon as half of them are, which on a shared host is most of
/// the time. Above twenty repeats it is a mean over several and not the
/// single best, so that one lucky reading does not set it. Panics on an
/// empty slice: every caller has at least one sample.
pub fn quiet(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quiet value of no samples");
    if !lower_is_better {
        v.reverse();
    }
    let kept = (v.len() as f64 * QUIET_SHARE).ceil() as usize;
    v[..kept].iter().sum::<f64>() / kept as f64
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the driver's spread is `q3 - q1`.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; `None` below two
/// samples or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// 64-bit FNV-1a of `text`, with its line count: the committed form of
/// a reference report (`<lines>:<hex>`).
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{}:{h:016x}", text.lines().count())
}

/// Self time of a span `[start, end)` given its children's intervals:
/// the span's duration minus the part its children cover (children may
/// overlap each other and are clipped to the parent).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        if e > cursor {
            covered += e - s.max(cursor);
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        // 0.5 of 5 samples → rank ceil(2.5) = 3.
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
    }

    #[test]
    fn quiet_value_is_the_mean_of_the_best_twentieth() {
        let v: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(quiet(&v, true), 2.0);
        assert_eq!(quiet(&v, false), 59.0);
        // Twenty repeats or fewer: the best one.
        assert_eq!(quiet(&[50.0, 10.0, 30.0, 20.0, 40.0], true), 10.0);
        assert_eq!(quiet(&[7.0], false), 7.0);
        // Disturbing every repeat but the best twentieth does not move it.
        let mut disturbed = v.clone();
        for x in disturbed.iter_mut().filter(|x| **x > 3.0) {
            *x *= 1.6;
        }
        assert_eq!(quiet(&disturbed, true), quiet(&v, true));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(""), "0:cbf29ce484222325");
        assert_eq!(digest("a"), "1:af63dc4c8601ec8c");
        assert_ne!(digest("@1 x\n@2 y\n"), digest("@1 x\n@2 z\n"));
        assert!(digest("@1 x\n@2 y\n").starts_with("2:"));
    }

    #[test]
    fn self_time_subtracts_covered_intervals_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children count their union.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 100)]), 0);
    }
}
