//! The readings document and its comparison against a baseline.
//!
//! `experiments --json FILE` writes one document per run: the git
//! revision, the machine, the scale, and per table its rows and every
//! check's `{what, gauge, reading, limit, holds}`.
//! `experiments --compare BASELINE` diffs the fresh readings against a
//! committed document, each named by its table id and `what`: a Count
//! reading that moves at all fails the run, a Timing reading more than
//! [`WARN_PCT`] worse only warns (hosts differ), and a scale mismatch or a
//! baseline reading with no fresh counterpart fails the run.

use std::collections::BTreeMap;

use rtic_obs::json::Json;

use crate::table::{Check, Direction, Gauge, Table};

/// How much worse than its baseline (in percent) a Timing reading may
/// read before it draws a `PERF WARNING`.
pub const WARN_PCT: f64 = 25.0;

/// The document `--json` writes for `tables` measured at `scale`.
pub fn document(tables: &[Table], scale: &str) -> Json {
    Json::object()
        .set("git_rev", git_rev())
        .set("machine", machine_stamp())
        .set("scale", scale)
        .set("tables", Json::Arr(tables.iter().map(table_json).collect()))
}

fn table_json(t: &Table) -> Json {
    let cells = |row: &Vec<String>| Json::Arr(row.iter().map(|c| c.as_str().into()).collect());
    Json::object()
        .set("id", t.id)
        .set("title", t.title.as_str())
        .set("header", cells(&t.header))
        .set("rows", Json::Arr(t.rows.iter().map(cells).collect()))
        .set(
            "checks",
            Json::Arr(t.checks.iter().map(check_json).collect()),
        )
}

fn check_json(c: &Check) -> Json {
    let gauge = if c.gauge == Gauge::Count {
        "count"
    } else {
        "timing"
    };
    Json::object()
        .set("what", c.what.as_str())
        .set("gauge", gauge)
        .set("reading", finite(c.reading).map_or(Json::Null, Json::Num))
        .set("limit", c.limit)
        .set("holds", c.holds())
}

/// A reading as JSON stores it: JSON has no NaN, so nothing measured is `null`.
fn finite(x: f64) -> Option<f64> {
    Some(x).filter(|x| x.is_finite())
}

/// What `--compare` found.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Baseline readings that had a fresh counterpart.
    pub compared: usize,
    /// Baseline readings expected: every one, or the `--table` one's.
    pub expected: usize,
    /// Timing readings more than [`WARN_PCT`] worse than the baseline.
    pub warnings: Vec<String>,
    /// Moved counts, missing readings or a scale mismatch: each fails the run.
    pub failures: Vec<String>,
}

/// Diffs the readings of `tables`, measured at `scale`, against a
/// `--json` document, over the baseline's table `only` names (every
/// table when `None`).
pub fn compare(scale: &str, tables: &[Table], baseline: &Json, only: Option<&str>) -> Comparison {
    let mut out = Comparison::default();
    let base_scale = text(baseline, "scale");
    if scale != base_scale {
        let why =
            format!("scale mismatch: fresh readings are `{scale}`, the baseline `{base_scale}`");
        out.failures.push(why);
        return out;
    }
    let label = |id: &str, what: &str| format!("{id} {what}");
    let fresh: BTreeMap<String, &Check> = (tables.iter())
        .flat_map(|t| t.checks.iter().map(move |c| (label(t.id, &c.what), c)))
        .collect();
    for table in list(baseline, "tables") {
        let id = text(table, "id");
        if only.is_some_and(|o| !o.eq_ignore_ascii_case(id)) {
            continue;
        }
        for base in list(table, "checks") {
            let label = label(id, text(base, "what"));
            out.expected += 1;
            let Some(now) = fresh.get(&label) else {
                out.failures.push(format!("{label}: no fresh reading"));
                continue;
            };
            out.compared += 1;
            let was = base.get("reading").and_then(Json::as_f64);
            let is = finite(now.reading);
            if now.gauge == Gauge::Count {
                if was != is {
                    let show = |x: Option<f64>| x.map_or("null".into(), |x| x.to_string());
                    let (was, is) = (show(was), show(is));
                    out.failures
                        .push(format!("{label}: reads {is}, the baseline {was}"));
                }
            } else if let (Some(was), Some(is)) = (was, is) {
                let worse = match now.direction {
                    Direction::AtMost => is - was,
                    Direction::AtLeast => was - is,
                };
                let pct = 100.0 * worse / was;
                if pct > WARN_PCT {
                    let why =
                        format!("{label}: reads {is:.2}, the baseline {was:.2} ({pct:.0}% worse)");
                    out.warnings.push(why);
                }
            }
        }
    }
    out
}

/// `node[key]` as a string, empty when it is not one.
fn text<'a>(node: &'a Json, key: &str) -> &'a str {
    node.get(key).and_then(Json::as_str).unwrap_or_default()
}

/// `node[key]` as an array, empty when it is not one.
fn list<'a>(node: &'a Json, key: &str) -> &'a [Json] {
    node.get(key).and_then(Json::as_arr).unwrap_or_default()
}

/// Where a reading was taken — the stamp `benchmark/run.sh` puts on its
/// result documents: timings from different machines do not compare.
fn machine_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::object()
        .set("nproc", nproc as u64)
        .set("kernel", tool_output("uname", &["-sr"]))
        .set("rustc", tool_output("rustc", &["--version"]))
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// repository.
fn git_rev() -> String {
    tool_output("git", &["rev-parse", "--short=12", "HEAD"])
}

/// A tool's trimmed standard output, or `"unknown"` when the tool is
/// missing, fails or prints nothing (a document never fails on a bare
/// export).
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::tiny;
    use crate::experiments::{Scale, TABLES};
    use crate::table::Gauge::{Count, Timing};
    use rtic_obs::json;

    /// One table `T0` with the given checks.
    fn t0(checks: Vec<Check>) -> Vec<Table> {
        let mut t = Table::new("T0", "demo", &["n"]);
        t.checks = checks;
        vec![t]
    }

    #[test]
    fn a_quick_document_compared_with_itself_compares_every_reading() {
        // The tables at debug-build size, stamped as `--quick` stamps them.
        let scale = Scale {
            name: "quick",
            ..tiny()
        };
        let tables: Vec<Table> = TABLES.iter().map(|(_, f)| f(&scale)).collect();
        let doc = json::parse(&document(&tables, "quick").render_pretty()).unwrap();
        let n: usize = tables.iter().map(|t| t.checks.len()).sum();
        let c = compare("quick", &tables, &doc, None);
        assert_eq!((c.compared, c.expected), (n, n));
        assert!(c.warnings.is_empty() && c.failures.is_empty(), "{c:?}");
        // With a table named, only its readings are expected.
        let t10 = tables.iter().position(|t| t.id == "T10").unwrap();
        let c = compare("quick", &tables[t10..=t10], &doc, Some("t10"));
        assert_eq!((c.compared, c.expected), (3, 3));
    }

    #[test]
    fn a_timing_reading_twice_as_bad_warns_and_passes() {
        let checks = |flat, speedup| {
            t0(vec![
                Check::at_most(Timing, "step max/min", flat, 2.5),
                Check::at_least(Timing, "speed-up", speedup, 2.0),
            ])
        };
        let base = document(&checks(1.2, 14.0), "quick");
        let c = compare("quick", &checks(2.4, 7.0), &base, None);
        assert!(c.failures.is_empty(), "{c:?}");
        assert_eq!(c.warnings.len(), 2, "{c:?}");
        assert!(
            c.warnings[0].starts_with("T0 step max/min: reads 2.40"),
            "{c:?}"
        );
        // Better never warns.
        let worse = document(&checks(2.4, 7.0), "quick");
        assert!(compare("quick", &checks(1.2, 14.0), &worse, None)
            .warnings
            .is_empty());
    }

    #[test]
    fn a_moved_count_fails() {
        let off = |n| t0(vec![Check::at_most(Count, "rows off", n, 0.0)]);
        let c = compare("quick", &off(1.0), &document(&off(0.0), "quick"), None);
        assert_eq!(c.failures, ["T0 rows off: reads 1, the baseline 0"]);
    }

    #[test]
    fn a_scale_mismatch_or_a_missing_reading_fails() {
        let tables = t0(vec![Check::at_most(Count, "rows off", 0.0, 0.0)]);
        let c = compare("quick", &tables, &document(&tables, "full"), None);
        let why = "scale mismatch: fresh readings are `quick`, the baseline `full`";
        assert_eq!(c.failures, [why]);
        let c = compare("quick", &t0(vec![]), &document(&tables, "quick"), None);
        assert_eq!(c.failures, ["T0 rows off: no fresh reading"]);
        assert_eq!((c.compared, c.expected), (0, 1));
    }
}
