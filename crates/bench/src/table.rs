//! Markdown rendering of experiment tables and the relationships they check.

use std::fmt::Write as _;

/// What a relationship is read off: counts repeat exactly for a seed, a
/// stopwatch does not and needs headroom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Space units, keys, stamps, violations: checked exactly.
    Count,
    /// Step times: checked with a threshold sized from measured spreads.
    Timing,
}

/// Which side of its limit a reading must fall on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `reading ≤ limit`: a larger reading is worse.
    AtMost,
    /// `reading ≥ limit`: a smaller reading is worse.
    AtLeast,
}

/// One relationship a table claims, evaluated over the table's own
/// readings: `what` read `reading`, which must fall on `direction`'s side
/// of `limit`.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is read; with the table id it names the reading in a
    /// `--json` document, so it never carries a reading itself.
    pub what: String,
    /// Whether the relationship is read off counts or off a stopwatch.
    pub gauge: Gauge,
    /// Which side of `limit` holds.
    pub direction: Direction,
    /// This run's reading.
    pub reading: f64,
    /// The threshold.
    pub limit: f64,
}

impl Check {
    /// `what ≤ limit`. A NaN reading (nothing measured) does not hold.
    pub fn at_most(gauge: Gauge, what: impl Into<String>, reading: f64, limit: f64) -> Check {
        let (what, direction) = (what.into(), Direction::AtMost);
        Check {
            what,
            gauge,
            direction,
            reading,
            limit,
        }
    }

    /// `what ≥ limit`. A NaN reading (nothing measured) does not hold.
    pub fn at_least(gauge: Gauge, what: impl Into<String>, reading: f64, limit: f64) -> Check {
        let (what, direction) = (what.into(), Direction::AtLeast);
        Check {
            what,
            gauge,
            direction,
            reading,
            limit,
        }
    }

    /// Whether the reading falls on the right side of the limit.
    pub fn holds(&self) -> bool {
        match self.direction {
            Direction::AtMost => self.reading <= self.limit,
            Direction::AtLeast => self.reading >= self.limit,
        }
    }

    /// The relationship with the reading it was evaluated on.
    pub fn claim(&self) -> String {
        let op = match self.direction {
            Direction::AtMost => "≤",
            Direction::AtLeast => "≥",
        };
        let (what, limit, reading) = (&self.what, self.limit, self.reading);
        format!("{what} {op} {limit} (reads {reading:.2})")
    }
}

/// A rendered experiment table (one per table/figure of EXPERIMENTS.md).
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. `"T1"`.
    pub id: &'static str,
    /// One-line title.
    pub title: String,
    /// Free-form notes printed under the rows.
    pub notes: Vec<String>,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// The relationships the table claims, checked on this run's readings.
    pub checks: Vec<Check>,
}

impl Table {
    /// Starts an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            notes: Vec::new(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Adds a row; pads or truncates to the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// The relationships that did not hold.
    pub fn broken(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| !c.holds())
    }

    /// Renders as markdown: the title, the table, the notes, then one
    /// `holds:` or `BROKEN:` line per relationship.
    pub fn render(&self) -> String {
        let line = |cells: &[String]| format!("| {} |", cells.join(" | "));
        let mut out = String::new();
        let _ = writeln!(out, "**{} — {}**\n", self.id, self.title);
        let _ = writeln!(out, "{}", line(&self.header));
        let _ = writeln!(out, "{}|", "|---".repeat(self.header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "\n{}", self.notes.join("\n"));
        }
        for c in &self.checks {
            let verdict = if c.holds() { "holds" } else { "BROKEN" };
            let _ = writeln!(out, "\n{verdict}: {}", c.claim());
        }
        out
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_micros(us: f64) -> String {
    if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_markdown_table_with_its_verdicts() {
        let mut t = Table::new("T0", "demo", &["n", "value"]);
        t.note("a note");
        t.row(vec!["10".into(), "1.5".into()]);
        t.checks
            .push(Check::at_most(Gauge::Count, "value", 1.5, 2.0));
        t.checks
            .push(Check::at_least(Gauge::Timing, "speed-up", 0.5, 1.0));
        let s = t.render();
        assert_eq!(
            s,
            "**T0 — demo**\n\n| n | value |\n|---|---|\n| 10 | 1.5 |\n\na note\n\n\
             holds: value ≤ 2 (reads 1.50)\n\nBROKEN: speed-up ≥ 1 (reads 0.50)\n"
        );
        assert_eq!(t.broken().count(), 1);
    }

    #[test]
    fn a_nan_reading_never_holds() {
        assert!(!Check::at_most(Gauge::Count, "x", f64::NAN, 1.0).holds());
        assert!(!Check::at_least(Gauge::Count, "x", f64::NAN, 1.0).holds());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("T0", "demo", &["a", "b", "c"]);
        t.row(vec!["1".into()]);
        assert_eq!(t.rows[0].len(), 3);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_micros(12.34), "12.3µs");
        assert_eq!(fmt_micros(12_340.0), "12.34ms");
        assert_eq!(fmt_micros(3_000_000.0), "3.00s");
    }
}
