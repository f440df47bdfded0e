//! The server's violation report, checkpointed alongside engine state.
//!
//! `rtic serve` must produce a final report byte-identical to batch
//! `rtic check` even when it is kill -9'd and resumed. That only works
//! if the report travels *inside* the checkpoint: engine state and the
//! violations it has already reported are sealed into the same
//! checksummed container, so a crash can never persist one without the
//! other. On resume the section is restored with the engines and the
//! report continues from exactly the transition the cursor covers.
//!
//! The section rides in the container as an extra member. The container
//! splits its payload back into sections on `rtic-checkpoint v1` magic
//! lines, so the report section leads with that magic too; its second
//! line is the serve-report tag. Engine restore matches sections by
//! their `constraint <name>` line and ignores this one (its lines carry
//! no such prefix).

use std::fmt::Write as _;

use rtic_resilience::container::MAGIC_V1;

/// Tag line (right after the v1 magic) identifying a serve-report
/// section; bump the version when the layout changes.
pub const SECTION_HEADER: &str = "rtic-serve-report v1";

/// Violations reported so far plus the stream counters that the final
/// summary and status replies are computed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Violation lines in report order, each byte-identical to the line
    /// `rtic check` prints (`{time} VIOLATION {name} x{n}: {bindings}`).
    pub violations: ReportLines,
    /// Transitions the engine has fully processed.
    pub transitions: u64,
    /// Total violation witnesses across all steps.
    pub witnesses: u64,
    /// Steps with at least one witness.
    pub violated_states: u64,
}

/// Report lines as rendered text, each ending in a newline: what the
/// section carries and `--report` writes. A `&ReportLines` iterates the
/// lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportLines(pub String);

impl<'a> IntoIterator for &'a ReportLines {
    type Item = &'a str;
    type IntoIter = std::str::Lines<'a>;

    fn into_iter(self) -> std::str::Lines<'a> {
        self.0.lines()
    }
}

impl ServeReport {
    /// Records one processed step's outcome.
    pub fn record_step(&mut self, step_violations: &[String], witnesses: usize) {
        self.transitions += 1;
        self.witnesses += witnesses as u64;
        if !step_violations.is_empty() {
            self.violated_states += 1;
        }
        for line in step_violations {
            self.violations.0.extend([line, "\n"]);
        }
    }

    /// Serializes the report as one checkpoint-container section.
    pub fn to_section(&self) -> String {
        let lines = &self.violations.0;
        let mut out = String::with_capacity(128 + lines.len());
        let _ = writeln!(out, "{MAGIC_V1}");
        let _ = writeln!(out, "{SECTION_HEADER}");
        let _ = writeln!(out, "transitions {}", self.transitions);
        let _ = writeln!(out, "witnesses {}", self.witnesses);
        let _ = writeln!(out, "violated-states {}", self.violated_states);
        out.push_str(lines);
        out
    }

    /// Whether `section` is a serve-report section (vs. engine state).
    pub fn is_section(section: &str) -> bool {
        let mut lines = section.lines();
        lines.next().map(str::trim) == Some(MAGIC_V1)
            && lines.next().map(str::trim) == Some(SECTION_HEADER)
    }

    /// Restores a report from its section text.
    pub fn from_section(section: &str) -> Result<ServeReport, String> {
        if !ServeReport::is_section(section) {
            return Err(format!("not a `{SECTION_HEADER}` section"));
        }
        let mut report = ServeReport::default();
        for line in section.lines().skip(2) {
            let (key, value) = line.split_once(' ').unwrap_or(("", line));
            let counter = match key {
                "transitions" => &mut report.transitions,
                "witnesses" => &mut report.witnesses,
                "violated-states" => &mut report.violated_states,
                _ if line.trim().is_empty() => continue,
                _ => {
                    report.violations.0.extend([line, "\n"]);
                    continue;
                }
            };
            let value = value.trim().parse();
            *counter = value.map_err(|e| format!("bad report field `{key}`: {e}"))?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_section_format() {
        let mut report = ServeReport::default();
        report.record_step(&[], 0);
        report.record_step(
            &[
                "@4 VIOLATION unconfirmed x1: {p=ann}".to_string(),
                "@4 VIOLATION reconfirm x1: {p=bo}".to_string(),
            ],
            2,
        );
        let section = report.to_section();
        assert!(ServeReport::is_section(&section));
        let restored = ServeReport::from_section(&section).unwrap();
        assert_eq!(restored, report);
        assert_eq!(restored.transitions, 2);
        assert_eq!(restored.witnesses, 2);
        assert_eq!(restored.violated_states, 1);
    }

    #[test]
    fn an_appended_render_equals_a_from_scratch_one_after_a_restore() {
        let step = |report: &mut ServeReport, t: u64| {
            let lines = (0..t % 3).map(|i| format!("@{t} VIOLATION c{i} x1: {{p=\"a\\b\"}}"));
            report.record_step(&lines.collect::<Vec<_>>(), (t % 3) as usize);
        };
        let mut report = ServeReport::default();
        (1..=7).for_each(|t| step(&mut report, t));
        let mut resumed = ServeReport::from_section(&report.to_section()).unwrap();
        assert_eq!(resumed, report);
        for t in 8..=12 {
            step(&mut report, t);
            step(&mut resumed, t);
        }
        assert_eq!(resumed.to_section(), report.to_section());
        assert_eq!(resumed, report);
        let lines: Vec<&str> = report.violations.into_iter().collect();
        assert_eq!(lines.len(), 12);
        assert_eq!(lines[11], r#"@11 VIOLATION c1 x1: {p="a\b"}"#);
    }

    #[test]
    fn engine_sections_are_not_mistaken_for_reports() {
        let engine = "rtic-checkpoint v1\nconstraint unconfirmed\n";
        assert!(!ServeReport::is_section(engine));
        assert!(ServeReport::from_section(engine).is_err());
    }

    #[test]
    fn report_lines_never_collide_with_engine_section_matching() {
        // Engine restore claims sections by a `constraint <name>` line;
        // no line this section emits may start with that prefix.
        let mut report = ServeReport::default();
        report.record_step(&["@1 VIOLATION c x1: {p=a}".to_string()], 1);
        assert!(!report
            .to_section()
            .lines()
            .any(|l| l.starts_with("constraint ")));
    }
}
