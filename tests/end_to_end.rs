//! End-to-end pipeline tests: constraint file text → parser → compiler →
//! checkers, with histories supplied through the text log format. This is
//! the full path a deployment would use.

use std::sync::Arc;

use rtic::active::ActiveChecker;
use rtic::core::{Checker, CompiledConstraint, IncrementalChecker, NaiveChecker};
use rtic::history::log::parse_log;
use rtic::temporal::parser::parse_file;

const CONSTRAINT_FILE: &str = r#"
# Airline reservations, straight from the paper's motivation.
relation reserved(passenger: str, flight: int)
relation confirmed(passenger: str, flight: int)
relation cancelled(passenger: str, flight: int)

# A reservation more than 2 days old must be confirmed (unless cancelled).
deny unconfirmed:
    reserved(p, f) && once[2,*] reserved(p, f)
    && !once confirmed(p, f) && !once cancelled(p, f)

# Cancelling and confirming the same reservation is an error.
deny conflicting:
    once confirmed(p, f) && once cancelled(p, f)
"#;

const LOG: &str = r#"
@0 +reserved("ann", 17) +reserved("bob", 99)
@1 +confirmed("bob", 99)
@2 +reserved("cal", 5)
@3 +cancelled("ann", 17)
@4 +confirmed("cal", 5)
@5 +cancelled("cal", 5)
"#;

fn checkers_for(file: &rtic::temporal::parser::ConstraintFile) -> Vec<Box<dyn Checker>> {
    let catalog = Arc::new(file.catalog.clone());
    let mut out: Vec<Box<dyn Checker>> = Vec::new();
    for c in &file.constraints {
        out.push(Box::new(
            IncrementalChecker::new(c.clone(), Arc::clone(&catalog)).unwrap(),
        ));
        let compiled = CompiledConstraint::compile(c.clone(), Arc::clone(&catalog)).unwrap();
        out.push(Box::new(NaiveChecker::from_compiled(compiled.clone())));
        out.push(Box::new(NaiveChecker::windowed(compiled)));
        out.push(Box::new(
            ActiveChecker::new(c.clone(), Arc::clone(&catalog)).unwrap(),
        ));
    }
    out
}

#[test]
fn file_and_log_drive_identical_checkers() {
    let file = parse_file(CONSTRAINT_FILE).unwrap();
    assert_eq!(file.catalog.len(), 3);
    assert_eq!(file.constraints.len(), 2);
    let transitions = parse_log(LOG).unwrap();
    let mut checkers = checkers_for(&file);
    // Reports agree across all four implementations, per constraint.
    for tr in &transitions {
        let reports: Vec<_> = checkers
            .iter_mut()
            .map(|c| c.step(tr.time, &tr.update).unwrap())
            .collect();
        for group in reports.chunks(4) {
            for r in &group[1..] {
                assert_eq!(&group[0], r, "checker disagreement at {}", tr.time);
            }
        }
    }
}

#[test]
fn the_story_plays_out_correctly() {
    let file = parse_file(CONSTRAINT_FILE).unwrap();
    let catalog = Arc::new(file.catalog.clone());
    let transitions = parse_log(LOG).unwrap();
    let mut unconfirmed =
        IncrementalChecker::new(file.constraints[0].clone(), Arc::clone(&catalog)).unwrap();
    let mut conflicting =
        IncrementalChecker::new(file.constraints[1].clone(), Arc::clone(&catalog)).unwrap();
    let mut trace = Vec::new();
    for tr in &transitions {
        let a = unconfirmed.step(tr.time, &tr.update).unwrap();
        let b = conflicting.step(tr.time, &tr.update).unwrap();
        trace.push((tr.time.0, a.violation_count(), b.violation_count()));
    }
    assert_eq!(
        trace,
        vec![
            (0, 0, 0), // both reservations fresh
            (1, 0, 0), // bob confirms on day 1
            (2, 1, 0), // ann's reservation turns 2 unconfirmed
            (3, 0, 0), // ann cancels: excused
            (4, 0, 0), // cal confirms within the deadline
            (5, 0, 1), // cal cancels a confirmed reservation: conflict
        ]
    );
}

#[test]
fn log_errors_are_caught_before_checking() {
    assert!(parse_log("@1 +reserved(unquoted, 17)").is_err());
    // Unknown relation: accepted by the log parser (it is schema-less) but
    // rejected when the update is applied.
    let transitions = parse_log("@1 +nosuchrel(\"x\")").unwrap();
    let file = parse_file(CONSTRAINT_FILE).unwrap();
    let catalog = Arc::new(file.catalog.clone());
    let mut c = IncrementalChecker::new(file.constraints[0].clone(), Arc::clone(&catalog)).unwrap();
    assert!(c.step(transitions[0].time, &transitions[0].update).is_err());
}

#[test]
fn count_aggregate_constraint_end_to_end() {
    // No passenger may hold two or more concurrent reservations.
    let src = r#"
        relation reserved(passenger: str, flight: int)
        deny overbooked: reserved(p, f) && count g . (reserved(p, g)) >= 2
    "#;
    let log = r#"
        @1 +reserved("ann", 10)
        @2 +reserved("bob", 11)
        @3 +reserved("ann", 12)
        @4 -reserved("ann", 10)
        @5
    "#;
    let file = parse_file(src).unwrap();
    let catalog = Arc::new(file.catalog.clone());
    let mut checkers = checkers_for(&file);
    let mut per_time = Vec::new();
    for tr in parse_log(log).unwrap() {
        let reports: Vec<_> = checkers
            .iter_mut()
            .map(|c| c.step(tr.time, &tr.update).unwrap())
            .collect();
        for r in &reports[1..] {
            assert_eq!(&reports[0], r, "checker disagreement at {}", tr.time);
        }
        per_time.push((tr.time.0, reports[0].violation_count()));
    }
    // Ann is double-booked at t=3 (both her flights are witnesses) and back
    // to one reservation from t=4.
    assert_eq!(per_time, vec![(1, 0), (2, 0), (3, 2), (4, 0), (5, 0)]);
    let _ = catalog;
}

#[test]
fn compile_rejects_bad_constraint_files() {
    // Unknown relation in a constraint.
    let bad = "relation r(x: int)\ndeny d: s(x) && r(x)";
    let file = parse_file(bad).unwrap();
    let catalog = Arc::new(file.catalog.clone());
    assert!(IncrementalChecker::new(file.constraints[0].clone(), catalog).is_err());

    // Unsafe constraint (unguarded negation).
    let unsafe_file = "relation r(x: int)\ndeny d: !r(x)";
    let file = parse_file(unsafe_file).unwrap();
    let catalog = Arc::new(file.catalog.clone());
    assert!(IncrementalChecker::new(file.constraints[0].clone(), catalog).is_err());
}
