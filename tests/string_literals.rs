//! String values round-trip through every text codec: the history log,
//! checkpoints (the library's and `rtic check --checkpoint`/`--resume`)
//! and the constraint printer. Each writes a string with exactly the
//! escapes its reader knows — `\"`, `\\` and `\n` — and every other
//! character raw.

use std::sync::Arc;

use rtic::core::checkpoint::{restore, save};
use rtic::core::{Checker, EncodingOptions, IncrementalChecker};
use rtic::history::log::{format_log, parse_log};
use rtic::history::Transition;
use rtic::relation::{tuple, Catalog, Schema, Sort, Update};
use rtic::temporal::parser::parse_constraint;
use rtic::temporal::TimePoint;

/// Tab, CR, NUL, a zero-width space and a combining accent, beside the
/// three characters that are escaped.
const AWKWARD: &str = "a\tb\rc\0d\u{200b}e\u{301}f \"q\" \\ \n";

fn update() -> Update {
    Update::new().with_insert("p", tuple![AWKWARD])
}

#[test]
fn logs_round_trip_awkward_strings() {
    let transitions = vec![Transition::new(1, update())];
    let text = format_log(&transitions);
    assert!(text.contains("a\tb\rc\0d\u{200b}e\u{301}f"), "{text:?}");
    assert_eq!(parse_log(&text).unwrap(), transitions);
}

#[test]
fn checkpoints_round_trip_awkward_strings() {
    let catalog = Arc::new(
        Catalog::new()
            .with("p", Schema::of(&[("x", Sort::Str)]))
            .unwrap(),
    );
    let c = parse_constraint("deny d: p(x) && once[2,*] p(x)").unwrap();
    let mut checker = IncrementalChecker::new(c.clone(), Arc::clone(&catalog)).unwrap();
    checker.step(TimePoint(1), &update()).unwrap();
    let text = save(&checker);
    let mut resumed = restore(c, catalog, EncodingOptions::default(), &text).unwrap();
    assert_eq!(resumed.database(), checker.database());
    assert_eq!(save(&resumed), text);
    let report = resumed.step(TimePoint(3), &Update::new()).unwrap();
    assert_eq!(report.violation_count(), 1);
    assert_eq!(report, checker.step(TimePoint(3), &Update::new()).unwrap());
}

#[test]
fn constraints_print_awkward_strings_that_parse_back() {
    let source = "deny d: p(\"a\tb\rc\0d\u{200b}e\u{301}f \\\"q\\\" \\\\ \\n\")";
    let c = parse_constraint(source).unwrap();
    let printed = c.to_string();
    assert!(
        printed.contains("a\tb\rc\0d\u{200b}e\u{301}f"),
        "{printed:?}"
    );
    assert_eq!(c, parse_constraint(&printed).unwrap());
}

#[test]
fn check_resumes_a_checkpoint_holding_awkward_strings() {
    let dir = std::env::temp_dir().join(format!("rtic-literal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, content: &str| {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_str().unwrap().to_string()
    };
    let constraints = file(
        "c.rtic",
        "relation p(x: str)\ndeny d: p(x) && once[2,*] p(x)\n",
    );
    let head = file("head.rticlog", "@1 +p(\"a\tb\u{200b}\")\n");
    let tail = file("tail.rticlog", "@3\n");
    let ckpt = dir.join("s.ckpt").to_str().unwrap().to_string();
    let run = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        (rtic::cli::run(&args, &mut out), out)
    };
    let (code, out) = run(&["check", &constraints, &head, "--checkpoint", &ckpt]);
    assert_eq!(code, Ok(0), "{out}");
    let (code, out) = run(&["check", &constraints, &tail, "--resume", &ckpt]);
    assert_eq!(code, Ok(1), "{out}");
    assert!(out.contains("VIOLATION"), "{out}");
}

/// A witness holding a newline prints with the log's escapes, so one
/// report stays one line: on `rtic check`'s output, in a `rtic serve`
/// reply and in the report file the daemon writes on drain.
#[test]
fn a_string_witness_prints_on_one_line_through_check_and_serve() {
    let dir = std::env::temp_dir().join(format!("rtic-literal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let constraints = path("oneline.rtic");
    std::fs::write(&constraints, "relation p(x: str)\ndeny d: p(x)\n").unwrap();
    let entry = "@1 +p(\"a\\nb \\\"q\\\" \\\\\")";
    let log = path("oneline.rticlog");
    std::fs::write(&log, format!("{entry}\n")).unwrap();
    let expected = "@1 VIOLATION d x1: {[x=a\\nb \\\"q\\\" \\\\]}";
    let run = |args: Vec<String>| {
        let mut out = String::new();
        (rtic::cli::run(&args, &mut out), out)
    };
    let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();

    let (code, out) = run(args(&["check", &constraints, &log]));
    assert_eq!(code, Ok(1), "{out}");
    let violations: Vec<&str> = out.lines().filter(|l| l.contains("VIOLATION")).collect();
    assert_eq!(violations, [expected], "{out}");

    let (sock, report) = (path("oneline.sock"), path("oneline.report"));
    let listen = format!("unix:{sock}");
    let serve = args(&[
        "serve",
        &constraints,
        "--listen",
        &listen,
        "--report",
        &report,
    ]);
    let daemon = std::thread::spawn(move || run(serve));
    let mut client = rtic::server::Client::connect_unix_retry(
        std::path::Path::new(&sock),
        std::time::Duration::from_secs(10),
    )
    .unwrap();
    let reply = client.send_update(entry).unwrap();
    assert_eq!(reply.violations, [expected]);
    assert_eq!(reply.ok, "1");
    client.drain().unwrap();
    let (code, out) = daemon.join().unwrap();
    assert_eq!(code, Ok(0), "{out}");
    assert_eq!(
        std::fs::read_to_string(&report).unwrap(),
        format!("{expected}\n")
    );
}
