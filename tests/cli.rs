//! CLI integration tests, driving `rtic::cli::run` with captured output.

use std::io::Write as _;

fn run(args: &[&str]) -> (Result<i32, String>, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    let code = rtic::cli::run(&args, &mut out);
    (code, out)
}

fn temp_file(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rtic-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const CONSTRAINTS: &str = r#"
relation reserved(p: str, f: int)
relation confirmed(p: str, f: int)
deny unconfirmed: reserved(p, f) && once[2,*] reserved(p, f) && !once confirmed(p, f)
"#;

const LOG: &str = r#"
@0 +reserved("ann", 17)
@1
@2
@3 +confirmed("ann", 17)
@4
"#;

#[test]
fn help_prints_usage() {
    let (code, out) = run(&["--help"]);
    assert_eq!(code.unwrap(), 0);
    assert!(out.contains("USAGE"));
    let (code, out) = run(&[]);
    assert_eq!(code.unwrap(), 0);
    assert!(out.contains("USAGE"));
}

#[test]
fn unknown_subcommand_errors() {
    let (code, _) = run(&["frobnicate"]);
    assert!(code.unwrap_err().contains("frobnicate"));
}

#[test]
fn check_reports_violations_and_exit_code() {
    let c = temp_file("c.rtic", CONSTRAINTS);
    let l = temp_file("l.rticlog", LOG);
    let (code, out) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "violations → exit 1");
    assert!(out.contains("VIOLATION"), "{out}");
    assert!(out.contains("@2"), "flagged at the deadline: {out}");
    // Ann confirms at 3 — 2 violating states (t=2 only... t=3 confirmed).
    assert!(out.contains("over 1 state(s)"), "{out}");
}

#[test]
fn check_clean_log_exits_zero() {
    let c = temp_file("c2.rtic", CONSTRAINTS);
    let l = temp_file(
        "l2.rticlog",
        "@0 +reserved(\"bob\", 9)\n@1 +confirmed(\"bob\", 9)\n@5\n",
    );
    let (code, out) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap(), "--stats"]);
    assert_eq!(code.unwrap(), 0);
    assert!(out.contains("0 violation witness(es)"), "{out}");
    assert!(out.contains("space[unconfirmed]"), "{out}");
    // Per-node footprints under each space line (docs/TUTORIAL.md §4).
    assert!(
        out.contains("  node `once[2,*] reserved(p, f)`: 1 key(s), 1 timestamp(s)"),
        "{out}"
    );
    assert!(
        out.contains("  node `once confirmed(p, f)`: 1 key(s), 1 timestamp(s)"),
        "{out}"
    );
    assert!(out.contains("dispatch: 3 engine-step(s) total"), "{out}");
    assert!(out.contains("plan[set]"), "{out}");
}

#[test]
fn all_checker_backends_agree_via_cli() {
    let c = temp_file("c3.rtic", CONSTRAINTS);
    let l = temp_file("l3.rticlog", LOG);
    let mut summaries = Vec::new();
    for backend in ["incremental", "naive", "windowed", "active"] {
        let (code, out) = run(&[
            "check",
            c.to_str().unwrap(),
            l.to_str().unwrap(),
            "--checker",
            backend,
            "--quiet",
        ]);
        assert_eq!(code.unwrap(), 1, "{backend}");
        let summary = out
            .lines()
            .find(|l| l.contains("violation witness"))
            .unwrap()
            .replace(backend, "X");
        summaries.push(summary);
    }
    assert!(summaries.windows(2).all(|w| w[0] == w[1]), "{summaries:?}");
}

#[test]
fn check_rejects_bad_inputs() {
    let c = temp_file("c4.rtic", CONSTRAINTS);
    let l = temp_file("l4.rticlog", LOG);
    let (code, _) = run(&["check", "/nonexistent.rtic", l.to_str().unwrap()]);
    assert!(code.unwrap_err().contains("cannot read"));
    let (code, _) = run(&["check", c.to_str().unwrap(), "/nonexistent.log"]);
    assert!(code.unwrap_err().contains("cannot read"));
    let bad = temp_file("bad.rtic", "relation r(x: int)\ndeny d: !r(x)");
    let (code, _) = run(&["check", bad.to_str().unwrap(), l.to_str().unwrap()]);
    assert!(code.unwrap_err().contains("constraint `d`"));
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checker",
        "quantum",
    ]);
    assert!(code.unwrap_err().contains("quantum"));
}

#[test]
fn fleet_check_matches_reference_backend_output() {
    // The incremental backend runs as a shared-state fleet; what it
    // prints must equal one independent reference checker per constraint,
    // line for line (only the backend tag in the summary differs).
    let c1 = temp_file("ref1.rtic", CONSTRAINTS);
    let c2 = temp_file("ref2.rtic", EXTRA_CONSTRAINTS);
    let l = temp_file(
        "ref.rticlog",
        "@0 +reserved(\"ann\", 17)\n@1 +vip(\"zoe\")\n@2\n@3 +confirmed(\"ann\", 17)\n@4\n",
    );
    let base = [
        "check",
        c1.to_str().unwrap(),
        l.to_str().unwrap(),
        "--constraints",
        c2.to_str().unwrap(),
    ];
    let (code, fleet) = run(&base);
    assert_eq!(code.unwrap(), 1);
    for backend in ["naive", "windowed", "active"] {
        let mut args = base.to_vec();
        args.extend_from_slice(&["--checker", backend]);
        let (code, reference) = run(&args);
        assert_eq!(code.unwrap(), 1, "{backend}");
        assert_eq!(
            reference.replace(&format!("[{backend}]"), "[incremental]"),
            fleet,
            "fleet diverged from independent {backend} checkers"
        );
    }
}

#[test]
fn fleet_check_keeps_trace_and_metrics_working() {
    let c = temp_file("parm.rtic", CONSTRAINTS);
    let l = temp_file("parm.rticlog", LOG);
    let m = temp_file("parm.json", "");
    let t = temp_file("parm.jsonl", "");
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--metrics",
        m.to_str().unwrap(),
        "--trace",
        t.to_str().unwrap(),
        "--sample-space",
        "2",
    ]);
    assert_eq!(code.unwrap(), 1);
    let doc = rtic::obs::json::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    assert_eq!(doc.get("steps").and_then(|v| v.as_u64()), Some(5));
    assert_eq!(doc.get("violations").and_then(|v| v.as_u64()), Some(1));
    let trace_text = std::fs::read_to_string(&t).unwrap();
    let steps = trace_text
        .lines()
        .filter(|l| l.contains("\"event\":\"step\""))
        .count();
    assert_eq!(steps, 5, "one step event per transition: {trace_text}");
}

const EXTRA_CONSTRAINTS: &str = r#"
relation reserved(p: str, f: int)
relation vip(p: str)
deny vip_unreserved: vip(p) && !(exists f . once reserved(p, f))
"#;

#[test]
fn repeatable_constraints_flag_merges_files() {
    let c1 = temp_file("merge1.rtic", CONSTRAINTS);
    let c2 = temp_file("merge2.rtic", EXTRA_CONSTRAINTS);
    let l = temp_file(
        "merge.rticlog",
        "@0 +reserved(\"ann\", 17)\n@1 +vip(\"zoe\")\n@2\n@3 +confirmed(\"ann\", 17)\n@4\n",
    );
    let (code, out) = run(&[
        "check",
        c1.to_str().unwrap(),
        l.to_str().unwrap(),
        "--constraints",
        c2.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1, "{out}");
    assert!(out.contains("2 constraint(s)"), "{out}");
    assert!(out.contains("unconfirmed"), "violation from file 1: {out}");
    assert!(
        out.contains("vip_unreserved"),
        "violation from file 2: {out}"
    );
}

#[test]
fn constraints_flag_rejects_conflicts() {
    let c1 = temp_file("conf1.rtic", CONSTRAINTS);
    let clash_schema = temp_file(
        "conf2.rtic",
        "relation reserved(p: int)\ndeny other: reserved(p) && !reserved(p)",
    );
    let l = temp_file("conf.rticlog", LOG);
    let (code, _) = run(&[
        "check",
        c1.to_str().unwrap(),
        l.to_str().unwrap(),
        "--constraints",
        clash_schema.to_str().unwrap(),
    ]);
    assert!(code.unwrap_err().contains("already declared"));
    let clash_name = temp_file(
        "conf3.rtic",
        "relation reserved(p: str, f: int)\ndeny unconfirmed: reserved(p, f) && reserved(p, f)",
    );
    let (code, _) = run(&[
        "check",
        c1.to_str().unwrap(),
        l.to_str().unwrap(),
        "--constraints",
        clash_name.to_str().unwrap(),
    ]);
    assert!(code.unwrap_err().contains("already defined"));
}

/// `rtic smc` is gone (its cross-checks are the oracle's `serve` mode):
/// like any removed surface, it is an unknown subcommand.
#[test]
fn smc_subcommand_is_rejected_as_removed() {
    for args in [&["smc"][..], &["smc", "ratelimit", "--samples", "2"][..]] {
        let (code, out) = run(args);
        let err = code.unwrap_err();
        assert_eq!(err, "unknown subcommand `smc`; try --help", "{args:?}");
        assert!(out.is_empty(), "nothing ran: {out}");
    }
}

#[test]
fn parallel_flag_is_rejected_as_removed() {
    let c = temp_file("pv.rtic", CONSTRAINTS);
    let l = temp_file("pv.rticlog", LOG);
    let base = [c.to_str().unwrap(), l.to_str().unwrap()];
    for args in [
        &["check", base[0], base[1], "--parallel", "2"][..],
        &["check", base[0], base[1], "--parallel"][..],
        &[
            "serve",
            base[0],
            "--listen",
            "unix:/tmp/unused",
            "--parallel",
            "auto",
        ][..],
    ] {
        let (code, out) = run(args);
        let err = code.unwrap_err();
        assert_eq!(err, "unknown flag `--parallel`; try --help", "{args:?}");
        assert!(out.is_empty(), "nothing ran: {out}");
    }
}

#[test]
fn value_flag_without_a_value_is_a_usage_error() {
    let c = temp_file("vf.rtic", CONSTRAINTS);
    let l = temp_file("vf.rticlog", LOG);
    let base = [c.to_str().unwrap(), l.to_str().unwrap()];
    // A trailing value flag used to vanish silently (no checkpoint, no
    // metrics, exit as if nothing had been asked for).
    for flag in ["--checkpoint", "--resume", "--metrics", "--shard"] {
        let (code, _) = run(&["check", base[0], base[1], flag]);
        let err = code.unwrap_err();
        assert!(err.contains(&format!("{flag} needs a value")), "{err}");
        // Followed by another flag is just as missing.
        let (code, _) = run(&["check", base[0], base[1], flag, "--quiet"]);
        assert!(code.unwrap_err().contains(&format!("{flag} needs a value")));
    }
    let (code, _) = run(&["check", base[0], base[1], "--constraints"]);
    assert!(code.unwrap_err().contains("--constraints needs a value"));
    let (code, _) = run(&["serve", base[0], "--listen"]);
    assert!(code.unwrap_err().contains("--listen needs a value"));
    let (code, _) = run(&["serve", base[0], "--listen", "unix:/tmp/unused", "--report"]);
    assert!(code.unwrap_err().contains("--report needs a value"));
    let (code, _) = run(&["send", base[1], "--connect"]);
    assert!(code.unwrap_err().contains("--connect needs a value"));
    let (code, _) = run(&["generate", "reservations", "--steps"]);
    assert!(code.unwrap_err().contains("--steps needs a value"));
    let (code, _) = run(&["generate", "ratelimit", "--violation-rate"]);
    assert!(code.unwrap_err().contains("--violation-rate needs a value"));
    let (code, _) = run(&["explain", base[0], "--profile"]);
    assert!(code.unwrap_err().contains("--profile needs a value"));
}

#[test]
fn fleet_checkpoint_is_one_multi_section_container() {
    let c = temp_file("pvc.rtic", CONSTRAINTS);
    let l = temp_file("pvc.rticlog", LOG);
    let ckpt = temp_file("pv.ckpt", "");
    std::fs::remove_file(&ckpt).ok();
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1, "{out}");
    assert!(out.contains("checkpoint written to"), "{out}");
    let bytes = std::fs::read(&ckpt).unwrap();
    assert!(
        bytes.starts_with(b"rtic-checkpoint-set v2"),
        "v2 container on disk"
    );
}

#[test]
fn check_rejects_regressing_timestamps_with_location() {
    let c = temp_file("mono.rtic", CONSTRAINTS);
    // Line 4 of the log regresses from @5 back to @3.
    let l = temp_file(
        "mono.rticlog",
        "@0 +reserved(\"ann\", 17)\n@5\n# still fine\n@3\n@7\n",
    );
    for backend in ["incremental", "naive", "windowed", "active"] {
        let (code, _) = run(&[
            "check",
            c.to_str().unwrap(),
            l.to_str().unwrap(),
            "--checker",
            backend,
        ]);
        let err = code.expect_err(backend);
        assert!(err.contains("does not increase past"), "{backend}: {err}");
        assert!(
            err.contains("line 4"),
            "{backend} names the log line: {err}"
        );
        assert!(
            err.contains("mono.rticlog"),
            "{backend} names the file: {err}"
        );
    }
}

#[test]
fn check_rejects_repeated_timestamps() {
    let c = temp_file("dup.rtic", CONSTRAINTS);
    let l = temp_file("dup.rticlog", "@2\n@2\n");
    let (code, _) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    let err = code.unwrap_err();
    assert!(err.contains("does not increase past"), "{err}");
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn explain_describes_the_plan() {
    let c = temp_file("c5.rtic", CONSTRAINTS);
    let (code, out) = run(&["explain", c.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 0);
    assert!(out.contains("denial body"), "{out}");
    assert!(out.contains("evaluation plan"), "{out}");
}

#[test]
fn generate_emits_replayable_log() {
    let (code, out) = run(&["generate", "library", "--steps", "25", "--seed", "9"]);
    assert_eq!(code.unwrap(), 0);
    // The generated text parses back as a log (comments skipped).
    let transitions = rtic::history::log::parse_log(&out).unwrap();
    assert_eq!(transitions.len(), 25);
    assert!(out.contains("deny overdue"), "constraint header: {out}");
}

#[test]
fn checkpoint_and_resume_match_single_pass() {
    let c = temp_file("ck.rtic", CONSTRAINTS);
    // A log split into two segments.
    let full = "@0 +reserved(\"ann\", 17)\n@1 +reserved(\"bob\", 9)\n@2\n@3\n@4 +confirmed(\"bob\", 9)\n@5\n";
    let l_full = temp_file("ck-full.rticlog", full);
    let l1 = temp_file(
        "ck-1.rticlog",
        "@0 +reserved(\"ann\", 17)\n@1 +reserved(\"bob\", 9)\n@2\n",
    );
    let l2 = temp_file("ck-2.rticlog", "@3\n@4 +confirmed(\"bob\", 9)\n@5\n");
    let ckpt = temp_file("state.ckpt", "");
    // Single pass.
    let (_, single) = run(&["check", c.to_str().unwrap(), l_full.to_str().unwrap()]);
    let single_violations: Vec<&str> = single.lines().filter(|l| l.contains("VIOLATION")).collect();
    // Segmented pass.
    let (code1, seg1) = run(&[
        "check",
        c.to_str().unwrap(),
        l1.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code1.unwrap(), 1, "{seg1}");
    let (code2, seg2) = run(&[
        "check",
        c.to_str().unwrap(),
        l2.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code2.unwrap(), 1, "{seg2}");
    let seg_violations: Vec<String> = seg1
        .lines()
        .chain(seg2.lines())
        .filter(|l| l.contains("VIOLATION"))
        .map(str::to_string)
        .collect();
    assert_eq!(seg_violations, single_violations, "segmented run diverged");
}

#[test]
fn checkpoint_requires_incremental_backend() {
    let c = temp_file("ck2.rtic", CONSTRAINTS);
    let l = temp_file("ck2.rticlog", LOG);
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checker",
        "naive",
        "--checkpoint",
        "/tmp/nope.ckpt",
    ]);
    assert!(code.unwrap_err().contains("incremental"));
}

#[test]
fn check_writes_metrics_snapshot() {
    let c = temp_file("m.rtic", CONSTRAINTS);
    let l = temp_file("m.rticlog", LOG);
    let m = temp_file("m.json", "");
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--metrics",
        m.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1);
    assert!(out.contains("metrics written to"), "{out}");
    let doc = rtic::obs::json::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    // Counters line up with the log: 5 transitions, 2 tuple inserts.
    assert_eq!(doc.get("steps").and_then(|v| v.as_u64()), Some(5));
    assert_eq!(doc.get("tuples_ingested").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(doc.get("violations").and_then(|v| v.as_u64()), Some(1));
    let latency = doc.get("step_latency_us").unwrap();
    assert_eq!(latency.get("count").and_then(|v| v.as_u64()), Some(5));
}

#[test]
fn check_writes_prometheus_when_extension_is_prom() {
    let c = temp_file("p.rtic", CONSTRAINTS);
    let l = temp_file("p.rticlog", LOG);
    let m = temp_file("m.prom", "");
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--metrics",
        m.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1);
    let text = std::fs::read_to_string(&m).unwrap();
    assert!(text.contains("rtic_steps_total 5"), "{text}");
    assert!(
        text.contains("# TYPE rtic_step_latency_seconds histogram"),
        "{text}"
    );
    assert!(text.contains("rtic_violations_total 1"), "{text}");
}

#[test]
fn check_trace_emits_one_step_event_per_transition() {
    let c = temp_file("t.rtic", CONSTRAINTS);
    let l = temp_file("t.rticlog", LOG);
    let t = temp_file("t.jsonl", "");
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--trace",
        t.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1);
    assert!(out.contains("trace written to"), "{out}");
    let text = std::fs::read_to_string(&t).unwrap();
    let mut steps = 0;
    let mut violations = 0;
    for line in text.lines() {
        let event = rtic::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("trace line is not JSON: {line}: {e}"));
        match event.get("event").and_then(|v| v.as_str()).unwrap() {
            "step" => steps += 1,
            "violation" => violations += 1,
            _ => {}
        }
    }
    assert_eq!(steps, 5, "one `step` event per transition: {text}");
    assert_eq!(violations, 1, "{text}");
}

#[test]
fn check_sample_space_records_bounded_trajectory() {
    let c = temp_file("s.rtic", CONSTRAINTS);
    let l = temp_file("s.rticlog", LOG);
    let m = temp_file("s.json", "");
    let t = temp_file("s.jsonl", "");
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--metrics",
        m.to_str().unwrap(),
        "--trace",
        t.to_str().unwrap(),
        "--sample-space",
        "2",
    ]);
    assert_eq!(code.unwrap(), 1);
    let doc = rtic::obs::json::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    let samples = doc.get("space_samples").and_then(|v| v.as_arr()).unwrap();
    assert!(
        samples.len() >= 2,
        "expected periodic samples, got {}",
        samples.len()
    );
    for s in samples {
        let units = s.get("retained_units").and_then(|v| v.as_u64()).unwrap();
        assert!(
            units <= 16,
            "tiny log retains a tiny footprint, got {units}"
        );
    }
    // The trace and the registry saw the same sample events.
    let trace_samples = std::fs::read_to_string(&t)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"event\":\"space_sample\""))
        .count();
    assert_eq!(trace_samples, samples.len());
}

#[test]
fn report_renders_summary_table() {
    let c = temp_file("r.rtic", CONSTRAINTS);
    let l = temp_file("r.rticlog", LOG);
    let m = temp_file("r.json", "");
    let (_, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--metrics",
        m.to_str().unwrap(),
        "--sample-space",
        "2",
    ]);
    let (code, out) = run(&["report", m.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("steps"), "{out}");
    assert!(out.contains("violations by constraint"), "{out}");
    assert!(out.contains("unconfirmed"), "{out}");
    assert!(out.contains("space trajectory"), "{out}");
}

#[test]
fn report_golden_fixture() {
    let fixture = r#"{
  "steps": 3,
  "tuples_ingested": 4,
  "violations": 1,
  "violating_steps": 1,
  "checkpoint_saves": 0,
  "checkpoint_restores": 0,
  "violations_by_constraint": {"overdue": 1},
  "step_latency_us": {"count": 3, "mean_us": 2.0, "p50_us": 2.0, "p95_us": 3.0, "p99_us": 3.0, "max_us": 3.0}
}"#;
    let m = temp_file("golden.json", fixture);
    let (code, out) = run(&["report", m.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("overdue"), "{out}");
    assert!(out.contains('3'), "{out}");
}

#[test]
fn report_rejects_bad_inputs() {
    let (code, _) = run(&["report"]);
    assert!(code.unwrap_err().contains("metrics-file"));
    let (code, _) = run(&["report", "/nonexistent-metrics.json"]);
    assert!(code.unwrap_err().contains("cannot read"));
    let bad = temp_file("notjson.json", "{nope");
    let (code, _) = run(&["report", bad.to_str().unwrap()]);
    assert!(code.is_err());
    let partial = temp_file("partial.json", "{\"steps\": 1}");
    let (code, _) = run(&["report", partial.to_str().unwrap()]);
    assert!(
        code.unwrap_err().contains("tuples_ingested"),
        "missing fields are named"
    );
}

#[test]
fn generate_then_check_round_trip() {
    let (_, log_text) = run(&["generate", "monitor", "--steps", "40", "--seed", "3"]);
    // Extract the constraint file from the commented header.
    let constraint_lines: String = log_text
        .lines()
        .filter_map(|l| l.strip_prefix("#   "))
        .map(|l| format!("{l}\n"))
        .collect();
    let c = temp_file("gen.rtic", &constraint_lines);
    let l = temp_file("gen.rticlog", &log_text);
    let (code, out) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap(), "--quiet"]);
    assert!(code.is_ok(), "{out}");
    assert!(out.contains("40 transitions"), "{out}");
    assert!(out.contains("2 constraint(s)"), "{out}");
}

#[test]
fn check_profile_prints_plan_annotations() {
    let c = temp_file("prof.rtic", CONSTRAINTS);
    let l = temp_file("prof.rticlog", LOG);
    let m = temp_file("prof-metrics.json", "");
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--profile",
        "--metrics",
        m.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1);
    assert!(out.contains("profile[unconfirmed]"), "{out}");
    assert!(out.contains("plan profile"), "{out}");
    assert!(out.contains("atom(reserved)"), "{out}");
    assert!(out.contains("cache h/m"), "{out}");
    assert!(out.contains("[body"), "node paths rendered: {out}");
    // The profile also lands in the metrics snapshot.
    let doc = rtic_obs::json::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    assert!(doc.get("plan_profiles").is_some(), "metrics carry profiles");
    let hot = doc.get("plan_hot_nodes").and_then(|j| j.as_arr()).unwrap();
    assert!(!hot.is_empty(), "hot-node gauges populated");
}

#[test]
fn check_profile_matches_unprofiled_reports() {
    let c = temp_file("prof-eq.rtic", CONSTRAINTS);
    let l = temp_file("prof-eq.rticlog", LOG);
    let (plain_code, plain_out) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    let (prof_code, prof_out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--profile",
    ]);
    assert_eq!(plain_code.unwrap(), prof_code.unwrap());
    // Everything before the profile table is byte-identical.
    let head = prof_out.split("profile[").next().unwrap();
    assert_eq!(plain_out, head, "profiling changed the report stream");
}

#[test]
fn check_profile_flag_validation() {
    let c = temp_file("prof-v.rtic", CONSTRAINTS);
    let l = temp_file("prof-v.rticlog", LOG);
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--profile",
        "--checker",
        "naive",
    ]);
    assert!(code.unwrap_err().contains("--profile"), "naive rejected");
}

#[test]
fn check_profiles_every_constraint_of_a_fleet() {
    let c1 = temp_file("prof-fleet1.rtic", CONSTRAINTS);
    let c2 = temp_file("prof-fleet2.rtic", EXTRA_CONSTRAINTS);
    let l = temp_file("prof-fleet.rticlog", LOG);
    let (code, out) = run(&[
        "check",
        c1.to_str().unwrap(),
        l.to_str().unwrap(),
        "--constraints",
        c2.to_str().unwrap(),
        "--quiet",
        "--profile",
    ]);
    assert_eq!(code.unwrap(), 1);
    assert!(out.contains("profile[unconfirmed]"), "{out}");
    assert!(out.contains("profile[vip_unreserved]"), "{out}");
    assert_eq!(out.matches("plan profile").count(), 2, "{out}");
}

#[test]
fn check_trace_format_chrome_writes_perfetto_array() {
    let c = temp_file("chrome.rtic", CONSTRAINTS);
    let l = temp_file("chrome.rticlog", LOG);
    let t = temp_file("chrome-trace.json", "");
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--profile",
        "--trace",
        t.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert_eq!(code.unwrap(), 1, "{out}");
    assert!(out.contains("trace written to"), "{out}");
    let doc = rtic_obs::json::parse(&std::fs::read_to_string(&t).unwrap()).unwrap();
    let events = doc.as_arr().expect("chrome trace is one JSON array");
    assert!(!events.is_empty());
    // Step spans plus the plan-profile track with named plan-node spans.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(names.iter().any(|n| n.starts_with("step t=")), "{names:?}");
    assert!(names.contains(&"eval unconfirmed"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("atom(")), "{names:?}");
}

#[test]
fn trace_format_flag_validation() {
    let c = temp_file("tf.rtic", CONSTRAINTS);
    let l = temp_file("tf.rticlog", LOG);
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(code.unwrap_err().contains("--trace"), "needs --trace");
    let t = temp_file("tf-trace.json", "");
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--trace",
        t.to_str().unwrap(),
        "--trace-format",
        "xml",
    ]);
    assert!(code.unwrap_err().contains("xml"), "bad format rejected");
}

#[test]
fn explain_profile_annotates_with_measurements() {
    let c = temp_file("exp-prof.rtic", CONSTRAINTS);
    let l = temp_file("exp-prof.rticlog", LOG);
    let (code, out) = run(&[
        "explain",
        c.to_str().unwrap(),
        "--profile",
        l.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 0);
    // The compile-time report plus the measured per-node table.
    assert!(out.contains("evaluation plan"), "{out}");
    assert!(out.contains("plan profile"), "{out}");
    assert!(out.contains('%'), "{out}");
    assert!(out.contains("times include children"), "{out}");
    // Without --profile, no table.
    let (_, plain) = run(&["explain", c.to_str().unwrap()]);
    assert!(!plain.contains("plan profile"), "{plain}");
}

#[test]
fn report_renders_p90_quantile() {
    let c = temp_file("p90.rtic", CONSTRAINTS);
    let l = temp_file("p90.rticlog", LOG);
    let m = temp_file("p90-metrics.json", "");
    run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--quiet",
        "--metrics",
        m.to_str().unwrap(),
    ])
    .0
    .unwrap();
    let (code, out) = run(&["report", m.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 0);
    assert!(out.contains("p90"), "{out}");
    assert!(out.contains("p99"), "{out}");
}

/// `--shard V` / `--shard-evict N` selected the per-key shard plane. It
/// is gone; the frozen benchmark still passes the flags, so they are
/// consumed and change nothing: not stdout, not `--stats`, not the
/// metrics document (compared with its numbers blanked — timings vary).
#[test]
fn shard_flags_are_accepted_and_change_nothing() {
    let c = temp_file("sh.rtic", CONSTRAINTS);
    let l = temp_file("sh.rticlog", LOG);
    let m = temp_file("sh-metrics.json", "");
    let shape = |doc: &str| {
        let (mut out, mut in_string) = (String::new(), false);
        for ch in doc.chars() {
            in_string ^= ch == '"';
            if in_string || !(ch.is_ascii_digit() || ch == '.') {
                out.push(ch);
            } else if !out.ends_with('#') {
                out.push('#');
            }
        }
        out
    };
    let check = |extra: &[&str]| {
        let mut args = vec!["check", c.to_str().unwrap(), l.to_str().unwrap(), "--stats"];
        args.extend_from_slice(&["--metrics", m.to_str().unwrap()]);
        args.extend_from_slice(extra);
        let (code, out) = run(&args);
        assert_eq!(code.unwrap(), 1, "{out}");
        (out, shape(&std::fs::read_to_string(&m).unwrap()))
    };
    let plain = check(&[]);
    assert!(plain.0.contains("VIOLATION") && plain.0.contains("dispatch:"));
    assert!(!plain.0.contains("shards[") && !plain.1.contains("\"shards\""));
    assert_eq!(check(&["--shard", "auto", "--shard-evict", "8"]), plain);
    // The values are not interpreted any more, only required.
    assert_eq!(check(&["--shard", "sideways", "--shard-evict", "0"]), plain);

    let sock = std::env::temp_dir().join(format!("rtic-cli-shard-{}.sock", std::process::id()));
    let listen = format!("unix:{}", sock.display());
    let base = [c.to_str().unwrap(), l.to_str().unwrap()];
    let serve = ["serve", base[0], "--listen", &listen];
    let serve: Vec<String> = serve
        .iter()
        .chain(&["--shard", "auto", "--shard-evict", "8"])
        .map(|a| a.to_string())
        .collect();
    let server = std::thread::spawn(move || {
        let mut out = String::new();
        (rtic::cli::run(&serve, &mut out), out)
    });
    let (code, sent) = run(&["send", base[1], "--connect", &listen, "--drain"]);
    assert_eq!(code.unwrap(), 1, "{sent}");
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(
        out.contains("drained: 5 transition(s), 1 violation"),
        "{out}"
    );

    for args in [
        &["check", base[0], base[1], "--shard-evict"][..],
        &["serve", base[0], "--listen", "unix:/tmp/unused", "--shard"][..],
    ] {
        let flag = args.last().unwrap();
        let (code, _) = run(args);
        assert!(code.unwrap_err().contains(&format!("{flag} needs a value")));
    }
}

/// `--vectorize` used to select the columnar kernels; they are the only
/// compiled path now, and the flag survives as a no-op for callers that
/// still pass it.
#[test]
fn vectorize_is_accepted_and_changes_nothing() {
    let c = temp_file("v.rtic", CONSTRAINTS);
    let l = temp_file("v.rticlog", LOG);
    let (code, plain) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1);
    let (code, vec_out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--vectorize",
    ]);
    assert_eq!(code.unwrap(), 1);
    assert_eq!(vec_out, plain, "--vectorize changed the output");
}

/// `check --batch N` selected micro-batched ingestion, which is gone; no
/// workload of the frozen benchmark passes it to `check`, so it is an
/// unknown flag.
#[test]
fn batch_flag_was_removed_from_check() {
    let c = temp_file("bv.rtic", CONSTRAINTS);
    let l = temp_file("bv.rticlog", LOG);
    let base = ["check", c.to_str().unwrap(), l.to_str().unwrap()];
    for extra in [&["--batch", "64"][..], &["--batch", "0"], &["--batch"]] {
        let (code, out) = run(&[&base[..], extra].concat());
        let err = code.unwrap_err();
        assert_eq!(err, "unknown flag `--batch`; try --help", "{extra:?}");
        assert!(out.is_empty(), "nothing ran: {out}");
    }
}

/// Both flags used to require the incremental checker. `--batch` is now
/// an unknown flag whatever the checker; `--vectorize` is inert but still
/// only accepted where it ever applied.
#[test]
fn batch_and_vectorize_flag_validation() {
    let c = temp_file("bvv.rtic", CONSTRAINTS);
    let l = temp_file("bvv.rticlog", LOG);
    let base = ["check", c.to_str().unwrap(), l.to_str().unwrap()];
    let naive = [&base[..], &["--checker", "naive", "--batch", "4"]].concat();
    let err = run(&naive).0.unwrap_err();
    assert_eq!(err, "unknown flag `--batch`; try --help");
    let windowed = [&base[..], &["--checker", "windowed", "--vectorize"]].concat();
    assert!(run(&windowed).0.unwrap_err().contains("incremental"));
}

/// `Duration::from_secs_f64` panics on these; the CLI must refuse them
/// first. `0` keeps meaning "every step boundary".
#[test]
fn checkpoint_secs_rejects_negative_and_non_finite_values() {
    let c = temp_file("cs.rtic", CONSTRAINTS);
    let l = temp_file("cs.rticlog", LOG);
    let k = temp_file("cs.ckpt", "");
    let base = ["check", c.to_str().unwrap(), l.to_str().unwrap()];
    let ckpt = ["--checkpoint", k.to_str().unwrap(), "--checkpoint-secs"];
    for bad in ["-1", "nan", "inf", "-inf", "1e400", "soon"] {
        let (code, out) = run(&[&base[..], &ckpt[..], &[bad]].concat());
        let err = code.unwrap_err();
        assert!(
            err.contains("--checkpoint-secs") && err.contains(bad),
            "{bad}: {err}"
        );
        assert!(out.is_empty(), "nothing ran: {out}");
    }
    let (code, out) = run(&[&base[..], &ckpt[..], &["0"]].concat());
    assert_eq!(code.unwrap(), 1, "{out}");
}

/// A typo used to run to completion without the thing it asked for.
#[test]
fn unknown_flags_are_usage_errors() {
    let c = temp_file("uf.rtic", CONSTRAINTS);
    let l = temp_file("uf.rticlog", LOG);
    let m = temp_file("uf.json", "{}");
    let (c, l, m) = (
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        m.to_str().unwrap(),
    );
    for (args, typo) in [
        (
            &["check", c, l, "--checkpoint-evrey", "64"][..],
            "--checkpoint-evrey",
        ),
        (&["check", c, l, "--quite"], "--quite"),
        (&["report", m, "--jsno"], "--jsno"),
        (&["explain", c, "--profil", l], "--profil"),
        (&["generate", "reservations", "--step", "5"], "--step"),
        (&["generate", "ratelimit", "--event", "2"], "--event"),
        (
            &[
                "serve",
                c,
                "--listen",
                "unix:/tmp/unused",
                "--reprot",
                "r.txt",
            ],
            "--reprot",
        ),
        (
            &["send", l, "--connect", "unix:/tmp/unused", "--drian"],
            "--drian",
        ),
    ] {
        let (code, out) = run(args);
        let err = code.unwrap_err();
        assert!(
            err.contains("unknown flag") && err.contains(&format!("`{typo}`")),
            "{args:?}: {err}"
        );
        assert!(out.is_empty(), "{args:?} ran anyway: {out}");
    }
}

/// The row sets, windows and indexes hash with a seed each process draws
/// for itself, so their iteration order differs from process to process.
/// Nothing printed or persisted may depend on it: three separate `rtic
/// check` processes over one telemetry log (string-valued, multi-row
/// witnesses) must write the same bytes to stdout and to the checkpoint.
#[test]
fn separate_processes_print_and_checkpoint_the_same_bytes() {
    let rtic = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rtic"))
            .args(args)
            .output()
            .expect("the rtic binary runs");
        assert!(
            out.stderr.is_empty(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let generated = rtic(&[
        "generate",
        "telemetry",
        "--steps",
        "1600",
        "--entities",
        "48",
        "--events",
        "24",
        "--violation-rate",
        "0.3",
        "--seed",
        "11",
    ]);
    let generated = String::from_utf8(generated).unwrap();
    let constraints: Vec<&str> = generated
        .lines()
        .filter_map(|l| l.strip_prefix("#   "))
        .collect();
    let c = temp_file("seed.rtic", &constraints.join("\n"));
    let l = temp_file("seed.rticlog", &generated);
    // One checkpoint path for all three (stdout names it), read back
    // after each run.
    let k = temp_file("seed.ckpt", "");
    let (c, l, k) = (
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        k.to_str().unwrap(),
    );
    let runs: Vec<(Vec<u8>, Vec<u8>)> = (0..3)
        .map(|_| {
            (
                rtic(&["check", c, l, "--checkpoint", k]),
                std::fs::read(k).unwrap(),
            )
        })
        .collect();
    let stdout = String::from_utf8_lossy(&runs[0].0);
    let witnesses = stdout.lines().filter(|l| l.contains("VIOLATION")).count();
    assert!(witnesses >= 1000, "only {witnesses} witness lines");
    assert!(stdout.contains(" x2: {[d="), "no multi-row string witness");
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert!(run.0 == runs[0].0, "stdout of process {i} differs");
        assert!(run.1 == runs[0].1, "checkpoint of process {i} differs");
    }
}

/// The `step` of every `space_sample` event in a JSON-lines trace, in order.
fn sampled_steps(trace: &std::path::Path) -> Vec<u64> {
    let text = std::fs::read_to_string(trace).unwrap();
    (text.lines())
        .map(|line| rtic::obs::json::parse(line).unwrap())
        .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("space_sample"))
        .map(|e| e.get("step").and_then(|v| v.as_u64()).unwrap())
        .collect()
}

#[test]
fn sample_space_samples_every_nth_step_and_once_at_the_end() {
    let c = temp_file("every.rtic", CONSTRAINTS);
    let log: String = (0..10)
        .map(|t| format!("@{t} +reserved(\"p{t}\", {t})\n"))
        .collect();
    let l = temp_file("every.rticlog", &log);
    for checker in ["incremental", "naive"] {
        for (every, expected) in [(Some("3"), vec![0, 3, 6, 9, 10]), (None, vec![10])] {
            let t = temp_file(&format!("every-{checker}-{every:?}.jsonl"), "");
            let mut args = vec!["check", c.to_str().unwrap(), l.to_str().unwrap(), "--quiet"];
            args.extend(["--checker", checker, "--trace", t.to_str().unwrap()]);
            args.extend(every.iter().flat_map(|n| ["--sample-space", n]));
            let (code, out) = run(&args);
            assert_eq!(code.unwrap(), 1, "{out}");
            assert_eq!(
                sampled_steps(&t),
                expected,
                "{checker}, --sample-space {every:?}"
            );
        }
    }
}

/// The summary line's transitions, witnesses and violating states.
fn summary_counts(out: &str) -> [u64; 3] {
    let line = out.lines().find(|l| l.starts_with("checked ")).unwrap();
    let words: Vec<&str> = line.split_whitespace().collect();
    let word = |w: &str| words.iter().position(|x| *x == w).unwrap();
    let number = |at: usize| words[at].parse::<u64>().unwrap();
    [
        number(1),
        number(word("violation") - 1),
        number(word("over") + 1),
    ]
}

#[test]
fn the_summary_line_reads_the_metrics_registry() {
    let c = temp_file("sum.rtic", CONSTRAINTS);
    let full = "@0 +reserved(\"ann\", 17)\n@1 +reserved(\"bob\", 9)\n@2\n@3 +reserved(\"cy\", 4)\n\
                @4 +confirmed(\"bob\", 9)\n@5\n@6\n@7\n";
    let l = temp_file("sum.rticlog", full);
    let head = temp_file("sum-head.rticlog", &full[..full.find("@4").unwrap()]);
    let ckpt = temp_file("sum.ckpt", "");
    let head_run = ["--checkpoint", ckpt.to_str().unwrap()];
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        head.to_str().unwrap(),
        head_run[0],
        head_run[1],
    ]);
    assert_eq!(code.unwrap(), 1, "{out}");
    let runs: [(&str, &[&str]); 5] = [
        ("incremental", &[]),
        ("naive", &[]),
        ("windowed", &[]),
        ("active", &[]),
        ("incremental", &["--resume", ckpt.to_str().unwrap()]),
    ];
    for (checker, extra) in runs {
        let m = temp_file(&format!("sum-{checker}-{}.json", extra.len()), "");
        let mut args = vec!["check", c.to_str().unwrap(), l.to_str().unwrap(), "--quiet"];
        args.extend(["--checker", checker, "--metrics", m.to_str().unwrap()]);
        args.extend(extra);
        let (code, out) = run(&args);
        let doc = rtic::obs::json::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
        let metric = |key: &str| doc.get(key).and_then(|v| v.as_u64()).unwrap();
        let registry = [
            metric("steps"),
            metric("violations"),
            metric("violating_steps"),
        ];
        assert_eq!(summary_counts(&out), registry, "{checker} {extra:?}: {out}");
        assert_eq!(
            code.unwrap(),
            i32::from(registry[1] > 0),
            "{checker} {extra:?}"
        );
        let expected_steps = if extra.is_empty() { 8 } else { 4 };
        assert_eq!(registry[0], expected_steps, "{checker} {extra:?}");
        assert!(
            registry[1] > 0 && registry[2] > 0,
            "{checker} {extra:?}: {out}"
        );
    }
}
