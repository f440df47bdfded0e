//! Chaos tests: crash, corrupt, and panic the checker through injected
//! faults, then assert the recovery machinery restores byte-identical
//! behavior. These drive `rtic::cli::run` end to end, the same entry
//! point the binary uses.

use std::io::Write as _;
use std::path::PathBuf;

use rtic_resilience::container::seal;

fn run(args: &[&str]) -> (Result<i32, String>, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    let code = rtic::cli::run(&args, &mut out);
    (code, out)
}

fn temp_file(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtic-chaos-test-{}", std::process::id()));
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
deny reconfirm: confirmed(p, f) && once[1,*] confirmed(p, f)
"#;

/// Twelve transitions with violations spread across both halves, so a
/// mid-stream kill leaves reports on each side of the cut.
const LOG: &str = r#"
@0 +reserved("ann", 17)
@1
@2
@3 +confirmed("ann", 17)
@4 +reserved("bob", 9)
@5
@6 +reserved("cat", 1)
@7
@8 +confirmed("bob", 9)
@9
@10
@11 +confirmed("cat", 1)
"#;

fn violations(out: &str) -> Vec<String> {
    out.lines()
        .filter(|l| l.contains("VIOLATION"))
        .map(str::to_string)
        .collect()
}

/// Kill the run mid-stream (injected abort right after a periodic
/// checkpoint), resume from the checkpoint, and require the stitched
/// report stream to be byte-identical to an uninterrupted run's.
fn kill_and_resume(tag: &str) {
    let c = temp_file(&format!("{tag}.rtic"), CONSTRAINTS);
    let l = temp_file(&format!("{tag}.rticlog"), LOG);
    let ckpt = temp_file(&format!("{tag}.ckpt"), "");
    std::fs::remove_file(&ckpt).ok();

    let (code, uninterrupted) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{uninterrupted}");

    // Checkpoint every 3 steps; the abort fires on the 7th transition,
    // so exactly steps 1..=6 ran and the newest checkpoint covers them.
    let (code, killed) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "3",
        "--failpoints",
        "run.abort=abort@7",
    ]);
    assert!(
        code.unwrap_err().contains("injected crash"),
        "the drill crashes the run"
    );

    let (code, resumed) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1, "{resumed}");
    assert!(resumed.contains("resumed from"), "{resumed}");
    assert!(
        resumed.contains("skipped 6 transition(s) already covered"),
        "{resumed}"
    );

    let mut stitched = violations(&killed);
    stitched.extend(violations(&resumed));
    assert_eq!(
        stitched,
        violations(&uninterrupted),
        "{tag}: stitched reports diverge from the uninterrupted run"
    );
}

/// Two constraints, so the checkpoint is a multi-section container.
#[test]
fn kill_and_resume_is_byte_identical_fleet() {
    kill_and_resume("fleet");
}

/// Checkpoints written by retired builds are refused, not read: `--resume`
/// on a committed fixture (written over `CONSTRAINTS` and the first six
/// lines of `LOG`) fails as any malformed checkpoint does. The error names
/// the offending line of its section and says to replay the log without
/// `--resume`, and the file is left byte for byte as it was.
fn old_checkpoint_is_refused(tag: &str, fixture: &str, line: usize, why: &str) {
    let c = temp_file(&format!("{tag}.rtic"), CONSTRAINTS);
    let l = temp_file(&format!("{tag}.rticlog"), LOG);
    let ckpt = temp_file(&format!("{tag}.ckpt"), fixture);
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    let err = code.expect_err("a retired layout must not resume");
    let refusal = format!(
        "cannot resume from `{}`: checkpoint line {line}: {why}",
        ckpt.display()
    );
    assert!(err.starts_with(&refusal), "{err}");
    assert!(
        err.ends_with("; run without `--resume` to check the log from its start"),
        "{err}"
    );
    assert!(!out.contains("resumed from"), "{out}");
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), fixture);
    assert!(!PathBuf::from(format!("{}.1", ckpt.display())).exists());
}

/// Before the incremental backend always ran as a fleet, plain `rtic
/// check` wrote one section per independent checker, each with its own
/// copy of the database and no `dispatch` line (written at d35c513).
#[test]
fn checkpoint_from_the_old_independent_path_is_refused_naming_its_line() {
    let fixture = include_str!("fixtures/independent-path.ckpt");
    assert!(
        !fixture.contains("\ndispatch "),
        "fixture predates dispatch"
    );
    old_checkpoint_is_refused(
        "oldpath",
        fixture,
        6,
        "expected `dispatch …`, found `rel reserved`",
    );
}

/// The scalar plan executor (deleted; fixture written at d170c84 by
/// default flags) wrote the database into every section: the second
/// copy's first `rel` line is where the reader stops.
#[test]
fn checkpoint_from_the_scalar_plan_executor_is_refused_naming_its_line() {
    let fixture = include_str!("fixtures/scalar-plans.ckpt");
    assert_eq!(fixture.matches("\nrel reserved\n").count(), 2);
    old_checkpoint_is_refused("scalarplans", fixture, 7, "unexpected line `rel reserved`");
}

/// The per-key shard plane (deleted; fixture written at 5358331 by
/// `--shard auto --shard-evict 2`) wrapped its node blocks in a
/// `shardkey` line, a `phantom` block and one `shard <key>` block per
/// live flight.
#[test]
fn checkpoint_from_the_shard_plane_is_refused_naming_its_line() {
    let fixture = include_str!("fixtures/sharded-plane.ckpt");
    for marker in [
        "\nshardkey f\n",
        "\nphantom\n",
        "\nshard 9\n",
        "\nshard 17\n",
    ] {
        assert!(fixture.contains(marker), "fixture lacks {marker:?}");
    }
    old_checkpoint_is_refused("shardplane", fixture, 14, "unexpected line `shardkey f`");
}

/// A bare `rtic-checkpoint v1` file, as builds before the checksummed
/// container wrote it, is an unsupported version: the candidate is
/// rejected with that diagnosis and `--resume` fails saying to replay.
#[test]
fn a_bare_v1_checkpoint_is_an_unsupported_version() {
    let c = temp_file("bare.rtic", CONSTRAINTS);
    let l = temp_file("bare.rticlog", LOG);
    let fixture = include_str!("fixtures/scalar-plans.ckpt");
    let payload =
        &fixture[fixture.find("rtic-checkpoint v1").unwrap()..fixture.rfind("crc32").unwrap()];
    let ckpt = temp_file("bare.ckpt", payload);
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    let err = code.expect_err("a bare v1 file must not resume");
    assert!(
        out.contains("unsupported checkpoint version: `rtic-checkpoint v1`"),
        "{out}"
    );
    assert!(
        err.ends_with(
            "corrupt or unreadable; run without `--resume` to check the log from its start"
        ),
        "{err}"
    );
}

#[test]
fn recovery_falls_back_past_a_corrupted_newest_checkpoint() {
    let c = temp_file("fb.rtic", CONSTRAINTS);
    let l = temp_file("fb.rticlog", LOG);
    let ckpt = temp_file("fb.ckpt", "");
    std::fs::remove_file(&ckpt).ok();
    let base = [
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    // Two runs: the second rotates the first checkpoint to `.1`.
    run(&base).0.unwrap();
    run(&base).0.unwrap();
    let rotated = PathBuf::from(format!("{}.1", ckpt.display()));
    assert!(rotated.exists(), "rotation keeps the previous generation");

    // Flip one payload bit in the newest checkpoint.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();

    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 0, "fallback succeeds: {out}");
    assert!(
        out.contains("checkpoint candidate") && out.contains("rejected"),
        "the corrupt candidate is diagnosed: {out}"
    );
    assert!(out.contains("checksum mismatch"), "{out}");
    assert!(
        out.contains(&format!("resumed from `{}`", rotated.display())),
        "{out}"
    );
}

#[test]
fn recovery_with_every_candidate_corrupt_is_a_typed_error() {
    let c = temp_file("ac.rtic", CONSTRAINTS);
    let l = temp_file("ac.rticlog", LOG);
    let ckpt = temp_file("ac.ckpt", "");
    std::fs::remove_file(&ckpt).ok();
    let base = [
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    run(&base).0.unwrap();
    run(&base).0.unwrap();
    for path in [ckpt.clone(), PathBuf::from(format!("{}.1", ckpt.display()))] {
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes.truncate(len / 2);
        std::fs::write(&path, &bytes).unwrap();
    }
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    let err = code.unwrap_err();
    assert!(err.contains("every candidate in the rotation set"), "{err}");
    assert!(out.contains("truncated"), "rejections are explained: {out}");
}

#[test]
fn resuming_nonexistent_checkpoint_is_a_clear_error() {
    let c = temp_file("nx.rtic", CONSTRAINTS);
    let l = temp_file("nx.rticlog", LOG);
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        "/nonexistent/never.ckpt",
    ]);
    assert!(code.unwrap_err().contains("no checkpoint found"));
}

#[test]
fn corrupted_checkpoint_write_is_caught_on_the_next_resume() {
    // The failpoint corrupts the checkpoint *in flight* (a model of a
    // torn write the filesystem reported as successful); recovery must
    // detect it via the checksum and fall back.
    let c = temp_file("tw.rtic", CONSTRAINTS);
    let l = temp_file("tw.rticlog", LOG);
    let ckpt = temp_file("tw.ckpt", "");
    std::fs::remove_file(&ckpt).ok();
    let base = [
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    run(&base).0.unwrap(); // intact generation, becomes `.1`
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--failpoints",
        "checkpoint.write=bitflip:999",
    ]);
    code.unwrap();
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("rejected"), "{out}");
    assert!(out.contains("resumed from"), "{out}");
}

#[test]
fn panicking_engine_is_quarantined_and_the_fleet_keeps_reporting() {
    let c = temp_file("qp.rtic", CONSTRAINTS);
    let l = temp_file("qp.rticlog", LOG);
    let (code, healthy) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{healthy}");

    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--stats",
        "--failpoints",
        "engine-panic:unconfirmed=panic@2",
    ]);
    assert_eq!(code.unwrap(), 1, "the run completes: {out}");
    assert!(
        out.contains("quarantined `unconfirmed`"),
        "the quarantine is reported, not silent: {out}"
    );
    assert!(
        out.contains("injected engine panic"),
        "the panic payload is surfaced: {out}"
    );
    assert!(
        out.contains("skipped by quarantine"),
        "--stats counts the skipped engine-steps: {out}"
    );
    // The healthy constraint's reports are unchanged.
    let healthy_reconfirm: Vec<String> = violations(&healthy)
        .into_iter()
        .filter(|l| l.contains("reconfirm"))
        .collect();
    let survived: Vec<String> = violations(&out)
        .into_iter()
        .filter(|l| l.contains("reconfirm"))
        .collect();
    assert_eq!(survived, healthy_reconfirm, "{out}");
    // And the quarantined constraint stopped reporting after its panic.
    assert!(violations(&out).len() < violations(&healthy).len(), "{out}");
}

#[test]
fn quarantine_requires_the_incremental_checker() {
    let c = temp_file("qf.rtic", CONSTRAINTS);
    let l = temp_file("qf.rticlog", LOG);
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checker",
        "naive",
        "--failpoints",
        "engine-panic:unconfirmed=panic",
    ]);
    assert!(code
        .unwrap_err()
        .contains("requires the incremental checker"));
}

const BAD_LOG: &str = r#"
@0 +reserved("ann", 17)
@1 oops this is not a transition
@2
@3 +confirmed(
@4
"#;

#[test]
fn bad_lines_abort_under_the_strict_default() {
    let c = temp_file("bs.rtic", CONSTRAINTS);
    let l = temp_file("bs.rticlog", BAD_LOG);
    let (code, _) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    let err = code.unwrap_err();
    assert!(err.contains("line 3"), "names the offending line: {err}");
}

#[test]
fn bad_lines_are_skipped_and_counted_under_skip_policy() {
    let c = temp_file("bk.rtic", CONSTRAINTS);
    let l = temp_file("bk.rticlog", BAD_LOG);
    let t = temp_file("bk.jsonl", "");
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--on-bad-line",
        "skip",
        "--stats",
        "--trace",
        t.to_str().unwrap(),
    ]);
    assert_eq!(code.unwrap(), 1, "{out}");
    assert!(out.contains("checked 3 transitions"), "{out}");
    assert!(out.contains("skipped 2 malformed line(s)"), "{out}");
    assert!(out.contains("bad lines skipped: 2"), "{out}");
    let trace_text = std::fs::read_to_string(&t).unwrap();
    let bad_events = trace_text
        .lines()
        .filter(|l| l.contains("\"event\":\"bad_line\""))
        .count();
    assert_eq!(bad_events, 2, "{trace_text}");
}

#[test]
fn bad_line_budget_bounds_the_tolerance() {
    let c = temp_file("bb.rtic", CONSTRAINTS);
    let l = temp_file("bb.rticlog", BAD_LOG);
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--on-bad-line",
        "skip",
        "--bad-line-budget",
        "1",
    ]);
    let err = code.unwrap_err();
    assert!(err.contains("budget exhausted"), "{err}");
    // The budget flag alone (without the skip policy) is rejected.
    let (code, _) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--bad-line-budget",
        "5",
    ]);
    assert!(code.unwrap_err().contains("--on-bad-line skip"));
}

/// A stray non-UTF-8 byte is a malformed *line*, not a failed *stream*:
/// the skip policy counts it like any other bad line and checks the rest,
/// and the strict default still stops at it with file:line.
#[test]
fn a_non_utf8_line_is_a_bad_line_not_a_dead_stream() {
    let c = temp_file("bu.rtic", CONSTRAINTS);
    let l = temp_file("bu.rticlog", "");
    let log: &[u8] = b"@0 +reserved(\"ann\", 17)\n@1 +reserved(\"b\xff\", 2)\n@2\n@3\n";
    std::fs::write(&l, log).unwrap();
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--on-bad-line",
        "skip",
        "--stats",
    ]);
    assert_eq!(code.unwrap(), 1, "{out}");
    assert!(out.contains("checked 3 transitions"), "{out}");
    assert!(out.contains("skipped 1 malformed line(s)"), "{out}");
    assert!(out.contains("VIOLATION unconfirmed"), "{out}");

    let (code, _) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    let err = code.unwrap_err();
    assert!(err.contains("bu.rticlog"), "names the file: {err}");
    assert!(err.contains("line 2: invalid UTF-8 at byte 16"), "{err}");
}

/// Satellite drill for the replay cursor vs. the bad-line budget: the
/// malformed lines inside the checkpoint-covered prefix were already
/// charged by the run that wrote the checkpoint. A resumed run must not
/// charge them again — otherwise every restart shrinks the effective
/// budget until a once-survivable log kills the run.
#[test]
fn resume_does_not_double_charge_replayed_bad_lines() {
    // LOG with two malformed lines in the prefix the checkpoint will
    // cover (t <= 5) and one past it.
    let log = r#"
@0 +reserved("ann", 17)
this is not a transition
@1
@2
+confirmed( also not one
@3 +confirmed("ann", 17)
@4 +reserved("bob", 9)
@5
@6 +reserved("cat", 1)
@7
@neither is this
@8 +confirmed("bob", 9)
@9
@10
@11 +confirmed("cat", 1)
"#;
    let c = temp_file("budget.rtic", CONSTRAINTS);
    let l = temp_file("budget.rticlog", log);
    let ckpt = temp_file("budget.ckpt", "");
    std::fs::remove_file(&ckpt).ok();

    // First run: two bad lines fit the budget of 2; the abort fires on
    // the 7th parsed transition, so the newest checkpoint covers the
    // first 6 (t <= 5) — including both bad lines' positions.
    let (code, killed) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--on-bad-line",
        "skip",
        "--bad-line-budget",
        "2",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "3",
        "--failpoints",
        "run.abort=abort@7",
    ]);
    assert!(code.unwrap_err().contains("injected crash"), "{killed}");

    // Resume with a budget of 1: only the one *new* bad line may be
    // charged. Double-counting the two replayed ones would exhaust the
    // budget and abort a log the original run survived.
    let (code, resumed) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--on-bad-line",
        "skip",
        "--bad-line-budget",
        "1",
        "--resume",
        ckpt.to_str().unwrap(),
        "--stats",
    ]);
    assert_eq!(
        code.unwrap(),
        1,
        "replayed bad lines must not count against the budget: {resumed}"
    );
    assert!(
        resumed.contains("skipped 6 transition(s) already covered"),
        "{resumed}"
    );
    assert!(
        resumed.contains("skipped 2 malformed line(s) already covered"),
        "{resumed}"
    );
    assert!(
        resumed.contains("skipped 1 malformed line(s) (--on-bad-line skip, budget 1)"),
        "only the post-cursor bad line is charged: {resumed}"
    );

    // And the stitched report stream still matches an uninterrupted run.
    let (code, uninterrupted) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--on-bad-line",
        "skip",
        "--bad-line-budget",
        "3",
    ]);
    assert_eq!(code.unwrap(), 1, "{uninterrupted}");
    let mut stitched = violations(&killed);
    stitched.extend(violations(&resumed));
    assert_eq!(stitched, violations(&uninterrupted));
}

#[test]
fn resume_with_a_changed_constraint_body_names_the_constraint() {
    let changed: &str = r#"
relation reserved(p: str, f: int)
relation confirmed(p: str, f: int)
deny unconfirmed: reserved(p, f) && once[3,*] reserved(p, f) && !once confirmed(p, f)
deny reconfirm: confirmed(p, f) && once[1,*] confirmed(p, f)
"#;
    let c = temp_file("body.rtic", CONSTRAINTS);
    let l = temp_file("body.rticlog", LOG);
    let ckpt = temp_file("body.ckpt", "");
    std::fs::remove_file(&ckpt).ok();
    run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ])
    .0
    .unwrap();

    let c2 = temp_file("body-changed.rtic", changed);
    let err = run(&[
        "check",
        c2.to_str().unwrap(),
        l.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ])
    .0
    .unwrap_err();
    assert!(err.contains("`unconfirmed`"), "{err}");
    assert!(err.contains("changed since this checkpoint"), "{err}");
}

/// Composition of the two recovery mechanisms: a fleet that quarantines a
/// panicking engine, checkpoints (which excludes the quarantined engine),
/// and is then restored with the survivors must finish the log with
/// exactly the uninterrupted healthy run's reports minus the quarantined
/// constraint's from its panic step onward.
#[test]
fn quarantine_then_resume_matches_uninterrupted_minus_quarantined() {
    use rtic::core::checkpoint::{restore_set, save_set};
    use rtic::core::ConstraintSet;
    use rtic::temporal::parser::parse_file;
    use std::sync::Arc;

    let file = parse_file(CONSTRAINTS).unwrap();
    let catalog = Arc::new(file.catalog);
    let transitions = rtic::history::log::parse_log(LOG).unwrap();

    // Uninterrupted healthy fleet, keeping (step index, constraint, line).
    let mut healthy = ConstraintSet::new(file.constraints.clone(), Arc::clone(&catalog))
        .unwrap_or_else(|(c, e)| panic!("`{}` fails to compile: {e}", c.name));
    let mut healthy_lines = Vec::new();
    for (k, t) in transitions.iter().enumerate() {
        for r in healthy.step(t.time, &t.update).unwrap() {
            healthy_lines.push((k, r.constraint, r.to_string()));
        }
    }

    // Faulted fleet: `unconfirmed` panics while processing the second
    // transition and is quarantined; the fleet runs degraded until a
    // mid-stream checkpoint, then a fresh process restores the survivors
    // and finishes the log.
    let panic_step = 2; // 1-based transition number of the injected panic
    let kill = 6; // transitions processed before the checkpoint
    let mut set = ConstraintSet::new(file.constraints.clone(), Arc::clone(&catalog))
        .unwrap_or_else(|(c, e)| panic!("`{}` fails to compile: {e}", c.name));
    assert!(set.arm_panic("unconfirmed", panic_step as u64));
    let mut stitched = Vec::new();
    for t in &transitions[..kill] {
        for r in set.step(t.time, &t.update).unwrap() {
            stitched.push(r.to_string());
        }
    }
    let quarantined = set.quarantined();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert_eq!(quarantined[0].0.as_str(), "unconfirmed");
    assert!(quarantined[0].1.contains("injected engine panic"));

    let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
    assert_eq!(sections.len(), 1, "the quarantined engine is excluded");
    drop(set);

    let survivors: Vec<_> = file
        .constraints
        .iter()
        .filter(|c| c.name.as_str() != "unconfirmed")
        .cloned()
        .collect();
    let mut resumed = restore_set(survivors, Arc::clone(&catalog), &sections).unwrap();
    for t in &transitions[kill..] {
        for r in resumed.step(t.time, &t.update).unwrap() {
            stitched.push(r.to_string());
        }
    }

    let expected: Vec<String> = healthy_lines
        .into_iter()
        .filter(|(k, name, _)| name.as_str() != "unconfirmed" || *k + 1 < panic_step)
        .map(|(_, _, line)| line)
        .collect();
    assert_eq!(stitched, expected);
}

/// The fleet's database is written into the first constraint's section
/// only. Resuming the whole file with that constraint dropped from the
/// constraint file must still restore every row: the stitched report is
/// the uninterrupted run's minus the dropped constraint, where an empty
/// `confirmed` would have silenced `reconfirm` after the cut.
#[test]
fn resume_with_the_first_constraint_dropped_keeps_the_database() {
    use rtic::core::checkpoint::{restore_set, save_set};
    use rtic::core::ConstraintSet;
    use rtic::temporal::parser::parse_file;
    use std::sync::Arc;

    let file = parse_file(CONSTRAINTS).unwrap();
    let catalog = Arc::new(file.catalog);
    let transitions = rtic::history::log::parse_log(LOG).unwrap();
    let kill = 6;
    assert_eq!(file.constraints[0].name.as_str(), "unconfirmed");

    // One uninterrupted run of the whole fleet; at the cut, a second set
    // is restored from its checkpoint without the first constraint and
    // steps alongside it.
    let mut set = ConstraintSet::new(file.constraints.clone(), Arc::clone(&catalog))
        .unwrap_or_else(|(c, e)| panic!("`{}` fails to compile: {e}", c.name));
    let mut resumed = None;
    let (mut expected, mut got) = (Vec::new(), Vec::new());
    for (k, t) in transitions.iter().enumerate() {
        if k == kill {
            let sections: Vec<String> = save_set(&set).into_iter().map(|(_, s)| s).collect();
            assert!(sections[0].contains("constraint unconfirmed\n"));
            assert!(sections[0].contains("\nrel ") && !sections[1].contains("\nrel "));
            assert!(sections[1].contains("\ndatabase shared\n"));
            let survivors = file.constraints[1..].to_vec();
            let restored = restore_set(survivors, Arc::clone(&catalog), &sections).unwrap();
            assert_eq!(restored.database(), set.database());
            resumed = Some(restored);
        }
        let reports = set.step(t.time, &t.update).unwrap();
        if let Some(resumed) = resumed.as_mut() {
            expected.extend(reports[1..].iter().map(|r| r.to_string()));
            got.extend(
                resumed
                    .step(t.time, &t.update)
                    .unwrap()
                    .iter()
                    .map(|r| r.to_string()),
            );
        }
    }
    assert!(
        expected
            .iter()
            .any(|line| line.contains("VIOLATION") && line.contains("ann")),
        "a row from before the cut must matter after it"
    );
    assert_eq!(got, expected);
}

/// Runs a resident `rtic serve` daemon over `constraints` and `log`
/// through a kill/resume drill and returns the final report file's lines
/// and the resumed daemon's output. The first incarnation checkpoints
/// every `every` updates under the failpoints `faults` and dies with an
/// error containing `crash`; the second resumes from the newest intact
/// periodic checkpoint, which must cover exactly `covered` updates,
/// re-streams the full log, and drains.
///
/// `serve.step=abort@<covered + 1>` is the simulated kill -9 — no reply,
/// no cleanup, no final checkpoint — right after the checkpoint covering
/// `covered`. That checkpoint's write may still be in flight on the
/// writer thread when the engine dies; the daemon joins the writer on
/// its way out, so the write lands and `covered` stays exact. (A real
/// kill -9 can cut that write short, which leaves the previous
/// generation as the primary; the CI `serve` job kills mid-write.)
fn serve_kill_resume_drill(
    tag: &str,
    constraints: &str,
    log: &str,
    every: usize,
    faults: &str,
    crash: &str,
    covered: usize,
) -> (Vec<String>, String) {
    assert_eq!(
        covered % every,
        0,
        "the resume follows a periodic checkpoint"
    );
    let c = temp_file(&format!("{tag}.rtic"), constraints);
    let l = temp_file(&format!("{tag}.rticlog"), log);
    let dir = c.parent().unwrap().to_path_buf();
    let sock = dir.join(format!("{tag}.sock"));
    let ckpt = dir.join(format!("{tag}.ckpt"));
    let report = dir.join(format!("{tag}.report"));
    for path in [&ckpt, &report] {
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_file(PathBuf::from(format!("{}.1", ckpt.display()))).ok();
    std::fs::remove_file(PathBuf::from(format!("{}.2", ckpt.display()))).ok();

    let spawn = |resume: bool, faults: Option<&str>| {
        let mut args = vec![
            "serve".to_string(),
            c.to_str().unwrap().to_string(),
            "--listen".to_string(),
            format!("unix:{}", sock.display()),
            "--checkpoint".to_string(),
            ckpt.to_str().unwrap().to_string(),
            "--checkpoint-every".to_string(),
            every.to_string(),
            "--report".to_string(),
            report.to_str().unwrap().to_string(),
        ];
        if resume {
            args.push("--resume".to_string());
        }
        if let Some(spec) = faults {
            args.push("--failpoints".to_string());
            args.push(spec.to_string());
        }
        std::thread::spawn(move || {
            let mut out = String::new();
            let code = rtic::cli::run(&args, &mut out);
            (code, out)
        })
    };
    let connect = format!("unix:{}", sock.display());
    let stream = |drain: bool| {
        let mut args = vec![
            "send",
            l.to_str().unwrap(),
            "--connect",
            connect.as_str(),
            "--quiet",
        ];
        if drain {
            args.push("--drain");
        }
        run(&args)
    };

    // Incarnation 1: dies mid-stream, its newest intact checkpoint
    // covering the first `covered`.
    let server = spawn(false, Some(faults));
    let (code, _) = stream(false);
    assert!(code.is_err(), "{tag}: the stream is cut by the crash");
    let (code, out) = server.join().unwrap();
    assert!(code.unwrap_err().contains(crash), "{tag}: {out}");
    assert!(
        !out.contains("drained:"),
        "{tag}: a kill -9 must not look like a graceful drain: {out}"
    );

    // Incarnation 2: resume, re-stream the whole log (the covered
    // prefix is acked as replayed, not re-checked), drain gracefully.
    let server = spawn(true, None);
    let (code, send_out) = stream(true);
    code.unwrap();
    assert!(
        send_out.contains(&format!("{covered} update(s) acked as already covered")),
        "{tag}: {send_out}"
    );
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{tag}: {out}");
    assert!(out.contains("resumed from"), "{tag}: {out}");
    assert!(
        out.contains(&format!("skipped {covered} transition(s) already covered")),
        "{tag}: {out}"
    );

    let report = std::fs::read_to_string(&report)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    (report, out)
}

/// The tentpole drill: a serve daemon kill -9'd mid-stream and
/// restarted with `--resume` must end with a final report
/// byte-identical to an uninterrupted daemon's and to batch
/// `rtic check` over the same log. `LOG` churns keys across the cut —
/// `ann` goes quiet before the kill and keeps violating after it, `bob`
/// reserves before and confirms after — which is the traffic the old
/// shard-eviction drill ran.
#[test]
fn serve_kill_and_resume_report_matches_batch_check() {
    let (code, batch) = {
        let c = temp_file("skr-batch.rtic", CONSTRAINTS);
        let l = temp_file("skr-batch.rticlog", LOG);
        run(&["check", c.to_str().unwrap(), l.to_str().unwrap()])
    };
    assert_eq!(code.unwrap(), 1, "{batch}");
    let expected = violations(&batch);

    let (crashed, _) = serve_kill_resume_drill(
        "skr",
        CONSTRAINTS,
        LOG,
        3,
        "serve.step=abort@7",
        "injected crash",
        6,
    );
    assert_eq!(
        crashed, expected,
        "kill -9 + resume diverges from batch check"
    );

    // Control: an uninterrupted daemon produces the same bytes.
    let c = temp_file("skr-ctl.rtic", CONSTRAINTS);
    let l = temp_file("skr-ctl.rticlog", LOG);
    let dir = c.parent().unwrap().to_path_buf();
    let sock = dir.join("skr-ctl.sock");
    let report = dir.join("skr-ctl.report");
    let args: Vec<String> = [
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--report",
        report.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || {
        let mut out = String::new();
        let code = rtic::cli::run(&args, &mut out);
        (code, out)
    });
    let (code, _) = run(&[
        "send",
        l.to_str().unwrap(),
        "--connect",
        &format!("unix:{}", sock.display()),
        "--quiet",
        "--drain",
    ]);
    code.unwrap();
    server.join().unwrap().0.unwrap();
    let uninterrupted: Vec<String> = std::fs::read_to_string(&report)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(crashed, uninterrupted);
}

/// Sixteen tenants, each with its own relations and deadline constraint,
/// taking turns: update `t` belongs to tenant `t mod 16`, which opens
/// ticket `t / 16`, closes the previous one (every third never closes and
/// violates from age 32 — two turns — until it is dropped a turn later).
fn tenant_turns() -> (String, String) {
    let (mut constraints, mut log) = (String::new(), String::new());
    for i in 0..16 {
        constraints += &format!(
            "relation open_{i}(k: int)\nrelation closed_{i}(k: int)\n\
             deny late_{i}: open_{i}(k) && once[32,*] open_{i}(k) && !once[0,60] closed_{i}(k)\n"
        );
    }
    for t in 1..=112u64 {
        let (i, n) = (t % 16, t as i64 / 16);
        log += &format!("@{t} +open_{i}({n})");
        if n >= 1 && (n - 1) % 3 != 0 {
            log += &format!(" +closed_{i}({})", n - 1);
        }
        if n >= 3 {
            log += &format!(" -open_{i}({})", n - 3);
        }
        log.push('\n');
    }
    (constraints, log)
}

/// A kill -9 that lands *between two turns* of fifteen tenants: their
/// engines are asleep with states deferred when the last checkpoint is
/// written, so the checkpoint must hold the settled state — what the
/// eager path would have left — or the resumed daemon's report drifts.
#[test]
fn serve_killed_mid_sleep_resumes_to_the_same_report() {
    use rtic::core::ConstraintSet;
    use std::sync::Arc;

    let (constraints, log) = tenant_turns();
    let covered = 55;
    // The cut really is mid-sleep: replay the covered prefix in process.
    let file = rtic::temporal::parser::parse_file(&constraints).unwrap();
    let mut twin = ConstraintSet::new(file.constraints, Arc::new(file.catalog))
        .unwrap_or_else(|(c, e)| panic!("`{}` fails to compile: {e}", c.name));
    for t in &rtic::history::log::parse_log(&log).unwrap()[..covered] {
        twin.step(t.time, &t.update).unwrap();
    }
    let asleep = twin.deferred_ticks().iter().filter(|d| d.0 > 0).count();
    assert_eq!(asleep, 15, "every tenant but the one just served sleeps");

    let c = temp_file("midsleep-batch.rtic", &constraints);
    let l = temp_file("midsleep-batch.rticlog", &log);
    let (code, batch) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{batch}");
    let expected = violations(&batch);
    assert!(expected.len() > 100, "violations on both sides of the cut");
    let abort = format!("serve.step=abort@{}", covered + 1);
    let (crashed, _) = serve_kill_resume_drill(
        "midsleep",
        &constraints,
        &log,
        5,
        &abort,
        "injected crash",
        covered,
    );
    assert_eq!(crashed, expected, "kill -9 mid-sleep + resume diverges");
}

/// The daemon's checkpoint writes fail or tear (`serve.checkpoint`), and
/// `--resume` plus a full re-stream still ends byte-identical to batch
/// `rtic check`. With `--checkpoint-every 3` the second write holds six
/// updates:
/// * `io-error@2` fails it on the writer thread after its pass was
///   acked; the third checkpoint finds the error and the daemon exits
///   non-zero. The failed write rotated nothing, so the primary is still
///   the first write (three updates).
/// * `truncate:60@2` tears it on disk, and a kill right after lets it
///   land: resume rejects the torn primary and falls back to `.1`.
#[test]
fn serve_checkpoint_write_failures_resume_to_batch_check() {
    let c = temp_file("ckfail-batch.rtic", CONSTRAINTS);
    let l = temp_file("ckfail-batch.rticlog", LOG);
    let (code, batch) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{batch}");
    let expected = violations(&batch);

    let (report, out) = serve_kill_resume_drill(
        "ckfail-io",
        CONSTRAINTS,
        LOG,
        3,
        "serve.checkpoint=io-error@2",
        "cannot write checkpoint",
        3,
    );
    assert_eq!(
        report, expected,
        "a failed checkpoint write + resume diverges"
    );
    assert!(!out.contains("rejected"), "{out}");

    let (report, out) = serve_kill_resume_drill(
        "ckfail-torn",
        CONSTRAINTS,
        LOG,
        3,
        "serve.checkpoint=truncate:60@2;serve.step=abort@7",
        "injected crash",
        3,
    );
    assert_eq!(report, expected, "a torn checkpoint + resume diverges");
    assert!(
        out.contains("ckfail-torn.ckpt` rejected") && out.contains("ckfail-torn.ckpt.1`"),
        "{out}"
    );
}

/// One rotation set, both commands: a daemon killed after its third
/// checkpoint leaves `s.ckpt` (step 150), `.1` (100) and `.2` (50); with
/// the newest torn, `check --resume` and `serve --resume` reject it with
/// the same line, count the same fallback, and resume from `.1`. The
/// batch checker resumed from the daemon's checkpoint then prints exactly
/// the uninterrupted run's violation lines after the cursor.
#[test]
fn check_and_serve_recover_one_rotation_set_alike() {
    let (code, generated) = run(&["generate", "reservations", "--steps", "200", "--seed", "11"]);
    assert_eq!(code, Ok(0));
    let constraints: String = generated
        .lines()
        .filter_map(|l| l.strip_prefix("#   "))
        .map(|l| format!("{l}\n"))
        .collect();
    let c = temp_file("both.rtic", &constraints);
    let l = temp_file("both.rticlog", &generated);
    let (c, l) = (c.to_str().unwrap(), l.to_str().unwrap());
    let ckpt = temp_file("both.ckpt", "");
    let rotated = |i: usize| PathBuf::from(format!("{}.{i}", ckpt.display()));
    for path in [ckpt.clone(), rotated(1), rotated(2)] {
        std::fs::remove_file(path).ok();
    }
    let sock = temp_file("both.sock", "");
    let connect = format!("unix:{}", sock.display());
    let serve = |extra: &[&str]| {
        let mut args = vec!["serve", c, "--listen", &connect, "--checkpoint"];
        args.push(ckpt.to_str().unwrap());
        args.extend_from_slice(extra);
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        std::thread::spawn(move || {
            let mut out = String::new();
            let code = rtic::cli::run(&args, &mut out);
            (code, out)
        })
    };

    let daemon = serve(&[
        "--checkpoint-every",
        "50",
        "--failpoints",
        "serve.step=abort@151",
    ]);
    let (code, _) = run(&["send", l, "--connect", &connect, "--quiet"]);
    assert!(code.is_err(), "the stream is cut by the crash");
    let (code, out) = daemon.join().unwrap();
    assert!(code.unwrap_err().contains("injected crash"), "{out}");
    assert!(rotated(2).exists(), "three generations were written");
    let newest = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &newest[..newest.len() / 2]).unwrap();

    let fallbacks = |metrics: &PathBuf| {
        let doc = rtic::obs::json::parse(&std::fs::read_to_string(metrics).unwrap()).unwrap();
        doc.get("checkpoint_fallbacks").and_then(|v| v.as_u64())
    };
    let recovery = |out: &str| -> Vec<String> {
        let recovery = out
            .lines()
            .filter(|l| l.contains(" rejected: ") || l.starts_with("resumed from"));
        recovery.map(str::to_string).collect()
    };
    let check_metrics = temp_file("both-check.json", "");
    let (code, checked) = run(&[
        "check",
        c,
        l,
        "--resume",
        ckpt.to_str().unwrap(),
        "--metrics",
        check_metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, Ok(1), "{checked}");
    let serve_metrics = temp_file("both-serve.json", "");
    let daemon = serve(&["--resume", "--metrics", serve_metrics.to_str().unwrap()]);
    let (code, drained) = run(&[
        "send",
        temp_file("both-empty.rticlog", "").to_str().unwrap(),
        "--connect",
        &connect,
        "--drain",
    ]);
    assert_eq!(code, Ok(0), "{drained}");
    let (code, served) = daemon.join().unwrap();
    assert_eq!(code, Ok(0), "{served}");

    let lines = recovery(&checked);
    assert_eq!(lines, recovery(&served));
    let torn = format!("checkpoint candidate `{}` rejected: ", ckpt.display());
    let resumed = format!("resumed from `{}` at t=@100", rotated(1).display());
    assert!(lines.len() == 2 && lines[0].starts_with(&torn), "{checked}");
    assert_eq!(lines[1], resumed);
    assert_eq!(fallbacks(&check_metrics), Some(1));
    assert_eq!(fallbacks(&serve_metrics), Some(1));

    let (code, batch) = run(&["check", c, l]);
    assert_eq!(code, Ok(1), "{batch}");
    let after_cursor = |line: &String| {
        let time = line
            .split_whitespace()
            .next()
            .and_then(|t| t.strip_prefix('@'));
        time.and_then(|t| t.parse::<u64>().ok())
            .is_some_and(|t| t > 100)
    };
    let uninterrupted: Vec<String> = violations(&batch)
        .into_iter()
        .filter(after_cursor)
        .collect();
    assert!(
        !uninterrupted.is_empty(),
        "violations on the resumed side of the cut"
    );
    assert_eq!(violations(&checked), uninterrupted);
}

#[test]
fn periodic_checkpoints_rotate_generations() {
    let c = temp_file("rot.rtic", CONSTRAINTS);
    let l = temp_file("rot.rticlog", LOG);
    let ckpt = temp_file("rot.ckpt", "");
    std::fs::remove_file(&ckpt).ok();
    let (code, out) = run(&[
        "check",
        c.to_str().unwrap(),
        l.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "4",
        "--checkpoint-keep",
        "2",
    ]);
    assert_eq!(code.unwrap(), 1, "{out}");
    // 12 steps: periodic writes after 4, 8, 12 plus the final one; with
    // keep=2 only the two newest survive.
    assert!(ckpt.exists());
    assert!(PathBuf::from(format!("{}.1", ckpt.display())).exists());
    assert!(!PathBuf::from(format!("{}.2", ckpt.display())).exists());
    for path in [ckpt.clone(), PathBuf::from(format!("{}.1", ckpt.display()))] {
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"rtic-checkpoint-set v2"), "{path:?}");
    }
}

/// A checkpoint whose window entry lists its stamps out of
/// order (`3 2`) used to panic `--resume` (exit 101) at `encode.rs`'s
/// "stamps must ascend"; one with a stamp later than the section's `time`
/// (`1 2 9`) was accepted silently. Both are now format errors naming the
/// line — the window's expiry index is rebuilt from exactly these stamps.
#[test]
fn disordered_or_future_window_stamps_are_rejected_not_panicked_on() {
    let c = temp_file(
        "stamps.rtic",
        "relation p(x: str)\ndeny d: p(x) && once[1,3] p(x)\n",
    );
    let l = temp_file("stamps.rticlog", "@6 +p(\"a\")\n@7\n");
    for (stamps, why) in [
        ("3 2", "must ascend"),
        ("1 2 9", "after the checkpoint's time"),
    ] {
        let text = format!(
            "rtic-checkpoint v1\nconstraint d\nbody p(x) && once[1,3] p(x)\ntime 5\nsteps 3\n\
             dispatch 3 0 0 0\nnode 0 once\n{stamps} | \"a\"\nendnode\n"
        );
        let ckpt = temp_file("stamps.ckpt", &seal([text.as_str()]));
        let args = [
            "check",
            c.to_str().unwrap(),
            l.to_str().unwrap(),
            "--resume",
        ];
        let (code, out) = run(&[&args[..], &[ckpt.to_str().unwrap()]].concat());
        let err = code.expect_err("a malformed checkpoint must not resume");
        assert!(
            err.contains("line 8") && err.contains(why),
            "{stamps}: {err}\n{out}"
        );
    }
}

/// The same rules hold for the `prev` and `histi` blocks. A
/// `prev` block stamped after the section's `time` used to resume and
/// then panic the first step in `TimePoint::age_of`, which quarantined the
/// constraint and exited 0 with no violations; a `histi` block whose
/// `older`/`recent` times run backwards restored silently. Both are now
/// format errors naming their line.
#[test]
fn prev_and_histi_blocks_with_disordered_or_future_times_are_rejected() {
    let l = temp_file("blocks.rticlog", "@6 +p(\"a\")\n@7\n");
    for (body, node, line, why) in [
        (
            "p(x) && prev p(x)",
            "node 0 prev\ntime 99\n| \"a\"\n",
            8,
            "after the checkpoint's time",
        ),
        (
            "p(x) && hist[1,*] p(x)",
            "node 0 histi\nstarted true\nolder 50\nrecent 9 4\n60 1 | \"a\"\n",
            10,
            "must ascend",
        ),
        (
            "p(x) && hist[1,*] p(x)",
            "node 0 histi\nstarted true\nolder 4\nrecent 5\n60 1 | \"a\"\n",
            11,
            "after the checkpoint's time",
        ),
    ] {
        let c = temp_file(
            "blocks.rtic",
            &format!("relation p(x: str)\ndeny d: {body}\n"),
        );
        let text = format!(
            "rtic-checkpoint v1\nconstraint d\nbody {body}\ntime 5\nsteps 3\n\
             dispatch 3 0 0 0\n{node}endnode\n"
        );
        let ckpt = temp_file("blocks.ckpt", &seal([text.as_str()]));
        let args = [
            "check",
            c.to_str().unwrap(),
            l.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ];
        let (code, out) = run(&args);
        let err = code.expect_err("a malformed checkpoint must not resume");
        assert!(
            err.contains(&format!("line {line}")) && err.contains(why),
            "{node}: {err}\n{out}"
        );
    }
}

/// A resumed process interns its strings in the order it meets them, and
/// `Symbol: Ord` is intern order, by which a violation's witnesses are
/// listed. `x` left the bounded state at @2 — gone from both relations and
/// from every window — so a process resumed from the @7 checkpoint meets
/// `y` first and prints `{[d=y], [d=x]}` where the uninterrupted run prints
/// `{[d=x], [d=y]}`. The lines, their counts and their witness sets agree,
/// and that is what is pinned here; the same bytes need witnesses ordered
/// by value at the report boundary (ROADMAP item 7), whose acceptance is
/// this repro's exact output. In-process resumes share one interner, so
/// this needs separate processes.
#[test]
fn a_resumed_process_reports_the_same_lines_and_witness_sets() {
    let c = temp_file(
        "interned.rtic",
        "relation online(d: str)\nrelation hb(d: str)\n\
         deny silent: online(d) && !(once[0,2] hb(d))\n",
    );
    let lines = [
        "@1 +online(\"x\") +hb(\"x\")",
        "@2 -online(\"x\") -hb(\"x\")",
        "@6 +online(\"y\") +hb(\"y\")",
        "@7 -hb(\"y\")",
        "@10 +online(\"x\")",
    ];
    let whole = temp_file("interned.rticlog", &(lines.join("\n") + "\n"));
    let head = temp_file("interned-head.rticlog", &(lines[..4].join("\n") + "\n"));
    let ckpt = temp_file("interned.ckpt", "");
    std::fs::remove_file(&ckpt).unwrap();
    let rtic = |args: &[&std::path::Path], extra: &[&str]| -> String {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rtic"))
            .arg("check")
            .args(args)
            .args(extra)
            .output()
            .expect("rtic runs");
        String::from_utf8(out.stdout).unwrap()
    };
    let uninterrupted = rtic(&[&c, &whole], &[]);
    rtic(&[&c, &head], &["--checkpoint", ckpt.to_str().unwrap()]);
    let resumed = rtic(&[&c, &whole], &["--resume", ckpt.to_str().unwrap()]);
    // Each violation line as its head and its set of witnesses.
    let violations = |out: &str| -> Vec<(String, std::collections::BTreeSet<String>)> {
        let lines = out.lines().filter(|l| l.contains(" VIOLATION "));
        let split = lines.map(|l| l.split_once(": {").expect("a witness set"));
        let set = |w: &str| {
            w.trim_end_matches('}')
                .split(", ")
                .map(str::to_string)
                .collect()
        };
        split
            .map(|(head, witnesses)| (head.to_string(), set(witnesses)))
            .collect()
    };
    assert!(uninterrupted.contains("@10 VIOLATION silent x2: {[d=x], [d=y]}\n"));
    assert_eq!(
        violations(&resumed),
        violations(&uninterrupted),
        "{resumed}"
    );
    // `… [incremental]: 2 violation witness(es) over 1 state(s)`.
    let counts = |out: &str| Some(out.lines().last()?.rsplit_once("]: ")?.1.to_string());
    let two = Some("2 violation witness(es) over 1 state(s)");
    assert_eq!(counts(&uninterrupted).as_deref(), two, "{uninterrupted}");
    assert_eq!(counts(&resumed).as_deref(), two, "{resumed}");
}

/// A daemon's rotation set carries its report beside the engines; batch
/// `check` steps the engines but not that report. A set it rewrote would
/// lose the section, and the next `serve --resume` would boot at the
/// cursor with `steps=0` and an empty report. So `check --resume
/// --checkpoint` over such a set is refused, naming the section; the set
/// is left byte for byte, and the daemon resumes to the uninterrupted
/// report.
#[test]
fn check_refuses_to_checkpoint_over_a_daemons_report() {
    let (code, generated) = run(&["generate", "reservations", "--steps", "60", "--seed", "11"]);
    assert_eq!(code, Ok(0));
    let constraints: String = generated
        .lines()
        .filter_map(|l| l.strip_prefix("#   "))
        .map(|l| format!("{l}\n"))
        .collect();
    let transitions: Vec<&str> = generated.lines().filter(|l| l.starts_with('@')).collect();
    assert_eq!(transitions.len(), 60);
    let c = temp_file("report-kept.rtic", &constraints);
    let l = temp_file("report-kept.rticlog", &generated);
    let head = temp_file("report-kept-head.rticlog", &transitions[..30].join("\n"));
    let (c, l) = (c.to_str().unwrap(), l.to_str().unwrap());
    let ckpt = temp_file("report-kept.ckpt", "");
    std::fs::remove_file(&ckpt).unwrap();
    let report = temp_file("report-kept.report", "");
    let sock = temp_file("report-kept.sock", "");
    let connect = format!("unix:{}", sock.display());
    let serve = |resume: bool| {
        let mut args = vec!["serve", c, "--listen", &connect, "--checkpoint"];
        args.extend([ckpt.to_str().unwrap(), "--report", report.to_str().unwrap()]);
        args.extend(resume.then_some("--resume"));
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        std::thread::spawn(move || {
            let mut out = String::new();
            let code = rtic::cli::run(&args, &mut out);
            (code, out)
        })
    };
    let send = |log: &str| run(&["send", log, "--connect", &connect, "--drain", "--quiet"]);

    let daemon = serve(false);
    let (code, sent) = send(head.to_str().unwrap());
    assert!(matches!(code, Ok(0 | 1)), "{sent}");
    let (code, out) = daemon.join().unwrap();
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("drained: 30 transition(s)"), "{out}");
    let sealed = std::fs::read(&ckpt).unwrap();

    let (code, checked) = run(&[
        "check",
        c,
        l,
        "--resume",
        ckpt.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    let err = code.unwrap_err();
    assert!(err.contains("`rtic-serve-report v1` section"), "{err}");
    assert!(err.contains("rtic serve --resume"), "{err}");
    assert!(
        !checked.contains("VIOLATION"),
        "refused before stepping: {checked}"
    );
    assert_eq!(
        std::fs::read(&ckpt).unwrap(),
        sealed,
        "the set is untouched"
    );

    let daemon = serve(true);
    let (code, sent) = send(l);
    assert!(matches!(code, Ok(0 | 1)), "{sent}");
    assert!(
        sent.contains("30 update(s) acked as already covered"),
        "{sent}"
    );
    let (code, out) = daemon.join().unwrap();
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("at t=@30"), "{out}");
    assert!(out.contains("drained: 60 transition(s)"), "{out}");
    let (code, batch) = run(&["check", c, l]);
    assert!(matches!(code, Ok(0 | 1)), "{batch}");
    let reported = std::fs::read_to_string(&report).unwrap();
    assert_eq!(reported.lines().collect::<Vec<_>>(), violations(&batch));
    assert!(!reported.is_empty(), "the drill crosses violations");
}
