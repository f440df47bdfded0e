//! Integration tests for `rtic serve`: the resident monitoring daemon's
//! line protocol, bounded-queue backpressure, graceful drain, and
//! degraded-mode reporting. Servers run in-process on unix sockets via
//! `rtic::cli::run`, the same entry point the binary uses; clients are
//! either the bundled [`rtic::server::Client`] or a raw stream when a
//! test needs to observe the protocol without retry magic.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rtic::server::Client;

const CONSTRAINTS: &str = r#"
relation reserved(p: str, f: int)
relation confirmed(p: str, f: int)
deny unconfirmed: reserved(p, f) && once[2,*] reserved(p, f) && !once confirmed(p, f)
deny reconfirm: confirmed(p, f) && once[1,*] confirmed(p, f)
"#;

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

fn run(args: &[&str]) -> (Result<i32, String>, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    let code = rtic::cli::run(&args, &mut out);
    (code, out)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtic-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn temp_file(name: &str, content: &str) -> PathBuf {
    let path = temp_path(name);
    std::fs::write(&path, content).unwrap();
    path
}

/// Spawns `rtic::cli::run(args)` on its own thread (the daemon).
fn spawn_server(args: &[&str]) -> std::thread::JoinHandle<(Result<i32, String>, String)> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    std::thread::spawn(move || {
        let mut out = String::new();
        let code = rtic::cli::run(&args, &mut out);
        (code, out)
    })
}

fn connect(sock: &Path) -> Client {
    Client::connect_unix_retry(sock, Duration::from_secs(10)).unwrap()
}

/// A protocol-level connection with no BUSY retry: tests that count
/// raw replies use this instead of the bundled client.
struct Raw {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Raw {
    fn connect(sock: &Path) -> Raw {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => panic!("connect {sock:?}: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let reader = BufReader::new(stream.try_clone().unwrap());
        Raw {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &(impl AsRef<[u8]> + ?Sized)) {
        self.writer.write_all(line.as_ref()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Sends (via the closure) then reads one reply line.
    fn read_line_after(&mut self, send: &mut dyn FnMut(&mut Raw)) -> String {
        send(self);
        self.read_line()
    }
}

fn log_lines() -> Vec<&'static str> {
    LOG.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

fn violations(out: &str) -> Vec<String> {
    out.lines()
        .filter(|l| l.contains("VIOLATION"))
        .map(str::to_string)
        .collect()
}

#[test]
fn ping_status_and_protocol_errors_over_a_raw_stream() {
    let c = temp_file("proto.rtic", CONSTRAINTS);
    let sock = temp_path("proto.sock");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
    ]);

    let mut raw = Raw::connect(&sock);
    raw.send("PING");
    assert_eq!(raw.read_line(), "OK pong");

    // Blank lines and comments draw no reply; the next command still
    // pairs with the next reply.
    raw.send("");
    raw.send("# a comment");
    raw.send("QUERY status");
    let status = raw.read_line();
    assert!(status.starts_with("OK state=running"), "{status}");
    assert!(status.contains("steps=0"), "{status}");

    // Unknown commands and malformed updates are ERR, not disconnects.
    raw.send("FROB");
    assert!(raw.read_line().starts_with("ERR "));
    raw.send("UPDATE @not-a-time +wat(");
    assert!(raw.read_line().starts_with("ERR "));
    raw.send("PING");
    assert_eq!(raw.read_line(), "OK pong");

    // So is an update that is not UTF-8 (it used to kill the connection
    // without a reply): the byte is named, and the next update on the
    // same connection is served.
    raw.send(b"UPDATE @1 +reserved(\"b\xff\", 2)");
    assert_eq!(
        raw.read_line(),
        "ERR bad update: line 1: invalid UTF-8 at byte 16"
    );
    raw.send(b"@1 +reserved(\"ann\", 17) # \xff in a comment is not read");
    assert_eq!(raw.read_line(), "OK 0");
    raw.send(b"\xff\xfe");
    assert!(raw.read_line().starts_with("ERR unknown command"));

    raw.send("DRAIN");
    assert!(raw.read_line().starts_with("OK drained"));
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
}

/// The backpressure flood drill: with the engine paused, a burst far
/// over the queue bound must (a) never grow the queue past its
/// capacity and (b) answer every rejected update with `BUSY` — the
/// daemon sheds load instead of buffering without bound.
#[test]
fn flood_never_exceeds_the_queue_bound_and_rejects_with_busy() {
    let c = temp_file("flood.rtic", CONSTRAINTS);
    let sock = temp_path("flood.sock");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--queue",
        "4",
        "--retry-ms",
        "7",
    ]);

    let mut raw = Raw::connect(&sock);
    raw.send("PAUSE");
    assert_eq!(raw.read_line(), "OK paused");

    // 20 updates into a held queue of 4: exactly 16 must be shed.
    for t in 1..=20 {
        raw.send(&format!("@{t}"));
    }
    for i in 0..16 {
        let reply = raw.read_line();
        assert_eq!(reply, "BUSY 7", "rejected update {i} got: {reply}");
    }

    let status = raw.read_line_after(&mut |raw| raw.send("QUERY status"));
    assert!(status.contains("queue=4/4"), "{status}");
    assert!(status.contains("peak=4"), "the bound held: {status}");
    assert!(status.contains("shed=16"), "{status}");

    // Resume: the four held updates are processed and acked in order.
    raw.send("RESUME");
    assert_eq!(raw.read_line(), "OK resumed");
    for _ in 0..4 {
        let reply = raw.read_line();
        assert!(reply.starts_with("OK "), "{reply}");
    }

    raw.send("DRAIN");
    assert!(raw.read_line().starts_with("OK drained steps=4"));
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("drained: 4 transition(s)"), "{out}");
}

/// The bundled client's capped-backoff retry absorbs `BUSY` until the
/// queue frees up, then the update lands. Each side waits on `QUERY status`
/// rather than on a clock: the client sends only once the queue is full,
/// and the queue is resumed only once the daemon has shed an attempt.
#[test]
fn bundled_client_retries_busy_until_capacity_frees() {
    let c = temp_file("retry.rtic", CONSTRAINTS);
    let sock = temp_path("retry.sock");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--queue",
        "2",
    ]);

    // Hold the engine and fill the queue from a raw control stream.
    let mut control = Raw::connect(&sock);
    control.send("PAUSE");
    assert_eq!(control.read_line(), "OK paused");
    control.send("@1");
    control.send("@2");
    status_until(&mut Raw::connect(&sock), |s| s.contains("queue=2/2"));

    // Resume once the bundled client has been turned away at least once.
    let resumer = std::thread::spawn({
        let sock = sock.clone();
        move || {
            let mut raw = Raw::connect(&sock);
            status_until(&mut raw, |s| !s.contains(" shed=0 "));
            raw.send("RESUME");
            assert_eq!(raw.read_line(), "OK resumed");
        }
    });

    let mut client = connect(&sock);
    let reply = client.send_update("@3").unwrap();
    assert_eq!(reply.ok, "0", "the update landed after retries");
    assert!(
        client.busy_retries() >= 1,
        "the full queue pushed back at least once"
    );
    resumer.join().unwrap();

    assert!(client.drain().unwrap().starts_with("drained steps=3"));
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
}

/// Streaming the log through the daemon reports exactly what batch
/// `rtic check` reports, and a graceful drain leaves a valid final
/// checkpoint behind.
#[test]
fn streamed_replies_match_batch_check_and_drain_checkpoints() {
    let c = temp_file("stream.rtic", CONSTRAINTS);
    let l = temp_file("stream.rticlog", LOG);
    let sock = temp_path("stream.sock");
    let ckpt = temp_path("stream.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);

    let (code, batch) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{batch}");

    let mut client = connect(&sock);
    let mut streamed = Vec::new();
    for line in log_lines() {
        let reply = client.send_update(line).unwrap();
        streamed.extend(reply.violations);
    }
    assert_eq!(
        streamed,
        violations(&batch),
        "per-update replies diverge from rtic check"
    );

    let drained = client.drain().unwrap();
    assert!(drained.contains("steps=12"), "{drained}");
    assert!(drained.contains("witnesses=17"), "{drained}");
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("checkpoint written to"), "{out}");

    let bytes = std::fs::read(&ckpt).unwrap();
    assert!(
        bytes.starts_with(b"rtic-checkpoint-set v2"),
        "drain leaves a sealed container"
    );
}

/// `rtic send` end to end: stream a log file at a daemon, print the
/// violations, drain, and exit 1 because witnesses were found.
#[test]
fn send_command_streams_a_log_file_and_drains() {
    let c = temp_file("sendcmd.rtic", CONSTRAINTS);
    let l = temp_file("sendcmd.rticlog", LOG);
    let sock = temp_path("sendcmd.sock");
    let report = temp_path("sendcmd.report");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--report",
        report.to_str().unwrap(),
    ]);

    let (code, out) = run(&[
        "send",
        l.to_str().unwrap(),
        "--connect",
        &format!("unix:{}", sock.display()),
        "--drain",
    ]);
    assert_eq!(code.unwrap(), 1, "witnesses found: {out}");
    assert!(
        out.contains("sent 12 update(s): 17 violation witness(es)"),
        "{out}"
    );
    assert!(out.contains("server drained"), "{out}");

    let (code, _) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0);

    let (code, batch) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{batch}");
    let report_text = std::fs::read_to_string(&report).unwrap();
    assert_eq!(
        report_text.lines().collect::<Vec<_>>(),
        violations(&batch)
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        "the final report file matches batch check"
    );
}

/// A daemon on TCP port 0 names the port the kernel bound on stderr as
/// soon as it listens, so a client can find it; its stdout banner names
/// the same address.
#[test]
fn a_port_zero_daemon_names_its_bound_port_at_once() {
    let c = temp_file("port0.rtic", CONSTRAINTS);
    let l = temp_file("port0.rticlog", LOG);
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_rtic"))
        .args(["serve", c.to_str().unwrap(), "--listen", "tcp:127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the rtic binary runs");
    let mut banner = String::new();
    let stderr = daemon.stderr.take().unwrap();
    BufReader::new(stderr).read_line(&mut banner).unwrap();
    let listen = banner.trim().strip_prefix("listening on ").unwrap();
    assert!(listen.starts_with("tcp:127.0.0.1:"), "{banner}");
    assert!(!listen.ends_with(":0"), "the bound port, not 0: {banner}");

    let (code, out) = run(&["send", l.to_str().unwrap(), "--connect", listen, "--drain"]);
    assert_eq!(code.unwrap(), 1, "witnesses found: {out}");
    assert!(out.contains("server drained"), "{out}");
    let exit = daemon.wait_with_output().unwrap();
    assert_eq!(exit.status.code(), Some(0));
    let stdout = String::from_utf8(exit.stdout).unwrap();
    assert!(
        stdout.starts_with(&format!("listening on {listen}\n")),
        "{stdout}"
    );
}

/// A quarantined engine degrades the fleet but never kills the daemon:
/// status flips to DEGRADED, the drain still completes, and the
/// operator sees which constraint is out.
#[test]
fn engine_panic_degrades_status_but_the_daemon_keeps_serving() {
    let c = temp_file("degraded.rtic", CONSTRAINTS);
    let sock = temp_path("degraded.sock");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--failpoints",
        "engine-panic:unconfirmed=panic@2",
    ]);

    let mut client = connect(&sock);
    for line in log_lines() {
        client.send_update(line).unwrap();
    }
    let status = client.status().unwrap();
    assert!(status.starts_with("DEGRADED"), "{status}");
    assert!(status.contains("quarantined=1"), "{status}");

    client.drain().unwrap();
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "a degraded drain still exits 0: {out}");
    assert!(
        out.contains("quarantined `unconfirmed`"),
        "the quarantine is reported, not silent: {out}"
    );
    assert!(out.contains("injected engine panic"), "{out}");
}

/// A client whose socket writes fail (the failpoint models a stalled
/// reader with a full kernel buffer) is disconnected instead of
/// wedging the daemon; other clients keep working and see the count.
#[test]
fn stalled_client_is_disconnected_and_counted() {
    let c = temp_file("stall.rtic", CONSTRAINTS);
    let sock = temp_path("stall.sock");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--failpoints",
        "serve.write=io-error@1",
    ]);

    // The first reply write hits the injected timeout: this client is
    // cut loose mid-request.
    let mut stalled = connect(&sock);
    let err = stalled.request("PING").unwrap_err();
    assert!(err.contains("closed") || err.contains("lost"), "{err}");

    // The daemon is still healthy for everyone else.
    let mut healthy = connect(&sock);
    assert_eq!(healthy.request("PING").unwrap().ok, "pong");
    let status = healthy.status().unwrap();
    assert!(status.contains("disconnected=1"), "{status}");

    healthy.drain().unwrap();
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("disconnected 1 slow client(s)"), "{out}");
}

/// TICK advances wall-clock time with no tuples: a violation whose
/// window closes in silence is still caught, exactly as batch `check`
/// catches it from an empty log line.
#[test]
fn tick_advances_time_and_flushes_window_violations() {
    let c = temp_file("tick.rtic", CONSTRAINTS);
    let sock = temp_path("tick.sock");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
    ]);

    let mut client = connect(&sock);
    let reply = client.send_update("@0 +reserved(\"ann\", 17)").unwrap();
    assert_eq!(reply.ok, "0");
    // `unconfirmed` needs the reservation to be 2+ old with no confirm:
    // two silent ticks make it fire.
    assert_eq!(client.request("TICK 1").unwrap().ok, "0");
    let reply = client.request("TICK 2").unwrap();
    assert_eq!(reply.ok, "1", "the aged reservation violates");
    assert_eq!(reply.violations.len(), 1);
    assert!(reply.violations[0].contains("unconfirmed"), "{reply:?}");

    client.drain().unwrap();
    server.join().unwrap().0.unwrap();
}

/// The API-level shutdown flag (what SIGTERM sets) drains gracefully:
/// queue flushed, final checkpoint, exit 0. In-process tests use a
/// local flag so parallel tests don't trip each other's servers; the
/// real signal path is drilled by the CI serve job with `kill -TERM`.
#[test]
fn shutdown_flag_drains_like_sigterm() {
    use rtic::server::{serve, Listen, ServeConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let file = rtic::temporal::parser::parse_file(CONSTRAINTS).unwrap();
    let catalog = Arc::new(file.catalog.clone());
    let sock = temp_path("sigterm.sock");
    let ckpt = temp_path("sigterm.ckpt");
    std::fs::remove_file(&ckpt).ok();

    let flag = Arc::new(AtomicBool::new(false));
    let mut config = ServeConfig::new(Listen::Unix(sock.clone()));
    config.checkpoint = Some(ckpt.to_str().unwrap().to_string());
    config.shutdown = Some(Arc::clone(&flag));
    let server = std::thread::spawn(move || {
        let mut out = String::new();
        let code = serve(file.constraints, catalog, config, &mut out);
        (code, out)
    });

    let mut client = connect(&sock);
    for line in log_lines().into_iter().take(6) {
        client.send_update(line).unwrap();
    }
    flag.store(true, Ordering::SeqCst);

    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("drained: 6 transition(s)"), "{out}");
    assert!(out.contains("checkpoint written to"), "{out}");
    assert!(std::fs::read(&ckpt)
        .unwrap()
        .starts_with(b"rtic-checkpoint-set v2"));
}

/// Group commit: with the engine paused, the whole log piles up in the
/// queue; on resume the engine drains the backlog in one pass. Every
/// per-update reply must still match batch `rtic check` exactly and in
/// order, the drained totals must be unchanged, and the four checkpoint
/// ticks that fall inside the pass (`--checkpoint-every 3` over twelve
/// steps) must cost one write, not four. (The name dates from `--batch
/// N`, which used to bound the pass and count it in `batches`; the
/// traffic is unchanged, the batch here is the drained backlog.)
#[test]
fn batched_serve_replies_match_batch_check_and_record_batch_metrics() {
    let c = temp_file("backlog.rtic", CONSTRAINTS);
    let l = temp_file("backlog.rticlog", LOG);
    let sock = temp_path("backlog.sock");
    let ckpt = temp_path("backlog.ckpt");
    let metrics = temp_path("backlog.metrics.json");
    std::fs::remove_file(&ckpt).ok();
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "3",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);

    let (code, batch) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{batch}");

    // Hold the engine so all 12 updates queue up, then release: the
    // engine sees a full backlog and drains it in one pass.
    let mut raw = Raw::connect(&sock);
    raw.send("PAUSE");
    assert_eq!(raw.read_line(), "OK paused");
    for line in log_lines() {
        raw.send(line);
    }
    raw.send("RESUME");
    assert_eq!(raw.read_line(), "OK resumed");

    // Per-update replies arrive in order: zero or more VIOL lines, then
    // `OK <witnesses>` — draining must not reorder or merge them.
    let mut streamed = Vec::new();
    for i in 0..log_lines().len() {
        loop {
            let reply = raw.read_line();
            if let Some(v) = reply.strip_prefix("VIOL ") {
                streamed.push(v.to_string());
            } else {
                assert!(reply.starts_with("OK "), "update {i}: {reply}");
                break;
            }
        }
    }
    assert_eq!(
        streamed,
        violations(&batch),
        "backlog replies diverge from rtic check"
    );

    raw.send("DRAIN");
    let drained = raw.read_line();
    assert!(drained.contains("steps=12"), "{drained}");
    assert!(drained.contains("witnesses=17"), "{drained}");
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(out.contains("checkpoint written to"), "{out}");

    // Two writes — the pass's and the final one — of two engine
    // sections each.
    let doc = rtic::obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc.get("steps").and_then(|v| v.as_u64()), Some(12));
    assert_eq!(
        doc.get("checkpoint_saves").and_then(|v| v.as_u64()),
        Some(4)
    );
    assert!(doc.get("batches").is_none(), "the batch counters are gone");
}

/// A crash *inside* a multi-job drain: six updates are queued behind a
/// paused engine armed with `serve.step=abort@4`, so on resume it dies
/// mid-pass with three steps applied — none acked, none checkpointed,
/// although `--checkpoint-every 1` ticked after each. A restart with
/// `--resume` plus a full re-stream must end byte-identical to batch
/// `rtic check`: what was never acked was never promised.
#[test]
fn crash_inside_a_drain_acks_nothing_and_resumes_to_batch_check() {
    let c = temp_file("middrain.rtic", CONSTRAINTS);
    let l = temp_file("middrain.rticlog", LOG);
    let sock = temp_path("middrain.sock");
    let ckpt = temp_path("middrain.ckpt");
    let report = temp_path("middrain.report");
    std::fs::remove_file(&ckpt).ok();
    let listen = format!("unix:{}", sock.display());
    let serve = |extra: &[&str]| {
        let mut args = vec!["serve", c.to_str().unwrap(), "--listen", &listen];
        args.extend_from_slice(&["--checkpoint", ckpt.to_str().unwrap()]);
        args.extend_from_slice(&["--checkpoint-every", "1"]);
        args.extend_from_slice(&["--report", report.to_str().unwrap()]);
        args.extend_from_slice(extra);
        spawn_server(&args)
    };

    let server = serve(&["--failpoints", "serve.step=abort@4"]);
    let mut raw = Raw::connect(&sock);
    raw.send("PAUSE");
    assert_eq!(raw.read_line(), "OK paused");
    for line in &log_lines()[..6] {
        raw.send(line);
    }
    raw.send("RESUME");
    assert_eq!(raw.read_line(), "OK resumed");
    let (code, out) = server.join().unwrap();
    assert!(code.unwrap_err().contains("injected crash"), "{out}");
    // Nothing was acked: the connection just ends.
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut raw.reader, &mut rest);
    assert_eq!(rest, "", "a reply escaped the crashed pass");
    assert!(!ckpt.exists(), "a checkpoint escaped the crashed pass");

    let (code, batch) = run(&["check", c.to_str().unwrap(), l.to_str().unwrap()]);
    assert_eq!(code.unwrap(), 1, "{batch}");
    let server = serve(&["--resume"]);
    let (code, sent) = run(&["send", l.to_str().unwrap(), "--connect", &listen, "--drain"]);
    assert_eq!(code.unwrap(), 1, "{sent}");
    assert!(!sent.contains("already covered"), "{sent}");
    assert_eq!(violations(&sent), violations(&batch));
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    let reported: Vec<String> = std::fs::read_to_string(&report)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(reported, violations(&batch));
}

/// Polls `QUERY status` until `ready` holds of the status line.
fn status_until(raw: &mut Raw, ready: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = raw.read_line_after(&mut |raw| raw.send("QUERY status"));
        if ready(&status) {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "status never got there: {status}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The status line says what is durable, not what was handed to the
/// checkpoint writer: `sealed=` is the newest durable checkpoint's time
/// cursor and `ckpt_age_ms` counts from its rename. A write that fails
/// after its pass was acked moves neither, the next checkpoint stops the
/// daemon with the error, and the rotation keeps the last good
/// generation as its primary — which a resumed daemon reports as sealed.
#[test]
fn status_reports_the_durable_checkpoint_not_the_hand_off() {
    let c = temp_file("sealed.rtic", CONSTRAINTS);
    let sock = temp_path("sealed.sock");
    let ckpt = temp_path("sealed.ckpt");
    for generation in ["", ".1", ".2"] {
        std::fs::remove_file(format!("{}{generation}", ckpt.display())).ok();
    }
    let listen = format!("unix:{}", sock.display());
    let serve = |extra: &[&str]| {
        let mut args = vec!["serve", c.to_str().unwrap(), "--listen", &listen];
        args.extend_from_slice(&["--checkpoint", ckpt.to_str().unwrap()]);
        args.extend_from_slice(&["--checkpoint-every", "1"]);
        args.extend_from_slice(extra);
        spawn_server(&args)
    };

    let server = serve(&["--failpoints", "serve.checkpoint=io-error@2"]);
    let mut raw = Raw::connect(&sock);
    let status = raw.read_line_after(&mut |raw| raw.send("QUERY status"));
    assert!(status.contains(" ckpt_age_ms=- sealed=- "), "{status}");
    raw.send("@0 +reserved(\"ann\", 17)");
    assert_eq!(raw.read_line(), "OK 0");
    let status = status_until(&mut raw, |s| s.contains("sealed=@0 "));
    assert!(!status.contains("ckpt_age_ms=-"), "{status}");
    // The second checkpoint's write fails on the writer thread, after
    // its pass was acked: nothing about it became durable.
    raw.send("@1");
    assert_eq!(raw.read_line(), "OK 0");
    let status = raw.read_line_after(&mut |raw| raw.send("QUERY status"));
    assert!(status.contains("sealed=@0 "), "{status}");
    // The third checkpoint finds the failure and stops the daemon; its
    // update is never acked.
    raw.send("@2");
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut raw.reader, &mut rest);
    assert_eq!(rest, "", "a reply escaped the failed checkpoint");
    let (code, out) = server.join().unwrap();
    let err = code.unwrap_err();
    assert!(err.contains("cannot write checkpoint"), "{err}: {out}");
    assert!(
        !ckpt.with_extension("ckpt.1").exists(),
        "the failed write rotated"
    );

    let server = serve(&["--resume"]);
    let mut raw = Raw::connect(&sock);
    let status = raw.read_line_after(&mut |raw| raw.send("QUERY status"));
    assert!(status.contains(" ckpt_age_ms=- sealed=@0 "), "{status}");
    raw.send("DRAIN");
    assert!(raw.read_line().starts_with("OK drained"));
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(
        out.contains("resumed from") && out.contains("at t=@0"),
        "{out}"
    );
}

/// `--batch N` bounded the queue drain before the drain lost its knob.
/// The frozen benchmark still passes it, so it is consumed — a missing
/// value stays a usage error — and otherwise ignored, whatever N says.
#[test]
fn serve_batch_flag_validation() {
    let c = temp_file("batchval.rtic", CONSTRAINTS);
    let l = temp_file("batchval.rticlog", LOG);
    let listen = format!("unix:{}", temp_path("batchval.sock").display());
    let base = ["serve", c.to_str().unwrap(), "--listen", &listen];
    let (code, _) = run(&[&base[..], &["--batch"]].concat());
    assert!(code.unwrap_err().contains("--batch needs a value"));
    let (code, _) = run(&[&base[..], &["--batch", "--vectorize"]].concat());
    assert!(code.unwrap_err().contains("--batch needs a value"));

    let server = spawn_server(&[&base[..], &["--batch", "0"]].concat());
    let (code, sent) = run(&["send", l.to_str().unwrap(), "--connect", &listen, "--drain"]);
    assert_eq!(code.unwrap(), 1, "{sent}");
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(
        out.contains("drained: 12 transition(s), 17 violation"),
        "{out}"
    );
}

/// `Duration::from_secs_f64` panics on these; `serve` must refuse them
/// before it binds anything.
#[test]
fn serve_checkpoint_secs_rejects_negative_and_non_finite_values() {
    let c = temp_file("secs.rtic", CONSTRAINTS);
    let ckpt = temp_path("secs.ckpt");
    for bad in ["-1", "nan", "inf"] {
        let (code, _) = run(&[
            "serve",
            c.to_str().unwrap(),
            "--listen",
            "unix:/tmp/never-bound-secs.sock",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-secs",
            bad,
        ]);
        let err = code.unwrap_err();
        assert!(
            err.contains("--checkpoint-secs") && err.contains(bad),
            "{bad}: {err}"
        );
    }
}

/// `--resume` without `--checkpoint` is rejected up front; `--resume`
/// with an empty rotation set (first boot) starts fresh instead of
/// erroring, so operators can pass `--resume` unconditionally.
#[test]
fn serve_resume_flag_validation_and_first_boot() {
    let c = temp_file("val.rtic", CONSTRAINTS);
    let (code, _) = run(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        "unix:/tmp/never-bound.sock",
        "--resume",
    ]);
    assert!(code.unwrap_err().contains("--resume requires --checkpoint"));

    let missing = temp_path("val-missing.ckpt");
    std::fs::remove_file(&missing).ok();
    let sock = temp_path("val.sock");
    let server = spawn_server(&[
        "serve",
        c.to_str().unwrap(),
        "--listen",
        &format!("unix:{}", sock.display()),
        "--checkpoint",
        missing.to_str().unwrap(),
        "--resume",
    ]);
    let mut client = connect(&sock);
    let status = client.status().unwrap();
    assert!(status.contains("steps=0"), "fresh start: {status}");
    client.drain().unwrap();
    let (code, out) = server.join().unwrap();
    assert_eq!(code.unwrap(), 0, "{out}");
    assert!(!out.contains("resumed from"), "{out}");
}

/// `rtic send` streams its log line by line, as `check` reads it: a
/// non-UTF-8 byte on line 4 stops it there, naming the line and byte as
/// `check` does, after the three lines before it were sent.
#[test]
fn send_streams_its_log_and_names_a_line_that_is_not_utf8() {
    let c = temp_file("send-utf8.rtic", CONSTRAINTS);
    let l = temp_path("send-utf8.rticlog");
    let log: &[u8] = b"@0 +reserved(\"ann\", 17)\n@1\n@2\n@4 +reserved(\"b\xff\", 2)\n@5\n";
    std::fs::write(&l, log).unwrap();
    let (c, l) = (c.to_str().unwrap(), l.to_str().unwrap());
    let (code, _) = run(&["check", c, l]);
    let checked = code.unwrap_err();
    assert!(
        checked.ends_with("line 4: invalid UTF-8 at byte 16"),
        "{checked}"
    );

    let sock = temp_path("send-utf8.sock");
    let listen = format!("unix:{}", sock.display());
    let server = spawn_server(&["serve", c, "--listen", &listen]);
    let (code, out) = run(&["send", l, "--connect", &listen]);
    assert_eq!(code.unwrap_err(), checked, "{out}");
    let mut client = connect(&sock);
    let status = client.status().unwrap();
    assert!(
        status.contains("steps=3"),
        "the lines before it were sent: {status}"
    );
    client.drain().unwrap();
    assert_eq!(server.join().unwrap().0.unwrap(), 0);
}
