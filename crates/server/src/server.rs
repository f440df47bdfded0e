//! The resident daemon: accept loop, connection threads, the single
//! engine thread that owns the [`ConstraintSet`], and the checkpoint
//! writer thread that owns the rotation.
//!
//! Threading model — four layers, one owner each:
//!
//! * The **accept loop** (spawned thread) polls a nonblocking listener
//!   and hands each connection its own thread.
//! * **Connection threads** parse request lines and `try_push` jobs onto
//!   the bounded [`IngestQueue`]; a full queue is answered `BUSY` right
//!   there, so overload never reaches the engine. Status queries are
//!   also answered here, from shared gauges, so the control plane stays
//!   responsive while the engine is busy (or paused).
//! * The **engine loop** (the thread that called [`serve`]) is the only
//!   toucher of the `ConstraintSet` and the violation report. It seals
//!   each checkpoint — state and report after a whole queue pass — before
//!   it replies to that pass, so what is sealed needs no locking protocol.
//! * The **checkpoint writer** ([`CheckpointWriter`], spawned when
//!   `--checkpoint` is set) owns the rotation and makes each sealed
//!   container durable off the reply path. One write is in flight at a
//!   time: the next checkpoint, and the drain, wait for it first.
//!
//! Replies flow back through per-connection [`ClientHandle`]s guarded by
//! a write timeout: a client that stops reading long enough for its
//! socket buffer to fill is disconnected, never allowed to stall the
//! engine.

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rtic_core::{checkpoint, ConstraintSet, StepEvent, StepObserver};
use rtic_history::Transition;
use rtic_obs::MetricsRegistry;
use rtic_relation::{Catalog, Symbol, Update};
use rtic_resilience::{
    container, write_atomic, CheckpointPolicy, CheckpointTicker, CheckpointWriter, DurableError,
    FailAction, FailPlan, Rotation,
};
use rtic_temporal::{Constraint, TimePoint};

use crate::protocol::{self, Command};
use crate::queue::IngestQueue;
use crate::report::ServeReport;
use crate::signal;

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP listener at this address (`host:port`).
    Tcp(String),
}

impl Listen {
    /// Parses `unix:<path>` or `tcp:<addr>`.
    pub fn parse(spec: &str) -> Result<Listen, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("bad --listen: unix: needs a socket path".into());
            }
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("bad --listen: tcp: needs host:port".into());
            }
            Ok(Listen::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "bad --listen `{spec}`: expected unix:<path> or tcp:<host:port>"
            ))
        }
    }
}

/// Everything `rtic serve` needs beyond the constraint fleet itself.
pub struct ServeConfig {
    /// The listening socket.
    pub listen: Listen,
    /// Ingest queue bound (backpressure threshold). Default 64.
    pub queue_capacity: usize,
    /// Retry hint sent with `BUSY` replies, in milliseconds.
    pub retry_ms: u64,
    /// A blocked reply write past this deadline disconnects the client.
    pub write_timeout: Duration,
    /// Checkpoint rotation primary path (enables checkpointing).
    pub checkpoint: Option<String>,
    /// Rotation generations to keep.
    pub checkpoint_keep: usize,
    /// Mid-run checkpoint cadence (steps and/or wall time).
    pub policy: CheckpointPolicy,
    /// Restore from the newest intact rotation entry on boot.
    pub resume: bool,
    /// Fault-injection plan for chaos drills.
    pub faults: FailPlan,
    /// Where to write the final violation report on drain.
    pub report_path: Option<String>,
    /// Where to write a metrics snapshot on drain (`.prom` for
    /// Prometheus text, JSON otherwise).
    pub metrics_path: Option<String>,
    /// Extra in-process drain trigger (tests); SIGTERM always works.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl ServeConfig {
    /// A config with production defaults, listening on `listen`.
    pub fn new(listen: Listen) -> ServeConfig {
        ServeConfig {
            listen,
            queue_capacity: 64,
            retry_ms: 50,
            write_timeout: Duration::from_secs(5),
            checkpoint: None,
            checkpoint_keep: 3,
            policy: CheckpointPolicy::default(),
            resume: false,
            faults: FailPlan::default(),
            report_path: None,
            metrics_path: None,
            shutdown: None,
        }
    }
}

/// One live connection, either flavor of socket.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
            Conn::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    fn set_write_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(Some(timeout)),
            Conn::Unix(s) => s.set_write_timeout(Some(timeout)),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn bind(listen: &Listen) -> Result<Listener, String> {
        match listen {
            Listen::Tcp(addr) => TcpListener::bind(addr)
                .map(Listener::Tcp)
                .map_err(|e| format!("cannot listen on tcp:{addr}: {e}")),
            Listen::Unix(path) => {
                // A previous server kill -9'd mid-run leaves its socket
                // file behind; rebinding is the recovery path.
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                UnixListener::bind(path)
                    .map(Listener::Unix)
                    .map_err(|e| format!("cannot listen on unix:{}: {e}", path.display()))
            }
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// The write half of one connection. Shared between the connection
/// thread (BUSY/status replies) and the engine thread (step replies);
/// the mutex serializes them so reply lines never interleave.
pub(crate) struct ClientHandle {
    conn: Mutex<Conn>,
    alive: AtomicBool,
}

impl ClientHandle {
    /// Writes one reply line. A failed or timed-out write marks the
    /// client dead and shuts the socket down — a stalled reader must
    /// never wedge the engine. Returns whether the client is still up.
    fn write_line(&self, shared: &Shared, line: &str) -> bool {
        if !self.alive.load(Ordering::SeqCst) {
            return false;
        }
        let injected = matches!(
            shared.faults.check("serve.write"),
            Some(FailAction::IoError)
        );
        let mut conn = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let result = if injected {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected write fault (failpoint `serve.write`)",
            ))
        } else {
            conn.write_all(line.as_bytes())
                .and_then(|()| conn.write_all(b"\n"))
                .and_then(|()| conn.flush())
        };
        match result {
            Ok(()) => true,
            Err(_) => {
                if self.alive.swap(false, Ordering::SeqCst) {
                    shared.disconnected.fetch_add(1, Ordering::SeqCst);
                }
                conn.shutdown();
                false
            }
        }
    }
}

enum JobCmd {
    Step(Transition),
    Tick(TimePoint),
}

struct Job {
    cmd: JobCmd,
    reply: Arc<ClientHandle>,
}

/// Gauges and flags shared by every thread of one server instance.
struct Shared {
    queue: IngestQueue<Job>,
    faults: Arc<FailPlan>,
    /// Drain requested (SIGTERM, test flag, or a DRAIN command).
    draining: AtomicBool,
    /// Engine loop exited (cleanly or as a simulated crash): accept and
    /// connection threads must wind down.
    dead: AtomicBool,
    connections: AtomicUsize,
    disconnected: AtomicU64,
    accept_errors: AtomicU64,
    steps: AtomicU64,
    witnesses: AtomicU64,
    quarantined: AtomicUsize,
    /// The newest durable checkpoint: when the writer's rename returned
    /// (this process's writes only) and the time cursor it covers. A
    /// resumed daemon starts with the cursor it restored.
    durable: Mutex<(Option<Instant>, Option<TimePoint>)>,
    /// Clients awaiting the `OK drained …` reply.
    drain_waiters: Mutex<Vec<Arc<ClientHandle>>>,
    retry_ms: u64,
}

impl Shared {
    fn status_line(&self) -> String {
        let state = if self.draining.load(Ordering::SeqCst) {
            "draining"
        } else {
            "running"
        };
        let quarantined = self.quarantined.load(Ordering::SeqCst);
        let verdict = if quarantined > 0 { "DEGRADED" } else { "OK" };
        let (at, cursor) = *self.durable_lock();
        let age = at.map_or_else(|| "-".into(), |at| at.elapsed().as_millis().to_string());
        let sealed = cursor.map_or_else(|| "-".into(), |t| t.to_string());
        format!(
            "{verdict} state={state} steps={} witnesses={} queue={}/{} peak={} shed={} conns={} disconnected={} ckpt_age_ms={age} sealed={sealed} quarantined={quarantined}",
            self.steps.load(Ordering::SeqCst),
            self.witnesses.load(Ordering::SeqCst),
            self.queue.depth(),
            self.queue.capacity(),
            self.queue.peak(),
            self.queue.shed(),
            self.connections.load(Ordering::SeqCst),
            self.disconnected.load(Ordering::SeqCst),
        )
    }

    fn checkpoint_age_ms(&self) -> Option<u64> {
        self.durable_lock()
            .0
            .map(|at| at.elapsed().as_millis() as u64)
    }

    fn durable_lock(&self) -> MutexGuard<'_, (Option<Instant>, Option<TimePoint>)> {
        self.durable.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Runs the daemon until drained (exit code 0) or crashed by an
/// injected fault (error). Blocks the calling thread — it *is* the
/// engine thread.
pub fn serve(
    constraints: Vec<Constraint>,
    catalog: Arc<Catalog>,
    config: ServeConfig,
    out: &mut String,
) -> Result<i32, String> {
    let ServeConfig {
        listen,
        queue_capacity,
        retry_ms,
        write_timeout,
        checkpoint,
        checkpoint_keep,
        policy,
        resume,
        faults,
        report_path,
        metrics_path,
        shutdown,
    } = config;
    signal::install_handler();
    if shutdown.is_none() {
        // A flag-driven (test) server must not clear a pending SIGTERM
        // aimed at a sibling instance in the same process.
        signal::reset();
    }
    let rotation = checkpoint
        .as_ref()
        .map(|path| Rotation::new(path, checkpoint_keep));
    let mut registry = MetricsRegistry::new();

    // Boot-time recovery: newest intact rotation entry wins; corrupt
    // candidates are surfaced, and an empty rotation set starts fresh.
    let mut report = ServeReport::default();
    let mut restored_banner = None;
    let mut set = if resume {
        let rotation = rotation
            .as_ref()
            .ok_or("--resume requires --checkpoint (the rotation to recover from)")?;
        let outcome = rotation.recover();
        for (cand, why) in &outcome.rejected {
            registry.observe(&StepEvent::CheckpointFallback {
                path: cand.display().to_string(),
                detail: why.clone(),
            });
            let _ = writeln!(
                out,
                "checkpoint candidate `{}` rejected: {why}",
                cand.display()
            );
        }
        match outcome.restored {
            Some((found_path, sections, format)) => {
                let engine_sections: Vec<String> = sections
                    .iter()
                    .filter(|s| !ServeReport::is_section(s))
                    .cloned()
                    .collect();
                if let Some(section) = sections.iter().find(|s| ServeReport::is_section(s)) {
                    report = ServeReport::from_section(section).map_err(|e| {
                        format!("cannot resume from `{}`: {e}", found_path.display())
                    })?;
                }
                let set = checkpoint::restore_set(
                    constraints.iter().cloned(),
                    Arc::clone(&catalog),
                    &engine_sections,
                )
                .map_err(|e| format!("cannot resume from `{}`: {e}", found_path.display()))?;
                for section in &engine_sections {
                    if let Some(name) = checkpoint::section_constraint_name(section) {
                        registry.observe(&StepEvent::CheckpointRestore {
                            constraint: Symbol::intern(name),
                            bytes: section.len(),
                        });
                    }
                }
                restored_banner = Some((found_path, format, set.last_time()));
                set
            }
            None if outcome.rejected.is_empty() => fresh_set(&constraints, &catalog)?,
            None => {
                return Err(
                    "cannot resume: every checkpoint candidate in the rotation set \
                     is corrupt or unreadable"
                        .to_string(),
                )
            }
        }
    } else {
        fresh_set(&constraints, &catalog)?
    };
    for (name, nth) in faults.engine_panics() {
        if !set.arm_panic(&name, nth) {
            return Err(format!(
                "failpoint `engine-panic:{name}`: no such constraint in the fleet"
            ));
        }
    }
    let resume_cursor = restored_banner.as_ref().and_then(|(_, _, cursor)| *cursor);
    if let Some((path, format, cursor)) = &restored_banner {
        match cursor {
            Some(t) => {
                let _ = writeln!(out, "resumed from `{}` ({format}) at t={t}", path.display());
            }
            None => {
                let _ = writeln!(
                    out,
                    "resumed from `{}` ({format}) at the start of the stream",
                    path.display()
                );
            }
        }
    }

    let shared = Arc::new(Shared {
        queue: IngestQueue::new(queue_capacity),
        faults: Arc::new(faults),
        draining: AtomicBool::new(false),
        dead: AtomicBool::new(false),
        connections: AtomicUsize::new(0),
        disconnected: AtomicU64::new(0),
        accept_errors: AtomicU64::new(0),
        steps: AtomicU64::new(report.transitions),
        witnesses: AtomicU64::new(report.witnesses),
        quarantined: AtomicUsize::new(set.health().quarantined),
        durable: Mutex::new((None, resume_cursor)),
        drain_waiters: Mutex::new(Vec::new()),
        retry_ms,
    });
    let writer = rotation.map(|rotation| {
        CheckpointWriter::spawn(rotation, Arc::clone(&shared.faults), "serve.checkpoint")
    });

    let listener = Listener::bind(&listen)?;
    listener
        .set_nonblocking()
        .map_err(|e| format!("cannot configure listener: {e}"))?;
    match &listen {
        Listen::Unix(path) => {
            let _ = writeln!(out, "listening on unix:{}", path.display());
        }
        Listen::Tcp(addr) => {
            let _ = writeln!(out, "listening on tcp:{addr}");
        }
    }
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        accept_loop(listener, accept_shared, write_timeout);
    });

    let result = engine_loop(
        &mut set,
        &mut report,
        &mut registry,
        &shared,
        policy,
        shutdown.as_ref(),
        report_path.as_deref(),
        metrics_path.as_deref(),
        writer.as_ref(),
        resume_cursor,
        out,
    );
    // Joins the writer: a simulated crash lets the write in flight land,
    // so a drill knows exactly which checkpoint it resumes from.
    drop(writer);
    // Clean exit or simulated crash, the accept loop must stop either
    // way (in-process drills re-bind the same socket on restart).
    shared.dead.store(true, Ordering::SeqCst);
    shared.queue.close();
    let _ = accept_thread.join();
    if result.is_ok() {
        if let Listen::Unix(path) = &listen {
            let _ = std::fs::remove_file(path);
        }
    }
    result
}

fn fresh_set(constraints: &[Constraint], catalog: &Arc<Catalog>) -> Result<ConstraintSet, String> {
    ConstraintSet::new(constraints.iter().cloned(), Arc::clone(catalog))
        .map_err(|(c, e)| format!("constraint `{}`: {e}", c.name))
}

fn accept_loop(listener: Listener, shared: Arc<Shared>, write_timeout: Duration) {
    while !shared.dead.load(Ordering::SeqCst) && !shared.draining.load(Ordering::SeqCst) {
        match shared.faults.check("serve.accept") {
            Some(FailAction::IoError) => {
                // An injected accept failure: count it and keep serving,
                // exactly like a transient kernel-level accept error.
                shared.accept_errors.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Some(FailAction::Panic) => panic!("injected panic (failpoint `serve.accept`)"),
            _ => {}
        }
        match listener.accept() {
            Ok(conn) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    connection_loop(conn, shared, write_timeout);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                shared.accept_errors.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Dropping the listener stops accepting; a unix socket file is
    // removed by the engine thread on clean exit.
}

fn connection_loop(conn: Conn, shared: Arc<Shared>, write_timeout: Duration) {
    let _ = conn.set_read_timeout(Duration::from_millis(100));
    let _ = conn.set_write_timeout(write_timeout);
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let handle = Arc::new(ClientHandle {
        conn: Mutex::new(write_half),
        alive: AtomicBool::new(true),
    });
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let mut reader = io::BufReader::new(conn);
    let mut line = Vec::new();
    loop {
        if shared.dead.load(Ordering::SeqCst) || !handle.alive.load(Ordering::SeqCst) {
            break;
        }
        line.clear();
        // The read timeout doubles as the shutdown poll interval; a
        // partial line survives timeouts in `line` (bytes, so a timeout
        // inside a multi-byte character loses nothing).
        match read_line_with_timeouts(&mut reader, &mut line, &shared) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        if matches!(shared.faults.check("serve.read"), Some(FailAction::IoError)) {
            // Injected read fault: the connection dies as if the socket
            // broke mid-line.
            break;
        }
        let command = match protocol::parse_command(&line) {
            Ok(Some(command)) => command,
            Ok(None) => continue,
            Err(e) => {
                handle.write_line(&shared, &format!("{} {e}", protocol::ERR_PREFIX));
                continue;
            }
        };
        match command {
            Command::Update(tr) => enqueue(&shared, &handle, JobCmd::Step(tr)),
            Command::Tick(t) => enqueue(&shared, &handle, JobCmd::Tick(t)),
            Command::Status => {
                handle.write_line(&shared, &shared.status_line());
            }
            Command::Ping => {
                handle.write_line(&shared, "OK pong");
            }
            Command::Pause => {
                shared.queue.set_paused(true);
                handle.write_line(&shared, "OK paused");
            }
            Command::Resume => {
                // Ack before releasing the queue: once the engine wakes it
                // acks held updates on this same connection, and the
                // control reply must deterministically precede them.
                handle.write_line(&shared, "OK resumed");
                shared.queue.set_paused(false);
            }
            Command::Drain => {
                shared
                    .drain_waiters
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Arc::clone(&handle));
                shared.draining.store(true, Ordering::SeqCst);
                shared.queue.close();
            }
        }
    }
    handle.alive.store(false, Ordering::SeqCst);
    shared.connections.fetch_sub(1, Ordering::SeqCst);
}

/// Reads one line of bytes, treating timeouts as "poll shutdown and keep
/// going".
fn read_line_with_timeouts(
    reader: &mut io::BufReader<Conn>,
    line: &mut Vec<u8>,
    shared: &Shared,
) -> io::Result<usize> {
    use std::io::BufRead as _;
    loop {
        match reader.read_until(b'\n', line) {
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if shared.dead.load(Ordering::SeqCst) {
                    return Ok(0);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn enqueue(shared: &Shared, handle: &Arc<ClientHandle>, cmd: JobCmd) {
    let job = Job {
        cmd,
        reply: Arc::clone(handle),
    };
    if shared.queue.try_push(job).is_err() {
        // Backpressure: the update is rejected, never buffered. The
        // client owns the retry (the bundled client backs off + jitters).
        handle.write_line(
            shared,
            &format!("{} {}", protocol::BUSY_PREFIX, shared.retry_ms),
        );
    }
}

/// The engine loop: pops jobs, steps the fleet, reports, checkpoints.
/// Returns the process exit code (0 after a graceful drain).
#[allow(clippy::too_many_arguments)]
fn engine_loop(
    set: &mut ConstraintSet,
    report: &mut ServeReport,
    registry: &mut MetricsRegistry,
    shared: &Arc<Shared>,
    policy: CheckpointPolicy,
    shutdown: Option<&Arc<AtomicBool>>,
    report_path: Option<&str>,
    metrics_path: Option<&str>,
    writer: Option<&CheckpointWriter>,
    resume_cursor: Option<TimePoint>,
    out: &mut String,
) -> Result<i32, String> {
    let mut ticker = CheckpointTicker::new(policy);
    let mut replay_skipped = 0u64;
    let drain_started;
    loop {
        let external = signal::shutdown_requested()
            || shutdown.is_some_and(|flag| flag.load(Ordering::SeqCst));
        if external && !shared.draining.load(Ordering::SeqCst) {
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue.close();
        }
        let job = shared.queue.pop_timeout(Duration::from_millis(25));
        match job {
            Some(job) => {
                // Group commit: whatever is already queued behind the
                // first job shares its checkpoint write, metrics sample
                // and reply flush. One queue's worth per pass, so a
                // producer that keeps pushing cannot starve the replies.
                let mut jobs = vec![job];
                while jobs.len() < shared.queue.capacity() {
                    match shared.queue.try_pop() {
                        Some(next) => jobs.push(next),
                        None => break,
                    }
                }
                process_drained(
                    jobs,
                    set,
                    report,
                    registry,
                    shared,
                    writer,
                    &mut ticker,
                    resume_cursor,
                    &mut replay_skipped,
                )?;
            }
            None => {
                if shared.draining.load(Ordering::SeqCst) && shared.queue.depth() == 0 {
                    drain_started = Instant::now();
                    break;
                }
            }
        }
    }
    // Drain: the queue is closed (no new pushes) and empty. The engine
    // settles — final checkpoint, report, metrics — then acks DRAIN.
    if replay_skipped > 0 {
        let _ = writeln!(
            out,
            "skipped {replay_skipped} transition(s) already covered by the checkpoint"
        );
    }
    if let Some(writer) = writer {
        // `OK drained` is the one reply that waits for the disk.
        let bytes = write_server_checkpoint(set, report, writer, shared, registry)?;
        writer.wait().map_err(checkpoint_error)?;
        let _ = writeln!(
            out,
            "checkpoint written to {} ({bytes} bytes)",
            writer.primary().display()
        );
    }
    let drain_ms = drain_started.elapsed().as_millis() as u64;
    emit_serve_sample(registry, shared, Some(drain_ms));
    if let Some(path) = report_path {
        let mut text = String::new();
        for line in &report.violations {
            let _ = writeln!(text, "{line}");
        }
        write_atomic(Path::new(path), text.as_bytes())
            .map_err(|e| format!("cannot write report `{path}`: {e}"))?;
        let _ = writeln!(out, "report written to {path}");
    }
    if let Some(path) = metrics_path {
        let rendered = registry.render_for(path);
        write_atomic(Path::new(path), rendered.as_bytes())
            .map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
        let _ = writeln!(out, "metrics written to {path}");
    }
    let drained_line = format!(
        "{} drained steps={} witnesses={} violated_states={} drain_ms={drain_ms}",
        protocol::OK_PREFIX,
        report.transitions,
        report.witnesses,
        report.violated_states,
    );
    for waiter in shared
        .drain_waiters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
    {
        waiter.write_line(shared, &drained_line);
    }
    let _ = writeln!(
        out,
        "drained: {} transition(s), {} violation witness(es) over {} state(s)",
        report.transitions, report.witnesses, report.violated_states
    );
    for (name, detail) in set.quarantined() {
        let _ = writeln!(out, "quarantined `{name}`: {detail}");
    }
    let dropped = shared.disconnected.load(Ordering::SeqCst);
    if dropped > 0 {
        let _ = writeln!(out, "disconnected {dropped} slow client(s)");
    }
    Ok(0)
}

/// Steps the jobs one queue pass drained, each through
/// [`ConstraintSet::step_observed`], in order.
///
/// What the pass shares is the bookkeeping around the steps: at most
/// one checkpoint and one metrics sample. Replies are deferred until
/// that checkpoint is sealed, so every container holds the state and
/// report after a whole pass; its durable write runs on the writer
/// thread while the replies go out.
#[allow(clippy::too_many_arguments)]
fn process_drained(
    jobs: Vec<Job>,
    set: &mut ConstraintSet,
    report: &mut ServeReport,
    registry: &mut MetricsRegistry,
    shared: &Arc<Shared>,
    writer: Option<&CheckpointWriter>,
    ticker: &mut CheckpointTicker,
    resume_cursor: Option<TimePoint>,
    replay_skipped: &mut u64,
) -> Result<(), String> {
    let mut replies: Vec<(Arc<ClientHandle>, Vec<String>)> = Vec::with_capacity(jobs.len());
    let mut ticked = false;
    for job in jobs {
        match shared.faults.check("serve.step") {
            Some(FailAction::Abort) => {
                // Simulated kill -9: no reply, no checkpoint, no
                // cleanup. Earlier jobs of this pass were applied but never
                // acked — exactly the window the resume replay covers.
                return Err("injected crash (failpoint `serve.step`)".into());
            }
            Some(FailAction::Panic) => panic!("injected panic (failpoint `serve.step`)"),
            Some(FailAction::IoError) => {
                replies.push((
                    job.reply,
                    vec![format!("{} injected step fault", protocol::ERR_PREFIX)],
                ));
                continue;
            }
            _ => {}
        }
        let (time, update) = match job.cmd {
            JobCmd::Step(tr) => (tr.time, tr.update),
            JobCmd::Tick(t) => (t, Update::new()),
        };
        // Replay window: a resumed server acks (without re-checking)
        // transitions the checkpoint already covers, so clients can
        // re-stream a log from the top after a crash.
        if let Some(cursor) = resume_cursor {
            if time <= cursor {
                *replay_skipped += 1;
                replies.push((job.reply, vec![format!("{} replayed", protocol::OK_PREFIX)]));
                continue;
            }
        }
        let reports = match set.step_observed(time, &update, registry) {
            Ok(reports) => reports,
            Err(e) => {
                replies.push((
                    job.reply,
                    vec![format!("{} at {time}: {e}", protocol::ERR_PREFIX)],
                ));
                continue;
            }
        };
        let mut violations = Vec::new();
        let mut witnesses = 0usize;
        for step_report in &reports {
            if !step_report.ok() {
                witnesses += step_report.violation_count();
                violations.push(step_report.to_string());
            }
        }
        report.record_step(&violations, witnesses);
        shared.steps.store(report.transitions, Ordering::SeqCst);
        shared.witnesses.store(report.witnesses, Ordering::SeqCst);
        shared
            .quarantined
            .store(set.health().quarantined, Ordering::SeqCst);
        if ticker.step_completed() {
            ticked = true;
        }
        let mut lines: Vec<String> = violations
            .iter()
            .map(|line| format!("{}{line}", protocol::VIOL_PREFIX))
            .collect();
        lines.push(format!("{} {witnesses}", protocol::OK_PREFIX));
        replies.push((job.reply, lines));
    }
    // Seal *before* acking: once any client sees OK, its step is in a
    // sealed checkpoint at the configured cadence, durable before the
    // next one starts. The ticker advanced per step, but checkpoints
    // coalesce to one per pass.
    if let Some(writer) = writer {
        if ticked {
            write_server_checkpoint(set, report, writer, shared, registry)?;
        }
    }
    emit_serve_sample(registry, shared, None);
    for (reply, lines) in replies {
        for line in lines {
            reply.write_line(shared, &line);
        }
    }
    Ok(())
}

/// Seals engine sections plus the serve-report section into one
/// container and hands it to the writer (site `serve.checkpoint`, so
/// drills can fault server checkpoints without touching batch runs).
/// Fails if the previous write failed.
fn write_server_checkpoint(
    set: &ConstraintSet,
    report: &ServeReport,
    writer: &CheckpointWriter,
    shared: &Arc<Shared>,
    registry: &mut MetricsRegistry,
) -> Result<usize, String> {
    let sections: Vec<(Symbol, String)> = checkpoint::save_set(set);
    for (name, text) in &sections {
        registry.observe(&StepEvent::CheckpointSave {
            constraint: *name,
            bytes: text.len(),
        });
    }
    let report_section = report.to_section();
    let sealed = container::seal(
        sections
            .iter()
            .map(|(_, text)| text.as_str())
            .chain(std::iter::once(report_section.as_str())),
    );
    let bytes = sealed.len();
    let cursor = set.last_time();
    let shared = Arc::clone(shared);
    writer
        .submit(sealed, move || {
            *shared.durable_lock() = (Some(Instant::now()), cursor);
        })
        .map_err(checkpoint_error)?;
    Ok(bytes)
}

fn checkpoint_error(e: DurableError) -> String {
    format!("cannot write checkpoint: {e}")
}

fn emit_serve_sample(registry: &mut MetricsRegistry, shared: &Shared, drain_ms: Option<u64>) {
    registry.observe(&StepEvent::ServeSample {
        queue_depth: shared.queue.depth(),
        queue_capacity: shared.queue.capacity(),
        queue_peak: shared.queue.peak(),
        shed: shared.queue.shed(),
        connections: shared.connections.load(Ordering::SeqCst),
        disconnected: shared.disconnected.load(Ordering::SeqCst),
        last_checkpoint_age_ms: shared.checkpoint_age_ms(),
        drain_ms,
    });
}
