//! The resident daemon: accept loop, connection threads, the single
//! engine thread that owns the [`ConstraintSet`], and the checkpoint
//! writer thread that owns the rotation.
//!
//! Threading model — four layers, one owner each:
//!
//! * The **accept loop** (spawned thread) blocks in `accept` and hands
//!   each connection its own thread.
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
//! engine. Every reply leaves in one write: a control reply is its line
//! and newline, and a queue pass sends each client all of its lines at
//! once ([`Replies`]).

use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rtic_core::{observe::ServeGauges, ConstraintSet, EncodingOptions, StepEvent, StepObserver};
use rtic_history::Transition;
use rtic_obs::MetricsRegistry;
use rtic_relation::{Catalog, Update};
use rtic_resilience::{
    write_atomic, CheckpointPolicy, CheckpointTicker, CheckpointWriter, DurableError, FailAction,
    FailPlan, Rotation,
};
use rtic_temporal::{Constraint, TimePoint};

use crate::protocol::{self, Command};
use crate::queue::IngestQueue;
use crate::report::ServeReport;
use crate::session::{self, Recovered, Refused, Replay};
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
        match spec.split_once(':') {
            Some(("unix", "")) => Err("bad --listen: unix: needs a socket path".into()),
            Some(("tcp", "")) => Err("bad --listen: tcp: needs host:port".into()),
            Some(("unix", path)) => Ok(Listen::Unix(PathBuf::from(path))),
            Some(("tcp", addr)) => Ok(Listen::Tcp(addr.to_string())),
            _ => Err(format!(
                "bad --listen `{spec}`: expected unix:<path> or tcp:<host:port>"
            )),
        }
    }
}

impl fmt::Display for Listen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
            Listen::Tcp(addr) => write!(f, "tcp:{addr}"),
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

/// Runs `$body` with `$s` bound to whichever socket `$conn` holds.
macro_rules! either {
    ($conn:expr, $s:ident => $body:expr) => {
        match $conn {
            Conn::Tcp($s) => $body,
            Conn::Unix($s) => $body,
        }
    };
}

/// One connection, either flavor of socket: a server's accepted client,
/// or the bundled [`crate::Client`]'s link to its server.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn connect(listen: &Listen) -> io::Result<Conn> {
        match listen {
            Listen::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
            Listen::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_timeouts(&self, read: Duration, write: Duration) {
        let _ = either!(self, s => s.set_read_timeout(Some(read)));
        let _ = either!(self, s => s.set_write_timeout(Some(write)));
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        either!(self, s => s.read(buf))
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        either!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        either!(self, s => s.flush())
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `listen`. Its `accept` blocks until a client connects.
    fn bind(listen: &Listen) -> Result<Listener, String> {
        match listen {
            Listen::Tcp(addr) => TcpListener::bind(addr).map(Listener::Tcp),
            Listen::Unix(path) => {
                // A previous server kill -9'd mid-run leaves its socket
                // file behind; rebinding is the recovery path.
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                UnixListener::bind(path).map(Listener::Unix)
            }
        }
        .map_err(|e| format!("cannot listen on {listen}: {e}"))
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// Where a client's replies are written: its socket, or any writer that
/// can be shut down.
pub(crate) trait ReplySink: Write {
    /// Shuts the link down both ways.
    fn shutdown(&self);
}

impl ReplySink for Conn {
    fn shutdown(&self) {
        let _ = either!(self, s => s.shutdown(std::net::Shutdown::Both));
    }
}

/// The write half of one connection. Shared between the connection
/// thread (BUSY/status replies) and the engine thread (step replies);
/// the mutex serializes them so reply lines never interleave.
pub(crate) struct ClientHandle<W = Conn> {
    conn: Mutex<W>,
    alive: AtomicBool,
}

impl<W: ReplySink> ClientHandle<W> {
    /// Writes one reply line and its newline in one write.
    fn write_line(&self, shared: &Shared, line: &str) {
        self.send(shared, format!("{line}\n").as_bytes());
    }

    /// Writes `text` (whole reply lines) with one `write_all`. A failed or
    /// timed-out write (or an injected `serve.write` fault) marks the
    /// client dead and shuts the socket down — a stalled reader must never
    /// wedge the engine.
    fn send(&self, shared: &Shared, text: &[u8]) {
        if !self.alive.load(Ordering::SeqCst) {
            return;
        }
        let injected = shared.faults.check("serve.write") == Some(FailAction::IoError);
        let mut conn = lock(&self.conn);
        if injected || conn.write_all(text).and_then(|()| conn.flush()).is_err() {
            if self.alive.swap(false, Ordering::SeqCst) {
                shared.disconnected.fetch_add(1, Ordering::SeqCst);
            }
            conn.shutdown();
        }
    }
}

enum JobCmd {
    Step(Transition),
    Tick(TimePoint),
}

struct Job<W = Conn> {
    cmd: JobCmd,
    reply: Arc<ClientHandle<W>>,
}

/// One queue pass's replies: a buffer per client, in the order the
/// clients first appear, each holding that client's lines in job order.
struct Replies<W>(Vec<(Arc<ClientHandle<W>>, String)>);

impl<W: ReplySink> Replies<W> {
    /// The buffer for `client`'s replies in this pass.
    fn to(&mut self, client: &Arc<ClientHandle<W>>) -> &mut String {
        let at = self.0.iter().position(|(c, _)| Arc::ptr_eq(c, client));
        let at = at.unwrap_or_else(|| {
            self.0.push((Arc::clone(client), String::new()));
            self.0.len() - 1
        });
        &mut self.0[at].1
    }
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
    /// The ingest-plane gauges: what each serve sample carries and what
    /// `QUERY status` prints.
    fn gauges(&self) -> ServeGauges {
        let (queue_depth, queue_peak, shed) = self.queue.gauges();
        let durable_at = lock(&self.durable).0;
        ServeGauges {
            queue_depth,
            queue_capacity: self.queue.capacity(),
            queue_peak,
            shed,
            connections: self.connections.load(Ordering::SeqCst),
            disconnected: self.disconnected.load(Ordering::SeqCst),
            last_checkpoint_age_ms: durable_at.map(|at| at.elapsed().as_millis() as u64),
            drain_ms: None,
        }
    }

    fn status_line(&self) -> String {
        let state = if self.draining.load(Ordering::SeqCst) {
            "draining"
        } else {
            "running"
        };
        let quarantined = self.quarantined.load(Ordering::SeqCst);
        let verdict = if quarantined > 0 { "DEGRADED" } else { "OK" };
        let sealed = lock(&self.durable).1.map(|t| t.to_string());
        let g = self.gauges();
        let age = g.last_checkpoint_age_ms.map(|ms| ms.to_string());
        let [sealed, age] = [sealed, age].map(|v| v.unwrap_or_else(|| "-".into()));
        format!(
            "{verdict} state={state} steps={} witnesses={} queue={}/{} peak={} shed={} conns={} disconnected={} ckpt_age_ms={age} sealed={sealed} quarantined={quarantined}",
            self.steps.load(Ordering::SeqCst),
            self.witnesses.load(Ordering::SeqCst),
            g.queue_depth,
            g.queue_capacity,
            g.queue_peak,
            g.shed,
            g.connections,
            g.disconnected,
        )
    }
}

/// Locks `m` even if a holder panicked: each update under the daemon's
/// mutexes is one assignment, push or write, so none is left half-done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
    if config.resume && config.checkpoint.is_none() {
        return Err("--resume requires --checkpoint (the rotation to recover from)".into());
    }
    signal::install_handler();
    if config.shutdown.is_none() {
        // A flag-driven (test) server must not clear a pending SIGTERM
        // aimed at a sibling instance in the same process.
        signal::reset();
    }
    let rotation = config.checkpoint.as_ref();
    let rotation = rotation.map(|path| Rotation::new(path, config.checkpoint_keep));
    let mut registry = MetricsRegistry::new();

    // Boot-time recovery (crate::session): newest intact rotation entry
    // wins, and an empty rotation set starts fresh.
    let options = EncodingOptions::default();
    let recovered = match rotation.as_ref().filter(|_| config.resume) {
        Some(rot) => session::recover(rot, &constraints, &catalog, options, &mut registry, out),
        None => Ok(None),
    };
    let recovered = recovered.map_err(|refused| match refused {
        Refused::Corrupt(_) => "cannot resume: every checkpoint candidate in the rotation set is \
            corrupt or unreadable"
            .to_string(),
        refused => refused.to_string(),
    })?;
    let (mut set, mut report, resumed) = match recovered {
        Some(Recovered { path, set, report }) => {
            let report = report.as_deref().map(ServeReport::from_section).transpose();
            let report =
                report.map_err(|e| format!("cannot resume from `{}`: {e}", path.display()))?;
            (set, report.unwrap_or_default(), Some(path))
        }
        None => {
            let set = session::fresh(&constraints, &catalog, options)?;
            (set, ServeReport::default(), None)
        }
    };
    let replay = session::start(&mut set, &config.faults, resumed.as_deref(), "stream", out)?;

    let shared = Arc::new(Shared {
        queue: IngestQueue::new(config.queue_capacity),
        faults: Arc::new(config.faults),
        draining: AtomicBool::new(false),
        dead: AtomicBool::new(false),
        connections: AtomicUsize::new(0),
        disconnected: AtomicU64::new(0),
        steps: AtomicU64::new(report.transitions),
        witnesses: AtomicU64::new(report.witnesses),
        quarantined: AtomicUsize::new(set.health().quarantined),
        durable: Mutex::new((None, replay.cursor)),
        drain_waiters: Mutex::new(Vec::new()),
        retry_ms: config.retry_ms,
    });
    let writer = rotation.map(|rotation| {
        CheckpointWriter::spawn(rotation, Arc::clone(&shared.faults), "serve.checkpoint")
    });

    let listener = Listener::bind(&config.listen)?;
    // The bound TCP address (port 0 resolved), for the banner and the wake-up
    // connect; a TCP banner also goes to stderr at once, so a client can find
    // the port the kernel picked.
    let bound = match &listener {
        Listener::Tcp(l) => l.local_addr().ok(),
        Listener::Unix(_) => None,
    };
    let banner = match bound {
        Some(addr) => format!("listening on tcp:{addr}"),
        None => format!("listening on {}", config.listen),
    };
    if bound.is_some() {
        let _ = writeln!(io::stderr(), "{banner}");
    }
    let _ = writeln!(out, "{banner}");
    let (accept_shared, write_timeout) = (Arc::clone(&shared), config.write_timeout);
    let accept_thread = std::thread::spawn(move || {
        accept_loop(listener, accept_shared, write_timeout);
    });

    let result = engine_loop(
        &mut set,
        &mut report,
        &mut registry,
        &shared,
        config.policy,
        config.shutdown.as_ref(),
        config.report_path.as_deref(),
        config.metrics_path.as_deref(),
        writer.as_ref(),
        replay,
        out,
    );
    // Joins the writer: a simulated crash lets the write in flight land,
    // so a drill knows exactly which checkpoint it resumes from.
    drop(writer);
    // Clean exit or simulated crash, the accept loop must stop either
    // way (in-process drills re-bind the same socket on restart).
    shared.dead.store(true, Ordering::SeqCst);
    shared.queue.close();
    // Wakes the accept loop's blocking `accept`, which then sees `dead`.
    let _ = match bound {
        Some(addr) => TcpStream::connect(addr).map(drop),
        None => Conn::connect(&config.listen).map(drop),
    };
    let _ = accept_thread.join();
    if result.is_ok() {
        if let Listen::Unix(path) = &config.listen {
            let _ = std::fs::remove_file(path);
        }
    }
    result
}

fn accept_loop(listener: Listener, shared: Arc<Shared>, write_timeout: Duration) {
    let stop = || shared.dead.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst);
    while !stop() {
        match shared.faults.check("serve.accept") {
            Some(FailAction::IoError) => {
                // An injected accept failure: keep serving, exactly like
                // a transient kernel-level accept error.
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Some(FailAction::Panic) => panic!("injected panic (failpoint `serve.accept`)"),
            _ => {}
        }
        match listener.accept() {
            // Accepted after the drain began, or `serve`'s wake-up: dropped.
            Ok(_) if stop() => break,
            Ok(conn) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    connection_loop(conn, shared, write_timeout);
                });
            }
            // A transient accept error (say, out of descriptors).
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping the listener stops accepting; a unix socket file is
    // removed by the engine thread on clean exit.
}

fn connection_loop(conn: Conn, shared: Arc<Shared>, write_timeout: Duration) {
    conn.set_timeouts(Duration::from_millis(100), write_timeout);
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
            Command::Status => handle.write_line(&shared, &shared.status_line()),
            Command::Ping => handle.write_line(&shared, "OK pong"),
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
                lock(&shared.drain_waiters).push(Arc::clone(&handle));
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
    use io::{BufRead as _, ErrorKind::*};
    loop {
        match reader.read_until(b'\n', line) {
            Ok(n) => return Ok(n),
            Err(e) if !matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => return Err(e),
            Err(_) if shared.dead.load(Ordering::SeqCst) => return Ok(0),
            Err(_) => {}
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
    mut replay: Replay,
    out: &mut String,
) -> Result<i32, String> {
    let mut ticker = CheckpointTicker::new(policy);
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
                let more = (1..shared.queue.capacity()).map_while(|_| shared.queue.try_pop());
                process_drained(
                    std::iter::once(job).chain(more).collect(),
                    set,
                    report,
                    registry,
                    shared,
                    writer,
                    &mut ticker,
                    &mut replay,
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
    replay.finish(out);
    if let Some(writer) = writer {
        // `OK drained` is the one reply that waits for the disk.
        let bytes = submit_checkpoint(set, report, writer, shared, registry)?;
        writer.wait().map_err(checkpoint_error)?;
        let _ = writeln!(
            out,
            "checkpoint written to {} ({bytes} bytes)",
            writer.primary().display()
        );
    }
    let drain_ms = drain_started.elapsed().as_millis() as u64;
    let mut gauges = shared.gauges();
    gauges.drain_ms = Some(drain_ms);
    registry.observe(&StepEvent::ServeSample(gauges));
    if let Some(path) = report_path {
        write_atomic(Path::new(path), report.violations.0.as_bytes())
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
    for waiter in lock(&shared.drain_waiters).drain(..) {
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
/// thread while the replies go out, one write per client.
#[allow(clippy::too_many_arguments)]
fn process_drained<W: ReplySink>(
    jobs: Vec<Job<W>>,
    set: &mut ConstraintSet,
    report: &mut ServeReport,
    registry: &mut MetricsRegistry,
    shared: &Arc<Shared>,
    writer: Option<&CheckpointWriter>,
    ticker: &mut CheckpointTicker,
    replay: &mut Replay,
) -> Result<(), String> {
    let mut replies = Replies(Vec::new());
    let mut ticked = false;
    for job in jobs {
        let reply = replies.to(&job.reply);
        match shared.faults.check("serve.step") {
            Some(FailAction::Abort) => {
                // Simulated kill -9: no reply, no checkpoint, no
                // cleanup. Earlier jobs of this pass were applied but never
                // acked — exactly the window the resume replay covers.
                return Err("injected crash (failpoint `serve.step`)".into());
            }
            Some(FailAction::Panic) => panic!("injected panic (failpoint `serve.step`)"),
            Some(FailAction::IoError) => {
                let _ = writeln!(reply, "{} injected step fault", protocol::ERR_PREFIX);
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
        if replay.covers(time) {
            let _ = writeln!(reply, "{} replayed", protocol::OK_PREFIX);
            continue;
        }
        let reports = match set.step_observed(time, &update, registry) {
            Ok(reports) => reports,
            Err(e) => {
                let _ = writeln!(reply, "{} at {time}: {e}", protocol::ERR_PREFIX);
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
        ticked |= ticker.step_completed();
        for line in &violations {
            let _ = writeln!(reply, "{}{line}", protocol::VIOL_PREFIX);
        }
        let _ = writeln!(reply, "{} {witnesses}", protocol::OK_PREFIX);
    }
    // Seal *before* acking: once any client sees OK, its step is in a
    // sealed checkpoint at the configured cadence, durable before the
    // next one starts. The ticker advanced per step, but checkpoints
    // coalesce to one per pass.
    if let Some(writer) = writer {
        if ticked {
            submit_checkpoint(set, report, writer, shared, registry)?;
        }
    }
    registry.observe(&StepEvent::ServeSample(shared.gauges()));
    for (client, text) in replies.0 {
        client.send(shared, text.as_bytes());
    }
    Ok(())
}

/// Seals the fleet and its report ([`session::seal`]) and hands the
/// container to the writer (site `serve.checkpoint`, so drills can fault
/// server checkpoints without touching batch runs). Fails if the previous
/// write failed. Returns the sealed size in bytes.
fn submit_checkpoint(
    set: &ConstraintSet,
    report: &ServeReport,
    writer: &CheckpointWriter,
    shared: &Arc<Shared>,
    registry: &mut MetricsRegistry,
) -> Result<usize, String> {
    let sealed = session::seal(set, Some(&report.to_section()), registry);
    let (bytes, cursor, shared) = (sealed.len(), set.last_time(), Arc::clone(shared));
    writer
        .submit(sealed, move || {
            *lock(&shared.durable) = (Some(Instant::now()), cursor);
        })
        .map_err(checkpoint_error)?;
    Ok(bytes)
}

fn checkpoint_error(e: DurableError) -> String {
    format!("cannot write checkpoint: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_temporal::parser::parse_file;

    /// A reply sink that records the bytes of each `write` call.
    #[derive(Default)]
    struct Counting(Mutex<Vec<Vec<u8>>>);

    impl Write for &Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl ReplySink for &Counting {
        fn shutdown(&self) {}
    }

    fn shared() -> Shared {
        Shared {
            queue: IngestQueue::new(4),
            faults: Arc::new(FailPlan::none()),
            draining: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            disconnected: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            witnesses: AtomicU64::new(0),
            quarantined: AtomicUsize::new(0),
            durable: Mutex::new((None, None)),
            drain_waiters: Mutex::new(Vec::new()),
            retry_ms: 50,
        }
    }

    fn client(sink: &Counting) -> Arc<ClientHandle<&Counting>> {
        Arc::new(ClientHandle {
            conn: Mutex::new(sink),
            alive: AtomicBool::new(true),
        })
    }

    fn fleet() -> ConstraintSet {
        let file = parse_file("relation p(x: str)\ndeny d: p(x)\ndeny e: p(x) && once[1,*] p(x)\n")
            .expect("parses");
        let catalog = Arc::new(file.catalog);
        session::fresh(&file.constraints, &catalog, EncodingOptions::default()).expect("compiles")
    }

    fn update(line: &str) -> JobCmd {
        match protocol::parse_command(line) {
            Ok(Some(Command::Update(tr))) => JobCmd::Step(tr),
            other => panic!("not an update: {other:?}"),
        }
    }

    /// The lines the engine loop wrote one `write_line` each before
    /// replies left whole: each violation as `VIOL …`, then `OK n`.
    fn line_by_line(set: &mut ConstraintSet, lines: &[&str]) -> Vec<String> {
        let mut replies = Vec::new();
        for line in lines {
            let JobCmd::Step(tr) = update(line) else {
                unreachable!()
            };
            let reports = set.step(tr.time, &tr.update).expect("steps");
            let bad: Vec<_> = reports.iter().filter(|r| !r.ok()).collect();
            let mut text: String = bad.iter().map(|r| format!("VIOL {r}\n")).collect();
            let witnesses: usize = bad.iter().map(|r| r.violation_count()).sum();
            text.push_str(&format!("OK {witnesses}\n"));
            replies.push(text);
        }
        replies
    }

    /// One queue pass through `process_drained`, replying to `clients[i]`
    /// for `lines[i]`.
    fn pass(shared: &Arc<Shared>, clients: &[Arc<ClientHandle<&Counting>>], lines: &[&str]) {
        let jobs = clients.iter().zip(lines).map(|(client, line)| Job {
            cmd: update(line),
            reply: Arc::clone(client),
        });
        let (mut set, mut registry) = (fleet(), MetricsRegistry::new());
        let mut ticker = CheckpointTicker::new(CheckpointPolicy::default());
        process_drained(
            jobs.collect(),
            &mut set,
            &mut ServeReport::default(),
            &mut registry,
            shared,
            None,
            &mut ticker,
            &mut Replay::default(),
        )
        .expect("the pass runs");
    }

    const LINES: [&str; 4] = [
        r#"@1 +p("a")"#,
        "@2",
        r#"@3 +p("b") -p("a")"#,
        r#"@4 +p("a")"#,
    ];

    #[test]
    fn a_pass_sends_each_client_its_replies_in_one_write() {
        let shared = Arc::new(shared());
        let sink = Counting::default();
        let one = client(&sink);
        pass(&shared, &vec![one; 4], &LINES);
        let writes = sink.0.into_inner().unwrap();
        assert_eq!(writes.len(), 1, "one write for the whole pass");
        let expected = line_by_line(&mut fleet(), &LINES).concat();
        assert!(expected.contains("VIOL @4 VIOLATION e x2"), "{expected}");
        assert_eq!(String::from_utf8(writes[0].clone()).unwrap(), expected);
    }

    #[test]
    fn interleaved_clients_each_get_their_own_replies_in_order() {
        let shared = Arc::new(shared());
        let (sink_a, sink_b) = (Counting::default(), Counting::default());
        let (a, b) = (client(&sink_a), client(&sink_b));
        pass(&shared, &[a.clone(), b.clone(), a, b], &LINES);
        let replies = line_by_line(&mut fleet(), &LINES);
        for (sink, mine) in [(sink_a, [0, 2]), (sink_b, [1, 3])] {
            let writes = sink.0.into_inner().unwrap();
            assert_eq!(writes.len(), 1, "one write per client per pass");
            let expected = format!("{}{}", replies[mine[0]], replies[mine[1]]);
            assert_eq!(String::from_utf8(writes[0].clone()).unwrap(), expected);
        }
    }

    #[test]
    fn control_replies_take_one_write_each() {
        let shared = shared();
        let sink = Counting::default();
        let handle = client(&sink);
        let busy = format!("{} {}", protocol::BUSY_PREFIX, shared.retry_ms);
        let status = shared.status_line();
        for line in [busy.as_str(), "OK pong", status.as_str()] {
            handle.write_line(&shared, line);
        }
        let writes = sink.0.into_inner().unwrap();
        let expected = [
            "BUSY 50\n".to_string(),
            "OK pong\n".to_string(),
            format!("{status}\n"),
        ];
        assert!(status.starts_with("OK state=running steps=0"), "{status}");
        let writes: Vec<String> = writes
            .into_iter()
            .map(|w| String::from_utf8(w).unwrap())
            .collect();
        assert_eq!(writes, expected);
    }
}
