//! The program under test as a child process: spawn, resource usage at
//! exit, and the one-connection client for a live daemon.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single wait on the child may last before the pass is
/// abandoned (the driver's own limit is 180 s for the whole run).
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// What the kernel accounted to one child, read when it was reaped.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// Exit code; `None` when a signal ended the child.
    pub exit_code: Option<i32>,
    /// User + system CPU time.
    pub cpu: Duration,
    /// The system part of it.
    pub cpu_sys: Duration,
    /// Peak resident set in MiB: the child's `VmHWM`, sampled while it
    /// ran. `ru_maxrss` is not used: Linux starts a spawned child's
    /// maximum at its parent's, so it would report the harness's peak
    /// whenever that is the larger one.
    pub peak_rss_mb: f64,
}

/// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then
/// fourteen longs the harness does not read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

/// How often a waited-for child's `VmHWM` is sampled.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// How often a waited-for child is polled for its exit. The harness
/// shares the child's CPU, so every poll takes the CPU from it: at 1 ms a
/// pass of a second or more is timed to a thousandth and disturbed less.
const EXIT_POLL_EVERY: Duration = Duration::from_millis(1);

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child CPU time and peak RSS through 64-bit Linux wait4");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confines this process — and every child it spawns from here on, which
/// inherits the mask — to one CPU: the highest-numbered one it is allowed
/// to run on. Returns that CPU.
///
/// On a guest with a few vCPUs of a shared host, a wake-up that crosses
/// vCPUs costs an inter-processor interrupt into a halted vCPU, and what
/// that costs follows the host's load, not the program: the same daemon
/// acknowledges in 90 µs when client and daemon threads share a vCPU and
/// in 130–200 µs when they do not, and which of the two a process gets
/// changes from one spawn to the next. On one CPU a hand-off is a context
/// switch, which repeats.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // 1024 CPUs, the kernel's default `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write exactly `bytes` bytes through a
    // pointer to `mask`, a live local of that size; pid 0 is this thread,
    // the only one the harness has when this runs.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..bytes * 8)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask names no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// A running `rtic` process with its stdout and stderr captured in files.
pub struct Rtic {
    child: Child,
    stdout: PathBuf,
    stderr: PathBuf,
    reaped: bool,
    /// Highest `VmHWM` sampled so far, in MiB.
    peak_rss_mb: f64,
}

impl Rtic {
    /// Spawns `bin argv…`, capturing output under `dir` as `<tag>.out` /
    /// `<tag>.err`.
    pub fn spawn(bin: &Path, argv: &[String], dir: &Path, tag: &str) -> Result<Rtic, String> {
        let stdout = dir.join(format!("{tag}.out"));
        let stderr = dir.join(format!("{tag}.err"));
        let open =
            |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()));
        let child = Command::new(bin)
            .args(argv)
            .stdin(Stdio::null())
            .stdout(open(&stdout)?)
            .stderr(open(&stderr)?)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        Ok(Rtic {
            child,
            stdout,
            stderr,
            reaped: false,
            peak_rss_mb: 0.0,
        })
    }

    /// Waits for the child to exit on its own and returns its usage. A
    /// child still running after [`CHILD_TIMEOUT`] is killed and reported
    /// as an error.
    pub fn wait(&mut self) -> Result<Usage, String> {
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let mut sampled = Instant::now() - RSS_SAMPLE_EVERY;
        loop {
            if sampled.elapsed() >= RSS_SAMPLE_EVERY {
                self.sample_rss();
                sampled = Instant::now();
            }
            if let Some(usage) = self.reap(false)? {
                return Ok(usage);
            }
            if Instant::now() >= deadline {
                self.kill();
                return Err(format!(
                    "child still running after {CHILD_TIMEOUT:?}; killed"
                ));
            }
            std::thread::sleep(EXIT_POLL_EVERY);
        }
    }

    /// Reads the child's `VmHWM` (its own address space's peak resident
    /// set, counted from its exec) and keeps the highest reading.
    pub fn sample_rss(&mut self) {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        let kb = status.ok().and_then(|text| {
            let line = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
        if let Some(kb) = kb {
            self.peak_rss_mb = self.peak_rss_mb.max(kb / 1024.0);
        }
    }

    /// Kills the child (if it is still running) and reaps it.
    pub fn kill(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.reap(true);
        }
    }

    /// The child's captured stdout.
    pub fn stdout(&self) -> String {
        std::fs::read_to_string(&self.stdout).unwrap_or_default()
    }

    /// The child's captured stderr, for failure messages.
    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr).unwrap_or_default()
    }

    fn reap(&mut self, block: bool) -> Result<Option<Usage>, String> {
        const WNOHANG: i32 = 1;
        if self.reaped {
            return Err("child was already reaped".into());
        }
        let mut status = 0i32;
        let mut ru = RUsage::default();
        // SAFETY: `wait4` writes one int and one `struct rusage` through
        // the two pointers; both point at live, properly sized and aligned
        // locals (`RUsage` mirrors the 64-bit Linux layout: 2 timevals +
        // 14 longs = 144 bytes). The pid is this `Child`'s, not yet reaped
        // (`reaped` guards every path), so no unrelated process is waited.
        let pid = unsafe {
            wait4(
                self.child.id() as i32,
                &mut status,
                if block { 0 } else { WNOHANG },
                &mut ru,
            )
        };
        if pid == 0 {
            return Ok(None);
        }
        if pid < 0 {
            return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
        }
        self.reaped = true;
        let secs = |tv: [i64; 2]| Duration::new(tv[0] as u64, (tv[1] * 1000) as u32);
        Ok(Some(Usage {
            // WIFEXITED / WEXITSTATUS.
            exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            cpu: secs(ru.utime) + secs(ru.stime),
            cpu_sys: secs(ru.stime),
            peak_rss_mb: self.peak_rss_mb,
        }))
    }
}

impl Drop for Rtic {
    /// No pass leaves a daemon behind, whatever path it fails on.
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reply to one request: the terminal line and the `VIOL` payloads
/// before it.
pub struct Reply {
    /// `OK …`, `BUSY …` or `ERR …`.
    pub terminal: String,
    /// Violation lines, byte-identical to `rtic check` output.
    pub violations: Vec<String>,
}

/// One connection to a live daemon. Requests may be pipelined: replies
/// come back in request order.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// The request being written, so line and newline leave in one write.
    out: Vec<u8>,
    /// Reply bytes read so far (all lines, with newlines).
    pub reply_bytes: u64,
}

impl Conn {
    /// Connects to `socket`, polling until the daemon `of` listens. Fails
    /// if the daemon exits first or [`CHILD_TIMEOUT`] passes.
    pub fn connect(socket: &Path, of: &mut Rtic) -> Result<Conn, String> {
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let io = |e: std::io::Error| format!("cannot configure socket: {e}");
                stream.set_read_timeout(Some(CHILD_TIMEOUT)).map_err(io)?;
                stream.set_write_timeout(Some(CHILD_TIMEOUT)).map_err(io)?;
                let reader = BufReader::new(stream.try_clone().map_err(io)?);
                return Ok(Conn {
                    reader,
                    writer: stream,
                    out: Vec::new(),
                    reply_bytes: 0,
                });
            }
            if let Some(usage) = of.reap(false)? {
                return Err(format!(
                    "daemon exited with {:?} before listening: {}",
                    usage.exit_code,
                    of.stderr().trim()
                ));
            }
            if Instant::now() >= deadline {
                return Err("daemon did not listen in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("connection lost while sending: {e}"))
    }

    /// Reads up to and including the next terminal reply line.
    pub fn recv(&mut self) -> Result<Reply, String> {
        let mut violations = Vec::new();
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.reply_bytes += n as u64,
                Err(e) => return Err(format!("connection lost while reading: {e}")),
            }
            let line = line.trim_end();
            match line.strip_prefix("VIOL ") {
                Some(v) => violations.push(v.to_string()),
                None => {
                    return Ok(Reply {
                        terminal: line.to_string(),
                        violations,
                    })
                }
            }
        }
    }

    /// One request, one reply.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        self.send(line)?;
        self.recv()
    }
}
