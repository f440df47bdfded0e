//! The bundled client: line protocol over a socket, with `BUSY`-aware
//! retry — capped exponential backoff plus deterministic jitter, so a
//! fleet of clients hammered off a full queue does not reconverge on
//! the same retry instant.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::time::Duration;

use crate::protocol::{BUSY_PREFIX, ERR_PREFIX, OK_PREFIX, VIOL_PREFIX};
use crate::server::{Conn, Listen, ReplySink as _};

/// Retry behavior for `BUSY` replies.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// First-retry delay; doubles per consecutive `BUSY`.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Consecutive `BUSY` replies tolerated before giving up.
    pub max_retries: u32,
    /// Jitter seed; distinct seeds de-correlate a client fleet.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            max_retries: 12,
            seed: 0x5eed_1e55,
        }
    }
}

/// What one request ultimately produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `VIOL ` payloads, byte-identical to `rtic check` output lines.
    pub violations: Vec<String>,
    /// The terminal `OK …` line (without the prefix), trimmed.
    pub ok: String,
}

/// How one reply sequence ended.
enum Terminal {
    /// `OK …` (or a `DEGRADED` status line).
    Done(Reply),
    /// `BUSY <retry-after-ms>`, with the hint.
    Busy(String),
}

/// A connected client.
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
    retry: RetryPolicy,
    /// xorshift64 state for retry jitter.
    rng: u64,
    /// `BUSY` replies absorbed by retries so far.
    busy_seen: u64,
}

/// Closes a [`Client`]'s connection from another thread, as the kernel
/// does when a process dies: a request blocked on its reply fails at
/// once.
pub struct Closer(Conn);

impl Closer {
    /// Shuts the connection down both ways.
    pub fn close(&self) {
        self.0.shutdown();
    }
}

impl Client {
    /// Connects to `listen` with default retry behavior.
    pub fn connect(listen: &Listen) -> Result<Client, String> {
        Client::connect_with(listen, RetryPolicy::default())
    }

    /// Connects with an explicit [`RetryPolicy`].
    pub fn connect_with(listen: &Listen, retry: RetryPolicy) -> Result<Client, String> {
        let stream = Conn::connect(listen);
        let stream = stream.map_err(|e| format!("cannot connect to {listen}: {e}"))?;
        let reader = stream.try_clone().map_err(clone_error)?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer: stream,
            rng: retry.seed | 1,
            retry,
            busy_seen: 0,
        })
    }

    /// Connects, waiting up to `timeout` for the server to start
    /// listening (startup race helper for drivers and drills).
    pub fn connect_retry(listen: &Listen, timeout: Duration) -> Result<Client, String> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Client::connect(listen) {
                Ok(client) => return Ok(client),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// [`Client::connect_retry`] for a unix socket path.
    pub fn connect_unix_retry(path: &Path, timeout: Duration) -> Result<Client, String> {
        Client::connect_retry(&Listen::Unix(path.to_path_buf()), timeout)
    }

    /// A handle that closes this connection from another thread.
    pub fn closer(&self) -> Result<Closer, String> {
        self.writer.try_clone().map(Closer).map_err(clone_error)
    }

    /// `BUSY` replies absorbed by retries since connect.
    pub fn busy_retries(&self) -> u64 {
        self.busy_seen
    }

    /// Sends one request line and reads to its terminal reply,
    /// retrying `BUSY` with capped exponential backoff + jitter.
    /// `ERR` replies and exhausted retries surface as `Err`. The line is
    /// bytes, as the server reads it, so a client can send one that is
    /// not UTF-8.
    pub fn request(&mut self, line: &(impl AsRef<[u8]> + ?Sized)) -> Result<Reply, String> {
        let mut attempt = 0u32;
        loop {
            self.write_line(line.as_ref())?;
            let hint = match self.read_reply()? {
                Terminal::Done(reply) => return Ok(reply),
                Terminal::Busy(hint) => hint,
            };
            if attempt >= self.retry.max_retries {
                return Err(format!(
                    "server still busy after {attempt} retries (last hint {hint} ms)"
                ));
            }
            self.busy_seen += 1;
            let hint_ms: u64 = hint.parse().unwrap_or(0);
            std::thread::sleep(self.backoff(attempt, hint_ms));
            attempt += 1;
        }
    }

    /// Writes every line before reading any reply, then reads one terminal
    /// reply per line in arrival order. Updates sent after `PAUSE` are
    /// held until a trailing `RESUME`, whose `OK resumed` arrives before
    /// their replies. A `BUSY` is an error here: a pipelined request
    /// cannot be resent in order.
    pub fn pipeline(&mut self, lines: &[&str]) -> Result<Vec<Reply>, String> {
        for line in lines {
            self.write_line(line.as_bytes())?;
        }
        lines
            .iter()
            .map(|_| match self.read_reply()? {
                Terminal::Done(reply) => Ok(reply),
                Terminal::Busy(hint) => Err(format!("server busy mid-pipeline (hint {hint} ms)")),
            })
            .collect()
    }

    /// Reads `VIOL ` lines up to one terminal line; `ERR` is an `Err`.
    fn read_reply(&mut self) -> Result<Terminal, String> {
        let mut violations = Vec::new();
        loop {
            let reply = self.read_line()?;
            let trimmed = reply.trim_end();
            if let Some(v) = trimmed.strip_prefix(VIOL_PREFIX) {
                violations.push(v.to_string());
            } else if let Some(rest) = strip_terminal(trimmed, OK_PREFIX) {
                return Ok(Terminal::Done(Reply {
                    violations,
                    ok: rest.trim().to_string(),
                }));
            } else if let Some(rest) = strip_terminal(trimmed, BUSY_PREFIX) {
                return Ok(Terminal::Busy(rest.trim().to_string()));
            } else if let Some(rest) = strip_terminal(trimmed, ERR_PREFIX) {
                return Err(format!("server error: {}", rest.trim()));
            } else if trimmed.starts_with("DEGRADED") {
                // Status replies lead with DEGRADED when engines are
                // quarantined; the payload is still a success.
                return Ok(Terminal::Done(Reply {
                    violations,
                    ok: trimmed.to_string(),
                }));
            } else {
                return Err(format!("unparseable reply line: {trimmed:?}"));
            }
        }
    }

    /// Streams one update (a `@time …` log line); returns its reply.
    pub fn send_update(&mut self, log_line: &str) -> Result<Reply, String> {
        self.request(log_line.trim())
    }

    /// Requests a graceful drain; returns the `OK drained …` payload.
    pub fn drain(&mut self) -> Result<String, String> {
        self.request("DRAIN").map(|r| r.ok)
    }

    /// Fetches the status line (`state=… queue=… shed=…`).
    pub fn status(&mut self) -> Result<String, String> {
        self.request("QUERY status").map(|r| r.ok)
    }

    fn write_line(&mut self, line: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(&[line, b"\n"].concat())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("connection lost while sending: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("connection lost while reading: {e}")),
        }
    }

    /// Delay for the `attempt`-th consecutive `BUSY`: the larger of the
    /// server's hint and `base << attempt`, capped, plus up to 50%
    /// jitter so retry storms decorrelate.
    fn backoff(&mut self, attempt: u32, hint_ms: u64) -> Duration {
        let base_ms = self.retry.base.as_millis() as u64;
        let cap_ms = self.retry.cap.as_millis() as u64;
        let exp = base_ms.saturating_mul(1u64 << attempt.min(16));
        let delay = exp.max(hint_ms).min(cap_ms).max(1);
        // xorshift64: cheap, deterministic per seed, good enough to
        // spread retry instants.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter = self.rng % (delay / 2 + 1);
        Duration::from_millis(delay + jitter)
    }
}

fn clone_error(e: io::Error) -> String {
    format!("cannot clone connection: {e}")
}

fn strip_terminal<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(prefix)?;
    if rest.is_empty() || rest.starts_with(' ') {
        Some(rest)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_prefixes_match_whole_words_only() {
        assert_eq!(strip_terminal("OK 3", "OK"), Some(" 3"));
        assert_eq!(strip_terminal("OK", "OK"), Some(""));
        assert_eq!(strip_terminal("OKAY 3", "OK"), None);
        assert_eq!(strip_terminal("BUSY 50", "BUSY"), Some(" 50"));
    }

    #[test]
    fn backoff_grows_caps_and_respects_the_hint() {
        let mut client_rng = 0x5eed_1e55u64 | 1;
        let mut backoff = |attempt: u32, hint: u64| {
            let base: u64 = 10;
            let cap: u64 = 500;
            let exp = base.saturating_mul(1u64 << attempt.min(16));
            let delay = exp.max(hint).min(cap).max(1);
            client_rng ^= client_rng << 13;
            client_rng ^= client_rng >> 7;
            client_rng ^= client_rng << 17;
            delay + client_rng % (delay / 2 + 1)
        };
        let d0 = backoff(0, 0);
        assert!((10..=15).contains(&d0), "base delay with jitter: {d0}");
        let d6 = backoff(6, 0);
        assert!((500..=750).contains(&d6), "capped delay: {d6}");
        let hinted = backoff(0, 120);
        assert!(hinted >= 120, "server hint is a floor: {hinted}");
    }
}
