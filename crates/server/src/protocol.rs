//! The `rtic serve` line protocol.
//!
//! One line per request (ASCII verbs; an update payload is UTF-8 where the
//! log grammar admits text), one or more lines per reply. Every reply
//! sequence ends with exactly one terminal line (`OK …`, `BUSY …` or
//! `ERR …`); violation witnesses precede the terminal line as `VIOL `
//! prefixed lines, each payload byte-identical to the line `rtic check`
//! prints for the same violation.
//!
//! ```text
//! → UPDATE @5 +reserved("ann")      (or the bare log line)
//! ← VIOL @5 VIOLATION unconfirmed x1: {p=ann}
//! ← OK 1
//! → TICK 7                          (clock advance, empty update)
//! ← OK 0
//! → QUERY status
//! ← OK state=running steps=12 queue=0/64 peak=3 shed=0 conns=1 …
//! → DRAIN
//! ← OK drained steps=12 …           (after flush + final checkpoint)
//! ```

use rtic_history::log::parse_line;
use rtic_history::Transition;
use rtic_temporal::TimePoint;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `UPDATE <log-line>` (or a bare `@time …` log line): one
    /// transition to feed the fleet.
    Update(Transition),
    /// `TICK <time>`: advance the clock with an empty update, so
    /// time-gated constraints fire without new tuples.
    Tick(TimePoint),
    /// `QUERY status`: report server gauges without touching the engine.
    Status,
    /// `DRAIN`: stop accepting, flush the queue, checkpoint, exit 0.
    Drain,
    /// `PING`: liveness probe.
    Ping,
    /// `PAUSE`: hold queued updates (deterministic-backpressure hook).
    Pause,
    /// `RESUME`: undo `PAUSE`.
    Resume,
}

/// Reply line prefix for violation witnesses.
pub const VIOL_PREFIX: &str = "VIOL ";
/// Terminal reply prefix for success.
pub const OK_PREFIX: &str = "OK";
/// Terminal reply prefix for backpressure rejection; the suffix is the
/// suggested retry delay in milliseconds.
pub const BUSY_PREFIX: &str = "BUSY";
/// Terminal reply prefix for errors.
pub const ERR_PREFIX: &str = "ERR";

/// Parses one request line. Blank lines and `#` comments parse to
/// `None` so a raw `.rticlog` file can be streamed verbatim.
///
/// The line is bytes, not text: verbs and their arguments are ASCII, and
/// an update payload goes to the log lexer as it arrived, so a stray
/// non-UTF-8 byte is an `ERR` reply naming it rather than a dead socket.
pub fn parse_command(line: &(impl AsRef<[u8]> + ?Sized)) -> Result<Option<Command>, String> {
    let trimmed = line.as_ref().trim_ascii();
    if trimmed.is_empty() || trimmed[0] == b'#' {
        return Ok(None);
    }
    let (verb, rest) = match trimmed.iter().position(u8::is_ascii_whitespace) {
        Some(at) => (&trimmed[..at], trimmed[at..].trim_ascii_start()),
        None => (trimmed, &trimmed[..0]),
    };
    if verb == b"UPDATE" {
        return parse_transition(rest).map(|t| Some(Command::Update(t)));
    }
    if verb[0] == b'@' {
        return parse_transition(trimmed).map(|t| Some(Command::Update(t)));
    }
    let (verb, rest) = (String::from_utf8_lossy(verb), String::from_utf8_lossy(rest));
    match &*verb {
        "TICK" => {
            let t: u64 = rest
                .parse()
                .map_err(|e| format!("bad TICK time `{rest}`: {e}"))?;
            Ok(Some(Command::Tick(TimePoint(t))))
        }
        "QUERY" => match &*rest {
            "status" | "" => Ok(Some(Command::Status)),
            other => Err(format!("unknown QUERY `{other}` (try `QUERY status`)")),
        },
        "DRAIN" => Ok(Some(Command::Drain)),
        "PING" => Ok(Some(Command::Ping)),
        "PAUSE" => Ok(Some(Command::Pause)),
        "RESUME" => Ok(Some(Command::Resume)),
        other => Err(format!(
            "unknown command `{other}` (UPDATE/TICK/QUERY/DRAIN/PING/PAUSE/RESUME)"
        )),
    }
}

fn parse_transition(line: &[u8]) -> Result<Transition, String> {
    if line.is_empty() {
        return Err("UPDATE needs a log line (`@time +rel(…) -rel(…)`)".into());
    }
    parse_line(line, 1)
        .map_err(|e| format!("bad update: {e}"))?
        .ok_or_else(|| "UPDATE takes exactly one log line".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_and_bare_log_lines_parse_alike() {
        let a = parse_command("UPDATE @3 +r(\"x\")").unwrap().unwrap();
        let b = parse_command("@3 +r(\"x\")").unwrap().unwrap();
        assert_eq!(a, b);
        let Command::Update(t) = a else {
            panic!("expected Update")
        };
        assert_eq!(t.time, TimePoint(3));
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(
            parse_command("TICK 9").unwrap(),
            Some(Command::Tick(TimePoint(9)))
        );
        assert_eq!(
            parse_command("QUERY status").unwrap(),
            Some(Command::Status)
        );
        assert_eq!(parse_command("QUERY").unwrap(), Some(Command::Status));
        assert_eq!(parse_command("DRAIN").unwrap(), Some(Command::Drain));
        assert_eq!(parse_command("PING").unwrap(), Some(Command::Ping));
        assert_eq!(parse_command("PAUSE").unwrap(), Some(Command::Pause));
        assert_eq!(parse_command("RESUME").unwrap(), Some(Command::Resume));
    }

    #[test]
    fn blanks_and_comments_are_skipped() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   ").unwrap(), None);
        assert_eq!(parse_command("# header").unwrap(), None);
    }

    #[test]
    fn junk_is_rejected_with_context() {
        assert!(parse_command("FROB")
            .unwrap_err()
            .contains("unknown command `FROB` (UPDATE/TICK/QUERY/DRAIN/PING/PAUSE/RESUME)"));
        assert!(parse_command("TICK soon").unwrap_err().contains("bad TICK"));
        assert!(parse_command("UPDATE").unwrap_err().contains("log line"));
        assert!(parse_command("QUERY blah")
            .unwrap_err()
            .contains("unknown QUERY"));
        // A request is bytes: one that is not UTF-8 is an error, not a panic.
        assert!(parse_command(b"UPDATE @1 +r(\"\xff\")")
            .unwrap_err()
            .contains("bad update: line 1: invalid UTF-8 at byte 8"));
        assert!(parse_command(b"\xffROB")
            .unwrap_err()
            .contains("unknown command"));
    }
}
