//! A line-oriented text format for update logs.
//!
//! One line per transition:
//!
//! ```text
//! @10 +reserved("ann", 17) -confirmed("bob", 3)
//! @12                      # a pure clock tick
//! ```
//!
//! `@T` is the timestamp, `+rel(v…)` inserts, `-rel(v…)` deletes. Values
//! are integers (`17`, `-3`), quoted strings (`"ann"`), or booleans
//! (`true`/`false`). Comments run from `#` to end of line. The format
//! round-trips: `parse_log(format_log(ts)) == ts`.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use rtic_relation::{LexError, Lexer, Symbol, Tuple, Update, Value};
use rtic_temporal::TimePoint;

use crate::history::Transition;

/// What went wrong while reading a log: the *content* of a line, or the
/// *channel* it arrived on. Consumers with a skip-bad-lines policy may
/// tolerate [`Parse`](LogErrorKind::Parse) errors, but an
/// [`Io`](LogErrorKind::Io) error means the source itself failed and no
/// further lines can be trusted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogErrorKind {
    /// The line was read but does not conform to the log grammar.
    Parse,
    /// The underlying reader failed; the stream cannot continue.
    Io,
}

/// A log-parsing failure with its line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// Whether this is a content error or a source failure.
    pub kind: LogErrorKind,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for LogError {}

/// Serializes transitions to the text format.
pub fn format_log(transitions: &[Transition]) -> String {
    let mut out = String::new();
    for t in transitions {
        let _ = write!(out, "@{}", t.time.0);
        let inserts = t.update.inserts().map(|change| ('+', change));
        let deletes = t.update.deletes().map(|change| ('-', change));
        for (sign, (rel, tuples)) in inserts.chain(deletes) {
            for tuple in tuples {
                let _ = write!(out, " {sign}{rel}(");
                for (i, v) in tuple.values().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = v.write_literal(&mut out);
                }
                out.push(')');
            }
        }
        out.push('\n');
    }
    out
}

/// Room for the run being read, taken once per line that has a change:
/// longer than the runs of a production line (`serve-mixed`'s longest is
/// ≈ 40 tuples), so the buffer is not regrown as a run is read.
const RUN_ROOM: usize = 64;

/// The one line parser behind [`parse_log`], [`LogReader`] and the serve
/// `UPDATE` payload: the line grammar around the value literals that
/// [`Lexer`] reads, as checkpoints read theirs.
#[derive(Default)]
struct LineParser<'s> {
    lex: Lexer<'s>,
    line_no: usize,
    /// The fields of the tuple being read (one buffer per line).
    fields: Vec<Value>,
    /// The run of changes being read, handed to the update whole, so that
    /// its relation's run is allocated once (one buffer per line).
    run: Vec<Tuple>,
}

impl<'s> LineParser<'s> {
    fn err(&self, message: impl Into<String>) -> LogError {
        LogError {
            message: message.into(),
            line: self.line_no,
            kind: LogErrorKind::Parse,
        }
    }

    fn lex_err(&self, e: LexError) -> LogError {
        self.err(e.to_string())
    }

    fn skip_ws(&mut self) -> Result<(), LogError> {
        self.lex.skip_ws().map_err(|e| self.lex_err(e))
    }

    fn at_end(&mut self) -> Result<bool, LogError> {
        self.skip_ws()?;
        Ok(matches!(self.lex.peek(), None | Some(b'#')))
    }

    fn expect(&mut self, c: u8) -> Result<(), LogError> {
        if self.lex.peek() == Some(c) {
            self.lex.pos += 1;
            return Ok(());
        }
        let found = match self.lex.peek_char().map_err(|e| self.lex_err(e))? {
            Some(found) => format!("`{found}`"),
            None => "end of line".into(),
        };
        Err(self.err(format!("expected `{}`, found {found}", c as char)))
    }

    fn integer(&mut self) -> Result<i64, LogError> {
        self.lex.integer().map_err(|e| self.lex_err(e))
    }

    fn ident(&mut self) -> Result<&'s [u8], LogError> {
        match self.lex.word() {
            [] => Err(self.err("expected an identifier")),
            word => Ok(word),
        }
    }

    /// A change's sign (`true` inserts) and relation name.
    fn head(&mut self) -> Result<(bool, &'s [u8]), LogError> {
        let insert = match self.lex.peek() {
            Some(b'+') => true,
            Some(b'-') => false,
            _ => return Err(self.err("expected `+rel(…)` or `-rel(…)`")),
        };
        self.lex.pos += 1;
        Ok((insert, self.ident()?))
    }

    /// A change's parenthesized values.
    fn tuple(&mut self) -> Result<Tuple, LogError> {
        self.expect(b'(')?;
        self.fields.clear();
        self.skip_ws()?;
        while self.lex.peek() != Some(b')') {
            if !self.fields.is_empty() {
                self.expect(b',')?;
            }
            let value = self.lex.value(Symbol::intern);
            self.fields.push(value.map_err(|e| self.lex_err(e))?);
            self.skip_ws()?;
        }
        self.lex.pos += 1;
        Ok(Tuple::new(self.fields.iter().copied()))
    }

    /// The next change's tuple, if it is a well-formed change with the
    /// given sign and relation; otherwise nothing is consumed, and the
    /// caller reads (or rejects) that change on its own.
    fn same_run(&mut self, head: (bool, &[u8])) -> Option<Tuple> {
        let mark = self.lex.pos;
        let same = !self.at_end().unwrap_or(true) && self.head().is_ok_and(|h| h == head);
        match same.then(|| self.tuple()) {
            Some(Ok(tuple)) => Some(tuple),
            _ => {
                self.lex.pos = mark;
                None
            }
        }
    }

    /// The whole line: `None` when it is blank or only a comment. Each run
    /// of changes with one sign and one relation is read whole, its
    /// relation interned once, and appended to the update in one piece.
    fn line(&mut self) -> Result<Option<Transition>, LogError> {
        if self.at_end()? {
            return Ok(None);
        }
        self.expect(b'@')?;
        let t = self.integer()?;
        if t < 0 {
            return Err(self.err("timestamps are non-negative"));
        }
        let mut update = Update::new();
        while !self.at_end()? {
            let head @ (insert, name) = self.head()?;
            let rel = Symbol::intern(std::str::from_utf8(name).expect("identifiers are ASCII"));
            let first = self.tuple()?;
            self.run.reserve(RUN_ROOM);
            self.run.push(first);
            while let Some(tuple) = self.same_run(head) {
                self.run.push(tuple);
            }
            update.extend(insert, rel, self.run.drain(..));
        }
        Ok(Some(Transition::new(TimePoint(t as u64), update)))
    }
}

/// Parses the text format into transitions. Blank and comment-only lines
/// are skipped. Timestamps are *not* checked for monotonicity here — that
/// happens on replay, where the error can point at the offending state.
pub fn parse_log(input: &str) -> Result<Vec<Transition>, LogError> {
    let lines = input.lines().enumerate();
    let parsed = lines.filter_map(|(idx, line)| parse_line(line.as_bytes(), idx + 1).transpose());
    parsed.collect()
}

/// Parses one log line, without its terminator (1-based `line_no` for
/// errors); `None` for blank and comment-only lines. The line need not be
/// UTF-8: a stray byte is a [`LogErrorKind::Parse`] error naming it.
pub fn parse_line(line: &[u8], line_no: usize) -> Result<Option<Transition>, LogError> {
    let mut parser = LineParser {
        lex: Lexer::new(line),
        line_no,
        ..Default::default()
    };
    parser.line()
}

/// A streaming log reader: yields one [`Transition`] per line from any
/// [`std::io::BufRead`] source without materializing the whole log. This is what a
/// deployment tails; [`parse_log`] is the convenience wrapper for in-memory
/// text.
///
/// I/O errors are surfaced as [`LogError`]s carrying the line number.
pub struct LogReader<R> {
    source: R,
    line_no: usize,
    buf: Vec<u8>,
}

impl<R: std::io::BufRead> LogReader<R> {
    /// Wraps a buffered reader.
    pub fn new(source: R) -> LogReader<R> {
        LogReader {
            source,
            line_no: 0,
            buf: Vec::new(),
        }
    }

    /// The number of source lines consumed so far.
    pub fn lines_read(&self) -> usize {
        self.line_no
    }
}

impl<R: std::io::BufRead> Iterator for LogReader<R> {
    type Item = Result<Transition, LogError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            self.line_no += 1;
            match self.source.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    return Some(Err(LogError {
                        message: format!("I/O error: {e}"),
                        line: self.line_no,
                        kind: LogErrorKind::Io,
                    }))
                }
            }
            let mut line = &self.buf[..];
            while let [rest @ .., b'\n' | b'\r'] = line {
                line = rest;
            }
            if let Some(item) = parse_line(line, self.line_no).transpose() {
                return Some(item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::tuple;

    #[test]
    fn parse_simple_line() {
        let ts = parse_log("@10 +r(\"a\", 3) -s(true)").unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].time, TimePoint(10));
        let inserts: Vec<_> = ts[0].update.inserts().collect();
        assert_eq!(inserts[0].0.as_str(), "r");
        assert!(inserts[0].1.contains(&tuple!["a", 3]));
        let deletes: Vec<_> = ts[0].update.deletes().collect();
        assert!(deletes[0].1.contains(&tuple![true]));
    }

    #[test]
    fn pure_tick_and_comments() {
        let ts = parse_log("# header\n\n@5\n@7 # trailing comment\n").unwrap();
        assert_eq!(ts.len(), 2);
        assert!(ts[0].update.is_empty());
        assert_eq!(ts[1].time, TimePoint(7));
    }

    #[test]
    fn nullary_tuples() {
        let ts = parse_log("@1 +alarm()").unwrap();
        let (_, tuples) = ts[0].update.inserts().next().unwrap();
        assert!(tuples.contains(&Tuple::empty()));
    }

    #[test]
    fn string_escapes_round_trip() {
        let t = Transition::new(
            3,
            Update::new().with_insert("r", tuple!["quote\"and\\slash", 1]),
        );
        let text = format_log(std::slice::from_ref(&t));
        let back = parse_log(&text).unwrap();
        assert_eq!(back, vec![t]);
    }

    #[test]
    fn format_then_parse_round_trips() {
        let ts = vec![
            Transition::new(
                1,
                Update::new()
                    .with_insert("r", tuple!["a", 1])
                    .with_insert("r", tuple!["b", 2])
                    .with_delete("s", tuple![7]),
            ),
            Transition::new(9, Update::new()),
        ];
        assert_eq!(parse_log(&format_log(&ts)).unwrap(), ts);
        for seed in 0..24 {
            let ts = generated_log(seed, 40);
            assert_eq!(parse_log(&format_log(&ts)).unwrap(), ts, "seed {seed}");
        }
    }

    #[test]
    fn a_run_out_of_order_split_or_repeated_parses_to_one_sorted_run() {
        for (line, values) in [
            ("@1 +r(\"b\") +r(\"a\")", ["b", "a"]),
            ("@1 +r(\"a\") +s(1) +r(\"c\")", ["a", "c"]),
            ("@1 -r(\"d\") -r(\"d\") -r(\"e\")", ["d", "e"]),
        ] {
            let update = parse_line(line.as_bytes(), 1).unwrap().unwrap().update;
            let mut want: Vec<Tuple> = values.iter().map(|v| tuple![*v]).collect();
            want.sort();
            let runs = update.inserts().chain(update.deletes());
            let r = runs.filter(|(rel, _)| rel.as_str() == "r");
            assert_eq!(
                r.map(|(_, run)| run.to_vec()).collect::<Vec<_>>(),
                [want],
                "on {line}"
            );
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_log("@1 +r(\"a\")\n@2 +r(oops)").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("quoted"));
    }

    #[test]
    fn missing_at_sign_is_error() {
        assert!(parse_log("10 +r(1)").is_err());
    }

    #[test]
    fn negative_timestamp_rejected() {
        assert!(parse_log("@-5").is_err());
    }

    #[test]
    fn unterminated_tuple_is_error() {
        let e = parse_log("@1 +r(1, ").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn streaming_reader_matches_batch_parse() {
        let text = "# header\n@1 +r(\"a\", 3)\n\n@4 -r(\"a\", 3)\n@9\n";
        let streamed: Result<Vec<Transition>, LogError> =
            LogReader::new(std::io::Cursor::new(text)).collect();
        assert_eq!(streamed.unwrap(), parse_log(text).unwrap());
    }

    #[test]
    fn streaming_reader_reports_error_line_and_stops() {
        let text = "@1 +r(1)\n@2 oops\n@3 +r(2)\n";
        let mut reader = LogReader::new(std::io::Cursor::new(text));
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(reader.lines_read(), 2);
    }

    #[test]
    fn parse_errors_are_kind_parse() {
        let e = parse_log("@1 +r(oops)").unwrap_err();
        assert_eq!(e.kind, LogErrorKind::Parse);
    }

    #[test]
    fn io_failures_are_kind_io() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let mut reader = LogReader::new(std::io::BufReader::new(Broken));
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.kind, LogErrorKind::Io);
        assert!(err.message.contains("disk on fire"));
    }

    #[test]
    fn streaming_reader_handles_crlf() {
        let text = "@1 +r(1)\r\n@2\r\n";
        let ts: Result<Vec<Transition>, _> = LogReader::new(std::io::Cursor::new(text)).collect();
        assert_eq!(ts.unwrap().len(), 2);
    }

    /// What [`parse_line`] makes of each malformed or odd line, written
    /// out: the transition, or the error's exact text (line 7, kind
    /// `Parse`). The character-vector lexer this file shipped before the
    /// byte-slice one produced the same table.
    #[test]
    fn malformed_and_odd_lines_parse_to_the_golden_table() {
        type Parsed = Result<Option<Transition>, LogError>;
        fn ok(time: u64, changes: &[(char, &str, Tuple)]) -> Parsed {
            let mut update = Update::new();
            for (sign, rel, tuple) in changes {
                match sign {
                    '+' => update.insert(*rel, tuple.clone()),
                    _ => update.delete(*rel, tuple.clone()),
                };
            }
            Ok(Some(Transition::new(time, update)))
        }
        fn err(message: &str) -> Parsed {
            Err(LogError {
                message: message.to_string(),
                line: 7,
                kind: LogErrorKind::Parse,
            })
        }
        let r = |sign, v: i64| (sign, "r", tuple![v]);
        let s = |sign, v: i64| (sign, "s", tuple![v]);
        let oops = "unknown bare value `oops` (strings must be quoted)";
        let change = "expected `+rel(…)` or `-rel(…)`";
        #[rustfmt::skip] // one line of input per row
        let table: Vec<(&str, Parsed)> = vec![
            ("", Ok(None)),
            ("   ", Ok(None)),
            ("# only a comment", Ok(None)),
            ("  \u{a0} # blank up to a comment", Ok(None)),
            ("10 +r(1)", err("expected `@`, found `1`")),
            ("@-5", err("timestamps are non-negative")),
            ("@-0 +r(1)", ok(0, &[r('+', 1)])),
            ("@99999999999999999999", err("integer `99999999999999999999` out of range")),
            ("@-", err("expected an integer")),
            ("@", err("expected an integer")),
            ("@ 5", err("expected an integer")),
            ("@1 oops", err(change)),
            ("@1 +", err("expected an identifier")),
            ("@1 +(1)", err("expected an identifier")),
            ("@1 +r", err("expected `(`, found end of line")),
            ("@1 +r (1)", err("expected `(`, found ` `")),
            ("@1 +r(1, ", err("expected a value")),
            ("@1 +r(1", err("expected `,`, found end of line")),
            ("@1 +r(", err("expected a value")),
            ("@1 +r(1 2)", err("expected `,`, found `2`")),
            ("@1 +r(,1)", err("expected a value")),
            ("@1 +r(1,)", err("expected a value")),
            ("@1 +r(1,,2)", err("expected a value")),
            ("@1 +r(oops)", err(oops)),
            ("@1 +r(true, false, truely)", err("unknown bare value `truely` (strings must be quoted)")),
            ("@1 +r(-)", err("expected an integer")),
            ("@1 +r(--1)", err("expected an integer")),
            ("@1 +r(9223372036854775807, -9223372036854775808)", ok(1, &[('+', "r", tuple![i64::MAX, i64::MIN])])),
            ("@1 +r(9223372036854775808)", err("integer `9223372036854775808` out of range")),
            ("@1 +r(-9223372036854775809)", err("integer `-9223372036854775809` out of range")),
            ("@1 +r(007, -0)", ok(1, &[('+', "r", tuple![7, 0])])),
            ("@1 +r(\"abc)", err("unterminated string")),
            ("@1 +r(\"abc\\", err("unknown escape")),
            ("@1 +r(\"a\\qb\")", err("unknown escape")),
            ("@1 +r(\"a\\\"b\\\\c\\nd\")", ok(1, &[('+', "r", tuple!["a\"b\\c\nd"])])),
            ("@1 +r(\"a # not a comment\") # a comment", ok(1, &[('+', "r", tuple!["a # not a comment"])])),
            ("@1 +r(\"naïve\", \"日本\", \"🦀\")", ok(1, &[('+', "r", tuple!["naïve", "日本", "🦀"])])),
            ("@1 +r(1)\r", ok(1, &[r('+', 1)])),
            ("@1 +r(1) \r", ok(1, &[r('+', 1)])),
            ("@1\t+r(1)\u{b}-s(2)\u{a0}+t()\u{3000}# spaces of many kinds",
                ok(1, &[r('+', 1), s('-', 2), ('+', "t", Tuple::empty())])),
            ("@1 +r\u{a0}(1)", err("expected `(`, found `\u{a0}`")),
            ("@1 +ré(1)", err("expected `(`, found `é`")),
            ("@1 +r日(1)", err("expected `(`, found `日`")),
            ("@1 +r(1)é", err(change)),
            ("@1 +r(é)", err("expected a value")),
            ("@1 +r(1 é)", err("expected `,`, found `é`")),
            ("@1é", err(change)),
            ("é@1", err("expected `@`, found `é`")),
            ("@1 +r(1) +r(1) -r(1) +s() -s()",
                ok(1, &[r('+', 1), r('-', 1), ('+', "s", Tuple::empty()), ('-', "s", Tuple::empty())])),
            ("@1 +r(3) +r(1) -r(2) +s(1) +r(2) +r(1) -s(1) -r(2) -r(0) +s(0)",
                ok(1, &[r('+', 1), r('+', 2), r('+', 3), r('-', 0), r('-', 2), s('+', 0), s('+', 1), s('-', 1)])),
            ("@1 +r(2) +r(1) +s(1) +r(oops)", err(oops)),
            ("@1 +a_1(1) +A9(2) +_(3)", ok(1, &[('+', "a_1", tuple![1]), ('+', "A9", tuple![2]), ('+', "_", tuple![3])])),
        ];
        assert_eq!(table.len(), 52);
        for (line, expected) in table {
            assert_eq!(parse_line(line.as_bytes(), 7), expected, "on {line:?}");
        }
    }

    /// SplitMix64: the round trip needs repeatable variety, not quality.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn generated_log(seed: u64, steps: usize) -> Vec<Transition> {
        const STRINGS: [&str; 8] = [
            "ann",
            "",
            "quote\"d",
            "back\\slash",
            "two\nlines",
            "naïve",
            "日本 語",
            "# (not) a comment, +r(1)",
        ];
        const INTS: [i64; 6] = [0, 1, -1, 17, i64::MIN, i64::MAX];
        let mut rng = seed;
        let times = crate::gen::clustered_schedule(TimePoint(seed % 5), steps, 3, 9);
        let transitions = times.into_iter().map(|time| {
            let mut update = Update::new();
            for _ in 0..next(&mut rng) % 12 {
                let rel = format!("rel_{}", next(&mut rng) % 4);
                let tuple: Tuple = (0..next(&mut rng) % 7)
                    .map(|_| match next(&mut rng) % 3 {
                        0 => Value::Int(INTS[(next(&mut rng) % 6) as usize]),
                        1 => Value::str(STRINGS[(next(&mut rng) % 8) as usize]),
                        _ => Value::Bool(next(&mut rng).is_multiple_of(2)),
                    })
                    .collect();
                if next(&mut rng).is_multiple_of(3) {
                    update.delete(rel.as_str(), tuple);
                } else {
                    update.insert(rel.as_str(), tuple);
                }
            }
            Transition::new(time, update)
        });
        transitions.collect()
    }

    #[test]
    fn a_stray_byte_is_a_parse_error_naming_line_and_byte() {
        let log = b"@1 +r(\"a\", 1)\n@2 +r(\"b\xff\", 2)\n@3 +r(\"c\", 3)\n";
        let mut reader = LogReader::new(std::io::Cursor::new(&log[..]));
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(
            err.kind,
            LogErrorKind::Parse,
            "skippable, not a dead stream"
        );
        assert_eq!(err.to_string(), "line 2: invalid UTF-8 at byte 9");
        assert_eq!(reader.next().unwrap().unwrap().time, TimePoint(3));
        // Where no text is decoded the byte is just not the expected token;
        // between tokens and in found-`…` it is named.
        for (line, message) in [
            (&b"@1 +r(1) \xff"[..], "invalid UTF-8 at byte 10"),
            (b"@1 +r\xff(1)", "invalid UTF-8 at byte 6"),
            (b"@1 +\xff(1)", "expected an identifier"),
            (b"@\xff", "expected an integer"),
            (b"@1 +r(1) # \xff in a comment", ""),
        ] {
            match parse_line(line, 1) {
                Ok(_) => assert_eq!(message, "", "{line:?}"),
                Err(e) => assert_eq!((e.message.as_str(), e.kind), (message, LogErrorKind::Parse)),
            }
        }
    }
}
