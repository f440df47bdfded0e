//! The one lexer for value literals: history log lines (and the serve
//! `UPDATE` payload, which is one) and checkpoint rows read integers,
//! quoted strings and booleans through it. It walks bytes: every token of
//! the grammar is ASCII, so UTF-8 is decoded only where other characters
//! may stand — inside string literals and as whitespace between tokens.

use std::fmt;

use crate::symbol::Symbol;
use crate::value::Value;

/// Why a literal did not lex. [`fmt::Display`] words it as the log reader
/// reports it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LexError {
    /// Bytes that are not UTF-8, from this offset of the input.
    Utf8(usize),
    /// No digits where an integer must stand.
    NoDigits,
    /// An integer literal outside `i64`, as written.
    Range(String),
    /// A string literal without its closing quote.
    Unterminated,
    /// A backslash before anything but `"`, `\` or `n`.
    Escape,
    /// A bare word other than `true` and `false`, as written.
    BareWord(String),
    /// Nothing that starts a value.
    NoValue,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::Utf8(at) => write!(f, "invalid UTF-8 at byte {}", at + 1),
            LexError::NoDigits => f.write_str("expected an integer"),
            LexError::Range(text) => write!(f, "integer `{text}` out of range"),
            LexError::Unterminated => f.write_str("unterminated string"),
            LexError::Escape => f.write_str("unknown escape"),
            LexError::BareWord(w) => write!(f, "unknown bare value `{w}` (strings must be quoted)"),
            LexError::NoValue => f.write_str("expected a value"),
        }
    }
}

/// A cursor over one line's bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lexer<'s> {
    src: &'s [u8],
    /// The offset of the next byte to read.
    pub pos: usize,
}

impl<'s> Lexer<'s> {
    /// A lexer at the start of `src`.
    #[inline]
    pub fn new(src: &'s [u8]) -> Lexer<'s> {
        Lexer { src, pos: 0 }
    }

    /// The byte at the cursor.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    /// The whole character at the cursor (`None` at the end).
    pub fn peek_char(&self) -> Result<Option<char>, LexError> {
        let rest = &self.src[self.pos..];
        match rest[..rest.len().min(4)].utf8_chunks().next() {
            Some(head) => match head.valid().chars().next() {
                None => Err(LexError::Utf8(self.pos)),
                c => Ok(c),
            },
            None => Ok(None),
        }
    }

    /// Skips whitespace, ASCII or not.
    #[inline]
    pub fn skip_ws(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii() && (b as char).is_whitespace() => self.pos += 1,
                Some(b) if !b.is_ascii() => match self.peek_char()? {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return Ok(()),
                },
                _ => return Ok(()),
            }
        }
    }

    /// Consumes and returns the longest run of bytes satisfying `pred`.
    #[inline]
    fn take_while(&mut self, pred: impl Fn(&u8) -> bool) -> &'s [u8] {
        let rest = &self.src[self.pos..];
        let run = &rest[..rest.iter().position(|b| !pred(b)).unwrap_or(rest.len())];
        self.pos += run.len();
        run
    }

    /// An identifier or bare word: ASCII letters, digits and `_`.
    #[inline]
    pub fn word(&mut self) -> &'s [u8] {
        self.take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
    }

    /// An integer literal: an optional `-`, then decimal digits.
    #[inline]
    pub fn integer(&mut self) -> Result<i64, LexError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let digits = self.take_while(u8::is_ascii_digit);
        if digits.is_empty() {
            return Err(LexError::NoDigits);
        }
        // Accumulated below zero, where `i64::MIN` fits.
        let below = |n: i64, d: &u8| n.checked_mul(10)?.checked_sub(i64::from(d - b'0'));
        let value = digits.iter().try_fold(0, below);
        let value = value.and_then(|n| if negative { Some(n) } else { n.checked_neg() });
        let text = || String::from_utf8_lossy(&self.src[start..self.pos]).into();
        value.ok_or_else(|| LexError::Range(text()))
    }

    /// A string literal, cursor at the opening quote, its text handed to
    /// `intern`. An escape-free literal is interned straight from the
    /// input. On [`LexError::Escape`] the cursor is at the backslash.
    fn string(&mut self, intern: impl FnOnce(&str) -> Symbol) -> Result<Value, LexError> {
        self.pos += 1;
        let mut unescaped = String::new();
        let text = loop {
            let start = self.pos;
            let run = self.take_while(|b| !matches!(b, b'"' | b'\\'));
            let run =
                std::str::from_utf8(run).map_err(|e| LexError::Utf8(start + e.valid_up_to()))?;
            match self.peek() {
                None => return Err(LexError::Unterminated),
                Some(b'"') if unescaped.is_empty() => break run,
                Some(b'"') => {
                    unescaped.push_str(run);
                    break &unescaped;
                }
                Some(_) => {
                    unescaped.push_str(run);
                    unescaped.push(match self.src.get(self.pos + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        _ => return Err(LexError::Escape),
                    });
                    self.pos += 2;
                }
            }
        };
        let value = Value::Str(intern(text));
        self.pos += 1;
        Ok(value)
    }

    /// A value literal after any whitespace, strings handed to `intern`.
    pub fn value(&mut self, intern: impl FnOnce(&str) -> Symbol) -> Result<Value, LexError> {
        self.skip_ws()?;
        match self.peek() {
            Some(b'"') => self.string(intern),
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(Value::Int(self.integer()?)),
            Some(b) if b.is_ascii_alphabetic() => match self.word() {
                b"true" => Ok(Value::Bool(true)),
                b"false" => Ok(Value::Bool(false)),
                other => Err(LexError::BareWord(String::from_utf8_lossy(other).into())),
            },
            _ => Err(LexError::NoValue),
        }
    }

    /// Reads the rest of the input as a comma-separated list of literals —
    /// [`Value::write_literal`] outputs joined with `", "` — into `out`,
    /// strings handed to `intern` left to right. A blank list is empty and
    /// a trailing comma is tolerated. An error names its column, counted
    /// in characters, in the words a checkpoint refusal uses for a bad
    /// row rather than the log reader's.
    pub fn literals(
        mut self,
        mut intern: impl FnMut(&str) -> Symbol,
        out: &mut Vec<Value>,
    ) -> Result<(), String> {
        let src = self.src;
        let at = |message: &str, at: usize| {
            let column = String::from_utf8_lossy(&src[..at]).chars().count() + 1;
            Err(format!("{message} at column {column}"))
        };
        loop {
            let _ = self.skip_ws();
            let start = self.pos;
            match self.peek().map(|_| self.value(&mut intern)) {
                None => return Ok(()),
                Some(Ok(v)) => out.push(v),
                Some(Err(LexError::Unterminated)) => return at("unterminated string", self.pos),
                Some(Err(LexError::Escape)) => return at("unknown escape", self.pos + 1),
                Some(Err(LexError::NoDigits | LexError::Range(_))) => {
                    return at("bad integer literal", start)
                }
                Some(Err(LexError::BareWord(_))) => {
                    return at("unknown bare word (strings must be quoted)", start)
                }
                Some(Err(_)) => return at("expected a value literal", self.pos),
            }
            let _ = self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(_) => return at("expected `,` between literals", self.pos),
                None => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(text: &str) -> Result<Value, LexError> {
        Lexer::new(text.as_bytes()).value(Symbol::intern)
    }

    #[test]
    fn errors_name_what_failed_and_leave_the_cursor_there() {
        assert_eq!(lex("-"), Err(LexError::NoDigits));
        assert_eq!(
            lex("99999999999999999999"),
            Err(LexError::Range("99999999999999999999".into()))
        );
        assert_eq!(lex("truely"), Err(LexError::BareWord("truely".into())));
        assert_eq!(lex("é"), Err(LexError::NoValue));
        assert_eq!(lex("\"abc"), Err(LexError::Unterminated));
        let mut lexer = Lexer::new(b"\"a\\qb\"");
        assert_eq!(lexer.value(Symbol::intern), Err(LexError::Escape));
        assert_eq!(lexer.pos, 2, "at the backslash");
        let mut lexer = Lexer::new(b"\"b\xff\"");
        assert_eq!(lexer.value(Symbol::intern), Err(LexError::Utf8(2)));
        assert_eq!(LexError::Utf8(2).to_string(), "invalid UTF-8 at byte 3");
    }

    fn literals(text: &str) -> Result<Vec<Value>, String> {
        let mut out = Vec::new();
        Lexer::new(text.as_bytes()).literals(Symbol::intern, &mut out)?;
        Ok(out)
    }

    #[test]
    fn literal_lists_read_what_joined_literals_write() {
        assert_eq!(literals("   "), Ok(vec![]));
        let vs = literals(r#" 1,"a, b" ,true, "#).unwrap();
        assert_eq!(
            vs,
            vec![Value::Int(1), Value::str("a, b"), Value::Bool(true)]
        );
        let mut text = String::new();
        for v in &vs {
            v.write_literal(&mut text).unwrap();
            text.push_str(", ");
        }
        assert_eq!(literals(&text), Ok(vs));
    }

    #[test]
    fn literal_list_errors_name_their_column() {
        for (text, message) in [
            (
                "bareword",
                "unknown bare word (strings must be quoted) at column 1",
            ),
            ("\"open", "unterminated string at column 6"),
            ("\"a\\q\"", "unknown escape at column 4"),
            ("\"日本\\", "unknown escape at column 5"),
            ("1 2", "expected `,` between literals at column 3"),
            ("1,,2", "expected a value literal at column 3"),
            ("7, -", "bad integer literal at column 4"),
            ("99999999999999999999", "bad integer literal at column 1"),
            ("é", "expected a value literal at column 1"),
        ] {
            assert_eq!(literals(text), Err(message.to_string()), "{text:?}");
        }
    }

    #[test]
    fn the_interner_sees_each_string_once_unescaped() {
        let mut seen = Vec::new();
        let mut lexer = Lexer::new(br#""a\"b" "c""#);
        for _ in 0..2 {
            lexer
                .value(|s| {
                    seen.push(s.to_string());
                    Symbol::intern(s)
                })
                .unwrap();
        }
        assert_eq!(seen, ["a\"b", "c"]);
    }
}
