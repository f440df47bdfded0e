//! Data values and their sorts.

use std::fmt;

use crate::symbol::{Names, Symbol};

/// The sort (type) of a database value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Sort {
    /// 64-bit signed integers.
    Int,
    /// Interned strings.
    Str,
    /// Booleans.
    Bool,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Int => f.write_str("int"),
            Sort::Str => f.write_str("str"),
            Sort::Bool => f.write_str("bool"),
        }
    }
}

/// A database value.
///
/// `Ord` is derived and therefore only meaningful *within* one sort (the
/// cross-sort order — `Int < Str < Bool` — is arbitrary but deterministic,
/// which is all that ordered relation storage needs). Strings order by
/// intern id, not lexicographically; see [`Symbol`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// An interned string.
    Str(Symbol),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Value {
        Value::Str(Symbol::intern(s))
    }

    /// The sort this value belongs to.
    pub fn sort(&self) -> Sort {
        match self {
            Value::Int(_) => Sort::Int,
            Value::Str(_) => Sort::Str,
            Value::Bool(_) => Sort::Bool,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The symbol payload, if this is a `Str`.
    pub fn as_symbol(&self) -> Option<Symbol> {
        match self {
            Value::Str(s) => Some(*s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Writes a self-delimiting literal: integers bare, booleans
    /// `true`/`false`, strings quoted with exactly the escapes every reader
    /// knows — `\"`, `\\` and `\n` — and every other character raw. The
    /// history log, the checkpoint codec and the constraint printer all
    /// write through here; it round-trips through [`crate::Lexer::value`].
    pub fn write_literal(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Str(s) => quote(s.as_str(), out),
            _ => write!(out, "{self}"),
        }
    }

    /// The length of what [`Value::push_literal`] writes, escapes aside.
    pub fn literal_len(&self, names: &Names) -> usize {
        match *self {
            Value::Int(i) => {
                usize::from(i < 0) + 1 + i.unsigned_abs().checked_ilog10().unwrap_or(0) as usize
            }
            Value::Str(s) => 2 + names.get(s).len(),
            Value::Bool(b) => 5 - usize::from(b),
        }
    }

    /// [`Value::write_literal`] for a writer that prints many values: the
    /// string is read from `names`, held across them, and an integer goes
    /// through [`push_decimal`]. Same bytes.
    pub fn push_literal(&self, names: &Names, out: &mut String) {
        match *self {
            Value::Int(i) => {
                if i < 0 {
                    out.push('-');
                }
                push_decimal(out, i.unsigned_abs());
            }
            Value::Str(s) => {
                let _ = quote(names.get(s), out);
            }
            Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
}

/// Writes `s` quoted, escaping exactly `"`, `\\` and newline.
fn quote(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    escape(s, out)?;
    out.write_char('"')
}

/// Writes `s` with exactly `"`, `\\` and newline escaped, unquoted: what a
/// report line prints, so one report is one line.
fn escape(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    let mut rest = s;
    while let Some(at) = rest.find(['"', '\\', '\n']) {
        out.write_str(&rest[..at])?;
        out.write_str(match rest.as_bytes()[at] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            _ => "\\n",
        })?;
        rest = &rest[at + 1..];
    }
    out.write_str(rest)
}

/// Appends `n` in decimal: what `{n}` prints, without `fmt`'s machinery.
pub fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// A value as report lines print it: a string unquoted, with the same
/// escapes as a log literal, so a witness never splits its line.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => escape(s.as_str(), f),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_match_constructors() {
        assert_eq!(Value::Int(3).sort(), Sort::Int);
        assert_eq!(Value::str("x").sort(), Sort::Str);
        assert_eq!(Value::Bool(true).sort(), Sort::Bool);
    }

    #[test]
    fn push_literal_writes_what_write_literal_writes() {
        let ints = [0, 7, -1, 10, -10, 99, i64::MAX, i64::MIN].map(Value::Int);
        let strs = ["", "a\"b", "c\\d", "e\nf", "tab\tx"].map(Value::str);
        let bools = [true, false].map(Value::Bool);
        for v in ints.iter().chain(&strs).chain(&bools) {
            let (mut pushed, mut written) = (String::new(), String::new());
            // The guard drops here: `write_literal` takes the lock itself.
            v.push_literal(&Symbol::names(), &mut pushed);
            v.write_literal(&mut written).unwrap();
            assert_eq!(pushed, written);
        }
        let mut max = String::new();
        push_decimal(&mut max, u64::MAX);
        assert_eq!(max, u64::MAX.to_string());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_bool(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("a").as_symbol(), Some(Symbol::intern("a")));
        assert_eq!(Value::str("a").as_int(), None);
    }

    #[test]
    fn string_values_compare_by_content() {
        assert_eq!(Value::str("same"), Value::str("same"));
        assert_ne!(Value::str("one"), Value::str("two"));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(4), Value::Int(4));
        assert_eq!(Value::from("v"), Value::str("v"));
        assert_eq!(Value::from(false), Value::Bool(false));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn ints_order_numerically() {
        assert!(Value::Int(-5) < Value::Int(3));
    }

    #[test]
    fn literal_round_trip() {
        let vals = vec![
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::str("plain"),
            Value::str("with \"quotes\" and \\slash\\ and\nnewline"),
            Value::str("naïve 日本"),
            Value::Bool(true),
            Value::Bool(false),
            Value::str(""),
        ];
        for v in vals {
            let mut text = String::from(" \u{a0}");
            v.write_literal(&mut text).unwrap();
            let mut lexer = crate::Lexer::new(text.as_bytes());
            assert_eq!(lexer.value(Symbol::intern), Ok(v), "{text:?}");
            assert_eq!(lexer.pos, text.len(), "the whole literal is read");
        }
    }
}
