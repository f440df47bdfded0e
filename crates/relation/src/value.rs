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
    /// write through here; it round-trips through [`Value::parse_literals`].
    pub fn write_literal(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Str(s) => quote(s.as_str(), out),
            _ => write!(out, "{self}"),
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

    /// Parses a comma-separated list of literals (the inverse of joining
    /// [`Value::write_literal`] outputs with `", "`). Whitespace around
    /// literals is ignored; an empty/blank input yields an empty list.
    pub fn parse_literals(input: &str) -> Result<Vec<Value>, String> {
        let chars: Vec<char> = input.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        let err =
            |msg: &str, at: usize| Err::<Vec<Value>, String>(format!("{msg} at column {}", at + 1));
        loop {
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
            if i >= chars.len() {
                // Clean end of input (a trailing comma is tolerated).
                return Ok(out);
            }
            match chars[i] {
                '"' => {
                    i += 1;
                    let mut s = String::new();
                    loop {
                        match chars.get(i) {
                            None => return err("unterminated string", i),
                            Some('"') => {
                                i += 1;
                                break;
                            }
                            Some('\\') => {
                                i += 1;
                                match chars.get(i) {
                                    Some('"') => s.push('"'),
                                    Some('\\') => s.push('\\'),
                                    Some('n') => s.push('\n'),
                                    _ => return err("unknown escape", i),
                                }
                                i += 1;
                            }
                            Some(&c) => {
                                s.push(c);
                                i += 1;
                            }
                        }
                    }
                    out.push(Value::str(&s));
                }
                c if c == '-' || c.is_ascii_digit() => {
                    let start = i;
                    if chars[i] == '-' {
                        i += 1;
                    }
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = chars[start..i].iter().collect();
                    match text.parse() {
                        Ok(v) => out.push(Value::Int(v)),
                        Err(_) => return err("bad integer literal", start),
                    }
                }
                c if c.is_ascii_alphabetic() => {
                    let start = i;
                    while i < chars.len() && chars[i].is_ascii_alphanumeric() {
                        i += 1;
                    }
                    let word: String = chars[start..i].iter().collect();
                    match word.as_str() {
                        "true" => out.push(Value::Bool(true)),
                        "false" => out.push(Value::Bool(false)),
                        _ => return err("unknown bare word (strings must be quoted)", start),
                    }
                }
                _ => return err("expected a value literal", i),
            }
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
            if i >= chars.len() {
                return Ok(out);
            }
            if chars[i] != ',' {
                return err("expected `,` between literals", i);
            }
            i += 1;
        }
    }
}

/// Writes `s` quoted, escaping exactly `"`, `\\` and newline.
fn quote(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    let mut rest = s;
    out.write_char('"')?;
    while let Some(at) = rest.find(['"', '\\', '\n']) {
        out.write_str(&rest[..at])?;
        out.write_str(match rest.as_bytes()[at] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            _ => "\\n",
        })?;
        rest = &rest[at + 1..];
    }
    out.write_str(rest)?;
    out.write_char('"')
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

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
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
            Value::str("plain"),
            Value::str("with \"quotes\" and \\slash\\ and\nnewline"),
            Value::Bool(true),
            Value::Bool(false),
            Value::str(""),
        ];
        let mut text = String::new();
        for v in &vals {
            v.write_literal(&mut text).unwrap();
            text.push_str(", ");
        }
        assert_eq!(Value::parse_literals(&text).unwrap(), vals);
    }

    #[test]
    fn parse_literals_empty_and_errors() {
        assert_eq!(Value::parse_literals("   ").unwrap(), vec![]);
        assert!(Value::parse_literals("bareword").is_err());
        assert!(Value::parse_literals("\"open").is_err());
        assert!(Value::parse_literals("1 2").is_err(), "missing comma");
        assert!(Value::parse_literals("1,,2").is_err());
    }

    #[test]
    fn parse_literals_mixed() {
        let vs = Value::parse_literals(r#" 1,"a, b" ,true "#).unwrap();
        assert_eq!(
            vs,
            vec![Value::Int(1), Value::str("a, b"), Value::Bool(true)]
        );
    }
}
