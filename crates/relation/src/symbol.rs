//! Interned strings.
//!
//! Relation names, attribute names and string data values are interned into
//! [`Symbol`]s: small copyable ids with O(1) equality and hashing. The
//! interner is a process-global table; interned strings live for the rest of
//! the process (they are leaked into `'static` storage). This is the usual
//! trade-off for a database engine whose vocabulary (schema names plus the
//! active string domain) is bounded; callers generating unbounded fresh
//! strings should be aware the table only grows.

use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::hash::FastMap;

/// An interned string.
///
/// Two `Symbol`s are equal iff they were interned from equal strings.
/// Ordering is by *intern id* (first-interned sorts first), which is
/// deterministic for a deterministic program but is not lexicographic; use
/// [`Symbol::as_str`] when lexicographic order matters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    by_name: FastMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: FastMap::default(),
            names: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        let mut i = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = i.by_name.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(i.names.len()).expect("symbol table overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        i.names.push(leaked);
        i.by_name.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        let i = interner().lock().expect("symbol interner poisoned");
        i.names[self.0 as usize]
    }

    /// The raw intern id. Stable within a process run only.
    pub fn id(self) -> u32 {
        self.0
    }

    /// A symbol with a chosen id, for hashing only (it may name nothing).
    #[cfg(test)]
    pub(crate) fn with_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("reserved");
        let b = Symbol::intern("reserved");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("alpha-sym-test");
        let b = Symbol::intern("beta-sym-test");
        assert_ne!(a, b);
    }

    #[test]
    fn as_str_round_trips() {
        let a = Symbol::intern("round_trip_me");
        assert_eq!(a.as_str(), "round_trip_me");
    }

    #[test]
    fn display_shows_name() {
        let a = Symbol::intern("shown");
        assert_eq!(a.to_string(), "shown");
        assert_eq!(format!("{a:?}"), "Symbol(\"shown\")");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "from-str".into();
        let b: Symbol = String::from("from-str").into();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_string_interns() {
        let a = Symbol::intern("");
        assert_eq!(a.as_str(), "");
        assert_eq!(a, Symbol::intern(""));
    }
}
