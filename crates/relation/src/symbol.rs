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
use std::sync::{Mutex, MutexGuard, OnceLock};

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

impl Interner {
    fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.by_name.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(self.names.len()).expect("symbol table overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        self.names.push(leaked);
        self.by_name.insert(leaked, id);
        Symbol(id)
    }
}

impl Symbol {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        interner()
            .lock()
            .expect("symbol interner poisoned")
            .intern(name)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        let i = interner().lock().expect("symbol interner poisoned");
        i.names[self.0 as usize]
    }

    /// The interner, locked once for a run of reads and interning (see
    /// [`Names`]).
    pub fn names() -> Names {
        let guard = interner().lock().expect("symbol interner poisoned");
        Names { guard, next: 0 }
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

/// The symbol table held for a run of reads and interning: [`Names::get`]
/// resolves, and [`Names::intern`] interns, any number of symbols under the
/// one lock [`Symbol::names`] took, where each [`Symbol::intern`] and
/// [`Symbol::as_str`] takes it anew. Other threads' interning waits while
/// it is held, and `Symbol::intern` or `as_str` on the holding thread —
/// formatting a `Symbol` with `{}` is one — deadlocks, so hold it across
/// one bounded pass only (a checkpoint section's writing, one block of its
/// reading) and let it go before formatting anything that names a symbol.
pub struct Names {
    guard: MutexGuard<'static, Interner>,
    /// The id after the one [`Names::intern`] last returned.
    next: usize,
}

impl Names {
    /// The interned string.
    pub fn get(&self, symbol: Symbol) -> &'static str {
        self.guard.names[symbol.0 as usize]
    }

    /// [`Symbol::intern`] under the lock already held: the same symbol,
    /// in the same intern order. Strings met in intern order — a
    /// checkpoint's sorted rows — are found by comparing with the one
    /// interned after the last, without hashing.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let symbol = match self.guard.names.get(self.next) {
            Some(&next) if next == name => Symbol(self.next as u32),
            _ => self.guard.intern(name),
        };
        self.next = symbol.0 as usize + 1;
        symbol
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
    fn names_resolve_while_another_thread_interns() {
        let fresh = |i: usize| format!("names-race-{i}");
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            for i in 0..2000 {
                tx.send((i, Symbol::intern(&fresh(i)))).unwrap();
            }
        });
        let mut seen: Vec<Symbol> = Vec::new();
        while let Ok((i, sym)) = rx.recv() {
            assert_eq!(seen.len(), i);
            seen.push(sym);
            if i % 64 == 0 || i == 1999 {
                // One lock for every symbol interned so far.
                let names = Symbol::names();
                for (j, s) in seen.iter().enumerate() {
                    assert_eq!(names.get(*s), fresh(j));
                }
            }
        }
        writer.join().unwrap();
        for (j, s) in seen.iter().enumerate() {
            assert_eq!(Symbol::intern(&fresh(j)), *s, "intern stays idempotent");
            assert_eq!(s.as_str(), fresh(j));
        }
    }

    #[test]
    fn interning_under_a_held_lock_agrees_with_intern() {
        let before = Symbol::intern("held-lock-old");
        let (old, fresh, again) = {
            let mut names = Symbol::names();
            let old = names.intern("held-lock-old");
            let fresh = names.intern("held-lock-fresh");
            (old, fresh, names.intern("held-lock-fresh"))
        };
        assert_eq!(old, before);
        assert_eq!(fresh, again);
        assert!(fresh > before, "intern order is id order");
        assert_eq!(Symbol::intern("held-lock-fresh"), fresh);
        assert_eq!(fresh.as_str(), "held-lock-fresh");
        // Met again in intern order, out of it, and with repeats: the
        // look-ahead past the last symbol never changes the answer.
        let words: Vec<String> = (0..6).map(|i| format!("held-lock-run-{i}")).collect();
        let ids: Vec<Symbol> = words.iter().map(|w| Symbol::intern(w)).collect();
        let mut names = Symbol::names();
        for order in [[0, 1, 2, 3, 4, 5], [5, 4, 0, 1, 1, 3], [2, 3, 3, 4, 0, 5]] {
            for i in order {
                assert_eq!(names.intern(&words[i]), ids[i], "{}", words[i]);
            }
        }
        assert_eq!(
            names.intern("held-lock-run-6"),
            names.intern("held-lock-run-6")
        );
    }

    #[test]
    fn empty_string_interns() {
        let a = Symbol::intern("");
        assert_eq!(a.as_str(), "");
        assert_eq!(a, Symbol::intern(""));
    }
}
