//! Tuples: fixed-arity sequences of values.

use std::fmt;
use std::ops::Index;

use smallvec::SmallVec;

use crate::value::Value;

/// Tuples up to this arity are stored inline, with no heap allocation.
const INLINE_ARITY: usize = 4;

/// A database tuple.
///
/// Tuples are immutable once constructed; the storage layer clones them
/// freely ([`Value`] is `Copy`, so a clone of a small tuple is a plain
/// memcpy). Tuples of arity ≤ 4 — the overwhelming majority in practice —
/// live entirely inline; wider tuples spill to a boxed slice. The inline
/// representation never leaks into semantics: equality, ordering and
/// hashing are exactly those of the underlying value slice.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tuple(SmallVec<Value, INLINE_ARITY>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Tuple {
        Tuple(values.into_iter().collect())
    }

    /// The empty tuple (arity 0).
    pub fn empty() -> Tuple {
        Tuple(SmallVec::new())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field accessor; `None` when out of range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// All fields, in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// A new tuple containing the fields at `positions`, in that order.
    ///
    /// # Panics
    /// Panics if any position is out of range.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&p| self.0[p]).collect())
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Builds a tuple from a heterogeneous list of value-convertible expressions.
///
/// ```
/// use rtic_relation::{tuple, Tuple, Value};
/// let t = tuple![1, "flight", true];
/// assert_eq!(t.arity(), 3);
/// assert_eq!(t[0], Value::Int(1));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::new([Value::Int(1), Value::str("a")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.get(1), Some(&Value::str("a")));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        assert_eq!(t.to_string(), "()");
    }

    #[test]
    fn projection_reorders_and_duplicates() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0, 0]), tuple![30, 10, 10]);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(tuple![1, "a"], tuple![1, "a"]);
        assert_ne!(tuple![1, "a"], tuple!["a", 1]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "jfk", false].to_string(), "(1, jfk, false)");
    }

    #[test]
    fn ord_is_lexicographic_over_fields() {
        assert!(tuple![1, 2] < tuple![1, 3]);
        assert!(tuple![1] < tuple![1, 0], "shorter prefix sorts first");
    }

    #[test]
    fn small_tuples_are_stored_inline() {
        assert!(tuple![1, 2, 3, 4].0.is_inline());
        let wide = tuple![1, 2, 3, 4, 5];
        assert!(!wide.0.is_inline());
        assert_eq!(wide.arity(), 5);
        // Representation must not affect equality across the boundary.
        assert_eq!(wide.project(&[0, 1]), tuple![1, 2]);
    }
}
