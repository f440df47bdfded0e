//! Relation schemas: named, sorted attribute lists.

use std::fmt;

use crate::error::RelationError;
use crate::symbol::Symbol;
use crate::tuple::Tuple;
use crate::value::Sort;

/// A named, typed attribute of a relation schema.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Attribute {
    /// Attribute name (unique within a schema).
    pub name: Symbol,
    /// Attribute sort.
    pub sort: Sort,
}

impl Attribute {
    /// Builds an attribute.
    pub fn new(name: impl Into<Symbol>, sort: Sort) -> Attribute {
        Attribute {
            name: name.into(),
            sort,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.sort)
    }
}

/// The schema of a relation: an ordered list of distinctly-named attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate attribute names.
    pub fn new(attrs: impl IntoIterator<Item = Attribute>) -> Result<Schema, RelationError> {
        let attrs: Vec<Attribute> = attrs.into_iter().collect();
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(RelationError::DuplicateAttribute { name: a.name });
            }
        }
        Ok(Schema { attrs })
    }

    /// Shorthand: a schema from `(name, sort)` pairs.
    pub fn of(pairs: &[(&str, Sort)]) -> Schema {
        Schema::new(pairs.iter().map(|&(n, s)| Attribute::new(n, s)))
            .expect("Schema::of called with duplicate attribute names")
    }

    /// The empty (arity-0) schema.
    pub fn empty() -> Schema {
        Schema { attrs: Vec::new() }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attributes, in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The position of the attribute named `name`, if present.
    pub fn position_of(&self, name: Symbol) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// The sort of the attribute at `pos`.
    pub fn sort_at(&self, pos: usize) -> Option<Sort> {
        self.attrs.get(pos).map(|a| a.sort)
    }

    /// Just the sorts, in order.
    pub fn sorts(&self) -> impl Iterator<Item = Sort> + '_ {
        self.attrs.iter().map(|a| a.sort)
    }

    /// Checks that `tuple` conforms to this schema (arity and sorts).
    pub fn check(&self, tuple: &Tuple) -> Result<(), RelationError> {
        if tuple.arity() != self.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.arity(),
                found: tuple.arity(),
            });
        }
        for (i, a) in self.attrs.iter().enumerate() {
            let found = tuple[i].sort();
            if found != a.sort {
                return Err(RelationError::SortMismatch {
                    attribute: a.name,
                    expected: a.sort,
                    found,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rc() -> Schema {
        Schema::of(&[("passenger", Sort::Str), ("flight", Sort::Int)])
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new([
            Attribute::new("x", Sort::Int),
            Attribute::new("x", Sort::Str),
        ])
        .unwrap_err();
        assert!(matches!(err, RelationError::DuplicateAttribute { .. }));
    }

    #[test]
    fn position_lookup() {
        let s = rc();
        assert_eq!(s.position_of(Symbol::intern("flight")), Some(1));
        assert_eq!(s.position_of(Symbol::intern("absent")), None);
    }

    #[test]
    fn tuple_check_accepts_conforming() {
        rc().check(&tuple!["ann", 7]).unwrap();
    }

    #[test]
    fn tuple_check_rejects_arity() {
        let err = rc().check(&tuple!["ann"]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn tuple_check_rejects_sort() {
        let err = rc().check(&tuple![3, 7]).unwrap_err();
        assert!(matches!(err, RelationError::SortMismatch { .. }));
    }

    #[test]
    fn display() {
        assert_eq!(rc().to_string(), "(passenger: str, flight: int)");
    }
}
