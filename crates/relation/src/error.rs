//! Error type for the relational layer.

use std::error::Error;
use std::fmt;

use crate::symbol::Symbol;
use crate::value::Sort;

/// Errors raised by schema checking and database operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RelationError {
    /// A schema was built with two attributes of the same name.
    DuplicateAttribute {
        /// The clashing name.
        name: Symbol,
    },
    /// A tuple's arity differs from its schema's.
    ArityMismatch {
        /// Arity required by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        found: usize,
    },
    /// A tuple field's sort differs from the schema's.
    SortMismatch {
        /// The attribute at the offending position.
        attribute: Symbol,
        /// Sort required by the schema.
        expected: Sort,
        /// Sort of the offending value.
        found: Sort,
    },
    /// A named relation was not found in the database catalog.
    UnknownRelation {
        /// The missing name.
        name: Symbol,
    },
    /// A relation was declared twice in the same catalog.
    DuplicateRelation {
        /// The clashing name.
        name: Symbol,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute name `{name}` in schema")
            }
            RelationError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} attributes, tuple has {found}"
                )
            }
            RelationError::SortMismatch {
                attribute,
                expected,
                found,
            } => write!(
                f,
                "sort mismatch on attribute `{attribute}`: expected {expected}, found {found}"
            ),
            RelationError::UnknownRelation { name } => {
                write!(f, "unknown relation `{name}`")
            }
            RelationError::DuplicateRelation { name } => {
                write!(f, "relation `{name}` already declared")
            }
        }
    }
}

impl Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelationError::SortMismatch {
            attribute: Symbol::intern("flight"),
            expected: Sort::Int,
            found: Sort::Str,
        };
        let msg = e.to_string();
        assert!(msg.contains("flight") && msg.contains("int") && msg.contains("str"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RelationError::UnknownRelation {
            name: Symbol::intern("absent"),
        });
    }
}
