//! # rtic-relation — relational storage substrate
//!
//! The in-memory relational engine that [`rtic`](https://example.org/rtic)
//! database histories range over. It provides:
//!
//! * interned [`Symbol`]s for names and string data,
//! * the one [`Lexer`] for value literals, which logs and checkpoints read,
//! * sorted [`Value`]s and schema-checked [`Tuple`]s,
//! * [`Schema`]/[`Attribute`] metadata that checks tuples,
//! * [`Relation`] instances: one versioned, `Arc`'d hash set each, which a
//!   reader can hold in O(1) while later changes copy on write,
//! * [`Database`] states over a shared immutable [`Catalog`], advanced by
//!   transactional [`Update`]s, each recording its net [`RelDelta`].
//!
//! Catalogs and updates iterate in name order; relations iterate in hash
//! order, which differs between processes, so everything printed or
//! persisted goes through [`Relation::sorted`]. Determinism of output is
//! load-bearing — checker traces, experiment tables and golden tests all
//! rely on it.
//!
//! ```
//! use rtic_relation::{tuple, Catalog, Database, Schema, Sort, Symbol, Update};
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(
//!     Catalog::new()
//!         .with("reserved", Schema::of(&[("passenger", Sort::Str), ("flight", Sort::Int)]))
//!         .unwrap(),
//! );
//! let mut db = Database::new(catalog);
//! db.apply(&Update::new().with_insert("reserved", tuple!["ann", 17])).unwrap();
//! assert!(db.relation(Symbol::intern("reserved")).unwrap().contains(&tuple!["ann", 17]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod error;
mod hash;
mod lex;
mod relation;
mod schema;
mod symbol;
mod tuple;
mod value;

pub use database::{Catalog, Database, RelDelta, Update};
pub use error::RelationError;
pub use hash::{BuildWordHasher, FastMap, FastSet, TupleMap, TupleSet, WordHasher};
pub use lex::{LexError, Lexer};
pub use relation::{fresh_version, Relation};
pub use schema::{Attribute, Schema};
pub use symbol::{Names, Symbol};
pub use tuple::Tuple;
pub use value::{push_decimal, Sort, Value};
