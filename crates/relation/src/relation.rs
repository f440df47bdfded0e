//! Relations: schema-checked, versioned hash sets of tuples — the same
//! `Arc`'d set a row set holds, unordered, sorted only where printed or
//! persisted — with cached hash indexes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::RelationError;
use crate::hash::{FastMap, TupleSet};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A hash index on a column subset: key values → matching tuples.
pub type ColumnIndex = FastMap<Vec<Value>, Vec<Tuple>>;

/// A process-unique row-set version token (never 0). Relations and the
/// evaluator's row sets draw from this one counter, so a row set that *is*
/// a relation's storage carries the relation's token: equal tokens imply
/// equal contents, whoever holds them.
pub fn fresh_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A relation instance: a [`Schema`] plus a set of conforming tuples.
///
/// Storage is the `Arc`'d hash set the evaluator's row sets use, stamped
/// with a [version token](fresh_version) that moves exactly when the
/// contents change: a reader can hold the set itself, in O(1), and a later
/// mutation copies it first rather than change what the reader sees.
/// Iteration is in hash order, which differs between processes — anything
/// printed or persisted goes through [`Relation::sorted`]. All mutating
/// entry points check tuples against the schema.
///
/// Relations lazily cache hash indexes per column subset
/// ([`Relation::index_on`]); any mutation invalidates the cache. Equality
/// sees only the logical content; a clone shares the storage and its
/// version.
#[derive(Debug)]
pub struct Relation {
    schema: Schema,
    tuples: Arc<TupleSet>,
    version: u64,
    /// Lazily built indexes, keyed by the indexed column positions.
    /// `Mutex` (not `RefCell`) keeps `Relation: Sync`; contention is nil —
    /// the engine is single-writer.
    indexes: Mutex<FastMap<Vec<usize>, Arc<ColumnIndex>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        // Indexes are a cache: clones start cold.
        Relation {
            schema: self.schema.clone(),
            tuples: Arc::clone(&self.tuples),
            version: self.version,
            indexes: Mutex::default(),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// An empty relation over `schema`.
    pub fn new(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: Arc::default(),
            version: fresh_version(),
            indexes: Mutex::default(),
        }
    }

    fn invalidate_indexes(&mut self) {
        self.indexes.get_mut().expect("index lock poisoned").clear();
    }

    /// The tuples for in-place mutation, under a fresh version. Storage
    /// another holder still shares is copied first, its rows tallied in
    /// `copied`.
    pub(crate) fn edit(&mut self, copied: &mut u64) -> &mut TupleSet {
        if Arc::get_mut(&mut self.tuples).is_none() {
            *copied += self.tuples.len() as u64;
        }
        self.invalidate_indexes();
        self.version = fresh_version();
        Arc::make_mut(&mut self.tuples)
    }

    /// The (cached) hash index keyed by the values at `cols`. Building is
    /// O(n); subsequent calls with the same columns are O(1) until the
    /// relation mutates.
    ///
    /// # Panics
    /// Panics on out-of-range columns (callers derive them from the
    /// schema).
    pub fn index_on(&self, cols: &[usize]) -> Arc<ColumnIndex> {
        let mut cache = self.indexes.lock().expect("index lock poisoned");
        if let Some(idx) = cache.get(cols) {
            return Arc::clone(idx);
        }
        let mut index = ColumnIndex::default();
        for t in self.tuples.iter() {
            let key: Vec<Value> = cols.iter().map(|&c| t[c]).collect();
            index.entry(key).or_default().push(t.clone());
        }
        let index = Arc::new(index);
        cache.insert(cols.to_vec(), Arc::clone(&index));
        index
    }

    /// A relation over `schema` populated from `tuples`.
    pub fn from_tuples(
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Relation, RelationError> {
        let mut r = Relation::new(schema);
        let set = (tuples.into_iter())
            .map(|t| r.schema.check(&t).map(|()| t))
            .collect::<Result<TupleSet, _>>()?;
        r.tuples = Arc::new(set);
        Ok(r)
    }

    /// This relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The version token of the current contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The tuple storage itself, to share: a holder keeps this version's
    /// contents however the relation changes later.
    pub fn rows(&self) -> &Arc<TupleSet> {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test. The tuple need not conform to the schema; a
    /// non-conforming tuple is simply not a member.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Inserts a tuple after schema-checking it. Returns `true` if the
    /// tuple was not already present.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, RelationError> {
        self.schema.check(&tuple)?;
        self.invalidate_indexes();
        Ok(!self.contains(&tuple) && self.edit(&mut 0).insert(tuple))
    }

    /// Replaces the contents with `rows`, each already checked against the
    /// schema, under one fresh version: a bulk load is one change, not a
    /// version per row.
    pub fn replace(&mut self, rows: TupleSet) {
        debug_assert!(rows.iter().all(|t| self.schema.check(t).is_ok()));
        self.invalidate_indexes();
        self.tuples = Arc::new(rows);
        self.version = fresh_version();
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        self.invalidate_indexes();
        self.contains(tuple) && self.edit(&mut 0).remove(tuple)
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        self.invalidate_indexes();
        if !self.is_empty() {
            self.tuples = Arc::default();
            self.version = fresh_version();
        }
    }

    /// Iterates tuples in hash order (see [`Relation::sorted`]).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The tuples in sorted order: the boundary API for anything printed
    /// or persisted. References, not copies.
    pub fn sorted(&self) -> Vec<&Tuple> {
        let mut rows: Vec<&Tuple> = self.tuples.iter().collect();
        rows.sort_unstable();
        rows
    }

    /// Retains only tuples satisfying `pred`.
    pub fn retain(&mut self, mut pred: impl FnMut(&Tuple) -> bool) {
        self.invalidate_indexes();
        if !self.tuples.iter().all(&mut pred) {
            self.edit(&mut 0).retain(|t| pred(t));
        }
    }
}

impl fmt::Display for Relation {
    /// Renders as `{ (a, 1), (b, 2) }`, sorted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, t) in self.sorted().into_iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, " {t}")?;
        }
        f.write_str(" }")
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::collections::hash_set::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Sort;

    fn schema() -> Schema {
        Schema::of(&[("name", Sort::Str), ("n", Sort::Int)])
    }

    #[test]
    fn insert_checks_schema() {
        let mut r = Relation::new(schema());
        assert!(r.insert(tuple!["a", 1]).unwrap());
        assert!(r.insert(tuple![1, "a"]).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut r = Relation::new(schema());
        assert!(r.insert(tuple!["a", 1]).unwrap());
        let v = r.version();
        assert!(!r.insert(tuple!["a", 1]).unwrap());
        assert_eq!(r.len(), 1);
        assert_eq!(r.version(), v, "a no-op keeps the version");
    }

    #[test]
    fn remove_and_contains() {
        let mut r = Relation::new(schema());
        r.insert(tuple!["a", 1]).unwrap();
        assert!(r.contains(&tuple!["a", 1]));
        assert!(r.remove(&tuple!["a", 1]));
        assert!(!r.remove(&tuple!["a", 1]));
        assert!(r.is_empty());
    }

    #[test]
    fn from_tuples_collects() {
        let r = Relation::from_tuples(schema(), [tuple!["a", 1], tuple!["b", 2]]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(Relation::from_tuples(schema(), [tuple![1, "a"]]).is_err());
    }

    #[test]
    fn sorted_iteration_is_ordered_and_display_follows_it() {
        // (Strings order by intern order: one string keeps this exact.)
        let rows = (0..40).rev().map(|n| tuple!["a", n]);
        let r = Relation::from_tuples(schema(), rows).unwrap();
        let sorted = r.sorted();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let r = Relation::from_tuples(schema(), [tuple!["a", 2], tuple!["a", 1]]).unwrap();
        assert_eq!(r.to_string(), "{ (a, 1), (a, 2) }");
    }

    #[test]
    fn retain() {
        let mut r = Relation::from_tuples(schema(), [tuple!["a", 1], tuple!["b", 2]]).unwrap();
        let v = r.version();
        r.retain(|_| true);
        assert_eq!(r.version(), v, "retaining everything changes nothing");
        r.retain(|t| t[1] == crate::Value::Int(2));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple!["b", 2]));
    }

    #[test]
    fn a_shared_version_survives_the_relation_changing() {
        let mut r = Relation::from_tuples(schema(), [tuple!["a", 1]]).unwrap();
        let (held, v) = (Arc::clone(r.rows()), r.version());
        let mut copied = 0;
        r.edit(&mut copied).insert(tuple!["b", 2]);
        assert_eq!(copied, 1, "the shared storage is copied, and counted");
        assert_ne!(r.version(), v);
        assert_eq!(held.len(), 1, "the holder still reads its version");
        r.edit(&mut copied).insert(tuple!["c", 3]);
        assert_eq!(copied, 1, "unshared storage is edited in place");
    }

    #[test]
    fn index_on_returns_matching_tuples_and_caches() {
        let mut r =
            Relation::from_tuples(schema(), [tuple!["a", 1], tuple!["b", 1], tuple!["a", 2]])
                .unwrap();
        let idx = r.index_on(&[1]);
        assert_eq!(idx[&vec![crate::Value::Int(1)]].len(), 2);
        assert_eq!(idx[&vec![crate::Value::Int(2)]].len(), 1);
        let again = r.index_on(&[1]);
        assert!(Arc::ptr_eq(&idx, &again), "second lookup hits the cache");
        // Mutation invalidates.
        r.insert(tuple!["c", 1]).unwrap();
        let rebuilt = r.index_on(&[1]);
        assert!(!Arc::ptr_eq(&idx, &rebuilt));
        assert_eq!(rebuilt[&vec![crate::Value::Int(1)]].len(), 3);
    }

    #[test]
    fn index_invalidation_across_insert_delete_and_retain() {
        let mut r =
            Relation::from_tuples(schema(), [tuple!["a", 1], tuple!["b", 1], tuple!["a", 2]])
                .unwrap();
        let idx = r.index_on(&[1]);

        // Delete-side invalidation: the cached index is rebuilt and the
        // removed tuple no longer appears under its key.
        assert!(r.remove(&tuple!["b", 1]));
        let after_delete = r.index_on(&[1]);
        assert!(!Arc::ptr_eq(&idx, &after_delete));
        assert_eq!(after_delete[&vec![crate::Value::Int(1)]].len(), 1);

        // Insert-side again after the delete rebuild.
        r.insert(tuple!["c", 1]).unwrap();
        let after_insert = r.index_on(&[1]);
        assert!(!Arc::ptr_eq(&after_delete, &after_insert));
        assert_eq!(after_insert[&vec![crate::Value::Int(1)]].len(), 2);

        // retain() is a bulk delete: also invalidates.
        r.retain(|t| t[1] == crate::Value::Int(2));
        let after_retain = r.index_on(&[1]);
        assert!(!Arc::ptr_eq(&after_insert, &after_retain));
        assert!(!after_retain.contains_key(&vec![crate::Value::Int(1)]));
        assert_eq!(after_retain[&vec![crate::Value::Int(2)]].len(), 1);

        // A no-op remove still conservatively invalidates (cheap and safe).
        let before = r.index_on(&[1]);
        assert!(!r.remove(&tuple!["zzz", 9]));
        assert!(!Arc::ptr_eq(&before, &r.index_on(&[1])));
    }

    #[test]
    fn index_on_empty_columns_groups_everything() {
        let r = Relation::from_tuples(schema(), [tuple!["a", 1], tuple!["b", 2]]).unwrap();
        let idx = r.index_on(&[]);
        assert_eq!(idx[&Vec::new()].len(), 2);
    }

    #[test]
    fn clones_compare_equal_but_have_cold_caches() {
        let r = Relation::from_tuples(schema(), [tuple!["a", 1]]).unwrap();
        let _ = r.index_on(&[0]);
        let c = r.clone();
        assert_eq!(r, c);
        assert_eq!(r.version(), c.version(), "a clone shares its version");
        assert!(c.indexes.lock().unwrap().is_empty());
    }

    #[test]
    fn empty_schema_relation_holds_at_most_unit() {
        let mut r = Relation::new(Schema::empty());
        assert!(r.insert(Tuple::empty()).unwrap());
        assert!(!r.insert(Tuple::empty()).unwrap());
        assert_eq!(r.len(), 1);
    }
}
