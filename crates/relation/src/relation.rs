//! Relations: schema-checked sets of tuples, with cached hash indexes.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::error::RelationError;
use crate::hash::FastMap;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A hash index on a column subset: key values → matching tuples.
pub type ColumnIndex = FastMap<Vec<Value>, Vec<Tuple>>;

/// A relation instance: a [`Schema`] plus a set of conforming tuples.
///
/// Storage is an ordered set, so iteration order is deterministic (by the
/// derived tuple order) — important for reproducible checker output and for
/// golden tests. All mutating entry points check tuples against the schema.
///
/// Relations lazily cache hash indexes per column subset
/// ([`Relation::index_on`]); any mutation invalidates the cache. Equality,
/// ordering and cloning see only the logical content.
#[derive(Debug)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
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
            tuples: self.tuples.clone(),
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
            tuples: BTreeSet::new(),
            indexes: Mutex::default(),
        }
    }

    fn invalidate_indexes(&mut self) {
        self.indexes.get_mut().expect("index lock poisoned").clear();
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
        for t in &self.tuples {
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
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// This relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
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
        Ok(self.tuples.insert(tuple))
    }

    /// Inserts tuples the caller has schema-checked and returns the ones
    /// that were not present. An empty relation takes the set whole.
    pub(crate) fn insert_checked(&mut self, tuples: &BTreeSet<Tuple>) -> Vec<Tuple> {
        self.invalidate_indexes();
        if self.tuples.is_empty() {
            self.tuples = tuples.clone();
            return tuples.iter().cloned().collect();
        }
        let new = tuples.iter().filter(|t| self.tuples.insert((*t).clone()));
        new.cloned().collect()
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        self.invalidate_indexes();
        self.tuples.remove(tuple)
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        self.invalidate_indexes();
        self.tuples.clear();
    }

    /// Iterates tuples in deterministic (ordered) fashion.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Consumes the relation, yielding its tuples.
    pub fn into_tuples(self) -> impl Iterator<Item = Tuple> {
        self.tuples.into_iter()
    }

    /// Retains only tuples satisfying `pred`.
    pub fn retain(&mut self, mut pred: impl FnMut(&Tuple) -> bool) {
        self.invalidate_indexes();
        self.tuples.retain(|t| pred(t));
    }
}

impl fmt::Display for Relation {
    /// Renders as `{ (a, 1), (b, 2) }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, t) in self.tuples.iter().enumerate() {
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
    type IntoIter = std::collections::btree_set::Iter<'a, Tuple>;
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
        assert!(!r.insert(tuple!["a", 1]).unwrap());
        assert_eq!(r.len(), 1);
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
    }

    #[test]
    fn iteration_is_deterministic_and_ordered() {
        let r = Relation::from_tuples(schema(), [tuple!["b", 2], tuple!["a", 1]]).unwrap();
        let seen: Vec<Tuple> = r.iter().cloned().collect();
        assert_eq!(seen.len(), 2);
        assert!(seen[0] < seen[1]);
    }

    #[test]
    fn retain() {
        let mut r = Relation::from_tuples(schema(), [tuple!["a", 1], tuple!["b", 2]]).unwrap();
        r.retain(|t| t[1] == crate::Value::Int(2));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple!["b", 2]));
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
