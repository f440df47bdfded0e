//! Databases: catalogs of named relations, plus transactional updates.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::error::RelationError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::symbol::Symbol;
use crate::tuple::Tuple;
use crate::value::Value;

/// A database catalog: the fixed set of relation names and their schemas.
///
/// Catalogs are immutable once built and shared (`Arc`) by every state of a
/// history, so cloning a [`Database`] clones tuples but not schemas.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Catalog {
    schemas: BTreeMap<Symbol, Schema>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Declares a relation; rejects duplicates.
    pub fn declare(
        &mut self,
        name: impl Into<Symbol>,
        schema: Schema,
    ) -> Result<(), RelationError> {
        let name = name.into();
        if self.schemas.contains_key(&name) {
            return Err(RelationError::DuplicateRelation { name });
        }
        self.schemas.insert(name, schema);
        Ok(())
    }

    /// Builder-style [`Catalog::declare`].
    pub fn with(
        mut self,
        name: impl Into<Symbol>,
        schema: Schema,
    ) -> Result<Catalog, RelationError> {
        self.declare(name, schema)?;
        Ok(self)
    }

    /// Merges `other`'s declarations into `self`. A relation declared on
    /// both sides is fine when the schemas agree exactly; a redeclaration
    /// with a different schema is a [`RelationError::DuplicateRelation`].
    pub fn try_merge(&mut self, other: &Catalog) -> Result<(), RelationError> {
        for (name, schema) in &other.schemas {
            match self.schemas.get(name) {
                Some(existing) if existing == schema => {}
                Some(_) => return Err(RelationError::DuplicateRelation { name: *name }),
                None => {
                    self.schemas.insert(*name, schema.clone());
                }
            }
        }
        Ok(())
    }

    /// The schema of `name`, if declared.
    pub fn schema_of(&self, name: Symbol) -> Option<&Schema> {
        self.schemas.get(&name)
    }

    /// All declared relation names, in deterministic order.
    pub fn names(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.schemas.keys().copied()
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }
}

/// The net tuple-level change the most recent [`Database::apply`] made to
/// one relation: events in application order, `true` for an insertion that
/// actually added the tuple, `false` for a deletion that actually removed
/// it. No-op operations (deleting an absent tuple, inserting a present one)
/// produce no event, so replaying the events against the previous contents
/// reproduces the current contents exactly.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RelDelta {
    /// The relation's [`Database::rel_gen`] after this change.
    pub generation: u64,
    /// Tuple events in application order: `(tuple, added)`.
    pub events: Vec<(Tuple, bool)>,
}

/// A database state: one instance per catalogued relation.
#[derive(Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    relations: BTreeMap<Symbol, Relation>,
    id: u64,
    /// Per-relation generation counters, bumped only when a relation's
    /// contents actually change. Missing entries mean generation 0.
    rel_gens: BTreeMap<Symbol, u64>,
    /// The most recent actual delta per relation, for incremental cache
    /// refresh. Cleared for a relation whenever its contents change through
    /// a path that cannot describe the change (`relation_mut`).
    rel_deltas: BTreeMap<Symbol, RelDelta>,
}

fn fresh_db_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Clone for Database {
    fn clone(&self) -> Database {
        // A clone can be mutated independently of the original, so it gets
        // its own identity: a cache entry keyed on (instance id, relation
        // generations) never matches two databases.
        Database {
            catalog: Arc::clone(&self.catalog),
            relations: self.relations.clone(),
            id: fresh_db_id(),
            rel_gens: BTreeMap::new(),
            rel_deltas: BTreeMap::new(),
        }
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.catalog == other.catalog && self.relations == other.relations
    }
}

impl Eq for Database {}

impl Database {
    /// An empty database over `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Database {
        let relations = catalog
            .names()
            .map(|n| {
                let schema = catalog
                    .schema_of(n)
                    .expect("name comes from catalog")
                    .clone();
                (n, Relation::new(schema))
            })
            .collect();
        Database {
            catalog,
            relations,
            id: fresh_db_id(),
            rel_gens: BTreeMap::new(),
            rel_deltas: BTreeMap::new(),
        }
    }

    /// The unique identity of this instance: every database — including
    /// every clone — has its own, so evaluation caches can key on it plus
    /// [`Database::rel_gen`] instead of hashing tuples.
    pub fn instance_id(&self) -> u64 {
        self.id
    }

    /// Per-relation generation: bumped only when `name`'s contents actually
    /// change (no-op inserts/deletes leave it alone). Unknown relations
    /// report generation 0. Together with [`Database::instance_id`] this is
    /// the cache key: a cached result that reads only relations whose
    /// generations are unchanged is still valid.
    pub fn rel_gen(&self, name: Symbol) -> u64 {
        self.rel_gens.get(&name).copied().unwrap_or(0)
    }

    /// The actual tuple delta of the most recent [`Database::apply`] that
    /// changed `name`, if still known. `delta.generation == rel_gen(name)`
    /// and replaying `delta.events` against the relation's contents at
    /// generation `rel_gen(name) - 1` reproduces its current contents.
    pub fn rel_delta(&self, name: Symbol) -> Option<&RelDelta> {
        self.rel_deltas.get(&name)
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The instance of `name`.
    pub fn relation(&self, name: Symbol) -> Result<&Relation, RelationError> {
        self.relations
            .get(&name)
            .ok_or(RelationError::UnknownRelation { name })
    }

    /// Mutable instance of `name`. Conservatively advances the relation's
    /// generation: handing out `&mut` counts as a mutation.
    pub fn relation_mut(&mut self, name: Symbol) -> Result<&mut Relation, RelationError> {
        // Whatever the caller does through `&mut` is invisible to us, so the
        // per-relation generation moves and any recorded delta is dropped.
        *self.rel_gens.entry(name).or_insert(0) += 1;
        self.rel_deltas.remove(&name);
        self.relations
            .get_mut(&name)
            .ok_or(RelationError::UnknownRelation { name })
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The active domain: every value occurring in any tuple of any
    /// relation, in deterministic order.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for rel in self.relations.values() {
            for t in rel.iter() {
                dom.extend(t.values().iter().copied());
            }
        }
        dom
    }

    /// Applies `update` transactionally: every referenced relation must
    /// exist and every inserted tuple must conform before anything changes.
    ///
    /// Deletions are applied before insertions, so a tuple both deleted and
    /// inserted in the same update ends up present. Deleting an absent tuple
    /// or inserting a present one is a no-op (set semantics).
    pub fn apply(&mut self, update: &Update) -> Result<(), RelationError> {
        // Validate first — no partial application on error.
        for (name, tuples) in &update.inserts {
            let rel = self.relation(*name)?;
            for t in tuples {
                rel.schema().check(t)?;
            }
        }
        for name in update.deletes.keys() {
            self.relation(*name)?;
        }
        // Record, per relation, the tuple events that actually changed
        // contents (set semantics: no-op deletes/inserts record nothing).
        let mut events: BTreeMap<Symbol, Vec<(Tuple, bool)>> = BTreeMap::new();
        for (name, tuples) in &update.deletes {
            let rel = self.relations.get_mut(name).expect("validated above");
            for t in tuples {
                if rel.remove(t) {
                    events.entry(*name).or_default().push((t.clone(), false));
                }
            }
        }
        for (name, tuples) in &update.inserts {
            let rel = self.relations.get_mut(name).expect("validated above");
            let new = rel.insert_checked(tuples);
            if !new.is_empty() {
                let new = new.into_iter().map(|t| (t, true));
                events.entry(*name).or_default().extend(new);
            }
        }
        for (name, events) in events {
            let generation = self.rel_gens.entry(name).or_insert(0);
            *generation += 1;
            self.rel_deltas.insert(
                name,
                RelDelta {
                    generation: *generation,
                    events,
                },
            );
        }
        Ok(())
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name}{} = {rel}", rel.schema())?;
        }
        Ok(())
    }
}

/// A transactional update: sets of tuples to delete and insert, per relation.
///
/// This is the unit in which a history advances: one update plus one
/// timestamp produces the next database state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Update {
    inserts: BTreeMap<Symbol, BTreeSet<Tuple>>,
    deletes: BTreeMap<Symbol, BTreeSet<Tuple>>,
}

impl Update {
    /// An empty update (a pure clock tick).
    pub fn new() -> Update {
        Update::default()
    }

    /// Whether the update changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.values().all(BTreeSet::is_empty)
            && self.deletes.values().all(BTreeSet::is_empty)
    }

    /// Records an insertion.
    pub fn insert(&mut self, relation: impl Into<Symbol>, tuple: Tuple) -> &mut Update {
        self.inserts
            .entry(relation.into())
            .or_default()
            .insert(tuple);
        self
    }

    /// Records a deletion.
    pub fn delete(&mut self, relation: impl Into<Symbol>, tuple: Tuple) -> &mut Update {
        self.deletes
            .entry(relation.into())
            .or_default()
            .insert(tuple);
        self
    }

    /// Records a run of insertions (`insert = true`) or deletions into one
    /// relation. A run into a still-empty set is built in one pass instead
    /// of tuple by tuple — how a log line that loads a table arrives.
    pub fn extend(
        &mut self,
        insert: bool,
        relation: impl Into<Symbol>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) {
        let side = if insert {
            &mut self.inserts
        } else {
            &mut self.deletes
        };
        let set = side.entry(relation.into()).or_default();
        if set.is_empty() {
            *set = tuples.into_iter().collect();
        } else {
            set.extend(tuples);
        }
    }

    /// Builder-style [`Update::insert`].
    pub fn with_insert(mut self, relation: impl Into<Symbol>, tuple: Tuple) -> Update {
        self.insert(relation, tuple);
        self
    }

    /// Builder-style [`Update::delete`].
    pub fn with_delete(mut self, relation: impl Into<Symbol>, tuple: Tuple) -> Update {
        self.delete(relation, tuple);
        self
    }

    /// Insertions, per relation, in deterministic order.
    pub fn inserts(&self) -> impl Iterator<Item = (Symbol, &BTreeSet<Tuple>)> {
        self.inserts.iter().map(|(n, s)| (*n, s))
    }

    /// Deletions, per relation, in deterministic order.
    pub fn deletes(&self) -> impl Iterator<Item = (Symbol, &BTreeSet<Tuple>)> {
        self.deletes.iter().map(|(n, s)| (*n, s))
    }

    /// Total number of tuple insertions and deletions recorded.
    pub fn len(&self) -> usize {
        self.inserts.values().map(BTreeSet::len).sum::<usize>()
            + self.deletes.values().map(BTreeSet::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Sort;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("r", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("s", Schema::of(&[("n", Sort::Int), ("x", Sort::Str)]))
                .unwrap(),
        )
    }

    #[test]
    fn catalog_rejects_duplicates() {
        let mut c = Catalog::new();
        c.declare("r", Schema::empty()).unwrap();
        assert!(matches!(
            c.declare("r", Schema::empty()),
            Err(RelationError::DuplicateRelation { .. })
        ));
    }

    #[test]
    fn new_database_has_all_empty_relations() {
        let db = Database::new(catalog());
        assert!(db.relation(Symbol::intern("r")).unwrap().is_empty());
        assert!(db.relation(Symbol::intern("s")).unwrap().is_empty());
        assert!(db.relation(Symbol::intern("zzz")).is_err());
    }

    #[test]
    fn apply_inserts_and_deletes() {
        let mut db = Database::new(catalog());
        db.apply(
            &Update::new()
                .with_insert("r", tuple!["a"])
                .with_insert("r", tuple!["b"]),
        )
        .unwrap();
        assert_eq!(db.relation(Symbol::intern("r")).unwrap().len(), 2);
        db.apply(&Update::new().with_delete("r", tuple!["a"]))
            .unwrap();
        assert_eq!(db.relation(Symbol::intern("r")).unwrap().len(), 1);
    }

    #[test]
    fn delete_then_insert_in_same_update_keeps_tuple() {
        let mut db = Database::new(catalog());
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        db.apply(
            &Update::new()
                .with_delete("r", tuple!["a"])
                .with_insert("r", tuple!["a"]),
        )
        .unwrap();
        assert!(db
            .relation(Symbol::intern("r"))
            .unwrap()
            .contains(&tuple!["a"]));
    }

    #[test]
    fn apply_is_atomic_on_error() {
        let mut db = Database::new(catalog());
        let bad = Update::new()
            .with_insert("r", tuple!["ok"])
            .with_insert("s", tuple!["wrong-sort"]);
        assert!(db.apply(&bad).is_err());
        assert!(
            db.relation(Symbol::intern("r")).unwrap().is_empty(),
            "nothing applied"
        );
    }

    #[test]
    fn apply_rejects_unknown_relation() {
        let mut db = Database::new(catalog());
        assert!(db
            .apply(&Update::new().with_insert("nope", tuple!["a"]))
            .is_err());
        assert!(db
            .apply(&Update::new().with_delete("nope", tuple!["a"]))
            .is_err());
    }

    #[test]
    fn active_domain_collects_all_values() {
        let mut db = Database::new(catalog());
        db.apply(
            &Update::new()
                .with_insert("r", tuple!["a"])
                .with_insert("s", tuple![3, "b"]),
        )
        .unwrap();
        let dom = db.active_domain();
        assert!(dom.contains(&Value::str("a")));
        assert!(dom.contains(&Value::str("b")));
        assert!(dom.contains(&Value::Int(3)));
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn update_len_and_is_empty() {
        let u = Update::new();
        assert!(u.is_empty());
        let u = u
            .with_insert("r", tuple!["a"])
            .with_delete("r", tuple!["b"]);
        assert!(!u.is_empty());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn rel_gen_moves_only_on_actual_change() {
        let mut db = Database::new(catalog());
        let r = Symbol::intern("r");
        let s = Symbol::intern("s");
        assert_eq!(db.rel_gen(r), 0);

        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        assert_eq!(db.rel_gen(r), 1);
        assert_eq!(db.rel_gen(s), 0, "untouched relation keeps its stamp");

        // Re-inserting a present tuple is a set-semantics no-op.
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        assert_eq!(db.rel_gen(r), 1);

        db.apply(&Update::new().with_delete("r", tuple!["missing"]))
            .unwrap();
        assert_eq!(db.rel_gen(r), 1, "deleting an absent tuple is a no-op");
    }

    #[test]
    fn rel_delta_replays_to_current_contents() {
        let mut db = Database::new(catalog());
        let r = Symbol::intern("r");
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        db.apply(
            &Update::new()
                .with_delete("r", tuple!["a"])
                .with_insert("r", tuple!["a"])
                .with_insert("r", tuple!["b"]),
        )
        .unwrap();
        let delta = db.rel_delta(r).unwrap();
        assert_eq!(delta.generation, db.rel_gen(r));
        // Replay events against the prior contents {a}.
        let mut replay: BTreeSet<Tuple> = [tuple!["a"]].into_iter().collect();
        for (t, added) in &delta.events {
            if *added {
                replay.insert(t.clone());
            } else {
                replay.remove(t);
            }
        }
        let now: BTreeSet<Tuple> = db.relation(r).unwrap().iter().cloned().collect();
        assert_eq!(replay, now);
    }

    #[test]
    fn a_run_is_the_same_update_as_its_tuples_one_by_one() {
        let rows = |ks: &[i64]| -> Vec<Tuple> { ks.iter().map(|&k| tuple![k, "x"]).collect() };
        let mut by_run = Update::new();
        let mut one_by_one = Update::new();
        // Unsorted, with a repeat; a second run lands in a non-empty set.
        for (insert, ks) in [
            (true, &[3, 1, 2, 1][..]),
            (false, &[9, 7]),
            (true, &[0, 2, 5]),
            (false, &[]),
        ] {
            by_run.extend(insert, "s", rows(ks));
            for t in rows(ks) {
                if insert {
                    one_by_one.insert("s", t);
                } else {
                    one_by_one.delete("s", t);
                }
            }
        }
        assert_eq!(by_run.len(), 7);
        assert_eq!(
            by_run.inserts().collect::<Vec<_>>(),
            one_by_one.inserts().collect::<Vec<_>>()
        );
        assert_eq!(
            by_run.deletes().collect::<Vec<_>>(),
            one_by_one.deletes().collect::<Vec<_>>()
        );
    }

    #[test]
    fn loading_an_empty_relation_whole_records_what_growing_it_would() {
        let rows: Vec<Tuple> = (0..40).map(|k| tuple![k, "x"]).collect();
        let s = Symbol::intern("s");
        let mut load = Update::new();
        load.extend(true, s, rows.iter().cloned());
        // `whole` takes the set in one piece; `grown` is not empty when the
        // same rows arrive, so they go in one at a time.
        let mut whole = Database::new(catalog());
        let mut grown = Database::new(catalog());
        grown
            .apply(&Update::new().with_insert(s, tuple![-1, "x"]))
            .unwrap();
        whole.apply(&load).unwrap();
        grown.apply(&load).unwrap();
        assert_eq!(whole.rel_gen(s), 1);
        assert_eq!(
            whole.rel_delta(s).unwrap().events,
            grown.rel_delta(s).unwrap().events
        );
        let contents = |db: &Database| db.relation(s).unwrap().iter().cloned().collect::<Vec<_>>();
        assert_eq!(contents(&whole), rows);
        assert_eq!(contents(&grown)[1..], rows);
        // Loading again changes nothing and records nothing.
        whole.apply(&load).unwrap();
        assert_eq!(whole.rel_gen(s), 1);
    }

    #[test]
    fn relation_mut_bumps_rel_gen_and_drops_delta() {
        let mut db = Database::new(catalog());
        let r = Symbol::intern("r");
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        assert!(db.rel_delta(r).is_some());
        let g = db.rel_gen(r);
        db.relation_mut(r).unwrap();
        assert_eq!(db.rel_gen(r), g + 1);
        assert!(db.rel_delta(r).is_none(), "opaque mutation drops the delta");
    }

    #[test]
    fn clone_resets_per_relation_stamps() {
        let mut db = Database::new(catalog());
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        let db2 = db.clone();
        assert_ne!(db2.instance_id(), db.instance_id());
        assert_eq!(db2.rel_gen(Symbol::intern("r")), 0);
        assert!(db2.rel_delta(Symbol::intern("r")).is_none());
    }

    #[test]
    fn states_share_catalog() {
        let db = Database::new(catalog());
        let db2 = db.clone();
        assert!(Arc::ptr_eq(db.catalog(), db2.catalog()));
    }

    #[test]
    fn try_merge_unions_and_tolerates_identical_redeclarations() {
        let mut a = Catalog::new()
            .with("r", Schema::of(&[("x", Sort::Str)]))
            .unwrap();
        let b = Catalog::new()
            .with("r", Schema::of(&[("x", Sort::Str)]))
            .unwrap()
            .with("s", Schema::of(&[("n", Sort::Int)]))
            .unwrap();
        a.try_merge(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.schema_of("s".into()).is_some());
    }

    #[test]
    fn try_merge_rejects_conflicting_schemas() {
        let mut a = Catalog::new()
            .with("r", Schema::of(&[("x", Sort::Str)]))
            .unwrap();
        let b = Catalog::new()
            .with("r", Schema::of(&[("x", Sort::Int)]))
            .unwrap();
        let err = a.try_merge(&b).unwrap_err();
        assert!(matches!(err, RelationError::DuplicateRelation { .. }));
    }
}
