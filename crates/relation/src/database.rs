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
/// history; cloning a [`Database`] shares both schemas and tuples.
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

/// The net change one [`Database::apply`] made to one relation, taking
/// its version `from` to `to`. Both lists are net against the old
/// contents: a tuple deleted and re-inserted by the same update is in
/// neither (and an update that does only that leaves the version alone).
/// Removing `removed` from the contents at `from` and inserting `added`
/// gives the contents at `to`, one set operation per tuple.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RelDelta {
    /// The version before the change.
    pub from: u64,
    /// The version after it.
    pub to: u64,
    /// Tuples in `to` but not in `from`.
    pub added: Vec<Tuple>,
    /// Tuples in `from` but not in `to`.
    pub removed: Vec<Tuple>,
}

/// A database state: one instance per catalogued relation.
///
/// A clone shares every relation's storage and version, so it costs
/// O(relations); whichever side changes a relation later copies it first.
#[derive(Clone, Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    relations: BTreeMap<Symbol, Relation>,
    /// The last net change `apply` made to each relation — current while
    /// its `to` is the relation's version.
    deltas: BTreeMap<Symbol, Arc<RelDelta>>,
    /// Rows `apply` copied because a reader still held the relation.
    rows_copied: u64,
    /// Fault injection: the net delta keeps a deleted-and-re-inserted
    /// tuple in `removed`.
    unnetted_reinsert: bool,
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
            deltas: BTreeMap::new(),
            rows_copied: 0,
            unnetted_reinsert: false,
        }
    }

    /// `name`'s [version token](Relation::version): it moves exactly when
    /// the contents change (no-op inserts and deletes, and a tuple deleted
    /// and re-inserted by one update, leave it alone). Unknown relations
    /// report 0. A cached result that reads only relations whose versions
    /// are unchanged is still valid — in this database or any clone.
    pub fn rel_gen(&self, name: Symbol) -> u64 {
        self.relations.get(&name).map_or(0, Relation::version)
    }

    /// The net change that produced `name`'s current version, when the
    /// last change came through [`Database::apply`].
    pub fn rel_delta(&self, name: Symbol) -> Option<&Arc<RelDelta>> {
        let current = |d: &&Arc<RelDelta>| d.to == self.rel_gen(name);
        self.deltas.get(&name).filter(current)
    }

    /// Rows [`Database::apply`] has copied so far because a reader still
    /// held a relation it changed (a row set taken from
    /// [`Relation::rows`]).
    pub fn rows_copied(&self) -> u64 {
        self.rows_copied
    }

    /// Fault injection for the differential oracle's mutation smoke: from
    /// now on a tuple an update deletes and re-inserts is reported as
    /// removed.
    #[doc(hidden)]
    pub fn arm_unnetted_reinsert(&mut self) {
        self.unnetted_reinsert = true;
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

    /// Mutable instance of `name`. A change made through it moves the
    /// relation's version and records no delta.
    pub fn relation_mut(&mut self, name: Symbol) -> Result<&mut Relation, RelationError> {
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
    /// or inserting a present one is a no-op (set semantics). Each relation
    /// that changed records its net [`RelDelta`]. Each tuple costs about
    /// one hash probe.
    pub fn apply(&mut self, update: &Update) -> Result<(), RelationError> {
        // Validate first — no partial application on error.
        for (name, tuples) in update.inserts() {
            let rel = self.relation(name)?;
            for t in tuples {
                rel.schema().check(t)?;
            }
        }
        for (name, _) in update.deletes() {
            self.relation(name)?;
        }
        let deleted = update
            .deletes()
            .map(|(n, del)| (n, update.inserts.run(n), del));
        let inserted_only = (update.inserts())
            .filter(|&(n, _)| update.deletes.run(n).is_empty())
            .map(|(n, ins)| (n, ins, &[][..]));
        for (name, ins, del) in deleted.chain(inserted_only) {
            let rel = self.relations.get_mut(&name).expect("validated above");
            let from = rel.version();
            let (added, removed) =
                apply_runs(rel, ins, del, self.unnetted_reinsert, &mut self.rows_copied);
            let to = rel.version();
            if to != from {
                let delta = RelDelta {
                    from,
                    to,
                    added,
                    removed,
                };
                self.deltas.insert(name, Arc::new(delta));
            }
        }
        Ok(())
    }
}

/// Deletes `del` from `rel` and inserts `ins`, both sorted runs, under the
/// net-delta rules of [`Database::apply`], and returns what was added and
/// what removed. The tuples before the first change are probed; from there
/// on each is probed by its removal or insertion, so every tuple costs one
/// hash probe, and the version moves only if something changed. `unnetted`
/// is the planted fault: a tuple deleted and re-inserted is reported
/// removed as well.
fn apply_runs(
    rel: &mut Relation,
    ins: &[Tuple],
    del: &[Tuple],
    unnetted: bool,
    copied: &mut u64,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let reinserted = |t: &Tuple| ins.binary_search(t).is_ok();
    let first_del = (del.iter()).position(|t| (unnetted || !reinserted(t)) && rel.contains(t));
    let first_ins = ins.iter().position(|t| !rel.contains(t));
    if first_del.is_none() && first_ins.is_none() {
        return (Vec::new(), Vec::new());
    }
    let set = rel.edit(copied);
    let deleting = &del[first_del.unwrap_or(del.len())..];
    let inserting = &ins[first_ins.unwrap_or(ins.len())..];
    let (mut removed, mut again) = (Vec::with_capacity(deleting.len()), Vec::new());
    for t in deleting {
        if !reinserted(t) {
            if set.remove(t) {
                removed.push(t.clone());
            }
        } else if unnetted && set.contains(t) {
            again.push(t.clone());
        }
    }
    removed.append(&mut again);
    set.reserve(inserting.len());
    let mut added = Vec::with_capacity(inserting.len());
    for t in inserting {
        if set.insert(t.clone()) {
            added.push(t.clone());
        }
    }
    (added, removed)
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name}{} = {rel}", rel.schema())?;
        }
        Ok(())
    }
}

/// A transactional update: tuples to delete and insert, per relation.
///
/// This is the unit in which a history advances: one update plus one
/// timestamp produces the next database state. Each side holds, per
/// relation, one run of tuples that is sorted and free of repeats, the
/// runs in name order. Tuples that arrive in order are appended to their
/// relation's run, and a run is sorted only when one arrives out of order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Update {
    inserts: Runs,
    deletes: Runs,
}

/// One side of an [`Update`]: each relation with a non-empty run, in name
/// order, and its run, sorted and free of repeats.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Runs(Vec<(Symbol, Vec<Tuple>)>);

impl Runs {
    fn iter(&self) -> impl Iterator<Item = (Symbol, &[Tuple])> {
        self.0.iter().map(|(rel, run)| (*rel, &run[..]))
    }

    /// `relation`'s run; empty when it has none.
    fn run(&self, relation: Symbol) -> &[Tuple] {
        match self.0.binary_search_by_key(&relation, |(r, _)| *r) {
            Ok(at) => &self.0[at].1,
            Err(_) => &[],
        }
    }

    /// Appends `tuples` to `relation`'s run, and sorts the run only if one
    /// of them arrived before its predecessor.
    fn add(&mut self, relation: Symbol, tuples: impl IntoIterator<Item = Tuple>) {
        let at = match self.0.binary_search_by_key(&relation, |(r, _)| *r) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (relation, Vec::new()));
                at
            }
        };
        let run = &mut self.0[at].1;
        let old = run.len();
        run.extend(tuples);
        if !run[old.saturating_sub(1)..].is_sorted_by(|a, b| a < b) {
            run.sort();
            run.dedup();
        }
        if run.is_empty() {
            self.0.remove(at);
        }
    }

    fn len(&self) -> usize {
        self.0.iter().map(|(_, run)| run.len()).sum()
    }
}

impl Update {
    /// An empty update (a pure clock tick).
    pub fn new() -> Update {
        Update::default()
    }

    /// Whether the update changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.0.is_empty() && self.deletes.0.is_empty()
    }

    /// Records an insertion.
    pub fn insert(&mut self, relation: impl Into<Symbol>, tuple: Tuple) -> &mut Update {
        self.inserts.add(relation.into(), std::iter::once(tuple));
        self
    }

    /// Records a deletion.
    pub fn delete(&mut self, relation: impl Into<Symbol>, tuple: Tuple) -> &mut Update {
        self.deletes.add(relation.into(), std::iter::once(tuple));
        self
    }

    /// Records a run of insertions (`insert = true`) or deletions into one
    /// relation: the tuples are appended to the relation's run, which is
    /// sorted once, at the end, only if one of them arrived out of order.
    /// How a log line hands over each run of changes with one sign and one
    /// relation.
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
        side.add(relation.into(), tuples);
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

    /// Insertions: each relation's sorted run, in name order.
    pub fn inserts(&self) -> impl Iterator<Item = (Symbol, &[Tuple])> {
        self.inserts.iter()
    }

    /// Deletions: each relation's sorted run, in name order.
    pub fn deletes(&self) -> impl Iterator<Item = (Symbol, &[Tuple])> {
        self.deletes.iter()
    }

    /// Total number of tuple insertions and deletions recorded.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
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
        let (r0, s0) = (db.rel_gen(r), db.rel_gen(s));
        assert_ne!(r0, s0, "every relation has its own token");

        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        let r1 = db.rel_gen(r);
        assert_ne!(r1, r0);
        assert_eq!(db.rel_gen(s), s0, "untouched relation keeps its stamp");

        // Re-inserting a present tuple is a set-semantics no-op.
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        assert_eq!(db.rel_gen(r), r1);

        db.apply(&Update::new().with_delete("r", tuple!["missing"]))
            .unwrap();
        assert_eq!(db.rel_gen(r), r1, "deleting an absent tuple is a no-op");
        // Both in one update: still no change, and no delta recorded.
        let delta = db.rel_delta(r).cloned();
        let both = Update::new()
            .with_delete("r", tuple!["missing"])
            .with_insert("r", tuple!["a"]);
        db.apply(&both).unwrap();
        assert_eq!((db.rel_gen(r), db.rel_delta(r).cloned()), (r1, delta));
        assert_eq!(db.rel_gen(Symbol::intern("zzz")), 0);
    }

    #[test]
    fn a_tuple_deleted_and_reinserted_by_one_update_is_not_a_change() {
        let mut db = Database::new(catalog());
        let r = Symbol::intern("r");
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        let (gen, delta) = (db.rel_gen(r), db.rel_delta(r).cloned());
        let again = Update::new()
            .with_delete("r", tuple!["a"])
            .with_insert("r", tuple!["a"]);
        db.apply(&again).unwrap();
        assert_eq!(db.rel_gen(r), gen);
        assert_eq!(db.rel_delta(r).cloned(), delta, "nothing recorded");
        // Beside a real change, it is in neither list.
        db.apply(&again.clone().with_insert("r", tuple!["b"]))
            .unwrap();
        let delta = db.rel_delta(r).unwrap();
        assert_eq!(
            (delta.added.clone(), delta.removed.len()),
            (vec![tuple!["b"]], 0)
        );
        // The planted bug reports it removed, and still leaves it present.
        db.arm_unnetted_reinsert();
        db.apply(&again).unwrap();
        assert_eq!(db.rel_delta(r).unwrap().removed, [tuple!["a"]]);
        assert!(db.relation(r).unwrap().contains(&tuple!["a"]));
    }

    #[test]
    fn rel_delta_replays_to_current_contents() {
        let mut db = Database::new(catalog());
        let r = Symbol::intern("r");
        db.apply(
            &Update::new()
                .with_insert("r", tuple!["a"])
                .with_insert("r", tuple!["c"]),
        )
        .unwrap();
        let before = db.relation(r).unwrap().clone();
        db.apply(
            &Update::new()
                .with_delete("r", tuple!["a"])
                .with_insert("r", tuple!["a"])
                .with_delete("r", tuple!["c"])
                .with_insert("r", tuple!["b"]),
        )
        .unwrap();
        let delta = db.rel_delta(r).unwrap();
        assert_eq!((delta.from, delta.to), (before.version(), db.rel_gen(r)));
        assert_eq!(
            (&delta.added[..], &delta.removed[..]),
            (&[tuple!["b"]][..], &[tuple!["c"]][..])
        );
        // Replay the net lists against the prior contents {a, c}.
        let mut replay: BTreeSet<Tuple> = before.iter().cloned().collect();
        for t in &delta.removed {
            assert!(replay.remove(t), "removed tuples were present");
        }
        for t in &delta.added {
            assert!(replay.insert(t.clone()), "added tuples were absent");
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
        // `whole` is empty when the rows arrive; `grown` is not.
        let mut whole = Database::new(catalog());
        let mut grown = Database::new(catalog());
        grown
            .apply(&Update::new().with_insert(s, tuple![-1, "x"]))
            .unwrap();
        whole.apply(&load).unwrap();
        grown.apply(&load).unwrap();
        assert_eq!(whole.rel_delta(s).unwrap().added, rows);
        assert_eq!(
            whole.rel_delta(s).unwrap().added,
            grown.rel_delta(s).unwrap().added
        );
        let contents = |db: &Database| {
            db.relation(s)
                .unwrap()
                .sorted()
                .into_iter()
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(contents(&whole), rows);
        assert_eq!(contents(&grown)[1..], rows);
        // Loading again changes nothing and records nothing.
        let (gen, delta) = (whole.rel_gen(s), whole.rel_delta(s).cloned());
        whole.apply(&load).unwrap();
        assert_eq!(
            (whole.rel_gen(s), whole.rel_delta(s).cloned()),
            (gen, delta)
        );
    }

    #[test]
    fn each_relation_is_one_sorted_run_however_its_tuples_arrive() {
        let (r, s) = (Symbol::intern("r"), Symbol::intern("s"));
        let (lo, hi) = (r.min(s), r.max(s));
        let t = |k: i64| tuple![k];
        let mut u = Update::new();
        u.extend(true, hi, [t(5), t(1)]); // out of order
        u.extend(true, lo, [t(2), t(2)]); // a repeat, in front of `hi`'s run
        u.extend(true, hi, [t(3), t(1)]); // `hi` split over two runs
        u.extend(true, lo, [t(0)]); // out of order, in front of `hi`'s run
        u.extend(true, lo, []);
        assert_eq!(u.len(), 5);
        let (lo_run, hi_run) = ([t(0), t(2)], [t(1), t(3), t(5)]);
        let runs: Vec<(Symbol, &[Tuple])> = vec![(lo, &lo_run), (hi, &hi_run)];
        assert_eq!(u.inserts().collect::<Vec<_>>(), runs);
        assert_eq!(u.deletes().count(), 0, "an empty run records nothing");
        let mut one_by_one = Update::new();
        for (rel, k) in [
            (hi, 5),
            (hi, 1),
            (lo, 2),
            (lo, 2),
            (hi, 3),
            (hi, 1),
            (lo, 0),
        ] {
            one_by_one.insert(rel, t(k));
        }
        assert_eq!(u, one_by_one);
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
        assert!(db.rel_delta(r).is_some(), "handing out `&mut` is no change");
        db.relation_mut(r).unwrap().insert(tuple!["b"]).unwrap();
        assert_ne!(db.rel_gen(r), g);
        assert!(db.rel_delta(r).is_none(), "an opaque mutation has no delta");
    }

    #[test]
    fn a_clone_shares_versions_until_one_side_changes() {
        let mut db = Database::new(catalog());
        let r = Symbol::intern("r");
        db.apply(&Update::new().with_insert("r", tuple!["a"]))
            .unwrap();
        let mut db2 = db.clone();
        assert_eq!(db2.rel_gen(r), db.rel_gen(r));
        assert_eq!(db2.rel_delta(r), db.rel_delta(r));
        db2.apply(&Update::new().with_insert("r", tuple!["b"]))
            .unwrap();
        assert_ne!(db2.rel_gen(r), db.rel_gen(r));
        assert_eq!(
            db.relation(r).unwrap().len(),
            1,
            "the original is untouched"
        );
        assert_eq!(db2.rows_copied(), 1, "the shared relation was copied");
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
