//! Property test: every net delta `Database::apply` records replays, one
//! set operation per tuple, and a relation's version names its contents.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use rtic_relation::{tuple, Catalog, Database, Schema, Sort, Symbol, Tuple, Update};

/// One tuple-level operation: `0` delete, `1` insert, `2` delete and
/// re-insert in the same update.
fn op() -> impl Strategy<Value = (u8, i64)> {
    (0u8..3, 0i64..6)
}

proptest! {
    #[test]
    fn net_deltas_replay_and_equal_versions_mean_equal_contents(
        updates in proptest::collection::vec(proptest::collection::vec(op(), 0..8), 1..16)
    ) {
        let catalog = Catalog::new().with("r", Schema::of(&[("k", Sort::Int)])).unwrap();
        let mut db = Database::new(Arc::new(catalog));
        let r = Symbol::intern("r");
        let contents = |db: &Database| -> BTreeSet<Tuple> {
            db.relation(r).unwrap().iter().cloned().collect()
        };
        let mut by_version: BTreeMap<u64, BTreeSet<Tuple>> = BTreeMap::new();
        by_version.insert(db.rel_gen(r), BTreeSet::new());
        for ops in updates {
            let (before, from) = (contents(&db), db.rel_gen(r));
            let mut update = Update::new();
            for (kind, k) in ops {
                if kind != 1 {
                    update.delete(r, tuple![k]);
                }
                if kind != 0 {
                    update.insert(r, tuple![k]);
                }
            }
            db.apply(&update).unwrap();
            let now = contents(&db);
            if db.rel_gen(r) == from {
                prop_assert_eq!(&now, &before, "an unchanged version kept its contents");
            } else {
                let delta = db.rel_delta(r).unwrap();
                prop_assert_eq!((delta.from, delta.to), (from, db.rel_gen(r)));
                let mut replay = before.clone();
                for t in &delta.removed {
                    prop_assert!(replay.remove(t), "removed {} was not there", t);
                }
                for t in &delta.added {
                    prop_assert!(replay.insert(t.clone()), "added {} was there", t);
                }
                prop_assert_eq!(&replay, &now);
                prop_assert!(now != before, "a new version changed the contents");
            }
            let seen = by_version.entry(db.rel_gen(r)).or_insert_with(|| now.clone());
            prop_assert_eq!(&*seen, &now, "equal versions, equal contents");
        }
    }
}
