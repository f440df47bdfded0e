//! Property test: every net delta `Database::apply` records replays, one
//! set operation per tuple, and a relation's version names its contents.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::Rng;
use rtic_oracle::property::{check, vec_of};
use rtic_relation::{tuple, Catalog, Database, Schema, Sort, Symbol, Tuple, Update};

/// One tuple-level operation: `0` delete, `1` insert, `2` delete and
/// re-insert in the same update.
type Op = (u8, i64);

#[test]
fn net_deltas_replay_and_equal_versions_mean_equal_contents() {
    let draw = |rng: &mut _| {
        vec_of(rng, 1..16, |r| {
            vec_of(r, 0..8, |r| -> Op {
                (r.gen_range(0..3), r.gen_range(0..6))
            })
        })
    };
    check(1, 256, draw, |updates: &Vec<Vec<Op>>| {
        let catalog = Catalog::new()
            .with("r", Schema::of(&[("k", Sort::Int)]))
            .unwrap();
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
            for &(kind, k) in ops {
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
                assert_eq!(&now, &before, "an unchanged version kept its contents");
            } else {
                let delta = db.rel_delta(r).unwrap();
                assert_eq!((delta.from, delta.to), (from, db.rel_gen(r)));
                let mut replay = before.clone();
                for t in &delta.removed {
                    assert!(replay.remove(t), "removed {t} was not there");
                }
                for t in &delta.added {
                    assert!(replay.insert(t.clone()), "added {t} was there");
                }
                assert_eq!(&replay, &now);
                assert!(now != before, "a new version changed the contents");
            }
            let seen = by_version
                .entry(db.rel_gen(r))
                .or_insert_with(|| now.clone());
            assert_eq!(&*seen, &now, "equal versions, equal contents");
        }
    });
}
