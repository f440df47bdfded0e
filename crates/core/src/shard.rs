//! Entity-key sharded evaluation of one constraint.
//!
//! When compile-time analysis finds a [`ShardKey`] — a variable every atom
//! of the body shares — the constraint never joins across key values, so
//! its evaluation decomposes into one independent monitor per key: a
//! per-entity constraint over millions of entities is really millions of
//! tiny checkers. A [`ShardedEngine`] realizes that decomposition: it
//! routes each transition's tuples to per-key sub-databases, advances one
//! [`NodeEngine`] per *live* key (so auxiliary windows and memo scratch
//! are shard-local, over one shared compiled constraint), and merges the per-shard violation
//! sets back in ascending key order — a result byte-identical to the
//! unsharded engine's (asserted continuously by the differential oracle's
//! `fleet-sharded` backend).
//!
//! # The phantom engine
//!
//! Keys the stream has never mentioned must still *age*: temporal state
//! carries time-only bookkeeping (recent state timestamps, `prev`
//! cursors, `hist` prefix anchors) that advances on every transition even
//! when no tuple for the key arrives. Materializing every possible key is
//! exactly what sharding is meant to avoid, so the engine keeps one
//! **phantom** shard: an engine stepped on every transition against a
//! permanently empty database. Because that bookkeeping depends only on
//! the timestamp sequence — which every shard sees in full — the phantom
//! is state-identical to any never-touched shard, and a fresh key's shard
//! is created by cloning it. The same argument drives **eviction**: once
//! a shard's sub-database is empty, its auxiliary state holds no keys,
//! and its last report was clean, its entire state coincides with the
//! phantom's, so the shard can be dropped and recreated from the phantom
//! later without observable difference. A configurable idle horizon
//! delays the drop to avoid create/evict churn on flapping keys.

use std::collections::BTreeMap;

use rtic_relation::{Database, Update, Value};
use rtic_temporal::TimePoint;

use crate::binding::Bindings;
use crate::compile::ShardKey;
use crate::incremental::NodeEngine;

/// Default idle horizon: a shard whose state has matched the phantom's
/// for this many consecutive steps is evicted.
pub const DEFAULT_EVICT_AFTER: u32 = 16;

/// Shard-lifecycle counters for one sharded constraint (per run; they
/// restart at zero on resume, unlike dispatch stats).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Shards currently materialized.
    pub live: usize,
    /// Shards created since the run (or resume) began.
    pub created: u64,
    /// Idle shards evicted back into the phantom.
    pub evicted: u64,
    /// High-water mark of live shards.
    pub peak: usize,
}

/// One key's monitor: its restriction of the database plus a full
/// [`NodeEngine`] over it.
#[derive(Clone, Debug)]
pub(crate) struct Shard {
    pub(crate) db: Database,
    pub(crate) engine: NodeEngine,
    /// Whether this step's transition routed tuples here.
    touched: bool,
    /// Consecutive steps the eviction gate has held.
    idle: u32,
}

impl Shard {
    fn new(engine: NodeEngine) -> Shard {
        let db = Database::new(std::sync::Arc::clone(&engine.compiled.catalog));
        Shard {
            db,
            engine,
            touched: false,
            idle: 0,
        }
    }

    /// Advances this shard one transition and returns its violations.
    /// Untouched shards try the quiescent fast path first (their
    /// sub-database did not change); everything else runs the full
    /// evaluation against the shard-local database — its own instance id
    /// keeps the memo scratch shard-local too.
    fn eval(&mut self, time: TimePoint) -> Bindings {
        let fast = if self.touched {
            None
        } else {
            self.engine.advance_time(time)
        };
        self.touched = false;
        match fast {
            Some(v) => v,
            None => {
                self.engine.advance(&self.db, time);
                self.engine.violations(&self.db, time)
            }
        }
    }
}

/// A constraint stepped as independent per-key shards (see the module
/// docs for the soundness argument).
#[derive(Clone, Debug)]
pub(crate) struct ShardedEngine {
    key: ShardKey,
    phantom: Shard,
    shards: BTreeMap<Value, Shard>,
    evict_after: u32,
    created: u64,
    evicted: u64,
    peak: usize,
}

impl ShardedEngine {
    /// Wraps a **fresh** (never stepped) engine whose compiled constraint
    /// has a shard key.
    pub(crate) fn new(engine: NodeEngine) -> ShardedEngine {
        let key = engine
            .compiled
            .shard_key
            .clone()
            .expect("sharded engines require a compile-time shard key");
        ShardedEngine {
            key,
            phantom: Shard::new(engine),
            shards: BTreeMap::new(),
            evict_after: DEFAULT_EVICT_AFTER,
            created: 0,
            evicted: 0,
            peak: 0,
        }
    }

    /// The compile-time key this engine partitions on.
    pub(crate) fn key(&self) -> &ShardKey {
        &self.key
    }

    /// Sets the idle-eviction horizon (steps of phantom-equivalence
    /// before a shard is dropped).
    pub(crate) fn set_evict_after(&mut self, horizon: u32) {
        self.evict_after = horizon.max(1);
    }

    /// Lifecycle counters.
    pub(crate) fn stats(&self) -> ShardStats {
        ShardStats {
            live: self.shards.len(),
            created: self.created,
            evicted: self.evicted,
            peak: self.peak,
        }
    }

    /// The constraint's plan shape (counted once) with the runtime
    /// counters of the phantom and every live shard folded in.
    pub(crate) fn plan_stats(&self) -> crate::plan::RuntimePlanStats {
        let mut total = self.phantom.engine.plan_stats();
        for s in self.shards.values() {
            let stats = s.engine.plan_stats();
            total.scratch_high_water = total.scratch_high_water.max(stats.scratch_high_water);
            total.rows_copied += stats.rows_copied;
        }
        total
    }

    /// Summed auxiliary footprint of the live shards.
    pub(crate) fn aux_space(&self) -> (usize, usize) {
        let mut keys = 0;
        let mut stamps = 0;
        for s in self.shards.values() {
            let (k, t) = s.engine.aux_space();
            keys += k;
            stamps += t;
        }
        (keys, stamps)
    }

    /// Routes one transition's tuples into per-key sub-updates and
    /// applies them, creating shards (from the phantom) for keys whose
    /// sub-update actually inserts something — deletes against an
    /// unmaterialized key are no-ops under set semantics, exactly as they
    /// are against the phantom's empty database. Must run after the
    /// update was validated against the shared database.
    fn route(&mut self, update: &Update) {
        let mut subs: BTreeMap<Value, Update> = BTreeMap::new();
        for (rel, tuples) in update.inserts() {
            if let Some(&col) = self.key.columns.get(&rel) {
                for t in tuples {
                    subs.entry(t.values()[col])
                        .or_default()
                        .insert(rel, t.clone());
                }
            }
        }
        for (rel, tuples) in update.deletes() {
            if let Some(&col) = self.key.columns.get(&rel) {
                for t in tuples {
                    subs.entry(t.values()[col])
                        .or_default()
                        .delete(rel, t.clone());
                }
            }
        }
        for (key, sub) in subs {
            let shard = match self.shards.get_mut(&key) {
                Some(s) => s,
                None => {
                    if sub.inserts().next().is_none() {
                        continue; // delete-only: nothing to materialize
                    }
                    self.created += 1;
                    self.shards.entry(key).or_insert_with(|| {
                        // The phantom clone inherits all time bookkeeping
                        // and shares the compiled constraint; its cloned
                        // database gets a fresh instance id, so no memo
                        // entry ever crosses shards.
                        self.phantom.clone()
                    })
                }
            };
            shard
                .db
                .apply(&sub)
                .expect("sub-update was validated by the shared database");
            shard.touched = true;
        }
        self.peak = self.peak.max(self.shards.len());
    }

    /// Advances the constraint one transition: routes `update` to its
    /// shards, steps the phantom and every live shard, merges the
    /// per-shard violation sets in ascending key order, and runs the
    /// eviction pass.
    pub(crate) fn step(&mut self, update: &Update, time: TimePoint) -> Bindings {
        self.route(update);
        let mut merged = self.phantom.eval(time);
        debug_assert!(merged.is_empty(), "the phantom's database is empty");
        let mut evict: Vec<Value> = Vec::new();
        for (key, shard) in self.shards.iter_mut() {
            let violations = shard.eval(time);
            // Eviction gate: empty sub-database, no keyed auxiliary
            // state, clean report — the shard's remaining state is the
            // time-only bookkeeping the phantom shares, so dropping it
            // is unobservable.
            let phantom_equivalent = violations.is_empty()
                && shard.db.total_tuples() == 0
                && shard.engine.aux_space().0 == 0;
            merged.union_in_place(&violations);
            if phantom_equivalent {
                shard.idle += 1;
                if shard.idle >= self.evict_after {
                    evict.push(*key);
                }
            } else {
                shard.idle = 0;
            }
        }
        for key in evict {
            self.shards.remove(&key);
            self.evicted += 1;
        }
        merged
    }

    // ——— checkpoint plumbing (see `crate::checkpoint`) ———

    /// The phantom's engine, for checkpoint serialization.
    pub(crate) fn phantom_engine(&self) -> &NodeEngine {
        &self.phantom.engine
    }

    /// Live shards in ascending key order, for checkpoint serialization.
    pub(crate) fn live_shards(&self) -> impl Iterator<Item = (&Value, &NodeEngine)> {
        self.shards.iter().map(|(k, s)| (k, &s.engine))
    }

    /// The phantom's engine, mutably, for checkpoint restore.
    pub(crate) fn phantom_engine_mut(&mut self) -> &mut NodeEngine {
        &mut self.phantom.engine
    }

    /// Materializes (from the phantom) and returns the shard for `key`
    /// during checkpoint restore.
    pub(crate) fn restore_shard(&mut self, key: Value) -> &mut Shard {
        self.shards
            .entry(key)
            .or_insert_with(|| self.phantom.clone())
    }

    /// Rebuilds every shard's sub-database from the restored shared
    /// database by partitioning on the key columns. Fails when a tuple's
    /// key has no checkpointed shard — live data always lives in a live
    /// shard (the eviction gate requires an empty sub-database).
    pub(crate) fn attach_partition(&mut self, db: &Database) -> Result<(), String> {
        for (&rel, &col) in &self.key.columns {
            let relation = db.relation(rel).map_err(|e| e.to_string())?;
            for tuple in relation.iter() {
                let key = tuple.values()[col];
                let shard = self.shards.get_mut(&key).ok_or_else(|| {
                    format!(
                        "tuple {tuple:?} of `{rel}` belongs to shard `{}`, \
                         which the checkpoint does not list",
                        key.to_literal()
                    )
                })?;
                shard
                    .db
                    .relation_mut(rel)
                    .map_err(|e| e.to_string())?
                    .insert(tuple.clone())
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Sets the resume cursor on the phantom and every restored shard.
    pub(crate) fn set_last_time(&mut self, t: Option<TimePoint>) {
        self.phantom.engine.last_time = t;
        for s in self.shards.values_mut() {
            s.engine.last_time = t;
        }
    }
}
