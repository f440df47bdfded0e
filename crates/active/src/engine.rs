//! The trigger-engine checker: bounded history encoding materialized as
//! database tables maintained by ECA rules.
//!
//! Where [`rtic_core::IncrementalChecker`] keeps auxiliary state in native
//! in-memory structures, this checker stores it in ordinary *relations*
//! inside the database itself, and advances it with
//! event–condition–action rules that fire on every commit — the way the
//! encoding would be realized inside an active DBMS (the implementation
//! route of the companion work "Implementing Temporal Integrity Constraints
//! Using an Active DBMS"). Per temporal node `i`:
//!
//! * `__aux{i}` — the auxiliary table: `(key…, ts)` witness timestamps for
//!   `once`/`since` (with the `a = 0` / `b = ∞` one-row-per-key pruning
//!   expressed as deletion rules), `(key…)` previous-state rows for `prev`,
//!   `(key…, start, end)` runs for finite `hist`, `(key…, end)` prefix ends
//!   for unbounded `hist`;
//! * `__ext{i}` — the node's materialized extension at the current state
//!   (what outer rules and the detection query read);
//! * `__meta{i}` / `__times{i}` / `__older{i}` — bookkeeping: previous
//!   state time, recent state times, newest state older than the `hist`
//!   lower bound.
//!
//! The detection rule evaluates the denial body with temporal subformulas
//! answered from these tables. Reports are identical to the other checkers
//! (the differential oracle's `active` mode, `crates/oracle`); the
//! constant-factor overhead of going through relations is experiment T5.

use std::sync::Arc;

use rtic_core::eval::{Node, Oracle};
use rtic_core::{
    Bindings, Checker, CompileError, CompiledConstraint, NodePlans, Plan, Scratch, SpaceStats,
    StepReport,
};
use rtic_history::HistoryError;
use rtic_relation::{
    Attribute, Catalog, Database, FastMap, Relation, Schema, Sort, Symbol, Tuple, TupleMap, Update,
    Value,
};
use rtic_temporal::ast::{Formula, Var};
use rtic_temporal::time::UpperBound;
use rtic_temporal::typecheck::typecheck;
use rtic_temporal::{Constraint, Interval, TimePoint};

fn time_value(t: TimePoint) -> Value {
    Value::Int(i64::try_from(t.0).expect("timestamp fits in i64"))
}

fn value_time(v: Value) -> TimePoint {
    TimePoint(u64::try_from(v.as_int().expect("timestamp column is Int")).expect("non-negative"))
}

/// Which maintenance rules a node's tables need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Once,
    Since,
    Prev,
    HistFinite,
    HistInf,
}

#[derive(Clone, Debug)]
struct NodeTables {
    kind: Kind,
    interval: Interval,
    vars: Vec<Var>,
    aux: Symbol,
    ext: Symbol,
    meta: Symbol,  // prev time (prev) / started marker (hist-inf)
    times: Symbol, // recent state times (hist)
    older: Symbol, // newest state older than lo (hist-inf)
}

/// The active-DBMS realization of the bounded history encoding.
#[derive(Clone, Debug)]
pub struct ActiveChecker {
    compiled: CompiledConstraint,
    db: Database,
    nodes: Vec<NodeTables>,
    last_time: Option<TimePoint>,
    scratch: Scratch,
}

impl ActiveChecker {
    /// Compiles `constraint` and sets up the auxiliary tables alongside the
    /// user catalog. User relation names must not start with `__`.
    pub fn new(
        constraint: Constraint,
        catalog: Arc<Catalog>,
    ) -> Result<ActiveChecker, CompileError> {
        let compiled = CompiledConstraint::compile(constraint, Arc::clone(&catalog))?;
        Ok(Self::from_compiled(compiled))
    }

    /// Builds the checker from an already-compiled constraint.
    pub fn from_compiled(compiled: CompiledConstraint) -> ActiveChecker {
        for name in compiled.catalog.names() {
            assert!(
                !name.as_str().starts_with("__"),
                "user relation names must not start with `__` (reserved for aux tables)"
            );
        }
        let var_sorts =
            typecheck(&compiled.body, &compiled.catalog).expect("compiled constraints typecheck");
        let mut extended = Catalog::new();
        for name in compiled.catalog.names() {
            extended
                .declare(
                    name,
                    compiled.catalog.schema_of(name).expect("listed").clone(),
                )
                .expect("no duplicates in source catalog");
        }
        let mut nodes = Vec::new();
        for (i, node) in compiled.nodes.iter().enumerate() {
            let vars = node.sorted_free_vars();
            let key_attrs: Vec<Attribute> = vars
                .iter()
                .enumerate()
                .map(|(c, v)| {
                    let sort = *var_sorts.get(v).unwrap_or(&Sort::Str);
                    Attribute::new(format!("k{c}").as_str(), sort)
                })
                .collect();
            let (kind, interval) = match node {
                Formula::Once(iv, _) => (Kind::Once, *iv),
                Formula::Since(iv, _, _) => (Kind::Since, *iv),
                Formula::Prev(iv, _) => (Kind::Prev, *iv),
                Formula::Hist(iv, _) if iv.is_bounded() => (Kind::HistFinite, *iv),
                Formula::Hist(iv, _) => (Kind::HistInf, *iv),
                other => unreachable!("non-temporal node `{other}`"),
            };
            let name = |prefix: &str| Symbol::intern(&format!("__{prefix}{i}"));
            let int_attr = |n: &str| Attribute::new(n, Sort::Int);
            let aux_schema = match kind {
                Kind::Once | Kind::Since => {
                    Schema::new(key_attrs.iter().copied().chain([int_attr("ts")]))
                }
                Kind::Prev => Schema::new(key_attrs.iter().copied()),
                Kind::HistFinite => Schema::new(
                    key_attrs
                        .iter()
                        .copied()
                        .chain([int_attr("rs"), int_attr("re")]),
                ),
                Kind::HistInf => Schema::new(key_attrs.iter().copied().chain([int_attr("pe")])),
            }
            .expect("generated attribute names are distinct");
            let tables = NodeTables {
                kind,
                interval,
                vars,
                aux: name("aux"),
                ext: name("ext"),
                meta: name("meta"),
                times: name("times"),
                older: name("older"),
            };
            extended
                .declare(tables.aux, aux_schema)
                .expect("fresh aux name");
            extended
                .declare(
                    tables.ext,
                    Schema::new(key_attrs.iter().copied()).expect("distinct"),
                )
                .expect("fresh ext name");
            extended
                .declare(tables.meta, Schema::of(&[("t", Sort::Int)]))
                .expect("fresh meta name");
            extended
                .declare(tables.times, Schema::of(&[("t", Sort::Int)]))
                .expect("fresh times name");
            extended
                .declare(tables.older, Schema::of(&[("t", Sort::Int)]))
                .expect("fresh older name");
            nodes.push(tables);
        }
        let db = Database::new(Arc::new(extended));
        ActiveChecker {
            compiled,
            db,
            nodes,
            last_time: None,
            scratch: Scratch::new(),
        }
    }

    /// The planned operand of a `prev`/`once`/`hist` node (the anchor
    /// operand for `since`).
    fn operand_plan(&self, idx: usize) -> &Plan {
        match &self.compiled.plans.node_ops[idx] {
            NodePlans::Operand(p) => p,
            NodePlans::Since { g, .. } => g,
        }
    }

    /// Human-readable descriptions of the generated ECA rules, in firing
    /// order — what a DBA would install as triggers.
    pub fn rules(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, (tables, node)) in self.nodes.iter().zip(&self.compiled.nodes).enumerate() {
            let head = format!("ON commit /* rule {i}: {node} */ ");
            match tables.kind {
                Kind::Once => out.push(format!(
                    "{head}THEN insert sat(operand) into {} with now(); \
                     delete rows older than the window; refresh {}",
                    tables.aux, tables.ext
                )),
                Kind::Since => out.push(format!(
                    "{head}IF key of {} fails the maintained formula THEN delete its anchors; \
                     THEN insert anchor rows with now(); refresh {}",
                    tables.aux, tables.ext
                )),
                Kind::Prev => out.push(format!(
                    "{head}THEN refresh {} from {} gated on the age of {}; \
                     replace {} with sat(operand)",
                    tables.ext, tables.aux, tables.meta, tables.aux
                )),
                Kind::HistFinite => out.push(format!(
                    "{head}THEN extend/open runs in {} for sat(operand); \
                     append now() to {}; delete expired runs and times",
                    tables.aux, tables.times
                )),
                Kind::HistInf => out.push(format!(
                    "{head}THEN advance unbroken prefix ends in {}; \
                     slide {} / {}; delete dead prefixes",
                    tables.aux, tables.times, tables.older
                )),
            }
        }
        out.push(format!(
            "ON commit /* detection */ IF {} has a satisfying assignment THEN raise violation",
            self.compiled.body
        ));
        out
    }

    /// The current database, including the auxiliary tables.
    pub fn database(&self) -> &Database {
        &self.db
    }

    fn oracle(&self, t_now: TimePoint) -> ActiveOracle<'_> {
        ActiveOracle {
            db: &self.db,
            nodes: &self.nodes,
            ids: &self.compiled.node_ids,
            t_now,
        }
    }

    fn rel(&self, s: Symbol) -> &Relation {
        self.db.relation(s).expect("aux tables are catalogued")
    }

    /// Single-row time table accessor.
    fn read_time(&self, table: Symbol) -> Option<TimePoint> {
        self.rel(table).iter().next().map(|t| value_time(t[0]))
    }

    fn write_time(&mut self, table: Symbol, t: TimePoint) {
        let rel = self.db.relation_mut(table).expect("catalogued");
        rel.clear();
        rel.insert(Tuple::new([time_value(t)]))
            .expect("schema (t: int)");
    }

    fn fire_maintenance(&mut self, idx: usize, t_now: TimePoint, scratch: &mut Scratch) {
        let tables = self.nodes[idx].clone();
        let node = self.compiled.nodes[idx].clone();
        let arity = tables.vars.len();
        match (&tables.kind, &node) {
            (Kind::Once, Formula::Once(..)) => {
                let sat_now = {
                    let oracle = self.oracle(t_now);
                    self.operand_plan(idx)
                        .execute(&self.db, &oracle, &Bindings::unit(), scratch)
                };
                self.maintain_window(&tables, &sat_now, t_now, /*clear_keys=*/ None);
            }
            (Kind::Since, Formula::Since(..)) => {
                let (survivors, anchors) = {
                    let keys = Bindings::from_rows(
                        tables.vars.clone(),
                        self.rel(tables.aux)
                            .iter()
                            .map(|r| r.project(&(0..arity).collect::<Vec<_>>())),
                    );
                    let oracle = self.oracle(t_now);
                    let NodePlans::Since { f: fp, g: gp } = &self.compiled.plans.node_ops[idx]
                    else {
                        unreachable!("since node without a since plan")
                    };
                    // An `f` planned from unit holds for exactly the keys
                    // in its extension.
                    let survivors = if fp.in_vars().is_empty() {
                        let holds = fp.execute(&self.db, &oracle, &Bindings::unit(), scratch);
                        keys.semijoin(&holds)
                    } else {
                        fp.execute(&self.db, &oracle, &keys, scratch)
                            .project(&tables.vars)
                    };
                    let anchors = gp.execute(&self.db, &oracle, &Bindings::unit(), scratch);
                    (survivors, anchors)
                };
                self.maintain_window(&tables, &anchors, t_now, Some(&survivors));
            }
            (Kind::Prev, Formula::Prev(iv, _)) => {
                // Refresh ext from the stored previous-state rows, gated on age.
                let admissible = self
                    .read_time(tables.meta)
                    .is_some_and(|prev| iv.contains(t_now.age_of(prev)));
                let ext_rows: Vec<Tuple> = if admissible {
                    self.rel(tables.aux).iter().cloned().collect()
                } else {
                    Vec::new()
                };
                let sat_now = {
                    let oracle = self.oracle(t_now);
                    self.operand_plan(idx)
                        .execute(&self.db, &oracle, &Bindings::unit(), scratch)
                };
                let ext = self.db.relation_mut(tables.ext).expect("catalogued");
                ext.clear();
                for r in ext_rows {
                    ext.insert(r).expect("key schema");
                }
                let aux = self.db.relation_mut(tables.aux).expect("catalogued");
                aux.clear();
                for r in sat_now.rows() {
                    aux.insert(r.clone()).expect("key schema");
                }
                self.write_time(tables.meta, t_now);
            }
            (Kind::HistFinite, Formula::Hist(iv, _)) => {
                let bound = iv.hi().finite().expect("finite hist");
                let prev_time = self.last_time;
                let sat_now = {
                    let oracle = self.oracle(t_now);
                    self.operand_plan(idx)
                        .execute(&self.db, &oracle, &Bindings::unit(), scratch)
                };
                let cutoff = t_now.minus(bound).unwrap_or(TimePoint(0));
                // Extend or open runs.
                let mut to_delete = Vec::new();
                let mut to_insert = Vec::new();
                {
                    let aux = self.rel(tables.aux);
                    for key in sat_now.rows() {
                        // The run to extend ends exactly at prev_time.
                        let extendable = prev_time.and_then(|pt| {
                            aux.iter()
                                .find(|r| {
                                    r.values()[..arity] == *key.values()
                                        && value_time(r[arity + 1]) == pt
                                })
                                .cloned()
                        });
                        match extendable {
                            Some(run) => {
                                let start = run[arity];
                                to_delete.push(run);
                                to_insert.push(Tuple::new(
                                    key.values()
                                        .iter()
                                        .copied()
                                        .chain([start, time_value(t_now)]),
                                ));
                            }
                            None => to_insert.push(Tuple::new(
                                key.values()
                                    .iter()
                                    .copied()
                                    .chain([time_value(t_now), time_value(t_now)]),
                            )),
                        }
                    }
                    // Expired runs.
                    for r in aux.iter() {
                        if value_time(r[arity + 1]) < cutoff {
                            to_delete.push(r.clone());
                        }
                    }
                }
                let aux = self.db.relation_mut(tables.aux).expect("catalogued");
                for r in to_delete {
                    aux.remove(&r);
                }
                for r in to_insert {
                    aux.insert(r).expect("runs schema");
                }
                // Slide the state-time table.
                let times = self.db.relation_mut(tables.times).expect("catalogued");
                times
                    .insert(Tuple::new([time_value(t_now)]))
                    .expect("(t: int)");
                times.retain(|r| value_time(r[0]) >= cutoff);
            }
            (Kind::HistInf, Formula::Hist(iv, _)) => {
                let sat_now = {
                    let oracle = self.oracle(t_now);
                    self.operand_plan(idx)
                        .execute(&self.db, &oracle, &Bindings::unit(), scratch)
                };
                let started = !self.rel(tables.meta).is_empty();
                let prev_time = self.last_time;
                let mut to_delete = Vec::new();
                let mut to_insert = Vec::new();
                if !started {
                    for key in sat_now.rows() {
                        to_insert.push(Tuple::new(
                            key.values().iter().copied().chain([time_value(t_now)]),
                        ));
                    }
                } else {
                    let aux = self.rel(tables.aux);
                    for r in aux.iter() {
                        // Active prefixes end exactly at the previous time.
                        if Some(value_time(r[arity])) == prev_time {
                            let key = r.project(&(0..arity).collect::<Vec<_>>());
                            if sat_now.contains(&key) {
                                to_delete.push(r.clone());
                                to_insert.push(Tuple::new(
                                    key.values().iter().copied().chain([time_value(t_now)]),
                                ));
                            }
                        }
                    }
                }
                {
                    let aux = self.db.relation_mut(tables.aux).expect("catalogued");
                    for r in to_delete {
                        aux.remove(&r);
                    }
                    for r in to_insert {
                        aux.insert(r).expect("prefix schema");
                    }
                }
                self.write_time(tables.meta, t_now);
                // Slide the lower-bound window.
                let threshold = t_now.minus(iv.lo());
                let mut newly_older: Vec<TimePoint> = Vec::new();
                {
                    let times = self.db.relation_mut(tables.times).expect("catalogued");
                    times
                        .insert(Tuple::new([time_value(t_now)]))
                        .expect("(t: int)");
                    times.retain(|r| {
                        let tv = value_time(r[0]);
                        match threshold {
                            Some(th) if tv <= th => {
                                newly_older.push(tv);
                                false
                            }
                            _ => true,
                        }
                    });
                }
                if let Some(&mx) = newly_older.iter().max() {
                    let cur = self.read_time(tables.older);
                    self.write_time(tables.older, cur.map_or(mx, |c| c.max(mx)));
                }
                // Dead prefixes (frozen below the query point).
                if let Some(m) = self.read_time(tables.older) {
                    let is_active = |r: &Tuple| Some(value_time(r[arity])) == Some(t_now);
                    let aux = self.db.relation_mut(tables.aux).expect("catalogued");
                    aux.retain(|r| value_time(r[arity]) >= m || is_active(r));
                }
            }
            other => unreachable!("kind/node mismatch: {other:?}"),
        }
        // Refresh the materialized extension for generator nodes.
        match tables.kind {
            Kind::Once | Kind::Since => self.refresh_window_ext(&tables, t_now),
            Kind::Prev | Kind::HistFinite | Kind::HistInf => {}
        }
    }

    /// Shared `once`/`since` table maintenance: optional anchor clearing,
    /// witness insertion, window/specialization pruning.
    fn maintain_window(
        &mut self,
        tables: &NodeTables,
        sat_now: &Bindings,
        t_now: TimePoint,
        clear_keys: Option<&Bindings>,
    ) {
        let arity = tables.vars.len();
        let key_cols: Vec<usize> = (0..arity).collect();
        {
            let aux = self.db.relation_mut(tables.aux).expect("catalogued");
            if let Some(survivors) = clear_keys {
                aux.retain(|r| survivors.contains(&r.project(&key_cols)));
            }
            for key in sat_now.rows() {
                aux.insert(Tuple::new(
                    key.values().iter().copied().chain([time_value(t_now)]),
                ))
                .expect("aux schema");
            }
            // Window pruning (finite b).
            if let UpperBound::Finite(b) = tables.interval.hi() {
                let cutoff = t_now.minus(b).unwrap_or(TimePoint(0));
                aux.retain(|r| value_time(r[arity]) >= cutoff);
            }
        }
        // Specialization pruning as deletion rules: a = 0 keeps only the
        // newest witness per key, b = ∞ only the oldest.
        let keep_newest = tables.interval.lo().0 == 0;
        let keep_oldest = !tables.interval.is_bounded() && !keep_newest;
        if keep_newest || keep_oldest {
            let mut best: TupleMap<TimePoint> = TupleMap::default();
            for r in self.rel(tables.aux).iter() {
                let key = r.project(&key_cols);
                let ts = value_time(r[arity]);
                best.entry(key)
                    .and_modify(|cur| {
                        if (keep_newest && ts > *cur) || (keep_oldest && ts < *cur) {
                            *cur = ts;
                        }
                    })
                    .or_insert(ts);
            }
            let aux = self.db.relation_mut(tables.aux).expect("catalogued");
            aux.retain(|r| best[&r.project(&key_cols)] == value_time(r[arity]));
        }
    }

    fn refresh_window_ext(&mut self, tables: &NodeTables, t_now: TimePoint) {
        let arity = tables.vars.len();
        let key_cols: Vec<usize> = (0..arity).collect();
        let rows: Vec<Tuple> = match tables.interval.window_at(t_now) {
            None => Vec::new(),
            Some((w_lo, w_hi)) => self
                .rel(tables.aux)
                .iter()
                .filter(|r| {
                    let ts = value_time(r[arity]);
                    ts >= w_lo && ts <= w_hi
                })
                .map(|r| r.project(&key_cols))
                .collect(),
        };
        let ext = self.db.relation_mut(tables.ext).expect("catalogued");
        ext.clear();
        for r in rows {
            ext.insert(r).expect("key schema");
        }
    }
}

impl Checker for ActiveChecker {
    fn constraint(&self) -> &Constraint {
        &self.compiled.constraint
    }

    fn step(&mut self, time: TimePoint, update: &Update) -> Result<StepReport, HistoryError> {
        if let Some(last) = self.last_time {
            if time <= last {
                return Err(HistoryError::NonMonotonicTime { last, new: time });
            }
        }
        self.db.apply(update)?;
        let mut scratch = std::mem::take(&mut self.scratch);
        for idx in 0..self.nodes.len() {
            self.fire_maintenance(idx, time, &mut scratch);
        }
        let violations = {
            let oracle = self.oracle(time);
            self.compiled
                .plans
                .body
                .execute(&self.db, &oracle, &Bindings::unit(), &mut scratch)
        };
        self.scratch = scratch;
        self.last_time = Some(time);
        Ok(self.compiled.report(time, violations))
    }

    fn space(&self) -> SpaceStats {
        let mut aux_keys = 0;
        let mut aux_timestamps = 0;
        let mut user_tuples = 0;
        for name in self.db.catalog().names() {
            let len = self.rel(name).len();
            if name.as_str().starts_with("__aux") || name.as_str().starts_with("__ext") {
                aux_keys += len;
            } else if name.as_str().starts_with("__") {
                aux_timestamps += len;
            } else {
                user_tuples += len;
            }
        }
        // Every aux row carries at most two timestamps.
        for t in &self.nodes {
            let per_row = match t.kind {
                Kind::Once | Kind::Since | Kind::HistInf => 1,
                Kind::HistFinite => 2,
                Kind::Prev => 0,
            };
            aux_timestamps += per_row * self.rel(t.aux).len();
        }
        SpaceStats {
            aux_keys,
            aux_timestamps,
            stored_states: 1,
            stored_tuples: user_tuples,
        }
    }

    fn name(&self) -> &'static str {
        "active"
    }

    fn plan_stats(&self) -> Option<rtic_core::RuntimePlanStats> {
        Some(rtic_core::RuntimePlanStats {
            plan: self.compiled.plans.stats(),
            scratch_high_water: self.scratch.high_water(),
            rows_copied: self.scratch.rows_copied() + self.db.rows_copied(),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Oracle answering temporal queries from the materialized tables.
struct ActiveOracle<'a> {
    db: &'a Database,
    nodes: &'a [NodeTables],
    ids: &'a FastMap<Formula, usize>,
    t_now: TimePoint,
}

impl ActiveOracle<'_> {
    fn tables(&self, node: Node<'_>) -> &NodeTables {
        &self.nodes[node.id]
    }
}

impl Oracle for ActiveOracle<'_> {
    fn node_id(&self, node: &Formula) -> usize {
        *self
            .ids
            .get(node)
            .unwrap_or_else(|| panic!("unknown node `{node}`"))
    }

    fn extension(&self, node: Node<'_>) -> Bindings {
        let t = self.tables(node);
        let rel = self.db.relation(t.ext).expect("catalogued");
        Bindings::from_rows(t.vars.clone(), rel.iter().cloned())
    }

    fn contains(&self, node: Node<'_>, key: &Tuple) -> bool {
        // The materialized extension table answers probes directly.
        let t = self.tables(node);
        self.db.relation(t.ext).expect("catalogued").contains(key)
    }

    fn hist_holds(&self, node: Node<'_>, key: &Tuple) -> bool {
        let t = self.tables(node);
        let arity = t.vars.len();
        match t.kind {
            Kind::HistFinite => {
                let Some((w_lo, w_hi)) = t.interval.window_at(self.t_now) else {
                    return true;
                };
                let runs: Vec<(TimePoint, TimePoint)> = self
                    .db
                    .relation(t.aux)
                    .expect("catalogued")
                    .iter()
                    .filter(|r| r.values()[..arity] == *key.values())
                    .map(|r| (value_time(r[arity]), value_time(r[arity + 1])))
                    .collect();
                self.db
                    .relation(t.times)
                    .expect("catalogued")
                    .iter()
                    .map(|r| value_time(r[0]))
                    .filter(|&tau| tau >= w_lo && tau <= w_hi)
                    .all(|tau| runs.iter().any(|&(s, e)| s <= tau && tau <= e))
            }
            Kind::HistInf => {
                let older = self
                    .db
                    .relation(t.older)
                    .expect("catalogued")
                    .iter()
                    .next()
                    .map(|r| value_time(r[0]));
                match older {
                    None => true,
                    Some(m) => self
                        .db
                        .relation(t.aux)
                        .expect("catalogued")
                        .iter()
                        .any(|r| r.values()[..arity] == *key.values() && value_time(r[arity]) >= m),
                }
            }
            _ => unreachable!("hist query against non-hist node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::tuple;
    use rtic_temporal::parser::parse_constraint;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("p", Schema::of(&[("x", Sort::Str)]))
                .unwrap()
                .with("q", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        )
    }

    fn checker(src: &str) -> ActiveChecker {
        ActiveChecker::new(parse_constraint(src).unwrap(), catalog()).unwrap()
    }

    #[test]
    fn detects_like_the_direct_checker() {
        let mut c = checker("deny d: p(x) && once[2,4] q(x) && !q(x)");
        c.step(TimePoint(1), &Update::new().with_insert("q", tuple!["a"]))
            .unwrap();
        c.step(
            TimePoint(2),
            &Update::new()
                .with_delete("q", tuple!["a"])
                .with_insert("p", tuple!["a"]),
        )
        .unwrap();
        let r = c.step(TimePoint(3), &Update::new()).unwrap();
        assert_eq!(r.violation_count(), 1, "witness age 2 in [2,4]");
        let r = c.step(TimePoint(6), &Update::new()).unwrap();
        assert!(r.ok(), "witness aged out");
    }

    #[test]
    fn rules_listing_mentions_every_table() {
        let c = checker("deny d: p(x) && once[0,3] q(x) && hist[0,2] p(x)");
        let rules = c.rules();
        assert_eq!(rules.len(), 3, "two maintenance rules + detection");
        assert!(rules.iter().any(|r| r.contains("__aux0")));
        assert!(rules.last().unwrap().contains("detection"));
    }

    #[test]
    fn aux_tables_are_pruned() {
        let mut c = checker("deny d: p(x) && once[0,2] q(x)");
        for t in 1..=30u64 {
            let u = if t % 2 == 0 {
                Update::new()
                    .with_insert("q", tuple!["a"])
                    .with_delete("q", tuple!["a"])
            } else {
                Update::new()
            };
            c.step(TimePoint(t), &u).unwrap();
            assert!(c.space().aux_keys <= 4, "window pruning keeps tables small");
        }
    }

    #[test]
    fn rejects_reserved_names() {
        let cat = Arc::new(
            Catalog::new()
                .with("__weird", Schema::of(&[("x", Sort::Str)]))
                .unwrap(),
        );
        let c = parse_constraint("deny d: __weird(x) && !__weird(x)").unwrap();
        let compiled = CompiledConstraint::compile(c, cat).unwrap();
        let result = std::panic::catch_unwind(|| ActiveChecker::from_compiled(compiled));
        assert!(result.is_err());
    }
}
