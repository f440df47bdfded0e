//! Sets of variable assignments ("binding relations").
//!
//! The first-order evaluator works over [`Bindings`]: a set of rows, each
//! assigning a value to every variable of a *canonically sorted* variable
//! list. Keeping columns sorted by variable makes every operation's output
//! schema deterministic and lets disjunction branches and aux-relation
//! extensions union without reordering logic at call sites.
//!
//! Rows live in a hash set: steady-state stepping never pays for ordering.
//! Only output boundaries — reports, checkpoints, [`Display`](fmt::Display)
//! — sort, via [`Bindings::sorted_rows`], so everything the system prints
//! or persists stays byte-identical to the ordered representation.
//!
//! The join kernels come in two forms: the classic methods
//! ([`Bindings::natural_join`], [`Bindings::join_atom`]) that derive their
//! column maps per call, and `*_shaped` variants that accept a precomputed
//! [`JoinShape`]/[`AtomShape`] plus a reusable [`Scratch`] buffer — the
//! execution path for compiled plans (see [`crate::plan`]), which computes
//! shapes once at constraint-compile time.

use std::fmt;
use std::sync::Arc;

use rtic_relation::{
    fresh_version, index_by, ColumnIndex, FastMap, Relation, Symbol, Tuple, TupleMap, TupleSet,
    Value,
};
use rtic_temporal::ast::{Term, Var};

/// A finite set of assignments over a sorted variable list.
///
/// The row set is behind an `Arc`, so cloning — in particular replaying a
/// memoized plan result on a quiescent step — is a refcount bump instead
/// of an O(rows) rehash. Every row-set *version* carries a process-unique
/// token ([`fresh_version`], the counter relations draw from): fresh on
/// build and on mutation, copied by `clone`, ignored by `==`. Equal tokens
/// imply equal contents, so a consumer that cached state against a row set
/// remembers the token, not the rows — nothing has to stay alive for the
/// comparison to be sound. A row set read straight off a relation
/// ([`Bindings::of_relation`]) is the relation's own storage and carries
/// its token.
#[derive(Clone, Debug)]
pub struct Bindings {
    vars: Vec<Var>,
    rows: Arc<TupleSet>,
    version: u64,
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Bindings) -> bool {
        self.vars == other.vars && self.rows == other.rows
    }
}

impl Eq for Bindings {}

/// Reusable executor scratch: the memo of database-pure plan-node results,
/// the row-delta records that let downstream consumers advance in
/// O(|delta|), and the kernels' statistics. Join and index keys are inline
/// tuples, so no probe needs a key buffer. Threading one `Scratch` through
/// a whole run means steps that leave a subtree's relations alone replay
/// its memoized result instead of re-hashing every tuple.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    high_water: usize,
    /// Memo of database-pure unit-input subtrees, keyed by cache slot and
    /// validated against the versions of the relations the subtree reads,
    /// so an update touching *other* relations leaves the entry — and its
    /// row-set version — intact.
    pub(crate) memo: FastMap<usize, MemoEntry>,
    /// Per-producer-node record of the last output transition (old
    /// version → new version plus the net added/removed tuples), so
    /// downstream probes and windows advance in O(|delta|). Shared: an
    /// identity-shaped atom publishes its relation's own delta.
    pub(crate) deltas: FastMap<usize, Arc<RowDelta>>,
    /// Per-probe-node partition of the node's last input by verdict, for
    /// windows that publish their flips (see `Oracle::flips`).
    pub(crate) probes: FastMap<usize, ProbePartition>,
    /// Column blocks streamed by the kernels.
    blocks: u64,
    /// Total rows across those blocks (`block_rows / blocks` = mean
    /// rows-per-block).
    block_rows: u64,
    /// Rows duplicated because a memoized or partitioned row set had
    /// another holder when a delta or flip arrived.
    rows_copied: u64,
    /// Fault injection: treat a broken version chain as intact.
    pub(crate) accept_stale: bool,
    /// Fault injection: apply a window's flips whatever epoch they lead
    /// from.
    pub(crate) stale_epochs: bool,
    /// Per-node profiler counters, indexed by plan node id. `None` keeps
    /// the executor's fast path a single discriminant check.
    profile: Option<Vec<crate::plan::NodeCounters>>,
}

/// One memo entry: the cached result plus the exact relation versions it
/// was computed against.
#[derive(Clone, Debug)]
pub(crate) struct MemoEntry {
    /// `(relation, version)` for every relation the subtree reads.
    pub(crate) gens: Vec<(Symbol, u64)>,
    /// The memoized result — the canonical holder of its row set.
    pub(crate) rows: Bindings,
}

/// One producer node's output transition: the exact net row changes that
/// turned version `from` into version `to`. Consumers whose cached state
/// was computed against `from` advance by replaying `added` and `removed`
/// instead of rescanning the new rows. The same type as a relation's
/// net delta, which an identity-shaped atom publishes as is.
pub(crate) type RowDelta = rtic_relation::RelDelta;

/// A probe node's input partitioned by verdict as of window epoch
/// `epoch`, keeping the side its reader wants: the rows whose key
/// satisfied the window or — under a negation — those whose key did not.
/// A step moves only the rows the input delta and the window's flips name
/// — O(|delta| + |flips|) instead of re-probing the whole input.
#[derive(Clone, Debug)]
pub(crate) struct ProbePartition {
    /// Version of the input the partition covers.
    pub(crate) input: u64,
    /// The window epoch the verdicts are current for.
    pub(crate) epoch: u64,
    /// Whether `rows` are the rows whose key holds (else those whose key
    /// fails).
    passing: bool,
    /// The kept side: the probe's output.
    pub(crate) rows: Bindings,
    /// For a projecting probe, the input's rows by probed key, so a
    /// flipped key finds its rows: built by the first advance with flips
    /// to apply, then kept up to date. `None` while rows are their keys.
    by_key: Option<ColumnIndex>,
}

impl ProbePartition {
    /// Partitions `input` from scratch with one probe per row; `proj`
    /// maps a row to its key (`None`: the identity). The kept side is
    /// sized for the whole input up front: filling it grows no table.
    pub(crate) fn full(
        input: &Bindings,
        epoch: u64,
        passing: bool,
        proj: Option<&[usize]>,
        holds_key: &dyn Fn(&Tuple) -> bool,
    ) -> ProbePartition {
        ProbePartition {
            input: input.version,
            epoch,
            passing,
            rows: {
                let mut kept = TupleSet::with_capacity_and_hasher(input.len(), Default::default());
                let rows = input
                    .rows
                    .iter()
                    .filter(|row| probe(proj, row, holds_key) == passing);
                kept.extend(rows.cloned());
                Bindings::build(input.vars.clone(), kept)
            },
            by_key: None,
        }
    }

    /// Advances the partition in place to `input` (= the covered input
    /// plus `added` minus `removed`, as net sets — the relation property
    /// test pins that of every delta at the source) and the window epoch
    /// `epoch`, whose flips since the partition's epoch are `flipped`
    /// (keys). Probes only the additions and the flipped keys. Returns the
    /// net rows the kept side gained and lost (the node's own output
    /// delta).
    ///
    /// When nothing moves, the kept side keeps its version, preserving
    /// downstream fast paths. A side another holder still shares is
    /// copied first (tallied in `scratch`), so the result never depends on
    /// who else is looking.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        (input, epoch): (&Bindings, u64),
        added: &[Tuple],
        removed: &[Tuple],
        flipped: &[Arc<Tuple>],
        proj: Option<&[usize]>,
        holds_key: &dyn Fn(&Tuple) -> bool,
        scratch: &mut Scratch,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        (self.input, self.epoch) = (input.version, epoch);
        for (rows, add) in [(removed, false), (added, true)] {
            for row in rows {
                index(&mut self.by_key, proj, row, add);
            }
        }
        if let (Some(p), None, false) = (proj, &self.by_key, flipped.is_empty()) {
            self.by_key = Some(index_by(input.rows(), p));
        }
        // Whether each flipped key's rows, and each added row, belong on
        // the kept side.
        let keep: Vec<bool> = flipped
            .iter()
            .map(|k| holds_key(k) == self.passing)
            .collect();
        let add: Vec<bool> = (added.iter())
            .map(|row| probe(proj, row, holds_key) == self.passing)
            .collect();
        let kept = &self.rows;
        let moves = removed.iter().any(|r| kept.contains(r))
            || add.contains(&true)
            || flipped.iter().zip(&keep).any(|(key, &keep)| {
                (keyed_rows(&self.by_key, input, key).iter()).any(|r| kept.contains(r) != keep)
            });
        if !moves {
            return (Vec::new(), Vec::new());
        }
        let rows = self.rows.rows_mut(&mut scratch.rows_copied);
        let (mut gained, mut lost) = (Vec::new(), Vec::new());
        // Removals first, so a removed row never also moves (the output
        // deltas must be net sets).
        lost.extend(removed.iter().filter(|r| rows.remove(r)).cloned());
        for (key, &keep) in flipped.iter().zip(&keep) {
            for row in keyed_rows(&self.by_key, input, key) {
                if keep && rows.insert(row.clone()) {
                    gained.push(row.clone());
                } else if !keep && rows.remove(row) {
                    lost.push(row.clone());
                }
            }
        }
        for (row, _) in added.iter().zip(add).filter(|(_, keep)| *keep) {
            if rows.insert(row.clone()) {
                gained.push(row.clone());
            }
        }
        (gained, lost)
    }
}

/// The input rows of a flipped key: filed under it by a projecting
/// partition, or the key itself when the input holds it.
fn keyed_rows<'k>(
    by_key: &'k Option<ColumnIndex>,
    input: &Bindings,
    key: &'k Arc<Tuple>,
) -> &'k [Tuple] {
    match by_key {
        Some(ix) => ix.get(&**key).map_or(&[][..], Vec::as_slice),
        None if input.contains(key) => std::slice::from_ref(&**key),
        None => &[],
    }
}

/// Whether `row`'s key holds: its projection's, or the row's itself.
fn probe(proj: Option<&[usize]>, row: &Tuple, holds_key: &dyn Fn(&Tuple) -> bool) -> bool {
    match proj {
        Some(p) => holds_key(&row.project(p)),
        None => holds_key(row),
    }
}

/// Files `row` under its key in a projecting partition's index, once
/// built (or takes it out).
fn index(by_key: &mut Option<ColumnIndex>, proj: Option<&[usize]>, row: &Tuple, add: bool) {
    let (Some(ix), Some(p)) = (by_key, proj) else {
        return;
    };
    let key = row.project(p);
    if add {
        ix.entry(key).or_default().push(row.clone());
    } else if let Some(rows) = ix.get_mut(&key) {
        rows.retain(|r| r != row);
        if rows.is_empty() {
            ix.remove(&key);
        }
    }
}

impl Scratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Widest join or index key any kernel has probed with (plan
    /// statistics).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Tallies one column block of `rows` rows streamed by a kernel.
    #[inline]
    pub(crate) fn note_block(&mut self, rows: u64) {
        self.blocks += 1;
        self.block_rows += rows;
    }

    /// `(blocks, total rows across blocks)` streamed by the kernels so
    /// far; rows-per-block is their ratio.
    pub fn block_counts(&self) -> (u64, u64) {
        (self.blocks, self.block_rows)
    }

    /// Rows duplicated so far because a row set was shared when a delta
    /// or flip arrived — zero in steady state, where each memoized or
    /// partitioned set has exactly one holder between steps.
    pub fn rows_copied(&self) -> u64 {
        self.rows_copied
    }

    /// The recorded transition that *produced* row-set version `to`, if
    /// any producer left one behind.
    pub(crate) fn delta_into(&self, to: u64) -> Option<&Arc<RowDelta>> {
        self.deltas.values().find(|d| d.to == to)
    }

    /// Turns on per-node profiling: every subsequent planned execution
    /// through this scratch accumulates [`crate::plan::NodeCounters`].
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Vec::new());
        }
    }

    /// Whether profiling is enabled (the executor's one-branch check).
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profile.is_some()
    }

    /// The accumulated per-node counters, indexed by plan node id; `None`
    /// until [`Scratch::enable_profiling`] is called.
    pub fn profile_counters(&self) -> Option<&[crate::plan::NodeCounters]> {
        self.profile.as_deref()
    }

    /// Accumulates one execution into `node_id`'s counter slot. Nodes
    /// compiled outside `EvalPlans::build` carry no id and are skipped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn profile_record(
        &mut self,
        node_id: usize,
        time_ns: u64,
        rows_in: u64,
        rows_out: u64,
        cache: crate::plan::CacheTouch,
        blocks: u64,
        block_rows: u64,
    ) {
        let Some(profile) = self.profile.as_mut() else {
            return;
        };
        if node_id == usize::MAX {
            return;
        }
        if profile.len() <= node_id {
            profile.resize(node_id + 1, crate::plan::NodeCounters::default());
        }
        let slot = &mut profile[node_id];
        slot.calls += 1;
        slot.time_ns += time_ns;
        slot.rows_in += rows_in;
        slot.rows_out += rows_out;
        slot.blocks += blocks;
        slot.block_rows += block_rows;
        match cache {
            crate::plan::CacheTouch::Hit => slot.cache_hits += 1,
            crate::plan::CacheTouch::Miss => slot.cache_misses += 1,
            crate::plan::CacheTouch::Untouched => {}
        }
    }

    fn note_width(&mut self, width: usize) {
        self.high_water = self.high_water.max(width);
    }
}

/// Column source for an output column of a natural join.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Src {
    /// Copy from the left row at this position.
    Left(usize),
    /// Copy from the right row at this position.
    Right(usize),
}

/// Precomputed column maps for a natural join between two known schemas.
///
/// Computable from the variable lists alone, so a compiled plan derives it
/// once; the per-step kernel then only moves values.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct JoinShape {
    /// Output variables (sorted merge of both sides).
    pub(crate) vars: Vec<Var>,
    /// Left-side positions of the shared (join-key) variables.
    pub(crate) lpos: Vec<usize>,
    /// Right-side positions of the shared variables, aligned with `lpos`.
    pub(crate) rpos: Vec<usize>,
    /// Source of each output column.
    pub(crate) srcs: Vec<Src>,
}

impl JoinShape {
    /// Derives the join shape for `left ⋈ right` (both sorted var lists).
    pub(crate) fn compute(left: &[Var], right: &[Var]) -> JoinShape {
        let mut lpos: Vec<usize> = Vec::new();
        let mut rpos: Vec<usize> = Vec::new();
        let mut is_key = vec![false; right.len()];
        for (i, v) in left.iter().enumerate() {
            if let Ok(j) = right.binary_search(v) {
                lpos.push(i);
                rpos.push(j);
                is_key[j] = true;
            }
        }
        // Output variables: left's plus the right's new ones, merged sorted.
        let mut vars = left.to_vec();
        for (j, v) in right.iter().enumerate() {
            if !is_key[j] {
                let at = vars.partition_point(|&u| u < *v);
                vars.insert(at, *v);
            }
        }
        let srcs: Vec<Src> = vars
            .iter()
            .map(|v| match left.binary_search(v) {
                Ok(i) => Src::Left(i),
                // Output vars are the left's plus the right's new ones, so a
                // var absent on the left must come from the right.
                Err(_) => Src::Right(
                    right
                        .binary_search(v)
                        .expect("output variable bound by one side"),
                ),
            })
            .collect();
        JoinShape {
            vars,
            lpos,
            rpos,
            srcs,
        }
    }

    /// The output row joining `l` with its match `r`.
    #[inline]
    fn joined(&self, l: &Tuple, r: &Tuple) -> Tuple {
        let value = |s: &Src| match *s {
            Src::Left(i) => l[i],
            Src::Right(i) => r[i],
        };
        self.srcs.iter().map(value).collect()
    }
}

/// Precomputed classification of an atom's term pattern against a known
/// input schema: which positions are constants, which are already bound,
/// which introduce new variables, and the relation-index key shape.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AtomShape {
    /// Output variables (input's plus the pattern's new ones, sorted).
    pub(crate) vars: Vec<Var>,
    /// Constant pattern positions and their required values.
    pub(crate) const_checks: Vec<(usize, Value)>,
    /// (atom position, input column) pairs for already-bound variables.
    pub(crate) bound_positions: Vec<(usize, usize)>,
    /// New variables with all atom positions they occupy.
    pub(crate) new_vars: Vec<(Var, Vec<usize>)>,
    /// Relation index key: constant positions then bound positions.
    pub(crate) index_cols: Vec<usize>,
    /// Whether any new variable repeats (needs a self-consistency check).
    pub(crate) has_repeats: bool,
    /// Source of each output column: `Ok(input col)` or `Err(new-var idx)`.
    pub(crate) src: Vec<Result<usize, usize>>,
    /// *Identity-shaped*: a unit input, and the sorted output variables
    /// are the relation's columns in order — no constant, no repeated
    /// variable — so the atom's rows are the relation's tuples.
    pub(crate) identity: bool,
}

impl AtomShape {
    /// Classifies `terms` against a sorted input variable list.
    pub(crate) fn compute(input_vars: &[Var], terms: &[Term]) -> AtomShape {
        let mut const_checks: Vec<(usize, Value)> = Vec::new();
        let mut bound_positions: Vec<(usize, usize)> = Vec::new();
        let mut new_vars: Vec<(Var, Vec<usize>)> = Vec::new();
        for (i, t) in terms.iter().enumerate() {
            match t {
                Term::Const(c) => const_checks.push((i, *c)),
                Term::Var(v) => match input_vars.binary_search(v) {
                    Ok(col) => bound_positions.push((i, col)),
                    Err(_) => match new_vars.iter_mut().find(|(u, _)| u == v) {
                        Some((_, ps)) => ps.push(i),
                        None => new_vars.push((*v, vec![i])),
                    },
                },
            }
        }
        let index_cols: Vec<usize> = const_checks
            .iter()
            .map(|&(i, _)| i)
            .chain(bound_positions.iter().map(|&(i, _)| i))
            .collect();
        let has_repeats = new_vars.iter().any(|(_, ps)| ps.len() > 1);
        let mut vars = input_vars.to_vec();
        for (v, _) in &new_vars {
            let at = vars.partition_point(|&u| u < *v);
            vars.insert(at, *v);
        }
        let src: Vec<Result<usize, usize>> = vars
            .iter()
            .map(|v| match input_vars.binary_search(v) {
                Ok(i) => Ok(i),
                // Output vars are the input's plus the pattern's new ones,
                // so a var absent from the input came from the atom.
                Err(_) => Err(new_vars
                    .iter()
                    .position(|(u, _)| u == v)
                    .expect("new output column introduced by the atom pattern")),
            })
            .collect();
        let identity = input_vars.is_empty()
            && const_checks.is_empty()
            && (src.iter().enumerate()).all(|(i, s)| matches!(*s, Err(n) if new_vars[n].1 == [i]));
        AtomShape {
            vars,
            const_checks,
            bound_positions,
            new_vars,
            index_cols,
            has_repeats,
            src,
            identity,
        }
    }

    /// Whether relation tuple `t` binds every repeated variable to one
    /// value.
    fn consistent(&self, t: &Tuple) -> bool {
        !self.has_repeats
            || (self.new_vars.iter()).all(|(_, ps)| ps.windows(2).all(|w| t[w[0]] == t[w[1]]))
    }

    /// The row a unit-input atom makes of relation tuple `t`, if `t`
    /// passes the pattern's constants and repeated variables.
    fn row_of(&self, t: &Tuple) -> Option<Tuple> {
        let passes = self.const_checks.iter().all(|&(i, c)| t[i] == c) && self.consistent(t);
        let column = |s: &Result<usize, usize>| match *s {
            Ok(_) => unreachable!("unit-input atom has no bound input columns"),
            Err(n) => t[self.new_vars[n].1[0]],
        };
        passes.then(|| self.src.iter().map(column).collect())
    }
}

impl Bindings {
    /// The unit: no variables, one (empty) row. Identity for joins;
    /// represents "true".
    pub fn unit() -> Bindings {
        Bindings::build(Vec::new(), TupleSet::from_iter([Tuple::empty()]))
    }

    /// A relation's own storage as a row set over sorted `vars` (its
    /// columns, in order), under the relation's version: O(1).
    pub(crate) fn of_relation(vars: Vec<Var>, rel: &Relation) -> Bindings {
        Bindings {
            vars,
            rows: Arc::clone(rel.rows()),
            version: rel.version(),
        }
    }

    /// A new row set over sorted `vars`, stamped with a fresh version.
    fn build(vars: Vec<Var>, rows: TupleSet) -> Bindings {
        Bindings {
            vars,
            rows: Arc::new(rows),
            version: fresh_version(),
        }
    }

    /// This row set's version token: equal tokens imply equal contents.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The rows for in-place mutation, under a fresh version. When another
    /// holder still shares the storage it is copied first and the copy
    /// tallied in `copied` — results never depend on who else holds it.
    fn rows_mut(&mut self, copied: &mut u64) -> &mut TupleSet {
        if Arc::get_mut(&mut self.rows).is_none() {
            *copied += self.rows.len() as u64;
        }
        self.version = fresh_version();
        Arc::make_mut(&mut self.rows)
    }

    /// No rows over the given variables; represents "false".
    pub fn none(vars: impl IntoIterator<Item = Var>) -> Bindings {
        let mut vars: Vec<Var> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        Bindings::build(vars, TupleSet::default())
    }

    /// Builds from rows whose columns follow `vars` (any order; columns are
    /// canonicalized).
    ///
    /// # Panics
    /// Panics if `vars` contains duplicates or a row's arity mismatches.
    pub fn from_rows(vars: Vec<Var>, rows: impl IntoIterator<Item = Tuple>) -> Bindings {
        let mut order: Vec<usize> = (0..vars.len()).collect();
        order.sort_unstable_by_key(|&i| vars[i]);
        let sorted_vars: Vec<Var> = order.iter().map(|&i| vars[i]).collect();
        assert!(
            sorted_vars.windows(2).all(|w| w[0] != w[1]),
            "duplicate variable in Bindings::from_rows"
        );
        let rows: TupleSet = rows
            .into_iter()
            .map(|t| {
                assert_eq!(t.arity(), vars.len(), "row arity mismatch");
                t.project(&order)
            })
            .collect();
        Bindings::build(sorted_vars, rows)
    }

    /// These rows over sorted `vars`, column `i` read from column `cols[i]`
    /// — the rows shared when there are none or `cols` is empty (every
    /// column in place).
    pub(crate) fn permuted(self, vars: Vec<Var>, cols: &[usize]) -> Bindings {
        if cols.is_empty() || self.is_empty() {
            return Bindings { vars, ..self };
        }
        Bindings::build(vars, self.rows.iter().map(|t| t.project(cols)).collect())
    }

    /// The sorted variable list.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows in arbitrary order. Use [`Bindings::sorted_rows`] at
    /// output boundaries that need byte-stable ordering.
    pub fn rows(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Rows in sorted (lexicographic) order. This is the boundary API:
    /// reports, checkpoints and `Display` sort here — exactly once, at the
    /// edge — so the hash-set interior never leaks nondeterminism into
    /// anything printed or persisted.
    pub fn sorted_rows(&self) -> Vec<&Tuple> {
        let mut rows: Vec<&Tuple> = self.rows.iter().collect();
        rows.sort_unstable();
        rows
    }

    /// Membership test for a row in this binding set's column order.
    pub fn contains(&self, row: &Tuple) -> bool {
        self.rows.contains(row)
    }

    /// Position of `v` in the column order.
    pub fn position(&self, v: Var) -> Option<usize> {
        self.vars.binary_search(&v).ok()
    }

    /// The value a row assigns to a term: the constant itself, or the row's
    /// value for the variable.
    ///
    /// # Panics
    /// Panics when the term is an unbound variable — the safety analysis
    /// guarantees evaluators never ask for one.
    pub fn term_value(&self, row: &Tuple, term: &Term) -> Value {
        match term {
            Term::Const(c) => *c,
            Term::Var(v) => {
                let i = self
                    .position(*v)
                    .unwrap_or_else(|| panic!("unbound variable `{v}` (safety analysis bug)"));
                row[i]
            }
        }
    }

    /// Keeps only rows satisfying `pred`.
    pub fn filter(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Bindings {
        let rows = self.rows.iter().filter(|r| pred(r)).cloned().collect();
        Bindings::build(self.vars.clone(), rows)
    }

    /// Union; both sides must have the same variables.
    pub fn union(&self, other: &Bindings) -> Bindings {
        assert_eq!(self.vars, other.vars, "union over different variable sets");
        let rows = self.rows.union(&other.rows).cloned().collect();
        Bindings::build(self.vars.clone(), rows)
    }

    /// Sets each `(row, present)` in place — inserted or removed — under a
    /// fresh version (the maintained extension of a window, from its
    /// flips). Keeps the version when there is nothing to set.
    pub(crate) fn set_rows<'r>(&mut self, rows: impl ExactSizeIterator<Item = (&'r Tuple, bool)>) {
        if rows.len() == 0 {
            return;
        }
        let set = self.rows_mut(&mut 0);
        for (row, present) in rows {
            if present {
                set.insert(row.clone());
            } else {
                set.remove(row);
            }
        }
    }

    /// In-place union; both sides must have the same variables. Use this
    /// in accumulation loops — repeated [`Bindings::union`] is quadratic.
    pub fn union_in_place(&mut self, other: &Bindings) {
        assert_eq!(self.vars, other.vars, "union over different variable sets");
        self.rows_mut(&mut 0).extend(other.rows.iter().cloned());
    }

    /// Projection onto `keep` (must be a subset of the variables);
    /// deduplicates. Projecting onto the full variable list is the
    /// identity and shares the row storage instead of rebuilding it.
    pub fn project(&self, keep: &[Var]) -> Bindings {
        let mut keep: Vec<Var> = keep.to_vec();
        keep.sort_unstable();
        keep.dedup();
        if keep == self.vars {
            return self.clone();
        }
        let positions: Vec<usize> = keep
            .iter()
            .map(|v| self.position(*v).expect("projection variable not present"))
            .collect();
        let rows = self.rows.iter().map(|r| r.project(&positions)).collect();
        Bindings::build(keep, rows)
    }

    /// Drops the variables in `remove` (projection onto the complement).
    pub fn project_away(&self, remove: &[Var]) -> Bindings {
        let mut remove: Vec<Var> = remove.to_vec();
        remove.sort_unstable();
        let keep: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|v| remove.binary_search(v).is_err())
            .collect();
        self.project(&keep)
    }

    /// Refreshes a memoized **unit-input atom scan** in place from its
    /// relation's net delta, instead of rescanning the relation.
    ///
    /// Sound because a unit-input atom's tuple→row mapping is injective on
    /// the tuples that pass its constant and repeated-variable checks:
    /// every atom position is either a constant or a new-variable position,
    /// so the output row determines the source tuple. A net tuple change is
    /// therefore a net row change: one set operation per row, and the
    /// mapped lists are the scan's own net delta, returned as
    /// `(added, removed)`.
    ///
    /// O(|delta|) when this is the row set's only holder; a set still
    /// shared is copied first and tallied in `scratch`. A delta none of
    /// whose tuples pass keeps the version.
    pub(crate) fn apply_atom_delta(
        &mut self,
        shape: &AtomShape,
        delta: &RowDelta,
        scratch: &mut Scratch,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        debug_assert!(
            shape.bound_positions.is_empty(),
            "delta refresh requires a unit-input atom"
        );
        scratch.note_block((delta.added.len() + delta.removed.len()) as u64);
        let added: Vec<Tuple> = delta.added.iter().filter_map(|t| shape.row_of(t)).collect();
        let removed: Vec<Tuple> = (delta.removed.iter())
            .filter_map(|t| shape.row_of(t))
            .collect();
        if !(added.is_empty() && removed.is_empty()) {
            let rows = self.rows_mut(&mut scratch.rows_copied);
            for row in &removed {
                rows.remove(row);
            }
            rows.extend(added.iter().cloned());
        }
        (added, removed)
    }

    /// Extends every row with `v = value`. `v` must be new.
    pub fn extend_const(&self, v: Var, value: Value) -> Bindings {
        self.extend_with(v, |_| value)
    }

    /// Extends every row with `v` bound to a row-dependent value. `v` must
    /// be new.
    pub fn extend_with(&self, v: Var, mut value: impl FnMut(&Tuple) -> Value) -> Bindings {
        assert!(
            self.position(v).is_none(),
            "extend_with: variable already bound"
        );
        let mut vars = self.vars.clone();
        let insert_at = vars.partition_point(|&u| u < v);
        vars.insert(insert_at, v);
        let rows: TupleSet = self
            .rows
            .iter()
            .map(|r| {
                let mut vals: Vec<Value> = r.values().to_vec();
                vals.insert(insert_at, value(r));
                Tuple::new(vals)
            })
            .collect();
        Bindings::build(vars, rows)
    }

    /// Natural join on shared variables.
    pub fn natural_join(&self, other: &Bindings) -> Bindings {
        let shape = JoinShape::compute(&self.vars, &other.vars);
        self.natural_join_shaped(other, &shape, &mut Scratch::new())
    }

    /// Natural join through a precomputed [`JoinShape`]. `shape` must have
    /// been computed from exactly `(self.vars, other.vars)`.
    pub(crate) fn natural_join_shaped(
        &self,
        other: &Bindings,
        shape: &JoinShape,
        scratch: &mut Scratch,
    ) -> Bindings {
        // The unit is the identity: hand `other` back, version and all.
        if self.vars.is_empty() && self.len() == 1 {
            return other.clone();
        }
        // Build side `other`, probe side `self`: each streamed as a block,
        // noted before an empty side returns so the statistics read alike.
        scratch.note_width(shape.lpos.len());
        scratch.note_block(other.len() as u64);
        scratch.note_block(self.len() as u64);
        if self.is_empty() || other.is_empty() {
            return Bindings::build(shape.vars.clone(), TupleSet::default());
        }
        let mut table: TupleMap<Vec<&Tuple>> =
            TupleMap::with_capacity_and_hasher(other.len(), Default::default());
        for r in other.rows() {
            table.entry(r.project(&shape.rpos)).or_default().push(r);
        }
        let mut rows = TupleSet::with_capacity_and_hasher(self.len(), Default::default());
        for l in self.rows() {
            if let Some(matches) = table.get(&l.project(&shape.lpos)) {
                rows.extend(matches.iter().map(|r| shape.joined(l, r)));
            }
        }
        Bindings::build(shape.vars.clone(), rows)
    }

    /// Anti-semijoin: rows of `self` whose projection onto `other`'s
    /// variables is **not** in `other`. `other.vars ⊆ self.vars` required.
    pub fn antijoin(&self, other: &Bindings) -> Bindings {
        let pos: Vec<usize> = other
            .vars
            .iter()
            .map(|v| self.position(*v).expect("antijoin variables must be bound"))
            .collect();
        self.filter(|r| !other.rows.contains(&r.project(&pos)))
    }

    /// Semijoin: rows of `self` whose projection onto `other`'s variables
    /// **is** in `other`.
    pub fn semijoin(&self, other: &Bindings) -> Bindings {
        let pos: Vec<usize> = other
            .vars
            .iter()
            .map(|v| self.position(*v).expect("semijoin variables must be bound"))
            .collect();
        self.filter(|r| other.rows.contains(&r.project(&pos)))
    }

    /// Joins with a database relation through an atom's term pattern,
    /// binding the pattern's new variables.
    ///
    /// For every input row and every relation tuple that agrees with the
    /// row on already-bound variables and with the pattern's constants
    /// (and is self-consistent on repeated new variables), the output
    /// contains the row extended with the new variables' values.
    pub fn join_atom(&self, rel: &Relation, terms: &[Term]) -> Bindings {
        let shape = AtomShape::compute(&self.vars, terms);
        self.join_atom_shaped(rel, &shape, &mut Scratch::new())
    }

    /// Atom join through a precomputed [`AtomShape`]. `shape` must have
    /// been computed from exactly `(self.vars, terms)`.
    pub(crate) fn join_atom_shaped(
        &self,
        rel: &Relation,
        shape: &AtomShape,
        scratch: &mut Scratch,
    ) -> Bindings {
        // The scan streams the input rows as one block. No input rows
        // return before `index_on`, which could rebuild a whole index.
        scratch.note_width(shape.index_cols.len());
        scratch.note_block(self.rows.len() as u64);
        if self.is_empty() {
            return Bindings::build(shape.vars.clone(), TupleSet::default());
        }
        // Probe through the relation's cached index, keyed by the constant
        // positions followed by the bound-variable positions — the index is
        // built once per relation version and shared by every atom
        // evaluation with the same shape. Size the output for the common
        // one-match-per-probe case up front.
        let index = rel.index_on(&shape.index_cols);
        let mut rows =
            TupleSet::with_capacity_and_hasher(self.rows.len().max(rel.len()), Default::default());
        for l in self.rows.iter() {
            let key: Tuple = (shape.const_checks.iter().map(|&(_, c)| c))
                .chain(shape.bound_positions.iter().map(|&(_, col)| l[col]))
                .collect();
            let Some(matches) = index.get(&key) else {
                continue;
            };
            for t in matches.iter().filter(|t| shape.consistent(t)) {
                rows.insert(
                    shape
                        .src
                        .iter()
                        .map(|s| match *s {
                            Ok(i) => l[i],
                            Err(n) => t[shape.new_vars[n].1[0]],
                        })
                        .collect::<Tuple>(),
                );
            }
        }
        Bindings::build(shape.vars.clone(), rows)
    }
}

impl fmt::Display for Bindings {
    /// Renders [`Bindings::sorted_rows`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (n, row) in self.sorted_rows().into_iter().enumerate() {
            if n > 0 {
                f.write_str(", ")?;
            }
            f.write_str("[")?;
            for (i, v) in self.vars.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{v}={}", row[i])?;
            }
            f.write_str("]")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{tuple, Schema, Sort};
    use rtic_temporal::var;

    fn b(vars: &[&str], rows: Vec<Tuple>) -> Bindings {
        Bindings::from_rows(vars.iter().map(|v| var(v)).collect(), rows)
    }

    #[test]
    fn a_partition_advances_to_what_a_fresh_one_would_be() {
        let rows = |ks: &[i64]| -> Vec<Tuple> { ks.iter().map(|&k| tuple![k]).collect() };
        let sorted = |mut v: Vec<Tuple>| {
            v.sort();
            v
        };
        let shared = |v: Vec<Tuple>| -> Vec<Arc<Tuple>> { v.into_iter().map(Arc::new).collect() };
        // Keys below the bar pass: one partition keeps those, the other —
        // as under a negation — the rest.
        let bar = |n: i64| move |r: &Tuple| r[0] < Value::Int(n);
        let input = b(&["k"], rows(&[1, 2, 3, 4, 5, 6]));
        let now = b(&["k"], rows(&[0, 2, 3, 4, 6, 9]));
        let (added, removed) = (rows(&[0, 9]), rows(&[1, 5]));
        // (kept side, its (gained, lost) as the bar rises, then drops back)
        for (passing, up, down) in [
            (true, [&[0, 3, 4][..], &[1]], [&[][..], &[3, 4]]),
            (false, [&[9][..], &[3, 4, 5]], [&[3, 4][..], &[]]),
        ] {
            let mut part = ProbePartition::full(&input, 0, passing, None, &bar(3));
            let mut scratch = Scratch::new();
            // The bar rises to 6: 3, 4 and 5 flip — beside a removed row
            // that passed (1), a removed row that flipped (5) and two
            // additions.
            let flips = shared(rows(&[3, 4, 5]));
            let (gained, lost) = part.advance(
                (&now, 1),
                &added,
                &removed,
                &flips,
                None,
                &bar(6),
                &mut scratch,
            );
            assert_eq!((sorted(gained), sorted(lost)), (rows(up[0]), rows(up[1])));
            let fresh = ProbePartition::full(&now, 1, passing, None, &bar(6));
            assert_eq!(part.rows, fresh.rows, "{passing}");
            assert_eq!((part.input, part.epoch), (now.version(), 1));
            // The bar drops to 3 (a revocation): 3 and 4 flip back.
            let flips = shared(rows(&[3, 4]));
            let (gained, lost) =
                part.advance((&now, 2), &[], &[], &flips, None, &bar(3), &mut scratch);
            assert_eq!(
                (sorted(gained), sorted(lost)),
                (rows(down[0]), rows(down[1]))
            );
            let fresh = ProbePartition::full(&now, 2, passing, None, &bar(3));
            assert_eq!(part.rows, fresh.rows, "{passing}");
            // Nothing moves: the kept side keeps its version.
            let version = part.rows.version();
            let (gained, lost) =
                part.advance((&now, 3), &[], &[], &flips, None, &bar(3), &mut scratch);
            assert!(gained.is_empty() && lost.is_empty());
            assert_eq!((part.rows.version(), scratch.rows_copied()), (version, 0));
        }
    }

    #[test]
    fn a_projecting_partition_moves_every_row_of_a_flipped_key() {
        // Rows (k, i) probed on k: a flip of k moves all of its rows.
        let rows = |ks: &[(i64, i64)]| {
            b(
                &["pk", "pi"],
                ks.iter().map(|&(k, i)| tuple![k, i]).collect(),
            )
        };
        let input = rows(&[(1, 1), (1, 2), (2, 3)]);
        let now = rows(&[(1, 1), (1, 2), (1, 4), (2, 3)]);
        let proj = [input.position(var("pk")).unwrap()];
        let is = |n: i64| move |k: &Tuple| k[0] == Value::Int(n);
        let mut part = ProbePartition::full(&input, 0, true, Some(&proj), &is(2));
        assert_eq!(part.rows.len(), 1);
        let mut scratch = Scratch::new();
        let added: Vec<Tuple> = rows(&[(1, 4)]).rows().cloned().collect();
        let flips = vec![Arc::new(tuple![1]), Arc::new(tuple![2])];
        let (gained, lost) = part.advance(
            (&now, 1),
            &added,
            &[],
            &flips,
            Some(&proj),
            &is(1),
            &mut scratch,
        );
        assert_eq!((gained.len(), lost.len()), (3, 1));
        let fresh = ProbePartition::full(&now, 1, true, Some(&proj), &is(1));
        assert_eq!(part.rows, fresh.rows);
    }

    #[test]
    fn unit_and_none() {
        assert_eq!(Bindings::unit().len(), 1);
        assert!(Bindings::none([var("x")]).is_empty());
        assert_eq!(Bindings::none([var("x")]).vars(), &[var("x")]);
    }

    #[test]
    fn from_rows_canonicalizes_column_order() {
        // Note: Symbol order is intern order, so intern in a known order.
        let (a, z) = (var("col_a"), var("col_z"));
        let fwd = Bindings::from_rows(vec![a, z], vec![tuple![1, 2]]);
        let rev = Bindings::from_rows(vec![z, a], vec![tuple![2, 1]]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn natural_join_on_shared() {
        let l = b(&["jx", "jy"], vec![tuple![1, 10], tuple![2, 20]]);
        let r = b(
            &["jy", "jz"],
            vec![tuple![10, 100], tuple![10, 101], tuple![30, 300]],
        );
        let j = l.natural_join(&r);
        assert_eq!(j.len(), 2);
        assert_eq!(j.vars().len(), 3);
        let l2 = b(&["jx"], vec![tuple![5]]);
        let cross = l2.natural_join(&b(&["jw"], vec![tuple![7], tuple![8]]));
        assert_eq!(cross.len(), 2, "no shared vars means cross product");
    }

    #[test]
    fn natural_join_with_unit_is_identity() {
        let l = b(&["ux"], vec![tuple![1], tuple![2]]);
        assert_eq!(l.natural_join(&Bindings::unit()), l);
        assert_eq!(Bindings::unit().natural_join(&l), l);
    }

    /// The natural join as a nested loop over both sides: the reference
    /// the hash kernel must match.
    fn nested_loop_join(l: &Bindings, r: &Bindings) -> Bindings {
        let shared: Vec<(usize, usize)> = (l.vars().iter().enumerate())
            .filter_map(|(i, v)| Some((i, r.position(*v)?)))
            .collect();
        let fresh: Vec<usize> = (0..r.vars().len())
            .filter(|j| !shared.iter().any(|&(_, k)| k == *j))
            .collect();
        let mut vars = l.vars().to_vec();
        vars.extend(fresh.iter().map(|&j| r.vars()[j]));
        let mut rows = Vec::new();
        for lr in l.rows() {
            for rr in r.rows() {
                if shared.iter().all(|&(i, j)| lr[i] == rr[j]) {
                    let tail = fresh.iter().map(|&j| rr[j]);
                    rows.push(lr.values().iter().copied().chain(tail).collect());
                }
            }
        }
        Bindings::from_rows(vars, rows)
    }

    /// `n` rows over `width` key columns `jk0…`, which every side shares,
    /// plus a column of the side's own, `{p}own`: keys repeat every three
    /// rows, so two sides match many-to-many.
    fn keyed(p: &str, width: usize, n: i64) -> Bindings {
        let mut names: Vec<String> = (0..width).map(|j| format!("jk{j}")).collect();
        names.push(format!("{p}own"));
        let vars = names.iter().map(|v| var(v)).collect();
        let row = |i: i64| {
            (0..width as i64)
                .map(|j| Value::Int((i * (j + 1)) % 3))
                .chain([Value::Int(i)])
                .collect()
        };
        Bindings::from_rows(vars, (0..n).map(row))
    }

    #[test]
    fn shaped_join_matches_unshaped_and_reuses_scratch() {
        let l = b(&["jx", "jy"], vec![tuple![1, 10], tuple![2, 20]]);
        let r = b(&["jy", "jz"], vec![tuple![10, 100], tuple![20, 200]]);
        let shape = JoinShape::compute(l.vars(), r.vars());
        let mut scratch = Scratch::new();
        let shaped = l.natural_join_shaped(&r, &shape, &mut scratch);
        assert_eq!(shaped, l.natural_join(&r));
        assert_eq!(scratch.high_water(), 1, "one shared join-key column");
        // Key widths 0 (a cross product) to 5 (a key past a tuple's inline
        // arity), against a nested loop; an empty side and the unit too.
        for width in [0, 1, 2, 4, 5] {
            let (l, r) = (keyed("jl", width, 9), keyed("jr", width, 7));
            let empty = Bindings::none(r.vars().iter().copied());
            for (l, r) in [(&l, &r), (&r, &l), (&l, &empty), (&empty, &l)] {
                let shape = JoinShape::compute(l.vars(), r.vars());
                let mut scratch = Scratch::new();
                let joined = l.natural_join_shaped(r, &shape, &mut scratch);
                assert_eq!(joined, nested_loop_join(l, r), "width {width}");
                assert_eq!(scratch.high_water(), width, "width {width}");
            }
            for (l, r) in [(&l, &Bindings::unit()), (&Bindings::unit(), &l)] {
                let shape = JoinShape::compute(l.vars(), r.vars());
                let joined = l.natural_join_shaped(r, &shape, &mut Scratch::new());
                assert_eq!(joined, nested_loop_join(l, r), "width {width}");
            }
        }
    }

    #[test]
    fn every_hash_join_notes_both_sides_as_blocks() {
        for width in [0, 1, 2, 4, 5] {
            let (l, r) = (keyed("bl", width, 9), keyed("br", width, 7));
            let empty = Bindings::none(r.vars().iter().copied());
            for (l, r) in [(&l, &r), (&l, &empty)] {
                let shape = JoinShape::compute(l.vars(), r.vars());
                let mut scratch = Scratch::new();
                l.natural_join_shaped(r, &shape, &mut scratch);
                let rows = (l.len() + r.len()) as u64;
                assert_eq!(scratch.block_counts(), (2, rows), "width {width}");
            }
        }
    }

    #[test]
    fn semijoin_antijoin() {
        let l = b(&["sx", "sy"], vec![tuple![1, 10], tuple![2, 20]]);
        let keys = b(&["sx"], vec![tuple![1]]);
        assert_eq!(l.semijoin(&keys).len(), 1);
        assert_eq!(l.antijoin(&keys).len(), 1);
    }

    #[test]
    fn project_and_project_away() {
        let l = b(&["px", "py"], vec![tuple![1, 10], tuple![2, 10]]);
        let p = l.project(&[var("py")]);
        assert_eq!(p.len(), 1, "deduplicated");
        assert_eq!(l.project_away(&[var("px")]), p);
    }

    #[test]
    fn sorted_rows_are_lexicographic() {
        let l = b(&["ox"], vec![tuple![3], tuple![1], tuple![2]]);
        let sorted: Vec<&Tuple> = l.sorted_rows();
        assert_eq!(sorted, vec![&tuple![1], &tuple![2], &tuple![3]]);
        assert_eq!(l.to_string(), "{[ox=1], [ox=2], [ox=3]}");
    }

    #[test]
    fn extend_const_inserts_sorted() {
        let l = b(&["ex"], vec![tuple![1]]);
        let e = l.extend_const(var("ey"), Value::Int(9));
        assert_eq!(e.vars().len(), 2);
        let col = e.position(var("ey")).unwrap();
        for r in e.rows() {
            assert_eq!(r[col], Value::Int(9));
        }
    }

    fn rel(rows: Vec<Tuple>) -> Relation {
        Relation::from_tuples(Schema::of(&[("a", Sort::Int), ("b", Sort::Int)]), rows).unwrap()
    }

    /// The atom join as a filtering scan of every (input row, tuple)
    /// pair: the reference the index probe must match.
    fn filtering_scan(input: &Bindings, rel: &Relation, terms: &[Term]) -> Bindings {
        let mut new: Vec<Var> = Vec::new();
        for t in terms {
            if let Term::Var(v) = t {
                if input.position(*v).is_none() && !new.contains(v) {
                    new.push(*v);
                }
            }
        }
        let mut vars = input.vars().to_vec();
        vars.extend(&new);
        let mut rows = Vec::new();
        for l in input.rows() {
            for t in rel.iter() {
                let mut bound: Vec<Option<Value>> = vec![None; new.len()];
                let passes = (terms.iter().enumerate()).all(|(i, term)| match term {
                    Term::Const(c) => t[i] == *c,
                    Term::Var(v) => match (input.position(*v), new.iter().position(|u| u == v)) {
                        (Some(col), _) => t[i] == l[col],
                        (None, Some(n)) => *bound[n].get_or_insert(t[i]) == t[i],
                        (None, None) => unreachable!("every variable is bound or new"),
                    },
                });
                if passes {
                    let tail = bound.into_iter().map(|v| v.expect("new variable bound"));
                    rows.push(l.values().iter().copied().chain(tail).collect());
                }
            }
        }
        Bindings::from_rows(vars, rows)
    }

    /// A five-column relation: about two in five of the 3⁵ rows over
    /// `{0, 1, 2}`.
    fn rel5() -> Relation {
        let schema = ["c0", "c1", "c2", "c3", "c4"].map(|c| (c, Sort::Int));
        let digits = |i: i64| {
            (0..5)
                .map(move |j| Value::Int(i / 3_i64.pow(j) % 3))
                .collect()
        };
        let rows = (0..243).filter(|i| i * 7 % 5 < 2).map(digits);
        Relation::from_tuples(Schema::of(&schema), rows).unwrap()
    }

    /// An atom over [`rel5`] whose first `width` positions are bound by the
    /// input (`ab0…`, beside an input column `aio` the atom does not
    /// read), the rest a constant, a repeated new variable, another new
    /// variable and a second constant; and that input.
    fn bound_atom(width: usize) -> (Bindings, Vec<Term>) {
        let rest = [
            Term::int(1),
            Term::var("an"),
            Term::var("an"),
            Term::var("am"),
            Term::int(0),
        ];
        let bound: Vec<String> = (0..width).map(|j| format!("ab{j}")).collect();
        let terms: Vec<Term> = (bound.iter().map(|v| Term::var(v.as_str())))
            .chain(rest.iter().take(5 - width).cloned())
            .collect();
        let mut vars: Vec<Var> = bound.iter().map(|v| var(v)).collect();
        vars.push(var("aio"));
        let row = |i: i64| {
            (0..width as i64)
                .map(|j| Value::Int((i * (j + 1) + i / 4) % 3))
                .chain([Value::Int(i)])
                .collect()
        };
        (Bindings::from_rows(vars, (0..24).map(row)), terms)
    }

    #[test]
    fn join_atom_matches_a_filtering_scan() {
        let r = rel5();
        // Bound widths 0–5, with constants and a repeated new variable
        // beside them: index keys up to five columns wide.
        for width in 0..=5 {
            let (input, terms) = bound_atom(width);
            let empty = Bindings::none(input.vars().iter().copied());
            for input in [&input, &empty, &Bindings::unit()] {
                let shape = AtomShape::compute(input.vars(), &terms);
                let mut scratch = Scratch::new();
                let out = input.join_atom_shaped(&r, &shape, &mut scratch);
                assert_eq!(out, filtering_scan(input, &r, &terms), "width {width}");
                assert_eq!(
                    scratch.high_water(),
                    shape.index_cols.len(),
                    "width {width}"
                );
            }
        }
    }

    #[test]
    fn join_atom_reuses_its_index_until_an_edit() {
        let mut r = rel5();
        let (input, terms) = bound_atom(2);
        let shape = AtomShape::compute(input.vars(), &terms);
        let mut scratch = Scratch::new();
        let first = input.join_atom_shaped(&r, &shape, &mut scratch);
        let index = r.index_on(&shape.index_cols);
        let second = input.join_atom_shaped(&r, &shape, &mut scratch);
        assert!(Arc::ptr_eq(&index, &r.index_on(&shape.index_cols)));
        assert_eq!(first, second);
        assert_eq!(second, filtering_scan(&input, &r, &terms));
        // An edit drops the index; the next probe rebuilds it and sees
        // the new tuple.
        let (x, y) = (var("ab0"), var("ab1"));
        let (x, y) = (input.position(x).unwrap(), input.position(y).unwrap());
        let mut candidates = input.rows().flat_map(|l| {
            let (x, y) = (l[x], l[y]);
            (0..3).map(move |z| Tuple::new([x, y, Value::Int(1), Value::Int(z), Value::Int(z)]))
        });
        let absent = candidates.find(|t| !r.contains(t)).unwrap();
        r.insert(absent).unwrap();
        let third = input.join_atom_shaped(&r, &shape, &mut scratch);
        assert!(!Arc::ptr_eq(&index, &r.index_on(&shape.index_cols)));
        assert_eq!(third, filtering_scan(&input, &r, &terms));
        assert!(
            third.len() > second.len(),
            "the new tuple matches an input row"
        );
    }

    #[test]
    fn join_atom_binds_new_vars() {
        let r = rel(vec![tuple![1, 10], tuple![2, 20]]);
        let out = Bindings::unit().join_atom(&r, &[Term::var("ja"), Term::var("jb")]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.vars().len(), 2);
    }

    #[test]
    fn join_atom_respects_bound_vars() {
        let r = rel(vec![tuple![1, 10], tuple![2, 20]]);
        let input = b(&["ka"], vec![tuple![1]]);
        let out = input.join_atom(&r, &[Term::var("ka"), Term::var("kb")]);
        assert_eq!(out.len(), 1);
        let row = out.rows().next().unwrap();
        assert_eq!(row[out.position(var("kb")).unwrap()], Value::Int(10));
    }

    #[test]
    fn join_atom_checks_constants() {
        let r = rel(vec![tuple![1, 10], tuple![2, 20]]);
        let out = Bindings::unit().join_atom(&r, &[Term::int(2), Term::var("cb")]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn join_atom_repeated_new_var_requires_equality() {
        let r = rel(vec![tuple![3, 3], tuple![4, 5]]);
        let out = Bindings::unit().join_atom(&r, &[Term::var("rv"), Term::var("rv")]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn term_value_reads_consts_and_columns() {
        let l = b(&["tx"], vec![tuple![5]]);
        let row = l.rows().next().unwrap().clone();
        assert_eq!(l.term_value(&row, &Term::int(9)), Value::Int(9));
        assert_eq!(l.term_value(&row, &Term::var("tx")), Value::Int(5));
    }

    #[test]
    fn union_requires_same_vars() {
        let a = b(&["uv"], vec![tuple![1]]);
        let c = b(&["uv"], vec![tuple![2]]);
        assert_eq!(a.union(&c).len(), 2);
    }

    #[test]
    #[should_panic(expected = "different variable sets")]
    fn union_panics_on_mismatch() {
        let a = b(&["u1"], vec![]);
        let c = b(&["u2"], vec![]);
        let _ = a.union(&c);
    }
}
