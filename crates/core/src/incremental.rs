//! The incremental checker — the paper's contribution.
//!
//! Holds only the current database state plus the bounded auxiliary state
//! of [`crate::encode`]. Each step:
//!
//! 1. applies the update to the current state;
//! 2. advances every temporal node **children-first**: the node's operand
//!    extensions at the *new* state are computed by the shared evaluator
//!    (inner temporal nodes answer from their already-advanced state), then
//!    the node's auxiliary state absorbs them;
//! 3. evaluates the denial body over the new state, answering temporal
//!    subformulas from the auxiliary state (by O(1) membership probes when
//!    the variables are already bound — see [`crate::eval::Oracle`]); any
//!    satisfying assignment is a violation witness.
//!
//! No past state is read at any point — the update is a function of the
//! previous auxiliary state and the new database state only, which is what
//! makes the space bound (experiment T1) and the history-independent step
//! time (experiment F1) hold.
//!
//! One constraint's aux machinery is a [`NodeEngine`]. The step loop —
//! monotonicity, step 1, the sleep of an untouched engine, steps 2–3, the
//! step count — exists once, in [`ConstraintSet::step_observed`], which
//! advances any number of engines over one database; an
//! [`IncrementalChecker`] is a set of one.

use std::collections::VecDeque;
use std::sync::Arc;

use rtic_history::HistoryError;
use rtic_relation::{Catalog, Database, FastMap, Tuple, Update};
use rtic_temporal::ast::Formula;
use rtic_temporal::time::Duration;
use rtic_temporal::{Constraint, TimePoint};

use crate::binding::{Bindings, Scratch};
use crate::checker::Checker;
use crate::compile::CompiledConstraint;
use crate::encode::{IndexBug, PrevState, RunRelation, RunView, NEVER};
use crate::error::CompileError;
use crate::eval::{eval, Flips, Node, Oracle};
use crate::plan::NodePlans;
use crate::report::{SpaceStats, StepReport};
use crate::set::ConstraintSet;

/// Auxiliary state of one temporal node: `prev` keeps its operand's
/// previous rows, `once`/`since`/`hist` a run relation.
#[derive(Clone, Debug)]
pub(crate) enum NodeState {
    Prev(PrevState),
    Runs(Box<RunRelation>),
}

/// A temporal node's state as a catch-up of the deferred states would
/// leave it (see [`NodeEngine::settled`]).
pub(crate) enum Settled<'a> {
    /// A `prev` node, and the newest state if a catch-up moves it there.
    Prev(&'a PrevState, Option<TimePoint>),
    Runs(RunView<'a>),
}

impl Settled<'_> {
    /// `(keys, timestamps)` stored.
    fn space(&self) -> (usize, usize) {
        match self {
            Settled::Prev(p, _) => p.space(),
            Settled::Runs(r) => r.space(),
        }
    }
}

/// A snapshot of one temporal node's auxiliary footprint
/// (see [`IncrementalChecker::node_stats`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeStat {
    /// The subformula, pretty-printed.
    pub formula: String,
    /// Live keys in the node's auxiliary structure.
    pub keys: usize,
    /// Timestamps/endpoints currently stored.
    pub timestamps: usize,
    /// Operand rows its maintenance has read so far: each step's row
    /// delta, or — the version chain broken — the whole operand.
    pub streamed: u64,
}

/// Options tuning how the encoding is evaluated and observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingOptions {
    /// Evaluate through the interpreting [`eval`] instead of the compiled
    /// plans — the reference mode for the differential oracle and for the
    /// plan-vs-interpret benchmarks. Reports are byte-identical either way.
    pub interpret_eval: bool,
    /// Collect per-plan-node profiler counters (wall time, cardinalities,
    /// memo-cache hits) for [`IncrementalChecker::plan_profile`]; reports stay
    /// byte-identical. Ignored under `interpret_eval` (no plan nodes to profile).
    pub profile_plans: bool,
    /// Accepted and ignored: the columnar kernels this used to select are
    /// the only compiled path now. The field survives because the frozen
    /// `benchmark/` crate still names it; the next benchmark PR drops it.
    pub vectorize: bool,
}

/// The two bugs the sleep mechanism invites, planted by the differential
/// oracle's mutation smoke ([`IncrementalChecker::arm_sleep_bug`]).
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SleepBug {
    /// Every deadline is reported one tick late.
    LateDeadline,
    /// Catch-up drops the newest deferred tick.
    ShortCatchUp,
}

/// What a node's maintenance remembers between steps.
#[derive(Clone, Debug, Default)]
struct Seen {
    /// Version of the operand extension (`since`: the anchors) last
    /// absorbed — a recorded row delta from it is all the next step reads.
    operand: Option<u64>,
    /// `since` with its maintained formula `f` planned from unit: the
    /// version of `f`'s extension last read…
    f: Option<u64>,
    /// …and the anchors that failed `f` there.
    unchecked: Vec<Tuple>,
    /// Whether the node may sleep: it has advanced, and (`since`) every
    /// anchor key had already passed `f` — what it keeps absorbing while
    /// the engine sleeps is then its operand as last seen.
    settles: bool,
    /// See [`NodeStat::streamed`].
    streamed: u64,
}

/// The net `(added, removed)` rows that turned the row set a consumer last
/// saw (`last`, now updated to `sat`'s version) into `sat`: nothing for the
/// same version, the producer's recorded delta when it chains from there,
/// `None` when the chain broke — the consumer rebuilds.
fn chained<'s>(
    scratch: &'s Scratch,
    last: &mut Option<u64>,
    sat: &Bindings,
) -> Option<(&'s [Tuple], &'s [Tuple])> {
    let to = sat.version();
    match last.replace(to) {
        Some(from) if from == to => Some((&[], &[])),
        from => scratch
            .delta_into(to)
            .filter(|d| Some(d.from) == from)
            .map(|d| (d.added.as_slice(), d.removed.as_slice())),
    }
}

/// The operand rows a node's maintenance reads: the row delta, or — a
/// rebuild — every row.
fn streamed(delta: Option<(&[Tuple], &[Tuple])>, sat: &Bindings) -> u64 {
    delta.map_or(sat.len(), |(added, removed)| added.len() + removed.len()) as u64
}

/// One compiled constraint's bounded auxiliary state, advanced against the
/// database of the [`ConstraintSet`] that owns it.
#[derive(Clone, Debug)]
pub(crate) struct NodeEngine {
    /// Shared, not owned: every clone of the engine steps the same
    /// compiled form.
    pub(crate) compiled: Arc<CompiledConstraint>,
    pub(crate) states: Vec<NodeState>,
    /// Cached pre-update extensions for `prev` nodes (`None` for node
    /// kinds whose extension is answered lazily from their state).
    extensions: Vec<Option<Bindings>>,
    pub(crate) last_time: Option<TimePoint>,
    /// Per node, what its maintenance remembers between steps.
    seen: Vec<Seen>,
    /// The last step's violations, replayed while the engine sleeps and
    /// released before the plans run, so a refresh finds its rows unshared.
    last_violations: Option<Bindings>,
    /// The earliest time some node's answer can differ while the
    /// constraint's relations stay untouched; computed the first time the
    /// engine is found quiescent after an [`NodeEngine::advance`].
    deadline: Option<TimePoint>,
    /// States deferred while asleep, ascending: every tick younger than
    /// `tick_bound` plus the newest older one (all a catch-up can need).
    pending: VecDeque<TimePoint>,
    /// The largest finite bound (for an unbounded interval, its lower
    /// bound) among the temporal nodes.
    tick_bound: Duration,
    /// Fault injection for the oracle's mutation smoke.
    sleep_bug: Option<SleepBug>,
    /// Evaluate through the interpreter instead of the compiled plans.
    interpret: bool,
    /// The planned kernels' memo, row deltas and probe partitions.
    scratch: Scratch,
}

impl NodeEngine {
    pub(crate) fn new(compiled: Arc<CompiledConstraint>, options: EncodingOptions) -> NodeEngine {
        let state = |node: &Formula| {
            let (i, vars) = (
                node.interval().expect("temporal node"),
                node.sorted_free_vars(),
            );
            let hist = matches!(node, Formula::Hist(..));
            match node {
                Formula::Prev(..) => NodeState::Prev(PrevState::new(i, vars)),
                _ => NodeState::Runs(Box::new(RunRelation::new(i, vars, hist))),
            }
        };
        let mut states: Vec<NodeState> = compiled.nodes.iter().map(state).collect();
        if !options.interpret_eval {
            // Nodes a plan joins keep their extension as a row set.
            for id in compiled.plans.joined_nodes() {
                if let NodeState::Runs(r) = &mut states[id] {
                    r.keep_extension();
                }
            }
        }
        let extensions = vec![None; compiled.nodes.len()];
        let seen = vec![Seen::default(); compiled.nodes.len()];
        let intervals = compiled.nodes.iter().filter_map(Formula::interval);
        let bounds = intervals.map(|i| i.hi().finite().unwrap_or(i.lo()));
        let tick_bound = bounds.max().unwrap_or_default();
        NodeEngine {
            compiled,
            states,
            extensions,
            last_time: None,
            seen,
            last_violations: None,
            deadline: None,
            pending: VecDeque::new(),
            tick_bound,
            sleep_bug: None,
            interpret: options.interpret_eval,
            scratch: {
                let mut s = Scratch::new();
                if options.profile_plans && !options.interpret_eval {
                    s.enable_profiling();
                }
                s
            },
        }
    }

    /// The accumulated per-node execution profile, when profiling was
    /// enabled at construction and plans (not the interpreter) execute.
    pub(crate) fn plan_profile(&self) -> Option<crate::plan::PlanProfile> {
        if self.interpret {
            return None;
        }
        let counters = self.scratch.profile_counters()?;
        Some(self.compiled.plans.profile(counters))
    }

    /// Evaluates a node's unit-input operand plan (or interprets, in
    /// reference mode).
    fn operand_extension<O: Oracle>(
        &self,
        idx: usize,
        g: &Formula,
        db: &Database,
        oracle: &O,
        scratch: &mut Scratch,
    ) -> Bindings {
        if self.interpret {
            return eval(g, db, oracle, &Bindings::unit());
        }
        let plan = match &self.compiled.plans.node_ops[idx] {
            NodePlans::Operand(p) => p,
            NodePlans::Since { g, .. } => g,
        };
        plan.execute(db, oracle, &Bindings::unit(), scratch)
    }

    /// Whether `update` touches none of the constraint's relations — the
    /// *quiescence* condition of relevance dispatch: such an update cannot
    /// change any operand's extension, only the clock moves.
    pub(crate) fn is_quiescent(&self, update: &Update) -> bool {
        update
            .inserts()
            .chain(update.deletes())
            .all(|(rel, tuples)| tuples.is_empty() || !self.compiled.relations.contains(&rel))
    }

    /// Advances every node to the new state `(db, t_now)`, children-first
    /// — after absorbing any states deferred while asleep — then records
    /// `t_now`. A node reads its operand's row delta since the last step,
    /// so its maintenance costs what changed plus what fell due.
    pub(crate) fn advance(&mut self, db: &Database, t_now: TimePoint) {
        self.catch_up();
        self.last_violations = None;
        self.deadline = None;
        let mut scratch = std::mem::take(&mut self.scratch);
        let compiled = Arc::clone(&self.compiled);
        let t_prev = self.last_time;
        for (idx, node) in compiled.nodes.iter().enumerate() {
            // Inner nodes (indices < idx) are already advanced; the oracle
            // exposes exactly their new extensions.
            let g = match node {
                Formula::Since(_, f, g) => {
                    self.advance_since(idx, (f, g), db, t_now, &mut scratch);
                    continue;
                }
                Formula::Prev(_, g) | Formula::Once(_, g) | Formula::Hist(_, g) => g,
                other => unreachable!("non-temporal node: {other}"),
            };
            let sat = {
                let oracle = self.oracle(t_now);
                self.operand_extension(idx, g, db, &oracle, &mut scratch)
            };
            let seen = &mut self.seen[idx];
            seen.settles = true;
            let delta = chained(&scratch, &mut seen.operand, &sat);
            match &mut self.states[idx] {
                NodeState::Prev(p) => self.extensions[idx] = Some(p.step(sat, t_now)),
                NodeState::Runs(r) => {
                    seen.streamed += streamed(delta, &sat);
                    r.advance(&sat, delta, &[], t_prev, t_now);
                }
            }
        }
        self.scratch = scratch;
        self.last_time = Some(t_now);
    }

    /// Advances a `since` node: keys whose maintained formula `f` failed
    /// lose every anchor, keys satisfying `g` anchor. When `f` is planned
    /// from unit (database-pure over exactly the key variables) the keys
    /// it drops come from its row delta and the anchors that had not
    /// passed it, not from re-running it over every key.
    fn advance_since(
        &mut self,
        idx: usize,
        (f, g): (&Formula, &Formula),
        db: &Database,
        t_now: TimePoint,
        scratch: &mut Scratch,
    ) {
        let unit = Bindings::unit();
        let plans = match &self.compiled.plans.node_ops[idx] {
            NodePlans::Since { f, g } if !self.interpret => Some((&**f, g)),
            _ => None,
        };
        let NodeState::Runs(w) = &self.states[idx] else {
            unreachable!("node/state kind mismatch")
        };
        let oracle = self.oracle(t_now);
        let anchors = match plans {
            Some((_, gp)) => gp.execute(db, &oracle, &unit, scratch),
            None => eval(g, db, &oracle, &unit),
        };
        let (holds, survivors) = match plans {
            Some((fp, _)) if fp.in_vars().is_empty() => {
                (Some(fp.execute(db, &oracle, &unit, scratch)), None)
            }
            Some((fp, _)) => (None, Some(fp.execute(db, &oracle, &w.keys(), scratch))),
            None => (None, Some(eval(f, db, &oracle, &w.keys()))),
        };
        let seen = &mut self.seen[idx];
        let delta = chained(scratch, &mut seen.operand, &anchors);
        seen.streamed += streamed(delta, &anchors);
        let (dropped, unchecked, settles) = match (holds, survivors) {
            (Some(holds), _) => {
                let fails = |k: &&Tuple| !holds.contains(k);
                let f_delta = chained(scratch, &mut seen.f, &holds);
                let dropped: Vec<Tuple> = match f_delta {
                    Some((_, left)) => (left.iter().chain(&seen.unchecked))
                        .filter(|k| w.has_key(k))
                        .filter(fails)
                        .cloned()
                        .collect(),
                    None => w.key_iter().filter(fails).cloned().collect(),
                };
                let (fresh, failing): (Vec<&Tuple>, Vec<&Tuple>) = match (delta, f_delta) {
                    (Some((joined, _)), Some((_, left))) => {
                        let again = joined.iter().chain(left).chain(&seen.unchecked);
                        let again = again.filter(|k| anchors.contains(k));
                        (joined.iter().collect(), again.filter(fails).collect())
                    }
                    _ => (
                        anchors.rows().collect(),
                        anchors.rows().filter(fails).collect(),
                    ),
                };
                // A fresh anchor key has not met `f` yet: decline.
                let settles = failing.is_empty() && fresh.iter().all(|k| w.has_key(k));
                (dropped, failing.into_iter().cloned().collect(), settles)
            }
            (None, survivors) => {
                let survivors = survivors.expect("evaluated").project(w.vars());
                let dropped = w.key_iter().filter(|k| !survivors.contains(k)).cloned();
                let settles = anchors.rows().all(|k| survivors.contains(k));
                (dropped.collect(), Vec::new(), settles)
            }
        };
        seen.unchecked = unchecked;
        seen.settles = settles;
        let t_prev = self.last_time;
        let NodeState::Runs(w) = &mut self.states[idx] else {
            unreachable!("node/state kind mismatch")
        };
        w.advance(&anchors, delta, &dropped, t_prev, t_now);
    }

    /// Evaluates the denial body at `(db, t_now)` (after [`NodeEngine::advance`])
    /// and records the result to replay while the engine sleeps.
    pub(crate) fn violations(&mut self, db: &Database, t_now: TimePoint) -> Bindings {
        let mut scratch = std::mem::take(&mut self.scratch);
        let v = {
            let oracle = self.oracle(t_now);
            if self.interpret {
                eval(&self.compiled.body, db, &oracle, &Bindings::unit())
            } else {
                self.compiled
                    .plans
                    .body
                    .execute(db, &oracle, &Bindings::unit(), &mut scratch)
            }
        };
        self.scratch = scratch;
        self.last_violations = Some(v.clone());
        v
    }

    /// The static shape of the plans this engine executes plus what its
    /// scratch has accumulated so far.
    pub(crate) fn plan_stats(&self) -> crate::plan::RuntimePlanStats {
        crate::plan::RuntimePlanStats {
            plan: self.compiled.plans.stats(),
            scratch_high_water: self.scratch.high_water(),
            rows_copied: self.scratch.rows_copied(),
        }
    }

    /// Sleeping: given an update that [`NodeEngine::is_quiescent`], while
    /// `t_now` is before the engine's deadline no node's answer — so no
    /// violation — can differ from the last step's: defers the state and
    /// replays the cached violations in O(1). `None` means the caller
    /// must take [`NodeEngine::advance`] + [`NodeEngine::violations`].
    ///
    /// Soundness: each node's `next_change` bounds when its answers can
    /// move while its operand extension stays put; operands read only the
    /// untouched relations and inner nodes, so by induction children-first
    /// nothing moves before the minimum. The interpreting reference never
    /// sleeps — it stays an independent path.
    pub(crate) fn sleep(&mut self, t_now: TimePoint) -> Option<Bindings> {
        let last = self.last_time.filter(|_| !self.interpret)?;
        let violations = self.last_violations.clone()?;
        let late = Duration(u64::from(self.sleep_bug == Some(SleepBug::LateDeadline)));
        let deadline = match self.deadline {
            Some(d) => d,
            None => *self.deadline.insert(self.next_change(last).plus(late)),
        };
        if t_now >= deadline {
            return None;
        }
        self.pending.push_back(t_now);
        let cutoff = t_now.minus(self.tick_bound);
        while self.pending.get(1).is_some_and(|&t| Some(t) <= cutoff) {
            self.pending.pop_front();
        }
        Some(violations)
    }

    /// The minimum of the nodes' `next_change` as of the last step `t`:
    /// each an O(1) read of the node's expiry index.
    fn next_change(&self, t: TimePoint) -> TimePoint {
        let nodes = self.states.iter().zip(&self.seen).zip(&self.extensions);
        let changes = nodes.map(|((state, seen), ext)| match state {
            NodeState::Prev(p) => p.next_change(ext.as_ref(), t),
            _ if !seen.settles => t.plus(Duration(1)),
            NodeState::Runs(r) => r.next_change(t),
        });
        changes.min().unwrap_or(NEVER)
    }

    /// Absorbs the deferred states, leaving exactly the state one
    /// [`NodeEngine::advance`] per tick would have left.
    fn catch_up(&mut self) {
        let ticks: Vec<TimePoint> = self.to_absorb().collect();
        self.pending.clear();
        let Some(&t_new) = ticks.last() else { return };
        for state in &mut self.states {
            match state {
                NodeState::Prev(p) => p.catch_up(t_new),
                NodeState::Runs(r) => r.catch_up(&ticks),
            }
        }
        self.last_time = Some(t_new);
    }

    /// `(states deferred, tick bound)`: the former never exceeds the
    /// latter plus one.
    pub(crate) fn deferred(&self) -> (usize, u64) {
        (self.pending.len(), self.tick_bound.0)
    }

    /// The deferred states a catch-up absorbs, ascending (the mutant
    /// `ShortCatchUp` drops the newest).
    fn to_absorb(&self) -> impl DoubleEndedIterator<Item = TimePoint> + ExactSizeIterator + '_ {
        let short = usize::from(self.sleep_bug == Some(SleepBug::ShortCatchUp));
        let n = self.pending.len().saturating_sub(short);
        self.pending.range(..n).copied()
    }

    /// The newest state once the deferred ones are absorbed.
    pub(crate) fn settled_time(&self) -> Option<TimePoint> {
        self.to_absorb().next_back().or(self.last_time)
    }

    /// Marks each restored `once`/`hist` node whose operand is a plain
    /// relation read as having absorbed that relation's current rows —
    /// exact: its restored runs are that operand at the newest state — so
    /// its first step chains from the relation's delta instead of
    /// rebuilding. Every other operand keeps the rebuild.
    pub(crate) fn warm(&mut self, db: &Database) {
        let nodes = self
            .compiled
            .nodes
            .iter()
            .zip(&self.compiled.plans.node_ops);
        for ((node, plans), seen) in nodes.zip(&mut self.seen).filter(|_| !self.interpret) {
            if let (Formula::Once(..) | Formula::Hist(..), NodePlans::Operand(p)) = (node, plans) {
                seen.operand = p.reads_relation().map(|r| db.rel_gen(r));
            }
        }
    }

    /// Hands `visit` each temporal node with its state as a catch-up
    /// would leave it: what `&self` readers (space accounting,
    /// checkpoints) see while the engine sleeps, read in place — a
    /// catch-up moves state times, which are copied, never keys or rows.
    pub(crate) fn settled(&self, mut visit: impl FnMut(&Formula, Settled<'_>)) {
        let moved = self.to_absorb().next_back();
        for (node, state) in self.compiled.nodes.iter().zip(&self.states) {
            match state {
                NodeState::Prev(p) => visit(node, Settled::Prev(p, moved)),
                NodeState::Runs(r) => visit(node, Settled::Runs(r.settled(self.to_absorb()))),
            }
        }
    }

    fn oracle(&self, t_now: TimePoint) -> IncOracle<'_> {
        IncOracle {
            node_ids: &self.compiled.node_ids,
            states: &self.states,
            extensions: &self.extensions,
            t_now,
        }
    }

    /// Total auxiliary `(keys, timestamps)` across nodes.
    pub(crate) fn aux_space(&self) -> (usize, usize) {
        let mut total = (0, 0);
        self.settled(|_, node| {
            let (k, t) = node.space();
            total = (total.0 + k, total.1 + t);
        });
        total
    }

    /// Each temporal node's auxiliary footprint, children-first.
    pub(crate) fn node_stats(&self) -> Vec<NodeStat> {
        let (mut stats, mut seen) = (Vec::new(), self.seen.iter());
        self.settled(|node, state| {
            let (keys, timestamps) = state.space();
            stats.push(NodeStat {
                formula: node.to_string(),
                keys,
                timestamps,
                streamed: seen.next().map_or(0, |s| s.streamed),
            });
        });
        stats
    }
}

/// Online checker with bounded history encoding: a [`ConstraintSet`] of
/// one, so it steps the loop every fleet steps.
#[derive(Clone, Debug)]
pub struct IncrementalChecker(pub(crate) ConstraintSet);

impl IncrementalChecker {
    /// Compiles and initializes a checker for `constraint`.
    pub fn new(
        constraint: Constraint,
        catalog: Arc<Catalog>,
    ) -> Result<IncrementalChecker, CompileError> {
        Self::with_options(constraint, catalog, EncodingOptions::default())
    }

    /// [`IncrementalChecker::new`] with explicit [`EncodingOptions`].
    pub fn with_options(
        constraint: Constraint,
        catalog: Arc<Catalog>,
        options: EncodingOptions,
    ) -> Result<IncrementalChecker, CompileError> {
        let compiled = CompiledConstraint::compile(constraint, Arc::clone(&catalog))?;
        Ok(Self::from_compiled(compiled, options))
    }

    /// Builds a checker from an already-compiled constraint.
    pub fn from_compiled(
        compiled: CompiledConstraint,
        options: EncodingOptions,
    ) -> IncrementalChecker {
        let catalog = Arc::clone(&compiled.catalog);
        let engine = NodeEngine::new(Arc::new(compiled), options);
        IncrementalChecker(ConstraintSet::of_engines(catalog, vec![engine]))
    }

    /// Plants a fault in the set's one engine.
    fn arm(&mut self, mut plant: impl FnMut(&mut NodeEngine)) {
        self.0.parts_mut().engines.iter_mut().for_each(&mut plant);
    }

    /// Fault injection for the differential oracle's mutation smoke: from
    /// now on a probe partition whose input version neither matches nor
    /// chains through a recorded row delta is trusted instead of rebuilt.
    #[doc(hidden)]
    pub fn arm_stale_versions(&mut self) {
        self.arm(|e| e.scratch.accept_stale = true);
    }

    /// Fault injection for the oracle's mutation smoke: plants `bug`.
    #[doc(hidden)]
    pub fn arm_sleep_bug(&mut self, bug: SleepBug) {
        self.arm(|e| e.sleep_bug = Some(bug));
    }

    /// Fault injection for the oracle's mutation smoke: plants `bug` in
    /// every run relation's expiry index.
    #[doc(hidden)]
    pub fn arm_index_bug(&mut self, bug: IndexBug) {
        self.arm(|e| {
            for state in &mut e.states {
                if let NodeState::Runs(r) = state {
                    r.arm(bug);
                }
            }
        });
    }

    /// Fault injection for the oracle's mutation smoke: from now on a
    /// probe partition applies a window's flips even when they lead from
    /// an epoch other than the one it saw.
    #[doc(hidden)]
    pub fn arm_stale_epochs(&mut self) {
        self.arm(|e| e.scratch.stale_epochs = true);
    }

    /// Fault injection for the oracle's mutation smoke: from now on the
    /// database's net delta reports a tuple an update deletes and
    /// re-inserts as removed.
    #[doc(hidden)]
    pub fn arm_unnetted_reinsert(&mut self) {
        self.0.parts_mut().db.arm_unnetted_reinsert();
    }

    /// The compiled form (for inspection and for building siblings).
    pub fn compiled(&self) -> &CompiledConstraint {
        &self.0.engines()[0].compiled
    }

    /// The current database state.
    pub fn database(&self) -> &Database {
        self.0.database()
    }

    /// Number of transitions processed.
    pub fn steps(&self) -> usize {
        self.0.steps()
    }

    /// Timestamp of the last processed transition, if any. After a
    /// checkpoint restore this is the replay cursor: transitions at or
    /// before it have already been absorbed.
    pub fn last_time(&self) -> Option<TimePoint> {
        self.0.last_time()
    }

    /// Per-temporal-node observability: what each auxiliary structure is
    /// holding right now. Ordered children-first (the update order).
    pub fn node_stats(&self) -> Vec<NodeStat> {
        self.0.engines()[0].node_stats()
    }

    /// The per-node execution profile, `None` unless built with `profile_plans`.
    pub fn plan_profile(&self) -> Option<crate::plan::PlanProfile> {
        self.0.plan_profiles().pop().map(|(_, profile)| profile)
    }
}

impl Checker for IncrementalChecker {
    fn constraint(&self) -> &Constraint {
        &self.compiled().constraint
    }

    /// # Panics
    /// When the engine panics: the set quarantines it, and with no fleet
    /// to keep checking this step and every later one panic with the
    /// quarantine reason.
    fn step(&mut self, time: TimePoint, update: &Update) -> Result<StepReport, HistoryError> {
        let report = self.0.step(time, update)?.pop();
        Ok(report.unwrap_or_else(|| panic!("{}", self.0.quarantined()[0].1)))
    }

    fn space(&self) -> SpaceStats {
        self.0.space()
    }

    fn name(&self) -> &'static str {
        "incremental"
    }

    fn plan_stats(&self) -> Option<crate::plan::RuntimePlanStats> {
        let planned = self.0.engines().iter().all(|e| !e.interpret);
        planned.then(|| self.0.plan_stats())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Oracle over the already-advanced node states.
struct IncOracle<'a> {
    node_ids: &'a FastMap<Formula, usize>,
    states: &'a [NodeState],
    extensions: &'a [Option<Bindings>],
    t_now: TimePoint,
}

impl IncOracle<'_> {
    fn prev(&self, node: Node<'_>) -> &Bindings {
        self.extensions[node.id]
            .as_ref()
            .expect("prev extension cached during advance")
    }
}

impl Oracle for IncOracle<'_> {
    fn node_id(&self, node: &Formula) -> usize {
        *self
            .node_ids
            .get(node)
            .unwrap_or_else(|| panic!("unknown temporal node `{node}`"))
    }

    fn extension(&self, node: Node<'_>) -> Bindings {
        match &self.states[node.id] {
            NodeState::Prev(_) => self.prev(node).clone(),
            NodeState::Runs(r) => r.extension(self.t_now),
        }
    }

    fn contains(&self, node: Node<'_>, key: &Tuple) -> bool {
        match &self.states[node.id] {
            NodeState::Prev(_) => self.prev(node).contains(key),
            NodeState::Runs(r) => r.holds(key, self.t_now),
        }
    }

    fn hist_holds(&self, node: Node<'_>, key: &Tuple) -> bool {
        self.contains(node, key)
    }

    fn flips(&self, node: Node<'_>) -> Option<Flips<'_>> {
        match &self.states[node.id] {
            NodeState::Runs(r) => Some(r.flips()),
            NodeState::Prev(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::{tuple, Schema, Sort};
    use rtic_temporal::parser::parse_constraint;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new()
                .with("reserved", Schema::of(&[("p", Sort::Str)]))
                .unwrap()
                .with("confirmed", Schema::of(&[("p", Sort::Str)]))
                .unwrap(),
        )
    }

    fn checker(src: &str) -> IncrementalChecker {
        IncrementalChecker::new(parse_constraint(src).unwrap(), catalog()).unwrap()
    }

    /// The one engine of the checker's set.
    fn engine(c: &IncrementalChecker) -> &NodeEngine {
        &c.0.engines()[0]
    }

    #[test]
    fn nontemporal_denial() {
        let mut c = checker("deny both: reserved(p) && confirmed(p)");
        let r = c
            .step(
                TimePoint(1),
                &Update::new().with_insert("reserved", tuple!["ann"]),
            )
            .unwrap();
        assert!(r.ok());
        let r = c
            .step(
                TimePoint(2),
                &Update::new().with_insert("confirmed", tuple!["ann"]),
            )
            .unwrap();
        assert_eq!(r.violation_count(), 1);
    }

    #[test]
    fn unconfirmed_reservation_detected_at_deadline() {
        // Violated when a reservation is ≥ 2 old and never confirmed.
        let mut c =
            checker("deny unconfirmed: once[2,*] reserved(p) && reserved(p) && !once confirmed(p)");
        assert!(c
            .step(
                TimePoint(0),
                &Update::new().with_insert("reserved", tuple!["ann"])
            )
            .unwrap()
            .ok());
        assert!(c.step(TimePoint(1), &Update::new()).unwrap().ok());
        let r = c.step(TimePoint(2), &Update::new()).unwrap();
        assert_eq!(r.violation_count(), 1, "deadline passed unconfirmed");
    }

    #[test]
    fn confirmation_prevents_violation() {
        let mut c =
            checker("deny unconfirmed: once[2,*] reserved(p) && reserved(p) && !once confirmed(p)");
        c.step(
            TimePoint(0),
            &Update::new().with_insert("reserved", tuple!["ann"]),
        )
        .unwrap();
        c.step(
            TimePoint(1),
            &Update::new().with_insert("confirmed", tuple!["ann"]),
        )
        .unwrap();
        assert!(c.step(TimePoint(2), &Update::new()).unwrap().ok());
        assert!(c.step(TimePoint(50), &Update::new()).unwrap().ok());
    }

    #[test]
    fn monotonic_time_enforced() {
        let mut c = checker("deny d: reserved(p) && confirmed(p)");
        c.step(TimePoint(5), &Update::new()).unwrap();
        assert!(matches!(
            c.step(TimePoint(5), &Update::new()),
            Err(HistoryError::NonMonotonicTime { .. })
        ));
    }

    #[test]
    fn space_does_not_grow_with_history() {
        let mut c = checker("deny d: reserved(p) && once[0,3] confirmed(p)");
        let mut max_units = 0;
        for t in 0..200u64 {
            let upd = if t % 4 == 0 {
                Update::new()
                    .with_insert("confirmed", tuple!["x"])
                    .with_delete("confirmed", tuple!["x"])
            } else {
                Update::new()
            };
            c.step(TimePoint(t), &upd).unwrap();
            max_units = max_units.max(c.space().retained_units());
        }
        assert!(max_units <= 8, "aux space stayed bounded (got {max_units})");
    }

    #[test]
    fn index_bugs_reach_hist_nodes() {
        // Every run relation shares one index, so both planted index bugs
        // move a `hist[1,4]` verdict: a clear filed a tick late leaves the
        // probe's partition on the failing side at t=5, when the state
        // `confirmed(a)` missed at t=0 leaves the window; a run left open
        // keeps `confirmed(a)` holding after its delete at t=9.
        let src = "deny d: reserved(p) && hist[1,4] confirmed(p)";
        let history = |t: u64| match t {
            0 => Update::new().with_insert("reserved", tuple!["a"]),
            1 => Update::new().with_insert("confirmed", tuple!["a"]),
            9 => Update::new().with_delete("confirmed", tuple!["a"]),
            _ => Update::new(),
        };
        for (bug, at) in [(IndexBug::LateExpiry, 5), (IndexBug::OpenRun, 10)] {
            let (mut healthy, mut armed) = (checker(src), checker(src));
            armed.arm_index_bug(bug);
            let diverged = (0..16u64).filter(|&t| {
                let upd = history(t);
                healthy.step(TimePoint(t), &upd).unwrap() != armed.step(TimePoint(t), &upd).unwrap()
            });
            assert_eq!(diverged.min(), Some(at), "{bug:?}");
        }
    }

    #[test]
    fn failed_step_leaves_checker_usable() {
        let mut c = checker("deny d: reserved(p) && once[0,3] confirmed(p)");
        c.step(
            TimePoint(1),
            &Update::new().with_insert("confirmed", tuple!["a"]),
        )
        .unwrap();
        // A bad update fails atomically: no state change, no time advance.
        assert!(c
            .step(
                TimePoint(2),
                &Update::new().with_insert("nosuchrel", tuple!["a"])
            )
            .is_err());
        assert!(
            c.step(TimePoint(0), &Update::new()).is_err(),
            "non-monotonic after failure still rejected vs t=1"
        );
        // And a good step at t=2 still works, with consistent aux state.
        let r = c
            .step(
                TimePoint(2),
                &Update::new().with_insert("reserved", tuple!["a"]),
            )
            .unwrap();
        assert_eq!(
            r.violation_count(),
            1,
            "confirmation at t=1 is age 1, in window"
        );
    }

    #[test]
    fn node_stats_reflect_aux_content() {
        let mut c = checker("deny d: reserved(p) && once[0,4] confirmed(p)");
        assert_eq!(c.node_stats().len(), 1);
        assert_eq!(c.node_stats()[0].keys, 0);
        c.step(
            TimePoint(1),
            &Update::new().with_insert("confirmed", tuple!["a"]),
        )
        .unwrap();
        let stats = c.node_stats();
        assert_eq!(stats[0].keys, 1);
        assert_eq!(stats[0].timestamps, 1);
        assert!(stats[0].formula.contains("once[0,4]"));
    }

    /// Steps `src` twice over one sparse-clock history — as given (mostly
    /// quiescent, so the engine may sleep) and with a no-op delete of an
    /// absent tuple forcing the full path every step — asserting equal
    /// reports and equal checkpoints (the settled state, stamp for stamp)
    /// throughout. Returns how many steps ended with states deferred.
    fn slept_against_forced_full(src: &str) -> usize {
        let (mut lazy, mut eager) = (checker(src), checker(src));
        let (mut slept, mut t) = (0, 0u64);
        for i in 0..90usize {
            t += [1, 1, 2, 1, 1, 4, 1, 1, 1, 9][i % 10];
            let upd = match i % 23 {
                0 => Update::new().with_insert("reserved", tuple!["a"]),
                6 => Update::new().with_insert("confirmed", tuple!["a"]),
                13 => Update::new().with_delete("confirmed", tuple!["a"]),
                19 => Update::new().with_delete("reserved", tuple!["a"]),
                _ => Update::new(),
            };
            let forced = upd.clone().with_delete("confirmed", tuple!["ghost"]);
            let a = lazy.step(TimePoint(t), &upd).unwrap();
            let b = eager.step(TimePoint(t), &forced).unwrap();
            assert_eq!(a, b, "{src}: sleeping diverged at t={t}");
            // Bar the dispatch tallies: one of the two slept.
            let settled = |c: &IncrementalChecker| {
                let text = crate::checkpoint::save(c);
                let lines = text.lines().filter(|l| !l.starts_with("dispatch "));
                lines.collect::<Vec<_>>().join("\n")
            };
            assert_eq!(
                settled(&lazy),
                settled(&eager),
                "{src}: settled state diverged at t={t}"
            );
            let deferred = engine(&lazy).pending.len() as u64;
            assert!(
                deferred <= engine(&lazy).tick_bound.0 + 1,
                "{src}: {deferred}"
            );
            slept += usize::from(deferred > 0);
        }
        // Cached extensions and violations are let go before a refresh
        // (a `prev` state is itself a second holder of its operand rows).
        let copied = engine(&lazy).plan_stats().rows_copied;
        assert!(copied == 0 || src.contains("prev"), "{src}: {copied}");
        slept
    }

    #[test]
    fn fast_path_absorbs_ticks_identically() {
        for src in [
            "deny d: reserved(p) && once[0,3] confirmed(p)",
            "deny d: reserved(p) && !once[0,*] confirmed(p)",
            "deny d: reserved(p) && hist[3,*] reserved(p)",
            "deny d: reserved(p) && !hist[0,2] confirmed(p)",
            "deny d: reserved(p) && once[2,5] confirmed(p)",
            "deny d: reserved(p) && !once[0,4] confirmed(p)",
            "deny d: reserved(p) since[0,4] confirmed(p)",
            "deny d: reserved(p) && prev confirmed(p)",
            // A violating steady state: the witnesses are replayed.
            "deny d: reserved(p) && once[0,*] reserved(p)",
        ] {
            assert!(slept_against_forced_full(src) >= 20, "{src} never slept");
        }
    }

    #[test]
    fn fast_path_keeps_window_expiry() {
        // The once[0,3] witness must still expire while the engine sleeps.
        let mut c = checker("deny d: reserved(p) && once[0,3] confirmed(p)");
        c.step(
            TimePoint(0),
            &Update::new().with_insert("confirmed", tuple!["a"]),
        )
        .unwrap();
        // Remove the fact so later steps add no fresh witnesses; the t=0
        // stamp keeps the key alive until it ages past the bound.
        c.step(
            TimePoint(1),
            &Update::new().with_delete("confirmed", tuple!["a"]),
        )
        .unwrap();
        assert_eq!(engine(&c).aux_space().0, 1, "one live key");
        // Pure ticks from here: asleep until the stamp's deadline, 0+3+1.
        c.step(TimePoint(2), &Update::new()).unwrap();
        c.step(TimePoint(3), &Update::new()).unwrap();
        assert_eq!(engine(&c).pending.len(), 2, "both ticks deferred");
        assert_eq!(engine(&c).aux_space().0, 1, "age 3 is still in [0,3]");
        c.step(TimePoint(4), &Update::new()).unwrap();
        assert!(
            engine(&c).pending.is_empty(),
            "the deadline woke the engine"
        );
        assert_eq!(engine(&c).aux_space().0, 0, "witness expired on time");
    }

    #[test]
    fn ineligible_shapes_take_the_full_path() {
        // A gap-gated prev answers from each step's gap: it declines, so
        // its engine never sleeps.
        for src in [
            "deny d: reserved(p) && prev[0,2] confirmed(p)",
            "deny d: reserved(p) && once[0,*] prev[2,*] confirmed(p)",
        ] {
            assert_eq!(slept_against_forced_full(src), 0, "{src} slept");
        }
        // `since` declines right after a fresh anchor — the key has not
        // met the maintained formula until the next state checks it.
        let mut c = checker("deny d: reserved(p) since[0,4] confirmed(p)");
        let both = Update::new().with_insert("reserved", tuple!["a"]);
        let both = both.with_insert("confirmed", tuple!["a"]);
        c.step(TimePoint(1), &both).unwrap();
        c.step(TimePoint(2), &Update::new()).unwrap();
        assert!(engine(&c).pending.is_empty(), "fresh anchor: a full step");
        c.step(TimePoint(3), &Update::new()).unwrap();
        assert_eq!(engine(&c).pending.len(), 1, "every key passed f: asleep");
    }

    fn interpreted(src: &str) -> IncrementalChecker {
        let options = EncodingOptions {
            interpret_eval: true,
            ..Default::default()
        };
        IncrementalChecker::with_options(parse_constraint(src).unwrap(), catalog(), options)
            .unwrap()
    }

    #[test]
    fn compiled_matches_interpreter_byte_for_byte() {
        // Differential: one checker runs the compiled plans — columnar
        // kernels, identity-shaped atoms reading their relation's rows, the
        // per-relation-version memo with its in-place atom delta refresh,
        // window delta maintenance — the other the
        // tree-walking interpreter. Reports and aux state must agree at
        // every step, and the rendered violations must be byte-identical.
        for src in [
            "deny d: reserved(p) && confirmed(p)",
            "deny d: reserved(p) && once[0,3] confirmed(p)",
            "deny d: reserved(p) && !once[0,*] confirmed(p)",
            "deny u: once[2,*] reserved(p) && reserved(p) && !once confirmed(p)",
            "deny d: reserved(p) && hist[3,*] reserved(p)",
            "deny d: reserved(p) since[0,4] confirmed(p)",
            "deny d: confirmed(p) && (exists q . reserved(q))",
            "deny d: reserved(p) && prev[0,2] confirmed(p)",
        ] {
            let mut compiled = checker(src);
            let mut reference = interpreted(src);
            let names = ["ann", "bob", "cal", "dee"];
            for t in 0..70u64 {
                let i = t as usize;
                let upd = match t % 7 {
                    0 => Update::new().with_insert("reserved", tuple![names[i % 4]]),
                    1 => Update::new().with_insert("confirmed", tuple![names[i % 4]]),
                    2 => Update::new().with_delete("confirmed", tuple![names[(i + 1) % 4]]),
                    3 => Update::new(),
                    4 => Update::new()
                        .with_insert("reserved", tuple!["eve"])
                        .with_insert("confirmed", tuple!["eve"]),
                    5 => Update::new().with_delete("reserved", tuple!["eve"]),
                    _ => Update::new()
                        .with_insert("confirmed", tuple![names[i % 4]])
                        .with_delete("confirmed", tuple![names[(i + 2) % 4]]),
                };
                let a = compiled.step(TimePoint(t), &upd).unwrap();
                let b = reference.step(TimePoint(t), &upd).unwrap();
                assert_eq!(a, b, "{src}: compiled diverged at t={t}");
                assert_eq!(
                    a.violations.to_string(),
                    b.violations.to_string(),
                    "{src}: rendering diverged at t={t}"
                );
                assert_eq!(
                    engine(&compiled).aux_space(),
                    engine(&reference).aux_space(),
                    "{src}: aux state diverged at t={t}"
                );
            }
        }
    }

    /// Rows the probe nodes have streamed so far (a full partition
    /// rebuild streams the node's whole input, an advance only the input
    /// delta plus the window's flips).
    fn probe_rows_streamed(c: &IncrementalChecker) -> u64 {
        let profile = c.plan_profile().expect("profiling enabled");
        let probes = profile.nodes.iter().filter(|n| n.desc.probe);
        probes.map(|n| n.counts.block_rows).sum()
    }

    fn profiled(src: &str) -> IncrementalChecker {
        let options = EncodingOptions {
            profile_plans: true,
            ..Default::default()
        };
        IncrementalChecker::with_options(parse_constraint(src).unwrap(), catalog(), options)
            .unwrap()
    }

    #[test]
    fn monotone_probe_partitions_survive_adversarial_deltas() {
        // The compiled path caches a passed/failed partition for every
        // window probe and advances it from row deltas chained
        // by version token and from the window's flips by epoch. Stress
        // the bookkeeping with the cases that historically break partition
        // caches: deleting a row that already passed the probe, inserting
        // and deleting the same row within one step, deleting and
        // re-inserting an initially present row, and a probe input that
        // churns every step — beside 64 resident rows (half confirmed), so
        // a rebuild would show. Bounded windows (`once[1,3]`) and `since`
        // revoke verdicts as well; every flavour runs against the
        // interpreter byte-for-byte. `Some(true)`: the probes' input
        // arrives as chained row deltas, so the partition advances;
        // `Some(false)`: a join over a window's extension feeds the probe a
        // fresh row set each step, so it rebuilds; `None`: no probe.
        for (src, chained) in [
            // Unbounded probes: flips only ever admit.
            (
                "deny u: reserved(p) && once[2,*] reserved(p) && !once confirmed(p)",
                Some(true),
            ),
            (
                "deny u: once[2,*] reserved(p) && reserved(p) && !once confirmed(p)",
                Some(false),
            ),
            ("deny d: reserved(p) && once[0,*] confirmed(p)", Some(true)),
            // Bounded / since: flips revoke too.
            ("deny d: reserved(p) && once[1,3] confirmed(p)", Some(true)),
            (
                "deny d: reserved(p) && (reserved(p) since[0,4] confirmed(p))",
                Some(true),
            ),
            // A joined `since`: its extension is maintained from the flips.
            ("deny d: reserved(p) since[0,4] confirmed(p)", None),
        ] {
            let mut compiled = profiled(src);
            let mut reference = interpreted(src);
            let names = ["ann", "bob", "cal"];
            let mut load = Update::new();
            for k in 0..64 {
                load.insert("reserved", tuple![format!("r{k}").as_str()]);
                if k % 2 == 0 {
                    load.insert("confirmed", tuple![format!("r{k}").as_str()]);
                }
            }
            let mut streamed = Vec::new();
            for t in 0..60u64 {
                let i = t as usize;
                let upd = match t % 6 {
                    _ if t == 0 => load.clone(),
                    // Row enters the probe input, then (two steps later,
                    // after its probe verdict may have flipped to pass)
                    // leaves again: a passed row must move out of the
                    // partition without surfacing as a flip.
                    0 => Update::new().with_insert("reserved", tuple![names[i % 3]]),
                    1 => Update::new().with_insert("confirmed", tuple![names[i % 3]]),
                    2 => Update::new().with_delete("reserved", tuple![names[i % 3]]),
                    // Insert + delete of the same row in one step: the
                    // net delta must be empty for that row.
                    3 => Update::new()
                        .with_insert("reserved", tuple!["eve"])
                        .with_delete("reserved", tuple!["eve"]),
                    // Delete then re-insert an initially present row.
                    4 => Update::new()
                        .with_delete("reserved", tuple![names[(i + 1) % 3]])
                        .with_insert("reserved", tuple![names[(i + 1) % 3]]),
                    _ => Update::new(),
                };
                let before = probe_rows_streamed(&compiled);
                let a = compiled.step(TimePoint(t), &upd).unwrap();
                let b = reference.step(TimePoint(t), &upd).unwrap();
                assert_eq!(a, b, "{src}: compiled diverged at t={t}");
                assert_eq!(
                    a.violations.to_string(),
                    b.violations.to_string(),
                    "{src}: rendering diverged at t={t}"
                );
                streamed.push(probe_rows_streamed(&compiled) - before);
            }
            // Chained: past the load's own flips, the adversarial deltas
            // moved rows through the partition and no step re-probed the
            // resident rows.
            let late = &streamed[3..];
            let ctx = format!("{src}: {streamed:?}");
            match chained {
                Some(true) => {
                    assert!(streamed[0] >= 64, "{ctx}");
                    assert!(late.iter().sum::<u64>() > 0, "{ctx}");
                    assert!(late.iter().all(|&n| n < 16), "{ctx}");
                }
                Some(false) => assert!(late.iter().any(|&n| n >= 64), "{ctx}"),
                None => assert!(streamed.iter().all(|&n| n == 0), "{ctx}"),
            }
        }
    }

    #[test]
    fn a_version_mismatch_anywhere_in_the_chain_forces_a_full_rebuild() {
        // atom → probe(once[2,*]) → probe(once) over 40 resident rows.
        // While the version tokens chain, a one-row delta costs the probes
        // a handful of rows. A clone of the database shares its versions,
        // so it would keep the chain; a change made through `relation_mut`
        // (a delete and re-insert: same contents, no recorded delta) moves
        // the relation to a version the probe never saw, and the next
        // update's delta leads from there. The first probe must repartition
        // its whole input, and — since a rebuild publishes no delta
        // either — so must the second. Reports keep matching the
        // interpreter throughout.
        let src = "deny u: reserved(p) && once[2,*] reserved(p) && !once confirmed(p)";
        let mut compiled = profiled(src);
        let mut reference = interpreted(src);
        let key = |k: u64| format!("p{k}");
        let mut load = Update::new();
        for k in 0..40 {
            load.insert("reserved", tuple![key(k).as_str()]);
            if k % 4 != 0 {
                load.insert("confirmed", tuple![key(k).as_str()]);
            }
        }
        let mut streamed = Vec::new();
        for t in 0..12u64 {
            let upd = match t {
                0 => load.clone(),
                _ => Update::new().with_insert("reserved", tuple![key(100 + t).as_str()]),
            };
            let db = compiled.0.parts_mut().db;
            if t == 4 {
                *db = db.clone();
            }
            if t == 8 {
                let rel = db.relation_mut("reserved".into()).unwrap();
                assert!(rel.remove(&tuple![key(0).as_str()]));
                assert!(rel.insert(tuple![key(0).as_str()]).unwrap());
            }
            let before = probe_rows_streamed(&compiled);
            let a = compiled.step(TimePoint(t), &upd).unwrap();
            let b = reference.step(TimePoint(t), &upd).unwrap();
            assert_eq!(a.to_string(), b.to_string(), "diverged at t={t}");
            streamed.push(probe_rows_streamed(&compiled) - before);
        }
        // Chained steps — the clone at t=4 among them: the one-row delta
        // and the keys that aged in, per probe — far below the 40 resident
        // rows.
        for t in [4, 5, 6, 7, 9, 10, 11] {
            assert!(streamed[t] <= 10, "t={t} streamed {}", streamed[t]);
        }
        // The broken chain: both probes rescan their whole input.
        assert!(streamed[8] >= 80, "rebuild streamed only {}", streamed[8]);
    }

    #[test]
    fn a_delta_into_a_shared_row_set_copies_instead_of_corrupting_the_holder() {
        // This test keeps every report (as a caller that prints them
        // later does), so the witness rows — the failing side the `!once`
        // probe's partition keeps — have a second holder when the next
        // delta or flip arrives; the engine sleeps through the quiescent
        // ticks in between, and the profiler is on. Each delta must then
        // land on a copy — counted in `rows_copied` — with reports
        // byte-identical to the interpreter and every held report still
        // reading what it read when issued. A `prev` over an
        // identity-shaped atom holds its relation's own row set across the
        // next update, which the database copies, and counts, first.
        for (src, by_database) in [
            ("deny d: reserved(p) && !once[0,*] confirmed(p)", false),
            ("deny d: reserved(p) && prev confirmed(p)", true),
        ] {
            let mut compiled = profiled(src);
            let mut reference = interpreted(src);
            let mut held = Vec::new();
            for t in 0..40u64 {
                let name = format!("p{}", t % 9);
                let upd = match t % 4 {
                    0 => Update::new().with_insert("reserved", tuple![name.as_str()]),
                    1 => Update::new().with_insert("confirmed", tuple![name.as_str()]),
                    2 => Update::new(),
                    _ => Update::new().with_delete("reserved", tuple![name.as_str()]),
                };
                let a = compiled.step(TimePoint(t), &upd).unwrap();
                let b = reference.step(TimePoint(t), &upd).unwrap();
                assert_eq!(a.to_string(), b.to_string(), "{src}: diverged at t={t}");
                held.push((a, b.to_string()));
            }
            for (report, rendered) in &held {
                assert_eq!(
                    &report.to_string(),
                    rendered,
                    "{src}: a held report changed"
                );
            }
            let copied = compiled.plan_stats().expect("compiled plans").rows_copied;
            assert!(copied > 0, "{src}: the copy-on-shared fallback never ran");
            let db = compiled.database().rows_copied();
            assert_eq!(
                db > 0,
                by_database,
                "{src}: {db} row(s) copied by the database"
            );
        }
    }

    #[test]
    fn every_window_partitions_its_probes_prev_does_not() {
        // `once`/`since` windows publish the keys each advance flipped, so
        // probes against them keep a partition — a window that only ever
        // admits keys is the case whose flips never revoke. A `prev` node's
        // extension is replaced wholesale: its probes test every row.
        let cases = [
            ("deny d: reserved(p) && once[2,*] confirmed(p)", true),
            ("deny d: reserved(p) && once[0,3] confirmed(p)", true),
            ("deny d: reserved(p) since[0,4] confirmed(p)", true),
            ("deny d: reserved(p) && prev confirmed(p)", false),
        ];
        for (src, expect) in cases {
            let c = checker(src);
            let oracle = engine(&c).oracle(TimePoint(0));
            let nodes = engine(&c).compiled.nodes.iter().enumerate();
            let mut nodes = nodes.map(|(id, formula)| Node { id, formula });
            assert_eq!(nodes.any(|n| oracle.flips(n).is_some()), expect, "{src}");
        }
    }

    #[test]
    fn quiescent_steps_replay_the_memo() {
        // `reserved(p)` is identity-shaped: its rows are the relation's own
        // set, with no memo slot, so an update elsewhere leaves the
        // relation's version — the atom's — alone. `pair(p, "x")` filters
        // on a constant, so its rows are not `pair`'s and it is memoized: a
        // step that leaves `pair` alone replays it, and so does one that
        // deletes and re-inserts one of its tuples — not a change.
        let catalog = Catalog::clone(&catalog())
            .with("pair", Schema::of(&[("x", Sort::Str), ("y", Sort::Str)]))
            .unwrap();
        let src = "deny d: pair(p, \"x\") && reserved(p) && !once[0,*] confirmed(p)";
        let options = EncodingOptions {
            profile_plans: true,
            ..Default::default()
        };
        let mut c = IncrementalChecker::with_options(
            parse_constraint(src).unwrap(),
            Arc::new(catalog),
            options,
        )
        .unwrap();
        let load = Update::new()
            .with_insert("reserved", tuple!["ann"])
            .with_insert("pair", tuple!["ann", "x"]);
        assert_eq!(c.step(TimePoint(0), &load).unwrap().violation_count(), 1);
        let versions = |c: &IncrementalChecker| {
            let db = c.database();
            (db.rel_gen("reserved".into()), db.rel_gen("pair".into()))
        };
        let hits = |c: &IncrementalChecker, label: &str| {
            let profile = c.plan_profile().expect("profiling enabled");
            let mut nodes = profile.nodes.into_iter().filter(|n| n.desc.label == label);
            let n = nodes.next().expect("the atom is in the plan");
            (n.desc.memoized, n.counts.cache_hits)
        };
        assert_eq!(hits(&c, "atom(reserved)"), (false, 0));
        assert_eq!(hits(&c, "atom(pair)"), (true, 0));
        let before = versions(&c);
        // A no-op delete elsewhere forces the full path: the body
        // re-executes.
        let elsewhere = Update::new().with_delete("confirmed", tuple!["ghost"]);
        c.step(TimePoint(1), &elsewhere).unwrap();
        assert_eq!(versions(&c), before, "the identity atom kept its version");
        assert_eq!(hits(&c, "atom(pair)"), (true, 1));
        let again = Update::new()
            .with_delete("pair", tuple!["ann", "x"])
            .with_insert("pair", tuple!["ann", "x"]);
        assert_eq!(c.step(TimePoint(2), &again).unwrap().violation_count(), 1);
        assert_eq!(versions(&c), before, "a delete + re-insert is no change");
        assert_eq!(hits(&c, "atom(pair)"), (true, 2));
    }

    #[test]
    fn an_engine_panic_surfaces_from_every_later_step() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut c = checker("deny d: reserved(p) && once[0,3] confirmed(p)");
        assert!(c.0.arm_panic("d", 2));
        c.step(TimePoint(1), &Update::new()).unwrap();
        for t in 2..4 {
            let step = catch_unwind(AssertUnwindSafe(|| c.step(TimePoint(t), &Update::new())));
            let payload = step.expect_err("the quarantined engine's panic surfaces");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted reason");
            assert!(message.contains("injected engine panic"), "{message}");
            assert!(message.contains("step 2 (t=@2)"), "{message}");
        }
    }

    #[test]
    fn steps_counter_advances() {
        let mut c = checker("deny d: reserved(p) && confirmed(p)");
        assert_eq!(c.steps(), 0);
        c.step(TimePoint(1), &Update::new()).unwrap();
        c.step(TimePoint(2), &Update::new()).unwrap();
        assert_eq!(c.steps(), 2);
    }
}
