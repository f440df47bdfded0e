//! The incremental checker — the paper's contribution.
//!
//! Holds only the current database state plus the bounded auxiliary state
//! of [`crate::encode`]. Each [`IncrementalChecker::step`]:
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
//! The aux machinery lives in [`NodeEngine`] so that a [`crate::ConstraintSet`]
//! can advance several constraints' engines over one shared database.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use rtic_history::HistoryError;
use rtic_relation::{Catalog, Database, FastMap, Tuple, Update};
use rtic_temporal::ast::{Formula, Var};
use rtic_temporal::time::Duration;
use rtic_temporal::{Constraint, TimePoint};

use crate::binding::{Bindings, Scratch};
use crate::checker::Checker;
use crate::compile::CompiledConstraint;
use crate::encode::{HistFiniteState, HistInfState, PrevState, StampPolicy, WindowState, NEVER};
use crate::error::CompileError;
use crate::eval::{eval, Oracle};
use crate::plan::NodePlans;
use crate::report::{SpaceStats, StepReport};

/// Auxiliary state of one temporal node.
#[derive(Clone, Debug)]
pub(crate) enum NodeState {
    Prev(PrevState),
    Once(WindowState),
    Since(WindowState),
    HistFinite(HistFiniteState),
    HistInf(HistInfState),
}

impl NodeState {
    /// `(keys, timestamps)` currently stored.
    fn space(&self) -> (usize, usize) {
        match self {
            NodeState::Prev(p) => p.space(),
            NodeState::Once(w) | NodeState::Since(w) => w.space(),
            NodeState::HistFinite(h) => h.space(),
            NodeState::HistInf(h) => h.space(),
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
}

/// Options tuning the encoding (used by the T6 ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingOptions {
    /// Disable the one-timestamp specialisations: every `once`/`since`
    /// node keeps the general pruned deque. Semantics are unchanged; only
    /// space/time differ.
    pub disable_stamp_specialization: bool,
    /// Evaluate through the interpreting [`eval`] instead of the compiled
    /// plans — the reference mode for the differential oracle and for the
    /// plan-vs-interpret benchmarks. Reports are byte-identical either way.
    pub interpret_eval: bool,
    /// Collect per-plan-node profiler counters (wall time, cardinalities,
    /// memo-cache hits) during planned execution. Reports stay
    /// byte-identical; only [`crate::Checker::plan_profile`] gains data.
    /// Ignored under `interpret_eval` (there are no plan nodes to profile).
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

fn sorted_free_vars(f: &Formula) -> Vec<Var> {
    f.free_vars().into_iter().collect()
}

/// One compiled constraint's bounded auxiliary state, advanced against an
/// externally-owned database. [`IncrementalChecker`] pairs an engine with
/// its own database; [`crate::ConstraintSet`] shares one database across
/// many engines.
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
    /// Each node's operand extension from the last [`NodeEngine::advance`]
    /// (`since`: its anchors, and only when every anchor key had already
    /// passed the maintained formula) — what the node keeps absorbing
    /// while the engine sleeps. `None` declines: the engine never sleeps.
    /// Released before the plans run, so a refresh finds its rows unshared.
    sat_cache: Vec<Option<Bindings>>,
    /// The last step's violations, replayed while the engine sleeps and
    /// released, like `sat_cache`, before the plans run.
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
    /// Reusable probe-key buffers for the planned join kernels.
    scratch: Scratch,
    /// Version token of each `once` node's operand extension from the
    /// previous step. When the planner hands back the same version, or one
    /// a recorded row delta chains from it, and the node's window absorbs
    /// idempotently, maintenance records only the delta's added rows.
    last_sat: Vec<Option<u64>>,
}

impl NodeEngine {
    pub(crate) fn new(compiled: Arc<CompiledConstraint>, options: EncodingOptions) -> NodeEngine {
        let states: Vec<NodeState> = compiled
            .nodes
            .iter()
            .map(|node| {
                let vars = sorted_free_vars(node);
                match node {
                    Formula::Prev(i, _) => NodeState::Prev(PrevState::new(*i, vars)),
                    Formula::Once(i, _) | Formula::Since(i, _, _) => {
                        // The general deque cannot prune with b = ∞, so the
                        // one-timestamp specialisations are mandatory there
                        // (and exact); the ablation only affects finite b.
                        let policy = if options.disable_stamp_specialization && i.is_bounded() {
                            StampPolicy::Many
                        } else {
                            StampPolicy::for_interval(i)
                        };
                        let w = WindowState::new(*i, vars, policy);
                        if matches!(node, Formula::Once(..)) {
                            NodeState::Once(w)
                        } else {
                            NodeState::Since(w)
                        }
                    }
                    Formula::Hist(i, _) => {
                        if i.is_bounded() {
                            NodeState::HistFinite(HistFiniteState::new(*i, vars))
                        } else {
                            NodeState::HistInf(HistInfState::new(*i, vars))
                        }
                    }
                    other => unreachable!("non-temporal node collected: {other}"),
                }
            })
            .collect();
        let extensions = vec![None; compiled.nodes.len()];
        let sat_cache = vec![None; compiled.nodes.len()];
        let last_sat = vec![None; compiled.nodes.len()];
        let intervals = compiled.nodes.iter().filter_map(Formula::interval);
        let bounds = intervals.map(|i| i.hi().finite().unwrap_or(i.lo()));
        let tick_bound = bounds.max().unwrap_or_default();
        NodeEngine {
            compiled,
            states,
            extensions,
            last_time: None,
            sat_cache,
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
            last_sat,
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
    /// `t_now`.
    pub(crate) fn advance(&mut self, db: &Database, t_now: TimePoint) {
        self.catch_up();
        // Every cached row set is let go before a plan runs, so a delta
        // refresh finds the memoized and partitioned rows unshared.
        self.sat_cache.fill(None);
        self.last_violations = None;
        self.deadline = None;
        let mut scratch = std::mem::take(&mut self.scratch);
        let compiled = Arc::clone(&self.compiled);
        for (idx, node) in compiled.nodes.iter().enumerate() {
            // Inner nodes (indices < idx) are already advanced; the oracle
            // exposes exactly their new extensions.
            match node {
                Formula::Prev(_, g) => {
                    let sat_now = {
                        let oracle = self.oracle(t_now);
                        self.operand_extension(idx, g, db, &oracle, &mut scratch)
                    };
                    let NodeState::Prev(p) = &mut self.states[idx] else {
                        unreachable!("node/state kind mismatch")
                    };
                    self.extensions[idx] = Some(p.step(sat_now, t_now));
                }
                Formula::Once(_, g) => {
                    let sat_now = {
                        let oracle = self.oracle(t_now);
                        self.operand_extension(idx, g, db, &oracle, &mut scratch)
                    };
                    let NodeState::Once(w) = &mut self.states[idx] else {
                        unreachable!("node/state kind mismatch")
                    };
                    // Window delta maintenance: when re-absorbing stored
                    // keys is a no-op and the operand's version is the one
                    // this window last absorbed — or a recorded row delta
                    // chains from it — only the delta's added rows need
                    // recording: O(|delta|) instead of O(N). (Removed rows
                    // are not re-added by the full path either; their
                    // stamps expire lazily.)
                    let to = sat_now.version();
                    let last = self.last_sat[idx]
                        .replace(to)
                        .filter(|_| w.absorb_is_noop());
                    if last == Some(to) {
                        // Same version as last absorbed: nothing to record.
                    } else if let Some(d) = scratch.delta_into(to).filter(|d| Some(d.from) == last)
                    {
                        if !d.added.is_empty() {
                            let rows = d.added.iter().cloned();
                            let small = Bindings::from_rows(sat_now.vars().to_vec(), rows);
                            w.add_and_prune(&small, t_now);
                        }
                    } else {
                        w.add_and_prune(&sat_now, t_now);
                    }
                    self.sat_cache[idx] = Some(sat_now);
                    // Extension answered lazily by the oracle.
                }
                Formula::Since(_, f, g) => {
                    let (survivors, anchors, vars) = {
                        let NodeState::Since(w) = &self.states[idx] else {
                            unreachable!("node/state kind mismatch")
                        };
                        let keys = w.keys();
                        let vars = w.vars().to_vec();
                        let oracle = self.oracle(t_now);
                        let (survivors, anchors) = if self.interpret {
                            (
                                // `f` filters the existing anchors' keys…
                                eval(f, db, &oracle, &keys).project(&vars),
                                // …while `g` creates fresh anchors.
                                eval(g, db, &oracle, &Bindings::unit()),
                            )
                        } else {
                            let NodePlans::Since { f: fp, g: gp } =
                                &self.compiled.plans.node_ops[idx]
                            else {
                                unreachable!("since node without a since plan")
                            };
                            (
                                fp.execute(db, &oracle, &keys, &mut scratch).project(&vars),
                                gp.execute(db, &oracle, &Bindings::unit(), &mut scratch),
                            )
                        };
                        (survivors, anchors, vars)
                    };
                    debug_assert_eq!(anchors.vars(), vars.as_slice());
                    let NodeState::Since(w) = &mut self.states[idx] else {
                        unreachable!("node/state kind mismatch")
                    };
                    w.retain_keys(&survivors);
                    w.add_and_prune(&anchors, t_now);
                    // A fresh anchor key has not met `f` yet: decline.
                    if anchors.rows().all(|k| survivors.contains(k)) {
                        self.sat_cache[idx] = Some(anchors);
                    }
                }
                Formula::Hist(_, g) => {
                    let sat_now = {
                        let oracle = self.oracle(t_now);
                        self.operand_extension(idx, g, db, &oracle, &mut scratch)
                    };
                    match &mut self.states[idx] {
                        NodeState::HistFinite(h) => h.step(&sat_now, t_now, self.last_time),
                        NodeState::HistInf(h) => h.step(&sat_now, t_now),
                        _ => unreachable!("node/state kind mismatch"),
                    }
                    self.sat_cache[idx] = Some(sat_now);
                    // `hist` is a filter; it has no generator extension.
                }
                other => unreachable!("non-temporal node: {other}"),
            }
        }
        self.scratch = scratch;
        self.last_time = Some(t_now);
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

    /// The minimum of the nodes' `next_change` as of the last step `t`.
    fn next_change(&self, t: TimePoint) -> TimePoint {
        let nodes = self
            .states
            .iter()
            .zip(&self.sat_cache)
            .zip(&self.extensions);
        let changes = nodes.map(|((state, sat), ext)| match (state, sat) {
            (NodeState::Prev(p), _) => p.next_change(ext.as_ref(), t),
            (NodeState::Once(w) | NodeState::Since(w), Some(sat)) => w.next_change(sat, t),
            (NodeState::HistFinite(h), Some(sat)) => h.next_change(sat, t),
            (NodeState::HistInf(h), Some(_)) => h.next_change(),
            (_, None) => t.plus(Duration(1)),
        });
        changes.min().unwrap_or(NEVER)
    }

    /// Absorbs the deferred states, leaving exactly the state one
    /// [`NodeEngine::advance`] per tick would have left.
    fn catch_up(&mut self) {
        if self.sleep_bug == Some(SleepBug::ShortCatchUp) {
            self.pending.pop_back();
        }
        let Some(&t_new) = self.pending.back() else {
            return;
        };
        let mut ticks = std::mem::take(&mut self.pending);
        let ticks: &[TimePoint] = ticks.make_contiguous();
        for (state, sat) in self.states.iter_mut().zip(&self.sat_cache) {
            match (state, sat) {
                (NodeState::Prev(p), _) => p.catch_up(t_new),
                (NodeState::Once(w) | NodeState::Since(w), Some(sat)) => w.catch_up(sat, ticks),
                (NodeState::HistFinite(h), Some(sat)) => h.catch_up(sat, ticks, self.last_time),
                (NodeState::HistInf(h), Some(sat)) => h.catch_up(sat, ticks),
                // An engine with a declining node never sleeps — unless the
                // planted late deadline let it.
                (_, None) => debug_assert!(self.sleep_bug.is_some(), "slept over a declining node"),
            }
        }
        self.last_time = Some(t_new);
    }

    /// The newest state seen, deferred ones included.
    pub(crate) fn now(&self) -> Option<TimePoint> {
        self.pending.back().copied().or(self.last_time)
    }

    /// `(states deferred, tick bound)`: the former never exceeds the
    /// latter plus one.
    pub(crate) fn deferred(&self) -> (usize, u64) {
        (self.pending.len(), self.tick_bound.0)
    }

    /// The engine with nothing deferred — what `&self` readers (space
    /// accounting, checkpoints) see: while asleep, a caught-up copy of the
    /// auxiliary state. Not `self.clone()`: the plans' scratch is most of
    /// an engine, and no reader looks at it.
    pub(crate) fn settled(&self) -> Cow<'_, NodeEngine> {
        if self.pending.is_empty() {
            return Cow::Borrowed(self);
        }
        let mut engine = NodeEngine {
            compiled: Arc::clone(&self.compiled),
            states: self.states.clone(),
            extensions: Vec::new(),
            last_time: self.last_time,
            sat_cache: self.sat_cache.clone(),
            last_violations: None,
            deadline: None,
            pending: self.pending.clone(),
            tick_bound: self.tick_bound,
            sleep_bug: self.sleep_bug,
            interpret: self.interpret,
            scratch: Scratch::default(),
            last_sat: Vec::new(),
        };
        engine.catch_up();
        Cow::Owned(engine)
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
        let mut keys = 0;
        let mut stamps = 0;
        for s in &self.settled().states {
            let (k, t) = s.space();
            keys += k;
            stamps += t;
        }
        (keys, stamps)
    }

    /// Each temporal node's auxiliary footprint, children-first.
    pub(crate) fn node_stats(&self) -> Vec<NodeStat> {
        self.compiled
            .nodes
            .iter()
            .zip(&self.settled().states)
            .map(|(node, state)| {
                let (keys, timestamps) = state.space();
                NodeStat {
                    formula: node.to_string(),
                    keys,
                    timestamps,
                }
            })
            .collect()
    }
}

/// Online checker with bounded history encoding.
#[derive(Clone, Debug)]
pub struct IncrementalChecker {
    db: Database,
    engine: NodeEngine,
    steps: usize,
}

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
        let db = Database::new(Arc::clone(&compiled.catalog));
        IncrementalChecker {
            db,
            engine: NodeEngine::new(Arc::new(compiled), options),
            steps: 0,
        }
    }

    /// Fault injection for the differential oracle's mutation smoke: from
    /// now on a probe partition whose input version neither matches nor
    /// chains through a recorded row delta is trusted instead of rebuilt.
    #[doc(hidden)]
    pub fn arm_stale_versions(&mut self) {
        self.engine.scratch.arm_stale_versions();
    }

    /// Fault injection for the oracle's mutation smoke: plants `bug`.
    #[doc(hidden)]
    pub fn arm_sleep_bug(&mut self, bug: SleepBug) {
        self.engine.sleep_bug = Some(bug);
    }

    /// The compiled form (for inspection and for building siblings).
    pub fn compiled(&self) -> &CompiledConstraint {
        &self.engine.compiled
    }

    /// The current database state.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of transitions processed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Timestamp of the last processed transition, if any. After a
    /// checkpoint restore this is the replay cursor: transitions at or
    /// before it have already been absorbed.
    pub fn last_time(&self) -> Option<TimePoint> {
        self.engine.now()
    }

    pub(crate) fn engine(&self) -> &NodeEngine {
        &self.engine
    }

    /// Per-temporal-node observability: what each auxiliary structure is
    /// holding right now. Ordered children-first (the update order).
    pub fn node_stats(&self) -> Vec<NodeStat> {
        self.engine.node_stats()
    }

    pub(crate) fn parts_mut(&mut self) -> (&mut Database, &mut NodeEngine, &mut usize) {
        (&mut self.db, &mut self.engine, &mut self.steps)
    }
}

impl Checker for IncrementalChecker {
    fn constraint(&self) -> &Constraint {
        &self.engine.compiled.constraint
    }

    fn step(&mut self, time: TimePoint, update: &Update) -> Result<StepReport, HistoryError> {
        if let Some(last) = self.engine.now() {
            if time <= last {
                return Err(HistoryError::NonMonotonicTime { last, new: time });
            }
        }
        self.db.apply(update)?;
        let quiescent = self.engine.is_quiescent(update);
        let asleep = quiescent.then(|| self.engine.sleep(time)).flatten();
        let violations = asleep.unwrap_or_else(|| {
            self.engine.advance(&self.db, time);
            self.engine.violations(&self.db, time)
        });
        self.steps += 1;
        Ok(StepReport {
            constraint: self.engine.compiled.constraint.name,
            time,
            violations,
        })
    }

    fn space(&self) -> SpaceStats {
        let (aux_keys, aux_timestamps) = self.engine.aux_space();
        SpaceStats {
            aux_keys,
            aux_timestamps,
            stored_states: 1,
            stored_tuples: self.db.total_tuples(),
        }
    }

    fn name(&self) -> &'static str {
        "incremental"
    }

    fn plan_stats(&self) -> Option<crate::plan::RuntimePlanStats> {
        if self.engine.interpret {
            return None;
        }
        Some(self.engine.plan_stats())
    }

    fn plan_profile(&self) -> Option<crate::plan::PlanProfile> {
        self.engine.plan_profile()
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
    fn idx(&self, node: &Formula) -> usize {
        *self
            .node_ids
            .get(node)
            .unwrap_or_else(|| panic!("unknown temporal node `{node}`"))
    }
}

impl Oracle for IncOracle<'_> {
    fn extension(&self, node: &Formula) -> Bindings {
        let idx = self.idx(node);
        match &self.states[idx] {
            NodeState::Prev(_) => self.extensions[idx]
                .clone()
                .expect("prev extension cached during advance"),
            NodeState::Once(w) | NodeState::Since(w) => w.extension(self.t_now),
            _ => unreachable!("extension query against a hist node"),
        }
    }

    fn contains(&self, node: &Formula, key: &Tuple) -> bool {
        let idx = self.idx(node);
        match &self.states[idx] {
            NodeState::Prev(_) => self.extensions[idx]
                .as_ref()
                .expect("prev extension cached during advance")
                .contains(key),
            NodeState::Once(w) | NodeState::Since(w) => w.satisfied(key, self.t_now),
            _ => unreachable!("containment query against a hist node"),
        }
    }

    fn hist_holds(&self, node: &Formula, key: &Tuple) -> bool {
        let idx = self.idx(node);
        match &self.states[idx] {
            NodeState::HistFinite(h) => h.holds(key, self.t_now),
            NodeState::HistInf(h) => h.holds(key),
            _ => unreachable!("hist query against non-hist node"),
        }
    }

    fn probe_monotone(&self, node: &Formula) -> bool {
        // `since` windows share `WindowState` but drop keys when the
        // maintained formula fails, so only `once` qualifies.
        match &self.states[self.idx(node)] {
            NodeState::Once(w) => w.probe_monotone(),
            _ => false,
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
    fn ablation_option_keeps_semantics() {
        let src = "deny d: reserved(p) && once[0,5] confirmed(p)";
        let mut spec = checker(src);
        let mut plain = IncrementalChecker::with_options(
            parse_constraint(src).unwrap(),
            catalog(),
            EncodingOptions {
                disable_stamp_specialization: true,
                ..Default::default()
            },
        )
        .unwrap();
        for t in 0..40u64 {
            let upd = if t % 7 == 0 {
                Update::new()
                    .with_insert("confirmed", tuple!["k"])
                    .with_insert("reserved", tuple!["k"])
            } else if t % 5 == 0 {
                Update::new().with_delete("confirmed", tuple!["k"])
            } else {
                Update::new()
            };
            let a = spec.step(TimePoint(t), &upd).unwrap();
            let b = plain.step(TimePoint(t), &upd).unwrap();
            assert_eq!(a, b, "ablation changed semantics at t={t}");
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
            let (a, b) = (
                crate::checkpoint::save(&lazy),
                crate::checkpoint::save(&eager),
            );
            assert_eq!(a, b, "{src}: settled state diverged at t={t}");
            let deferred = lazy.engine.pending.len() as u64;
            assert!(
                deferred <= lazy.engine.tick_bound.0 + 1,
                "{src}: {deferred}"
            );
            slept += usize::from(deferred > 0);
        }
        // Cached extensions and violations are let go before a refresh
        // (a `prev` state is itself a second holder of its operand rows).
        let copied = lazy.engine.plan_stats().rows_copied;
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
        assert_eq!(c.engine.aux_space().0, 1, "one live key");
        // Pure ticks from here: asleep until the stamp's deadline, 0+3+1.
        c.step(TimePoint(2), &Update::new()).unwrap();
        c.step(TimePoint(3), &Update::new()).unwrap();
        assert_eq!(c.engine.pending.len(), 2, "both ticks deferred");
        assert_eq!(c.engine.aux_space().0, 1, "age 3 is still in [0,3]");
        c.step(TimePoint(4), &Update::new()).unwrap();
        assert!(c.engine.pending.is_empty(), "the deadline woke the engine");
        assert_eq!(c.engine.aux_space().0, 0, "witness expired on time");
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
        assert!(c.engine.pending.is_empty(), "fresh anchor: a full step");
        c.step(TimePoint(3), &Update::new()).unwrap();
        assert_eq!(c.engine.pending.len(), 1, "every key passed f: asleep");
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
        // kernels, the per-relation-generation memo with its in-place atom
        // delta refresh, window delta maintenance — the other the
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
                    compiled.engine.aux_space(),
                    reference.engine.aux_space(),
                    "{src}: aux state diverged at t={t}"
                );
            }
        }
    }

    /// Rows the monotone probe nodes have streamed so far (a full
    /// partition rebuild streams the node's whole input, an advance only
    /// its failed rows plus the input delta).
    fn probe_rows_streamed(c: &IncrementalChecker) -> u64 {
        let profile = c.engine.plan_profile().expect("profiling enabled");
        let probes = profile.nodes.iter().filter(|n| n.desc.probe);
        probes.map(|n| n.counts.block_rows).sum()
    }

    #[test]
    fn monotone_probe_partitions_survive_adversarial_deltas() {
        // The compiled path caches a passed/failed partition for
        // unbounded-once probes and advances it from row deltas chained
        // by version token. Stress the delta bookkeeping with the cases
        // that historically break partition caches: deleting a row that
        // already passed the probe, inserting and deleting the same row
        // within one step, deleting and re-inserting an initially present
        // row, and a probe input that churns every step. Bounded windows
        // (`once[1,3]`) and `since` must fall back to per-row probing;
        // both flavours run against the interpreter byte-for-byte.
        for src in [
            // Unbounded probes: partition cache engages.
            "deny u: once[2,*] reserved(p) && reserved(p) && !once confirmed(p)",
            "deny d: reserved(p) && once[0,*] confirmed(p)",
            // Bounded / since: verdicts can revoke, cache must not engage.
            "deny d: reserved(p) && once[1,3] confirmed(p)",
            "deny d: reserved(p) since[0,4] confirmed(p)",
        ] {
            let mut compiled = checker(src);
            let mut reference = interpreted(src);
            let names = ["ann", "bob", "cal"];
            for t in 0..60u64 {
                let i = t as usize;
                let upd = match t % 6 {
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
                let a = compiled.step(TimePoint(t), &upd).unwrap();
                let b = reference.step(TimePoint(t), &upd).unwrap();
                assert_eq!(a, b, "{src}: compiled diverged at t={t}");
                assert_eq!(
                    a.violations.to_string(),
                    b.violations.to_string(),
                    "{src}: rendering diverged at t={t}"
                );
            }
        }
    }

    #[test]
    fn a_version_mismatch_anywhere_in_the_chain_forces_a_full_rebuild() {
        // atom → probe(once[2,*]) → probe(once) over 40 resident rows.
        // While the version tokens chain, a one-row delta costs the probes
        // a handful of rows. Swapping the database for an equal-content
        // clone (fresh instance id) voids the atom memo, so the atom is
        // rebuilt under a version no recorded delta leads to: the first
        // probe must repartition its whole input, and — since a rebuild
        // publishes no delta either — so must the second. Reports keep
        // matching the interpreter throughout.
        let src = "deny u: reserved(p) && once[2,*] reserved(p) && !once confirmed(p)";
        let options = EncodingOptions {
            profile_plans: true,
            ..Default::default()
        };
        let mut compiled =
            IncrementalChecker::with_options(parse_constraint(src).unwrap(), catalog(), options)
                .unwrap();
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
            if t == 8 {
                let (db, _, _) = compiled.parts_mut();
                *db = db.clone();
            }
            let before = probe_rows_streamed(&compiled);
            let a = compiled.step(TimePoint(t), &upd).unwrap();
            let b = reference.step(TimePoint(t), &upd).unwrap();
            assert_eq!(a.to_string(), b.to_string(), "diverged at t={t}");
            streamed.push(probe_rows_streamed(&compiled) - before);
        }
        // Chained steps: the failed rows (unconfirmed + too young) plus
        // the one-row delta, per probe — far below the 40+ resident rows.
        for t in [5, 6, 7, 9, 10, 11] {
            assert!(streamed[t] <= 30, "t={t} streamed {}", streamed[t]);
        }
        // The broken chain: both probes rescan their whole input.
        assert!(streamed[8] >= 80, "rebuild streamed only {}", streamed[8]);
    }

    #[test]
    fn a_delta_into_a_shared_row_set_copies_instead_of_corrupting_the_holder() {
        // This test keeps every report (as a caller that prints them
        // later does), so the witness rows — the failed side of the `!once`
        // probe's partition — have a second holder when the next delta or
        // flip arrives; the engine sleeps through the quiescent ticks in
        // between, and the profiler is on. Each delta must then land on a copy — counted in
        // `rows_copied` — with reports byte-identical to the interpreter
        // and every held report still reading what it read when issued.
        let src = "deny d: reserved(p) && !once[0,*] confirmed(p)";
        let options = EncodingOptions {
            profile_plans: true,
            ..Default::default()
        };
        let mut compiled =
            IncrementalChecker::with_options(parse_constraint(src).unwrap(), catalog(), options)
                .unwrap();
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
            assert_eq!(a.to_string(), b.to_string(), "diverged at t={t}");
            held.push((a, b.to_string()));
        }
        for (report, rendered) in &held {
            assert_eq!(&report.to_string(), rendered, "a held report changed");
        }
        let copied = compiled.plan_stats().expect("compiled plans").rows_copied;
        assert!(copied > 0, "the copy-on-shared fallback never ran");
    }

    #[test]
    fn probe_monotone_only_for_unbounded_once() {
        // Only `once[l,*]` states may certify monotone probes; bounded
        // windows prune stamps and `since` drops keys, so a cached
        // "passed" verdict could go stale.
        let cases = [
            ("deny d: reserved(p) && once[2,*] confirmed(p)", true),
            ("deny d: reserved(p) && once[0,3] confirmed(p)", false),
            ("deny d: reserved(p) since[0,4] confirmed(p)", false),
        ];
        for (src, expect) in cases {
            let c = checker(src);
            let oracle = c.engine.oracle(TimePoint(0));
            let any_monotone = c
                .engine
                .compiled
                .nodes
                .iter()
                .any(|n| oracle.probe_monotone(n));
            assert_eq!(any_monotone, expect, "{src}");
        }
    }

    #[test]
    fn quiescent_steps_replay_the_memo() {
        // A pure tick leaves every relation generation alone, so the memo
        // replays (cache hit) instead of rescanning; an update to an
        // *unrelated* relation must also keep the entry.
        let src = "deny d: reserved(p) && !once[0,*] confirmed(p)";
        let mut c = IncrementalChecker::with_options(
            parse_constraint(src).unwrap(),
            catalog(),
            EncodingOptions {
                profile_plans: true,
                ..Default::default()
            },
        )
        .unwrap();
        c.step(
            TimePoint(0),
            &Update::new().with_insert("reserved", tuple!["ann"]),
        )
        .unwrap();
        // Force the full path with a no-op non-quiescent update: the body
        // re-executes, and its db-pure subtrees must hit the memo.
        c.step(
            TimePoint(1),
            &Update::new().with_delete("confirmed", tuple!["ghost"]),
        )
        .unwrap();
        let profile = c.engine.plan_profile().expect("profiling enabled");
        let hits: u64 = profile.nodes.iter().map(|n| n.counts.cache_hits).sum();
        assert!(
            hits > 0,
            "per-relation-generation memo never replayed: {profile:?}"
        );
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
