//! Compiled evaluation plans: plan once, execute many.
//!
//! The interpreting evaluator ([`crate::eval::eval`]) re-derives everything
//! from the formula on every step: it re-runs `flatten_and` +
//! `conjunct_order` on each `And`, re-collects and re-sorts free-variable
//! lists, and re-computes column/projection maps inside every join. None of
//! that depends on the data — [`Bindings`] schemas are canonically sorted,
//! so every position is a function of the formula and the input schema
//! alone. Following the query-compilation tradition (Neumann, VLDB 2011),
//! [`Plan::compile`] lowers a normalized body into a tree of plan nodes at
//! constraint-compile time, precomputing:
//!
//! * the conjunct evaluation order (by calling the *same*
//!   [`safety::conjunct_order`] the interpreter uses, so the planned order
//!   is provably identical);
//! * sorted output-variable lists for every node;
//! * join column-source maps and atom index-column shapes
//!   ([`crate::binding`]'s `JoinShape`/`AtomShape`);
//! * the bound-vs-generating decision for temporal and count nodes
//!   (semijoin-pushdown probe vs. extension join) — static because the
//!   input schema is static.
//!
//! [`Plan::execute`] then mirrors the interpreter arm for arm over the same
//! [`Bindings`] kernels, threading a reusable [`Scratch`] buffer through
//! the shaped join paths. Planned execution is byte-identical to
//! interpretation by construction; the differential oracle's `windowed`
//! (against `naive`) and `inc-interp` (against `set`) modes pin it.

use std::collections::BTreeSet;
use std::sync::Arc;

use rtic_relation::{Database, Symbol, Tuple, TupleMap, Value};
use rtic_temporal::ast::{CmpOp, Formula, Term, Var};
use rtic_temporal::safety;

use crate::binding::{
    AtomShape, Bindings, JoinShape, MemoEntry, ProbePartition, RowDelta, Scratch,
};
use crate::eval::{Flips, Node, Oracle};

/// Where a comparison operand's value comes from at execution time.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ValueSrc {
    /// A literal from the formula.
    Const(Value),
    /// The input row's column at this position.
    Col(usize),
}

impl ValueSrc {
    fn read(self, row: &Tuple) -> Value {
        match self {
            ValueSrc::Const(c) => c,
            ValueSrc::Col(i) => row[i],
        }
    }
}

/// One lowered plan node. Every variant stores exactly what its
/// interpreter twin recomputes per call. Equality is structural: two
/// database-pure subtrees that compare equal before memo slots are handed
/// out compute the same rows.
#[derive(Clone, Debug, PartialEq)]
enum Kind {
    /// `true`: pass the input through.
    True,
    /// `false`: empty output over the input schema.
    False,
    /// Atom join through a precomputed index shape; an identity-shaped
    /// one reads the relation's own row set.
    Atom { relation: Symbol, shape: AtomShape },
    /// Comparison with both sides bound: a filter.
    CmpFilter { op: CmpOp, a: ValueSrc, b: ValueSrc },
    /// Equality with one unbound side: extends each row with `v`.
    CmpExtend { v: Var, src: ValueSrc },
    /// Negation: project to the operand's variables, evaluate, antijoin.
    Not { gvars: Vec<Var>, inner: Box<Plan> },
    /// Flattened conjunction in precomputed evaluation order.
    AndChain { order: Vec<usize>, steps: Vec<Plan> },
    /// Disjunction of two same-schema branches.
    Or { a: Box<Plan>, b: Box<Plan> },
    /// Existential: evaluate, then drop the quantified variables.
    Exists { drop: Vec<Var>, inner: Box<Plan> },
    /// A temporal node with all its variables already bound — `hist`
    /// always (safety guarantees it): per-candidate membership probe
    /// (semijoin pushdown), keeping the candidates whose key holds or,
    /// directly under a negation (`passing` false), those whose key
    /// fails. `id` is the node's index among the constraint's temporal
    /// nodes, bound by [`EvalPlans::build`] (like every `id` below).
    Probe {
        node: Formula,
        id: usize,
        proj: Vec<usize>,
        passing: bool,
    },
    /// `prev`/`once`/`since` generating fresh variables: join the
    /// oracle's extension through a precomputed shape.
    TemporalJoin {
        node: Formula,
        id: usize,
        shape: JoinShape,
    },
    /// Count aggregate whose predicate admits zero: a filter over already
    /// bound outer variables.
    CountFilter {
        body: Box<Plan>,
        outer_pos_ext: Vec<usize>,
        pos_in: Vec<usize>,
        op: CmpOp,
        threshold: i64,
    },
    /// Count aggregate that generates: join the qualifying groups.
    CountJoin {
        body: Box<Plan>,
        outer: Vec<Var>,
        outer_pos_ext: Vec<usize>,
        shape: JoinShape,
        op: CmpOp,
        threshold: i64,
    },
}

/// A compiled evaluation plan for one formula against a fixed input schema.
///
/// Execution requires the input's variable list to equal the schema the
/// plan was compiled for (checkers guarantee this structurally: bodies and
/// node operands run from [`Bindings::unit`], `since` continuations from
/// the node's key schema).
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    kind: Kind,
    in_vars: Vec<Var>,
    out_vars: Vec<Var>,
    /// When set, this node is database-pure with a unit input: its result
    /// is a function of the database contents alone, so execution memoizes
    /// it in [`Scratch`] — one slot for every structurally equal subtree of
    /// the constraint. Assigned by [`EvalPlans::build`]; plans compiled
    /// standalone never memoize.
    cache_slot: Option<usize>,
    /// The relations this subtree reads, recorded when a cache slot is
    /// assigned (empty otherwise). The memo is keyed on these relations'
    /// versions, so updates to unrelated relations keep the entry valid.
    cache_rels: Vec<Symbol>,
    /// Stable pre-order index used to attribute profiler counters to this
    /// node. Assigned by [`EvalPlans::build`]; standalone plans keep
    /// [`UNTRACKED`] and record nothing even when profiling is enabled.
    node_id: usize,
}

/// Node id of plans compiled outside [`EvalPlans::build`]: the profiler
/// skips them rather than guessing an attribution.
const UNTRACKED: usize = usize::MAX;

/// How one [`Plan::execute`] call interacted with the memo cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CacheTouch {
    /// Node has no cache slot (or the input bypassed the memo).
    Untouched,
    /// Replayed a stored result (its relations' versions unchanged).
    Hit,
    /// Computed and stored a fresh result.
    Miss,
}

/// Profiler counters for one plan node, accumulated across every
/// [`Plan::execute`] call while profiling is enabled on the [`Scratch`].
/// Wall time is inclusive (a node's time contains its children's), matching
/// how `EXPLAIN ANALYZE`-style output is conventionally read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Times this node executed.
    pub calls: u64,
    /// Inclusive wall-clock nanoseconds across all calls.
    pub time_ns: u64,
    /// Total input rows across all calls.
    pub rows_in: u64,
    /// Total output rows across all calls.
    pub rows_out: u64,
    /// Memo-cache replays (database-pure subtree, unchanged relations).
    pub cache_hits: u64,
    /// Memo-cache fills and delta refreshes (a read relation changed, or
    /// first execution).
    pub cache_misses: u64,
    /// Column blocks streamed by the kernels in this subtree (inclusive,
    /// like `time_ns`).
    pub blocks: u64,
    /// Total rows across those blocks; `block_rows / blocks` is the mean
    /// rows-per-block this node's kernels processed.
    pub block_rows: u64,
}

impl NodeCounters {
    /// Merges another node's counters into this one (times add up).
    pub fn absorb(&mut self, other: NodeCounters) {
        self.calls += other.calls;
        self.time_ns += other.time_ns;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.blocks += other.blocks;
        self.block_rows += other.block_rows;
    }

    /// Mean rows-per-block across this node's kernel calls, when any block
    /// was streamed.
    pub fn rows_per_block(&self) -> Option<f64> {
        if self.blocks == 0 {
            None
        } else {
            #[allow(clippy::cast_precision_loss)]
            Some(self.block_rows as f64 / self.blocks as f64)
        }
    }

    /// Fraction of memo-cache touches that were replays, when the node
    /// touched the cache at all.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let touches = self.cache_hits + self.cache_misses;
        if touches == 0 {
            None
        } else {
            #[allow(clippy::cast_precision_loss)]
            Some(self.cache_hits as f64 / touches as f64)
        }
    }
}

/// Static description of one plan node, produced by [`EvalPlans::describe`]
/// in the same pre-order the profiler numbers nodes in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeDesc {
    /// Pre-order node id (index into the profiler's counter table).
    pub id: usize,
    /// Tree depth within this node's plan (roots are 0).
    pub depth: usize,
    /// Slash-separated position, e.g. `body/and[1]/not`.
    pub path: String,
    /// Operator label, e.g. `atom(reserved)` or `probe(once confirmed(p, f))`.
    pub label: String,
    /// Whether this subtree is memoized (database-pure, unit input).
    pub memoized: bool,
    /// Semijoin-pushdown probe (temporal/hist membership test per row).
    pub probe: bool,
    /// Materializing join (temporal extension or qualifying count groups).
    pub materialize: bool,
}

/// One plan node's static description zipped with its runtime counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfiledNode {
    /// Where the node sits and what it does.
    pub desc: NodeDesc,
    /// What it cost at runtime.
    pub counts: NodeCounters,
}

/// A per-node execution profile of one constraint's compiled plans, keyed
/// by node path. Rows are in pre-order (parents before children), so a
/// renderer can indent by [`NodeDesc::depth`] directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// All plan nodes with their accumulated counters.
    pub nodes: Vec<ProfiledNode>,
}

impl PlanProfile {
    /// Total inclusive wall time, counted once per plan root (nested node
    /// times are already contained in their root's).
    pub fn total_time_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.desc.depth == 0)
            .map(|n| n.counts.time_ns)
            .sum()
    }

    /// The `limit` most expensive nodes by inclusive wall time, hottest
    /// first; ties broken by node id so the order is deterministic.
    pub fn hot(&self, limit: usize) -> Vec<&ProfiledNode> {
        let mut rows: Vec<&ProfiledNode> = self.nodes.iter().collect();
        rows.sort_by(|a, b| {
            b.counts
                .time_ns
                .cmp(&a.counts.time_ns)
                .then(a.desc.id.cmp(&b.desc.id))
        });
        rows.truncate(limit);
        rows
    }
}

/// Static statistics of a compiled plan (satellite observability: what
/// planning bought). Scratch high-water marks are runtime numbers reported
/// separately by the checkers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Total plan nodes.
    pub nodes: usize,
    /// Precomputed atom index shapes ([`crate::binding`]'s `AtomShape`).
    pub atom_shapes: usize,
    /// Precomputed natural-join column maps (`JoinShape`).
    pub join_shapes: usize,
    /// Temporal/hist nodes lowered to semijoin-pushdown probes.
    pub probe_nodes: usize,
    /// Database-pure unit-input subtrees marked for memoized execution.
    pub cached_nodes: usize,
}

impl PlanStats {
    /// Accumulates another plan's statistics into this one.
    pub fn absorb(&mut self, other: PlanStats) {
        self.nodes += other.nodes;
        self.atom_shapes += other.atom_shapes;
        self.join_shapes += other.join_shapes;
        self.probe_nodes += other.probe_nodes;
        self.cached_nodes += other.cached_nodes;
    }
}

/// What a running checker can report about its planned execution: the
/// static plan shape it compiled plus the scratch high-water mark its join
/// kernels have accumulated so far (see [`crate::Checker::plan_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimePlanStats {
    /// Static statistics of the plans this checker executes.
    pub plan: PlanStats,
    /// Widest join or index key, in columns, any planned kernel has
    /// probed with so far.
    pub scratch_high_water: usize,
    /// Rows duplicated because a memoized or partitioned row set was
    /// still shared when a delta or flip arrived, or a relation was still
    /// held (as an identity-shaped atom's rows) when an update changed it.
    /// Zero in steady state: that is what makes a step cost O(|delta|),
    /// not O(resident).
    pub rows_copied: u64,
}

impl RuntimePlanStats {
    /// Accumulates another checker's runtime plan statistics: plan shapes
    /// and copied rows add up, the scratch high-water mark takes the
    /// maximum.
    pub fn absorb(&mut self, other: RuntimePlanStats) {
        self.plan.absorb(other.plan);
        self.scratch_high_water = self.scratch_high_water.max(other.scratch_high_water);
        self.rows_copied += other.rows_copied;
    }
}

impl Plan {
    /// Lowers `f` against a sorted input variable list.
    ///
    /// # Panics
    /// Panics on un-normalized (`Implies`/`Forall`) or unsafe formulas —
    /// the same contract as the interpreter; callers compile only bodies
    /// that already passed [`safety::check`].
    pub fn compile(f: &Formula, input_vars: &[Var]) -> Plan {
        let src = |t: &Term| match t {
            Term::Const(c) => ValueSrc::Const(*c),
            Term::Var(v) => ValueSrc::Col(
                input_vars
                    .binary_search(v)
                    .unwrap_or_else(|_| panic!("unbound variable `{v}` (safety analysis bug)")),
            ),
        };
        let bound = |t: &Term| match t {
            Term::Const(_) => true,
            Term::Var(v) => input_vars.binary_search(v).is_ok(),
        };
        let (kind, out_vars) = match f {
            Formula::True => (Kind::True, input_vars.to_vec()),
            Formula::False => (Kind::False, input_vars.to_vec()),
            Formula::Atom { relation, terms } => {
                let shape = AtomShape::compute(input_vars, terms);
                let out = shape.vars.clone();
                (
                    Kind::Atom {
                        relation: *relation,
                        shape,
                    },
                    out,
                )
            }
            Formula::Cmp(op, a, b) => match (bound(a), bound(b)) {
                (true, true) => (
                    Kind::CmpFilter {
                        op: *op,
                        a: src(a),
                        b: src(b),
                    },
                    input_vars.to_vec(),
                ),
                (false, false) => panic!("comparison with two unbound sides (safety bug)"),
                (a_bound, _) => {
                    let (value, Term::Var(v)) = (if a_bound { (a, b) } else { (b, a) }) else {
                        unreachable!("constants are always bound")
                    };
                    assert_eq!(
                        *op,
                        CmpOp::Eq,
                        "non-equality with unbound side (safety bug)"
                    );
                    let src = src(value);
                    (
                        Kind::CmpExtend { v: *v, src },
                        JoinShape::compute(input_vars, &[*v]).vars,
                    )
                }
            },
            Formula::Not(g) => {
                let gvars = g.sorted_free_vars();
                let mut inner = Box::new(Plan::compile(g, &gvars));
                // A probe under the negation keeps the failing candidates.
                if let Kind::Probe { passing, .. } = &mut inner.kind {
                    *passing = false;
                }
                (Kind::Not { gvars, inner }, input_vars.to_vec())
            }
            Formula::And(..) => {
                let conjuncts = safety::flatten_and(f);
                let pre: BTreeSet<Var> = input_vars.iter().copied().collect();
                let order = safety::conjunct_order(&conjuncts, &pre)
                    .expect("unsafe conjunction (safety-analysis bug)");
                let mut acc = input_vars.to_vec();
                let steps: Vec<Plan> = order
                    .iter()
                    .map(|&i| {
                        let step = Plan::compile(conjuncts[i], &acc);
                        acc = step.out_vars.clone();
                        step
                    })
                    .collect();
                (Kind::AndChain { order, steps }, acc)
            }
            Formula::Or(a, b) => {
                let pa = Plan::compile(a, input_vars);
                let pb = Plan::compile(b, input_vars);
                assert_eq!(
                    pa.out_vars, pb.out_vars,
                    "disjunction branches bind different variables (safety bug)"
                );
                let out = pa.out_vars.clone();
                (
                    Kind::Or {
                        a: Box::new(pa),
                        b: Box::new(pb),
                    },
                    out,
                )
            }
            Formula::Exists(vs, g) => {
                let inner = Box::new(Plan::compile(g, input_vars));
                let mut drop = vs.clone();
                drop.sort_unstable();
                let out: Vec<Var> = inner
                    .out_vars
                    .iter()
                    .copied()
                    .filter(|v| drop.binary_search(v).is_err())
                    .collect();
                (
                    Kind::Exists {
                        drop: vs.clone(),
                        inner,
                    },
                    out,
                )
            }
            Formula::Prev(..) | Formula::Once(..) | Formula::Since(..) | Formula::Hist(..) => {
                let node_vars = f.sorted_free_vars();
                let positions: Option<Vec<usize>> = node_vars
                    .iter()
                    .map(|v| input_vars.binary_search(v).ok())
                    .collect();
                match positions {
                    // All node variables already bound — `hist` always
                    // (safety guarantees it): probe per candidate (semijoin
                    // pushdown) instead of materializing.
                    Some(proj) => (
                        Kind::Probe {
                            node: f.clone(),
                            id: UNTRACKED,
                            proj,
                            passing: true,
                        },
                        input_vars.to_vec(),
                    ),
                    None if matches!(f, Formula::Hist(..)) => panic!("unguarded hist (safety bug)"),
                    // The node generates fresh variables: join the extension.
                    None => {
                        let shape = JoinShape::compute(input_vars, &node_vars);
                        let out = shape.vars.clone();
                        (
                            Kind::TemporalJoin {
                                node: f.clone(),
                                id: UNTRACKED,
                                shape,
                            },
                            out,
                        )
                    }
                }
            }
            Formula::CountCmp {
                vars: _, // counted vars are implicit in the grouping
                body,
                op,
                threshold,
            } => {
                let bplan = Box::new(Plan::compile(body, &[]));
                let outer = f.sorted_free_vars();
                let outer_pos_ext: Vec<usize> = outer
                    .iter()
                    .map(|v| {
                        bplan
                            .out_vars
                            .binary_search(v)
                            .unwrap_or_else(|_| panic!("outer vars are free in the body"))
                    })
                    .collect();
                let zero_ok = op.eval(Value::Int(0), Value::Int(*threshold));
                if zero_ok {
                    // Filter: unseen groups (count 0) qualify, so the outer
                    // variables must already be bound (safety guarantees it).
                    let pos_in: Vec<usize> = outer
                        .iter()
                        .map(|v| {
                            input_vars
                                .binary_search(v)
                                .unwrap_or_else(|_| panic!("unguarded count (safety bug)"))
                        })
                        .collect();
                    (
                        Kind::CountFilter {
                            body: bplan,
                            outer_pos_ext,
                            pos_in,
                            op: *op,
                            threshold: *threshold,
                        },
                        input_vars.to_vec(),
                    )
                } else {
                    // Generator: only groups present in the extension qualify.
                    let shape = JoinShape::compute(input_vars, &outer);
                    let out = shape.vars.clone();
                    (
                        Kind::CountJoin {
                            body: bplan,
                            outer,
                            outer_pos_ext,
                            shape,
                            op: *op,
                            threshold: *threshold,
                        },
                        out,
                    )
                }
            }
            Formula::Implies(..) | Formula::Forall(..) => {
                panic!("un-normalized formula reached the planner (compile bug)")
            }
        };
        Plan {
            kind,
            in_vars: input_vars.to_vec(),
            out_vars,
            cache_slot: None,
            cache_rels: Vec::new(),
            node_id: UNTRACKED,
        }
    }

    /// This node's direct subplans, in execution order.
    fn children(&self) -> Vec<&Plan> {
        match &self.kind {
            Kind::Not { inner, .. } | Kind::Exists { inner, .. } => vec![inner],
            Kind::AndChain { steps, .. } => steps.iter().collect(),
            Kind::Or { a, b } => vec![a, b],
            Kind::CountFilter { body, .. } | Kind::CountJoin { body, .. } => vec![body],
            _ => Vec::new(),
        }
    }

    /// [`Plan::children`], mutably.
    fn children_mut(&mut self) -> Vec<&mut Plan> {
        match &mut self.kind {
            Kind::Not { inner, .. } | Kind::Exists { inner, .. } => vec![inner],
            Kind::AndChain { steps, .. } => steps.iter_mut().collect(),
            Kind::Or { a, b } => vec![a, b],
            Kind::CountFilter { body, .. } | Kind::CountJoin { body, .. } => vec![body],
            _ => Vec::new(),
        }
    }

    /// Visits this subtree in pre-order.
    fn for_each<'p>(&'p self, f: &mut dyn FnMut(&'p Plan)) {
        f(self);
        for child in self.children() {
            child.for_each(f);
        }
    }

    /// Collects every relation this subtree's atoms read.
    fn collect_relations(&self, out: &mut BTreeSet<Symbol>) {
        self.for_each(&mut |p| {
            if let Kind::Atom { relation, .. } = &p.kind {
                out.insert(*relation);
            }
        });
    }

    /// Whether this subtree reads only the database — no temporal or hist
    /// node, so no [`Oracle`] call — making its unit-input result a pure
    /// function of the database contents.
    fn is_db_pure(&self) -> bool {
        let mut pure = true;
        self.for_each(&mut |p| {
            pure &= !matches!(p.kind, Kind::Probe { .. } | Kind::TemporalJoin { .. });
        });
        pure
    }

    /// Marks the largest database-pure, unit-input subtrees for memoized
    /// execution: slot `i` for a subtree equal to `memoized[i]`, a new slot
    /// otherwise. Trivial nodes (pass-through, comparisons) are not worth a
    /// memo entry, and an identity-shaped atom's rows are its relation's
    /// own: they stay uncached.
    fn assign_cache_slots(&mut self, memoized: &mut Vec<Kind>) {
        let trivial = match &self.kind {
            Kind::True | Kind::False | Kind::CmpFilter { .. } | Kind::CmpExtend { .. } => true,
            Kind::Atom { shape, .. } => shape.identity,
            _ => false,
        };
        if self.in_vars.is_empty() && !trivial && self.is_db_pure() {
            let slot = memoized.iter().position(|k| *k == self.kind);
            self.cache_slot = Some(slot.unwrap_or(memoized.len()));
            if slot.is_none() {
                memoized.push(self.kind.clone());
            }
            let mut rels = BTreeSet::new();
            self.collect_relations(&mut rels);
            self.cache_rels = rels.into_iter().collect();
            return;
        }
        // Look below: an aggregate's body runs from the unit input too.
        for child in self.children_mut() {
            child.assign_cache_slots(memoized);
        }
    }

    /// Numbers this subtree in pre-order, handing out ids from `next` — the
    /// same walk [`Plan::describe_into`] takes, so counter slot `i` always
    /// belongs to description row `i` — and binds every temporal node to
    /// its index in `nodes`.
    pub(crate) fn assign_node_ids(&mut self, next: &mut usize, nodes: &[Formula]) {
        self.node_id = *next;
        *next += 1;
        if let Kind::Probe { node, id, .. } | Kind::TemporalJoin { node, id, .. } = &mut self.kind {
            *id = nodes.iter().position(|n| n == node).unwrap_or(UNTRACKED);
        }
        for child in self.children_mut() {
            child.assign_node_ids(next, nodes);
        }
    }

    /// Operator label for profile rendering.
    fn label(&self) -> String {
        match &self.kind {
            Kind::True => "true".to_string(),
            Kind::False => "false".to_string(),
            Kind::Atom { relation, .. } => format!("atom({relation})"),
            Kind::CmpFilter { op, .. } => format!("filter({op})"),
            Kind::CmpExtend { v, .. } => format!("extend({v})"),
            Kind::Not { .. } => "antijoin(!)".to_string(),
            Kind::AndChain { .. } => "and-chain".to_string(),
            Kind::Or { .. } => "union(||)".to_string(),
            Kind::Exists { .. } => "project(exists)".to_string(),
            Kind::Probe { node, .. } => format!("probe({node})"),
            Kind::TemporalJoin { node, .. } => format!("join({node})"),
            Kind::CountFilter { op, threshold, .. } => format!("count-filter({op} {threshold})"),
            Kind::CountJoin { op, threshold, .. } => format!("count-join({op} {threshold})"),
        }
    }

    /// Appends this subtree's node descriptions in the profiler's pre-order.
    fn describe_into(&self, path: &str, depth: usize, out: &mut Vec<NodeDesc>) {
        out.push(NodeDesc {
            id: self.node_id,
            depth,
            path: path.to_string(),
            label: self.label(),
            memoized: self.cache_slot.is_some(),
            probe: matches!(self.kind, Kind::Probe { .. }),
            materialize: matches!(
                self.kind,
                Kind::TemporalJoin { .. } | Kind::CountJoin { .. }
            ),
        });
        for (i, child) in self.children().into_iter().enumerate() {
            let step = match &self.kind {
                Kind::Not { .. } => "not".to_string(),
                Kind::Exists { .. } => "exists".to_string(),
                Kind::AndChain { .. } => format!("and[{i}]"),
                Kind::Or { .. } => format!("or[{i}]"),
                _ => "count".to_string(),
            };
            child.describe_into(&format!("{path}/{step}"), depth + 1, out);
        }
    }

    /// The output schema (sorted) — what execution's result will carry.
    pub fn out_vars(&self) -> &[Var] {
        &self.out_vars
    }

    /// The input schema (sorted) the plan was compiled for.
    pub fn in_vars(&self) -> &[Var] {
        &self.in_vars
    }

    /// The relation whose own rows, and version, the plan returns run
    /// from unit: an identity-shaped atom's.
    pub(crate) fn reads_relation(&self) -> Option<Symbol> {
        match &self.kind {
            Kind::Atom { relation, shape } if shape.identity => Some(*relation),
            _ => None,
        }
    }

    /// The execution order of the root conjunction, as indices into
    /// [`safety::flatten_and`] of the planned formula; `None` when the root
    /// is not a conjunction. This is what `explain` renders, so the
    /// displayed plan provably matches what executes.
    pub fn root_conjunct_order(&self) -> Option<&[usize]> {
        match &self.kind {
            Kind::AndChain { order, .. } => Some(order),
            _ => None,
        }
    }

    /// Executes against one database state, answering temporal subformulas
    /// through `oracle` — mirrors [`crate::eval::eval`] arm for arm.
    pub fn execute<O: Oracle + ?Sized>(
        &self,
        db: &Database,
        oracle: &O,
        input: &Bindings,
        scratch: &mut Scratch,
    ) -> Bindings {
        debug_assert_eq!(
            input.vars(),
            self.in_vars.as_slice(),
            "input schema differs from the planned schema"
        );
        // Profiled path: one branch on an `Option` discriminant when
        // disabled; timers and counter writes only exist behind it.
        if scratch.profiling() {
            let start = std::time::Instant::now();
            let rows_in = input.len() as u64;
            let (b0, br0) = scratch.block_counts();
            let mut cache = CacheTouch::Untouched;
            let result = self.execute_memo(db, oracle, input, scratch, &mut cache);
            let time_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let (b1, br1) = scratch.block_counts();
            scratch.profile_record(
                self.node_id,
                time_ns,
                rows_in,
                result.len() as u64,
                cache,
                b1 - b0,
                br1 - br0,
            );
            return result;
        }
        let mut cache = CacheTouch::Untouched;
        self.execute_memo(db, oracle, input, scratch, &mut cache)
    }

    /// Memoized path: a database-pure subtree fed the one-row unit input
    /// is a function of the database contents alone, so steps that leave
    /// its relations' versions alone replay the stored result (same
    /// row-set version — downstream fast paths depend on that) instead of
    /// re-scanning. An empty same-schema input (a projection that produced
    /// no candidate rows) bypasses the memo — its result is legitimately
    /// different.
    ///
    /// A single-atom subtree whose relation's net delta leads from the
    /// stored version is *delta-refreshed*: the delta's tuples replay onto
    /// the memoized rows in place, O(|delta|) instead of a full rescan,
    /// and the net row changes are published for downstream probes and
    /// windows.
    fn execute_memo<O: Oracle + ?Sized>(
        &self,
        db: &Database,
        oracle: &O,
        input: &Bindings,
        scratch: &mut Scratch,
        cache: &mut CacheTouch,
    ) -> Bindings {
        let Some(slot) = self.cache_slot.filter(|_| input.len() == 1) else {
            return self.execute_kind(db, oracle, input, scratch);
        };
        if let Some(e) = scratch.memo.get(&slot) {
            if e.gens.iter().all(|&(r, g)| db.rel_gen(r) == g) {
                *cache = CacheTouch::Hit;
                return e.rows.clone();
            }
        }
        *cache = CacheTouch::Miss;
        if let Kind::Atom { relation, shape } = &self.kind {
            // A memoized atom reads exactly `relation`: `gens` is its one
            // version.
            let delta = db.rel_delta(*relation);
            let stored = scratch.memo.remove(&slot);
            if let (Some(delta), Some(mut e)) = (delta, stored) {
                if delta.from == e.gens[0].1 {
                    let from = e.rows.version();
                    let (added, removed) = e.rows.apply_atom_delta(shape, delta, scratch);
                    let to = e.rows.version();
                    if to != from {
                        let delta = RowDelta {
                            from,
                            to,
                            added,
                            removed,
                        };
                        scratch.deltas.insert(self.node_id, Arc::new(delta));
                    }
                    e.gens[0].1 = delta.to;
                    let rows = e.rows.clone();
                    scratch.memo.insert(slot, e);
                    return rows;
                }
            }
        }
        let rows = self.execute_kind(db, oracle, input, scratch);
        let gens = (self.cache_rels.iter())
            .map(|&r| (r, db.rel_gen(r)))
            .collect();
        scratch.memo.insert(
            slot,
            MemoEntry {
                gens,
                rows: rows.clone(),
            },
        );
        rows
    }

    /// A probe: the candidates whose key holds (`passing`; else those
    /// whose key fails). Through a partition of the input by verdict,
    /// cached per plan node, when the node publishes flips and this plan
    /// node is tracked; else (`prev`, standalone plans) one test per row.
    ///
    /// A partitioned step moves only the rows named by the input's net
    /// delta — from the producer's [`RowDelta`], chained by version token
    /// — and by the window's flips since the epoch the partition saw:
    /// O(|delta| + |flips|) instead of O(|input|). A window that only ever
    /// admits keys is the case whose flips never revoke. When either chain
    /// breaks — or the delta and flips name more rows than the input
    /// holds, so a rescan costs less — the partition is rebuilt by testing
    /// every row, so correctness never depends on it being intact. The
    /// node publishes its own output transition for the next consumer.
    fn probe(
        &self,
        (proj, passing): (&[usize], bool),
        flips: Option<Flips<'_>>,
        holds_key: &dyn Fn(&Tuple) -> bool,
        input: &Bindings,
        scratch: &mut Scratch,
    ) -> Bindings {
        let proj = (proj.len() < self.in_vars.len()).then_some(proj);
        let Some(flips) = flips.filter(|_| self.node_id != UNTRACKED) else {
            return ProbePartition::full(input, 0, passing, proj, holds_key).rows;
        };
        let to = input.version();
        let part = scratch.probes.remove(&self.node_id);
        let keys = part.as_ref().and_then(|p| match flips.from {
            _ if p.epoch == flips.epoch => Some(&[][..]),
            Some(from) if from == p.epoch => Some(flips.keys),
            _ => scratch.stale_epochs.then_some(flips.keys),
        });
        let cheaper = |work: usize| work == 0 || work < input.len();
        // The input's change since the partition (`Some(None)`: none),
        // shared with its producer.
        let delta = part.as_ref().zip(keys).and_then(|(p, keys)| {
            if p.input == to || scratch.accept_stale {
                return cheaper(keys.len()).then_some(None);
            }
            let delta = scratch.delta_into(to).filter(|d| d.from == p.input)?;
            let work = keys.len() + delta.added.len() + delta.removed.len();
            cheaper(work).then(|| Some(Arc::clone(delta)))
        });
        let part = match (part, keys, delta) {
            (Some(mut part), Some(keys), Some(delta)) => {
                let (added, removed) = match &delta {
                    Some(d) => (&d.added[..], &d.removed[..]),
                    None => (&[][..], &[][..]),
                };
                scratch.note_block((keys.len() + added.len() + removed.len()) as u64);
                let from = part.rows.version();
                let at = (input, flips.epoch);
                let (added, removed) =
                    part.advance(at, added, removed, keys, proj, holds_key, scratch);
                let to = part.rows.version();
                let delta = RowDelta {
                    from,
                    to,
                    added,
                    removed,
                };
                scratch.deltas.insert(self.node_id, Arc::new(delta));
                part
            }
            _ => {
                scratch.note_block(input.len() as u64);
                ProbePartition::full(input, flips.epoch, passing, proj, holds_key)
            }
        };
        let result = part.rows.clone();
        scratch.probes.insert(self.node_id, part);
        result
    }

    fn execute_kind<O: Oracle + ?Sized>(
        &self,
        db: &Database,
        oracle: &O,
        input: &Bindings,
        scratch: &mut Scratch,
    ) -> Bindings {
        match &self.kind {
            Kind::True => input.clone(),
            Kind::False => Bindings::none(self.in_vars.iter().copied()),
            Kind::Atom { relation, shape } => {
                let rel = db
                    .relation(*relation)
                    .expect("atom over undeclared relation (typecheck bug)");
                if !(shape.identity && input.len() == 1) {
                    return input.join_atom_shaped(rel, shape, scratch);
                }
                // The relation's rows are the atom's, and its net delta is
                // the atom's own.
                if let Some(delta) = db.rel_delta(*relation) {
                    scratch.deltas.insert(self.node_id, Arc::clone(delta));
                }
                Bindings::of_relation(shape.vars.clone(), rel)
            }
            Kind::CmpFilter { op, a, b } => input.filter(|row| op.eval(a.read(row), b.read(row))),
            Kind::CmpExtend { v, src } => input.extend_with(*v, |row| src.read(row)),
            Kind::Not { gvars, inner } => {
                let candidates = input.project(gvars);
                let rows = inner.execute(db, oracle, &candidates, scratch);
                match inner.kind {
                    // A probe here kept the failing candidates: under the
                    // identity projection, exactly the rows to keep.
                    Kind::Probe { .. } if candidates.version() == input.version() => rows,
                    Kind::Probe { .. } => input.semijoin(&rows),
                    _ => input.antijoin(&rows),
                }
            }
            Kind::AndChain { steps, .. } => {
                let mut acc = input.clone();
                for step in steps {
                    acc = step.execute(db, oracle, &acc, scratch);
                }
                acc
            }
            Kind::Or { a, b } => {
                let ra = a.execute(db, oracle, input, scratch);
                let rb = b.execute(db, oracle, input, scratch);
                ra.union(&rb)
            }
            Kind::Exists { drop, inner } => {
                let r = inner.execute(db, oracle, input, scratch);
                let out = r.project_away(drop);
                if !r.is_empty() && out.vars().len() != r.vars().len() {
                    scratch.note_block(r.len() as u64);
                }
                out
            }
            Kind::Probe {
                node,
                id,
                proj,
                passing,
            } => {
                let node = Node {
                    id: *id,
                    formula: node,
                };
                let holds = |key: &Tuple| match node.formula {
                    Formula::Hist(..) => oracle.hist_holds(node, key),
                    _ => oracle.contains(node, key),
                };
                let flips = oracle.flips(node);
                self.probe((proj, *passing), flips, &holds, input, scratch)
            }
            Kind::TemporalJoin { node, id, shape } => {
                let node = Node {
                    id: *id,
                    formula: node,
                };
                input.natural_join_shaped(&oracle.extension(node), shape, scratch)
            }
            Kind::CountFilter {
                body,
                outer_pos_ext,
                pos_in,
                op,
                threshold,
            } => {
                let counts = count_groups(body, outer_pos_ext, db, oracle, scratch);
                let threshold = Value::Int(*threshold);
                input.filter(|row| {
                    let n = counts.get(&row.project(pos_in)).copied().unwrap_or(0);
                    op.eval(Value::Int(n), threshold)
                })
            }
            Kind::CountJoin {
                body,
                outer,
                outer_pos_ext,
                shape,
                op,
                threshold,
            } => {
                let counts = count_groups(body, outer_pos_ext, db, oracle, scratch);
                let threshold = Value::Int(*threshold);
                let rows = counts
                    .into_iter()
                    .filter(|&(_, n)| op.eval(Value::Int(n), threshold))
                    .map(|(k, _)| k);
                let groups = Bindings::from_rows(outer.clone(), rows);
                input.natural_join_shaped(&groups, shape, scratch)
            }
        }
    }

    /// Static plan statistics, aggregated over the whole tree.
    pub fn stats(&self) -> PlanStats {
        let mut s = PlanStats::default();
        self.for_each(&mut |p| {
            s.nodes += 1;
            s.cached_nodes += usize::from(p.cache_slot.is_some());
            match p.kind {
                Kind::Atom { .. } => s.atom_shapes += 1,
                Kind::Probe { .. } => s.probe_nodes += 1,
                Kind::TemporalJoin { .. } | Kind::CountJoin { .. } => s.join_shapes += 1,
                _ => {}
            }
        });
        s
    }
}

/// Evaluates the aggregate body from the unit input and groups its rows by
/// the outer-variable positions (shared by both count arms).
fn count_groups<O: Oracle + ?Sized>(
    body: &Plan,
    outer_pos_ext: &[usize],
    db: &Database,
    oracle: &O,
    scratch: &mut Scratch,
) -> TupleMap<i64> {
    let ext = body.execute(db, oracle, &Bindings::unit(), scratch);
    let mut counts = TupleMap::default();
    for row in ext.rows() {
        *counts.entry(row.project(outer_pos_ext)).or_insert(0) += 1;
    }
    counts
}

/// All plans a compiled constraint needs: the denial body from the unit
/// input, plus per-temporal-node operand plans matching each checker's
/// evaluation sites (operands from unit; `since` continuations from the
/// node's key schema).
#[derive(Clone, Debug)]
pub struct EvalPlans {
    /// The denial body, planned from the empty (unit) input schema.
    pub body: Plan,
    /// Operand plans parallel to `CompiledConstraint::nodes`.
    pub node_ops: Vec<NodePlans>,
}

/// Operand plans for one temporal node.
#[derive(Clone, Debug)]
pub enum NodePlans {
    /// `prev`/`once`/`hist`: the single operand, planned from unit.
    Operand(Plan),
    /// `since`: the anchor operand `g` from unit, and the continuation
    /// operand `f` planned against the node's sorted key variables.
    Since {
        /// Continuation operand over the node's key schema (boxed to keep
        /// the variant the same size class as `Operand`).
        f: Box<Plan>,
        /// Anchor operand from unit.
        g: Plan,
    },
}

impl EvalPlans {
    /// Builds the body plan plus one operand plan per temporal node, then
    /// marks every database-pure unit-input subtree for memoized execution
    /// (one slot per distinct subtree across the whole constraint, matching
    /// the one [`Scratch`] each checker threads through its plans).
    pub fn build(body: &Formula, nodes: &[Formula]) -> EvalPlans {
        let mut node_ops: Vec<NodePlans> = nodes
            .iter()
            .map(|node| match node {
                Formula::Prev(_, g) | Formula::Once(_, g) | Formula::Hist(_, g) => {
                    NodePlans::Operand(Plan::compile(g, &[]))
                }
                Formula::Since(_, f, g) => {
                    // A database-pure `f` over exactly the key variables is
                    // planned from unit: memoized, its row delta says which
                    // keys stopped satisfying it.
                    let keys = node.sorted_free_vars();
                    let pure = !f.is_temporal() && f.sorted_free_vars() == keys;
                    let from_unit = pure && safety::check(f).is_ok();
                    NodePlans::Since {
                        f: Box::new(Plan::compile(f, if from_unit { &[] } else { &keys })),
                        g: Plan::compile(g, &[]),
                    }
                }
                other => unreachable!("non-temporal node collected: {other}"),
            })
            .collect();
        let mut body = Plan::compile(body, &[]);
        let mut memoized = Vec::new();
        body.assign_cache_slots(&mut memoized);
        for op in &mut node_ops {
            match op {
                NodePlans::Operand(g) => g.assign_cache_slots(&mut memoized),
                NodePlans::Since { f, g } => {
                    f.assign_cache_slots(&mut memoized);
                    g.assign_cache_slots(&mut memoized);
                }
            }
        }
        let mut next_id = 0;
        body.assign_node_ids(&mut next_id, nodes);
        for op in &mut node_ops {
            match op {
                NodePlans::Operand(g) => g.assign_node_ids(&mut next_id, nodes),
                NodePlans::Since { f, g } => {
                    f.assign_node_ids(&mut next_id, nodes);
                    g.assign_node_ids(&mut next_id, nodes);
                }
            }
        }
        EvalPlans { body, node_ops }
    }

    /// Total profilable nodes across the body and all operand plans.
    pub fn node_count(&self) -> usize {
        self.stats().nodes
    }

    /// Static descriptions of every node in profiler id order: row `i`
    /// describes the node whose counters live in slot `i`.
    pub fn describe(&self) -> Vec<NodeDesc> {
        let mut out = Vec::new();
        self.body.describe_into("body", 0, &mut out);
        for (i, op) in self.node_ops.iter().enumerate() {
            match op {
                NodePlans::Operand(g) => g.describe_into(&format!("node[{i}]"), 0, &mut out),
                NodePlans::Since { f, g } => {
                    f.describe_into(&format!("node[{i}]/f"), 0, &mut out);
                    g.describe_into(&format!("node[{i}]/g"), 0, &mut out);
                }
            }
        }
        out
    }

    /// Zips node descriptions with a profiler's counter table into a
    /// renderable [`PlanProfile`]. Nodes the run never executed keep
    /// zeroed counters.
    pub fn profile(&self, counters: &[NodeCounters]) -> PlanProfile {
        let nodes = self
            .describe()
            .into_iter()
            .map(|desc| ProfiledNode {
                counts: counters.get(desc.id).copied().unwrap_or_default(),
                desc,
            })
            .collect();
        PlanProfile { nodes }
    }

    /// Every plan root: the body, then each node's operand plans.
    fn roots(&self) -> impl Iterator<Item = &Plan> {
        let ops = self.node_ops.iter().flat_map(|op| match op {
            NodePlans::Operand(g) => vec![g],
            NodePlans::Since { f, g } => vec![&**f, g],
        });
        std::iter::once(&self.body).chain(ops)
    }

    /// Aggregated static statistics across the body and all operand plans.
    pub fn stats(&self) -> PlanStats {
        let mut s = PlanStats::default();
        self.roots().for_each(|p| s.absorb(p.stats()));
        s
    }

    /// The temporal nodes some plan joins (reads whole) rather than probes.
    pub(crate) fn joined_nodes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for root in self.roots() {
            root.for_each(&mut |p| {
                if let Kind::TemporalJoin { id, .. } = p.kind {
                    out.push(id);
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, NoTemporal};
    use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
    use rtic_temporal::normalize::normalize;
    use std::sync::Arc;

    fn db() -> Database {
        let catalog = Arc::new(
            Catalog::new()
                .with(
                    "emp",
                    Schema::of(&[("name", Sort::Str), ("dept", Sort::Str)]),
                )
                .unwrap()
                .with(
                    "mgr",
                    Schema::of(&[("dept", Sort::Str), ("boss", Sort::Str)]),
                )
                .unwrap()
                .with(
                    "sal",
                    Schema::of(&[("name", Sort::Str), ("amt", Sort::Int)]),
                )
                .unwrap(),
        );
        let mut db = Database::new(catalog);
        db.apply(
            &Update::new()
                .with_insert("emp", tuple!["ann", "eng"])
                .with_insert("emp", tuple!["bob", "eng"])
                .with_insert("emp", tuple!["cal", "ops"])
                .with_insert("mgr", tuple!["eng", "dot"])
                .with_insert("sal", tuple!["ann", 90])
                .with_insert("sal", tuple!["bob", 70])
                .with_insert("sal", tuple!["cal", 80]),
        )
        .unwrap();
        db
    }

    fn parse(src: &str) -> Formula {
        let f = normalize(&rtic_temporal::parser::parse_formula(src).unwrap());
        rtic_temporal::safety::check(&f).unwrap();
        f
    }

    #[test]
    fn planned_matches_interpreted_on_first_order_formulas() {
        let db = db();
        for src in [
            "emp(n, d)",
            "emp(n, d) && mgr(d, b)",
            "emp(n, d) && !mgr(d, b) && b = \"dot\"",
            "exists n . emp(n, d)",
            "sal(n, a) && a >= 80",
            "sal(n, a) && m = a && m > 85",
            "emp(n, \"ops\") || sal(n, 90) && true",
            "emp(n, d) && false",
            "emp(n, d) && !(exists m . sal(m, 1000))",
            "emp(n, d) && count m . (emp(m, d)) >= 2",
            "emp(n, d) && count m . (exists a . emp(m, d) && sal(m, a) && a >= 100) = 0",
            "emp(n, d) && mgr(d, b) && n = b",
        ] {
            let f = parse(src);
            let plan = Plan::compile(&f, &[]);
            let mut scratch = Scratch::new();
            let planned = plan.execute(&db, &NoTemporal, &Bindings::unit(), &mut scratch);
            let interpreted = eval(&f, &db, &NoTemporal, &Bindings::unit());
            assert_eq!(planned, interpreted, "{src}");
            assert_eq!(
                planned.to_string(),
                interpreted.to_string(),
                "display must be byte-identical: {src}"
            );
            assert_eq!(plan.out_vars(), interpreted.vars(), "{src}");
        }
    }

    #[test]
    fn root_conjunct_order_matches_the_interpreter() {
        let f = parse("emp(n, d) && mgr(d, b) && b = \"dot\"");
        let plan = Plan::compile(&f, &[]);
        let conjuncts = safety::flatten_and(&f);
        let expected = safety::conjunct_order(&conjuncts, &BTreeSet::new()).unwrap();
        assert_eq!(plan.root_conjunct_order(), Some(expected.as_slice()));
        let atom = parse("emp(n, d)");
        assert_eq!(Plan::compile(&atom, &[]).root_conjunct_order(), None);
    }

    #[test]
    fn profiling_counts_without_changing_results() {
        let db = db();
        let f = parse("emp(n, d) && mgr(d, b)");
        let plans = EvalPlans::build(&f, &[]);
        let mut plain = Scratch::new();
        let baseline = plans
            .body
            .execute(&db, &NoTemporal, &Bindings::unit(), &mut plain);
        let mut prof = Scratch::new();
        prof.enable_profiling();
        let profiled = plans
            .body
            .execute(&db, &NoTemporal, &Bindings::unit(), &mut prof);
        assert_eq!(baseline, profiled);
        assert_eq!(
            baseline.to_string(),
            profiled.to_string(),
            "profiling must not change rendering"
        );
        // First execution fills the memo (the body is database-pure), the
        // second replays it; the profiler sees both.
        let again = plans
            .body
            .execute(&db, &NoTemporal, &Bindings::unit(), &mut prof);
        assert_eq!(again, baseline);
        let profile = plans.profile(prof.profile_counters().expect("profiling enabled"));
        assert_eq!(profile.nodes.len(), plans.node_count());
        let root = &profile.nodes[0];
        assert_eq!(root.desc.path, "body");
        assert!(root.desc.memoized, "pure unit-input body is memoized");
        assert_eq!(root.counts.calls, 2);
        assert_eq!(root.counts.cache_misses, 1);
        assert_eq!(root.counts.cache_hits, 1);
        assert_eq!(root.counts.rows_out, 2 * baseline.len() as u64);
        assert_eq!(root.counts.cache_hit_rate(), Some(0.5));
        assert!(profile.total_time_ns() >= root.counts.time_ns);
        assert_eq!(profile.hot(1)[0].desc.id, root.desc.id);
    }

    #[test]
    fn describe_ids_are_preorder_indices() {
        let f = parse("emp(n, d) && !mgr(d, b) && b = \"dot\" || emp(n, d) && false");
        let plans = EvalPlans::build(&f, &[]);
        let descs = plans.describe();
        assert_eq!(descs.len(), plans.node_count());
        for (i, d) in descs.iter().enumerate() {
            assert_eq!(d.id, i, "pre-order id mismatch at {}", d.path);
        }
        assert_eq!(descs[0].depth, 0);
        assert!(descs.iter().any(|d| d.label.starts_with("atom(")));
    }

    #[test]
    fn standalone_plans_record_nothing() {
        let db = db();
        let f = parse("emp(n, d)");
        // Compiled outside EvalPlans::build: no node ids assigned.
        let plan = Plan::compile(&f, &[]);
        let mut scratch = Scratch::new();
        scratch.enable_profiling();
        let _ = plan.execute(&db, &NoTemporal, &Bindings::unit(), &mut scratch);
        assert_eq!(
            scratch.profile_counters().map(<[_]>::len),
            Some(0),
            "untracked nodes must not allocate counter slots"
        );
    }

    #[test]
    fn stats_count_shapes() {
        let f = parse("emp(n, d) && mgr(d, b)");
        let s = Plan::compile(&f, &[]).stats();
        assert_eq!(s.atom_shapes, 2);
        assert!(s.nodes >= 3, "chain plus two atoms");
        assert_eq!(s.join_shapes, 0);
        assert_eq!(s.probe_nodes, 0);
    }
}
