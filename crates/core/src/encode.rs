//! Bounded history encoding: the per-subformula auxiliary state.
//!
//! For every temporal subformula the incremental checker keeps a small
//! amount of state, updated at each transition from (a) the previous state
//! of the encoding and (b) the operand extensions at the *new* state only.
//! No past database state is ever consulted — this is the paper's central
//! construction, and the size of the state per live key is bounded by the
//! subformula's metric bound, independent of history length:
//!
//! * `once[a,b] g` / `f since[a,b] g` — a set of timestamps per key
//!   ([`Stamps`]), specialised to a single timestamp when `a = 0` (keep the
//!   latest) or `b = ∞` (keep the earliest), and a pruned sorted deque
//!   (≤ `b + 1` entries on an integer clock) otherwise.
//! * `hist[a,b] g`, `b` finite — per key, the maximal *runs* of consecutive
//!   states on which `g` held, pruned to the last `b` ticks, plus one shared
//!   deque of recent state timestamps.
//! * `hist[a,∞] g` — per key, the end of its unbroken *prefix* run (frozen
//!   when the run breaks), plus a bounded window of recent state times to
//!   locate the newest state older than `a`.
//! * `prev[a,b] g` — the operand's extension at the previous state and that
//!   state's timestamp.

use std::collections::VecDeque;

use rtic_relation::{Tuple, TupleMap};
use rtic_temporal::ast::Var;
use rtic_temporal::time::{Duration, Interval, TimePoint, UpperBound};

use crate::binding::Bindings;

/// "No change ever": the deadline of a node whose answers cannot move
/// while its operand extension stays put.
pub const NEVER: TimePoint = TimePoint(u64::MAX);

/// Timestamp storage for one key of a `once`/`since` node.
///
/// The paper's bound: on an integer clock, a window of span `b` holds at
/// most `b + 1` distinct timestamps; with `a = 0` only the newest witness
/// matters, with `b = ∞` only the oldest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stamps {
    /// `a = 0`: the latest satisfaction/anchor time is the best witness.
    Latest(TimePoint),
    /// `b = ∞`, `a > 0`: the earliest time is the best witness.
    Earliest(TimePoint),
    /// General `[a, b]`: all times in the last `b` ticks, sorted ascending.
    Many(VecDeque<TimePoint>),
}

/// Which [`Stamps`] representation an interval calls for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StampPolicy {
    /// Keep only the latest timestamp.
    Latest,
    /// Keep only the earliest timestamp.
    Earliest,
    /// Keep the pruned deque.
    Many,
}

impl StampPolicy {
    /// Selects the specialisation for `interval` (the T6 ablation can force
    /// [`StampPolicy::Many`] instead).
    pub fn for_interval(interval: &Interval) -> StampPolicy {
        if interval.lo().0 == 0 {
            StampPolicy::Latest
        } else if !interval.is_bounded() {
            StampPolicy::Earliest
        } else {
            StampPolicy::Many
        }
    }
}

impl Stamps {
    fn new(policy: StampPolicy, t: TimePoint) -> Stamps {
        match policy {
            StampPolicy::Latest => Stamps::Latest(t),
            StampPolicy::Earliest => Stamps::Earliest(t),
            StampPolicy::Many => Stamps::Many(VecDeque::from([t])),
        }
    }

    /// Records a new (strictly newest) satisfaction time.
    fn add(&mut self, t: TimePoint) {
        match self {
            Stamps::Latest(cur) => *cur = t,
            Stamps::Earliest(_) => {} // the earliest can only be the first
            Stamps::Many(dq) => {
                debug_assert!(dq.back().is_none_or(|&b| b < t));
                dq.push_back(t);
            }
        }
    }

    /// Drops timestamps strictly before `cutoff`; returns whether any
    /// remain.
    fn prune(&mut self, cutoff: TimePoint) -> bool {
        match self {
            Stamps::Latest(t) => *t >= cutoff,
            Stamps::Earliest(_) => true, // only used when b = ∞: no cutoff
            Stamps::Many(dq) => {
                while dq.front().is_some_and(|&t| t < cutoff) {
                    dq.pop_front();
                }
                !dq.is_empty()
            }
        }
    }

    /// Whether any stored timestamp lies in `[w_lo, w_hi]`.
    fn any_in(&self, w_lo: TimePoint, w_hi: TimePoint) -> bool {
        match self {
            Stamps::Latest(t) | Stamps::Earliest(t) => *t >= w_lo && *t <= w_hi,
            Stamps::Many(dq) => {
                // dq is sorted ascending; find the first ≥ w_lo.
                let idx = dq.partition_point(|&t| t < w_lo);
                dq.get(idx).is_some_and(|&t| t <= w_hi)
            }
        }
    }

    /// The stored timestamps, ascending.
    fn times(&self) -> impl Iterator<Item = TimePoint> + '_ {
        let (front, back) = match self {
            Stamps::Latest(t) | Stamps::Earliest(t) => (std::slice::from_ref(t), &[][..]),
            Stamps::Many(dq) => dq.as_slices(),
        };
        front.iter().chain(back).copied()
    }

    /// The earliest time after `t` at which [`Stamps::any_in`] for
    /// `interval`'s window can flip if no stamp is added: a stamp `s`
    /// satisfies the window over `[s + a, s + b]`, so the answer holds to
    /// the end of the contiguous stretch containing `t`, or fails until
    /// the next stamp ages `a`.
    fn next_change(&self, interval: &Interval, t: TimePoint) -> TimePoint {
        let mut held_to: Option<TimePoint> = None;
        for s in self.times() {
            let enter = s.plus(interval.lo());
            let leave = interval.hi().finite().map_or(NEVER, |b| s.plus(b));
            match held_to {
                None if leave < t => {}
                None if enter > t => return enter,
                Some(end) if enter > end.plus(Duration(1)) => break,
                _ => held_to = Some(leave),
            }
        }
        held_to.map_or(NEVER, |end| end.plus(Duration(1)))
    }

    /// Number of timestamps stored (space accounting).
    pub fn len(&self) -> usize {
        match self {
            Stamps::Latest(_) | Stamps::Earliest(_) => 1,
            Stamps::Many(dq) => dq.len(),
        }
    }

    /// Whether no timestamps are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Auxiliary state of a `once[I] g` or `f since[I] g` node.
#[derive(Clone, Debug)]
pub struct WindowState {
    interval: Interval,
    policy: StampPolicy,
    vars: Vec<Var>,
    stamps: TupleMap<Stamps>,
}

impl WindowState {
    /// Fresh state for a node with sorted free variables `vars`.
    pub fn new(interval: Interval, vars: Vec<Var>, policy: StampPolicy) -> WindowState {
        WindowState {
            interval,
            policy,
            vars,
            stamps: TupleMap::default(),
        }
    }

    /// The node's sorted free variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Current keys as a binding set (the `since` update evaluates the
    /// maintained formula `f` over exactly these candidates).
    pub fn keys(&self) -> Bindings {
        Bindings::from_rows(self.vars.clone(), self.stamps.keys().cloned())
    }

    /// `since` only: drops every key not in `survivors` (keys where the
    /// maintained formula `f` failed at the new state lose all anchors).
    pub fn retain_keys(&mut self, survivors: &Bindings) {
        debug_assert_eq!(survivors.vars(), self.vars.as_slice());
        self.stamps.retain(|k, _| survivors.contains(k));
    }

    /// Whether re-recording an unchanged satisfaction set is observationally
    /// a no-op, so maintenance may skip [`WindowState::add_and_prune`] when
    /// the extension is provably identical to the previous step's.
    ///
    /// Holds exactly when the upper bound is infinite (no pruning ever
    /// removes a key, so every key of an unchanged set is already stored)
    /// and the stamp policy is a one-timestamp specialisation: `Earliest`
    /// never rewrites, and `Latest` only arises with `lo = 0`, where any
    /// stored stamp satisfies the `[0, ∞)` window regardless of its value.
    /// The general deque (`Many`, including the T6 ablation) must keep
    /// recording — its timestamp count is observable in space statistics.
    pub fn absorb_is_noop(&self) -> bool {
        !self.interval.is_bounded() && self.policy != StampPolicy::Many
    }

    /// Records the keys satisfying the anchor formula at the new state
    /// `t_now`, then prunes timestamps that have left every future window.
    /// A stored key of an [`WindowState::absorb_is_noop`] window keeps the
    /// stamp it has, so what such a window holds does not depend on how
    /// often an unchanged extension was re-recorded.
    pub fn add_and_prune(&mut self, sat_now: &Bindings, t_now: TimePoint) {
        debug_assert_eq!(sat_now.vars(), self.vars.as_slice());
        let restamp = !self.absorb_is_noop();
        // At least this many keys are new: one allocation, not a doubling.
        let fresh = sat_now.len().saturating_sub(self.stamps.len());
        self.stamps.reserve(fresh);
        for row in sat_now.rows() {
            match self.stamps.get_mut(row) {
                Some(s) if restamp => s.add(t_now),
                Some(_) => {}
                None => {
                    self.stamps
                        .insert(row.clone(), Stamps::new(self.policy, t_now));
                }
            }
        }
        if let UpperBound::Finite(b) = self.interval.hi() {
            let cutoff = t_now.minus(b).unwrap_or(TimePoint(0));
            self.stamps.retain(|_, s| s.prune(cutoff));
        }
    }

    /// The earliest time after `t` at which [`WindowState::satisfied`] can
    /// differ for some key while the operand extension stays `sat` at
    /// every later state. With `a = 0` a key in `sat` is re-stamped at each
    /// state and never leaves; every other key's stamps only age (stamps a
    /// later state adds enter after the ones already stored).
    pub fn next_change(&self, sat: &Bindings, t: TimePoint) -> TimePoint {
        let restamped = self.interval.lo().0 == 0;
        let aging = self
            .stamps
            .iter()
            .filter(|(k, _)| !(restamped && sat.contains(k)));
        let changes = aging.map(|(_, s)| s.next_change(&self.interval, t));
        changes.min().unwrap_or(NEVER)
    }

    /// Absorbs the deferred states `ticks` (ascending), at each of which
    /// the operand extension was `sat`, leaving exactly what one
    /// [`WindowState::add_and_prune`] per tick would have: only the deque
    /// keeps more than the newest tick, and only what the bound retains.
    pub fn catch_up(&mut self, sat: &Bindings, ticks: &[TimePoint]) {
        let Some((&t_new, earlier)) = ticks.split_last() else {
            return;
        };
        if let (StampPolicy::Many, UpperBound::Finite(b)) = (self.policy, self.interval.hi()) {
            let cutoff = t_new.minus(b).unwrap_or(TimePoint(0));
            let live = &earlier[earlier.partition_point(|&t| t < cutoff)..];
            for row in sat.rows() {
                if let Some(Stamps::Many(dq)) = self.stamps.get_mut(row) {
                    dq.extend(live);
                }
            }
        }
        self.add_and_prune(sat, t_new);
    }

    /// Whether [`WindowState::satisfied`] is monotone in `t_now` for a
    /// window that only ever *gains* stamps (i.e. a `once` node — `since`
    /// windows drop keys via [`WindowState::retain_keys`] and must not rely
    /// on this): with an infinite upper bound no stamp is ever pruned and
    /// the admissible window `[0, t − lo]` only widens, so a key that
    /// satisfies the window at some state satisfies it at every later one.
    pub fn probe_monotone(&self) -> bool {
        !self.interval.is_bounded()
    }

    /// O(1) membership probe: whether `key` has a witness whose age lies in
    /// the interval at `t_now`. Consistent with [`WindowState::extension`].
    pub fn satisfied(&self, key: &Tuple, t_now: TimePoint) -> bool {
        match self.interval.window_at(t_now) {
            None => false,
            Some((w_lo, w_hi)) => self.stamps.get(key).is_some_and(|s| s.any_in(w_lo, w_hi)),
        }
    }

    /// The node's extension at `t_now`: keys with a witness whose age lies
    /// in the interval.
    pub fn extension(&self, t_now: TimePoint) -> Bindings {
        match self.interval.window_at(t_now) {
            None => Bindings::none(self.vars.iter().copied()),
            Some((w_lo, w_hi)) => Bindings::from_rows(
                self.vars.clone(),
                self.stamps
                    .iter()
                    .filter(|(_, s)| s.any_in(w_lo, w_hi))
                    .map(|(k, _)| k.clone()),
            ),
        }
    }

    /// `(keys, timestamps)` stored — the quantities bounded by the paper.
    pub fn space(&self) -> (usize, usize) {
        (
            self.stamps.len(),
            self.stamps.values().map(Stamps::len).sum(),
        )
    }

    /// Dumps every entry as `(key, ascending timestamps)` in deterministic
    /// (key) order — the checkpoint codec's view of the state.
    pub fn dump(&self) -> Vec<(Tuple, Vec<TimePoint>)> {
        let mut out: Vec<(Tuple, Vec<TimePoint>)> = self
            .stamps
            .iter()
            .map(|(k, s)| (k.clone(), s.times().collect()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Restores one dumped entry. Timestamps must be ascending; under the
    /// one-timestamp policies only the policy-relevant stamp is kept.
    pub fn restore_entry(&mut self, key: Tuple, stamps: &[TimePoint]) {
        assert!(!stamps.is_empty(), "dumped entries are non-empty");
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "stamps must ascend");
        let s = match self.policy {
            StampPolicy::Latest => Stamps::Latest(*stamps.last().expect("non-empty")),
            StampPolicy::Earliest => Stamps::Earliest(stamps[0]),
            StampPolicy::Many => Stamps::Many(stamps.iter().copied().collect()),
        };
        self.stamps.insert(key, s);
    }
}

/// Auxiliary state of a `prev[I] g` node: the operand extension at the
/// previous state.
#[derive(Clone, Debug)]
pub struct PrevState {
    interval: Interval,
    vars: Vec<Var>,
    prev_sat: Option<(TimePoint, Bindings)>,
}

impl PrevState {
    /// Fresh state.
    pub fn new(interval: Interval, vars: Vec<Var>) -> PrevState {
        PrevState {
            interval,
            vars,
            prev_sat: None,
        }
    }

    /// The node's sorted free variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Computes the extension at `t_now` **from the stored previous state**
    /// and then replaces it with `sat_now` (the operand's extension at the
    /// new state).
    pub fn step(&mut self, sat_now: Bindings, t_now: TimePoint) -> Bindings {
        let ext = match &self.prev_sat {
            Some((t_prev, sat)) if self.interval.contains(t_now.age_of(*t_prev)) => sat.clone(),
            _ => Bindings::none(self.vars.iter().copied()),
        };
        self.prev_sat = Some((t_now, sat_now));
        ext
    }

    /// The earliest time after `t` at which the extension can differ from
    /// `ext` (the one [`PrevState::step`] last returned) while the operand
    /// extension stays put: never, once the stored rows *are* `ext` and
    /// the interval admits every gap; otherwise the very next state — a
    /// bounded gate depends on each gap, so it declines.
    pub fn next_change(&self, ext: Option<&Bindings>, t: TimePoint) -> TimePoint {
        let every_gap = self.interval.lo().0 <= 1 && !self.interval.is_bounded();
        match &self.prev_sat {
            Some((_, sat)) if every_gap && ext == Some(sat) => NEVER,
            _ => t.plus(Duration(1)),
        }
    }

    /// Absorbs deferred states up to `t_new` over an unchanged operand:
    /// the stored rows stay, the stored state time moves.
    pub fn catch_up(&mut self, t_new: TimePoint) {
        if let Some((at, _)) = &mut self.prev_sat {
            *at = t_new;
        }
    }

    /// `(keys, timestamps)` stored.
    pub fn space(&self) -> (usize, usize) {
        match &self.prev_sat {
            Some((_, sat)) => (sat.len(), 1),
            None => (0, 0),
        }
    }

    /// Dumps the stored previous-state extension, if any.
    pub fn dump(&self) -> Option<(TimePoint, Vec<Tuple>)> {
        self.prev_sat
            .as_ref()
            .map(|(t, sat)| (*t, sat.sorted_rows().into_iter().cloned().collect()))
    }

    /// Restores a dumped previous-state extension. Additive in the rows
    /// (like [`WindowState::restore_entry`]): a checkpoint written by the
    /// old per-key shard plane lists them as one block per key.
    pub fn restore(&mut self, t: TimePoint, rows: Vec<Tuple>) {
        let rows = Bindings::from_rows(self.vars.clone(), rows);
        match &mut self.prev_sat {
            Some((at, sat)) => {
                *at = t;
                sat.union_in_place(&rows);
            }
            None => self.prev_sat = Some((t, rows)),
        }
    }
}

/// Auxiliary state of a `hist[a,b] g` node with finite `b`.
#[derive(Clone, Debug)]
pub struct HistFiniteState {
    interval: Interval,
    bound: Duration,
    vars: Vec<Var>,
    /// Per key: maximal runs `(start, end)` of consecutive states on which
    /// the operand held, sorted, pruned to ends within the last `bound`.
    runs: TupleMap<VecDeque<(TimePoint, TimePoint)>>,
    /// Timestamps of all states in the last `bound` ticks.
    state_times: VecDeque<TimePoint>,
}

impl HistFiniteState {
    /// Fresh state; `interval.hi()` must be finite.
    pub fn new(interval: Interval, vars: Vec<Var>) -> HistFiniteState {
        let bound = interval
            .hi()
            .finite()
            .expect("HistFiniteState requires a finite bound");
        HistFiniteState {
            interval,
            bound,
            vars,
            runs: TupleMap::default(),
            state_times: VecDeque::new(),
        }
    }

    /// The node's sorted free variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Advances to the new state: `sat_now` is the operand's extension,
    /// `prev_time` the previous state's timestamp (`None` at state 0).
    pub fn step(&mut self, sat_now: &Bindings, t_now: TimePoint, prev_time: Option<TimePoint>) {
        debug_assert_eq!(sat_now.vars(), self.vars.as_slice());
        for row in sat_now.rows() {
            let runs = self.runs.entry(row.clone()).or_default();
            match (runs.back_mut(), prev_time) {
                (Some(last), Some(pt)) if last.1 == pt => last.1 = t_now,
                _ => runs.push_back((t_now, t_now)),
            }
        }
        self.state_times.push_back(t_now);
        let cutoff = t_now.minus(self.bound).unwrap_or(TimePoint(0));
        while self.state_times.front().is_some_and(|&t| t < cutoff) {
            self.state_times.pop_front();
        }
        self.runs.retain(|_, runs| {
            while runs.front().is_some_and(|&(_, end)| end < cutoff) {
                runs.pop_front();
            }
            !runs.is_empty()
        });
    }

    /// The earliest time after `t` at which [`HistFiniteState::holds`] can
    /// differ for some key while the operand extension stays `sat`:
    /// conservatively, when a stored state next enters (`τ + a`) or leaves
    /// (`τ + b + 1`) the window — later states enter after the stored ones
    /// and are covered exactly for `sat`. With `a = 0` a key outside `sat`
    /// fails at every state, so once every `sat` key holds nothing moves.
    pub fn next_change(&self, sat: &Bindings, t: TimePoint) -> TimePoint {
        let lo = self.interval.lo();
        if lo.0 == 0 && sat.rows().all(|k| self.holds(k, t)) {
            return NEVER;
        }
        let leave = self.state_times.front();
        let leave = leave.map(|s| s.plus(self.bound).plus(Duration(1)));
        let mut enter = self.state_times.iter().map(|s| s.plus(lo));
        leave
            .into_iter()
            .chain(enter.find(|&e| e > t))
            .min()
            .unwrap_or(NEVER)
    }

    /// Absorbs the deferred states `ticks` over an unchanged operand
    /// extension `sat`; `prev_time` is the state before the first of them.
    /// Equal to one [`HistFiniteState::step`] per tick: every `sat` key's
    /// run ends at `prev_time` and extends through all of them.
    pub fn catch_up(&mut self, sat: &Bindings, ticks: &[TimePoint], prev_time: Option<TimePoint>) {
        let Some((&t_new, earlier)) = ticks.split_last() else {
            return;
        };
        self.state_times.extend(earlier);
        self.step(sat, t_new, prev_time);
    }

    /// Whether the node holds for `key` at `t_now`: every state whose age
    /// lies in the interval is covered by one of the key's runs. Vacuously
    /// true when the window contains no state.
    pub fn holds(&self, key: &Tuple, t_now: TimePoint) -> bool {
        let Some((w_lo, w_hi)) = self.interval.window_at(t_now) else {
            return true; // no admissible age exists at all
        };
        let empty = VecDeque::new();
        let runs = self.runs.get(key).unwrap_or(&empty);
        let mut run_idx = 0;
        let start = self.state_times.partition_point(|&t| t < w_lo);
        for i in start..self.state_times.len() {
            let tau = self.state_times[i];
            if tau > w_hi {
                break;
            }
            // Advance past runs ending before tau; check coverage.
            while run_idx < runs.len() && runs[run_idx].1 < tau {
                run_idx += 1;
            }
            match runs.get(run_idx) {
                Some(&(s, e)) if s <= tau && tau <= e => {}
                _ => return false,
            }
        }
        true
    }

    /// `(keys, timestamps)` stored: run endpoints count as two timestamps;
    /// the shared state-time deque is reported too.
    pub fn space(&self) -> (usize, usize) {
        let run_stamps: usize = self.runs.values().map(|r| 2 * r.len()).sum();
        (self.runs.len(), run_stamps + self.state_times.len())
    }

    /// Dumps `(key, runs)` entries in deterministic order plus the recent
    /// state times.
    #[allow(clippy::type_complexity)] // the checkpoint codec's exact shape
    pub fn dump(&self) -> (Vec<(Tuple, Vec<(TimePoint, TimePoint)>)>, Vec<TimePoint>) {
        let mut entries: Vec<(Tuple, Vec<(TimePoint, TimePoint)>)> = self
            .runs
            .iter()
            .map(|(k, r)| (k.clone(), r.iter().copied().collect()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        (entries, self.state_times.iter().copied().collect())
    }

    /// Restores a dumped state; additive in the keyed entries.
    pub fn restore(
        &mut self,
        entries: Vec<(Tuple, Vec<(TimePoint, TimePoint)>)>,
        state_times: Vec<TimePoint>,
    ) {
        self.runs.extend(
            entries
                .into_iter()
                .map(|(k, r)| (k, r.into_iter().collect())),
        );
        self.state_times = state_times.into_iter().collect();
    }
}

/// Auxiliary state of a `hist[a,∞] g` node.
#[derive(Clone, Debug)]
pub struct HistInfState {
    lo: Duration,
    vars: Vec<Var>,
    started: bool,
    /// End of each key's prefix run (the run beginning at state 0). Frozen
    /// when the run breaks; pruned once it can no longer satisfy a query.
    prefix_end: TupleMap<TimePoint>,
    /// Keys whose prefix run is still growing.
    active: std::collections::BTreeSet<Tuple>,
    /// State times newer than `t_now − lo` (bounded by `lo + 1`).
    recent_times: VecDeque<TimePoint>,
    /// The newest state time ≤ `t_now − lo`, if any.
    latest_older: Option<TimePoint>,
}

impl HistInfState {
    /// Fresh state; `interval.hi()` must be infinite.
    pub fn new(interval: Interval, vars: Vec<Var>) -> HistInfState {
        assert!(
            !interval.is_bounded(),
            "HistInfState requires an unbounded interval"
        );
        HistInfState {
            lo: interval.lo(),
            vars,
            started: false,
            prefix_end: TupleMap::default(),
            active: std::collections::BTreeSet::new(),
            recent_times: VecDeque::new(),
            latest_older: None,
        }
    }

    /// The node's sorted free variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Advances to the new state.
    pub fn step(&mut self, sat_now: &Bindings, t_now: TimePoint) {
        debug_assert_eq!(sat_now.vars(), self.vars.as_slice());
        if !self.started {
            self.started = true;
            for row in sat_now.rows() {
                self.prefix_end.insert(row.clone(), t_now);
                self.active.insert(row.clone());
            }
        } else {
            let mut broken = Vec::new();
            for key in &self.active {
                if sat_now.contains(key) {
                    self.prefix_end.insert(key.clone(), t_now);
                } else {
                    broken.push(key.clone());
                }
            }
            for key in broken {
                self.active.remove(&key); // prefix_end stays frozen
            }
        }
        // Slide the `lo` window over state times.
        self.recent_times.push_back(t_now);
        let threshold = t_now.minus(self.lo);
        while self
            .recent_times
            .front()
            .is_some_and(|&t| threshold.is_some_and(|th| t <= th))
        {
            let t = self.recent_times.pop_front().expect("front checked");
            self.latest_older = Some(self.latest_older.map_or(t, |m| m.max(t)));
        }
        // Frozen entries that already fail against the (nondecreasing)
        // query point are dead.
        if let Some(m) = self.latest_older {
            let active = &self.active;
            self.prefix_end
                .retain(|k, &mut e| e >= m || active.contains(k));
        }
    }

    /// The earliest time at which [`HistInfState::holds`] can differ for
    /// some key while the operand extension stays put: active keys follow
    /// the clock, so only the query point moving past a frozen key's
    /// prefix end (or arriving at all) changes an answer, and it moves
    /// next when the oldest recent state ages `lo`.
    pub fn next_change(&self) -> TimePoint {
        match self.recent_times.front() {
            Some(r) if self.latest_older.is_none() || self.prefix_end.len() > self.active.len() => {
                r.plus(self.lo)
            }
            _ => NEVER,
        }
    }

    /// Absorbs the deferred states `ticks` over an unchanged operand
    /// extension `sat` (which contains every active key).
    pub fn catch_up(&mut self, sat: &Bindings, ticks: &[TimePoint]) {
        let Some((&t_new, earlier)) = ticks.split_last() else {
            return;
        };
        self.recent_times.extend(earlier);
        self.step(sat, t_new);
    }

    /// Whether the node holds for `key` at the current state.
    pub fn holds(&self, key: &Tuple) -> bool {
        match self.latest_older {
            None => true, // no state is old enough: vacuous
            Some(m) => self.prefix_end.get(key).is_some_and(|&e| e >= m),
        }
    }

    /// `(keys, timestamps)` stored.
    pub fn space(&self) -> (usize, usize) {
        (
            self.prefix_end.len(),
            self.prefix_end.len() + self.recent_times.len(),
        )
    }

    /// Dumps `(key, prefix end, still-active)` entries in deterministic
    /// order plus the window bookkeeping.
    pub fn dump(&self) -> HistInfDump {
        let mut entries: Vec<(Tuple, TimePoint, bool)> = self
            .prefix_end
            .iter()
            .map(|(k, e)| (k.clone(), *e, self.active.contains(k)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        HistInfDump {
            started: self.started,
            entries,
            recent_times: self.recent_times.iter().copied().collect(),
            latest_older: self.latest_older,
        }
    }

    /// Restores a dumped state; additive in the keyed entries.
    pub fn restore(&mut self, dump: HistInfDump) {
        self.started = dump.started;
        for (k, e, active) in dump.entries {
            if active {
                self.active.insert(k.clone());
            }
            self.prefix_end.insert(k, e);
        }
        self.recent_times = dump.recent_times.into_iter().collect();
        self.latest_older = dump.latest_older;
    }
}

/// The checkpointable content of a [`HistInfState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistInfDump {
    /// Whether state 0 has been processed.
    pub started: bool,
    /// `(key, prefix end, still-active)`.
    pub entries: Vec<(Tuple, TimePoint, bool)>,
    /// State times newer than `t − lo`.
    pub recent_times: Vec<TimePoint>,
    /// Newest state time ≤ `t − lo`.
    pub latest_older: Option<TimePoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::tuple;
    use rtic_temporal::var;

    fn key(s: &str) -> Tuple {
        tuple![s]
    }

    fn sat(vars: &[Var], keys: &[&str]) -> Bindings {
        Bindings::from_rows(vars.to_vec(), keys.iter().map(|k| key(k)))
    }

    fn v() -> Vec<Var> {
        vec![var("encx")]
    }

    // ---- Stamps ---------------------------------------------------------

    #[test]
    fn stamp_policy_selection() {
        assert_eq!(
            StampPolicy::for_interval(&Interval::up_to(5)),
            StampPolicy::Latest
        );
        assert_eq!(
            StampPolicy::for_interval(&Interval::all()),
            StampPolicy::Latest
        );
        assert_eq!(
            StampPolicy::for_interval(&Interval::at_least(2)),
            StampPolicy::Earliest
        );
        assert_eq!(
            StampPolicy::for_interval(&Interval::bounded(1, 4).unwrap()),
            StampPolicy::Many
        );
    }

    #[test]
    fn many_stamps_prune_and_query() {
        let mut s = Stamps::new(StampPolicy::Many, TimePoint(1));
        s.add(TimePoint(3));
        s.add(TimePoint(7));
        assert!(s.any_in(TimePoint(2), TimePoint(3)));
        assert!(!s.any_in(TimePoint(4), TimePoint(6)));
        assert!(s.prune(TimePoint(4)));
        assert_eq!(s.len(), 1);
        assert!(!s.prune(TimePoint(8)), "everything pruned");
    }

    // ---- once -----------------------------------------------------------

    #[test]
    fn once_latest_window() {
        // once[0,2]: satisfied while age of latest witness ≤ 2.
        let i = Interval::up_to(2);
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(10));
        assert_eq!(w.extension(TimePoint(10)).len(), 1);
        w.add_and_prune(&sat(&v(), &[]), TimePoint(12));
        assert_eq!(w.extension(TimePoint(12)).len(), 1, "age 2 still in window");
        w.add_and_prune(&sat(&v(), &[]), TimePoint(13));
        assert!(w.extension(TimePoint(13)).is_empty(), "age 3 out of window");
        let (keys, _) = w.space();
        assert_eq!(keys, 0, "expired key pruned");
    }

    #[test]
    fn once_lower_bound_delays_visibility() {
        // once[2,4]: a witness only counts when its age reaches 2.
        let i = Interval::bounded(2, 4).unwrap();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(10));
        assert!(w.extension(TimePoint(10)).is_empty(), "age 0 < 2");
        w.add_and_prune(&sat(&v(), &[]), TimePoint(12));
        assert_eq!(w.extension(TimePoint(12)).len(), 1, "age 2");
        w.add_and_prune(&sat(&v(), &[]), TimePoint(15));
        assert!(w.extension(TimePoint(15)).is_empty(), "age 5 > 4");
    }

    #[test]
    fn once_earliest_for_unbounded() {
        // once[3,*]: earliest witness decides.
        let i = Interval::at_least(3);
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(5));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(7)); // later witness ignored
        assert!(w.extension(TimePoint(7)).is_empty());
        assert_eq!(w.extension(TimePoint(8)).len(), 1, "age of earliest = 3");
        let (_, stamps) = w.space();
        assert_eq!(stamps, 1, "one timestamp per key");
    }

    #[test]
    fn once_general_deque_bounded() {
        let i = Interval::bounded(1, 3).unwrap();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        for t in 1..=50u64 {
            w.add_and_prune(&sat(&v(), &["a"]), TimePoint(t));
            let (_, stamps) = w.space();
            assert!(stamps <= 4, "≤ b+1 stamps per key (got {stamps})");
        }
        assert_eq!(w.extension(TimePoint(50)).len(), 1);
    }

    #[test]
    fn next_change_lands_on_the_window_edges() {
        // A stamp s satisfies once[2,4] over [s+2, s+4]: an unsatisfied key
        // enters at s + a, a satisfied one leaves at s + b + 1 — unless a
        // younger stamp carries the stretch on.
        let i = Interval::bounded(2, 4).unwrap();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        let gone = sat(&v(), &[]);
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(10));
        assert_eq!(w.next_change(&gone, TimePoint(10)), TimePoint(12));
        assert_eq!(w.next_change(&gone, TimePoint(12)), TimePoint(15));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(13));
        assert_eq!(w.next_change(&gone, TimePoint(13)), TimePoint(18));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(19));
        assert_eq!(w.next_change(&gone, TimePoint(19)), TimePoint(21));
        // a = 0: a key still in the operand is re-stamped at every state
        // and never leaves; one that left it ages out at s + b + 1.
        let i = Interval::up_to(3);
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a", "b"]), TimePoint(5));
        assert_eq!(w.next_change(&sat(&v(), &["a", "b"]), TimePoint(5)), NEVER);
        assert_eq!(
            w.next_change(&sat(&v(), &["a"]), TimePoint(5)),
            TimePoint(9)
        );
        // b = ∞: in at s + a, then never out.
        let i = Interval::at_least(3);
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(5));
        assert_eq!(w.next_change(&gone, TimePoint(6)), TimePoint(8));
        assert_eq!(w.next_change(&gone, TimePoint(8)), NEVER);
    }

    // ---- since (via WindowState with retain) ----------------------------

    #[test]
    fn since_anchor_cleared_when_f_fails() {
        let i = Interval::all();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        // t=1: g holds for "a" -> anchor.
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        assert_eq!(w.extension(TimePoint(1)).len(), 1);
        // t=2: f holds (retain), no new anchor.
        w.retain_keys(&sat(&v(), &["a"]));
        w.add_and_prune(&sat(&v(), &[]), TimePoint(2));
        assert_eq!(w.extension(TimePoint(2)).len(), 1);
        // t=3: f fails -> all anchors die; no new anchor.
        w.retain_keys(&sat(&v(), &[]));
        w.add_and_prune(&sat(&v(), &[]), TimePoint(3));
        assert!(w.extension(TimePoint(3)).is_empty());
    }

    #[test]
    fn since_new_anchor_survives_f_failure() {
        // A key failing f but satisfying g at the same state anchors afresh.
        let i = Interval::all();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        w.retain_keys(&sat(&v(), &[])); // f fails
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(2)); // but g holds again
        assert_eq!(w.extension(TimePoint(2)).len(), 1);
    }

    // ---- prev -----------------------------------------------------------

    #[test]
    fn prev_respects_age_gate() {
        let mut p = PrevState::new(Interval::bounded(1, 2).unwrap(), v());
        assert!(
            p.step(sat(&v(), &["a"]), TimePoint(5)).is_empty(),
            "no previous state"
        );
        // gap 2: admissible.
        let ext = p.step(sat(&v(), &["b"]), TimePoint(7));
        assert_eq!(ext.len(), 1);
        assert!(ext.contains(&key("a")));
        // gap 4: previous state too old.
        assert!(p.step(sat(&v(), &[]), TimePoint(11)).is_empty());
    }

    // ---- hist, finite ----------------------------------------------------

    #[test]
    fn hist_finite_requires_full_coverage() {
        let i = Interval::up_to(3);
        let mut h = HistFiniteState::new(i, v());
        h.step(&sat(&v(), &["a"]), TimePoint(1), None);
        assert!(h.holds(&key("a"), TimePoint(1)));
        h.step(&sat(&v(), &["a"]), TimePoint(2), Some(TimePoint(1)));
        assert!(h.holds(&key("a"), TimePoint(2)));
        // Miss a state.
        h.step(&sat(&v(), &[]), TimePoint(3), Some(TimePoint(2)));
        assert!(!h.holds(&key("a"), TimePoint(3)));
        // The gap ages out after bound ticks.
        h.step(&sat(&v(), &["a"]), TimePoint(5), Some(TimePoint(3)));
        h.step(&sat(&v(), &["a"]), TimePoint(7), Some(TimePoint(5)));
        assert!(
            h.holds(&key("a"), TimePoint(7)),
            "gap at t=3 now older than 3 ticks"
        );
    }

    #[test]
    fn hist_finite_vacuous_on_empty_window() {
        let i = Interval::bounded(3, 5).unwrap();
        let mut h = HistFiniteState::new(i, v());
        h.step(&sat(&v(), &[]), TimePoint(1), None);
        // At t=1 no state has age in [3,5]: vacuously true even for unseen keys.
        assert!(h.holds(&key("zzz"), TimePoint(1)));
        // At t=4 the state at t=1 enters the window: unseen key fails.
        h.step(&sat(&v(), &[]), TimePoint(4), Some(TimePoint(1)));
        assert!(!h.holds(&key("zzz"), TimePoint(4)));
    }

    #[test]
    fn hist_finite_never_seen_key_fails_nonempty_window() {
        let i = Interval::up_to(10);
        let mut h = HistFiniteState::new(i, v());
        h.step(&sat(&v(), &["a"]), TimePoint(1), None);
        assert!(!h.holds(&key("b"), TimePoint(1)));
    }

    #[test]
    fn hist_finite_space_is_window_bounded() {
        let i = Interval::up_to(4);
        let mut h = HistFiniteState::new(i, v());
        let mut prev = None;
        for t in 1..=100u64 {
            // Alternate satisfaction to maximize run count.
            let s = if t % 2 == 0 {
                sat(&v(), &["a"])
            } else {
                sat(&v(), &[])
            };
            h.step(&s, TimePoint(t), prev);
            prev = Some(TimePoint(t));
            let (_, stamps) = h.space();
            assert!(
                stamps <= 2 * 5 + 5,
                "runs+times bounded by window (got {stamps})"
            );
        }
    }

    #[test]
    fn huge_timestamps_do_not_overflow() {
        // Times near u64::MAX exercise the saturating window arithmetic.
        let base = u64::MAX - 10;
        let i = Interval::bounded(1, 3).unwrap();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(base));
        assert!(w.extension(TimePoint(base)).is_empty(), "age 0 < lo");
        assert_eq!(w.extension(TimePoint(base + 2)).len(), 1);
        let mut h = HistFiniteState::new(Interval::up_to(2), v());
        h.step(&sat(&v(), &["a"]), TimePoint(base), None);
        h.step(
            &sat(&v(), &["a"]),
            TimePoint(base + 2),
            Some(TimePoint(base)),
        );
        assert!(h.holds(&key("a"), TimePoint(base + 2)));
    }

    #[test]
    fn early_clock_times_clip_at_origin() {
        // Windows reaching before t=0 clip rather than underflow.
        let i = Interval::bounded(0, 100).unwrap();
        let mut w = WindowState::new(i, v(), StampPolicy::Many);
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        assert_eq!(w.extension(TimePoint(2)).len(), 1);
        let mut h = HistInfState::new(Interval::at_least(5), v());
        h.step(&sat(&v(), &["a"]), TimePoint(2));
        assert!(h.holds(&key("a")), "window empty this early");
    }

    // ---- hist, unbounded --------------------------------------------------

    #[test]
    fn hist_inf_prefix_semantics() {
        let i = Interval::at_least(0);
        let mut h = HistInfState::new(i, v());
        h.step(&sat(&v(), &["a", "b"]), TimePoint(1));
        assert!(h.holds(&key("a")));
        h.step(&sat(&v(), &["a"]), TimePoint(2));
        assert!(h.holds(&key("a")));
        assert!(!h.holds(&key("b")), "b broke its prefix");
        assert!(!h.holds(&key("c")), "never satisfied");
        // b can never recover.
        h.step(&sat(&v(), &["a", "b"]), TimePoint(3));
        assert!(!h.holds(&key("b")));
        assert!(h.holds(&key("a")));
    }

    #[test]
    fn hist_inf_lower_bound_excludes_recent_states() {
        // hist[2,*]: the last 2 ticks don't count.
        let i = Interval::at_least(2);
        let mut h = HistInfState::new(i, v());
        h.step(&sat(&v(), &["a"]), TimePoint(1));
        assert!(h.holds(&key("a")), "window empty at t=1");
        assert!(h.holds(&key("z")), "vacuous for everyone");
        // a fails at t=2, but at t=2 the window is still empty (1 > 2-2=0).
        h.step(&sat(&v(), &[]), TimePoint(2));
        assert!(h.holds(&key("a")));
        // At t=3 the state at t=1 (age 2) enters the window; a held there.
        h.step(&sat(&v(), &[]), TimePoint(3));
        assert!(h.holds(&key("a")), "prefix covers state@1");
        assert!(!h.holds(&key("z")));
        // At t=4 the state at t=2 (where a failed) enters the window.
        h.step(&sat(&v(), &[]), TimePoint(4));
        assert!(!h.holds(&key("a")));
    }

    #[test]
    fn hist_inf_space_prunes_dead_keys() {
        let i = Interval::at_least(0);
        let mut h = HistInfState::new(i, v());
        h.step(&sat(&v(), &["a", "b", "c"]), TimePoint(1));
        h.step(&sat(&v(), &[]), TimePoint(2)); // everyone breaks
        h.step(&sat(&v(), &[]), TimePoint(3));
        let (keys, _) = h.space();
        assert_eq!(keys, 0, "frozen entries below the query point are pruned");
    }
}
