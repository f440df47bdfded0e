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
//!
//! A step pays for what changed, not for what is stored. A key that stays
//! in its operand holds an *open run*: it is not re-stamped each state —
//! its stamps (or its run's end) are derived from the state times the node
//! keeps anyway — and the operand's row delta opens and closes runs. An
//! *expiry index* beside the keys orders them by when they next enter or
//! leave the window, so pruning pops what is due instead of visiting every
//! key, the node's next deadline is the index's front, and each advance
//! publishes the keys whose verdict flipped (with an epoch) for the probes
//! and extensions that read the node. `dump`, `space` and the checkpoint
//! codec render the derived stamps, so they read exactly what re-stamping
//! every state would have stored.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use rtic_relation::{FastMap, Tuple, TupleMap};
use rtic_temporal::ast::Var;
use rtic_temporal::time::{Duration, Interval, TimePoint};

use crate::binding::Bindings;
use crate::eval::Flips;

/// "No change ever": the deadline of a node whose answers cannot move
/// while its operand extension stays put.
pub const NEVER: TimePoint = TimePoint(u64::MAX);

/// The two bugs an expiry index invites, planted by the differential
/// oracle's mutation smoke (`IncrementalChecker::arm_index_bug`).
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexBug {
    /// Every leave deadline is filed one tick late.
    LateExpiry,
    /// A run stays open after its key left the operand.
    OpenRun,
}

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
    /// General `[a, b]`: all times in the last `b` ticks, sorted ascending
    /// (boxed, so the common one-stamp keys stay small).
    Many(Box<VecDeque<TimePoint>>),
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
            StampPolicy::Many => Stamps::Many(Box::new(VecDeque::from([t]))),
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

    /// The newest stored timestamp.
    fn newest(&self) -> TimePoint {
        match self {
            Stamps::Latest(t) | Stamps::Earliest(t) => *t,
            Stamps::Many(dq) => dq.back().copied().unwrap_or(TimePoint(0)),
        }
    }
}

/// The earliest time after `t` at which "some stamp of `stamps` (ascending)
/// lies in `interval`'s window" can flip if no stamp is added: a stamp `s`
/// satisfies the window over `[s + a, s + b]`, so the answer holds to the
/// end of the contiguous stretch containing `t`, or fails until the next
/// stamp ages `a`.
fn stamps_change(
    stamps: impl Iterator<Item = TimePoint>,
    interval: &Interval,
    t: TimePoint,
) -> TimePoint {
    let mut held_to: Option<TimePoint> = None;
    for s in stamps {
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

/// A stored key, shared between a node's map and its expiry index: an
/// index entry costs a pointer, not a second copy of the tuple.
type Key = Arc<Tuple>;

/// An expiry queue: `(deadline, key)` in deadline order.
type Queue = VecDeque<(TimePoint, Key)>;

/// Pops every entry of `queue` due at `t`, collecting its key.
fn pop_due(queue: &mut Queue, t: TimePoint, out: &mut Vec<Key>) {
    while queue.front().is_some_and(|(d, _)| *d <= t) {
        out.extend(queue.pop_front().map(|(_, k)| k));
    }
}

/// Files restored `entries` into `queue`, in deadline order.
fn file(queue: &mut Queue, entries: Vec<(TimePoint, Key)>) {
    queue.extend(entries);
    queue.make_contiguous().sort_unstable_by_key(|(d, _)| *d);
}

/// The keys whose verdict a node's last advance may have flipped — every
/// key it touched or found due; a superset, so a reader re-tests each —
/// under an epoch that advance bumped: what the probes reading the node
/// move rows by.
#[derive(Clone, Debug, Default)]
struct FlipLog {
    keys: Vec<Key>,
    epoch: u64,
    /// The epoch the flips lead from; `None` when every key may have
    /// flipped.
    from: Option<u64>,
}

impl FlipLog {
    /// Starts the next epoch with the keys that may have flipped (`None`:
    /// any key).
    fn record(&mut self, flipped: Option<Vec<Key>>) {
        self.epoch += 1;
        self.from = flipped.as_ref().map(|_| self.epoch - 1);
        self.keys = flipped.unwrap_or_default();
    }

    fn view(&self) -> Flips<'_> {
        Flips {
            epoch: self.epoch,
            from: self.from,
            keys: &self.keys,
        }
    }
}

/// What a window absorbs at a new state.
#[derive(Clone, Copy, Debug)]
pub struct Change<'a> {
    /// The operand's extension at the new state (`since`: the anchors).
    pub sat: &'a Bindings,
    /// Its net `(added, removed)` rows since the last absorbed state, when
    /// its producer recorded them; `None` compares the open runs with
    /// `sat`, O(keys).
    pub delta: Option<(&'a [Tuple], &'a [Tuple])>,
    /// `since` only: keys whose maintained formula failed — they lose
    /// every anchor before `sat` anchors afresh.
    pub dropped: &'a [Tuple],
}

/// One stored key of a window (`S`: its [`Stamps`]) or finite `hist`
/// (its runs).
#[derive(Clone, Debug)]
struct Slot<S> {
    data: S,
    /// Whether the key is in the operand's extension: an *open run*, which
    /// holds at every state since it began without being re-stamped — its
    /// stamps (a window's newest stored one is the run's start) or its
    /// last run's end are derived from the node's state times.
    open: bool,
}

/// The stored keys of a window or finite `hist` node — each shared with
/// the node's expiry index — and what its last advance flipped.
#[derive(Clone, Debug)]
struct Slots<S> {
    map: FastMap<Key, Slot<S>>,
    /// Open runs.
    open: usize,
    /// Restored keys the index does not cover yet.
    unindexed: bool,
    flips: FlipLog,
}

impl<S: Clone> Slots<S> {
    fn new() -> Slots<S> {
        Slots {
            map: FastMap::default(),
            open: 0,
            unindexed: false,
            flips: FlipLog::default(),
        }
    }

    /// The keys and their data alone, without flips.
    fn snapshot(&self) -> Slots<S> {
        Slots {
            map: self.map.clone(),
            open: self.open,
            ..Slots::new()
        }
    }

    fn is_open(&self, key: &Tuple) -> bool {
        self.map.get(key).is_some_and(|s| s.open)
    }

    fn open_keys(&self) -> impl Iterator<Item = &Key> {
        self.map.iter().filter(|(_, s)| s.open).map(|(k, _)| k)
    }

    /// The runs that close and open at a new state: the operand delta's
    /// `(removed, added)` rows, or — rebuilding — the difference between
    /// the open runs and the operand `sat`, O(keys).
    fn changes<'c>(
        &self,
        sat: &'c Bindings,
        delta: Option<(&'c [Tuple], &'c [Tuple])>,
    ) -> (Cow<'c, [Tuple]>, Vec<&'c Tuple>) {
        if let Some((added, removed)) = delta {
            return (removed.into(), added.iter().collect());
        }
        let gone = self.open_keys().filter(|k| !sat.contains(k));
        let gone: Vec<Tuple> = gone.map(|k| Tuple::clone(k)).collect();
        (
            gone.into(),
            sat.rows().filter(|k| !self.is_open(k)).collect(),
        )
    }

    /// Closes `key`'s open run: its shared key and data to settle.
    fn close(&mut self, key: &Tuple) -> Option<(Key, &mut S)> {
        let shared = Arc::clone(self.map.get_key_value(key).filter(|(_, s)| s.open)?.0);
        let slot = self.map.get_mut(key)?;
        slot.open = false;
        self.open -= 1;
        Some((shared, &mut slot.data))
    }

    /// Opens a run for `key` (`None`: it holds one), storing an unseen
    /// key with `fresh()`: its shared key, its data, and whether it is new.
    fn open(&mut self, key: &Tuple, fresh: impl FnOnce() -> S) -> Option<(Key, &mut S, bool)> {
        let (shared, new) = match self.map.get_key_value(key) {
            Some((_, s)) if s.open => return None,
            Some((k, _)) => (Arc::clone(k), false),
            None => {
                let k = Arc::new(key.clone());
                let data = fresh();
                self.map.insert(Arc::clone(&k), Slot { data, open: false });
                (k, true)
            }
        };
        let slot = self.map.get_mut(key)?;
        slot.open = true;
        self.open += 1;
        Some((shared, &mut slot.data, new))
    }

    /// Drops `key`, returning it if it was stored.
    fn remove(&mut self, key: &Tuple) -> Option<Key> {
        let (k, slot) = self.map.remove_entry(key)?;
        self.open -= usize::from(slot.open);
        Some(k)
    }

    /// Stores a restored, closed key; the index is rebuilt on the next
    /// advance.
    fn restore(&mut self, key: Tuple, data: S) {
        let open = false;
        self.map.insert(Arc::new(key), Slot { data, open });
        self.unindexed = true;
    }
}

/// Auxiliary state of a `once[I] g` or `f since[I] g` node.
///
/// Beside the keys, the expiry index: the times a run's first stamp ages
/// `a` (`enter`) and a closed run's last stamp ages past `b` (`leave`),
/// each queue in time order because runs open and close in time order.
/// Runs are dense — a clock gap that a window could fall into splits every
/// open run (`push_state`) — so a key's verdict can only change at one of
/// its queued times or, for an open run, when its newest stamp leaves.
#[derive(Clone, Debug)]
pub struct WindowState {
    interval: Interval,
    policy: StampPolicy,
    vars: Vec<Var>,
    slots: Slots<Stamps>,
    /// Absorbed state times, ascending: those of the last `b` ticks under
    /// `Many` (an open run's stamps), else the newest.
    times: VecDeque<TimePoint>,
    enter: Queue,
    leave: Queue,
    /// The extension, maintained from the flips once something joins it.
    ext: Option<Bindings>,
    bug: Option<IndexBug>,
}

impl WindowState {
    /// Fresh state for a node with sorted free variables `vars`.
    pub fn new(interval: Interval, vars: Vec<Var>, policy: StampPolicy) -> WindowState {
        WindowState {
            interval,
            policy,
            vars,
            slots: Slots::new(),
            times: VecDeque::new(),
            enter: VecDeque::new(),
            leave: VecDeque::new(),
            ext: None,
            bug: None,
        }
    }

    /// The node's sorted free variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Current keys as a binding set (the `since` update evaluates the
    /// maintained formula `f` over exactly these candidates).
    pub fn keys(&self) -> Bindings {
        Bindings::from_rows(self.vars.clone(), self.key_iter().cloned())
    }

    /// The stored keys.
    pub fn key_iter(&self) -> impl Iterator<Item = &Tuple> {
        self.slots.map.keys().map(|k| &**k)
    }

    /// Whether `key` holds any stamp.
    pub fn has_key(&self, key: &Tuple) -> bool {
        self.slots.map.contains_key(key)
    }

    /// From now on keep the extension as a row set updated from the flips
    /// (for nodes a plan joins rather than probes).
    pub(crate) fn keep_extension(&mut self) {
        let now = self.times.back().copied();
        self.ext = Some(now.map_or_else(|| Bindings::none(self.vars.clone()), |t| self.scan(t)));
    }

    /// The stored keys and state times alone — what `dump` and `space`
    /// read, caught up — without the index, flips or extension.
    pub(crate) fn snapshot(&self) -> WindowState {
        WindowState {
            slots: self.slots.snapshot(),
            times: self.times.clone(),
            ..WindowState::new(self.interval, self.vars.clone(), self.policy)
        }
    }

    /// Plants `bug` (mutation smoke).
    pub(crate) fn arm(&mut self, bug: IndexBug) {
        self.bug = Some(bug);
    }

    /// Whether a stamp ever moves: with `b = ∞` a key keeps the stamp it
    /// was first given — any stored stamp satisfies `[0, ∞)`, and the
    /// earliest is the best witness otherwise.
    fn restamps(&self) -> bool {
        self.interval.is_bounded()
    }

    /// The oldest stamp time still inside some future window at `t`.
    fn cutoff(&self, t: TimePoint) -> TimePoint {
        let b = self.interval.hi().finite();
        b.and_then(|b| t.minus(b)).unwrap_or(TimePoint(0))
    }

    /// The key's stamps, ascending — an open run's derived ones included.
    fn stamps_of<'a>(&'a self, e: &'a Slot<Stamps>) -> impl Iterator<Item = TimePoint> + 'a {
        let (stored, from) = match (&e.data, e.open) {
            (Stamps::Latest(_), true) if self.restamps() => {
                (None, self.times.len().saturating_sub(1))
            }
            (Stamps::Many(dq), true) => {
                let start = dq.back().copied();
                (
                    Some(&e.data),
                    self.times.partition_point(|&s| Some(s) <= start),
                )
            }
            _ => (Some(&e.data), self.times.len()),
        };
        let derived = self.times.range(from..).copied();
        stored.into_iter().flat_map(Stamps::times).chain(derived)
    }

    /// Whether the key has a stamp in `[lo, hi]`, in O(log).
    fn any_in(&self, e: &Slot<Stamps>, lo: TimePoint, hi: TimePoint) -> bool {
        let derived = |after: Option<TimePoint>| {
            let i = self.times.partition_point(|&s| s < lo || Some(s) <= after);
            self.times.get(i).is_some_and(|&s| s <= hi)
        };
        match (&e.data, e.open) {
            (Stamps::Latest(_), true) if self.restamps() => {
                self.times.back().is_some_and(|&s| s >= lo && s <= hi)
            }
            (Stamps::Many(dq), true) => e.data.any_in(lo, hi) || derived(dq.back().copied()),
            (s, _) => s.any_in(lo, hi),
        }
    }

    /// When the key's verdict next changes after `t` with the operand
    /// unchanged (an open key of an `a = 0` window never does).
    fn key_change(&self, e: &Slot<Stamps>, t: TimePoint) -> TimePoint {
        if e.open && self.interval.lo().0 == 0 {
            return NEVER;
        }
        stamps_change(self.stamps_of(e), &self.interval, t)
    }

    /// Absorbs the new state `t_now` (`t_prev` the one before it, if any):
    /// pops the index entries due, applies `change` — closing, opening and
    /// dropping runs — and publishes the keys whose verdict may have
    /// flipped. O(|delta| + |due|), or O(keys) for a rebuild.
    pub fn advance(&mut self, change: Change<'_>, t_prev: Option<TimePoint>, t_now: TimePoint) {
        debug_assert_eq!(change.sat.vars(), self.vars.as_slice());
        let restored = self.reindex(t_prev);
        let (closing, opening) = self.slots.changes(change.sat, change.delta);
        let anchored = change.dropped.iter().filter(|k| change.sat.contains(k));
        // Which keys may flip: dropped ones, and what fell due; closing a
        // run keeps its stamps, and a fresh stamp only counts now when
        // `a = 0` — then a run closed across a gap wider than `b` has lost
        // its newest stamp too. (A rebuild finds the same closing and
        // opening runs a delta names.) A restore publishes no flips: every
        // key may have flipped, and what reads the window rebuilds too.
        let known = !restored;
        let a0 = known && self.interval.lo().0 == 0;
        let b = self.interval.hi().finite();
        let gap = a0 && t_prev.zip(b).is_some_and(|(p, b)| t_now > p.plus(b));
        let mut cand = Vec::new();
        pop_due(&mut self.enter, t_now, &mut cand);
        pop_due(&mut self.leave, t_now, &mut cand);
        if t_prev.is_some_and(|p| self.splits(p, t_now)) {
            cand.extend(self.slots.open_keys().cloned());
        }
        for k in change.dropped {
            cand.extend(self.slots.remove(k));
        }
        for k in closing.iter() {
            cand.extend(self.close(k, t_prev).filter(|_| gap));
        }
        self.push_state(t_now);
        for k in opening.into_iter().chain(anchored) {
            cand.extend(self.open_run(k, t_now).filter(|_| a0));
        }
        // A key whose last stamp aged out leaves the window.
        let cutoff = self.cutoff(t_now);
        for k in &cand {
            let dead = self.slots.map.get(&**k);
            if dead.is_some_and(|e| !e.open && e.data.newest() < cutoff) {
                self.slots.remove(k);
            }
        }
        if let Some(mut ext) = self.ext.take() {
            match known {
                true => {
                    let now: Vec<bool> = cand.iter().map(|k| self.satisfied(k, t_now)).collect();
                    ext.set_rows(cand.iter().map(|k| &**k).zip(now));
                }
                false => ext = self.scan(t_now),
            }
            self.ext = Some(ext);
        }
        self.slots.flips.record(known.then_some(cand));
        self.settle_index(t_now);
    }

    /// Whether a clock gap from `prev` to `t` is wide enough for the
    /// window to fall between two states (`a > 0`, `b` finite), so open
    /// runs split there.
    fn splits(&self, prev: TimePoint, t: TimePoint) -> bool {
        let (a, b) = (self.interval.lo().0, self.interval.hi().finite());
        let span = b.map_or(u64::MAX, |b| b.0 - a + 2);
        self.policy == StampPolicy::Many && a > 0 && t.0 - prev.0 >= span
    }

    /// Closes `key`'s open run at `t_prev`, its last state: its stamps are
    /// materialised and its leave filed. Returns the key if it was open.
    fn close(&mut self, key: &Tuple, t_prev: Option<TimePoint>) -> Option<Key> {
        let t_prev = t_prev.filter(|_| self.bug != Some(IndexBug::OpenRun))?;
        let restamps = self.restamps();
        let (key, stamps) = self.slots.close(key)?;
        match stamps {
            Stamps::Latest(s) if restamps => *s = t_prev,
            Stamps::Latest(_) | Stamps::Earliest(_) => {}
            Stamps::Many(dq) => {
                let start = dq.back().copied();
                dq.extend((self.times.iter().copied()).filter(|&s| Some(s) > start && s <= t_prev));
            }
        }
        if let Some(b) = self.interval.hi().finite() {
            let late = u64::from(self.bug == Some(IndexBug::LateExpiry));
            let due = t_prev.plus(b).plus(Duration(1 + late));
            self.leave.push_back((due, Arc::clone(&key)));
        }
        Some(key)
    }

    /// Opens a run for `key` at `t_now` (a no-op for an open key).
    /// Returns the key if it opened.
    fn open_run(&mut self, key: &Tuple, t_now: TimePoint) -> Option<Key> {
        let (cutoff, restamps, policy) = (self.cutoff(t_now), self.restamps(), self.policy);
        let (key, stamps, new) = self.slots.open(key, || Stamps::new(policy, t_now))?;
        match stamps {
            _ if new => {}
            Stamps::Latest(s) if restamps => *s = t_now,
            Stamps::Latest(_) | Stamps::Earliest(_) => {}
            Stamps::Many(dq) => {
                while dq.front().is_some_and(|&s| s < cutoff) {
                    dq.pop_front();
                }
                dq.push_back(t_now);
            }
        }
        if (new || policy == StampPolicy::Many) && self.interval.lo().0 > 0 {
            let enter = t_now.plus(self.interval.lo());
            self.enter.push_back((enter, Arc::clone(&key)));
        }
        Some(key)
    }

    /// Records the state time `t`; a gap the window could fall into
    /// splits every open run there, so runs stay dense.
    fn push_state(&mut self, t: TimePoint) {
        let prev = self.times.back().copied();
        let split: Vec<Key> = match prev.filter(|&p| self.splits(p, t)) {
            Some(_) => self.slots.open_keys().cloned().collect(),
            None => Vec::new(),
        };
        for k in &split {
            self.close(k, prev);
        }
        self.times.push_back(t);
        self.prune_times();
        for k in &split {
            self.open_run(k, t);
        }
    }

    /// Drops the state times no open run can derive a live stamp from:
    /// all but the newest unless under `Many`.
    fn prune_times(&mut self) {
        let Some(&t) = self.times.back() else { return };
        let keep = if self.policy == StampPolicy::Many {
            self.cutoff(t)
        } else {
            t
        };
        while self.times.front().is_some_and(|&s| s < keep) {
            self.times.pop_front();
        }
    }

    /// Files every restored stamp's enter and leave still ahead of the
    /// restored state `t_prev` (a superset of the change points;
    /// [`WindowState::settle_index`] drops the rest). Returns whether
    /// there was anything restored.
    fn reindex(&mut self, t_prev: Option<TimePoint>) -> bool {
        if !std::mem::take(&mut self.slots.unindexed) {
            return false;
        }
        let (a, b) = (self.interval.lo(), self.interval.hi().finite());
        let ahead = |d: &TimePoint| t_prev.is_none_or(|p| *d > p);
        let (mut enter, mut leave) = (Vec::new(), Vec::new());
        for (k, e) in &self.slots.map {
            for s in e.data.times() {
                let enter_at = Some(s.plus(a)).filter(|_| a.0 > 0);
                let leave_at = b.map(|b| s.plus(b).plus(Duration(1)));
                enter.extend(enter_at.filter(ahead).map(|d| (d, k.clone())));
                leave.extend(leave_at.filter(ahead).map(|d| (d, k.clone())));
            }
        }
        file(&mut self.enter, enter);
        file(&mut self.leave, leave);
        true
    }

    /// Drops front entries that are no longer a change point of their
    /// key, so the fronts answer [`WindowState::next_change`] exactly.
    fn settle_index(&mut self, t: TimePoint) {
        for leave in [false, true] {
            loop {
                let queue = if leave { &self.leave } else { &self.enter };
                let Some((d, k)) = queue.front() else { break };
                if self
                    .slots
                    .map
                    .get(k)
                    .map_or(NEVER, |e| self.key_change(e, t))
                    <= *d
                {
                    break;
                }
                let _ = match leave {
                    true => self.leave.pop_front(),
                    false => self.enter.pop_front(),
                };
            }
        }
    }

    /// Absorbs the deferred states `ticks` (ascending) over an unchanged
    /// operand: open runs extend by derivation, so only the state times
    /// move. No verdict changes before the deadline that let them defer.
    pub fn catch_up(&mut self, ticks: &[TimePoint]) {
        for &t in ticks {
            match self.times.back() {
                Some(&p) if self.splits(p, t) => self.push_state(t),
                _ => self.times.push_back(t),
            }
        }
        self.prune_times();
    }

    /// The earliest time after the last absorbed state at which
    /// [`WindowState::satisfied`] can differ for some key while the
    /// operand extension stays put — the index's fronts, plus the moment
    /// an open run's newest stamp would leave — in O(1).
    pub fn next_change(&self) -> TimePoint {
        let fronts = [self.enter.front(), self.leave.front()];
        let queued = fronts.into_iter().flatten().map(|(d, _)| *d);
        let newest = self
            .times
            .back()
            .filter(|_| self.slots.open > 0 && self.interval.lo().0 > 0);
        let open =
            newest.and_then(|t| Some(t.plus(self.interval.hi().finite()?).plus(Duration(1))));
        queued.chain(open).min().unwrap_or(NEVER)
    }

    /// The keys the last advance flipped (see [`Flips`]).
    pub fn flips(&self) -> Flips<'_> {
        self.slots.flips.view()
    }

    /// O(1) membership probe: whether `key` has a witness whose age lies in
    /// the interval at `t_now`. Consistent with [`WindowState::extension`].
    pub fn satisfied(&self, key: &Tuple, t_now: TimePoint) -> bool {
        match self.interval.window_at(t_now) {
            None => false,
            Some((w_lo, w_hi)) => {
                (self.slots.map.get(key)).is_some_and(|e| self.any_in(e, w_lo, w_hi))
            }
        }
    }

    /// The node's extension at `t_now`, the last absorbed state: keys with
    /// a witness whose age lies in the interval — the maintained row set
    /// (same version while no verdict flips) when one is kept.
    pub fn extension(&self, t_now: TimePoint) -> Bindings {
        self.ext.clone().unwrap_or_else(|| self.scan(t_now))
    }

    /// The extension at `t_now`, by visiting every key.
    fn scan(&self, t_now: TimePoint) -> Bindings {
        let keys = self.slots.map.keys().filter(|k| self.satisfied(k, t_now));
        Bindings::from_rows(self.vars.clone(), keys.map(|k| Tuple::clone(k)))
    }

    /// The key's stamps still inside some future window (none: the key
    /// aged out and awaits its due pop).
    fn live_stamps<'a>(
        &'a self,
        e: &'a Slot<Stamps>,
        cutoff: TimePoint,
    ) -> impl Iterator<Item = TimePoint> + 'a {
        self.stamps_of(e).filter(move |&s| s >= cutoff)
    }

    /// The cutoff of [`WindowState::live_stamps`] at the newest state.
    fn live_cutoff(&self) -> TimePoint {
        self.times.back().map_or(TimePoint(0), |&t| self.cutoff(t))
    }

    /// `(keys, timestamps)` stored — the quantities bounded by the paper.
    pub fn space(&self) -> (usize, usize) {
        let cutoff = self.live_cutoff();
        let live = (self.slots.map.values()).map(|e| self.live_stamps(e, cutoff).count());
        live.filter(|&n| n > 0)
            .fold((0, 0), |(keys, n), k| (keys + 1, n + k))
    }

    /// Dumps every entry as `(key, ascending timestamps)` in deterministic
    /// (key) order — the checkpoint codec's view of the state, open runs
    /// rendered as the stamps re-stamping would have stored.
    pub fn dump(&self) -> Vec<(Tuple, Vec<TimePoint>)> {
        let cutoff = self.live_cutoff();
        let live = |e| self.live_stamps(e, cutoff).collect();
        let all = (self.slots.map.iter()).map(|(k, e)| (Tuple::clone(k), live(e)));
        let mut out: Vec<(Tuple, Vec<TimePoint>)> =
            all.filter(|(_, s): &(_, Vec<_>)| !s.is_empty()).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Restores one dumped entry. Timestamps must be non-empty and
    /// ascending (the checkpoint reader validates them); under the
    /// one-timestamp policies only the policy-relevant stamp is kept.
    pub fn restore_entry(&mut self, key: Tuple, stamps: &[TimePoint]) {
        debug_assert!(stamps.windows(2).all(|w| w[0] < w[1]), "stamps must ascend");
        let (Some(&first), Some(&last)) = (stamps.first(), stamps.last()) else {
            return;
        };
        let stamps = match self.policy {
            StampPolicy::Latest => Stamps::Latest(last),
            StampPolicy::Earliest => Stamps::Earliest(first),
            StampPolicy::Many => Stamps::Many(Box::new(stamps.iter().copied().collect())),
        };
        self.slots.restore(key, stamps);
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

/// One key's maximal runs `(start, end)` of consecutive states on which a
/// finite `hist`'s operand held, oldest first.
type Runs = VecDeque<(TimePoint, TimePoint)>;

/// Auxiliary state of a `hist[a,b] g` node with finite `b`.
#[derive(Clone, Debug)]
pub struct HistFiniteState {
    interval: Interval,
    bound: Duration,
    vars: Vec<Var>,
    slots: Slots<Runs>,
    /// Timestamps of all states in the last `bound` ticks.
    state_times: VecDeque<TimePoint>,
    /// Closed keys by when their newest run leaves the window
    /// (`end + b + 1`): the prune order.
    leave: Queue,
    /// The expiry index: keys by when the first state after a run (which
    /// the key missed) ages `a` — it fails from then — and by when the
    /// state before a run leaves the window, after which it may hold.
    enter: Queue,
    clear: Queue,
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
            slots: Slots::new(),
            state_times: VecDeque::new(),
            leave: VecDeque::new(),
            enter: VecDeque::new(),
            clear: VecDeque::new(),
        }
    }

    /// The node's sorted free variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// `t + b + 1`: when a state at `t` leaves every window.
    fn gone(&self, t: TimePoint) -> TimePoint {
        t.plus(self.bound).plus(Duration(1))
    }

    /// Advances to the new state: `sat_now` is the operand's extension,
    /// `delta` its net `(added, removed)` rows since the last state when
    /// known, `prev_time` the previous state's timestamp (`None` at state
    /// 0). Keys that stay in the operand extend their open run without
    /// being visited: O(|delta| + |due|), or O(keys) without a delta.
    /// Publishes the keys whose verdict may have flipped — unless the
    /// window went from empty (vacuous) to not or back, or was restored.
    pub fn step(
        &mut self,
        sat_now: &Bindings,
        delta: Option<(&[Tuple], &[Tuple])>,
        t_now: TimePoint,
        prev_time: Option<TimePoint>,
    ) {
        debug_assert_eq!(sat_now.vars(), self.vars.as_slice());
        let restored = self.reindex();
        let (closing, opening) = self.slots.changes(sat_now, delta);
        let (mut due, mut cand) = (Vec::new(), Vec::new());
        pop_due(&mut self.leave, t_now, &mut due);
        pop_due(&mut self.enter, t_now, &mut cand);
        pop_due(&mut self.clear, t_now, &mut cand);
        // Which keys may flip: what fell due, and with `a = 0` a key whose
        // run closes (it misses this state) or — across a gap wider than
        // `b` — opens (its state before leaves at once).
        let lo = self.interval.lo();
        let gap = lo.0 == 0 && prev_time.is_some_and(|p| t_now > p.plus(self.bound));
        let vacuous_before = prev_time.map(|p| self.vacuous(p));
        for k in closing.iter() {
            let Some((end, (key, runs))) = prev_time.zip(self.slots.close(k)) else {
                continue;
            };
            if let Some(last) = runs.back_mut() {
                last.1 = end;
            }
            if lo.0 > 0 {
                self.enter.push_back((t_now.plus(lo), Arc::clone(&key)));
            } else {
                cand.push(Arc::clone(&key));
            }
            self.leave.push_back((self.gone(end), key));
        }
        self.state_times.push_back(t_now);
        let cutoff = t_now.minus(self.bound).unwrap_or(TimePoint(0));
        while self.state_times.front().is_some_and(|&t| t < cutoff) {
            self.state_times.pop_front();
        }
        // The state before a run starts, missed, fails the key until it
        // leaves the window.
        let missed = prev_time.map(|p| self.gone(p)).filter(|&d| d > t_now);
        for k in opening {
            let Some((key, runs, _)) = self.slots.open(k, VecDeque::new) else {
                continue;
            };
            while runs.front().is_some_and(|&(_, end)| end < cutoff) {
                runs.pop_front();
            }
            runs.push_back((t_now, t_now));
            if let Some(d) = missed {
                self.clear.push_back((d, Arc::clone(&key)));
            }
            if gap {
                cand.push(key);
            }
        }
        for k in due {
            let dead = (self.slots.map.get(&*k)).and_then(|r| r.data.back().filter(|_| !r.open));
            if dead.is_some_and(|&(_, end)| end < cutoff) {
                self.slots.remove(&k);
            }
        }
        // A window that turns vacuous (or stops being so) flips every key;
        // a restore publishes no flips either.
        let vacuity = vacuous_before.is_none_or(|v| v == self.vacuous(t_now));
        let known = vacuity && !restored;
        self.slots.flips.record(known.then_some(cand));
        // With a = 0 a closed key fails at every state: keep `clear`
        // fronted by an open key, which fails until its entry is due.
        while lo.0 == 0 && (self.clear.front()).is_some_and(|(_, k)| !self.slots.is_open(k)) {
            self.clear.pop_front();
        }
    }

    /// The runs and state times alone, without the index or flips.
    pub(crate) fn snapshot(&self) -> HistFiniteState {
        HistFiniteState {
            slots: self.slots.snapshot(),
            state_times: self.state_times.clone(),
            ..HistFiniteState::new(self.interval, self.vars.clone())
        }
    }

    /// Whether no state's age lies in the interval at `t`: every key holds.
    fn vacuous(&self, t: TimePoint) -> bool {
        let Some((w_lo, w_hi)) = self.interval.window_at(t) else {
            return true;
        };
        let first = self.state_times.partition_point(|&s| s < w_lo);
        self.state_times.get(first).is_none_or(|&s| s > w_hi)
    }

    /// The keys the last step flipped (see [`Flips`]).
    pub fn flips(&self) -> Flips<'_> {
        self.slots.flips.view()
    }

    /// The key's runs with an open run's end derived.
    fn runs_of<'a>(
        &'a self,
        r: &'a Slot<Runs>,
    ) -> impl Iterator<Item = (TimePoint, TimePoint)> + 'a {
        let now = self.state_times.back().copied();
        let n = r.data.len();
        let runs = r.data.iter().enumerate();
        runs.map(
            move |(i, &(s, e))| match now.filter(|_| r.open && i + 1 == n) {
                Some(now) => (s, now),
                None => (s, e),
            },
        )
    }

    /// Rebuilds the queues and open flags after a restore: a key whose
    /// last run ends at the newest state is in the operand; each run
    /// files when the state before it leaves and the state after it
    /// ages `a` (a superset of the change points). Returns whether there
    /// was anything restored.
    fn reindex(&mut self) -> bool {
        if !std::mem::take(&mut self.slots.unindexed) {
            return false;
        }
        let now = self.state_times.back().copied();
        let (lo, times) = (self.interval.lo(), &self.state_times);
        let gone = |t: TimePoint| t.plus(self.bound).plus(Duration(1));
        let (mut leave, mut enter, mut clear) = (Vec::new(), Vec::new(), Vec::new());
        for (k, r) in &mut self.slots.map {
            let Some(&(_, last)) = r.data.back() else {
                continue;
            };
            r.open = Some(last) == now;
            self.slots.open += usize::from(r.open);
            if !r.open {
                leave.push((gone(last), k.clone()));
            }
            for &(start, end) in &r.data {
                let before = times.partition_point(|&t| t < start).checked_sub(1);
                clear.extend(
                    before
                        .and_then(|i| times.get(i))
                        .map(|&v| (gone(v), k.clone())),
                );
                let after = times.get(times.partition_point(|&t| t <= end));
                enter.extend(after.filter(|_| lo.0 > 0).map(|u| (u.plus(lo), k.clone())));
            }
        }
        file(&mut self.leave, leave);
        file(&mut self.enter, enter);
        file(&mut self.clear, clear);
        true
    }

    /// The earliest time after `t` at which [`HistFiniteState::holds`] can
    /// differ for some key while the operand extension stays put:
    /// conservatively, when a stored state next enters (`τ + a`) or leaves
    /// (`τ + b + 1`) the window — later states enter after the stored ones
    /// and are covered exactly for open keys. With `a = 0` a key outside
    /// the operand fails at every state, so once every open key holds
    /// (nothing left in `clear`) nothing moves.
    pub fn next_change(&self, t: TimePoint) -> TimePoint {
        let lo = self.interval.lo();
        if lo.0 == 0 && self.clear.is_empty() {
            return NEVER;
        }
        let leave = self.state_times.front().map(|&s| self.gone(s));
        let next = self.state_times.partition_point(|s| s.plus(lo) <= t);
        let enter = self.state_times.get(next).map(|s| s.plus(lo));
        leave.into_iter().chain(enter).min().unwrap_or(NEVER)
    }

    /// Absorbs the deferred states `ticks` over an unchanged operand
    /// extension: open runs extend by derivation, so only the state times
    /// move. Equal to one [`HistFiniteState::step`] per tick.
    pub fn catch_up(&mut self, ticks: &[TimePoint]) {
        self.state_times.extend(ticks);
        let Some(&t_new) = ticks.last() else {
            return;
        };
        let cutoff = t_new.minus(self.bound).unwrap_or(TimePoint(0));
        while self.state_times.front().is_some_and(|&t| t < cutoff) {
            self.state_times.pop_front();
        }
    }

    /// Whether the node holds for `key` at `t_now`: every state whose age
    /// lies in the interval is covered by one of the key's runs. Vacuously
    /// true when the window contains no state.
    pub fn holds(&self, key: &Tuple, t_now: TimePoint) -> bool {
        let Some((w_lo, w_hi)) = self.interval.window_at(t_now) else {
            return true; // no admissible age exists at all
        };
        let runs = self
            .slots
            .map
            .get(key)
            .into_iter()
            .flat_map(|r| self.runs_of(r));
        let mut runs = runs.peekable();
        let start = self.state_times.partition_point(|&t| t < w_lo);
        for &tau in self.state_times.range(start..) {
            if tau > w_hi {
                break;
            }
            // Skip runs ending before tau; check coverage.
            while runs.next_if(|&(_, e)| e < tau).is_some() {}
            match runs.peek() {
                Some(&(s, e)) if s <= tau && tau <= e => {}
                _ => return false,
            }
        }
        true
    }

    /// Each key's runs still inside some future window.
    fn live(&self) -> impl Iterator<Item = (&Tuple, Vec<(TimePoint, TimePoint)>)> {
        let now = self.state_times.back().copied().unwrap_or(TimePoint(0));
        let cutoff = now.minus(self.bound).unwrap_or(TimePoint(0));
        let runs = move |r| {
            self.runs_of(r)
                .filter(|&(_, e)| e >= cutoff)
                .collect::<Vec<_>>()
        };
        let all = self.slots.map.iter().map(move |(k, r)| (&**k, runs(r)));
        all.filter(|(_, r)| !r.is_empty())
    }

    /// `(keys, timestamps)` stored: run endpoints count as two timestamps;
    /// the shared state-time deque is reported too.
    pub fn space(&self) -> (usize, usize) {
        let (keys, runs) = (self.live()).fold((0, 0), |(k, n), (_, r)| (k + 1, n + r.len()));
        (keys, 2 * runs + self.state_times.len())
    }

    /// Dumps `(key, runs)` entries in deterministic order plus the recent
    /// state times.
    #[allow(clippy::type_complexity)] // the checkpoint codec's exact shape
    pub fn dump(&self) -> (Vec<(Tuple, Vec<(TimePoint, TimePoint)>)>, Vec<TimePoint>) {
        let mut entries: Vec<(Tuple, Vec<(TimePoint, TimePoint)>)> =
            self.live().map(|(k, r)| (k.clone(), r)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        (entries, self.state_times.iter().copied().collect())
    }

    /// Restores a dumped state; additive in the keyed entries.
    pub fn restore(
        &mut self,
        entries: Vec<(Tuple, Vec<(TimePoint, TimePoint)>)>,
        state_times: Vec<TimePoint>,
    ) {
        for (key, runs) in entries {
            self.slots.restore(key, runs.into());
        }
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

    /// Advances to the new state; `sat_now` is the operand's extension,
    /// `None` when it is the one the last state saw.
    pub fn step(&mut self, sat_now: Option<&Bindings>, t_now: TimePoint) {
        let holds = |key| sat_now.is_none_or(|sat| sat.contains(key));
        if let (false, Some(sat)) = (self.started, sat_now) {
            self.started = true;
            for row in sat.rows() {
                self.prefix_end.insert(row.clone(), t_now);
                self.active.insert(row.clone());
            }
        } else {
            let mut broken = Vec::new();
            for key in &self.active {
                if holds(key) {
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
    /// extension (which contains every active key).
    pub fn catch_up(&mut self, ticks: &[TimePoint]) {
        let Some((&t_new, earlier)) = ticks.split_last() else {
            return;
        };
        self.recent_times.extend(earlier);
        self.step(None, t_new);
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

    impl WindowState {
        /// Absorbs `sat` at `t` as a rebuild, the path a broken delta
        /// chain takes (`dropped`: `since` keys whose `f` failed).
        fn absorb(&mut self, sat: &Bindings, dropped: &[Tuple], t: TimePoint) {
            let prev = self.times.back().copied();
            self.advance(
                Change {
                    sat,
                    delta: None,
                    dropped,
                },
                prev,
                t,
            );
        }

        fn add_and_prune(&mut self, sat: &Bindings, t: TimePoint) {
            self.absorb(sat, &[], t);
        }

        /// The reference the index must match: every key's next change,
        /// scanned.
        fn next_change_scan(&self) -> TimePoint {
            let t = self.times.back().copied().unwrap_or_default();
            let keys = self.slots.map.values().map(|e| self.key_change(e, t));
            let open = self
                .times
                .back()
                .filter(|_| self.slots.open > 0 && self.interval.lo().0 > 0);
            let b = self.interval.hi().finite();
            let open = open.and_then(|t| Some(t.plus(b?).plus(Duration(1))));
            keys.chain(open).min().unwrap_or(NEVER)
        }
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
        let s = Stamps::Many(Box::new(VecDeque::from([
            TimePoint(1),
            TimePoint(3),
            TimePoint(7),
        ])));
        assert!(s.any_in(TimePoint(2), TimePoint(3)));
        assert!(!s.any_in(TimePoint(4), TimePoint(6)));
        assert_eq!(s.times().collect::<Vec<_>>().len(), 3);
        // A window keeps only the stamps some future window can still see.
        let i = Interval::bounded(1, 3).unwrap();
        let mut w = WindowState::new(i, v(), StampPolicy::Many);
        for (t, keys) in [(1, &["a"][..]), (3, &["a"]), (4, &[]), (7, &["a"])] {
            w.add_and_prune(&sat(&v(), keys), TimePoint(t));
        }
        assert_eq!(w.dump(), vec![(key("a"), vec![TimePoint(7)])]);
        w.add_and_prune(&sat(&v(), &[]), TimePoint(11));
        assert_eq!(w.space(), (0, 0), "everything pruned");
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
        assert_eq!(w.next_change(), TimePoint(12));
        w.add_and_prune(&gone, TimePoint(12));
        assert_eq!(w.next_change(), TimePoint(15));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(13));
        assert_eq!(w.next_change(), TimePoint(18));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(19));
        assert_eq!(w.next_change(), TimePoint(21));
        // a = 0: a key still in the operand is re-stamped at every state
        // and never leaves; one that left it ages out at s + b + 1.
        let i = Interval::up_to(3);
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a", "b"]), TimePoint(5));
        assert_eq!(w.next_change(), NEVER);
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(6));
        assert_eq!(w.next_change(), TimePoint(9));
        // b = ∞: in at s + a, then never out.
        let i = Interval::at_least(3);
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(5));
        w.add_and_prune(&gone, TimePoint(6));
        assert_eq!(w.next_change(), TimePoint(8));
        w.add_and_prune(&gone, TimePoint(8));
        assert_eq!(w.next_change(), NEVER);
    }

    // ---- since (via WindowState with retain) ----------------------------

    #[test]
    fn since_anchor_cleared_when_f_fails() {
        let i = Interval::all();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        // t=1: g holds for "a" -> anchor.
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        assert_eq!(w.extension(TimePoint(1)).len(), 1);
        // t=2: f holds (nothing dropped), no new anchor.
        w.add_and_prune(&sat(&v(), &[]), TimePoint(2));
        assert_eq!(w.extension(TimePoint(2)).len(), 1);
        // t=3: f fails -> all anchors die; no new anchor.
        w.absorb(&sat(&v(), &[]), &[key("a")], TimePoint(3));
        assert!(w.extension(TimePoint(3)).is_empty());
    }

    #[test]
    fn since_new_anchor_survives_f_failure() {
        // A key failing f but satisfying g at the same state anchors afresh.
        let i = Interval::all();
        let mut w = WindowState::new(i, v(), StampPolicy::for_interval(&i));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        // f fails, but g holds again.
        w.absorb(&sat(&v(), &["a"]), &[key("a")], TimePoint(2));
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
        h.step(&sat(&v(), &["a"]), None, TimePoint(1), None);
        assert!(h.holds(&key("a"), TimePoint(1)));
        h.step(&sat(&v(), &["a"]), None, TimePoint(2), Some(TimePoint(1)));
        assert!(h.holds(&key("a"), TimePoint(2)));
        // Miss a state.
        h.step(&sat(&v(), &[]), None, TimePoint(3), Some(TimePoint(2)));
        assert!(!h.holds(&key("a"), TimePoint(3)));
        // The gap ages out after bound ticks.
        h.step(&sat(&v(), &["a"]), None, TimePoint(5), Some(TimePoint(3)));
        h.step(&sat(&v(), &["a"]), None, TimePoint(7), Some(TimePoint(5)));
        assert!(
            h.holds(&key("a"), TimePoint(7)),
            "gap at t=3 now older than 3 ticks"
        );
    }

    #[test]
    fn hist_finite_vacuous_on_empty_window() {
        let i = Interval::bounded(3, 5).unwrap();
        let mut h = HistFiniteState::new(i, v());
        h.step(&sat(&v(), &[]), None, TimePoint(1), None);
        // At t=1 no state has age in [3,5]: vacuously true even for unseen keys.
        assert!(h.holds(&key("zzz"), TimePoint(1)));
        // At t=4 the state at t=1 enters the window: unseen key fails.
        h.step(&sat(&v(), &[]), None, TimePoint(4), Some(TimePoint(1)));
        assert!(!h.holds(&key("zzz"), TimePoint(4)));
    }

    #[test]
    fn hist_finite_never_seen_key_fails_nonempty_window() {
        let i = Interval::up_to(10);
        let mut h = HistFiniteState::new(i, v());
        h.step(&sat(&v(), &["a"]), None, TimePoint(1), None);
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
            h.step(&s, None, TimePoint(t), prev);
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
        h.step(&sat(&v(), &["a"]), None, TimePoint(base), None);
        h.step(
            &sat(&v(), &["a"]),
            None,
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
        h.step(Some(&sat(&v(), &["a"])), TimePoint(2));
        assert!(h.holds(&key("a")), "window empty this early");
    }

    // ---- hist, unbounded --------------------------------------------------

    #[test]
    fn hist_inf_prefix_semantics() {
        let i = Interval::at_least(0);
        let mut h = HistInfState::new(i, v());
        h.step(Some(&sat(&v(), &["a", "b"])), TimePoint(1));
        assert!(h.holds(&key("a")));
        h.step(Some(&sat(&v(), &["a"])), TimePoint(2));
        assert!(h.holds(&key("a")));
        assert!(!h.holds(&key("b")), "b broke its prefix");
        assert!(!h.holds(&key("c")), "never satisfied");
        // b can never recover.
        h.step(Some(&sat(&v(), &["a", "b"])), TimePoint(3));
        assert!(!h.holds(&key("b")));
        assert!(h.holds(&key("a")));
    }

    #[test]
    fn hist_inf_lower_bound_excludes_recent_states() {
        // hist[2,*]: the last 2 ticks don't count.
        let i = Interval::at_least(2);
        let mut h = HistInfState::new(i, v());
        h.step(Some(&sat(&v(), &["a"])), TimePoint(1));
        assert!(h.holds(&key("a")), "window empty at t=1");
        assert!(h.holds(&key("z")), "vacuous for everyone");
        // a fails at t=2, but at t=2 the window is still empty (1 > 2-2=0).
        h.step(Some(&sat(&v(), &[])), TimePoint(2));
        assert!(h.holds(&key("a")));
        // At t=3 the state at t=1 (age 2) enters the window; a held there.
        h.step(Some(&sat(&v(), &[])), TimePoint(3));
        assert!(h.holds(&key("a")), "prefix covers state@1");
        assert!(!h.holds(&key("z")));
        // At t=4 the state at t=2 (where a failed) enters the window.
        h.step(Some(&sat(&v(), &[])), TimePoint(4));
        assert!(!h.holds(&key("a")));
    }

    #[test]
    fn hist_inf_space_prunes_dead_keys() {
        let i = Interval::at_least(0);
        let mut h = HistInfState::new(i, v());
        h.step(Some(&sat(&v(), &["a", "b", "c"])), TimePoint(1));
        h.step(Some(&sat(&v(), &[])), TimePoint(2)); // everyone breaks
        h.step(Some(&sat(&v(), &[])), TimePoint(3));
        let (keys, _) = h.space();
        assert_eq!(keys, 0, "frozen entries below the query point are pruned");
    }

    // ---- the expiry index against brute force ----------------------------

    /// xorshift: the streams below need no RNG crate.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    const DOMAIN: [&str; 4] = ["a", "b", "c", "d"];

    /// A random stream over [`DOMAIN`]: gaps that cross every bound of
    /// `i` (and a clock near `u64::MAX` for some seeds), operand sets that
    /// churn, stay put, or empty out.
    fn stream(rng: &mut Rng, i: &Interval, len: usize) -> Vec<(TimePoint, Vec<&'static str>)> {
        let b = i.hi().finite().map_or(i.lo().0 + 3, |b| b.0);
        // Near `u64::MAX` the last states' deadlines saturate.
        let mut t = match rng.below(3) {
            0 => 0,
            1 => 1_000,
            _ => u64::MAX - (b + 5) * len as u64,
        };
        let mut keys: Vec<&str> = Vec::new();
        (0..len)
            .map(|_| {
                let gap = match rng.below(8) {
                    0 => b + 2 + rng.below(3),
                    1 => b.saturating_sub(i.lo().0) + 1,
                    _ => 1 + rng.below(2),
                };
                t += gap;
                if rng.below(4) != 0 {
                    keys = DOMAIN
                        .iter()
                        .copied()
                        .filter(|_| rng.below(3) == 0)
                        .collect();
                }
                (TimePoint(t), keys.clone())
            })
            .collect()
    }

    /// The re-stamping window the index replaced: every key's stamps,
    /// re-recorded at every state and pruned by visiting every key.
    #[derive(Default)]
    struct Restamping(std::collections::BTreeMap<Tuple, Vec<TimePoint>>);

    impl Restamping {
        fn step(
            &mut self,
            i: &Interval,
            policy: StampPolicy,
            sat: &[&str],
            dropped: &[Tuple],
            t: TimePoint,
        ) {
            for k in dropped {
                self.0.remove(k);
            }
            for k in sat {
                let stamps = self.0.entry(key(k)).or_default();
                match policy {
                    StampPolicy::Many => stamps.push(t),
                    StampPolicy::Latest if i.is_bounded() => *stamps = vec![t],
                    _ if stamps.is_empty() => stamps.push(t),
                    _ => {}
                }
            }
            if let Some(b) = i.hi().finite() {
                let cutoff = t.minus(b).unwrap_or(TimePoint(0));
                self.0.retain(|_, s| {
                    s.retain(|&x| x >= cutoff);
                    !s.is_empty()
                });
            }
        }

        fn satisfied(&self, i: &Interval, k: &Tuple, t: TimePoint) -> bool {
            let Some((lo, hi)) = i.window_at(t) else {
                return false;
            };
            self.0
                .get(k)
                .is_some_and(|s| s.iter().any(|&x| x >= lo && x <= hi))
        }

        /// The deadline the old per-key scan computed.
        fn next_change(&self, i: &Interval, sat: &[&str], t: TimePoint) -> TimePoint {
            let aging = self
                .0
                .iter()
                .filter(|(k, _)| !(i.lo().0 == 0 && sat.iter().any(|s| key(s) == **k)));
            let changes = aging.map(|(_, s)| stamps_change(s.iter().copied(), i, t));
            changes.min().unwrap_or(NEVER)
        }
    }

    #[test]
    fn the_expiry_index_agrees_with_re_stamping_every_state() {
        let intervals = [
            Interval::up_to(0),
            Interval::up_to(3),
            Interval::exactly(2),
            Interval::bounded(1, 4).unwrap(),
            Interval::bounded(2, 6).unwrap(),
            Interval::at_least(2),
            Interval::all(),
        ];
        for (n, i) in intervals.iter().enumerate() {
            let policies = [StampPolicy::for_interval(i), StampPolicy::Many];
            let policies = if i.is_bounded() {
                &policies[..]
            } else {
                &policies[..1]
            };
            for (&policy, seed) in policies
                .iter()
                .flat_map(|p| (0..60u64).map(move |s| (p, s)))
            {
                let mut rng = Rng(0x9e37_79b9 ^ (seed * 977 + n as u64 * 31));
                let since = seed % 3 == 0;
                let mut w = WindowState::new(*i, v(), policy);
                w.keep_extension();
                let mut old = Restamping::default();
                let (mut prev, mut t_prev): (Vec<&str>, Option<TimePoint>) = (Vec::new(), None);
                for (t, keys) in stream(&mut rng, i, 30) {
                    // `since`: keys whose maintained formula fails lose
                    // every anchor.
                    let dropped: Vec<Tuple> = match since {
                        true => old
                            .0
                            .keys()
                            .filter(|_| rng.below(4) == 0)
                            .cloned()
                            .collect(),
                        false => Vec::new(),
                    };
                    let was: Vec<bool> = DOMAIN
                        .iter()
                        .map(|k| old.satisfied(i, &key(k), t_prev.unwrap_or_default()))
                        .collect();
                    old.step(i, policy, &keys, &dropped, t);
                    let now = sat(&v(), &keys);
                    let added: Vec<Tuple> = keys
                        .iter()
                        .filter(|k| !prev.contains(k))
                        .map(|k| key(k))
                        .collect();
                    let removed: Vec<Tuple> = prev
                        .iter()
                        .filter(|k| !keys.contains(k))
                        .map(|k| key(k))
                        .collect();
                    let delta = (rng.below(5) != 0).then_some((&added[..], &removed[..]));
                    w.advance(
                        Change {
                            sat: &now,
                            delta,
                            dropped: &dropped,
                        },
                        t_prev,
                        t,
                    );
                    let ctx = format!("{i} {policy:?} seed {seed} at {t}");
                    assert_eq!(
                        w.dump(),
                        old.0
                            .iter()
                            .map(|(k, s)| (k.clone(), s.clone()))
                            .collect::<Vec<_>>(),
                        "{ctx}"
                    );
                    assert_eq!(
                        w.next_change(),
                        old.next_change(i, &keys, t),
                        "deadline, {ctx}"
                    );
                    assert_eq!(w.next_change(), w.next_change_scan(), "scan, {ctx}");
                    let flips = w.flips();
                    for (k, was) in DOMAIN.iter().zip(was) {
                        let now = old.satisfied(i, &key(k), t);
                        assert_eq!(w.satisfied(&key(k), t), now, "{k}, {ctx}");
                        assert_eq!(
                            w.extension(t).contains(&key(k)),
                            now,
                            "extension {k}, {ctx}"
                        );
                        if t_prev.is_some() && now != was && flips.from.is_some() {
                            assert!(
                                flips.keys.iter().any(|f| **f == key(k)),
                                "unpublished flip {k}, {ctx}"
                            );
                        }
                    }
                    // A rebuild publishes flips too; only a restore
                    // leaves them unknown.
                    assert_eq!(flips.from, Some(flips.epoch - 1), "{ctx}");
                    (prev, t_prev) = (keys, Some(t));
                }
            }
        }
    }

    /// The run-extending `hist[a,b]` state the index replaced: every
    /// operand key's last run stretched by hand, every key pruned by a
    /// visit.
    #[derive(Default)]
    struct Stretching {
        runs: std::collections::BTreeMap<Tuple, Vec<(TimePoint, TimePoint)>>,
        times: Vec<TimePoint>,
    }

    impl Stretching {
        fn step(&mut self, b: Duration, sat: &[&str], t: TimePoint, prev: Option<TimePoint>) {
            for k in sat {
                let runs = self.runs.entry(key(k)).or_default();
                match (runs.last_mut(), prev) {
                    (Some(last), Some(p)) if last.1 == p => last.1 = t,
                    _ => runs.push((t, t)),
                }
            }
            self.times.push(t);
            let cutoff = t.minus(b).unwrap_or(TimePoint(0));
            self.times.retain(|&x| x >= cutoff);
            self.runs.retain(|_, r| {
                r.retain(|&(_, e)| e >= cutoff);
                !r.is_empty()
            });
        }

        fn holds(&self, i: &Interval, k: &Tuple, t: TimePoint) -> bool {
            let Some((lo, hi)) = i.window_at(t) else {
                return true;
            };
            let runs = self.runs.get(k).map_or(&[][..], Vec::as_slice);
            let covered = |x: TimePoint| runs.iter().any(|&(s, e)| s <= x && x <= e);
            self.times
                .iter()
                .filter(|&&x| x >= lo && x <= hi)
                .all(|&x| covered(x))
        }

        /// The deadline the old per-state scan computed.
        fn next_change(&self, i: &Interval, sat: &[&str], t: TimePoint) -> TimePoint {
            if i.lo().0 == 0 && sat.iter().all(|k| self.holds(i, &key(k), t)) {
                return NEVER;
            }
            let b = i.hi().finite().expect("finite");
            let leave = self.times.first().map(|s| s.plus(b).plus(Duration(1)));
            let enter = self.times.iter().map(|s| s.plus(i.lo())).find(|&e| e > t);
            leave.into_iter().chain(enter).min().unwrap_or(NEVER)
        }
    }

    #[test]
    fn the_hist_index_agrees_with_stretching_every_run() {
        for (n, i) in [
            Interval::up_to(0),
            Interval::up_to(3),
            Interval::exactly(2),
            Interval::bounded(1, 4).unwrap(),
            Interval::bounded(2, 6).unwrap(),
        ]
        .iter()
        .enumerate()
        {
            let b = i.hi().finite().expect("finite");
            for seed in 0..80u64 {
                let mut rng = Rng(0x5151_7a7a ^ (seed * 1013 + n as u64 * 37));
                let mut h = HistFiniteState::new(*i, v());
                let mut old = Stretching::default();
                let (mut prev, mut t_prev): (Vec<&str>, Option<TimePoint>) = (Vec::new(), None);
                for (t, keys) in stream(&mut rng, i, 30) {
                    let was: Vec<bool> = DOMAIN
                        .iter()
                        .map(|k| old.holds(i, &key(k), t_prev.unwrap_or_default()))
                        .collect();
                    old.step(b, &keys, t, t_prev);
                    let now = sat(&v(), &keys);
                    let added: Vec<Tuple> = keys
                        .iter()
                        .filter(|k| !prev.contains(k))
                        .map(|k| key(k))
                        .collect();
                    let removed: Vec<Tuple> = prev
                        .iter()
                        .filter(|k| !keys.contains(k))
                        .map(|k| key(k))
                        .collect();
                    let delta = (rng.below(5) != 0).then_some((&added[..], &removed[..]));
                    h.step(&now, delta, t, t_prev);
                    let ctx = format!("{i} seed {seed} at {t}");
                    let dump: Vec<_> = old
                        .runs
                        .iter()
                        .map(|(k, r)| (k.clone(), r.clone()))
                        .collect();
                    assert_eq!(h.dump(), (dump, old.times.clone()), "{ctx}");
                    assert_eq!(
                        h.next_change(t),
                        old.next_change(i, &keys, t),
                        "deadline, {ctx}"
                    );
                    let flips = h.flips();
                    for (k, was) in DOMAIN.iter().zip(was) {
                        let now = old.holds(i, &key(k), t);
                        assert_eq!(h.holds(&key(k), t), now, "{k}, {ctx}");
                        if t_prev.is_some() && now != was && flips.from.is_some() {
                            assert!(
                                flips.keys.iter().any(|f| **f == key(k)),
                                "unpublished flip {k}, {ctx}"
                            );
                        }
                    }
                    (prev, t_prev) = (keys, Some(t));
                }
            }
        }
    }
}
