//! Bounded history encoding: the per-subformula auxiliary state.
//!
//! For every temporal subformula the incremental checker keeps a small
//! amount of state, updated at each transition from (a) the previous state
//! of the encoding and (b) the operand extensions at the *new* state only.
//! No past database state is ever consulted — this is the paper's central
//! construction, and the size of the state per live key is bounded by the
//! subformula's metric bound, independent of history length.
//!
//! `once[a,b] g`, `f since[a,b] g` and `hist[a,b] g` keep one structure, a
//! [`RunRelation`]: per key, the maximal *runs* of consecutive states on
//! which the operand held (`since`: on which `g` anchored the key) — closed
//! runs plus at most one open run, whose end is the node's newest state —
//! beside one deque of recent state times. The operator only picks the
//! predicate over them, for the window `[t − b, t − a]`:
//!
//! * `once`, `since`: some state in the window is covered by a run;
//! * `hist`: every state in the window is (vacuously so when it holds
//!   none); with `b = ∞` only a run from the first state is kept, and it
//!   must reach the newest state the window holds.
//!
//! A key keeps what a window can still see — its runs ending in the last
//! `b` ticks; under `once` with `a = 0` its newest run, with `b = ∞` its
//! first — so it costs at most `b + 1` stamps on an integer clock.
//!
//! A step pays for what changed, not for what is stored: the operand's row
//! delta opens and closes runs, and a key that stays in its operand is not
//! visited. An *expiry index* files each key by when its verdict can next
//! move — a run counting from `start + a` and leaving at `end + b + 1`; for
//! `hist`, a missed state failing the key from `+ a` and clearing at
//! `+ b + 1` — so pruning pops what is due, the node's next deadline is an
//! O(1) read, and each advance publishes the keys whose verdict may have
//! flipped (with an epoch) for the probes and extensions that read the
//! node. `space` and the checkpoint codec read a view over the runs: the
//! stamps re-stamping every state would have stored.
//!
//! `prev[a,b] g` keeps the operand's extension at the previous state.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::iter::once;
use std::sync::Arc;

use rtic_relation::{FastMap, Tuple};
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
    /// Every `+ b + 1` deadline is filed one tick late.
    LateExpiry,
    /// A run stays open after its key left the operand.
    OpenRun,
}

/// A run `(start, end)` of consecutive states.
pub type Run = (TimePoint, TimePoint);

/// The earliest time after `t` at which "some stamp of `stamps` (ascending)
/// lies in `interval`'s window" can flip if no stamp is added: a stamp `s`
/// satisfies the window over `[s + a, s + b]`, so the answer holds to the
/// end of the contiguous stretch containing `t`, or fails until the next
/// stamp ages `a`. Once the stretch reaches `until`, some time after
/// `until` stands for the answer.
fn stamps_change(
    stamps: impl Iterator<Item = TimePoint>,
    interval: &Interval,
    t: TimePoint,
    until: TimePoint,
) -> TimePoint {
    let mut held_to: Option<TimePoint> = None;
    for s in stamps {
        let enter = s.plus(interval.lo());
        let leave = interval.hi().finite().map_or(NEVER, |b| s.plus(b));
        match held_to {
            None if leave < t => {}
            None if enter > t => return enter,
            Some(end) if enter > end.plus(Duration(1)) => break,
            _ if leave >= until => return leave.plus(Duration(1)),
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

/// One key's runs, oldest first: closed ones, then the newest, which is
/// open while the key is in the operand — its end the node's newest
/// state, stored as `NEVER` (no state follows `NEVER`, so no closed run
/// ends there).
#[derive(Clone, Debug)]
struct Slot {
    /// Closed runs before `last` (boxed: most keys keep one run).
    #[allow(clippy::box_collection)]
    older: Option<Box<Vec<Run>>>,
    last: Run,
}

impl Slot {
    fn open(&self) -> bool {
        self.last.1 == NEVER
    }

    /// Starts a new open run at `t`, keeping the earlier runs that end at
    /// or after `keep`.
    fn reopen(&mut self, t: TimePoint, keep: TimePoint) {
        if let Some(older) = &mut self.older {
            older.retain(|r| r.1 >= keep);
        }
        if self.last.1 >= keep {
            self.older.get_or_insert_with(Box::default).push(self.last);
        }
        if self.older.as_ref().is_some_and(|o| o.is_empty()) {
            self.older = None;
        }
        self.last = (t, NEVER);
    }
}

/// Auxiliary state of a `once[I] g`, `f since[I] g` or `hist[I] g` node:
/// the run relation of the module docs.
///
/// The expiry index is three queues, each in time order because states
/// arrive in time order: `enter` (`t + a` of a state `t`: a run starting
/// there counts from then; under `hist`, a state a closing run missed
/// fails its key from then), `leave` (`end + b + 1`: a closed run leaves
/// every window) and `clear` (`hist`: `+ b + 1` of the state missed just
/// before a run, after which the key may hold). A gap in the clock that a
/// `once` window can fall into files both its edges for every run spanning
/// it, so a key's verdict only moves at its filed times — and, while it is
/// open, when the newest state leaves the window.
#[derive(Clone, Debug)]
pub struct RunRelation {
    interval: Interval,
    hist: bool,
    vars: Vec<Var>,
    keys: FastMap<Key, Slot>,
    /// Open runs.
    open: usize,
    /// Recent state times, ascending: those of the last `b` ticks, or with
    /// `b = ∞` the newest one at least `a` old and every later one.
    times: VecDeque<TimePoint>,
    enter: Queue,
    leave: Queue,
    clear: Queue,
    /// Restored runs the index does not cover yet.
    unindexed: bool,
    /// The keys whose verdict the last advance may have flipped — every
    /// key it touched or found due; a superset, so a reader re-tests each
    /// — under the epoch that advance bumped, and the epoch they lead from
    /// (`None`: every key may have flipped).
    flipped: Vec<Key>,
    epoch: u64,
    from: Option<u64>,
    /// The extension, maintained from the flips once something joins it.
    ext: Option<Bindings>,
    bug: Option<IndexBug>,
}

impl RunRelation {
    /// Fresh state for a `hist` (else `once`/`since`) node with sorted
    /// free variables `vars`.
    pub fn new(interval: Interval, vars: Vec<Var>, hist: bool) -> RunRelation {
        RunRelation {
            interval,
            hist,
            vars,
            keys: FastMap::default(),
            open: 0,
            times: VecDeque::new(),
            enter: VecDeque::new(),
            leave: VecDeque::new(),
            clear: VecDeque::new(),
            unindexed: false,
            flipped: Vec::new(),
            epoch: 0,
            from: None,
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
        self.keys.keys().map(|k| &**k)
    }

    /// Whether `key` has a run stored.
    pub fn has_key(&self, key: &Tuple) -> bool {
        self.keys.contains_key(key)
    }

    /// From now on keep the extension as a row set updated from the flips
    /// (for nodes a plan joins rather than probes).
    pub(crate) fn keep_extension(&mut self) {
        let now = self.times.back().copied();
        self.ext = Some(now.map_or_else(|| Bindings::none(self.vars.clone()), |t| self.scan(t)));
    }

    /// Plants `bug` (mutation smoke).
    pub(crate) fn arm(&mut self, bug: IndexBug) {
        self.bug = Some(bug);
    }

    /// `t + b + 1`, when a state at `t` leaves every window (`None` with
    /// `b = ∞`).
    fn gone(&self, t: TimePoint) -> Option<TimePoint> {
        let late = u64::from(self.bug == Some(IndexBug::LateExpiry));
        let b = self.interval.hi().finite()?;
        Some(t.plus(b).plus(Duration(1 + late)))
    }

    /// The relation as it reads now.
    fn view(&self) -> RunView<'_> {
        let times = Cow::Borrowed(&self.times);
        RunView { rel: self, times }
    }

    /// The relation as absorbing the deferred `ticks` would leave it: a
    /// catch-up moves only the state times (and files gaps in the index,
    /// which no view reads), so the view copies those and borrows the keys.
    pub fn settled(&self, ticks: impl ExactSizeIterator<Item = TimePoint>) -> RunView<'_> {
        let mut times = Cow::Borrowed(&self.times);
        if ticks.len() > 0 {
            let caught_up = times.to_mut();
            caught_up.extend(ticks);
            prune_times(&self.interval, self.hist, caught_up);
        }
        RunView { rel: self, times }
    }

    /// Whether the window at `t` holds none of the recent states.
    fn vacuous(&self, t: TimePoint) -> bool {
        let Some((lo, hi)) = self.interval.window_at(t) else {
            return true;
        };
        let first = self.times.partition_point(|&s| s < lo);
        self.times.get(first).is_none_or(|&s| s > hi)
    }

    /// When the key's verdict next changes after `t` with the operand
    /// unchanged (an open key of an `a = 0` window never does) — or some
    /// time after `until`, if that is later.
    fn key_change(&self, key: &Tuple, t: TimePoint, until: TimePoint) -> TimePoint {
        match self.keys.get(key) {
            Some(s) if !(s.open() && self.interval.lo().0 == 0) => {
                stamps_change(self.view().stamps(s), &self.interval, t, until)
            }
            _ => NEVER,
        }
    }

    /// Whether the run `(s, e)` covers a state of `[lo, hi]`: an endpoint
    /// inside, or a recent state between them (all of which it covers).
    fn covers(&self, (s, e): Run, lo: TimePoint, hi: TimePoint) -> bool {
        let inner = || {
            let first = self.times.get(self.times.partition_point(|&x| x < lo));
            first.is_some_and(|&x| x <= hi)
        };
        s <= hi && e >= lo && (s >= lo || e <= hi || inner())
    }

    /// Whether the node holds for `key` at `t`, the newest state: some
    /// state of the window is covered by one of its runs (`once`,
    /// `since`), or every one is (`hist`, vacuously when it holds none).
    pub fn holds(&self, key: &Tuple, t: TimePoint) -> bool {
        let Some((lo, hi)) = self.interval.window_at(t) else {
            return self.hist;
        };
        let slot = self.keys.get(key);
        if !self.hist {
            return slot.is_some_and(|s| self.view().runs(s).any(|r| self.covers(r, lo, hi)));
        }
        let mut runs = slot
            .into_iter()
            .flat_map(|s| self.view().runs(s))
            .peekable();
        let first = self.times.partition_point(|&s| s < lo);
        let mut window = self.times.range(first..).take_while(|&&s| s <= hi);
        window.all(|&s| {
            while runs.next_if(|&(_, e)| e < s).is_some() {}
            runs.peek().is_some_and(|&(start, _)| start <= s)
        })
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
        let entries = self.keys.iter();
        let gone = entries.filter(|(k, s)| s.open() && !sat.contains(k));
        let gone: Vec<Tuple> = gone.map(|(k, _)| Tuple::clone(k)).collect();
        let fresh = |k: &&Tuple| !self.keys.get(*k).is_some_and(Slot::open);
        (gone.into(), sat.rows().filter(fresh).collect())
    }

    /// Files a run of `key` starting at `start`, after the state `before`.
    fn file_open(&mut self, key: Key, start: TimePoint, before: Option<TimePoint>) {
        match self.hist {
            false => (self.enter).push_back((start.plus(self.interval.lo()), key)),
            true => {
                let clear = before.and_then(|p| self.gone(p));
                self.clear.extend(clear.map(|d| (d, key)));
            }
        }
    }

    /// Files a run of `key` ending at `end`, whose key missed the state
    /// `after`.
    fn file_close(&mut self, key: Key, end: TimePoint, after: Option<TimePoint>) {
        if let Some(m) = after.filter(|_| self.hist) {
            (self.enter).push_back((m.plus(self.interval.lo()), Arc::clone(&key)));
        }
        let leave = self.gone(end);
        self.leave.extend(leave.map(|d| (d, key)));
    }

    /// Closes `key`'s open run at `t_prev`, its last state.
    fn close(&mut self, key: &Tuple, t_prev: TimePoint, t_now: TimePoint) {
        let open = self.keys.get_key_value(key).filter(|(_, s)| s.open());
        let Some(shared) = open.map(|(k, _)| Arc::clone(k)) else {
            return;
        };
        if self.bug == Some(IndexBug::OpenRun) {
            return;
        }
        if let Some(s) = self.keys.get_mut(key) {
            s.last.1 = t_prev;
        }
        self.open -= 1;
        self.file_close(shared, t_prev, Some(t_now));
    }

    /// Opens a run for `key` at `t_now` — unless it holds one, keeps its
    /// first run (`b = ∞`), or began after the first state, which it
    /// missed for good (`hist[a,∞]`).
    fn open(&mut self, key: &Tuple, t_prev: Option<TimePoint>, t_now: TimePoint) {
        let unbounded = !self.interval.is_bounded();
        // `once` with `a = 0` answers from its newest run alone.
        let keep = match self.hist || self.interval.lo().0 > 0 {
            true => self.view().cutoff(t_now),
            false => NEVER,
        };
        let shared = match self.keys.get_key_value(key) {
            Some((_, s)) if s.open() || unbounded => return,
            None if self.hist && unbounded && t_prev.is_some() => return,
            Some((k, _)) => Arc::clone(k),
            None => Arc::new(key.clone()),
        };
        match self.keys.get_mut(key) {
            Some(s) => s.reopen(t_now, keep),
            None => {
                let (older, last) = (None, (t_now, NEVER));
                self.keys.insert(Arc::clone(&shared), Slot { older, last });
            }
        }
        self.open += 1;
        self.file_open(shared, t_now, t_prev);
    }

    /// Drops `key`, returning it if it was stored.
    fn remove(&mut self, key: &Tuple) -> Option<Key> {
        let (k, s) = self.keys.remove_entry(key)?;
        self.open -= usize::from(s.open());
        Some(k)
    }

    /// A clock gap from `p` to `t` that a `once`/`since` window (`a > 0`,
    /// `b` finite) can fall between: every open run spanning it stops
    /// counting at `p + b + 1` and counts again from `t + a`.
    fn split(&mut self, p: TimePoint, t: TimePoint) {
        let (a, b) = (self.interval.lo().0, self.interval.hi().finite());
        let wide = b.is_some_and(|b| t.0 - p.0 >= b.0 - a + 2);
        if self.hist || a == 0 || !wide {
            return;
        }
        let open = self.keys.iter().filter(|(_, s)| s.open());
        let open: Vec<Key> = open.map(|(k, _)| Arc::clone(k)).collect();
        for k in open {
            self.file_close(Arc::clone(&k), p, None);
            self.file_open(k, t, None);
        }
    }

    /// Absorbs the new state `t_now` (`t_prev` the one before it, if any)
    /// where the operand's extension is `sat` (`since`: the anchors):
    /// drops the `dropped` keys (`since`: their maintained formula failed,
    /// so they lose every anchor before `sat` anchors afresh), closes and
    /// opens runs by `delta` — the operand's net `(added, removed)` rows
    /// since the last absorbed state, when its producer recorded them;
    /// `None` compares the open runs with `sat`, O(keys) — pops the index
    /// entries due and publishes the keys whose verdict may have flipped.
    /// O(|delta| + |due|), or O(keys) for a rebuild.
    pub fn advance(
        &mut self,
        sat: &Bindings,
        delta: Option<(&[Tuple], &[Tuple])>,
        dropped: &[Tuple],
        t_prev: Option<TimePoint>,
        t_now: TimePoint,
    ) {
        debug_assert_eq!(sat.vars(), self.vars.as_slice());
        let restored = self.reindex();
        let (closing, opening) = self.changes(sat, delta);
        let anchored = dropped.iter().filter(|k| sat.contains(k));
        let was_vacuous = t_prev.filter(|_| self.hist).map(|p| self.vacuous(p));
        let mut cand: Vec<Key> = (dropped.iter()).filter_map(|k| self.remove(k)).collect();
        if let Some(p) = t_prev {
            for k in closing.iter() {
                self.close(k, p, t_now);
            }
            self.split(p, t_now);
        }
        self.times.push_back(t_now);
        prune_times(&self.interval, self.hist, &mut self.times);
        for k in opening.into_iter().chain(anchored) {
            self.open(k, t_prev, t_now);
        }
        for queue in [&mut self.enter, &mut self.leave, &mut self.clear] {
            pop_due(queue, t_now, &mut cand);
        }
        let cutoff = self.view().cutoff(t_now);
        for k in &cand {
            if (self.keys.get(&**k)).is_some_and(|s| s.last.1 < cutoff) {
                self.remove(k);
            }
        }
        // A restore publishes no flips — every key may have flipped — nor
        // does a `hist` window that turned vacuous or stopped being so.
        let known = !restored && was_vacuous.is_none_or(|v| v == self.vacuous(t_now));
        if let Some(mut ext) = self.ext.take() {
            match known {
                true => {
                    let now: Vec<bool> = cand.iter().map(|k| self.holds(k, t_now)).collect();
                    ext.set_rows(cand.iter().map(|k| &**k).zip(now));
                }
                false => ext = self.scan(t_now),
            }
            self.ext = Some(ext);
        }
        self.epoch += 1;
        self.from = known.then_some(self.epoch - 1);
        self.flipped = if known { cand } else { Vec::new() };
        self.settle(t_now);
    }

    /// Files every restored run as if it had opened after the state before
    /// it and closed missing the state after it — a superset of the change
    /// points; [`RunRelation::settle`] drops the rest. Returns whether
    /// there was anything restored.
    fn reindex(&mut self) -> bool {
        if !std::mem::take(&mut self.unindexed) {
            return false;
        }
        // What is due by the newest state has moved its verdict already:
        // a `once`/`since` run files nothing else (`hist` may, from the
        // states around the run).
        let (now, a) = (self.times.back().copied(), self.interval.lo());
        let ahead = |&(_, (start, end), closed): &(&Key, Run, bool)| {
            let leave = self.gone(end).filter(|_| closed);
            self.hist || Some(start.plus(a)) > now || leave > now
        };
        let runs = self.keys.iter().flat_map(|(k, s)| {
            let n = s.older.as_ref().map_or(0, |o| o.len());
            (self.view().runs(s).enumerate()).map(move |(i, r)| (k, r, !(s.open() && i == n)))
        });
        let runs: Vec<(Key, Run, bool)> = (runs.filter(ahead))
            .map(|(k, r, closed)| (Arc::clone(k), r, closed))
            .collect();
        for (k, (start, end), closed) in runs {
            let before = self.times.partition_point(|&x| x < start).checked_sub(1);
            self.file_open(
                Arc::clone(&k),
                start,
                before.and_then(|i| self.times.get(i).copied()),
            );
            if closed {
                let after = self.times.get(self.times.partition_point(|&x| x <= end));
                self.file_close(k, end, after.copied());
            }
        }
        for queue in [&mut self.enter, &mut self.leave, &mut self.clear] {
            queue.retain(|(d, _)| Some(*d) > now);
            queue.make_contiguous().sort_unstable_by_key(|(d, _)| *d);
        }
        true
    }

    /// Drops index entries that no longer mark a change at their front:
    /// under `once`/`since` one whose key's verdict next moves later, so
    /// the fronts answer [`RunRelation::next_change`] exactly; under
    /// `hist[0,b]` a `clear` entry whose key left the operand — it fails
    /// at every state.
    fn settle(&mut self, t: TimePoint) {
        if self.hist {
            let closed = |k: &Key| !self.keys.get(k).is_some_and(Slot::open);
            let a0 = self.interval.lo().0 == 0;
            while a0 && self.clear.front().is_some_and(|(_, k)| closed(k)) {
                self.clear.pop_front();
            }
            return;
        }
        while (self.enter.front()).is_some_and(|(d, k)| self.key_change(k, t, *d) > *d) {
            self.enter.pop_front();
        }
        while (self.leave.front()).is_some_and(|(d, k)| self.key_change(k, t, *d) > *d) {
            self.leave.pop_front();
        }
    }

    /// Absorbs the deferred states `ticks` (ascending) over an unchanged
    /// operand: open runs extend by derivation, so only the state times
    /// move (and a gap a window can fall into is filed). No verdict
    /// changes before the deadline that let them defer.
    pub fn catch_up(&mut self, ticks: &[TimePoint]) {
        for &t in ticks {
            if let Some(&p) = self.times.back() {
                self.split(p, t);
            }
            self.times.push_back(t);
        }
        prune_times(&self.interval, self.hist, &mut self.times);
    }

    /// The earliest time after the newest state `t` at which
    /// [`RunRelation::holds`] can differ for some key while the operand
    /// extension stays put. `once`/`since`: the index's fronts, plus the
    /// moment the newest state would leave an open run's window — O(1).
    /// `hist`: conservatively, when a recent state next enters (`+ a`) or
    /// leaves (`+ b + 1`) the window — unless nothing can move: with
    /// `a = 0` no open key waits for a missed state to clear, with
    /// `b = ∞` the window holds a state and no broken run waits to fail.
    pub fn next_change(&self, t: TimePoint) -> TimePoint {
        let a = self.interval.lo();
        if self.hist {
            let quiet = match self.interval.is_bounded() {
                true => a.0 == 0 && self.clear.is_empty(),
                false => !self.vacuous(t) && self.enter.is_empty(),
            };
            let next = self.times.partition_point(|s| s.plus(a) <= t);
            let enter = self.times.get(next).map(|s| s.plus(a));
            let leave = self.times.front().and_then(|&s| self.gone(s));
            let change = enter.into_iter().chain(leave).min();
            return change.filter(|_| !quiet).unwrap_or(NEVER);
        }
        let fronts = [self.enter.front(), self.leave.front()];
        let queued = fronts.into_iter().flatten().map(|(d, _)| *d);
        let newest = self.times.back().filter(|_| self.open > 0 && a.0 > 0);
        queued
            .chain(newest.and_then(|&s| self.gone(s)))
            .min()
            .unwrap_or(NEVER)
    }

    /// The keys the last advance flipped (see [`Flips`]).
    pub fn flips(&self) -> Flips<'_> {
        Flips {
            epoch: self.epoch,
            from: self.from,
            keys: &self.flipped,
        }
    }

    /// The node's extension at `t_now`, the last absorbed state: the keys
    /// it holds for — the maintained row set (same version while no
    /// verdict flips) when one is kept.
    pub fn extension(&self, t_now: TimePoint) -> Bindings {
        self.ext.clone().unwrap_or_else(|| self.scan(t_now))
    }

    /// The extension at `t_now`, by visiting every key.
    fn scan(&self, t_now: TimePoint) -> Bindings {
        let keys = self.keys.keys().filter(|k| self.holds(k, t_now));
        Bindings::from_rows(self.vars.clone(), keys.map(|k| Tuple::clone(k)))
    }

    /// Restores a checkpointed node's recent state times (a `once`/`since`
    /// block has none; they read as `time`, the section's newest state),
    /// before its keys. The index is rebuilt on the next advance.
    pub fn restore_times(&mut self, times: Vec<TimePoint>, time: Option<TimePoint>) {
        self.times = match times.is_empty() {
            true => time.into_iter().collect(),
            false => times.into(),
        };
        self.unindexed = true;
    }

    /// Restores one key's runs — ascending, disjoint, ending by `time` —
    /// additively in the keys; a key whose last run ends at `time` is in
    /// the operand.
    pub fn restore(&mut self, key: Tuple, runs: impl Iterator<Item = Run>, time: TimePoint) {
        let (mut older, mut last) = (Vec::new(), None);
        for run in runs {
            older.extend(last.replace(run));
        }
        let Some((start, end)) = last else { return };
        let last = (start, if end == time { NEVER } else { end });
        let older = (!older.is_empty()).then(|| Box::new(older));
        let slot = Slot { older, last };
        self.open += usize::from(slot.open());
        let replaced = self.keys.insert(Arc::new(key), slot);
        self.open -= replaced.map_or(0, |s| usize::from(s.open()));
    }
}

/// Drops the state times no window of `interval` can see again: those
/// before the last `b` ticks, or (`b = ∞`) before the newest one `a` old —
/// and all but the newest under a `once`/`since` with `a = 0` or `b = ∞`,
/// whose stamps are its runs' ends.
fn prune_times(interval: &Interval, hist: bool, times: &mut VecDeque<TimePoint>) {
    let Some(&t) = times.back() else { return };
    let (b, older) = (interval.hi().finite(), t.minus(interval.lo()));
    let cutoff = b.map(|b| t.minus(b).unwrap_or(TimePoint(0)));
    let newest = !hist && (interval.lo().0 == 0 || b.is_none());
    while match cutoff {
        _ if newest => times.len() > 1,
        Some(cutoff) => times.front().is_some_and(|&s| s < cutoff),
        None => times.get(1).is_some_and(|&s| Some(s) <= older),
    } {
        times.pop_front();
    }
}

/// A run relation's keys read against its state times, or those a
/// catch-up would leave ([`RunRelation::settled`]).
pub struct RunView<'a> {
    rel: &'a RunRelation,
    times: Cow<'a, VecDeque<TimePoint>>,
}

impl<'a> RunView<'a> {
    /// The oldest state a window at or after `t` can still see — under
    /// `hist[a,∞]`, the newest state the window holds, which a broken run
    /// must reach. A closed key whose last run ends before it answers as
    /// an absent key from then on.
    fn cutoff(&self, t: TimePoint) -> TimePoint {
        match self.rel.interval.window_at(t) {
            Some((lo, _)) if self.rel.interval.is_bounded() => lo,
            Some((_, hi)) if self.rel.hist => {
                let older = self.times.front().filter(|&&s| s <= hi);
                older.copied().unwrap_or(TimePoint(0))
            }
            _ => TimePoint(0),
        }
    }

    /// The key's runs, ascending, the open one ending at the newest state.
    fn runs<'s>(&self, slot: &'s Slot) -> impl Iterator<Item = Run> + 's {
        let newest = self.times.back().copied().filter(|_| slot.open());
        let last = (slot.last.0, newest.unwrap_or(slot.last.1));
        let older = slot.older.as_deref().map_or(&[][..], Vec::as_slice);
        older.iter().copied().chain(once(last))
    }

    /// The runs that carry a key's stamps: all of them, but under `a = 0`
    /// only the newest's end and under `b = ∞` only the first's start.
    fn spans<'s>(&self, slot: &'s Slot) -> impl Iterator<Item = Run> + 's {
        let (a, bounded) = (self.rel.interval.lo().0, self.rel.interval.is_bounded());
        let last = slot.older.as_ref().map_or(0, |o| o.len());
        let runs = self.runs(slot).enumerate();
        runs.filter_map(move |(i, (s, e))| match (a == 0, bounded) {
            (_, false) => (i == 0).then_some((s, s)),
            (true, true) => (i == last).then_some((e, e)),
            _ => Some((s, e)),
        })
    }

    /// The key's stamps, ascending, as re-stamping every state would have
    /// stored them, but with a run no wider than `b − a + 1` ticks giving
    /// just its start and end, whose windows join up with those of every
    /// stamp between.
    fn stamps<'s>(&'s self, slot: &'s Slot) -> impl Iterator<Item = TimePoint> + 's {
        let a = self.rel.interval.lo().0;
        let span = self.rel.interval.hi().finite().map(|b| b.0 - a + 1);
        let after = |x: TimePoint| self.times.partition_point(|&y| y <= x);
        self.spans(slot).flat_map(move |(s, e)| {
            let short = span.is_some_and(|w| e.0 - s.0 <= w);
            let between = (!short).then(|| self.times.range(after(s)..after(e)));
            let between = between.into_iter().flatten().copied();
            once(s).chain(between).chain((short && e > s).then_some(e))
        })
    }

    /// Hands `visit` each of `keys` a window can still see with its
    /// checkpoint numbers: its stamps (`once`, `since`), its runs' start/end
    /// pairs (`hist[a,b]`), or its run's end and whether it is open (`hist[a,∞]`).
    fn live<'s>(
        &self,
        keys: impl Iterator<Item = (&'s Key, &'s Slot)>,
        mut visit: impl FnMut(&'s Tuple, &[u64]),
    ) {
        let cutoff = self.times.back().map_or(TimePoint(0), |&t| self.cutoff(t));
        let after = |x: TimePoint| self.times.partition_point(|&y| y <= x);
        let mut out = Vec::new();
        for (key, slot) in keys {
            out.clear();
            let live = self.runs(slot).filter(|r| r.1 >= cutoff);
            match (self.rel.hist, self.rel.interval.is_bounded()) {
                (true, true) => out.extend(live.flat_map(|(s, e)| [s.0, e.0])),
                (true, false) => out.extend(live.flat_map(|r| [r.1 .0, u64::from(slot.open())])),
                (false, _) => {
                    for (s, e) in self.spans(slot) {
                        out.extend(Some(s.0).filter(|_| s >= cutoff));
                        let covered = self.times.range(after(s)..after(e));
                        out.extend(covered.filter(|&&x| x >= cutoff).map(|x| x.0));
                    }
                }
            }
            if !out.is_empty() {
                visit(key, &out);
            }
        }
    }

    /// `(keys, timestamps)` stored — the quantities bounded by the paper,
    /// counted as the checkpoint lays them out: a stamp each (`once`,
    /// `since`); two per run plus the recent state times (`hist[a,b]`);
    /// one per run plus the times younger than `a` (`hist[a,∞]`).
    pub fn space(&self) -> (usize, usize) {
        let (mut keys, mut n, all) = (0, 0, self.rel.keys.iter());
        self.live(all, |_, live| (keys, n) = (keys + 1, n + live.len()));
        let older = usize::from(self.older().is_some());
        match (self.rel.hist, self.rel.interval.is_bounded()) {
            (false, _) => (keys, n),
            (true, true) => (keys, n + self.times.len()),
            (true, false) => (keys, n / 2 + self.times.len() - older),
        }
    }

    /// The recent state times, ascending.
    pub fn times(&self) -> impl Iterator<Item = TimePoint> + '_ {
        self.times.iter().copied()
    }

    /// Under `b = ∞`: the newest state the window holds, if any.
    pub fn older(&self) -> Option<TimePoint> {
        let hi = self.rel.interval.window_at(*self.times.back()?)?.1;
        self.times.front().copied().filter(|&s| s <= hi)
    }

    /// Hands `visit` each live key with its checkpoint numbers, in key
    /// order: the keys borrowed and sorted by reference.
    pub fn entries(&self, visit: impl FnMut(&'a Tuple, &[u64])) {
        let mut keys: Vec<(&'a Key, &'a Slot)> = self.rel.keys.iter().collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(b.0));
        self.live(keys.into_iter(), visit);
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

    /// The stored previous-state time and rows, sorted, if any.
    pub fn dump(&self) -> Option<(TimePoint, Vec<&Tuple>)> {
        self.prev_sat
            .as_ref()
            .map(|(t, sat)| (*t, sat.sorted_rows()))
    }

    /// Restores a dumped previous-state extension. Additive in the rows
    /// (like [`RunRelation::restore`]): a checkpoint written by the old
    /// per-key shard plane lists them as one block per key.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_relation::tuple;
    use rtic_temporal::var;
    use std::collections::BTreeMap;

    fn key(s: &str) -> Tuple {
        tuple![s]
    }

    fn sat(vars: &[Var], keys: &[&str]) -> Bindings {
        Bindings::from_rows(vars.to_vec(), keys.iter().map(|k| key(k)))
    }

    fn v() -> Vec<Var> {
        vec![var("encx")]
    }

    fn once(i: Interval) -> RunRelation {
        RunRelation::new(i, v(), false)
    }

    fn hist(i: Interval) -> RunRelation {
        RunRelation::new(i, v(), true)
    }

    fn stamps(ts: &[u64]) -> Vec<u64> {
        ts.to_vec()
    }

    impl RunRelation {
        /// Absorbs `sat` at `t` as a rebuild, the path a broken delta
        /// chain takes (`dropped`: `since` keys whose `f` failed).
        fn absorb(&mut self, sat: &Bindings, dropped: &[Tuple], t: TimePoint) {
            let prev = self.times.back().copied();
            self.advance(sat, None, dropped, prev, t);
        }

        /// Each live key with its checkpoint numbers, in key order.
        fn dump(&self) -> Vec<(Tuple, Vec<u64>)> {
            let mut out = Vec::new();
            self.view()
                .entries(|k, n| out.push((k.clone(), n.to_vec())));
            out
        }

        fn times(&self) -> Vec<TimePoint> {
            self.view().times().collect()
        }

        fn space(&self) -> (usize, usize) {
            self.view().space()
        }

        fn add_and_prune(&mut self, sat: &Bindings, t: TimePoint) {
            self.absorb(sat, &[], t);
        }

        /// The reference the index must match: every key's next change,
        /// scanned.
        fn next_change_scan(&self) -> TimePoint {
            let t = self.times.back().copied().unwrap_or_default();
            let keys = self.keys.keys().map(|k| self.key_change(k, t, NEVER));
            let newest = self.times.back();
            let open = newest.filter(|_| self.open > 0 && self.interval.lo().0 > 0);
            keys.chain(open.and_then(|&t| self.gone(t)))
                .min()
                .unwrap_or(NEVER)
        }
    }

    // ---- the stamp view -------------------------------------------------

    #[test]
    fn stamp_policy_selection() {
        // The same runs — "a" held at 1, 2, 3 and 5 — read as one stamp
        // under a = 0 (the newest) and under b = ∞ (the first), as every
        // covered state otherwise.
        for (i, want) in [
            (Interval::up_to(5), stamps(&[5])),
            (Interval::all(), stamps(&[1])),
            (Interval::at_least(2), stamps(&[1])),
            (Interval::bounded(1, 5).unwrap(), stamps(&[1, 2, 3, 5])),
        ] {
            let mut w = once(i);
            for (t, keys) in [
                (1, &["a"][..]),
                (2, &["a"]),
                (3, &["a"]),
                (4, &[]),
                (5, &["a"]),
            ] {
                w.add_and_prune(&sat(&v(), keys), TimePoint(t));
            }
            assert_eq!(w.dump(), vec![(key("a"), want.clone())], "{i}");
            assert_eq!(w.space(), (1, want.len()), "{i}");
        }
    }

    #[test]
    fn many_stamps_prune_and_query() {
        // A window keeps only the stamps some future window can still see.
        let i = Interval::bounded(1, 3).unwrap();
        let mut w = once(i);
        for (t, keys) in [(1, &["a"][..]), (3, &["a"]), (4, &[]), (7, &["a"])] {
            w.add_and_prune(&sat(&v(), keys), TimePoint(t));
        }
        assert_eq!(w.dump(), vec![(key("a"), stamps(&[7]))]);
        assert!(!w.holds(&key("a"), TimePoint(7)), "age 0 < 1");
        w.add_and_prune(&sat(&v(), &[]), TimePoint(9));
        assert!(w.holds(&key("a"), TimePoint(9)), "age 2 in [1,3]");
        w.add_and_prune(&sat(&v(), &[]), TimePoint(11));
        assert_eq!(w.space(), (0, 0), "everything pruned");
    }

    // ---- once -----------------------------------------------------------

    #[test]
    fn once_latest_window() {
        // once[0,2]: satisfied while age of latest witness ≤ 2.
        let mut w = once(Interval::up_to(2));
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
        let mut w = once(Interval::bounded(2, 4).unwrap());
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
        let mut w = once(Interval::at_least(3));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(5));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(7)); // later witness ignored
        assert!(w.extension(TimePoint(7)).is_empty());
        assert_eq!(w.extension(TimePoint(8)).len(), 1, "age of earliest = 3");
        let (_, stamps) = w.space();
        assert_eq!(stamps, 1, "one timestamp per key");
    }

    #[test]
    fn once_general_deque_bounded() {
        let mut w = once(Interval::bounded(1, 3).unwrap());
        for t in 1..=50u64 {
            let keys: &[&str] = if t % 3 == 0 { &[] } else { &["a"] };
            w.add_and_prune(&sat(&v(), keys), TimePoint(t));
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
        let mut w = once(Interval::bounded(2, 4).unwrap());
        let gone = sat(&v(), &[]);
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(10));
        assert_eq!(w.next_change(TimePoint(10)), TimePoint(12));
        w.add_and_prune(&gone, TimePoint(12));
        assert_eq!(w.next_change(TimePoint(12)), TimePoint(15));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(13));
        assert_eq!(w.next_change(TimePoint(13)), TimePoint(18));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(19));
        assert_eq!(w.next_change(TimePoint(19)), TimePoint(21));
        // a = 0: a key still in the operand never leaves; one that left
        // it ages out at s + b + 1.
        let mut w = once(Interval::up_to(3));
        w.add_and_prune(&sat(&v(), &["a", "b"]), TimePoint(5));
        assert_eq!(w.next_change(TimePoint(5)), NEVER);
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(6));
        assert_eq!(w.next_change(TimePoint(6)), TimePoint(9));
        // b = ∞: in at s + a, then never out.
        let mut w = once(Interval::at_least(3));
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(5));
        w.add_and_prune(&gone, TimePoint(6));
        assert_eq!(w.next_change(TimePoint(6)), TimePoint(8));
        w.add_and_prune(&gone, TimePoint(8));
        assert_eq!(w.next_change(TimePoint(8)), NEVER);
    }

    // ---- since (a run relation whose keys can be dropped) -----------------

    #[test]
    fn since_anchor_cleared_when_f_fails() {
        let mut w = once(Interval::all());
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
        let mut w = once(Interval::all());
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
        let mut h = hist(Interval::up_to(3));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        assert!(h.holds(&key("a"), TimePoint(1)));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(2));
        assert!(h.holds(&key("a"), TimePoint(2)));
        // Miss a state.
        h.add_and_prune(&sat(&v(), &[]), TimePoint(3));
        assert!(!h.holds(&key("a"), TimePoint(3)));
        // The gap ages out after bound ticks.
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(5));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(7));
        assert!(
            h.holds(&key("a"), TimePoint(7)),
            "gap at t=3 now older than 3 ticks"
        );
    }

    #[test]
    fn hist_finite_vacuous_on_empty_window() {
        let mut h = hist(Interval::bounded(3, 5).unwrap());
        h.add_and_prune(&sat(&v(), &[]), TimePoint(1));
        // At t=1 no state has age in [3,5]: vacuously true even for unseen keys.
        assert!(h.holds(&key("zzz"), TimePoint(1)));
        // At t=4 the state at t=1 enters the window: unseen key fails.
        h.add_and_prune(&sat(&v(), &[]), TimePoint(4));
        assert!(!h.holds(&key("zzz"), TimePoint(4)));
    }

    #[test]
    fn hist_finite_never_seen_key_fails_nonempty_window() {
        let mut h = hist(Interval::up_to(10));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        assert!(!h.holds(&key("b"), TimePoint(1)));
    }

    #[test]
    fn hist_finite_space_is_window_bounded() {
        let mut h = hist(Interval::up_to(4));
        for t in 1..=100u64 {
            // Alternate satisfaction to maximize run count.
            let keys: &[&str] = if t % 2 == 0 { &["a"] } else { &[] };
            h.add_and_prune(&sat(&v(), keys), TimePoint(t));
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
        let mut w = once(Interval::bounded(1, 3).unwrap());
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(base));
        assert!(w.extension(TimePoint(base)).is_empty(), "age 0 < lo");
        assert_eq!(w.extension(TimePoint(base + 2)).len(), 1);
        let mut h = hist(Interval::up_to(2));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(base));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(base + 2));
        assert!(h.holds(&key("a"), TimePoint(base + 2)));
    }

    #[test]
    fn early_clock_times_clip_at_origin() {
        // Windows reaching before t=0 clip rather than underflow.
        let mut w = once(Interval::bounded(0, 100).unwrap());
        w.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        assert_eq!(w.extension(TimePoint(2)).len(), 1);
        let mut h = hist(Interval::at_least(5));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(2));
        assert!(h.holds(&key("a"), TimePoint(2)), "window empty this early");
    }

    // ---- hist, unbounded --------------------------------------------------

    #[test]
    fn hist_inf_prefix_semantics() {
        let mut h = hist(Interval::at_least(0));
        h.add_and_prune(&sat(&v(), &["a", "b"]), TimePoint(1));
        assert!(h.holds(&key("a"), TimePoint(1)));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(2));
        assert!(h.holds(&key("a"), TimePoint(2)));
        assert!(!h.holds(&key("b"), TimePoint(2)), "b broke its prefix");
        assert!(!h.holds(&key("c"), TimePoint(2)), "never satisfied");
        // b can never recover.
        h.add_and_prune(&sat(&v(), &["a", "b"]), TimePoint(3));
        assert!(!h.holds(&key("b"), TimePoint(3)));
        assert!(h.holds(&key("a"), TimePoint(3)));
    }

    #[test]
    fn hist_inf_lower_bound_excludes_recent_states() {
        // hist[2,*]: the last 2 ticks don't count.
        let mut h = hist(Interval::at_least(2));
        h.add_and_prune(&sat(&v(), &["a"]), TimePoint(1));
        assert!(h.holds(&key("a"), TimePoint(1)), "window empty at t=1");
        assert!(h.holds(&key("z"), TimePoint(1)), "vacuous for everyone");
        // a fails at t=2, but at t=2 the window is still empty (1 > 2-2=0).
        h.add_and_prune(&sat(&v(), &[]), TimePoint(2));
        assert!(h.holds(&key("a"), TimePoint(2)));
        // At t=3 the state at t=1 (age 2) enters the window; a held there.
        h.add_and_prune(&sat(&v(), &[]), TimePoint(3));
        assert!(h.holds(&key("a"), TimePoint(3)), "prefix covers state@1");
        assert!(!h.holds(&key("z"), TimePoint(3)));
        // At t=4 the state at t=2 (where a failed) enters the window.
        h.add_and_prune(&sat(&v(), &[]), TimePoint(4));
        assert!(!h.holds(&key("a"), TimePoint(4)));
    }

    #[test]
    fn hist_inf_space_prunes_dead_keys() {
        let mut h = hist(Interval::at_least(0));
        h.add_and_prune(&sat(&v(), &["a", "b", "c"]), TimePoint(1));
        h.add_and_prune(&sat(&v(), &[]), TimePoint(2)); // everyone breaks
        h.add_and_prune(&sat(&v(), &[]), TimePoint(3));
        let (keys, _) = h.space();
        assert_eq!(
            keys, 0,
            "broken runs below the window's newest state are pruned"
        );
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

    /// The node's delta from `prev` to `keys`, withheld one step in five
    /// (a rebuild).
    fn delta(rng: &mut Rng, prev: &[&str], keys: &[&str]) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        let added = keys.iter().filter(|k| !prev.contains(k));
        let removed = prev.iter().filter(|k| !keys.contains(k));
        let delta = (
            added.map(|k| key(k)).collect(),
            removed.map(|k| key(k)).collect(),
        );
        (rng.below(5) != 0).then_some(delta)
    }

    /// The re-stamping window the index replaced: every key's stamps,
    /// re-recorded at every state and pruned by visiting every key.
    #[derive(Default)]
    struct Restamping(BTreeMap<Tuple, Vec<TimePoint>>);

    impl Restamping {
        fn step(&mut self, i: &Interval, sat: &[&str], dropped: &[Tuple], t: TimePoint) {
            for k in dropped {
                self.0.remove(k);
            }
            for k in sat {
                let stamps = self.0.entry(key(k)).or_default();
                match (i.lo().0 == 0, i.is_bounded()) {
                    (_, false) if !stamps.is_empty() => {}
                    (true, true) => *stamps = vec![t],
                    _ => stamps.push(t),
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
            let changes = aging.map(|(_, s)| stamps_change(s.iter().copied(), i, t, NEVER));
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
            for seed in 0..120u64 {
                let mut rng = Rng(0x9e37_79b9 ^ (seed * 977 + n as u64 * 31));
                // A third of the streams are `since` nodes: keys whose
                // maintained formula fails lose every anchor.
                let since = seed % 3 == 0;
                let mut w = once(*i);
                w.keep_extension();
                let mut old = Restamping::default();
                let (mut prev, mut t_prev): (Vec<&str>, Option<TimePoint>) = (Vec::new(), None);
                for (t, keys) in stream(&mut rng, i, 30) {
                    let dropped: Vec<Tuple> = match since {
                        true => (old.0.keys().filter(|_| rng.below(4) == 0).cloned()).collect(),
                        false => Vec::new(),
                    };
                    let was: Vec<bool> = DOMAIN
                        .iter()
                        .map(|k| old.satisfied(i, &key(k), t_prev.unwrap_or_default()))
                        .collect();
                    old.step(i, &keys, &dropped, t);
                    let now = sat(&v(), &keys);
                    let delta = delta(&mut rng, &prev, &keys);
                    let delta = delta.as_ref().map(|(a, r)| (&a[..], &r[..]));
                    w.advance(&now, delta, &dropped, t_prev, t);
                    let ctx = format!("{i} seed {seed} at {t}");
                    let dump = old
                        .0
                        .iter()
                        .map(|(k, s)| (k.clone(), s.iter().map(|x| x.0)));
                    let dump: Vec<_> = dump.map(|(k, s)| (k, s.collect())).collect();
                    assert_eq!(w.dump(), dump, "{ctx}");
                    assert_eq!(
                        w.next_change(t),
                        old.next_change(i, &keys, t),
                        "deadline, {ctx}"
                    );
                    assert_eq!(w.next_change(t), w.next_change_scan(), "scan, {ctx}");
                    let flips = w.flips();
                    for (k, was) in DOMAIN.iter().zip(was) {
                        let now = old.satisfied(i, &key(k), t);
                        assert_eq!(w.holds(&key(k), t), now, "{k}, {ctx}");
                        assert_eq!(
                            w.extension(t).contains(&key(k)),
                            now,
                            "extension {k}, {ctx}"
                        );
                        if t_prev.is_some() && now != was {
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

    /// The run-extending `hist` state the index replaced: every operand
    /// key's last run stretched by hand and every state kept, so `holds`
    /// reads the whole history — under `b = ∞` from the first state.
    #[derive(Default)]
    struct Stretching {
        runs: BTreeMap<Tuple, Vec<Run>>,
        times: Vec<TimePoint>,
    }

    impl Stretching {
        fn step(&mut self, sat: &[&str], t: TimePoint, prev: Option<TimePoint>) {
            for k in sat {
                let runs = self.runs.entry(key(k)).or_default();
                match (runs.last_mut(), prev) {
                    (Some(last), Some(p)) if last.1 == p => last.1 = t,
                    _ => runs.push((t, t)),
                }
            }
            self.times.push(t);
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

        /// `hist[a,∞]`: the newest state the window holds at `t`.
        fn older(&self, i: &Interval, t: TimePoint) -> Option<TimePoint> {
            let hi = i.window_at(t)?.1;
            self.times.iter().copied().rfind(|&x| x <= hi)
        }

        /// `hist[a,∞]`: the keys whose run from the first state broke at
        /// or after the newest state the window holds, `(end, open)`.
        fn prefixes(&self, i: &Interval, t: TimePoint) -> Vec<(Tuple, Vec<u64>)> {
            let first = self.times.first().copied();
            let reach = self.older(i, t).unwrap_or_default();
            let runs = self.runs.iter().filter_map(|(k, r)| Some((k, r.first()?)));
            let prefix = runs.filter(|(_, r)| Some(r.0) == first && r.1 >= reach);
            let open = |e: TimePoint| u64::from(e == t);
            prefix
                .map(|(k, r)| (k.clone(), vec![r.1 .0, open(r.1)]))
                .collect()
        }

        /// The state's checkpoint view: live runs and recent state times.
        fn dump(&self, i: &Interval, t: TimePoint) -> (Vec<(Tuple, Vec<u64>)>, Vec<TimePoint>) {
            let Some(b) = i.hi().finite() else {
                let older = self.older(i, t).unwrap_or_default();
                let times = self.times.iter().copied().filter(|&x| x >= older);
                return (self.prefixes(i, t), times.collect());
            };
            let cutoff = t.minus(b).unwrap_or(TimePoint(0));
            let live = |r: &[Run]| -> Vec<u64> {
                let r = r.iter().filter(|r| r.1 >= cutoff);
                r.flat_map(|(s, e)| [s.0, e.0]).collect()
            };
            let runs = self.runs.iter().map(|(k, r)| (k.clone(), live(r)));
            let times = self.times.iter().copied().filter(|&x| x >= cutoff);
            (
                runs.filter(|(_, r)| !r.is_empty()).collect(),
                times.collect(),
            )
        }

        /// The deadline the old per-state scan computed.
        fn next_change(&self, i: &Interval, sat: &[&str], t: TimePoint) -> TimePoint {
            let enter = self.times.iter().map(|s| s.plus(i.lo())).find(|&e| e > t);
            let Some(b) = i.hi().finite() else {
                let broken = self.prefixes(i, t).iter().any(|(_, n)| n[1] == 0);
                let quiet = self.older(i, t).is_some() && !broken;
                return enter.filter(|_| !quiet).unwrap_or(NEVER);
            };
            if i.lo().0 == 0 && sat.iter().all(|k| self.holds(i, &key(k), t)) {
                return NEVER;
            }
            let cutoff = t.minus(b).unwrap_or(TimePoint(0));
            let front = self.times.iter().find(|&&x| x >= cutoff);
            let leave = front.map(|s| s.plus(b).plus(Duration(1)));
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
            Interval::at_least(0),
            Interval::at_least(2),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..80u64 {
                let mut rng = Rng(0x5151_7a7a ^ (seed * 1013 + n as u64 * 37));
                let mut h = hist(*i);
                let mut old = Stretching::default();
                let (mut prev, mut t_prev): (Vec<&str>, Option<TimePoint>) = (Vec::new(), None);
                for (t, keys) in stream(&mut rng, i, 30) {
                    let was: Vec<bool> = DOMAIN
                        .iter()
                        .map(|k| old.holds(i, &key(k), t_prev.unwrap_or_default()))
                        .collect();
                    old.step(&keys, t, t_prev);
                    let now = sat(&v(), &keys);
                    let delta = delta(&mut rng, &prev, &keys);
                    let delta = delta.as_ref().map(|(a, r)| (&a[..], &r[..]));
                    h.advance(&now, delta, &[], t_prev, t);
                    let ctx = format!("{i} seed {seed} at {t}");
                    let times = h.times();
                    assert_eq!((h.dump(), times), old.dump(i, t), "{ctx}");
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
