//! The bounded ingest queue behind `rtic serve`.
//!
//! Connection threads [`IngestQueue::try_push`] parsed commands; the
//! single engine thread [`IngestQueue::pop_timeout`]s them. The bound is
//! the backpressure contract: a full queue rejects the push (the caller
//! replies `BUSY <retry-after-ms>`) instead of buffering without limit,
//! so server memory stays proportional to the queue capacity no matter
//! how fast clients write.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Rejected push: the queue was at capacity. Carries nothing — the item
/// stays with the caller, who owes the client a `BUSY` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

struct Inner<T> {
    items: VecDeque<T>,
    /// High-water mark of `items.len()` since the queue was built.
    peak: usize,
    /// Pushes rejected because the queue was full.
    shed: u64,
    /// Closed queues reject pushes; pops drain what remains.
    closed: bool,
    /// Paused queues hold their items: pops block (until timeout) even
    /// when items are queued. Test hook for deterministic flooding.
    paused: bool,
}

/// A bounded multi-producer single-consumer queue with explicit
/// backpressure (see the module docs).
pub struct IngestQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> IngestQueue<T> {
    /// A queue holding at most `capacity` items (at least one).
    pub fn new(capacity: usize) -> IngestQueue<T> {
        IngestQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                peak: 0,
                shed: 0,
                closed: false,
                paused: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Ignore poisoning: the queue holds plain data and every mutation
    /// below keeps the invariants, so a panicking peer thread must not
    /// wedge ingest.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `item`, or rejects it when the queue is at capacity or
    /// closed. A rejection counts toward [`IngestQueue::shed`].
    pub fn try_push(&self, item: T) -> Result<(), QueueFull> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            inner.shed += 1;
            return Err(QueueFull);
        }
        inner.items.push_back(item);
        inner.peak = inner.peak.max(inner.items.len());
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, waiting up to `timeout` for one to
    /// arrive. `None` on timeout, or immediately when the queue is
    /// closed and empty. While paused, queued items are held back.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if !inner.paused || inner.closed {
                if let Some(item) = inner.items.pop_front() {
                    return Some(item);
                }
            }
            if inner.closed {
                return None;
            }
            let (next, waited) = self
                .ready
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|e| e.into_inner());
            inner = next;
            if waited.timed_out() {
                if !inner.paused || inner.closed {
                    return inner.items.pop_front();
                }
                return None;
            }
        }
    }

    /// Dequeues the oldest item without waiting: `None` when the queue
    /// is empty (or paused and still open). The engine loop uses this to
    /// drain whatever is already queued behind the first popped job
    /// without sleeping on the condvar.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.lock();
        if inner.paused && !inner.closed {
            return None;
        }
        inner.items.pop_front()
    }

    /// Stops accepting pushes; pops drain what is already queued. Wakes
    /// every waiter. Draining a closed queue un-pauses it.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.paused = false;
        drop(inner);
        self.ready.notify_all();
    }

    /// Pauses (or resumes) consumption — see the `paused` field docs.
    pub fn set_paused(&self, paused: bool) {
        let mut inner = self.lock();
        inner.paused = paused && !inner.closed;
        drop(inner);
        self.ready.notify_all();
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// High-water mark of the depth since construction.
    pub fn peak(&self) -> usize {
        self.lock().peak
    }

    /// Pushes rejected because the queue was full or closed.
    pub fn shed(&self) -> u64 {
        self.lock().shed
    }

    /// [`IngestQueue::depth`], [`IngestQueue::peak`] and
    /// [`IngestQueue::shed`], read under one lock.
    pub fn gauges(&self) -> (usize, usize, u64) {
        let inner = self.lock();
        (inner.items.len(), inner.peak, inner.shed)
    }

    /// The bound this queue enforces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bound_is_enforced_and_shed_is_counted() {
        let q = IngestQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(QueueFull));
        assert_eq!(q.try_push(4), Err(QueueFull));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.peak(), 2);
        assert_eq!(q.shed(), 2);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert!(q.try_push(5).is_ok());
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(5));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = IngestQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(QueueFull));
    }

    #[test]
    fn close_rejects_pushes_and_drains_the_rest() {
        let q = IngestQueue::new(4);
        q.try_push(1).ok();
        q.try_push(2).ok();
        q.close();
        assert_eq!(q.try_push(3), Err(QueueFull));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(2));
        // Closed + empty: no wait, immediate None.
        assert_eq!(q.pop_timeout(Duration::from_secs(60)), None);
    }

    #[test]
    fn try_pop_never_waits_and_respects_pause() {
        let q = IngestQueue::new(4);
        assert_eq!(q.try_pop(), None);
        q.try_push(1).ok();
        q.try_push(2).ok();
        q.set_paused(true);
        assert_eq!(q.try_pop(), None, "paused queues hold their items");
        q.set_paused(false);
        assert_eq!(q.try_pop(), Some(1));
        q.close();
        assert_eq!(q.try_pop(), Some(2), "closed queues still drain");
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn pause_holds_items_until_resume() {
        let q = IngestQueue::new(4);
        q.set_paused(true);
        q.try_push(7).ok();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), None);
        assert_eq!(q.depth(), 1);
        q.set_paused(false);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Some(7));
    }

    #[test]
    fn close_wakes_a_blocked_popper() {
        let q = Arc::new(IngestQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().expect("popper thread"), None);
    }
}
