//! A bounded multi-producer/multi-consumer queue of **batches** on std
//! primitives.
//!
//! The build environment has no async runtime (and the registry is
//! unreachable, so none can be added); the service therefore runs on
//! `std::thread` with this hand-rolled `Mutex` + `Condvar` queue.
//!
//! The unit of queueing is a batch: one entry carrying `units` claimable
//! pieces of work (the service's queries). Producers enqueue a batch
//! **whole or not at all**; consumers [`BoundedQueue::claim`] one unit at
//! a time from the front batch, so idle consumers share a large batch and
//! a batch leaves the queue when its last unit is claimed. Capacity, depth
//! and the high-water mark all count **unclaimed units**, not batches.
//!
//! Admission:
//! * [`BoundedQueue::try_push`] never blocks: the batch is enqueued iff
//!   `queued + units <= capacity`, so a batch larger than the capacity is
//!   always refused.
//! * [`BoundedQueue::push`] blocks — bounded capacity is the service's
//!   backpressure — until the batch fits **or the queue is empty**. The
//!   second clause is what keeps an oversized batch from deadlocking: it
//!   waits for the queue to drain and then goes in whole (the depth then
//!   exceeds `capacity` until consumers catch up).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Error returned when pushing into a closed queue; hands the batch back.
#[derive(Debug)]
pub struct Closed<T>(pub T);

/// Error from [`BoundedQueue::try_push`]; hands the batch back.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue has been closed.
    Closed(T),
    /// The queue lacks room for the whole batch right now.
    Full(T),
}

struct Entry<T> {
    batch: Arc<T>,
    /// The claim cursor: units `..next` are claimed.
    next: usize,
    units: usize,
}

struct State<T> {
    batches: VecDeque<Entry<T>>,
    /// Unclaimed units across every queued batch.
    queued: usize,
    closed: bool,
    high_water: usize,
    /// Producers parked in `push`. Claims notify them, once per unit, and
    /// a condvar notify is a futex syscall even when nobody waits — the
    /// common case — so they are counted and the notify skipped at zero.
    blocked_producers: usize,
}

impl<T> State<T> {
    fn claim_front(&mut self) -> Option<(Arc<T>, usize)> {
        let front = self.batches.front_mut()?;
        let index = front.next;
        front.next += 1;
        self.queued -= 1;
        let batch = if front.next == front.units {
            self.batches.pop_front().expect("front exists").batch
        } else {
            Arc::clone(&front.batch)
        };
        Some((batch, index))
    }
}

/// Bounded blocking MPMC queue of batches (see module docs).
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` unclaimed units
    /// (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                batches: VecDeque::new(),
                queued: 0,
                closed: false,
                high_water: 0,
                blocked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of unclaimed units.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks until the whole batch fits or the queue is empty, then
    /// enqueues it. Never enqueues part of a batch; fails only when the
    /// queue is (or while waiting becomes) closed. A batch of 0 units has
    /// nothing to claim: it is complete on arrival and dropped.
    pub fn push(&self, batch: T, units: usize) -> Result<(), Closed<T>> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return Err(Closed(batch));
            }
            if state.queued == 0 || state.queued + units <= self.capacity {
                self.admit(state, batch, units);
                return Ok(());
            }
            state.blocked_producers += 1;
            state = self.not_full.wait(state).expect("queue lock");
            state.blocked_producers -= 1;
        }
    }

    /// Non-blocking, all-or-nothing enqueue: succeeds only when the queue
    /// is open *and* `queued + units <= capacity`, otherwise hands the
    /// batch back untouched. This is the admission-control primitive — a
    /// serving tier that must never block a network thread sheds load
    /// through the error instead of waiting for room.
    pub fn try_push(&self, batch: T, units: usize) -> Result<(), TryPushError<T>> {
        let state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(TryPushError::Closed(batch));
        }
        if state.queued + units > self.capacity {
            return Err(TryPushError::Full(batch));
        }
        self.admit(state, batch, units);
        Ok(())
    }

    fn admit(&self, mut state: MutexGuard<'_, State<T>>, batch: T, units: usize) {
        if units == 0 {
            return;
        }
        state.batches.push_back(Entry {
            batch: Arc::new(batch),
            next: 0,
            units,
        });
        state.queued += units;
        state.high_water = state.high_water.max(state.queued);
        drop(state);
        self.not_empty.notify_all();
    }

    /// Blocks for the next unclaimed unit of the front batch and returns
    /// the batch with the claimed unit's index. Returns `None` once the
    /// queue is closed *and* drained — consumers see every batch pushed
    /// before `close`.
    pub fn claim(&self) -> Option<(Arc<T>, usize)> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(claim) = state.claim_front() {
                self.wake_producers(state);
                return Some(claim);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Claims the next unit of `batch` if it is still the front batch and
    /// has one left; never blocks. A consumer that got `batch` from
    /// [`Self::claim`] keeps working on it through this, so whatever it
    /// set up for the batch is reused until the batch runs out.
    pub fn claim_more(&self, batch: &Arc<T>) -> Option<usize> {
        let mut state = self.state.lock().expect("queue lock");
        if !Arc::ptr_eq(&state.batches.front()?.batch, batch) {
            return None;
        }
        let (_, index) = state.claim_front()?;
        self.wake_producers(state);
        Some(index)
    }

    /// A claim made room: every blocked producer re-checks whether its
    /// batch fits now (they wait for different amounts of room, so waking
    /// one could wake the wrong one).
    fn wake_producers(&self, state: MutexGuard<'_, State<T>>) {
        let blocked = state.blocked_producers;
        drop(state);
        if blocked > 0 {
            self.not_full.notify_all();
        }
    }

    /// Closes the queue: further pushes fail (blocked ones included),
    /// claims drain what remains.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth in unclaimed units.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").queued
    }

    /// Whether the queue currently holds no unclaimed unit.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has been since construction or the last
    /// [`Self::reset_high_water`] (the service reports this as a
    /// saturation signal: a high-water mark at or above capacity means
    /// producers were blocked on backpressure).
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("queue lock").high_water
    }

    /// Restarts the high-water tracking window at the current depth (the
    /// service resets it together with its other stats, so a saturated
    /// warm-up cannot masquerade as backpressure in the measured window).
    pub fn reset_high_water(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.high_water = state.queued;
    }

    /// Current depth and high-water mark under one lock acquisition — the
    /// stats-snapshot path reads both, and two separate locks would double
    /// the contention against producers for no benefit.
    pub fn depth_and_high_water(&self) -> (usize, usize) {
        let state = self.state.lock().expect("queue lock");
        (state.queued, state.high_water)
    }

    /// Producers currently parked in [`Self::push`] — lets a test close
    /// the queue exactly while a submit is blocked.
    #[cfg(test)]
    pub(crate) fn blocked_producers(&self) -> usize {
        self.state.lock().expect("queue lock").blocked_producers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Spins until `n` producers are parked in `push`.
    fn wait_blocked<T>(q: &BoundedQueue<T>, n: usize) {
        while q.blocked_producers() < n {
            thread::yield_now();
        }
    }

    fn claimed<T: Copy>(q: &BoundedQueue<T>) -> Option<(T, usize)> {
        q.claim().map(|(batch, index)| (*batch, index))
    }

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        q.push('a', 1).unwrap();
        q.push('b', 2).unwrap();
        assert_eq!(q.len(), 3, "depth counts units, not batches");
        assert_eq!(claimed(&q), Some(('a', 0)));
        assert_eq!(claimed(&q), Some(('b', 0)));
        assert_eq!(q.len(), 1);
        assert_eq!(claimed(&q), Some(('b', 1)));
        assert_eq!(q.high_water(), 3);
        // Nothing to claim, nothing to queue.
        q.push('c', 0).unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_resets_to_current_depth() {
        let q = BoundedQueue::new(4);
        q.push('a', 3).unwrap();
        q.claim();
        q.claim();
        assert_eq!(q.high_water(), 3);
        q.reset_high_water();
        assert_eq!(q.high_water(), 1, "window restarts at the current depth");
        q.push('b', 1).unwrap();
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn exactly_filling_push_returns_without_waiting() {
        // Regression: a batch that lands the queue exactly at capacity
        // must return, not wait for room it does not need.
        let q = BoundedQueue::new(2);
        q.push('a', 2).unwrap();
        assert_eq!(q.len(), 2);
        let q1 = BoundedQueue::new(1);
        q1.push('b', 1).unwrap();
        assert_eq!(claimed(&q1), Some(('b', 0)));
    }

    #[test]
    fn try_push_many_is_all_or_nothing() {
        let q = BoundedQueue::new(3);
        q.try_push('a', 2).unwrap();
        // 2 units into 1 free slot: refused whole, nothing enqueued.
        assert!(matches!(q.try_push('b', 2), Err(TryPushError::Full('b'))));
        assert_eq!(q.len(), 2);
        // Exactly-filling batch fits.
        q.try_push('c', 1).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water(), 3);
        // Larger than the capacity: refused even by an empty queue (the
        // blocking path's "or is empty" clause does not apply here).
        let empty = BoundedQueue::new(3);
        assert!(matches!(
            empty.try_push('d', 4),
            Err(TryPushError::Full('d'))
        ));
        assert!(empty.is_empty());
        q.close();
        assert!(matches!(q.try_push('e', 1), Err(TryPushError::Closed('e'))));
        assert_eq!(claimed(&q), Some(('a', 0)));
    }

    #[test]
    fn close_drains_then_none() {
        let q = BoundedQueue::new(4);
        q.push('a', 2).unwrap();
        q.close();
        assert!(matches!(q.push('b', 1), Err(Closed('b'))));
        assert_eq!(claimed(&q), Some(('a', 0)));
        assert_eq!(claimed(&q), Some(('a', 1)));
        assert_eq!(claimed(&q), None);
        assert_eq!(claimed(&q), None, "closed queue stays closed");
    }

    #[test]
    fn bounded_push_blocks_until_pop() {
        let q = BoundedQueue::new(2);
        q.push('a', 2).unwrap();
        thread::scope(|s| {
            let producer = s.spawn(|| q.push('b', 1).is_ok());
            // The producer is parked on a full queue; a claim frees a slot.
            wait_blocked(&q, 1);
            assert_eq!(q.len(), 2, "nothing of the blocked batch is enqueued");
            assert_eq!(claimed(&q), Some(('a', 0)));
            assert!(producer.join().unwrap());
        });
        assert_eq!(claimed(&q), Some(('a', 1)));
        assert_eq!(claimed(&q), Some(('b', 0)));
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn oversized_batch_waits_for_an_empty_queue_then_goes_in_whole() {
        let q = BoundedQueue::new(3);
        // Into an empty queue an oversized batch is admitted at once —
        // waiting for room that can never exist would deadlock.
        q.push('a', 100).unwrap();
        assert_eq!(q.len(), 100);
        assert_eq!(q.high_water(), 100);
        thread::scope(|s| {
            let producer = s.spawn(|| q.push('b', 5).is_ok());
            wait_blocked(&q, 1);
            // Room for part of it is not room for it: still parked with
            // one unit of 'a' left, admitted whole once that is claimed.
            for index in 0..99 {
                assert_eq!(claimed(&q), Some(('a', index)));
            }
            assert_eq!(q.blocked_producers(), 1);
            assert_eq!(q.len(), 1, "never partially enqueued");
            assert_eq!(claimed(&q), Some(('a', 99)));
            assert!(producer.join().unwrap());
        });
        assert_eq!(q.len(), 5);
        assert_eq!(claimed(&q), Some(('b', 0)));
    }

    #[test]
    fn close_wakes_a_blocked_push_with_its_batch() {
        let q = BoundedQueue::new(1);
        q.push('a', 1).unwrap();
        thread::scope(|s| {
            let producer = s.spawn(|| q.push('b', 2));
            wait_blocked(&q, 1);
            q.close();
            assert!(matches!(producer.join().unwrap(), Err(Closed('b'))));
        });
        assert_eq!(q.len(), 1, "the refused batch left nothing behind");
    }

    #[test]
    fn claim_more_stays_on_its_batch() {
        let q = BoundedQueue::new(8);
        q.push('a', 3).unwrap();
        q.push('b', 1).unwrap();
        let (a, first) = q.claim().unwrap();
        assert_eq!((*a, first), ('a', 0));
        // A second consumer shares the front batch…
        assert_eq!(claimed(&q), Some(('a', 1)));
        // …the first keeps going on it until it runs out, and is never
        // handed a unit of the batch behind it.
        assert_eq!(q.claim_more(&a), Some(2));
        assert_eq!(q.claim_more(&a), None);
        assert_eq!(q.len(), 1);
        assert_eq!(claimed(&q), Some(('b', 0)));
        assert_eq!(q.claim_more(&a), None, "empty queue");
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything() {
        let q = BoundedQueue::new(8);
        // Producer p pushes 100 batches of 1..=5 units (some oversized for
        // the spare room, so the blocking path runs); every (batch, unit)
        // must be claimed exactly once.
        let units = |i: u64| (i % 5 + 1) as usize;
        let mut seen: Vec<(u64, usize)> = thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some((batch, index)) = q.claim() {
                            got.push((*batch, index));
                        }
                        got
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4u64)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..100 {
                            q.push(p * 1000 + i, units(i)).unwrap();
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        seen.sort_unstable();
        let expected: Vec<(u64, usize)> = (0..4u64)
            .flat_map(|p| (0..100).map(move |i| (p * 1000 + i, units(i))))
            .flat_map(|(batch, n)| (0..n).map(move |index| (batch, index)))
            .collect();
        assert_eq!(seen, expected);
    }
}
