//! The serving scheduler's blocking event queue.
//!
//! The event-driven session scheduler in `drugtree` (crates/core)
//! drives thousands of virtual-clock session state machines from one
//! coordinator thread plus a small worker pool. The two sides hand
//! work to each other through [`EventQueue`]: the coordinator mails
//! step commands to each worker's queue, and workers mail completions
//! back to the coordinator's queue. The queue is the scheduler's one
//! blocking primitive, so it is built on the loom-swappable
//! [`crate::sync`] shim and carries the no-lost-wakeup burden: a
//! completion pushed while the consumer is between "checked empty" and
//! "parked on the condvar" must still wake it — the classic race the
//! loom model check in `tests/loom_model.rs` drives, with a coalescer
//! completion and a deadline expiry pushed from different threads.
//!
//! Telemetry: [`EventQueue::stats`] counts pushes, pops and the number
//! of times the consumer actually blocked — the scheduler's contention
//! counters, reported by experiment E11 at fleet scale.

use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::telemetry::Counter;
use std::collections::VecDeque;

/// Counters describing one queue's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventQueueStats {
    /// Items pushed.
    pub pushed: u64,
    /// Items popped.
    pub popped: u64,
    /// Times a consumer found the queue empty and parked.
    pub waits: u64,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// An unbounded MPMC blocking queue on the loom-swappable sync shim.
///
/// Ordering guarantee: items from one producer are delivered in push
/// order; items from racing producers interleave in lock-acquisition
/// order. [`EventQueue::pop`] blocks until an item arrives or the
/// queue is closed *and* drained — closing never drops queued items,
/// so a completion pushed concurrently with `close` is still seen.
pub struct EventQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    pushed: Counter,
    popped: Counter,
    waits: Counter,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EventQueue")
            .field("pushed", &stats.pushed)
            .field("popped", &stats.popped)
            .field("waits", &stats.waits)
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// An empty, open queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            pushed: Counter::new(),
            popped: Counter::new(),
            waits: Counter::new(),
        }
    }

    /// Push one item and wake a waiting consumer. Pushing to a closed
    /// queue still enqueues (the consumer drains before observing the
    /// close), so no event submitted before the producer learned of
    /// shutdown is ever lost.
    pub fn push(&self, item: T) {
        {
            let mut state = self.lock();
            state.items.push_back(item);
        }
        self.pushed.add(1);
        // Notify after dropping the lock: a woken consumer can acquire
        // it immediately instead of bouncing back to sleep.
        self.ready.notify_one();
    }

    /// Close the queue: wake every parked consumer. Already-queued
    /// items remain poppable; once drained, `pop` returns `None`.
    pub fn close(&self) {
        {
            let mut state = self.lock();
            state.closed = true;
        }
        self.ready.notify_all();
    }

    /// Pop the oldest item, blocking while the queue is empty and
    /// open. Returns `None` only when the queue is closed *and* empty.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.popped.add(1);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.waits.add(1);
            state = self.wait(state);
        }
    }

    /// Pop without blocking: `None` when currently empty (closed or
    /// not).
    pub fn try_pop(&self) -> Option<T> {
        let item = self.lock().items.pop_front();
        if item.is_some() {
            self.popped.add(1);
        }
        item
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Traffic counters (contention telemetry).
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            pushed: self.pushed.get(),
            popped: self.popped.get(),
            waits: self.waits.get(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock()
    }

    fn wait<'a>(&self, mut guard: MutexGuard<'a, QueueState<T>>) -> MutexGuard<'a, QueueState<T>> {
        self.ready.wait(&mut guard);
        guard
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_one_producer() {
        let q = EventQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_drains_before_none() {
        let q = EventQueue::new();
        q.push("completion");
        q.close();
        assert_eq!(q.pop(), Some("completion"), "close never drops items");
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn blocking_pop_sees_cross_thread_push() {
        let q = Arc::new(EventQueue::new());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.push(41u32);
                q.push(42u32);
                q.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        producer.join().expect("producer joins");
        assert_eq!(got, vec![41, 42]);
        let stats = q.stats();
        assert_eq!(stats.pushed, 2);
        assert_eq!(stats.popped, 2);
    }

    #[test]
    fn stats_count_waits() {
        let q = Arc::new(EventQueue::<u8>::new());
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the consumer a chance to park, then wake it.
        while q.stats().waits == 0 {
            std::thread::yield_now();
        }
        q.push(7);
        assert_eq!(waiter.join().expect("waiter joins"), Some(7));
        assert!(q.stats().waits >= 1);
    }
}
