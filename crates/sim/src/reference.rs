//! The pre-timer-wheel event queue, retained verbatim.
//!
//! Until the timer-wheel rework, [`Sim`](crate::engine::Sim) kept its
//! future events in a `BinaryHeap` of boxed closures and recorded
//! cancellations in an unbounded `HashSet` (which leaked an entry for
//! every cancel of an already-fired handle). This module preserves that
//! implementation, unchanged in behavior, as the reference model:
//! `tests/engine_equivalence.rs` drives this queue and the wheel with
//! identical seeded schedules and asserts identical pop order and
//! executed counts — the proof that the rework cannot move a byte of
//! any archived result.
//!
//! Nothing in the simulator proper uses this type.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// An event callback for the baseline queue.
pub(crate) type BaselineEventFn = Box<dyn FnOnce(&mut BaselineQueue)>;

/// A handle to a scheduled baseline event (the raw sequence number, as
/// in the original engine — no generation tag, so cancelling a fired
/// handle leaks a `HashSet` entry).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BaselineHandle(u64);

struct Entry {
    time: SimTime,
    seq: u64,
    f: BaselineEventFn,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        // Reverse so the max-heap pops the earliest `(time, seq)` first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The original `BinaryHeap` + `Box<dyn FnOnce>` + `HashSet` event loop.
#[derive(Default)]
pub struct BaselineQueue {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    cancelled: HashSet<u64>,
    executed: u64,
}

impl BaselineQueue {
    /// Creates an empty queue.
    pub fn new() -> BaselineQueue {
        BaselineQueue::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Size of the cancellation set (the structure the wheel's
    /// generation tags eliminate); exposed so the leak regression test
    /// can demonstrate the growth.
    pub fn cancelled_set_len(&self) -> usize {
        self.cancelled.len()
    }

    /// Schedules `f` at absolute time `t` (clamped to now).
    pub fn at(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut BaselineQueue) + 'static,
    ) -> BaselineHandle {
        let time = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry {
            time,
            seq,
            f: Box::new(f),
        });
        BaselineHandle(seq)
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn after(
        &mut self,
        delay: SimTime,
        f: impl FnOnce(&mut BaselineQueue) + 'static,
    ) -> BaselineHandle {
        self.at(self.now + delay, f)
    }

    /// Cancels a previously scheduled event.
    pub fn cancel(&mut self, handle: BaselineHandle) {
        self.cancelled.insert(handle.0);
    }

    fn pop_due(&mut self, horizon: SimTime) -> Option<Entry> {
        while let Some(head) = self.queue.peek() {
            if head.time > horizon {
                return None;
            }
            let entry = self.queue.pop().expect("peeked entry must pop");
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            return Some(entry);
        }
        None
    }

    /// Runs up to `limit` events; returns the number executed.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit {
            match self.pop_due(SimTime::MAX) {
                Some(entry) => {
                    self.now = entry.time;
                    self.executed += 1;
                    n += 1;
                    (entry.f)(self);
                }
                None => break,
            }
        }
        n
    }

    /// Runs events with time `<= deadline`, then advances the clock.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(entry) = self.pop_due(deadline) {
            self.now = entry.time;
            self.executed += 1;
            n += 1;
            (entry.f)(self);
        }
        if deadline > self.now {
            self.now = deadline;
        }
        n
    }

    /// Runs until the event queue is empty.
    pub fn run_to_idle(&mut self) -> u64 {
        self.run(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn baseline_orders_by_time_then_seq() {
        let mut q = BaselineQueue::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, &t) in [30u64, 10, 10, 20].iter().enumerate() {
            let log = log.clone();
            q.at(SimTime::from_micros(t), move |_| log.borrow_mut().push(i));
        }
        q.run_to_idle();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 0]);
        assert_eq!(q.executed(), 4);
    }

    #[test]
    fn baseline_leaks_cancels_of_fired_handles() {
        // The defect the wheel's generation tags fix: cancelling a
        // handle that already ran parks an id in the set forever.
        let mut q = BaselineQueue::new();
        let mut fired = Vec::new();
        for _ in 0..100 {
            fired.push(q.at(SimTime::ZERO, |_| {}));
        }
        q.run_to_idle();
        for h in fired {
            q.cancel(h);
        }
        assert_eq!(q.cancelled_set_len(), 100);
    }
}
