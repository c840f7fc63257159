//! The discrete-event loop.
//!
//! Components are ordinary Rust state machines (usually behind
//! `Rc<RefCell<…>>`); they interact by calling each other synchronously
//! within an event, and by scheduling future events on the [`Sim`]. All
//! entry points thread `&mut Sim` as an ambient context, so there is a
//! single virtual clock and a single totally-ordered event queue, which
//! makes every run exactly reproducible for a given seed.
//!
//! The queue is a hierarchical timer wheel (the private `wheel` module;
//! its counters are [`WheelStats`]) over slab-allocated entries with
//! inline closure storage ([`SmallFn`]): steady-state scheduling does no
//! per-event heap traffic, and cancellation is O(1) against
//! generation-tagged handles. It pops in exactly the same total
//! `(time, seq)` order as the original `BinaryHeap` engine (retained as
//! [`reference::BaselineQueue`](crate::reference::BaselineQueue) and
//! checked by `tests/engine_equivalence.rs`), so same-seed runs are
//! byte-identical across the rework.

use crate::metrics::MetricsHandle;
use crate::rng::Rng;
use crate::smallfn::SmallFn;
use crate::time::SimTime;
use crate::wheel::{TimerWheel, WheelStats};

/// A handle to a scheduled event, usable to cancel it (e.g. TCP timers).
///
/// Internally `(generation << 32) | slab_index`. The generation is
/// bumped every time the slab slot is reclaimed, so a handle kept after
/// its event fired (or was cancelled) goes permanently stale: it can
/// never cancel an unrelated event that later reuses the slot, and
/// cancelling it costs nothing and stores nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SimHandle(u64);

impl SimHandle {
    fn new(idx: u32, gen: u32) -> SimHandle {
        SimHandle(((gen as u64) << 32) | idx as u64)
    }

    fn parts(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// The virtual-time gauge sampler threaded through the run loop (see
/// [`crate::metrics`]). Deliberately not an event: sampling between
/// events consumes no sequence numbers, schedules nothing, and cannot
/// perturb the workload.
struct Sampler {
    metrics: MetricsHandle,
    period: SimTime,
    next: SimTime,
}

/// The simulation: virtual clock, event queue, and root PRNG.
pub struct Sim {
    now: SimTime,
    seq: u64,
    wheel: TimerWheel,
    rng: Rng,
    executed: u64,
    spilled: u64,
    sampler: Option<Sampler>,
}

impl Sim {
    /// Creates an empty simulation with the given PRNG seed.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            wheel: TimerWheel::new(),
            rng: Rng::new(seed),
            executed: 0,
            spilled: 0,
            sampler: None,
        }
    }

    /// Installs a metrics sampler: every registered gauge is read on a
    /// fixed virtual-time cadence, starting at the current instant. The
    /// sampler lives in the run loop, not the event queue — it is
    /// observationally inert (no events, no sequence numbers, no RNG),
    /// so a sampled run is byte-identical to an unsampled one.
    pub fn set_metrics_sampler(&mut self, metrics: MetricsHandle, period: SimTime) {
        assert!(period > SimTime::ZERO, "sampling period must be positive");
        self.sampler = Some(Sampler {
            metrics,
            period,
            next: self.now,
        });
    }

    /// Removes the metrics sampler, returning its registry.
    pub fn clear_metrics_sampler(&mut self) -> Option<MetricsHandle> {
        self.sampler.take().map(|s| s.metrics)
    }

    /// Takes every sample due at or before `upto`. Runs between events,
    /// so gauge closures see quiescent component state.
    fn sample_to(&mut self, upto: SimTime) {
        if let Some(s) = &mut self.sampler {
            while s.next <= upto {
                let at = s.next;
                s.metrics.borrow_mut().sample(at);
                s.next = at + s.period;
            }
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostic).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently scheduled and not cancelled
    /// (diagnostic).
    pub fn pending(&self) -> usize {
        self.wheel.live()
    }

    /// Number of events scheduled so far whose closure was too large for
    /// [`SmallFn`]'s inline storage and cost a heap allocation
    /// (diagnostic; zero on the packet path).
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Queue-side memory accounting, for the leak regression tests and
    /// the self-benchmark.
    pub fn queue_stats(&self) -> WheelStats {
        self.wheel.stats()
    }

    /// The root PRNG. Components should [`Rng::fork`] their own streams at
    /// setup time so that adding a component does not perturb others.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Schedules `f` to run at absolute time `t` (clamped to now).
    pub fn at<F: FnOnce(&mut Sim) + 'static>(&mut self, t: SimTime, f: F) -> SimHandle {
        // A constant per closure type: adds nothing when `F` is inline.
        self.spilled += u64::from(!SmallFn::would_inline::<F>());
        let time = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.wheel.sync(self.now.as_nanos());
        let (idx, gen) = self.wheel.insert(time.as_nanos(), seq, SmallFn::new(f));
        SimHandle::new(idx, gen)
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn after(&mut self, delay: SimTime, f: impl FnOnce(&mut Sim) + 'static) -> SimHandle {
        self.at(self.now + delay, f)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already run (or was already cancelled) is a no-op — and, unlike
    /// the original `HashSet` engine, stores nothing.
    pub fn cancel(&mut self, handle: SimHandle) {
        let (idx, gen) = handle.parts();
        self.wheel.cancel(idx, gen);
    }

    fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, SmallFn)> {
        self.wheel
            .pop_due(horizon.as_nanos())
            .map(|(when, f)| (SimTime::from_nanos(when), f))
    }

    /// Runs events until the queue is exhausted or `limit` events have run.
    /// Returns the number of events executed.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit {
            match self.pop_due(SimTime::MAX) {
                Some((time, f)) => {
                    if self.sampler.is_some() {
                        self.sample_to(time);
                    }
                    self.now = time;
                    self.executed += 1;
                    n += 1;
                    f.call(self);
                }
                None => break,
            }
        }
        n
    }

    /// Runs events with time ≤ `deadline`, then advances the clock to
    /// `deadline`. Returns the number of events executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some((time, f)) = self.pop_due(deadline) {
            if self.sampler.is_some() {
                self.sample_to(time);
            }
            self.now = time;
            self.executed += 1;
            n += 1;
            f.call(self);
        }
        if self.sampler.is_some() {
            self.sample_to(deadline);
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

    /// True if no runnable events remain.
    pub fn is_idle(&mut self) -> bool {
        // The wheel tracks live (non-cancelled) entries exactly, so no
        // draining is needed to answer accurately.
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for &t in &[30u64, 10, 20] {
            let log = log.clone();
            sim.at(SimTime::from_micros(t), move |s| {
                log.borrow_mut().push(s.now().as_micros());
            });
        }
        sim.run_to_idle();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn ties_run_in_schedule_order() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.at(SimTime::from_micros(7), move |_| log.borrow_mut().push(i));
        }
        sim.run_to_idle();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling_works() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        sim.after(SimTime::from_micros(5), move |s| {
            log2.borrow_mut().push("outer");
            let log3 = log2.clone();
            s.after(SimTime::from_micros(5), move |_| {
                log3.borrow_mut().push("inner");
            });
        });
        sim.run_to_idle();
        assert_eq!(*log.borrow(), vec!["outer", "inner"]);
        assert_eq!(sim.now(), SimTime::from_micros(10));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(false));
        let f2 = fired.clone();
        let h = sim.after(SimTime::from_micros(1), move |_| *f2.borrow_mut() = true);
        sim.cancel(h);
        sim.run_to_idle();
        assert!(!*fired.borrow());
    }

    #[test]
    fn cancel_after_run_is_noop() {
        let mut sim = Sim::new(1);
        let h = sim.after(SimTime::ZERO, |_| {});
        sim.run_to_idle();
        sim.cancel(h);
        assert!(sim.is_idle());
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Sim::new(1);
        sim.after(SimTime::from_micros(3), |_| {});
        let n = sim.run_until(SimTime::from_micros(10));
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_micros(10));
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(0));
        for &t in &[5u64, 15] {
            let f = fired.clone();
            sim.at(SimTime::from_micros(t), move |_| *f.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_micros(10));
        assert_eq!(*fired.borrow(), 1);
        assert!(!sim.is_idle());
        sim.run_to_idle();
        assert_eq!(*fired.borrow(), 2);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Sim::new(1);
        let when = Rc::new(RefCell::new(SimTime::ZERO));
        let w = when.clone();
        sim.after(SimTime::from_micros(10), move |s| {
            let w2 = w.clone();
            s.at(SimTime::ZERO, move |s2| *w2.borrow_mut() = s2.now());
        });
        sim.run_to_idle();
        assert_eq!(*when.borrow(), SimTime::from_micros(10));
    }

    #[test]
    fn cancelling_fired_handles_stores_nothing() {
        // Regression for the original engine's unbounded `cancelled`
        // HashSet: cancelling 100k already-fired handles must leave
        // queue-side memory bounded (here: identically empty).
        let mut sim = Sim::new(1);
        let mut handles = Vec::new();
        for i in 0..100_000u64 {
            handles.push(sim.at(SimTime::from_nanos(i), |_| {}));
        }
        let baseline_slab = {
            sim.run_to_idle();
            sim.queue_stats().slab_slots
        };
        for h in handles {
            sim.cancel(h);
        }
        let s = sim.queue_stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.cancelled_pending, 0, "dead cancels store nothing");
        assert_eq!(s.slab_slots, baseline_slab, "slab did not grow");
        assert_eq!(sim.executed(), 100_000);
    }

    #[test]
    fn stale_handle_cannot_cancel_slot_reuser() {
        // ABA safety: a handle whose event fired must not cancel the
        // unrelated event that reuses its slab slot.
        let mut sim = Sim::new(1);
        let stale = sim.at(SimTime::ZERO, |_| {});
        sim.run_to_idle();

        let fired = Rc::new(RefCell::new(false));
        let f2 = fired.clone();
        let fresh = sim.after(SimTime::from_micros(1), move |_| *f2.borrow_mut() = true);
        // The slab reuses slot 0, so the raw indices collide; only the
        // generation distinguishes them.
        sim.cancel(stale);
        assert_eq!(sim.pending(), 1, "stale cancel did not touch new event");
        sim.run_to_idle();
        assert!(*fired.borrow(), "new event still ran");
        // And the fresh handle itself is now stale too.
        sim.cancel(fresh);
        assert_eq!(sim.queue_stats().cancelled_pending, 0);
    }

    #[test]
    fn mixed_level_schedule_matches_total_order() {
        // Spread expiries across several wheel levels, including exact
        // slot boundaries, and check global (time, seq) order.
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let times = [
            0u64,
            63,
            64,
            65,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 1,
            1 << 45,
            7,
            7,
        ];
        for (i, &t) in times.iter().enumerate() {
            let log = log.clone();
            sim.at(SimTime::from_nanos(t), move |s| {
                log.borrow_mut().push((s.now().as_nanos(), i));
            });
        }
        sim.run_to_idle();
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_unstable();
        assert_eq!(*log.borrow(), expect);
    }
}
