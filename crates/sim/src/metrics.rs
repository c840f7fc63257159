//! Virtual-time-sampled gauge plane.
//!
//! A [`Metrics`] registry holds named gauges — closures returning a
//! `u64` snapshot of some component state (queue depth, ring occupancy,
//! cwnd, pool hit count). The [`Sim`](crate::engine::Sim) run loop
//! samples every registered gauge on a fixed virtual-time cadence set
//! by [`Sim::set_metrics_sampler`](crate::engine::Sim::set_metrics_sampler).
//!
//! The sampling is strictly inert by construction: the engine takes
//! samples *between* events, directly in the run loop — no event is
//! scheduled, no sequence number is consumed, no randomness is drawn,
//! and the virtual clock is never advanced by a sample. A run with
//! sampling enabled is byte-identical to one without, which
//! `tests/observability.rs` asserts over seeded workloads.
//!
//! Gauges are sampled in registration order and every sample carries
//! every gauge, so the exported timeseries is order-stable: same seed,
//! same bytes. All gauge values are integers (`u64`) — no float
//! formatting ambiguity can leak into artifacts.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::time::SimTime;

/// Shared handle to a metrics registry.
pub type MetricsHandle = Rc<RefCell<Metrics>>;

/// A named-gauge registry plus the samples taken so far.
pub struct Metrics {
    gauges: Vec<(String, Box<dyn Fn() -> u64>)>,
    samples: Vec<(u64, Vec<u64>)>,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("gauges", &self.gauges.len())
            .field("samples", &self.samples.len())
            .finish()
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub(crate) fn new() -> Metrics {
        Metrics {
            gauges: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Creates a shared registry handle.
    pub fn shared() -> MetricsHandle {
        Rc::new(RefCell::new(Metrics::new()))
    }

    /// Registers a gauge. Registration order is export order; register
    /// everything before sampling starts so every sample row has the
    /// same width.
    pub fn register(&mut self, name: impl Into<String>, f: impl Fn() -> u64 + 'static) {
        assert!(
            self.samples.is_empty(),
            "register gauges before sampling starts"
        );
        self.gauges.push((name.into(), Box::new(f)));
    }

    /// The registered gauge names, in registration (= export) order.
    pub fn gauge_names(&self) -> Vec<&str> {
        self.gauges.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Reads every gauge and appends one sample row at virtual time
    /// `now`. Called by the engine's run loop; callable directly for
    /// one-shot snapshots.
    pub fn sample(&mut self, now: SimTime) {
        let row = self.gauges.iter().map(|(_, f)| f()).collect();
        self.samples.push((now.as_nanos(), row));
    }

    /// The samples taken so far: `(t_ns, values)` with `values` parallel
    /// to [`Metrics::gauge_names`].
    pub fn samples(&self) -> &[(u64, Vec<u64>)] {
        &self.samples
    }

    /// Number of samples taken.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use std::cell::Cell;

    #[test]
    fn gauges_sample_in_registration_order() {
        let m = Metrics::shared();
        let v = Rc::new(Cell::new(3u64));
        let v2 = v.clone();
        m.borrow_mut().register("a", move || v2.get());
        m.borrow_mut().register("b", || 7);
        m.borrow_mut().sample(SimTime::from_micros(1));
        v.set(5);
        m.borrow_mut().sample(SimTime::from_micros(2));
        let mm = m.borrow();
        assert_eq!(mm.gauge_names(), vec!["a", "b"]);
        assert_eq!(
            mm.samples(),
            &[(1_000, vec![3, 7]), (2_000, vec![5, 7])][..]
        );
    }

    #[test]
    fn engine_samples_on_cadence_without_events() {
        let mut sim = Sim::new(1);
        let m = Metrics::shared();
        let ticks = Rc::new(Cell::new(0u64));
        let t2 = ticks.clone();
        m.borrow_mut().register("ticks", move || t2.get());
        sim.set_metrics_sampler(m.clone(), SimTime::from_micros(10));
        // Events at 5, 25, 60 µs; period 10 µs.
        for &t in &[5u64, 25, 60] {
            let ticks = ticks.clone();
            sim.at(SimTime::from_micros(t), move |_| {
                ticks.set(ticks.get() + 1);
            });
        }
        let pending_before = sim.pending();
        assert_eq!(pending_before, 3, "sampler schedules no events");
        sim.run_to_idle();
        // Samples at 0,10,20,...,60 — boundaries at or before each event
        // time, each taken before same-instant events execute.
        let mm = m.borrow();
        let times: Vec<u64> = mm.samples().iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![0, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000]
        );
        // The 60 µs sample is taken before the 60 µs event runs.
        assert_eq!(mm.samples().last().unwrap().1, vec![2]);
        assert_eq!(sim.executed(), 3, "sampling consumed no events");
    }

    #[test]
    fn run_until_samples_through_the_idle_tail() {
        let mut sim = Sim::new(1);
        let m = Metrics::shared();
        m.borrow_mut().register("one", || 1);
        sim.set_metrics_sampler(m.clone(), SimTime::from_micros(100));
        sim.at(SimTime::from_micros(50), |_| {});
        sim.run_until(SimTime::from_micros(350));
        let times: Vec<u64> = m.borrow().samples().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![0, 100_000, 200_000, 300_000]);
        assert_eq!(sim.now(), SimTime::from_micros(350));
    }

    #[test]
    fn sampler_is_inert_for_event_order_and_clock() {
        fn run(sample: bool) -> (u64, u64, Vec<u64>) {
            let mut sim = Sim::new(42);
            if sample {
                let m = Metrics::shared();
                m.borrow_mut().register("x", || 0);
                sim.set_metrics_sampler(m, SimTime::from_nanos(777));
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..50u64 {
                let log = log.clone();
                let jitter = (i * 7919) % 1000;
                sim.at(SimTime::from_nanos(jitter * 100), move |s| {
                    log.borrow_mut().push(s.now().as_nanos() * 100 + i);
                });
            }
            sim.run_to_idle();
            let log = Rc::try_unwrap(log).unwrap().into_inner();
            (sim.now().as_nanos(), sim.executed(), log)
        }
        assert_eq!(run(false), run(true));
    }
}
