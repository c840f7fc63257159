//! The simulator self-benchmark: how fast is the harness itself?
//!
//! The paper's scaling argument is asymptotic, so the reproduction's
//! reach is capped by the *simulator's* wall-clock speed, not the
//! modeled systems'. This module measures the event engine's share of
//! that speed and emits the `BENCH_*.json` artifact the CI regression
//! gate pins: the **engine microbenchmark** — N resident keepalive
//! timers with cancel/reschedule churn, the queue access pattern a
//! large session count produces — run on the timer-wheel engine
//! ([`psd_sim::Sim`]). End-to-end packet-path speed is `psdbench`'s job
//! (`benchmark/`), which measures it sustained and with dispersion.
//!
//! Every count in the artifact is deterministic for a given seed; only
//! the `wall_ms` / `*_per_sec` / `ns_per_*` fields depend on the
//! machine. `--quick` shrinks the matrix for CI while keeping the
//! 64k-timer engine row the regression gate compares.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use psd_sim::{Sim, SimHandle, SimTime};

use crate::json::Json;

/// Seed for every selfbench run.
pub const SEED: u64 = 42;

/// JSON members that legitimately differ between same-seed runs.
pub const VOLATILE_FIELDS: &[&str] = &["wall_ms", "events_per_sec", "ns_per_event"];

/// One engine-microbenchmark measurement.
#[derive(Clone, Copy, Debug)]
pub struct EngineRow {
    /// Resident timers.
    pub timers: usize,
    /// Events executed (deterministic).
    pub events: u64,
    /// Wall-clock nanoseconds for the measured run.
    pub wall_ns: u128,
}

impl EngineRow {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// A complete self-benchmark result.
#[derive(Clone, Debug)]
pub struct SelfBench {
    /// True when run with the reduced `--quick` matrix.
    pub quick: bool,
    /// Wheel-engine rows, by timer count.
    pub wheel: Vec<EngineRow>,
}

/// The timer period for slot `i`: 1–250 ms, spread
/// deterministically so expiries land across wheel levels.
fn period_ns(i: usize) -> u64 {
    1_000_000 + (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 249_000_000
}

/// Runs the engine microbenchmark on the timer-wheel engine: `n`
/// resident timers; each firing re-arms itself and *resets* a
/// pseudo-random neighbor's timer — cancel plus re-arm, the operation a
/// TCP stack performs on its retransmit timer for every ACK it receives
/// (the workload hierarchical wheels were designed for). Executes
/// `events` events.
pub fn engine_micro_wheel(n: usize, events: u64) -> EngineRow {
    let mut sim = Sim::new(SEED);
    let handles: Rc<RefCell<Vec<SimHandle>>> = Rc::new(RefCell::new(Vec::with_capacity(n)));

    fn arm(sim: &mut Sim, i: usize, n: usize, handles: &Rc<RefCell<Vec<SimHandle>>>) -> SimHandle {
        let handles = handles.clone();
        sim.after(SimTime::from_nanos(period_ns(i)), move |s| {
            let fired = s.executed();
            let h = arm(s, i, n, &handles);
            handles.borrow_mut()[i] = h;
            // Reset a neighbor's timer, as an ACK resets retransmit.
            let j = (i.wrapping_mul(2_654_435_761) ^ fired as usize) % n;
            let old = handles.borrow()[j];
            s.cancel(old);
            let h = arm(s, j, n, &handles);
            handles.borrow_mut()[j] = h;
        })
    }

    for i in 0..n {
        let h = arm(&mut sim, i, n, &handles);
        handles.borrow_mut().push(h);
    }
    let t0 = Instant::now();
    let ran = sim.run(events);
    let wall_ns = t0.elapsed().as_nanos();
    assert_eq!(ran, events, "self-rearming timers cannot run dry");
    EngineRow {
        timers: n,
        events: ran,
        wall_ns,
    }
}

/// Runs the full (or `--quick`) self-benchmark.
pub fn run(quick: bool) -> SelfBench {
    // 65_536 must appear in both modes: it is the row the CI gate reads.
    let timer_counts: &[usize] = if quick {
        &[65_536]
    } else {
        &[4_096, 65_536, 262_144]
    };
    let events_per_timer: u64 = if quick { 2 } else { 4 };

    let wheel = timer_counts
        .iter()
        .map(|&n| engine_micro_wheel(n, (n as u64) * events_per_timer))
        .collect();

    SelfBench { quick, wheel }
}

impl SelfBench {
    /// A deterministic signature of the run: every count that must be
    /// identical between two same-seed executions.
    pub fn deterministic_signature(&self) -> String {
        let mut sig = String::new();
        for r in &self.wheel {
            sig.push_str(&format!("engine:{}:{};", r.timers, r.events));
        }
        sig
    }

    /// Serializes the artifact (see `BENCH.schema.json`).
    pub fn to_json(&self) -> Json {
        let engine_rows = |rows: &[EngineRow]| {
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("timers", Json::Num(r.timers as f64)),
                            ("events", Json::Num(r.events as f64)),
                            ("wall_ms", Json::Num(r.wall_ns as f64 / 1e6)),
                            ("events_per_sec", Json::Num(r.events_per_sec())),
                            (
                                "ns_per_event",
                                Json::Num(r.wall_ns as f64 / r.events as f64),
                            ),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("version", Json::Num(1.0)),
            ("bench", Json::str("selfbench")),
            ("seed", Json::Num(SEED as f64)),
            ("quick", Json::Bool(self.quick)),
            (
                "engine",
                Json::obj(vec![("wheel", engine_rows(&self.wheel))]),
            ),
        ])
    }

    /// The human-readable table printed to stdout.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("==== Simulator self-benchmark ====\n");
        out.push_str(&format!(
            "seed {SEED}; engine micro: resident timers, per-event neighbor reset (cancel + re-arm){}\n\n",
            if self.quick { " [quick]" } else { "" }
        ));
        out.push_str("engine         timers      events     events/sec   ns/event\n");
        for r in &self.wheel {
            out.push_str(&format!(
                "{:<12} {:>8} {:>11} {:>14.0} {:>10.1}\n",
                "wheel",
                r.timers,
                r.events,
                r.events_per_sec(),
                r.wall_ns as f64 / r.events as f64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_micro_is_deterministic_in_counts() {
        let a = engine_micro_wheel(512, 2048);
        let b = engine_micro_wheel(512, 2048);
        assert_eq!(a.events, b.events);
    }
}
