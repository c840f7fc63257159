//! Deterministic discrete-event simulation substrate for the protocol
//! service decomposition reproduction.
//!
//! The paper's measurements (Maeda & Bershad, SOSP 1993) were taken on
//! DECstation 5000/200 and Gateway i486 hardware over 10 Mb/s Ethernet.
//! This crate replaces that hardware with a virtual clock and a calibrated
//! cost model: code in the upper crates really executes every copy,
//! checksum, lock and protection-boundary crossing on real packet bytes,
//! and *charges* the calibrated unit cost of each operation to virtual
//! time. Configurations therefore differ only in which operations occur,
//! never in bespoke latency constants — the property that makes the
//! reproduction honest.
//!
//! The main types are:
//!
//! - [`Sim`]: the event loop and virtual clock.
//! - [`Cpu`]: a serializing processor resource on which code paths
//!   accumulate charges through a [`Charge`] cursor.
//! - [`CostModel`]: per-operation unit costs, calibrated against the
//!   paper's Table 4 layer breakdown.
//! - [`Observers`]: the one set of attachable observability planes
//!   (census, fault plane, packet tracer, charged-time profiler) that
//!   every [`Observable`] — CPUs and wire elements — takes through
//!   `set_observers`.
//! - [`Profiler`]: site- and [`Layer`]-keyed attribution of charged
//!   time; Table 4 is its per-layer projection.
//! - [`Rng`]: a deterministic PRNG for loss/reorder schedules.

pub mod census;
pub mod cost;
pub mod cpu;
pub mod engine;
pub mod fault;
mod layer;
pub mod metrics;
pub mod profile;
/// Test oracle for `tests/engine_equivalence.rs`.
#[doc(hidden)]
pub mod reference;
pub mod rng;
mod smallfn;
pub mod time;
pub mod trace;
mod wheel;

pub use census::{Census, CensusHandle, Domain, OpKind};
pub use cost::{CostModel, Platform};
pub use cpu::{Charge, Cpu, Observable, Observers};
pub use engine::{Sim, SimHandle};
pub use fault::{FaultPlane, FaultPlaneHandle, FaultSite};
pub use layer::Layer;
pub use metrics::{Metrics, MetricsHandle};
pub use profile::{HotSite, ProfileHandle, Profiler};
pub use rng::Rng;
pub use smallfn::{SmallFn, INLINE_BYTES};
pub use time::SimTime;
pub use trace::{
    chrome_trace_document, DropCounters, DropReason, Stage, Terminal, TraceHandle, TraceId, Tracer,
};
pub use wheel::WheelStats;
