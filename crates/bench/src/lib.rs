//! The benchmark harness: the paper's two microbenchmarks and the
//! table generators.
//!
//! - [`ttcp`]: "a memory-to-memory throughput benchmark for TCP that
//!   transfers 16 MB of data from one host to another".
//! - [`protolat`]: "a program that measures protocol round trip latency
//!   for UDP and TCP".
//!
//! Both are written event-driven against the [`psd_core::AppLib`]
//! proxy interface — the same socket API every configuration exports —
//! so a single workload implementation measures all eight systems.

pub mod cli;
pub mod json;
pub mod observe;
pub mod table6;
pub mod tables;
pub mod workload;
pub mod workloads;

pub use workload::{session_scaling, ScaleReport, WorkloadSpec};
pub use workloads::{protolat, ttcp, ApiStyle, ProtolatResult, TtcpResult};
