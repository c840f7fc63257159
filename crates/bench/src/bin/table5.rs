//! Generates Table 5: demultiplexing cost as the session count scales.
//!
//! The paper's tables stop at two sessions, but its §3.1 argument is
//! asymptotic: CSPF evaluates every installed session filter per
//! packet, while MPF dispatches through a shared prefix whose cost does
//! not depend on the session count. This table drives the
//! session-scaling workload engine at N ∈ {16, 256, 4096} sessions
//! across every placement and both strategies and reports the observed
//! per-packet filter cost, the control-RPC latency at full load, and
//! the virtual-time cost per delivered packet.
//!
//! ```text
//! usage: table5 [--quick] [--census] [--census-json PATH] [--trace-out PATH] [--profile] [--profile-out PATH]
//! ```
//!
//! Everything on stdout is deterministic: two runs with the same
//! arguments are byte-identical (census included). Wall-clock progress
//! goes to stderr only. `--trace-out` writes a Chrome trace-event JSON
//! covering every run (one trace process per `(config, strategy, N)`
//! cell); `--census-json` writes the per-cell receive-host census as
//! JSON. Neither flag changes the table output.
//!
//! `--profile` attaches the charged-time profiler to every cell's
//! testbed, asserts exact conservation (attributed ns == CPU busy ns,
//! bit-exact, per host), and prints hot-site tables to stderr;
//! `--profile-out <path>` writes the collapsed-stack artifact. Both
//! are charged-time-neutral: stdout is byte-identical either way.

use psd_bench::cli::Args;

fn main() {
    match psd_bench::render::table5(Args::from_env("table5")) {
        Ok(table) => print!("{table}"),
        Err(violation) => violation.exit(),
    }
}
