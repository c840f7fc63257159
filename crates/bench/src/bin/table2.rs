//! Regenerates Table 2: TCP throughput (ttcp) and TCP/UDP round-trip
//! latency (protolat) for every system configuration on both
//! platforms.
//!
//! ```text
//! usage: table2 [--quick] [--gateway] [--decstation] [--census] [--census-json PATH] [--faults] [--trace-out PATH] [--stages] [--profile] [--profile-out PATH] [--metrics-out PATH]
//! ```
//!
//! `--quick` transfers 2 MB instead of the paper's 16 MB and runs 50
//! latency rounds instead of 200. `--census` appends an operation
//! census (crossings, copies, locks, wakeups per host) for each
//! configuration's ttcp run; counting never charges virtual time, so
//! every numeric result is identical with or without it. `--faults`
//! attaches an (empty) fault plane to every run — no site is scripted
//! or armed, so the plane only counts visits and the output must be
//! byte-identical to a run without it (`tests/archives.rs` asserts this).
//!
//! `--trace-out <path>` writes a Chrome trace-event JSON file (load it
//! at `chrome://tracing` or in Perfetto) covering every latency run,
//! one trace process per table row. `--stages` prints per-stage
//! latency percentiles (p50/p90/p99) for each row's latency runs.
//! `--census-json <path>` writes the per-row census snapshots as JSON.
//! Tracing charges no virtual time and consumes no randomness, so the
//! table itself is byte-identical with or without these flags, and the
//! trace file is byte-identical across reruns (`tests/archives.rs` asserts
//! both).
//!
//! `--profile` attaches the charged-time profiler to every ttcp bed,
//! asserts the exact-conservation invariant (attributed ns equals CPU
//! busy ns, bit-exact, per host), and prints per-host hot-site tables
//! to **stderr** — stdout stays byte-identical to an unprofiled run.
//! `--profile-out <path>` additionally writes the collapsed-stack
//! profile artifact. `--metrics-out <path>` samples the virtual-time
//! gauge plane over each ttcp run (10 ms virtual period) and writes
//! the timeseries artifact. All three are charged-time-neutral.

use psd_bench::cli::Args;

fn main() {
    match psd_bench::render::table2(Args::from_env("table2")) {
        Ok(table) => print!("{table}"),
        Err(violation) => violation.exit(),
    }
}
