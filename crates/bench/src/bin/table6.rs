//! Table 6 CLI: the batched-NEWAPI sweep.
//!
//! ```text
//! usage: table6 [--census-json PATH] [--trace-out PATH] [--profile] [--profile-out PATH]
//! ```
//!
//! Prints the table to stdout. Every number in it is virtual time or a
//! deterministic counter, so the committed `results_table6.txt` is a
//! full run's stdout and `tests/archives.rs` byte-diffs a fresh run
//! against it, as it does tables 2–5. The run itself asserts the hard
//! invariants (lossless burst, crossings exactly packets/B) and exits
//! 1 if the monotone-decrease acceptance trend fails.
//!
//! The observability flags match the other table bins: `--census-json`
//! writes per-cell census snapshots, `--trace-out` writes a Chrome
//! trace (one trace process per cell), `--profile` attaches the
//! charged-time profiler (conservation checked, hot-site tables to
//! stderr), and `--profile-out` writes the collapsed-stack artifact.
//! None of them changes the table.

use psd_bench::cli::Args;

fn main() {
    match psd_bench::render::table6(Args::from_env("table6")) {
        Ok(table) => print!("{table}"),
        Err(violation) => violation.exit(),
    }
}
