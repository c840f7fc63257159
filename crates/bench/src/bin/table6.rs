//! Table 6 CLI: the batched-NEWAPI sweep.
//!
//! ```text
//! usage: table6 [--census-json PATH] [--trace-out PATH] [--profile] [--profile-out PATH]
//! ```
//!
//! Prints the table to stdout. Every number in it is virtual time or a
//! deterministic counter, so the committed `results_table6.txt` is a
//! full run's stdout and CI byte-diffs a fresh run against it, as it
//! does tables 2–5. The run itself asserts the hard invariants
//! (lossless burst, crossings exactly packets/B) and the
//! monotone-decrease acceptance trend.
//!
//! The observability flags match the other table bins: `--census-json`
//! writes per-cell census snapshots, `--trace-out` writes a Chrome
//! trace (one trace process per cell), `--profile` attaches the
//! charged-time profiler (conservation checked, hot-site tables to
//! stderr), and `--profile-out` writes the collapsed-stack artifact.
//! None of them changes the table.

use std::process::ExitCode;

use psd_bench::cli::Args;
use psd_bench::observe::{Flag, Session};
use psd_bench::table6;

fn main() -> ExitCode {
    let mut args = Args::from_env("table6");
    let mut obs = Session::parse(
        &mut args,
        &[
            Flag::CensusJson,
            Flag::TraceOut,
            Flag::Profile,
            Flag::ProfileOut,
        ],
    );
    args.finish();

    let bench = table6::run(&mut obs);
    print!("{}", bench.table());
    if let Err(e) = bench.check_monotone() {
        eprintln!("table6: MONOTONICITY FAILED — {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("table6: crossings and busy ns decrease monotonically in B");
    obs.finish("table6", table6::SEED);
    ExitCode::SUCCESS
}
