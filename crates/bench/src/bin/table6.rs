//! Table 6 CLI: the batched-NEWAPI sweep.
//!
//! ```text
//! usage: table6 [--quick] [--json PATH] [--census-json PATH] [--trace-out PATH] [--profile] [--profile-out PATH]
//! ```
//!
//! Prints the human table to stdout. `--json` writes the machine
//! artifact (the committed `BENCH_9.json` is a full run's output).
//! Every field in the artifact is virtual-time or a deterministic
//! counter, so two same-seed runs are byte-identical with no
//! normalization — CI runs twice and diffs the files directly, gates
//! ns/pkt in every (config, eager, B=64) cell with `benchdiff --check
//! BENCH_9.json`, and validates the artifact with `benchdiff
//! --validate`. The run itself asserts the hard invariants (lossless
//! burst, crossings exactly packets/B) and the monotone-decrease
//! acceptance trend.
//!
//! The observability flags match the other table bins: `--census-json`
//! writes per-cell census snapshots, `--trace-out` writes a Chrome
//! trace (one trace process per cell), `--profile` attaches the
//! charged-time profiler (conservation checked, hot-site tables to
//! stderr), and `--profile-out` writes the collapsed-stack artifact.
//! None of them changes the table or the `--json` artifact.

use std::process::ExitCode;

use psd_bench::cli::Args;
use psd_bench::observe::{write_artifact, Flag, Session};
use psd_bench::table6;

fn main() -> ExitCode {
    let mut args = Args::from_env("table6");
    let quick = args.flag("--quick");
    let json_path = args.value("--json", "PATH");
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

    let bench = table6::run(quick, &mut obs);
    print!("{}", bench.table());
    if let Err(e) = bench.check_monotone() {
        eprintln!("table6: MONOTONICITY FAILED — {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("table6: crossings/pkt and ns/pkt decrease monotonically in B");
    obs.finish("table6", table6::SEED);
    if let Some(path) = &json_path {
        write_artifact("table6", "artifact", path, &bench.to_json().write());
    }
    ExitCode::SUCCESS
}
