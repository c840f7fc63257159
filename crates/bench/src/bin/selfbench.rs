//! Simulator self-benchmark CLI.
//!
//! ```text
//! usage: selfbench [--quick] [--json PATH]
//! ```
//!
//! Prints the human table to stdout. `--json` writes the machine
//! artifact (the committed `BENCH_6.json` is a full run's output). CI
//! gates the wheel's events/sec at 64k timers with `benchdiff --check
//! BENCH_6.json` and validates the artifact with `benchdiff --validate`.

use psd_bench::cli::Args;
use psd_bench::observe::write_artifact;
use psd_bench::selfbench;

fn main() {
    let mut args = Args::from_env("selfbench");
    let quick = args.flag("--quick");
    let json_path = args.value("--json", "PATH");
    args.finish();

    let bench = selfbench::run(quick);
    print!("{}", bench.table());
    if let Some(path) = &json_path {
        write_artifact("selfbench", "artifact", path, &bench.to_json().write());
    }
}
