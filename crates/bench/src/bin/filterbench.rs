//! Filter microbenchmark CLI.
//!
//! ```text
//! usage: filterbench [--quick] [--json PATH] [--digest PATH] [--census-json PATH] [--trace-out PATH]
//! ```
//!
//! Prints the human table to stdout. `--json` writes the machine
//! artifact (the committed `BENCH_8.json` is a full run's output).
//! `--digest` writes the *normalized* artifact — volatile wall-clock
//! fields zeroed — which must be byte-identical between two same-seed
//! runs (CI runs twice and diffs the digests). CI gates ns/match in the
//! (Cspf, Compiled, 4096) cell with `benchdiff --check BENCH_8.json`
//! and validates the artifact with `benchdiff --validate`.
//!
//! `--census-json` / `--trace-out` export the same observability
//! surface as the table bins. The microbenchmark itself runs outside
//! the simulator, so these flags drive a small sim-backed demux
//! workload (seed 77, one cell per strategy) with the census and packet
//! tracer attached to the real kernel filter path; the benchmark table
//! is unaffected and both files are byte-identical across reruns.

use psd_bench::cli::Args;
use psd_bench::filterbench;
use psd_bench::json::normalized_text;
use psd_bench::observe::{write_artifact, Flag, Session};
use psd_bench::workload::{session_scaling, strategy_label, WorkloadSpec};
use psd_filter::DemuxStrategy;
use psd_sim::Platform;
use psd_systems::SystemConfig;

fn main() {
    let mut args = Args::from_env("filterbench");
    let quick = args.flag("--quick");
    let json_path = args.value("--json", "PATH");
    let digest_path = args.value("--digest", "PATH");
    let mut obs = Session::parse(&mut args, &[Flag::CensusJson, Flag::TraceOut]);
    args.finish();

    let bench = filterbench::run(quick);
    print!("{}", bench.table());
    let artifact = bench.to_json();
    if let Some(path) = &json_path {
        write_artifact("filterbench", "artifact", path, &artifact.write());
    }
    if let Some(path) = &digest_path {
        let digest = normalized_text(&artifact, filterbench::VOLATILE_FIELDS);
        write_artifact("filterbench", "normalized digest", path, &digest);
    }

    let planes = obs.planes();
    if planes.census || planes.trace.is_some() {
        for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
            let spec = WorkloadSpec::at_scale(64, 128, filterbench::SEED);
            let r = session_scaling(
                SystemConfig::LibraryShm,
                Platform::DecStation5000_200,
                strategy,
                &spec,
                &obs.planes(),
            );
            let label = format!("demux [{}]", strategy_label(strategy));
            if let Some(c) = r.census {
                obs.census_row(&label, c.json_members());
            }
            obs.record(&label, &r.observed);
        }
    }
    obs.finish("filterbench", filterbench::SEED);
}
