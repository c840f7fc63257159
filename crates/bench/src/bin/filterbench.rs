//! Filter microbenchmark CLI.
//!
//! ```text
//! filterbench [--quick] [--json PATH] [--digest PATH]
//!             [--check-baseline PATH] [--schema PATH]
//! ```
//!
//! Prints the human table to stdout. `--json` writes the machine
//! artifact (the committed `BENCH_8.json` is a full run's output).
//! `--digest` writes the *normalized* artifact — volatile wall-clock
//! fields zeroed — which must be byte-identical between two same-seed
//! runs (CI runs twice and diffs the digests). `--check-baseline`
//! compares this run's ns/match in the (Cspf, Compiled, 4096) cell
//! against a committed artifact and exits nonzero on a >20%
//! regression. `--schema` validates the artifact against a schema file
//! before writing it.
//!
//! `--census-json <path>` / `--trace-out <path>` export the same
//! observability surface as the table bins. The microbenchmark itself
//! runs outside the simulator, so these flags drive a small sim-backed
//! demux workload (seed 77, one cell per strategy) with the census and
//! packet tracer attached to the real kernel filter path; the
//! benchmark table is unaffected and both files are byte-identical
//! across reruns.

use std::process::ExitCode;

use psd_bench::filterbench;
use psd_bench::json::Json;
use psd_bench::workload::{session_scaling_with, WorkloadSpec};
use psd_filter::DemuxStrategy;
use psd_sim::Platform;
use psd_systems::SystemConfig;

/// Seed for the sim-backed observability runs (`--census-json` /
/// `--trace-out`); the microbenchmark itself is seedless.
const OBS_SEED: u64 = 77;

fn main() -> ExitCode {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut digest_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut schema_path: Option<String> = None;
    let mut census_json: Option<String> = None;
    let mut trace_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = args.next(),
            "--digest" => digest_path = args.next(),
            "--check-baseline" => baseline_path = args.next(),
            "--schema" => schema_path = args.next(),
            "--census-json" => census_json = args.next(),
            "--trace-out" => trace_out = args.next(),
            "--help" | "-h" => {
                println!(
                    "usage: filterbench [--quick] [--json PATH] [--digest PATH] \
                     [--check-baseline PATH] [--schema PATH] \
                     [--census-json PATH] [--trace-out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("filterbench: unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let bench = filterbench::run(quick);
    print!("{}", bench.table());
    let artifact = bench.to_json();

    if let Some(path) = &schema_path {
        let schema_text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("filterbench: cannot read schema {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = filterbench::validate_artifact(&artifact, &schema_text) {
            eprintln!("filterbench: artifact violates schema: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("filterbench: artifact validates against {path}");
    }

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, artifact.write()) {
            eprintln!("filterbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("filterbench: wrote {path}");
    }

    if let Some(path) = &digest_path {
        if let Err(e) = std::fs::write(path, filterbench::normalized_text(&artifact)) {
            eprintln!("filterbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("filterbench: wrote normalized digest to {path}");
    }

    if census_json.is_some() || trace_out.is_some() {
        let mut census_docs: Vec<String> = Vec::new();
        let mut trace_events = String::new();
        for (idx, strategy) in [DemuxStrategy::Cspf, DemuxStrategy::Mpf]
            .into_iter()
            .enumerate()
        {
            let label = match strategy {
                DemuxStrategy::Cspf => "CSPF",
                DemuxStrategy::Mpf => "MPF",
            };
            let spec = WorkloadSpec::at_scale(64, 128, OBS_SEED);
            let tracer = trace_out.is_some().then(psd_sim::Tracer::shared);
            let r = session_scaling_with(
                SystemConfig::LibraryShm,
                Platform::DecStation5000_200,
                strategy,
                &spec,
                census_json.is_some(),
                tracer.as_ref(),
            );
            if let Some(c) = r.census {
                census_docs.push(format!(
                    "{{\"strategy\":\"{label}\",\"sessions\":{},\"filter_runs\":{},\
                     \"body_copies\":{},\"crossings\":{},\"wakeups\":{}}}",
                    r.sessions, c.filter_runs, c.body_copies, c.crossings, c.wakeups
                ));
            }
            if let Some(t) = &tracer {
                let violations = t.borrow().check_invariants();
                assert!(violations.is_empty(), "trace invariants: {violations:?}");
                t.borrow().chrome_events(
                    idx as u64,
                    &format!("demux [{label}]"),
                    &mut trace_events,
                );
            }
        }
        if let Some(path) = &census_json {
            let doc = format!("{{\"cells\":[{}]}}\n", census_docs.join(","));
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("filterbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("filterbench: wrote census snapshot to {path}");
        }
        if let Some(path) = &trace_out {
            let doc = psd_sim::chrome_trace_document(&trace_events);
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("filterbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("filterbench: wrote Chrome trace to {path}");
        }
    }

    if let Some(path) = &baseline_path {
        let committed = match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match Json::parse(&text) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("filterbench: cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("filterbench: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match filterbench::check_against_baseline(&bench, &committed, 0.2) {
            Ok((ns, committed_ns)) => {
                eprintln!("filterbench: gate ok — {ns:.0} ns/match vs committed {committed_ns:.0}")
            }
            Err(e) => {
                eprintln!("filterbench: GATE FAILED — {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}
