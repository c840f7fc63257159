//! `psdbench`: the two-clock, five-workload benchmark.
//!
//! ```text
//! psdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! psdbench [--seed <n>] [--seconds <s>] [--quick] [--out <file>]      every workload, both runs, report file
//! psdbench --compare <A.json> <B.json>                                 judge report B against report A
//! ```
//!
//! The *virtual* clock is what the modelled 1993 system does, exact per
//! seed; the *host* clock is how fast this simulator pushes a frame from
//! `Ethernet::transmit` to the application's `recv`. See `README.md`.

mod alloc;
mod bench;
mod drivers;
mod json;
mod probes;
mod report;
mod spans;
mod spec;

use std::process::ExitCode;

use bench::Plan;
use report::WorkloadReport;
use spec::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where traces and the default report file go, relative to the
/// checkout root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: None,
        quick: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn load(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return report::compare(&load(a)?, &load(b)?);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let one = |w: Workload, measured: bool, traced: bool| -> Result<WorkloadReport, String> {
        Ok(WorkloadReport {
            workload: w,
            measured: measured.then(|| bench::measure(w, plan)),
            traced: traced
                .then(|| bench::trace(w, plan, OUT_DIR))
                .transpose()
                .map_err(|e| format!("writing the trace: {e}"))?,
        })
    };

    if let Some(w) = args.workload {
        // The driver's protocol: one workload, one kind of run, and the
        // result as the last line of standard output.
        let traced = args.trace.unwrap_or(false);
        let r = one(w, !traced, traced)?;
        report::print_workload(&r);
        println!("{}", report::result_line(&r));
        return Ok(report::correct(&r));
    }

    let mut reports = Vec::new();
    for w in Workload::ALL {
        let r = one(w, args.trace != Some(true), args.trace != Some(false))?;
        report::print_workload(&r);
        reports.push(r);
    }
    let out = args.out.unwrap_or_else(|| format!("{OUT_DIR}/report.json"));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(
        &out,
        report::report_file(args.seed, args.seconds, args.quick, &reports),
    )
    .map_err(|e| format!("{out}: {e}"))?;
    println!("report: {out}");
    let failed: u64 = reports
        .iter()
        .map(|r| {
            r.measured.as_ref().map_or(0, |m| m.failed) + r.traced.as_ref().map_or(0, |t| t.failed)
        })
        .sum();
    if failed > 0 {
        println!("{failed} operations failed");
    }
    Ok(failed == 0 && reports.iter().all(report::correct))
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("psdbench: {e}");
            ExitCode::from(2)
        }
    }
}
