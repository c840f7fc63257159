//! Perf-trajectory and regression-gate CLI over `BENCH_*.json`
//! artifacts.
//!
//! ```text
//! benchdiff FILE FILE... [--tolerance X] [--json PATH] [--report PATH]
//! benchdiff --check BASELINE MEASURED [--tolerance X]
//! benchdiff --validate FILE --schema FILE
//! ```
//!
//! The first form prints a per-metric delta table between consecutive
//! artifacts (a trajectory when given the same benchmark's artifacts
//! over time); `--json`/`--report` write the machine/text reports for
//! the final pair. The second form is the CI regression gate: it
//! reproduces the cell-for-cell verdicts of the retired
//! `selfbench/filterbench/table6 --check-baseline` flags — one binary,
//! one exit code, any benchmark kind. The third form schema-validates
//! a single artifact and exits.

use std::process::ExitCode;

use psd_bench::benchdiff;
use psd_bench::json::{validate, Json};

fn read_artifact(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut tolerance = 0.2;
    let mut check = false;
    let mut validate_mode = false;
    let mut schema_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut report_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--validate" => validate_mode = true,
            "--schema" => schema_path = args.next(),
            "--json" => json_path = args.next(),
            "--report" => report_path = args.next(),
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("benchdiff: --tolerance needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: benchdiff FILE FILE... [--tolerance X] [--json PATH] [--report PATH]\n\
                     \x20      benchdiff --check BASELINE MEASURED [--tolerance X]\n\
                     \x20      benchdiff --validate FILE --schema FILE"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("benchdiff: unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }

    if validate_mode {
        let (Some(file), Some(schema_file)) = (files.first(), &schema_path) else {
            eprintln!("benchdiff: --validate needs FILE and --schema FILE");
            return ExitCode::FAILURE;
        };
        let artifact = match read_artifact(file) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("benchdiff: {e}");
                return ExitCode::FAILURE;
            }
        };
        let schema = match read_artifact(schema_file) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("benchdiff: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate(&artifact, &schema) {
            Ok(()) => {
                println!("benchdiff: {file} validates against {schema_file}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchdiff: {file} violates {schema_file}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if files.len() < 2 {
        eprintln!("benchdiff: need at least two artifacts (see --help)");
        return ExitCode::FAILURE;
    }

    if check {
        if files.len() != 2 {
            eprintln!("benchdiff: --check takes exactly BASELINE and MEASURED");
            return ExitCode::FAILURE;
        }
        let (baseline, measured) = match (read_artifact(&files[0]), read_artifact(&files[1])) {
            (Ok(b), Ok(m)) => (b, m),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("benchdiff: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match benchdiff::check(&baseline, &measured, tolerance) {
            Ok(lines) => {
                for line in lines {
                    println!("benchdiff: gate ok — {line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchdiff: GATE FAILED — {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Trajectory: consecutive pairwise deltas; reports cover the final
    // pair (typically "previous committed" vs "this run").
    let mut artifacts = Vec::new();
    for file in &files {
        match read_artifact(file) {
            Ok(v) => artifacts.push(v),
            Err(e) => {
                eprintln!("benchdiff: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut regressed = false;
    let mut last_reports: Option<(String, Json)> = None;
    for pair in artifacts.windows(2).zip(files.windows(2)) {
        let ((base, new), (base_file, new_file)) = (
            (&pair.0[0], &pair.0[1]),
            (pair.1[0].as_str(), pair.1[1].as_str()),
        );
        let deltas = match benchdiff::diff(base, new) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("benchdiff: {base_file} -> {new_file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        regressed |= deltas.iter().any(|d| d.regressed(tolerance));
        let text = benchdiff::report_text(&deltas, (base_file, new_file), tolerance);
        print!("{text}");
        last_reports = Some((
            text,
            benchdiff::report_json(&deltas, (base_file, new_file), tolerance),
        ));
    }
    if let Some((text, doc)) = last_reports {
        if let Some(path) = &report_path {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("benchdiff: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("benchdiff: wrote report to {path}");
        }
        if let Some(path) = &json_path {
            if let Err(e) = std::fs::write(path, doc.write()) {
                eprintln!("benchdiff: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("benchdiff: wrote JSON report to {path}");
        }
    }
    if regressed {
        eprintln!(
            "benchdiff: metrics beyond the {:.0}% tolerance are flagged above \
             (informational in trajectory mode; use --check to gate)",
            tolerance * 100.0
        );
    }
    ExitCode::SUCCESS
}
