//! Perf-trajectory and regression-gate CLI over `BENCH_*.json`
//! artifacts.
//!
//! ```text
//! usage: benchdiff [--check] [--validate] [--schema FILE] [--json PATH] [--report PATH] [--tolerance X] FILE...
//! ```
//!
//! Three forms. `benchdiff FILE FILE...` prints a per-metric delta
//! table between consecutive artifacts (a trajectory when given the
//! same benchmark's artifacts over time); `--json`/`--report` write the
//! machine/text reports for the final pair. `benchdiff --check BASELINE
//! MEASURED` is the CI regression gate — one binary, one exit code, any
//! benchmark kind. `benchdiff --validate FILE --schema FILE`
//! schema-validates a single artifact and exits.

use std::process::ExitCode;

use psd_bench::benchdiff;
use psd_bench::cli::Args;
use psd_bench::json::{validate, Json};
use psd_bench::observe::write_artifact;

fn read_artifact(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut args = Args::from_env("benchdiff");
    let check = args.flag("--check");
    let validate_mode = args.flag("--validate");
    let schema_path = args.value("--schema", "FILE");
    let json_path = args.value("--json", "PATH");
    let report_path = args.value("--report", "PATH");
    let tolerance: f64 = args.parsed("--tolerance", "X").unwrap_or(0.2);
    let files = args.positionals("FILE...");
    args.finish();

    let done = if validate_mode {
        validate_file(&files, schema_path.as_deref())
    } else if check {
        gate(&files, tolerance)
    } else {
        trajectory(
            &files,
            tolerance,
            report_path.as_deref(),
            json_path.as_deref(),
        )
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchdiff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn validate_file(files: &[String], schema_file: Option<&str>) -> Result<(), String> {
    let (Some(file), Some(schema_file)) = (files.first(), schema_file) else {
        return Err("--validate needs FILE and --schema FILE".into());
    };
    validate(&read_artifact(file)?, &read_artifact(schema_file)?)
        .map_err(|e| format!("{file} violates {schema_file}: {e}"))?;
    println!("benchdiff: {file} validates against {schema_file}");
    Ok(())
}

fn gate(files: &[String], tolerance: f64) -> Result<(), String> {
    let [baseline, measured] = files else {
        return Err("--check takes exactly BASELINE and MEASURED".into());
    };
    let lines = benchdiff::check(
        &read_artifact(baseline)?,
        &read_artifact(measured)?,
        tolerance,
    )
    .map_err(|e| format!("GATE FAILED — {e}"))?;
    for line in lines {
        println!("benchdiff: gate ok — {line}");
    }
    Ok(())
}

/// Consecutive pairwise deltas; the reports cover the final pair
/// (typically "previous committed" vs "this run").
fn trajectory(
    files: &[String],
    tolerance: f64,
    report_path: Option<&str>,
    json_path: Option<&str>,
) -> Result<(), String> {
    if files.len() < 2 {
        return Err("need at least two artifacts (see --help)".into());
    }
    let artifacts = files
        .iter()
        .map(|f| read_artifact(f))
        .collect::<Result<Vec<Json>, String>>()?;
    let mut regressed = false;
    let mut last_reports = None;
    for (pair, names) in artifacts.windows(2).zip(files.windows(2)) {
        let labels = (names[0].as_str(), names[1].as_str());
        let deltas = benchdiff::diff(&pair[0], &pair[1])
            .map_err(|e| format!("{} -> {}: {e}", labels.0, labels.1))?;
        regressed |= deltas.iter().any(|d| d.regressed(tolerance));
        let text = benchdiff::report_text(&deltas, labels, tolerance);
        print!("{text}");
        last_reports = Some((text, benchdiff::report_json(&deltas, labels, tolerance)));
    }
    if let Some((text, doc)) = last_reports {
        if let Some(path) = report_path {
            write_artifact("benchdiff", "report", path, &text);
        }
        if let Some(path) = json_path {
            write_artifact("benchdiff", "JSON report", path, &doc.write());
        }
    }
    if regressed {
        eprintln!(
            "benchdiff: metrics beyond the {:.0}% tolerance are flagged above \
             (informational in trajectory mode; use --check to gate)",
            tolerance * 100.0
        );
    }
    Ok(())
}
