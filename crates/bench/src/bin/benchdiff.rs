//! Schema validator for the `psd-bench` observer artifacts.
//!
//! ```text
//! usage: benchdiff [--validate FILE] [--schema FILE]
//! ```
//!
//! `benchdiff --validate FILE --schema FILE` checks one artifact (a
//! `--profile-out` or `--metrics-out` file) against a committed schema
//! (`PROFILE.schema.json`, `METRICS.schema.json`) with
//! [`psd_bench::json::validate`], and exits 1 on the first violation.
//! Host-clock performance is judged by psdbench alone.

use std::process::ExitCode;

use psd_bench::cli::Args;
use psd_bench::json::{validate, Json};

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut args = Args::from_env("benchdiff");
    let file = args.value("--validate", "FILE");
    let schema = args.value("--schema", "FILE");
    args.finish();

    let (Some(file), Some(schema)) = (file, schema) else {
        eprintln!("benchdiff: --validate FILE and --schema FILE are both required (see --help)");
        return ExitCode::from(2);
    };
    let checked = read_json(&file).and_then(|doc| {
        validate(&doc, &read_json(&schema)?).map_err(|e| format!("{file} violates {schema}: {e}"))
    });
    match checked {
        Ok(()) => {
            println!("benchdiff: {file} validates against {schema}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchdiff: {e}");
            ExitCode::FAILURE
        }
    }
}
