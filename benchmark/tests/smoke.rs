//! Drives the real `psdbench` binary at `--quick` length. Wall-clock
//! values are never asserted: only that every named metric is there and
//! finite, that no operation failed, that byte verification and the
//! determinism checks passed, and that two runs of one seed agree bit
//! for bit on every exact metric.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/spec.rs"]
mod spec;

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

use json::Value;
use spec::{Judge, Workload, END_TO_END, PER_LAYER};

fn psdbench(dir: &PathBuf, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_psdbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("psdbench starts")
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Arr(a) => a,
        _ => panic!("not an array: {v:?}"),
    }
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Two `--quick` runs of every workload at one seed, made once.
fn quick_reports() -> &'static [Value; 2] {
    static REPORTS: OnceLock<[Value; 2]> = OnceLock::new();
    REPORTS.get_or_init(|| {
        ["a", "b"].map(|tag| {
            let dir = scratch("quick");
            let file = format!("{tag}.json");
            let out = psdbench(&dir, &["--quick", "--seed", "42", "--out", &file]);
            assert!(
                out.status.success(),
                "psdbench --quick failed:\n{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            let text = std::fs::read_to_string(dir.join(&file)).expect("report file written");
            Value::parse(&text).expect("report file is JSON")
        })
    })
}

fn workload(report: &Value, w: Workload) -> &Value {
    report
        .get("workloads")
        .and_then(|ws| ws.get(w.name()))
        .unwrap_or_else(|| panic!("{} missing from the report", w.name()))
}

fn value_of(section: &Value, name: &str) -> f64 {
    section
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn quick_run_reports_every_metric_with_no_failed_operation() {
    let report = &quick_reports()[0];
    for w in Workload::ALL {
        let r = workload(report, w);
        assert_eq!(
            r.get("correct"),
            Some(&Value::Bool(true)),
            "{}: a check failed",
            w.name()
        );
        assert_eq!(
            r.get("failed_ops").and_then(Value::as_f64),
            Some(0.0),
            "{}",
            w.name()
        );
        assert!(r.get("ops").and_then(Value::as_f64).unwrap() >= 1.0);
        let e2e = r.get("end_to_end").expect("end_to_end section");
        for def in &END_TO_END {
            let v = value_of(e2e, def.name);
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name(), def.name);
            assert_eq!(
                e2e.get(def.name).unwrap().get("unit").and_then(text),
                Some(def.unit)
            );
        }
        let layers = r.get("per_layer").expect("per_layer section");
        for def in &PER_LAYER {
            let v = value_of(layers, def.name);
            assert!(v.is_finite(), "{} {} = {v}", w.name(), def.name);
        }
        // The paper has a cell for these two and for no other.
        let validated = matches!(w, Workload::BulkLib | Workload::EchoLib);
        assert_eq!(
            r.get("model_err_pct").and_then(Value::as_f64).is_some(),
            validated,
            "{}",
            w.name()
        );
    }
}

#[test]
fn layer_counters_separate_the_workloads() {
    let report = &quick_reports()[0];
    for w in Workload::ALL {
        let layers = workload(report, w).get("per_layer").unwrap();
        let lossy = w == Workload::LossySrv;
        // Only the server placement moves data by RPC, and only the
        // lossy wire loses, duplicates, reorders or forces retransmits.
        assert_eq!(
            value_of(layers, "server.rpcs_per_pkt") > 0.0,
            lossy,
            "{}",
            w.name()
        );
        assert_eq!(
            value_of(layers, "netstack.rexmt_per_kseg") > 0.0,
            lossy,
            "{}",
            w.name()
        );
        assert_eq!(
            value_of(layers, "netdev.loss_ratio") > 0.0,
            lossy,
            "{}",
            w.name()
        );
        assert_eq!(value_of(layers, "kernel.drops"), 0.0, "{}", w.name());
    }
    let steps = |w| {
        value_of(
            workload(report, w).get("per_layer").unwrap(),
            "filter.steps_per_frame",
        )
    };
    assert!(steps(Workload::FaninCspf) > 1000.0 * steps(Workload::FaninMpf));
}

#[test]
fn same_seed_runs_agree_on_every_exact_metric() {
    let [a, b] = quick_reports();
    for w in Workload::ALL {
        let (ra, rb) = (workload(a, w), workload(b, w));
        assert_eq!(ra.get("digest"), rb.get("digest"), "{} digest", w.name());
        assert_eq!(
            ra.get("model_err_pct"),
            rb.get("model_err_pct"),
            "{} model_err_pct",
            w.name()
        );
        for def in END_TO_END.iter().filter(|d| d.judge == Judge::Exact) {
            let (x, y) = (
                value_of(ra.get("end_to_end").unwrap(), def.name),
                value_of(rb.get("end_to_end").unwrap(), def.name),
            );
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{} {}: {x} vs {y}",
                w.name(),
                def.name
            );
        }
    }
}

#[test]
fn compare_accepts_a_report_against_itself_and_rejects_a_worse_one() {
    quick_reports();
    let dir = scratch("quick");
    let same = psdbench(&dir, &["--compare", "a.json", "a.json"]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let table = String::from_utf8_lossy(&same.stdout).into_owned();
    for w in Workload::ALL {
        for def in &END_TO_END {
            assert!(
                table.lines().any(|l| l.starts_with(w.name())
                    && l.contains(def.name)
                    && l.ends_with("same")),
                "no `same` row for {} {}",
                w.name(),
                def.name
            );
        }
    }
    // A virtual-clock metric that moved the wrong way is `worse`.
    let text = std::fs::read_to_string(dir.join("a.json")).unwrap();
    let worse = text.replacen(
        "\"sim_lat_us_p99\": {\"value\": ",
        "\"sim_lat_us_p99\": {\"value\": 9",
        1,
    );
    assert_ne!(worse, text);
    std::fs::write(dir.join("worse.json"), worse).unwrap();
    let out = psdbench(&dir, &["--compare", "a.json", "worse.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("worse"));
}

#[test]
fn one_workload_run_ends_in_the_result_line() {
    for (trace, names) in [
        ("0", END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()),
    ] {
        let dir = scratch(&format!("line{trace}"));
        let out = psdbench(
            &dir,
            &[
                "--workload",
                "echo_lib",
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = Value::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(metrics, names);
    }
}

#[test]
fn bad_arguments_are_refused() {
    let dir = scratch("args");
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
        &["--compare", "missing-a.json", "missing-b.json"],
    ] {
        let out = psdbench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn benchmark_json_names_what_the_tables_name() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let field = |v: &Value, k: &str| v.get(k).and_then(text).map(str::to_owned);
    let better = |lower| Some(if lower { "lower" } else { "higher" }.to_owned());

    let workloads: Vec<_> = doc
        .get("workloads")
        .map(items)
        .unwrap()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| Some(w.name().to_owned())));

    let e2e = doc.get("end_to_end").map(items).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(field(m, "name").as_deref(), Some(def.name));
        assert_eq!(field(m, "unit").as_deref(), Some(def.unit));
        assert_eq!(field(m, "better"), better(def.lower_is_better));
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
    }
    let layers = doc.get("per_layer").map(items).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, def) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(field(m, "name").as_deref(), Some(def.name));
        assert_eq!(field(m, "unit").as_deref(), Some(def.unit));
        assert_eq!(field(m, "better"), better(def.lower_is_better));
    }
    let paths: Vec<_> = doc
        .get("paths")
        .map(items)
        .unwrap()
        .iter()
        .map(text)
        .collect();
    assert_eq!(paths, [Some("benchmark")]);
}
