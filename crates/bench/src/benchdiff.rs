//! Perf-trajectory tooling over committed `BENCH_*.json` artifacts.
//!
//! `benchdiff` turns two or more benchmark artifacts of the same kind
//! into a per-metric delta report, and is the one CI regression gate
//! ([`check`]): per kind, a table of gated metrics (`GATES`) that must
//! not move more than `tolerance` in their worse direction
//! ([`Delta::regressed`]) from the committed artifact —
//!
//! - selfbench (`BENCH_6.json`): the wheel engine's events/sec at
//!   65 536 timers,
//! - filterbench (`BENCH_8.json`): ns/match in the
//!   (Cspf, Compiled, 4096) cell,
//! - table6 (`BENCH_9.json`): per configuration, ns/pkt in the
//!   (eager, batch 64) cell.
//!
//! The gate compares *artifact against artifact*, so one binary gates
//! any number of benchmarks after the fact; the benches themselves only
//! measure and write.
//!
//! Metric extraction is deterministic: metrics appear in artifact
//! order, named by the identifying members of their row (e.g.
//! `wheel[timers=65536].events_per_sec`), so reports over the same
//! artifacts are byte-identical.

use crate::json::Json;

/// One extracted scalar with a stable, self-describing name.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable identifier, e.g. `table[Cspf,Compiled,4096].ns_per_match`.
    pub name: String,
    /// The value in the artifact.
    pub value: f64,
    /// Whether a larger value is an improvement (throughput) or a
    /// regression (latency). Drives the sign convention in reports.
    pub higher_is_better: bool,
}

/// One metric's change between a baseline and a measured artifact.
#[derive(Clone, Debug)]
pub struct Delta {
    /// The metric name (present in both artifacts).
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Measured value.
    pub new: f64,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
}

impl Delta {
    /// Relative change, `new/base - 1`, in percent. 0 when the baseline
    /// is 0 (nothing sensible to report).
    pub fn pct(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            (self.new / self.base - 1.0) * 100.0
        }
    }

    /// True when the change is in the worse direction by more than
    /// `tolerance` (a fraction, e.g. 0.2 for 20%).
    pub fn regressed(&self, tolerance: f64) -> bool {
        if self.base == 0.0 {
            return false;
        }
        if self.higher_is_better {
            self.new < self.base * (1.0 - tolerance)
        } else {
            self.new > self.base * (1.0 + tolerance)
        }
    }
}

/// The benchmark kind recorded in an artifact's `bench` member.
pub fn kind_of(artifact: &Json) -> Result<&str, String> {
    artifact
        .get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| "artifact has no \"bench\" member".to_string())
}

/// Where one bench kind keeps comparable rows.
struct Shape {
    kind: &'static str,
    /// Member path to the row array.
    path: &'static [&'static str],
    /// The members that identify a row; a trailing `=` keeps the
    /// member's name in the metric name.
    ids: &'static [&'static str],
    /// The row's metrics, with whether higher is better.
    metrics: &'static [(&'static str, bool)],
}

const SHAPES: &[Shape] = &[
    Shape {
        kind: "selfbench",
        path: &["engine", "wheel"],
        ids: &["timers="],
        metrics: &[("events_per_sec", true)],
    },
    Shape {
        kind: "filterbench",
        path: &["program"],
        ids: &["engine", "filters"],
        metrics: &[("ns_per_run", false)],
    },
    Shape {
        kind: "filterbench",
        path: &["table"],
        ids: &["strategy", "engine", "filters"],
        metrics: &[("ns_per_match", false)],
    },
    Shape {
        kind: "table6",
        path: &["table"],
        ids: &["config", "mode", "batch"],
        metrics: &[("ns_per_pkt", false), ("crossings_per_pkt", false)],
    },
];

/// One identifying member as it appears in a metric name.
fn id_text(row: &Json, id: &str) -> Option<String> {
    let shown = match row.get(id.trim_end_matches('='))? {
        Json::Str(s) => s.clone(),
        Json::Num(v) if *v == v.trunc() && v.abs() < 1e15 => format!("{}", *v as i64),
        Json::Num(v) => format!("{v}"),
        _ => return None,
    };
    Some(if id.ends_with('=') {
        format!("{id}{shown}")
    } else {
        shown
    })
}

/// Extracts the comparable metrics of an artifact, in artifact order.
/// Rows missing their identifying members are skipped rather than
/// failing the whole extraction — a report over a newer artifact with
/// extra rows should still cover the common subset.
pub fn metrics_of(artifact: &Json) -> Result<Vec<Metric>, String> {
    let kind = kind_of(artifact)?;
    let mut shapes = SHAPES.iter().filter(|s| s.kind == kind).peekable();
    if shapes.peek().is_none() {
        return Err(format!("unknown bench kind \"{kind}\""));
    }
    let mut out = Vec::new();
    for shape in shapes {
        let rows = shape.path.iter().try_fold(artifact, |v, m| v.get(m));
        for row in rows.and_then(Json::as_arr).unwrap_or(&[]) {
            let ids: Option<Vec<String>> = shape.ids.iter().map(|id| id_text(row, id)).collect();
            let Some(ids) = ids else {
                continue;
            };
            for (metric, higher_is_better) in shape.metrics {
                if let Some(value) = row.get(metric).and_then(Json::as_f64) {
                    out.push(Metric {
                        name: format!("{}[{}].{metric}", shape.path.join("."), ids.join(",")),
                        value,
                        higher_is_better: *higher_is_better,
                    });
                }
            }
        }
    }
    if out.is_empty() {
        return Err(format!("artifact of kind \"{kind}\" yields no metrics"));
    }
    Ok(out)
}

/// Per-metric deltas between a baseline artifact and a measured one
/// (both must be the same kind). Metrics are matched by name; only the
/// intersection is reported, in baseline order.
pub fn diff(base: &Json, new: &Json) -> Result<Vec<Delta>, String> {
    let (bk, nk) = (kind_of(base)?, kind_of(new)?);
    if bk != nk {
        return Err(format!("kind mismatch: baseline is {bk}, measured is {nk}"));
    }
    let base_metrics = metrics_of(base)?;
    let new_metrics = metrics_of(new)?;
    Ok(base_metrics
        .into_iter()
        .filter_map(|b| {
            new_metrics
                .iter()
                .find(|n| n.name == b.name)
                .map(|n| Delta {
                    name: b.name,
                    base: b.value,
                    new: n.value,
                    higher_is_better: b.higher_is_better,
                })
        })
        .collect())
}

/// Human-readable delta table. `labels` names the two artifacts (file
/// paths in the CLI). Improvements print with their sign; regressions
/// beyond `tolerance` are flagged.
pub fn report_text(deltas: &[Delta], labels: (&str, &str), tolerance: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "benchdiff: {} -> {} ({} metrics, tolerance {:.0}%)\n",
        labels.0,
        labels.1,
        deltas.len(),
        tolerance * 100.0
    ));
    let width = deltas.iter().map(|d| d.name.len()).max().unwrap_or(0);
    for d in deltas {
        let flag = if d.regressed(tolerance) {
            "  REGRESSION"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:width$}  {:>14.2}  {:>14.2}  {:>+8.2}%{flag}\n",
            d.name,
            d.base,
            d.new,
            d.pct(),
        ));
    }
    out
}

/// Machine-readable delta report.
pub fn report_json(deltas: &[Delta], labels: (&str, &str), tolerance: f64) -> Json {
    Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str("benchdiff")),
        ("baseline", Json::str(labels.0)),
        ("measured", Json::str(labels.1)),
        ("tolerance", Json::Num(tolerance)),
        (
            "deltas",
            Json::Arr(
                deltas
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("name", Json::str(d.name.clone())),
                            ("base", Json::Num(d.base)),
                            ("new", Json::Num(d.new)),
                            ("pct", Json::Num(d.pct())),
                            ("higher_is_better", Json::Bool(d.higher_is_better)),
                            ("regressed", Json::Bool(d.regressed(tolerance))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The gated metrics of each bench kind, by [`metrics_of`] name.
const GATES: &[(&str, &[&str])] = &[
    ("selfbench", &["engine.wheel[timers=65536].events_per_sec"]),
    ("filterbench", &["table[Cspf,Compiled,4096].ns_per_match"]),
    (
        "table6",
        &[
            "table[LibraryIpc,eager,64].ns_per_pkt",
            "table[LibraryShm,eager,64].ns_per_pkt",
            "table[LibraryShmIpf,eager,64].ns_per_pkt",
        ],
    ),
];

/// The CI regression gate: checks a measured artifact's gated metrics
/// against a committed baseline of the same kind.
///
/// Returns one human line per passed check, or the first failure.
pub fn check(baseline: &Json, measured: &Json, tolerance: f64) -> Result<Vec<String>, String> {
    let deltas = diff(baseline, measured)?;
    let kind = kind_of(baseline)?;
    let (_, gated) = GATES
        .iter()
        .find(|(k, _)| *k == kind)
        .ok_or_else(|| format!("no gate defined for bench kind \"{kind}\""))?;
    let mut lines = Vec::new();
    for name in *gated {
        let Some(d) = deltas.iter().find(|d| d.name == *name) else {
            let side = match lookup(baseline, name) {
                Some(_) => "measured run",
                None => "committed artifact",
            };
            return Err(format!("{side} has no {name}"));
        };
        let (base, new) = (d.base, d.new);
        if d.regressed(tolerance) {
            return Err(format!(
                "{name} regression: measured {new:.0} vs committed {base:.0} \
                 ({:+.1}%, tolerance {:.0}%)",
                d.pct(),
                tolerance * 100.0
            ));
        }
        lines.push(format!("{name}: {new:.0} vs committed {base:.0} — ok"));
    }
    Ok(lines)
}

/// Resolves a metric name produced by [`metrics_of`] against an
/// artifact.
pub fn lookup(artifact: &Json, name: &str) -> Option<f64> {
    metrics_of(artifact)
        .ok()?
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn committed(file: &str) -> Json {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        Json::parse(&std::fs::read_to_string(&path).expect("committed artifact"))
            .expect("valid JSON")
    }

    /// Returns a copy with every numeric leaf under `member` scaled —
    /// a uniform slowdown/speedup of a whole artifact section.
    fn scaled(artifact: &Json, factor: f64) -> Json {
        fn scale(v: &mut Json, factor: f64) {
            match v {
                Json::Num(n) => *n *= factor,
                Json::Arr(items) => items.iter_mut().for_each(|i| scale(i, factor)),
                Json::Obj(members) => members.iter_mut().for_each(|(k, v)| {
                    // Identifying members must survive scaling or rows
                    // stop matching.
                    if !matches!(
                        k.as_str(),
                        "timers" | "filters" | "batch" | "sessions" | "seed" | "version"
                    ) {
                        scale(v, factor);
                    }
                }),
                _ => {}
            }
        }
        let mut copy = artifact.clone();
        scale(&mut copy, factor);
        copy
    }

    #[test]
    fn extracts_metrics_from_all_committed_artifacts() {
        let schema = committed("BENCH.schema.json");
        let kinds = [
            ("BENCH_6.json", "selfbench"),
            ("BENCH_8.json", "filterbench"),
            ("BENCH_9.json", "table6"),
        ];
        for (i, (file, kind)) in kinds.iter().enumerate() {
            let mut artifact = committed(file);
            assert_eq!(kind_of(&artifact).unwrap(), *kind);
            let metrics = metrics_of(&artifact).unwrap();
            assert!(!metrics.is_empty(), "{file} yields metrics");
            for m in &metrics {
                assert!(m.value.is_finite(), "{file}: {} is finite", m.name);
            }
            // One schema, three row shapes: each artifact validates as
            // its own kind and as no other.
            validate(&artifact, &schema).unwrap_or_else(|e| panic!("{file}: {e}"));
            let Json::Obj(members) = &mut artifact else {
                panic!("{file} is an object");
            };
            let bench = members.iter_mut().find(|(k, _)| k == "bench").unwrap();
            bench.1 = Json::str(kinds[(i + 1) % kinds.len()].1);
            let err = validate(&artifact, &schema).unwrap_err();
            assert!(err.contains("missing required member"), "{file}: {err}");
        }
    }

    #[test]
    fn self_diff_is_all_zero() {
        let artifact = committed("BENCH_9.json");
        let deltas = diff(&artifact, &artifact).unwrap();
        assert!(!deltas.is_empty());
        for d in &deltas {
            assert_eq!(d.pct(), 0.0);
            assert!(!d.regressed(0.0));
        }
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let a = committed("BENCH_6.json");
        let b = committed("BENCH_8.json");
        assert!(diff(&a, &b).is_err());
        assert!(check(&a, &b, 0.2).is_err());
    }

    // The gates' verdicts: identical and mildly-perturbed artifacts
    // pass at the 20% tolerance the CI jobs use; perturbations past the
    // threshold fail, each in its metric's worse direction.

    #[test]
    fn selfbench_gate() {
        let base = committed("BENCH_6.json");
        assert!(check(&base, &base, 0.2).is_ok());
        // 10% slower (events/sec scaled down) passes at 20%.
        assert!(check(&base, &scaled(&base, 0.9), 0.2).is_ok());
        // 30% slower fails; faster never does.
        let err = check(&base, &scaled(&base, 0.7), 0.2).unwrap_err();
        assert!(err.contains("events_per_sec regression"), "{err}");
        assert!(check(&base, &scaled(&base, 1.3), 0.2).is_ok());
    }

    #[test]
    fn filterbench_gate() {
        let base = committed("BENCH_8.json");
        assert!(check(&base, &base, 0.2).is_ok());
        // ns/match up 10% passes; up 30% fails.
        assert!(check(&base, &scaled(&base, 1.1), 0.2).is_ok());
        let err = check(&base, &scaled(&base, 1.3), 0.2).unwrap_err();
        assert!(err.contains("ns_per_match regression"), "{err}");
        assert!(check(&base, &scaled(&base, 0.7), 0.2).is_ok());
    }

    #[test]
    fn table6_gate() {
        let base = committed("BENCH_9.json");
        let lines = check(&base, &base, 0.2).unwrap();
        // One line per configuration.
        assert_eq!(lines.len(), 3);
        assert!(check(&base, &scaled(&base, 1.1), 0.2).is_ok());
        let err = check(&base, &scaled(&base, 1.3), 0.2).unwrap_err();
        assert!(err.contains("ns_per_pkt regression"), "{err}");
        assert!(check(&base, &scaled(&base, 0.7), 0.2).is_ok());
        // A measured run missing a gated cell cannot pass.
        let mut gutted = base.clone();
        let Json::Obj(members) = &mut gutted else {
            panic!("artifact is an object");
        };
        let table = members.iter_mut().find(|(k, _)| k == "table").unwrap();
        let Json::Arr(rows) = &mut table.1 else {
            panic!("table is an array");
        };
        rows.retain(|r| r.get("batch").and_then(Json::as_f64) != Some(64.0));
        let err = check(&base, &gutted, 0.2).unwrap_err();
        assert!(
            err.contains("measured run has no table[LibraryIpc"),
            "{err}"
        );
    }

    #[test]
    fn reports_flag_regressions_per_direction() {
        let base = committed("BENCH_8.json");
        let slower = scaled(&base, 1.5);
        let deltas = diff(&base, &slower).unwrap();
        assert!(deltas.iter().all(|d| d.regressed(0.2)), "latency up 50%");
        let text = report_text(&deltas, ("a", "b"), 0.2);
        assert!(text.contains("REGRESSION"));
        let doc = report_json(&deltas, ("a", "b"), 0.2);
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("benchdiff"));
        // Round-trips through the writer/parser.
        assert_eq!(Json::parse(&doc.write()).unwrap(), doc);
    }
}
