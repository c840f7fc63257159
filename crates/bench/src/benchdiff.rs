//! Perf-trajectory tooling over committed `BENCH_*.json` artifacts.
//!
//! `benchdiff` turns two or more benchmark artifacts of the same kind
//! into a per-metric delta report, and subsumes the three hand-rolled
//! per-artifact CI regression gates behind one entry point:
//!
//! - selfbench (`BENCH_6.json`): the wheel engine's events/sec at
//!   65 536 timers must not fall more than `tolerance` below the
//!   committed value,
//! - filterbench (`BENCH_8.json`): ns/match in the
//!   (Cspf, Compiled, 4096) cell must not rise more than `tolerance`
//!   above the committed value,
//! - table6 (`BENCH_9.json`): per configuration, ns/pkt in the
//!   (eager, batch 64) cell must not rise more than `tolerance` above
//!   the committed value.
//!
//! The thresholds and cells are exactly the ones the retired
//! `--check-baseline` flags of `selfbench`, `filterbench`, and `table6`
//! enforced (see `selfbench::check_against_baseline` and friends, which
//! remain the in-process versions); unit tests below hold the two
//! formulations to identical verdicts. The difference is operational:
//! those gates compare a *fresh in-process run* against the committed
//! artifact, while `benchdiff` compares *artifact against artifact*, so
//! one binary can gate any number of benchmarks after the fact.
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

fn num(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

fn text<'j>(row: &'j Json, key: &str) -> Option<&'j str> {
    row.get(key).and_then(Json::as_str)
}

fn fmt_count(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Extracts the comparable metrics of an artifact, in artifact order.
/// Rows missing their identifying members are skipped rather than
/// failing the whole extraction — a report over a newer artifact with
/// extra rows should still cover the common subset.
pub fn metrics_of(artifact: &Json) -> Result<Vec<Metric>, String> {
    let kind = kind_of(artifact)?;
    let mut out = Vec::new();
    let push = |out: &mut Vec<Metric>, name: String, value: Option<f64>, hib: bool| {
        if let Some(value) = value {
            out.push(Metric {
                name,
                value,
                higher_is_better: hib,
            });
        }
    };
    match kind {
        "selfbench" => {
            let rows = artifact
                .get("engine")
                .and_then(|e| e.get("wheel"))
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            for row in rows {
                let Some(timers) = num(row, "timers") else {
                    continue;
                };
                let id = format!("engine.wheel[timers={}]", fmt_count(timers));
                push(
                    &mut out,
                    format!("{id}.events_per_sec"),
                    num(row, "events_per_sec"),
                    true,
                );
            }
        }
        "filterbench" => {
            for row in artifact
                .get("program")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                let (Some(engine), Some(filters)) = (text(row, "engine"), num(row, "filters"))
                else {
                    continue;
                };
                let id = format!("program[{engine},{}]", fmt_count(filters));
                push(
                    &mut out,
                    format!("{id}.ns_per_run"),
                    num(row, "ns_per_run"),
                    false,
                );
            }
            for row in artifact.get("table").and_then(Json::as_arr).unwrap_or(&[]) {
                let (Some(strategy), Some(engine), Some(filters)) = (
                    text(row, "strategy"),
                    text(row, "engine"),
                    num(row, "filters"),
                ) else {
                    continue;
                };
                let id = format!("table[{strategy},{engine},{}]", fmt_count(filters));
                push(
                    &mut out,
                    format!("{id}.ns_per_match"),
                    num(row, "ns_per_match"),
                    false,
                );
            }
        }
        "table6" => {
            for row in artifact.get("table").and_then(Json::as_arr).unwrap_or(&[]) {
                let (Some(config), Some(mode), Some(batch)) =
                    (text(row, "config"), text(row, "mode"), num(row, "batch"))
                else {
                    continue;
                };
                let id = format!("table[{config},{mode},{}]", fmt_count(batch));
                push(
                    &mut out,
                    format!("{id}.ns_per_pkt"),
                    num(row, "ns_per_pkt"),
                    false,
                );
                push(
                    &mut out,
                    format!("{id}.crossings_per_pkt"),
                    num(row, "crossings_per_pkt"),
                    false,
                );
            }
        }
        other => return Err(format!("unknown bench kind \"{other}\"")),
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

/// The CI regression gate: checks a measured artifact against a
/// committed baseline of the same kind, reproducing the retired
/// per-binary `--check-baseline` verdicts cell for cell.
///
/// Returns one human line per passed check, or the first failure.
pub fn check(baseline: &Json, measured: &Json, tolerance: f64) -> Result<Vec<String>, String> {
    let (bk, mk) = (kind_of(baseline)?, kind_of(measured)?);
    if bk != mk {
        return Err(format!("kind mismatch: baseline is {bk}, measured is {mk}"));
    }
    let mut lines = Vec::new();
    match bk {
        "selfbench" => {
            let name = "engine.wheel[timers=65536].events_per_sec";
            let (base, new) = gate_values(baseline, measured, name)?;
            if new < base * (1.0 - tolerance) {
                return Err(format!(
                    "events/sec regression: measured {new:.0} < {:.0} \
                     ({}% below committed {base:.0})",
                    base * (1.0 - tolerance),
                    (tolerance * 100.0) as u32,
                ));
            }
            lines.push(format!("{name}: {new:.0} vs committed {base:.0} — ok"));
        }
        "filterbench" => {
            let name = "table[Cspf,Compiled,4096].ns_per_match";
            let (base, new) = gate_values(baseline, measured, name)?;
            if new > base * (1.0 + tolerance) {
                return Err(format!(
                    "ns/match regression: measured {new:.0} > {:.0} \
                     ({}% above committed {base:.0})",
                    base * (1.0 + tolerance),
                    (tolerance * 100.0) as u32,
                ));
            }
            lines.push(format!("{name}: {new:.0} vs committed {base:.0} — ok"));
        }
        "table6" => {
            for config in ["LibraryIpc", "LibraryShm", "LibraryShmIpf"] {
                let name = format!("table[{config},eager,64].ns_per_pkt");
                let (base, new) = gate_values(baseline, measured, &name)?;
                if new > base * (1.0 + tolerance) {
                    return Err(format!(
                        "{config}: ns/pkt regression at B=64: measured {new:.0} > {:.0} \
                         ({}% above committed {base:.0})",
                        base * (1.0 + tolerance),
                        (tolerance * 100.0) as u32,
                    ));
                }
                lines.push(format!("{name}: {new:.0} vs committed {base:.0} — ok"));
            }
        }
        other => return Err(format!("no gate defined for bench kind \"{other}\"")),
    }
    Ok(lines)
}

fn gate_values(baseline: &Json, measured: &Json, name: &str) -> Result<(f64, f64), String> {
    let base = lookup(baseline, name).ok_or_else(|| format!("committed artifact has no {name}"))?;
    let new = lookup(measured, name).ok_or_else(|| format!("measured run has no {name}"))?;
    Ok((base, new))
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
        for (file, kind) in [
            ("BENCH_6.json", "selfbench"),
            ("BENCH_8.json", "filterbench"),
            ("BENCH_9.json", "table6"),
        ] {
            let artifact = committed(file);
            assert_eq!(kind_of(&artifact).unwrap(), kind);
            let metrics = metrics_of(&artifact).unwrap();
            assert!(!metrics.is_empty(), "{file} yields metrics");
            for m in &metrics {
                assert!(m.value.is_finite(), "{file}: {} is finite", m.name);
            }
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

    // Verdict parity with the retired per-binary gates: identical and
    // mildly-perturbed artifacts pass at the 20% tolerance the CI jobs
    // used; perturbations past the threshold fail, in the same
    // direction each binary's check_against_baseline enforced.

    #[test]
    fn selfbench_gate_parity() {
        let base = committed("BENCH_6.json");
        assert!(check(&base, &base, 0.2).is_ok());
        // 10% slower (events/sec scaled down) passes at 20%.
        assert!(check(&base, &scaled(&base, 0.9), 0.2).is_ok());
        // 30% slower fails — same verdict as selfbench --check-baseline.
        let err = check(&base, &scaled(&base, 0.7), 0.2).unwrap_err();
        assert!(err.contains("events/sec regression"), "{err}");
    }

    #[test]
    fn filterbench_gate_parity() {
        let base = committed("BENCH_8.json");
        assert!(check(&base, &base, 0.2).is_ok());
        // ns/match up 10% passes; up 30% fails.
        assert!(check(&base, &scaled(&base, 1.1), 0.2).is_ok());
        let err = check(&base, &scaled(&base, 1.3), 0.2).unwrap_err();
        assert!(err.contains("ns/match regression"), "{err}");
    }

    #[test]
    fn table6_gate_parity() {
        let base = committed("BENCH_9.json");
        let lines = check(&base, &base, 0.2).unwrap();
        // One line per configuration, as table6's gate checked.
        assert_eq!(lines.len(), 3);
        assert!(check(&base, &scaled(&base, 1.1), 0.2).is_ok());
        let err = check(&base, &scaled(&base, 1.3), 0.2).unwrap_err();
        assert!(err.contains("ns/pkt regression"), "{err}");
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
