//! What the benchmark prints and writes: the metric tables, the result
//! line the driver reads, the report file, and `--compare`.

use crate::bench::{Measured, Stat, Traced};
use crate::json::Value;
use crate::spec::{Judge, Workload, END_TO_END, PER_LAYER};

/// One workload's outcome; either half may be absent.
pub struct WorkloadReport {
    pub workload: Workload,
    pub measured: Option<Measured>,
    pub traced: Option<Traced>,
}

fn fmt(x: f64) -> String {
    let a = x.abs();
    if a != 0.0 && !(0.01..1e7).contains(&a) {
        format!("{x:.3e}")
    } else if a >= 1000.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// Which way is better, as the tables mark it.
fn arrow(lower_is_better: bool) -> &'static str {
    if lower_is_better {
        "lower is better"
    } else {
        "higher is better"
    }
}

/// Prints every metric of one workload by name, with its unit.
pub fn print_workload(r: &WorkloadReport) {
    let w = r.workload;
    println!("== {} — {}", w.name(), w.what());
    if let Some(m) = &r.measured {
        println!(
            "   end to end: {} timed repetitions, {} latency samples each, ops {} failed_ops {}",
            m.reps, m.lat_samples, m.ops, m.failed
        );
        for (def, s) in END_TO_END.iter().zip(&m.metrics) {
            let range = if s.min == s.max {
                String::new()
            } else {
                format!("   [min {} max {}]", fmt(s.min), fmt(s.max))
            };
            println!(
                "   {:<32} {:>14} {:<6} {}{range}",
                def.name,
                fmt(s.value),
                def.unit,
                arrow(def.lower_is_better)
            );
        }
        match m.model_err_pct {
            Some(e) => println!(
                "   {:<32} {:>14} %      lower is better",
                "model_err_pct",
                fmt(e)
            ),
            None => println!("   {:<32} {:>14}", "model_err_pct", "unvalidated"),
        }
        println!(
            "   {:<32} {:016x} (leading messages {:016x})",
            "digest", m.digest, m.lead_digest
        );
        for p in &m.problems {
            println!("   PROBLEM: {p}");
        }
    }
    if let Some(t) = &r.traced {
        println!(
            "   per layer (traced repetition and probes), ops {} failed_ops {}",
            t.ops, t.failed
        );
        for (def, v) in PER_LAYER.iter().zip(&t.metrics) {
            println!(
                "   {:<32} {:>14} {:<6} {}",
                def.name,
                fmt(*v),
                def.unit,
                arrow(def.lower_is_better)
            );
        }
        println!("   trace: {}", t.trace_file);
        for p in &t.problems {
            println!("   PROBLEM: {p}");
        }
    }
    if !lead_digests_agree(r) {
        println!("   PROBLEM: the traced repetition's leading-message digest differs from the timed repetitions'");
    }
}

/// The traced repetition is shorter than the timed ones; where the
/// workload is flow-controlled its messages must complete at the very
/// virtual times the timed repetitions' leading messages do.
fn lead_digests_agree(r: &WorkloadReport) -> bool {
    match (&r.measured, &r.traced) {
        (Some(m), Some(t)) if r.workload.flow_controlled() => m.lead_digest == t.lead_digest,
        _ => true,
    }
}

/// True when every check of the report held.
pub fn correct(r: &WorkloadReport) -> bool {
    lead_digests_agree(r)
        && r.measured.as_ref().is_none_or(|m| m.correct)
        && r.traced.as_ref().is_none_or(|t| t.correct)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

/// The one-line result the driver reads: `--trace 0` carries every
/// end-to-end metric, `--trace 1` every per-layer metric.
pub fn result_line(r: &WorkloadReport) -> String {
    let (ops, failed, metrics) = match (&r.measured, &r.traced) {
        (Some(m), _) => (
            m.ops,
            m.failed,
            Value::obj(
                END_TO_END
                    .iter()
                    .zip(&m.metrics)
                    .map(|(d, s)| (d.name, metric(s.value, d.unit))),
            ),
        ),
        (None, Some(t)) => (
            t.ops,
            t.failed,
            Value::obj(
                PER_LAYER
                    .iter()
                    .zip(&t.metrics)
                    .map(|(d, v)| (d.name, metric(*v, d.unit))),
            ),
        ),
        (None, None) => (0, 0, Value::obj::<&str>([])),
    };
    Value::obj([
        ("correct", Value::Bool(correct(r))),
        ("attempted", Value::Num(ops as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .encode()
}

fn stat(s: &Stat, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(s.value)),
        ("unit", Value::Str(unit.into())),
        ("min", Value::Num(s.min)),
        ("max", Value::Num(s.max)),
    ])
}

/// The report file `--compare` reads.
pub fn report_file(seed: u64, seconds: f64, quick: bool, reports: &[WorkloadReport]) -> String {
    let workloads = reports.iter().map(|r| {
        let mut fields: Vec<(String, Value)> = vec![("correct".into(), Value::Bool(correct(r)))];
        if let Some(m) = &r.measured {
            fields.push(("ops".into(), Value::Num(m.ops as f64)));
            fields.push(("failed_ops".into(), Value::Num(m.failed as f64)));
            fields.push(("reps".into(), Value::Num(m.reps as f64)));
            fields.push(("lat_samples".into(), Value::Num(m.lat_samples as f64)));
            fields.push(("digest".into(), Value::Str(format!("{:016x}", m.digest))));
            fields.push((
                "model_err_pct".into(),
                m.model_err_pct.map_or(Value::Null, Value::Num),
            ));
            fields.push((
                "end_to_end".into(),
                Value::obj(
                    END_TO_END
                        .iter()
                        .zip(&m.metrics)
                        .map(|(d, s)| (d.name, stat(s, d.unit))),
                ),
            ));
        }
        if let Some(t) = &r.traced {
            fields.push((
                "per_layer".into(),
                Value::obj(
                    PER_LAYER
                        .iter()
                        .zip(&t.metrics)
                        .map(|(d, v)| (d.name, metric(*v, d.unit))),
                ),
            ));
        }
        (r.workload.name(), Value::Obj(fields))
    });
    let doc = Value::obj([
        ("psdbench", Value::Num(1.0)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("quick", Value::Bool(quick)),
        ("workloads", Value::obj(workloads)),
    ]);
    doc.encode() + "\n"
}

/// A verdict of `--compare`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against baseline `a`. A host-clock metric that moved past
/// its bound is `unresolved`, not worse or better, while the two sides'
/// repetitions still overlap: the run-to-run spread is then wider than
/// the bound and the medians alone settle nothing.
pub fn judge(
    rule: Judge,
    lower_is_better: bool,
    a: (f64, f64, f64),
    b: (f64, f64, f64),
) -> Verdict {
    let ((av, amin, amax), (bv, bmin, bmax)) = (a, b);
    let b_is_worse = if lower_is_better { bv > av } else { bv < av };
    let moved = |v| if b_is_worse { Verdict::Worse } else { v };
    match rule {
        Judge::Exact if av.to_bits() == bv.to_bits() => Verdict::Same,
        Judge::Exact => moved(Verdict::Better),
        Judge::Within(bound) => {
            if (bv - av).abs() <= bound * av.abs() {
                Verdict::Same
            } else if amin <= bmax && bmin <= amax {
                Verdict::Unresolved
            } else {
                moved(Verdict::Better)
            }
        }
    }
}

/// Compares two report files; prints one row per workload x metric and
/// returns whether `b` is acceptable (nothing worse, no higher share of
/// failed operations).
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let workloads = |v: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_obj)
            .ok_or("no \"workloads\" object")?
            .to_vec())
    };
    for key in ["seed", "seconds", "quick"] {
        if a.get(key) != b.get(key) {
            println!("note: the two reports differ in \"{key}\"; exact metrics will not match");
        }
    }
    let triple = |w: &Value, name: &str| -> Option<(f64, f64, f64)> {
        let m = w.get("end_to_end")?.get(name)?;
        Some((
            m.get("value")?.as_f64()?,
            m.get("min")?.as_f64()?,
            m.get("max")?.as_f64()?,
        ))
    };
    let mut ok = true;
    println!(
        "{:<11} {:<18} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    let b_workloads = workloads(b)?;
    for (name, wa) in workloads(a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            println!("{name:<11} missing from B");
            ok = false;
            continue;
        };
        let mut row = |metric: &str, av: f64, bv: f64, verdict: Verdict| {
            let change = if av != 0.0 {
                (bv - av) / av * 100.0
            } else {
                0.0
            };
            println!(
                "{name:<11} {metric:<18} {:>14} {:>14} {change:>+7.2}%  {}",
                fmt(av),
                fmt(bv),
                verdict.word()
            );
            ok &= verdict != Verdict::Worse;
        };
        for def in &END_TO_END {
            match (triple(&wa, def.name), triple(wb, def.name)) {
                (Some(x), Some(y)) => row(
                    def.name,
                    x.0,
                    y.0,
                    judge(def.judge, def.lower_is_better, x, y),
                ),
                _ => return Err(format!("{name}: metric {} missing", def.name)),
            }
        }
        let num = |w: &Value, key: &str| w.get(key).and_then(Value::as_f64);
        if let (Some(x), Some(y)) = (num(&wa, "model_err_pct"), num(wb, "model_err_pct")) {
            row(
                "model_err_pct",
                x,
                y,
                judge(Judge::Exact, true, (x, x, x), (y, y, y)),
            );
        }
        let failed = |w: &Value| Some(num(w, "failed_ops")? / num(w, "ops")?.max(1.0));
        match (failed(&wa), failed(wb)) {
            (Some(x), Some(y)) => {
                let verdict = if y > x { Verdict::Worse } else { Verdict::Same };
                row("failed_ops/ops", x, y, verdict);
            }
            _ => return Err(format!("{name}: ops/failed_ops missing")),
        }
        if wa.get("digest") != wb.get("digest") {
            println!("{name:<11} digest of per-message completion times differs");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_must_match_bit_for_bit() {
        let x = (1.5, 1.5, 1.5);
        assert_eq!(judge(Judge::Exact, true, x, x), Verdict::Same);
        assert_eq!(
            judge(Judge::Exact, true, x, (1.6, 1.6, 1.6)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Judge::Exact, false, x, (1.6, 1.6, 1.6)),
            Verdict::Better
        );
    }

    #[test]
    fn bounded_metrics_resolve_only_when_repetitions_separate() {
        let rule = Judge::Within(0.05);
        let a = (100.0, 98.0, 103.0);
        assert_eq!(judge(rule, true, a, (104.0, 101.0, 108.0)), Verdict::Same);
        assert_eq!(
            judge(rule, true, a, (110.0, 102.0, 115.0)),
            Verdict::Unresolved
        );
        assert_eq!(judge(rule, true, a, (110.0, 106.0, 115.0)), Verdict::Worse);
        assert_eq!(judge(rule, true, a, (90.0, 88.0, 92.0)), Verdict::Better);
        assert_eq!(judge(rule, false, a, (90.0, 88.0, 92.0)), Verdict::Worse);
    }
}
