//! Bench-side export of the observability planes: charged-time profile
//! artifacts (`--profile-out`) and virtual-time metrics timeseries
//! (`--metrics-out`).
//!
//! The sim crate owns the planes themselves ([`psd_sim::Profiler`],
//! [`psd_sim::Metrics`]) but deliberately knows nothing about artifact
//! formats; this module is the bridge to [`crate::json`]. Every export
//! is deterministic — collapsed stacks are sorted, gauges keep
//! registration order, and no wall-clock field exists — so same-seed
//! artifacts are byte-identical and CI can double-run and diff them.

use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Json;
use psd_sim::{Cpu, MetricsHandle, ProfileHandle};

/// One host's profile: conservation totals plus the collapsed stacks.
pub struct HostProfile {
    /// Host index within the bed.
    pub host: usize,
    /// The CPU's total charged busy time.
    pub total_busy_ns: u64,
    /// Nanoseconds the profiler attributed to sites.
    pub attributed_ns: u64,
    /// Distinct site-trie nodes.
    pub sites: usize,
    /// Collapsed-stack (flamegraph) text, lexicographically sorted.
    pub stacks: String,
    /// Human hot-site table (top N), for stderr display.
    pub hot_table: String,
}

/// A profiled run: a label (platform/config/cell) plus per-host
/// profiles.
pub struct ProfiledRun {
    /// Row label, e.g. `DECstation 5000/200 | Library-SHM`.
    pub label: String,
    /// Per-host profiles in bed `hosts` order.
    pub hosts: Vec<HostProfile>,
}

/// Snapshots one host's profiler and asserts the exact-conservation
/// guarantee: every charged nanosecond on the CPU is attributed to
/// exactly one (site, layer) bucket, bit-exact. A violation is a bug
/// in the charge plumbing, never data-dependent — so it panics.
pub fn host_profile(host: usize, cpu: &Rc<RefCell<Cpu>>, prof: &ProfileHandle) -> HostProfile {
    let total_busy_ns = cpu.borrow().total_busy().as_nanos();
    let p = prof.borrow();
    let attributed_ns = p.attributed_ns();
    assert_eq!(
        attributed_ns, total_busy_ns,
        "profiler conservation violated on host {host}: attributed {attributed_ns} ns \
         != total busy {total_busy_ns} ns"
    );
    HostProfile {
        host,
        total_busy_ns,
        attributed_ns,
        sites: p.site_count(),
        stacks: p.collapsed_stacks(),
        hot_table: p.hot_site_table(10),
    }
}

/// Assembles the `--profile-out` artifact.
pub fn profile_json(bench: &str, runs: &[ProfiledRun]) -> Json {
    Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str("profile")),
        ("bench", Json::str(bench)),
        (
            "rows",
            Json::Arr(
                runs.iter()
                    .map(|run| {
                        Json::obj(vec![
                            ("label", Json::str(run.label.clone())),
                            (
                                "hosts",
                                Json::Arr(
                                    run.hosts
                                        .iter()
                                        .map(|h| {
                                            Json::obj(vec![
                                                ("host", Json::Num(h.host as f64)),
                                                (
                                                    "total_busy_ns",
                                                    Json::Num(h.total_busy_ns as f64),
                                                ),
                                                (
                                                    "attributed_ns",
                                                    Json::Num(h.attributed_ns as f64),
                                                ),
                                                ("sites", Json::Num(h.sites as f64)),
                                                ("stacks", Json::str(h.stacks.clone())),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Prints each run's per-host hot-site tables to stderr (stdout must
/// stay byte-identical to an unprofiled run; CI diffs it).
pub fn print_hot_tables(runs: &[ProfiledRun]) {
    for run in runs {
        for h in &run.hosts {
            eprintln!(
                "profile: {} host{} — {} ns attributed over {} sites",
                run.label, h.host, h.attributed_ns, h.sites
            );
            for line in h.hot_table.lines() {
                eprintln!("  {line}");
            }
        }
    }
}

/// `gauges` + `samples` members for one sampled registry, shared by
/// the single- and multi-row artifact shapes.
fn registry_members(metrics: &MetricsHandle) -> [(&'static str, Json); 2] {
    let m = metrics.borrow();
    [
        (
            "gauges",
            Json::Arr(m.gauge_names().iter().map(|n| Json::str(*n)).collect()),
        ),
        (
            "samples",
            Json::Arr(
                m.samples()
                    .iter()
                    .map(|(t, row)| {
                        Json::obj(vec![
                            ("t_ns", Json::Num(*t as f64)),
                            (
                                "values",
                                Json::Arr(row.iter().map(|v| Json::Num(*v as f64)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Assembles the `--metrics-out` artifact from a sampled registry:
/// gauge names in registration order, one row per virtual-time sample.
pub fn metrics_json(bench: &str, seed: u64, metrics: &MetricsHandle) -> Json {
    let [gauges, samples] = registry_members(metrics);
    Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str("metrics")),
        ("bench", Json::str(bench)),
        ("seed", Json::Num(seed as f64)),
        gauges,
        samples,
    ])
}

/// Multi-row variant of [`metrics_json`] for bins that sample one
/// registry per table row (e.g. table2's per-config ttcp beds).
pub fn metrics_rows_json(bench: &str, seed: u64, rows: &[(String, MetricsHandle)]) -> Json {
    Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str("metrics")),
        ("bench", Json::str(bench)),
        ("seed", Json::Num(seed as f64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|(label, metrics)| {
                        let [gauges, samples] = registry_members(metrics);
                        Json::obj(vec![("label", Json::str(label.clone())), gauges, samples])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_sim::{Metrics, SimTime};

    #[test]
    fn metrics_artifact_is_order_stable() {
        let m = Metrics::shared();
        m.borrow_mut().register("b_gauge", || 2);
        m.borrow_mut().register("a_gauge", || 1);
        m.borrow_mut().sample(SimTime::from_micros(5));
        let doc = metrics_json("test", 7, &m);
        let text = doc.write();
        // Registration order, not alphabetical.
        assert!(text.find("b_gauge").unwrap() < text.find("a_gauge").unwrap());
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed
                .get("samples")
                .and_then(Json::as_arr)
                .map(|s| s.len()),
            Some(1)
        );
    }

    #[test]
    fn host_profile_asserts_conservation() {
        use psd_sim::{Domain, Layer, Observable, Profiler};
        let cpu = Rc::new(RefCell::new(Cpu::new()));
        let prof = Profiler::shared();
        cpu.borrow_mut().set_observers(psd_sim::Observers {
            profile: Some(prof.clone()),
            ..Default::default()
        });
        let mut c = cpu.borrow_mut().begin(SimTime::ZERO);
        c.site_push(Domain::Kernel, "work");
        c.add_ns(Layer::Other, 1234);
        c.site_pop();
        cpu.borrow_mut().finish(c);
        let h = host_profile(0, &cpu, &prof);
        assert_eq!(h.total_busy_ns, 1234);
        assert_eq!(h.attributed_ns, 1234);
        assert!(h.stacks.contains("kernel:work"));
    }
}
