//! The one observe-and-export session behind every bench bin.
//!
//! The sim crate owns the observer planes ([`psd_sim::Census`],
//! [`psd_sim::FaultPlane`], [`psd_sim::Tracer`], [`psd_sim::Profiler`],
//! [`psd_sim::Metrics`]) but knows nothing about command lines or
//! artifact formats; this module is the bridge. The observability flags
//! are declared once ([`Session::parse`]); a [`Session`] says which
//! planes each run attaches ([`Planes`], the value workloads take),
//! collects every row's handles ([`Session::record`]) and, at the end,
//! checks the planes' invariants and writes every requested artifact
//! ([`Session::finish`]) through one writer with one error policy: a
//! message on stderr and exit status 1.
//!
//! Every plane is charged-time-neutral — no virtual time, no
//! randomness — so a bin's stdout is byte-identical whatever is
//! attached, and every export is deterministic (collapsed stacks are
//! sorted, gauges keep registration order, no wall-clock field exists),
//! so same-seed artifacts are byte-identical and CI can double-run and
//! diff them.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cli::Args;
use crate::json::Json;
use psd_sim::{CensusHandle, Cpu, MetricsHandle, ProfileHandle, SimTime, TraceHandle, Tracer};
use psd_systems::TestBed;

/// Sampling period of [`Planes::attach`]'s gauge plane: a full ttcp run
/// covers tens of virtual seconds per row, so 1 ms would balloon the
/// artifact.
const METRICS_PERIOD: SimTime = SimTime::from_millis(10);

/// The observability flags. A bin accepts the subset its runs can
/// honour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flag {
    /// `--census`: the bin prints an operation census after each row.
    Census,
    /// `--census-json PATH`: the per-row census as a JSON artifact.
    CensusJson,
    /// `--faults`: an empty (inert) fault plane on every bed.
    Faults,
    /// `--trace-out PATH`: a Chrome trace-event file, one trace process
    /// per row.
    TraceOut,
    /// `--stages`: the bin prints per-stage latency percentiles.
    Stages,
    /// `--profile`: charged-time hot-site tables on stderr.
    Profile,
    /// `--profile-out PATH`: the collapsed-stack profile artifact.
    ProfileOut,
    /// `--metrics-out PATH`: the virtual-time gauge timeseries.
    MetricsOut,
}

impl Flag {
    /// Every observability flag.
    pub const ALL: [Flag; 8] = [
        Flag::Census,
        Flag::CensusJson,
        Flag::Faults,
        Flag::TraceOut,
        Flag::Stages,
        Flag::Profile,
        Flag::ProfileOut,
        Flag::MetricsOut,
    ];
}

/// Which observer planes one run attaches. The default attaches
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct Planes {
    /// An operation census on every host CPU.
    pub census: bool,
    /// An empty fault plane on every host CPU and the wire: nothing is
    /// scripted or armed, so it only counts visits.
    pub faults: bool,
    /// The packet-lifecycle tracer to attach. Beds that attach the same
    /// handle pool their packets into one trace.
    pub trace: Option<TraceHandle>,
    /// A charged-time profiler on every host CPU.
    pub profile: bool,
    /// The gauge plane, sampled every 10 virtual milliseconds.
    pub metrics: bool,
}

/// The handles of one run's attached planes (empty where a plane was
/// not requested). They outlive the testbed.
#[derive(Clone, Debug, Default)]
pub struct Attached {
    /// One census per host, in bed `hosts` order.
    pub census: Vec<CensusHandle>,
    /// The tracer the run reported to.
    pub trace: Option<TraceHandle>,
    /// One `(cpu, profiler)` pair per host, in bed `hosts` order.
    pub profiles: Vec<(Rc<RefCell<Cpu>>, ProfileHandle)>,
    /// The sampled gauge registry.
    pub metrics: Option<MetricsHandle>,
}

impl Planes {
    /// Attaches the requested planes to `bed`, before its first charge.
    pub fn attach(&self, bed: &mut TestBed) -> Attached {
        let census = if self.census {
            bed.attach_census()
        } else {
            Vec::new()
        };
        if self.faults {
            bed.attach_fault_plane();
        }
        if let Some(t) = &self.trace {
            bed.attach_tracer_handle(t);
        }
        let profiles = if self.profile {
            let profilers = bed.attach_profilers();
            let cpus = bed.hosts.iter().map(|h| h.cpu.clone());
            cpus.zip(profilers).collect()
        } else {
            Vec::new()
        };
        Attached {
            census,
            trace: self.trace.clone(),
            profiles,
            metrics: self.metrics.then(|| bed.attach_metrics(METRICS_PERIOD)),
        }
    }
}

impl Attached {
    /// Prints every host's census under `  census host<i><suffix>:`
    /// headings, the `--census` block of the table bins.
    pub fn print_census(&self, suffix: &str) {
        for (i, census) in self.census.iter().enumerate() {
            println!("  census host{i}{suffix}:");
            for line in census.borrow().snapshot().lines() {
                println!("    {line}");
            }
        }
        println!();
    }

    /// The standard `--census-json` row body: every host's snapshot.
    pub fn census_hosts(&self) -> Vec<(&'static str, Json)> {
        let host = |c: &CensusHandle| {
            Json::parse(&c.borrow().snapshot_json()).expect("a census snapshot is JSON")
        };
        vec![("hosts", Json::Arr(self.census.iter().map(host).collect()))]
    }
}

/// Snapshots one host's profiler as a `--profile-out` host member plus
/// its hot-site table, and checks the exact-conservation guarantee:
/// every charged nanosecond on the CPU is attributed to exactly one
/// (site, layer) bucket, bit-exact. A violation is a bug in the charge
/// plumbing, never data-dependent.
fn host_profile(
    host: usize,
    cpu: &Rc<RefCell<Cpu>>,
    prof: &ProfileHandle,
) -> Result<(Json, String), String> {
    let total_busy_ns = cpu.borrow().total_busy().as_nanos();
    let p = prof.borrow();
    let (attributed_ns, sites) = (p.attributed_ns(), p.site_count());
    if attributed_ns != total_busy_ns {
        return Err(format!(
            "profiler conservation violated on host {host}: attributed {attributed_ns} ns \
             != total busy {total_busy_ns} ns"
        ));
    }
    let mut hot = format!("host{host} — {attributed_ns} ns attributed over {sites} sites\n");
    for line in p.hot_site_table(10).lines() {
        hot += &format!("  {line}\n");
    }
    let member = Json::obj(vec![
        ("host", Json::Num(host as f64)),
        ("total_busy_ns", Json::Num(total_busy_ns as f64)),
        ("attributed_ns", Json::Num(attributed_ns as f64)),
        ("sites", Json::Num(sites as f64)),
        // Collapsed-stack (flamegraph) text, lexicographically sorted.
        ("stacks", Json::str(p.collapsed_stacks())),
    ]);
    Ok((member, hot))
}

/// An observer artifact: the shared `{version, tool, bench}` head, then
/// `body`.
fn artifact(tool: &str, bench: &str, body: Vec<(&'static str, Json)>) -> Json {
    let mut doc = vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str(tool)),
        ("bench", Json::str(bench)),
    ];
    doc.extend(body);
    Json::obj(doc)
}

/// `gauges` + `samples` members for one sampled registry: gauge names
/// in registration order, one sample row per virtual-time instant.
fn registry_members(metrics: &MetricsHandle) -> [(&'static str, Json); 2] {
    let m = metrics.borrow();
    let sample = |(t, row): &(u64, Vec<u64>)| {
        Json::obj(vec![
            ("t_ns", Json::Num(*t as f64)),
            (
                "values",
                Json::Arr(row.iter().map(|v| Json::Num(*v as f64)).collect()),
            ),
        ])
    };
    [
        (
            "gauges",
            Json::Arr(m.gauge_names().iter().map(|n| Json::str(*n)).collect()),
        ),
        (
            "samples",
            Json::Arr(m.samples().iter().map(sample).collect()),
        ),
    ]
}

/// Assembles the `--metrics-out` artifact: one registry per recorded
/// row. A single unlabelled row is the whole bench (`chaosnet`), and
/// its registry sits at the top level.
fn metrics_json(bench: &str, seed: u64, rows: &[(String, MetricsHandle)]) -> Json {
    let mut body = vec![("seed", Json::Num(seed as f64))];
    match rows {
        [(label, metrics)] if label.is_empty() => body.extend(registry_members(metrics)),
        _ => {
            let row = |(label, metrics): &(String, MetricsHandle)| {
                let [gauges, samples] = registry_members(metrics);
                Json::obj(vec![("label", Json::str(label.clone())), gauges, samples])
            };
            body.push(("rows", Json::Arr(rows.iter().map(row).collect())));
        }
    }
    artifact("metrics", bench, body)
}

fn fail(bin: &str, problem: &str) -> ! {
    eprintln!("{bin}: {problem}");
    std::process::exit(1);
}

/// The one artifact writer: writes `text` to `path` and says so on
/// stderr, or reports the failure and exits 1.
fn write_artifact(bin: &str, what: &str, path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        fail(bin, &format!("cannot write {path}: {e}"));
    }
    eprintln!("{bin}: wrote {what} to {path}");
}

/// What a bin was asked to observe and export, and everything its rows
/// have recorded so far. The default asks for nothing.
#[derive(Default)]
pub struct Session {
    /// `--census`: the bin prints each row's census
    /// ([`Attached::print_census`], or its own summary line).
    pub print_census: bool,
    /// `--stages`: the bin prints each row's [`Tracer::stage_report`].
    pub print_stages: bool,
    bin: &'static str,
    faults: bool,
    profile: bool,
    census_json: Option<String>,
    trace_out: Option<String>,
    profile_out: Option<String>,
    metrics_out: Option<String>,
    /// Rows recorded so far: the next row's trace process id.
    rows: u64,
    census_rows: Vec<Json>,
    trace_events: String,
    profile_rows: Vec<Json>,
    /// The hot-site tables `finish` prints to stderr (stdout must stay
    /// byte-identical to an unprofiled run; CI diffs it).
    hot_tables: String,
    metrics_rows: Vec<(String, MetricsHandle)>,
}

impl Session {
    /// Declares the observability flags the bin `accepts` and reads
    /// them off its command line.
    pub fn parse(args: &mut Args, accepts: &[Flag]) -> Session {
        let mut s = Session {
            bin: args.bin(),
            ..Session::default()
        };
        for flag in accepts {
            match flag {
                Flag::Census => s.print_census = args.flag("--census"),
                Flag::CensusJson => s.census_json = args.value("--census-json", "PATH"),
                Flag::Faults => s.faults = args.flag("--faults"),
                Flag::TraceOut => s.trace_out = args.value("--trace-out", "PATH"),
                Flag::Stages => s.print_stages = args.flag("--stages"),
                Flag::Profile => s.profile = args.flag("--profile"),
                Flag::ProfileOut => s.profile_out = args.value("--profile-out", "PATH"),
                Flag::MetricsOut => s.metrics_out = args.value("--metrics-out", "PATH"),
            }
        }
        s
    }

    /// The planes the next row attaches: everything a flag asked for,
    /// with a tracer of its own when the row is traced.
    pub fn planes(&self) -> Planes {
        let traced = self.print_stages || self.trace_out.is_some();
        Planes {
            census: self.print_census || self.census_json.is_some(),
            faults: self.faults,
            trace: traced.then(Tracer::shared),
            profile: self.profile || self.profile_out.is_some(),
            metrics: self.metrics_out.is_some(),
        }
    }

    /// Adds one row to the `--census-json` artifact (when requested):
    /// `{"label": …}` followed by `body`.
    pub fn census_row(&mut self, label: &str, body: Vec<(&'static str, Json)>) {
        if self.census_json.is_some() {
            let mut row = vec![("label", Json::str(label))];
            row.extend(body);
            self.census_rows.push(Json::obj(row));
        }
    }

    /// Records one finished row: checks its tracer's lifecycle
    /// invariants and its profilers' conservation, and keeps what the
    /// requested artifacts need of it.
    pub fn record(&mut self, label: &str, seen: &Attached) {
        let pid = self.rows;
        self.rows += 1;
        if let Some(t) = &seen.trace {
            let violations = t.borrow().check_invariants();
            if !violations.is_empty() {
                fail(
                    self.bin,
                    &format!("{label}: trace invariants violated: {violations:?}"),
                );
            }
            if self.trace_out.is_some() {
                t.borrow().chrome_events(pid, label, &mut self.trace_events);
            }
        }
        if !seen.profiles.is_empty() {
            let mut hosts = Vec::new();
            for (i, (cpu, prof)) in seen.profiles.iter().enumerate() {
                let (member, hot) = host_profile(i, cpu, prof)
                    .unwrap_or_else(|e| fail(self.bin, &format!("{label}: {e}")));
                hosts.push(member);
                self.hot_tables += &format!("profile: {label} {hot}");
            }
            let row = vec![("label", Json::str(label)), ("hosts", Json::Arr(hosts))];
            self.profile_rows.push(Json::obj(row));
        }
        if let Some(metrics) = &seen.metrics {
            self.metrics_rows.push((label.to_string(), metrics.clone()));
        }
    }

    /// Prints the hot-site tables and writes every requested artifact.
    pub fn finish(self, bench: &str, seed: u64) {
        if let Some(path) = &self.trace_out {
            let doc = psd_sim::chrome_trace_document(&self.trace_events);
            write_artifact(self.bin, "Chrome trace", path, &doc);
        }
        if let Some(path) = &self.census_json {
            let doc = artifact("census", bench, vec![("rows", Json::Arr(self.census_rows))]);
            write_artifact(self.bin, "census snapshot", path, &doc.write());
        }
        eprint!("{}", self.hot_tables);
        if let Some(path) = &self.profile_out {
            let doc = artifact(
                "profile",
                bench,
                vec![("rows", Json::Arr(self.profile_rows))],
            );
            write_artifact(self.bin, "charged-time profile", path, &doc.write());
        }
        if let Some(path) = &self.metrics_out {
            let doc = metrics_json(bench, seed, &self.metrics_rows);
            write_artifact(self.bin, "metrics timeseries", path, &doc.write());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ttcp, ApiStyle};
    use psd_sim::{Metrics, Observable, Platform};
    use psd_systems::SystemConfig;

    #[test]
    fn metrics_artifact_is_order_stable() {
        let m = Metrics::shared();
        m.borrow_mut().register("b_gauge", || 2);
        m.borrow_mut().register("a_gauge", || 1);
        m.borrow_mut().sample(SimTime::from_micros(5));
        let doc = metrics_json("test", 7, &[(String::new(), m)]);
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
    fn host_profile_checks_conservation() {
        use psd_sim::{Domain, Layer, Profiler};
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
        let (h, hot) = host_profile(0, &cpu, &prof).unwrap();
        assert_eq!(h.get("total_busy_ns").and_then(Json::as_f64), Some(1234.0));
        assert_eq!(h.get("attributed_ns").and_then(Json::as_f64), Some(1234.0));
        assert!(h
            .get("stacks")
            .and_then(Json::as_str)
            .unwrap()
            .contains("kernel:work"));
        assert!(hot.starts_with("host0 — 1234 ns attributed over 2 sites\n  "));
        // A profiler that missed a charge no longer conserves.
        let late = Profiler::shared();
        let lost = host_profile(0, &cpu, &late).unwrap_err();
        assert!(lost.contains("conservation violated"), "{lost}");
    }

    #[test]
    fn session_exports_are_deterministic_and_nothing_requested_attaches_nothing() {
        let platform = Platform::DecStation5000_200;
        let dir = std::env::temp_dir().join(format!("psd-observe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kinds = ["census-json", "trace-out", "profile-out", "metrics-out"];
        let export = |run: &str| -> Vec<String> {
            let path = |kind: &str| dir.join(format!("{run}-{kind}")).display().to_string();
            let mut tokens = ["--census", "--faults", "--stages", "--profile"]
                .map(String::from)
                .to_vec();
            for kind in kinds {
                tokens.extend([format!("--{kind}"), path(kind)]);
            }
            // The mbuf gauges read per-thread pool state; start each
            // session where a fresh process (what CI compares) starts.
            psd_mbuf::drain_pools();
            psd_mbuf::reset_pool_stats();
            let mut args = Args::new("test", tokens);
            let mut session = Session::parse(&mut args, &Flag::ALL);
            args.finish();
            assert!(session.print_census && session.print_stages);
            for config in [SystemConfig::LibraryShm, SystemConfig::UxServer] {
                let mut bed = TestBed::new(config, platform, 42);
                let seen = session.planes().attach(&mut bed);
                ttcp(&mut bed, 64 << 10, ApiStyle::Classic);
                bed.settle();
                session.census_row(config.label(), seen.census_hosts());
                session.record(config.label(), &seen);
            }
            session.finish("test", 42);
            kinds
                .map(|kind| std::fs::read_to_string(path(kind)).unwrap())
                .to_vec()
        };
        let (a, b) = (export("a"), export("b"));
        for (kind, text) in kinds.iter().zip(&a) {
            assert!(text.contains(SystemConfig::UxServer.label()), "{kind}");
        }
        assert_eq!(a, b, "same-seed sessions export identical bytes");
        std::fs::remove_dir_all(&dir).unwrap();

        let mut bed = TestBed::new(SystemConfig::LibraryShm, platform, 42);
        let seen = Session::default().planes().attach(&mut bed);
        assert!(seen.census.is_empty() && seen.trace.is_none());
        assert!(seen.profiles.is_empty() && seen.metrics.is_none());
        for h in &bed.hosts {
            let unobserved = format!("{:?}", psd_sim::Observers::default());
            assert_eq!(format!("{:?}", h.cpu.borrow().observers()), unobserved);
        }
    }
}
