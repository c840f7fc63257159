//! Generates Table 5: demultiplexing cost as the session count scales.
//!
//! The paper's tables stop at two sessions, but its §3.1 argument is
//! asymptotic: CSPF evaluates every installed session filter per
//! packet, while MPF dispatches through a shared prefix whose cost does
//! not depend on the session count. This table drives the
//! session-scaling workload engine at N ∈ {16, 256, 4096} sessions
//! across every placement and both strategies and reports the observed
//! per-packet filter cost, the control-RPC latency at full load, and
//! the virtual-time cost per delivered packet.
//!
//! Usage: `cargo run --release -p psd-bench --bin table5 [--quick] [--census]
//! [--trace-out <path>] [--census-json <path>]`
//!
//! Everything on stdout is deterministic: two runs with the same
//! arguments are byte-identical (census included). Wall-clock progress
//! goes to stderr only. `--trace-out` writes a Chrome trace-event JSON
//! covering every run (one trace process per `(config, strategy, N)`
//! cell); `--census-json` writes the per-cell receive-host census as
//! JSON. Neither flag changes the table output.
//!
//! `--profile` attaches the charged-time profiler to every cell's
//! testbed, asserts exact conservation (attributed ns == CPU busy ns,
//! bit-exact, per host), and prints hot-site tables to stderr;
//! `--profile-out <path>` writes the collapsed-stack artifact. Both
//! are charged-time-neutral: stdout is byte-identical either way.

use psd_bench::observe;
use psd_bench::workload::{session_scaling_observed, ScaleReport, WorkloadSpec};
use psd_filter::DemuxStrategy;
use psd_sim::Platform;
use psd_systems::SystemConfig;

const SEED: u64 = 42;

fn strategy_label(s: DemuxStrategy) -> &'static str {
    match s {
        DemuxStrategy::Cspf => "CSPF",
        DemuxStrategy::Mpf => "MPF",
    }
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let want_census = std::env::args().any(|a| a == "--census");
    let trace_out = flag_value("--trace-out");
    let census_json = flag_value("--census-json");
    let profile_out = flag_value("--profile-out");
    let profiling = std::env::args().any(|a| a == "--profile") || profile_out.is_some();
    let mut trace_events = String::new();
    let mut census_docs: Vec<String> = Vec::new();
    let mut profile_runs: Vec<observe::ProfiledRun> = Vec::new();
    let mut cell_idx: u64 = 0;
    let (scales, packets): (&[usize], usize) = if quick {
        (&[16, 128], 256)
    } else {
        (&[16, 256, 4096], 512)
    };
    let platform = Platform::DecStation5000_200;
    let configs = [
        SystemConfig::UxServer,
        SystemConfig::LibraryIpc,
        SystemConfig::LibraryShm,
        SystemConfig::LibraryShmIpf,
    ];
    let strategies = [DemuxStrategy::Cspf, DemuxStrategy::Mpf];

    println!("==== Table 5: session-scaling demultiplexing ====");
    println!(
        "N concurrent UDP sessions (every 4th connected) + N/8 TCP (cap 32); \
         {packets}-datagram burst; seed {SEED}\n"
    );

    // reports[(config, strategy)] -> per-N reports, in `scales` order.
    let mut all: Vec<(SystemConfig, DemuxStrategy, Vec<ScaleReport>)> = Vec::new();
    for config in configs {
        for strategy in strategies {
            println!("{} [{}]", config.label(), strategy_label(strategy));
            println!(
                "  {:>6}  {:>7}  {:>9}  {:>9}  {:>11}  {:>12}",
                "N", "filters", "steps/pkt", "ns/pkt", "bind-rpc us", "setup virt ms"
            );
            let mut rows = Vec::new();
            for &n in scales {
                let spec = WorkloadSpec::at_scale(n, packets, SEED);
                let tracer = trace_out.is_some().then(psd_sim::Tracer::shared);
                let r = session_scaling_observed(
                    config,
                    platform,
                    strategy,
                    &spec,
                    want_census || census_json.is_some(),
                    tracer.as_ref(),
                    profiling,
                );
                if profiling {
                    profile_runs.push(observe::ProfiledRun {
                        label: format!("{} [{}] N={}", config.label(), strategy_label(strategy), n),
                        hosts: r
                            .profiles
                            .iter()
                            .enumerate()
                            .map(|(i, (cpu, prof))| observe::host_profile(i, cpu, prof))
                            .collect(),
                    });
                }
                println!(
                    "  {:>6}  {:>7}  {:>9.1}  {:>9.0}  {:>11.1}  {:>12.2}",
                    r.sessions,
                    r.filters,
                    r.steps_per_packet,
                    r.ns_per_packet,
                    r.bind_rpc.as_nanos() as f64 / 1000.0,
                    r.setup.as_nanos() as f64 / 1e6,
                );
                if want_census {
                    if let Some(c) = r.census {
                        println!(
                            "          census(rx): filter-runs={} body-copies={} \
                             crossings={} wakeups={}",
                            c.filter_runs, c.body_copies, c.crossings, c.wakeups
                        );
                    }
                }
                if let Some(t) = &tracer {
                    let violations = t.borrow().check_invariants();
                    assert!(violations.is_empty(), "trace invariants: {violations:?}");
                    let label =
                        format!("{} [{}] N={}", config.label(), strategy_label(strategy), n);
                    t.borrow()
                        .chrome_events(cell_idx, &label, &mut trace_events);
                }
                if census_json.is_some() {
                    let c = r.census.expect("census attached for --census-json");
                    census_docs.push(format!(
                        "{{\"config\":\"{}\",\"strategy\":\"{}\",\"sessions\":{},\
                         \"filter_runs\":{},\"body_copies\":{},\"crossings\":{},\
                         \"wakeups\":{}}}",
                        config.label(),
                        strategy_label(strategy),
                        n,
                        c.filter_runs,
                        c.body_copies,
                        c.crossings,
                        c.wakeups
                    ));
                }
                cell_idx += 1;
                eprintln!(
                    "[wall] {} [{}] N={}: {:.0} ms ({:.0} sim-pkts/s)",
                    config.label(),
                    strategy_label(strategy),
                    n,
                    r.wall.as_secs_f64() * 1000.0,
                    r.packets_rx as f64 / r.wall.as_secs_f64().max(1e-9),
                );
                rows.push(r);
            }
            println!();
            all.push((config, strategy, rows));
        }
    }

    // Derived shape checks: the asymptotic claims the table exists to
    // demonstrate. Each prints a PASS/FAIL token the CI greps for.
    println!("-- derived shape checks --");
    let lo = scales[0];
    let hi = *scales.last().unwrap();
    let growth = hi as f64 / lo as f64;
    for (config, strategy, rows) in &all {
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        match (config.is_library(), strategy) {
            (true, DemuxStrategy::Mpf) => {
                // MPF per-packet cost must be flat in N.
                let flat = last.steps_per_packet <= first.steps_per_packet * 1.5 + 2.0;
                println!(
                    "  {:<28} MPF flat:    {:>7.1} -> {:>7.1} steps/pkt (N {lo} -> {hi})  {}",
                    config.label(),
                    first.steps_per_packet,
                    last.steps_per_packet,
                    if flat { "PASS" } else { "FAIL" }
                );
            }
            (true, DemuxStrategy::Cspf) => {
                // CSPF per-packet cost must grow with N (at least a
                // quarter of linearly, to be robust to the mix).
                let grew = last.steps_per_packet >= first.steps_per_packet * (growth / 4.0);
                println!(
                    "  {:<28} CSPF linear: {:>7.1} -> {:>7.1} steps/pkt (x{:.0})          {}",
                    config.label(),
                    first.steps_per_packet,
                    last.steps_per_packet,
                    last.steps_per_packet / first.steps_per_packet.max(1e-9),
                    if grew { "PASS" } else { "FAIL" }
                );
            }
            (false, _) => {
                // Server-resident placement: no session filters exist,
                // so per-packet cost must not depend on N (an empty MPF
                // table still runs its constant shared prefix).
                let inert = last.filters == 0
                    && (last.steps_per_packet - first.steps_per_packet).abs() < f64::EPSILON;
                println!(
                    "  {:<28} {} inert:  {:>7.1} steps/pkt, {} filters            {}",
                    config.label(),
                    strategy_label(*strategy),
                    last.steps_per_packet,
                    last.filters,
                    if inert { "PASS" } else { "FAIL" }
                );
            }
        }
    }
    // The simulator itself must stay usable at the top scale: session
    // setup is charged in virtual time, so a super-linear blowup in
    // per-session control cost shows up here.
    for (config, _, rows) in all.iter().filter(|(_, s, _)| *s == DemuxStrategy::Mpf) {
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        let per_first = first.setup.as_nanos() as f64 / first.sessions as f64;
        let per_last = last.setup.as_nanos() as f64 / last.sessions as f64;
        let ok = per_last <= per_first * 3.0;
        println!(
            "  {:<28} setup/sess:  {:>7.1} -> {:>7.1} us (N {lo} -> {hi})        {}",
            config.label(),
            per_first / 1000.0,
            per_last / 1000.0,
            if ok { "PASS" } else { "FAIL" }
        );
    }

    if let Some(path) = &trace_out {
        std::fs::write(path, psd_sim::chrome_trace_document(&trace_events))
            .expect("write trace file");
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &census_json {
        let doc = format!("{{\"cells\":[{}]}}\n", census_docs.join(","));
        std::fs::write(path, doc).expect("write census json");
        eprintln!("wrote census snapshot to {path}");
    }
    if profiling {
        observe::print_hot_tables(&profile_runs);
    }
    if let Some(path) = &profile_out {
        let doc = observe::profile_json("table5", &profile_runs);
        std::fs::write(path, doc.write()).expect("write profile json");
        eprintln!("wrote charged-time profile to {path}");
    }
}
