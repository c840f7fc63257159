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
//! ```text
//! usage: table5 [--quick] [--census] [--census-json PATH] [--trace-out PATH] [--profile] [--profile-out PATH]
//! ```
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

use psd_bench::cli::Args;
use psd_bench::observe::{Flag, Session};
use psd_bench::workload::{session_scaling, ScaleReport, WorkloadSpec};
use psd_filter::DemuxStrategy;
use psd_sim::Platform;
use psd_systems::SystemConfig;

const SEED: u64 = 42;

/// The strategy's name in table headers and row labels.
fn strategy_label(s: DemuxStrategy) -> &'static str {
    match s {
        DemuxStrategy::Cspf => "CSPF",
        DemuxStrategy::Mpf => "MPF",
    }
}

fn main() {
    let mut args = Args::from_env("table5");
    let quick = args.flag("--quick");
    let mut obs = Session::parse(
        &mut args,
        &[
            Flag::Census,
            Flag::CensusJson,
            Flag::TraceOut,
            Flag::Profile,
            Flag::ProfileOut,
        ],
    );
    args.finish();
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
                let mut r = session_scaling(config, platform, strategy, &spec, &obs.planes());
                println!(
                    "  {:>6}  {:>7}  {:>9.1}  {:>9.0}  {:>11.1}  {:>12.2}",
                    r.sessions,
                    r.filters,
                    r.steps_per_packet,
                    r.ns_per_packet,
                    r.bind_rpc.as_nanos() as f64 / 1000.0,
                    r.setup.as_nanos() as f64 / 1e6,
                );
                let label = format!("{} [{}] N={}", config.label(), strategy_label(strategy), n);
                if let Some(c) = r.census {
                    if obs.print_census {
                        println!(
                            "          census(rx): filter-runs={} body-copies={} \
                             crossings={} wakeups={}",
                            c.filter_runs, c.body_copies, c.crossings, c.wakeups
                        );
                    }
                    obs.census_row(&label, c.json_members());
                }
                // Taken, not borrowed: the kept report must not pin a
                // whole cell's trace and profile in memory.
                obs.record(&label, &std::mem::take(&mut r.observed));
                eprintln!(
                    "[wall] {label}: {:.0} ms ({:.0} sim-pkts/s)",
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

    obs.finish("table5", SEED);
}
