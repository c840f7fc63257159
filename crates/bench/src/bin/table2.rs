//! Regenerates Table 2: TCP throughput (ttcp) and TCP/UDP round-trip
//! latency (protolat) for every system configuration on both
//! platforms.
//!
//! ```text
//! usage: table2 [--quick] [--gateway] [--decstation] [--census] [--census-json PATH] [--faults] [--trace-out PATH] [--stages] [--profile] [--profile-out PATH] [--metrics-out PATH]
//! ```
//!
//! `--quick` transfers 2 MB instead of the paper's 16 MB and runs 50
//! latency rounds instead of 200. `--census` appends an operation
//! census (crossings, copies, locks, wakeups per host) for each
//! configuration's ttcp run; counting never charges virtual time, so
//! every numeric result is identical with or without it. `--faults`
//! attaches an (empty) fault plane to every run — no site is scripted
//! or armed, so the plane only counts visits and the output must be
//! byte-identical to a run without it (CI asserts this).
//!
//! `--trace-out <path>` writes a Chrome trace-event JSON file (load it
//! at `chrome://tracing` or in Perfetto) covering every latency run,
//! one trace process per table row. `--stages` prints per-stage
//! latency percentiles (p50/p90/p99) for each row's latency runs.
//! `--census-json <path>` writes the per-row census snapshots as JSON.
//! Tracing charges no virtual time and consumes no randomness, so the
//! table itself is byte-identical with or without these flags, and the
//! trace file is byte-identical across reruns (CI asserts both).
//!
//! `--profile` attaches the charged-time profiler to every ttcp bed,
//! asserts the exact-conservation invariant (attributed ns equals CPU
//! busy ns, bit-exact, per host), and prints per-host hot-site tables
//! to **stderr** — stdout stays byte-identical to an unprofiled run.
//! `--profile-out <path>` additionally writes the collapsed-stack
//! profile artifact. `--metrics-out <path>` samples the virtual-time
//! gauge plane over each ttcp run (10 ms virtual period) and writes
//! the timeseries artifact. All three are charged-time-neutral.

use psd_bench::cli::Args;
use psd_bench::observe::{Flag, Planes, Session};
use psd_bench::tables::{fmt_pair, table2_for, TCP_SIZES, UDP_SIZES};
use psd_bench::{protolat, ttcp, ApiStyle};
use psd_server::Proto;
use psd_sim::Platform;
use psd_systems::TestBed;

/// Seed of every ttcp bed (latency beds count up from it).
const SEED: u64 = 42;

fn main() {
    let mut args = Args::from_env("table2");
    let quick = args.flag("--quick");
    let gateway = args.flag("--gateway");
    let decstation = args.flag("--decstation");
    let mut obs = Session::parse(&mut args, &Flag::ALL);
    args.finish();
    let (bytes, rounds) = if quick {
        (2 << 20, 50)
    } else {
        (16 << 20, 200)
    };
    let platforms: Vec<Platform> = if gateway {
        vec![Platform::Gateway486]
    } else if decstation {
        vec![Platform::DecStation5000_200]
    } else {
        vec![Platform::DecStation5000_200, Platform::Gateway486]
    };

    // What the latency and shape-check beds attach besides a tracer.
    let faults_only = Planes {
        faults: obs.planes().faults,
        ..Planes::default()
    };
    for platform in platforms {
        println!("==== {} ====", platform.label());
        println!(
            "ttcp: {} MB memory-to-memory; latency: {} round trips/size\n",
            bytes >> 20,
            rounds
        );
        for row in table2_for(platform) {
            let config = row.config;
            // The row's tracer is attached to the latency beds only
            // (the ttcp run would dominate the trace with bulk data
            // packets); every other plane observes the ttcp bed.
            let planes = obs.planes();
            let latency = Planes {
                trace: planes.trace.clone(),
                ..faults_only.clone()
            };
            // Throughput.
            let mut bed = TestBed::new(config, platform, SEED);
            let mut seen = Planes {
                trace: None,
                ..planes
            }
            .attach(&mut bed);
            seen.trace = latency.trace.clone();
            let t = ttcp(&mut bed, bytes, ApiStyle::Classic);
            println!("{}", config.label());
            println!(
                "  throughput KB/s : {}   [buf {} KB]",
                fmt_pair(t.kb_per_sec, row.throughput),
                row.bufsize
            );
            for (proto, name, sizes, paper, seed) in [
                (Proto::Tcp, "TCP", TCP_SIZES, row.tcp_ms, 43),
                (Proto::Udp, "UDP", UDP_SIZES, row.udp_ms, 53),
            ] {
                print!("  {name} rtt ms      :");
                for (i, &size) in sizes.iter().enumerate() {
                    let Some(paper) = paper[i] else {
                        print!("  {:>5}({:>5})", "NA", "NA");
                        continue;
                    };
                    let mut bed = TestBed::new(config, platform, seed + i as u64);
                    latency.attach(&mut bed);
                    let lat = protolat(&mut bed, proto, size, 20, rounds, ApiStyle::Classic);
                    print!("  {:5.2}({paper:5.2})", lat.rtt.as_millis_f64());
                }
                println!();
            }
            println!();
            if let (true, Some(t)) = (obs.print_stages, &seen.trace) {
                println!("  stage latencies (latency runs, all sizes pooled):");
                for line in t.borrow().stage_report().lines() {
                    println!("  {line}");
                }
                println!();
            }
            if obs.print_census {
                seen.print_census(" (ttcp run)");
            }
            let label = format!("{} | {}", platform.label(), config.label());
            obs.census_row(&label, seen.census_hosts());
            obs.record(&label, &seen);
        }
        // The §4.1 derived claims.
        println!("-- derived shape checks ({}) --", platform.label());
        let tput = |c: psd_systems::SystemConfig| {
            let mut bed = TestBed::new(c, platform, SEED);
            faults_only.attach(&mut bed);
            ttcp(&mut bed, bytes, ApiStyle::Classic).kb_per_sec
        };
        use psd_systems::SystemConfig::*;
        if platform == Platform::DecStation5000_200 {
            let kernel = tput(Mach25InKernel);
            let ipc = tput(LibraryIpc);
            let shm = tput(LibraryShm);
            let ipf = tput(LibraryShmIpf);
            let server = tput(UxServer);
            println!(
                "  Library-IPC / In-Kernel   = {:.2}  (paper ≈ 0.85)",
                ipc / kernel
            );
            println!(
                "  Library-SHM / Library-IPC = {:.2}  (paper ≈ 1.18)",
                shm / ipc
            );
            println!(
                "  Library-IPF / In-Kernel   = {:.2}  (paper ≈ 1.02)",
                ipf / kernel
            );
            println!(
                "  Server      / In-Kernel   = {:.2}  (paper ≈ 0.69)",
                server / kernel
            );
        }
        println!();
    }

    obs.finish("table2", SEED);
}
