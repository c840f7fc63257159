//! The table bins' bodies, and the registry of the tables they archive.
//!
//! Each `tableN` function reads its bin's command line and returns what
//! the bin prints on stdout, or the [`Violation`] of a check it ran; the
//! bin itself is `print!` of that text, or [`Violation::exit`].
//! Requested artifacts are still written by `Session::finish`, and
//! stderr (hot-site tables, `[wall]` lines) never enters the returned
//! text. [`ARCHIVES`] lists the five committed `results_tableN.txt`
//! files with the arguments they were rendered with, so one test can
//! render each in-process and compare it byte for byte.

use std::fmt::Write as _;

use psd_filter::DemuxStrategy;
use psd_server::Proto;
use psd_sim::{Layer, Platform};
use psd_systems::{SystemConfig, TestBed};

use crate::cli::Args;
use crate::observe::{Flag, Planes, Session, Violation};
use crate::tables::{self, fmt_pair, table2_for, table3_decstation, TCP_SIZES, UDP_SIZES};
use crate::workload::{session_scaling, ScaleReport, WorkloadSpec};
use crate::{protolat, table6 as matrix, ttcp, ApiStyle};

/// One committed archive: a full run's stdout, and how to render it.
pub struct Archive {
    /// The committed file, relative to the workspace root.
    pub file: &'static str,
    /// The bin that regenerates it.
    pub bin: &'static str,
    /// The arguments the archive was rendered with.
    pub args: &'static [&'static str],
    /// The bin's body.
    body: fn(Args) -> Result<String, Violation>,
}

impl Archive {
    /// What `bin tokens…` prints on stdout, or the check that failed.
    pub fn render(&self, tokens: &[&str]) -> Result<String, Violation> {
        (self.body)(Args::new(self.bin, tokens.iter().map(|t| t.to_string())))
    }

    /// The shell command that regenerates [`Archive::file`].
    pub fn command(&self) -> String {
        let args: String = self.args.iter().map(|a| format!(" {a}")).collect();
        format!("target/release/{}{args} > {}", self.bin, self.file)
    }
}

/// Every archived table, in table order.
pub const ARCHIVES: [Archive; 5] = [
    Archive {
        file: "results_table2.txt",
        bin: "table2",
        args: &[],
        body: table2,
    },
    Archive {
        file: "results_table3.txt",
        bin: "table3",
        args: &[],
        body: table3,
    },
    Archive {
        file: "results_table4.txt",
        bin: "table4",
        args: &["--rounds", "500"],
        body: table4,
    },
    Archive {
        file: "results_table5.txt",
        bin: "table5",
        args: &[],
        body: table5,
    },
    Archive {
        file: "results_table6.txt",
        bin: "table6",
        args: &[],
        body: table6,
    },
];

/// ttcp bytes and latency rounds per size: `--quick` transfers 2 MB and
/// runs 50 rounds, the paper 16 MB and 200.
fn ttcp_scale(quick: bool) -> (usize, u32) {
    if quick {
        (2 << 20, 50)
    } else {
        (16 << 20, 200)
    }
}

/// Table 2: ttcp throughput and TCP/UDP round-trip latency for every
/// configuration on both platforms.
pub fn table2(mut args: Args) -> Result<String, Violation> {
    /// Seed of every ttcp bed (latency beds count up from it).
    const SEED: u64 = 42;
    let quick = args.flag("--quick");
    let gateway = args.flag("--gateway");
    let decstation = args.flag("--decstation");
    let mut obs = Session::parse(&mut args, &Flag::ALL);
    args.finish();
    let (bytes, rounds) = ttcp_scale(quick);
    let platforms: Vec<Platform> = if gateway {
        vec![Platform::Gateway486]
    } else if decstation {
        vec![Platform::DecStation5000_200]
    } else {
        vec![Platform::DecStation5000_200, Platform::Gateway486]
    };

    let mut out = String::new();
    for platform in platforms {
        let _ = writeln!(out, "==== {} ====", platform.label());
        let _ = writeln!(
            out,
            "ttcp: {} MB memory-to-memory; latency: {} round trips/size\n",
            bytes >> 20,
            rounds
        );
        // Every row's ttcp throughput, for the derived shape checks.
        let mut kb_per_sec = Vec::new();
        for row in table2_for(platform) {
            let config = row.config;
            // The row's tracer is attached to the latency beds only
            // (the ttcp run would dominate the trace with bulk data
            // packets); every other plane observes the ttcp bed.
            let planes = obs.planes();
            let latency = Planes {
                faults: planes.faults,
                trace: planes.trace.clone(),
                ..Planes::default()
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
            kb_per_sec.push((config, t.kb_per_sec));
            let _ = writeln!(out, "{}", config.label());
            let _ = writeln!(
                out,
                "  throughput KB/s : {}   [buf {} KB]",
                fmt_pair(t.kb_per_sec, row.throughput),
                row.bufsize
            );
            for (proto, name, sizes, paper, seed) in [
                (Proto::Tcp, "TCP", TCP_SIZES, row.tcp_ms, 43),
                (Proto::Udp, "UDP", UDP_SIZES, row.udp_ms, 53),
            ] {
                let _ = write!(out, "  {name} rtt ms      :");
                for (i, &size) in sizes.iter().enumerate() {
                    let Some(paper) = paper[i] else {
                        let _ = write!(out, "  {:>5}({:>5})", "NA", "NA");
                        continue;
                    };
                    let mut bed = TestBed::new(config, platform, seed + i as u64);
                    latency.attach(&mut bed);
                    let lat = protolat(&mut bed, proto, size, 20, rounds, ApiStyle::Classic);
                    let _ = write!(out, "  {:5.2}({paper:5.2})", lat.rtt.as_millis_f64());
                }
                let _ = writeln!(out);
            }
            let _ = writeln!(out);
            if let (true, Some(t)) = (obs.print_stages, &seen.trace) {
                let _ = writeln!(out, "  stage latencies (latency runs, all sizes pooled):");
                for line in t.borrow().stage_report().lines() {
                    let _ = writeln!(out, "  {line}");
                }
                let _ = writeln!(out);
            }
            if obs.print_census {
                out += &seen.census_text(" (ttcp run)");
            }
            let label = format!("{} | {}", platform.label(), config.label());
            obs.census_row(&label, seen.census_hosts());
            obs.record(&label, &seen)?;
        }
        // The §4.1 derived claims, read off the rows' own ttcp runs.
        let _ = writeln!(out, "-- derived shape checks ({}) --", platform.label());
        if platform == Platform::DecStation5000_200 {
            let tput = |c: SystemConfig| {
                let row = kb_per_sec.iter().find(|(config, _)| *config == c);
                row.expect("every shape check names a Table 2 row").1
            };
            use SystemConfig::*;
            let kernel = tput(Mach25InKernel);
            let ipc = tput(LibraryIpc);
            let shm = tput(LibraryShm);
            let ipf = tput(LibraryShmIpf);
            let server = tput(UxServer);
            let _ = writeln!(
                out,
                "  Library-IPC / In-Kernel   = {:.2}  (paper ≈ 0.85)",
                ipc / kernel
            );
            let _ = writeln!(
                out,
                "  Library-SHM / Library-IPC = {:.2}  (paper ≈ 1.18)",
                shm / ipc
            );
            let _ = writeln!(
                out,
                "  Library-IPF / In-Kernel   = {:.2}  (paper ≈ 1.02)",
                ipf / kernel
            );
            let _ = writeln!(
                out,
                "  Server      / In-Kernel   = {:.2}  (paper ≈ 0.69)",
                server / kernel
            );
        }
        let _ = writeln!(out);
    }

    obs.finish("table2", SEED)?;
    Ok(out)
}

/// Table 3: the NEWAPI (shared application/protocol buffer) interface
/// against the in-kernel baselines, with §4.2's classic → NEWAPI
/// deltas.
pub fn table3(mut args: Args) -> Result<String, Violation> {
    let quick = args.flag("--quick");
    args.finish();
    let (bytes, rounds) = ttcp_scale(quick);
    let platform = Platform::DecStation5000_200;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "==== Table 3: NEWAPI (shared application/protocol buffers) ===="
    );
    let _ = writeln!(
        out,
        "ttcp: {} MB; latency: {} round trips/size; (paper values in parens)\n",
        bytes >> 20,
        rounds
    );

    // Every library row's NEWAPI throughput, for the §4.2 deltas.
    let mut newapi_kb_per_sec = Vec::new();
    for row in table3_decstation() {
        let config = row.config;
        // The in-kernel rows use the conventional interface (they are
        // the comparison baselines); library rows use NEWAPI.
        let api = if config.is_library() {
            ApiStyle::Newapi
        } else {
            ApiStyle::Classic
        };
        let label = if config.is_library() {
            format!("{} + NEWAPI", config.label())
        } else {
            config.label().to_string()
        };
        let mut bed = TestBed::new(config, platform, 42);
        let t = ttcp(&mut bed, bytes, api);
        if config.is_library() {
            newapi_kb_per_sec.push((config, t.kb_per_sec));
        }
        let _ = writeln!(out, "{label}");
        let _ = writeln!(
            out,
            "  throughput KB/s : {}",
            fmt_pair(t.kb_per_sec, row.throughput)
        );
        let _ = write!(out, "  TCP rtt ms      :");
        for (i, &size) in TCP_SIZES.iter().enumerate() {
            let mut bed = TestBed::new(config, platform, 43 + i as u64);
            let lat = protolat(&mut bed, Proto::Tcp, size, 20, rounds, api);
            let _ = write!(
                out,
                "  {:5.2}({:5.2})",
                lat.rtt.as_millis_f64(),
                row.tcp_ms[i].unwrap_or(0.0)
            );
        }
        let _ = writeln!(out);
        let _ = write!(out, "  UDP rtt ms      :");
        for (i, &size) in UDP_SIZES.iter().enumerate() {
            let mut bed = TestBed::new(config, platform, 53 + i as u64);
            let lat = protolat(&mut bed, Proto::Udp, size, 20, rounds, api);
            let _ = write!(
                out,
                "  {:5.2}({:5.2})",
                lat.rtt.as_millis_f64(),
                row.udp_ms[i].unwrap_or(0.0)
            );
        }
        let _ = writeln!(out, "\n");
    }

    // §4.2's headline deltas: classic vs NEWAPI on the same config.
    let _ = writeln!(
        out,
        "-- §4.2 derived deltas (classic → NEWAPI, user-user throughput) --"
    );
    for config in [SystemConfig::LibraryIpc, SystemConfig::LibraryShmIpf] {
        let mut bed = TestBed::new(config, platform, 42);
        let classic = ttcp(&mut bed, bytes, ApiStyle::Classic).kb_per_sec;
        let row = newapi_kb_per_sec.iter().find(|(c, _)| *c == config);
        let newapi = row.expect("every delta names a Table 3 row").1;
        let paper = match config {
            SystemConfig::LibraryIpc => "910 → 959 (+5%)",
            _ => "1088 → 1099 (+1%)",
        };
        let _ = writeln!(
            out,
            "  {:<28} {:.0} → {:.0} KB/s ({:+.1}%)   paper: {}",
            config.label(),
            classic,
            newapi,
            (newapi / classic - 1.0) * 100.0,
            paper
        );
    }
    Ok(out)
}

/// Table 4: per-layer one-way latency of the library, kernel and server
/// stacks, TCP and UDP, at the smallest and largest unfragmented sizes.
pub fn table4(mut args: Args) -> Result<String, Violation> {
    const SEED: u64 = 7;
    let rounds: u32 = args.parsed("--rounds", "N").unwrap_or(200);
    let mut obs = Session::parse(&mut args, &[Flag::Census, Flag::CensusJson, Flag::TraceOut]);
    args.finish();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: average latency by layer (microseconds, one-way)"
    );
    let _ = writeln!(
        out,
        "measured / (paper)  —  {} round trips per column\n",
        rounds
    );

    for col in &tables::table4() {
        let config = match col.system {
            "Library" => SystemConfig::LibraryShmIpf,
            "Kernel" => SystemConfig::Mach25InKernel,
            "Server" => SystemConfig::UxServer,
            other => panic!("unknown system {other}"),
        };
        let proto = match col.proto {
            "TCP" => Proto::Tcp,
            _ => Proto::Udp,
        };
        let mut bed = TestBed::new(config, Platform::DecStation5000_200, SEED);
        let seen = obs.planes().attach(&mut bed);
        let result = protolat(&mut bed, proto, col.size, 25, rounds, ApiStyle::Classic);

        // Each round trip contains one message each way: per-message
        // layer time = total / (2 × rounds). (TCP also carries ACK
        // segments; the paper notes its numbers "only approximate the
        // critical path".)
        let per_msg = |layer: Layer| -> f64 {
            result.layer(layer).as_micros_f64() / (2.0 * f64::from(rounds))
        };

        let _ = writeln!(
            out,
            "--- {} {} {}B ---  (rtt {:.3} ms)",
            col.system,
            col.proto,
            col.size,
            result.rtt.as_millis_f64()
        );
        // Table 4's rows: four send layers, eight receive layers, transit.
        let (send_layers, rest) = Layer::TABLE4_ORDER.split_at(col.send.len());
        for (title, layers, paper) in [
            ("SEND TOTAL", send_layers, &col.send[..]),
            ("RECV TOTAL", &rest[..col.recv.len()], &col.recv[..]),
        ] {
            let mut total = 0.0;
            for (layer, paper) in layers.iter().zip(paper) {
                let m = per_msg(*layer);
                total += m;
                let _ = writeln!(out, "  {:<22} {:7.0}  ({:5})", layer.label(), m, paper);
            }
            let paper_total: u32 = paper.iter().sum();
            let _ = writeln!(out, "  {:<22} {:7.0}  ({:5})", title, total, paper_total);
        }
        let transit = per_msg(Layer::NetworkTransit);
        let _ = writeln!(
            out,
            "  {:<22} {:7.0}  ({:5})\n",
            "network transit", transit, col.transit
        );
        if obs.print_census {
            out += &seen.census_text("");
        }
        let label = format!("{} {} {}B", col.system, col.proto, col.size);
        obs.census_row(&label, seen.census_hosts());
        obs.record(&label, &seen)?;
    }
    obs.finish("table4", SEED)?;
    Ok(out)
}

/// The strategy's name in table headers and row labels.
fn strategy_label(s: DemuxStrategy) -> &'static str {
    match s {
        DemuxStrategy::Cspf => "CSPF",
        DemuxStrategy::Mpf => "MPF",
    }
}

/// Table 5: demultiplexing cost as the session count scales, for every
/// placement under CSPF and MPF, with the asymptotic shape checks.
pub fn table5(mut args: Args) -> Result<String, Violation> {
    const SEED: u64 = 42;
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

    let mut out = String::new();
    let _ = writeln!(out, "==== Table 5: session-scaling demultiplexing ====");
    let _ = writeln!(
        out,
        "N concurrent UDP sessions (every 4th connected) + N/8 TCP (cap 32); \
         {packets}-datagram burst; seed {SEED}\n"
    );

    // reports[(config, strategy)] -> per-N reports, in `scales` order.
    let mut all: Vec<(SystemConfig, DemuxStrategy, Vec<ScaleReport>)> = Vec::new();
    for config in configs {
        for strategy in strategies {
            let _ = writeln!(out, "{} [{}]", config.label(), strategy_label(strategy));
            let _ = writeln!(
                out,
                "  {:>6}  {:>7}  {:>9}  {:>9}  {:>11}  {:>12}",
                "N", "filters", "steps/pkt", "ns/pkt", "bind-rpc us", "setup virt ms"
            );
            let mut rows = Vec::new();
            for &n in scales {
                let spec = WorkloadSpec::at_scale(n, packets, SEED);
                let mut r = session_scaling(config, platform, strategy, &spec, &obs.planes());
                let _ = writeln!(
                    out,
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
                        let _ = writeln!(
                            out,
                            "          census(rx): filter-runs={} body-copies={} \
                             crossings={} wakeups={}",
                            c.filter_runs, c.body_copies, c.crossings, c.wakeups
                        );
                    }
                    obs.census_row(&label, c.json_members());
                }
                // Taken, not borrowed: the kept report must not pin a
                // whole cell's trace and profile in memory.
                obs.record(&label, &std::mem::take(&mut r.observed))?;
                eprintln!(
                    "[wall] {label}: {:.0} ms ({:.0} sim-pkts/s)",
                    r.wall.as_secs_f64() * 1000.0,
                    r.packets_rx as f64 / r.wall.as_secs_f64().max(1e-9),
                );
                rows.push(r);
            }
            let _ = writeln!(out);
            all.push((config, strategy, rows));
        }
    }

    // Derived shape checks: the asymptotic claims the table exists to
    // demonstrate, each with a PASS/FAIL token.
    let _ = writeln!(out, "-- derived shape checks --");
    let (lo, hi) = (scales[0], scales[scales.len() - 1]);
    let growth = hi as f64 / lo as f64;
    for (config, strategy, rows) in &all {
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        match (config.is_library(), strategy) {
            (true, DemuxStrategy::Mpf) => {
                // MPF per-packet cost must be flat in N.
                let flat = last.steps_per_packet <= first.steps_per_packet * 1.5 + 2.0;
                let _ = writeln!(
                    out,
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
                let _ = writeln!(
                    out,
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
                let _ = writeln!(
                    out,
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
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        let per_first = first.setup.as_nanos() as f64 / first.sessions as f64;
        let per_last = last.setup.as_nanos() as f64 / last.sessions as f64;
        let ok = per_last <= per_first * 3.0;
        let _ = writeln!(
            out,
            "  {:<28} setup/sess:  {:>7.1} -> {:>7.1} us (N {lo} -> {hi})        {}",
            config.label(),
            per_first / 1000.0,
            per_last / 1000.0,
            if ok { "PASS" } else { "FAIL" }
        );
    }

    obs.finish("table5", SEED)?;
    Ok(out)
}

/// Table 6: the batched-NEWAPI sweep. A matrix whose crossings or busy
/// time fail to fall as the batch window grows is a [`Violation`].
pub fn table6(mut args: Args) -> Result<String, Violation> {
    let mut obs = Session::parse(
        &mut args,
        &[
            Flag::CensusJson,
            Flag::TraceOut,
            Flag::Profile,
            Flag::ProfileOut,
        ],
    );
    args.finish();

    let bench = matrix::run(&mut obs)?;
    bench.check_monotone()?;
    eprintln!("table6: crossings and busy ns decrease monotonically in B");
    obs.finish("table6", matrix::SEED)?;
    Ok(bench.table())
}
