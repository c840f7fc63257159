//! Regenerates Table 4: per-layer latency breakdown for the
//! library-based (SHM-IPF), kernel-based (Mach 2.5) and server-based
//! (UX) protocol stacks, TCP and UDP, at the minimum and maximum
//! unfragmented message sizes.
//!
//! ```text
//! usage: table4 [--rounds N] [--census] [--census-json PATH] [--trace-out PATH]
//! ```
//!
//! `--census` appends an operation census (crossings, copies, locks,
//! wakeups per host) after each column; counting never charges virtual
//! time, so every latency figure is identical with or without it.
//! `--trace-out` writes a Chrome trace-event JSON covering every
//! column's run (one trace process per column); `--census-json` writes
//! the census snapshots as JSON. Neither flag changes the table.

use psd_bench::cli::Args;
use psd_bench::observe::{Flag, Session};
use psd_bench::tables::{table4, Table4Column};
use psd_bench::{protolat, ApiStyle};
use psd_server::Proto;
use psd_sim::{Layer, Platform};
use psd_systems::{SystemConfig, TestBed};

const SEED: u64 = 7;

fn config_for(system: &str) -> SystemConfig {
    match system {
        "Library" => SystemConfig::LibraryShmIpf,
        "Kernel" => SystemConfig::Mach25InKernel,
        "Server" => SystemConfig::UxServer,
        other => panic!("unknown system {other}"),
    }
}

fn main() {
    let mut args = Args::from_env("table4");
    let rounds: u32 = args.parsed("--rounds", "N").unwrap_or(200);
    let mut obs = Session::parse(&mut args, &[Flag::Census, Flag::CensusJson, Flag::TraceOut]);
    args.finish();

    println!("Table 4: average latency by layer (microseconds, one-way)");
    println!("measured / (paper)  —  {} round trips per column\n", rounds);

    for col in &table4() {
        run_column(col, rounds, &mut obs);
    }
    obs.finish("table4", SEED);
}

fn run_column(col: &Table4Column, rounds: u32, obs: &mut Session) {
    let config = config_for(col.system);
    let proto = match col.proto {
        "TCP" => Proto::Tcp,
        _ => Proto::Udp,
    };
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, SEED);
    let seen = obs.planes().attach(&mut bed);
    let result = protolat(&mut bed, proto, col.size, 25, rounds, ApiStyle::Classic);

    // Each round trip contains one message each way: per-message layer
    // time = total / (2 × rounds). (TCP also carries ACK segments; the
    // paper notes its numbers "only approximate the critical path".)
    let per_msg =
        |layer: Layer| -> f64 { result.layer(layer).as_micros_f64() / (2.0 * f64::from(rounds)) };

    println!(
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
            println!("  {:<22} {:7.0}  ({:5})", layer.label(), m, paper);
        }
        let paper_total: u32 = paper.iter().sum();
        println!("  {:<22} {:7.0}  ({:5})", title, total, paper_total);
    }
    let transit = per_msg(Layer::NetworkTransit);
    println!(
        "  {:<22} {:7.0}  ({:5})\n",
        "network transit", transit, col.transit
    );
    if obs.print_census {
        seen.print_census("");
    }
    let label = format!("{} {} {}B", col.system, col.proto, col.size);
    obs.census_row(&label, seen.census_hosts());
    obs.record(&label, &seen);
}
