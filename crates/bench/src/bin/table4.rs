//! Regenerates Table 4: per-layer latency breakdown for the
//! library-based (SHM-IPF), kernel-based (Mach 2.5) and server-based
//! (UX) protocol stacks, TCP and UDP, at the minimum and maximum
//! unfragmented message sizes.
//!
//! Usage: `cargo run -p psd-bench --bin table4 [--rounds N] [--census]
//! [--trace-out <path>] [--census-json <path>]`
//!
//! `--census` appends an operation census (crossings, copies, locks,
//! wakeups per host) after each column; counting never charges virtual
//! time, so every latency figure is identical with or without it.
//! `--trace-out` writes a Chrome trace-event JSON covering every
//! column's run (one trace process per column); `--census-json` writes
//! the census snapshots as JSON. Neither flag changes the table.

use psd_bench::tables::{table4, Table4Column};
use psd_bench::{protolat, ApiStyle};
use psd_server::Proto;
use psd_sim::{Layer, Platform};
use psd_systems::{SystemConfig, TestBed};

fn config_for(system: &str) -> SystemConfig {
    match system {
        "Library" => SystemConfig::LibraryShmIpf,
        "Kernel" => SystemConfig::Mach25InKernel,
        "Server" => SystemConfig::UxServer,
        other => panic!("unknown system {other}"),
    }
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let rounds: u32 = std::env::args()
        .skip_while(|a| a != "--rounds")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let want_census = std::env::args().any(|a| a == "--census");
    let trace_out = flag_value("--trace-out");
    let census_json = flag_value("--census-json");

    println!("Table 4: average latency by layer (microseconds, one-way)");
    println!("measured / (paper)  —  {} round trips per column\n", rounds);

    let mut trace_events = String::new();
    let mut census_docs: Vec<String> = Vec::new();
    let published = table4();
    for (i, col) in published.iter().enumerate() {
        run_column(
            col,
            rounds,
            want_census,
            trace_out.is_some().then_some((i as u64, &mut trace_events)),
            census_json.is_some().then_some(&mut census_docs),
        );
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, psd_sim::chrome_trace_document(&trace_events))
            .expect("write trace file");
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &census_json {
        let doc = format!("{{\"columns\":[{}]}}\n", census_docs.join(","));
        std::fs::write(path, doc).expect("write census json");
        eprintln!("wrote census snapshot to {path}");
    }
}

fn run_column(
    col: &Table4Column,
    rounds: u32,
    want_census: bool,
    trace_sink: Option<(u64, &mut String)>,
    census_sink: Option<&mut Vec<String>>,
) {
    let config = config_for(col.system);
    let proto = match col.proto {
        "TCP" => Proto::Tcp,
        _ => Proto::Udp,
    };
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, 7);
    let censuses = (want_census || census_sink.is_some()).then(|| bed.attach_census());
    let tracer = trace_sink.is_some().then(|| bed.attach_tracer());
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
    if let (Some(tracer), Some((pid, out))) = (&tracer, trace_sink) {
        let violations = tracer.borrow().check_invariants();
        assert!(violations.is_empty(), "trace invariants: {violations:?}");
        let label = format!("{} {} {}B", col.system, col.proto, col.size);
        tracer.borrow().chrome_events(pid, &label, out);
    }
    if let Some(censuses) = censuses {
        if want_census {
            for (i, census) in censuses.iter().enumerate() {
                println!("  census host{i}:");
                for line in census.borrow().snapshot().lines() {
                    println!("    {line}");
                }
            }
            println!();
        }
        if let Some(docs) = census_sink {
            let hosts: Vec<String> = censuses
                .iter()
                .map(|c| c.borrow().snapshot_json())
                .collect();
            docs.push(format!(
                "{{\"system\":\"{}\",\"proto\":\"{}\",\"size\":{},\"hosts\":[{}]}}",
                col.system,
                col.proto,
                col.size,
                hosts.join(",")
            ));
        }
    }
}
