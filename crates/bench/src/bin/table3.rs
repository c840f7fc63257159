//! Regenerates Table 3: the effect of the modified (NEWAPI) socket
//! interface, which shares buffers between the application and the
//! protocol stack, eliminating the copy at the socket boundary (§4.2).
//!
//! ```text
//! usage: table3 [--quick]
//! ```

use psd_bench::cli::Args;
use psd_bench::tables::{fmt_pair, table3_decstation, TCP_SIZES, UDP_SIZES};
use psd_bench::{protolat, ttcp, ApiStyle};
use psd_server::Proto;
use psd_sim::Platform;
use psd_systems::{SystemConfig, TestBed};

fn main() {
    let mut args = Args::from_env("table3");
    let quick = args.flag("--quick");
    args.finish();
    let (bytes, rounds) = if quick {
        (2 << 20, 50)
    } else {
        (16 << 20, 200)
    };
    let platform = Platform::DecStation5000_200;

    println!("==== Table 3: NEWAPI (shared application/protocol buffers) ====");
    println!(
        "ttcp: {} MB; latency: {} round trips/size; (paper values in parens)\n",
        bytes >> 20,
        rounds
    );

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
        println!("{label}");
        println!(
            "  throughput KB/s : {}",
            fmt_pair(t.kb_per_sec, row.throughput)
        );
        print!("  TCP rtt ms      :");
        for (i, &size) in TCP_SIZES.iter().enumerate() {
            let mut bed = TestBed::new(config, platform, 43 + i as u64);
            let lat = protolat(&mut bed, Proto::Tcp, size, 20, rounds, api);
            print!(
                "  {:5.2}({:5.2})",
                lat.rtt.as_millis_f64(),
                row.tcp_ms[i].unwrap_or(0.0)
            );
        }
        println!();
        print!("  UDP rtt ms      :");
        for (i, &size) in UDP_SIZES.iter().enumerate() {
            let mut bed = TestBed::new(config, platform, 53 + i as u64);
            let lat = protolat(&mut bed, Proto::Udp, size, 20, rounds, api);
            print!(
                "  {:5.2}({:5.2})",
                lat.rtt.as_millis_f64(),
                row.udp_ms[i].unwrap_or(0.0)
            );
        }
        println!("\n");
    }

    // §4.2's headline deltas: classic vs NEWAPI on the same config.
    println!("-- §4.2 derived deltas (classic → NEWAPI, user-user throughput) --");
    for config in [SystemConfig::LibraryIpc, SystemConfig::LibraryShmIpf] {
        let mut bed = TestBed::new(config, platform, 42);
        let classic = ttcp(&mut bed, bytes, ApiStyle::Classic).kb_per_sec;
        let mut bed = TestBed::new(config, platform, 42);
        let newapi = ttcp(&mut bed, bytes, ApiStyle::Newapi).kb_per_sec;
        let paper = match config {
            SystemConfig::LibraryIpc => "910 → 959 (+5%)",
            _ => "1088 → 1099 (+1%)",
        };
        println!(
            "  {:<28} {:.0} → {:.0} KB/s ({:+.1}%)   paper: {}",
            config.label(),
            classic,
            newapi,
            (newapi / classic - 1.0) * 100.0,
            paper
        );
    }
}
