//! The `protolat` microbenchmark as a CLI: "a program that measures
//! protocol round trip latency for UDP and TCP."
//!
//! ```text
//! usage: protolat [--config NAME] [--platform NAME] [--proto NAME] [--size N] [--rounds N] [--newapi]
//! ```
//!
//! `--config` and `--platform` take the names `ttcp` takes (defaults
//! `library-shm-ipf` on `decstation`); `--proto` is `udp` (the default)
//! or `tcp`. Anything unrecognised is an error, never a default.

use psd_bench::cli::Args;
use psd_bench::{protolat, ApiStyle};
use psd_server::Proto;
use psd_sim::Platform;
use psd_systems::{SystemConfig, TestBed};

fn main() {
    let mut args = Args::from_env("protolat");
    let config = args.config().unwrap_or(SystemConfig::LibraryShmIpf);
    let platform = args.platform().unwrap_or(Platform::DecStation5000_200);
    let protos = [("udp", Proto::Udp), ("tcp", Proto::Tcp)];
    let proto = args.choice("--proto", &protos).unwrap_or(Proto::Udp);
    let size: usize = args.parsed("--size", "N").unwrap_or(1);
    let rounds: u32 = args.parsed("--rounds", "N").unwrap_or(200);
    let api = if args.flag("--newapi") {
        ApiStyle::Newapi
    } else {
        ApiStyle::Classic
    };
    args.finish();

    let mut bed = TestBed::new(config, platform, 7);
    let r = protolat(&mut bed, proto, size, 25, rounds, api);
    println!(
        "protolat: {:?} {} bytes, {} round trips: {:.3} ms/rt",
        proto,
        size,
        r.rounds,
        r.rtt.as_millis_f64()
    );
    println!("protolat: {} on {}", config.label(), platform.label());
}
