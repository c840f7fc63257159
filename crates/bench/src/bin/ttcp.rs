//! The `ttcp` microbenchmark as a CLI: "a memory-to-memory throughput
//! benchmark for TCP that transfers 16 MB of data from one host to
//! another."
//!
//! ```text
//! usage: ttcp [--config NAME] [--platform NAME] [--mb N] [--newapi] [--loss P] [--seed N]
//! ```
//!
//! `--config` takes a short name (`library-shm-ipf`, the default;
//! `library-shm`, `library-ipc`, `ux`, `bnr2ss`, `mach25`, `ultrix`,
//! `386bsd`) or a table row label; `--platform` takes `decstation` (the
//! default) or `gateway`. Anything unrecognised is an error, never a
//! default.

use psd_bench::cli::Args;
use psd_bench::{ttcp, ApiStyle};
use psd_sim::Platform;
use psd_systems::{SystemConfig, TestBed};

fn main() {
    let mut args = Args::from_env("ttcp");
    let config = args.config().unwrap_or(SystemConfig::LibraryShmIpf);
    let platform = args.platform().unwrap_or(Platform::DecStation5000_200);
    let mb: usize = args.parsed("--mb", "N").unwrap_or(16);
    let api = if args.flag("--newapi") {
        ApiStyle::Newapi
    } else {
        ApiStyle::Classic
    };
    let loss: f64 = args.parsed("--loss", "P").unwrap_or(0.0);
    let seed: u64 = args.parsed("--seed", "N").unwrap_or(42);
    args.finish();

    let mut bed = TestBed::new(config, platform, seed);
    if loss > 0.0 {
        bed.arm_wire_faults(seed, loss, 0.0, 0.0);
    }
    let r = ttcp(&mut bed, mb << 20, api);
    println!(
        "ttcp-t: {} bytes in {:.2} real seconds = {:.2} KB/sec +++",
        r.bytes,
        r.elapsed.as_secs_f64(),
        r.kb_per_sec
    );
    println!(
        "ttcp-t: {} ({:?}) on {} [{} retransmits]",
        config.label(),
        api,
        platform.label(),
        r.retransmits
    );
}
