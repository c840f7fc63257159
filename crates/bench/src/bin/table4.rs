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

fn main() {
    match psd_bench::render::table4(Args::from_env("table4")) {
        Ok(table) => print!("{table}"),
        Err(violation) => violation.exit(),
    }
}
