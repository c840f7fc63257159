//! Regenerates Table 3: the effect of the modified (NEWAPI) socket
//! interface, which shares buffers between the application and the
//! protocol stack, eliminating the copy at the socket boundary (§4.2).
//!
//! ```text
//! usage: table3 [--quick]
//! ```

use psd_bench::cli::Args;

fn main() {
    match psd_bench::render::table3(Args::from_env("table3")) {
        Ok(table) => print!("{table}"),
        Err(violation) => violation.exit(),
    }
}
