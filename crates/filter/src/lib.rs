//! The packet filter: a CSPF-style virtual machine, a compiler from
//! endpoint specifications to filter programs, and an MPF-style
//! demultiplexing table.
//!
//! In the paper's architecture the kernel demultiplexes every received
//! packet to the session that owns it: "For security reasons, packets
//! are received through the packet filter. The operating system creates
//! and installs a new packet filter for each network session." This
//! crate provides that machinery:
//!
//! - `vm`: the stack-machine filter language (after the CMU/Stanford
//!   Packet Filter used by Mach) with bounds-checked execution and an
//!   instruction budget, so untrusted programs cannot read outside the
//!   packet or loop forever. Its interpreter is the specification of
//!   filter semantics and the oracle the differential tests compare
//!   against; the receive path never runs it.
//! - `compile`: builds the per-session programs the operating system
//!   server installs (protocol / local endpoint / optional remote
//!   endpoint), plus the server's catch-all.
//! - `compiled`: the compile tier. At insert time every program is
//!   lowered to a specialized artifact — a fast-path field-compare
//!   recognizer for the canonical session-filter shape, or a
//!   direct-threaded fallback for arbitrary programs — that reproduces
//!   the interpreter's verdict, step count, and error cause exactly.
//!   The artifact is the only thing `demux` executes.
//! - `demux`: the table of installed filters. Two strategies are
//!   provided: `Cspf` charges each program in turn (the 1987 design;
//!   the host sums that scan in closed form instead of running it), and
//!   `Mpf` collapses the shared prefix and dispatches on the endpoint
//!   with an associative lookup (the Yuhara et al. design the paper's
//!   system used). The strategies are observationally equivalent — a
//!   property test checks this — but charge different instruction
//!   counts, which the ablation benchmark measures.

pub(crate) mod compile;
pub(crate) mod compiled;
pub(crate) mod demux;
pub(crate) mod placement;
pub(crate) mod vm;

pub use compile::{catch_all_ip, compile_endpoint, EndpointSpec};
pub use compiled::CompiledFilter;
pub use demux::{DemuxStrategy, DemuxTable, FilterId};
pub use placement::{CopyPlacement, PlacementPolicy};
pub use vm::{Binop, FilterOutcome, Insn, Program, VmError, MAX_STEPS};
