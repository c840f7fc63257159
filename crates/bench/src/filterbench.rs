//! The filter microbenchmark: what did the compile tier buy?
//!
//! The compile tier (`psd_filter::compiled`) exists because
//! CSPF-style demultiplexing charges *every* installed program against
//! *every* received packet, and until the demux table learned to sum
//! that scan in closed form it also *ran* them all, so per-run
//! interpreter overhead (the per-run stack allocation above all)
//! multiplied by the table size. This module measures per-run and
//! per-classify host cost and emits the `BENCH_8.json` artifact the CI
//! regression gate pins:
//!
//! 1. **Program stage.** N canonical session programs run back-to-back
//!    against a fixed probe-frame batch, once through the interpreter
//!    (`Program::run`) and once through the compiled artifacts
//!    (`CompiledFilter::run`). Reported as programs/sec and ns per
//!    program run — the raw per-run cost the demux path pays once per
//!    packet under MPF, and N times on CSPF's short-frame fall-back.
//! 2. **Table stage.** A populated `DemuxTable` classifying the same
//!    batch under each strategy at N ∈ {16, 256, 4096} filters.
//!    Reported as matches/sec and ns per classified frame — the
//!    end-to-end demultiplexing cost Table 5 charges in virtual time,
//!    here in wall-clock terms.
//!
//! Every count in the artifact (runs, accepts, classifies, charged
//! steps) is deterministic for the seed; only the `wall_ms` /
//! `*_per_sec` / `ns_per_*` fields depend on the machine. Two
//! same-seed runs therefore agree byte-for-byte after
//! [`normalized_text`](crate::json::normalized_text) zeroes the
//! [`VOLATILE_FIELDS`] — CI runs the quick matrix twice and diffs
//! exactly that. The regression gate (`benchdiff --check`) compares
//! ns/match for the (Cspf, Compiled, 4096) cell against the committed
//! artifact.

use std::time::Instant;

use psd_filter::{
    compile_endpoint, CompiledFilter, DemuxStrategy, DemuxTable, EndpointSpec, Program,
};
use psd_sim::Rng;
use psd_wire::{
    EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, TcpFlags, TcpHeader, UdpHeader,
};
use std::net::Ipv4Addr;

use crate::json::Json;

/// Seed for every filterbench run (specs and probe frames).
pub const SEED: u64 = 77;

/// Probe frames per batch; every measured loop iterates this batch.
pub const FRAMES: usize = 64;

/// JSON members that legitimately differ between same-seed runs.
pub const VOLATILE_FIELDS: &[&str] = &[
    "wall_ms",
    "ns_per_run",
    "programs_per_sec",
    "ns_per_match",
    "matches_per_sec",
];

/// The `engine` label of rows that run compiled artifacts — every table
/// row, and half the program rows. Table rows carry it as a constant so
/// the gated `table[Cspf,Compiled,4096]` key in `BENCH_8.json` survives.
const COMPILED: &str = "Compiled";

/// One program-stage measurement: N programs × frame batch × reps
/// through the interpreter or the compiled artifacts.
#[derive(Clone, Copy, Debug)]
pub struct ProgramRow {
    /// What ran: `"Interpret"` (`Program::run`) or `"Compiled"`
    /// (`CompiledFilter::run`).
    pub engine: &'static str,
    /// Programs in the set.
    pub filters: usize,
    /// Program executions performed (deterministic).
    pub runs: u64,
    /// Accepting executions (deterministic; also defeats dead-code
    /// elimination of the measured loop).
    pub accepts: u64,
    /// Wall-clock nanoseconds for the measured loop.
    pub wall_ns: u128,
}

impl ProgramRow {
    /// Program executions per wall-clock second.
    pub fn programs_per_sec(&self) -> f64 {
        self.runs as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Wall-clock nanoseconds per program execution.
    pub fn ns_per_run(&self) -> f64 {
        self.wall_ns as f64 / self.runs as f64
    }
}

/// One table-stage measurement: a populated demux table classifying
/// the frame batch under one strategy.
#[derive(Clone, Copy, Debug)]
pub struct TableRow {
    /// Demultiplexing strategy.
    pub strategy: DemuxStrategy,
    /// Installed filters.
    pub filters: usize,
    /// Classify calls performed (deterministic).
    pub classifies: u64,
    /// Total charged steps across all classifies (deterministic).
    pub steps: u64,
    /// Frames that found an owner (deterministic).
    pub matched: u64,
    /// Wall-clock nanoseconds for the measured loop.
    pub wall_ns: u128,
}

impl TableRow {
    /// Classified frames per wall-clock second.
    pub fn matches_per_sec(&self) -> f64 {
        self.classifies as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Wall-clock nanoseconds per classified frame.
    pub fn ns_per_match(&self) -> f64 {
        self.wall_ns as f64 / self.classifies as f64
    }
}

/// A complete filter-benchmark result.
#[derive(Clone, Debug)]
pub struct FilterBench {
    /// True when run with the reduced `--quick` matrix.
    pub quick: bool,
    /// Program-stage rows, by (N, engine).
    pub program: Vec<ProgramRow>,
    /// Table-stage rows, by (strategy, N).
    pub table: Vec<TableRow>,
}

/// The `strategy` member of table rows: part of the metric names
/// `BENCH_8.json` is gated by, so spelled out rather than derived.
fn strategy_key(s: DemuxStrategy) -> &'static str {
    match s {
        DemuxStrategy::Cspf => "Cspf",
        DemuxStrategy::Mpf => "Mpf",
    }
}

const HOST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A random endpoint spec over a port space sized to the table (the
/// same distribution the Table 5 workload installs).
fn rand_spec(rng: &mut Rng, ports: u64) -> EndpointSpec {
    let proto = if rng.chance(0.3) {
        IpProto::Tcp
    } else {
        IpProto::Udp
    };
    let lport = rng.range(1000, 1000 + ports - 1) as u16;
    if rng.chance(0.4) {
        EndpointSpec::connected(
            proto,
            HOST_IP,
            lport,
            Ipv4Addr::new(10, 0, 0, rng.range(1, 4) as u8),
            rng.range(2000, 2007) as u16,
        )
    } else {
        EndpointSpec::unconnected(proto, HOST_IP, lport)
    }
}

fn frame_for(tcp: bool, src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Vec<u8> {
    let proto = if tcp { IpProto::Tcp } else { IpProto::Udp };
    let tl = if tcp { 20 } else { 8 };
    let ip = Ipv4Header::new(src.0, dst.0, proto, tl);
    let eth = EthernetHeader {
        dst: EtherAddr::local(2),
        src: EtherAddr::local(1),
        ethertype: EtherType::Ipv4,
    };
    let mut f = eth.encode().to_vec();
    f.extend_from_slice(&ip.encode());
    if tcp {
        let h = TcpHeader {
            src_port: src.1,
            dst_port: dst.1,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            urgent: 0,
            mss: None,
        };
        let at = f.len();
        f.resize(at + h.header_len(), 0);
        h.encode(&mut f[at..]);
    } else {
        f.extend_from_slice(&UdpHeader::new(src.1, dst.1, 0).encode());
    }
    f
}

/// The seeded corpus for one table size: N distinct specs and the
/// probe batch — three quarters aimed at installed endpoints, one
/// quarter at ports no filter claims (the CSPF worst case: a full
/// scan).
fn corpus(n: usize) -> (Vec<EndpointSpec>, Vec<Vec<u8>>) {
    let mut rng = Rng::new(SEED ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let ports = (n as u64) * 3 / 2 + 8;
    let mut specs = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    while specs.len() < n {
        let spec = rand_spec(&mut rng, ports);
        if seen.insert(spec) {
            specs.push(spec);
        }
    }
    let frames = (0..FRAMES)
        .map(|i| {
            if i % 4 == 3 {
                // Unclaimed destination port: misses every filter.
                frame_for(false, (Ipv4Addr::new(10, 0, 0, 1), 2003), (HOST_IP, 900))
            } else {
                let spec = specs[rng.below(specs.len() as u64) as usize];
                let (rip, rport) = spec.remote.unwrap_or((Ipv4Addr::new(10, 0, 0, 3), 2004));
                frame_for(
                    spec.proto == IpProto::Tcp,
                    (rip, rport),
                    (spec.local_ip, spec.local_port),
                )
            }
        })
        .collect();
    (specs, frames)
}

/// Runs every item of `set` against every frame, `reps` times.
fn timed_runs<P>(
    engine: &'static str,
    set: &[P],
    frames: &[Vec<u8>],
    reps: usize,
    accepts_frame: impl Fn(&P, &[u8]) -> bool,
) -> ProgramRow {
    let mut runs = 0u64;
    let mut accepts = 0u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        for frame in frames {
            for p in set {
                runs += 1;
                accepts += u64::from(accepts_frame(p, frame));
            }
        }
    }
    let wall_ns = t0.elapsed().as_nanos();
    ProgramRow {
        engine,
        filters: set.len(),
        runs,
        accepts,
        wall_ns,
    }
}

/// Measures the two program-stage rows for one N: the same programs
/// against the same frames, through `Program::run` and then through
/// `CompiledFilter::run`.
fn program_rows(n: usize) -> [ProgramRow; 2] {
    let (specs, frames) = corpus(n);
    let programs: Vec<Program> = specs.iter().map(compile_endpoint).collect();
    let artifacts: Vec<CompiledFilter> = programs.iter().map(CompiledFilter::compile).collect();
    // Scale reps so every row does comparable total work (~500k runs)
    // regardless of N; derived from N alone, so counts stay
    // deterministic.
    let reps = (500_000 / (n * FRAMES)).max(1);
    [
        timed_runs("Interpret", &programs, &frames, reps, |p, f| {
            p.run(f).accepted
        }),
        timed_runs(COMPILED, &artifacts, &frames, reps, |a, f| {
            a.run(f).accepted
        }),
    ]
}

/// Measures one table-stage row: a table of N filters classifying the
/// frame batch `reps` times under one strategy.
pub fn table_row(strategy: DemuxStrategy, n: usize) -> TableRow {
    let (specs, frames) = corpus(n);
    let mut table: DemuxTable<usize> = DemuxTable::new(strategy);
    for (owner, spec) in specs.iter().enumerate() {
        table.install(*spec, owner);
    }
    // Every row classifies the batch 128 times. Reps used to shrink
    // with N because CSPF's host cost grew with it; since the scan is
    // charged in closed form only the *charged* steps do, and one pass
    // of 64 sub-microsecond classifies is too short a window to gate.
    let reps = 128;
    let mut classifies = 0u64;
    let mut steps = 0u64;
    let mut matched = 0u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        for frame in &frames {
            let r = table.classify(frame);
            classifies += 1;
            steps += r.steps as u64;
            matched += u64::from(r.owner.is_some());
        }
    }
    let wall_ns = t0.elapsed().as_nanos();
    TableRow {
        strategy,
        filters: n,
        classifies,
        steps,
        matched,
        wall_ns,
    }
}

/// Table sizes for the full and `--quick` matrices. 4096 must appear
/// in both: it is the cell the CI gate reads.
pub fn scales(quick: bool) -> &'static [usize] {
    if quick {
        &[16, 4096]
    } else {
        &[16, 256, 4096]
    }
}

/// Runs the full (or `--quick`) filter benchmark.
pub fn run(quick: bool) -> FilterBench {
    let mut program = Vec::new();
    for &n in scales(quick) {
        program.extend(program_rows(n));
    }
    let mut table = Vec::new();
    for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
        for &n in scales(quick) {
            table.push(table_row(strategy, n));
        }
    }
    FilterBench {
        quick,
        program,
        table,
    }
}

impl FilterBench {
    /// A deterministic signature of the run: every count that must be
    /// identical between two same-seed executions — including the
    /// charged steps.
    pub fn deterministic_signature(&self) -> String {
        let mut sig = String::new();
        for r in &self.program {
            sig.push_str(&format!(
                "program:{}:{}:{}:{};",
                r.engine, r.filters, r.runs, r.accepts
            ));
        }
        for r in &self.table {
            sig.push_str(&format!(
                "table:{}:{}:{}:{}:{};",
                strategy_key(r.strategy),
                r.filters,
                r.classifies,
                r.steps,
                r.matched
            ));
        }
        sig
    }

    /// Serializes the artifact (see `BENCH.schema.json`).
    pub fn to_json(&self) -> Json {
        let program_rows = Json::Arr(
            self.program
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("engine", Json::str(r.engine)),
                        ("filters", Json::Num(r.filters as f64)),
                        ("runs", Json::Num(r.runs as f64)),
                        ("accepts", Json::Num(r.accepts as f64)),
                        ("wall_ms", Json::Num(r.wall_ns as f64 / 1e6)),
                        ("programs_per_sec", Json::Num(r.programs_per_sec())),
                        ("ns_per_run", Json::Num(r.ns_per_run())),
                    ])
                })
                .collect(),
        );
        let table_rows = Json::Arr(
            self.table
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("strategy", Json::str(strategy_key(r.strategy))),
                        ("engine", Json::str(COMPILED)),
                        ("filters", Json::Num(r.filters as f64)),
                        ("classifies", Json::Num(r.classifies as f64)),
                        ("steps", Json::Num(r.steps as f64)),
                        ("matched", Json::Num(r.matched as f64)),
                        ("wall_ms", Json::Num(r.wall_ns as f64 / 1e6)),
                        ("matches_per_sec", Json::Num(r.matches_per_sec())),
                        ("ns_per_match", Json::Num(r.ns_per_match())),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("version", Json::Num(1.0)),
            ("bench", Json::str("filterbench")),
            ("seed", Json::Num(SEED as f64)),
            ("quick", Json::Bool(self.quick)),
            ("program", program_rows),
            ("table", table_rows),
        ])
    }

    /// The human-readable table printed to stdout.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("==== Filter microbenchmark ====\n");
        out.push_str(&format!(
            "seed {SEED}; {FRAMES}-frame probe batch (3/4 aimed, 1/4 full-scan misses){}\n\n",
            if self.quick { " [quick]" } else { "" }
        ));
        out.push_str("program stage    engine     filters        runs  programs/sec   ns/run\n");
        for r in &self.program {
            out.push_str(&format!(
                "                 {:<9} {:>8} {:>11} {:>13.0} {:>8.1}\n",
                r.engine,
                r.filters,
                r.runs,
                r.programs_per_sec(),
                r.ns_per_run(),
            ));
        }
        out.push_str("\ntable stage  strategy  filters  classifies   matches/sec  ns/match\n");
        for r in &self.table {
            out.push_str(&format!(
                "             {:<9} {:>7} {:>11} {:>13.0} {:>9.0}\n",
                strategy_key(r.strategy),
                r.filters,
                r.classifies,
                r.matches_per_sec(),
                r.ns_per_match(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::normalized_text;

    #[test]
    fn corpus_is_deterministic_and_distinct() {
        let (specs_a, frames_a) = corpus(64);
        let (specs_b, frames_b) = corpus(64);
        assert_eq!(specs_a, specs_b);
        assert_eq!(frames_a, frames_b);
        let set: std::collections::HashSet<_> = specs_a.iter().collect();
        assert_eq!(set.len(), specs_a.len(), "specs must be distinct");
    }

    #[test]
    fn program_rows_agree_on_deterministic_counts() {
        let [interp, comp] = program_rows(32);
        assert_eq!(interp.runs, comp.runs);
        assert_eq!(
            interp.accepts, comp.accepts,
            "engines must accept the same frames"
        );
        assert!(interp.accepts > 0, "corpus must contain matches");
        assert!(
            interp.accepts < interp.runs,
            "corpus must contain misses too"
        );
    }

    #[test]
    fn normalized_runs_are_byte_identical() {
        let a = run(true);
        let b = run(true);
        assert_eq!(a.deterministic_signature(), b.deterministic_signature());
        let digest = |bench: &FilterBench| normalized_text(&bench.to_json(), VOLATILE_FIELDS);
        assert_eq!(digest(&a), digest(&b));
    }
}
