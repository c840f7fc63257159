//! Interpreter ≡ compiled-tier equivalence (the compile-tier contract).
//!
//! The compile tier (`psd::filter::compiled`) promises *observational
//! identity*: for every program and every byte string, the compiled
//! artifact reproduces the interpreter's entire `FilterOutcome` —
//! verdict, step count, and abnormal-termination cause — bit for bit.
//! Everything downstream (demux owner choice, census charging, virtual
//! time, traces) follows from that triple, so proving the triple equal
//! proves the artifacts indistinguishable from the specification.
//!
//! These tests attack the contract with seeded differential fuzzing:
//! adversarial programs (mutated canonical filters, random instruction
//! soup, budget bursters, underflow-prone combine chains) crossed with
//! adversarial frames (runts, fragments, IP options, ARP, maximal, and
//! raw random bytes), well past ten thousand program×frame cases; plus
//! demux-table-level equivalence against an interpreter-driven CSPF
//! oracle, insert/remove interleavings pinning incremental artifact
//! maintenance to a fresh rebuild, and a property test on the endpoint
//! compiler's lowering.
//!
//! Every generator is driven by the seeded `psd::sim::Rng`, so a
//! failure reproduces exactly from the seed printed in the panic.

use psd::filter::{
    catch_all_ip, compile_endpoint, Binop, CompiledFilter, DemuxStrategy, DemuxTable, EndpointSpec,
    FilterId, Insn, Program, VmError, MAX_STEPS,
};
use psd::sim::Rng;
use psd::wire::{
    EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, TcpFlags, TcpHeader, UdpHeader,
};
use std::net::Ipv4Addr;

/// Runs `body` for `cases` deterministic cases, each with its own
/// forked stream. The per-case seed appears in panic messages.
fn cases(base_seed: u64, cases: u32, mut body: impl FnMut(&mut Rng)) {
    let mut root = Rng::new(base_seed);
    for case in 0..cases {
        let seed = root.next_u64();
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

const HOST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

// ---------------------------------------------------------------------
// Program generators
// ---------------------------------------------------------------------

const ALL_BINOPS: [Binop; 11] = [
    Binop::Eq,
    Binop::Ne,
    Binop::Lt,
    Binop::Le,
    Binop::Gt,
    Binop::Ge,
    Binop::And,
    Binop::Or,
    Binop::Xor,
    Binop::Add,
    Binop::Sub,
];

fn rand_binop(rng: &mut Rng) -> Binop {
    ALL_BINOPS[rng.below(ALL_BINOPS.len() as u64) as usize]
}

/// A random instruction. Word offsets are biased toward the header
/// region (in bounds for ordinary frames) with a tail of wild offsets
/// that are out of bounds for everything.
fn rand_insn(rng: &mut Rng) -> Insn {
    match rng.below(12) {
        0..=2 => Insn::PushLit(rng.next_u64() as u16),
        3..=5 => Insn::PushWord(if rng.chance(0.8) {
            rng.below(64) as u16
        } else {
            rng.below(3000) as u16
        }),
        6 | 7 => Insn::Op(rand_binop(rng)),
        8 => Insn::CombineOr(rand_binop(rng)),
        9 | 10 => Insn::CombineAnd(rand_binop(rng)),
        _ => Insn::Ret,
    }
}

fn rand_spec(rng: &mut Rng) -> EndpointSpec {
    let proto = if rng.chance(0.3) {
        IpProto::Tcp
    } else {
        IpProto::Udp
    };
    let lport = rng.range(1000, 1040) as u16;
    if rng.chance(0.5) {
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

/// Applies one structure-breaking mutation to a canonical program.
/// Each mutation can knock the program off the recognizer fast path,
/// change its verdict, or leave it semantically identical — all three
/// outcomes must still agree between interpreter and artifact.
fn mutate(rng: &mut Rng, insns: &mut Vec<Insn>) {
    if insns.is_empty() {
        insns.push(rand_insn(rng));
        return;
    }
    let i = rng.below(insns.len() as u64) as usize;
    match rng.below(7) {
        0 => {
            // Flip bits in a literal (or replace the insn otherwise).
            if let Insn::PushLit(v) = insns[i] {
                insns[i] = Insn::PushLit(v ^ (1 << rng.below(16)));
            } else {
                insns[i] = rand_insn(rng);
            }
        }
        1 => {
            // Perturb a word offset, possibly past the packet end.
            if let Insn::PushWord(off) = insns[i] {
                insns[i] = Insn::PushWord(off.wrapping_add(rng.range(1, 2000) as u16));
            } else {
                insns[i] = rand_insn(rng);
            }
        }
        2 => insns[i] = rand_insn(rng),
        3 => {
            let j = rng.below(insns.len() as u64) as usize;
            insns.swap(i, j);
        }
        4 => insns.truncate(i), // may drop the Ret entirely
        5 => {
            insns.remove(i);
        }
        _ => insns.insert(i, rand_insn(rng)),
    }
}

/// One adversarial program drawn from the six classes. Returns the
/// class index so the harness can prove each class was exercised.
fn rand_program(rng: &mut Rng) -> (Program, usize) {
    let class = rng.below(6) as usize;
    let insns = match class {
        // Canonical session filters and the catch-all: the recognizer's
        // home turf.
        0 => {
            if rng.chance(0.15) {
                catch_all_ip().insns
            } else {
                compile_endpoint(&rand_spec(rng)).insns
            }
        }
        // Mutated canonical: near misses of the recognizable shape.
        1 => {
            let mut insns = compile_endpoint(&rand_spec(rng)).insns;
            for _ in 0..rng.range(1, 3) {
                mutate(rng, &mut insns);
            }
            insns
        }
        // Random instruction soup, Ret included.
        2 => (0..rng.below(40)).map(|_| rand_insn(rng)).collect(),
        // Budget bursters: lengths straddling MAX_STEPS, built from
        // pushes so execution reaches the budget edge (a Ret or an
        // underflow would end the run early).
        3 => {
            let len = rng.range(MAX_STEPS as u64 - 4, MAX_STEPS as u64 + 16) as usize;
            (0..len)
                .map(|_| {
                    if rng.chance(0.1) {
                        Insn::PushWord(rng.below(40) as u16)
                    } else {
                        Insn::PushLit(rng.next_u64() as u16)
                    }
                })
                .collect()
        }
        // Combine-heavy: operators outnumber pushes, so underflow is
        // the common ending.
        4 => (0..rng.range(1, 24))
            .map(|_| match rng.below(4) {
                0 => Insn::PushLit(rng.next_u64() as u16),
                1 => Insn::Op(rand_binop(rng)),
                2 => Insn::CombineOr(rand_binop(rng)),
                _ => Insn::CombineAnd(rand_binop(rng)),
            })
            .collect(),
        // No terminator: exercises the implicit fall-off-the-end Ret.
        _ => (0..rng.below(20))
            .map(|_| loop {
                let i = rand_insn(rng);
                if i != Insn::Ret {
                    return i;
                }
            })
            .collect(),
    };
    (Program::new(insns), class)
}

// ---------------------------------------------------------------------
// Frame generators
// ---------------------------------------------------------------------

struct FrameSpec {
    tcp: bool,
    src: (Ipv4Addr, u16),
    dst: (Ipv4Addr, u16),
    frag_offset: u16,
    more_fragments: bool,
    truncate: Option<usize>,
}

fn build_frame(fs: &FrameSpec) -> Vec<u8> {
    let proto = if fs.tcp { IpProto::Tcp } else { IpProto::Udp };
    let tl = if fs.tcp { 20 } else { 8 };
    let mut ip = Ipv4Header::new(fs.src.0, fs.dst.0, proto, tl);
    ip.frag_offset = fs.frag_offset;
    ip.more_fragments = fs.more_fragments;
    let eth = EthernetHeader {
        dst: EtherAddr::local(2),
        src: EtherAddr::local(1),
        ethertype: EtherType::Ipv4,
    };
    let mut f = eth.encode().to_vec();
    f.extend_from_slice(&ip.encode());
    if fs.tcp {
        let h = TcpHeader {
            src_port: fs.src.1,
            dst_port: fs.dst.1,
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
        f.extend_from_slice(&UdpHeader::new(fs.src.1, fs.dst.1, 0).encode());
    }
    if let Some(len) = fs.truncate {
        f.truncate(len);
    }
    f
}

/// A well-formed frame addressed to a spec's local endpoint from `src`.
fn frame_to(spec: &EndpointSpec, src: (Ipv4Addr, u16)) -> Vec<u8> {
    build_frame(&FrameSpec {
        tcp: spec.proto == IpProto::Tcp,
        src,
        dst: (spec.local_ip, spec.local_port),
        frag_offset: 0,
        more_fragments: false,
        truncate: None,
    })
}

/// The well-formed frame a given endpoint spec accepts.
fn matching_frame(spec: &EndpointSpec) -> Vec<u8> {
    frame_to(
        spec,
        spec.remote.unwrap_or((Ipv4Addr::new(10, 0, 0, 3), 2004)),
    )
}

/// Rewrites a frame to carry a 4-byte IP option: IHL bumped to 6 and a
/// no-op option word spliced in after the fixed header. The session
/// prefix's version/IHL check must reject it; both tiers must agree.
fn with_ip_options(frame: &[u8]) -> Vec<u8> {
    let mut f = frame.to_vec();
    if f.len() < 34 {
        return f;
    }
    f[14] = 0x46; // version 4, IHL 6
                  // NOP, NOP, NOP, EOL.
    let options = [0x01, 0x01, 0x01, 0x00];
    let insert_at = 14 + 20;
    for (i, b) in options.iter().enumerate() {
        f.insert(insert_at + i, *b);
    }
    f
}

fn arp_frame() -> Vec<u8> {
    let p = psd::wire::ArpPacket::request(EtherAddr::local(1), Ipv4Addr::new(10, 0, 0, 1), HOST_IP);
    let eth = EthernetHeader {
        dst: EtherAddr::BROADCAST,
        src: EtherAddr::local(1),
        ethertype: EtherType::Arp,
    };
    let mut f = eth.encode().to_vec();
    f.extend_from_slice(&p.encode());
    f
}

/// One adversarial frame drawn from the seven classes.
fn rand_adversarial_frame(rng: &mut Rng) -> Vec<u8> {
    let base = FrameSpec {
        tcp: rng.chance(0.3),
        src: (
            Ipv4Addr::new(10, 0, 0, rng.range(1, 5) as u8),
            rng.range(2000, 2009) as u16,
        ),
        dst: (HOST_IP, rng.range(1000, 1044) as u16),
        frag_offset: 0,
        more_fragments: false,
        truncate: None,
    };
    match rng.below(7) {
        // Runts: every length from empty to just past the headers.
        0 => {
            let mut f = build_frame(&base);
            f.truncate(rng.below(43) as usize);
            f
        }
        // Fragments.
        1 => {
            let mut fs = base;
            fs.frag_offset = rng.range(1, 100) as u16 * 8;
            fs.more_fragments = rng.chance(0.5);
            build_frame(&fs)
        }
        // IP options.
        2 => with_ip_options(&build_frame(&base)),
        // ARP.
        3 => arp_frame(),
        // Maximal: padded to the classic 1514-byte Ethernet MTU frame.
        4 => {
            let mut f = build_frame(&base);
            while f.len() < 1514 {
                f.push(rng.next_u64() as u8);
            }
            f
        }
        // Raw random bytes: no structure at all.
        5 => (0..rng.below(120)).map(|_| rng.next_u64() as u8).collect(),
        // Well-formed, in-range frames (the happy path must agree too).
        _ => build_frame(&base),
    }
}

// ---------------------------------------------------------------------
// The headline differential harness
// ---------------------------------------------------------------------

/// ≥10,000 adversarial program×frame cases: the compiled artifact must
/// reproduce the interpreter's `FilterOutcome` — verdict, steps, and
/// error — exactly, on every case. Vacuity guards prove the corpus
/// actually reached accepts, ordinary rejects, all three abnormal
/// causes, both compiled tiers, and every program class.
#[test]
fn compiled_tier_matches_interpreter_on_adversarial_corpus() {
    const PROGRAMS: u32 = 1500;
    const FRAMES_PER_PROGRAM: usize = 8;

    let mut total = 0u64;
    let mut accepts = 0u64;
    let mut plain_rejects = 0u64;
    let mut oob = 0u64;
    let mut underflow = 0u64;
    let mut budget = 0u64;
    let mut fast_path_programs = 0u64;
    let mut threaded_programs = 0u64;
    let mut class_seen = [0u64; 6];

    cases(0xf11e_c0de, PROGRAMS, |rng| {
        let (program, class) = rand_program(rng);
        let compiled = CompiledFilter::compile(&program);
        class_seen[class] += 1;
        if compiled.is_fast_path() {
            fast_path_programs += 1;
        } else {
            threaded_programs += 1;
        }
        for _ in 0..FRAMES_PER_PROGRAM {
            let frame = rand_adversarial_frame(rng);
            let reference = program.run(&frame);
            let observed = compiled.run(&frame);
            assert_eq!(
                reference, observed,
                "tiers diverge on program {:?} frame {:02x?}",
                program.insns, frame
            );
            total += 1;
            if reference.accepted {
                accepts += 1;
            }
            match reference.error {
                None if !reference.accepted => plain_rejects += 1,
                Some(VmError::OutOfBounds) => oob += 1,
                Some(VmError::StackUnderflow) => underflow += 1,
                Some(VmError::StepBudget) => budget += 1,
                None => {}
            }
        }
    });

    // Vacuity guards: the corpus must be adversarial in fact, not just
    // in intent. A generator regression that stops producing one of
    // these outcomes turns the whole harness into a no-op.
    assert!(total >= 10_000, "only {total} cases ran");
    assert!(accepts > 0, "corpus never accepted");
    assert!(plain_rejects > 0, "corpus never ordinarily rejected");
    assert!(oob > 0, "corpus never hit OutOfBounds");
    assert!(underflow > 0, "corpus never hit StackUnderflow");
    assert!(budget > 0, "corpus never hit StepBudget");
    assert!(fast_path_programs > 0, "recognizer tier never exercised");
    assert!(threaded_programs > 0, "threaded tier never exercised");
    for (class, seen) in class_seen.iter().enumerate() {
        assert!(*seen > 0, "program class {class} never generated");
    }
}

/// The recognizer's step accounting is the subtle half of the
/// contract: a dedicated sweep pins it on canonical programs, where
/// every reject path (prefix miss, endpoint miss, out-of-bounds read)
/// must charge exactly the interpreter's short-circuit step count.
#[test]
fn recognizer_step_accounting_matches_on_canonical_programs() {
    cases(0xf11e_57e9, 400, |rng| {
        let spec = rand_spec(rng);
        let program = compile_endpoint(&spec);
        let compiled = CompiledFilter::compile(&program);
        assert!(compiled.is_fast_path(), "canonical shape must lower");
        // The matching frame, every prefix of it, and mutations of
        // every single byte: each probes a different reject point.
        let matching = matching_frame(&spec);
        for len in 0..=matching.len() {
            let f = &matching[..len];
            assert_eq!(program.run(f), compiled.run(f), "prefix len {len}");
        }
        for _ in 0..24 {
            let mut f = matching.clone();
            let i = rng.below(f.len() as u64) as usize;
            f[i] ^= 1 << rng.below(8);
            assert_eq!(program.run(&f), compiled.run(&f), "flip at byte {i}");
        }
    });
}

// ---------------------------------------------------------------------
// Demux-table-level equivalence
// ---------------------------------------------------------------------

/// `DemuxTable::classify` against the interpreter: the oracle scans
/// `compile_endpoint(spec)` programs with `Program::run` in
/// specificity-then-install order, exactly as the 1987 CSPF design
/// prescribes. The CSPF table must name the same owner and charge the
/// same summed step count on every frame; the MPF table must name the
/// same owner, except that its key extraction also validates the IP
/// header, so it may decline a malformed frame CSPF claims — never
/// claim one CSPF does not.
#[test]
fn demux_owners_and_steps_match_interpreter_oracle() {
    let mut claimed = 0u64;
    for n in [4usize, 16, 64] {
        cases(0xf11e_0000 + n as u64, 12, |rng| {
            let mut cspf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
            let mut mpf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Mpf);
            let mut specs: Vec<EndpointSpec> = Vec::new();
            while specs.len() < n {
                let spec = rand_spec(rng);
                if specs.contains(&spec) {
                    continue;
                }
                cspf.install(spec, specs.len());
                mpf.install(spec, specs.len());
                specs.push(spec);
            }
            // Stable sort: install order survives within a specificity.
            let mut oracle: Vec<(usize, Program)> =
                specs.iter().map(compile_endpoint).enumerate().collect();
            oracle.sort_by_key(|(i, _)| std::cmp::Reverse(specs[*i].specificity()));
            for _ in 0..48 {
                let frame = rand_adversarial_frame(rng);
                let (mut want_owner, mut want_steps) = (None, 0);
                for (owner, program) in &oracle {
                    let out = program.run(&frame);
                    want_steps += out.steps;
                    if out.accepted {
                        want_owner = Some(*owner);
                        break;
                    }
                }
                let c = cspf.classify(&frame);
                assert_eq!(
                    c.owner.map(|o| o.1),
                    want_owner,
                    "N={n}: owner diverges from the oracle on {frame:02x?}"
                );
                assert_eq!(
                    c.steps, want_steps,
                    "N={n}: charged steps diverge from the oracle on {frame:02x?}"
                );
                let m = mpf.classify(&frame).owner.map(|o| o.1);
                let well_formed = frame
                    .get(14..)
                    .is_some_and(|ip| Ipv4Header::parse(ip).is_ok());
                if m.is_some() || well_formed {
                    assert_eq!(m, want_owner, "N={n}: MPF owner diverges on {frame:02x?}");
                }
                claimed += u64::from(want_owner.is_some());
            }
        });
    }
    assert!(claimed > 0, "no frame was ever claimed");
}

/// Random install/remove interleavings: the incrementally-maintained
/// table classifies exactly like a fresh rebuild of the survivors, and
/// holds the same artifacts.
#[test]
fn incremental_compiled_artifacts_match_fresh_rebuild() {
    cases(0xf11e_2222, 12, |rng| {
        for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
            let mut live: DemuxTable<usize> = DemuxTable::new(strategy);
            let mut ids: Vec<(FilterId, EndpointSpec, usize)> = Vec::new();
            for step in 0..rng.range(50, 250) as usize {
                if !ids.is_empty() && rng.chance(0.4) {
                    let idx = rng.below(ids.len() as u64) as usize;
                    let (id, _, _) = ids.swap_remove(idx);
                    assert!(live.remove(id));
                    assert!(!live.remove(id), "double remove must fail");
                } else {
                    let spec = rand_spec(rng);
                    let id = live.install(spec, step);
                    ids.push((id, spec, step));
                }
            }
            ids.sort_by_key(|(id, _, _)| id.0);
            let mut fresh: DemuxTable<usize> = DemuxTable::new(strategy);
            for (_, spec, owner) in &ids {
                fresh.install(*spec, *owner);
            }
            assert_eq!(live.len(), fresh.len());
            assert_eq!(live.fast_path_artifacts(), fresh.fast_path_artifacts());
            for _ in 0..48 {
                let frame = rand_adversarial_frame(rng);
                let a = live.classify(&frame);
                let b = fresh.classify(&frame);
                assert_eq!(a.owner.map(|o| o.1), b.owner.map(|o| o.1), "{strategy:?}");
                assert_eq!(a.steps, b.steps, "{strategy:?}: steps diverge");
            }
        }
    });
}

// ---------------------------------------------------------------------
// The CSPF closed form against the interpreter scan
// ---------------------------------------------------------------------
//
// `DemuxTable::classify` under CSPF no longer runs the scan it charges
// for: it takes the owner from the endpoint index and sums the steps
// from per-class tries (DESIGN.md §5.5). The oracle below *does* run
// it — `Program::run` over `compile_endpoint(spec)`, connected filters
// in install order, then wildcards — and every case compares owner
// **and** summed steps. `CompiledFilter::runs()` differenced around
// `classify` tells which path produced the answer, so the suite can
// prove the closed form (not a silent fall-back to the scan) was what
// it checked.

/// A live filter as the oracle sees it.
struct Live {
    id: FilterId,
    tag: usize,
    spec: EndpointSpec,
    program: Program,
}

fn install(table: &mut DemuxTable<usize>, tag: usize, spec: EndpointSpec) -> Live {
    Live {
        id: table.install(spec, tag),
        tag,
        spec,
        program: compile_endpoint(&spec),
    }
}

/// Every field read of a canonical filter is in bounds from this
/// frame length on.
const ALL_FIELDS_READABLE: usize = 38;

#[derive(Default)]
struct Tally {
    /// Cases on frames of at least [`ALL_FIELDS_READABLE`] bytes.
    long: u64,
    /// ... of which `classify` ran no artifact at all.
    closed: u64,
    connected_owner: u64,
    wildcard_owner: u64,
    unclaimed: u64,
}

/// `live` is in install order; the scan is connected first, then
/// wildcard, each in that order.
fn oracle_scan<'a>(live: &'a [Live], frame: &[u8]) -> (Option<&'a Live>, usize) {
    let mut steps = 0;
    for connected in [true, false] {
        for l in live.iter().filter(|l| l.spec.remote.is_some() == connected) {
            let out = l.program.run(frame);
            steps += out.steps;
            if out.accepted {
                return (Some(l), steps);
            }
        }
    }
    (None, steps)
}

fn check(table: &DemuxTable<usize>, live: &[Live], frame: &[u8], tally: &mut Tally, what: &str) {
    let (want, want_steps) = oracle_scan(live, frame);
    let runs = CompiledFilter::runs();
    let got = table.classify(frame);
    let ran = CompiledFilter::runs() - runs;
    assert_eq!(
        got.owner.map(|o| o.1),
        want.map(|l| l.tag),
        "{what}: owner diverges from the oracle on {frame:02x?}"
    );
    assert_eq!(
        got.steps, want_steps,
        "{what}: charged steps diverge from the oracle on {frame:02x?}"
    );
    if frame.len() >= ALL_FIELDS_READABLE {
        tally.long += 1;
        tally.closed += u64::from(ran == 0);
    } else {
        assert!(ran > 0 || live.is_empty(), "{what}: a runt was not scanned");
    }
    match want {
        Some(l) if l.spec.remote.is_some() => tally.connected_owner += 1,
        Some(_) => tally.wildcard_owner += 1,
        None => tally.unclaimed += 1,
    }
}

/// The frames every scenario adds to its own: each of the three
/// shared-prefix groups failing, and every truncation 0..=64 of a
/// claimed frame (the scan fall-back).
fn derived_frames(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for f in frames.iter().take(6) {
        let mut not_ip = f.clone();
        not_ip[12] ^= 0x80;
        let mut fragment = f.clone();
        fragment[21] = 0x08;
        out.extend([not_ip, with_ip_options(f), fragment]);
    }
    let mut padded = frames[0].clone();
    padded.resize(padded.len().max(64), 0xA5);
    out.extend((0..=64).map(|len| padded[..len].to_vec()));
    out
}

/// Drives one scenario: the table as built, then again after removing
/// and re-installing a random 40 % of it — against the oracle and
/// against a fresh rebuild of the survivors in their new order.
/// `frames[0]` must be a frame some filter claims.
fn exercise(rng: &mut Rng, specs: &[EndpointSpec], frames: &[Vec<u8>], tally: &mut Tally) {
    let mut table: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
    let mut live: Vec<Live> = specs
        .iter()
        .enumerate()
        .map(|(tag, spec)| install(&mut table, tag, *spec))
        .collect();
    let mut all = frames.to_vec();
    all.extend(derived_frames(frames));

    // A shared-prefix group failing stops every filter at the same
    // instruction: n × {3, 8, 13}, and nobody claims the frame.
    for (byte, per_filter) in [(12usize, 3usize), (14, 8), (20, 13)] {
        let mut f = frames[0].clone();
        f[byte] ^= 0x20;
        let r = table.classify(&f);
        assert!(r.owner.is_none());
        assert_eq!(r.steps, live.len() * per_filter, "group at byte {byte}");
    }
    for f in &all {
        check(&table, &live, f, tally, "as built");
    }

    for _ in 0..live.len() * 2 / 5 {
        let old = live.remove(rng.below(live.len() as u64) as usize);
        assert!(table.remove(old.id));
        assert!(!table.remove(old.id), "double remove must fail");
        live.push(install(&mut table, old.tag, old.spec));
    }
    let mut fresh: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
    for l in &live {
        fresh.install(l.spec, l.tag);
    }
    assert_eq!(table.len(), fresh.len());
    for f in &all {
        check(&table, &live, f, tally, "after churn");
        check(&fresh, &live, f, tally, "fresh rebuild");
    }
}

fn assert_closed_form_carried_the_suite(tally: &Tally) {
    assert!(tally.long >= 200, "only {} full-length cases", tally.long);
    assert!(
        tally.closed * 10 >= tally.long * 9,
        "closed form took {} of {} full-length cases",
        tally.closed,
        tally.long
    );
    assert!(tally.connected_owner > 0, "no connected filter ever won");
    assert!(tally.wildcard_owner > 0, "no wildcard filter ever won");
    assert!(tally.unclaimed > 0, "no frame ever went unclaimed");
}

/// The `fanin_cspf` shape at Table 5's largest scale: 4096 UDP
/// sessions (every 4th connected to one of four senders) on their own
/// local ports, 32 TCP connections sharing a listener's port, and the
/// listener.
#[test]
fn closed_form_matches_oracle_on_a_4096_filter_fanin_table() {
    let sender = Ipv4Addr::new(10, 0, 0, 1);
    let mut specs = Vec::new();
    for i in 0..4096u16 {
        specs.push(if i % 4 == 3 {
            EndpointSpec::connected(
                IpProto::Udp,
                HOST_IP,
                30_000 + i,
                sender,
                9000 + (i / 4) % 4,
            )
        } else {
            EndpointSpec::unconnected(IpProto::Udp, HOST_IP, 10_000 + i)
        });
    }
    for j in 0..32u16 {
        specs.push(EndpointSpec::connected(
            IpProto::Tcp,
            HOST_IP,
            20_000,
            sender,
            40_000 + j,
        ));
    }
    specs.push(EndpointSpec::unconnected(IpProto::Tcp, HOST_IP, 20_000));
    let mut tally = Tally::default();
    cases(0xf11e_4096, 1, |rng| {
        let mut frames = Vec::new();
        for _ in 0..40 {
            let spec = specs[rng.below(specs.len() as u64) as usize];
            frames.push(matching_frame(&spec));
            // Right local endpoint, wrong remote port / remote address.
            frames.push(frame_to(&spec, (sender, 9000 + rng.below(6) as u16)));
            frames.push(frame_to(&spec, (Ipv4Addr::new(10, 0, 0, 7), 40_000)));
        }
        frames.push(arp_frame());
        exercise(rng, &specs, &frames, &mut tally);
    });
    assert_closed_form_carried_the_suite(&tally);
}

/// One listener with 320 connected sessions on its local port, from
/// remotes that differ only in the high address word, only in the low
/// word, or only in port — every depth of the connected class's trie
/// splits — plus duplicate specs, where the earliest install must win
/// and, once removed, the next earliest.
#[test]
fn closed_form_matches_oracle_under_a_busy_listener_and_duplicates() {
    let remotes = [
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 9), // low word differs
        Ipv4Addr::new(10, 0, 1, 1), // low word differs
        Ipv4Addr::new(10, 1, 0, 1), // high word differs
        Ipv4Addr::new(11, 0, 0, 1), // high word differs
    ];
    let mut specs = vec![EndpointSpec::unconnected(IpProto::Tcp, HOST_IP, 80)];
    for i in 0..320u16 {
        let remote = remotes[usize::from(i) % remotes.len()];
        specs.push(EndpointSpec::connected(
            IpProto::Tcp,
            HOST_IP,
            80,
            remote,
            5000 + i / 5,
        ));
    }
    // Duplicates of a connected and of the wildcard spec, and a UDP
    // twin of the listener.
    specs.extend([specs[7], specs[7], specs[0], specs[200]]);
    specs.push(EndpointSpec::unconnected(IpProto::Udp, HOST_IP, 80));
    let mut tally = Tally::default();
    cases(0xf11e_0080, 3, |rng| {
        let mut frames = vec![matching_frame(&specs[7]), matching_frame(&specs[200])];
        for _ in 0..60 {
            let src = (
                remotes[rng.below(remotes.len() as u64) as usize],
                4990 + rng.below(90) as u16,
            );
            frames.push(frame_to(&specs[0], src));
        }
        frames.push(frame_to(&specs[0], (Ipv4Addr::new(10, 0, 0, 2), 5000)));
        frames.push(frame_to(&specs[0], (Ipv4Addr::new(12, 0, 0, 1), 5000)));
        frames.push(frame_to(specs.last().unwrap(), (remotes[0], 5000)));
        exercise(rng, &specs, &frames, &mut tally);
    });
    assert_closed_form_carried_the_suite(&tally);

    // Earliest install wins among equal specs, through removals.
    let mut t: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
    let ids: Vec<FilterId> = (0..3).map(|tag| t.install(specs[7], tag)).collect();
    let frame = matching_frame(&specs[7]);
    for (tag, id) in ids.iter().enumerate() {
        let r = t.classify(&frame);
        assert_eq!(r.owner.map(|o| o.1), Some(tag));
        assert_eq!(r.steps, compile_endpoint(&specs[7]).insns.len());
        assert!(t.remove(*id));
    }
    assert!(t.classify(&frame).owner.is_none());
}

/// Random tables over a deliberately cramped space — TCP and UDP, two
/// local addresses, a handful of ports and remotes, duplicates allowed
/// — so filters share every possible key prefix with each other and
/// with the probe frames.
#[test]
fn closed_form_matches_oracle_on_cramped_random_tables() {
    let locals = [HOST_IP, Ipv4Addr::new(10, 0, 9, 2)];
    let remotes = [
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 3),
        Ipv4Addr::new(10, 7, 0, 1),
    ];
    let pick = |rng: &mut Rng, from: &[Ipv4Addr]| from[rng.below(from.len() as u64) as usize];
    let mut tally = Tally::default();
    cases(0xf11e_c4a3, 24, |rng| {
        let n = rng.range(1, 120) as usize;
        let specs: Vec<EndpointSpec> = (0..n)
            .map(|_| {
                let proto = if rng.chance(0.4) {
                    IpProto::Tcp
                } else {
                    IpProto::Udp
                };
                let (lip, lport) = (pick(rng, &locals), rng.range(1000, 1005) as u16);
                if rng.chance(0.6) {
                    let remote = (pick(rng, &remotes), rng.range(2000, 2003) as u16);
                    EndpointSpec::connected(proto, lip, lport, remote.0, remote.1)
                } else {
                    EndpointSpec::unconnected(proto, lip, lport)
                }
            })
            .collect();
        let frames: Vec<Vec<u8>> = (0..80)
            .map(|_| {
                build_frame(&FrameSpec {
                    tcp: rng.chance(0.4),
                    src: (pick(rng, &remotes), rng.range(2000, 2004) as u16),
                    dst: (pick(rng, &locals), rng.range(1000, 1006) as u16),
                    frag_offset: 0,
                    more_fragments: false,
                    truncate: None,
                })
            })
            .collect();
        exercise(rng, &specs, &frames, &mut tally);
    });
    assert_closed_form_carried_the_suite(&tally);
}

// ---------------------------------------------------------------------
// Endpoint-lowering property (satellite: compile.rs § recognizer)
// ---------------------------------------------------------------------

/// Every compiled endpoint spec lowers to the recognizer fast path and
/// accepts exactly its own frames: the matching frame passes, and the
/// fragment / IP-options / wrong-protocol / wrong-port variants all
/// fail — interpreted and compiled, with identical outcomes.
#[test]
fn endpoint_lowering_accepts_own_frames_and_rejects_variants() {
    cases(0xf11e_3333, 300, |rng| {
        let spec = rand_spec(rng);
        let program = compile_endpoint(&spec);
        let compiled = CompiledFilter::compile(&program);
        assert!(compiled.is_fast_path(), "endpoint programs must lower");

        let good = matching_frame(&spec);
        assert!(program.run(&good).accepted, "own frame must match");
        assert_eq!(program.run(&good), compiled.run(&good));

        // Fragment variant: set a nonzero fragment offset.
        let mut frag = good.clone();
        frag[20] = 0x00;
        frag[21] = 0x08;
        assert!(!program.run(&frag).accepted, "fragments never match");
        assert_eq!(program.run(&frag), compiled.run(&frag));

        // IP-options variant.
        let opts = with_ip_options(&good);
        assert!(!program.run(&opts).accepted, "options never match");
        assert_eq!(program.run(&opts), compiled.run(&opts));

        // Wrong transport protocol (UDP <-> TCP in the proto byte; the
        // port words keep their offsets, only the proto check differs).
        let mut wrong_proto = good.clone();
        wrong_proto[23] = if spec.proto == IpProto::Udp { 6 } else { 17 };
        assert!(!program.run(&wrong_proto).accepted);
        assert_eq!(program.run(&wrong_proto), compiled.run(&wrong_proto));

        // Wrong destination port.
        let mut wrong_port = good.clone();
        wrong_port[37] ^= 0x01;
        assert!(!program.run(&wrong_port).accepted);
        assert_eq!(program.run(&wrong_port), compiled.run(&wrong_port));

        // Connected sessions also reject a wrong remote.
        if spec.remote.is_some() {
            let mut wrong_remote = good.clone();
            wrong_remote[29] ^= 0x40;
            assert!(!program.run(&wrong_remote).accepted);
            assert_eq!(program.run(&wrong_remote), compiled.run(&wrong_remote));
        }
    });
}
