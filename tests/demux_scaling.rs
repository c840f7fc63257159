//! Scaling properties of the two demultiplexing strategies (§3.1).
//!
//! `tests/properties_deterministic.rs` checks CSPF/MPF agreement on
//! small tables; these tests push the table to the Table 5 scales
//! (up to 4096 filters) and widen the frame space to everything a wire
//! can carry — overlapping wildcard/connected filters, IP fragments,
//! ARP, and short/truncated frames — then additionally check that a
//! table grown and shrunk incrementally classifies exactly like a
//! table built from scratch with the surviving filters.

use psd::filter::{CompiledFilter, DemuxStrategy, DemuxTable, EndpointSpec, FilterId};
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

/// A random endpoint spec drawn from a port space sized to the table,
/// so large tables still produce wildcard/connected overlap on the
/// same local port.
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

/// A random probe frame over the same space the specs are drawn from,
/// with fragments, short frames and the occasional ARP mixed in.
fn rand_frame(rng: &mut Rng, ports: u64) -> Vec<u8> {
    if rng.chance(0.05) {
        // ARP: never claimed by a session filter.
        let p =
            psd::wire::ArpPacket::request(EtherAddr::local(1), Ipv4Addr::new(10, 0, 0, 1), HOST_IP);
        let eth = EthernetHeader {
            dst: EtherAddr::local(2),
            src: EtherAddr::local(1),
            ethertype: EtherType::Arp,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&p.encode());
        return f;
    }
    let fragmented = rng.chance(0.1);
    let fs = FrameSpec {
        tcp: rng.chance(0.3),
        src: (
            Ipv4Addr::new(10, 0, 0, rng.range(1, 5) as u8),
            rng.range(2000, 2009) as u16,
        ),
        dst: (
            if rng.chance(0.9) {
                HOST_IP
            } else {
                Ipv4Addr::new(10, 0, 0, 9)
            },
            rng.range(1000, 1000 + ports + 1) as u16,
        ),
        frag_offset: if fragmented {
            rng.range(1, 100) as u16 * 8
        } else {
            0
        },
        more_fragments: fragmented && rng.chance(0.5),
        // Truncate strictly below the transport-port words (bytes
        // 34..38). A frame cut *inside* the transport header is
        // implementation-defined: CSPF's compiled program reads only
        // the words it references (ports still in bounds -> accept),
        // while MPF validates the IP total-length against the buffer
        // (-> reject). Such runts never leave the simulated ether, so
        // the equivalence property is only claimed outside them.
        truncate: rng.chance(0.08).then(|| rng.below(38) as usize),
    };
    build_frame(&fs)
}

/// Installs `n` random filters into both tables, skipping exact
/// duplicates (both strategies resolve duplicates to the earliest
/// install, but the property stays implementation-independent).
fn grow_pair(rng: &mut Rng, n: usize, ports: u64) -> (DemuxTable<usize>, DemuxTable<usize>) {
    let mut cspf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
    let mut mpf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Mpf);
    let mut seen = std::collections::HashSet::new();
    let mut owner = 0usize;
    while owner < n {
        let spec = rand_spec(rng, ports);
        if !seen.insert((
            spec.proto.to_u8(),
            spec.local_ip,
            spec.local_port,
            spec.remote,
        )) {
            continue;
        }
        cspf.install(spec, owner);
        mpf.install(spec, owner);
        owner += 1;
    }
    (cspf, mpf)
}

/// CSPF and MPF classify byte-identical owners at every table size the
/// Table 5 benchmark uses, over frames including fragments, ARP and
/// truncated runts.
#[test]
fn strategies_agree_at_table5_scales() {
    for (size, ports, n_cases, probes) in [
        (16usize, 24u64, 24u32, 64u64),
        (256, 300, 8, 64),
        (4096, 4800, 2, 128),
    ] {
        cases(0x5ca1_e000 + size as u64, n_cases, |rng| {
            let (cspf, mpf) = grow_pair(rng, size, ports);
            for _ in 0..probes {
                let frame = rand_frame(rng, ports);
                let a = cspf.classify(&frame);
                let b = mpf.classify(&frame);
                assert_eq!(
                    a.owner.map(|o| o.1),
                    b.owner.map(|o| o.1),
                    "owners diverge on frame {frame:02x?}"
                );
            }
        });
    }
}

/// MPF's per-packet cost is independent of the table size while CSPF's
/// grows without bound — measured on the same tables, same frames.
#[test]
fn mpf_steps_flat_cspf_steps_linear_at_4096() {
    let mut rng = Rng::new(0x5ca1_e111);
    let probe = |cspf: &DemuxTable<usize>, mpf: &DemuxTable<usize>| -> (usize, usize) {
        // Probe a frame that no filter claims: CSPF's worst case (it
        // scans everything), and MPF's equally-common case.
        let fs = FrameSpec {
            tcp: false,
            src: (Ipv4Addr::new(10, 0, 0, 1), 2003),
            dst: (HOST_IP, 900),
            frag_offset: 0,
            more_fragments: false,
            truncate: None,
        };
        let frame = build_frame(&fs);
        (cspf.classify(&frame).steps, mpf.classify(&frame).steps)
    };
    let (cspf_small, mpf_small) = grow_pair(&mut rng, 16, 24);
    let (cspf_large, mpf_large) = grow_pair(&mut rng, 4096, 4800);
    let (c16, m16) = probe(&cspf_small, &mpf_small);
    let (c4096, m4096) = probe(&cspf_large, &mpf_large);
    assert_eq!(m16, m4096, "MPF cost must not depend on the table size");
    assert!(
        c4096 >= c16 * 64,
        "CSPF cost must scale with the table ({c16} -> {c4096})"
    );
}

/// The host does not pay for CSPF's linear scan: at 4096 filters a
/// well-formed frame (every field a session filter reads in bounds) is
/// classified — owner and the full O(n) step charge — without running
/// a single compiled artifact, while a runt still walks the table.
/// Counted, not timed: a silent fall-back to the scan cannot pass as
/// green, and no wall clock is consulted.
#[test]
fn cspf_classify_runs_no_artifact_on_well_formed_frames_at_4096() {
    let ports = 4800u64;
    cases(0x5ca1_e444, 2, |rng| {
        let (cspf, _) = grow_pair(rng, 4096, ports);
        let (mut probes, mut claimed, mut scanned_steps) = (0u32, 0u32, 0usize);
        while probes < 256 {
            let frame = rand_frame(rng, ports);
            if frame.len() < 38 {
                continue;
            }
            let runs = CompiledFilter::runs();
            let r = cspf.classify(&frame);
            assert_eq!(
                CompiledFilter::runs(),
                runs,
                "CSPF ran an artifact on a {}-byte frame {frame:02x?}",
                frame.len()
            );
            probes += 1;
            claimed += u32::from(r.owner.is_some());
            scanned_steps = scanned_steps.max(r.steps);
        }
        assert!(claimed > 0, "no probe was ever claimed");
        assert!(
            scanned_steps >= 4096 * 18,
            "no probe was charged a full scan ({scanned_steps} steps at most)"
        );
        // The fall-back is alive: a runt is scanned, one run per filter.
        let runs = CompiledFilter::runs();
        let r = cspf.classify(&[0u8; 20]);
        assert!(r.owner.is_none());
        assert_eq!(CompiledFilter::runs() - runs, 4096);
    });
}

/// Connected-beats-wildcard precedence survives the compile tier at
/// the top Table 5 scale: with 4096 filters installed, a local port
/// claimed by both a wildcard and a connected filter resolves to the
/// connected one for the connected remote and to the wildcard for
/// everyone else, under both strategies.
#[test]
fn connected_beats_wildcard_at_4096_filters_under_compiled_engine() {
    let ports = 4800u64;
    cases(0x5ca1_e333, 2, |rng| {
        for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
            let mut table: DemuxTable<usize> = DemuxTable::new(strategy);
            let mut seen = std::collections::HashSet::new();
            let mut owner = 0usize;
            while owner < 4094 {
                let spec = rand_spec(rng, ports);
                if !seen.insert((
                    spec.proto.to_u8(),
                    spec.local_ip,
                    spec.local_port,
                    spec.remote,
                )) {
                    continue;
                }
                table.install(spec, owner);
                owner += 1;
            }
            // The contested port: a wildcard and a (more specific)
            // connected filter, wildcard installed first so precedence
            // cannot be an accident of install order.
            let peer = (Ipv4Addr::new(10, 0, 0, 1), 2003u16);
            let port = 999u16; // outside the random port space
            let wild = EndpointSpec::unconnected(psd::wire::IpProto::Udp, HOST_IP, port);
            let conn =
                EndpointSpec::connected(psd::wire::IpProto::Udp, HOST_IP, port, peer.0, peer.1);
            let wild_owner = 100_000usize;
            let conn_owner = 100_001usize;
            table.install(wild, wild_owner);
            table.install(conn, conn_owner);

            let from_peer = build_frame(&FrameSpec {
                tcp: false,
                src: peer,
                dst: (HOST_IP, port),
                frag_offset: 0,
                more_fragments: false,
                truncate: None,
            });
            let from_other = build_frame(&FrameSpec {
                tcp: false,
                src: (Ipv4Addr::new(10, 0, 0, 4), 2008),
                dst: (HOST_IP, port),
                frag_offset: 0,
                more_fragments: false,
                truncate: None,
            });
            for (frame, want) in [(&from_peer, conn_owner), (&from_other, wild_owner)] {
                let r = table.classify(frame);
                assert_eq!(r.owner.map(|o| o.1), Some(want), "{strategy:?}: precedence");
            }
        }
    });
}

/// A table grown and shrunk incrementally is indistinguishable from a
/// table built fresh from the surviving filters: same owners, same
/// step counts, same spec lookups. This pins the incremental
/// order/index maintenance added for Table 5 to the semantics of a
/// from-scratch build.
#[test]
fn incremental_maintenance_matches_fresh_rebuild() {
    cases(0x5ca1_e222, 16, |rng| {
        for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
            let ports = 40;
            let mut live: DemuxTable<usize> = DemuxTable::new(strategy);
            let mut ids: Vec<(FilterId, EndpointSpec, usize)> = Vec::new();
            // Random interleaving of installs and removes (removes
            // target a random live filter, including re-removal of a
            // dead id, which must be a no-op).
            for step in 0..rng.range(50, 300) as usize {
                if !ids.is_empty() && rng.chance(0.4) {
                    let idx = rng.below(ids.len() as u64) as usize;
                    let (id, _, _) = ids.swap_remove(idx);
                    assert!(live.remove(id));
                    assert!(!live.remove(id), "double remove must fail");
                    assert_eq!(live.spec(id), None);
                } else {
                    let spec = rand_spec(rng, ports);
                    let id = live.install(spec, step);
                    ids.push((id, spec, step));
                }
            }
            // Fresh rebuild: survivors in original install order.
            ids.sort_by_key(|(id, _, _)| id.0);
            let mut fresh: DemuxTable<usize> = DemuxTable::new(strategy);
            let mut fresh_ids = Vec::new();
            for (_, spec, owner) in &ids {
                fresh_ids.push(fresh.install(*spec, *owner));
            }
            assert_eq!(live.len(), fresh.len());
            for ((live_id, spec, _), fresh_id) in ids.iter().zip(&fresh_ids) {
                assert_eq!(live.spec(*live_id), Some(*spec));
                assert_eq!(fresh.spec(*fresh_id), Some(*spec));
            }
            for _ in 0..64 {
                let frame = rand_frame(rng, ports);
                let a = live.classify(&frame);
                let b = fresh.classify(&frame);
                assert_eq!(
                    a.owner.map(|o| o.1),
                    b.owner.map(|o| o.1),
                    "{strategy:?}: incremental and fresh tables diverge"
                );
                assert_eq!(a.steps, b.steps, "{strategy:?}: step counts diverge");
            }
        }
    });
}
