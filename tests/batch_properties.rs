//! GRO / GSO property tests (the coalescing and segmentation rules).
//!
//! GRO's admission rules are load-bearing for correctness, not just
//! cost: a merge across flows or sequence gaps would corrupt a TCP
//! stream, a merge across a flag-bearing segment would lose PSH/FIN/RST
//! semantics, and a descriptor grown past the ring-slot bound
//! ([`GRO_MAX_FRAME`]) could not be delivered. These tests pin each
//! rule at the kernel ingress with hand-built frames, then fuzz the
//! whole admission automaton against an independent model: a seeded
//! adversarial generator (mixed flows, gaps, flag-bearing segments,
//! oversize runs) drives the kernel while the test replays the written
//! rules and predicts the exact delivered framing — payload bytes,
//! boundaries, and order.
//!
//! GSO's contract is byte-identity: `udp_send_gso` must put *exactly*
//! the frames on the wire that per-datagram sends would, so a receiver
//! cannot tell whether the sender segmented in the stack or above it.
//! Two stacks run the same transfer — one through the GSO path, one
//! through per-datagram sends — and the recorded wire logs (ARP
//! included) must match frame for frame, byte for byte, across a
//! seeded sweep of lengths and segment sizes.

use psd::filter::EndpointSpec;
use psd::kernel::{BatchConfig, Kernel, KernelHandle, PacketSink, RxMode, GRO_MAX_FRAME};
use psd::netdev::{Ethernet, EthernetHandle};
use psd::netstack::{InetAddr, NetIf, NetStack, Placement, RouteTable, StackHandle};
use psd::sim::{Charge, CostModel, Cpu, Rng, Sim, SimTime};
use psd::wire::{
    EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, TcpFlags, TcpHeader, ETHER_HDR_LEN,
    IPV4_HDR_LEN,
};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 7;

/// Runs `body` for `n` deterministic cases, each with its own forked
/// stream. The per-case seed appears in panic messages.
fn cases(base_seed: u64, n: u32, mut body: impl FnMut(&mut Rng)) {
    let mut root = Rng::new(base_seed);
    for case in 0..n {
        let seed = root.next_u64();
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

// ---------------------------------------------------------------------
// Kernel-ingress rig
// ---------------------------------------------------------------------

struct Rig {
    sim: Sim,
    ether: EthernetHandle,
    kernel: KernelHandle,
}

/// One kernel on a 10 Mbit segment, reachable at `EtherAddr::local(2)`.
fn rig() -> Rig {
    let mut sim = Sim::new(1);
    let ether = Ethernet::ten_megabit(&mut sim);
    let cpu = Rc::new(RefCell::new(Cpu::new()));
    let kernel = Kernel::new(CostModel::decstation_5000_200(), cpu, EtherAddr::local(2));
    Kernel::connect(&kernel, &ether);
    Rig { sim, ether, kernel }
}

type DeliveryLog = Rc<RefCell<Vec<Vec<u8>>>>;

fn collect_sink() -> (PacketSink, DeliveryLog) {
    let log: DeliveryLog = Rc::new(RefCell::new(Vec::new()));
    let l2 = log.clone();
    let sink: PacketSink = Rc::new(RefCell::new(move |_: &mut Sim, _: SimTime, f: Vec<u8>| {
        l2.borrow_mut().push(f);
    }));
    (sink, log)
}

/// Installs one unconnected TCP endpoint on `PORT` with GRO enabled at
/// window `batch`, returning its delivery log.
fn gro_rig(batch: usize) -> (Rig, DeliveryLog) {
    let r = rig();
    let (sink, log) = collect_sink();
    {
        let mut k = r.kernel.borrow_mut();
        k.set_batch_config(BatchConfig::full(batch));
        let ep = k.create_endpoint(RxMode::Shm, sink);
        k.install_filter(EndpointSpec::unconnected(IpProto::Tcp, B_IP, PORT), ep)
            .unwrap();
    }
    (r, log)
}

/// A checksummed TCP frame addressed to the rig's kernel. The flow is
/// keyed by `src_port`.
fn tcp_frame(src_port: u16, seq: u32, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let tcp = TcpHeader {
        src_port,
        dst_port: PORT,
        seq,
        ack: 1,
        flags,
        window: 8192,
        urgent: 0,
        mss: None,
    };
    let ip = Ipv4Header::new(A_IP, B_IP, IpProto::Tcp, tcp.header_len() + payload.len());
    let mut tcp_bytes = [0u8; psd_wire::TCP_HDR_LEN];
    tcp.encode_with_checksum(&ip, &mut tcp_bytes, payload.len(), std::iter::once(payload));
    let eth = EthernetHeader {
        dst: EtherAddr::local(2),
        src: EtherAddr::local(1),
        ethertype: EtherType::Ipv4,
    };
    let mut f = eth.encode().to_vec();
    f.extend_from_slice(&ip.encode());
    f.extend_from_slice(&tcp_bytes);
    f.extend_from_slice(payload);
    f
}

/// Parses a delivered frame back into `(src_port, seq, payload)`,
/// verifying the transport checksum — synthesized GRO frames must be
/// indistinguishable from well-formed wire frames.
fn parse_delivery(frame: &[u8]) -> (u16, u32, Vec<u8>) {
    let ip = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]).expect("delivered frame has valid IP");
    let tp = &frame[ETHER_HDR_LEN + IPV4_HDR_LEN..ETHER_HDR_LEN + ip.total_len as usize];
    let (tcp, thl) = TcpHeader::parse(tp).expect("delivered frame has valid TCP");
    let payload = &tp[thl..];
    assert!(
        TcpHeader::verify(&ip, &tp[..thl], payload.len(), std::iter::once(payload)),
        "delivered frame fails its transport checksum"
    );
    (tcp.src_port, tcp.seq, payload.to_vec())
}

fn transmit_all(r: &mut Rig, frames: Vec<Vec<u8>>) {
    for f in frames {
        let now = r.sim.now();
        Ethernet::transmit(&r.ether, &mut r.sim, now, f);
    }
    r.sim.run_to_idle();
}

// ---------------------------------------------------------------------
// Single-rule pins
// ---------------------------------------------------------------------

#[test]
fn gro_never_merges_across_flows() {
    // Two flows interleave on the same endpoint (an unconnected filter
    // accepts both); their consecutive-looking sequence numbers must
    // not tempt a merge.
    let (mut r, log) = gro_rig(8);
    transmit_all(
        &mut r,
        vec![
            tcp_frame(5555, 1000, TcpFlags::ACK, &[0x11; 100]),
            tcp_frame(6666, 1100, TcpFlags::ACK, &[0x22; 100]),
        ],
    );
    assert_eq!(r.kernel.borrow().stats().gro_merged, 0);
    let log = log.borrow();
    assert_eq!(log.len(), 2, "one descriptor per flow");
    assert_eq!(parse_delivery(&log[0]), (5555, 1000, vec![0x11; 100]));
    assert_eq!(parse_delivery(&log[1]), (6666, 1100, vec![0x22; 100]));
}

#[test]
fn gro_never_merges_across_sequence_gaps() {
    let (mut r, log) = gro_rig(8);
    transmit_all(
        &mut r,
        vec![
            tcp_frame(5555, 1000, TcpFlags::ACK, &[0x11; 100]),
            // 1100 would be mergeable; 1101 is a hole.
            tcp_frame(5555, 1101, TcpFlags::ACK, &[0x22; 100]),
        ],
    );
    assert_eq!(r.kernel.borrow().stats().gro_merged, 0);
    let log = log.borrow();
    assert_eq!(log.len(), 2, "a hole forbids coalescing");
    assert_eq!(parse_delivery(&log[0]), (5555, 1000, vec![0x11; 100]));
    assert_eq!(parse_delivery(&log[1]), (5555, 1101, vec![0x22; 100]));
}

#[test]
fn gro_never_merges_flag_bearing_segments() {
    // PSH/FIN/RST/urgent segments carry edge semantics a receiver must
    // see framed exactly as sent; each flushes the held run and passes
    // through unmerged.
    for flags in [
        TcpFlags::ACK | TcpFlags::PSH,
        TcpFlags::ACK | TcpFlags::FIN,
        TcpFlags::ACK | TcpFlags::RST,
        TcpFlags::ACK | TcpFlags::SYN,
    ] {
        let (mut r, log) = gro_rig(8);
        transmit_all(
            &mut r,
            vec![
                tcp_frame(5555, 1000, TcpFlags::ACK, &[0x11; 100]),
                tcp_frame(5555, 1100, flags, &[0x22; 100]),
            ],
        );
        assert_eq!(
            r.kernel.borrow().stats().gro_merged,
            0,
            "flags {flags:?} must not merge"
        );
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        let (_, seq, payload) = parse_delivery(&log[1]);
        assert_eq!((seq, payload), (1100, vec![0x22; 100]));
    }
}

#[test]
fn gro_never_grows_a_descriptor_past_the_ring_slot() {
    // The exact boundary: headers (14 + 20 + 20) plus merged payload
    // must stay ≤ GRO_MAX_FRAME. One byte more and the run closes.
    let hdr = ETHER_HDR_LEN + IPV4_HDR_LEN + 20;
    let p1 = 2000usize;
    let fits = GRO_MAX_FRAME - hdr - p1;
    for (p2, merges) in [(fits, true), (fits + 1, false)] {
        let (mut r, log) = gro_rig(8);
        transmit_all(
            &mut r,
            vec![
                tcp_frame(5555, 1000, TcpFlags::ACK, &vec![0x11; p1]),
                tcp_frame(5555, 1000 + p1 as u32, TcpFlags::ACK, &vec![0x22; p2]),
            ],
        );
        let stats = r.kernel.borrow().stats();
        let log = log.borrow();
        if merges {
            assert_eq!(stats.gro_merged, 1, "exactly at the bound must merge");
            assert_eq!(log.len(), 1);
            assert_eq!(log[0].len(), GRO_MAX_FRAME, "descriptor fills the slot");
        } else {
            assert_eq!(stats.gro_merged, 0, "one past the bound must not merge");
            assert_eq!(log.len(), 2);
        }
    }
}

#[test]
fn gro_size_cap_holds_for_full_mss_segments() {
    // Realistic framing: two 1460-byte MSS segments coalesce (2974
    // bytes framed), a third would overflow the slot and starts a new
    // run instead.
    let (mut r, log) = gro_rig(8);
    let mss = 1460usize;
    transmit_all(
        &mut r,
        (0..3)
            .map(|i| {
                tcp_frame(
                    5555,
                    1000 + (i * mss) as u32,
                    TcpFlags::ACK,
                    &vec![i as u8; mss],
                )
            })
            .collect(),
    );
    let stats = r.kernel.borrow().stats();
    assert_eq!(stats.gro_merged, 1, "exactly one merge");
    let log = log.borrow();
    assert_eq!(log.len(), 2, "two descriptors for three segments");
    let (_, seq0, pay0) = parse_delivery(&log[0]);
    assert_eq!((seq0, pay0.len()), (1000, 2 * mss));
    let (_, seq1, pay1) = parse_delivery(&log[1]);
    assert_eq!((seq1, pay1.len()), (1000 + 2 * mss as u32, mss));
}

// ---------------------------------------------------------------------
// Model-based fuzz: the admission automaton
// ---------------------------------------------------------------------

/// One generated segment.
#[derive(Clone)]
struct Seg {
    src_port: u16,
    seq: u32,
    flags: TcpFlags,
    payload: Vec<u8>,
}

/// Replays the written GRO rules over `segs` and predicts the exact
/// delivered framing: `(src_port, seq, payload)` per descriptor, in
/// order. This is an independent reimplementation of the admission
/// automaton — any divergence is a bug in one of them.
fn model_gro(segs: &[Seg], batch: usize) -> Vec<(u16, u32, Vec<u8>)> {
    struct Slot {
        src_port: u16,
        seq: u32,
        next_seq: u32,
        payload: Vec<u8>,
        count: usize,
    }
    let hdr = ETHER_HDR_LEN + IPV4_HDR_LEN + 20;
    let mut out = Vec::new();
    let mut slot: Option<Slot> = None;
    for s in segs {
        let eligible = s.flags == TcpFlags::ACK && !s.payload.is_empty();
        if !eligible {
            if let Some(h) = slot.take() {
                out.push((h.src_port, h.seq, h.payload));
            }
            out.push((s.src_port, s.seq, s.payload.clone()));
            continue;
        }
        let fits = slot.as_ref().is_some_and(|h| {
            h.src_port == s.src_port
                && s.seq == h.next_seq
                && h.count < batch
                && hdr + h.payload.len() + s.payload.len() <= GRO_MAX_FRAME
        });
        if fits {
            let h = slot.as_mut().expect("checked");
            h.payload.extend_from_slice(&s.payload);
            h.next_seq = h.next_seq.wrapping_add(s.payload.len() as u32);
            h.count += 1;
            if h.count >= batch {
                let h = slot.take().expect("held");
                out.push((h.src_port, h.seq, h.payload));
            }
            continue;
        }
        if let Some(h) = slot.take() {
            out.push((h.src_port, h.seq, h.payload));
        }
        slot = Some(Slot {
            src_port: s.src_port,
            seq: s.seq,
            next_seq: s.seq.wrapping_add(s.payload.len() as u32),
            payload: s.payload.clone(),
            count: 1,
        });
    }
    if let Some(h) = slot.take() {
        out.push((h.src_port, h.seq, h.payload));
    }
    out
}

/// Generates an adversarial segment stream: two flows, mostly in-order
/// pure-ACK data with a tail of gaps, flag-bearing segments, and
/// cross-flow interleavings. Payloads stay small so wire serialization
/// (≤ ~0.2 ms/frame over ≤ 8 frames) never outruns the 2 ms GRO
/// deadline — the deadline is deliberately out of model scope.
fn gen_segs(rng: &mut Rng) -> Vec<Seg> {
    let n = rng.range(2, 9) as usize;
    let mut next_seq = [1_000u32, 50_000u32];
    let mut segs = Vec::new();
    for _ in 0..n {
        let flow = usize::from(rng.chance(0.3));
        let src_port = [5555u16, 6666][flow];
        let len = rng.range(1, 151) as usize;
        let seq = if rng.chance(0.8) {
            next_seq[flow]
        } else {
            next_seq[flow].wrapping_add(rng.range(1, 500) as u32)
        };
        let flags = if rng.chance(0.8) {
            TcpFlags::ACK
        } else {
            [
                TcpFlags::ACK | TcpFlags::PSH,
                TcpFlags::ACK | TcpFlags::FIN,
                TcpFlags::ACK | TcpFlags::RST,
            ][rng.below(3) as usize]
        };
        let fill = rng.next_u64() as u8;
        segs.push(Seg {
            src_port,
            seq,
            flags,
            payload: vec![fill; len],
        });
        next_seq[flow] = seq.wrapping_add(len as u32);
    }
    segs
}

#[test]
fn gro_admission_matches_model_under_fuzz() {
    let (mut merges, mut singles, mut rejects) = (0u64, 0u64, 0u64);
    cases(0x6120_0993, 300, |rng| {
        let batch = rng.range(2, 6) as usize;
        let segs = gen_segs(rng);
        let want = model_gro(&segs, batch);

        let (mut r, log) = gro_rig(batch);
        transmit_all(
            &mut r,
            segs.iter()
                .map(|s| tcp_frame(s.src_port, s.seq, s.flags, &s.payload))
                .collect(),
        );
        let got: Vec<(u16, u32, Vec<u8>)> =
            log.borrow().iter().map(|f| parse_delivery(f)).collect();
        assert_eq!(
            got.len(),
            want.len(),
            "descriptor framing diverged from the model"
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "descriptor content diverged from the model");
        }

        let stats = r.kernel.borrow().stats();
        merges += stats.gro_merged;
        if want.len() == segs.len() {
            singles += 1;
        }
        rejects += segs.iter().filter(|s| s.flags != TcpFlags::ACK).count() as u64;
    });
    // Vacuity: the corpus exercised merges, merge-free streams, and
    // flag rejections.
    assert!(merges > 0, "fuzz corpus never merged");
    assert!(singles > 0, "fuzz corpus never produced a merge-free run");
    assert!(
        rejects > 0,
        "fuzz corpus never generated flag-bearing segments"
    );
}

// ---------------------------------------------------------------------
// GSO byte-identity
// ---------------------------------------------------------------------

/// A point-to-point wire that records every frame the A-side stack
/// transmits (ARP included) and forwards it to the peer.
struct RecordIf {
    mac: EtherAddr,
    peer: RefCell<Option<StackHandle>>,
    log: Option<DeliveryLog>,
    delay: SimTime,
}

impl NetIf for RecordIf {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        if let Some(log) = &self.log {
            log.borrow_mut().push(frame.clone());
        }
        let Some(peer) = self.peer.borrow().clone() else {
            return;
        };
        let at = charge.at() + self.delay;
        sim.at(at, move |sim| {
            let cpu = peer.borrow().cpu();
            let now = sim.now();
            let mut ch = cpu.borrow_mut().begin(now);
            peer.borrow_mut().input_frame(sim, &mut ch, &frame);
            cpu.borrow_mut().finish(ch);
        });
    }
}

/// Two kernel-placement stacks joined by a recording wire; returns the
/// A-side stack, its transmit log, and the sim.
fn stack_pair() -> (Sim, StackHandle, StackHandle, DeliveryLog) {
    let sim = Sim::new(7);
    let costs = CostModel::decstation_5000_200();
    let a = NetStack::new(
        Placement::Kernel,
        costs.clone(),
        Rc::new(RefCell::new(Cpu::new())),
        A_IP,
    );
    let b = NetStack::new(
        Placement::Kernel,
        costs,
        Rc::new(RefCell::new(Cpu::new())),
        B_IP,
    );
    let log: DeliveryLog = Rc::new(RefCell::new(Vec::new()));
    let ifa = Rc::new(RecordIf {
        mac: EtherAddr::local(1),
        peer: RefCell::new(Some(b.clone())),
        log: Some(log.clone()),
        delay: SimTime::from_micros(120),
    });
    let ifb = Rc::new(RecordIf {
        mac: EtherAddr::local(2),
        peer: RefCell::new(Some(a.clone())),
        log: None,
        delay: SimTime::from_micros(120),
    });
    a.borrow_mut().set_ifnet(ifa);
    b.borrow_mut().set_ifnet(ifb);
    for s in [&a, &b] {
        s.borrow_mut().routes = RouteTable::directly_attached(
            Ipv4Addr::new(10, 0, 0, 0),
            Ipv4Addr::new(255, 255, 255, 0),
        );
    }
    (sim, a, b, log)
}

fn with_charge<R>(
    sim: &mut Sim,
    stack: &StackHandle,
    f: impl FnOnce(&mut NetStack, &mut Sim, &mut Charge) -> R,
) -> R {
    let cpu = stack.borrow().cpu();
    let now = sim.now();
    let mut charge = cpu.borrow_mut().begin(now);
    let r = f(&mut stack.borrow_mut(), sim, &mut charge);
    cpu.borrow_mut().finish(charge);
    r
}

/// Runs one `len`-byte transfer segmented at `seg` and returns the
/// A-side wire log; `gso` selects the super-descriptor path or the
/// equivalent per-datagram sends.
fn gso_wire_log(len: usize, seg: usize, data: &Rc<Vec<u8>>, gso: bool) -> Vec<Vec<u8>> {
    let (mut sim, a, b, log) = stack_pair();
    let sa = with_charge(&mut sim, &a, |s, _, _| s.socket_udp());
    let sb = with_charge(&mut sim, &b, |s, _, _| s.socket_udp());
    with_charge(&mut sim, &a, |s, _, _| {
        s.bind(sa, InetAddr::new(A_IP, 4000)).expect("bind a");
        s.connect_udp(sa, InetAddr::new(B_IP, 5000))
            .expect("connect")
    });
    with_charge(&mut sim, &b, |s, _, _| {
        s.bind(sb, InetAddr::new(B_IP, 5000)).expect("bind b")
    });
    if gso {
        with_charge(&mut sim, &a, |s, sim, ch| {
            s.udp_send_gso(sim, ch, sa, data, seg, None)
                .expect("gso send")
        });
    } else {
        with_charge(&mut sim, &a, |s, sim, ch| {
            let mut off = 0;
            while off < len {
                let n = seg.min(len - off);
                s.udp_send(sim, ch, sa, &data[off..off + n], None)
                    .expect("plain send");
                off += n;
            }
        });
    }
    sim.run_to_idle();
    let frames = log.borrow().clone();
    frames
}

#[test]
fn gso_wire_frames_are_byte_identical_to_per_datagram_sends() {
    let mut rng = Rng::new(0x650);
    let data: Rc<Vec<u8>> = Rc::new((0..3000).map(|_| rng.next_u64() as u8).collect());
    let gso = gso_wire_log(data.len(), 700, &data, true);
    let plain = gso_wire_log(data.len(), 700, &data, false);
    assert_eq!(gso.len(), plain.len(), "wire frame counts differ");
    // 3000 / 700 → four full segments and a 200-byte tail, plus ARP.
    assert!(gso.len() >= 5, "segmentation produced too few frames");
    for (i, (g, p)) in gso.iter().zip(&plain).enumerate() {
        assert_eq!(g, p, "wire frame {i} differs between GSO and per-datagram");
    }
}

#[test]
fn gso_byte_identity_holds_under_fuzz() {
    cases(0x650F, 40, |rng| {
        let len = rng.range(1, 4001) as usize;
        let seg = rng.range(1, 901) as usize;
        let fill = rng.next_u64() as u8;
        let data = Rc::new(vec![fill; len]);
        let gso = gso_wire_log(len, seg, &data, true);
        let plain = gso_wire_log(len, seg, &data, false);
        assert_eq!(
            gso.len(),
            plain.len(),
            "len={len} seg={seg}: frame counts differ"
        );
        for (i, (g, p)) in gso.iter().zip(&plain).enumerate() {
            assert_eq!(g, p, "len={len} seg={seg}: frame {i} differs");
        }
        // Vacuity: the case really segmented when len > seg.
        if len > seg {
            assert!(gso.len() > 1, "len={len} seg={seg}: no segmentation");
        }
    });
}
