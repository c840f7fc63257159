//! The property suite, driven by the simulator's own deterministic
//! [`psd::sim::Rng`] so it runs in tier-1 with no external crates.
//! Fixed seeds, reproducible counterexamples: every failure message
//! carries the case seed.

use psd::filter::{Binop, DemuxStrategy, DemuxTable, EndpointSpec, Insn, Program};
use psd::mbuf::MbufChain;
use psd::sim::Rng;
use psd::wire::{
    internet_checksum, ArpPacket, Checksum, EtherAddr, IcmpMessage, IpProto, Ipv4Header, TcpFlags,
    TcpHeader, UdpHeader,
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

fn rand_bytes(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u8> {
    let mut v = vec![0u8; rng.range(lo as u64, hi as u64) as usize];
    rng.fill_bytes(&mut v);
    v
}

fn rand_ip(rng: &mut Rng) -> Ipv4Addr {
    Ipv4Addr::from(rng.next_u32())
}

#[test]
fn checksum_is_segmentation_invariant() {
    cases(0x5eed_0001, 128, |rng| {
        let data = rand_bytes(rng, 0, 511);
        let whole = internet_checksum(&data);
        let mut c = Checksum::new();
        let mut points: Vec<usize> = (0..rng.below(6))
            .map(|_| rng.below(data.len() as u64 + 1) as usize)
            .collect();
        points.sort_unstable();
        let mut prev = 0;
        for p in points {
            c.add_bytes(&data[prev..p]);
            prev = p;
        }
        c.add_bytes(&data[prev..]);
        assert_eq!(c.finish(), whole);
    });
}

#[test]
fn checksum_verifies_own_output() {
    cases(0x5eed_0002, 128, |rng| {
        let mut buf = rand_bytes(rng, 2, 255);
        if buf.len() % 2 == 1 {
            buf.push(0);
        }
        let ck = internet_checksum(&buf);
        buf.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(internet_checksum(&buf), 0);
    });
}

#[test]
fn ipv4_header_roundtrips() {
    cases(0x5eed_0003, 128, |rng| {
        let len = rng.below(1480) as usize;
        let mut h = Ipv4Header::new(
            rand_ip(rng),
            rand_ip(rng),
            IpProto::from_u8(rng.below(256) as u8),
            len,
        );
        h.ident = rng.next_u32() as u16;
        h.dont_fragment = rng.chance(0.5);
        h.more_fragments = rng.chance(0.5);
        h.frag_offset = (rng.below(1600) as u16) & !7;
        let mut bytes = h.encode().to_vec();
        bytes.resize(20 + len, 0);
        let parsed = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
    });
}

#[test]
fn tcp_header_roundtrips() {
    cases(0x5eed_0004, 128, |rng| {
        let h = TcpHeader {
            src_port: rng.next_u32() as u16,
            dst_port: rng.next_u32() as u16,
            seq: rng.next_u32(),
            ack: rng.next_u32(),
            flags: TcpFlags(rng.below(64) as u8),
            window: rng.next_u32() as u16,
            urgent: rng.next_u32() as u16,
            mss: rng.chance(0.5).then(|| rng.next_u32() as u16),
        };
        let mut bytes = [0u8; 24];
        h.encode(&mut bytes);
        let (parsed, len) = TcpHeader::parse(&bytes[..h.header_len()]).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(len, h.header_len());
    });
}

#[test]
fn udp_header_roundtrips() {
    cases(0x5eed_0005, 128, |rng| {
        let h = UdpHeader::new(
            rng.next_u32() as u16,
            rng.next_u32() as u16,
            rng.below(2000) as usize,
        );
        let parsed = UdpHeader::parse(&h.encode()).unwrap();
        assert_eq!(parsed, h);
    });
}

#[test]
fn arp_roundtrips() {
    cases(0x5eed_0006, 128, |rng| {
        let mut smac = [0u8; 6];
        rng.fill_bytes(&mut smac);
        let p = ArpPacket::request(EtherAddr(smac), rand_ip(rng), rand_ip(rng));
        assert_eq!(ArpPacket::parse(&p.encode()).unwrap(), p);
        let r = p.reply_to(EtherAddr::local(9));
        assert_eq!(ArpPacket::parse(&r.encode()).unwrap(), r);
    });
}

#[test]
fn icmp_roundtrips() {
    cases(0x5eed_0007, 128, |rng| {
        let m = IcmpMessage::echo_request(
            rng.next_u32() as u16,
            rng.next_u32() as u16,
            rand_bytes(rng, 0, 127),
        );
        assert_eq!(IcmpMessage::parse(&m.encode()).unwrap(), m);
    });
}

#[test]
fn header_parsers_never_panic_on_garbage() {
    cases(0x5eed_0008, 256, |rng| {
        let bytes = rand_bytes(rng, 0, 127);
        let _ = Ipv4Header::parse(&bytes);
        let _ = TcpHeader::parse(&bytes);
        let _ = UdpHeader::parse(&bytes);
        let _ = ArpPacket::parse(&bytes);
        let _ = IcmpMessage::parse(&bytes);
        let _ = psd::wire::EthernetHeader::parse(&bytes);
    });
}

#[test]
fn filter_vm_is_memory_safe() {
    cases(0x5eed_0009, 256, |rng| {
        let insns: Vec<Insn> = (0..rng.below(64))
            .map(|_| match rng.below(8) {
                0 => Insn::PushLit(rng.next_u32() as u16),
                1 => Insn::PushWord(rng.below(200) as u16),
                2 => Insn::Op(Binop::Eq),
                3 => Insn::Op(Binop::And),
                4 => Insn::Op(Binop::Add),
                5 => Insn::CombineOr(Binop::Eq),
                6 => Insn::CombineAnd(Binop::Le),
                _ => Insn::Ret,
            })
            .collect();
        let packet = rand_bytes(rng, 0, 127);
        // Arbitrary programs on arbitrary packets: must terminate, never
        // panic, never read out of bounds (checked by construction).
        let out = Program::new(insns).run(&packet);
        assert!(out.steps <= psd::filter::MAX_STEPS + 1);
    });
}

#[test]
fn demux_strategies_agree() {
    cases(0x5eed_000a, 128, |rng| {
        let mut cspf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
        let mut mpf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Mpf);
        for i in 0..rng.range(1, 9) as usize {
            let proto = if rng.chance(0.5) {
                IpProto::Tcp
            } else {
                IpProto::Udp
            };
            let local_ip = Ipv4Addr::new(10, 0, 0, rng.range(1, 4) as u8);
            let lport = rng.range(1000, 1009) as u16;
            let spec = if rng.chance(0.5) {
                EndpointSpec::connected(
                    proto,
                    local_ip,
                    lport,
                    Ipv4Addr::new(10, 0, 0, rng.range(1, 4) as u8),
                    rng.range(2000, 2009) as u16,
                )
            } else {
                EndpointSpec::unconnected(proto, local_ip, lport)
            };
            // Skip duplicate specs: match order among exact duplicates
            // is an implementation detail.
            if cspf.classify(&frame_for(&spec)).owner.is_none() {
                cspf.install(spec, i);
                mpf.install(spec, i);
            }
        }
        for _ in 0..rng.range(1, 19) {
            let frame = udp_or_tcp_frame(
                rng.chance(0.5),
                (
                    Ipv4Addr::new(10, 0, 0, rng.range(1, 5) as u8),
                    rng.range(2000, 2011) as u16,
                ),
                (
                    Ipv4Addr::new(10, 0, 0, rng.range(1, 4) as u8),
                    rng.range(1000, 1011) as u16,
                ),
            );
            let a = cspf.classify(&frame);
            let b = mpf.classify(&frame);
            assert_eq!(a.owner.map(|o| o.1), b.owner.map(|o| o.1));
        }
    });
}

#[derive(Debug, Clone)]
enum MbufOp {
    Append(Vec<u8>),
    TrimFront(usize),
    TrimBack(usize),
    CopyRange(usize, usize),
    Prepend(Vec<u8>),
}

#[test]
fn mbuf_chain_behaves_like_vec() {
    cases(0x5eed_000b, 128, |rng| {
        let ops: Vec<MbufOp> = (0..rng.below(24))
            .map(|_| match rng.below(5) {
                0 => MbufOp::Append(rand_bytes(rng, 0, 599)),
                1 => MbufOp::TrimFront(rng.next_u32() as u16 as usize),
                2 => MbufOp::TrimBack(rng.next_u32() as u16 as usize),
                3 => MbufOp::CopyRange(
                    rng.next_u32() as u16 as usize,
                    rng.next_u32() as u16 as usize,
                ),
                _ => MbufOp::Prepend(rand_bytes(rng, 1, 39)),
            })
            .collect();
        let mut chain = MbufChain::new();
        let mut model: Vec<u8> = Vec::new();
        for op in ops {
            match op {
                MbufOp::Append(data) => {
                    chain.append_slice(&data);
                    model.extend_from_slice(&data);
                }
                MbufOp::TrimFront(n) => {
                    let n = n % (model.len() + 1);
                    chain.trim_front(n);
                    model.drain(..n);
                }
                MbufOp::TrimBack(n) => {
                    let n = n % (model.len() + 1);
                    chain.trim_back(n);
                    model.truncate(model.len() - n);
                }
                MbufOp::CopyRange(off, len) => {
                    let off = off % (model.len() + 1);
                    let len = len % (model.len() - off + 1);
                    let (copy, _) = chain.copy_range(off, len);
                    let copied = copy.to_vec();
                    assert_eq!(&copied[..], &model[off..off + len]);
                }
                MbufOp::Prepend(hdr) => {
                    chain.prepend(&hdr);
                    let mut m = hdr.clone();
                    m.extend_from_slice(&model);
                    model = m;
                }
            }
            assert_eq!(chain.len(), model.len());
            let bytes = chain.to_vec();
            assert_eq!(&bytes[..], model.as_slice());
        }
    });
}

#[test]
fn ip_reassembly_from_random_fragment_order() {
    cases(0x5eed_000c, 64, |rng| {
        use psd::netstack::ip::{fragment, Reassembler};
        let len = rng.range(1600, 5999) as usize;
        let mtu = [576usize, 1006, 1500][rng.below(3) as usize];
        let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        let mut hdr = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            len,
        );
        hdr.ident = rng.next_u32() as u16;
        let mut frags = fragment(&hdr, &payload, mtu);
        for i in (1..frags.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            frags.swap(i, j);
        }
        let mut r = Reassembler::new();
        let mut done = None;
        for (fh, data) in &frags {
            if let Some(d) = r.insert(fh, data, psd::sim::SimTime::ZERO) {
                done = Some(d);
            }
        }
        let (_, got) = done.expect("all fragments inserted");
        assert_eq!(got, payload);
    });
}

/// Whole-system property: a TCP transfer through the decomposed
/// architecture delivers its bytes exactly once, in order, whatever
/// the wire does (loss, duplication, reordering within bounds). Three
/// deterministic fault mixes stand in for the proptest original's
/// random sampling.
#[test]
fn tcp_delivery_is_exactly_once_in_order_under_faults() {
    cases(0x5eed_000d, 3, |rng| {
        use psd::core::{AppLib, Fd, FdEventFn};
        use psd::netstack::{InetAddr, SockEvent};
        use psd::server::Proto;
        use psd::sim::{Platform, SimTime};
        use psd::systems::{SystemConfig, TestBed};
        use std::cell::RefCell;
        use std::rc::Rc;

        let seed = rng.next_u64();
        let loss = rng.f64() * 0.12;
        let dup = rng.f64() * 0.08;
        let reorder = rng.f64() * 0.08;
        let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, seed);
        bed.arm_wire_faults(seed, loss, dup, reorder);
        let rx_app = bed.hosts[1].spawn_app();
        let received: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let lfd = AppLib::socket(&rx_app, &mut bed.sim, Proto::Tcp);
        AppLib::bind(&rx_app, &mut bed.sim, lfd, 80).unwrap();
        AppLib::listen(&rx_app, &mut bed.sim, lfd, 2).unwrap();
        {
            let app = rx_app.clone();
            let rec = received.clone();
            let conn_app = rx_app.clone();
            let conn: FdEventFn = Rc::new(RefCell::new(
                move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
                    if matches!(ev, SockEvent::Readable | SockEvent::PeerClosed) {
                        let mut buf = [0u8; 8192];
                        while let Ok(n) = AppLib::recv(&conn_app, sim, fd, &mut buf) {
                            if n == 0 {
                                break;
                            }
                            rec.borrow_mut().extend_from_slice(&buf[..n]);
                        }
                    }
                },
            ));
            let listen: FdEventFn = Rc::new(RefCell::new(
                move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
                    if ev == SockEvent::Readable {
                        while let Ok(c) = AppLib::accept(&app, sim, fd) {
                            app.borrow_mut().set_event_handler(c, conn.clone());
                        }
                    }
                },
            ));
            rx_app.borrow_mut().set_event_handler(lfd, listen);
        }

        let tx_app = bed.hosts[0].spawn_app();
        let total = 24 * 1024usize;
        let pattern: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let sent = Rc::new(RefCell::new(0usize));
        let cfd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Tcp);
        {
            let app = tx_app.clone();
            let sent = sent.clone();
            let data = pattern.clone();
            let h: FdEventFn = Rc::new(RefCell::new(
                move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
                    if matches!(ev, SockEvent::Connected | SockEvent::Writable) {
                        loop {
                            let off = *sent.borrow();
                            if off >= data.len() {
                                break;
                            }
                            match AppLib::send(&app, sim, fd, &data[off..]) {
                                Ok(n) => *sent.borrow_mut() += n,
                                Err(_) => break,
                            }
                        }
                    }
                },
            ));
            tx_app.borrow_mut().set_event_handler(cfd, h);
        }
        let dst = InetAddr::new(bed.hosts[1].ip, 80);
        AppLib::connect(&tx_app, &mut bed.sim, cfd, dst).unwrap();

        // Drive with periodic nudges: the sender's Writable events plus
        // TCP's own timers must recover from anything the wire does.
        let mut guard = 0;
        while received.borrow().len() < total {
            guard += 1;
            assert!(
                guard < 6_000,
                "stalled at {} bytes",
                received.borrow().len()
            );
            let t = bed.sim.now() + SimTime::from_millis(200);
            bed.sim.run_until(t);
        }
        let got = received.borrow().clone();
        assert_eq!(&got[..], pattern.as_slice());
    });
}

fn udp_or_tcp_frame(tcp: bool, src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Vec<u8> {
    let proto = if tcp { IpProto::Tcp } else { IpProto::Udp };
    let tl = if tcp { 20 } else { 8 };
    let ip = Ipv4Header::new(src.0, dst.0, proto, tl);
    let eth = psd::wire::EthernetHeader {
        dst: EtherAddr::local(2),
        src: EtherAddr::local(1),
        ethertype: psd::wire::EtherType::Ipv4,
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

fn frame_for(spec: &EndpointSpec) -> Vec<u8> {
    let remote = spec.remote.unwrap_or((Ipv4Addr::new(10, 0, 0, 99), 4999));
    udp_or_tcp_frame(
        spec.proto == IpProto::Tcp,
        remote,
        (spec.local_ip, spec.local_port),
    )
}
