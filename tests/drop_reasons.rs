//! Completeness of the drop-reason taxonomy: every way a frame can
//! leave the receive path must surface as a typed `DropReason` (or an
//! explicit absorption) in both the always-on stats counters and the
//! tracer — never as a silent disappearance.
//!
//! Adversarial frames are injected raw onto the wire of an in-kernel
//! testbed, one scenario per reason; a seeded fuzz run then sprays
//! randomized frames (fragments, runts, strays, ARP) and uses the
//! trace invariant checker as the no-silent-drop oracle.

mod common;

use psd::kernel::{Kernel, RxMode};
use psd::netdev::Ethernet;
use psd::sim::{
    CostModel, Cpu, DropReason, Observable, Observers, Platform, Rng, Sim, SimTime, TraceHandle,
    Tracer,
};
use psd::systems::{SystemConfig, TestBed};
use psd::wire::{
    EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, TcpFlags, TcpHeader, UdpHeader,
    UDP_HDR_LEN,
};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const SRC_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const HOST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// An in-kernel testbed with a tracer attached; frames injected onto
/// its wire land in host 1's in-kernel stack.
fn traced_bed(seed: u64) -> (TestBed, TraceHandle) {
    let mut bed = TestBed::new(
        SystemConfig::Mach25InKernel,
        Platform::DecStation5000_200,
        seed,
    );
    let tracer = bed.attach_tracer();
    (bed, tracer)
}

fn inject(bed: &mut TestBed, frame: Vec<u8>) {
    let now = bed.sim.now();
    Ethernet::transmit(&bed.ether, &mut bed.sim, now, frame);
    bed.settle();
}

fn eth(ethertype: EtherType) -> Vec<u8> {
    EthernetHeader {
        dst: EtherAddr::local(2),
        src: EtherAddr::local(1),
        ethertype,
    }
    .encode()
    .to_vec()
}

/// A UDP frame to `dst` with a *correct* checksum filled in (the
/// default zero checksum means "not computed" and is never verified).
fn udp_frame(dst: (Ipv4Addr, u16), payload: &[u8]) -> Vec<u8> {
    let ip = Ipv4Header::new(SRC_IP, dst.0, IpProto::Udp, UDP_HDR_LEN + payload.len());
    let mut udp = UdpHeader::new(999, dst.1, payload.len());
    udp.checksum = udp.checksum_for(&ip, std::iter::once(payload));
    let mut f = eth(EtherType::Ipv4);
    f.extend_from_slice(&ip.encode());
    f.extend_from_slice(&udp.encode());
    f.extend_from_slice(payload);
    f
}

/// Asserts that `reason` was counted at least once by the tracer AND
/// by host 1's always-on stack counters (satellite: the two surfaces
/// must agree on existence, not just one of them).
fn assert_stack_drop(bed: &TestBed, tracer: &TraceHandle, reason: DropReason) {
    assert!(
        tracer.borrow().drops().get(reason) >= 1,
        "tracer missed {reason:?}"
    );
    let stack = bed.hosts[1].kern_stack.as_ref().expect("in-kernel stack");
    assert!(
        stack.borrow().stats.drops.get(reason) >= 1,
        "stack stats missed {reason:?}"
    );
}

fn assert_clean(tracer: &TraceHandle) {
    let t = tracer.borrow();
    let violations = t.check_invariants();
    assert!(violations.is_empty(), "{violations:?}");
    let (d, a, r) = t.terminal_counts();
    assert_eq!(d + a + r, t.packet_count() as u64, "silent drop detected");
}

#[test]
fn unsupported_ethertype_is_counted() {
    let (mut bed, tracer) = traced_bed(61);
    let mut f = eth(EtherType::Other(0x86DD));
    f.extend_from_slice(&[0u8; 40]);
    inject(&mut bed, f);
    assert_stack_drop(&bed, &tracer, DropReason::UnsupportedEtherType);
    assert_clean(&tracer);
}

#[test]
fn garbage_ip_payload_is_a_checksum_error() {
    let (mut bed, tracer) = traced_bed(62);
    // Ethernet header parses; the "IPv4 header" behind it is noise.
    let mut f = eth(EtherType::Ipv4);
    f.extend_from_slice(&[0xA5u8; 10]);
    inject(&mut bed, f);
    assert_stack_drop(&bed, &tracer, DropReason::ChecksumError);
    assert_clean(&tracer);
}

#[test]
fn corrupted_udp_checksum_is_counted() {
    let (mut bed, tracer) = traced_bed(63);
    let mut f = udp_frame((HOST_IP, 4321), &[1, 2, 3, 4]);
    let last = f.len() - 1;
    f[last] ^= 0xFF; // flip a payload byte under a now-stale checksum
    inject(&mut bed, f);
    assert_stack_drop(&bed, &tracer, DropReason::ChecksumError);
    assert_clean(&tracer);
}

#[test]
fn truncated_udp_payload_is_counted() {
    let (mut bed, tracer) = traced_bed(64);
    // The UDP length field promises more bytes than the frame carries.
    let ip = Ipv4Header::new(SRC_IP, HOST_IP, IpProto::Udp, UDP_HDR_LEN + 4);
    let udp = UdpHeader::new(999, 4321, 64);
    let mut f = eth(EtherType::Ipv4);
    f.extend_from_slice(&ip.encode());
    f.extend_from_slice(&udp.encode());
    f.extend_from_slice(&[0u8; 4]);
    inject(&mut bed, f);
    assert_stack_drop(&bed, &tracer, DropReason::TruncatedPayload);
    assert_clean(&tracer);
}

#[test]
fn unsupported_transport_protocol_is_counted() {
    let (mut bed, tracer) = traced_bed(65);
    let ip = Ipv4Header::new(SRC_IP, HOST_IP, IpProto::Other(89), 8);
    let mut f = eth(EtherType::Ipv4);
    f.extend_from_slice(&ip.encode());
    f.extend_from_slice(&[0u8; 8]);
    inject(&mut bed, f);
    assert_stack_drop(&bed, &tracer, DropReason::UnsupportedProtocol);
    assert_clean(&tracer);
}

#[test]
fn datagram_for_another_host_is_counted() {
    // Only library stacks police the destination address (the kernel
    // and server placements trust the filter), so drive one directly.
    let mut sim = Sim::new(1);
    let cpu = Rc::new(RefCell::new(Cpu::new()));
    let tracer = Tracer::shared();
    cpu.borrow_mut().set_observers(Observers {
        trace: Some(tracer.clone()),
        ..Observers::default()
    });
    let stack = psd::netstack::NetStack::new(
        psd::netstack::Placement::Library,
        CostModel::decstation_5000_200(),
        cpu.clone(),
        HOST_IP,
    );
    // Right MAC, wrong IP: a confused bridge, not our datagram. With
    // no wire in the loop, open the packet's trace by hand as the NIC
    // would have.
    let f = udp_frame((Ipv4Addr::new(10, 0, 0, 9), 4321), &[0u8; 8]);
    let pkt = tracer.borrow_mut().begin_packet(SimTime::ZERO, None);
    tracer.borrow_mut().push_current(pkt);
    let mut charge = cpu.borrow_mut().begin(SimTime::ZERO);
    stack.borrow_mut().input_frame(&mut sim, &mut charge, &f);
    cpu.borrow_mut().finish(charge);
    tracer.borrow_mut().pop_current();
    sim.run_to_idle();
    assert_eq!(tracer.borrow().drops().get(DropReason::NotForHost), 1);
    assert_eq!(
        stack.borrow().stats.drops.get(DropReason::NotForHost),
        1,
        "stack stats missed NotForHost"
    );
    assert_clean(&tracer);
}

#[test]
fn udp_to_unbound_port_is_port_unreachable() {
    let (mut bed, tracer) = traced_bed(67);
    let f = udp_frame((HOST_IP, 4321), &[0u8; 8]);
    inject(&mut bed, f);
    assert_stack_drop(&bed, &tracer, DropReason::PortUnreachable);
    assert_clean(&tracer);
}

#[test]
fn tcp_syn_to_closed_port_is_connection_refused() {
    let (mut bed, tracer) = traced_bed(68);
    let ip = Ipv4Header::new(SRC_IP, HOST_IP, IpProto::Tcp, 20);
    let tcp = TcpHeader {
        src_port: 999,
        dst_port: 4321,
        seq: 100,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 4096,
        urgent: 0,
        mss: None,
    };
    let mut f = eth(EtherType::Ipv4);
    f.extend_from_slice(&ip.encode());
    let at = f.len();
    f.resize(at + tcp.header_len(), 0);
    tcp.encode_with_checksum(&ip, &mut f[at..], 0, std::iter::empty());
    inject(&mut bed, f);
    assert_stack_drop(&bed, &tracer, DropReason::ConnectionRefused);
    assert_clean(&tracer);
}

#[test]
fn arp_and_held_fragments_absorb_instead_of_dropping() {
    let (mut bed, tracer) = traced_bed(69);
    let arp = psd::wire::ArpPacket::request(EtherAddr::local(1), SRC_IP, HOST_IP);
    let mut f = eth(EtherType::Arp);
    f.extend_from_slice(&arp.encode());
    inject(&mut bed, f);

    // First fragment of a datagram whose tail never arrives: held for
    // reassembly, which is an absorption, not a drop.
    let mut ip = Ipv4Header::new(SRC_IP, HOST_IP, IpProto::Udp, 24);
    ip.more_fragments = true;
    let mut frag = eth(EtherType::Ipv4);
    frag.extend_from_slice(&ip.encode());
    frag.extend_from_slice(&[0u8; 24]);
    inject(&mut bed, frag);

    let t = tracer.borrow();
    let (_, absorbed, _) = t.terminal_counts();
    assert!(
        absorbed >= 2,
        "ARP and a held fragment must both absorb, got {absorbed}"
    );
    assert_eq!(t.drops().get(DropReason::MalformedFrame), 0);
    drop(t);
    assert_clean(&tracer);
}

/// A frame the session filter rejects on a kernel with no default
/// endpoint: the one kernel-domain drop an application can cause from
/// the wire.
#[test]
fn filter_miss_without_default_endpoint_is_counted() {
    let mut sim = Sim::new(1);
    let ether = Ethernet::ten_megabit(&mut sim);
    let cpu = Rc::new(RefCell::new(Cpu::new()));
    let tracer = Tracer::shared();
    let traced = Observers {
        trace: Some(tracer.clone()),
        ..Observers::default()
    };
    cpu.borrow_mut().set_observers(traced.clone());
    ether.borrow_mut().set_observers(traced);
    let kernel = Kernel::new(CostModel::decstation_5000_200(), cpu, EtherAddr::local(2));
    Kernel::connect(&kernel, &ether);

    let f = udp_frame((HOST_IP, 7777), &[0u8; 8]);
    Ethernet::transmit(&ether, &mut sim, SimTime::ZERO, f);
    sim.run_to_idle();

    assert_eq!(kernel.borrow().stats().drops.get(DropReason::FilterMiss), 1);
    assert_eq!(tracer.borrow().drops().get(DropReason::FilterMiss), 1);
    assert_clean(&tracer);
}

/// As above but with an endpoint that is destroyed while frames are
/// still in flight: the kernel must type those as `EndpointDead`.
#[test]
fn destroyed_endpoint_is_counted_dead() {
    let mut sim = Sim::new(1);
    let ether = Ethernet::ten_megabit(&mut sim);
    let cpu = Rc::new(RefCell::new(Cpu::new()));
    let tracer = Tracer::shared();
    let traced = Observers {
        trace: Some(tracer.clone()),
        ..Observers::default()
    };
    cpu.borrow_mut().set_observers(traced.clone());
    ether.borrow_mut().set_observers(traced);
    let kernel = Kernel::new(CostModel::decstation_5000_200(), cpu, EtherAddr::local(2));
    Kernel::connect(&kernel, &ether);

    let sink: psd::kernel::PacketSink =
        Rc::new(RefCell::new(|_: &mut Sim, _: SimTime, _: Vec<u8>| {}));
    let ep = kernel.borrow_mut().create_endpoint(RxMode::Ipc, sink);
    // Two session filters on one endpoint: teardown unhooks the most
    // recent install, leaving the first targeting a dead endpoint —
    // exactly the in-flight window `EndpointDead` names.
    kernel
        .borrow_mut()
        .install_filter(
            psd::filter::EndpointSpec::unconnected(IpProto::Udp, HOST_IP, 7777),
            ep,
        )
        .unwrap();
    kernel
        .borrow_mut()
        .install_filter(
            psd::filter::EndpointSpec::unconnected(IpProto::Udp, HOST_IP, 8888),
            ep,
        )
        .unwrap();
    let f = udp_frame((HOST_IP, 7777), &[0u8; 8]);
    Ethernet::transmit(&ether, &mut sim, SimTime::ZERO, f);
    // Destroy the endpoint before the NIC interrupt fires.
    kernel.borrow_mut().destroy_endpoint(ep);
    sim.run_to_idle();

    assert_eq!(
        kernel.borrow().stats().drops.get(DropReason::EndpointDead),
        1
    );
    assert_eq!(tracer.borrow().drops().get(DropReason::EndpointDead), 1);
    assert_clean(&tracer);
}

/// Deterministic fuzz: spray randomized adversarial frames (strays,
/// fragments, truncations, ARP, garbage) at a live in-kernel host and
/// require that every single one reaches a typed terminal — the
/// no-silent-drop property the taxonomy exists to guarantee.
#[test]
fn fuzzed_frames_never_drop_silently() {
    let (mut bed, tracer) = traced_bed(70);
    let mut rng = Rng::new(0xD20F_FA11);
    for _ in 0..250 {
        let frame = if rng.chance(0.05) {
            let arp = psd::wire::ArpPacket::request(EtherAddr::local(1), SRC_IP, HOST_IP);
            let mut f = eth(EtherType::Arp);
            f.extend_from_slice(&arp.encode());
            f
        } else if rng.chance(0.05) {
            let mut f = eth(EtherType::Other(rng.range(0x0900, 0xFFFF) as u16));
            f.extend_from_slice(&vec![0u8; rng.below(40) as usize]);
            f
        } else {
            let tcp = rng.chance(0.3);
            let dst_ip = if rng.chance(0.85) {
                HOST_IP
            } else {
                Ipv4Addr::new(10, 0, 0, 9)
            };
            let dst_port = rng.range(1, 9999) as u16;
            let mut f = if tcp {
                let ip = Ipv4Header::new(SRC_IP, dst_ip, IpProto::Tcp, 20);
                let hdr = TcpHeader {
                    src_port: rng.range(1, 9999) as u16,
                    dst_port,
                    seq: rng.next_u64() as u32,
                    ack: 0,
                    flags: if rng.chance(0.5) {
                        TcpFlags::SYN
                    } else {
                        TcpFlags::ACK
                    },
                    window: 1024,
                    urgent: 0,
                    mss: None,
                };
                let mut f = eth(EtherType::Ipv4);
                f.extend_from_slice(&ip.encode());
                let at = f.len();
                f.resize(at + hdr.header_len(), 0);
                hdr.encode(&mut f[at..]);
                f
            } else {
                let payload = vec![rng.next_u64() as u8; rng.below(64) as usize];
                let mut ip =
                    Ipv4Header::new(SRC_IP, dst_ip, IpProto::Udp, UDP_HDR_LEN + payload.len());
                if rng.chance(0.1) {
                    ip.frag_offset = rng.range(1, 50) as u16 * 8;
                    ip.more_fragments = rng.chance(0.5);
                }
                let mut udp = UdpHeader::new(rng.range(1, 9999) as u16, dst_port, payload.len());
                if rng.chance(0.5) {
                    udp.checksum = udp.checksum_for(&ip, std::iter::once(&payload[..]));
                }
                let mut f = eth(EtherType::Ipv4);
                f.extend_from_slice(&ip.encode());
                f.extend_from_slice(&udp.encode());
                f.extend_from_slice(&payload);
                f
            };
            // Occasionally shear the frame, never below the Ethernet
            // header (true runts can't leave the simulated wire).
            if rng.chance(0.1) {
                let min = psd::wire::ETHER_HDR_LEN;
                let cut = min + rng.below((f.len() - min + 1) as u64) as usize;
                f.truncate(cut);
            }
            f
        };
        inject(&mut bed, frame);
    }
    bed.settle();
    assert_clean(&tracer);
    let t = tracer.borrow();
    let drops = t.drops();
    assert!(
        drops.total() > 0,
        "an adversarial spray must produce typed drops"
    );
    // The spray must exercise a spread of the taxonomy, not one bin.
    let distinct = DropReason::ALL
        .iter()
        .filter(|&&r| drops.get(r) > 0)
        .count();
    assert!(distinct >= 3, "only {distinct} distinct drop reasons hit");
}
