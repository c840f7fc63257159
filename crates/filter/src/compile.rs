//! Compiling endpoint specifications to filter programs.
//!
//! The operating system server installs one program per network session
//! (§3.1: "The operating system creates and installs a new packet filter
//! for each network session"). A program accepts exactly the unfragmented
//! IPv4 packets of the session's protocol addressed to the session's
//! local endpoint — and, for connected sessions, from its remote
//! endpoint. Fragmented packets and packets with IP options never match
//! a session filter; they fall through to the operating system's
//! catch-all, which owns reassembly and the exceptional cases.

use crate::vm::{Binop, Insn, Program};
use psd_wire::IpProto;
use std::net::Ipv4Addr;

/// One 16-bit field test of a session filter, `word(off) & mask ==
/// value`. [`PREFIX_FIELDS`] and [`KEY_FIELDS`] are the only description
/// of the layout: the compiler below emits its programs from them, and
/// the CSPF closed form in [`crate::demux`] reads and prices frames by them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Field {
    pub(crate) off: u16,
    pub(crate) mask: u16,
}

impl Field {
    /// Instructions in this field's compare group: 3 unmasked, 5 masked.
    pub(crate) const fn steps(self) -> usize {
        3 + 2 * (self.mask != 0xFFFF) as usize
    }

    /// The masked word of `frame`, or `None` if the read is out of bounds.
    pub(crate) fn read(self, frame: &[u8]) -> Option<u16> {
        let at = usize::from(self.off);
        Some(u16::from_be_bytes([*frame.get(at)?, *frame.get(at + 1)?]) & self.mask)
    }

    fn emit(self, insns: &mut Vec<Insn>, value: u16) {
        insns.push(Insn::PushWord(self.off));
        if self.mask != 0xFFFF {
            insns.extend([Insn::PushLit(self.mask), Insn::Op(Binop::And)]);
        }
        insns.extend([Insn::PushLit(value), Insn::CombineAnd(Binop::Eq)]);
    }
}

const fn field(off: u16, mask: u16) -> Field {
    Field { off, mask }
}

const ETHERTYPE: Field = field(12, 0xFFFF);

/// The shared prefix and the value each field must hold. Offsets are
/// bytes into the Ethernet frame; those past the IP header length byte
/// assume the 20-byte header the second test guarantees.
pub(crate) const PREFIX_FIELDS: [(Field, u16); 3] = [
    (ETHERTYPE, 0x0800),         // IPv4
    (field(14, 0xFF00), 0x4500), // version 4, IHL 5; TOS masked off
    (field(20, 0x3FFF), 0x0000), // not a fragment: MF clear, offset 0
];

/// Instructions in the shared prefix.
pub(crate) const PREFIX_STEPS: usize =
    PREFIX_FIELDS[0].0.steps() + PREFIX_FIELDS[1].0.steps() + PREFIX_FIELDS[2].0.steps();

/// The per-session fields in evaluation order. A wildcard's program
/// ends after the first [`WILDCARD_FIELDS`].
pub(crate) const KEY_FIELDS: [Field; 7] = [
    field(22, 0x00FF), // TTL/protocol word: transport protocol
    field(30, 0xFFFF), // local (destination) IP, high word
    field(32, 0xFFFF), // local IP, low word
    field(36, 0xFFFF), // local port
    field(26, 0xFFFF), // remote (source) IP, high word
    field(28, 0xFFFF), // remote IP, low word
    field(34, 0xFFFF), // remote port
];
pub(crate) const WILDCARD_FIELDS: usize = 4;

/// A spec's or frame's value for every key field (zero past a
/// wildcard's last).
pub(crate) type KeyWords = [u16; KEY_FIELDS.len()];

/// The constant-accept tail of every session filter.
const VERDICT: [Insn; 2] = [Insn::PushLit(1), Insn::Ret];

/// A network-session endpoint, the unit of packet-filter installation.
///
/// Matches the paper's session 3-tuple: protocol, local endpoint, and
/// (for connected sessions) remote endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EndpointSpec {
    /// Transport protocol (TCP or UDP).
    pub proto: IpProto,
    /// Local IP address packets must be addressed to.
    pub local_ip: Ipv4Addr,
    /// Local port packets must be addressed to.
    pub local_port: u16,
    /// Remote endpoint, present for connected sessions. A connected
    /// filter is more specific and takes precedence over a wildcard one.
    pub remote: Option<(Ipv4Addr, u16)>,
}

impl EndpointSpec {
    /// A wildcard (unconnected) endpoint.
    pub fn unconnected(proto: IpProto, local_ip: Ipv4Addr, local_port: u16) -> EndpointSpec {
        EndpointSpec {
            proto,
            local_ip,
            local_port,
            remote: None,
        }
    }

    /// A connected endpoint.
    pub fn connected(
        proto: IpProto,
        local_ip: Ipv4Addr,
        local_port: u16,
        remote_ip: Ipv4Addr,
        remote_port: u16,
    ) -> EndpointSpec {
        EndpointSpec {
            proto,
            local_ip,
            local_port,
            remote: Some((remote_ip, remote_port)),
        }
    }

    /// Specificity for match ordering: connected filters beat wildcards.
    pub fn specificity(&self) -> u8 {
        if self.remote.is_some() {
            2
        } else {
            1
        }
    }

    /// What this spec's program compares [`KEY_FIELDS`] against, and how
    /// many of them it compares.
    pub(crate) fn key(&self) -> (KeyWords, usize) {
        let halves = |ip: Ipv4Addr| ((u32::from(ip) >> 16) as u16, u32::from(ip) as u16);
        let ((lhi, llo), proto) = (halves(self.local_ip), u16::from(self.proto.to_u8()));
        match self.remote {
            None => ([proto, lhi, llo, self.local_port, 0, 0, 0], WILDCARD_FIELDS),
            Some((ip, port)) => {
                let (rhi, rlo) = halves(ip);
                (
                    [proto, lhi, llo, self.local_port, rhi, rlo, port],
                    KEY_FIELDS.len(),
                )
            }
        }
    }

    /// Instructions an accepting run of this spec's program executes.
    pub(crate) fn accept_steps(&self) -> usize {
        let fields = &KEY_FIELDS[..self.key().1];
        PREFIX_STEPS + fields.iter().map(|f| f.steps()).sum::<usize>() + VERDICT.len()
    }
}

/// The shared prefix every session filter begins with: IPv4, no options,
/// not a fragment. The MPF demux strategy runs this once per packet.
pub fn session_prefix() -> Vec<Insn> {
    let mut insns = Vec::new();
    for (field, value) in PREFIX_FIELDS {
        field.emit(&mut insns, value);
    }
    insns
}

/// Compiles an endpoint specification into a filter program.
pub fn compile_endpoint(spec: &EndpointSpec) -> Program {
    let mut insns = session_prefix();
    let (words, len) = spec.key();
    for (field, value) in KEY_FIELDS.iter().zip(&words[..len]) {
        field.emit(&mut insns, *value);
    }
    insns.extend(VERDICT);
    Program::new(insns)
}

/// The operating system's catch-all: accepts all IPv4 and ARP traffic.
/// Installed for the server, which handles ARP, fragments, ICMP and any
/// session not migrated to an application.
pub fn catch_all_ip() -> Program {
    Program::new(vec![
        Insn::PushWord(ETHERTYPE.off),
        Insn::PushLit(0x0800),
        Insn::CombineOr(Binop::Eq),
        Insn::PushWord(ETHERTYPE.off),
        Insn::PushLit(0x0806),
        Insn::CombineOr(Binop::Eq),
        Insn::PushLit(0),
        Insn::Ret,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_wire::{EtherAddr, EtherType, EthernetHeader, Ipv4Header, UdpHeader, UDP_HDR_LEN};

    fn udp_frame(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), payload: &[u8]) -> Vec<u8> {
        let ip = Ipv4Header::new(src.0, dst.0, IpProto::Udp, UDP_HDR_LEN + payload.len());
        let udp = UdpHeader::new(src.1, dst.1, payload.len());
        let eth = EthernetHeader {
            dst: EtherAddr::local(2),
            src: EtherAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        f.extend_from_slice(&udp.encode());
        f.extend_from_slice(payload);
        f
    }

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    /// The identity the CSPF closed form rests on, checked against the
    /// interpreter: a shared-prefix group failing costs 3, 8 or 13; a
    /// filter that agrees with the frame on its first `m` key fields
    /// and not the next costs 18 + 3·m; accepting costs 29 (wildcard)
    /// or 38 (connected).
    #[test]
    fn miss_after_m_shared_fields_costs_18_plus_3m() {
        let conn = EndpointSpec::connected(IpProto::Udp, B, 7000, A, 1234);
        let wild = EndpointSpec::unconnected(IpProto::Udp, B, 7000);
        let frame = udp_frame((A, 1234), (B, 7000), b"x");
        assert_eq!(PREFIX_STEPS, 13);
        assert_eq!((wild.accept_steps(), conn.accept_steps()), (29, 38));
        for spec in [wild, conn] {
            let (program, len) = (compile_endpoint(&spec), spec.key().1);
            let out = program.run(&frame);
            assert_eq!((out.accepted, out.steps), (true, spec.accept_steps()));
            for ((field, _), steps) in PREFIX_FIELDS.iter().zip([3, 8, 13]) {
                let mut f = frame.clone();
                f[usize::from(field.off)] ^= 0x10;
                assert_eq!(
                    (program.run(&f).steps, field.read(&f).is_some()),
                    (steps, true)
                );
            }
            for (m, field) in KEY_FIELDS[..len].iter().enumerate() {
                let mut f = frame.clone();
                f[usize::from(field.off) + 1] ^= 0x01;
                let out = program.run(&f);
                assert_eq!((out.accepted, out.steps), (false, 18 + 3 * m), "m = {m}");
                let cost: usize = KEY_FIELDS[..=m].iter().map(|k| k.steps()).sum();
                assert_eq!(PREFIX_STEPS + cost, 18 + 3 * m);
            }
        }
        // Every field read is in bounds from 38 bytes on, and not before.
        let reads = |f: &[u8]| KEY_FIELDS.iter().all(|k| k.read(f).is_some());
        assert!(reads(&frame[..38]) && !reads(&frame[..37]));
    }

    #[test]
    fn wildcard_matches_any_sender() {
        let p = compile_endpoint(&EndpointSpec::unconnected(IpProto::Udp, B, 7000));
        assert!(p.run(&udp_frame((A, 1234), (B, 7000), b"x")).accepted);
        assert!(p.run(&udp_frame((C, 9), (B, 7000), b"x")).accepted);
    }

    #[test]
    fn wildcard_rejects_wrong_port_or_ip() {
        let p = compile_endpoint(&EndpointSpec::unconnected(IpProto::Udp, B, 7000));
        assert!(!p.run(&udp_frame((A, 1234), (B, 7001), b"x")).accepted);
        assert!(!p.run(&udp_frame((A, 1234), (C, 7000), b"x")).accepted);
    }

    #[test]
    fn connected_matches_only_remote() {
        let p = compile_endpoint(&EndpointSpec::connected(IpProto::Udp, B, 7000, A, 1234));
        assert!(p.run(&udp_frame((A, 1234), (B, 7000), b"x")).accepted);
        assert!(!p.run(&udp_frame((A, 4321), (B, 7000), b"x")).accepted);
        assert!(!p.run(&udp_frame((C, 1234), (B, 7000), b"x")).accepted);
    }

    #[test]
    fn wrong_protocol_rejected() {
        let p = compile_endpoint(&EndpointSpec::unconnected(IpProto::Tcp, B, 7000));
        assert!(!p.run(&udp_frame((A, 1), (B, 7000), b"x")).accepted);
    }

    #[test]
    fn fragments_never_match_session_filters() {
        let mut ip = Ipv4Header::new(A, B, IpProto::Udp, 100);
        ip.more_fragments = true;
        let eth = EthernetHeader {
            dst: EtherAddr::local(2),
            src: EtherAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        f.extend_from_slice(&[0u8; 100]);
        let p = compile_endpoint(&EndpointSpec::unconnected(IpProto::Udp, B, 0));
        assert!(!p.run(&f).accepted);
        // But the catch-all takes it.
        assert!(catch_all_ip().run(&f).accepted);
    }

    #[test]
    fn catch_all_accepts_arp() {
        let eth = EthernetHeader {
            dst: EtherAddr::BROADCAST,
            src: EtherAddr::local(1),
            ethertype: EtherType::Arp,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&[0u8; 28]);
        assert!(catch_all_ip().run(&f).accepted);
    }

    #[test]
    fn catch_all_rejects_unknown_ethertype() {
        let eth = EthernetHeader {
            dst: EtherAddr::BROADCAST,
            src: EtherAddr::local(1),
            ethertype: EtherType::Other(0x1234),
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&[0u8; 28]);
        assert!(!catch_all_ip().run(&f).accepted);
    }

    #[test]
    fn short_frames_rejected_safely() {
        let p = compile_endpoint(&EndpointSpec::unconnected(IpProto::Udp, B, 7000));
        for len in 0..40 {
            let frame = vec![0u8; len];
            assert!(!p.run(&frame).accepted, "len {len}");
        }
    }

    #[test]
    fn connected_is_more_specific() {
        let wild = EndpointSpec::unconnected(IpProto::Udp, B, 1);
        let conn = EndpointSpec::connected(IpProto::Udp, B, 1, A, 2);
        assert!(conn.specificity() > wild.specificity());
    }

    #[test]
    fn tos_bits_do_not_defeat_filter() {
        // A frame with nonzero TOS must still match.
        let mut ip = Ipv4Header::new(A, B, IpProto::Udp, UDP_HDR_LEN + 1);
        ip.tos = 0x10;
        let udp = UdpHeader::new(1234, 7000, 1);
        let eth = EthernetHeader {
            dst: EtherAddr::local(2),
            src: EtherAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        f.extend_from_slice(&udp.encode());
        f.push(0);
        let p = compile_endpoint(&EndpointSpec::unconnected(IpProto::Udp, B, 7000));
        assert!(p.run(&f).accepted);
    }
}
