//! ICMP glue: building reply datagrams for the stack.
//!
//! ICMP is exceptional-packet traffic, handled by whichever stack owns
//! the catch-all (the operating system server in the decomposed
//! configurations).

use psd_wire::icmp::UNREACH_PORT;
use psd_wire::{IcmpMessage, IcmpType, IpProto, Ipv4Header};
use std::net::Ipv4Addr;

/// Builds the `(header, payload)` of an echo reply answering `req`
/// received in `ip`.
pub(crate) fn echo_reply(ip: &Ipv4Header, req: &IcmpMessage) -> Option<(Ipv4Header, Vec<u8>)> {
    if req.kind != IcmpType::EchoRequest {
        return None;
    }
    let reply = req.echo_reply().encode();
    Some((
        Ipv4Header::new(ip.dst, ip.src, IpProto::Icmp, reply.len()),
        reply,
    ))
}

/// Builds a port-unreachable error quoting the offending datagram
/// (`ip_bytes` = the received IP header + first payload bytes).
pub(crate) fn port_unreachable(
    my_ip: Ipv4Addr,
    offender_src: Ipv4Addr,
    ip_bytes: &[u8],
) -> (Ipv4Header, Vec<u8>) {
    let msg = IcmpMessage::unreachable(UNREACH_PORT, ip_bytes).encode();
    (
        Ipv4Header::new(my_ip, offender_src, IpProto::Icmp, msg.len()),
        msg,
    )
}

/// If `msg` is a destination-unreachable quoting a UDP datagram we
/// sent, extract `(original_dst_ip, original_dst_port, original_src_port)`
/// so the error can be matched to a connected socket.
pub(crate) fn parse_unreachable_udp(msg: &IcmpMessage) -> Option<(Ipv4Addr, u16, u16)> {
    let IcmpType::DestUnreachable(_) = msg.kind else {
        return None;
    };
    let quoted = &msg.payload;
    let ip = Ipv4Header::parse(quoted).ok().or_else(|| {
        // The quote holds only header + 8 bytes, so `total_len` may
        // exceed the buffer; reparse leniently by padding.
        let mut padded = quoted.clone();
        padded.resize(1500, 0);
        Ipv4Header::parse(&padded).ok()
    })?;
    if ip.proto != IpProto::Udp {
        return None;
    }
    let tp = quoted.get(ip.header_len..)?;
    if tp.len() < 4 {
        return None;
    }
    let src_port = u16::from_be_bytes([tp[0], tp[1]]);
    let dst_port = u16::from_be_bytes([tp[2], tp[3]]);
    Some((ip.dst, dst_port, src_port))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_reply_swaps_addresses() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let req = IcmpMessage::echo_request(7, 1, b"payload".to_vec());
        let ip = Ipv4Header::new(src, dst, IpProto::Icmp, req.encode().len());
        let (rip, bytes) = echo_reply(&ip, &req).unwrap();
        assert_eq!(rip.src, dst);
        assert_eq!(rip.dst, src);
        let parsed = IcmpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.kind, IcmpType::EchoReply);
        assert_eq!(parsed.payload, b"payload");
    }

    #[test]
    fn echo_reply_ignores_non_requests() {
        let ip = Ipv4Header::new(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST, IpProto::Icmp, 8);
        let notreq = IcmpMessage::echo_request(1, 1, vec![]).echo_reply();
        assert!(echo_reply(&ip, &notreq).is_none());
    }

    #[test]
    fn unreachable_roundtrip_extracts_udp_endpoints() {
        // The original datagram we "sent".
        let orig_ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            8 + 3,
        );
        let udp = psd_wire::UdpHeader::new(5555, 7777, 3);
        let mut quoted = orig_ip.encode().to_vec();
        quoted.extend_from_slice(&udp.encode());
        quoted.extend_from_slice(b"abc");
        let (_hdr, bytes) = port_unreachable(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            &quoted,
        );
        let msg = IcmpMessage::parse(&bytes).unwrap();
        let (dst_ip, dst_port, src_port) = parse_unreachable_udp(&msg).unwrap();
        assert_eq!(dst_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(dst_port, 7777);
        assert_eq!(src_port, 5555);
    }
}
