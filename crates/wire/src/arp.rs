//! ARP for IPv4-over-Ethernet (RFC 826).
//!
//! In the paper's architecture ARP is "exceptional network packet"
//! traffic handled by the operating system server, which owns the
//! shared ARP cache; applications only consume cached entries.

use crate::{be16, put16, EtherAddr, WireError};
use std::net::Ipv4Addr;

/// Length of an IPv4-over-Ethernet ARP packet.
pub(crate) const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// An ARP packet for IPv4 over Ethernet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: EtherAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub(crate) target_mac: EtherAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// A who-has request for `target_ip`.
    pub fn request(sender_mac: EtherAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: EtherAddr::default(),
            target_ip,
        }
    }

    /// The is-at reply answering `request`.
    pub fn reply_to(&self, my_mac: EtherAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: self.target_ip,
            target_mac: self.sender_mac,
            target_ip: self.sender_ip,
        }
    }

    /// Encodes into 28 bytes.
    pub fn encode(&self) -> [u8; ARP_LEN] {
        let mut b = [0u8; ARP_LEN];
        put16(&mut b, 0, 1); // Ethernet hardware type.
        put16(&mut b, 2, 0x0800); // IPv4 protocol type.
        b[4] = 6;
        b[5] = 4;
        put16(
            &mut b,
            6,
            match self.op {
                ArpOp::Request => 1,
                ArpOp::Reply => 2,
            },
        );
        b[8..14].copy_from_slice(&self.sender_mac.0);
        b[14..18].copy_from_slice(&self.sender_ip.octets());
        b[18..24].copy_from_slice(&self.target_mac.0);
        b[24..28].copy_from_slice(&self.target_ip.octets());
        b
    }

    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<ArpPacket, WireError> {
        if buf.len() < ARP_LEN {
            return Err(WireError::Truncated);
        }
        if be16(buf, 0) != 1 || be16(buf, 2) != 0x0800 || buf[4] != 6 || buf[5] != 4 {
            return Err(WireError::BadField);
        }
        let op = match be16(buf, 6) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return Err(WireError::BadField),
        };
        let mut sender_mac = [0u8; 6];
        let mut target_mac = [0u8; 6];
        sender_mac.copy_from_slice(&buf[8..14]);
        target_mac.copy_from_slice(&buf[18..24]);
        let ip4 = |off: usize| Ipv4Addr::new(buf[off], buf[off + 1], buf[off + 2], buf[off + 3]);
        Ok(ArpPacket {
            op,
            sender_mac: EtherAddr(sender_mac),
            sender_ip: ip4(14),
            target_mac: EtherAddr(target_mac),
            target_ip: ip4(24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_roundtrip() {
        let req = ArpPacket::request(
            EtherAddr::local(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let bytes = req.encode();
        let parsed = ArpPacket::parse(&bytes).unwrap();
        assert_eq!(parsed, req);

        let reply = parsed.reply_to(EtherAddr::local(2));
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(reply.target_mac, EtherAddr::local(1));
        assert_eq!(reply.target_ip, Ipv4Addr::new(10, 0, 0, 1));
        let bytes = reply.encode();
        assert_eq!(ArpPacket::parse(&bytes).unwrap(), reply);
    }

    #[test]
    fn rejects_short_and_bad_fields() {
        assert_eq!(ArpPacket::parse(&[0u8; 27]), Err(WireError::Truncated));
        let mut bytes = ArpPacket::request(
            EtherAddr::local(1),
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
        )
        .encode();
        bytes[4] = 8; // Wrong hardware address length.
        assert_eq!(ArpPacket::parse(&bytes), Err(WireError::BadField));
        let mut bytes2 = ArpPacket::request(
            EtherAddr::local(1),
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
        )
        .encode();
        bytes2[7] = 9; // Unknown op.
        assert_eq!(ArpPacket::parse(&bytes2), Err(WireError::BadField));
    }
}
