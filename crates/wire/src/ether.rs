//! Ethernet II framing.

use crate::{be16, put16, WireError};
use std::fmt;

/// Length of an Ethernet II header.
pub const ETHER_HDR_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EtherAddr(pub [u8; 6]);

impl EtherAddr {
    /// The broadcast address.
    pub const BROADCAST: EtherAddr = EtherAddr([0xFF; 6]);

    /// A deterministic locally-administered address derived from an id.
    pub fn local(id: u32) -> EtherAddr {
        let b = id.to_be_bytes();
        EtherAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// True if this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == EtherAddr::BROADCAST
    }
}

impl fmt::Debug for EtherAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for EtherAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            a[0], a[1], a[2], a[3], a[4], a[5]
        )
    }
}

/// Ethernet payload protocol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else (preserved verbatim).
    Other(u16),
}

impl EtherType {
    /// The wire value.
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// From the wire value.
    pub(crate) fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: EtherAddr,
    /// Source MAC.
    pub src: EtherAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Encodes into a 14-byte array.
    pub fn encode(&self) -> [u8; ETHER_HDR_LEN] {
        let mut b = [0u8; ETHER_HDR_LEN];
        b[0..6].copy_from_slice(&self.dst.0);
        b[6..12].copy_from_slice(&self.src.0);
        put16(&mut b, 12, self.ethertype.to_u16());
        b
    }

    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<EthernetHeader, WireError> {
        if buf.len() < ETHER_HDR_LEN {
            return Err(WireError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(EthernetHeader {
            dst: EtherAddr(dst),
            src: EtherAddr(src),
            ethertype: EtherType::from_u16(be16(buf, 12)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = EthernetHeader {
            dst: EtherAddr::BROADCAST,
            src: EtherAddr::local(7),
            ethertype: EtherType::Arp,
        };
        let bytes = h.encode();
        assert_eq!(EthernetHeader::parse(&bytes).unwrap(), h);
    }

    #[test]
    fn parse_truncated() {
        assert_eq!(EthernetHeader::parse(&[0u8; 13]), Err(WireError::Truncated));
    }

    #[test]
    fn ethertype_values() {
        assert_eq!(EtherType::Ipv4.to_u16(), 0x0800);
        assert_eq!(EtherType::from_u16(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_u16(0x86DD), EtherType::Other(0x86DD));
    }

    #[test]
    fn local_addrs_are_distinct_and_unicast() {
        let a = EtherAddr::local(1);
        let b = EtherAddr::local(2);
        assert_ne!(a, b);
        assert!(!a.is_broadcast());
        assert_eq!(a.0[0] & 0x01, 0, "must not be multicast");
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", EtherAddr::BROADCAST), "ff:ff:ff:ff:ff:ff");
    }
}
