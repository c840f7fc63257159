//! IPv4 header (RFC 791), including the fragmentation fields the
//! reassembly code uses.

use crate::{be16, be32, internet_checksum, put16, put32, WireError};
use std::net::Ipv4Addr;

/// Length of an IPv4 header without options.
pub const IPV4_HDR_LEN: usize = 20;

/// The `MF` (more fragments) flag bit in `frag_off` terms.
const FLAG_MF: u16 = 0x2000;
/// The `DF` (don't fragment) flag bit.
const FLAG_DF: u16 = 0x4000;

/// Transport protocols carried by IP that the stack understands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProto {
    /// The wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// From the wire value.
    pub fn from_u8(v: u8) -> IpProto {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// A parsed IPv4 header (options are not generated; incoming options are
/// skipped but counted in `header_len`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Header length in bytes (20 without options).
    pub header_len: usize,
    /// Type of service.
    pub tos: u8,
    /// Total datagram length (header + payload).
    pub total_len: u16,
    /// Identification (for reassembly).
    pub ident: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in bytes (multiple of 8).
    pub frag_offset: u16,
    /// Time to live.
    pub(crate) ttl: u8,
    /// Carried protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Builds a header for a fresh, unfragmented datagram.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            header_len: IPV4_HDR_LEN,
            tos: 0,
            total_len: (IPV4_HDR_LEN + payload_len) as u16,
            ident: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            proto,
            src,
            dst,
        }
    }

    /// Payload length implied by the header.
    pub fn payload_len(&self) -> usize {
        usize::from(self.total_len).saturating_sub(self.header_len)
    }

    /// True if this datagram is one fragment of a larger one.
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }

    /// Encodes into 20 bytes with a correct header checksum.
    pub fn encode(&self) -> [u8; IPV4_HDR_LEN] {
        let mut b = [0u8; IPV4_HDR_LEN];
        b[0] = 0x40 | ((IPV4_HDR_LEN / 4) as u8);
        b[1] = self.tos;
        put16(&mut b, 2, self.total_len);
        put16(&mut b, 4, self.ident);
        let mut fo = self.frag_offset / 8;
        if self.more_fragments {
            fo |= FLAG_MF;
        }
        if self.dont_fragment {
            fo |= FLAG_DF;
        }
        put16(&mut b, 6, fo);
        b[8] = self.ttl;
        b[9] = self.proto.to_u8();
        put32(&mut b, 12, u32::from(self.src));
        put32(&mut b, 16, u32::from(self.dst));
        let ck = internet_checksum(&b);
        put16(&mut b, 10, ck);
        b
    }

    /// Parses and verifies the header at the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Ipv4Header, WireError> {
        if buf.len() < IPV4_HDR_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] >> 4 != 4 {
            return Err(WireError::BadVersion);
        }
        let header_len = usize::from(buf[0] & 0x0F) * 4;
        if header_len < IPV4_HDR_LEN || buf.len() < header_len {
            return Err(WireError::BadLength);
        }
        if internet_checksum(&buf[..header_len]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let total_len = be16(buf, 2);
        if usize::from(total_len) < header_len || usize::from(total_len) > buf.len() {
            return Err(WireError::BadLength);
        }
        let fo = be16(buf, 6);
        Ok(Ipv4Header {
            header_len,
            tos: buf[1],
            total_len,
            ident: be16(buf, 4),
            dont_fragment: fo & FLAG_DF != 0,
            more_fragments: fo & FLAG_MF != 0,
            frag_offset: (fo & 0x1FFF) * 8,
            ttl: buf[8],
            proto: IpProto::from_u8(buf[9]),
            src: Ipv4Addr::from(be32(buf, 12)),
            dst: Ipv4Addr::from(be32(buf, 16)),
        })
    }

    /// The pseudo-header checksum contribution used by TCP and UDP.
    pub(crate) fn pseudo_checksum(&self, transport_len: usize) -> crate::Checksum {
        let mut c = crate::Checksum::new();
        c.add_u32(u32::from(self.src));
        c.add_u32(u32::from(self.dst));
        c.add_u16(u16::from(self.proto.to_u8()));
        c.add_u16(transport_len as u16);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            100,
        )
    }

    #[test]
    fn roundtrip() {
        let h = hdr();
        let mut bytes = h.encode().to_vec();
        bytes.extend_from_slice(&[0u8; 100]);
        let parsed = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.payload_len(), 100);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut bytes = hdr().encode().to_vec();
        bytes.extend_from_slice(&[0u8; 100]);
        bytes[12] ^= 0xFF;
        assert_eq!(Ipv4Header::parse(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn fragment_flags_roundtrip() {
        let mut h = hdr();
        h.more_fragments = true;
        h.frag_offset = 1480;
        h.ident = 0x1234;
        let mut bytes = h.encode().to_vec();
        bytes.extend_from_slice(&[0u8; 100]);
        let parsed = Ipv4Header::parse(&bytes).unwrap();
        assert!(parsed.more_fragments);
        assert!(parsed.is_fragment());
        assert_eq!(parsed.frag_offset, 1480);
        assert_eq!(parsed.ident, 0x1234);
    }

    #[test]
    fn df_flag_roundtrip() {
        let mut h = hdr();
        h.dont_fragment = true;
        let mut bytes = h.encode().to_vec();
        bytes.extend_from_slice(&[0u8; 100]);
        assert!(Ipv4Header::parse(&bytes).unwrap().dont_fragment);
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = hdr().encode().to_vec();
        bytes.extend_from_slice(&[0u8; 100]);
        bytes[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&bytes), Err(WireError::BadVersion));
    }

    #[test]
    fn rejects_truncated_and_short_total_len() {
        assert_eq!(Ipv4Header::parse(&[0u8; 10]), Err(WireError::Truncated));
        let mut h = hdr();
        h.total_len = 500;
        let bytes = h.encode();
        // Buffer shorter than total_len.
        assert_eq!(Ipv4Header::parse(&bytes), Err(WireError::BadLength));
    }

    #[test]
    fn proto_mapping() {
        assert_eq!(IpProto::from_u8(6), IpProto::Tcp);
        assert_eq!(IpProto::from_u8(17), IpProto::Udp);
        assert_eq!(IpProto::Other(89).to_u8(), 89);
    }
}
