//! Wire formats: Ethernet II, ARP, IPv4, ICMP, UDP and TCP headers, and
//! the Internet checksum.
//!
//! Every packet that crosses the simulated Ethernet is a real byte
//! buffer produced and consumed by these codecs, so the packet filter
//! really demultiplexes on header bytes and the protocol stacks really
//! verify checksums — exactly the work the paper's Table 4 prices.

pub(crate) mod arp;
pub(crate) mod checksum;
pub(crate) mod ether;
pub mod icmp;
pub(crate) mod ipv4;
pub(crate) mod tcp;
pub(crate) mod udp;

pub use arp::{ArpOp, ArpPacket};
pub use checksum::{internet_checksum, Checksum};
pub use ether::{EtherAddr, EtherType, EthernetHeader, ETHER_HDR_LEN};
pub use icmp::{IcmpMessage, IcmpType};
pub use ipv4::{IpProto, Ipv4Header, IPV4_HDR_LEN};
pub use tcp::{TcpFlags, TcpHeader, TCP_HDR_LEN};
pub use udp::{UdpHeader, UDP_HDR_LEN};

use std::fmt;

/// Errors produced when parsing a wire format.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A length field disagrees with the buffer.
    BadLength,
    /// A version or fixed-constant field has the wrong value.
    BadVersion,
    /// The checksum does not verify.
    BadChecksum,
    /// An unsupported or malformed option/field.
    BadField,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireError::Truncated => "truncated packet",
            WireError::BadLength => "inconsistent length field",
            WireError::BadVersion => "bad version/constant field",
            WireError::BadChecksum => "checksum mismatch",
            WireError::BadField => "malformed field",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

pub(crate) fn be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

pub(crate) fn be32(b: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

pub(crate) fn put16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

pub(crate) fn put32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_be_bytes());
}
