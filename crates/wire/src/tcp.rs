//! TCP header (RFC 793), with the MSS option used during connection
//! establishment.

use crate::{be16, be32, put16, put32, Checksum, Ipv4Header, WireError};
use std::fmt;

/// Length of a TCP header without options.
pub const TCP_HDR_LEN: usize = 20;

/// TCP flag bits.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: sender is finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgment field is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: the urgent pointer is valid.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// True if all bits of `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        for (bit, name) in [
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(bit) {
                names.push(name);
            }
        }
        write!(f, "[{}]", names.join("|"))
    }
}

/// A TCP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or the SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number (next expected byte) when ACK is set.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Urgent pointer (valid when URG set).
    pub urgent: u16,
    /// Maximum segment size option (SYN segments only).
    pub mss: Option<u16>,
}

impl TcpHeader {
    /// Header length in bytes including options.
    pub fn header_len(&self) -> usize {
        TCP_HDR_LEN + if self.mss.is_some() { 4 } else { 0 }
    }

    /// Encodes the header (checksum field zero) into the first
    /// [`header_len`](TcpHeader::header_len) bytes of `out`.
    pub fn encode(&self, out: &mut [u8]) {
        let len = self.header_len();
        let b = &mut out[..len];
        put16(b, 0, self.src_port);
        put16(b, 2, self.dst_port);
        put32(b, 4, self.seq);
        put32(b, 8, self.ack);
        b[12] = ((len / 4) as u8) << 4;
        b[13] = self.flags.0;
        put16(b, 14, self.window);
        put16(b, 16, 0);
        put16(b, 18, self.urgent);
        if let Some(mss) = self.mss {
            b[20] = 2; // Kind: MSS.
            b[21] = 4; // Length.
            put16(b, 22, mss);
        }
    }

    /// Encodes into the first [`header_len`](TcpHeader::header_len)
    /// bytes of `out` with the TCP checksum computed over the
    /// pseudo-header, the header and the payload segments.
    pub fn encode_with_checksum<'a>(
        &self,
        ip: &Ipv4Header,
        out: &mut [u8],
        payload_len: usize,
        payload: impl Iterator<Item = &'a [u8]>,
    ) {
        self.encode(out);
        let b = &mut out[..self.header_len()];
        let mut c: Checksum = ip.pseudo_checksum(b.len() + payload_len);
        c.add_bytes(b);
        for seg in payload {
            c.add_bytes(seg);
        }
        let ck = c.finish();
        put16(b, 16, ck);
    }

    /// Verifies the checksum of a received segment (header bytes must
    /// include options and the on-wire checksum).
    pub fn verify<'a>(
        ip: &Ipv4Header,
        header_bytes: &[u8],
        payload_len: usize,
        payload: impl Iterator<Item = &'a [u8]>,
    ) -> bool {
        let mut c: Checksum = ip.pseudo_checksum(header_bytes.len() + payload_len);
        c.add_bytes(header_bytes);
        for seg in payload {
            c.add_bytes(seg);
        }
        c.finish() == 0
    }

    /// Parses from the front of `buf`, returning the header and its
    /// length in bytes.
    pub fn parse(buf: &[u8]) -> Result<(TcpHeader, usize), WireError> {
        if buf.len() < TCP_HDR_LEN {
            return Err(WireError::Truncated);
        }
        let data_off = usize::from(buf[12] >> 4) * 4;
        if data_off < TCP_HDR_LEN || buf.len() < data_off {
            return Err(WireError::BadLength);
        }
        let mut mss = None;
        let mut i = TCP_HDR_LEN;
        while i < data_off {
            match buf[i] {
                0 => break,  // End of options.
                1 => i += 1, // NOP.
                kind => {
                    if i + 1 >= data_off {
                        return Err(WireError::BadField);
                    }
                    let optlen = usize::from(buf[i + 1]);
                    if optlen < 2 || i + optlen > data_off {
                        return Err(WireError::BadField);
                    }
                    if kind == 2 {
                        if optlen != 4 {
                            return Err(WireError::BadField);
                        }
                        mss = Some(be16(buf, i + 2));
                    }
                    i += optlen;
                }
            }
        }
        Ok((
            TcpHeader {
                src_port: be16(buf, 0),
                dst_port: be16(buf, 2),
                seq: be32(buf, 4),
                ack: be32(buf, 8),
                flags: TcpFlags(buf[13] & 0x3F),
                window: be16(buf, 14),
                urgent: be16(buf, 18),
                mss,
            },
            data_off,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpProto;
    use std::net::Ipv4Addr;

    fn base() -> TcpHeader {
        TcpHeader {
            src_port: 5000,
            dst_port: 80,
            seq: 0x11223344,
            ack: 0x55667788,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 8192,
            urgent: 0,
            mss: None,
        }
    }

    fn encoded(h: &TcpHeader) -> Vec<u8> {
        let mut b = vec![0xEE; h.header_len()];
        h.encode(&mut b);
        b
    }

    fn with_checksum(h: &TcpHeader, ip: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        let mut b = vec![0xEE; h.header_len()];
        h.encode_with_checksum(ip, &mut b, payload.len(), std::iter::once(payload));
        b
    }

    fn ip_for(transport_len: usize) -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            IpProto::Tcp,
            transport_len,
        )
    }

    #[test]
    fn roundtrip_no_options() {
        let h = base();
        let bytes = encoded(&h);
        let (parsed, len) = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(len, TCP_HDR_LEN);
    }

    #[test]
    fn roundtrip_with_mss() {
        let mut h = base();
        h.flags = TcpFlags::SYN;
        h.mss = Some(1460);
        let bytes = encoded(&h);
        let (parsed, len) = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(len, 24);
    }

    #[test]
    fn checksum_roundtrip() {
        let payload = b"segment payload bytes";
        let h = base();
        let ip = ip_for(h.header_len() + payload.len());
        let bytes = with_checksum(&h, &ip, &payload[..]);
        assert!(TcpHeader::verify(
            &ip,
            &bytes,
            payload.len(),
            std::iter::once(&payload[..])
        ));
    }

    #[test]
    fn checksum_detects_corruption() {
        let payload = b"segment payload bytes".to_vec();
        let h = base();
        let ip = ip_for(h.header_len() + payload.len());
        let bytes = with_checksum(&h, &ip, &payload[..]);
        let mut bad = payload.clone();
        bad[3] ^= 0x40;
        assert!(!TcpHeader::verify(
            &ip,
            &bytes,
            bad.len(),
            std::iter::once(&bad[..])
        ));
    }

    #[test]
    fn flags_operations() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert_eq!(format!("{:?}", f), "[SYN|ACK]");
    }

    #[test]
    fn parse_skips_nop_options() {
        let mut h = base();
        h.mss = Some(536);
        let mut bytes = encoded(&h);
        // Replace the MSS option with NOP NOP MSS? Instead: append NOPs by
        // growing data offset. Build manually: 28-byte header.
        bytes[12] = (7u8) << 4; // 28 bytes.
        bytes.truncate(20);
        bytes.extend_from_slice(&[1, 1, 2, 4, 0x02, 0x18, 0, 0]); // NOP NOP MSS=536 pad.
        let (parsed, len) = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(len, 28);
        assert_eq!(parsed.mss, Some(536));
    }

    #[test]
    fn parse_rejects_malformed_options() {
        let mut h = base();
        h.mss = Some(536);
        let mut bytes = encoded(&h);
        bytes[21] = 1; // Option length 1 is invalid.
        assert_eq!(TcpHeader::parse(&bytes), Err(WireError::BadField));
    }

    #[test]
    fn parse_rejects_short_buffers() {
        assert_eq!(TcpHeader::parse(&[0u8; 19]), Err(WireError::Truncated));
        let mut bytes = encoded(&base());
        bytes[12] = 0x30; // Data offset 12 < 20.
        assert_eq!(TcpHeader::parse(&bytes), Err(WireError::BadLength));
    }
}
