//! A minimal ICMP (RFC 792): echo request/reply and the error messages
//! the stack generates (destination unreachable).

use crate::{be16, internet_checksum, put16, WireError};

/// ICMP message types the stack understands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Destination unreachable (3), with code.
    DestUnreachable(u8),
    /// Echo request (8).
    EchoRequest,
    /// Time exceeded (11), with code.
    TimeExceeded(u8),
    /// Anything else: (type, code).
    Other(u8, u8),
}

impl IcmpType {
    fn to_wire(self) -> (u8, u8) {
        match self {
            IcmpType::EchoReply => (0, 0),
            IcmpType::DestUnreachable(code) => (3, code),
            IcmpType::EchoRequest => (8, 0),
            IcmpType::TimeExceeded(code) => (11, code),
            IcmpType::Other(t, c) => (t, c),
        }
    }

    fn from_wire(t: u8, c: u8) -> IcmpType {
        match (t, c) {
            (0, 0) => IcmpType::EchoReply,
            (3, code) => IcmpType::DestUnreachable(code),
            (8, 0) => IcmpType::EchoRequest,
            (11, code) => IcmpType::TimeExceeded(code),
            (t, c) => IcmpType::Other(t, c),
        }
    }
}

/// Destination-unreachable code: port unreachable.
pub const UNREACH_PORT: u8 = 3;

/// A parsed ICMP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcmpMessage {
    /// Type and code.
    pub kind: IcmpType,
    /// For echo: identifier. For errors: unused.
    pub ident: u16,
    /// For echo: sequence number. For errors: unused.
    pub seq: u16,
    /// Payload (for errors: the offending IP header + 8 bytes).
    pub payload: Vec<u8>,
}

impl IcmpMessage {
    /// An echo request.
    pub fn echo_request(ident: u16, seq: u16, payload: Vec<u8>) -> IcmpMessage {
        IcmpMessage {
            kind: IcmpType::EchoRequest,
            ident,
            seq,
            payload,
        }
    }

    /// The echo reply answering this request.
    pub fn echo_reply(&self) -> IcmpMessage {
        IcmpMessage {
            kind: IcmpType::EchoReply,
            ident: self.ident,
            seq: self.seq,
            payload: self.payload.clone(),
        }
    }

    /// A destination-unreachable error quoting `original` (the offending
    /// IP header plus the first 8 payload bytes, per RFC 792).
    pub fn unreachable(code: u8, original: &[u8]) -> IcmpMessage {
        IcmpMessage {
            kind: IcmpType::DestUnreachable(code),
            ident: 0,
            seq: 0,
            payload: original[..original.len().min(28)].to_vec(),
        }
    }

    /// Encodes with a correct ICMP checksum.
    pub fn encode(&self) -> Vec<u8> {
        let (t, c) = self.kind.to_wire();
        let mut b = vec![0u8; 8 + self.payload.len()];
        b[0] = t;
        b[1] = c;
        put16(&mut b, 4, self.ident);
        put16(&mut b, 6, self.seq);
        b[8..].copy_from_slice(&self.payload);
        let ck = internet_checksum(&b);
        put16(&mut b, 2, ck);
        b
    }

    /// Parses and verifies a message.
    pub fn parse(buf: &[u8]) -> Result<IcmpMessage, WireError> {
        if buf.len() < 8 {
            return Err(WireError::Truncated);
        }
        if internet_checksum(buf) != 0 {
            return Err(WireError::BadChecksum);
        }
        Ok(IcmpMessage {
            kind: IcmpType::from_wire(buf[0], buf[1]),
            ident: be16(buf, 4),
            seq: be16(buf, 6),
            payload: buf[8..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let req = IcmpMessage::echo_request(42, 7, b"ping data".to_vec());
        let bytes = req.encode();
        let parsed = IcmpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed, req);
        let reply = parsed.echo_reply();
        assert_eq!(reply.kind, IcmpType::EchoReply);
        assert_eq!(reply.ident, 42);
        assert_eq!(reply.payload, b"ping data");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut bytes = IcmpMessage::echo_request(1, 1, vec![1, 2, 3]).encode();
        bytes[9] ^= 0xFF;
        assert_eq!(IcmpMessage::parse(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn unreachable_quotes_original() {
        let original = vec![0x45u8; 60];
        let msg = IcmpMessage::unreachable(UNREACH_PORT, &original);
        assert_eq!(msg.payload.len(), 28);
        let parsed = IcmpMessage::parse(&msg.encode()).unwrap();
        assert_eq!(parsed.kind, IcmpType::DestUnreachable(UNREACH_PORT));
    }

    #[test]
    fn short_message_rejected() {
        assert_eq!(IcmpMessage::parse(&[0u8; 7]), Err(WireError::Truncated));
    }
}
