//! UDP protocol control blocks.
//!
//! UDP is "connectionless and stateless — no session state variables"
//! (§3.1); a pcb is just the endpoint pair and the receive queue. The
//! BSD "connected UDP" convenience (a default remote that also filters
//! senders) is supported, as in the paper's implementation footnote.

use crate::socket::SocketError;
use crate::InetAddr;
use psd_mbuf::{DgramBuf, MbufChain};
use std::net::Ipv4Addr;

/// Default datagram receive-buffer size (BSD `udp_recvspace` ≈ 41 KB;
/// rounded).
pub(crate) const UDP_RECVSPACE: usize = 40 * 1024;

/// Largest datagram the socket layer accepts (BSD `udp_sendspace`).
pub(crate) const UDP_MAXDGRAM: usize = 9 * 1024;

/// A UDP protocol control block.
#[derive(Debug)]
pub(crate) struct UdpPcb {
    /// Local endpoint (ip may be unspecified until bound).
    pub(crate) local: InetAddr,
    /// Connected remote endpoint, if any.
    pub(crate) remote: Option<InetAddr>,
    /// Received datagrams awaiting the application, tagged with the
    /// sender's address.
    pub(crate) rcv: DgramBuf<InetAddr>,
    /// Sticky asynchronous error (e.g. ICMP port unreachable on a
    /// connected socket).
    pub(crate) error: Option<SocketError>,
}

impl UdpPcb {
    /// A fresh unbound pcb.
    pub(crate) fn new() -> UdpPcb {
        UdpPcb {
            local: InetAddr::any(),
            remote: None,
            rcv: DgramBuf::new(UDP_RECVSPACE),
            error: None,
        }
    }

    /// Match quality of this pcb for an incoming datagram; higher wins.
    /// `None` means no match. Mirrors `in_pcblookup`: exact 4-tuple
    /// beats wildcard.
    pub(crate) fn match_score(&self, dst: InetAddr, src: InetAddr) -> Option<u32> {
        if self.local.port != dst.port {
            return None;
        }
        let mut score = 1;
        if self.local.ip != Ipv4Addr::UNSPECIFIED {
            if self.local.ip != dst.ip {
                return None;
            }
            score += 1;
        }
        if let Some(remote) = self.remote {
            if remote != src {
                return None;
            }
            score += 2;
        }
        Some(score)
    }

    /// Queues a received datagram; returns false (datagram dropped) when
    /// the buffer is full, as BSD does.
    pub(crate) fn enqueue(&mut self, from: InetAddr, data: MbufChain) -> bool {
        self.rcv.append(from, data)
    }

    /// Dequeues the oldest datagram.
    pub(crate) fn dequeue(&mut self) -> Option<(InetAddr, MbufChain)> {
        self.rcv.pop().map(|r| (r.meta, r.chain))
    }
}

impl Default for UdpPcb {
    fn default() -> UdpPcb {
        UdpPcb::new()
    }
}

/// Serialized UDP session state for migration. "The operating system
/// returns the (null) network session state along with a local endpoint
/// and a packet filter port" — plus any datagrams that arrived at the
/// old placement before the filter was retargeted.
#[derive(Debug, Clone)]
pub struct UdpSnapshot {
    /// Local endpoint.
    pub local: InetAddr,
    /// Connected remote, if any.
    pub remote: Option<InetAddr>,
    /// Queued datagrams `(sender, payload)` drained from the old
    /// placement.
    pub queued: Vec<(InetAddr, Vec<u8>)>,
}

impl UdpPcb {
    /// Captures migration state, draining the receive queue.
    pub(crate) fn export(&mut self) -> UdpSnapshot {
        let mut queued = Vec::new();
        while let Some((from, chain)) = self.dequeue() {
            queued.push((from, chain.to_vec()));
        }
        UdpSnapshot {
            local: self.local,
            remote: self.remote,
            queued,
        }
    }

    /// Rebuilds a pcb from migration state.
    pub(crate) fn import(snap: UdpSnapshot) -> UdpPcb {
        let mut pcb = UdpPcb::new();
        pcb.local = snap.local;
        pcb.remote = snap.remote;
        for (from, data) in snap.queued {
            pcb.enqueue(from, MbufChain::from_slice(&data));
        }
        pcb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ip: [u8; 4], port: u16) -> InetAddr {
        InetAddr::new(Ipv4Addr::from(ip), port)
    }

    #[test]
    fn wildcard_matches_any_source() {
        let mut pcb = UdpPcb::new();
        pcb.local = at([0, 0, 0, 0], 53);
        assert!(pcb
            .match_score(at([10, 0, 0, 1], 53), at([10, 0, 0, 2], 999))
            .is_some());
        assert!(pcb
            .match_score(at([10, 0, 0, 1], 54), at([10, 0, 0, 2], 999))
            .is_none());
    }

    #[test]
    fn connected_pcb_filters_and_outranks_wildcard() {
        let mut wild = UdpPcb::new();
        wild.local = at([10, 0, 0, 1], 53);
        let mut conn = UdpPcb::new();
        conn.local = at([10, 0, 0, 1], 53);
        conn.remote = Some(at([10, 0, 0, 2], 999));

        let dst = at([10, 0, 0, 1], 53);
        let src = at([10, 0, 0, 2], 999);
        let other = at([10, 0, 0, 3], 999);

        assert!(conn.match_score(dst, src).unwrap() > wild.match_score(dst, src).unwrap());
        assert!(conn.match_score(dst, other).is_none());
        assert!(wild.match_score(dst, other).is_some());
    }

    #[test]
    fn bound_ip_must_match() {
        let mut pcb = UdpPcb::new();
        pcb.local = at([10, 0, 0, 1], 53);
        assert!(pcb
            .match_score(at([10, 0, 0, 9], 53), at([10, 0, 0, 2], 1))
            .is_none());
    }

    #[test]
    fn queue_and_dequeue_fifo() {
        let mut pcb = UdpPcb::new();
        assert!(pcb.enqueue(at([1, 1, 1, 1], 1), MbufChain::from_slice(b"a")));
        assert!(pcb.enqueue(at([2, 2, 2, 2], 2), MbufChain::from_slice(b"b")));
        let (from, data) = pcb.dequeue().unwrap();
        assert_eq!(from, at([1, 1, 1, 1], 1));
        assert_eq!(data.to_vec(), b"a");
    }

    #[test]
    fn full_buffer_drops() {
        let mut pcb = UdpPcb::new();
        pcb.rcv.reserve(10);
        assert!(pcb.enqueue(at([1, 1, 1, 1], 1), MbufChain::from_slice(&[0u8; 10])));
        assert!(!pcb.enqueue(at([1, 1, 1, 1], 1), MbufChain::from_slice(&[0u8; 1])));
    }

    #[test]
    fn export_import_preserves_queue() {
        let mut pcb = UdpPcb::new();
        pcb.local = at([10, 0, 0, 1], 7);
        pcb.remote = Some(at([10, 0, 0, 2], 8));
        pcb.enqueue(at([10, 0, 0, 2], 8), MbufChain::from_slice(b"in flight"));
        let snap = pcb.export();
        assert!(pcb.rcv.is_empty(), "export drains");
        let mut restored = UdpPcb::import(snap);
        assert_eq!(restored.local, at([10, 0, 0, 1], 7));
        assert_eq!(restored.remote, Some(at([10, 0, 0, 2], 8)));
        let (from, data) = restored.dequeue().unwrap();
        assert_eq!(from, at([10, 0, 0, 2], 8));
        assert_eq!(data.to_vec(), b"in flight");
    }
}
