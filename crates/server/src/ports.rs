//! The TCP/UDP port namespace.
//!
//! "It is necessary to interact with a local IP port manager to ensure
//! that the endpoint is uniquely named; the operating system is a
//! convenient place to implement this manager" (§3.2). The namespace is
//! long-lived shared state owned by the server, never by applications.

use psd_netstack::SocketError;
use std::collections::{BTreeSet, HashSet};

/// First ephemeral port (BSD `IPPORT_RESERVED`).
pub const EPHEMERAL_FIRST: u16 = 1024;
/// Last ephemeral port (BSD `IPPORT_USERRESERVED`).
pub const EPHEMERAL_LAST: u16 = 5000;

/// Transport protocols with distinct port spaces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Proto {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
}

/// The per-host port allocator.
///
/// Ephemeral allocation keeps a per-protocol set of free ports in the
/// ephemeral range so finding the next free port after the rotating
/// cursor is O(log n) rather than a linear walk — at thousands of live
/// sessions the walk dominated session setup. The allocation sequence
/// (port chosen, cursor advance, exhaustion behavior) is identical to
/// the original cursor scan: the scan claimed the first unclaimed port
/// at or after the cursor, wrapping once.
#[derive(Debug)]
pub struct PortNamespace {
    used: HashSet<(Proto, u16)>,
    free_tcp: BTreeSet<u16>,
    free_udp: BTreeSet<u16>,
    next_ephemeral: u16,
}

impl PortNamespace {
    /// An empty namespace.
    pub fn new() -> PortNamespace {
        let all: BTreeSet<u16> = (EPHEMERAL_FIRST..=EPHEMERAL_LAST).collect();
        PortNamespace {
            used: HashSet::new(),
            free_tcp: all.clone(),
            free_udp: all,
            next_ephemeral: EPHEMERAL_FIRST,
        }
    }

    fn free_of(&mut self, proto: Proto) -> &mut BTreeSet<u16> {
        match proto {
            Proto::Tcp => &mut self.free_tcp,
            Proto::Udp => &mut self.free_udp,
        }
    }

    /// Claims a specific port. Fails with `AddrInUse` if taken.
    pub fn claim(&mut self, proto: Proto, port: u16) -> Result<u16, SocketError> {
        if port == 0 {
            return self.alloc_ephemeral(proto);
        }
        if self.used.insert((proto, port)) {
            if (EPHEMERAL_FIRST..=EPHEMERAL_LAST).contains(&port) {
                self.free_of(proto).remove(&port);
            }
            Ok(port)
        } else {
            Err(SocketError::AddrInUse)
        }
    }

    /// Allocates an ephemeral port: the first free port at or after the
    /// rotating cursor, wrapping once.
    pub(crate) fn alloc_ephemeral(&mut self, proto: Proto) -> Result<u16, SocketError> {
        let cursor = self.next_ephemeral;
        let free = self.free_of(proto);
        let candidate = free
            .range(cursor..=EPHEMERAL_LAST)
            .next()
            .or_else(|| free.range(EPHEMERAL_FIRST..cursor).next())
            .copied();
        let Some(port) = candidate else {
            // A full cursor sweep would have advanced the cursor by the
            // whole span, wrapping it back to where it started.
            return Err(SocketError::NoBufs);
        };
        free.remove(&port);
        self.used.insert((proto, port));
        self.next_ephemeral = if port >= EPHEMERAL_LAST {
            EPHEMERAL_FIRST
        } else {
            port + 1
        };
        Ok(port)
    }

    /// Releases a port.
    pub fn release(&mut self, proto: Proto, port: u16) {
        self.used.remove(&(proto, port));
        if (EPHEMERAL_FIRST..=EPHEMERAL_LAST).contains(&port) {
            self.free_of(proto).insert(port);
        }
    }

    /// True if the port is currently claimed.
    pub fn in_use(&self, proto: Proto, port: u16) -> bool {
        self.used.contains(&(proto, port))
    }

    /// Number of claimed ports.
    pub fn len(&self) -> usize {
        self.used.len()
    }

    /// True if nothing is claimed.
    pub fn is_empty(&self) -> bool {
        self.used.is_empty()
    }
}

impl Default for PortNamespace {
    fn default() -> PortNamespace {
        PortNamespace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_is_exclusive() {
        let mut p = PortNamespace::new();
        assert_eq!(p.claim(Proto::Tcp, 80), Ok(80));
        assert_eq!(p.claim(Proto::Tcp, 80), Err(SocketError::AddrInUse));
        // The UDP space is separate.
        assert_eq!(p.claim(Proto::Udp, 80), Ok(80));
    }

    #[test]
    fn release_allows_reclaim() {
        let mut p = PortNamespace::new();
        p.claim(Proto::Tcp, 80).unwrap();
        p.release(Proto::Tcp, 80);
        assert_eq!(p.claim(Proto::Tcp, 80), Ok(80));
    }

    #[test]
    fn ephemeral_ports_unique_and_in_range() {
        let mut p = PortNamespace::new();
        let mut seen = HashSet::new();
        for _ in 0..100 {
            let port = p.alloc_ephemeral(Proto::Udp).unwrap();
            assert!((EPHEMERAL_FIRST..=EPHEMERAL_LAST).contains(&port));
            assert!(seen.insert(port), "duplicate ephemeral {port}");
        }
    }

    #[test]
    fn claim_port_zero_allocates_ephemeral() {
        let mut p = PortNamespace::new();
        let port = p.claim(Proto::Tcp, 0).unwrap();
        assert!((EPHEMERAL_FIRST..=EPHEMERAL_LAST).contains(&port));
        assert!(p.in_use(Proto::Tcp, port));
    }

    #[test]
    fn exhaustion_reported() {
        let mut p = PortNamespace::new();
        let span = (EPHEMERAL_LAST - EPHEMERAL_FIRST) as usize + 1;
        for _ in 0..span {
            p.alloc_ephemeral(Proto::Tcp).unwrap();
        }
        assert_eq!(p.alloc_ephemeral(Proto::Tcp), Err(SocketError::NoBufs));
        // Other protocol unaffected.
        assert!(p.alloc_ephemeral(Proto::Udp).is_ok());
    }

    #[test]
    fn wraps_around_released_ports() {
        let mut p = PortNamespace::new();
        let span = (EPHEMERAL_LAST - EPHEMERAL_FIRST) as usize + 1;
        let mut first = 0;
        for i in 0..span {
            let port = p.alloc_ephemeral(Proto::Tcp).unwrap();
            if i == 0 {
                first = port;
            }
        }
        p.release(Proto::Tcp, first);
        assert_eq!(p.alloc_ephemeral(Proto::Tcp), Ok(first));
    }
}
