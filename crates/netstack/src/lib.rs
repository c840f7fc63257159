//! The protocol stack: ARP, IPv4 (with fragmentation and reassembly),
//! ICMP, UDP and TCP, written once and instantiated in three placements.
//!
//! The paper's central goal is *reuse of existing protocol code*: the
//! same BSD Net2 protocol code ran in the kernel (Mach 2.5 / 386BSD),
//! in the UX/BNR2SS single server, and in the application-linked
//! library. This crate mirrors that: one [`NetStack`] implementation,
//! parameterized by [`Placement`], which selects only
//!
//! - the synchronization discipline (the kernel's cheap hardware `spl`,
//!   the server's expensive emulated priority levels, or the library's
//!   light locks — §4.3 attributes the server's slowness largely to
//!   this), and
//! - the cost of waking the thread that blocks in a receive call.
//!
//! Everything else — header construction, checksums, sequence
//! processing, socket buffering — is byte-for-byte identical across
//! placements, so measured differences between configurations are
//! caused by placement alone, exactly as in the paper.
//!
//! The stack is deliberately *mechanism, not policy*: blocking
//! semantics, the BSD socket API, session migration and `select` live
//! above it (in `psd-server` and `psd-core`). The stack exposes
//! non-blocking operations plus per-socket event notification.

pub mod arp;
pub mod icmp;
pub mod ip;
pub mod route;
pub mod socket;
pub mod stack;
pub mod tcp;
pub mod udp;

pub use arp::ArpCache;
pub use route::{Route, RouteTable};
pub use socket::{SockEvent, SockId, SocketError};
pub use stack::{NetIf, NetStack, SessionState, StackHandle, StackStats};

use std::fmt;
use std::net::Ipv4Addr;

/// An internet endpoint: address and port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct InetAddr {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Port number.
    pub port: u16,
}

impl InetAddr {
    /// Builds an endpoint.
    pub fn new(ip: Ipv4Addr, port: u16) -> InetAddr {
        InetAddr { ip, port }
    }

    /// The all-zero wildcard endpoint.
    pub fn any() -> InetAddr {
        InetAddr {
            ip: Ipv4Addr::UNSPECIFIED,
            port: 0,
        }
    }
}

impl fmt::Display for InetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Where a stack instance executes — the paper's three alternatives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Inside the kernel (Mach 2.5, Ultrix, 386BSD baselines).
    Kernel,
    /// Inside the single-server operating system (UX, BNR2SS
    /// baselines), with its emulated interrupt-priority
    /// synchronization.
    Server,
    /// Inside the application's address space (the paper's system).
    Library,
}

impl Placement {
    /// The protection domain this placement's code executes in, for
    /// census attribution.
    pub fn domain(self) -> psd_sim::Domain {
        match self {
            Placement::Kernel => psd_sim::Domain::Kernel,
            Placement::Server => psd_sim::Domain::Server,
            Placement::Library => psd_sim::Domain::Library,
        }
    }

    /// How this placement's stack synchronizes. Call sites mirror where
    /// the BSD code takes `splnet`/`splx` or socket-buffer locks; the
    /// *count* is identical across placements, only the discipline (and
    /// so the unit price and the census kind) differs.
    pub fn discipline(self) -> psd_sim::Discipline {
        match self {
            Placement::Kernel => psd_sim::Discipline::Spl,
            Placement::Server => psd_sim::Discipline::ServerSpl,
            Placement::Library => psd_sim::Discipline::Lock,
        }
    }
}
