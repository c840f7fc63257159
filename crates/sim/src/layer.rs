//! The layers charged time is attributed to.
//!
//! Table 4 of the paper breaks round-trip latency down by protocol layer
//! ("entry/copyin", "tcp,udp_output", …, "copyout/exit"). Every cost a
//! [`Charge`](crate::cpu::Charge) cursor adds to virtual time names the
//! [`Layer`] it belongs to; the [`Profiler`](crate::profile::Profiler)
//! keeps the per-layer sums Table 4 is read from
//! ([`Profiler::layer_ns`](crate::profile::Profiler::layer_ns)) and the
//! census counts operations per layer.

use std::fmt;

/// The rows of the paper's Table 4, plus bookkeeping categories for time
/// spent outside the data path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    /// Socket-layer entry and copy of the user buffer into mbufs.
    EntryCopyin,
    /// `tcp_output` / `udp_output`: header construction and checksum.
    TcpUdpOutput,
    /// `ip_output`: IP header construction and route lookup.
    IpOutput,
    /// Ethernet output: ARP resolution, framing, handing to the device.
    EtherOutput,
    /// Device interrupt fielding and (for kernel/server paths) the copy
    /// out of device memory into a wired kernel buffer.
    DeviceIntrRead,
    /// Demultiplexing: netisr dispatch and packet-filter execution.
    NetisrPacketFilter,
    /// Delivering the packet to the destination protocol stack across a
    /// protection boundary (library and server paths only).
    KernelCopyout,
    /// Packaging the incoming packet as an mbuf chain and queueing it.
    MbufQueue,
    /// `ipintr`: IP input processing.
    IpIntr,
    /// `tcp_input` / `udp_input`: checksum verification, socket queueing.
    TcpUdpInput,
    /// Waking the application thread that blocks in a receive call.
    WakeupUserThread,
    /// Copying from the socket queue into the caller's buffer and leaving
    /// the protocol.
    CopyoutExit,
    /// Time on the wire.
    NetworkTransit,
    /// Control-path work (proxy RPCs, connection setup) — not part of
    /// Table 4's data path but attributed for completeness.
    Control,
    /// Anything else (timers, retransmissions, background work).
    Other,
}

impl Layer {
    /// All layers in Table 4 presentation order (send path, receive path,
    /// then transit).
    pub const TABLE4_ORDER: [Layer; 13] = [
        Layer::EntryCopyin,
        Layer::TcpUdpOutput,
        Layer::IpOutput,
        Layer::EtherOutput,
        Layer::DeviceIntrRead,
        Layer::NetisrPacketFilter,
        Layer::KernelCopyout,
        Layer::MbufQueue,
        Layer::IpIntr,
        Layer::TcpUdpInput,
        Layer::WakeupUserThread,
        Layer::CopyoutExit,
        Layer::NetworkTransit,
    ];

    /// Every layer, in index order (Table 4 rows first, then the
    /// off-path bookkeeping categories).
    pub const ALL: [Layer; 15] = [
        Layer::EntryCopyin,
        Layer::TcpUdpOutput,
        Layer::IpOutput,
        Layer::EtherOutput,
        Layer::DeviceIntrRead,
        Layer::NetisrPacketFilter,
        Layer::KernelCopyout,
        Layer::MbufQueue,
        Layer::IpIntr,
        Layer::TcpUdpInput,
        Layer::WakeupUserThread,
        Layer::CopyoutExit,
        Layer::NetworkTransit,
        Layer::Control,
        Layer::Other,
    ];

    /// The row label used in Table 4.
    pub fn label(self) -> &'static str {
        match self {
            Layer::EntryCopyin => "entry/copyin",
            Layer::TcpUdpOutput => "tcp,udp_output",
            Layer::IpOutput => "ip_output",
            Layer::EtherOutput => "ether_output",
            Layer::DeviceIntrRead => "device intr/read",
            Layer::NetisrPacketFilter => "netisr/packet filter",
            Layer::KernelCopyout => "kernel copyout",
            Layer::MbufQueue => "mbuf/queue",
            Layer::IpIntr => "ipintr",
            Layer::TcpUdpInput => "tcp,udp_input",
            Layer::WakeupUserThread => "wakeup user thread",
            Layer::CopyoutExit => "copyout/exit",
            Layer::NetworkTransit => "network transit",
            Layer::Control => "control",
            Layer::Other => "other",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Layer::EntryCopyin => 0,
            Layer::TcpUdpOutput => 1,
            Layer::IpOutput => 2,
            Layer::EtherOutput => 3,
            Layer::DeviceIntrRead => 4,
            Layer::NetisrPacketFilter => 5,
            Layer::KernelCopyout => 6,
            Layer::MbufQueue => 7,
            Layer::IpIntr => 8,
            Layer::TcpUdpInput => 9,
            Layer::WakeupUserThread => 10,
            Layer::CopyoutExit => 11,
            Layer::NetworkTransit => 12,
            Layer::Control => 13,
            Layer::Other => 14,
        }
    }

    pub(crate) const COUNT: usize = 15;
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order() {
        assert_eq!(Layer::ALL.len(), Layer::COUNT);
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(layer.index(), i);
        }
        assert_eq!(Layer::TABLE4_ORDER[..], Layer::ALL[..13]);
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Layer::EntryCopyin.label(), "entry/copyin");
        assert_eq!(Layer::NetisrPacketFilter.label(), "netisr/packet filter");
        assert_eq!(Layer::CopyoutExit.label(), "copyout/exit");
    }
}
