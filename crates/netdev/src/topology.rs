//! Multi-hop topologies: learning switches and store-and-forward IP
//! routers composed from [`Ethernet`] segments.
//!
//! The paper's world is a single perfect wire between two hosts. This
//! module grows it into an internet: segments with per-link bandwidth
//! and propagation delay joined by [`Switch`]es (transparent L2
//! bridging, MAC learning, flooding) and [`Router`]s (ARP, longest-
//! prefix forwarding, TTL decrement with ICMP Time Exceeded, bounded
//! drop-tail or RED egress queues). Everything stays deterministic:
//! the only randomness is RED's drop draw, forked from the simulation
//! seed at construction, and every fault — link flaps, partitions,
//! forced queue-full bursts, asymmetric routes — comes from the same
//! `psd_sim::fault` plane the rest of the system uses:
//!
//! | site | consulted | effect |
//! |---|---|---|
//! | `LinkDown` | per frame, by the segment | frame dies on a downed link |
//! | `LinkQueueFull` | per egress enqueue | queue reports full → tail drop |
//! | `RouteFlip` | per forwarded packet with an alternate route | packet takes the alternate next hop |
//!
//! Devices are infrastructure, not hosts: they charge no CPU time (the
//! latency they add is queueing plus the egress link's serialization
//! and propagation), and topologies are trees — there is no spanning
//! tree protocol, so do not build L2 loops.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use psd_sim::{
    DropCounters, DropReason, FaultSite, Observable, Observers, PacketCtx, Rng, Sim, SimTime,
    Terminal,
};
use psd_wire::{
    ArpOp, ArpPacket, EtherAddr, EtherType, EthernetHeader, IcmpMessage, IcmpType, IpProto,
    Ipv4Header, ETHER_HDR_LEN, IPV4_HDR_LEN,
};

use crate::{Ethernet, EthernetHandle, Station};

/// How many packets may wait for one unresolved next hop before the
/// oldest is dropped (`ArpUnresolved`).
const ARP_PENDING_CAP: usize = 8;
/// Minimum spacing between ARP requests for the same next hop.
const ARP_REQUEST_GAP: SimTime = SimTime::from_millis(500);

/// Queue discipline for one egress port.
#[derive(Clone, Copy, Debug)]
pub enum QueueDisc {
    /// Bounded FIFO: a frame arriving at a full queue tail-drops.
    DropTail {
        /// Maximum frames in flight on the port.
        capacity: usize,
    },
    /// Random Early Detection: below `min_th` nothing drops; between
    /// `min_th` and `max_th` the drop probability climbs linearly to
    /// `max_p`; at `max_th` and beyond everything early-drops (and the
    /// hard `capacity` still tail-drops).
    Red {
        /// Hard queue bound (tail drop).
        capacity: usize,
        /// Depth at which early drops begin.
        min_th: usize,
        /// Depth at which the early-drop probability reaches 1.
        max_th: usize,
        /// Early-drop probability just below `max_th`.
        max_p: f64,
    },
}

impl QueueDisc {
    fn capacity(self) -> usize {
        match self {
            QueueDisc::DropTail { capacity } | QueueDisc::Red { capacity, .. } => capacity,
        }
    }
}

/// One egress port: a segment, this device's address on it, and the
/// bounded queue in front of the link.
struct PortState {
    seg: EthernetHandle,
    mac: EtherAddr,
    /// The router's interface address (unspecified on switch ports).
    ip: Ipv4Addr,
    disc: QueueDisc,
    /// Frames handed to the link but not yet fully serialized.
    depth: Rc<Cell<usize>>,
}

impl PortState {
    /// Decides admission at the current depth: `None` admits, a reason
    /// refuses. RED draws come from the device's private RNG; a
    /// fault-plane `LinkQueueFull` injection is passed in as
    /// `forced_full`.
    fn admit(&self, rng: &mut Rng, forced_full: bool) -> Option<DropReason> {
        let depth = self.depth.get();
        if forced_full || depth >= self.disc.capacity() {
            return Some(DropReason::QueueTailDrop);
        }
        if let QueueDisc::Red {
            min_th,
            max_th,
            max_p,
            ..
        } = self.disc
        {
            if depth >= max_th {
                return Some(DropReason::RedEarlyDrop);
            }
            if depth >= min_th {
                let p = max_p * (depth - min_th) as f64 / (max_th - min_th) as f64;
                if rng.chance(p) {
                    return Some(DropReason::RedEarlyDrop);
                }
            }
        }
        None
    }

    /// Transmits an admitted frame and schedules the depth decrement
    /// for the end of serialization (propagation does not occupy the
    /// queue).
    fn send(&self, sim: &mut Sim, frame: Vec<u8>) {
        self.depth.set(self.depth.get() + 1);
        let propagation = self.seg.borrow().propagation();
        // Forwarded frames keep the original source MAC; exclude this
        // port so the device never hears its own transmission.
        let arrival = Ethernet::transmit_from(&self.seg, sim, sim.now(), frame, self.mac);
        let serialized = SimTime::from_nanos(arrival.as_nanos() - propagation.as_nanos());
        let depth = self.depth.clone();
        sim.at(serialized, move |_| {
            depth.set(depth.get().saturating_sub(1));
        });
    }
}

/// What a switch and a router share: their ports, the RED draw stream,
/// the attached observers and the device's drop counters.
struct PortSet {
    ports: Vec<PortState>,
    rng: Rng,
    obs: Observers,
    drops: DropCounters,
}

impl PortSet {
    /// An empty set. The RED draw stream is forked from the simulation
    /// seed here, so device construction order fixes determinism.
    fn new(sim: &mut Sim) -> PortSet {
        PortSet {
            ports: Vec::new(),
            rng: sim.rng().fork(),
            obs: Observers::default(),
            drops: DropCounters::default(),
        }
    }

    /// Adds a port and returns its index.
    fn add(
        &mut self,
        seg: &EthernetHandle,
        mac: EtherAddr,
        ip: Ipv4Addr,
        disc: QueueDisc,
    ) -> usize {
        self.ports.push(PortState {
            seg: seg.clone(),
            mac,
            ip,
            disc,
            depth: Rc::new(Cell::new(0)),
        });
        self.ports.len() - 1
    }

    /// Sends `frame` out `port` unless the port's queue refuses it, and
    /// reports whether it was sent. A refusal is `pkt`'s drop; pass an
    /// empty context when the frame is not the packet being processed
    /// (a flood copy, an ARP message, a flushed or originated packet).
    fn egress(&mut self, sim: &mut Sim, port: usize, frame: Vec<u8>, pkt: &PacketCtx) -> bool {
        let forced = match &self.obs.fault {
            Some(f) => f.borrow_mut().should_inject(FaultSite::LinkQueueFull),
            None => false,
        };
        match self.ports[port].admit(&mut self.rng, forced) {
            None => {
                self.ports[port].send(sim, frame);
                true
            }
            Some(reason) => {
                pkt.drop_at(&mut self.drops, reason, sim.now());
                false
            }
        }
    }
}

/// A device reachable through per-port [`Station`] proxies.
trait NetNode: 'static {
    fn frame_from_wire(dev: &Rc<RefCell<Self>>, sim: &mut Sim, port: usize, frame: Vec<u8>);
}

/// The per-segment station proxy: one per port, delegating to the
/// owning device with the port index attached.
struct PortStation<D: NetNode> {
    dev: Rc<RefCell<D>>,
    mac: EtherAddr,
    port: usize,
    promisc: bool,
}

impl<D: NetNode> Station for PortStation<D> {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn promiscuous(&self) -> bool {
        self.promisc
    }

    fn frame_arrived(&mut self, sim: &mut Sim, frame: Vec<u8>) {
        let dev = self.dev.clone();
        D::frame_from_wire(&dev, sim, self.port, frame);
    }
}

// --- Switch ---

/// Counters for one [`Switch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    /// Frames received across all ports.
    pub(crate) rx_frames: u64,
    /// Frames forwarded to a learned port.
    pub forwarded: u64,
    /// Frames flooded to every other port (broadcast or unknown MAC).
    pub(crate) flooded: u64,
    /// Frames filtered because the destination is on the ingress port.
    pub(crate) filtered: u64,
}

/// A transparent learning switch joining Ethernet segments.
pub struct Switch {
    ports: PortSet,
    /// Learned station location: MAC → port index.
    table: BTreeMap<[u8; 6], usize>,
    stats: SwitchStats,
}

/// Shared handle to a [`Switch`].
pub type SwitchHandle = Rc<RefCell<Switch>>;

impl Switch {
    /// Creates a switch with no ports.
    pub fn new(sim: &mut Sim) -> SwitchHandle {
        Rc::new(RefCell::new(Switch {
            ports: PortSet::new(sim),
            table: BTreeMap::new(),
            stats: SwitchStats::default(),
        }))
    }

    /// Attaches a port on `seg`. `station` derives the port MAC (must
    /// be unique across the whole topology). Returns the port index.
    pub fn add_port(this: &SwitchHandle, seg: &EthernetHandle, station: u32, disc: QueueDisc) {
        let mac = EtherAddr::local(station);
        let unnumbered = Ipv4Addr::UNSPECIFIED;
        let port = this.borrow_mut().ports.add(seg, mac, unnumbered, disc);
        // A switch port hears everything on its segment.
        seg.borrow_mut().attach(Rc::new(RefCell::new(PortStation {
            dev: this.clone(),
            mac,
            port,
            promisc: true,
        })));
    }

    /// Current counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Always-on per-reason drop counters.
    pub fn drops(&self) -> DropCounters {
        self.ports.drops
    }

    /// Shared depth counter of output port `port`, for gauges
    /// that must read it without borrowing the switch.
    pub fn port_depth_cell(&self, port: usize) -> Rc<Cell<usize>> {
        self.ports.ports[port].depth.clone()
    }
}

/// A switch consults the fault plane ([`FaultSite::LinkQueueFull`] per
/// egress enqueue) and the packet-lifecycle tracer.
impl Observable for Switch {
    fn observers(&self) -> &Observers {
        &self.ports.obs
    }

    fn set_observers(&mut self, obs: Observers) {
        self.ports.obs = obs;
    }
}

impl NetNode for Switch {
    fn frame_from_wire(dev: &Rc<RefCell<Switch>>, sim: &mut Sim, port: usize, frame: Vec<u8>) {
        let sw = &mut *dev.borrow_mut();
        sw.stats.rx_frames += 1;
        let now = sim.now();
        let pkt = PacketCtx::current(sw.ports.obs.trace.as_ref());
        let Ok(hdr) = EthernetHeader::parse(&frame) else {
            pkt.drop_at(&mut sw.ports.drops, DropReason::MalformedFrame, now);
            return;
        };
        sw.table.insert(hdr.src.0, port);
        let known = sw.table.get(&hdr.dst.0).copied();
        match known {
            Some(out) if !hdr.dst.is_broadcast() => {
                if out == port {
                    // Destination is on the ingress segment: the medium
                    // already delivered it; the switch filters its copy.
                    sw.stats.filtered += 1;
                    pkt.terminal(now, Terminal::Absorbed);
                    return;
                }
                if sw.ports.egress(sim, out, frame, &pkt) {
                    sw.stats.forwarded += 1;
                    pkt.event(now, "switch-forward");
                    pkt.terminal(now, Terminal::Absorbed);
                }
            }
            _ => {
                // Broadcast or unknown unicast: flood every other port.
                sw.stats.flooded += 1;
                pkt.event(now, "switch-flood");
                for out in 0..sw.ports.ports.len() {
                    if out != port {
                        let copy = frame.clone();
                        sw.ports.egress(sim, out, copy, &PacketCtx::default());
                    }
                }
                // The incoming copy is consumed by the flood; per-port
                // queue refusals are counted in `drops`.
                pkt.terminal(now, Terminal::Absorbed);
            }
        }
    }
}

// --- Router ---

/// One forwarding-table entry.
#[derive(Clone, Copy, Debug)]
pub struct RouterRoute {
    /// Destination network.
    pub net: Ipv4Addr,
    /// Network mask (contiguous).
    pub mask: Ipv4Addr,
    /// Egress port index.
    pub port: usize,
    /// Next-hop router address, or `None` when `net` is directly
    /// attached (deliver straight to the destination).
    pub next_hop: Option<Ipv4Addr>,
    /// Optional alternate `(port, next_hop)` taken when the fault
    /// plane injects [`FaultSite::RouteFlip`] — asymmetric routing.
    pub alt: Option<(usize, Ipv4Addr)>,
}

impl RouterRoute {
    fn matches(&self, ip: Ipv4Addr) -> bool {
        let m = u32::from(self.mask);
        u32::from(ip) & m == u32::from(self.net) & m
    }
}

/// Counters for one [`Router`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    /// Frames received across all ports.
    pub(crate) rx_frames: u64,
    /// IP packets forwarded onto an egress link: counted when the
    /// egress queue accepts the packet, so a packet parked for ARP
    /// counts only once its next hop answers and the queue takes it.
    pub forwarded: u64,
    /// Packets addressed to one of the router's own interfaces.
    pub(crate) absorbed: u64,
    /// ICMP Time Exceeded messages originated.
    pub(crate) time_exceeded_sent: u64,
    /// Packets with no matching route.
    pub(crate) no_route: u64,
    /// Packets that took an alternate route on a `RouteFlip` injection.
    pub(crate) route_flips: u64,
    /// ARP requests sent.
    pub(crate) arp_requests: u64,
    /// ARP replies sent.
    pub(crate) arp_replies: u64,
    /// Packets parked awaiting ARP resolution.
    pub(crate) arp_parked: u64,
}

/// An IP packet on its way out of a router.
struct Outbound {
    /// Egress port index.
    port: usize,
    ip: Vec<u8>,
    /// Forwarded (rather than originated by the router): counted in
    /// [`RouterStats::forwarded`] when the egress queue accepts it.
    forwarded: bool,
}

/// A store-and-forward IP router.
pub struct Router {
    ports: PortSet,
    routes: Vec<RouterRoute>,
    /// Resolved next-hop MACs (interface addresses are unique across
    /// the topology, so one cache serves every port).
    arp: BTreeMap<Ipv4Addr, EtherAddr>,
    /// Packets waiting on ARP, per next hop.
    pending: BTreeMap<Ipv4Addr, Vec<Outbound>>,
    /// Last ARP request time per next hop (rate limiting).
    last_arp_req: BTreeMap<Ipv4Addr, SimTime>,
    stats: RouterStats,
}

/// Shared handle to a [`Router`].
pub type RouterHandle = Rc<RefCell<Router>>;

impl Router {
    /// Creates a router with no ports.
    pub fn new(sim: &mut Sim) -> RouterHandle {
        Rc::new(RefCell::new(Router {
            ports: PortSet::new(sim),
            routes: Vec::new(),
            arp: BTreeMap::new(),
            pending: BTreeMap::new(),
            last_arp_req: BTreeMap::new(),
            stats: RouterStats::default(),
        }))
    }

    /// Attaches an interface on `seg` with address `ip`. `station`
    /// derives the port MAC (unique across the topology). Returns the
    /// port index for use in [`RouterRoute`]s.
    pub fn add_port(
        this: &RouterHandle,
        seg: &EthernetHandle,
        station: u32,
        ip: Ipv4Addr,
        disc: QueueDisc,
    ) -> usize {
        let mac = EtherAddr::local(station);
        let port = this.borrow_mut().ports.add(seg, mac, ip, disc);
        seg.borrow_mut().attach(Rc::new(RefCell::new(PortStation {
            dev: this.clone(),
            mac,
            port,
            promisc: false,
        })));
        port
    }

    /// Installs a route. Longest prefix wins; insertion order breaks
    /// ties.
    pub fn add_route(&mut self, route: RouterRoute) {
        self.routes.push(route);
    }

    /// Current counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Always-on per-reason drop counters.
    pub fn drops(&self) -> DropCounters {
        self.ports.drops
    }

    /// Shared depth counter of output port `port`, for gauges
    /// that must read it without borrowing the router.
    pub fn port_depth_cell(&self, port: usize) -> Rc<Cell<usize>> {
        self.ports.ports[port].depth.clone()
    }

    fn lookup(&self, dst: Ipv4Addr) -> Option<RouterRoute> {
        self.routes
            .iter()
            .filter(|r| r.matches(dst))
            .max_by_key(|r| u32::from(r.mask))
            .copied()
    }

    /// Sends `out` to `next_hop`, resolving the MAC first. Returns
    /// `false` if the egress queue refused it (`pkt`'s drop, as in
    /// [`PortSet::egress`]). A packet parked for ARP is not refused: it
    /// holds a pending slot until the next hop answers, and a full
    /// pending queue drops its oldest entry instead.
    fn send_ip(
        &mut self,
        sim: &mut Sim,
        next_hop: Ipv4Addr,
        out: Outbound,
        pkt: &PacketCtx,
    ) -> bool {
        let port = out.port;
        if let Some(&mac) = self.arp.get(&next_hop) {
            let hdr = EthernetHeader {
                dst: mac,
                src: self.ports.ports[port].mac,
                ethertype: EtherType::Ipv4,
            };
            let mut frame = hdr.encode().to_vec();
            frame.extend_from_slice(&out.ip);
            let sent = self.ports.egress(sim, port, frame, pkt);
            if sent && out.forwarded {
                self.stats.forwarded += 1;
            }
            return sent;
        }
        // Park the packet and (rate-limited) ask who-has.
        self.stats.arp_parked += 1;
        let q = self.pending.entry(next_hop).or_default();
        q.push(out);
        if q.len() > ARP_PENDING_CAP {
            q.remove(0);
            // The evicted packet's trace ended when it parked.
            let evicted = PacketCtx::default();
            evicted.drop_at(&mut self.ports.drops, DropReason::ArpUnresolved, sim.now());
        }
        let due = match self.last_arp_req.get(&next_hop) {
            None => true,
            Some(&at) => sim.now() >= at + ARP_REQUEST_GAP,
        };
        if due {
            self.last_arp_req.insert(next_hop, sim.now());
            self.stats.arp_requests += 1;
            let PortState { mac, ip, .. } = self.ports.ports[port];
            let req = ArpPacket::request(mac, ip, next_hop);
            let hdr = EthernetHeader {
                dst: EtherAddr::BROADCAST,
                src: mac,
                ethertype: EtherType::Arp,
            };
            let mut frame = hdr.encode().to_vec();
            frame.extend_from_slice(&req.encode());
            self.ports.egress(sim, port, frame, &PacketCtx::default());
        }
        true
    }

    /// Routes and sends a packet this router originates (ICMP errors).
    fn originate(&mut self, sim: &mut Sim, ip_bytes: Vec<u8>) {
        let Ok(ip) = Ipv4Header::parse(&ip_bytes) else {
            return;
        };
        let Some(route) = self.lookup(ip.dst) else {
            self.stats.no_route += 1;
            return;
        };
        let next_hop = route.next_hop.unwrap_or(ip.dst);
        let out = Outbound {
            port: route.port,
            ip: ip_bytes,
            forwarded: false,
        };
        self.send_ip(sim, next_hop, out, &PacketCtx::default());
    }

    fn ip_input(dev: &Rc<RefCell<Router>>, sim: &mut Sim, port: usize, frame: &[u8]) {
        let r = &mut *dev.borrow_mut();
        let now = sim.now();
        let pkt = PacketCtx::current(r.ports.obs.trace.as_ref());
        let ip_bytes = &frame[ETHER_HDR_LEN..];
        let ip = match Ipv4Header::parse(ip_bytes) {
            Ok(h) if h.header_len == IPV4_HDR_LEN => h,
            _ => {
                pkt.drop_at(&mut r.ports.drops, DropReason::MalformedFrame, now);
                return;
            }
        };
        if r.ports.ports.iter().any(|p| p.ip == ip.dst) {
            r.stats.absorbed += 1;
            pkt.terminal(now, Terminal::Absorbed);
            return;
        }
        if ip.ttl <= 1 {
            pkt.event(now, "ttl-expired");
            pkt.drop_at(&mut r.ports.drops, DropReason::TtlExpired, now);
            // Quote the expired header + 8 payload bytes back at the
            // source, from the ingress interface address.
            if ip.proto != IpProto::Icmp {
                let icmp = IcmpMessage {
                    kind: IcmpType::TimeExceeded(0),
                    ident: 0,
                    seq: 0,
                    payload: ip_bytes[..ip_bytes.len().min(IPV4_HDR_LEN + 8)].to_vec(),
                };
                let body = icmp.encode();
                let from = r.ports.ports[port].ip;
                let hdr = Ipv4Header::new(from, ip.src, IpProto::Icmp, body.len());
                let mut pkt = hdr.encode().to_vec();
                pkt.extend_from_slice(&body);
                r.stats.time_exceeded_sent += 1;
                r.originate(sim, pkt);
            }
            return;
        }
        let Some(route) = r.lookup(ip.dst) else {
            r.stats.no_route += 1;
            pkt.drop_at(&mut r.ports.drops, DropReason::NotForHost, now);
            return;
        };
        // Asymmetric routing: an armed RouteFlip sends this packet via
        // the alternate next hop. Only routes that have one consult the
        // site, so topologies without alternates never visit it.
        let (out_port, next_hop) = match route.alt {
            Some((alt_port, alt_hop)) => {
                let flip = match &r.ports.obs.fault {
                    Some(f) => f.borrow_mut().should_inject(FaultSite::RouteFlip),
                    None => false,
                };
                if flip {
                    r.stats.route_flips += 1;
                    pkt.event(now, "fault:route-flip");
                    (alt_port, alt_hop)
                } else {
                    (route.port, route.next_hop.unwrap_or(ip.dst))
                }
            }
            None => (route.port, route.next_hop.unwrap_or(ip.dst)),
        };
        // Store-and-forward: decrement TTL, recompute the checksum,
        // splice the new header back in.
        let mut fwd = Ipv4Header { ..ip };
        fwd.ttl = ip.ttl - 1;
        let mut out = Outbound {
            port: out_port,
            ip: ip_bytes.to_vec(),
            forwarded: true,
        };
        out.ip[..IPV4_HDR_LEN].copy_from_slice(&fwd.encode());
        if r.send_ip(sim, next_hop, out, &pkt) {
            pkt.event(now, "router-forward");
            pkt.terminal(now, Terminal::Absorbed);
        }
    }

    fn arp_input(dev: &Rc<RefCell<Router>>, sim: &mut Sim, port: usize, frame: &[u8]) {
        let r = &mut *dev.borrow_mut();
        let now = sim.now();
        let pkt = PacketCtx::current(r.ports.obs.trace.as_ref());
        let Ok(arp) = ArpPacket::parse(&frame[ETHER_HDR_LEN..]) else {
            pkt.drop_at(&mut r.ports.drops, DropReason::MalformedFrame, now);
            return;
        };
        // Learn the sender either way, and flush anything parked on it
        // (each parked packet met its fate in the tracer at park time).
        r.arp.insert(arp.sender_ip, arp.sender_mac);
        if let Some(waiting) = r.pending.remove(&arp.sender_ip) {
            for out in waiting {
                r.send_ip(sim, arp.sender_ip, out, &PacketCtx::default());
            }
        }
        let PortState { mac, ip, .. } = r.ports.ports[port];
        if arp.op == ArpOp::Request && arp.target_ip == ip {
            r.stats.arp_replies += 1;
            let reply = arp.reply_to(mac);
            let hdr = EthernetHeader {
                dst: arp.sender_mac,
                src: mac,
                ethertype: EtherType::Arp,
            };
            let mut out = hdr.encode().to_vec();
            out.extend_from_slice(&reply.encode());
            r.ports.egress(sim, port, out, &PacketCtx::default());
        }
        pkt.terminal(now, Terminal::Absorbed);
    }
}

/// A router consults the fault plane ([`FaultSite::LinkQueueFull`] per
/// egress enqueue, [`FaultSite::RouteFlip`] per packet with an
/// alternate route) and the packet-lifecycle tracer.
impl Observable for Router {
    fn observers(&self) -> &Observers {
        &self.ports.obs
    }

    fn set_observers(&mut self, obs: Observers) {
        self.ports.obs = obs;
    }
}

impl NetNode for Router {
    fn frame_from_wire(dev: &Rc<RefCell<Router>>, sim: &mut Sim, port: usize, frame: Vec<u8>) {
        dev.borrow_mut().stats.rx_frames += 1;
        let reason = match EthernetHeader::parse(&frame).map(|h| h.ethertype) {
            Ok(EtherType::Ipv4) => return Router::ip_input(dev, sim, port, &frame),
            Ok(EtherType::Arp) => return Router::arp_input(dev, sim, port, &frame),
            Ok(EtherType::Other(_)) => DropReason::UnsupportedEtherType,
            Err(_) => DropReason::MalformedFrame,
        };
        let r = &mut *dev.borrow_mut();
        let pkt = PacketCtx::current(r.ports.obs.trace.as_ref());
        pkt.drop_at(&mut r.ports.drops, reason, sim.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EtherTiming;
    use psd_sim::FaultPlane;

    /// A minimal end host: answers ARP for its address and records
    /// every IPv4 packet it receives.
    struct HostStation {
        seg: EthernetHandle,
        mac: EtherAddr,
        ip: Ipv4Addr,
        received: Vec<(SimTime, Ipv4Header, Vec<u8>)>,
    }

    impl HostStation {
        fn new(seg: &EthernetHandle, station: u32, ip: Ipv4Addr) -> Rc<RefCell<HostStation>> {
            let host = Rc::new(RefCell::new(HostStation {
                seg: seg.clone(),
                mac: EtherAddr::local(station),
                ip,
                received: Vec::new(),
            }));
            seg.borrow_mut().attach(host.clone());
            host
        }

        /// Sends an IPv4 packet to `first_hop_mac`.
        fn send_ip(
            &self,
            sim: &mut Sim,
            first_hop_mac: EtherAddr,
            dst: Ipv4Addr,
            ttl: u8,
            payload: &[u8],
        ) {
            let mut ip = Ipv4Header::new(self.ip, dst, IpProto::Udp, payload.len());
            ip.ttl = ttl;
            let eh = EthernetHeader {
                dst: first_hop_mac,
                src: self.mac,
                ethertype: EtherType::Ipv4,
            };
            let mut frame = eh.encode().to_vec();
            frame.extend_from_slice(&ip.encode());
            frame.extend_from_slice(payload);
            Ethernet::transmit(&self.seg, sim, sim.now(), frame);
        }
    }

    impl Station for HostStation {
        fn mac(&self) -> EtherAddr {
            self.mac
        }

        fn frame_arrived(&mut self, sim: &mut Sim, frame: Vec<u8>) {
            let Ok(hdr) = EthernetHeader::parse(&frame) else {
                return;
            };
            match hdr.ethertype {
                EtherType::Arp => {
                    let Ok(arp) = ArpPacket::parse(&frame[ETHER_HDR_LEN..]) else {
                        return;
                    };
                    if arp.op == ArpOp::Request && arp.target_ip == self.ip {
                        let reply = arp.reply_to(self.mac);
                        let eh = EthernetHeader {
                            dst: arp.sender_mac,
                            src: self.mac,
                            ethertype: EtherType::Arp,
                        };
                        let mut f = eh.encode().to_vec();
                        f.extend_from_slice(&reply.encode());
                        let seg = self.seg.clone();
                        Ethernet::transmit(&seg, sim, sim.now(), f);
                    }
                }
                EtherType::Ipv4 => {
                    if let Ok(ip) = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]) {
                        let payload = frame[ETHER_HDR_LEN + IPV4_HDR_LEN..].to_vec();
                        self.received.push((sim.now(), ip, payload));
                    }
                }
                EtherType::Other(_) => {}
            }
        }
    }

    fn ipa(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    type HostHandle = Rc<RefCell<HostStation>>;

    /// Two segments, a router port on each, directly attached routes.
    fn two_seg_router() -> (
        Sim,
        EthernetHandle,
        EthernetHandle,
        RouterHandle,
        HostHandle,
        HostHandle,
    ) {
        let mut sim = Sim::new(7);
        let sa = Ethernet::new(EtherTiming::ten_megabit());
        let sb = Ethernet::new(EtherTiming::ten_megabit());
        let r = Router::new(&mut sim);
        let pa = Router::add_port(
            &r,
            &sa,
            20,
            ipa(10, 0, 1, 254),
            QueueDisc::DropTail { capacity: 32 },
        );
        let pb = Router::add_port(
            &r,
            &sb,
            21,
            ipa(10, 0, 2, 254),
            QueueDisc::DropTail { capacity: 32 },
        );
        let mask = ipa(255, 255, 255, 0);
        {
            let mut rr = r.borrow_mut();
            rr.add_route(RouterRoute {
                net: ipa(10, 0, 1, 0),
                mask,
                port: pa,
                next_hop: None,
                alt: None,
            });
            rr.add_route(RouterRoute {
                net: ipa(10, 0, 2, 0),
                mask,
                port: pb,
                next_hop: None,
                alt: None,
            });
        }
        let a = HostStation::new(&sa, 1, ipa(10, 0, 1, 1));
        let b = HostStation::new(&sb, 2, ipa(10, 0, 2, 1));
        (sim, sa, sb, r, a, b)
    }

    #[test]
    fn switch_learns_floods_and_forwards() {
        let mut sim = Sim::new(3);
        let s1 = Ethernet::new(EtherTiming::ten_megabit());
        let s2 = Ethernet::new(EtherTiming::ten_megabit());
        let sw = Switch::new(&mut sim);
        Switch::add_port(&sw, &s1, 10, QueueDisc::DropTail { capacity: 32 });
        Switch::add_port(&sw, &s2, 11, QueueDisc::DropTail { capacity: 32 });
        let a = HostStation::new(&s1, 1, ipa(10, 0, 0, 1));
        let b = HostStation::new(&s2, 2, ipa(10, 0, 0, 2));

        // A does not know where B is: ARP broadcast floods through the
        // switch, B answers, and the reply is unicast-forwarded back
        // (the switch learned A's port from the broadcast).
        let req = ArpPacket::request(a.borrow().mac, ipa(10, 0, 0, 1), ipa(10, 0, 0, 2));
        let eh = EthernetHeader {
            dst: EtherAddr::BROADCAST,
            src: a.borrow().mac,
            ethertype: EtherType::Arp,
        };
        let mut f = eh.encode().to_vec();
        f.extend_from_slice(&req.encode());
        Ethernet::transmit(&s1, &mut sim, SimTime::ZERO, f);
        sim.run_to_idle();

        let st = sw.borrow().stats();
        assert_eq!(st.flooded, 1, "ARP request floods");
        assert_eq!(st.forwarded, 1, "ARP reply is unicast-forwarded");

        // Now unicast IP across the switch.
        let bmac = b.borrow().mac;
        a.borrow()
            .send_ip(&mut sim, bmac, ipa(10, 0, 0, 2), 64, b"hi");
        sim.run_to_idle();
        assert_eq!(b.borrow().received.len(), 1);
        assert_eq!(sw.borrow().stats().forwarded, 2);
        assert_eq!(sw.borrow().drops().total(), 0);
    }

    #[test]
    fn router_forwards_and_decrements_ttl() {
        let (mut sim, _sa, _sb, r, a, b) = two_seg_router();
        let rmac = EtherAddr::local(20);
        a.borrow()
            .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 64, b"payload");
        sim.run_to_idle();
        let got = &b.borrow().received;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.ttl, 63, "store-and-forward decrements TTL");
        assert_eq!(got[0].2, b"payload");
        let st = r.borrow().stats();
        assert_eq!(st.forwarded, 1);
        assert_eq!(st.arp_requests, 1, "router resolved B before sending");
        assert_eq!(r.borrow().drops().total(), 0);
    }

    #[test]
    fn a_packet_parked_for_arp_is_not_forwarded_until_it_leaves() {
        // Ten packets to an on-link address nobody answers: all park,
        // the pending queue keeps eight and evicts two, none leaves.
        let (mut sim, _sa, _sb, r, a, _b) = two_seg_router();
        let rmac = EtherAddr::local(20);
        for _ in 0..10 {
            a.borrow()
                .send_ip(&mut sim, rmac, ipa(10, 0, 2, 99), 64, b"nobody");
        }
        sim.run_to_idle();
        let st = r.borrow().stats();
        assert_eq!((st.rx_frames, st.arp_parked), (10, 10));
        assert_eq!(st.forwarded, 0, "nothing left the router");
        assert_eq!(r.borrow().drops().get(DropReason::ArpUnresolved), 2);
    }

    #[test]
    fn ttl_expiry_drops_and_sends_time_exceeded() {
        let (mut sim, _sa, _sb, r, a, b) = two_seg_router();
        let rmac = EtherAddr::local(20);
        a.borrow()
            .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 1, b"dying");
        sim.run_to_idle();
        assert!(b.borrow().received.is_empty(), "packet died at the router");
        assert_eq!(r.borrow().drops().get(DropReason::TtlExpired), 1);
        assert_eq!(r.borrow().stats().time_exceeded_sent, 1);
        let got = &a.borrow().received;
        assert_eq!(got.len(), 1, "ICMP Time Exceeded came back");
        assert_eq!(got[0].1.src, ipa(10, 0, 1, 254));
        assert_eq!(got[0].1.proto, IpProto::Icmp);
        let msg = IcmpMessage::parse(&got[0].2).unwrap();
        assert!(matches!(msg.kind, IcmpType::TimeExceeded(0)));
        // The quote holds the expired header: our source address.
        let quoted = Ipv4Header::parse(&msg.payload).unwrap();
        assert_eq!(quoted.src, ipa(10, 0, 1, 1));
    }

    #[test]
    fn bounded_queue_tail_drops_under_burst() {
        let mut sim = Sim::new(11);
        let sa = Ethernet::new(EtherTiming::ten_megabit());
        // Slow egress: 1 Mb/s, so back-to-back arrivals pile up.
        let sb = Ethernet::new(EtherTiming::megabit(1));
        let r = Router::new(&mut sim);
        let pa = Router::add_port(
            &r,
            &sa,
            20,
            ipa(10, 0, 1, 254),
            QueueDisc::DropTail { capacity: 32 },
        );
        let pb = Router::add_port(
            &r,
            &sb,
            21,
            ipa(10, 0, 2, 254),
            QueueDisc::DropTail { capacity: 2 },
        );
        let mask = ipa(255, 255, 255, 0);
        {
            let mut rr = r.borrow_mut();
            rr.add_route(RouterRoute {
                net: ipa(10, 0, 1, 0),
                mask,
                port: pa,
                next_hop: None,
                alt: None,
            });
            rr.add_route(RouterRoute {
                net: ipa(10, 0, 2, 0),
                mask,
                port: pb,
                next_hop: None,
                alt: None,
            });
        }
        let a = HostStation::new(&sa, 1, ipa(10, 0, 1, 1));
        let b = HostStation::new(&sb, 2, ipa(10, 0, 2, 1));

        // Warm the ARP cache so the burst is not absorbed by parking.
        let rmac = EtherAddr::local(20);
        a.borrow()
            .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 64, b"w");
        sim.run_to_idle();
        assert_eq!(b.borrow().received.len(), 1);

        for i in 0..8u8 {
            a.borrow()
                .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 64, &[i; 400]);
        }
        sim.run_to_idle();
        let tail = r.borrow().drops().get(DropReason::QueueTailDrop);
        assert!(tail > 0, "burst overflows the 2-deep queue");
        assert_eq!(
            b.borrow().received.len() as u64 + tail,
            9,
            "every packet either arrived or was counted as a tail drop"
        );
        assert_eq!(r.borrow().stats().forwarded + tail, 9, "one fate each");
    }

    #[test]
    fn red_early_drops_before_the_hard_limit() {
        let mut sim = Sim::new(13);
        let sa = Ethernet::new(EtherTiming::ten_megabit());
        let sb = Ethernet::new(EtherTiming::megabit(1));
        let r = Router::new(&mut sim);
        let pa = Router::add_port(
            &r,
            &sa,
            20,
            ipa(10, 0, 1, 254),
            QueueDisc::DropTail { capacity: 32 },
        );
        // Degenerate RED: any queued frame forces an early drop, so the
        // test is deterministic without relying on the drop draw.
        let pb = Router::add_port(
            &r,
            &sb,
            21,
            ipa(10, 0, 2, 254),
            QueueDisc::Red {
                capacity: 64,
                min_th: 0,
                max_th: 1,
                max_p: 1.0,
            },
        );
        let mask = ipa(255, 255, 255, 0);
        {
            let mut rr = r.borrow_mut();
            rr.add_route(RouterRoute {
                net: ipa(10, 0, 1, 0),
                mask,
                port: pa,
                next_hop: None,
                alt: None,
            });
            rr.add_route(RouterRoute {
                net: ipa(10, 0, 2, 0),
                mask,
                port: pb,
                next_hop: None,
                alt: None,
            });
        }
        let a = HostStation::new(&sa, 1, ipa(10, 0, 1, 1));
        let b = HostStation::new(&sb, 2, ipa(10, 0, 2, 1));
        let rmac = EtherAddr::local(20);
        a.borrow()
            .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 64, b"w");
        sim.run_to_idle();
        for i in 0..4u8 {
            a.borrow()
                .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 64, &[i; 400]);
        }
        sim.run_to_idle();
        let drops = r.borrow().drops();
        let red = drops.get(DropReason::RedEarlyDrop);
        assert!(red > 0, "RED fired below the hard capacity");
        assert_eq!(
            drops.get(DropReason::QueueTailDrop),
            0,
            "hard limit never reached"
        );
        assert_eq!(b.borrow().received.len() as u64 + red, 5);
    }

    #[test]
    fn scripted_link_queue_full_forces_a_tail_drop() {
        let (mut sim, _sa, _sb, r, a, b) = two_seg_router();
        let plane = FaultPlane::shared();
        plane.borrow_mut().set_rng(psd_sim::Rng::new(1));
        // Visit 1: the warm-up packet resolved ARP, so the data packet
        // is the second egress enqueue (visit numbering starts at 0 for
        // the ARP request itself).
        r.borrow_mut().set_observers(Observers {
            fault: Some(plane.clone()),
            ..Observers::default()
        });
        let rmac = EtherAddr::local(20);
        a.borrow()
            .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 64, b"w");
        sim.run_to_idle();
        let visits_so_far = plane.borrow().visits(FaultSite::LinkQueueFull);
        plane
            .borrow_mut()
            .script(FaultSite::LinkQueueFull, &[visits_so_far]);
        a.borrow()
            .send_ip(&mut sim, rmac, ipa(10, 0, 2, 1), 64, b"x");
        sim.run_to_idle();
        assert_eq!(r.borrow().drops().get(DropReason::QueueTailDrop), 1);
        assert_eq!(b.borrow().received.len(), 1, "only the warm-up arrived");
    }
}
