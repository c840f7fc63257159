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
//! [`psd_sim::fault`] plane the rest of the system uses:
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
    DropCounters, DropReason, FaultSite, Observable, Observers, Rng, Sim, SimTime, Terminal,
    TraceHandle,
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

/// Why the egress queue refused a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum QueueVerdict {
    Enqueue,
    TailDrop,
    RedDrop,
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
    /// Decides admission at the current depth. RED draws come from the
    /// device's private RNG; a fault-plane `LinkQueueFull` injection is
    /// passed in as `forced_full`.
    fn admit(&self, rng: &mut Rng, forced_full: bool) -> QueueVerdict {
        let depth = self.depth.get();
        if forced_full || depth >= self.disc.capacity() {
            return QueueVerdict::TailDrop;
        }
        if let QueueDisc::Red {
            min_th,
            max_th,
            max_p,
            ..
        } = self.disc
        {
            if depth >= max_th {
                return QueueVerdict::RedDrop;
            }
            if depth >= min_th {
                let p = max_p * (depth - min_th) as f64 / (max_th - min_th) as f64;
                if rng.chance(p) {
                    return QueueVerdict::RedDrop;
                }
            }
        }
        QueueVerdict::Enqueue
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

/// Terminates the tracer's current packet (the device's delivered copy
/// of the wire frame), if a tracer is attached.
fn terminate_current(tracer: &Option<TraceHandle>, now: SimTime, term: Terminal) {
    if let Some(t) = tracer {
        let mut tr = t.borrow_mut();
        if let Some(id) = tr.current() {
            tr.terminal(id, now, term);
        }
    }
}

/// Stamps an event on the tracer's current packet.
fn event_current(tracer: &Option<TraceHandle>, now: SimTime, name: &'static str) {
    if let Some(t) = tracer {
        let mut tr = t.borrow_mut();
        if let Some(id) = tr.current() {
            tr.event(id, now, name);
        }
    }
}

// --- Switch ---

/// Counters for one [`Switch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    /// Frames received across all ports.
    pub rx_frames: u64,
    /// Frames forwarded to a learned port.
    pub forwarded: u64,
    /// Frames flooded to every other port (broadcast or unknown MAC).
    pub flooded: u64,
    /// Frames filtered because the destination is on the ingress port.
    pub filtered: u64,
    /// Frames tail-dropped at an egress queue.
    pub tail_drops: u64,
    /// Frames RED-dropped at an egress queue.
    pub red_drops: u64,
}

/// A transparent learning switch joining Ethernet segments.
pub struct Switch {
    ports: Vec<PortState>,
    /// Learned station location: MAC → port index.
    table: BTreeMap<[u8; 6], usize>,
    rng: Rng,
    obs: Observers,
    stats: SwitchStats,
    drops: DropCounters,
}

/// Shared handle to a [`Switch`].
pub type SwitchHandle = Rc<RefCell<Switch>>;

impl Switch {
    /// Creates a switch with no ports. The RED draw stream is forked
    /// from the simulation seed here, so construction order fixes
    /// determinism.
    pub fn new(sim: &mut Sim) -> SwitchHandle {
        Rc::new(RefCell::new(Switch {
            ports: Vec::new(),
            table: BTreeMap::new(),
            rng: sim.rng().fork(),
            obs: Observers::default(),
            stats: SwitchStats::default(),
            drops: DropCounters::default(),
        }))
    }

    /// Attaches a port on `seg`. `station` derives the port MAC (must
    /// be unique across the whole topology). Returns the port index.
    pub fn add_port(this: &SwitchHandle, seg: &EthernetHandle, station: u32, disc: QueueDisc) {
        let mac = EtherAddr::local(station);
        let port = {
            let mut sw = this.borrow_mut();
            sw.ports.push(PortState {
                seg: seg.clone(),
                mac,
                ip: Ipv4Addr::UNSPECIFIED,
                disc,
                depth: Rc::new(Cell::new(0)),
            });
            sw.ports.len() - 1
        };
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
        self.drops
    }

    /// Current egress queue depth of `port` (frames admitted and not
    /// yet drained onto the wire).
    pub fn port_depth(&self, port: usize) -> usize {
        self.ports[port].depth.get()
    }

    /// Shared depth counter behind [`Switch::port_depth`], for gauges
    /// that must read it without borrowing the switch.
    pub fn port_depth_cell(&self, port: usize) -> Rc<Cell<usize>> {
        self.ports[port].depth.clone()
    }

    /// Sends one admitted-or-dropped frame out `port`, returning the
    /// drop reason if the queue refused it.
    fn egress(&mut self, sim: &mut Sim, port: usize, frame: Vec<u8>) -> Option<DropReason> {
        let forced = match &self.obs.fault {
            Some(f) => f.borrow_mut().should_inject(FaultSite::LinkQueueFull),
            None => false,
        };
        match self.ports[port].admit(&mut self.rng, forced) {
            QueueVerdict::Enqueue => {
                self.ports[port].send(sim, frame);
                None
            }
            QueueVerdict::TailDrop => {
                self.stats.tail_drops += 1;
                self.drops.note(DropReason::QueueTailDrop);
                Some(DropReason::QueueTailDrop)
            }
            QueueVerdict::RedDrop => {
                self.stats.red_drops += 1;
                self.drops.note(DropReason::RedEarlyDrop);
                Some(DropReason::RedEarlyDrop)
            }
        }
    }
}

/// A switch consults the fault plane ([`FaultSite::LinkQueueFull`] per
/// egress enqueue) and the packet-lifecycle tracer.
impl Observable for Switch {
    fn observers(&self) -> &Observers {
        &self.obs
    }

    fn set_observers(&mut self, obs: Observers) {
        self.obs = obs;
    }
}

impl NetNode for Switch {
    fn frame_from_wire(dev: &Rc<RefCell<Switch>>, sim: &mut Sim, port: usize, frame: Vec<u8>) {
        let mut sw = dev.borrow_mut();
        sw.stats.rx_frames += 1;
        let now = sim.now();
        let tracer = sw.obs.trace.clone();
        let hdr = match EthernetHeader::parse(&frame) {
            Ok(h) => h,
            Err(_) => {
                sw.drops.note(DropReason::MalformedFrame);
                terminate_current(&tracer, now, Terminal::Dropped(DropReason::MalformedFrame));
                return;
            }
        };
        sw.table.insert(hdr.src.0, port);
        let known = sw.table.get(&hdr.dst.0).copied();
        match known {
            Some(out) if !hdr.dst.is_broadcast() => {
                if out == port {
                    // Destination is on the ingress segment: the medium
                    // already delivered it; the switch filters its copy.
                    sw.stats.filtered += 1;
                    terminate_current(&tracer, now, Terminal::Absorbed);
                    return;
                }
                match sw.egress(sim, out, frame) {
                    None => {
                        sw.stats.forwarded += 1;
                        event_current(&tracer, now, "switch-forward");
                        terminate_current(&tracer, now, Terminal::Absorbed);
                    }
                    Some(reason) => {
                        terminate_current(&tracer, now, Terminal::Dropped(reason));
                    }
                }
            }
            _ => {
                // Broadcast or unknown unicast: flood every other port.
                sw.stats.flooded += 1;
                event_current(&tracer, now, "switch-flood");
                for out in 0..sw.ports.len() {
                    if out != port {
                        let _ = sw.egress(sim, out, frame.clone());
                    }
                }
                // The incoming copy is consumed by the flood; per-port
                // queue refusals are counted in `drops`.
                terminate_current(&tracer, now, Terminal::Absorbed);
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
    pub rx_frames: u64,
    /// IP packets forwarded onto an egress link.
    pub forwarded: u64,
    /// Packets addressed to one of the router's own interfaces.
    pub absorbed: u64,
    /// Packets whose TTL expired here.
    pub ttl_expired: u64,
    /// ICMP Time Exceeded messages originated.
    pub time_exceeded_sent: u64,
    /// Packets with no matching route.
    pub no_route: u64,
    /// Packets that took an alternate route on a `RouteFlip` injection.
    pub route_flips: u64,
    /// Frames tail-dropped at an egress queue.
    pub tail_drops: u64,
    /// Frames RED-dropped at an egress queue.
    pub red_drops: u64,
    /// ARP requests sent.
    pub arp_requests: u64,
    /// ARP replies sent.
    pub arp_replies: u64,
    /// Packets parked awaiting ARP resolution.
    pub arp_parked: u64,
}

/// A store-and-forward IP router.
pub struct Router {
    ports: Vec<PortState>,
    routes: Vec<RouterRoute>,
    /// Resolved next-hop MACs (interface addresses are unique across
    /// the topology, so one cache serves every port).
    arp: BTreeMap<Ipv4Addr, EtherAddr>,
    /// Packets waiting on ARP: next hop → (egress port, IP packet).
    pending: BTreeMap<Ipv4Addr, Vec<(usize, Vec<u8>)>>,
    /// Last ARP request time per next hop (rate limiting).
    last_arp_req: BTreeMap<Ipv4Addr, SimTime>,
    rng: Rng,
    obs: Observers,
    stats: RouterStats,
    drops: DropCounters,
}

/// Shared handle to a [`Router`].
pub type RouterHandle = Rc<RefCell<Router>>;

impl Router {
    /// Creates a router with no ports. The RED draw stream is forked
    /// from the simulation seed here.
    pub fn new(sim: &mut Sim) -> RouterHandle {
        Rc::new(RefCell::new(Router {
            ports: Vec::new(),
            routes: Vec::new(),
            arp: BTreeMap::new(),
            pending: BTreeMap::new(),
            last_arp_req: BTreeMap::new(),
            rng: sim.rng().fork(),
            obs: Observers::default(),
            stats: RouterStats::default(),
            drops: DropCounters::default(),
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
        let port = {
            let mut r = this.borrow_mut();
            r.ports.push(PortState {
                seg: seg.clone(),
                mac,
                ip,
                disc,
                depth: Rc::new(Cell::new(0)),
            });
            r.ports.len() - 1
        };
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
        self.drops
    }

    /// Current egress queue depth of `port` (frames admitted and not
    /// yet drained onto the wire).
    pub fn port_depth(&self, port: usize) -> usize {
        self.ports[port].depth.get()
    }

    /// Shared depth counter behind [`Router::port_depth`], for gauges
    /// that must read it without borrowing the router.
    pub fn port_depth_cell(&self, port: usize) -> Rc<Cell<usize>> {
        self.ports[port].depth.clone()
    }

    fn lookup(&self, dst: Ipv4Addr) -> Option<RouterRoute> {
        self.routes
            .iter()
            .filter(|r| r.matches(dst))
            .max_by_key(|r| u32::from(r.mask))
            .copied()
    }

    fn egress(&mut self, sim: &mut Sim, port: usize, frame: Vec<u8>) -> Option<DropReason> {
        let forced = match &self.obs.fault {
            Some(f) => f.borrow_mut().should_inject(FaultSite::LinkQueueFull),
            None => false,
        };
        match self.ports[port].admit(&mut self.rng, forced) {
            QueueVerdict::Enqueue => {
                self.ports[port].send(sim, frame);
                None
            }
            QueueVerdict::TailDrop => {
                self.stats.tail_drops += 1;
                self.drops.note(DropReason::QueueTailDrop);
                Some(DropReason::QueueTailDrop)
            }
            QueueVerdict::RedDrop => {
                self.stats.red_drops += 1;
                self.drops.note(DropReason::RedEarlyDrop);
                Some(DropReason::RedEarlyDrop)
            }
        }
    }

    /// Sends an IP packet out `port` to `next_hop`, resolving the MAC
    /// first. Returns the drop reason if the queue refused it; a
    /// packet parked for ARP counts as sent (it keeps a pending slot).
    fn send_ip(
        &mut self,
        sim: &mut Sim,
        port: usize,
        next_hop: Ipv4Addr,
        ip_bytes: Vec<u8>,
    ) -> Option<DropReason> {
        if let Some(&mac) = self.arp.get(&next_hop) {
            let hdr = EthernetHeader {
                dst: mac,
                src: self.ports[port].mac,
                ethertype: EtherType::Ipv4,
            };
            let mut frame = hdr.encode().to_vec();
            frame.extend_from_slice(&ip_bytes);
            return self.egress(sim, port, frame);
        }
        // Park the packet and (rate-limited) ask who-has.
        self.stats.arp_parked += 1;
        let q = self.pending.entry(next_hop).or_default();
        q.push((port, ip_bytes));
        if q.len() > ARP_PENDING_CAP {
            q.remove(0);
            self.drops.note(DropReason::ArpUnresolved);
        }
        let due = match self.last_arp_req.get(&next_hop) {
            None => true,
            Some(&at) => sim.now() >= at + ARP_REQUEST_GAP,
        };
        if due {
            self.last_arp_req.insert(next_hop, sim.now());
            self.stats.arp_requests += 1;
            let req = ArpPacket::request(self.ports[port].mac, self.ports[port].ip, next_hop);
            let hdr = EthernetHeader {
                dst: EtherAddr::BROADCAST,
                src: self.ports[port].mac,
                ethertype: EtherType::Arp,
            };
            let mut frame = hdr.encode().to_vec();
            frame.extend_from_slice(&req.encode());
            let _ = self.egress(sim, port, frame);
        }
        None
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
        let _ = self.send_ip(sim, route.port, next_hop, ip_bytes);
    }

    fn ip_input(dev: &Rc<RefCell<Router>>, sim: &mut Sim, port: usize, frame: &[u8]) {
        let mut r = dev.borrow_mut();
        let now = sim.now();
        let tracer = r.obs.trace.clone();
        let ip_bytes = &frame[ETHER_HDR_LEN..];
        let ip = match Ipv4Header::parse(ip_bytes) {
            Ok(h) if h.header_len == IPV4_HDR_LEN => h,
            _ => {
                r.drops.note(DropReason::MalformedFrame);
                terminate_current(&tracer, now, Terminal::Dropped(DropReason::MalformedFrame));
                return;
            }
        };
        if r.ports.iter().any(|p| p.ip == ip.dst) {
            r.stats.absorbed += 1;
            terminate_current(&tracer, now, Terminal::Absorbed);
            return;
        }
        if ip.ttl <= 1 {
            r.stats.ttl_expired += 1;
            r.drops.note(DropReason::TtlExpired);
            event_current(&tracer, now, "ttl-expired");
            terminate_current(&tracer, now, Terminal::Dropped(DropReason::TtlExpired));
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
                let hdr = Ipv4Header::new(r.ports[port].ip, ip.src, IpProto::Icmp, body.len());
                let mut pkt = hdr.encode().to_vec();
                pkt.extend_from_slice(&body);
                r.stats.time_exceeded_sent += 1;
                r.originate(sim, pkt);
            }
            return;
        }
        let Some(route) = r.lookup(ip.dst) else {
            r.stats.no_route += 1;
            r.drops.note(DropReason::NotForHost);
            terminate_current(&tracer, now, Terminal::Dropped(DropReason::NotForHost));
            return;
        };
        // Asymmetric routing: an armed RouteFlip sends this packet via
        // the alternate next hop. Only routes that have one consult the
        // site, so topologies without alternates never visit it.
        let (out_port, next_hop) = match route.alt {
            Some((alt_port, alt_hop)) => {
                let flip = match &r.obs.fault {
                    Some(f) => f.borrow_mut().should_inject(FaultSite::RouteFlip),
                    None => false,
                };
                if flip {
                    r.stats.route_flips += 1;
                    event_current(&tracer, now, "fault:route-flip");
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
        let mut out = ip_bytes.to_vec();
        out[..IPV4_HDR_LEN].copy_from_slice(&fwd.encode());
        match r.send_ip(sim, out_port, next_hop, out) {
            None => {
                r.stats.forwarded += 1;
                event_current(&tracer, now, "router-forward");
                terminate_current(&tracer, now, Terminal::Absorbed);
            }
            Some(reason) => {
                terminate_current(&tracer, now, Terminal::Dropped(reason));
            }
        }
    }

    fn arp_input(dev: &Rc<RefCell<Router>>, sim: &mut Sim, port: usize, frame: &[u8]) {
        let mut r = dev.borrow_mut();
        let now = sim.now();
        let tracer = r.obs.trace.clone();
        let Ok(arp) = ArpPacket::parse(&frame[ETHER_HDR_LEN..]) else {
            r.drops.note(DropReason::MalformedFrame);
            terminate_current(&tracer, now, Terminal::Dropped(DropReason::MalformedFrame));
            return;
        };
        // Learn the sender either way, and flush anything parked on it.
        r.arp.insert(arp.sender_ip, arp.sender_mac);
        if let Some(waiting) = r.pending.remove(&arp.sender_ip) {
            for (out_port, ip_bytes) in waiting {
                let _ = r.send_ip(sim, out_port, arp.sender_ip, ip_bytes);
            }
        }
        if arp.op == ArpOp::Request && arp.target_ip == r.ports[port].ip {
            r.stats.arp_replies += 1;
            let reply = arp.reply_to(r.ports[port].mac);
            let hdr = EthernetHeader {
                dst: arp.sender_mac,
                src: r.ports[port].mac,
                ethertype: EtherType::Arp,
            };
            let mut out = hdr.encode().to_vec();
            out.extend_from_slice(&reply.encode());
            let _ = r.egress(sim, port, out);
        }
        terminate_current(&tracer, now, Terminal::Absorbed);
    }
}

/// A router consults the fault plane ([`FaultSite::LinkQueueFull`] per
/// egress enqueue, [`FaultSite::RouteFlip`] per packet with an
/// alternate route) and the packet-lifecycle tracer.
impl Observable for Router {
    fn observers(&self) -> &Observers {
        &self.obs
    }

    fn set_observers(&mut self, obs: Observers) {
        self.obs = obs;
    }
}

impl NetNode for Router {
    fn frame_from_wire(dev: &Rc<RefCell<Router>>, sim: &mut Sim, port: usize, frame: Vec<u8>) {
        {
            let mut r = dev.borrow_mut();
            r.stats.rx_frames += 1;
        }
        let hdr = match EthernetHeader::parse(&frame) {
            Ok(h) => h,
            Err(_) => {
                let mut r = dev.borrow_mut();
                let tracer = r.obs.trace.clone();
                r.drops.note(DropReason::MalformedFrame);
                terminate_current(
                    &tracer,
                    sim.now(),
                    Terminal::Dropped(DropReason::MalformedFrame),
                );
                return;
            }
        };
        match hdr.ethertype {
            EtherType::Ipv4 => Router::ip_input(dev, sim, port, &frame),
            EtherType::Arp => Router::arp_input(dev, sim, port, &frame),
            EtherType::Other(_) => {
                let mut r = dev.borrow_mut();
                let tracer = r.obs.trace.clone();
                r.drops.note(DropReason::UnsupportedEtherType);
                terminate_current(
                    &tracer,
                    sim.now(),
                    Terminal::Dropped(DropReason::UnsupportedEtherType),
                );
            }
        }
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

    /// Two segments, a router port on each, directly attached routes.
    fn two_seg_router() -> (
        Sim,
        EthernetHandle,
        EthernetHandle,
        RouterHandle,
        Rc<RefCell<HostStation>>,
        Rc<RefCell<HostStation>>,
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
        assert_eq!(sw.borrow().stats().tail_drops, 0);
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
        let st = r.borrow().stats();
        assert!(st.tail_drops > 0, "burst overflows the 2-deep queue");
        assert_eq!(
            r.borrow().drops().get(DropReason::QueueTailDrop),
            st.tail_drops
        );
        assert_eq!(
            b.borrow().received.len() as u64 + st.tail_drops,
            9,
            "every packet either arrived or was counted as a tail drop"
        );
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
        let st = r.borrow().stats();
        assert!(st.red_drops > 0, "RED fired below the hard capacity");
        assert_eq!(st.tail_drops, 0, "hard limit never reached");
        assert_eq!(
            r.borrow().drops().get(DropReason::RedEarlyDrop),
            st.red_drops
        );
        assert_eq!(b.borrow().received.len() as u64 + st.red_drops, 5);
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
        assert_eq!(r.borrow().stats().tail_drops, 1);
        assert_eq!(r.borrow().drops().get(DropReason::QueueTailDrop), 1);
        assert_eq!(b.borrow().received.len(), 1, "only the warm-up arrived");
    }
}
