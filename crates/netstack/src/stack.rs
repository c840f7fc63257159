//! The stack driver: sockets, input dispatch, output encapsulation,
//! timers, and session migration.
//!
//! One [`NetStack`] instance is the protocol half of one *domain*: the
//! kernel (monolithic configurations), the operating system server, or
//! one application's library. All placements run this same code; see
//! the crate docs for what [`Placement`] changes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::{Rc, Weak};

use psd_mbuf::{give_frame, take_frame, MbufChain};
use psd_sim::{
    Charge, CostModel, Cpu, Discipline, DropCounters, DropReason, Layer, Medium, Op, PacketCtx,
    Sim, SimHandle, SimTime, Stage,
};
use psd_wire::{
    ArpOp, ArpPacket, EtherAddr, EtherType, EthernetHeader, IcmpMessage, IpProto, Ipv4Header,
    TcpHeader, UdpHeader, ETHER_HDR_LEN, IPV4_HDR_LEN, UDP_HDR_LEN,
};

use crate::arp::ArpCache;
use crate::icmp;
use crate::ip::{fragment, IpIdent, Reassembler};
use crate::route::RouteTable;
use crate::socket::{SockEvent, SockId, SocketError};
use crate::tcp::{SegmentSpec, Tcb, TcbSnapshot, TcpAction, TcpState, TcpTimer};
use crate::udp::{UdpPcb, UdpSnapshot, UDP_MAXDGRAM};
use crate::{InetAddr, Placement};

/// Leading room a transport output routine leaves in a fresh frame
/// buffer for the IP and Ethernet headers (BSD's `M_PREPEND` into
/// leading space): `ip_output` and `ether_output` fill their headers in
/// place instead of re-copying the packet behind a new one.
const IP_ROOM: usize = ETHER_HDR_LEN + IPV4_HDR_LEN;

/// A frame buffer holding `ip` and `payload` behind Ethernet-header
/// room, for the IP originators that do not come through a transport
/// output routine (fragments, ICMP).
fn link_frame(ip: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
    let mut frame = take_frame(IP_ROOM + payload.len());
    frame.resize(ETHER_HDR_LEN, 0);
    frame.extend_from_slice(&ip.encode());
    frame.extend_from_slice(payload);
    frame
}

/// How a stack instance reaches the wire. Implementations charge their
/// placement's transmit costs (trap + user→kernel copy for user-space
/// placements; device copy always) into the passed [`Charge`].
pub trait NetIf {
    /// The interface MAC address.
    fn mac(&self) -> EtherAddr;

    /// The interface MTU.
    fn mtu(&self) -> usize {
        1500
    }

    /// Transmits a complete Ethernet frame.
    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>);

    /// Hints that up to `n` frames are about to be transmitted
    /// back-to-back as one batch window, letting the interface amortize
    /// its per-crossing entry cost over the window. Interfaces that
    /// cannot batch ignore it (the default).
    fn tx_batch_hint(&self, _n: usize) {}

    /// Closes the batch window opened by
    /// [`tx_batch_hint`](NetIf::tx_batch_hint); subsequent transmits pay
    /// full price again.
    fn tx_batch_end(&self) {}
}

/// Per-socket event callback. Invoked via scheduled events, never while
/// the stack is borrowed, so it may call back into the stack.
pub type EventSink = Rc<RefCell<dyn FnMut(&mut Sim, SockId, SockEvent)>>;

/// Resolver upcall for library placements: ask the operating system
/// server for an ARP mapping (a control RPC, charged into the cursor).
pub(crate) type ArpResolver = Box<dyn FnMut(&mut Sim, &mut Charge, Ipv4Addr) -> Option<EtherAddr>>;

/// Hook invoked when a datagram arrives for which no local socket
/// exists. The server uses this to forward reassembled or exceptional
/// datagrams to sessions that have migrated into applications. Returns
/// true if the datagram was consumed.
pub(crate) type UnclaimedUdpHook =
    Rc<RefCell<dyn FnMut(&mut Sim, InetAddr, InetAddr, &[u8]) -> bool>>;

/// Hook consulted when a TCP segment matches no local socket, keyed by
/// `(local, remote)`. Returning true suppresses the RST — used by the
/// operating system server for sessions that have migrated into an
/// application (a stray segment must not reset a live connection).
pub(crate) type StrayTcpHook = Rc<RefCell<dyn FnMut(InetAddr, InetAddr) -> bool>>;

struct ListenState {
    backlog: usize,
    queue: Vec<SockId>,
}

enum SockState {
    Udp(UdpPcb),
    TcpUnbound {
        local: InetAddr,
    },
    TcpListen {
        local: InetAddr,
        listen: ListenState,
    },
    Tcp(Box<Tcb>),
}

struct SockEntry {
    state: SockState,
    sink: Option<EventSink>,
    timers: HashMap<TcpTimer, SimHandle>,
    /// Bumped whenever timers are invalidated wholesale (close,
    /// migration) so stale timer events turn into no-ops.
    generation: u64,
    /// Traced datagrams sitting in the socket queue, parallel to the
    /// UDP pcb's receive queue. Records the enqueue timestamp so the
    /// socket-queue span can be closed retroactively at dequeue.
    trace_q: std::collections::VecDeque<(PacketCtx, SimTime)>,
}

/// Counters exposed for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackStats {
    /// Frames handed to `input_frame`.
    pub(crate) frames_in: u64,
    /// TCP segments received / transmitted.
    pub tcp_in: u64,
    /// TCP segments sent.
    pub(crate) tcp_out: u64,
    /// TCP segments retransmitted.
    pub tcp_rexmt: u64,
    /// UDP datagrams received / transmitted.
    pub udp_in: u64,
    /// UDP datagrams sent.
    pub(crate) udp_out: u64,
    /// ICMP messages received.
    pub(crate) icmp_in: u64,
    /// ICMP Time Exceeded messages received (a router on the path
    /// expired one of our packets' TTL).
    pub(crate) icmp_time_exceeded: u64,
    /// Datagrams reassembled from fragments.
    pub(crate) reassembled: u64,
    /// GSO super-descriptors accepted by `udp_send_gso`.
    pub gso_supers: u64,
    /// Wire datagrams produced by segmenting GSO super-descriptors.
    pub gso_segments: u64,
    /// Per-reason drop counters. Always maintained, tracing or not:
    /// every drop site counts here through the one call that also
    /// reports it to the census and the tracer.
    pub drops: DropCounters,
}

/// The migration capsule: "the connection state variables" of §3.1.
#[derive(Debug, Clone)]
pub enum SessionState {
    /// A TCP session.
    Tcp(TcbSnapshot),
    /// A UDP session.
    Udp(UdpSnapshot),
}

/// Shared handle to a stack.
pub type StackHandle = Rc<RefCell<NetStack>>;

/// One protocol-stack instance.
pub struct NetStack {
    me: Weak<RefCell<NetStack>>,
    placement: Placement,
    costs: CostModel,
    cpu: Rc<RefCell<Cpu>>,
    ifnet: Option<Rc<dyn NetIf>>,
    /// This host's IP address.
    pub ip_addr: Ipv4Addr,
    /// Routing table (authoritative in the server, cached in apps).
    pub routes: RouteTable,
    /// ARP cache (authoritative in the server, cached in apps).
    pub arp: ArpCache,
    arp_authoritative: bool,
    arp_resolver: Option<ArpResolver>,
    unclaimed_udp: Option<UnclaimedUdpHook>,
    stray_tcp: Option<StrayTcpHook>,
    reasm: Reassembler,
    ident: IpIdent,
    socks: HashMap<SockId, SockEntry>,
    /// Sockets indexed by local port, so per-packet pcb lookup scans
    /// one bucket instead of every socket. A socket's local port is
    /// fixed at bind time (state transitions never change it), so the
    /// index only needs maintenance at creation, bind, and removal.
    by_port: HashMap<u16, Vec<SockId>>,
    /// Embryonic connections awaiting their listener: (listener, child).
    pending_children: Vec<(SockId, SockId)>,
    next_sock: u64,
    iss_clock: u32,
    tcp_bufs: (usize, usize),
    mss_cap: u16,
    /// The one TCP action list: every `Tcb` call pushes onto it and
    /// `run_tcp_actions` drains it, so its storage is reused from
    /// segment to segment. Empty between calls.
    tcp_actions: Vec<TcpAction>,
    /// Counters.
    pub stats: StackStats,
}

impl NetStack {
    /// Creates a stack for one domain.
    pub fn new(
        placement: Placement,
        costs: CostModel,
        cpu: Rc<RefCell<Cpu>>,
        ip_addr: Ipv4Addr,
    ) -> StackHandle {
        let handle = Rc::new(RefCell::new(NetStack {
            me: Weak::new(),
            placement,
            costs,
            cpu,
            ifnet: None,
            ip_addr,
            routes: RouteTable::new(),
            arp: ArpCache::new(),
            arp_authoritative: placement != Placement::Library,
            arp_resolver: None,
            unclaimed_udp: None,
            stray_tcp: None,
            reasm: Reassembler::new(),
            ident: IpIdent::default(),
            socks: HashMap::new(),
            by_port: HashMap::new(),
            pending_children: Vec::new(),
            next_sock: 1,
            iss_clock: 1,
            tcp_bufs: (8 * 1024, 24 * 1024),
            mss_cap: crate::tcp::DEFAULT_MSS,
            tcp_actions: Vec::new(),
            stats: StackStats::default(),
        }));
        handle.borrow_mut().me = Rc::downgrade(&handle);
        handle
    }

    /// Attaches the network interface.
    pub fn set_ifnet(&mut self, ifnet: Rc<dyn NetIf>) {
        self.ifnet = Some(ifnet);
    }

    /// Installs the ARP resolver upcall (library placements).
    pub fn set_arp_resolver(&mut self, resolver: ArpResolver) {
        self.arp_resolver = Some(resolver);
    }

    /// Installs the unclaimed-datagram hook (server placement).
    pub fn set_unclaimed_udp_hook(&mut self, hook: UnclaimedUdpHook) {
        self.unclaimed_udp = Some(hook);
    }

    /// Installs the stray-TCP-segment hook (server placement).
    pub fn set_stray_tcp_hook(&mut self, hook: StrayTcpHook) {
        self.stray_tcp = Some(hook);
    }

    /// Sends an ARP request for `ip` proactively (used by the server
    /// when an application asks for a mapping it does not have yet).
    pub fn arp_kick(&mut self, sim: &mut Sim, charge: &mut Charge, ip: Ipv4Addr) {
        if !self.arp_authoritative {
            return;
        }
        let now = charge.at();
        if self.arp.lookup(ip, now).is_some() {
            return;
        }
        let Some(next_hop) = self.routes.lookup(ip) else {
            return;
        };
        if !self.arp.request_due(next_hop, now) {
            return;
        }
        let ifnet = self.ifnet.clone().expect("no ifnet");
        let req = ArpPacket::request(ifnet.mac(), self.ip_addr, next_hop);
        let eth = EthernetHeader {
            dst: EtherAddr::BROADCAST,
            src: ifnet.mac(),
            ethertype: EtherType::Arp,
        };
        let mut frame = eth.encode().to_vec();
        frame.extend_from_slice(&req.encode());
        ifnet.transmit(sim, charge, frame);
    }

    /// Sets the default TCP buffer sizes `(send, receive)` for new and
    /// imported sockets. "For each system, we ran the throughput
    /// benchmarks with the best possible receive buffer size."
    pub fn set_tcp_buffers(&mut self, snd: usize, rcv: usize) {
        self.tcp_bufs = (snd, rcv);
    }

    /// The configured default TCP buffer sizes.
    pub fn tcp_buffers(&self) -> (usize, usize) {
        self.tcp_bufs
    }

    /// Caps the MSS of new connections below the Ethernet default —
    /// used to model 386BSD's large-packet bug (Table 2's NA cells: it
    /// could not send large TCP packets, so its connections ran with
    /// small segments).
    pub fn set_mss_cap(&mut self, mss: u16) {
        self.mss_cap = mss;
    }

    /// This stack's placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The host CPU (to open charges at entry points).
    pub fn cpu(&self) -> Rc<RefCell<Cpu>> {
        self.cpu.clone()
    }

    /// Performs `op` in this stack's protection domain.
    #[inline]
    fn op(&self, charge: &mut Charge, op: Op, layer: Layer) {
        charge.op(&self.costs, op, self.placement.domain(), layer);
    }

    /// `n` counted lock or priority-level transitions.
    #[inline]
    fn sync(&self, charge: &mut Charge, layer: Layer, n: u64) {
        self.op(charge, Op::Sync(self.placement.discipline(), n), layer);
    }

    /// The socket layer's `sblock`/`sbunlock` pairs: priced, and (unlike
    /// [`NetStack::sync`]) not counted.
    #[inline]
    fn sblock(&self, n: u64) -> Op {
        Op::QuietSync(self.placement.discipline(), n)
    }

    /// The medium of the socket layer's copyin/copyout.
    #[inline]
    fn user_copy(&self, n: usize) -> Op {
        match self.placement {
            Placement::Kernel => Op::BodyCopy(Medium::Kernel, n),
            _ => Op::BodyCopy(Medium::User, n),
        }
    }

    fn sock_port(state: &SockState) -> u16 {
        match state {
            SockState::Udp(pcb) => pcb.local.port,
            SockState::TcpUnbound { local } => local.port,
            SockState::TcpListen { local, .. } => local.port,
            SockState::Tcp(tcb) => tcb.local.port,
        }
    }

    fn index_sock(&mut self, id: SockId, port: u16) {
        self.by_port.entry(port).or_default().push(id);
    }

    fn unindex_sock(&mut self, id: SockId, port: u16) {
        if let Some(bucket) = self.by_port.get_mut(&port) {
            bucket.retain(|s| *s != id);
            if bucket.is_empty() {
                self.by_port.remove(&port);
            }
        }
    }

    fn alloc_sock(&mut self, state: SockState) -> SockId {
        let id = SockId(self.next_sock);
        self.next_sock += 1;
        let port = Self::sock_port(&state);
        self.socks.insert(
            id,
            SockEntry {
                state,
                sink: None,
                timers: HashMap::new(),
                generation: 0,
                trace_q: std::collections::VecDeque::new(),
            },
        );
        self.index_sock(id, port);
        id
    }

    // --- Socket management ---

    /// Creates a UDP socket.
    pub fn socket_udp(&mut self) -> SockId {
        self.alloc_sock(SockState::Udp(UdpPcb::new()))
    }

    /// Creates a TCP socket.
    pub fn socket_tcp(&mut self) -> SockId {
        self.alloc_sock(SockState::TcpUnbound {
            local: InetAddr::any(),
        })
    }

    /// Registers the socket's event sink.
    pub fn set_sink(&mut self, sock: SockId, sink: EventSink) {
        if let Some(e) = self.socks.get_mut(&sock) {
            e.sink = Some(sink);
        }
    }

    /// Binds the local endpoint. Port-namespace arbitration belongs to
    /// the operating system above this layer.
    pub fn bind(&mut self, sock: SockId, local: InetAddr) -> Result<(), SocketError> {
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let old_port = Self::sock_port(&e.state);
        match &mut e.state {
            SockState::Udp(pcb) => {
                pcb.local = local;
            }
            SockState::TcpUnbound { local: l } => {
                *l = local;
            }
            _ => return Err(SocketError::Invalid),
        }
        if old_port != local.port {
            self.unindex_sock(sock, old_port);
            self.index_sock(sock, local.port);
        }
        Ok(())
    }

    /// The socket's local endpoint.
    pub fn local_addr(&self, sock: SockId) -> Option<InetAddr> {
        self.socks.get(&sock).map(|e| match &e.state {
            SockState::Udp(pcb) => pcb.local,
            SockState::TcpUnbound { local } => *local,
            SockState::TcpListen { local, .. } => *local,
            SockState::Tcp(tcb) => tcb.local,
        })
    }

    /// The socket's remote endpoint, if connected.
    pub fn remote_addr(&self, sock: SockId) -> Option<InetAddr> {
        self.socks.get(&sock).and_then(|e| match &e.state {
            SockState::Udp(pcb) => pcb.remote,
            SockState::Tcp(tcb) => Some(tcb.remote),
            _ => None,
        })
    }

    /// Sets `TCP_NODELAY`.
    pub fn set_nodelay(&mut self, sock: SockId, nodelay: bool) {
        if let Some(SockEntry {
            state: SockState::Tcp(tcb),
            ..
        }) = self.socks.get_mut(&sock)
        {
            tcb.nodelay = nodelay;
        }
    }

    /// Moves a TCP socket to LISTEN.
    pub fn listen(&mut self, sock: SockId, backlog: usize) -> Result<(), SocketError> {
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        match &e.state {
            SockState::TcpUnbound { local } => {
                if local.port == 0 {
                    return Err(SocketError::Invalid);
                }
                e.state = SockState::TcpListen {
                    local: *local,
                    listen: ListenState {
                        backlog: backlog.max(1),
                        queue: Vec::new(),
                    },
                };
                Ok(())
            }
            _ => Err(SocketError::Invalid),
        }
    }

    /// Accepts an established connection from a listener's queue.
    pub fn accept(&mut self, sock: SockId) -> Result<SockId, SocketError> {
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        match &mut e.state {
            SockState::TcpListen { listen, .. } => {
                if listen.queue.is_empty() {
                    Err(SocketError::WouldBlock)
                } else {
                    Ok(listen.queue.remove(0))
                }
            }
            _ => Err(SocketError::Invalid),
        }
    }

    /// Pending connections on a listener.
    pub fn accept_queue_len(&self, sock: SockId) -> usize {
        match self.socks.get(&sock).map(|e| &e.state) {
            Some(SockState::TcpListen { listen, .. }) => listen.queue.len(),
            _ => 0,
        }
    }

    fn next_iss(&mut self) -> u32 {
        // BSD increments the ISS clock by 64k per connection (and per
        // tick); a deterministic counter serves the same purpose here.
        self.iss_clock = self.iss_clock.wrapping_add(64_000);
        self.iss_clock
    }

    /// Starts an active TCP open. The socket must be bound (the port
    /// manager above allocates ephemeral ports).
    pub fn connect_tcp(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        remote: InetAddr,
    ) -> Result<(), SocketError> {
        let iss = self.next_iss();
        let (snd, rcv) = self.tcp_bufs;
        let my_ip = self.ip_addr;
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let local = match &e.state {
            SockState::TcpUnbound { local } => {
                let mut l = *local;
                if l.ip == Ipv4Addr::UNSPECIFIED {
                    l.ip = my_ip;
                }
                if l.port == 0 {
                    return Err(SocketError::Invalid);
                }
                l
            }
            SockState::Tcp(_) => return Err(SocketError::IsConnected),
            _ => return Err(SocketError::Invalid),
        };
        let mut tcb = Tcb::new(local, remote, snd, rcv);
        tcb.mss = tcb.mss.min(self.mss_cap);
        tcb.connect(iss, &mut self.tcp_actions);
        e.state = SockState::Tcp(Box::new(tcb));
        self.run_tcp_actions(sim, charge, sock);
        Ok(())
    }

    /// Connects a UDP socket (sets the default/filtering remote).
    pub fn connect_udp(&mut self, sock: SockId, remote: InetAddr) -> Result<(), SocketError> {
        let my_ip = self.ip_addr;
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        match &mut e.state {
            SockState::Udp(pcb) => {
                if pcb.local.ip == Ipv4Addr::UNSPECIFIED {
                    pcb.local.ip = my_ip;
                }
                pcb.remote = Some(remote);
                Ok(())
            }
            _ => Err(SocketError::Invalid),
        }
    }

    // --- Data transfer ---

    /// `sosend` for TCP: copies `data` into the socket buffer and runs
    /// the output engine. Returns bytes accepted.
    pub fn tcp_send(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        data: &[u8],
    ) -> Result<usize, SocketError> {
        // Socket-layer entry: space check + mbuf allocation + copyin.
        // Charged only for bytes actually accepted: a would-block probe
        // corresponds to the blocked sender's sleep, which the Writable
        // wakeup path prices.
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let SockState::Tcp(tcb) = &mut e.state else {
            return Err(SocketError::NotConnected);
        };
        let now = charge.at();
        let n = tcb.send(data, now, &mut self.tcp_actions)?;
        self.op(charge, Op::Sosend, Layer::EntryCopyin);
        self.op(charge, self.sblock(1), Layer::EntryCopyin);
        if n > 0 {
            self.op(charge, self.user_copy(n), Layer::EntryCopyin);
        }
        let mbufs = 1 + n as u64 / psd_mbuf::MCLBYTES as u64;
        self.op(charge, Op::MbufAlloc(mbufs), Layer::EntryCopyin);
        self.run_tcp_actions(sim, charge, sock);
        Ok(n)
    }

    /// `soreceive` for TCP: copies buffered data out to the caller.
    /// Returns 0 at EOF; `WouldBlock` when no data is available yet.
    pub fn tcp_recv(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        buf: &mut [u8],
    ) -> Result<usize, SocketError> {
        let sblock = self.sblock(2);
        let domain = self.placement.domain();
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let SockState::Tcp(tcb) = &mut e.state else {
            return Err(SocketError::NotConnected);
        };
        if let Some(err) = tcb.error {
            return Err(err);
        }
        if tcb.readable() == 0 {
            if tcb.at_eof()
                || !matches!(
                    tcb.state,
                    TcpState::Established
                        | TcpState::SynSent
                        | TcpState::SynReceived
                        | TcpState::FinWait1
                        | TcpState::FinWait2
                )
            {
                return Ok(0);
            }
            return Err(SocketError::WouldBlock);
        }
        charge.op(&self.costs, Op::Soreceive, domain, Layer::CopyoutExit);
        charge.op(&self.costs, sblock, domain, Layer::CopyoutExit);
        let now = charge.at();
        let n = tcb.recv(buf, now, &mut self.tcp_actions);
        if n > 0 {
            self.op(charge, self.user_copy(n), Layer::CopyoutExit);
        }
        self.run_tcp_actions(sim, charge, sock);
        Ok(n)
    }

    /// `sosend` for UDP. In user-space placements the data is
    /// *referenced*, not copied ("the user data can be referenced
    /// instead of copied"); the kernel placement must copy it in.
    pub fn udp_send(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        data: &[u8],
        dst: Option<InetAddr>,
    ) -> Result<usize, SocketError> {
        if data.len() > UDP_MAXDGRAM {
            return Err(SocketError::MsgSize);
        }
        let (local, remote) = self.udp_resolve(sock, dst)?;

        // Socket entry. The library runs the specialized datagram fast
        // path (§4.3: "the user data can be referenced instead of
        // copied") — udp_output checksums and gathers straight from the
        // caller's buffer; the kernel and server run the stock BSD
        // sosend, which copies into mbufs.
        match self.placement {
            Placement::Library => {
                self.op(charge, Op::SosendDgram, Layer::EntryCopyin);
                self.udp_emit(
                    sim,
                    charge,
                    local,
                    remote,
                    std::iter::once(data),
                    data.len(),
                )?;
            }
            _ => {
                self.op(charge, Op::Sosend, Layer::EntryCopyin);
                self.op(charge, Op::SosendDgram, Layer::EntryCopyin);
                let copy = Op::BodyCopy(Medium::Kernel, data.len());
                self.op(charge, copy, Layer::EntryCopyin);
                self.op(charge, Op::MbufAlloc(1), Layer::EntryCopyin);
                let chain = MbufChain::from_slice(data);
                self.udp_emit(
                    sim,
                    charge,
                    local,
                    remote,
                    chain.iter_segments(),
                    data.len(),
                )?;
            }
        }
        Ok(data.len())
    }

    /// GSO super-descriptor send (the batched NEWAPI): one socket-layer
    /// entry covers the whole buffer, and the stack segments it into
    /// `seg`-byte datagrams at transmit. The wire frames are
    /// byte-for-byte what the same number of per-datagram
    /// [`udp_send`](Self::udp_send) calls would emit (same headers,
    /// same checksums, same IP ident sequence) — only the amortized
    /// entry charge differs.
    pub fn udp_send_gso(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        data: &Rc<Vec<u8>>,
        seg: usize,
        dst: Option<InetAddr>,
    ) -> Result<usize, SocketError> {
        let seg = seg.clamp(1, UDP_MAXDGRAM);
        let (local, remote) = self.udp_resolve(sock, dst)?;
        // One amortized socket entry for the super-descriptor; the
        // kernel/server placements still physically copy every byte in.
        match self.placement {
            Placement::Library => self.op(charge, Op::SosendDgram, Layer::EntryCopyin),
            _ => {
                self.op(charge, Op::Sosend, Layer::EntryCopyin);
                self.op(charge, Op::SosendDgram, Layer::EntryCopyin);
                let copy = Op::BodyCopy(Medium::Kernel, data.len());
                self.op(charge, copy, Layer::EntryCopyin);
            }
        }
        let mut off = 0;
        let mut segments = 0u64;
        while off < data.len() || (data.is_empty() && segments == 0) {
            let len = seg.min(data.len() - off);
            let body = &data[off..off + len];
            match self.placement {
                Placement::Library => {
                    self.udp_emit(sim, charge, local, remote, std::iter::once(body), len)?;
                }
                _ => {
                    self.op(charge, Op::MbufAlloc(1), Layer::EntryCopyin);
                    let chain = MbufChain::from_slice(body);
                    self.udp_emit(sim, charge, local, remote, chain.iter_segments(), len)?;
                }
            }
            off += len;
            segments += 1;
        }
        self.stats.gso_supers += 1;
        self.stats.gso_segments += segments;
        Ok(data.len())
    }

    /// Resolves the (local, remote) endpoints of a UDP send, applying
    /// the wildcard-IP and connected-socket rules.
    fn udp_resolve(
        &mut self,
        sock: SockId,
        dst: Option<InetAddr>,
    ) -> Result<(InetAddr, InetAddr), SocketError> {
        let my_ip = self.ip_addr;
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let SockState::Udp(pcb) = &mut e.state else {
            return Err(SocketError::Invalid);
        };
        if let Some(err) = pcb.error.take() {
            return Err(err);
        }
        let remote = match (dst, pcb.remote) {
            (Some(d), _) => d,
            (None, Some(r)) => r,
            (None, None) => return Err(SocketError::NotConnected),
        };
        let mut local = pcb.local;
        if local.ip == Ipv4Addr::UNSPECIFIED {
            local.ip = my_ip;
        }
        if local.port == 0 {
            return Err(SocketError::Invalid);
        }
        Ok((local, remote))
    }

    /// The shared tail of [`udp_send`](Self::udp_send) and
    /// [`udp_send_gso`](Self::udp_send_gso): udp_output for one datagram
    /// whose socket-layer entry has already been charged. `body` yields
    /// the datagram's `len` payload bytes; they are written once, into
    /// the frame buffer that goes to the wire.
    fn udp_emit<'a>(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        local: InetAddr,
        remote: InetAddr,
        body: impl Iterator<Item = &'a [u8]>,
        len: usize,
    ) -> Result<(), SocketError> {
        // udp_output: header + checksum over the data. The stock BSD
        // path re-validates the pcb route on every datagram and takes
        // the full spl dance; the library caches the session route in
        // its connected pcb.
        charge.site_push(self.placement.domain(), "udp_output");
        self.op(charge, Op::UdpOutput, Layer::TcpUdpOutput);
        match self.placement {
            Placement::Library => self.sync(charge, Layer::TcpUdpOutput, 1),
            _ => {
                self.sync(charge, Layer::TcpUdpOutput, 7);
                self.op(charge, Op::PcbLookup, Layer::TcpUdpOutput);
                self.op(charge, Op::RouteRevalidate, Layer::TcpUdpOutput);
            }
        }
        let mut udp = UdpHeader::new(local.port, remote.port, len);
        let ip = Ipv4Header::new(local.ip, remote.ip, IpProto::Udp, udp.len as usize);
        self.op(charge, Op::Checksum(UDP_HDR_LEN + len), Layer::TcpUdpOutput);
        let mut frame = take_frame(IP_ROOM + UDP_HDR_LEN + len);
        frame.resize(IP_ROOM + UDP_HDR_LEN, 0);
        for seg in body {
            frame.extend_from_slice(seg);
        }
        let (head, data) = frame[IP_ROOM..].split_at_mut(UDP_HDR_LEN);
        udp.checksum = udp.checksum_for(&ip, std::iter::once(&*data));
        head.copy_from_slice(&udp.encode());
        self.stats.udp_out += 1;
        let out = self.ip_output(sim, charge, remote.ip, IpProto::Udp, frame);
        charge.site_pop();
        out
    }

    /// Opens a transmit batch window on the interface (a batched
    /// doorbell hint); no-op when the interface does not batch.
    pub fn tx_batch_hint(&self, n: usize) {
        if let Some(ifnet) = &self.ifnet {
            ifnet.tx_batch_hint(n);
        }
    }

    /// Closes the transmit batch window.
    pub fn tx_batch_end(&self) {
        if let Some(ifnet) = &self.ifnet {
            ifnet.tx_batch_end();
        }
    }

    /// NEWAPI send (§4.2): the application and the protocol share the
    /// buffer, so no copy is made into the socket queue — the send
    /// queue references the caller's buffer directly. Only the
    /// socket-layer entry is charged.
    pub fn tcp_send_shared(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        data: Rc<Vec<u8>>,
    ) -> Result<usize, SocketError> {
        self.op(charge, Op::Sosend, Layer::EntryCopyin);
        self.sync(charge, Layer::EntryCopyin, 1);
        self.op(charge, Op::MbufAlloc(1), Layer::EntryCopyin);
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let SockState::Tcp(tcb) = &mut e.state else {
            return Err(SocketError::NotConnected);
        };
        if let Some(err) = tcb.error {
            return Err(err);
        }
        if !tcb.state.can_send() {
            return Err(SocketError::Shutdown);
        }
        let take = data.len().min(tcb.snd_buf.space());
        if take == 0 {
            return Err(SocketError::WouldBlock);
        }
        tcb.snd_buf
            .append(MbufChain::from_shared_range(data, 0, take));
        let now = charge.at();
        tcb.output(now, false, &mut self.tcp_actions);
        self.run_tcp_actions(sim, charge, sock);
        Ok(take)
    }

    /// NEWAPI receive (§4.2): hands the buffered chain to the caller
    /// without the final copy into a caller-supplied buffer. Returns up
    /// to `max` bytes as a chain sharing the socket buffer's storage.
    pub fn tcp_recv_chain(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        max: usize,
    ) -> Result<MbufChain, SocketError> {
        let sblock = self.sblock(2);
        let domain = self.placement.domain();
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let SockState::Tcp(tcb) = &mut e.state else {
            return Err(SocketError::NotConnected);
        };
        if let Some(err) = tcb.error {
            return Err(err);
        }
        if tcb.readable() == 0 {
            if tcb.at_eof() {
                return Ok(MbufChain::new());
            }
            return Err(SocketError::WouldBlock);
        }
        charge.op(&self.costs, Op::Soreceive, domain, Layer::CopyoutExit);
        charge.op(&self.costs, sblock, domain, Layer::CopyoutExit);
        let n = tcb.readable().min(max);
        let (chain, copied) = tcb.rcv_buf.copy_range(0, n);
        // Cluster-backed data is shared; only small-mbuf slop copies.
        if copied > 0 {
            let copy = Op::BodyCopy(Medium::User, copied);
            charge.op(&self.costs, copy, domain, Layer::CopyoutExit);
        }
        tcb.rcv_buf.drop_front(n);
        let now = charge.at();
        tcb.after_user_read(now, &mut self.tcp_actions);
        self.run_tcp_actions(sim, charge, sock);
        Ok(chain)
    }

    /// NEWAPI datagram receive: the datagram chain is handed over
    /// without a copy.
    pub fn udp_recv_chain(
        &mut self,
        _sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
    ) -> Result<(MbufChain, InetAddr), SocketError> {
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let SockState::Udp(pcb) = &mut e.state else {
            return Err(SocketError::Invalid);
        };
        if let Some(err) = pcb.error.take() {
            return Err(err);
        }
        let (from, chain) = pcb.dequeue().ok_or(SocketError::WouldBlock)?;
        if let Some((pkt, enq_t)) = e.trace_q.pop_front() {
            pkt.span_closed(Stage::SocketQueue, enq_t, charge.at());
            pkt.event(charge.at(), "app-recv");
        }
        self.op(charge, Op::Soreceive, Layer::CopyoutExit);
        self.op(charge, self.sblock(1), Layer::CopyoutExit);
        Ok((chain, from))
    }

    /// `soreceive` for UDP: dequeues one datagram into `buf`.
    pub fn udp_recv(
        &mut self,
        _sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        buf: &mut [u8],
    ) -> Result<(usize, InetAddr), SocketError> {
        let e = self.socks.get_mut(&sock).ok_or(SocketError::BadSocket)?;
        let SockState::Udp(pcb) = &mut e.state else {
            return Err(SocketError::Invalid);
        };
        if let Some(err) = pcb.error.take() {
            return Err(err);
        }
        let (from, chain) = pcb.dequeue().ok_or(SocketError::WouldBlock)?;
        if let Some((pkt, enq_t)) = e.trace_q.pop_front() {
            pkt.span_closed(Stage::SocketQueue, enq_t, charge.at());
            pkt.event(charge.at(), "app-recv");
        }
        // The library's datagram receive is the specialized fast path.
        let soreceive = match self.placement {
            Placement::Library => Op::SoreceiveDgram,
            _ => Op::Soreceive,
        };
        self.op(charge, soreceive, Layer::CopyoutExit);
        self.op(charge, self.sblock(1), Layer::CopyoutExit);
        let n = chain.len().min(buf.len());
        chain.copy_to_slice(0, &mut buf[..n]);
        if n > 0 {
            self.op(charge, self.user_copy(n), Layer::CopyoutExit);
        }
        Ok((n, from))
    }

    /// Bytes readable without blocking (data, or queued connections for
    /// a listener).
    pub fn readable(&self, sock: SockId) -> usize {
        match self.socks.get(&sock).map(|e| &e.state) {
            Some(SockState::Tcp(tcb)) => tcb.readable(),
            Some(SockState::Udp(pcb)) => pcb.rcv.len(),
            Some(SockState::TcpListen { listen, .. }) => listen.queue.len(),
            _ => 0,
        }
    }

    /// Send-buffer space available without blocking.
    pub fn writable(&self, sock: SockId) -> usize {
        match self.socks.get(&sock).map(|e| &e.state) {
            Some(SockState::Tcp(tcb)) => tcb.writable(),
            Some(SockState::Udp(_)) => UDP_MAXDGRAM,
            _ => 0,
        }
    }

    /// True when the peer closed and all data was consumed.
    pub fn at_eof(&self, sock: SockId) -> bool {
        match self.socks.get(&sock).map(|e| &e.state) {
            Some(SockState::Tcp(tcb)) => tcb.at_eof(),
            _ => false,
        }
    }

    /// The TCP state, if this is a connection socket.
    pub fn tcp_state(&self, sock: SockId) -> Option<TcpState> {
        match self.socks.get(&sock).map(|e| &e.state) {
            Some(SockState::Tcp(tcb)) => Some(tcb.state),
            _ => None,
        }
    }

    /// Number of live sockets (any protocol, any state).
    pub fn session_count(&self) -> usize {
        self.socks.len()
    }

    /// Order-independent aggregate TCP gauges for the metrics plane:
    /// `(connections, sum cwnd, sum ssthresh, sum rto_ns)` over every
    /// established TCB. Sums (not per-sock rows) because `socks` is a
    /// `HashMap` — iteration order must not leak into artifacts.
    pub fn tcp_gauges(&self) -> (u64, u64, u64, u64) {
        let mut conns = 0u64;
        let mut cwnd = 0u64;
        let mut ssthresh = 0u64;
        let mut rto_ns = 0u64;
        for e in self.socks.values() {
            if let SockState::Tcp(tcb) = &e.state {
                conns += 1;
                cwnd += u64::from(tcb.cwnd());
                ssthresh += u64::from(tcb.ssthresh());
                rto_ns += tcb.rto().as_nanos();
            }
        }
        (conns, cwnd, ssthresh, rto_ns)
    }

    // --- Close / teardown ---

    /// Orderly close. TCP runs the FIN handshake in the background; the
    /// socket is deallocated when it completes (or immediately for UDP).
    pub fn close(&mut self, sim: &mut Sim, charge: &mut Charge, sock: SockId) {
        let Some(e) = self.socks.get_mut(&sock) else {
            return;
        };
        match &mut e.state {
            SockState::Tcp(tcb) => {
                let now = charge.at();
                tcb.close(now, &mut self.tcp_actions);
                self.run_tcp_actions(sim, charge, sock);
            }
            SockState::TcpListen { listen, .. } => {
                // Abort queued, un-accepted connections.
                let pending = std::mem::take(&mut listen.queue);
                self.remove_sock(sim, sock);
                for child in pending {
                    self.abort(sim, charge, child);
                }
            }
            SockState::Udp(_) | SockState::TcpUnbound { .. } => {
                self.remove_sock(sim, sock);
            }
        }
    }

    /// Abortive close (RST for synchronized TCP).
    pub fn abort(&mut self, sim: &mut Sim, charge: &mut Charge, sock: SockId) {
        let Some(e) = self.socks.get_mut(&sock) else {
            return;
        };
        if let SockState::Tcp(tcb) = &mut e.state {
            tcb.abort(&mut self.tcp_actions);
            self.run_tcp_actions(sim, charge, sock);
        } else {
            self.remove_sock(sim, sock);
        }
    }

    fn remove_sock(&mut self, sim: &mut Sim, sock: SockId) {
        if let Some(e) = self.socks.remove(&sock) {
            self.unindex_sock(sock, Self::sock_port(&e.state));
            for (_, h) in e.timers {
                sim.cancel(h);
            }
        }
    }

    /// True if the socket still exists.
    pub fn exists(&self, sock: SockId) -> bool {
        self.socks.contains_key(&sock)
    }

    // --- Migration ---

    /// Exports a session's complete state, removing the socket from
    /// this stack. Pending timers are cancelled; the importing stack
    /// re-arms what it needs.
    pub fn export_session(&mut self, sim: &mut Sim, sock: SockId) -> Option<SessionState> {
        let mut e = self.socks.remove(&sock)?;
        self.unindex_sock(sock, Self::sock_port(&e.state));
        for (_, h) in e.timers.drain() {
            sim.cancel(h);
        }
        let state = match &mut e.state {
            SockState::Tcp(tcb) => Some(SessionState::Tcp(tcb.export())),
            SockState::Udp(pcb) => Some(SessionState::Udp(pcb.export())),
            _ => {
                // Unbound/listening sockets have no migratable state.
                None
            }
        };
        if state.is_some() {
            self.note_migration(sim);
        }
        state
    }

    /// Counts a capsule export/import in this domain. The capsule is
    /// priced by the RPC that carries it, which may run on another
    /// domain's charge, so the count is made on a charge of its own
    /// that prices nothing and is never finished.
    fn note_migration(&self, sim: &Sim) {
        let mut charge = self.cpu.borrow_mut().begin(sim.now());
        self.op(&mut charge, Op::Migration, Layer::Control);
    }

    /// Imports a session exported elsewhere. Buffers are resized to
    /// this stack's configured defaults (paper: buffers live in virtual
    /// memory and are reallocated on demand). Re-arms the
    /// retransmission timer if data is outstanding.
    pub fn import_session(&mut self, sim: &mut Sim, state: SessionState) -> SockId {
        self.note_migration(sim);
        match state {
            SessionState::Tcp(snap) => {
                let mut tcb = Tcb::import(snap);
                let (snd, rcv) = self.tcp_bufs;
                tcb.snd_buf.reserve(snd.max(tcb.snd_buf.hiwat()));
                tcb.rcv_buf.reserve(rcv.max(tcb.rcv_buf.hiwat()));
                let rto = tcb.rto();
                let outstanding = !tcb.snd_buf.is_empty();
                let sock = self.alloc_sock(SockState::Tcp(Box::new(tcb)));
                if outstanding {
                    self.arm_timer(sim, sock, TcpTimer::Rexmt, rto);
                }
                sock
            }
            SessionState::Udp(snap) => self.alloc_sock(SockState::Udp(UdpPcb::import(snap))),
        }
    }

    // --- Output path ---

    /// `frame` is a transport segment behind [`IP_ROOM`] bytes of
    /// leading room.
    fn ip_output(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        dst: Ipv4Addr,
        proto: IpProto,
        frame: Vec<u8>,
    ) -> Result<(), SocketError> {
        charge.site_push(self.placement.domain(), "ip_output");
        let out = self.ip_output_inner(sim, charge, dst, proto, frame);
        charge.site_pop();
        out
    }

    fn ip_output_inner(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        dst: Ipv4Addr,
        proto: IpProto,
        mut frame: Vec<u8>,
    ) -> Result<(), SocketError> {
        self.op(charge, Op::IpOutput, Layer::IpOutput);
        let mtu = self.ifnet.as_ref().map_or(1500, |i| i.mtu());
        let payload_len = frame.len() - IP_ROOM;
        let mut hdr = Ipv4Header::new(self.ip_addr, dst, proto, payload_len);
        hdr.ident = self.ident.next();
        if payload_len + IPV4_HDR_LEN > mtu {
            for (fh, fdata) in fragment(&hdr, &frame[IP_ROOM..], mtu) {
                self.ether_output(sim, charge, dst, link_frame(&fh, &fdata))?;
            }
            give_frame(frame);
            Ok(())
        } else {
            frame[ETHER_HDR_LEN..IP_ROOM].copy_from_slice(&hdr.encode());
            self.ether_output(sim, charge, dst, frame)
        }
    }

    /// `frame` is an IP packet behind [`ETHER_HDR_LEN`] bytes of leading
    /// room (which is also how it waits in the ARP pending queue).
    fn ether_output(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        dst: Ipv4Addr,
        frame: Vec<u8>,
    ) -> Result<(), SocketError> {
        self.op(charge, Op::EtherOutput, Layer::EtherOutput);
        self.sync(charge, Layer::EtherOutput, 3);
        let Some(next_hop) = self.routes.lookup(dst) else {
            return Err(SocketError::HostUnreach);
        };
        self.op(charge, Op::ArpLookup, Layer::EtherOutput);
        let now = charge.at();
        if let Some(mac) = self.arp.lookup(next_hop, now) {
            self.transmit_ip_frame(sim, charge, mac, frame);
            return Ok(());
        }
        // ARP miss.
        if self.arp_authoritative {
            if let Some(evicted) = self.arp.enqueue_pending(next_hop, frame) {
                self.arp_drop(charge);
                give_frame(evicted);
            }
            // Request whenever one is due — lost requests are retried
            // the next time queued traffic (e.g. a TCP SYN
            // retransmission) prompts resolution.
            if self.arp.request_due(next_hop, now) {
                let ifnet = self.ifnet.clone().expect("no ifnet");
                let req = ArpPacket::request(ifnet.mac(), self.ip_addr, next_hop);
                let eth = EthernetHeader {
                    dst: EtherAddr::BROADCAST,
                    src: ifnet.mac(),
                    ethertype: EtherType::Arp,
                };
                let mut frame = eth.encode().to_vec();
                frame.extend_from_slice(&req.encode());
                ifnet.transmit(sim, charge, frame);
            }
            Ok(())
        } else if let Some(mut resolver) = self.arp_resolver.take() {
            // Library placement: ask the operating system (control RPC,
            // charged by the resolver).
            let answer = resolver(sim, charge, next_hop);
            self.arp_resolver = Some(resolver);
            match answer {
                Some(mac) => {
                    let now = charge.at();
                    let drained = self.arp.insert(next_hop, mac, now);
                    debug_assert!(drained.is_empty());
                    self.transmit_ip_frame(sim, charge, mac, frame);
                    Ok(())
                }
                None => {
                    // The server is resolving; the packet is dropped
                    // and the protocol's own retransmission recovers.
                    self.arp_drop(charge);
                    Ok(())
                }
            }
        } else {
            self.arp_drop(charge);
            Ok(())
        }
    }

    /// Counts a packet lost for want of an ARP answer: a library
    /// stack's miss while the server resolves, or an overflow of the
    /// pending queue. Not the packet being received, if any.
    fn arp_drop(&mut self, charge: &mut Charge) {
        let domain = self.placement.domain();
        charge.drop_other(&mut self.stats.drops, DropReason::ArpUnresolved, domain);
    }

    /// Drops the packet being received for `reason`.
    fn discard(&mut self, charge: &mut Charge, reason: DropReason) {
        let domain = self.placement.domain();
        charge.drop_current(&mut self.stats.drops, reason, domain);
    }

    fn transmit_ip_frame(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        dst_mac: EtherAddr,
        mut frame: Vec<u8>,
    ) {
        let ifnet = self.ifnet.clone().expect("no ifnet");
        let eth = EthernetHeader {
            dst: dst_mac,
            src: ifnet.mac(),
            ethertype: EtherType::Ipv4,
        };
        self.op(charge, Op::EtherHeader, Layer::EtherOutput);
        frame[..ETHER_HDR_LEN].copy_from_slice(&eth.encode());
        ifnet.transmit(sim, charge, frame);
    }

    // --- Input path ---

    /// Feeds one received Ethernet frame into the stack. The caller has
    /// already charged interrupt/demultiplex/delivery costs; this
    /// charges mbuf packaging, `ipintr`, protocol input, and any
    /// wakeups.
    pub fn input_frame(&mut self, sim: &mut Sim, charge: &mut Charge, frame: &[u8]) {
        self.stats.frames_in += 1;
        let Ok(eth) = EthernetHeader::parse(frame) else {
            self.discard(charge, DropReason::MalformedFrame);
            return;
        };
        // Package the packet as an mbuf chain and queue it on the
        // protocol input queue. (The monolithic kernel does this inside
        // its netisr accounting — Table 4 shows zero for this row.)
        charge.site_push(self.placement.domain(), "input");
        if self.placement != Placement::Kernel {
            self.op(charge, Op::MbufAlloc(1), Layer::MbufQueue);
            self.op(charge, Op::InputQueue, Layer::MbufQueue);
            self.sync(charge, Layer::MbufQueue, 3);
        }
        match eth.ethertype {
            EtherType::Arp => self.arp_input(sim, charge, &frame[ETHER_HDR_LEN..], eth.src),
            EtherType::Ipv4 => self.ip_input(sim, charge, &frame[ETHER_HDR_LEN..]),
            EtherType::Other(_) => {
                self.discard(charge, DropReason::UnsupportedEtherType);
            }
        }
        charge.site_pop();
    }

    fn arp_input(&mut self, sim: &mut Sim, charge: &mut Charge, pkt: &[u8], _src: EtherAddr) {
        let Ok(arp) = ArpPacket::parse(pkt) else {
            self.discard(charge, DropReason::MalformedFrame);
            return;
        };
        charge.trace_event("arp");
        charge.trace_absorbed();
        let now = charge.at();
        // Learn the sender's mapping (all stacks cache; the server is
        // authoritative).
        let drained = self.arp.insert(arp.sender_ip, arp.sender_mac, now);
        for pending in drained {
            self.transmit_ip_frame(sim, charge, arp.sender_mac, pending);
        }
        if arp.op == ArpOp::Request && arp.target_ip == self.ip_addr && self.arp_authoritative {
            let ifnet = self.ifnet.clone().expect("no ifnet");
            let reply = arp.reply_to(ifnet.mac());
            let eth = EthernetHeader {
                dst: arp.sender_mac,
                src: ifnet.mac(),
                ethertype: EtherType::Arp,
            };
            let mut frame = eth.encode().to_vec();
            frame.extend_from_slice(&reply.encode());
            ifnet.transmit(sim, charge, frame);
        }
    }

    fn ip_input(&mut self, sim: &mut Sim, charge: &mut Charge, pkt: &[u8]) {
        charge.trace_span_start(Stage::NetstackIp);
        self.op(charge, Op::IpInput, Layer::IpIntr);
        self.sync(charge, Layer::IpIntr, 3);
        let Ok(hdr) = Ipv4Header::parse(pkt) else {
            self.discard(charge, DropReason::ChecksumError);
            return;
        };
        if hdr.dst != self.ip_addr && self.placement == Placement::Library {
            // Filters should prevent this; drop defensively.
            self.discard(charge, DropReason::NotForHost);
            return;
        }
        let payload = &pkt[hdr.header_len..usize::from(hdr.total_len)];
        if hdr.is_fragment() {
            let now = charge.at();
            // Age out stale partial datagrams first: their buffers are
            // reclaimed here, at the next fragment arrival, exactly as
            // BSD's slow-timeout based reaper would eventually do.
            let expired = self.reasm.expire(now);
            let (drops, domain) = (&mut self.stats.drops, self.placement.domain());
            for _ in 0..expired {
                charge.drop_other(drops, DropReason::ReassemblyTimeout, domain);
            }
            if let Some((whole, data)) = self.reasm.insert(&hdr, payload, now) {
                self.stats.reassembled += 1;
                self.dispatch_transport(sim, charge, &whole, &data);
            } else {
                // Held awaiting the rest of the datagram; the packet's
                // bytes live on in the reassembly buffer.
                charge.trace_event("reassembly-hold");
                charge.trace_absorbed();
            }
            return;
        }
        self.dispatch_transport(sim, charge, &hdr, payload);
    }

    fn dispatch_transport(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        ip: &Ipv4Header,
        payload: &[u8],
    ) {
        match ip.proto {
            IpProto::Udp => {
                charge.site_push(self.placement.domain(), "udp_input");
                self.udp_input(sim, charge, ip, payload);
                charge.site_pop();
            }
            IpProto::Tcp => {
                charge.site_push(self.placement.domain(), "tcp_input");
                self.tcp_input(sim, charge, ip, payload);
                charge.site_pop();
            }
            IpProto::Icmp => self.icmp_input(sim, charge, ip, payload),
            IpProto::Other(_) => {
                self.discard(charge, DropReason::UnsupportedProtocol);
            }
        }
    }

    fn udp_input(&mut self, sim: &mut Sim, charge: &mut Charge, ip: &Ipv4Header, pkt: &[u8]) {
        charge.trace_span_start(Stage::NetstackUdp);
        self.op(charge, Op::UdpInput, Layer::TcpUdpInput);
        self.sync(charge, Layer::TcpUdpInput, 1);
        let Ok(udp) = UdpHeader::parse(pkt) else {
            self.discard(charge, DropReason::MalformedFrame);
            return;
        };
        let data_len = usize::from(udp.len).saturating_sub(psd_wire::UDP_HDR_LEN);
        if pkt.len() < psd_wire::UDP_HDR_LEN + data_len {
            self.discard(charge, DropReason::TruncatedPayload);
            return;
        }
        let data = &pkt[psd_wire::UDP_HDR_LEN..psd_wire::UDP_HDR_LEN + data_len];
        self.op(charge, Op::Checksum(pkt.len()), Layer::TcpUdpInput);
        if !udp.verify(ip, pkt, std::iter::once(data)) {
            self.discard(charge, DropReason::ChecksumError);
            return;
        }
        self.stats.udp_in += 1;
        let dst = InetAddr::new(ip.dst, udp.dst_port);
        let src = InetAddr::new(ip.src, udp.src_port);

        // in_pcblookup: best-scoring pcb wins. A pcb can only match if
        // its local port equals the datagram's destination port, so the
        // scan is confined to that port's bucket.
        let mut best: Option<(SockId, u32)> = None;
        if let Some(bucket) = self.by_port.get(&udp.dst_port) {
            for id in bucket {
                let Some(e) = self.socks.get(id) else {
                    continue;
                };
                if let SockState::Udp(pcb) = &e.state {
                    if let Some(score) = pcb.match_score(dst, src) {
                        if best.is_none_or(|(_, s)| score > s) {
                            best = Some((*id, score));
                        }
                    }
                }
            }
        }
        let Some((sock, _)) = best else {
            // No local socket: give the server's forwarding hook a
            // chance (migrated sessions receiving reassembled
            // fragments), then ICMP port unreachable.
            if let Some(hook) = self.unclaimed_udp.clone() {
                if hook.borrow_mut()(sim, dst, src, data) {
                    // Forwarded to the session's new owner.
                    charge.trace_event("forward");
                    charge.trace_absorbed();
                    return;
                }
            }
            self.discard(charge, DropReason::PortUnreachable);
            if self.arp_authoritative {
                let mut quoted = ip.encode().to_vec();
                quoted.extend_from_slice(&pkt[..pkt.len().min(8)]);
                let (ih, ipayload) = icmp::port_unreachable(self.ip_addr, ip.src, &quoted);
                let _ = self.ether_output(sim, charge, ip.src, link_frame(&ih, &ipayload));
            }
            return;
        };
        // sbappendaddr + wakeup.
        self.op(charge, Op::SbAppend, Layer::TcpUdpInput);
        let e = self.socks.get_mut(&sock).expect("sock chosen above");
        let SockState::Udp(pcb) = &mut e.state else {
            unreachable!("scored as UDP");
        };
        let was_empty = pcb.rcv.is_empty();
        if pcb.enqueue(src, MbufChain::from_slice(data)) {
            let pkt = charge.packet();
            if pkt.is_traced() {
                e.trace_q.push_back((pkt, charge.at()));
            }
            charge.trace_delivered();
            self.notify(sim, charge, sock, SockEvent::Readable, was_empty);
        } else {
            self.discard(charge, DropReason::SocketOverflow);
        }
    }

    fn tcp_input(&mut self, sim: &mut Sim, charge: &mut Charge, ip: &Ipv4Header, pkt: &[u8]) {
        charge.trace_span_start(Stage::NetstackTcp);
        self.op(charge, Op::TcpInput, Layer::TcpUdpInput);
        self.sync(charge, Layer::TcpUdpInput, 2);
        let Ok((hdr, hdr_len)) = TcpHeader::parse(pkt) else {
            self.discard(charge, DropReason::MalformedFrame);
            return;
        };
        self.op(charge, Op::Checksum(pkt.len()), Layer::TcpUdpInput);
        if !TcpHeader::verify(
            ip,
            &pkt[..hdr_len],
            pkt.len() - hdr_len,
            std::iter::once(&pkt[hdr_len..]),
        ) {
            self.discard(charge, DropReason::ChecksumError);
            return;
        }
        self.stats.tcp_in += 1;
        let payload = &pkt[hdr_len..];
        let local = InetAddr::new(ip.dst, hdr.dst_port);
        let remote = InetAddr::new(ip.src, hdr.src_port);

        // Exact connection match first. Connections and listeners both
        // live in the destination port's bucket.
        let bucket = self.by_port.get(&hdr.dst_port);
        let mut target: Option<SockId> = None;
        if let Some(bucket) = bucket {
            for id in bucket {
                let Some(e) = self.socks.get(id) else {
                    continue;
                };
                if let SockState::Tcp(tcb) = &e.state {
                    if tcb.local == local && tcb.remote == remote && tcb.state != TcpState::Closed {
                        target = Some(*id);
                        break;
                    }
                }
            }
        }
        if target.is_none() {
            // Listener match (SYN only).
            if hdr.flags.contains(psd_wire::TcpFlags::SYN)
                && !hdr.flags.contains(psd_wire::TcpFlags::ACK)
            {
                if let Some(bucket) = self.by_port.get(&hdr.dst_port) {
                    for id in bucket {
                        let Some(e) = self.socks.get(id) else {
                            continue;
                        };
                        if let SockState::TcpListen { local: ll, .. } = &e.state {
                            if ll.port == local.port
                                && (ll.ip == Ipv4Addr::UNSPECIFIED || ll.ip == local.ip)
                            {
                                target = Some(*id);
                                break;
                            }
                        }
                    }
                }
                if let Some(listener) = target {
                    self.tcp_passive_open(sim, charge, listener, local, remote, &hdr);
                    return;
                }
            }
            // No socket. A session migrated into an application may
            // still see stragglers here; the server's hook suppresses
            // the RST for those (the application's copy is live).
            if let Some(hook) = self.stray_tcp.clone() {
                if hook.borrow_mut()(local, remote) {
                    // A migrated session's live copy will handle it.
                    charge.trace_event("stray-suppressed");
                    charge.trace_absorbed();
                    return;
                }
            }
            self.discard(charge, DropReason::ConnectionRefused);
            // A closed TCB answers with at most a RST and has no
            // timers, events or socket: run it under the null id.
            let mut closed = Tcb::new(local, remote, 0, 0);
            let now = charge.at();
            closed.input(&hdr, payload, now, &mut self.tcp_actions);
            self.run_tcp_actions(sim, charge, SockId(0));
            return;
        }
        let sock = target.expect("checked above");
        let now = charge.at();
        let e = self.socks.get_mut(&sock).expect("matched above");
        let SockState::Tcp(tcb) = &mut e.state else {
            unreachable!("matched as TCP");
        };
        tcb.input(&hdr, payload, now, &mut self.tcp_actions);
        self.run_tcp_actions(sim, charge, sock);
        // The segment's bytes merged into the connection's stream (or
        // were dropped by sequence-space checks inside the TCB); either
        // way TCP has consumed the packet.
        charge.trace_absorbed();
    }

    fn tcp_passive_open(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        listener: SockId,
        local: InetAddr,
        remote: InetAddr,
        syn: &TcpHeader,
    ) {
        // Backlog check: both completed (accept queue) and embryonic
        // (handshake in progress) connections count, as BSD's
        // `so_qlen + so_q0len` does.
        let embryonic = self
            .pending_children
            .iter()
            .filter(|(l, _)| *l == listener)
            .count();
        let full = match self.socks.get(&listener).map(|e| &e.state) {
            Some(SockState::TcpListen { listen, .. }) => {
                listen.queue.len() + embryonic >= listen.backlog
            }
            _ => true,
        };
        if full {
            // Drop the SYN; the peer retries.
            self.discard(charge, DropReason::ListenOverflow);
            return;
        }
        let iss = self.next_iss();
        let (snd, rcv) = self.tcp_bufs;
        let capped_mss = syn.mss.map(|m| m.min(self.mss_cap)).or(Some(self.mss_cap));
        let tcb = Tcb::accept_syn(
            local,
            remote,
            iss,
            syn.seq,
            capped_mss,
            syn.window,
            snd,
            rcv,
            &mut self.tcp_actions,
        );
        let child = self.alloc_sock(SockState::Tcp(Box::new(tcb)));
        // The child inherits the listener's sink so Connected is seen.
        let parent_sink = self.socks.get(&listener).and_then(|e| e.sink.clone());
        if let Some(sink) = parent_sink {
            self.set_sink(child, sink);
        }
        // Remember which listener owns this embryonic connection.
        self.pending_children.push((listener, child));
        self.run_tcp_actions(sim, charge, child);
        charge.trace_absorbed();
    }

    // --- TCP action execution ---

    /// Executes (and clears) the action list the preceding `Tcb` call
    /// filled for `sock`.
    fn run_tcp_actions(&mut self, sim: &mut Sim, charge: &mut Charge, sock: SockId) {
        // Nothing below calls back into a `Tcb`, so the list is not
        // refilled while it is out on loan.
        let mut actions = std::mem::take(&mut self.tcp_actions);
        let mut notified_readable = false;
        let mut notified_writable = false;
        for action in actions.drain(..) {
            match action {
                TcpAction::Send(spec) => self.emit_segment(sim, charge, &spec),
                TcpAction::SetTimer(kind, delay) => self.arm_timer(sim, sock, kind, delay),
                TcpAction::CancelTimer(kind) => {
                    if let Some(e) = self.socks.get_mut(&sock) {
                        if let Some(h) = e.timers.remove(&kind) {
                            sim.cancel(h);
                        }
                    }
                }
                TcpAction::Deliver { wake } => {
                    if !notified_readable {
                        notified_readable = true;
                        self.notify(sim, charge, sock, SockEvent::Readable, wake);
                    }
                }
                TcpAction::WakeWriters => {
                    if !notified_writable {
                        notified_writable = true;
                        self.notify(sim, charge, sock, SockEvent::Writable, false);
                    }
                }
                TcpAction::Connected => {
                    // If this is an embryonic child, move it to its
                    // listener's accept queue.
                    if let Some(pos) = self.pending_children.iter().position(|(_, c)| *c == sock) {
                        let (listener, child) = self.pending_children.remove(pos);
                        if let Some(SockEntry {
                            state: SockState::TcpListen { listen, .. },
                            ..
                        }) = self.socks.get_mut(&listener)
                        {
                            listen.queue.push(child);
                        }
                        self.notify(sim, charge, listener, SockEvent::Readable, true);
                    } else {
                        self.notify(sim, charge, sock, SockEvent::Connected, true);
                    }
                }
                TcpAction::PeerClosed => {
                    self.notify(sim, charge, sock, SockEvent::PeerClosed, true);
                }
                TcpAction::Fail(err) => {
                    self.pending_children.retain(|(_, c)| *c != sock);
                    self.notify(sim, charge, sock, SockEvent::Error(err), true);
                }
                TcpAction::Free => {
                    // Cancel timers; the entry itself stays until the
                    // owner closes the descriptor (so errors/EOF remain
                    // observable). The owner is told it may clean up.
                    if let Some(e) = self.socks.get_mut(&sock) {
                        e.generation += 1;
                        for (_, h) in e.timers.drain() {
                            sim.cancel(h);
                        }
                    }
                    self.notify(sim, charge, sock, SockEvent::Closed, false);
                }
            }
        }
        debug_assert!(
            self.tcp_actions.is_empty(),
            "action list refilled while draining"
        );
        self.tcp_actions = actions;
    }

    fn emit_segment(&mut self, sim: &mut Sim, charge: &mut Charge, spec: &SegmentSpec) {
        charge.site_push(self.placement.domain(), "tcp_output");
        self.stats.tcp_out += 1;
        if spec.rexmit {
            self.stats.tcp_rexmt += 1;
        }
        self.op(charge, Op::TcpOutput, Layer::TcpUdpOutput);
        // The sosend→tcp_output path raises/lowers the priority level
        // about seven times in BSD (sblock, sbappend, splnet around
        // output, sbunlock…) — cheap as hardware spl, expensive as the
        // server's emulation, light as user locks.
        self.sync(charge, Layer::TcpUdpOutput, 7);
        let mbufs = 1 + spec.data.mbuf_count() as u64;
        self.op(charge, Op::MbufAlloc(mbufs), Layer::TcpUdpOutput);
        let hdr = spec.header();
        let ip = Ipv4Header::new(
            spec.local.ip,
            spec.remote.ip,
            IpProto::Tcp,
            hdr.header_len() + spec.data.len(),
        );
        let sum = Op::Checksum(hdr.header_len() + spec.data.len());
        self.op(charge, sum, Layer::TcpUdpOutput);
        // The one write of this segment's bytes: header and gathered
        // body go behind the leading room the lower layers fill in.
        let hdr_len = hdr.header_len();
        let mut frame = take_frame(IP_ROOM + hdr_len + spec.data.len());
        frame.resize(IP_ROOM + hdr_len, 0);
        for seg in spec.data.iter_segments() {
            frame.extend_from_slice(seg);
        }
        let (head, body) = frame[IP_ROOM..].split_at_mut(hdr_len);
        hdr.encode_with_checksum(&ip, head, body.len(), std::iter::once(&*body));
        let _ = self.ip_output(sim, charge, spec.remote.ip, IpProto::Tcp, frame);
        charge.site_pop();
    }

    fn icmp_input(&mut self, sim: &mut Sim, charge: &mut Charge, ip: &Ipv4Header, pkt: &[u8]) {
        self.stats.icmp_in += 1;
        self.op(charge, Op::IcmpInput, Layer::TcpUdpInput);
        let Ok(msg) = IcmpMessage::parse(pkt) else {
            self.discard(charge, DropReason::ChecksumError);
            return;
        };
        charge.trace_event("icmp");
        charge.trace_absorbed();
        // Time Exceeded: a router dropped our packet for TTL. TCP's
        // own retransmission recovers; we count it so chaos tests can
        // assert the ICMP actually came back through the topology.
        if matches!(msg.kind, psd_wire::IcmpType::TimeExceeded(_)) {
            self.stats.icmp_time_exceeded += 1;
        }
        // Echo: answered by the authoritative (OS) stack.
        if self.arp_authoritative {
            if let Some((rip, rpayload)) = icmp::echo_reply(ip, &msg) {
                let _ = self.ether_output(sim, charge, rip.dst, link_frame(&rip, &rpayload));
                return;
            }
        }
        // Port unreachable → error on the matching connected UDP socket.
        if let Some((dst_ip, dst_port, src_port)) = icmp::parse_unreachable_udp(&msg) {
            let remote = Some(InetAddr::new(dst_ip, dst_port));
            // The bucket is in bind order, so if several sockets
            // qualify the earliest-bound one takes the error.
            let mut hit = None;
            for id in self.by_port.get(&src_port).into_iter().flatten() {
                if let Some(SockEntry {
                    state: SockState::Udp(pcb),
                    ..
                }) = self.socks.get_mut(id)
                {
                    if pcb.remote == remote {
                        pcb.error = Some(SocketError::ConnRefused);
                        hit = Some(*id);
                        break;
                    }
                }
            }
            if let Some(sock) = hit {
                self.notify(
                    sim,
                    charge,
                    sock,
                    SockEvent::Error(SocketError::ConnRefused),
                    true,
                );
            }
        }
    }

    // --- Timers and notification ---

    fn arm_timer(&mut self, sim: &mut Sim, sock: SockId, kind: TcpTimer, delay: SimTime) {
        let me = self.me.clone();
        let generation = self.socks.get(&sock).map_or(0, |e| e.generation);
        let handle = sim.after(delay, move |sim| {
            let Some(stack) = me.upgrade() else { return };
            let mut s = stack.borrow_mut();
            let s = &mut *s;
            let Some(e) = s.socks.get_mut(&sock) else {
                return;
            };
            if e.generation != generation {
                return; // Stale timer across close/migration.
            }
            e.timers.remove(&kind);
            let cpu = s.cpu.clone();
            let mut charge = cpu.borrow_mut().begin(sim.now());
            s.op(&mut charge, Op::TimerOp, Layer::Other);
            let now = charge.at();
            let Some(SockEntry {
                state: SockState::Tcp(tcb),
                ..
            }) = s.socks.get_mut(&sock)
            else {
                cpu.borrow_mut().finish(charge);
                return;
            };
            tcb.timer(kind, now, &mut s.tcp_actions);
            s.run_tcp_actions(sim, &mut charge, sock);
            cpu.borrow_mut().finish(charge);
        });
        if let Some(e) = self.socks.get_mut(&sock) {
            if let Some(old) = e.timers.insert(kind, handle) {
                sim.cancel(old);
            }
            // Charge the timer manipulation to the current path via the
            // caller's charge — done at call sites that care.
        } else {
            sim.cancel(handle);
        }
    }

    /// Fires a socket event to its sink (scheduled; the sink may call
    /// back into the stack). `charge_wakeup` prices waking the blocked
    /// application thread, which differs per placement.
    fn notify(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sock: SockId,
        event: SockEvent,
        charge_wakeup: bool,
    ) {
        let Some(e) = self.socks.get(&sock) else {
            return;
        };
        let Some(sink) = e.sink.clone() else {
            return;
        };
        if charge_wakeup {
            self.op(charge, Op::Wakeup, Layer::WakeupUserThread);
            // The library hands off between cthreads; the server's
            // emulated priority levels take seven transitions.
            let handoff = match self.placement {
                Placement::Kernel => None,
                Placement::Library => Some(Op::CthreadSwitch),
                Placement::Server => Some(Op::QuietSync(Discipline::ServerSpl, 7)),
            };
            if let Some(op) = handoff {
                self.op(charge, op, Layer::WakeupUserThread);
            }
        }
        let at = charge.at();
        sim.at(at, move |sim| {
            sink.borrow_mut()(sim, sock, event);
        });
    }
}

#[cfg(test)]
mod tests;
