//! The simulated microkernel: the user/kernel network interface.
//!
//! The paper's kernel "exports a packet send and receive interface"
//! (Figure 1). This crate provides it:
//!
//! - **Send**: [`Kernel::send_from_user`] is the low-latency system call
//!   applications use to transmit ("Applications send packets directly
//!   to the network interface using a low-latency system call"); it
//!   traps, copies the frame into a wired kernel buffer, and copies it
//!   to the device. A user-space stack's interface runs the same body
//!   ([`Kernel::user_send`]); the in-kernel stack's interface skips the
//!   trap and user copy.
//! - **Receive**: the kernel fields the device interrupt, demultiplexes
//!   with the installed per-session packet filters
//!   ([`psd_filter::DemuxTable`]), and delivers to the owning endpoint
//!   through one of three paths ([`RxMode`]):
//!   [`RxMode::Ipc`] (one Mach IPC message per packet),
//!   [`RxMode::Shm`] (copy into a ring shared with the application,
//!   lightweight wakeup amortized over packet trains), and
//!   [`RxMode::ShmIpf`] (the device-integrated filter: the body copy is
//!   deferred past demultiplexing and goes *directly* from device memory
//!   into the shared ring, eliminating the intermediate kernel-buffer
//!   copy).
//!
//! Every boundary crossing and copy is charged to the host CPU as a
//! priced [`Op`] of the calibrated [`CostModel`]; the crossings are
//! counted per layer in the operation census so Table 4's asterisks can
//! be regenerated.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use psd_filter::{
    CompiledFilter, CopyPlacement, DemuxStrategy, DemuxTable, EndpointSpec, FilterId,
    PlacementPolicy,
};
use psd_netdev::{Ethernet, EthernetHandle, Station};
use psd_sim::{
    Charge, CostModel, Cpu, Domain, DropCounters, DropReason, FaultSite, Layer, Medium, Op, Sim,
    SimTime, Stage, TraceHandle, TraceId,
};
use psd_wire::{
    EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, TcpFlags, TcpHeader, ETHER_HDR_LEN,
    IPV4_HDR_LEN,
};

/// Captures the tracing context of a charge — the tracer and the packet
/// currently being processed — so an asynchronous continuation (a
/// delivery closure, a deferred wakeup decision) can re-establish it.
fn trace_ctx(charge: &Charge) -> (Option<TraceHandle>, Option<TraceId>) {
    let tracer = charge.observers().trace.clone();
    let id = tracer.as_ref().and_then(|t| t.borrow().current());
    (tracer, id)
}

/// A recoverable kernel-interface failure. Fault paths report these
/// instead of panicking so injected faults surface as errors the
/// operating system can degrade around.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelError {
    /// The kernel is not attached to an Ethernet segment.
    NotConnected,
    /// The named endpoint does not exist (it may have been destroyed
    /// while the operation was in flight).
    UnknownEndpoint,
    /// The packet-filter table is full; no further session filters can
    /// be installed until one is removed.
    FilterTableFull,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::NotConnected => write!(f, "kernel not connected to a segment"),
            KernelError::UnknownEndpoint => write!(f, "unknown endpoint"),
            KernelError::FilterTableFull => write!(f, "packet-filter table full"),
        }
    }
}

/// How packets reach an endpoint's address space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RxMode {
    /// Each packet is delivered in its own IPC message (baseline).
    Ipc,
    /// Packets are copied into a shared-memory ring; the receiving
    /// thread is signalled only when idle, amortizing scheduling over
    /// packet trains.
    Shm,
    /// As [`RxMode::Shm`], with the filter integrated into the device
    /// driver: the packet body is copied once, from device memory
    /// directly into the ring (no intermediate kernel buffer).
    ShmIpf,
    /// The endpoint is the in-kernel protocol stack: input runs at
    /// interrupt level in the same charge, no boundary is crossed, and
    /// demultiplexing is a pcb lookup rather than a filter program.
    InKernel,
}

impl RxMode {
    /// True for the shared-memory variants.
    pub fn is_shm(self) -> bool {
        matches!(self, RxMode::Shm | RxMode::ShmIpf)
    }
}

/// Configuration of the batched NEWAPI data path (the §4.2 extension:
/// ROADMAP item 3). The default is the unbatched paper system; every
/// branch it enables is provably inert while it stays at the default.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchConfig {
    /// Descriptors moved per ring crossing: the first descriptor of
    /// each window of `batch` pays the boundary crossing and the
    /// wakeup, the rest ride the same doorbell. 1 = unbatched.
    pub batch: usize,
    /// GRO: coalesce in-order same-flow TCP data segments into one
    /// delivered descriptor before the ring crossing.
    pub gro: bool,
    /// GSO: allow super-descriptor sends that the stack segments at
    /// transmit under one amortized entry charge.
    pub gso: bool,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            batch: 1,
            gro: false,
            gso: false,
        }
    }
}

impl BatchConfig {
    /// The unbatched (paper) configuration.
    pub fn unbatched() -> BatchConfig {
        BatchConfig::default()
    }

    /// Batch size `b` with coalescing and segmentation enabled.
    pub fn full(b: usize) -> BatchConfig {
        BatchConfig {
            batch: b.max(1),
            gro: true,
            gso: true,
        }
    }

    /// True if any batching behavior differs from the unbatched system.
    pub fn enabled(&self) -> bool {
        self.batch > 1 || self.gro || self.gso
    }
}

/// Largest synthesized GRO frame: one two-cluster ring slot (2 ×
/// MCLBYTES). Coalescing never grows a descriptor past this; at the
/// standard 1460-byte MSS that caps a super-frame at two segments.
pub const GRO_MAX_FRAME: usize = 4096;

/// How long a partially filled GRO descriptor may be held before it is
/// flushed to its endpoint, in microseconds. Longer than the wire gap
/// between back-to-back small frames (~60 µs at 10 Mb/s), far shorter
/// than any TCP retransmission timeout.
pub const GRO_FLUSH_DELAY_US: u64 = 2_000;

/// TCP flow key: (src ip, src port, dst ip, dst port).
type GroFlow = (Ipv4Addr, u16, Ipv4Addr, u16);

/// A held, partially coalesced receive descriptor.
struct GroSlot {
    flow: GroFlow,
    eth: EthernetHeader,
    /// First segment's IP header; `total_len` is rewritten at flush.
    ip: Ipv4Header,
    /// First segment's TCP header; `ack`/`window` track the newest
    /// merged segment, `seq` stays at the head of the run.
    tcp: TcpHeader,
    payload: Vec<u8>,
    next_seq: u32,
    count: usize,
    /// Guards the deadline event: a slot flushed and re-created between
    /// schedule and fire has a different generation.
    generation: u64,
    tracer: Option<TraceHandle>,
    tid: Option<TraceId>,
}

impl GroSlot {
    /// Re-encodes the held run as one well-formed Ethernet frame. For a
    /// single-segment slot this reproduces the original frame (headers
    /// are only admitted if they round-trip canonically).
    fn synthesize(&self) -> Vec<u8> {
        let mut ip = self.ip;
        ip.total_len = (IPV4_HDR_LEN + self.tcp.header_len() + self.payload.len()) as u16;
        let mut f = self.eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        let tcp_at = f.len();
        f.resize(tcp_at + self.tcp.header_len(), 0);
        self.tcp.encode_with_checksum(
            &ip,
            &mut f[tcp_at..],
            self.payload.len(),
            std::iter::once(self.payload.as_slice()),
        );
        f.extend_from_slice(&self.payload);
        f
    }
}

/// A verified, coalescible TCP data segment.
struct GroSeg {
    eth: EthernetHeader,
    ip: Ipv4Header,
    tcp: TcpHeader,
    payload: Vec<u8>,
    /// TCP header + payload bytes (what the checksum verification
    /// walked, for cost accounting).
    tcp_len: usize,
}

impl GroSeg {
    fn flow(&self) -> GroFlow {
        (
            self.ip.src,
            self.tcp.src_port,
            self.ip.dst,
            self.tcp.dst_port,
        )
    }
}

/// Admits a frame to coalescing only if it is an unfragmented,
/// optionless IPv4 TCP segment carrying data under a pure ACK flag,
/// whose IP header round-trips canonically (valid checksum) and whose
/// TCP checksum verifies. Anything else — SYN/FIN/RST/PSH/URG, bare
/// ACKs, fragments, corrupt frames — is left for the normal path, so
/// the stack's own verdicts (including checksum drops) are unchanged.
fn gro_parse(frame: &[u8]) -> Option<GroSeg> {
    let eth = EthernetHeader::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Header::parse(frame.get(ETHER_HDR_LEN..)?).ok()?;
    if ip.header_len != 20 || ip.is_fragment() || ip.proto != IpProto::Tcp {
        return None;
    }
    if ip.encode()[..] != frame[ETHER_HDR_LEN..ETHER_HDR_LEN + IPV4_HDR_LEN] {
        return None;
    }
    // The wire pads short frames to the Ethernet minimum; the IP total
    // length bounds the real segment.
    let tp = frame.get(ETHER_HDR_LEN + IPV4_HDR_LEN..ETHER_HDR_LEN + ip.total_len as usize)?;
    let (tcp, thl) = TcpHeader::parse(tp).ok()?;
    if tcp.flags != TcpFlags::ACK {
        return None;
    }
    let payload = tp.get(thl..)?;
    if payload.is_empty() {
        return None;
    }
    if !TcpHeader::verify(&ip, &tp[..thl], payload.len(), std::iter::once(payload)) {
        return None;
    }
    Some(GroSeg {
        eth,
        ip,
        tcp,
        payload: payload.to_vec(),
        tcp_len: tp.len(),
    })
}

/// Bytes of `frame` that are link/network/transport headers — what a
/// kernel-resident (header-only) delivery materializes in the ring.
/// Unparseable frames are copied whole.
fn header_span(frame: &[u8]) -> usize {
    let full = frame.len();
    let Ok(eth) = EthernetHeader::parse(frame) else {
        return full;
    };
    if eth.ethertype != EtherType::Ipv4 {
        return full;
    }
    let Ok(ip) = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]) else {
        return full;
    };
    let net = ETHER_HDR_LEN + ip.header_len;
    let transport = match ip.proto {
        IpProto::Tcp => frame
            .get(net..)
            .and_then(|tp| TcpHeader::parse(tp).ok())
            .map_or(0, |(_, thl)| thl),
        IpProto::Udp => psd_wire::UDP_HDR_LEN,
        _ => 0,
    };
    (net + transport).min(full)
}

/// A receive endpoint identifier (one per installed session, plus the
/// operating system's catch-all).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EndpointId(pub u64);

/// Packet sink: invoked (via a scheduled event, never synchronously
/// within kernel context) with each delivered frame. The sink opens its
/// own CPU charge; the `SimTime` argument is when the packet became
/// available to the domain.
pub type PacketSink = Rc<RefCell<dyn FnMut(&mut Sim, SimTime, Vec<u8>)>>;

/// In-kernel sink: invoked synchronously at interrupt level with the
/// open receive charge (the in-kernel protocol stack).
pub type InKernelSink = Rc<RefCell<dyn FnMut(&mut Sim, &mut Charge, Vec<u8>)>>;

enum Sink {
    Async(PacketSink),
    InKernel(InKernelSink),
}

struct Endpoint {
    mode: RxMode,
    sink: Sink,
    /// For SHM modes: when the receiving network thread will next check
    /// the ring; arrivals before this need no wakeup.
    thread_busy_until: SimTime,
    filter: Option<FilterId>,
    /// Remaining descriptors in the current batch window that ride the
    /// doorbell the window's first descriptor already paid for. Always
    /// 0 while batching is off.
    batch_credit: usize,
}

/// Counters for the kernel network interface.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Frames transmitted for user tasks.
    pub tx_user: u64,
    /// Frames transmitted for the in-kernel stack.
    pub tx_kernel: u64,
    /// Frames received from the wire.
    pub rx_frames: u64,
    /// Frames delivered to a session endpoint.
    pub rx_session: u64,
    /// Frames delivered to the default (operating system) endpoint.
    pub rx_default: u64,
    /// Frames dropped because no endpoint claimed them.
    pub rx_unclaimed: u64,
    /// Wakeups skipped because the receiving thread was already busy
    /// (the SHM amortization).
    pub wakeups_amortized: u64,
    /// User transmissions rejected by the outbound packet limiter.
    pub tx_rejected: u64,
    /// Frames dropped because the kernel was not attached to a segment
    /// when the transmit event ran.
    pub tx_disconnected: u64,
    /// Frames dropped by an injected receive fault ([`FaultSite::NicRx`]).
    pub rx_faulted: u64,
    /// Cumulative filter instructions executed classifying received
    /// frames. Purely observational — the per-frame cost is charged to
    /// virtual time where it is incurred — but dividing the delta by
    /// `rx_frames` gives the per-packet demux cost the Table 5 scaling
    /// benchmark reports.
    pub filter_steps: u64,
    /// Always-on per-reason drop counters for every frame the kernel
    /// interface discards (typed mirror of the drop sites above; the
    /// same taxonomy terminates packet traces when a tracer is
    /// attached).
    pub drops: DropCounters,
    /// Delivery-path ring crossings actually charged (one per batch
    /// window, so `ceil(frames / batch)` per endpoint).
    pub rx_delivery_crossings: u64,
    /// The subset of [`rx_delivery_crossings`](KernelStats::rx_delivery_crossings)
    /// charged for session (non-default) endpoints — the numerator of
    /// Table 6's crossings/pkt.
    pub rx_session_crossings: u64,
    /// GRO descriptors held (runs started).
    pub gro_held: u64,
    /// Frames absorbed into a held GRO descriptor.
    pub gro_merged: u64,
    /// GRO descriptors flushed to their endpoint.
    pub gro_flushes: u64,
    /// GRO descriptors whose endpoint died while held; the synthesized
    /// frame was re-presented to the classify path (exactly-once).
    pub gro_requeued: u64,
    /// Deliveries where only the headers were materialized in the ring
    /// (selective-copy kernel-resident flows).
    pub header_only_deliveries: u64,
}

/// The simulated kernel for one host.
pub struct Kernel {
    me: std::rc::Weak<RefCell<Kernel>>,
    costs: CostModel,
    cpu: Rc<RefCell<Cpu>>,
    mac: EtherAddr,
    ether: Option<EthernetHandle>,
    demux: DemuxTable<EndpointId>,
    endpoints: HashMap<EndpointId, Endpoint>,
    default_endpoint: Option<EndpointId>,
    next_endpoint: u64,
    /// Optional outbound packet limiter (§3.4): "a packet limiting
    /// mechanism, if desired, could be implemented by checking each
    /// outgoing packet using a service similar to the packet filter."
    tx_limiter: Option<CompiledFilter>,
    /// Maximum number of installed session filters; `None` means
    /// unbounded (the seed behavior). A real filter table is a fixed
    /// kernel resource, and exhausting it must degrade, not abort.
    filter_capacity: Option<usize>,
    /// Endpoints using the integrated-filter (IPF) discipline. Kept as a
    /// count so the per-frame "is any receiver IPF?" decision does not
    /// scan every endpoint.
    ipf_endpoints: usize,
    /// Batched-NEWAPI configuration (default: unbatched, inert).
    batch: BatchConfig,
    /// Selective-copy placement policy consulted at filter-install time;
    /// `None` (the default) means every flow is eager.
    placement_policy: Option<PlacementPolicy>,
    /// Held GRO descriptors, at most one per endpoint (a session
    /// endpoint receives exactly one flow; cross-flow arrivals flush).
    gro: HashMap<EndpointId, GroSlot>,
    /// Monotone generation counter guarding GRO deadline events.
    gro_gen: u64,
    /// Packets handed to an asynchronous delivery channel (IPC message
    /// or SHM ring) and not yet consumed by the receiving sink. Shared
    /// so the metrics plane can read it without borrowing the kernel.
    ring_occupancy: Rc<Cell<u64>>,
    stats: KernelStats,
}

/// Shared handle to a [`Kernel`].
pub type KernelHandle = Rc<RefCell<Kernel>>;

impl Kernel {
    /// Creates a kernel with the given cost model and MAC address.
    pub fn new(costs: CostModel, cpu: Rc<RefCell<Cpu>>, mac: EtherAddr) -> KernelHandle {
        let handle = Rc::new(RefCell::new(Kernel {
            me: std::rc::Weak::new(),
            costs,
            cpu,
            mac,
            ether: None,
            demux: DemuxTable::new(DemuxStrategy::Mpf),
            endpoints: HashMap::new(),
            default_endpoint: None,
            next_endpoint: 1,
            tx_limiter: None,
            filter_capacity: None,
            ipf_endpoints: 0,
            batch: BatchConfig::default(),
            placement_policy: None,
            gro: HashMap::new(),
            gro_gen: 0,
            ring_occupancy: Rc::new(Cell::new(0)),
            stats: KernelStats::default(),
        }));
        handle.borrow_mut().me = Rc::downgrade(&handle);
        handle
    }

    /// Selects the demultiplexing strategy (default: MPF). Must be
    /// called before filters are installed.
    pub fn set_demux_strategy(&mut self, strategy: DemuxStrategy) {
        assert!(
            self.demux.is_empty(),
            "cannot change strategy with installed filters"
        );
        self.demux = DemuxTable::new(strategy);
    }

    /// Configures the batched NEWAPI data path. At the default
    /// configuration every batching branch is dead and the system is
    /// byte-identical to the unbatched paper system.
    pub fn set_batch_config(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    /// The batching configuration in force.
    pub fn batch_config(&self) -> BatchConfig {
        self.batch
    }

    /// Installs (or clears) the selective-copy placement policy.
    /// Consulted when session filters are installed; filters already in
    /// the table keep their verdicts, so set the policy before sessions
    /// are created.
    pub fn set_placement_policy(&mut self, policy: Option<PlacementPolicy>) {
        self.placement_policy = policy;
    }

    /// The selective-copy placement policy in force, if any.
    pub fn placement_policy(&self) -> Option<PlacementPolicy> {
        self.placement_policy.clone()
    }

    /// Attaches the kernel to an Ethernet segment. The caller must also
    /// attach the same handle as a [`Station`] on the segment.
    pub fn connect(this: &KernelHandle, ether: &EthernetHandle) {
        this.borrow_mut().ether = Some(ether.clone());
        ether.borrow_mut().attach(this.clone());
    }

    /// The cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The host CPU.
    pub fn cpu(&self) -> Rc<RefCell<Cpu>> {
        self.cpu.clone()
    }

    /// This interface's MAC address.
    pub fn mac(&self) -> EtherAddr {
        self.mac
    }

    /// Interface counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Packets currently in flight through an asynchronous delivery
    /// channel (IPC message queue or SHM ring), i.e. handed off by the
    /// interrupt path but not yet consumed by the receiving sink.
    pub fn ring_occupancy(&self) -> u64 {
        self.ring_occupancy.get()
    }

    /// Shared counter behind [`Kernel::ring_occupancy`], for gauges that
    /// must read it without borrowing the kernel.
    pub fn ring_occupancy_cell(&self) -> Rc<Cell<u64>> {
        self.ring_occupancy.clone()
    }

    /// Number of live receive endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    // --- Endpoint and filter management (invoked by the OS server) ---

    /// Creates a receive endpoint with an asynchronous delivery path.
    pub fn create_endpoint(&mut self, mode: RxMode, sink: PacketSink) -> EndpointId {
        assert!(mode != RxMode::InKernel, "use create_inkernel_endpoint");
        let id = EndpointId(self.next_endpoint);
        self.next_endpoint += 1;
        if mode == RxMode::ShmIpf {
            self.ipf_endpoints += 1;
        }
        self.endpoints.insert(
            id,
            Endpoint {
                mode,
                sink: Sink::Async(sink),
                thread_busy_until: SimTime::ZERO,
                filter: None,
                batch_credit: 0,
            },
        );
        id
    }

    /// Creates the in-kernel stack endpoint (synchronous, interrupt
    /// level).
    pub fn create_inkernel_endpoint(&mut self, sink: InKernelSink) -> EndpointId {
        let id = EndpointId(self.next_endpoint);
        self.next_endpoint += 1;
        self.endpoints.insert(
            id,
            Endpoint {
                mode: RxMode::InKernel,
                sink: Sink::InKernel(sink),
                thread_busy_until: SimTime::ZERO,
                filter: None,
                batch_credit: 0,
            },
        );
        id
    }

    /// Destroys an endpoint, removing any filter that targets it.
    pub fn destroy_endpoint(&mut self, id: EndpointId) {
        if let Some(ep) = self.endpoints.remove(&id) {
            if ep.mode == RxMode::ShmIpf {
                self.ipf_endpoints -= 1;
            }
            if let Some(fid) = ep.filter {
                self.demux.remove(fid);
            }
        }
        if self.default_endpoint == Some(id) {
            self.default_endpoint = None;
        }
    }

    /// Marks an endpoint as the default receiver for packets no session
    /// filter claims (the operating system server, or the in-kernel
    /// stack in monolithic configurations).
    pub fn set_default_endpoint(&mut self, id: EndpointId) {
        assert!(self.endpoints.contains_key(&id), "unknown endpoint");
        self.default_endpoint = Some(id);
    }

    /// Caps the number of installed session filters (`None` lifts the
    /// cap). Installations beyond the cap fail with
    /// [`KernelError::FilterTableFull`].
    pub fn set_filter_capacity(&mut self, capacity: Option<usize>) {
        self.filter_capacity = capacity;
    }

    /// The filter-table capacity in force, if any.
    pub fn filter_capacity(&self) -> Option<usize> {
        self.filter_capacity
    }

    /// Number of session filters currently installed.
    pub fn filters_installed(&self) -> usize {
        self.demux.len()
    }

    /// Installs a session packet filter routing `spec` to `endpoint`.
    /// Only the operating system may call this (§3.1: the OS creates
    /// and installs a new packet filter for each network session).
    /// Fails — recoverably — if the endpoint is gone or the filter
    /// table is full; the caller is expected to degrade to the server
    /// path rather than abort.
    pub fn install_filter(
        &mut self,
        spec: EndpointSpec,
        endpoint: EndpointId,
    ) -> Result<FilterId, KernelError> {
        if !self.endpoints.contains_key(&endpoint) {
            return Err(KernelError::UnknownEndpoint);
        }
        if let Some(cap) = self.filter_capacity {
            if self.demux.len() >= cap {
                return Err(KernelError::FilterTableFull);
            }
        }
        let placement = self.placement_policy.as_ref().map(|p| p.classify(&spec));
        let fid = self.demux.install(spec, endpoint);
        if let Some(placement) = placement {
            self.demux.set_placement(fid, placement);
        }
        if let Some(ep) = self.endpoints.get_mut(&endpoint) {
            ep.filter = Some(fid);
        }
        Ok(fid)
    }

    /// Removes a session filter.
    pub fn remove_filter(&mut self, id: FilterId) -> bool {
        // Filter ids are never reused, and an install records the id on
        // exactly one endpoint, so the demux owner is the only endpoint
        // that can hold a live reference to `id`.
        if let Some(&owner) = self.demux.owner(id) {
            if let Some(ep) = self.endpoints.get_mut(&owner) {
                if ep.filter == Some(id) {
                    ep.filter = None;
                }
            }
        }
        self.demux.remove(id)
    }

    /// Retargets a session filter to a different endpoint — the atomic
    /// switch used when a session migrates between the operating system
    /// and an application.
    pub fn retarget_filter(&mut self, id: FilterId, endpoint: EndpointId) -> Option<FilterId> {
        let spec = self.demux.spec(id)?;
        self.demux.remove(id);
        // The removal above freed a table slot, so installation can only
        // fail if the target endpoint is gone.
        self.install_filter(spec, endpoint).ok()
    }

    // --- Transmit paths ---

    /// Transmit on behalf of a user task: a trap plus a copy of the
    /// frame from user space into a wired kernel buffer, then the copy
    /// into device memory. (§4.3: "the protocol code traps into the
    /// kernel and copies the packet from user space into a wired kernel
    /// buffer before copying it to device memory".)
    pub fn send_from_user(this: &KernelHandle, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        charge.site_push(Domain::Kernel, "tx");
        Kernel::user_send(this, sim, charge, frame, true);
        charge.site_pop();
    }

    /// The body of [`Kernel::send_from_user`], which a user-space
    /// stack's interface also runs: `trap` is false for a frame that
    /// rides a batched doorbell an earlier frame's trap opened. Both
    /// copies are physical and always paid, and every frame passes the
    /// outbound limiter.
    pub fn user_send(
        this: &KernelHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        frame: Vec<u8>,
        trap: bool,
    ) {
        let k = &mut *this.borrow_mut();
        let out =
            |charge: &mut Charge, op| charge.op(&k.costs, op, Domain::Kernel, Layer::EtherOutput);
        if trap {
            out(charge, Op::Trap);
        }
        out(charge, Op::BodyCopy(Medium::Kernel, frame.len()));
        // Outbound packet limiter (§3.4), if installed: the frame is
        // checked after the copy into the wired buffer, before it
        // reaches the device.
        if let Some(limiter) = &k.tx_limiter {
            let run = limiter.run(&frame);
            out(charge, Op::FilterRun(run.steps, None));
            if !run.accepted {
                k.stats.tx_rejected += 1;
                k.stats.drops.note(DropReason::TxLimited);
                // Census-only: a transmit attempted while a received
                // packet is current must not terminate that packet.
                charge.count_drop(DropReason::TxLimited, Domain::Kernel);
                return;
            }
        }
        out(charge, Op::BodyCopy(Medium::DeviceWrite, frame.len()));
        Kernel::enqueue_tx(this, sim, charge.at(), frame, true);
    }

    /// Installs (or clears) the outbound packet limiter: a filter
    /// program that every user-originated frame must satisfy. The §3.4
    /// extension — not part of the measured system, priced like the
    /// receive filter when enabled (and, like it, lowered at install).
    pub fn set_tx_limiter(&mut self, program: Option<psd_filter::Program>) {
        self.tx_limiter = program.as_ref().map(CompiledFilter::compile);
    }

    /// Hands a fully charged frame to the wire at `ready`. Entirely
    /// event-scheduled, so it is safe to call from any context —
    /// including interrupt handlers where the kernel itself is
    /// currently borrowed.
    pub fn enqueue_tx(
        this: &KernelHandle,
        sim: &mut Sim,
        ready: SimTime,
        frame: Vec<u8>,
        from_user: bool,
    ) {
        let kernel = this.clone();
        sim.at(ready, move |sim| {
            let ether = {
                let mut k = kernel.borrow_mut();
                let Some(ether) = k.ether.clone() else {
                    // Detached from the segment (e.g. a fault between
                    // charge and handoff): the frame is dropped like any
                    // other wire loss, and the protocols recover.
                    k.stats.tx_disconnected += 1;
                    k.stats.drops.note(DropReason::TxDisconnected);
                    // No path is running: the drop is counted on a
                    // charge that prices nothing and is never finished.
                    let mut c = k.cpu.borrow_mut().begin(sim.now());
                    c.count_drop(DropReason::TxDisconnected, Domain::Kernel);
                    return;
                };
                if from_user {
                    k.stats.tx_user += 1;
                } else {
                    k.stats.tx_kernel += 1;
                }
                ether
            };
            Ethernet::transmit(&ether, sim, sim.now(), frame);
        });
    }
}

impl Station for Kernel {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn frame_arrived(&mut self, sim: &mut Sim, frame: Vec<u8>) {
        self.stats.rx_frames += 1;
        let mut charge = self.cpu.borrow_mut().begin(sim.now());
        // The charge ends inside this function on every path, so the
        // site needs no balancing pop.
        charge.site_push(Domain::Kernel, "rx");
        // Field the interrupt.
        charge.trace_span_start(Stage::NicRx);
        self.op(&mut charge, Op::Interrupt, Layer::DeviceIntrRead);
        self.op(&mut charge, Op::IntrPenalty, Layer::DeviceIntrRead);

        // Injected receive fault: the frame is lost at the interface,
        // after wire delivery but before demultiplexing. Protocols see
        // it as ordinary loss and recover by retransmission.
        if charge.fault(FaultSite::NicRx) {
            self.stats.rx_faulted += 1;
            self.stats.drops.note(DropReason::FaultInjected);
            charge.trace_event("fault:nic-rx");
            charge.trace_drop(DropReason::FaultInjected, Domain::Kernel);
            let cpu = self.cpu.clone();
            cpu.borrow_mut().finish(charge);
            return;
        }

        // Classify. The in-kernel endpoint short-circuits the filter:
        // the monolithic kernel demuxes with a pcb lookup after copying
        // the packet out of the device.
        let default = self.default_endpoint;
        let inkernel_sink = default
            .and_then(|id| self.endpoints.get(&id))
            .and_then(|ep| match (&ep.sink, ep.mode) {
                (Sink::InKernel(sink), RxMode::InKernel) => Some(sink.clone()),
                _ => None,
            });

        if self.demux.is_empty() {
            if let Some(sink) = inkernel_sink {
                // Copy device → wired kernel buffer at interrupt level.
                self.copy_to_kbuf(&mut charge, frame.len());
                charge.trace_span_end(Stage::NicRx);
                // netisr dispatch + in-kernel demux.
                charge.trace_span_start(Stage::FilterRun);
                self.op(&mut charge, Op::Netisr, Layer::NetisrPacketFilter);
                self.op(&mut charge, Op::PcbLookup, Layer::NetisrPacketFilter);
                charge.trace_span_end(Stage::FilterRun);
                self.stats.rx_default += 1;
                // Synchronous input at interrupt level, same charge. The
                // delivery span is closed by the packet's terminal state
                // inside the stack.
                charge.trace_span_start(Stage::DeliverInKernel);
                sink.borrow_mut()(sim, &mut charge, frame);
                let cpu = self.cpu.clone();
                cpu.borrow_mut().finish(charge);
                return;
            }
        }

        // Filtered paths. Does any installed session filter use the
        // integrated (IPF) discipline? If so the classification runs on
        // the packet header in device memory and the body copy is
        // deferred; otherwise the whole packet is first copied into a
        // kernel buffer (§4.1).
        let any_ipf = self.ipf_endpoints > 0;
        if !any_ipf {
            self.copy_to_kbuf(&mut charge, frame.len());
        }
        charge.trace_span_end(Stage::NicRx);

        charge.trace_span_start(Stage::FilterRun);
        self.op(&mut charge, Op::Netisr, Layer::NetisrPacketFilter);
        let result = self.demux.classify(&frame);
        self.stats.filter_steps += result.steps as u64;
        // Per-session attribution (§3.4's isolation): only the session
        // the packet is destined for is counted.
        let classify = if self.demux.is_empty() {
            Op::EmptyDemux(result.steps)
        } else {
            Op::FilterRun(result.steps, result.owner.map(|(_, id)| id.0))
        };
        self.op(&mut charge, classify, Layer::NetisrPacketFilter);
        charge.trace_span_end(Stage::FilterRun);

        let target = match result.owner {
            Some((_, id)) => {
                self.stats.rx_session += 1;
                Some(id)
            }
            None => {
                if default.is_some() {
                    self.stats.rx_default += 1;
                } else {
                    self.stats.rx_unclaimed += 1;
                }
                default
            }
        };
        let Some(id) = target else {
            // No session filter matched and no default endpoint exists.
            self.stats.drops.note(DropReason::FilterMiss);
            charge.trace_drop(DropReason::FilterMiss, Domain::Kernel);
            let cpu = self.cpu.clone();
            cpu.borrow_mut().finish(charge);
            return;
        };
        if !self.endpoints.contains_key(&id) {
            // The endpoint was destroyed while the frame was in flight.
            self.stats.drops.note(DropReason::EndpointDead);
            charge.trace_drop(DropReason::EndpointDead, Domain::Kernel);
            let cpu = self.cpu.clone();
            cpu.borrow_mut().finish(charge);
            return;
        }
        // GRO gate: with coalescing on, eligible TCP data segments are
        // absorbed into a held per-endpoint descriptor and delivered as
        // one frame when the run closes (batch full, boundary segment,
        // or deadline). Off (the default) this is a dead branch.
        let frame = if self.batch.gro && self.batch.batch > 1 {
            match self.gro_ingest(sim, &mut charge, id, frame) {
                Some(frame) => frame,
                None => {
                    let cpu = self.cpu.clone();
                    cpu.borrow_mut().finish(charge);
                    return;
                }
            }
        } else {
            frame
        };
        self.deliver_endpoint(sim, &mut charge, id, frame);
        let cpu = self.cpu.clone();
        cpu.borrow_mut().finish(charge);
    }
}

impl Kernel {
    /// Performs `op` in the kernel.
    #[inline]
    fn op(&self, charge: &mut Charge, op: Op, layer: Layer) {
        charge.op(&self.costs, op, Domain::Kernel, layer);
    }

    /// Copies a received frame out of the device into a wired kernel
    /// buffer at interrupt level.
    fn copy_to_kbuf(&self, charge: &mut Charge, len: usize) {
        self.op(charge, Op::RxKbufSetup, Layer::DeviceIntrRead);
        let copy = Op::BodyCopy(Medium::DeviceRead, len);
        self.op(charge, copy, Layer::DeviceIntrRead);
    }

    /// Delivers a classified frame to its endpoint. With batching off
    /// and no placement policy this is byte-for-byte the pre-batching
    /// delivery path; otherwise the first descriptor of each window of
    /// `batch` pays the ring crossing and the wakeup (the doorbell
    /// amortization) and kernel-resident flows materialize only their
    /// headers in the ring.
    fn deliver_endpoint(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        id: EndpointId,
        frame: Vec<u8>,
    ) {
        let default = self.default_endpoint;
        let (mode, pay) = {
            let Some(ep) = self.endpoints.get_mut(&id) else {
                // The endpoint vanished between classify and delivery —
                // only reachable from a deferred GRO flush racing a
                // migration. Re-present the frame so the classify path
                // finds the session's new owner instead of dropping it.
                let me = self.me.clone();
                let at = charge.at();
                let (tracer, tid) = trace_ctx(charge);
                sim.at(at, move |sim| {
                    let Some(kernel) = me.upgrade() else { return };
                    let now = sim.now();
                    if let (Some(tr), Some(pkt)) = (&tracer, tid) {
                        tr.borrow_mut().event(pkt, now, "requeued");
                        tr.borrow_mut().push_current(pkt);
                    }
                    kernel.borrow_mut().frame_arrived(sim, frame);
                    if tid.is_some() {
                        if let Some(tr) = &tracer {
                            tr.borrow_mut().pop_current();
                        }
                    }
                });
                return;
            };
            // Doorbell amortization: the first descriptor of a batch
            // window pays the crossing and wakeup, the rest ride it.
            let pay = if ep.mode == RxMode::InKernel || self.batch.batch <= 1 {
                ep.batch_credit = 0;
                true
            } else if ep.batch_credit > 0 {
                ep.batch_credit -= 1;
                false
            } else {
                ep.batch_credit = self.batch.batch - 1;
                true
            };
            (ep.mode, pay)
        };
        charge.site_push(Domain::Kernel, "deliver");
        // Delivery crossings are attributed to the domain being entered:
        // the default endpoint is the operating system server, session
        // endpoints belong to applications.
        let entered = if Some(id) == default {
            Domain::Server
        } else {
            Domain::Library
        };
        if pay && mode != RxMode::InKernel {
            self.stats.rx_delivery_crossings += 1;
            if entered == Domain::Library {
                self.stats.rx_session_crossings += 1;
            }
        }
        // Selective-copy placement: kernel-resident session flows put
        // only their headers in the ring; the body stays in kernel
        // memory behind a pull handle.
        let placement = if mode == RxMode::InKernel {
            CopyPlacement::Eager
        } else {
            match (entered, self.endpoints[&id].filter) {
                (Domain::Library, Some(f)) => self.demux.placement(f),
                _ => CopyPlacement::Eager,
            }
        };
        let span = match placement {
            CopyPlacement::Eager => frame.len(),
            CopyPlacement::KernelResident => {
                self.stats.header_only_deliveries += 1;
                header_span(&frame)
            }
        };
        let copy: fn(Medium, usize) -> Op = match placement {
            CopyPlacement::Eager => Op::BodyCopy,
            CopyPlacement::KernelResident => Op::HeaderCopy,
        };
        let costs = &self.costs;
        let out =
            |charge: &mut Charge, op| charge.op(costs, op, Domain::Kernel, Layer::KernelCopyout);
        let cross = |charge: &mut Charge, op| charge.op(costs, op, entered, Layer::KernelCopyout);

        match mode {
            RxMode::InKernel => {
                // A session filter targeted the in-kernel stack (mixed
                // configurations): same synchronous treatment, but the
                // device copy was already made above.
                charge.trace_span_start(Stage::DeliverInKernel);
                let sink = match &self.endpoints[&id].sink {
                    Sink::InKernel(sink) => Some(sink.clone()),
                    Sink::Async(_) => None,
                };
                if let Some(sink) = sink {
                    sink.borrow_mut()(sim, charge, frame);
                }
            }
            RxMode::Ipc => {
                // One IPC message per packet window: copy into the
                // message and out in the receiver, plus a scheduling
                // wakeup for the window's first descriptor.
                charge.trace_span_start(Stage::DeliverIpc);
                if pay {
                    cross(charge, Op::IpcMessage);
                }
                out(charge, copy(Medium::KernelCached, span));
                if pay {
                    out(charge, Op::Wakeup);
                }
                charge.trace_span_end(Stage::DeliverIpc);
                let sink = match &self.endpoints[&id].sink {
                    Sink::Async(sink) => Some(sink.clone()),
                    Sink::InKernel(_) => None,
                };
                if let Some(sink) = sink {
                    let at = charge.at();
                    let (tracer, tid) = trace_ctx(charge);
                    let ring = self.ring_occupancy.clone();
                    ring.set(ring.get() + 1);
                    sim.at(at, move |sim| {
                        ring.set(ring.get() - 1);
                        if let (Some(tr), Some(pkt)) = (&tracer, tid) {
                            tr.borrow_mut().push_current(pkt);
                        }
                        let t = sim.now();
                        sink.borrow_mut()(sim, t, frame);
                        if tid.is_some() {
                            if let Some(tr) = &tracer {
                                tr.borrow_mut().pop_current();
                            }
                        }
                    });
                }
            }
            RxMode::Shm | RxMode::ShmIpf => {
                // SHM-IPF defers its single copy to here, device memory
                // → shared ring: no wired kernel buffer is set up (the
                // point of the integrated filter), only the ring
                // descriptor. Plain SHM makes its second copy, kernel
                // buffer → ring, from cache-warm kernel memory.
                let (stage, descriptors, medium) = match mode {
                    RxMode::ShmIpf => (Stage::DeliverShmIpf, 2, Medium::DeviceRead),
                    _ => (Stage::DeliverShmRing, 1, Medium::KernelCached),
                };
                charge.trace_span_start(stage);
                if pay {
                    cross(charge, Op::RingDoorbell(descriptors));
                }
                out(charge, copy(medium, span));
                charge.trace_span_end(stage);
                // The wakeup decision must be taken when the data lands
                // in the ring, after earlier deliveries have advanced
                // the thread's busy window — so it is deferred into an
                // event rather than decided with the stale state
                // visible at interrupt time.
                let ready = charge.at();
                let me = self.me.clone();
                let (tracer, tid) = trace_ctx(charge);
                self.ring_occupancy.set(self.ring_occupancy.get() + 1);
                // Both hops' captures fit `SmallFn`'s inline storage (this
                // one reaches the occupancy cell through `me`): a frame
                // costs no boxed closure on its way to the sink.
                sim.at(ready, move |sim| {
                    let Some(kernel) = me.upgrade() else { return };
                    let now = sim.now();
                    // This event runs after `frame_arrived` returned, so
                    // re-borrowing the kernel here cannot conflict.
                    let deliver = {
                        let k = &mut *kernel.borrow_mut();
                        let cpu = k.cpu.clone();
                        match k.endpoints.get(&id).map(|e| e.thread_busy_until) {
                            None => None,
                            Some(busy_until) => {
                                let at;
                                if !pay {
                                    // This descriptor rides the doorbell
                                    // its window's first descriptor
                                    // paid: no wakeup, no amortization
                                    // stat — the thread finds it on its
                                    // next ring scan.
                                    at = busy_until.max(now);
                                } else if now >= busy_until {
                                    // The network thread is idle: signal
                                    // it (condition variable +
                                    // scheduling).
                                    if let (Some(tr), Some(pkt)) = (&tracer, tid) {
                                        tr.borrow_mut().push_current(pkt);
                                    }
                                    let mut c = cpu.borrow_mut().begin(now);
                                    k.op(&mut c, Op::Wakeup, Layer::KernelCopyout);
                                    at = cpu.borrow_mut().finish(c);
                                    if tid.is_some() {
                                        if let Some(tr) = &tracer {
                                            tr.borrow_mut().pop_current();
                                        }
                                    }
                                    if let Some(ep) = k.endpoints.get_mut(&id) {
                                        ep.thread_busy_until = at;
                                    }
                                } else {
                                    // Thread still draining the ring: it
                                    // picks this packet up with no
                                    // further scheduling — the
                                    // amortization the SHM interface
                                    // exists for.
                                    at = busy_until;
                                    k.stats.wakeups_amortized += 1;
                                }
                                let Some(ep) = k.endpoints.get(&id) else {
                                    return;
                                };
                                let Sink::Async(sink) = &ep.sink else { return };
                                Some((sink.clone(), at))
                            }
                        }
                    };
                    let ring = kernel.borrow().ring_occupancy.clone();
                    match deliver {
                        Some((sink, at)) => {
                            let tracer = tracer.clone();
                            sim.at(at, move |sim| {
                                ring.set(ring.get() - 1);
                                if let (Some(tr), Some(pkt)) = (&tracer, tid) {
                                    tr.borrow_mut().push_current(pkt);
                                }
                                let t = sim.now();
                                sink.borrow_mut()(sim, t, frame);
                                if tid.is_some() {
                                    if let Some(tr) = &tracer {
                                        tr.borrow_mut().pop_current();
                                    }
                                }
                            });
                        }
                        None => {
                            // The endpoint died while the packet sat in
                            // the ring (its session migrated back
                            // mid-flight). The filter is gone with it,
                            // so re-presenting the frame lets the
                            // classify path find the session's new
                            // owner instead of leaking the packet.
                            ring.set(ring.get() - 1);
                            if let (Some(tr), Some(pkt)) = (&tracer, tid) {
                                tr.borrow_mut().event(pkt, now, "requeued");
                                tr.borrow_mut().push_current(pkt);
                            }
                            kernel.borrow_mut().frame_arrived(sim, frame);
                            if tid.is_some() {
                                if let Some(tr) = &tracer {
                                    tr.borrow_mut().pop_current();
                                }
                            }
                        }
                    }
                });
            }
        }
        charge.site_pop();
    }

    /// GRO admission: returns the frame to deliver now, or `None` if it
    /// was absorbed into (or started) a held per-endpoint descriptor.
    /// Coalescing is confined to eligible TCP data segments on eager
    /// session flows; everything else flushes any held run (preserving
    /// in-flow delivery order) and takes the normal path.
    fn gro_ingest(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        id: EndpointId,
        frame: Vec<u8>,
    ) -> Option<Vec<u8>> {
        if Some(id) == self.default_endpoint {
            return Some(frame);
        }
        let Some(ep) = self.endpoints.get(&id) else {
            return Some(frame);
        };
        if ep.mode == RxMode::InKernel {
            return Some(frame);
        }
        // Kernel-resident flows deliver headers only; coalescing bodies
        // that will never be materialized buys nothing and would change
        // the pull handle's framing.
        if let Some(f) = ep.filter {
            if self.demux.placement(f) == CopyPlacement::KernelResident {
                self.gro_flush_sync(sim, charge, id);
                return Some(frame);
            }
        }
        let Some(seg) = gro_parse(&frame) else {
            self.gro_flush_sync(sim, charge, id);
            return Some(frame);
        };
        // The admission checksum walk is real work, charged where the
        // netisr runs. (The stack will not checksum the synthesized
        // frame again for the merged segments — this charge replaces
        // it.)
        self.op(charge, Op::Checksum(seg.tcp_len), Layer::NetisrPacketFilter);
        let fits = self.gro.get(&id).is_some_and(|slot| {
            slot.flow == seg.flow()
                && seg.tcp.seq == slot.next_seq
                && slot.count < self.batch.batch
                && ETHER_HDR_LEN
                    + IPV4_HDR_LEN
                    + slot.tcp.header_len()
                    + slot.payload.len()
                    + seg.payload.len()
                    <= GRO_MAX_FRAME
        });
        if fits {
            let slot = self.gro.get_mut(&id).expect("checked above");
            slot.payload.extend_from_slice(&seg.payload);
            slot.tcp.ack = seg.tcp.ack;
            slot.tcp.window = seg.tcp.window;
            slot.next_seq = slot.next_seq.wrapping_add(seg.payload.len() as u32);
            slot.count += 1;
            let full = slot.count >= self.batch.batch;
            self.stats.gro_merged += 1;
            charge.trace_event("gro-merge");
            charge.trace_absorbed();
            if full {
                self.gro_flush_sync(sim, charge, id);
            }
            return None;
        }
        if self.gro.contains_key(&id) {
            // Same endpoint, unmergeable segment (gap, different flow,
            // or a full descriptor): close the held run first.
            self.gro_flush_sync(sim, charge, id);
        }
        // Start a new run and arm its flush deadline.
        self.gro_gen += 1;
        let generation = self.gro_gen;
        let (tracer, tid) = trace_ctx(charge);
        let next_seq = seg.tcp.seq.wrapping_add(seg.payload.len() as u32);
        self.gro.insert(
            id,
            GroSlot {
                flow: seg.flow(),
                eth: seg.eth,
                ip: seg.ip,
                tcp: seg.tcp,
                payload: seg.payload,
                next_seq,
                count: 1,
                generation,
                tracer,
                tid,
            },
        );
        self.stats.gro_held += 1;
        charge.trace_event("gro-hold");
        let me = self.me.clone();
        let deadline = charge.at() + SimTime::from_micros(GRO_FLUSH_DELAY_US);
        sim.at(deadline, move |sim| {
            Kernel::gro_deadline(&me, sim, id, generation);
        });
        None
    }

    /// Flushes the endpoint's held GRO descriptor (if any) into the
    /// normal delivery path under the current charge, re-establishing
    /// the held packet's tracing context.
    fn gro_flush_sync(&mut self, sim: &mut Sim, charge: &mut Charge, id: EndpointId) {
        let Some(slot) = self.gro.remove(&id) else {
            return;
        };
        self.stats.gro_flushes += 1;
        let frame = slot.synthesize();
        if let (Some(tr), Some(pkt)) = (&slot.tracer, slot.tid) {
            tr.borrow_mut().push_current(pkt);
        }
        charge.trace_event("gro-flush");
        self.deliver_endpoint(sim, charge, id, frame);
        if slot.tid.is_some() {
            if let Some(tr) = &slot.tracer {
                tr.borrow_mut().pop_current();
            }
        }
    }

    /// The deadline event for a held GRO descriptor: flushes it if the
    /// same run is still held (generation match). If the endpoint died
    /// while the descriptor was held, the synthesized frame is
    /// re-presented to the classify path so the session's new owner
    /// receives it exactly once.
    fn gro_deadline(
        me: &std::rc::Weak<RefCell<Kernel>>,
        sim: &mut Sim,
        id: EndpointId,
        generation: u64,
    ) {
        let Some(kernel) = me.upgrade() else { return };
        let (slot, cpu, alive) = {
            let mut k = kernel.borrow_mut();
            match k.gro.get(&id) {
                Some(slot) if slot.generation == generation => {}
                _ => return,
            }
            let slot = k.gro.remove(&id).expect("checked above");
            let alive = k.endpoints.contains_key(&id);
            if alive {
                k.stats.gro_flushes += 1;
            } else {
                k.stats.gro_requeued += 1;
            }
            (slot, k.cpu.clone(), alive)
        };
        let frame = slot.synthesize();
        let now = sim.now();
        if alive {
            if let (Some(tr), Some(pkt)) = (&slot.tracer, slot.tid) {
                tr.borrow_mut().push_current(pkt);
            }
            let mut charge = cpu.borrow_mut().begin(now);
            charge.trace_event("gro-flush");
            kernel
                .borrow_mut()
                .deliver_endpoint(sim, &mut charge, id, frame);
            cpu.borrow_mut().finish(charge);
        } else {
            // The endpoint died while the run was held: re-present the
            // synthesized frame so demultiplexing finds the session's
            // new owner (the PR 1 reclaim discipline, under batching).
            if let (Some(tr), Some(pkt)) = (&slot.tracer, slot.tid) {
                tr.borrow_mut().event(pkt, now, "requeued");
                tr.borrow_mut().push_current(pkt);
            }
            kernel.borrow_mut().frame_arrived(sim, frame);
        }
        if slot.tid.is_some() {
            if let Some(tr) = &slot.tracer {
                tr.borrow_mut().pop_current();
            }
        }
    }
}

/// Reports how long the endpoint's network thread will stay busy, used
/// by library receive paths to extend the amortization window while
/// they process a packet.
pub fn note_thread_busy(kernel: &KernelHandle, id: EndpointId, until: SimTime) {
    if let Some(ep) = kernel.borrow_mut().endpoints.get_mut(&id) {
        if until > ep.thread_busy_until {
            ep.thread_busy_until = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_sim::{Observable, OpKind};

    /// Captured `(delivery time, frame)` log shared with a sink.
    type DeliveryLog = Rc<RefCell<Vec<(SimTime, Vec<u8>)>>>;
    use psd_wire::{EtherType, EthernetHeader, IpProto, Ipv4Header, UdpHeader, UDP_HDR_LEN};
    use std::net::Ipv4Addr;

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn udp_frame(dst_mac: EtherAddr, dst: (Ipv4Addr, u16), payload_len: usize) -> Vec<u8> {
        let ip = Ipv4Header::new(A_IP, dst.0, IpProto::Udp, UDP_HDR_LEN + payload_len);
        let udp = UdpHeader::new(999, dst.1, payload_len);
        let eth = EthernetHeader {
            dst: dst_mac,
            src: EtherAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        f.extend_from_slice(&udp.encode());
        f.extend_from_slice(&vec![0xAAu8; payload_len]);
        f
    }

    struct Rig {
        sim: Sim,
        ether: EthernetHandle,
        kernel: KernelHandle,
    }

    /// What the layer-attribution tests read: charged time per layer
    /// from a profiler, boundary crossings per layer from a census,
    /// attached to a CPU as one observer set.
    struct Watch {
        prof: psd_sim::ProfileHandle,
        census: psd_sim::CensusHandle,
    }

    impl Watch {
        fn attach(cpu: &mut Cpu) -> Watch {
            let w = Watch {
                prof: psd_sim::Profiler::shared(),
                census: psd_sim::Census::shared(),
            };
            cpu.set_observers(psd_sim::Observers {
                profile: Some(w.prof.clone()),
                census: Some(w.census.clone()),
                ..Default::default()
            });
            w
        }

        fn total(&self, layer: Layer) -> SimTime {
            SimTime::from_nanos(self.prof.borrow().layer_ns(layer))
        }

        fn crossings(&self, layer: Layer) -> u64 {
            self.census
                .borrow()
                .layer_total(OpKind::BoundaryCrossing, layer)
        }
    }

    fn rig() -> Rig {
        let mut sim = Sim::new(1);
        let ether = Ethernet::ten_megabit(&mut sim);
        let cpu = Rc::new(RefCell::new(Cpu::new()));
        let kernel = Kernel::new(CostModel::decstation_5000_200(), cpu, EtherAddr::local(2));
        Kernel::connect(&kernel, &ether);
        Rig { sim, ether, kernel }
    }

    fn collect_sink() -> (PacketSink, DeliveryLog) {
        let log: DeliveryLog = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        let sink: PacketSink = Rc::new(RefCell::new(move |_: &mut Sim, t: SimTime, f: Vec<u8>| {
            l2.borrow_mut().push((t, f));
        }));
        (sink, log)
    }

    #[test]
    fn session_filter_routes_to_endpoint() {
        let mut r = rig();
        let (sink, log) = collect_sink();
        let (def_sink, def_log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            let ep = k.create_endpoint(RxMode::Ipc, sink);
            let def = k.create_endpoint(RxMode::Ipc, def_sink);
            k.set_default_endpoint(def);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7000), ep)
                .unwrap();
        }
        let f = udp_frame(EtherAddr::local(2), (B_IP, 7000), 10);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(def_log.borrow().len(), 0);
        let stats = r.kernel.borrow().stats();
        assert_eq!(stats.rx_session, 1);
        assert_eq!(stats.rx_default, 0);
    }

    #[test]
    fn unclaimed_packets_go_to_default() {
        let mut r = rig();
        let (def_sink, def_log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            let def = k.create_endpoint(RxMode::Ipc, def_sink);
            k.set_default_endpoint(def);
        }
        let f = udp_frame(EtherAddr::local(2), (B_IP, 12345), 10);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        r.sim.run_to_idle();
        assert_eq!(def_log.borrow().len(), 1);
        assert_eq!(r.kernel.borrow().stats().rx_default, 1);
    }

    #[test]
    fn unclaimed_without_default_dropped() {
        let mut r = rig();
        let f = udp_frame(EtherAddr::local(2), (B_IP, 1), 10);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        r.sim.run_to_idle();
        assert_eq!(r.kernel.borrow().stats().rx_unclaimed, 1);
    }

    #[test]
    fn security_isolation_between_endpoints() {
        // An application's endpoint must never receive another
        // session's packets (§3.4: "The kernel's packet filter ensures
        // that an application can only receive packets that are
        // destined for it").
        let mut r = rig();
        let (sink_a, log_a) = collect_sink();
        let (sink_b, log_b) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            let ep_a = k.create_endpoint(RxMode::Ipc, sink_a);
            let ep_b = k.create_endpoint(RxMode::Ipc, sink_b);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 1000), ep_a)
                .unwrap();
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 2000), ep_b)
                .unwrap();
        }
        for port in [1000u16, 1000, 2000] {
            let now = r.sim.now();
            let f = udp_frame(EtherAddr::local(2), (B_IP, port), 5);
            Ethernet::transmit(&r.ether, &mut r.sim, now, f);
            r.sim.run_to_idle();
        }
        assert_eq!(log_a.borrow().len(), 2);
        assert_eq!(log_b.borrow().len(), 1);
    }

    #[test]
    fn retarget_filter_moves_session_atomically() {
        let mut r = rig();
        let (sink_srv, log_srv) = collect_sink();
        let (sink_app, log_app) = collect_sink();
        let fid;
        let ep_app;
        {
            let mut k = r.kernel.borrow_mut();
            let ep_srv = k.create_endpoint(RxMode::Ipc, sink_srv);
            ep_app = k.create_endpoint(RxMode::Ipc, sink_app);
            fid = k
                .install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 9), ep_srv)
                .unwrap();
        }
        let f = udp_frame(EtherAddr::local(2), (B_IP, 9), 1);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f.clone());
        r.sim.run_to_idle();
        r.kernel.borrow_mut().retarget_filter(fid, ep_app);
        let now = r.sim.now();
        Ethernet::transmit(&r.ether, &mut r.sim, now, f);
        r.sim.run_to_idle();
        assert_eq!(log_srv.borrow().len(), 1);
        assert_eq!(log_app.borrow().len(), 1);
    }

    #[test]
    fn shm_amortizes_wakeups_for_packet_trains() {
        let mut r = rig();
        // The sink models a network thread that takes 500 µs to process
        // each packet, reporting its busy window back to the kernel so
        // that arrivals during processing skip the wakeup.
        let log: DeliveryLog = Rc::new(RefCell::new(Vec::new()));
        let ep_cell: Rc<std::cell::Cell<Option<EndpointId>>> = Rc::new(std::cell::Cell::new(None));
        let kernel2 = r.kernel.clone();
        let log2 = log.clone();
        let ep2 = ep_cell.clone();
        let sink: PacketSink = Rc::new(RefCell::new(move |_: &mut Sim, t: SimTime, f: Vec<u8>| {
            log2.borrow_mut().push((t, f));
            if let Some(id) = ep2.get() {
                note_thread_busy(&kernel2, id, t + SimTime::from_micros(500));
            }
        }));
        {
            let mut k = r.kernel.borrow_mut();
            let ep = k.create_endpoint(RxMode::Shm, sink);
            ep_cell.set(Some(ep));
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7), ep)
                .unwrap();
        }
        // A train of back-to-back frames: the wire serializes them
        // ~60 µs apart while the first delivery reserves the thread.
        for _ in 0..5 {
            let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 1);
            Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        }
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 5);
        let stats = r.kernel.borrow().stats();
        assert!(
            stats.wakeups_amortized >= 3,
            "expected amortized wakeups, got {}",
            stats.wakeups_amortized
        );
    }

    #[test]
    fn ipc_mode_never_amortizes() {
        let mut r = rig();
        let (sink, log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            let ep = k.create_endpoint(RxMode::Ipc, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7), ep)
                .unwrap();
        }
        for _ in 0..5 {
            let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 1);
            Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        }
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 5);
        assert_eq!(r.kernel.borrow().stats().wakeups_amortized, 0);
    }

    #[test]
    fn ipf_defers_device_copy() {
        // With an IPF endpoint installed, DeviceIntrRead must be flat
        // (no per-byte device read at interrupt time); the body copy is
        // charged to KernelCopyout instead.
        let mut r = rig();
        let watch = Watch::attach(&mut r.kernel.borrow().cpu().borrow_mut());
        let (sink, _log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            let ep = k.create_endpoint(RxMode::ShmIpf, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7), ep)
                .unwrap();
        }
        let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 1400);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        r.sim.run_to_idle();
        let intr = watch.total(Layer::DeviceIntrRead);
        let copyout = watch.total(Layer::KernelCopyout);
        let costs = CostModel::decstation_5000_200();
        assert!(
            intr < SimTime::from_nanos(costs.intr_dispatch + 20_000),
            "interrupt path should be flat, was {intr}"
        );
        assert!(
            copyout > SimTime::from_nanos(costs.dev_read_byte * 1400),
            "body copy belongs to copyout, was {copyout}"
        );
    }

    #[test]
    fn send_from_user_charges_trap_and_copies() {
        // The trap, then a frame riding the doorbell it opened: both pay
        // the two copies, only the first pays (and counts) the trap.
        let mut r = rig();
        let cpu = r.kernel.borrow().cpu();
        let watch = Watch::attach(&mut cpu.borrow_mut());
        let frame = || udp_frame(EtherAddr::local(9), (B_IP, 7), 100);
        let flen = frame().len() as u64;
        let mut charge = cpu.borrow_mut().begin(r.sim.now());
        Kernel::send_from_user(&r.kernel, &mut r.sim, &mut charge, frame());
        Kernel::user_send(&r.kernel, &mut r.sim, &mut charge, frame(), false);
        cpu.borrow_mut().finish(charge);
        r.sim.run_to_idle();
        let costs = CostModel::decstation_5000_200();
        let expect = costs.trap + 2 * (costs.kcopy_byte + costs.dev_write_byte) * flen;
        assert_eq!(watch.total(Layer::EtherOutput), SimTime::from_nanos(expect));
        assert_eq!(watch.crossings(Layer::EtherOutput), 1);
        assert_eq!(r.kernel.borrow().stats().tx_user, 2);
        assert_eq!(r.ether.borrow().stats().tx_frames, 2);
    }

    #[test]
    fn inkernel_endpoint_runs_in_interrupt_charge() {
        let mut r = rig();
        let seen: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        let sink: InKernelSink = Rc::new(RefCell::new(
            move |_: &mut Sim, charge: &mut Charge, f: Vec<u8>| {
                let costs = CostModel::decstation_5000_200();
                charge.op(&costs, Op::TcpInput, Domain::Kernel, Layer::TcpUdpInput);
                s2.borrow_mut().push(f.len());
            },
        ));
        {
            let mut k = r.kernel.borrow_mut();
            let ep = k.create_inkernel_endpoint(sink);
            k.set_default_endpoint(ep);
        }
        let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 64);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        r.sim.run_to_idle();
        assert_eq!(seen.borrow().len(), 1);
    }

    #[test]
    fn destroy_endpoint_removes_filter() {
        let mut r = rig();
        let (sink, log) = collect_sink();
        let ep = {
            let mut k = r.kernel.borrow_mut();
            let ep = k.create_endpoint(RxMode::Ipc, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7), ep)
                .unwrap();
            ep
        };
        r.kernel.borrow_mut().destroy_endpoint(ep);
        let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 1);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 0);
        assert_eq!(r.kernel.borrow().stats().rx_unclaimed, 1);
    }

    #[test]
    fn tx_limiter_rejects_disallowed_frames() {
        let mut r = rig();
        // Only IPv4 frames sourced from 10.0.0.2 may leave (an
        // anti-spoofing policy).
        let program = {
            use psd_filter::{Binop, Insn};
            psd_filter::Program::new(vec![
                Insn::PushWord(12),
                Insn::PushLit(0x0800),
                Insn::CombineAnd(Binop::Eq),
                Insn::PushWord(26),
                Insn::PushLit(0x0A00),
                Insn::CombineAnd(Binop::Eq),
                Insn::PushWord(28),
                Insn::PushLit(0x0002),
                Insn::CombineAnd(Binop::Eq),
                Insn::PushLit(1),
                Insn::Ret,
            ])
        };
        r.kernel.borrow_mut().set_tx_limiter(Some(program));
        let cpu = r.kernel.borrow().cpu();
        // A legitimate frame (src 10.0.0.2) passes.
        let ok_frame = {
            let ip = Ipv4Header::new(B_IP, A_IP, IpProto::Udp, UDP_HDR_LEN);
            let eth = EthernetHeader {
                dst: EtherAddr::local(1),
                src: EtherAddr::local(2),
                ethertype: EtherType::Ipv4,
            };
            let mut f = eth.encode().to_vec();
            f.extend_from_slice(&ip.encode());
            f.extend_from_slice(&UdpHeader::new(1, 2, 0).encode());
            f
        };
        let mut charge = cpu.borrow_mut().begin(r.sim.now());
        Kernel::send_from_user(&r.kernel, &mut r.sim, &mut charge, ok_frame);
        cpu.borrow_mut().finish(charge);
        r.sim.run_to_idle();
        assert_eq!(r.ether.borrow().stats().tx_frames, 1);
        // A spoofed frame (src 10.0.0.9) is dropped before the device.
        let spoof = {
            let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 9), A_IP, IpProto::Udp, UDP_HDR_LEN);
            let eth = EthernetHeader {
                dst: EtherAddr::local(1),
                src: EtherAddr::local(2),
                ethertype: EtherType::Ipv4,
            };
            let mut f = eth.encode().to_vec();
            f.extend_from_slice(&ip.encode());
            f.extend_from_slice(&UdpHeader::new(1, 2, 0).encode());
            f
        };
        let mut charge = cpu.borrow_mut().begin(r.sim.now());
        Kernel::send_from_user(&r.kernel, &mut r.sim, &mut charge, spoof);
        cpu.borrow_mut().finish(charge);
        r.sim.run_to_idle();
        assert_eq!(
            r.ether.borrow().stats().tx_frames,
            1,
            "spoof must not reach the wire"
        );
        assert_eq!(r.kernel.borrow().stats().tx_rejected, 1);
    }

    // --- Batched NEWAPI (ISSUE 9) ---

    /// A checksummed TCP data frame addressed to this rig's kernel.
    fn tcp_frame(
        dst_mac: EtherAddr,
        dst: (Ipv4Addr, u16),
        src_port: u16,
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Vec<u8> {
        let tcp = TcpHeader {
            src_port,
            dst_port: dst.1,
            seq,
            ack: 1,
            flags,
            window: 8192,
            urgent: 0,
            mss: None,
        };
        let ip = Ipv4Header::new(A_IP, dst.0, IpProto::Tcp, tcp.header_len() + payload.len());
        let mut tcp_bytes = [0u8; psd_wire::TCP_HDR_LEN];
        tcp.encode_with_checksum(&ip, &mut tcp_bytes, payload.len(), std::iter::once(payload));
        let eth = EthernetHeader {
            dst: dst_mac,
            src: EtherAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        f.extend_from_slice(&tcp_bytes);
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn batch_window_amortizes_ipc_crossings() {
        let mut r = rig();
        let watch = Watch::attach(&mut r.kernel.borrow().cpu().borrow_mut());
        let (sink, log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            k.set_batch_config(BatchConfig {
                batch: 4,
                gro: false,
                gso: false,
            });
            let ep = k.create_endpoint(RxMode::Ipc, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7), ep)
                .unwrap();
        }
        for _ in 0..8 {
            let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 64);
            Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        }
        r.sim.run_to_idle();
        // Every frame is delivered, but only the first of each window of
        // four pays the IPC crossing and wakeup.
        assert_eq!(log.borrow().len(), 8);
        assert_eq!(watch.crossings(Layer::KernelCopyout), 2);
        let stats = r.kernel.borrow().stats();
        assert_eq!(stats.rx_delivery_crossings, 2);
        assert_eq!(stats.rx_session_crossings, 2);
    }

    #[test]
    fn unbatched_config_pays_every_crossing() {
        let mut r = rig();
        let watch = Watch::attach(&mut r.kernel.borrow().cpu().borrow_mut());
        let (sink, log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            let ep = k.create_endpoint(RxMode::Ipc, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7), ep)
                .unwrap();
        }
        for _ in 0..5 {
            let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 64);
            Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        }
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 5);
        assert_eq!(watch.crossings(Layer::KernelCopyout), 5);
        assert_eq!(r.kernel.borrow().stats().rx_delivery_crossings, 5);
    }

    #[test]
    fn gro_coalesces_inorder_run_and_flushes_when_full() {
        let mut r = rig();
        let (sink, log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            k.set_batch_config(BatchConfig::full(3));
            let ep = k.create_endpoint(RxMode::Shm, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Tcp, B_IP, 7), ep)
                .unwrap();
        }
        let mut seq = 1000u32;
        let mut want = Vec::new();
        for b in [0x11u8, 0x22, 0x33] {
            let payload = vec![b; 100];
            let f = tcp_frame(
                EtherAddr::local(2),
                (B_IP, 7),
                5555,
                seq,
                TcpFlags::ACK,
                &payload,
            );
            Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
            want.extend_from_slice(&payload);
            seq += 100;
        }
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 1, "three segments, one descriptor");
        let frame = log.borrow()[0].1.clone();
        let ip = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]).unwrap();
        assert_eq!(ip.payload_len(), 20 + 300);
        let (tcp, thl) = TcpHeader::parse(&frame[ETHER_HDR_LEN + IPV4_HDR_LEN..]).unwrap();
        assert_eq!(tcp.seq, 1000);
        assert_eq!(&frame[ETHER_HDR_LEN + IPV4_HDR_LEN + thl..], &want[..]);
        let stats = r.kernel.borrow().stats();
        assert_eq!(stats.gro_held, 1);
        assert_eq!(stats.gro_merged, 2);
        assert_eq!(stats.gro_flushes, 1);
    }

    #[test]
    fn gro_deadline_flushes_partial_run() {
        let mut r = rig();
        let (sink, log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            k.set_batch_config(BatchConfig::full(16));
            let ep = k.create_endpoint(RxMode::Shm, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Tcp, B_IP, 7), ep)
                .unwrap();
        }
        for i in 0..2u32 {
            let f = tcp_frame(
                EtherAddr::local(2),
                (B_IP, 7),
                5555,
                1000 + i * 50,
                TcpFlags::ACK,
                &[0xAB; 50],
            );
            Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        }
        r.sim.run_to_idle();
        // The run never filled; the deadline event flushed it whole.
        assert_eq!(log.borrow().len(), 1);
        let stats = r.kernel.borrow().stats();
        assert_eq!(stats.gro_merged, 1);
        assert_eq!(stats.gro_flushes, 1);
    }

    #[test]
    fn gro_never_merges_across_gap_or_push() {
        let mut r = rig();
        let (sink, log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            k.set_batch_config(BatchConfig::full(16));
            let ep = k.create_endpoint(RxMode::Shm, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Tcp, B_IP, 7), ep)
                .unwrap();
        }
        // seq 1000 (held), seq 2000 (gap: flushes the run, starts a new
        // one), then a PSH segment (boundary: flushes again, delivered
        // alone).
        for (seq, flags) in [
            (1000u32, TcpFlags::ACK),
            (2000, TcpFlags::ACK),
            (2100, TcpFlags::ACK | TcpFlags::PSH),
        ] {
            let f = tcp_frame(
                EtherAddr::local(2),
                (B_IP, 7),
                5555,
                seq,
                flags,
                &[0xCD; 100],
            );
            Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        }
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 3, "nothing merged");
        assert_eq!(r.kernel.borrow().stats().gro_merged, 0);
    }

    #[test]
    fn header_only_delivery_copies_headers_not_bodies() {
        let mut r = rig();
        let watch = Watch::attach(&mut r.kernel.borrow().cpu().borrow_mut());
        let (sink, log) = collect_sink();
        {
            let mut k = r.kernel.borrow_mut();
            k.set_placement_policy(Some(
                psd_filter::PlacementPolicy::new().resident_ports(7, 7),
            ));
            let ep = k.create_endpoint(RxMode::Shm, sink);
            k.install_filter(EndpointSpec::unconnected(IpProto::Udp, B_IP, 7), ep)
                .unwrap();
        }
        let f = udp_frame(EtherAddr::local(2), (B_IP, 7), 1400);
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        r.sim.run_to_idle();
        assert_eq!(log.borrow().len(), 1);
        let stats = r.kernel.borrow().stats();
        assert_eq!(stats.header_only_deliveries, 1);
        let costs = CostModel::decstation_5000_200();
        // Only eth+ip+udp headers (42 bytes) crossed into the ring; a
        // full-body copy would be ~1400 bytes of kcopy.
        let copyout = watch.total(Layer::KernelCopyout);
        assert!(
            copyout
                < SimTime::from_nanos(
                    costs.mbuf_alloc + costs.sched_wakeup + costs.kcopy_cached_byte * 100
                ),
            "header-only copyout should be flat, was {copyout}"
        );
    }

    #[test]
    fn endpoint_death_while_gro_held_represents_frame() {
        let mut r = rig();
        let (sink_a, log_a) = collect_sink();
        let (sink_b, log_b) = collect_sink();
        let ep_a = {
            let mut k = r.kernel.borrow_mut();
            k.set_batch_config(BatchConfig::full(16));
            let ep = k.create_endpoint(RxMode::Shm, sink_a);
            k.install_filter(EndpointSpec::unconnected(IpProto::Tcp, B_IP, 7), ep)
                .unwrap();
            ep
        };
        let f = tcp_frame(
            EtherAddr::local(2),
            (B_IP, 7),
            5555,
            1000,
            TcpFlags::ACK,
            &[0xEF; 80],
        );
        Ethernet::transmit(&r.ether, &mut r.sim, SimTime::ZERO, f);
        // Mid-hold (well before the 2 ms flush deadline): the session
        // migrates — its endpoint dies and a new owner installs the
        // same filter.
        let kernel = r.kernel.clone();
        r.sim.at(SimTime::from_micros(1000), move |_| {
            let mut k = kernel.borrow_mut();
            k.destroy_endpoint(ep_a);
            let ep_b = k.create_endpoint(RxMode::Shm, sink_b);
            k.install_filter(EndpointSpec::unconnected(IpProto::Tcp, B_IP, 7), ep_b)
                .unwrap();
        });
        r.sim.run_to_idle();
        // Exactly once: the held frame was re-presented and delivered to
        // the new owner, never duplicated, never dropped.
        assert_eq!(log_a.borrow().len(), 0);
        assert_eq!(log_b.borrow().len(), 1);
        let stats = r.kernel.borrow().stats();
        assert_eq!(stats.gro_requeued, 1);
        assert_eq!(stats.drops.total(), 0);
    }
}
