//! Packet-lifecycle tracing: per-packet provenance spans, stage-latency
//! histograms, a typed drop-reason taxonomy, and a Chrome trace-event
//! exporter.
//!
//! The paper's whole argument is a latency *decomposition* — Table 3
//! attributes microseconds to protection crossings, body copies and
//! wakeups per placement. The census (PR 1) counts those operations in
//! aggregate; this module follows *individual packets*: every frame
//! entering the wire gets a provenance id, every stage it visits
//! (NIC rx, filter run, delivery path, netstack layers, socket queue)
//! becomes a span stamped by the virtual clock. Operation counts are
//! the census's.
//!
//! Like the census and the fault plane, the tracer is
//! **charged-time-neutral**: recording never advances a [`Charge`]
//! cursor and never consumes randomness, so attaching a tracer leaves
//! every simulated timing byte-identical. With no tracer attached the
//! hooks are a `None` check — provably inert.
//!
//! Every traced packet must terminate in **exactly one** terminal
//! state: [`Terminal::Delivered`] (reached an application socket),
//! [`Terminal::Absorbed`] (consumed by a protocol engine: ARP, ICMP,
//! TCP control traffic, a fragment held for reassembly), or
//! [`Terminal::Dropped`] with a typed [`DropReason`]. The invariant
//! checker ([`Tracer::check_invariants`]) enforces this, plus span
//! nesting, as a reusable test oracle.
//!
//! [`Charge`]: crate::cpu::Charge

use std::cell::RefCell;
use std::fmt::Write as _;
use std::num::NonZeroU64;
use std::rc::Rc;

use crate::time::SimTime;

/// Provenance id of one traced packet (a wire frame, or one station's
/// delivered copy of it — deliveries are children of the wire frame).
///
/// Stored off by one in a `NonZeroU64` so a [`PacketCtx`] is two
/// words: every deferred hop on the receive path captures one, and the
/// capture has to fit `SmallFn`'s inline storage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct TraceId(NonZeroU64);

impl std::fmt::Debug for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceId({})", self.index())
    }
}

impl TraceId {
    fn from_index(index: u64) -> TraceId {
        TraceId(NonZeroU64::new(index + 1).expect("index + 1 is nonzero"))
    }

    /// The packet's position in birth order (the id artifacts print).
    pub(crate) fn index(self) -> u64 {
        self.0.get() - 1
    }
}

/// A lifecycle stage a packet passes through; each visit is a span.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// Transit on the shared Ethernet segment.
    Wire,
    /// NIC receive: interrupt dispatch plus any device copy.
    NicRx,
    /// Kernel packet-filter run (CSPF or MPF) over the frame.
    FilterRun,
    /// Delivery to user space as an IPC message.
    DeliverIpc,
    /// Delivery through a shared-memory ring slot.
    DeliverShmRing,
    /// Delivery by direct in-place filter copy (SHM-IPF).
    DeliverShmIpf,
    /// Synchronous hand-off to the in-kernel stack.
    DeliverInKernel,
    /// `ipintr`: IP header processing and reassembly.
    NetstackIp,
    /// UDP input processing.
    NetstackUdp,
    /// TCP input processing.
    NetstackTcp,
    /// Residence on a socket receive queue awaiting the application.
    SocketQueue,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub(crate) const ALL: [Stage; 11] = [
        Stage::Wire,
        Stage::NicRx,
        Stage::FilterRun,
        Stage::DeliverIpc,
        Stage::DeliverShmRing,
        Stage::DeliverShmIpf,
        Stage::DeliverInKernel,
        Stage::NetstackIp,
        Stage::NetstackUdp,
        Stage::NetstackTcp,
        Stage::SocketQueue,
    ];

    /// Short label used in reports and trace JSON.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Stage::Wire => "wire",
            Stage::NicRx => "nic-rx",
            Stage::FilterRun => "filter-run",
            Stage::DeliverIpc => "deliver-ipc",
            Stage::DeliverShmRing => "deliver-shm-ring",
            Stage::DeliverShmIpf => "deliver-shm-ipf",
            Stage::DeliverInKernel => "deliver-in-kernel",
            Stage::NetstackIp => "ip-input",
            Stage::NetstackUdp => "udp-input",
            Stage::NetstackTcp => "tcp-input",
            Stage::SocketQueue => "socket-queue",
        }
    }
}

/// Why a packet died. Every drop path in the kernel and the netstacks
/// reports one of these — there are no silent drops.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DropReason {
    /// No installed filter matched and no default endpoint exists.
    FilterMiss,
    /// The matched endpoint's owning task died before delivery.
    EndpointDead,
    /// A fault-plane injection consumed the packet.
    FaultInjected,
    /// Independent random loss on the wire.
    WireLoss,
    /// The frame reached no station (wrong address, nobody listening).
    NoReceiver,
    /// The transmit limiter rejected the send (fault-plane throttle).
    TxLimited,
    /// Transmit attempted on a disconnected device.
    TxDisconnected,
    /// A header failed to parse.
    MalformedFrame,
    /// EtherType is neither IPv4 nor ARP.
    UnsupportedEtherType,
    /// IP protocol is neither UDP, TCP nor ICMP.
    UnsupportedProtocol,
    /// IP destination is not this host (filters should prevent this).
    NotForHost,
    /// The payload is shorter than its header claims.
    TruncatedPayload,
    /// A checksum failed to verify.
    ChecksumError,
    /// UDP datagram to a port with no socket (ICMP answered).
    PortUnreachable,
    /// TCP segment to a port with no listener (RST answered).
    ConnectionRefused,
    /// SYN dropped because the listen backlog is full.
    ListenOverflow,
    /// Datagram dropped because the socket receive buffer is full.
    SocketOverflow,
    /// Partial reassembly discarded after the fragment TTL.
    ReassemblyTimeout,
    /// Packet dropped awaiting ARP resolution (protocol retransmits).
    ArpUnresolved,
    /// A bounded egress queue was full (drop-tail discipline).
    QueueTailDrop,
    /// Random Early Detection dropped the packet before the queue
    /// filled.
    RedEarlyDrop,
    /// The link was down (fault-plane flap or partition window).
    LinkDown,
    /// TTL reached zero in a router (ICMP Time Exceeded answered).
    TtlExpired,
}

impl DropReason {
    /// Every reason, in presentation order.
    pub const ALL: [DropReason; 23] = [
        DropReason::FilterMiss,
        DropReason::EndpointDead,
        DropReason::FaultInjected,
        DropReason::WireLoss,
        DropReason::NoReceiver,
        DropReason::TxLimited,
        DropReason::TxDisconnected,
        DropReason::MalformedFrame,
        DropReason::UnsupportedEtherType,
        DropReason::UnsupportedProtocol,
        DropReason::NotForHost,
        DropReason::TruncatedPayload,
        DropReason::ChecksumError,
        DropReason::PortUnreachable,
        DropReason::ConnectionRefused,
        DropReason::ListenOverflow,
        DropReason::SocketOverflow,
        DropReason::ReassemblyTimeout,
        DropReason::ArpUnresolved,
        DropReason::QueueTailDrop,
        DropReason::RedEarlyDrop,
        DropReason::LinkDown,
        DropReason::TtlExpired,
    ];

    /// Short label used in census snapshots and trace JSON.
    pub(crate) fn label(self) -> &'static str {
        match self {
            DropReason::FilterMiss => "filter-miss",
            DropReason::EndpointDead => "endpoint-dead",
            DropReason::FaultInjected => "fault-injected",
            DropReason::WireLoss => "wire-loss",
            DropReason::NoReceiver => "no-receiver",
            DropReason::TxLimited => "tx-limited",
            DropReason::TxDisconnected => "tx-disconnected",
            DropReason::MalformedFrame => "malformed-frame",
            DropReason::UnsupportedEtherType => "unsupported-ethertype",
            DropReason::UnsupportedProtocol => "unsupported-protocol",
            DropReason::NotForHost => "not-for-host",
            DropReason::TruncatedPayload => "truncated-payload",
            DropReason::ChecksumError => "checksum-error",
            DropReason::PortUnreachable => "port-unreachable",
            DropReason::ConnectionRefused => "connection-refused",
            DropReason::ListenOverflow => "listen-overflow",
            DropReason::SocketOverflow => "socket-overflow",
            DropReason::ReassemblyTimeout => "reassembly-timeout",
            DropReason::ArpUnresolved => "arp-unresolved",
            DropReason::QueueTailDrop => "queue-tail-drop",
            DropReason::RedEarlyDrop => "red-early-drop",
            DropReason::LinkDown => "link-down",
            DropReason::TtlExpired => "ttl-expired",
        }
    }

    /// Position in [`DropReason::ALL`].
    pub(crate) fn index(self) -> usize {
        DropReason::ALL
            .iter()
            .position(|r| *r == self)
            .expect("in ALL")
    }

    /// Number of reasons.
    pub(crate) const COUNT: usize = 23;
}

/// Always-on per-reason drop counters, embedded in component stats
/// structs so chaos debugging has counts even with tracing off.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DropCounters([u64; DropReason::COUNT]);

impl DropCounters {
    /// Counts one drop for `reason`. Crate-private: a component counts
    /// a drop only through [`Charge::drop_current`],
    /// [`Charge::drop_other`] or [`PacketCtx::drop_at`], which report
    /// the same drop to every other tally at once.
    ///
    /// [`Charge::drop_current`]: crate::cpu::Charge::drop_current
    /// [`Charge::drop_other`]: crate::cpu::Charge::drop_other
    pub(crate) fn note(&mut self, reason: DropReason) {
        self.0[reason.index()] += 1;
    }

    /// The count for one reason.
    pub fn get(&self, reason: DropReason) -> u64 {
        self.0[reason.index()]
    }

    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The nonzero counters, in [`DropReason::ALL`] order.
    pub fn nonzero(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL
            .iter()
            .filter_map(move |r| match self.get(*r) {
                0 => None,
                n => Some((*r, n)),
            })
    }
}

/// One packet's tracing context: the tracer and the packet's id.
///
/// The one value a trace-context hop handles. A deferred continuation
/// (a delivery closure, a held GRO run, a socket-queue entry) captures
/// it when it is scheduled and re-enters it when it runs; a wire element
/// reports the fate of the frame it holds through it. Empty when no
/// tracer is attached or no packet is being traced, and then every
/// method is a no-op. Two words, so a hop that captures it still fits
/// `SmallFn`'s inline storage.
#[derive(Clone, Debug, Default)]
pub struct PacketCtx(Option<(TraceHandle, TraceId)>);

impl PacketCtx {
    /// The packet `tracer` is processing now.
    pub fn current(tracer: Option<&TraceHandle>) -> PacketCtx {
        PacketCtx(tracer.and_then(|t| Some((t.clone(), t.borrow().current()?))))
    }

    /// Registers a new packet born at `t`: a wire frame (`parent`
    /// empty), or one station's delivered copy of the wire frame
    /// `parent`.
    pub fn begin(tracer: Option<&TraceHandle>, t: SimTime, parent: &PacketCtx) -> PacketCtx {
        PacketCtx(tracer.map(|tr| (tr.clone(), tr.borrow_mut().begin_packet(t, parent.id()))))
    }

    /// Whether there is a traced packet behind this context.
    pub fn is_traced(&self) -> bool {
        self.0.is_some()
    }

    /// The packet's id.
    pub(crate) fn id(&self) -> Option<TraceId> {
        self.0.as_ref().map(|(_, id)| *id)
    }

    /// Runs `f` with this packet current: every hook `f` reaches
    /// through a [`Charge`] reports to this packet.
    ///
    /// [`Charge`]: crate::cpu::Charge
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some((t, id)) = &self.0 else {
            return f();
        };
        t.borrow_mut().push_current(*id);
        let r = f();
        t.borrow_mut().pop_current();
        r
    }

    /// Records a named instant event on the packet at `t`.
    pub fn event(&self, t: SimTime, name: &'static str) {
        if let Some((tr, id)) = &self.0 {
            tr.borrow_mut().event(*id, t, name);
        }
    }

    /// Records an already-closed `stage` span on the packet.
    pub fn span_closed(&self, stage: Stage, start: SimTime, end: SimTime) {
        if let Some((tr, id)) = &self.0 {
            tr.borrow_mut().span_closed(*id, stage, start, end);
        }
    }

    /// Records the packet's terminal state at `t`.
    pub fn terminal(&self, t: SimTime, term: Terminal) {
        if let Some((tr, id)) = &self.0 {
            tr.borrow_mut().terminal(*id, t, term);
        }
    }

    /// The wire's drop call: the packet dies for `reason` at `t`,
    /// counted in the element's `drops` and, traced, terminated. An
    /// empty context only counts — the transmit-side case, where the
    /// frame dying is not the packet being processed.
    pub fn drop_at(&self, drops: &mut DropCounters, reason: DropReason, t: SimTime) {
        drops.note(reason);
        self.terminal(t, Terminal::Dropped(reason));
    }
}

/// The single terminal state of a traced packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Terminal {
    /// Reached an application socket receive queue.
    Delivered,
    /// Consumed by a protocol engine (ARP, ICMP, TCP control traffic,
    /// a fragment held for reassembly, a segment merged into a stream).
    Absorbed,
    /// Dropped, with the reason.
    Dropped(DropReason),
}

#[derive(Debug)]
struct PacketRec {
    born: SimTime,
    parent: Option<TraceId>,
    terminal: Option<(SimTime, Terminal)>,
    open: Vec<(Stage, SimTime)>,
}

#[derive(Debug)]
struct SpanRec {
    id: TraceId,
    stage: Stage,
    start: SimTime,
    end: SimTime,
}

#[derive(Debug)]
struct EventRec {
    id: TraceId,
    t: SimTime,
    name: &'static str,
}

/// Shared handle to a tracer, cloned into every [`Charge`] opened on a
/// CPU it is attached to (mirrors [`CensusHandle`]).
///
/// [`Charge`]: crate::cpu::Charge
/// [`CensusHandle`]: crate::census::CensusHandle
pub type TraceHandle = Rc<RefCell<Tracer>>;

/// Records packet lifecycles: spans, in-span events, terminal states.
///
/// All recording is append-only and keyed by deterministic ids, so two
/// identically-seeded runs produce byte-identical exports.
#[derive(Debug, Default)]
pub struct Tracer {
    next_id: u64,
    /// Stack of packets currently being processed (the innermost is the
    /// one charge-site events attach to). Only [`PacketCtx::enter`]
    /// pushes and pops it: asynchronous continuations capture a
    /// [`PacketCtx`] at schedule time and enter it when they run.
    current: Vec<TraceId>,
    packets: Vec<PacketRec>,
    spans: Vec<SpanRec>,
    events: Vec<EventRec>,
    violations: Vec<String>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub(crate) fn new() -> Tracer {
        Tracer::default()
    }

    /// Creates a shared handle to a fresh tracer.
    pub fn shared() -> TraceHandle {
        Rc::new(RefCell::new(Tracer::new()))
    }

    // --- Lifecycle recording ---

    /// Registers a new packet born at `t`. Deliveries to individual
    /// stations are children of the wire frame (`parent`).
    pub(crate) fn begin_packet(&mut self, t: SimTime, parent: Option<TraceId>) -> TraceId {
        let id = TraceId::from_index(self.next_id);
        self.next_id += 1;
        self.packets.push(PacketRec {
            born: t,
            parent,
            terminal: None,
            open: Vec::new(),
        });
        id
    }

    /// Pushes `id` as the packet now being processed.
    pub(crate) fn push_current(&mut self, id: TraceId) {
        self.current.push(id);
    }

    /// Pops the innermost current packet.
    pub(crate) fn pop_current(&mut self) {
        if self.current.pop().is_none() {
            self.violations.push("pop_current on empty stack".into());
        }
    }

    /// The packet currently being processed, if any.
    pub(crate) fn current(&self) -> Option<TraceId> {
        self.current.last().copied()
    }

    /// Opens a `stage` span on packet `id` at `t`.
    pub(crate) fn span_start(&mut self, id: TraceId, stage: Stage, t: SimTime) {
        let p = &mut self.packets[id.index() as usize];
        if p.terminal.is_some() {
            self.violations.push(format!(
                "span_start {} on packet {} after its terminal state",
                stage.label(),
                id.index()
            ));
            return;
        }
        p.open.push((stage, t));
    }

    /// Closes the innermost open span on packet `id`, which must be
    /// `stage` (spans nest; a mismatch is recorded as a violation).
    pub(crate) fn span_end(&mut self, id: TraceId, stage: Stage, t: SimTime) {
        let p = &mut self.packets[id.index() as usize];
        match p.open.pop() {
            Some((open_stage, start)) => {
                if open_stage != stage {
                    self.violations.push(format!(
                        "span_end {} on packet {} but {} is open",
                        stage.label(),
                        id.index(),
                        open_stage.label()
                    ));
                }
                self.spans.push(SpanRec {
                    id,
                    stage: open_stage,
                    start,
                    end: t,
                });
            }
            None => self.violations.push(format!(
                "span_end {} on packet {} with no open span",
                stage.label(),
                id.index()
            )),
        }
    }

    /// Records an already-closed span (e.g. socket-queue residence,
    /// known only when the application dequeues).
    pub(crate) fn span_closed(&mut self, id: TraceId, stage: Stage, start: SimTime, end: SimTime) {
        self.spans.push(SpanRec {
            id,
            stage,
            start,
            end,
        });
    }

    /// Records a named instant event on packet `id` at `t`.
    pub(crate) fn event(&mut self, id: TraceId, t: SimTime, name: &'static str) {
        self.events.push(EventRec { id, t, name });
    }

    /// Records packet `id`'s terminal state at `t`, closing any spans
    /// still open at that instant. A second terminal is a violation.
    pub(crate) fn terminal(&mut self, id: TraceId, t: SimTime, term: Terminal) {
        let p = &mut self.packets[id.index() as usize];
        if let Some((_, prev)) = p.terminal {
            self.violations.push(format!(
                "packet {} terminal {:?} after earlier terminal {:?}",
                id.index(),
                term,
                prev
            ));
            return;
        }
        p.terminal = Some((t, term));
        let open = std::mem::take(&mut p.open);
        for (stage, start) in open.into_iter().rev() {
            self.spans.push(SpanRec {
                id,
                stage,
                start,
                end: t,
            });
        }
    }

    // --- Introspection ---

    /// Number of packets registered.
    pub fn packet_count(&self) -> usize {
        self.packets.len()
    }

    /// Number of packets that reached each terminal state:
    /// `(delivered, absorbed, dropped)`.
    pub fn terminal_counts(&self) -> (u64, u64, u64) {
        let mut d = (0, 0, 0);
        for p in &self.packets {
            match p.terminal {
                Some((_, Terminal::Delivered)) => d.0 += 1,
                Some((_, Terminal::Absorbed)) => d.1 += 1,
                Some((_, Terminal::Dropped(_))) => d.2 += 1,
                None => {}
            }
        }
        d
    }

    /// Per-reason drop counts computed from terminal states.
    pub fn drops(&self) -> DropCounters {
        let mut c = DropCounters::default();
        for p in &self.packets {
            if let Some((_, Terminal::Dropped(r))) = p.terminal {
                c.note(r);
            }
        }
        c
    }

    /// Number of recorded instant events named `name`.
    pub fn event_count(&self, name: &str) -> u64 {
        self.events.iter().filter(|e| e.name == name).count() as u64
    }

    // --- Invariant checking ---

    /// The trace-invariant oracle: returns every violation recorded
    /// during tracing plus any packet that failed to reach exactly one
    /// terminal state. An empty result means the trace is well-formed.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = self.violations.clone();
        for (i, p) in self.packets.iter().enumerate() {
            if p.terminal.is_none() {
                v.push(format!("packet {i} has no terminal state"));
            }
            if !p.open.is_empty() {
                v.push(format!("packet {i} has {} unclosed spans", p.open.len()));
            }
        }
        for s in &self.spans {
            if s.end < s.start {
                v.push(format!(
                    "span {} on packet {} ends before it starts",
                    s.stage.label(),
                    s.id.index()
                ));
            }
        }
        v
    }

    // --- Stage-latency histograms ---

    /// Sorted span durations (ns) for one stage.
    pub(crate) fn stage_latencies(&self, stage: Stage) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| (s.end - s.start).as_nanos())
            .collect();
        v.sort_unstable();
        v
    }

    /// Sorted end-to-end latencies (ns): wire birth to terminal, for
    /// delivered per-station packets (the paper's receive-side latency).
    pub fn end_to_end_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .packets
            .iter()
            .filter_map(|p| {
                let (t, term) = p.terminal?;
                let parent = p.parent?;
                if term != Terminal::Delivered {
                    return None;
                }
                let born = self.packets[parent.index() as usize].born;
                Some((t - born).as_nanos())
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Nearest-rank percentile over a sorted slice; zero when empty.
    pub fn percentile(sorted: &[u64], p: u64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as u64 * p / 100) as usize]
    }

    /// The "Table 3 decomposition" report: per-stage count and
    /// p50/p90/p99 latency plus the end-to-end distribution, rendered
    /// deterministically (integer microsecond math, no floats).
    pub fn stage_report(&self) -> String {
        fn us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<18} {:>7} {:>10} {:>10} {:>10}",
            "stage", "count", "p50 us", "p90 us", "p99 us"
        );
        for stage in Stage::ALL {
            let lat = self.stage_latencies(stage);
            if lat.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<18} {:>7} {:>10} {:>10} {:>10}",
                stage.label(),
                lat.len(),
                us(Self::percentile(&lat, 50)),
                us(Self::percentile(&lat, 90)),
                us(Self::percentile(&lat, 99)),
            );
        }
        let e2e = self.end_to_end_latencies();
        if !e2e.is_empty() {
            let _ = writeln!(
                out,
                "  {:<18} {:>7} {:>10} {:>10} {:>10}",
                "end-to-end",
                e2e.len(),
                us(Self::percentile(&e2e, 50)),
                us(Self::percentile(&e2e, 90)),
                us(Self::percentile(&e2e, 99)),
            );
        }
        let drops = self.drops();
        for (reason, n) in drops.nonzero() {
            let _ = writeln!(out, "  drop {:<22} {:>7}", reason.label(), n);
        }
        out
    }

    // --- Chrome trace-event export ---

    /// Appends this trace's events in Chrome trace-event JSON form to
    /// `out` (comma-separated objects, no surrounding brackets — the
    /// caller owns the `{"traceEvents":[...]}` wrapper and may merge
    /// several tracers under distinct `pid`s). `label` names the
    /// process row in the viewer.
    pub fn chrome_events(&self, pid: u64, label: &str, out: &mut String) {
        fn ts(t: SimTime) -> String {
            let ns = t.as_nanos();
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
        let mut emit = |line: String| {
            if !out.is_empty() {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&line);
        };
        emit(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
        for s in &self.spans {
            emit(format!(
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":{pid},\
                 \"tid\":{},\"ts\":{},\"dur\":{}}}",
                s.stage.label(),
                s.id.index(),
                ts(s.start),
                ts(s.end - s.start),
            ));
        }
        for e in &self.events {
            emit(format!(
                "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":{pid},\"tid\":{},\"ts\":{}}}",
                e.name,
                e.id.index(),
                ts(e.t),
            ));
        }
        for (i, p) in self.packets.iter().enumerate() {
            let Some((t, term)) = p.terminal else {
                continue;
            };
            let name = match term {
                Terminal::Delivered => "delivered".to_string(),
                Terminal::Absorbed => "absorbed".to_string(),
                Terminal::Dropped(r) => format!("drop:{}", r.label()),
            };
            emit(format!(
                "{{\"name\":\"{name}\",\"cat\":\"terminal\",\"ph\":\"i\",\
                 \"s\":\"t\",\"pid\":{pid},\"tid\":{i},\"ts\":{}}}",
                ts(t),
            ));
        }
    }
}

/// Wraps merged [`Tracer::chrome_events`] output into a complete
/// Chrome trace-event JSON document.
pub fn chrome_trace_document(events: &str) -> String {
    format!("{{\"traceEvents\":[{events}\n],\"displayTimeUnit\":\"ns\"}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn spans_nest_and_close() {
        let mut tr = Tracer::new();
        let id = tr.begin_packet(t(0), None);
        tr.span_start(id, Stage::NicRx, t(0));
        tr.span_start(id, Stage::FilterRun, t(1));
        tr.span_end(id, Stage::FilterRun, t(2));
        tr.span_end(id, Stage::NicRx, t(3));
        tr.terminal(id, t(3), Terminal::Delivered);
        assert!(tr.check_invariants().is_empty());
        assert_eq!(tr.stage_latencies(Stage::FilterRun), vec![1_000]);
        assert_eq!(tr.stage_latencies(Stage::NicRx), vec![3_000]);
    }

    #[test]
    fn mismatched_span_end_is_a_violation() {
        let mut tr = Tracer::new();
        let id = tr.begin_packet(t(0), None);
        tr.span_start(id, Stage::NicRx, t(0));
        tr.span_end(id, Stage::FilterRun, t(1));
        tr.terminal(id, t(1), Terminal::Absorbed);
        assert!(!tr.check_invariants().is_empty());
    }

    #[test]
    fn terminal_closes_open_spans_and_is_exactly_once() {
        let mut tr = Tracer::new();
        let id = tr.begin_packet(t(0), None);
        tr.span_start(id, Stage::NicRx, t(0));
        tr.terminal(id, t(5), Terminal::Dropped(DropReason::FilterMiss));
        assert!(tr.check_invariants().is_empty());
        assert_eq!(tr.stage_latencies(Stage::NicRx), vec![5_000]);
        tr.terminal(id, t(6), Terminal::Delivered);
        assert!(!tr.check_invariants().is_empty());
        assert_eq!(tr.terminal_counts(), (0, 0, 1));
        assert_eq!(tr.drops().get(DropReason::FilterMiss), 1);
    }

    #[test]
    fn unterminated_packet_fails_invariants() {
        let mut tr = Tracer::new();
        tr.begin_packet(t(0), None);
        assert_eq!(tr.check_invariants().len(), 1);
    }

    #[test]
    fn end_to_end_uses_parent_birth() {
        let mut tr = Tracer::new();
        let wire = tr.begin_packet(t(0), None);
        tr.terminal(wire, t(2), Terminal::Delivered);
        let child = tr.begin_packet(t(2), Some(wire));
        tr.terminal(child, t(10), Terminal::Delivered);
        assert_eq!(tr.end_to_end_latencies(), vec![10_000]);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(Tracer::percentile(&v, 50), 50);
        assert_eq!(Tracer::percentile(&v, 99), 99);
        assert_eq!(Tracer::percentile(&v, 0), 1);
        assert_eq!(Tracer::percentile(&[], 50), 0);
    }

    #[test]
    fn chrome_export_is_deterministic_and_wrapped() {
        let build = || {
            let mut tr = Tracer::new();
            let id = tr.begin_packet(t(0), None);
            tr.span_start(id, Stage::Wire, t(0));
            tr.span_end(id, Stage::Wire, t(51));
            tr.event(id, t(10), "crossing");
            tr.terminal(id, t(51), Terminal::Delivered);
            let mut events = String::new();
            tr.chrome_events(7, "row", &mut events);
            chrome_trace_document(&events)
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"name\":\"delivered\""));
        assert!(a.trim_end().ends_with('}'));
    }

    #[test]
    fn stage_report_lists_only_seen_stages() {
        let mut tr = Tracer::new();
        let id = tr.begin_packet(t(0), None);
        tr.span_closed(id, Stage::SocketQueue, t(1), t(4));
        tr.terminal(id, t(1), Terminal::Delivered);
        let rep = tr.stage_report();
        assert!(rep.contains("socket-queue"));
        assert!(!rep.contains("nic-rx"));
    }
}
