//! The workload drivers: one repetition of one workload on a fresh
//! [`TestBed`].
//!
//! The drivers are the benchmark's own. They reach the program only
//! through the socket calls of `psd_core::AppLib` (the paper's Table 1
//! surface), `TestBed`/`SystemConfig`, `Sim`/`SimTime`/`Platform` and
//! public stats getters. They reuse their send and receive buffers, so
//! the allocation counters see the program and not the harness, and
//! every receiver drains its socket.
//!
//! A repetition is set-up → warm-up traffic (the first 1/16 of the
//! messages) → timed region. Its length is a message count, never a
//! time, so every virtual-clock quantity is a pure function of the
//! seed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use psd_core::{AppHandle, AppLib, Fd, FdEventFn};
use psd_filter::{DemuxStrategy, EndpointSpec};
use psd_netdev::{EthernetHandle, FrameTrace};
use psd_netstack::stack::StackHandle;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{CensusHandle, Domain, OpKind, Platform, Rng, Sim, SimTime};
use psd_systems::{SystemConfig, TestBed};
use psd_wire::IpProto;

use crate::alloc::{self, AllocSnap};
use crate::spans::Spans;
use crate::spec::Workload;

mod bulk;
mod echo;
mod fanin;

/// All workloads run the DECstation 5000/200 cost model.
pub const PLATFORM: Platform = Platform::DecStation5000_200;
/// Bulk message size: one 8 KiB write.
pub const BULK_MSG: usize = 8 * 1024;
/// Fan-in datagram payload.
pub const FANIN_PAYLOAD: usize = 64;
/// UDP sessions on the fan-in receiver (every 4th connected).
pub const FANIN_UDP: usize = 4096;
/// TCP connections riding along on the fan-in receiver.
pub const FANIN_TCP: usize = 32;
/// Frames the traced repetition captures for the layer probes.
pub const CAPTURE_FRAMES: usize = 65_536;
const UNSET: u64 = u64::MAX;
const DRIVE_SLICE: SimTime = SimTime::from_millis(50);

/// What one repetition is asked to do.
pub struct RepSpec<'a> {
    /// The workload.
    pub workload: Workload,
    /// Seed of the testbed, the schedules, the payload and the faults.
    pub seed: u64,
    /// Messages in this repetition.
    pub msgs: usize,
    /// Leading messages covered by [`RepResult::lead_digest`].
    pub lead: usize,
    /// Compare every received byte (otherwise the first 8 of each piece).
    pub verify: bool,
    /// Span recorder; when it is on, the repetition also attaches the
    /// census, captures frames and samples per slice.
    pub spans: &'a Rc<Spans>,
}

/// What one repetition measured. Host-clock fields differ run to run;
/// everything else is a function of the seed and the message count.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepResult {
    /// Host seconds from `TestBed::new` to the first timed message.
    pub setup_s: f64,
    /// Host ns of the timed region.
    pub wall_ns: u64,
    /// Frames handed to the medium in the timed region.
    pub packets: u64,
    /// `Sim::executed()` delta over the timed region.
    pub events: u64,
    /// Application payload bytes of the timed messages.
    pub payload: u64,
    /// Virtual ns of the timed region.
    pub sim_ns: u64,
    /// Allocation calls in the timed region.
    pub allocs: u64,
    /// Bytes allocated in the timed region.
    pub alloc_bytes: u64,
    /// Peak live heap of this repetition above its starting level.
    pub peak_heap: u64,
    /// Timed messages that completed (the latency sample count).
    pub lat_samples: u64,
    /// Median message latency, virtual ns.
    pub lat_p50_ns: u64,
    /// 99th-percentile message latency, virtual ns.
    pub lat_p99_ns: u64,
    /// Error against the paper's cell, where it has one.
    pub model_err_pct: Option<f64>,
    /// FNV-1a over every message's virtual completion time.
    pub digest: u64,
    /// The same over the first `lead` messages.
    pub lead_digest: u64,
    /// Messages attempted.
    pub ops: u64,
    /// Messages not delivered intact, refused, or surfaced as an error;
    /// on a clean wire every segment retransmitted in the timed region
    /// counts too.
    pub failed: u64,
}

/// Declares [`Counts`] and its field-wise difference together, so a
/// counter added to one cannot be forgotten in the other.
macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Layer counters read from public getters, summed over both
        /// hosts; a region's counts are the difference of two readings.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counts {
            $(pub $field: u64),*
        }

        impl Counts {
            fn minus(self, o: Counts) -> Counts {
                Counts {
                    $($field: self.$field - o.$field),*
                }
            }
        }
    };
}

counts!(
    // psd_netdev::EtherStats
    frames,
    wire_dropped,
    wire_duplicated,
    wire_reordered,
    // psd_kernel::KernelStats
    rx_frames,
    rx_session,
    filter_steps,
    wakeups_amortized,
    kernel_drops,
    // psd_netstack::StackStats, every stack
    tcp_in,
    tcp_rexmt,
    stack_drops,
    // psd_core::AppStats
    control_rpcs,
    data_rpcs,
    migrations,
    rpc_retries,
    // psd_mbuf::pool_stats
    pool_hits,
    pool_misses,
    // psd_sim::Census (traced repetition only)
    crossings,
    wakeups,
    body_copies_kernel,
    body_copies_stack,
    checksums,
    filter_runs,
    // Sim::executed
    events,
);

/// Data-call tallies kept by [`Api`] (cheap enough to keep always).
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    pub data_calls: u64,
    pub would_block: u64,
    pub recv_calls: u64,
    pub recv_bytes: u64,
}

/// What only the traced repetition collects, the input of the layer
/// metrics and the layer probes.
pub struct Observed {
    /// Layer counters over the timed region.
    pub counts: Counts,
    /// Layer counters over set-up (through the warm-up traffic).
    pub setup_counts: Counts,
    /// Data-call tallies over the whole repetition.
    pub calls: CallStats,
    /// Post-warm-up frames, at most [`CAPTURE_FRAMES`].
    pub frames: Vec<Vec<u8>>,
    /// Session filters each host's kernel holds (`[host0, host1]`).
    pub sessions: [Vec<EndpointSpec>; 2],
    /// Kernel demultiplexing strategy of the workload.
    pub strategy: DemuxStrategy,
    /// Receive path of the workload's library sessions, if any.
    pub rx_mode: Option<psd_kernel::RxMode>,
    /// `Sim::pending()` at each slice boundary of the timed region.
    pub pending: Vec<u64>,
    /// Host ns per packet of each timed slice that carried packets.
    pub slice_ns_per_pkt: Vec<f64>,
    /// Highest delivery-ring occupancy seen at a slice boundary.
    pub ring_max: u64,
    /// Events executed inside `sim.run_until` slices, all repetition.
    pub slice_events: u64,
    /// Virtual µs of CPU one more `bind` costs with every session up.
    pub bind_sim_us: f64,
    /// Host ns `TestBed::new` took.
    pub testbed_new_ns: u64,
}

/// One repetition's outcome.
pub struct Rep {
    pub result: RepResult,
    /// Present when `RepSpec::spans` was on.
    pub observed: Option<Observed>,
}

// ---------------------------------------------------------------------
// Payload pattern
// ---------------------------------------------------------------------

/// Seeded payload bytes. Message `k` carries a window of the pattern
/// whose start depends on `k`, so a message delivered in another's
/// place fails the comparison without any per-message generation.
struct Pattern {
    bytes: Vec<u8>,
}

impl Pattern {
    fn new(seed: u64) -> Pattern {
        let mut bytes = vec![0u8; BULK_MSG + 256];
        Rng::new(seed ^ 0x9A77_E2A1_0000_0001).fill_bytes(&mut bytes);
        Pattern { bytes }
    }

    fn msg(&self, k: usize, len: usize) -> &[u8] {
        let start = (k * 31) % 256;
        &self.bytes[start..start + len]
    }
}

// ---------------------------------------------------------------------
// Meter: region boundaries and per-message times
// ---------------------------------------------------------------------

struct Mark {
    host: Instant,
    sim: SimTime,
    frames: u64,
    events: u64,
    /// TCP segments retransmitted so far, on every stack.
    rexmt: u64,
    alloc: AllocSnap,
}

struct Meter {
    ether: EthernetHandle,
    /// Every protocol stack of the bed: both hosts' OS-side stacks and
    /// each application's library stack.
    stacks: Vec<StackHandle>,
    warm: usize,
    verify: bool,
    sent_at: Vec<u64>,
    done_at: Vec<u64>,
    done: usize,
    start: Option<Mark>,
    end: Option<Mark>,
    /// Corrupt, duplicated, refused or errored operations.
    bad: u64,
    /// Set when the driver cannot continue; ends the drive loop.
    aborted: bool,
}

impl Meter {
    fn new(
        ether: EthernetHandle,
        stacks: Vec<StackHandle>,
        times: [Vec<u64>; 2],
        verify: bool,
    ) -> Meter {
        let [sent_at, done_at] = times;
        Meter {
            ether,
            stacks,
            warm: sent_at.len() / 16,
            verify,
            sent_at,
            done_at,
            done: 0,
            start: None,
            end: None,
            bad: 0,
            aborted: false,
        }
    }

    fn mark(&self, sim: &Sim) -> Mark {
        Mark {
            host: Instant::now(),
            sim: sim.now(),
            frames: self.ether.borrow().stats().tx_frames,
            events: sim.executed(),
            // Handlers run from scheduled events, never while a stack is
            // borrowed, so the stacks can be read from inside one.
            rexmt: self.stacks.iter().map(|s| s.borrow().stats.tcp_rexmt).sum(),
            alloc: alloc::snapshot(),
        }
    }

    /// The app is about to make its (first) send call for message `k`.
    fn on_send(&mut self, sim: &Sim, k: usize) {
        if self.sent_at[k] != UNSET {
            return;
        }
        self.sent_at[k] = sim.now().as_nanos();
        if k == self.warm {
            self.start = Some(self.mark(sim));
        }
    }

    /// The app holds the last byte of message `k`.
    fn on_done(&mut self, sim: &Sim, k: usize) {
        if k >= self.done_at.len() || self.done_at[k] != UNSET {
            self.bad += 1;
            return;
        }
        self.done_at[k] = sim.now().as_nanos();
        self.done += 1;
        if self.done == self.done_at.len() {
            self.end = Some(self.mark(sim));
        }
    }

    fn check(&mut self, got: &[u8], want: &[u8]) {
        let n = if self.verify {
            got.len()
        } else {
            got.len().min(8)
        };
        if got.len() != want.len() || got[..n] != want[..n] {
            self.bad += 1;
        }
    }

    fn fail(&mut self) {
        self.bad += 1;
        self.aborted = true;
    }

    fn started(&self) -> bool {
        self.start.is_some()
    }
}

/// The value `p` percent of the way through a sorted sample (the
/// sample's default for an empty one).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: usize) -> T {
    let rank = (sorted.len() * p / 100).min(sorted.len().saturating_sub(1));
    sorted.get(rank).copied().unwrap_or_default()
}

fn fnv1a(times: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in times {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Api: the socket calls, each inside a span
// ---------------------------------------------------------------------

/// The two applications (`side` 0 on host 0, `side` 1 on host 1) and
/// the socket calls the drivers make on them. Every call is a span
/// named after the layer it enters; data calls are tallied.
struct Api {
    apps: [AppHandle; 2],
    spans: Rc<Spans>,
    calls: Cell<CallStats>,
    /// Every descriptor opened or accepted, for the session list.
    fds: RefCell<Vec<(usize, Fd, Proto)>>,
}

impl Api {
    fn tally<T>(&self, res: &Result<T, SocketError>, recv_bytes: Option<usize>) {
        let mut c = self.calls.get();
        c.data_calls += 1;
        if matches!(res, Err(SocketError::WouldBlock)) {
            c.would_block += 1;
        }
        if let Some(n) = recv_bytes {
            c.recv_calls += 1;
            c.recv_bytes += n as u64;
        }
        self.calls.set(c);
    }

    fn socket(&self, sim: &mut Sim, side: usize, proto: Proto) -> Fd {
        let fd = self.spans.span("core.socket", || {
            AppLib::socket(&self.apps[side], sim, proto)
        });
        self.fds.borrow_mut().push((side, fd, proto));
        fd
    }

    fn bind(&self, sim: &mut Sim, side: usize, fd: Fd, port: u16) -> Result<(), SocketError> {
        self.spans.span("core.bind", || {
            AppLib::bind(&self.apps[side], sim, fd, port)
        })
    }

    fn listen(
        &self,
        sim: &mut Sim,
        side: usize,
        fd: Fd,
        backlog: usize,
    ) -> Result<(), SocketError> {
        self.spans.span("core.listen", || {
            AppLib::listen(&self.apps[side], sim, fd, backlog)
        })
    }

    fn connect(&self, sim: &mut Sim, side: usize, fd: Fd, to: InetAddr) -> Result<(), SocketError> {
        self.spans.span("core.connect", || {
            AppLib::connect(&self.apps[side], sim, fd, to)
        })
    }

    fn accept(&self, sim: &mut Sim, side: usize, fd: Fd) -> Result<Fd, SocketError> {
        let res = self
            .spans
            .span("core.accept", || AppLib::accept(&self.apps[side], sim, fd));
        if let Ok(conn) = res {
            self.fds.borrow_mut().push((side, conn, Proto::Tcp));
        }
        res
    }

    fn close(&self, sim: &mut Sim, side: usize, fd: Fd) {
        self.spans
            .span("core.close", || AppLib::close(&self.apps[side], sim, fd));
    }

    fn send(&self, sim: &mut Sim, side: usize, fd: Fd, data: &[u8]) -> Result<usize, SocketError> {
        let res = self.spans.span("core.send", || {
            AppLib::send(&self.apps[side], sim, fd, data)
        });
        self.tally(&res, None);
        res
    }

    fn recv(
        &self,
        sim: &mut Sim,
        side: usize,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<usize, SocketError> {
        let res = self
            .spans
            .span("core.recv", || AppLib::recv(&self.apps[side], sim, fd, buf));
        self.tally(&res, Some(*res.as_ref().unwrap_or(&0)));
        res
    }

    fn sendto(
        &self,
        sim: &mut Sim,
        side: usize,
        fd: Fd,
        data: &[u8],
        to: Option<InetAddr>,
    ) -> Result<usize, SocketError> {
        let res = self.spans.span("core.sendto", || {
            AppLib::sendto(&self.apps[side], sim, fd, data, to)
        });
        self.tally(&res, None);
        res
    }

    fn recvfrom(
        &self,
        sim: &mut Sim,
        side: usize,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<(usize, InetAddr), SocketError> {
        let res = self.spans.span("core.recvfrom", || {
            AppLib::recvfrom(&self.apps[side], sim, fd, buf)
        });
        self.tally(&res, Some(res.as_ref().map_or(0, |(n, _)| *n)));
        res
    }

    /// Wraps `f` as an event handler; each invocation is an
    /// `app.handler` span, the child of the `sim.run_until` slice that
    /// dispatched it.
    fn handler(&self, mut f: impl FnMut(&mut Sim, Fd, SockEvent) + 'static) -> FdEventFn {
        let spans = self.spans.clone();
        Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
            spans.span("app.handler", || f(sim, fd, ev));
        }))
    }

    fn on_event(&self, side: usize, fd: Fd, f: impl FnMut(&mut Sim, Fd, SockEvent) + 'static) {
        self.set_handler(side, fd, self.handler(f));
    }

    fn set_handler(&self, side: usize, fd: Fd, handler: FdEventFn) {
        self.apps[side].borrow_mut().set_event_handler(fd, handler);
    }

    /// The session filters each host's kernel holds: one per descriptor
    /// that lives in an application's library stack.
    fn sessions(&self) -> [Vec<EndpointSpec>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        for &(side, fd, proto) in self.fds.borrow().iter() {
            let app = self.apps[side].borrow();
            let Some(local) = app.local_addr(fd) else {
                continue;
            };
            let proto = match proto {
                Proto::Tcp => IpProto::Tcp,
                Proto::Udp => IpProto::Udp,
            };
            out[side].push(match app.remote_addr(fd) {
                Some(r) => EndpointSpec::connected(proto, local.ip, local.port, r.ip, r.port),
                None => EndpointSpec::unconnected(proto, local.ip, local.port),
            });
        }
        out
    }
}

// ---------------------------------------------------------------------
// Harness: what every driver shares
// ---------------------------------------------------------------------

/// Per-slice observation of the traced repetition.
struct Observer {
    census: Vec<CensusHandle>,
    capture: Rc<RefCell<FrameTrace>>,
    capturing: bool,
    pending: Vec<u64>,
    slice_ns_per_pkt: Vec<f64>,
    ring_max: u64,
    slice_events: u64,
    testbed_new_ns: u64,
    /// Counters right after the bed was built, and at the first slice
    /// boundary of the timed region.
    at_build: Counts,
    at_start: Option<Counts>,
}

struct Harness {
    bed: TestBed,
    api: Rc<Api>,
    meter: Rc<RefCell<Meter>>,
    pattern: Rc<Pattern>,
    obs: Option<Observer>,
    config: SystemConfig,
    strategy: DemuxStrategy,
    host0: Instant,
    live0: u64,
    lead: usize,
}

impl Harness {
    fn new(spec: &RepSpec, config: SystemConfig, strategy: DemuxStrategy) -> Harness {
        // The harness's own arrays come first, so the repetition's heap
        // high-water mark counts the program and not them.
        let pattern = Rc::new(Pattern::new(spec.seed));
        let times = [vec![UNSET; spec.msgs], vec![UNSET; spec.msgs]];
        alloc::reset_peak();
        let live0 = alloc::snapshot().live;
        let host0 = Instant::now();
        let mut bed = spec.spans.span("systems.testbed_new", || {
            TestBed::new(config, PLATFORM, spec.seed)
        });
        let testbed_new_ns = host0.elapsed().as_nanos() as u64;
        // The strategy must be chosen while the filter table is empty.
        for h in &bed.hosts {
            h.kernel.borrow_mut().set_demux_strategy(strategy);
        }
        let census = spec.spans.is_on().then(|| bed.attach_census());
        let api = Rc::new(Api {
            apps: [bed.hosts[0].spawn_app(), bed.hosts[1].spawn_app()],
            spans: spec.spans.clone(),
            calls: Cell::new(CallStats::default()),
            fds: RefCell::new(Vec::new()),
        });
        let stacks: Vec<StackHandle> = bed
            .hosts
            .iter()
            .map(|h| h.os_stack())
            .chain(api.apps.iter().filter_map(|a| a.borrow().stack()))
            .collect();
        let meter = Rc::new(RefCell::new(Meter::new(
            bed.ether.clone(),
            stacks,
            times,
            spec.verify,
        )));
        let mut h = Harness {
            bed,
            api,
            meter,
            pattern,
            obs: None,
            config,
            strategy,
            host0,
            live0,
            lead: spec.lead,
        };
        if let Some(census) = census {
            let mut obs = Observer {
                census,
                capture: Rc::new(RefCell::new(FrameTrace::default())),
                capturing: false,
                pending: Vec::new(),
                slice_ns_per_pkt: Vec::new(),
                ring_max: 0,
                slice_events: 0,
                testbed_new_ns,
                at_build: Counts::default(),
                at_start: None,
            };
            obs.at_build = h.counts(&obs.census);
            h.obs = Some(obs);
        }
        h
    }

    /// Reads every layer counter.
    fn counts(&self, census: &[CensusHandle]) -> Counts {
        let mut c = Counts::default();
        let e = self.bed.ether.borrow().stats();
        c.frames = e.tx_frames;
        c.wire_dropped = e.dropped;
        c.wire_duplicated = e.duplicated;
        c.wire_reordered = e.reordered;
        for h in &self.bed.hosts {
            let k = h.kernel.borrow().stats();
            c.rx_frames += k.rx_frames;
            c.rx_session += k.rx_session;
            c.filter_steps += k.filter_steps;
            c.wakeups_amortized += k.wakeups_amortized;
            c.kernel_drops += k.drops.total();
        }
        for app in &self.api.apps {
            let a = app.borrow();
            c.data_rpcs += a.stats.data_rpcs;
            c.migrations += a.stats.migrations_in + a.stats.migrations_out;
            c.rpc_retries += a.stats.rpc_retries;
        }
        for s in &self.meter.borrow().stacks {
            let st = s.borrow().stats;
            c.tcp_in += st.tcp_in;
            c.tcp_rexmt += st.tcp_rexmt;
            c.stack_drops += st.drops.total();
        }
        let pool = psd_mbuf::pool_stats();
        c.pool_hits = pool.hits();
        c.pool_misses = pool.misses();
        for cs in census {
            let cs = cs.borrow();
            c.crossings += cs.total(OpKind::BoundaryCrossing);
            c.wakeups += cs.total(OpKind::Wakeup);
            c.body_copies_kernel += cs.domain_total(OpKind::PacketBodyCopy, Domain::Kernel);
            c.body_copies_stack += cs.domain_total(OpKind::PacketBodyCopy, Domain::Server)
                + cs.domain_total(OpKind::PacketBodyCopy, Domain::Library);
            c.checksums += cs.total(OpKind::Checksum);
            c.filter_runs += cs.total(OpKind::FilterRun);
        }
        c.events = self.bed.sim.executed();
        c
    }

    /// Runs the simulation to `deadline`: one `sim.run_until` slice.
    fn run_until(&mut self, deadline: SimTime) {
        let Some(mut obs) = self.obs.take() else {
            self.bed.sim.run_until(deadline);
            return;
        };
        let started = self.meter.borrow().started();
        if started && obs.at_start.is_none() {
            obs.at_start = Some(self.counts(&obs.census));
            self.bed
                .ether
                .borrow_mut()
                .set_trace(Some(obs.capture.clone()));
            obs.capturing = true;
        }
        let frames0 = self.bed.ether.borrow().stats().tx_frames;
        let t0 = Instant::now();
        let sim = &mut self.bed.sim;
        obs.slice_events += self
            .api
            .spans
            .span("sim.run_until", || sim.run_until(deadline));
        let ns = t0.elapsed().as_nanos() as f64;
        if started {
            let frames = self.bed.ether.borrow().stats().tx_frames - frames0;
            if frames > 0 {
                obs.slice_ns_per_pkt.push(ns / frames as f64);
            }
            obs.pending.push(self.bed.sim.pending() as u64);
            let ring: u64 = self
                .bed
                .hosts
                .iter()
                .map(|h| h.kernel.borrow().ring_occupancy())
                .sum();
            obs.ring_max = obs.ring_max.max(ring);
        }
        if obs.capturing && obs.capture.borrow().frames.len() >= CAPTURE_FRAMES {
            self.bed.ether.borrow_mut().set_trace(None);
            obs.capturing = false;
        }
        self.obs = Some(obs);
    }

    fn run_for(&mut self, d: SimTime) {
        let deadline = self.bed.sim.now() + d;
        self.run_until(deadline);
    }

    /// Runs slices until `pred` holds, the driver aborts, or `cap` of
    /// virtual time passes (a stall: the undelivered messages then count
    /// as failed operations).
    fn drive(&mut self, cap: SimTime, pred: impl Fn(&Harness) -> bool) -> bool {
        let t0 = self.bed.sim.now();
        loop {
            if pred(self) {
                return true;
            }
            if self.meter.borrow().aborted || self.bed.sim.now() - t0 >= cap {
                return false;
            }
            self.run_for(DRIVE_SLICE);
        }
    }

    fn drive_to_end(&mut self, cap: SimTime) {
        self.drive(cap, |h| h.meter.borrow().end.is_some());
    }

    /// Virtual µs of CPU one more `bind` costs on host 1 right now. A
    /// bind RPC runs synchronously on the host CPU without scheduling
    /// events, so the event clock does not move; the busy cursor does.
    fn probe_bind(&mut self, port: u16) -> f64 {
        let cursor = |h: &Harness| {
            let busy = h.bed.hosts[1].cpu.borrow().busy_until();
            busy.max(h.bed.sim.now()).as_nanos()
        };
        let fd = self.api.socket(&mut self.bed.sim, 1, Proto::Udp);
        self.bed.settle();
        let c0 = cursor(self);
        let bound = self.api.bind(&mut self.bed.sim, 1, fd, port);
        self.bed.settle();
        let c1 = cursor(self);
        if bound.is_err() {
            self.meter.borrow_mut().fail();
        }
        (c1 - c0) as f64 / 1e3
    }

    /// Closes the region and the bed, and computes the result.
    /// `payload` is the application payload of the timed messages;
    /// `model_err` sees the per-message completion times.
    fn finish(
        mut self,
        payload: u64,
        clean_wire: bool,
        model_err: impl FnOnce(&[u64]) -> Option<f64>,
    ) -> Rep {
        let end_counts = self.obs.as_ref().map(|o| self.counts(&o.census));
        let sessions = self.api.sessions();
        let bind_sim_us = if self.obs.is_some() {
            self.probe_bind(29_999)
        } else {
            0.0
        };
        let meter = self.meter.clone();
        let mut m = meter.borrow_mut();
        // A stalled repetition still reports, with its failures counted.
        if m.end.is_none() {
            m.end = Some(m.mark(&self.bed.sim));
        }
        if m.start.is_none() {
            m.start = Some(m.mark(&self.bed.sim));
        }
        let (start, end) = (m.start.as_ref().unwrap(), m.end.as_ref().unwrap());
        let mut lat: Vec<u64> = (m.warm..m.done_at.len())
            .filter(|&k| m.done_at[k] != UNSET && m.sent_at[k] != UNSET)
            .map(|k| m.done_at[k] - m.sent_at[k])
            .collect();
        lat.sort_unstable();
        let mut failed = (m.done_at.len() - m.done) as u64 + m.bad;
        if clean_wire {
            failed += end.rexmt - start.rexmt;
        }
        let result = RepResult {
            setup_s: (start.host - self.host0).as_secs_f64(),
            wall_ns: (end.host - start.host).as_nanos() as u64,
            packets: end.frames - start.frames,
            events: end.events - start.events,
            payload,
            sim_ns: (end.sim - start.sim).as_nanos(),
            allocs: end.alloc.allocs - start.alloc.allocs,
            alloc_bytes: end.alloc.bytes - start.alloc.bytes,
            peak_heap: alloc::snapshot().peak.saturating_sub(self.live0),
            lat_samples: lat.len() as u64,
            lat_p50_ns: percentile(&lat, 50),
            lat_p99_ns: percentile(&lat, 99),
            model_err_pct: model_err(&m.done_at),
            digest: fnv1a(&m.done_at),
            lead_digest: fnv1a(&m.done_at[..self.lead.min(m.done_at.len())]),
            ops: m.done_at.len() as u64,
            failed,
        };
        drop(m);
        let observed = self.obs.take().map(|o| {
            let end_counts = end_counts.expect("read with the observer present");
            // The region's counters are read at slice boundaries, not at
            // the marks; over a region of thousands of slices the edge
            // is noise, and ratios are taken against the same reading.
            let mut frames: Vec<Vec<u8>> = std::mem::take(&mut o.capture.borrow_mut().frames)
                .into_iter()
                .map(|(_, f)| f)
                .collect();
            frames.truncate(CAPTURE_FRAMES);
            Observed {
                counts: end_counts.minus(o.at_start.unwrap_or(o.at_build)),
                setup_counts: o.at_start.unwrap_or(o.at_build).minus(o.at_build),
                calls: self.api.calls.get(),
                frames,
                sessions,
                strategy: self.strategy,
                rx_mode: self.config.rx_mode(),
                pending: o.pending,
                slice_ns_per_pkt: o.slice_ns_per_pkt,
                ring_max: o.ring_max,
                slice_events: o.slice_events,
                bind_sim_us,
                testbed_new_ns: o.testbed_new_ns,
            }
        });
        // Tear down through the API so `core.close` is in the trace and
        // the bed is quiescent when it drops.
        let fds: Vec<_> = self.api.fds.borrow().clone();
        for (side, fd, _) in fds {
            self.api.close(&mut self.bed.sim, side, fd);
        }
        self.bed.settle();
        Rep { result, observed }
    }
}

/// Runs one repetition.
pub fn run(spec: &RepSpec) -> Rep {
    match spec.workload {
        Workload::BulkLib | Workload::LossySrv => bulk::run(spec),
        Workload::EchoLib => echo::run(spec),
        Workload::FaninCspf | Workload::FaninMpf => fanin::run(spec),
    }
}
