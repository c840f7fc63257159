//! Processor modeling.
//!
//! Each simulated host has one [`Cpu`] (the paper's machines are
//! uniprocessors). A code path executing at some event time opens a
//! [`Charge`] cursor on the CPU; every operation along the path charges
//! its calibrated cost, advancing the cursor. When the path finishes, the
//! CPU is marked busy until the cursor and side effects (frame handed to
//! the wire, thread wakeup) are scheduled at the cursor time.
//!
//! This queueing treatment makes throughput saturate correctly: when the
//! receiver CPU cannot drain packets at wire rate, arriving work queues
//! behind `busy_until` and end-to-end bandwidth drops — exactly the
//! effect that separates the server-based configuration from the others
//! in Table 2.
//!
//! Four observability planes can attach to a CPU — operation census,
//! fault plane, packet tracer, and charged-time profiler — as one
//! [`Observers`] value through one call, [`Observable::set_observers`].
//! All are charged-time-neutral. Their dispatch is flattened into a
//! single packed bitmask recomputed in that setter and copied into
//! each [`Charge`]: the hot methods test one byte and fall through in
//! the (default) all-detached case, instead of walking a chain of
//! `Option` checks.

use crate::census::{CensusHandle, Domain, OpKind};
use crate::cost::{CostModel, Op};
use crate::fault::{FaultPlaneHandle, FaultSite};
use crate::layer::Layer;
use crate::profile::{ProfEntry, ProfileHandle, ROOT_SITE};
use crate::time::SimTime;
use crate::trace::{
    DropCounters, DropReason, PacketCtx, Stage, Terminal, TraceHandle, TraceId, Tracer,
};

// The packed dispatch mask: one bit per attachable plane.
// `Cpu`'s `set_observers` recomputes it; `begin` copies it into the
// `Charge` so the hot methods test a single register.
const M_CENSUS: u8 = 1 << 0;
const M_FAULT: u8 = 1 << 1;
const M_TRACE: u8 = 1 << 2;
const M_PROFILE: u8 = 1 << 3;

/// The attachable observability planes, as one value: what every
/// [`Observable`] takes. `None` detaches a plane; the default observes
/// nothing.
///
/// The contract every plane keeps: observing never charges virtual
/// time, never consumes randomness (an attached-but-empty fault plane
/// included) and never schedules an event, so a run with any subset
/// attached is byte-identical to a plain one; with nothing attached the
/// hooks cost one mask test. Wire elements consult only `fault` and
/// `trace` and ignore the rest.
#[derive(Clone, Debug, Default)]
pub struct Observers {
    /// Operation census: counted operations and typed drops report to
    /// it.
    pub census: Option<CensusHandle>,
    /// Fault plane: fault sites consult it.
    pub fault: Option<FaultPlaneHandle>,
    /// Packet-lifecycle tracer: spans, events and terminal states
    /// report to it.
    pub trace: Option<TraceHandle>,
    /// Charged-time profiler: every nanosecond charged is attributed to
    /// it at `finish` time. For the exact-conservation guarantee
    /// (`attributed_ns == total_busy`) attach before the CPU's first
    /// charge.
    pub profile: Option<ProfileHandle>,
}

impl Observers {
    fn mask(&self) -> u8 {
        fn bit(attached: bool, mask: u8) -> u8 {
            if attached {
                mask
            } else {
                0
            }
        }
        bit(self.census.is_some(), M_CENSUS)
            | bit(self.fault.is_some(), M_FAULT)
            | bit(self.trace.is_some(), M_TRACE)
            | bit(self.profile.is_some(), M_PROFILE)
    }
}

/// Something an [`Observers`] set attaches to: a [`Cpu`], and the wire
/// (`Ethernet`). One trait so that every element is attached the same
/// way.
pub trait Observable {
    /// The attached observer set.
    fn observers(&self) -> &Observers;

    /// Replaces the attached observer set: the element reports to
    /// exactly these planes from now on. To add one plane and keep the
    /// rest, start from a clone of [`Observable::observers`].
    fn set_observers(&mut self, obs: Observers);
}

/// A serializing processor resource.
#[derive(Debug, Default)]
pub struct Cpu {
    busy_until: SimTime,
    total_busy: SimTime,
    obs: Observers,
    mask: u8,
}

impl Cpu {
    /// Creates an idle CPU.
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// The instant the CPU becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated, for utilization reporting.
    pub fn total_busy(&self) -> SimTime {
        self.total_busy
    }

    /// Opens a charge cursor for a path that becomes runnable at `now`.
    /// The path starts when the CPU is free.
    pub fn begin(&mut self, now: SimTime) -> Charge {
        Charge {
            start: now.max(self.busy_until),
            cursor: now.max(self.busy_until),
            mask: self.mask,
            obs: self.obs.clone(),
            site: ROOT_SITE,
            prof_buf: Vec::new(),
        }
    }

    /// Completes a path: the CPU stays busy until the cursor. Returns the
    /// completion instant at which side effects should be scheduled.
    ///
    /// If the charge carries a profiler, its buffered attribution
    /// entries are flushed here — the same instant its elapsed time
    /// enters `total_busy`, which is what makes conservation exact: a
    /// charge's elapsed time is definitionally the sum of its `add`
    /// costs, and abandoned (never-finished) charges reach neither
    /// accumulator.
    pub fn finish(&mut self, charge: Charge) -> SimTime {
        self.total_busy += charge.elapsed();
        self.busy_until = self.busy_until.max(charge.cursor);
        if let Some(p) = &charge.obs.profile {
            p.borrow_mut().flush(&charge.prof_buf);
        }
        charge.cursor
    }
}

impl Observable for Cpu {
    fn observers(&self) -> &Observers {
        &self.obs
    }

    /// Every charge opened on this CPU from now on reports to `obs`.
    fn set_observers(&mut self, obs: Observers) {
        self.mask = obs.mask();
        self.obs = obs;
    }
}

/// A cost cursor along one synchronous code path.
///
/// The cursor is threaded (`&mut Charge`) down through the protocol
/// layers; each layer charges the operations it performs.
#[derive(Debug)]
pub struct Charge {
    start: SimTime,
    cursor: SimTime,
    mask: u8,
    obs: Observers,
    /// Current site-trie node for hierarchical attribution.
    site: u32,
    /// Buffered attribution entries, flushed by [`Cpu::finish`].
    prof_buf: Vec<ProfEntry>,
}

impl Charge {
    /// The current position of the cursor (virtual "now" for this path).
    pub fn at(&self) -> SimTime {
        self.cursor
    }

    /// Time charged so far.
    pub(crate) fn elapsed(&self) -> SimTime {
        self.cursor - self.start
    }

    /// Charges `cost` against `layer`.
    #[inline]
    fn add(&mut self, layer: Layer, cost: SimTime) {
        self.cursor += cost;
        if self.mask & M_PROFILE != 0 {
            self.add_profiled(layer, cost);
        }
    }

    /// The profiled half of [`Charge::add`], kept out of the
    /// all-planes-detached fast path.
    #[cold]
    fn add_profiled(&mut self, layer: Layer, cost: SimTime) {
        let layer = layer.index() as u8;
        // Coalesce runs of adds at the same (site, layer):
        // typical paths charge the same bucket several times in a
        // row, and one merged entry keeps the buffer tiny.
        if let Some(last) = self.prof_buf.last_mut() {
            if last.node == self.site && last.layer == layer {
                last.ns += cost.as_nanos();
                return;
            }
        }
        self.prof_buf.push(ProfEntry {
            node: self.site,
            layer,
            ns: cost.as_nanos(),
        });
    }

    /// Charges `cost` nanoseconds against `layer`: work the cost model
    /// does not price, such as an application's think time.
    pub fn add_ns(&mut self, layer: Layer, ns: u64) {
        self.add(layer, SimTime::from_nanos(ns));
    }

    /// Performs `op` in `domain`: charges its price from `costs` against
    /// `layer` and counts it in the census (if attached) as
    /// `Op::census` says. The one call every protocol path charges
    /// through, so a counted operation is always priced and a price
    /// always belongs to a named operation.
    #[inline(always)]
    pub fn op(&mut self, costs: &CostModel, op: Op, domain: Domain, layer: Layer) {
        self.add(layer, SimTime::from_nanos(costs.price(op)));
        if self.mask & M_CENSUS != 0 {
            self.op_observed(op, domain, layer);
        }
    }

    #[cold]
    fn op_observed(&mut self, op: Op, domain: Domain, layer: Layer) {
        let mut c = self
            .obs
            .census
            .as_ref()
            .expect("mask implies census")
            .borrow_mut();
        if let Some((kind, n)) = op.census() {
            c.note_n(kind, domain, layer, n);
        }
        // Per-session attribution: only the session the frame is
        // destined for is counted, the isolation the filter provides.
        if let Op::FilterRun(_, Some(scope)) = op {
            c.note_scoped(OpKind::FilterRun, scope, 1);
        }
    }

    // --- Charged-time profiling hooks ---

    /// Pushes a profiling site: subsequent charges are attributed to
    /// `label` (nested under the current site) until the matching
    /// [`Charge::site_pop`]. Free, and a no-op without a profiler.
    /// Pushes and pops must balance along every instrumented path.
    #[inline]
    pub fn site_push(&mut self, domain: Domain, label: &'static str) {
        if self.mask & M_PROFILE != 0 {
            let p = self.obs.profile.as_ref().expect("mask implies profiler");
            self.site = p.borrow_mut().intern(self.site, domain, label);
        }
    }

    /// Pops the innermost profiling site.
    #[inline]
    pub fn site_pop(&mut self) {
        if self.mask & M_PROFILE != 0 {
            let p = self.obs.profile.as_ref().expect("mask implies profiler");
            let parent = p.borrow().parent_of(self.site);
            self.site = parent;
        }
    }

    /// Consults the fault plane at `site` (if one is attached): counts
    /// the visit and reports whether this visit fails. Consulting is
    /// free — the cursor does not advance — and a detached or empty
    /// plane always answers `false`.
    #[inline]
    pub fn fault(&mut self, site: FaultSite) -> bool {
        if self.mask & M_FAULT == 0 {
            return false;
        }
        match &self.obs.fault {
            Some(f) => f.borrow_mut().should_inject(site),
            None => false,
        }
    }

    // --- Packet-lifecycle tracing hooks ---
    //
    // All hooks are free (the cursor does not advance) and no-ops when
    // no tracer is attached or no packet is current, so instrumented
    // paths cost nothing in a plain run.

    /// Runs `f` on the tracer with the current packet and the cursor —
    /// the one body every tracing hook below shares.
    #[inline]
    fn trace_current(&mut self, f: impl FnOnce(&mut Tracer, TraceId, SimTime)) {
        if self.mask & M_TRACE == 0 {
            return;
        }
        if let Some(t) = &self.obs.trace {
            let mut t = t.borrow_mut();
            if let Some(id) = t.current() {
                f(&mut t, id, self.cursor);
            }
        }
    }

    /// Opens a `stage` span on the current packet at the cursor.
    #[inline]
    pub fn trace_span_start(&mut self, stage: Stage) {
        self.trace_current(|t, id, at| t.span_start(id, stage, at));
    }

    /// Closes the innermost open span (which must be `stage`) on the
    /// current packet at the cursor.
    #[inline]
    pub fn trace_span_end(&mut self, stage: Stage) {
        self.trace_current(|t, id, at| t.span_end(id, stage, at));
    }

    /// Records a named instant event on the current packet.
    #[inline]
    pub fn trace_event(&mut self, name: &'static str) {
        self.trace_current(|t, id, at| t.event(id, at, name));
    }

    /// The packet under the cursor, for an asynchronous continuation
    /// to capture and [enter](PacketCtx::enter) when it runs.
    pub fn packet(&self) -> PacketCtx {
        if self.mask & M_TRACE == 0 {
            return PacketCtx::default();
        }
        PacketCtx::current(self.obs.trace.as_ref())
    }

    /// The receive-path drop call: the packet under the cursor dies for
    /// `reason` in `domain`. Counts it in the component's `drops` and
    /// the census, and terminates the packet's trace.
    pub fn drop_current(&mut self, drops: &mut DropCounters, reason: DropReason, domain: Domain) {
        self.drop_other(drops, reason, domain);
        self.trace_terminal(Terminal::Dropped(reason));
    }

    /// The transmit-path drop call: a packet other than the one under
    /// the cursor dies for `reason` in `domain` — a reply dying on the
    /// way out (ARP pending, limiter, disconnected device) or an expired
    /// fragment — while the packet being processed lives on. Counts it
    /// in the component's `drops` and the census, and terminates
    /// nothing.
    pub fn drop_other(&mut self, drops: &mut DropCounters, reason: DropReason, domain: Domain) {
        drops.note(reason);
        if self.mask & M_CENSUS != 0 {
            if let Some(c) = &self.obs.census {
                c.borrow_mut().note_drop(reason, domain);
            }
        }
    }

    /// Records the current packet's `Delivered` terminal state.
    pub fn trace_delivered(&mut self) {
        self.trace_terminal(Terminal::Delivered);
    }

    /// Records the current packet's `Absorbed` terminal state (the
    /// packet was consumed by a protocol engine, not lost).
    pub fn trace_absorbed(&mut self) {
        self.trace_terminal(Terminal::Absorbed);
    }

    fn trace_terminal(&mut self, term: Terminal) {
        self.trace_current(|t, id, at| t.terminal(id, at, term));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
    use crate::cost::{Discipline, Medium};
    use crate::profile::Profiler;
    use crate::trace::Tracer;

    #[test]
    fn charge_advances_cursor() {
        let mut cpu = Cpu::new();
        let mut c = cpu.begin(SimTime::from_micros(10));
        c.add(Layer::IpOutput, SimTime::from_micros(5));
        c.add_ns(Layer::IpOutput, 500);
        assert_eq!(c.at(), SimTime::from_nanos(15_500));
        let done = cpu.finish(c);
        assert_eq!(done, SimTime::from_nanos(15_500));
        assert_eq!(cpu.busy_until(), done);
    }

    #[test]
    fn cpu_serializes_paths() {
        let mut cpu = Cpu::new();
        let mut a = cpu.begin(SimTime::ZERO);
        a.add(Layer::Other, SimTime::from_micros(100));
        cpu.finish(a);
        // A path arriving at t=10 must wait until t=100.
        let b = cpu.begin(SimTime::from_micros(10));
        assert_eq!(b.at(), SimTime::from_micros(100));
    }

    #[test]
    fn idle_cpu_starts_immediately() {
        let mut cpu = Cpu::new();
        let c = cpu.begin(SimTime::from_micros(42));
        assert_eq!(c.at(), SimTime::from_micros(42));
    }

    #[test]
    fn total_busy_accumulates() {
        let mut cpu = Cpu::new();
        for _ in 0..3 {
            let mut c = cpu.begin(SimTime::ZERO);
            c.add(Layer::Other, SimTime::from_micros(7));
            cpu.finish(c);
        }
        assert_eq!(cpu.total_busy(), SimTime::from_micros(21));
    }

    #[test]
    fn charges_reach_profiler_and_census() {
        let prof = Profiler::shared();
        let census = Census::shared();
        let mut cpu = Cpu::new();
        cpu.set_observers(Observers {
            profile: Some(prof.clone()),
            census: Some(census.clone()),
            ..Observers::default()
        });
        let costs = CostModel::decstation_5000_200();
        let mut c = cpu.begin(SimTime::ZERO);
        c.add(Layer::TcpUdpInput, SimTime::from_micros(3));
        c.op(&costs, Op::IpcMessage, Domain::Kernel, Layer::KernelCopyout);
        cpu.finish(c);
        let p = prof.borrow();
        assert_eq!(p.layer_ns(Layer::TcpUdpInput), 3_000);
        assert_eq!(p.layer_ns(Layer::KernelCopyout), costs.ipc_oneway);
        assert_eq!(
            census
                .borrow()
                .layer_total(OpKind::BoundaryCrossing, Layer::KernelCopyout),
            1
        );
    }

    #[test]
    fn per_byte_charges_scale() {
        let costs = CostModel::decstation_5000_200();
        let mut cpu = Cpu::new();
        let mut c = cpu.begin(SimTime::ZERO);
        let copy = Op::BodyCopy(Medium::User, 1000);
        c.op(&costs, copy, Domain::Library, Layer::EntryCopyin);
        assert_eq!(c.elapsed(), SimTime::from_nanos(126_000));
    }

    #[test]
    fn filter_runs_count_their_session_and_uncounted_ops_only_price() {
        let census = Census::shared();
        let costs = CostModel::decstation_5000_200();
        let mut cpu = Cpu::new();
        cpu.set_observers(Observers {
            census: Some(census.clone()),
            ..Observers::default()
        });
        let mut c = cpu.begin(SimTime::ZERO);
        let (kernel, netisr) = (Domain::Kernel, Layer::NetisrPacketFilter);
        c.op(&costs, Op::Netisr, kernel, netisr);
        c.op(&costs, Op::FilterRun(3, Some(7)), kernel, netisr);
        let want = SimTime::from_nanos(costs.netisr + 3 * costs.filter_insn);
        assert_eq!(cpu.finish(c), want);
        // One run in the grid and one against its session; the netisr
        // hand-off is priced, not counted.
        let census = census.borrow();
        assert_eq!(census.scoped(OpKind::FilterRun, 7), 1);
        assert_eq!(census.snapshot().lines().count(), 2);
    }

    #[test]
    fn note_fans_out_to_census_and_tracer() {
        let census = Census::shared();
        let tracer = Tracer::shared();
        let mut cpu = Cpu::new();
        cpu.set_observers(Observers {
            census: Some(census.clone()),
            trace: Some(tracer.clone()),
            ..Observers::default()
        });
        let pkt = PacketCtx::begin(Some(&tracer), SimTime::ZERO, &PacketCtx::default());
        let costs = CostModel::decstation_5000_200();
        pkt.enter(|| {
            let mut c = cpu.begin(SimTime::ZERO);
            let copy = Op::BodyCopy(Medium::KernelCached, 10);
            c.op(&costs, copy, Domain::Kernel, Layer::KernelCopyout);
            let spl = Op::Sync(Discipline::Spl, 2);
            c.op(&costs, spl, Domain::Kernel, Layer::WakeupUserThread);
            c.trace_span_start(Stage::NicRx);
            c.add_ns(Layer::DeviceIntrRead, 100);
            c.trace_span_end(Stage::NicRx);
            c.trace_delivered();
            cpu.finish(c);
        });
        assert_eq!(census.borrow().total(OpKind::SplRaise), 2);
        let t = tracer.borrow();
        assert_eq!(t.stage_latencies(Stage::NicRx), vec![100]);
        assert_eq!(t.terminal_counts(), (1, 0, 0));
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn drop_current_terminates_and_drop_other_only_counts() {
        let census = Census::shared();
        let tracer = Tracer::shared();
        let mut cpu = Cpu::new();
        cpu.set_observers(Observers {
            census: Some(census.clone()),
            trace: Some(tracer.clone()),
            ..Observers::default()
        });
        let mut drops = DropCounters::default();
        let pkt = PacketCtx::begin(Some(&tracer), SimTime::ZERO, &PacketCtx::default());
        pkt.enter(|| {
            let mut c = cpu.begin(SimTime::ZERO);
            assert_eq!(c.packet().id(), pkt.id());
            // A transmit-side drop must not terminate the current packet.
            c.drop_other(&mut drops, DropReason::ArpUnresolved, Domain::Library);
            assert_eq!(tracer.borrow().terminal_counts(), (0, 0, 0));
            // A receive-side drop terminates it.
            c.drop_current(&mut drops, DropReason::ChecksumError, Domain::Library);
            cpu.finish(c);
        });
        let t = tracer.borrow();
        assert_eq!(t.terminal_counts(), (0, 0, 1));
        assert_eq!(t.drops().get(DropReason::ChecksumError), 1);
        assert!(t.check_invariants().is_empty());
        // Every drop reaches the component's counters and the census.
        let census = census.borrow();
        for reason in [DropReason::ArpUnresolved, DropReason::ChecksumError] {
            assert_eq!(drops.get(reason), 1);
            assert_eq!(census.drop_count(reason, Domain::Library), 1);
        }
    }

    #[test]
    fn mask_tracks_detach() {
        // Attach, then detach: the mask must drop back so hot methods
        // take the fast path again and observers stop receiving; site
        // and fault hooks on an unobserved charge are free no-ops.
        let census = Census::shared();
        let mut cpu = Cpu::new();
        cpu.set_observers(Observers {
            census: Some(census.clone()),
            ..Observers::default()
        });
        cpu.set_observers(Observers::default());
        let mut c = cpu.begin(SimTime::ZERO);
        let copy = Op::BodyCopy(Medium::Kernel, 1);
        c.op(
            &CostModel::decstation_5000_200(),
            copy,
            Domain::Kernel,
            Layer::KernelCopyout,
        );
        c.site_push(Domain::Kernel, "nowhere");
        c.site_pop();
        assert!(!c.fault(FaultSite::WireLoss));
        cpu.finish(c);
        assert_eq!(census.borrow().total(OpKind::PacketBodyCopy), 0);
    }
}
