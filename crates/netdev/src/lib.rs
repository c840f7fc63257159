//! The simulated 10 Mb/s Ethernet segment.
//!
//! Stations (host network interfaces) attach to a shared [`Ethernet`]
//! medium. Transmissions serialize on the wire and take real 10 Mb/s
//! time: `(max(len, 60) + 4 FCS) × 0.8 µs/byte`, which reproduces the
//! paper's Table 4 network transit figures exactly (51 µs for a minimum
//! frame, 1214 µs for a full 1514-byte TCP frame).
//!
//! The medium supports deterministic fault injection — loss (independent
//! and bursty), duplication, reordering, and link-down windows — all
//! driven through the attached `psd_sim::fault` plane, so every wire
//! fault is a named, scripted or seeded [`FaultSite`] and the medium
//! itself consumes no randomness. A [`FrameTrace`] can be attached to
//! capture traffic for assertions and debugging.

use std::cell::RefCell;
use std::rc::Rc;

use psd_sim::{
    DropCounters, DropReason, FaultSite, Observable, Observers, PacketCtx, Sim, SimTime, Stage,
    Terminal,
};
use psd_wire::{EtherAddr, EthernetHeader};

/// Minimum frame length on the wire (without FCS).
pub(crate) const MIN_FRAME: usize = 60;
/// FCS length added on the wire.
pub(crate) const FCS_LEN: usize = 4;

/// Wire timing for a 10 Mb/s Ethernet (100 ns per bit).
#[derive(Clone, Copy, Debug)]
pub struct EtherTiming {
    /// Nanoseconds per bit (100 for 10 Mb/s).
    pub(crate) bit_ns: u64,
}

impl EtherTiming {
    /// Standard 10 Mb/s Ethernet.
    pub fn ten_megabit() -> EtherTiming {
        EtherTiming { bit_ns: 100 }
    }

    /// The on-wire time for a frame of `len` bytes (header + payload,
    /// excluding FCS, which is added here).
    pub fn frame_time(&self, len: usize) -> SimTime {
        let wire_bytes = (len.max(MIN_FRAME) + FCS_LEN) as u64;
        SimTime::from_nanos(wire_bytes * 8 * self.bit_ns)
    }
}

/// A network interface attached to the segment.
pub trait Station {
    /// The station's MAC address, used for delivery filtering.
    fn mac(&self) -> EtherAddr;

    /// True if the station wants all frames regardless of destination.
    fn promiscuous(&self) -> bool {
        false
    }

    /// Called when a frame addressed to this station (or broadcast) has
    /// fully arrived.
    fn frame_arrived(&mut self, sim: &mut Sim, frame: Vec<u8>);
}

/// Traffic counters for the segment.
#[derive(Clone, Copy, Debug, Default)]
pub struct EtherStats {
    /// Frames handed to the medium.
    pub tx_frames: u64,
    /// Bytes handed to the medium (before min-frame padding).
    pub(crate) tx_bytes: u64,
    /// Frames dropped by fault injection.
    pub dropped: u64,
    /// Frames duplicated by fault injection.
    pub duplicated: u64,
    /// Frames reordered by fault injection.
    pub reordered: u64,
    /// Frames delivered to stations (one per receiving station).
    pub(crate) delivered: u64,
    /// Wire time of every frame handed to the medium, dropped ones
    /// included: serialization time, in nanoseconds. Table
    /// 4's "network transit" row is this counter's delta over the
    /// measured rounds.
    pub wire_ns: u64,
}

/// An optional capture of frames for tests and debugging.
#[derive(Debug, Default)]
pub struct FrameTrace {
    /// Captured `(time, frame)` pairs, in transmission order.
    pub frames: Vec<(SimTime, Vec<u8>)>,
}

/// The shared Ethernet medium.
pub struct Ethernet {
    timing: EtherTiming,
    /// Extra delay applied to reordered and duplicated frames.
    reorder_delay: SimTime,
    stations: Vec<Rc<RefCell<dyn Station>>>,
    busy_until: SimTime,
    stats: EtherStats,
    /// Always-on per-reason drop counters: every frame the medium kills
    /// lands here with a typed reason, tracer attached or not.
    drops: DropCounters,
    trace: Option<Rc<RefCell<FrameTrace>>>,
    /// The attached observers; the medium consults two of them.
    ///
    /// `fault` is visited per transmitted frame: [`FaultSite::LinkDown`]
    /// (flap / partition windows), [`FaultSite::WireBurstLoss`] (an
    /// injection drops the frame and the following `burst_len - 1`
    /// frames — correlated loss, the case that defeats fast retransmit
    /// and forces an RTO), then the independent per-frame sites
    /// [`FaultSite::WireLoss`] / [`FaultSite::WireDuplicate`] /
    /// [`FaultSite::WireReorder`]. With no plane attached (or an empty
    /// one) the medium is a perfect wire and consumes no randomness.
    ///
    /// `trace` gives every transmitted frame a provenance id, a wire
    /// span, and a terminal state; each station delivery becomes a
    /// traced child packet.
    obs: Observers,
    /// Frames still to drop from an in-progress loss burst.
    burst_remaining: u32,
    /// Scratch list of one delivery's receiving stations, kept so its
    /// storage is reused from frame to frame.
    receivers: Vec<Rc<RefCell<dyn Station>>>,
}

/// Shared handle to an [`Ethernet`].
pub type EthernetHandle = Rc<RefCell<Ethernet>>;

impl Ethernet {
    /// Creates a segment with the given timing. The medium itself is
    /// deterministic and owns no randomness: all faults come from an
    /// attached fault plane.
    pub fn new(timing: EtherTiming) -> EthernetHandle {
        Rc::new(RefCell::new(Ethernet {
            timing,
            reorder_delay: SimTime::from_millis(2),
            stations: Vec::new(),
            busy_until: SimTime::ZERO,
            stats: EtherStats::default(),
            drops: DropCounters::default(),
            trace: None,
            obs: Observers::default(),
            burst_remaining: 0,
            receivers: Vec::new(),
        }))
    }

    /// A standard private 10 Mb/s segment with no faults.
    pub fn ten_megabit(_sim: &mut Sim) -> EthernetHandle {
        Ethernet::new(EtherTiming::ten_megabit())
    }

    /// Attaches a station.
    pub fn attach(&mut self, station: Rc<RefCell<dyn Station>>) {
        self.stations.push(station);
    }

    /// Attaches a frame trace.
    pub fn set_trace(&mut self, trace: Option<Rc<RefCell<FrameTrace>>>) {
        self.trace = trace;
    }

    /// Sets the extra delay applied to reordered and duplicated frames.
    pub fn set_reorder_delay(&mut self, delay: SimTime) {
        self.reorder_delay = delay;
    }

    /// Test hook: drop the next `n` frames unconditionally (a scripted
    /// loss burst at an exact point in a transfer).
    pub fn drop_next_frames(&mut self, n: u32) {
        self.burst_remaining = self.burst_remaining.max(n);
    }

    /// Current traffic counters.
    pub fn stats(&self) -> EtherStats {
        self.stats
    }

    /// Always-on per-reason drop counters for every frame the medium
    /// killed (fault injections, malformed frames, frames nobody was
    /// listening for).
    pub fn drops(&self) -> DropCounters {
        self.drops
    }

    /// The wire timing.
    pub fn timing(&self) -> EtherTiming {
        self.timing
    }

    /// Transmits `frame` onto the medium, the transmitter being ready at
    /// `ready`. Returns the time the frame finishes arriving (even if it
    /// will be dropped, since the sender cannot tell).
    ///
    /// Borrow discipline: `this` must not be mutably borrowed by the
    /// caller; delivery events borrow stations, never the caller.
    pub fn transmit(
        this: &EthernetHandle,
        sim: &mut Sim,
        ready: SimTime,
        frame: Vec<u8>,
    ) -> SimTime {
        let mut seg = this.borrow_mut();
        debug_assert!(frame.len() >= psd_wire::ETHER_HDR_LEN, "runt frame");
        seg.stats.tx_frames += 1;
        seg.stats.tx_bytes += frame.len() as u64;
        if let Some(trace) = &seg.trace {
            trace.borrow_mut().frames.push((ready, frame.clone()));
        }
        // The shared medium serializes transmissions (CSMA/CD without
        // collisions: the workloads here are request/response or one
        // one-way stream, so contention backoff is negligible).
        let start = ready.max(seg.busy_until);
        let duration = seg.timing.frame_time(frame.len());
        seg.busy_until = start + duration;
        let arrival = start + duration;
        seg.stats.wire_ns += duration.as_nanos();
        // Provenance: the wire frame gets its own trace id and a wire
        // span; every loss below is a typed terminal state.
        let wire = PacketCtx::begin(seg.obs.trace.as_ref(), start, &PacketCtx::default());
        wire.span_closed(Stage::Wire, start, arrival);

        let drop_frame = |seg: &mut Ethernet, reason: DropReason, event: &'static str| {
            seg.stats.dropped += 1;
            wire.event(arrival, event);
            wire.drop_at(&mut seg.drops, reason, arrival);
        };

        // Link down: a scripted visit range at this site models a flap
        // or one side of a partition — every frame in the window dies.
        let link_down = match &seg.obs.fault {
            Some(f) => f.borrow_mut().should_inject(FaultSite::LinkDown),
            None => false,
        };
        if link_down {
            drop_frame(&mut seg, DropReason::LinkDown, "fault:link-down");
            return arrival;
        }

        // Burst loss (fault plane or the drop_next_frames hook): the
        // frame is consumed from an in-progress burst, or starts one.
        // Checked before the independent per-frame sites so an active
        // burst consumes no further plane visits; frames inside a burst
        // do not count as WireBurstLoss visits.
        if seg.burst_remaining > 0 {
            seg.burst_remaining -= 1;
            drop_frame(&mut seg, DropReason::FaultInjected, "fault:wire-burst");
            return arrival;
        }
        let plane_hit = match &seg.obs.fault {
            Some(f) => f.borrow_mut().should_inject(FaultSite::WireBurstLoss),
            None => false,
        };
        if plane_hit {
            let burst = seg
                .obs
                .fault
                .as_ref()
                .map(|f| f.borrow().burst_len())
                .unwrap_or(1);
            seg.burst_remaining = burst.saturating_sub(1);
            drop_frame(&mut seg, DropReason::FaultInjected, "fault:wire-burst");
            return arrival;
        }

        // Independent per-frame fault sites (the retired `FaultModel`'s
        // loss/duplicate/reorder, now first-class deterministic sites).
        let (lost, duplicated, reordered) = match &seg.obs.fault {
            Some(f) => {
                let mut f = f.borrow_mut();
                let lost = f.should_inject(FaultSite::WireLoss);
                // A lost frame still visits the other sites so visit
                // numbering stays frame-aligned across all three.
                let duplicated = f.should_inject(FaultSite::WireDuplicate) && !lost;
                let reordered = f.should_inject(FaultSite::WireReorder) && !lost;
                (lost, duplicated, reordered)
            }
            None => (false, false, false),
        };
        if lost {
            drop_frame(&mut seg, DropReason::WireLoss, "fault:wire-loss");
            return arrival;
        }
        if duplicated {
            seg.stats.duplicated += 1;
        }
        if reordered {
            seg.stats.reordered += 1;
        }
        if duplicated {
            wire.event(arrival, "duplicate");
        }
        if reordered {
            wire.event(arrival, "reorder");
        }
        let extra = seg.reorder_delay;
        drop(seg);

        let deliver_at = if reordered { arrival + extra } else { arrival };
        // The duplicate's deliveries are traced as parentless children:
        // the wire frame must terminate exactly once.
        let duplicate = duplicated.then(|| frame.clone());
        Ethernet::schedule_delivery(this, sim, deliver_at, frame, wire);
        if let Some(frame) = duplicate {
            let untraced = PacketCtx::default();
            Ethernet::schedule_delivery(this, sim, arrival + extra, frame, untraced);
        }
        arrival
    }

    fn schedule_delivery(
        this: &EthernetHandle,
        sim: &mut Sim,
        at: SimTime,
        frame: Vec<u8>,
        wire: PacketCtx,
    ) {
        let seg = this.clone();
        sim.at(at, move |sim| {
            let now = sim.now();
            let Ok(hdr) = EthernetHeader::parse(&frame) else {
                let malformed = DropReason::MalformedFrame;
                wire.drop_at(&mut seg.borrow_mut().drops, malformed, now);
                return;
            };
            let tracer = seg.borrow().obs.trace.clone();
            // Snapshot receivers first so station callbacks can transmit
            // (re-borrowing the segment) without a double borrow.
            let mut receivers = {
                let mut seg_mut = seg.borrow_mut();
                let seg_mut = &mut *seg_mut;
                let mut receivers = std::mem::take(&mut seg_mut.receivers);
                receivers.extend(
                    seg_mut
                        .stations
                        .iter()
                        .filter(|s| {
                            let st = s.borrow();
                            let mac = st.mac();
                            mac != hdr.src
                                && (hdr.dst.is_broadcast() || hdr.dst == mac || st.promiscuous())
                        })
                        .cloned(),
                );
                seg_mut.stats.delivered += receivers.len() as u64;
                // The wire frame's terminal: handed to at least one
                // station, or addressed to nobody listening.
                if receivers.is_empty() {
                    wire.drop_at(&mut seg_mut.drops, DropReason::NoReceiver, now);
                } else {
                    wire.terminal(now, Terminal::Delivered);
                }
                receivers
            };
            let mut deliver = |station: &Rc<RefCell<dyn Station>>, frame: Vec<u8>| {
                // Each station's copy is a traced child of the wire
                // frame, current for the duration of the synchronous
                // receive path (asynchronous continuations capture it
                // and enter it again when they run).
                let child = PacketCtx::begin(tracer.as_ref(), sim.now(), &wire);
                child.enter(|| station.borrow_mut().frame_arrived(sim, frame));
            };
            // The last receiver gets the frame itself; only the others
            // of a multi-receiver delivery get copies.
            if let Some((last, others)) = receivers.split_last() {
                for station in others {
                    deliver(station, frame.clone());
                }
                deliver(last, frame);
            }
            receivers.clear();
            seg.borrow_mut().receivers = receivers;
        });
    }
}

/// The medium consults the fault plane (each transmitted frame visits
/// [`FaultSite::LinkDown`], the burst machinery
/// ([`FaultSite::WireBurstLoss`]), then [`FaultSite::WireLoss`],
/// [`FaultSite::WireDuplicate`] and [`FaultSite::WireReorder`]) and the
/// packet-lifecycle tracer. Neither charges virtual time, and an
/// unarmed plane never consumes randomness, so attaching either is
/// provably inert.
impl Observable for Ethernet {
    fn observers(&self) -> &Observers {
        &self.obs
    }

    fn set_observers(&mut self, obs: Observers) {
        self.obs = obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_wire::EtherType;

    struct TestStation {
        mac: EtherAddr,
        promisc: bool,
        received: Vec<(SimTime, Vec<u8>)>,
    }

    impl TestStation {
        fn new(id: u32) -> Rc<RefCell<TestStation>> {
            Rc::new(RefCell::new(TestStation {
                mac: EtherAddr::local(id),
                promisc: false,
                received: Vec::new(),
            }))
        }
    }

    impl Station for TestStation {
        fn mac(&self) -> EtherAddr {
            self.mac
        }

        fn promiscuous(&self) -> bool {
            self.promisc
        }

        fn frame_arrived(&mut self, sim: &mut Sim, frame: Vec<u8>) {
            self.received.push((sim.now(), frame));
        }
    }

    fn frame(src: u32, dst: EtherAddr, payload_len: usize) -> Vec<u8> {
        let hdr = EthernetHeader {
            dst,
            src: EtherAddr::local(src),
            ethertype: EtherType::Ipv4,
        };
        let mut f = hdr.encode().to_vec();
        f.resize(psd_wire::ETHER_HDR_LEN + payload_len, 0xAB);
        f
    }

    #[test]
    fn frame_time_matches_paper_transit() {
        let t = EtherTiming::ten_megabit();
        // 1-byte UDP payload → 43-byte frame → padded to 60 + 4 FCS.
        assert_eq!(t.frame_time(43), SimTime::from_nanos(51_200));
        // Full TCP frame: 1514 + 4 FCS.
        assert_eq!(t.frame_time(1514), SimTime::from_nanos(1_214_400));
    }

    #[test]
    fn unicast_delivery_to_addressee_only() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let a = TestStation::new(1);
        let b = TestStation::new(2);
        let c = TestStation::new(3);
        for s in [&a, &b, &c] {
            seg.borrow_mut().attach(s.clone());
        }
        let f = frame(1, EtherAddr::local(2), 100);
        Ethernet::transmit(&seg, &mut sim, SimTime::ZERO, f);
        sim.run_to_idle();
        assert_eq!(a.borrow().received.len(), 0, "sender must not hear itself");
        assert_eq!(b.borrow().received.len(), 1);
        assert_eq!(c.borrow().received.len(), 0);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let a = TestStation::new(1);
        let b = TestStation::new(2);
        let c = TestStation::new(3);
        for s in [&a, &b, &c] {
            seg.borrow_mut().attach(s.clone());
        }
        Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::BROADCAST, 50),
        );
        sim.run_to_idle();
        assert_eq!(a.borrow().received.len(), 0);
        assert_eq!(b.borrow().received.len(), 1);
        assert_eq!(c.borrow().received.len(), 1);
    }

    #[test]
    fn promiscuous_station_hears_all() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let a = TestStation::new(1);
        let b = TestStation::new(2);
        let snoop = TestStation::new(99);
        snoop.borrow_mut().promisc = true;
        for s in [&a, &b, &snoop] {
            seg.borrow_mut().attach(s.clone());
        }
        Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::local(2), 10),
        );
        sim.run_to_idle();
        assert_eq!(snoop.borrow().received.len(), 1);
    }

    #[test]
    fn arrival_time_includes_wire_time() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::from_micros(100),
            frame(1, EtherAddr::local(2), 29),
        );
        sim.run_to_idle();
        let (at, _) = b.borrow().received[0].clone();
        // 100 µs start + 51.2 µs minimum frame.
        assert_eq!(at, SimTime::from_nanos(151_200));
    }

    #[test]
    fn medium_serializes_transmissions() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        let t1 = Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::local(2), 1500),
        );
        let t2 = Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::local(2), 1500),
        );
        assert_eq!(t1, SimTime::from_nanos(1_214_400));
        assert_eq!(
            t2,
            SimTime::from_nanos(2_428_800),
            "second frame queues behind first"
        );
        sim.run_to_idle();
        assert_eq!(b.borrow().received.len(), 2);
    }

    fn wire_plane(seed: u64) -> psd_sim::FaultPlaneHandle {
        let plane = psd_sim::FaultPlane::shared();
        plane.borrow_mut().set_rng(psd_sim::Rng::new(seed));
        plane
    }

    #[test]
    fn loss_drops_frames_deterministically() {
        let run = |seed: u64| {
            let mut sim = Sim::new(7);
            let seg = Ethernet::new(EtherTiming::ten_megabit());
            let plane = wire_plane(seed);
            plane.borrow_mut().arm(FaultSite::WireLoss, 0.5);
            seg.borrow_mut().set_observers(Observers {
                fault: Some(plane),
                ..Observers::default()
            });
            let b = TestStation::new(2);
            seg.borrow_mut().attach(b.clone());
            for _ in 0..100 {
                let now = sim.now();
                Ethernet::transmit(&seg, &mut sim, now, frame(1, EtherAddr::local(2), 10));
                sim.run_to_idle();
            }
            let delivered = b.borrow().received.len();
            let stats = seg.borrow().stats();
            let drops = seg.borrow().drops();
            assert_eq!(delivered as u64 + stats.dropped, 100);
            assert_eq!(drops.get(DropReason::WireLoss), stats.dropped);
            delivered
        };
        let delivered = run(11);
        assert!(
            delivered > 20 && delivered < 80,
            "≈50% expected, got {delivered}"
        );
        assert_eq!(run(11), delivered, "same seed, same losses");
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut sim = Sim::new(3);
        let seg = Ethernet::new(EtherTiming::ten_megabit());
        let plane = psd_sim::FaultPlane::shared();
        plane.borrow_mut().script(FaultSite::WireDuplicate, &[0]);
        seg.borrow_mut().set_observers(Observers {
            fault: Some(plane),
            ..Observers::default()
        });
        seg.borrow_mut().set_reorder_delay(SimTime::from_micros(10));
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::local(2), 10),
        );
        sim.run_to_idle();
        assert_eq!(b.borrow().received.len(), 2);
        assert_eq!(seg.borrow().stats().duplicated, 1);
    }

    #[test]
    fn duplicate_is_byte_equal_and_the_wire_frame_terminates_once() {
        let mut sim = Sim::new(3);
        let seg = Ethernet::new(EtherTiming::ten_megabit());
        let plane = psd_sim::FaultPlane::shared();
        plane.borrow_mut().script(FaultSite::WireDuplicate, &[0]);
        let tracer = psd_sim::Tracer::shared();
        seg.borrow_mut().set_observers(Observers {
            fault: Some(plane),
            trace: Some(tracer.clone()),
            ..Observers::default()
        });
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        let sent = frame(1, EtherAddr::local(2), 300);
        Ethernet::transmit(&seg, &mut sim, SimTime::ZERO, sent.clone());
        sim.run_to_idle();
        let rx = &b.borrow().received;
        assert_eq!(rx.len(), 2);
        assert!(rx.iter().all(|(_, f)| *f == sent), "both copies intact");
        assert_eq!(seg.borrow().stats().delivered, 2);
        // The wire frame and one child per delivery; only the wire frame
        // terminates here (the test station consumes nothing), once.
        let tr = tracer.borrow();
        assert_eq!(tr.packet_count(), 3);
        assert_eq!(tr.terminal_counts(), (1, 0, 0));
        let violations = tr.check_invariants();
        assert!(
            !violations
                .iter()
                .any(|v| v.contains("after earlier terminal")),
            "{violations:?}"
        );
    }

    /// A station that answers every frame it hears from inside
    /// `frame_arrived` — the re-entrant transmit a protocol stack at
    /// interrupt level performs.
    struct Replier {
        mac: EtherAddr,
        seg: EthernetHandle,
        received: Vec<Vec<u8>>,
    }

    impl Station for Replier {
        fn mac(&self) -> EtherAddr {
            self.mac
        }

        fn frame_arrived(&mut self, sim: &mut Sim, frame: Vec<u8>) {
            let src = EthernetHeader::parse(&frame).unwrap().src;
            let mut reply = EthernetHeader {
                dst: src,
                src: self.mac,
                ethertype: EtherType::Ipv4,
            }
            .encode()
            .to_vec();
            reply.resize(64, 0xCD);
            let now = sim.now();
            Ethernet::transmit(&self.seg, sim, now, reply);
            self.received.push(frame);
        }
    }

    #[test]
    fn broadcast_survives_a_reentrant_transmit_from_the_first_receiver() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let a = TestStation::new(1);
        let b = Rc::new(RefCell::new(Replier {
            mac: EtherAddr::local(2),
            seg: seg.clone(),
            received: Vec::new(),
        }));
        let c = TestStation::new(3);
        let d = TestStation::new(4);
        seg.borrow_mut().attach(a.clone());
        seg.borrow_mut().attach(b.clone());
        seg.borrow_mut().attach(c.clone());
        seg.borrow_mut().attach(d.clone());
        let sent = frame(1, EtherAddr::BROADCAST, 200);
        Ethernet::transmit(&seg, &mut sim, SimTime::ZERO, sent.clone());
        sim.run_until(SimTime::from_micros(200));
        // All three heard the same bytes; the sender did not.
        assert_eq!(seg.borrow().stats().delivered, 3);
        assert_eq!(b.borrow().received[0], sent);
        assert_eq!(c.borrow().received[0].1, sent);
        assert_eq!(d.borrow().received[0].1, sent);
        assert!(a.borrow().received.is_empty());
        // The reply b transmitted from inside its callback arrives too.
        sim.run_to_idle();
        assert_eq!(a.borrow().received.len(), 1);
        assert_eq!(seg.borrow().stats().delivered, 4);
        assert_eq!(seg.borrow().stats().tx_frames, 2);
    }

    #[test]
    fn unicast_to_nobody_counts_no_receiver_once() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::local(77), 40),
        );
        sim.run_to_idle();
        assert!(b.borrow().received.is_empty());
        assert_eq!(seg.borrow().drops().get(DropReason::NoReceiver), 1);
        assert_eq!(seg.borrow().drops().total(), 1);
        assert_eq!(seg.borrow().stats().delivered, 0);
    }

    #[test]
    fn reorder_delays_past_successor() {
        let mut sim = Sim::new(5);
        let seg = Ethernet::new(EtherTiming::ten_megabit());
        let plane = psd_sim::FaultPlane::shared();
        plane.borrow_mut().script(FaultSite::WireReorder, &[0]);
        seg.borrow_mut().set_observers(Observers {
            fault: Some(plane),
            ..Observers::default()
        });
        seg.borrow_mut().set_reorder_delay(SimTime::from_millis(5));
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        let mut f1 = frame(1, EtherAddr::local(2), 10);
        f1[20] = 1;
        Ethernet::transmit(&seg, &mut sim, SimTime::ZERO, f1);
        // Second frame sent later; visit 1 is not scripted.
        let mut f2 = frame(1, EtherAddr::local(2), 10);
        f2[20] = 2;
        Ethernet::transmit(&seg, &mut sim, SimTime::from_micros(100), f2);
        sim.run_to_idle();
        let rx = &b.borrow().received;
        assert_eq!(rx.len(), 2);
        assert_eq!(rx[0].1[20], 2, "second frame should arrive first");
        assert_eq!(rx[1].1[20], 1);
    }

    #[test]
    fn link_down_window_drops_and_heals() {
        let mut sim = Sim::new(9);
        let seg = Ethernet::new(EtherTiming::ten_megabit());
        let plane = psd_sim::FaultPlane::shared();
        // Frames 1..3 hit a down link; frame 0 and frames ≥ 3 pass.
        plane.borrow_mut().script_range(FaultSite::LinkDown, 1, 3);
        seg.borrow_mut().set_observers(Observers {
            fault: Some(plane),
            ..Observers::default()
        });
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        for _ in 0..5 {
            let now = sim.now();
            Ethernet::transmit(&seg, &mut sim, now, frame(1, EtherAddr::local(2), 10));
            sim.run_to_idle();
        }
        assert_eq!(b.borrow().received.len(), 3);
        assert_eq!(seg.borrow().drops().get(DropReason::LinkDown), 2);
    }

    #[test]
    fn wire_ns_counts_every_transmitted_frame_dropped_or_not() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::new(EtherTiming::ten_megabit());
        let plane = psd_sim::FaultPlane::shared();
        plane.borrow_mut().script(FaultSite::WireLoss, &[1]);
        seg.borrow_mut().set_observers(Observers {
            fault: Some(plane),
            ..Observers::default()
        });
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        let timing = seg.borrow().timing();
        let mut expected = 0;
        for payload in [10, 1000, 1500] {
            let before = seg.borrow().stats().wire_ns;
            let f = frame(1, EtherAddr::local(2), payload);
            let per_frame = timing.frame_time(f.len());
            let now = sim.now();
            Ethernet::transmit(&seg, &mut sim, now, f);
            sim.run_to_idle();
            assert_eq!(
                seg.borrow().stats().wire_ns - before,
                per_frame.as_nanos(),
                "one frame of {payload} payload bytes"
            );
            expected += per_frame.as_nanos();
        }
        // The second frame was lost on the wire and still occupied it.
        let stats = seg.borrow().stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(b.borrow().received.len(), 2);
        assert_eq!(stats.wire_ns, expected);
    }

    #[test]
    fn trace_captures_frames() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let trace = Rc::new(RefCell::new(FrameTrace::default()));
        seg.borrow_mut().set_trace(Some(trace.clone()));
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::local(2), 10),
        );
        sim.run_to_idle();
        assert_eq!(trace.borrow().frames.len(), 1);
    }

    #[test]
    fn stats_count_traffic() {
        let mut sim = Sim::new(1);
        let seg = Ethernet::ten_megabit(&mut sim);
        let b = TestStation::new(2);
        seg.borrow_mut().attach(b.clone());
        Ethernet::transmit(
            &seg,
            &mut sim,
            SimTime::ZERO,
            frame(1, EtherAddr::local(2), 100),
        );
        sim.run_to_idle();
        let s = seg.borrow().stats();
        assert_eq!(s.tx_frames, 1);
        assert_eq!(s.tx_bytes, 114);
        assert_eq!(s.delivered, 1);
    }
}
