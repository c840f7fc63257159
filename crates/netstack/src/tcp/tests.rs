//! TCB state-machine tests: two TCBs wired back-to-back through an
//! in-memory "wire" with controllable loss, plus manual timer firing.

use super::*;
use std::collections::HashMap;
use std::collections::VecDeque;

const A: InetAddr = InetAddr {
    ip: std::net::Ipv4Addr::new(10, 0, 0, 1),
    port: 1000,
};
const B: InetAddr = InetAddr {
    ip: std::net::Ipv4Addr::new(10, 0, 0, 2),
    port: 2000,
};

const BUF: usize = 16 * 1024;

/// The smoothed RTT estimate; panics if the estimator is unseeded.
fn srtt(tcb: &Tcb) -> SimTime {
    assert!(tcb.rtt_valid, "estimator seeded");
    SimTime::from_nanos(tcb.srtt)
}

/// Records of interesting non-Send actions per side.
#[derive(Default)]
struct Events {
    connected: bool,
    peer_closed: bool,
    failed: Option<SocketError>,
    freed: bool,
    delivered: u32,
    woke_writers: u32,
}

struct Harness {
    tcb: [Tcb; 2],
    wire: [VecDeque<(TcpHeader, Vec<u8>)>; 2],
    timers: [HashMap<TcpTimer, SimTime>; 2],
    events: [Events; 2],
    now: SimTime,
    /// Drop the next N data-bearing segments from side 0.
    drop_data_from_a: u32,
    segments_sent: [u32; 2],
}

impl Harness {
    fn new() -> Harness {
        Harness {
            tcb: [Tcb::new(A, B, BUF, BUF), Tcb::new(B, A, BUF, BUF)],
            wire: [VecDeque::new(), VecDeque::new()],
            timers: [HashMap::new(), HashMap::new()],
            events: [Events::default(), Events::default()],
            now: SimTime::from_millis(1),
            drop_data_from_a: 0,
            segments_sent: [0, 0],
        }
    }

    fn apply(&mut self, side: usize, actions: Vec<TcpAction>) {
        for a in actions {
            match a {
                TcpAction::Send(spec) => {
                    self.segments_sent[side] += 1;
                    let drop = side == 0 && !spec.data.is_empty() && self.drop_data_from_a > 0;
                    if drop {
                        self.drop_data_from_a -= 1;
                        continue;
                    }
                    let hdr = spec.header();
                    self.wire[1 - side].push_back((hdr, spec.data.to_vec()));
                }
                TcpAction::SetTimer(k, d) => {
                    self.timers[side].insert(k, self.now + d);
                }
                TcpAction::CancelTimer(k) => {
                    self.timers[side].remove(&k);
                }
                TcpAction::Connected => self.events[side].connected = true,
                TcpAction::PeerClosed => self.events[side].peer_closed = true,
                TcpAction::Fail(e) => self.events[side].failed = Some(e),
                TcpAction::Free => self.events[side].freed = true,
                TcpAction::Deliver { .. } => self.events[side].delivered += 1,
                TcpAction::WakeWriters => self.events[side].woke_writers += 1,
            }
        }
    }

    /// Calls one `Tcb` method on `side` with an empty action list and
    /// applies what it pushed.
    fn drive<R>(
        &mut self,
        side: usize,
        call: impl FnOnce(&mut Tcb, SimTime, &mut Vec<TcpAction>) -> R,
    ) -> R {
        let mut actions = Vec::new();
        let r = call(&mut self.tcb[side], self.now, &mut actions);
        self.apply(side, actions);
        r
    }

    /// Delivers queued segments (both directions) until quiescent.
    fn pump(&mut self) {
        for _ in 0..10_000 {
            let mut progressed = false;
            for side in 0..2 {
                if let Some((hdr, data)) = self.wire[side].pop_front() {
                    self.now += SimTime::from_micros(100);
                    self.drive(side, |t, now, a| t.input(&hdr, &data, now, a));
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
        panic!("pump did not quiesce");
    }

    /// Fires a specific timer on `side` if armed.
    fn fire_timer(&mut self, side: usize, kind: TcpTimer) -> bool {
        if let Some(at) = self.timers[side].remove(&kind) {
            self.now = self.now.max(at);
            self.drive(side, |t, now, a| t.timer(kind, now, a));
            true
        } else {
            false
        }
    }

    /// Fires the globally earliest pending timer, if any.
    fn fire_earliest_any(&mut self) -> bool {
        let mut best: Option<(usize, TcpTimer, SimTime)> = None;
        for side in 0..2 {
            for (k, at) in &self.timers[side] {
                if best.is_none_or(|(_, _, b)| *at < b) {
                    best = Some((side, *k, *at));
                }
            }
        }
        let Some((side, kind, _)) = best else {
            return false;
        };
        self.fire_timer(side, kind)
    }

    /// Pumps traffic and fires a bounded number of timers. Bounded (not
    /// run-to-exhaustion) because armed connections re-arm persist and
    /// retransmission timers indefinitely.
    fn settle(&mut self) {
        for _ in 0..25 {
            self.pump();
            if !self.fire_earliest_any() {
                return;
            }
        }
        self.pump();
    }

    /// Fires the earliest pending timer on `side`, if any.
    fn fire_earliest_timer(&mut self, side: usize) -> Option<TcpTimer> {
        let (kind, at) = self.timers[side]
            .iter()
            .min_by_key(|(_, at)| **at)
            .map(|(k, at)| (*k, *at))?;
        self.timers[side].remove(&kind);
        self.now = self.now.max(at);
        self.drive(side, |t, now, a| t.timer(kind, now, a));
        Some(kind)
    }

    fn connect(&mut self) {
        self.drive(0, |t, _, a| t.connect(10_000, a));
        // Side 1 does a passive open driven from the SYN.
        let (syn_hdr, _) = self.wire[1].pop_front().expect("SYN on the wire");
        assert!(syn_hdr.flags.contains(TcpFlags::SYN));
        let mut actions = Vec::new();
        self.tcb[1] = Tcb::accept_syn(
            B,
            A,
            20_000,
            syn_hdr.seq,
            syn_hdr.mss,
            syn_hdr.window,
            BUF,
            BUF,
            &mut actions,
        );
        self.apply(1, actions);
        self.pump();
        assert_eq!(self.tcb[0].state, TcpState::Established);
        assert_eq!(self.tcb[1].state, TcpState::Established);
        assert!(self.events[0].connected);
        assert!(self.events[1].connected);
    }

    fn send(&mut self, side: usize, data: &[u8]) -> usize {
        self.try_send(side, data).expect("send failed")
    }

    fn try_send(&mut self, side: usize, data: &[u8]) -> Result<usize, SocketError> {
        self.drive(side, |t, now, a| t.send(data, now, a))
    }

    fn recv_all(&mut self, side: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = self.drive(side, |t, now, a| t.recv(&mut buf, now, a));
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        out
    }
}

#[test]
fn seq_arithmetic_wraps() {
    assert!(seq_lt(0xFFFF_FFF0, 0x10));
    assert!(seq_gt(0x10, 0xFFFF_FFF0));
    assert!(seq_le(5, 5));
    assert!(seq_ge(5, 5));
    assert!(!seq_lt(5, 5));
}

#[test]
fn three_way_handshake() {
    let mut h = Harness::new();
    h.connect();
    // Handshake must have cleared the retransmission timers.
    assert!(!h.timers[0].contains_key(&TcpTimer::Rexmt));
    assert!(!h.timers[1].contains_key(&TcpTimer::Rexmt));
}

#[test]
fn simple_data_transfer() {
    let mut h = Harness::new();
    h.connect();
    let msg = b"hello from a to b";
    assert_eq!(h.send(0, msg), msg.len());
    h.pump();
    assert_eq!(h.recv_all(1), msg);
    assert!(h.events[1].delivered > 0);
}

#[test]
fn bulk_transfer_respects_mss_and_delivers_in_order() {
    let mut h = Harness::new();
    h.connect();
    let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    let mut off = 0;
    let mut received: Vec<u8> = Vec::new();
    let mut rounds = 0;
    while received.len() < data.len() {
        rounds += 1;
        assert!(rounds < 5000, "transfer stalled at {}", received.len());
        if off < data.len() {
            match h.try_send(0, &data[off..]) {
                Ok(n) => {
                    off += n;
                }
                Err(SocketError::WouldBlock) => {}
                Err(e) => panic!("send error {e}"),
            }
        }
        h.pump();
        let drained = h.recv_all(1);
        if drained.is_empty() {
            // Let delayed ACKs (and anything else pending) fire.
            h.fire_earliest_any();
            h.pump();
        }
        received.extend_from_slice(&drained);
    }
    assert_eq!(received, data);
}

#[test]
fn sender_respects_receive_window() {
    let mut h = Harness::new();
    h.connect();
    // B's receive buffer is BUF; send twice that without B reading.
    let data = vec![7u8; BUF * 2];
    let mut sent = 0;
    for _ in 0..2000 {
        match h.try_send(0, &data[sent..]) {
            Ok(n) => {
                sent += n;
            }
            Err(SocketError::WouldBlock) => break,
            Err(e) => panic!("{e}"),
        }
        h.settle();
        if sent >= data.len() {
            break;
        }
    }
    h.settle();
    // B's buffer must never overflow its reservation.
    assert!(
        h.tcb[1].readable() <= BUF,
        "readable {}",
        h.tcb[1].readable()
    );
    // Drain at B, keep pushing at A; the whole payload must land.
    let mut received = h.recv_all(1);
    let mut rounds = 0;
    while received.len() < data.len() {
        rounds += 1;
        assert!(rounds < 5000, "window never reopened: {}", received.len());
        if sent < data.len() {
            if let Ok(n) = h.try_send(0, &data[sent..]) {
                sent += n;
            }
        }
        h.settle();
        received.extend(h.recv_all(1));
    }
    assert_eq!(received.len(), data.len());
}

#[test]
fn retransmission_recovers_lost_segment() {
    let mut h = Harness::new();
    h.connect();
    h.drop_data_from_a = 1;
    let msg = vec![5u8; 512];
    h.send(0, &msg);
    h.pump();
    assert_eq!(h.tcb[1].readable(), 0, "segment was dropped");
    // The retransmission timer must be armed; firing it resends.
    assert!(h.timers[0].contains_key(&TcpTimer::Rexmt));
    let fired = h.fire_earliest_timer(0);
    assert_eq!(fired, Some(TcpTimer::Rexmt));
    h.pump();
    assert_eq!(h.recv_all(1), msg);
    assert!(h.tcb[0].rexmt_segs >= 1);
}

#[test]
fn rto_backs_off_exponentially() {
    let mut h = Harness::new();
    h.connect();
    h.drop_data_from_a = u32::MAX; // Black hole.
    h.send(0, &[1u8; 100]);
    let mut rtos = Vec::new();
    for _ in 0..4 {
        rtos.push(h.tcb[0].rto());
        h.fire_earliest_timer(0);
    }
    assert!(rtos[1] >= rtos[0] * 2 || rtos[0] == RTO_MAX);
    assert!(rtos[2] >= rtos[1], "{rtos:?}");
}

#[test]
fn rto_backoff_is_capped_at_rto_max_under_sustained_blackout() {
    let mut h = Harness::new();
    h.connect();
    h.drop_data_from_a = u32::MAX; // Sustained blackout.
    h.send(0, &[1u8; 100]);
    let mut last = SimTime::ZERO;
    for _ in 0..MAX_RXT {
        last = h.tcb[0].rto();
        assert!(last <= RTO_MAX, "backoff never exceeds the cap");
        h.fire_earliest_timer(0);
    }
    assert_eq!(last, RTO_MAX, "a long blackout walks the RTO to the cap");
}

#[test]
fn karns_rule_ignores_the_ambiguous_ack_after_a_link_flap() {
    let mut h = Harness::new();
    h.connect();
    // A clean exchange seeds the RTT estimator.
    h.send(0, &[1u8; 100]);
    h.settle();
    h.recv_all(1);
    let srtt_before = srtt(&h.tcb[0]);
    // Link flap: the segment dies, the retransmission timer fires, and
    // the ACK (of the retransmission) only returns after the link heals
    // 5 virtual seconds later.
    h.drop_data_from_a = 1;
    h.send(0, &[2u8; 100]);
    h.pump();
    h.fire_timer(0, TcpTimer::Rexmt);
    h.now += SimTime::from_secs(5);
    h.pump();
    h.recv_all(1);
    // Karn: an ACK for a retransmitted segment is ambiguous — it must
    // not feed the estimator, or the 5 s "sample" would wreck it.
    let srtt_after = srtt(&h.tcb[0]);
    assert_eq!(srtt_after, srtt_before, "ambiguous sample was discarded");
}

#[test]
fn connection_times_out_after_max_retransmits() {
    let mut h = Harness::new();
    h.connect();
    h.drop_data_from_a = u32::MAX;
    h.send(0, &[1u8; 100]);
    for _ in 0..=MAX_RXT + 1 {
        if h.fire_earliest_timer(0).is_none() {
            break;
        }
    }
    assert_eq!(h.events[0].failed, Some(SocketError::TimedOut));
    assert!(h.events[0].freed);
    assert_eq!(h.tcb[0].state, TcpState::Closed);
}

#[test]
fn fast_retransmit_on_triple_dupack() {
    let mut h = Harness::new();
    h.connect();
    h.tcb[0].nodelay = true;
    // Open the congestion window so several segments fly at once.
    for _ in 0..20 {
        let big = vec![1u8; 1460];
        let _ = h.try_send(0, &big);
        h.settle();
        h.recv_all(1);
    }
    assert!(
        h.tcb[0].cwnd() >= 5 * 1460,
        "cwnd must be open for this test, is {}",
        h.tcb[0].cwnd()
    );
    // Drop exactly one data segment, then push a burst: the following
    // segments arrive out of order and generate duplicate ACKs, which
    // must trigger fast retransmit without waiting for the RTO.
    h.drop_data_from_a = 1;
    let burst = vec![2u8; 5 * 1460];
    let mut off = 0;
    while off < burst.len() {
        match h.try_send(0, &burst[off..]) {
            Ok(n) => {
                off += n;
            }
            Err(_) => break,
        }
    }
    h.pump(); // Traffic only — no timers, so no RTO can fire.
    assert!(
        h.tcb[0].fast_rexmts >= 1,
        "expected a fast retransmit (dupacks path)"
    );
    // And the receiver sees the burst intact and in order.
    h.settle();
    let got = h.recv_all(1);
    assert_eq!(got.len(), burst.len());
    assert!(got.iter().all(|&b| b == 2));
}

#[test]
fn out_of_order_segments_are_reassembled() {
    let mut h = Harness::new();
    h.connect();
    h.tcb[0].nodelay = true;
    // Grow cwnd past three segments first (slow start would otherwise
    // serialize the sends).
    for _ in 0..6 {
        let _ = h.try_send(0, &vec![9u8; 1460]);
        h.settle();
        h.recv_all(1);
    }
    // Send three segments in one burst; drop the first on the wire.
    h.drop_data_from_a = 1;
    let mut burst = vec![1u8; 1460];
    burst.extend_from_slice(&[2u8; 1460]);
    burst.extend_from_slice(&[3u8; 1460]);
    let mut off = 0;
    while off < burst.len() {
        let n = h.try_send(0, &burst[off..]).expect("send");
        off += n;
    }
    h.pump();
    // Segments 2 and 3 sit in the reassembly queue; nothing readable.
    assert_eq!(h.tcb[1].readable(), 0);
    // Recovery (fast retransmit via the dup ACKs, or the RTO) fills the
    // hole and the queue drains in order.
    h.settle();
    let got = h.recv_all(1);
    assert_eq!(got.len(), 3 * 1460);
    assert!(got[..1460].iter().all(|&b| b == 1));
    assert!(got[1460..2920].iter().all(|&b| b == 2));
    assert!(got[2920..].iter().all(|&b| b == 3));
}

#[test]
fn delayed_ack_second_segment_acks_immediately() {
    let mut h = Harness::new();
    h.connect();
    h.tcb[0].nodelay = true;
    // First small segment: receiver should set the delack timer, not
    // ACK immediately.
    h.send(0, b"one");
    let before = h.segments_sent[1];
    // Deliver just that segment.
    let (hdr, data) = h.wire[1].pop_front().unwrap();
    h.drive(1, |t, now, a| t.input(&hdr, &data, now, a));
    assert_eq!(h.segments_sent[1], before, "first segment: delayed ACK");
    assert!(h.timers[1].contains_key(&TcpTimer::DelAck));
    // Second segment: ACK at once.
    h.send(0, b"two");
    let (hdr, data) = h.wire[1].pop_front().unwrap();
    h.drive(1, |t, now, a| t.input(&hdr, &data, now, a));
    assert_eq!(h.segments_sent[1], before + 1, "second segment acks now");
    assert!(!h.timers[1].contains_key(&TcpTimer::DelAck));
}

#[test]
fn delack_timer_fires_ack() {
    let mut h = Harness::new();
    h.connect();
    h.send(0, b"only one");
    let (hdr, data) = h.wire[1].pop_front().unwrap();
    h.drive(1, |t, now, a| t.input(&hdr, &data, now, a));
    let before = h.segments_sent[1];
    let fired = h.fire_earliest_timer(1);
    assert_eq!(fired, Some(TcpTimer::DelAck));
    assert_eq!(h.segments_sent[1], before + 1);
}

#[test]
fn nagle_coalesces_small_writes() {
    let mut h = Harness::new();
    h.connect();
    // With Nagle on (default), a second small write while the first is
    // unacknowledged must not produce a segment.
    h.send(0, b"a");
    let sent_after_first = h.segments_sent[0];
    h.send(0, b"b");
    assert_eq!(h.segments_sent[0], sent_after_first, "Nagle held the runt");
    h.pump();
    // B is holding a delayed ACK for the first runt; once it fires the
    // coalesced data flows.
    h.fire_timer(1, TcpTimer::DelAck);
    h.pump();
    assert_eq!(h.recv_all(1), b"ab");
}

#[test]
fn nodelay_disables_nagle() {
    let mut h = Harness::new();
    h.connect();
    h.tcb[0].nodelay = true;
    h.send(0, b"a");
    let sent_after_first = h.segments_sent[0];
    h.send(0, b"b");
    assert!(h.segments_sent[0] > sent_after_first, "nodelay sends runts");
}

#[test]
fn zero_window_triggers_persist_probe() {
    let mut h = Harness::new();
    h.connect();
    // Fill B's receive buffer completely.
    let data = vec![9u8; BUF];
    let mut sent = 0;
    while sent < data.len() {
        match h.try_send(0, &data[sent..]) {
            Ok(n) => {
                sent += n;
                h.pump();
            }
            Err(SocketError::WouldBlock) => break,
            Err(e) => panic!("{e}"),
        }
    }
    h.pump();
    // Push one more byte: window is zero, persist should arm.
    let _ = h.try_send(0, b"x");
    h.pump();
    if h.tcb[1].rcv_buf.space() == 0 {
        assert!(
            h.timers[0].contains_key(&TcpTimer::Persist),
            "persist timer armed on zero window"
        );
        // Probe elicits an ACK with the (still zero) window.
        let before = h.segments_sent[0];
        h.fire_earliest_timer(0);
        assert!(h.segments_sent[0] > before);
        h.pump();
        // Reading at B reopens the window; the probe/update lets data flow.
        h.recv_all(1);
        h.pump();
        h.tcb[0].output(h.now, false, &mut Vec::new());
    }
}

#[test]
fn orderly_close_reaches_time_wait_and_frees() {
    let mut h = Harness::new();
    h.connect();
    // A closes first.
    h.drive(0, |t, now, a| t.close(now, a));
    h.pump();
    assert!(h.events[1].peer_closed);
    assert_eq!(h.tcb[1].state, TcpState::CloseWait);
    assert_eq!(h.tcb[0].state, TcpState::FinWait2);
    // B closes too.
    h.drive(1, |t, now, a| t.close(now, a));
    h.pump();
    assert_eq!(h.tcb[1].state, TcpState::Closed);
    assert!(h.events[1].freed);
    assert_eq!(h.tcb[0].state, TcpState::TimeWait);
    assert!(h.timers[0].contains_key(&TcpTimer::TwoMsl));
    // 2MSL expiry frees A.
    h.fire_earliest_timer(0);
    assert_eq!(h.tcb[0].state, TcpState::Closed);
    assert!(h.events[0].freed);
}

#[test]
fn close_flushes_pending_data_before_fin() {
    let mut h = Harness::new();
    h.connect();
    h.send(0, b"last words");
    h.drive(0, |t, now, a| t.close(now, a));
    h.pump();
    assert_eq!(h.recv_all(1), b"last words");
    assert!(h.events[1].peer_closed);
    assert!(h.tcb[1].at_eof());
}

#[test]
fn simultaneous_close_both_reach_closed() {
    let mut h = Harness::new();
    h.connect();
    let (mut a0, mut a1) = (Vec::new(), Vec::new());
    h.tcb[0].close(h.now, &mut a0);
    h.tcb[1].close(h.now, &mut a1);
    h.apply(0, a0);
    h.apply(1, a1);
    h.pump();
    for side in 0..2 {
        assert!(
            matches!(h.tcb[side].state, TcpState::TimeWait | TcpState::Closed),
            "side {side} in {:?}",
            h.tcb[side].state
        );
        h.fire_earliest_timer(side);
        assert_eq!(h.tcb[side].state, TcpState::Closed);
    }
}

#[test]
fn abort_sends_rst_and_peer_resets() {
    let mut h = Harness::new();
    h.connect();
    h.drive(0, |t, _, a| t.abort(a));
    h.pump();
    assert_eq!(h.events[1].failed, Some(SocketError::ConnReset));
    assert_eq!(h.tcb[1].state, TcpState::Closed);
    assert_eq!(h.tcb[1].error, Some(SocketError::ConnReset));
}

#[test]
fn syn_to_closed_port_is_refused() {
    // B is closed (no listener); A's SYN gets RST and connect fails.
    let mut h = Harness::new();
    h.drive(0, |t, _, a| t.connect(10_000, a));
    let (syn, data) = h.wire[1].pop_front().unwrap();
    h.drive(1, |t, now, a| t.input(&syn, &data, now, a)); // tcb[1] is Closed.
    h.pump();
    assert_eq!(h.events[0].failed, Some(SocketError::ConnRefused));
    assert_eq!(h.tcb[0].state, TcpState::Closed);
}

#[test]
fn send_on_unconnected_socket_fails() {
    let mut tcb = Tcb::new(A, B, BUF, BUF);
    assert_eq!(
        tcb.send(b"x", SimTime::ZERO, &mut Vec::new()).unwrap_err(),
        SocketError::NotConnected
    );
}

#[test]
fn send_after_close_fails() {
    let mut h = Harness::new();
    h.connect();
    h.drive(0, |t, now, a| t.close(now, a));
    assert_eq!(h.try_send(0, b"x").unwrap_err(), SocketError::Shutdown);
}

#[test]
fn srtt_converges_to_path_rtt() {
    let mut h = Harness::new();
    h.connect();
    for _ in 0..30 {
        h.send(0, &[1u8; 100]);
        h.pump();
        h.recv_all(1);
        // Ensure ACK timer-driven flushes happen.
        while h.timers[1].contains_key(&TcpTimer::DelAck) {
            h.fire_earliest_timer(1);
            h.pump();
        }
    }
    let srtt = srtt(&h.tcb[0]);
    // The harness charges 100 µs per hop; RTT ≈ 200 µs + delack noise.
    assert!(
        srtt >= SimTime::from_micros(100) && srtt < SimTime::from_millis(250),
        "srtt {srtt}"
    );
}

#[test]
fn slow_start_grows_cwnd() {
    let mut h = Harness::new();
    h.connect();
    let initial = h.tcb[0].cwnd();
    for _ in 0..8 {
        h.send(0, &vec![1u8; 1460]);
        h.pump();
        h.recv_all(1);
        while h.timers[1].contains_key(&TcpTimer::DelAck) {
            h.fire_earliest_timer(1);
            h.pump();
        }
    }
    assert!(
        h.tcb[0].cwnd() > initial,
        "cwnd should grow: {} -> {}",
        initial,
        h.tcb[0].cwnd()
    );
}

#[test]
fn timeout_collapses_cwnd() {
    let mut h = Harness::new();
    h.connect();
    for _ in 0..8 {
        h.send(0, &vec![1u8; 1460]);
        h.settle();
        h.recv_all(1);
    }
    let grown = h.tcb[0].cwnd();
    h.drop_data_from_a = u32::MAX;
    h.send(0, &vec![2u8; 1460]);
    h.fire_timer(0, TcpTimer::Rexmt);
    assert_eq!(h.tcb[0].cwnd(), u32::from(h.tcb[0].mss));
    assert!(grown > h.tcb[0].cwnd());
}

#[test]
fn export_import_preserves_mid_stream_transfer() {
    let mut h = Harness::new();
    h.connect();
    h.send(0, b"before migration ");
    h.pump();
    // Migrate B's side of the connection (server → application).
    let snap = h.tcb[1].export();
    assert_eq!(snap.state, TcpState::Established);
    h.tcb[1] = Tcb::import(snap);
    // Continue the stream seamlessly. (The import dropped B's pending
    // delayed-ACK state, so A retransmits once via its REXMT timer —
    // exactly what a real migration relies on.)
    h.send(0, b"after migration");
    h.settle();
    assert_eq!(h.recv_all(1), b"before migration after migration");
    // And the reverse direction still works.
    h.send(1, b"reply");
    h.settle();
    assert_eq!(h.recv_all(0), b"reply");
}

#[test]
fn export_captures_unacked_send_data() {
    let mut h = Harness::new();
    h.connect();
    h.drop_data_from_a = 1;
    h.send(0, b"lost but buffered");
    h.pump();
    let snap = h.tcb[0].export();
    assert_eq!(snap.snd_data, b"lost but buffered");
    // Import on the "other placement" and retransmit from there.
    h.tcb[0] = Tcb::import(snap);
    h.drive(0, |t, now, a| t.timer(TcpTimer::Rexmt, now, a));
    h.pump();
    assert_eq!(h.recv_all(1), b"lost but buffered");
}

#[test]
fn duplicate_segments_are_ignored() {
    let mut h = Harness::new();
    h.connect();
    h.send(0, b"dup test");
    // Capture and deliver the segment twice.
    let (hdr, data) = h.wire[1].pop_front().unwrap();
    h.drive(1, |t, now, a| t.input(&hdr, &data, now, a));
    h.drive(1, |t, now, a| t.input(&hdr, &data, now, a));
    h.pump();
    assert_eq!(h.recv_all(1), b"dup test");
}

#[test]
fn rst_to_closed_tcb_for_stray_segment() {
    let mut closed = Tcb::new(B, A, BUF, BUF);
    let stray = TcpHeader {
        src_port: A.port,
        dst_port: B.port,
        seq: 42,
        ack: 0,
        flags: TcpFlags::ACK,
        window: 100,
        urgent: 0,
        mss: None,
    };
    let mut actions = Vec::new();
    closed.input(&stray, &[], SimTime::ZERO, &mut actions);
    assert!(actions.iter().any(|a| matches!(
        a,
        TcpAction::Send(s) if s.flags.contains(TcpFlags::RST)
    )));
}
