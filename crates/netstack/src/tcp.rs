//! TCP (RFC 793 with the BSD Net2 congestion machinery).
//!
//! `Tcb` is a *pure* transmission control block: it holds the
//! connection state, sequence spaces, socket buffers, reassembly queue,
//! RTT estimator and congestion window, and its methods push
//! `TcpAction`s — segments to emit, timers to arm or cancel, events
//! to deliver — onto the caller's action list rather than performing
//! I/O. The surrounding [`NetStack`](crate::stack::NetStack) keeps one
//! such list, reuses it across calls (no per-segment allocation), and
//! turns the actions into real checksummed segments and simulator
//! timers. Keeping the TCB pure
//! makes the whole state machine unit-testable (two TCBs can be wired
//! back-to-back in a test without any simulator) and is what lets a
//! session *migrate*: `Tcb::export`/`Tcb::import` capture and
//! restore the complete connection state when a session moves between
//! the operating system server and an application (§3.1).
//!
//! Implemented: three-way handshake (active and passive), sliding
//! window with receiver advertisement, out-of-order reassembly,
//! retransmission with Jacobson/Karn RTT estimation and exponential
//! backoff, slow start and congestion avoidance, fast retransmit and
//! fast recovery on duplicate ACKs, delayed ACKs, Nagle's algorithm
//! (switchable — `TCP_NODELAY`), zero-window persist probes, urgent
//! data pointers, the full close sequence (four-way handshake,
//! `TIME_WAIT` with 2MSL), and RST generation/processing.

use crate::socket::SocketError;
use crate::InetAddr;
use psd_mbuf::{MbufChain, SockBuf};
use psd_sim::SimTime;
use psd_wire::{TcpFlags, TcpHeader};

/// Default maximum segment size on local Ethernet (1500 − 20 − 20).
pub(crate) const DEFAULT_MSS: u16 = 1460;

/// 2MSL: how long `TIME_WAIT` lingers (2 × 30 s, as in BSD).
pub(crate) const MSL_2: SimTime = SimTime::from_secs(60);

/// Delayed-ACK interval (the BSD 200 ms fast timer).
pub(crate) const DELACK: SimTime = SimTime::from_millis(200);

/// Minimum retransmission timeout.
pub(crate) const RTO_MIN: SimTime = SimTime::from_millis(500);

/// Maximum retransmission timeout.
pub(crate) const RTO_MAX: SimTime = SimTime::from_secs(64);

/// Initial retransmission timeout before any RTT sample.
pub(crate) const RTO_INIT: SimTime = SimTime::from_secs(1);

/// Retransmissions before giving up (BSD `TCP_MAXRXTSHIFT` is 12; a
/// smaller bound keeps failure tests quick while preserving backoff).
pub(crate) const MAX_RXT: u32 = 8;

/// Duplicate-ACK threshold for fast retransmit.
pub(crate) const REXMT_THRESH: u32 = 3;

/// Largest window advertisement (no window scaling in 1993).
pub(crate) const MAX_WINDOW: u32 = 65_535;

/// Sequence-space comparison: `a < b` modulo 2³².
pub(crate) fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Sequence-space comparison: `a ≤ b` modulo 2³².
pub(crate) fn seq_le(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) <= 0
}

/// Sequence-space comparison: `a > b` modulo 2³².
pub(crate) fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

/// Sequence-space comparison: `a ≥ b` modulo 2³².
pub(crate) fn seq_ge(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) >= 0
}

/// RFC 793 connection states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Active open sent a SYN.
    SynSent,
    /// Passive open received a SYN and answered SYN|ACK.
    SynReceived,
    /// Connection open, data flows.
    Established,
    /// Received FIN; local side may still send.
    CloseWait,
    /// Sent FIN, awaiting its ACK (and the peer's FIN).
    FinWait1,
    /// FIN acknowledged, awaiting the peer's FIN.
    FinWait2,
    /// Both sides sent FIN simultaneously.
    Closing,
    /// FIN sent after CloseWait, awaiting its ACK.
    LastAck,
    /// Connection done; lingering 2MSL for stray segments.
    TimeWait,
}

impl TcpState {
    /// True once the three-way handshake has completed.
    pub(crate) fn is_synchronized(self) -> bool {
        !matches!(
            self,
            TcpState::Closed | TcpState::SynSent | TcpState::SynReceived
        )
    }

    /// True when the local side may still queue data to send.
    pub(crate) fn can_send(self) -> bool {
        matches!(
            self,
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynReceived
        )
    }
}

/// TCP timers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum TcpTimer {
    /// Retransmission.
    Rexmt,
    /// Zero-window probe.
    Persist,
    /// Delayed ACK.
    DelAck,
    /// 2MSL TIME_WAIT expiry.
    TwoMsl,
}

/// A segment the TCB wants transmitted. The stack adds checksums and
/// the IP/Ethernet encapsulation.
#[derive(Debug)]
pub(crate) struct SegmentSpec {
    /// Source/destination of the segment.
    pub(crate) local: InetAddr,
    /// Remote endpoint.
    pub(crate) remote: InetAddr,
    /// Sequence number.
    pub(crate) seq: u32,
    /// Acknowledgment number (valid when ACK flag set).
    pub(crate) ack: u32,
    /// Flags.
    pub(crate) flags: TcpFlags,
    /// Advertised window.
    pub(crate) wnd: u16,
    /// Urgent pointer.
    pub(crate) urp: u16,
    /// MSS option (SYN segments).
    pub(crate) mss: Option<u16>,
    /// Payload (cluster-sharing copy from the send buffer).
    pub(crate) data: MbufChain,
    /// True if this is a retransmission (for stats and Karn's rule —
    /// already applied internally — and so the stack can count it).
    pub(crate) rexmit: bool,
}

impl SegmentSpec {
    /// The TCP header for this segment.
    pub(crate) fn header(&self) -> TcpHeader {
        TcpHeader {
            src_port: self.local.port,
            dst_port: self.remote.port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.wnd,
            urgent: self.urp,
            mss: self.mss,
        }
    }
}

/// What the TCB asks its driver to do.
#[derive(Debug)]
pub(crate) enum TcpAction {
    /// Transmit a segment.
    Send(SegmentSpec),
    /// New in-order data was queued: notify readers. `wake` is true
    /// when the receive queue was empty before this segment — only then
    /// is a blocked reader actually woken (BSD's `sowakeup` on a
    /// non-empty queue finds the reader already runnable and costs
    /// nothing).
    Deliver {
        /// True if a blocked reader must be woken.
        wake: bool,
    },
    /// Send-buffer space was freed: notify writers.
    WakeWriters,
    /// The active open completed.
    Connected,
    /// The peer sent FIN: no more data will arrive.
    PeerClosed,
    /// The connection failed.
    Fail(SocketError),
    /// Arm (or re-arm) a timer to fire after the given delay.
    SetTimer(TcpTimer, SimTime),
    /// Cancel a timer.
    CancelTimer(TcpTimer),
    /// The TCB is finished and may be deallocated.
    Free,
}

/// Serialized connection state — the migration capsule of §3.1. "The
/// call also returns a local endpoint, a remote endpoint, the
/// connection state variables, and a packet filter port."
#[derive(Debug, Clone)]
pub struct TcbSnapshot {
    /// Connection state.
    pub(crate) state: TcpState,
    /// Local endpoint.
    pub(crate) local: InetAddr,
    /// Remote endpoint.
    pub(crate) remote: InetAddr,
    /// Send sequence variables: (iss, una, nxt, max, wnd, wl1, wl2, up).
    pub(crate) snd: (u32, u32, u32, u32, u32, u32, u32, u32),
    /// Receive sequence variables: (irs, nxt, adv, up).
    pub(crate) rcv: (u32, u32, u32, u32),
    /// Congestion state: (cwnd, ssthresh).
    pub(crate) congestion: (u32, u32),
    /// RTT estimator: (srtt_ns, rttvar_ns, has_estimate).
    pub(crate) rtt: (u64, u64, bool),
    /// MSS in force.
    pub(crate) mss: u16,
    /// Unacknowledged/unsent bytes on the send queue.
    pub(crate) snd_data: Vec<u8>,
    /// Undelivered bytes on the receive queue.
    pub(crate) rcv_data: Vec<u8>,
    /// Out-of-order segments (seq, bytes).
    pub(crate) reass: Vec<(u32, Vec<u8>)>,
    /// Buffer limits: (snd_hiwat, rcv_hiwat).
    pub(crate) hiwat: (usize, usize),
    /// Nagle disabled?
    pub(crate) nodelay: bool,
    /// FIN already received from peer?
    pub(crate) fin_rcvd: bool,
}

/// The transmission control block.
#[derive(Debug)]
pub(crate) struct Tcb {
    /// Connection state.
    pub(crate) state: TcpState,
    /// Local endpoint.
    pub(crate) local: InetAddr,
    /// Remote endpoint.
    pub(crate) remote: InetAddr,

    // Send sequence space.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_max: u32,
    snd_wnd: u32,
    snd_wl1: u32,
    snd_wl2: u32,
    snd_up: u32,

    // Receive sequence space.
    irs: u32,
    rcv_nxt: u32,
    rcv_adv: u32,
    rcv_up: u32,

    // Buffers.
    /// Send socket buffer (holds unacknowledged + unsent data).
    pub(crate) snd_buf: SockBuf,
    /// Receive socket buffer (in-order data awaiting the application).
    pub(crate) rcv_buf: SockBuf,
    reass: Vec<(u32, Vec<u8>)>,

    // Congestion control.
    cwnd: u32,
    ssthresh: u32,
    dupacks: u32,

    // RTT estimation (Jacobson), in nanoseconds.
    srtt: u64,
    rttvar: u64,
    rtt_valid: bool,
    /// Outstanding measurement: sequence being timed and its start.
    rtt_probe: Option<(u32, SimTime)>,
    rxtshift: u32,

    /// Negotiated maximum segment size.
    pub(crate) mss: u16,
    /// Nagle disabled (`TCP_NODELAY`).
    pub(crate) nodelay: bool,

    delack_pending: bool,
    fin_sent_seq: Option<u32>,
    fin_rcvd: bool,
    /// Terminal error, sticky once set.
    pub(crate) error: Option<SocketError>,
    rexmt_armed: bool,
    persist_armed: bool,
    persist_shift: u32,

    // Statistics.
    /// Segments retransmitted.
    pub(crate) rexmt_segs: u64,
    /// Fast retransmits triggered.
    pub(crate) fast_rexmts: u64,
}

impl Tcb {
    /// Creates a closed TCB with the given buffer limits.
    pub(crate) fn new(
        local: InetAddr,
        remote: InetAddr,
        snd_hiwat: usize,
        rcv_hiwat: usize,
    ) -> Tcb {
        Tcb {
            state: TcpState::Closed,
            local,
            remote,
            iss: 0,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            snd_wnd: 0,
            snd_wl1: 0,
            snd_wl2: 0,
            snd_up: 0,
            irs: 0,
            rcv_nxt: 0,
            rcv_adv: 0,
            rcv_up: 0,
            snd_buf: SockBuf::new(snd_hiwat),
            rcv_buf: SockBuf::new(rcv_hiwat),
            reass: Vec::new(),
            cwnd: u32::from(DEFAULT_MSS),
            ssthresh: MAX_WINDOW,
            dupacks: 0,
            srtt: 0,
            rttvar: 0,
            rtt_valid: false,
            rtt_probe: None,
            rxtshift: 0,
            mss: DEFAULT_MSS,
            nodelay: false,
            delack_pending: false,
            fin_sent_seq: None,
            fin_rcvd: false,
            error: None,
            rexmt_armed: false,
            persist_armed: false,
            persist_shift: 0,
            rexmt_segs: 0,
            fast_rexmts: 0,
        }
    }

    // --- Accessors used by the stack and tests ---

    /// Receive window currently advertisable.
    fn rcv_wnd(&self) -> u32 {
        (self.rcv_buf.space() as u32).min(MAX_WINDOW)
    }

    /// Bytes of in-order data available to the application.
    pub(crate) fn readable(&self) -> usize {
        self.rcv_buf.len()
    }

    /// Send-buffer space available to the application.
    pub(crate) fn writable(&self) -> usize {
        self.snd_buf.space()
    }

    /// True if the peer has closed and all data has been read.
    pub(crate) fn at_eof(&self) -> bool {
        self.fin_rcvd && self.rcv_buf.is_empty()
    }

    /// The retransmission timeout currently in force.
    pub(crate) fn rto(&self) -> SimTime {
        let base = if self.rtt_valid {
            SimTime::from_nanos(self.srtt + 4 * self.rttvar)
        } else {
            RTO_INIT
        };
        let backed = base * (1u64 << self.rxtshift.min(16));
        backed.max(RTO_MIN).min(RTO_MAX)
    }

    /// Current congestion window (for tests/benchmarks).
    pub(crate) fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current slow-start threshold (for tests/benchmarks).
    pub(crate) fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    // --- Opens ---

    /// Active open: send SYN (stack supplies the ISS).
    pub(crate) fn connect(&mut self, iss: u32, out: &mut Vec<TcpAction>) {
        assert_eq!(self.state, TcpState::Closed, "connect on non-closed TCB");
        self.iss = iss;
        self.snd_una = iss;
        self.snd_nxt = iss;
        self.snd_max = iss;
        self.state = TcpState::SynSent;
        out.push(TcpAction::Send(SegmentSpec {
            local: self.local,
            remote: self.remote,
            seq: iss,
            ack: 0,
            flags: TcpFlags::SYN,
            wnd: self.rcv_wnd() as u16,
            urp: 0,
            mss: Some(self.mss),
            data: MbufChain::new(),
            rexmit: false,
        }));
        self.snd_nxt = iss.wrapping_add(1);
        self.snd_max = self.snd_nxt;
        out.push(TcpAction::SetTimer(TcpTimer::Rexmt, self.rto()));
        self.rexmt_armed = true;
    }

    /// Passive open: build a TCB in `SynReceived` answering `syn` (the
    /// listener's driver calls this for each new connection request).
    #[allow(clippy::too_many_arguments)] // The SYN's fields plus buffer limits; a struct would obscure RFC 793's names.
    pub(crate) fn accept_syn(
        local: InetAddr,
        remote: InetAddr,
        iss: u32,
        syn_seq: u32,
        syn_mss: Option<u16>,
        syn_wnd: u16,
        snd_hiwat: usize,
        rcv_hiwat: usize,
        out: &mut Vec<TcpAction>,
    ) -> Tcb {
        let mut tcb = Tcb::new(local, remote, snd_hiwat, rcv_hiwat);
        tcb.state = TcpState::SynReceived;
        tcb.irs = syn_seq;
        tcb.rcv_nxt = syn_seq.wrapping_add(1);
        tcb.rcv_adv = tcb.rcv_nxt.wrapping_add(tcb.rcv_wnd());
        tcb.iss = iss;
        tcb.snd_una = iss;
        tcb.snd_nxt = iss.wrapping_add(1);
        tcb.snd_max = tcb.snd_nxt;
        tcb.snd_wnd = u32::from(syn_wnd);
        tcb.snd_wl1 = syn_seq;
        tcb.snd_wl2 = iss;
        if let Some(m) = syn_mss {
            tcb.mss = tcb.mss.min(m);
        }
        tcb.cwnd = u32::from(tcb.mss);
        out.push(TcpAction::Send(SegmentSpec {
            local,
            remote,
            seq: iss,
            ack: tcb.rcv_nxt,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            wnd: tcb.rcv_wnd() as u16,
            urp: 0,
            mss: Some(tcb.mss),
            data: MbufChain::new(),
            rexmit: false,
        }));
        out.push(TcpAction::SetTimer(TcpTimer::Rexmt, tcb.rto()));
        tcb.rexmt_armed = true;
        tcb
    }

    // --- Application send/receive ---

    /// Queues data for transmission; returns bytes accepted (bounded by
    /// send-buffer space). `copy_rate_charged_by_caller`: the caller
    /// performs and charges the copy into the socket buffer.
    pub(crate) fn send(
        &mut self,
        data: &[u8],
        now: SimTime,
        out: &mut Vec<TcpAction>,
    ) -> Result<usize, SocketError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.state.can_send() {
            return Err(if self.state == TcpState::Closed {
                SocketError::NotConnected
            } else {
                SocketError::Shutdown
            });
        }
        let take = data.len().min(self.snd_buf.space());
        if take == 0 {
            return Err(SocketError::WouldBlock);
        }
        self.snd_buf.append(MbufChain::from_slice(&data[..take]));
        self.output(now, false, out);
        Ok(take)
    }

    /// Copies up to `buf.len()` bytes of in-order data to the caller,
    /// consuming them. Returns bytes read; any window-update actions
    /// are pushed onto `out`.
    pub(crate) fn recv(&mut self, buf: &mut [u8], now: SimTime, out: &mut Vec<TcpAction>) -> usize {
        let n = buf.len().min(self.rcv_buf.len());
        if n > 0 {
            self.rcv_buf.peek(&mut buf[..n]);
            self.rcv_buf.drop_front(n);
            self.after_user_read(now, out);
        }
        n
    }

    /// Window-update check after the application consumed receive-queue
    /// data (by any interface — copyout or shared-buffer handoff): if
    /// consuming opened the window significantly (two segments or half
    /// the buffer), advertise it immediately — BSD's receiver
    /// silly-window avoidance.
    pub(crate) fn after_user_read(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        if self.state.is_synchronized() {
            let new_wnd = self.rcv_wnd();
            let advertised = self.rcv_adv.wrapping_sub(self.rcv_nxt);
            let gain = new_wnd.saturating_sub(advertised);
            if gain >= 2 * u32::from(self.mss) || gain as usize * 2 >= self.rcv_buf.hiwat() {
                self.emit_ack(now, out);
            }
        }
    }

    // --- Output engine (tcp_output) ---

    /// Produces whatever segments the connection state allows. `force`
    /// is used by the persist timer to send a one-byte window probe.
    pub(crate) fn output(&mut self, now: SimTime, force: bool, out: &mut Vec<TcpAction>) {
        if matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            return;
        }
        if !self.state.is_synchronized() {
            // SYN already sent and timed; data waits for ESTABLISHED.
            return;
        }
        loop {
            let off = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
            let in_queue = self.snd_buf.len();
            let wnd = self.snd_wnd.min(self.cwnd) as usize;
            let mut len = in_queue.saturating_sub(off).min(wnd.saturating_sub(off));
            len = len.min(usize::from(self.mss));

            let fin_pending = self.fin_should_be_sent() && off + len >= in_queue;

            let mut send_now = false;
            if len > 0 {
                if len == usize::from(self.mss) {
                    send_now = true; // Full segment.
                } else if off + len >= in_queue && (self.nodelay || self.snd_nxt == self.snd_una) {
                    // All queued data fits and either Nagle is off or
                    // nothing is outstanding: send the runt.
                    send_now = true;
                } else if force {
                    send_now = true;
                }
            }
            let mut is_probe = false;
            if force && len == 0 && wnd == 0 && in_queue > off {
                // Zero-window probe: force one byte beyond the window.
                // The probe does not advance `snd_nxt` and is not timed
                // by the retransmission timer — the persist machinery
                // owns it (it can never be acknowledged while the
                // window stays closed, so REXMT would falsely drop the
                // connection).
                len = 1;
                send_now = true;
                is_probe = true;
            }
            let seq = self.snd_nxt;
            // The FIN occupies the sequence number one past the last
            // byte of the send queue. It is emitted exactly when this
            // segment ends at that point and `snd_nxt` has not already
            // passed it (first transmission or retransmission).
            let fin_target = fin_pending.then(|| {
                self.fin_sent_seq
                    .unwrap_or_else(|| self.snd_una.wrapping_add(in_queue as u32))
            });
            let send_fin = fin_target
                .is_some_and(|t| seq.wrapping_add(len as u32) == t && seq_le(self.snd_nxt, t));
            if !send_now && !send_fin {
                break;
            }

            let (data, _copied) = self.snd_buf.copy_range(off, len);
            let mut flags = TcpFlags::ACK;
            if len > 0 && off + len >= in_queue {
                flags = flags | TcpFlags::PSH;
            }
            if send_fin {
                flags = flags | TcpFlags::FIN;
                self.fin_sent_seq = Some(seq.wrapping_add(len as u32));
            }
            let mut urp = 0;
            if seq_gt(self.snd_up, seq) {
                let delta = self.snd_up.wrapping_sub(seq);
                if delta <= 0xFFFF {
                    flags = flags | TcpFlags::URG;
                    urp = delta as u16;
                }
            }
            let fin_bit = u32::from(flags.contains(TcpFlags::FIN));
            let mut advancing = false;
            if !is_probe {
                self.snd_nxt = seq.wrapping_add(len as u32 + fin_bit);
                advancing = seq_gt(self.snd_nxt, self.snd_max);
                if advancing {
                    self.snd_max = self.snd_nxt;
                    // Time this transmission if nothing is being timed.
                    if self.rtt_probe.is_none() && len > 0 {
                        self.rtt_probe = Some((seq, now));
                    }
                }
            }
            let wnd_adv = self.rcv_wnd();
            self.rcv_adv = self.rcv_nxt.wrapping_add(wnd_adv);
            if self.delack_pending {
                self.delack_pending = false;
                out.push(TcpAction::CancelTimer(TcpTimer::DelAck));
            }
            out.push(TcpAction::Send(SegmentSpec {
                local: self.local,
                remote: self.remote,
                seq,
                ack: self.rcv_nxt,
                flags,
                wnd: wnd_adv as u16,
                urp,
                mss: None,
                data,
                rexmit: !advancing,
            }));
            if (len > 0 || fin_bit != 0) && !self.rexmt_armed && !is_probe {
                self.rexmt_armed = true;
                out.push(TcpAction::SetTimer(TcpTimer::Rexmt, self.rto()));
            }
            if self.persist_armed {
                self.persist_armed = false;
                self.persist_shift = 0;
                out.push(TcpAction::CancelTimer(TcpTimer::Persist));
            }
            if force {
                break;
            }
            // Loop: more full segments may fit in the window.
            let off2 = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
            if off2 >= self.snd_buf.len() || off2 >= self.snd_wnd.min(self.cwnd) as usize {
                break;
            }
        }
        // If data waits but the window is zero and nothing is in
        // flight, start the persist timer.
        if self.snd_wnd == 0
            && self.snd_nxt == self.snd_una
            && !self.snd_buf.is_empty()
            && !self.persist_armed
            && self.state.is_synchronized()
        {
            self.persist_armed = true;
            out.push(TcpAction::SetTimer(
                TcpTimer::Persist,
                self.persist_backoff(),
            ));
        }
    }

    fn fin_should_be_sent(&self) -> bool {
        matches!(
            self.state,
            TcpState::FinWait1 | TcpState::Closing | TcpState::LastAck
        )
    }

    fn persist_backoff(&self) -> SimTime {
        (RTO_MIN * (1u64 << self.persist_shift.min(6))).min(RTO_MAX)
    }

    fn emit_ack(&mut self, _now: SimTime, out: &mut Vec<TcpAction>) {
        let wnd = self.rcv_wnd();
        self.rcv_adv = self.rcv_nxt.wrapping_add(wnd);
        if self.delack_pending {
            self.delack_pending = false;
            out.push(TcpAction::CancelTimer(TcpTimer::DelAck));
        }
        out.push(TcpAction::Send(SegmentSpec {
            local: self.local,
            remote: self.remote,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: TcpFlags::ACK,
            wnd: wnd as u16,
            urp: 0,
            mss: None,
            data: MbufChain::new(),
            rexmit: false,
        }));
    }

    fn emit_rst(&self, seq: u32, ack: Option<u32>) -> TcpAction {
        TcpAction::Send(SegmentSpec {
            local: self.local,
            remote: self.remote,
            seq,
            ack: ack.unwrap_or(0),
            flags: if ack.is_some() {
                TcpFlags::RST | TcpFlags::ACK
            } else {
                TcpFlags::RST
            },
            wnd: 0,
            urp: 0,
            mss: None,
            data: MbufChain::new(),
            rexmit: false,
        })
    }

    // --- Input engine (tcp_input) ---

    /// Processes one arriving segment.
    pub(crate) fn input(
        &mut self,
        hdr: &TcpHeader,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<TcpAction>,
    ) {
        let flags = hdr.flags;

        match self.state {
            TcpState::Closed => {
                if !flags.contains(TcpFlags::RST) {
                    // RFC 793: the RST acknowledges the whole segment,
                    // counting SYN and FIN as one sequence number each.
                    let seg_len = payload.len() as u32
                        + u32::from(flags.contains(TcpFlags::SYN))
                        + u32::from(flags.contains(TcpFlags::FIN));
                    out.push(self.emit_rst(
                        if flags.contains(TcpFlags::ACK) {
                            hdr.ack
                        } else {
                            0
                        },
                        (!flags.contains(TcpFlags::ACK)).then(|| hdr.seq.wrapping_add(seg_len)),
                    ));
                }
                return;
            }
            TcpState::SynSent => return self.input_syn_sent(hdr, payload, now, out),
            _ => {}
        }

        // RST processing.
        if flags.contains(TcpFlags::RST) {
            if self.seq_acceptable(hdr.seq, payload.len()) || self.state == TcpState::SynReceived {
                self.reset(SocketError::ConnReset, out);
            }
            return;
        }

        // Sequence acceptability; trim to window.
        let Some((seq, data)) = self.trim_to_window(hdr.seq, payload) else {
            // Unacceptable segment: ACK and drop (keeps the peer
            // synchronized; also handles old duplicates).
            self.emit_ack(now, out);
            return;
        };

        // A SYN inside the window of a synchronized connection is an
        // error.
        if flags.contains(TcpFlags::SYN) && self.state.is_synchronized() {
            self.reset(SocketError::ConnReset, out);
            return;
        }

        if !flags.contains(TcpFlags::ACK) {
            return;
        }

        // ACK processing.
        if self.state == TcpState::SynReceived {
            if seq_le(self.snd_una, hdr.ack) && seq_le(hdr.ack, self.snd_max) {
                self.state = TcpState::Established;
                out.push(TcpAction::Connected);
                if self.rexmt_armed {
                    self.rexmt_armed = false;
                    out.push(TcpAction::CancelTimer(TcpTimer::Rexmt));
                }
            } else {
                out.push(self.emit_rst(hdr.ack, None));
                return;
            }
        }
        self.process_ack(hdr, now, out);
        if matches!(self.state, TcpState::Closed | TcpState::TimeWait)
            && !flags.contains(TcpFlags::FIN)
        {
            return;
        }

        // Window update (RFC 793 SND.WND handling).
        if seq_lt(self.snd_wl1, seq) || (self.snd_wl1 == seq && seq_le(self.snd_wl2, hdr.ack)) {
            let old_wnd = self.snd_wnd;
            self.snd_wnd = u32::from(hdr.window);
            self.snd_wl1 = seq;
            self.snd_wl2 = hdr.ack;
            if self.snd_wnd > old_wnd {
                // Window opened: try to send.
                self.output(now, false, out);
            }
        }

        // Urgent pointer.
        if flags.contains(TcpFlags::URG) {
            let up = seq.wrapping_add(u32::from(hdr.urgent));
            if seq_gt(up, self.rcv_up) {
                self.rcv_up = up;
            }
        }

        // Payload processing.
        if !data.is_empty() {
            self.process_data(seq, data, now, out);
        }

        // FIN processing.
        if flags.contains(TcpFlags::FIN) {
            let fin_seq = seq.wrapping_add(data.len() as u32);
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                if !self.fin_rcvd {
                    self.fin_rcvd = true;
                    out.push(TcpAction::PeerClosed);
                }
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        // Our FIN not yet acked (otherwise we'd already
                        // be in FinWait2 via process_ack).
                        self.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        out.push(TcpAction::SetTimer(TcpTimer::TwoMsl, MSL_2));
                    }
                    _ => {}
                }
            }
            // In order or not, ACK what we have.
            self.emit_ack(now, out);
        }
    }

    fn input_syn_sent(
        &mut self,
        hdr: &TcpHeader,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<TcpAction>,
    ) {
        let flags = hdr.flags;
        if flags.contains(TcpFlags::ACK)
            && (seq_le(hdr.ack, self.iss) || seq_gt(hdr.ack, self.snd_max))
        {
            if !flags.contains(TcpFlags::RST) {
                out.push(self.emit_rst(hdr.ack, None));
            }
            return;
        }
        if flags.contains(TcpFlags::RST) {
            if flags.contains(TcpFlags::ACK) {
                self.reset(SocketError::ConnRefused, out);
            }
            return;
        }
        if !flags.contains(TcpFlags::SYN) {
            return;
        }
        self.irs = hdr.seq;
        self.rcv_nxt = hdr.seq.wrapping_add(1);
        if let Some(m) = hdr.mss {
            self.mss = self.mss.min(m);
            self.cwnd = u32::from(self.mss);
        }
        self.snd_wnd = u32::from(hdr.window);
        self.snd_wl1 = hdr.seq;
        if flags.contains(TcpFlags::ACK) {
            // SYN|ACK: handshake complete.
            self.snd_una = hdr.ack;
            self.snd_wl2 = hdr.ack;
            self.rtt_sample(now);
            self.state = TcpState::Established;
            if self.rexmt_armed {
                self.rexmt_armed = false;
                out.push(TcpAction::CancelTimer(TcpTimer::Rexmt));
            }
            self.rxtshift = 0;
            out.push(TcpAction::Connected);
            self.emit_ack(now, out);
            // Data may already be queued behind the handshake.
            self.output(now, false, out);
            if !payload.is_empty() {
                self.process_data(self.rcv_nxt, payload, now, out);
            }
        } else {
            // Simultaneous open.
            self.state = TcpState::SynReceived;
            out.push(TcpAction::Send(SegmentSpec {
                local: self.local,
                remote: self.remote,
                seq: self.iss,
                ack: self.rcv_nxt,
                flags: TcpFlags::SYN | TcpFlags::ACK,
                wnd: self.rcv_wnd() as u16,
                urp: 0,
                mss: Some(self.mss),
                data: MbufChain::new(),
                rexmit: true,
            }));
        }
    }

    fn seq_acceptable(&self, seq: u32, len: usize) -> bool {
        let wnd = self.rcv_wnd();
        if len == 0 {
            if wnd == 0 {
                seq == self.rcv_nxt
            } else {
                seq_le(self.rcv_nxt, seq) && seq_lt(seq, self.rcv_nxt.wrapping_add(wnd))
            }
        } else if wnd == 0 {
            false
        } else {
            let end = seq.wrapping_add(len as u32 - 1);
            (seq_le(self.rcv_nxt, seq) && seq_lt(seq, self.rcv_nxt.wrapping_add(wnd)))
                || (seq_le(self.rcv_nxt, end) && seq_lt(end, self.rcv_nxt.wrapping_add(wnd)))
        }
    }

    /// Trims an arriving segment to the receive window; returns the
    /// usable `(seq, data)` — a sub-slice of `payload` — or `None` if
    /// wholly unacceptable.
    fn trim_to_window<'a>(&self, seq: u32, payload: &'a [u8]) -> Option<(u32, &'a [u8])> {
        if !self.seq_acceptable(seq, payload.len()) {
            return None;
        }
        let mut seq = seq;
        let mut data = payload;
        // Trim the front (old data already received). A pure old
        // duplicate that still passed acceptability (e.g. seq at window
        // edge) is kept as empty.
        if seq_lt(seq, self.rcv_nxt) {
            let drop = self.rcv_nxt.wrapping_sub(seq) as usize;
            data = &data[drop.min(data.len())..];
            seq = self.rcv_nxt;
        }
        // Trim the back to the window.
        let wnd = self.rcv_wnd() as usize;
        let max = self.rcv_nxt.wrapping_add(wnd as u32);
        let end = seq.wrapping_add(data.len() as u32);
        if seq_gt(end, max) {
            let excess = end.wrapping_sub(max) as usize;
            data = &data[..data.len().saturating_sub(excess)];
        }
        Some((seq, data))
    }

    fn process_ack(&mut self, hdr: &TcpHeader, now: SimTime, out: &mut Vec<TcpAction>) {
        let ack = hdr.ack;
        if seq_le(ack, self.snd_una) {
            // Duplicate ACK. Counted only if it carries no data/window
            // news and data is outstanding.
            if hdr.window as u32 == self.snd_wnd && seq_lt(self.snd_una, self.snd_max) {
                self.dupacks += 1;
                if self.dupacks == REXMT_THRESH {
                    // Fast retransmit.
                    self.fast_rexmts += 1;
                    let onxt = self.snd_nxt;
                    self.ssthresh = (self.snd_wnd.min(self.cwnd) / 2).max(2 * u32::from(self.mss));
                    self.snd_nxt = self.snd_una;
                    self.cwnd = u32::from(self.mss);
                    self.rtt_probe = None; // Karn: do not time retransmits.
                    self.output(now, true, out);
                    self.cwnd = self.ssthresh + REXMT_THRESH * u32::from(self.mss);
                    if seq_gt(onxt, self.snd_nxt) {
                        self.snd_nxt = onxt;
                    }
                } else if self.dupacks > REXMT_THRESH {
                    self.cwnd += u32::from(self.mss);
                    self.output(now, false, out);
                }
            } else {
                self.dupacks = 0;
            }
            return;
        }
        if seq_gt(ack, self.snd_max) {
            // ACK for data never sent.
            self.emit_ack(now, out);
            return;
        }

        // A new ACK.
        if self.dupacks >= REXMT_THRESH {
            // Leaving fast recovery: deflate.
            self.cwnd = self.ssthresh;
        }
        self.dupacks = 0;

        // RTT sampling (Karn's rule handled by clearing the probe on
        // retransmission).
        if let Some((pseq, _)) = self.rtt_probe {
            if seq_gt(ack, pseq) {
                self.rtt_sample(now);
            }
        }

        let acked = ack.wrapping_sub(self.snd_una) as usize;
        let fin_acked = self
            .fin_sent_seq
            .is_some_and(|fs| seq_ge(ack, fs.wrapping_add(1)));
        let data_acked = acked
            .saturating_sub(usize::from(fin_acked))
            // The SYN occupies one sequence number; when it is acked the
            // send buffer holds no corresponding byte.
            .min(self.snd_buf.len());
        if data_acked > 0 {
            self.snd_buf.drop_front(data_acked);
            out.push(TcpAction::WakeWriters);
        }
        self.snd_una = ack;
        if seq_gt(self.snd_una, self.snd_nxt) {
            self.snd_nxt = self.snd_una;
        }
        self.rxtshift = 0;

        // Congestion avoidance / slow start.
        let incr = if self.cwnd <= self.ssthresh {
            u32::from(self.mss)
        } else {
            (u32::from(self.mss) * u32::from(self.mss) / self.cwnd).max(1)
        };
        self.cwnd = (self.cwnd + incr).min(MAX_WINDOW);

        // Retransmission timer: restart if data remains outstanding.
        if self.rexmt_armed {
            self.rexmt_armed = false;
            out.push(TcpAction::CancelTimer(TcpTimer::Rexmt));
        }
        if seq_lt(self.snd_una, self.snd_max) {
            self.rexmt_armed = true;
            out.push(TcpAction::SetTimer(TcpTimer::Rexmt, self.rto()));
        }

        // State transitions driven by our FIN being acknowledged.
        if fin_acked {
            match self.state {
                TcpState::FinWait1 => self.state = TcpState::FinWait2,
                TcpState::Closing => {
                    self.state = TcpState::TimeWait;
                    out.push(TcpAction::SetTimer(TcpTimer::TwoMsl, MSL_2));
                }
                TcpState::LastAck => {
                    self.state = TcpState::Closed;
                    out.push(TcpAction::Free);
                }
                _ => {}
            }
        }

        // More data may now fit in the window.
        self.output(now, false, out);
    }

    fn rtt_sample(&mut self, now: SimTime) {
        let Some((_, start)) = self.rtt_probe.take() else {
            return;
        };
        let rtt = (now - start).as_nanos();
        if self.rtt_valid {
            // Jacobson: srtt += (rtt - srtt)/8; rttvar += (|err| - rttvar)/4.
            let err = rtt as i64 - self.srtt as i64;
            self.srtt = (self.srtt as i64 + err / 8).max(1) as u64;
            let aerr = err.unsigned_abs();
            self.rttvar =
                ((self.rttvar as i64) + ((aerr as i64 - self.rttvar as i64) / 4)).max(1) as u64;
        } else {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
            self.rtt_valid = true;
        }
    }

    fn process_data(&mut self, seq: u32, data: &[u8], now: SimTime, out: &mut Vec<TcpAction>) {
        if data.is_empty() {
            return;
        }
        if seq == self.rcv_nxt {
            // In-order: append, then drain any contiguous reassembly.
            let was_empty = self.rcv_buf.is_empty();
            let take = data.len().min(self.rcv_buf.space());
            self.rcv_buf.append(MbufChain::from_slice(&data[..take]));
            self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
            self.drain_reassembly();
            out.push(TcpAction::Deliver { wake: was_empty });
            // Delayed ACK: every second segment, or 200 ms.
            if self.delack_pending {
                self.emit_ack(now, out);
            } else {
                self.delack_pending = true;
                out.push(TcpAction::SetTimer(TcpTimer::DelAck, DELACK));
            }
        } else {
            // Out of order: queue and send an immediate duplicate ACK
            // (this is what drives the peer's fast retransmit).
            self.reass.push((seq, data.to_vec()));
            self.reass.sort_by(|a, b| {
                if seq_lt(a.0, b.0) {
                    std::cmp::Ordering::Less
                } else if a.0 == b.0 {
                    std::cmp::Ordering::Equal
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            self.emit_ack(now, out);
        }
    }

    fn drain_reassembly(&mut self) {
        loop {
            let mut advanced = false;
            let mut i = 0;
            while i < self.reass.len() {
                let s = self.reass[i].0;
                let end = s.wrapping_add(self.reass[i].1.len() as u32);
                if seq_le(end, self.rcv_nxt) {
                    // Entirely old.
                    self.reass.remove(i);
                    continue;
                }
                if seq_le(s, self.rcv_nxt) {
                    let (_, d) = self.reass.remove(i);
                    let skip = self.rcv_nxt.wrapping_sub(s) as usize;
                    let useful = &d[skip..];
                    let take = useful.len().min(self.rcv_buf.space());
                    self.rcv_buf.append(MbufChain::from_slice(&useful[..take]));
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
                    advanced = true;
                    break;
                }
                i += 1;
            }
            if !advanced {
                break;
            }
        }
    }

    // --- Timers ---

    /// Drives a timer expiry.
    pub(crate) fn timer(&mut self, which: TcpTimer, now: SimTime, out: &mut Vec<TcpAction>) {
        match which {
            TcpTimer::Rexmt => self.timer_rexmt(now, out),
            TcpTimer::Persist => self.timer_persist(now, out),
            TcpTimer::DelAck => {
                if self.delack_pending {
                    self.delack_pending = false;
                    self.emit_ack(now, out);
                }
            }
            TcpTimer::TwoMsl => {
                if self.state == TcpState::TimeWait {
                    self.state = TcpState::Closed;
                    out.push(TcpAction::Free);
                }
            }
        }
    }

    fn timer_rexmt(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        self.rexmt_armed = false;
        self.rxtshift += 1;
        if self.rxtshift > MAX_RXT {
            return self.reset(SocketError::TimedOut, out);
        }
        self.rexmt_segs += 1;
        // Karn: invalidate the outstanding RTT measurement.
        self.rtt_probe = None;
        // Collapse the congestion window.
        self.ssthresh = (self.snd_wnd.min(self.cwnd) / 2).max(2 * u32::from(self.mss));
        self.cwnd = u32::from(self.mss);
        self.dupacks = 0;

        match self.state {
            TcpState::SynSent => {
                // Retransmit the SYN.
                out.push(TcpAction::Send(SegmentSpec {
                    local: self.local,
                    remote: self.remote,
                    seq: self.iss,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    wnd: self.rcv_wnd() as u16,
                    urp: 0,
                    mss: Some(self.mss),
                    data: MbufChain::new(),
                    rexmit: true,
                }));
            }
            TcpState::SynReceived => {
                out.push(TcpAction::Send(SegmentSpec {
                    local: self.local,
                    remote: self.remote,
                    seq: self.iss,
                    ack: self.rcv_nxt,
                    flags: TcpFlags::SYN | TcpFlags::ACK,
                    wnd: self.rcv_wnd() as u16,
                    urp: 0,
                    mss: Some(self.mss),
                    data: MbufChain::new(),
                    rexmit: true,
                }));
            }
            _ => {
                // Go back to the first unacknowledged byte.
                self.snd_nxt = self.snd_una;
                self.output(now, true, out);
            }
        }
        self.rexmt_armed = true;
        out.push(TcpAction::SetTimer(TcpTimer::Rexmt, self.rto()));
    }

    fn timer_persist(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        self.persist_armed = false;
        if self.snd_wnd == 0 && !self.snd_buf.is_empty() {
            self.persist_shift += 1;
            self.output(now, true, out);
            if !self.persist_armed {
                self.persist_armed = true;
                out.push(TcpAction::SetTimer(
                    TcpTimer::Persist,
                    self.persist_backoff(),
                ));
            }
        } else {
            self.persist_shift = 0;
        }
    }

    // --- Close paths ---

    /// Application close: send FIN after queued data.
    pub(crate) fn close(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        match self.state {
            TcpState::Closed => out.push(TcpAction::Free),
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                out.push(TcpAction::Free);
            }
            TcpState::SynReceived | TcpState::Established => {
                self.state = TcpState::FinWait1;
                self.output(now, false, out);
            }
            TcpState::CloseWait => {
                self.state = TcpState::LastAck;
                self.output(now, false, out);
            }
            // Already closing.
            _ => {}
        }
    }

    /// Abortive close: RST to the peer, local teardown.
    pub(crate) fn abort(&mut self, out: &mut Vec<TcpAction>) {
        if self.state.is_synchronized() {
            out.push(self.emit_rst(self.snd_nxt, Some(self.rcv_nxt)));
        }
        self.state = TcpState::Closed;
        self.error = Some(SocketError::ConnReset);
        out.extend([
            TcpAction::CancelTimer(TcpTimer::Rexmt),
            TcpAction::CancelTimer(TcpTimer::Persist),
            TcpAction::CancelTimer(TcpTimer::DelAck),
            TcpAction::Free,
        ]);
    }

    fn reset(&mut self, err: SocketError, out: &mut Vec<TcpAction>) {
        self.state = TcpState::Closed;
        self.error = Some(err);
        out.extend([
            TcpAction::CancelTimer(TcpTimer::Rexmt),
            TcpAction::CancelTimer(TcpTimer::Persist),
            TcpAction::CancelTimer(TcpTimer::DelAck),
            TcpAction::Fail(err),
            TcpAction::Free,
        ]);
    }

    // --- Migration (§3.1) ---

    /// Captures the complete connection state for migration.
    pub(crate) fn export(&self) -> TcbSnapshot {
        let mut snd_data = vec![0u8; self.snd_buf.len()];
        self.snd_buf.peek(&mut snd_data);
        let mut rcv_data = vec![0u8; self.rcv_buf.len()];
        self.rcv_buf.peek(&mut rcv_data);
        TcbSnapshot {
            state: self.state,
            local: self.local,
            remote: self.remote,
            snd: (
                self.iss,
                self.snd_una,
                self.snd_nxt,
                self.snd_max,
                self.snd_wnd,
                self.snd_wl1,
                self.snd_wl2,
                self.snd_up,
            ),
            rcv: (self.irs, self.rcv_nxt, self.rcv_adv, self.rcv_up),
            congestion: (self.cwnd, self.ssthresh),
            rtt: (self.srtt, self.rttvar, self.rtt_valid),
            mss: self.mss,
            snd_data,
            rcv_data,
            reass: self.reass.clone(),
            hiwat: (self.snd_buf.hiwat(), self.rcv_buf.hiwat()),
            nodelay: self.nodelay,
            fin_rcvd: self.fin_rcvd,
        }
    }

    /// Reconstructs a TCB from a migration capsule.
    pub(crate) fn import(snap: TcbSnapshot) -> Tcb {
        let mut tcb = Tcb::new(snap.local, snap.remote, snap.hiwat.0, snap.hiwat.1);
        tcb.state = snap.state;
        tcb.iss = snap.snd.0;
        tcb.snd_una = snap.snd.1;
        tcb.snd_nxt = snap.snd.2;
        tcb.snd_max = snap.snd.3;
        tcb.snd_wnd = snap.snd.4;
        tcb.snd_wl1 = snap.snd.5;
        tcb.snd_wl2 = snap.snd.6;
        tcb.snd_up = snap.snd.7;
        tcb.irs = snap.rcv.0;
        tcb.rcv_nxt = snap.rcv.1;
        tcb.rcv_adv = snap.rcv.2;
        tcb.rcv_up = snap.rcv.3;
        tcb.cwnd = snap.congestion.0;
        tcb.ssthresh = snap.congestion.1;
        tcb.srtt = snap.rtt.0;
        tcb.rttvar = snap.rtt.1;
        tcb.rtt_valid = snap.rtt.2;
        tcb.mss = snap.mss;
        tcb.nodelay = snap.nodelay;
        tcb.fin_rcvd = snap.fin_rcvd;
        if !snap.snd_data.is_empty() {
            tcb.snd_buf.append(MbufChain::from_slice(&snap.snd_data));
        }
        if !snap.rcv_data.is_empty() {
            tcb.rcv_buf.append(MbufChain::from_slice(&snap.rcv_data));
        }
        tcb.reass = snap.reass;
        tcb
    }
}

#[cfg(test)]
mod tests;
