//! `bulk_lib` and `lossy_srv`: one-way TCP in 8 KiB writes — on
//! Library-SHM-IPF over a clean wire, or on the UX server over a wire
//! that loses, duplicates and reorders.

use std::cell::RefCell;
use std::rc::Rc;

use psd_core::Fd;
use psd_filter::DemuxStrategy;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{Rng, Sim, SimTime};
use psd_systems::SystemConfig;

use super::{Api, Harness, Meter, Pattern, Rep, RepSpec, BULK_MSG, UNSET};
use crate::spec::Workload;

/// Bulk receive chunk, as `ttcp` reads.
const BULK_RECV: usize = 16 * 1024;
/// The paper's `ttcp` transfer size; `model_err_pct` on `bulk_lib` is
/// taken at this byte of the stream.
const PAPER_TTCP_BYTES: usize = 16 * 1024 * 1024;
/// Table 2, DECstation, Library-SHM-IPF throughput (KB/s).
const PAPER_BULK_KB_S: f64 = 1088.0;
const BULK_PORT: u16 = 5001;

struct Tx {
    fd: Fd,
    /// Message being sent, and bytes of it already queued.
    k: usize,
    within: usize,
    connected_at: Option<u64>,
}

struct Rx {
    /// Stream offset, counted from the start of message 0.
    off: usize,
    buf: Vec<u8>,
}

struct Bulk {
    api: Rc<Api>,
    meter: Rc<RefCell<Meter>>,
    pat: Rc<Pattern>,
    tx: RefCell<Tx>,
    rx: RefCell<Rx>,
}

impl Bulk {
    /// Writes until the socket buffer is full or the stream is done.
    fn pump(&self, sim: &mut Sim) {
        let msgs = self.meter.borrow().sent_at.len();
        loop {
            let (fd, k, within) = {
                let t = self.tx.borrow();
                (t.fd, t.k, t.within)
            };
            if k == msgs {
                return;
            }
            // `on_send` keeps the first call's time, so a message resumed
            // after WouldBlock (or begun mid-way, as the first is) is safe.
            self.meter.borrow_mut().on_send(sim, k);
            match self
                .api
                .send(sim, 0, fd, &self.pat.msg(k, BULK_MSG)[within..])
            {
                Ok(0) | Err(SocketError::WouldBlock) => return,
                Ok(n) => {
                    let mut t = self.tx.borrow_mut();
                    t.within += n;
                    if t.within == BULK_MSG {
                        t.within = 0;
                        t.k += 1;
                    }
                }
                Err(_) => return self.meter.borrow_mut().fail(),
            }
        }
    }

    /// Reads until the socket is empty, checking every piece against the
    /// pattern and completing each message whose last byte arrives.
    fn drain(&self, sim: &mut Sim, fd: Fd) {
        let mut rx = self.rx.borrow_mut();
        let rx = &mut *rx;
        loop {
            let n = match self.api.recv(sim, 1, fd, &mut rx.buf) {
                Ok(0) | Err(SocketError::WouldBlock) => return,
                Ok(n) => n,
                Err(_) => return self.meter.borrow_mut().fail(),
            };
            let mut m = self.meter.borrow_mut();
            let mut pos = 0;
            while pos < n {
                let (k, within) = (rx.off / BULK_MSG, rx.off % BULK_MSG);
                let take = (BULK_MSG - within).min(n - pos);
                if k >= m.done_at.len() {
                    return m.fail();
                }
                m.check(
                    &rx.buf[pos..pos + take],
                    &self.pat.msg(k, BULK_MSG)[within..within + take],
                );
                rx.off += take;
                pos += take;
                if within + take == BULK_MSG {
                    m.on_done(sim, k);
                }
            }
        }
    }
}

pub(super) fn run(spec: &RepSpec) -> Rep {
    let lossy = spec.workload == Workload::LossySrv;
    let config = if lossy {
        SystemConfig::UxServer
    } else {
        SystemConfig::LibraryShmIpf
    };
    let mut h = Harness::new(spec, config, DemuxStrategy::Mpf);
    if lossy {
        h.bed.arm_wire_faults(spec.seed, 0.01, 0.005, 0.005);
    }
    let api = h.api.clone();
    let dst = InetAddr::new(h.bed.hosts[1].ip, BULK_PORT);
    let sim = &mut h.bed.sim;

    // The stream starts a seeded number of bytes into its first
    // message, so where the 8 KiB boundaries fall against the segment
    // boundaries — and with it every message's latency, in its low
    // digits — is an input drawn from the seed like any other.
    let phase = Rng::new(spec.seed ^ 0xB01C_0FF5_E700_0001).below(BULK_MSG as u64) as usize;

    let listener = api.socket(sim, 1, Proto::Tcp);
    let mut ok = api.bind(sim, 1, listener, BULK_PORT).is_ok();
    ok &= api.listen(sim, 1, listener, 5).is_ok();
    let cfd = api.socket(sim, 0, Proto::Tcp);
    let bulk = Rc::new(Bulk {
        api: api.clone(),
        meter: h.meter.clone(),
        pat: h.pattern.clone(),
        tx: RefCell::new(Tx {
            fd: cfd,
            k: 0,
            within: phase,
            connected_at: None,
        }),
        rx: RefCell::new(Rx {
            off: phase,
            buf: vec![0u8; BULK_RECV],
        }),
    });

    // Receiver: accept, then drain on every Readable.
    let b = bulk.clone();
    let on_conn = api.handler(move |sim, fd, ev| {
        if matches!(ev, SockEvent::Readable | SockEvent::PeerClosed) {
            b.drain(sim, fd);
        }
    });
    let b = bulk.clone();
    api.on_event(1, listener, move |sim, fd, ev| {
        if ev == SockEvent::Readable {
            while let Ok(conn) = b.api.accept(sim, 1, fd) {
                b.api.set_handler(1, conn, on_conn.clone());
                b.drain(sim, conn);
            }
        }
    });

    // Sender: connect, then stream on every Writable.
    let b = bulk.clone();
    api.on_event(0, cfd, move |sim, _fd, ev| match ev {
        SockEvent::Connected => {
            b.tx.borrow_mut().connected_at = Some(sim.now().as_nanos());
            b.pump(sim);
        }
        SockEvent::Writable if b.tx.borrow().connected_at.is_some() => b.pump(sim),
        SockEvent::Error(_) => b.meter.borrow_mut().fail(),
        _ => {}
    });
    ok &= api.connect(sim, 0, cfd, dst).is_ok();
    if !ok {
        h.meter.borrow_mut().fail();
    }

    // Even at the lossy server's pace a message takes well under a
    // virtual second; a hundredfold margin marks a stall.
    h.drive_to_end(SimTime::from_millis(100 * spec.msgs as u64 + 60_000));

    let timed = (spec.msgs - spec.msgs / 16) as u64;
    let connected_at = bulk.tx.borrow().connected_at;
    h.finish(timed * BULK_MSG as u64, !lossy, |done_at| {
        // Table 2's cell is the 16 MiB `ttcp` on this placement: take
        // the stream's rate from connection established to the message
        // boundary at (within one write of) that byte.
        if lossy {
            return None;
        }
        let k = PAPER_TTCP_BYTES / BULK_MSG - 1;
        let t = *done_at.get(k).filter(|&&t| t != UNSET)?;
        let secs = (t - connected_at?) as f64 / 1e9;
        let kb_s = (PAPER_TTCP_BYTES - phase) as f64 / 1024.0 / secs;
        Some((kb_s - PAPER_BULK_KB_S).abs() / PAPER_BULK_KB_S * 100.0)
    })
}
