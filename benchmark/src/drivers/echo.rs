//! `echo_lib`: closed-loop round trips with one outstanding, each
//! round UDP or TCP and one of Table 2's sizes by seed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use psd_core::Fd;
use psd_filter::DemuxStrategy;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{Rng, Sim, SimTime};
use psd_systems::SystemConfig;

use super::{Api, Harness, Meter, Pattern, Rep, RepSpec};

/// Table 2's message sizes; the last is 1460 for TCP and 1472 for UDP.
const ECHO_SIZES: [[usize; 5]; 2] = [[1, 100, 512, 1024, 1472], [1, 100, 512, 1024, 1460]];
/// Table 2, DECstation, Library-SHM-IPF round trips (ms): UDP row, TCP row.
const PAPER_ECHO_MS: [[f64; 5]; 2] = [
    [1.23, 1.57, 2.83, 4.41, 5.78],
    [1.72, 2.11, 3.44, 5.09, 6.56],
];
/// `protolat` reads a high-resolution timer per round; the repository's
/// calibration of Table 2 prices that bookkeeping at 35 µs. The client
/// here spends 30–40 µs, drawn per round by seed: a closed loop's think
/// time is an input too, and it keeps round trips from repeating to the
/// nanosecond.
const ECHO_THINK_NS: (u64, u64) = (30_000, 40_000);
const ECHO_PORT: u16 = 6001;

/// Round `k`'s protocol (0 = UDP, 1 = TCP) and size index, by seed.
/// Three rounds in five are UDP: with ten equally likely cells the
/// median round trip would sit on the boundary between two of them and
/// flip with the seed; at 60/40 it sits inside the UDP 512 B cell.
fn echo_schedule(seed: u64, msgs: usize) -> Vec<(u8, u8)> {
    let mut rng = Rng::new(seed ^ 0xEC40_5C4E_D000_0001);
    (0..msgs)
        .map(|_| (u8::from(rng.below(5) >= 3), rng.below(5) as u8))
        .collect()
}

struct EchoSide {
    udp: Fd,
    tcp: Option<Fd>,
    /// Round in progress.
    k: usize,
    /// Bytes of the round's message received so far.
    got: usize,
    buf: Vec<u8>,
}

struct Echo {
    api: Rc<Api>,
    meter: Rc<RefCell<Meter>>,
    pat: Rc<Pattern>,
    rounds: Vec<(u8, u8)>,
    think: RefCell<Rng>,
    client: RefCell<EchoSide>,
    server: RefCell<EchoSide>,
    /// Summed RTT and count per Table 2 cell, timed rounds only.
    cells: RefCell<[[(u64, u64); 5]; 2]>,
}

impl Echo {
    fn size(&self, k: usize) -> usize {
        let (proto, idx) = self.rounds[k];
        ECHO_SIZES[proto as usize][idx as usize]
    }

    fn client_send(&self, sim: &mut Sim) {
        let (k, udp, tcp) = {
            let c = self.client.borrow();
            (c.k, c.udp, c.tcp)
        };
        if k == self.rounds.len() {
            return;
        }
        self.meter.borrow_mut().on_send(sim, k);
        let size = self.size(k);
        let msg = self.pat.msg(k, size);
        let res = match (self.rounds[k].0, tcp) {
            (1, Some(fd)) => self.api.send(sim, 0, fd, msg),
            _ => self.api.sendto(sim, 0, udp, msg, None),
        };
        if res != Ok(size) {
            self.meter.borrow_mut().fail();
        }
    }

    /// Reads whatever `fd` holds into `side.buf[side.got..]`; true when
    /// the round's message is complete.
    fn fill(
        &self,
        sim: &mut Sim,
        who: usize,
        fd: Fd,
        side: &mut EchoSide,
        from: &mut Option<InetAddr>,
    ) -> bool {
        let size = self.size(side.k);
        let is_tcp = side.tcp == Some(fd);
        loop {
            if side.got == size {
                return true;
            }
            let res = if is_tcp {
                self.api.recv(sim, who, fd, &mut side.buf[side.got..size])
            } else {
                self.api
                    .recvfrom(sim, who, fd, &mut side.buf)
                    .map(|(n, a)| {
                        *from = Some(a);
                        n
                    })
            };
            match res {
                Ok(0) | Err(SocketError::WouldBlock) => return false,
                Ok(n) if is_tcp => side.got += n,
                // A datagram is the whole message or a failure.
                Ok(n) => {
                    if n != size {
                        self.meter.borrow_mut().bad += 1;
                    }
                    side.got = size;
                }
                Err(_) => {
                    self.meter.borrow_mut().fail();
                    return false;
                }
            }
        }
    }

    fn server_readable(&self, sim: &mut Sim, fd: Fd) {
        let mut s = self.server.borrow_mut();
        let s = &mut *s;
        while s.k < self.rounds.len() {
            let mut from = None;
            if !self.fill(sim, 1, fd, s, &mut from) {
                return;
            }
            let size = s.got;
            let res = match from {
                Some(a) => self.api.sendto(sim, 1, fd, &s.buf[..size], Some(a)),
                None => self.api.send(sim, 1, fd, &s.buf[..size]),
            };
            if res != Ok(size) {
                return self.meter.borrow_mut().fail();
            }
            s.k += 1;
            s.got = 0;
        }
    }

    fn client_readable(&self, sim: &mut Sim, fd: Fd) {
        loop {
            {
                let mut c = self.client.borrow_mut();
                let c = &mut *c;
                if c.k == self.rounds.len() || !self.fill(sim, 0, fd, c, &mut None) {
                    return;
                }
                let k = c.k;
                let mut m = self.meter.borrow_mut();
                m.check(&c.buf[..c.got], self.pat.msg(k, c.got));
                {
                    let think = self
                        .think
                        .borrow_mut()
                        .range(ECHO_THINK_NS.0, ECHO_THINK_NS.1);
                    let app = self.api.apps[0].borrow();
                    let mut ch = app.begin(sim);
                    ch.add_ns(psd_sim::Layer::Other, think);
                    app.finish(ch);
                }
                m.on_done(sim, k);
                if k >= m.warm {
                    let (proto, idx) = self.rounds[k];
                    let cell = &mut self.cells.borrow_mut()[proto as usize][idx as usize];
                    cell.0 += m.done_at[k] - m.sent_at[k];
                    cell.1 += 1;
                }
                c.k += 1;
                c.got = 0;
            }
            self.client_send(sim);
        }
    }
}

pub(super) fn run(spec: &RepSpec) -> Rep {
    let rounds = echo_schedule(spec.seed, spec.msgs);
    let mut h = Harness::new(spec, SystemConfig::LibraryShmIpf, DemuxStrategy::Mpf);
    let api = h.api.clone();
    let dst = InetAddr::new(h.bed.hosts[1].ip, ECHO_PORT);
    let sim = &mut h.bed.sim;

    let s_udp = api.socket(sim, 1, Proto::Udp);
    let mut ok = api.bind(sim, 1, s_udp, ECHO_PORT).is_ok();
    let listener = api.socket(sim, 1, Proto::Tcp);
    ok &= api.bind(sim, 1, listener, ECHO_PORT).is_ok();
    ok &= api.listen(sim, 1, listener, 2).is_ok();
    let c_udp = api.socket(sim, 0, Proto::Udp);
    ok &= api.connect(sim, 0, c_udp, dst).is_ok();
    let c_tcp = api.socket(sim, 0, Proto::Tcp);

    let side = |udp, tcp| {
        RefCell::new(EchoSide {
            udp,
            tcp,
            k: 0,
            got: 0,
            buf: vec![0u8; 2048],
        })
    };
    let echo = Rc::new(Echo {
        api: api.clone(),
        meter: h.meter.clone(),
        pat: h.pattern.clone(),
        rounds,
        think: RefCell::new(Rng::new(spec.seed ^ 0xEC40_7417_C000_0001)),
        client: side(c_udp, Some(c_tcp)),
        server: side(s_udp, None),
        cells: RefCell::new([[(0, 0); 5]; 2]),
    });

    let e = echo.clone();
    api.on_event(1, s_udp, move |sim, fd, ev| {
        if ev == SockEvent::Readable {
            e.server_readable(sim, fd);
        }
    });
    let e = echo.clone();
    let on_conn = api.handler(move |sim, fd, ev| {
        if ev == SockEvent::Readable {
            e.server_readable(sim, fd);
        }
    });
    let e = echo.clone();
    api.on_event(1, listener, move |sim, fd, ev| {
        if ev == SockEvent::Readable {
            if let Ok(conn) = e.api.accept(sim, 1, fd) {
                e.server.borrow_mut().tcp = Some(conn);
                e.api.set_handler(1, conn, on_conn.clone());
            }
        }
    });
    let connected = Rc::new(Cell::new(false));
    for fd in [c_udp, c_tcp] {
        let (e, connected) = (echo.clone(), connected.clone());
        api.on_event(0, fd, move |sim, fd, ev| match ev {
            SockEvent::Connected => connected.set(true),
            SockEvent::Readable => e.client_readable(sim, fd),
            SockEvent::Error(_) => e.meter.borrow_mut().fail(),
            _ => {}
        });
    }
    ok &= api.connect(sim, 0, c_tcp, dst).is_ok();
    if !ok {
        h.meter.borrow_mut().fail();
    }

    // The TCP handshake also warms ARP in both directions, so the first
    // UDP round meets no cold cache.
    let e = echo.clone();
    let established = h.drive(SimTime::from_secs(30), move |_| {
        connected.get() && e.server.borrow().tcp.is_some()
    });
    if !established {
        h.meter.borrow_mut().fail();
    }
    h.bed.settle();
    echo.client_send(&mut h.bed.sim);
    // The slowest Table 2 cell is under 7 virtual ms a round.
    h.drive_to_end(SimTime::from_millis(100 * spec.msgs as u64 + 60_000));

    let warm = spec.msgs / 16;
    let payload: u64 = (warm..spec.msgs).map(|k| echo.size(k) as u64).sum();
    let cells = *echo.cells.borrow();
    h.finish(payload, true, |_| {
        // Mean |error| over the ten Table 2 round-trip cells.
        let mut sum = 0.0;
        for (measured, paper) in cells.iter().flatten().zip(PAPER_ECHO_MS.iter().flatten()) {
            let &(ns, n) = measured;
            if n == 0 {
                return None;
            }
            let ms = ns as f64 / n as f64 / 1e6;
            sum += (ms - paper).abs() / paper * 100.0;
        }
        Some(sum / 10.0)
    })
}
