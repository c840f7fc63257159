//! The `ttcp` and `protolat` workloads.

use std::cell::RefCell;
use std::rc::Rc;

use psd_core::{AppHandle, AppLib, Fd};
use psd_netdev::EthernetHandle;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{Layer, Observable, ProfileHandle, SimTime};
use psd_systems::TestBed;

/// Which socket interface the workload uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApiStyle {
    /// The conventional BSD interface (data is copied at the socket
    /// boundary).
    Classic,
    /// The §4.2 modified interface: application and protocol share
    /// buffers (library configurations only).
    Newapi,
}

/// Result of a `ttcp` run.
#[derive(Clone, Copy, Debug)]
pub struct TtcpResult {
    /// Bytes transferred.
    pub bytes: u64,
    /// Virtual time from connection establishment to the last byte
    /// arriving at the receiver.
    pub elapsed: SimTime,
    /// Throughput in KB/second (KB = 1024 bytes, as the paper reports).
    pub kb_per_sec: f64,
    /// Segments retransmitted during the run (should be zero on a
    /// clean wire).
    pub retransmits: u64,
}

const TTCP_PORT: u16 = 5001;
const WRITE_SIZE: usize = 8 * 1024;
const RECV_CHUNK: usize = 16 * 1024;

struct TxState {
    fd: Fd,
    total: usize,
    sent: usize,
    started: Option<SimTime>,
    api: ApiStyle,
}

struct RxState {
    expected: usize,
    received: usize,
    finished: Option<SimTime>,
    api: ApiStyle,
}

fn pump_sender(app: &AppHandle, sim: &mut psd_sim::Sim, tx: &Rc<RefCell<TxState>>) {
    loop {
        let (fd, remaining, api) = {
            let t = tx.borrow();
            (t.fd, t.total.saturating_sub(t.sent), t.api)
        };
        if remaining == 0 {
            // All queued; close pushes the FIN behind the data.
            AppLib::close(app, sim, fd);
            return;
        }
        let chunk = remaining.min(WRITE_SIZE);
        let res = match api {
            ApiStyle::Classic => {
                let data = vec![0xA5u8; chunk];
                AppLib::send(app, sim, fd, &data)
            }
            ApiStyle::Newapi => {
                let data = Rc::new(vec![0xA5u8; chunk]);
                AppLib::send_shared(app, sim, fd, data)
            }
        };
        match res {
            Ok(n) => {
                tx.borrow_mut().sent += n;
                if n == 0 {
                    return;
                }
            }
            Err(SocketError::WouldBlock) => return,
            Err(e) => panic!("ttcp sender error: {e}"),
        }
    }
}

fn drain_receiver(app: &AppHandle, sim: &mut psd_sim::Sim, rx: &Rc<RefCell<RxState>>, fd: Fd) {
    loop {
        let api = rx.borrow().api;
        let n = match api {
            ApiStyle::Classic => {
                let mut buf = vec![0u8; RECV_CHUNK];
                match AppLib::recv(app, sim, fd, &mut buf) {
                    Ok(n) => n,
                    Err(SocketError::WouldBlock) => return,
                    Err(e) => panic!("ttcp receiver error: {e}"),
                }
            }
            ApiStyle::Newapi => match AppLib::recv_shared(app, sim, fd, RECV_CHUNK) {
                Ok(chain) => chain.len(),
                Err(SocketError::WouldBlock) => return,
                Err(e) => panic!("ttcp receiver error: {e}"),
            },
        };
        let mut r = rx.borrow_mut();
        r.received += n;
        if r.received >= r.expected && r.finished.is_none() {
            r.finished = Some(sim.now());
        }
        if n == 0 {
            // EOF.
            if r.finished.is_none() {
                r.finished = Some(sim.now());
            }
            return;
        }
    }
}

/// Runs the 16 MB (configurable) memory-to-memory TCP transfer on a
/// testbed. Returns throughput as the paper reports it.
pub fn ttcp(bed: &mut TestBed, total_bytes: usize, api: ApiStyle) -> TtcpResult {
    let sender_app = bed.hosts[0].spawn_app();
    let recv_app = bed.hosts[1].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, TTCP_PORT);

    // Receiver: listen, accept, drain.
    let listener = AppLib::socket(&recv_app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&recv_app, &mut bed.sim, listener, TTCP_PORT).expect("bind");
    AppLib::listen(&recv_app, &mut bed.sim, listener, 5).expect("listen");
    let rx = Rc::new(RefCell::new(RxState {
        expected: total_bytes,
        received: 0,
        finished: None,
        api,
    }));
    {
        let app = recv_app.clone();
        let rx = rx.clone();
        let conn_handler_app = recv_app.clone();
        let rx2 = rx.clone();
        let conn_handler: psd_core::FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                if matches!(ev, SockEvent::Readable | SockEvent::PeerClosed) {
                    drain_receiver(&conn_handler_app, sim, &rx2, fd);
                }
            },
        ));
        let listen_handler: psd_core::FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                if ev == SockEvent::Readable {
                    while let Ok(conn) = AppLib::accept(&app, sim, fd) {
                        app.borrow_mut()
                            .set_event_handler(conn, conn_handler.clone());
                        drain_receiver(&app, sim, &rx, conn);
                    }
                }
            },
        ));
        recv_app
            .borrow_mut()
            .set_event_handler(listener, listen_handler);
    }

    // Sender: connect, then stream.
    let cfd = AppLib::socket(&sender_app, &mut bed.sim, Proto::Tcp);
    let tx = Rc::new(RefCell::new(TxState {
        fd: cfd,
        total: total_bytes,
        sent: 0,
        started: None,
        api,
    }));
    {
        let app = sender_app.clone();
        let tx = tx.clone();
        let handler: psd_core::FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, _fd: Fd, ev: SockEvent| match ev {
                SockEvent::Connected => {
                    tx.borrow_mut().started = Some(sim.now());
                    pump_sender(&app, sim, &tx);
                }
                SockEvent::Writable if tx.borrow().started.is_some() => {
                    pump_sender(&app, sim, &tx);
                }
                SockEvent::Error(e) => panic!("ttcp connect failed: {e}"),
                _ => {}
            },
        ));
        sender_app.borrow_mut().set_event_handler(cfd, handler);
    }
    AppLib::connect(&sender_app, &mut bed.sim, cfd, dst).expect("connect");

    // Drive the simulation until the receiver has everything.
    let cap = SimTime::from_secs(600);
    let t0 = bed.sim.now();
    while rx.borrow().finished.is_none() {
        let step = bed.sim.now() + SimTime::from_millis(500);
        bed.sim.run_until(step);
        assert!(
            bed.sim.now() - t0 < cap,
            "ttcp stalled: {} of {} bytes",
            rx.borrow().received,
            total_bytes
        );
    }

    let started = tx.borrow().started.expect("connection established");
    let finished = rx.borrow().finished.expect("loop exited");
    let elapsed = finished - started;
    let secs = elapsed.as_secs_f64().max(1e-9);
    let retransmits = bed.hosts[0]
        .server
        .as_ref()
        .map(|s| s.borrow().stack().borrow().stats.tcp_rexmt)
        .unwrap_or(0)
        + bed.hosts[0]
            .kern_stack
            .as_ref()
            .map(|s| s.borrow().stats.tcp_rexmt)
            .unwrap_or(0)
        + sender_app
            .borrow()
            .stack()
            .map(|s| s.borrow().stats.tcp_rexmt)
            .unwrap_or(0);
    TtcpResult {
        bytes: total_bytes as u64,
        elapsed,
        kb_per_sec: total_bytes as f64 / 1024.0 / secs,
        retransmits,
    }
}

/// Result of a `protolat` run.
#[derive(Clone, Debug)]
pub struct ProtolatResult {
    /// Round trips measured.
    pub rounds: u32,
    /// Mean round-trip latency.
    pub rtt: SimTime,
    /// Charged nanoseconds per layer over the measured rounds, in
    /// [`Layer::ALL`] order.
    layers: [u64; Layer::ALL.len()],
}

impl ProtolatResult {
    /// Time charged to `layer` over the measured rounds, both hosts and
    /// both directions (divide by `2 × rounds` for per-message
    /// figures): Table 4's rows. CPU layers are the hosts' profilers'
    /// per-layer sums; [`Layer::NetworkTransit`] is the wire's
    /// [`EtherStats::wire_ns`](psd_netdev::EtherStats::wire_ns).
    pub fn layer(&self, layer: Layer) -> SimTime {
        let slot = Layer::ALL.iter().position(|l| *l == layer);
        SimTime::from_nanos(self.layers[slot.expect("ALL lists every layer")])
    }
}

/// The accumulators `protolat` differences over its measured window:
/// one charged-time profiler per host and the wire's always-on transit
/// counter.
struct Meter {
    profilers: Vec<ProfileHandle>,
    ether: EthernetHandle,
}

/// One reading of a [`Meter`]: nanoseconds per layer.
type Reading = [u64; Layer::ALL.len()];

impl Meter {
    /// Meters `bed`, reusing a host's attached profiler or attaching
    /// one (profiling is charged-time-neutral, so either way the run is
    /// byte-identical to an unmetered one).
    fn attach(bed: &TestBed) -> Meter {
        let profilers = bed
            .hosts
            .iter()
            .map(|h| {
                let mut cpu = h.cpu.borrow_mut();
                let mut obs = cpu.observers().clone();
                let prof = obs
                    .profile
                    .get_or_insert_with(psd_sim::Profiler::shared)
                    .clone();
                cpu.set_observers(obs);
                prof
            })
            .collect();
        Meter {
            profilers,
            ether: bed.ether.clone(),
        }
    }

    fn read(&self) -> Reading {
        Layer::ALL.map(|layer| match layer {
            Layer::NetworkTransit => self.ether.borrow().stats().wire_ns,
            _ => self
                .profilers
                .iter()
                .map(|p| p.borrow().layer_ns(layer))
                .sum(),
        })
    }
}

const LAT_PORT: u16 = 6001;

struct PingState {
    fd: Fd,
    msg: Vec<u8>,
    pending: usize,
    rounds_left: u32,
    collected: u32,
    warmup: u32,
    start: Option<SimTime>,
    end: Option<SimTime>,
    api: ApiStyle,
    proto: Proto,
    meter: Meter,
    /// The meter's reading at `start`.
    baseline: Option<Reading>,
}

fn ping_send(app: &AppHandle, sim: &mut psd_sim::Sim, st: &Rc<RefCell<PingState>>) {
    let (fd, msg, api, proto) = {
        let s = st.borrow();
        (s.fd, s.msg.clone(), s.api, s.proto)
    };
    st.borrow_mut().pending = msg.len();
    let res = match (api, proto) {
        (ApiStyle::Classic, Proto::Tcp) => AppLib::send(app, sim, fd, &msg),
        (ApiStyle::Classic, Proto::Udp) => AppLib::sendto(app, sim, fd, &msg, None),
        (ApiStyle::Newapi, _) => AppLib::send_shared(app, sim, fd, Rc::new(msg)),
    };
    res.expect("protolat send");
}

fn ping_recv(app: &AppHandle, sim: &mut psd_sim::Sim, st: &Rc<RefCell<PingState>>) {
    loop {
        let (fd, api, proto, pending) = {
            let s = st.borrow();
            (s.fd, s.api, s.proto, s.pending)
        };
        if pending == 0 {
            return;
        }
        let got = match (api, proto) {
            (ApiStyle::Classic, Proto::Tcp) => {
                let mut buf = vec![0u8; pending];
                match AppLib::recv(app, sim, fd, &mut buf) {
                    Ok(n) => n,
                    Err(SocketError::WouldBlock) => return,
                    Err(e) => panic!("protolat recv: {e}"),
                }
            }
            (ApiStyle::Classic, Proto::Udp) => {
                let mut buf = vec![0u8; pending.max(1)];
                match AppLib::recvfrom(app, sim, fd, &mut buf) {
                    Ok((n, _)) => n,
                    Err(SocketError::WouldBlock) => return,
                    Err(e) => panic!("protolat recv: {e}"),
                }
            }
            (ApiStyle::Newapi, _) => match AppLib::recv_shared(app, sim, fd, pending) {
                Ok(chain) => chain.len(),
                Err(SocketError::WouldBlock) => return,
                Err(e) => panic!("protolat recv: {e}"),
            },
        };
        if got == 0 {
            return;
        }
        let mut s = st.borrow_mut();
        s.pending = s.pending.saturating_sub(got);
        if s.pending > 0 {
            continue;
        }
        // Round complete. Charge the benchmark's own bookkeeping (timer
        // reads, loop control — protolat reads a high-resolution timer
        // per round; the paper's round-trip figures exceed its Table 4
        // sums by a comparable margin on every system).
        drop(s);
        {
            let a = app.borrow();
            let mut ch = a.begin(sim);
            ch.add_ns(psd_sim::Layer::Other, 35_000);
            a.finish(ch);
        }
        let mut s = st.borrow_mut();
        // Measurement begins exactly when the warmup
        // rounds are done (event time, not driver-poll time).
        s.collected += 1;
        if s.collected == s.warmup {
            s.start = Some(sim.now());
            s.baseline = Some(s.meter.read());
        }
        if s.rounds_left > 0 {
            s.rounds_left -= 1;
            drop(s);
            ping_send(app, sim, st);
        } else {
            s.end = Some(sim.now());
            return;
        }
    }
}

struct EchoState {
    conn: Option<Fd>,
    msg_size: usize,
    buffered: usize,
    api: ApiStyle,
    proto: Proto,
}

fn echo_drive(app: &AppHandle, sim: &mut psd_sim::Sim, st: &Rc<RefCell<EchoState>>, fd: Fd) {
    loop {
        let (api, proto, msg_size) = {
            let s = st.borrow();
            (s.api, s.proto, s.msg_size)
        };
        match proto {
            Proto::Udp => {
                // Echo each datagram back to its sender.
                let mut buf = vec![0u8; 2048];
                match AppLib::recvfrom(app, sim, fd, &mut buf) {
                    Ok((n, from)) => {
                        buf.truncate(n);
                        AppLib::sendto(app, sim, fd, &buf, Some(from)).expect("echo send");
                    }
                    Err(SocketError::WouldBlock) => return,
                    Err(e) => panic!("echo recv: {e}"),
                }
            }
            Proto::Tcp => {
                let got = match api {
                    ApiStyle::Classic => {
                        let mut buf = vec![0u8; msg_size];
                        match AppLib::recv(app, sim, fd, &mut buf) {
                            Ok(n) => n,
                            Err(SocketError::WouldBlock) => return,
                            Err(e) => panic!("echo recv: {e}"),
                        }
                    }
                    ApiStyle::Newapi => match AppLib::recv_shared(app, sim, fd, msg_size) {
                        Ok(chain) => chain.len(),
                        Err(SocketError::WouldBlock) => return,
                        Err(e) => panic!("echo recv: {e}"),
                    },
                };
                if got == 0 {
                    return;
                }
                let mut s = st.borrow_mut();
                s.buffered += got;
                if s.buffered >= msg_size {
                    s.buffered -= msg_size;
                    drop(s);
                    let reply = vec![0x5Au8; msg_size];
                    match api {
                        ApiStyle::Classic => {
                            AppLib::send(app, sim, fd, &reply).expect("echo send");
                        }
                        ApiStyle::Newapi => {
                            AppLib::send_shared(app, sim, fd, Rc::new(reply)).expect("echo send");
                        }
                    }
                }
            }
        }
    }
}

/// Runs the request/response latency benchmark: `rounds` measured round
/// trips of `msg_size`-byte messages after `warmup` unmeasured ones.
pub fn protolat(
    bed: &mut TestBed,
    proto: Proto,
    msg_size: usize,
    warmup: u32,
    rounds: u32,
    api: ApiStyle,
) -> ProtolatResult {
    let client_app = bed.hosts[0].spawn_app();
    let server_app = bed.hosts[1].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, LAT_PORT);

    // Echo server.
    let echo = Rc::new(RefCell::new(EchoState {
        conn: None,
        msg_size,
        buffered: 0,
        api,
        proto,
    }));
    match proto {
        Proto::Udp => {
            let sfd = AppLib::socket(&server_app, &mut bed.sim, Proto::Udp);
            AppLib::bind(&server_app, &mut bed.sim, sfd, LAT_PORT).expect("bind");
            let app = server_app.clone();
            let st = echo.clone();
            let handler: psd_core::FdEventFn = Rc::new(RefCell::new(
                move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                    if ev == SockEvent::Readable {
                        echo_drive(&app, sim, &st, fd);
                    }
                },
            ));
            server_app.borrow_mut().set_event_handler(sfd, handler);
        }
        Proto::Tcp => {
            let lfd = AppLib::socket(&server_app, &mut bed.sim, Proto::Tcp);
            AppLib::bind(&server_app, &mut bed.sim, lfd, LAT_PORT).expect("bind");
            AppLib::listen(&server_app, &mut bed.sim, lfd, 2).expect("listen");
            let app = server_app.clone();
            let st = echo.clone();
            let conn_app = server_app.clone();
            let conn_st = echo.clone();
            let conn_handler: psd_core::FdEventFn = Rc::new(RefCell::new(
                move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                    if matches!(ev, SockEvent::Readable) {
                        echo_drive(&conn_app, sim, &conn_st, fd);
                    }
                },
            ));
            let listen_handler: psd_core::FdEventFn = Rc::new(RefCell::new(
                move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                    if ev == SockEvent::Readable {
                        if let Ok(conn) = AppLib::accept(&app, sim, fd) {
                            st.borrow_mut().conn = Some(conn);
                            app.borrow_mut()
                                .set_event_handler(conn, conn_handler.clone());
                        }
                    }
                },
            ));
            server_app
                .borrow_mut()
                .set_event_handler(lfd, listen_handler);
        }
    }

    // Client.
    let cfd = AppLib::socket(&client_app, &mut bed.sim, proto);
    let ping = Rc::new(RefCell::new(PingState {
        fd: cfd,
        msg: vec![0xC3u8; msg_size],
        pending: 0,
        rounds_left: warmup + rounds,
        collected: 0,
        warmup,
        start: None,
        end: None,
        api,
        proto,
        // Read when warmup completes and again when the run ends: the
        // difference covers the measured rounds only.
        meter: Meter::attach(bed),
        baseline: None,
    }));
    {
        let app = client_app.clone();
        let st = ping.clone();
        let handler: psd_core::FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, _fd: Fd, ev: SockEvent| match ev {
                SockEvent::Connected => {
                    {
                        let mut s = st.borrow_mut();
                        s.rounds_left -= 1;
                        if s.warmup == 0 {
                            // No warmup: measurement starts with the
                            // first message.
                            s.start = Some(sim.now());
                            s.baseline = Some(s.meter.read());
                        }
                    }
                    ping_send(&app, sim, &st);
                }
                SockEvent::Readable => ping_recv(&app, sim, &st),
                SockEvent::Error(e) => panic!("protolat client error: {e}"),
                _ => {}
            },
        ));
        client_app.borrow_mut().set_event_handler(cfd, handler);
    }
    AppLib::connect(&client_app, &mut bed.sim, cfd, dst).expect("connect");

    // Drive to completion.
    let cap = SimTime::from_secs(600);
    let t0 = bed.sim.now();
    while ping.borrow().end.is_none() {
        let step = bed.sim.now() + SimTime::from_millis(20);
        bed.sim.run_until(step);
        assert!(
            bed.sim.now() - t0 < cap,
            "protolat stalled at {} rounds",
            ping.borrow().collected
        );
    }
    // The window closes here, at the 20 ms step after the last round.
    let p = ping.borrow();
    let (start, end) = (
        p.start.expect("warmup completed"),
        p.end.expect("loop exited"),
    );
    let (from, to) = (p.baseline.expect("set with start"), p.meter.read());
    ProtolatResult {
        rounds,
        rtt: (end - start) / u64::from(rounds),
        layers: std::array::from_fn(|i| to[i] - from[i]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_sim::Platform;
    use psd_systems::SystemConfig;

    /// Table 4 conserves: the profilers `protolat` reads its 14 CPU
    /// layers from still sum bit-exactly to each host's busy time
    /// (`Cpu::total_busy`), and transit is exactly the wire time of the
    /// frames the rounds put on the wire, for one library, one in-kernel
    /// and one server column.
    #[test]
    fn table4_layers_conserve_cpu_and_wire_time() {
        const ROUNDS: u32 = 40;
        for config in [
            SystemConfig::LibraryShmIpf,
            SystemConfig::Mach25InKernel,
            SystemConfig::UxServer,
        ] {
            // Warm-up 0 opens the window in the connect handler, the
            // other of the two places it can open.
            for (proto, warmup) in [(Proto::Udp, 10), (Proto::Tcp, 0)] {
                let mut bed = TestBed::new(config, Platform::DecStation5000_200, 7);
                // Profilers from each CPU's first charge: `protolat`
                // reuses them and must leave their whole-run
                // conservation intact.
                let profilers = bed.attach_profilers();
                let wire_before = bed.ether.borrow().stats().wire_ns;
                let r = protolat(&mut bed, proto, 1, warmup, ROUNDS, ApiStyle::Classic);

                let cpu_layers: SimTime = Layer::ALL
                    .iter()
                    .filter(|l| **l != Layer::NetworkTransit)
                    .map(|l| r.layer(*l))
                    .sum();
                assert!(cpu_layers > SimTime::ZERO, "{config:?} {proto:?}");
                for (host, prof) in bed.hosts.iter().zip(&profilers) {
                    assert_eq!(
                        prof.borrow().attributed_ns(),
                        host.cpu.borrow().total_busy().as_nanos(),
                        "{config:?} {proto:?}: reused profiler no longer conserves"
                    );
                }

                let transit = r.layer(Layer::NetworkTransit);
                let wire_total = bed.ether.borrow().stats().wire_ns - wire_before;
                assert!(transit.as_nanos() < wire_total, "set-up is excluded");
                if proto == Proto::Udp {
                    // One minimum-size frame each way per round and
                    // nothing else on the wire.
                    let per_frame = bed.ether.borrow().timing().frame_time(43);
                    assert_eq!(transit, per_frame * u64::from(2 * ROUNDS), "{config:?}");
                }
            }
        }
    }
}
