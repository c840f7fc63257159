//! Layer probes: each loops for a fixed host-time budget around one
//! layer's public entry point, with everything above and below it
//! replaced by a counter. Their inputs are the traced repetition's
//! captured frames, session list and pending-timer population, so a
//! probe exercises its layer the way the workload does.
//!
//! A probe's ns x count per packet / `wall_ns_per_pkt` is the ceiling on
//! any claim against that layer on that workload: with one thread and
//! no contention a faster layer saves at most its own share.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use psd_filter::{DemuxTable, EndpointSpec};
use psd_kernel::{Kernel, KernelHandle, PacketSink, RxMode};
use psd_mbuf::{MbufChain, SockBuf};
use psd_netdev::{EtherTiming, Ethernet, EthernetHandle, Station};
use psd_netstack::stack::{EventSink, StackHandle};
use psd_netstack::{
    InetAddr, NetIf, NetStack, Placement, RouteTable, SockEvent, SockId, SocketError,
};
use psd_sim::{Charge, Cpu, Rng, Sim, SimTime};
use psd_wire::{
    internet_checksum, EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, TcpHeader,
    UdpHeader, ETHER_HDR_LEN,
};

use crate::drivers::{Observed, BULK_MSG, FANIN_PAYLOAD, PLATFORM};
use crate::spec::Workload;

/// What the probes measured, host ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeOut {
    pub sim_ns_per_event: f64,
    pub netdev_tx_ns: f64,
    pub wire_parse_ns: f64,
    pub wire_cksum_ns_per_kb: f64,
    pub filter_classify_ns: f64,
    pub filter_install_ns: f64,
    pub kernel_rx_ns: f64,
    pub kernel_tx_ns: f64,
    pub mbuf_chain_ns_per_kb: f64,
    pub pair_ns_per_seg: f64,
}

/// Runs every probe for `budget` of host time each.
pub fn run_all(
    workload: Workload,
    seed: u64,
    obs: &Observed,
    median_pending: u64,
    budget: Duration,
) -> ProbeOut {
    let (install, classify) = filter(obs, budget);
    let (rx, tx) = kernel(obs, budget);
    ProbeOut {
        sim_ns_per_event: sim(seed, median_pending, budget),
        netdev_tx_ns: netdev(&obs.frames, budget),
        wire_parse_ns: wire_parse(&obs.frames, budget),
        wire_cksum_ns_per_kb: wire_cksum(&obs.frames, budget),
        filter_classify_ns: classify,
        filter_install_ns: install,
        kernel_rx_ns: rx,
        kernel_tx_ns: tx,
        mbuf_chain_ns_per_kb: mbuf(segment_size(workload), budget),
        pair_ns_per_seg: pair(workload, seed, budget),
    }
}

/// Application payload of the workload's typical frame.
fn segment_size(workload: Workload) -> usize {
    match workload {
        Workload::BulkLib | Workload::LossySrv => 1460,
        // Mean of Table 2's five sizes.
        Workload::EchoLib => 620,
        Workload::FaninCspf | Workload::FaninMpf => FANIN_PAYLOAD,
    }
}

/// Hands owned copies of the captured frames to `run`, a batch at a
/// time, until `budget` of *timed* host time is spent; the copies are
/// made outside the timed sections. Returns ns per frame.
fn per_frame_ns(frames: &[Vec<u8>], budget: Duration, mut run: impl FnMut(Vec<Vec<u8>>)) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let (mut spent, mut n) = (Duration::ZERO, 0u64);
    loop {
        for chunk in frames.chunks(512) {
            let owned = chunk.to_vec();
            let t = Instant::now();
            run(owned);
            spent += t.elapsed();
            n += chunk.len() as u64;
            if spent >= budget {
                return spent.as_nanos() as f64 / n as f64;
            }
        }
    }
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

/// `Sim::after`/`cancel`/`run_until` with `population` timers pending,
/// as the workload's queue holds at the median slice boundary: batches
/// of near-future events, and one timer armed then cancelled per event
/// the way TCP re-arms its retransmit timer.
fn sim(seed: u64, population: u64, budget: Duration) -> f64 {
    let mut sim = Sim::new(seed);
    let mut rng = Rng::new(seed ^ 0x51A1_0000_0000_0001);
    let fired = Rc::new(Cell::new(0u64));
    for i in 0..population {
        let fired = fired.clone();
        sim.after(SimTime::from_secs(86_400 + i), move |_| {
            fired.set(fired.get() + 1)
        });
    }
    let t = Instant::now();
    let executed0 = sim.executed();
    while t.elapsed() < budget {
        for _ in 0..256 {
            let fired = fired.clone();
            sim.after(SimTime::from_nanos(rng.range(1_000, 200_000)), move |_| {
                fired.set(fired.get() + 1)
            });
            let timer = sim.after(SimTime::from_millis(rng.range(200, 1_000)), |_| {});
            sim.cancel(timer);
        }
        let deadline = sim.now() + SimTime::from_micros(200);
        sim.run_until(deadline);
    }
    let events = (sim.executed() - executed0).max(1);
    black_box(fired.get());
    t.elapsed().as_nanos() as f64 / events as f64
}

// ---------------------------------------------------------------------
// netdev
// ---------------------------------------------------------------------

/// A station that counts what it is handed. `mac: None` listens
/// promiscuously under an address no captured frame carries.
struct CountingStation {
    mac: Option<EtherAddr>,
    frames: u64,
}

impl Station for CountingStation {
    fn mac(&self) -> EtherAddr {
        self.mac.unwrap_or(EtherAddr::local(0xC0))
    }

    fn promiscuous(&self) -> bool {
        self.mac.is_none()
    }

    fn frame_arrived(&mut self, _sim: &mut Sim, frame: Vec<u8>) {
        self.frames += 1;
        black_box(frame);
    }
}

fn counting_segment(macs: &[Option<EtherAddr>]) -> EthernetHandle {
    let ether = Ethernet::new(EtherTiming::ten_megabit());
    for &mac in macs {
        ether
            .borrow_mut()
            .attach(Rc::new(RefCell::new(CountingStation { mac, frames: 0 })));
    }
    ether
}

/// `Ethernet::transmit` of the captured frames to counting stations
/// under the two hosts' addresses, run to idle.
fn netdev(frames: &[Vec<u8>], budget: Duration) -> f64 {
    let mut sim = Sim::new(0);
    let ether = counting_segment(&[Some(EtherAddr::local(1)), Some(EtherAddr::local(2))]);
    per_frame_ns(frames, budget, |batch| {
        for frame in batch {
            let now = sim.now();
            Ethernet::transmit(&ether, &mut sim, now, frame);
        }
        sim.run_to_idle();
    })
}

// ---------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------

fn ip_payload(frame: &[u8]) -> Option<(Ipv4Header, &[u8])> {
    let eth = EthernetHeader::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]).ok()?;
    let end = (ETHER_HDR_LEN + usize::from(ip.total_len)).min(frame.len());
    let payload = frame.get(ETHER_HDR_LEN + ip.header_len..end)?;
    Some((ip, payload))
}

/// Ethernet, IPv4 and transport header parse of each captured frame.
fn wire_parse(frames: &[Vec<u8>], budget: Duration) -> f64 {
    per_frame_ns(frames, budget, |batch| {
        for frame in &batch {
            if let Some((ip, payload)) = ip_payload(black_box(frame)) {
                match ip.proto {
                    IpProto::Tcp => {
                        black_box(TcpHeader::parse(payload).ok());
                    }
                    IpProto::Udp => {
                        black_box(UdpHeader::parse(payload).ok());
                    }
                    _ => {}
                }
            }
        }
    })
}

/// `internet_checksum` over each captured frame's IP payload, per KiB.
fn wire_cksum(frames: &[Vec<u8>], budget: Duration) -> f64 {
    let bytes: usize = frames
        .iter()
        .filter_map(|f| ip_payload(f).map(|(_, p)| p.len()))
        .sum();
    if bytes == 0 {
        return 0.0;
    }
    let per_frame = per_frame_ns(frames, budget, |batch| {
        for frame in &batch {
            if let Some((_, payload)) = ip_payload(frame) {
                black_box(internet_checksum(black_box(payload)));
            }
        }
    });
    per_frame * frames.len() as f64 / (bytes as f64 / 1024.0)
}

// ---------------------------------------------------------------------
// filter
// ---------------------------------------------------------------------

fn demux_tables(obs: &Observed) -> [DemuxTable<u32>; 2] {
    let build = |specs: &[EndpointSpec]| {
        let mut t = DemuxTable::new(obs.strategy);
        for (i, spec) in specs.iter().enumerate() {
            t.install(*spec, i as u32);
        }
        t
    };
    [build(&obs.sessions[0]), build(&obs.sessions[1])]
}

/// `(install ns per session, classify ns per frame)`: each host's
/// `DemuxTable` holding that host's sessions under the workload's
/// strategy and the default engine; every captured frame is classified
/// by the table of the host it is addressed to.
fn filter(obs: &Observed, budget: Duration) -> (f64, f64) {
    let sessions = (obs.sessions[0].len() + obs.sessions[1].len()) as u64;
    let (t, mut builds) = (Instant::now(), 0u64);
    let mut tables = demux_tables(obs);
    builds += 1;
    while t.elapsed() < budget {
        tables = black_box(demux_tables(obs));
        builds += 1;
    }
    let install = t.elapsed().as_nanos() as f64 / (builds * sessions.max(1)) as f64;
    let host1 = EtherAddr::local(2);
    let classify = per_frame_ns(&obs.frames, budget, |batch| {
        for frame in &batch {
            let to_host1 = frame.len() >= 6 && frame[..6] == host1.0;
            black_box(
                tables[usize::from(to_host1)]
                    .classify(black_box(frame))
                    .steps,
            );
        }
    });
    (install, classify)
}

// ---------------------------------------------------------------------
// kernel
// ---------------------------------------------------------------------

/// A lone kernel holding both hosts' sessions — one endpoint and one
/// filter each, on the workload's receive path, plus the server's IPC
/// default endpoint — with counting sinks, attached to a segment whose
/// only other station counts. Its own address matches no captured
/// frame, so nothing it transmits comes back to it.
fn lone_kernel(obs: &Observed) -> (KernelHandle, Rc<RefCell<Cpu>>, Rc<Cell<u64>>) {
    let cpu = Rc::new(RefCell::new(Cpu::new()));
    let kernel = Kernel::new(PLATFORM.cost_model(), cpu.clone(), EtherAddr::local(0xC1));
    kernel.borrow_mut().set_demux_strategy(obs.strategy);
    let delivered = Rc::new(Cell::new(0u64));
    let sink = || -> PacketSink {
        let delivered = delivered.clone();
        Rc::new(RefCell::new(
            move |_: &mut Sim, _: SimTime, frame: Vec<u8>| {
                delivered.set(delivered.get() + 1);
                black_box(frame);
            },
        ))
    };
    {
        let mut k = kernel.borrow_mut();
        let default = k.create_endpoint(RxMode::Ipc, sink());
        k.set_default_endpoint(default);
        let mode = obs.rx_mode.unwrap_or(RxMode::Ipc);
        for spec in obs.sessions.iter().flatten() {
            let ep = k.create_endpoint(mode, sink());
            k.install_filter(*spec, ep)
                .expect("a fresh endpoint and an uncapped table accept a filter");
        }
    }
    Kernel::connect(&kernel, &counting_segment(&[None]));
    (kernel, cpu, delivered)
}

/// `(rx, tx)` ns per frame: `Station::frame_arrived` and
/// `Kernel::send_from_user` of every captured frame on the lone
/// kernel, each run to idle. Receive includes classification and the
/// delivery event; transmit includes the hand-off to the medium.
fn kernel(obs: &Observed, budget: Duration) -> (f64, f64) {
    let (kernel, cpu, delivered) = lone_kernel(obs);
    let mut sim = Sim::new(0);
    let rx = per_frame_ns(&obs.frames, budget, |batch| {
        for frame in batch {
            kernel.borrow_mut().frame_arrived(&mut sim, frame);
        }
        sim.run_to_idle();
    });
    black_box(delivered.get());
    let tx = per_frame_ns(&obs.frames, budget, |batch| {
        for frame in batch {
            let mut charge = cpu.borrow_mut().begin(sim.now());
            Kernel::send_from_user(&kernel, &mut sim, &mut charge, frame);
            cpu.borrow_mut().finish(charge);
        }
        sim.run_to_idle();
    });
    (rx, tx)
}

// ---------------------------------------------------------------------
// mbuf
// ---------------------------------------------------------------------

/// `MbufChain::from_slice` → `SockBuf::append` → copy out → drop, at
/// the workload's segment size, per KiB.
fn mbuf(segment: usize, budget: Duration) -> f64 {
    let data = vec![0xA5u8; segment];
    let mut out = vec![0u8; segment];
    let mut sb = SockBuf::new(64 * 1024);
    let (t, mut segments) = (Instant::now(), 0u64);
    while t.elapsed() < budget {
        for _ in 0..256 {
            sb.append(MbufChain::from_slice(black_box(&data)));
            sb.peek(&mut out);
            sb.drop_front(segment);
            black_box(&mut out);
        }
        segments += 256;
    }
    t.elapsed().as_nanos() as f64 / (segments as f64 * segment as f64 / 1024.0)
}

// ---------------------------------------------------------------------
// netstack
// ---------------------------------------------------------------------

const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// One-way delay of the loopback wire: a full frame at 10 Mb/s.
const LOOP_DELAY: SimTime = SimTime::from_micros(1_200);

/// A benchmark-side wire between two stacks: a frame transmitted on one
/// is input to the other after a fixed delay. With `faults` it loses
/// 1 %, duplicates 0.5 % and delays 0.5 % of frames, as the lossy
/// workload's wire does.
struct LoopIf {
    mac: EtherAddr,
    peer: RefCell<Option<StackHandle>>,
    faults: Option<RefCell<Rng>>,
    frames: Rc<Cell<u64>>,
}

impl LoopIf {
    fn deliver(&self, sim: &mut Sim, at: SimTime, frame: Vec<u8>) {
        let Some(peer) = self.peer.borrow().clone() else {
            return;
        };
        sim.at(at, move |sim| {
            let cpu = peer.borrow().cpu();
            let mut charge = cpu.borrow_mut().begin(sim.now());
            peer.borrow_mut().input_frame(sim, &mut charge, &frame);
            cpu.borrow_mut().finish(charge);
        });
    }
}

impl NetIf for LoopIf {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        self.frames.set(self.frames.get() + 1);
        let at = charge.at() + LOOP_DELAY;
        if let Some(rng) = &self.faults {
            let mut rng = rng.borrow_mut();
            if rng.chance(0.01) {
                return;
            }
            if rng.chance(0.005) {
                self.deliver(sim, at + LOOP_DELAY, frame.clone());
            }
            if rng.chance(0.005) {
                return self.deliver(sim, at + LOOP_DELAY + LOOP_DELAY, frame);
            }
        }
        self.deliver(sim, at, frame);
    }
}

struct Pair {
    sim: Sim,
    a: StackHandle,
    b: StackHandle,
    frames: Rc<Cell<u64>>,
}

impl Pair {
    fn new(placement: Placement, seed: u64, faults: bool) -> Pair {
        let frames = Rc::new(Cell::new(0));
        let costs = PLATFORM.cost_model();
        let stack = |ip| {
            let s = NetStack::new(
                placement,
                costs.clone(),
                Rc::new(RefCell::new(Cpu::new())),
                ip,
            );
            s.borrow_mut().routes = RouteTable::directly_attached(
                Ipv4Addr::new(10, 0, 0, 0),
                Ipv4Addr::new(255, 255, 255, 0),
            );
            s.borrow_mut().set_tcp_buffers(16 * 1024, 120 * 1024);
            s
        };
        let (a, b) = (stack(HOST_A), stack(HOST_B));
        for (me, peer, id) in [(&a, &b, 1u32), (&b, &a, 2)] {
            let peer_mac = EtherAddr::local(3 - id);
            me.borrow_mut().set_ifnet(Rc::new(LoopIf {
                mac: EtherAddr::local(id),
                peer: RefCell::new(Some(peer.clone())),
                faults: faults.then(|| RefCell::new(Rng::new(seed ^ u64::from(id)))),
                frames: frames.clone(),
            }));
            // Library stacks ask a resolver; the others answer ARP
            // themselves over the loopback.
            me.borrow_mut()
                .set_arp_resolver(Box::new(move |_, _, _| Some(peer_mac)));
        }
        Pair {
            sim: Sim::new(seed),
            a,
            b,
            frames,
        }
    }

    fn run_for(&mut self, d: SimTime) {
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline);
    }
}

/// Runs `f` on a stack inside a CPU charge, as a socket call would.
fn with_charge<R>(
    stack: &StackHandle,
    sim: &mut Sim,
    f: impl FnOnce(&mut NetStack, &mut Sim, &mut Charge) -> R,
) -> R {
    let cpu = stack.borrow().cpu();
    let mut charge = cpu.borrow_mut().begin(sim.now());
    let r = f(&mut stack.borrow_mut(), sim, &mut charge);
    cpu.borrow_mut().finish(charge);
    r
}

fn sink(f: impl FnMut(&mut Sim, SockId, SockEvent) + 'static) -> EventSink {
    Rc::new(RefCell::new(f))
}

/// Opens one TCP connection A → B on `port`; returns both ends once
/// established.
fn tcp_connect(p: &mut Pair, port: u16, local_port: u16) -> Option<(SockId, SockId)> {
    let listener = p.b.borrow_mut().socket_tcp();
    p.b.borrow_mut()
        .bind(listener, InetAddr::new(HOST_B, port))
        .ok()?;
    p.b.borrow_mut().listen(listener, 64).ok()?;
    let client = p.a.borrow_mut().socket_tcp();
    p.a.borrow_mut()
        .bind(client, InetAddr::new(HOST_A, local_port))
        .ok()?;
    let a = p.a.clone();
    with_charge(&a, &mut p.sim, |s, sim, ch| {
        s.connect_tcp(sim, ch, client, InetAddr::new(HOST_B, port))
    })
    .ok()?;
    p.run_for(SimTime::from_secs(5));
    let conn = p.b.borrow_mut().accept(listener).ok()?;
    Some((client, conn))
}

/// Two stacks back to back carrying the workload's traffic shape; host
/// ns per frame crossing the loopback (both stacks' output and input,
/// the socket layer, mbufs and checksums, and the events between).
fn pair(workload: Workload, seed: u64, budget: Duration) -> f64 {
    let placement = match workload {
        Workload::LossySrv => Placement::Server,
        _ => Placement::Library,
    };
    let mut p = Pair::new(placement, seed, workload == Workload::LossySrv);
    let done = match workload {
        Workload::BulkLib | Workload::LossySrv => pair_stream(&mut p, budget),
        Workload::EchoLib => pair_echo(&mut p, seed, budget),
        Workload::FaninCspf | Workload::FaninMpf => pair_fanin(&mut p, seed, budget),
    };
    match done {
        Some(elapsed) => elapsed.as_nanos() as f64 / p.frames.get().max(1) as f64,
        None => 0.0,
    }
}

/// One-way stream of 8 KiB writes, drained 16 KiB at a time.
fn pair_stream(p: &mut Pair, budget: Duration) -> Option<Duration> {
    let (tx, rx) = tcp_connect(p, 5001, 40_000)?;
    let data = vec![0xA5u8; BULK_MSG];
    let buf = Rc::new(RefCell::new(vec![0u8; 16 * 1024]));
    let b = p.b.clone();
    p.b.borrow_mut().set_sink(
        rx,
        sink(move |sim, sock, ev| {
            if ev == SockEvent::Readable {
                let mut buf = buf.borrow_mut();
                while let Ok(1..) =
                    with_charge(&b, sim, |s, sim, ch| s.tcp_recv(sim, ch, sock, &mut buf))
                {
                }
            }
        }),
    );
    let a = p.a.clone();
    let pump = move |sim: &mut Sim| {
        while let Ok(1..) = with_charge(&a, sim, |s, sim, ch| s.tcp_send(sim, ch, tx, &data)) {}
    };
    let pump2 = pump.clone();
    p.a.borrow_mut().set_sink(
        tx,
        sink(move |sim, _, ev| {
            if ev == SockEvent::Writable {
                pump2(sim);
            }
        }),
    );
    p.frames.set(0);
    let t = Instant::now();
    pump(&mut p.sim);
    while t.elapsed() < budget {
        p.run_for(SimTime::from_millis(50));
    }
    Some(t.elapsed())
}

/// Closed-loop round trips, UDP or TCP and a Table 2 size per round.
fn pair_echo(p: &mut Pair, seed: u64, budget: Duration) -> Option<Duration> {
    const SIZES: [usize; 5] = [1, 100, 512, 1024, 1460];
    let (c_tcp, s_tcp) = tcp_connect(p, 6001, 40_000)?;
    let c_udp = p.a.borrow_mut().socket_udp();
    p.a.borrow_mut()
        .bind(c_udp, InetAddr::new(HOST_A, 40_001))
        .ok()?;
    let s_udp = p.b.borrow_mut().socket_udp();
    p.b.borrow_mut()
        .bind(s_udp, InetAddr::new(HOST_B, 6001))
        .ok()?;

    // Server: echo whatever arrives, on the socket it arrived on.
    let b = p.b.clone();
    let buf = Rc::new(RefCell::new(vec![0u8; 2048]));
    let server = sink(move |sim, sock, ev| {
        if ev != SockEvent::Readable {
            return;
        }
        let mut buf = buf.borrow_mut();
        with_charge(&b, sim, |s, sim, ch| {
            if sock == s_udp {
                while let Ok((n, from)) = s.udp_recv(sim, ch, sock, &mut buf) {
                    let _ = s.udp_send(sim, ch, sock, &buf[..n], Some(from));
                }
            } else {
                while let Ok(n @ 1..) = s.tcp_recv(sim, ch, sock, &mut buf) {
                    let _ = s.tcp_send(sim, ch, sock, &buf[..n]);
                }
            }
        });
    });
    p.b.borrow_mut().set_sink(s_udp, server.clone());
    p.b.borrow_mut().set_sink(s_tcp, server);

    // Client: when a round's bytes are all back, start the next.
    struct Client {
        rng: Rng,
        want: usize,
        data: Vec<u8>,
        buf: Vec<u8>,
    }
    let client = Rc::new(RefCell::new(Client {
        rng: Rng::new(seed ^ 0xEC40_0000_0000_0002),
        want: 0,
        data: vec![0x5Au8; 1460],
        buf: vec![0u8; 2048],
    }));
    let a = p.a.clone();
    let next = {
        let client = client.clone();
        move |sim: &mut Sim| {
            let mut c = client.borrow_mut();
            let (tcp, size) = (c.rng.chance(0.5), SIZES[c.rng.below(5) as usize]);
            c.want = size;
            let c = &*c;
            with_charge(&a, sim, |s, sim, ch| {
                let _ = if tcp {
                    s.tcp_send(sim, ch, c_tcp, &c.data[..size])
                } else {
                    s.udp_send(
                        sim,
                        ch,
                        c_udp,
                        &c.data[..size],
                        Some(InetAddr::new(HOST_B, 6001)),
                    )
                };
            });
        }
    };
    let (a, next2) = (p.a.clone(), next.clone());
    let reader = sink(move |sim, sock, ev| {
        if ev != SockEvent::Readable {
            return;
        }
        let complete = {
            let mut c = client.borrow_mut();
            let c = &mut *c;
            with_charge(&a, sim, |s, sim, ch| loop {
                let got = if sock == c_udp {
                    s.udp_recv(sim, ch, sock, &mut c.buf).map(|(n, _)| n)
                } else {
                    s.tcp_recv(sim, ch, sock, &mut c.buf)
                };
                match got {
                    Ok(n @ 1..) => c.want = c.want.saturating_sub(n),
                    Ok(0) | Err(_) => break,
                }
            });
            c.want == 0
        };
        if complete {
            next2(sim);
        }
    });
    p.a.borrow_mut().set_sink(c_udp, reader.clone());
    p.a.borrow_mut().set_sink(c_tcp, reader);

    p.frames.set(0);
    let t = Instant::now();
    next(&mut p.sim);
    while t.elapsed() < budget {
        p.run_for(SimTime::from_millis(50));
    }
    Some(t.elapsed())
}

/// Bursts of 64 B datagrams from four sockets to 4096 bound sockets
/// (every 4th connected), with 32 idle TCP connections beside them:
/// what remains when demultiplexing is O(1) is the stacks' own lookups
/// over four thousand live sessions.
fn pair_fanin(p: &mut Pair, seed: u64, budget: Duration) -> Option<Duration> {
    use crate::drivers::{FANIN_TCP, FANIN_UDP};
    let mut rng = Rng::new(seed ^ 0x5EED_5CA1_E000_0002);
    let tx: Vec<SockId> = (0..4u16)
        .map(|j| {
            let s = p.a.borrow_mut().socket_udp();
            p.a.borrow_mut()
                .bind(s, InetAddr::new(HOST_A, 9000 + j))
                .map(|_| s)
        })
        .collect::<Result<_, SocketError>>()
        .ok()?;
    let b = p.b.clone();
    let buf = Rc::new(RefCell::new(vec![0u8; 2048]));
    let drain = sink(move |sim, sock, ev| {
        if ev == SockEvent::Readable {
            let mut buf = buf.borrow_mut();
            with_charge(&b, sim, |s, sim, ch| {
                while s.udp_recv(sim, ch, sock, &mut buf).is_ok() {}
            });
        }
    });
    let mut targets = Vec::with_capacity(FANIN_UDP);
    for i in 0..FANIN_UDP {
        let port = 10_000 + i as u16;
        let mut st = p.b.borrow_mut();
        let s = st.socket_udp();
        st.bind(s, InetAddr::new(HOST_B, port)).ok()?;
        let pinned = (i % 4 == 3).then_some((i / 4) % 4);
        if let Some(j) = pinned {
            st.connect_udp(s, InetAddr::new(HOST_A, 9000 + j as u16))
                .ok()?;
        }
        st.set_sink(s, drain.clone());
        targets.push((port, pinned));
    }
    for i in 0..FANIN_TCP as u16 {
        tcp_connect(p, 20_000 + i, 41_000 + i)?;
    }
    let payload = [0xB7u8; FANIN_PAYLOAD];
    let a = p.a.clone();
    p.frames.set(0);
    let t = Instant::now();
    while t.elapsed() < budget {
        for _ in 0..64 {
            let burst = 1 + rng.below(8);
            for _ in 0..burst {
                let (port, pinned) = targets[rng.below(targets.len() as u64) as usize];
                let j = pinned.unwrap_or_else(|| rng.below(4) as usize);
                let to = Some(InetAddr::new(HOST_B, port));
                let _ = with_charge(&a, &mut p.sim, |s, sim, ch| {
                    s.udp_send(sim, ch, tx[j], &payload, to)
                });
            }
            p.run_for(SimTime::from_nanos(rng.range(100_000, 500_000)));
        }
    }
    Some(t.elapsed())
}
