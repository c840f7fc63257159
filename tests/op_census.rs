//! Counter invariants over the operation census (§4.1/§4.3): the
//! structural claims of the paper — how many copies, crossings and
//! wakeups each architecture performs per packet — asserted directly,
//! independent of the cost model.
//!
//! Every scenario warms up first (ARP, implicit bind, session
//! migration) and only then attaches the census, so the counters cover
//! exactly the steady-state data path.

mod common;

use common::run_until;
use psd::core::{AppHandle, AppLib, Fd, FdEventFn};
use psd::netstack::{InetAddr, SockEvent};
use psd::server::Proto;
use psd::sim::{CensusHandle, Domain, Layer, OpKind, Platform, SimTime};
use psd::systems::{SystemConfig, TestBed};
use std::cell::RefCell;
use std::rc::Rc;

/// Binds a UDP socket on `port` that drains (and discards) every
/// datagram as it becomes readable, counting them.
fn udp_drain(bed: &mut TestBed, app: &AppHandle, port: u16) -> Rc<RefCell<usize>> {
    let fd = AppLib::socket(app, &mut bed.sim, Proto::Udp);
    AppLib::bind(app, &mut bed.sim, fd, port).expect("bind");
    let got = Rc::new(RefCell::new(0usize));
    let (app2, got2) = (app.clone(), got.clone());
    let handler: FdEventFn = Rc::new(RefCell::new(
        move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
            if ev == SockEvent::Readable {
                let mut buf = [0u8; 4096];
                while AppLib::recvfrom(&app2, sim, fd, &mut buf).is_ok() {
                    *got2.borrow_mut() += 1;
                }
            }
        },
    ));
    app.borrow_mut().set_event_handler(fd, handler);
    got
}

/// One host-0 → host-1 UDP scenario: receiver drains on `PORT`, the
/// sender's first datagram (implicit bind + ARP + any migration) runs
/// un-censused, then `n` datagrams of `len` bytes are counted.
/// Returns (per-host censuses, receiver datagram count).
struct UdpRun {
    censuses: Vec<CensusHandle>,
    bed: TestBed,
    tx_app: AppHandle,
    tx_fd: Fd,
    received: Rc<RefCell<usize>>,
}

const PORT: u16 = 4800;

/// Sends warm-up datagrams until one is delivered (the first library
/// send to a fresh destination is dropped while ARP resolves).
fn warm_up(
    bed: &mut TestBed,
    tx_app: &AppHandle,
    tx_fd: Fd,
    dst: InetAddr,
    received: &Rc<RefCell<usize>>,
) {
    let target = *received.borrow() + 1;
    for _ in 0..50 {
        AppLib::sendto(tx_app, &mut bed.sim, tx_fd, b"warmup", Some(dst)).expect("warmup send");
        if run_until(bed, SimTime::from_millis(500), || {
            *received.borrow() >= target
        }) {
            bed.settle();
            return;
        }
    }
    panic!("warm-up datagram never delivered");
}

fn udp_setup(config: SystemConfig, seed: u64) -> UdpRun {
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, seed);
    let rx_app = bed.hosts[1].spawn_app();
    let received = udp_drain(&mut bed, &rx_app, PORT);
    let tx_app = bed.hosts[0].spawn_app();
    let tx_fd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    let dst = InetAddr::new(bed.hosts[1].ip, PORT);
    // Warm-up: ARP resolution, implicit bind, session migration. The
    // library stack drops a datagram on an ARP miss (recovery is the
    // protocol's job, and UDP has none), so retry until one lands.
    warm_up(&mut bed, &tx_app, tx_fd, dst, &received);
    let censuses = bed.attach_census();
    UdpRun {
        censuses,
        bed,
        tx_app,
        tx_fd,
        received,
    }
}

impl UdpRun {
    /// Sends `n` datagrams of `len` bytes and waits for delivery.
    fn send(&mut self, n: usize, len: usize) {
        let dst = InetAddr::new(self.bed.hosts[1].ip, PORT);
        let already = *self.received.borrow();
        for _ in 0..n {
            AppLib::sendto(
                &self.tx_app,
                &mut self.bed.sim,
                self.tx_fd,
                &vec![7u8; len],
                Some(dst),
            )
            .expect("send");
        }
        assert!(
            run_until(&mut self.bed, SimTime::from_secs(10), || *self
                .received
                .borrow()
                >= already + n),
            "datagrams not delivered"
        );
        self.bed.settle();
    }
}

/// Table 2's structural explanation: the number of times a received
/// packet's body is physically moved, per architecture. SHM-IPF's
/// integrated filter saves the up-front device copy (2 moves); SHM and
/// IPC both take 3; the server path adds the app↔server RPC for a
/// total of 6.
#[test]
fn body_copy_counts_order_the_architectures() {
    let n = 10;
    let per_packet = |config: SystemConfig, seed: u64| -> u64 {
        let mut run = udp_setup(config, seed);
        run.send(n, 256);
        let total = run.censuses[1].borrow().total(OpKind::PacketBodyCopy);
        assert_eq!(
            total % n as u64,
            0,
            "{}: {total} body copies not a multiple of {n} packets",
            config.label()
        );
        total / n as u64
    };
    let shm_ipf = per_packet(SystemConfig::LibraryShmIpf, 11);
    let shm = per_packet(SystemConfig::LibraryShm, 12);
    let ipc = per_packet(SystemConfig::LibraryIpc, 13);
    let in_kernel = per_packet(SystemConfig::Mach25InKernel, 14);
    let server = per_packet(SystemConfig::UxServer, 15);
    assert_eq!(shm_ipf, 2, "SHM-IPF: ring copy + copyout");
    assert_eq!(shm, 3, "SHM: device read + ring copy + copyout");
    assert_eq!(ipc, 3, "IPC: device read + message copy + copyout");
    assert_eq!(in_kernel, 2, "in-kernel: device read + copyout");
    assert_eq!(server, 6, "server: device read + IPC + copyout + 3 RPC");
    assert!(shm_ipf < shm && shm == ipc && ipc < server);
    assert_eq!(shm_ipf, in_kernel, "the §4.1 claim: IPF matches in-kernel");
}

/// §4.3: library data calls never cross a protection boundary at the
/// socket interface — the only crossing is the packet-send trap — while
/// every server-based data call is one RPC, i.e. two crossings (into
/// the server and back).
#[test]
fn library_data_path_has_zero_rpc_crossings() {
    let n = 8;

    // Library: n sends cross only at the device (EtherOutput).
    let mut run = udp_setup(SystemConfig::LibraryShm, 21);
    run.send(n, 128);
    for (host, census) in run.censuses.iter().enumerate() {
        let c = census.borrow();
        for layer in [Layer::EntryCopyin, Layer::CopyoutExit, Layer::Control] {
            assert_eq!(
                c.layer_total(OpKind::BoundaryCrossing, layer),
                0,
                "library host{host}: unexpected {} crossing",
                layer.label()
            );
        }
    }
    let c0 = run.censuses[0].borrow();
    assert_eq!(
        c0.count(OpKind::BoundaryCrossing, Domain::Kernel, Layer::EtherOutput),
        n as u64,
        "one device-write trap per datagram"
    );
    assert_eq!(c0.domain_total(OpKind::BoundaryCrossing, Domain::Server), 0);
    // §4.3: "the user data can be referenced instead of copied" — the
    // library's datagram send models no copyin (and the host makes
    // none: udp_output gathers straight from the caller's buffer).
    assert_eq!(
        c0.layer_total(OpKind::PacketBodyCopy, Layer::EntryCopyin),
        0,
        "library sendto must not note a copyin"
    );
    drop(c0);

    // Server-based: each sendto is one RPC = two census crossings
    // (request enters the server, reply re-enters the library), plus
    // the server's own device-write trap.
    let mut run = udp_setup(SystemConfig::UxServer, 22);
    run.send(n, 128);
    let c0 = run.censuses[0].borrow();
    assert_eq!(
        c0.count(OpKind::BoundaryCrossing, Domain::Server, Layer::EntryCopyin),
        n as u64
    );
    assert_eq!(
        c0.count(
            OpKind::BoundaryCrossing,
            Domain::Library,
            Layer::EntryCopyin
        ),
        n as u64
    );
    assert_eq!(
        c0.count(OpKind::BoundaryCrossing, Domain::Kernel, Layer::EtherOutput),
        n as u64
    );
    // And the receive side pays the same RPC toll per recvfrom.
    let c1 = run.censuses[1].borrow();
    assert_eq!(
        c1.count(OpKind::BoundaryCrossing, Domain::Server, Layer::CopyoutExit),
        n as u64
    );
    assert_eq!(
        c1.count(
            OpKind::BoundaryCrossing,
            Domain::Library,
            Layer::CopyoutExit
        ),
        n as u64
    );
}

/// A fresh library UDP socket migrates once (the server-synthesized
/// capsule is imported by the library) on its first send; the data
/// packets that follow migrate nothing.
#[test]
fn implicit_bind_migrates_exactly_once() {
    let mut run = udp_setup(SystemConfig::LibraryShm, 31);
    // The warmed-up socket: no further migrations, ever.
    run.send(4, 64);
    assert_eq!(run.censuses[0].borrow().total(OpKind::SessionMigration), 0);
    // A brand-new socket under census: exactly one import, in the
    // library, on the control path.
    let fd = AppLib::socket(&run.tx_app, &mut run.bed.sim, Proto::Udp);
    let dst = InetAddr::new(run.bed.hosts[1].ip, PORT);
    AppLib::sendto(&run.tx_app, &mut run.bed.sim, fd, b"x", Some(dst)).expect("send");
    run.bed.settle();
    let c0 = run.censuses[0].borrow();
    assert_eq!(c0.total(OpKind::SessionMigration), 1);
    assert_eq!(
        c0.count(OpKind::SessionMigration, Domain::Library, Layer::Control),
        1
    );
}

/// §4.1's wakeup amortization: a burst of small datagrams into a SHM
/// ring wakes the receiving thread fewer times than there are packets
/// (the thread drains the ring while the kernel keeps appending),
/// while the IPC path pays one scheduler wakeup per packet.
#[test]
fn shm_amortizes_wakeups_ipc_does_not() {
    let burst = 12;

    let mut run = udp_setup(SystemConfig::LibraryShm, 41);
    let amortized_before = run.bed.hosts[1].kernel.borrow().stats().wakeups_amortized;
    run.send(burst, 1);
    let shm_wakeups =
        run.censuses[1]
            .borrow()
            .count(OpKind::Wakeup, Domain::Kernel, Layer::KernelCopyout);
    let amortized = run.bed.hosts[1].kernel.borrow().stats().wakeups_amortized - amortized_before;
    assert!(
        shm_wakeups < burst as u64,
        "SHM: expected fewer than {burst} wakeups, got {shm_wakeups}"
    );
    assert!(amortized > 0, "SHM: expected amortized wakeups");
    assert_eq!(shm_wakeups + amortized, burst as u64);

    let mut run = udp_setup(SystemConfig::LibraryIpc, 41);
    run.send(burst, 1);
    let ipc_wakeups =
        run.censuses[1]
            .borrow()
            .count(OpKind::Wakeup, Domain::Kernel, Layer::KernelCopyout);
    assert_eq!(
        ipc_wakeups, burst as u64,
        "IPC: one scheduler wakeup per packet"
    );
    assert_eq!(
        run.bed.hosts[1].kernel.borrow().stats().wakeups_amortized,
        0
    );
}

/// §3.4 isolation, observed through the census: the per-session
/// `FilterRun` attribution counts a packet only against the session it
/// is destined for. Traffic to app B never shows up under app A.
#[test]
fn filter_runs_attribute_only_to_the_destination_session() {
    let mut bed = TestBed::new(
        SystemConfig::LibraryShmIpf,
        Platform::DecStation5000_200,
        51,
    );
    let app_a = bed.hosts[1].spawn_app();
    let app_b = bed.hosts[1].spawn_app();
    let got_a = udp_drain(&mut bed, &app_a, 6001);
    let got_b = udp_drain(&mut bed, &app_b, 6002);
    let tx_app = bed.hosts[0].spawn_app();
    let tx_fd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    let to_a = InetAddr::new(bed.hosts[1].ip, 6001);
    let to_b = InetAddr::new(bed.hosts[1].ip, 6002);
    // Warm up both paths, then census.
    warm_up(&mut bed, &tx_app, tx_fd, to_a, &got_a);
    warm_up(&mut bed, &tx_app, tx_fd, to_b, &got_b);
    let censuses = bed.attach_census();

    // Discover each session's census scope by sending to it alone.
    let scopes_after = |bed: &mut TestBed, dst: InetAddr, n: usize| -> Vec<(u64, u64)> {
        for _ in 0..n {
            AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, b"payload", Some(dst)).expect("send");
        }
        bed.settle();
        let snap = censuses[1].borrow().snapshot();
        let scopes = scoped_filter_runs(&snap);
        censuses[1].borrow_mut().reset();
        scopes
    };
    let a_scopes = scopes_after(&mut bed, to_a, 3);
    assert_eq!(a_scopes.len(), 1, "one session matched: {a_scopes:?}");
    assert_eq!(a_scopes[0].1, 3);
    let b_scopes = scopes_after(&mut bed, to_b, 5);
    assert_eq!(b_scopes.len(), 1, "one session matched: {b_scopes:?}");
    assert_eq!(b_scopes[0].1, 5);
    assert_ne!(a_scopes[0].0, b_scopes[0].0, "A and B are distinct scopes");

    // Mixed traffic still attributes per destination only.
    let a_scope = a_scopes[0].0;
    let b_scope = b_scopes[0].0;
    for _ in 0..4 {
        AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, b"p", Some(to_b)).expect("send");
    }
    AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, b"p", Some(to_a)).expect("send");
    bed.settle();
    let census = censuses[1].borrow();
    assert_eq!(census.scoped(OpKind::FilterRun, b_scope), 4);
    assert_eq!(census.scoped(OpKind::FilterRun, a_scope), 1);
}

/// Parses `filter_run scope=N COUNT` lines out of a census snapshot.
fn scoped_filter_runs(snapshot: &str) -> Vec<(u64, u64)> {
    snapshot
        .lines()
        .filter(|l| l.starts_with("filter_run"))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            it.next()?;
            let scope = it.next()?.strip_prefix("scope=")?.parse().ok()?;
            let count = it.next()?.parse().ok()?;
            Some((scope, count))
        })
        .collect()
}

/// Observability is deterministic: identically seeded runs produce
/// byte-identical census snapshots on both hosts.
#[test]
fn seeded_runs_produce_identical_censuses() {
    let snapshots = |seed: u64| -> Vec<String> {
        let mut run = udp_setup(SystemConfig::LibraryShm, seed);
        run.send(6, 200);
        run.censuses.iter().map(|c| c.borrow().snapshot()).collect()
    };
    let a = snapshots(77);
    let b = snapshots(77);
    assert_eq!(a, b);
    assert!(
        a.iter().any(|s| !s.is_empty()),
        "censuses actually recorded something"
    );
}

/// The tracer's operation totals must equal the census's: both are fed
/// from the same charge-site hook, so any divergence means a counting
/// site notified one but not the other (double- or under-accounting).
/// Scoped to the kinds the census only learns through `Charge` —
/// session-migration events reach the census directly.
#[test]
fn tracer_and_census_count_the_same_operations() {
    for (config, seed) in [
        (SystemConfig::Mach25InKernel, 91),
        (SystemConfig::LibraryIpc, 92),
        (SystemConfig::LibraryShmIpf, 93),
    ] {
        let mut run = udp_setup(config, seed);
        let tracer = run.bed.attach_tracer();
        run.send(9, 300);
        let t = tracer.borrow();
        for op in [
            OpKind::PacketBodyCopy,
            OpKind::BoundaryCrossing,
            OpKind::Wakeup,
        ] {
            let census: u64 = run.censuses.iter().map(|c| c.borrow().total(op)).sum();
            assert_eq!(
                t.op_total(op),
                census,
                "{}: tracer and census disagree on {op:?}",
                config.label()
            );
        }
        assert!(
            t.op_total(OpKind::PacketBodyCopy) > 0,
            "{}: expected copies during the burst",
            config.label()
        );
    }
}
