//! Table 1 conformance: each BSD socket call maps to exactly the
//! proxy/server interaction the paper specifies, and — crucially — the
//! send/receive calls involve the operating system *not at all* in the
//! library architecture.

mod common;

use common::{run_until, tcp_client, tcp_echo_server, udp_echo_server};
use psd::core::{AppHandle, AppLib, Fd, FdEventFn};
use psd::netstack::{InetAddr, SockEvent, SocketError};
use psd::server::Proto;
use psd::sim::{CensusHandle, Cpu, Layer, OpKind, Platform, Sim, SimTime};
use psd::systems::{SystemConfig, TestBed};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The three architectures: library, server and in-kernel.
const ARCHS: [SystemConfig; 3] = [
    SystemConfig::LibraryShm,
    SystemConfig::UxServer,
    SystemConfig::Mach25InKernel,
];

fn lib_bed() -> TestBed {
    TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 21)
}

#[test]
fn socket_creates_a_server_managed_session() {
    let mut bed = lib_bed();
    let app = bed.hosts[0].spawn_app();
    let server = bed.hosts[0].server.clone().unwrap();
    let before = server.borrow().session_count();
    let _fd = AppLib::socket(&app, &mut bed.sim, Proto::Tcp);
    assert_eq!(server.borrow().session_count(), before + 1);
    assert_eq!(app.borrow().stats.control_rpcs, 1);
}

#[test]
fn udp_bind_migrates_session_to_application() {
    let mut bed = lib_bed();
    let app = bed.hosts[0].spawn_app();
    let server = bed.hosts[0].server.clone().unwrap();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    assert_eq!(app.borrow().stats.migrations_in, 0);
    AppLib::bind(&app, &mut bed.sim, fd, 7777).unwrap();
    // "UDP sessions migrate to the application" on bind.
    assert_eq!(app.borrow().stats.migrations_in, 1);
    assert_eq!(server.borrow().stats.migrations_out, 1);
    // The port is reserved at the server even though the session is out.
    assert!(server.borrow().ports().in_use(Proto::Udp, 7777));
    // The library stack owns the socket now.
    assert_eq!(
        app.borrow().local_addr(fd),
        Some(InetAddr::new(bed.hosts[0].ip, 7777))
    );
}

#[test]
fn tcp_bind_claims_port_without_migration() {
    let mut bed = lib_bed();
    let app = bed.hosts[0].spawn_app();
    let server = bed.hosts[0].server.clone().unwrap();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&app, &mut bed.sim, fd, 8888).unwrap();
    // "For TCP, only the local endpoint is returned … because the
    // remote endpoint is not yet known."
    assert_eq!(app.borrow().stats.migrations_in, 0);
    assert!(server.borrow().ports().in_use(Proto::Tcp, 8888));
}

#[test]
fn duplicate_bind_rejected_by_port_manager() {
    let mut bed = lib_bed();
    let app1 = bed.hosts[0].spawn_app();
    let app2 = bed.hosts[0].spawn_app();
    let fd1 = AppLib::socket(&app1, &mut bed.sim, Proto::Udp);
    let fd2 = AppLib::socket(&app2, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app1, &mut bed.sim, fd1, 5555).unwrap();
    let err = AppLib::bind(&app2, &mut bed.sim, fd2, 5555).unwrap_err();
    assert_eq!(err, psd::netstack::SocketError::AddrInUse);
}

#[test]
fn connect_migrates_tcp_session_after_handshake() {
    let mut bed = lib_bed();
    let server_app = bed.hosts[1].spawn_app();
    tcp_echo_server(&mut bed, &server_app, 80);
    let app = bed.hosts[0].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    let client = tcp_client(&mut bed, &app, dst);
    assert!(run_until(&mut bed, SimTime::from_secs(5), || {
        *client.connected.borrow()
    }));
    // Both the active side (connect) and the passive side (accept)
    // migrated.
    assert_eq!(app.borrow().stats.migrations_in, 1);
    assert!(server_app.borrow().stats.migrations_in >= 1);
    // The established session carries the remote endpoint.
    assert_eq!(
        app.borrow().remote_addr(client.fd),
        Some(InetAddr::new(bed.hosts[1].ip, 80))
    );
}

#[test]
fn send_recv_do_not_contact_the_server_in_library_mode() {
    let mut bed = lib_bed();
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let app = bed.hosts[0].spawn_app();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 9000).unwrap();
    AppLib::connect(&app, &mut bed.sim, fd, InetAddr::new(bed.hosts[1].ip, 53)).unwrap();
    bed.settle();
    // One warmup round trip lets the metastate cache fill (the first
    // send may consult the server's ARP service once).
    AppLib::sendto(&app, &mut bed.sim, fd, b"warm", None).unwrap();
    bed.settle();
    let mut buf = [0u8; 16];
    let _ = AppLib::recvfrom(&app, &mut bed.sim, fd, &mut buf);

    let rpcs_before = app.borrow().stats.control_rpcs;
    let data_rpcs_before = app.borrow().stats.data_rpcs;
    // "Transfer data to or from the network. The operating system is
    // not involved."
    for _ in 0..20 {
        AppLib::sendto(&app, &mut bed.sim, fd, b"ping", None).unwrap();
        bed.settle();
        let mut buf = [0u8; 16];
        let _ = AppLib::recvfrom(&app, &mut bed.sim, fd, &mut buf);
    }
    assert_eq!(app.borrow().stats.control_rpcs, rpcs_before);
    assert_eq!(app.borrow().stats.data_rpcs, data_rpcs_before);
}

#[test]
fn server_based_mode_pays_rpcs_for_data() {
    let mut bed = TestBed::new(SystemConfig::UxServer, Platform::DecStation5000_200, 22);
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let app = bed.hosts[0].spawn_app();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 9000).unwrap();
    AppLib::connect(&app, &mut bed.sim, fd, InetAddr::new(bed.hosts[1].ip, 53)).unwrap();
    bed.settle();
    let before = app.borrow().stats.data_rpcs;
    AppLib::sendto(&app, &mut bed.sim, fd, b"ping", None).unwrap();
    assert!(app.borrow().stats.data_rpcs > before);
}

#[test]
fn fork_returns_sessions_and_shares_descriptors() {
    let mut bed = lib_bed();
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let app = bed.hosts[0].spawn_app();
    let os = bed.hosts[0].server.clone().unwrap();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 9000).unwrap();
    assert_eq!(app.borrow().stats.migrations_in, 1);

    // "All sessions should be returned to the operating system before
    // fork is called."
    let child = AppLib::fork(&app, &mut bed.sim).expect("fork");
    assert_eq!(app.borrow().stats.migrations_out, 1);
    assert!(os.borrow().stats.migrations_in >= 1);
    assert_ne!(app.borrow().proc_id(), child.borrow().proc_id());

    // Both parent and child can use the shared descriptor — routed
    // through the server now.
    bed.settle();
    AppLib::sendto(
        &app,
        &mut bed.sim,
        fd,
        b"from parent",
        Some(InetAddr::new(bed.hosts[1].ip, 53)),
    )
    .unwrap();
    AppLib::sendto(
        &child,
        &mut bed.sim,
        fd,
        b"from child",
        Some(InetAddr::new(bed.hosts[1].ip, 53)),
    )
    .unwrap();
    assert!(app.borrow().stats.data_rpcs >= 1);
    assert!(child.borrow().stats.data_rpcs >= 1);
    bed.settle();
}

#[test]
fn close_returns_session_and_releases_port() {
    let mut bed = lib_bed();
    let app = bed.hosts[0].spawn_app();
    let os = bed.hosts[0].server.clone().unwrap();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 7000).unwrap();
    assert!(os.borrow().ports().in_use(Proto::Udp, 7000));
    AppLib::close(&app, &mut bed.sim, fd);
    bed.settle();
    // The session migrated back and was torn down; the port is free.
    assert!(!os.borrow().ports().in_use(Proto::Udp, 7000));
    assert!(os.borrow().stats.migrations_in >= 1);
    assert!(!app.borrow().fd_exists(fd));
}

#[test]
fn all_ten_data_call_spellings_work() {
    // "recv, recvfrom, recvmsg, read, readv, and send, sendto, sendmsg,
    // write, and writev … are implemented entirely within the
    // application's protocol library."
    let mut bed = lib_bed();
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let app = bed.hosts[0].spawn_app();
    let fd = AppLib::socket(&app, &mut bed.sim, psd::server::Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 9000).unwrap();
    AppLib::connect(&app, &mut bed.sim, fd, InetAddr::new(bed.hosts[1].ip, 53)).unwrap();
    bed.settle();

    // One priming exchange fills the library's ARP cache (the first
    // send costs a one-time metastate resolver RPC, §3.3) so the ten
    // spellings below run in steady state.
    AppLib::send(&app, &mut bed.sim, fd, b"prime").unwrap();
    bed.settle();
    let mut prime = [0u8; 16];
    assert_eq!(AppLib::recv(&app, &mut bed.sim, fd, &mut prime), Ok(5));

    // Count everything from here on: the ten data-call spellings must
    // execute without a single RPC-layer boundary crossing.
    let censuses = bed.attach_census();

    // send / write / sendto / sendmsg / writev.
    AppLib::send(&app, &mut bed.sim, fd, b"one ").unwrap();
    bed.settle();
    AppLib::write(&app, &mut bed.sim, fd, b"two ").unwrap();
    bed.settle();
    AppLib::sendto(&app, &mut bed.sim, fd, b"three ", None).unwrap();
    bed.settle();
    AppLib::sendmsg(&app, &mut bed.sim, fd, &[b"fo", b"ur "], None).unwrap();
    bed.settle();
    AppLib::writev(&app, &mut bed.sim, fd, &[b"five"]).unwrap();
    bed.settle();

    // recv / read / recvfrom / recvmsg / readv.
    let mut collected = Vec::new();
    let mut buf = [0u8; 64];
    let n = AppLib::recv(&app, &mut bed.sim, fd, &mut buf).unwrap();
    collected.extend_from_slice(&buf[..n]);
    let n = AppLib::read(&app, &mut bed.sim, fd, &mut buf).unwrap();
    collected.extend_from_slice(&buf[..n]);
    let (n, _) = AppLib::recvfrom(&app, &mut bed.sim, fd, &mut buf).unwrap();
    collected.extend_from_slice(&buf[..n]);
    let mut a = [0u8; 2];
    let mut b = [0u8; 62];
    let (n, from) = AppLib::recvmsg(&app, &mut bed.sim, fd, &mut [&mut a[..], &mut b[..]]).unwrap();
    assert_eq!(from, InetAddr::new(bed.hosts[1].ip, 53));
    collected.extend_from_slice(&a[..n.min(2)]);
    if n > 2 {
        collected.extend_from_slice(&b[..n - 2]);
    }
    let mut c = [0u8; 64];
    let n = AppLib::readv(&app, &mut bed.sim, fd, &mut [&mut c[..]]).unwrap();
    collected.extend_from_slice(&c[..n]);

    assert_eq!(collected, b"one two three four five");
    // None of the data calls contacted the server (library mode): the
    // only RPCs were socket/bind/connect(+1 ARP prewarm at most).
    assert!(app.borrow().stats.data_rpcs == 0);
    // The census agrees: on the client host no boundary was crossed at
    // any RPC layer while the ten spellings ran — entry/copyin and
    // copyout/exit crossings belong to the server-based architecture,
    // control crossings to proxy RPCs, and none occurred.
    {
        use psd::sim::{Domain, Layer, OpKind};
        let c0 = censuses[0].borrow();
        for layer in [Layer::EntryCopyin, Layer::CopyoutExit, Layer::Control] {
            assert_eq!(
                c0.layer_total(OpKind::BoundaryCrossing, layer),
                0,
                "no crossings at {layer:?} during library data calls"
            );
        }
        assert_eq!(
            c0.domain_total(OpKind::BoundaryCrossing, Domain::Server),
            0,
            "the operating system server never entered the data path"
        );
        // The only crossings the five sends need: one packet-send trap
        // each into the kernel at the ethernet layer.
        assert_eq!(
            c0.count(OpKind::BoundaryCrossing, Domain::Kernel, Layer::EtherOutput),
            5,
            "one send trap per send-side spelling"
        );
    }
}

/// What one call cost host 0: Δ`Cpu::total_busy` in ns, Δ boundary
/// crossings per layer (changed layers only) and Δ`data_rpcs`.
#[derive(Debug, PartialEq)]
struct Cost {
    busy_ns: u64,
    crossings: Vec<(Layer, u64)>,
    data_rpcs: u64,
}

/// Reads host 0's CPU, census and application counters around a call.
struct Meter {
    cpu: Rc<RefCell<Cpu>>,
    census: CensusHandle,
    app: AppHandle,
}

impl Meter {
    fn on_host0(bed: &mut TestBed, app: &AppHandle) -> Meter {
        Meter {
            cpu: bed.hosts[0].cpu.clone(),
            census: bed.attach_census().swap_remove(0),
            app: app.clone(),
        }
    }

    fn read(&self) -> (u64, Vec<u64>, u64) {
        let census = self.census.borrow();
        let crossings = Layer::ALL
            .iter()
            .map(|l| census.layer_total(OpKind::BoundaryCrossing, *l))
            .collect();
        let busy = self.cpu.borrow().total_busy().as_nanos();
        (busy, crossings, self.app.borrow().stats.data_rpcs)
    }

    fn measure<T>(&self, call: impl FnOnce() -> T) -> (T, Cost) {
        let (busy0, cross0, rpcs0) = self.read();
        let out = call();
        let (busy1, cross1, rpcs1) = self.read();
        let crossings = Layer::ALL
            .iter()
            .zip(cross1.iter().zip(&cross0))
            .filter(|(_, (after, before))| after != before)
            .map(|(l, (after, before))| (*l, after - before))
            .collect();
        let cost = Cost {
            busy_ns: busy1 - busy0,
            crossings,
            data_rpcs: rpcs1 - rpcs0,
        };
        (out, cost)
    }
}

/// Connects a TCP descriptor whose handler only notes completion, so
/// arriving data waits for the test's own `recv`.
fn connect_quiet(bed: &mut TestBed, app: &AppHandle, dst: InetAddr) -> Fd {
    let fd = AppLib::socket(app, &mut bed.sim, Proto::Tcp);
    let up = Rc::new(Cell::new(false));
    let up2 = up.clone();
    let handler: FdEventFn = Rc::new(RefCell::new(move |_: &mut Sim, _: Fd, ev: SockEvent| {
        if ev == SockEvent::Connected {
            up2.set(true);
        }
    }));
    app.borrow_mut().set_event_handler(fd, handler);
    AppLib::connect(app, &mut bed.sim, fd, dst).unwrap();
    assert!(run_until(bed, SimTime::from_secs(5), || up.get()));
    fd
}

/// Ports claimed on host 0: the kernel's namespace in the in-kernel
/// baseline, the server's otherwise.
fn ports_claimed(bed: &TestBed) -> usize {
    match (&bed.hosts[0].kern_ports, &bed.hosts[0].server) {
        (Some(ports), _) => ports.borrow().len(),
        (None, Some(server)) => server.borrow().ports().len(),
        (None, None) => unreachable!("every host has a port namespace"),
    }
}

type Row = (
    SystemConfig,
    &'static str,
    Result<usize, SocketError>,
    u64,
    &'static [(Layer, u64)],
    u64,
);

/// The data path's charges per placement, pinned: for each of
/// `send`/`recv` on TCP and `sendto`/`recvfrom` on UDP, once on a
/// success path and once on an error path, what the call added to host
/// 0's busy time, to its boundary crossings per layer, and to the
/// application's data RPCs. Where a placement charges its trap or RPC
/// (before or after the stack call, on success only or always) is the
/// model's contract (DESIGN.md §5.3), so these literals only move when
/// the model is deliberately re-priced.
#[test]
fn data_path_charges_are_pinned_per_placement() {
    use Layer::*;
    use SocketError::*;
    use SystemConfig::*;
    const WANT: &[Row] = &[
        (LibraryShm, "send", Ok(5), 248615, &[(EtherOutput, 1)], 0),
        (LibraryShm, "send", Err(NotConnected), 0, &[], 0),
        (LibraryShm, "sendto", Ok(5), 166401, &[(EtherOutput, 1)], 0),
        (LibraryShm, "sendto", Err(NotConnected), 0, &[], 0),
        (LibraryShm, "recv", Ok(5), 24630, &[], 0),
        (LibraryShm, "recv", Err(WouldBlock), 0, &[], 0),
        (LibraryShm, "recvfrom", Ok(5), 18630, &[], 0),
        (LibraryShm, "recvfrom", Err(WouldBlock), 0, &[], 0),
        (
            UxServer,
            "send",
            Ok(5),
            685215,
            &[(EntryCopyin, 2), (EtherOutput, 1)],
            1,
        ),
        (UxServer, "send", Err(NotConnected), 0, &[], 0),
        (
            UxServer,
            "sendto",
            Ok(5),
            703851,
            &[(EntryCopyin, 2), (EtherOutput, 1)],
            1,
        ),
        (
            UxServer,
            "sendto",
            Err(NotConnected),
            227120,
            &[(EntryCopyin, 2)],
            1,
        ),
        (UxServer, "recv", Ok(5), 290230, &[(CopyoutExit, 2)], 1),
        (UxServer, "recv", Err(WouldBlock), 0, &[], 1),
        (UxServer, "recvfrom", Ok(5), 268230, &[(CopyoutExit, 2)], 1),
        (UxServer, "recvfrom", Err(WouldBlock), 0, &[], 1),
        (
            Mach25InKernel,
            "send",
            Ok(5),
            233205,
            &[(EntryCopyin, 1)],
            0,
        ),
        (Mach25InKernel, "send", Err(NotConnected), 0, &[], 0),
        (
            Mach25InKernel,
            "sendto",
            Ok(5),
            272961,
            &[(EntryCopyin, 1)],
            0,
        ),
        (
            Mach25InKernel,
            "sendto",
            Err(NotConnected),
            42000,
            &[(EntryCopyin, 1)],
            0,
        ),
        (Mach25InKernel, "recv", Ok(5), 30750, &[(CopyoutExit, 1)], 0),
        (Mach25InKernel, "recv", Err(WouldBlock), 0, &[], 0),
        (
            Mach25InKernel,
            "recvfrom",
            Ok(5),
            28750,
            &[(CopyoutExit, 1)],
            0,
        ),
        (Mach25InKernel, "recvfrom", Err(WouldBlock), 0, &[], 0),
    ];
    let mut got = Vec::new();
    for config in ARCHS {
        let mut bed = TestBed::new(config, Platform::DecStation5000_200, 23);
        let peer = bed.hosts[1].spawn_app();
        tcp_echo_server(&mut bed, &peer, 80);
        udp_echo_server(&mut bed, &peer, 53);
        let app = bed.hosts[0].spawn_app();
        let peer_ip = bed.hosts[1].ip;
        let tcp = connect_quiet(&mut bed, &app, InetAddr::new(peer_ip, 80));
        let fresh = AppLib::socket(&app, &mut bed.sim, Proto::Tcp);
        let udp = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
        AppLib::bind(&app, &mut bed.sim, udp, 9000).unwrap();
        let echo = InetAddr::new(peer_ip, 53);
        // One priming exchange per protocol, so every measured call runs
        // with warm caches.
        let mut buf = [0u8; 64];
        AppLib::send(&app, &mut bed.sim, tcp, b"prime").unwrap();
        AppLib::sendto(&app, &mut bed.sim, udp, b"prime", Some(echo)).unwrap();
        bed.run_for(SimTime::from_millis(200));
        assert_eq!(AppLib::recv(&app, &mut bed.sim, tcp, &mut buf), Ok(5));
        let primed = AppLib::recvfrom(&app, &mut bed.sim, udp, &mut buf);
        assert_eq!(primed.map(|(n, _)| n), Ok(5));

        let meter = Meter::on_host0(&mut bed, &app);
        let sim = &mut bed.sim;
        let mut row = |call: &'static str, (res, cost): (Result<usize, SocketError>, Cost)| {
            got.push((config, call, res, cost));
        };
        row(
            "send",
            meter.measure(|| AppLib::send(&app, sim, tcp, b"hello")),
        );
        row(
            "send",
            meter.measure(|| AppLib::send(&app, sim, fresh, b"x")),
        );
        row(
            "sendto",
            meter.measure(|| AppLib::sendto(&app, sim, udp, b"hello", Some(echo))),
        );
        row(
            "sendto",
            meter.measure(|| AppLib::sendto(&app, sim, udp, b"x", None)),
        );
        let deadline = sim.now() + SimTime::from_millis(200);
        sim.run_until(deadline);
        row(
            "recv",
            meter.measure(|| AppLib::recv(&app, sim, tcp, &mut buf)),
        );
        row(
            "recv",
            meter.measure(|| AppLib::recv(&app, sim, tcp, &mut buf)),
        );
        for _ in 0..2 {
            let res = meter.measure(|| AppLib::recvfrom(&app, sim, udp, &mut buf));
            row("recvfrom", (res.0.map(|(n, _)| n), res.1));
        }
    }
    let want: Vec<_> = WANT
        .iter()
        .map(|&(config, call, res, busy_ns, crossings, data_rpcs)| {
            let crossings = crossings.to_vec();
            let cost = Cost {
                busy_ns,
                crossings,
                data_rpcs,
            };
            (config, call, res, cost)
        })
        .collect();
    assert_eq!(got, want);
}

/// A refused call is priced like any other: the second `bind` to a
/// taken port adds exactly the work it did to `Cpu::total_busy` — the
/// control trap in-kernel, and the `proxy_bind` RPC the server charges
/// before its claim fails otherwise — and the census counts the same
/// crossings that work paid for.
#[test]
fn refused_bind_commits_its_charge() {
    for config in ARCHS {
        let mut bed = TestBed::new(config, Platform::DecStation5000_200, 24);
        let app = bed.hosts[0].spawn_app();
        let taken = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
        let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
        AppLib::bind(&app, &mut bed.sim, taken, 5555).unwrap();
        let meter = Meter::on_host0(&mut bed, &app);
        let (res, cost) = meter.measure(|| AppLib::bind(&app, &mut bed.sim, fd, 5555));
        assert_eq!(res, Err(SocketError::AddrInUse));
        let c = bed.hosts[0].kernel.borrow().costs().clone();
        let (priced, crossings) = if config.is_inkernel() {
            (c.trap, 1)
        } else {
            (c.trap + c.rpc_base + 4 * c.ipc_copy_byte * 64, 2)
        };
        let want = Cost {
            busy_ns: priced,
            crossings: vec![(Layer::Control, crossings)],
            data_rpcs: 0,
        };
        assert_eq!(cost, want, "{}", config.label());
    }
}

/// `sendto`/`sendmsg` on a stream socket behave as `send`, the mirror
/// of `recv` on a datagram socket behaving as `recvfrom`: refused with
/// `NotConnected` before the connection exists (no RPC, no port
/// claimed), delivered like `send` once it does (the address is
/// ignored).
#[test]
fn sendto_on_a_stream_socket_behaves_as_send() {
    for config in ARCHS {
        let mut bed = TestBed::new(config, Platform::DecStation5000_200, 25);
        let peer = bed.hosts[1].spawn_app();
        tcp_echo_server(&mut bed, &peer, 80);
        let app = bed.hosts[0].spawn_app();
        let dst = InetAddr::new(bed.hosts[1].ip, 80);
        let rpcs = |app: &AppHandle| {
            let stats = app.borrow().stats;
            stats.control_rpcs + stats.data_rpcs
        };

        let fd = AppLib::socket(&app, &mut bed.sim, Proto::Tcp);
        let before = (rpcs(&app), ports_claimed(&bed));
        let refused = Err(SocketError::NotConnected);
        assert_eq!(
            AppLib::sendto(&app, &mut bed.sim, fd, b"x", Some(dst)),
            refused
        );
        assert_eq!(
            AppLib::sendmsg(&app, &mut bed.sim, fd, &[b"x"], None),
            refused
        );
        let after = (rpcs(&app), ports_claimed(&bed));
        assert_eq!(after, before, "{}: no RPC, no port", config.label());

        let conn = connect_quiet(&mut bed, &app, dst);
        assert_eq!(
            AppLib::sendto(&app, &mut bed.sim, conn, b"ab", Some(dst)),
            Ok(2)
        );
        assert_eq!(
            AppLib::sendmsg(&app, &mut bed.sim, conn, &[b"c", b"d"], None),
            Ok(2)
        );
        let mut echoed = Vec::new();
        for _ in 0..20 {
            bed.run_for(SimTime::from_millis(100));
            let mut buf = [0u8; 16];
            while let Ok(n @ 1..) = AppLib::recv(&app, &mut bed.sim, conn, &mut buf) {
                echoed.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(echoed, b"abcd", "{}", config.label());
    }
}
