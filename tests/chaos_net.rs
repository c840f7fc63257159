//! Network-chaos suite: deterministic link-fault schedules over the
//! multi-hop diamond topology. Every run arms all six link-fault sites
//! (wire loss / duplication / reordering, link-down flaps, forced
//! queue-full drops, asymmetric route flips), drives a paced TCP echo
//! stream through two routers and a learning switch, opens a timed
//! partition window on the primary middle link and heals it, and then
//! asserts the recovery invariants:
//!
//! * the connection survives the partition + heal — the transfer
//!   completes, and the echoed stream is a byte-exact prefix (in fact
//!   the whole) of what was sent (exactly-once, in-order);
//! * every packet the tracer saw reached exactly one terminal state —
//!   no drop path is invisible to the taxonomy;
//! * after the descriptors close, no session or port leaks on either
//!   host;
//! * the same seed reproduces the identical run, byte for byte, across
//!   the full digest (counters, router/switch stats, drop taxonomies,
//!   fault-plane logs, operation censuses).
//!
//! A separate blackout test severs both middle links permanently and
//! asserts the client surfaces `Error(TimedOut)` instead of hanging.

use psd::core::{AppLib, Fd, FdEventFn};
use psd::netstack::{InetAddr, SockEvent, SocketError};
use psd::server::Proto;
use psd::sim::{FaultSite, Platform, Rng, SimTime};
use psd::systems::{MultiHopBed, SystemConfig, SEG_MID_ALTERNATE, SEG_MID_PRIMARY};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const PATTERN_LEN: usize = 20 * 1024;
const CHUNK: usize = 256;

/// TCP echo service on the far host (no supervisor: the link-fault
/// sites never crash a server, only the wire misbehaves).
fn tcp_echo(bed: &mut MultiHopBed, port: u16) -> Rc<RefCell<usize>> {
    let app = bed.hosts[1].spawn_app();
    let echoed = Rc::new(RefCell::new(0usize));
    let lfd = AppLib::socket(&app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&app, &mut bed.sim, lfd, port).expect("echo bind");
    AppLib::listen(&app, &mut bed.sim, lfd, 8).expect("echo listen");
    let app2 = app.clone();
    let echoed2 = echoed.clone();
    let conn_handler: FdEventFn = Rc::new(RefCell::new(
        move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| match ev {
            SockEvent::Readable | SockEvent::PeerClosed => loop {
                let mut buf = [0u8; 4096];
                match AppLib::recv(&app2, sim, fd, &mut buf) {
                    Ok(0) => {
                        AppLib::close(&app2, sim, fd);
                        break;
                    }
                    Ok(n) => {
                        *echoed2.borrow_mut() += n;
                        let mut off = 0;
                        while off < n {
                            match AppLib::send(&app2, sim, fd, &buf[off..n]) {
                                Ok(m) if m > 0 => off += m,
                                _ => return, // backpressure: retried via Writable
                            }
                        }
                    }
                    Err(SocketError::WouldBlock) => break,
                    Err(_) => {
                        AppLib::close(&app2, sim, fd);
                        break;
                    }
                }
            },
            SockEvent::Error(_) => AppLib::close(&app2, sim, fd),
            _ => {}
        },
    ));
    let app3 = app.clone();
    let listen_handler: FdEventFn = Rc::new(RefCell::new(
        move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
            if ev == SockEvent::Readable {
                while let Ok(conn) = AppLib::accept(&app3, sim, fd) {
                    app3.borrow_mut()
                        .set_event_handler(conn, conn_handler.clone());
                }
            }
        },
    ));
    app.borrow_mut().set_event_handler(lfd, listen_handler);
    echoed
}

struct NetClient {
    fd: Fd,
    replies: Rc<RefCell<Vec<u8>>>,
    connected: Rc<RefCell<bool>>,
    errors: Rc<RefCell<Vec<SocketError>>>,
}

/// TCP client on the near host; records replies and surfaced errors.
fn tcp_client(bed: &mut MultiHopBed, app: &psd::core::AppHandle, dst: InetAddr) -> NetClient {
    let fd = AppLib::socket(app, &mut bed.sim, Proto::Tcp);
    let replies = Rc::new(RefCell::new(Vec::new()));
    let connected = Rc::new(RefCell::new(false));
    let errors = Rc::new(RefCell::new(Vec::new()));
    let (app2, r2, c2, e2) = (
        app.clone(),
        replies.clone(),
        connected.clone(),
        errors.clone(),
    );
    let handler: FdEventFn = Rc::new(RefCell::new(
        move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| match ev {
            SockEvent::Connected => *c2.borrow_mut() = true,
            SockEvent::Readable => loop {
                let mut buf = [0u8; 4096];
                match AppLib::recv(&app2, sim, fd, &mut buf) {
                    Ok(0) => break,
                    Ok(n) => r2.borrow_mut().extend_from_slice(&buf[..n]),
                    Err(_) => break,
                }
            },
            SockEvent::Error(e) => e2.borrow_mut().push(e),
            _ => {}
        },
    ));
    app.borrow_mut().set_event_handler(fd, handler);
    AppLib::connect(app, &mut bed.sim, fd, dst).expect("connect issued");
    NetClient {
        fd,
        replies,
        connected,
        errors,
    }
}

/// Flips the partition plane's scripted-probability link-down state.
fn set_link_down(plane: &psd::sim::FaultPlaneHandle, down: bool) {
    plane
        .borrow_mut()
        .arm(FaultSite::LinkDown, if down { 1.0 } else { 0.0 });
}

/// One full network-chaos run: returns the deterministic digest.
fn run_chaos_net(config: SystemConfig, seed: u64) -> String {
    let mut bed = MultiHopBed::new(config, Platform::DecStation5000_200, seed);
    let censuses = bed.attach_census();
    let tracer = bed.attach_tracer();
    let plane = bed.attach_fault_plane();
    {
        let mut p = plane.borrow_mut();
        p.set_rng(Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        p.arm(FaultSite::WireLoss, 0.004);
        p.arm(FaultSite::WireDuplicate, 0.002);
        p.arm(FaultSite::WireReorder, 0.002);
        p.arm(FaultSite::LinkQueueFull, 0.004);
        p.arm(FaultSite::RouteFlip, 0.08);
    }
    // The partition plane owns only the primary middle link; its
    // link-down state is toggled below on a virtual-time window, so the
    // schedule (arm at the same slice boundaries every run) is as
    // deterministic as a scripted one.
    let partition = bed.attach_segment_fault_plane(SEG_MID_PRIMARY);
    partition
        .borrow_mut()
        .set_rng(Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1));

    let echoed = tcp_echo(&mut bed, 80);
    let client_app = bed.hosts[0].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    let client = tcp_client(&mut bed, &client_app, dst);

    // Connect through the (already lossy) diamond before partitioning.
    let deadline = bed.sim.now() + SimTime::from_secs(60);
    while !*client.connected.borrow() && bed.sim.now() < deadline {
        bed.run_for(SimTime::from_millis(10));
    }
    assert!(
        *client.connected.borrow(),
        "connect never completed (config {} seed {})",
        config.label(),
        seed
    );

    // Paced transfer with a partition + heal window in the middle: one
    // chunk per 100 ms slice keeps traffic flowing on the middle links
    // while the window is open, so the flap provably bites.
    let pattern: Vec<u8> = (0..PATTERN_LEN as u32).map(|i| (i % 239) as u8).collect();
    let t0 = bed.sim.now();
    let window = (t0 + SimTime::from_secs(2), t0 + SimTime::from_secs(8));
    let hard_deadline = t0 + SimTime::from_secs(300);
    let mut sent = 0usize;
    let mut down = false;
    loop {
        let now = bed.sim.now();
        let want_down = now >= window.0 && now < window.1;
        if want_down != down {
            set_link_down(&partition, want_down);
            down = want_down;
        }
        if sent < pattern.len() {
            let end = (sent + CHUNK).min(pattern.len());
            if let Ok(n) = AppLib::send(&client_app, &mut bed.sim, client.fd, &pattern[sent..end]) {
                sent += n;
            }
        }
        if client.replies.borrow().len() >= pattern.len() {
            break;
        }
        assert!(
            bed.sim.now() < hard_deadline,
            "transfer hung across partition + heal: sent={} echoed={} replies={} (config {} seed {})",
            sent,
            *echoed.borrow(),
            client.replies.borrow().len(),
            config.label(),
            seed
        );
        bed.run_for(SimTime::from_millis(100));
    }
    assert!(!down, "loop ended with the link still partitioned");
    assert!(
        client.errors.borrow().is_empty(),
        "connection errored under a recoverable schedule: {:?} (config {} seed {})",
        client.errors.borrow(),
        config.label(),
        seed
    );

    // Exactly-once, in-order: the echo is byte-identical to the input.
    {
        let replies = client.replies.borrow();
        assert_eq!(replies.len(), pattern.len());
        assert_eq!(
            replies.as_slice(),
            pattern.as_slice(),
            "TCP stream corrupted through the diamond (config {} seed {})",
            config.label(),
            seed
        );
    }

    // The partition window must actually have severed frames — a chaos
    // run where the flap never bit is vacuous.
    assert!(
        partition.borrow().injected(FaultSite::LinkDown) > 0,
        "the partition window never dropped a frame (config {} seed {})",
        config.label(),
        seed
    );

    // Teardown: close and drain, then check for leaks on both hosts.
    AppLib::close(&client_app, &mut bed.sim, client.fd);
    for _ in 0..1200 {
        bed.run_for(SimTime::from_millis(100));
        let clear = bed.hosts[0]
            .server
            .as_ref()
            .is_none_or(|os| os.borrow().session_count() == 0);
        if clear {
            break;
        }
    }
    if let Some(os0) = &bed.hosts[0].server {
        assert_eq!(
            os0.borrow().session_count(),
            0,
            "client host leaked sessions (config {} seed {})",
            config.label(),
            seed
        );
        assert_eq!(
            os0.borrow().ports().len(),
            0,
            "client host leaked ports (config {} seed {})",
            config.label(),
            seed
        );
    }
    if let Some(os1) = &bed.hosts[1].server {
        assert!(
            os1.borrow().session_count() <= 1,
            "server host leaked sessions: {} (config {} seed {})",
            os1.borrow().session_count(),
            config.label(),
            seed
        );
        assert!(os1.borrow().ports().len() <= 1);
    }

    // Every packet the tracer saw reached exactly one terminal state:
    // no drop point anywhere in the topology is invisible.
    let violations = tracer.borrow().check_invariants();
    assert!(
        violations.is_empty(),
        "packet-lifecycle violations (config {} seed {}): {:?}",
        config.label(),
        seed,
        violations
    );

    // --- digest ---
    let mut d = String::new();
    let _ = writeln!(d, "config={} seed={}", config.label(), seed);
    let _ = writeln!(
        d,
        "tcp_sent={} tcp_replies={} tcp_echoed={} clock_ns={}",
        sent,
        client.replies.borrow().len(),
        *echoed.borrow(),
        bed.sim.now().as_nanos(),
    );
    for (i, host) in bed.hosts.iter().enumerate() {
        if let Some(os) = &host.server {
            let s = os.borrow();
            let _ = writeln!(
                d,
                "host{} sessions={} ports={} stats={:?}",
                i,
                s.session_count(),
                s.ports().len(),
                s.stats
            );
        }
    }
    const SEG_NAMES: [&str; 5] = ["segA0", "segA1", "segM1", "segM2", "segB"];
    for (name, seg) in SEG_NAMES.iter().zip(&bed.segments) {
        let s = seg.borrow();
        let _ = writeln!(
            d,
            "{name}={:?} drops={:?}",
            s.stats(),
            s.drops().nonzero().collect::<Vec<_>>()
        );
    }
    {
        let s = bed.switch.borrow();
        let _ = writeln!(
            d,
            "switch={:?} drops={:?}",
            s.stats(),
            s.drops().nonzero().collect::<Vec<_>>()
        );
    }
    for (i, r) in bed.routers.iter().enumerate() {
        let r = r.borrow();
        let _ = writeln!(
            d,
            "router{}={:?} drops={:?}",
            i + 1,
            r.stats(),
            r.drops().nonzero().collect::<Vec<_>>()
        );
    }
    let _ = writeln!(
        d,
        "injected={}",
        plane.borrow().total_injected() + partition.borrow().total_injected()
    );
    let _ = writeln!(d, "plane:\n{}", plane.borrow().snapshot());
    let _ = writeln!(d, "partition:\n{}", partition.borrow().snapshot());
    for (i, c) in censuses.iter().enumerate() {
        let _ = writeln!(d, "census host{}:\n{}", i, c.borrow().snapshot());
    }
    d
}

/// Same seed, same fault schedule, same digest — byte for byte.
fn chaos_net_matrix(config: SystemConfig) {
    let mut injected_total = 0u64;
    for seed in SEEDS {
        let d1 = run_chaos_net(config, seed);
        let d2 = run_chaos_net(config, seed);
        assert_eq!(
            d1,
            d2,
            "network-chaos run is not reproducible for {} seed {}",
            config.label(),
            seed
        );
        let line = d1
            .lines()
            .find(|l| l.starts_with("injected="))
            .expect("digest has an injection count");
        injected_total += line["injected=".len()..].parse::<u64>().unwrap();
    }
    assert!(
        injected_total > 0,
        "the network-chaos matrix for {} never injected a fault — the suite is vacuous",
        config.label()
    );
}

#[test]
fn chaos_net_server_based_placement() {
    chaos_net_matrix(SystemConfig::UxServer);
}

#[test]
fn chaos_net_library_ipc_placement() {
    chaos_net_matrix(SystemConfig::LibraryIpc);
}

#[test]
fn chaos_net_library_shm_placement() {
    chaos_net_matrix(SystemConfig::LibraryShm);
}

/// Sustained blackout: both middle links go down permanently right
/// after the connection establishes. The client must not hang — the
/// retransmission ladder runs its capped exponential backoff and then
/// surfaces `Error(TimedOut)` — and the dead connection's resources
/// drain once the application closes the descriptor.
#[test]
fn blackout_surfaces_timeout_instead_of_hanging() {
    let mut bed = MultiHopBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 42);
    tcp_echo(&mut bed, 80);
    let client_app = bed.hosts[0].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    let client = tcp_client(&mut bed, &client_app, dst);
    let deadline = bed.sim.now() + SimTime::from_secs(30);
    while !*client.connected.borrow() && bed.sim.now() < deadline {
        bed.run_for(SimTime::from_millis(10));
    }
    assert!(*client.connected.borrow(), "clean connect failed");

    // Sever both middle links: no alternate path, a true partition.
    let p1 = bed.attach_segment_fault_plane(SEG_MID_PRIMARY);
    let p2 = bed.attach_segment_fault_plane(SEG_MID_ALTERNATE);
    set_link_down(&p1, true);
    set_link_down(&p2, true);

    let _ = AppLib::send(&client_app, &mut bed.sim, client.fd, &[9u8; 2048]);
    // RTO_MIN .. RTO_MAX doubling over MAX_RXT retransmissions is a few
    // virtual minutes; 600 s of virtual time is a generous bound.
    let deadline = bed.sim.now() + SimTime::from_secs(600);
    while client.errors.borrow().is_empty() && bed.sim.now() < deadline {
        bed.run_for(SimTime::from_secs(1));
    }
    assert_eq!(
        client.errors.borrow().first(),
        Some(&SocketError::TimedOut),
        "blackout must surface a timeout, not hang: {:?}",
        client.errors.borrow()
    );
    assert!(
        p1.borrow().injected(FaultSite::LinkDown) > 0,
        "the blackout never dropped a frame"
    );

    // The dead connection must not pin resources once closed.
    AppLib::close(&client_app, &mut bed.sim, client.fd);
    for _ in 0..600 {
        bed.run_for(SimTime::from_millis(100));
        let clear = bed.hosts[0]
            .server
            .as_ref()
            .is_none_or(|os| os.borrow().session_count() == 0);
        if clear {
            break;
        }
    }
    if let Some(os0) = &bed.hosts[0].server {
        assert_eq!(os0.borrow().session_count(), 0, "blackout leaked sessions");
        assert!(os0.borrow().ports().is_empty(), "blackout leaked ports");
    }
}
