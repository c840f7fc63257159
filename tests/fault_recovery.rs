//! Targeted fault-injection and recovery tests: each test drives one
//! named failure mode through the fault plane (or a direct knob) and
//! asserts the recovery protocol's contract — graceful degradation to
//! the server path, idempotent RPC retry, migration rollback, and
//! server crash/restart with session-DB rebuild.

mod common;

use common::{run_until, tcp_client, tcp_echo_server, udp_echo_server};
use psd::core::{AppHandle, AppLib, Fd, FdEventFn};
use psd::netstack::{InetAddr, SockEvent, SocketError};
use psd::server::{OsServer, Proto};
use psd::sim::{FaultSite, Platform, SimTime};
use psd::systems::{SystemConfig, TestBed};
use std::cell::RefCell;
use std::rc::Rc;

/// Attaches a datagram-counting handler to a UDP descriptor.
fn count_datagrams(app: &AppHandle, fd: Fd) -> Rc<RefCell<usize>> {
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

/// Sends request datagrams until at least one echo comes back (the
/// first send to a fresh destination is lost while ARP resolves).
fn echo_until_reply(
    bed: &mut TestBed,
    app: &AppHandle,
    fd: Fd,
    dst: InetAddr,
    got: &Rc<RefCell<usize>>,
) {
    let floor = *got.borrow();
    for _ in 0..50 {
        let _ = AppLib::sendto(app, &mut bed.sim, fd, b"ping", Some(dst));
        bed.run_for(SimTime::from_millis(50));
        if *got.borrow() > floor {
            return;
        }
    }
    panic!("no echo came back on the degraded path");
}

/// Filter-table exhaustion: when the kernel cannot take another packet
/// filter, the bind must NOT fail — the session falls back to the
/// server data path (DESIGN.md §6), and once a migrated socket closes
/// and frees its slot, new binds migrate again.
#[test]
fn filter_exhaustion_falls_back_to_server_path_and_recovers() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 7);
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let client_app = bed.hosts[0].spawn_app();
    let os = bed.hosts[0].server.clone().unwrap();
    let dst = InetAddr::new(bed.hosts[1].ip, 53);

    // One migrated bind to establish the baseline.
    let fd0 = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&client_app, &mut bed.sim, fd0, 5000).expect("bind fd0");
    let base_migrations = os.borrow().stats.migrations_out;
    assert!(base_migrations >= 1, "library-mode bind must migrate");

    // Freeze the filter table at its current size: the next install
    // must be denied.
    let installed = bed.hosts[0].kernel.borrow().filters_installed();
    bed.hosts[0]
        .kernel
        .borrow_mut()
        .set_filter_capacity(Some(installed));

    let fd1 = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&client_app, &mut bed.sim, fd1, 5001).expect("degraded bind must still succeed");
    assert_eq!(os.borrow().stats.migrations_denied, 1);
    assert_eq!(
        os.borrow().stats.migrations_out,
        base_migrations,
        "a denied migration must not count as migrated"
    );

    // The degraded descriptor still passes data via the server path.
    let got = count_datagrams(&client_app, fd1);
    echo_until_reply(&mut bed, &client_app, fd1, dst, &got);

    // Closing the migrated socket frees its filter slot; a fresh bind
    // migrates again.
    AppLib::close(&client_app, &mut bed.sim, fd0);
    bed.run_for(SimTime::from_millis(100));
    let fd2 = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&client_app, &mut bed.sim, fd2, 5002).expect("bind fd2");
    assert!(
        os.borrow().stats.migrations_out > base_migrations,
        "migration must resume once a slot frees up"
    );
}

/// A 3-frame burst loss mid-transfer: the library stack's TCP must
/// retransmit and the receiver must see every byte exactly once.
#[test]
fn tcp_recovers_from_three_frame_burst_loss() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 11);
    let server_app = bed.hosts[1].spawn_app();
    let echoed = tcp_echo_server(&mut bed, &server_app, 80);
    let client_app = bed.hosts[0].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    let client = tcp_client(&mut bed, &client_app, dst);
    assert!(run_until(&mut bed, SimTime::from_secs(60), || {
        *client.connected.borrow()
    }));

    let pattern: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 251) as u8).collect();
    let mut sent = 0;
    let mut burst_fired = false;
    let mut guard = 0;
    while sent < pattern.len() {
        guard += 1;
        assert!(guard < 10_000, "stalled at {sent}");
        if let Ok(n) = AppLib::send(&client_app, &mut bed.sim, client.fd, &pattern[sent..]) {
            sent += n;
        }
        if !burst_fired && sent >= pattern.len() / 2 {
            // Kill the next three frames on the wire, whatever they are.
            bed.ether.borrow_mut().drop_next_frames(3);
            burst_fired = true;
        }
        bed.run_for(SimTime::from_millis(50));
    }
    assert!(
        run_until(&mut bed, SimTime::from_secs(300), || {
            client.replies.borrow().len() >= pattern.len()
        }),
        "echo incomplete after burst loss: {} of {}",
        client.replies.borrow().len(),
        pattern.len()
    );
    assert_eq!(
        client.replies.borrow().as_slice(),
        pattern.as_slice(),
        "burst loss corrupted the stream"
    );
    assert_eq!(*echoed.borrow(), pattern.len());
    assert!(bed.ether.borrow().stats().dropped >= 3);
    let rexmt = client_app
        .borrow()
        .stack()
        .map(|s| s.borrow().stats.tcp_rexmt)
        .unwrap_or(0)
        + server_app
            .borrow()
            .stack()
            .map(|s| s.borrow().stats.tcp_rexmt)
            .unwrap_or(0);
    assert!(rexmt > 0, "a burst loss must force retransmission");
}

/// Losing the migration capsule between export and retarget triggers
/// the rollback path: the session must stay wholly server-resident —
/// exactly one owner — and datagrams keep flowing exactly once.
#[test]
fn lost_migration_capsule_rolls_back_to_server_residence() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 13);
    let plane = bed.attach_fault_plane();
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53); // migrates on host 1
    let client_app = bed.hosts[0].spawn_app();
    let os = bed.hosts[0].server.clone().unwrap();
    let dst = InetAddr::new(bed.hosts[1].ip, 53);

    let fd = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    // Fault exactly the next visit to the capsule site (earlier visits
    // belong to the echo server's own migration on host 1).
    let v = plane.borrow().visits(FaultSite::MigrationCapsule);
    plane.borrow_mut().script(FaultSite::MigrationCapsule, &[v]);
    AppLib::bind(&client_app, &mut bed.sim, fd, 6000).expect("bind survives capsule loss");

    assert_eq!(os.borrow().stats.migrations_rolled_back, 1);
    assert_eq!(plane.borrow().injected(FaultSite::MigrationCapsule), 1);
    assert_eq!(os.borrow().session_count(), 1, "exactly one session");
    assert_eq!(os.borrow().ports().len(), 1, "exactly one port claim");

    // Exactly-once delivery on the rolled-back (server-resident) path.
    let got = count_datagrams(&client_app, fd);
    echo_until_reply(&mut bed, &client_app, fd, dst, &got);
    let after_warm = *got.borrow();
    for _ in 0..5 {
        AppLib::sendto(&client_app, &mut bed.sim, fd, b"pong", Some(dst)).expect("sendto");
        bed.run_for(SimTime::from_millis(50));
    }
    assert!(run_until(&mut bed, SimTime::from_secs(10), || {
        *got.borrow() >= after_warm + 5
    }));
    bed.run_for(SimTime::from_millis(500));
    assert_eq!(
        *got.borrow(),
        after_warm + 5,
        "a rolled-back migration must not duplicate datagrams"
    );
}

/// Server crash and restart in library mode: migrated sessions keep
/// passing data while the server is down (their state is kernel
/// state), re-registration fails until restart, and the session DB is
/// rebuilt from the stub records.
#[test]
fn migrated_sessions_survive_server_crash_and_restart() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 17);
    let server_app = bed.hosts[1].spawn_app();
    tcp_echo_server(&mut bed, &server_app, 80);
    let client_app = bed.hosts[0].spawn_app();
    let os = bed.hosts[0].server.clone().unwrap();
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    let client = tcp_client(&mut bed, &client_app, dst);
    assert!(run_until(&mut bed, SimTime::from_secs(60), || {
        *client.connected.borrow()
    }));

    let chunk: Vec<u8> = (0..4096u32).map(|i| (i % 239) as u8).collect();
    let mut pushed = 0;
    while pushed < chunk.len() {
        if let Ok(n) = AppLib::send(&client_app, &mut bed.sim, client.fd, &chunk[pushed..]) {
            pushed += n;
        }
        bed.run_for(SimTime::from_millis(20));
    }
    assert!(run_until(&mut bed, SimTime::from_secs(30), || {
        client.replies.borrow().len() >= chunk.len()
    }));

    OsServer::crash(&os, &mut bed.sim);
    assert!(os.borrow().is_down());
    assert!(
        !AppLib::reregister(&client_app, &mut bed.sim),
        "re-registration must fail while the server is down"
    );

    // The migrated connection's data path never touches the server.
    let mut pushed2 = 0;
    let mut guard = 0;
    while pushed2 < chunk.len() {
        guard += 1;
        assert!(guard < 10_000, "migrated path stalled during crash");
        if let Ok(n) = AppLib::send(&client_app, &mut bed.sim, client.fd, &chunk[pushed2..]) {
            pushed2 += n;
        }
        bed.run_for(SimTime::from_millis(20));
    }
    assert!(
        run_until(&mut bed, SimTime::from_secs(30), || {
            client.replies.borrow().len() >= 2 * chunk.len()
        }),
        "migrated session must keep flowing while the server is down"
    );
    let replies = client.replies.borrow();
    assert_eq!(&replies[..chunk.len()], chunk.as_slice());
    assert_eq!(&replies[chunk.len()..2 * chunk.len()], chunk.as_slice());
    drop(replies);

    OsServer::restart(&os, &mut bed.sim);
    assert!(!os.borrow().is_down());
    assert!(os.borrow().stats.sessions_rebuilt >= 1);
    assert_eq!(os.borrow().stats.crashes, 1);
    assert_eq!(os.borrow().stats.restarts, 1);
    assert!(
        AppLib::reregister(&client_app, &mut bed.sim),
        "re-registration must succeed after restart"
    );

    // Control-plane service has resumed: a new bind migrates.
    let fd = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&client_app, &mut bed.sim, fd, 7000).expect("bind after restart");
}

/// Server crash in the server-based configuration: resident
/// descriptors die with the server's in-memory DB, and re-registered
/// applications get clean failures plus a working control plane.
#[test]
fn server_resident_descriptors_die_with_the_server() {
    let mut bed = TestBed::new(SystemConfig::UxServer, Platform::DecStation5000_200, 19);
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let client_app = bed.hosts[0].spawn_app();
    let os = bed.hosts[0].server.clone().unwrap();
    let dst = InetAddr::new(bed.hosts[1].ip, 53);

    let fd = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&client_app, &mut bed.sim, fd, 7100).expect("bind");
    let got = count_datagrams(&client_app, fd);
    echo_until_reply(&mut bed, &client_app, fd, dst, &got);

    OsServer::crash(&os, &mut bed.sim);
    assert!(
        AppLib::sendto(&client_app, &mut bed.sim, fd, b"x", Some(dst)).is_err(),
        "resident data path must fail while the server is down"
    );

    OsServer::restart(&os, &mut bed.sim);
    assert!(AppLib::reregister(&client_app, &mut bed.sim));
    // The resident session died in the crash; its descriptor is gone.
    assert!(
        AppLib::sendto(&client_app, &mut bed.sim, fd, b"x", Some(dst)).is_err(),
        "a dead descriptor must not come back to life"
    );

    // A fresh socket works end to end again.
    let fd2 = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&client_app, &mut bed.sim, fd2, 7200).expect("bind after restart");
    let got2 = count_datagrams(&client_app, fd2);
    echo_until_reply(&mut bed, &client_app, fd2, dst, &got2);
}

/// A lost RPC reply is retried with the same token: the server answers
/// from its idempotency ledger, so the port is claimed exactly once
/// and no session is duplicated.
#[test]
fn lost_rpc_reply_retries_without_double_allocation() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 23);
    let plane = bed.attach_fault_plane();
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let client_app = bed.hosts[0].spawn_app();
    let os = bed.hosts[0].server.clone().unwrap();
    let dst = InetAddr::new(bed.hosts[1].ip, 53);

    let fd = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    // Lose exactly the next RPC reply (the bind below).
    let v = plane.borrow().visits(FaultSite::ProxyRpc);
    plane.borrow_mut().script(FaultSite::ProxyRpc, &[v]);
    AppLib::bind(&client_app, &mut bed.sim, fd, 8000).expect("bind survives a lost reply");

    assert_eq!(client_app.borrow().stats.rpc_retries, 1);
    assert!(os.borrow().stats.rpc_dedup_hits >= 1);
    assert_eq!(
        os.borrow().ports().len(),
        1,
        "a retried bind must not claim a second port"
    );
    assert_eq!(os.borrow().session_count(), 1);

    // The retried, re-migrated descriptor passes data normally.
    let got = count_datagrams(&client_app, fd);
    echo_until_reply(&mut bed, &client_app, fd, dst, &got);
}

/// Every retry attempt's reply is lost: the call must fail with a
/// clean deadline timeout, not hang and not panic.
#[test]
fn rpc_deadline_expires_after_bounded_retries() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 29);
    let plane = bed.attach_fault_plane();
    let client_app = bed.hosts[0].spawn_app();

    let fd = AppLib::socket(&client_app, &mut bed.sim, Proto::Udp);
    let v = plane.borrow().visits(FaultSite::ProxyRpc);
    plane
        .borrow_mut()
        .script(FaultSite::ProxyRpc, &[v, v + 1, v + 2, v + 3]);
    assert_eq!(
        AppLib::bind(&client_app, &mut bed.sim, fd, 8100),
        Err(SocketError::TimedOut)
    );
    assert_eq!(client_app.borrow().stats.rpc_timeouts, 1);
    assert_eq!(plane.borrow().injected(FaultSite::ProxyRpc), 4);
}

/// Attaches a batched-drain handler (NEWAPI `recv_batch`) that counts
/// each received descriptor exactly once.
fn count_batched(app: &AppHandle, fd: Fd) -> Rc<RefCell<usize>> {
    let got = Rc::new(RefCell::new(0usize));
    let (app2, got2) = (app.clone(), got.clone());
    let handler: FdEventFn = Rc::new(RefCell::new(
        move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
            if ev == SockEvent::Readable {
                while let Ok(descs) = AppLib::recv_batch(&app2, sim, fd, 16, 1 << 16, false) {
                    if descs.is_empty() {
                        break;
                    }
                    *got2.borrow_mut() += descs.len();
                }
            }
        },
    ));
    app.borrow_mut().set_event_handler(fd, handler);
    got
}

/// A `ShmRing` fault landing mid-batch: with a 16-descriptor doorbell
/// window open on a migrated receiver, a second bind's migration hits
/// ring exhaustion. The contract is exactly-once-or-typed: the in-flight
/// batch delivers exactly once (no duplicated, no dropped descriptor and
/// no double-paid doorbell), the faulted bind degrades to the server
/// path with a typed outcome (`migrations_denied`, bind still succeeds),
/// and batched NEWAPI calls on the degraded descriptor surface a typed
/// `OpNotSupp` instead of silently corrupting the ring.
#[test]
fn shm_ring_fault_mid_batch_keeps_delivery_exactly_once() {
    use psd::kernel::BatchConfig;

    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 31);
    bed.set_batch_config(BatchConfig {
        batch: 16,
        gro: false,
        gso: false,
    });
    let plane = bed.attach_fault_plane();
    let rx_app = bed.hosts[1].spawn_app();
    let os1 = bed.hosts[1].server.clone().unwrap();

    // Receiver A: a migrated SHM session drained through recv_batch.
    let fd_a = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&rx_app, &mut bed.sim, fd_a, 6100).expect("bind A");
    let got_a = count_batched(&rx_app, fd_a);

    let tx_app = bed.hosts[0].spawn_app();
    let tx = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    let dst_ip = bed.hosts[1].ip;
    AppLib::connect(&tx_app, &mut bed.sim, tx, InetAddr::new(dst_ip, 6100)).expect("connect");

    // Warm ARP (the first datagram to a fresh destination is lost while
    // the address resolves), then settle so the delivered warm count is
    // exact before the burst.
    for _ in 0..50 {
        let _ = AppLib::send(&tx_app, &mut bed.sim, tx, b"warm");
        bed.run_for(SimTime::from_millis(50));
        if *got_a.borrow() > 0 {
            break;
        }
    }
    bed.run_for(SimTime::from_millis(500));
    let warm = *got_a.borrow();
    assert!(warm > 0, "warm-up datagram never arrived");

    let crossings_before = bed.hosts[1].kernel.borrow().stats().rx_session_crossings;
    let denied_before = os1.borrow().stats.migrations_denied;
    let drops_before = bed.hosts[1].kernel.borrow().stats().drops.total();

    // First half of the burst: the doorbell window on A is open and
    // frames are still serializing on the wire when the fault lands.
    let bufs: Vec<Rc<Vec<u8>>> = (0..16u8).map(|i| Rc::new(vec![i; 512])).collect();
    let mut sent = 0usize;
    while sent < 8 {
        match AppLib::send_batch(&tx_app, &mut bed.sim, tx, &bufs[sent..8]) {
            Ok(n) if n > 0 => sent += n,
            _ => bed.run_for(SimTime::from_millis(2)),
        }
    }
    bed.run_for(SimTime::from_millis(2));

    // Mid-batch: the very next migrate_prepare hits ring exhaustion.
    let v = plane.borrow().visits(FaultSite::ShmRing);
    plane.borrow_mut().script(FaultSite::ShmRing, &[v]);
    let fd_b = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&rx_app, &mut bed.sim, fd_b, 6200)
        .expect("bind must survive ring exhaustion by degrading to the server path");
    assert_eq!(plane.borrow().injected(FaultSite::ShmRing), 1);
    assert_eq!(
        os1.borrow().stats.migrations_denied,
        denied_before + 1,
        "ring exhaustion must surface as a typed denial"
    );

    // Batched NEWAPI on the degraded (server-resident) descriptor is a
    // typed error, not a hang or a corrupted ring.
    assert_eq!(
        AppLib::recv_batch(&rx_app, &mut bed.sim, fd_b, 16, 1 << 16, false).err(),
        Some(SocketError::OpNotSupp)
    );
    assert_eq!(
        AppLib::send_batch(&rx_app, &mut bed.sim, fd_b, &bufs[..1]).err(),
        Some(SocketError::OpNotSupp)
    );

    // Second half of the burst rides the same window.
    while sent < 16 {
        match AppLib::send_batch(&tx_app, &mut bed.sim, tx, &bufs[sent..]) {
            Ok(n) if n > 0 => sent += n,
            _ => bed.run_for(SimTime::from_millis(2)),
        }
    }
    assert!(run_until(&mut bed, SimTime::from_secs(10), || {
        *got_a.borrow() >= warm + 16
    }));
    bed.run_for(SimTime::from_secs(1));
    assert_eq!(
        *got_a.borrow(),
        warm + 16,
        "a mid-batch fault must never duplicate or drop a descriptor"
    );
    assert_eq!(
        bed.hosts[1].kernel.borrow().stats().drops.total(),
        drops_before,
        "no descriptor may be dropped around the fault"
    );
    // Doorbell accounting is count-based per endpoint, so the burst adds
    // exactly the ceiling of delivered-over-window crossings — the fault
    // neither double-pays nor skips a doorbell.
    let total = warm as u64 + 16;
    let expected = total.div_ceil(16) - (warm as u64).div_ceil(16);
    assert_eq!(
        bed.hosts[1].kernel.borrow().stats().rx_session_crossings - crossings_before,
        expected
    );

    // Exactly-once on the degraded descriptor via the classic API.
    let got_b = count_datagrams(&rx_app, fd_b);
    let tx2 = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    let dst_b = InetAddr::new(dst_ip, 6200);
    for _ in 0..5 {
        AppLib::sendto(&tx_app, &mut bed.sim, tx2, b"deg", Some(dst_b)).expect("sendto");
        bed.run_for(SimTime::from_millis(50));
    }
    assert!(run_until(&mut bed, SimTime::from_secs(10), || {
        *got_b.borrow() >= 5
    }));
    bed.run_for(SimTime::from_millis(500));
    assert_eq!(
        *got_b.borrow(),
        5,
        "server-path delivery must be exactly-once"
    );
}

/// Endpoint death mid-batch: a descriptor is sitting in the ring with
/// its doorbell window open when the endpoint dies (its session
/// migrated back) and a new owner installs the same filter. The kernel
/// must re-present the unconsumed frame to the classify path — the
/// PR 1 reclaim fix — so it reaches the new owner exactly once, under
/// batching, with no drop and no double-paid doorbell.
#[test]
fn endpoint_death_mid_batch_represents_unconsumed_frames() {
    use psd::filter::EndpointSpec;
    use psd::kernel::{BatchConfig, Kernel, PacketSink, RxMode};
    use psd::netdev::Ethernet;
    use psd::sim::{CostModel, Cpu, Observable, Observers, Sim, Tracer};
    use psd::wire::{
        EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, UdpHeader, UDP_HDR_LEN,
    };
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const PORT: u16 = 7;
    const BODY: usize = 1400;

    let mut sim = Sim::new(1);
    let ether = Ethernet::ten_megabit(&mut sim);
    let cpu = Rc::new(RefCell::new(Cpu::new()));
    let tracer = Tracer::shared();
    let traced = Observers {
        trace: Some(tracer.clone()),
        ..Observers::default()
    };
    cpu.borrow_mut().set_observers(traced.clone());
    ether.borrow_mut().set_observers(traced);
    let kernel = Kernel::new(CostModel::decstation_5000_200(), cpu, EtherAddr::local(2));
    Kernel::connect(&kernel, &ether);

    type Log = Rc<RefCell<Vec<Vec<u8>>>>;
    fn sink(log: &Log) -> PacketSink {
        let l = log.clone();
        Rc::new(RefCell::new(move |_: &mut Sim, _, f: Vec<u8>| {
            l.borrow_mut().push(f);
        }))
    }
    let log_a: Log = Rc::new(RefCell::new(Vec::new()));
    let log_b: Log = Rc::new(RefCell::new(Vec::new()));

    let spec = EndpointSpec::unconnected(IpProto::Udp, DST, PORT);
    let ep_a = {
        let mut k = kernel.borrow_mut();
        k.set_batch_config(BatchConfig {
            batch: 8,
            gro: false,
            gso: false,
        });
        let ep = k.create_endpoint(RxMode::Shm, sink(&log_a));
        k.install_filter(spec, ep).unwrap();
        ep
    };

    // Five marked datagrams back-to-back: frame 0 finishes serializing
    // at ~1.16 ms and then charges ~0.5 ms of interrupt-path work, so
    // its descriptor sits in the ring — doorbell window open, four more
    // descriptors owed to it — when the endpoint dies at 1.3 ms.
    let frame = |mark: u8| {
        let ip = Ipv4Header::new(SRC, DST, IpProto::Udp, UDP_HDR_LEN + BODY);
        let udp = UdpHeader::new(999, PORT, BODY);
        let eth = EthernetHeader {
            dst: EtherAddr::local(2),
            src: EtherAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        f.extend_from_slice(&udp.encode());
        f.extend_from_slice(&vec![mark; BODY]);
        f
    };
    for mark in 0..5u8 {
        Ethernet::transmit(&ether, &mut sim, SimTime::ZERO, frame(mark));
    }

    let k2 = kernel.clone();
    let log_b2 = log_b.clone();
    sim.at(SimTime::from_micros(1300), move |_| {
        let mut k = k2.borrow_mut();
        k.destroy_endpoint(ep_a);
        let ep_b = k.create_endpoint(RxMode::Shm, sink(&log_b2));
        k.install_filter(spec, ep_b).unwrap();
    });
    sim.run_to_idle();

    // Exactly once, to the new owner: every mark present, none twice,
    // nothing left on the dead endpoint.
    assert_eq!(log_a.borrow().len(), 0, "dead endpoint must not consume");
    let mut marks: Vec<u8> = log_b.borrow().iter().map(|f| f[42]).collect();
    marks.sort_unstable();
    assert_eq!(marks, vec![0, 1, 2, 3, 4]);
    // The unconsumed descriptor took the re-present path (not a fresh
    // wire arrival), and nothing was dropped.
    assert_eq!(tracer.borrow().event_count("requeued"), 1);
    let stats = kernel.borrow().stats();
    assert_eq!(stats.drops.total(), 0);
    // Doorbell accounting: the dead endpoint's window paid one crossing
    // for frame 0; the re-presented descriptor opens the new owner's
    // window (second crossing) and frames 1-4 ride it. Never more.
    assert_eq!(stats.rx_session_crossings, 2);
}

/// Seeds of the partition-and-heal matrix.
const PARTITION_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Gauge samples of a metered run: `(virtual ns, one value per gauge)`.
type Samples = Vec<(u64, Vec<u64>)>;

/// Connects a client on host 0 to a TCP echo server on host 1 through
/// whatever the wire is doing, panicking if the handshake never ends.
fn echo_pair(bed: &mut TestBed) -> (AppHandle, common::TcpClient, Rc<RefCell<usize>>) {
    let server_app = bed.hosts[1].spawn_app();
    let echoed = tcp_echo_server(bed, &server_app, 80);
    let client_app = bed.hosts[0].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    let client = tcp_client(bed, &client_app, dst);
    assert!(
        run_until(bed, SimTime::from_secs(60), || *client.connected.borrow()),
        "connect never completed ({})",
        bed.config.label()
    );
    (client_app, client, echoed)
}

/// Closes the client and drains; host 0 must end with no session and
/// no port.
fn assert_client_drains(bed: &mut TestBed, client_app: &AppHandle, fd: Fd, what: &str) {
    AppLib::close(client_app, &mut bed.sim, fd);
    let clear = |bed: &TestBed| {
        bed.hosts[0]
            .server
            .as_ref()
            .is_none_or(|os| os.borrow().session_count() == 0)
    };
    for _ in 0..1200 {
        if clear(bed) {
            break;
        }
        bed.run_for(SimTime::from_millis(100));
    }
    if let Some(os) = &bed.hosts[0].server {
        let os = os.borrow();
        assert_eq!(os.session_count(), 0, "{what}: client host leaked sessions");
        assert!(os.ports().is_empty(), "{what}: client host leaked ports");
    }
}

/// One paced TCP echo over a lossy, duplicating, reordering wire that
/// goes down completely (`LinkDown` armed at 1.0) for two virtual
/// seconds in the middle of the transfer and then heals (armed at 0.0).
/// Asserts the recovery invariants and returns the run's deterministic
/// digest, plus the gauge samples taken every 100 virtual ms when
/// `metered`.
///
/// The outage is total, so it must end before TCP gives up: on one LAN
/// segment the backed-off RTO stays at `RTO_MIN` (500 ms) for nearly
/// all `MAX_RXT` (8) retransmissions, so a connection dies about five
/// virtual seconds into an outage.
fn partition_and_heal(config: SystemConfig, seed: u64, metered: bool) -> (String, Samples) {
    use std::fmt::Write as _;
    const PATTERN_LEN: usize = 20 * 1024;
    const CHUNK: usize = 256;
    let what = format!("{} seed {seed}", config.label());
    // The mbuf gauges read per-thread pool state; start every run where
    // a fresh process starts.
    psd::mbuf::drain_pools();
    psd::mbuf::reset_pool_stats();
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, seed);
    let metrics = metered.then(|| bed.attach_metrics(SimTime::from_millis(100)));
    let censuses = bed.attach_census();
    let tracer = bed.attach_tracer();
    let plane = bed.arm_wire_faults(seed, 0.004, 0.002, 0.002);
    let (client_app, client, echoed) = echo_pair(&mut bed);

    // One chunk per 100 ms slice keeps frames on the wire while the
    // partition is open, so it provably bites.
    let pattern: Vec<u8> = (0..PATTERN_LEN as u32).map(|i| (i % 239) as u8).collect();
    let t0 = bed.sim.now();
    let window = (t0 + SimTime::from_secs(2), t0 + SimTime::from_secs(4));
    let mut sent = 0;
    let mut down = false;
    while client.replies.borrow().len() < pattern.len() {
        let now = bed.sim.now();
        let want_down = now >= window.0 && now < window.1;
        if want_down != down {
            let p = if want_down { 1.0 } else { 0.0 };
            plane.borrow_mut().arm(FaultSite::LinkDown, p);
            down = want_down;
        }
        if sent < pattern.len() {
            let end = (sent + CHUNK).min(pattern.len());
            let chunk = &pattern[sent..end];
            if let Ok(n) = AppLib::send(&client_app, &mut bed.sim, client.fd, chunk) {
                sent += n;
            }
        }
        assert!(
            now < t0 + SimTime::from_secs(300),
            "transfer hung across partition + heal: sent={sent} echoed={} replies={} ({what})",
            *echoed.borrow(),
            client.replies.borrow().len(),
        );
        bed.run_for(SimTime::from_millis(100));
    }
    assert!(
        !down,
        "the transfer ended with the link still down ({what})"
    );
    assert_eq!(
        *client.error.borrow(),
        None,
        "a recoverable partition errored the connection ({what})"
    );
    // Exactly once, in order.
    assert!(
        client.replies.borrow().as_slice() == pattern.as_slice(),
        "the echoed stream differs from what was sent ({what})"
    );
    // A partition that never dropped a frame proves nothing.
    assert!(
        plane.borrow().injected(FaultSite::LinkDown) > 0,
        "the partition never dropped a frame ({what})"
    );
    assert_client_drains(&mut bed, &client_app, client.fd, &what);
    if let Some(os) = &bed.hosts[1].server {
        let os = os.borrow();
        assert!(
            os.session_count() <= 1,
            "{what}: server host leaked sessions"
        );
        assert!(os.ports().len() <= 1, "{what}: server host leaked ports");
    }
    let violations = tracer.borrow().check_invariants();
    assert!(
        violations.is_empty(),
        "packet-lifecycle violations ({what}): {violations:?}"
    );

    let mut d = String::new();
    let _ = writeln!(
        d,
        "{what} sent={sent} replies={} echoed={} clock_ns={}",
        client.replies.borrow().len(),
        *echoed.borrow(),
        bed.sim.now().as_nanos(),
    );
    for (i, host) in bed.hosts.iter().enumerate() {
        if let Some(os) = &host.server {
            let _ = writeln!(d, "host{i} stats={:?}", os.borrow().stats);
        }
    }
    let ether = bed.ether.borrow();
    let drops: Vec<_> = ether.drops().nonzero().collect();
    let _ = writeln!(d, "wire={:?} drops={drops:?}", ether.stats());
    let _ = writeln!(d, "plane:\n{}", plane.borrow().snapshot());
    for (i, c) in censuses.iter().enumerate() {
        let _ = writeln!(d, "census host{i}:\n{}", c.borrow().snapshot());
    }
    let samples = metrics.map_or_else(Vec::new, |m| m.borrow().samples().to_vec());
    (d, samples)
}

/// Every seed twice, the second run metered: the digests must be equal
/// and the sampler must have sampled; the first seed's metered run is
/// repeated and must sample the same rows.
fn partition_and_heal_matrix(config: SystemConfig) {
    for (i, seed) in PARTITION_SEEDS.into_iter().enumerate() {
        let (plain, _) = partition_and_heal(config, seed, false);
        let (metered, samples) = partition_and_heal(config, seed, true);
        assert_eq!(
            plain,
            metered,
            "the metered run diverged ({} seed {seed})",
            config.label()
        );
        assert!(!samples.is_empty(), "the metered run sampled nothing");
        if i == 0 {
            let (_, again) = partition_and_heal(config, seed, true);
            assert!(
                again == samples,
                "same-seed metered runs sampled different rows"
            );
        }
    }
}

#[test]
fn partition_and_heal_server_based_placement() {
    partition_and_heal_matrix(SystemConfig::UxServer);
}

#[test]
fn partition_and_heal_library_ipc_placement() {
    partition_and_heal_matrix(SystemConfig::LibraryIpc);
}

#[test]
fn partition_and_heal_library_shm_placement() {
    partition_and_heal_matrix(SystemConfig::LibraryShm);
}

/// Sustained blackout: the wire goes down for good right after the
/// connection establishes. The client must not hang: the retransmit
/// timer backs off, gives up after `MAX_RXT` retransmissions and
/// surfaces `TimedOut`, and the dead connection's resources drain once
/// the descriptor closes.
#[test]
fn blackout_surfaces_timeout_instead_of_hanging() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 42);
    let (client_app, client, _) = echo_pair(&mut bed);
    let plane = bed.arm_wire_faults(42, 0.0, 0.0, 0.0);
    plane.borrow_mut().arm(FaultSite::LinkDown, 1.0);
    let cut = bed.sim.now();
    let _ = AppLib::send(&client_app, &mut bed.sim, client.fd, &[9u8; 2048]);
    run_until(&mut bed, SimTime::from_secs(600), || {
        client.error.borrow().is_some()
    });
    assert_eq!(
        *client.error.borrow(),
        Some(SocketError::TimedOut),
        "a blackout must surface a timeout, not hang"
    );
    assert!(plane.borrow().injected(FaultSite::LinkDown) > 0);
    // The connection has no RTT estimate yet, so the timer starts at
    // RTO_INIT (1 s) and doubles to the RTO_MAX cap: giving up takes
    // about four virtual minutes. A timer that never backed off would
    // give up after nine 1 s timeouts.
    let waited = bed.sim.now().as_nanos() - cut.as_nanos();
    assert!(
        waited > SimTime::from_secs(60).as_nanos(),
        "the retransmit timer gave up after {waited} ns without backing off"
    );
    assert_client_drains(&mut bed, &client_app, client.fd, "blackout");
}
