//! Batched ≡ unbatched equivalence (the NEWAPI batching contract).
//!
//! The batched NEWAPI (`send_batch` / `send_gso` / `recv_batch`,
//! DESIGN.md §4.2) promises that batching is a *performance* lever,
//! never a semantic one: for every placement and every batch window B,
//! an application sees exactly the bytes, drop taxonomy, and resource
//! state it would have seen unbatched. GRO re-frames wire segments and
//! GSO re-frames send calls, so frame *counts* legitimately differ —
//! what must not differ is anything an application can observe through
//! the socket API.
//!
//! `run_scenario` drives one mixed workload — a 12 KB TCP transfer
//! (multi-MSS, so slow-start bursts give GRO real back-to-back
//! segments to coalesce) plus a kernel-resident UDP flow fed by one
//! GSO super-descriptor and a batched datagram train — and distills an
//! [`Outcome`]: delivered byte streams, datagram count, drop-counter
//! taxonomy, post-teardown session/port leak counts, packet-trace
//! invariant violations, and traced drop terminals. Every B ∈ {4, 16,
//! 64} run must reproduce the B = 1 outcome field for field, across
//! ≥ 8 seeds × the three library placements.
//!
//! Vacuity guards make the equivalence non-trivial: every batched run
//! must show GRO merges, GSO super-segmentation, and header-only
//! deliveries actually firing — a harness in which the mechanisms
//! never engage proves nothing.
//!
//! A separate test pins the doorbell-amortization arithmetic: for a
//! burst of P datagrams the receive kernel charges *exactly*
//! ⌈P / B⌉ session ring crossings, including the final partial window
//! (P = 50 is divisible by no B > 2 under test).

mod common;

use common::{run_until, tcp_client};
use psd::core::{AppHandle, AppLib, Fd, FdEventFn};
use psd::filter::PlacementPolicy;
use psd::kernel::BatchConfig;
use psd::netstack::{InetAddr, SockEvent, SocketError};
use psd::server::Proto;
use psd::sim::{Platform, Rng, SimTime};
use psd::systems::{SystemConfig, TestBed};
use std::cell::RefCell;
use std::rc::Rc;

/// The library placements — the only configurations that export the
/// batched NEWAPI (server placements have no shared ring to batch).
const CONFIGS: [SystemConfig; 3] = [
    SystemConfig::LibraryIpc,
    SystemConfig::LibraryShm,
    SystemConfig::LibraryShmIpf,
];

/// Batch windows under test; 1 is the baseline every other window must
/// reproduce.
const BATCHES: [usize; 4] = [1, 4, 16, 64];

/// Equivalence seeds per configuration.
const SEEDS: usize = 8;

const TCP_PORT: u16 = 80;
const UDP_PORT: u16 = 7000;
/// TCP transfer length: > 8 MSS, so slow start produces back-to-back
/// full-MSS pure-ACK segments for GRO to coalesce.
const TCP_LEN: usize = 12_288;
/// Descriptor size for the TCP `send_batch` chunks.
const TCP_CHUNK: usize = 4_096;
/// GSO super-descriptor: segmented into eight 256-byte datagrams.
const GSO_LEN: usize = 2_048;
const GSO_SEG: usize = 256;
/// Batched datagram train after the super-descriptor.
const SMALL_COUNT: usize = 16;
const SMALL_LEN: usize = 128;
const UDP_DATAGRAMS: usize = GSO_LEN / GSO_SEG + SMALL_COUNT;

fn batch_cfg(b: usize) -> BatchConfig {
    if b == 1 {
        BatchConfig::unbatched()
    } else {
        BatchConfig::full(b)
    }
}

/// Everything an application (or operator) can observe from one
/// scenario run. Fields compared against the B = 1 baseline must be
/// identical; the vacuity counters are checked per-variant instead.
#[derive(Debug)]
struct Outcome {
    /// Bytes the server read from the TCP stream, in order.
    tcp_bytes: Vec<u8>,
    /// UDP payloads in delivery order, concatenated.
    udp_bytes: Vec<u8>,
    /// Datagrams the server received.
    udp_datagrams: usize,
    /// Every UDP descriptor carried the kernel-resident marking.
    udp_all_resident: bool,
    /// Drop taxonomy digest: per-reason kernel counters and stack drop
    /// counters on both hosts.
    drops: String,
    /// Post-teardown leak counts: open descriptors per app and
    /// installed session filters (the kernel-side port table) per host.
    leaks: (usize, usize, usize, usize),
    /// Packet-trace invariant violations (must be empty everywhere).
    invariants: Vec<String>,
    /// Traced drop terminals.
    dropped_terminals: u64,
    /// GRO merges observed on the receiving host (vacuity).
    gro_merged: u64,
    /// GSO super-descriptors / segments emitted by the client stack
    /// (vacuity).
    gso_supers: u64,
    gso_segments: u64,
    /// Header-only ring deliveries on the receiving host (vacuity).
    header_only: u64,
}

/// Accumulating TCP sink: drains with `recv_batch` on every readable
/// edge and closes on peer close.
fn batch_tcp_server(bed: &mut TestBed, app: &AppHandle, port: u16) -> (Rc<RefCell<Vec<u8>>>, Fd) {
    let rx = Rc::new(RefCell::new(Vec::new()));
    let lfd = AppLib::socket(app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(app, &mut bed.sim, lfd, port).expect("tcp bind");
    AppLib::listen(app, &mut bed.sim, lfd, 8).expect("listen");
    let app2 = app.clone();
    let rx2 = rx.clone();
    let conn_handler: FdEventFn = Rc::new(RefCell::new(
        move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
            if matches!(ev, SockEvent::Readable | SockEvent::PeerClosed) {
                loop {
                    match AppLib::recv_batch(&app2, sim, fd, 8, 4096, false) {
                        Ok(descs) if descs.is_empty() => break,
                        Ok(descs) => {
                            for d in descs {
                                rx2.borrow_mut().extend_from_slice(&d.chain.to_vec());
                            }
                        }
                        Err(_) => break,
                    }
                }
                if ev == SockEvent::PeerClosed {
                    AppLib::close(&app2, sim, fd);
                }
            }
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
    (rx, lfd)
}

/// Sends every descriptor in `bufs`, advancing past partial accepts
/// and backing off on a full send buffer.
fn send_all(bed: &mut TestBed, app: &AppHandle, fd: Fd, bufs: &[Rc<Vec<u8>>], what: &str) {
    let mut next = 0;
    let mut stalls = 0;
    while next < bufs.len() {
        match AppLib::send_batch(app, &mut bed.sim, fd, &bufs[next..]) {
            Ok(n) if n > 0 => next += n,
            Ok(_) | Err(SocketError::WouldBlock) => {
                stalls += 1;
                assert!(stalls < 10_000, "{what}: send_batch never drained");
                bed.run_for(SimTime::from_millis(2));
            }
            Err(e) => panic!("{what}: send_batch failed: {e:?}"),
        }
    }
}

/// Runs the mixed TCP + UDP workload under one (config, seed, B) cell
/// and distills the observable outcome.
fn run_scenario(config: SystemConfig, seed: u64, b: usize) -> Outcome {
    let ctx = format!("{} seed={seed} B={b}", config.label());
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, seed);
    bed.set_batch_config(batch_cfg(b));
    bed.set_placement_policy(Some(
        PlacementPolicy::new().resident_ports(UDP_PORT, UDP_PORT),
    ));
    let tracer = bed.attach_tracer();

    // --- server (host 1): TCP accumulator + resident UDP drain ---
    let srv = bed.hosts[1].spawn_app();
    let (tcp_rx, lfd) = batch_tcp_server(&mut bed, &srv, TCP_PORT);
    let udp_rx: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let udp_count = Rc::new(RefCell::new(0usize));
    let udp_resident = Rc::new(RefCell::new(true));
    let ufd_srv = AppLib::socket(&srv, &mut bed.sim, Proto::Udp);
    AppLib::bind(&srv, &mut bed.sim, ufd_srv, UDP_PORT).expect("udp bind");
    {
        let (srv2, rx2, n2, res2) = (
            srv.clone(),
            udp_rx.clone(),
            udp_count.clone(),
            udp_resident.clone(),
        );
        let handler: FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd::sim::Sim, fd: Fd, ev: SockEvent| {
                if ev == SockEvent::Readable {
                    // The pull pays the deferred body copy; the bytes
                    // must be the full datagram regardless of placement.
                    while let Ok(descs) = AppLib::recv_batch(&srv2, sim, fd, 16, 1 << 16, true) {
                        if descs.is_empty() {
                            break;
                        }
                        for d in descs {
                            *res2.borrow_mut() &= d.kernel_resident;
                            rx2.borrow_mut().extend_from_slice(&d.chain.to_vec());
                            *n2.borrow_mut() += 1;
                        }
                    }
                }
            },
        ));
        srv.borrow_mut().set_event_handler(ufd_srv, handler);
    }

    // --- client (host 0) ---
    let cli = bed.hosts[0].spawn_app();
    let server_ip = bed.hosts[1].ip;
    bed.settle();
    let client = tcp_client(&mut bed, &cli, InetAddr::new(server_ip, TCP_PORT));
    assert!(
        run_until(&mut bed, SimTime::from_secs(5), || *client
            .connected
            .borrow()),
        "{ctx}: TCP connect timed out"
    );

    // TCP transfer: a seeded pattern in shared descriptors.
    let mut rng = Rng::new(seed ^ 0xBA7C);
    let pattern: Vec<u8> = (0..TCP_LEN).map(|_| rng.next_u64() as u8).collect();
    let chunks: Vec<Rc<Vec<u8>>> = pattern
        .chunks(TCP_CHUNK)
        .map(|c| Rc::new(c.to_vec()))
        .collect();
    send_all(&mut bed, &cli, client.fd, &chunks, &ctx);
    assert!(
        run_until(&mut bed, SimTime::from_secs(20), || tcp_rx.borrow().len()
            >= TCP_LEN),
        "{ctx}: TCP transfer stalled at {}/{TCP_LEN}",
        tcp_rx.borrow().len()
    );
    AppLib::close(&cli, &mut bed.sim, client.fd);
    bed.run_for(SimTime::from_millis(500));

    // UDP: one GSO super-descriptor, then a batched datagram train,
    // into the kernel-resident flow.
    let ufd = AppLib::socket(&cli, &mut bed.sim, Proto::Udp);
    AppLib::bind(&cli, &mut bed.sim, ufd, 9100).expect("udp bind");
    AppLib::connect(
        &cli,
        &mut bed.sim,
        ufd,
        InetAddr::new(bed.hosts[1].ip, UDP_PORT),
    )
    .expect("udp connect");
    bed.settle();
    let gso_data: Rc<Vec<u8>> = Rc::new((0..GSO_LEN).map(|_| rng.next_u64() as u8).collect());
    AppLib::send_gso(&cli, &mut bed.sim, ufd, gso_data.clone(), GSO_SEG)
        .unwrap_or_else(|e| panic!("{ctx}: send_gso failed: {e:?}"));
    assert!(
        run_until(&mut bed, SimTime::from_secs(5), || *udp_count.borrow()
            >= GSO_LEN / GSO_SEG),
        "{ctx}: GSO datagrams lost ({} arrived)",
        *udp_count.borrow()
    );
    let smalls: Vec<Rc<Vec<u8>>> = (0..SMALL_COUNT)
        .map(|_| Rc::new((0..SMALL_LEN).map(|_| rng.next_u64() as u8).collect()))
        .collect();
    send_all(&mut bed, &cli, ufd, &smalls, &ctx);
    assert!(
        run_until(&mut bed, SimTime::from_secs(5), || *udp_count.borrow()
            >= UDP_DATAGRAMS),
        "{ctx}: datagram train lost ({} arrived)",
        *udp_count.borrow()
    );
    let mut udp_expect = gso_data.to_vec();
    for s in &smalls {
        udp_expect.extend_from_slice(s);
    }

    // --- vacuity counters, read before teardown ---
    let k1 = bed.hosts[1].kernel.borrow().stats();
    let (gso_supers, gso_segments) = {
        let stack = cli.borrow().stack().expect("library client stack");
        let s = stack.borrow();
        (s.stats.gso_supers, s.stats.gso_segments)
    };

    // --- teardown: close everything, drain, count leaks ---
    AppLib::close(&cli, &mut bed.sim, ufd);
    AppLib::close(&srv, &mut bed.sim, ufd_srv);
    AppLib::close(&srv, &mut bed.sim, lfd);
    bed.run_for(SimTime::from_secs(2));
    let leaks = (
        cli.borrow().open_fds(),
        srv.borrow().open_fds(),
        bed.hosts[0].kernel.borrow().filters_installed(),
        bed.hosts[1].kernel.borrow().filters_installed(),
    );

    let drops = {
        let k0 = bed.hosts[0].kernel.borrow().stats();
        let k1 = bed.hosts[1].kernel.borrow().stats();
        let s0 = cli.borrow().stack().expect("client stack");
        let s1 = srv.borrow().stack().expect("server stack");
        format!(
            "kernel0={:?} kernel1={:?} stack0={:?} stack1={:?}",
            k0.drops,
            k1.drops,
            s0.borrow().stats.drops,
            s1.borrow().stats.drops
        )
    };
    let (invariants, dropped_terminals) = {
        let t = tracer.borrow();
        (t.check_invariants(), t.terminal_counts().2)
    };

    Outcome {
        tcp_bytes: {
            let got = tcp_rx.borrow().clone();
            assert_eq!(got, pattern, "{ctx}: TCP byte stream corrupted");
            got
        },
        udp_bytes: {
            let got = udp_rx.borrow().clone();
            assert_eq!(got, udp_expect, "{ctx}: UDP byte stream corrupted");
            got
        },
        udp_datagrams: {
            let n = *udp_count.borrow();
            n
        },
        udp_all_resident: {
            let r = *udp_resident.borrow();
            r
        },
        drops,
        leaks,
        invariants,
        dropped_terminals,
        gro_merged: k1.gro_merged,
        gso_supers,
        gso_segments,
        header_only: k1.header_only_deliveries,
    }
}

/// Compares a batched outcome to the unbatched baseline and enforces
/// the vacuity guards.
fn assert_equivalent(config: SystemConfig, seed: u64, b: usize, base: &Outcome, got: &Outcome) {
    let ctx = format!("{} seed={seed} B={b}", config.label());
    assert!(
        got.invariants.is_empty(),
        "{ctx}: trace invariants violated: {:?}",
        got.invariants
    );
    assert_eq!(got.tcp_bytes, base.tcp_bytes, "{ctx}: TCP stream differs");
    assert_eq!(got.udp_bytes, base.udp_bytes, "{ctx}: UDP stream differs");
    assert_eq!(
        got.udp_datagrams, base.udp_datagrams,
        "{ctx}: datagram count differs"
    );
    assert!(got.udp_all_resident, "{ctx}: resident marking lost");
    assert_eq!(got.drops, base.drops, "{ctx}: drop taxonomy differs");
    assert_eq!(got.leaks, base.leaks, "{ctx}: leak counts differ");
    assert_eq!(
        got.dropped_terminals, base.dropped_terminals,
        "{ctx}: traced drop terminals differ"
    );
    // Vacuity: the mechanisms under test must actually have fired.
    assert!(got.gro_merged > 0, "{ctx}: GRO never coalesced (vacuous)");
    assert!(got.gso_supers > 0, "{ctx}: GSO never segmented (vacuous)");
    assert_eq!(
        got.gso_segments,
        (GSO_LEN / GSO_SEG) as u64,
        "{ctx}: GSO segment count"
    );
    assert!(
        got.header_only > 0,
        "{ctx}: no header-only deliveries (vacuous)"
    );
}

fn equivalence_for(config: SystemConfig) {
    let mut root = Rng::new(0x93_0009);
    for _ in 0..SEEDS {
        let seed = root.next_u64();
        let base = run_scenario(config, seed, 1);
        assert!(
            base.invariants.is_empty(),
            "{} seed={seed} B=1: trace invariants violated: {:?}",
            config.label(),
            base.invariants
        );
        // The baseline must not engage GSO: unbatched configs fall back
        // to per-datagram sends (and still deliver identical bytes).
        assert_eq!(
            base.gso_supers,
            0,
            "{} seed={seed}: baseline ran GSO",
            config.label()
        );
        for &b in &BATCHES[1..] {
            let got = run_scenario(config, seed, b);
            assert_equivalent(config, seed, b, &base, &got);
        }
    }
}

#[test]
fn batched_equals_unbatched_library_ipc() {
    equivalence_for(SystemConfig::LibraryIpc);
}

#[test]
fn batched_equals_unbatched_library_shm() {
    equivalence_for(SystemConfig::LibraryShm);
}

#[test]
fn batched_equals_unbatched_library_shm_ipf() {
    equivalence_for(SystemConfig::LibraryShmIpf);
}

// ---------------------------------------------------------------------
// Doorbell-amortization arithmetic
// ---------------------------------------------------------------------

/// Sends `packets` datagrams through one session endpoint and returns
/// the session ring crossings the receive kernel charged.
fn crossings_for(config: SystemConfig, packets: usize, b: usize) -> u64 {
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, 0x50);
    bed.set_batch_config(BatchConfig {
        batch: b,
        gro: false,
        gso: false,
    });
    let tx_app = bed.hosts[0].spawn_app();
    let tx = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&tx_app, &mut bed.sim, tx, 9000).expect("tx bind");
    let rx_app = bed.hosts[1].spawn_app();
    let rx = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&rx_app, &mut bed.sim, rx, 6000).expect("rx bind");
    bed.settle();
    // Warm ARP on an unclaimed port so the burst is steady-state.
    AppLib::sendto(
        &tx_app,
        &mut bed.sim,
        tx,
        b"warm",
        Some(InetAddr::new(bed.hosts[1].ip, 9)),
    )
    .expect("warm");
    bed.settle();
    AppLib::connect(
        &tx_app,
        &mut bed.sim,
        tx,
        InetAddr::new(bed.hosts[1].ip, 6000),
    )
    .expect("connect");
    bed.settle();

    let k0 = bed.hosts[1].kernel.borrow().stats();
    let bufs: Vec<Rc<Vec<u8>>> = (0..packets).map(|i| Rc::new(vec![i as u8; 64])).collect();
    for group in bufs.chunks(b) {
        send_all(&mut bed, &tx_app, tx, group, "burst");
        // Pace above the 10 Mbit serialization so the wire never backs
        // up; the doorbell accounting is count-based, not time-based.
        bed.run_for(SimTime::from_micros(100 * group.len() as u64));
    }
    bed.settle();
    let mut got = 0usize;
    loop {
        let descs =
            AppLib::recv_batch(&rx_app, &mut bed.sim, rx, 64, 1 << 16, false).expect("recv");
        if descs.is_empty() {
            break;
        }
        got += descs.len();
    }
    bed.settle();
    let k1 = bed.hosts[1].kernel.borrow().stats();
    assert_eq!(
        got,
        packets,
        "{} B={b}: burst must be lossless",
        config.label()
    );
    assert_eq!(
        k1.rx_session - k0.rx_session,
        packets as u64,
        "{} B={b}: delivered frames",
        config.label()
    );
    k1.rx_session_crossings - k0.rx_session_crossings
}

#[test]
fn crossings_scale_as_ceiling_of_packets_over_batch() {
    // P = 50 is not divisible by any window > 2 under test, so the
    // final partial window pins the ceiling (not floor) semantics.
    const P: usize = 50;
    for config in CONFIGS {
        for &b in &BATCHES {
            let want = P.div_ceil(b);
            assert_eq!(
                crossings_for(config, P, b),
                want as u64,
                "{} B={b}: crossings must be ceil({P}/{b})",
                config.label()
            );
        }
    }
}
