//! Structural invariants of the packet-lifecycle tracer, used as a
//! reusable oracle across workload styles:
//!
//! * spans nest and close; no packet is left without exactly one
//!   terminal state (delivered / absorbed / dropped-with-reason);
//! * stage latencies reproduce the paper's Table 3 receive-side
//!   ordering (SHM-IPF ≤ SHM ≤ IPC);
//! * a seeded rerun produces a byte-identical Chrome trace document.
//!
//! Tracing charges no virtual time and consumes no randomness, so
//! every scenario here also implicitly checks that attaching the
//! tracer does not perturb the run.

mod common;

use common::run_until;
use psd::bench::observe::Planes;
use psd::bench::workload::{session_scaling, WorkloadSpec};
use psd::core::{AppHandle, AppLib, Fd, FdEventFn};
use psd::filter::DemuxStrategy;
use psd::netstack::{InetAddr, SockEvent};
use psd::server::Proto;
use psd::sim::{FaultSite, Platform, Rng, SimTime, TraceHandle, Tracer};
use psd::systems::{SystemConfig, TestBed};
use std::cell::RefCell;
use std::rc::Rc;

const PORT: u16 = 4900;

/// Binds a draining UDP receiver on `port`, counting datagrams.
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

/// Stands up a host0 → host1 UDP path, warms it (ARP, implicit bind),
/// attaches a tracer, then sends `n` datagrams and waits for delivery.
/// Returns the bed and the tracer.
fn traced_udp_run(config: SystemConfig, seed: u64, n: usize) -> (TestBed, TraceHandle) {
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, seed);
    let rx_app = bed.hosts[1].spawn_app();
    let received = udp_drain(&mut bed, &rx_app, PORT);
    let tx_app = bed.hosts[0].spawn_app();
    let tx_fd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    let dst = InetAddr::new(bed.hosts[1].ip, PORT);
    // Warm up: the first library send to a fresh destination may drop
    // on an ARP miss.
    for _ in 0..50 {
        AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, b"warm", Some(dst)).expect("warm");
        if run_until(&mut bed, SimTime::from_millis(500), || {
            *received.borrow() >= 1
        }) {
            break;
        }
    }
    bed.settle();
    assert!(*received.borrow() >= 1, "warm-up never delivered");

    let tracer = bed.attach_tracer();
    let already = *received.borrow();
    for _ in 0..n {
        AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, &[7u8; 256], Some(dst)).expect("send");
    }
    assert!(
        run_until(&mut bed, SimTime::from_secs(10), || *received.borrow()
            >= already + n),
        "datagrams not delivered"
    );
    bed.settle();
    (bed, tracer)
}

/// Every traced packet must reach exactly one terminal state, every
/// span must nest and close, and the terminal tallies must cover the
/// packet population.
fn assert_invariants(tracer: &TraceHandle, context: &str) {
    let t = tracer.borrow();
    let violations = t.check_invariants();
    assert!(violations.is_empty(), "{context}: {violations:?}");
    let (delivered, absorbed, dropped) = t.terminal_counts();
    assert_eq!(
        delivered + absorbed + dropped,
        t.packet_count() as u64,
        "{context}: terminals must cover every packet exactly once"
    );
}

#[test]
fn end_to_end_udp_run_satisfies_invariants() {
    for (config, seed) in [
        (SystemConfig::Mach25InKernel, 31),
        (SystemConfig::UxServer, 32),
        (SystemConfig::LibraryIpc, 33),
        (SystemConfig::LibraryShm, 34),
        (SystemConfig::LibraryShmIpf, 35),
    ] {
        let (_bed, tracer) = traced_udp_run(config, seed, 16);
        assert_invariants(&tracer, config.label());
        let t = tracer.borrow();
        let (delivered, _, _) = t.terminal_counts();
        assert!(
            delivered >= 32,
            "{}: 16 datagrams should deliver 16 wire frames + 16 copies, got {delivered}",
            config.label()
        );
        assert!(
            !t.end_to_end_latencies().is_empty(),
            "{}: no end-to-end latencies recorded",
            config.label()
        );
    }
}

/// Table 3's receive-latency ordering, reproduced from the trace's
/// end-to-end histogram rather than from the benchmark's RTT numbers.
#[test]
fn end_to_end_latency_reproduces_table3_ordering() {
    let p50 = |config: SystemConfig, seed: u64| -> u64 {
        let (_bed, tracer) = traced_udp_run(config, seed, 24);
        assert_invariants(&tracer, config.label());
        let t = tracer.borrow();
        let lat = t.end_to_end_latencies();
        assert!(!lat.is_empty());
        Tracer::percentile(&lat, 50)
    };
    let ipc = p50(SystemConfig::LibraryIpc, 41);
    let shm = p50(SystemConfig::LibraryShm, 41);
    let ipf = p50(SystemConfig::LibraryShmIpf, 41);
    assert!(
        ipf <= shm && shm <= ipc,
        "per-packet receive latency must order SHM-IPF ({ipf}) <= SHM ({shm}) <= IPC ({ipc})"
    );
}

/// Armed fault plane: injections appear as named trace events and
/// faulted packets still terminate exactly once (as drops with
/// `FaultInjected`/`WireLoss`, or delivered after recovery).
#[test]
fn chaos_style_run_satisfies_invariants() {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 51);
    let rx_app = bed.hosts[1].spawn_app();
    let received = udp_drain(&mut bed, &rx_app, PORT);
    let tx_app = bed.hosts[0].spawn_app();
    let tx_fd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    let dst = InetAddr::new(bed.hosts[1].ip, PORT);
    for _ in 0..50 {
        AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, b"warm", Some(dst)).expect("warm");
        if run_until(&mut bed, SimTime::from_millis(500), || {
            *received.borrow() >= 1
        }) {
            break;
        }
    }
    bed.settle();

    let tracer = bed.attach_tracer();
    let plane = bed.attach_fault_plane();
    {
        let mut p = plane.borrow_mut();
        p.set_rng(Rng::new(0xFEED_F00D));
        p.arm(FaultSite::NicRx, 0.10);
        p.arm(FaultSite::WireBurstLoss, 0.05);
    }
    for _ in 0..40 {
        AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, &[9u8; 128], Some(dst)).expect("send");
        bed.run_for(SimTime::from_millis(2));
    }
    bed.settle();

    assert_invariants(&tracer, "chaos run");
    let t = tracer.borrow();
    let drops = t.drops();
    assert!(
        drops.get(psd::sim::DropReason::FaultInjected) + drops.get(psd::sim::DropReason::WireLoss)
            > 0,
        "armed plane at 10%/5% over 40 packets should have injected at least once"
    );
}

/// The Table 5 scale workload under tracing: thousands of spans across
/// mixed UDP/TCP sessions, every one accounted for.
#[test]
fn scale_workload_satisfies_invariants() {
    let tracer = Tracer::shared();
    let spec = WorkloadSpec::at_scale(24, 64, 42);
    let r = session_scaling(
        SystemConfig::LibraryShmIpf,
        Platform::DecStation5000_200,
        DemuxStrategy::Mpf,
        &spec,
        &Planes {
            trace: Some(tracer.clone()),
            ..Planes::default()
        },
    );
    assert!(r.packets_rx >= 64);
    assert_invariants(&tracer, "scale workload");
    let t = tracer.borrow();
    let (delivered, _, _) = t.terminal_counts();
    assert!(delivered >= r.packets_rx);
}

/// Same seed, same workload → byte-identical Chrome trace document.
/// Also validates the document's framing without a JSON parser: every
/// event object must carry `ph`, `pid` and `ts` fields.
#[test]
fn seeded_rerun_is_byte_identical_chrome_json() {
    let doc = |seed: u64| -> String {
        let (_bed, tracer) = traced_udp_run(SystemConfig::LibraryShm, seed, 8);
        let mut events = String::new();
        tracer.borrow().chrome_events(0, "rerun-check", &mut events);
        psd::sim::chrome_trace_document(&events)
    };
    let a = doc(77);
    let b = doc(77);
    assert_eq!(a, b, "same-seed trace documents must be byte-identical");
    assert!(a.starts_with("{\"traceEvents\":["));
    assert!(a.trim_end().ends_with("}"));
    let events = a.matches("{\"name\"").count();
    assert!(events > 50, "expected a substantial trace, got {events}");
    for key in ["\"ph\":", "\"pid\":", "\"ts\":"] {
        assert!(a.contains(key), "trace document missing {key}");
    }
}
