//! Scale-regression suite behind Table 5: the per-packet structural
//! invariants that must survive a high session count.
//!
//! `tests/op_census.rs` pins the per-datagram copy/crossing counts at
//! two sessions; `tests/demux_scaling.rs` pins the classifier cost on
//! a bare table. These tests close the loop end-to-end: driven through
//! the whole system by the session-scaling workload engine, MPF's
//! per-packet filter cost must not depend on the session count while
//! CSPF's grows, and the per-datagram body-copy counts (2 for SHM-IPF,
//! 3 for SHM, 3 for IPC, 6 for the server path) must be exactly the
//! same with 4096 live sessions standing by as with none.

mod common;

use common::run_until;
use psd::bench::observe::Planes;
use psd::bench::{session_scaling, WorkloadSpec};
use psd::core::{AppHandle, AppLib, Fd, FdEventFn};
use psd::filter::DemuxStrategy;
use psd::netstack::{InetAddr, SockEvent};
use psd::server::Proto;
use psd::sim::{CensusHandle, OpKind, Platform, SimTime};
use psd::systems::{SystemConfig, TestBed};
use std::cell::RefCell;
use std::rc::Rc;

/// MPF's per-packet filter cost, measured at the receiving kernel's
/// demultiplexer under the full workload engine, is independent of the
/// session count; CSPF's grows with it. This is the Table 5 claim as a
/// regression test (the benchmark itself runs to N=4096; N=256 is
/// enough to regress the asymptotic shape).
#[test]
fn kernel_filter_cost_flat_for_mpf_linear_for_cspf() {
    let run = |strategy: DemuxStrategy, n: usize| {
        session_scaling(
            SystemConfig::LibraryShm,
            Platform::DecStation5000_200,
            strategy,
            &WorkloadSpec::at_scale(n, 128, 42),
            &Planes::default(),
        )
    };
    let m16 = run(DemuxStrategy::Mpf, 16);
    let m256 = run(DemuxStrategy::Mpf, 256);
    assert!(
        m256.filters > m16.filters * 8,
        "engine must install per-session filters ({} -> {})",
        m16.filters,
        m256.filters
    );
    // Flat: the only variation allowed is the connected/wildcard probe
    // mix (one extra instruction on wildcard hits), never the table
    // size.
    assert!(
        (m256.steps_per_packet - m16.steps_per_packet).abs() <= 2.0,
        "MPF steps/pkt must not scale with sessions: {:.1} at N=16 vs {:.1} at N=256",
        m16.steps_per_packet,
        m256.steps_per_packet
    );

    let c16 = run(DemuxStrategy::Cspf, 16);
    let c256 = run(DemuxStrategy::Cspf, 256);
    assert!(
        c256.steps_per_packet >= c16.steps_per_packet * 4.0,
        "CSPF steps/pkt must grow with sessions: {:.1} at N=16 vs {:.1} at N=256",
        c16.steps_per_packet,
        c256.steps_per_packet
    );
    assert!(
        c256.steps_per_packet > m256.steps_per_packet * 10.0,
        "at N=256 CSPF ({:.1}) must dwarf MPF ({:.1})",
        c256.steps_per_packet,
        m256.steps_per_packet
    );
}

/// First ballast port. Keeps the ballast sessions clear of the
/// measured drain port.
const BALLAST_BASE: u16 = 10_000;
/// The measured drain port.
const PORT: u16 = 4800;

/// A two-host UDP run with `ballast` extra live sessions on the
/// receiving host: the receiver stands up the ballast (wildcard binds,
/// each a live session with its own filter under library placements),
/// then a drain socket on [`PORT`]; the sender warms up ARP/implicit
/// bind un-censused; the census covers exactly the measured datagrams.
struct BallastRun {
    bed: TestBed,
    censuses: Vec<CensusHandle>,
    tx_app: AppHandle,
    tx_fd: Fd,
    received: Rc<RefCell<usize>>,
}

fn ballast_setup(config: SystemConfig, seed: u64, ballast: usize) -> BallastRun {
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, seed);
    // MPF keeps the per-packet classify cost independent of the
    // ballast size; the body-copy counts under test are the same for
    // either strategy.
    for h in &bed.hosts {
        h.kernel.borrow_mut().set_demux_strategy(DemuxStrategy::Mpf);
    }
    let rx_app = bed.hosts[1].spawn_app();
    for i in 0..ballast {
        let fd = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
        AppLib::bind(&rx_app, &mut bed.sim, fd, BALLAST_BASE + i as u16).expect("ballast bind");
    }
    bed.settle();

    // The measured drain socket.
    let fd = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&rx_app, &mut bed.sim, fd, PORT).expect("drain bind");
    let received = Rc::new(RefCell::new(0usize));
    let (app2, got2) = (rx_app.clone(), received.clone());
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
    rx_app.borrow_mut().set_event_handler(fd, handler);

    let tx_app = bed.hosts[0].spawn_app();
    let tx_fd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    let dst = InetAddr::new(bed.hosts[1].ip, PORT);
    // Warm up ARP + implicit bind + migration before the census; the
    // library stack drops a datagram on an ARP miss, so retry.
    let mut warmed = false;
    for _ in 0..50 {
        AppLib::sendto(&tx_app, &mut bed.sim, tx_fd, b"warmup", Some(dst)).expect("warmup send");
        if run_until(&mut bed, SimTime::from_millis(500), || {
            *received.borrow() >= 1
        }) {
            warmed = true;
            break;
        }
    }
    assert!(warmed, "warm-up datagram never delivered");
    bed.settle();
    let censuses = bed.attach_census();
    BallastRun {
        bed,
        censuses,
        tx_app,
        tx_fd,
        received,
    }
}

impl BallastRun {
    /// Sends `n` datagrams at the drain and waits for delivery.
    fn send(&mut self, n: usize) {
        let dst = InetAddr::new(self.bed.hosts[1].ip, PORT);
        let already = *self.received.borrow();
        for _ in 0..n {
            AppLib::sendto(
                &self.tx_app,
                &mut self.bed.sim,
                self.tx_fd,
                &[7u8; 256],
                Some(dst),
            )
            .expect("send");
        }
        assert!(
            run_until(&mut self.bed, SimTime::from_secs(10), || {
                *self.received.borrow() >= already + n
            }),
            "datagrams not delivered"
        );
        self.bed.settle();
    }
}

/// The §4.1 body-copy counts survive scale: with 4096 live sessions
/// standing by on the receiving host, each measured datagram still
/// moves exactly as many times as with two sessions — 2 for SHM-IPF,
/// 3 for SHM and IPC, 6 for the server path. A per-session cost hiding
/// in the data path (a scan over sessions that touches bodies, a
/// buffer strategy that degrades under load) would break this.
#[test]
fn body_copy_counts_unchanged_at_4096_sessions() {
    const BALLAST: usize = 4096;
    let n = 8;
    let per_packet = |config: SystemConfig, seed: u64| -> u64 {
        let mut run = ballast_setup(config, seed, BALLAST);
        assert_eq!(
            run.bed.hosts[1].kernel.borrow().filters_installed() > BALLAST,
            config.is_library(),
            "{}: ballast filter count",
            config.label()
        );
        run.send(n);
        let total = run.censuses[1].borrow().total(OpKind::PacketBodyCopy);
        assert_eq!(
            total % n as u64,
            0,
            "{}: {total} body copies not a multiple of {n} packets",
            config.label()
        );
        total / n as u64
    };
    assert_eq!(per_packet(SystemConfig::LibraryShmIpf, 11), 2);
    assert_eq!(per_packet(SystemConfig::LibraryShm, 12), 3);
    assert_eq!(per_packet(SystemConfig::LibraryIpc, 13), 3);
    assert_eq!(per_packet(SystemConfig::UxServer, 15), 6);
}
