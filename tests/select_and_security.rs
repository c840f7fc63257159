//! The cooperative `select` (§3.2) and the packet-filter security
//! property (§3.4).

mod common;

use common::{run_until, udp_echo_server};
use psd::core::{AppLib, Fd, SelectOutcome};
use psd::netstack::InetAddr;
use psd::server::Proto;
use psd::sim::{Platform, SimTime};
use psd::systems::{SystemConfig, TestBed};
use std::cell::RefCell;
use std::rc::Rc;

fn lib_bed(seed: u64) -> TestBed {
    TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, seed)
}

#[test]
fn select_on_local_descriptors_does_not_involve_the_server() {
    let mut bed = lib_bed(61);
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let app = bed.hosts[0].spawn_app();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 9000).unwrap();
    AppLib::connect(&app, &mut bed.sim, fd, InetAddr::new(bed.hosts[1].ip, 53)).unwrap();
    bed.settle();
    AppLib::sendto(&app, &mut bed.sim, fd, b"warm", None).unwrap();
    bed.settle();
    let mut buf = [0u8; 16];
    let _ = AppLib::recvfrom(&app, &mut bed.sim, fd, &mut buf);

    let rpcs_before = app.borrow().stats.control_rpcs;
    // Select, then make data arrive; the wait must complete without any
    // server interaction ("In cases where all descriptors are managed
    // by the application, the operating system is not involved").
    let outcome: Rc<RefCell<Option<SelectOutcome>>> = Rc::new(RefCell::new(None));
    let o2 = outcome.clone();
    AppLib::select(
        &app,
        &mut bed.sim,
        vec![fd],
        vec![],
        Some(SimTime::from_secs(5)),
        Box::new(move |_sim, o| *o2.borrow_mut() = Some(o)),
    );
    AppLib::sendto(&app, &mut bed.sim, fd, b"trigger", None).unwrap();
    assert!(run_until(&mut bed, SimTime::from_secs(10), || {
        outcome.borrow().is_some()
    }));
    let o = outcome.borrow().clone().unwrap();
    assert_eq!(o.readable, vec![fd]);
    assert!(!o.timed_out);
    assert_eq!(
        app.borrow().stats.control_rpcs,
        rpcs_before,
        "local-only select must not call the server"
    );
}

#[test]
fn select_timeout_fires_when_nothing_is_ready() {
    let mut bed = lib_bed(63);
    let app = bed.hosts[0].spawn_app();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 9100).unwrap();
    let outcome: Rc<RefCell<Option<SelectOutcome>>> = Rc::new(RefCell::new(None));
    let o2 = outcome.clone();
    AppLib::select(
        &app,
        &mut bed.sim,
        vec![fd],
        vec![],
        Some(SimTime::from_millis(100)),
        Box::new(move |_sim, o| *o2.borrow_mut() = Some(o)),
    );
    assert!(run_until(&mut bed, SimTime::from_secs(2), || {
        outcome.borrow().is_some()
    }));
    assert!(outcome.borrow().as_ref().unwrap().timed_out);
}

#[test]
fn mixed_select_wakes_via_proxy_status() {
    // One migrated (local) descriptor and one server-resident
    // descriptor force the cooperative path: the server's select must
    // be woken by the library's proxy_status report when local data
    // arrives.
    let mut bed = lib_bed(67);
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let app = bed.hosts[0].spawn_app();
    // Local descriptor.
    let local_fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, local_fd, 9000).unwrap();
    AppLib::connect(
        &app,
        &mut bed.sim,
        local_fd,
        InetAddr::new(bed.hosts[1].ip, 53),
    )
    .unwrap();
    // Server-resident descriptor: a TCP listener stays in the server.
    let listener = AppLib::socket(&app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&app, &mut bed.sim, listener, 2323).unwrap();
    AppLib::listen(&app, &mut bed.sim, listener, 2).unwrap();
    bed.settle();

    let outcome: Rc<RefCell<Option<SelectOutcome>>> = Rc::new(RefCell::new(None));
    let o2 = outcome.clone();
    AppLib::select(
        &app,
        &mut bed.sim,
        vec![local_fd, listener],
        vec![],
        Some(SimTime::from_secs(30)),
        Box::new(move |_sim, o| *o2.borrow_mut() = Some(o)),
    );
    let status_before = app.borrow().stats.status_reports;
    // Trigger the local descriptor.
    AppLib::sendto(&app, &mut bed.sim, local_fd, b"trigger", None).unwrap();
    assert!(run_until(&mut bed, SimTime::from_secs(30), || {
        outcome.borrow().is_some()
    }));
    let o = outcome.borrow().clone().unwrap();
    assert!(o.readable.contains(&local_fd));
    assert!(!o.timed_out);
    assert!(
        app.borrow().stats.status_reports > status_before,
        "the library must have reported the status change (proxy_status)"
    );
}

#[test]
fn select_wakes_on_server_resident_listener() {
    // The inverse: the watched event happens on the server-resident
    // descriptor (an incoming connection).
    let mut bed = lib_bed(69);
    let app = bed.hosts[1].spawn_app();
    let listener = AppLib::socket(&app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&app, &mut bed.sim, listener, 80).unwrap();
    AppLib::listen(&app, &mut bed.sim, listener, 2).unwrap();
    // Also watch a quiet local UDP socket to force the mixed path.
    let quiet = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, quiet, 9500).unwrap();

    let outcome: Rc<RefCell<Option<SelectOutcome>>> = Rc::new(RefCell::new(None));
    let o2 = outcome.clone();
    AppLib::select(
        &app,
        &mut bed.sim,
        vec![listener, quiet],
        vec![],
        Some(SimTime::from_secs(30)),
        Box::new(move |_sim, o| *o2.borrow_mut() = Some(o)),
    );
    // A client connects from the other host.
    let client_app = bed.hosts[0].spawn_app();
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    let _client = common::tcp_client(&mut bed, &client_app, dst);
    assert!(run_until(&mut bed, SimTime::from_secs(30), || {
        outcome.borrow().is_some()
    }));
    let o = outcome.borrow().clone().unwrap();
    assert!(o.readable.contains(&listener), "listener became acceptable");
}

#[test]
fn packet_filters_isolate_applications() {
    // Two applications on the same host, each with its own UDP session.
    // Traffic for one must never reach the other's stack (§3.4).
    let mut bed = lib_bed(71);
    let app_a = bed.hosts[0].spawn_app();
    let app_b = bed.hosts[0].spawn_app();
    let fd_a = AppLib::socket(&app_a, &mut bed.sim, Proto::Udp);
    let fd_b = AppLib::socket(&app_b, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app_a, &mut bed.sim, fd_a, 1000).unwrap();
    AppLib::bind(&app_b, &mut bed.sim, fd_b, 2000).unwrap();

    // A sender on the other host sprays both ports.
    let sender = bed.hosts[1].spawn_app();
    let sfd = AppLib::socket(&sender, &mut bed.sim, Proto::Udp);
    AppLib::bind(&sender, &mut bed.sim, sfd, 3000).unwrap();
    bed.settle();
    // Warm the ARP path (the first cold-cache datagram may drop, which
    // is legitimate UDP behaviour).
    AppLib::sendto(
        &sender,
        &mut bed.sim,
        sfd,
        b"warm",
        Some(InetAddr::new(bed.hosts[0].ip, 9)),
    )
    .unwrap();
    bed.settle();
    for _ in 0..3 {
        AppLib::sendto(
            &sender,
            &mut bed.sim,
            sfd,
            b"for A",
            Some(InetAddr::new(bed.hosts[0].ip, 1000)),
        )
        .unwrap();
        AppLib::sendto(
            &sender,
            &mut bed.sim,
            sfd,
            b"for B",
            Some(InetAddr::new(bed.hosts[0].ip, 2000)),
        )
        .unwrap();
        bed.settle();
    }
    let stack_a = app_a.borrow().stack().unwrap();
    let stack_b = app_b.borrow().stack().unwrap();
    assert_eq!(stack_a.borrow().stats.udp_in, 3, "A sees exactly its own");
    assert_eq!(stack_b.borrow().stats.udp_in, 3, "B sees exactly its own");
    // And the frames really were demultiplexed by the kernel filter.
    let kstats = bed.hosts[0].kernel.borrow().stats();
    assert!(kstats.rx_session >= 6);
}

#[test]
fn closed_session_filters_are_removed() {
    let mut bed = lib_bed(73);
    let app = bed.hosts[0].spawn_app();
    let fd = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd, 1000).unwrap();
    bed.settle();
    AppLib::close(&app, &mut bed.sim, fd);
    bed.settle();
    // Traffic to the old port now falls to the server (which answers
    // ICMP port unreachable), not to the application.
    let sender = bed.hosts[1].spawn_app();
    let sfd = AppLib::socket(&sender, &mut bed.sim, Proto::Udp);
    AppLib::bind(&sender, &mut bed.sim, sfd, 3000).unwrap();
    bed.settle();
    // Warm the ARP path first (a cold-cache datagram may drop).
    AppLib::sendto(
        &sender,
        &mut bed.sim,
        sfd,
        b"warm",
        Some(InetAddr::new(bed.hosts[0].ip, 9)),
    )
    .unwrap();
    bed.settle();
    let before_session = bed.hosts[0].kernel.borrow().stats().rx_session;
    AppLib::sendto(
        &sender,
        &mut bed.sim,
        sfd,
        b"ghost",
        Some(InetAddr::new(bed.hosts[0].ip, 1000)),
    )
    .unwrap();
    bed.settle();
    let k = bed.hosts[0].kernel.borrow().stats();
    assert_eq!(
        k.rx_session, before_session,
        "no session filter may claim traffic for a closed session"
    );
    let os_stack = bed.hosts[0].server.as_ref().unwrap().borrow().stack();
    assert!(os_stack.borrow().stats.no_socket >= 1);
}

#[test]
fn fd_events_route_to_correct_descriptor() {
    // Regression guard for the sock→fd routing table: two sockets in
    // one app, events must not cross.
    let mut bed = lib_bed(79);
    let server_app = bed.hosts[1].spawn_app();
    udp_echo_server(&mut bed, &server_app, 53);
    let app = bed.hosts[0].spawn_app();
    let fd1 = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    let fd2 = AppLib::socket(&app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&app, &mut bed.sim, fd1, 9001).unwrap();
    AppLib::bind(&app, &mut bed.sim, fd2, 9002).unwrap();
    let hits: Rc<RefCell<Vec<Fd>>> = Rc::new(RefCell::new(Vec::new()));
    for fd in [fd1, fd2] {
        let hits = hits.clone();
        app.borrow_mut().set_event_handler(
            fd,
            Rc::new(RefCell::new(
                move |_sim: &mut psd::sim::Sim, fd: Fd, ev: psd::netstack::SockEvent| {
                    if ev == psd::netstack::SockEvent::Readable {
                        hits.borrow_mut().push(fd);
                    }
                },
            )),
        );
    }
    // Warm the path: connect prewarms the metastate cache.
    AppLib::connect(&app, &mut bed.sim, fd2, InetAddr::new(bed.hosts[1].ip, 53)).unwrap();
    bed.settle();
    AppLib::sendto(&app, &mut bed.sim, fd2, b"only fd2 expects a reply", None).unwrap();
    bed.settle();
    assert_eq!(hits.borrow().as_slice(), &[fd2]);
}

/// The §3.4 outbound limiter guards the frames a user-space stack
/// actually sends: the library's and the server's stacks transmit
/// through the kernel's one send trap, so a policy that admits ARP and
/// UDP to one port lets that datagram through and keeps a datagram to
/// any other port off the wire.
#[test]
fn outbound_limiter_guards_user_space_stacks() {
    use psd::filter::{Binop, Insn, Program};
    const ALLOWED: u16 = 5000;
    const BLOCKED: u16 = 6000;
    // ARP passes; otherwise IPv4, UDP, and the allowed destination port
    // (a 20-byte IP header puts it at byte 36).
    let policy = Program::new(vec![
        Insn::PushWord(12),
        Insn::PushLit(0x0806),
        Insn::CombineOr(Binop::Eq),
        Insn::PushWord(12),
        Insn::PushLit(0x0800),
        Insn::CombineAnd(Binop::Eq),
        Insn::PushWord(22),
        Insn::PushLit(0x00FF),
        Insn::Op(Binop::And),
        Insn::PushLit(17),
        Insn::CombineAnd(Binop::Eq),
        Insn::PushWord(36),
        Insn::PushLit(ALLOWED),
        Insn::Op(Binop::Eq),
        Insn::Ret,
    ]);
    for config in [
        SystemConfig::LibraryShm,
        SystemConfig::LibraryShmIpf,
        SystemConfig::UxServer,
    ] {
        let label = config.label();
        let mut bed = TestBed::new(config, Platform::DecStation5000_200, 81);
        let receiver = bed.hosts[1].spawn_app();
        let [allowed, blocked] = [ALLOWED, BLOCKED].map(|port| {
            let fd = AppLib::socket(&receiver, &mut bed.sim, Proto::Udp);
            AppLib::bind(&receiver, &mut bed.sim, fd, port).unwrap();
            fd
        });
        let sender = bed.hosts[0].spawn_app();
        let sfd = AppLib::socket(&sender, &mut bed.sim, Proto::Udp);
        AppLib::bind(&sender, &mut bed.sim, sfd, 3000).unwrap();
        bed.settle();
        bed.hosts[0]
            .kernel
            .borrow_mut()
            .set_tx_limiter(Some(policy.clone()));
        let to = |port| Some(InetAddr::new(bed.hosts[1].ip, port));
        let (to_allowed, to_blocked) = (to(ALLOWED), to(BLOCKED));
        let mut buf = [0u8; 16];

        // Twice: a cold ARP cache may legitimately drop the first.
        for _ in 0..2 {
            AppLib::sendto(&sender, &mut bed.sim, sfd, b"allowed", to_allowed).unwrap();
            bed.settle();
        }
        assert!(
            AppLib::recvfrom(&receiver, &mut bed.sim, allowed, &mut buf).is_ok(),
            "{label}: the admitted datagram is delivered"
        );
        let wire_before = bed.ether.borrow().stats().tx_frames;
        let rejected_before = bed.hosts[0].kernel.borrow().stats().tx_rejected;

        AppLib::sendto(&sender, &mut bed.sim, sfd, b"blocked", to_blocked).unwrap();
        bed.settle();
        assert_eq!(
            bed.ether.borrow().stats().tx_frames,
            wire_before,
            "{label}: the refused datagram never reaches the wire"
        );
        assert_eq!(
            bed.hosts[0].kernel.borrow().stats().tx_rejected,
            rejected_before + 1,
            "{label}: the limiter counts the refusal"
        );
        assert!(
            AppLib::recvfrom(&receiver, &mut bed.sim, blocked, &mut buf).is_err(),
            "{label}: nothing arrives on the refused port"
        );
    }
}
