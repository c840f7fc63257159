//! End-to-end stack tests: two [`NetStack`] instances on separate
//! simulated hosts, joined by a minimal test wire. ARP, IP, ICMP, UDP
//! and TCP all run for real over it.

use super::*;
use psd_sim::{Observers, Profiler};

const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A direct wire between two stacks with a fixed propagation delay.
struct TestIf {
    mac: EtherAddr,
    peer: RefCell<Option<StackHandle>>,
    delay: SimTime,
}

impl TestIf {
    fn pair(sim_delay: SimTime) -> (Rc<TestIf>, Rc<TestIf>) {
        let a = Rc::new(TestIf {
            mac: EtherAddr::local(1),
            peer: RefCell::new(None),
            delay: sim_delay,
        });
        let b = Rc::new(TestIf {
            mac: EtherAddr::local(2),
            peer: RefCell::new(None),
            delay: sim_delay,
        });
        (a, b)
    }
}

impl NetIf for TestIf {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
        let Some(peer) = self.peer.borrow().clone() else {
            return;
        };
        let at = charge.at() + self.delay;
        sim.at(at, move |sim| {
            // Frames addressed to the peer or broadcast arrive there.
            let cpu = peer.borrow().cpu();
            let now = sim.now();
            let mut ch = cpu.borrow_mut().begin(now);
            peer.borrow_mut().input_frame(sim, &mut ch, &frame);
            cpu.borrow_mut().finish(ch);
        });
    }
}

struct Rig {
    sim: Sim,
    a: StackHandle,
    b: StackHandle,
    events: Rc<RefCell<Vec<(char, SockId, SockEvent)>>>,
}

impl Rig {
    fn new(placement: Placement) -> Rig {
        let mut sim = Sim::new(7);
        let _ = &mut sim;
        let cpu_a = Rc::new(RefCell::new(Cpu::new()));
        let cpu_b = Rc::new(RefCell::new(Cpu::new()));
        let costs = CostModel::decstation_5000_200();
        let a = NetStack::new(placement, costs.clone(), cpu_a, HOST_A);
        let b = NetStack::new(placement, costs, cpu_b, HOST_B);
        let (ifa, ifb) = TestIf::pair(SimTime::from_micros(120));
        *ifa.peer.borrow_mut() = Some(b.clone());
        *ifb.peer.borrow_mut() = Some(a.clone());
        a.borrow_mut().set_ifnet(ifa);
        b.borrow_mut().set_ifnet(ifb);
        for s in [&a, &b] {
            s.borrow_mut().routes = RouteTable::directly_attached(
                Ipv4Addr::new(10, 0, 0, 0),
                Ipv4Addr::new(255, 255, 255, 0),
            );
        }
        Rig {
            sim,
            a,
            b,
            events: Rc::new(RefCell::new(Vec::new())),
        }
    }

    fn sink_for(&self, tag: char) -> EventSink {
        let events = self.events.clone();
        Rc::new(RefCell::new(
            move |_: &mut Sim, sock: SockId, ev: SockEvent| {
                events.borrow_mut().push((tag, sock, ev));
            },
        ))
    }

    fn with_charge<R>(
        &mut self,
        stack: &StackHandle,
        f: impl FnOnce(&mut NetStack, &mut Sim, &mut Charge) -> R,
    ) -> R {
        let cpu = stack.borrow().cpu();
        let now = self.sim.now();
        let mut charge = cpu.borrow_mut().begin(now);
        let r = f(&mut stack.borrow_mut(), &mut self.sim, &mut charge);
        cpu.borrow_mut().finish(charge);
        r
    }

    fn saw(&self, tag: char, sock: SockId, ev: SockEvent) -> bool {
        self.events
            .borrow()
            .iter()
            .any(|(t, s, e)| *t == tag && *s == sock && *e == ev)
    }
}

#[test]
fn udp_end_to_end_with_real_arp() {
    let mut r = Rig::new(Placement::Server);
    let (sa, sb);
    {
        let a = r.a.clone();
        let b = r.b.clone();
        sa = a.borrow_mut().socket_udp();
        sb = b.borrow_mut().socket_udp();
        a.borrow_mut()
            .bind(sa, InetAddr::new(HOST_A, 5000))
            .unwrap();
        b.borrow_mut()
            .bind(sb, InetAddr::new(HOST_B, 6000))
            .unwrap();
        let sink = r.sink_for('b');
        b.borrow_mut().set_sink(sb, sink);
    }
    let a = r.a.clone();
    r.with_charge(&a, |s, sim, ch| {
        s.udp_send(
            sim,
            ch,
            sa,
            b"ping over udp",
            Some(InetAddr::new(HOST_B, 6000)),
        )
        .unwrap()
    });
    r.sim.run_to_idle();
    // ARP resolved on the fly: the datagram arrived after one
    // request/reply exchange.
    assert!(r.saw('b', sb, SockEvent::Readable));
    let b = r.b.clone();
    let (n, from, buf) = r.with_charge(&b, |s, sim, ch| {
        let mut buf = [0u8; 64];
        let (n, from) = s.udp_recv(sim, ch, sb, &mut buf).unwrap();
        (n, from, buf)
    });
    assert_eq!(&buf[..n], b"ping over udp");
    assert_eq!(from, InetAddr::new(HOST_A, 5000));
    assert_eq!(r.a.borrow().stats.udp_out, 1);
    assert_eq!(r.b.borrow().stats.udp_in, 1);
    assert!(r
        .a
        .borrow()
        .arp
        .lookup(HOST_B, SimTime::MAX.min(SimTime::from_secs(1)))
        .is_some());
}

#[test]
fn udp_to_closed_port_gets_icmp_refusal() {
    let mut r = Rig::new(Placement::Server);
    let a = r.a.clone();
    let sa = a.borrow_mut().socket_udp();
    a.borrow_mut()
        .bind(sa, InetAddr::new(HOST_A, 5000))
        .unwrap();
    a.borrow_mut()
        .connect_udp(sa, InetAddr::new(HOST_B, 9))
        .unwrap();
    let sink = r.sink_for('a');
    a.borrow_mut().set_sink(sa, sink);
    r.with_charge(&a, |s, sim, ch| {
        s.udp_send(sim, ch, sa, b"anyone there?", None).unwrap()
    });
    r.sim.run_to_idle();
    assert!(r.saw('a', sa, SockEvent::Error(SocketError::ConnRefused)));
    // The error is surfaced on the next operation.
    let err = r.with_charge(&a, |s, sim, ch| {
        let mut buf = [0u8; 8];
        s.udp_recv(sim, ch, sa, &mut buf).unwrap_err()
    });
    assert_eq!(err, SocketError::ConnRefused);
}

#[test]
fn port_unreachable_picks_its_socket_among_a_thousand() {
    let mut r = Rig::new(Placement::Server);
    let a = r.a.clone();
    let closed = InetAddr::new(HOST_B, 9);
    let udp_on = |port: u16, remote: Option<InetAddr>| {
        let mut s = a.borrow_mut();
        let sock = s.socket_udp();
        s.bind(sock, InetAddr::new(HOST_A, port)).unwrap();
        if let Some(remote) = remote {
            s.connect_udp(sock, remote).unwrap();
        }
        s.set_sink(sock, r.sink_for('a'));
        sock
    };
    // Connected to the same closed port, but from other local ports.
    let unrelated: Vec<SockId> = (0..1000)
        .map(|i| udp_on(10_000 + i, Some(closed)))
        .collect();
    // Two sockets qualify for a quote from port 5000; the earliest
    // bound must take the error, whatever order the socket map hashes to.
    let first = udp_on(5000, Some(closed));
    let second = udp_on(5000, Some(closed));
    let unconnected = udp_on(6000, None);
    let errors = |r: &Rig| -> Vec<SockId> {
        let events = r.events.borrow();
        let errs = events.iter().filter_map(|(_, sock, ev)| {
            matches!(ev, SockEvent::Error(SocketError::ConnRefused)).then_some(*sock)
        });
        errs.collect()
    };

    // A quote from port 6000 matches no connected socket.
    r.with_charge(&a, |s, sim, ch| {
        s.udp_send(sim, ch, unconnected, b"anyone?", Some(closed))
            .unwrap()
    });
    r.sim.run_to_idle();
    assert_eq!(a.borrow().stats.icmp_in, 1, "the refusal arrived");
    assert_eq!(errors(&r), []);

    r.with_charge(&a, |s, sim, ch| {
        s.udp_send(sim, ch, second, b"anyone?", None).unwrap()
    });
    r.sim.run_to_idle();
    assert_eq!(errors(&r), [first]);
    for sock in unrelated.into_iter().chain([second, unconnected]) {
        let got = r.with_charge(&a, |s, sim, ch| s.udp_recv(sim, ch, sock, &mut [0u8; 8]));
        assert_eq!(got.unwrap_err(), SocketError::WouldBlock);
    }
    let got = r.with_charge(&a, |s, sim, ch| s.udp_recv(sim, ch, first, &mut [0u8; 8]));
    assert_eq!(got.unwrap_err(), SocketError::ConnRefused);
}

#[test]
fn udp_fragmentation_reassembles_end_to_end() {
    let mut r = Rig::new(Placement::Server);
    let a = r.a.clone();
    let b = r.b.clone();
    let sa = a.borrow_mut().socket_udp();
    let sb = b.borrow_mut().socket_udp();
    a.borrow_mut()
        .bind(sa, InetAddr::new(HOST_A, 5000))
        .unwrap();
    b.borrow_mut()
        .bind(sb, InetAddr::new(HOST_B, 6000))
        .unwrap();
    let payload: Vec<u8> = (0..4000u32).map(|i| (i * 13) as u8).collect();
    r.with_charge(&a, |s, sim, ch| {
        s.udp_send(sim, ch, sa, &payload, Some(InetAddr::new(HOST_B, 6000)))
            .unwrap()
    });
    r.sim.run_to_idle();
    assert!(r.b.borrow().stats.reassembled >= 1);
    let got = r.with_charge(&b, |s, sim, ch| {
        let mut buf = vec![0u8; 8000];
        let (n, _) = s.udp_recv(sim, ch, sb, &mut buf).unwrap();
        buf.truncate(n);
        buf
    });
    assert_eq!(got, payload);
}

#[test]
fn tcp_connect_transfer_close_over_wire() {
    let mut r = Rig::new(Placement::Server);
    let a = r.a.clone();
    let b = r.b.clone();
    // B listens.
    let lb = b.borrow_mut().socket_tcp();
    b.borrow_mut().bind(lb, InetAddr::new(HOST_B, 80)).unwrap();
    b.borrow_mut().listen(lb, 5).unwrap();
    let sinkb = r.sink_for('b');
    b.borrow_mut().set_sink(lb, sinkb);
    // A connects.
    let ca = a.borrow_mut().socket_tcp();
    a.borrow_mut()
        .bind(ca, InetAddr::new(HOST_A, 4321))
        .unwrap();
    let sinka = r.sink_for('a');
    a.borrow_mut().set_sink(ca, sinka);
    r.with_charge(&a, |s, sim, ch| {
        s.connect_tcp(sim, ch, ca, InetAddr::new(HOST_B, 80))
            .unwrap()
    });
    r.sim.run_to_idle();
    assert!(r.saw('a', ca, SockEvent::Connected));
    assert!(r.saw('b', lb, SockEvent::Readable), "listener readable");
    let cb = b.borrow_mut().accept(lb).unwrap();
    assert_eq!(
        b.borrow().remote_addr(cb),
        Some(InetAddr::new(HOST_A, 4321))
    );

    // Request/response.
    r.with_charge(&a, |s, sim, ch| {
        s.tcp_send(sim, ch, ca, b"GET /paper HTTP/0.9").unwrap()
    });
    r.sim.run_to_idle();
    let got = r.with_charge(&b, |s, sim, ch| {
        let mut buf = [0u8; 128];
        let n = s.tcp_recv(sim, ch, cb, &mut buf).unwrap();
        buf[..n].to_vec()
    });
    assert_eq!(got, b"GET /paper HTTP/0.9");
    r.with_charge(&b, |s, sim, ch| {
        s.tcp_send(sim, ch, cb, b"the bytes of the paper").unwrap()
    });
    r.sim.run_to_idle();
    let got = r.with_charge(&a, |s, sim, ch| {
        let mut buf = [0u8; 128];
        let n = s.tcp_recv(sim, ch, ca, &mut buf).unwrap();
        buf[..n].to_vec()
    });
    assert_eq!(got, b"the bytes of the paper");

    // Orderly close from A; B sees EOF, closes too; both sides settle.
    r.with_charge(&a, |s, sim, ch| s.close(sim, ch, ca));
    r.sim.run_to_idle();
    assert!(r.saw('b', cb, SockEvent::PeerClosed));
    let eof = r.with_charge(&b, |s, sim, ch| {
        let mut buf = [0u8; 8];
        s.tcp_recv(sim, ch, cb, &mut buf)
    });
    assert_eq!(eof.unwrap(), 0, "EOF after FIN");
    r.with_charge(&b, |s, sim, ch| s.close(sim, ch, cb));
    // Run long enough for TIME_WAIT to expire.
    r.sim.run_to_idle();
    assert_eq!(r.a.borrow().tcp_state(ca), Some(TcpState::Closed));
}

#[test]
fn tcp_bulk_transfer_across_wire() {
    let mut r = Rig::new(Placement::Server);
    let a = r.a.clone();
    let b = r.b.clone();
    let lb = b.borrow_mut().socket_tcp();
    b.borrow_mut().bind(lb, InetAddr::new(HOST_B, 80)).unwrap();
    b.borrow_mut().listen(lb, 5).unwrap();
    let ca = a.borrow_mut().socket_tcp();
    a.borrow_mut()
        .bind(ca, InetAddr::new(HOST_A, 4321))
        .unwrap();
    r.with_charge(&a, |s, sim, ch| {
        s.connect_tcp(sim, ch, ca, InetAddr::new(HOST_B, 80))
            .unwrap()
    });
    r.sim.run_to_idle();
    let cb = b.borrow_mut().accept(lb).unwrap();

    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
    let mut sent = 0;
    let mut received = Vec::new();
    let mut rounds = 0;
    while received.len() < data.len() {
        rounds += 1;
        assert!(rounds < 10_000, "stalled at {} bytes", received.len());
        if sent < data.len() {
            let n = r.with_charge(&a, |s, sim, ch| {
                match s.tcp_send(sim, ch, ca, &data[sent..]) {
                    Ok(n) => n,
                    Err(SocketError::WouldBlock) => 0,
                    Err(e) => panic!("send: {e}"),
                }
            });
            sent += n;
        }
        // Let the wire and all timers (delayed ACKs etc.) run.
        let deadline = r.sim.now() + SimTime::from_millis(300);
        r.sim.run_until(deadline);
        let chunk = r.with_charge(&b, |s, sim, ch| {
            let mut buf = vec![0u8; 16 * 1024];
            match s.tcp_recv(sim, ch, cb, &mut buf) {
                Ok(n) => {
                    buf.truncate(n);
                    buf
                }
                Err(SocketError::WouldBlock) => Vec::new(),
                Err(e) => panic!("recv: {e}"),
            }
        });
        received.extend_from_slice(&chunk);
    }
    assert_eq!(received, data);
    assert!(r.a.borrow().stats.tcp_out > 70, "should take many segments");
}

#[test]
fn tcp_recovers_from_frame_loss() {
    // Drop every 7th frame A→B at the wire by wrapping the interface.
    struct LossyIf {
        inner: Rc<TestIf>,
        counter: RefCell<u32>,
    }
    impl NetIf for LossyIf {
        fn mac(&self) -> EtherAddr {
            self.inner.mac()
        }
        fn transmit(&self, sim: &mut Sim, charge: &mut Charge, frame: Vec<u8>) {
            let mut c = self.counter.borrow_mut();
            *c += 1;
            if (*c).is_multiple_of(7) {
                return; // Lost on the wire.
            }
            drop(c);
            self.inner.transmit(sim, charge, frame);
        }
    }

    let mut r = Rig::new(Placement::Server);
    let a = r.a.clone();
    let b = r.b.clone();
    // Wrap A's interface with loss.
    let (ifa, ifb) = TestIf::pair(SimTime::from_micros(120));
    *ifa.peer.borrow_mut() = Some(b.clone());
    *ifb.peer.borrow_mut() = Some(a.clone());
    a.borrow_mut().set_ifnet(Rc::new(LossyIf {
        inner: ifa,
        counter: RefCell::new(0),
    }));
    b.borrow_mut().set_ifnet(ifb);

    let lb = b.borrow_mut().socket_tcp();
    b.borrow_mut().bind(lb, InetAddr::new(HOST_B, 80)).unwrap();
    b.borrow_mut().listen(lb, 5).unwrap();
    let ca = a.borrow_mut().socket_tcp();
    a.borrow_mut()
        .bind(ca, InetAddr::new(HOST_A, 4321))
        .unwrap();
    r.with_charge(&a, |s, sim, ch| {
        s.connect_tcp(sim, ch, ca, InetAddr::new(HOST_B, 80))
            .unwrap()
    });
    // SYN may be lost; let retransmission do its job.
    let deadline = r.sim.now() + SimTime::from_secs(10);
    r.sim.run_until(deadline);
    let cb = b
        .borrow_mut()
        .accept(lb)
        .expect("connection established despite loss");

    let data: Vec<u8> = (0..30_000u32).map(|i| (i % 199) as u8).collect();
    let mut sent = 0;
    let mut received = Vec::new();
    let mut rounds = 0;
    while received.len() < data.len() {
        rounds += 1;
        assert!(rounds < 20_000, "stalled at {} bytes", received.len());
        if sent < data.len() {
            let n = r.with_charge(&a, |s, sim, ch| {
                s.tcp_send(sim, ch, ca, &data[sent..]).unwrap_or(0)
            });
            sent += n;
        }
        let deadline = r.sim.now() + SimTime::from_millis(600);
        r.sim.run_until(deadline);
        let chunk = r.with_charge(&b, |s, sim, ch| {
            let mut buf = vec![0u8; 16 * 1024];
            match s.tcp_recv(sim, ch, cb, &mut buf) {
                Ok(n) => {
                    buf.truncate(n);
                    buf
                }
                Err(_) => Vec::new(),
            }
        });
        received.extend_from_slice(&chunk);
    }
    assert_eq!(
        received, data,
        "exactly-once in-order delivery despite loss"
    );
    assert!(
        r.a.borrow().stats.tcp_rexmt > 0,
        "loss must cause retransmits"
    );
}

#[test]
fn session_migration_between_stacks_mid_connection() {
    // A "server stack" and a "library stack" on host B share the host
    // IP; an established connection migrates between them, as in §3.1.
    let mut r = Rig::new(Placement::Server);
    let a = r.a.clone();
    let b_server = r.b.clone();
    let cpu_b = b_server.borrow().cpu();
    let b_lib = NetStack::new(
        Placement::Library,
        CostModel::decstation_5000_200(),
        cpu_b,
        HOST_B,
    );
    // The library stack shares B's interface and metastate snapshot.
    let (ifa2, ifb2) = TestIf::pair(SimTime::from_micros(120));
    let _ = (ifa2,); // Only the B-side interface is used by the lib stack.
    *ifb2.peer.borrow_mut() = Some(a.clone());
    b_lib.borrow_mut().set_ifnet(ifb2);
    b_lib.borrow_mut().routes = b_server.borrow().routes.clone();

    // Establish A → B(server).
    let lb = b_server.borrow_mut().socket_tcp();
    b_server
        .borrow_mut()
        .bind(lb, InetAddr::new(HOST_B, 80))
        .unwrap();
    b_server.borrow_mut().listen(lb, 5).unwrap();
    let ca = a.borrow_mut().socket_tcp();
    a.borrow_mut()
        .bind(ca, InetAddr::new(HOST_A, 4321))
        .unwrap();
    r.with_charge(&a, |s, sim, ch| {
        s.connect_tcp(sim, ch, ca, InetAddr::new(HOST_B, 80))
            .unwrap()
    });
    r.sim.run_to_idle();
    let cb = b_server.borrow_mut().accept(lb).unwrap();
    r.with_charge(&a, |s, sim, ch| {
        s.tcp_send(sim, ch, ca, b"pre-migration ").unwrap()
    });
    r.sim.run_to_idle();

    // Migrate: export from the server stack, import into the library
    // stack (the kernel-side filter retarget is exercised at the
    // systems level).
    let state = b_server
        .borrow_mut()
        .export_session(&mut r.sim, cb)
        .expect("migratable");
    // ARP/route metastate snapshot travels along (§3.3).
    let now = r.sim.now();
    for (ip, mac) in b_server.borrow().arp.snapshot(now) {
        b_lib.borrow_mut().arp.insert(ip, mac, now);
    }
    let cb2 = b_lib.borrow_mut().import_session(&mut r.sim, state);

    // A keeps sending; the library stack now owns the session. Deliver
    // A's frames to the library stack by rewiring A's interface peer.
    let (ifa3, ifb3) = TestIf::pair(SimTime::from_micros(120));
    *ifa3.peer.borrow_mut() = Some(b_lib.clone());
    *ifb3.peer.borrow_mut() = Some(a.clone());
    a.borrow_mut().set_ifnet(ifa3);
    r.with_charge(&a, |s, sim, ch| {
        s.tcp_send(sim, ch, ca, b"post-migration").unwrap()
    });
    let deadline = r.sim.now() + SimTime::from_secs(5);
    r.sim.run_until(deadline);

    let got = {
        let cpu = b_lib.borrow().cpu();
        let now = r.sim.now();
        let mut ch = cpu.borrow_mut().begin(now);
        let mut buf = [0u8; 128];
        let n = b_lib
            .borrow_mut()
            .tcp_recv(&mut r.sim, &mut ch, cb2, &mut buf)
            .unwrap();
        cpu.borrow_mut().finish(ch);
        buf[..n].to_vec()
    };
    assert_eq!(got, b"pre-migration post-migration");
}

#[test]
fn library_placement_uses_arp_resolver_upcall() {
    let mut r = Rig::new(Placement::Server);
    let a_lib = {
        let cpu = r.a.borrow().cpu();
        NetStack::new(
            Placement::Library,
            CostModel::decstation_5000_200(),
            cpu,
            HOST_A,
        )
    };
    let (ifa, ifb) = TestIf::pair(SimTime::from_micros(120));
    *ifa.peer.borrow_mut() = Some(r.b.clone());
    *ifb.peer.borrow_mut() = Some(a_lib.clone());
    a_lib.borrow_mut().set_ifnet(ifa);
    r.b.borrow_mut().set_ifnet(ifb);
    a_lib.borrow_mut().routes =
        RouteTable::directly_attached(Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(255, 255, 255, 0));
    // Resolver "RPC" answering from a fixed table, counting calls.
    let calls = Rc::new(RefCell::new(0u32));
    let calls2 = calls.clone();
    a_lib
        .borrow_mut()
        .set_arp_resolver(Box::new(move |_sim, _ch, ip| {
            *calls2.borrow_mut() += 1;
            (ip == HOST_B).then(|| EtherAddr::local(2))
        }));

    let sb = r.b.borrow_mut().socket_udp();
    r.b.borrow_mut().bind(sb, InetAddr::new(HOST_B, 7)).unwrap();
    let sa = a_lib.borrow_mut().socket_udp();
    a_lib
        .borrow_mut()
        .bind(sa, InetAddr::new(HOST_A, 9000))
        .unwrap();
    for _ in 0..3 {
        let cpu = a_lib.borrow().cpu();
        let now = r.sim.now();
        let mut ch = cpu.borrow_mut().begin(now);
        a_lib
            .borrow_mut()
            .udp_send(
                &mut r.sim,
                &mut ch,
                sa,
                b"x",
                Some(InetAddr::new(HOST_B, 7)),
            )
            .unwrap();
        cpu.borrow_mut().finish(ch);
        r.sim.run_to_idle();
    }
    assert_eq!(*calls.borrow(), 1, "resolver consulted once, then cached");
    assert_eq!(r.b.borrow().stats.udp_in, 3);
}

#[test]
fn profiler_attributes_layers_on_both_paths() {
    let mut r = Rig::new(Placement::Server);
    let prof = Profiler::shared();
    for stack in [&r.a, &r.b] {
        stack.borrow().cpu().borrow_mut().set_observers(Observers {
            profile: Some(prof.clone()),
            ..Observers::default()
        });
    }
    let a = r.a.clone();
    let b = r.b.clone();
    let sa = a.borrow_mut().socket_udp();
    let sb = b.borrow_mut().socket_udp();
    a.borrow_mut().bind(sa, InetAddr::new(HOST_A, 1)).unwrap();
    b.borrow_mut().bind(sb, InetAddr::new(HOST_B, 2)).unwrap();
    // A blocked reader must exist for the wakeup to be charged.
    let sink = r.sink_for('b');
    b.borrow_mut().set_sink(sb, sink);
    r.with_charge(&a, |s, sim, ch| {
        s.udp_send(sim, ch, sa, &[9u8; 100], Some(InetAddr::new(HOST_B, 2)))
            .unwrap()
    });
    r.sim.run_to_idle();
    let _ = r.with_charge(&b, |s, sim, ch| {
        let mut buf = [0u8; 128];
        s.udp_recv(sim, ch, sb, &mut buf).map(|x| x.0).unwrap_or(0)
    });
    let p = prof.borrow();
    for layer in [
        Layer::EntryCopyin,
        Layer::TcpUdpOutput,
        Layer::IpOutput,
        Layer::EtherOutput,
        Layer::IpIntr,
        Layer::TcpUdpInput,
        Layer::WakeupUserThread,
        Layer::CopyoutExit,
    ] {
        assert!(p.layer_ns(layer) > 0, "layer {layer} unattributed");
    }
}

#[test]
fn listener_backlog_drops_excess_syns() {
    let mut r = Rig::new(Placement::Server);
    let b = r.b.clone();
    let lb = b.borrow_mut().socket_tcp();
    b.borrow_mut().bind(lb, InetAddr::new(HOST_B, 80)).unwrap();
    b.borrow_mut().listen(lb, 2).unwrap();
    // Three clients connect; only two fit the backlog at once.
    let a = r.a.clone();
    let mut socks = Vec::new();
    for port in [4000u16, 4001, 4002] {
        let ca = a.borrow_mut().socket_tcp();
        a.borrow_mut()
            .bind(ca, InetAddr::new(HOST_A, port))
            .unwrap();
        r.with_charge(&a, |s, sim, ch| {
            s.connect_tcp(sim, ch, ca, InetAddr::new(HOST_B, 80))
                .unwrap()
        });
        socks.push(ca);
    }
    // Run briefly: the third SYN is dropped while the backlog is full.
    let deadline = r.sim.now() + SimTime::from_millis(50);
    r.sim.run_until(deadline);
    assert_eq!(b.borrow().accept_queue_len(lb), 2);
    // Accept one; the third client's SYN retransmission then lands.
    let _c1 = b.borrow_mut().accept(lb).unwrap();
    let deadline = r.sim.now() + SimTime::from_secs(20);
    r.sim.run_until(deadline);
    assert!(b.borrow().accept_queue_len(lb) >= 1, "retry fills the slot");
    // All three clients eventually establish.
    let established = socks
        .iter()
        .filter(|s| r.a.borrow().tcp_state(**s) == Some(TcpState::Established))
        .count();
    assert_eq!(established, 3);
}

#[test]
fn recv_buffer_resizing_raises_advertised_window() {
    let mut r = Rig::new(Placement::Server);
    let b = r.b.clone();
    let a = r.a.clone();
    let lb = b.borrow_mut().socket_tcp();
    b.borrow_mut().bind(lb, InetAddr::new(HOST_B, 80)).unwrap();
    b.borrow_mut().listen(lb, 2).unwrap();
    let ca = a.borrow_mut().socket_tcp();
    a.borrow_mut()
        .bind(ca, InetAddr::new(HOST_A, 4000))
        .unwrap();
    r.with_charge(&a, |s, sim, ch| {
        s.connect_tcp(sim, ch, ca, InetAddr::new(HOST_B, 80))
            .unwrap()
    });
    r.sim.run_to_idle();
    let cb = b.borrow_mut().accept(lb).unwrap();
    // Grow the receive buffer "on demand for busy sessions".
    b.borrow_mut().set_recv_buffer(cb, 120 * 1024);
    // Push a burst; with the bigger buffer the receiver can hold far
    // more than the old default without reading.
    let mut sent = 0;
    for _ in 0..200 {
        let n = r.with_charge(&a, |s, sim, ch| {
            s.tcp_send(sim, ch, ca, &[1u8; 4096]).unwrap_or(0)
        });
        sent += n;
        let deadline = r.sim.now() + SimTime::from_millis(40);
        r.sim.run_until(deadline);
        if sent >= 64 * 1024 {
            break;
        }
    }
    let deadline = r.sim.now() + SimTime::from_secs(3);
    r.sim.run_until(deadline);
    assert!(
        r.b.borrow().readable(cb) > 32 * 1024,
        "got {}",
        r.b.borrow().readable(cb)
    );
}

#[test]
fn newapi_shared_send_and_chain_recv() {
    let mut r = Rig::new(Placement::Library);
    // Library placement needs resolvers; pre-seed the ARP caches.
    let now = r.sim.now();
    r.a.borrow_mut()
        .arp
        .insert(HOST_B, EtherAddr::local(2), now);
    r.b.borrow_mut()
        .arp
        .insert(HOST_A, EtherAddr::local(1), now);
    let b = r.b.clone();
    let a = r.a.clone();
    let lb = b.borrow_mut().socket_tcp();
    b.borrow_mut().bind(lb, InetAddr::new(HOST_B, 80)).unwrap();
    b.borrow_mut().listen(lb, 2).unwrap();
    let ca = a.borrow_mut().socket_tcp();
    a.borrow_mut()
        .bind(ca, InetAddr::new(HOST_A, 4000))
        .unwrap();
    r.with_charge(&a, |s, sim, ch| {
        s.connect_tcp(sim, ch, ca, InetAddr::new(HOST_B, 80))
            .unwrap()
    });
    r.sim.run_to_idle();
    let cb = b.borrow_mut().accept(lb).unwrap();

    // Shared-buffer send: no copy into the socket queue.
    let payload = Rc::new((0..3000u32).map(|i| (i % 89) as u8).collect::<Vec<u8>>());
    let n = r.with_charge(&a, |s, sim, ch| {
        s.tcp_send_shared(sim, ch, ca, payload.clone()).unwrap()
    });
    assert_eq!(n, 3000);
    r.sim.run_to_idle();
    // Chain receive: hand the buffered data over without a copyout.
    let chain = r.with_charge(&b, |s, sim, ch| {
        s.tcp_recv_chain(sim, ch, cb, 8192).unwrap()
    });
    assert_eq!(chain.to_vec(), payload.as_slice());
}
