//! `fanin_cspf` and `fanin_mpf`: an open loop of seeded-bursty 64 B
//! datagrams at 4096 UDP sessions (every 4th connected) plus 32 idle
//! TCP connections on one Library-SHM receiver, demultiplexed by CSPF
//! or by MPF.

use std::cell::Cell;
use std::rc::Rc;

use psd_core::Fd;
use psd_filter::DemuxStrategy;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{Rng, SimTime};
use psd_systems::SystemConfig;

use super::{Harness, Rep, RepSpec, FANIN_PAYLOAD, FANIN_TCP, FANIN_UDP};
use crate::spec::Workload;

const TX_SOCKS: usize = 4;
const TX_PORT_BASE: u16 = 9000;
const RX_PORT_BASE: u16 = 10_000;
const FANIN_TCP_PORT: u16 = 20_000;

pub(super) fn run(spec: &RepSpec) -> Rep {
    let strategy = if spec.workload == Workload::FaninCspf {
        DemuxStrategy::Cspf
    } else {
        DemuxStrategy::Mpf
    };
    let mut h = Harness::new(spec, SystemConfig::LibraryShm, strategy);
    let (api, meter, pat) = (h.api.clone(), h.meter.clone(), h.pattern.clone());
    let (ip0, ip1) = (h.bed.hosts[0].ip, h.bed.hosts[1].ip);
    let mut rng = Rng::new(spec.seed ^ 0x5EED_5CA1_E000_0001);
    let mut ok = true;

    // Sender: a few fixed source sockets, then one datagram to warm the
    // ARP path so the schedule meets no cold-cache drop.
    let tx_fds: Vec<Fd> = (0..TX_SOCKS)
        .map(|j| {
            let fd = api.socket(&mut h.bed.sim, 0, Proto::Udp);
            ok &= api
                .bind(&mut h.bed.sim, 0, fd, TX_PORT_BASE + j as u16)
                .is_ok();
            fd
        })
        .collect();
    h.bed.settle();
    ok &= api
        .sendto(
            &mut h.bed.sim,
            0,
            tx_fds[0],
            b"warm",
            Some(InetAddr::new(ip1, 9)),
        )
        .is_ok();
    h.bed.settle();

    // Receiver: every session drains on Readable. A datagram names its
    // message in its first 8 bytes; the rest is the seeded pattern.
    let drain = {
        let (api2, meter, pat) = (api.clone(), meter.clone(), pat.clone());
        let mut buf = vec![0u8; 2048];
        api.handler(move |sim, fd, ev| {
            if ev != SockEvent::Readable {
                return;
            }
            loop {
                match api2.recvfrom(sim, 1, fd, &mut buf) {
                    Ok((n, _)) => {
                        let mut m = meter.borrow_mut();
                        let k = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")) as usize;
                        if n != FANIN_PAYLOAD || k >= m.done_at.len() {
                            m.bad += 1;
                            continue;
                        }
                        m.check(&buf[8..n], pat.msg(k, FANIN_PAYLOAD - 8));
                        m.on_done(sim, k);
                    }
                    Err(SocketError::WouldBlock) => return,
                    Err(_) => return meter.borrow_mut().fail(),
                }
            }
        })
    };
    // (descriptor, destination port, required source socket) per session.
    let mut targets: Vec<(Fd, u16, Option<usize>)> = Vec::with_capacity(FANIN_UDP);
    for i in 0..FANIN_UDP {
        let fd = api.socket(&mut h.bed.sim, 1, Proto::Udp);
        if i % 4 == 3 {
            // Connected: no explicit bind, so the library installs a
            // fully-specified filter for the (remote, local) pair.
            let j = (i / 4) % TX_SOCKS;
            let remote = InetAddr::new(ip0, TX_PORT_BASE + j as u16);
            ok &= api.connect(&mut h.bed.sim, 1, fd, remote).is_ok();
            targets.push((fd, 0, Some(j)));
        } else {
            let port = RX_PORT_BASE + i as u16;
            ok &= api.bind(&mut h.bed.sim, 1, fd, port).is_ok();
            targets.push((fd, port, None));
        }
        api.set_handler(1, fd, drain.clone());
    }
    h.bed.settle();
    // Connected sessions got ephemeral ports; ask the library for them.
    for (fd, port, _) in targets.iter_mut().filter(|t| t.2.is_some()) {
        match api.apps[1].borrow().local_addr(*fd) {
            Some(a) => *port = a.port,
            None => ok = false,
        }
    }

    // TCP connections ride along: connected TCP filters in the table
    // and live connections in the stacks, carrying no load.
    let accepted = Rc::new(Cell::new(0usize));
    let listener = api.socket(&mut h.bed.sim, 1, Proto::Tcp);
    ok &= api
        .bind(&mut h.bed.sim, 1, listener, FANIN_TCP_PORT)
        .is_ok();
    ok &= api.listen(&mut h.bed.sim, 1, listener, FANIN_TCP).is_ok();
    {
        let (api2, accepted) = (api.clone(), accepted.clone());
        api.on_event(1, listener, move |sim, fd, ev| {
            if ev == SockEvent::Readable {
                while api2.accept(sim, 1, fd).is_ok() {
                    accepted.set(accepted.get() + 1);
                }
            }
        });
    }
    for _ in 0..FANIN_TCP {
        let fd = api.socket(&mut h.bed.sim, 0, Proto::Tcp);
        ok &= api
            .connect(&mut h.bed.sim, 0, fd, InetAddr::new(ip1, FANIN_TCP_PORT))
            .is_ok();
    }
    let acc = accepted.clone();
    ok &= h.drive(SimTime::from_secs(120), move |_| acc.get() == FANIN_TCP);
    h.bed.settle();
    if !ok {
        meter.borrow_mut().fail();
    }

    // The schedule: bursts of 1–8 datagrams at random sessions, then a
    // 100–500 µs gap. Open loop: the sender never waits for delivery.
    let mut payload = [0u8; FANIN_PAYLOAD];
    let mut k = 0usize;
    while k < spec.msgs && !meter.borrow().aborted {
        let burst = (1 + rng.below(8) as usize).min(spec.msgs - k);
        for _ in 0..burst {
            let (_, port, pinned) = targets[rng.below(targets.len() as u64) as usize];
            let j = pinned.unwrap_or_else(|| rng.below(TX_SOCKS as u64) as usize);
            payload[..8].copy_from_slice(&(k as u64).to_le_bytes());
            payload[8..].copy_from_slice(pat.msg(k, FANIN_PAYLOAD - 8));
            meter.borrow_mut().on_send(&h.bed.sim, k);
            loop {
                let to = Some(InetAddr::new(ip1, port));
                match api.sendto(&mut h.bed.sim, 0, tx_fds[j], &payload, to) {
                    Ok(_) => break,
                    Err(SocketError::WouldBlock) => h.run_for(SimTime::from_millis(1)),
                    Err(_) => {
                        meter.borrow_mut().fail();
                        break;
                    }
                }
            }
            k += 1;
        }
        h.run_for(SimTime::from_nanos(rng.range(100_000, 500_000)));
    }
    // CSPF at this table size serves a datagram in about a quarter of a
    // virtual second; a fourfold margin marks a stall.
    h.drive_to_end(SimTime::from_secs(spec.msgs as u64 + 60));

    let timed = (spec.msgs - spec.msgs / 16) as u64;
    h.finish(timed * FANIN_PAYLOAD as u64, true, |_| None)
}
