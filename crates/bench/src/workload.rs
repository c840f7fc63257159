//! The session-scaling workload engine behind the Table 5 benchmark.
//!
//! The paper's demultiplexing argument (§3.1) is asymptotic: CSPF runs
//! every installed session filter per packet, so its per-packet cost
//! grows with the number of live sessions, while MPF folds all session
//! filters into one shared-prefix dispatch whose cost is independent of
//! the session count. Tables 2–4 measure two-session workloads and
//! cannot exhibit the difference; this engine stands up N concurrent
//! sessions (mixed UDP/TCP, mixed wildcard/connected filters) on one
//! receiving host, drives a bursty datagram workload at them from a
//! seeded [`Rng`], and reports the per-packet filter cost observed at
//! the kernel demultiplexer together with the control-plane session
//! setup cost.
//!
//! Everything reported in [`ScaleReport`] except `wall` is derived from
//! virtual time and deterministic counters: two runs with the same spec
//! produce byte-identical reports. Wall-clock throughput is reported
//! separately so callers can keep it off the reproducible output.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use psd_core::{AppLib, Fd};
use psd_filter::DemuxStrategy;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{OpKind, Platform, Rng, SimTime};
use psd_systems::{SystemConfig, TestBed};

use crate::json::Json;
use crate::observe::{Attached, Planes};

/// Number of sender-side source sockets. Connected receiver sessions
/// are pinned to one of these source ports, giving the filter table a
/// mix of wildcard and fully-specified (connected) entries.
const TX_SOCKS: usize = 4;
/// First sender-side source port.
const TX_PORT_BASE: u16 = 9000;
/// First receiver-side wildcard port.
const RX_PORT_BASE: u16 = 10_000;
/// Port of the receiver's TCP listener.
const TCP_PORT: u16 = 20_000;
/// Port bound by the control-RPC latency probe at full session count.
const PROBE_PORT: u16 = 29_999;

/// Parameters of one scaling run.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Concurrent UDP sessions on the receiving host. Every fourth one
    /// is connected (fully-specified filter); the rest are wildcard.
    pub sessions: usize,
    /// Concurrent TCP connections riding along (capped: they exist to
    /// mix connected TCP filters into the table, not to carry load).
    pub tcp_sessions: usize,
    /// Datagrams sent during the measured burst phase.
    pub packets: usize,
    /// Datagram payload size in bytes.
    pub payload: usize,
    /// Seed for the testbed and the burst schedule.
    pub seed: u64,
    /// NEWAPI batching configuration applied to every host kernel. The
    /// default is inert (batch window 1, GRO/GSO off) and takes exactly
    /// the unbatched code paths, so archived tables never move.
    pub batch: psd_kernel::BatchConfig,
    /// Selective-copy placement policy installed on every host kernel
    /// before any session filter exists. `None` (the default) leaves
    /// every flow eagerly copied into the ring, as before.
    pub placement: Option<psd_filter::PlacementPolicy>,
}

impl WorkloadSpec {
    /// The standard spec at a given session count: TCP rides along at
    /// `n/8` capped to 32, and the burst is `packets` datagrams.
    pub fn at_scale(n: usize, packets: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            sessions: n,
            tcp_sessions: (n / 8).clamp(1, 32),
            packets,
            payload: 64,
            seed,
            batch: psd_kernel::BatchConfig::default(),
            placement: None,
        }
    }

    /// Sets the NEWAPI batching configuration.
    pub fn with_batch(mut self, batch: psd_kernel::BatchConfig) -> WorkloadSpec {
        self.batch = batch;
        self
    }

    /// Installs a selective-copy placement policy on every host.
    pub fn with_placement(mut self, policy: psd_filter::PlacementPolicy) -> WorkloadSpec {
        self.placement = Some(policy);
        self
    }
}

/// Census op totals on the receiving host (present when the caller
/// asked for a census).
#[derive(Clone, Copy, Debug)]
pub struct CensusCounts {
    /// Filter programs run.
    pub filter_runs: u64,
    /// Whole-packet body copies.
    pub body_copies: u64,
    /// Protection-boundary crossings.
    pub crossings: u64,
    /// Thread wakeups.
    pub wakeups: u64,
}

impl CensusCounts {
    /// The four counters as a `--census-json` row body.
    pub fn json_members(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("filter_runs", Json::Num(self.filter_runs as f64)),
            ("body_copies", Json::Num(self.body_copies as f64)),
            ("crossings", Json::Num(self.crossings as f64)),
            ("wakeups", Json::Num(self.wakeups as f64)),
        ]
    }
}

/// What one `(config, strategy, N)` run produced.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// The placement under test.
    pub config: SystemConfig,
    /// The kernel demultiplexing strategy under test.
    pub strategy: DemuxStrategy,
    /// UDP sessions stood up.
    pub sessions: usize,
    /// TCP connections established.
    pub tcp_sessions: usize,
    /// Session filters installed in the receiving kernel after setup.
    pub filters: usize,
    /// Frames the receiving kernel took off the wire during the burst.
    pub packets_rx: u64,
    /// Filter instructions per received frame during the burst — the
    /// Table 5 headline number.
    pub steps_per_packet: f64,
    /// Virtual nanoseconds of burst phase per received frame (captures
    /// server-resident demux cost that never touches a kernel filter).
    pub ns_per_packet: f64,
    /// Virtual time to bind one more session at full load — the
    /// control-RPC latency the paper worries about in §3.2.
    pub bind_rpc: SimTime,
    /// Virtual time to stand up all N sessions.
    pub setup: SimTime,
    /// Receiving-host census totals, when a census was attached.
    pub census: Option<CensusCounts>,
    /// The handles of the planes the caller asked for.
    pub observed: Attached,
    /// Wall-clock duration of the whole run (never byte-stable; keep
    /// off reproducible output).
    pub wall: Duration,
}

/// Runs the session-scaling workload for one placement, strategy, and
/// session count with `planes` attached to its testbed. Deterministic
/// given `spec.seed` in everything except [`ScaleReport::wall`], and —
/// every plane being charged-time-neutral — identical whatever is
/// attached.
pub fn session_scaling(
    config: SystemConfig,
    platform: Platform,
    strategy: DemuxStrategy,
    spec: &WorkloadSpec,
    planes: &Planes,
) -> ScaleReport {
    let wall0 = Instant::now();
    let mut bed = TestBed::new(config, platform, spec.seed);
    // The strategy must be chosen while the filter table is empty.
    for h in &bed.hosts {
        h.kernel.borrow_mut().set_demux_strategy(strategy);
    }
    bed.set_batch_config(spec.batch);
    // The placement policy must exist before any session filter is
    // installed — flows are classified at install time.
    bed.set_placement_policy(spec.placement.clone());
    let observed = planes.attach(&mut bed);
    let mut rng = Rng::new(spec.seed ^ 0x5EED_5CA1_E000_0001);

    // --- Sender: a few fixed source sockets. ---
    let tx_app = bed.hosts[0].spawn_app();
    let mut tx_fds: Vec<Fd> = Vec::with_capacity(TX_SOCKS);
    for j in 0..TX_SOCKS {
        let fd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
        AppLib::bind(&tx_app, &mut bed.sim, fd, TX_PORT_BASE + j as u16).expect("tx bind");
        tx_fds.push(fd);
    }
    bed.settle();
    // Warm the sender's ARP path so the burst has no cold-cache drops.
    AppLib::sendto(
        &tx_app,
        &mut bed.sim,
        tx_fds[0],
        b"warm",
        Some(InetAddr::new(bed.hosts[1].ip, 9)),
    )
    .expect("warm send");
    bed.settle();

    // --- Receiver: N UDP sessions, mixed wildcard/connected. ---
    let rx_app = bed.hosts[1].spawn_app();
    let setup0 = bed.sim.now();
    // (destination port, required sender socket) per session; the port
    // of connected sessions is resolved after setup settles.
    let mut targets: Vec<(u16, Option<usize>)> = Vec::with_capacity(spec.sessions);
    let mut rx_fds: Vec<(Fd, bool)> = Vec::with_capacity(spec.sessions);
    for i in 0..spec.sessions {
        let fd = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
        if i % 4 == 3 {
            // Connected: no explicit bind, so library placements install
            // a fully-specified filter for the (remote, local) pair.
            let j = (i / 4) % TX_SOCKS;
            let remote = InetAddr::new(bed.hosts[0].ip, TX_PORT_BASE + j as u16);
            AppLib::connect(&rx_app, &mut bed.sim, fd, remote).expect("rx connect");
            targets.push((0, Some(j)));
            rx_fds.push((fd, true));
        } else {
            let port = RX_PORT_BASE + i as u16;
            AppLib::bind(&rx_app, &mut bed.sim, fd, port).expect("rx bind");
            targets.push((port, None));
            rx_fds.push((fd, false));
        }
    }
    bed.settle();
    // Resolve the ephemeral local ports of connected sessions. Library
    // placements expose them through `local_addr`; server-resident
    // sessions do not, but the server's allocator hands out the first
    // free ephemeral port in order, and these connects are the only
    // UDP ephemeral claims on this host, so the sequence is known.
    let mut ephemeral = psd_server::EPHEMERAL_FIRST;
    for (i, (fd, connected)) in rx_fds.iter().enumerate() {
        if *connected {
            let predicted = ephemeral;
            ephemeral += 1;
            let port = rx_app
                .borrow()
                .local_addr(*fd)
                .map(|a| a.port)
                .unwrap_or(predicted);
            targets[i].0 = port;
        }
    }

    // --- TCP sessions ride along, adding connected TCP filters. ---
    let tcp_n = spec.tcp_sessions;
    let accepted = Rc::new(RefCell::new(0usize));
    {
        let listener = AppLib::socket(&rx_app, &mut bed.sim, Proto::Tcp);
        AppLib::bind(&rx_app, &mut bed.sim, listener, TCP_PORT).expect("tcp bind");
        AppLib::listen(&rx_app, &mut bed.sim, listener, tcp_n).expect("listen");
        let app = rx_app.clone();
        let accepted = accepted.clone();
        let handler: psd_core::FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                if ev == SockEvent::Readable {
                    while let Ok(_conn) = AppLib::accept(&app, sim, fd) {
                        *accepted.borrow_mut() += 1;
                    }
                }
            },
        ));
        rx_app.borrow_mut().set_event_handler(listener, handler);
    }
    let dst = InetAddr::new(bed.hosts[1].ip, TCP_PORT);
    for _ in 0..tcp_n {
        let fd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Tcp);
        AppLib::connect(&tx_app, &mut bed.sim, fd, dst).expect("tcp connect");
    }
    let cap = bed.sim.now() + SimTime::from_secs(120);
    while *accepted.borrow() < tcp_n && bed.sim.now() < cap {
        let step = bed.sim.now() + SimTime::from_millis(50);
        bed.sim.run_until(step);
    }
    assert_eq!(*accepted.borrow(), tcp_n, "tcp sessions established");
    bed.settle();
    let setup = bed.sim.now() - setup0;

    // --- Control-RPC latency probe: one more bind at full load. ---
    // A bind RPC runs synchronously on the host CPU without scheduling
    // events, so the event clock never moves; the CPU busy cursor does.
    let probe_fd = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
    let bind0 = bed.hosts[1].cpu.borrow().busy_until().max(bed.sim.now());
    AppLib::bind(&rx_app, &mut bed.sim, probe_fd, PROBE_PORT).expect("probe bind");
    bed.settle();
    let bind1 = bed.hosts[1].cpu.borrow().busy_until().max(bed.sim.now());
    let bind_rpc = SimTime::from_nanos(bind1.as_nanos().saturating_sub(bind0.as_nanos()));

    let filters = bed.hosts[1].kernel.borrow().filters_installed();

    // --- Burst phase: datagrams at random sessions, bursty arrivals. ---
    let k0 = bed.hosts[1].kernel.borrow().stats();
    let burst0 = bed.sim.now();
    let payload = vec![0xB7u8; spec.payload];
    let mut sent = 0usize;
    while sent < spec.packets {
        let burst = (1 + rng.below(8) as usize).min(spec.packets - sent);
        for _ in 0..burst {
            let ti = rng.below(targets.len() as u64) as usize;
            let (port, pinned) = targets[ti];
            let j = pinned.unwrap_or_else(|| rng.below(TX_SOCKS as u64) as usize);
            let to = Some(InetAddr::new(bed.hosts[1].ip, port));
            loop {
                match AppLib::sendto(&tx_app, &mut bed.sim, tx_fds[j], &payload, to) {
                    Ok(_) => break,
                    Err(SocketError::WouldBlock) => bed.run_for(SimTime::from_millis(1)),
                    Err(e) => panic!("burst send: {e}"),
                }
            }
            sent += 1;
        }
        let gap = rng.range(100_000, 500_000);
        bed.run_for(SimTime::from_nanos(gap));
    }
    bed.settle();
    let burst = bed.sim.now() - burst0;
    let k1 = bed.hosts[1].kernel.borrow().stats();
    let packets_rx = k1.rx_frames - k0.rx_frames;
    let steps = k1.filter_steps - k0.filter_steps;
    assert!(packets_rx > 0, "burst delivered no frames");

    let census = observed.census.get(1).map(|c| {
        let c = c.borrow();
        CensusCounts {
            filter_runs: c.total(OpKind::FilterRun),
            body_copies: c.total(OpKind::PacketBodyCopy),
            crossings: c.total(OpKind::BoundaryCrossing),
            wakeups: c.total(OpKind::Wakeup),
        }
    });

    ScaleReport {
        config,
        strategy,
        sessions: spec.sessions,
        tcp_sessions: tcp_n,
        filters,
        packets_rx,
        steps_per_packet: steps as f64 / packets_rx as f64,
        ns_per_packet: burst.as_nanos() as f64 / packets_rx as f64,
        bind_rpc,
        setup,
        census,
        observed,
        wall: wall0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census_only() -> Planes {
        Planes {
            census: true,
            ..Planes::default()
        }
    }

    fn report(config: SystemConfig, strategy: DemuxStrategy, n: usize) -> ScaleReport {
        let spec = WorkloadSpec::at_scale(n, 64, 42);
        let planes = Planes::default();
        session_scaling(
            config,
            Platform::DecStation5000_200,
            strategy,
            &spec,
            &planes,
        )
    }

    #[test]
    fn engine_stands_up_library_sessions_and_filters() {
        let r = report(SystemConfig::LibraryShm, DemuxStrategy::Mpf, 32);
        // Every UDP session plus the probe session installed a filter;
        // TCP children and the sender side live on the other host.
        assert!(
            r.filters > 32,
            "expected per-session filters, got {}",
            r.filters
        );
        assert!(r.packets_rx >= 64);
        assert!(r.steps_per_packet > 0.0);
    }

    #[test]
    fn engine_is_deterministic() {
        let a = report(SystemConfig::LibraryShmIpf, DemuxStrategy::Cspf, 24);
        let b = report(SystemConfig::LibraryShmIpf, DemuxStrategy::Cspf, 24);
        assert_eq!(a.packets_rx, b.packets_rx);
        assert_eq!(a.steps_per_packet, b.steps_per_packet);
        assert_eq!(a.bind_rpc, b.bind_rpc);
        assert_eq!(a.setup, b.setup);
        assert_eq!(a.ns_per_packet, b.ns_per_packet);
    }

    #[test]
    fn default_batch_config_is_inert() {
        // An explicit `unbatched()` config must be indistinguishable
        // from never touching the batching API at all — this is the
        // property that keeps archived tables 2–5 byte-identical.
        let spec = WorkloadSpec::at_scale(24, 64, 42);
        let census = census_only();
        let a = session_scaling(
            SystemConfig::LibraryIpc,
            Platform::DecStation5000_200,
            DemuxStrategy::Mpf,
            &spec.clone(),
            &census,
        );
        let b = session_scaling(
            SystemConfig::LibraryIpc,
            Platform::DecStation5000_200,
            DemuxStrategy::Mpf,
            &spec.with_batch(psd_kernel::BatchConfig::unbatched()),
            &census,
        );
        assert_eq!(a.packets_rx, b.packets_rx);
        assert_eq!(a.steps_per_packet, b.steps_per_packet);
        assert_eq!(a.ns_per_packet, b.ns_per_packet);
        assert_eq!(a.setup, b.setup);
        let (ca, cb) = (a.census.unwrap(), b.census.unwrap());
        assert_eq!(ca.crossings, cb.crossings);
        assert_eq!(ca.body_copies, cb.body_copies);
        assert_eq!(ca.wakeups, cb.wakeups);
    }

    #[test]
    fn batching_reduces_crossings_without_changing_delivery() {
        let spec = WorkloadSpec::at_scale(16, 96, 42);
        let census = census_only();
        let base = session_scaling(
            SystemConfig::LibraryShm,
            Platform::DecStation5000_200,
            DemuxStrategy::Mpf,
            &spec.clone(),
            &census,
        );
        let batched = session_scaling(
            SystemConfig::LibraryShm,
            Platform::DecStation5000_200,
            DemuxStrategy::Mpf,
            &spec.with_batch(psd_kernel::BatchConfig {
                batch: 16,
                gro: false,
                gso: false,
            }),
            &census,
        );
        // Same frames delivered, same filter work — only the crossing
        // count shrinks.
        assert_eq!(batched.packets_rx, base.packets_rx);
        assert_eq!(batched.steps_per_packet, base.steps_per_packet);
        let (cb, ca) = (batched.census.unwrap(), base.census.unwrap());
        assert!(
            cb.crossings < ca.crossings,
            "batched crossings {} must undercut unbatched {}",
            cb.crossings,
            ca.crossings
        );
    }

    #[test]
    fn server_resident_placement_installs_no_session_filters() {
        let r = report(SystemConfig::UxServer, DemuxStrategy::Mpf, 16);
        assert_eq!(r.filters, 0);
        assert!(r.packets_rx >= 64);
    }
}
