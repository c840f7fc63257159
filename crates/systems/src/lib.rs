//! Whole-system assembly: the configurations of Table 2.
//!
//! A [`TestBed`] is two simulated hosts on one private 10 Mb/s
//! Ethernet, each built in one of the paper's architectures:
//!
//! | Config | Architecture | Paper row |
//! |---|---|---|
//! | [`SystemConfig::Mach25InKernel`] | protocols in the kernel | "Mach 2.5 In-Kernel" |
//! | [`SystemConfig::Ultrix42InKernel`] | protocols in the kernel | "Ultrix 4.2A In-Kernel" (DECstation only) |
//! | [`SystemConfig::Bsd386InKernel`] | protocols in the kernel | "386BSD In-Kernel" (Gateway only) |
//! | [`SystemConfig::UxServer`] | protocols in the OS server | "Mach 3.0+UX Server" |
//! | [`SystemConfig::Bnr2ssServer`] | protocols in the OS server | "Mach 3.0+BNR2SS Server" (Gateway only) |
//! | [`SystemConfig::LibraryIpc`] | decomposed, IPC receive path | "Mach 3.0+UX Library-IPC" |
//! | [`SystemConfig::LibraryShm`] | decomposed, shared-memory path | "Mach 3.0+UX Library-SHM" |
//! | [`SystemConfig::LibraryShmIpf`] | decomposed, integrated filter | "Mach 3.0+UX Library-SHM-IPF" |
//!
//! Every configuration runs the *same* protocol code
//! ([`psd_netstack`]); they differ only in placement and in the
//! user/kernel interface, exactly as in the paper.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use psd_core::{AppHandle, AppLib};
use psd_kernel::{Kernel, KernelHandle, RxMode};
use psd_netdev::{EtherTiming, Ethernet, EthernetHandle};
use psd_netstack::stack::StackHandle;
use psd_netstack::{NetStack, Placement, RouteTable};
use psd_server::{KernelNetIf, OsServer, PortNamespace, ServerHandle};
use psd_sim::{CostModel, Cpu, FaultSite, Observable, Observers, Platform, Sim};
use psd_wire::EtherAddr;

/// The system architectures compared in Table 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemConfig {
    /// Protocols in the Mach 2.5 kernel.
    Mach25InKernel,
    /// Protocols in the Ultrix 4.2A kernel (DECstation only).
    Ultrix42InKernel,
    /// Protocols in the 386BSD kernel (Gateway only).
    Bsd386InKernel,
    /// Protocols in CMU's UX single server on Mach 3.0.
    UxServer,
    /// Protocols in the BNR2SS single server on Mach 3.0 (Gateway
    /// only).
    Bnr2ssServer,
    /// The decomposed system with per-packet IPC delivery.
    LibraryIpc,
    /// The decomposed system with the shared-memory receive ring.
    LibraryShm,
    /// The decomposed system with the device-integrated packet filter.
    LibraryShmIpf,
}

impl SystemConfig {
    /// All configurations available on a platform, in Table 2 order.
    pub fn for_platform(platform: Platform) -> Vec<SystemConfig> {
        match platform {
            Platform::DecStation5000_200 => vec![
                SystemConfig::Mach25InKernel,
                SystemConfig::Ultrix42InKernel,
                SystemConfig::UxServer,
                SystemConfig::LibraryIpc,
                SystemConfig::LibraryShm,
                SystemConfig::LibraryShmIpf,
            ],
            Platform::Gateway486 => vec![
                SystemConfig::Mach25InKernel,
                SystemConfig::Bsd386InKernel,
                SystemConfig::UxServer,
                SystemConfig::Bnr2ssServer,
                SystemConfig::LibraryIpc,
                SystemConfig::LibraryShm,
            ],
        }
    }

    /// The row label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SystemConfig::Mach25InKernel => "Mach 2.5 In-Kernel",
            SystemConfig::Ultrix42InKernel => "Ultrix 4.2A In-Kernel",
            SystemConfig::Bsd386InKernel => "386BSD In-Kernel",
            SystemConfig::UxServer => "Mach 3.0+UX Server",
            SystemConfig::Bnr2ssServer => "Mach 3.0+BNR2SS Server",
            SystemConfig::LibraryIpc => "Mach 3.0+UX Library-IPC",
            SystemConfig::LibraryShm => "Mach 3.0+UX Library-SHM",
            SystemConfig::LibraryShmIpf => "Mach 3.0+UX Library-SHM-IPF",
        }
    }

    /// True for the decomposed (library) configurations.
    pub fn is_library(self) -> bool {
        matches!(
            self,
            SystemConfig::LibraryIpc | SystemConfig::LibraryShm | SystemConfig::LibraryShmIpf
        )
    }

    /// True for the in-kernel baselines.
    pub fn is_inkernel(self) -> bool {
        matches!(
            self,
            SystemConfig::Mach25InKernel
                | SystemConfig::Ultrix42InKernel
                | SystemConfig::Bsd386InKernel
        )
    }

    /// The receive-path variant for library configurations.
    pub fn rx_mode(self) -> Option<RxMode> {
        match self {
            SystemConfig::LibraryIpc => Some(RxMode::Ipc),
            SystemConfig::LibraryShm => Some(RxMode::Shm),
            SystemConfig::LibraryShmIpf => Some(RxMode::ShmIpf),
            _ => None,
        }
    }

    /// The cost model for this configuration on a platform.
    pub(crate) fn cost_model(self, platform: Platform) -> CostModel {
        match (self, platform) {
            (SystemConfig::Ultrix42InKernel, _) => CostModel::ultrix_4_2a(),
            (SystemConfig::Bsd386InKernel, _) => CostModel::bsd386(),
            _ => platform.cost_model(),
        }
    }

    /// The best receive-buffer size the paper found for this
    /// configuration (Table 2 "ReceiveBufferSize", in bytes).
    pub(crate) fn best_recv_buffer(self, platform: Platform) -> usize {
        let kb = match platform {
            Platform::DecStation5000_200 => match self {
                SystemConfig::Mach25InKernel => 24,
                SystemConfig::Ultrix42InKernel => 16,
                SystemConfig::UxServer => 24,
                SystemConfig::LibraryIpc => 24,
                SystemConfig::LibraryShm => 120,
                SystemConfig::LibraryShmIpf => 120,
                _ => 24,
            },
            Platform::Gateway486 => match self {
                SystemConfig::Mach25InKernel => 8,
                SystemConfig::Bsd386InKernel => 8,
                SystemConfig::UxServer => 16,
                SystemConfig::Bnr2ssServer => 112,
                SystemConfig::LibraryIpc => 24,
                SystemConfig::LibraryShm => 24,
                _ => 24,
            },
        };
        kb * 1024
    }
}

/// One simulated host.
pub struct Host {
    /// The host kernel.
    pub kernel: KernelHandle,
    /// The host CPU.
    pub cpu: Rc<RefCell<Cpu>>,
    /// The operating system server (absent in in-kernel baselines).
    pub server: Option<ServerHandle>,
    /// The in-kernel protocol stack (in-kernel baselines only).
    pub kern_stack: Option<StackHandle>,
    /// Shared port namespace for the in-kernel baseline.
    pub kern_ports: Option<Rc<RefCell<PortNamespace>>>,
    /// The host IP address.
    pub ip: Ipv4Addr,
    config: SystemConfig,
}

impl Host {
    /// Spawns an application on this host, in the host's architecture.
    pub fn spawn_app(&self) -> AppHandle {
        match self.config {
            c if c.is_inkernel() => AppLib::new_inkernel(
                &self.kernel,
                self.kern_stack.as_ref().expect("in-kernel stack"),
                self.kern_ports.as_ref().expect("in-kernel ports"),
            ),
            SystemConfig::UxServer | SystemConfig::Bnr2ssServer => {
                AppLib::new_server_based(&self.kernel, self.server.as_ref().expect("server"))
            }
            c => AppLib::new_library(
                &self.kernel,
                self.server.as_ref().expect("server"),
                c.rx_mode().expect("library config"),
            ),
        }
    }

    /// The stack holding protocol state on this host's OS side (the
    /// in-kernel stack or the server's stack).
    pub fn os_stack(&self) -> StackHandle {
        match (&self.kern_stack, &self.server) {
            (Some(k), _) => k.clone(),
            (None, Some(s)) => s.borrow().stack(),
            _ => unreachable!("host has either a kernel stack or a server"),
        }
    }
}

/// Replaces `element`'s observer set with a copy that `edit` changed —
/// one read-modify-write, so attaching one plane keeps the others.
fn edit_observers<T: Observable>(element: &RefCell<T>, edit: impl FnOnce(&mut Observers)) {
    let mut element = element.borrow_mut();
    let mut obs = element.observers().clone();
    edit(&mut obs);
    element.set_observers(obs);
}

/// An empty fault plane with a private fixed-seed RNG: nothing scripted,
/// nothing armed, nothing drawn from the simulation's RNG.
fn fresh_fault_plane() -> psd_sim::FaultPlaneHandle {
    let plane = psd_sim::FaultPlane::shared();
    plane
        .borrow_mut()
        .set_rng(psd_sim::Rng::new(0x9E37_79B9_7F4A_7C15));
    plane
}

/// Two hosts on a private Ethernet, in one configuration.
pub struct TestBed {
    /// The simulation.
    pub sim: Sim,
    /// The wire.
    pub ether: EthernetHandle,
    /// The two hosts (`hosts[0]` = 10.0.0.1, `hosts[1]` = 10.0.0.2).
    pub hosts: Vec<Host>,
    /// The configuration under test.
    pub config: SystemConfig,
}

impl TestBed {
    /// Builds a two-host testbed.
    pub fn new(config: SystemConfig, platform: Platform, seed: u64) -> TestBed {
        let mut sim = Sim::new(seed);
        let ether = Ethernet::new(EtherTiming::ten_megabit());
        let costs = config.cost_model(platform);
        let mut hosts = Vec::new();
        for i in 0..2u32 {
            let ip = Ipv4Addr::new(10, 0, 0, 1 + i as u8);
            let routes = RouteTable::directly_attached(
                Ipv4Addr::new(10, 0, 0, 0),
                Ipv4Addr::new(255, 255, 255, 0),
            );
            let host = build_host(
                &mut sim,
                &ether,
                config,
                costs.clone(),
                ip,
                i + 1,
                platform,
                routes,
            );
            hosts.push(host);
        }
        TestBed {
            sim,
            ether,
            hosts,
            config,
        }
    }

    /// Sets the NEWAPI batching configuration (batch window size, GRO,
    /// GSO) on every host kernel. The default [`psd_kernel::BatchConfig`]
    /// is inert: batch size 1 takes exactly the unbatched code paths, so
    /// archived tables are unaffected unless a bed opts in.
    pub fn set_batch_config(&self, batch: psd_kernel::BatchConfig) {
        for h in &self.hosts {
            h.kernel.borrow_mut().set_batch_config(batch);
        }
    }

    /// Installs a selective-copy placement policy on every host kernel.
    /// Endpoint filters installed *after* this call are classified at
    /// install time; flows the policy marks kernel-resident get
    /// header-only ring delivery with the body copy deferred to an
    /// explicit pull.
    pub fn set_placement_policy(&self, policy: Option<psd_filter::PlacementPolicy>) {
        for h in &self.hosts {
            h.kernel.borrow_mut().set_placement_policy(policy.clone());
        }
    }

    /// Attaches a wire-only fault plane and arms the independent frame
    /// sites (probabilities of 0 leave a site disarmed). This is the
    /// deterministic replacement for the retired ad-hoc `FaultModel`:
    /// the same seed always produces the same loss/duplicate/reorder
    /// pattern, and the plane's draws never touch the simulation RNG.
    pub fn arm_wire_faults(
        &mut self,
        seed: u64,
        loss: f64,
        duplicate: f64,
        reorder: f64,
    ) -> psd_sim::FaultPlaneHandle {
        let plane = psd_sim::FaultPlane::shared();
        {
            let mut p = plane.borrow_mut();
            p.set_rng(psd_sim::Rng::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            ));
            if loss > 0.0 {
                p.arm(FaultSite::WireLoss, loss);
            }
            if duplicate > 0.0 {
                p.arm(FaultSite::WireDuplicate, duplicate);
            }
            if reorder > 0.0 {
                p.arm(FaultSite::WireReorder, reorder);
            }
        }
        edit_observers(&self.ether, |obs| obs.fault = Some(plane.clone()));
        plane
    }

    /// Applies `edit` to the observer set of both host CPUs (in `hosts`
    /// order) and then of the wire.
    fn edit_everywhere(&self, edit: impl Fn(&mut Observers)) {
        for h in &self.hosts {
            edit_observers(&h.cpu, &edit);
        }
        edit_observers(&self.ether, &edit);
    }

    /// A fresh plane per host CPU (censuses and profilers are per-host
    /// so per-CPU conservation and per-host counts stay exact),
    /// returned in `hosts` order.
    fn attach_per_host<T: Clone>(
        &self,
        fresh: impl Fn() -> T,
        slot: impl Fn(&mut Observers) -> &mut Option<T>,
    ) -> Vec<T> {
        self.hosts
            .iter()
            .map(|h| {
                let handle = fresh();
                edit_observers(&h.cpu, |obs| *slot(obs) = Some(handle.clone()));
                handle
            })
            .collect()
    }

    /// Attaches a fresh operation census to every host CPU, returning
    /// one handle per host (in `hosts` order). Counting never charges
    /// virtual time, so attaching a census leaves every timing result
    /// bit-identical.
    pub fn attach_census(&mut self) -> Vec<psd_sim::CensusHandle> {
        self.attach_per_host(psd_sim::Census::shared, |obs| &mut obs.census)
    }

    /// Attaches one shared fault plane to every host CPU and to the
    /// wire, returning its handle. The plane starts empty (nothing
    /// scripted, nothing armed): every fault site is visited and
    /// counted, but no randomness is consumed and no fault fires, so
    /// an attached-but-empty plane leaves every timing result
    /// bit-identical. The plane carries a private fixed-seed RNG;
    /// chaos tests overwrite it with `set_rng` before arming sites.
    /// Deliberately draws nothing from the simulation's RNG — forking
    /// it here would perturb later draws.
    pub fn attach_fault_plane(&mut self) -> psd_sim::FaultPlaneHandle {
        let plane = fresh_fault_plane();
        self.edit_everywhere(|obs| obs.fault = Some(plane.clone()));
        plane
    }

    /// Attaches a fresh packet-lifecycle tracer to every host CPU and
    /// to the wire, returning its handle. Tracing never charges virtual
    /// time and consumes no randomness, so an attached tracer leaves
    /// every timing result bit-identical.
    pub fn attach_tracer(&mut self) -> psd_sim::TraceHandle {
        let tracer = psd_sim::Tracer::shared();
        self.attach_tracer_handle(&tracer);
        tracer
    }

    /// Attaches an existing tracer (shared across beds when a benchmark
    /// merges several runs into one trace file).
    pub fn attach_tracer_handle(&mut self, tracer: &psd_sim::TraceHandle) {
        self.edit_everywhere(|obs| obs.trace = Some(tracer.clone()));
    }

    /// Attaches a fresh charged-time profiler to every host CPU,
    /// returning one handle per host (in `hosts` order). Profiling
    /// never charges virtual time and consumes no randomness, so an
    /// attached profiler leaves every timing result bit-identical; it
    /// guarantees exact conservation — attributed nanoseconds equal
    /// `Cpu::total_busy` on each host, bit-exact.
    pub fn attach_profilers(&mut self) -> Vec<psd_sim::ProfileHandle> {
        self.attach_per_host(psd_sim::Profiler::shared, |obs| &mut obs.profile)
    }

    /// Builds a gauge registry over both hosts (kernel interface and
    /// delivery-ring state, OS-side protocol state, the shared mbuf
    /// pool) and arms the engine's run-loop sampler at `period`.
    /// Sampling is inert: no events, no randomness, no virtual time —
    /// a sampled run stays byte-identical. Register any bed-specific
    /// gauges on the returned handle before the simulation first runs.
    pub fn attach_metrics(&mut self, period: psd_sim::SimTime) -> psd_sim::MetricsHandle {
        let metrics = psd_sim::Metrics::shared();
        {
            let mut m = metrics.borrow_mut();
            for (i, h) in self.hosts.iter().enumerate() {
                register_host_gauges(&mut m, i, h);
            }
            register_mbuf_gauges(&mut m);
        }
        self.sim.set_metrics_sampler(metrics.clone(), period);
        metrics
    }

    /// Runs the simulation until idle.
    pub fn settle(&mut self) {
        self.sim.run_to_idle();
    }

    /// Runs the simulation for a bounded virtual duration.
    pub fn run_for(&mut self, d: psd_sim::SimTime) {
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline);
    }
}

/// Registers one host's standard gauges under an `h{i}.` prefix:
/// kernel interface counters, delivery-ring occupancy, live endpoints,
/// and the OS-side stack's session and aggregate TCP state. Library
/// configurations keep per-session TCP state in application library
/// stacks — register those separately on the returned handle if a
/// workload needs them.
fn register_host_gauges(m: &mut psd_sim::Metrics, i: usize, h: &Host) {
    let k = h.kernel.clone();
    m.register(format!("h{i}.rx_frames"), move || {
        k.borrow().stats().rx_frames
    });
    let ring = h.kernel.borrow().ring_occupancy_cell();
    m.register(format!("h{i}.ring"), move || ring.get());
    let k = h.kernel.clone();
    m.register(format!("h{i}.endpoints"), move || {
        k.borrow().endpoint_count() as u64
    });
    let st = h.os_stack();
    m.register(format!("h{i}.sessions"), move || {
        st.borrow().session_count() as u64
    });
    for (j, name) in ["tcp_conns", "tcp_cwnd", "tcp_ssthresh", "tcp_rto_ns"]
        .into_iter()
        .enumerate()
    {
        let st = h.os_stack();
        m.register(format!("h{i}.{name}"), move || {
            let g = st.borrow().tcp_gauges();
            [g.0, g.1, g.2, g.3][j]
        });
    }
}

/// Registers the (thread-local, bed-wide) mbuf pool hit/miss totals.
fn register_mbuf_gauges(m: &mut psd_sim::Metrics) {
    m.register("mbuf.hits", || psd_mbuf::pool_stats().hits());
    m.register("mbuf.misses", || psd_mbuf::pool_stats().misses());
}

#[allow(clippy::too_many_arguments)]
fn build_host(
    sim: &mut Sim,
    ether: &EthernetHandle,
    config: SystemConfig,
    costs: CostModel,
    ip: Ipv4Addr,
    station: u32,
    platform: Platform,
    routes: RouteTable,
) -> Host {
    let cpu = Rc::new(RefCell::new(Cpu::new()));
    let kernel = Kernel::new(costs.clone(), cpu.clone(), EtherAddr::local(station));
    Kernel::connect(&kernel, ether);
    let rcvbuf = config.best_recv_buffer(platform);

    if config.is_inkernel() {
        // Monolithic: one kernel-placement stack, input at interrupt
        // level, pcb-lookup demultiplexing.
        let stack = NetStack::new(Placement::Kernel, costs, cpu.clone(), ip);
        stack
            .borrow_mut()
            .set_ifnet(KernelNetIf::new(kernel.clone()));
        stack.borrow_mut().routes = routes;
        stack.borrow_mut().set_tcp_buffers(16 * 1024, rcvbuf);
        if config == SystemConfig::Bsd386InKernel {
            // The large-packet bug (Table 2's NA cells): 386BSD could
            // not send full-size TCP segments.
            stack.borrow_mut().set_mss_cap(512);
        }
        let sink_stack = stack.clone();
        let sink: psd_kernel::InKernelSink = Rc::new(RefCell::new(
            move |sim: &mut Sim, charge: &mut psd_sim::Charge, frame: Vec<u8>| {
                sink_stack.borrow_mut().input_frame(sim, charge, &frame);
                psd_mbuf::give_frame(frame);
            },
        ));
        let ep = kernel.borrow_mut().create_inkernel_endpoint(sink);
        kernel.borrow_mut().set_default_endpoint(ep);
        let _ = sim;
        Host {
            kernel,
            cpu,
            server: None,
            kern_stack: Some(stack),
            kern_ports: Some(Rc::new(RefCell::new(PortNamespace::new()))),
            ip,
            config,
        }
    } else {
        let server = OsServer::new(&kernel, ip);
        {
            let stack = server.borrow().stack();
            let mut st = stack.borrow_mut();
            st.routes = routes;
            st.set_tcp_buffers(16 * 1024, rcvbuf);
        }
        Host {
            kernel,
            cpu,
            server: Some(server),
            kern_stack: None,
            kern_ports: None,
            ip,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_core::AppLib;
    use psd_server::Proto;

    #[test]
    fn config_tables_are_consistent() {
        for platform in [Platform::DecStation5000_200, Platform::Gateway486] {
            let configs = SystemConfig::for_platform(platform);
            assert_eq!(configs.len(), 6);
            for c in configs {
                // Labels are unique and non-empty.
                assert!(!c.label().is_empty());
                // Library configs have an rx mode; others do not.
                assert_eq!(c.rx_mode().is_some(), c.is_library());
                // Receive buffers are sane.
                let buf = c.best_recv_buffer(platform);
                assert!((8 * 1024..=120 * 1024).contains(&buf));
            }
        }
    }

    #[test]
    fn ultrix_and_386bsd_get_variant_cost_models() {
        let base = SystemConfig::Mach25InKernel.cost_model(Platform::DecStation5000_200);
        let ultrix = SystemConfig::Ultrix42InKernel.cost_model(Platform::DecStation5000_200);
        assert!(ultrix.trap > base.trap);
        let bsd = SystemConfig::Bsd386InKernel.cost_model(Platform::Gateway486);
        assert!(bsd.intr_penalty > 0);
    }

    #[test]
    fn hosts_are_built_per_architecture() {
        for platform in [Platform::DecStation5000_200, Platform::Gateway486] {
            for config in SystemConfig::for_platform(platform) {
                let bed = TestBed::new(config, platform, 1);
                for host in &bed.hosts {
                    if config.is_inkernel() {
                        assert!(host.server.is_none());
                        assert!(host.kern_stack.is_some());
                        assert_eq!(
                            host.kern_stack.as_ref().unwrap().borrow().placement(),
                            psd_netstack::Placement::Kernel
                        );
                    } else {
                        assert!(host.server.is_some());
                        assert!(host.kern_stack.is_none());
                        assert_eq!(
                            host.os_stack().borrow().placement(),
                            psd_netstack::Placement::Server
                        );
                    }
                    // The OS-side stack got the configured receive buffer.
                    let (_, rcv) = host.os_stack().borrow().tcp_buffers();
                    assert_eq!(rcv, config.best_recv_buffer(platform));
                }
            }
        }
    }

    #[test]
    fn spawned_apps_match_host_architecture() {
        use psd_core::ApiMode;
        let bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 1);
        let app = bed.hosts[0].spawn_app();
        assert!(matches!(app.borrow().mode(), ApiMode::Library { .. }));
        assert!(app.borrow().stack().is_some());

        let bed = TestBed::new(SystemConfig::UxServer, Platform::DecStation5000_200, 1);
        let app = bed.hosts[0].spawn_app();
        assert!(matches!(app.borrow().mode(), ApiMode::ServerBased));
        assert!(app.borrow().stack().is_none());

        let bed = TestBed::new(
            SystemConfig::Mach25InKernel,
            Platform::DecStation5000_200,
            1,
        );
        let app = bed.hosts[0].spawn_app();
        assert!(matches!(app.borrow().mode(), ApiMode::InKernel));
    }

    #[test]
    fn two_apps_on_one_inkernel_host_share_the_port_space() {
        let mut bed = TestBed::new(
            SystemConfig::Mach25InKernel,
            Platform::DecStation5000_200,
            1,
        );
        let a = bed.hosts[0].spawn_app();
        let b = bed.hosts[0].spawn_app();
        let fa = AppLib::socket(&a, &mut bed.sim, Proto::Udp);
        let fb = AppLib::socket(&b, &mut bed.sim, Proto::Udp);
        AppLib::bind(&a, &mut bed.sim, fa, 7000).unwrap();
        assert_eq!(
            AppLib::bind(&b, &mut bed.sim, fb, 7000).unwrap_err(),
            psd_netstack::SocketError::AddrInUse
        );
    }

    /// The largest TCP payload on the wire while one host sends 4 KB to
    /// another over a fresh connection.
    fn largest_tcp_segment(config: SystemConfig) -> usize {
        use psd_wire::{IpProto, Ipv4Header, TcpHeader, ETHER_HDR_LEN};
        let mut bed = TestBed::new(config, Platform::Gateway486, 1);
        let trace = Rc::new(RefCell::new(psd_netdev::FrameTrace::default()));
        bed.ether.borrow_mut().set_trace(Some(trace.clone()));
        let rx = bed.hosts[1].spawn_app();
        let lfd = AppLib::socket(&rx, &mut bed.sim, Proto::Tcp);
        AppLib::bind(&rx, &mut bed.sim, lfd, 5001).unwrap();
        AppLib::listen(&rx, &mut bed.sim, lfd, 1).unwrap();
        let tx = bed.hosts[0].spawn_app();
        let cfd = AppLib::socket(&tx, &mut bed.sim, Proto::Tcp);
        let dst = psd_netstack::InetAddr::new(bed.hosts[1].ip, 5001);
        AppLib::connect(&tx, &mut bed.sim, cfd, dst).unwrap();
        bed.settle();
        AppLib::send(&tx, &mut bed.sim, cfd, &[7u8; 4096]).unwrap();
        bed.settle();
        let payload = |frame: &[u8]| {
            let ip = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]).ok()?;
            if ip.proto != IpProto::Tcp {
                return None;
            }
            let (_, hdr_len) = TcpHeader::parse(&frame[ETHER_HDR_LEN + ip.header_len..]).ok()?;
            Some(usize::from(ip.total_len) - ip.header_len - hdr_len)
        };
        let frames = &trace.borrow().frames;
        frames
            .iter()
            .filter_map(|(_, f)| payload(f))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn bsd386_mss_cap_is_applied() {
        // 386BSD could not send large TCP packets (Table 2's NA cells).
        let capped = largest_tcp_segment(SystemConfig::Bsd386InKernel);
        assert!((1..=512).contains(&capped), "386BSD sent {capped} bytes");
        let full = largest_tcp_segment(SystemConfig::Mach25InKernel);
        assert_eq!(full, 1460, "Mach 2.5 sends full-size segments");
    }

    #[test]
    fn deterministic_given_seed() {
        use psd_bench_free::ttcp_free;
        // Two runs with the same seed must agree bit-for-bit on the
        // virtual clock. (Uses a local re-implementation to avoid a
        // dependency cycle with psd-bench.)
        let t1 = ttcp_free(SystemConfig::LibraryShm, Platform::DecStation5000_200, 9);
        let t2 = ttcp_free(SystemConfig::LibraryShm, Platform::DecStation5000_200, 9);
        assert_eq!(t1, t2);
    }

    /// A tiny self-contained transfer used by the determinism test.
    mod psd_bench_free {
        use super::super::*;
        use psd_core::{AppLib, Fd, FdEventFn};
        use psd_netstack::{InetAddr, SockEvent};
        use psd_server::Proto;
        use psd_sim::SimTime;
        use std::cell::RefCell;
        use std::rc::Rc;

        pub(crate) fn ttcp_free(config: SystemConfig, platform: Platform, seed: u64) -> u64 {
            let mut bed = TestBed::new(config, platform, seed);
            let rx_app = bed.hosts[1].spawn_app();
            let got = Rc::new(RefCell::new(0usize));
            let lfd = AppLib::socket(&rx_app, &mut bed.sim, Proto::Tcp);
            AppLib::bind(&rx_app, &mut bed.sim, lfd, 5001).unwrap();
            AppLib::listen(&rx_app, &mut bed.sim, lfd, 1).unwrap();
            {
                let app = rx_app.clone();
                let got = got.clone();
                let conn_app = rx_app.clone();
                let got2 = got.clone();
                let conn: FdEventFn = Rc::new(RefCell::new(
                    move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                        if ev == SockEvent::Readable {
                            let mut buf = [0u8; 8192];
                            while let Ok(n) = AppLib::recv(&conn_app, sim, fd, &mut buf) {
                                if n == 0 {
                                    break;
                                }
                                *got2.borrow_mut() += n;
                            }
                        }
                    },
                ));
                let _ = got;
                let listen: FdEventFn = Rc::new(RefCell::new(
                    move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                        if ev == SockEvent::Readable {
                            while let Ok(c) = AppLib::accept(&app, sim, fd) {
                                app.borrow_mut().set_event_handler(c, conn.clone());
                            }
                        }
                    },
                ));
                rx_app.borrow_mut().set_event_handler(lfd, listen);
            }
            let tx_app = bed.hosts[0].spawn_app();
            let cfd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Tcp);
            let sent = Rc::new(RefCell::new(0usize));
            {
                let app = tx_app.clone();
                let sent = sent.clone();
                let h: FdEventFn = Rc::new(RefCell::new(
                    move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                        if matches!(ev, SockEvent::Connected | SockEvent::Writable) {
                            while *sent.borrow() < 64 * 1024 {
                                match AppLib::send(&app, sim, fd, &[5u8; 4096]) {
                                    Ok(n) => *sent.borrow_mut() += n,
                                    Err(_) => break,
                                }
                            }
                        }
                    },
                ));
                tx_app.borrow_mut().set_event_handler(cfd, h);
            }
            let dst = InetAddr::new(bed.hosts[1].ip, 5001);
            AppLib::connect(&tx_app, &mut bed.sim, cfd, dst).unwrap();
            while *got.borrow() < 64 * 1024 {
                let t = bed.sim.now() + SimTime::from_millis(100);
                bed.sim.run_until(t);
                assert!(bed.sim.now() < SimTime::from_secs(120), "stalled");
            }
            bed.sim.now().as_nanos()
        }
    }
}
