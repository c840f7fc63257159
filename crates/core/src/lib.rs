//! The application-level protocol library — the paper's primary
//! contribution.
//!
//! An [`AppLib`] lives in one application's address space and exports
//! the BSD socket programming interface through a *proxy* (§3.2,
//! Table 1): calls are "either handled locally, forwarded untouched to
//! the operating system server, or translated into an alternate
//! sequence of calls on the operating system server".
//!
//! - **Send and receive run entirely in the application.** Once a
//!   session has migrated in, `send`/`sendto`/`recv`/`recvfrom` (and
//!   the other BSD variants, which are thin wrappers) call straight
//!   into the application-linked [`NetStack`] — no protection boundary
//!   is crossed except the packet send trap at the very bottom.
//! - **Heavyweight operations go to the server.** `socket`, `bind`,
//!   `connect`, `listen`, `accept` become `proxy_*` RPCs; `fork`
//!   returns sessions to the server first; `close` migrates the
//!   session back so the server can run the shutdown protocol.
//! - **`select` is cooperative** (§3.2): locally-managed descriptors
//!   are checked in the library; their status is reported to the
//!   server with `proxy_status` so a single server-side `select` can
//!   wait on both kinds at once. When every watched descriptor is
//!   local, the server is not involved at all.
//! - **Metastate is cached** (§3.3): routes and ARP entries arrive
//!   with each migrated session and on demand via resolver RPCs; the
//!   server invalidates them through callbacks.
//!
//! The same [`AppLib`] type also embodies the two baseline
//! architectures the paper compares against, selected by [`ApiMode`]:
//! `InKernel` drives a kernel-placement stack through traps (Mach 2.5 /
//! Ultrix / 386BSD), and `ServerBased` forwards every operation,
//! including data transfer, to the server over the four-copy RPC path
//! (UX / BNR2SS). The three modes share every line of protocol code.

pub(crate) mod control;
pub(crate) mod data;
pub(crate) mod select;

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::rc::{Rc, Weak};

use psd_kernel::{KernelHandle, RxMode};
use psd_netstack::stack::StackHandle;
use psd_netstack::{InetAddr, NetStack, Placement, SockEvent, SockId, SocketError};
use psd_server::{PortNamespace, ProcId, Proto, ServerHandle, SessionId, UserNetIf};
use psd_sim::{Charge, CostModel, Cpu, Domain, Layer, Medium, Op, Sim};

pub use select::SelectOutcome;

/// A file descriptor in the application.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fd(pub i32);

/// Which protocol architecture this application runs against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApiMode {
    /// Monolithic baseline: sockets live in the in-kernel stack; every
    /// call is a trap.
    InKernel,
    /// Single-server baseline: sockets live in the operating system
    /// server; every call — including send and receive — is an RPC.
    ServerBased,
    /// The paper's system: the critical path runs in this library;
    /// sessions migrate in and out. `rx_mode` selects the §4.1
    /// user/kernel receive interface (IPC, SHM, SHM-IPF).
    Library {
        /// Receive-path variant.
        rx_mode: RxMode,
    },
}

/// Per-descriptor event callback (the analogue of a blocked thread
/// being woken: the application resumes the blocked operation).
pub type FdEventFn = Rc<RefCell<dyn FnMut(&mut Sim, Fd, SockEvent)>>;

pub(crate) enum FdState {
    /// `socket()` has been called; nothing realized yet (the session
    /// exists at the server in server/library modes).
    Fresh(Option<SessionId>),
    /// The session is server-resident; data moves by RPC.
    Session(SessionId),
    /// The session lives in this library's stack (migrated in).
    Local {
        session: Option<SessionId>,
        sock: SockId,
    },
    /// A socket in the in-kernel stack (monolithic baseline).
    Kern(SockId),
}

pub(crate) struct FdEntry {
    pub(crate) proto: Proto,
    pub(crate) state: FdState,
}

/// Counters for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppStats {
    /// Control RPCs issued (proxy calls).
    pub control_rpcs: u64,
    /// Data RPCs issued (server-based data path).
    pub data_rpcs: u64,
    /// Sessions migrated into this application.
    pub migrations_in: u64,
    /// Sessions returned to the server.
    pub migrations_out: u64,
    /// `proxy_status` notifications sent for select cooperation.
    pub status_reports: u64,
    /// ARP cache invalidations received from the server.
    pub arp_invalidations: u64,
    /// Proxy RPC attempts retried after a deadline expired (lost
    /// request, lost reply, or crashed server).
    pub rpc_retries: u64,
    /// Proxy RPCs abandoned after the retry budget was exhausted.
    pub rpc_timeouts: u64,
}

/// The application library.
pub struct AppLib {
    pub(crate) me: Weak<RefCell<AppLib>>,
    pub(crate) mode: ApiMode,
    pub(crate) costs: CostModel,
    pub(crate) cpu: Rc<RefCell<Cpu>>,
    pub(crate) kernel: KernelHandle,
    pub(crate) server: Option<ServerHandle>,
    pub(crate) proc: Option<ProcId>,
    /// The protocol stack this library uses for local sessions: its own
    /// (Library mode) or the host's in-kernel stack (InKernel mode).
    pub(crate) stack: Option<StackHandle>,
    /// Port namespace for the in-kernel baseline (shared per host).
    pub(crate) kern_ports: Option<Rc<RefCell<PortNamespace>>>,
    pub(crate) host_ip: Ipv4Addr,
    pub(crate) fds: HashMap<Fd, FdEntry>,
    pub(crate) next_fd: i32,
    pub(crate) sock_to_fd: HashMap<SockId, Fd>,
    pub(crate) session_to_fd: HashMap<SessionId, Fd>,
    pub(crate) handlers: HashMap<Fd, FdEventFn>,
    /// Listener → connections accepted by the server but not yet
    /// claimed with `accept()`.
    pub(crate) accept_ready: HashMap<Fd, Vec<Fd>>,
    /// Listeners with an outstanding `proxy_accept`.
    pub(crate) accept_pending: HashSet<Fd>,
    /// Local descriptors currently watched by a select (their status
    /// changes are reported to the server).
    pub(crate) watched: HashSet<Fd>,
    pub(crate) local_selects: Vec<select::LocalWaiter>,
    /// Monotonic counter feeding [`psd_server::RetryToken`]s, so every
    /// retryable RPC from this application is uniquely identified.
    pub(crate) next_token: u64,
    /// Counters.
    pub stats: AppStats,
}

/// Shared handle to an application library.
pub type AppHandle = Rc<RefCell<AppLib>>;

impl AppLib {
    /// The one constructor behind the three architectures: the
    /// application runs against `server` (server-based, library) or
    /// `kern_ports` (in-kernel) and drives `stack` (its own in library
    /// mode, the host's in-kernel one, none when every call is an RPC).
    fn with_parts(
        kernel: &KernelHandle,
        mode: ApiMode,
        server: Option<&ServerHandle>,
        stack: Option<StackHandle>,
        kern_ports: Option<Rc<RefCell<PortNamespace>>>,
    ) -> AppHandle {
        let host_ip = match (&stack, server) {
            (Some(stack), _) => stack.borrow().ip_addr,
            (None, Some(server)) => server.borrow().stack().borrow().ip_addr,
            (None, None) => unreachable!("an application has a stack or a server"),
        };
        Rc::new_cyclic(|me| {
            RefCell::new(AppLib {
                me: me.clone(),
                mode,
                costs: kernel.borrow().costs().clone(),
                cpu: kernel.borrow().cpu(),
                kernel: kernel.clone(),
                server: server.cloned(),
                proc: server.map(|s| s.borrow_mut().register_process()),
                stack,
                kern_ports,
                host_ip,
                fds: HashMap::new(),
                next_fd: 3,
                sock_to_fd: HashMap::new(),
                session_to_fd: HashMap::new(),
                handlers: HashMap::new(),
                accept_ready: HashMap::new(),
                accept_pending: HashSet::new(),
                watched: HashSet::new(),
                local_selects: Vec::new(),
                next_token: 1,
                stats: AppStats::default(),
            })
        })
    }

    /// Creates an application in the decomposed (library) architecture.
    pub fn new_library(kernel: &KernelHandle, server: &ServerHandle, rx_mode: RxMode) -> AppHandle {
        let costs = kernel.borrow().costs().clone();
        let cpu = kernel.borrow().cpu();
        let host_ip = server.borrow().stack().borrow().ip_addr;
        // The application links its own protocol stack.
        let stack = NetStack::new(Placement::Library, costs, cpu, host_ip);
        stack.borrow_mut().set_ifnet(UserNetIf::new(kernel.clone()));
        let mode = ApiMode::Library { rx_mode };
        let app = AppLib::with_parts(kernel, mode, Some(server), Some(stack.clone()), None);

        // The ARP resolver upcall: a control RPC to the server.
        let weak_server = Rc::downgrade(server);
        let weak_app = Rc::downgrade(&app);
        stack
            .borrow_mut()
            .set_arp_resolver(Box::new(move |sim, charge, ip| {
                let server = weak_server.upgrade()?;
                if let Some(app) = weak_app.upgrade() {
                    app.borrow_mut().stats.control_rpcs += 1;
                }
                psd_server::OsServer::proxy_arp_lookup(&server, sim, charge, ip)
            }));

        // A datagram classified to this application's endpoint before
        // a fork/close tore the filter down can still land here after
        // the socket has been exported. Hand it back to the server,
        // which re-presents it to the (now retargeted) classify path.
        let weak_server = Rc::downgrade(server);
        stack
            .borrow_mut()
            .set_unclaimed_udp_hook(Rc::new(RefCell::new(
                move |sim: &mut Sim, dst: InetAddr, src: InetAddr, data: &[u8]| {
                    let Some(server) = weak_server.upgrade() else {
                        return false;
                    };
                    psd_server::OsServer::reclaim_migrated_udp(&server, sim, dst, src, data)
                },
            )));

        // Metastate invalidation callback (§3.3).
        let weak_app = Rc::downgrade(&app);
        let weak_stack = Rc::downgrade(&stack);
        server
            .borrow_mut()
            .register_arp_listener(Rc::new(RefCell::new(
                move |_sim: &mut Sim, ip: Ipv4Addr| {
                    if let Some(stack) = weak_stack.upgrade() {
                        stack.borrow_mut().arp.invalidate(ip);
                    }
                    if let Some(app) = weak_app.upgrade() {
                        app.borrow_mut().stats.arp_invalidations += 1;
                    }
                },
            )));
        app
    }

    /// Creates an application in the server-based baseline.
    pub fn new_server_based(kernel: &KernelHandle, server: &ServerHandle) -> AppHandle {
        AppLib::with_parts(kernel, ApiMode::ServerBased, Some(server), None, None)
    }

    /// Creates an application in the monolithic in-kernel baseline.
    /// `kern_stack` and `kern_ports` are shared by every application on
    /// the host.
    pub fn new_inkernel(
        kernel: &KernelHandle,
        kern_stack: &StackHandle,
        kern_ports: &Rc<RefCell<PortNamespace>>,
    ) -> AppHandle {
        let (stack, ports) = (Some(kern_stack.clone()), Some(kern_ports.clone()));
        AppLib::with_parts(kernel, ApiMode::InKernel, None, stack, ports)
    }

    /// The architecture this application runs against.
    pub fn mode(&self) -> ApiMode {
        self.mode
    }

    /// The server-side process identity, if any.
    pub fn proc_id(&self) -> Option<ProcId> {
        self.proc
    }

    /// This application's protocol stack, if it has one.
    pub fn stack(&self) -> Option<StackHandle> {
        self.stack.clone()
    }

    /// Registers the per-descriptor event handler.
    pub fn set_event_handler(&mut self, fd: Fd, handler: FdEventFn) {
        self.handlers.insert(fd, handler);
    }

    pub(crate) fn alloc_fd(&mut self, proto: Proto, state: FdState) -> Fd {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(fd, FdEntry { proto, state });
        fd
    }

    /// Opens a CPU charge cursor at the current time (for callers that
    /// perform application-level work they want priced, e.g. benchmark
    /// bookkeeping). The cursor is rooted at an `app` profiling site:
    /// every charge opened here ends in the same call (syscall-shaped),
    /// so the site needs no balancing pop.
    pub fn begin(&self, sim: &Sim) -> Charge {
        let mut charge = self.cpu.borrow_mut().begin(sim.now());
        charge.site_push(Domain::Library, "app");
        charge
    }

    /// Completes a charge cursor.
    pub fn finish(&self, charge: Charge) {
        self.cpu.borrow_mut().finish(charge);
    }

    /// Associates a stack socket with a descriptor, wiring event
    /// routing: the stack's sink maps the socket back to the fd,
    /// handles select cooperation, and invokes the user handler.
    pub(crate) fn register_sock(this: &AppHandle, sock: SockId, fd: Fd) {
        let stack = this
            .borrow()
            .stack
            .clone()
            .expect("register_sock requires a stack");
        this.borrow_mut().sock_to_fd.insert(sock, fd);
        let weak = Rc::downgrade(this);
        stack.borrow_mut().set_sink(
            sock,
            Rc::new(RefCell::new(
                move |sim: &mut Sim, sock: SockId, ev: SockEvent| {
                    let Some(app) = weak.upgrade() else { return };
                    AppLib::on_sock_event(&app, sim, sock, ev);
                },
            )),
        );
    }

    fn on_sock_event(this: &AppHandle, sim: &mut Sim, sock: SockId, ev: SockEvent) {
        let (fd, handler, report) = {
            let app = this.borrow();
            let Some(fd) = app.sock_to_fd.get(&sock).copied() else {
                return;
            };
            let handler = app.handlers.get(&fd).cloned();
            // Cooperative select: report status changes on watched
            // local descriptors to the server (§3.2).
            let report = app.watched.contains(&fd)
                && matches!(ev, SockEvent::Readable | SockEvent::Writable);
            (fd, handler, report)
        };
        if report {
            AppLib::report_status(this, sim, fd);
        }
        select::rescan_local(this, sim);
        if let Some(h) = handler {
            h.borrow_mut()(sim, fd, ev);
        }
    }

    /// Reports a local descriptor's readiness to the server
    /// (`proxy_status`).
    pub(crate) fn report_status(this: &AppHandle, sim: &mut Sim, fd: Fd) {
        let (server, session, readable, writable) = {
            let app = this.borrow();
            let Some(server) = app.server.clone() else {
                return;
            };
            let Some(entry) = app.fds.get(&fd) else {
                return;
            };
            let FdState::Local {
                session: Some(sid),
                sock,
                ..
            } = &entry.state
            else {
                return;
            };
            let stack = app.stack.as_ref().expect("local fd has stack");
            let st = stack.borrow();
            (
                server,
                *sid,
                st.readable(*sock) > 0 || st.at_eof(*sock),
                st.writable(*sock) > 0,
            )
        };
        this.borrow_mut().stats.status_reports += 1;
        AppLib::charged(this, sim, |sim, charge| {
            psd_server::OsServer::proxy_status(&server, sim, charge, session, readable, writable);
        });
    }

    /// Polls a descriptor's readiness without blocking.
    pub(crate) fn poll(&self, fd: Fd) -> (bool, bool) {
        let Some(entry) = self.fds.get(&fd) else {
            return (false, false);
        };
        match &entry.state {
            FdState::Local { sock, .. } | FdState::Kern(sock) => {
                let stack = self.stack.as_ref().expect("local fd has stack");
                let st = stack.borrow();
                let accept_ready = self
                    .accept_ready
                    .get(&fd)
                    .map(|q| !q.is_empty())
                    .unwrap_or(false);
                (
                    st.readable(*sock) > 0 || st.at_eof(*sock) || accept_ready,
                    st.writable(*sock) > 0,
                )
            }
            FdState::Session(sid) => {
                let accept_ready = self
                    .accept_ready
                    .get(&fd)
                    .map(|q| !q.is_empty())
                    .unwrap_or(false);
                let server = self.server.as_ref().expect("session fd has server");
                let (r, w) = server.borrow().data_poll(*sid);
                (r > 0 || accept_ready, w > 0)
            }
            FdState::Fresh(_) => (false, false),
        }
    }

    /// The descriptor's local endpoint.
    pub fn local_addr(&self, fd: Fd) -> Option<InetAddr> {
        match &self.fds.get(&fd)?.state {
            FdState::Local { sock, .. } | FdState::Kern(sock) => {
                self.stack.as_ref()?.borrow().local_addr(*sock)
            }
            FdState::Session(_) | FdState::Fresh(_) => None,
        }
    }

    /// The descriptor's remote endpoint, if connected.
    pub fn remote_addr(&self, fd: Fd) -> Option<InetAddr> {
        match &self.fds.get(&fd)?.state {
            FdState::Local { sock, .. } | FdState::Kern(sock) => {
                self.stack.as_ref()?.borrow().remote_addr(*sock)
            }
            FdState::Session(_) | FdState::Fresh(_) => None,
        }
    }

    /// Sets `TCP_NODELAY` on a local descriptor.
    pub fn set_nodelay(&mut self, fd: Fd, nodelay: bool) {
        if let Some(FdEntry {
            state: FdState::Local { sock, .. } | FdState::Kern(sock),
            ..
        }) = self.fds.get(&fd)
        {
            if let Some(stack) = &self.stack {
                stack.borrow_mut().set_nodelay(*sock, nodelay);
            }
        }
    }

    /// True if the descriptor exists.
    pub fn fd_exists(&self, fd: Fd) -> bool {
        self.fds.contains_key(&fd)
    }

    /// Number of open descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.len()
    }
}

/// Where a realized descriptor's session lives, holding the handle that
/// reaches it: the proxy's three answers to a BSD call (§3.2, Table 1).
enum Path {
    /// Migrated into this library's stack: the call is handled locally.
    Local(StackHandle, SockId),
    /// A socket in the host's in-kernel stack: the call traps.
    Kern(StackHandle, SockId),
    /// Resident at the server: the call is an RPC.
    Session(ServerHandle, SessionId),
}

/// The placement dispatch every data and control call goes through:
/// one lookup, one charge, and the few priced steps the placements add
/// around the protocol code they share.
impl AppLib {
    /// Resolves `fd` under one borrow to its protocol and its [`Path`],
    /// `None` while the descriptor is `Fresh` (nothing realized yet).
    /// Always inlined, with the caller matching the path before it opens
    /// the charge: returned or captured whole, the handle-carrying enum
    /// cost a library `recv` about 20 ns more per call (x86-64, 2 vCPUs).
    #[inline(always)]
    fn resolve(this: &AppHandle, fd: Fd) -> Result<(Proto, Option<Path>), SocketError> {
        let app = this.borrow();
        let entry = app.fds.get(&fd).ok_or(SocketError::BadSocket)?;
        let stack = || app.stack.clone().expect("a socket fd has a stack");
        let path = match entry.state {
            FdState::Local { sock, .. } => Some(Path::Local(stack(), sock)),
            FdState::Kern(sock) => Some(Path::Kern(stack(), sock)),
            FdState::Session(sid) => {
                let server = app.server.clone().expect("a session fd has a server");
                Some(Path::Session(server, sid))
            }
            FdState::Fresh(_) => None,
        };
        Ok((entry.proto, path))
    }

    /// Runs `body` under one CPU charge cursor and completes the cursor
    /// on every return path, so a refused call is priced like any other.
    fn charged<T>(
        this: &AppHandle,
        sim: &mut Sim,
        body: impl FnOnce(&mut Sim, &mut Charge) -> T,
    ) -> T {
        let mut charge = this.borrow().begin(sim);
        let out = body(sim, &mut charge);
        this.borrow().finish(charge);
        out
    }

    /// One of the in-kernel baseline's trap operations: a control call's
    /// whole [`Op::Trap`], or a data call's entry and exit sides
    /// ([`Op::TrapEntry`], and [`Op::TrapExit`] counted or
    /// [`Op::TrapReturn`] not).
    #[inline]
    fn trap(&self, charge: &mut Charge, op: Op, layer: Layer) {
        charge.op(&self.costs, op, Domain::Kernel, layer);
    }

    /// A data RPC moving `bytes` of socket data between the application
    /// and the server. The paper counts four physical copies on this
    /// path (§4.3 entry/copyin: user buffer → IPC message → kernel →
    /// server IPC buffer → mbuf chain); the socket layer makes the last,
    /// so three are made here, after the trap and the RPC machinery.
    fn data_rpc(&self, charge: &mut Charge, layer: Layer, bytes: usize) {
        charge.op(&self.costs, Op::Trap, Domain::Server, layer);
        charge.op(&self.costs, Op::Rpc, Domain::Library, layer);
        for domain in [Domain::Library, Domain::Kernel, Domain::Server] {
            charge.op(&self.costs, Op::BodyCopy(Medium::Ipc, bytes), domain, layer);
        }
    }

    /// Binds an in-kernel socket to `port` (0: an ephemeral one) from
    /// the host's shared port namespace.
    fn kern_bind(
        &self,
        stack: &StackHandle,
        sock: SockId,
        proto: Proto,
        port: u16,
    ) -> Result<(), SocketError> {
        let ports = self.kern_ports.as_ref().expect("kernel ports");
        let port = ports.borrow_mut().claim(proto, port)?;
        stack
            .borrow_mut()
            .bind(sock, InetAddr::new(self.host_ip, port))
    }

    /// The implicit bind before an in-kernel socket's first `connect`
    /// or `sendto`: an ephemeral port, unless one is bound already.
    fn kern_autobind(
        &self,
        stack: &StackHandle,
        sock: SockId,
        proto: Proto,
    ) -> Result<(), SocketError> {
        if stack.borrow().local_addr(sock).map_or(0, |a| a.port) == 0 {
            self.kern_bind(stack, sock, proto, 0)?;
        }
        Ok(())
    }
}
