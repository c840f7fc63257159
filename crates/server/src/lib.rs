//! The operating system server (the paper's "UX" role).
//!
//! The server owns everything about networking *except* the data path
//! (Figure 1): connection establishment and teardown, the TCP/UDP port
//! namespace, the routing and ARP databases, packet-filter
//! installation, `fork`/`select` cooperation, and cleanup when
//! processes die. Its protocol engine is an ordinary
//! [`NetStack`] at [`Placement::Server`] — the
//! same code the kernel and the application libraries run — behind the
//! heavyweight emulated-`spl` synchronization that made the real UX
//! server slow.
//!
//! Sessions are created here, *migrate* into applications when their
//! critical path becomes active (`bind` for UDP, `connect`/`accept`
//! for TCP), and migrate back for `close`, `fork`, and process death —
//! exactly the lifecycle of §3.1/§3.2 and Table 1. While a session is
//! out, the server keeps a stub (port reservation, crash cleanup,
//! select status) and suppresses RSTs for stragglers reaching its
//! catch-all.

pub mod netif;
pub mod ports;

pub use netif::{stack_sink, stack_sink_with_busy_report, KernelNetIf, UserNetIf};
pub use ports::{PortNamespace, Proto, EPHEMERAL_FIRST, EPHEMERAL_LAST};

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::rc::{Rc, Weak};

use psd_filter::{EndpointSpec, FilterId};
use psd_kernel::{EndpointId, KernelHandle, PacketSink, RxMode};
use psd_netstack::stack::{SessionState, StackHandle};
use psd_netstack::udp::UdpSnapshot;
use psd_netstack::{InetAddr, NetStack, Placement, Route, SockEvent, SockId, SocketError};
use psd_sim::{Charge, CostModel, Domain, FaultSite, Layer, Op, Sim, SimTime};
use psd_wire::{EtherAddr, IpProto};

/// A simulated process known to the server.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcId(pub u64);

/// A network session (Table 1's unit of management).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SessionId(pub u64);

/// An application-unique idempotency token carried by retryable proxy
/// RPCs. The server records the resource-allocating outcome under the
/// token, so a retry after a lost reply returns the recorded outcome
/// instead of re-allocating (a retried `proxy_bind` can never claim a
/// second port).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RetryToken(pub u64);

/// How the application wants packets delivered once a session migrates.
pub struct RxSetup {
    /// Delivery mechanism (the §4.1 variants).
    pub mode: RxMode,
    /// The application's packet sink for this session.
    pub sink: PacketSink,
}

/// Everything the application needs to take over a migrated session:
/// "a local endpoint, a remote endpoint, the connection state
/// variables, and a packet filter port" (§3.2) — plus the metastate
/// snapshot of §3.3.
pub struct MigratedSession {
    /// The session.
    pub session: SessionId,
    /// Serialized protocol state.
    pub state: SessionState,
    /// The kernel receive endpoint created for the application.
    pub endpoint: EndpointId,
    /// The installed packet filter.
    pub filter: FilterId,
    /// Local endpoint.
    pub local: InetAddr,
    /// Remote endpoint, if connected.
    pub remote: Option<InetAddr>,
    /// ARP cache snapshot for the application's metastate cache.
    pub arp_entries: Vec<(Ipv4Addr, EtherAddr)>,
    /// Route table snapshot and version.
    pub routes: (Vec<Route>, u64),
}

/// Reply to `proxy_connect`/`proxy_accept`/`proxy_bind`.
pub enum SessionReply {
    /// The session migrated into the caller's address space.
    Migrated(Box<MigratedSession>),
    /// The session stays in the server (server-based configurations);
    /// data moves via `data_*` RPCs.
    ServerResident {
        /// The session.
        session: SessionId,
        /// Local endpoint.
        local: InetAddr,
        /// Remote endpoint, if known.
        remote: Option<InetAddr>,
    },
}

impl SessionReply {
    /// The session id in either variant.
    pub fn session(&self) -> SessionId {
        match self {
            SessionReply::Migrated(m) => m.session,
            SessionReply::ServerResident { session, .. } => *session,
        }
    }

    /// The local endpoint in either variant.
    pub fn local(&self) -> InetAddr {
        match self {
            SessionReply::Migrated(m) => m.local,
            SessionReply::ServerResident { local, .. } => *local,
        }
    }
}

/// Completion callback for split-phase RPCs (connect, accept).
pub type DoneCallback = Box<dyn FnOnce(&mut Sim, Result<SessionReply, SocketError>)>;

/// Callback for forwarding server-resident socket events to the
/// application that owns the descriptor.
pub type NotifyCallback = Rc<RefCell<dyn FnMut(&mut Sim, SessionId, SockEvent)>>;

/// Callback invoked when the server invalidates a cached ARP entry
/// (§3.3 metastate callbacks).
pub type ArpInvalidation = Rc<RefCell<dyn FnMut(&mut Sim, Ipv4Addr)>>;

/// Callback completing a cooperative `select`.
pub type SelectCallback = Box<dyn FnOnce(&mut Sim, Vec<SessionId>)>;

enum Home {
    /// Not yet realized in any stack (fresh socket).
    Embryo,
    /// Lives in the server's stack.
    Server(SockId),
    /// Migrated into an application.
    App,
}

struct Session {
    proto: Proto,
    owners: Vec<ProcId>,
    home: Home,
    local: Option<InetAddr>,
    remote: Option<InetAddr>,
    filter: Option<FilterId>,
    endpoint: Option<EndpointId>,
    listening: bool,
    closing: bool,
    /// Status reported by the application for migrated sessions
    /// (`proxy_status`, §3.2 select cooperation).
    app_readable: bool,
    /// Writable status reported by the application.
    app_writable: bool,
}

struct Process {
    alive: bool,
    sessions: Vec<SessionId>,
}

struct PendingConnect {
    session: SessionId,
    rx: Option<RxSetup>,
    done: DoneCallback,
}

struct PendingAccept {
    rx: Option<RxSetup>,
    done: DoneCallback,
}

struct SelectWaiter {
    watch: Vec<(SessionId, bool, bool)>,
    done: SelectCallback,
}

/// Counters for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Control RPCs served.
    pub rpcs: u64,
    /// Sessions migrated out to applications.
    pub migrations_out: u64,
    /// Sessions migrated back in.
    pub migrations_in: u64,
    /// Sessions aborted by process death.
    pub crash_cleanups: u64,
    /// Stray TCP segments suppressed for migrated sessions.
    pub strays_suppressed: u64,
    /// Datagrams forwarded to migrated sessions (reassembly case).
    pub udp_forwarded: u64,
    /// Late datagrams reclaimed from a library stack after their
    /// session migrated back to the server (fork/close races).
    pub udp_reclaimed: u64,
    /// Migrations denied at the prepare phase (filter table full, SHM
    /// ring install failure); the session fell back to the server path.
    pub migrations_denied: u64,
    /// Migrations rolled back after prepare (capsule lost between
    /// export and retarget); the session stayed wholly at the server.
    pub migrations_rolled_back: u64,
    /// Retried RPCs answered from the idempotency ledger without
    /// re-executing the resource allocation.
    pub rpc_dedup_hits: u64,
    /// Times the server has crashed.
    pub crashes: u64,
    /// Times the server has restarted after a crash.
    pub restarts: u64,
    /// Sessions rebuilt from stub records at restart.
    pub sessions_rebuilt: u64,
}

/// The operating system server for one host.
pub struct OsServer {
    me: Weak<RefCell<OsServer>>,
    kernel: KernelHandle,
    stack: StackHandle,
    costs: CostModel,
    host_ip: Ipv4Addr,
    server_endpoint: EndpointId,
    ports: PortNamespace,
    sessions: HashMap<SessionId, Session>,
    sock_to_session: HashMap<SockId, SessionId>,
    procs: HashMap<ProcId, Process>,
    next_session: u64,
    next_proc: u64,
    pending_connects: HashMap<SockId, PendingConnect>,
    pending_accepts: HashMap<SessionId, Vec<PendingAccept>>,
    notify: HashMap<SessionId, NotifyCallback>,
    arp_listeners: Vec<ArpInvalidation>,
    /// Outstanding selects, keyed by waiter id. Ids are allocated in
    /// registration order, so in-order iteration reproduces the old
    /// first-registered-first-fired Vec behavior.
    select_waiters: BTreeMap<u64, SelectWaiter>,
    /// Waiter ids watching each session, so a status change evaluates
    /// only the selects that could be affected instead of all of them.
    select_watchers: HashMap<SessionId, BTreeSet<u64>>,
    /// Waiters whose watched state may have changed since they were
    /// last evaluated. `scan_selects` drains this set; every path that
    /// changes session readiness repopulates it.
    select_pending: BTreeSet<u64>,
    /// Sessions (live or stubbed) indexed by bound local port, so the
    /// per-packet stray/forward/reclaim checks scan one port's bucket
    /// rather than every session.
    by_local_port: HashMap<u16, BTreeSet<u64>>,
    next_select: u64,
    /// True while the server is crashed: no RPC is served and the
    /// in-memory session DB is gone until [`OsServer::restart`].
    down: bool,
    /// The durable trace of migrated sessions that survives a crash:
    /// their packet filters and endpoints live in the kernel, so their
    /// records can be rebuilt at restart. Populated by
    /// [`OsServer::crash`], drained by [`OsServer::restart`].
    stub_store: HashMap<SessionId, Session>,
    /// Idempotency ledger: retry token → port claimed by an earlier
    /// execution whose reply may have been lost.
    token_ports: HashMap<u64, u16>,
    /// Idempotency ledger: retry token → session allocated by an
    /// earlier `proxy_socket` execution.
    token_sessions: HashMap<u64, SessionId>,
    /// Counters.
    pub stats: ServerStats,
}

/// Shared handle to the server.
pub type ServerHandle = Rc<RefCell<OsServer>>;

impl OsServer {
    /// Boots the server on a host: creates its server-placement stack,
    /// registers its catch-all endpoint with the kernel, and installs
    /// the exceptional-traffic hooks.
    pub fn new(kernel: &KernelHandle, host_ip: Ipv4Addr) -> ServerHandle {
        let costs = kernel.borrow().costs().clone();
        let cpu = kernel.borrow().cpu();
        let stack = NetStack::new(Placement::Server, costs.clone(), cpu, host_ip);
        stack.borrow_mut().set_ifnet(UserNetIf::new(kernel.clone()));
        let sink = stack_sink(&stack);
        let server_endpoint = {
            let mut k = kernel.borrow_mut();
            let ep = k.create_endpoint(RxMode::Ipc, sink);
            k.set_default_endpoint(ep);
            ep
        };
        let server = Rc::new(RefCell::new(OsServer {
            me: Weak::new(),
            kernel: kernel.clone(),
            stack: stack.clone(),
            costs,
            host_ip,
            server_endpoint,
            ports: PortNamespace::new(),
            sessions: HashMap::new(),
            sock_to_session: HashMap::new(),
            procs: HashMap::new(),
            next_session: 1,
            next_proc: 1,
            pending_connects: HashMap::new(),
            pending_accepts: HashMap::new(),
            notify: HashMap::new(),
            arp_listeners: Vec::new(),
            select_waiters: BTreeMap::new(),
            select_watchers: HashMap::new(),
            select_pending: BTreeSet::new(),
            by_local_port: HashMap::new(),
            next_select: 1,
            down: false,
            stub_store: HashMap::new(),
            token_ports: HashMap::new(),
            token_sessions: HashMap::new(),
            stats: ServerStats::default(),
        }));
        server.borrow_mut().me = Rc::downgrade(&server);

        // Stray-TCP suppression for migrated sessions.
        let weak = Rc::downgrade(&server);
        stack.borrow_mut().set_stray_tcp_hook(Rc::new(RefCell::new(
            move |local: InetAddr, remote: InetAddr| {
                let Some(server) = weak.upgrade() else {
                    return false;
                };
                let mut s = server.borrow_mut();
                // Stub records in `stub_store` also suppress: the
                // suppression must survive a server crash, since the
                // migrated session's data path is still live. Both
                // live and stubbed sessions stay in the port index.
                let migrated = s.by_local_port.get(&local.port).is_some_and(|bucket| {
                    bucket.iter().any(|&raw| {
                        let sid = SessionId(raw);
                        s.sessions
                            .get(&sid)
                            .or_else(|| s.stub_store.get(&sid))
                            .is_some_and(|sess| {
                                matches!(sess.home, Home::App)
                                    && sess.local == Some(local)
                                    && (sess.remote.is_none() || sess.remote == Some(remote))
                            })
                    })
                });
                if migrated {
                    s.stats.strays_suppressed += 1;
                }
                migrated
            },
        )));

        // Forward exceptional datagrams (e.g. reassembled fragments) to
        // migrated UDP sessions through their endpoint sink — one of
        // the "difficult cases" routed through the server.
        let weak = Rc::downgrade(&server);
        stack
            .borrow_mut()
            .set_unclaimed_udp_hook(Rc::new(RefCell::new(
                move |sim: &mut Sim, dst: InetAddr, src: InetAddr, data: &[u8]| {
                    let Some(server) = weak.upgrade() else {
                        return false;
                    };
                    OsServer::forward_unclaimed_udp(&server, sim, dst, src, data)
                },
            )));

        server
    }

    /// The server's protocol stack (for host configuration: routes,
    /// buffers).
    pub fn stack(&self) -> StackHandle {
        self.stack.clone()
    }

    /// The host kernel.
    pub fn kernel(&self) -> KernelHandle {
        self.kernel.clone()
    }

    /// The server's own catch-all receive endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.server_endpoint
    }

    /// Registers a new process.
    pub fn register_process(&mut self) -> ProcId {
        let id = ProcId(self.next_proc);
        self.next_proc += 1;
        self.procs.insert(
            id,
            Process {
                alive: true,
                sessions: Vec::new(),
            },
        );
        id
    }

    fn alloc_session(&mut self, proc: ProcId, proto: Proto) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            id,
            Session {
                proto,
                owners: vec![proc],
                home: Home::Embryo,
                local: None,
                remote: None,
                filter: None,
                endpoint: None,
                listening: false,
                closing: false,
                app_readable: false,
                app_writable: true,
            },
        );
        if let Some(p) = self.procs.get_mut(&proc) {
            p.sessions.push(id);
        }
        id
    }

    /// Records `sid` in the local-port index. A session's port never
    /// changes once bound, so inserts are idempotent.
    fn index_local_port(&mut self, sid: SessionId, port: u16) {
        self.by_local_port.entry(port).or_default().insert(sid.0);
    }

    fn unindex_local_port(&mut self, sid: SessionId, port: u16) {
        if let Some(bucket) = self.by_local_port.get_mut(&port) {
            bucket.remove(&sid.0);
            if bucket.is_empty() {
                self.by_local_port.remove(&port);
            }
        }
    }

    /// Queues every select watching `sid` for re-evaluation.
    fn mark_session_watchers(&mut self, sid: SessionId) {
        if let Some(watchers) = self.select_watchers.get(&sid) {
            self.select_pending.extend(watchers.iter().copied());
        }
    }

    fn unindex_waiter(&mut self, wid: u64, watch: &[(SessionId, bool, bool)]) {
        for (sid, _, _) in watch {
            if let Some(watchers) = self.select_watchers.get_mut(sid) {
                watchers.remove(&wid);
                if watchers.is_empty() {
                    self.select_watchers.remove(sid);
                }
            }
        }
        self.select_pending.remove(&wid);
    }

    /// Serves one control RPC (no bulk data) whose request and reply
    /// carry `bytes`: the caller's trap into the server, the RPC
    /// machinery with its reply crossing, and the message's IPC copies.
    fn serve_rpc(&mut self, charge: &mut Charge, bytes: usize) {
        self.stats.rpcs += 1;
        let (costs, layer) = (&self.costs, Layer::Control);
        charge.op(costs, Op::Trap, Domain::Server, layer);
        charge.op(costs, Op::Rpc, Domain::Library, layer);
        charge.op(costs, Op::ControlCopies(bytes), Domain::Server, layer);
    }

    // ----- Table 1: proxy_socket -----

    /// Creates a session managed by the operating system. Idempotent
    /// under `token`: a retry after a lost reply returns the session
    /// the first execution allocated.
    pub fn proxy_socket(
        &mut self,
        charge: &mut Charge,
        proc: ProcId,
        proto: Proto,
        token: RetryToken,
    ) -> SessionId {
        self.serve_rpc(charge, 64);
        if let Some(&sid) = self.token_sessions.get(&token.0) {
            if self.sessions.contains_key(&sid) {
                self.stats.rpc_dedup_hits += 1;
                return sid;
            }
        }
        let sid = self.alloc_session(proc, proto);
        self.token_sessions.insert(token.0, sid);
        sid
    }

    // ----- Table 1: proxy_bind -----

    /// Sets the session's local address. UDP sessions with an [`RxSetup`]
    /// migrate to the application immediately ("Once the protocol and
    /// local endpoint have been specified for a UDP session with a
    /// proxy_bind call, the session may be used for sending and
    /// receiving packets"). Idempotent under `token`: the port claim
    /// is recorded in the ledger, so a retry after a lost reply reuses
    /// the port the first execution claimed instead of claiming a
    /// second one.
    pub fn proxy_bind(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        port: u16,
        rx: Option<RxSetup>,
        token: RetryToken,
    ) -> Result<Option<SessionReply>, SocketError> {
        let mut s = this.borrow_mut();
        s.serve_rpc(charge, 64);
        let host_ip = s.host_ip;
        let proto = s.sessions.get(&sid).ok_or(SocketError::BadSocket)?.proto;
        let port = match s.token_ports.get(&token.0) {
            Some(&p) => {
                s.stats.rpc_dedup_hits += 1;
                p
            }
            None => {
                let p = s.ports.claim(proto, port)?;
                s.token_ports.insert(token.0, p);
                p
            }
        };
        let local = InetAddr::new(host_ip, port);
        {
            let sess = s.sessions.get_mut(&sid).expect("checked above");
            sess.local = Some(local);
        }
        s.index_local_port(sid, port);
        match (proto, rx) {
            (Proto::Udp, Some(rx)) => {
                // Migrate. A retry may find the first execution's
                // outcome already applied: if the session migrated,
                // tear the old delivery path down and migrate afresh
                // (harmless — the bind-time state is a null snapshot);
                // if a rollback left it server-resident, export that
                // state so nothing queued is lost.
                let state = match s.sessions.get(&sid).map(|x| &x.home) {
                    Some(Home::App) => {
                        s.teardown_app_delivery(sid);
                        if let Some(sess) = s.sessions.get_mut(&sid) {
                            sess.home = Home::Embryo;
                        }
                        None
                    }
                    Some(Home::Server(sock)) => {
                        let sock = *sock;
                        s.sock_to_session.remove(&sock);
                        s.stack.borrow_mut().export_session(sim, sock)
                    }
                    _ => None,
                }
                .unwrap_or(SessionState::Udp(UdpSnapshot {
                    local,
                    remote: None,
                    queued: Vec::new(),
                }));
                let reply = s.migrate_out(sim, charge, sid, state, rx, local, None);
                Ok(Some(reply))
            }
            (Proto::Udp, None) => {
                // Server-based configuration: realize the socket in the
                // server stack now.
                s.ensure_server_sock(sim, sid)?;
                Ok(Some(SessionReply::ServerResident {
                    session: sid,
                    local,
                    remote: None,
                }))
            }
            (Proto::Tcp, _) => {
                // TCP migrates at connect/accept time; only the port is
                // claimed now.
                Ok(None)
            }
        }
    }

    fn ensure_server_sock(&mut self, sim: &mut Sim, sid: SessionId) -> Result<SockId, SocketError> {
        let _ = sim;
        let sess = self.sessions.get_mut(&sid).ok_or(SocketError::BadSocket)?;
        if let Home::Server(sock) = sess.home {
            return Ok(sock);
        }
        let proto = sess.proto;
        let local = sess.local;
        let remote = sess.remote;
        let mut st = self.stack.borrow_mut();
        let sock = match proto {
            Proto::Udp => st.socket_udp(),
            Proto::Tcp => st.socket_tcp(),
        };
        if let Some(local) = local {
            st.bind(sock, local)?;
        }
        if let (Proto::Udp, Some(remote)) = (proto, remote) {
            st.connect_udp(sock, remote)?;
        }
        drop(st);
        self.attach_dispatcher(sock);
        let sess = self.sessions.get_mut(&sid).expect("exists");
        sess.home = Home::Server(sock);
        self.sock_to_session.insert(sock, sid);
        Ok(sock)
    }

    fn attach_dispatcher(&mut self, sock: SockId) {
        let weak = self.me.clone();
        self.stack.borrow_mut().set_sink(
            sock,
            Rc::new(RefCell::new(
                move |sim: &mut Sim, sock: SockId, ev: SockEvent| {
                    if let Some(server) = weak.upgrade() {
                        OsServer::on_stack_event(&server, sim, sock, ev);
                    }
                },
            )),
        );
    }

    // ----- Table 1: proxy_connect -----

    /// Active open. With an [`RxSetup`], the established session
    /// migrates to the application; the callback delivers the reply
    /// once the handshake completes (the extra IPC "is negligible
    /// compared to the latency of a multi-phase network handshake").
    pub fn proxy_connect(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        remote: InetAddr,
        rx: Option<RxSetup>,
        done: DoneCallback,
    ) {
        let mut s = this.borrow_mut();
        if s.down {
            drop(s);
            complete(sim, charge, done, Err(SocketError::TimedOut));
            return;
        }
        s.serve_rpc(charge, 96);
        let Some(sess) = s.sessions.get_mut(&sid) else {
            drop(s);
            complete(sim, charge, done, Err(SocketError::BadSocket));
            return;
        };
        if sess.closing || matches!(sess.home, Home::App) {
            drop(s);
            complete(sim, charge, done, Err(SocketError::IsConnected));
            return;
        }
        sess.remote = Some(remote);
        let proto = sess.proto;
        // Allocate a local endpoint if unbound.
        if sess.local.is_none() {
            let host_ip = s.host_ip;
            match s.ports.claim(proto, 0) {
                Ok(p) => {
                    let sess = s.sessions.get_mut(&sid).expect("exists");
                    sess.local = Some(InetAddr::new(host_ip, p));
                    s.index_local_port(sid, p);
                }
                Err(e) => {
                    drop(s);
                    complete(sim, charge, done, Err(e));
                    return;
                }
            }
        }
        let local = s
            .sessions
            .get(&sid)
            .expect("exists")
            .local
            .expect("set above");

        match proto {
            Proto::Udp => {
                // Connected UDP: set the remote, prewarm ARP, migrate
                // (or realize server-side).
                {
                    let mut st = s.stack.borrow_mut();
                    st.arp_kick(sim, charge, remote.ip);
                }
                match rx {
                    Some(rx) => {
                        let state = SessionState::Udp(UdpSnapshot {
                            local,
                            remote: Some(remote),
                            queued: Vec::new(),
                        });
                        // Wait briefly for the ARP reply so the mapping
                        // travels with the migration snapshot.
                        let me = s.me.clone();
                        drop(s);
                        let at = charge.at() + SimTime::from_millis(2);
                        sim.at(at, move |sim| {
                            let Some(server) = me.upgrade() else { return };
                            let mut s = server.borrow_mut();
                            let cpu = s.stack.borrow().cpu();
                            let now = sim.now();
                            let mut ch = cpu.borrow_mut().begin(now);
                            let reply =
                                s.migrate_out(sim, &mut ch, sid, state, rx, local, Some(remote));
                            cpu.borrow_mut().finish(ch);
                            drop(s);
                            done(sim, Ok(reply));
                        });
                    }
                    None => match s.ensure_server_sock(sim, sid) {
                        Ok(sock) => {
                            let res = s.stack.borrow_mut().connect_udp(sock, remote);
                            drop(s);
                            let reply = res.map(|_| SessionReply::ServerResident {
                                session: sid,
                                local,
                                remote: Some(remote),
                            });
                            complete(sim, charge, done, reply);
                        }
                        Err(e) => {
                            drop(s);
                            complete(sim, charge, done, Err(e));
                        }
                    },
                }
            }
            Proto::Tcp => {
                let sock = match s.ensure_server_sock(sim, sid) {
                    Ok(sock) => sock,
                    Err(e) => {
                        drop(s);
                        complete(sim, charge, done, Err(e));
                        return;
                    }
                };
                s.pending_connects.insert(
                    sock,
                    PendingConnect {
                        session: sid,
                        rx,
                        done,
                    },
                );
                let stack = s.stack.clone();
                drop(s);
                let result = stack.borrow_mut().connect_tcp(sim, charge, sock, remote);
                if let Err(e) = result {
                    let mut s = this.borrow_mut();
                    if let Some(p) = s.pending_connects.remove(&sock) {
                        drop(s);
                        complete(sim, charge, p.done, Err(e));
                    }
                }
            }
        }
    }

    // ----- Table 1: proxy_listen -----

    /// Passive open: the server primes itself for incoming connection
    /// requests on the bound endpoint.
    pub fn proxy_listen(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        backlog: usize,
    ) -> Result<(), SocketError> {
        let mut s = this.borrow_mut();
        s.serve_rpc(charge, 48);
        let sess = s.sessions.get(&sid).ok_or(SocketError::BadSocket)?;
        if sess.local.is_none() {
            return Err(SocketError::Invalid);
        }
        if sess.listening {
            // Idempotent retry after a lost reply.
            s.stats.rpc_dedup_hits += 1;
            return Ok(());
        }
        let sock = s.ensure_server_sock(sim, sid)?;
        s.stack.borrow_mut().listen(sock, backlog)?;
        let sess = s.sessions.get_mut(&sid).expect("exists");
        sess.listening = true;
        Ok(())
    }

    // ----- Table 1: proxy_accept -----

    /// Migrates a passively opened session to the application once a
    /// connection is established.
    pub fn proxy_accept(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        rx: Option<RxSetup>,
        done: DoneCallback,
    ) {
        let mut s = this.borrow_mut();
        if s.down {
            drop(s);
            complete(sim, charge, done, Err(SocketError::TimedOut));
            return;
        }
        s.serve_rpc(charge, 64);
        let listening = s
            .sessions
            .get(&sid)
            .map(|x| x.listening && !x.closing)
            .unwrap_or(false);
        if !listening {
            drop(s);
            complete(sim, charge, done, Err(SocketError::Invalid));
            return;
        }
        s.pending_accepts
            .entry(sid)
            .or_default()
            .push(PendingAccept { rx, done });
        let me = s.me.clone();
        drop(s);
        // Serve immediately if a connection is already queued.
        let at = charge.at();
        sim.at(at, move |sim| {
            if let Some(server) = me.upgrade() {
                OsServer::drain_accepts(&server, sim, sid);
            }
        });
    }

    fn drain_accepts(this: &ServerHandle, sim: &mut Sim, sid: SessionId) {
        loop {
            let mut s = this.borrow_mut();
            if s.pending_accepts.get(&sid).is_none_or(Vec::is_empty) {
                return;
            }
            let Some(sess) = s.sessions.get(&sid) else {
                return;
            };
            let Home::Server(lsock) = sess.home else {
                return;
            };
            let proc = sess.owners[0];
            let child_sock = match s.stack.borrow_mut().accept(lsock) {
                Ok(c) => c,
                Err(_) => return, // Nothing queued yet.
            };
            let pending = s
                .pending_accepts
                .get_mut(&sid)
                .and_then(|q| (!q.is_empty()).then(|| q.remove(0)))
                .expect("checked above");
            // Build a session record for the new connection.
            let proto = Proto::Tcp;
            let child_sid = s.alloc_session(proc, proto);
            let local = s.stack.borrow().local_addr(child_sock);
            let remote = s.stack.borrow().remote_addr(child_sock);
            let (local, remote) = (local.expect("accepted"), remote.expect("accepted"));
            {
                let sess = s.sessions.get_mut(&child_sid).expect("fresh");
                sess.local = Some(local);
                sess.remote = Some(remote);
            }
            s.index_local_port(child_sid, local.port);
            let cpu = s.stack.borrow().cpu();
            let now = sim.now();
            let mut ch = cpu.borrow_mut().begin(now);
            let reply = match pending.rx {
                Some(rx) => {
                    // Export from the server stack and hand over.
                    let state = s
                        .stack
                        .borrow_mut()
                        .export_session(sim, child_sock)
                        .expect("established connection");
                    s.migrate_out(sim, &mut ch, child_sid, state, rx, local, Some(remote))
                }
                None => {
                    // Server-resident child.
                    {
                        let sess = s.sessions.get_mut(&child_sid).expect("fresh");
                        sess.home = Home::Server(child_sock);
                    }
                    s.sock_to_session.insert(child_sock, child_sid);
                    s.attach_dispatcher(child_sock);
                    SessionReply::ServerResident {
                        session: child_sid,
                        local,
                        remote: Some(remote),
                    }
                }
            };
            cpu.borrow_mut().finish(ch);
            drop(s);
            (pending.done)(sim, Ok(reply));
        }
    }

    /// Performs the outward migration as a two-phase transaction.
    ///
    /// *Prepare* creates the application endpoint and installs the
    /// packet filter; either can fail (table exhaustion, SHM ring
    /// install failure, or an injected fault), in which case the
    /// migration is denied and the session falls back to the server
    /// path. Between prepare and commit sits the capsule hop — the
    /// exported state in flight between address spaces; a fault there
    /// rolls the prepared resources back. *Commit* snapshots metastate
    /// and flips the session's home. In every outcome the session is
    /// wholly at exactly one owner: the filter retarget and the state
    /// hand-off happen inside one synchronous event, so no delivery
    /// can interleave with a partially migrated session.
    #[allow(clippy::too_many_arguments)] // One argument per §3.2 reply field.
    fn migrate_out(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        state: SessionState,
        rx: RxSetup,
        local: InetAddr,
        remote: Option<InetAddr>,
    ) -> SessionReply {
        let prepare = Op::MigrationPrepare;
        charge.op(&self.costs, prepare, Domain::Server, Layer::Control);
        let proto = match &state {
            SessionState::Tcp(_) => IpProto::Tcp,
            SessionState::Udp(_) => IpProto::Udp,
        };
        let spec = match remote {
            Some(r) => EndpointSpec::connected(proto, local.ip, local.port, r.ip, r.port),
            None => EndpointSpec::unconnected(proto, local.ip, local.port),
        };
        // Phase 1: prepare the delivery path.
        let (endpoint, filter) = match self.migrate_prepare(charge, spec, rx) {
            Ok(pair) => pair,
            Err(_) => {
                self.stats.migrations_denied += 1;
                return self.migrate_rollback(sim, sid, state, local, remote);
            }
        };
        // The capsule hop: a fault here loses the exported state in
        // flight, so tear the prepared resources down and re-import
        // the state server-side. The filter existed only within this
        // event, so it never claimed a packet.
        if charge.fault(FaultSite::MigrationCapsule) {
            {
                let mut k = self.kernel.borrow_mut();
                k.remove_filter(filter);
                k.destroy_endpoint(endpoint);
            }
            self.stats.migrations_rolled_back += 1;
            return self.migrate_rollback(sim, sid, state, local, remote);
        }
        // Phase 2: commit.
        self.stats.migrations_out += 1;
        let now = charge.at();
        let arp_entries = self.stack.borrow().arp.snapshot(now);
        let routes = {
            let st = self.stack.borrow();
            (st.routes.snapshot(), st.routes.version())
        };
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        sess.home = Home::App;
        sess.filter = Some(filter);
        sess.endpoint = Some(endpoint);
        sess.local = Some(local);
        sess.remote = remote;
        self.index_local_port(sid, local.port);
        SessionReply::Migrated(Box::new(MigratedSession {
            session: sid,
            state,
            endpoint,
            filter,
            local,
            remote,
            arp_entries,
            routes,
        }))
    }

    /// Phase 1 of [`OsServer::migrate_out`]: allocate the endpoint and
    /// install the filter. On any failure nothing is left allocated.
    fn migrate_prepare(
        &mut self,
        charge: &mut Charge,
        spec: EndpointSpec,
        rx: RxSetup,
    ) -> Result<(EndpointId, FilterId), SocketError> {
        let shm = matches!(rx.mode, RxMode::Shm | RxMode::ShmIpf);
        if shm && charge.fault(FaultSite::ShmRing) {
            return Err(SocketError::NoBufs);
        }
        let mut k = self.kernel.borrow_mut();
        let ep = k.create_endpoint(rx.mode, rx.sink);
        if charge.fault(FaultSite::FilterTable) {
            k.destroy_endpoint(ep);
            return Err(SocketError::NoBufs);
        }
        match k.install_filter(spec, ep) {
            Ok(f) => Ok((ep, f)),
            Err(_) => {
                k.destroy_endpoint(ep);
                Err(SocketError::NoBufs)
            }
        }
    }

    /// Undoes a failed migration: the exported state is re-imported
    /// into the server's stack, so the session continues server-
    /// resident with every queued byte intact.
    fn migrate_rollback(
        &mut self,
        sim: &mut Sim,
        sid: SessionId,
        state: SessionState,
        local: InetAddr,
        remote: Option<InetAddr>,
    ) -> SessionReply {
        let sock = self.stack.borrow_mut().import_session(sim, state);
        self.attach_dispatcher(sock);
        if let Some(sess) = self.sessions.get_mut(&sid) {
            sess.home = Home::Server(sock);
            sess.local = Some(local);
            sess.remote = remote;
        }
        self.index_local_port(sid, local.port);
        self.sock_to_session.insert(sock, sid);
        SessionReply::ServerResident {
            session: sid,
            local,
            remote,
        }
    }

    // ----- Table 1: proxy_return (fork) and close -----

    /// Returns a migrated session to the operating system ("All
    /// sessions should be returned to the operating system before fork
    /// is called"). The application's endpoint and filter are torn
    /// down; the session continues server-resident.
    pub fn proxy_return(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        state: SessionState,
    ) -> Result<(), SocketError> {
        let mut s = this.borrow_mut();
        s.serve_rpc(charge, 256);
        s.stats.migrations_in += 1;
        s.teardown_app_delivery(sid);
        let sock = s.stack.borrow_mut().import_session(sim, state);
        s.attach_dispatcher(sock);
        let sess = s.sessions.get_mut(&sid).ok_or(SocketError::BadSocket)?;
        sess.home = Home::Server(sock);
        s.sock_to_session.insert(sock, sid);
        Ok(())
    }

    fn teardown_app_delivery(&mut self, sid: SessionId) {
        if let Some(sess) = self.sessions.get_mut(&sid) {
            let filter = sess.filter.take();
            let endpoint = sess.endpoint.take();
            let mut k = self.kernel.borrow_mut();
            if let Some(f) = filter {
                k.remove_filter(f);
            }
            if let Some(ep) = endpoint {
                k.destroy_endpoint(ep);
            }
        }
    }

    /// Clean shutdown: "we migrate the session state back to the
    /// operating system and follow the shutdown protocol there." For a
    /// migrated session the proxy passes the exported state; for
    /// server-resident sessions it passes `None`.
    pub fn proxy_close(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        state: Option<SessionState>,
    ) {
        let mut s = this.borrow_mut();
        s.serve_rpc(charge, 128);
        if let Some(state) = state {
            s.stats.migrations_in += 1;
            s.teardown_app_delivery(sid);
            let sock = s.stack.borrow_mut().import_session(sim, state);
            s.attach_dispatcher(sock);
            if let Some(sess) = s.sessions.get_mut(&sid) {
                sess.home = Home::Server(sock);
            }
            s.sock_to_session.insert(sock, sid);
        }
        let Some(sess) = s.sessions.get_mut(&sid) else {
            return;
        };
        sess.closing = true;
        match sess.home {
            Home::Server(sock) => {
                let proto = sess.proto;
                let stack = s.stack.clone();
                drop(s);
                stack.borrow_mut().close(sim, charge, sock);
                let done = match proto {
                    Proto::Udp => true,
                    Proto::Tcp => {
                        // TCP waits for the shutdown protocol; cleanup
                        // happens on the Closed event. If it is already
                        // fully closed, clean up now.
                        matches!(
                            stack.borrow().tcp_state(sock),
                            None | Some(psd_netstack::tcp::TcpState::Closed)
                        ) && stack.borrow().accept_queue_len(sock) == 0
                    }
                };
                if done {
                    OsServer::release_session(this, sim, sid);
                }
            }
            Home::App | Home::Embryo => {
                drop(s);
                OsServer::release_session(this, sim, sid);
            }
        }
    }

    fn release_session(this: &ServerHandle, sim: &mut Sim, sid: SessionId) {
        let mut s = this.borrow_mut();
        s.teardown_app_delivery(sid);
        let Some(sess) = s.sessions.remove(&sid) else {
            return;
        };
        if let Some(local) = sess.local {
            s.ports.release(sess.proto, local.port);
            s.unindex_local_port(sid, local.port);
        }
        if let Home::Server(sock) = sess.home {
            s.sock_to_session.remove(&sock);
            // Make sure the stack entry is gone (no-op if already).
            if s.stack.borrow().exists(sock) {
                let cpu = s.stack.borrow().cpu();
                let now = sim.now();
                let mut ch = cpu.borrow_mut().begin(now);
                s.stack.borrow_mut().abort(sim, &mut ch, sock);
                cpu.borrow_mut().finish(ch);
            }
        }
        for proc in sess.owners {
            if let Some(p) = s.procs.get_mut(&proc) {
                p.sessions.retain(|x| *x != sid);
            }
        }
        s.notify.remove(&sid);
        s.pending_accepts.remove(&sid);
    }

    // ----- fork and process death -----

    /// Forks a process: the child shares all (server-resident)
    /// sessions. Fails if any session is still migrated out.
    pub fn fork(&mut self, charge: &mut Charge, parent: ProcId) -> Result<ProcId, SocketError> {
        self.serve_rpc(charge, 128);
        let sessions: Vec<SessionId> = self
            .procs
            .get(&parent)
            .ok_or(SocketError::Invalid)?
            .sessions
            .clone();
        for sid in &sessions {
            if matches!(self.sessions.get(sid).map(|s| &s.home), Some(Home::App)) {
                return Err(SocketError::Invalid);
            }
        }
        let child = ProcId(self.next_proc);
        self.next_proc += 1;
        self.procs.insert(
            child,
            Process {
                alive: true,
                sessions: sessions.clone(),
            },
        );
        for sid in sessions {
            if let Some(sess) = self.sessions.get_mut(&sid) {
                sess.owners.push(child);
            }
        }
        Ok(child)
    }

    /// Handles the death of a process: aborts its outstanding sessions
    /// ("abort outstanding connections by sending reset messages to
    /// remote peers") and releases their resources.
    pub fn process_died(this: &ServerHandle, sim: &mut Sim, proc: ProcId) {
        let sessions: Vec<SessionId> = {
            let mut s = this.borrow_mut();
            let Some(p) = s.procs.get_mut(&proc) else {
                return;
            };
            p.alive = false;
            p.sessions.clone()
        };
        for sid in sessions {
            let mut s = this.borrow_mut();
            let home = {
                let Some(sess) = s.sessions.get_mut(&sid) else {
                    continue;
                };
                sess.owners.retain(|o| *o != proc);
                if !sess.owners.is_empty() {
                    continue; // Shared with a living process (fork).
                }
                std::mem::replace(&mut sess.home, Home::Embryo)
            };
            s.stats.crash_cleanups += 1;
            match home {
                Home::Server(sock) => {
                    let stack = s.stack.clone();
                    let cpu = stack.borrow().cpu();
                    drop(s);
                    let now = sim.now();
                    let mut ch = cpu.borrow_mut().begin(now);
                    stack.borrow_mut().abort(sim, &mut ch, sock);
                    cpu.borrow_mut().finish(ch);
                }
                Home::App | Home::Embryo => {
                    // The state died with the process; tear down the
                    // delivery path. (The peer learns via its own
                    // timers or a RST to a later segment once the
                    // filter is gone and the segment reaches the
                    // server's stack, which no longer suppresses it.)
                    drop(s);
                }
            }
            OsServer::release_session(this, sim, sid);
        }
        this.borrow_mut().procs.remove(&proc);
    }

    // ----- crash and restart -----

    /// True while the server is crashed. Applications observe this as
    /// RPC deadline expiry (the proxy library never reaches a down
    /// server); tests may probe it directly.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Crashes the server: the in-memory session DB, port namespace,
    /// idempotency ledgers and pending RPCs are lost, and
    /// server-resident connections are aborted (their state died with
    /// the server, so peers see resets). Migrated sessions survive —
    /// their filters and endpoints are kernel state — and their
    /// records move to the durable stub store from which
    /// [`OsServer::restart`] rebuilds.
    pub fn crash(this: &ServerHandle, sim: &mut Sim) {
        let (server_socks, stack) = {
            let mut s = this.borrow_mut();
            if s.down {
                return;
            }
            s.down = true;
            s.stats.crashes += 1;
            s.pending_connects.clear();
            s.pending_accepts.clear();
            s.select_waiters.clear();
            s.select_watchers.clear();
            s.select_pending.clear();
            s.notify.clear();
            s.token_ports.clear();
            s.token_sessions.clear();
            // Abort in session order: iteration order of the map is
            // not deterministic across runs, and aborts emit frames.
            let mut socks: Vec<(SessionId, SockId)> = s
                .sessions
                .iter()
                .filter_map(|(sid, sess)| match sess.home {
                    Home::Server(sock) => Some((*sid, sock)),
                    _ => None,
                })
                .collect();
            socks.sort_by_key(|(sid, _)| *sid);
            (socks, s.stack.clone())
        };
        {
            let cpu = stack.borrow().cpu();
            let now = sim.now();
            let mut ch = cpu.borrow_mut().begin(now);
            for (_, sock) in server_socks {
                if stack.borrow().exists(sock) {
                    stack.borrow_mut().abort(sim, &mut ch, sock);
                }
            }
            cpu.borrow_mut().finish(ch);
        }
        let mut s = this.borrow_mut();
        let sessions = std::mem::take(&mut s.sessions);
        for (sid, sess) in sessions {
            if matches!(sess.home, Home::App) {
                // Stubbed sessions stay in the port index: the stray
                // suppression keyed on them must survive the crash.
                s.stub_store.insert(sid, sess);
            } else {
                if let Some(local) = sess.local {
                    s.unindex_local_port(sid, local.port);
                }
            }
        }
        s.sock_to_session.clear();
        s.procs.clear();
        s.ports = PortNamespace::new();
    }

    /// Restarts a crashed server: the session DB and port namespace
    /// are rebuilt from the stub records of migrated sessions (whose
    /// kernel-side filters and endpoints are the durable trace).
    /// Applications re-register and re-adopt their sessions with
    /// [`OsServer::adopt_session`].
    pub fn restart(this: &ServerHandle, _sim: &mut Sim) {
        let mut s = this.borrow_mut();
        if !s.down {
            return;
        }
        s.down = false;
        s.stats.restarts += 1;
        let mut stubs: Vec<_> = std::mem::take(&mut s.stub_store).into_iter().collect();
        stubs.sort_by_key(|(sid, _)| *sid);
        for (sid, sess) in stubs {
            if let Some(local) = sess.local {
                let _ = s.ports.claim(sess.proto, local.port);
            }
            if sid.0 >= s.next_session {
                s.next_session = sid.0 + 1;
            }
            s.stats.sessions_rebuilt += 1;
            s.sessions.insert(sid, sess);
        }
    }

    /// Whether the server currently knows `sid` (post-restart probe:
    /// an application checks which of its descriptors were rebuilt).
    pub fn has_session(&self, sid: SessionId) -> bool {
        self.sessions.contains_key(&sid)
    }

    /// Re-attaches a rebuilt session to the process that re-registered
    /// after a restart (the old [`ProcId`]s died with the server).
    pub fn adopt_session(&mut self, sid: SessionId, proc: ProcId) {
        if let Some(sess) = self.sessions.get_mut(&sid) {
            sess.owners = vec![proc];
            let p = self.procs.entry(proc).or_insert(Process {
                alive: true,
                sessions: Vec::new(),
            });
            if !p.sessions.contains(&sid) {
                p.sessions.push(sid);
            }
        }
    }

    // ----- data path for server-resident sessions -----

    /// TCP send on a server-resident session (the server-based
    /// configuration's data path; the four-copy RPC is charged by the
    /// proxy).
    pub fn data_send_tcp(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        data: &[u8],
    ) -> Result<usize, SocketError> {
        let sock = self.resident_sock(sid)?;
        charge.site_push(Domain::Server, "data_send");
        let out = self.stack.borrow_mut().tcp_send(sim, charge, sock, data);
        charge.site_pop();
        out
    }

    /// TCP receive on a server-resident session.
    pub fn data_recv_tcp(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        buf: &mut [u8],
    ) -> Result<usize, SocketError> {
        let sock = self.resident_sock(sid)?;
        charge.site_push(Domain::Server, "data_recv");
        let out = self.stack.borrow_mut().tcp_recv(sim, charge, sock, buf);
        charge.site_pop();
        out
    }

    /// UDP send on a server-resident session.
    pub fn data_send_udp(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        data: &[u8],
        dst: Option<InetAddr>,
    ) -> Result<usize, SocketError> {
        // Implicit bind for unbound sendto, as BSD does.
        if self
            .sessions
            .get(&sid)
            .ok_or(SocketError::BadSocket)?
            .local
            .is_none()
        {
            let port = self.ports.claim(Proto::Udp, 0)?;
            let local = InetAddr::new(self.host_ip, port);
            self.sessions.get_mut(&sid).expect("exists").local = Some(local);
            self.index_local_port(sid, port);
        }
        let sock = match self.resident_sock(sid) {
            Ok(s) => s,
            Err(SocketError::NotConnected) => self.ensure_server_sock(sim, sid)?,
            Err(e) => return Err(e),
        };
        charge.site_push(Domain::Server, "data_send");
        let out = self
            .stack
            .borrow_mut()
            .udp_send(sim, charge, sock, data, dst);
        charge.site_pop();
        out
    }

    /// UDP receive on a server-resident session.
    pub fn data_recv_udp(
        &mut self,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        buf: &mut [u8],
    ) -> Result<(usize, InetAddr), SocketError> {
        let sock = self.resident_sock(sid)?;
        charge.site_push(Domain::Server, "data_recv");
        let out = self.stack.borrow_mut().udp_recv(sim, charge, sock, buf);
        charge.site_pop();
        out
    }

    /// Readable/writable poll for a server-resident session.
    pub fn data_poll(&self, sid: SessionId) -> (usize, usize) {
        match self.resident_sock(sid) {
            Ok(sock) => {
                let st = self.stack.borrow();
                (st.readable(sock), st.writable(sock))
            }
            Err(_) => (0, 0),
        }
    }

    fn resident_sock(&self, sid: SessionId) -> Result<SockId, SocketError> {
        if self.down {
            // A data RPC to a crashed server is never answered; the
            // proxy's deadline converts the silence into this error.
            return Err(SocketError::TimedOut);
        }
        match self.sessions.get(&sid).map(|s| &s.home) {
            Some(Home::Server(sock)) => Ok(*sock),
            Some(_) => Err(SocketError::NotConnected),
            None => Err(SocketError::BadSocket),
        }
    }

    /// Registers the callback that forwards events on a server-resident
    /// session to the owning application.
    pub fn set_notify(&mut self, sid: SessionId, cb: NotifyCallback) {
        self.notify.insert(sid, cb);
    }

    // ----- metastate service (§3.3) -----

    /// ARP lookup on behalf of an application's library stack. A miss
    /// starts resolution and returns `None`; the library's packet is
    /// dropped and recovered by the protocol, and the next query hits.
    pub fn proxy_arp_lookup(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        ip: Ipv4Addr,
    ) -> Option<EtherAddr> {
        let mut s = this.borrow_mut();
        if s.down {
            return None;
        }
        s.serve_rpc(charge, 32);
        let now = charge.at();
        let hit = s.stack.borrow().arp.lookup(ip, now);
        if hit.is_none() {
            let stack = s.stack.clone();
            drop(s);
            stack.borrow_mut().arp_kick(sim, charge, ip);
        }
        hit
    }

    /// Registers a metastate invalidation listener (the server
    /// "maintains callbacks into applications for these cached entries
    /// and invalidates them as they expire or are updated").
    pub fn register_arp_listener(&mut self, cb: ArpInvalidation) {
        self.arp_listeners.push(cb);
    }

    /// Administratively invalidates an ARP entry everywhere (server
    /// cache plus all registered application caches).
    pub fn invalidate_arp(this: &ServerHandle, sim: &mut Sim, ip: Ipv4Addr) {
        let listeners: Vec<ArpInvalidation> = {
            let s = this.borrow();
            s.stack.borrow_mut().arp.invalidate(ip);
            s.arp_listeners.clone()
        };
        for cb in listeners {
            sim.at(sim.now(), {
                let cb = cb.clone();
                move |sim| cb.borrow_mut()(sim, ip)
            });
        }
    }

    // ----- select (§3.2 cooperative interface) -----

    /// Application status report for a migrated session (`proxy_status`):
    /// "When the application discovers data on one of the selected
    /// sockets, it signals the operating system of a status change,
    /// forcing any relevant outstanding selects to return."
    pub fn proxy_status(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        sid: SessionId,
        readable: bool,
        writable: bool,
    ) {
        {
            let mut s = this.borrow_mut();
            if s.down {
                return;
            }
            s.serve_rpc(charge, 32);
            if let Some(sess) = s.sessions.get_mut(&sid) {
                sess.app_readable = readable;
                sess.app_writable = writable;
            }
            s.mark_session_watchers(sid);
        }
        OsServer::scan_selects(this, sim);
    }

    /// Cooperative select over sessions. Completes (via callback) when
    /// any watched session is ready; server-resident sessions are
    /// checked directly, migrated ones through their reported status.
    pub fn select(
        this: &ServerHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        watch: Vec<(SessionId, bool, bool)>,
        timeout: Option<SimTime>,
        done: SelectCallback,
    ) {
        let waiter_id = {
            let mut s = this.borrow_mut();
            s.serve_rpc(charge, 64);
            let id = s.next_select;
            s.next_select += 1;
            for (sid, _, _) in &watch {
                s.select_watchers.entry(*sid).or_default().insert(id);
            }
            s.select_waiters.insert(id, SelectWaiter { watch, done });
            s.select_pending.insert(id);
            id
        };
        if let Some(t) = timeout {
            let me = Rc::downgrade(this);
            sim.after(t, move |sim| {
                let Some(server) = me.upgrade() else { return };
                // Fire with whatever is ready (possibly nothing). The
                // waiter is found by id — other selects may have
                // completed (and been removed) in the meantime.
                let waiter = {
                    let mut s = server.borrow_mut();
                    match s.select_waiters.remove(&waiter_id) {
                        Some(w) => {
                            let ready = s.ready_of(&w.watch);
                            s.unindex_waiter(waiter_id, &w.watch);
                            Some((w.done, ready))
                        }
                        None => None,
                    }
                };
                if let Some((done, ready)) = waiter {
                    done(sim, ready);
                }
            });
        }
        OsServer::scan_selects(this, sim);
    }

    fn ready_of(&self, watch: &[(SessionId, bool, bool)]) -> Vec<SessionId> {
        let mut ready = Vec::new();
        for (sid, want_r, want_w) in watch {
            let Some(sess) = self.sessions.get(sid) else {
                continue;
            };
            let (r, w) = match sess.home {
                Home::Server(sock) => {
                    let st = self.stack.borrow();
                    (
                        st.readable(sock) > 0 || st.at_eof(sock),
                        st.writable(sock) > 0,
                    )
                }
                Home::App => (sess.app_readable, sess.app_writable),
                Home::Embryo => (false, false),
            };
            if (*want_r && r) || (*want_w && w) {
                ready.push(*sid);
            }
        }
        ready
    }

    /// Fires every ready select, lowest waiter id first (registration
    /// order, as the old full scan did). Only waiters queued in
    /// `select_pending` are evaluated: every path that changes a
    /// session's readiness queues that session's watchers, so a waiter
    /// outside the set cannot have become ready since it was last
    /// found not-ready.
    fn scan_selects(this: &ServerHandle, sim: &mut Sim) {
        loop {
            let fired = {
                let mut s = this.borrow_mut();
                let mut hit = None;
                while let Some(&wid) = s.select_pending.iter().next() {
                    s.select_pending.remove(&wid);
                    let Some(w) = s.select_waiters.get(&wid) else {
                        continue;
                    };
                    let ready = s.ready_of(&w.watch);
                    if !ready.is_empty() {
                        hit = Some((wid, ready));
                        break;
                    }
                }
                match hit {
                    Some((wid, ready)) => {
                        let w = s.select_waiters.remove(&wid).expect("present");
                        s.unindex_waiter(wid, &w.watch);
                        Some((w.done, ready))
                    }
                    None => None,
                }
            };
            match fired {
                Some((done, ready)) => done(sim, ready),
                None => return,
            }
        }
    }

    // ----- internal event plumbing -----

    fn on_stack_event(this: &ServerHandle, sim: &mut Sim, sock: SockId, ev: SockEvent) {
        // Whatever this event did, it can only have changed the
        // readiness of the session owning this socket: queue its
        // watchers for the scans below.
        {
            let mut s = this.borrow_mut();
            if let Some(&sid) = s.sock_to_session.get(&sock) {
                s.mark_session_watchers(sid);
            }
        }
        // Connect completion?
        let pending = this.borrow_mut().pending_connects.remove(&sock);
        if let Some(p) = pending {
            match ev {
                SockEvent::Connected => {
                    let mut s = this.borrow_mut();
                    let local = s.stack.borrow().local_addr(sock).expect("connected");
                    let remote = s.stack.borrow().remote_addr(sock).expect("connected");
                    let reply = match p.rx {
                        Some(rx) => {
                            let state = s
                                .stack
                                .borrow_mut()
                                .export_session(sim, sock)
                                .expect("established");
                            s.sock_to_session.remove(&sock);
                            let cpu = s.stack.borrow().cpu();
                            let now = sim.now();
                            let mut ch = cpu.borrow_mut().begin(now);
                            let reply = s.migrate_out(
                                sim,
                                &mut ch,
                                p.session,
                                state,
                                rx,
                                local,
                                Some(remote),
                            );
                            cpu.borrow_mut().finish(ch);
                            reply
                        }
                        None => {
                            if let Some(sess) = s.sessions.get_mut(&p.session) {
                                sess.remote = Some(remote);
                            }
                            SessionReply::ServerResident {
                                session: p.session,
                                local,
                                remote: Some(remote),
                            }
                        }
                    };
                    drop(s);
                    (p.done)(sim, Ok(reply));
                }
                SockEvent::Error(e) => {
                    (p.done)(sim, Err(e));
                }
                other => {
                    // Not a completion; put the pending back.
                    this.borrow_mut().pending_connects.insert(sock, p);
                    let _ = other;
                }
            }
            OsServer::scan_selects(this, sim);
            return;
        }

        // Listener with queued connections?
        let (session, is_listener) = {
            let s = this.borrow();
            match s.sock_to_session.get(&sock) {
                Some(sid) => (
                    Some(*sid),
                    s.sessions.get(sid).map(|x| x.listening).unwrap_or(false),
                ),
                None => (None, false),
            }
        };
        if let Some(sid) = session {
            if is_listener && ev == SockEvent::Readable {
                OsServer::drain_accepts(this, sim, sid);
            }
            // Closing session fully terminated?
            if ev == SockEvent::Closed {
                let closing = this
                    .borrow()
                    .sessions
                    .get(&sid)
                    .map(|s| s.closing)
                    .unwrap_or(false);
                if closing {
                    OsServer::release_session(this, sim, sid);
                }
            }
            // Forward to the owning application (server-resident data
            // path), via a scheduled event so the app may re-enter.
            let cb = this.borrow().notify.get(&sid).cloned();
            if let Some(cb) = cb {
                sim.at(sim.now(), move |sim| {
                    cb.borrow_mut()(sim, sid, ev);
                });
            }
        }
        OsServer::scan_selects(this, sim);
    }

    fn forward_unclaimed_udp(
        this: &ServerHandle,
        sim: &mut Sim,
        dst: InetAddr,
        src: InetAddr,
        data: &[u8],
    ) -> bool {
        // A datagram for a migrated session (it reached the server via
        // the catch-all because it was fragmented or otherwise
        // exceptional): forward through the application's endpoint sink
        // as a synthesized UDP packet.
        let target = {
            let s = this.borrow();
            // Earliest-created matching session wins (the bucket is in
            // ascending session-id order).
            s.by_local_port.get(&dst.port).and_then(|bucket| {
                bucket.iter().find_map(|&raw| {
                    let sid = SessionId(raw);
                    let sess = s.sessions.get(&sid)?;
                    (matches!(sess.home, Home::App)
                        && sess.proto == Proto::Udp
                        && sess.local.map(|l| l.port) == Some(dst.port)
                        && (sess.remote.is_none() || sess.remote == Some(src)))
                    .then_some(sid)
                })
            })
        };
        let Some(sid) = target else {
            return false;
        };
        let endpoint = this.borrow().sessions.get(&sid).and_then(|s| s.endpoint);
        let Some(_ep) = endpoint else {
            return false;
        };
        this.borrow_mut().stats.udp_forwarded += 1;
        // Deliver through the app's sink (an IPC forward): route the
        // forward through the kernel's classify path by re-presenting
        // the frame as if freshly received — the installed session
        // filter claims it.
        Self::represent_udp(this, sim, dst, src, data);
        true
    }

    /// Rebuilds a minimal Ethernet+IP+UDP frame around `data` and
    /// re-presents it to the kernel's classify path as if freshly
    /// received, so whatever filters are installed *now* decide its
    /// owner.
    fn represent_udp(
        this: &ServerHandle,
        sim: &mut Sim,
        dst: InetAddr,
        src: InetAddr,
        data: &[u8],
    ) {
        let mut udp = psd_wire::UdpHeader::new(src.port, dst.port, data.len());
        let ip = psd_wire::Ipv4Header::new(src.ip, dst.ip, IpProto::Udp, 8 + data.len());
        let chain = psd_mbuf::MbufChain::from_slice(data);
        udp.checksum = udp.checksum_for(&ip, chain.iter_segments());
        let eth = psd_wire::EthernetHeader {
            dst: this.borrow().kernel.borrow().mac(),
            src: EtherAddr::local(0xFFFF),
            ethertype: psd_wire::EtherType::Ipv4,
        };
        let mut frame = eth.encode().to_vec();
        frame.extend_from_slice(&ip.encode());
        frame.extend_from_slice(&udp.encode());
        frame.extend_from_slice(data);
        let kernel = this.borrow().kernel.clone();
        sim.at(sim.now(), move |sim| {
            use psd_netdev::Station;
            kernel.borrow_mut().frame_arrived(sim, frame);
        });
    }

    /// The inverse of the unclaimed-datagram forward: a datagram that
    /// was classified to an application's endpoint *before* the
    /// session migrated back (fork, close) lands in the library stack
    /// after its socket is gone. The library hands it here; if the
    /// session is now server-resident, the frame is re-presented so
    /// the classify path — whose filter for this session has been torn
    /// down — delivers it to the server's socket. Each in-flight
    /// datagram is therefore drained exactly once.
    pub fn reclaim_migrated_udp(
        this: &ServerHandle,
        sim: &mut Sim,
        dst: InetAddr,
        src: InetAddr,
        data: &[u8],
    ) -> bool {
        let claimed = {
            let s = this.borrow();
            s.by_local_port.get(&dst.port).is_some_and(|bucket| {
                bucket.iter().any(|&raw| {
                    s.sessions.get(&SessionId(raw)).is_some_and(|sess| {
                        matches!(sess.home, Home::Server(_))
                            && sess.proto == Proto::Udp
                            && sess.local.map(|l| l.port) == Some(dst.port)
                            && (sess.remote.is_none() || sess.remote == Some(src))
                    })
                })
            })
        };
        if !claimed {
            return false;
        }
        this.borrow_mut().stats.udp_reclaimed += 1;
        Self::represent_udp(this, sim, dst, src, data);
        true
    }

    /// Number of live sessions (diagnostics).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The port namespace (diagnostics/tests).
    pub fn ports(&self) -> &PortNamespace {
        &self.ports
    }
}

/// Schedules a completion callback at the charge's current time — the
/// reply IPC arriving back at the application.
fn complete(
    sim: &mut Sim,
    charge: &Charge,
    done: DoneCallback,
    result: Result<SessionReply, SocketError>,
) {
    let at = charge.at();
    sim.at(at, move |sim| done(sim, result));
}
