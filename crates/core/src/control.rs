//! Control-path proxy operations: the Table 1 calls.
//!
//! Each BSD call is mapped exactly as the paper's Table 1 specifies:
//! `socket`→`proxy_socket`, `bind`→`proxy_bind` (UDP migrates),
//! `connect`→`proxy_connect` (UDP and TCP migrate),
//! `listen`→`proxy_listen`, `accept`→`proxy_accept` (migrates the
//! passively opened session), `fork`→`proxy_return` for every session
//! before the server duplicates the process, and `close` migrates the
//! session back for the shutdown protocol.

use crate::{select, ApiMode, AppHandle, AppLib, Fd, FdEntry, FdState, Path, SockEvent};
use psd_netstack::{InetAddr, SockId, SocketError};
use psd_server::{
    stack_sink_with_busy_report, MigratedSession, OsServer, Proto, RetryToken, RxSetup, SessionId,
    SessionReply,
};
use psd_sim::{Charge, Domain, FaultSite, Layer, Op, Sim, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Retry budget for deadline-bounded proxy RPCs: the initial deadline
/// is `4 * rpc_base` nanoseconds and doubles on every retry (bounded
/// exponential backoff), so the worst case charges `4+8+16+32 = 60`
/// RPC base times before the call fails with
/// [`SocketError::TimedOut`].
const RPC_MAX_ATTEMPTS: u32 = 4;

impl AppLib {
    /// Mints a fresh idempotency token for one logical retryable RPC;
    /// every attempt of that RPC carries the same token.
    fn mint_token(this: &AppHandle) -> RetryToken {
        let mut app = this.borrow_mut();
        let proc = app.proc.map(|p| p.0).unwrap_or(0);
        let c = app.next_token;
        app.next_token += 1;
        RetryToken((proc << 32) | c)
    }

    /// Runs one retryable proxy RPC under a deadline, as one charged
    /// control RPC: an attempt may be lost to a server crash
    /// ([`FaultSite::ServerCrash`]), to the server being down (the
    /// request is never answered), or to a lost reply
    /// ([`FaultSite::ProxyRpc`]). Each loss charges the expired deadline
    /// plus exponential backoff and retries with the same idempotency
    /// token; after [`RPC_MAX_ATTEMPTS`] losses the call fails with
    /// [`SocketError::TimedOut`]. With no fault plane attached the first
    /// attempt always returns, so this wrapper adds zero charged time to
    /// the fault-free path.
    fn proxy_rpc<T>(
        this: &AppHandle,
        sim: &mut Sim,
        mut call: impl FnMut(&mut Sim, &mut Charge) -> Result<T, SocketError>,
    ) -> Result<T, SocketError> {
        let server = this.borrow().server.clone().expect("server");
        AppLib::charged(this, sim, |sim, charge| {
            this.borrow_mut().stats.control_rpcs += 1;
            for attempt in 0..RPC_MAX_ATTEMPTS {
                if charge.fault(FaultSite::ServerCrash) {
                    // The server dies mid-request; the attempt is lost.
                    OsServer::crash(&server, sim);
                } else if !server.borrow().is_down() {
                    let result = call(sim, charge);
                    if !charge.fault(FaultSite::ProxyRpc) {
                        return result;
                    }
                    // The reply was lost after the server executed the
                    // call — the case the idempotency tokens exist for.
                }
                // Deadline expiry plus bounded exponential backoff.
                let deadline = Op::RpcDeadline(attempt);
                let mut app = this.borrow_mut();
                charge.op(&app.costs, deadline, Domain::Library, Layer::Control);
                app.stats.rpc_retries += 1;
            }
            this.borrow_mut().stats.rpc_timeouts += 1;
            Err(SocketError::TimedOut)
        })
    }

    /// `socket(2)`: creates a descriptor backed by a session managed by
    /// the operating system (or an in-kernel socket in the monolithic
    /// baseline).
    pub fn socket(this: &AppHandle, sim: &mut Sim, proto: Proto) -> Fd {
        let mode = this.borrow().mode;
        if mode == ApiMode::InKernel {
            let stack = this.borrow().stack.clone().expect("kernel stack");
            let sock = AppLib::charged(this, sim, |_, charge| {
                this.borrow().trap(charge, Op::Trap, Layer::Control);
                let mut st = stack.borrow_mut();
                match proto {
                    Proto::Udp => st.socket_udp(),
                    Proto::Tcp => st.socket_tcp(),
                }
            });
            let fd = this.borrow_mut().alloc_fd(proto, FdState::Kern(sock));
            AppLib::register_sock(this, sock, fd);
            return fd;
        }
        let server = this.borrow().server.clone().expect("server");
        let proc = this.borrow().proc.expect("registered process");
        let token = AppLib::mint_token(this);
        let sid = AppLib::proxy_rpc(this, sim, |_, charge| {
            Ok(server.borrow_mut().proxy_socket(charge, proc, proto, token))
        });
        // A timed-out socket() yields a dead descriptor, the closest
        // analogue of an errno return given the Fd signature; every
        // later call on it fails.
        this.borrow_mut().alloc_fd(proto, FdState::Fresh(sid.ok()))
    }

    fn session_of(&self, fd: Fd) -> Option<SessionId> {
        match &self.fds.get(&fd)?.state {
            FdState::Fresh(sid) => *sid,
            FdState::Session(sid) => Some(*sid),
            FdState::Local { session, .. } => *session,
            FdState::Kern(_) => None,
        }
    }

    fn rx_setup(this: &AppHandle, ep_cell: &Rc<Cell<Option<psd_kernel::EndpointId>>>) -> RxSetup {
        let app = this.borrow();
        let ApiMode::Library { rx_mode } = app.mode else {
            panic!("rx_setup only in library mode");
        };
        let stack = app.stack.clone().expect("library stack");
        let sink = stack_sink_with_busy_report(&stack, &app.kernel, ep_cell.clone());
        RxSetup {
            mode: rx_mode,
            sink,
        }
    }

    /// Delivers `ev` to `fd`'s handler at `at`, the way the stack's and
    /// the server's asynchronous events arrive.
    fn notify_at(this: &AppHandle, sim: &mut Sim, at: SimTime, fd: Fd, ev: SockEvent) {
        let weak = this.borrow().me.clone();
        sim.at(at, move |sim| {
            let Some(app) = weak.upgrade() else { return };
            let handler = app.borrow().handlers.get(&fd).cloned();
            if let Some(h) = handler {
                h.borrow_mut()(sim, fd, ev);
            }
        });
    }

    /// Imports a migrated session into the library stack and rebinds
    /// the descriptor to it. Returns the stack socket.
    pub(crate) fn adopt_migrated(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        m: Box<MigratedSession>,
        ep_cell: Rc<Cell<Option<psd_kernel::EndpointId>>>,
    ) {
        let stack = this.borrow().stack.clone().expect("library stack");
        // Load the metastate snapshot (§3.3) into the local caches.
        {
            let mut st = stack.borrow_mut();
            let now = sim.now();
            for (ip, mac) in &m.arp_entries {
                st.arp.insert(*ip, *mac, now);
            }
            let (routes, version) = m.routes.clone();
            st.routes.load(routes, version);
        }
        let sock = stack.borrow_mut().import_session(sim, m.state);
        ep_cell.set(Some(m.endpoint));
        {
            let mut app = this.borrow_mut();
            app.stats.migrations_in += 1;
            app.session_to_fd.insert(m.session, fd);
            if let Some(entry) = app.fds.get_mut(&fd) {
                entry.state = FdState::Local {
                    session: Some(m.session),
                    sock,
                    endpoint: ep_cell.clone(),
                };
            }
        }
        AppLib::register_sock(this, sock, fd);
        // Data that arrived before the migration travelled inside the
        // state capsule; surface it to the new owner.
        let (readable, eof) = {
            let st = stack.borrow();
            (st.readable(sock) > 0, st.at_eof(sock))
        };
        if readable || eof {
            let now = sim.now();
            AppLib::notify_at(this, sim, now, fd, SockEvent::Readable);
        }
    }

    /// Makes `fd` reach its session at the server: data moves by RPC,
    /// and the server's notifications for the session route to `fd`.
    pub(crate) fn server_resident(this: &AppHandle, fd: Fd, sid: SessionId) {
        let server = this.borrow().server.clone().expect("server");
        {
            let mut app = this.borrow_mut();
            if let Some(entry) = app.fds.get_mut(&fd) {
                entry.state = FdState::Session(sid);
            }
            app.session_to_fd.insert(sid, fd);
        }
        let weak = this.borrow().me.clone();
        server.borrow_mut().set_notify(
            sid,
            Rc::new(RefCell::new(
                move |sim: &mut Sim, sid: SessionId, ev: SockEvent| {
                    let Some(app) = weak.upgrade() else { return };
                    let (fd, handler) = {
                        let a = app.borrow();
                        let Some(fd) = a.session_to_fd.get(&sid).copied() else {
                            return;
                        };
                        (fd, a.handlers.get(&fd).cloned())
                    };
                    select::rescan_local(&app, sim);
                    if let Some(h) = handler {
                        h.borrow_mut()(sim, fd, ev);
                    }
                },
            )),
        );
    }

    /// `bind(2)`: sets the local endpoint. In library mode a UDP
    /// session migrates into the application here.
    pub fn bind(this: &AppHandle, sim: &mut Sim, fd: Fd, port: u16) -> Result<(), SocketError> {
        let mode = this.borrow().mode;
        if mode == ApiMode::InKernel {
            let (proto, Some(Path::Kern(stack, sock))) = AppLib::resolve(this, fd)? else {
                return Err(SocketError::BadSocket);
            };
            return AppLib::charged(this, sim, |_, charge| {
                let app = this.borrow();
                app.trap(charge, Op::Trap, Layer::Control);
                app.kern_bind(&stack, sock, proto, port)
            });
        }
        let server = this.borrow().server.clone().expect("server");
        let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
        let proto = this.borrow().fds[&fd].proto;
        let is_library = matches!(mode, ApiMode::Library { .. });
        let ep_cell = Rc::new(Cell::new(None));
        let token = AppLib::mint_token(this);
        let reply = AppLib::proxy_rpc(this, sim, |sim, charge| {
            let migrates = is_library && proto == Proto::Udp;
            let rx = migrates.then(|| AppLib::rx_setup(this, &ep_cell));
            OsServer::proxy_bind(&server, sim, charge, sid, port, rx, token)
        })?;
        match reply {
            // The UDP session migrated immediately.
            Some(SessionReply::Migrated(m)) => AppLib::adopt_migrated(this, sim, fd, m, ep_cell),
            // Server-based; or, in library mode, graceful degradation:
            // the migration was denied (filter table full, SHM ring
            // install failure) and the session fell back to the server
            // data path — slower, but correct.
            Some(SessionReply::ServerResident { session, .. }) => {
                AppLib::server_resident(this, fd, session)
            }
            None if !is_library => AppLib::server_resident(this, fd, sid),
            // Library TCP: only the port was claimed.
            None => {
                if let Some(entry) = this.borrow_mut().fds.get_mut(&fd) {
                    entry.state = FdState::Fresh(Some(sid));
                }
            }
        }
        Ok(())
    }

    /// `connect(2)`: sets the remote endpoint. Completion (and failure)
    /// is delivered through the descriptor's event handler:
    /// [`SockEvent::Connected`] or [`SockEvent::Error`]. UDP connect
    /// completes synchronously in the common case.
    pub fn connect(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        remote: InetAddr,
    ) -> Result<(), SocketError> {
        let mode = this.borrow().mode;
        match (mode, AppLib::resolve(this, fd)?) {
            (ApiMode::InKernel, (proto, Some(Path::Kern(stack, sock)))) => {
                let at = AppLib::charged(this, sim, |sim, charge| {
                    this.borrow().trap(charge, Op::Trap, Layer::Control);
                    this.borrow().kern_autobind(&stack, sock, proto)?;
                    match proto {
                        Proto::Tcp => stack.borrow_mut().connect_tcp(sim, charge, sock, remote),
                        Proto::Udp => stack.borrow_mut().connect_udp(sock, remote),
                    }?;
                    Ok(charge.at())
                })?;
                if proto == Proto::Udp {
                    // Datagram connect completes synchronously; tell the
                    // caller the same way the asynchronous paths do.
                    AppLib::notify_at(this, sim, at, fd, SockEvent::Connected);
                }
                Ok(())
            }
            (ApiMode::InKernel, _) => Err(SocketError::BadSocket),
            // Library-mode UDP on an fd that is already Local: connect
            // is handled in the application (set the default remote,
            // prewarm the ARP cache).
            (_, (Proto::Udp, Some(Path::Local(stack, sock)))) => {
                let server = this.borrow().server.clone().expect("server");
                let at = AppLib::charged(this, sim, |sim, charge| {
                    stack.borrow_mut().connect_udp(sock, remote)?;
                    // Prewarm: one metastate RPC so the first send does
                    // not drop on an ARP miss.
                    this.borrow_mut().stats.control_rpcs += 1;
                    if let Some(mac) = OsServer::proxy_arp_lookup(&server, sim, charge, remote.ip) {
                        let now = charge.at();
                        stack.borrow_mut().arp.insert(remote.ip, mac, now);
                    }
                    Ok(charge.at())
                })?;
                AppLib::notify_at(this, sim, at, fd, SockEvent::Connected);
                Ok(())
            }
            _ => {
                let server = this.borrow().server.clone().expect("server");
                let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
                let is_library = matches!(mode, ApiMode::Library { .. });
                let ep_cell = Rc::new(Cell::new(None));
                let rx = is_library.then(|| AppLib::rx_setup(this, &ep_cell));
                let weak = this.borrow().me.clone();
                let done = Box::new(move |sim: &mut Sim, result| {
                    let Some(app) = weak.upgrade() else { return };
                    let handler = app.borrow().handlers.get(&fd).cloned();
                    let ev = match result {
                        Ok(SessionReply::Migrated(m)) => {
                            AppLib::adopt_migrated(&app, sim, fd, m, ep_cell);
                            SockEvent::Connected
                        }
                        Ok(SessionReply::ServerResident { session, .. }) => {
                            AppLib::server_resident(&app, fd, session);
                            SockEvent::Connected
                        }
                        Err(e) => SockEvent::Error(e),
                    };
                    if let Some(h) = handler {
                        h.borrow_mut()(sim, fd, ev);
                    }
                });
                AppLib::charged(this, sim, |sim, charge| {
                    this.borrow_mut().stats.control_rpcs += 1;
                    OsServer::proxy_connect(&server, sim, charge, sid, remote, rx, done);
                });
                Ok(())
            }
        }
    }

    /// `listen(2)`: passive open; the operating system awaits new
    /// connections.
    pub fn listen(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        backlog: usize,
    ) -> Result<(), SocketError> {
        if this.borrow().mode == ApiMode::InKernel {
            let (_, Some(Path::Kern(stack, sock))) = AppLib::resolve(this, fd)? else {
                return Err(SocketError::BadSocket);
            };
            return AppLib::charged(this, sim, |_, charge| {
                this.borrow().trap(charge, Op::Trap, Layer::Control);
                stack.borrow_mut().listen(sock, backlog)
            });
        }
        let server = this.borrow().server.clone().expect("server");
        let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
        AppLib::proxy_rpc(this, sim, |sim, charge| {
            OsServer::proxy_listen(&server, sim, charge, sid, backlog)
        })?;
        // The server notifies the listener's owner when a connection
        // request arrives.
        AppLib::server_resident(this, fd, sid);
        Ok(())
    }

    /// `accept(2)`: takes an established connection off the listener.
    /// Returns `WouldBlock` when none is ready; a [`SockEvent::Readable`]
    /// on the listener signals a retry will succeed.
    pub fn accept(this: &AppHandle, sim: &mut Sim, fd: Fd) -> Result<Fd, SocketError> {
        let mode = this.borrow().mode;
        if mode == ApiMode::InKernel {
            let (_, Some(Path::Kern(stack, sock))) = AppLib::resolve(this, fd)? else {
                return Err(SocketError::BadSocket);
            };
            let child = AppLib::charged(this, sim, |_, charge| {
                this.borrow().trap(charge, Op::Trap, Layer::Control);
                stack.borrow_mut().accept(sock)
            })?;
            let child_fd = this.borrow_mut().alloc_fd(Proto::Tcp, FdState::Kern(child));
            AppLib::register_sock(this, child, child_fd);
            return Ok(child_fd);
        }
        // Ready connection already delivered?
        if let Some(ready) = this
            .borrow_mut()
            .accept_ready
            .get_mut(&fd)
            .and_then(|q| (!q.is_empty()).then(|| q.remove(0)))
        {
            return Ok(ready);
        }
        // Issue (at most one) outstanding proxy_accept.
        if this.borrow().accept_pending.contains(&fd) {
            return Err(SocketError::WouldBlock);
        }
        let server = this.borrow().server.clone().expect("server");
        let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
        let is_library = matches!(mode, ApiMode::Library { .. });
        let ep_cell = Rc::new(Cell::new(None));
        let rx = is_library.then(|| AppLib::rx_setup(this, &ep_cell));
        this.borrow_mut().accept_pending.insert(fd);
        let weak = this.borrow().me.clone();
        let done = Box::new(move |sim: &mut Sim, result| {
            let Some(app) = weak.upgrade() else { return };
            app.borrow_mut().accept_pending.remove(&fd);
            let handler = app.borrow().handlers.get(&fd).cloned();
            let reply = match result {
                Ok(reply) => reply,
                Err(e) => {
                    if let Some(h) = handler {
                        h.borrow_mut()(sim, fd, SockEvent::Error(e));
                    }
                    return;
                }
            };
            let child_fd = match reply {
                SessionReply::Migrated(m) => {
                    let child_fd = app.borrow_mut().alloc_fd(Proto::Tcp, FdState::Fresh(None));
                    AppLib::adopt_migrated(&app, sim, child_fd, m, ep_cell.clone());
                    child_fd
                }
                SessionReply::ServerResident { session, .. } => {
                    let state = FdState::Session(session);
                    let child_fd = app.borrow_mut().alloc_fd(Proto::Tcp, state);
                    AppLib::server_resident(&app, child_fd, session);
                    // Surface data that arrived while the connection
                    // waited in the accept queue.
                    let weak = app.borrow().me.clone();
                    let at = sim.now();
                    sim.at(at, move |sim| {
                        let Some(app) = weak.upgrade() else { return };
                        let ready = app.borrow().poll(child_fd).0;
                        let handler = app.borrow().handlers.get(&child_fd).cloned();
                        if let (true, Some(h)) = (ready, handler) {
                            h.borrow_mut()(sim, child_fd, SockEvent::Readable);
                        }
                    });
                    child_fd
                }
            };
            app.borrow_mut()
                .accept_ready
                .entry(fd)
                .or_default()
                .push(child_fd);
            select::rescan_local(&app, sim);
            if let Some(h) = handler {
                h.borrow_mut()(sim, fd, SockEvent::Readable);
            }
        });
        AppLib::charged(this, sim, |sim, charge| {
            this.borrow_mut().stats.control_rpcs += 1;
            OsServer::proxy_accept(&server, sim, charge, sid, rx, done);
        });
        // Re-check: the callback may have completed synchronously via a
        // zero-delay event only after we return, so report WouldBlock;
        // the Readable event signals readiness.
        Err(SocketError::WouldBlock)
    }

    /// `close(2)`: for migrated sessions, exports the state back to the
    /// operating system, which runs the shutdown protocol (§3.2
    /// "Terminating session state").
    pub fn close(this: &AppHandle, sim: &mut Sim, fd: Fd) {
        let Some(entry) = this.borrow_mut().fds.remove(&fd) else {
            return;
        };
        {
            let mut app = this.borrow_mut();
            app.handlers.remove(&fd);
            app.accept_ready.remove(&fd);
            app.watched.remove(&fd);
        }
        let (session, state) = match entry.state {
            FdState::Kern(sock) => {
                let stack = this.borrow().stack.clone().expect("kernel stack");
                let local = stack.borrow().local_addr(sock);
                AppLib::charged(this, sim, |sim, charge| {
                    this.borrow().trap(charge, Op::Trap, Layer::Control);
                    stack.borrow_mut().close(sim, charge, sock);
                });
                let mut app = this.borrow_mut();
                app.sock_to_fd.remove(&sock);
                if let (Some(addr), Some(ports)) = (local, &app.kern_ports) {
                    ports.borrow_mut().release(entry.proto, addr.port);
                }
                return;
            }
            FdState::Local { session, sock, .. } => {
                let stack = this.borrow().stack.clone().expect("library stack");
                let state = stack.borrow_mut().export_session(sim, sock);
                let mut app = this.borrow_mut();
                app.sock_to_fd.remove(&sock);
                app.stats.migrations_out += 1;
                (session, state)
            }
            FdState::Session(sid) | FdState::Fresh(Some(sid)) => (Some(sid), None),
            FdState::Fresh(None) => (None, None),
        };
        let server = this.borrow().server.clone();
        if let (Some(sid), Some(server)) = (session, server) {
            this.borrow_mut().session_to_fd.remove(&sid);
            AppLib::charged(this, sim, |sim, charge| {
                this.borrow_mut().stats.control_rpcs += 1;
                OsServer::proxy_close(&server, sim, charge, sid, state);
            });
        }
        select::rescan_local(this, sim);
    }

    /// `fork(2)`: every migrated session is first returned to the
    /// operating system ("All sessions should be returned to the
    /// operating system before fork is called"); the child process
    /// shares the descriptors, and both parent and child subsequently
    /// reach them through the server.
    pub fn fork(this: &AppHandle, sim: &mut Sim) -> Result<AppHandle, SocketError> {
        let mode = this.borrow().mode;
        if mode == ApiMode::InKernel {
            return Err(SocketError::OpNotSupp);
        }
        let server = this.borrow().server.clone().expect("server");
        let parent_proc = this.borrow().proc.expect("registered");

        // Step 1: return all local sessions.
        let locals: Vec<(Fd, SockId, SessionId)> = this
            .borrow()
            .fds
            .iter()
            .filter_map(|(fd, e)| match e.state {
                FdState::Local {
                    session: Some(sid),
                    sock,
                    ..
                } => Some((*fd, sock, sid)),
                _ => None,
            })
            .collect();
        for (fd, sock, sid) in locals {
            let stack = this.borrow().stack.clone().expect("library stack");
            let Some(state) = stack.borrow_mut().export_session(sim, sock) else {
                continue;
            };
            {
                let mut app = this.borrow_mut();
                app.sock_to_fd.remove(&sock);
                app.stats.migrations_out += 1;
            }
            AppLib::charged(this, sim, |sim, charge| {
                this.borrow_mut().stats.control_rpcs += 1;
                OsServer::proxy_return(&server, sim, charge, sid, state)
            })?;
            AppLib::server_resident(this, fd, sid);
        }

        // Step 2: duplicate the process at the server.
        let child_proc = AppLib::charged(this, sim, |_, charge| {
            this.borrow_mut().stats.control_rpcs += 1;
            server.borrow_mut().fork(charge, parent_proc)
        })?;

        // Step 3: build the child's library with shared descriptors.
        let kernel = this.borrow().kernel.clone();
        let child = match mode {
            ApiMode::Library { rx_mode } => AppLib::new_library(&kernel, &server, rx_mode),
            _ => AppLib::new_server_based(&kernel, &server),
        };
        child.borrow_mut().proc = Some(child_proc);
        // Mirror the descriptor table: all entries are server-resident
        // now, so both processes refer to the same sessions.
        let mirrored: Vec<(Fd, Proto, Option<SessionId>)> = this
            .borrow()
            .fds
            .iter()
            .map(|(fd, e)| {
                let sid = match &e.state {
                    FdState::Session(s) | FdState::Fresh(Some(s)) => Some(*s),
                    _ => None,
                };
                (*fd, e.proto, sid)
            })
            .collect();
        for (fd, proto, sid) in mirrored {
            let state = match sid {
                Some(s) => FdState::Session(s),
                None => FdState::Fresh(None),
            };
            child.borrow_mut().fds.insert(fd, FdEntry { proto, state });
            let next = child.borrow().next_fd.max(fd.0 + 1);
            child.borrow_mut().next_fd = next;
            if let Some(s) = sid {
                // Note: notify callbacks route to whichever process
                // registered last; both can re-register as needed.
                child.borrow_mut().session_to_fd.insert(s, fd);
            }
        }
        Ok(child)
    }

    /// Simulates abrupt process death: the library vanishes without
    /// returning sessions; the operating system detects it and cleans
    /// up (§3.2 "unexpected shutdown").
    pub fn die(this: &AppHandle, sim: &mut Sim) {
        let server = this.borrow().server.clone();
        let proc = this.borrow().proc;
        // Tear down local delivery state abruptly: sockets are not
        // exported, filters stay until the server removes them.
        this.borrow_mut().fds.clear();
        this.borrow_mut().handlers.clear();
        if let (Some(server), Some(proc)) = (server, proc) {
            OsServer::process_died(&server, sim, proc);
        }
    }

    /// Recovers from a server crash/restart: the application (which
    /// noticed the crash as RPC deadline expiry) registers itself as a
    /// fresh process, re-adopts its migrated sessions — whose data
    /// path kept working throughout, since it never touches the
    /// server — and drops descriptors whose server-resident sessions
    /// died with the server. Returns `false` (and does nothing) while
    /// the server is still down; the caller retries with backoff.
    pub fn reregister(this: &AppHandle, sim: &mut Sim) -> bool {
        let _ = sim;
        let Some(server) = this.borrow().server.clone() else {
            return true; // In-kernel mode has no server to lose.
        };
        if server.borrow().is_down() {
            return false;
        }
        let proc = server.borrow_mut().register_process();
        this.borrow_mut().proc = Some(proc);
        // Migrated sessions survive the crash: re-attach ownership to
        // the new process id rebuilt from the stub records.
        let mut locals: Vec<SessionId> = this
            .borrow()
            .fds
            .values()
            .filter_map(|e| match &e.state {
                FdState::Local {
                    session: Some(s), ..
                } => Some(*s),
                _ => None,
            })
            .collect();
        locals.sort(); // map order is not deterministic across runs
        {
            let mut srv = server.borrow_mut();
            for sid in &locals {
                srv.adopt_session(*sid, proc);
            }
        }
        // Server-resident sessions died with the server's in-memory
        // DB; their descriptors are now dead.
        let mut dead: Vec<(Fd, SessionId)> = this
            .borrow()
            .fds
            .iter()
            .filter_map(|(fd, e)| {
                let sid = match &e.state {
                    FdState::Session(s) | FdState::Fresh(Some(s)) => *s,
                    _ => return None,
                };
                (!server.borrow().has_session(sid)).then_some((*fd, sid))
            })
            .collect();
        dead.sort();
        for (fd, sid) in dead {
            let mut app = this.borrow_mut();
            app.fds.remove(&fd);
            app.handlers.remove(&fd);
            app.accept_ready.remove(&fd);
            app.accept_pending.remove(&fd);
            app.watched.remove(&fd);
            app.session_to_fd.remove(&sid);
        }
        true
    }
}
