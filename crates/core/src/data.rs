//! The data path: send and receive.
//!
//! "The BSD socket interface has ten different ways to move data
//! through a session (`recv`, `recvfrom`, `recvmsg`, `read`, `readv`,
//! and `send`, `sendto`, `sendmsg`, `write`, `writev`). For sockets,
//! these calls are implemented entirely within the application's
//! protocol library." BSD funnels the ten into `sosend`/`soreceive`;
//! here they funnel into four entry points — [`AppLib::send`] and
//! [`AppLib::recv`] for streams, [`AppLib::sendto`] and
//! [`AppLib::recvfrom`] for datagrams, each forwarding a socket of the
//! other kind to its twin — and the other six spellings are thin
//! veneers over those.
//!
//! Each entry point resolves its descriptor once and runs the arm for
//! its placement under one charge that is always completed. In library
//! mode the call runs in the application and no operating-system
//! interaction occurs at all; in the baselines the same call traps into
//! the kernel or is an RPC to the server. Where each arm charges its
//! trap or RPC (before or after the protocol call, on success only or
//! always) is the model's contract, tabulated in DESIGN.md §5.3.
//!
//! The NEWAPI variants ([`AppLib::send_shared`],
//! [`AppLib::recv_shared`] and their batched forms) implement §4.2: the
//! application and the protocol share buffers, eliminating the copy at
//! the socket interface. They exist on library-local sessions only.

use crate::{AppHandle, AppLib, Fd, Path};
use psd_mbuf::MbufChain;
use psd_netstack::stack::StackHandle;
use psd_netstack::{InetAddr, NetStack, SockId, SocketError};
use psd_server::Proto;
use psd_sim::{Charge, Domain, Layer, Medium, Op, Sim};
use std::rc::Rc;

impl AppLib {
    /// `send(2)`/`write(2)` on a stream socket. Returns bytes queued.
    pub fn send(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        data: &[u8],
    ) -> Result<usize, SocketError> {
        let (proto, path) = AppLib::resolve(this, fd)?;
        if proto == Proto::Udp {
            return AppLib::sendto(this, sim, fd, data, None);
        }
        match path.ok_or(SocketError::NotConnected)? {
            Path::Local(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                stack.borrow_mut().tcp_send(sim, charge, sock, data)
            }),
            Path::Kern(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                let res = stack.borrow_mut().tcp_send(sim, charge, sock, data);
                if res.is_ok() {
                    let app = this.borrow();
                    app.trap(charge, Op::TrapEntry, Layer::EntryCopyin);
                    app.trap(charge, Op::TrapReturn, Layer::CopyoutExit);
                }
                res
            }),
            Path::Session(server, sid) => AppLib::charged(this, sim, |sim, charge| {
                let res = server.borrow_mut().data_send_tcp(sim, charge, sid, data);
                if let Ok(n) = res {
                    let mut app = this.borrow_mut();
                    app.stats.data_rpcs += 1;
                    app.data_rpc(charge, Layer::EntryCopyin, n);
                }
                res
            }),
        }
    }

    /// `recv(2)`/`read(2)` on a stream socket. `Ok(0)` is end of file.
    pub fn recv(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<usize, SocketError> {
        let (proto, path) = AppLib::resolve(this, fd)?;
        if proto == Proto::Udp {
            return AppLib::recvfrom(this, sim, fd, buf).map(|(n, _)| n);
        }
        match path.ok_or(SocketError::NotConnected)? {
            Path::Local(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                stack.borrow_mut().tcp_recv(sim, charge, sock, buf)
            }),
            Path::Kern(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                let res = stack.borrow_mut().tcp_recv(sim, charge, sock, buf);
                if res.is_ok() {
                    this.borrow().trap(charge, Op::TrapExit, Layer::CopyoutExit);
                }
                res
            }),
            Path::Session(server, sid) => AppLib::charged(this, sim, |sim, charge| {
                this.borrow_mut().stats.data_rpcs += 1;
                let res = server.borrow_mut().data_recv_tcp(sim, charge, sid, buf);
                if let Ok(n) = res {
                    this.borrow().data_rpc(charge, Layer::CopyoutExit, n);
                }
                res
            }),
        }
    }

    /// `sendto(2)` on a datagram socket (or `send` when connected, with
    /// `dst == None`). On a stream socket it is `send`, and `dst` is
    /// ignored.
    pub fn sendto(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        data: &[u8],
        dst: Option<InetAddr>,
    ) -> Result<usize, SocketError> {
        let (proto, mut path) = AppLib::resolve(this, fd)?;
        if proto == Proto::Tcp {
            return AppLib::send(this, sim, fd, data);
        }
        if path.is_none() {
            // BSD binds an unbound datagram socket implicitly on first
            // send; in library mode the session migrates in here.
            AppLib::bind(this, sim, fd, 0)?;
            path = AppLib::resolve(this, fd)?.1;
        }
        match path.ok_or(SocketError::NotConnected)? {
            Path::Local(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                stack.borrow_mut().udp_send(sim, charge, sock, data, dst)
            }),
            Path::Kern(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                this.borrow()
                    .trap(charge, Op::TrapEntry, Layer::EntryCopyin);
                let bound = this.borrow().kern_autobind(&stack, sock, proto);
                let res =
                    bound.and_then(|()| stack.borrow_mut().udp_send(sim, charge, sock, data, dst));
                this.borrow()
                    .trap(charge, Op::TrapReturn, Layer::CopyoutExit);
                res
            }),
            // A datagram is accepted or refused whole, so the RPC is
            // priced before the call and whatever it returns.
            Path::Session(server, sid) => AppLib::charged(this, sim, |sim, charge| {
                {
                    let mut app = this.borrow_mut();
                    app.stats.data_rpcs += 1;
                    app.data_rpc(charge, Layer::EntryCopyin, data.len());
                }
                server
                    .borrow_mut()
                    .data_send_udp(sim, charge, sid, data, dst)
            }),
        }
    }

    /// `recvfrom(2)` on a datagram socket.
    pub fn recvfrom(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<(usize, InetAddr), SocketError> {
        let path = AppLib::resolve(this, fd)?.1;
        match path.ok_or(SocketError::NotConnected)? {
            Path::Local(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                stack.borrow_mut().udp_recv(sim, charge, sock, buf)
            }),
            Path::Kern(stack, sock) => AppLib::charged(this, sim, |sim, charge| {
                let res = stack.borrow_mut().udp_recv(sim, charge, sock, buf);
                if res.is_ok() {
                    this.borrow().trap(charge, Op::TrapExit, Layer::CopyoutExit);
                }
                res
            }),
            Path::Session(server, sid) => AppLib::charged(this, sim, |sim, charge| {
                this.borrow_mut().stats.data_rpcs += 1;
                let res = server.borrow_mut().data_recv_udp(sim, charge, sid, buf);
                if let Ok((n, _)) = res {
                    this.borrow().data_rpc(charge, Layer::CopyoutExit, n);
                }
                res
            }),
        }
    }

    // ----- NEWAPI (§4.2): shared application/protocol buffers -----

    /// Resolves a NEWAPI descriptor: a library-local session, or
    /// `OpNotSupp`.
    fn shared_path(this: &AppHandle, fd: Fd) -> Result<(Proto, StackHandle, SockId), SocketError> {
        match AppLib::resolve(this, fd)? {
            (proto, Some(Path::Local(stack, sock))) => Ok((proto, stack, sock)),
            _ => Err(SocketError::OpNotSupp),
        }
    }

    /// NEWAPI send: the protocol references the shared buffer instead
    /// of copying it into the socket queue. Library mode only — the
    /// optimization is precisely what a user-level stack makes
    /// possible.
    pub fn send_shared(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        data: Rc<Vec<u8>>,
    ) -> Result<usize, SocketError> {
        let (proto, stack, sock) = AppLib::shared_path(this, fd)?;
        AppLib::charged(this, sim, |sim, charge| {
            send_one(&mut stack.borrow_mut(), sim, charge, proto, sock, data)
        })
    }

    /// NEWAPI receive: returns the buffered data as a chain sharing the
    /// protocol's storage — no copy into a caller buffer. An empty
    /// chain is end of file.
    pub fn recv_shared(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        max: usize,
    ) -> Result<MbufChain, SocketError> {
        let (proto, stack, sock) = AppLib::shared_path(this, fd)?;
        AppLib::charged(this, sim, |sim, charge| {
            recv_one(&mut stack.borrow_mut(), sim, charge, proto, sock, max)
        })
    }

    // ----- Batched NEWAPI (ISSUE 9): amortized crossings -----

    /// Batched NEWAPI send: queues up to `bufs.len()` shared descriptors
    /// under one socket-layer entry, announcing the batch window to the
    /// interface so one trap (doorbell) covers each window of K frames.
    /// Returns the number of descriptors accepted; stops early — without
    /// error — once the send buffer would block, and surfaces the error
    /// only if the *first* descriptor fails. Library mode only, like
    /// [`send_shared`](AppLib::send_shared).
    pub fn send_batch(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        bufs: &[Rc<Vec<u8>>],
    ) -> Result<usize, SocketError> {
        let (proto, stack, sock) = AppLib::shared_path(this, fd)?;
        let batch = this.borrow().kernel.borrow().batch_config().batch;
        if batch > 1 {
            stack.borrow().tx_batch_hint(batch);
        }
        let res = AppLib::charged(this, sim, |sim, charge| {
            for (sent, data) in bufs.iter().enumerate() {
                let st = &mut stack.borrow_mut();
                if let Err(e) = send_one(st, sim, charge, proto, sock, data.clone()) {
                    return if sent == 0 { Err(e) } else { Ok(sent) };
                }
            }
            Ok(bufs.len())
        });
        if batch > 1 {
            stack.borrow().tx_batch_end();
        }
        res
    }

    /// GSO-style NEWAPI send: one super-descriptor the stack segments
    /// into `seg`-byte wire datagrams at transmit. The emitted frames
    /// are byte-for-byte identical to the per-datagram sends; with GSO
    /// disabled in the kernel's [`psd_kernel::BatchConfig`] the library
    /// falls back to exactly those per-datagram sends. TCP sockets
    /// queue the buffer whole — the stream protocol already segments.
    pub fn send_gso(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        data: Rc<Vec<u8>>,
        seg: usize,
    ) -> Result<usize, SocketError> {
        let (proto, stack, sock) = AppLib::shared_path(this, fd)?;
        let seg = seg.max(1);
        let gso = this.borrow().kernel.borrow().batch_config().gso;
        AppLib::charged(this, sim, |sim, charge| {
            let mut st = stack.borrow_mut();
            match proto {
                Proto::Tcp => st.tcp_send_shared(sim, charge, sock, data.clone()),
                Proto::Udp if gso => st.udp_send_gso(sim, charge, sock, &data, seg, None),
                // Fallback: the same wire datagrams (an empty buffer is
                // one empty datagram), sent one at a time at full
                // per-datagram cost.
                Proto::Udp => {
                    let mut off = 0;
                    loop {
                        let len = seg.min(data.len() - off);
                        st.udp_send(sim, charge, sock, &data[off..off + len], None)?;
                        off += len;
                        if off >= data.len() {
                            break Ok(data.len());
                        }
                    }
                }
            }
        })
    }

    /// Batched NEWAPI receive: drains up to `max_descs` descriptors
    /// (each at most `max_bytes` of stream data for TCP; one datagram
    /// for UDP) in one call. For selective-copy kernel-resident flows
    /// the ring carried headers only; passing `pull == true` pays the
    /// deferred body copy here, `pull == false` consumes header-only
    /// (the monitor/proxy pattern — copies/pkt drops to zero). Returns
    /// an empty vector when no data is buffered.
    pub fn recv_batch(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        max_descs: usize,
        max_bytes: usize,
        pull: bool,
    ) -> Result<Vec<psd_mbuf::RecvDesc>, SocketError> {
        use psd_filter::CopyPlacement;
        let (proto, stack, sock) = AppLib::shared_path(this, fd)?;
        // The library agrees with the kernel about this flow's placement
        // by evaluating the same install-time policy on its own socket.
        let resident = {
            let policy = this.borrow().kernel.borrow().placement_policy();
            policy.is_some_and(|p| {
                let ip_proto = match proto {
                    Proto::Tcp => psd_wire::IpProto::Tcp,
                    Proto::Udp => psd_wire::IpProto::Udp,
                };
                stack.borrow().local_addr(sock).is_some_and(|a| {
                    p.placement_for(ip_proto, a.port) == CopyPlacement::KernelResident
                })
            })
        };
        AppLib::charged(this, sim, |sim, charge| {
            let mut descs = Vec::new();
            while descs.len() < max_descs {
                let res = recv_one(&mut stack.borrow_mut(), sim, charge, proto, sock, max_bytes);
                let chain = match res {
                    // TCP end of file (UDP never returns an empty chain):
                    // stop; an empty result vector is EOF.
                    Ok(chain) if chain.is_empty() => break,
                    Ok(chain) => chain,
                    Err(SocketError::WouldBlock) => break,
                    Err(e) if descs.is_empty() => return Err(e),
                    Err(_) => break,
                };
                if resident && pull {
                    // The deferred body copy: kernel memory → the
                    // application's buffer, paid only on demand.
                    let copy = Op::BodyCopy(Medium::KernelCached, chain.len());
                    let app = this.borrow();
                    charge.op(&app.costs, copy, Domain::Library, Layer::CopyoutExit);
                }
                descs.push(psd_mbuf::RecvDesc {
                    chain,
                    kernel_resident: resident,
                });
            }
            Ok(descs)
        })
    }
}

/// One NEWAPI send of a shared buffer on a library socket.
fn send_one(
    stack: &mut NetStack,
    sim: &mut Sim,
    charge: &mut Charge,
    proto: Proto,
    sock: SockId,
    data: Rc<Vec<u8>>,
) -> Result<usize, SocketError> {
    match proto {
        Proto::Tcp => stack.tcp_send_shared(sim, charge, sock, data),
        // The library UDP send path already references user data.
        Proto::Udp => stack.udp_send(sim, charge, sock, &data, None),
    }
}

/// One NEWAPI receive on a library socket: at most `max` bytes of a
/// stream, or one datagram.
fn recv_one(
    stack: &mut NetStack,
    sim: &mut Sim,
    charge: &mut Charge,
    proto: Proto,
    sock: SockId,
    max: usize,
) -> Result<MbufChain, SocketError> {
    match proto {
        Proto::Tcp => stack.tcp_recv_chain(sim, charge, sock, max),
        Proto::Udp => stack
            .udp_recv_chain(sim, charge, sock)
            .map(|(chain, _)| chain),
    }
}

/// The remaining BSD spellings of the data calls ("The BSD socket
/// interface has ten different ways to move data through a session").
/// Each is a thin veneer over the two core entry points, exactly as the
/// BSD socket layer funnels them into `sosend`/`soreceive`.
impl AppLib {
    /// `write(2)`.
    pub fn write(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        data: &[u8],
    ) -> Result<usize, SocketError> {
        AppLib::send(this, sim, fd, data)
    }

    /// `read(2)`.
    pub fn read(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<usize, SocketError> {
        AppLib::recv(this, sim, fd, buf)
    }

    /// `writev(2)`: gathers the iovec and sends. Returns bytes queued;
    /// a short count means the send buffer filled mid-gather.
    pub fn writev(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        iov: &[&[u8]],
    ) -> Result<usize, SocketError> {
        let mut total = 0;
        for piece in iov {
            match AppLib::send(this, sim, fd, piece) {
                Ok(n) => {
                    total += n;
                    if n < piece.len() {
                        break;
                    }
                }
                Err(SocketError::WouldBlock) if total > 0 => break,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// `readv(2)`: scatters into the iovec. Returns bytes delivered.
    pub fn readv(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        iov: &mut [&mut [u8]],
    ) -> Result<usize, SocketError> {
        let mut total = 0;
        for piece in iov.iter_mut() {
            match AppLib::recv(this, sim, fd, piece) {
                Ok(0) => break,
                Ok(n) => {
                    total += n;
                    if n < piece.len() {
                        break;
                    }
                }
                Err(SocketError::WouldBlock) if total > 0 => break,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// `sendmsg(2)` (data portion: gathered iovec plus an optional
    /// destination).
    pub fn sendmsg(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        iov: &[&[u8]],
        dst: Option<InetAddr>,
    ) -> Result<usize, SocketError> {
        // Datagram semantics require one atomic message.
        let flat: Vec<u8> = iov.concat();
        AppLib::sendto(this, sim, fd, &flat, dst)
    }

    /// `recvmsg(2)` (data portion: scattered into the iovec, sender
    /// address returned).
    pub fn recvmsg(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        iov: &mut [&mut [u8]],
    ) -> Result<(usize, InetAddr), SocketError> {
        let total: usize = iov.iter().map(|p| p.len()).sum();
        let mut flat = vec![0u8; total];
        let (n, from) = AppLib::recvfrom(this, sim, fd, &mut flat)?;
        let mut off = 0;
        for piece in iov.iter_mut() {
            if off >= n {
                break;
            }
            let take = piece.len().min(n - off);
            piece[..take].copy_from_slice(&flat[off..off + take]);
            off += take;
        }
        Ok((n, from))
    }
}
