//! The calibrated cost model.
//!
//! Every primitive operation the simulated software performs — traps,
//! IPC, copies, checksums, locks, wakeups, interrupt dispatch — has a
//! unit cost here, in nanoseconds (per operation, or per byte where
//! noted). Configurations never receive bespoke latency constants: they
//! differ only in *which* operations their code paths perform, and the
//! shared unit costs price those operations.
//!
//! Calibration: the DECstation 5000/200 values are fit to Table 4 of the
//! paper, which gives per-layer microsecond budgets for the library-based
//! (SHM-IPF), kernel-based (Mach 2.5) and server-based (UX) stacks at
//! minimum and maximum message sizes. Each constant is annotated with the
//! Table 4 cells that pin it down. The Gateway i486 values are scaled
//! from the DECstation fit using the Table 2 Gateway rows; its dominant
//! feature is the 3C503's programmed-I/O data path (8-bit transfers),
//! which the paper blames for the Gateway's low throughput.

use crate::census::OpKind;

/// Hardware platforms evaluated in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Platform {
    /// DECstation 5000/200: 25 MHz MIPS R3000, Lance (DMA) Ethernet.
    DecStation5000_200,
    /// Gateway PC: 33 MHz i486, 3Com 3C503 (PIO) Ethernet.
    Gateway486,
}

impl Platform {
    /// The cost model for this platform.
    pub fn cost_model(self) -> CostModel {
        match self {
            Platform::DecStation5000_200 => CostModel::decstation_5000_200(),
            Platform::Gateway486 => CostModel::gateway_i486(),
        }
    }

    /// Display name used in table output.
    pub fn label(self) -> &'static str {
        match self {
            Platform::DecStation5000_200 => "DECstation 5000/200",
            Platform::Gateway486 => "Gateway 486",
        }
    }
}

/// Unit costs for primitive operations, in nanoseconds.
///
/// Grouped by mechanism. "Per byte" fields are multiplied by the length
/// of the data actually moved/checksummed by the executing code. No
/// code outside `CostModel::price` reads a field to charge it: a path
/// names the [`Op`] it performs, and the Table 4 fit of each field is
/// written beside the price arm that uses it.
#[derive(Clone, Debug)]
pub struct CostModel {
    // --- Protection boundaries and IPC ---
    /// A system-call trap pair (enter + exit kernel).
    pub trap: u64,
    /// Base cost of a Mach RPC round trip between tasks (marshalling,
    /// two messages, scheduling), excluding per-byte costs.
    pub rpc_base: u64,
    /// One-way Mach IPC message delivery (packet-filter IPC path).
    pub(crate) ipc_oneway: u64,
    /// Per-byte cost of each copy made by the IPC data path.
    pub ipc_copy_byte: u64,

    // --- Memory movement ---
    /// User-space memcpy, per byte (library copyin to mbufs).
    pub(crate) copy_byte: u64,
    /// Optimized kernel copyin/copyout, per byte.
    pub kcopy_byte: u64,
    /// Copying packet data that is already cache-warm in kernel memory
    /// (the packet-filter delivery copies).
    pub kcopy_cached_byte: u64,
    /// Reading device memory, per byte (Lance buffer → host).
    pub dev_read_byte: u64,
    /// Writing device memory, per byte.
    pub dev_write_byte: u64,
    /// Internet checksum, per byte.
    pub(crate) checksum_byte: u64,

    // --- Allocation ---
    /// Allocating one mbuf (header or cluster ref).
    pub mbuf_alloc: u64,

    // --- Synchronization ---
    /// A light user-space lock acquire/release pair (library protocol
    /// stack; "internally synchronizes using less expensive locks").
    pub(crate) lock_light: u64,
    /// A hardware interrupt-priority (spl) raise/lower pair in the real
    /// kernel — cheap.
    pub(crate) spl_kernel: u64,
    /// An emulated spl raise/lower pair in the UX server: "simulates
    /// hardware interrupt priorities using locks and condition
    /// variables, resulting in expensive priority manipulation".
    pub(crate) spl_server: u64,

    // --- Scheduling ---
    /// Waking a kernel thread and dispatching it.
    pub sched_wakeup: u64,
    /// A user-level (cthreads) context switch, paid when the library's
    /// network thread hands off to the application thread.
    pub(crate) cthread_switch: u64,
    /// Fielding a device interrupt.
    pub intr_dispatch: u64,
    /// Setting up the wired kernel receive buffer on paths that copy the
    /// packet out of the device at interrupt time.
    pub(crate) rx_kbuf_setup: u64,
    /// Extra interrupt/scheduling penalty for systems with inefficient
    /// interrupt handling. Zero except for 386BSD ("inefficiencies in
    /// the way that the 386BSD kernel handles network interrupts and
    /// scheduling").
    pub intr_penalty: u64,

    // --- Demultiplexing ---
    /// netisr dispatch (softirq-level hand-off to the IP input queue).
    pub(crate) netisr: u64,
    /// Executing one packet-filter VM instruction.
    pub(crate) filter_insn: u64,
    /// In-kernel protocol control block lookup (the kernel stack demuxes
    /// with a pcb hash walk instead of a filter program).
    pub(crate) pcb_lookup: u64,

    // --- Protocol-layer instruction budgets (placement-independent) ---
    /// Socket-layer send entry (sosend header work, space check).
    pub(crate) sosend_base: u64,
    /// Socket-layer receive exit (soreceive bookkeeping).
    pub(crate) soreceive_base: u64,
    /// Datagram send entry, which references rather than copies data in
    /// the library (library UDP `entry/copyin` is 6–7 µs, flat).
    pub(crate) sosend_dgram_base: u64,
    /// `tcp_output` fixed work: header template, sequence bookkeeping.
    pub(crate) tcp_output_base: u64,
    /// `tcp_input` fixed work: header prediction, sequence processing.
    pub(crate) tcp_input_base: u64,
    /// `udp_output` fixed work.
    pub(crate) udp_output_base: u64,
    /// `udp_input` fixed work.
    pub(crate) udp_input_base: u64,
    /// `ip_output` fixed work (header + route cache hit).
    pub(crate) ip_output_base: u64,
    /// `ipintr` fixed work per packet.
    pub(crate) ip_input_base: u64,
    /// Ethernet output fixed work (ARP cache hit + framing).
    pub(crate) ether_output_base: u64,
    /// Queueing an mbuf chain on a socket buffer (`sbappend`).
    pub(crate) sbappend_base: u64,
    /// Route table lookup miss path (consult the server / full lookup).
    pub(crate) route_lookup: u64,
    /// ARP cache lookup hit.
    pub(crate) arp_lookup: u64,
    /// Arming or disarming a protocol timer.
    pub(crate) timer_op: u64,
}

impl CostModel {
    /// DECstation 5000/200 calibration (see `CostModel::price` for
    /// the fit).
    pub fn decstation_5000_200() -> CostModel {
        CostModel {
            trap: 42_000,
            rpc_base: 185_000,
            ipc_oneway: 80_000,
            ipc_copy_byte: 40,
            copy_byte: 126,
            kcopy_byte: 70,
            kcopy_cached_byte: 24,
            dev_read_byte: 282,
            dev_write_byte: 20,
            checksum_byte: 167,
            mbuf_alloc: 2_500,
            lock_light: 3_000,
            spl_kernel: 2_000,
            spl_server: 22_000,
            sched_wakeup: 54_000,
            cthread_switch: 38_000,
            intr_dispatch: 40_000,
            rx_kbuf_setup: 22_000,
            intr_penalty: 0,
            netisr: 25_000,
            filter_insn: 4_000,
            pcb_lookup: 65_000,
            sosend_base: 14_000,
            soreceive_base: 18_000,
            sosend_dgram_base: 6_000,
            tcp_output_base: 58_000,
            tcp_input_base: 72_000,
            udp_output_base: 16_000,
            udp_input_base: 50_000,
            ip_output_base: 20_000,
            ip_input_base: 28_000,
            ether_output_base: 52_000,
            sbappend_base: 16_000,
            route_lookup: 40_000,
            arp_lookup: 12_000,
            timer_op: 3_000,
        }
    }

    /// Gateway i486 calibration. The i486 is "comparable in performance
    /// to the R3000" for compute, but the 3C503 moves data 8 bits at a
    /// time over the ISA bus, which dominates: Table 2 Gateway latencies
    /// are ≈1.5–2× the DECstation's and throughput tops out near
    /// 460–500 KB/s.
    pub(crate) fn gateway_i486() -> CostModel {
        CostModel {
            // Compute-bound unit costs: ≈1.35× the R3000 fit (i486 traps
            // and memory system are slower despite the higher clock).
            trap: 55_000,
            rpc_base: 250_000,
            ipc_oneway: 105_000,
            ipc_copy_byte: 55,
            copy_byte: 160,
            kcopy_byte: 95,
            kcopy_cached_byte: 40,
            // The PIO data path: ≈0.9 µs per byte each way through the
            // 3C503's shared memory window.
            dev_read_byte: 900,
            dev_write_byte: 900,
            checksum_byte: 190,
            mbuf_alloc: 3_200,
            lock_light: 4_000,
            spl_kernel: 2_600,
            spl_server: 26_000,
            sched_wakeup: 70_000,
            cthread_switch: 48_000,
            intr_dispatch: 55_000,
            rx_kbuf_setup: 30_000,
            intr_penalty: 0,
            netisr: 32_000,
            filter_insn: 5_000,
            pcb_lookup: 80_000,
            sosend_base: 18_000,
            soreceive_base: 23_000,
            sosend_dgram_base: 8_000,
            tcp_output_base: 75_000,
            tcp_input_base: 90_000,
            udp_output_base: 21_000,
            udp_input_base: 62_000,
            ip_output_base: 26_000,
            ip_input_base: 36_000,
            ether_output_base: 64_000,
            sbappend_base: 20_000,
            route_lookup: 52_000,
            arp_lookup: 15_000,
            timer_op: 4_000,
        }
    }

    /// Ultrix 4.2A variant: same hardware as Mach 2.5 on the DECstation,
    /// slightly slower socket/protocol paths (Table 2: 1.52 ms vs
    /// 1.40 ms at 1 B) and a smaller default receive buffer.
    pub fn ultrix_4_2a() -> CostModel {
        let mut c = CostModel::decstation_5000_200();
        c.trap += 6_000;
        c.sosend_base += 8_000;
        c.soreceive_base += 8_000;
        c.tcp_output_base += 10_000;
        c.tcp_input_base += 10_000;
        c.udp_input_base += 6_000;
        c.kcopy_byte += 5;
        c
    }

    /// 386BSD variant: Gateway hardware plus the interrupt-handling and
    /// scheduling inefficiency the paper cites ("Both the library- and
    /// the server-based implementations on the Gateway have lower
    /// latency than the in-kernel version because of inefficiencies in
    /// the way that the 386BSD kernel handles network interrupts and
    /// scheduling").
    pub fn bsd386() -> CostModel {
        let mut c = CostModel::gateway_i486();
        c.intr_penalty = 260_000;
        c.sched_wakeup += 60_000;
        c
    }
}

/// Where a copy's bytes come from or go to: the medium sets its unit
/// price.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Medium {
    /// User-space memory (a library or server memcpy).
    User,
    /// Kernel copyin/copyout.
    Kernel,
    /// Cache-warm kernel memory.
    KernelCached,
    /// Reading network-device memory.
    DeviceRead,
    /// Writing network-device memory.
    DeviceWrite,
    /// One copy on the Mach IPC data path.
    Ipc,
}

/// A synchronization discipline: how a placement's stack takes its
/// `splnet`/`splx` or socket-buffer locks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Discipline {
    /// Hardware interrupt-priority levels (the in-kernel stack).
    Spl,
    /// The UX server's emulated priority levels.
    ServerSpl,
    /// Light user-space locks (the library stack).
    Lock,
}

/// One priced operation: what [`Charge::op`](crate::Charge::op) charges
/// and counts. `CostModel::price` prices it and `Op::census` says
/// what the census counts for it, so every charged nanosecond is an
/// operation with a name (DESIGN.md §5.2 has the table).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    // --- Crossings ---
    /// A full system-call trap (enter + exit).
    Trap,
    /// The entry side of an in-kernel data call's trap.
    TrapEntry,
    /// The exit side of an in-kernel data call's trap, counted as its
    /// crossing (a receive prices no entry).
    TrapExit,
    /// The exit side of a trap whose entry was counted: priced, not
    /// counted again.
    TrapReturn,
    /// One IPC message delivering a packet window to a task.
    IpcMessage,
    /// Posting to a shared ring: the crossing priced as this many
    /// descriptor allocations.
    RingDoorbell(u64),
    /// The Mach RPC machinery, counted as the reply's crossing back
    /// into the caller (the request's is a [`Op::Trap`]).
    Rpc,

    // --- Copies and checksums ---
    /// A copy of this many packet-body bytes.
    BodyCopy(Medium, usize),
    /// A copy of this many bytes that stand in for a body but are only
    /// its headers (a kernel-resident flow's ring entry).
    HeaderCopy(Medium, usize),
    /// The four IPC copies of a control RPC's request and reply bytes.
    ControlCopies(usize),
    /// An Internet checksum pass over this many bytes.
    Checksum(usize),

    // --- Synchronization ---
    /// This many lock or priority-level transitions, counted.
    Sync(Discipline, u64),
    /// This many transitions the census does not count: the socket
    /// layer's `sblock` pair, and the server wakeup's emulated levels.
    QuietSync(Discipline, u64),

    // --- Scheduling and interrupts ---
    /// Waking a blocked thread.
    Wakeup,
    /// The library's network-thread to application-thread hand-off.
    CthreadSwitch,
    /// Fielding a device interrupt.
    Interrupt,
    /// The interrupt penalty of a kernel that handles them badly.
    IntrPenalty,
    /// Arming or disarming a protocol timer.
    TimerOp,

    // --- Demultiplexing ---
    /// One filter program run over a frame, this many instructions; the
    /// session the frame was classified to, if any, is also counted
    /// against that scope.
    FilterRun(usize, Option<u64>),
    /// Classifying against an empty filter table: the dispatch prologue
    /// runs, no filter does.
    EmptyDemux(usize),
    /// The netisr hand-off.
    Netisr,
    /// An in-kernel pcb lookup.
    PcbLookup,
    /// Setting up the wired kernel receive buffer.
    RxKbufSetup,

    // --- Allocation ---
    /// Allocating this many mbufs.
    MbufAlloc(u64),

    // --- Socket layer ---
    /// `sosend` entry.
    Sosend,
    /// The datagram send entry.
    SosendDgram,
    /// `soreceive` exit.
    Soreceive,
    /// The library's datagram receive fast path.
    SoreceiveDgram,
    /// `sbappend` onto a socket buffer.
    SbAppend,
    /// Queueing a received frame on the protocol input queue.
    InputQueue,

    // --- Protocols ---
    /// `tcp_output`'s fixed work, which writes the header template.
    TcpOutput,
    /// `tcp_input`'s fixed work.
    TcpInput,
    /// `udp_output`'s fixed work, which writes the header.
    UdpOutput,
    /// `udp_input`'s fixed work.
    UdpInput,
    /// ICMP input.
    IcmpInput,
    /// `ip_output`'s fixed work, which writes the header.
    IpOutput,
    /// `ipintr`'s fixed work.
    IpInput,
    /// Ethernet output's fixed work.
    EtherOutput,
    /// Writing the link header: priced in [`Op::EtherOutput`], counted
    /// here.
    EtherHeader,
    /// An ARP cache hit.
    ArpLookup,
    /// The stock BSD datagram path's per-send route revalidation.
    RouteRevalidate,

    // --- Control plane ---
    /// A session capsule exported or imported: priced by the RPC that
    /// carries it.
    Migration,
    /// Preparing a migration's delivery path in the server.
    MigrationPrepare,
    /// The expired deadline and backoff of this lost control-RPC
    /// attempt (0-based).
    RpcDeadline(u32),
}

impl Op {
    /// What the census counts for one `op`: a kind and how many, or
    /// `None` for an operation that is priced but not counted.
    pub(crate) fn census(self) -> Option<(OpKind, u64)> {
        let kind = match self {
            Op::Trap
            | Op::TrapEntry
            | Op::TrapExit
            | Op::IpcMessage
            | Op::RingDoorbell(_)
            | Op::Rpc => OpKind::BoundaryCrossing,
            Op::BodyCopy(..) => OpKind::PacketBodyCopy,
            Op::HeaderCopy(..) | Op::TcpOutput | Op::UdpOutput | Op::IpOutput | Op::EtherHeader => {
                OpKind::HeaderCopy
            }
            Op::Checksum(_) => OpKind::Checksum,
            Op::Sync(Discipline::Lock, n) => return Some((OpKind::LockAcquire, n)),
            Op::Sync(_, n) => return Some((OpKind::SplRaise, n)),
            Op::Wakeup => OpKind::Wakeup,
            Op::Interrupt => OpKind::Interrupt,
            Op::FilterRun(..) => OpKind::FilterRun,
            Op::Migration => OpKind::SessionMigration,
            // Every other operation is priced and not counted.
            _ => return None,
        };
        Some((kind, 1))
    }
}

impl CostModel {
    /// The price of one `op`, in nanoseconds: the one place a unit cost
    /// is multiplied, divided or added. The Table 4 cells each field is
    /// fit to are noted at its arm.
    #[inline(always)]
    pub(crate) fn price(&self, op: Op) -> u64 {
        let bytes = |n: usize| n as u64;
        match op {
            // Fit: kernel `entry/copyin` (50 µs) minus library (19 µs).
            Op::Trap => self.trap,
            // Table 4 charges most of the kernel data trap to
            // `entry/copyin` (kernel TCP: 50 µs entry vs 32 µs exit), so
            // the split is 80/20.
            Op::TrapEntry => self.trap * 8 / 10,
            Op::TrapExit | Op::TrapReturn => self.trap * 2 / 10,
            Op::IpcMessage => self.ipc_oneway,
            Op::RingDoorbell(descriptors) => self.mbuf_alloc * descriptors,
            // Fit: server `entry/copyin` at 1 B is 254 µs ≈ trap + rpc +
            // entry.
            Op::Rpc => self.rpc_base,
            Op::BodyCopy(medium, n) | Op::HeaderCopy(medium, n) => {
                bytes(n)
                    * match medium {
                        // Fit: library `entry/copyin` slope (203−19)/1459
                        // ≈ 126 ns/B.
                        Medium::User => self.copy_byte,
                        // Fit: kernel `entry/copyin` slope (153−50)/1459 ≈
                        // 70 ns/B.
                        Medium::Kernel => self.kcopy_byte,
                        // Fit: server `kernel copyout` slope
                        // (148−113)/1459 ≈ 24 ns/B — "the copy is from
                        // kernel memory, which has lower read latency
                        // than network device memory".
                        Medium::KernelCached => self.kcopy_cached_byte,
                        // Fit: library `kernel copyout` slope
                        // (534−123)/1459 ≈ 282 ns/B.
                        Medium::DeviceRead => self.dev_read_byte,
                        Medium::DeviceWrite => self.dev_write_byte,
                        // Fit: server slope (579−254)/1459 ≈ 4 × 56 ns/B;
                        // the paper counts four copies per RPC with data
                        // (§4.3 "entry/copyin").
                        Medium::Ipc => self.ipc_copy_byte,
                    }
            }
            Op::ControlCopies(n) => self.ipc_copy_byte * 4 * bytes(n),
            // Fit: `tcp_output` slope (328−82)/1459 ≈ 168 ns/B (lib and
            // kernel agree: (307−65)/1459 ≈ 166 ns/B).
            Op::Checksum(n) => self.checksum_byte * bytes(n),
            Op::Sync(discipline, n) | Op::QuietSync(discipline, n) => {
                n * match discipline {
                    Discipline::Spl => self.spl_kernel,
                    // Fit: server vs kernel `tcp_output` gap (224−65 µs)
                    // over the ~8 spl transitions on that path ≈ 20 µs
                    // each.
                    Discipline::ServerSpl => self.spl_server,
                    Discipline::Lock => self.lock_light,
                }
            }
            // Fit: kernel `wakeup user thread` = 54 µs.
            Op::Wakeup => self.sched_wakeup,
            // Fit: library wakeup (92 µs) − sched_wakeup (54 µs) ≈ 38 µs.
            Op::CthreadSwitch => self.cthread_switch,
            // Fit: library `device intr/read` ≈ 42 µs, flat (the SHM-IPF
            // path defers the body copy).
            Op::Interrupt => self.intr_dispatch,
            Op::IntrPenalty => self.intr_penalty,
            Op::TimerOp => self.timer_op,
            Op::FilterRun(steps, _) | Op::EmptyDemux(steps) => self.filter_insn * bytes(steps),
            Op::Netisr => self.netisr,
            Op::PcbLookup => self.pcb_lookup,
            // Fit: kernel `device intr/read` base (77 µs) −
            // intr_dispatch.
            Op::RxKbufSetup => self.rx_kbuf_setup,
            Op::MbufAlloc(n) => self.mbuf_alloc * n,
            Op::Sosend => self.sosend_base,
            Op::SosendDgram => self.sosend_dgram_base,
            Op::Soreceive => self.soreceive_base,
            // No record-mark scanning: the queue hands over whole
            // datagrams.
            Op::SoreceiveDgram => self.soreceive_base * 5 / 6,
            Op::SbAppend => self.sbappend_base,
            Op::InputQueue => self.sbappend_base / 2,
            Op::TcpOutput => self.tcp_output_base,
            Op::TcpInput => self.tcp_input_base,
            Op::UdpOutput => self.udp_output_base,
            Op::UdpInput => self.udp_input_base,
            Op::IcmpInput => self.udp_input_base / 2,
            Op::IpOutput => self.ip_output_base,
            Op::IpInput => self.ip_input_base,
            Op::EtherOutput => self.ether_output_base,
            Op::EtherHeader | Op::Migration => 0,
            Op::ArpLookup => self.arp_lookup,
            Op::RouteRevalidate => self.route_lookup / 2,
            Op::MigrationPrepare => self.rpc_base / 2,
            Op::RpcDeadline(attempt) => (self.rpc_base.max(1) * 4) << attempt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What each call site charged before operations were priced in
    /// one place, written out independently of [`CostModel::price`].
    fn call_site_formula(c: &CostModel, op: Op) -> u64 {
        let n = |bytes: usize| bytes as u64;
        match op {
            Op::Trap => c.trap,
            Op::TrapEntry => c.trap * 8 / 10,
            Op::TrapExit | Op::TrapReturn => c.trap * 2 / 10,
            Op::IpcMessage => c.ipc_oneway,
            Op::RingDoorbell(k) => c.mbuf_alloc * k,
            Op::Rpc => c.rpc_base,
            Op::BodyCopy(m, b) | Op::HeaderCopy(m, b) => {
                n(b) * match m {
                    Medium::User => c.copy_byte,
                    Medium::Kernel => c.kcopy_byte,
                    Medium::KernelCached => c.kcopy_cached_byte,
                    Medium::DeviceRead => c.dev_read_byte,
                    Medium::DeviceWrite => c.dev_write_byte,
                    Medium::Ipc => c.ipc_copy_byte,
                }
            }
            Op::ControlCopies(b) => c.ipc_copy_byte * 4 * n(b),
            Op::Checksum(b) => c.checksum_byte * n(b),
            Op::Sync(d, k) | Op::QuietSync(d, k) => {
                k * match d {
                    Discipline::Spl => c.spl_kernel,
                    Discipline::ServerSpl => c.spl_server,
                    Discipline::Lock => c.lock_light,
                }
            }
            Op::Wakeup => c.sched_wakeup,
            Op::CthreadSwitch => c.cthread_switch,
            Op::Interrupt => c.intr_dispatch,
            Op::IntrPenalty => c.intr_penalty,
            Op::TimerOp => c.timer_op,
            Op::FilterRun(steps, _) | Op::EmptyDemux(steps) => c.filter_insn * n(steps),
            Op::Netisr => c.netisr,
            Op::PcbLookup => c.pcb_lookup,
            Op::RxKbufSetup => c.rx_kbuf_setup,
            Op::MbufAlloc(k) => c.mbuf_alloc * k,
            Op::Sosend => c.sosend_base,
            Op::SosendDgram => c.sosend_dgram_base,
            Op::Soreceive => c.soreceive_base,
            Op::SoreceiveDgram => c.soreceive_base * 5 / 6,
            Op::SbAppend => c.sbappend_base,
            Op::InputQueue => c.sbappend_base / 2,
            Op::TcpOutput => c.tcp_output_base,
            Op::TcpInput => c.tcp_input_base,
            Op::UdpOutput => c.udp_output_base,
            Op::UdpInput => c.udp_input_base,
            Op::IcmpInput => c.udp_input_base / 2,
            Op::IpOutput => c.ip_output_base,
            Op::IpInput => c.ip_input_base,
            Op::EtherOutput => c.ether_output_base,
            Op::EtherHeader | Op::Migration => 0,
            Op::ArpLookup => c.arp_lookup,
            Op::RouteRevalidate => c.route_lookup / 2,
            Op::MigrationPrepare => c.rpc_base / 2,
            Op::RpcDeadline(attempt) => (c.rpc_base.max(1) * 4) << attempt,
        }
    }

    /// One of every operation, with sizes that exercise the per-byte
    /// arms.
    #[rustfmt::skip]
    fn every_op() -> Vec<Op> {
        use Op::*;
        let mut ops = vec![
            Trap, TrapEntry, TrapExit, TrapReturn, IpcMessage, RingDoorbell(1), RingDoorbell(2),
            Rpc, ControlCopies(0), ControlCopies(96), Checksum(1480), Wakeup, CthreadSwitch,
            Interrupt, IntrPenalty, TimerOp, FilterRun(37, Some(4)), EmptyDemux(6), Netisr,
            PcbLookup, RxKbufSetup, MbufAlloc(1), MbufAlloc(3), Sosend, SosendDgram, Soreceive,
            SoreceiveDgram, SbAppend, InputQueue, TcpOutput, TcpInput, UdpOutput, UdpInput,
            IcmpInput, IpOutput, IpInput, EtherOutput, EtherHeader, ArpLookup, RouteRevalidate,
            Migration, MigrationPrepare, RpcDeadline(0), RpcDeadline(3),
        ];
        use Medium::*;
        for m in [User, Kernel, KernelCached, DeviceRead, DeviceWrite, Ipc] {
            ops.extend([BodyCopy(m, 1459), HeaderCopy(m, 54), BodyCopy(m, 0)]);
        }
        for d in [Discipline::Spl, Discipline::ServerSpl, Discipline::Lock] {
            ops.extend([Sync(d, 3), QuietSync(d, 7)]);
        }
        ops
    }

    #[test]
    fn price_table_matches_the_call_site_formulas() {
        // The four calibrations, plus one with odd unit costs so the
        // integer divisions must round exactly as the call sites did.
        let mut odd = CostModel::decstation_5000_200();
        odd.trap = 42_001;
        odd.soreceive_base = 18_001;
        odd.rpc_base = 185_001;
        odd.udp_input_base = 50_001;
        odd.sbappend_base = 16_001;
        odd.route_lookup = 40_001;
        assert_ne!(odd.trap * 8 / 10 + odd.trap * 2 / 10, odd.trap);
        let models = [
            CostModel::decstation_5000_200(),
            CostModel::gateway_i486(),
            CostModel::ultrix_4_2a(),
            CostModel::bsd386(),
            odd,
        ];
        let ops = every_op();
        let kinds: std::collections::HashSet<_> = ops.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 44, "every_op names each operation");
        for c in &models {
            for &op in &ops {
                assert_eq!(c.price(op), call_site_formula(c, op), "{op:?}");
            }
        }
        let c = &models[4];
        assert_eq!(c.price(Op::TrapEntry) + c.price(Op::TrapExit), 42_000);
        assert_eq!(c.price(Op::SoreceiveDgram), 15_000);
        assert_eq!(c.price(Op::MigrationPrepare), 92_500);
        assert_eq!(c.price(Op::IcmpInput), 25_000);
        assert_eq!(c.price(Op::InputQueue), 8_000);
        assert_eq!(c.price(Op::RouteRevalidate), 20_000);
    }

    #[test]
    fn census_classes_follow_the_counted_kinds() {
        let lock = Op::Sync(Discipline::Lock, 3).census();
        assert_eq!(lock, Some((OpKind::LockAcquire, 3)));
        let spl = Op::Sync(Discipline::ServerSpl, 7).census();
        assert_eq!(spl, Some((OpKind::SplRaise, 7)));
        assert_eq!(Op::QuietSync(Discipline::ServerSpl, 7).census(), None);
        assert_eq!(Op::ControlCopies(64).census(), None);
        let body = Op::BodyCopy(Medium::Ipc, 0).census();
        assert_eq!(body, Some((OpKind::PacketBodyCopy, 1)));
        assert_eq!(Op::TcpOutput.census(), Some((OpKind::HeaderCopy, 1)));
        assert_eq!(Op::Rpc.census(), Some((OpKind::BoundaryCrossing, 1)));
        assert_eq!(Op::TrapReturn.census(), None);
    }

    #[test]
    fn platform_presets_resolve() {
        let dec = Platform::DecStation5000_200.cost_model();
        let gw = Platform::Gateway486.cost_model();
        assert!(gw.dev_read_byte > dec.dev_read_byte);
        assert_eq!(dec.intr_penalty, 0);
    }

    #[test]
    fn library_entry_fit_matches_table4() {
        // Library TCP entry/copyin: 19 µs at 1 B, 203 µs at 1460 B.
        let c = CostModel::decstation_5000_200();
        let at = |len: u64| c.sosend_base + c.mbuf_alloc * 2 + c.copy_byte * len;
        let one = at(1) as f64 / 1000.0;
        let max = at(1460) as f64 / 1000.0;
        assert!((one - 19.0).abs() < 4.0, "1B entry was {one}");
        assert!((max - 203.0).abs() < 15.0, "1460B entry was {max}");
    }

    #[test]
    fn server_spl_is_heavyweight() {
        let c = CostModel::decstation_5000_200();
        assert!(c.spl_server > 10 * c.spl_kernel);
        assert!(c.spl_server > c.lock_light);
    }

    #[test]
    fn bsd386_has_interrupt_penalty() {
        assert!(CostModel::bsd386().intr_penalty > 0);
        assert_eq!(CostModel::gateway_i486().intr_penalty, 0);
    }

    #[test]
    fn ultrix_is_slower_than_mach_kernel() {
        let u = CostModel::ultrix_4_2a();
        let m = CostModel::decstation_5000_200();
        assert!(u.trap > m.trap);
        assert!(u.tcp_input_base > m.tcp_input_base);
    }
}
