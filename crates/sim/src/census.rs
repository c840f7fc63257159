//! Operation census: counting *what happens*, not how long it takes.
//!
//! The paper's argument is structural: the configurations differ in **how
//! many** copies, boundary crossings, wakeups and lock operations each
//! packet incurs, and the latency/throughput differences of Tables 2–4
//! follow from those counts. A [`Census`] records exactly those counts —
//! one monotonic counter per `(operation kind, layer, protection domain)`
//! triple — so tests can assert the structural invariants directly
//! (e.g. "a library send performs zero data-path boundary crossings",
//! "SHM-IPF moves each packet body twice, the server path six times")
//! independent of the cost model.
//!
//! Census counters never charge virtual time: attaching a census to a
//! [`Cpu`](crate::cpu::Cpu) — as the `census` plane of its
//! [`Observers`](crate::cpu::Observers) — must not perturb any simulated
//! timing, so the numeric output of the table harnesses is
//! byte-identical with and without `--census`. Boundary crossings are
//! counted per layer here (`layer_total(OpKind::BoundaryCrossing, _)`),
//! which is where Table 4's asterisks come from.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::layer::Layer;
use crate::trace::DropReason;

/// The kinds of operations the census distinguishes.
///
/// Each corresponds to a class of work the paper counts when comparing
/// in-kernel, server-based and decomposed (library) protocol stacks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OpKind {
    /// A protection-boundary crossing: trap into the kernel, IPC send or
    /// receive, or return to user space.
    BoundaryCrossing,
    /// A copy of a packet *body* (the payload bytes moved end to end).
    PacketBodyCopy,
    /// A copy or construction of protocol header bytes.
    HeaderCopy,
    /// A checksum pass over packet bytes.
    Checksum,
    /// A mutex/lock acquisition (thread-based synchronization, used by
    /// the library and server stacks).
    LockAcquire,
    /// An interrupt-priority-level raise (spl-based synchronization,
    /// used by the in-kernel stack and emulated by the server).
    SplRaise,
    /// A thread wakeup (scheduler activation of a blocked receiver).
    Wakeup,
    /// A device interrupt dispatched.
    Interrupt,
    /// One packet-filter program executed over a frame.
    FilterRun,
    /// One session migrated between protection domains (capsule export
    /// or import).
    SessionMigration,
}

impl OpKind {
    /// Every kind, in census presentation order.
    pub(crate) const ALL: [OpKind; 10] = [
        OpKind::BoundaryCrossing,
        OpKind::PacketBodyCopy,
        OpKind::HeaderCopy,
        OpKind::Checksum,
        OpKind::LockAcquire,
        OpKind::SplRaise,
        OpKind::Wakeup,
        OpKind::Interrupt,
        OpKind::FilterRun,
        OpKind::SessionMigration,
    ];

    /// Short label used in census snapshots.
    pub(crate) fn label(self) -> &'static str {
        match self {
            OpKind::BoundaryCrossing => "boundary_crossing",
            OpKind::PacketBodyCopy => "packet_body_copy",
            OpKind::HeaderCopy => "header_copy",
            OpKind::Checksum => "checksum",
            OpKind::LockAcquire => "lock_acquire",
            OpKind::SplRaise => "spl_raise",
            OpKind::Wakeup => "wakeup",
            OpKind::Interrupt => "interrupt",
            OpKind::FilterRun => "filter_run",
            OpKind::SessionMigration => "session_migration",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            OpKind::BoundaryCrossing => 0,
            OpKind::PacketBodyCopy => 1,
            OpKind::HeaderCopy => 2,
            OpKind::Checksum => 3,
            OpKind::LockAcquire => 4,
            OpKind::SplRaise => 5,
            OpKind::Wakeup => 6,
            OpKind::Interrupt => 7,
            OpKind::FilterRun => 8,
            OpKind::SessionMigration => 9,
        }
    }

    pub(crate) const COUNT: usize = 10;
}

/// The protection domain in which a counted operation executed.
///
/// Distinct from [`Placement`](../psd_netstack) (where a protocol *stack*
/// lives): a library-placed stack still performs some operations inside
/// the kernel (the packet-send trap, the receive-side demultiplex), and
/// the census attributes each operation to where it actually ran.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Domain {
    /// The operating-system kernel.
    Kernel,
    /// The user-space OS/network server.
    Server,
    /// The application's own address space (in-library protocol code or
    /// the emulation library's stubs).
    Library,
}

impl Domain {
    /// Every domain, in census presentation order.
    pub(crate) const ALL: [Domain; 3] = [Domain::Kernel, Domain::Server, Domain::Library];

    /// Short label used in census snapshots.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Domain::Kernel => "kernel",
            Domain::Server => "server",
            Domain::Library => "library",
        }
    }

    fn index(self) -> usize {
        match self {
            Domain::Kernel => 0,
            Domain::Server => 1,
            Domain::Library => 2,
        }
    }

    const COUNT: usize = 3;
}

/// Monotonic operation counters keyed by `(kind, layer, domain)`, plus
/// optional per-scope counters (e.g. filter runs per endpoint).
#[derive(Debug)]
pub struct Census {
    counts: [[[u64; Domain::COUNT]; Layer::COUNT]; OpKind::COUNT],
    drops: [[u64; Domain::COUNT]; DropReason::COUNT],
    scoped: BTreeMap<(u8, u64), u64>,
}

/// Shared handle to a census, stored by every component that counts
/// operations.
pub type CensusHandle = Rc<RefCell<Census>>;

impl Census {
    /// Creates a census with all counters at zero.
    pub(crate) fn new() -> Census {
        Census {
            counts: [[[0; Domain::COUNT]; Layer::COUNT]; OpKind::COUNT],
            drops: [[0; Domain::COUNT]; DropReason::COUNT],
            scoped: BTreeMap::new(),
        }
    }

    /// Creates a shared handle to a fresh census.
    pub fn shared() -> CensusHandle {
        Rc::new(RefCell::new(Census::new()))
    }

    /// Counts `n` occurrences of `op` in `domain` within `layer`. Only
    /// [`Charge`](crate::Charge) counts, so every count is a priced
    /// operation.
    pub(crate) fn note_n(&mut self, op: OpKind, domain: Domain, layer: Layer, n: u64) {
        self.counts[op.index()][layer.index()][domain.index()] += n;
    }

    /// Counts `n` occurrences of `op` against an opaque scope id (e.g. an
    /// endpoint id, for per-session filter-run attribution). Scoped counts
    /// are additional to — not part of — the `(kind, layer, domain)`
    /// counters.
    pub(crate) fn note_scoped(&mut self, op: OpKind, scope: u64, n: u64) {
        *self.scoped.entry((op.index() as u8, scope)).or_insert(0) += n;
    }

    /// Counts one packet dropped for `reason` in `domain`. Drops are a
    /// separate grid from the operation counters: every drop is also a
    /// terminal state in the packet-lifecycle trace, and the always-on
    /// per-component [`DropCounters`](crate::trace::DropCounters) carry
    /// the same taxonomy when no census is attached.
    pub(crate) fn note_drop(&mut self, reason: DropReason, domain: Domain) {
        self.drops[reason.index()][domain.index()] += 1;
    }

    /// The drop count for one `(reason, domain)` cell.
    pub fn drop_count(&self, reason: DropReason, domain: Domain) -> u64 {
        self.drops[reason.index()][domain.index()]
    }

    /// The count for one `(kind, domain, layer)` cell.
    pub fn count(&self, op: OpKind, domain: Domain, layer: Layer) -> u64 {
        self.counts[op.index()][layer.index()][domain.index()]
    }

    /// Total count of `op` across all layers and domains.
    pub fn total(&self, op: OpKind) -> u64 {
        self.counts[op.index()]
            .iter()
            .map(|per_layer| per_layer.iter().sum::<u64>())
            .sum()
    }

    /// Total count of `op` in one domain, across all layers.
    pub fn domain_total(&self, op: OpKind, domain: Domain) -> u64 {
        self.counts[op.index()]
            .iter()
            .map(|per_layer| per_layer[domain.index()])
            .sum()
    }

    /// Total count of `op` in one layer, across all domains.
    pub fn layer_total(&self, op: OpKind, layer: Layer) -> u64 {
        self.counts[op.index()][layer.index()].iter().sum()
    }

    /// The scoped count for `(op, scope)`, zero if never noted.
    pub fn scoped(&self, op: OpKind, scope: u64) -> u64 {
        self.scoped
            .get(&(op.index() as u8, scope))
            .copied()
            .unwrap_or(0)
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.counts = [[[0; Domain::COUNT]; Layer::COUNT]; OpKind::COUNT];
        self.drops = [[0; Domain::COUNT]; DropReason::COUNT];
        self.scoped.clear();
    }

    /// A deterministic text rendering of every nonzero counter, one per
    /// line, in fixed `(kind, layer, domain)` order. Two censuses over
    /// identical seeded runs produce byte-identical snapshots.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        for op in OpKind::ALL {
            for layer in Layer::ALL {
                for domain in Domain::ALL {
                    let n = self.count(op, domain, layer);
                    if n != 0 {
                        let _ = writeln!(
                            out,
                            "{:<18} {:<20} {:<8} {}",
                            op.label(),
                            layer.label(),
                            domain.label(),
                            n
                        );
                    }
                }
            }
        }
        for reason in DropReason::ALL {
            for domain in Domain::ALL {
                let n = self.drop_count(reason, domain);
                if n != 0 {
                    let _ = writeln!(
                        out,
                        "{:<18} {:<20} {:<8} {}",
                        "drop",
                        reason.label(),
                        domain.label(),
                        n
                    );
                }
            }
        }
        for (&(op_idx, scope), &n) in &self.scoped {
            let op = OpKind::ALL[op_idx as usize];
            let _ = writeln!(out, "{:<18} scope={:<14} {}", op.label(), scope, n);
        }
        out
    }

    /// A machine-readable JSON rendering of the same nonzero counters
    /// [`Census::snapshot`] prints, in the same deterministic order.
    /// Built by hand (no serializer dependency); all keys and labels
    /// are ASCII and need no escaping.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"ops\":[");
        let mut first = true;
        for op in OpKind::ALL {
            for layer in Layer::ALL {
                for domain in Domain::ALL {
                    let n = self.count(op, domain, layer);
                    if n != 0 {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let _ = write!(
                            out,
                            "{{\"op\":\"{}\",\"layer\":\"{}\",\"domain\":\"{}\",\"n\":{}}}",
                            op.label(),
                            layer.label(),
                            domain.label(),
                            n
                        );
                    }
                }
            }
        }
        out.push_str("],\"drops\":[");
        let mut first = true;
        for reason in DropReason::ALL {
            for domain in Domain::ALL {
                let n = self.drop_count(reason, domain);
                if n != 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "{{\"reason\":\"{}\",\"domain\":\"{}\",\"n\":{}}}",
                        reason.label(),
                        domain.label(),
                        n
                    );
                }
            }
        }
        out.push_str("],\"scoped\":[");
        let mut first = true;
        for (&(op_idx, scope), &n) in &self.scoped {
            if !first {
                out.push(',');
            }
            first = false;
            let op = OpKind::ALL[op_idx as usize];
            let _ = write!(
                out,
                "{{\"op\":\"{}\",\"scope\":{},\"n\":{}}}",
                op.label(),
                scope,
                n
            );
        }
        out.push_str("]}");
        out
    }
}

impl Default for Census {
    fn default() -> Census {
        Census::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_accumulates_per_cell() {
        let mut c = Census::new();
        let (body, kernel, copyout) =
            (OpKind::PacketBodyCopy, Domain::Kernel, Layer::KernelCopyout);
        c.note_n(body, kernel, copyout, 1);
        c.note_n(body, kernel, copyout, 2);
        c.note_n(body, Domain::Library, Layer::CopyoutExit, 1);
        assert_eq!(c.count(body, kernel, copyout), 3);
        assert_eq!(c.total(body), 4);
        assert_eq!(c.domain_total(body, Domain::Library), 1);
        assert_eq!(c.layer_total(body, Layer::CopyoutExit), 1);
    }

    #[test]
    fn scoped_counts_are_independent() {
        let mut c = Census::new();
        c.note_scoped(OpKind::FilterRun, 1, 2);
        c.note_scoped(OpKind::FilterRun, 2, 5);
        assert_eq!(c.scoped(OpKind::FilterRun, 1), 2);
        assert_eq!(c.scoped(OpKind::FilterRun, 2), 5);
        assert_eq!(c.scoped(OpKind::FilterRun, 3), 0);
        // Scoped notes do not feed the (kind, layer, domain) grid.
        assert_eq!(c.total(OpKind::FilterRun), 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_nonzero_only() {
        let build = || {
            let mut c = Census::new();
            c.note_n(OpKind::Checksum, Domain::Server, Layer::TcpUdpInput, 1);
            c.note_n(OpKind::BoundaryCrossing, Domain::Kernel, Layer::Control, 2);
            c.note_scoped(OpKind::FilterRun, 42, 9);
            c
        };
        let a = build().snapshot();
        let b = build().snapshot();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 3);
        assert!(a.contains("checksum"));
        assert!(a.contains("scope=42"));
        assert!(!a.contains("wakeup"));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Census::new();
        c.note_n(OpKind::Interrupt, Domain::Kernel, Layer::DeviceIntrRead, 1);
        c.note_scoped(OpKind::FilterRun, 1, 1);
        c.note_drop(DropReason::ChecksumError, Domain::Server);
        c.reset();
        assert_eq!(c.total(OpKind::Interrupt), 0);
        assert_eq!(c.scoped(OpKind::FilterRun, 1), 0);
        assert_eq!(c.drop_count(DropReason::ChecksumError, Domain::Server), 0);
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn drops_counted_per_reason_and_domain() {
        let mut c = Census::new();
        c.note_drop(DropReason::FilterMiss, Domain::Kernel);
        c.note_drop(DropReason::FilterMiss, Domain::Kernel);
        c.note_drop(DropReason::PortUnreachable, Domain::Library);
        assert_eq!(c.drop_count(DropReason::FilterMiss, Domain::Kernel), 2);
        assert_eq!(
            c.drop_count(DropReason::PortUnreachable, Domain::Library),
            1
        );
        let snap = c.snapshot();
        assert!(snap.contains("filter-miss"));
        assert!(snap.contains("port-unreachable"));
    }

    #[test]
    fn json_snapshot_is_deterministic_and_nonzero_only() {
        let build = || {
            let mut c = Census::new();
            c.note_n(OpKind::Checksum, Domain::Server, Layer::TcpUdpInput, 1);
            c.note_drop(DropReason::ChecksumError, Domain::Server);
            c.note_scoped(OpKind::FilterRun, 3, 4);
            c.snapshot_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.starts_with("{\"ops\":["));
        assert!(a.contains("\"reason\":\"checksum-error\""));
        assert!(a.contains("\"scope\":3"));
        assert!(a.ends_with("]}"));
        assert!(!a.contains("wakeup"));
    }
}
