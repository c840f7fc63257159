//! Table 6: what does NEWAPI batching buy, and where do the copies go?
//!
//! Tables 2–4 measure the decomposed placements with one descriptor per
//! ring crossing: every delivered frame pays the full IPC/SHM doorbell
//! and (for eager placement) a whole-body copy into the shared ring.
//! The batched NEWAPI (`send_batch`/`recv_batch`, §4.2) amortizes the
//! doorbell over a window of K descriptors, and Libra-style selective
//! placement leaves cold bodies kernel-resident, materializing headers
//! only. This harness sweeps the batch window B ∈ {1, 4, 16, 64} over
//! the three library placements and reports, per cell:
//!
//! * **crossings** — session ring crossings actually charged. The
//!   kernel pays one doorbell per window, so this is exactly ⌈P/B⌉;
//!   the harness asserts the exact count, not a trend.
//! * **busy ns** (and **ns/pkt**) — receiving-host CPU busy virtual
//!   time. Monotone decreasing in B: every skipped crossing is a
//!   trap/wakeup saved.
//! * **body copies** — whole-body copies observed by the receive-side
//!   census. Eager placement pays one per packet; kernel-resident
//!   placement materializes headers only (**hdr copies**, **hdr-only**
//!   deliveries), so body copies drop to zero unless the application
//!   pulls.
//! * **steps/pkt** — filter instructions per frame, proving batching
//!   never touches classification.
//!
//! Every number here is virtual time or a deterministic counter, so the
//! printed table is a function of the seed alone: `results_table6.txt`
//! is a full run's stdout, and CI byte-diffs a fresh run against it.

use psd_core::{AppLib, Fd};
use psd_filter::PlacementPolicy;
use psd_kernel::BatchConfig;
use psd_netstack::InetAddr;
use psd_server::Proto;
use psd_sim::{OpKind, Platform, SimTime};
use psd_systems::{SystemConfig, TestBed};
use std::rc::Rc;

use crate::observe::{Attached, Planes, Session};

/// Seed for every Table 6 run.
pub const SEED: u64 = 93;

/// Datagrams per cell. Divisible by every batch size so the crossing
/// count is exactly `packets / batch`.
const PACKETS: usize = 256;

/// Datagram payload bytes.
pub const PAYLOAD: usize = 64;

/// Receiver port; the selective-copy policy marks exactly this port
/// kernel-resident.
pub const RX_PORT: u16 = 10_000;

/// Batch windows, ascending.
const BATCHES: [usize; 4] = [1, 4, 16, 64];

/// The library placements under test (server/in-kernel placements have
/// no per-packet ring crossing to amortize).
pub const CONFIGS: [SystemConfig; 3] = [
    SystemConfig::LibraryIpc,
    SystemConfig::LibraryShm,
    SystemConfig::LibraryShmIpf,
];

/// Copy-placement mode of one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyMode {
    /// Bodies copied eagerly into the shared ring (the seed behavior).
    Eager,
    /// Kernel-resident flow, application never pulls: header-only
    /// delivery, zero body copies on the receive host.
    Resident,
    /// Kernel-resident flow, application pulls every body: the copy is
    /// deferred to `recv_batch(pull = true)` and paid at the library
    /// boundary, once per descriptor.
    ResidentPull,
}

impl CopyMode {
    /// Human/table label for the mode.
    pub fn label(self) -> &'static str {
        match self {
            CopyMode::Eager => "eager",
            CopyMode::Resident => "resident",
            CopyMode::ResidentPull => "resident-pull",
        }
    }
}

/// Every copy mode.
const MODES: [CopyMode; 3] = [CopyMode::Eager, CopyMode::Resident, CopyMode::ResidentPull];

fn config_key(c: SystemConfig) -> &'static str {
    match c {
        SystemConfig::LibraryIpc => "LibraryIpc",
        SystemConfig::LibraryShm => "LibraryShm",
        SystemConfig::LibraryShmIpf => "LibraryShmIpf",
        other => other.label(),
    }
}

/// One measured cell. Every field is deterministic for the seed.
#[derive(Clone, Copy, Debug)]
pub struct Table6Row {
    /// Placement under test.
    pub config: SystemConfig,
    /// Copy mode.
    pub mode: CopyMode,
    /// Batch window B.
    pub batch: usize,
    /// Datagrams sent (= delivered; the harness asserts zero drops).
    pub packets: usize,
    /// Session ring crossings charged during the burst — exactly
    /// `packets / batch`.
    pub crossings: u64,
    /// Filter instructions run classifying the burst.
    pub steps: u64,
    /// Whole-body copies observed by the receive-host census.
    pub body_copies: u64,
    /// Header-only copies observed by the receive-host census.
    pub header_copies: u64,
    /// Header-only ring deliveries (kernel counter).
    pub header_only: u64,
    /// Receive-host CPU busy virtual nanoseconds across the burst.
    pub busy_ns: u64,
}

impl Table6Row {
    /// Receive-host busy virtual nanoseconds per packet.
    pub fn ns_per_pkt(&self) -> f64 {
        self.busy_ns as f64 / self.packets as f64
    }

    /// Filter instructions per packet.
    pub fn steps_per_pkt(&self) -> f64 {
        self.steps as f64 / self.packets as f64
    }
}

/// A complete Table 6 result.
#[derive(Clone, Debug)]
pub struct Table6 {
    /// Rows by (config, mode, B).
    pub rows: Vec<Table6Row>,
}

/// Runs one cell with `planes` (and always a census, which the row's
/// copy counts are read from) attached, and checks its hard invariants:
/// zero drops, every datagram delivered, and the crossing count exactly
/// `packets / B`. Every plane is charged-time-neutral, so the row is
/// byte-identical whatever was requested.
pub fn run_cell(
    config: SystemConfig,
    mode: CopyMode,
    batch: usize,
    packets: usize,
    planes: &Planes,
) -> (Table6Row, Attached) {
    assert!(
        packets.is_multiple_of(batch),
        "packets must divide by the window"
    );
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, SEED);
    bed.set_batch_config(BatchConfig {
        batch,
        gro: false,
        gso: false,
    });
    if mode != CopyMode::Eager {
        bed.set_placement_policy(Some(
            PlacementPolicy::new().resident_ports(RX_PORT, RX_PORT),
        ));
    }
    let seen = Planes {
        census: true,
        ..planes.clone()
    }
    .attach(&mut bed);
    let censuses = &seen.census;

    // Sender on host 0, one connected UDP socket; receiver session on
    // host 1. The receiver binds before the policy could matter: the
    // placement verdict is taken at filter-install time.
    let tx_app = bed.hosts[0].spawn_app();
    let tx = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&tx_app, &mut bed.sim, tx, 9000).expect("tx bind");
    let rx_app = bed.hosts[1].spawn_app();
    let rx = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&rx_app, &mut bed.sim, rx, RX_PORT).expect("rx bind");
    bed.settle();
    // Warm ARP on an unclaimed port so the burst sees no cold-start.
    AppLib::sendto(
        &tx_app,
        &mut bed.sim,
        tx,
        b"warm",
        Some(InetAddr::new(bed.hosts[1].ip, 9)),
    )
    .expect("warm send");
    bed.settle();
    AppLib::connect(
        &tx_app,
        &mut bed.sim,
        tx,
        InetAddr::new(bed.hosts[1].ip, RX_PORT),
    )
    .expect("tx connect");
    bed.settle();

    // --- Snapshot, burst, drain, snapshot. ---
    let k0 = bed.hosts[1].kernel.borrow().stats();
    let busy0 = bed.hosts[1].cpu.borrow().total_busy();
    let (copies0, headers0) = {
        let c = censuses[1].borrow();
        (c.total(OpKind::PacketBodyCopy), c.total(OpKind::HeaderCopy))
    };

    let bufs: Vec<Rc<Vec<u8>>> = (0..packets)
        .map(|i| Rc::new(vec![(i % 251) as u8; PAYLOAD]))
        .collect();
    let pull = mode == CopyMode::ResidentPull;
    let mut received = 0usize;
    let mut sent = 0usize;
    for group in bufs.chunks(batch) {
        let mut off = 0;
        while off < group.len() {
            match AppLib::send_batch(&tx_app, &mut bed.sim, tx, &group[off..]) {
                Ok(0) | Err(_) => bed.run_for(SimTime::from_millis(1)),
                Ok(n) => off += n,
            }
        }
        sent += group.len();
        // Pace ~100 µs per frame (above 10 Mbit serialization) so the
        // wire never backs up, then drain at a fixed 64-packet cadence
        // so the receive-side call pattern is identical for every B.
        bed.run_for(SimTime::from_micros(100 * group.len() as u64));
        if sent.is_multiple_of(64) {
            received += drain(&mut bed, &rx_app, rx, pull);
        }
    }
    bed.settle();
    received += drain(&mut bed, &rx_app, rx, pull);
    bed.settle();

    let k1 = bed.hosts[1].kernel.borrow().stats();
    let busy1 = bed.hosts[1].cpu.borrow().total_busy();
    let (copies1, headers1) = {
        let c = censuses[1].borrow();
        (c.total(OpKind::PacketBodyCopy), c.total(OpKind::HeaderCopy))
    };

    let delivered = k1.rx_session - k0.rx_session;
    let crossings = k1.rx_session_crossings - k0.rx_session_crossings;
    assert_eq!(
        k1.drops.total() - k0.drops.total(),
        0,
        "{}: burst must be lossless",
        config.label()
    );
    assert_eq!(delivered as usize, packets, "every datagram delivered");
    assert_eq!(received, packets, "every datagram received by the app");
    assert_eq!(
        crossings as usize,
        packets / batch,
        "{} B={batch}: crossings must be exactly packets/B",
        config.label()
    );

    let row = Table6Row {
        config,
        mode,
        batch,
        packets,
        crossings,
        steps: k1.filter_steps - k0.filter_steps,
        body_copies: copies1 - copies0,
        header_copies: headers1 - headers0,
        header_only: k1.header_only_deliveries - k0.header_only_deliveries,
        busy_ns: (busy1 - busy0).as_nanos(),
    };
    (row, seen)
}

fn drain(bed: &mut TestBed, app: &psd_core::AppHandle, fd: Fd, pull: bool) -> usize {
    let mut n = 0;
    loop {
        let descs =
            AppLib::recv_batch(app, &mut bed.sim, fd, 64, 1 << 16, pull).expect("recv_batch");
        if descs.is_empty() {
            return n;
        }
        n += descs.len();
    }
}

/// Runs the Table 6 matrix, recording every cell with `session`.
pub fn run(session: &mut Session) -> Table6 {
    let mut rows = Vec::new();
    for config in CONFIGS {
        for mode in MODES {
            for b in BATCHES {
                let (row, seen) = run_cell(config, mode, b, PACKETS, &session.planes());
                let label = format!("{} | {} | B={b}", config.label(), mode.label());
                session.census_row(&label, seen.census_hosts());
                session.record(&label, &seen);
                rows.push(row);
            }
        }
    }
    Table6 { rows }
}

impl Table6 {
    /// All rows for one (config, mode), in ascending B.
    fn series(&self, config: SystemConfig, mode: CopyMode) -> Vec<&Table6Row> {
        let mut v: Vec<&Table6Row> = self
            .rows
            .iter()
            .filter(|r| r.config == config && r.mode == mode)
            .collect();
        v.sort_by_key(|r| r.batch);
        v
    }

    /// Checks the acceptance trend: crossings and busy time strictly
    /// decrease as B grows, on every placement and mode.
    pub fn check_monotone(&self) -> Result<(), String> {
        for config in CONFIGS {
            for mode in MODES {
                let series = self.series(config, mode);
                for pair in series.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    let what = if b.crossings >= a.crossings {
                        "crossings"
                    } else if b.busy_ns >= a.busy_ns {
                        "busy ns"
                    } else {
                        continue;
                    };
                    return Err(format!(
                        "{} {} {what} not decreasing: B={} {}/{} → B={} {}/{}",
                        config.label(),
                        mode.label(),
                        a.batch,
                        a.crossings,
                        a.busy_ns,
                        b.batch,
                        b.crossings,
                        b.busy_ns
                    ));
                }
            }
        }
        Ok(())
    }

    /// The human-readable table printed to stdout (and archived as
    /// `results_table6.txt`). Counts and busy ns are exact integers, and
    /// the per-packet columns print the shortest decimal that reads
    /// back as the same `f64`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("==== Table 6: batched NEWAPI (virtual time) ====\n");
        out.push_str(&format!(
            "seed {SEED}; {PACKETS} datagrams/cell, {PAYLOAD}-byte payloads\n\n"
        ));
        out.push_str(
            "config          mode             B  crossings  steps/pkt  body-copies  \
             hdr-copies  hdr-only     busy ns        ns/pkt\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<15} {:<13} {:>4} {:>10} {:>10} {:>12} {:>11} {:>9} {:>11} {:>13}\n",
                config_key(r.config),
                r.mode.label(),
                r.batch,
                r.crossings,
                r.steps_per_pkt(),
                r.body_copies,
                r.header_copies,
                r.header_only,
                r.busy_ns,
                r.ns_per_pkt(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(config: SystemConfig, mode: CopyMode, batch: usize, packets: usize) -> Table6Row {
        run_cell(config, mode, batch, packets, &Planes::default()).0
    }

    #[test]
    fn cell_charges_exact_crossings_and_is_deterministic() {
        // run_cell itself asserts crossings == packets/B and zero
        // drops; two runs must agree on every field.
        let a = cell(SystemConfig::LibraryShm, CopyMode::Eager, 16, 64);
        let b = cell(SystemConfig::LibraryShm, CopyMode::Eager, 16, 64);
        assert_eq!(a.crossings, 4);
        assert_eq!(a.busy_ns, b.busy_ns);
        assert_eq!(a.body_copies, b.body_copies);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn resident_mode_eliminates_body_copies() {
        // Non-IPF placements always pay the physical device → kernel
        // copy at interrupt level; selective placement removes the
        // kernel → ring copy, one per packet.
        let eager = cell(SystemConfig::LibraryIpc, CopyMode::Eager, 4, 64);
        let resident = cell(SystemConfig::LibraryIpc, CopyMode::Resident, 4, 64);
        let pulled = cell(SystemConfig::LibraryIpc, CopyMode::ResidentPull, 4, 64);
        assert_eq!(eager.header_only, 0);
        assert_eq!(resident.header_only, 64);
        assert_eq!(resident.body_copies + 64, eager.body_copies);
        assert!(resident.header_copies >= 64);
        // Pulling re-pays the deferred copy at the library boundary.
        assert_eq!(pulled.body_copies, resident.body_copies + 64);
        assert!(pulled.busy_ns > resident.busy_ns);

        // The integrated filter defers even the device copy, so the
        // kernel-resident cell is the zero-copy one: copies/pkt == 0.
        let zc = cell(SystemConfig::LibraryShmIpf, CopyMode::Resident, 4, 64);
        assert_eq!(zc.header_only, 64);
        assert_eq!(zc.body_copies, 0, "ShmIpf resident is zero-copy");
    }

    #[test]
    fn batching_monotonically_reduces_crossings_and_busy_time() {
        let mut rows = Vec::new();
        for b in BATCHES {
            rows.push(cell(SystemConfig::LibraryShmIpf, CopyMode::Eager, b, 64));
        }
        for pair in rows.windows(2) {
            assert!(pair[1].crossings < pair[0].crossings);
            assert!(
                pair[1].busy_ns < pair[0].busy_ns,
                "B={} busy {} must undercut B={} busy {}",
                pair[1].batch,
                pair[1].busy_ns,
                pair[0].batch,
                pair[0].busy_ns
            );
        }
    }

    #[test]
    fn table_text_is_byte_stable_and_monotone() {
        let a = run(&mut Session::default());
        assert_eq!(a.rows.len(), CONFIGS.len() * MODES.len() * BATCHES.len());
        a.check_monotone().expect("monotone in B");
        let b = run(&mut Session::default());
        assert_eq!(a.table(), b.table());
    }
}
