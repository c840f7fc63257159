//! The paper's published numbers, for side-by-side comparison in the
//! table harnesses and in EXPERIMENTS.md.

use psd_sim::Platform;
use psd_systems::SystemConfig;

/// Message sizes used for TCP latency rows (bytes).
pub(crate) const TCP_SIZES: [usize; 5] = [1, 100, 512, 1024, 1460];
/// Message sizes used for UDP latency rows (bytes).
pub(crate) const UDP_SIZES: [usize; 5] = [1, 100, 512, 1024, 1472];

/// One Table 2 row as published: throughput (KB/s), receive buffer
/// (KB), TCP latencies (ms), UDP latencies (ms). `None` marks the NA
/// cells (the 386BSD/BNR2SS large-packet bug).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Table2Row {
    /// Configuration.
    pub(crate) config: SystemConfig,
    /// TCP throughput, KB/s.
    pub(crate) throughput: f64,
    /// Receive buffer size, KB.
    pub(crate) bufsize: u32,
    /// TCP round-trip latency (ms) at [`TCP_SIZES`].
    pub(crate) tcp_ms: [Option<f64>; 5],
    /// UDP round-trip latency (ms) at [`UDP_SIZES`].
    pub(crate) udp_ms: [Option<f64>; 5],
}

const fn ms(v: f64) -> Option<f64> {
    Some(v)
}

/// Table 2, DECstation 5000/200 block.
pub(crate) fn table2_decstation() -> Vec<Table2Row> {
    use SystemConfig::*;
    vec![
        Table2Row {
            config: Mach25InKernel,
            throughput: 1070.0,
            bufsize: 24,
            tcp_ms: [ms(1.40), ms(1.73), ms(3.05), ms(4.56), ms(6.04)],
            udp_ms: [ms(1.45), ms(1.74), ms(3.05), ms(4.56), ms(5.88)],
        },
        Table2Row {
            config: Ultrix42InKernel,
            throughput: 996.0,
            bufsize: 16,
            tcp_ms: [ms(1.52), ms(1.89), ms(3.50), ms(4.78), ms(6.13)],
            udp_ms: [ms(1.52), ms(1.81), ms(3.29), ms(4.69), ms(6.05)],
        },
        Table2Row {
            config: UxServer,
            throughput: 740.0,
            bufsize: 24,
            tcp_ms: [ms(3.64), ms(4.21), ms(5.90), ms(7.84), ms(9.73)],
            udp_ms: [ms(3.61), ms(4.01), ms(5.50), ms(7.99), ms(9.41)],
        },
        Table2Row {
            config: LibraryIpc,
            throughput: 910.0,
            bufsize: 24,
            tcp_ms: [ms(1.69), ms(2.09), ms(3.43), ms(5.09), ms(6.63)],
            udp_ms: [ms(1.40), ms(1.74), ms(3.08), ms(4.71), ms(6.14)],
        },
        Table2Row {
            config: LibraryShm,
            throughput: 1076.0,
            bufsize: 120,
            tcp_ms: [ms(1.82), ms(2.29), ms(3.56), ms(5.32), ms(6.73)],
            udp_ms: [ms(1.34), ms(1.68), ms(2.95), ms(4.59), ms(5.95)],
        },
        Table2Row {
            config: LibraryShmIpf,
            throughput: 1088.0,
            bufsize: 120,
            tcp_ms: [ms(1.72), ms(2.11), ms(3.44), ms(5.09), ms(6.56)],
            udp_ms: [ms(1.23), ms(1.57), ms(2.83), ms(4.41), ms(5.78)],
        },
    ]
}

/// Table 2, Gateway 486 block.
pub(crate) fn table2_gateway() -> Vec<Table2Row> {
    use SystemConfig::*;
    vec![
        Table2Row {
            config: Mach25InKernel,
            throughput: 457.0,
            bufsize: 8,
            tcp_ms: [ms(2.08), ms(2.69), ms(5.45), ms(8.78), ms(12.05)],
            udp_ms: [ms(1.83), ms(2.41), ms(5.19), ms(8.54), ms(11.70)],
        },
        Table2Row {
            config: Bsd386InKernel,
            throughput: 320.0,
            bufsize: 8,
            tcp_ms: [ms(2.71), ms(3.64), ms(6.21), None, None],
            udp_ms: [ms(2.63), ms(3.19), ms(6.01), ms(9.25), ms(12.40)],
        },
        Table2Row {
            config: UxServer,
            throughput: 415.0,
            bufsize: 16,
            tcp_ms: [ms(4.09), ms(4.88), ms(7.76), ms(11.30), ms(14.29)],
            udp_ms: [ms(3.96), ms(4.67), ms(7.80), ms(11.65), ms(15.01)],
        },
        Table2Row {
            config: Bnr2ssServer,
            throughput: 382.0,
            bufsize: 112,
            tcp_ms: [ms(3.99), ms(4.70), ms(8.00), None, None],
            udp_ms: [ms(4.61), ms(5.17), ms(8.95), ms(13.24), ms(16.10)],
        },
        Table2Row {
            config: LibraryIpc,
            throughput: 469.0,
            bufsize: 24,
            tcp_ms: [ms(2.49), ms(3.10), ms(5.84), ms(9.25), ms(14.09)],
            udp_ms: [ms(2.12), ms(2.68), ms(5.30), ms(8.74), ms(11.66)],
        },
        Table2Row {
            config: LibraryShm,
            throughput: 503.0,
            bufsize: 24,
            tcp_ms: [ms(2.39), ms(3.07), ms(5.79), ms(9.15), ms(12.58)],
            udp_ms: [ms(2.02), ms(2.59), ms(5.30), ms(8.64), ms(11.62)],
        },
    ]
}

/// The Table 2 block for a platform.
pub(crate) fn table2_for(platform: Platform) -> Vec<Table2Row> {
    match platform {
        Platform::DecStation5000_200 => table2_decstation(),
        Platform::Gateway486 => table2_gateway(),
    }
}

/// Table 3 rows (NEWAPI; DECstation only). The first two rows repeat
/// the in-kernel baselines from Table 2 for comparison.
pub(crate) fn table3_decstation() -> Vec<Table2Row> {
    use SystemConfig::*;
    vec![
        Table2Row {
            config: Mach25InKernel,
            throughput: 1070.0,
            bufsize: 24,
            tcp_ms: [ms(1.40), ms(1.73), ms(3.05), ms(4.56), ms(6.04)],
            udp_ms: [ms(1.45), ms(1.74), ms(3.05), ms(4.56), ms(5.88)],
        },
        Table2Row {
            config: Ultrix42InKernel,
            throughput: 996.0,
            bufsize: 16,
            tcp_ms: [ms(1.52), ms(1.89), ms(3.53), ms(4.78), ms(6.13)],
            udp_ms: [ms(1.52), ms(1.81), ms(3.29), ms(4.69), ms(6.05)],
        },
        Table2Row {
            config: LibraryIpc,
            throughput: 959.0,
            bufsize: 24,
            tcp_ms: [ms(1.67), ms(2.02), ms(3.35), ms(4.96), ms(6.45)],
            udp_ms: [ms(1.42), ms(1.75), ms(3.05), ms(4.69), ms(6.09)],
        },
        Table2Row {
            config: LibraryShm,
            throughput: 1083.0,
            bufsize: 120,
            tcp_ms: [ms(1.70), ms(2.07), ms(3.33), ms(4.94), ms(6.38)],
            udp_ms: [ms(1.34), ms(1.66), ms(2.93), ms(4.54), ms(5.95)],
        },
        Table2Row {
            config: LibraryShmIpf,
            throughput: 1099.0,
            bufsize: 120,
            tcp_ms: [ms(1.63), ms(1.98), ms(3.24), ms(4.80), ms(6.26)],
            udp_ms: [ms(1.25), ms(1.57), ms(2.83), ms(4.38), ms(5.76)],
        },
    ]
}

/// One column of Table 4 (µs per layer). Layers in
/// [`psd_sim::Layer::TABLE4_ORDER`] order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Table4Column {
    /// "Library" / "Kernel" / "Server".
    pub(crate) system: &'static str,
    /// "TCP" or "UDP".
    pub(crate) proto: &'static str,
    /// Message size in bytes.
    pub(crate) size: usize,
    /// Send path: entry/copyin, tcp,udp_output, ip_output, ether_output.
    pub(crate) send: [u32; 4],
    /// Receive path: device intr/read, netisr/packet filter, kernel
    /// copyout, mbuf/queue, ipintr, tcp,udp_input, wakeup user thread,
    /// copyout/exit.
    pub(crate) recv: [u32; 8],
    /// Network transit.
    pub(crate) transit: u32,
}

/// Table 4 as published (DECstation; Library = SHM-IPF).
pub(crate) fn table4() -> Vec<Table4Column> {
    vec![
        Table4Column {
            system: "Library",
            proto: "TCP",
            size: 1,
            send: [19, 82, 26, 98],
            recv: [42, 82, 123, 22, 37, 214, 92, 46],
            transit: 51,
        },
        Table4Column {
            system: "Library",
            proto: "TCP",
            size: 1460,
            send: [203, 328, 26, 274],
            recv: [43, 95, 534, 21, 35, 445, 95, 261],
            transit: 1214,
        },
        Table4Column {
            system: "Kernel",
            proto: "TCP",
            size: 1,
            send: [50, 65, 24, 75],
            recv: [77, 79, 0, 0, 30, 76, 54, 32],
            transit: 51,
        },
        Table4Column {
            system: "Kernel",
            proto: "TCP",
            size: 1460,
            send: [153, 307, 20, 105],
            recv: [469, 73, 0, 0, 37, 270, 54, 220],
            transit: 1214,
        },
        Table4Column {
            system: "Server",
            proto: "TCP",
            size: 1,
            send: [254, 224, 31, 166],
            recv: [101, 53, 113, 79, 127, 249, 194, 222],
            transit: 51,
        },
        Table4Column {
            system: "Server",
            proto: "TCP",
            size: 1460,
            send: [579, 447, 25, 331],
            recv: [496, 52, 148, 58, 95, 365, 213, 1028],
            transit: 1214,
        },
        Table4Column {
            system: "Library",
            proto: "UDP",
            size: 1,
            send: [6, 18, 17, 105],
            recv: [39, 58, 107, 20, 35, 103, 73, 21],
            transit: 51,
        },
        Table4Column {
            system: "Library",
            proto: "UDP",
            size: 1472,
            send: [7, 239, 18, 280],
            recv: [40, 70, 517, 20, 33, 318, 80, 63],
            transit: 1214,
        },
        Table4Column {
            system: "Kernel",
            proto: "UDP",
            size: 1,
            send: [65, 70, 22, 74],
            recv: [74, 83, 0, 0, 30, 67, 70, 27],
            transit: 51,
        },
        Table4Column {
            system: "Kernel",
            proto: "UDP",
            size: 1472,
            send: [104, 273, 25, 163],
            recv: [481, 84, 0, 0, 54, 279, 69, 75],
            transit: 1214,
        },
        Table4Column {
            system: "Server",
            proto: "UDP",
            size: 1,
            send: [293, 229, 24, 188],
            recv: [99, 76, 124, 68, 121, 61, 262, 208],
            transit: 51,
        },
        Table4Column {
            system: "Server",
            proto: "UDP",
            size: 1472,
            send: [628, 398, 27, 367],
            recv: [497, 61, 207, 64, 91, 273, 274, 619],
            transit: 1214,
        },
    ]
}

/// Formats a measured/published pair with a ratio.
pub(crate) fn fmt_pair(measured: f64, published: f64) -> String {
    if published == 0.0 {
        format!("{measured:8.2} (paper    0.00)")
    } else {
        format!(
            "{measured:8.2} (paper {published:8.2}, ×{:.2})",
            measured / published
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_blocks_have_expected_rows() {
        assert_eq!(table2_decstation().len(), 6);
        assert_eq!(table2_gateway().len(), 6);
        assert_eq!(table3_decstation().len(), 5);
    }

    #[test]
    fn table4_has_twelve_columns() {
        let t = table4();
        assert_eq!(t.len(), 12);
        // Send-path totals from the paper check out (Library TCP 1 B:
        // 225 µs).
        let lib1 = &t[0];
        assert_eq!(lib1.send.iter().sum::<u32>(), 225);
        // Receive-path total: 658 µs.
        assert_eq!(lib1.recv.iter().sum::<u32>(), 658);
    }

    #[test]
    fn published_shapes_hold() {
        // The qualitative claims the reproduction must reproduce.
        let dec = table2_decstation();
        let by = |c: SystemConfig| dec.iter().find(|r| r.config == c).unwrap().throughput;
        use SystemConfig::*;
        assert!(by(LibraryShmIpf) > by(Mach25InKernel));
        assert!(by(LibraryShm) > by(Mach25InKernel));
        assert!(by(LibraryIpc) < by(Mach25InKernel));
        assert!(by(UxServer) < by(LibraryIpc));
        // Library-IPC ≈ 85% of in-kernel.
        let ratio = by(LibraryIpc) / by(Mach25InKernel);
        assert!((0.80..0.90).contains(&ratio));
    }
}
