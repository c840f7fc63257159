//! The benchmark's fixed tables: workloads with their message counts,
//! and every metric by name with its unit, its direction and the rule
//! `--compare` judges it by. `BENCHMARK.json` at the repository root
//! repeats the names, units and directions (its bounds are the driver's,
//! and wider: they cover seed-to-seed variation too); `tests/smoke.rs`
//! checks the two agree.

/// The five workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BulkLib,
    EchoLib,
    FaninCspf,
    FaninMpf,
    LossySrv,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::BulkLib,
        Workload::EchoLib,
        Workload::FaninCspf,
        Workload::FaninMpf,
        Workload::LossySrv,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkLib => "bulk_lib",
            Workload::EchoLib => "echo_lib",
            Workload::FaninCspf => "fanin_cspf",
            Workload::FaninMpf => "fanin_mpf",
            Workload::LossySrv => "lossy_srv",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Messages in one full-length repetition: 8 KiB writes (bulk),
    /// round trips (echo) or datagrams (fan-in). Run length is fixed by
    /// these counts, never by time; `--seconds` only decides how many
    /// repetitions are timed.
    pub fn messages(self) -> usize {
        match self {
            Workload::BulkLib => 65_536,
            Workload::EchoLib => 300_000,
            Workload::FaninCspf => 10_000,
            Workload::FaninMpf => 400_000,
            Workload::LossySrv => 65_536,
        }
    }

    /// True where the sender waits on the receiver (TCP flow control or
    /// a closed loop), so a message's completion time cannot depend on
    /// messages sent after it and a shorter repetition reproduces a
    /// longer one's leading messages exactly. The fan-in workloads are an
    /// overloaded open loop — interrupt-level filter work pre-empts
    /// delivery, so every datagram waits on all later arrivals.
    pub fn flow_controlled(self) -> bool {
        !matches!(self, Workload::FaninCspf | Workload::FaninMpf)
    }

    /// What runs, in one line.
    pub fn what(self) -> &'static str {
        match self {
            Workload::BulkLib => "one-way TCP, 8 KiB writes, Library-SHM-IPF, clean wire",
            Workload::EchoLib => {
                "closed-loop round trips, one outstanding, UDP/TCP and Table 2 size drawn per round by seed, Library-SHM-IPF"
            }
            Workload::FaninCspf => {
                "4096 UDP sessions (every 4th connected) + 32 TCP on one receiver, Library-SHM, CSPF demux, seeded-bursty 64 B datagrams"
            }
            Workload::FaninMpf => "the fanin_cspf sessions and schedule under the kernel-default MPF demux",
            Workload::LossySrv => {
                "one-way TCP, 8 KiB writes, Mach 3.0+UX Server, wire loss 1 % + duplicate 0.5 % + reorder 0.5 %"
            }
        }
    }
}

/// How `--compare` judges a metric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Judge {
    /// Virtual-clock or counted: the same seed must give the same bits.
    Exact,
    /// Host-clock: may worsen by this share of the baseline.
    Within(f64),
}

/// One end-to-end metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Rule for two runs of the same seed.
    pub judge: Judge,
}

/// The end-to-end metrics every workload reports, in report order.
/// `model_err_pct` is reported beside them where the paper has a cell
/// (`bulk_lib`, `echo_lib`) and as "unvalidated" elsewhere, so it is not
/// in this table.
pub const END_TO_END: [Metric; 10] = [
    // host ns per frame handed to the medium
    Metric {
        name: "wall_ns_per_pkt",
        unit: "ns",
        lower_is_better: true,
        judge: Judge::Within(0.05),
    },
    // application payload delivered per host second
    Metric {
        name: "wall_mb_per_s",
        unit: "MiB/s",
        lower_is_better: false,
        judge: Judge::Within(0.05),
    },
    // application payload delivered per virtual second (Table 2's unit; no headers, retransmits or duplicates)
    Metric {
        name: "sim_goodput_kb_s",
        unit: "KB/s",
        lower_is_better: false,
        judge: Judge::Exact,
    },
    // median virtual time from the send call for a message to the app holding its last byte (echo: the reply's)
    Metric {
        name: "sim_lat_us_p50",
        unit: "us",
        lower_is_better: true,
        judge: Judge::Exact,
    },
    // 99th percentile of the same
    Metric {
        name: "sim_lat_us_p99",
        unit: "us",
        lower_is_better: true,
        judge: Judge::Exact,
    },
    // simulator events executed per frame
    Metric {
        name: "events_per_pkt",
        unit: "count",
        lower_is_better: true,
        judge: Judge::Exact,
    },
    // heap allocations per frame in the timed region of the first repetition
    Metric {
        name: "allocs_per_pkt",
        unit: "count",
        lower_is_better: true,
        judge: Judge::Within(0.005),
    },
    // heap KB requested per frame in the same region
    Metric {
        name: "alloc_kb_per_pkt",
        unit: "KB",
        lower_is_better: true,
        judge: Judge::Within(0.005),
    },
    // peak live heap of the first repetition above its starting level
    Metric {
        name: "peak_heap_mb",
        unit: "MB",
        lower_is_better: true,
        judge: Judge::Within(0.02),
    },
    // host time from TestBed::new through session set-up and warm-up traffic to the first timed message
    Metric {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        judge: Judge::Within(0.10),
    },
];

/// One per-layer metric of the traced run.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lm(name: &'static str, unit: &'static str, lower_is_better: bool) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        lower_is_better,
    }
}

/// The per-layer metrics, in report order. T = from the traced
/// repetition, P = from a layer probe.
pub const PER_LAYER: [LayerMetric; 52] = [
    // T: self time of run_until slices per event executed
    lm("sim.dispatch_ns_per_event", "ns", true),
    // P: Sim::after/cancel/run_until at the workload's median pending-timer population
    lm("sim.probe_ns_per_event", "ns", true),
    // T: median Sim::pending() at slice boundaries
    lm("sim.pending_p50", "count", true),
    // T: 95th percentile over slices of host ns per frame
    lm("sim.slice_ns_per_pkt_p95", "ns", true),
    // P: probe ns x events per frame, as a share of wall_ns_per_pkt
    lm("sim.share_pct", "%", true),
    // P: Ethernet::transmit of captured frames to a counting station, run to idle
    lm("netdev.tx_ns_per_frame", "ns", true),
    // T: frames the wire dropped / frames transmitted
    lm("netdev.loss_ratio", "ratio", true),
    // T: frames the wire duplicated / frames transmitted
    lm("netdev.dup_ratio", "ratio", true),
    // T: frames the wire reordered / frames transmitted
    lm("netdev.reorder_ratio", "ratio", true),
    // P: probe ns per frame as a share of wall_ns_per_pkt
    lm("netdev.share_pct", "%", true),
    // P: Ethernet, IPv4 and TCP/UDP header parse of captured frames
    lm("wire.parse_ns_per_frame", "ns", true),
    // P: internet_checksum over captured frames, per KiB
    lm("wire.cksum_ns_per_kb", "ns", true),
    // P: (parse + checksum passes x bytes) per frame as a share of wall_ns_per_pkt
    lm("wire.share_pct", "%", true),
    // P: DemuxTable::classify of captured frames over the workload's sessions and strategy
    lm("filter.classify_ns_per_frame", "ns", true),
    // P: DemuxTable::install per session
    lm("filter.install_ns", "ns", true),
    // T: filter instructions per frame received
    lm("filter.steps_per_frame", "count", true),
    // T: filter programs run per frame delivered to a session
    lm("filter.runs_per_match", "count", true),
    // P: classify ns per frame as a share of wall_ns_per_pkt
    lm("filter.share_pct", "%", true),
    // P: Station::frame_arrived on a lone Kernel with the workload's endpoints and counting sinks
    lm("kernel.rx_ns_per_frame", "ns", true),
    // P: Kernel::send_from_user on the same kernel, to a counting station
    lm("kernel.tx_ns_per_frame", "ns", true),
    // T: protection-boundary crossings per frame (census)
    lm("kernel.crossings_per_pkt", "count", true),
    // T: thread wakeups per frame (census)
    lm("kernel.wakeups_per_pkt", "count", true),
    // T: kernel-domain packet body copies per frame (census)
    lm("kernel.body_copies_per_pkt", "count", true),
    // T: wakeups skipped because the receiver was already running / wakeups wanted
    lm("kernel.wakeups_amortized_ratio", "ratio", false),
    // T: frames delivered straight to a session endpoint / frames received
    lm("kernel.fast_path_share", "ratio", false),
    // T: highest delivery-ring occupancy at a slice boundary
    lm("kernel.ring_occupancy_max", "count", true),
    // T: frames the kernel interfaces discarded
    lm("kernel.drops", "count", true),
    // P: (rx + tx probe ns, less the classify probe) per frame as a share of wall_ns_per_pkt
    lm("kernel.share_pct", "%", true),
    // P: MbufChain::from_slice, SockBuf::append, copy out, drop at the workload's segment size, per KiB
    lm("mbuf.chain_ns_per_kb", "ns", true),
    // T: mbuf pool hits / pool requests
    lm("mbuf.pool_hit_ratio", "ratio", false),
    // T: mbuf pool misses per frame
    lm("mbuf.pool_misses_per_pkt", "count", true),
    // P: chain ns x payload per frame as a share of wall_ns_per_pkt
    lm("mbuf.share_pct", "%", true),
    // P: two NetStacks back to back over a loopback NetIf carrying the workload's traffic shape, per segment
    lm("netstack.pair_ns_per_seg", "ns", true),
    // T: TCP segments retransmitted per 1000 received
    lm("netstack.rexmt_per_kseg", "count", true),
    // T: segments duplicated or reordered by the wire, or retransmitted, per 1000 received
    lm("netstack.ooo_dup_per_kseg", "count", true),
    // T: packets the protocol stacks discarded
    lm("netstack.drops", "count", true),
    // T: checksum passes per frame (census)
    lm("netstack.cksum_per_pkt", "count", true),
    // T: server- and library-domain packet body copies per frame (census)
    lm("netstack.body_copies_per_pkt", "count", true),
    // P: pair ns per segment as a share of wall_ns_per_pkt
    lm("netstack.share_pct", "%", true),
    // T: host ns per control call (socket, bind, listen, connect, accept, close)
    lm("server.rpc_ns_per_call", "ns", true),
    // T: virtual CPU one more bind costs with every session up
    lm("server.sim_rpc_us", "us", true),
    // T: proxy data RPCs per frame
    lm("server.rpcs_per_pkt", "count", true),
    // T: sessions migrated in or out during the repetition
    lm("server.migrations", "count", true),
    // T: proxy RPC attempts retried
    lm("server.rpc_retries", "count", true),
    // T: host ns per send/sendto call
    lm("core.send_ns_per_call", "ns", true),
    // T: host ns per recv/recvfrom call
    lm("core.recv_ns_per_call", "ns", true),
    // T: payload bytes returned per recv/recvfrom call
    lm("core.bytes_per_recv_call", "count", false),
    // T: data calls that returned WouldBlock / data calls
    lm("core.would_block_ratio", "ratio", true),
    // T: data-call host time as a share of the traced repetition's host time
    lm("core.share_pct", "%", true),
    // T: host ns of TestBed::new
    lm("systems.testbed_new_ns", "ns", true),
    // T: live heap after dropping a repetition's bed minus before building it
    lm("systems.leaked_kb_per_bed", "KB", true),
    // T: traced vs untraced wall_ns_per_pkt at the same length
    lm("systems.trace_overhead_pct", "%", true),
];
