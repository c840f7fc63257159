//! One workload's run: the timed repetitions behind the end-to-end
//! metrics, and the traced repetition plus layer probes behind the
//! per-layer metrics.
//!
//! Measured run (`--trace 0`): a discarded warm-up repetition at ¼
//! length, then full-length repetitions on fresh testbeds until
//! `--seconds` of host time have passed (at least [`MIN_REPS`]), then
//! one byte-verified repetition at `seed + 1`, so the drivers are not
//! tuned to one seed. Host-clock metrics are medians over the timed
//! repetitions; everything virtual must agree between them bit for bit.
//!
//! Traced run (`--trace 1`): warm-up, one untraced and one traced
//! repetition at ¼ length — the traced one byte-verified, and equal to
//! the untraced one in every virtual quantity, since every observer is
//! charged-time-neutral — then the probes.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::drivers::{self, percentile, Observed, Rep, RepResult, RepSpec};
use crate::probes::{self, ProbeOut};
use crate::spans::Spans;
use crate::spec::{Workload, END_TO_END, PER_LAYER};

/// Timed repetitions a measured run makes at least.
pub const MIN_REPS: usize = 3;
/// `--quick` divides every message count by this and times one repetition.
pub const QUICK_DIV: usize = 32;

/// How long and how much.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Host seconds of timed repetitions.
    pub seconds: f64,
    pub quick: bool,
}

impl Plan {
    /// Messages of a full-length repetition.
    fn full(&self, w: Workload) -> usize {
        if self.quick {
            w.messages() / QUICK_DIV
        } else {
            w.messages()
        }
    }

    /// Messages of the warm-up, second-seed, untraced-twin and traced
    /// repetitions.
    fn short(&self, w: Workload) -> usize {
        if self.quick {
            self.full(w)
        } else {
            self.full(w) / 4
        }
    }

    fn probe_budget(&self) -> Duration {
        if self.quick {
            Duration::from_millis(20)
        } else {
            Duration::from_secs_f64((self.seconds / 50.0).clamp(0.02, 0.5))
        }
    }
}

/// A metric's value with its spread over the timed repetitions.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    fn exact(value: f64) -> Stat {
        Stat {
            value,
            min: value,
            max: value,
        }
    }

    fn median_of(mut xs: Vec<f64>) -> Stat {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let value = if n % 2 == 1 {
            xs[n / 2]
        } else {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        };
        Stat {
            value,
            min: xs[0],
            max: xs[n - 1],
        }
    }
}

/// The outcome of a measured run.
#[derive(Clone, Debug)]
pub struct Measured {
    /// One value per [`END_TO_END`] entry, in its order.
    pub metrics: Vec<Stat>,
    /// Error against the paper's cell; `None` is "unvalidated".
    pub model_err_pct: Option<f64>,
    /// Timed repetitions.
    pub reps: usize,
    /// Latency samples per repetition.
    pub lat_samples: u64,
    /// Messages attempted, over every checked repetition.
    pub ops: u64,
    /// Messages that failed.
    pub failed: u64,
    /// Digest of per-message virtual completion times.
    pub digest: u64,
    /// The same over the leading messages the traced run also sends.
    pub lead_digest: u64,
    /// Every determinism and byte check held.
    pub correct: bool,
    /// What did not hold.
    pub problems: Vec<String>,
}

/// The outcome of a traced run.
#[derive(Clone, Debug)]
pub struct Traced {
    /// One value per [`PER_LAYER`] entry, in its order.
    pub metrics: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub lead_digest: u64,
    pub correct: bool,
    pub problems: Vec<String>,
    /// Where the Chrome trace went.
    pub trace_file: String,
}

fn rep(w: Workload, seed: u64, msgs: usize, lead: usize, verify: bool, spans: &Rc<Spans>) -> Rep {
    drivers::run(&RepSpec {
        workload: w,
        seed,
        msgs,
        lead,
        verify,
        spans,
    })
}

/// The virtual-clock face of a repetition: equal seeds and lengths must
/// give equal values, bit for bit.
fn virtual_face(r: &RepResult) -> [u64; 11] {
    [
        r.packets,
        r.events,
        r.payload,
        r.sim_ns,
        r.lat_samples,
        r.lat_p50_ns,
        r.lat_p99_ns,
        r.model_err_pct.map_or(0, f64::to_bits),
        r.digest,
        r.ops,
        r.failed,
    ]
}

/// Runs the measured repetitions of one workload.
pub fn measure(w: Workload, plan: Plan) -> Measured {
    let off = Rc::new(Spans::off());
    let (full, short) = (plan.full(w), plan.short(w));
    let lead = short / 2;
    let mut problems = Vec::new();

    let warm = rep(w, plan.seed, short, lead, false, &off).result;
    let t = Instant::now();
    let min_reps = if plan.quick { 1 } else { MIN_REPS };
    let mut reps: Vec<RepResult> = Vec::new();
    while reps.len() < min_reps || (!plan.quick && t.elapsed().as_secs_f64() < plan.seconds) {
        reps.push(rep(w, plan.seed, full, lead, false, &off).result);
    }
    let other = rep(w, plan.seed + 1, short, lead, true, &off).result;

    let first = reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if virtual_face(r) != virtual_face(&first) {
            problems.push(format!(
                "repetition {i} disagrees with repetition 0 on a virtual quantity"
            ));
        }
    }
    if w.flow_controlled() && warm.lead_digest != first.lead_digest {
        problems.push(
            "the ¼-length repetition's leading messages complete at other virtual times".into(),
        );
    }
    if other.failed != 0 {
        problems.push(format!(
            "second seed: {} of {} operations failed",
            other.failed, other.ops
        ));
    }

    let per_pkt = |f: fn(&RepResult) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let secs = |ns: u64| ns as f64 / 1e9;
    let metrics = in_table_order(
        END_TO_END.iter().map(|d| d.name),
        &[
            (
                "wall_ns_per_pkt",
                Stat::median_of(per_pkt(|r| r.wall_ns as f64 / r.packets as f64)),
            ),
            (
                "wall_mb_per_s",
                Stat::median_of(per_pkt(|r| {
                    r.payload as f64 / 1_048_576.0 / (r.wall_ns as f64 / 1e9)
                })),
            ),
            (
                "sim_goodput_kb_s",
                Stat::exact(first.payload as f64 / 1024.0 / secs(first.sim_ns)),
            ),
            ("sim_lat_us_p50", Stat::exact(first.lat_p50_ns as f64 / 1e3)),
            ("sim_lat_us_p99", Stat::exact(first.lat_p99_ns as f64 / 1e3)),
            (
                "events_per_pkt",
                Stat::exact(first.events as f64 / first.packets as f64),
            ),
            (
                "allocs_per_pkt",
                Stat::exact(first.allocs as f64 / first.packets as f64),
            ),
            (
                "alloc_kb_per_pkt",
                Stat::exact(first.alloc_bytes as f64 / 1024.0 / first.packets as f64),
            ),
            ("peak_heap_mb", Stat::exact(first.peak_heap as f64 / 1e6)),
            ("setup_s", Stat::median_of(per_pkt(|r| r.setup_s))),
        ],
    );
    let failed = reps.iter().map(|r| r.failed).sum::<u64>() + warm.failed + other.failed;
    Measured {
        metrics,
        model_err_pct: first.model_err_pct,
        reps: reps.len(),
        lat_samples: first.lat_samples,
        ops: reps.iter().map(|r| r.ops).sum::<u64>() + warm.ops + other.ops,
        failed,
        digest: first.digest,
        lead_digest: first.lead_digest,
        correct: problems.is_empty(),
        problems,
    }
}

/// Puts named values in a metric table's order, so a value can never
/// be reported under a neighbour's name. Every name of the table must
/// be given exactly once.
fn in_table_order<'a, T: Copy>(
    table: impl ExactSizeIterator<Item = &'a str>,
    values: &[(&str, T)],
) -> Vec<T> {
    assert_eq!(table.len(), values.len(), "one value per table entry");
    table
        .map(|name| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value computed for metric {name}"))
                .1
        })
        .collect()
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the traced repetition and the probes of one workload.
pub fn trace(w: Workload, plan: Plan, out_dir: &str) -> io::Result<Traced> {
    let off = Rc::new(Spans::off());
    let short = plan.short(w);
    let lead = short / 2;
    let mut problems = Vec::new();

    rep(w, plan.seed, short, lead, false, &off);
    let live0 = alloc::snapshot().live;
    let plain = rep(w, plan.seed, short, lead, false, &off).result;
    let leaked = alloc::snapshot().live.saturating_sub(live0);
    let spans = Rc::new(Spans::on());
    let Rep {
        result: traced,
        observed,
    } = rep(w, plan.seed, short, lead, true, &spans);
    let obs = observed.expect("a repetition with spans on observes");

    if virtual_face(&traced) != virtual_face(&plain) {
        problems.push(
            "the traced repetition disagrees with its untraced twin on a virtual quantity".into(),
        );
    }
    if traced.failed != 0 {
        problems.push(format!(
            "{} of {} operations failed under byte verification",
            traced.failed, traced.ops
        ));
    }

    let pending_p50 = percentile(&sorted(obs.pending.iter().map(|&p| p as f64).collect()), 50);
    let probe = probes::run_all(w, plan.seed, &obs, pending_p50 as u64, plan.probe_budget());
    let metrics = layer_metrics(&plain, &traced, &obs, &spans, &probe, pending_p50, leaked);

    fs::create_dir_all(out_dir)?;
    let trace_file = format!("{out_dir}/{}.trace.json", w.name());
    let mut out = BufWriter::new(fs::File::create(&trace_file)?);
    spans.write_chrome_trace(&mut out)?;
    out.flush()?;

    Ok(Traced {
        metrics,
        ops: plain.ops + traced.ops,
        failed: plain.failed + traced.failed,
        lead_digest: traced.lead_digest,
        correct: problems.is_empty(),
        problems,
        trace_file,
    })
}

/// The per-layer metrics, in [`PER_LAYER`] order.
fn layer_metrics(
    plain: &RepResult,
    traced: &RepResult,
    obs: &Observed,
    spans: &Spans,
    p: &ProbeOut,
    pending_p50: f64,
    leaked: u64,
) -> Vec<f64> {
    let c = &obs.counts;
    let pkts = c.frames.max(1) as f64;
    let wall = plain.wall_ns as f64 / plain.packets.max(1) as f64;
    let traced_wall = traced.wall_ns as f64 / traced.packets.max(1) as f64;
    let share = |ns_per_pkt: f64| ns_per_pkt.max(0.0) / wall * 100.0;
    let slices = spans.totals("sim.run_until");
    let sum = |names: &[&str]| {
        names
            .iter()
            .map(|n| spans.totals(n))
            .fold((0u64, 0u64), |acc, t| (acc.0 + t.count, acc.1 + t.total_ns))
    };
    let (send_calls, send_ns) = sum(&["core.send", "core.sendto"]);
    let (recv_calls, recv_ns) = sum(&["core.recv", "core.recvfrom"]);
    let (ctl_calls, ctl_ns) = sum(&[
        "core.socket",
        "core.bind",
        "core.listen",
        "core.connect",
        "core.accept",
        "core.close",
    ]);
    let slice_ns = sorted(obs.slice_ns_per_pkt.clone());
    let ip_kb_per_frame = {
        let bytes: usize = obs.frames.iter().map(|f| f.len().saturating_sub(34)).sum();
        bytes as f64 / 1024.0 / obs.frames.len().max(1) as f64
    };
    let cksum_per_pkt = c.checksums as f64 / pkts;
    let payload_kb_per_pkt = traced.payload as f64 / 1024.0 / traced.packets.max(1) as f64;
    let wire_ns = p.wire_parse_ns + p.wire_cksum_ns_per_kb * cksum_per_pkt * ip_kb_per_frame;
    let kernel_ns = p.kernel_rx_ns + p.kernel_tx_ns - p.filter_classify_ns - p.netdev_tx_ns;
    let traced_host_ns = traced.setup_s * 1e9 + traced.wall_ns as f64;
    let whole = {
        let mut w = obs.counts;
        w.migrations += obs.setup_counts.migrations;
        w.rpc_retries += obs.setup_counts.rpc_retries;
        w
    };

    in_table_order(
        PER_LAYER.iter().map(|d| d.name),
        &[
            (
                "sim.dispatch_ns_per_event",
                ratio(slices.self_ns, obs.slice_events),
            ),
            ("sim.probe_ns_per_event", p.sim_ns_per_event),
            ("sim.pending_p50", pending_p50),
            ("sim.slice_ns_per_pkt_p95", percentile(&slice_ns, 95)),
            (
                "sim.share_pct",
                share(p.sim_ns_per_event * c.events as f64 / pkts),
            ),
            ("netdev.tx_ns_per_frame", p.netdev_tx_ns),
            ("netdev.loss_ratio", ratio(c.wire_dropped, c.frames)),
            ("netdev.dup_ratio", ratio(c.wire_duplicated, c.frames)),
            ("netdev.reorder_ratio", ratio(c.wire_reordered, c.frames)),
            ("netdev.share_pct", share(p.netdev_tx_ns)),
            ("wire.parse_ns_per_frame", p.wire_parse_ns),
            ("wire.cksum_ns_per_kb", p.wire_cksum_ns_per_kb),
            ("wire.share_pct", share(wire_ns)),
            ("filter.classify_ns_per_frame", p.filter_classify_ns),
            ("filter.install_ns", p.filter_install_ns),
            ("filter.steps_per_frame", ratio(c.filter_steps, c.rx_frames)),
            ("filter.runs_per_match", ratio(c.filter_runs, c.rx_session)),
            ("filter.share_pct", share(p.filter_classify_ns)),
            ("kernel.rx_ns_per_frame", p.kernel_rx_ns),
            ("kernel.tx_ns_per_frame", p.kernel_tx_ns),
            ("kernel.crossings_per_pkt", c.crossings as f64 / pkts),
            ("kernel.wakeups_per_pkt", c.wakeups as f64 / pkts),
            (
                "kernel.body_copies_per_pkt",
                c.body_copies_kernel as f64 / pkts,
            ),
            (
                "kernel.wakeups_amortized_ratio",
                ratio(c.wakeups_amortized, c.wakeups_amortized + c.wakeups),
            ),
            ("kernel.fast_path_share", ratio(c.rx_session, c.rx_frames)),
            ("kernel.ring_occupancy_max", obs.ring_max as f64),
            ("kernel.drops", c.kernel_drops as f64),
            ("kernel.share_pct", share(kernel_ns)),
            ("mbuf.chain_ns_per_kb", p.mbuf_chain_ns_per_kb),
            (
                "mbuf.pool_hit_ratio",
                ratio(c.pool_hits, c.pool_hits + c.pool_misses),
            ),
            ("mbuf.pool_misses_per_pkt", c.pool_misses as f64 / pkts),
            (
                "mbuf.share_pct",
                share(p.mbuf_chain_ns_per_kb * payload_kb_per_pkt),
            ),
            ("netstack.pair_ns_per_seg", p.pair_ns_per_seg),
            (
                "netstack.rexmt_per_kseg",
                ratio(c.tcp_rexmt * 1000, c.tcp_in),
            ),
            (
                "netstack.ooo_dup_per_kseg",
                ratio(
                    (c.wire_duplicated + c.wire_reordered + c.tcp_rexmt) * 1000,
                    c.tcp_in,
                ),
            ),
            ("netstack.drops", c.stack_drops as f64),
            ("netstack.cksum_per_pkt", cksum_per_pkt),
            (
                "netstack.body_copies_per_pkt",
                c.body_copies_stack as f64 / pkts,
            ),
            ("netstack.share_pct", share(p.pair_ns_per_seg)),
            ("server.rpc_ns_per_call", ratio(ctl_ns, ctl_calls)),
            ("server.sim_rpc_us", obs.bind_sim_us),
            ("server.rpcs_per_pkt", c.data_rpcs as f64 / pkts),
            ("server.migrations", whole.migrations as f64),
            ("server.rpc_retries", whole.rpc_retries as f64),
            ("core.send_ns_per_call", ratio(send_ns, send_calls)),
            ("core.recv_ns_per_call", ratio(recv_ns, recv_calls)),
            (
                "core.bytes_per_recv_call",
                ratio(obs.calls.recv_bytes, obs.calls.recv_calls),
            ),
            (
                "core.would_block_ratio",
                ratio(obs.calls.would_block, obs.calls.data_calls),
            ),
            (
                "core.share_pct",
                (send_ns + recv_ns) as f64 / traced_host_ns * 100.0,
            ),
            ("systems.testbed_new_ns", obs.testbed_new_ns as f64),
            ("systems.leaked_kb_per_bed", leaked as f64 / 1024.0),
            (
                "systems.trace_overhead_pct",
                (traced_wall - wall) / wall * 100.0,
            ),
        ],
    )
}
