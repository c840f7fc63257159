//! Neutrality and conservation guarantees of the observability plane
//! (profiler + metrics):
//!
//! * attaching the charged-time profiler, the metrics sampler, or both
//!   to a seeded run changes nothing observable — the full digest
//!   (workload results, kernel counters, census, CPU busy time, event
//!   count, final virtual clock) is byte-identical to a detached run,
//!   with and without an armed fault plane;
//! * exact time conservation: the profiler's summed attributed
//!   nanoseconds equals `Cpu::total_busy` bit-exactly, per host, under
//!   every DECstation placement and under injected faults;
//! * the metrics sampler observes real state (nonempty samples, gauges
//!   in registration order) without inventing events.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use psd::bench::{ttcp, ApiStyle};
use psd::sim::{Cpu, FaultSite, MetricsHandle, Platform, ProfileHandle, Rng, SimTime};
use psd::systems::{SystemConfig, TestBed};

const SEED: u64 = 42;
const BYTES: usize = 1 << 20;

/// Which observability/chaos planes to attach before the run.
#[derive(Clone, Copy, Default)]
struct Attach {
    profile: bool,
    metrics: bool,
    faults: bool,
}

/// Everything a run leaves behind: the deterministic digest plus the
/// handles the assertions need.
struct RunOutcome {
    digest: String,
    profiles: Vec<(Rc<RefCell<Cpu>>, ProfileHandle)>,
    metrics: Option<MetricsHandle>,
}

/// One seeded ttcp transfer with the requested planes attached. The
/// digest covers every observable the workload produces; any
/// perturbation from an attached plane would show up in it.
fn run(config: SystemConfig, attach: Attach) -> RunOutcome {
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, SEED);
    let censuses = bed.attach_census();
    if attach.faults {
        let plane = bed.attach_fault_plane();
        let mut p = plane.borrow_mut();
        // Recoverable data-path faults only: the transfer must still
        // complete so the digest is comparable across attach modes.
        p.set_rng(Rng::new(SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        p.arm(FaultSite::NicRx, 0.001);
        p.arm(FaultSite::WireBurstLoss, 0.0005);
        p.arm(FaultSite::ShmRing, 0.02);
    }
    let profilers = attach.profile.then(|| bed.attach_profilers());
    let metrics = attach
        .metrics
        .then(|| bed.attach_metrics(SimTime::from_millis(5)));

    let t = ttcp(&mut bed, BYTES, ApiStyle::Classic);

    let mut digest = String::new();
    writeln!(
        digest,
        "ttcp bytes={} elapsed={} kbps={:?} retransmits={}",
        t.bytes,
        t.elapsed.as_nanos(),
        t.kb_per_sec,
        t.retransmits
    )
    .unwrap();
    writeln!(
        digest,
        "sim now={} executed={}",
        bed.sim.now().as_nanos(),
        bed.sim.executed()
    )
    .unwrap();
    for (i, h) in bed.hosts.iter().enumerate() {
        writeln!(
            digest,
            "host{i} busy={} kernel={:?}",
            h.cpu.borrow().total_busy().as_nanos(),
            h.kernel.borrow().stats()
        )
        .unwrap();
    }
    for (i, c) in censuses.iter().enumerate() {
        writeln!(digest, "census{i}:\n{}", c.borrow().snapshot()).unwrap();
    }

    RunOutcome {
        digest,
        profiles: profilers
            .map(|ps| {
                bed.hosts
                    .iter()
                    .zip(ps)
                    .map(|(h, p)| (h.cpu.clone(), p))
                    .collect()
            })
            .unwrap_or_default(),
        metrics,
    }
}

/// Asserts the conservation invariant on every host of a profiled run
/// and returns the per-host attributed totals.
fn assert_conservation(outcome: &RunOutcome, context: &str) -> Vec<u64> {
    assert!(
        !outcome.profiles.is_empty(),
        "{context}: run was not profiled"
    );
    outcome
        .profiles
        .iter()
        .enumerate()
        .map(|(i, (cpu, prof))| {
            let busy = cpu.borrow().total_busy().as_nanos();
            let attributed = prof.borrow().attributed_ns();
            assert_eq!(
                attributed, busy,
                "{context} host{i}: attributed ns must equal total busy ns bit-exactly"
            );
            attributed
        })
        .collect()
}

/// All DECstation placements (the full Table 2 column).
fn placements() -> Vec<SystemConfig> {
    SystemConfig::for_platform(Platform::DecStation5000_200)
}

#[test]
fn profiler_and_metrics_are_byte_neutral_per_placement() {
    for config in placements() {
        let plain = run(config, Attach::default());
        let profiled = run(
            config,
            Attach {
                profile: true,
                ..Attach::default()
            },
        );
        let both = run(
            config,
            Attach {
                profile: true,
                metrics: true,
                faults: false,
            },
        );
        assert_eq!(
            plain.digest,
            profiled.digest,
            "{}: profiled digest diverged",
            config.label()
        );
        assert_eq!(
            plain.digest,
            both.digest,
            "{}: profiled+metered digest diverged",
            config.label()
        );
    }
}

#[test]
fn conservation_holds_under_every_placement() {
    for config in placements() {
        let outcome = run(
            config,
            Attach {
                profile: true,
                ..Attach::default()
            },
        );
        let totals = assert_conservation(&outcome, config.label());
        assert!(
            totals.iter().any(|&ns| ns > 0),
            "{}: a ttcp transfer must charge time somewhere",
            config.label()
        );
    }
}

#[test]
fn chaos_run_is_byte_neutral_and_conserved() {
    // The satellite claim: neutrality and conservation survive an
    // armed fault plane (drops, ring corruption, bursty wire loss).
    for config in [SystemConfig::LibraryShm, SystemConfig::UxServer] {
        let plain = run(
            config,
            Attach {
                faults: true,
                ..Attach::default()
            },
        );
        let profiled = run(
            config,
            Attach {
                profile: true,
                metrics: true,
                faults: true,
            },
        );
        assert_eq!(
            plain.digest,
            profiled.digest,
            "{}: chaos digest diverged under profiling",
            config.label()
        );
        assert_conservation(&profiled, config.label());
    }
}

#[test]
fn metrics_sampler_is_inert_and_observes_real_state() {
    let plain = run(SystemConfig::LibraryShm, Attach::default());
    let metered = run(
        SystemConfig::LibraryShm,
        Attach {
            metrics: true,
            ..Attach::default()
        },
    );
    assert_eq!(
        plain.digest, metered.digest,
        "metrics sampling must not perturb the run"
    );
    let metrics = metered.metrics.expect("metrics attached");
    let m = metrics.borrow();
    assert!(m.sample_count() > 0, "the sampler must actually sample");
    let names = m.gauge_names();
    assert!(
        names.iter().any(|n| n.starts_with("h0.")) && names.contains(&"mbuf.hits"),
        "host and mbuf gauges registered: {names:?}"
    );
    // Virtual-time cadence: strictly increasing sample timestamps.
    let samples = m.samples();
    assert!(
        samples.windows(2).all(|w| w[0].0 < w[1].0),
        "sample timestamps must strictly increase"
    );
    // The transfer moved real data, so the rx-frame gauge must have
    // advanced between the first and last sample.
    let rx_idx = names
        .iter()
        .position(|n| *n == "h1.rx_frames")
        .expect("h1.rx_frames gauge");
    let (first, last) = (&samples[0].1, &samples[samples.len() - 1].1);
    assert!(
        last[rx_idx] > first[rx_idx],
        "rx_frames gauge must advance over a transfer: {} -> {}",
        first[rx_idx],
        last[rx_idx]
    );
}

#[test]
fn profile_export_is_deterministic_and_structured() {
    let a = run(
        SystemConfig::LibraryShmIpf,
        Attach {
            profile: true,
            ..Attach::default()
        },
    );
    let b = run(
        SystemConfig::LibraryShmIpf,
        Attach {
            profile: true,
            ..Attach::default()
        },
    );
    for ((_, pa), (_, pb)) in a.profiles.iter().zip(&b.profiles) {
        let (sa, sb) = (
            pa.borrow().collapsed_stacks(),
            pb.borrow().collapsed_stacks(),
        );
        assert_eq!(sa, sb, "same-seed collapsed stacks must be byte-identical");
        assert!(!sa.is_empty(), "a profiled transfer must produce stacks");
    }
    // The site labels wired through the kernel/netstack layers must
    // show up in the receive-host attribution. Under SHM-IPF the stack
    // runs in the library domain, so the input/tcp sites carry the
    // `library:` prefix while the interrupt path stays `kernel:rx`.
    let rx_stacks = a.profiles[1].1.borrow().collapsed_stacks();
    for needle in ["kernel:rx", "library:input", "library:tcp_input"] {
        assert!(
            rx_stacks.contains(needle),
            "expected site {needle} in receive-host stacks:\n{rx_stacks}"
        );
    }
}
