//! Deterministic fault plane: injecting *what goes wrong*, on schedule.
//!
//! The decomposition moves protocol state into untrusted, mortal address
//! spaces, so the system's correctness story rests on recovery (§3.2–
//! §3.3): stub sessions exist precisely so the server can clean up after
//! process death, and migration must never lose or duplicate in-flight
//! data. A [`FaultPlane`] makes that failure surface testable: named
//! [`FaultSite`]s are consulted from the same charge cursors the census
//! uses, and a scripted or seeded schedule decides, deterministically,
//! which visits to a site actually fail.
//!
//! Like the census, the fault plane never charges virtual time and an
//! *empty* plane (nothing scripted, nothing armed) never consumes
//! randomness — the plane owns its own [`Rng`] stream and only draws
//! from it for sites that are explicitly armed — so attaching an empty
//! plane provably cannot perturb a run: the table harnesses produce
//! byte-identical output with and without `--faults`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::rng::Rng;

/// The named sites at which faults can be injected.
///
/// Each corresponds to a distinct failure mode of the decomposed
/// architecture, and each has recovery machinery that the chaos suite
/// exercises against it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultSite {
    /// A proxy control RPC's reply is lost; the library must detect it
    /// by deadline and retry idempotently.
    ProxyRpc,
    /// Mapping the shared-memory receive ring fails during session
    /// migration; the session must fall back to the server path.
    ShmRing,
    /// Installing a packet filter fails (table exhaustion); the session
    /// must fall back to the server path.
    FilterTable,
    /// A frame is dropped at the network interface on receive, after
    /// wire delivery but before demultiplexing.
    NicRx,
    /// The operating system server crashes; state must be rebuilt from
    /// stub records and applications must re-register.
    ServerCrash,
    /// The migration capsule is lost between prepare and commit; the
    /// transaction must roll back with the session wholly at its
    /// original owner.
    MigrationCapsule,
    /// A burst of consecutive frames is lost on the wire (correlated
    /// loss, unlike the independent per-frame [`FaultSite::WireLoss`]).
    WireBurstLoss,
    /// One frame is lost on the wire, independently per frame (the
    /// fault-plane replacement for the retired `FaultModel::loss`).
    WireLoss,
    /// One frame is delivered twice by the medium (replaces
    /// `FaultModel::duplicate`).
    WireDuplicate,
    /// One frame's delivery is delayed past its successor (replaces
    /// `FaultModel::reorder`).
    WireReorder,
    /// A link goes down for this frame: the segment consults the site
    /// once per transmitted frame, so a scripted visit *range* models a
    /// flap or a partition (heal = the end of the range).
    LinkDown,
    /// A router/switch egress queue reports full regardless of its real
    /// depth, forcing a tail-drop burst.
    LinkQueueFull,
    /// A router with an alternate next hop routes this packet via the
    /// alternate, creating asymmetric / flapping routes.
    RouteFlip,
}

impl FaultSite {
    /// Every site, in fault-plane presentation order.
    pub const ALL: [FaultSite; 13] = [
        FaultSite::ProxyRpc,
        FaultSite::ShmRing,
        FaultSite::FilterTable,
        FaultSite::NicRx,
        FaultSite::ServerCrash,
        FaultSite::MigrationCapsule,
        FaultSite::WireBurstLoss,
        FaultSite::WireLoss,
        FaultSite::WireDuplicate,
        FaultSite::WireReorder,
        FaultSite::LinkDown,
        FaultSite::LinkQueueFull,
        FaultSite::RouteFlip,
    ];

    /// Short label used in fault-plane snapshots.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::ProxyRpc => "proxy_rpc",
            FaultSite::ShmRing => "shm_ring",
            FaultSite::FilterTable => "filter_table",
            FaultSite::NicRx => "nic_rx",
            FaultSite::ServerCrash => "server_crash",
            FaultSite::MigrationCapsule => "migration_capsule",
            FaultSite::WireBurstLoss => "wire_burst_loss",
            FaultSite::WireLoss => "wire_loss",
            FaultSite::WireDuplicate => "wire_duplicate",
            FaultSite::WireReorder => "wire_reorder",
            FaultSite::LinkDown => "link_down",
            FaultSite::LinkQueueFull => "link_queue_full",
            FaultSite::RouteFlip => "route_flip",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::ProxyRpc => 0,
            FaultSite::ShmRing => 1,
            FaultSite::FilterTable => 2,
            FaultSite::NicRx => 3,
            FaultSite::ServerCrash => 4,
            FaultSite::MigrationCapsule => 5,
            FaultSite::WireBurstLoss => 6,
            FaultSite::WireLoss => 7,
            FaultSite::WireDuplicate => 8,
            FaultSite::WireReorder => 9,
            FaultSite::LinkDown => 10,
            FaultSite::LinkQueueFull => 11,
            FaultSite::RouteFlip => 12,
        }
    }

    const COUNT: usize = 13;
}

#[derive(Debug, Default, Clone)]
struct SiteState {
    /// How many times the site has been consulted.
    visits: u64,
    /// How many consultations injected a fault.
    injected: u64,
    /// Zero-based visit indices scripted to fail.
    scripted: BTreeSet<u64>,
    /// Per-visit failure probability; `0.0` means the site is unarmed
    /// and no randomness is consumed for it.
    prob: f64,
}

/// A deterministic, seeded fault-injection schedule shared by every
/// component that hosts a fault site (mirrors
/// [`CensusHandle`](crate::census::CensusHandle)).
#[derive(Debug)]
pub struct FaultPlane {
    sites: [SiteState; FaultSite::COUNT],
    /// The plane's private randomness stream; forked from the simulation
    /// seed by the caller so armed sites never disturb component RNGs.
    rng: Option<Rng>,
    /// Number of consecutive frames a [`FaultSite::WireBurstLoss`]
    /// injection drops (the injected visit's frame plus the following
    /// `burst_len - 1`).
    burst_len: u32,
    /// Every injection, as `(site, visit index)`, in occurrence order.
    log: Vec<(FaultSite, u64)>,
}

/// Shared handle to a fault plane.
pub type FaultPlaneHandle = Rc<RefCell<FaultPlane>>;

impl FaultPlane {
    /// Creates an empty plane: every site unarmed, nothing
    /// scripted. Consulting an empty plane is a pure counter increment.
    pub fn new() -> FaultPlane {
        FaultPlane {
            sites: Default::default(),
            rng: None,
            burst_len: 3,
            log: Vec::new(),
        }
    }

    /// Creates a shared handle to a fresh, empty plane.
    pub fn shared() -> FaultPlaneHandle {
        Rc::new(RefCell::new(FaultPlane::new()))
    }

    /// True if no site is scripted or armed: such a plane can never
    /// inject and never consumes randomness.
    pub fn is_empty(&self) -> bool {
        self.sites
            .iter()
            .all(|s| s.scripted.is_empty() && s.prob == 0.0)
    }

    /// Supplies the plane's private randomness stream (fork it from the
    /// simulation seed). Required before arming any site with a
    /// probability; scripted schedules need no randomness.
    pub fn set_rng(&mut self, rng: Rng) {
        self.rng = Some(rng);
    }

    /// Scripts the site to inject at exactly these zero-based visit
    /// indices (visit 0 is the first consultation after scripting from
    /// a fresh plane).
    pub fn script(&mut self, site: FaultSite, visits: &[u64]) {
        self.sites[site.index()].scripted.extend(visits);
    }

    /// Scripts the site to inject at every visit in `[start, end)` —
    /// the natural shape for a link flap or a partition window, where
    /// the heal is the end of the range.
    pub fn script_range(&mut self, site: FaultSite, start: u64, end: u64) {
        self.sites[site.index()].scripted.extend(start..end);
    }

    /// Arms the site with a per-visit injection probability, drawn from
    /// the plane's private stream. Requires [`FaultPlane::set_rng`].
    pub fn arm(&mut self, site: FaultSite, prob: f64) {
        assert!(
            prob == 0.0 || self.rng.is_some(),
            "arming a probabilistic site requires set_rng first"
        );
        self.sites[site.index()].prob = prob;
    }

    /// Consults the plane at `site`: counts the visit and reports
    /// whether this visit fails. An empty plane always answers `false`
    /// without consuming randomness.
    pub fn should_inject(&mut self, site: FaultSite) -> bool {
        let s = &mut self.sites[site.index()];
        let visit = s.visits;
        s.visits += 1;
        let mut fire = s.scripted.contains(&visit);
        if !fire && s.prob > 0.0 {
            let rng = self.rng.as_mut().expect("armed site has rng");
            fire = rng.chance(s.prob);
        }
        if fire {
            let s = &mut self.sites[site.index()];
            s.injected += 1;
            self.log.push((site, visit));
        }
        fire
    }

    /// How many times the site has been consulted.
    pub fn visits(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].visits
    }

    /// How many consultations of the site injected a fault.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].injected
    }

    /// Total injections across all sites.
    pub fn total_injected(&self) -> u64 {
        self.sites.iter().map(|s| s.injected).sum()
    }

    /// The length of a wire loss burst (default 3).
    pub fn burst_len(&self) -> u32 {
        self.burst_len
    }

    /// Sets the wire loss burst length.
    pub fn set_burst_len(&mut self, n: u32) {
        self.burst_len = n;
    }

    /// Clears visit counters, injection counts, and the log; schedules
    /// (scripts, probabilities) and the randomness stream are kept.
    pub fn reset(&mut self) {
        for s in &mut self.sites {
            s.visits = 0;
            s.injected = 0;
        }
        self.log.clear();
    }

    /// A deterministic text rendering: one line per site with nonzero
    /// visits, then the injection log in occurrence order. Two planes
    /// driven by identical seeded runs produce byte-identical snapshots.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        for site in FaultSite::ALL {
            let s = &self.sites[site.index()];
            if s.visits != 0 {
                let _ = writeln!(
                    out,
                    "{:<18} visits={:<8} injected={}",
                    site.label(),
                    s.visits,
                    s.injected
                );
            }
        }
        for &(site, visit) in &self.log {
            let _ = writeln!(out, "inject {:<18} at visit {}", site.label(), visit);
        }
        out
    }
}

impl Default for FaultPlane {
    fn default() -> FaultPlane {
        FaultPlane::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plane_never_injects_and_consumes_no_randomness() {
        let mut p = FaultPlane::new();
        let mut reference = Rng::new(77);
        p.set_rng(Rng::new(77));
        assert!(p.is_empty());
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert!(!p.should_inject(site));
            }
        }
        assert_eq!(p.total_injected(), 0);
        // The plane's stream is untouched: it still matches a fresh
        // reference stream draw for draw.
        assert_eq!(p.rng.as_mut().unwrap().next_u64(), reference.next_u64());
    }

    #[test]
    fn scripted_schedule_fires_at_exact_visits() {
        let mut p = FaultPlane::new();
        p.script(FaultSite::ProxyRpc, &[1, 3]);
        let fired: Vec<bool> = (0..5)
            .map(|_| p.should_inject(FaultSite::ProxyRpc))
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
        assert_eq!(p.visits(FaultSite::ProxyRpc), 5);
        assert_eq!(p.injected(FaultSite::ProxyRpc), 2);
        // Other sites are untouched.
        assert_eq!(p.visits(FaultSite::NicRx), 0);
    }

    #[test]
    fn armed_site_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = FaultPlane::new();
            p.set_rng(Rng::new(seed));
            p.arm(FaultSite::NicRx, 0.3);
            (0..64)
                .map(|_| p.should_inject(FaultSite::NicRx))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let mut p = FaultPlane::new();
        p.set_rng(Rng::new(9));
        p.arm(FaultSite::NicRx, 0.3);
        for _ in 0..64 {
            p.should_inject(FaultSite::NicRx);
        }
        assert!(p.injected(FaultSite::NicRx) > 0);
        assert!(p.injected(FaultSite::NicRx) < 64);
    }

    #[test]
    fn snapshot_is_deterministic_and_logs_injections_in_order() {
        let build = || {
            let mut p = FaultPlane::new();
            p.script(FaultSite::MigrationCapsule, &[0]);
            p.script(FaultSite::FilterTable, &[2]);
            for _ in 0..3 {
                p.should_inject(FaultSite::FilterTable);
            }
            p.should_inject(FaultSite::MigrationCapsule);
            p
        };
        let a = build().snapshot();
        let b = build().snapshot();
        assert_eq!(a, b);
        assert!(a.contains("filter_table"));
        assert!(a.contains("inject migration_capsule"));
        // Log order is occurrence order: filter_table fired first.
        let fi = a.find("inject filter_table").unwrap();
        let mi = a.find("inject migration_capsule").unwrap();
        assert!(fi < mi);
    }

    #[test]
    fn reset_clears_counts_but_keeps_schedule() {
        let mut p = FaultPlane::new();
        p.script(FaultSite::ShmRing, &[0]);
        assert!(p.should_inject(FaultSite::ShmRing));
        p.reset();
        assert_eq!(p.visits(FaultSite::ShmRing), 0);
        assert!(p.snapshot().is_empty());
        // After reset, visit numbering restarts and the script fires again.
        assert!(p.should_inject(FaultSite::ShmRing));
    }
}
