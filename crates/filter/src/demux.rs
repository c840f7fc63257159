//! The installed-filter table and receive-path demultiplexing.
//!
//! Two observationally equivalent strategies are provided:
//!
//! - [`DemuxStrategy::Cspf`]: run every installed program in
//!   specificity-then-install order until one accepts — the original
//!   1987 packet filter design. Cost grows with the number of sessions.
//! - [`DemuxStrategy::Mpf`]: run the shared session prefix once, then
//!   dispatch on the endpoint key with an associative lookup — the
//!   Yuhara et al. design used by the paper's system ("Masanobu Yuhara
//!   assisted with the integration of the packet filter"). Cost is
//!   independent of the number of sessions.
//!
//! `classify` reports the instruction count actually executed so the
//! kernel can charge filter time to the `netisr/packet filter` row of
//! Table 4.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use crate::compile::{compile_endpoint, session_prefix, EndpointSpec};
use crate::compiled::CompiledFilter;
use crate::placement::CopyPlacement;
use psd_wire::{EthernetHeader, IpProto, Ipv4Header, ETHER_HDR_LEN};

/// Identifier for an installed filter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FilterId(pub u64);

/// How the table demultiplexes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DemuxStrategy {
    /// Linear scan over per-session programs.
    Cspf,
    /// Shared-prefix + associative endpoint dispatch.
    Mpf,
}

/// The result of classifying one packet.
#[derive(Clone, Debug)]
pub struct DemuxResult<T> {
    /// The matching filter and its owner, or `None` for unclaimed
    /// packets (which the kernel hands to the operating system).
    pub owner: Option<(FilterId, T)>,
    /// Filter instructions executed, for cost accounting.
    pub steps: usize,
}

struct Installed<T> {
    id: FilterId,
    spec: EndpointSpec,
    /// Selective-copy verdict for this flow (ISSUE 9): where received
    /// bodies land. Defaults to eager; set at install time by whatever
    /// placement policy the kernel has in force.
    placement: CopyPlacement,
    /// The program lowered at install time. Every installed filter
    /// owns its own artifact — artifacts are keyed by filter id, never
    /// by program value, so two structurally equal programs installed
    /// for different sessions compile, live, and tear down
    /// independently.
    compiled: CompiledFilter,
    owner: T,
}

type MpfKey = (u8, Ipv4Addr, u16, Option<(Ipv4Addr, u16)>);

/// The table of installed per-session filters.
///
/// All maintenance is incremental: install and remove are O(log n),
/// CSPF evaluation order is kept in a sorted map rather than
/// re-sorting a vector, and the MPF endpoint index maps each key to
/// the set of filter ids sharing it (the earliest install wins,
/// exactly as a specificity-then-install-ordered scan would pick it).
///
/// Filters live in a slab: the CSPF scan — the hot path that runs
/// once per installed filter per received packet — resolves each
/// order entry with a dense vector index instead of a hashed lookup,
/// so per-filter scan overhead is a pointer chase, not a SipHash.
/// The id→slot map is consulted only on the control path
/// (install/remove/spec/owner) and by the O(1) MPF dispatch.
pub struct DemuxTable<T> {
    strategy: DemuxStrategy,
    /// Slab of installed filters; `None` entries are free slots.
    slots: Vec<Option<Installed<T>>>,
    /// Free-list of vacated slot indices, reused LIFO.
    free: Vec<usize>,
    /// Control-path index: filter id → slot.
    by_id: HashMap<u64, usize>,
    /// CSPF evaluation order: (specificity descending, id ascending)
    /// → slot.
    order: BTreeMap<(Reverse<u8>, u64), usize>,
    mpf_index: HashMap<MpfKey, BTreeSet<u64>>,
    prefix_len: usize,
    next_id: u64,
}

fn mpf_key(spec: &EndpointSpec) -> MpfKey {
    (
        spec.proto.to_u8(),
        spec.local_ip,
        spec.local_port,
        spec.remote,
    )
}

impl<T: Clone> DemuxTable<T> {
    /// Creates an empty table with the given strategy.
    pub fn new(strategy: DemuxStrategy) -> DemuxTable<T> {
        DemuxTable {
            strategy,
            slots: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            order: BTreeMap::new(),
            mpf_index: HashMap::new(),
            prefix_len: session_prefix().len(),
            next_id: 1,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> DemuxStrategy {
        self.strategy
    }

    /// Number of installed filters whose artifact took the fast-path
    /// recognizer lowering (vs. the direct-threaded fallback).
    pub fn fast_path_artifacts(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|f| f.compiled.is_fast_path())
            .count()
    }

    /// Number of installed filters.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True if no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Installs a filter for `spec` owned by `owner`. Returns its id.
    pub fn install(&mut self, spec: EndpointSpec, owner: T) -> FilterId {
        let id = FilterId(self.next_id);
        self.next_id += 1;
        // Lowered per install, never shared between ids: program
        // equality must not be load-bearing for artifact lifetime.
        let compiled = CompiledFilter::compile(&compile_endpoint(&spec));
        let installed = Installed {
            id,
            spec,
            placement: CopyPlacement::Eager,
            compiled,
            owner,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(installed);
                slot
            }
            None => {
                self.slots.push(Some(installed));
                self.slots.len() - 1
            }
        };
        self.by_id.insert(id.0, slot);
        self.order.insert((Reverse(spec.specificity()), id.0), slot);
        self.mpf_index
            .entry(mpf_key(&spec))
            .or_default()
            .insert(id.0);
        id
    }

    /// Removes an installed filter. Returns true if it existed.
    pub fn remove(&mut self, id: FilterId) -> bool {
        let Some(slot) = self.by_id.remove(&id.0) else {
            return false;
        };
        let f = self.slots[slot].take().expect("by_id points at live slot");
        self.free.push(slot);
        self.order.remove(&(Reverse(f.spec.specificity()), id.0));
        let key = mpf_key(&f.spec);
        if let Some(ids) = self.mpf_index.get_mut(&key) {
            ids.remove(&id.0);
            if ids.is_empty() {
                self.mpf_index.remove(&key);
            }
        }
        true
    }

    fn get(&self, id: u64) -> Option<&Installed<T>> {
        let slot = *self.by_id.get(&id)?;
        self.slots[slot].as_ref()
    }

    /// Looks up the spec of an installed filter.
    pub fn spec(&self, id: FilterId) -> Option<EndpointSpec> {
        self.get(id.0).map(|f| f.spec)
    }

    /// Looks up the owner of an installed filter.
    pub fn owner(&self, id: FilterId) -> Option<&T> {
        self.get(id.0).map(|f| &f.owner)
    }

    /// Sets the selective-copy placement for an installed filter.
    /// Returns false if the filter does not exist.
    pub fn set_placement(&mut self, id: FilterId, placement: CopyPlacement) -> bool {
        let Some(&slot) = self.by_id.get(&id.0) else {
            return false;
        };
        match self.slots[slot].as_mut() {
            Some(f) => {
                f.placement = placement;
                true
            }
            None => false,
        }
    }

    /// The selective-copy placement of an installed filter (eager for
    /// unknown ids, so callers on the unclaimed path need no special
    /// case).
    pub fn placement(&self, id: FilterId) -> CopyPlacement {
        self.get(id.0).map_or(CopyPlacement::Eager, |f| f.placement)
    }

    /// Classifies a received frame.
    pub fn classify(&self, frame: &[u8]) -> DemuxResult<T> {
        match self.strategy {
            DemuxStrategy::Cspf => self.classify_cspf(frame),
            DemuxStrategy::Mpf => self.classify_mpf(frame),
        }
    }

    fn classify_cspf(&self, frame: &[u8]) -> DemuxResult<T> {
        let mut steps = 0;
        for &slot in self.order.values() {
            let f = self.slots[slot]
                .as_ref()
                .expect("order points at live slot");
            let out = f.compiled.run(frame);
            steps += out.steps;
            if out.accepted {
                return DemuxResult {
                    owner: Some((f.id, f.owner.clone())),
                    steps,
                };
            }
        }
        DemuxResult { owner: None, steps }
    }

    fn classify_mpf(&self, frame: &[u8]) -> DemuxResult<T> {
        // The shared prefix runs once; model its cost as its instruction
        // count, plus two associative probes (connected, then wildcard),
        // each priced as one instruction.
        let mut steps = self.prefix_len;
        let key = match mpf_extract_key(frame) {
            Some(k) => k,
            None => return DemuxResult { owner: None, steps },
        };
        let (proto, dst_ip, dst_port, src_ip, src_port) = key;
        steps += 1;
        let exact: MpfKey = (proto, dst_ip, dst_port, Some((src_ip, src_port)));
        if let Some(f) = self.mpf_lookup(&exact) {
            if self.mpf_confirm(f, frame) {
                return DemuxResult {
                    owner: Some((f.id, f.owner.clone())),
                    steps,
                };
            }
        }
        steps += 1;
        let wild: MpfKey = (proto, dst_ip, dst_port, None);
        if let Some(f) = self.mpf_lookup(&wild) {
            if self.mpf_confirm(f, frame) {
                return DemuxResult {
                    owner: Some((f.id, f.owner.clone())),
                    steps,
                };
            }
        }
        DemuxResult { owner: None, steps }
    }

    /// The MPF dispatch runs the winning filter's compiled program as
    /// the final match confirmation — the per-session residual of the
    /// MPF design, and the sync check that keeps the associative index
    /// honest against the program table. Key extraction is strictly
    /// stricter than any session program whose key it produced (it
    /// additionally validates the IP header checksum and total length),
    /// so for an in-sync table the confirm always accepts; the step
    /// accounting is the MPF cost model's, not the confirm run's.
    fn mpf_confirm(&self, f: &Installed<T>, frame: &[u8]) -> bool {
        f.compiled.run(frame).accepted
    }

    /// Resolves an MPF key to its winning filter. Filters sharing a key
    /// necessarily share a specificity, so the earliest install (lowest
    /// id) is the one a specificity-then-install scan would reach first.
    fn mpf_lookup(&self, key: &MpfKey) -> Option<&Installed<T>> {
        let ids = self.mpf_index.get(key)?;
        self.get(*ids.first()?)
    }
}

/// Extracts `(proto, dst_ip, dst_port, src_ip, src_port)` from an
/// unfragmented, optionless IPv4 frame; `None` sends the packet to the
/// operating system.
fn mpf_extract_key(frame: &[u8]) -> Option<(u8, Ipv4Addr, u16, Ipv4Addr, u16)> {
    let eth = EthernetHeader::parse(frame).ok()?;
    if eth.ethertype != psd_wire::EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]).ok()?;
    if ip.header_len != 20 || ip.is_fragment() {
        return None;
    }
    let proto = match ip.proto {
        IpProto::Tcp | IpProto::Udp => ip.proto.to_u8(),
        _ => return None,
    };
    let tp = &frame[ETHER_HDR_LEN + 20..];
    if tp.len() < 4 {
        return None;
    }
    let src_port = u16::from_be_bytes([tp[0], tp[1]]);
    let dst_port = u16::from_be_bytes([tp[2], tp[3]]);
    Some((proto, ip.dst, dst_port, ip.src, src_port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_wire::{EtherAddr, EtherType, UdpHeader, UDP_HDR_LEN};

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn udp_frame(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Vec<u8> {
        let ip = Ipv4Header::new(src.0, dst.0, IpProto::Udp, UDP_HDR_LEN + 4);
        let udp = UdpHeader::new(src.1, dst.1, 4);
        let eth = EthernetHeader {
            dst: EtherAddr::local(2),
            src: EtherAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut f = eth.encode().to_vec();
        f.extend_from_slice(&ip.encode());
        f.extend_from_slice(&udp.encode());
        f.extend_from_slice(&[0u8; 4]);
        f
    }

    fn both_strategies() -> [DemuxTable<&'static str>; 2] {
        [
            DemuxTable::new(DemuxStrategy::Cspf),
            DemuxTable::new(DemuxStrategy::Mpf),
        ]
    }

    #[test]
    fn empty_table_claims_nothing() {
        for t in both_strategies() {
            let r = t.classify(&udp_frame((A, 1), (B, 2)));
            assert!(r.owner.is_none());
        }
    }

    #[test]
    fn wildcard_claims_matching_packet() {
        for mut t in both_strategies() {
            let id = t.install(EndpointSpec::unconnected(IpProto::Udp, B, 7000), "app");
            let r = t.classify(&udp_frame((A, 5), (B, 7000)));
            let (fid, owner) = r.owner.expect("should match");
            assert_eq!(fid, id);
            assert_eq!(owner, "app");
            assert!(r.steps > 0);
        }
    }

    #[test]
    fn connected_beats_wildcard() {
        for mut t in both_strategies() {
            t.install(EndpointSpec::unconnected(IpProto::Udp, B, 7000), "wild");
            t.install(EndpointSpec::connected(IpProto::Udp, B, 7000, A, 5), "conn");
            let r = t.classify(&udp_frame((A, 5), (B, 7000)));
            assert_eq!(r.owner.unwrap().1, "conn");
            // A different sender falls back to the wildcard.
            let r2 = t.classify(&udp_frame((A, 6), (B, 7000)));
            assert_eq!(r2.owner.unwrap().1, "wild");
        }
    }

    #[test]
    fn removal_uninstalls() {
        for mut t in both_strategies() {
            let id = t.install(EndpointSpec::unconnected(IpProto::Udp, B, 7000), "app");
            assert!(t.remove(id));
            assert!(!t.remove(id));
            assert!(t.classify(&udp_frame((A, 5), (B, 7000))).owner.is_none());
            assert!(t.is_empty());
        }
    }

    #[test]
    fn mpf_cost_is_independent_of_session_count() {
        let mut cspf: DemuxTable<u32> = DemuxTable::new(DemuxStrategy::Cspf);
        let mut mpf: DemuxTable<u32> = DemuxTable::new(DemuxStrategy::Mpf);
        for port in 0..50u16 {
            cspf.install(EndpointSpec::unconnected(IpProto::Udp, B, 8000 + port), 0);
            mpf.install(EndpointSpec::unconnected(IpProto::Udp, B, 8000 + port), 0);
        }
        // Target is the last-installed port: CSPF scans everything.
        let frame = udp_frame((A, 5), (B, 8049));
        let c = cspf.classify(&frame);
        let m = mpf.classify(&frame);
        assert_eq!(c.owner.is_some(), m.owner.is_some());
        assert!(
            c.steps > 10 * m.steps,
            "CSPF {} vs MPF {} steps",
            c.steps,
            m.steps
        );
    }

    #[test]
    fn strategies_agree_on_claiming() {
        let specs = [
            EndpointSpec::unconnected(IpProto::Udp, B, 1000),
            EndpointSpec::connected(IpProto::Udp, B, 1000, A, 2000),
            EndpointSpec::unconnected(IpProto::Tcp, B, 1000),
            EndpointSpec::connected(IpProto::Tcp, A, 99, B, 100),
        ];
        let mut cspf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
        let mut mpf: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Mpf);
        for (i, s) in specs.iter().enumerate() {
            cspf.install(*s, i);
            mpf.install(*s, i);
        }
        let frames = [
            udp_frame((A, 2000), (B, 1000)),
            udp_frame((A, 3), (B, 1000)),
            udp_frame((A, 2000), (B, 2000)),
            udp_frame((B, 100), (A, 99)),
        ];
        for (i, f) in frames.iter().enumerate() {
            let c = cspf.classify(f);
            let m = mpf.classify(f);
            assert_eq!(
                c.owner.as_ref().map(|o| o.1),
                m.owner.as_ref().map(|o| o.1),
                "frame {i}"
            );
        }
    }

    #[test]
    fn non_ip_frames_unclaimed() {
        for mut t in both_strategies() {
            t.install(EndpointSpec::unconnected(IpProto::Udp, B, 7000), "app");
            let eth = EthernetHeader {
                dst: EtherAddr::BROADCAST,
                src: EtherAddr::local(1),
                ethertype: EtherType::Arp,
            };
            let mut f = eth.encode().to_vec();
            f.extend_from_slice(&[0u8; 28]);
            assert!(t.classify(&f).owner.is_none());
        }
    }

    #[test]
    fn spec_lookup() {
        let mut t: DemuxTable<()> = DemuxTable::new(DemuxStrategy::Mpf);
        let spec = EndpointSpec::unconnected(IpProto::Udp, B, 7000);
        let id = t.install(spec, ());
        assert_eq!(t.spec(id), Some(spec));
        assert_eq!(t.spec(FilterId(999)), None);
    }

    #[test]
    fn session_filter_artifacts_take_the_fast_path() {
        let mut t: DemuxTable<u32> = DemuxTable::new(DemuxStrategy::Cspf);
        t.install(EndpointSpec::unconnected(IpProto::Udp, B, 7000), 0);
        t.install(EndpointSpec::connected(IpProto::Tcp, B, 80, A, 5000), 1);
        assert_eq!(t.fast_path_artifacts(), 2);
    }

    #[test]
    fn equal_programs_get_independent_compiled_state() {
        // Two installs of the *same* spec produce structurally equal
        // programs. Their compiled artifacts must be keyed by filter
        // id, not program value: removing one session's filter must
        // not tear down — or leak — the other's artifact, across
        // repeated remove/re-insert churn.
        let spec = EndpointSpec::unconnected(IpProto::Udp, B, 7000);
        let mut t: DemuxTable<&str> = DemuxTable::new(DemuxStrategy::Cspf);
        let first = t.install(spec, "session-a");
        let mut second = t.install(spec, "session-b");
        assert_eq!(t.fast_path_artifacts(), 2);
        let frame = udp_frame((A, 5), (B, 7000));
        for _ in 0..16 {
            // Churn the *second* session; the first must keep winning
            // (earliest install) through every generation.
            assert!(t.remove(second));
            assert_eq!(t.fast_path_artifacts(), 1, "artifact leaked or lost");
            let r = t.classify(&frame);
            assert_eq!(r.owner.as_ref().map(|o| o.1), Some("session-a"));
            second = t.install(spec, "session-b");
            assert_eq!(t.fast_path_artifacts(), 2);
        }
        // Now drop the first: the survivor's artifact must still match.
        assert!(t.remove(first));
        assert_eq!(t.fast_path_artifacts(), 1);
        let r = t.classify(&frame);
        assert_eq!(r.owner.map(|o| o.1), Some("session-b"));
        assert!(t.remove(second));
        assert_eq!(t.fast_path_artifacts(), 0);
    }
}
