//! The installed-filter table and receive-path demultiplexing.
//!
//! Two observationally equivalent strategies are provided:
//!
//! - [`DemuxStrategy::Cspf`]: run every installed program in
//!   specificity-then-install order until one accepts — the original
//!   1987 packet filter design. The *charged* cost grows with the
//!   number of sessions; the host's is O(log n) (see [`DemuxTable`]).
//! - [`DemuxStrategy::Mpf`]: run the shared session prefix once, then
//!   dispatch on the endpoint key with an associative lookup — the
//!   Yuhara et al. design used by the paper's system ("Masanobu Yuhara
//!   assisted with the integration of the packet filter"). Cost is
//!   independent of the number of sessions.
//!
//! `classify` reports the instruction count actually executed so the
//! kernel can charge filter time to the `netisr/packet filter` row of
//! Table 4.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::compile::{
    compile_endpoint, EndpointSpec, KeyWords, KEY_FIELDS, PREFIX_FIELDS, PREFIX_STEPS,
    WILDCARD_FIELDS,
};
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

/// The endpoint index's key: [`EndpointSpec::key`].
type MpfKey = (KeyWords, usize);

/// The filters of one scan class under one key-word prefix. A lone
/// holder stays inline with its key words: the trie costs one map entry
/// per filter, not one per depth.
enum Shared {
    One(u64, KeyWords),
    Many(Box<ScanLevel>),
}

/// The filters agreeing on the key words above this level, in scan
/// order (ids are monotone: install appends, and "scanned before the
/// owner" is a `partition_point`), and their split on the next word.
/// Only duplicate wildcards ever split on their zero remote words.
#[derive(Default)]
struct ScanLevel {
    ids: Vec<u64>,
    next: BTreeMap<u16, Shared>,
}

impl ScanLevel {
    fn insert(&mut self, id: u64, words: &KeyWords, at: usize) {
        self.ids.push(id);
        let Some(&word) = words.get(at) else { return };
        match self.next.get_mut(&word) {
            None => drop(self.next.insert(word, Shared::One(id, *words))),
            Some(node) => {
                if let Shared::One(other, theirs) = *node {
                    let mut level = Box::<ScanLevel>::default();
                    level.insert(other, &theirs, at + 1);
                    *node = Shared::Many(level);
                }
                if let Shared::Many(level) = node {
                    level.insert(id, words, at + 1);
                }
            }
        }
    }

    fn remove(&mut self, id: u64, words: &KeyWords, at: usize) {
        if let Ok(nth) = self.ids.binary_search(&id) {
            self.ids.remove(nth);
        }
        let Some(word) = words.get(at) else { return };
        if let Some(Shared::Many(level)) = self.next.get_mut(word) {
            level.remove(id, words, at + 1);
            if !level.ids.is_empty() {
                return;
            }
        }
        self.next.remove(word);
    }

    /// Steps charged by this class's filters scanned before `stop`, all
    /// of which miss a frame holding `words`: each pays the shared
    /// prefix, then one compare group per key field through the first
    /// it disagrees on.
    fn miss_steps(&self, words: &[u16], stop: u64) -> usize {
        let before = |level: &ScanLevel| level.ids.partition_point(|&id| id < stop);
        let mut steps = PREFIX_STEPS * before(self);
        let mut level = self;
        for (at, field) in KEY_FIELDS[..words.len()].iter().enumerate() {
            steps += field.steps() * before(level);
            match level.next.get(&words[at]) {
                Some(Shared::Many(deeper)) => level = deeper,
                Some(Shared::One(id, theirs)) if *id < stop => {
                    let rest = at + 1..words.len();
                    let agree = rest.clone().take_while(|&i| theirs[i] == words[i]).count();
                    let reached = KEY_FIELDS[rest].iter().take(agree + 1);
                    return steps + reached.map(|f| f.steps()).sum::<usize>();
                }
                _ => break,
            }
        }
        steps
    }
}

/// The table of installed per-session filters.
///
/// Maintenance is incremental — install and remove are O(log n), plus
/// a shift of a few id lists on remove — and the endpoint index maps
/// each key to the ids sharing it, earliest install first: the filter
/// a specificity-then-install-ordered scan would reach.
///
/// **CSPF is charged, not executed.** `install` takes only an
/// [`EndpointSpec`], so every program is the canonical recognizer: when
/// every field read is in bounds, a filter that misses after agreeing
/// with the frame on `m` leading key fields executes exactly 18 + 3·m
/// instructions. The scan visits connected filters by id, then
/// wildcards by id, and stops at the owner, so `classify` takes the
/// owner from the endpoint index and sums the steps from per-class
/// tries of id lists: O(log n) on the host for a charge that stays
/// O(n) by design. Shorter frames, whose step counts depend on where
/// each program runs out of bytes, walk the same lists through
/// [`CompiledFilter::run`] — a charged number is never approximated.
/// The tries exist only under CSPF, at roughly 100 bytes a filter.
pub struct DemuxTable<T> {
    strategy: DemuxStrategy,
    /// Slab of installed filters; `None` entries are free slots.
    slots: Vec<Option<Installed<T>>>,
    /// Free-list of vacated slot indices, reused LIFO.
    free: Vec<usize>,
    /// Control-path index: filter id → slot.
    by_id: HashMap<u64, usize>,
    /// CSPF scan classes in evaluation order — connected, then
    /// wildcard — each by ascending id. Empty under MPF.
    scan: [ScanLevel; 2],
    mpf_index: HashMap<MpfKey, BTreeSet<u64>>,
    next_id: u64,
}

impl<T: Clone> DemuxTable<T> {
    /// Creates an empty table with the given strategy.
    pub fn new(strategy: DemuxStrategy) -> DemuxTable<T> {
        DemuxTable {
            strategy,
            slots: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            scan: Default::default(),
            mpf_index: HashMap::new(),
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
        let key = spec.key();
        if self.strategy == DemuxStrategy::Cspf {
            self.scan[usize::from(spec.remote.is_none())].insert(id.0, &key.0, 0);
        }
        self.mpf_index.entry(key).or_default().insert(id.0);
        id
    }

    /// Removes an installed filter. Returns true if it existed.
    pub fn remove(&mut self, id: FilterId) -> bool {
        let Some(slot) = self.by_id.remove(&id.0) else {
            return false;
        };
        let f = self.slots[slot].take().expect("by_id points at live slot");
        self.free.push(slot);
        let key = f.spec.key();
        if self.strategy == DemuxStrategy::Cspf {
            self.scan[usize::from(f.spec.remote.is_none())].remove(id.0, &key.0, 0);
        }
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

    fn result(owner: Option<&Installed<T>>, steps: usize) -> DemuxResult<T> {
        let owner = owner.map(|f| (f.id, f.owner.clone()));
        DemuxResult { owner, steps }
    }

    fn classify_cspf(&self, frame: &[u8]) -> DemuxResult<T> {
        self.cspf_closed_form(frame).unwrap_or_else(|| {
            let mut steps = 0;
            let ids = self.scan.iter().flat_map(|class| &class.ids);
            let mut scanned = ids.map(|&id| self.get(id).expect("scan list names a live filter"));
            let owner = scanned.find(|f| {
                let out = f.compiled.run(frame);
                steps += out.steps;
                out.accepted
            });
            Self::result(owner, steps)
        })
    }

    /// The scan's outcome without running it; `None` when some field
    /// read is out of bounds (see the type docs).
    fn cspf_closed_form(&self, frame: &[u8]) -> Option<DemuxResult<T>> {
        let mut words: KeyWords = Default::default();
        for (word, field) in words.iter_mut().zip(KEY_FIELDS) {
            *word = field.read(frame)?;
        }
        let mut prefix = 0;
        for (field, value) in PREFIX_FIELDS {
            prefix += field.steps();
            if field.read(frame)? != value {
                // Every filter stops at the same shared-prefix group.
                return Some(Self::result(None, prefix * self.len()));
            }
        }
        let stop = |owner: Option<&Installed<T>>| owner.map_or(u64::MAX, |f| f.id.0);
        let mut owner = self.mpf_lookup(&(words, words.len()));
        let mut steps = self.scan[0].miss_steps(&words, stop(owner));
        if owner.is_none() {
            words[WILDCARD_FIELDS..].fill(0);
            owner = self.mpf_lookup(&(words, WILDCARD_FIELDS));
            steps += self.scan[1].miss_steps(&words[..WILDCARD_FIELDS], stop(owner));
        }
        steps += owner.map_or(0, |f| f.spec.accept_steps());
        Some(Self::result(owner, steps))
    }

    fn classify_mpf(&self, frame: &[u8]) -> DemuxResult<T> {
        // The shared prefix runs once; model its cost as its instruction
        // count, plus two associative probes (connected, then wildcard),
        // each priced as one instruction.
        let mut steps = PREFIX_STEPS;
        let Some(exact) = mpf_extract_key(frame) else {
            return Self::result(None, steps);
        };
        let wildcard = EndpointSpec {
            remote: None,
            ..exact
        };
        for spec in [exact, wildcard] {
            steps += 1;
            let hit = self.mpf_lookup(&spec.key());
            if let Some(f) = hit.filter(|f| self.mpf_confirm(f, frame)) {
                return Self::result(Some(f), steps);
            }
        }
        Self::result(None, steps)
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

/// The connected endpoint an unfragmented, optionless IPv4 TCP or UDP
/// frame is addressed to and from; `None` sends the packet to the
/// operating system.
fn mpf_extract_key(frame: &[u8]) -> Option<EndpointSpec> {
    let eth = EthernetHeader::parse(frame).ok()?;
    if eth.ethertype != psd_wire::EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Header::parse(&frame[ETHER_HDR_LEN..]).ok()?;
    let tp = &frame[ETHER_HDR_LEN + 20..];
    let session = matches!(ip.proto, IpProto::Tcp | IpProto::Udp);
    if ip.header_len != 20 || ip.is_fragment() || !session || tp.len() < 4 {
        return None;
    }
    let src_port = u16::from_be_bytes([tp[0], tp[1]]);
    let dst_port = u16::from_be_bytes([tp[2], tp[3]]);
    Some(EndpointSpec::connected(
        ip.proto, ip.dst, dst_port, ip.src, src_port,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_wire::{EtherAddr, EtherType, UdpHeader, UDP_HDR_LEN};
    use std::net::Ipv4Addr;

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
    fn scan_index_exists_only_under_cspf_and_empties_with_the_table() {
        // Shared prefixes at every depth, and exact duplicates of both
        // shapes, so removal walks lone leaves, split levels and levels
        // that empty out from under their parent.
        let mut specs = vec![
            EndpointSpec::unconnected(IpProto::Udp, B, 7000),
            EndpointSpec::unconnected(IpProto::Tcp, B, 7000),
            EndpointSpec::unconnected(IpProto::Udp, A, 7000),
        ];
        for port in 1..6 {
            specs.push(EndpointSpec::connected(IpProto::Udp, B, 7000, A, port));
            specs.push(EndpointSpec::connected(
                IpProto::Udp,
                B,
                7000,
                Ipv4Addr::new(10, 9, 0, 1),
                port,
            ));
        }
        specs.extend([specs[0], specs[5], specs[5]]);
        for mut t in both_strategies() {
            let ids: Vec<FilterId> = specs.iter().map(|s| t.install(*s, "app")).collect();
            let indexed: usize = t.scan.iter().map(|class| class.ids.len()).sum();
            match t.strategy() {
                DemuxStrategy::Cspf => assert_eq!(indexed, specs.len()),
                DemuxStrategy::Mpf => assert_eq!(indexed, 0),
            }
            // Odd positions first, then the rest in reverse.
            let (odd, even): (Vec<_>, Vec<_>) =
                ids.iter().enumerate().partition(|(i, _)| i % 2 == 1);
            for (_, id) in odd.into_iter().chain(even.into_iter().rev()) {
                assert!(t.remove(*id));
            }
            for class in &t.scan {
                assert!(class.ids.is_empty() && class.next.is_empty());
            }
            assert!(t.mpf_index.is_empty());
        }
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
