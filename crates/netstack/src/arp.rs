//! The ARP cache.
//!
//! Like routes, ARP mappings are shared metastate (§3.3): the server's
//! cache is authoritative (it answers ARP queries from the wire and
//! issues requests); library stacks hold cached entries obtained from
//! the server at session-migration time or via a resolver upcall, and
//! the server invalidates them through callbacks as entries expire or
//! change.
//!
//! Packets addressed to an unresolved next hop queue on the cache (one
//! small queue per address, as in BSD `arpresolve`) and drain when the
//! reply arrives.

use psd_sim::SimTime;
use psd_wire::EtherAddr;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Default entry lifetime (BSD used 20 minutes).
pub(crate) const ARP_TTL: SimTime = SimTime::from_secs(20 * 60);

/// Maximum packets queued awaiting resolution of one address.
pub(crate) const ARP_MAXQUEUE: usize = 8;

/// Minimum spacing between ARP requests for one address (BSD re-sends
/// at most once per second while packets wait).
pub(crate) const ARP_RETRY: SimTime = SimTime::from_secs(1);

#[derive(Debug)]
struct Entry {
    mac: EtherAddr,
    expires: SimTime,
}

/// The cache.
#[derive(Debug, Default)]
pub struct ArpCache {
    entries: HashMap<Ipv4Addr, Entry>,
    pending: HashMap<Ipv4Addr, Vec<Vec<u8>>>,
    last_request: HashMap<Ipv4Addr, SimTime>,
}

impl ArpCache {
    /// An empty cache.
    pub(crate) fn new() -> ArpCache {
        ArpCache::default()
    }

    /// Looks up a live entry.
    pub fn lookup(&self, ip: Ipv4Addr, now: SimTime) -> Option<EtherAddr> {
        self.entries
            .get(&ip)
            .filter(|e| e.expires > now)
            .map(|e| e.mac)
    }

    /// Inserts or refreshes an entry, returning any packets that were
    /// waiting for it.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: EtherAddr, now: SimTime) -> Vec<Vec<u8>> {
        self.entries.insert(
            ip,
            Entry {
                mac,
                expires: now + ARP_TTL,
            },
        );
        self.pending.remove(&ip).unwrap_or_default()
    }

    /// Removes an entry (expiry or administrative change). Returns true
    /// if it existed.
    pub fn invalidate(&mut self, ip: Ipv4Addr) -> bool {
        self.entries.remove(&ip).is_some()
    }

    /// Queues a packet awaiting resolution of `ip`. The queue is
    /// bounded; overflow evicts the oldest packet, as BSD does, and
    /// returns it so the caller can count the drop.
    pub(crate) fn enqueue_pending(&mut self, ip: Ipv4Addr, frame: Vec<u8>) -> Option<Vec<u8>> {
        let q = self.pending.entry(ip).or_default();
        let evicted = (q.len() >= ARP_MAXQUEUE).then(|| q.remove(0));
        q.push(frame);
        evicted
    }

    /// True if an ARP request should go out for `ip` now — either no
    /// request was ever sent, or the last one is at least [`ARP_RETRY`]
    /// old (so lost requests are retried whenever queued traffic
    /// prompts resolution again). Records the request time.
    pub(crate) fn request_due(&mut self, ip: Ipv4Addr, now: SimTime) -> bool {
        let due = self
            .last_request
            .get(&ip)
            .is_none_or(|last| now >= *last + ARP_RETRY);
        if due {
            self.last_request.insert(ip, now);
        }
        due
    }

    /// Live entries, for snapshotting into an application cache at
    /// session-migration time.
    pub fn snapshot(&self, now: SimTime) -> Vec<(Ipv4Addr, EtherAddr)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.expires > now)
            .map(|(ip, e)| (*ip, e.mac))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = ArpCache::new();
        let now = SimTime::ZERO;
        c.insert(ip("10.0.0.2"), EtherAddr::local(2), now);
        assert_eq!(c.lookup(ip("10.0.0.2"), now), Some(EtherAddr::local(2)));
        assert_eq!(c.lookup(ip("10.0.0.3"), now), None);
    }

    #[test]
    fn entries_expire() {
        let mut c = ArpCache::new();
        c.insert(ip("10.0.0.2"), EtherAddr::local(2), SimTime::ZERO);
        assert!(c
            .lookup(ip("10.0.0.2"), ARP_TTL - SimTime::from_secs(1))
            .is_some());
        assert!(c.lookup(ip("10.0.0.2"), ARP_TTL).is_none());
    }

    #[test]
    fn pending_queue_drains_on_insert() {
        let mut c = ArpCache::new();
        assert_eq!(c.enqueue_pending(ip("10.0.0.2"), vec![1]), None);
        assert_eq!(c.enqueue_pending(ip("10.0.0.2"), vec![2]), None);
        let drained = c.insert(ip("10.0.0.2"), EtherAddr::local(2), SimTime::ZERO);
        assert_eq!(drained, vec![vec![1], vec![2]]);
        let again = c.insert(ip("10.0.0.2"), EtherAddr::local(2), SimTime::ZERO);
        assert!(again.is_empty());
    }

    #[test]
    fn pending_queue_bounded() {
        let mut c = ArpCache::new();
        let mut evicted = Vec::new();
        for i in 0..20u8 {
            evicted.extend(c.enqueue_pending(ip("10.0.0.2"), vec![i]));
        }
        // The oldest are handed back, in order; the newest survive.
        let oldest: Vec<Vec<u8>> = (0..20 - ARP_MAXQUEUE as u8).map(|i| vec![i]).collect();
        assert_eq!(evicted, oldest);
        let drained = c.insert(ip("10.0.0.2"), EtherAddr::local(2), SimTime::ZERO);
        assert_eq!(drained.last(), Some(&vec![19u8]));
        assert_eq!(drained.len(), ARP_MAXQUEUE);
    }

    #[test]
    fn invalidate_forgets_the_entry() {
        let mut c = ArpCache::new();
        c.insert(ip("10.0.0.2"), EtherAddr::local(2), SimTime::ZERO);
        assert!(c.invalidate(ip("10.0.0.2")));
        assert!(!c.invalidate(ip("10.0.0.2")));
        assert!(c.lookup(ip("10.0.0.2"), SimTime::ZERO).is_none());
    }

    #[test]
    fn request_pacing_allows_retries() {
        let mut c = ArpCache::new();
        let t0 = SimTime::from_millis(5);
        assert!(c.request_due(ip("10.0.0.2"), t0), "first request goes out");
        assert!(
            !c.request_due(ip("10.0.0.2"), t0 + SimTime::from_millis(500)),
            "paced within the retry window"
        );
        assert!(
            c.request_due(ip("10.0.0.2"), t0 + ARP_RETRY),
            "a lost request is retried after the window"
        );
        // Other addresses are independent.
        assert!(c.request_due(ip("10.0.0.3"), t0));
    }

    #[test]
    fn snapshot_excludes_expired() {
        let mut c = ArpCache::new();
        c.insert(ip("10.0.0.2"), EtherAddr::local(2), SimTime::ZERO);
        c.insert(
            ip("10.0.0.3"),
            EtherAddr::local(3),
            SimTime::from_secs(1200),
        );
        let snap = c.snapshot(ARP_TTL + SimTime::from_secs(1));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, ip("10.0.0.3"));
    }
}
