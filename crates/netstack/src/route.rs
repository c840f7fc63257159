//! The routing table.
//!
//! Routes are "long-term state that is used by all sessions, but owned
//! by none" (§3.3): the operating system server owns the authoritative
//! table, and application libraries hold cached copies that the server
//! invalidates by bumping a version. The table itself is a simple
//! longest-prefix-match structure; 1993-era hosts had a handful of
//! routes.

use std::net::Ipv4Addr;

/// One route entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route {
    /// Destination network.
    pub(crate) dest: Ipv4Addr,
    /// Network mask.
    pub(crate) mask: Ipv4Addr,
    /// Next hop: `None` for directly attached networks (deliver to the
    /// destination itself), `Some(gw)` to forward via a gateway.
    pub(crate) gateway: Option<Ipv4Addr>,
}

impl Route {
    fn matches(&self, dst: Ipv4Addr) -> bool {
        u32::from(dst) & u32::from(self.mask) == u32::from(self.dest) & u32::from(self.mask)
    }

    fn prefix_len(&self) -> u32 {
        u32::from(self.mask).count_ones()
    }
}

/// A routing table with longest-prefix-match lookup and a version
/// counter for cache invalidation.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
    version: u64,
}

impl RouteTable {
    /// An empty table.
    pub(crate) fn new() -> RouteTable {
        RouteTable::default()
    }

    /// A table with one directly attached network (the common
    /// single-Ethernet host of the paper's testbed).
    pub fn directly_attached(network: Ipv4Addr, mask: Ipv4Addr) -> RouteTable {
        let mut t = RouteTable::new();
        t.add(Route {
            dest: network,
            mask,
            gateway: None,
        });
        t
    }

    /// Adds a route, bumping the version.
    pub(crate) fn add(&mut self, route: Route) {
        self.routes.push(route);
        self.version += 1;
    }

    /// Adds a default route via `gateway`.
    pub fn add_default(&mut self, gateway: Ipv4Addr) {
        self.add(Route {
            dest: Ipv4Addr::UNSPECIFIED,
            mask: Ipv4Addr::UNSPECIFIED,
            gateway: Some(gateway),
        });
    }

    /// Longest-prefix-match lookup: returns the IP the packet must be
    /// delivered to on the local link (the destination itself, or the
    /// gateway).
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.routes
            .iter()
            .filter(|r| r.matches(dst))
            .max_by_key(|r| r.prefix_len())
            .map(|r| r.gateway.unwrap_or(dst))
    }

    /// The version counter, bumped on every change (used by library
    /// metastate caches to detect staleness).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All routes (for snapshotting into an application cache).
    pub fn snapshot(&self) -> Vec<Route> {
        self.routes.clone()
    }

    /// Replaces the contents from a snapshot (cache refresh).
    pub fn load(&mut self, routes: Vec<Route>, version: u64) {
        self.routes = routes;
        self.version = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn direct_route_returns_destination() {
        let t = RouteTable::directly_attached(ip("10.0.0.0"), ip("255.255.255.0"));
        assert_eq!(t.lookup(ip("10.0.0.7")), Some(ip("10.0.0.7")));
    }

    #[test]
    fn gateway_route_returns_gateway() {
        let mut t = RouteTable::directly_attached(ip("10.0.0.0"), ip("255.255.255.0"));
        t.add_default(ip("10.0.0.1"));
        assert_eq!(t.lookup(ip("192.168.5.5")), Some(ip("10.0.0.1")));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::new();
        t.add_default(ip("10.0.0.1"));
        t.add(Route {
            dest: ip("192.168.0.0"),
            mask: ip("255.255.0.0"),
            gateway: Some(ip("10.0.0.2")),
        });
        t.add(Route {
            dest: ip("192.168.7.0"),
            mask: ip("255.255.255.0"),
            gateway: Some(ip("10.0.0.3")),
        });
        assert_eq!(t.lookup(ip("192.168.7.9")), Some(ip("10.0.0.3")));
        assert_eq!(t.lookup(ip("192.168.9.9")), Some(ip("10.0.0.2")));
        assert_eq!(t.lookup(ip("8.8.8.8")), Some(ip("10.0.0.1")));
    }

    #[test]
    fn no_route_is_none() {
        let t = RouteTable::directly_attached(ip("10.0.0.0"), ip("255.255.255.0"));
        assert_eq!(t.lookup(ip("9.9.9.9")), None);
    }

    #[test]
    fn version_bumps_on_change() {
        let mut t = RouteTable::new();
        let v0 = t.version();
        t.add_default(ip("10.0.0.1"));
        assert!(t.version() > v0);
    }

    #[test]
    fn snapshot_and_load_roundtrip() {
        let mut auth = RouteTable::directly_attached(ip("10.0.0.0"), ip("255.255.255.0"));
        auth.add_default(ip("10.0.0.1"));
        let mut cache = RouteTable::new();
        cache.load(auth.snapshot(), auth.version());
        assert_eq!(cache.version(), auth.version());
        assert_eq!(cache.lookup(ip("8.8.8.8")), auth.lookup(ip("8.8.8.8")));
        assert_eq!(cache.routes.len(), 2);
    }
}
