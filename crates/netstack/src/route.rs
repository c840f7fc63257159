//! The routing table.
//!
//! Routes are "long-term state that is used by all sessions, but owned
//! by none" (§3.3): the operating system server owns the authoritative
//! table, and application libraries hold cached copies that the server
//! invalidates by bumping a version. Every route is a directly
//! attached network: the paper's testbed is one Ethernet segment, so a
//! packet is always delivered to its destination on the local link.

use std::net::Ipv4Addr;

/// One route entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route {
    /// Destination network.
    pub(crate) dest: Ipv4Addr,
    /// Network mask.
    pub(crate) mask: Ipv4Addr,
}

impl Route {
    fn matches(&self, dst: Ipv4Addr) -> bool {
        u32::from(dst) & u32::from(self.mask) == u32::from(self.dest) & u32::from(self.mask)
    }
}

/// A routing table of directly attached networks with a version counter
/// for cache invalidation.
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
        });
        t
    }

    /// Adds a route, bumping the version.
    pub(crate) fn add(&mut self, route: Route) {
        self.routes.push(route);
        self.version += 1;
    }

    /// Returns the IP the packet must be delivered to on the local link
    /// (the destination itself), or `None` if no attached network holds
    /// it.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.routes.iter().any(|r| r.matches(dst)).then_some(dst)
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
    fn no_route_is_none() {
        let t = RouteTable::directly_attached(ip("10.0.0.0"), ip("255.255.255.0"));
        assert_eq!(t.lookup(ip("9.9.9.9")), None);
    }

    #[test]
    fn version_bumps_on_change() {
        let mut t = RouteTable::new();
        let v0 = t.version();
        t.add(Route {
            dest: ip("192.168.7.0"),
            mask: ip("255.255.255.0"),
        });
        assert!(t.version() > v0);
    }

    #[test]
    fn snapshot_and_load_roundtrip() {
        let mut auth = RouteTable::directly_attached(ip("10.0.0.0"), ip("255.255.255.0"));
        auth.add(Route {
            dest: ip("192.168.7.0"),
            mask: ip("255.255.255.0"),
        });
        let mut cache = RouteTable::new();
        cache.load(auth.snapshot(), auth.version());
        assert_eq!(cache.version(), auth.version());
        assert_eq!(cache.lookup(ip("192.168.7.9")), Some(ip("192.168.7.9")));
        assert_eq!(cache.lookup(ip("8.8.8.8")), None);
        assert_eq!(cache.routes.len(), 2);
    }
}
