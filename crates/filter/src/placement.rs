//! Selective-copy placement (the Libra direction): a per-flow verdict,
//! taken at filter-install time, deciding whether packet bodies are
//! materialized in the shared receive ring or stay kernel-resident.
//!
//! The paper's NEWAPI always copies the whole frame across the
//! user/kernel boundary. Libra-style selective copying observes that
//! many consumers only inspect headers (monitors, proxies, filters) and
//! lets a per-flow policy keep bodies in kernel memory: the endpoint is
//! handed the headers plus a pull handle, and pays the body copy only
//! if it actually asks for the bytes.
//!
//! The verdict rides on the session filter — the same object that
//! already encodes per-flow identity — so the demux table is the single
//! source of truth for "where do this flow's bytes land". The policy
//! itself is a deterministic function of the [`EndpointSpec`], never of
//! packet contents, so same-seed reruns classify identically.

use std::ops::RangeInclusive;

use crate::compile::EndpointSpec;

/// Where a flow's packet bodies land on receive.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CopyPlacement {
    /// The body is copied into the shared ring with the headers (the
    /// paper's NEWAPI behavior; the default everywhere).
    #[default]
    Eager,
    /// The body stays in kernel memory; the endpoint receives the
    /// headers and a pull handle, and the body copy is charged only
    /// when (and if) the application pulls the bytes.
    KernelResident,
}

/// The install-time placement policy. Consulted by the kernel whenever
/// a session filter is installed; flows matching no rule are
/// [`CopyPlacement::Eager`], so an empty policy is exactly the
/// pre-existing system.
#[derive(Clone, Debug, Default)]
pub struct PlacementPolicy {
    /// Local port ranges whose flows are kernel-resident.
    resident: Vec<RangeInclusive<u16>>,
}

impl PlacementPolicy {
    /// A policy with no rules: every flow is eager.
    pub fn new() -> PlacementPolicy {
        PlacementPolicy::default()
    }

    /// Adds a rule marking flows whose local port falls in
    /// `lo..=hi` (any protocol) as kernel-resident.
    pub fn resident_ports(mut self, lo: u16, hi: u16) -> PlacementPolicy {
        self.resident.push(lo..=hi);
        self
    }

    /// The placement verdict for a session filter about to be
    /// installed.
    pub fn classify(&self, spec: &EndpointSpec) -> CopyPlacement {
        self.placement_for(spec.local_port)
    }

    /// The placement verdict for a flow identified by its local port
    /// (the same function [`classify`](Self::classify) applies to a
    /// spec; exposed so the library side of the interface can agree
    /// with the kernel about its own sockets).
    pub fn placement_for(&self, local_port: u16) -> CopyPlacement {
        if self.resident.iter().any(|r| r.contains(&local_port)) {
            CopyPlacement::KernelResident
        } else {
            CopyPlacement::Eager
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_wire::IpProto;
    use std::net::Ipv4Addr;

    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn empty_policy_is_eager_everywhere() {
        let p = PlacementPolicy::new();
        for port in [0u16, 80, 10_000, u16::MAX] {
            assert_eq!(
                p.classify(&EndpointSpec::unconnected(IpProto::Udp, B, port)),
                CopyPlacement::Eager
            );
        }
    }

    #[test]
    fn port_range_rule_selects_resident() {
        let p = PlacementPolicy::new().resident_ports(10_000, 10_999);
        assert_eq!(
            p.classify(&EndpointSpec::unconnected(IpProto::Udp, B, 10_500)),
            CopyPlacement::KernelResident
        );
        assert_eq!(
            p.classify(&EndpointSpec::unconnected(IpProto::Udp, B, 9_999)),
            CopyPlacement::Eager
        );
        assert_eq!(
            p.classify(&EndpointSpec::unconnected(IpProto::Tcp, B, 10_000)),
            CopyPlacement::KernelResident
        );
    }
}
