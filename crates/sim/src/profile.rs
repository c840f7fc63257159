//! Charged-time profiling: who burned each nanosecond?
//!
//! The census answers "how many times did each operation run"; the
//! [`Profiler`] answers where the time went. Every nanosecond charged
//! through a [`Charge`](crate::cpu::Charge) opened on a CPU with a
//! profiler attached is attributed to a `(site path × domain × layer)`
//! bucket, where the site path is a small push/pop stack of static
//! labels maintained by the instrumented code
//! ([`Charge::site_push`](crate::cpu::Charge::site_push) /
//! [`Charge::site_pop`](crate::cpu::Charge::site_pop)). Summed over
//! sites, the buckets are the paper's Table 4: "how much time went to
//! each [`Layer`]" is the projection [`Profiler::layer_ns`], which
//! `protolat` differences over its measured rounds.
//!
//! Two contracts, both enforced by tests and CI:
//!
//! * **Neutrality.** Attaching a profiler never advances the cursor,
//!   never consumes randomness, and never schedules an event: a
//!   profiled run is byte-identical to an unprofiled one.
//! * **Exact conservation.** Attribution happens when
//!   [`Cpu::finish`](crate::cpu::Cpu::finish) flushes the charge's
//!   buffered entries, and a charge's elapsed time is *definitionally*
//!   the sum of its `add` costs — so for a profiler attached before the
//!   CPU's first charge, `attributed_ns() == total_busy`, bit-exactly.
//!   No sampling, no rounding.

use std::cell::RefCell;
use std::rc::Rc;

use crate::census::Domain;
use crate::layer::Layer;

/// Shared handle to a profiler (one per CPU for per-CPU conservation).
pub type ProfileHandle = Rc<RefCell<Profiler>>;

/// The root of the site trie: charges with no pushed site attribute
/// here.
pub(crate) const ROOT_SITE: u32 = 0;

/// One buffered attribution record inside a live `Charge`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProfEntry {
    /// Interned site-trie node.
    pub(crate) node: u32,
    /// `Layer::index()` of the charge.
    pub(crate) layer: u8,
    /// Nanoseconds charged.
    pub(crate) ns: u64,
}

/// One interned node of the site trie.
#[derive(Debug)]
struct SiteNode {
    parent: u32,
    domain: Domain,
    label: &'static str,
    children: Vec<u32>,
}

/// One row of the hot-site report: a leaf of the site trie crossed with
/// the layer it charged.
#[derive(Clone, Debug)]
pub(crate) struct HotSite {
    /// Full site path from the root, `;`-joined `domain:label` frames
    /// (empty for time charged with no site pushed).
    pub(crate) path: String,
    /// Layer the time was charged against.
    pub(crate) layer: Layer,
    /// Total nanoseconds attributed to this bucket.
    pub(crate) ns: u64,
}

const LAYERS: usize = Layer::COUNT;

/// The charged-time profiler: a site trie with per-`(node, layer)`
/// nanosecond buckets.
#[derive(Debug)]
pub struct Profiler {
    nodes: Vec<SiteNode>,
    /// Parallel to `nodes`: ns charged at each node, per layer.
    buckets: Vec<[u64; LAYERS]>,
    /// Total nanoseconds flushed, across all buckets.
    attributed: u64,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    /// Creates an empty profiler.
    pub(crate) fn new() -> Profiler {
        Profiler {
            nodes: vec![SiteNode {
                parent: ROOT_SITE,
                domain: Domain::Kernel,
                label: "-",
                children: Vec::new(),
            }],
            buckets: vec![[0; LAYERS]],
            attributed: 0,
        }
    }

    /// Creates a shared profiler handle.
    pub fn shared() -> ProfileHandle {
        Rc::new(RefCell::new(Profiler::new()))
    }

    /// Interns (or finds) the child of `parent` named `(domain, label)`.
    pub(crate) fn intern(&mut self, parent: u32, domain: Domain, label: &'static str) -> u32 {
        let kids = &self.nodes[parent as usize].children;
        for &k in kids {
            let n = &self.nodes[k as usize];
            if n.domain == domain && std::ptr::eq(n.label, label) {
                return k;
            }
        }
        // Pointer miss can still be a value hit when the same literal is
        // interned from two crates; fall back to a string compare.
        for &k in &self.nodes[parent as usize].children {
            let n = &self.nodes[k as usize];
            if n.domain == domain && n.label == label {
                return k;
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(SiteNode {
            parent,
            domain,
            label,
            children: Vec::new(),
        });
        self.buckets.push([0; LAYERS]);
        self.nodes[parent as usize].children.push(id);
        id
    }

    /// The parent of an interned node (the root is its own parent).
    pub(crate) fn parent_of(&self, node: u32) -> u32 {
        self.nodes[node as usize].parent
    }

    /// Flushes a finished charge's buffered entries into the buckets.
    pub(crate) fn flush(&mut self, entries: &[ProfEntry]) {
        for e in entries {
            self.buckets[e.node as usize][e.layer as usize] += e.ns;
            self.attributed += e.ns;
        }
    }

    /// Total nanoseconds attributed. For a profiler attached before the
    /// CPU's first charge this equals `Cpu::total_busy`, bit-exactly.
    pub fn attributed_ns(&self) -> u64 {
        self.attributed
    }

    /// Nanoseconds attributed to `layer`, summed over every site: the
    /// Table 4 projection. Over all layers these sum to
    /// [`Profiler::attributed_ns`].
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.buckets.iter().map(|b| b[layer.index()]).sum()
    }

    /// Number of interned sites (the root included).
    pub fn site_count(&self) -> usize {
        self.nodes.len()
    }

    /// The `;`-joined `domain:label` path of a node (empty at the root).
    fn path_of(&self, node: u32) -> String {
        let mut frames = Vec::new();
        let mut n = node;
        while n != ROOT_SITE {
            let s = &self.nodes[n as usize];
            frames.push(format!("{}:{}", s.domain.label(), s.label));
            n = s.parent;
        }
        frames.reverse();
        frames.join(";")
    }

    /// Collapsed-stack (flamegraph) text export: one line per nonzero
    /// `(site path, layer)` bucket, `frame;frame;[layer] ns`, sorted
    /// lexicographically so the output is deterministic regardless of
    /// interning order.
    pub fn collapsed_stacks(&self) -> String {
        let mut lines = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let path = self.path_of(i as u32);
            for (li, &ns) in bucket.iter().enumerate() {
                if ns == 0 {
                    continue;
                }
                let layer = Layer::ALL[li].label();
                let line = if path.is_empty() {
                    format!("[{layer}] {ns}")
                } else {
                    format!("{path};[{layer}] {ns}")
                };
                lines.push(line);
            }
        }
        lines.sort_unstable();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// All nonzero hot-site rows, hottest first (ties broken by path
    /// then layer index, so the order is fully deterministic).
    pub(crate) fn hot_sites(&self) -> Vec<HotSite> {
        let mut rows = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            for (li, &ns) in bucket.iter().enumerate() {
                if ns == 0 {
                    continue;
                }
                rows.push(HotSite {
                    path: self.path_of(i as u32),
                    layer: Layer::ALL[li],
                    ns,
                });
            }
        }
        rows.sort_by(|a, b| {
            b.ns.cmp(&a.ns)
                .then_with(|| a.path.cmp(&b.path))
                .then_with(|| a.layer.index().cmp(&b.layer.index()))
        });
        rows
    }

    /// A deterministic top-`n` hot-site table (text), with each row's
    /// share of the total attributed time.
    pub fn hot_site_table(&self, n: usize) -> String {
        let total = self.attributed.max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "  {:>12}  {:>6}  {:<24}  site\n",
            "ns", "share", "layer"
        ));
        for row in self.hot_sites().into_iter().take(n) {
            let share = row.ns as f64 * 100.0 / total as f64;
            let site = if row.path.is_empty() {
                "(unattributed)".to_string()
            } else {
                row.path.clone()
            };
            out.push_str(&format!(
                "  {:>12}  {:>5.1}%  {:<24}  {}\n",
                row.ns,
                share,
                row.layer.label(),
                site
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Cpu, Observable, Observers};
    use crate::time::SimTime;

    fn profiled_cpu() -> (ProfileHandle, Cpu) {
        let prof = Profiler::shared();
        let mut cpu = Cpu::new();
        cpu.set_observers(Observers {
            profile: Some(prof.clone()),
            ..Observers::default()
        });
        (prof, cpu)
    }

    #[test]
    fn conservation_is_bit_exact() {
        let (prof, mut cpu) = profiled_cpu();
        for i in 0..100u64 {
            let mut c = cpu.begin(SimTime::ZERO);
            c.site_push(Domain::Kernel, "rx");
            c.add_ns(Layer::IpIntr, 17 + i);
            c.site_push(Domain::Kernel, "demux");
            c.add_ns(Layer::NetisrPacketFilter, 3 * i);
            c.site_pop();
            c.site_pop();
            c.add_ns(Layer::Other, 1);
            cpu.finish(c);
        }
        assert_eq!(
            prof.borrow().attributed_ns(),
            cpu.total_busy().as_nanos(),
            "attributed must equal total_busy bit-exactly"
        );
        // The per-layer projection partitions the same total.
        let p = prof.borrow();
        assert_eq!(p.layer_ns(Layer::Other), 100);
        assert_eq!(
            Layer::ALL.iter().map(|l| p.layer_ns(*l)).sum::<u64>(),
            p.attributed_ns()
        );
    }

    #[test]
    fn site_trie_nests_and_pops() {
        let (prof, mut cpu) = profiled_cpu();
        let mut c = cpu.begin(SimTime::ZERO);
        c.site_push(Domain::Kernel, "rx");
        c.site_push(Domain::Library, "udp_input");
        c.add_ns(Layer::TcpUdpInput, 40);
        c.site_pop();
        c.add_ns(Layer::IpIntr, 2);
        c.site_pop();
        cpu.finish(c);
        let p = prof.borrow();
        let stacks = p.collapsed_stacks();
        assert!(stacks.contains("kernel:rx;library:udp_input;[tcp,udp_input] 40"));
        assert!(stacks.contains("kernel:rx;[ipintr] 2"));
        // Root, rx, udp_input.
        assert_eq!(p.site_count(), 3);
    }

    #[test]
    fn repeated_sites_are_interned_once() {
        let (prof, mut cpu) = profiled_cpu();
        for _ in 0..10 {
            let mut c = cpu.begin(SimTime::ZERO);
            c.site_push(Domain::Server, "rpc");
            c.add_ns(Layer::Control, 5);
            c.site_pop();
            cpu.finish(c);
        }
        let p = prof.borrow();
        assert_eq!(p.site_count(), 2);
        assert_eq!(p.attributed_ns(), 50);
        assert_eq!(p.hot_sites().len(), 1);
        assert_eq!(p.hot_sites()[0].ns, 50);
    }

    #[test]
    fn unattributed_time_lands_at_the_root() {
        let (prof, mut cpu) = profiled_cpu();
        let mut c = cpu.begin(SimTime::ZERO);
        c.add_ns(Layer::Other, 9);
        cpu.finish(c);
        let p = prof.borrow();
        assert_eq!(p.collapsed_stacks(), "[other] 9\n");
        assert_eq!(p.hot_sites()[0].path, "");
    }

    #[test]
    fn hot_sites_sort_hottest_first_deterministically() {
        let (prof, mut cpu) = profiled_cpu();
        let mut c = cpu.begin(SimTime::ZERO);
        c.site_push(Domain::Kernel, "a");
        c.add_ns(Layer::Other, 10);
        c.site_pop();
        c.site_push(Domain::Kernel, "b");
        c.add_ns(Layer::Other, 10);
        c.site_pop();
        c.site_push(Domain::Kernel, "c");
        c.add_ns(Layer::Other, 30);
        c.site_pop();
        cpu.finish(c);
        let rows = prof.borrow().hot_sites();
        assert_eq!(rows[0].path, "kernel:c");
        // Equal-ns ties break by path.
        assert_eq!(rows[1].path, "kernel:a");
        assert_eq!(rows[2].path, "kernel:b");
    }

    #[test]
    fn abandoned_charges_attribute_nothing() {
        // A charge that is never finished (e.g. a path that bails before
        // `Cpu::finish`) must not reach the buckets — that is what keeps
        // conservation exact.
        let (prof, mut cpu) = profiled_cpu();
        let mut c = cpu.begin(SimTime::ZERO);
        c.add_ns(Layer::Other, 100);
        drop(c);
        assert_eq!(prof.borrow().attributed_ns(), 0);
        assert_eq!(cpu.total_busy(), SimTime::ZERO);
    }
}
