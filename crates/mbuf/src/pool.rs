//! Thread-local mbuf buffer pools.
//!
//! BSD keeps mbufs and clusters on free lists precisely so the packet
//! path never calls the general allocator; this module restores that
//! discipline for the simulation. Four classes are pooled:
//!
//! - small mbuf data areas (`Box<[u8; MLEN]>`),
//! - cluster buffers (`Rc<Vec<u8>>`, reclaimed when uniquely owned at
//!   drop, so shared views keep the data alive exactly as before),
//! - chain nodes (`Box<Mbuf>`, stored vacant and refilled in place),
//! - wire-frame buffers (`Vec<u8>`): the output routines
//!   [`take_frame`], the receiving sink [`give_frame`]s the buffer back
//!   once `input_frame` has consumed it. A frame has exactly one
//!   consumer (the tracer's exactly-one-terminal invariant), so a given
//!   buffer is returned at most once and never while still referenced —
//!   ownership of the `Vec` is the proof.
//!
//! Pools are thread-local (`Rc` data is already thread-bound) and
//! capped, so steady-state packet flow — build chain, prepend headers,
//! share for retransmit, drop — does no per-packet heap traffic while
//! bursts cannot hoard unbounded memory. Pooling is invisible to
//! callers: recycled buffers are never read before being written
//! (`Mbuf::data` only exposes the written `off..off+len` window), so
//! behavior and all simulated byte streams are bit-identical with the
//! pools on or cold.
//!
//! [`PoolStats`] exposes hit/miss/occupancy counters; the crate tests
//! use them to prove the steady state allocates nothing.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::{Mbuf, Storage, MLEN};

/// Max pooled small data areas (512 KB at `MLEN` = 128).
const SMALL_CAP: usize = 4096;
/// Max pooled cluster buffers.
const CLUSTER_CAP: usize = 1024;
/// Clusters larger than this are released to the allocator rather than
/// pooled, so one jumbo buffer cannot pin memory forever.
const CLUSTER_BYTES_CAP: usize = 16 * 1024;
/// Max pooled chain nodes.
const NODE_CAP: usize = 4096;
/// Max pooled frame buffers: a TCP window's worth of frames in each
/// direction with room to spare. A deeper backlog (an overloaded open
/// loop) overflows to the allocator instead of pinning memory.
const FRAME_CAP: usize = 256;
/// Frame buffers larger than this (nothing the Ethernet carries) are
/// released rather than pooled.
const FRAME_BYTES_CAP: usize = 2048;

/// Hit/miss and occupancy counters for the thread's mbuf pools.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Small data areas served from the pool.
    pub small_hits: u64,
    /// Small data areas that had to be freshly allocated.
    pub small_misses: u64,
    /// Cluster buffers served from the pool.
    pub cluster_hits: u64,
    /// Cluster buffers that had to be freshly allocated.
    pub cluster_misses: u64,
    /// Chain nodes served from the pool.
    pub node_hits: u64,
    /// Chain nodes that had to be freshly allocated.
    pub node_misses: u64,
    /// Small data areas currently pooled.
    pub small_free: usize,
    /// Cluster buffers currently pooled.
    pub cluster_free: usize,
    /// Chain nodes currently pooled.
    pub node_free: usize,
}

impl PoolStats {
    /// Total pool hits across every buffer class.
    pub fn hits(&self) -> u64 {
        self.small_hits + self.cluster_hits + self.node_hits
    }

    /// Total pool misses (fresh allocations) across every buffer class.
    pub fn misses(&self) -> u64 {
        self.small_misses + self.cluster_misses + self.node_misses
    }

    const fn new() -> PoolStats {
        PoolStats {
            small_hits: 0,
            small_misses: 0,
            cluster_hits: 0,
            cluster_misses: 0,
            node_hits: 0,
            node_misses: 0,
            small_free: 0,
            cluster_free: 0,
            node_free: 0,
        }
    }
}

// The boxes ARE the pooled resource: `Mbuf` stores `Box<[u8; MLEN]>` /
// `Box<Mbuf>` directly, so recycling the allocation requires keeping it
// boxed (unboxing would memcpy the payload and re-allocate on take).
#[allow(clippy::vec_box)]
struct Pools {
    small: Vec<Box<[u8; MLEN]>>,
    clusters: Vec<Rc<Vec<u8>>>,
    nodes: Vec<Box<Mbuf>>,
    frames: Vec<Vec<u8>>,
}

thread_local! {
    static POOLS: RefCell<Pools> = const {
        RefCell::new(Pools {
            small: Vec::new(),
            clusters: Vec::new(),
            nodes: Vec::new(),
            frames: Vec::new(),
        })
    };
    static STATS: Cell<PoolStats> = const { Cell::new(PoolStats::new()) };
}

fn bump(update: impl FnOnce(&mut PoolStats)) {
    // `try_with` so late drops during thread teardown cannot panic.
    let _ = STATS.try_with(|s| {
        let mut v = s.get();
        update(&mut v);
        s.set(v);
    });
}

/// This thread's pool counters.
pub fn pool_stats() -> PoolStats {
    let mut stats = STATS.try_with(Cell::get).unwrap_or_default();
    let _ = POOLS.try_with(|p| {
        let p = p.borrow();
        stats.small_free = p.small.len();
        stats.cluster_free = p.clusters.len();
        stats.node_free = p.nodes.len();
    });
    stats
}

/// Resets this thread's hit/miss counters (pool contents are kept).
pub fn reset_pool_stats() {
    let _ = STATS.try_with(|s| s.set(PoolStats::default()));
}

/// Empties this thread's pools, returning all buffers to the allocator.
pub fn drain_pools() {
    let _ = POOLS.try_with(|p| {
        let mut p = p.borrow_mut();
        p.small.clear();
        p.clusters.clear();
        p.nodes.clear();
        p.frames.clear();
    });
}

/// An empty wire-frame buffer with capacity for at least `want` bytes,
/// recycled when available. Pair with [`give_frame`].
pub fn take_frame(want: usize) -> Vec<u8> {
    let pooled = POOLS
        .try_with(|p| p.borrow_mut().frames.pop())
        .unwrap_or(None);
    match pooled {
        Some(mut buf) => {
            buf.reserve(want);
            buf
        }
        None => Vec::with_capacity(want),
    }
}

/// Returns a consumed wire-frame buffer to the free list (or to the
/// allocator when the list is full or the buffer oversized).
pub fn give_frame(mut frame: Vec<u8>) {
    if frame.capacity() > FRAME_BYTES_CAP {
        return;
    }
    frame.clear();
    let _ = POOLS.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.frames.len() < FRAME_CAP {
            p.frames.push(frame);
        }
    });
}

/// A small mbuf data area, recycled when available. Contents are
/// unspecified; callers only read bytes they wrote.
pub(crate) fn take_small() -> Box<[u8; MLEN]> {
    let pooled = POOLS
        .try_with(|p| p.borrow_mut().small.pop())
        .unwrap_or(None);
    match pooled {
        Some(b) => {
            bump(|s| s.small_hits += 1);
            b
        }
        None => {
            bump(|s| s.small_misses += 1);
            Box::new([0u8; MLEN])
        }
    }
}

/// A uniquely-owned, empty cluster buffer with capacity for at least
/// `want` bytes.
pub(crate) fn take_cluster(want: usize) -> Rc<Vec<u8>> {
    let pooled = POOLS
        .try_with(|p| p.borrow_mut().clusters.pop())
        .unwrap_or(None);
    match pooled {
        Some(mut rc) => {
            bump(|s| s.cluster_hits += 1);
            let buf = Rc::get_mut(&mut rc).expect("pooled cluster is unique");
            buf.clear();
            buf.reserve(want);
            rc
        }
        None => {
            bump(|s| s.cluster_misses += 1);
            Rc::new(Vec::with_capacity(want))
        }
    }
}

/// Boxes `m`, reusing a pooled vacant node when available.
pub(crate) fn box_mbuf(m: Mbuf) -> Box<Mbuf> {
    let pooled = POOLS
        .try_with(|p| p.borrow_mut().nodes.pop())
        .unwrap_or(None);
    match pooled {
        Some(mut b) => {
            bump(|s| s.node_hits += 1);
            // Overwriting the vacant node runs its (no-op) destructor.
            *b = m;
            b
        }
        None => {
            bump(|s| s.node_misses += 1);
            Box::new(m)
        }
    }
}

/// Returns storage to its pool. Shared clusters stay alive with their
/// other owners; the buffer comes back when the last owner drops it.
pub(crate) fn recycle_storage(storage: Storage) {
    match storage {
        Storage::Vacant => {}
        Storage::Small(b) => {
            let _ = POOLS.try_with(|p| {
                let mut p = p.borrow_mut();
                if p.small.len() < SMALL_CAP {
                    p.small.push(b);
                }
            });
        }
        Storage::Cluster { data } => {
            if Rc::strong_count(&data) == 1 && data.capacity() <= CLUSTER_BYTES_CAP {
                let _ = POOLS.try_with(|p| {
                    let mut p = p.borrow_mut();
                    if p.clusters.len() < CLUSTER_CAP {
                        p.clusters.push(data);
                    }
                });
            }
        }
    }
}

/// Returns a detached chain node (its `next` already taken) to the pool,
/// recycling its storage first.
pub(crate) fn recycle_node(mut b: Box<Mbuf>) {
    debug_assert!(b.next.is_none(), "recycle_node takes detached nodes");
    recycle_storage(std::mem::replace(&mut b.storage, Storage::Vacant));
    b.off = 0;
    b.len = 0;
    let _ = POOLS.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.nodes.len() < NODE_CAP {
            p.nodes.push(b);
        }
    });
}

/// Walks a chain iteratively, recycling every node and its storage.
/// (The compiler-generated drop would recurse per node and discard the
/// boxes; long socket-buffer chains make both traits undesirable.)
pub(crate) fn recycle_chain(head: Option<Box<Mbuf>>) {
    let mut cur = head;
    while let Some(mut b) = cur {
        cur = b.next.take();
        recycle_node(b);
    }
}
