//! A hierarchical timer wheel over slab-allocated, generation-tagged
//! entries — the event queue behind [`Sim`](crate::engine::Sim).
//!
//! The original engine kept a `BinaryHeap<Entry>` of boxed closures plus
//! an unbounded `cancelled: HashSet<u64>`. That design costs a heap sift
//! (O(log n) comparisons over 8-byte-keyed boxed entries), one malloc and
//! one free per event, and — the real leak — a `HashSet` insertion for
//! every cancel of an already-fired handle that nothing ever removed.
//!
//! This wheel replaces all three structures:
//!
//! - **Slab entries.** Every scheduled event lives in a fixed slot of a
//!   grow-only `Vec<Node>`; freed slots go on a free list and are
//!   reused. Steady-state scheduling does no per-event heap traffic
//!   (closures are stored inline via [`SmallFn`]).
//! - **Generation-tagged handles.** Each slab slot carries a generation
//!   counter bumped on free. A handle names `(slot, generation)`, so a
//!   stale handle — fired, cancelled, or reused — can never touch a
//!   newer event (the ABA problem is structurally impossible), and
//!   cancelling a dead handle is a pure no-op: no memory is touched,
//!   nothing can accumulate.
//! - **Hierarchical wheel.** [`LEVELS`] levels of 64 slots each cover
//!   the full `u64` nanosecond range (6 bits per level). An entry is
//!   filed at the level of the highest bit in which its expiry differs
//!   from the wheel's current time; expiring higher-level slots cascade
//!   their entries down. Insert and cancel are O(1); pop is O(1)
//!   amortized with an O([`LEVELS`]) bitmap scan worst case.
//!
//! # Ordering invariant
//!
//! The wheel pops in **exactly** total `(time, seq)` order — the same
//! order the `BinaryHeap` produced — which is what keeps every archived
//! result byte-identical. The argument:
//!
//! 1. All pending entries satisfy `when >= elapsed` (insertions are
//!    clamped to the current time upstream, and `elapsed` only advances
//!    to the start of the earliest occupied slot).
//! 2. An entry sits at level 0 iff its expiry lies in the same 64-tick
//!    aligned block as `elapsed`; within that block, the slot index *is*
//!    the expiry. Hence at any instant, all entries in one level-0 slot
//!    share a single expiry time.
//! 3. Level-0 slots therefore only need `seq` order, which is restored
//!    by one `sort_unstable` when the slot is drained into the current
//!    batch (cascading can interleave entries out of schedule order;
//!    direct inserts alone would already be sorted).
//! 4. Any entry at level k ≥ 1 expires strictly after every entry at a
//!    lower level, so scanning levels bottom-up finds the global
//!    earliest slot.
//!
//! The equivalence suite (`tests/engine_equivalence.rs`) checks this
//! order against a retained copy of the old heap implementation
//! ([`reference`](crate::reference)) under seeded adversarial schedules.

use std::collections::VecDeque;

use crate::smallfn::SmallFn;

/// Bits per wheel level (64 slots).
const SLOT_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed so `LEVELS * SLOT_BITS >= 64` covers any u64 delta.
const LEVELS: usize = 11;

/// Bucket marker for a node currently in the drain batch rather than a
/// wheel slot (it cannot be detached in place; cancel flags it instead).
const IN_BATCH: u32 = u32::MAX;

/// One slab entry. 'Free' is encoded as `f == None && !pending`; the
/// `pending` flag distinguishes a cancelled-but-still-batched node
/// (which must not be reused yet) from a free one.
struct Node {
    /// Bumped every time the slot is freed; handles carry the value they
    /// were created under.
    gen: u32,
    /// True while the node is filed in a wheel slot or the current batch.
    pending: bool,
    /// True if the node was cancelled while sitting in the batch; it is
    /// skipped and freed when the batch reaches it.
    cancelled: bool,
    /// The flattened `level * SLOTS + slot` bucket holding this node, or
    /// [`IN_BATCH`]. Lets cancel detach the node in O(1).
    bucket: u32,
    /// This node's index within its bucket's list.
    pos: u32,
    /// Absolute expiry in nanoseconds.
    when: u64,
    /// Global schedule order, the tie-breaker at equal `when`.
    seq: u64,
    /// The event body. Dropped eagerly on cancel so cancelled timers do
    /// not pin their captures.
    f: Option<SmallFn>,
}

/// Queue-side memory diagnostics, for the leak regression tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WheelStats {
    /// Live (schedulable) entries.
    pub live: usize,
    /// Cancelled entries still sitting in the drain batch awaiting
    /// reclamation (slot-filed entries are detached at cancel time, so
    /// this is bounded by the largest same-instant burst).
    pub cancelled_pending: usize,
    /// Total slab slots ever allocated (high-water mark of concurrency).
    pub slab_slots: usize,
    /// Slab slots currently on the free list.
    pub free_slots: usize,
}

pub(crate) struct TimerWheel {
    /// `LEVELS * SLOTS` buckets of slab indices, flattened.
    slots: Vec<Vec<u32>>,
    /// Per-level bitmap of non-empty buckets.
    occupied: [u64; LEVELS],
    /// Wheel time: never exceeds the expiry of any pending entry.
    elapsed: u64,
    nodes: Vec<Node>,
    free: Vec<u32>,
    live: usize,
    cancelled_pending: usize,
    /// The level-0 slot currently being drained, in `seq` order. All
    /// entries in it share one expiry time.
    batch: VecDeque<u32>,
}

impl TimerWheel {
    pub(crate) fn new() -> TimerWheel {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            elapsed: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            live: 0,
            cancelled_pending: 0,
            batch: VecDeque::new(),
        }
    }

    /// Re-aligns the wheel to the caller's clock. Draining a stretch of
    /// *cancelled-only* slots can advance `elapsed` beyond the caller's
    /// clock without any event having run; that can only happen if the
    /// drain emptied the wheel entirely (a pop that leaves entries
    /// behind returns one of them, pinning the caller's clock to at
    /// least `elapsed`), and an empty wheel has no filed slot whose
    /// interpretation depends on `elapsed` — so rewinding to `now` (the
    /// floor of every future expiry) is safe and exact. Call before
    /// [`insert`](Self::insert).
    pub(crate) fn sync(&mut self, now: u64) {
        if now < self.elapsed && self.live == 0 && self.cancelled_pending == 0 {
            debug_assert!(self.batch.is_empty());
            self.elapsed = now;
        }
    }

    /// Files an event at absolute nanosecond `when` (must be `>=` the
    /// time of the last popped event) with tie-break `seq`. Returns the
    /// `(slot, generation)` pair identifying it.
    pub(crate) fn insert(&mut self, when: u64, seq: u64, f: SmallFn) -> (u32, u32) {
        debug_assert!(when >= self.elapsed, "insert before wheel time");
        let idx = match self.free.pop() {
            Some(idx) => {
                let n = &mut self.nodes[idx as usize];
                n.pending = true;
                n.cancelled = false;
                n.when = when;
                n.seq = seq;
                n.f = Some(f);
                idx
            }
            None => {
                let idx = u32::try_from(self.nodes.len()).expect("slab overflow");
                self.nodes.push(Node {
                    gen: 0,
                    pending: true,
                    cancelled: false,
                    bucket: 0,
                    pos: 0,
                    when,
                    seq,
                    f: Some(f),
                });
                idx
            }
        };
        self.live += 1;
        // An event landing exactly on the batch's instant must run after
        // the batch (it has a larger seq): file it in the level-0 slot,
        // which is re-examined once the batch drains.
        self.file(idx, when);
        (idx, self.nodes[idx as usize].gen)
    }

    /// Cancels `(idx, gen)`. Returns true if a live event was cancelled;
    /// stale handles (fired, cancelled, or reused slots) are no-ops.
    ///
    /// A slot-filed entry is detached from its bucket immediately — an
    /// O(1) `swap_remove` — so cancelled timers cost nothing to cascade
    /// or sweep past later. Only an entry already pulled into the drain
    /// batch is flagged instead (the batch is consumed front-to-back and
    /// skips it).
    pub(crate) fn cancel(&mut self, idx: u32, gen: u32) -> bool {
        match self.nodes.get_mut(idx as usize) {
            Some(n) if n.gen == gen && n.pending && !n.cancelled => {}
            _ => return false,
        }
        self.live -= 1;
        let n = &mut self.nodes[idx as usize];
        n.f = None; // release captures immediately
        let bucket = n.bucket as usize;
        if n.bucket == IN_BATCH {
            n.cancelled = true;
            self.cancelled_pending += 1;
            return true;
        }
        let pos = n.pos as usize;
        let list = &mut self.slots[bucket];
        debug_assert_eq!(list[pos], idx);
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.nodes[moved as usize].pos = pos as u32;
        }
        if self.slots[bucket].is_empty() {
            self.occupied[bucket / SLOTS] &= !(1u64 << (bucket % SLOTS));
        }
        self.release(idx);
        true
    }

    /// Pops the earliest event with expiry `<= horizon`, in strict
    /// `(when, seq)` order.
    pub(crate) fn pop_due(&mut self, horizon: u64) -> Option<(u64, SmallFn)> {
        loop {
            // Drain the current same-instant batch first.
            while let Some(&idx) = self.batch.front() {
                let n = &mut self.nodes[idx as usize];
                let cancelled = n.cancelled;
                if !cancelled && n.when > horizon {
                    return None;
                }
                let when = n.when;
                let f = n.f.take();
                self.batch.pop_front();
                if cancelled {
                    self.cancelled_pending -= 1;
                    self.release(idx);
                    continue;
                }
                self.live -= 1;
                self.release(idx);
                return Some((when, f.expect("live batch entry has a body")));
            }

            // Find the earliest occupied bucket, bottom level first.
            let (level, slot) = self
                .occupied
                .iter()
                .enumerate()
                .find(|(_, bm)| **bm != 0)
                .map(|(l, bm)| (l, bm.trailing_zeros() as usize))?;
            let start = self.slot_start(level, slot);
            debug_assert!(start >= self.elapsed, "wheel scanned backwards");
            if start > horizon {
                return None;
            }
            let mut list = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            self.occupied[level] &= !(1u64 << slot);
            self.elapsed = start;
            if level == 0 {
                // Steady-state fast path: a lone entry needs no seq
                // sort and never touches the batch. Its expiry equals
                // the slot start (level-0 invariant), already known to
                // be within the horizon, and slot-filed entries are
                // never cancelled (cancel detaches them eagerly).
                if list.len() == 1 {
                    let idx = list[0];
                    list.clear();
                    self.slots[slot] = list;
                    let n = &mut self.nodes[idx as usize];
                    debug_assert_eq!(n.when, start);
                    debug_assert!(!n.cancelled);
                    let f = n.f.take();
                    self.live -= 1;
                    self.release(idx);
                    return Some((start, f.expect("live entry has a body")));
                }
                // One expiry instant; restore schedule order (cascades
                // may have interleaved entries).
                list.sort_unstable_by_key(|&i| self.nodes[i as usize].seq);
                for &idx in &list {
                    self.nodes[idx as usize].bucket = IN_BATCH;
                }
                self.batch.extend(list.drain(..));
            } else {
                // Cascade: with `elapsed` now at the slot start, every
                // entry re-files at a strictly lower level.
                for idx in list.drain(..) {
                    let when = self.nodes[idx as usize].when;
                    self.file(idx, when);
                }
            }
            // Hand the (empty) bucket back so its capacity is reused.
            self.slots[level * SLOTS + slot] = list;
        }
    }

    /// Number of live events.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn stats(&self) -> WheelStats {
        WheelStats {
            live: self.live,
            cancelled_pending: self.cancelled_pending,
            slab_slots: self.nodes.len(),
            free_slots: self.free.len(),
        }
    }

    /// Files node `idx` (expiry `when`) into the wheel.
    #[inline]
    fn file(&mut self, idx: u32, when: u64) {
        let masked = when ^ self.elapsed;
        let level = if masked == 0 {
            0
        } else {
            (63 - masked.leading_zeros() as usize) / SLOT_BITS
        };
        let slot = ((when >> (SLOT_BITS * level)) & (SLOTS as u64 - 1)) as usize;
        let bucket = level * SLOTS + slot;
        let list = &mut self.slots[bucket];
        let n = &mut self.nodes[idx as usize];
        n.bucket = bucket as u32;
        n.pos = list.len() as u32;
        list.push(idx);
        self.occupied[level] |= 1u64 << slot;
    }

    /// Absolute start time of `slot` at `level`, relative to `elapsed`.
    fn slot_start(&self, level: usize, slot: usize) -> u64 {
        let width = SLOT_BITS * (level + 1);
        let base = if width >= 64 {
            0
        } else {
            self.elapsed & !((1u64 << width) - 1)
        };
        base | ((slot as u64) << (SLOT_BITS * level))
    }

    /// Returns a slab slot to the free list, bumping its generation so
    /// existing handles to it go stale.
    #[inline]
    fn release(&mut self, idx: u32) {
        let n = &mut self.nodes[idx as usize];
        debug_assert!(n.pending);
        n.pending = false;
        n.cancelled = false;
        n.f = None;
        n.gen = n.gen.wrapping_add(1);
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> SmallFn {
        SmallFn::new(|_| {})
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        // Deliberately interleave times and spread across levels.
        let whens = [5u64, 1, 1, 100_000, 3, 5, 1 << 40, 64, 63];
        for (seq, &t) in whens.iter().enumerate() {
            w.insert(t, seq as u64, noop());
        }
        let mut sorted: Vec<(u64, u64)> = whens
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        sorted.sort_unstable();
        let mut popped = Vec::new();
        while let Some((when, _f)) = w.pop_due(u64::MAX) {
            popped.push(when);
        }
        assert_eq!(popped, sorted.iter().map(|&(t, _)| t).collect::<Vec<_>>());
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn horizon_cuts_inside_a_higher_level_slot() {
        let mut w = TimerWheel::new();
        w.insert(1000, 0, noop());
        // Horizon below the entry but inside its level-1 slot range.
        assert!(w.pop_due(980).is_none());
        assert_eq!(w.live(), 1);
        let (when, _) = w.pop_due(1000).unwrap();
        assert_eq!(when, 1000);
    }

    #[test]
    fn cancel_is_exact_and_generation_checked() {
        let mut w = TimerWheel::new();
        let (i1, g1) = w.insert(10, 0, noop());
        let (i2, g2) = w.insert(10, 1, noop());
        assert!(w.cancel(i1, g1));
        assert!(!w.cancel(i1, g1), "double cancel is a no-op");
        let (when, _) = w.pop_due(u64::MAX).unwrap();
        assert_eq!(when, 10);
        assert!(!w.cancel(i2, g2), "fired handle is a no-op");
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn slab_slots_are_reused_and_generations_advance() {
        let mut w = TimerWheel::new();
        let (i1, g1) = w.insert(1, 0, noop());
        w.pop_due(u64::MAX).unwrap();
        let (i2, g2) = w.insert(2, 1, noop());
        assert_eq!(i1, i2, "freed slot is reused");
        assert_ne!(g1, g2, "generation advanced on reuse");
        assert!(!w.cancel(i1, g1), "stale handle cannot touch the new event");
        assert_eq!(w.live(), 1);
    }

    #[test]
    fn cancel_detaches_and_bounds_backlog() {
        let mut w = TimerWheel::new();
        // Far-future timers cancelled en masse never drain naturally;
        // eager detach must reclaim their slots immediately.
        for round in 0..10 {
            let mut handles = Vec::new();
            for k in 0..1000u64 {
                handles.push(w.insert(1 << 50, round * 1000 + k, noop()));
            }
            for (i, g) in handles {
                w.cancel(i, g);
            }
        }
        let s = w.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.cancelled_pending, 0, "detached at cancel time: {s:?}");
        assert_eq!(s.slab_slots, s.free_slots, "all slots reclaimed: {s:?}");
        assert!(s.slab_slots <= 1000, "slab bounded by peak live: {s:?}");
    }
}
