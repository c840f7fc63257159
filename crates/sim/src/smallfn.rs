//! Inline storage for one-shot event closures.
//!
//! The event queue schedules millions of closures per benchmark run; the
//! original engine boxed every one (`Box<dyn FnOnce(&mut Sim)>`), which
//! put a malloc/free pair on the per-event fast path. [`SmallFn`] stores
//! closures up to [`INLINE_BYTES`] bytes (the overwhelmingly common case:
//! an `Rc` or two plus a few words of context) directly inside the
//! queue's slab entry, falling back to a box only for oversized captures.
//! [`Sim::spilled`] counts the closures that took the fallback, so a
//! data-path capture that outgrows the inline size is visible as a
//! number (`tests/alloc_budget.rs` holds it at zero).
//!
//! The type is a miniature manual trait object: a data buffer plus two
//! monomorphized function pointers (consume-and-call, drop-in-place).
//! All `unsafe` in the simulator lives in this module; the invariants
//! are spelled out on each block and exercised by the drop-counting
//! tests below.

use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::engine::Sim;

/// Number of pointer-sized words of inline closure storage: what the
/// largest per-packet capture needs — the kernel's SHM delivery hops
/// carry the frame `Vec` (3), a sink or kernel handle (1–2), the
/// tracer and packet id (2) and the endpoint, ring or flag words.
const INLINE_WORDS: usize = 8;

/// Closures up to this many bytes (and at most pointer-aligned) are
/// stored inline; larger ones are boxed.
pub const INLINE_BYTES: usize = INLINE_WORDS * size_of::<usize>();

type BoxedFn = Box<dyn FnOnce(&mut Sim)>;

/// A type-erased `FnOnce(&mut Sim)` with inline small-closure storage.
///
/// Invariants:
/// - `data` always holds a valid value of the closure type `F` the
///   constructor was called with (or a `BoxedFn` on the fallback path),
///   written at offset 0 with alignment ≤ `align_of::<usize>()`.
/// - `call` and `drop_fn` are the monomorphized functions for that same
///   type, so the payload is read back at exactly the type it was
///   written at.
/// - The payload is consumed exactly once: either by [`SmallFn::call`]
///   (which suppresses `Drop` via `ManuallyDrop`) or by `Drop`.
pub struct SmallFn {
    data: MaybeUninit<[usize; INLINE_WORDS]>,
    call: unsafe fn(*mut u8, &mut Sim),
    drop_fn: unsafe fn(*mut u8),
}

impl SmallFn {
    /// Wraps `f`, storing it inline when it fits.
    pub fn new<F: FnOnce(&mut Sim) + 'static>(f: F) -> SmallFn {
        // SAFETY (both fns): `p` points to a valid, initialized `F` (or
        // `BoxedFn`) written by this constructor; `read` moves it out and
        // the caller never uses the storage again (call path), or
        // `drop_in_place` runs its destructor exactly once (drop path).
        unsafe fn call_inline<F: FnOnce(&mut Sim)>(p: *mut u8, sim: &mut Sim) {
            (std::ptr::read(p as *const F))(sim)
        }
        unsafe fn drop_inline<F>(p: *mut u8) {
            std::ptr::drop_in_place(p as *mut F)
        }
        unsafe fn call_boxed(p: *mut u8, sim: &mut Sim) {
            (std::ptr::read(p as *const BoxedFn))(sim)
        }
        unsafe fn drop_boxed(p: *mut u8) {
            std::ptr::drop_in_place(p as *mut BoxedFn)
        }

        let mut data = MaybeUninit::<[usize; INLINE_WORDS]>::uninit();
        if Self::would_inline::<F>() {
            // SAFETY: `F` fits in the buffer and needs at most pointer
            // alignment (checked by `would_inline`), and `data` is
            // pointer-aligned, so the write is in-bounds and aligned.
            unsafe { std::ptr::write(data.as_mut_ptr() as *mut F, f) };
            SmallFn {
                data,
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            }
        } else {
            let boxed: BoxedFn = Box::new(f);
            // SAFETY: a `BoxedFn` is two words — always fits and is
            // pointer-aligned.
            unsafe { std::ptr::write(data.as_mut_ptr() as *mut BoxedFn, boxed) };
            SmallFn {
                data,
                call: call_boxed,
                drop_fn: drop_boxed,
            }
        }
    }

    /// Whether a closure of type `F` would be stored inline (no heap
    /// allocation). Exposed for the engine's tests and benchmarks.
    pub fn would_inline<F>() -> bool {
        size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>()
    }

    /// Consumes the wrapper and invokes the closure.
    pub fn call(self, sim: &mut Sim) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `call` matches the payload type by construction;
        // `ManuallyDrop` suppresses our `Drop`, so the payload is moved
        // out exactly once.
        unsafe { (this.call)(this.data.as_mut_ptr() as *mut u8, sim) }
    }
}

impl Drop for SmallFn {
    fn drop(&mut self) {
        // SAFETY: the payload has not been consumed (`call` suppresses
        // this drop), so running its destructor in place is correct.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr() as *mut u8) }
    }
}

impl std::fmt::Debug for SmallFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SmallFn")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn check<F: FnOnce(&mut Sim)>(_: &F) -> bool {
        SmallFn::would_inline::<F>()
    }

    #[test]
    fn small_closures_are_inline_large_are_not() {
        let small = [0u64; 2];
        let large = [0u64; 16];
        let f_small = move |_: &mut Sim| {
            let _sum: u64 = small.iter().sum();
        };
        let f_large = move |_: &mut Sim| {
            let _sum: u64 = large.iter().sum();
        };
        assert!(check(&f_small));
        assert!(!check(&f_large));
    }

    #[test]
    fn inline_boundary_is_exactly_inline_bytes() {
        let fits = [1usize; INLINE_WORDS];
        let over = [1usize; INLINE_WORDS + 1];
        let f_fits = move |_: &mut Sim| assert_eq!(fits.iter().sum::<usize>(), INLINE_WORDS);
        let f_over = move |_: &mut Sim| assert_eq!(over.iter().sum::<usize>(), INLINE_WORDS + 1);
        assert_eq!(size_of_val(&f_fits), INLINE_BYTES);
        assert!(
            check(&f_fits),
            "a capture of exactly INLINE_BYTES is inline"
        );
        assert!(!check(&f_over), "one word over spills to a box");
        // Both still run and count correctly through the queue.
        let mut sim = Sim::new(1);
        sim.after(crate::SimTime::ZERO, f_fits);
        assert_eq!(sim.spilled(), 0);
        sim.after(crate::SimTime::ZERO, f_over);
        assert_eq!(sim.spilled(), 1);
        assert_eq!(sim.run_to_idle(), 2);
    }

    #[test]
    fn call_runs_the_closure_once() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let f = SmallFn::new(move |_| h.set(h.get() + 1));
        f.call(&mut sim);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn call_consumes_captures_exactly_once() {
        let mut sim = Sim::new(1);
        let token = Rc::new(());
        let t = token.clone();
        let f = SmallFn::new(move |_| drop(t));
        assert_eq!(Rc::strong_count(&token), 2);
        f.call(&mut sim);
        assert_eq!(Rc::strong_count(&token), 1, "capture dropped by the call");
    }

    #[test]
    fn dropping_uncalled_runs_capture_destructors() {
        let token = Rc::new(());
        let t = token.clone();
        let f = SmallFn::new(move |_| drop(t));
        assert_eq!(Rc::strong_count(&token), 2);
        drop(f);
        assert_eq!(Rc::strong_count(&token), 1, "capture dropped exactly once");
    }

    #[test]
    fn boxed_fallback_calls_and_drops_correctly() {
        let mut sim = Sim::new(1);
        let token = Rc::new(Cell::new(0u64));
        let big = [7u64; 16]; // forces the boxed path
        {
            let t = token.clone();
            let f = SmallFn::new(move |_| t.set(big.iter().sum()));
            f.call(&mut sim);
        }
        assert_eq!(token.get(), 7 * 16);
        {
            let t = token.clone();
            let f = SmallFn::new(move |_| {
                let _ = (&t, &big);
            });
            assert_eq!(Rc::strong_count(&token), 2);
            drop(f);
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
