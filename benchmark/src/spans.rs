//! In-memory span recorder for the traced repetition.
//!
//! Spans are recorded from the benchmark's own files only, around the
//! calls the drivers make into a layer. A span knows its parent (the
//! span open when it started), so a layer's self time is its duration
//! minus the part its children cover. With tracing off every call site
//! costs one branch.

use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

use crate::json;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

struct Inner {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The recorder. `Spans::off()` records nothing.
pub struct Spans {
    inner: Option<RefCell<Inner>>,
}

/// Count, total and self time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, host ns.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans { inner: None }
    }

    /// A recording recorder; timestamps count from now.
    pub fn on() -> Spans {
        Spans {
            inner: Some(RefCell::new(Inner {
                t0: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            })),
        }
    }

    /// True when spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(cell) = &self.inner else {
            return f();
        };
        let id = {
            let mut s = cell.borrow_mut();
            let id = s.spans.len() as u32;
            let parent = s.open.last().copied().unwrap_or(NO_PARENT);
            let start_ns = s.t0.elapsed().as_nanos() as u64;
            s.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            s.open.push(id);
            id
        };
        let r = f();
        let mut s = cell.borrow_mut();
        s.spans[id as usize].end_ns = s.t0.elapsed().as_nanos() as u64;
        s.open.pop();
        r
    }

    /// Totals for every span called `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let Some(cell) = &self.inner else {
            return SpanTotals::default();
        };
        let s = cell.borrow();
        let mut child_ns = vec![0u64; s.spans.len()];
        for sp in &s.spans {
            if sp.parent != NO_PARENT {
                child_ns[sp.parent as usize] += sp.end_ns - sp.start_ns;
            }
        }
        let mut t = SpanTotals::default();
        for (i, sp) in s.spans.iter().enumerate() {
            if sp.name == name {
                let dur = sp.end_ns - sp.start_ns;
                t.count += 1;
                t.total_ns += dur;
                t.self_ns += dur.saturating_sub(child_ns[i]);
            }
        }
        t
    }

    /// Writes the spans as a Chrome-trace document (complete events,
    /// microsecond timestamps; `args.parent` is the parent span's index
    /// in the event list, -1 for a root).
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        if let Some(cell) = &self.inner {
            let s = cell.borrow();
            for (i, sp) in s.spans.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                let parent = if sp.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(sp.parent)
                };
                write!(
                    out,
                    "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{parent}}}}}",
                    json::quote(sp.name),
                    sp.start_ns as f64 / 1e3,
                    (sp.end_ns - sp.start_ns) as f64 / 1e3,
                )?;
            }
        }
        out.write_all(b"\n]}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let s = Spans::on();
        s.span("outer", || {
            s.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = s.totals("outer");
        let inner = s.totals("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn off_recorder_is_inert() {
        let s = Spans::off();
        assert_eq!(s.span("x", || 7), 7);
        assert_eq!(s.totals("x").count, 0);
    }
}
