//! Heap allocations per transition executed, on Figure 4's search.
//!
//! Save, Restore and Fire are the search's steady-state step. Under the
//! complete-trace rule a save pushes a trail mark and a restore undoes
//! the trail, so neither copies a state, and a write moves the value it
//! overwrites into the trail; outputs are matched against the trace in
//! place, and a `p^.f` read copies one field, not the record; a fire's
//! Estelle frame reuses the last one's buffer. What still allocates: the
//! path link of a successful fire, the input parameters Generate copies,
//! and the record a `new` makes. The on-line rule also copies a state per child, into spare
//! buffers, and a node that goes back on the front keeps its candidate
//! list, so a re-pop does not Generate again. The bounds below hold
//! that.
//!
//! A counting global allocator sees every thread of this binary, so the
//! file has one `#[test]`: no other test's thread runs while it counts.

use protocols::tp0;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tango::trace::source::Poll;
use tango::{AnalysisOptions, Dir, Event, OrderOptions, TraceSource, Verdict};

/// The system allocator, counting allocations and reallocations.
struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its caller's arguments to `System` and
// returns what `System` returns, so the caller's guarantees are
// `System`'s preconditions and `System`'s guarantees are the caller's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Delivers the trace one event per poll; end-of-file comes with the
/// last event.
struct OnePerPoll(std::vec::IntoIter<Event>);

impl TraceSource for OnePerPoll {
    fn poll(&mut self) -> Poll {
        let events: Vec<Event> = self.0.next().into_iter().collect();
        Poll {
            events,
            eof: self.0.len() == 0,
        }
    }
}

/// Figure 4's "None" row as published: TE, GE, RE, SA.
const PAPER_FIG4_NR: [u64; 4] = [88_329, 36_687, 51_642, 34_440];

#[test]
fn figure_4_allocates_at_most_2_per_te_static_and_5_5_on_line() {
    // The invalid 3+3 TP0 trace whose mutated output is the last
    // `L.dt_req`: the class that reproduces the paper's counters.
    let trace = tp0::invalid_trace(3, 3, 20);
    let last = trace
        .events
        .iter()
        .rev()
        .find(|e| e.dir == Dir::Out && !e.params.is_empty())
        .expect("a data output");
    assert_eq!(
        (last.ip.as_str(), last.interaction.as_str()),
        ("L", "dt_req")
    );
    let a = tp0::analyzer();
    let opts = AnalysisOptions::with_order(OrderOptions::none());

    let (r, n) = allocations(|| a.analyze(&trace, &opts).unwrap());
    assert_eq!(r.verdict, Verdict::Invalid);
    assert_eq!(r.stats.counters(), PAPER_FIG4_NR);
    let per_te = n as f64 / r.stats.transitions_executed as f64;
    eprintln!("static DFS: {} allocations, {:.2} per TE", n, per_te);
    assert!(
        per_te <= 2.0,
        "static DFS: {:.2} allocations per TE",
        per_te
    );

    let mut online = opts.clone();
    online.workers = 1;
    let mut src = OnePerPoll(trace.events.clone().into_iter());
    let (r, n) = allocations(|| a.analyze_online(&mut src, &online, &mut |_| true).unwrap());
    assert_eq!(r.verdict, Verdict::Invalid);
    let per_te = n as f64 / r.stats.transitions_executed as f64;
    eprintln!("on-line, 1 worker: {} allocations, {:.2} per TE", n, per_te);
    assert!(
        per_te <= 5.5,
        "on-line, 1 worker: {:.2} allocations per TE",
        per_te
    );
}
