//! The on-line workloads' trace feed: one event per poll, no sleeps.
//!
//! Delivery is deterministic — the search sees the trace grow by exactly
//! one event each time it asks — so every arriving event triggers its own
//! burst, and the run never waits on a clock.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use tango::trace::source::Poll;
use tango::{Event, TraceSource};

/// Poll accounting shared between a feed and the traced run's event sink.
#[derive(Default)]
pub struct PollClock {
    pub polls: Cell<u64>,
    /// Polls that delivered an event or end-of-file.
    pub deliveries: Cell<u64>,
    pub total: Cell<Duration>,
    /// Poll time since the sink last took it, so that the sink can keep
    /// it out of the interval it attributes to a search step.
    pub pending: Cell<Duration>,
}

impl PollClock {
    pub fn take_pending(&self) -> Duration {
        self.pending.replace(Duration::ZERO)
    }
}

pub struct OnePerPoll {
    events: std::vec::IntoIter<Event>,
    eof: bool,
    clock: Rc<PollClock>,
}

impl OnePerPoll {
    pub fn new(events: Vec<Event>, clock: Rc<PollClock>) -> Self {
        OnePerPoll {
            events: events.into_iter(),
            eof: false,
            clock,
        }
    }
}

impl TraceSource for OnePerPoll {
    fn poll(&mut self) -> Poll {
        let t0 = Instant::now();
        let was_eof = self.eof;
        let events: Vec<Event> = self.events.next().into_iter().collect();
        self.eof = self.events.len() == 0;
        let c = &self.clock;
        c.polls.set(c.polls.get() + 1);
        if !events.is_empty() || (self.eof && !was_eof) {
            c.deliveries.set(c.deliveries.get() + 1);
        }
        let dt = t0.elapsed();
        c.total.set(c.total.get() + dt);
        c.pending.set(c.pending.get() + dt);
        Poll {
            events,
            eof: self.eof,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle_runtime::Value;

    fn events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| Event::input("P", "req", vec![Value::Int(i as i64)]))
            .collect()
    }

    #[test]
    fn yields_every_event_once_and_eof_only_with_the_last() {
        for n in [0, 1, 2, 18] {
            let clock = Rc::new(PollClock::default());
            let mut feed = OnePerPoll::new(events(n), clock.clone());
            let mut got = Vec::new();
            loop {
                let p = feed.poll();
                assert!(p.events.len() <= 1, "at most one event per poll");
                got.extend(p.events);
                if p.eof {
                    break;
                }
                assert!(got.len() < n, "eof must come with the last event");
            }
            assert_eq!(got, events(n), "every event exactly once, in order");
            let after = feed.poll();
            assert!(after.eof && after.events.is_empty(), "eof is sticky");
            assert_eq!(clock.polls.get() as usize, n.max(1) + 1);
            assert_eq!(clock.deliveries.get() as usize, n.max(1));
        }
    }
}
