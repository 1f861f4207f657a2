//! Per-layer attribution for the traced run.
//!
//! Everything here uses the program's public hooks only: a timestamping
//! [`EventSink`], the metrics registry's Generate latency histogram and
//! the per-transition profile's Fire nanoseconds. The sink stamps every
//! search event and files the interval since the previous event under the
//! (previous kind, this kind) pair; [`Intervals::split`] then turns those
//! intervals into Generate, Fire, Save and Restore time, and
//! [`attribute`] lays the layers over the search wall time with the
//! unattributed remainder as its own row.

use crate::feed::PollClock;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tango::{EventSink, SearchEvent};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Generate = 0,
    Fire = 1,
    Save = 2,
    Restore = 3,
    Other = 4,
}

const KINDS: usize = 5;

impl Kind {
    fn of(event: &SearchEvent<'_>) -> Kind {
        match event {
            SearchEvent::Generate { .. } => Kind::Generate,
            SearchEvent::Fire { .. } => Kind::Fire,
            SearchEvent::Save { .. } => Kind::Save,
            SearchEvent::Restore { .. } => Kind::Restore,
            _ => Kind::Other,
        }
    }
}

/// Seconds and counts of the intervals between consecutive events, by
/// (previous kind, next kind).
#[derive(Clone, Debug, Default)]
pub struct Intervals {
    secs: [[f64; KINDS]; KINDS],
    count: [[u64; KINDS]; KINDS],
}

/// Search time per step, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Split {
    pub generate: f64,
    pub fire: f64,
    pub save: f64,
    pub restore: f64,
}

impl Intervals {
    pub fn add(&mut self, prev: Kind, next: Kind, secs: f64) {
        self.secs[prev as usize][next as usize] += secs;
        self.count[prev as usize][next as usize] += 1;
    }

    /// Split the intervals into steps. An interval ending at a Generate or
    /// Fire event holds that step, whose mean duration the program
    /// measured (`generate_mean`, `fire_mean`); what the measured part
    /// does not cover goes to the other steps. Save work runs just before
    /// its event, so an interval ending at Save is Save. Restore work runs
    /// on both sides of its event (the DFS pops frames before it and
    /// materializes the snapshot after it; the MDFS copies the popped
    /// node's state after it), so intervals ending or starting at Restore
    /// are Restore, less the measured step they end at. Everything else —
    /// loop bookkeeping, Park, Prune — is left to the remainder.
    pub fn split(&self, generate_mean: f64, fire_mean: f64) -> Split {
        let mut s = Split::default();
        for prev in 0..KINDS {
            for next in 0..KINDS {
                let total = self.secs[prev][next];
                let n = self.count[prev][next] as f64;
                let mean = if next == Kind::Generate as usize {
                    generate_mean
                } else if next == Kind::Fire as usize {
                    fire_mean
                } else {
                    0.0
                };
                let measured = (n * mean).clamp(0.0, total.max(0.0));
                let rest = (total - measured).max(0.0);
                if next == Kind::Generate as usize {
                    s.generate += measured;
                } else if next == Kind::Fire as usize {
                    s.fire += measured;
                }
                if next == Kind::Save as usize {
                    s.save += rest;
                } else if next == Kind::Restore as usize || prev == Kind::Restore as usize {
                    s.restore += rest;
                }
            }
        }
        s
    }
}

/// What the sink collects over one analysis.
#[derive(Default)]
pub struct SinkState {
    last: Option<(Instant, Kind)>,
    pub intervals: Intervals,
    pub events: u64,
}

/// A timestamping event sink. The state sits behind an `Rc` so that the
/// benchmark can read it after the analysis hands the telemetry back.
pub struct ClockSink {
    state: Rc<RefCell<SinkState>>,
    polls: Rc<PollClock>,
}

impl ClockSink {
    pub fn new(state: Rc<RefCell<SinkState>>, polls: Rc<PollClock>) -> Self {
        ClockSink { state, polls }
    }
}

impl EventSink for ClockSink {
    fn emit(&mut self, _seq: u64, _worker: u16, event: &SearchEvent<'_>) {
        let now = Instant::now();
        let kind = Kind::of(event);
        let polled = self.polls.take_pending().as_secs_f64();
        let mut st = self.state.borrow_mut();
        if let Some((then, prev)) = st.last {
            let dt = (now.duration_since(then).as_secs_f64() - polled).max(0.0);
            st.intervals.add(prev, kind, dt);
        }
        st.last = Some((now, kind));
        st.events += 1;
    }
}

/// Lay `rows` over `wall` seconds, in order: each row is clamped to
/// `[0, what is left]`, and what is left at the end is returned as the
/// remainder. The rows plus the remainder always sum to `wall`, and no
/// entry is ever negative.
pub fn attribute(wall: f64, rows: &[f64]) -> (Vec<f64>, f64) {
    let mut left = wall.max(0.0);
    let mut out = Vec::with_capacity(rows.len());
    for &r in rows {
        let take = r.max(0.0).min(left);
        out.push(take);
        left -= take;
    }
    (out, left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango::rng::SplitMix64;

    #[test]
    fn remainder_is_never_negative_and_rows_sum_to_wall() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let wall = rng.gen_range_i64(0, 1_000) as f64 / 7.0;
            let n = rng.gen_index(8);
            let rows: Vec<f64> = (0..n)
                .map(|_| rng.gen_range_i64(-500, 1_500) as f64 / 3.0)
                .collect();
            let (taken, rest) = attribute(wall, &rows);
            assert!(
                rest >= 0.0,
                "remainder {} for wall {} rows {:?}",
                rest,
                wall,
                rows
            );
            assert!(taken.iter().all(|&t| t >= 0.0));
            let sum: f64 = taken.iter().sum::<f64>() + rest;
            assert!((sum - wall).abs() < 1e-9, "{} != {}", sum, wall);
        }
        let (taken, rest) = attribute(1.0, &[f64::NAN, 0.25]);
        assert_eq!((taken, rest), (vec![0.0, 0.25], 0.75));
    }

    #[test]
    fn split_charges_intervals_to_the_steps_around_them() {
        let mut iv = Intervals::default();
        // Two generates of 3 s each, measured at 2 s each.
        iv.add(Kind::Other, Kind::Generate, 3.0);
        iv.add(Kind::Fire, Kind::Generate, 3.0);
        iv.add(Kind::Generate, Kind::Save, 0.5);
        iv.add(Kind::Save, Kind::Fire, 1.5);
        iv.add(Kind::Fire, Kind::Restore, 0.25);
        // Restore then fire: 4 s, of which the fire's mean 1 s is Fire.
        iv.add(Kind::Restore, Kind::Fire, 4.0);
        let s = iv.split(2.0, 1.0);
        assert_eq!(s.generate, 4.0);
        assert_eq!(s.fire, 2.0);
        assert_eq!(s.save, 0.5);
        assert_eq!(s.restore, 0.25 + 3.0);
    }

    #[test]
    fn split_never_charges_more_than_the_interval() {
        let mut iv = Intervals::default();
        iv.add(Kind::Save, Kind::Fire, 0.5);
        let s = iv.split(0.0, 10.0);
        assert_eq!(s.fire, 0.5, "the measured mean is capped by the interval");
        assert_eq!(s.restore, 0.0);
    }
}
