//! Per-transition hot-spot profile.
//!
//! For every compiled transition: how often the search tried to fire
//! it, how often that attempt failed (output mismatch, guard error) and
//! how much wall time the fire attempts cost cumulatively. The profile
//! explains *where the analysis time went* — on the paper's invalid-TP0
//! blowups a handful of data transitions absorb nearly all TE — and
//! feeds the CLI's sorted `profile` report section and the Graphviz heat
//! overlay (`estelle_runtime::graph::to_dot_with_heat`).

use std::fmt::Write as _;
use std::time::Duration;

/// Counters for one compiled transition.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransitionStats {
    /// Fire attempts that completed with every output matched.
    pub fires: u64,
    /// Fire attempts that failed (rejected output, guard/runtime error).
    pub fails: u64,
    /// Cumulative wall time spent inside `Machine::fire` for this
    /// transition, nanoseconds.
    pub nanos: u64,
}

impl TransitionStats {
    pub fn attempts(&self) -> u64 {
        self.fires + self.fails
    }

    pub fn total_time(&self) -> Duration {
        Duration::from_nanos(self.nanos)
    }
}

/// The whole profile, indexed by compiled-transition id.
#[derive(Clone, Debug)]
pub struct TransitionProfile {
    entries: Vec<TransitionStats>,
}

impl TransitionProfile {
    pub fn new(transition_count: usize) -> Self {
        TransitionProfile {
            entries: vec![TransitionStats::default(); transition_count],
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, trans: usize, fired: bool, nanos: u64) {
        if let Some(e) = self.entries.get_mut(trans) {
            if fired {
                e.fires += 1;
            } else {
                e.fails += 1;
            }
            e.nanos += nanos;
        }
    }

    pub fn entries(&self) -> &[TransitionStats] {
        &self.entries
    }

    /// Transition ids sorted hottest-first (by cumulative time, then by
    /// attempts for timer-resolution ties).
    pub fn ranked(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].attempts() > 0)
            .collect();
        ids.sort_by_key(|&i| {
            let e = &self.entries[i];
            (std::cmp::Reverse(e.nanos), std::cmp::Reverse(e.attempts()), i)
        });
        ids
    }

    /// Per-transition heat weights in `[0, 1]`, normalized against the
    /// hottest transition's cumulative time (falling back to attempt
    /// counts when the run was too fast for the timer). Input for
    /// `estelle_runtime::graph::to_dot_with_heat`.
    pub fn heat_weights(&self) -> Vec<f64> {
        let by_time = self.entries.iter().map(|e| e.nanos).max().unwrap_or(0) > 0;
        let max = self
            .entries
            .iter()
            .map(|e| if by_time { e.nanos } else { e.attempts() })
            .max()
            .unwrap_or(0);
        self.entries
            .iter()
            .map(|e| {
                let v = if by_time { e.nanos } else { e.attempts() };
                if max == 0 {
                    0.0
                } else {
                    v as f64 / max as f64
                }
            })
            .collect()
    }

    /// Render the sorted hot-transition table. `name` maps a compiled
    /// transition id to its display name.
    pub fn render_table(&self, name: &dyn Fn(usize) -> String) -> String {
        let total_nanos: u64 = self.entries.iter().map(|e| e.nanos).sum();
        let mut out = String::new();
        out.push_str("hot transitions (by cumulative fire time):\n");
        let _ = writeln!(
            out,
            "{:>4} {:<24} {:>10} {:>10} {:>11} {:>9} {:>6}",
            "rank", "transition", "fires", "fails", "total(ms)", "avg(us)", "%time"
        );
        for (rank, id) in self.ranked().into_iter().enumerate() {
            let e = &self.entries[id];
            let ms = e.nanos as f64 / 1e6;
            let avg_us = e.nanos as f64 / 1e3 / e.attempts().max(1) as f64;
            let pct = if total_nanos == 0 {
                0.0
            } else {
                100.0 * e.nanos as f64 / total_nanos as f64
            };
            let _ = writeln!(
                out,
                "{:>4} {:<24} {:>10} {:>10} {:>11.3} {:>9.2} {:>5.1}%",
                rank + 1,
                name(id),
                e.fires,
                e.fails,
                ms,
                avg_us,
                pct
            );
        }
        out
    }

    /// Overlay labels for the Graphviz export: one short annotation per
    /// transition with attempts and cumulative time (empty for
    /// never-attempted transitions, which stay unannotated).
    pub fn heat_labels(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| {
                if e.attempts() == 0 {
                    String::new()
                } else {
                    format!(
                        "{} fired, {} failed, {:.1}ms",
                        e.fires,
                        e.fails,
                        e.nanos as f64 / 1e6
                    )
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rank_by_time() {
        let mut p = TransitionProfile::new(3);
        p.record(0, true, 100);
        p.record(2, false, 5_000);
        p.record(2, true, 5_000);
        p.record(1, true, 0);
        assert_eq!(p.ranked(), vec![2, 0, 1]);
        assert_eq!(p.entries()[2].fires, 1);
        assert_eq!(p.entries()[2].fails, 1);
        assert_eq!(p.entries()[2].attempts(), 2);
        // Out-of-range ids are ignored, not a panic.
        p.record(99, true, 1);
    }

    #[test]
    fn heat_weights_normalize_to_unit_range() {
        let mut p = TransitionProfile::new(2);
        p.record(0, true, 400);
        p.record(1, true, 100);
        let w = p.heat_weights();
        assert_eq!(w[0], 1.0);
        assert_eq!(w[1], 0.25);
    }

    #[test]
    fn heat_weights_fall_back_to_attempts_without_timing() {
        let mut p = TransitionProfile::new(2);
        p.record(0, true, 0);
        p.record(0, false, 0);
        p.record(1, true, 0);
        let w = p.heat_weights();
        assert_eq!(w[0], 1.0);
        assert_eq!(w[1], 0.5);
    }

    #[test]
    fn table_lists_hottest_first_and_skips_untouched() {
        let mut p = TransitionProfile::new(3);
        p.record(1, true, 2_000_000);
        p.record(0, false, 1_000_000);
        let table = p.render_table(&|i| format!("t{}", i));
        let t1 = table.find("t1 ").unwrap();
        let t0 = table.find("t0 ").unwrap();
        assert!(t1 < t0, "{}", table);
        assert!(!table.contains("t2 "), "untouched transitions omitted");
        assert!(p.heat_labels()[2].is_empty());
        assert!(p.heat_labels()[1].contains("1 fired"));
    }
}
