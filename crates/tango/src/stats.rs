//! Search statistics: the counters reported in the paper's tables.
//!
//! Figure 3 and Figure 4 report, per analysis run: CPU time (CPUT),
//! transitions executed (TE), generates (GE), restores/backtracks (RE) and
//! state saves (SA). We track the same counters plus fanout accounting for
//! the §4.2 discussion (average fanout 2.6 → 1.5 under full checking).
//!
//! On timing: the paper's CPUT column was process CPU time on a shared
//! SPARCstation; what this engine measures is **wall-clock elapsed time**
//! of the search. The field is named `wall_time` accordingly — the
//! `Display` output keeps the paper's `CPUT=` column label as a
//! documented alias so report lines stay comparable to the tables.
//! Genuine per-worker busy time (elapsed minus idle-poll sleeps) is
//! reported separately through the telemetry metrics registry
//! (`mdfs.worker0.busy_seconds`).

use std::fmt;
use std::time::Duration;

/// Counters for one trace-analysis run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// TE: transitions executed (edges searched in the search tree).
    pub transitions_executed: u64,
    /// GE: generate operations (fireable-list computations).
    pub generates: u64,
    /// RE: restores, i.e. backtracks performed.
    pub restores: u64,
    /// SA: state saves.
    pub saves: u64,
    /// Wall-clock elapsed time of the search (the paper's CPUT column;
    /// see the module docs for why the name differs).
    pub wall_time: Duration,
    /// Deepest point reached in the search tree.
    pub max_depth: usize,
    /// Sum of fireable-list sizes over all generates with ≥1 candidate —
    /// `fanout_sum / fanout_samples` is the paper's average fanout.
    pub fanout_sum: u64,
    pub fanout_samples: u64,
    /// PG-nodes created (dynamic mode only).
    pub pg_nodes: u64,
    /// Branches abandoned because of runtime errors in the specification
    /// (division by zero on a path, etc.).
    pub error_branches: u64,
    /// States pruned by the optional visited-state hash table.
    pub hash_prunes: u64,
    /// Paths cut by the consecutive-barren-steps bound (non-progress
    /// cycles, unbounded fabrication on unobserved IPs).
    pub barren_prunes: u64,
    /// Always 0: the snapshot stores do not deduplicate saves. Kept so
    /// the checkpoint and dump `STATS` layout and existing readers keep
    /// working.
    pub intern_hits: u64,
    /// Approximate bytes of saved state snapshots currently held by the
    /// search (nodes saved for backtracking, work and PG nodes) — what
    /// the `max_state_bytes` budget governs. Each save charges its own
    /// snapshot's full size plus its cursor metadata.
    pub snapshot_bytes: usize,
    /// High-water mark of `snapshot_bytes` over the run.
    pub peak_snapshot_bytes: usize,
    /// Trace-source faults absorbed losslessly by retrying (injected
    /// read errors under `RecoveryPolicy::Restart`, re-read rotations).
    pub source_retries: u64,
    /// Trace-source faults the feed gave up on (degraded to early eof or
    /// partial data). Always paired with a `source_faults` diagnostic.
    pub source_giveups: u64,
    /// Checkpoint autosave write failures absorbed by retry + backoff.
    pub checkpoint_retries: u64,
    /// Checkpoint autosaves abandoned after exhausting retries
    /// (warn-and-continue; recorded in `checkpoint_faults`).
    pub checkpoint_giveups: u64,
    /// Donations a dry worker took: stacks another worker handed over
    /// (multi-worker MDFS only; always 0 single-threaded).
    pub steals: u64,
    /// Looks for a donation that found none (the worker then waited until
    /// one arrived or the burst ended).
    pub steal_failures: u64,
}

impl SearchStats {
    /// The paper's four table counters: TE, GE, RE, SA.
    pub fn counters(&self) -> [u64; 4] {
        [self.transitions_executed, self.generates, self.restores, self.saves]
    }

    /// Average branching factor over the search.
    pub fn average_fanout(&self) -> f64 {
        if self.fanout_samples == 0 {
            0.0
        } else {
            self.fanout_sum as f64 / self.fanout_samples as f64
        }
    }

    /// Transitions searched per second of wall time — the paper's §4
    /// throughput metric.
    pub fn transitions_per_second(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.transitions_executed as f64 / secs
        }
    }

    /// Merge another run's counters into this one (used by the §2.4.1
    /// initial-state search, which runs several analyses and accumulates
    /// one report, and by stop/resume rounds).
    ///
    /// All event counters accumulate. `snapshot_bytes` deliberately does
    /// **not**: it is point-in-time residency, not a flow, so summing
    /// rounds would double-count memory that was released between them.
    /// The merged value is last-writer-wins — the residency of the most
    /// recently absorbed round, which for a sequential multi-round
    /// analysis is the residency *now*. The across-rounds high-water
    /// mark is what `peak_snapshot_bytes` keeps (by `max`).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.transitions_executed += other.transitions_executed;
        self.generates += other.generates;
        self.restores += other.restores;
        self.saves += other.saves;
        self.wall_time += other.wall_time;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.fanout_sum += other.fanout_sum;
        self.fanout_samples += other.fanout_samples;
        self.pg_nodes += other.pg_nodes;
        self.error_branches += other.error_branches;
        self.hash_prunes += other.hash_prunes;
        self.barren_prunes += other.barren_prunes;
        self.intern_hits += other.intern_hits;
        // Last-writer-wins residency; see the doc comment above.
        self.snapshot_bytes = other.snapshot_bytes;
        self.peak_snapshot_bytes = self.peak_snapshot_bytes.max(other.peak_snapshot_bytes);
        self.source_retries += other.source_retries;
        self.source_giveups += other.source_giveups;
        self.checkpoint_retries += other.checkpoint_retries;
        self.checkpoint_giveups += other.checkpoint_giveups;
        self.steals += other.steals;
        self.steal_failures += other.steal_failures;
    }

    /// Faults absorbed by retrying, across every site — the number the
    /// progress heartbeat reports as ` retries=`.
    pub fn total_fault_retries(&self) -> u64 {
        self.source_retries + self.checkpoint_retries
    }

    /// Faults that exhausted their retries, across every site. Non-zero
    /// means the run degraded somewhere — the post-mortem dump layer
    /// treats any giveup as a dump-worthy outcome even when the verdict
    /// itself completed.
    pub fn total_fault_giveups(&self) -> u64 {
        self.source_giveups + self.checkpoint_giveups
    }
}

impl fmt::Display for SearchStats {
    /// The paper's table columns (`CPUT=` is the documented alias for
    /// wall time) followed by the extension counters discussed in
    /// DESIGN §6: hash prunes (HP) and barren prunes (BP).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CPUT={:.3}s TE={} GE={} RE={} SA={} HP={} BP={}",
            self.wall_time.as_secs_f64(),
            self.transitions_executed,
            self.generates,
            self.restores,
            self.saves,
            self.hash_prunes,
            self.barren_prunes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_average() {
        let mut s = SearchStats::default();
        assert_eq!(s.average_fanout(), 0.0);
        s.fanout_sum = 12;
        s.fanout_samples = 5;
        assert!((s.average_fanout() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = SearchStats {
            transitions_executed: 10,
            max_depth: 4,
            ..Default::default()
        };
        let b = SearchStats {
            transitions_executed: 5,
            restores: 2,
            max_depth: 9,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.transitions_executed, 15);
        assert_eq!(a.restores, 2);
        assert_eq!(a.max_depth, 9);
    }

    #[test]
    fn absorb_snapshot_bytes_is_last_writer_wins_residency() {
        // Residency is point-in-time, not additive: absorbing three
        // rounds must report the latest round's residency, while the
        // peak keeps the across-rounds high-water mark.
        let mut total = SearchStats::default();
        for (resident, peak) in [(1000, 1500), (400, 2000), (250, 300)] {
            let round = SearchStats {
                snapshot_bytes: resident,
                peak_snapshot_bytes: peak,
                saves: 1,
                ..Default::default()
            };
            total.absorb(&round);
        }
        assert_eq!(total.snapshot_bytes, 250, "last round's residency wins");
        assert_eq!(total.peak_snapshot_bytes, 2000, "peak is max over rounds");
        assert_eq!(total.saves, 3, "flow counters still accumulate");
    }

    #[test]
    fn absorb_sums_fault_counters_across_rounds() {
        let mut total = SearchStats::default();
        for _ in 0..2 {
            let round = SearchStats {
                source_retries: 3,
                source_giveups: 1,
                checkpoint_retries: 2,
                checkpoint_giveups: 1,
                ..Default::default()
            };
            total.absorb(&round);
        }
        assert_eq!(total.source_retries, 6);
        assert_eq!(total.source_giveups, 2);
        assert_eq!(total.checkpoint_retries, 4);
        assert_eq!(total.checkpoint_giveups, 2);
        assert_eq!(
            total.total_fault_retries(),
            6 + 4,
            "heartbeat total spans source+checkpoint"
        );
    }

    #[test]
    fn absorb_sums_steal_counters() {
        let mut total = SearchStats::default();
        for _ in 0..2 {
            let round = SearchStats {
                steals: 7,
                steal_failures: 2,
                ..Default::default()
            };
            total.absorb(&round);
        }
        assert_eq!(total.steals, 14);
        assert_eq!(total.steal_failures, 4);
    }

    #[test]
    fn display_matches_table_columns() {
        let s = SearchStats {
            transitions_executed: 173,
            generates: 104,
            restores: 69,
            saves: 69,
            wall_time: Duration::from_millis(900),
            ..Default::default()
        };
        let line = s.to_string();
        assert!(line.contains("CPUT=0.900s"), "{}", line);
        assert!(line.contains("TE=173"));
        assert!(line.contains("GE=104"));
        assert!(line.contains("RE=69"));
        assert!(line.contains("SA=69"));
    }

    #[test]
    fn display_includes_extension_counters() {
        let s = SearchStats {
            hash_prunes: 11,
            barren_prunes: 7,
            ..Default::default()
        };
        let line = s.to_string();
        assert!(line.contains("HP=11"), "{}", line);
        assert!(line.contains("BP=7"), "{}", line);
        assert!(!line.contains("IH="), "{}", line);
    }
}
