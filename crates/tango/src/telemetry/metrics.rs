//! Metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! The registry is the numeric side of the telemetry layer: where the
//! event stream answers *what happened*, the registry answers *how much
//! and how fast*. It is hand-rolled (the workspace vendors no crates)
//! and exports one JSON document whose well-formedness `bench::json`
//! validates in CI. Names are dotted paths (`search.te`,
//! `mdfs.worker0.busy_seconds`); histograms use fixed upper-bound
//! buckets plus an overflow bucket, cumulative-sum-free so merging two
//! registries is plain addition.

use crate::stats::SearchStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::event::json_escape;

/// Schema marker written into every exported document.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Fanout histogram bounds: the paper's §4.2 discussion lives around
/// average fanout 1.5–2.6, so the low buckets are fine-grained.
pub const FANOUT_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0];

/// Search-depth histogram bounds (powers of two).
pub const DEPTH_BOUNDS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0,
];

/// Per-generate latency bounds, microseconds.
pub const LATENCY_US_BOUNDS: &[f64] = &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 2000.0];

/// Snapshot-residency bounds, bytes (powers of four) — the timeline of
/// `snapshot_bytes` values observed at save points.
pub const SNAPSHOT_BYTES_BOUNDS: &[f64] = &[
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
    67108864.0,
];

/// One fixed-bucket histogram: `counts[i]` is the number of samples
/// `<= bounds[i]` (and above the previous bound); the last entry of
/// `counts` is the overflow bucket.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// (upper bound, samples in bucket) pairs; the final pair uses
    /// `f64::INFINITY` for the overflow bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }
}

/// Format an `f64` as valid JSON (never `NaN`/`inf` tokens).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            format!("{:.1}", x)
        } else {
            format!("{:.6}", x)
        }
    } else {
        "null".to_string()
    }
}

/// The registry: monotonic counters, point-in-time gauges and fixed
/// bucket histograms, all keyed by dotted-path names. Export order is
/// the `BTreeMap` name order, so the document is deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    // Gauge names are owned: worker-indexed series (`mdfs.worker3.…`)
    // are built at runtime, unlike the fixed counter/histogram names.
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add to a monotonic counter (created at zero on first touch).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Set a counter to an absolute value (used when folding a final
    /// `SearchStats`, whose fields are already cumulative).
    pub fn set_counter(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Set a gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record one histogram sample; the histogram is created with
    /// `bounds` on first touch (later calls reuse the existing buckets).
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], v: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold a run's final counters into the registry. `SearchStats`
    /// fields are cumulative over a whole analysis (including
    /// stop/resume rounds and the §2.4.1 initial-state search, whose
    /// per-round stats are absorbed upstream), so these are absolute
    /// sets, not increments.
    pub fn record_stats(&mut self, stats: &SearchStats) {
        self.set_counter("search.te", stats.transitions_executed);
        self.set_counter("search.ge", stats.generates);
        self.set_counter("search.re", stats.restores);
        self.set_counter("search.sa", stats.saves);
        self.set_counter("search.pg_nodes", stats.pg_nodes);
        self.set_counter("search.error_branches", stats.error_branches);
        self.set_counter("search.hash_prunes", stats.hash_prunes);
        self.set_counter("search.barren_prunes", stats.barren_prunes);
        self.set_gauge("search.wall_seconds", stats.wall_time.as_secs_f64());
        self.set_gauge(
            "search.transitions_per_second",
            stats.transitions_per_second(),
        );
        self.set_gauge("search.average_fanout", stats.average_fanout());
        self.set_gauge("search.max_depth", stats.max_depth as f64);
        self.set_gauge("search.snapshot_bytes", stats.snapshot_bytes as f64);
        self.set_gauge(
            "search.peak_snapshot_bytes",
            stats.peak_snapshot_bytes as f64,
        );
        // Work-stealing series appear only when a steal was attempted
        // (i.e. the run actually had ≥2 workers), so single-worker runs
        // export a byte-identical document.
        if stats.steals + stats.steal_failures > 0 {
            self.set_counter("mdfs.steals", stats.steals);
            self.set_counter("mdfs.steal_failures", stats.steal_failures);
        }
        // Per-site fault series, gated the same way: a site that saw no
        // faults exports nothing, so fault-free runs stay byte-identical
        // with the fault hooks compiled in.
        let fault_sites: [(&'static str, &'static str, u64, u64); 2] = [
            (
                "fault.source.retries",
                "fault.source.giveups",
                stats.source_retries,
                stats.source_giveups,
            ),
            (
                "fault.checkpoint.retries",
                "fault.checkpoint.giveups",
                stats.checkpoint_retries,
                stats.checkpoint_giveups,
            ),
        ];
        for (retries_name, giveups_name, retries, giveups) in fault_sites {
            if retries + giveups > 0 {
                self.set_counter(retries_name, retries);
                self.set_counter(giveups_name, giveups);
            }
        }
    }

    /// Export the registry as one JSON document (validated by
    /// `bench::json::validate` in CI and by `json_check`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"tango-metrics\",\n  \"version\": {},\n  \"counters\": {{",
            METRICS_SCHEMA_VERSION
        );
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{}\n    \"{}\": {}", sep, json_escape(name), v);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{}\n    \"{}\": {}",
                sep,
                json_escape(name),
                json_number(*v)
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{}\n    \"{}\": {{\"buckets\": [", sep, json_escape(name));
            for (j, (le, count)) in h.buckets().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let le = if le.is_finite() {
                    json_number(le)
                } else {
                    "\"+inf\"".to_string()
                };
                let _ = write!(out, "{}{{\"le\": {}, \"count\": {}}}", sep, le, count);
            }
            let _ = write!(
                out,
                "], \"sum\": {}, \"count\": {}}}",
                json_number(h.sum),
                h.count
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 4.0, 16.0]);
        for v in [0.5, 1.0, 3.0, 100.0] {
            h.observe(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets[0], (1.0, 2)); // 0.5 and 1.0
        assert_eq!(buckets[1], (4.0, 1)); // 3.0
        assert_eq!(buckets[2], (16.0, 0));
        assert_eq!(buckets[3].1, 1); // overflow: 100.0
        assert!(buckets[3].0.is_infinite());
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 26.125).abs() < 1e-9);
    }

    #[test]
    fn registry_round_trip_and_determinism() {
        let mut m = MetricsRegistry::new();
        m.inc("search.te", 3);
        m.inc("search.te", 2);
        m.set_gauge("search.wall_seconds", 1.5);
        m.observe("search.fanout", FANOUT_BOUNDS, 2.0);
        assert_eq!(m.counter("search.te"), Some(5));
        assert_eq!(m.gauge("search.wall_seconds"), Some(1.5));
        assert_eq!(m.histogram("search.fanout").unwrap().count(), 1);
        assert_eq!(m.to_json(), m.clone().to_json());
        assert!(m.to_json().contains("\"schema\": \"tango-metrics\""));
    }

    #[test]
    fn record_stats_sets_absolute_values() {
        let stats = SearchStats {
            transitions_executed: 10,
            generates: 7,
            restores: 3,
            saves: 4,
            wall_time: Duration::from_millis(500),
            max_depth: 9,
            ..Default::default()
        };
        let mut m = MetricsRegistry::new();
        m.record_stats(&stats);
        m.record_stats(&stats); // idempotent, not doubling
        assert_eq!(m.counter("search.te"), Some(10));
        assert_eq!(m.gauge("search.max_depth"), Some(9.0));
        assert_eq!(m.gauge("search.wall_seconds"), Some(0.5));
    }

    #[test]
    fn fault_series_appear_only_for_sites_that_saw_faults() {
        let clean = SearchStats::default();
        let mut m = MetricsRegistry::new();
        m.record_stats(&clean);
        assert_eq!(m.counter("fault.source.retries"), None);
        assert_eq!(m.counter("fault.checkpoint.retries"), None);

        let faulty = SearchStats {
            source_retries: 2,
            checkpoint_retries: 1,
            checkpoint_giveups: 1,
            ..Default::default()
        };
        let mut m = MetricsRegistry::new();
        m.record_stats(&faulty);
        assert_eq!(m.counter("fault.source.retries"), Some(2));
        assert_eq!(m.counter("fault.source.giveups"), Some(0));
        assert_eq!(m.counter("fault.checkpoint.retries"), Some(1));
        assert_eq!(m.counter("fault.checkpoint.giveups"), Some(1));

        let source_only = SearchStats {
            source_retries: 1,
            ..Default::default()
        };
        let mut m = MetricsRegistry::new();
        m.record_stats(&source_only);
        // The checkpoint site saw nothing — still absent.
        assert_eq!(m.counter("fault.checkpoint.retries"), None);
    }

    #[test]
    fn export_is_valid_json_by_hand_inspection() {
        // The real validation runs in CI through bench::json; here we
        // pin the shape against obvious breakage.
        let mut m = MetricsRegistry::new();
        m.observe("search.depth", DEPTH_BOUNDS, 3.0);
        m.set_gauge("nan_gauge", f64::NAN);
        let doc = m.to_json();
        assert!(doc.contains("\"nan_gauge\": null"));
        assert!(doc.contains("\"le\": \"+inf\""));
        assert!(!doc.contains("NaN"));
    }
}
