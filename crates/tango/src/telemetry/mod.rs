//! Telemetry layer: structured search-event tracing, metrics, live
//! progress and per-transition profiling.
//!
//! Four cooperating facilities, all **off by default and zero-cost when
//! off** (the search pays a handful of branch checks per step, nothing
//! else — no clock reads, no allocation, no formatting):
//!
//! * **Event stream** ([`event`], [`sink`]) — every Generate / Fire /
//!   Save / Restore / Prune / Park / Checkpoint / Verdict step as one
//!   versioned JSONL line through a pluggable [`EventSink`]. The stream
//!   is complete: the final [`SearchStats`] counters equal the per-kind
//!   event counts (TE = fire events, GE = generate, RE = restore, SA =
//!   save) at every worker count — `tests/telemetry.rs` pins both. At
//!   one worker it is also deterministic: for a fixed trace and options
//!   the bytes are identical across runs.
//! * **Metrics registry** ([`metrics`]) — counters, gauges and
//!   fixed-bucket histograms (fanout, depth, per-generate latency,
//!   snapshot-bytes timeline) exported as one JSON document.
//! * **Progress heartbeat** ([`progress`]) — one snapshot of the
//!   running search with rate and ETA against the transition cap,
//!   rendered as a human or JSONL line and as the live `/status`
//!   document ([`http`]).
//! * **Transition profile** ([`profile`]) — per-transition fire/fail
//!   counts and cumulative fire time; renders a sorted hot-spot table
//!   and the Graphviz heat overlay.
//!
//! One [`Telemetry`] handle bundles all four and is threaded through
//! [`crate::TraceAnalyzer`]'s `*_with` methods into the search. A search
//! step reaches it as one record (`recorder::StepRecord`), through
//! `Telemetry::record`: the flight recorder stores it, the metrics and
//! the profile read it, and the event stream renders it. The handle
//! stamps every record with a monotonically increasing sequence number
//! and the id of the worker that took the step (0 on the calling
//! thread), so multi-worker streams stay merge-ordered; it
//! survives stop/resume rounds, so a CLI autosave run produces one
//! continuous stream.

pub mod dump;
pub mod event;
pub mod http;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod recorder;
pub mod sink;

pub use dump::{
    should_dump, DumpError, HotspotRow, PlanCapture, PostMortemDump, RingCapture,
    DUMP_FORMAT_VERSION, DUMP_MAGIC,
};
pub use event::{PruneKind, SearchEvent, TRACE_SCHEMA_VERSION};
pub use http::{IntrospectHandle, IntrospectionServer, STATUS_SCHEMA_VERSION};
pub use metrics::{Histogram, MetricsRegistry, METRICS_SCHEMA_VERSION};
pub use profile::{TransitionProfile, TransitionStats};
pub use progress::{ProgressMode, ProgressReporter};
pub use recorder::{FlightRecord, FlightRecorder, DEFAULT_RING_CAPACITY};
pub use sink::{EventSink, JsonlSink};

use crate::stats::SearchStats;
use crate::verdict::Verdict;
use estelle_runtime::Machine;
use progress::{Heartbeat, Pulse};
pub(crate) use recorder::StepRecord;
use recorder::{KIND_FIRE, KIND_GENERATE, KIND_SAVE};
use std::time::{Duration, Instant};

/// The per-analysis telemetry handle. `Telemetry::off()` (also
/// `Default`) disables everything; builders switch on the individual
/// facilities. Pass it to the `*_with` analyzer entry points.
#[derive(Default)]
pub struct Telemetry {
    sink: Option<Box<dyn EventSink>>,
    metrics: Option<MetricsRegistry>,
    progress: Option<ProgressReporter>,
    profile: Option<TransitionProfile>,
    /// The black-box ring (cheap enough for the CLI to default on).
    flight: Option<FlightRecorder>,
    /// Live endpoint push side, when `--listen` mounted one.
    introspect: Option<IntrospectHandle>,
    /// The clock behind the heartbeat line and `/status`; present while
    /// either is on.
    pulse: Option<Pulse>,
    /// Merge-order sequence number of the next event.
    seq: u64,
    /// Cached: any of sink/metrics/profile/recorder is on (the pulse is
    /// checked separately — it ticks even when nothing else is enabled).
    active: bool,
    /// Cached: fire/generate steps should be timed (profile on, or
    /// metrics wanting the latency histogram). The flight recorder
    /// deliberately does NOT set this: it never reads clocks.
    timing: bool,
    meta_emitted: bool,
    /// Remembered from `begin()` for post-mortem capture.
    mode: String,
    spec: String,
    /// Compiled-transition display names, for dump hot-spot rows and the
    /// `/profile` endpoint (the ring stores indices only).
    transition_names: Vec<String>,
}

impl Telemetry {
    /// Everything disabled: the zero-cost default.
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// Attach an event sink; the full search-event stream flows into it.
    pub fn with_sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self.recache();
        self
    }

    /// Enable the metrics registry (histograms fill during the run;
    /// final counters land via [`Telemetry::finalize`]).
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(MetricsRegistry::new());
        self.recache();
        self
    }

    /// Enable the per-transition profile for a machine with
    /// `transition_count` compiled transitions.
    pub fn with_profile(mut self, transition_count: usize) -> Self {
        self.profile = Some(TransitionProfile::new(transition_count));
        self.recache();
        self
    }

    /// Attach a progress reporter.
    pub fn with_progress(mut self, progress: ProgressReporter) -> Self {
        self.progress = Some(progress);
        self.pulse.get_or_insert_with(Pulse::new);
        self
    }

    /// Record the run's search worker count; surfaced on progress
    /// heartbeats (` workers=N`, only when N > 1, so single-worker
    /// heartbeats keep their exact historical shape).
    pub(crate) fn set_workers(&mut self, n: usize) {
        if let Some(p) = &mut self.pulse {
            p.workers = n.max(1);
        }
    }

    /// Enable the flight recorder with a ring of `capacity` records
    /// (see [`DEFAULT_RING_CAPACITY`]). Recording is allocation-free
    /// after warm-up and never reads clocks.
    pub fn with_recorder(mut self, capacity: usize) -> Self {
        self.flight = Some(FlightRecorder::new(capacity));
        self.recache();
        self
    }

    /// Attach the push side of a live introspection endpoint; status
    /// (and metrics/profile, when those facilities are on) documents are
    /// re-rendered into it at most every ~200ms.
    pub fn with_introspection(mut self, handle: IntrospectHandle) -> Self {
        self.introspect = Some(handle);
        self.pulse.get_or_insert_with(Pulse::new);
        self
    }

    /// Provide compiled-transition display names (index → name) for
    /// dump hot-spot rows and the `/profile` endpoint.
    pub fn with_transition_names(mut self, names: Vec<String>) -> Self {
        self.transition_names = names;
        self
    }

    fn recache(&mut self) {
        self.active = self.sink.is_some()
            || self.metrics.is_some()
            || self.profile.is_some()
            || self.flight.is_some();
        self.timing = self.profile.is_some() || self.metrics.is_some();
    }

    /// Whether a step record would reach any view. The search's sink
    /// drops its records otherwise, before any view is consulted.
    #[inline]
    pub(crate) fn hot(&self) -> bool {
        self.active
    }

    /// Start a step timer — `None` (no clock read) unless profiling or
    /// metrics need durations.
    #[inline]
    pub(crate) fn timer(&self) -> Option<Instant> {
        if self.timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Stamp one record with the next merge-order sequence number: the
    /// ring stores it, and the sink, when one is attached, gets the event
    /// `event` builds (none for a recorder-only record). The number
    /// advances only when one of them took the record.
    #[inline]
    fn stamp<'e>(
        &mut self,
        worker: u16,
        rec: &StepRecord,
        event: impl FnOnce() -> Option<SearchEvent<'e>>,
    ) {
        let mut advanced = false;
        if let Some(r) = &mut self.flight {
            r.record(self.seq, rec);
            advanced = true;
        }
        if let Some(sink) = &mut self.sink {
            if let Some(ev) = event() {
                sink.emit(self.seq, worker, &ev);
                advanced = true;
            }
        }
        if advanced {
            self.seq += 1;
        }
    }

    /// Emit the stream's `meta` header once per handle (a resumed or
    /// multi-round analysis keeps one continuous stream) and remember
    /// the mode/spec pair for post-mortem capture.
    pub(crate) fn begin(&mut self, mode: &str, spec: &str) {
        if self.meta_emitted {
            return;
        }
        self.mode = mode.to_string();
        self.spec = spec.to_string();
        if self.sink.is_none() && self.flight.is_none() {
            return;
        }
        self.meta_emitted = true;
        let event = || Some(SearchEvent::Meta { mode, spec });
        self.stamp(0, &StepRecord::meta(), event);
    }

    /// The one entry point of a search step: the record reaches the
    /// ring as is, feeds the metrics histograms (fanout, depth, Generate
    /// latency, bytes at save) and the profile, and — only when a sink is
    /// attached — becomes a [`SearchEvent`] stamped with `worker`.
    /// Inlined, so that at each call site the kind is a constant and the
    /// views it does not feed fold away.
    #[inline]
    pub(crate) fn record(&mut self, machine: &Machine, worker: u16, rec: StepRecord) {
        match rec.kind {
            KIND_GENERATE => {
                if let Some(m) = &mut self.metrics {
                    if self.timing {
                        m.observe(
                            "search.generate_latency_us",
                            metrics::LATENCY_US_BOUNDS,
                            rec.nanos as f64 / 1e3,
                        );
                    }
                    if rec.a > 0 {
                        m.observe("search.fanout", metrics::FANOUT_BOUNDS, rec.a as f64);
                    }
                    m.observe("search.depth", metrics::DEPTH_BOUNDS, f64::from(rec.depth));
                }
            }
            KIND_FIRE => {
                if let Some(p) = &mut self.profile {
                    p.record(rec.trans as usize, rec.flag != 0, rec.nanos);
                }
            }
            KIND_SAVE => {
                if let Some(m) = &mut self.metrics {
                    m.observe(
                        "search.snapshot_bytes_at_save",
                        metrics::SNAPSHOT_BYTES_BOUNDS,
                        rec.b as f64,
                    );
                }
            }
            _ => {}
        }
        self.stamp(worker, &rec, || rec.event(machine));
    }

    /// Record a durable checkpoint write into the stream (the CLI calls
    /// this after each autosave).
    pub fn on_checkpoint(&mut self, te: u64, path: &str) {
        let event = || Some(SearchEvent::Checkpoint { te, path });
        self.stamp(0, &StepRecord::checkpoint(te), event);
    }

    /// Terminal hook of one search: verdict event plus the forced final
    /// heartbeat.
    pub(crate) fn on_verdict(&mut self, verdict: &Verdict, stats: &SearchStats, cap: u64) {
        if self.sink.is_some() || self.flight.is_some() {
            let v = verdict.to_string();
            let (te, ge) = (stats.transitions_executed, stats.generates);
            let event = || {
                Some(SearchEvent::Verdict {
                    verdict: &v,
                    te,
                    ge,
                    re: stats.restores,
                    sa: stats.saves,
                })
            };
            self.stamp(0, &StepRecord::verdict(te, ge), event);
        }
        if let Some(p) = &mut self.pulse {
            p.verdict = verdict.to_string();
            p.cap = cap;
        }
        self.render(stats, self.progress.as_ref().map(|r| r.every), false, true);
    }

    /// MDFS only: the interim verdict changed (ValidSoFar ⇄
    /// LikelyInvalid) — keep `/status` truthful between heartbeats.
    pub(crate) fn on_interim_verdict(&mut self, verdict: &Verdict) {
        if let Some(p) = &mut self.pulse {
            p.verdict = verdict.to_string();
        }
    }

    /// Per-step tick (separate from [`Telemetry::hot`] — a progress-only
    /// configuration still heartbeats). Folds fault deltas into the
    /// flight recorder and, every 256 steps, reads the clock to render
    /// whichever live view is due.
    #[inline]
    pub(crate) fn tick(&mut self, stats: &SearchStats, cap: u64) {
        if self.pulse.as_mut().is_some_and(Pulse::gate) {
            self.pulse(stats, cap);
        } else if let Some(r) = &mut self.flight {
            self.seq += r.note_faults(self.seq, stats);
        }
    }

    /// A tick by the clock: fold fault deltas into the flight recorder,
    /// then render the live views that are due — a heartbeat line once
    /// per progress interval, and `/status` (plus `/metrics` and
    /// `/profile` when those facilities are on) once per 200 ms.
    /// [`Telemetry::tick`] calls it every 256 steps; the burst
    /// coordinator, which is woken by worker batches and 25 ms timeouts
    /// rather than by steps, calls it on each timeout and, while
    /// [`Telemetry::pulsing`], after each batch.
    pub(crate) fn pulse(&mut self, stats: &SearchStats, cap: u64) {
        if let Some(r) = &mut self.flight {
            self.seq += r.note_faults(self.seq, stats);
        }
        if let Some(p) = &mut self.pulse {
            p.cap = cap;
        }
        let every = self.progress.as_ref().map(|r| r.every);
        self.render(stats, every, self.introspect.is_some(), false);
    }

    /// Whether anything pulses: progress or the live endpoint is on.
    #[inline]
    pub(crate) fn pulsing(&self) -> bool {
        self.pulse.is_some()
    }

    /// Write the heartbeat line and push the live endpoint when the
    /// pulse says they are due (see [`Pulse::due`]).
    fn render(&mut self, stats: &SearchStats, every: Option<Duration>, listen: bool, done: bool) {
        let Some(p) = &mut self.pulse else {
            return;
        };
        let Some((hb, beat, push)) = p.due(Instant::now(), stats, every, listen, done) else {
            return;
        };
        if let (true, Some(r)) = (beat, &mut self.progress) {
            r.write(&hb);
        }
        if push {
            self.push(&hb);
        }
    }

    /// Push `/status`, and `/metrics` and `/profile` when those
    /// facilities are on, to the live endpoint.
    fn push(&mut self, hb: &Heartbeat) {
        let Some(handle) = &self.introspect else {
            return;
        };
        let profile = self.profile.is_some().then(|| {
            let rows: Vec<String> = self
                .hotspots(32)
                .iter()
                .map(|h| format!("{{{}}}", h.json_fields()))
                .collect();
            format!(
                "{{\"schema\":\"tango-profile\",\"version\":1,\"rows\":[{}]}}",
                rows.join(",")
            )
        });
        let metrics = self.metrics.as_mut().map(|m| {
            if !hb.done {
                // Mid-run the search has not stamped its wall time yet.
                m.record_stats(&SearchStats {
                    wall_time: hb.elapsed,
                    ..hb.stats.clone()
                });
            }
            m.to_json()
        });
        handle.publish(hb.status_json(), metrics, profile);
    }

    /// Fold the analysis's final counters into the metrics registry,
    /// fold trailing fault deltas into the recorder, push the final
    /// (`done`) status to the live endpoint and flush the sink. Call
    /// once, with `AnalysisReport::stats` (which is cumulative across
    /// initial-state-search rounds and stop/resume).
    pub fn finalize(&mut self, stats: &SearchStats) {
        if let Some(m) = &mut self.metrics {
            m.record_stats(stats);
        }
        if let Some(r) = &mut self.flight {
            self.seq += r.note_faults(self.seq, stats);
        }
        self.render(stats, None, self.introspect.is_some(), true);
        self.flush();
    }

    /// Flush any buffered sink output.
    pub fn flush(&mut self) {
        if let Some(s) = &mut self.sink {
            s.flush();
        }
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_mut()
    }

    /// The transition profile, if enabled.
    pub fn profile(&self) -> Option<&TransitionProfile> {
        self.profile.as_ref()
    }

    /// The flight recorder, if enabled.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Search mode remembered from `begin()` (`""` before any search).
    pub fn mode(&self) -> &str {
        &self.mode
    }

    /// Specification module name remembered from `begin()`.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The `k` hottest transitions of the profile (none when profiling
    /// is off), named where names were provided.
    pub(crate) fn hotspots(&self, k: usize) -> Vec<HotspotRow> {
        let Some(p) = &self.profile else {
            return Vec::new();
        };
        let row = |id: usize| {
            let e = p.entries()[id];
            HotspotRow {
                trans: id as u32,
                name: self.transition_name(id).unwrap_or("?").to_string(),
                fires: e.fires,
                fails: e.fails,
                nanos: e.nanos,
            }
        };
        p.ranked().into_iter().take(k).map(row).collect()
    }

    /// Display name of a compiled transition, when names were provided.
    pub fn transition_name(&self, trans: usize) -> Option<&str> {
        self.transition_names.get(trans).map(String::as_str)
    }

    /// Events emitted so far (the next sequence number).
    pub fn events_emitted(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl() -> Box<JsonlSink<Vec<u8>>> {
        Box::new(JsonlSink::new(Vec::new()))
    }

    #[test]
    fn off_handle_reports_inactive_everywhere() {
        let t = Telemetry::off();
        assert!(!t.hot());
        assert!(t.timer().is_none());
        assert!(t.metrics().is_none());
        assert!(t.profile().is_none());
    }

    #[test]
    fn meta_emitted_once_per_handle() {
        let mut t = Telemetry::off().with_sink(jsonl());
        t.begin("dfs", "tp0");
        t.begin("dfs", "tp0");
        assert_eq!(t.events_emitted(), 1);
    }

    #[test]
    fn seq_numbers_are_contiguous_merge_order() {
        let mut t = Telemetry::off().with_sink(jsonl());
        t.begin("dfs", "s");
        t.on_checkpoint(1, "a.ckpt");
        t.on_checkpoint(2, "b.ckpt");
        assert_eq!(t.events_emitted(), 3);
    }

    #[test]
    fn timing_enabled_by_profile_or_metrics() {
        assert!(Telemetry::off().with_profile(4).timer().is_some());
        assert!(Telemetry::off().with_metrics().timer().is_some());
        assert!(
            Telemetry::off().with_sink(jsonl()).timer().is_none(),
            "the event stream alone must not read clocks"
        );
    }
}
