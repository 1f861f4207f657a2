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
//! * **Progress reporter** ([`progress`]) — periodic heartbeat with
//!   rate and ETA against the transition cap, human or JSONL.
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
//! and a worker id, so multi-worker streams stay merge-ordered; it
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
use event::json_escape;
pub(crate) use recorder::StepRecord;
use recorder::{KIND_FIRE, KIND_GENERATE, KIND_SAVE};
use std::fmt::Write as _;
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
    introspect: Option<Introspection>,
    /// Merge-order sequence number of the next event.
    seq: u64,
    /// Worker id stamped on every event (MDFS workers; 0 for DFS).
    worker: u16,
    /// Cached: any of sink/metrics/profile/recorder is on (progress is
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

/// Push-side state for the live endpoint: rate-limits renders so the
/// search pays one clock read every few hundred steps, not per step.
struct Introspection {
    handle: IntrospectHandle,
    /// Step counter; the clock is consulted every 256 ticks.
    ticks: u32,
    last_push: Instant,
    every: Duration,
    /// Previous push's (instant, TE) for the status rate.
    last_sample: Option<(Instant, u64)>,
    /// Verdict-so-far shown by `/status` while the search runs.
    verdict: String,
    /// Transition cap from the most recent tick, for ETA.
    cap: u64,
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
        self
    }

    /// Set the worker id stamped on subsequent events.
    pub fn with_worker(mut self, worker: u16) -> Self {
        self.worker = worker;
        self
    }

    /// The worker id stamped on the calling thread's events (a spawned
    /// worker's records carry their own, see [`Telemetry::record`]).
    pub(crate) fn worker(&self) -> u16 {
        self.worker
    }

    /// Record the run's search worker count; surfaced on progress
    /// heartbeats (` workers=N`, only when N > 1, so single-worker
    /// heartbeats keep their exact historical shape).
    pub(crate) fn set_workers(&mut self, n: usize) {
        if let Some(p) = &mut self.progress {
            p.set_workers(n);
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
        self.introspect = Some(Introspection {
            handle,
            ticks: 0,
            last_push: Instant::now(),
            every: Duration::from_millis(200),
            last_sample: None,
            verdict: "running".to_string(),
            cap: 0,
        });
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
        self.stamp(self.worker, &StepRecord::meta(), event);
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
        self.stamp(self.worker, &StepRecord::checkpoint(te), event);
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
            self.stamp(self.worker, &StepRecord::verdict(te, ge), event);
        }
        if let Some(i) = &mut self.introspect {
            i.verdict = verdict.to_string();
        }
        if let Some(p) = &mut self.progress {
            p.finish(stats, cap);
        }
    }

    /// MDFS only: the interim verdict changed (ValidSoFar ⇄
    /// LikelyInvalid) — keep `/status` truthful between heartbeats.
    pub(crate) fn on_interim_verdict(&mut self, verdict: &Verdict) {
        if let Some(i) = &mut self.introspect {
            i.verdict = verdict.to_string();
        }
    }

    /// Per-step progress tick (separate from [`Telemetry::hot`] — a
    /// progress-only configuration still heartbeats). Also folds fault
    /// deltas into the flight recorder and, every few hundred steps,
    /// refreshes the live endpoint.
    #[inline]
    pub(crate) fn tick(&mut self, stats: &SearchStats, cap: u64) {
        if let Some(p) = &mut self.progress {
            p.tick(stats, cap);
        }
        if let Some(r) = &mut self.flight {
            self.seq += r.note_faults(self.seq, stats);
        }
        if self.introspect.is_some() {
            self.introspect_tick(stats, cap, false);
        }
    }

    /// Rate-limited push of `/status` (plus `/metrics` and `/profile`
    /// when those facilities are on). The per-step cost while idle is
    /// one counter bump; the clock is read every 256 steps.
    fn introspect_tick(&mut self, stats: &SearchStats, cap: u64, force: bool) {
        let due = {
            let i = self.introspect.as_mut().expect("introspect checked by caller");
            i.cap = cap;
            i.ticks = i.ticks.wrapping_add(1);
            if !force && i.ticks & 0xFF != 0 {
                return;
            }
            let now = Instant::now();
            let due = force || now.duration_since(i.last_push) >= i.every;
            if due {
                i.last_push = now;
            }
            due
        };
        if !due {
            return;
        }
        let status = self.render_status_json(stats, force);
        let profile_json = self.profile.as_ref().map(|p| {
            let names = &self.transition_names;
            let mut out = String::from("{\"schema\":\"tango-profile\",\"version\":1,\"rows\":[");
            for (n, id) in p.ranked().into_iter().take(32).enumerate() {
                let e = p.entries()[id];
                if n > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"trans\":{},\"name\":\"{}\",\"fires\":{},\"fails\":{},\"nanos\":{}}}",
                    id,
                    json_escape(names.get(id).map(String::as_str).unwrap_or("?")),
                    e.fires,
                    e.fails,
                    e.nanos
                );
            }
            out.push_str("]}");
            out
        });
        let metrics_json = self.metrics.as_mut().map(|m| {
            m.record_stats(stats);
            m.to_json()
        });
        let i = self.introspect.as_mut().expect("introspect checked above");
        i.handle.set_status(status);
        if let Some(p) = profile_json {
            i.handle.set_profile(p);
        }
        if let Some(m) = metrics_json {
            i.handle.set_metrics(m);
        }
        i.last_sample = Some((i.last_push, stats.transitions_executed));
    }

    /// Render the `/status` document: the progress heartbeat's fields as
    /// one JSON object.
    fn render_status_json(&self, stats: &SearchStats, done: bool) -> String {
        let i = self.introspect.as_ref().expect("introspect checked by caller");
        let te = stats.transitions_executed;
        let rate = match i.last_sample {
            Some((t0, te0)) if te >= te0 => {
                let dt = i.last_push.duration_since(t0).as_secs_f64();
                if dt > 0.0 {
                    (te - te0) as f64 / dt
                } else {
                    stats.transitions_per_second()
                }
            }
            _ => stats.transitions_per_second(),
        };
        let eta = if done || rate <= 0.0 || i.cap == u64::MAX || i.cap <= te {
            None
        } else {
            Some((i.cap - te) as f64 / rate)
        };
        let mut out = format!(
            "{{\"schema\":\"tango-status\",\"version\":{},\"verdict\":\"{}\",\
             \"te\":{},\"ge\":{},\"re\":{},\"sa\":{},\"depth\":{},\"rate\":{:.1}",
            STATUS_SCHEMA_VERSION,
            json_escape(&i.verdict),
            te,
            stats.generates,
            stats.restores,
            stats.saves,
            stats.max_depth,
            rate
        );
        match eta {
            Some(s) => {
                let _ = write!(out, ",\"eta_s\":{:.0}", s);
            }
            None => out.push_str(",\"eta_s\":null"),
        }
        let _ = write!(
            out,
            ",\"retries\":{},\"giveups\":{},\"resident_bytes\":{},\"spilled_bytes\":{},\
             \"done\":{}}}",
            stats.total_fault_retries(),
            stats.total_fault_giveups(),
            stats.snapshot_bytes,
            stats.spilled_bytes,
            done
        );
        out
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
        if self.introspect.is_some() {
            self.introspect_tick(stats, self.introspect.as_ref().map_or(0, |i| i.cap), true);
        }
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
