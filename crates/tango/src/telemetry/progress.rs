//! Live progress: one heartbeat snapshot, three renderings.
//!
//! A multi-hour LAPD analysis used to be a silent process. While a
//! search runs, [`Pulse`] turns its counters into one [`Heartbeat`]:
//! the paper's TE/GE/RE/SA, depth, one sliding-window rate and one ETA
//! against the transition cap. That snapshot is rendered as the
//! human-readable `progress: TE=… rate=…/s eta=…` line, as the JSONL
//! heartbeat for machines driving the analyzer (`--progress jsonl`), and
//! as the `/status` document of the live endpoint. A final heartbeat is
//! always emitted when the search ends, so even a short run leaves one
//! line — CI greps for it.

use super::event::json_escape;
use super::http::STATUS_SCHEMA_VERSION;
use crate::stats::SearchStats;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::time::{Duration, Instant};

/// Snapshot samples retained for the sliding-window rate, one per
/// snapshot: the last 16 s of the run at the default 2 s heartbeat, or
/// the last 1.6 s while `/status` is pushed every 200 ms. A slow phase
/// ages out of the window instead of dragging the rate (and the
/// ETA) down for the rest of a multi-hour analysis.
const RATE_WINDOW_BEATS: usize = 8;

/// Search steps between two clock reads: a step pays one counter bump,
/// and every 256th reads the clock to see whether a view is due.
const CLOCK_GATE_TICKS: u32 = 256;

/// Interval of the live endpoint's `/status`, `/metrics` and `/profile`
/// pushes.
const STATUS_EVERY: Duration = Duration::from_millis(200);

/// Rate over the sliding window: TE gained between the oldest retained
/// beat sample `(elapsed_secs, te)` and the current `(t, te)` point,
/// divided by their time span. `None` when there is no prior sample,
/// the span is zero, or the counter moved backwards (callers fall back
/// to the lifetime average).
fn window_rate(window: &VecDeque<(f64, u64)>, t: f64, te: u64) -> Option<f64> {
    let &(t0, te0) = window.front()?;
    if t > t0 && te >= te0 {
        Some((te - te0) as f64 / (t - t0))
    } else {
        None
    }
}

/// Output format of a heartbeat line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressMode {
    /// `progress: TE=… GE=… RE=… SA=… depth=… rate=…/s eta=…s`
    Human,
    /// One JSON object per heartbeat:
    /// `{"ev":"heartbeat","te":…,"ge":…,"re":…,"sa":…,"depth":…,"rate":…,"eta_s":…}`
    Jsonl,
}

/// Where heartbeat lines go, in which format and how often. Owned by
/// [`super::Telemetry`], whose pulse decides when a line is due.
pub struct ProgressReporter {
    mode: ProgressMode,
    pub(crate) every: Duration,
    out: Box<dyn Write + Send>,
}

impl ProgressReporter {
    /// A reporter writing to `out` every `every` (heartbeats are also
    /// forced on search end regardless of the interval).
    pub fn new(mode: ProgressMode, every: Duration, out: Box<dyn Write + Send>) -> Self {
        ProgressReporter { mode, every, out }
    }

    /// A reporter on standard error — where the CLI points `--progress`
    /// so heartbeats never corrupt the report on stdout.
    pub fn stderr(mode: ProgressMode, every: Duration) -> Self {
        ProgressReporter::new(mode, every, Box::new(std::io::stderr()))
    }

    /// Write one heartbeat line in this reporter's format.
    pub(crate) fn write(&mut self, beat: &Heartbeat) {
        let line = match self.mode {
            ProgressMode::Human => beat.human(),
            ProgressMode::Jsonl => beat.jsonl(),
        };
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.flush();
    }
}

/// One moment of a running search, as every live view shows it: the
/// counters (TE/GE/RE/SA, depth, faults, bytes) plus what the
/// pulse derives from them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Heartbeat {
    pub stats: SearchStats,
    /// Time since the pulse started: the run's wall time so far.
    pub elapsed: Duration,
    /// Transitions per second over the rate window.
    pub rate: f64,
    /// Seconds to the transition cap at `rate`; `None` when there is no
    /// cap to reach, no rate to reach it at, or the search is over.
    pub eta_s: Option<f64>,
    pub workers: usize,
    /// The verdict so far.
    pub verdict: String,
    pub done: bool,
}

impl Heartbeat {
    // The optional heartbeat fields appear only once they carry news,
    // so a one-worker, fault-free heartbeat keeps its exact
    // historical shape (and the pinned line prefixes). `/status` has a
    // fixed schema and always shows its fields.

    fn multi_worker(&self) -> Option<usize> {
        (self.workers > 1).then_some(self.workers)
    }

    fn fault_retries(&self) -> Option<u64> {
        Some(self.stats.total_fault_retries()).filter(|&r| r > 0)
    }

    /// `progress: TE=… GE=… RE=… SA=… depth=…[ workers=N] rate=…/s
    /// eta=…s[ retries=…][ (done)]`; an unknown ETA
    /// reads `0.0`.
    pub(crate) fn human(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "progress: TE={} GE={} RE={} SA={} depth={}",
            s.transitions_executed, s.generates, s.restores, s.saves, s.max_depth
        );
        if let Some(n) = self.multi_worker() {
            let _ = write!(out, " workers={}", n);
        }
        let eta = self.eta_s.unwrap_or(0.0);
        let _ = write!(out, " rate={:.0}/s eta={:.1}s", self.rate, eta);
        if let Some(r) = self.fault_retries() {
            let _ = write!(out, " retries={}", r);
        }
        out.push_str(if self.done { " (done)\n" } else { "\n" });
        out
    }

    /// The JSONL heartbeat, optional fields in the same places as the
    /// human line; an unknown ETA reads `0.0`.
    pub(crate) fn jsonl(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "{{\"ev\":\"heartbeat\",\"te\":{},\"ge\":{},\"re\":{},\"sa\":{},\"depth\":{},",
            s.transitions_executed, s.generates, s.restores, s.saves, s.max_depth
        );
        if let Some(n) = self.multi_worker() {
            let _ = write!(out, "\"workers\":{},", n);
        }
        let eta = self.eta_s.unwrap_or(0.0);
        let _ = write!(out, "\"rate\":{:.1},\"eta_s\":{:.1},", self.rate, eta);
        if let Some(r) = self.fault_retries() {
            let _ = write!(out, "\"retries\":{},", r);
        }
        let _ = writeln!(out, "\"done\":{}}}", self.done);
        out
    }

    /// The `/status` document: verdict so far, counters, rate, ETA
    /// (`null` when unknown), faults and bytes.
    pub(crate) fn status_json(&self) -> String {
        let s = &self.stats;
        let eta = self.eta_s.map_or("null".to_string(), |e| format!("{:.0}", e));
        format!(
            "{{\"schema\":\"tango-status\",\"version\":{},\"verdict\":\"{}\",\
             \"te\":{},\"ge\":{},\"re\":{},\"sa\":{},\"depth\":{},\"rate\":{:.1},\"eta_s\":{},\
             \"retries\":{},\"giveups\":{},\"resident_bytes\":{},\
             \"done\":{}}}",
            STATUS_SCHEMA_VERSION,
            json_escape(&self.verdict),
            s.transitions_executed,
            s.generates,
            s.restores,
            s.saves,
            s.max_depth,
            self.rate,
            eta,
            s.total_fault_retries(),
            s.total_fault_giveups(),
            s.snapshot_bytes,
            self.done
        )
    }
}

/// The clock and rate behind every heartbeat. [`super::Telemetry`] owns
/// one while progress or the live endpoint is on: the search ticks it
/// once per step, and it reads the clock once per [`CLOCK_GATE_TICKS`]
/// ticks to see whether a view is due.
pub(crate) struct Pulse {
    started: Instant,
    ticks: u32,
    /// The last [`RATE_WINDOW_BEATS`] snapshot samples, oldest first.
    window: VecDeque<(f64, u64)>,
    /// When the last heartbeat line and the last `/status` push went out.
    last_beat: Instant,
    last_push: Instant,
    /// Search workers feeding the counters. Multi-worker runs aggregate
    /// all workers into one TE stream before ticking, so the window
    /// still sees a single producer; a witness-aborted burst rolls that
    /// TE back, which the sample purge absorbs.
    pub(crate) workers: usize,
    pub(crate) verdict: String,
    /// Transition cap from the most recent tick, for the ETA.
    pub(crate) cap: u64,
}

impl Pulse {
    pub(crate) fn new() -> Self {
        let now = Instant::now();
        Pulse {
            started: now,
            ticks: 0,
            window: VecDeque::with_capacity(RATE_WINDOW_BEATS + 1),
            last_beat: now,
            last_push: now,
            workers: 1,
            verdict: "running".to_string(),
            cap: u64::MAX,
        }
    }

    /// Count one search step; true on every [`CLOCK_GATE_TICKS`]th.
    #[inline]
    pub(crate) fn gate(&mut self) -> bool {
        self.ticks = self.ticks.wrapping_add(1);
        self.ticks.is_multiple_of(CLOCK_GATE_TICKS)
    }

    /// The snapshot of `stats` at `now` and the views it is due in
    /// (heartbeat line, `/status` push), or `None` when neither is. A
    /// line is due once `every`, the progress interval (`None` with
    /// progress off), has passed since the last; a push once
    /// [`STATUS_EVERY`] has, while `listening`. When the search is
    /// `done`, every view asked for is due.
    pub(crate) fn due(
        &mut self,
        now: Instant,
        stats: &SearchStats,
        every: Option<Duration>,
        listening: bool,
        done: bool,
    ) -> Option<(Heartbeat, bool, bool)> {
        let beat = every.is_some_and(|e| done || now.duration_since(self.last_beat) >= e);
        let push = listening && (done || now.duration_since(self.last_push) >= STATUS_EVERY);
        if beat {
            self.last_beat = now;
        }
        if push {
            self.last_push = now;
        }
        (beat || push).then(|| (self.snapshot(now, stats, done), beat, push))
    }

    /// The snapshot of `stats` at `now`, which also becomes the rate
    /// window's newest sample.
    fn snapshot(&mut self, now: Instant, stats: &SearchStats, done: bool) -> Heartbeat {
        let elapsed = now.duration_since(self.started);
        let t = elapsed.as_secs_f64();
        let te = stats.transitions_executed;
        // Sliding-window rate when the window is meaningful, lifetime
        // average since the pulse started otherwise (first snapshot, or
        // one in the same instant as the previous).
        let rate = window_rate(&self.window, t, te).unwrap_or_else(|| {
            if t > 0.0 {
                te as f64 / t
            } else {
                0.0
            }
        });
        let eta_s = if done || rate <= 0.0 || self.cap == u64::MAX || te >= self.cap {
            None
        } else {
            Some((self.cap - te) as f64 / rate)
        };
        self.push_sample(t, te);
        Heartbeat {
            stats: stats.clone(),
            elapsed,
            rate,
            eta_s,
            workers: self.workers,
            verdict: self.verdict.clone(),
            done,
        }
    }

    /// Append one sample and evict beyond the window capacity. Samples
    /// ahead of the current counter are purged first: a multi-worker
    /// witness abort rolls the aggregated TE back to the burst start,
    /// and keeping the inflated samples would wedge the window rate on
    /// its fallback for up to a full window span.
    fn push_sample(&mut self, t: f64, te: u64) {
        while self.window.back().is_some_and(|&(_, te0)| te0 > te) {
            self.window.pop_back();
        }
        self.window.push_back((t, te));
        while self.window.len() > RATE_WINDOW_BEATS {
            self.window.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{IntrospectionServer, Telemetry};
    use crate::verdict::Verdict;

    fn stats(te: u64) -> SearchStats {
        SearchStats {
            transitions_executed: te,
            generates: te / 2,
            max_depth: 5,
            ..Default::default()
        }
    }

    /// A pulse `secs` into its run against transition cap `cap`.
    fn pulse_at(secs: f64, cap: u64) -> (Pulse, Instant) {
        let mut p = Pulse::new();
        p.cap = cap;
        let now = p.started + Duration::from_secs_f64(secs);
        (p, now)
    }

    #[test]
    fn the_three_renderings_of_one_snapshot_agree() {
        let (mut p, now) = pulse_at(2.0, 1000);
        let s = SearchStats {
            restores: 7,
            saves: 9,
            ..stats(400)
        };
        let hb = p.snapshot(now, &s, false);
        let human = "progress: TE=400 GE=200 RE=7 SA=9 depth=5 rate=200/s eta=3.0s";
        assert!(hb.human().starts_with(human), "{}", hb.human());
        let json = "\"te\":400,\"ge\":200,\"re\":7,\"sa\":9,\"depth\":5,\"rate\":200.0,\"eta_s\":3";
        let jsonl = format!("{{\"ev\":\"heartbeat\",{}.0,", json);
        assert!(hb.jsonl().starts_with(&jsonl), "{}", hb.jsonl());
        let status = format!("\"verdict\":\"running\",{},", json);
        assert!(hb.status_json().contains(&status), "{}", hb.status_json());
        // An unknown ETA keeps each document's spelling.
        let done = p.snapshot(now, &s, true);
        assert!(done.human().ends_with(" eta=0.0s (done)\n"), "{}", done.human());
        let end = "\"eta_s\":0.0,\"done\":true}\n";
        assert!(done.jsonl().ends_with(end), "{}", done.jsonl());
        assert!(done.status_json().contains("\"eta_s\":null,"), "{}", done.status_json());
        let (mut p, now) = pulse_at(1.0, u64::MAX);
        assert_eq!(p.snapshot(now, &s, false).eta_s, None, "no cap");
        let (mut p, now) = pulse_at(1.0, 400);
        assert_eq!(p.snapshot(now, &s, false).eta_s, None, "cap reached");
    }

    #[test]
    fn retry_field_appears_only_under_fault_activity() {
        let (mut p, now) = pulse_at(1.0, 100);
        let mut s = stats(10);
        let clean = p.snapshot(now, &s, false);
        s.source_retries = 3;
        s.checkpoint_retries = 3;
        let faulty = p.snapshot(now, &s, true);
        assert!(!clean.human().contains("retries="), "{}", clean.human());
        assert!(!clean.jsonl().contains("retries"), "{}", clean.jsonl());
        assert!(faulty.human().contains(" retries=6 (done)"), "{}", faulty.human());
        assert!(faulty.jsonl().contains("\"retries\":6,\"done\":true"), "{}", faulty.jsonl());
        assert!(clean.status_json().contains("\"retries\":0,"));
        assert!(faulty.status_json().contains("\"retries\":6,"));
        // `/status` always carries its byte field.
        assert!(clean.status_json().contains("\"resident_bytes\":0,"));
    }

    #[test]
    fn workers_field_appears_only_on_multi_worker_runs() {
        let (mut p, now) = pulse_at(1.0, 100);
        let one = p.snapshot(now, &stats(10), false);
        p.workers = 4;
        let four = p.snapshot(now, &stats(20), true);
        assert!(!one.human().contains("workers="), "{}", one.human());
        assert!(!one.jsonl().contains("workers"), "{}", one.jsonl());
        assert!(four.human().contains(" depth=5 workers=4 rate="), "{}", four.human());
        assert!(
            four.jsonl().contains("\"depth\":5,\"workers\":4,\"rate\":"),
            "{}",
            four.jsonl()
        );
    }

    #[test]
    fn window_rate_follows_the_recent_phase_after_eviction() {
        let mut p = Pulse::new();
        // A slow phase: one TE every 10 seconds for 8 beats …
        for i in 0..8u64 {
            p.push_sample(i as f64 * 10.0, i);
        }
        // … then a fast phase of 100 TE/s. Eight fast beats evict every
        // slow sample (eviction is what distinguishes the window from a
        // cumulative average).
        for j in 0..8u64 {
            p.push_sample(80.0 + j as f64, 7 + (j + 1) * 100);
        }
        assert_eq!(p.window.len(), 8, "window is capped");
        assert_eq!(
            *p.window.front().unwrap(),
            (80.0, 107),
            "slow-phase samples must have aged out"
        );
        let rate = window_rate(&p.window, 88.0, 907).unwrap();
        assert!(
            (rate - 100.0).abs() < 1e-9,
            "window rate must be the fast phase's 100/s, not the \
             cumulative ~10/s; got {rate}"
        );
        // The snapshot reports the window's rate, not the lifetime one.
        let now = p.started + Duration::from_secs(88);
        let hb = p.snapshot(now, &stats(907), false);
        assert!((hb.rate - 100.0).abs() < 1e-9, "{}", hb.rate);
    }

    #[test]
    fn window_rate_falls_back_when_the_window_is_unusable() {
        let empty = VecDeque::new();
        assert!(window_rate(&empty, 5.0, 100).is_none(), "no prior sample");
        let mut w = VecDeque::new();
        w.push_back((5.0, 100));
        assert!(window_rate(&w, 5.0, 200).is_none(), "zero time span");
        assert!(
            window_rate(&w, 6.0, 50).is_none(),
            "TE moved backwards (resumed handle)"
        );
        assert_eq!(window_rate(&w, 7.0, 300), Some(100.0));
    }

    #[test]
    fn window_recovers_after_a_multi_worker_rollback() {
        let mut p = Pulse::new();
        // Aggregated TE climbs, then a witness-aborted burst rolls it
        // back to the burst-start value …
        for i in 0..6u64 {
            p.push_sample(i as f64, i * 100);
        }
        p.push_sample(6.0, 250); // rollback: burst deltas discarded
        // … and the inflated samples must be gone so the very next beat
        // measures the replay's real rate instead of wedging on the
        // lifetime-average fallback.
        assert!(
            p.window.iter().all(|&(_, te)| te <= 250),
            "samples ahead of the rolled-back counter must be purged"
        );
        let rate = window_rate(&p.window, 7.0, 300).unwrap();
        assert!(rate > 0.0, "rate must be measurable right after rollback");
    }

    /// A `Write` handle the test can read back out of the reporter.
    #[derive(Clone, Default)]
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn progress(mode: ProgressMode, every: Duration) -> (Telemetry, Shared) {
        let buf = Shared::default();
        let reporter = ProgressReporter::new(mode, every, Box::new(buf.clone()));
        (Telemetry::off().with_progress(reporter), buf)
    }

    /// Each mode's pinned start of the heartbeat line at TE=`te` (with
    /// GE = TE/2), and its `done` line end.
    fn line_shape(mode: ProgressMode, te: u64) -> (String, &'static str) {
        match mode {
            ProgressMode::Human => (format!("progress: TE={} GE={} ", te, te / 2), " (done)\n"),
            ProgressMode::Jsonl => (
                format!("{{\"ev\":\"heartbeat\",\"te\":{},\"ge\":{},", te, te / 2),
                "\"done\":true}\n",
            ),
        }
    }

    #[test]
    fn jsonl_mode_emits_machine_readable_lines() {
        let (mut t, buf) = progress(ProgressMode::Jsonl, Duration::ZERO);
        t.pulse(&stats(10), 100);
        t.on_verdict(&Verdict::Valid, &stats(20), 100);
        let text = buf.text();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{}", text);
        assert!(lines[0].starts_with("{\"ev\":\"heartbeat\",\"te\":10,"), "{}", text);
        assert!(lines[0].ends_with("\"done\":false}"), "{}", text);
        assert!(lines[1].starts_with("{\"ev\":\"heartbeat\",\"te\":20,"), "{}", text);
        assert!(lines[1].ends_with("\"done\":true}"), "{}", text);
    }

    #[test]
    fn interval_gates_periodic_beats_but_not_the_verdict() {
        for mode in [ProgressMode::Human, ProgressMode::Jsonl] {
            let (mut t, buf) = progress(mode, Duration::from_secs(3600));
            for te in 0..1000 {
                t.tick(&stats(te), 1000);
            }
            assert!(buf.text().is_empty(), "{:?}: interval not elapsed", mode);
            t.on_verdict(&Verdict::Valid, &stats(1000), 1000);
            let (start, end) = line_shape(mode, 1000);
            let text = buf.text();
            assert_eq!(text.lines().count(), 1, "{}", text);
            assert!(text.starts_with(&start), "{}", text);
            assert!(text.ends_with(end), "{}", text);
        }
    }

    #[test]
    fn steps_read_the_clock_once_per_256_ticks() {
        for mode in [ProgressMode::Human, ProgressMode::Jsonl] {
            let (mut t, buf) = progress(mode, Duration::ZERO);
            for te in 0..255 {
                t.tick(&stats(te), 1000);
            }
            assert!(buf.text().is_empty(), "the clock is not read before tick 256");
            t.tick(&stats(255), 1000);
            let (start, _) = line_shape(mode, 255);
            assert!(buf.text().starts_with(&start), "{}", buf.text());
            assert_eq!(buf.text().lines().count(), 1, "{}", buf.text());
        }
    }

    #[test]
    fn a_coordinator_pulsing_every_25ms_gets_its_heartbeat_on_time() {
        // The burst coordinator wakes every 25 ms, far fewer times than
        // the 256-tick gate needs; it pulses by the clock instead.
        let (mut t, buf) = progress(ProgressMode::Human, Duration::from_secs(1));
        let t0 = Instant::now();
        while buf.text().is_empty() && t0.elapsed() < Duration::from_secs(3) {
            std::thread::sleep(Duration::from_millis(25));
            t.pulse(&stats(100), 1000);
        }
        let waited = t0.elapsed();
        assert!(buf.text().starts_with("progress: TE=100 "), "{}", buf.text());
        assert!(waited < Duration::from_secs(2), "heartbeat took {:?}", waited);
    }

    #[test]
    fn the_first_pulse_of_a_fresh_run_has_a_rate_in_every_rendering() {
        // The search stamps `wall_time` only when it ends: the rate and
        // `/metrics`' wall seconds come from the pulse's own clock.
        let server = IntrospectionServer::bind("127.0.0.1:0").expect("bind");
        let (t, buf) = progress(ProgressMode::Human, Duration::ZERO);
        let mut t = t.with_metrics().with_introspection(server.handle());
        std::thread::sleep(STATUS_EVERY);
        t.pulse(&stats(500), 100_000_000);
        assert!(buf.text().starts_with("progress: TE=500 "), "{}", buf.text());
        assert!(!buf.text().contains(" rate=0/s"), "{}", buf.text());
        let status = server.handle().status();
        assert!(status.contains("\"te\":500,"), "{}", status);
        assert!(!status.contains("\"rate\":0.0,"), "{}", status);
        assert!(!status.contains("\"eta_s\":null"), "{}", status);
        let wall = t.metrics().unwrap().gauge("search.wall_seconds").unwrap();
        assert!(wall >= STATUS_EVERY.as_secs_f64(), "{}", wall);
    }
}
