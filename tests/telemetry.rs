//! Telemetry stream invariants (DESIGN §6.8).
//!
//! Two properties make the event stream trustworthy as an analysis
//! record rather than best-effort logging:
//!
//! * **Determinism** — for a fixed trace, options and a single worker,
//!   the JSONL bytes are identical across runs (no wall-clock values,
//!   no map iteration order, no addresses in the stream);
//! * **Completeness** — the final `SearchStats` counters equal the
//!   per-kind event counts: TE = fire events, GE = generate events,
//!   RE = restore events, SA = save events, for both DFS and MDFS and at
//!   every worker count.
//!
//! Most runs use the invalid TP0 3+3 trace (`tp0::invalid_trace`): the
//! DFS backtracks over every interleaving before rejecting it, so the
//! stream exercises generate, fire (both outcomes), save, restore and
//! prune events.

use protocols::tp0;
use std::io::Write;
use std::sync::{Arc, Mutex};
use tango::{
    AnalysisOptions, AnalysisReport, JsonlSink, OrderOptions, StaticSource, Telemetry, Trace,
    Verdict, DEFAULT_RING_CAPACITY,
};

/// A `Write` target the test can still read after the sink is boxed away
/// inside the telemetry handle.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_handle() -> (Telemetry, SharedBuf) {
    let buf = SharedBuf::default();
    let tel = Telemetry::off().with_sink(Box::new(JsonlSink::new(buf.clone())));
    (tel, buf)
}

fn dfs_run(trace: &Trace, options: &AnalysisOptions) -> (AnalysisReport, String) {
    let analyzer = tp0::analyzer();
    let (mut tel, buf) = traced_handle();
    let report = analyzer.analyze_with(trace, options, &mut tel).unwrap();
    tel.finalize(&report.stats);
    (report, buf.contents())
}

fn mdfs_run(trace: Trace, options: &AnalysisOptions) -> (AnalysisReport, String) {
    let analyzer = tp0::analyzer();
    let (mut tel, buf) = traced_handle();
    let mut source = StaticSource::new(trace);
    let report = analyzer
        .analyze_online_with(&mut source, options, &mut |_| true, &mut tel)
        .unwrap();
    tel.finalize(&report.stats);
    (report, buf.contents())
}

fn count_kind(stream: &str, kind: &str) -> u64 {
    let needle = format!("\"ev\":\"{}\"", kind);
    stream.lines().filter(|l| l.contains(&needle)).count() as u64
}

fn assert_counts_match(report: &AnalysisReport, stream: &str) {
    assert_eq!(
        count_kind(stream, "fire"),
        report.stats.transitions_executed,
        "TE must equal the fire-event count"
    );
    assert_eq!(
        count_kind(stream, "generate"),
        report.stats.generates,
        "GE must equal the generate-event count"
    );
    assert_eq!(
        count_kind(stream, "restore"),
        report.stats.restores,
        "RE must equal the restore-event count"
    );
    assert_eq!(
        count_kind(stream, "save"),
        report.stats.saves,
        "SA must equal the save-event count"
    );
}

#[test]
fn dfs_stream_is_byte_identical_across_runs() {
    let trace = tp0::invalid_trace(3, 3, 1);
    let options = AnalysisOptions::with_order(OrderOptions::none());
    let (r1, s1) = dfs_run(&trace, &options);
    let (r2, s2) = dfs_run(&trace, &options);
    assert_eq!(r1.verdict, Verdict::Invalid);
    assert_eq!(r1.verdict, r2.verdict);
    assert!(s1.lines().count() > 10, "expected a substantial stream");
    assert_eq!(s1, s2, "single-worker stream must be deterministic");
}

#[test]
fn dfs_stream_headers_and_sequence_numbers() {
    let (_, stream) = dfs_run(
        &tp0::invalid_trace(3, 3, 1),
        &AnalysisOptions::with_order(OrderOptions::none()),
    );
    let first = stream.lines().next().unwrap();
    assert!(first.contains("\"ev\":\"meta\""), "{}", first);
    assert!(first.contains("\"schema\":\"tango-trace\""), "{}", first);
    assert!(first.contains("\"mode\":\"dfs\""), "{}", first);
    for (i, line) in stream.lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\":{},\"w\":0,", i)),
            "contiguous seq numbers, single worker: line {} = {}",
            i,
            line
        );
    }
    let last = stream.lines().last().unwrap();
    assert!(last.contains("\"ev\":\"verdict\""), "{}", last);
}

#[test]
fn dfs_event_counts_equal_final_stats() {
    let (report, stream) = dfs_run(
        &tp0::invalid_trace(3, 3, 1),
        &AnalysisOptions::with_order(OrderOptions::none()),
    );
    assert!(report.stats.restores > 0, "workload must backtrack");
    assert_counts_match(&report, &stream);
}

#[test]
fn dfs_valid_trace_event_counts_equal_final_stats() {
    let (report, stream) = dfs_run(
        &tp0::valid_trace(2, 1, 3),
        &AnalysisOptions::with_order(OrderOptions::full()),
    );
    assert!(report.verdict.is_valid());
    assert_counts_match(&report, &stream);
}

#[test]
fn mdfs_stream_is_byte_identical_across_runs() {
    let options = AnalysisOptions::with_order(OrderOptions::none());
    let (r1, s1) = mdfs_run(tp0::invalid_trace(3, 3, 1), &options);
    let (r2, s2) = mdfs_run(tp0::invalid_trace(3, 3, 1), &options);
    assert_eq!(r1.verdict, r2.verdict);
    assert!(s1.lines().next().unwrap().contains("\"mode\":\"mdfs\""));
    assert_eq!(s1, s2, "static-source MDFS stream must be deterministic");
}

#[test]
fn mdfs_event_counts_equal_final_stats() {
    let options = AnalysisOptions::with_order(OrderOptions::none());
    for trace in [
        tp0::invalid_trace(3, 3, 1),
        tp0::complete_valid_trace(3, 3, 1),
    ] {
        let (report, stream) = mdfs_run(trace, &options);
        assert_counts_match(&report, &stream);
        let last = stream.lines().last().unwrap();
        assert!(last.contains("\"ev\":\"verdict\""), "{}", last);
        assert!(
            last.contains(&format!("\"te\":{}", report.stats.transitions_executed)),
            "verdict event carries the final TE: {}",
            last
        );
    }
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning whole streams.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The one-worker MDFS stream is pinned byte for byte: its digest, its
/// line count and the report's snapshot-byte peak. Any change to the
/// sequential engine's event order, its counters or its byte charges
/// shows up here.
#[test]
fn one_worker_mdfs_stream_is_pinned() {
    let mut options = AnalysisOptions::with_order(OrderOptions::none());
    options.workers = 1;
    let pins: [(Trace, u64, usize, usize); 2] = [
        (
            tp0::invalid_trace(3, 3, 1),
            0x7c4e_92a8_f341_7c55,
            301_676,
            8_212,
        ),
        (
            tp0::complete_valid_trace(3, 3, 1),
            0x88fb_b342_ad68_cecb,
            64,
            6_660,
        ),
    ];
    for (trace, digest, lines, peak) in pins {
        let (report, stream) = mdfs_run(trace, &options);
        assert_eq!(
            (
                fnv1a64(stream.as_bytes()),
                stream.lines().count(),
                report.stats.peak_snapshot_bytes
            ),
            (digest, lines, peak),
        );
    }
}

/// The static engine's stream is pinned byte for byte the same way: its
/// digest, its line count and the report's snapshot-byte peak, on the
/// backtracking invalid TP0 trace under NR and on a valid LAPD trace
/// under full order checking.
#[test]
fn static_stream_is_pinned() {
    let tp0_nr = dfs_run(
        &tp0::invalid_trace(3, 3, 1),
        &AnalysisOptions::with_order(OrderOptions::none()),
    );
    let lapd = protocols::lapd::analyzer();
    let (mut tel, buf) = traced_handle();
    let report = lapd
        .analyze_with(
            &protocols::lapd::valid_trace(5, 5, 1),
            &AnalysisOptions::with_order(OrderOptions::full()),
            &mut tel,
        )
        .unwrap();
    tel.finalize(&report.stats);
    assert!(report.verdict.is_valid());
    let lapd_full = (report, buf.contents());
    let pins: [(u64, usize, usize); 2] = [
        (0xab51_8b9a_3fc6_b8f3, 211_100, 8_212),
        (0x4409_3810_0e48_099a, 72, 3_064),
    ];
    for ((report, stream), pin) in [tp0_nr, lapd_full].into_iter().zip(pins) {
        let got = (
            fnv1a64(stream.as_bytes()),
            stream.lines().count(),
            report.stats.peak_snapshot_bytes,
        );
        assert_eq!(got, pin);
    }
}

/// At two and four workers, a trace fed in one poll runs its whole search
/// in post-eof bursts, and a burst that finds the witness is redone by
/// one worker. The stream and the flight recorder must then count the
/// redone work, not the discarded parallel attempt: the per-kind JSONL
/// counts and the recorder's lifetime counts equal TE/GE/RE/SA on every
/// run, whatever the schedule.
#[test]
fn n_worker_stream_and_recorder_equal_the_counters() {
    let cases = [
        (tp0::analyzer(), tp0::valid_trace(3, 3, 20)),
        (
            protocols::lapd::analyzer(),
            protocols::lapd::valid_trace(5, 5, 20),
        ),
    ];
    for (analyzer, trace) in &cases {
        for workers in [4, 2] {
            let mut options = AnalysisOptions::with_order(OrderOptions::full());
            options.workers = workers;
            for run in 0..20 {
                let (tel, buf) = traced_handle();
                let mut tel = tel.with_recorder(DEFAULT_RING_CAPACITY);
                let mut source = StaticSource::new(trace.clone());
                let report = analyzer
                    .analyze_online_with(&mut source, &options, &mut |_| true, &mut tel)
                    .unwrap();
                tel.finalize(&report.stats);
                let at = format!("{} workers, run {}", workers, run);
                assert!(report.verdict.is_valid(), "{}", at);
                let stream = buf.contents();
                let s = &report.stats;
                let r = tel.recorder().expect("recorder enabled");
                let counters = s.counters();
                let kinds = ["fire", "generate", "restore", "save"];
                let events = kinds.map(|k| count_kind(&stream, k));
                let recorded = [r.fires(), r.generates(), r.restores(), r.saves()];
                assert_eq!(events, counters, "JSONL: {}", at);
                assert_eq!(recorded, counters, "recorder: {}", at);
            }
        }
    }
}
