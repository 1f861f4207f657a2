//! Flight recorder and post-mortem dump integration: determinism of the
//! RING section, dump coverage of every inconclusive variant, and the
//! recorder-counts-vs-final-stats consistency the dump format promises.

use protocols::tp0;
use std::time::Duration;
use tango::trace::source::Poll;
use tango::{
    should_dump, AnalysisOptions, AnalysisReport, Event, InconclusiveReason, OrderOptions,
    PostMortemDump, SearchStats, Tango, Telemetry, TraceAnalyzer, TraceSource, Verdict,
    DEFAULT_RING_CAPACITY,
};

/// Two observationally identical transitions per `ping` double the
/// search tree at every event; the trailing never-produced `pong` forces
/// a full exhaustion with plenty of saves, restores and prunes.
const FORK_SPEC: &str = include_str!("../specs/forker.est");

fn forker() -> TraceAnalyzer {
    Tango::generate(FORK_SPEC).expect("valid specification")
}

fn fork_trace(pings: usize) -> String {
    let mut t = String::new();
    for _ in 0..pings {
        t.push_str("in U.ping\n");
    }
    t.push_str("out U.pong\n");
    t
}

fn recorder_tel(analyzer: &TraceAnalyzer) -> Telemetry {
    Telemetry::off()
        .with_recorder(DEFAULT_RING_CAPACITY)
        .with_transition_names(analyzer.transition_names())
}

fn run_with_recorder(
    analyzer: &TraceAnalyzer,
    trace: &str,
    options: &AnalysisOptions,
) -> (AnalysisReport, Telemetry) {
    let mut tel = recorder_tel(analyzer);
    let report = analyzer
        .analyze_text_with(trace, options, &mut tel)
        .expect("analyzable trace");
    tel.finalize(&report.stats);
    (report, tel)
}

#[test]
fn ring_section_is_byte_identical_across_identical_runs() {
    let analyzer = forker();
    let trace = fork_trace(7);
    let options = AnalysisOptions::default();

    let capture = |(report, tel): (AnalysisReport, Telemetry)| {
        let dump = PostMortemDump::capture(&report, &tel, None, None);
        (dump.ring_section_bytes(), report)
    };
    let (ring_a, report_a) = capture(run_with_recorder(&analyzer, &trace, &options));
    let (ring_b, report_b) = capture(run_with_recorder(&analyzer, &trace, &options));

    assert_eq!(report_a.verdict, report_b.verdict);
    assert_eq!(
        report_a.stats.transitions_executed,
        report_b.stats.transitions_executed
    );
    assert!(!ring_a.is_empty(), "the ring must retain records");
    assert_eq!(
        ring_a, ring_b,
        "identical runs must serialize byte-identical RING sections \
         (the recorder reads no clocks and allocates nothing per event)"
    );
}

#[test]
fn recorder_counts_are_consistent_with_final_stats() {
    let analyzer = forker();
    let (report, tel) = run_with_recorder(&analyzer, &fork_trace(6), &AnalysisOptions::default());
    let r = tel.recorder().expect("recorder enabled");
    let s = &report.stats;
    assert_eq!(r.fires(), s.transitions_executed, "TE");
    assert_eq!(r.generates(), s.generates, "GE");
    assert_eq!(r.restores(), s.restores, "RE");
    assert_eq!(r.saves(), s.saves, "SA");
    assert!(r.seen() >= r.fires() + r.generates() + r.restores() + r.saves());
}

#[test]
fn dump_is_emitted_on_every_real_inconclusive_variant() {
    let analyzer = forker();
    let trace = fork_trace(8);
    let dir = std::env::temp_dir().join(format!("tango-fr-dumps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Each limit provokes its reason through a genuine search, not a
    // synthetic report.
    let variants: Vec<(&str, AnalysisOptions, InconclusiveReason)> = vec![
        (
            "transition-limit",
            {
                let mut o = AnalysisOptions::default();
                o.limits.max_transitions = 3;
                o
            },
            InconclusiveReason::TransitionLimit,
        ),
        (
            "depth-limit",
            {
                let mut o = AnalysisOptions::default();
                o.limits.max_depth = 2;
                o
            },
            InconclusiveReason::DepthLimit,
        ),
        (
            "time-limit",
            {
                let mut o = AnalysisOptions::default();
                o.limits.max_wall_time = Some(Duration::from_nanos(1));
                o
            },
            InconclusiveReason::TimeLimit,
        ),
        (
            "memory-limit",
            {
                let mut o = AnalysisOptions::default();
                o.limits.max_state_bytes = Some(1);
                o
            },
            InconclusiveReason::MemoryLimit,
        ),
    ];
    for (tag, options, expect) in variants {
        let (report, tel) = run_with_recorder(&analyzer, &trace, &options);
        assert_eq!(
            report.verdict,
            Verdict::Inconclusive(expect),
            "{}: the limit must actually trip",
            tag
        );
        assert!(should_dump(&report), "{}: inconclusive ⇒ dump", tag);
        let dump = PostMortemDump::capture(&report, &tel, None, None);
        let path = dir.join(format!("{}.tangodump", tag));
        dump.write_to(&path).unwrap();
        let back = PostMortemDump::read_from(&path).unwrap();
        assert_eq!(back.encode(), dump.encode(), "{}: round-trip", tag);
        assert_eq!(
            back.stats.transitions_executed, report.stats.transitions_executed,
            "{}: dump stats must be the final stats",
            tag
        );
        // The acceptance invariant: lifetime RING counts agree with the
        // final TE/GE/RE/SA of the (non-resumed) run.
        let r = tel.recorder().unwrap();
        assert_eq!(r.fires(), report.stats.transitions_executed, "{}", tag);
        assert_eq!(r.generates(), report.stats.generates, "{}", tag);
        assert_eq!(r.restores(), report.stats.restores, "{}", tag);
        assert_eq!(r.saves(), report.stats.saves, "{}", tag);
        std::fs::remove_file(&path).ok();
    }

    // The variant no small in-process run can provoke cheaply is still
    // dump-worthy by construction.
    let reason = InconclusiveReason::PgNodeLimit;
    let report = AnalysisReport::new(Verdict::Inconclusive(reason), SearchStats::default());
    assert!(should_dump(&report), "{:?}", reason);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conclusive_clean_runs_never_ask_for_a_dump() {
    let analyzer = forker();
    // Exhaustive invalid run: conclusive, no faults — no dump.
    let (report, _tel) = run_with_recorder(&analyzer, &fork_trace(4), &AnalysisOptions::default());
    assert_eq!(report.verdict, Verdict::Invalid);
    assert!(!should_dump(&report));
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning byte strings.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Delivers one event per poll, then eof: every event starts a new round
/// of parking and revival.
struct OneByOne(std::vec::IntoIter<Event>);

impl TraceSource for OneByOne {
    fn poll(&mut self) -> Poll {
        let events: Vec<Event> = self.0.next().into_iter().collect();
        Poll {
            eof: events.is_empty(),
            events,
        }
    }
}

/// The recorder is pinned, not only self-consistent: the digest of the
/// RING section and the lifetime record count of a static TP0 3+3 NR
/// invalid run and of a one-worker on-line run of the same trace fed one
/// event per poll. Any change to what a search step records, in which
/// order, or how a record is encoded shows up here.
#[test]
fn ring_section_is_pinned() {
    let tp0 = tp0::analyzer();
    // The paper's §4.2 invalid trace with 3 upper and 3 lower data
    // interactions.
    let trace = tp0::invalid_trace(3, 3, 1);
    let mut options = AnalysisOptions::with_order(OrderOptions::none());
    options.workers = 1;

    let mut tel = recorder_tel(&tp0);
    let report = tp0
        .analyze_with(&trace, &options, &mut tel)
        .expect("static run");
    tel.finalize(&report.stats);
    let static_run = (report, tel);

    let mut tel = recorder_tel(&tp0);
    let mut source = OneByOne(trace.events.clone().into_iter());
    let report = tp0
        .analyze_online_with(&mut source, &options, &mut |_| true, &mut tel)
        .expect("on-line run");
    tel.finalize(&report.stats);
    let online_run = (report, tel);

    let pins: [(u64, u64); 2] = [
        (0x0f43_f332_5883_24e8, 211_100),
        (0x692a_a80f_bdf2_79de, 607_271),
    ];
    for ((report, tel), pin) in [static_run, online_run].into_iter().zip(pins) {
        assert_eq!(report.verdict, Verdict::Invalid);
        let dump = PostMortemDump::capture(&report, &tel, None, None);
        let recorder = tel.recorder().expect("recorder enabled");
        let got = (fnv1a64(&dump.ring_section_bytes()), recorder.seen());
        assert_eq!(got, pin, "{:#x}", got.0);
    }
}
