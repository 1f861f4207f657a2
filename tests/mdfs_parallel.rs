//! Multi-core MDFS determinism: N workers must be observationally
//! indistinguishable from one.
//!
//! The work-stealing search (DESIGN §6.13) promises that the verdict and
//! the paper's TE/GE/RE/SA counters are a function of the trace and the
//! options alone, never of the worker count or the steal schedule. Every
//! test here runs the same analysis at workers ∈ {1, 2, 4, 8} and
//! requires bit-identical results — against the single-worker MDFS run
//! *and* against static DFS where both modes terminate. Checkpoints
//! saved from an N-worker run must resume at any other worker count to
//! the exact uninterrupted totals.

use protocols::{ack, tp0};
use tango::{
    AnalysisOptions, Checkpoint, InconclusiveReason, OrderOptions,
    StaticSource, Trace, Verdict,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn online(a: &tango::TraceAnalyzer, trace: &Trace, opts: &AnalysisOptions) -> tango::AnalysisReport {
    let mut src = StaticSource::new(trace.clone());
    a.analyze_online(&mut src, opts, &mut |_| true).unwrap()
}

fn with_workers(opts: &AnalysisOptions, n: usize) -> AnalysisOptions {
    let mut o = opts.clone();
    o.workers = n;
    o
}

/// The backbone: DFS vs MDFS vs MDFS×{2,4,8} on a backtracking-heavy
/// invalid trace and a complete valid one. DFS and MDFS are different
/// engines with different GE/RE/SA bookkeeping (PG-node revival
/// re-generates, DFS restores per frame), so across *engines* the
/// contract is verdict + TE; across *worker counts* within MDFS it is
/// everything.
#[test]
fn worker_count_never_changes_verdict_or_counters() {
    let a = tp0::analyzer();
    // The NR-order search of the invalid 3+3 trace backtracks hard: ~90k
    // transitions, enough work to spread over eight workers, small
    // enough to run the whole matrix in seconds.
    let bad = tp0::invalid_trace(3, 3, 1);
    let good = tp0::complete_valid_trace(3, 3, 1);

    for order in [OrderOptions::none(), OrderOptions::full()] {
        let opts = AnalysisOptions {
            order,
            ..Default::default()
        };
        for (tag, trace, verdict) in [
            ("invalid", &bad, Verdict::Invalid),
            ("valid", &good, Verdict::Valid),
        ] {
            let dfs = a.analyze(trace, &opts).unwrap();
            assert_eq!(dfs.verdict, verdict, "{}", tag);
            let seq = online(&a, trace, &opts);
            assert_eq!(seq.verdict, verdict, "{}", tag);
            assert_eq!(
                seq.stats.transitions_executed, dfs.stats.transitions_executed,
                "DFS and MDFS disagree on TE for a static trace ({})",
                tag
            );
            for n in WORKER_COUNTS {
                let par = online(&a, trace, &with_workers(&opts, n));
                assert_eq!(par.verdict, seq.verdict, "workers={} {}", n, tag);
                assert_eq!(
                    par.stats.counters(),
                    seq.stats.counters(),
                    "workers={} changed TE/GE/RE/SA ({})",
                    n,
                    tag
                );
                assert_eq!(par.witness, seq.witness, "workers={} {}", n, tag);
            }
        }
    }
}

/// One poll brings the whole trace and its eof, so the search is one
/// burst over one input: every worker but the first starts from a
/// donation, which splits a segment. The verdict, the counters and the
/// best-effort localization must still be the one-worker run's.
#[test]
fn donated_segments_keep_the_one_worker_best_effort() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    let localization = |r: &tango::AnalysisReport| {
        let b = r.best_effort.as_ref().expect("an invalid complete trace is localized");
        (b.events_explained, b.events_total, b.path.clone())
    };
    let seq = online(&a, &bad, &opts);
    assert_eq!(seq.verdict, Verdict::Invalid);
    let mut steals = 0;
    for n in [2, 4, 8] {
        let par = online(&a, &bad, &with_workers(&opts, n));
        assert_eq!(par.verdict, seq.verdict, "workers={}", n);
        assert_eq!(par.stats.counters(), seq.stats.counters(), "workers={}", n);
        assert_eq!(localization(&par), localization(&seq), "workers={}", n);
        steals += par.stats.steals;
    }
    assert!(steals > 0, "a one-input burst spreads only by donation");
}

/// §3.1's ack scenario needs PG-node revival to find T1 T2 T3 T1; the
/// sequential-exact witness must survive any steal schedule (the replay
/// pass reruns a witness-bearing burst single-threaded).
#[test]
fn parallel_witness_is_the_sequential_witness() {
    use tango::{ChannelSource, Event, Feed};
    let a = ack::analyzer();
    let ack_source = || {
        let (tx, source) = ChannelSource::pair();
        for line in [
            Event::input("A", "x", vec![]),
            Event::input("A", "x", vec![]),
            Event::input("B", "y", vec![]),
            Event::output("A", "ack", vec![]),
            Event::input("A", "x", vec![]),
        ] {
            tx.send(Feed::Event(line)).unwrap();
        }
        tx.send(Feed::Eof).unwrap();
        source
    };
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    let mut source = ack_source();
    let seq = a.analyze_online(&mut source, &opts, &mut |_| true).unwrap();
    assert_eq!(seq.verdict, Verdict::Valid);
    let seq_witness = seq.witness.clone().expect("valid verdict carries a witness");

    for n in [2, 4, 8] {
        let mut source = ack_source();
        let par = a
            .analyze_online(&mut source, &with_workers(&opts, n), &mut |_| true)
            .unwrap();
        assert_eq!(par.verdict, Verdict::Valid, "workers={}", n);
        assert_eq!(
            par.witness.as_ref(),
            Some(&seq_witness),
            "workers={} found a different witness",
            n
        );
        assert_eq!(par.stats.counters(), seq.stats.counters(), "workers={}", n);
    }
}

/// Stop an N-worker run on a transition limit after eof, round-trip the
/// checkpoint through a file, resume at M workers: the final verdict and
/// TE/GE/RE/SA must equal the uninterrupted run's, for every (N, M). The
/// trace comes all at once, 3 events a poll and 1 event a poll; a cap the
/// search reaches before eof stops with no checkpoint, and every stop
/// after it with one. Fed 1 event a poll, an invalid trace is refuted
/// before its last event arrives, so that feed stops after eof only on a
/// valid trace, one transition short of its witness.
#[test]
fn checkpoint_saved_at_n_workers_resumes_at_m() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let good = tp0::complete_valid_trace(2, 3, 1);
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    // The caps, from the uninterrupted TE.
    let half: fn(u64) -> Vec<u64> = |te| vec![te / 2];
    let quarter_half: fn(u64) -> Vec<u64> = |te| vec![te / 4, te / 2];
    let half_last: fn(u64) -> Vec<u64> = |te| vec![te / 2, te - 1];
    let cases = [(usize::MAX, &bad, half), (3, &bad, quarter_half), (1, &good, half_last)];
    let mut stops_before_eof = 0;
    for (per_poll, trace, caps) in cases {
        let (uninterrupted, _) = fed(&a, trace, per_poll, &opts);
        let te = uninterrupted.stats.transitions_executed;
        let mut resumed_any = false;
        for cap in caps(te) {
            assert!(cap > 0, "workload too small to interrupt");
            for save_at in [1usize, 4] {
                let what = format!("{} a poll, cap {}, save_at={}", per_poll, cap, save_at);
                let mut limited = with_workers(&opts, save_at);
                limited.limits.max_transitions = cap;
                let (stopped, eof) = fed(&a, trace, per_poll, &limited);
                assert_eq!(
                    stopped.verdict,
                    Verdict::Inconclusive(InconclusiveReason::TransitionLimit),
                    "{}",
                    what
                );
                assert_eq!(stopped.checkpoint.is_some(), eof, "{}: eof {}", what, eof);
                let Some(cp) = stopped.checkpoint else {
                    stops_before_eof += 1;
                    continue;
                };
                let tmp = std::env::temp_dir().join(format!(
                    "tango-mdfs-par-ckpt-{}-{}-{}-{}.bin",
                    per_poll % 1000,
                    cap,
                    save_at,
                    std::process::id()
                ));
                cp.write_to(&tmp).expect("checkpoint writes");
                for resume_at in [1usize, 2, 8] {
                    let cp = Checkpoint::read_from(&tmp).expect("checkpoint reads back");
                    let resumed = a.resume(cp, &with_workers(&opts, resume_at)).unwrap();
                    assert_eq!(
                        resumed.verdict, uninterrupted.verdict,
                        "{} resume_at={}",
                        what, resume_at
                    );
                    assert_eq!(
                        resumed.stats.counters(),
                        uninterrupted.stats.counters(),
                        "resume at a different worker count drifted ({} resume_at={})",
                        what,
                        resume_at
                    );
                }
                std::fs::remove_file(&tmp).ok();
                resumed_any = true;
            }
        }
        assert!(resumed_any, "{} a poll: no cap stopped after eof", per_poll);
    }
    assert!(stops_before_eof > 0, "no cap stopped before eof");
}

/// Steal telemetry: a multi-worker run reports per-worker busy time and
/// only exports steal counters when steals actually happened; a
/// single-worker run never grows the new series.
#[test]
fn steal_counters_only_appear_on_multi_worker_runs() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::with_order(OrderOptions::none());

    let seq = online(&a, &bad, &opts);
    assert_eq!(seq.stats.steals, 0, "one worker cannot steal");
    assert_eq!(seq.stats.steal_failures, 0);

    let par = online(&a, &bad, &with_workers(&opts, 4));
    // Steals are schedule-dependent; the *accounting* must at least be
    // internally consistent and the run observationally sequential.
    assert_eq!(par.stats.counters(), seq.stats.counters());
}

/// Delivers a trace `per_poll` events a poll; end-of-file comes with
/// the last event, so every poll with events starts a burst.
struct Chunks {
    events: std::vec::IntoIter<tango::Event>,
    per_poll: usize,
    /// Whether a poll has reported end-of-file.
    eof: bool,
}

impl tango::TraceSource for Chunks {
    fn poll(&mut self) -> tango::trace::source::Poll {
        let events: Vec<tango::Event> = self.events.by_ref().take(self.per_poll).collect();
        self.eof = self.events.len() == 0;
        tango::trace::source::Poll {
            events,
            eof: self.eof,
        }
    }
}

/// The on-line analysis of `trace` fed `per_poll` events a poll, and
/// whether the source had reported end-of-file when it returned.
fn fed(
    a: &tango::TraceAnalyzer,
    trace: &Trace,
    per_poll: usize,
    opts: &AnalysisOptions,
) -> (tango::AnalysisReport, bool) {
    let events = trace.events.clone().into_iter();
    let mut src = Chunks { events, per_poll, eof: false };
    let report = a.analyze_online(&mut src, opts, &mut |_| true).unwrap();
    (report, src.eof)
}

fn one_per_poll(
    a: &tango::TraceAnalyzer,
    trace: &Trace,
    opts: &AnalysisOptions,
) -> tango::AnalysisReport {
    fed(a, trace, 1, opts).0
}

/// At N ≥ 2 the byte gauge and its peak are added up from the workers'
/// tally slots, which they fold on a stride. Fed one event per poll, the
/// TP0 3+3 search peaks where the one-worker search does.
#[test]
fn one_event_per_poll_peaks_at_the_one_worker_peak() {
    let a = tp0::analyzer();
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    for seed in 1..=3 {
        let trace = tp0::invalid_trace(3, 3, seed);
        let peaks = [1, 2, 4].map(|n| {
            let r = one_per_poll(&a, &trace, &with_workers(&opts, n));
            assert_eq!(r.verdict, Verdict::Invalid, "seed {} workers {}", seed, n);
            r.stats.peak_snapshot_bytes
        });
        assert_eq!(
            peaks, [peaks[0]; 3],
            "seed {}: peaks at 1, 2 and 4 workers",
            seed
        );
    }
}

/// A transition-limit stop before eof is not replayed by one worker: the
/// workers stop on their own view of TE. Within `N·FOLD` steps' worth of
/// the cap every worker folds on every step, so the views miss only the
/// peers' steps in flight, and the stop ends at most one transition per
/// worker past the cap.
#[test]
fn pre_eof_transition_stops_overshoot_by_at_most_one_step_per_worker() {
    let a = tp0::analyzer();
    let trace = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    for n in [2u64, 4] {
        for cap in [100, 1_000, 10_000, 40_000] {
            let mut limited = with_workers(&opts, n as usize);
            limited.limits.max_transitions = cap;
            let r = one_per_poll(&a, &trace, &limited);
            assert_eq!(
                r.verdict,
                Verdict::Inconclusive(InconclusiveReason::TransitionLimit),
                "workers {} cap {}",
                n,
                cap
            );
            assert!(
                r.checkpoint.is_none(),
                "workers {} cap {}: a stop before eof returns no checkpoint",
                n,
                cap
            );
            let te = r.stats.transitions_executed;
            assert!(
                cap < te && te <= cap + n,
                "workers {} cap {}: TE {} overshoots by more than {}",
                n,
                cap,
                te,
                n
            );
        }
    }
}
