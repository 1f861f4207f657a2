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
/// TE/GE/RE/SA must equal the uninterrupted run's, for every (N, M).
#[test]
fn checkpoint_saved_at_n_workers_resumes_at_m() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    let uninterrupted = online(&a, &bad, &opts);
    assert_eq!(uninterrupted.verdict, Verdict::Invalid);
    let cap = uninterrupted.stats.transitions_executed / 2;
    assert!(cap > 0, "workload too small to interrupt");

    for save_at in [1usize, 4] {
        for resume_at in [1usize, 2, 8] {
            let mut limited = with_workers(&opts, save_at);
            limited.limits.max_transitions = cap;
            let stopped = online(&a, &bad, &limited);
            assert_eq!(
                stopped.verdict,
                Verdict::Inconclusive(InconclusiveReason::TransitionLimit),
                "save_at={}",
                save_at
            );
            let cp = stopped
                .checkpoint
                .expect("a post-eof limit stop must be checkpointable");

            let tmp = std::env::temp_dir().join(format!(
                "tango-mdfs-par-ckpt-{}-{}-{}.bin",
                save_at,
                resume_at,
                std::process::id()
            ));
            cp.write_to(&tmp).expect("checkpoint writes");
            let cp = Checkpoint::read_from(&tmp).expect("checkpoint reads back");
            std::fs::remove_file(&tmp).ok();

            let resumed = a
                .resume(cp, &with_workers(&opts, resume_at))
                .unwrap();
            assert_eq!(
                resumed.verdict, uninterrupted.verdict,
                "save_at={} resume_at={}",
                save_at, resume_at
            );
            assert_eq!(
                resumed.stats.counters(),
                uninterrupted.stats.counters(),
                "resume at a different worker count drifted (save_at={} resume_at={})",
                save_at,
                resume_at
            );
        }
    }
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
