//! Integration tests for on-line trace analysis (paper §3).
//!
//! These exercise the multi-threaded depth-first search end-to-end on the
//! paper's own examples: the `ack` specification of Figure 1 (where plain
//! DFS would deadlock) and the `ip3`/`ip3'` pair of Figure 2 (where MDFS
//! stays inconclusive unless `t4`/`t5` exist).

use protocols::{ack, ip3};
use tango::trace::source::Poll;
use tango::{
    AnalysisOptions, ChannelSource, Dir, Event, Feed, OrderOptions, StaticSource, Trace, Verdict,
};

fn nr_options() -> AnalysisOptions {
    AnalysisOptions::with_order(OrderOptions::none())
}

/// §3.1: the greedy path T1,T1,T1 consumes all the x's and dead-ends;
/// MDFS must keep the earlier states alive and find T1 T2 T3 T1.
#[test]
fn ack_scenario_resolves_online() {
    let analyzer = ack::analyzer();
    let (tx, mut source) = ChannelSource::pair();
    // Feed everything up front, then close the trace.
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

    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| true)
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    let witness = report.witness.unwrap();
    assert!(witness.contains(&"T3".to_string()));
}

/// The same scenario delivered one event at a time from another thread.
#[test]
fn ack_scenario_with_incremental_feed() {
    let analyzer = ack::analyzer();
    let (tx, mut source) = ChannelSource::pair();
    let feeder = std::thread::spawn(move || {
        let events = [
            Event::input("A", "x", vec![]),
            Event::input("A", "x", vec![]),
            Event::input("B", "y", vec![]),
            Event::output("A", "ack", vec![]),
            Event::input("A", "x", vec![]),
        ];
        for e in events {
            tx.send(Feed::Event(e)).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        tx.send(Feed::Eof).unwrap();
    });
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| true)
        .unwrap();
    feeder.join().unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    // Incremental arrival forces PG-node bookkeeping.
    assert!(report.stats.pg_nodes > 0, "expected PG-nodes: {:?}", report.stats);
}

/// §3.1.2, `ip3'`: the traced output `o` can never be generated, but the
/// TAM keeps verifying B/C data and waiting — the verdict stays "likely
/// invalid" while the trace remains open.
#[test]
fn ip3_prime_is_inconclusive_while_open() {
    let analyzer = ip3::analyzer_prime();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    tx.send(Feed::Event(Event::output("A", "o", vec![]))).unwrap();
    // Keep the trace open: B/C might still deliver data.
    let mut statuses = Vec::new();
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |v| {
            statuses.push(v.clone());
            false // stop at the first interim verdict
        })
        .unwrap();
    assert_eq!(report.verdict, Verdict::LikelyInvalid);
    assert_eq!(statuses.last(), Some(&Verdict::LikelyInvalid));
}

/// §3.1.2, `ip3'` continued: as new data interactions keep arriving at B,
/// they are verified and the analyzer keeps waiting — still inconclusive.
#[test]
fn ip3_prime_keeps_consuming_data_but_stays_inconclusive() {
    let analyzer = ip3::analyzer_prime();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    tx.send(Feed::Event(Event::output("A", "o", vec![]))).unwrap();
    let mut seen = 0;
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |v| {
            assert_eq!(v, &Verdict::LikelyInvalid);
            seen += 1;
            if seen <= 3 {
                // More relayed data arrives; the verdict must not improve.
                tx.send(Feed::Event(Event::input("B", "data", vec![]))).unwrap();
                tx.send(Feed::Event(Event::output("C", "data", vec![]))).unwrap();
                true
            } else {
                false
            }
        })
        .unwrap();
    assert_eq!(report.verdict, Verdict::LikelyInvalid);
    assert_eq!(seen, 4);
}

/// §3.1.2, full `ip3`: once `finished` arrives at B, t4 then t5 explain
/// the `o` and the trace becomes valid.
#[test]
fn ip3_full_resolves_once_finished_arrives() {
    let analyzer = ip3::analyzer_full();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    tx.send(Feed::Event(Event::output("A", "o", vec![]))).unwrap();
    let mut fed_finished = false;
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| {
            if !fed_finished {
                fed_finished = true;
                tx.send(Feed::Event(Event::input("B", "finished", vec![]))).unwrap();
                tx.send(Feed::Eof).unwrap();
            }
            true
        })
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    let witness = report.witness.unwrap();
    assert_eq!(witness, vec!["t4".to_string(), "t5".to_string()]);
}

/// A PGAV-node yields "valid so far": everything received is explained,
/// the trace just is not finished.
#[test]
fn valid_prefix_reports_valid_so_far() {
    let analyzer = ack::analyzer();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| false)
        .unwrap();
    assert_eq!(report.verdict, Verdict::ValidSoFar);
}

/// Invalid input that no future data can repair gives a conclusive
/// `Invalid` even though the trace is still open (§3.1.2: "this can
/// happen only if invalid interactions exist … early enough").
#[test]
fn conclusively_invalid_without_eof() {
    // ack: an `ack` output with no `y` ever consumable — feed `out ack`
    // with no inputs at all; B may still grow, so the root stays PG and
    // the verdict is only "likely invalid". But an *input* the spec can
    // never consume from its current states is conclusive: use ip3'
    // where `finished` has no receiving transition.
    let analyzer = ip3::analyzer_prime();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("B", "finished", vec![]))).unwrap();
    tx.send(Feed::Event(Event::input("B", "data", vec![]))).unwrap();
    // `finished` blocks B's FIFO forever; A/C queues stay open though, so
    // the analyzer can only say "likely invalid" until we close the trace.
    tx.send(Feed::Eof).unwrap();
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| true)
        .unwrap();
    assert_eq!(report.verdict, Verdict::Invalid);
}

/// MDFS over a static source agrees with plain DFS.
#[test]
fn mdfs_agrees_with_dfs_on_static_traces() {
    let analyzer = protocols::tp0::analyzer();
    for seed in [1, 5] {
        let trace = protocols::tp0::valid_trace(3, 2, seed);
        let dfs = analyzer.analyze(&trace, &nr_options()).unwrap();
        let mut source = StaticSource::new(trace);
        let mdfs = analyzer
            .analyze_online(&mut source, &nr_options(), &mut |_| true)
            .unwrap();
        assert_eq!(dfs.verdict, mdfs.verdict);
        assert_eq!(dfs.verdict, Verdict::Valid);
    }

    let bad = protocols::tp0::invalidate_last_data(&protocols::tp0::valid_trace(2, 2, 9)).unwrap();
    let dfs = analyzer
        .analyze(&bad, &AnalysisOptions::with_order(OrderOptions::full()))
        .unwrap();
    let mut source = StaticSource::new(bad);
    let mdfs = analyzer
        .analyze_online(
            &mut source,
            &AnalysisOptions::with_order(OrderOptions::full()),
            &mut |_| true,
        )
        .unwrap();
    assert_eq!(dfs.verdict, Verdict::Invalid);
    assert_eq!(mdfs.verdict, Verdict::Invalid);
}

/// Static analysis is on-line analysis of a complete trace: `analyze` and
/// `analyze_online` fed the whole trace in one poll with eof agree on the
/// verdict, the transitions executed and the witness, at one and two
/// workers. Only the Generate/Restore/Save bookkeeping differs between
/// the two expansion rules.
#[test]
fn static_analysis_is_online_analysis_of_a_complete_trace() {
    use protocols::randspec::RandSpec;
    use protocols::tp0;
    use tango::{ChoicePolicy, Tango, Trace, TraceAnalyzer};

    let agree = |analyzer: &TraceAnalyzer, trace: &Trace, order: OrderOptions, tag: &str| {
        let options = AnalysisOptions::with_order(order);
        let fixed = analyzer.analyze(trace, &options).unwrap();
        for workers in [1, 2] {
            let mut o = options.clone();
            o.workers = workers;
            let mut source = StaticSource::new(trace.clone());
            let online = analyzer
                .analyze_online(&mut source, &o, &mut |_| true)
                .unwrap();
            assert_eq!(
                (
                    &online.verdict,
                    online.stats.transitions_executed,
                    &online.witness
                ),
                (
                    &fixed.verdict,
                    fixed.stats.transitions_executed,
                    &fixed.witness
                ),
                "{} at {} worker(s)",
                tag,
                workers
            );
        }
        fixed.verdict
    };

    let a = tp0::analyzer();
    for seed in [20, 13] {
        let valid = tp0::complete_valid_trace(3, 3, seed);
        let invalid = tp0::invalid_trace(3, 3, seed);
        for (order, name) in [(OrderOptions::none(), "NR"), (OrderOptions::full(), "FULL")] {
            let tag = format!("tp0 3+3 seed {} {}", seed, name);
            assert_eq!(
                agree(&a, &valid, order, &format!("{} valid", tag)),
                Verdict::Valid
            );
            assert_eq!(
                agree(&a, &invalid, order, &format!("{} invalid", tag)),
                Verdict::Invalid
            );
        }
    }

    for seed in 0..4 {
        let spec = RandSpec::new(seed);
        let a = Tango::generate(&spec.source()).expect("randspec sources are valid");
        let trace = a
            .generate_trace(&spec.workload(10), ChoicePolicy::First, 100_000)
            .expect("catch-all transitions keep the workload running");
        let tag = format!("randspec seed {}", seed);
        assert_eq!(
            agree(&a, &trace, OrderOptions::full(), &tag),
            Verdict::Valid
        );
    }
}

/// The on-line engine honours `max_depth`: a depth stop after eof is
/// resumable, and resuming with the limit lifted reaches the totals of
/// the uninterrupted run, at one and two workers.
#[test]
fn online_depth_limit_after_eof_resumes_to_the_uninterrupted_totals() {
    use protocols::tp0;
    use tango::{Checkpoint, InconclusiveReason};

    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 20);
    let path = std::env::temp_dir().join(format!("tango-online-depth-{}.ckpt", std::process::id()));
    for workers in [1, 2] {
        let mut options = nr_options();
        options.workers = workers;
        let full = a
            .analyze_online(&mut StaticSource::new(bad.clone()), &options, &mut |_| true)
            .unwrap();
        assert_eq!(full.verdict, Verdict::Invalid);

        let mut shallow = options.clone();
        shallow.limits.max_depth = 12;
        let stopped = a
            .analyze_online(&mut StaticSource::new(bad.clone()), &shallow, &mut |_| true)
            .unwrap();
        assert_eq!(
            stopped.verdict,
            Verdict::Inconclusive(InconclusiveReason::DepthLimit),
            "workers {}",
            workers
        );
        assert!(stopped.stats.transitions_executed < full.stats.transitions_executed);
        let cp = stopped
            .checkpoint
            .expect("a depth stop after eof is resumable");
        assert!(
            cp.depth() >= 12,
            "workers {}: depth {}",
            workers,
            cp.depth()
        );
        cp.write_to(&path).unwrap();
        let resumed = a
            .resume(Checkpoint::read_from(&path).unwrap(), &options)
            .unwrap();
        assert_eq!(resumed.verdict, Verdict::Invalid, "workers {}", workers);
        assert_eq!(
            resumed.stats.counters(),
            full.stats.counters(),
            "workers {}",
            workers
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Delivers a trace one event per poll; eof comes with the last event.
struct OnePerPoll(std::vec::IntoIter<Event>);

impl tango::TraceSource for OnePerPoll {
    fn poll(&mut self) -> tango::trace::source::Poll {
        let events: Vec<Event> = self.0.next().into_iter().collect();
        tango::trace::source::Poll {
            events,
            eof: self.0.len() == 0,
        }
    }
}

/// On-line `Invalid` verdicts after eof localize the failure from the
/// node records, and the localization is the same at every worker count:
/// ties break in sequential order, the earliest burst first. Fed in one
/// poll, the on-line localization is the static one.
#[test]
fn online_best_effort_localization_is_identical_at_every_worker_count() {
    use protocols::tp0;

    let a = tp0::analyzer();
    for seed in [20, 13, 1] {
        let bad = tp0::invalid_trace(3, 3, seed);
        let fixed = a.analyze(&bad, &nr_options()).unwrap();
        let want = fixed.best_effort.expect("static invalid verdicts localize");
        let mut per_poll = None;
        for workers in [1, 2, 4] {
            let mut options = nr_options();
            options.workers = workers;
            let localize = |source: &mut dyn tango::TraceSource| {
                let r = a.analyze_online(source, &options, &mut |_| true).unwrap();
                assert_eq!(
                    r.verdict,
                    Verdict::Invalid,
                    "seed {} workers {}",
                    seed,
                    workers
                );
                let b = r
                    .best_effort
                    .expect("an invalid verdict after eof localizes");
                (b.events_explained, b.events_total, b.path)
            };
            assert_eq!(
                localize(&mut StaticSource::new(bad.clone())),
                (want.events_explained, want.events_total, want.path.clone()),
                "seed {} workers {}: one poll",
                seed,
                workers
            );
            let got = localize(&mut OnePerPoll(bad.events.clone().into_iter()));
            let first = per_poll.get_or_insert_with(|| got.clone());
            assert_eq!(
                &got, first,
                "seed {} workers {}: one event per poll",
                seed, workers
            );
        }
    }
}

/// How a scripted feed splits a trace into polls. The run loop polls
/// once before each drain and, after it, until a poll brings news; so a
/// feed with an empty poll after each news poll brings one news poll per
/// drain, and one without brings two. Eof always comes alone, last.
#[derive(Clone, Copy, Debug)]
enum Feeding {
    /// One poll per drain, each an input with the outputs before it: at
    /// every drain an input lands at a stream's end.
    InputPerDrain,
    /// One event per drain: the drains after an output see outputs
    /// alone, which change no kept list.
    EventPerDrain,
    /// The whole trace in the first poll, then eof alone: the nodes
    /// parked on it revive with their lists, now complete.
    TraceThenEof,
    /// One event per poll, two polls per drain: the second poll meets
    /// the nodes the first revived still on the work stack.
    TwoPollsPerDrain,
}

/// The polls `feeding` splits `trace` into.
fn script(trace: &Trace, feeding: Feeding) -> Vec<Poll> {
    let poll = |events: Vec<Event>| Poll { events, eof: false };
    let mut batches: Vec<Vec<Event>> = Vec::new();
    match feeding {
        Feeding::InputPerDrain => {
            let mut batch = Vec::new();
            for e in &trace.events {
                batch.push(e.clone());
                if e.dir == Dir::In {
                    batches.push(std::mem::take(&mut batch));
                }
            }
            batches.push(batch);
        }
        Feeding::EventPerDrain | Feeding::TwoPollsPerDrain => {
            batches.extend(trace.events.iter().map(|e| vec![e.clone()]));
        }
        Feeding::TraceThenEof => batches.push(trace.events.clone()),
    }
    let mut polls = Vec::new();
    for (i, batch) in batches.into_iter().enumerate() {
        polls.push(poll(batch));
        if i > 0 && !matches!(feeding, Feeding::TwoPollsPerDrain) {
            polls.push(poll(Vec::new()));
        }
    }
    polls.push(Poll {
        events: Vec::new(),
        eof: true,
    });
    polls
}

/// Plays its polls in order, then eof for ever.
struct Scripted(std::collections::VecDeque<Poll>);

impl tango::TraceSource for Scripted {
    fn poll(&mut self) -> Poll {
        self.0.pop_front().unwrap_or(Poll {
            events: Vec::new(),
            eof: true,
        })
    }
}

/// Verdict, TE/GE/RE/SA and PG-nodes parked for TP0's invalid 2+2 trace
/// and a valid LAPD trace, each under NR then FULL.
type FeedPins = [(Verdict, [u64; 4], u64); 4];

/// Run each spec, trace and order of [`FeedPins`] fed by `feeding`, at
/// one and two workers, against the pins: the counters of re-running
/// Generate at every pop. (Debug builds also compare every kept list
/// with a fresh Generate.)
fn check_feeding(feeding: Feeding, pins: &FeedPins) {
    use protocols::{lapd, tp0};
    let cases = [
        ("TP0", tp0::analyzer(), tp0::invalid_trace(2, 2, 20)),
        ("LAPD", lapd::analyzer(), lapd::valid_trace(2, 2, 7)),
    ];
    let orders = [("NR", OrderOptions::none()), ("FULL", OrderOptions::full())];
    let runs = cases
        .iter()
        .flat_map(|c| orders.iter().map(move |o| (c, o)));
    for (((spec, a, trace), (order, o)), want) in runs.zip(pins) {
        for workers in [1, 2] {
            let mut options = AnalysisOptions::with_order(*o);
            options.workers = workers;
            let mut source = Scripted(script(trace, feeding).into());
            let r = a
                .analyze_online(&mut source, &options, &mut |_| true)
                .unwrap();
            assert_eq!(
                (&r.verdict, r.stats.counters(), r.stats.pg_nodes),
                (&want.0, want.1, want.2),
                "{:?}, {} under {}, {} workers",
                feeding,
                spec,
                order,
                workers
            );
        }
    }
}

#[test]
fn an_input_at_a_parked_nodes_stream_end_re_generates_it() {
    check_feeding(
        Feeding::InputPerDrain,
        &[
            (Verdict::Invalid, [1158, 2459, 2562, 439], 1026),
            (Verdict::Invalid, [19, 42, 46, 10], 19),
            (Verdict::Valid, [2643, 5827, 6874, 2111], 3535),
            (Verdict::Valid, [86, 226, 258, 61], 147),
        ],
    );
}

#[test]
fn outputs_alone_leave_the_kept_lists_in_use() {
    check_feeding(
        Feeding::EventPerDrain,
        &[
            (Verdict::Invalid, [1291, 3307, 3561, 439], 1891),
            (Verdict::Invalid, [22, 57, 66, 10], 35),
            (Verdict::Valid, [2647, 6012, 7118, 2111], 3774),
            (Verdict::Valid, [90, 305, 360, 61], 235),
        ],
    );
}

#[test]
fn eof_alone_completes_the_kept_lists_and_the_parked_nodes_die() {
    check_feeding(
        Feeding::TraceThenEof,
        &[
            (Verdict::Invalid, [1044, 1800, 1800, 439], 378),
            (Verdict::Invalid, [15, 21, 21, 10], 3),
            (Verdict::Valid, [2169, 2766, 3210, 2111], 1039),
            (Verdict::Valid, [64, 88, 96, 61], 28),
        ],
    );
}

#[test]
fn a_second_poll_before_the_drain_re_checks_the_revived_nodes() {
    check_feeding(
        Feeding::TwoPollsPerDrain,
        &[
            (Verdict::Invalid, [1189, 2267, 2431, 439], 864),
            (Verdict::Invalid, [20, 42, 46, 10], 18),
            (Verdict::Valid, [2177, 4490, 5432, 2111], 2560),
            (Verdict::Valid, [72, 205, 239, 61], 134),
        ],
    );
}
