//! The paper's Figure 4 counters, and the on-line engine's counters on the
//! same traces, pinned in the tier-1 suite.
//!
//! Under NR checking the static DFS over the invalid 3+3 TP0 trace
//! reproduces the paper's TE/GE/RE/SA to the digit when the mutated
//! output is the last `L.dt_req` (EXPERIMENTS.md, Figure 4). When the
//! mutated output is the last `U.tdatind` the tree is different and the
//! counters are this implementation's own, pinned so they cannot drift.
//!
//! The on-line MDFS counters depend on how the trace arrives. Fed one
//! event per poll, each event starts its own burst and every PG-node is
//! parked and revived many times over; those counters are pinned too, at
//! one and at two workers, so a change to MDFS bookkeeping that alters
//! the search shows up here.

use protocols::tp0;
use tango::trace::source::Poll;
use tango::{AnalysisOptions, Dir, Event, OrderOptions, Trace, TraceSource, Verdict};

/// TE, GE, RE, SA.
type Counters = [u64; 4];

/// Figure 4, "None" row, as published.
const PAPER_FIG4_NR: Counters = [88_329, 36_687, 51_642, 34_440];

/// The same search when the mutated output is the last `U.tdatind`.
const FIG4_NR_TDATIND: Counters = [95_034, 58_512, 54_902, 36_685];

/// A 3+3 base trace whose last data output is an `L.dt_req`.
const DT_REQ_SEED: u64 = 20;
/// A 3+3 base trace whose last data output is a `U.tdatind`.
const TDATIND_SEED: u64 = 13;

/// The invalid 3+3 trace for `seed`, checked to fall in the class named
/// by `ip.interaction`.
fn invalid_3_3(seed: u64, ip: &str, interaction: &str) -> Trace {
    let bad = tp0::invalid_trace(3, 3, seed);
    let last = bad
        .events
        .iter()
        .rev()
        .find(|e| e.dir == Dir::Out && !e.params.is_empty())
        .expect("a data output");
    assert_eq!(
        (last.ip.as_str(), last.interaction.as_str()),
        (ip, interaction),
        "seed {} mutates the wrong class of output",
        seed
    );
    bad
}

/// Delivers the trace one event per poll; end-of-file comes with the
/// last event.
struct OnePerPoll(std::vec::IntoIter<Event>);

impl TraceSource for OnePerPoll {
    fn poll(&mut self) -> Poll {
        let events: Vec<Event> = self.0.next().into_iter().collect();
        Poll {
            events,
            eof: self.0.len() == 0,
        }
    }
}

fn nr() -> AnalysisOptions {
    AnalysisOptions::with_order(OrderOptions::none())
}

#[test]
fn dfs_nr_reproduces_the_paper_on_the_dt_req_class() {
    let a = tp0::analyzer();
    let r = a
        .analyze(&invalid_3_3(DT_REQ_SEED, "L", "dt_req"), &nr())
        .unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);
    assert_eq!(r.stats.counters(), PAPER_FIG4_NR);
}

#[test]
fn dfs_nr_counters_on_the_tdatind_class_are_pinned() {
    let a = tp0::analyzer();
    let r = a
        .analyze(&invalid_3_3(TDATIND_SEED, "U", "tdatind"), &nr())
        .unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);
    assert_eq!(r.stats.counters(), FIG4_NR_TDATIND);
}

/// TE, GE, RE, SA and PG of on-line MDFS fed one event per poll.
fn online_one_per_poll(trace: &Trace, workers: usize) -> (Verdict, Counters, u64) {
    let a = tp0::analyzer();
    let mut opts = nr();
    opts.workers = workers;
    let mut src = OnePerPoll(trace.events.clone().into_iter());
    let r = a.analyze_online(&mut src, &opts, &mut |_| true).unwrap();
    (r.verdict, r.stats.counters(), r.stats.pg_nodes)
}

#[test]
fn online_one_event_per_poll_counters_are_pinned_at_one_and_two_workers() {
    for (seed, ip, interaction, want, want_pg) in [
        (
            DT_REQ_SEED,
            "L",
            "dt_req",
            [102_962, 196_688, 210_362, 36_687],
            74_582,
        ),
        (
            TDATIND_SEED,
            "U",
            "tdatind",
            [124_936, 217_606, 230_580, 58_512],
            72_826,
        ),
    ] {
        let trace = invalid_3_3(seed, ip, interaction);
        for workers in [1, 2] {
            let (verdict, got, pg) = online_one_per_poll(&trace, workers);
            assert_eq!(
                verdict,
                Verdict::Invalid,
                "seed {} workers {}",
                seed,
                workers
            );
            assert_eq!(
                (got, pg),
                (want, want_pg),
                "seed {} workers {}: TE/GE/RE/SA and PG",
                seed,
                workers
            );
        }
    }
}

/// Where the static search stops on each resource limit over the paper's
/// invalid 3+3 trace under NR, and what a resume through a checkpoint
/// file totals to. A limit is checked before the step it would exceed,
/// so the stop point is exact: its counters, the path depth and the
/// number of saved nodes awaiting exploration are pinned, and resuming
/// with the limit lifted reaches the paper's counters.
#[test]
fn static_stop_points_are_pinned_and_resume_to_the_paper_counters() {
    use tango::{Checkpoint, InconclusiveReason};
    let a = tp0::analyzer();
    let trace = invalid_3_3(DT_REQ_SEED, "L", "dt_req");
    let dir = std::env::temp_dir().join(format!("tango-stop-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    /// The limit, how to set it, and the counters, path depth and saved
    /// nodes at the stop.
    type StopPin = (
        InconclusiveReason,
        fn(&mut AnalysisOptions),
        Counters,
        usize,
        usize,
    );
    let stops: [StopPin; 3] = [
        (
            InconclusiveReason::TransitionLimit,
            |o| o.limits.max_transitions = 30_000,
            [30_001, 11_886, 18_115, 11_378],
            13,
            6,
        ),
        (
            InconclusiveReason::MemoryLimit,
            |o| o.limits.max_state_bytes = Some(8_000),
            [850, 310, 540, 308],
            13,
            12,
        ),
        (
            InconclusiveReason::DepthLimit,
            |o| o.limits.max_depth = 12,
            [17, 12, 5, 10],
            12,
            10,
        ),
    ];
    for (reason, limit, at_stop, depth, pending) in stops {
        let mut opts = nr();
        limit(&mut opts);
        let r = a.analyze(&trace, &opts).unwrap();
        assert_eq!(r.verdict, Verdict::Inconclusive(reason));
        let cp = r.checkpoint.expect("a limit stop is resumable");
        assert_eq!(
            (r.stats.counters(), cp.depth(), cp.pending_frames()),
            (at_stop, depth, pending),
            "{:?}",
            reason
        );
        let path = dir.join(format!("{:?}.ckpt", reason));
        cp.write_to(&path).unwrap();
        drop(cp);
        let resumed = a
            .analyze_resume(Checkpoint::read_from(&path).unwrap(), &nr())
            .unwrap();
        assert_eq!(resumed.verdict, Verdict::Invalid, "{:?}", reason);
        assert_eq!(resumed.stats.counters(), PAPER_FIG4_NR, "{:?}", reason);
    }
    std::fs::remove_dir_all(&dir).ok();
}
