//! Copy-on-write Save/Restore across checkpoint/resume.
//!
//! A limit-stopped search rebuilds its snapshot store from the frozen
//! frames. These tests pin that the resumed search does the same work as
//! an uninterrupted one and that the `snapshot_bytes` accounting, which
//! charges every save its own bytes, never wraps across stop/resume.

use protocols::tp0;
use tango::{AnalysisOptions, Verdict};

#[test]
fn checkpoint_resume_totals_match_uninterrupted_run() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    // Interrupt a third of the way in, then resume with the cap lifted.
    let mut limited = opts.clone();
    limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
    let stopped = a.analyze(&bad, &limited).unwrap();
    let cp = stopped.checkpoint.expect("limit stop must be resumable");
    let resumed = a.analyze_resume(*cp, &opts).unwrap();

    assert_eq!(resumed.verdict, Verdict::Invalid);
    assert_eq!(resumed.stats.counters(), baseline.stats.counters());
}

#[test]
fn snapshot_bytes_never_wraps_across_stop_resume_rounds() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    // Force several stop/resume rounds; a subtraction wrap anywhere in
    // the rebuilt accounting would catapult `snapshot_bytes` toward
    // `usize::MAX` and trip the sanity bound (or the debug assertion in
    // debug builds).
    let sane = 1usize << 40;
    let step = (baseline.stats.transitions_executed / 5).max(1);
    let mut cap = step;
    let mut limited = opts.clone();
    limited.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &limited).unwrap();
    let mut rounds = 0;
    while let Verdict::Inconclusive(_) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "stop/resume chain must converge");
        assert!(
            report.stats.snapshot_bytes < sane,
            "snapshot_bytes wrapped: {}",
            report.stats.snapshot_bytes
        );
        assert!(report.stats.peak_snapshot_bytes < sane);
        assert!(report.stats.snapshot_bytes <= report.stats.peak_snapshot_bytes);
        let cp = report.checkpoint.take().expect("resumable");
        cap += step;
        let mut next = opts.clone();
        next.limits.max_transitions = cap;
        report = a.analyze_resume(*cp, &next).unwrap();
    }
    assert!(rounds >= 2, "the cap steps must actually interrupt the run");
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(report.stats.counters(), baseline.stats.counters());
    assert_eq!(
        report.stats.snapshot_bytes, 0,
        "an exhausted search must release every snapshot byte"
    );
    assert_eq!(report.stats.intern_hits, 0, "nothing is interned any more");
}
