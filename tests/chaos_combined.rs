//! Both fault sites armed in ONE run, pinned to the fault-free outcome
//! — the composition guarantee of the unified chaos layer.
//!
//! A hand-built lossless plan arms the source feed (read errors under
//! restart recovery) and the checkpoint writes (transient I/O errors)
//! simultaneously; the
//! run must retry through every one of them and still produce the
//! exact verdict and TE/GE/RE/SA counters of a pristine run, with
//! every site's retries visible in the stats. Plus the regression test
//! for the autosave warn-and-continue contract: a checkpoint write
//! that gives up is *recorded* in `AnalysisReport::checkpoint_faults`,
//! not just printed and lost.

mod common;

use protocols::tp0;
use tango::{
    AnalysisOptions, Checkpoint, FaultPlan, InconclusiveReason, Site, TraceSource, Verdict,
};

#[test]
fn all_sites_armed_still_match_the_fault_free_run() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);

    // The reference, with no faults anywhere.
    let dir = common::scratch_dir("combined");
    let opts = AnalysisOptions::default();
    let reference = a.analyze(&bad, &opts).unwrap();
    assert_eq!(reference.verdict, Verdict::Invalid);

    // One plan, both sites armed, each lossless.
    let plan = FaultPlan::parse(
        "seed=7,source.read_error_every=3,source.short_read_every=4,source.recovery=restart,\
         checkpoint.io_error_every=2",
    )
    .unwrap();
    assert!(plan.is_lossless());
    assert!(plan.armed(Site::Source) && plan.armed(Site::Checkpoint));

    // Source site: drain the trace text through the injector.
    let text = tango::render_trace(&bad, Some(a.module()), true);
    let mut src = plan
        .build_source(&text, Some(a.module().clone()))
        .expect("armed");
    let (effective, _faults) = tango::fault::drain_source(&mut src, 1_000_000).unwrap();
    assert!(
        src.fault_retries() > 0,
        "read faults under restart must retry"
    );

    // The checkpoint site rides on the autosaves of a stop/resume chain.
    let mut ck_attempts = 0;
    let cp_path = dir.join("checkpoint.bin");

    let step = (reference.stats.transitions_executed / 4).max(1);
    let mut cap = step;
    let mut round = opts.clone();
    round.limits.max_transitions = cap;
    let mut report = a.analyze(&effective, &round).unwrap();
    let (mut ck_retries, mut ck_giveups) = (0u64, 0u64);
    let mut rounds = 0;
    while let Verdict::Inconclusive(InconclusiveReason::TransitionLimit) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "must converge");
        let cp = *report.checkpoint.take().expect("limit stops are resumable");
        let before = ck_attempts;
        let out = cp.write_to_with(&cp_path, &plan, &mut ck_attempts);
        ck_retries += ck_attempts - before - 1;
        cap += step;
        let mut next = opts.clone();
        next.limits.max_transitions = cap;
        report = match out {
            Ok(()) => {
                // Resume from disk — the crashed-process path.
                drop(cp);
                let from_disk = Checkpoint::read_from(&cp_path).unwrap();
                a.resume(from_disk, &next).unwrap()
            }
            Err(_) => {
                ck_giveups += 1;
                a.resume(cp, &next).unwrap()
            }
        };
    }
    report.stats.source_retries += src.fault_retries();
    report.stats.checkpoint_retries += ck_retries;
    report.stats.checkpoint_giveups += ck_giveups;

    assert!(rounds >= 2, "the cap steps must actually interrupt the run");
    // Pinned: the fault-free outcome, bit for bit on the paper's
    // counters, with every site's recovery work on the record.
    assert_eq!(report.verdict, reference.verdict);
    assert_eq!(report.stats.counters(), reference.stats.counters());
    assert!(report.stats.source_retries > 0, "source site exercised");
    assert!(
        report.stats.checkpoint_retries > 0,
        "checkpoint site exercised"
    );
    assert_eq!(report.stats.checkpoint_giveups, 0, "lossless plan never gives up");
    assert_eq!(
        report.stats.total_fault_retries(),
        report.stats.source_retries + report.stats.checkpoint_retries,
        "heartbeat total sums the sites"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: an autosave that exhausts its retries must land in
/// `AnalysisReport::checkpoint_faults` (the warn-and-continue record),
/// and the analysis must still reach its verdict.
#[test]
fn exhausted_autosave_is_recorded_not_just_printed() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let dir = common::scratch_dir("autosave-record");
    let cp_path = dir.join("checkpoint.bin");

    // Disk full after the very first write attempt: every autosave
    // fails permanently after its bounded retries.
    let plan = FaultPlan::parse("seed=1,checkpoint.disk_full_after=1").unwrap();
    let mut ck_attempts = 0;
    let opts = AnalysisOptions::default();
    let reference = a.analyze(&bad, &opts).unwrap();

    let step = (reference.stats.transitions_executed / 3).max(1);
    let mut cap = step;
    let mut round = opts.clone();
    round.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &round).unwrap();
    let mut faults: Vec<String> = Vec::new();
    let mut giveups = 0u64;
    while let Verdict::Inconclusive(InconclusiveReason::TransitionLimit) = report.verdict {
        let cp = *report.checkpoint.take().unwrap();
        let out = cp.write_to_with(&cp_path, &plan, &mut ck_attempts);
        if let Err(e) = out {
            giveups += 1;
            faults.push(e.to_string());
        }
        cap += step;
        let mut next = opts.clone();
        next.limits.max_transitions = cap;
        // Warn-and-continue: the failed save never kills the search.
        report = a.resume(cp, &next).unwrap();
    }
    report.stats.checkpoint_giveups += giveups;
    report.checkpoint_faults = faults;

    assert_eq!(report.verdict, reference.verdict);
    assert_eq!(report.stats.counters(), reference.stats.counters());
    assert!(report.stats.checkpoint_giveups > 0, "disk full must bite");
    assert!(
        !report.checkpoint_faults.is_empty(),
        "the giveup must be recorded on the report, not just stderr"
    );
    assert!(
        report.checkpoint_faults.iter().all(|f| f.contains("injected")),
        "{:?}",
        report.checkpoint_faults
    );
    std::fs::remove_dir_all(&dir).ok();
}
