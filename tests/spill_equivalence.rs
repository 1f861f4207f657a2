//! RAM/disk equivalence: the spill tier changes where bytes live, never
//! what the search decides.
//!
//! Every test runs the same analysis twice — once all in RAM, once under
//! a snapshot budget tight enough to force constant eviction to disk —
//! and requires the verdict and the paper's TE/GE/RE/SA counters to be
//! bit-identical. Covered: static DFS and the on-line MDFS, exact byte
//! accounting across the two tiers, and a stop/resume round whose
//! checkpoint travels through a file while the spill directory persists
//! across the "processes".

mod common;

use protocols::tp0;
use std::path::PathBuf;
use tango::{AnalysisOptions, Checkpoint, StaticSource, Verdict};

/// `opts` with a budget small enough that essentially every snapshot
/// must leave RAM, spilling into `dir`.
fn spilled(opts: &AnalysisOptions, dir: PathBuf) -> AnalysisOptions {
    let mut o = opts.clone();
    o.limits.max_state_bytes = Some(256);
    o.spill.dir = Some(dir);
    o
}

#[test]
fn dfs_verdict_and_counters_identical_ram_vs_spill() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let good = tp0::complete_valid_trace(3, 3, 1);
    let opts = AnalysisOptions::default();

    for (tag, trace, verdict) in [
        ("invalid", &bad, Verdict::Invalid),
        ("valid", &good, Verdict::Valid),
    ] {
        let baseline = a.analyze(trace, &opts).unwrap();
        assert_eq!(baseline.verdict, verdict);

        let dir = common::scratch_dir(&format!("dfs-{}", tag));
        let tiered = a.analyze(trace, &spilled(&opts, dir.clone())).unwrap();
        assert_eq!(tiered.verdict, baseline.verdict, "{}", tag);
        assert_eq!(
            tiered.stats.counters(),
            baseline.stats.counters(),
            "spill must not change TE/GE/RE/SA ({})",
            tag
        );
        assert!(
            tiered.stats.spill_evictions > 0,
            "a 256-byte budget must actually evict ({})",
            tag
        );
        assert!(tiered.spill_faults.is_empty(), "{:?}", tiered.spill_faults);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn dfs_spilled_plus_resident_bytes_equal_all_ram_bytes_at_the_same_stop() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let full = a.analyze(&bad, &AnalysisOptions::default()).unwrap();
    let mut opts = AnalysisOptions::default();
    opts.limits.max_transitions = full.stats.transitions_executed / 2;

    // Every save charges its own bytes, and eviction moves a snapshot's
    // bytes between the gauges unchanged, so at the same stop point the
    // two tiers together hold exactly what the all-RAM run holds.
    let ram = a.analyze(&bad, &opts).unwrap();
    assert!(
        matches!(ram.verdict, Verdict::Inconclusive(_)),
        "{:?}",
        ram.verdict
    );
    assert!(
        ram.stats.snapshot_bytes > 0,
        "the stop must hold saved frames"
    );

    let dir = common::scratch_dir("exact-bytes");
    let tiered = a.analyze(&bad, &spilled(&opts, dir.clone())).unwrap();
    assert_eq!(tiered.verdict, ram.verdict);
    assert_eq!(tiered.stats.counters(), ram.stats.counters());
    assert!(
        tiered.stats.spilled_bytes > 0,
        "the 256-byte budget must spill"
    );
    assert_eq!(
        tiered.stats.snapshot_bytes + tiered.stats.spilled_bytes,
        ram.stats.snapshot_bytes
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dfs_best_effort_localization_identical_ram_vs_spill() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    let dir = common::scratch_dir("best-effort");
    let tiered = a.analyze(&bad, &spilled(&opts, dir.clone())).unwrap();
    let (b, t) = (
        baseline.best_effort.expect("invalid verdict localizes"),
        tiered.best_effort.expect("invalid verdict localizes"),
    );
    assert_eq!(t.events_explained, b.events_explained);
    assert_eq!(t.path, b.path, "the best-effort path itself is unchanged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mdfs_verdict_and_counters_identical_ram_vs_spill() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let good = tp0::complete_valid_trace(3, 3, 1);
    let opts = AnalysisOptions::default();

    for (tag, trace, verdict) in [
        ("invalid", &bad, Verdict::Invalid),
        ("valid", &good, Verdict::Valid),
    ] {
        let mut src = StaticSource::new(trace.clone());
        let baseline = a.analyze_online(&mut src, &opts, &mut |_| true).unwrap();
        assert_eq!(baseline.verdict, verdict);

        let dir = common::scratch_dir(&format!("mdfs-{}", tag));
        let mut src = StaticSource::new(trace.clone());
        let tiered = a
            .analyze_online(&mut src, &spilled(&opts, dir.clone()), &mut |_| true)
            .unwrap();
        assert_eq!(tiered.verdict, baseline.verdict, "{}", tag);
        assert_eq!(
            tiered.stats.counters(),
            baseline.stats.counters(),
            "spill must not change MDFS TE/GE/RE/SA ({})",
            tag
        );
        assert!(
            tiered.stats.spill_evictions > 0,
            "a 256-byte budget must actually evict ({})",
            tag
        );
        assert!(tiered.spill_faults.is_empty(), "{:?}", tiered.spill_faults);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn stop_resume_through_disk_checkpoint_while_spilled_matches_baseline() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    let dir = common::scratch_dir("resume");
    let tmp = std::env::temp_dir().join(format!(
        "tango-spill-equiv-resume-ckpt-{}.bin",
        std::process::id()
    ));

    // Interrupt the spilled run partway with an absolute transition cap,
    // round-trip the checkpoint through a file (the cross-process path),
    // and finish under a fresh options value pointing at the *same*
    // spill directory — each round's tier writes its own segments and
    // removes them when the round ends.
    let step = (baseline.stats.transitions_executed / 3).max(1);
    let mut cap = step;
    let mut limited = spilled(&opts, dir.clone());
    limited.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &limited).unwrap();
    let mut rounds = 0;
    while let Verdict::Inconclusive(_) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "stop/resume chain must converge");
        let cp = report
            .checkpoint
            .take()
            .expect("limit-stopped spilled run must stay resumable");
        cp.write_to(&tmp).expect("checkpoint writes while spilled");
        let cp = Checkpoint::read_from(&tmp).expect("checkpoint reads back");
        cap += step;
        let mut next = spilled(&opts, dir.clone());
        next.limits.max_transitions = cap;
        report = a.analyze_resume(cp, &next).unwrap();
    }
    assert!(rounds >= 1, "the cap must actually interrupt the run");
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(report.stats.counters(), baseline.stats.counters());
    assert!(
        report.stats.spill_evictions > 0,
        "the resumed rounds keep spilling"
    );
    assert!(report.spill_faults.is_empty(), "{:?}", report.spill_faults);
    std::fs::remove_file(&tmp).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_limit_never_fires_with_the_tier_enabled() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    // The budget that used to kill the run (`max_state_bytes = 1` is the
    // fault_injection pin for Inconclusive(MemoryLimit)) now completes
    // with identical counters: the tier turns the limit into tiering.
    let dir = common::scratch_dir("no-memlimit");
    let mut o = spilled(&opts, dir.clone());
    o.limits.max_state_bytes = Some(1);
    let report = a.analyze(&bad, &o).unwrap();
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(report.stats.counters(), baseline.stats.counters());
    std::fs::remove_dir_all(&dir).ok();
}

/// A dead disk under the static search degrades it to
/// `Inconclusive(SpillFailure)` with the fault on the record, and the
/// node whose write failed stays resident, so the stop still carries a
/// checkpoint: resumed all in RAM, it reaches the uninterrupted totals.
#[test]
fn static_spill_write_failure_still_checkpoints_and_resumes() {
    use tango::{Fault, FaultPlan, InconclusiveReason};
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    let dir = common::scratch_dir("dead-disk");
    let mut dead = spilled(&opts, dir.clone());
    dead.spill.fault_plan = Some(FaultPlan::default().with(Fault::SpillHardWrites, 3));
    let stopped = a.analyze(&bad, &dead).unwrap();
    assert_eq!(
        stopped.verdict,
        Verdict::Inconclusive(InconclusiveReason::SpillFailure)
    );
    assert!(!stopped.spill_faults.is_empty(), "the fault is on the record");
    let cp = stopped
        .checkpoint
        .expect("a failed write keeps the front, so the stop checkpoints");
    let resumed = a.analyze_resume(*cp, &opts).unwrap();
    assert_eq!(resumed.verdict, baseline.verdict);
    assert_eq!(resumed.stats.counters(), baseline.stats.counters());
    std::fs::remove_dir_all(&dir).ok();
}
