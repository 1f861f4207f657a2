//! Durable stop/resume: library-level recovery tests.
//!
//! PR 1 established that an in-memory checkpoint resumes to the exact
//! totals of an uninterrupted run. These tests push the same equivalence
//! through the on-disk codec: stop, serialize, *forget everything*,
//! deserialize in what may as well be a different process, resume — and
//! the verdict and TE/GE/RE/SA totals must still match, including across
//! executor changes and over multiple rounds of accumulated CPU time. (The actual SIGKILL harness lives in
//! `crates/tango-cli/tests/crash_recovery.rs`, next to the binary it
//! kills.)

mod common;

use protocols::tp0;
use tango::{AnalysisOptions, Checkpoint, TraceAnalyzer, Verdict};

/// Stop a third of the way in, write the checkpoint to disk, read it
/// back, resume with raised limits: identical verdict and totals.
#[test]
fn resume_from_disk_with_raised_limits_matches_uninterrupted_run() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    let mut limited = opts.clone();
    limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
    let stopped = a.analyze(&bad, &limited).unwrap();
    let cp = stopped.checkpoint.expect("limit stop must be resumable");

    let path = common::scratch_dir("raised-limits").join("checkpoint.bin");
    cp.write_to(&path).expect("checkpoint writes");
    drop(cp); // everything the resume uses comes from the file

    let cp = Checkpoint::read_from(&path).expect("checkpoint reads");
    let resumed = a.analyze_resume(cp, &opts).unwrap();
    assert_eq!(resumed.verdict, Verdict::Invalid);
    assert_eq!(resumed.stats.counters(), baseline.stats.counters());
}

/// A checkpoint carries search structure, not executor artifacts: a file
/// saved by an analyzer on the tree-walking interpreter resumes on one
/// running the bytecode VM (and vice versa) with the verdict and
/// TE/GE/RE/SA totals of an uninterrupted run in either direction.
#[test]
fn cross_exec_mode_save_and_resume_through_disk() {
    use estelle_runtime::ExecMode;
    let base = tp0::analyzer();
    let on = |exec| TraceAnalyzer::from_machine(base.machine.exec_view(exec));
    let bad = tp0::invalid_trace(3, 3, 1);
    let baseline = on(ExecMode::Compiled)
        .analyze(&bad, &AnalysisOptions::default())
        .unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    for (save_exec, resume_exec) in [
        (ExecMode::Interp, ExecMode::Compiled),
        (ExecMode::Compiled, ExecMode::Interp),
    ] {
        let mut limited = AnalysisOptions::default();
        limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
        let stopped = on(save_exec).analyze(&bad, &limited).unwrap();
        let cp = stopped.checkpoint.expect("limit stop must be resumable");

        let path = common::scratch_dir(if save_exec == ExecMode::Interp {
            "interp-to-compiled"
        } else {
            "compiled-to-interp"
        })
        .join("checkpoint.bin");
        cp.write_to(&path).expect("checkpoint writes");
        let cp = Checkpoint::read_from(&path).expect("checkpoint reads");

        let resumed = on(resume_exec)
            .analyze_resume(cp, &AnalysisOptions::default())
            .unwrap();
        assert_eq!(
            resumed.verdict,
            Verdict::Invalid,
            "save exec={} resume exec={}",
            save_exec.name(),
            resume_exec.name()
        );
        assert_eq!(
            resumed.stats.counters(),
            baseline.stats.counters(),
            "save exec={} resume exec={}",
            save_exec.name(),
            resume_exec.name()
        );
    }
}

/// `SearchStats::wall_time` must accumulate across stop/resume rounds —
/// each round adds its own elapsed time to the total carried by the
/// checkpoint (in memory and through the file's nanosecond encoding)
/// instead of restarting the clock.
#[test]
fn wall_time_accumulates_across_disk_resume_rounds() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    let step = (baseline.stats.transitions_executed / 4).max(1);
    let mut cap = step;
    let mut limited = opts.clone();
    limited.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &limited).unwrap();
    let path = common::scratch_dir("cpu-time").join("checkpoint.bin");
    let mut rounds = 0;
    let mut last_cpu = report.stats.wall_time;
    while let Verdict::Inconclusive(_) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "stop/resume chain must converge");
        let cp = report.checkpoint.take().expect("resumable");

        // Round-trip through disk: the file stores wall_time at
        // nanosecond resolution, so the carried total survives exactly.
        cp.write_to(&path).expect("checkpoint writes");
        let cp = Checkpoint::read_from(&path).expect("checkpoint reads");
        assert_eq!(cp.stats().wall_time, report.stats.wall_time);

        cap += step;
        let mut next = opts.clone();
        next.limits.max_transitions = cap;
        report = a.analyze_resume(cp, &next).unwrap();
        assert!(
            report.stats.wall_time >= last_cpu,
            "wall_time went backwards across a resume: {:?} -> {:?}",
            last_cpu,
            report.stats.wall_time
        );
        last_cpu = report.stats.wall_time;
    }
    assert!(rounds >= 2, "the cap steps must actually interrupt the run");
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(report.stats.counters(), baseline.stats.counters());
}

/// Saving the same stop twice and resuming each copy independently is
/// safe: reading a checkpoint does not consume or mutate the file.
#[test]
fn checkpoint_file_is_reusable() {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    let mut limited = opts.clone();
    limited.limits.max_transitions = (baseline.stats.transitions_executed / 2).max(1);
    let stopped = a.analyze(&bad, &limited).unwrap();
    let cp = stopped.checkpoint.expect("resumable");
    let path = common::scratch_dir("reusable").join("checkpoint.bin");
    cp.write_to(&path).unwrap();

    let first = a
        .analyze_resume(Checkpoint::read_from(&path).unwrap(), &opts)
        .unwrap();
    let second = a
        .analyze_resume(Checkpoint::read_from(&path).unwrap(), &opts)
        .unwrap();
    assert_eq!(first.verdict, second.verdict);
    assert_eq!(first.stats.counters(), second.stats.counters());
    assert_eq!(first.stats.counters(), baseline.stats.counters());
}
