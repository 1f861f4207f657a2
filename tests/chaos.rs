//! Seeded chaos runner: composed fault plans over random specifications.
//!
//! For every (spec seed × plan seed) cell, [`tango::FaultPlan::random`]
//! arms one or both fault sites (source feed, checkpoint writes) and
//! the runner drives a full analysis through them, on valid and
//! corrupted traces, with SIGKILL-style aborts
//! between checkpoint rounds (all in-memory state is dropped and the
//! run resumes from the bytes on disk). The invariants, for every cell:
//!
//! - no panic escapes — every failure is a typed error or a typed
//!   degraded verdict;
//! - the run terminates with a verdict;
//! - **lossless** plans (every armed fault retry-recovers or is
//!   warn-and-continue, so the search sees the same events) must match
//!   the fault-free reference's verdict and TE/GE/RE/SA counters
//!   exactly;
//! - crash+resume chains re-converge to the same totals.
//!
//! Every cell is reproducible from its log line alone:
//! `tango analyze spec.est trace.txt --fault-plan '<describe()>'`.

mod common;

use protocols::randspec::RandSpec;
use tango::{
    AnalysisOptions, AnalysisReport, Checkpoint, ChoicePolicy, FaultPlan, InconclusiveReason,
    Site, Tango, Trace, TraceAnalyzer, TraceSource, Verdict,
};

/// 12 random specs × 9 plans = 108 composed fault plans, beyond the
/// 10-spec / 100-plan floor the chaos gate promises.
const SPEC_SEEDS: u64 = 12;
const PLAN_SEEDS: u64 = 9;

/// Build the analyzer and a self-generated valid trace for a seed.
fn setup(seed: u64) -> (TraceAnalyzer, Trace) {
    let spec = RandSpec::new(seed);
    let analyzer = Tango::generate(&spec.source()).expect("randspec sources are valid");
    let trace = analyzer
        .generate_trace(&spec.workload(10), ChoicePolicy::First, 100_000)
        .expect("catch-all transitions keep the workload running");
    (analyzer, trace)
}

/// Damage the trace the way an interoperability arbiter sees real
/// damage: one output parameter off by a thousand. `None` when the
/// trace has no parameterized output to corrupt.
fn corrupted(trace: &Trace) -> Option<Trace> {
    use estelle_runtime::Value;
    let mut t = trace.clone();
    let idx = t
        .events
        .iter()
        .rposition(|e| e.dir == tango::Dir::Out && !e.params.is_empty())?;
    if let Value::Int(v) = t.events[idx].params[0] {
        t.events[idx].params[0] = Value::Int(v + 1000);
    } else {
        t.events[idx].params[0] = Value::Int(1000);
    }
    Some(t)
}

/// A cap both the reference and the chaos run share, so pathological
/// invalid-trace searches stay bounded and equivalence still holds.
const USER_CAP: u64 = 200_000;

fn base_options() -> AnalysisOptions {
    let mut o = AnalysisOptions::default();
    o.limits.max_transitions = USER_CAP;
    o
}

/// Drive one full chaos analysis: source drained through the injector,
/// checkpoint rounds with faulty autosaves and SIGKILL-style aborts
/// (resume strictly from the bytes on disk whenever a save landed).
fn run_chaos(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    plan: &FaultPlan,
    dir: &std::path::Path,
) -> AnalysisReport {
    let opts = base_options();

    // Source site: the search analyzes whatever the degraded feed
    // actually delivered.
    let module = analyzer.module().clone();
    let text = tango::render_trace(trace, Some(&module), true);
    let mut source_faults = Vec::new();
    let (mut source_retries, mut source_giveups) = (0u64, 0u64);
    let effective = match plan.build_source(&text, Some(module)) {
        Some(mut src) => {
            let (t, faults) = tango::fault::drain_source(&mut src, 1_000_000)
                .expect("composed plans have bounded stalls");
            source_faults = faults;
            source_retries = src.fault_retries();
            source_giveups = src.fault_giveups();
            t
        }
        None => trace.clone(),
    };

    let mut report = if plan.armed(Site::Checkpoint) {
        // Checkpoint site armed: run in capped rounds, autosave through
        // the injector, and abort ("SIGKILL") after every successful
        // save — the next round must re-converge from the file alone.
        let mut ck_attempts = 0;
        let cp_path = dir.join("checkpoint.bin");
        let mut ck_faults = Vec::new();
        let (mut ck_retries, mut ck_giveups) = (0u64, 0u64);

        let step = 50u64;
        let mut cap = step;
        let mut round_opts = opts.clone();
        round_opts.limits.max_transitions = cap.min(USER_CAP);
        let mut r = analyzer.analyze(&effective, &round_opts).unwrap();
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 10_000, "chaos rounds must converge: {:?}", plan);
            let synthetic = matches!(
                r.verdict,
                Verdict::Inconclusive(InconclusiveReason::TransitionLimit)
            ) && r.stats.transitions_executed < USER_CAP
                && r.checkpoint.is_some();
            if !synthetic {
                break;
            }
            let cp = *r.checkpoint.take().expect("checked above");
            let before = ck_attempts;
            let out = cp.write_to_with(&cp_path, plan, &mut ck_attempts);
            ck_retries += ck_attempts - before - 1;
            cap = cap.saturating_add(step);
            let mut next = opts.clone();
            next.limits.max_transitions = cap.min(USER_CAP);
            r = match out {
                Ok(()) => {
                    // SIGKILL: nothing in memory survives; resume from
                    // the last save on disk.
                    drop(cp);
                    let from_disk = Checkpoint::read_from(&cp_path).expect("saved checkpoint reads back");
                    analyzer.resume(from_disk, &next).unwrap()
                }
                Err(e) => {
                    // The autosave gave up after its bounded retries —
                    // a typed error, recorded, and the analysis itself
                    // carries on from memory (warn-and-continue).
                    ck_giveups += 1;
                    ck_faults.push(e.to_string());
                    analyzer.resume(cp, &next).unwrap()
                }
            };
        }
        r.stats.checkpoint_retries += ck_retries;
        r.stats.checkpoint_giveups += ck_giveups;
        r.checkpoint_faults = ck_faults;
        r
    } else {
        analyzer.analyze(&effective, &opts).unwrap()
    };

    report.stats.source_retries += source_retries;
    report.stats.source_giveups += source_giveups;
    if !source_faults.is_empty() {
        report.source_faults = source_faults;
    }
    report
}

/// One chaos cell: run the plan, check the invariants against the
/// fault-free reference on the same trace.
fn check_cell(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    reference: &AnalysisReport,
    plan: &FaultPlan,
    tag: &str,
) {
    let dir = common::scratch_dir(tag);
    let report = run_chaos(analyzer, trace, plan, &dir);
    let ctx = || format!("cell {} plan `{}`", tag, plan.describe());

    if plan.is_lossless() {
        // The search saw the same events as the reference: verdict and
        // the paper's counters must match exactly, across retries,
        // faulty autosaves and SIGKILL-resume chains.
        assert_eq!(report.verdict, reference.verdict, "{}", ctx());
        assert_eq!(
            report.stats.counters(),
            reference.stats.counters(),
            "{}",
            ctx()
        );
    }

    // Giveups without a recorded diagnostic would be silent data loss.
    if report.stats.checkpoint_giveups > 0 {
        assert!(!report.checkpoint_faults.is_empty(), "{}", ctx());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_matrix_over_random_specs() {
    let mut cells = 0u64;
    for spec_seed in 0..SPEC_SEEDS {
        let (analyzer, valid) = setup(spec_seed);
        let bad = corrupted(&valid);
        let ref_valid = analyzer.analyze(&valid, &base_options()).unwrap();
        assert_eq!(
            ref_valid.verdict,
            Verdict::Valid,
            "self-generated trace must be valid (spec seed {})",
            spec_seed
        );
        let ref_bad = bad
            .as_ref()
            .map(|t| analyzer.analyze(t, &base_options()).unwrap());

        for plan_seed in 0..PLAN_SEEDS {
            let plan = FaultPlan::random(spec_seed * PLAN_SEEDS + plan_seed);
            assert!(plan.is_armed(), "random plans always arm a site");
            cells += 1;
            // Alternate valid and corrupted traces across the matrix so
            // both see every plan shape.
            match (&bad, &ref_bad) {
                (Some(bad_trace), Some(bad_ref)) if plan_seed % 2 == 1 => check_cell(
                    &analyzer,
                    bad_trace,
                    bad_ref,
                    &plan,
                    &format!("s{}p{}-bad", spec_seed, plan_seed),
                ),
                _ => check_cell(
                    &analyzer,
                    &valid,
                    &ref_valid,
                    &plan,
                    &format!("s{}p{}-valid", spec_seed, plan_seed),
                ),
            }
        }
    }
    assert!(
        cells >= 100,
        "the chaos gate promises at least 100 composed plans, ran {}",
        cells
    );
}

/// The fault counters the runner folds into the final stats are
/// exported as `fault.<site>.*` metrics — the observability half of the
/// chaos contract.
#[test]
fn chaos_fault_counters_reach_the_metrics_registry() {
    let (analyzer, valid) = setup(0);
    // Restart-recovery read errors: lossless, but every error is a
    // retry the stats must count.
    let plan = FaultPlan::parse("seed=42,source.read_error_every=2,source.recovery=restart")
        .unwrap();
    let dir = common::scratch_dir("metrics");
    let report = run_chaos(&analyzer, &valid, &plan, &dir);
    assert_eq!(report.verdict, Verdict::Valid);
    assert!(report.stats.source_retries > 0);
    assert!(report.stats.total_fault_retries() > 0);

    let mut tel = tango::Telemetry::off().with_metrics();
    tel.finalize(&report.stats);
    let m = tel.metrics().expect("metrics enabled");
    assert_eq!(
        m.counter("fault.source.retries"),
        Some(report.stats.source_retries)
    );
    assert_eq!(m.counter("fault.source.giveups"), Some(0));
    assert_eq!(
        m.counter("fault.checkpoint.retries"),
        None,
        "unarmed sites export nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Reproduce-by-seed: the same seed builds the same plan, and the
/// described plan re-parses to itself — the CLI's `--chaos-seed N` and
/// the log line's `--fault-plan '<spec>'` both re-run the same cell.
#[test]
fn chaos_cells_are_reproducible_from_their_seed() {
    for seed in [3u64, 17, 92] {
        let plan = FaultPlan::random(seed);
        assert_eq!(plan, FaultPlan::random(seed));
        assert_eq!(FaultPlan::parse(&plan.describe()).unwrap(), plan);

        let (analyzer, valid) = setup(1);
        let d1 = common::scratch_dir(&format!("repro-a-{}", seed));
        let d2 = common::scratch_dir(&format!("repro-b-{}", seed));
        let a = run_chaos(&analyzer, &valid, &plan, &d1);
        let b = run_chaos(&analyzer, &valid, &plan, &d2);
        assert_eq!(a.verdict, b.verdict, "seed {}", seed);
        assert_eq!(a.stats.counters(), b.stats.counters(), "seed {}", seed);
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d2).ok();
    }
}

/// The chaos matrix is pinned, not just self-consistent: seeds 0–15
/// compose exactly these plans, as `tango analyze --chaos-seed N` echoes
/// them. A drifting `FaultPlan::random` would silently change every
/// cell the matrix runs.
#[test]
fn chaos_plans_of_seeds_0_to_15_are_pinned() {
    let pinned = [
        "source.truncate_every=4,source.recovery=restart,checkpoint.short_write_every=3",
        "seed=1,source.read_error_every=2,source.recovery=fail",
        "seed=2,checkpoint.io_error_every=2",
        "seed=3,source.read_error_every=3,source.recovery=restart,checkpoint.short_write_every=3",
        "seed=4,source.read_error_every=2,source.recovery=fail",
        "seed=5,source.truncate_every=6,source.recovery=restart",
        "seed=6,source.corrupt_every=6,source.stall_every=6,source.stall_polls=2,source.recovery=restart",
        "seed=7,checkpoint.io_error_every=2",
        "seed=8,source.duplicate_every=2,source.recovery=fail,checkpoint.short_write_every=2",
        "seed=9,checkpoint.io_error_every=4",
        "seed=10,source.duplicate_every=2,source.recovery=restart",
        "seed=11,source.short_read_every=4,source.recovery=restart",
        "seed=12,checkpoint.io_error_every=4",
        "seed=13,checkpoint.short_write_every=4",
        "seed=14,source.corrupt_every=6,source.recovery=restart,checkpoint.disk_full_after=2",
        "seed=15,checkpoint.disk_full_after=4",
    ];
    for (seed, want) in pinned.iter().enumerate() {
        let plan = FaultPlan::random(seed as u64);
        assert_eq!(plan.describe(), *want, "seed {}", seed);
        assert_eq!(FaultPlan::parse(want).unwrap(), plan, "seed {}", seed);
    }
}
