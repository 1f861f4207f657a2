//! Memory tiering under pressure: finish on disk instead of dying.
//!
//! ROADMAP item 4's acceptance story in one harness. The workload is an
//! NR-order invalid TP0 trace — the worst-fanout backtracking blowup —
//! run once unlimited (the all-RAM baseline), then under a ladder of
//! snapshot budgets taken as fractions of the measured peak residency
//! (50% / 25% / 10% / 5%), each with the spill tier enabled. Every
//! tiered row must reproduce the baseline verdict and TE/GE/RE/SA
//! exactly: the tier trades disk bandwidth for memory, never search
//! decisions. The final row reruns the tightest budget with spilling
//! *off* and must die `Inconclusive(MemoryLimit)` — the before/after
//! proof that a run which previously could not complete now does.
//!
//! ```sh
//! cargo run -p bench --bin spill --release            # full record
//! cargo run -p bench --bin spill --release -- --quick # CI smoke (<5 s)
//! cargo run -p bench --bin spill -- --check FILE      # validate JSON
//! ```

use bench::json;
use protocols::tp0;
use std::path::{Path, PathBuf};
use tango::{
    AnalysisOptions, InconclusiveReason, OrderOptions, SpillMode, Trace, TraceAnalyzer, Verdict,
};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spill.json");

struct RowResult {
    label: String,
    budget_bytes: Option<usize>,
    spill: bool,
    cpu_seconds: f64,
    nodes_per_sec: f64,
    te: u64,
    ge: u64,
    re: u64,
    sa: u64,
    peak_snapshot_bytes: usize,
    peak_spilled_bytes: usize,
    spill_writes: u64,
    spill_reads: u64,
    spill_retries: u64,
    spill_evictions: u64,
    verdict: Verdict,
}

fn run_row(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    label: &str,
    budget: Option<usize>,
    spill: bool,
    dir: &Path,
) -> RowResult {
    let mut options = AnalysisOptions::with_order(OrderOptions::none());
    options.limits.max_state_bytes = budget;
    if spill {
        options.spill.mode = SpillMode::On;
        options.spill.dir = Some(dir.to_path_buf());
    }
    let r = analyzer.analyze(trace, &options).expect("analysis runs");
    assert!(
        r.spill_faults.is_empty(),
        "{}: a healthy disk must not fault: {:?}",
        label,
        r.spill_faults
    );
    RowResult {
        label: label.to_string(),
        budget_bytes: budget,
        spill,
        cpu_seconds: r.stats.wall_time.as_secs_f64(),
        nodes_per_sec: r.stats.transitions_per_second(),
        te: r.stats.transitions_executed,
        ge: r.stats.generates,
        re: r.stats.restores,
        sa: r.stats.saves,
        peak_snapshot_bytes: r.stats.peak_snapshot_bytes,
        peak_spilled_bytes: r.stats.peak_spilled_bytes,
        spill_writes: r.stats.spill_writes,
        spill_reads: r.stats.spill_reads,
        spill_retries: r.stats.spill_retries,
        spill_evictions: r.stats.spill_evictions,
        verdict: r.verdict,
    }
}

fn row_json(m: &RowResult) -> String {
    format!(
        "    {{\"label\": \"{}\", \"budget_bytes\": {}, \"spill\": {}, \
         \"cpu_seconds\": {}, \"nodes_per_sec\": {}, \
         \"te\": {}, \"ge\": {}, \"re\": {}, \"sa\": {}, \
         \"peak_snapshot_bytes\": {}, \"peak_spilled_bytes\": {}, \
         \"spill_writes\": {}, \"spill_reads\": {}, \"spill_retries\": {}, \
         \"spill_evictions\": {}, \"verdict\": \"{}\"}}",
        json::escape(&m.label),
        m.budget_bytes
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".to_string()),
        m.spill,
        json::number(m.cpu_seconds),
        json::number(m.nodes_per_sec),
        m.te,
        m.ge,
        m.re,
        m.sa,
        m.peak_snapshot_bytes,
        m.peak_spilled_bytes,
        m.spill_writes,
        m.spill_reads,
        m.spill_retries,
        m.spill_evictions,
        json::escape(&m.verdict.to_string())
    )
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tango-bench-spill-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map(String::as_str).unwrap_or(OUT_PATH);
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("spill --check: cannot read {}: {}", path, e);
                std::process::exit(1);
            }
        };
        if let Err(e) = json::validate(&text) {
            eprintln!("spill --check: {}: {}", path, e);
            std::process::exit(1);
        }
        if !text.contains("\"benchmark\": \"spill\"") {
            eprintln!("spill --check: {}: not a spill record", path);
            std::process::exit(1);
        }
        println!("{}: well-formed spill record", path);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");

    // NR keeps the fanout at its worst, and corrupting the trailing DATA
    // forces the search to backtrack over every interleaving before it
    // can reject — peak snapshot residency scales with the blowup.
    let (up, down) = if quick { (2, 2) } else { (4, 4) };
    let analyzer = tp0::analyzer();
    let trace = tp0::invalidate_last_data(&tp0::complete_valid_trace(up, down, 20))
        .expect("complete trace ends in DATA");

    println!(
        "{:>18} {:>12} {:>6} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "row", "budget", "spill", "CPUT(s)", "peak RAM", "peak disk", "evict", "verdict"
    );
    let show = |m: &RowResult| {
        println!(
            "{:>18} {:>12} {:>6} {:>10.3} {:>12} {:>12} {:>10} {:>8}",
            m.label,
            m.budget_bytes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_string()),
            m.spill,
            m.cpu_seconds,
            m.peak_snapshot_bytes,
            m.peak_spilled_bytes,
            m.spill_evictions,
            m.verdict
        )
    };

    let mut rows = Vec::new();
    let dir = spill_dir("baseline");
    let baseline = run_row(&analyzer, &trace, "all-ram", None, false, &dir);
    assert_eq!(baseline.verdict, Verdict::Invalid, "the workload is conclusive");
    show(&baseline);

    // Budget ladder: fractions of the baseline's measured peak residency.
    let peak = baseline.peak_snapshot_bytes;
    let fractions: &[(u32, &str)] = if quick {
        &[(50, "50%"), (10, "10%")]
    } else {
        &[(50, "50%"), (25, "25%"), (10, "10%"), (5, "5%")]
    };
    let mut tightest = peak;
    for &(pct, label) in fractions {
        let budget = (peak * pct as usize / 100).max(1);
        tightest = tightest.min(budget);
        let dir = spill_dir(label.trim_end_matches('%'));
        let row = run_row(
            &analyzer,
            &trace,
            &format!("spill-{}", label),
            Some(budget),
            true,
            &dir,
        );
        show(&row);
        assert_eq!(
            (row.verdict.clone(), row.te, row.ge, row.re, row.sa),
            (
                baseline.verdict.clone(),
                baseline.te,
                baseline.ge,
                baseline.re,
                baseline.sa
            ),
            "{}: the tier must not change the verdict or TE/GE/RE/SA",
            row.label
        );
        assert!(
            row.spill_evictions > 0,
            "{}: a {} budget must actually evict",
            row.label,
            label
        );
        assert!(
            row.peak_snapshot_bytes <= budget.max(baseline.peak_snapshot_bytes / 2),
            "{}: residency must track the budget (peak {} vs budget {})",
            row.label,
            row.peak_snapshot_bytes,
            budget
        );
        std::fs::remove_dir_all(&dir).ok();
        rows.push(row);
    }

    // The before/after proof: the tightest budget with spilling off is
    // the run that used to die. It must stop Inconclusive(MemoryLimit) —
    // the exact kill this PR turns into tiering.
    let dir = spill_dir("no-spill");
    let died = run_row(&analyzer, &trace, "no-spill", Some(tightest), false, &dir);
    show(&died);
    assert_eq!(
        died.verdict,
        Verdict::Inconclusive(InconclusiveReason::MemoryLimit),
        "without the tier the tightest budget must still be a kill switch"
    );
    assert!(
        died.te < baseline.te,
        "the killed run must have stopped short of the full search"
    );

    rows.insert(0, baseline);
    rows.push(died);
    let doc = format!(
        "{{\n  \"benchmark\": \"spill\",\n  \"quick\": {},\n  \
         \"workload\": \"tp0-invalid-{}+{}-NR\",\n  \"trace_len\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        quick,
        up,
        down,
        trace.len(),
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n")
    );
    json::validate(&doc).expect("emitted record is well-formed JSON");
    std::fs::write(OUT_PATH, &doc).expect("write BENCH_spill.json");
    println!("\nwrote {}", OUT_PATH);
}
