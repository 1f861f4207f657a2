//! §4 throughput claim: transitions searched per second vs. spec size.
//!
//! "For simple test-specifications with under 10 transition declarations,
//! TAMs can search up to 250 transitions per second. For … TP0 (19
//! transition declarations) … between 40 and 60 … LAPD (over 800
//! transition declarations) … only 10."
//!
//! The absolute numbers belong to a 1995 SUN 4; the *inverse relation*
//! between declaration count and throughput is the claim to reproduce.
//! Synthetic ring specifications give a controlled declaration-count
//! sweep; TP0 and LAPD are measured alongside for reference. Every row
//! is measured under both executors, selected through
//! `Machine::exec_view`: the bytecode VM with its by-control-state
//! dispatch index, and the tree-walking reference interpreter — the
//! relation must hold in both columns, and the search totals must be
//! identical across them. `speedup_trans_per_sec` is the VM's throughput
//! over the tree walker's.
//!
//! Timing: every measurement loops the analysis until a minimum total
//! duration is reached (200ms full, 5ms quick) and reports the
//! nanosecond-precision *mean* per-run duration — single-shot timing
//! used to flatten fast rows to `cpu_seconds: 0.000`. The best of
//! several passes is kept to shed scheduler noise.
//!
//! The rows are recorded in `BENCH_tps.json` at the repo root.
//!
//! ```sh
//! cargo run -p bench --bin tps_by_spec_size --release            # full record
//! cargo run -p bench --bin tps_by_spec_size --release -- --quick # CI smoke
//! cargo run -p bench --bin tps_by_spec_size -- --check FILE      # validate JSON
//! ```

use bench::json;
use estelle_runtime::ExecMode;
use protocols::synthetic::SyntheticSpec;
use protocols::{lapd, tp0};
use std::time::Duration;
use tango::{AnalysisOptions, ChoicePolicy, OrderOptions, Trace, TraceAnalyzer};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tps.json");

struct Row {
    spec: String,
    decls: usize,
    trace_len: usize,
}

struct ExecResult {
    te: u64,
    /// Search totals that must be identical across executors:
    /// (TE, GE, RE, SA).
    totals: (u64, u64, u64, u64),
    /// Mean wall time of one analysis run, seconds (ns precision).
    cpu_seconds: f64,
    tps: f64,
    verdict: String,
}

/// Measure one executor on one workload: loop the analysis until the
/// pass accumulates at least `min_total`, repeat for `passes` passes and
/// keep the fastest (scheduler noise only ever slows a run down).
fn run_exec(analyzer: &TraceAnalyzer, trace: &Trace, exec: ExecMode, quick: bool) -> ExecResult {
    let analyzer = TraceAnalyzer::from_machine(analyzer.machine.exec_view(exec));
    let options = AnalysisOptions::with_order(OrderOptions::none());
    let min_total = if quick {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(200)
    };
    let passes = if quick { 1 } else { 3 };

    // Totals and verdict come from an untimed first run (also a warmup).
    let first = analyzer.analyze(trace, &options).expect("analysis runs");
    let totals = (
        first.stats.transitions_executed,
        first.stats.generates,
        first.stats.restores,
        first.stats.saves,
    );

    let mut best_tps = 0.0f64;
    let mut best_mean = f64::INFINITY;
    for _ in 0..passes {
        let mut total = Duration::ZERO;
        let mut total_te = 0u64;
        let mut reps = 0u32;
        while reps == 0 || total < min_total {
            let report = analyzer.analyze(trace, &options).expect("analysis runs");
            total += report.stats.wall_time;
            total_te += report.stats.transitions_executed;
            reps += 1;
        }
        let secs = total.as_secs_f64();
        let tps = if secs > 0.0 { total_te as f64 / secs } else { 0.0 };
        if tps > best_tps {
            best_tps = tps;
            best_mean = secs / reps as f64;
        }
    }

    ExecResult {
        te: totals.0,
        totals,
        cpu_seconds: best_mean,
        tps: best_tps,
        verdict: first.verdict.to_string(),
    }
}

fn exec_json(r: &ExecResult) -> String {
    format!(
        "{{\"te\": {}, \"cpu_seconds\": {}, \"trans_per_sec\": {}, \"verdict\": \"{}\"}}",
        r.te,
        json::number_ns(r.cpu_seconds),
        json::number(r.tps),
        json::escape(&r.verdict)
    )
}

fn measure(row: Row, analyzer: &TraceAnalyzer, trace: &Trace, quick: bool, rows: &mut Vec<String>) {
    let compiled = run_exec(analyzer, trace, ExecMode::Compiled, quick);
    let interp = run_exec(analyzer, trace, ExecMode::Interp, quick);
    assert_eq!(
        (compiled.totals, &compiled.verdict),
        (interp.totals, &interp.verdict),
        "{}: executors must do identical search work",
        row.spec
    );

    for (label, r) in [("compiled", &compiled), ("interp", &interp)] {
        println!(
            "{:>14} {:>8} {:>9} {:>12} {:>14.9} {:>14.0}",
            row.spec, row.decls, label, r.te, r.cpu_seconds, r.tps
        );
    }
    let speedup = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    rows.push(format!(
        "    {{\"spec\": \"{}\", \"decls\": {}, \"trace_len\": {},\n     \
         \"compiled\": {},\n     \"interp\": {},\n     \
         \"speedup_trans_per_sec\": {}}}",
        json::escape(&row.spec),
        row.decls,
        row.trace_len,
        exec_json(&compiled),
        exec_json(&interp),
        json::number(speedup(compiled.tps, interp.tps)),
    ));
}

fn check(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tps_by_spec_size --check: cannot read {}: {}", path, e);
            std::process::exit(1);
        }
    };
    if let Err(e) = json::validate(&text) {
        eprintln!("tps_by_spec_size --check: {}: {}", path, e);
        std::process::exit(1);
    }
    // Row schema: every row carries both executor columns and their
    // ratio.
    for key in [
        "\"benchmark\": \"tps_by_spec_size\"",
        "\"compiled\":",
        "\"interp\":",
        "\"speedup_trans_per_sec\":",
    ] {
        if !text.contains(key) {
            eprintln!("tps_by_spec_size --check: {}: missing {} in record", path, key);
            std::process::exit(1);
        }
    }
    let speedups = json::numbers_for_key(&text, "speedup_trans_per_sec");
    if speedups.is_empty() {
        eprintln!("tps_by_spec_size --check: {}: no speedup values", path);
        std::process::exit(1);
    }
    println!(
        "{}: well-formed tps_by_spec_size record ({} rows)",
        path,
        speedups.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        check(args.get(1).map(String::as_str).unwrap_or(OUT_PATH));
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");

    println!(
        "{:>14} {:>8} {:>9} {:>12} {:>14} {:>14}",
        "spec", "decls", "exec", "TE", "mean CPUT(s)", "trans/sec"
    );

    let mut rows = Vec::new();
    let sweep: &[usize] = if quick {
        &[5, 50]
    } else {
        &[5, 19, 50, 100, 200, 400, 800]
    };
    let steps = if quick { 50 } else { 400 };
    for &decls in sweep {
        let spec = SyntheticSpec::new(4, decls);
        let analyzer = spec.analyzer();
        let trace = analyzer
            .generate_trace(&spec.workload(steps), ChoicePolicy::First, 100_000)
            .expect("workload runs");
        measure(
            Row {
                spec: "synthetic".to_string(),
                decls,
                trace_len: trace.len(),
            },
            &analyzer,
            &trace,
            quick,
            &mut rows,
        );
    }

    // Reference points: the paper's two protocols.
    let di = if quick { 10 } else { 60 };
    {
        let analyzer = tp0::analyzer();
        let trace = tp0::valid_trace(di, di, 4);
        measure(
            Row {
                spec: "tp0".to_string(),
                decls: analyzer.module().declared_transition_count(),
                trace_len: trace.len(),
            },
            &analyzer,
            &trace,
            quick,
            &mut rows,
        );
    }
    {
        let analyzer = lapd::analyzer();
        let trace = lapd::valid_trace(di, 0, 4);
        measure(
            Row {
                spec: "lapd".to_string(),
                decls: analyzer.module().declared_transition_count(),
                trace_len: trace.len(),
            },
            &analyzer,
            &trace,
            quick,
            &mut rows,
        );
    }
    {
        // The paper's LAPD size class: 800+ compiled transitions.
        let analyzer = lapd::analyzer_expanded();
        let trace = lapd::valid_trace(di, 0, 4);
        measure(
            Row {
                spec: "lapd-800".to_string(),
                decls: analyzer.machine.module.transition_count(),
                trace_len: trace.len(),
            },
            &analyzer,
            &trace,
            quick,
            &mut rows,
        );
    }

    let doc = format!(
        "{{\n  \"benchmark\": \"tps_by_spec_size\",\n  \"quick\": {},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        quick,
        rows.join(",\n")
    );
    json::validate(&doc).expect("emitted record is well-formed JSON");
    std::fs::write(OUT_PATH, &doc).expect("write BENCH_tps.json");
    println!("\nwrote {}", OUT_PATH);
}
