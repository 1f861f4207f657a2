//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one experiment (see DESIGN.md's
//! per-experiment index); this library holds the row/table plumbing they
//! share. The Criterion benches under `benches/` measure the same
//! workloads at reduced sizes for statistically solid timing.

use tango::{AnalysisOptions, AnalysisReport, OrderOptions, TraceAnalyzer, Verdict};
use tango::Trace;

pub mod json;

/// One row of a paper-style results table.
#[derive(Clone, Debug)]
pub struct Row {
    /// First column: DI, depth, #declarations, … depending on the table.
    pub key: String,
    pub cpu_seconds: f64,
    pub te: u64,
    pub ge: u64,
    pub re: u64,
    pub sa: u64,
    pub verdict: Verdict,
    pub fanout: f64,
}

impl Row {
    pub fn from_report(key: impl Into<String>, r: &AnalysisReport) -> Self {
        Row {
            key: key.into(),
            cpu_seconds: r.stats.wall_time.as_secs_f64(),
            te: r.stats.transitions_executed,
            ge: r.stats.generates,
            re: r.stats.restores,
            sa: r.stats.saves,
            verdict: r.verdict.clone(),
            fanout: r.stats.average_fanout(),
        }
    }
}

/// Render rows in the paper's column layout:
/// `KEY  CPUT  TE  GE  RE  SA`.
pub fn print_table(title: &str, key_header: &str, rows: &[Row]) {
    println!("\n== {} ==", title);
    println!(
        "{key_header:>8} {:>10} {:>10} {:>10} {:>10} {:>10}  verdict",
        "CPUT(s)", "TE", "GE", "RE", "SA"
    );
    for r in rows {
        println!(
            "{:>8} {:>10.3} {:>10} {:>10} {:>10} {:>10}  {}",
            r.key, r.cpu_seconds, r.te, r.ge, r.re, r.sa, r.verdict
        );
    }
}

/// Analyze `trace` under an order-checking preset, returning a table row.
pub fn analyze_row(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    order: OrderOptions,
    key: impl Into<String>,
    max_transitions: u64,
) -> Row {
    let mut options = AnalysisOptions::with_order(order);
    options.limits.max_transitions = max_transitions;
    let report = analyzer.analyze(trace, &options).expect("analysis runs");
    Row::from_report(key, &report)
}

/// The four presets in the order the paper's Figure 3 lists them.
pub fn order_presets() -> [(OrderOptions, &'static str); 4] {
    [
        (OrderOptions::none(), "NR"),
        (OrderOptions::io(), "IO"),
        (OrderOptions::ip(), "IP"),
        (OrderOptions::full(), "FULL"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_captures_report_counters() {
        let a = protocols::tp0::analyzer();
        let t = protocols::tp0::valid_trace(2, 1, 3);
        let row = analyze_row(&a, &t, OrderOptions::full(), "x", 1_000_000);
        assert!(row.verdict.is_valid());
        assert!(row.te > 0);
        assert!(row.ge > 0);
    }

    #[test]
    fn presets_are_the_paper_rows() {
        let labels: Vec<_> = order_presets().iter().map(|(_, l)| *l).collect();
        assert_eq!(labels, ["NR", "IO", "IP", "FULL"]);
    }
}
