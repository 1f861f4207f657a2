//! Ablation: the visited-state hash table the paper proposes as future
//! work.
//!
//! §4.2: "Another useful approach might be to keep information about
//! which states were reached during the search in a hash table, to
//! prevent the analysis of the same state twice." This is implemented
//! behind `AnalysisOptions::state_hashing`; the ablation measures its
//! effect on the pathological workload that motivated it — invalid TP0
//! traces, where distinct interleavings of t13–t16 reconverge to the same
//! (buffers, cursors) state.
//!
//! ```sh
//! cargo run -p bench --bin ablation_hashing --release
//! ```

use bench::{print_table, Row};
use protocols::tp0;
use tango::{AnalysisOptions, OrderOptions};

fn main() {
    let analyzer = tp0::analyzer();
    for order in [OrderOptions::none(), OrderOptions::full()] {
        let mut rows = Vec::new();
        for (up, down) in [(2usize, 2usize), (3, 3), (4, 4), (5, 5)] {
            let bad = tp0::invalidate_last_data(&tp0::complete_valid_trace(up, down, 20)).unwrap();
            for hashing in [false, true] {
                let mut options = AnalysisOptions::with_order(order);
                options.state_hashing = hashing;
                options.limits.max_transitions = 20_000_000;
                let report = analyzer.analyze(&bad, &options).unwrap();
                let mut row = Row::from_report(
                    format!("{}+{}{}", up, down, if hashing { "#" } else { " " }),
                    &report,
                );
                row.fanout = report.stats.hash_prunes as f64;
                rows.push(row);
            }
        }
        print_table(
            &format!(
                "Invalid TP0 under {} checking — '#' rows have state hashing on",
                order.label()
            ),
            "data",
            &rows,
        );
        for r in &rows {
            if r.key.ends_with('#') {
                println!("  {}: {} states pruned by the hash table", r.key, r.fanout);
            }
        }
    }
}
