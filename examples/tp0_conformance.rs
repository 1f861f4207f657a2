//! TP0 conformance checking (§4.2 of the paper).
//!
//! Generates valid traces of the Class 0 Transport Protocol, analyzes
//! them under all four relative-order-checking presets, then mutates the
//! last data interaction — the paper's invalid-trace construction — and
//! shows how order checking collapses the search.
//!
//! ```sh
//! cargo run --example tp0_conformance --release
//! ```

use tango::{AnalysisOptions, OrderOptions};
use tango_repro::protocols::tp0;

fn main() {
    let analyzer = tp0::analyzer();
    println!(
        "TP0: {} transition declarations (paper's spec had 19)",
        analyzer.module().declared_transition_count()
    );

    let trace = tp0::complete_valid_trace(4, 4, 42);
    println!("\nvalid trace with 4+4 data interactions, {} events:", trace.len());
    for (order, label) in [
        (OrderOptions::none(), "NR  "),
        (OrderOptions::io(), "IO  "),
        (OrderOptions::ip(), "IP  "),
        (OrderOptions::full(), "FULL"),
    ] {
        let r = analyzer
            .analyze(&trace, &AnalysisOptions::with_order(order))
            .expect("analysis runs");
        println!("  {}  {}", label, r);
    }

    let bad = tp0::invalid_trace(4, 4, 42);
    println!("\nsame trace with the last data parameter mutated:");
    for (order, label) in [
        (OrderOptions::none(), "NR  "),
        (OrderOptions::io(), "IO  "),
        (OrderOptions::ip(), "IP  "),
        (OrderOptions::full(), "FULL"),
    ] {
        let mut options = AnalysisOptions::with_order(order);
        options.limits.max_transitions = 5_000_000;
        let r = analyzer.analyze(&bad, &options).expect("analysis runs");
        println!("  {}  {}", label, r);
    }

    println!(
        "\nNote the TE gap between NR and FULL on the invalid trace: that is\n\
         the paper's Figure 4 — order checking removes the permutations of\n\
         t13..t16 interleavings the search would otherwise have to refute."
    );
}
