//! Resource-governed analysis: deadlines, memory budgets and
//! checkpoint/resume.
//!
//! A batch analyzer cannot let one pathological trace monopolize the
//! machine (§4.2's exponential blowups). This example runs an invalid TP0
//! trace under a deliberately tiny wall-clock deadline, gets an
//! `Inconclusive(TimeLimit)` verdict with a resumable checkpoint, and
//! continues the same search with the limit lifted. The resumed run
//! reaches the conclusive verdict with exactly the TE/GE/RE/SA totals an
//! uninterrupted run would have reported, so budgeted batch figures stay
//! comparable with the paper's tables.
//!
//! ```sh
//! cargo run --example resource_governed
//! ```

use std::time::Duration;
use tango::{AnalysisOptions, Verdict};
use tango_repro::protocols::tp0;

fn main() {
    let analyzer = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);

    // Reference: the same analysis with no limits at all.
    let options = AnalysisOptions::default();
    let straight = analyzer.analyze(&bad, &options).expect("trace analyzable");
    println!("uninterrupted: {}", straight);

    // Now with a 1µs deadline: the search stops almost immediately.
    let mut tight = options.clone();
    tight.limits.max_wall_time = Some(Duration::from_micros(1));
    let stopped = analyzer.analyze(&bad, &tight).expect("trace analyzable");
    println!("under deadline: {}", stopped);
    let checkpoint = *stopped
        .checkpoint
        .expect("a limit-stopped static analysis is resumable");
    println!(
        "checkpoint: depth {}, {} pending frame(s), {} so far",
        checkpoint.depth(),
        checkpoint.pending_frames(),
        checkpoint.stats()
    );

    // Resume with the deadline lifted; counters continue, not restart.
    let resumed = analyzer
        .analyze_resume(checkpoint, &options)
        .expect("trace analyzable");
    println!("after resume:  {}", resumed);

    assert_eq!(straight.verdict, Verdict::Invalid);
    assert_eq!(resumed.verdict, straight.verdict);
    assert_eq!(
        (
            resumed.stats.transitions_executed,
            resumed.stats.generates,
            resumed.stats.restores,
            resumed.stats.saves,
        ),
        (
            straight.stats.transitions_executed,
            straight.stats.generates,
            straight.stats.restores,
            straight.stats.saves,
        ),
        "stop + resume must match the uninterrupted run exactly"
    );
    println!("stop/resume totals match the uninterrupted run");
}
