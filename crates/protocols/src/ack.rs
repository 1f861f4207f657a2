//! The paper's Figure 1 specification, `ack`.
//!
//! Two interaction points. `x` interactions at A nondeterministically
//! either loop in S1 (T1) or move to S2 (T2); a `y` at B in S2 emits the
//! `ack` at A (T3) and returns to S1. The paper uses it to motivate MDFS:
//! with inputs `[x x x]` at A, `[y]` at B and traced output `[ack]`, a
//! plain DFS that greedily fires T1 three times dead-ends and would wait
//! forever, while the solution is `T1 T2 T3 T1`.

use tango::{Tango, TraceAnalyzer};

/// The Estelle source of the `ack` specification, `specs/ack.est`.
pub const SOURCE: &str = include_str!("../../../specs/ack.est");

/// Generate the trace analyzer for `ack`.
pub fn analyzer() -> TraceAnalyzer {
    Tango::generate(SOURCE).expect("the ack specification is valid")
}

/// The paper's §3.1 scenario as a trace file: three `x`, one `y`, one
/// `ack` — valid, but only via the non-greedy path `T1 T2 T3 T1`.
pub const PAPER_SCENARIO: &str = "\
in A.x
in A.x
in B.y
out A.ack
in A.x
";

#[cfg(test)]
mod tests {
    use super::*;
    use tango::{AnalysisOptions, OrderOptions, Verdict};

    #[test]
    fn spec_builds() {
        let a = analyzer();
        assert_eq!(a.module().states, vec!["S1", "S2"]);
        assert_eq!(a.machine.module.transition_count(), 3);
    }

    #[test]
    fn paper_scenario_is_valid_and_needs_backtracking() {
        let a = analyzer();
        // Without order checking the x's and y may interleave freely; the
        // analyzer must discover T1 T2 T3 T1.
        let r = a
            .analyze_text(PAPER_SCENARIO, &AnalysisOptions::with_order(OrderOptions::none()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Valid);
        let witness = r.witness.unwrap();
        assert!(witness.contains(&"T2".to_string()));
        assert!(witness.contains(&"T3".to_string()));
    }

    #[test]
    fn unexplained_ack_is_invalid() {
        let a = analyzer();
        // An ack with no y to trigger it can never be generated.
        let r = a
            .analyze_text("in A.x\nout A.ack\n", &AnalysisOptions::default())
            .unwrap();
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    #[test]
    fn greedy_dead_end_forces_restores() {
        let a = analyzer();
        let r = a
            .analyze_text(PAPER_SCENARIO, &AnalysisOptions::with_order(OrderOptions::none()))
            .unwrap();
        // T1/T2 on the first x both look plausible: some backtracking (or
        // at least saved states) must have occurred.
        assert!(r.stats.saves > 0);
    }
}
