//! Alternating Bit Protocol sender.
//!
//! A compact classic beyond the paper's own case studies, included
//! because it distils the exact nondeterminism class Tango targets:
//! the sender may retransmit the outstanding frame *at any moment*
//! (a spontaneous transition), so two correct implementations of the same
//! workload can produce traces with different numbers of `data` frames —
//! and the analyzer must accept each trace exactly as observed while
//! still rejecting sequence-bit violations.
//!
//! Timers are modelled away (the paper's Tango has no time either):
//! retransmission is spontaneous but bounded by a retry budget, keeping
//! the specification free of unbounded non-progress behaviour. Acks that
//! arrive while the sender is idle simply wait in the FIFO queue until
//! the next exchange classifies them as stale.

use estelle_runtime::Value;
use tango::{ChoicePolicy, ScriptedInput, Tango, Trace, TraceAnalyzer};

/// The Estelle source of the ABP sender specification, `specs/abp.est`.
pub const SOURCE: &str = include_str!("../../../specs/abp.est");

/// Generate the ABP trace analyzer.
pub fn analyzer() -> TraceAnalyzer {
    Tango::generate(SOURCE).expect("the ABP specification is valid")
}

/// A workload of `n` user messages with matching acknowledgements.
pub fn workload(n: usize) -> Vec<ScriptedInput> {
    let mut s = Vec::new();
    for i in 0..n {
        s.push(ScriptedInput::new(
            "U",
            "req",
            vec![Value::Int((i % 256) as i64)],
        ));
        s.push(ScriptedInput::new(
            "L",
            "ack",
            vec![Value::Int((i % 2) as i64)],
        ));
    }
    s
}

/// A valid trace; different seeds retransmit different amounts.
pub fn valid_trace(n: usize, seed: u64) -> Trace {
    analyzer()
        .generate_trace(&workload(n), ChoicePolicy::Random(seed), 100_000)
        .expect("ABP consumes its whole workload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango::{AnalysisOptions, Dir, OrderOptions, Verdict};

    #[test]
    fn spec_builds() {
        let a = analyzer();
        assert_eq!(a.module().states, vec!["Idle", "Wait"]);
        assert_eq!(a.module().declared_transition_count(), 4);
    }

    #[test]
    fn traces_with_and_without_retransmissions_verify() {
        let a = analyzer();
        let mut frame_counts = Vec::new();
        for seed in 0..10 {
            let t = valid_trace(3, seed);
            frame_counts.push(
                t.events
                    .iter()
                    .filter(|e| e.interaction == "data")
                    .count(),
            );
            let r = a
                .analyze(&t, &AnalysisOptions::with_order(OrderOptions::full()))
                .unwrap();
            assert_eq!(r.verdict, Verdict::Valid, "seed {}", seed);
        }
        // The retransmission nondeterminism must show across seeds.
        assert!(
            frame_counts.iter().any(|&c| c != frame_counts[0]),
            "expected varying data-frame counts, got {:?}",
            frame_counts
        );
    }

    #[test]
    fn wrong_sequence_bit_detected() {
        let a = analyzer();
        let mut t = valid_trace(2, 4);
        // Flip the bit of the first data frame.
        let idx = t
            .events
            .iter()
            .position(|e| e.dir == Dir::Out && e.interaction == "data")
            .unwrap();
        if let Value::Int(b) = t.events[idx].params[0] {
            t.events[idx].params[0] = Value::Int(1 - b);
        }
        let r = a
            .analyze(&t, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    #[test]
    fn missing_confirmation_detected() {
        let a = analyzer();
        let trace = "\
in U.req(9)
out L.data(0, 9)
in L.ack(0)
";
        // GoodAck must emit U.conf; a trace without it is invalid.
        let r = a
            .analyze_text(trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    #[test]
    fn stale_ack_path_is_explainable() {
        let a = analyzer();
        let trace = "\
in U.req(5)
out L.data(0, 5)
in L.ack(1)
out L.data(0, 5)
in L.ack(0)
out U.conf
";
        let r = a
            .analyze_text(trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Valid);
        let w = r.witness.unwrap();
        assert!(w.contains(&"StaleAck".to_string()));
        assert!(w.contains(&"Retransmit".to_string()));
    }

    #[test]
    fn retry_budget_limits_duplicate_frames() {
        let a = analyzer();
        // Five copies of the frame = 1 original + 4 retransmissions,
        // exceeding maxretry = 3.
        let trace = "\
in U.req(5)
out L.data(0, 5)
out L.data(0, 5)
out L.data(0, 5)
out L.data(0, 5)
out L.data(0, 5)
";
        let r = a
            .analyze_text(trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Invalid);
    }
}
