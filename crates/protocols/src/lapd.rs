//! LAPD — the D-channel link access protocol (CCITT Q.921), §4.1.
//!
//! A Q.921-inspired single-module specification standing in for the CNET
//! LAPD spec the paper used (that Estelle source is long gone; see
//! DESIGN.md for the substitution argument). The module mediates between
//! a layer-3 user (IP `U`) and the physical line (IP `L`):
//!
//! * link establishment (SABME/UA/DM) in both directions;
//! * multiple-frame operation with send/receive sequence numbers
//!   `vs`/`vr`/`va` modulo 8;
//! * I-frame transfer with a pointer-linked outgoing queue;
//! * **piggybacked acknowledgements** — an in-sequence I-frame may be
//!   acknowledged immediately with an RR, or the acknowledgement may be
//!   withheld for a later I-frame/RR (transitions `Td3`/`Td4`/`Td5` are
//!   genuinely nondeterministic). This is the paper's archetypal source
//!   of specification nondeterminism;
//! * REJ on out-of-sequence frames, release (DISC/UA), and frame
//!   discarding outside multiple-frame operation.

use estelle_runtime::Value;
use tango::{ChoicePolicy, ScriptedInput, Tango, Trace, TraceAnalyzer};

/// The Estelle source of the LAPD specification, `specs/lapd.est`.
pub const SOURCE: &str = include_str!("../../../specs/lapd.est");

/// Generate the LAPD trace analyzer.
pub fn analyzer() -> TraceAnalyzer {
    Tango::generate(SOURCE).expect("the LAPD specification is valid")
}

/// The paper's LAPD compiled to "over 800 transition declarations" — the
/// CNET specification enumerated frame handling case by case. To measure
/// at the same compiled size, this variant pads the core spec with
/// `any`-expanded transitions whose guards can never hold (`k` ranges
/// over 8..207, while `vs` stays within 0..7): semantically inert, but
/// every generate operation still has to consider them, reproducing the
/// per-step cost of a large transition table.
pub fn source_expanded() -> String {
    let padding = r#"
    from MF_EST to same any k : 8..207 do provided vs = k name Pad1:
        begin vs := 0; end;
    from AW_EST to same any k : 8..207 do provided vr = k name Pad2:
        begin vr := 0; end;
    from TEI_ASSIGNED to same any k : 8..207 do provided va = k name Pad3:
        begin va := 0; end;
    from AW_REL to same any k : 8..207 do provided va = k name Pad4:
        begin va := 0; end;
end;
"#;
    // Splice the padding before the body's `end;`.
    let marker = "end;\nend.";
    let idx = SOURCE.rfind(marker).expect("LAPD source ends with body+spec end");
    format!("{}{}\nend.", &SOURCE[..idx], padding.trim_end())
}

/// Analyzer for the 800+-transition variant.
pub fn analyzer_expanded() -> TraceAnalyzer {
    Tango::generate(&source_expanded()).expect("the expanded LAPD specification is valid")
}

/// The Figure-3 workload: the user establishes the link, sends
/// `di_user` data packets and releases; the peer acknowledges with UA,
/// per-frame RRs, and (optionally) sends `di_peer` I-frames of its own —
/// those exercise the piggyback nondeterminism.
pub fn workload(di_user: usize, di_peer: usize) -> Vec<ScriptedInput> {
    let mut s = vec![
        ScriptedInput::new("U", "dl_est_req", vec![]),
        ScriptedInput::new("L", "ua", vec![]),
    ];
    for i in 0..di_user {
        s.push(ScriptedInput::new(
            "U",
            "dl_data_req",
            vec![Value::Int((i % 256) as i64)],
        ));
    }
    for k in 0..di_peer {
        s.push(ScriptedInput::new(
            "L",
            "iframe",
            vec![
                Value::Int((k % 8) as i64),
                Value::Int(0),
                Value::Int(((100 + k) % 256) as i64),
            ],
        ));
    }
    for i in 0..di_user {
        s.push(ScriptedInput::new(
            "L",
            "rr",
            vec![Value::Int(((i + 1) % 8) as i64)],
        ));
    }
    s.push(ScriptedInput::new("U", "dl_rel_req", vec![]));
    s.push(ScriptedInput::new("L", "ua", vec![]));
    s
}

/// A valid trace for the Figure-3 workload; `seed` picks the
/// interleaving, like the paper's seven runs of the generated
/// implementation.
pub fn valid_trace(di_user: usize, di_peer: usize, seed: u64) -> Trace {
    analyzer()
        .generate_trace(&workload(di_user, di_peer), ChoicePolicy::Random(seed), 1_000_000)
        .expect("LAPD consumes its whole workload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango::{AnalysisOptions, OrderOptions, Verdict};

    #[test]
    fn spec_builds() {
        let a = analyzer();
        assert_eq!(
            a.module().states,
            vec!["TEI_ASSIGNED", "AW_EST", "AW_REL", "MF_EST"]
        );
        // 21 transition declarations (the real CNET spec compiled to 800+;
        // see DESIGN.md's substitution notes).
        assert_eq!(a.module().declared_transition_count(), 21);
    }

    #[test]
    fn establishment_and_data_round_trip() {
        let a = analyzer();
        let trace = "\
in U.dl_est_req
out L.sabme
in L.ua
out U.dl_est_conf
in U.dl_data_req(42)
out L.iframe(0, 0, 42)
in L.rr(1)
in U.dl_rel_req
out L.disc
in L.ua
out U.dl_rel_conf
";
        let r = a
            .analyze_text(trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Valid);
    }

    #[test]
    fn generated_traces_valid_in_all_modes() {
        let a = analyzer();
        for seed in [1, 2, 3] {
            let t = valid_trace(5, 3, seed);
            for order in [
                OrderOptions::none(),
                OrderOptions::io(),
                OrderOptions::ip(),
                OrderOptions::full(),
            ] {
                let r = a.analyze(&t, &AnalysisOptions::with_order(order)).unwrap();
                assert_eq!(
                    r.verdict,
                    Verdict::Valid,
                    "seed {} order {}",
                    seed,
                    order.label()
                );
            }
        }
    }

    #[test]
    fn piggyback_choice_shows_in_traces() {
        // Across seeds, some runs ack immediately (rr right after the
        // data indication) and some delay: the count of rr frames can
        // differ because Td2 clears a pending ack by piggybacking.
        let counts: Vec<usize> = (0..8)
            .map(|seed| {
                valid_trace(3, 3, seed)
                    .events
                    .iter()
                    .filter(|e| e.interaction == "rr" && e.dir == tango::Dir::Out)
                    .count()
            })
            .collect();
        assert!(
            counts.iter().any(|&c| c != counts[0]),
            "expected the piggyback nondeterminism to vary rr counts, got {:?}",
            counts
        );
    }

    #[test]
    fn sequence_violation_detected() {
        let a = analyzer();
        // The second outgoing I-frame must carry ns=1, not ns=5.
        let trace = "\
in U.dl_est_req
out L.sabme
in L.ua
out U.dl_est_conf
in U.dl_data_req(1)
out L.iframe(0, 0, 1)
in U.dl_data_req(2)
out L.iframe(5, 0, 2)
";
        let r = a
            .analyze_text(trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    #[test]
    fn out_of_sequence_incoming_frame_gets_rej() {
        let a = analyzer();
        let trace = "\
in L.sabme
out L.ua
out U.dl_est_ind
in L.iframe(3, 0, 9)
out L.rej(0)
";
        let r = a
            .analyze_text(trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Valid);
    }
}

#[cfg(test)]
mod expanded_tests {
    use super::*;
    use tango::{AnalysisOptions, OrderOptions, Verdict};

    #[test]
    fn expanded_variant_exceeds_800_compiled_transitions() {
        let a = analyzer_expanded();
        assert!(
            a.machine.module.transition_count() > 800,
            "got {}",
            a.machine.module.transition_count()
        );
    }

    #[test]
    fn expanded_variant_behaves_like_the_core_spec() {
        // Padding transitions never fire: the same trace verifies against
        // both variants.
        let core = analyzer();
        let expanded = analyzer_expanded();
        let trace = valid_trace(4, 2, 9);
        for a in [&core, &expanded] {
            let r = a
                .analyze(&trace, &AnalysisOptions::with_order(OrderOptions::full()))
                .unwrap();
            assert_eq!(r.verdict, Verdict::Valid);
        }
    }
}
