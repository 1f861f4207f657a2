//! Tests for the §2.4 runtime options: initial-state search, IP
//! disabling, and the §5 partial-trace machinery.

use tango::{AnalysisOptions, InconclusiveReason, OrderOptions, Trace, Verdict};
use tango_repro::protocols::{lapd, tp0};

/// §2.4.1: a trace collected after the IUT has been running — no
/// handshake visible — fails from the default initial state but succeeds
/// when the analyzer retries from other FSM states.
#[test]
fn initial_state_search_recovers_mid_connection_traces() {
    let analyzer = tp0::analyzer();
    // Data exchange with no connection establishment in sight: only
    // legal if the machine already was in `data`.
    let trace = "\
in U.tdatreq(5)
out L.dt_req(5)
in L.dt_ind(9)
out U.tdatind(9)
";
    let plain = AnalysisOptions::with_order(OrderOptions::full());
    let r = analyzer.analyze_text(trace, &plain).unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);

    let mut searching = plain.clone();
    searching.initial_state_search = true;
    let r = analyzer.analyze_text(trace, &searching).unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
    assert_eq!(r.initial_state_used.as_deref(), Some("data"));
}

/// §2.4.1's caveat: variables keep their initialize values, so a trace
/// that depends on different variable contents still fails — "this might
/// cause an 'invalid trace' result on a valid trace".
#[test]
fn initial_state_search_cannot_recover_variable_state() {
    let analyzer = tp0::analyzer();
    // An implementation that already had data buffered could emit dt_req
    // without any visible tdatreq. With empty buffers (as initialize
    // leaves them) this is inexplicable from any FSM state.
    let trace = "out L.dt_req(5)\n";
    let mut options = AnalysisOptions::with_order(OrderOptions::full());
    options.initial_state_search = true;
    let r = analyzer.analyze_text(trace, &options).unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);
}

/// A round that explains the trace leaves nothing of the default
/// round's best attempt behind: the valid verdict has its witness.
#[test]
fn a_valid_initial_state_round_reports_no_best_attempt() {
    let analyzer = tp0::analyzer();
    let trace = "in U.tdatreq(5)\nout L.dt_req(5)\n";
    let mut options = AnalysisOptions::with_order(OrderOptions::full());
    options.initial_state_search = true;
    let r = analyzer.analyze_text(trace, &options).unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
    assert!(r.witness.is_some());
    assert!(r.best_effort.is_none());
}

/// `max_transitions` caps the §2.4.1 search as a whole: each round after
/// the default state's gets what the rounds before it left, so the
/// total overshoots the cap by at most the one transition that trips it.
#[test]
fn initial_state_search_rounds_share_one_transition_cap() {
    let analyzer = tp0::analyzer();
    // Invalid from every initial state; the default round fires one
    // transition and the others most of the rest.
    let trace = "\
in U.tdatreq(5)
in U.tdatreq(6)
in L.dt_ind(1)
out L.dt_req(5)
out L.dt_req(7)
out U.tdatind(1)
";
    let mut options = AnalysisOptions::with_order(OrderOptions::none());
    options.initial_state_search = true;
    let full = analyzer.analyze_text(trace, &options).unwrap();
    assert_eq!(full.verdict, Verdict::Invalid);
    let total = full.stats.transitions_executed;
    let default_round = {
        let mut o = options.clone();
        o.initial_state_search = false;
        analyzer.analyze_text(trace, &o).unwrap().stats.transitions_executed
    };
    assert!(default_round < total / 4, "{} of {}", default_round, total);

    for cap in default_round..total {
        let mut capped = options.clone();
        capped.limits.max_transitions = cap;
        let r = analyzer.analyze_text(trace, &capped).unwrap();
        let te = r.stats.transitions_executed;
        assert_eq!(
            r.verdict,
            Verdict::Inconclusive(InconclusiveReason::TransitionLimit),
            "cap {}",
            cap
        );
        assert!(te <= cap + 1, "cap {}: {} transitions across the rounds", cap, te);
        assert!(r.checkpoint.is_none(), "cap {}: a round's stop saved a checkpoint", cap);
        // The default round's best attempt explains no inconclusive end.
        assert!(r.best_effort.is_none(), "cap {}", cap);
    }
    let mut capped = options.clone();
    capped.limits.max_transitions = total;
    let r = analyzer.analyze_text(trace, &capped).unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);
    assert_eq!(r.stats.counters(), full.stats.counters());
}

/// §2.4.3: disabling an IP skips checking of its outputs entirely.
#[test]
fn disabled_ip_outputs_are_not_checked() {
    let analyzer = tp0::analyzer();
    // The observer at U records nothing the module sent there: without
    // the tconconf the trace is invalid...
    let trace = "\
in U.tconreq
out L.cr_req
in L.cc_ind
in U.tdatreq(3)
out L.dt_req(3)
";
    let plain = AnalysisOptions::with_order(OrderOptions::full());
    let r = analyzer.analyze_text(trace, &plain).unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);

    // ... but with U's outputs disabled, the trace checks out.
    let disabled = plain.clone().disable_ip("U");
    let r = analyzer.analyze_text(trace, &disabled).unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
}

/// Disabling still checks everything else: a wrong output at the
/// *enabled* IP keeps the trace invalid.
#[test]
fn disabled_ip_does_not_mask_other_violations() {
    let analyzer = tp0::analyzer();
    let trace = "\
in U.tconreq
out L.cr_req
in L.cc_ind
in U.tdatreq(3)
out L.dt_req(99)
";
    let options = AnalysisOptions::with_order(OrderOptions::full()).disable_ip("U");
    let r = analyzer.analyze_text(trace, &options).unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);
}

/// §5.2: with the upper interface unobserved, lower-interface traces
/// verify, with fabricated undefined inputs standing in for U's events.
#[test]
fn unobserved_ip_explains_lower_interface_trace() {
    let analyzer = lapd::analyzer();
    let full = lapd::valid_trace(3, 0, 5);
    let lower = Trace::new(
        full.events
            .iter()
            .filter(|e| e.ip.eq_ignore_ascii_case("L"))
            .cloned()
            .collect(),
    );
    let options = AnalysisOptions::with_order(OrderOptions::none()).unobserved_ip("U");
    let r = analyzer.analyze(&lower, &options).unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
    // The witness must include fabricated U consumption (Tc1 reads
    // dl_est_req that nobody observed).
    assert!(r.witness.unwrap().iter().any(|t| t == "Tc1"));
}

/// §5.1: undefined parameters compare equal to anything — the fabricated
/// dl_data_req carries an undefined byte, yet the concrete I-frame data
/// on the line verifies.
#[test]
fn undefined_parameters_match_concrete_trace_values() {
    let analyzer = lapd::analyzer();
    let trace = "\
in L.sabme
out L.ua
in L.iframe(0, 0, 42)
out L.rr(1)
";
    let options = AnalysisOptions::with_order(OrderOptions::none()).unobserved_ip("U");
    // dl_est_ind and dl_data_ind go to the unobserved U: unchecked.
    let r = analyzer.analyze_text(trace, &options).unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
}

/// The barren-steps bound keeps partial-trace refutation finite (§5.4's
/// infinite-depth hazard) without breaking valid analyses.
#[test]
fn barren_bound_terminates_partial_refutation() {
    let analyzer = lapd::analyzer();
    // An RR acknowledging frame 5 when nothing was ever sent: the line
    // protocol can never produce it... as an *output*. (Inputs are free.)
    let trace = "\
in L.sabme
out L.ua
out L.rr(5)
";
    let mut options = AnalysisOptions::with_order(OrderOptions::none()).unobserved_ip("U");
    options.limits.max_barren_steps = 4;
    options.limits.max_transitions = 5_000_000;
    let r = analyzer.analyze_text(trace, &options).unwrap();
    // rr(5) needs vr=5, which needs five in-sequence I-frames from the
    // line — none are in the trace, and the line is observed.
    assert_eq!(r.verdict, Verdict::Invalid);
    assert!(r.stats.barren_prunes > 0);
}

/// Combining §2.4 options: order checking plus disable_ip.
#[test]
fn order_checking_composes_with_disable() {
    let analyzer = tp0::analyzer();
    let trace = tp0::complete_valid_trace(3, 2, 8);
    // Drop all U-side outputs from the trace, keep its inputs.
    let partial = Trace::new(
        trace
            .events
            .iter()
            .filter(|e| {
                !(e.ip.eq_ignore_ascii_case("U") && e.dir == tango::Dir::Out)
            })
            .cloned()
            .collect(),
    );
    let options = AnalysisOptions::with_order(OrderOptions::full()).disable_ip("U");
    let r = analyzer.analyze(&partial, &options).unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
}
