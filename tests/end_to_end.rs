//! End-to-end pipeline tests: Estelle source → generated analyzer →
//! trace verdicts, including the failure paths a user will hit.

use tango::{AnalysisOptions, OrderOptions, Tango, TangoError, Verdict};
use tango_repro::protocols::{ack, lapd, synthetic::SyntheticSpec, tp0};

#[test]
fn all_bundled_specs_generate_analyzers() {
    for (name, src) in [
        ("ack", ack::SOURCE.to_string()),
        ("ip3", tango_repro::protocols::ip3::source_full()),
        ("ip3'", tango_repro::protocols::ip3::source_prime()),
        ("tp0", tp0::SOURCE.to_string()),
        ("lapd", lapd::SOURCE.to_string()),
    ] {
        let analyzer = Tango::generate(&src)
            .unwrap_or_else(|e| panic!("{} failed to build: {}", name, e));
        assert!(
            analyzer.machine.module.transition_count() > 0,
            "{} compiled no transitions",
            name
        );
    }
}

#[test]
fn bundled_specs_have_no_lint_warnings() {
    for (name, src) in [
        ("tp0", tp0::SOURCE.to_string()),
        ("lapd", lapd::SOURCE.to_string()),
    ] {
        let analyzer = Tango::generate(&src).unwrap();
        assert!(
            analyzer.module().warnings.is_empty(),
            "{} has warnings: {:?}",
            name,
            analyzer.module().warnings
        );
    }
}

#[test]
fn empty_trace_is_valid_for_quiet_specs() {
    // An implementation that was never stimulated produces no trace; the
    // specification explains that trivially.
    let analyzer = tp0::analyzer();
    let r = analyzer
        .analyze_text("", &AnalysisOptions::default())
        .unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
    assert_eq!(r.witness.as_deref(), Some(&[][..]));
}

#[test]
fn malformed_trace_file_reports_line() {
    let analyzer = tp0::analyzer();
    let err = analyzer
        .analyze_text("in U.tconreq\nnonsense\n", &AnalysisOptions::default())
        .unwrap_err();
    match err {
        TangoError::TraceParse(e) => assert_eq!(e.line, 2),
        other => panic!("expected a parse error, got {}", other),
    }
}

#[test]
fn trace_with_unknown_ip_reports_resolution_error() {
    let analyzer = tp0::analyzer();
    let err = analyzer
        .analyze_text("in X.tconreq\n", &AnalysisOptions::default())
        .unwrap_err();
    assert!(matches!(err, TangoError::TraceResolve(_)));
}

#[test]
fn unknown_option_ip_is_rejected() {
    let analyzer = tp0::analyzer();
    let options = AnalysisOptions::default().disable_ip("nosuch");
    let err = analyzer.analyze_text("", &options).unwrap_err();
    assert!(matches!(err, TangoError::Env(_)));
}

#[test]
fn multi_module_spec_rejected_with_explanation() {
    let src = r#"
        specification two;
        module A process; end;
        module B process; end;
        body AB for A; state S; initialize to S begin end; end;
        body BB for B; state S; initialize to S begin end; end;
        end.
    "#;
    let err = Tango::generate(src).unwrap_err();
    assert!(err.to_string().contains("single-module"));
}

#[test]
fn delay_clause_rejected_like_the_paper() {
    let src = r#"
        specification timed;
        module M process; end;
        body MB for M;
            state S;
            initialize to S begin end;
            trans
            from S to S delay(10) begin end;
        end;
        end.
    "#;
    let err = Tango::generate(src).unwrap_err();
    assert!(err.to_string().contains("delay"));
}

#[test]
fn interleaved_bidirectional_data_all_modes() {
    // The §4.2 scenario: both testers send simultaneously; any
    // interleaving the implementation chose must be accepted.
    let analyzer = tp0::analyzer();
    for seed in 0..6 {
        let trace = tp0::valid_trace(4, 4, seed);
        for order in [
            OrderOptions::none(),
            OrderOptions::io(),
            OrderOptions::ip(),
            OrderOptions::full(),
        ] {
            let r = analyzer
                .analyze(&trace, &AnalysisOptions::with_order(order))
                .unwrap();
            assert_eq!(
                r.verdict,
                Verdict::Valid,
                "seed {} mode {}",
                seed,
                order.label()
            );
        }
    }
}

#[test]
fn witness_replays_the_trace_length() {
    let analyzer = tp0::analyzer();
    let trace = tp0::complete_valid_trace(3, 3, 5);
    let r = analyzer
        .analyze(&trace, &AnalysisOptions::with_order(OrderOptions::full()))
        .unwrap();
    let witness = r.witness.unwrap();
    // For a complete initiator-side run: t10 and t11 handle two events
    // each (input + output), every data interaction costs two transitions
    // (read, forward) covering two events, and t17 covers the final two.
    // So |witness| = 3 + 2·(up+down) while |events| = 6 + 2·(up+down).
    assert_eq!(witness.len(), 3 + 2 * (3 + 3));
    assert_eq!(trace.len(), 6 + 2 * (3 + 3));
}

#[test]
fn synthetic_specs_scale_to_large_transition_counts() {
    let spec = SyntheticSpec::new(8, 800);
    let analyzer = spec.analyzer();
    assert_eq!(analyzer.module().declared_transition_count(), 800);
    let trace = analyzer
        .generate_trace(&spec.workload(40), tango::ChoicePolicy::First, 10_000)
        .unwrap();
    let r = analyzer
        .analyze(&trace, &AnalysisOptions::default())
        .unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
}

#[test]
fn state_hashing_preserves_verdicts() {
    let analyzer = tp0::analyzer();
    let good = tp0::valid_trace(3, 3, 2);
    let bad = tp0::invalid_trace(3, 3, 2);
    for trace in [&good, &bad] {
        let mut plain = AnalysisOptions::with_order(OrderOptions::io());
        plain.limits.max_transitions = 10_000_000;
        let mut hashed = plain.clone();
        hashed.state_hashing = true;
        let a = analyzer.analyze(trace, &plain).unwrap();
        let b = analyzer.analyze(trace, &hashed).unwrap();
        assert_eq!(a.verdict, b.verdict);
        assert!(
            b.stats.transitions_executed <= a.stats.transitions_executed,
            "hashing should never search more"
        );
    }
}

#[test]
fn analysis_reports_spec_errors_on_abandoned_branches() {
    // A specification with a division that explodes on one branch; the
    // other branch explains the trace, so the verdict is still valid but
    // the report carries the diagnostic.
    let src = r#"
        specification diverr;
        channel C(env, m); by env: go(n : integer); by m: done(v : integer); end;
        module M process; ip P : C(m); end;
        body MB for M;
            state S;
            initialize to S begin end;
            trans
            from S to S when P.go name Crash:
                begin output P.done(100 div n); end;
            from S to S when P.go name Safe:
                begin output P.done(n); end;
        end;
        end.
    "#;
    let analyzer = Tango::generate(src).unwrap();
    let r = analyzer
        .analyze_text("in P.go(0)\nout P.done(0)\n", &AnalysisOptions::default())
        .unwrap();
    assert_eq!(r.verdict, Verdict::Valid);
    assert_eq!(r.stats.error_branches, 1);
    assert!(r.spec_errors[0].to_string().contains("div"));
}

#[test]
fn invalid_traces_carry_failure_localization() {
    let analyzer = tp0::analyzer();
    let trace = tp0::complete_valid_trace(3, 3, 5);
    let bad = tp0::invalid_trace(3, 3, 5);
    let r = analyzer
        .analyze(&bad, &AnalysisOptions::with_order(OrderOptions::full()))
        .unwrap();
    assert_eq!(r.verdict, Verdict::Invalid);
    let best = r.best_effort.expect("invalid verdicts localize the failure");
    assert_eq!(best.events_total, bad.len());
    // Only the mutated tail resists explanation: the best attempt gets
    // within a few events of the end.
    assert!(
        best.events_explained >= bad.len() - 4,
        "best effort explained only {}/{}",
        best.events_explained,
        best.events_total
    );
    assert!(!best.path.is_empty());

    // Valid traces carry no failure localization.
    let r = analyzer
        .analyze(&trace, &AnalysisOptions::with_order(OrderOptions::full()))
        .unwrap();
    assert!(r.best_effort.is_none());
}

/// Invalid traces whose DFS backtracks before it reaches its
/// most-explaining node, with that node's exact localization: a FULL-order
/// TP0 3+3 trace with its last data parameter edited, and a FULL-order
/// LAPD DI=5 trace (on the 821-transition variant) with its last output
/// parameter edited.
fn backtracking_invalid_cases() -> Vec<(
    &'static str,
    tango::TraceAnalyzer,
    tango::Trace,
    usize,
    &'static str,
)> {
    let tp0_bad = tp0::invalid_trace(3, 3, 9);
    let mut lapd_bad = lapd::valid_trace(5, 5, 1);
    let last_out = lapd_bad
        .events
        .iter()
        .rposition(|e| e.dir == tango::Dir::Out && !e.params.is_empty())
        .unwrap();
    match &mut lapd_bad.events[last_out].params[0] {
        tango_repro::runtime::Value::Int(v) => *v += 1,
        other => panic!("LAPD outputs carry integers, got {:?}", other),
    }
    vec![
        (
            "tp0",
            tp0::analyzer(),
            tp0_bad,
            15,
            "t10 t11 t15 t13 t13 t15 t16 t16 t13 t14 t14 t15 t14",
        ),
        (
            "lapd",
            lapd::analyzer_expanded(),
            lapd_bad,
            32,
            "Tc1 Tc2 Td4 Td3 Td3 Td3 Td3 Td1 Ta1 Td2 Ta1 Td1 Td1 Td1 Td2 Td2 Ta1 Ta1 Ta1 Td1 Td2",
        ),
    ]
}

#[test]
fn best_effort_localization_is_pinned_and_survives_stop_resume() {
    let options = AnalysisOptions::with_order(OrderOptions::full());
    for (name, analyzer, bad, explained, path) in backtracking_invalid_cases() {
        let full = analyzer.analyze(&bad, &options).unwrap();
        assert_eq!(full.verdict, Verdict::Invalid, "{}", name);
        assert!(
            full.stats.restores > 0,
            "{}: the search must backtrack",
            name
        );
        let best = full
            .best_effort
            .expect("invalid verdicts localize the failure");
        assert_eq!(
            (
                best.events_explained,
                best.events_total,
                best.path.join(" ")
            ),
            (explained, bad.len(), path.to_string()),
            "{}: pinned best-effort localization",
            name
        );

        // Stop every `step` transitions, round-trip the checkpoint
        // through its file format, resume: the localization and the
        // counters must come out as in the uninterrupted run. Stops this
        // dense also land between recording a best node and the
        // backtrack that copies its path out.
        let step = (full.stats.transitions_executed / 40).max(1);
        let file = std::env::temp_dir().join(format!(
            "tango-best-effort-{}-{}.ckpt",
            name,
            std::process::id()
        ));
        let mut limited = options.clone();
        limited.limits.max_transitions = step;
        let mut r = analyzer.analyze(&bad, &limited).unwrap();
        let mut rounds = 0;
        while let Some(cp) = r.checkpoint.take() {
            assert!(matches!(r.verdict, Verdict::Inconclusive(_)), "{}", name);
            cp.write_to(&file).unwrap();
            let cp = tango::Checkpoint::read_from(&file).unwrap();
            limited.limits.max_transitions += step;
            r = analyzer.resume(cp, &limited).unwrap();
            rounds += 1;
        }
        let _ = std::fs::remove_file(&file);
        assert!(rounds >= 30, "{}: only {} stop/resume rounds", name, rounds);
        assert_eq!(r.verdict, Verdict::Invalid, "{}", name);
        let resumed = r
            .best_effort
            .expect("resumed invalid verdicts localize too");
        assert_eq!(
            (resumed.events_explained, resumed.events_total, resumed.path),
            (best.events_explained, best.events_total, best.path),
            "{}: stop/resume changed the localization",
            name
        );
        assert_eq!(
            (
                r.stats.transitions_executed,
                r.stats.generates,
                r.stats.restores,
                r.stats.saves
            ),
            (
                full.stats.transitions_executed,
                full.stats.generates,
                full.stats.restores,
                full.stats.saves
            ),
            "{}: stop/resume changed the counters",
            name
        );
    }
}

/// An on-line stop before the trace's eof marker returns no checkpoint:
/// the source's read position is not recorded, so the rest of the trace
/// would be unknowable on resume. So for the transition cap, the depth
/// limit and the idle-poll deadline, at one, two and four workers.
#[test]
fn a_pre_eof_stop_returns_no_checkpoint() {
    use std::time::Duration;
    use tango::{ChannelSource, Event, Feed, InconclusiveReason as Stop};
    let a = ack::analyzer();
    for reason in [Stop::TransitionLimit, Stop::DepthLimit, Stop::TimeLimit] {
        for workers in [1, 2, 4] {
            let mut options = AnalysisOptions::with_order(OrderOptions::none());
            options.workers = workers;
            let limits = &mut options.limits;
            match reason {
                Stop::TransitionLimit => limits.max_transitions = 0,
                Stop::DepthLimit => limits.max_depth = 0,
                _ => limits.max_wall_time = Some(Duration::from_millis(50)),
            }
            let (tx, mut source) = ChannelSource::pair();
            tx.send(Feed::Event(Event::input("A", "x", vec![])))
                .unwrap();
            let stopped = a
                .analyze_online(&mut source, &options, &mut |_| true)
                .unwrap();
            drop(tx);
            let what = format!("{:?} at {} worker(s)", reason, workers);
            assert_eq!(stopped.verdict, Verdict::Inconclusive(reason), "{}", what);
            assert!(stopped.checkpoint.is_none(), "{}", what);
        }
    }
}
