//! TP0 — the ISO Class 0 Transport Protocol as described in §4.2.
//!
//! The module sits between an "upper tester" (the user layer, IP `U`) and
//! a "lower tester" (the network layer, IP `L`). After the CR/CC
//! handshake it enters the `data` state, where the paper's transitions
//! live verbatim:
//!
//! * **t13** — read a data interaction from the upper module into
//!   `buffer2` (a linked list in Estelle dynamic memory);
//! * **t14** — send an interaction from `buffer2` to the lower module;
//! * **t15** — read a data interaction from the lower module into
//!   `buffer1`;
//! * **t16** — send an interaction from `buffer1` to the upper module;
//! * **t17** — on a disconnect request from the upper module, send a
//!   disconnect indication to the lower module — fireable "at any time,
//!   even if data remains in its buffers", the residual nondeterminism
//!   the paper measures under full order checking.
//!
//! The buffers are of "infinite" length: pointer-linked cells allocated
//! with `new` and released with `dispose`, exercising the state
//! save/restore cost §3.2.2 discusses.

use tango::{ChoicePolicy, ScriptedInput, Tango, Trace, TraceAnalyzer};
use estelle_runtime::Value;

/// The Estelle source of the TP0 specification, `specs/tp0.est`.
pub const SOURCE: &str = include_str!("../../../specs/tp0.est");

/// Generate the TP0 trace analyzer.
pub fn analyzer() -> TraceAnalyzer {
    Tango::generate(SOURCE).expect("the TP0 specification is valid")
}

/// The §4.2 workload: the initiator handshake, then `up` data
/// interactions from the upper tester and `down` from the lower tester,
/// closed by a disconnect request from above.
pub fn workload(up: usize, down: usize) -> Vec<ScriptedInput> {
    let mut script = vec![
        ScriptedInput::new("U", "tconreq", vec![]),
        ScriptedInput::new("L", "cc_ind", vec![]),
    ];
    for i in 0..up {
        script.push(ScriptedInput::new(
            "U",
            "tdatreq",
            vec![Value::Int(i as i64)],
        ));
    }
    for i in 0..down {
        script.push(ScriptedInput::new(
            "L",
            "dt_ind",
            vec![Value::Int(100 + i as i64)],
        ));
    }
    script.push(ScriptedInput::new("U", "tdisreq", vec![]));
    script
}

/// Run the specification as an implementation (§4.1 methodology) to get a
/// valid trace for the workload. Different seeds sample different
/// interleavings of t13–t17.
pub fn valid_trace(up: usize, down: usize, seed: u64) -> Trace {
    analyzer()
        .generate_trace(&workload(up, down), ChoicePolicy::Random(seed), 100_000)
        .expect("TP0 consumes its whole workload")
}

/// Expected event count of a *complete* run: every data interaction both
/// enters and leaves the module before the disconnect.
pub fn complete_trace_len(up: usize, down: usize) -> usize {
    // inputs: tconreq, cc_ind, up, down, tdisreq
    // outputs: cr_req, tconconf, up dt_req, down tdatind, dr_req
    6 + 2 * (up + down)
}

/// A valid trace in which the whole workload was exchanged before the
/// disconnect (t17 may legally fire early and discard buffered data; for
/// controlled experiments we sample seeds until a complete interleaving
/// appears).
pub fn complete_valid_trace(up: usize, down: usize, base_seed: u64) -> Trace {
    let want = complete_trace_len(up, down);
    for seed in base_seed..base_seed + 5_000 {
        let t = valid_trace(up, down, seed);
        if t.len() == want {
            return t;
        }
    }
    panic!(
        "no complete TP0 interleaving found for up={} down={} near seed {}",
        up, down, base_seed
    );
}

/// The paper's invalid-trace construction: "one parameter in the last
/// data interaction of the trace file was edited slightly to cause a
/// mismatch". Returns `None` if the trace has no output data interaction.
pub fn invalidate_last_data(trace: &Trace) -> Option<Trace> {
    let mut t = trace.clone();
    let idx = t.events.iter().rposition(|e| {
        e.dir == tango::Dir::Out && !e.params.is_empty()
    })?;
    if let Value::Int(v) = t.events[idx].params[0] {
        t.events[idx].params[0] = Value::Int(v + 1);
    } else {
        t.events[idx].params[0] = Value::Int(999);
    }
    Some(t)
}

/// The paper's invalid TP0 trace: the complete valid trace for `up`+`down`
/// data interactions near `seed` ([`complete_valid_trace`]) with its last
/// data parameter mutated ([`invalidate_last_data`]).
pub fn invalid_trace(up: usize, down: usize, seed: u64) -> Trace {
    invalidate_last_data(&complete_valid_trace(up, down, seed))
        .expect("a complete TP0 trace has data outputs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango::{AnalysisOptions, OrderOptions, Verdict};

    #[test]
    fn spec_builds_with_buffers() {
        let a = analyzer();
        assert_eq!(a.module().states, vec!["idle", "wfcc", "data"]);
        assert_eq!(a.machine.module.transition_count(), 11);
    }

    #[test]
    fn generated_traces_are_valid_in_every_mode() {
        let a = analyzer();
        let trace = valid_trace(3, 3, 7);
        // At least: 9 consumed inputs + cr_req + tconconf + dr_req.
        assert!(trace.len() >= 12, "trace too short: {} events", trace.len());
        for order in [
            OrderOptions::none(),
            OrderOptions::io(),
            OrderOptions::ip(),
            OrderOptions::full(),
        ] {
            let r = a
                .analyze(&trace, &AnalysisOptions::with_order(order))
                .unwrap();
            assert_eq!(r.verdict, Verdict::Valid, "order mode {}", order.label());
        }
    }

    #[test]
    fn different_seeds_give_different_interleavings() {
        let t1 = valid_trace(4, 4, 1);
        let t2 = valid_trace(4, 4, 2);
        // Interleaving — and, because t17 may disconnect early and
        // discard buffered data, possibly length — depends on the seed;
        // the event sequences must differ.
        assert_ne!(t1, t2, "seeds 1 and 2 should interleave differently");
    }

    #[test]
    fn mutated_trace_is_invalid_under_full_checking() {
        let a = analyzer();
        let bad = invalidate_last_data(&valid_trace(3, 3, 7)).unwrap();
        let r = a
            .analyze(&bad, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Invalid);
    }

    #[test]
    fn buffers_free_all_memory_on_disconnect() {
        // The generated implementation must quiesce with an empty heap:
        // every `new` matched by a `dispose` once the disconnect drains
        // the buffers. We verify indirectly: a valid trace ending in
        // dr_req re-analyzes fine (dangling pointers would error).
        let a = analyzer();
        let trace = valid_trace(5, 2, 3);
        let r = a
            .analyze(&trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Valid);
        assert!(r.spec_errors.is_empty());
    }

    #[test]
    fn responder_path_also_works() {
        let a = analyzer();
        let trace = "in L.cr_ind\nout U.tconind\nout L.cc_req\nin L.dt_ind(9)\nout U.tdatind(9)\n";
        let r = a
            .analyze_text(trace, &AnalysisOptions::with_order(OrderOptions::full()))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Valid);
    }
}

/// A TP0 variant with *bounded array* buffers instead of pointer-linked
/// dynamic memory — behaviourally identical on workloads that fit (≤ 64
/// buffered interactions per direction). §3.2.2 of the paper discusses
/// how dynamic memory makes state saves/restores "require substantially
/// more memory and CPU time"; comparing analyses of the same trace
/// against both variants isolates exactly that cost.
pub const SOURCE_BOUNDED: &str = r#"
specification tp0b;

const bufcap = 63;

channel TS(user, station);
    by user: tconreq; tdatreq(d : integer); tdisreq;
    by station: tconconf; tconind; tdatind(d : integer); tdisind;
end;

channel NS(net, station);
    by net: cc_ind; cr_ind; dt_ind(d : integer); dr_ind;
    by station: cr_req; cc_req; dt_req(d : integer); dr_req;
end;

module Tp0 process;
    ip U : TS(station);
    ip L : NS(station);
end;

body Tp0Body for Tp0;
    type slot = 0..63;
    var b1, b2 : array [slot] of integer;
        h1, t1, n1, h2, t2, n2 : integer;

    state idle, wfcc, data;

    initialize to idle begin
        h1 := 0; t1 := 0; n1 := 0;
        h2 := 0; t2 := 0; n2 := 0;
    end;

    trans
    from idle to wfcc when U.tconreq name t10:
        begin output L.cr_req; end;
    from wfcc to data when L.cc_ind name t11:
        begin output U.tconconf; end;
    from idle to data when L.cr_ind name t12:
        begin output U.tconind; output L.cc_req; end;

    from data to same when U.tdatreq provided n2 <= bufcap name t13:
        begin
            b2[t2] := d;
            t2 := (t2 + 1) mod (bufcap + 1);
            n2 := n2 + 1;
        end;
    from data to same provided n2 > 0 name t14:
        begin
            output L.dt_req(b2[h2]);
            h2 := (h2 + 1) mod (bufcap + 1);
            n2 := n2 - 1;
        end;
    from data to same when L.dt_ind provided n1 <= bufcap name t15:
        begin
            b1[t1] := d;
            t1 := (t1 + 1) mod (bufcap + 1);
            n1 := n1 + 1;
        end;
    from data to same provided n1 > 0 name t16:
        begin
            output U.tdatind(b1[h1]);
            h1 := (h1 + 1) mod (bufcap + 1);
            n1 := n1 - 1;
        end;
    from data to idle when U.tdisreq name t17:
        begin
            output L.dr_req;
            h1 := 0; t1 := 0; n1 := 0;
            h2 := 0; t2 := 0; n2 := 0;
        end;
    from idle, wfcc to same when L.dt_ind name t19:
        begin end;
    from idle, wfcc to same when L.dr_ind name t20:
        begin end;
    from data to idle when L.dr_ind name t18:
        begin
            output U.tdisind;
            h1 := 0; t1 := 0; n1 := 0;
            h2 := 0; t2 := 0; n2 := 0;
        end;
end;
end.
"#;

/// Analyzer for the bounded-buffer variant.
pub fn analyzer_bounded() -> TraceAnalyzer {
    Tango::generate(SOURCE_BOUNDED).expect("the bounded TP0 specification is valid")
}

#[cfg(test)]
mod bounded_tests {
    use super::*;
    use tango::{AnalysisOptions, OrderOptions, Verdict};

    /// Within the buffer capacity the two variants accept exactly the
    /// same traces.
    #[test]
    fn bounded_variant_is_trace_equivalent() {
        let heap = analyzer();
        let bounded = analyzer_bounded();
        for seed in [3, 11] {
            let trace = valid_trace(4, 3, seed);
            for a in [&heap, &bounded] {
                let r = a
                    .analyze(&trace, &AnalysisOptions::with_order(OrderOptions::full()))
                    .unwrap();
                assert_eq!(r.verdict, Verdict::Valid, "seed {}", seed);
            }
        }
        let bad = invalidate_last_data(&complete_valid_trace(3, 3, 13)).unwrap();
        for a in [&heap, &bounded] {
            let mut options = AnalysisOptions::with_order(OrderOptions::none());
            options.limits.max_transitions = 10_000_000;
            let r = a.analyze(&bad, &options).unwrap();
            assert_eq!(r.verdict, Verdict::Invalid);
        }
    }
}
