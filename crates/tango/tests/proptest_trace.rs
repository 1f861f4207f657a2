//! Randomized-sweep tests for the trace format and the order-checking
//! environment.
//!
//! Formerly written with `proptest`; the workspace now builds offline with
//! no registry dependencies, so the same properties are checked over
//! deterministic seeded sweeps of [`tango::rng::SplitMix64`]. Every case
//! is reproducible from its printed seed.

use estelle_runtime::Value;
use tango::rng::SplitMix64;
use tango::trace::format::{parse_trace, render_trace};
use tango::{Dir, Event, Trace};

fn arb_value(rng: &mut SplitMix64) -> Value {
    match rng.gen_index(4) {
        0 => Value::Int(rng.gen_range_i64(-1_000_000, 1_000_000)),
        1 => Value::Bool(rng.gen_bool()),
        2 => Value::Undefined,
        _ => Value::Pointer(None),
    }
}

fn arb_format_event(rng: &mut SplitMix64) -> Event {
    let ip = ["A", "B", "Line3"][rng.gen_index(3)];
    let interaction = ["x", "data", "ack_2"][rng.gen_index(3)];
    let params = (0..rng.gen_index(4)).map(|_| arb_value(rng)).collect();
    Event {
        dir: if rng.gen_bool() { Dir::In } else { Dir::Out },
        ip: ip.to_string(),
        interaction: interaction.to_string(),
        params,
    }
}

/// render ∘ parse is the identity on arbitrary traces.
#[test]
fn trace_format_round_trips() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let events: Vec<Event> = (0..rng.gen_index(30))
            .map(|_| arb_format_event(&mut rng))
            .collect();
        let closed = rng.gen_bool();
        let trace = Trace::new(events);
        let text = render_trace(&trace, None, closed);
        let back = parse_trace(&text, None).expect("rendered traces parse");
        assert_eq!(back, trace, "seed {}", seed);
    }
}

/// Junk lines never panic the parser; they produce positioned errors.
#[test]
fn arbitrary_text_never_panics() {
    let alphabet: Vec<char> =
        (' '..='~').chain("§µλ\t(),.".chars()).collect();
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.gen_index(201);
        let text: String = (0..len)
            .map(|_| alphabet[rng.gen_index(alphabet.len())])
            .collect();
        let _ = parse_trace(&text, None);
    }
}

mod env_properties {
    use super::*;
    use estelle_frontend::analyze;
    use estelle_frontend::sema::model::AnalyzedModule;
    use estelle_runtime::InputSource;
    use tango::env::TraceEnv;
    use tango::trace::ResolvedTrace;
    use tango::{AnalysisOptions, OrderOptions};

    fn module() -> AnalyzedModule {
        analyze(
            r#"
            specification s;
            channel CA(a, m); by a: x(n : integer); by m: y(n : integer); end;
            channel CB(b, m); by b: u; by m: v; end;
            module M process; ip A : CA(m); ip B : CB(m); end;
            body MB for M; state S; initialize to S begin end; end;
            end.
            "#,
        )
        .unwrap()
    }

    fn arb_event(rng: &mut SplitMix64) -> Event {
        let n = rng.gen_range_i64(-5, 4);
        match (rng.gen_bool(), rng.gen_bool()) {
            (true, true) => Event::input("A", "x", vec![Value::Int(n)]),
            (true, false) => Event::output("A", "y", vec![Value::Int(n)]),
            (false, true) => Event::input("B", "u", vec![]),
            (false, false) => Event::output("B", "v", vec![]),
        }
    }

    fn arb_events(rng: &mut SplitMix64) -> Vec<Event> {
        (0..1 + rng.gen_index(24)).map(|_| arb_event(rng)).collect()
    }

    /// Under IP ordering, at most one IP offers a consumable input at
    /// any time (the paper's "most non-spontaneous transitions become
    /// deterministic").
    #[test]
    fn ip_order_serializes_heads() {
        let m = module();
        for seed in 0..128u64 {
            let mut rng = SplitMix64::new(seed);
            let trace = Trace::new(arb_events(&mut rng));
            let resolved = ResolvedTrace::resolve(&trace, &m).unwrap();
            let opts = AnalysisOptions::with_order(OrderOptions::ip());
            let mut env = TraceEnv::new(&m, resolved, &opts).unwrap();

            // Drain inputs greedily; at every step at most one IP is
            // consumable, and consumption follows global trace order.
            let mut consumed_global = Vec::new();
            loop {
                let offers: Vec<usize> = (0..2)
                    .filter(|&ip| {
                        matches!(
                            env.head(ip),
                            estelle_runtime::QueueHead::Message { .. }
                        )
                    })
                    .collect();
                assert!(offers.len() <= 1, "IP order must serialize inputs (seed {})", seed);
                let Some(&ip) = offers.first() else { break };
                let gidx = env.trace.inputs[ip][env.cursors.input[ip]];
                consumed_global.push(gidx);
                env.consume(ip);
            }
            let mut sorted = consumed_global.clone();
            sorted.sort_unstable();
            assert_eq!(consumed_global, sorted, "seed {}", seed);
            // Everything eventually drains: inputs blocked only by other
            // inputs cannot deadlock. (Outputs may still be pending.)
            for ip in 0..2 {
                assert_eq!(env.cursors.input[ip], env.trace.inputs[ip].len());
            }
        }
    }

    /// Save/restore of cursors is exact under arbitrary prefixes of
    /// consumption.
    #[test]
    fn cursor_snapshots_are_exact() {
        let m = module();
        for seed in 0..128u64 {
            let mut rng = SplitMix64::new(seed);
            let trace = Trace::new(arb_events(&mut rng));
            let steps = rng.gen_index(10);
            let resolved = ResolvedTrace::resolve(&trace, &m).unwrap();
            let opts = AnalysisOptions::with_order(OrderOptions::none());
            let mut env = TraceEnv::new(&m, resolved, &opts).unwrap();

            for _ in 0..steps {
                let Some(ip) = (0..2).find(|&ip| {
                    matches!(env.head(ip), estelle_runtime::QueueHead::Message { .. })
                }) else {
                    break;
                };
                env.consume(ip);
            }
            let saved = env.save();
            let outstanding_before = env.outstanding();
            // Consume whatever remains.
            while let Some(ip) = (0..2).find(|&ip| {
                matches!(env.head(ip), estelle_runtime::QueueHead::Message { .. })
            }) {
                env.consume(ip);
            }
            env.restore(&saved);
            assert_eq!(env.outstanding(), outstanding_before, "seed {}", seed);
            assert_eq!(env.save(), saved, "seed {}", seed);
        }
    }
}
