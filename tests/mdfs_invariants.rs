//! Invariants the on-line engine's per-node bookkeeping relies on.
//!
//! * *Generate is pure.* MDFS generates directly on a node's resident
//!   snapshot and then fires a child from that same snapshot, so
//!   `generate_into` must leave the state it is given untouched: neither
//!   its content hash nor its encoded bytes may move, under the tree
//!   walker or the bytecode VM.
//! * *The witness is the DFS witness.* On a complete valid trace the
//!   on-line engine, fed the whole trace at once, explores in the static
//!   DFS's order, so both report the same transition sequence.

use estelle_runtime::codec::encode_state;
use estelle_runtime::{ByteWriter, ExecMode, FireOutcome, FxHasher, Generated, MachineState};
use protocols::randspec::RandSpec;
use protocols::{abp, ack, lapd, tp0};
use std::hash::{Hash, Hasher};
use tango::env::TraceEnv;
use tango::trace::ResolvedTrace;
use tango::{
    AnalysisOptions, ChoicePolicy, Event, OrderOptions, StaticSource, Tango, Trace, TraceAnalyzer,
    Verdict,
};

/// A state's content hash, as the visited set takes it: control state,
/// globals and heap.
fn content_hash(st: &MachineState) -> u64 {
    let mut h = FxHasher::default();
    st.control.hash(&mut h);
    st.globals.hash(&mut h);
    st.heap.hash(&mut h);
    h.finish()
}

/// The state's checkpoint-codec bytes.
fn encoded(st: &MachineState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_state(&mut w, st);
    w.into_bytes()
}

/// States visited per random spec.
const MAX_STATES: usize = 300;

/// Walk the states reachable along `trace` breadth-first (every fireable
/// transition that fires cleanly is followed), and at each one run
/// Generate under both executors, requiring the state unchanged.
fn check_generate_is_pure(analyzer: &TraceAnalyzer, trace: &Trace, tag: &str) -> usize {
    let module = analyzer.module();
    let resolved = ResolvedTrace::resolve(trace, module).expect("trace resolves");
    let opts = AnalysisOptions::default();
    let mut env = TraceEnv::new(module, resolved, &opts).expect("env builds");
    let interp = analyzer.machine.exec_view(ExecMode::Interp);
    let compiled = analyzer.machine.exec_view(ExecMode::Compiled);
    let mut gen = Generated::default();

    let start = analyzer.machine.initial_state().expect("initializes");
    let mut frontier = std::collections::VecDeque::from([(start, env.save())]);
    let mut visited = 0;
    while let Some((mut st, cursors)) = frontier.pop_front() {
        if visited == MAX_STATES {
            break;
        }
        visited += 1;
        env.restore(&cursors);
        // The reference is the state's encoding, so it shares no heap
        // chunk with the state under test.
        let before = encoded(&st);
        let key = content_hash(&st);
        let mut fireable = None;
        for (label, m) in [("interp", &interp), ("compiled", &compiled)] {
            if m.generate_into(&mut st, &env, &mut gen).is_err() {
                continue;
            }
            assert_eq!(
                content_hash(&st),
                key,
                "{}: {} Generate moved the content hash",
                tag,
                label
            );
            assert_eq!(
                encoded(&st),
                before,
                "{}: {} Generate wrote the state",
                tag,
                label
            );
            fireable.get_or_insert_with(|| gen.fireable.clone());
        }
        for f in fireable.unwrap_or_default() {
            let mut child = st.snapshot();
            env.restore(&cursors);
            env.begin_fire();
            if let Ok(FireOutcome::Completed) = compiled.fire(&mut child, &f, &mut env) {
                if env.end_fire() {
                    frontier.push_back((child, env.save()));
                }
            }
        }
    }
    visited
}

#[test]
fn generate_never_writes_the_state_it_is_given() {
    let mut total = 0;
    for seed in 0..12 {
        let spec = RandSpec::new(seed);
        let analyzer = Tango::generate(&spec.source()).expect("randspec sources are valid");
        let trace = analyzer
            .generate_trace(&spec.workload(10), ChoicePolicy::First, 100_000)
            .expect("catch-all transitions keep the workload running");
        total += check_generate_is_pure(&analyzer, &trace, &format!("randspec {}", seed));
    }
    let tp0_trace = tp0::complete_valid_trace(3, 3, 1);
    total += check_generate_is_pure(&tp0::analyzer(), &tp0_trace, "tp0");
    assert!(total > 12 * 10, "the walk reached only {} states", total);
}

fn assert_same_witness(analyzer: &TraceAnalyzer, trace: &Trace, order: OrderOptions, tag: &str) {
    let opts = AnalysisOptions::with_order(order);
    let dfs = analyzer.analyze(trace, &opts).unwrap();
    assert_eq!(dfs.verdict, Verdict::Valid, "{}: DFS verdict", tag);
    let dfs_witness = dfs.witness.expect("a valid verdict carries a witness");
    for workers in [1, 2] {
        let mut o = opts.clone();
        o.workers = workers;
        let mut src = StaticSource::new(trace.clone());
        let mdfs = analyzer
            .analyze_online(&mut src, &o, &mut |_| true)
            .unwrap();
        assert_eq!(
            mdfs.verdict,
            Verdict::Valid,
            "{} workers={}: MDFS verdict",
            tag,
            workers
        );
        assert_eq!(
            mdfs.witness.as_ref(),
            Some(&dfs_witness),
            "{} workers={}: MDFS and DFS witnesses differ",
            tag,
            workers
        );
    }
}

#[test]
fn mdfs_witness_is_the_dfs_witness_on_valid_traces() {
    for order in [OrderOptions::none(), OrderOptions::full()] {
        let tag = order.label();
        assert_same_witness(
            &tp0::analyzer(),
            &tp0::complete_valid_trace(3, 3, 1),
            order,
            &format!("tp0 {}", tag),
        );
        assert_same_witness(
            &lapd::analyzer(),
            &lapd::valid_trace(10, 10, 7),
            order,
            &format!("lapd {}", tag),
        );
        assert_same_witness(
            &abp::analyzer(),
            &abp::valid_trace(6, 3),
            order,
            &format!("abp {}", tag),
        );
    }
    let ack_trace = Trace {
        events: vec![
            Event::input("A", "x", vec![]),
            Event::input("A", "x", vec![]),
            Event::input("B", "y", vec![]),
            Event::output("A", "ack", vec![]),
            Event::input("A", "x", vec![]),
        ],
    };
    assert_same_witness(&ack::analyzer(), &ack_trace, OrderOptions::none(), "ack");
}

/// Stop a valid-trace run on a transition limit after eof, round-trip the
/// checkpoint through a file, and resume: the frozen nodes' paths come
/// back from their names, so the witness must be the uninterrupted one
/// at either worker count on resume. A multi-worker stop after eof is
/// redone by one worker, so saving at 2 or 4 workers must lead to the
/// same witness and the same TE/GE/RE/SA on every run, whatever the
/// steal schedule was.
#[test]
fn witness_survives_a_checkpoint_round_trip() {
    let a = lapd::analyzer();
    let trace = lapd::valid_trace(10, 10, 7);
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    let mut src = StaticSource::new(trace.clone());
    let whole = a.analyze_online(&mut src, &opts, &mut |_| true).unwrap();
    assert_eq!(whole.verdict, Verdict::Valid);
    let mut limited = opts.clone();
    limited.limits.max_transitions = whole.stats.transitions_executed / 2;
    let mut cells = vec![(1, 1), (1, 2)];
    for save_at in [2, 4] {
        for round in 0..16 {
            cells.push((save_at, 1 + round % 2));
        }
    }
    for (i, &(save_at, resume_at)) in cells.iter().enumerate() {
        let mut saving = limited.clone();
        saving.workers = save_at;
        let mut src = StaticSource::new(trace.clone());
        let stopped = a.analyze_online(&mut src, &saving, &mut |_| true).unwrap();
        let cp = stopped
            .checkpoint
            .expect("a post-eof limit stop is checkpointable");
        let file = std::env::temp_dir().join(format!(
            "tango-mdfs-invariants-{}-{}.ckpt",
            i,
            std::process::id()
        ));
        cp.write_to(&file).expect("checkpoint writes");
        let cp = tango::Checkpoint::read_from(&file).expect("checkpoint reads back");
        std::fs::remove_file(&file).ok();
        let mut resume = opts.clone();
        resume.workers = resume_at;
        let resumed = a.resume(cp, &resume).unwrap();
        assert_eq!(resumed.verdict, Verdict::Valid);
        assert_eq!(
            resumed.witness, whole.witness,
            "save_at={} resume_at={} run {}",
            save_at, resume_at, i
        );
        assert_eq!(
            resumed.stats.counters(),
            whole.stats.counters(),
            "save_at={} resume_at={} run {}",
            save_at,
            resume_at,
            i
        );
    }
}
