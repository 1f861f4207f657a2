//! Compiled-vs-interpreted executor equivalence (DESIGN §6.9).
//!
//! The bytecode VM with its by-control-state dispatch index
//! (`ExecMode::Compiled`, the only executor production code runs) and the
//! tree-walking reference interpreter (`ExecMode::Interp`, the oracle)
//! must be observationally identical:
//! same fireable sets in the same order, same verdicts, same TE/GE/RE/SA
//! counters, byte-identical single-worker telemetry streams, identical
//! profiler attribution — only transitions-per-second may differ. These
//! tests pin that equivalence across the TP0, LAPD and synthetic
//! protocol families, and at the raw `Machine::generate` level where
//! the dispatch index replaces the linear transition scan.

use estelle_runtime::{
    ExecMode, FireOutcome, InputSource, Machine, OutputSink, QueueHead, Value,
};
use protocols::{lapd, synthetic::SyntheticSpec, tp0};
use std::io::Write;
use std::sync::{Arc, Mutex};
use tango::{
    AnalysisOptions, AnalysisReport, ChoicePolicy, JsonlSink, StaticSource,
    Telemetry, Trace, TraceAnalyzer, Verdict,
};

/// The same analyzer on the given executor.
fn on(analyzer: &TraceAnalyzer, exec: ExecMode) -> TraceAnalyzer {
    TraceAnalyzer::from_machine(analyzer.machine.exec_view(exec))
}

/// A `Write` target the test can still read after the sink is boxed away
/// inside the telemetry handle.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_handle() -> (Telemetry, SharedBuf) {
    let buf = SharedBuf::default();
    let tel = Telemetry::off().with_sink(Box::new(JsonlSink::new(buf.clone())));
    (tel, buf)
}

fn count_kind(stream: &str, kind: &str) -> u64 {
    let needle = format!("\"ev\":\"{}\"", kind);
    stream.lines().filter(|l| l.contains(&needle)).count() as u64
}

fn assert_counts_match(report: &AnalysisReport, stream: &str) {
    assert_eq!(count_kind(stream, "fire"), report.stats.transitions_executed);
    assert_eq!(count_kind(stream, "generate"), report.stats.generates);
    assert_eq!(count_kind(stream, "restore"), report.stats.restores);
    assert_eq!(count_kind(stream, "save"), report.stats.saves);
}

/// The differential matrix: every protocol family the benches use, both
/// verdict polarities where a corrupter exists.
fn matrix() -> Vec<(&'static str, TraceAnalyzer, Trace, Option<Verdict>)> {
    let spec = SyntheticSpec::new(6, 60);
    let synth = spec.analyzer();
    let synth_trace = synth
        .generate_trace(&spec.workload(20), ChoicePolicy::First, 10_000)
        .expect("synthetic self-trace");
    vec![
        (
            "tp0-valid",
            tp0::analyzer(),
            tp0::complete_valid_trace(3, 3, 1),
            Some(Verdict::Valid),
        ),
        (
            "tp0-invalid",
            tp0::analyzer(),
            tp0::invalid_trace(3, 3, 1),
            Some(Verdict::Invalid),
        ),
        (
            "lapd-valid",
            lapd::analyzer(),
            lapd::valid_trace(2, 2, 1),
            Some(Verdict::Valid),
        ),
        (
            "lapd-expanded",
            lapd::analyzer_expanded(),
            lapd::valid_trace(2, 2, 1),
            Some(Verdict::Valid),
        ),
        ("synthetic", synth, synth_trace, Some(Verdict::Valid)),
    ]
}

#[test]
fn exec_modes_agree_across_the_protocol_matrix() {
    for (name, analyzer, trace, want) in matrix() {
        let options = AnalysisOptions::default();
        let compiled = on(&analyzer, ExecMode::Compiled).analyze(&trace, &options).unwrap();
        let interp = on(&analyzer, ExecMode::Interp).analyze(&trace, &options).unwrap();
        if let Some(want) = want {
            assert_eq!(compiled.verdict, want, "{}", name);
        }
        assert_eq!(compiled.verdict, interp.verdict, "{}", name);
        assert_eq!(
            compiled.stats.counters(),
            interp.stats.counters(),
            "{}: TE/GE/RE/SA must be identical across executors",
            name
        );
        assert_eq!(compiled.witness, interp.witness, "{}", name);
    }
}

#[test]
fn dfs_streams_are_byte_identical_across_exec_modes() {
    let analyzer = tp0::analyzer();
    let trace = tp0::invalid_trace(3, 3, 1);
    let mut streams = Vec::new();
    for exec in [ExecMode::Compiled, ExecMode::Interp] {
        let (mut tel, buf) = traced_handle();
        let report = on(&analyzer, exec)
            .analyze_with(&trace, &AnalysisOptions::default(), &mut tel)
            .unwrap();
        tel.finalize(&report.stats);
        let stream = buf.contents();
        assert_eq!(report.verdict, Verdict::Invalid, "{}", exec.name());
        assert_counts_match(&report, &stream);
        streams.push(stream);
    }
    assert_eq!(
        streams[0], streams[1],
        "the event stream must not betray which executor ran"
    );
}

#[test]
fn mdfs_streams_are_byte_identical_across_exec_modes() {
    let analyzer = tp0::analyzer();
    let trace = tp0::invalid_trace(3, 3, 1);
    let mut streams = Vec::new();
    for exec in [ExecMode::Compiled, ExecMode::Interp] {
        let (mut tel, buf) = traced_handle();
        let mut source = StaticSource::new(trace.clone());
        let report = on(&analyzer, exec)
            .analyze_online_with(
                &mut source,
                &AnalysisOptions::default(),
                &mut |_| true,
                &mut tel,
            )
            .unwrap();
        tel.finalize(&report.stats);
        let stream = buf.contents();
        assert_eq!(report.verdict, Verdict::Invalid, "{}", exec.name());
        assert_counts_match(&report, &stream);
        streams.push(stream);
    }
    assert_eq!(streams[0], streams[1]);
}

/// Satellite: the scratch-buffer `generate` path must still record one
/// latency sample per *Generate* in both executors — the histogram that
/// pins the per-call `Generated::default()` churn fix.
#[test]
fn generate_latency_histogram_counts_ge_in_both_modes() {
    let analyzer = tp0::analyzer();
    let trace = tp0::invalid_trace(3, 3, 1);
    let mut ge = Vec::new();
    for exec in [ExecMode::Compiled, ExecMode::Interp] {
        let mut tel = Telemetry::off().with_metrics();
        let report = on(&analyzer, exec)
            .analyze_with(&trace, &AnalysisOptions::default(), &mut tel)
            .unwrap();
        tel.finalize(&report.stats);
        let m = tel.metrics().expect("metrics were requested");
        let h = m
            .histogram("search.generate_latency_us")
            .expect("generate latency is always observed with metrics on");
        assert_eq!(
            h.count(),
            report.stats.generates,
            "{}: one latency sample per GE",
            exec.name()
        );
        assert!(h.sum() >= 0.0);
        ge.push(report.stats.generates);
    }
    assert_eq!(ge[0], ge[1]);
}

/// Satellite: the profiler must attribute fire/fail counts identically
/// under the VM — only the timing column may differ.
#[test]
fn profiler_attribution_is_identical_across_exec_modes() {
    let analyzer = tp0::analyzer();
    let trace = tp0::invalid_trace(3, 3, 1);
    let n = analyzer.machine.module.transition_count();
    let mut attributions = Vec::new();
    for exec in [ExecMode::Compiled, ExecMode::Interp] {
        let mut tel = Telemetry::off().with_profile(n);
        let report = on(&analyzer, exec)
            .analyze_with(&trace, &AnalysisOptions::default(), &mut tel)
            .unwrap();
        let p = tel.profile().expect("profile was requested");
        let counts: Vec<(u64, u64)> = p.entries().iter().map(|e| (e.fires, e.fails)).collect();
        assert_eq!(
            counts.iter().map(|(f, x)| f + x).sum::<u64>(),
            report.stats.transitions_executed,
            "{}: per-transition attempts must sum to TE",
            exec.name()
        );
        attributions.push(counts);
    }
    assert_eq!(
        attributions[0], attributions[1],
        "fire/fail attribution must not depend on the executor"
    );
}

// ---------------------------------------------------------------------
// Raw Machine-level equivalence: the dispatch index vs the linear scan.
// ---------------------------------------------------------------------

/// A single-queue scripted environment (same shape as the runtime's own
/// language-feature tests).
struct Env {
    msgs: Vec<(usize, Vec<Value>)>,
    pos: usize,
    outputs: Vec<(usize, usize, Vec<Value>)>,
}

impl Env {
    fn new(msgs: Vec<(usize, Vec<Value>)>) -> Self {
        Env {
            msgs,
            pos: 0,
            outputs: Vec::new(),
        }
    }
}

impl InputSource for Env {
    fn head(&self, _ip: usize) -> QueueHead {
        match self.msgs.get(self.pos) {
            Some((interaction, params)) => QueueHead::Message {
                interaction: *interaction,
                params: params.clone(),
            },
            None => QueueHead::Empty,
        }
    }
    fn consume(&mut self, _ip: usize) {
        self.pos += 1;
    }
}

impl OutputSink for Env {
    fn emit(&mut self, ip: usize, interaction: usize, params: Vec<Value>) -> bool {
        self.outputs.push((ip, interaction, params));
        true
    }
}

/// A spec that exercises every dispatch-index bucket shape: a state with
/// several `when` transitions, a guard with a side-effecting function
/// call (the VM's scratch-clone branch), a spontaneous transition, and a
/// state with no outgoing transitions at all.
const BUCKETS: &str = r#"
    specification buckets;
    channel C(env, m);
        by env: go(n : integer); kick;
        by m: out1(v : integer);
    end;
    module M process; ip P : C(m); end;
    body MB for M;
        var acc : integer;
        function bump(v : integer) : integer;
        begin acc := acc + 1; bump := v + 1 end;
        state A, B, Dead;
        initialize to A begin acc := 0 end;
        trans
        from A to B when P.go provided bump(n) > 3 name HighGo:
            begin output P.out1(n) end;
        from A to B when P.go provided n <= 2 name LowGo:
            begin acc := acc + n end;
        from A to A when P.kick name Kick: begin end;
        from B to A provided acc > 10 name Drain: begin acc := 0 end;
        from B to Dead when P.go name Die: begin end;
    end;
    end.
"#;

fn key(f: &estelle_runtime::Fireable) -> (usize, Vec<Value>, bool) {
    (f.trans, f.params.clone(), f.fabricated)
}

#[test]
fn dispatch_index_matches_linear_scan_step_by_step() {
    let compiled = Machine::from_source(BUCKETS).unwrap();
    let interp = compiled.exec_view(ExecMode::Interp);
    let script = vec![
        (0, vec![Value::Int(9)]), // HighGo and Die candidates
        (0, vec![Value::Int(1)]), // LowGo (guard splits the bucket)
        (1, vec![]),              // Kick self-loop
        (0, vec![Value::Int(4)]),
    ];

    let mut st_c = compiled.initial_state().unwrap();
    let mut st_i = interp.initial_state().unwrap();
    assert_eq!(st_c, st_i, "initialize must agree before any step");

    let mut env_c = Env::new(script.clone());
    let mut env_i = Env::new(script);
    for step in 0..8 {
        let gc = compiled.generate(&mut st_c, &env_c).unwrap();
        let gi = interp.generate(&mut st_i, &env_i).unwrap();
        assert_eq!(
            gc.fireable.iter().map(key).collect::<Vec<_>>(),
            gi.fireable.iter().map(key).collect::<Vec<_>>(),
            "step {}: fireable sets must match element-for-element",
            step
        );
        assert_eq!(gc.incomplete, gi.incomplete, "step {}", step);
        let Some(first) = gc.fireable.first() else {
            break;
        };
        let oc = compiled.fire(&mut st_c, first, &mut env_c).unwrap();
        let oi = interp.fire(&mut st_i, first, &mut env_i).unwrap();
        assert_eq!(oc, FireOutcome::Completed);
        assert_eq!(oc, oi, "step {}", step);
        assert_eq!(st_c, st_i, "step {}: post-fire states must agree", step);
        assert_eq!(env_c.outputs, env_i.outputs, "step {}", step);
    }
    assert!(!env_c.outputs.is_empty(), "the script must reach an output");
}

/// Invariant 4 of the dispatch index (DESIGN §6.9): every bucket's plan
/// covers the bucket exactly once, in order, with non-empty steps; an
/// equality run spans two or more instances of one declaration, each
/// guarded by the quick `global[slot] = k` compare, and its key table is
/// exactly those instances' distinct keys. Returns the switched entries.
fn assert_plan_invariants(m: &Machine) -> usize {
    use estelle_runtime::bytecode::{PlanStep, QuickGuard};
    let idx = &m.program.dispatch;
    assert_eq!(idx.plans.len(), idx.by_state.len());
    let mut switched = 0;
    for (bucket, plan) in idx.by_state.iter().zip(&idx.plans) {
        let mut next = 0;
        for step in plan {
            let (start, end) = match step {
                PlanStep::Scan { start, end } => (*start as usize, *end as usize),
                PlanStep::Switch(run) => (run.start as usize, run.end as usize),
            };
            assert_eq!(start, next, "plan steps must be contiguous and in order");
            assert!(end > start, "plan steps must be non-empty");
            next = end;
            let PlanStep::Switch(run) = step else {
                continue;
            };
            let entries = &bucket[start..end];
            assert!(entries.len() >= 2, "a run merges two or more entries");
            let decl = m.module.transitions[entries[0].trans as usize].decl_index;
            let mut keys = Vec::new();
            for (off, e) in entries.iter().enumerate() {
                assert_eq!(
                    m.module.transitions[e.trans as usize].decl_index, decl,
                    "a run merges only instances of one declaration"
                );
                let g = m.program.guards[e.trans as usize].as_ref().unwrap();
                let Some(QuickGuard::GlobalOpConst { slot, op, k, .. }) = &g.quick else {
                    panic!("a run entry's guard must be a quick compare");
                };
                assert_eq!((*slot, *op), (run.slot, estelle_ast::BinOp::Eq));
                let key = match (k, run.enum_type) {
                    (Value::Int(x), None) => *x,
                    (Value::Enum(t, x), Some(rt)) if *t == rt => *x,
                    other => panic!("key {:?} does not match the run's type", other),
                };
                keys.push((key, off as u32));
            }
            keys.sort_unstable();
            assert_eq!(keys, run.keys, "the key table is the instances' keys");
            assert!(
                keys.windows(2).all(|w| w[0].0 != w[1].0),
                "keys are distinct"
            );
            switched += entries.len();
        }
        assert_eq!(next, bucket.len(), "the plan must cover the whole bucket");
    }
    switched
}

#[test]
fn dispatch_plans_cover_buckets_and_merge_only_any_families() {
    // LAPD-800's four padding families of 200 instances each become
    // equality runs; TP0 has none, so each bucket is one scan.
    let lapd800 = Machine::from_source(&lapd::source_expanded()).unwrap();
    assert_eq!(assert_plan_invariants(&lapd800), 800);
    let tp0 = Machine::from_source(tp0::SOURCE).unwrap();
    assert_eq!(assert_plan_invariants(&tp0), 0);
    for plan in &tp0.program.dispatch.plans {
        assert!(plan.len() <= 1, "TP0 buckets are single scans");
    }
    assert_eq!(
        assert_plan_invariants(&Machine::from_source(BUCKETS).unwrap()),
        0
    );
    assert_plan_invariants(&Machine::from_source(&SyntheticSpec::new(5, 120).source()).unwrap());
    let mut family_runs = 0;
    for seed in 0..12 {
        let spec = protocols::randspec::RandSpec::with_any_families(seed);
        family_runs += assert_plan_invariants(&Machine::from_source(&spec.source()).unwrap());
    }
    assert!(family_runs > 0, "the randspec families must form runs");
}

#[test]
fn dispatch_index_agrees_on_synthetic_and_lapd_machines() {
    let mut sources = vec![SyntheticSpec::new(5, 120).source()];
    sources.push(lapd::source_expanded());
    for src in sources {
        let compiled = Machine::from_source(&src).unwrap();
        let interp = compiled.exec_view(ExecMode::Interp);
        let mut st = compiled.initial_state().unwrap();
        // With no inputs queued only spontaneous transitions are
        // candidates — exactly the bucket walk the index optimises.
        let env = estelle_runtime::env::NullEnv::default();
        let gc = compiled.generate(&mut st, &env).unwrap();
        let gi = interp.generate(&mut st, &env).unwrap();
        assert_eq!(
            gc.fireable.iter().map(key).collect::<Vec<_>>(),
            gi.fireable.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(gc.incomplete, gi.incomplete);
    }
}

/// FNV-1a-64, fed piecewise.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(transition_count, digest of every transition name, digest of every
/// bucket's entry order and plan, equality runs' `(key, offset)` tables
/// included)`.
fn lowering_pin(m: &Machine) -> (usize, u64, u64) {
    use estelle_runtime::bytecode::PlanStep;
    let mut names = Fnv::new();
    for i in 0..m.transition_count() {
        names.write(format!("{}", m.transition_name(i)).as_bytes());
        names.write(&[0]);
    }
    let idx = &m.program.dispatch;
    let mut plans = Fnv::new();
    for (bucket, plan) in idx.by_state.iter().zip(&idx.plans) {
        for e in bucket {
            plans.write(&e.trans.to_le_bytes());
        }
        plans.write(b"|");
        for step in plan {
            match step {
                PlanStep::Scan { start, end } => {
                    plans.write(b"S");
                    plans.write(&start.to_le_bytes());
                    plans.write(&end.to_le_bytes());
                }
                PlanStep::Switch(run) => {
                    plans.write(b"W");
                    plans.write(&run.start.to_le_bytes());
                    plans.write(&run.end.to_le_bytes());
                    plans.write(&run.slot.to_le_bytes());
                    for (key, off) in &run.keys {
                        plans.write(&key.to_le_bytes());
                        plans.write(&off.to_le_bytes());
                    }
                }
            }
        }
        plans.write(b"/");
    }
    (m.module.transition_count(), names.0, plans.0)
}

#[test]
fn any_family_names_counts_and_dispatch_plans_are_pinned() {
    // Transition indices, names and fireable order are what paths,
    // checkpoints, pins and witnesses are built from: how `any` families
    // are lowered must not move any of them.
    let lapd800 = Machine::from_source(&lapd::source_expanded()).unwrap();
    let mut got = vec![lowering_pin(&lapd800)];
    for seed in 0..8 {
        let spec = protocols::randspec::RandSpec::with_any_families(seed);
        got.push(lowering_pin(&Machine::from_source(&spec.source()).unwrap()));
    }
    let want = vec![
        (821, 0x9e99ee7e9465172c, 0x03d7f6037ae9e640),
        (67, 0xac8870533a222016, 0xcca59d015f7629f3),
        (71, 0x064b8e988ec1439d, 0x894affc365c71e88),
        (65, 0xb5d92b1bee8b2914, 0x85b88cf49a705c22),
        (66, 0xe9ab7fd1d0e9d7d2, 0x17b0df9a9c835926),
        (70, 0x8c5117f99d60e402, 0x5226737ecda091d2),
        (66, 0xf00fcb90bba4f2ae, 0x68ccb64967569e5c),
        (64, 0xf175e7b8db1ff8b0, 0xbf264ca853710ba4),
        (66, 0xb3e428d550b1bc99, 0xf2d258dec395b80f),
    ];
    assert_eq!(got, want);
}

#[test]
fn lapd800_lowers_one_guard_per_padding_family() {
    // The four `any k : 8..207` families are lowered as families: each
    // has one guard chunk shared by its 200 instances, whose quick
    // compares come from the binding rows.
    let core = Machine::from_source(lapd::SOURCE).unwrap();
    let m = Machine::from_source(&lapd::source_expanded()).unwrap();
    let padding: Vec<_> = m.module.families.iter().filter(|f| f.rows > 1).collect();
    assert_eq!(padding.len(), 4);
    let mut guard_chunks = std::collections::BTreeSet::new();
    for f in padding {
        assert_eq!(f.rows, 200);
        for i in f.first..f.first + f.rows {
            let g = m.program.guards[i].as_ref().unwrap();
            assert!(g.quick.is_some() && !g.needs_frame, "{}", m.transition_name(i));
            assert_eq!(m.program.bodies[i], m.program.bodies[f.first]);
            guard_chunks.insert(g.chunk);
        }
    }
    assert_eq!(guard_chunks.len(), 4, "one guard lowering per family, not per instance");
    assert_eq!(
        m.program.chunks.len(),
        core.program.chunks.len() + 8,
        "each padding family adds one guard chunk and one body chunk"
    );
}

#[test]
fn family_guard_specs_match_the_tree_walker() {
    // Families guarded by range compares, binding-only terms, mixed
    // `and`-chains and calls: each instance's quick, conjunction or chunk
    // guard comes from its family's one lowering. The event streams name
    // the instances that fire.
    let mut instances_fired = false;
    for seed in 0..8 {
        let spec = protocols::randspec::RandSpec::with_family_guards(seed);
        let analyzer = tango::Tango::generate(&spec.source()).unwrap();
        assert_plan_invariants(&analyzer.machine);
        let trace = analyzer
            .generate_trace(&spec.workload(10), ChoicePolicy::First, 100_000)
            .unwrap();
        let mut streams = Vec::new();
        for exec in [ExecMode::Compiled, ExecMode::Interp] {
            let (mut tel, buf) = traced_handle();
            let report = on(&analyzer, exec)
                .analyze_with(&trace, &AnalysisOptions::default(), &mut tel)
                .unwrap();
            tel.finalize(&report.stats);
            assert_eq!(report.verdict, Verdict::Valid, "seed {} {}", seed, exec.name());
            let stream = buf.contents();
            assert_counts_match(&report, &stream);
            streams.push(stream);
        }
        assert_eq!(streams[0], streams[1], "seed {}", seed);
        instances_fired |= streams[0].contains("[j=");
    }
    assert!(instances_fired, "some family instance must fire");
}
