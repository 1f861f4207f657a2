//! Random-spec differential testing: the bytecode VM against the tree
//! walker.
//!
//! `protocols::randspec` generates small deterministic-per-seed
//! specifications covering the shapes the bytecode compiler treats
//! specially (quick guards, `and`-chains run by the guard chunk,
//! `mod`/`div` arithmetic, `if`/`case` control flow). For every seed the
//! VM must produce the same fireable sets, verdicts, witnesses and
//! TE/GE/RE/SA counters as the tree walker, its oracle. This is the seed of the ROADMAP
//! scenario-diversity item's differential-fuzzing front (3c).
//!
//! The same checks run on [`RandSpec::with_any_families`], whose `any`
//! families the VM answers through equality runs (one lookup per family)
//! while the tree walker still tests every instance; the machine-level
//! check there also covers an `Undefined` key slot (the fallback scan)
//! and every queue-head shape, `EmptyMayGrow` included. Both checks run
//! again on [`RandSpec::with_family_guards`], whose families' guards are
//! range compares, binding-only terms, mixed `and`-chains and calls.

use estelle_runtime::{
    ExecMode, InputSource, Machine, MachineState, OutputSink, QueueHead, UndefinedPolicy, Value,
};
use protocols::randspec::RandSpec;
use tango::{AnalysisOptions, ChoicePolicy, Tango, Trace, TraceAnalyzer, Verdict};

const SEEDS: u64 = 12;

/// Build the analyzer and a self-generated valid trace for a seed.
fn setup(seed: u64) -> (TraceAnalyzer, Trace) {
    setup_spec(RandSpec::new(seed))
}

fn setup_spec(spec: RandSpec) -> (TraceAnalyzer, Trace) {
    let analyzer = Tango::generate(&spec.source()).expect("randspec sources are valid");
    let trace = analyzer
        .generate_trace(&spec.workload(10), ChoicePolicy::First, 100_000)
        .expect("catch-all transitions keep the workload running");
    (analyzer, trace)
}

/// Everything observable about one analysis: verdict, TE/GE/RE/SA,
/// and the witness transition sequence.
#[derive(Debug, PartialEq)]
struct Signature {
    verdict: String,
    totals: (u64, u64, u64, u64),
    witness: Option<Vec<String>>,
}

fn signature(analyzer: &TraceAnalyzer, trace: &Trace, exec: ExecMode) -> Signature {
    let r = TraceAnalyzer::from_machine(analyzer.machine.exec_view(exec))
        .analyze(trace, &AnalysisOptions::default())
        .expect("analysis runs");
    Signature {
        verdict: r.verdict.to_string(),
        totals: (
            r.stats.transitions_executed,
            r.stats.generates,
            r.stats.restores,
            r.stats.saves,
        ),
        witness: r.witness,
    }
}

#[test]
fn all_exec_configurations_agree_on_random_specs() {
    for seed in 0..SEEDS {
        let (analyzer, trace) = setup(seed);
        let interp = signature(&analyzer, &trace, ExecMode::Interp);
        assert_eq!(interp.verdict, Verdict::Valid.to_string(), "seed {}: self-trace", seed);
        assert_eq!(
            signature(&analyzer, &trace, ExecMode::Compiled),
            interp,
            "seed {}: the VM must match the tree walker exactly",
            seed
        );
    }
}

#[test]
fn corrupted_traces_keep_exec_configurations_in_agreement() {
    for seed in 0..SEEDS {
        let (analyzer, trace) = setup(seed);
        // Corrupt the last output event's parameter (if the workload
        // produced one) so the verdict flips away from Valid — the
        // interesting regime for backtracking-heavy disagreement.
        let mut bad = trace.clone();
        let Some(e) = bad
            .events
            .iter_mut()
            .rev()
            .find(|e| e.dir == tango::Dir::Out && !e.params.is_empty())
        else {
            continue;
        };
        if let Some(estelle_runtime::Value::Int(v)) = e.params.first_mut() {
            *v += 1000;
        }
        let interp = signature(&analyzer, &bad, ExecMode::Interp);
        assert_ne!(interp.verdict, Verdict::Valid.to_string(), "seed {}: corrupted", seed);
        assert_eq!(
            signature(&analyzer, &bad, ExecMode::Compiled),
            interp,
            "seed {}: the VM on the corrupted trace",
            seed
        );
    }
}

/// On-line signature of a trace at a given MDFS worker count.
fn online_signature(analyzer: &TraceAnalyzer, trace: &Trace, workers: usize) -> Signature {
    let options = AnalysisOptions {
        workers,
        ..Default::default()
    };
    let mut src = tango::StaticSource::new(trace.clone());
    let r = analyzer
        .analyze_online(&mut src, &options, &mut |_| true)
        .expect("analysis runs");
    Signature {
        verdict: r.verdict.to_string(),
        totals: (
            r.stats.transitions_executed,
            r.stats.generates,
            r.stats.restores,
            r.stats.saves,
        ),
        witness: r.witness,
    }
}

/// The workers=1 vs workers=4 column of the randspec matrix: the
/// work-stealing search must agree with the single-threaded one on
/// verdict, witness and every counter — on the self-generated valid
/// trace and on its corrupted variant.
#[test]
fn multi_worker_mdfs_agrees_with_single_worker_on_random_specs() {
    for seed in 0..SEEDS {
        let (analyzer, trace) = setup(seed);
        let one = online_signature(&analyzer, &trace, 1);
        assert_eq!(one.verdict, Verdict::Valid.to_string(), "seed {}: self-trace", seed);
        let four = online_signature(&analyzer, &trace, 4);
        assert_eq!(four, one, "seed {}: workers=4 drifted on the valid trace", seed);

        let mut bad = trace.clone();
        let corrupted = bad
            .events
            .iter_mut()
            .rev()
            .find(|e| e.dir == tango::Dir::Out && !e.params.is_empty())
            .map(|e| {
                if let Some(estelle_runtime::Value::Int(v)) = e.params.first_mut() {
                    *v += 1000;
                }
            })
            .is_some();
        if !corrupted {
            continue;
        }
        let one = online_signature(&analyzer, &bad, 1);
        let four = online_signature(&analyzer, &bad, 4);
        assert_eq!(four, one, "seed {}: workers=4 drifted on the corrupted trace", seed);
    }
}

/// Raw `Machine::generate` differential: the dispatch index must produce
/// the same fireable list, in declaration order, as the interpreter's
/// linear scan — stepped through a script.
#[test]
fn machine_level_fireable_sets_match_across_configurations() {
    for seed in 0..SEEDS {
        let spec = RandSpec::new(seed);
        let compiled = Machine::from_source(&spec.source()).expect("valid source");
        let interp = compiled.exec_view(ExecMode::Interp);

        let mut st_i = interp.initial_state().expect("initializes");
        let mut st_c = compiled.initial_state().expect("initializes");
        assert_eq!(st_i, st_c, "seed {}", seed);

        let mut env_i = estelle_runtime::env::NullEnv::default();
        let mut env_c = estelle_runtime::env::NullEnv::default();
        for step in 0..6 {
            let gi = interp.generate(&mut st_i, &env_i).expect("generate");
            let gc = compiled.generate(&mut st_c, &env_c).expect("generate");
            let key = |g: &estelle_runtime::Generated| {
                g.fireable
                    .iter()
                    .map(|f| (f.trans, f.params.clone(), f.fabricated))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&gi), key(&gc), "seed {} step {}: compiled", seed, step);
            let Some(first) = gi.fireable.first().cloned() else {
                break;
            };
            interp.fire(&mut st_i, &first, &mut env_i).expect("fire");
            compiled.fire(&mut st_c, &first, &mut env_c).expect("fire");
            assert_eq!(st_i, st_c, "seed {} step {}: post-fire state", seed, step);
        }
    }
}

/// The VM-vs-tree-walker analysis checks above, on one family spec: the
/// self-generated valid trace and its corrupted variant.
fn check_family_spec_analyses(spec: RandSpec) {
    let seed = spec.seed;
    let (analyzer, trace) = setup_spec(spec);
    let interp = signature(&analyzer, &trace, ExecMode::Interp);
    assert_eq!(
        interp.verdict,
        Verdict::Valid.to_string(),
        "seed {}: self-trace",
        seed
    );
    assert_eq!(
        signature(&analyzer, &trace, ExecMode::Compiled),
        interp,
        "seed {}: the VM must match the tree walker on any families",
        seed
    );
    let mut bad = trace.clone();
    let Some(e) = bad
        .events
        .iter_mut()
        .rev()
        .find(|e| e.dir == tango::Dir::Out && !e.params.is_empty())
    else {
        return;
    };
    if let Some(Value::Int(v)) = e.params.first_mut() {
        *v += 1000;
    }
    let interp = signature(&analyzer, &bad, ExecMode::Interp);
    assert_ne!(
        interp.verdict,
        Verdict::Valid.to_string(),
        "seed {}: corrupted",
        seed
    );
    assert_eq!(
        signature(&analyzer, &bad, ExecMode::Compiled),
        interp,
        "seed {}: the VM on the corrupted family trace",
        seed
    );
}

#[test]
fn exec_configurations_agree_on_random_specs_with_any_families() {
    for seed in 0..SEEDS {
        check_family_spec_analyses(RandSpec::with_any_families(seed));
    }
}

#[test]
fn exec_configurations_agree_on_random_specs_with_family_guards() {
    for seed in 0..SEEDS {
        check_family_spec_analyses(RandSpec::with_family_guards(seed));
    }
}

/// An environment showing a fixed head per IP (`P`, `Q`) and whose sink
/// accepts every output.
struct FixedHeads([QueueHead; 2]);

impl InputSource for FixedHeads {
    fn head(&self, ip: usize) -> QueueHead {
        self.0[ip].clone()
    }
    fn consume(&mut self, _ip: usize) {}
}

impl OutputSink for FixedHeads {
    fn emit(&mut self, _ip: usize, _interaction: usize, _params: &[Value]) -> bool {
        true
    }
}

/// A generate result in comparable form: the fireable list and the
/// `incomplete` flag, or the error.
fn generated(m: &Machine, st: &MachineState, input: &dyn InputSource) -> String {
    let mut st = st.clone();
    match m.generate(&mut st, input) {
        Ok(g) => format!(
            "{:?} incomplete={}",
            g.fireable
                .iter()
                .map(|f| (f.trans, f.params.clone(), f.fabricated))
                .collect::<Vec<_>>(),
            g.incomplete
        ),
        Err(e) => format!("error {:?}: {}", e.kind, e.message),
    }
}

/// Machine-level differential on a family spec: at every state of a
/// scripted walk, the VM's fireable list and `incomplete` flag must equal
/// the tree walker's for every pair of queue heads at `P` and `Q`
/// (message, empty, empty but growing, unobserved), under both
/// undefined-value policies, with the globals as reached and with every
/// global forced `Undefined`. Returns the spec's equality-run count.
fn machine_level_generate_matches(spec: RandSpec) -> usize {
    let seed = spec.seed;
    let heads = |k: i64| {
        [
            QueueHead::Message {
                interaction: 0,
                params: vec![Value::Int(k)],
            },
            QueueHead::Empty,
            QueueHead::EmptyMayGrow,
            QueueHead::Unobserved,
        ]
    };
    let base = Machine::from_source(&spec.source()).expect("valid source");
    let switched = base
        .program
        .dispatch
        .plans
        .iter()
        .flatten()
        .filter(|p| matches!(p, estelle_runtime::bytecode::PlanStep::Switch(_)))
        .count();
    let mut st = base.initial_state().expect("initializes");
    for (step, input) in spec.workload(8).iter().enumerate() {
        let Value::Int(k) = input.params[0] else {
            unreachable!("step inputs carry integers")
        };
        let mut undefined = st.clone();
        undefined.globals.fill(Value::Undefined);
        for policy in [UndefinedPolicy::Error, UndefinedPolicy::Propagate] {
            let compiled = base.policy_view(policy);
            let interp = compiled.exec_view(ExecMode::Interp);
            for state in [&st, &undefined] {
                for p in heads(k) {
                    for q in heads(k) {
                        let src = FixedHeads([p.clone(), q]);
                        assert_eq!(
                            generated(&compiled, state, &src),
                            generated(&interp, state, &src),
                            "seed {} step {} {:?} heads {:?}",
                            seed,
                            step,
                            policy,
                            src.0
                        );
                    }
                }
            }
        }
        // Advance on a message at the input's IP, firing the first
        // candidate.
        let mut src = FixedHeads([QueueHead::Empty, QueueHead::Empty]);
        src.0[usize::from(input.ip == "Q")] = heads(k)[0].clone();
        let g = base.generate(&mut st, &src).expect("generate");
        let Some(first) = g.fireable.first().cloned() else {
            break;
        };
        base.fire(&mut st, &first, &mut src).expect("fire");
    }
    switched
}

#[test]
fn machine_level_generate_matches_on_any_families_for_every_head_and_policy() {
    let switched: usize = (0..SEEDS)
        .map(|seed| machine_level_generate_matches(RandSpec::with_any_families(seed)))
        .sum();
    assert!(switched > 0, "the family specs must produce equality runs");
}

#[test]
fn machine_level_generate_matches_on_family_guards_for_every_head_and_policy() {
    for seed in 0..SEEDS {
        machine_level_generate_matches(RandSpec::with_family_guards(seed));
    }
}
