//! Implementation-generation mode.
//!
//! Tango "can be used to generate implementations which behave the same
//! way as those generated by Dingo" (paper §6), and the evaluation's
//! traces were collected exactly that way: "we used Tango to generate an
//! implementation. We executed this implementation 7 times, to collect 7
//! valid traces" (§4.1). This module runs the compiled machine against a
//! scripted environment, logging every consumed input and produced output
//! — the log *is* a trace that is valid by construction.
//!
//! Nondeterministic choices among fireable transitions are resolved by a
//! [`ChoicePolicy`]: deterministic first-match, or seeded-random to sample
//! different interleavings (the paper's seven LAPD runs).

use crate::error::TangoError;
use crate::trace::{Event, Trace};
use estelle_frontend::sema::model::AnalyzedModule;
use crate::rng::SplitMix64;
use estelle_runtime::{InputSource, Machine, OutputSink, QueueHead, Value};
use std::collections::VecDeque;

/// How the driver resolves nondeterministic choices.
#[derive(Clone, Copy, Debug)]
pub enum ChoicePolicy {
    /// Always fire the first fireable transition (deterministic).
    First,
    /// Sample uniformly with a seeded generator (reproducible variety).
    Random(u64),
}

/// A scripted input: which IP receives which interaction.
#[derive(Clone, Debug)]
pub struct ScriptedInput {
    pub ip: String,
    pub interaction: String,
    pub params: Vec<Value>,
}

impl ScriptedInput {
    pub fn new(ip: &str, interaction: &str, params: Vec<Value>) -> Self {
        ScriptedInput {
            ip: ip.to_string(),
            interaction: interaction.to_string(),
            params,
        }
    }
}

/// The environment of a generated implementation: scripted per-IP FIFO
/// input queues and an interaction log.
struct ImplEnv<'a> {
    module: &'a AnalyzedModule,
    queues: Vec<VecDeque<(usize, Vec<Value>)>>,
    log: Vec<Event>,
}

impl<'a> ImplEnv<'a> {
    fn new(module: &'a AnalyzedModule, script: &[ScriptedInput]) -> Result<Self, TangoError> {
        let mut queues = vec![VecDeque::new(); module.ips.len()];
        for s in script {
            let ip = module
                .lookup_ip(&s.ip)
                .ok_or_else(|| TangoError::Generator(format!("unknown IP `{}`", s.ip)))?;
            let info = module.ip(ip);
            let idx = info
                .input_index(&s.interaction.to_ascii_lowercase())
                .ok_or_else(|| {
                    TangoError::Generator(format!(
                        "`{}` cannot arrive at `{}`",
                        s.interaction, s.ip
                    ))
                })?;
            let sig = &info.inputs[idx];
            if sig.params.len() != s.params.len() {
                return Err(TangoError::Generator(format!(
                    "`{}` takes {} parameter(s), script supplies {}",
                    s.interaction,
                    sig.params.len(),
                    s.params.len()
                )));
            }
            queues[ip.0 as usize].push_back((idx, s.params.clone()));
        }
        Ok(ImplEnv {
            module,
            queues,
            log: Vec::new(),
        })
    }

    fn remaining_inputs(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

impl InputSource for ImplEnv<'_> {
    fn head(&self, ip: usize) -> QueueHead {
        match self.queues[ip].front() {
            Some((interaction, params)) => QueueHead::Message {
                interaction: *interaction,
                params: params.clone(),
            },
            None => QueueHead::Empty,
        }
    }

    fn consume(&mut self, ip: usize) {
        let (interaction, params) = self.queues[ip]
            .pop_front()
            .expect("machine consumes only offered inputs");
        let info = &self.module.ips[ip];
        self.log.push(Event::input(
            &info.name,
            &info.inputs[interaction].name,
            params,
        ));
    }
}

impl OutputSink for ImplEnv<'_> {
    fn emit(&mut self, ip: usize, interaction: usize, params: &[Value]) -> bool {
        let info = &self.module.ips[ip];
        self.log.push(Event::output(
            &info.name,
            &info.outputs[interaction].name,
            params.to_vec(),
        ));
        true
    }
}

/// Execute the machine as an implementation: feed it the scripted inputs
/// and log everything it consumes and produces. Stops when no transition
/// is fireable; errors if scripted inputs were left unconsumed (the spec
/// never accepted them) or `max_steps` was exceeded (livelock).
pub fn run_implementation(
    machine: &Machine,
    script: &[ScriptedInput],
    choice: ChoicePolicy,
    max_steps: u64,
) -> Result<Trace, TangoError> {
    let module = &machine.module.analyzed;
    let mut env = ImplEnv::new(module, script)?;
    let mut state = machine.initial_state_with(&mut env)?;
    let mut rng = match choice {
        ChoicePolicy::First => None,
        ChoicePolicy::Random(seed) => Some(SplitMix64::new(seed)),
    };

    let mut steps = 0u64;
    loop {
        let gen = machine.generate(&mut state, &env)?;
        if gen.fireable.is_empty() {
            break;
        }
        let pick = match &mut rng {
            None => 0,
            Some(r) => r.gen_index(gen.fireable.len()),
        };
        let outcome = machine.fire(&mut state, &gen.fireable[pick], &mut env)?;
        debug_assert_eq!(outcome, estelle_runtime::FireOutcome::Completed);
        steps += 1;
        if steps > max_steps {
            return Err(TangoError::Generator(format!(
                "implementation did not quiesce within {} steps (livelock?)",
                max_steps
            )));
        }
    }

    if env.remaining_inputs() > 0 {
        return Err(TangoError::Generator(format!(
            "{} scripted input(s) were never consumed by the specification",
            env.remaining_inputs()
        )));
    }
    Ok(Trace::new(env.log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Dir;

    const ECHO: &str = r#"
        specification echo;
        channel C(env, m);
            by env: req(n : integer);
            by m: rsp(n : integer);
        end;
        module M process; ip P : C(m); end;
        body MB for M;
            state S;
            initialize to S begin end;
            trans
            from S to S when P.req begin output P.rsp(n + 1) end;
        end;
        end.
    "#;

    #[test]
    fn log_interleaves_inputs_and_outputs() {
        let m = Machine::from_source(ECHO).unwrap();
        let script = vec![
            ScriptedInput::new("P", "req", vec![Value::Int(1)]),
            ScriptedInput::new("P", "req", vec![Value::Int(5)]),
        ];
        let trace = run_implementation(&m, &script, ChoicePolicy::First, 100).unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.events[0].dir, Dir::In);
        assert_eq!(trace.events[1].dir, Dir::Out);
        assert_eq!(trace.events[1].params, vec![Value::Int(2)]);
        assert_eq!(trace.events[3].params, vec![Value::Int(6)]);
    }

    #[test]
    fn unconsumed_script_is_an_error() {
        let m = Machine::from_source(ECHO).unwrap();
        // `req(-1)` is consumable; an input at a state that never accepts
        // it needs a guard — build one by exhausting with an unknown IP
        // instead: unknown interaction name errors.
        let script = vec![ScriptedInput::new("P", "rsp", vec![Value::Int(1)])];
        assert!(run_implementation(&m, &script, ChoicePolicy::First, 100).is_err());
    }

    #[test]
    fn random_policy_is_reproducible() {
        let m = Machine::from_source(ECHO).unwrap();
        let script: Vec<_> = (0..5)
            .map(|i| ScriptedInput::new("P", "req", vec![Value::Int(i)]))
            .collect();
        let a = run_implementation(&m, &script, ChoicePolicy::Random(42), 100).unwrap();
        let b = run_implementation(&m, &script, ChoicePolicy::Random(42), 100).unwrap();
        assert_eq!(a, b);
    }
}
