//! The analyzer's machine environment: trace cursors + order checking.
//!
//! [`TraceEnv`] feeds the machine inputs from the trace and verifies the
//! machine's outputs against it. All of §2.4's relative-order options are
//! enforced here, reduced to integer comparisons on global trace positions:
//!
//! * within one (IP, direction) stream: always in trace order (FIFO
//!   cursors);
//! * *inputs w.r.t. outputs*: the input being consumed must precede the
//!   next unverified output at the same IP;
//! * *outputs w.r.t. inputs*: the output being verified must precede the
//!   next unconsumed input at the same IP;
//! * *IP order, inputs*: the input being consumed must be the globally
//!   earliest unconsumed input;
//! * *IP order, outputs*: verified outputs must form a prefix of the
//!   global output order — checked at end-of-fire so that multiple outputs
//!   emitted by a single transition block to *different* IPs may appear
//!   permuted in the trace, the special case §2.4.2 calls out.

use crate::options::{AnalysisOptions, OrderOptions};
use crate::trace::{Dir, ResolvedTrace};
use estelle_frontend::sema::model::AnalyzedModule;
use estelle_runtime::{InputSource, OutputSink, QueueHead, Value};

/// Cursor state: the part of the environment saved and restored together
/// with the machine state during backtracking (§2.3 "queue states").
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Cursors {
    pub input: Vec<usize>,
    pub output: Vec<usize>,
}

impl Cursors {
    fn new(ip_count: usize) -> Self {
        Cursors {
            input: vec![0; ip_count],
            output: vec![0; ip_count],
        }
    }

    /// True when every observed stream is fully consumed/verified.
    fn done(&self, trace: &ResolvedTrace, disabled: &[bool], unobserved: &[bool]) -> bool {
        for ip in 0..self.input.len() {
            if unobserved[ip] {
                // §5.2: an undefined queue is assumed empty.
                continue;
            }
            if self.input[ip] != trace.inputs[ip].len() {
                return false;
            }
            if !disabled[ip] && self.output[ip] != trace.outputs[ip].len() {
                return false;
            }
        }
        true
    }
}

/// Why the last `emit` rejected an output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The output stream at that IP is exhausted, but the trace is dynamic
    /// and may still grow: the branch should be retried when data arrives
    /// rather than recorded as failed.
    MayGrow,
    /// Plain mismatch: wrong interaction, wrong parameters, exhausted
    /// static stream, or an order violation.
    Mismatch,
}

/// The trace-backed environment driving one search.
pub struct TraceEnv {
    pub trace: ResolvedTrace,
    pub cursors: Cursors,
    order: OrderOptions,
    disabled: Vec<bool>,
    unobserved: Vec<bool>,
    /// Whether the trace is complete. Until `eof` a stream that runs out
    /// may still grow: the on-line search clears it while the trace is
    /// arriving.
    pub eof: bool,
    /// Global indices of outputs verified during the current fire.
    fire_outputs: Vec<usize>,
    /// Set when the last rejection was [`RejectReason::MayGrow`].
    pub last_reject: Option<RejectReason>,
}

/// Setup failures (bad option/trace combinations).
#[derive(Debug, Clone)]
pub struct EnvError(pub String);

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EnvError {}

impl TraceEnv {
    /// Build an environment for the complete `trace` under `options`,
    /// resolving the option IP names against the module.
    pub fn new(
        module: &AnalyzedModule,
        trace: ResolvedTrace,
        options: &AnalysisOptions,
    ) -> Result<Self, EnvError> {
        let n = module.ips.len();
        let mut disabled = vec![false; n];
        let mut unobserved = vec![false; n];
        for name in &options.disabled_ips {
            let id = module
                .lookup_ip(name)
                .ok_or_else(|| EnvError(format!("disable_ip: unknown IP `{}`", name)))?;
            disabled[id.0 as usize] = true;
        }
        for name in &options.unobserved_ips {
            let id = module
                .lookup_ip(name)
                .ok_or_else(|| EnvError(format!("unobserved_ip: unknown IP `{}`", name)))?;
            unobserved[id.0 as usize] = true;
        }
        for e in &trace.events {
            if unobserved[e.ip] {
                return Err(EnvError(format!(
                    "trace contains an event at `{}`, which is declared unobserved",
                    module.ips[e.ip].name
                )));
            }
        }
        Ok(TraceEnv {
            cursors: Cursors::new(n),
            trace,
            order: options.order,
            disabled,
            unobserved,
            eof: true,
            fire_outputs: Vec::new(),
            last_reject: None,
        })
    }

    /// Save the cursor state (paired with a machine-state save).
    pub fn save(&self) -> Cursors {
        self.cursors.clone()
    }

    /// Restore a previously saved cursor state, reusing the cursor
    /// buffers rather than allocating new ones.
    pub fn restore(&mut self, saved: &Cursors) {
        self.cursors.input.clone_from(&saved.input);
        self.cursors.output.clone_from(&saved.output);
    }

    /// All inputs consumed and all checked outputs verified?
    pub fn all_done(&self) -> bool {
        self.cursors
            .done(&self.trace, &self.disabled, &self.unobserved)
    }

    /// Begin a transition fire: clears the per-fire output record.
    pub fn begin_fire(&mut self) {
        self.fire_outputs.clear();
        self.last_reject = None;
    }

    /// Finish a transition fire; under IP-order checking, verify that the
    /// outputs verified so far still form a prefix of the global output
    /// order (allowing within-fire permutation across IPs).
    pub fn end_fire(&mut self) -> bool {
        if !self.order.ip_order || self.fire_outputs.is_empty() {
            return true;
        }
        let min_unverified = (0..self.cursors.output.len())
            .filter(|&ip| !self.disabled[ip] && !self.unobserved[ip])
            .filter_map(|ip| self.trace.outputs[ip].get(self.cursors.output[ip]).copied())
            .min();
        match min_unverified {
            None => true,
            Some(m) => {
                let ok = self.fire_outputs.iter().all(|&g| g < m);
                if !ok {
                    self.last_reject = Some(RejectReason::Mismatch);
                }
                ok
            }
        }
    }

    /// Count of checkable events already consumed/verified: the events
    /// the current branch explains. It depends on the cursors alone, so
    /// it does not move as a growing trace gets longer.
    pub fn explained(&self) -> usize {
        let mut n = 0;
        for ip in 0..self.cursors.input.len() {
            n += self.cursors.input[ip];
            if !self.disabled[ip] {
                n += self.cursors.output[ip];
            }
        }
        n
    }

    /// Count of events not yet consumed/verified (diagnostics).
    pub fn outstanding(&self) -> usize {
        let mut n = 0;
        for ip in 0..self.cursors.input.len() {
            n += self.trace.inputs[ip].len() - self.cursors.input[ip];
            if !self.disabled[ip] {
                n += self.trace.outputs[ip].len() - self.cursors.output[ip];
            }
        }
        n
    }
}

impl InputSource for TraceEnv {
    fn head(&self, ip: usize) -> QueueHead {
        if self.unobserved[ip] {
            return QueueHead::Unobserved;
        }
        let stream = &self.trace.inputs[ip];
        let cur = self.cursors.input[ip];
        let Some(&gidx) = stream.get(cur) else {
            return if !self.eof && !self.disabled[ip] {
                QueueHead::EmptyMayGrow
            } else {
                QueueHead::Empty
            };
        };
        // Inputs w.r.t. outputs: an unverified earlier output at the same
        // IP must be produced before this input may be consumed.
        if self.order.input_wrt_output {
            if let Some(&o) = self.trace.outputs[ip].get(self.cursors.output[ip]) {
                if o < gidx {
                    return QueueHead::Empty;
                }
            }
        }
        // IP order: this must be the globally earliest unconsumed input.
        if self.order.ip_order {
            for other in 0..self.cursors.input.len() {
                if other == ip || self.unobserved[other] {
                    continue;
                }
                if let Some(&g2) =
                    self.trace.inputs[other].get(self.cursors.input[other])
                {
                    if g2 < gidx {
                        return QueueHead::Empty;
                    }
                }
            }
        }
        let ev = &self.trace.events[gidx];
        debug_assert_eq!(ev.dir, Dir::In);
        QueueHead::Message {
            interaction: ev.interaction,
            params: ev.params.clone(),
        }
    }

    fn consume(&mut self, ip: usize) {
        self.cursors.input[ip] += 1;
        debug_assert!(self.cursors.input[ip] <= self.trace.inputs[ip].len());
    }
}

impl OutputSink for TraceEnv {
    fn emit(&mut self, ip: usize, interaction: usize, params: Vec<Value>) -> bool {
        // §2.4.3 / §5.2: outputs at disabled or unobserved IPs are always
        // considered valid.
        if self.disabled[ip] || self.unobserved[ip] {
            return true;
        }
        let cur = self.cursors.output[ip];
        let Some(&gidx) = self.trace.outputs[ip].get(cur) else {
            self.last_reject = Some(if !self.eof {
                RejectReason::MayGrow
            } else {
                RejectReason::Mismatch
            });
            return false;
        };
        let ev = &self.trace.events[gidx];
        if ev.interaction != interaction
            || ev.params.len() != params.len()
            || !ev.params.iter().zip(&params).all(|(a, b)| a.matches(b))
        {
            self.last_reject = Some(RejectReason::Mismatch);
            return false;
        }
        // Outputs w.r.t. inputs: this output must precede the next
        // unconsumed input at the same IP.
        if self.order.output_wrt_input {
            if let Some(&i) = self.trace.inputs[ip].get(self.cursors.input[ip]) {
                if i < gidx {
                    self.last_reject = Some(RejectReason::Mismatch);
                    return false;
                }
            }
        }
        self.cursors.output[ip] += 1;
        self.fire_outputs.push(gidx);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Event, Trace};
    use estelle_frontend::analyze;

    fn module() -> AnalyzedModule {
        analyze(
            r#"
            specification s;
            channel CU(user, m); by user: req(n : integer); by m: conf(n : integer); end;
            channel CL(net, m); by net: pkt; by m: snd; end;
            module M process;
                ip U : CU(m);
                ip L : CL(m);
            end;
            body MB for M;
                state S;
                initialize to S begin end;
            end;
            end.
            "#,
        )
        .unwrap()
    }

    fn env_for(events: Vec<Event>, order: OrderOptions) -> TraceEnv {
        let m = module();
        let t = ResolvedTrace::resolve(&Trace::new(events), &m).unwrap();
        TraceEnv::new(&m, t, &AnalysisOptions::with_order(order)).unwrap()
    }

    #[test]
    fn fifo_heads_per_ip() {
        let env = env_for(
            vec![
                Event::input("U", "req", vec![Value::Int(1)]),
                Event::input("L", "pkt", vec![]),
                Event::input("U", "req", vec![Value::Int(2)]),
            ],
            OrderOptions::none(),
        );
        // Without IP ordering both heads are visible.
        assert!(matches!(env.head(0), QueueHead::Message { .. }));
        assert!(matches!(env.head(1), QueueHead::Message { .. }));
    }

    #[test]
    fn ip_order_serializes_inputs() {
        let mut env = env_for(
            vec![
                Event::input("U", "req", vec![Value::Int(1)]),
                Event::input("L", "pkt", vec![]),
            ],
            OrderOptions::ip(),
        );
        // L's input is second globally: blocked until U's is consumed.
        assert!(matches!(env.head(0), QueueHead::Message { .. }));
        assert_eq!(env.head(1), QueueHead::Empty);
        env.consume(0);
        assert!(matches!(env.head(1), QueueHead::Message { .. }));
    }

    #[test]
    fn input_wrt_output_blocks_input_after_pending_output() {
        let mut env = env_for(
            vec![
                Event::output("U", "conf", vec![Value::Int(0)]),
                Event::input("U", "req", vec![Value::Int(1)]),
            ],
            OrderOptions::io(),
        );
        // The traced output precedes the input at U: the input cannot be
        // consumed until the output has been produced.
        assert_eq!(env.head(0), QueueHead::Empty);
        env.begin_fire();
        assert!(env.emit(0, 0, vec![Value::Int(0)]));
        assert!(env.end_fire());
        assert!(matches!(env.head(0), QueueHead::Message { .. }));
    }

    #[test]
    fn output_matching_checks_interaction_and_params() {
        let mut env = env_for(
            vec![Event::output("U", "conf", vec![Value::Int(7)])],
            OrderOptions::none(),
        );
        env.begin_fire();
        // Wrong parameter.
        assert!(!env.emit(0, 0, vec![Value::Int(8)]));
        assert_eq!(env.last_reject, Some(RejectReason::Mismatch));
        // Right parameter.
        assert!(env.emit(0, 0, vec![Value::Int(7)]));
        assert_eq!(env.cursors.output[0], 1);
        // No inputs in the trace, and the only output is now verified.
        assert!(env.all_done());
    }

    #[test]
    fn undefined_params_match_anything() {
        let mut env = env_for(
            vec![Event::output("U", "conf", vec![Value::Undefined])],
            OrderOptions::none(),
        );
        env.begin_fire();
        assert!(env.emit(0, 0, vec![Value::Int(42)]));
    }

    #[test]
    fn exhausted_static_output_stream_is_mismatch() {
        let mut env = env_for(vec![], OrderOptions::none());
        env.begin_fire();
        assert!(!env.emit(0, 0, vec![Value::Int(1)]));
        assert_eq!(env.last_reject, Some(RejectReason::Mismatch));
    }

    #[test]
    fn exhausted_output_stream_may_grow_before_eof() {
        let m = module();
        let t = ResolvedTrace::resolve(&Trace::new(vec![]), &m).unwrap();
        let mut env =
            TraceEnv::new(&m, t, &AnalysisOptions::with_order(OrderOptions::none())).unwrap();
        env.eof = false;
        env.begin_fire();
        assert!(!env.emit(0, 0, vec![Value::Int(1)]));
        assert_eq!(env.last_reject, Some(RejectReason::MayGrow));
    }

    #[test]
    fn same_fire_permutation_across_ips_allowed() {
        // Trace records U.conf before L.snd, machine emits L.snd first —
        // fine within a single fire under IP ordering.
        let mut env = env_for(
            vec![
                Event::output("U", "conf", vec![Value::Int(1)]),
                Event::output("L", "snd", vec![]),
            ],
            OrderOptions::full(),
        );
        env.begin_fire();
        assert!(env.emit(1, 0, vec![]));
        assert!(env.emit(0, 0, vec![Value::Int(1)]));
        assert!(env.end_fire());
        assert!(env.all_done());
    }

    #[test]
    fn cross_fire_permutation_rejected_under_ip_order() {
        let mut env = env_for(
            vec![
                Event::output("U", "conf", vec![Value::Int(1)]),
                Event::output("L", "snd", vec![]),
            ],
            OrderOptions::full(),
        );
        // First fire produces only the *second* traced output.
        env.begin_fire();
        assert!(env.emit(1, 0, vec![]));
        assert!(!env.end_fire());
    }

    #[test]
    fn cross_fire_order_ignored_without_ip_order() {
        let mut env = env_for(
            vec![
                Event::output("U", "conf", vec![Value::Int(1)]),
                Event::output("L", "snd", vec![]),
            ],
            OrderOptions::none(),
        );
        env.begin_fire();
        assert!(env.emit(1, 0, vec![]));
        assert!(env.end_fire());
        env.begin_fire();
        assert!(env.emit(0, 0, vec![Value::Int(1)]));
        assert!(env.end_fire());
        assert!(env.all_done());
    }

    #[test]
    fn save_restore_round_trips() {
        let mut env = env_for(
            vec![
                Event::input("U", "req", vec![Value::Int(1)]),
                Event::output("U", "conf", vec![Value::Int(1)]),
            ],
            OrderOptions::none(),
        );
        let saved = env.save();
        env.consume(0);
        env.begin_fire();
        assert!(env.emit(0, 0, vec![Value::Int(1)]));
        assert!(env.all_done());
        env.restore(&saved);
        assert!(!env.all_done());
        assert_eq!(env.outstanding(), 2);
    }

    #[test]
    fn disabled_ip_outputs_always_valid() {
        let m = module();
        let t = ResolvedTrace::resolve(&Trace::new(vec![]), &m).unwrap();
        let opts = AnalysisOptions::with_order(OrderOptions::full()).disable_ip("L");
        let mut env = TraceEnv::new(&m, t, &opts).unwrap();
        env.begin_fire();
        assert!(env.emit(1, 0, vec![]));
        assert!(env.end_fire());
        assert!(env.all_done());
    }

    #[test]
    fn unobserved_ip_fabricates_inputs() {
        let m = module();
        let t = ResolvedTrace::resolve(&Trace::new(vec![]), &m).unwrap();
        let opts = AnalysisOptions::default().unobserved_ip("L");
        let env = TraceEnv::new(&m, t, &opts).unwrap();
        assert_eq!(env.head(1), QueueHead::Unobserved);
        assert!(env.all_done());
    }

    #[test]
    fn trace_event_at_unobserved_ip_rejected_at_setup() {
        let m = module();
        let t = ResolvedTrace::resolve(
            &Trace::new(vec![Event::input("L", "pkt", vec![])]),
            &m,
        )
        .unwrap();
        let opts = AnalysisOptions::default().unobserved_ip("L");
        assert!(TraceEnv::new(&m, t, &opts).is_err());
    }
}
