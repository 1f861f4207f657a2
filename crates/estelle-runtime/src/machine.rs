//! The executable machine: the four operations trace analysis needs.
//!
//! The paper (§2.2) lists them: **Generate** the fireable transitions from
//! the current state, **Update** (fire) a transition, **Save** the state
//! and **Restore** it. Save/restore are `MachineState::clone` and plain
//! assignment — the state is a value (§2.3: FSM state, module variables,
//! dynamic memory) — or, for a search whose saved states form a stack
//! over one live state, a [`Trail`] mark and an undo to it
//! ([`Machine::fire_trailed`]); queue cursors live with the trace
//! analyzer that owns the trace.

use crate::bytecode::{compile_program, ExecProgram};
use crate::compile::{compile, CompiledModule};
use crate::env::{InputSource, NullEnv, OutputSink, QueueHead};
use crate::error::{RtResult, RuntimeError, RuntimeErrorKind};
use crate::interp::{expr_has_calls, Interp, Store, UndefinedPolicy};
use crate::trail::Trail;
use crate::value::{default_value, Value};
use crate::vm::{self, Vm};
use estelle_frontend::sema::model::StateId;
use estelle_frontend::sema::types::{Type, TypeId};
use estelle_frontend::{analyze, FrontendError};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Errors from building a machine out of Estelle source.
#[derive(Debug)]
pub enum BuildError {
    Frontend(FrontendError),
    Compile(RuntimeError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Frontend(e) => write!(f, "{}", e),
            BuildError::Compile(e) => write!(f, "{}", e),
        }
    }
}

impl std::error::Error for BuildError {}

/// The saved/restored TAM state (§2.3): control state, module variables
/// and dynamic memory. The paper's *Save* operation is [`MachineState::snapshot`];
/// `clone` is equivalent since the heap shares its chunks copy-on-write.
/// `clone_from` copies into the target's own globals vector, chunk table
/// and free list, which is how the search reuses a dead node's buffers.
#[derive(Debug, PartialEq)]
pub struct MachineState {
    pub control: StateId,
    pub globals: Vec<Value>,
    pub heap: crate::heap::Heap,
}

impl Clone for MachineState {
    fn clone(&self) -> Self {
        MachineState {
            control: self.control,
            globals: self.globals.clone(),
            heap: self.heap.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.control = source.control;
        self.globals.clone_from(&source.globals);
        self.heap.clone_from(&source.heap);
    }
}

impl MachineState {
    /// The paper's *Save*: a snapshot that can later be handed back to the
    /// search as *Restore*. Cheap — globals are copied (small: one `Value`
    /// per module variable) and the heap's chunk table is copied, while
    /// the chunks themselves stay shared copy-on-write. Cost is
    /// O(globals + touched chunks), not O(whole state). This allocates
    /// the copy's buffers; `spare.clone_from(&state)` makes the same copy
    /// into buffers `spare` already has, and the search saves that way.
    pub fn snapshot(&self) -> MachineState {
        self.clone()
    }

    /// Approximate footprint of one saved snapshot in bytes (globals and
    /// dynamic memory, including out-of-line storage). The trace
    /// analyzer's memory budget charges each saved search node this much.
    ///
    /// Storage is charged exactly once: [`Value::approx_bytes`] never
    /// follows a [`Value::Pointer`] into the heap (a global holding a heap
    /// reference contributes only its inline pointer size), and the cells
    /// it points at are charged by [`crate::heap::Heap::approx_bytes`]
    /// alone — so pointer-linked structures are not double-counted no
    /// matter how many globals or cells reference them.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.globals.iter().map(Value::approx_bytes).sum::<usize>()
            + self.heap.approx_bytes()
    }
}

/// One fireable transition found by *Generate*.
#[derive(Clone, Debug)]
pub struct Fireable {
    /// Index into [`CompiledModule::transitions`].
    pub trans: usize,
    /// Parameter values of the consumed input interaction (empty for
    /// spontaneous transitions).
    pub params: Vec<Value>,
    /// True when the input was fabricated for an unobserved IP (partial
    /// traces, §5.2): firing must not consume from the real queue.
    pub fabricated: bool,
}

/// The result of *Generate*.
#[derive(Clone, Debug, Default)]
pub struct Generated {
    pub fireable: Vec<Fireable>,
    /// True if some `when` transition was blocked only by a dynamic input
    /// queue that may still grow — the paper's "incomplete transition
    /// list", making this node a PG-node (§3.1.1).
    pub incomplete: bool,
}

/// Outcome of *Update* (fire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FireOutcome {
    /// The transition executed and all outputs were accepted.
    Completed,
    /// An output could not be matched against the trace: the branch fails
    /// and the caller should restore the pre-fire state.
    OutputRejected,
}

/// Which executor runs guards, transition bodies and initialize blocks.
///
/// Both modes are bit-identical in every observable: fireable sets and
/// their order, state updates, emitted outputs, verdicts and errors
/// (`tests/compiled_exec.rs` enforces this differentially). `Compiled` is
/// the executor: it lowers the tree IR to register bytecode once at
/// machine construction and dispatches *Generate* through a
/// by-control-state transition index. `Interp` walks the tree IR and
/// linearly scans every transition declaration; it is the differential
/// oracle the tests compare the VM against, reached through
/// [`Machine::exec_view`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Bytecode VM + dispatch index.
    #[default]
    Compiled,
    /// Tree-walking reference interpreter with linear transition scan.
    Interp,
}

impl ExecMode {
    /// Stable lowercase name used by reports and benchmark records.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Compiled => "compiled",
            ExecMode::Interp => "interp",
        }
    }
}

/// An executable single-module Estelle specification. The compiled module
/// and bytecode program are shared (`Arc`), so policy- and exec-adjusted
/// views are cheap to create.
pub struct Machine {
    pub module: Arc<CompiledModule>,
    pub policy: UndefinedPolicy,
    pub exec: ExecMode,
    /// Bytecode + dispatch index, built once per underlying module and
    /// shared by every view (an interp-mode view keeps the `Arc` so
    /// switching modes never recompiles).
    pub program: Arc<ExecProgram>,
}

impl Machine {
    pub fn new(module: CompiledModule) -> Self {
        let program = Arc::new(compile_program(&module));
        Machine {
            module: Arc::new(module),
            policy: UndefinedPolicy::Error,
            exec: ExecMode::default(),
            program,
        }
    }

    /// A second handle onto the same compiled module with a different
    /// undefined-value policy (full-trace vs. partial-trace analysis).
    pub fn policy_view(&self, policy: UndefinedPolicy) -> Machine {
        Machine {
            module: Arc::clone(&self.module),
            policy,
            exec: self.exec,
            program: Arc::clone(&self.program),
        }
    }

    /// A second handle onto the same compiled module with a different
    /// executor: how differential tests and benchmarks reach the tree
    /// walker.
    pub fn exec_view(&self, exec: ExecMode) -> Machine {
        Machine {
            module: Arc::clone(&self.module),
            policy: self.policy,
            exec,
            program: Arc::clone(&self.program),
        }
    }

    /// Parse, analyze and compile Estelle source into a machine.
    pub fn from_source(source: &str) -> Result<Self, BuildError> {
        let analyzed = analyze(source).map_err(BuildError::Frontend)?;
        let module = compile(analyzed).map_err(BuildError::Compile)?;
        Ok(Machine::new(module))
    }

    fn interp(&self) -> Interp<'_> {
        Interp::new(&self.module, self.policy)
    }

    /// Run the `initialize` transition and return the initial state.
    /// Outputs in the initialize block go to `sink`.
    pub fn initial_state_with(&self, sink: &mut dyn OutputSink) -> RtResult<MachineState> {
        let mut globals: Vec<Value> = self
            .module
            .globals
            .iter()
            .map(|t| default_value(&self.module.analyzed.types, *t))
            .collect();
        let mut heap = crate::heap::Heap::new();
        {
            let mut store = Store {
                globals: &mut globals,
                heap: &mut heap,
                trail: None,
            };
            match self.exec {
                ExecMode::Interp => {
                    let mut frame = Vec::new();
                    self.interp().exec_block(
                        &self.module.init_block,
                        &mut store,
                        &mut frame,
                        sink,
                        0,
                    )?;
                }
                ExecMode::Compiled => {
                    let v = Vm::new(&self.program, self.policy);
                    vm::with_scratch(|s| {
                        v.run(self.program.init, Vec::new(), &mut store, sink, s)
                    })?;
                }
            }
        }
        Ok(MachineState {
            control: self.module.init_to,
            globals,
            heap,
        })
    }

    /// [`Machine::initial_state_with`] discarding initialize outputs.
    pub fn initial_state(&self) -> RtResult<MachineState> {
        let mut sink = NullEnv::default();
        self.initial_state_with(&mut sink)
    }

    /// An initial state whose control state is overridden — used by the
    /// initial-state search option (§2.4.1): variables and dynamic memory
    /// stay "as set by the initialize transition block".
    pub fn initial_state_at(&self, control: StateId) -> RtResult<MachineState> {
        let mut st = self.initial_state()?;
        st.control = control;
        Ok(st)
    }

    /// *Generate*: list the fireable transitions from `st` given the
    /// inputs currently offered by `input`. Applies Estelle priority
    /// filtering (among enabled transitions only the best priority class
    /// fires).
    pub fn generate(
        &self,
        st: &mut MachineState,
        input: &dyn InputSource,
    ) -> RtResult<Generated> {
        let mut out = Generated::default();
        self.generate_into(st, input, &mut out)?;
        Ok(out)
    }

    /// Allocation-friendly *Generate*: clears and refills `out` so a
    /// search loop can reuse one `Generated` (and the `Vec` capacity
    /// inside it) across every expansion instead of allocating per call.
    pub fn generate_into(
        &self,
        st: &mut MachineState,
        input: &dyn InputSource,
        out: &mut Generated,
    ) -> RtResult<()> {
        out.fireable.clear();
        out.incomplete = false;
        match self.exec {
            ExecMode::Interp => self.generate_interp(st, input, out)?,
            ExecMode::Compiled => self.generate_compiled(st, input, out)?,
        }

        // Priority filtering: keep only the smallest priority value.
        let priority = |f: &Fireable| self.module.family(f.trans).priority;
        if let Some(best) = out.fireable.iter().map(priority).min() {
            out.fireable.retain(|f| priority(f) == best);
        }
        // Stable order with fabricated inputs last: depth-first searches
        // try transitions explained by *observed* events before inventing
        // interactions on unobserved IPs, which keeps partial-trace
        // analysis (§5) from diving into unbounded fabrication chains.
        // (Sorting a run with no fabricated entries is the common case;
        // skip the pass entirely then.)
        if out.fireable.iter().any(|f| f.fabricated) {
            out.fireable.sort_by_key(|f| f.fabricated);
        }
        Ok(())
    }

    /// Reference *Generate*: tree-walking guards over a linear scan of
    /// every transition declaration.
    fn generate_interp(
        &self,
        st: &mut MachineState,
        input: &dyn InputSource,
        out: &mut Generated,
    ) -> RtResult<()> {
        let interp = self.interp();

        for i in 0..self.module.transition_count() {
            let (t, binding) = self.module.instance(i);
            if !t.from.contains(&st.control) {
                continue;
            }
            // Resolve the input clause first.
            let (params, fabricated) = match t.when {
                None => (Vec::new(), false),
                Some((ip, interaction, nparams)) => match input.head(ip) {
                    QueueHead::Message {
                        interaction: head_interaction,
                        params,
                    } if head_interaction == interaction => (params, false),
                    QueueHead::Message { .. } | QueueHead::Empty => continue,
                    QueueHead::EmptyMayGrow => {
                        out.incomplete = true;
                        continue;
                    }
                    QueueHead::Unobserved => (vec![Value::Undefined; nparams], true),
                },
            };

            // Evaluate the guard with the transition frame (any bindings +
            // input parameters).
            if let Some(guard) = &t.provided {
                let mut frame = self.transition_frame(t, binding, &params);
                let enabled = if expr_has_calls(guard) {
                    // Guards containing function calls may have side
                    // effects; evaluate against a scratch copy.
                    let mut globals = st.globals.clone();
                    let mut heap = st.heap.clone();
                    let mut store = Store {
                        globals: &mut globals,
                        heap: &mut heap,
                        trail: None,
                    };
                    let mut sink = NullEnv::default();
                    interp.eval_guard(guard, &mut store, &mut frame, &mut sink)?
                } else {
                    let mut store = Store {
                        globals: &mut st.globals,
                        heap: &mut st.heap,
                        trail: None,
                    };
                    let mut sink = NullEnv::default();
                    interp.eval_guard(guard, &mut store, &mut frame, &mut sink)?
                };
                if !enabled {
                    continue;
                }
            }

            out.fireable.push(Fireable {
                trans: i,
                params,
                fabricated,
            });
        }
        Ok(())
    }

    /// Compiled *Generate*: walk only the dispatch-index bucket for the
    /// current control state (declaration order is preserved inside a
    /// bucket, so the fireable list is element-for-element identical to
    /// the linear scan's), cache one queue head per IP for the whole
    /// call, and evaluate guards on the bytecode VM.
    fn generate_compiled(
        &self,
        st: &mut MachineState,
        input: &dyn InputSource,
        out: &mut Generated,
    ) -> RtResult<()> {
        let program = &self.program;
        let v = Vm::new(program, self.policy);
        vm::with_scratch(|s| {
            let mut heads = std::mem::take(&mut s.heads);
            heads.clear();
            heads.resize(self.module.analyzed.ips.len(), None);
            let (entries, plan) = program.dispatch.candidates(st.control);
            let result = self.generate_plan(&v, s, &mut heads, st, input, out, entries, plan);
            s.heads = heads;
            result
        })
    }

    /// Follow a bucket's plan: scans go entry by entry; an equality run
    /// is narrowed to the entries worth testing first
    /// ([`Machine::run_candidates`]), so an `any` family costs one lookup
    /// instead of one guard per instance. The fireable list is the one
    /// the full scan builds: at most one instance of a run can be
    /// enabled, and it is pushed in bucket order.
    #[allow(clippy::too_many_arguments)]
    fn generate_plan(
        &self,
        v: &Vm<'_>,
        s: &mut vm::VmScratch,
        heads: &mut [Option<QueueHead>],
        st: &mut MachineState,
        input: &dyn InputSource,
        out: &mut Generated,
        entries: &[crate::bytecode::DispatchEntry],
        plan: &[crate::bytecode::PlanStep],
    ) -> RtResult<()> {
        use crate::bytecode::PlanStep;
        for step in plan {
            let scan = match step {
                PlanStep::Scan { start, end } => &entries[*start as usize..*end as usize],
                PlanStep::Switch(run) => {
                    let run_entries = &entries[run.start as usize..run.end as usize];
                    self.run_candidates(run, run_entries, heads, st, input, out)?
                }
            };
            self.generate_candidates(v, s, heads, st, input, out, scan)?;
        }
        Ok(())
    }

    /// The entries of an equality run worth testing. The run's shared
    /// `when` clause is resolved once against the cached queue head, so
    /// `incomplete` is still set on `EmptyMayGrow`; then the slot is read
    /// once. None are worth testing when the head does not match or no
    /// key does; the one matching instance otherwise; and every entry
    /// when the slot holds a value that is not key-typed.
    fn run_candidates<'e>(
        &self,
        run: &crate::bytecode::EqualityRun,
        entries: &'e [crate::bytecode::DispatchEntry],
        heads: &mut [Option<QueueHead>],
        st: &MachineState,
        input: &dyn InputSource,
        out: &mut Generated,
    ) -> RtResult<&'e [crate::bytecode::DispatchEntry]> {
        if let Some((ip, interaction, _)) = entries[0].when {
            let head = heads[ip as usize].get_or_insert_with(|| input.head(ip as usize));
            match head {
                QueueHead::Message {
                    interaction: head_interaction,
                    ..
                } if *head_interaction == interaction as usize => {}
                QueueHead::Message { .. } | QueueHead::Empty => return Ok(&[]),
                QueueHead::EmptyMayGrow => {
                    out.incomplete = true;
                    return Ok(&[]);
                }
                QueueHead::Unobserved => {}
            }
        }
        let value = st
            .globals
            .get(run.slot as usize)
            .ok_or_else(|| RuntimeError::internal("global slot out of range"))?;
        Ok(match run.lookup(value) {
            Some(Some(i)) => &entries[i..=i],
            Some(None) => &[],
            None => entries,
        })
    }

    /// One pass over a candidate list for [`Machine::generate_compiled`]:
    /// resolve each entry's `when` clause against the cached queue heads,
    /// evaluate its guard (quick shape, else bytecode chunk), and push
    /// the enabled candidates in list order.
    #[allow(clippy::too_many_arguments)]
    fn generate_candidates(
        &self,
        v: &Vm<'_>,
        s: &mut vm::VmScratch,
        heads: &mut [Option<QueueHead>],
        st: &mut MachineState,
        input: &dyn InputSource,
        out: &mut Generated,
        entries: &[crate::bytecode::DispatchEntry],
    ) -> RtResult<()> {
        for e in entries {
            let i = e.trans as usize;
            let (params, fabricated) = match e.when {
                None => (Vec::new(), false),
                Some((ip, interaction, nparams)) => {
                    let head =
                        heads[ip as usize].get_or_insert_with(|| input.head(ip as usize));
                    match head {
                        QueueHead::Message {
                            interaction: head_interaction,
                            params,
                        } if *head_interaction == interaction as usize => {
                            (params.clone(), false)
                        }
                        QueueHead::Message { .. } | QueueHead::Empty => continue,
                        QueueHead::EmptyMayGrow => {
                            out.incomplete = true;
                            continue;
                        }
                        QueueHead::Unobserved => {
                            (vec![Value::Undefined; nparams as usize], true)
                        }
                    }
                }
            };

            if let Some(g) = &self.program.guards[i] {
                // Trivial guard shapes evaluate against the globals
                // directly — no frame, no store, no VM loop entry. This
                // is where the dispatch index pays off on big tables:
                // the common `v = k` clause costs one comparison per
                // candidate.
                if let Some(q) = &g.quick {
                    use crate::bytecode::QuickGuard;
                    let value = match q {
                        QuickGuard::Const(v) => v.clone(),
                        QuickGuard::Global { slot } => st
                            .globals
                            .get(*slot as usize)
                            .cloned()
                            .ok_or_else(|| {
                                RuntimeError::internal("global slot out of range")
                            })?,
                        QuickGuard::GlobalOpConst {
                            slot,
                            op,
                            k,
                            swapped,
                            span,
                        } => {
                            let gv = st.globals.get(*slot as usize).ok_or_else(|| {
                                RuntimeError::internal("global slot out of range")
                            })?;
                            // Int-int compares — the dominant shape of
                            // padded transition tables — skip the Value
                            // destructuring in `apply_binary`.
                            match (gv, k) {
                                (Value::Int(g0), Value::Int(k0))
                                    if !matches!(op, estelle_ast::BinOp::In) =>
                                {
                                    let (x, y) =
                                        if *swapped { (*k0, *g0) } else { (*g0, *k0) };
                                    crate::interp::scalar::apply_binary_ints(
                                        *op, x, y, *span,
                                    )?
                                }
                                _ => {
                                    let (l, r) = if *swapped { (k, gv) } else { (gv, k) };
                                    crate::interp::scalar::apply_binary(
                                        self.policy,
                                        *op,
                                        l,
                                        r,
                                        *span,
                                    )?
                                }
                            }
                        }
                    };
                    if !crate::interp::scalar::guard_bool(self.policy, value)? {
                        continue;
                    }
                    out.fireable.push(Fireable {
                        trans: i,
                        params,
                        fabricated,
                    });
                    continue;
                }
                // Guards whose chunk reads no frame slot skip the
                // per-candidate frame allocation entirely.
                let frame = if g.needs_frame {
                    let (t, binding) = self.module.instance(i);
                    let mut frame = std::mem::take(&mut s.frame);
                    self.fill_frame(t, binding, &params, &mut frame);
                    frame
                } else {
                    Vec::new()
                };
                let chunk = g.chunk;
                let mut sink = NullEnv::default();
                let value = if g.has_calls {
                    // Guards containing function calls may have side
                    // effects; evaluate against a scratch copy (same
                    // rule as the tree-walker).
                    let mut globals = st.globals.clone();
                    let mut heap = st.heap.clone();
                    let mut store = Store {
                        globals: &mut globals,
                        heap: &mut heap,
                        trail: None,
                    };
                    v.run(chunk, frame, &mut store, &mut sink, s)?
                } else {
                    let mut store = Store {
                        globals: &mut st.globals,
                        heap: &mut st.heap,
                        trail: None,
                    };
                    v.run(chunk, frame, &mut store, &mut sink, s)?
                };
                let value = value.ok_or_else(|| {
                    RuntimeError::internal("guard chunk produced no result")
                })?;
                if !crate::interp::scalar::guard_bool(self.policy, value)? {
                    continue;
                }
            }

            out.fireable.push(Fireable {
                trans: i,
                params,
                fabricated,
            });
        }
        Ok(())
    }

    /// *Update*: fire `f`, consuming its input, executing the block and
    /// emitting outputs to the environment's sink half. On
    /// [`FireOutcome::OutputRejected`] the state is left partially updated;
    /// the caller restores a saved state.
    pub fn fire(
        &self,
        st: &mut MachineState,
        f: &Fireable,
        env: &mut dyn crate::env::MachineEnv,
    ) -> RtResult<FireOutcome> {
        self.fire_trailed(st, None, f, env)
    }

    /// [`Machine::fire`] whose every write to `st`, the control-state
    /// change included, records its undo in `trail` while the trail has
    /// a mark, so that [`Trail::undo`] restores the state as it was at
    /// the mark, whatever the fire's outcome.
    pub fn fire_trailed(
        &self,
        st: &mut MachineState,
        trail: Option<&mut Trail>,
        f: &Fireable,
        env: &mut dyn crate::env::MachineEnv,
    ) -> RtResult<FireOutcome> {
        let mut trail = trail.filter(|t| t.is_marked());
        let (t, binding) = self.module.instance(f.trans);
        if let Some((ip, _, _)) = t.when {
            if !f.fabricated {
                env.consume(ip);
            }
        }
        let result = {
            let mut store = Store {
                globals: &mut st.globals,
                heap: &mut st.heap,
                trail: trail.as_deref_mut(),
            };
            match self.exec {
                ExecMode::Interp => {
                    let mut frame = self.transition_frame(t, binding, &f.params);
                    self.interp()
                        .exec_block(&t.body, &mut store, &mut frame, env, 0)
                }
                ExecMode::Compiled => {
                    let v = Vm::new(&self.program, self.policy);
                    vm::with_scratch(|s| {
                        let mut frame = std::mem::take(&mut s.frame);
                        self.fill_frame(t, binding, &f.params, &mut frame);
                        v.run(self.program.bodies[f.trans], frame, &mut store, env, s)
                    })
                    .map(|_| ())
                }
            }
        };
        match result {
            Ok(()) => {
                if let Some(to) = t.to {
                    if let Some(trail) = trail {
                        trail.control(st.control);
                    }
                    st.control = to;
                }
                Ok(FireOutcome::Completed)
            }
            Err(e) if e.kind == RuntimeErrorKind::OutputRejected => {
                Ok(FireOutcome::OutputRejected)
            }
            Err(e) => Err(e),
        }
    }

    /// Build an instance's frame: its `any` bindings, then input
    /// parameters, padded with defaults.
    fn transition_frame(
        &self,
        t: &crate::ir::TransitionFamily,
        binding: &[i64],
        params: &[Value],
    ) -> Vec<Value> {
        let mut frame = Vec::with_capacity(t.frame_size);
        self.fill_frame(t, binding, params, &mut frame);
        frame
    }

    /// [`Machine::transition_frame`] into the empty `frame`'s buffer.
    fn fill_frame(
        &self,
        t: &crate::ir::TransitionFamily,
        binding: &[i64],
        params: &[Value],
        frame: &mut Vec<Value>,
    ) {
        let types = &self.module.analyzed.types;
        frame.extend(
            binding
                .iter()
                .zip(&t.slot_types)
                .map(|(&ord, &ty)| ordinal_to_value(types, ty, ord)),
        );
        frame.extend(params.iter().cloned());
        while frame.len() < t.frame_size {
            let ty = t.slot_types[frame.len()];
            frame.push(default_value(&self.module.analyzed.types, ty));
        }
    }

    /// Names of the compiled transitions, for display and statistics
    /// ([`CompiledModule::transition_name`]).
    pub fn transition_name(&self, index: usize) -> Cow<'_, str> {
        self.module.transition_name(index)
    }

    /// A transition's when-clause observable as `(IP name, interaction
    /// name)`; `None` for spontaneous transitions. Used by the telemetry
    /// event stream to tag fire events with the trace event they consume.
    pub fn transition_observable(&self, index: usize) -> Option<(&str, &str)> {
        let m = &self.module.analyzed;
        self.module
            .family(index)
            .when
            .map(|(ip, interaction, _)| {
                (
                    m.ips[ip].name.as_str(),
                    m.ips[ip].inputs[interaction].name.as_str(),
                )
            })
    }

    /// Number of compiled transitions (sizes telemetry's per-transition
    /// profile).
    pub fn transition_count(&self) -> usize {
        self.module.transitions.len()
    }
}

/// Reify an ordinal as a value of the given scalar type.
pub fn ordinal_to_value(
    types: &estelle_frontend::sema::types::TypeTable,
    ty: TypeId,
    ord: i64,
) -> Value {
    match types.get(types.base_of(ty)) {
        Type::Boolean => Value::Bool(ord != 0),
        Type::Enum { .. } => Value::Enum(types.base_of(ty), ord),
        _ => Value::Int(ord),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINGPONG: &str = r#"
        specification pingpong;
        channel C(peer, me);
            by peer: ping(n : integer);
            by me: pong(n : integer);
        end;
        module M process; ip P : C(me); end;
        body MB for M;
            var total : integer;
            state Idle;
            initialize to Idle begin total := 0 end;
            trans
            from Idle to Idle when P.ping provided n >= 0 name Tping:
            begin
                total := total + n;
                output P.pong(total);
            end;
        end;
        end.
    "#;

    /// A scripted single-IP environment for tests: FIFO input, recorded
    /// outputs, optional rejection of all outputs.
    struct Script {
        msgs: Vec<(usize, Vec<Value>)>,
        pos: usize,
        outputs: Vec<(usize, usize, Vec<Value>)>,
        reject_outputs: bool,
    }

    impl Script {
        fn new(msgs: Vec<(usize, Vec<Value>)>) -> Self {
            Script {
                msgs,
                pos: 0,
                outputs: Vec::new(),
                reject_outputs: false,
            }
        }
    }

    impl InputSource for Script {
        fn head(&self, ip: usize) -> QueueHead {
            assert_eq!(ip, 0);
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

    impl OutputSink for Script {
        fn emit(&mut self, ip: usize, interaction: usize, params: &[Value]) -> bool {
            if self.reject_outputs {
                return false;
            }
            self.outputs.push((ip, interaction, params.to_vec()));
            true
        }
    }

    #[test]
    fn generate_fire_cycle() {
        let m = Machine::from_source(PINGPONG).expect("builds");
        let mut st = m.initial_state().expect("initializes");
        assert_eq!(st.globals[0], Value::Int(0));

        let mut env = Script::new(vec![(0, vec![Value::Int(3)]), (0, vec![Value::Int(4)])]);

        let g = m.generate(&mut st, &env).unwrap();
        assert_eq!(g.fireable.len(), 1);
        assert!(!g.incomplete);

        let out = m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
        assert_eq!(out, FireOutcome::Completed);
        assert_eq!(st.globals[0], Value::Int(3));
        assert_eq!(env.outputs, vec![(0, 0, vec![Value::Int(3)])]);

        let g = m.generate(&mut st, &env).unwrap();
        m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
        assert_eq!(st.globals[0], Value::Int(7));
    }

    #[test]
    fn guard_blocks_firing() {
        let m = Machine::from_source(PINGPONG).unwrap();
        let mut st = m.initial_state().unwrap();
        let env = Script::new(vec![(0, vec![Value::Int(-1)])]);
        let g = m.generate(&mut st, &env).unwrap();
        assert!(g.fireable.is_empty());
    }

    #[test]
    fn save_restore_is_clone() {
        let m = Machine::from_source(PINGPONG).unwrap();
        let mut st = m.initial_state().unwrap();
        let saved = st.clone();
        let mut env = Script::new(vec![(0, vec![Value::Int(5)])]);
        let g = m.generate(&mut st, &env).unwrap();
        m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
        assert_eq!(st.globals[0], Value::Int(5));
        st = saved;
        assert_eq!(st.globals[0], Value::Int(0));
    }

    #[test]
    fn rejected_output_reports_outcome() {
        let m = Machine::from_source(PINGPONG).unwrap();
        let mut st = m.initial_state().unwrap();
        let mut env = Script::new(vec![(0, vec![Value::Int(1)])]);
        env.reject_outputs = true;
        let g = m.generate(&mut st, &env).unwrap();
        let out = m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
        assert_eq!(out, FireOutcome::OutputRejected);
    }

    #[test]
    fn initial_state_at_overrides_control_only() {
        let m = Machine::from_source(PINGPONG).unwrap();
        let st = m.initial_state_at(StateId(0)).unwrap();
        assert_eq!(st.control, StateId(0));
        assert_eq!(st.globals[0], Value::Int(0));
    }

    #[test]
    fn approx_bytes_charges_pointer_targets_once() {
        let mut heap = crate::heap::Heap::new();
        let r = heap.alloc(Value::Array(vec![Value::Int(1); 8]));
        // Two globals point at the same cell: each contributes only its
        // inline pointer; the pointee is charged once, by the heap.
        let st = MachineState {
            control: StateId(0),
            globals: vec![Value::Pointer(Some(r)), Value::Pointer(Some(r))],
            heap,
        };
        let expected = std::mem::size_of::<MachineState>()
            + 2 * std::mem::size_of::<Value>()
            + st.heap.approx_bytes();
        assert_eq!(st.approx_bytes(), expected);

        // Dropping one referencing global removes exactly one inline
        // pointer from the estimate — nothing heap-side was tied to it.
        let mut one = st.clone();
        one.globals.pop();
        assert_eq!(one.approx_bytes(), expected - std::mem::size_of::<Value>());
    }

    #[test]
    fn snapshot_shares_heap_and_isolates_later_writes() {
        let m = Machine::from_source(PINGPONG).unwrap();
        let mut st = m.initial_state().unwrap();
        st.heap.alloc(Value::Int(7));

        let snap = st.snapshot();
        assert_eq!(st.heap.shared_chunks(), 1, "COW snapshot shares chunks");
        assert_eq!(snap, st);

        // Mutating the live state never leaks into the snapshot.
        let mut env = Script::new(vec![(0, vec![Value::Int(5)])]);
        let g = m.generate(&mut st, &env).unwrap();
        m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
        assert_eq!(st.globals[0], Value::Int(5));
        assert_eq!(snap.globals[0], Value::Int(0));
    }

    #[test]
    fn clone_from_is_a_clone_into_the_targets_buffers() {
        let m = Machine::from_source(PINGPONG).unwrap();
        let mut st = m.initial_state().unwrap();
        let cell = st.heap.alloc(Value::Int(7));
        let shared_by_a_clone = {
            let _clone = st.clone();
            st.heap.shared_chunks()
        };
        // A spare whose globals vector has room for the state's.
        let mut spare = m.initial_state().unwrap();
        spare.globals.push(Value::Int(0));
        spare.heap.clear();
        let globals = spare.globals.as_ptr();

        spare.clone_from(&st);
        assert_eq!(spare, st.clone());
        assert_eq!(st.heap.shared_chunks(), shared_by_a_clone);
        assert_eq!(spare.heap.shared_chunks(), shared_by_a_clone);
        assert_eq!(spare.globals.as_ptr(), globals, "globals vector reused");

        // A write into either side leaves the other as it was.
        let mut env = Script::new(vec![(0, vec![Value::Int(5)])]);
        let g = m.generate(&mut spare, &env).unwrap();
        m.fire(&mut spare, &g.fireable[0], &mut env).unwrap();
        *st.heap.get_mut(cell).unwrap() = Value::Int(8);
        assert_eq!(st.globals[0], Value::Int(0));
        assert_eq!(spare.globals[0], Value::Int(5));
        assert_eq!(spare.heap.get(cell).unwrap(), &Value::Int(7));
    }

    #[test]
    fn priority_filters_fireable_set() {
        let src = r#"
            specification prio;
            module M process; end;
            body MB for M;
                var n : integer;
                state S;
                initialize to S begin n := 0 end;
                trans
                from S to S priority 5 name Low: begin n := 1 end;
                from S to S priority 1 name High: begin n := 2 end;
            end;
            end.
        "#;
        let m = Machine::from_source(src).unwrap();
        let mut st = m.initial_state().unwrap();
        let input = NullEnv::default();
        let g = m.generate(&mut st, &input).unwrap();
        assert_eq!(g.fireable.len(), 1);
        assert_eq!(m.transition_name(g.fireable[0].trans), "High");
    }
}
