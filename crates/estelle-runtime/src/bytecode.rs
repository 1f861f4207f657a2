//! Register bytecode for the compiled executor ([`crate::ExecMode::Compiled`]).
//!
//! The tree-walking interpreter in [`crate::interp`] re-dispatches on the
//! IR node shape for every expression it touches — the classic interpreter
//! overhead the paper's transitions-per-second tables are paying for. This
//! module lowers the tree IR ([`crate::ir`]) one more step, once per
//! [`crate::Machine`] construction, into a compact register-based
//! instruction stream executed by the non-recursive VM loop in
//! [`crate::vm`]:
//!
//! * every `provided` guard, transition body, routine body and the
//!   `initialize` block becomes one [`Chunk`] — flat code, an interned
//!   constant pool, and pre-sized register/place-register windows;
//! * place (l-value) resolution compiles to dedicated place instructions
//!   whose root slots, field positions and array bounds are resolved at
//!   compile time; only index *expressions* remain runtime work;
//! * constant subexpressions that the tree lowering left reducible are
//!   folded here (never folding away a runtime error: a reduction is kept
//!   only when the checked evaluation succeeds);
//! * the [`DispatchIndex`] buckets transitions by from-control-state so
//!   *Generate* touches only the candidates for the current state instead
//!   of linearly scanning every declaration (LAPD's "over 800 transition
//!   declarations" is the paper's own motivating scale), with each
//!   candidate's `when` clause denormalized into the bucket entry.
//!
//! Semantics are bit-identical to the tree-walker by construction: both
//! executors share the scalar/policy rules in [`crate::interp::scalar`]
//! and the place navigation in `interp::place`, and the instruction
//! sequences below replicate the tree-walker's exact evaluation order —
//! including guard side-effect isolation, copy-in/copy-out `var`
//! parameters with *re*-resolution after the callee body, and per-policy
//! undefined diagnostics. `tests/compiled_exec.rs` and
//! `tests/differential_exec.rs` enforce the contract end to end.

use crate::compile::CompiledModule;
use crate::interp::eval_const_expr;
use crate::ir::{CArg, CCall, CExpr, CPlace, CSetElem, CStmt, Slot, TransitionFamily};
use crate::value::{default_value, Value};
use estelle_ast::{BinOp, Span, UnOp};
use estelle_frontend::sema::model::StateId;
use estelle_frontend::sema::types::TypeId;

/// A value-register index within the current chunk's register window.
pub type Reg = u32;

/// Which loop statement an iteration-limit counter belongs to (selects
/// the exact error message of the tree-walker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    While,
    Repeat,
    For,
}

impl LoopKind {
    pub(crate) fn limit_message(self) -> &'static str {
        match self {
            LoopKind::While => "while loop exceeded the iteration limit",
            LoopKind::Repeat => "repeat loop exceeded the iteration limit",
            LoopKind::For => "for loop exceeded the iteration limit",
        }
    }
}

/// One VM instruction. Register operands index the executing chunk's
/// register window; `target` operands are absolute instruction offsets
/// within the same chunk.
#[derive(Clone, Debug)]
pub enum Op {
    /// `reg[dst] = consts[k]`.
    Const { dst: Reg, k: u32 },
    /// `reg[dst] = globals[slot]`.
    ReadG { dst: Reg, slot: u32 },
    /// `reg[dst] = frame[slot]`.
    ReadL { dst: Reg, slot: u32 },
    /// Record field by position (undefined propagates).
    Field { dst: Reg, src: Reg, pos: u32 },
    /// Array element; `lo`/`len` are compile-time bounds.
    Index {
        dst: Reg,
        base: Reg,
        idx: Reg,
        lo: i64,
        len: u32,
    },
    /// Pointer dereference in expression position.
    Deref { dst: Reg, src: Reg },
    /// `p^.f` in expression position: field `pos` of the record `src`
    /// points at, read out of the heap cell without copying the record.
    /// Errors and undefined handling are those of `Deref` then `Field`.
    DerefField { dst: Reg, src: Reg, pos: u32 },
    /// `g.f` for a global record: field `pos` read out of the slot
    /// without copying the record. Errors and undefined handling are
    /// those of `ReadG` then `Field`.
    GlobalField {
        dst: Reg,
        slot: u32,
        pos: u32,
    },
    /// `g[i]` for a global array, with a call-free index: the element
    /// read out of the slot without copying the array. Errors and
    /// undefined handling are those of `ReadG` then `Index`.
    GlobalIndex {
        dst: Reg,
        slot: u32,
        idx: Reg,
        lo: i64,
        len: u32,
    },
    Unary {
        dst: Reg,
        src: Reg,
        op: UnOp,
        span: Span,
    },
    /// Non-logical binary operator on two evaluated operands.
    Binary {
        dst: Reg,
        a: Reg,
        b: Reg,
        op: BinOp,
        span: Span,
    },
    /// Short-circuit check for `and`/`or`: if `src` is decisive, write the
    /// result to `dst` and jump to `target` (past the right operand).
    LogicShort {
        dst: Reg,
        src: Reg,
        and: bool,
        span: Span,
        target: u32,
    },
    /// Kleene combination of both `and`/`or` operands.
    LogicJoin {
        dst: Reg,
        a: Reg,
        b: Reg,
        and: bool,
        span: Span,
    },
    /// `reg[dst] = empty set`.
    SetNew { dst: Reg },
    /// Insert `src`'s ordinal into the set in `set`.
    SetInsert { set: Reg, src: Reg, span: Span },
    /// Insert the ordinal range `a..=b` into the set in `set`.
    SetRange {
        set: Reg,
        a: Reg,
        b: Reg,
        span: Span,
    },
    Jump { target: u32 },
    /// Evaluate `src` as a control condition; jump to `target` when it
    /// equals `jump_if`.
    BranchBool {
        src: Reg,
        jump_if: bool,
        target: u32,
        span: Span,
    },
    /// Post-body loop iteration counter bump + limit check.
    IncCheck {
        counter: Reg,
        kind: LoopKind,
        span: Span,
    },
    /// For-loop header: ordinals of `from`/`to` into `i`/`limit`, template
    /// value (scalar kind of the counter) into `template`.
    ForPrep {
        from: Reg,
        to: Reg,
        i: Reg,
        limit: Reg,
        template: Reg,
        span: Span,
    },
    /// For-loop exit test.
    ForCheck {
        i: Reg,
        limit: Reg,
        down: bool,
        exit: u32,
    },
    /// Reify the counter ordinal as a value of the template's kind.
    ForMake {
        dst: Reg,
        i: Reg,
        template: Reg,
    },
    ForStep { i: Reg, down: bool },
    /// Dispatch on a folded-label case table.
    Case { src: Reg, table: u32, span: Span },
    /// Error-policy undefined check on an output parameter.
    CheckDef { src: Reg, span: Span },
    /// Emit `reg[first .. first+n]` to the sink; a rejection unwinds as
    /// `OutputRejected`.
    Output {
        ip: u32,
        interaction: u32,
        first: Reg,
        n: u32,
        span: Span,
    },
    /// Place root: global slot. Resets the place register's path.
    PlaceG { p: Reg, slot: u32 },
    /// Place root: frame slot.
    PlaceL { p: Reg, slot: u32 },
    /// Append a record field position to the place path.
    PlaceField { p: Reg, pos: u32 },
    /// Append a bounds-checked array offset to the place path.
    PlaceIndex {
        p: Reg,
        idx: Reg,
        lo: i64,
        len: u32,
        span: Span,
    },
    /// Re-root the place at the heap cell its current value points to.
    PlaceDeref { p: Reg, span: Span },
    /// `reg[dst] = *place[p]` (clone).
    ReadPlace { dst: Reg, p: Reg },
    /// `*place[p] = reg[src]` (clone).
    WritePlace { p: Reg, src: Reg },
    /// Invoke `calls[site]`: push the caller context, build the callee
    /// frame from the pre-evaluated argument registers, enter the routine
    /// chunk. The matching `Ret` parks the callee frame for `CopyOut` /
    /// `TakeResult`; `DropRet` discards it.
    Call { site: u32 },
    /// Copy callee frame slot `slot` out to the (re-resolved) place `p`.
    CopyOut { p: Reg, slot: u32 },
    /// Fetch the parked callee's function result into `dst`.
    TakeResult { dst: Reg },
    DropRet,
    /// `new`: allocate a heap cell holding a clone of `consts[template]`
    /// and leave the pointer in `dst`.
    Alloc { dst: Reg, template: u32 },
    Dispose { src: Reg, span: Span },
    /// Return from a routine chunk.
    Ret,
    /// End of a top-level chunk.
    Halt,
}

/// One compiled call site: the callee and the registers holding the
/// already-evaluated (or copied-in) actual arguments, in parameter order.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub routine: u32,
    pub args: Vec<Reg>,
    pub span: Span,
}

/// A folded-label `case` dispatch table. Arms are scanned in declaration
/// order (first match wins, like the tree-walker); `default` is the else
/// arm, or the end of the statement for the lenient unmatched case.
#[derive(Clone, Debug)]
pub struct CaseTable {
    pub arms: Vec<(Vec<i64>, u32)>,
    pub default: u32,
}

/// A compiled instruction stream plus its pools and window sizes.
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    pub code: Vec<Op>,
    /// Interned constant pool (also holds `new` default-value templates).
    pub consts: Vec<Value>,
    pub calls: Vec<CallSite>,
    pub cases: Vec<CaseTable>,
    /// Value registers this chunk needs.
    pub n_regs: u32,
    /// Place registers this chunk needs.
    pub n_places: u32,
    /// For guard chunks: the register holding the final value at `Halt`.
    pub result: Option<Reg>,
}

/// A routine compiled to bytecode.
#[derive(Clone, Debug)]
pub struct RoutineCode {
    pub chunk: usize,
    /// Default frame (one value per slot), cloned per call before copy-in.
    pub frame_template: Vec<Value>,
    pub result_slot: Option<usize>,
}

/// A guard of one of the trivial shapes that dominate large transition
/// tables (`provided v = k` style clauses, boolean flags, constants).
/// Read off the guard expression, with any operand over an `any`
/// family's bindings evaluated for the instance's row. *Generate*
/// evaluates these directly against the globals, through the scalar
/// layer the VM's ops use: no VM loop entry, no frame, no register
/// window.
#[derive(Clone, Debug)]
pub enum QuickGuard {
    /// The whole clause constant-folded (`provided true`, `2 < 3`, …).
    Const(Value),
    /// A lone global read, e.g. `provided ackpend`.
    Global { slot: u32 },
    /// `global <op> const` (or `const <op> global` when `swapped`).
    GlobalOpConst {
        slot: u32,
        op: BinOp,
        k: Value,
        swapped: bool,
        span: Span,
    },
}

/// A compiled transition's `provided` guard: its family's one chunk plus
/// the VM-free forms its binding row allows.
#[derive(Clone, Debug)]
pub struct GuardCode {
    /// The family's guard chunk, lowered once and shared by every
    /// instance; the bindings are read from the frame.
    pub chunk: usize,
    /// VM-free evaluation for trivial shapes; `None` runs the VM.
    pub quick: Option<QuickGuard>,
    /// Guards containing routine calls may have side effects and are
    /// evaluated against a scratch state copy, exactly as in interp mode.
    pub has_calls: bool,
    /// Whether *Generate* must build the instance's frame: the guard is
    /// not quick and its chunk touches the frame (`ReadL` / `PlaceL`).
    /// Otherwise it skips building the frame entirely.
    pub needs_frame: bool,
}

/// One candidate in a [`DispatchIndex`] bucket: the transition plus its
/// denormalized `when` clause, so the generate loop never touches the cold
/// declaration record while filtering.
#[derive(Clone, Copy, Debug)]
pub struct DispatchEntry {
    pub trans: u32,
    /// `None` = spontaneous; `Some((ip, interaction, nparams))` otherwise.
    pub when: Option<(u32, u32, u32)>,
}

/// Transitions bucketed by from-control-state, each bucket with the plan
/// *Generate* follows through it.
///
/// Invariants (asserted by `tests/compiled_exec.rs` against the linear
/// scan):
/// 1. bucket `s` contains exactly the transitions with `s ∈ from`, in
///    declaration (compiled-index) order — so the fireable list built from
///    a bucket is element-for-element identical to the linear scan's;
/// 2. a transition with `k` source states appears in exactly `k` buckets;
/// 3. `when` sub-bucketing is by denormalized interaction key on the
///    entry: all entries sharing an IP compare against one cached queue
///    head per generate call instead of re-querying the environment;
/// 4. bucket `s`'s plan covers its entries exactly once, in order, and a
///    [`PlanStep::Switch`] spans only instances of one declaration.
#[derive(Clone, Debug, Default)]
pub struct DispatchIndex {
    pub by_state: Vec<Vec<DispatchEntry>>,
    /// Per bucket: consecutive steps over its entries. A non-empty bucket
    /// without equality runs has the one step `Scan(0..len)`.
    pub plans: Vec<Vec<PlanStep>>,
}

/// One step of a bucket's plan, over a range of the bucket's entries.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// Test each entry in the range in order.
    Scan { start: u32, end: u32 },
    /// An equality run: test one entry found by key instead of all.
    Switch(EqualityRun),
}

/// Two or more consecutive bucket entries that are instances of one
/// declaration (an `any` family, so they share one `when` clause), each
/// guarded by exactly the quick compare `global[slot] = k`, with distinct
/// `Int` or `Enum` keys `k`.
/// At most one instance can be enabled, and only the one whose key equals
/// the slot's value: *Generate* reads the slot once and looks that
/// instance up. A slot holding anything other than a key-typed value
/// (`Undefined` above all, which enables every instance under the
/// propagating policy) falls back to testing each entry.
#[derive(Clone, Debug)]
pub struct EqualityRun {
    pub start: u32,
    pub end: u32,
    pub slot: u32,
    /// `None` for `Int` keys, the enum type for `Enum` keys.
    pub enum_type: Option<TypeId>,
    /// `(key, offset into the run)`, sorted by key.
    pub keys: Vec<(i64, u32)>,
}

impl EqualityRun {
    /// The offset into the run of the instance `value` can enable:
    /// `Some(Some(i))` for instance `i`, `Some(None)` when no key matches,
    /// `None` when `value` is not key-typed and each entry must be tested.
    pub(crate) fn lookup(&self, value: &Value) -> Option<Option<usize>> {
        let key = match (value, self.enum_type) {
            (Value::Int(x), None) => *x,
            (Value::Enum(t, x), Some(rt)) if *t == rt => *x,
            _ => return None,
        };
        Some(
            self.keys
                .binary_search_by_key(&key, |&(k, _)| k)
                .ok()
                .map(|i| self.keys[i].1 as usize),
        )
    }
}

/// The equality run of a family whose every instance is guarded by
/// exactly the quick compare `global[slot] = k`, with distinct `Int` or
/// `Enum` keys: for the `global = binding` shape, the keys are the
/// family's binding column. It spans rows `0..rows`; each bucket the
/// family is in places it at the family's entries.
fn family_run(codes: &[Option<GuardCode>]) -> Option<EqualityRun> {
    if codes.len() < 2 {
        return None;
    }
    let mut group = None;
    let mut keys = Vec::with_capacity(codes.len());
    for (code, row) in codes.iter().zip(0..) {
        let Some(QuickGuard::GlobalOpConst {
            slot,
            op: BinOp::Eq,
            k,
            ..
        }) = &code.as_ref()?.quick
        else {
            return None;
        };
        let (ty, key) = match k {
            Value::Int(x) => (None, *x),
            Value::Enum(t, x) => (Some(*t), *x),
            _ => return None,
        };
        if *group.get_or_insert((*slot, ty)) != (*slot, ty) {
            return None;
        }
        keys.push((key, row));
    }
    keys.sort_unstable();
    if keys.windows(2).any(|w| w[0].0 == w[1].0) {
        return None;
    }
    let (slot, enum_type) = group?;
    Some(EqualityRun {
        start: 0,
        end: codes.len() as u32,
        slot,
        enum_type,
        keys,
    })
}

impl DispatchIndex {
    /// Bucket every family's instances under each of its source states,
    /// in compiled order; a family with an equality run is one switch.
    fn build(module: &CompiledModule, runs: &[Option<EqualityRun>]) -> DispatchIndex {
        let n_states = module.analyzed.states.len();
        let mut by_state: Vec<Vec<DispatchEntry>> = vec![Vec::new(); n_states];
        let mut plans: Vec<Vec<PlanStep>> = vec![Vec::new(); n_states];
        for (family, run) in module.families.iter().zip(runs) {
            let when = family
                .when
                .map(|(ip, interaction, nparams)| (ip as u32, interaction as u32, nparams as u32));
            for sid in &family.from {
                let s = sid.0 as usize;
                if s >= n_states {
                    continue;
                }
                let bucket = &mut by_state[s];
                let start = bucket.len() as u32;
                bucket.extend((family.first..family.first + family.rows).map(|i| {
                    DispatchEntry {
                        trans: i as u32,
                        when,
                    }
                }));
                let end = bucket.len() as u32;
                let plan = &mut plans[s];
                match run {
                    Some(run) => plan.push(PlanStep::Switch(EqualityRun {
                        start,
                        end,
                        ..run.clone()
                    })),
                    None => match plan.last_mut() {
                        Some(PlanStep::Scan { end: last, .. }) => *last = end,
                        _ => plan.push(PlanStep::Scan { start, end }),
                    },
                }
            }
        }
        DispatchIndex { by_state, plans }
    }

    /// Candidates for a control state and the plan through them (both
    /// empty for out-of-range states).
    pub fn candidates(&self, control: StateId) -> (&[DispatchEntry], &[PlanStep]) {
        let s = control.0 as usize;
        match (self.by_state.get(s), self.plans.get(s)) {
            (Some(entries), Some(plan)) => (entries, plan),
            _ => (&[], &[]),
        }
    }
}

/// Everything the compiled execution mode needs, built once per machine
/// and shared by all policy/exec views.
#[derive(Clone, Debug, Default)]
pub struct ExecProgram {
    pub chunks: Vec<Chunk>,
    pub routines: Vec<RoutineCode>,
    /// Chunk of the `initialize` block.
    pub init: usize,
    /// Per transition: the compiled guard, if any, derived from its
    /// family's one guard lowering and its binding row.
    pub guards: Vec<Option<GuardCode>>,
    /// Per transition: its family's action-block chunk.
    pub bodies: Vec<usize>,
    pub dispatch: DispatchIndex,
}

/// Lower a compiled module to bytecode and build the dispatch index.
pub fn compile_program(module: &CompiledModule) -> ExecProgram {
    let mut chunks = Vec::new();

    let routines = module
        .routines
        .iter()
        .map(|r| {
            let mut c = FnCompiler::new(module);
            c.block(&r.body);
            c.emit(Op::Ret);
            let chunk = push_chunk(&mut chunks, c.finish(None));
            RoutineCode {
                chunk,
                frame_template: r
                    .slot_types
                    .iter()
                    .map(|t| default_value(&module.analyzed.types, *t))
                    .collect(),
                result_slot: r.result_slot,
            }
        })
        .collect();

    let init = {
        let mut c = FnCompiler::new(module);
        c.block(&module.init_block);
        c.emit(Op::Halt);
        push_chunk(&mut chunks, c.finish(None))
    };

    // Each family is lowered once: one body chunk, one guard chunk, and
    // per instance only what its binding row changes.
    let mut guards = Vec::with_capacity(module.transitions.len());
    let mut bodies = Vec::with_capacity(module.transitions.len());
    let mut runs = Vec::with_capacity(module.families.len());
    for family in &module.families {
        let body = {
            let mut c = FnCompiler::new(module);
            c.block(&family.body);
            c.emit(Op::Halt);
            push_chunk(&mut chunks, c.finish(None))
        };
        bodies.extend(std::iter::repeat_n(body, family.rows));
        let first = guards.len();
        match &family.provided {
            Some(g) => {
                let lowered = FamilyGuard::lower(module, family, g, &mut chunks);
                guards.extend((0..family.rows).map(|row| Some(lowered.instance(row))));
            }
            None => guards.extend(std::iter::repeat_n(None, family.rows)),
        }
        runs.push(family_run(&guards[first..]));
    }

    let dispatch = DispatchIndex::build(module, &runs);
    ExecProgram {
        chunks,
        routines,
        init,
        guards,
        bodies,
        dispatch,
    }
}

fn push_chunk(chunks: &mut Vec<Chunk>, chunk: Chunk) -> usize {
    chunks.push(chunk);
    chunks.len() - 1
}

/// A family's `provided` clause, lowered once. Every instance shares the
/// chunk; its quick form follows from the guard's shape and the
/// instance's binding row.
struct FamilyGuard<'a> {
    module: &'a CompiledModule,
    family: &'a TransitionFamily,
    chunk: usize,
    has_calls: bool,
    /// Whether the chunk touches the frame.
    reads_frame: bool,
    /// The guard as one quick term over the bindings; `None` when each
    /// instance runs the chunk on its frame.
    term: Option<Term<'a>>,
}

/// A [`QuickGuard`] whose constants are expressions over the bindings,
/// evaluated per row.
enum Term<'a> {
    Const(&'a CExpr),
    Global(u32),
    Compare {
        slot: u32,
        op: BinOp,
        k: &'a CExpr,
        swapped: bool,
        span: Span,
    },
}

impl<'a> FamilyGuard<'a> {
    fn lower(
        module: &'a CompiledModule,
        family: &'a TransitionFamily,
        g: &'a CExpr,
        chunks: &mut Vec<Chunk>,
    ) -> Self {
        let has_calls = crate::interp::expr_has_calls(g);
        let mut c = FnCompiler::new(module);
        let r = c.expr(g);
        c.emit(Op::Halt);
        let chunk = c.finish(Some(r));
        let reads_frame = chunk
            .code
            .iter()
            .any(|op| matches!(op, Op::ReadL { .. } | Op::PlaceL { .. }));
        FamilyGuard {
            module,
            family,
            chunk: push_chunk(chunks, chunk),
            has_calls,
            reads_frame,
            // A term holds no call, so a guard with calls runs its chunk.
            term: term(g, family.arity),
        }
    }

    /// The guard of the family's instance `row`.
    fn instance(&self, row: usize) -> GuardCode {
        let binding = self.family.binding(row);
        let quick = self.term.as_ref().and_then(|t| self.quick(t, binding));
        GuardCode {
            chunk: self.chunk,
            needs_frame: quick.is_none() && self.reads_frame,
            quick,
            has_calls: self.has_calls,
        }
    }

    /// A term for one binding row; `None` when an operand fails to
    /// evaluate, which leaves the error to the chunk at run time.
    fn quick(&self, t: &Term<'_>, binding: &[i64]) -> Option<QuickGuard> {
        Some(match t {
            Term::Const(e) => QuickGuard::Const(self.value(e, binding)?),
            Term::Global(slot) => QuickGuard::Global { slot: *slot },
            Term::Compare {
                slot,
                op,
                k,
                swapped,
                span,
            } => QuickGuard::GlobalOpConst {
                slot: *slot,
                op: *op,
                k: self.value(k, binding)?,
                swapped: *swapped,
                span: *span,
            },
        })
    }

    /// Evaluate an expression over the bindings for one row.
    fn value(&self, e: &CExpr, binding: &[i64]) -> Option<Value> {
        let types = &self.module.analyzed.types;
        let bound = |i: usize| {
            crate::machine::ordinal_to_value(types, self.family.slot_types[i], binding[i])
        };
        match e {
            CExpr::Const(v) => Some(v.clone()),
            CExpr::Read(Slot::Local(i)) => Some(bound(*i)),
            _ => {
                let mut frame = (0..binding.len()).map(bound).collect();
                crate::interp::eval_in_frame(self.module, e, &mut frame).ok()
            }
        }
    }
}

/// True if `e` reads nothing but constants and the first `arity` frame
/// slots, so its value is fixed per binding row.
fn over_bindings(e: &CExpr, arity: usize) -> bool {
    match e {
        CExpr::Const(_) => true,
        CExpr::Read(Slot::Local(i)) => *i < arity,
        CExpr::Unary(_, x, _) => over_bindings(x, arity),
        CExpr::Binary(_, a, b, _) => over_bindings(a, arity) && over_bindings(b, arity),
        _ => false,
    }
}

/// A quick term: an expression over the bindings, a bare global read, or
/// `global <op> e` / `e <op> global` with `e` over the bindings and `op`
/// not `and`/`or`.
fn term(e: &CExpr, arity: usize) -> Option<Term<'_>> {
    if over_bindings(e, arity) {
        return Some(Term::Const(e));
    }
    let global = |x: &CExpr| match x {
        CExpr::Read(Slot::Global(g)) => Some(*g as u32),
        _ => None,
    };
    match e {
        CExpr::Read(Slot::Global(g)) => Some(Term::Global(*g as u32)),
        CExpr::Binary(op, l, r, span) if !matches!(op, BinOp::And | BinOp::Or) => {
            let (slot, k, swapped) = match (global(l), global(r)) {
                (Some(slot), _) if over_bindings(r, arity) => (slot, &**r, false),
                (_, Some(slot)) if over_bindings(l, arity) => (slot, &**l, true),
                _ => return None,
            };
            Some(Term::Compare {
                slot,
                op: *op,
                k,
                swapped,
                span: *span,
            })
        }
        _ => None,
    }
}

/// Single-chunk compiler: a stack-discipline register allocator over a
/// growing instruction vector. Registers are allocated monotonically and
/// freed in blocks by restoring a watermark, so a chunk's window is the
/// high-water mark of one statement's temporaries (loop-pinned counters
/// stay live across their body by sitting below the body's watermark).
struct FnCompiler<'m> {
    module: &'m CompiledModule,
    code: Vec<Op>,
    consts: Vec<Value>,
    calls: Vec<CallSite>,
    cases: Vec<CaseTable>,
    next_reg: u32,
    max_reg: u32,
    next_place: u32,
    max_place: u32,
}

impl<'m> FnCompiler<'m> {
    fn new(module: &'m CompiledModule) -> Self {
        FnCompiler {
            module,
            code: Vec::new(),
            consts: Vec::new(),
            calls: Vec::new(),
            cases: Vec::new(),
            next_reg: 0,
            max_reg: 0,
            next_place: 0,
            max_place: 0,
        }
    }

    fn finish(self, result: Option<Reg>) -> Chunk {
        Chunk {
            code: self.code,
            consts: self.consts,
            calls: self.calls,
            cases: self.cases,
            n_regs: self.max_reg,
            n_places: self.max_place,
            result,
        }
    }

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn emit(&mut self, op: Op) -> u32 {
        self.code.push(op);
        self.code.len() as u32 - 1
    }

    /// Patch the jump target of a previously emitted branching op.
    fn patch(&mut self, at: u32, to: u32) {
        match &mut self.code[at as usize] {
            Op::Jump { target }
            | Op::BranchBool { target, .. }
            | Op::LogicShort { target, .. } => *target = to,
            Op::ForCheck { exit, .. } => *exit = to,
            other => unreachable!("patching non-branch op {:?}", other),
        }
    }

    fn rtmp(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn ptmp(&mut self) -> Reg {
        let p = self.next_place;
        self.next_place += 1;
        self.max_place = self.max_place.max(self.next_place);
        p
    }

    /// Intern a constant (linear scan: pools are small and build once).
    fn kconst(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| *c == v) {
            return i as u32;
        }
        self.consts.push(v);
        self.consts.len() as u32 - 1
    }

    /// Compile-time constant folding: reduce an operator node whose
    /// operands are already constants, but only when the checked
    /// evaluation succeeds — a folding failure (overflow, div-by-zero)
    /// must stay a runtime error on the exact op that raises it.
    fn try_fold(&self, e: &CExpr) -> Option<Value> {
        let reducible = match e {
            CExpr::Unary(_, x, _) => matches!(**x, CExpr::Const(_)),
            CExpr::Binary(_, l, r, _) => {
                matches!(**l, CExpr::Const(_)) && matches!(**r, CExpr::Const(_))
            }
            _ => false,
        };
        if !reducible {
            return None;
        }
        eval_const_expr(self.module, e).ok()
    }

    /// Compile an expression into a fresh register (left allocated for the
    /// caller to consume and free).
    fn expr(&mut self, e: &CExpr) -> Reg {
        let dst = self.rtmp();
        self.expr_into(e, dst);
        dst
    }

    /// Compile an expression into `dst`; every temporary above the entry
    /// watermark is freed on exit. The emitted sequence preserves the
    /// tree-walker's evaluation order exactly.
    fn expr_into(&mut self, e: &CExpr, dst: Reg) {
        let mark = self.next_reg;
        if let Some(v) = self.try_fold(e) {
            let k = self.kconst(v);
            self.emit(Op::Const { dst, k });
            self.next_reg = mark;
            return;
        }
        match e {
            CExpr::Const(v) => {
                let k = self.kconst(v.clone());
                self.emit(Op::Const { dst, k });
            }
            CExpr::Read(Slot::Global(i)) => {
                self.emit(Op::ReadG {
                    dst,
                    slot: *i as u32,
                });
            }
            CExpr::Read(Slot::Local(i)) => {
                self.emit(Op::ReadL {
                    dst,
                    slot: *i as u32,
                });
            }
            CExpr::Field(base, pos) => {
                let pos = *pos as u32;
                match &**base {
                    CExpr::Deref(ptr) => {
                        let src = self.expr(ptr);
                        self.emit(Op::DerefField { dst, src, pos });
                    }
                    CExpr::Read(Slot::Global(slot)) => {
                        let slot = *slot as u32;
                        self.emit(Op::GlobalField { dst, slot, pos });
                    }
                    _ => {
                        let src = self.expr(base);
                        self.emit(Op::Field { dst, src, pos });
                    }
                }
            }
            CExpr::Index {
                base,
                index,
                lo,
                len,
            } => {
                let (lo, len) = (*lo, *len as u32);
                // A call in the index could write the global: the base is
                // read before the index then, as the tree walker does.
                match &**base {
                    CExpr::Read(Slot::Global(slot)) if !crate::interp::expr_has_calls(index) => {
                        let idx = self.expr(index);
                        let slot = *slot as u32;
                        self.emit(Op::GlobalIndex {
                            dst,
                            slot,
                            idx,
                            lo,
                            len,
                        });
                    }
                    _ => {
                        let b = self.expr(base);
                        let idx = self.expr(index);
                        self.emit(Op::Index {
                            dst,
                            base: b,
                            idx,
                            lo,
                            len,
                        });
                    }
                }
            }
            CExpr::Deref(base) => {
                let src = self.expr(base);
                self.emit(Op::Deref { dst, src });
            }
            CExpr::Unary(op, x, span) => {
                let src = self.expr(x);
                self.emit(Op::Unary {
                    dst,
                    src,
                    op: *op,
                    span: *span,
                });
            }
            CExpr::Binary(op, l, r, span) if matches!(op, BinOp::And | BinOp::Or) => {
                let and = *op == BinOp::And;
                let a = self.expr(l);
                let short = self.emit(Op::LogicShort {
                    dst,
                    src: a,
                    and,
                    span: *span,
                    target: 0,
                });
                let b = self.expr(r);
                self.emit(Op::LogicJoin {
                    dst,
                    a,
                    b,
                    and,
                    span: *span,
                });
                let end = self.pc();
                self.patch(short, end);
            }
            CExpr::Binary(op, l, r, span) => {
                let a = self.expr(l);
                let b = self.expr(r);
                self.emit(Op::Binary {
                    dst,
                    a,
                    b,
                    op: *op,
                    span: *span,
                });
            }
            CExpr::Call(call) => {
                self.call(call, Some(dst));
            }
            CExpr::SetCtor(elems, span) => {
                self.emit(Op::SetNew { dst });
                for el in elems {
                    let emark = self.next_reg;
                    match el {
                        CSetElem::Single(x) => {
                            let r = self.expr(x);
                            self.emit(Op::SetInsert {
                                set: dst,
                                src: r,
                                span: *span,
                            });
                        }
                        CSetElem::Range(a, b) => {
                            let ra = self.expr(a);
                            let rb = self.expr(b);
                            self.emit(Op::SetRange {
                                set: dst,
                                a: ra,
                                b: rb,
                                span: *span,
                            });
                        }
                    }
                    self.next_reg = emark;
                }
            }
        }
        self.next_reg = mark;
    }

    /// Compile a place to a place register. Base place first, then index
    /// expressions in source order — the tree-walker's resolution order.
    fn place(&mut self, p: &CPlace) -> Reg {
        match p {
            CPlace::Var(Slot::Global(i)) => {
                let pr = self.ptmp();
                self.emit(Op::PlaceG {
                    p: pr,
                    slot: *i as u32,
                });
                pr
            }
            CPlace::Var(Slot::Local(i)) => {
                let pr = self.ptmp();
                self.emit(Op::PlaceL {
                    p: pr,
                    slot: *i as u32,
                });
                pr
            }
            CPlace::Field(base, pos) => {
                let pr = self.place(base);
                self.emit(Op::PlaceField {
                    p: pr,
                    pos: *pos as u32,
                });
                pr
            }
            CPlace::Index {
                base,
                index,
                lo,
                len,
                span,
            } => {
                let pr = self.place(base);
                let mark = self.next_reg;
                let idx = self.expr(index);
                self.emit(Op::PlaceIndex {
                    p: pr,
                    idx,
                    lo: *lo,
                    len: *len as u32,
                    span: *span,
                });
                self.next_reg = mark;
                pr
            }
            CPlace::Deref(base, span) => {
                let pr = self.place(base);
                self.emit(Op::PlaceDeref { p: pr, span: *span });
                pr
            }
        }
    }

    /// Compile a call: arguments evaluate left-to-right into registers
    /// (ref args resolve their place and capture the copy-in value at that
    /// moment, like the tree-walker); after `Call` returns, each `var`
    /// parameter's place is *re*-resolved — re-running index side effects —
    /// before `CopyOut`, then the optional function result is taken and
    /// the parked frame dropped.
    fn call(&mut self, c: &CCall, result: Option<Reg>) {
        let rmark = self.next_reg;
        let mut args = Vec::with_capacity(c.args.len());
        for arg in &c.args {
            match arg {
                CArg::Value(e) => args.push(self.expr(e)),
                CArg::Ref(place) => {
                    let pmark = self.next_place;
                    let p = self.place(place);
                    let r = self.rtmp();
                    self.emit(Op::ReadPlace { dst: r, p });
                    self.next_place = pmark;
                    args.push(r);
                }
            }
        }
        let site = self.calls.len() as u32;
        self.calls.push(CallSite {
            routine: c.routine as u32,
            args,
            span: c.span,
        });
        self.emit(Op::Call { site });
        // The argument registers are consumed when `Call` executes; the
        // copy-out resolution below may reuse them.
        self.next_reg = rmark;
        for (i, arg) in c.args.iter().enumerate() {
            if let CArg::Ref(place) = arg {
                let pmark = self.next_place;
                let p = self.place(place);
                self.emit(Op::CopyOut { p, slot: i as u32 });
                self.next_place = pmark;
            }
        }
        if let Some(dst) = result {
            self.emit(Op::TakeResult { dst });
        }
        self.emit(Op::DropRet);
    }

    fn block(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &CStmt) {
        let rmark = self.next_reg;
        let pmark = self.next_place;
        match s {
            CStmt::Assign(place, value, _) => {
                // Value before place, as in the tree-walker.
                let rv = self.expr(value);
                let p = self.place(place);
                self.emit(Op::WritePlace { p, src: rv });
            }
            CStmt::If(cond, then_b, else_b, span) => {
                let rc = self.expr(cond);
                let br = self.emit(Op::BranchBool {
                    src: rc,
                    jump_if: false,
                    target: 0,
                    span: *span,
                });
                self.next_reg = rmark;
                self.block(then_b);
                if else_b.is_empty() {
                    let end = self.pc();
                    self.patch(br, end);
                } else {
                    let j = self.emit(Op::Jump { target: 0 });
                    let else_pc = self.pc();
                    self.patch(br, else_pc);
                    self.block(else_b);
                    let end = self.pc();
                    self.patch(j, end);
                }
            }
            CStmt::While(cond, body, span) => {
                let counter = self.rtmp();
                let k0 = self.kconst(Value::Int(0));
                self.emit(Op::Const { dst: counter, k: k0 });
                let head = self.pc();
                let rc = self.expr(cond);
                let br = self.emit(Op::BranchBool {
                    src: rc,
                    jump_if: false,
                    target: 0,
                    span: *span,
                });
                self.next_reg = counter + 1;
                self.block(body);
                self.emit(Op::IncCheck {
                    counter,
                    kind: LoopKind::While,
                    span: *span,
                });
                self.emit(Op::Jump { target: head });
                let end = self.pc();
                self.patch(br, end);
            }
            CStmt::Repeat(body, cond, span) => {
                let counter = self.rtmp();
                let k0 = self.kconst(Value::Int(0));
                self.emit(Op::Const { dst: counter, k: k0 });
                let head = self.pc();
                self.block(body);
                let rc = self.expr(cond);
                let br = self.emit(Op::BranchBool {
                    src: rc,
                    jump_if: true,
                    target: 0,
                    span: *span,
                });
                self.next_reg = counter + 1;
                self.emit(Op::IncCheck {
                    counter,
                    kind: LoopKind::Repeat,
                    span: *span,
                });
                self.emit(Op::Jump { target: head });
                let end = self.pc();
                self.patch(br, end);
            }
            CStmt::For {
                var,
                from,
                down,
                to,
                body,
                span,
            } => {
                let rf = self.expr(from);
                let rt = self.expr(to);
                let i = self.rtmp();
                let limit = self.rtmp();
                let template = self.rtmp();
                let counter = self.rtmp();
                self.emit(Op::ForPrep {
                    from: rf,
                    to: rt,
                    i,
                    limit,
                    template,
                    span: *span,
                });
                let k0 = self.kconst(Value::Int(0));
                self.emit(Op::Const { dst: counter, k: k0 });
                let head = self.pc();
                let chk = self.emit(Op::ForCheck {
                    i,
                    limit,
                    down: *down,
                    exit: 0,
                });
                let body_floor = self.next_reg;
                let rv = self.rtmp();
                self.emit(Op::ForMake {
                    dst: rv,
                    i,
                    template,
                });
                let p = self.place(var);
                self.emit(Op::WritePlace { p, src: rv });
                self.next_reg = body_floor;
                self.next_place = pmark;
                self.block(body);
                self.emit(Op::IncCheck {
                    counter,
                    kind: LoopKind::For,
                    span: *span,
                });
                self.emit(Op::ForStep { i, down: *down });
                self.emit(Op::Jump { target: head });
                let end = self.pc();
                self.patch(chk, end);
            }
            CStmt::Case {
                scrutinee,
                arms,
                else_arm,
                span,
            } => {
                let rs = self.expr(scrutinee);
                let table = self.cases.len() as u32;
                self.cases.push(CaseTable {
                    arms: Vec::new(),
                    default: 0,
                });
                self.emit(Op::Case {
                    src: rs,
                    table,
                    span: *span,
                });
                self.next_reg = rmark;
                let mut arm_entries = Vec::with_capacity(arms.len());
                let mut ends = Vec::new();
                for (labels, body) in arms {
                    arm_entries.push((labels.clone(), self.pc()));
                    self.block(body);
                    ends.push(self.emit(Op::Jump { target: 0 }));
                }
                let default = self.pc();
                if let Some(body) = else_arm {
                    self.block(body);
                }
                let end = self.pc();
                for j in ends {
                    self.patch(j, end);
                }
                self.cases[table as usize] = CaseTable {
                    arms: arm_entries,
                    default,
                };
            }
            CStmt::Output {
                ip,
                interaction,
                args,
                span,
            } => {
                let first = self.next_reg;
                for _ in args {
                    self.rtmp();
                }
                for (i, a) in args.iter().enumerate() {
                    let dst = first + i as u32;
                    self.expr_into(a, dst);
                    // Interleaved with evaluation, as in the tree-walker:
                    // arg i is checked before arg i+1 evaluates.
                    self.emit(Op::CheckDef {
                        src: dst,
                        span: *span,
                    });
                }
                self.emit(Op::Output {
                    ip: *ip as u32,
                    interaction: *interaction as u32,
                    first,
                    n: args.len() as u32,
                    span: *span,
                });
            }
            CStmt::Call(call) => {
                self.call(call, None);
            }
            CStmt::New(place, pointee, _) => {
                let template = default_value(&self.module.analyzed.types, *pointee);
                let k = self.kconst(template);
                let rv = self.rtmp();
                self.emit(Op::Alloc {
                    dst: rv,
                    template: k,
                });
                let p = self.place(place);
                self.emit(Op::WritePlace { p, src: rv });
            }
            CStmt::Dispose(place, span) => {
                let p = self.place(place);
                let rv = self.rtmp();
                self.emit(Op::ReadPlace { dst: rv, p });
                self.emit(Op::Dispose {
                    src: rv,
                    span: *span,
                });
            }
        }
        self.next_reg = rmark;
        self.next_place = pmark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn dispatch_index_buckets_preserve_declaration_order() {
        let m = Machine::from_source(
            r#"
            specification d;
            module M process; end;
            body MB for M;
                var n : integer;
                state A, B;
                initialize to A begin n := 0 end;
                trans
                from A to B name T1: begin n := 1 end;
                from B to A name T2: begin n := 2 end;
                from A, B to same name T3: begin n := 3 end;
            end;
            end.
        "#,
        )
        .unwrap();
        let idx = &m.program.dispatch;
        let order = |s: usize| -> Vec<u32> {
            idx.by_state[s].iter().map(|e| e.trans).collect()
        };
        assert_eq!(order(0), vec![0, 2], "state A: T1 then T3");
        assert_eq!(order(1), vec![1, 2], "state B: T2 then T3");
        let entries: usize = idx.by_state.iter().map(Vec::len).sum();
        assert_eq!(entries, 4, "multi-source T3 appears in both buckets");
    }

    #[test]
    fn guard_chunks_record_call_flag() {
        let m = Machine::from_source(
            r#"
            specification g;
            module M process; end;
            body MB for M;
                var n : integer;
                state S;
                function pos(x : integer) : boolean; begin pos := x > 0 end;
                initialize to S begin n := 1 end;
                trans
                from S to S provided n > 0 name Plain: begin n := n end;
                from S to S provided pos(n) name Calls: begin n := n end;
            end;
            end.
        "#,
        )
        .unwrap();
        let g = &m.program.guards;
        assert!(!g[0].as_ref().unwrap().has_calls);
        assert!(g[1].as_ref().unwrap().has_calls);
    }

    #[test]
    fn chunks_are_flat_and_sized() {
        let m = Machine::from_source(
            r#"
            specification c;
            module M process; end;
            body MB for M;
                var a, b : integer;
                state S;
                initialize to S begin a := 0; b := 0 end;
                trans
                from S to S provided (a + 1) * 2 > b name T: begin
                    b := b + (3 * 4);
                end;
            end;
            end.
        "#,
        )
        .unwrap();
        let code_len: usize = m.program.chunks.iter().map(|c| c.code.len()).sum();
        assert!(code_len > 0);
        for c in &m.program.chunks {
            assert!(c.n_regs <= 16, "tiny spec should need few registers");
        }
        // `3 * 4` folds to one interned constant.
        let body = &m.program.chunks[m.program.bodies[0]];
        assert!(
            body.consts.contains(&Value::Int(12)),
            "constant folding interned 12: {:?}",
            body.consts
        );
    }

    #[test]
    fn any_bindings_fold_into_frameless_quick_guards() {
        let m = Machine::from_source(
            r#"
            specification q;
            module M process; end;
            body MB for M;
                var n : integer; flag : boolean;
                state S;
                function pos(x : integer) : boolean; begin pos := x > 0 end;
                initialize to S begin n := 0; flag := false end;
                trans
                from S to S any k : 3..5 do provided n = k name Pad:
                    begin n := 0 end;
                from S to S provided flag name Flag: begin n := 1 end;
                from S to S provided true name Always: begin n := 2 end;
                from S to S provided pos(n) name Calls: begin n := 3 end;
                from S to S provided n > 5 name Above: begin n := 4 end;
            end;
            end.
        "#,
        )
        .unwrap();
        let g = |i: usize| m.program.guards[i].as_ref().unwrap();
        // The `any` instances: `n = k` with each instance's binding as
        // the constant of a VM-free global/const compare, which needs no
        // frame; the three share their family's one guard chunk.
        for (i, want_k) in [(0i64, 3i64), (1, 4), (2, 5)] {
            let gc = g(i as usize);
            assert!(!gc.needs_frame, "instance {} reads no frame slots", i);
            match &gc.quick {
                Some(QuickGuard::GlobalOpConst { k, swapped, .. }) => {
                    assert_eq!(*k, Value::Int(want_k));
                    assert!(!swapped, "`n = k` reads the global first");
                }
                other => panic!("instance {}: expected quick compare, got {:?}", i, other),
            }
            assert_eq!(gc.chunk, g(0).chunk, "one guard lowering per family");
        }
        // A bare boolean global and a folded constant also go quick.
        assert!(matches!(g(3).quick, Some(QuickGuard::Global { .. })));
        assert!(matches!(
            g(4).quick,
            Some(QuickGuard::Const(Value::Bool(true)))
        ));
        // Guards with calls never take the fast path.
        assert!(g(5).quick.is_none());
        assert!(g(5).has_calls);
        // A plain `global > const` compare is quick too.
        match &g(6).quick {
            Some(QuickGuard::GlobalOpConst { op, k, swapped, .. }) => {
                assert_eq!(*op, BinOp::Gt);
                assert_eq!(*k, Value::Int(5));
                assert!(!swapped);
            }
            other => panic!("`n > 5`: expected quick compare, got {:?}", other),
        }
        assert!(!g(6).needs_frame);
    }

    #[test]
    fn chunk_guards_need_a_frame_only_when_they_read_one() {
        let m = Machine::from_source(
            r#"
            specification nf;
            channel C(env, m);
                by env: step(k : integer);
            end;
            module M process; ip P : C(m); end;
            body MB for M;
                var n, ns, vr : integer;
                state S;
                initialize to S begin n := 0; ns := 0; vr := 0 end;
                trans
                from S to S when P.step provided k > n name Param:
                    begin n := k end;
                from S to S any j : 0..3 do provided n + j > 2 name Mixed:
                    begin n := 0 end;
                from S to S provided ns = vr name Globals: begin ns := 1 end;
            end;
            end.
        "#,
        )
        .unwrap();
        let g = |i: usize| m.program.guards[i].as_ref().unwrap();
        // A `when`-parameter compare reads the parameter from the frame.
        assert!(g(0).quick.is_none());
        assert!(g(0).needs_frame, "`k > n` reads the when parameter");
        // An `any` binding beside a global is no quick term: every
        // instance runs the chunk, which reads the binding.
        for i in 1..=4 {
            assert!(g(i).quick.is_none(), "instance {}", i);
            assert!(g(i).needs_frame, "instance {} reads its binding", i);
        }
        // Two globals: the chunk runs, but on an empty frame.
        assert!(g(5).quick.is_none());
        assert!(!g(5).needs_frame, "`ns = vr` reads globals only");
    }
}
