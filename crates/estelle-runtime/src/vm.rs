//! The bytecode VM: a non-recursive register-machine loop over
//! [`crate::bytecode::Chunk`]s.
//!
//! One flat `loop { match op }` replaces the tree-walker's nested
//! recursion: Estelle routine calls push a [`CallRet`] onto an explicit
//! stack instead of a Rust frame, so call depth costs no native stack and
//! the whole execution of a guard, transition body or routine is a single
//! Rust frame. All policy-dependent semantics route through
//! [`crate::interp::scalar`] and all l-value navigation through
//! `interp::place` — shared with the tree-walker, which is what makes the
//! differential contract between the two executors (bit-identical values,
//! errors, and emission order) hold by construction rather than by testing
//! alone.
//!
//! Register and place-register windows live in a [`VmScratch`] that is
//! reused across runs via a thread-local ([`with_scratch`]); a machine
//! step performs no per-run allocation beyond the Estelle frame itself.

use crate::bytecode::{Chunk, ExecProgram, Op};
use crate::env::{OutputSink, QueueHead};
use crate::error::{RtResult, RuntimeError, RuntimeErrorKind};
use crate::interp::place::{read_resolved, write_resolved, ResolvedPlace, Root};
use crate::interp::{scalar, Limits, Store, UndefinedPolicy};
use crate::value::{SmallSet, Value};
use estelle_ast::{BinOp, Span};
use std::cell::RefCell;

/// A suspended caller, parked while its callee chunk runs.
struct CallRet {
    chunk: usize,
    pc: usize,
    reg_base: usize,
    place_base: usize,
    /// The caller's Estelle frame, swapped back in on `Ret`.
    locals: Vec<Value>,
    routine: u32,
}

/// A returned callee frame, parked between `Ret` and `DropRet` so the
/// caller can copy out `var` parameters and take the function result.
struct RetFrame {
    frame: Vec<Value>,
    routine: u32,
}

/// Reusable VM working memory: register and place windows for the whole
/// (Estelle) call stack, plus the per-generate queue-head cache.
#[derive(Default)]
pub struct VmScratch {
    regs: Vec<Value>,
    places: Vec<ResolvedPlace>,
    calls: Vec<CallRet>,
    rets: Vec<RetFrame>,
    /// Per-IP queue heads cached by the compiled *Generate* so every
    /// candidate sharing an IP compares against one environment query.
    pub(crate) heads: Vec<Option<QueueHead>>,
    /// The buffer of the last top-level frame, handed back by its run
    /// for the next frame a guard or a fire builds.
    pub(crate) frame: Vec<Value>,
}

thread_local! {
    static SCRATCH: RefCell<Option<Box<VmScratch>>> = RefCell::new(Some(Box::default()));
}

/// Run `f` with the thread's reusable scratch. Re-entrant calls (which the
/// machine never makes, but a nested test harness might) degrade to a
/// fresh allocation instead of aliasing.
pub fn with_scratch<R>(f: impl FnOnce(&mut VmScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut sc = cell.borrow_mut().take().unwrap_or_default();
        let r = f(&mut sc);
        *cell.borrow_mut() = Some(sc);
        r
    })
}

fn take(v: &mut Value) -> Value {
    std::mem::replace(v, Value::Undefined)
}

/// Global `slot` of the store.
fn global<'s>(store: &'s Store<'_>, slot: u32) -> RtResult<&'s Value> {
    store
        .globals
        .get(slot as usize)
        .ok_or_else(|| RuntimeError::internal("global slot out of range"))
}

/// The offset of index value `v` into an array of `len` elements from
/// `lo`, or the bounds error.
fn offset(policy: UndefinedPolicy, v: &Value, lo: i64, len: u32) -> RtResult<usize> {
    let ord = scalar::require_ordinal(policy, v, Span::DUMMY)?;
    let off = ord - lo;
    if off < 0 || off as usize >= len as usize {
        return Err(RuntimeError::bounds(format!(
            "index {} outside bounds {}..{}",
            ord,
            lo,
            lo + len as i64 - 1
        )));
    }
    Ok(off as usize)
}

fn non_array(v: &Value) -> RuntimeError {
    RuntimeError::internal(format!("indexing non-array {}", v))
}

fn blank_place() -> ResolvedPlace {
    ResolvedPlace {
        root: Root::Global(0),
        path: Vec::new(),
    }
}

/// One VM execution context over a compiled program.
pub struct Vm<'p> {
    pub program: &'p ExecProgram,
    pub policy: UndefinedPolicy,
    pub limits: Limits,
}

impl<'p> Vm<'p> {
    pub fn new(program: &'p ExecProgram, policy: UndefinedPolicy) -> Self {
        Vm {
            program,
            policy,
            limits: Limits::default(),
        }
    }

    /// Execute a top-level chunk (guard, transition body, or initialize)
    /// with the given Estelle frame. Returns the chunk's result value for
    /// guard chunks, `None` for statement chunks.
    pub fn run(
        &self,
        chunk_id: usize,
        locals: Vec<Value>,
        store: &mut Store<'_>,
        sink: &mut dyn OutputSink,
        s: &mut VmScratch,
    ) -> RtResult<Option<Value>> {
        s.calls.clear();
        s.rets.clear();

        let mut chunk: &Chunk = &self.program.chunks[chunk_id];
        let mut cur_chunk = chunk_id;
        let mut pc: usize = 0;
        let mut reg_base: usize = 0;
        let mut place_base: usize = 0;
        let mut locals = locals;

        if s.regs.len() < chunk.n_regs as usize {
            s.regs.resize(chunk.n_regs as usize, Value::Undefined);
        }
        if s.places.len() < chunk.n_places as usize {
            s.places.resize_with(chunk.n_places as usize, blank_place);
        }

        let policy = self.policy;
        loop {
            let op = &chunk.code[pc];
            pc += 1;
            match op {
                Op::Const { dst, k } => {
                    s.regs[reg_base + *dst as usize] = chunk.consts[*k as usize].clone();
                }
                Op::ReadG { dst, slot } => {
                    s.regs[reg_base + *dst as usize] = global(store, *slot)?.clone();
                }
                Op::ReadL { dst, slot } => {
                    s.regs[reg_base + *dst as usize] = locals
                        .get(*slot as usize)
                        .cloned()
                        .ok_or_else(|| RuntimeError::internal("frame slot out of range"))?;
                }
                Op::Field { dst, src, pos } => {
                    let b = take(&mut s.regs[reg_base + *src as usize]);
                    s.regs[reg_base + *dst as usize] = match b {
                        Value::Record(mut vs) => {
                            if (*pos as usize) < vs.len() {
                                vs.swap_remove(*pos as usize)
                            } else {
                                return Err(RuntimeError::internal(
                                    "field position out of range",
                                ));
                            }
                        }
                        Value::Undefined => Value::Undefined,
                        other => {
                            return Err(RuntimeError::internal(format!(
                                "field access on non-record {}",
                                other
                            )))
                        }
                    };
                }
                Op::Index {
                    dst,
                    base,
                    idx,
                    lo,
                    len,
                } => {
                    let off = offset(policy, &s.regs[reg_base + *idx as usize], *lo, *len)?;
                    let b = take(&mut s.regs[reg_base + *base as usize]);
                    s.regs[reg_base + *dst as usize] = match b {
                        Value::Array(mut vs) => vs.swap_remove(off),
                        Value::Undefined => Value::Undefined,
                        other => return Err(non_array(&other)),
                    };
                }
                Op::GlobalIndex {
                    dst,
                    slot,
                    idx,
                    lo,
                    len,
                } => {
                    let off = offset(policy, &s.regs[reg_base + *idx as usize], *lo, *len)?;
                    s.regs[reg_base + *dst as usize] = match global(store, *slot)? {
                        Value::Array(vs) => vs
                            .get(off)
                            .cloned()
                            .ok_or_else(|| RuntimeError::internal("array shorter than its type"))?,
                        Value::Undefined => Value::Undefined,
                        other => return Err(non_array(other)),
                    };
                }
                Op::GlobalField { dst, slot, pos } => {
                    s.regs[reg_base + *dst as usize] = match global(store, *slot)? {
                        Value::Record(vs) => vs
                            .get(*pos as usize)
                            .cloned()
                            .ok_or_else(|| RuntimeError::internal("field position out of range"))?,
                        Value::Undefined => Value::Undefined,
                        other => {
                            return Err(RuntimeError::internal(format!(
                                "field access on non-record {}",
                                other
                            )))
                        }
                    };
                }
                Op::Deref { dst, src } => {
                    let b = take(&mut s.regs[reg_base + *src as usize]);
                    s.regs[reg_base + *dst as usize] = match b {
                        Value::Pointer(Some(href)) => store.heap.get(href)?.clone(),
                        Value::Pointer(None) => {
                            return Err(RuntimeError::dangling("dereference of nil"))
                        }
                        Value::Undefined => scalar::undefined_or(
                            policy,
                            "dereference of an undefined pointer",
                            RuntimeErrorKind::UndefinedValue,
                        )?,
                        other => {
                            return Err(RuntimeError::internal(format!(
                                "dereference of non-pointer {}",
                                other
                            )))
                        }
                    };
                }
                Op::DerefField { dst, src, pos } => {
                    let b = take(&mut s.regs[reg_base + *src as usize]);
                    s.regs[reg_base + *dst as usize] = match b {
                        Value::Pointer(Some(href)) => match store.heap.get(href)? {
                            Value::Record(vs) => {
                                vs.get(*pos as usize).cloned().ok_or_else(|| {
                                    RuntimeError::internal("field position out of range")
                                })?
                            }
                            Value::Undefined => Value::Undefined,
                            other => {
                                return Err(RuntimeError::internal(format!(
                                    "field access on non-record {}",
                                    other
                                )))
                            }
                        },
                        Value::Pointer(None) => {
                            return Err(RuntimeError::dangling("dereference of nil"))
                        }
                        Value::Undefined => scalar::undefined_or(
                            policy,
                            "dereference of an undefined pointer",
                            RuntimeErrorKind::UndefinedValue,
                        )?,
                        other => {
                            return Err(RuntimeError::internal(format!(
                                "dereference of non-pointer {}",
                                other
                            )))
                        }
                    };
                }
                Op::Unary { dst, src, op, span } => {
                    let v = take(&mut s.regs[reg_base + *src as usize]);
                    s.regs[reg_base + *dst as usize] =
                        scalar::apply_unary(policy, *op, v, *span)?;
                }
                Op::Binary {
                    dst,
                    a,
                    b,
                    op,
                    span,
                } => {
                    // Int-int fast path: same checked semantics as
                    // `apply_binary` (which itself delegates), minus the
                    // operand matching and policy checks it would redo.
                    let out = if let (Value::Int(x), Value::Int(y)) = (
                        &s.regs[reg_base + *a as usize],
                        &s.regs[reg_base + *b as usize],
                    ) {
                        if matches!(op, BinOp::In) {
                            scalar::apply_binary(
                                policy,
                                *op,
                                &s.regs[reg_base + *a as usize],
                                &s.regs[reg_base + *b as usize],
                                *span,
                            )?
                        } else {
                            scalar::apply_binary_ints(*op, *x, *y, *span)?
                        }
                    } else {
                        scalar::apply_binary(
                            policy,
                            *op,
                            &s.regs[reg_base + *a as usize],
                            &s.regs[reg_base + *b as usize],
                            *span,
                        )?
                    };
                    s.regs[reg_base + *dst as usize] = out;
                }
                Op::LogicShort {
                    dst,
                    src,
                    and,
                    span,
                    target,
                } => {
                    if let Some(decided) = scalar::logic_short(
                        policy,
                        *and,
                        &s.regs[reg_base + *src as usize],
                        *span,
                    )? {
                        s.regs[reg_base + *dst as usize] = Value::Bool(decided);
                        pc = *target as usize;
                    }
                }
                Op::LogicJoin {
                    dst,
                    a,
                    b,
                    and,
                    span,
                } => {
                    let out = scalar::logic_join(
                        policy,
                        *and,
                        &s.regs[reg_base + *a as usize],
                        &s.regs[reg_base + *b as usize],
                        *span,
                    )?;
                    s.regs[reg_base + *dst as usize] = out;
                }
                Op::SetNew { dst } => {
                    s.regs[reg_base + *dst as usize] = Value::Set(SmallSet::empty());
                }
                Op::SetInsert { set, src, span } => {
                    let ord = scalar::require_ordinal(
                        policy,
                        &s.regs[reg_base + *src as usize],
                        *span,
                    )?;
                    match &mut s.regs[reg_base + *set as usize] {
                        Value::Set(sv) => sv.insert(ord),
                        _ => return Err(RuntimeError::internal("set register not a set")),
                    }
                }
                Op::SetRange { set, a, b, span } => {
                    let lo = scalar::require_ordinal(
                        policy,
                        &s.regs[reg_base + *a as usize],
                        *span,
                    )?;
                    let hi = scalar::require_ordinal(
                        policy,
                        &s.regs[reg_base + *b as usize],
                        *span,
                    )?;
                    match &mut s.regs[reg_base + *set as usize] {
                        Value::Set(sv) => {
                            for v in lo..=hi {
                                sv.insert(v);
                            }
                        }
                        _ => return Err(RuntimeError::internal("set register not a set")),
                    }
                }
                Op::Jump { target } => {
                    pc = *target as usize;
                }
                Op::BranchBool {
                    src,
                    jump_if,
                    target,
                    span,
                } => {
                    let c = scalar::control_bool(
                        policy,
                        &s.regs[reg_base + *src as usize],
                        *span,
                    )?;
                    if c == *jump_if {
                        pc = *target as usize;
                    }
                }
                Op::IncCheck {
                    counter,
                    kind,
                    span,
                } => {
                    let r = &mut s.regs[reg_base + *counter as usize];
                    let Value::Int(n) = r else {
                        return Err(RuntimeError::internal("loop counter not an integer"));
                    };
                    *n += 1;
                    if *n as u64 > self.limits.max_loop_iterations {
                        return Err(RuntimeError::new(
                            RuntimeErrorKind::LoopLimitExceeded,
                            kind.limit_message(),
                        )
                        .with_span(*span));
                    }
                }
                Op::ForPrep {
                    from,
                    to,
                    i,
                    limit,
                    template,
                    span,
                } => {
                    let iv = scalar::require_ordinal(
                        policy,
                        &s.regs[reg_base + *from as usize],
                        *span,
                    )?;
                    let lv = scalar::require_ordinal(
                        policy,
                        &s.regs[reg_base + *to as usize],
                        *span,
                    )?;
                    s.regs[reg_base + *template as usize] =
                        take(&mut s.regs[reg_base + *from as usize]);
                    s.regs[reg_base + *i as usize] = Value::Int(iv);
                    s.regs[reg_base + *limit as usize] = Value::Int(lv);
                }
                Op::ForCheck {
                    i,
                    limit,
                    down,
                    exit,
                } => {
                    let (Value::Int(iv), Value::Int(lv)) = (
                        &s.regs[reg_base + *i as usize],
                        &s.regs[reg_base + *limit as usize],
                    ) else {
                        return Err(RuntimeError::internal("for counter not an integer"));
                    };
                    if (*down && iv < lv) || (!*down && iv > lv) {
                        pc = *exit as usize;
                    }
                }
                Op::ForMake { dst, i, template } => {
                    let Value::Int(ord) = s.regs[reg_base + *i as usize] else {
                        return Err(RuntimeError::internal("for counter not an integer"));
                    };
                    s.regs[reg_base + *dst as usize] =
                        match &s.regs[reg_base + *template as usize] {
                            Value::Enum(t, _) => Value::Enum(*t, ord),
                            Value::Bool(_) => Value::Bool(ord != 0),
                            _ => Value::Int(ord),
                        };
                }
                Op::ForStep { i, down } => {
                    let Value::Int(iv) = &mut s.regs[reg_base + *i as usize] else {
                        return Err(RuntimeError::internal("for counter not an integer"));
                    };
                    *iv = if *down {
                        iv.wrapping_sub(1)
                    } else {
                        iv.wrapping_add(1)
                    };
                }
                Op::Case { src, table, span } => {
                    let ord = scalar::case_ordinal(
                        policy,
                        &s.regs[reg_base + *src as usize],
                        *span,
                    )?;
                    let t = &chunk.cases[*table as usize];
                    let mut target = t.default;
                    for (labels, at) in &t.arms {
                        if labels.contains(&ord) {
                            target = *at;
                            break;
                        }
                    }
                    pc = target as usize;
                }
                Op::CheckDef { src, span } => {
                    if matches!(s.regs[reg_base + *src as usize], Value::Undefined)
                        && policy == UndefinedPolicy::Error
                    {
                        return Err(RuntimeError::undefined("output parameter is undefined")
                            .with_span(*span));
                    }
                }
                Op::Output {
                    ip,
                    interaction,
                    first,
                    n,
                    span,
                } => {
                    let base = reg_base + *first as usize;
                    let params = &s.regs[base..base + *n as usize];
                    if !sink.emit(*ip as usize, *interaction as usize, params) {
                        return Err(RuntimeError::output_rejected(*span));
                    }
                }
                Op::PlaceG { p, slot } => {
                    let pl = &mut s.places[place_base + *p as usize];
                    pl.root = Root::Global(*slot as usize);
                    pl.path.clear();
                }
                Op::PlaceL { p, slot } => {
                    let pl = &mut s.places[place_base + *p as usize];
                    pl.root = Root::Local(*slot as usize);
                    pl.path.clear();
                }
                Op::PlaceField { p, pos } => {
                    s.places[place_base + *p as usize].path.push(*pos as usize);
                }
                Op::PlaceIndex {
                    p,
                    idx,
                    lo,
                    len,
                    span,
                } => {
                    let ord = scalar::require_ordinal(
                        policy,
                        &s.regs[reg_base + *idx as usize],
                        *span,
                    )?;
                    let off = ord - lo;
                    if off < 0 || off as usize >= *len as usize {
                        return Err(RuntimeError::bounds(format!(
                            "index {} outside bounds {}..{}",
                            ord,
                            lo,
                            lo + *len as i64 - 1
                        ))
                        .with_span(*span));
                    }
                    s.places[place_base + *p as usize].path.push(off as usize);
                }
                Op::PlaceDeref { p, span } => {
                    let pl = &s.places[place_base + *p as usize];
                    let v = read_resolved(pl, store, &locals)?;
                    let href = match v {
                        Value::Pointer(Some(href)) => *href,
                        Value::Pointer(None) => {
                            return Err(
                                RuntimeError::dangling("dereference of nil").with_span(*span)
                            )
                        }
                        Value::Undefined => {
                            return Err(RuntimeError::undefined(
                                "dereference of an undefined pointer",
                            )
                            .with_span(*span))
                        }
                        other => {
                            return Err(RuntimeError::internal(format!(
                                "dereference of non-pointer value {}",
                                other
                            ))
                            .with_span(*span))
                        }
                    };
                    let pl = &mut s.places[place_base + *p as usize];
                    pl.root = Root::Heap(href);
                    pl.path.clear();
                }
                Op::ReadPlace { dst, p } => {
                    let v =
                        read_resolved(&s.places[place_base + *p as usize], store, &locals)?
                            .clone();
                    s.regs[reg_base + *dst as usize] = v;
                }
                Op::WritePlace { p, src } => {
                    let v = take(&mut s.regs[reg_base + *src as usize]);
                    write_resolved(&s.places[place_base + *p as usize], store, &mut locals, v)?;
                }
                Op::Call { site } => {
                    if s.calls.len() >= self.limits.max_call_depth {
                        return Err(RuntimeError::new(
                            RuntimeErrorKind::CallDepthExceeded,
                            "routine call depth exceeded the limit",
                        )
                        .with_span(chunk.calls[*site as usize].span));
                    }
                    let cs = &chunk.calls[*site as usize];
                    let routine = &self.program.routines[cs.routine as usize];
                    let mut callee = routine.frame_template.clone();
                    for (i, &r) in cs.args.iter().enumerate() {
                        callee[i] = take(&mut s.regs[reg_base + r as usize]);
                    }
                    let callee_chunk = &self.program.chunks[routine.chunk];
                    let new_reg_base = reg_base + chunk.n_regs as usize;
                    let new_place_base = place_base + chunk.n_places as usize;
                    if s.regs.len() < new_reg_base + callee_chunk.n_regs as usize {
                        s.regs
                            .resize(new_reg_base + callee_chunk.n_regs as usize, Value::Undefined);
                    }
                    if s.places.len() < new_place_base + callee_chunk.n_places as usize {
                        s.places.resize_with(
                            new_place_base + callee_chunk.n_places as usize,
                            blank_place,
                        );
                    }
                    s.calls.push(CallRet {
                        chunk: cur_chunk,
                        pc,
                        reg_base,
                        place_base,
                        locals: std::mem::replace(&mut locals, callee),
                        routine: cs.routine,
                    });
                    cur_chunk = routine.chunk;
                    chunk = callee_chunk;
                    pc = 0;
                    reg_base = new_reg_base;
                    place_base = new_place_base;
                }
                Op::Ret => {
                    let fr = s
                        .calls
                        .pop()
                        .ok_or_else(|| RuntimeError::internal("return outside a call"))?;
                    s.rets.push(RetFrame {
                        frame: std::mem::replace(&mut locals, fr.locals),
                        routine: fr.routine,
                    });
                    cur_chunk = fr.chunk;
                    chunk = &self.program.chunks[cur_chunk];
                    pc = fr.pc;
                    reg_base = fr.reg_base;
                    place_base = fr.place_base;
                }
                Op::CopyOut { p, slot } => {
                    let parked = s
                        .rets
                        .last()
                        .ok_or_else(|| RuntimeError::internal("copy-out without a call"))?;
                    let out = parked.frame[*slot as usize].clone();
                    write_resolved(&s.places[place_base + *p as usize], store, &mut locals, out)?;
                }
                Op::TakeResult { dst } => {
                    let parked = s
                        .rets
                        .last_mut()
                        .ok_or_else(|| RuntimeError::internal("take-result without a call"))?;
                    let slot = self.program.routines[parked.routine as usize]
                        .result_slot
                        .ok_or_else(|| {
                            RuntimeError::internal(
                                "function call returned no value (or output rejected inside a guard)",
                            )
                        })?;
                    s.regs[reg_base + *dst as usize] = take(&mut parked.frame[slot]);
                }
                Op::DropRet => {
                    s.rets.pop();
                }
                Op::Alloc { dst, template } => {
                    let fresh = store.alloc(chunk.consts[*template as usize].clone());
                    s.regs[reg_base + *dst as usize] = Value::Pointer(Some(fresh));
                }
                Op::Dispose { src, span } => {
                    match take(&mut s.regs[reg_base + *src as usize]) {
                        Value::Pointer(Some(href)) => store.dispose(href)?,
                        Value::Pointer(None) => {
                            return Err(
                                RuntimeError::dangling("dispose of nil").with_span(*span)
                            )
                        }
                        Value::Undefined => {
                            return Err(RuntimeError::undefined(
                                "dispose of an undefined pointer",
                            )
                            .with_span(*span))
                        }
                        other => {
                            return Err(RuntimeError::internal(format!(
                                "dispose of non-pointer {}",
                                other
                            ))
                            .with_span(*span))
                        }
                    }
                }
                Op::Halt => {
                    let result = chunk.result.map(|r| take(&mut s.regs[reg_base + r as usize]));
                    locals.clear();
                    s.frame = locals;
                    return Ok(result);
                }
            }
        }
    }
}
