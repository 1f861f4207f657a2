//! The IR interpreter.
//!
//! Executes compiled statements against a mutable [`Store`] (globals +
//! heap) and a per-invocation frame. Output statements go to an
//! [`OutputSink`]; a sink may reject an output, which aborts the
//! enclosing transition body — the trace analyzer uses this to fail a
//! search branch as soon as a generated interaction cannot be matched
//! against the trace.
//!
//! Undefined values follow one of two policies (paper §5.1):
//! * [`UndefinedPolicy::Error`] — full-trace analysis: using an undefined
//!   value is a specification bug and raises a runtime error;
//! * [`UndefinedPolicy::Propagate`] — partial-trace analysis: undefined
//!   propagates through operators (Kleene logic for booleans) and guards
//!   that evaluate to undefined are assumed true. Control statements whose
//!   condition is undefined raise [`crate::RuntimeErrorKind::UndefinedControl`],
//!   pointing at the §5.3 normal-form transformation.

mod eval;
mod exec;
pub(crate) mod place;
pub(crate) mod scalar;

pub use eval::{eval_const_expr, eval_in_frame};

use crate::compile::CompiledModule;
use crate::env::OutputSink;
use crate::error::RtResult;
use crate::heap::{Heap, HeapRef};
use crate::ir::CExpr;
use crate::trail::Trail;
use crate::value::Value;

/// How undefined values behave during evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UndefinedPolicy {
    /// Using an undefined value is an error (full-trace analysis).
    #[default]
    Error,
    /// Undefined propagates; guards on undefined are true (§5.1).
    Propagate,
}

/// The mutable part of a machine state the interpreter works on. Every
/// write of either executor to it goes through `write_resolved`,
/// [`Store::alloc`] or [`Store::dispose`]; with a `trail`, each of them
/// records its undo there ([`crate::trail`]).
pub struct Store<'a> {
    pub globals: &'a mut Vec<Value>,
    pub heap: &'a mut Heap,
    pub trail: Option<&'a mut Trail>,
}

impl Store<'_> {
    /// `new`: allocate a cell holding `value`.
    pub(crate) fn alloc(&mut self, value: Value) -> HeapRef {
        let r = self.heap.alloc(value);
        if let Some(trail) = self.trail.as_deref_mut() {
            trail.alloc(r);
        }
        r
    }

    /// `dispose`: free the cell `r` names.
    pub(crate) fn dispose(&mut self, r: HeapRef) -> RtResult<()> {
        let value = self.heap.take(r)?;
        if let Some(trail) = self.trail.as_deref_mut() {
            trail.dispose(r, value);
        }
        Ok(())
    }
}

/// Interpreter limits, preventing non-terminating specifications from
/// hanging the search.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    pub max_loop_iterations: u64,
    pub max_call_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_loop_iterations: 1_000_000,
            // Each Estelle call level costs several Rust frames in the
            // interpreter; 64 keeps unoptimized test-thread stacks (2 MiB)
            // safe while far exceeding what protocol specs need.
            max_call_depth: 64,
        }
    }
}

/// One interpretation context over a compiled module.
pub struct Interp<'m> {
    pub module: &'m CompiledModule,
    pub policy: UndefinedPolicy,
    pub limits: Limits,
}

impl<'m> Interp<'m> {
    pub fn new(module: &'m CompiledModule, policy: UndefinedPolicy) -> Self {
        Interp {
            module,
            policy,
            limits: Limits::default(),
        }
    }

    /// Evaluate a `provided` guard: undefined counts as true under the
    /// propagate policy, per the paper's rule for partial traces.
    pub fn eval_guard(
        &self,
        guard: &CExpr,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
    ) -> RtResult<bool> {
        let v = self.eval(guard, store, frame, sink, 0)?;
        scalar::guard_bool(self.policy, v)
    }
}

/// True if the expression contains a routine call (whose side effects make
/// it unsafe to evaluate as a guard against live state).
pub fn expr_has_calls(e: &CExpr) -> bool {
    match e {
        CExpr::Const(_) | CExpr::Read(_) => false,
        CExpr::Field(b, _) | CExpr::Deref(b) => expr_has_calls(b),
        CExpr::Index { base, index, .. } => expr_has_calls(base) || expr_has_calls(index),
        CExpr::Unary(_, x, _) => expr_has_calls(x),
        CExpr::Binary(_, a, b, _) => expr_has_calls(a) || expr_has_calls(b),
        CExpr::Call(_) => true,
        CExpr::SetCtor(elems, _) => elems.iter().any(|el| match el {
            crate::ir::CSetElem::Single(x) => expr_has_calls(x),
            crate::ir::CSetElem::Range(a, b) => expr_has_calls(a) || expr_has_calls(b),
        }),
    }
}
