//! Expression evaluation.
//!
//! Operator and coercion semantics live in [`super::scalar`], shared with
//! the bytecode VM; this module owns only the tree traversal.

use super::{scalar, Interp, Store};
use crate::env::{NullEnv, OutputSink};
use crate::error::{RtResult, RuntimeError, RuntimeErrorKind};
use crate::heap::Heap;
use crate::ir::{CExpr, CSetElem, Slot};
use crate::value::{SmallSet, Value};
use estelle_ast::{BinOp, Span, UnOp};

impl<'m> Interp<'m> {
    pub(super) fn eval(
        &self,
        e: &CExpr,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<Value> {
        match e {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Read(Slot::Global(i)) => store
                .globals
                .get(*i)
                .cloned()
                .ok_or_else(|| RuntimeError::internal("global slot out of range")),
            CExpr::Read(Slot::Local(i)) => frame
                .get(*i)
                .cloned()
                .ok_or_else(|| RuntimeError::internal("frame slot out of range")),
            CExpr::Field(base, pos) => {
                let b = self.eval(base, store, frame, sink, depth)?;
                match b {
                    Value::Record(mut vs) => {
                        if *pos < vs.len() {
                            Ok(vs.swap_remove(*pos))
                        } else {
                            Err(RuntimeError::internal("field position out of range"))
                        }
                    }
                    Value::Undefined => Ok(Value::Undefined),
                    other => Err(RuntimeError::internal(format!(
                        "field access on non-record {}",
                        other
                    ))),
                }
            }
            CExpr::Index {
                base,
                index,
                lo,
                len,
            } => {
                let b = self.eval(base, store, frame, sink, depth)?;
                let iv = self.eval(index, store, frame, sink, depth)?;
                let ord = self.require_ordinal(&iv, Span::DUMMY)?;
                let off = ord - lo;
                if off < 0 || off as usize >= *len {
                    return Err(RuntimeError::bounds(format!(
                        "index {} outside bounds {}..{}",
                        ord,
                        lo,
                        lo + *len as i64 - 1
                    )));
                }
                match b {
                    Value::Array(mut vs) => Ok(vs.swap_remove(off as usize)),
                    Value::Undefined => Ok(Value::Undefined),
                    other => Err(RuntimeError::internal(format!(
                        "indexing non-array {}",
                        other
                    ))),
                }
            }
            CExpr::Deref(base) => {
                let b = self.eval(base, store, frame, sink, depth)?;
                match b {
                    Value::Pointer(Some(href)) => Ok(store.heap.get(href)?.clone()),
                    Value::Pointer(None) => {
                        Err(RuntimeError::dangling("dereference of nil"))
                    }
                    Value::Undefined => scalar::undefined_or(
                        self.policy,
                        "dereference of an undefined pointer",
                        RuntimeErrorKind::UndefinedValue,
                    ),
                    other => Err(RuntimeError::internal(format!(
                        "dereference of non-pointer {}",
                        other
                    ))),
                }
            }
            CExpr::Unary(op, operand, span) => {
                let v = self.eval(operand, store, frame, sink, depth)?;
                self.eval_unary(*op, v, *span)
            }
            CExpr::Binary(op, l, r, span) => {
                self.eval_binary(*op, l, r, *span, store, frame, sink, depth)
            }
            CExpr::Call(call) => {
                let result = self.exec_call(call, store, frame, sink, depth)?;
                match result {
                    Some(v) => Ok(v),
                    None => Err(RuntimeError::internal(
                        "function call returned no value (or output rejected inside a guard)",
                    )),
                }
            }
            CExpr::SetCtor(elems, span) => {
                let mut s = SmallSet::empty();
                for el in elems {
                    match el {
                        CSetElem::Single(x) => {
                            let v = self.eval(x, store, frame, sink, depth)?;
                            s.insert(self.require_ordinal(&v, *span)?);
                        }
                        CSetElem::Range(a, b) => {
                            let av = self.eval(a, store, frame, sink, depth)?;
                            let bv = self.eval(b, store, frame, sink, depth)?;
                            let (a, b) = (
                                self.require_ordinal(&av, *span)?,
                                self.require_ordinal(&bv, *span)?,
                            );
                            for v in a..=b {
                                s.insert(v);
                            }
                        }
                    }
                }
                Ok(Value::Set(s))
            }
        }
    }

    fn eval_unary(&self, op: UnOp, v: Value, span: Span) -> RtResult<Value> {
        scalar::apply_unary(self.policy, op, v, span)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_binary(
        &self,
        op: BinOp,
        l: &CExpr,
        r: &CExpr,
        span: Span,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<Value> {
        // Boolean operators get Kleene logic under the propagate policy and
        // short-circuiting under both policies.
        if matches!(op, BinOp::And | BinOp::Or) {
            let and = op == BinOp::And;
            let lv = self.eval(l, store, frame, sink, depth)?;
            if let Some(decided) = scalar::logic_short(self.policy, and, &lv, span)? {
                return Ok(Value::Bool(decided));
            }
            let rv = self.eval(r, store, frame, sink, depth)?;
            return scalar::logic_join(self.policy, and, &lv, &rv, span);
        }
        let lv = self.eval(l, store, frame, sink, depth)?;
        let rv = self.eval(r, store, frame, sink, depth)?;
        scalar::apply_binary(self.policy, op, &lv, &rv, span)
    }

    pub(super) fn require_ordinal(&self, v: &Value, span: Span) -> RtResult<i64> {
        scalar::require_ordinal(self.policy, v, span)
    }
}

/// Evaluate a closed constant expression with no state (used by tests and
/// tooling to fold trace parameter literals).
pub fn eval_const_expr(module: &crate::compile::CompiledModule, e: &CExpr) -> RtResult<Value> {
    eval_in_frame(module, e, &mut Vec::new())
}

/// Evaluate an expression that reads no state but `frame`, such as an
/// `any` family's guard operand over its bindings.
pub fn eval_in_frame(
    module: &crate::compile::CompiledModule,
    e: &CExpr,
    frame: &mut Vec<Value>,
) -> RtResult<Value> {
    let mut globals = Vec::new();
    let mut heap = Heap::new();
    let mut store = Store {
        globals: &mut globals,
        heap: &mut heap,
        trail: None,
    };
    let mut sink = NullEnv::default();
    let interp = Interp::new(module, super::UndefinedPolicy::Error);
    interp.eval(e, &mut store, frame, &mut sink, 0)
}
