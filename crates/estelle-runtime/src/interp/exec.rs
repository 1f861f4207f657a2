//! Statement execution.

use super::place::{read_resolved, write_resolved};
use super::{scalar, Interp, Store, UndefinedPolicy};
use crate::env::OutputSink;
use crate::error::{RtResult, RuntimeError, RuntimeErrorKind};
use crate::ir::{CArg, CCall, CStmt};
use crate::value::{default_value, Value};

impl<'m> Interp<'m> {
    /// Execute a statement block. A sink rejection unwinds as
    /// [`crate::RuntimeErrorKind::OutputRejected`]; the machine's `fire` maps it
    /// back to a non-error outcome for the search.
    pub fn exec_block(
        &self,
        stmts: &[CStmt],
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<()> {
        for s in stmts {
            self.exec_stmt(s, store, frame, sink, depth)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &self,
        s: &CStmt,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<()> {
        match s {
            CStmt::Assign(place, value, _) => {
                let v = self.eval(value, store, frame, sink, depth)?;
                self.write_place(place, v, store, frame, sink, depth)
            }
            CStmt::If(cond, then_b, else_b, span) => {
                let c = self.eval(cond, store, frame, sink, depth)?;
                match self.control_bool(&c, *span)? {
                    true => self.exec_block(then_b, store, frame, sink, depth),
                    false => self.exec_block(else_b, store, frame, sink, depth),
                }
            }
            CStmt::While(cond, body, span) => {
                let mut iterations: u64 = 0;
                loop {
                    let c = self.eval(cond, store, frame, sink, depth)?;
                    if !self.control_bool(&c, *span)? {
                        return Ok(());
                    }
                    self.exec_block(body, store, frame, sink, depth)?;
                    iterations += 1;
                    if iterations > self.limits.max_loop_iterations {
                        return Err(RuntimeError::new(
                            RuntimeErrorKind::LoopLimitExceeded,
                            "while loop exceeded the iteration limit",
                        )
                        .with_span(*span));
                    }
                }
            }
            CStmt::Repeat(body, cond, span) => {
                let mut iterations: u64 = 0;
                loop {
                    self.exec_block(body, store, frame, sink, depth)?;
                    let c = self.eval(cond, store, frame, sink, depth)?;
                    if self.control_bool(&c, *span)? {
                        return Ok(());
                    }
                    iterations += 1;
                    if iterations > self.limits.max_loop_iterations {
                        return Err(RuntimeError::new(
                            RuntimeErrorKind::LoopLimitExceeded,
                            "repeat loop exceeded the iteration limit",
                        )
                        .with_span(*span));
                    }
                }
            }
            CStmt::For {
                var,
                from,
                down,
                to,
                body,
                span,
            } => {
                let fv = self.eval(from, store, frame, sink, depth)?;
                let tv = self.eval(to, store, frame, sink, depth)?;
                let (mut i, limit) = (
                    self.require_ordinal(&fv, *span)?,
                    self.require_ordinal(&tv, *span)?,
                );
                // Remember the loop variable's scalar kind so enum counters
                // keep their enum identity while stepping.
                let make = |template: &Value, ord: i64| match template {
                    Value::Enum(t, _) => Value::Enum(*t, ord),
                    Value::Bool(_) => Value::Bool(ord != 0),
                    _ => Value::Int(ord),
                };
                let template = fv.clone();
                let mut iterations: u64 = 0;
                loop {
                    if (*down && i < limit) || (!*down && i > limit) {
                        return Ok(());
                    }
                    self.write_place(var, make(&template, i), store, frame, sink, depth)?;
                    self.exec_block(body, store, frame, sink, depth)?;
                    iterations += 1;
                    if iterations > self.limits.max_loop_iterations {
                        return Err(RuntimeError::new(
                            RuntimeErrorKind::LoopLimitExceeded,
                            "for loop exceeded the iteration limit",
                        )
                        .with_span(*span));
                    }
                    if *down {
                        i -= 1;
                    } else {
                        i += 1;
                    }
                }
            }
            CStmt::Case {
                scrutinee,
                arms,
                else_arm,
                span,
            } => {
                let v = self.eval(scrutinee, store, frame, sink, depth)?;
                let ord = scalar::case_ordinal(self.policy, &v, *span)?;
                for (labels, body) in arms {
                    if labels.contains(&ord) {
                        return self.exec_block(body, store, frame, sink, depth);
                    }
                }
                if let Some(body) = else_arm {
                    return self.exec_block(body, store, frame, sink, depth);
                }
                // Pascal leaves an unmatched case undefined behaviour; we
                // take the lenient route and do nothing, as most Estelle
                // compilers did.
                Ok(())
            }
            CStmt::Output {
                ip,
                interaction,
                args,
                span,
            } => {
                let mut params = Vec::with_capacity(args.len());
                for a in args {
                    let v = self.eval(a, store, frame, sink, depth)?;
                    if matches!(v, Value::Undefined)
                        && self.policy == UndefinedPolicy::Error
                    {
                        return Err(RuntimeError::undefined(
                            "output parameter is undefined",
                        )
                        .with_span(*span));
                    }
                    params.push(v);
                }
                if sink.emit(*ip, *interaction, &params) {
                    Ok(())
                } else {
                    Err(RuntimeError::output_rejected(*span))
                }
            }
            CStmt::Call(call) => {
                self.exec_call(call, store, frame, sink, depth)?;
                Ok(())
            }
            CStmt::New(place, pointee, _) => {
                let fresh = store.alloc(default_value(&self.module.analyzed.types, *pointee));
                self.write_place(
                    place,
                    Value::Pointer(Some(fresh)),
                    store,
                    frame,
                    sink,
                    depth,
                )
            }
            CStmt::Dispose(place, span) => {
                let v = self.read_place(place, store, frame, sink, depth)?;
                match v {
                    Value::Pointer(Some(href)) => {
                        store.dispose(href)
                    }
                    Value::Pointer(None) => {
                        Err(RuntimeError::dangling("dispose of nil").with_span(*span))
                    }
                    Value::Undefined => Err(RuntimeError::undefined(
                        "dispose of an undefined pointer",
                    )
                    .with_span(*span)),
                    other => Err(RuntimeError::internal(format!(
                        "dispose of non-pointer {}",
                        other
                    ))
                    .with_span(*span)),
                }
            }
        }
    }

    /// Execute a routine call with copy-in/copy-out `var` parameters.
    /// Returns the function result, or `None` for procedures.
    pub(super) fn exec_call(
        &self,
        call: &CCall,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<Option<Value>> {
        if depth >= self.limits.max_call_depth {
            return Err(RuntimeError::new(
                RuntimeErrorKind::CallDepthExceeded,
                "routine call depth exceeded the limit",
            )
            .with_span(call.span));
        }
        let routine = &self.module.routines[call.routine];

        // Build the callee frame: defaults, then copy in arguments.
        let mut callee: Vec<Value> = routine
            .slot_types
            .iter()
            .map(|t| default_value(&self.module.analyzed.types, *t))
            .collect();
        for (i, arg) in call.args.iter().enumerate() {
            callee[i] = match arg {
                CArg::Value(e) => self.eval(e, store, frame, sink, depth)?,
                CArg::Ref(place) => {
                    let r = self.resolve_place(place, store, frame, sink, depth)?;
                    read_resolved(&r, store, frame)?.clone()
                }
            };
        }

        self.exec_block(&routine.body, store, &mut callee, sink, depth + 1)?;

        // Copy out `var` parameters.
        for (i, arg) in call.args.iter().enumerate() {
            if let CArg::Ref(place) = arg {
                let out = callee[i].clone();
                let r = self.resolve_place(place, store, frame, sink, depth)?;
                write_resolved(&r, store, frame, out)?;
            }
        }

        Ok(routine.result_slot.map(|slot| callee[slot].clone()))
    }

    /// A control-statement condition: strictly boolean; undefined raises
    /// `UndefinedControl` in partial mode (§5.3).
    fn control_bool(&self, v: &Value, span: estelle_ast::Span) -> RtResult<bool> {
        scalar::control_bool(self.policy, v, span)
    }
}
