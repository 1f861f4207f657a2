//! The compiler: lowers an [`AnalyzedModule`] to the executable IR.
//!
//! This is the *Dingo* analog. Where Dingo emitted C++ classes linked
//! against a run-time library, we lower to the slot-addressed IR in
//! [`crate::ir`] and interpret it — the machinery the paper's trace
//! analysis actually exercises (generate / update / save / restore) is
//! identical.
//!
//! Lowering performs:
//! * name → slot resolution (globals, frame locals, `when` parameters,
//!   `any` bindings);
//! * constant folding (module constants, enum literals, arithmetic);
//! * record-field → position and array-bounds caching;
//! * one [`TransitionFamily`] per declaration, whose `any` clauses expand
//!   into a binding table with one [`CompiledTransition`] per row — this
//!   is why the paper's LAPD reaches "over 800" compiled transitions from
//!   far fewer declarations, while the guard and body are lowered once.

use crate::error::{RtResult, RuntimeError};
use crate::ir::*;
use crate::value::{SmallSet, Value};
use estelle_ast::{BinOp, Expr, ExprKind, ForDirection, Stmt, StmtKind, UnOp};
use estelle_frontend::sema::model::{AnalyzedModule, ConstValue, StateId};
use estelle_frontend::sema::types::{Type, TypeId, TY_BOOLEAN, TY_INTEGER};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A fully compiled, executable module.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// The analyzed source model (types, IP signatures, state names …),
    /// kept for the analyzer's diagnostics and trace rendering.
    pub analyzed: AnalyzedModule,
    pub routines: Vec<CompiledRoutine>,
    pub init_to: StateId,
    pub init_block: Vec<CStmt>,
    /// One per transition declaration, in declaration order.
    pub families: Vec<TransitionFamily>,
    /// One per compiled transition, in compiled-index order: declaration
    /// order, then binding order.
    pub transitions: Vec<CompiledTransition>,
    /// Global slot types, aligned with `analyzed.vars`.
    pub globals: Vec<TypeId>,
}

impl CompiledModule {
    /// Number of compiled transitions (after state-list and `any`
    /// expansion) — the figure the paper quotes for spec size.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The family of compiled transition `index`.
    pub fn family(&self, index: usize) -> &TransitionFamily {
        &self.families[self.transitions[index].decl_index]
    }

    /// The family of compiled transition `index` and its binding row.
    pub fn instance(&self, index: usize) -> (&TransitionFamily, &[i64]) {
        let t = self.transitions[index];
        let family = &self.families[t.decl_index];
        (family, family.binding(t.row))
    }

    /// The display name of compiled transition `index`: the declaration
    /// name, plus the bindings of an `any` instance (`Pad1[k=8]`),
    /// rendered only for instances.
    pub fn transition_name(&self, index: usize) -> Cow<'_, str> {
        let t = self.transitions[index];
        let decl = &self.analyzed.transitions[t.decl_index];
        let binding = self.families[t.decl_index].binding(t.row);
        if binding.is_empty() {
            return Cow::Borrowed(&decl.name);
        }
        let mut name = format!("{}[", decl.name);
        for (i, ((var, _), v)) in decl.any.iter().zip(binding).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(name, "{}{}={}", sep, var, v);
        }
        name.push(']');
        Cow::Owned(name)
    }
}

/// Compile an analyzed module. Semantic analysis has validated the module
/// and bounded every `any` expansion, so failures indicate compiler bugs.
pub fn compile(analyzed: AnalyzedModule) -> RtResult<CompiledModule> {
    let globals: Vec<TypeId> = analyzed.vars.iter().map(|v| v.ty).collect();

    let mut routines = Vec::new();
    for r in &analyzed.routines {
        routines.push(compile_routine(&analyzed, r)?);
    }

    // The initialize block runs with an empty frame.
    let cx = Cx {
        m: &analyzed,
        frame: HashMap::new(),
        consts: HashMap::new(),
    };
    let init_block = cx.lower_block(&analyzed.initialize.block)?;
    let init_to = analyzed.initialize.to;

    let mut families = Vec::with_capacity(analyzed.transitions.len());
    let mut transitions = Vec::new();
    for (decl_index, t) in analyzed.transitions.iter().enumerate() {
        let family = compile_family(&analyzed, t, transitions.len())?;
        transitions.extend((0..family.rows).map(|row| CompiledTransition { decl_index, row }));
        families.push(family);
    }

    Ok(CompiledModule {
        routines,
        init_to,
        init_block,
        families,
        transitions,
        globals,
        analyzed,
    })
}

fn compile_routine(
    m: &AnalyzedModule,
    r: &estelle_frontend::sema::model::RoutineInfo,
) -> RtResult<CompiledRoutine> {
    let mut frame = HashMap::new();
    let mut slot_types = Vec::new();
    for p in &r.params {
        frame.insert(p.name.clone(), (slot_types.len(), p.ty));
        slot_types.push(p.ty);
    }
    for (n, t) in &r.locals {
        frame.insert(n.clone(), (slot_types.len(), *t));
        slot_types.push(*t);
    }
    let result_slot = r.result.map(|res| {
        let slot = slot_types.len();
        frame.insert(r.name.to_ascii_lowercase(), (slot, res));
        slot_types.push(res);
        slot
    });
    let cx = Cx {
        m,
        frame,
        consts: r.consts.clone(),
    };
    let body = cx.lower_block(&r.body)?;
    Ok(CompiledRoutine {
        name: r.name.clone(),
        params: r.params.len(),
        by_ref: r.params.iter().map(|p| p.by_ref).collect(),
        frame_size: slot_types.len(),
        result_slot,
        slot_types,
        body,
    })
}

/// Lower one transition declaration: its guard and body once, and its
/// `any` clauses into the binding table.
fn compile_family(
    m: &AnalyzedModule,
    t: &estelle_frontend::sema::model::TransitionInfo,
    first: usize,
) -> RtResult<TransitionFamily> {
    // Frame layout: [any bindings..., when parameters...].
    let mut frame = HashMap::new();
    let mut slot_types = Vec::new();
    for (name, ty) in &t.any {
        frame.insert(name.clone(), (slot_types.len(), *ty));
        slot_types.push(*ty);
    }
    let when = match t.when {
        None => None,
        Some((ip, idx)) => {
            let sig = &m.ip(ip).inputs[idx];
            for (pname, pty) in &sig.params {
                frame.insert(pname.clone(), (slot_types.len(), *pty));
                slot_types.push(*pty);
            }
            Some((ip.0 as usize, idx, sig.params.len()))
        }
    };

    let cx = Cx {
        m,
        frame,
        consts: HashMap::new(),
    };
    let provided = t.provided.as_ref().map(|p| cx.lower_expr(p)).transpose()?;
    let body = cx.lower_block(&t.block)?;

    // The binding table: every combination of the `any` domains, counted
    // like an odometer. Sema bounded each domain and their product.
    let mut domains = Vec::with_capacity(t.any.len());
    let mut rows = 1usize;
    for (_, ty) in &t.any {
        let (lo, hi) = m
            .types
            .ordinal_range(*ty)
            .ok_or_else(|| RuntimeError::internal("`any` domain not finite"))?;
        rows = rows.saturating_mul((hi.abs_diff(lo) as usize).saturating_add(1));
        domains.push((lo, hi));
    }
    let mut bindings = Vec::with_capacity(rows * domains.len());
    let mut row: Vec<i64> = domains.iter().map(|&(lo, _)| lo).collect();
    for _ in 0..rows {
        bindings.extend_from_slice(&row);
        for (v, &(lo, hi)) in row.iter_mut().zip(&domains).rev() {
            if *v < hi {
                *v += 1;
                break;
            }
            *v = lo;
        }
    }

    Ok(TransitionFamily {
        from: t.from.clone(),
        to: t.to,
        when,
        provided,
        priority: t.priority,
        arity: t.any.len(),
        frame_size: slot_types.len(),
        slot_types,
        body,
        span: t.span,
        first,
        rows,
        bindings,
    })
}

/// Expression typing produced during lowering; mirrors the checker's
/// classification of the polymorphic literals.
#[derive(Clone, Copy, Debug)]
enum ETy {
    Of(TypeId),
    Nil,
    EmptySet,
}

/// Lowering context: the module tables plus the current frame.
struct Cx<'a> {
    m: &'a AnalyzedModule,
    /// name → (frame slot, type)
    frame: HashMap<String, (usize, TypeId)>,
    /// extra constants (routine-local)
    consts: HashMap<String, ConstValue>,
}

fn const_to_value(v: ConstValue) -> Value {
    match v {
        ConstValue::Int(i) => Value::Int(i),
        ConstValue::Bool(b) => Value::Bool(b),
        ConstValue::Enum(t, o) => Value::Enum(t, o),
    }
}

impl<'a> Cx<'a> {
    fn internal(&self, msg: impl Into<String>) -> RuntimeError {
        RuntimeError::internal(msg)
    }

    fn lower_block(&self, stmts: &[Stmt]) -> RtResult<Vec<CStmt>> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            if let Some(c) = self.lower_stmt(s)? {
                out.push(c);
            }
        }
        Ok(out)
    }

    fn lower_stmt(&self, s: &Stmt) -> RtResult<Option<CStmt>> {
        Ok(Some(match &s.kind {
            StmtKind::Empty => return Ok(None),
            StmtKind::Assign { target, value } => {
                let (place, _) = self.lower_place(target)?;
                let (value, _) = self.lower_expr_typed(value)?;
                CStmt::Assign(place, value, s.span)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.lower_expr(cond)?;
                let t = self.lower_stmt_as_block(then_branch)?;
                let e = match else_branch {
                    Some(b) => self.lower_stmt_as_block(b)?,
                    None => Vec::new(),
                };
                CStmt::If(c, t, e, s.span)
            }
            StmtKind::While { cond, body } => CStmt::While(
                self.lower_expr(cond)?,
                self.lower_stmt_as_block(body)?,
                s.span,
            ),
            StmtKind::Repeat { body, cond } => CStmt::Repeat(
                self.lower_block(body)?,
                self.lower_expr(cond)?,
                s.span,
            ),
            StmtKind::For {
                var,
                from,
                dir,
                to,
                body,
            } => {
                let (place, _) = self.lower_name_place(var)?;
                CStmt::For {
                    var: place,
                    from: self.lower_expr(from)?,
                    down: *dir == ForDirection::Down,
                    to: self.lower_expr(to)?,
                    body: self.lower_stmt_as_block(body)?,
                    span: s.span,
                }
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_arm,
            } => {
                let sc = self.lower_expr(scrutinee)?;
                let mut carms = Vec::new();
                for arm in arms {
                    let mut labels = Vec::new();
                    for l in &arm.labels {
                        let (e, _) = self.lower_expr_typed(l)?;
                        match e {
                            CExpr::Const(v) => labels.push(v.ordinal().ok_or_else(|| {
                                self.internal("case label is not ordinal")
                            })?),
                            _ => return Err(self.internal("case label is not constant")),
                        }
                    }
                    carms.push((labels, self.lower_stmt_as_block(&arm.body)?));
                }
                let else_arm = match else_arm {
                    Some(b) => Some(self.lower_block(b)?),
                    None => None,
                };
                CStmt::Case {
                    scrutinee: sc,
                    arms: carms,
                    else_arm,
                    span: s.span,
                }
            }
            StmtKind::Compound(stmts) => {
                // Flatten: compound statements have no scope of their own.
                let inner = self.lower_block(stmts)?;
                if inner.is_empty() {
                    return Ok(None);
                }
                // Represent as an always-true `if` to avoid a dedicated
                // variant; cheap and keeps the IR small.
                CStmt::If(CExpr::Const(Value::Bool(true)), inner, Vec::new(), s.span)
            }
            StmtKind::Output {
                ip,
                interaction,
                args,
            } => {
                let ip_id = self
                    .m
                    .lookup_ip(ip.key())
                    .ok_or_else(|| self.internal("unknown ip post-sema"))?;
                let idx = self
                    .m
                    .ip(ip_id)
                    .output_index(interaction.key())
                    .ok_or_else(|| self.internal("unknown interaction post-sema"))?;
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<RtResult<Vec<_>>>()?;
                CStmt::Output {
                    ip: ip_id.0 as usize,
                    interaction: idx,
                    args,
                    span: s.span,
                }
            }
            StmtKind::ProcCall { name, args } => {
                let call = self.lower_call(name, args, s.span)?;
                CStmt::Call(call)
            }
            StmtKind::New(target) => {
                let (place, ty) = self.lower_place(target)?;
                let pointee = match self.m.types.get(self.m.types.base_of(ty)) {
                    Type::Pointer { target } => *target,
                    _ => return Err(self.internal("new on non-pointer post-sema")),
                };
                CStmt::New(place, pointee, s.span)
            }
            StmtKind::Dispose(target) => {
                let (place, _) = self.lower_place(target)?;
                CStmt::Dispose(place, s.span)
            }
        }))
    }

    fn lower_stmt_as_block(&self, s: &Stmt) -> RtResult<Vec<CStmt>> {
        // Unwrap compound statements directly into a block.
        if let StmtKind::Compound(stmts) = &s.kind {
            return self.lower_block(stmts);
        }
        Ok(self.lower_stmt(s)?.into_iter().collect())
    }

    fn lower_call(&self, name: &estelle_ast::Ident, args: &[Expr], span: estelle_ast::Span) -> RtResult<CCall> {
        let rid = self
            .m
            .routine_index
            .get(name.key())
            .copied()
            .ok_or_else(|| self.internal("unknown routine post-sema"))?;
        let routine = self.m.routine(rid);
        let mut cargs = Vec::with_capacity(args.len());
        for (p, a) in routine.params.iter().zip(args) {
            if p.by_ref {
                let (place, _) = self.lower_place(a)?;
                cargs.push(CArg::Ref(place));
            } else {
                cargs.push(CArg::Value(self.lower_expr(a)?));
            }
        }
        Ok(CCall {
            routine: rid.0 as usize,
            args: cargs,
            span,
        })
    }

    fn lower_expr(&self, e: &Expr) -> RtResult<CExpr> {
        Ok(self.lower_expr_typed(e)?.0)
    }

    fn lower_expr_typed(&self, e: &Expr) -> RtResult<(CExpr, ETy)> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok((CExpr::Const(Value::Int(*v)), ETy::Of(TY_INTEGER))),
            ExprKind::BoolLit(b) => Ok((CExpr::Const(Value::Bool(*b)), ETy::Of(TY_BOOLEAN))),
            ExprKind::NilLit => Ok((CExpr::Const(Value::Pointer(None)), ETy::Nil)),
            ExprKind::Name(n) => {
                if let Some(&(slot, ty)) = self.frame.get(n.key()) {
                    return Ok((CExpr::Read(Slot::Local(slot)), ETy::Of(ty)));
                }
                if let Some(v) = self.consts.get(n.key()) {
                    return Ok((CExpr::Const(const_to_value(*v)), self.const_ety(*v)));
                }
                if let Some(&vid) = self.m.var_index.get(n.key()) {
                    let ty = self.m.var(vid).ty;
                    return Ok((CExpr::Read(Slot::Global(vid.0 as usize)), ETy::Of(ty)));
                }
                if let Some(v) = self.m.consts.get(n.key()) {
                    return Ok((CExpr::Const(const_to_value(*v)), self.const_ety(*v)));
                }
                if let Some(&(ty, ord)) = self.m.enum_literals.get(n.key()) {
                    return Ok((CExpr::Const(Value::Enum(ty, ord)), ETy::Of(ty)));
                }
                // Parameterless function call.
                if let Some(&rid) = self.m.routine_index.get(n.key()) {
                    let routine = self.m.routine(rid);
                    if let Some(res) = routine.result {
                        return Ok((
                            CExpr::Call(CCall {
                                routine: rid.0 as usize,
                                args: Vec::new(),
                                span: n.span,
                            }),
                            ETy::Of(res),
                        ));
                    }
                }
                Err(self.internal(format!("unresolved name `{}` post-sema", n)))
            }
            ExprKind::Field(base, field) => {
                let (b, bt) = self.lower_expr_typed(base)?;
                let ETy::Of(bt) = bt else {
                    return Err(self.internal("field access on literal"));
                };
                let (pos, fty) = self.field_position(bt, field.key())?;
                Ok((CExpr::Field(Box::new(b), pos), ETy::Of(fty)))
            }
            ExprKind::Index(base, idx) => {
                let (b, bt) = self.lower_expr_typed(base)?;
                let ETy::Of(bt) = bt else {
                    return Err(self.internal("index on literal"));
                };
                let (lo, len, elem) = self.array_info(bt)?;
                let i = self.lower_expr(idx)?;
                Ok((
                    CExpr::Index {
                        base: Box::new(b),
                        index: Box::new(i),
                        lo,
                        len,
                    },
                    ETy::Of(elem),
                ))
            }
            ExprKind::Deref(base) => {
                let (b, bt) = self.lower_expr_typed(base)?;
                let ETy::Of(bt) = bt else {
                    return Err(self.internal("deref of literal"));
                };
                let target = match self.m.types.get(self.m.types.base_of(bt)) {
                    Type::Pointer { target } => *target,
                    _ => return Err(self.internal("deref of non-pointer post-sema")),
                };
                Ok((CExpr::Deref(Box::new(b)), ETy::Of(target)))
            }
            ExprKind::Unary(op, operand) => {
                let v = self.lower_expr(operand)?;
                // Fold constants.
                if let CExpr::Const(c) = &v {
                    match (op, c) {
                        (UnOp::Neg, Value::Int(i)) => {
                            return Ok((CExpr::Const(Value::Int(-i)), ETy::Of(TY_INTEGER)))
                        }
                        (UnOp::Plus, Value::Int(i)) => {
                            return Ok((CExpr::Const(Value::Int(*i)), ETy::Of(TY_INTEGER)))
                        }
                        (UnOp::Not, Value::Bool(b)) => {
                            return Ok((CExpr::Const(Value::Bool(!b)), ETy::Of(TY_BOOLEAN)))
                        }
                        _ => {}
                    }
                }
                let ty = if *op == UnOp::Not {
                    TY_BOOLEAN
                } else {
                    TY_INTEGER
                };
                Ok((
                    CExpr::Unary(*op, Box::new(v), e.span),
                    ETy::Of(ty),
                ))
            }
            ExprKind::Binary(op, l, r) => {
                let (lv, _) = self.lower_expr_typed(l)?;
                let (rv, _) = self.lower_expr_typed(r)?;
                let ty = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => TY_INTEGER,
                    _ => TY_BOOLEAN,
                };
                // Fold integer arithmetic on constants.
                if let (CExpr::Const(Value::Int(a)), CExpr::Const(Value::Int(b))) = (&lv, &rv) {
                    let folded = match op {
                        BinOp::Add => a.checked_add(*b).map(Value::Int),
                        BinOp::Sub => a.checked_sub(*b).map(Value::Int),
                        BinOp::Mul => a.checked_mul(*b).map(Value::Int),
                        BinOp::Lt => Some(Value::Bool(a < b)),
                        BinOp::Le => Some(Value::Bool(a <= b)),
                        BinOp::Gt => Some(Value::Bool(a > b)),
                        BinOp::Ge => Some(Value::Bool(a >= b)),
                        BinOp::Eq => Some(Value::Bool(a == b)),
                        BinOp::Ne => Some(Value::Bool(a != b)),
                        _ => None,
                    };
                    if let Some(v) = folded {
                        return Ok((CExpr::Const(v), ETy::Of(ty)));
                    }
                }
                Ok((
                    CExpr::Binary(*op, Box::new(lv), Box::new(rv), e.span),
                    ETy::Of(ty),
                ))
            }
            ExprKind::Call(name, args) => {
                let call = self.lower_call(name, args, e.span)?;
                let res = self
                    .m
                    .routine(estelle_frontend::sema::model::RoutineId(
                        call.routine as u32,
                    ))
                    .result
                    .ok_or_else(|| self.internal("procedure used as function post-sema"))?;
                Ok((CExpr::Call(call), ETy::Of(res)))
            }
            ExprKind::SetCtor(elems) => {
                let mut celems = Vec::new();
                let mut all_const = true;
                for el in elems {
                    match el {
                        estelle_ast::expr::SetElem::Single(x) => {
                            let c = self.lower_expr(x)?;
                            all_const &= matches!(c, CExpr::Const(_));
                            celems.push(CSetElem::Single(c));
                        }
                        estelle_ast::expr::SetElem::Range(a, b) => {
                            let ca = self.lower_expr(a)?;
                            let cb = self.lower_expr(b)?;
                            all_const &=
                                matches!(ca, CExpr::Const(_)) && matches!(cb, CExpr::Const(_));
                            celems.push(CSetElem::Range(ca, cb));
                        }
                    }
                }
                if all_const {
                    // Fold fully constant constructors.
                    let mut s = SmallSet::empty();
                    for el in &celems {
                        match el {
                            CSetElem::Single(CExpr::Const(v)) => {
                                s.insert(v.ordinal().ok_or_else(|| {
                                    self.internal("non-ordinal set element")
                                })?);
                            }
                            CSetElem::Range(CExpr::Const(a), CExpr::Const(b)) => {
                                let (a, b) = (
                                    a.ordinal().ok_or_else(|| {
                                        self.internal("non-ordinal set element")
                                    })?,
                                    b.ordinal().ok_or_else(|| {
                                        self.internal("non-ordinal set element")
                                    })?,
                                );
                                for v in a..=b {
                                    s.insert(v);
                                }
                            }
                            _ => unreachable!("all_const checked"),
                        }
                    }
                    return Ok((CExpr::Const(Value::Set(s)), ETy::EmptySet));
                }
                Ok((CExpr::SetCtor(celems, e.span), ETy::EmptySet))
            }
        }
    }

    fn lower_place(&self, e: &Expr) -> RtResult<(CPlace, TypeId)> {
        match &e.kind {
            ExprKind::Name(n) => self.lower_name_place(n),
            ExprKind::Field(base, field) => {
                let (b, bt) = self.lower_place(base)?;
                let (pos, fty) = self.field_position(bt, field.key())?;
                Ok((CPlace::Field(Box::new(b), pos), fty))
            }
            ExprKind::Index(base, idx) => {
                let (b, bt) = self.lower_place(base)?;
                let (lo, len, elem) = self.array_info(bt)?;
                let i = self.lower_expr(idx)?;
                Ok((
                    CPlace::Index {
                        base: Box::new(b),
                        index: Box::new(i),
                        lo,
                        len,
                        span: e.span,
                    },
                    elem,
                ))
            }
            ExprKind::Deref(base) => {
                let (b, bt) = self.lower_place(base)?;
                let target = match self.m.types.get(self.m.types.base_of(bt)) {
                    Type::Pointer { target } => *target,
                    _ => return Err(self.internal("deref of non-pointer post-sema")),
                };
                Ok((CPlace::Deref(Box::new(b), e.span), target))
            }
            _ => Err(self.internal("assignment target is not a place post-sema")),
        }
    }

    fn lower_name_place(&self, n: &estelle_ast::Ident) -> RtResult<(CPlace, TypeId)> {
        if let Some(&(slot, ty)) = self.frame.get(n.key()) {
            return Ok((CPlace::Var(Slot::Local(slot)), ty));
        }
        if let Some(&vid) = self.m.var_index.get(n.key()) {
            return Ok((
                CPlace::Var(Slot::Global(vid.0 as usize)),
                self.m.var(vid).ty,
            ));
        }
        Err(self.internal(format!("unresolved variable `{}` post-sema", n)))
    }

    fn field_position(&self, record_ty: TypeId, field: &str) -> RtResult<(usize, TypeId)> {
        match self.m.types.get(self.m.types.base_of(record_ty)) {
            Type::Record { fields } => fields
                .iter()
                .position(|(name, _)| name == field)
                .map(|pos| (pos, fields[pos].1))
                .ok_or_else(|| self.internal("unknown record field post-sema")),
            _ => Err(self.internal("field access on non-record post-sema")),
        }
    }

    fn array_info(&self, array_ty: TypeId) -> RtResult<(i64, usize, TypeId)> {
        match *self.m.types.get(self.m.types.base_of(array_ty)) {
            Type::Array { lo, hi, elem, .. } => Ok((lo, (hi - lo + 1) as usize, elem)),
            _ => Err(self.internal("indexing non-array post-sema")),
        }
    }

    fn const_ety(&self, v: ConstValue) -> ETy {
        match v {
            ConstValue::Int(_) => ETy::Of(TY_INTEGER),
            ConstValue::Bool(_) => ETy::Of(TY_BOOLEAN),
            ConstValue::Enum(t, _) => ETy::Of(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle_frontend::analyze;

    fn compiled(src: &str) -> CompiledModule {
        compile(analyze(src).expect("analyzes")).expect("compiles")
    }

    #[test]
    fn any_expansion_multiplies_transitions() {
        let src = r#"
            specification s;
            module M process; end;
            body MB for M;
                var n : integer;
                state S;
                initialize to S begin n := 0 end;
                trans
                from S to S any i : 0..3 do any j : 0..1 do begin n := i + j end;
            end;
            end.
        "#;
        let m = compiled(src);
        assert_eq!(m.transition_count(), 8);
        assert_eq!(m.families.len(), 1, "one family, lowered once");
        assert_eq!(m.instance(0).1, [0, 0]);
        assert_eq!(m.instance(7).1, [3, 1]);
        assert_eq!(m.transition_name(5), "t#1[i=2,j=1]");
    }

    #[test]
    fn when_params_get_frame_slots() {
        let src = r#"
            specification s;
            channel C(a, b); by a: put(x : integer; y : boolean); end;
            module M process; ip P : C(b); end;
            body MB for M;
                var n : integer;
                state S;
                initialize to S begin n := 0 end;
                trans
                from S to S when P.put provided y begin n := x end;
            end;
            end.
        "#;
        let m = compiled(src);
        let (t, _) = m.instance(0);
        assert_eq!(t.when, Some((0, 0, 2)));
        assert_eq!(t.frame_size, 2);
        assert!(t.provided.is_some());
    }

    #[test]
    fn constant_folding_in_expressions() {
        let src = r#"
            specification s;
            const width = 4;
            module M process; end;
            body MB for M;
                var n : integer;
                state S;
                initialize to S begin n := width * 2 + 1 end;
            end;
            end.
        "#;
        let m = compiled(src);
        match &m.init_block[0] {
            CStmt::Assign(_, CExpr::Const(Value::Int(9)), _) => {}
            other => panic!("expected folded constant, got {:?}", other),
        }
    }

    #[test]
    fn globals_align_with_vars() {
        let src = r#"
            specification s;
            module M process; end;
            body MB for M;
                var a : integer; b : boolean;
                state S;
                initialize to S begin a := 1; b := true end;
            end;
            end.
        "#;
        let m = compiled(src);
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[0], TY_INTEGER);
        assert_eq!(m.globals[1], TY_BOOLEAN);
    }

    #[test]
    fn statelist_preserved_not_expanded() {
        let src = r#"
            specification s;
            module M process; end;
            body MB for M;
                state S1, S2, S3;
                initialize to S1 begin end;
                trans
                from S1, S2, S3 to S1 priority 1 begin end;
            end;
            end.
        "#;
        let m = compiled(src);
        assert_eq!(m.transition_count(), 1);
        assert_eq!(m.families[0].from.len(), 3);
    }
}
