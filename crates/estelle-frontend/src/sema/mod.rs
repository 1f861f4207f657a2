//! Semantic analysis.
//!
//! Checks a parsed [`Specification`] against Tango's input requirements
//! (paper §2.1) and produces the [`AnalyzedModule`] consumed by the
//! runtime compiler:
//!
//! * exactly one module header with a fully defined body;
//! * `delay` clauses rejected (Tango does not track time);
//! * `primitive` procedures/functions rejected (no external code);
//! * all names resolved: types, constants (folded), channels, interaction
//!   points, states, statesets, variables, routines;
//! * transition clauses checked: `when` against the channel definition,
//!   `provided` must be boolean, `priority` a non-negative constant,
//!   `any` domains finite ordinals;
//! * every statement and expression type-checked;
//! * lints: non-progress cycles (which would foil depth-first search),
//!   unreachable states.

mod check;
mod lint;
pub mod model;
pub mod types;

pub use model::*;
pub use types::{Type, TypeId, TypeTable, TY_BOOLEAN, TY_INTEGER};

use crate::error::{FrontendError, FrontendResult};
use crate::parser::parse_specification;
use check::Scope;
use estelle_ast::*;
use std::collections::HashMap;

/// Knobs for semantic analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemaOptions {
    /// Skip the non-progress-cycle and reachability lints.
    pub skip_lints: bool,
}

/// Parse and analyze a specification in one step.
pub fn analyze(source: &str) -> FrontendResult<AnalyzedModule> {
    let spec = parse_specification(source)?;
    analyze_spec(&spec, SemaOptions::default())
}

/// Analyze an already parsed specification.
pub fn analyze_spec(spec: &Specification, opts: SemaOptions) -> FrontendResult<AnalyzedModule> {
    let mut a = Analyzer::new(spec.name.text.clone());
    a.run(spec, opts)?;
    Ok(a.finish())
}

/// Limits that keep generated state finite and small enough to search.
const MAX_SET_SIZE: i128 = 64;
const MAX_ARRAY_SIZE: i128 = 1 << 20;
const MAX_ANY_DOMAIN: i128 = 256;
/// Instances one transition declaration's `any` clauses may expand to
/// (the product of their domain sizes).
const MAX_ANY_EXPANSION: i128 = 4096;

/// The number of values in `lo..hi`, exact for every pair of `i64`
/// bounds: `hi - lo + 1` overflows `i64` on wide ranges.
fn range_size(lo: i64, hi: i64) -> i128 {
    i128::from(hi) - i128::from(lo) + 1
}

pub(crate) struct Analyzer {
    spec_name: String,
    module_name: String,
    pub(crate) types: TypeTable,
    /// Named user types, lower-cased.
    type_names: HashMap<String, TypeId>,
    pub(crate) consts: HashMap<String, ConstValue>,
    pub(crate) enum_literals: HashMap<String, (TypeId, i64)>,
    channels: HashMap<String, ChannelInfo>,
    pub(crate) ips: Vec<IpInfo>,
    pub(crate) ip_index: HashMap<String, IpId>,
    pub(crate) states: Vec<String>,
    pub(crate) state_index: HashMap<String, StateId>,
    pub(crate) statesets: HashMap<String, Vec<StateId>>,
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) var_index: HashMap<String, VarId>,
    pub(crate) routines: Vec<RoutineInfo>,
    pub(crate) routine_index: HashMap<String, RoutineId>,
    initialize: Option<InitInfo>,
    pub(crate) transitions: Vec<TransitionInfo>,
    pub(crate) warnings: Vec<String>,
}

/// A channel's interactions grouped by sending role.
struct ChannelInfo {
    roles: Vec<String>,
    /// (sending roles, interaction signature)
    interactions: Vec<(Vec<String>, InteractionSig)>,
}

impl Analyzer {
    fn new(spec_name: String) -> Self {
        Analyzer {
            spec_name,
            module_name: String::new(),
            types: TypeTable::new(),
            type_names: HashMap::from([
                ("integer".to_string(), TY_INTEGER),
                ("boolean".to_string(), TY_BOOLEAN),
            ]),
            consts: HashMap::new(),
            enum_literals: HashMap::new(),
            channels: HashMap::new(),
            ips: Vec::new(),
            ip_index: HashMap::new(),
            states: Vec::new(),
            state_index: HashMap::new(),
            statesets: HashMap::new(),
            vars: Vec::new(),
            var_index: HashMap::new(),
            routines: Vec::new(),
            routine_index: HashMap::new(),
            initialize: None,
            transitions: Vec::new(),
            warnings: Vec::new(),
        }
    }

    fn run(&mut self, spec: &Specification, opts: SemaOptions) -> FrontendResult<()> {
        // Tango's input requirement: a single-module specification.
        if spec.body.modules.len() != 1 || spec.body.bodies.len() != 1 {
            return Err(FrontendError::sema(
                format!(
                    "Tango requires a single-module specification with one body; \
                     found {} module header(s) and {} body(ies)",
                    spec.body.modules.len(),
                    spec.body.bodies.len()
                ),
                spec.span,
            ));
        }
        let header = &spec.body.modules[0];
        let body = &spec.body.bodies[0];
        if body.for_module != header.name {
            return Err(FrontendError::sema(
                format!(
                    "body `{}` is for module `{}`, but the declared module is `{}`",
                    body.name, body.for_module, header.name
                ),
                body.span,
            ));
        }
        self.module_name = header.name.text.clone();

        // Specification-level declarations.
        self.type_section(&spec.body.types)?;
        self.const_section(&spec.body.consts)?;
        for ch in &spec.body.channels {
            self.channel(ch)?;
        }
        for ip in &header.ips {
            self.ip(ip)?;
        }

        // Module body declarations.
        self.type_section(&body.types)?;
        self.const_section(&body.consts)?;
        for s in &body.states {
            for n in &s.names {
                if self
                    .state_index
                    .insert(n.key().to_string(), StateId(self.states.len() as u32))
                    .is_some()
                {
                    return Err(FrontendError::sema(
                        format!("duplicate state `{}`", n),
                        n.span,
                    ));
                }
                self.states.push(n.text.clone());
            }
        }
        if self.states.is_empty() {
            return Err(FrontendError::sema(
                "module body declares no states".to_string(),
                body.span,
            ));
        }
        for ss in &body.statesets {
            let mut members = Vec::new();
            for m in &ss.members {
                let id = self.state_index.get(m.key()).copied().ok_or_else(|| {
                    FrontendError::sema(format!("unknown state `{}` in stateset", m), m.span)
                })?;
                members.push(id);
            }
            if self
                .statesets
                .insert(ss.name.key().to_string(), members)
                .is_some()
            {
                return Err(FrontendError::sema(
                    format!("duplicate stateset `{}`", ss.name),
                    ss.name.span,
                ));
            }
        }
        for v in &body.vars {
            let ty = self.lower_type(&v.ty)?;
            for n in &v.names {
                if self
                    .var_index
                    .insert(n.key().to_string(), VarId(self.vars.len() as u32))
                    .is_some()
                {
                    return Err(FrontendError::sema(
                        format!("duplicate variable `{}`", n),
                        n.span,
                    ));
                }
                self.vars.push(VarInfo {
                    name: n.text.clone(),
                    ty,
                });
            }
        }
        for r in &body.routines {
            self.routine(r)?;
        }

        // Initialize transition.
        let init = body.initialize.as_ref().ok_or_else(|| {
            FrontendError::sema(
                "module body has no `initialize` transition".to_string(),
                body.span,
            )
        })?;
        let to = self.resolve_state(&init.to)?;
        let scope = Scope::empty();
        for s in &init.block {
            self.check_stmt(&scope, s)?;
        }
        self.initialize = Some(InitInfo {
            to,
            block: init.block.clone(),
        });

        // Transitions.
        for (i, t) in body.transitions.iter().enumerate() {
            let info = self.transition(i, t)?;
            self.transitions.push(info);
        }

        if self.types.has_unresolved() {
            return Err(FrontendError::sema(
                "a forward-referenced pointer type was never declared".to_string(),
                body.span,
            ));
        }

        if !opts.skip_lints {
            self.lint();
        }
        Ok(())
    }

    fn finish(self) -> AnalyzedModule {
        AnalyzedModule {
            spec_name: self.spec_name,
            module_name: self.module_name,
            types: self.types,
            consts: self.consts,
            enum_literals: self.enum_literals,
            ips: self.ips,
            ip_index: self.ip_index,
            states: self.states,
            state_index: self.state_index,
            statesets: self.statesets,
            vars: self.vars,
            var_index: self.var_index,
            routines: self.routines,
            routine_index: self.routine_index,
            initialize: self.initialize.expect("run() sets initialize"),
            transitions: self.transitions,
            warnings: self.warnings,
        }
    }

    // ------------------------------------------------------------------
    // declaration lowering
    // ------------------------------------------------------------------

    /// Process one `type` section with support for forward pointer
    /// references within the section (`cell = record next : ^cell ... `).
    fn type_section(&mut self, decls: &[TypeDecl]) -> FrontendResult<()> {
        // Pre-register all names in the section.
        let mut reserved = Vec::new();
        for d in decls {
            if self.type_names.contains_key(d.name.key()) {
                return Err(FrontendError::sema(
                    format!("duplicate type `{}`", d.name),
                    d.name.span,
                ));
            }
            let id = self.types.reserve();
            self.type_names.insert(d.name.key().to_string(), id);
            reserved.push(id);
        }
        for (d, id) in decls.iter().zip(reserved) {
            let lowered = self.lower_type(&d.ty)?;
            // The reserved slot is the canonical id for this name: copy the
            // lowered structure into it so recursive references (`^cell`
            // inside `cell`) and later uses of the name agree. Enum
            // literals registered during lowering are re-pointed to it.
            let ty = self.types.get(lowered).clone();
            self.types.define(id, ty);
            for (_, entry) in self.enum_literals.iter_mut() {
                if entry.0 == lowered {
                    entry.0 = id;
                }
            }
        }
        Ok(())
    }

    fn const_section(&mut self, decls: &[ConstDecl]) -> FrontendResult<()> {
        for d in decls {
            let scope = Scope::empty();
            let value = self.fold_const(&scope, &d.value)?;
            if self.consts.insert(d.name.key().to_string(), value).is_some() {
                return Err(FrontendError::sema(
                    format!("duplicate constant `{}`", d.name),
                    d.name.span,
                ));
            }
        }
        Ok(())
    }

    /// Lower a syntactic type expression to a semantic type id.
    pub(crate) fn lower_type(&mut self, ty: &TypeExpr) -> FrontendResult<TypeId> {
        match &ty.kind {
            TypeExprKind::Named(n) => self.type_names.get(n.key()).copied().ok_or_else(|| {
                FrontendError::sema(format!("unknown type `{}`", n), n.span)
            }),
            TypeExprKind::Enum(names) => {
                let literals: Vec<String> = names.iter().map(|n| n.text.clone()).collect();
                let id = self.types.intern(Type::Enum { literals });
                for (ord, n) in names.iter().enumerate() {
                    if self
                        .enum_literals
                        .insert(n.key().to_string(), (id, ord as i64))
                        .is_some()
                    {
                        return Err(FrontendError::sema(
                            format!("duplicate enum literal `{}`", n),
                            n.span,
                        ));
                    }
                }
                Ok(id)
            }
            TypeExprKind::Subrange(lo, hi) => {
                let scope = Scope::empty();
                let lo_v = self.fold_const(&scope, lo)?;
                let hi_v = self.fold_const(&scope, hi)?;
                let base = match (lo_v, hi_v) {
                    (ConstValue::Int(_), ConstValue::Int(_)) => TY_INTEGER,
                    (ConstValue::Enum(t1, _), ConstValue::Enum(t2, _)) if t1 == t2 => t1,
                    (ConstValue::Bool(_), ConstValue::Bool(_)) => TY_BOOLEAN,
                    _ => {
                        return Err(FrontendError::sema(
                            "subrange bounds must be constants of the same ordinal type"
                                .to_string(),
                            ty.span,
                        ))
                    }
                };
                let (lo_o, hi_o) = (lo_v.ordinal(), hi_v.ordinal());
                if lo_o > hi_o {
                    return Err(FrontendError::sema(
                        format!("empty subrange {}..{}", lo_o, hi_o),
                        ty.span,
                    ));
                }
                Ok(self.types.intern(Type::Subrange {
                    base,
                    lo: lo_o,
                    hi: hi_o,
                }))
            }
            TypeExprKind::Array { index, element } => {
                let index_id = self.lower_type(index)?;
                let (lo, hi) = self.types.ordinal_range(index_id).ok_or_else(|| {
                    FrontendError::sema(
                        "array index type must be a finite ordinal".to_string(),
                        index.span,
                    )
                })?;
                if range_size(lo, hi) > MAX_ARRAY_SIZE {
                    return Err(FrontendError::sema(
                        format!("array too large ({} elements)", range_size(lo, hi)),
                        ty.span,
                    ));
                }
                let elem = self.lower_type(element)?;
                Ok(self.types.intern(Type::Array {
                    index: index_id,
                    lo,
                    hi,
                    elem,
                }))
            }
            TypeExprKind::Record(fields) => {
                let mut out = Vec::new();
                for f in fields {
                    let fty = self.lower_type(&f.ty)?;
                    for n in &f.names {
                        if out.iter().any(|(name, _)| name == n.key()) {
                            return Err(FrontendError::sema(
                                format!("duplicate record field `{}`", n),
                                n.span,
                            ));
                        }
                        out.push((n.key().to_string(), fty));
                    }
                }
                Ok(self.types.intern(Type::Record { fields: out }))
            }
            TypeExprKind::SetOf(base) => {
                let base_id = self.lower_type(base)?;
                let (lo, hi) = self.types.ordinal_range(base_id).ok_or_else(|| {
                    FrontendError::sema(
                        "set base type must be a finite ordinal".to_string(),
                        base.span,
                    )
                })?;
                if range_size(lo, hi) > MAX_SET_SIZE {
                    return Err(FrontendError::sema(
                        format!(
                            "set base range too large ({} values; limit {})",
                            range_size(lo, hi),
                            MAX_SET_SIZE
                        ),
                        ty.span,
                    ));
                }
                Ok(self.types.intern(Type::SetOf {
                    base: base_id,
                    lo,
                    hi,
                }))
            }
            TypeExprKind::Pointer(target) => {
                // Allow forward references to named types.
                if let TypeExprKind::Named(n) = &target.kind {
                    if let Some(&id) = self.type_names.get(n.key()) {
                        return Ok(self.types.intern(Type::Pointer { target: id }));
                    }
                    return Err(FrontendError::sema(
                        format!(
                            "unknown type `{}` (forward pointer references must \
                             be declared in the same type section)",
                            n
                        ),
                        n.span,
                    ));
                }
                let target = self.lower_type(target)?;
                Ok(self.types.intern(Type::Pointer { target }))
            }
        }
    }

    fn channel(&mut self, ch: &ChannelDecl) -> FrontendResult<()> {
        let roles: Vec<String> = ch.roles.iter().map(|r| r.key().to_string()).collect();
        let mut interactions = Vec::new();
        for dir in &ch.directions {
            for r in &dir.roles {
                if !roles.contains(&r.key().to_string()) {
                    return Err(FrontendError::sema(
                        format!("`by {}`: role not declared on channel `{}`", r, ch.name),
                        r.span,
                    ));
                }
            }
            let senders: Vec<String> = dir.roles.iter().map(|r| r.key().to_string()).collect();
            for i in &dir.interactions {
                let mut params = Vec::new();
                for p in &i.params {
                    let ty = self.lower_type(&p.ty)?;
                    params.push((p.name.key().to_string(), ty));
                }
                interactions.push((
                    senders.clone(),
                    InteractionSig {
                        name: i.name.key().to_string(),
                        params,
                    },
                ));
            }
        }
        if self
            .channels
            .insert(
                ch.name.key().to_string(),
                ChannelInfo {
                    roles,
                    interactions,
                },
            )
            .is_some()
        {
            return Err(FrontendError::sema(
                format!("duplicate channel `{}`", ch.name),
                ch.name.span,
            ));
        }
        Ok(())
    }

    fn ip(&mut self, ip: &IpDecl) -> FrontendResult<()> {
        let ch = self.channels.get(ip.channel.key()).ok_or_else(|| {
            FrontendError::sema(
                format!("unknown channel `{}`", ip.channel),
                ip.channel.span,
            )
        })?;
        let role = ip.role.key().to_string();
        if !ch.roles.contains(&role) {
            return Err(FrontendError::sema(
                format!(
                    "role `{}` is not declared on channel `{}`",
                    ip.role, ip.channel
                ),
                ip.role.span,
            ));
        }
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for (senders, sig) in &ch.interactions {
            if senders.contains(&role) {
                outputs.push(sig.clone());
            }
            if senders.iter().any(|s| *s != role) {
                inputs.push(sig.clone());
            }
        }
        let id = IpId(self.ips.len() as u32);
        if self.ip_index.insert(ip.name.key().to_string(), id).is_some() {
            return Err(FrontendError::sema(
                format!("duplicate interaction point `{}`", ip.name),
                ip.name.span,
            ));
        }
        self.ips.push(IpInfo {
            name: ip.name.text.clone(),
            inputs,
            outputs,
        });
        Ok(())
    }

    fn routine(&mut self, r: &RoutineDecl) -> FrontendResult<()> {
        let body = r.body.as_ref().ok_or_else(|| {
            FrontendError::sema(
                format!(
                    "`{}` is primitive; Tango does not support primitive \
                     functions and procedures",
                    r.name
                ),
                r.span,
            )
        })?;
        let mut params = Vec::new();
        for p in &r.params {
            let ty = self.lower_type(&p.ty)?;
            for n in &p.names {
                params.push(ParamSig {
                    name: n.key().to_string(),
                    ty,
                    by_ref: p.by_ref,
                });
            }
        }
        let result = match &r.result {
            Some(t) => Some(self.lower_type(t)?),
            None => None,
        };
        let mut consts = HashMap::new();
        for c in &r.consts {
            let scope = Scope::empty();
            let v = self.fold_const(&scope, &c.value)?;
            consts.insert(c.name.key().to_string(), v);
        }
        if !r.types.is_empty() {
            // Routine-local types would need scoped cleanup; no protocol in
            // the evaluation uses them.
            return Err(FrontendError::sema(
                "routine-local type declarations are not supported".to_string(),
                r.types[0].span,
            ));
        }
        let mut locals = Vec::new();
        for v in &r.vars {
            let ty = self.lower_type(&v.ty)?;
            for n in &v.names {
                locals.push((n.key().to_string(), ty));
            }
        }

        // Register the signature before checking the body so that direct
        // recursion resolves (Pascal allows it without a forward decl).
        let id = RoutineId(self.routines.len() as u32);
        if self
            .routine_index
            .insert(r.name.key().to_string(), id)
            .is_some()
        {
            return Err(FrontendError::sema(
                format!("duplicate routine `{}`", r.name),
                r.name.span,
            ));
        }
        self.routines.push(RoutineInfo {
            name: r.name.text.clone(),
            params: params.clone(),
            result,
            consts: consts.clone(),
            locals: locals.clone(),
            body: Vec::new(),
        });

        // Check the body with parameters, locals, routine consts and the
        // function-result pseudo-variable in scope.
        let mut scope = Scope::empty();
        for p in &params {
            scope.insert(p.name.clone(), p.ty);
        }
        for (n, t) in &locals {
            scope.insert(n.clone(), *t);
        }
        for (n, v) in &consts {
            scope.insert_const(n.clone(), *v);
        }
        if let Some(res) = result {
            scope.insert(r.name.key().to_string(), res);
        }
        for s in body {
            self.check_stmt(&scope, s)?;
        }

        self.routines[id.0 as usize].body = body.clone();
        Ok(())
    }

    fn resolve_state(&self, n: &Ident) -> FrontendResult<StateId> {
        self.state_index.get(n.key()).copied().ok_or_else(|| {
            FrontendError::sema(format!("unknown state `{}`", n), n.span)
        })
    }

    fn transition(&mut self, index: usize, t: &Transition) -> FrontendResult<TransitionInfo> {
        if let Some(d) = &t.delay {
            return Err(FrontendError::sema(
                "`delay` clauses are not supported: Tango trace files carry \
                 no time stamps and the analyzer does not simulate time"
                    .to_string(),
                d.span,
            ));
        }

        // `from` entries may be states or statesets.
        let mut from = Vec::new();
        for f in &t.from {
            if let Some(&id) = self.state_index.get(f.key()) {
                from.push(id);
            } else if let Some(members) = self.statesets.get(f.key()) {
                from.extend(members.iter().copied());
            } else {
                return Err(FrontendError::sema(
                    format!("unknown state or stateset `{}`", f),
                    f.span,
                ));
            }
        }
        from.sort();
        from.dedup();

        let to = match &t.to {
            ToClause::Same => None,
            ToClause::State(s) => Some(self.resolve_state(s)?),
        };

        // `any` variables come into scope for provided and the block.
        let mut scope = Scope::empty();
        let mut any = Vec::new();
        let mut instances: i128 = 1;
        for a in &t.any {
            let ty = self.lower_type(&a.ty)?;
            let (lo, hi) = self.types.ordinal_range(ty).ok_or_else(|| {
                FrontendError::sema(
                    "`any` domain must be a finite ordinal type".to_string(),
                    a.span,
                )
            })?;
            let size = range_size(lo, hi);
            if size > MAX_ANY_DOMAIN {
                return Err(FrontendError::sema(
                    format!(
                        "`any` domain too large ({} values; limit {})",
                        size, MAX_ANY_DOMAIN
                    ),
                    a.span,
                ));
            }
            instances *= size;
            if instances > MAX_ANY_EXPANSION {
                return Err(FrontendError::sema(
                    format!(
                        "`any` clauses expand to {} instances (limit {})",
                        instances, MAX_ANY_EXPANSION
                    ),
                    a.span,
                ));
            }
            scope.insert(a.var.key().to_string(), ty);
            any.push((a.var.key().to_string(), ty));
        }

        // `when` clause: the interaction must be receivable at that IP, and
        // its parameters come into scope.
        let when = match &t.when {
            None => None,
            Some(w) => {
                let ip_id = *self.ip_index.get(w.ip.key()).ok_or_else(|| {
                    FrontendError::sema(
                        format!("unknown interaction point `{}`", w.ip),
                        w.ip.span,
                    )
                })?;
                let ip = &self.ips[ip_id.0 as usize];
                let idx = ip.input_index(w.interaction.key()).ok_or_else(|| {
                    FrontendError::sema(
                        format!(
                            "interaction `{}` cannot be received at `{}`",
                            w.interaction, w.ip
                        ),
                        w.interaction.span,
                    )
                })?;
                for (pname, pty) in &ip.inputs[idx].params {
                    scope.insert(pname.clone(), *pty);
                }
                Some((ip_id, idx))
            }
        };

        if let Some(p) = &t.provided {
            self.check_bool_expr(&scope, p)?;
        }
        let priority = match &t.priority {
            None => DEFAULT_PRIORITY,
            Some(p) => {
                let v = self.fold_const(&Scope::empty(), p)?;
                match v {
                    ConstValue::Int(n) if n >= 0 => n as u32,
                    _ => {
                        return Err(FrontendError::sema(
                            "priority must be a non-negative integer constant".to_string(),
                            p.span,
                        ))
                    }
                }
            }
        };

        for s in &t.block {
            self.check_stmt(&scope, s)?;
        }

        let name = t
            .name
            .as_ref()
            .map(|n| n.text.clone())
            .unwrap_or_else(|| format!("t#{}", index + 1));

        Ok(TransitionInfo {
            name,
            from,
            to,
            when,
            provided: t.provided.clone(),
            priority,
            any,
            block: t.block.clone(),
            span: t.span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(extra_body: &str) -> String {
        format!(
            r#"
            specification s;
            channel C(peer, me); by peer: ping(n : integer); by me: pong(n : integer); end;
            module M process; ip P : C(me); end;
            body MB for M;
                var count : integer;
                state Idle, Busy;
                initialize to Idle begin count := 0 end;
                {}
            end;
            end.
            "#,
            extra_body
        )
    }

    #[test]
    fn analyzes_valid_module() {
        let m = analyze(&tiny(
            "trans from Idle to Busy when P.ping provided n > 0 name T1: \
             begin count := count + n; output P.pong(count) end;",
        ))
        .expect("analyzes");
        assert_eq!(m.module_name, "M");
        assert_eq!(m.states, vec!["Idle", "Busy"]);
        assert_eq!(m.transitions.len(), 1);
        let t = &m.transitions[0];
        assert_eq!(t.name, "T1");
        assert_eq!(t.from, vec![StateId(0)]);
        assert_eq!(t.to, Some(StateId(1)));
        assert_eq!(t.when, Some((IpId(0), 0)));
    }

    #[test]
    fn ip_direction_split() {
        let m = analyze(&tiny("")).unwrap();
        let ip = &m.ips[0];
        assert_eq!(ip.inputs.len(), 1);
        assert_eq!(ip.inputs[0].name, "ping");
        assert_eq!(ip.outputs.len(), 1);
        assert_eq!(ip.outputs[0].name, "pong");
    }

    #[test]
    fn delay_rejected_with_explanation() {
        let err = analyze(&tiny(
            "trans from Idle to Idle delay(5) begin end;",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("delay"));
    }

    #[test]
    fn primitive_rejected() {
        let err = analyze(&tiny(
            "function f(x : integer) : integer; primitive;",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("primitive"));
    }

    #[test]
    fn multi_module_rejected() {
        let src = r#"
            specification s;
            module A process; end;
            module B process; end;
            body AB for A; state S; initialize to S begin end; end;
            body BB for B; state S; initialize to S begin end; end;
            end.
        "#;
        let err = analyze(src).unwrap_err();
        assert!(err.to_string().contains("single-module"));
    }

    #[test]
    fn missing_initialize_rejected() {
        let src = r#"
            specification s;
            module M process; end;
            body MB for M; state S; end;
            end.
        "#;
        let err = analyze(src).unwrap_err();
        assert!(err.to_string().contains("initialize"));
    }

    #[test]
    fn when_against_wrong_direction_rejected() {
        // `pong` is sent by `me`, so it cannot be received at P.
        let err = analyze(&tiny(
            "trans from Idle to Idle when P.pong begin end;",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("cannot be received"));
    }

    #[test]
    fn stateset_in_from_expands() {
        let src = r#"
            specification s;
            module M process; end;
            body MB for M;
                state S1, S2, S3;
                stateset Busy = [S2, S3];
                initialize to S1 begin end;
                trans from Busy to S1 name back: begin end;
            end;
            end.
        "#;
        let m = analyze(src).unwrap();
        assert_eq!(m.transitions[0].from, vec![StateId(1), StateId(2)]);
    }

    #[test]
    fn forward_pointer_type() {
        let src = r#"
            specification s;
            module M process; end;
            body MB for M;
                type cell = record v : integer; next : ^cell end;
                var head : ^cell;
                state S;
                initialize to S begin head := nil end;
            end;
            end.
        "#;
        let m = analyze(src).unwrap();
        assert!(!m.types.has_unresolved());
    }

    #[test]
    fn any_clause_domain_checked() {
        let m = analyze(&tiny(
            "trans from Idle to Idle any k : 0..3 do name TK: begin count := k end;",
        ))
        .unwrap();
        assert_eq!(m.transitions[0].any.len(), 1);

        let err = analyze(&tiny(
            "trans from Idle to Idle any k : integer do begin end;",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("finite ordinal"));
    }

    #[test]
    fn any_expansion_limit_is_a_spanned_sema_error() {
        // Each domain is within its own limit; their product is not.
        let src = tiny(
            "trans from Idle to Idle any i : 0..255 do any j : 0..255 do \
             name Wide: begin count := i + j end;",
        );
        let err = analyze(&src).unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Sema);
        assert!(
            err.message.contains("65536 instances (limit 4096)"),
            "{}",
            err.message
        );
        assert_eq!(&src[err.span.start as usize..err.span.end as usize], "j : 0..255 do");
    }

    #[test]
    fn synthesized_transition_names() {
        let m = analyze(&tiny(
            "trans from Idle to Idle begin end; from Idle to Busy begin end;",
        ))
        .unwrap();
        assert_eq!(m.transitions[0].name, "t#1");
        assert_eq!(m.transitions[1].name, "t#2");
    }

    #[test]
    fn priority_folding() {
        let m = analyze(&tiny(
            "trans from Idle to Idle priority 2 begin end; from Idle to Busy begin end;",
        ))
        .unwrap();
        assert_eq!(m.transitions[0].priority, 2);
        assert_eq!(m.transitions[1].priority, DEFAULT_PRIORITY);
    }
}
