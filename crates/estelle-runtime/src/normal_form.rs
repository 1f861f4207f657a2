//! The §5.3 normal-form transformation.
//!
//! Partial-trace analysis cannot execute control statements whose condition
//! is undefined. The paper's remedy is "a straightforward transformation of
//! the specification into a normal form \[16\] which eliminates `case` and
//! `if/then/else` statements by adding states and transitions": each
//! transition whose body branches is split into one transition per branch,
//! with the branch condition conjoined onto the `provided` clause — turning
//! data-dependent control flow into fireability nondeterminism, which the
//! backtracking search already handles (undefined `provided` clauses are
//! assumed true, §5.1).
//!
//! The transformation is applied on the syntax tree, so its result can be
//! pretty-printed, re-analyzed and compiled like any hand-written
//! specification.
//!
//! Soundness precondition: the lifted condition must be evaluated in the
//! *pre-transition* state, so a branch is only lifted when no statement
//! before it in the block can modify a variable the condition reads. Loops
//! (`while`/`repeat`/`for`) are not eliminable this way — the paper notes
//! supporting them "is impractical" — and are reported instead.

use estelle_ast::expr::SetElem;
use estelle_ast::*;
use std::collections::HashSet;
use std::fmt;

/// Why a transition could not be normalized.
#[derive(Debug, Clone)]
pub struct NormalFormError {
    pub transition: String,
    pub reason: String,
    pub span: Span,
}

impl fmt::Display for NormalFormError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot normalize transition `{}`: {}",
            self.transition, self.reason
        )
    }
}

impl std::error::Error for NormalFormError {}

/// Transform every module body of the specification.
pub fn normalize_specification(spec: &Specification) -> Result<Specification, NormalFormError> {
    let mut out = spec.clone();
    for body in &mut out.body.bodies {
        *body = normalize_body(body)?;
    }
    Ok(out)
}

/// Split branching transitions of one module body into branch-free ones.
pub fn normalize_body(body: &ModuleBody) -> Result<ModuleBody, NormalFormError> {
    let mut out = body.clone();
    let mut transitions = Vec::new();
    for t in &body.transitions {
        normalize_transition(t, &mut transitions)?;
    }
    out.transitions = transitions;
    Ok(out)
}

fn normalize_transition(
    t: &Transition,
    out: &mut Vec<Transition>,
) -> Result<(), NormalFormError> {
    let t_name = t
        .name
        .as_ref()
        .map(|n| n.text.clone())
        .unwrap_or_else(|| "<unnamed>".to_string());

    // Work queue of variants still possibly containing branches.
    let mut seed = t.clone();
    seed.block = flatten_block(&seed.block);
    let mut queue = vec![seed];
    let mut guard_iterations = 0usize;
    while let Some(variant) = queue.pop() {
        guard_iterations += 1;
        if guard_iterations > 4096 {
            return Err(NormalFormError {
                transition: t_name.clone(),
                reason: "normal-form expansion exceeded 4096 variants".to_string(),
                span: t.span,
            });
        }
        match split_first_branch(&variant, &t_name)? {
            None => out.push(variant),
            Some(variants) => queue.extend(variants),
        }
    }
    Ok(())
}

/// If the block contains a liftable `if`/`case`, produce one variant per
/// branch; `None` when the block is already branch-free.
fn split_first_branch(
    t: &Transition,
    t_name: &str,
) -> Result<Option<Vec<Transition>>, NormalFormError> {
    let Some(pos) = t.block.iter().position(|s| s.kind.is_control()) else {
        return Ok(None);
    };
    let stmt = &t.block[pos];

    // Reject loops: not expressible as guard strengthening.
    if matches!(
        stmt.kind,
        StmtKind::While { .. } | StmtKind::Repeat { .. } | StmtKind::For { .. }
    ) {
        return Err(NormalFormError {
            transition: t_name.to_string(),
            reason: "loops cannot be eliminated by the normal-form transformation"
                .to_string(),
            span: stmt.span,
        });
    }

    // Soundness: nothing before the branch may write what the condition
    // reads (and no routine call, whose effects we cannot see).
    let cond_reads = match &stmt.kind {
        StmtKind::If { cond, .. } => expr_names(cond),
        StmtKind::Case { scrutinee, .. } => expr_names(scrutinee),
        _ => unreachable!("only if/case reach here"),
    };
    for before in &t.block[..pos] {
        if stmt_may_write(before, &cond_reads) {
            return Err(NormalFormError {
                transition: t_name.to_string(),
                reason: format!(
                    "a statement before the branch may modify `{}`, which the \
                     branch condition reads",
                    cond_reads.iter().cloned().collect::<Vec<_>>().join("`, `")
                ),
                span: before.span,
            });
        }
    }

    let prefix = &t.block[..pos];
    let suffix = &t.block[pos + 1..];
    let mut variants = Vec::new();

    let mut push_variant = |extra_guard: Expr, branch_body: Vec<Stmt>| {
        let mut v = t.clone();
        v.provided = Some(match &t.provided {
            None => extra_guard,
            Some(p) => Expr::new(
                ExprKind::Binary(
                    BinOp::And,
                    Box::new(p.clone()),
                    Box::new(extra_guard),
                ),
                p.span,
            ),
        });
        let mut block = prefix.to_vec();
        block.extend(branch_body);
        block.extend_from_slice(suffix);
        v.block = flatten_block(&block);
        // Variant names keep the origin visible in diagnostics and stats.
        v.name = t
            .name
            .as_ref()
            .map(|n| Ident::new(format!("{}_nf{}", n.text, variants.len() + 1), n.span));
        variants.push(v);
    };

    match &stmt.kind {
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            push_variant(cond.clone(), vec![(**then_branch).clone()]);
            let not_cond = Expr::new(
                ExprKind::Unary(UnOp::Not, Box::new(cond.clone())),
                cond.span,
            );
            let else_body = match else_branch {
                Some(e) => vec![(**e).clone()],
                None => Vec::new(),
            };
            push_variant(not_cond, else_body);
        }
        StmtKind::Case {
            scrutinee,
            arms,
            else_arm,
        } => {
            let mut all_labels: Vec<Expr> = Vec::new();
            for arm in arms {
                // provided: scrutinee = l1 or scrutinee = l2 ...
                let guard = arm
                    .labels
                    .iter()
                    .map(|l| {
                        Expr::new(
                            ExprKind::Binary(
                                BinOp::Eq,
                                Box::new(scrutinee.clone()),
                                Box::new(l.clone()),
                            ),
                            l.span,
                        )
                    })
                    .reduce(|a, b| {
                        let span = a.span.to(b.span);
                        Expr::new(ExprKind::Binary(BinOp::Or, Box::new(a), Box::new(b)), span)
                    })
                    .expect("case arms have at least one label");
                all_labels.extend(arm.labels.iter().cloned());
                push_variant(guard, vec![arm.body.clone()]);
            }
            // The else (or implicit fall-through) variant: none of the
            // labels matched.
            let none_match = all_labels
                .iter()
                .map(|l| {
                    Expr::new(
                        ExprKind::Binary(
                            BinOp::Ne,
                            Box::new(scrutinee.clone()),
                            Box::new(l.clone()),
                        ),
                        l.span,
                    )
                })
                .reduce(|a, b| {
                    let span = a.span.to(b.span);
                    Expr::new(ExprKind::Binary(BinOp::And, Box::new(a), Box::new(b)), span)
                })
                .unwrap_or_else(|| Expr::new(ExprKind::BoolLit(true), stmt.span));
            let else_body = else_arm.clone().unwrap_or_default();
            push_variant(none_match, else_body);
        }
        _ => unreachable!(),
    }

    Ok(Some(variants))
}

/// Inline `begin ... end` groups so every branch sits at block top level
/// where the splitter can see it. Compound statements carry no scope in
/// Pascal, so flattening is semantics-preserving.
fn flatten_block(block: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(block.len());
    for s in block {
        match &s.kind {
            StmtKind::Compound(inner) => out.extend(flatten_block(inner)),
            StmtKind::Empty => {}
            _ => out.push(s.clone()),
        }
    }
    out
}

/// All root identifiers an expression reads.
fn expr_names(e: &Expr) -> HashSet<String> {
    let mut names = HashSet::new();
    collect_names(e, &mut names);
    names
}

fn collect_names(e: &Expr, names: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::NilLit => {}
        ExprKind::Name(n) => {
            names.insert(n.key().to_string());
        }
        ExprKind::Field(base, _) | ExprKind::Deref(base) | ExprKind::Unary(_, base) => {
            collect_names(base, names)
        }
        ExprKind::Index(l, r) | ExprKind::Binary(_, l, r) => {
            collect_names(l, names);
            collect_names(r, names);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                collect_names(a, names);
            }
        }
        ExprKind::SetCtor(elems) => {
            for el in elems {
                match el {
                    SetElem::Single(x) => collect_names(x, names),
                    SetElem::Range(lo, hi) => {
                        collect_names(lo, names);
                        collect_names(hi, names);
                    }
                }
            }
        }
    }
}

/// Conservative: can executing `s` modify any of `names`?
fn stmt_may_write(s: &Stmt, names: &HashSet<String>) -> bool {
    match &s.kind {
        StmtKind::Empty | StmtKind::Output { .. } => false,
        StmtKind::Assign { target, .. } => root_name(target)
            .map(|n| names.contains(&n))
            .unwrap_or(true),
        // Routine calls and dynamic memory can alias anything we read
        // through pointers; stay conservative.
        StmtKind::ProcCall { .. } | StmtKind::New(_) | StmtKind::Dispose(_) => true,
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            stmt_may_write(then_branch, names)
                || else_branch
                    .as_deref()
                    .map(|e| stmt_may_write(e, names))
                    .unwrap_or(false)
        }
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => stmt_may_write(body, names),
        StmtKind::Repeat { body, .. } => body.iter().any(|s| stmt_may_write(s, names)),
        StmtKind::Case { arms, else_arm, .. } => {
            arms.iter().any(|a| stmt_may_write(&a.body, names))
                || else_arm
                    .as_ref()
                    .map(|b| b.iter().any(|s| stmt_may_write(s, names)))
                    .unwrap_or(false)
        }
        StmtKind::Compound(stmts) => stmts.iter().any(|s| stmt_may_write(s, names)),
    }
}

/// The root identifier of an l-value, if it has one.
fn root_name(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Name(n) => Some(n.key().to_string()),
        ExprKind::Field(base, _) | ExprKind::Index(base, _) | ExprKind::Deref(base) => {
            root_name(base)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle_frontend::parse_specification;

    fn spec_with(trans: &str) -> Specification {
        parse_specification(&format!(
            r#"
            specification s;
            channel C(a, b); by a: get(n : integer); by b: lo; hi; end;
            module M process; ip P : C(b); end;
            body MB for M;
                var x : integer;
                state S1, S2;
                initialize to S1 begin x := 0 end;
                trans
                {}
            end;
            end.
            "#,
            trans
        ))
        .expect("parses")
    }

    #[test]
    fn if_splits_into_two_guarded_transitions() {
        let spec = spec_with(
            "from S1 to S2 when P.get name T: begin \
               if n > 5 then output P.hi else output P.lo; \
               x := x + 1 \
             end;",
        );
        let norm = normalize_specification(&spec).expect("normalizes");
        let body = &norm.body.bodies[0];
        assert_eq!(body.transitions.len(), 2);
        for t in &body.transitions {
            assert!(t.provided.is_some());
            assert!(!t.block.iter().any(|s| s.kind.is_control()));
            assert_eq!(t.block.len(), 2); // branch body + x := x + 1
        }
        // The normalized spec must re-analyze cleanly.
        estelle_frontend::analyze_spec(&norm, Default::default()).expect("re-analyzes");
    }

    #[test]
    fn case_splits_per_arm_plus_else() {
        let spec = spec_with(
            "from S1 to S1 when P.get name T: begin \
               case n of 1 : output P.lo; 2, 3 : output P.hi else x := 9 end \
             end;",
        );
        let norm = normalize_specification(&spec).unwrap();
        // arm(1), arm(2,3), else → 3 transitions.
        assert_eq!(norm.body.bodies[0].transitions.len(), 3);
        estelle_frontend::analyze_spec(&norm, Default::default()).expect("re-analyzes");
    }

    #[test]
    fn nested_ifs_fully_flatten() {
        let spec = spec_with(
            "from S1 to S1 when P.get name T: begin \
               if n > 0 then begin if n > 10 then output P.hi else output P.lo end \
             end;",
        );
        let norm = normalize_specification(&spec).unwrap();
        let trans = &norm.body.bodies[0].transitions;
        assert!(trans.len() >= 3);
        assert!(trans
            .iter()
            .all(|t| !t.block.iter().any(|s| s.kind.is_control())));
    }

    #[test]
    fn write_before_branch_is_rejected() {
        let spec = spec_with(
            "from S1 to S1 when P.get name T: begin \
               x := n; \
               if x > 5 then output P.hi \
             end;",
        );
        let err = normalize_specification(&spec).unwrap_err();
        assert!(err.reason.contains("modify"));
    }

    #[test]
    fn loops_are_rejected() {
        let spec = spec_with(
            "from S1 to S1 when P.get name T: begin \
               while x > 0 do x := x - 1 \
             end;",
        );
        let err = normalize_specification(&spec).unwrap_err();
        assert!(err.reason.contains("loops"));
    }

    #[test]
    fn branch_free_specs_pass_through() {
        let spec = spec_with("from S1 to S2 when P.get name T: begin x := n end;");
        let norm = normalize_specification(&spec).unwrap();
        assert_eq!(norm.body.bodies[0].transitions.len(), 1);
    }
}
