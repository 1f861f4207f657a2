//! The compiled intermediate representation.
//!
//! The compiler (the *Dingo* analog) lowers an analyzed module into this
//! slot-addressed IR: names are resolved to indices, record fields to field
//! positions, array bounds are cached, enum literals and constants are
//! folded into values. The interpreter executes the IR directly; nothing in
//! it requires name lookups at run time.

use crate::value::Value;
use estelle_ast::{BinOp, Span, UnOp};
use estelle_frontend::sema::model::StateId;
use estelle_frontend::sema::types::TypeId;

/// Where a scalar variable lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Module-level variable: index into the global store.
    Global(usize),
    /// Routine parameter/local, `when` parameter, `any` binding or for-loop
    /// variable of the current frame.
    Local(usize),
}

/// A compiled expression.
#[derive(Clone, Debug)]
pub enum CExpr {
    /// A folded constant or literal.
    Const(Value),
    Read(Slot),
    /// Record field by position.
    Field(Box<CExpr>, usize),
    /// `base[idx]`; `lo`/`len` are the array's cached bounds.
    Index {
        base: Box<CExpr>,
        index: Box<CExpr>,
        lo: i64,
        len: usize,
    },
    Deref(Box<CExpr>),
    Unary(UnOp, Box<CExpr>, Span),
    Binary(BinOp, Box<CExpr>, Box<CExpr>, Span),
    Call(CCall),
    /// Set constructor; elements evaluate to ordinals, ranges expand at
    /// evaluation time.
    SetCtor(Vec<CSetElem>, Span),
}

/// One element of a compiled set constructor.
#[derive(Clone, Debug)]
pub enum CSetElem {
    Single(CExpr),
    Range(CExpr, CExpr),
}

/// A compiled routine invocation (expression or statement position).
#[derive(Clone, Debug)]
pub struct CCall {
    pub routine: usize,
    pub args: Vec<CArg>,
    pub span: Span,
}

/// An actual argument.
#[derive(Clone, Debug)]
pub enum CArg {
    /// Pass by value.
    Value(CExpr),
    /// Pass by reference (`var` parameter): a place evaluated at call time.
    Ref(CPlace),
}

/// A compiled storage location (l-value).
#[derive(Clone, Debug)]
pub enum CPlace {
    Var(Slot),
    Field(Box<CPlace>, usize),
    Index {
        base: Box<CPlace>,
        index: Box<CExpr>,
        lo: i64,
        len: usize,
        span: Span,
    },
    Deref(Box<CPlace>, Span),
}

/// A compiled statement.
#[derive(Clone, Debug)]
pub enum CStmt {
    Assign(CPlace, CExpr, Span),
    If(CExpr, Vec<CStmt>, Vec<CStmt>, Span),
    While(CExpr, Vec<CStmt>, Span),
    Repeat(Vec<CStmt>, CExpr, Span),
    For {
        var: CPlace,
        from: CExpr,
        down: bool,
        to: CExpr,
        body: Vec<CStmt>,
        span: Span,
    },
    /// Labels are folded ordinals.
    Case {
        scrutinee: CExpr,
        arms: Vec<(Vec<i64>, Vec<CStmt>)>,
        else_arm: Option<Vec<CStmt>>,
        span: Span,
    },
    Output {
        ip: usize,
        interaction: usize,
        args: Vec<CExpr>,
        span: Span,
    },
    Call(CCall),
    /// `new(place)` — the pointee type drives default-value construction.
    New(CPlace, TypeId, Span),
    Dispose(CPlace, Span),
}

/// A compiled procedure/function.
#[derive(Clone, Debug)]
pub struct CompiledRoutine {
    pub name: String,
    /// Number of parameters; their frame slots are `0..params`.
    pub params: usize,
    /// Which parameters are by-reference.
    pub by_ref: Vec<bool>,
    /// Total frame size: params + locals (+ result slot for functions).
    pub frame_size: usize,
    /// Frame slot of the function result, if a function.
    pub result_slot: Option<usize>,
    /// Types of each frame slot, used to build default local values.
    pub slot_types: Vec<TypeId>,
    pub body: Vec<CStmt>,
}

/// One transition declaration, lowered once. A declaration without `any`
/// clauses is one compiled transition; with them it is a *family*, one
/// compiled transition (an *instance*) per row of its binding table. The
/// bindings live in the leading frame slots, so every instance runs the
/// family's one guard and body.
#[derive(Clone, Debug)]
pub struct TransitionFamily {
    /// Source states; fireable only when the control state is a member.
    pub from: Vec<StateId>,
    /// `None` = `to same`.
    pub to: Option<StateId>,
    /// Input clause: (ip index, interaction index into that IP's inputs,
    /// number of parameters). The parameters are bound to frame slots
    /// `arity ..` in declaration order.
    pub when: Option<(usize, usize, usize)>,
    pub provided: Option<CExpr>,
    pub priority: u32,
    /// Number of `any` variables: the first `arity` frame slots.
    pub arity: usize,
    /// Frame size for executing an instance: any bindings + when params.
    pub frame_size: usize,
    /// Types of the frame slots; the first `arity` are the `any` types.
    pub slot_types: Vec<TypeId>,
    pub body: Vec<CStmt>,
    pub span: Span,
    /// Compiled index of the first instance; row `r` is `first + r`.
    pub first: usize,
    /// Number of instances (1 without `any`).
    pub rows: usize,
    /// The binding table, row-major, `arity` ordinals a row, rows in
    /// binding order (the last `any` variable varies fastest).
    pub bindings: Vec<i64>,
}

impl TransitionFamily {
    /// Row `r` of the binding table.
    pub fn binding(&self, r: usize) -> &[i64] {
        &self.bindings[r * self.arity..(r + 1) * self.arity]
    }
}

/// A compiled transition: one instance of a [`TransitionFamily`].
#[derive(Clone, Copy, Debug)]
pub struct CompiledTransition {
    /// Index of the source declaration and of its family.
    pub decl_index: usize,
    /// Row in the family's binding table.
    pub row: usize,
}
