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
use std::sync::Arc;

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

/// A compiled transition: one `any`-binding instance of a declaration.
#[derive(Clone, Debug)]
pub struct CompiledTransition {
    /// Index of the source `TransitionInfo` declaration.
    pub decl_index: usize,
    /// Display name: the declaration name plus any `any` bindings, e.g.
    /// `T7[k=2]`.
    pub name: String,
    /// Source states; fireable only when the control state is a member.
    pub from: Vec<StateId>,
    /// `None` = `to same`.
    pub to: Option<StateId>,
    /// Input clause: (ip index, interaction index into that IP's inputs,
    /// number of parameters). The parameters are bound to frame slots
    /// `any_bindings.len() ..` in declaration order.
    pub when: Option<(usize, usize, usize)>,
    /// The lowered guard and body are shared by the instances of one
    /// `any` declaration: the bindings live in the frame, so every
    /// instance lowers to the same code.
    pub provided: Option<Arc<CExpr>>,
    pub priority: u32,
    /// Frozen `any` values, bound to the first frame slots.
    pub any_bindings: Vec<i64>,
    /// Types of the `any` slots (for display only; bindings are ordinals).
    pub any_types: Vec<TypeId>,
    /// Frame size for executing this transition: any bindings + when params
    /// + for-loop temporaries.
    pub frame_size: usize,
    pub slot_types: Vec<TypeId>,
    pub body: Arc<[CStmt]>,
    pub span: Span,
}

impl CompiledTransition {
    /// True if the transition needs no input interaction (spontaneous).
    pub fn is_spontaneous(&self) -> bool {
        self.when.is_none()
    }
}
