//! Abstract syntax tree for the Estelle formal description language.
//!
//! Estelle (ISO 9074) specifies communicating extended finite state machines
//! and may be viewed as a set of extensions to Pascal. This crate defines the
//! syntax tree produced by the `estelle-frontend` parser and consumed by the
//! `estelle-runtime` compiler — the static model that the original NIST
//! *Pet* translator would have emitted for *Dingo*.
//!
//! The subset covered is the one accepted by Tango (Ezust & Bochmann,
//! SIGCOMM '95): single-module specifications with a fully defined module
//! body. `delay` clauses and `primitive` routines are *representable* in the
//! tree (so the parser can give a precise diagnostic) but are rejected during
//! semantic analysis, exactly as Tango rejects them.
//!
//! Layout:
//! * [`span`] — byte-offset source spans carried by every node.
//! * [`ident`] — identifiers (case-insensitive, as in Pascal).
//! * [`types`] — type expressions (ordinals, subranges, arrays, records,
//!   sets, pointers).
//! * [`expr`] — Pascal expressions.
//! * [`stmt`] — Pascal statements plus the Estelle `output` statement.
//! * [`decl`] — declarations: constants, types, variables, channels,
//!   interaction points, procedures/functions, states and transitions.
//! * [`spec`] — the top-level specification node.
//! * [`print()`](crate::print) — a pretty printer that renders a tree back to Estelle text.

pub mod decl;
pub mod expr;
pub mod ident;
pub mod print;
pub mod span;
pub mod spec;
pub mod stmt;
pub mod types;

pub use decl::*;
pub use expr::{BinOp, Expr, ExprKind, UnOp};
pub use ident::Ident;
pub use span::Span;
pub use spec::{Specification, SpecificationBody};
pub use stmt::{CaseArm, ForDirection, Stmt, StmtKind};
pub use types::{FieldDecl, TypeExpr, TypeExprKind};
