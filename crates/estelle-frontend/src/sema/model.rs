//! The analyzed module — the checked static model handed to the runtime.

use crate::sema::types::{TypeId, TypeTable};
use estelle_ast::{Expr, Span, Stmt};
use std::collections::HashMap;

/// Index of an interaction point in [`AnalyzedModule::ips`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IpId(pub u32);

/// Index of a module state in [`AnalyzedModule::states`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StateId(pub u32);

/// Index of a module-level variable in [`AnalyzedModule::vars`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarId(pub u32);

/// Index of a routine in [`AnalyzedModule::routines`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RoutineId(pub u32);

/// A compile-time constant value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ConstValue {
    Int(i64),
    Bool(bool),
    /// An enum literal: its type and ordinal value.
    Enum(TypeId, i64),
}

impl ConstValue {
    /// The ordinal of the constant, for contexts that need one (subrange
    /// bounds, case labels, `any` domains).
    pub fn ordinal(&self) -> i64 {
        match self {
            ConstValue::Int(v) => *v,
            ConstValue::Bool(b) => *b as i64,
            ConstValue::Enum(_, v) => *v,
        }
    }
}

/// The signature of one interaction on a channel direction.
#[derive(Clone, Debug)]
pub struct InteractionSig {
    pub name: String,
    /// Parameter names (lower-cased) and their types.
    pub params: Vec<(String, TypeId)>,
}

/// One interaction point with the interactions it can receive and send.
#[derive(Clone, Debug)]
pub struct IpInfo {
    pub name: String,
    /// Interactions this module may *receive* at this point (sent by the
    /// peer role of the channel).
    pub inputs: Vec<InteractionSig>,
    /// Interactions this module may *send* through this point.
    pub outputs: Vec<InteractionSig>,
}

impl IpInfo {
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|i| i.name == name)
    }
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|i| i.name == name)
    }
}

/// A module-level variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    pub name: String,
    pub ty: TypeId,
}

/// A checked procedure or function.
#[derive(Clone, Debug)]
pub struct RoutineInfo {
    pub name: String,
    pub params: Vec<ParamSig>,
    /// `Some` for functions.
    pub result: Option<TypeId>,
    pub consts: HashMap<String, ConstValue>,
    pub locals: Vec<(String, TypeId)>,
    pub body: Vec<Stmt>,
}

/// A routine formal parameter.
#[derive(Clone, Debug)]
pub struct ParamSig {
    pub name: String,
    pub ty: TypeId,
    pub by_ref: bool,
}

/// The checked `initialize` transition.
#[derive(Clone, Debug)]
pub struct InitInfo {
    pub to: StateId,
    pub block: Vec<Stmt>,
}

/// One checked transition declaration (before `any`/state-list expansion,
/// which the runtime compiler performs).
#[derive(Clone, Debug)]
pub struct TransitionInfo {
    /// Declared `name` or a synthesized `t#<index>`.
    pub name: String,
    pub from: Vec<StateId>,
    /// `None` encodes `to same`.
    pub to: Option<StateId>,
    /// Input clause: interaction point and index into that IP's `inputs`.
    pub when: Option<(IpId, usize)>,
    pub provided: Option<Expr>,
    /// Estelle priority: smaller value fires preferentially; transitions
    /// without a clause get the lowest priority.
    pub priority: u32,
    /// `any` replication variables with finite ordinal domains.
    pub any: Vec<(String, TypeId)>,
    pub block: Vec<Stmt>,
    pub span: Span,
}

/// The lowest priority class, assigned to transitions without a `priority`
/// clause.
pub const DEFAULT_PRIORITY: u32 = u32::MAX;

/// A fully analyzed single-module specification: Tango's input model.
#[derive(Clone, Debug)]
pub struct AnalyzedModule {
    pub spec_name: String,
    pub module_name: String,
    pub types: TypeTable,
    /// Module- and specification-level constants (lower-cased names).
    pub consts: HashMap<String, ConstValue>,
    /// Enum literal table: literal name → (enum type, ordinal). Built from
    /// every enum type in scope; Pascal requires literal names be unique.
    pub enum_literals: HashMap<String, (TypeId, i64)>,
    pub ips: Vec<IpInfo>,
    pub ip_index: HashMap<String, IpId>,
    pub states: Vec<String>,
    pub state_index: HashMap<String, StateId>,
    pub statesets: HashMap<String, Vec<StateId>>,
    pub vars: Vec<VarInfo>,
    pub var_index: HashMap<String, VarId>,
    pub routines: Vec<RoutineInfo>,
    pub routine_index: HashMap<String, RoutineId>,
    pub initialize: InitInfo,
    pub transitions: Vec<TransitionInfo>,
    /// Non-fatal findings (non-progress cycles, unreachable states, …).
    pub warnings: Vec<String>,
}

impl AnalyzedModule {
    pub fn ip(&self, id: IpId) -> &IpInfo {
        &self.ips[id.0 as usize]
    }

    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    pub fn routine(&self, id: RoutineId) -> &RoutineInfo {
        &self.routines[id.0 as usize]
    }

    pub fn state_name(&self, id: StateId) -> &str {
        &self.states[id.0 as usize]
    }

    pub fn lookup_ip(&self, name: &str) -> Option<IpId> {
        self.ip_index.get(&name.to_ascii_lowercase()).copied()
    }

    /// Count of *declared* transitions (the paper's "transition
    /// declarations"); the runtime's compiled count after state-list and
    /// `any` expansion is usually larger.
    pub fn declared_transition_count(&self) -> usize {
        self.transitions.len()
    }
}
