//! Runtime values.
//!
//! Every Estelle variable, interaction parameter and heap cell holds a
//! [`Value`]. Following the paper's §5.1, values carry an explicit
//! *undefined* state: freshly created storage is [`Value::Undefined`] until
//! assigned. In full-trace analysis using an undefined value is an error
//! (an uninitialized-variable bug in the specification); in partial-trace
//! analysis undefined propagates through expressions and compares equal to
//! everything, exactly as §5.1 prescribes.

use crate::heap::HeapRef;
use estelle_frontend::sema::types::{Type, TypeId, TypeTable};
use std::fmt;

/// A runtime value.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Value {
    /// Storage that was never assigned (or deliberately unknown during
    /// partial-trace analysis).
    Undefined,
    Int(i64),
    Bool(bool),
    /// An enum value: the ordinal within its (nominal) enum type.
    Enum(TypeId, i64),
    /// A Pascal set: the ordinals of its members.
    Set(SmallSet),
    /// `array [lo..hi] of T`, stored dense; index arithmetic uses the
    /// type's `lo` kept in the compiled IR.
    Array(Vec<Value>),
    /// Record fields in declaration order.
    Record(Vec<Value>),
    /// A pointer: `None` is `nil`.
    Pointer(Option<HeapRef>),
}

/// A small ordered set of ordinals, sufficient for Pascal set values.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct SmallSet(Vec<i64>);

impl SmallSet {
    pub fn empty() -> Self {
        SmallSet(Vec::new())
    }

    #[allow(clippy::should_implement_trait)] // dedup-sorting constructor
    pub fn from_iter(iter: impl IntoIterator<Item = i64>) -> Self {
        let mut v: Vec<i64> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        SmallSet(v)
    }

    pub fn insert(&mut self, v: i64) {
        if let Err(pos) = self.0.binary_search(&v) {
            self.0.insert(pos, v);
        }
    }

    pub fn contains(&self, v: i64) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.0.iter().copied()
    }
}

impl Value {
    /// Undefined-tolerant comparison used when matching generated output
    /// interactions against traced interactions: an undefined parameter is
    /// "equal to all values to which it is compared" (paper §5.1).
    pub fn matches(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, _) | (_, Value::Undefined) => true,
            (Value::Array(a), Value::Array(b)) | (Value::Record(a), Value::Record(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.matches(y))
            }
            (a, b) => a == b,
        }
    }

    /// The value's ordinal, if it is an ordinal value.
    pub fn ordinal(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            Value::Enum(_, v) => Some(*v),
            _ => None,
        }
    }

    /// Approximate heap footprint of the value in bytes: the inline
    /// enum size plus everything owned out-of-line (set members, array
    /// and record elements). Feeds the analyzer's snapshot-memory budget,
    /// so it only needs to be proportional, not exact.
    pub fn approx_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        match self {
            Value::Set(s) => inline + s.len() * std::mem::size_of::<i64>(),
            Value::Array(vs) | Value::Record(vs) => {
                inline + vs.iter().map(Value::approx_bytes).sum::<usize>()
            }
            _ => inline,
        }
    }

    /// Short description used in diagnostics and trace rendering.
    pub fn describe(&self) -> String {
        match self {
            Value::Undefined => "?".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Enum(_, v) => format!("#{}", v),
            Value::Set(s) => format!(
                "[{}]",
                s.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Value::Array(vs) => format!(
                "({})",
                vs.iter().map(Value::describe).collect::<Vec<_>>().join(", ")
            ),
            Value::Record(vs) => format!(
                "{{{}}}",
                vs.iter().map(Value::describe).collect::<Vec<_>>().join(", ")
            ),
            Value::Pointer(None) => "nil".to_string(),
            Value::Pointer(Some(r)) => format!("^{}", r),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// The default (freshly allocated) value of a type: scalars are undefined,
/// composites are built recursively, sets start empty.
pub fn default_value(types: &TypeTable, ty: TypeId) -> Value {
    match types.get(ty) {
        Type::Unresolved => Value::Undefined,
        Type::Integer | Type::Boolean | Type::Enum { .. } | Type::Subrange { .. } => {
            Value::Undefined
        }
        Type::Array { lo, hi, elem, .. } => {
            let n = (hi - lo + 1) as usize;
            Value::Array(vec![default_value(types, *elem); n])
        }
        Type::Record { fields } => Value::Record(
            fields
                .iter()
                .map(|(_, t)| default_value(types, *t))
                .collect(),
        ),
        Type::SetOf { .. } => Value::Set(SmallSet::empty()),
        Type::Pointer { .. } => Value::Undefined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle_frontend::sema::types::{TypeTable, TY_BOOLEAN, TY_INTEGER};

    #[test]
    fn small_set_behaves_like_a_set() {
        let mut s = SmallSet::empty();
        s.insert(5);
        s.insert(1);
        s.insert(5);
        assert_eq!(s.len(), 2);
        assert!(s.contains(1));
        assert!(!s.contains(3));
        assert_eq!(s, SmallSet::from_iter([5, 1, 1]));
    }

    #[test]
    fn undefined_matches_everything() {
        assert!(Value::Undefined.matches(&Value::Int(42)));
        assert!(Value::Int(42).matches(&Value::Undefined));
        assert!(!Value::Int(42).matches(&Value::Int(43)));
    }

    #[test]
    fn composite_matching_is_elementwise() {
        let a = Value::Record(vec![Value::Int(1), Value::Undefined]);
        let b = Value::Record(vec![Value::Int(1), Value::Bool(true)]);
        let c = Value::Record(vec![Value::Int(2), Value::Bool(true)]);
        assert!(a.matches(&b));
        assert!(!a.matches(&c));
    }

    #[test]
    fn default_values_by_type() {
        let mut types = TypeTable::new();
        assert_eq!(default_value(&types, TY_INTEGER), Value::Undefined);
        let arr = types.intern(Type::Array {
            index: TY_INTEGER,
            lo: 0,
            hi: 2,
            elem: TY_BOOLEAN,
        });
        match default_value(&types, arr) {
            Value::Array(vs) => {
                assert_eq!(vs.len(), 3);
                assert!(vs.iter().all(|v| *v == Value::Undefined));
            }
            other => panic!("expected array, got {:?}", other),
        }
        let set = types.intern(Type::SetOf {
            base: TY_BOOLEAN,
            lo: 0,
            hi: 1,
        });
        assert_eq!(default_value(&types, set), Value::Set(SmallSet::empty()));
    }
}
