//! Policy-dependent scalar semantics shared by the two executors.
//!
//! The tree-walking interpreter ([`super::Interp`]) and the bytecode VM
//! ([`crate::vm`]) must agree *bit-for-bit* on every value they produce and
//! every error they raise — the contract the differential tests check.
//! Everything here is therefore a free function parameterized by the
//! [`UndefinedPolicy`], and both executors delegate to it instead of
//! carrying private copies of the rules: operator semantics, Kleene
//! triboolean logic, ordinal coercions, control conditions and the
//! `provided`-guard interpretation all live in exactly one place.

use super::UndefinedPolicy;
use crate::error::{RtResult, RuntimeError, RuntimeErrorKind};
use crate::value::Value;
use estelle_ast::{BinOp, Span, UnOp};

/// Interpret a value as a three-valued boolean. Under the error policy an
/// undefined value is rejected outright.
pub(crate) fn as_tribool(
    policy: UndefinedPolicy,
    v: &Value,
    span: Span,
) -> RtResult<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Undefined => match policy {
            UndefinedPolicy::Propagate => Ok(None),
            UndefinedPolicy::Error => {
                Err(RuntimeError::undefined("boolean operand is undefined").with_span(span))
            }
        },
        other => Err(
            RuntimeError::internal(format!("boolean operator on {}", other)).with_span(span),
        ),
    }
}

/// Coerce a value to its ordinal, with the policy-specific undefined
/// diagnostics of index/range positions.
pub(crate) fn require_ordinal(policy: UndefinedPolicy, v: &Value, span: Span) -> RtResult<i64> {
    match v {
        Value::Undefined => Err(match policy {
            UndefinedPolicy::Error => {
                RuntimeError::undefined("undefined value where an ordinal is required")
                    .with_span(span)
            }
            UndefinedPolicy::Propagate => RuntimeError::undefined_control(
                "an undefined value reached an index or range position; \
                 apply the normal-form transformation for partial traces",
            )
            .with_span(span),
        }),
        other => other.ordinal().ok_or_else(|| {
            RuntimeError::internal(format!("expected ordinal, found {}", other)).with_span(span)
        }),
    }
}

/// Build `Undefined` under the propagate policy, or an error of `kind`
/// under the error policy.
pub(crate) fn undefined_or(
    policy: UndefinedPolicy,
    msg: &str,
    kind: RuntimeErrorKind,
) -> RtResult<Value> {
    match policy {
        UndefinedPolicy::Propagate => Ok(Value::Undefined),
        UndefinedPolicy::Error => Err(RuntimeError::new(kind, msg)),
    }
}

/// Apply a unary operator to an evaluated operand.
pub(crate) fn apply_unary(
    policy: UndefinedPolicy,
    op: UnOp,
    v: Value,
    span: Span,
) -> RtResult<Value> {
    if matches!(v, Value::Undefined) {
        return undefined_or(
            policy,
            "operand of a unary operator is undefined",
            RuntimeErrorKind::UndefinedValue,
        );
    }
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| RuntimeError::new(RuntimeErrorKind::Overflow, "negation overflow")),
        (UnOp::Plus, Value::Int(i)) => Ok(Value::Int(i)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (op, v) => {
            Err(RuntimeError::internal(format!("unary {} on {}", op, v)).with_span(span))
        }
    }
}

/// Int-int fast path for the non-logical binary operators. Semantically
/// identical to routing two `Value::Int`s through [`apply_binary`] — same
/// checked arithmetic, same errors, same spans — but monomorphic on `i64`,
/// so the VM's hot arithmetic/comparison loop skips the operand `match`
/// and the `Value` destructuring entirely. Both executors stay bit-for-bit
/// equal because [`apply_binary`] itself delegates here.
#[inline]
pub(crate) fn apply_binary_ints(op: BinOp, a: i64, b: i64, span: Span) -> RtResult<Value> {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(RuntimeError::new(
                            RuntimeErrorKind::DivisionByZero,
                            "div by zero",
                        )
                        .with_span(span));
                    }
                    // Pascal `div` truncates toward zero.
                    Some(a.wrapping_div(b))
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(RuntimeError::new(
                            RuntimeErrorKind::DivisionByZero,
                            "mod by zero",
                        )
                        .with_span(span));
                    }
                    Some(a.wrapping_rem(b))
                }
                _ => unreachable!(),
            };
            out.map(Value::Int).ok_or_else(|| {
                RuntimeError::new(RuntimeErrorKind::Overflow, "arithmetic overflow")
                    .with_span(span)
            })
        }
        BinOp::Eq => Ok(Value::Bool(a == b)),
        BinOp::Ne => Ok(Value::Bool(a != b)),
        BinOp::Lt => Ok(Value::Bool(a < b)),
        BinOp::Le => Ok(Value::Bool(a <= b)),
        BinOp::Gt => Ok(Value::Bool(a > b)),
        BinOp::Ge => Ok(Value::Bool(a >= b)),
        BinOp::In => Err(RuntimeError::internal("`in` with non-set operand").with_span(span)),
        BinOp::And | BinOp::Or => unreachable!("logic operators use logic_join"),
    }
}

/// Apply a non-logical binary operator to two evaluated operands. (`and`
/// and `or` never reach this: they short-circuit in the executors and
/// combine through [`logic_join`].)
pub(crate) fn apply_binary(
    policy: UndefinedPolicy,
    op: BinOp,
    lv: &Value,
    rv: &Value,
    span: Span,
) -> RtResult<Value> {
    if matches!(lv, Value::Undefined) || matches!(rv, Value::Undefined) {
        return undefined_or(
            policy,
            "operand of a binary operator is undefined",
            RuntimeErrorKind::UndefinedValue,
        );
    }
    if let (Value::Int(a), Value::Int(b)) = (lv, rv) {
        if !matches!(op, BinOp::In) {
            return apply_binary_ints(op, *a, *b, span);
        }
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            Err(RuntimeError::internal(format!("arithmetic on {} and {}", lv, rv))
                .with_span(span))
        }
        BinOp::Eq => Ok(Value::Bool(values_equal(lv, rv))),
        BinOp::Ne => Ok(Value::Bool(!values_equal(lv, rv))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (Some(a), Some(b)) = (lv.ordinal(), rv.ordinal()) else {
                return Err(RuntimeError::internal(format!(
                    "ordering comparison on {} and {}",
                    lv, rv
                ))
                .with_span(span));
            };
            Ok(Value::Bool(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            }))
        }
        BinOp::In => {
            let Some(a) = lv.ordinal() else {
                return Err(RuntimeError::internal(format!("`in` with non-ordinal {}", lv))
                    .with_span(span));
            };
            let Value::Set(s) = rv else {
                return Err(
                    RuntimeError::internal(format!("`in` with non-set {}", rv)).with_span(span)
                );
            };
            Ok(Value::Bool(s.contains(a)))
        }
        BinOp::And | BinOp::Or => unreachable!("logic operators use logic_join"),
    }
}

/// Was the left operand of `and`/`or` already decisive? Short-circuit
/// check applied after the left side is evaluated but before the right
/// side is touched — identical in both executors.
pub(crate) fn logic_short(
    policy: UndefinedPolicy,
    and: bool,
    lv: &Value,
    span: Span,
) -> RtResult<Option<bool>> {
    let lb = as_tribool(policy, lv, span)?;
    Ok(match (and, lb) {
        (true, Some(false)) => Some(false),
        (false, Some(true)) => Some(true),
        _ => None,
    })
}

/// Combine both evaluated operands of `and`/`or` under Kleene logic.
pub(crate) fn logic_join(
    policy: UndefinedPolicy,
    and: bool,
    lv: &Value,
    rv: &Value,
    span: Span,
) -> RtResult<Value> {
    let lb = as_tribool(policy, lv, span)?;
    let rb = as_tribool(policy, rv, span)?;
    let out = match (and, lb, rb) {
        (true, Some(a), Some(b)) => Some(a && b),
        (false, Some(a), Some(b)) => Some(a || b),
        // Kleene: `? and false` is false, `? or true` is true.
        (true, None, Some(false)) | (true, Some(false), None) => Some(false),
        (false, None, Some(true)) | (false, Some(true), None) => Some(true),
        _ => None,
    };
    Ok(match out {
        Some(b) => Value::Bool(b),
        None => Value::Undefined,
    })
}

/// A control-statement condition: strictly boolean; undefined raises
/// `UndefinedControl` in partial mode (§5.3).
pub(crate) fn control_bool(policy: UndefinedPolicy, v: &Value, span: Span) -> RtResult<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Undefined => Err(match policy {
            UndefinedPolicy::Error => {
                RuntimeError::undefined("condition is undefined").with_span(span)
            }
            UndefinedPolicy::Propagate => RuntimeError::undefined_control(
                "condition on an undefined value; partial-trace analysis \
                 requires the §5.3 normal-form transformation",
            )
            .with_span(span),
        }),
        other => {
            Err(RuntimeError::internal(format!("non-boolean condition {}", other)).with_span(span))
        }
    }
}

/// A `case` scrutinee's ordinal, with the §5.3 diagnostics.
pub(crate) fn case_ordinal(policy: UndefinedPolicy, v: &Value, span: Span) -> RtResult<i64> {
    match v {
        Value::Undefined => Err(match policy {
            UndefinedPolicy::Error => {
                RuntimeError::undefined("case scrutinee is undefined").with_span(span)
            }
            UndefinedPolicy::Propagate => RuntimeError::undefined_control(
                "case on an undefined value; partial-trace analysis \
                 requires the §5.3 normal-form transformation",
            )
            .with_span(span),
        }),
        other => other
            .ordinal()
            .ok_or_else(|| RuntimeError::internal("case scrutinee not ordinal").with_span(span)),
    }
}

/// Interpret an evaluated `provided` guard: undefined counts as true under
/// the propagate policy, per the paper's rule for partial traces.
pub(crate) fn guard_bool(policy: UndefinedPolicy, v: Value) -> RtResult<bool> {
    match v {
        Value::Bool(b) => Ok(b),
        Value::Undefined => match policy {
            UndefinedPolicy::Propagate => Ok(true),
            UndefinedPolicy::Error => Err(RuntimeError::undefined(
                "provided clause evaluated an undefined value",
            )),
        },
        other => Err(RuntimeError::internal(format!(
            "guard evaluated to non-boolean {}",
            other
        ))),
    }
}

/// Structural equality for the `=` operator. Pointer equality is by
/// reference; sets by membership; composites elementwise.
pub(crate) fn values_equal(a: &Value, b: &Value) -> bool {
    a == b
}
