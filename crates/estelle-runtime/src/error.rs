//! Runtime errors.
//!
//! These signal bugs in the specification (uninitialized variables,
//! dangling pointers, range violations) or limits of the analyzer
//! (undefined values reaching control statements in partial-trace mode,
//! §5.3). The trace analyzer reports them against the source via the
//! carried span when one is available.

use estelle_ast::Span;
use std::borrow::Cow;
use std::fmt;

pub type RtResult<T> = Result<T, RuntimeError>;

/// Classification of a runtime failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeErrorKind {
    /// Use of a value that was never assigned, in full-trace mode.
    UndefinedValue,
    /// An undefined value reached a control statement (`if`/`case`/loop
    /// condition) — partial-trace analysis requires the normal-form
    /// transformation of §5.3 to eliminate these.
    UndefinedControl,
    /// Dereference or dispose of a dangling/nil pointer.
    DanglingPointer,
    /// Array index outside the declared bounds.
    IndexOutOfBounds,
    /// Integer division or modulo by zero.
    DivisionByZero,
    /// Arithmetic overflow.
    Overflow,
    /// Routine call depth exceeded the interpreter limit.
    CallDepthExceeded,
    /// For-loop iteration count exceeded the interpreter limit (defends
    /// against non-terminating specifications foiling the search).
    LoopLimitExceeded,
    /// An `output` statement's interaction was rejected by the sink. Not a
    /// specification bug: the trace analyzer rejects outputs that cannot be
    /// matched against the trace, and this unwinds the transition body so
    /// the search can backtrack.
    OutputRejected,
    /// Internal invariant violation (compiler bug, not a spec bug).
    Internal,
    /// A panic unwound out of an interpreter step and was converted into a
    /// structured error by the analyzer's isolation guard. The offending
    /// branch is abandoned; the search continues on other branches.
    Panic,
}

/// A runtime failure with an optional source location. A fixed message
/// is borrowed, so raising it allocates nothing.
#[derive(Clone, Debug)]
pub struct RuntimeError {
    pub kind: RuntimeErrorKind,
    pub message: Cow<'static, str>,
    pub span: Option<Span>,
}

impl RuntimeError {
    pub fn new(kind: RuntimeErrorKind, message: impl Into<String>) -> Self {
        RuntimeError {
            kind,
            message: Cow::Owned(message.into()),
            span: None,
        }
    }

    /// An `output` the sink refused; the search backtracks on it, so it
    /// is raised on every rejected output and must not allocate.
    pub fn output_rejected(span: Span) -> Self {
        RuntimeError {
            kind: RuntimeErrorKind::OutputRejected,
            message: Cow::Borrowed("output rejected by the trace matcher"),
            span: Some(span),
        }
    }

    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    pub fn undefined(message: impl Into<String>) -> Self {
        RuntimeError::new(RuntimeErrorKind::UndefinedValue, message)
    }

    pub fn undefined_control(message: impl Into<String>) -> Self {
        RuntimeError::new(RuntimeErrorKind::UndefinedControl, message)
    }

    pub fn dangling(message: impl Into<String>) -> Self {
        RuntimeError::new(RuntimeErrorKind::DanglingPointer, message)
    }

    pub fn bounds(message: impl Into<String>) -> Self {
        RuntimeError::new(RuntimeErrorKind::IndexOutOfBounds, message)
    }

    pub fn internal(message: impl Into<String>) -> Self {
        RuntimeError::new(RuntimeErrorKind::Internal, message)
    }

    pub fn panic(message: impl Into<String>) -> Self {
        RuntimeError::new(RuntimeErrorKind::Panic, message)
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)?;
        if let Some(s) = self.span {
            write!(f, " (at source bytes {})", s)?;
        }
        Ok(())
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_location_when_present() {
        let e = RuntimeError::undefined("use of x").with_span(Span::new(3, 5));
        let s = e.to_string();
        assert!(s.contains("use of x"));
        assert!(s.contains("3..5"));
    }

    #[test]
    fn constructors_set_kind() {
        assert_eq!(
            RuntimeError::dangling("d").kind,
            RuntimeErrorKind::DanglingPointer
        );
        assert_eq!(
            RuntimeError::bounds("b").kind,
            RuntimeErrorKind::IndexOutOfBounds
        );
    }
}
