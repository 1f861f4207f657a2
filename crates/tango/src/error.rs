//! Top-level error type for the Tango crate.

use crate::env::EnvError;
use crate::trace::format::TraceParseError;
use crate::trace::TraceResolveError;
use estelle_runtime::{BuildError, RuntimeError};
use std::fmt;

/// Anything that can go wrong between Estelle source and a verdict.
#[derive(Debug)]
pub enum TangoError {
    /// Parsing/analysis/compilation of the specification failed.
    Build(BuildError),
    /// The trace file is syntactically malformed.
    TraceParse(TraceParseError),
    /// The trace names IPs/interactions the specification doesn't have.
    TraceResolve(TraceResolveError),
    /// Bad option/trace combination.
    Env(EnvError),
    /// A checkpoint that [`crate::TraceAnalyzer::resume`] refuses: it
    /// belongs to another specification or trace.
    Resume(String),
    /// A fatal runtime error (interpreter bug or exceeded hard limits).
    Runtime(RuntimeError),
    /// Implementation-generation mode failed (script/spec mismatch).
    Generator(String),
}

impl fmt::Display for TangoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TangoError::Build(e) => write!(f, "specification error: {}", e),
            TangoError::TraceParse(e) => write!(f, "{}", e),
            TangoError::TraceResolve(e) => write!(f, "{}", e),
            TangoError::Env(e) => write!(f, "option error: {}", e),
            TangoError::Resume(m) => write!(f, "cannot resume the checkpoint: {}", m),
            TangoError::Runtime(e) => write!(f, "{}", e),
            TangoError::Generator(m) => write!(f, "implementation generation: {}", m),
        }
    }
}

impl std::error::Error for TangoError {}

impl From<BuildError> for TangoError {
    fn from(e: BuildError) -> Self {
        TangoError::Build(e)
    }
}

impl From<TraceParseError> for TangoError {
    fn from(e: TraceParseError) -> Self {
        TangoError::TraceParse(e)
    }
}

impl From<TraceResolveError> for TangoError {
    fn from(e: TraceResolveError) -> Self {
        TangoError::TraceResolve(e)
    }
}

impl From<EnvError> for TangoError {
    fn from(e: EnvError) -> Self {
        TangoError::Env(e)
    }
}

impl From<RuntimeError> for TangoError {
    fn from(e: RuntimeError) -> Self {
        TangoError::Runtime(e)
    }
}
