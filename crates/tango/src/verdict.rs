//! Verdicts and analysis reports.

use crate::stats::SearchStats;
use estelle_runtime::RuntimeError;
use std::fmt;

/// How far the best attempt got before the trace stopped being
/// explainable — the diagnostic an interoperability "arbiter" reports for
/// an invalid trace.
#[derive(Clone, Debug)]
pub struct BestEffort {
    /// Number of trace events the best path consumed or verified.
    pub events_explained: usize,
    /// Total events in the trace.
    pub events_total: usize,
    /// The transitions fired along that best path.
    pub path: Vec<String>,
}

impl fmt::Display for BestEffort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "best attempt explained {}/{} events; trace first becomes \
             inexplicable around event {}",
            self.events_explained,
            self.events_total,
            self.events_explained + 1
        )
    }
}

/// The outcome of a trace analysis (§2 and §3.1.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A path consuming all inputs and verifying all outputs exists.
    Valid,
    /// The search space is exhausted and no such path exists.
    Invalid,
    /// Dynamic mode: a PGAV-node exists — everything received so far is
    /// explainable, more data may arrive ("the trace is valid so far").
    ValidSoFar,
    /// Dynamic mode: only non-all-verified PG-nodes remain. The paper:
    /// "the trace is likely to be invalid, but still, no conclusive result
    /// can be given".
    LikelyInvalid,
    /// The search hit a resource limit before reaching a conclusion.
    Inconclusive(InconclusiveReason),
}

/// Why a search stopped without a conclusive verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InconclusiveReason {
    TransitionLimit,
    DepthLimit,
    PgNodeLimit,
    /// The wall-clock deadline (`SearchLimits::max_wall_time`) expired.
    TimeLimit,
    /// The snapshot-memory budget (`SearchLimits::max_state_bytes`) was
    /// exceeded.
    MemoryLimit,
}

impl Verdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid)
    }

    pub fn is_conclusive(&self) -> bool {
        matches!(self, Verdict::Valid | Verdict::Invalid)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Valid => f.write_str("valid"),
            Verdict::Invalid => f.write_str("invalid"),
            Verdict::ValidSoFar => f.write_str("valid so far"),
            Verdict::LikelyInvalid => f.write_str("likely invalid (inconclusive)"),
            Verdict::Inconclusive(r) => write!(f, "inconclusive ({:?})", r),
        }
    }
}

/// Everything a trace-analysis run reports.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    pub verdict: Verdict,
    pub stats: SearchStats,
    /// For a valid trace: the names of the fired transitions along the
    /// accepting path — the diagnostic an "arbiter" use case wants.
    pub witness: Option<Vec<String>>,
    /// Runtime errors encountered on abandoned branches (specification
    /// bugs on paths the search backed out of).
    pub spec_errors: Vec<RuntimeError>,
    /// When the §2.4.1 initial-state search succeeded from a non-default
    /// state, its name.
    pub initial_state_used: Option<String>,
    /// For invalid traces (on-line: after eof): the most-explaining path
    /// found, localizing where the trace stops being explainable.
    pub best_effort: Option<BestEffort>,
    /// When an analysis stopped on a resource limit: the frozen search
    /// state. Feed it to [`crate::TraceAnalyzer::resume`] with raised
    /// limits to continue exactly where the search stopped (no work is
    /// repeated; counters continue rather than restart). An on-line stop
    /// before end-of-file carries none: the rest of its trace is unknown,
    /// so it could not be resumed.
    pub checkpoint: Option<Box<crate::checkpoint::Checkpoint>>,
    /// Faults the dynamic trace source observed while feeding (parse
    /// errors, file truncation, a dead feeder …). Empty for static runs.
    pub source_faults: Vec<String>,
    /// Checkpoint autosave failures. Autosave is warn-and-continue — a
    /// failing save must not kill a healthy search — but the failure has
    /// to outlive stderr: a run that dies later would otherwise resume
    /// from an older checkpoint than the operator believes exists.
    pub checkpoint_faults: Vec<String>,
}

impl AnalysisReport {
    pub fn new(verdict: Verdict, stats: SearchStats) -> Self {
        AnalysisReport {
            verdict,
            stats,
            witness: None,
            spec_errors: Vec::new(),
            initial_state_used: None,
            best_effort: None,
            checkpoint: None,
            source_faults: Vec::new(),
            checkpoint_faults: Vec::new(),
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verdict: {}  [{}]", self.verdict, self.stats)?;
        if let Some(s) = &self.initial_state_used {
            write!(f, " (from initial state {})", s)?;
        }
        if let Some(b) = &self.best_effort {
            write!(f, "\n{}", b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conclusiveness() {
        assert!(Verdict::Valid.is_conclusive());
        assert!(Verdict::Invalid.is_conclusive());
        assert!(!Verdict::ValidSoFar.is_conclusive());
        assert!(!Verdict::LikelyInvalid.is_conclusive());
        assert!(!Verdict::Inconclusive(InconclusiveReason::TransitionLimit).is_conclusive());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Verdict::Valid.to_string(), "valid");
        assert!(Verdict::Inconclusive(InconclusiveReason::DepthLimit)
            .to_string()
            .contains("DepthLimit"));
    }
}
