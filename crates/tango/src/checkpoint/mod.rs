//! Stop/resume checkpoints.
//!
//! When a search stops on a resource limit (transition count, depth,
//! wall-clock deadline or snapshot-memory budget) with its whole trace
//! known — every static stop, and an on-line one after the trace's eof
//! marker — the report carries a [`Checkpoint`]: the frozen search front
//! plus the resolved trace and the counters accumulated so far. An
//! on-line stop before eof carries none: the source's read position is
//! not recorded, so the rest of the trace would be unknowable on resume.
//! Resuming continues the search exactly
//! where it stopped — no work is repeated, and the final TE/GE/RE/SA
//! totals across stop + resume equal those of an uninterrupted run, so
//! figures assembled from budgeted batch runs stay comparable with the
//! paper's tables.
//!
//! Both expansion rules of the one search engine freeze the same body
//! ([`SearchCheckpoint`]): the work stack as [`NodeCkpt`] records, plus
//! the visited set, the recorded spec errors and the best attempt. After
//! eof the PG-list is empty and no output is blocked (nothing can grow),
//! so neither is frozen. Each frozen node is a complete search "thread"
//! (state snapshot, trace cursors, tried transition set, barren counter,
//! path); a node the complete-trace rule saved for backtracking also
//! carries its pending candidate list. The mode says which rule the
//! search ran, and [`crate::TraceAnalyzer::resume`], the one way back
//! from a stop, continues under that rule whichever entry point stopped.
//! An on-line checkpoint is **worker-count independent**: a run stopped
//! at N workers resumes at any M, with the uninterrupted totals
//! (DESIGN §6.13).

pub mod codec;

pub use codec::{CheckpointError, CheckpointInfo, FORMAT_VERSION, MAGIC};

use crate::env::Cursors;
use crate::stats::SearchStats;
use crate::trace::ResolvedTrace;
use estelle_runtime::{Fireable, MachineState, RuntimeError};

/// A resumable, stopped analysis. Opaque except for the progress
/// accessors; produce with a limited [`crate::TraceAnalyzer::analyze`]
/// (or `analyze_online`, stopped after eof) call, consume with
/// [`crate::TraceAnalyzer::resume`], which takes either kind.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pub(crate) search: SearchCheckpoint,
    pub(crate) trace: ResolvedTrace,
    pub(crate) stats: SearchStats,
}

/// The frozen search front of either expansion rule.
#[derive(Clone, Debug)]
pub(crate) struct SearchCheckpoint {
    /// Whether the complete-trace rule ran (a static analysis) rather
    /// than the on-line rule.
    pub(crate) complete: bool,
    /// Worker count of the run that saved this checkpoint. Informational
    /// — resume redistributes the nodes over the *resuming* run's
    /// workers.
    pub(crate) workers_at_save: u32,
    /// The work stack, bottom to top (next pop last).
    pub(crate) work: Vec<NodeCkpt>,
    /// State-hashing fingerprints already expanded, sorted.
    pub(crate) visited: Vec<u64>,
    pub(crate) spec_errors: Vec<RuntimeError>,
    /// The most-explaining attempt so far: events explained, and its
    /// path as compiled-transition indices.
    pub(crate) best: (usize, Vec<u32>),
    /// Checkable events in the trace under analysis.
    pub(crate) events_total: usize,
    /// Depth of the search at the stop point.
    pub(crate) depth: usize,
}

/// One frozen search node ("thread"). Every node carries its state
/// inline, so the checkpoint file is self-contained.
#[derive(Clone, Debug)]
pub(crate) struct NodeCkpt {
    pub(crate) state: MachineState,
    pub(crate) cursors: Cursors,
    /// Compiled-transition indices already explored, sorted.
    pub(crate) tried: Vec<usize>,
    pub(crate) barren: usize,
    /// Compiled-transition indices fired from the root.
    pub(crate) path: Vec<u32>,
    /// Complete-trace rule only: the candidates of the node's one
    /// Generate and the index of the next one to fire.
    pub(crate) pending: Option<(Vec<Fireable>, usize)>,
}

impl Checkpoint {
    /// `"dfs"` for a static-mode checkpoint, `"mdfs"` for an on-line one.
    pub fn mode(&self) -> &'static str {
        if self.search.complete {
            "dfs"
        } else {
            "mdfs"
        }
    }

    /// Depth of the search at the stop point: the static search's path
    /// depth, or the deepest frozen on-line node.
    pub fn depth(&self) -> usize {
        self.search.depth
    }

    /// Saved search nodes awaiting exploration: the nodes saved for
    /// backtracking (static), or every frozen node (on-line).
    pub fn pending_frames(&self) -> usize {
        let m = &self.search;
        m.work.iter().filter(|n| !m.complete || n.pending.is_some()).count()
    }

    /// Checkable events in the trace under analysis.
    pub fn events_total(&self) -> usize {
        self.search.events_total
    }

    /// Counters accumulated up to the stop; resuming continues them.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Structural cross-check against the analyzer about to resume this
    /// checkpoint. A file that decodes cleanly may still belong to a
    /// *different* specification (or a different trace); resuming it
    /// verbatim would index out of range deep inside the search. This
    /// turns every such mismatch into an error up front.
    pub(crate) fn validate_against(
        &self,
        module: &estelle_frontend::sema::model::AnalyzedModule,
        transition_count: usize,
    ) -> Result<(), String> {
        let ip_count = module.ips.len();
        if self.trace.inputs.len() != ip_count || self.trace.outputs.len() != ip_count {
            return Err(format!(
                "checkpoint trace has {} IP stream(s), specification has {}",
                self.trace.inputs.len(),
                ip_count
            ));
        }
        for e in &self.trace.events {
            let info = module.ip(estelle_frontend::sema::model::IpId(e.ip as u32));
            let sigs = match e.dir {
                crate::trace::Dir::In => &info.inputs,
                crate::trace::Dir::Out => &info.outputs,
            };
            if e.interaction >= sigs.len() {
                return Err(format!(
                    "trace event {} names interaction {} of {} at IP `{}`",
                    e.index,
                    e.interaction,
                    sigs.len(),
                    info.name
                ));
            }
        }
        let state_count = module.states.len() as u32;
        let check_cursors = |c: &crate::env::Cursors, what: &str| -> Result<(), String> {
            if c.input.len() != ip_count || c.output.len() != ip_count {
                return Err(format!(
                    "{} cursors cover {} IP(s), specification has {}",
                    what,
                    c.input.len(),
                    ip_count
                ));
            }
            for ip in 0..ip_count {
                if c.input[ip] > self.trace.inputs[ip].len()
                    || c.output[ip] > self.trace.outputs[ip].len()
                {
                    return Err(format!("{} cursors point past the trace streams", what));
                }
            }
            Ok(())
        };
        // Paths are looked up by index when the witness or the best
        // attempt is named, so an out-of-range step must not get that far.
        let check_path = |path: &[u32], what: &str| -> Result<(), String> {
            match path.iter().find(|&&t| t as usize >= transition_count) {
                Some(t) => Err(format!(
                    "{} references transition {} of {}",
                    what, t, transition_count
                )),
                None => Ok(()),
            }
        };
        let m = &self.search;
        check_path(&m.best.1, "best-effort path")?;
        for (i, n) in m.work.iter().enumerate() {
            if n.state.control.0 >= state_count {
                return Err(format!("node {} control state out of range", i));
            }
            check_cursors(&n.cursors, "node")?;
            check_path(&n.path, &format!("node {} path", i))?;
            let pending = n.pending.iter().flat_map(|(f, _)| f).map(|f| f.trans);
            for t in n.tried.iter().copied().chain(pending) {
                if t >= transition_count {
                    return Err(format!(
                        "node {} references transition {} of {}",
                        i, t, transition_count
                    ));
                }
            }
        }
        Ok(())
    }
}
