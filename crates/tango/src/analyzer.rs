//! The generated trace analyzer — Tango's end product.
//!
//! [`Tango::generate`] plays the role of running the Tango tool on an
//! Estelle specification: it produces a [`TraceAnalyzer`], the analog of
//! the compiled TAM executable. The analyzer then checks traces in static
//! mode ([`TraceAnalyzer::analyze`]) or on-line dynamic mode
//! ([`TraceAnalyzer::analyze_online`]), continues an analysis from a
//! resource-limit stop ([`TraceAnalyzer::resume`]), supports the runtime
//! options of §2.4, and doubles as an implementation generator (§4.1's
//! methodology).

use crate::checkpoint::Checkpoint;
use crate::error::TangoError;
use crate::genimpl::{run_implementation, ChoicePolicy, ScriptedInput};
use crate::options::AnalysisOptions;
use crate::search::mdfs::{run, Start};
use crate::telemetry::Telemetry;
use crate::trace::format::parse_trace;
use crate::trace::source::TraceSource;
use crate::trace::{ResolvedTrace, Trace};
use crate::verdict::{AnalysisReport, Verdict};
use estelle_frontend::sema::model::{AnalyzedModule, StateId};
use estelle_runtime::Machine;

/// The trace-analysis tool generator.
pub struct Tango;

impl Tango {
    /// Generate a trace analyzer from Estelle source — the whole pipeline
    /// the paper builds from Pet + Dingo + the Tango additions.
    pub fn generate(source: &str) -> Result<TraceAnalyzer, TangoError> {
        Ok(TraceAnalyzer::from_machine(Machine::from_source(source)?))
    }
}

/// A generated trace analysis module (TAM).
pub struct TraceAnalyzer {
    pub machine: Machine,
}

impl std::fmt::Debug for TraceAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceAnalyzer")
            .field("module", &self.module().module_name)
            .field("transitions", &self.machine.module.transition_count())
            .finish()
    }
}

impl TraceAnalyzer {
    pub fn from_machine(machine: Machine) -> Self {
        TraceAnalyzer { machine }
    }

    /// The analyzed specification model (IP names, states, types …).
    pub fn module(&self) -> &AnalyzedModule {
        &self.machine.module.analyzed
    }

    /// Display names of every compiled transition, indexed by id — what
    /// `Telemetry::with_transition_names` wants for dump hot-spot rows
    /// and the `/profile` endpoint.
    pub fn transition_names(&self) -> Vec<String> {
        (0..self.machine.module.transition_count())
            .map(|i| self.machine.transition_name(i).to_string())
            .collect()
    }

    /// Parse a trace file and analyze it (static mode).
    pub fn analyze_text(
        &self,
        trace_text: &str,
        options: &AnalysisOptions,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_text_with(trace_text, options, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze_text`] with a telemetry handle.
    pub fn analyze_text_with(
        &self,
        trace_text: &str,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let trace = parse_trace(trace_text, Some(self.module()))?;
        self.analyze_with(&trace, options, tel)
    }

    /// Analyze a complete trace (static mode).
    pub fn analyze(
        &self,
        trace: &Trace,
        options: &AnalysisOptions,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_with(trace, options, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze`] with a telemetry handle receiving the
    /// search-event stream, metrics, progress heartbeats and the
    /// per-transition profile (whichever facilities the handle enables).
    pub fn analyze_with(
        &self,
        trace: &Trace,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let resolved = ResolvedTrace::resolve(trace, self.module())?;
        self.analyze_resolved_with(resolved, options, tel)
    }

    /// Analyze an already resolved trace (static mode), applying the
    /// §2.4.1 initial-state search when enabled. One telemetry
    /// handle covers the whole analysis: initial-state-search rounds
    /// continue the same event stream (one `meta` line, monotone
    /// sequence numbers), and `max_transitions` caps the rounds
    /// together. A limit stop inside a round after the first returns no
    /// checkpoint.
    ///
    /// Static analysis is the one search engine run over a trace that is
    /// complete before the search starts (DESIGN §6.13).
    pub fn analyze_resolved_with(
        &self,
        trace: ResolvedTrace,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let module = self.module();
        let start = Start::Static(trace.clone(), None);
        let mut report = run(&self.machine, module, start, options, tel)?;

        // §2.4.1: on failure, "backtrack to the point right after the
        // initialize transition was taken, choose another initial FSM
        // state, and begin the analysis again".
        if report.verdict == Verdict::Invalid && options.initial_state_search {
            let default_init = self.machine.module.init_to;
            for sid in 0..self.module().states.len() {
                let sid = StateId(sid as u32);
                if sid == default_init {
                    continue;
                }
                // The transition limit caps the analysis, not each round:
                // a round gets what the rounds before it left.
                let mut round_options = options.clone();
                round_options.limits.max_transitions = options
                    .limits
                    .max_transitions
                    .saturating_sub(report.stats.transitions_executed);
                let start = Start::Static(trace.clone(), Some(sid));
                let round = run(&self.machine, module, start, &round_options, tel)?;
                report.stats.absorb(&round.stats);
                report.spec_errors.extend(round.spec_errors);
                if round.verdict == Verdict::Valid {
                    report.verdict = Verdict::Valid;
                    report.best_effort = None;
                    report.witness = round.witness;
                    report.initial_state_used = Some(module.state_name(sid).to_string());
                    break;
                }
                // A round's stop saves no checkpoint: resuming one could
                // not re-enter the rounds after it.
                if let Verdict::Inconclusive(r) = round.verdict {
                    report.verdict = Verdict::Inconclusive(r);
                    report.best_effort = None;
                    break;
                }
            }
        }
        Ok(report)
    }

    /// Continue an analysis stopped on a resource limit, under the rule
    /// the checkpoint records: the static (DFS) descent or the on-line
    /// (MDFS) search.
    ///
    /// `checkpoint` comes from the [`AnalysisReport::checkpoint`] of the
    /// stopped run (or [`Checkpoint::read_from`]); `options` should differ
    /// from the original ones only in raised limits — the checking options
    /// must stay the same for the combined verdict to be meaningful.
    /// Counters continue rather than restart: after any number of
    /// stop/resume rounds, the final TE/GE/RE/SA totals equal those of an
    /// uninterrupted run. The §2.4.1 initial-state search is not
    /// re-entered on resume; resume the default-state search to its own
    /// conclusion instead. An on-line checkpoint resumes at
    /// `options.workers`, whatever count it was saved at: the saved front
    /// is redistributed over the resolved worker set.
    ///
    /// Every checkpoint a stop returns resumes: an on-line stop before
    /// its source reached end-of-file returns none. Refused: a checkpoint
    /// that does not fit this specification.
    pub fn resume(
        &self,
        checkpoint: Checkpoint,
        options: &AnalysisOptions,
    ) -> Result<AnalysisReport, TangoError> {
        self.resume_with(checkpoint, options, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::resume`] with a telemetry handle. Reusing one
    /// handle across stop/resume rounds produces one continuous event
    /// stream for the whole logical analysis.
    pub fn resume_with(
        &self,
        checkpoint: Checkpoint,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let count = self.machine.module.transition_count();
        checkpoint
            .validate_against(self.module(), count)
            .map_err(TangoError::Resume)?;
        let start = Start::Resume(Box::new(checkpoint));
        run(&self.machine, self.module(), start, options, tel)
    }

    /// On-line analysis of a dynamic trace (§3): multi-threaded DFS with
    /// PG-nodes and dynamic node reordering. Runs until the source reaches
    /// end-of-file (then returns a conclusive verdict) or until the trace
    /// is conclusively invalid. `on_status` observes interim verdicts each
    /// time the known search tree is exhausted; returning `false` stops
    /// the analysis and reports the interim verdict.
    pub fn analyze_online(
        &self,
        source: &mut dyn TraceSource,
        options: &AnalysisOptions,
        on_status: &mut dyn FnMut(&Verdict) -> bool,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_online_with(source, options, on_status, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze_online`] with a telemetry handle.
    pub fn analyze_online_with(
        &self,
        source: &mut dyn TraceSource,
        options: &AnalysisOptions,
        on_status: &mut dyn FnMut(&Verdict) -> bool,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let start = Start::Online(source, on_status);
        run(&self.machine, self.module(), start, options, tel)
    }

    /// Implementation-generation mode (§4.1 methodology): execute the
    /// specification against scripted inputs, logging a valid trace.
    pub fn generate_trace(
        &self,
        script: &[ScriptedInput],
        choice: ChoicePolicy,
        max_steps: u64,
    ) -> Result<Trace, TangoError> {
        run_implementation(&self.machine, script, choice, max_steps)
    }
}
