//! Runtime options (paper §2.4).
//!
//! The relative-order checking options, IP disabling, the initial-state
//! search and the partial-trace extensions are all knobs on
//! [`AnalysisOptions`]. The four preset combinations used in the paper's
//! tables — NR, IO, IP and FULL — are provided as constructors.

use estelle_runtime::UndefinedPolicy;
use std::collections::HashSet;
use std::time::Duration;

/// Which relative-order relations between trace streams are enforced
/// (§2.4.2). Order *within* one (IP, direction) stream is always enforced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderOptions {
    /// "Inputs with respect to outputs": the next input consumed at an IP
    /// must precede (in the trace) any unverified output at the same IP.
    pub input_wrt_output: bool,
    /// "Outputs with respect to inputs": the next output generated at an IP
    /// must precede any unconsumed input at the same IP. Do not use when
    /// the IUT has input queues.
    pub output_wrt_input: bool,
    /// "IP relative order checking": inputs are consumed in global trace
    /// order across all IPs, outputs likewise (with the same-transition
    /// permutation exception). Do not use when the IUT has queues.
    pub ip_order: bool,
}

impl OrderOptions {
    /// NR: relative order checking disabled.
    pub fn none() -> Self {
        OrderOptions::default()
    }

    /// IO: input/output and output/input checking only.
    pub fn io() -> Self {
        OrderOptions {
            input_wrt_output: true,
            output_wrt_input: true,
            ip_order: false,
        }
    }

    /// IP: IP relative order checking only.
    pub fn ip() -> Self {
        OrderOptions {
            input_wrt_output: false,
            output_wrt_input: false,
            ip_order: true,
        }
    }

    /// FULL: all relative order checking options enabled.
    pub fn full() -> Self {
        OrderOptions {
            input_wrt_output: true,
            output_wrt_input: true,
            ip_order: true,
        }
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match (self.input_wrt_output || self.output_wrt_input, self.ip_order) {
            (false, false) => "NR",
            (true, false) => "IO",
            (false, true) => "IP",
            (true, true) => "FULL",
        }
    }
}

/// Safety limits on a search.
#[derive(Clone, Copy, Debug)]
pub struct SearchLimits {
    /// Maximum transitions executed before giving up with an inconclusive
    /// verdict (defends against the §4.2 exponential blowups in batch use).
    pub max_transitions: u64,
    /// Maximum saved PG-nodes in MDFS (§3.2.1 degenerate-case guard).
    pub max_pg_nodes: usize,
    /// Maximum search depth: a node this deep is not expanded unless it
    /// explains the whole trace.
    pub max_depth: usize,
    /// Maximum *consecutive* fired transitions that neither consume an
    /// observed input nor verify an observed output. Bounds the two
    /// infinite-depth hazards the paper names: non-progress cycles (§2.1)
    /// and unbounded fabrication on unobserved IPs (§5.4). Paths are cut
    /// (not failed globally) when they exceed it, so a generous default is
    /// safe for real protocols.
    pub max_barren_steps: usize,
    /// Wall-clock deadline for one search. Checked cooperatively at the
    /// top of the search loop; on expiry the search stops with
    /// `Inconclusive(TimeLimit)` and a checkpoint (on-line: also while
    /// idle-polling a stalled source, so a dead feed can never wedge the
    /// monitor).
    pub max_wall_time: Option<Duration>,
    /// Budget, in approximate bytes, for the saved state snapshots held
    /// by the search (nodes saved for backtracking, work and PG nodes).
    /// Checked before every step; on excess the search stops with
    /// `Inconclusive(MemoryLimit)` and a resumable checkpoint.
    pub max_state_bytes: Option<usize>,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_transitions: 50_000_000,
            max_pg_nodes: 1_000_000,
            max_depth: 1_000_000,
            max_barren_steps: 128,
            max_wall_time: None,
            max_state_bytes: None,
        }
    }
}

/// All runtime options of a generated trace analyzer.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    pub order: OrderOptions,
    /// §2.4.3: outputs at these IPs are not checked and always valid;
    /// their empty input queues never make a node partially generated.
    pub disabled_ips: HashSet<String>,
    /// §5.2: IPs whose *inputs* are unobservable; `when` clauses on them
    /// fire with fabricated undefined interactions. Implies the outputs at
    /// these IPs are unchecked as well.
    pub unobserved_ips: HashSet<String>,
    /// §2.4.1: if the default initial state fails, retry the analysis from
    /// every other FSM state.
    pub initial_state_search: bool,
    /// Undefined-value semantics; `Propagate` for partial traces (§5.1).
    pub policy: UndefinedPolicy,
    /// Extension (paper §4.2 "another useful approach"): remember visited
    /// (state, cursor) pairs in a hash table and prune repeats. Static
    /// analysis only: on-line analysis refuses it.
    pub state_hashing: bool,
    /// On-line MDFS search workers (CLI `--workers N`). There is one
    /// engine: `1` (the default) runs its plain loop on the calling
    /// thread; `0` means "one per available core"; `N > 1` runs the same
    /// loop on N threads, each over a private stack, one burst per poll of
    /// the trace. Verdicts, witnesses and the
    /// TE/GE/RE/SA counters are identical at every worker count (see
    /// DESIGN §6.13 for the determinism argument); only wall time and
    /// the memory peak differ. At `N > 1` each worker folds its counters
    /// into a slot of its own every 256 steps, so mid-burst the live
    /// views (heartbeat, `/status`) lag by up to that many steps per
    /// worker; near a limit every worker folds on every step. Static
    /// analysis runs one worker.
    pub workers: usize,
    pub limits: SearchLimits,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            order: OrderOptions::full(),
            disabled_ips: HashSet::new(),
            unobserved_ips: HashSet::new(),
            initial_state_search: false,
            policy: UndefinedPolicy::Error,
            state_hashing: false,
            workers: 1,
            limits: SearchLimits::default(),
        }
    }
}

impl AnalysisOptions {
    /// Options with a given order-checking preset and everything else
    /// default.
    pub fn with_order(order: OrderOptions) -> Self {
        AnalysisOptions {
            order,
            ..Default::default()
        }
    }

    /// Mark an IP disabled (§2.4.3).
    pub fn disable_ip(mut self, name: &str) -> Self {
        self.disabled_ips.insert(name.to_ascii_lowercase());
        self
    }

    /// Mark an IP's inputs unobserved (§5.2) and switch to the
    /// partial-trace undefined policy.
    pub fn unobserved_ip(mut self, name: &str) -> Self {
        self.unobserved_ips.insert(name.to_ascii_lowercase());
        self.policy = UndefinedPolicy::Propagate;
        self
    }

    /// The effective MDFS worker count: `workers`, with `0` resolved to
    /// the number of available cores (at least 1).
    pub fn resolved_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_labels_match_paper() {
        assert_eq!(OrderOptions::none().label(), "NR");
        assert_eq!(OrderOptions::io().label(), "IO");
        assert_eq!(OrderOptions::ip().label(), "IP");
        assert_eq!(OrderOptions::full().label(), "FULL");
    }

    #[test]
    fn unobserved_ip_switches_policy() {
        let o = AnalysisOptions::default().unobserved_ip("U");
        assert!(o.unobserved_ips.contains("u"));
        assert_eq!(o.policy, UndefinedPolicy::Propagate);
    }

    #[test]
    fn defaults_are_full_checking_strict_policy() {
        let o = AnalysisOptions::default();
        assert_eq!(o.order, OrderOptions::full());
        assert_eq!(o.policy, UndefinedPolicy::Error);
        assert!(!o.initial_state_search);
        assert!(!o.state_hashing);
        assert_eq!(
            o.workers, 1,
            "library callers get the single-threaded search unless they opt in"
        );
    }

    #[test]
    fn resolved_worker_count_interprets_zero_as_auto() {
        let mut o = AnalysisOptions::default();
        assert_eq!(o.resolved_workers(), 1);
        o.workers = 4;
        assert_eq!(o.resolved_workers(), 4);
        o.workers = 0;
        assert!(o.resolved_workers() >= 1, "auto is at least one worker");
    }
}
