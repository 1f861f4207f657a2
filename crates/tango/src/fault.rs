//! Unified chaos-engineering layer: composable fault plans.
//!
//! The engine's promise — a *generated* analyzer delivers the same
//! verdict as the specification semantics — must hold under I/O faults,
//! crashes and resource pressure, not just on clean runs. Before this
//! module the fault tooling was disconnected injectors, one per
//! subsystem: [`FaultySource`](crate::FaultySource) for trace feeds and
//! the SIGKILL harness for checkpoints. A [`FaultPlan`] composes both
//! sites (the source and the checkpoint-write path) into one seeded,
//! reproducible plan: one schedule slot per row of the fault table
//! `FAULTS`, asked through one rule, `FaultPlan::due`.
//!
//! Everything here is zero-cost when no plan is armed, mirroring the
//! telemetry layer's design: production paths carry an `Option` that
//! stays `None` (checkpoint writes an unarmed plan, whose rows never
//! fire).
//!
//! The invariants the chaos runner (`tests/chaos.rs`) asserts over this
//! module:
//!
//! * no panic ever escapes, whatever the plan;
//! * every failure surfaces as a typed error or a typed
//!   `Inconclusive` reason;
//! * a **lossless** plan (see [`FaultPlan::is_lossless`]) that reaches
//!   a conclusive verdict matches the fault-free run's verdict and
//!   TE/GE/RE/SA counters exactly;
//! * crash + resume re-converges to the reference verdict.

use crate::rng::SplitMix64;
use crate::trace::source::{FaultySource, RecoveryPolicy, TraceSource};
use crate::trace::Trace;
use estelle_frontend::sema::model::AnalyzedModule;
use std::fmt;

// ------------------------------------------------------------- errors

/// Typed errors of the chaos layer itself.
#[derive(Debug)]
pub enum FaultError {
    /// A `--fault-plan` specification failed to parse.
    Parse(String),
    /// Draining a fault-injected source exceeded its poll budget — the
    /// plan stalls the feed harder than the budget tolerates.
    SourceStalled { polls: usize },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Parse(m) => write!(f, "bad fault plan: {}", m),
            FaultError::SourceStalled { polls } => write!(
                f,
                "fault-injected source still not at eof after {} polls",
                polls
            ),
        }
    }
}

impl std::error::Error for FaultError {}

// --------------------------------------------------------- fault table

/// Every injectable fault: one variant per `--fault-plan` knob, in the
/// row order of the fault table (DESIGN §6.11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Replace the line with unparseable garbage.
    SourceCorrupt,
    /// Deliver an event line twice (a duplicated observation).
    SourceDuplicate,
    /// Cut the line in half and deliver both halves (mid-line truncation
    /// by a crashing writer).
    SourceTruncate,
    /// Stall for [`Fault::SourceStallPolls`] empty polls after a line.
    SourceStall,
    /// How many empty polls each stall lasts.
    SourceStallPolls,
    /// Fail a read attempt with an injected I/O error, handled per the
    /// plan's [`RecoveryPolicy`]: `Restart` retries the line on the next
    /// poll, `Fail` reads as end-of-trace. `read_error_every=1` under
    /// `Restart` never makes progress.
    SourceReadError,
    /// Return the first half of the line on a read attempt: `Restart`
    /// discards it and retries, `Fail` delivers it as-is.
    SourceShortRead,
    /// Fail a checkpoint write attempt before anything touches disk.
    CheckpointIoError,
    /// Write half the bytes to the temp file, then fail: the torn write
    /// of a crashing process. The destination is never touched.
    CheckpointShortWrite,
    /// Fail every checkpoint write attempt permanently (ENOSPC).
    CheckpointDiskFull,
}

impl Fault {
    /// The site the fault strikes.
    fn site(self) -> Site {
        FAULTS[self as usize].1
    }
}

/// The places a fault can strike, in `--fault-plan` key order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// The trace feed ([`FaultySource`]).
    Source,
    /// Autosave's atomic writes ([`crate::Checkpoint::write_to_with`]).
    Checkpoint,
}

impl Site {
    const ALL: [Site; 2] = [Site::Source, Site::Checkpoint];

    /// The site's `--fault-plan` key prefix.
    fn name(self) -> &'static str {
        match self {
            Site::Source => "source",
            Site::Checkpoint => "checkpoint",
        }
    }
}

/// How a plan value schedules its fault, counted in 1-based operations
/// of the fault's site (see [`FaultPlan::due`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Fires on every n-th operation; `0` never fires.
    Every,
    /// Fires on every operation after the first n (`0`: on all of them).
    After,
    /// No schedule: the length of each source stall, in polls.
    Count,
}

/// Whether a fired fault changes which events the analysis sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loss {
    /// Recovered by retrying, or warn-and-continue.
    Never,
    /// The delivered trace differs from the written one.
    Always,
    /// Lossless under [`RecoveryPolicy::Restart`], lossy under `Fail`.
    UnderFail,
}

/// The fault table (DESIGN §6.11): each fault's site, its `--fault-plan`
/// field (the key is `site.field`), its [`Kind`] and its [`Loss`], in
/// [`Fault`] declaration order. The operation a site counts: delivered
/// lines (source line faults), read attempts (source read faults),
/// write attempts (checkpoint).
#[rustfmt::skip]
const FAULTS: [(Fault, Site, &str, Kind, Loss); 10] = [
    (Fault::SourceCorrupt, Site::Source, "corrupt_every", Kind::Every, Loss::Always),
    (Fault::SourceDuplicate, Site::Source, "duplicate_every", Kind::Every, Loss::Always),
    (Fault::SourceTruncate, Site::Source, "truncate_every", Kind::Every, Loss::Always),
    (Fault::SourceStall, Site::Source, "stall_every", Kind::Every, Loss::Never),
    (Fault::SourceStallPolls, Site::Source, "stall_polls", Kind::Count, Loss::Never),
    (Fault::SourceReadError, Site::Source, "read_error_every", Kind::Every, Loss::UnderFail),
    (Fault::SourceShortRead, Site::Source, "short_read_every", Kind::Every, Loss::UnderFail),
    (Fault::CheckpointIoError, Site::Checkpoint, "io_error_every", Kind::Every, Loss::Never),
    (Fault::CheckpointShortWrite, Site::Checkpoint, "short_write_every", Kind::Every, Loss::Never),
    (Fault::CheckpointDiskFull, Site::Checkpoint, "disk_full_after", Kind::After, Loss::Never),
];

// ------------------------------------------------------- unified plan

/// A composable, seeded fault plan: one schedule slot per [`Fault`],
/// arming either or both fault sites in a single run:
///
/// * **source** — the trace feed ([`FaultySource`]): corrupt, duplicated
///   and truncated lines, stalls, injected read errors and short reads,
///   recovered per [`RecoveryPolicy`];
/// * **checkpoint** — autosave atomic writes
///   ([`crate::Checkpoint::write_to_with`]): I/O errors, torn temp
///   files, ENOSPC.
///
/// A site is armed when any of its slots is set, even to `0`. A plan is
/// plain data: arming happens where each subsystem is built
/// ([`FaultPlan::build_source`], the checkpoint writer), and every hook
/// is zero-cost when its site is unarmed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed this plan was composed from ([`FaultPlan::random`]);
    /// `0` for hand-built plans. Recorded so a failing chaos run is
    /// reproducible from its log line alone.
    pub seed: u64,
    /// Recovery policy of the fault-injected source. Setting any source
    /// slot sets it to the default ([`RecoveryPolicy::Fail`]) when
    /// unset; `Some` alone arms the source site.
    pub(crate) recovery: Option<RecoveryPolicy>,
    schedule: [Option<u64>; FAULTS.len()],
}

impl FaultPlan {
    /// This plan with `fault` scheduled at `value`: every n-th operation,
    /// every operation after the first n, or the stall length in polls.
    pub fn with(mut self, fault: Fault, value: u64) -> FaultPlan {
        self.schedule[fault as usize] = Some(value);
        if fault.site() == Site::Source {
            self.recovery.get_or_insert_default();
        }
        self
    }

    /// This plan with the source site armed under `policy`.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> FaultPlan {
        self.recovery = Some(policy);
        self
    }

    /// The value `fault` is scheduled at, `None` when unset.
    pub(crate) fn get(&self, fault: Fault) -> Option<u64> {
        self.schedule[fault as usize]
    }

    /// The one due rule every site asks: does `fault` fire on the site's
    /// `op`-th operation (1-based)?
    pub(crate) fn due(&self, fault: Fault, op: u64) -> bool {
        match (self.get(fault), FAULTS[fault as usize].3) {
            (Some(every), Kind::Every) => every > 0 && op.is_multiple_of(every),
            (Some(after), Kind::After) => op > after,
            _ => false,
        }
    }

    /// True when at least one fault site is armed.
    pub fn is_armed(&self) -> bool {
        self.recovery.is_some() || self.schedule.iter().any(Option::is_some)
    }

    /// True when `site` is armed: the source by its recovery policy
    /// (which setting any source slot sets), the others by any set slot.
    pub fn armed(&self, site: Site) -> bool {
        match site {
            Site::Source => self.recovery.is_some(),
            _ => FAULTS
                .iter()
                .any(|&(f, s, ..)| s == site && self.get(f).is_some()),
        }
    }

    /// True when the plan cannot change *which events the analysis
    /// sees*: every armed fault either retry-recovers losslessly or is
    /// warn-and-continue.
    /// Only lossless plans promise verdict + TE/GE/RE/SA equivalence
    /// to the fault-free reference; lossy source faults (corruption,
    /// truncation, duplication, or read faults under
    /// [`RecoveryPolicy::Fail`]) deliver a *different trace*, for which
    /// only the robustness invariants hold.
    pub fn is_lossless(&self) -> bool {
        let restart = self.recovery == Some(RecoveryPolicy::Restart);
        FAULTS.iter().all(|&(f, .., loss)| {
            self.get(f).unwrap_or(0) == 0
                || loss == Loss::Never
                || (loss == Loss::UnderFail && restart)
        })
    }

    /// Compose a random plan from a seed: one or both sites armed, the
    /// source with 1–2 fault kinds at moderate frequencies. Deterministic
    /// per seed; every composed plan terminates (no `read_error_every == 1`
    /// livelock under `Restart`, bounded stalls).
    pub fn random(seed: u64) -> FaultPlan {
        use Fault::*;
        let mut r = SplitMix64::new(seed ^ 0xc3a5_c85c_97cb_3127);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let mask = 1 + r.gen_index(3); // 1..=3: at least one site armed
        if mask & 1 != 0 {
            plan.recovery = Some(if r.gen_bool() {
                RecoveryPolicy::Restart
            } else {
                RecoveryPolicy::Fail
            });
            // 1–2 kinds out of six; frequencies 2..=6 so schedules fire
            // repeatedly on small traces without livelocking.
            for _ in 0..(1 + r.gen_index(2)) {
                let every = 2 + r.gen_index(5) as u64;
                let fault = [
                    SourceCorrupt,
                    SourceDuplicate,
                    SourceTruncate,
                    SourceStall,
                    SourceReadError,
                    SourceShortRead,
                ][r.gen_index(6)];
                plan = plan.with(fault, every);
                if fault == SourceStall {
                    plan = plan.with(SourceStallPolls, 1 + r.gen_index(3) as u64);
                }
            }
        }
        if mask & 2 != 0 {
            plan = match r.gen_index(3) {
                0 => plan.with(CheckpointIoError, 2 + r.gen_index(3) as u64),
                1 => plan.with(CheckpointShortWrite, 2 + r.gen_index(3) as u64),
                _ => plan.with(CheckpointDiskFull, 1 + r.gen_index(4) as u64),
            };
        }
        plan
    }

    /// Parse the `--fault-plan` syntax: comma-separated `key=value`
    /// pairs where keys are `seed`, `source.recovery` or a fault's
    /// `site.field` key, e.g.
    /// `source.read_error_every=3,source.recovery=restart,checkpoint.io_error_every=2`.
    /// Naming any `site.*` key arms that site. [`FaultPlan::describe`]
    /// emits exactly this syntax.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultError> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(FaultError::Parse(format!(
                    "`{}` is not a key=value pair",
                    pair
                )));
            };
            let (key, value) = (key.trim(), value.trim());
            let num = || {
                value.parse::<u64>().map_err(|_| {
                    FaultError::Parse(format!("{} needs a number, got `{}`", key, value))
                })
            };
            if key == "seed" {
                plan.seed = num()?;
                continue;
            }
            if key == "source.recovery" {
                plan.recovery = Some(match value.to_ascii_lowercase().as_str() {
                    "restart" => RecoveryPolicy::Restart,
                    "fail" => RecoveryPolicy::Fail,
                    other => {
                        return Err(FaultError::Parse(format!(
                            "source.recovery must be restart|fail, got `{}`",
                            other
                        )))
                    }
                });
                continue;
            }
            let Some((site, field)) = key.split_once('.').and_then(|(name, field)| {
                let site = Site::ALL.into_iter().find(|s| s.name() == name)?;
                Some((site, field))
            }) else {
                return Err(FaultError::Parse(format!(
                    "unknown fault site in `{}` (expected seed, source.* or checkpoint.*)",
                    key
                )));
            };
            let v = num()?;
            let Some(&(fault, ..)) = FAULTS.iter().find(|r| r.1 == site && r.2 == field) else {
                return Err(FaultError::Parse(format!(
                    "unknown {} fault `{}`",
                    site.name(),
                    field
                )));
            };
            plan = plan.with(fault, v);
        }
        Ok(plan)
    }

    /// Render the plan in the exact syntax [`FaultPlan::parse`]
    /// accepts, so `chaos:` log lines are replayable verbatim via
    /// `--fault-plan`. Every-n and count slots set to `0` are left out;
    /// `source.recovery` closes the source rows.
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        for site in Site::ALL {
            for &(fault, _, field, kind, _) in FAULTS.iter().filter(|r| r.1 == site) {
                if let Some(v) = self.get(fault).filter(|&v| v > 0 || kind == Kind::After) {
                    parts.push(format!("{}.{}={}", site.name(), field, v));
                }
            }
            if let (Site::Source, Some(recovery)) = (site, self.recovery) {
                parts.push(format!(
                    "source.recovery={}",
                    match recovery {
                        RecoveryPolicy::Restart => "restart",
                        RecoveryPolicy::Fail => "fail",
                    }
                ));
            }
        }
        if parts.is_empty() {
            "unarmed".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Arm the source site: a [`FaultySource`] over rendered trace
    /// text. `None` when the site is not armed.
    pub fn build_source(
        &self,
        trace_text: &str,
        module: Option<AnalyzedModule>,
    ) -> Option<FaultySource> {
        self.armed(Site::Source)
            .then(|| FaultySource::new(trace_text, module, *self))
    }
}

/// Poll a (typically fault-injected) source until eof, collecting the
/// delivered events into a static trace plus the source's diagnostics.
/// This is how the CLI arms source faults on a static analysis: the
/// whole read path runs through the injector, then the search sees the
/// trace the degraded feed actually delivered. The poll budget bounds
/// stall-heavy plans with a typed error instead of a hang.
pub fn drain_source(
    source: &mut dyn TraceSource,
    max_polls: usize,
) -> Result<(Trace, Vec<String>), FaultError> {
    let mut events = Vec::new();
    for _ in 0..max_polls {
        let p = source.poll();
        events.extend(p.events);
        if p.eof {
            return Ok((Trace::new(events), source.diagnostics()));
        }
    }
    Err(FaultError::SourceStalled { polls: max_polls })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_counts_one_based_operations() {
        let plan = FaultPlan::default()
            .with(Fault::CheckpointIoError, 2)
            .with(Fault::CheckpointDiskFull, 1)
            .with(Fault::SourceCorrupt, 0);
        let fired = |f| (1..=5).filter(|&op| plan.due(f, op)).collect::<Vec<u64>>();
        assert_eq!(fired(Fault::CheckpointIoError), vec![2, 4], "every 2nd");
        assert_eq!(fired(Fault::CheckpointDiskFull), vec![2, 3, 4, 5], "after 1");
        let all = FaultPlan::default().with(Fault::CheckpointDiskFull, 0);
        assert!((1..=5).all(|op| all.due(Fault::CheckpointDiskFull, op)), "after 0: all");
        assert!(fired(Fault::SourceCorrupt).is_empty(), "every 0 never fires");
        assert!(fired(Fault::CheckpointShortWrite).is_empty(), "unset never fires");
    }

    #[test]
    fn fault_table_rows_follow_the_enum() {
        for (i, &(fault, site, field, ..)) in FAULTS.iter().enumerate() {
            assert_eq!(fault as usize, i, "row {} ({}) is out of order", i, field);
            assert_eq!(fault.site(), site);
        }
    }

    #[test]
    fn random_plans_are_deterministic_armed_and_terminating() {
        for seed in 0..200 {
            let p = FaultPlan::random(seed);
            assert_eq!(p, FaultPlan::random(seed), "seed {} must replay", seed);
            assert!(p.is_armed(), "seed {} must arm at least one site", seed);
            assert_eq!(p.seed, seed);
            assert!(
                p.get(Fault::SourceReadError) != Some(1),
                "seed {}: read_error_every=1 livelocks under Restart",
                seed
            );
            assert!(
                p.get(Fault::SourceStallPolls).unwrap_or(0) <= 3,
                "seed {}: stalls stay bounded",
                seed
            );
        }
        assert_ne!(FaultPlan::random(1), FaultPlan::random(2));
    }

    #[test]
    fn parse_describe_round_trips() {
        for seed in 0..50 {
            let p = FaultPlan::random(seed);
            let parsed = FaultPlan::parse(&p.describe())
                .unwrap_or_else(|e| panic!("seed {}: {}", seed, e));
            assert_eq!(parsed, p, "seed {}: describe() must parse back", seed);
        }
    }

    #[test]
    fn every_table_key_parses_and_round_trips() {
        // The keys of DESIGN §6.11, spelled out: the `--fault-plan`
        // grammar must not drift with the table.
        let keys = [
            "source.corrupt_every",
            "source.duplicate_every",
            "source.truncate_every",
            "source.stall_every",
            "source.stall_polls",
            "source.read_error_every",
            "source.short_read_every",
            "checkpoint.io_error_every",
            "checkpoint.short_write_every",
            "checkpoint.disk_full_after",
        ];
        for (&(fault, _, _, kind, _), key) in FAULTS.iter().zip(keys) {
            let spec = format!("{}=3", key);
            let p = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("{}: {}", key, e));
            assert_eq!(p.get(fault), Some(3), "{}", key);
            assert_eq!(FaultPlan::parse(&p.describe()).unwrap(), p, "{}", key);
            if kind == Kind::After {
                // `0` keeps its meaning: every operation fails.
                let p = FaultPlan::parse(&format!("{}=0", key)).unwrap();
                assert_eq!(p.describe(), format!("{}=0", key));
                assert!(p.due(fault, 1), "{}=0 fires from the first operation", key);
                assert_eq!(FaultPlan::parse(&p.describe()).unwrap(), p, "{}=0", key);
            }
        }
        let p = FaultPlan::parse("source.recovery=restart").unwrap();
        assert_eq!(p.describe(), "source.recovery=restart", "recovery alone arms the source");
        assert!(p.build_source("eof\n", None).is_some());
    }

    #[test]
    fn parse_rejects_malformed_specs_with_typed_errors() {
        for bad in [
            "nonsense",
            "source.read_error_every",
            "source.unknown_fault=2",
            "checkpoint.io_error_every=banana",
            "orbit.decay_every=3",
            "source.recovery=sideways",
        ] {
            match FaultPlan::parse(bad) {
                Err(FaultError::Parse(_)) => {}
                other => panic!("`{}` must fail to parse, got {:?}", bad, other),
            }
        }
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn lossless_classification() {
        let mut p = FaultPlan::default()
            .with(Fault::SourceReadError, 3)
            .with(Fault::SourceStall, 2)
            .with(Fault::SourceStallPolls, 1)
            .with_recovery(RecoveryPolicy::Restart);
        assert!(p.is_lossless(), "retried read faults deliver the full trace");
        p = p.with_recovery(RecoveryPolicy::Fail);
        assert!(!p.is_lossless(), "read faults under Fail cut the trace short");
        p = p.with(Fault::SourceReadError, 0).with(Fault::SourceShortRead, 0);
        assert!(p.is_lossless(), "stalls alone never change the trace");
        p = p.with(Fault::SourceCorrupt, 4);
        assert!(!p.is_lossless(), "corruption always loses events");
        let p = FaultPlan::default()
            .with(Fault::CheckpointDiskFull, 1)
            .with(Fault::CheckpointIoError, 1);
        assert!(
            p.is_lossless(),
            "checkpoint faults warn and continue, never mis-verdict"
        );
    }

    #[test]
    fn drain_source_collects_the_delivered_trace() {
        let plan = FaultPlan::default()
            .with(Fault::SourceStall, 1)
            .with(Fault::SourceStallPolls, 2)
            .with(Fault::SourceReadError, 3)
            .with_recovery(RecoveryPolicy::Restart);
        let mut src = plan
            .build_source("in A.x\nin A.y\nin A.x\neof\n", None)
            .expect("source site armed");
        let (trace, faults) = drain_source(&mut src, 1000).expect("drains");
        assert_eq!(trace.events.len(), 3, "Restart retries deliver every event");
        assert!(
            faults.iter().any(|f| f.contains("injected read error")),
            "{:?}",
            faults
        );

        // A stall-forever plan exhausts the poll budget with a typed error.
        let plan = FaultPlan::default()
            .with(Fault::SourceStall, 1)
            .with(Fault::SourceStallPolls, u64::MAX);
        let mut src = FaultySource::new("in A.x\neof\n", None, plan);
        match drain_source(&mut src, 50) {
            Err(FaultError::SourceStalled { polls: 50 }) => {}
            other => panic!("expected SourceStalled, got {:?}", other.map(|_| ())),
        }
    }
}
