//! Unified chaos-engineering layer: composable fault plans and the
//! shared retry/backoff policy.
//!
//! The engine's promise — a *generated* analyzer delivers the same
//! verdict as the specification semantics — must hold under I/O faults,
//! crashes and resource pressure, not just on clean runs. Before this
//! module the fault tooling was three disconnected injectors, one per
//! subsystem: [`FaultySource`](crate::FaultySource) for trace feeds,
//! [`FaultySpillDir`](crate::spill::FaultySpillDir) for the disk spill
//! tier, and the SIGKILL harness for checkpoints. A [`FaultPlan`]
//! composes all three sites (plus the previously untestable
//! checkpoint-write path) into one seeded, reproducible plan, and a
//! [`RetryPolicy`] replaces the three divergent hand-rolled backoff
//! loops with one implementation: bounded exponential backoff and
//! deadline-aware sleeps.
//!
//! Everything here is zero-cost when no plan is armed, mirroring the
//! telemetry layer's design: production paths carry an `Option` that
//! stays `None`, and the retry policies compile to the exact schedules
//! the hand-rolled loops used.
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
use std::time::{Duration, Instant};

pub use crate::search::spill::SpillFaultPlan;
pub use crate::trace::source::SourceFaultPlan;

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

// ------------------------------------------------------- retry policy

/// The shared retry/backoff policy: how many transient failures to
/// absorb and how long to sleep between attempts.
///
/// One implementation now serves the three formerly hand-rolled loops —
/// checkpoint atomic writes ([`RetryPolicy::checkpoint`]), spill-tier
/// I/O ([`RetryPolicy::spill`]) and idle source polling
/// ([`RetryPolicy::source_poll`], via [`Backoff`]) — each keeping its
/// exact historical schedule. The sleep for (1-based) attempt `k` is
/// `min(base * 2^(k-1), cap)`, and never extends past an armed deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt; `0` means fail fast.
    pub max_retries: u32,
    /// Sleep before the first retry.
    pub base: Duration,
    /// Sleep ceiling.
    pub cap: Duration,
    /// When set, a sleep never extends past this instant and no retry
    /// is attempted after it — a retry loop cannot eat the wall-clock
    /// budget of the search around it.
    pub deadline: Option<Instant>,
}

impl RetryPolicy {
    pub const fn new(max_retries: u32, base: Duration, cap: Duration) -> Self {
        RetryPolicy {
            max_retries,
            base,
            cap,
            deadline: None,
        }
    }

    /// The checkpoint atomic-write schedule: 3 retries sleeping
    /// 4/8/16/32 ms (historically `2 << tries` capped at 32).
    pub const fn checkpoint() -> Self {
        RetryPolicy::new(3, Duration::from_millis(4), Duration::from_millis(32))
    }

    /// The spill-tier I/O schedule for a configured retry budget:
    /// 2/4/8/16 ms, capped at 16 (historically `(1 << attempt).min(16)`).
    pub const fn spill(max_retries: u32) -> Self {
        RetryPolicy::new(
            max_retries,
            Duration::from_millis(2),
            Duration::from_millis(16),
        )
    }

    /// The idle-polling schedule of [`crate::FollowFileSource`]: 1 ms
    /// doubling to 100 ms. Unbounded — idle polling never "gives up".
    pub const fn source_poll() -> Self {
        RetryPolicy::new(
            u32::MAX,
            Duration::from_millis(1),
            Duration::from_millis(100),
        )
    }

    /// The MDFS idle-poll schedule: 1 ms doubling to 16 ms, so a busy
    /// feed is picked up within a millisecond while a long-idle monitor
    /// stops burning CPU.
    pub const fn mdfs_poll() -> Self {
        RetryPolicy::new(
            u32::MAX,
            Duration::from_millis(1),
            Duration::from_millis(16),
        )
    }

    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The sleep before (1-based) retry `attempt`, before deadline
    /// clamping: `min(base * 2^(attempt-1), cap)`.
    pub fn sleep_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        self.base
            .checked_mul(1u32 << shift)
            .map_or(self.cap, |d| d.min(self.cap))
    }

    /// [`RetryPolicy::sleep_for`] clamped to the remaining deadline
    /// budget.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let mut d = self.sleep_for(attempt);
        if let Some(deadline) = self.deadline {
            d = d.min(deadline.saturating_duration_since(Instant::now()));
        }
        d
    }

    /// True when the deadline (if any) has passed — no further retry
    /// should be attempted.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Run `op` under this policy, sleeping through `sleep` (injected
    /// so tests can observe the schedule). `op` receives the 0-based
    /// attempt index.
    pub fn run_with_sleep<T, E>(
        &self,
        sleep: &mut dyn FnMut(Duration),
        op: &mut dyn FnMut(u32) -> Result<T, E>,
    ) -> RetryOutcome<T, E> {
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => {
                    return RetryOutcome {
                        result: Ok(v),
                        retries: attempt,
                    }
                }
                Err(e) => {
                    if attempt >= self.max_retries || self.expired() {
                        return RetryOutcome {
                            result: Err(e),
                            retries: attempt,
                        };
                    }
                    attempt += 1;
                    sleep(self.delay_for(attempt));
                }
            }
        }
    }

    /// [`RetryPolicy::run_with_sleep`] sleeping on the current thread.
    pub fn run<T, E>(&self, op: &mut dyn FnMut(u32) -> Result<T, E>) -> RetryOutcome<T, E> {
        self.run_with_sleep(&mut std::thread::sleep, op)
    }
}

/// What a [`RetryPolicy`] run produced: the final result plus how many
/// retries it cost — the number fed into `fault.<site>.retries`.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    pub result: Result<T, E>,
    /// Transient failures absorbed before the final result (0 on a
    /// first-attempt success).
    pub retries: u32,
}

/// Stateful exponential backoff over a [`RetryPolicy`] schedule, for
/// idle-polling sites where "attempts" are spread over time instead of
/// wrapped in one loop ([`crate::FollowFileSource`], the MDFS poll
/// loop).
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
}

impl Backoff {
    pub fn new(policy: RetryPolicy) -> Self {
        Backoff { policy, attempt: 0 }
    }

    /// The next idle delay: doubles per call from the policy's base up
    /// to its cap.
    pub fn next_delay(&mut self) -> Duration {
        self.attempt = self.attempt.saturating_add(1);
        self.policy.delay_for(self.attempt)
    }

    /// The delay the next [`Backoff::next_delay`] call would return
    /// (before deadline clamping) — for tests pinning the schedule.
    pub fn peek(&self) -> Duration {
        self.policy.sleep_for(self.attempt.saturating_add(1))
    }

    /// Data arrived: start over at the base delay.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

// -------------------------------------------- checkpoint write faults

/// Which faults to inject, and how often, on checkpoint atomic writes —
/// the previously real-filesystem-only failure path of autosave.
///
/// Each `*_every` field counts write *attempts* (so retried writes
/// advance the schedule); `0` disables that fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointFaultPlan {
    /// Fail every n-th write attempt with a transient I/O error before
    /// anything touches disk.
    pub io_error_every: u64,
    /// On every n-th write attempt, write only half the bytes to the
    /// temp file, then fail — the torn write of a crashing process.
    /// The destination is never touched, so this also proves the
    /// atomic-rename contract holds under injection.
    pub short_write_every: u64,
    /// After this many write attempts, every further attempt fails
    /// permanently — the disk-full (ENOSPC) model retries cannot save.
    pub disk_full_after: Option<u64>,
}

impl CheckpointFaultPlan {
    pub fn is_armed(&self) -> bool {
        *self != CheckpointFaultPlan::default()
    }
}

/// What a [`CheckpointFaultInjector`] decided for one write attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointWriteFault {
    /// No fault: perform the real write.
    Pass,
    /// Fail with an injected transient I/O error.
    IoError,
    /// Tear the temp file (half the bytes), then fail.
    ShortWrite,
    /// Fail permanently: the device is full.
    DiskFull,
}

/// The armed, stateful form of a [`CheckpointFaultPlan`]: one injector
/// spans a whole run, so the schedule counts attempts across every
/// autosave.
#[derive(Debug)]
pub struct CheckpointFaultInjector {
    plan: CheckpointFaultPlan,
    attempts: u64,
    injected: u64,
}

impl CheckpointFaultInjector {
    pub fn new(plan: CheckpointFaultPlan) -> Self {
        CheckpointFaultInjector {
            plan,
            attempts: 0,
            injected: 0,
        }
    }

    pub fn plan(&self) -> CheckpointFaultPlan {
        self.plan
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decide the fate of the next write attempt. Permanent faults
    /// (disk full) outrank scheduled transient ones.
    pub fn next_fault(&mut self) -> CheckpointWriteFault {
        self.attempts += 1;
        if let Some(after) = self.plan.disk_full_after {
            if self.attempts > after {
                self.injected += 1;
                return CheckpointWriteFault::DiskFull;
            }
        }
        if every_due(self.attempts, self.plan.short_write_every) {
            self.injected += 1;
            return CheckpointWriteFault::ShortWrite;
        }
        if every_due(self.attempts, self.plan.io_error_every) {
            self.injected += 1;
            return CheckpointWriteFault::IoError;
        }
        CheckpointWriteFault::Pass
    }
}

fn every_due(op: u64, every: u64) -> bool {
    every > 0 && op.is_multiple_of(every)
}

// ------------------------------------------------------- unified plan

/// A composable, seeded fault plan arming any combination of the three
/// fault sites in a single run:
///
/// * **source** — the trace feed ([`SourceFaultPlan`] /
///   [`FaultySource`]): corrupt/duplicated/truncated lines, stalls,
///   injected read errors and short reads, recovered per
///   [`RecoveryPolicy`];
/// * **spill** — the disk spill tier ([`SpillFaultPlan`] /
///   [`crate::spill::FaultySpillDir`]): write/read I/O errors, short
///   writes, bit flips, hard disk-full;
/// * **checkpoint** — autosave atomic writes
///   ([`CheckpointFaultPlan`]): I/O errors, torn temp files, ENOSPC.
///
/// A plan is plain data: arming happens where each subsystem is built
/// ([`FaultPlan::build_source`], [`FaultPlan::apply`],
/// [`FaultPlan::checkpoint_injector`]), and every hook is zero-cost
/// when the corresponding site is `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed this plan was composed from ([`FaultPlan::random`]);
    /// `0` for hand-built plans. Recorded so a failing chaos run is
    /// reproducible from its log line alone.
    pub seed: u64,
    pub source: Option<SourceFaultPlan>,
    /// Recovery policy for the fault-injected source (ignored unless
    /// `source` is armed).
    pub source_recovery: RecoveryPolicy,
    pub spill: Option<SpillFaultPlan>,
    pub checkpoint: Option<CheckpointFaultPlan>,
}

impl FaultPlan {
    /// True when at least one fault site is armed.
    pub fn is_armed(&self) -> bool {
        self.source.is_some() || self.spill.is_some() || self.checkpoint.is_some()
    }

    /// True when the plan cannot change *which events the analysis
    /// sees*: every armed fault either retry-recovers losslessly,
    /// degrades to a typed `Inconclusive`, or is warn-and-continue.
    /// Only lossless plans promise verdict + TE/GE/RE/SA equivalence
    /// to the fault-free reference; lossy source faults (corruption,
    /// truncation, duplication, or read faults under
    /// [`RecoveryPolicy::Fail`]) deliver a *different trace*, for which
    /// only the robustness invariants hold.
    pub fn is_lossless(&self) -> bool {
        match &self.source {
            None => true,
            Some(s) => {
                s.corrupt_every == 0
                    && s.duplicate_every == 0
                    && s.truncate_every == 0
                    && (self.source_recovery == RecoveryPolicy::Restart
                        || (s.read_error_every == 0 && s.short_read_every == 0))
            }
        }
    }

    /// Compose a random plan from a seed: 1–3 sites armed, each with
    /// 1–2 fault kinds at moderate frequencies. Deterministic per seed;
    /// every composed plan terminates (no `read_error_every == 1`
    /// livelock under `Restart`, bounded stalls).
    pub fn random(seed: u64) -> FaultPlan {
        let mut r = SplitMix64::new(seed ^ 0xc3a5_c85c_97cb_3127);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let mask = 1 + r.gen_index(7); // 1..=7: at least one site armed
        if mask & 1 != 0 {
            plan.source_recovery = if r.gen_bool() {
                RecoveryPolicy::Restart
            } else {
                RecoveryPolicy::Fail
            };
            let mut s = SourceFaultPlan::default();
            // 1–2 kinds out of six; frequencies 2..=6 so schedules fire
            // repeatedly on small traces without livelocking.
            for _ in 0..(1 + r.gen_index(2)) {
                let every = 2 + r.gen_index(5);
                match r.gen_index(6) {
                    0 => s.corrupt_every = every,
                    1 => s.duplicate_every = every,
                    2 => s.truncate_every = every,
                    3 => {
                        s.stall_every = every;
                        s.stall_polls = 1 + r.gen_index(3);
                    }
                    4 => s.read_error_every = every,
                    _ => s.short_read_every = every,
                }
            }
            plan.source = Some(s);
        }
        if mask & 2 != 0 {
            let mut s = SpillFaultPlan::default();
            for _ in 0..(1 + r.gen_index(2)) {
                let every = 2 + r.gen_index(5) as u64;
                match r.gen_index(4) {
                    0 => s.write_error_every = every,
                    1 => s.short_write_every = every,
                    2 => s.read_error_every = every,
                    _ => s.flip_bit_every = every,
                }
            }
            plan.spill = Some(s);
        }
        if mask & 4 != 0 {
            let mut c = CheckpointFaultPlan::default();
            match r.gen_index(3) {
                0 => c.io_error_every = 2 + r.gen_index(3) as u64,
                1 => c.short_write_every = 2 + r.gen_index(3) as u64,
                _ => c.disk_full_after = Some(1 + r.gen_index(4) as u64),
            }
            plan.checkpoint = Some(c);
        }
        plan
    }

    /// Parse the `--fault-plan` syntax: comma-separated `key=value`
    /// pairs where keys are `seed` or `site.field`, e.g.
    /// `source.read_error_every=3,source.recovery=restart,spill.flip_bit_every=2,checkpoint.io_error_every=2`.
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
            let num = |what: &str| {
                value.parse::<u64>().map_err(|_| {
                    FaultError::Parse(format!("{} needs a number, got `{}`", what, value))
                })
            };
            match key {
                "seed" => plan.seed = num(key)?,
                "source.recovery" => {
                    plan.source_recovery = match value.to_ascii_lowercase().as_str() {
                        "restart" => RecoveryPolicy::Restart,
                        "fail" => RecoveryPolicy::Fail,
                        other => {
                            return Err(FaultError::Parse(format!(
                                "source.recovery must be restart|fail, got `{}`",
                                other
                            )))
                        }
                    };
                    plan.source.get_or_insert_with(SourceFaultPlan::default);
                }
                _ if key.starts_with("source.") => {
                    let s = plan.source.get_or_insert_with(SourceFaultPlan::default);
                    let v = num(key)? as usize;
                    match &key["source.".len()..] {
                        "corrupt_every" => s.corrupt_every = v,
                        "duplicate_every" => s.duplicate_every = v,
                        "truncate_every" => s.truncate_every = v,
                        "stall_every" => s.stall_every = v,
                        "stall_polls" => s.stall_polls = v,
                        "read_error_every" => s.read_error_every = v,
                        "short_read_every" => s.short_read_every = v,
                        other => {
                            return Err(FaultError::Parse(format!(
                                "unknown source fault `{}`",
                                other
                            )))
                        }
                    }
                }
                _ if key.starts_with("spill.") => {
                    let s = plan.spill.get_or_insert_with(SpillFaultPlan::default);
                    let v = num(key)?;
                    match &key["spill.".len()..] {
                        "write_error_every" => s.write_error_every = v,
                        "short_write_every" => s.short_write_every = v,
                        "read_error_every" => s.read_error_every = v,
                        "flip_bit_every" => s.flip_bit_every = v,
                        "hard_writes_after" => s.hard_writes_after = Some(v),
                        other => {
                            return Err(FaultError::Parse(format!(
                                "unknown spill fault `{}`",
                                other
                            )))
                        }
                    }
                }
                _ if key.starts_with("checkpoint.") => {
                    let c = plan
                        .checkpoint
                        .get_or_insert_with(CheckpointFaultPlan::default);
                    let v = num(key)?;
                    match &key["checkpoint.".len()..] {
                        "io_error_every" => c.io_error_every = v,
                        "short_write_every" => c.short_write_every = v,
                        "disk_full_after" => c.disk_full_after = Some(v),
                        other => {
                            return Err(FaultError::Parse(format!(
                                "unknown checkpoint fault `{}`",
                                other
                            )))
                        }
                    }
                }
                other => {
                    return Err(FaultError::Parse(format!(
                        "unknown fault site in `{}` (expected seed, source.*, spill.* or checkpoint.*)",
                        other
                    )))
                }
            }
        }
        Ok(plan)
    }

    /// Render the plan in the exact syntax [`FaultPlan::parse`]
    /// accepts, so `chaos:` log lines are replayable verbatim via
    /// `--fault-plan`.
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        if let Some(s) = &self.source {
            for (name, v) in [
                ("corrupt_every", s.corrupt_every),
                ("duplicate_every", s.duplicate_every),
                ("truncate_every", s.truncate_every),
                ("stall_every", s.stall_every),
                ("stall_polls", s.stall_polls),
                ("read_error_every", s.read_error_every),
                ("short_read_every", s.short_read_every),
            ] {
                if v > 0 {
                    parts.push(format!("source.{}={}", name, v));
                }
            }
            parts.push(format!(
                "source.recovery={}",
                match self.source_recovery {
                    RecoveryPolicy::Restart => "restart",
                    RecoveryPolicy::Fail => "fail",
                }
            ));
        }
        if let Some(s) = &self.spill {
            for (name, v) in [
                ("write_error_every", s.write_error_every),
                ("short_write_every", s.short_write_every),
                ("read_error_every", s.read_error_every),
                ("flip_bit_every", s.flip_bit_every),
            ] {
                if v > 0 {
                    parts.push(format!("spill.{}={}", name, v));
                }
            }
            if let Some(after) = s.hard_writes_after {
                parts.push(format!("spill.hard_writes_after={}", after));
            }
        }
        if let Some(c) = &self.checkpoint {
            if c.io_error_every > 0 {
                parts.push(format!("checkpoint.io_error_every={}", c.io_error_every));
            }
            if c.short_write_every > 0 {
                parts.push(format!("checkpoint.short_write_every={}", c.short_write_every));
            }
            if let Some(after) = c.disk_full_after {
                parts.push(format!("checkpoint.disk_full_after={}", after));
            }
        }
        if parts.is_empty() {
            "unarmed".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Arm the spill site: install the spill sub-plan into the
    /// analysis options (no-op when the site is not armed).
    pub fn apply(&self, options: &mut crate::options::AnalysisOptions) {
        if self.spill.is_some() {
            options.spill.fault_plan = self.spill;
        }
    }

    /// Arm the source site: a [`FaultySource`] over rendered trace
    /// text, with this plan's recovery policy. `None` when the site is
    /// not armed.
    pub fn build_source(
        &self,
        trace_text: &str,
        module: Option<AnalyzedModule>,
    ) -> Option<FaultySource> {
        self.source.map(|plan| {
            FaultySource::new(trace_text, module, plan).with_recovery(self.source_recovery)
        })
    }

    /// Arm the checkpoint site: the stateful injector autosave threads
    /// through [`crate::Checkpoint::write_to_with`]. `None` when the
    /// site is not armed.
    pub fn checkpoint_injector(&self) -> Option<CheckpointFaultInjector> {
        self.checkpoint.map(CheckpointFaultInjector::new)
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
    fn sleep_schedule_matches_the_historical_sites() {
        let cp = RetryPolicy::checkpoint();
        assert_eq!(
            (1..=5).map(|a| cp.sleep_for(a).as_millis()).collect::<Vec<_>>(),
            vec![4, 8, 16, 32, 32],
            "checkpoint kept its 2<<tries schedule"
        );
        let sp = RetryPolicy::spill(3);
        assert_eq!(
            (1..=5).map(|a| sp.sleep_for(a).as_millis()).collect::<Vec<_>>(),
            vec![2, 4, 8, 16, 16],
            "spill kept its (1<<attempt).min(16) schedule"
        );
        let fp = RetryPolicy::source_poll();
        assert_eq!(fp.sleep_for(1).as_millis(), 1);
        assert_eq!(fp.sleep_for(8).as_millis(), 100, "caps at 100ms");
        assert_eq!(fp.sleep_for(10_000).as_millis(), 100, "no overflow at depth");
    }

    #[test]
    fn run_counts_retries_and_bounds_attempts() {
        let policy = RetryPolicy::new(3, Duration::from_millis(1), Duration::from_millis(4));
        let mut slept = Vec::new();
        let mut calls = 0;
        let out = policy.run_with_sleep(&mut |d| slept.push(d), &mut |_| {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.result, Ok(3));
        assert_eq!(out.retries, 2);
        assert_eq!(slept.len(), 2);

        let mut calls = 0;
        let out: RetryOutcome<(), _> =
            policy.run_with_sleep(&mut |_| {}, &mut |_| {
                calls += 1;
                Err("dead")
            });
        assert_eq!(out.result, Err("dead"));
        assert_eq!(calls, 4, "1 try + 3 retries");
        assert_eq!(out.retries, 3);
    }

    #[test]
    fn deadline_stops_retries_and_clamps_sleeps() {
        let p = RetryPolicy::new(100, Duration::from_millis(50), Duration::from_millis(50))
            .with_deadline(Instant::now() + Duration::from_millis(5));
        let mut calls = 0;
        let t0 = Instant::now();
        let out: RetryOutcome<(), _> = p.run(&mut |_| {
            calls += 1;
            Err("down")
        });
        assert!(out.result.is_err());
        assert!(calls < 100, "deadline must cut the retry budget: {}", calls);
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "sleeps must clamp to the deadline: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn backoff_doubles_and_resets() {
        let mut b = Backoff::new(RetryPolicy::source_poll());
        assert_eq!(b.peek(), Duration::from_millis(1));
        let seq: Vec<u128> = (0..9).map(|_| b.next_delay().as_millis()).collect();
        assert_eq!(seq, vec![1, 2, 4, 8, 16, 32, 64, 100, 100]);
        b.reset();
        assert_eq!(b.peek(), Duration::from_millis(1));
    }

    #[test]
    fn checkpoint_injector_schedules_and_counts() {
        let mut inj = CheckpointFaultInjector::new(CheckpointFaultPlan {
            io_error_every: 2,
            ..CheckpointFaultPlan::default()
        });
        assert_eq!(inj.next_fault(), CheckpointWriteFault::Pass);
        assert_eq!(inj.next_fault(), CheckpointWriteFault::IoError);
        assert_eq!(inj.next_fault(), CheckpointWriteFault::Pass);
        assert_eq!(inj.next_fault(), CheckpointWriteFault::IoError);
        assert_eq!(inj.injected(), 2);

        let mut inj = CheckpointFaultInjector::new(CheckpointFaultPlan {
            disk_full_after: Some(1),
            short_write_every: 2,
            ..CheckpointFaultPlan::default()
        });
        assert_eq!(inj.next_fault(), CheckpointWriteFault::Pass);
        assert_eq!(
            inj.next_fault(),
            CheckpointWriteFault::DiskFull,
            "permanent faults outrank scheduled ones"
        );
        assert_eq!(inj.next_fault(), CheckpointWriteFault::DiskFull);
    }

    #[test]
    fn random_plans_are_deterministic_armed_and_terminating() {
        for seed in 0..200 {
            let p = FaultPlan::random(seed);
            assert_eq!(p, FaultPlan::random(seed), "seed {} must replay", seed);
            assert!(p.is_armed(), "seed {} must arm at least one site", seed);
            assert_eq!(p.seed, seed);
            if let Some(s) = &p.source {
                assert!(
                    s.read_error_every != 1,
                    "seed {}: read_error_every=1 livelocks under Restart",
                    seed
                );
                assert!(s.stall_polls <= 3, "seed {}: stalls stay bounded", seed);
            }
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
    fn parse_rejects_malformed_specs_with_typed_errors() {
        for bad in [
            "nonsense",
            "source.read_error_every",
            "source.unknown_fault=2",
            "spill.write_error_every=banana",
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
        let mut p = FaultPlan {
            source: Some(SourceFaultPlan {
                read_error_every: 3,
                stall_every: 2,
                stall_polls: 1,
                ..SourceFaultPlan::default()
            }),
            source_recovery: RecoveryPolicy::Restart,
            ..FaultPlan::default()
        };
        assert!(p.is_lossless(), "retried read faults deliver the full trace");
        p.source_recovery = RecoveryPolicy::Fail;
        assert!(!p.is_lossless(), "read faults under Fail cut the trace short");
        p.source.as_mut().unwrap().read_error_every = 0;
        p.source.as_mut().unwrap().short_read_every = 0;
        assert!(p.is_lossless(), "stalls alone never change the trace");
        p.source.as_mut().unwrap().corrupt_every = 4;
        assert!(!p.is_lossless(), "corruption always loses events");
        p.source = None;
        p.spill = Some(SpillFaultPlan {
            hard_writes_after: Some(1),
            ..SpillFaultPlan::default()
        });
        p.checkpoint = Some(CheckpointFaultPlan {
            io_error_every: 1,
            ..CheckpointFaultPlan::default()
        });
        assert!(
            p.is_lossless(),
            "spill/checkpoint faults degrade typed or warn-and-continue, never mis-verdict"
        );
    }

    #[test]
    fn drain_source_collects_the_delivered_trace() {
        let plan = FaultPlan {
            source: Some(SourceFaultPlan {
                stall_every: 1,
                stall_polls: 2,
                read_error_every: 3,
                ..SourceFaultPlan::default()
            }),
            source_recovery: RecoveryPolicy::Restart,
            ..FaultPlan::default()
        };
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
        let mut src = FaultySource::new(
            "in A.x\neof\n",
            None,
            SourceFaultPlan {
                stall_every: 1,
                stall_polls: usize::MAX,
                ..SourceFaultPlan::default()
            },
        );
        match drain_source(&mut src, 50) {
            Err(FaultError::SourceStalled { polls: 50 }) => {}
            other => panic!("expected SourceStalled, got {:?}", other.map(|_| ())),
        }
    }
}
