//! Multi-threaded depth-first search (§3.1) for on-line trace analysis.
//!
//! Standard DFS deadlocks on dynamic traces: a branch may be blocked only
//! because an input queue is temporarily empty, while the real solution is
//! elsewhere — or right here once more data arrives. MDFS therefore keeps
//! every node whose transition list was *incomplete* (an input queue was
//! exhausted but may still grow) as a saved **PG-node** "thread" and
//! re-generates it when new input arrives.
//!
//! Implementation notes mapping to the paper:
//! * each search node carries its own state snapshot plus the set of
//!   transitions already explored from it, so a re-generate only explores
//!   what the new input enabled (§3.1.1's "additional transitions");
//! * *dynamic node reordering* (§3.1.3): whenever new input arrives the
//!   PG-nodes are pushed on **top** of the work stack, putting the rest of
//!   the tree "on hold";
//! * termination (§3.1.2): `Invalid` only when the tree is exhausted and
//!   no PG-nodes remain; a PG-node that has consumed and verified
//!   everything received so far is a **PGAV-node** and yields the interim
//!   verdict `ValidSoFar`; cycling through non-AV PG-nodes yields
//!   `LikelyInvalid`; the `eof` marker freezes the trace, turns PG-nodes
//!   into fully generated ones, and forces a conclusive verdict;
//! * an output that cannot be matched *yet* (its stream may still grow)
//!   does not count as explored, so the branch is retried later — the
//!   output-side dual of an incomplete transition list.
//!
//! # Multi-core search (DESIGN §6.13)
//!
//! With `workers = 1` (the default) the search runs the classic
//! single-consumer loop below, byte-for-byte identical in telemetry to
//! earlier releases. With `workers = N ≥ 2` the search runs in
//! **burst-barrier** mode: only the coordinator polls the source; each
//! DFS burst (the work between two polls) fans the work stack out over N
//! scoped threads pulling from per-worker work-stealing deques (owner
//! pops LIFO, thieves steal FIFO from the top, round-robin scan, short
//! parks when every deque is empty). Node snapshots live in the sharded
//! [`ShardedStore`] so saves and eviction stay lock-light.
//!
//! Determinism: within a burst the trace is frozen, so each node's
//! expansion is a pure function of (state, cursors, trace) and the search
//! *tree* is schedule-independent; per-worker counter deltas merged at
//! the barrier therefore equal the sequential totals exactly. Pre-eof
//! bursts can never conclude `Valid` (an all-done node pre-eof parks as a
//! PGAV), and parked nodes are re-ordered by their deterministic park
//! labels, so interim verdicts match too. A post-eof burst that finds
//! *any* witness aborts, discards its deltas, and **replays that burst
//! sequentially** from clones of the burst's input nodes — recovering the
//! exact witness (and counters) the single-worker search would report.
//! Exhaustive (`Invalid`/limit) verdicts keep the parallel deltas, which
//! are exact by the tiling argument: every popped node-step either runs
//! to completion (counters recorded, children pushed) or the node is
//! returned to a deque untouched.
//!
//! Resource governance: the wall-clock deadline is checked both in the
//! search burst and in the idle polling loop, so a monitor fed by a
//! stalled or dead source stops with `Inconclusive(TimeLimit)` instead of
//! wedging silently; the snapshot-memory budget covers work + PG nodes.
//! Limit stops additionally freeze the surviving search front into an
//! [`MdfsCheckpoint`] (worker deques + parked nodes + prior PG-list) so
//! eof-reached runs can resume — at any worker count. Whatever the
//! verdict, [`TraceSource::diagnostics`] is folded into
//! [`AnalysisReport::source_faults`] so feed-level faults (parse errors,
//! truncation, a dead feeder) survive into the report.

use crate::checkpoint::{Checkpoint, CheckpointBody, MdfsCheckpoint, MdfsNodeCkpt, MdfsWorkerCkpt};
use crate::env::{Cursors, RejectReason, TraceEnv};
use crate::error::TangoError;
use crate::fault::{Backoff, RetryPolicy};
use crate::options::AnalysisOptions;
use crate::stats::SearchStats;
use crate::telemetry::{PruneKind, Telemetry};
use crate::trace::source::{Poll, TraceSource};
use crate::trace::ResolvedTrace;
use crate::verdict::{AnalysisReport, InconclusiveReason, Verdict};
use estelle_frontend::sema::model::AnalyzedModule;
use estelle_runtime::{FireOutcome, Machine, MachineState, RuntimeError, RuntimeErrorKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use super::path::SharedPath;
use super::snapshot::state_key;
use super::spill::{SpillCounters, SpillError, SpillTicket, SpillTier};
use super::store::{ShardedStore, StoreHandle};
use super::{guard, is_fatal, record_error, MAX_RECORDED_ERRORS};

/// How long an idle thief sleeps before re-scanning the deques.
const IDLE_PARK: Duration = Duration::from_micros(100);
/// Buffered worker telemetry events per flush. Every flush wakes the
/// coordinator, which then competes with the workers for a core: at 64
/// events a flush, the flight recorder cost two workers on two cores
/// about 25% of their speed; at 1024 it costs a few percent.
const EVENT_FLUSH: usize = 1024;

/// A node's set of compiled-transition indices. A node holds only a
/// handful, so a sorted `Vec` beats a hash table: no hashing, and no
/// allocation until the first insert. Being sorted, it freezes as is.
#[derive(Clone, Default)]
struct TransSet(Vec<usize>);

impl TransSet {
    /// From a checkpoint's list (sorted there, but not trusted to be).
    fn from_vec(mut v: Vec<usize>) -> Self {
        v.sort_unstable();
        v.dedup();
        TransSet(v)
    }

    fn contains(&self, t: usize) -> bool {
        self.0.binary_search(&t).is_ok()
    }

    fn insert(&mut self, t: usize) {
        if let Err(i) = self.0.binary_search(&t) {
            self.0.insert(i, t);
        }
    }

    fn remove(&mut self, t: usize) {
        if let Ok(i) = self.0.binary_search(&t) {
            self.0.remove(i);
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One saved search-tree node ("thread").
struct Node {
    /// The node's snapshot: resident in RAM, or (under memory pressure,
    /// with a spill tier attached) parked in a segment file with the
    /// claim check in `ticket`.
    state: Option<MachineState>,
    /// Segment record holding this node's snapshot, once written.
    /// Snapshots are immutable, so re-evicting a ticketed node is
    /// write-free.
    ticket: Option<SpillTicket>,
    cursors: Cursors,
    /// Compiled-transition indices already explored from this node.
    tried: TransSet,
    /// Transitions whose firing failed only because an output stream was
    /// exhausted-but-growing: retried once new data arrives. Without this
    /// the node would spin on the same transition without ever polling.
    blocked: TransSet,
    /// Consecutive barren steps on the path to this node.
    barren: usize,
    path: SharedPath,
    /// Snapshot bytes proper — the part that moves between RAM and disk.
    state_bytes: usize,
    /// Cursor/bookkeeping bytes — always RAM-resident.
    meta_bytes: usize,
}

impl Node {
    fn new(state: MachineState, cursors: Cursors, barren: usize, path: SharedPath) -> Self {
        let state_bytes = state.approx_bytes();
        let meta_bytes =
            (cursors.input.len() + cursors.output.len()) * std::mem::size_of::<usize>();
        Node {
            state: Some(state),
            ticket: None,
            cursors,
            tried: TransSet::default(),
            blocked: TransSet::default(),
            barren,
            path,
            state_bytes,
            meta_bytes,
        }
    }

    /// Rebuild a node frozen into a checkpoint (or cloned for replay).
    fn from_parts(
        state: MachineState,
        cursors: Cursors,
        tried: TransSet,
        blocked: TransSet,
        barren: usize,
        path: SharedPath,
    ) -> Self {
        let mut n = Node::new(state, cursors, barren, path);
        n.tried = tried;
        n.blocked = blocked;
        n
    }

    /// Bytes currently charged against the RAM gauge for this node.
    fn charged(&self) -> usize {
        self.meta_bytes + if self.state.is_some() { self.state_bytes } else { 0 }
    }

    /// Bytes the node charges once resident — what the budget check uses
    /// for the node about to be expanded.
    fn resident_footprint(&self) -> usize {
        self.meta_bytes + self.state_bytes
    }

    /// The resident snapshot. The search faults a popped node in before
    /// expanding it, so this never observes a spilled node.
    fn resident_state(&self) -> &MachineState {
        self.state
            .as_ref()
            .expect("node is faulted in before expansion")
    }

    /// The resident snapshot, for Generate: it only reads the state (see
    /// DESIGN §6.13), so no scratch copy is needed.
    fn resident_state_mut(&mut self) -> &mut MachineState {
        self.state
            .as_mut()
            .expect("node is faulted in before expansion")
    }
}

/// Evict one node's snapshot to the spill tier. `Ok(bytes)` is what
/// moved from the RAM gauge to the disk gauge (0 when already spilled).
/// A write failure keeps the node resident, so the search can still
/// finish or report from it.
fn spill_node(tier: &mut SpillTier, node: &mut Node) -> Result<usize, SpillError> {
    let Some(state) = node.state.take() else {
        return Ok(0);
    };
    if node.ticket.is_none() {
        match tier.write_state(state_key(&state), &state) {
            Ok(t) => node.ticket = Some(t),
            Err(e) => {
                node.state = Some(state);
                return Err(e);
            }
        }
    }
    tier.counters_mut().evictions += 1;
    Ok(node.state_bytes)
}

/// Fault a spilled node's snapshot back in (checksum-verified on read).
/// `Ok(bytes)` is what moved from the disk gauge back to RAM.
fn fault_in(tier: &mut SpillTier, node: &mut Node) -> Result<usize, SpillError> {
    if node.state.is_some() {
        return Ok(0);
    }
    let ticket = node.ticket.expect("a spilled node holds a ticket");
    node.state = Some(tier.read_state(&ticket)?);
    Ok(node.state_bytes)
}

/// Spill counter values carried in from a resumed run's stats;
/// the fresh tier/store counters are added on top so cross-resume totals
/// stay cumulative. Zero for a fresh run.
#[derive(Clone, Copy, Default)]
struct CarryBase {
    spill_writes: u64,
    spill_reads: u64,
    spill_retries: u64,
    spill_evictions: u64,
    spill_giveups: u64,
    peak_snapshot_bytes: usize,
    peak_spilled_bytes: usize,
}

impl CarryBase {
    fn of(stats: &SearchStats) -> Self {
        CarryBase {
            spill_writes: stats.spill_writes,
            spill_reads: stats.spill_reads,
            spill_retries: stats.spill_retries,
            spill_evictions: stats.spill_evictions,
            spill_giveups: stats.spill_giveups,
            peak_snapshot_bytes: stats.peak_snapshot_bytes,
            peak_spilled_bytes: stats.peak_spilled_bytes,
        }
    }
}

/// Mirror the spill tier's counters and the disk-residency gauge into
/// the run's stats (on top of any resumed-in base).
fn stamp_spill(stats: &mut SearchStats, base: &CarryBase, c: SpillCounters, disk_bytes: usize) {
    stats.spill_writes = base.spill_writes + c.writes;
    stats.spill_reads = base.spill_reads + c.reads;
    stats.spill_retries = base.spill_retries + c.retries;
    stats.spill_evictions = base.spill_evictions + c.evictions;
    stats.spill_giveups = base.spill_giveups + c.giveups;
    stats.spilled_bytes = disk_bytes;
    stats.peak_spilled_bytes = stats.peak_spilled_bytes.max(disk_bytes);
}

/// Mirror the sharded store's counters and gauges into the run's stats
/// (multi-worker runs; the store is rebuilt per run, so resumed-in base
/// values are added back).
fn stamp_store(stats: &mut SearchStats, base: &CarryBase, store: &ShardedStore) {
    stats.snapshot_bytes = store.resident_bytes();
    stats.peak_snapshot_bytes = base.peak_snapshot_bytes.max(store.peak_resident_bytes());
    let c = store.spill_counters();
    stats.spill_writes = base.spill_writes + c.writes;
    stats.spill_reads = base.spill_reads + c.reads;
    stats.spill_retries = base.spill_retries + c.retries;
    stats.spill_evictions = base.spill_evictions + c.evictions;
    stats.spill_giveups = base.spill_giveups + c.giveups;
    stats.spilled_bytes = store.spilled_bytes();
    stats.peak_spilled_bytes = base.peak_spilled_bytes.max(store.peak_spilled_bytes());
}

/// One worker's accumulated busy/idle/steal wall-clock split.
#[derive(Clone, Copy, Default)]
struct Clock {
    busy: Duration,
    idle: Duration,
    steal: Duration,
}

/// How the run spent its time, for the per-worker gauges.
enum WorkerClocks {
    /// Single-worker loop: elapsed minus the idle-poll sleeps.
    Seq { slept: Duration },
    /// One clock per worker, accumulated across bursts.
    Par(Vec<Clock>),
}

/// Terminal bookkeeping of one MDFS run: stamp the elapsed time and the
/// source's fault diagnostics + retry counters, report the per-worker
/// busy/idle(/steal) splits into the metrics registry (idle-poll and
/// steal-scan time is not search time), emit the verdict event and the
/// final heartbeat, attach the frozen checkpoint (limit stops only),
/// then assemble the report.
#[allow(clippy::too_many_arguments)]
fn finish(
    verdict: Verdict,
    witness: Option<Vec<String>>,
    mut stats: SearchStats,
    spec_errors: Vec<RuntimeError>,
    source: &dyn TraceSource,
    t0: Instant,
    base_wall: Duration,
    clocks: WorkerClocks,
    cap: u64,
    spill_faults: Vec<String>,
    checkpoint: Option<MdfsCheckpoint>,
    trace: &ResolvedTrace,
    tel: &mut Telemetry,
) -> AnalysisReport {
    stats.wall_time = base_wall + t0.elapsed();
    stats.source_retries += source.fault_retries();
    stats.source_giveups += source.fault_giveups();
    if let Some(m) = tel.metrics_mut() {
        match &clocks {
            WorkerClocks::Seq { slept } => {
                let busy = stats
                    .wall_time
                    .saturating_sub(base_wall)
                    .saturating_sub(*slept);
                m.set_gauge("mdfs.worker0.busy_seconds", busy.as_secs_f64());
                m.set_gauge("mdfs.worker0.idle_seconds", slept.as_secs_f64());
            }
            WorkerClocks::Par(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    m.set_gauge(&format!("mdfs.worker{}.busy_seconds", i), c.busy.as_secs_f64());
                    m.set_gauge(&format!("mdfs.worker{}.idle_seconds", i), c.idle.as_secs_f64());
                    m.set_gauge(
                        &format!("mdfs.worker{}.steal_seconds", i),
                        c.steal.as_secs_f64(),
                    );
                }
            }
        }
    }
    tel.on_verdict(&verdict, &stats, cap);
    let mut r = AnalysisReport::new(verdict, stats);
    r.witness = witness;
    r.spec_errors = spec_errors;
    r.source_faults = source.diagnostics();
    r.spill_faults = spill_faults;
    r.checkpoint = checkpoint.map(|m| {
        Box::new(Checkpoint {
            body: CheckpointBody::Mdfs(m),
            trace: trace.clone(),
            stats: r.stats.clone(),
        })
    });
    r
}

/// Freeze one sequential node into its checkpoint form.
fn node_to_ckpt(n: Node) -> MdfsNodeCkpt {
    MdfsNodeCkpt {
        state: n.state.expect("nodes are faulted in before freezing"),
        cursors: n.cursors,
        tried: n.tried.0,
        blocked: n.blocked.0,
        barren: n.barren,
        path: n.path.to_indices(),
    }
}

/// Thaw a checkpointed node back into a sequential node.
fn node_from_ckpt(c: MdfsNodeCkpt) -> Node {
    Node::from_parts(
        c.state,
        c.cursors,
        TransSet::from_vec(c.tried),
        TransSet::from_vec(c.blocked),
        c.barren,
        SharedPath::from_indices(&c.path),
    )
}

/// A resumed run's starting front, thawed from an [`MdfsCheckpoint`].
struct MdfsSeed {
    /// Work stack, bottom to top (the saved deques concatenated in
    /// worker order).
    work: Vec<MdfsNodeCkpt>,
    /// PG-list: prior parks first, then the stopped burst's parks in
    /// worker order.
    pg: Vec<MdfsNodeCkpt>,
    eof: bool,
    trace: ResolvedTrace,
    stats: SearchStats,
}

/// The source behind a resumed run. Only eof-reached checkpoints are
/// resumable (a pre-eof source's read position cannot be re-established),
/// so the resumed search never needs real data: every poll just
/// re-asserts end-of-file.
struct EofSource;

impl TraceSource for EofSource {
    fn poll(&mut self) -> Poll {
        Poll {
            events: Vec::new(),
            eof: true,
        }
    }
}

/// Run MDFS against a dynamic trace source. `on_status` sees every change
/// of the interim verdict; returning `false` stops the analysis and
/// reports the interim verdict.
pub fn run_mdfs(
    machine: &Machine,
    module: &AnalyzedModule,
    source: &mut dyn TraceSource,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, TangoError> {
    match options.resolved_workers() {
        0 | 1 => run_seq(machine, module, source, options, on_status, tel, None),
        n => run_par(machine, module, source, options, on_status, tel, n, None),
    }
}

/// Resume a stopped on-line analysis from its frozen search front. The
/// checkpoint is worker-count independent: the saved nodes are
/// redistributed over this run's `options.resolved_workers()` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resume_mdfs(
    machine: &Machine,
    module: &AnalyzedModule,
    ckpt: MdfsCheckpoint,
    trace: ResolvedTrace,
    stats: SearchStats,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, TangoError> {
    let mut work = Vec::new();
    let mut parked = Vec::new();
    for w in ckpt.workers {
        work.extend(w.deque);
        parked.extend(w.parked);
    }
    let mut pg = ckpt.pg_prior;
    pg.extend(parked);
    let seed = MdfsSeed {
        work,
        pg,
        eof: ckpt.eof,
        trace,
        stats,
    };
    let mut src = EofSource;
    match options.resolved_workers() {
        0 | 1 => run_seq(machine, module, &mut src, options, on_status, tel, Some(seed)),
        n => run_par(machine, module, &mut src, options, on_status, tel, n, Some(seed)),
    }
}

/// Freeze the sequential search front for a limit-stop checkpoint.
/// Spilled nodes are faulted back in first (checkpoint files are
/// self-contained); a read failure makes the stop un-checkpointable and
/// is recorded as a spill fault instead.
fn freeze_seq(
    work: &mut Vec<Node>,
    pg_list: &mut Vec<Node>,
    mut tier: Option<&mut SpillTier>,
    eof: bool,
    spill_faults: &mut Vec<String>,
) -> Option<MdfsCheckpoint> {
    for list in [&mut *work, &mut *pg_list] {
        for n in list.iter_mut() {
            if n.state.is_none() {
                let t = tier
                    .as_deref_mut()
                    .expect("spilled nodes only exist with a spill tier");
                if let Err(e) = fault_in(t, n) {
                    spill_faults.push(format!("checkpoint save skipped: {}", e));
                    return None;
                }
            }
        }
    }
    Some(MdfsCheckpoint {
        workers_at_save: 1,
        eof,
        workers: vec![MdfsWorkerCkpt {
            deque: work.drain(..).map(node_to_ckpt).collect(),
            parked: Vec::new(),
        }],
        pg_prior: pg_list.drain(..).map(node_to_ckpt).collect(),
    })
}

/// The classic single-consumer MDFS loop (`workers = 1`), optionally
/// seeded from a checkpoint.
#[allow(clippy::too_many_arguments)]
fn run_seq(
    machine: &Machine,
    module: &AnalyzedModule,
    source: &mut dyn TraceSource,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
    seed: Option<MdfsSeed>,
) -> Result<AnalysisReport, TangoError> {
    let t0 = Instant::now();
    let deadline = options.limits.max_wall_time.map(|d| t0 + d);
    let cap = options.limits.max_transitions;
    // Cumulative idle-poll sleep; elapsed minus this is the worker's
    // genuine busy time.
    let mut slept = Duration::ZERO;
    let machine = machine.policy_view(options.policy);
    let (mut stats, base_wall, trace0, eof0, seed_front) = match seed {
        Some(s) => {
            let bw = s.stats.wall_time;
            (s.stats, bw, s.trace, s.eof, Some((s.work, s.pg)))
        }
        None => (
            SearchStats::default(),
            Duration::ZERO,
            ResolvedTrace::empty(module.ips.len()),
            false,
            None,
        ),
    };
    let carry = CarryBase::of(&stats);
    let mut spec_errors: Vec<RuntimeError> = Vec::new();

    let mut env = TraceEnv::new(module, trace0, options, true)?;
    env.eof = eof0;

    // Disk spill tier: under a memory budget, park cold node snapshots
    // in segment files instead of stopping `Inconclusive(MemoryLimit)`.
    let mut spill_tier = match options.spill.build_tier(options.limits.max_state_bytes) {
        Ok(t) => t.map(|mut t| {
            // Spill retry sleeps honor the same wall-clock deadline the
            // search loop enforces.
            if let Some(d) = deadline {
                t.set_deadline(d);
            }
            t
        }),
        Err(e) => {
            return Ok(finish(
                Verdict::Inconclusive(InconclusiveReason::SpillFailure),
                None,
                stats,
                spec_errors,
                &*source,
                t0,
                base_wall,
                WorkerClocks::Seq { slept },
                cap,
                vec![e.to_string()],
                None,
                &env.trace,
                tel,
            ));
        }
    };
    let mut spill_faults: Vec<String> = spill_tier
        .as_mut()
        .map(SpillTier::take_warnings)
        .unwrap_or_default();
    // Snapshot bytes currently parked in spill segments.
    let mut disk_bytes: usize = 0;

    let mut work: Vec<Node> = Vec::new();
    let mut pg_list: Vec<Node> = Vec::new();

    match seed_front {
        None => {
            let start = machine.initial_state()?;
            stats.saves += 1;
            let root = Node::new(start, env.save(), 0, SharedPath::default());
            stats.snapshot_bytes = root.charged();
            stats.peak_snapshot_bytes = stats.peak_snapshot_bytes.max(stats.snapshot_bytes);
            if tel.hot() {
                tel.on_save(0, root.charged(), stats.snapshot_bytes);
            }
            work.push(root);
        }
        Some((wseeds, pseeds)) => {
            // The resumed nodes arrive resident; the RAM gauge restarts
            // from their charges (the save faulted everything in).
            stats.snapshot_bytes = 0;
            for c in wseeds {
                let n = node_from_ckpt(c);
                stats.snapshot_bytes += n.charged();
                work.push(n);
            }
            for c in pseeds {
                let n = node_from_ckpt(c);
                stats.snapshot_bytes += n.charged();
                pg_list.push(n);
            }
            stats.peak_snapshot_bytes = stats.peak_snapshot_bytes.max(stats.snapshot_bytes);
        }
    }

    /// Revive parked PG-nodes: fresh data may unblock output-blocked
    /// transitions, so their blocked sets are cleared. With §3.1.3
    /// reordering the revived nodes go on top of the LIFO work stack and
    /// are searched immediately; basic MDFS queues them at the bottom,
    /// after the rest of the known tree.
    fn revive(work: &mut Vec<Node>, pg_list: &mut Vec<Node>, reorder: bool) {
        for n in pg_list.iter_mut() {
            n.blocked.clear();
        }
        if reorder {
            work.append(pg_list);
        } else {
            let rest = std::mem::take(work);
            work.append(pg_list);
            work.extend(rest);
        }
    }

    let mut last_status: Option<Verdict> = None;

    // Per-search *Generate* scratch, refilled in place by `generate_into`
    // so every node expansion reuses one fireable buffer (filtered down
    // to the untried candidates in place).
    let mut gen = estelle_runtime::Generated::default();

    loop {
        // Absorb anything the source produced.
        let poll = source.poll();
        let got_new = !poll.events.is_empty();
        for e in &poll.events {
            env.trace.push_event(e, module).map_err(TangoError::TraceResolve)?;
        }
        if poll.eof {
            env.eof = true;
        }
        if got_new || poll.eof {
            // Dynamic node reordering: PG-nodes jump the queue.
            revive(&mut work, &mut pg_list, options.mdfs_reorder);
        }

        // DFS burst until the work stack drains.
        while let Some(mut node) = work.pop() {
            tel.tick(&stats, cap);
            // The counter is rebuilt from per-node charges across
            // park/revive cycles; saturate (and flag in debug builds)
            // rather than ever letting it wrap.
            debug_assert!(
                stats.snapshot_bytes >= node.charged(),
                "snapshot byte accounting must never wrap"
            );
            stats.snapshot_bytes = stats.snapshot_bytes.saturating_sub(node.charged());
            if stats.transitions_executed > options.limits.max_transitions {
                stats.snapshot_bytes += node.charged();
                work.push(node);
                let ckpt = freeze_seq(
                    &mut work,
                    &mut pg_list,
                    spill_tier.as_mut(),
                    env.eof,
                    &mut spill_faults,
                );
                return Ok(finish(
                    Verdict::Inconclusive(InconclusiveReason::TransitionLimit),
                    None,
                    stats,
                    spec_errors,
                    &*source,
                    t0,
                    base_wall,
                    WorkerClocks::Seq { slept },
                    cap,
                    spill_faults,
                    ckpt,
                    &env.trace,
                    tel,
                ));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                stats.snapshot_bytes += node.charged();
                work.push(node);
                let ckpt = freeze_seq(
                    &mut work,
                    &mut pg_list,
                    spill_tier.as_mut(),
                    env.eof,
                    &mut spill_faults,
                );
                return Ok(finish(
                    Verdict::Inconclusive(InconclusiveReason::TimeLimit),
                    None,
                    stats,
                    spec_errors,
                    &*source,
                    t0,
                    base_wall,
                    WorkerClocks::Seq { slept },
                    cap,
                    spill_faults,
                    ckpt,
                    &env.trace,
                    tel,
                ));
            }
            if let Some(cap_bytes) = options.limits.max_state_bytes {
                if let Some(tier) = spill_tier.as_mut() {
                    // Tiering, not a stop condition: evict parked
                    // snapshots — parked PG-nodes first, then the work
                    // stack bottom-up (coldest first) — until the
                    // resident set plus this node (about to be faulted
                    // in) fits the budget. If the genuinely live set
                    // alone exceeds the budget there is nothing left to
                    // evict and the search continues over budget — the
                    // tier's contract is degradation, never a stop.
                    let need = node.resident_footprint();
                    'evict: for list in [&mut pg_list, &mut work] {
                        for parked in list.iter_mut() {
                            if stats.snapshot_bytes + need <= cap_bytes {
                                break 'evict;
                            }
                            match spill_node(tier, parked) {
                                Ok(moved) => {
                                    stats.snapshot_bytes =
                                        stats.snapshot_bytes.saturating_sub(moved);
                                    disk_bytes += moved;
                                }
                                Err(e) => {
                                    spill_faults.push(e.to_string());
                                    stamp_spill(&mut stats, &carry, tier.counters(), disk_bytes);
                                    return Ok(finish(
                                        Verdict::Inconclusive(
                                            InconclusiveReason::SpillFailure,
                                        ),
                                        None,
                                        stats,
                                        spec_errors,
                                        &*source,
                                        t0,
                                        base_wall,
                                        WorkerClocks::Seq { slept },
                                        cap,
                                        spill_faults,
                                        None,
                                        &env.trace,
                                        tel,
                                    ));
                                }
                            }
                        }
                    }
                } else if stats.snapshot_bytes + node.resident_footprint() > cap_bytes {
                    stats.snapshot_bytes += node.charged();
                    work.push(node);
                    let ckpt = freeze_seq(
                        &mut work,
                        &mut pg_list,
                        spill_tier.as_mut(),
                        env.eof,
                        &mut spill_faults,
                    );
                    return Ok(finish(
                        Verdict::Inconclusive(InconclusiveReason::MemoryLimit),
                        None,
                        stats,
                        spec_errors,
                        &*source,
                        t0,
                        base_wall,
                        WorkerClocks::Seq { slept },
                        cap,
                        spill_faults,
                        ckpt,
                        &env.trace,
                        tel,
                    ));
                }
            }
            // Fault the node in before expanding it.
            if node.state.is_none() {
                let tier = spill_tier
                    .as_mut()
                    .expect("spilled nodes only exist with a spill tier");
                match fault_in(tier, &mut node) {
                    Ok(moved) => disk_bytes = disk_bytes.saturating_sub(moved),
                    Err(e) => {
                        spill_faults.push(e.to_string());
                        stamp_spill(&mut stats, &carry, tier.counters(), disk_bytes);
                        return Ok(finish(
                            Verdict::Inconclusive(InconclusiveReason::SpillFailure),
                            None,
                            stats,
                            spec_errors,
                            &*source,
                            t0,
                            base_wall,
                            WorkerClocks::Seq { slept },
                            cap,
                            spill_faults,
                            None,
                            &env.trace,
                            tel,
                        ));
                    }
                }
            }
            if let Some(t) = spill_tier.as_ref() {
                stamp_spill(&mut stats, &carry, t.counters(), disk_bytes);
            }
            stats.max_depth = stats.max_depth.max(node.path.len());
            env.restore(&node.cursors);
            stats.restores += 1;
            tel.on_restore(node.path.len());

            if env.all_done() {
                if env.eof {
                    return Ok(finish(
                        Verdict::Valid,
                        Some(node.path.to_vec(&machine)),
                        stats,
                        spec_errors,
                        &*source,
                        t0,
                        base_wall,
                        WorkerClocks::Seq { slept },
                        cap,
                        spill_faults,
                        None,
                        &env.trace,
                        tel,
                    ));
                }
                // PGAV: everything so far is explained; park the node.
                stats.pg_nodes += 1;
                stats.snapshot_bytes += node.charged();
                tel.on_park(node.path.len(), stats.pg_nodes);
                pg_list.push(node);
                continue;
            }

            // Generate (or re-generate) this node's transition list,
            // directly on its snapshot: Generate never writes the state.
            let st = node.resident_state_mut();
            stats.generates += 1;
            let gen_t0 = tel.timer();
            match guard("generate", || machine.generate_into(st, &env, &mut gen)) {
                Ok(()) => {}
                Err(e) if is_fatal(&e) => return Err(TangoError::Runtime(e)),
                Err(e) => {
                    tel.on_error_branch(node.path.len(), e.kind);
                    record_error(&mut spec_errors, &mut stats, e);
                    // Keep GE == generate-events: a failed expansion is an
                    // event with zero fanout.
                    tel.on_generate(node.path.len(), 0, false, gen_t0);
                    continue;
                }
            };
            let is_pg = gen.incomplete;
            gen.fireable
                .retain(|f| !node.tried.contains(f.trans) && !node.blocked.contains(f.trans));
            let untried = gen.fireable.len();
            // Fanout as the search sees it: candidates not yet explored
            // from this node (a re-generate only offers what new input
            // enabled).
            tel.on_generate(node.path.len(), untried, is_pg, gen_t0);
            if untried > 0 {
                stats.fanout_sum += untried as u64;
                stats.fanout_samples += 1;
            }

            if untried == 0 {
                if is_pg || !node.blocked.is_empty() {
                    if pg_list.len() >= options.limits.max_pg_nodes {
                        stats.snapshot_bytes += node.charged();
                        work.push(node);
                        let ckpt = freeze_seq(
                            &mut work,
                            &mut pg_list,
                            spill_tier.as_mut(),
                            env.eof,
                            &mut spill_faults,
                        );
                        return Ok(finish(
                            Verdict::Inconclusive(InconclusiveReason::PgNodeLimit),
                            None,
                            stats,
                            spec_errors,
                            &*source,
                            t0,
                            base_wall,
                            WorkerClocks::Seq { slept },
                            cap,
                            spill_faults,
                            ckpt,
                            &env.trace,
                            tel,
                        ));
                    }
                    stats.pg_nodes += 1;
                    stats.snapshot_bytes += node.charged();
                    tel.on_park(node.path.len(), stats.pg_nodes);
                    pg_list.push(node);
                }
                continue;
            }

            // Fire the first untried candidate on a copy of the node's
            // state — the one copy an expansion makes.
            let f = gen.fireable.swap_remove(0);
            node.tried.insert(f.trans);
            let mut child_state = node.resident_state().snapshot();
            env.restore(&node.cursors);
            let before = env.outstanding();
            stats.transitions_executed += 1;
            let fire_t0 = tel.timer();
            env.begin_fire();
            let fired = match guard("fire", || machine.fire(&mut child_state, &f, &mut env)) {
                Ok(FireOutcome::Completed) => env.end_fire(),
                Ok(FireOutcome::OutputRejected) => false,
                Err(e) if is_fatal(&e) => return Err(TangoError::Runtime(e)),
                Err(e) => {
                    tel.on_error_branch(node.path.len(), e.kind);
                    record_error(&mut spec_errors, &mut stats, e);
                    false
                }
            };
            if tel.hot() {
                let observable = if tel.events_on() {
                    machine.transition_observable(f.trans)
                } else {
                    None
                };
                tel.on_fire(
                    node.path.len(),
                    f.trans,
                    machine.transition_name(f.trans),
                    observable,
                    fired,
                    fire_t0,
                );
            }
            if !fired && env.last_reject == Some(RejectReason::MayGrow) {
                // The failure was "output not in the trace *yet*": park it
                // as blocked and retry once data arrives.
                node.tried.remove(f.trans);
                node.blocked.insert(f.trans);
            }

            let has_more = untried > 1 || is_pg || !node.blocked.is_empty();
            if fired {
                let child_barren = if env.outstanding() < before {
                    0
                } else {
                    node.barren + 1
                };
                let child_path = node.path.push(f.trans as u32);
                if has_more {
                    stats.snapshot_bytes += node.charged();
                    work.push(node);
                }
                if child_barren > options.limits.max_barren_steps {
                    stats.barren_prunes += 1;
                    tel.on_prune(child_path.len(), PruneKind::Barren);
                } else {
                    stats.saves += 1;
                    let child = Node::new(child_state, env.save(), child_barren, child_path);
                    stats.snapshot_bytes += child.charged();
                    stats.peak_snapshot_bytes =
                        stats.peak_snapshot_bytes.max(stats.snapshot_bytes);
                    if tel.hot() {
                        tel.on_save(child.path.len(), child.charged(), stats.snapshot_bytes);
                    }
                    work.push(child);
                }
            } else if has_more {
                stats.snapshot_bytes += node.charged();
                work.push(node);
            }
        }

        // The tree (as currently known) is exhausted.
        if env.eof {
            if pg_list.is_empty() {
                return Ok(finish(
                    Verdict::Invalid,
                    None,
                    stats,
                    spec_errors,
                    &*source,
                    t0,
                    base_wall,
                    WorkerClocks::Seq { slept },
                    cap,
                    spill_faults,
                    None,
                    &env.trace,
                    tel,
                ));
            }
            // EOF makes PG-nodes fully generated: process them once more.
            revive(&mut work, &mut pg_list, options.mdfs_reorder);
            continue;
        }
        if pg_list.is_empty() {
            // No PG-node can be revived by future input: conclusively
            // invalid even though the trace may keep growing (§3.1.2).
            return Ok(finish(
                Verdict::Invalid,
                None,
                stats,
                spec_errors,
                &*source,
                t0,
                base_wall,
                WorkerClocks::Seq { slept },
                cap,
                spill_faults,
                None,
                &env.trace,
                tel,
            ));
        }

        // Interim verdict: PGAV ⇒ valid so far, else likely invalid.
        let any_av = pg_list.iter().any(|n| {
            env.restore(&n.cursors);
            env.all_done()
        });
        let status = if any_av {
            Verdict::ValidSoFar
        } else {
            Verdict::LikelyInvalid
        };
        if last_status.as_ref() != Some(&status) {
            tel.on_interim_verdict(&status);
            last_status = Some(status.clone());
        }
        if !on_status(&status) {
            return Ok(finish(
                status,
                None,
                stats,
                spec_errors,
                &*source,
                t0,
                base_wall,
                WorkerClocks::Seq { slept },
                cap,
                spill_faults,
                None,
                &env.trace,
                tel,
            ));
        }

        // Block until the source has more to say — but never past the
        // deadline: a stalled source must not wedge the monitor. Polls
        // back off on the shared [`RetryPolicy::mdfs_poll`] schedule
        // (1ms doubling to 16ms) while the source stays silent; entering
        // this loop anew (i.e. after data arrived) starts over at the
        // minimum interval.
        let mut idle = Backoff::new(RetryPolicy::mdfs_poll());
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                let ckpt = freeze_seq(
                    &mut work,
                    &mut pg_list,
                    spill_tier.as_mut(),
                    env.eof,
                    &mut spill_faults,
                );
                return Ok(finish(
                    Verdict::Inconclusive(InconclusiveReason::TimeLimit),
                    None,
                    stats,
                    spec_errors,
                    &*source,
                    t0,
                    base_wall,
                    WorkerClocks::Seq { slept },
                    cap,
                    spill_faults,
                    ckpt,
                    &env.trace,
                    tel,
                ));
            }
            let p = source.poll();
            if !p.events.is_empty() || p.eof {
                for e in &p.events {
                    env.trace.push_event(e, module).map_err(TangoError::TraceResolve)?;
                }
                if p.eof {
                    env.eof = true;
                }
                revive(&mut work, &mut pg_list, options.mdfs_reorder);
                break;
            }
            // Never sleep past the deadline — the expiry check above
            // stays exact to within scheduler latency.
            let idle_sleep = idle.next_delay();
            let sleep = match deadline {
                Some(d) => idle_sleep.min(d.saturating_duration_since(Instant::now())),
                None => idle_sleep,
            };
            std::thread::sleep(sleep);
            slept += sleep;
        }
    }
}

/// One parallel search node; its snapshot lives in the [`ShardedStore`].
///
/// `key`/`step` implement the deterministic park labels: the root nodes
/// of a burst get `key = [i]` (their sequential pop order), every pop of
/// a node consumes one `step`, and a child created at the parent's step
/// `s` gets `key = parent.key ++ [s]`. Sequential pop labels are
/// lexicographically increasing (a child's subtree is fully explored
/// between its parent's pops `s` and `s+1`), so sorting parked nodes by
/// their park label `key ++ [step]` reproduces the single-worker park
/// order no matter which worker parked them.
struct PNode {
    handle: StoreHandle,
    cursors: Cursors,
    tried: TransSet,
    blocked: TransSet,
    barren: usize,
    path: SharedPath,
    key: Vec<u32>,
    step: u32,
}

/// One buffered telemetry event from a worker thread. The `Telemetry`
/// handle is not `Send`, so workers record plain data and the
/// coordinator replays batches through the real handle (stamped with the
/// worker id). No strings cross the channel — names are resolved at
/// replay time, and only when the event stream is actually on.
enum WEvent {
    Generate {
        depth: usize,
        fanout: usize,
        incomplete: bool,
        lat_us: Option<f64>,
    },
    Fire {
        depth: usize,
        trans: usize,
        fired: bool,
        nanos: u64,
    },
    Save {
        depth: usize,
        bytes: usize,
        resident: usize,
    },
    Restore {
        depth: usize,
    },
    Park {
        depth: usize,
        pg_total: u64,
    },
    Prune {
        depth: usize,
    },
    ErrorBranch {
        depth: usize,
        kind: RuntimeErrorKind,
    },
}

/// Why a burst stopped early. First setter wins; later causes are
/// dropped (their worker already pushed its node back, so nothing is
/// lost either way).
enum StopCause {
    /// A valid leaf was found post-eof; the coordinator replays the
    /// burst sequentially for the deterministic first witness.
    Witness,
    /// A resource limit tripped; the surviving front is checkpointed.
    Limit(InconclusiveReason),
    /// A fatal runtime error (engine bug class) — propagated as `Err`.
    Fatal(RuntimeError),
}

/// Shared state of one burst.
struct BurstShared<'s> {
    /// Per-worker deques: owner pushes/pops at the back (LIFO), thieves
    /// pop at the front (FIFO — the coldest, usually largest subtree).
    deques: Vec<Mutex<VecDeque<PNode>>>,
    /// Nodes alive in deques or being processed. A thief that finds
    /// every deque empty checks this: zero means the burst is done
    /// (nodes in flight are still counted until retired or parked).
    pending: AtomicUsize,
    stop: Mutex<Option<StopCause>>,
    stopped: AtomicBool,
    /// Live TE/GE/RE/SA counters (seeded from the cumulative stats at
    /// burst start) — the TE limit check and the progress heartbeat
    /// read these; the authoritative merge uses per-worker deltas.
    te: AtomicU64,
    ge: AtomicU64,
    re: AtomicU64,
    sa: AtomicU64,
    /// Current parked-PG population (seeded with the prior PG-list len),
    /// for the `max_pg_nodes` limit.
    pg: AtomicU64,
    depth: AtomicUsize,
    store: &'s ShardedStore,
}

impl BurstShared<'_> {
    fn set_stop(&self, cause: StopCause) {
        let mut s = self.stop.lock().expect("stop lock");
        if s.is_none() {
            *s = Some(cause);
        }
        self.stopped.store(true, Ordering::Release);
    }
}

/// What one worker brings back from a burst: its counter delta (zero
/// gauges — those are re-stamped from the store), recorded spec errors,
/// parked PG-nodes with their park labels, and its wall-clock split.
#[derive(Default)]
struct WorkerOut {
    delta: SearchStats,
    spec_errors: Vec<RuntimeError>,
    parked: Vec<(Vec<u32>, PNode)>,
    spill_faults: Vec<String>,
    busy: Duration,
    idle: Duration,
    steal: Duration,
}

/// One worker's burst loop: pop own-LIFO, steal FIFO round-robin, park
/// briefly when everything is empty, expand nodes with the same
/// per-step governance as the sequential loop. Every stop site pushes
/// the in-flight node back to the owner's deque first, so the surviving
/// front is complete whichever cause wins the stop race. `events` carries
/// buffered telemetry to the coordinator when `tel_on`; either way,
/// dropping it at exit is what wakes the coordinator.
#[allow(clippy::too_many_arguments)]
fn burst_worker(
    widx: usize,
    machine: &Machine,
    mut env: TraceEnv,
    options: &AnalysisOptions,
    deadline: Option<Instant>,
    sh: &BurstShared<'_>,
    events: mpsc::Sender<(u16, Vec<WEvent>)>,
    tel_on: bool,
    timed: bool,
) -> WorkerOut {
    let n_workers = sh.deques.len();
    let cap = options.limits.max_transitions;
    let mut out = WorkerOut::default();
    let mut gen = estelle_runtime::Generated::default();
    let mut ebuf: Vec<WEvent> = Vec::new();
    let t_loop = Instant::now();

    fn flush(events: &mpsc::Sender<(u16, Vec<WEvent>)>, widx: usize, ebuf: &mut Vec<WEvent>) {
        if !ebuf.is_empty() {
            let _ = events.send((widx as u16, std::mem::take(ebuf)));
        }
    }

    loop {
        if sh.stopped.load(Ordering::Acquire) {
            break;
        }
        let popped = sh.deques[widx].lock().expect("deque lock").pop_back();
        let mut node = match popped {
            Some(n) => n,
            None => {
                // Steal-then-park: scan the other deques round-robin
                // from our right-hand neighbour, taking from the top.
                let t_steal = Instant::now();
                let mut stolen = None;
                for k in 1..n_workers {
                    let v = (widx + k) % n_workers;
                    if let Some(n) = sh.deques[v].lock().expect("deque lock").pop_front() {
                        stolen = Some(n);
                        break;
                    }
                }
                out.steal += t_steal.elapsed();
                match stolen {
                    Some(n) => {
                        out.delta.steals += 1;
                        n
                    }
                    None => {
                        out.delta.steal_failures += 1;
                        if sh.pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        let t_idle = Instant::now();
                        std::thread::sleep(IDLE_PARK);
                        out.idle += t_idle.elapsed();
                        continue;
                    }
                }
            }
        };

        let depth = node.path.len();
        // Per-pop governance, mirroring the sequential loop's order.
        if sh.te.load(Ordering::Relaxed) > cap {
            sh.deques[widx].lock().expect("deque lock").push_back(node);
            sh.set_stop(StopCause::Limit(InconclusiveReason::TransitionLimit));
            break;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            sh.deques[widx].lock().expect("deque lock").push_back(node);
            sh.set_stop(StopCause::Limit(InconclusiveReason::TimeLimit));
            break;
        }
        if let Some(cap_bytes) = options.limits.max_state_bytes {
            if sh.store.spill_enabled() {
                // Degrade: evict cold slots until this node's expansion
                // fits; a poisoned store (write failure) stops instead.
                sh.store.evict_to_budget(node.handle.state_bytes);
                if sh.store.is_poisoned() {
                    sh.deques[widx].lock().expect("deque lock").push_back(node);
                    sh.set_stop(StopCause::Limit(InconclusiveReason::SpillFailure));
                    break;
                }
            } else if sh.store.resident_bytes() + node.handle.state_bytes > cap_bytes {
                sh.deques[widx].lock().expect("deque lock").push_back(node);
                sh.set_stop(StopCause::Limit(InconclusiveReason::MemoryLimit));
                break;
            }
        }

        let s = node.step;
        node.step += 1;
        out.delta.max_depth = out.delta.max_depth.max(depth);
        sh.depth.fetch_max(depth, Ordering::Relaxed);
        env.restore(&node.cursors);
        out.delta.restores += 1;
        sh.re.fetch_add(1, Ordering::Relaxed);
        if tel_on {
            ebuf.push(WEvent::Restore { depth });
        }

        if env.all_done() {
            if env.eof {
                // Witness found: keep the node alive in the deques (a
                // racing limit stop must still see a complete front)
                // and let the coordinator replay the burst.
                sh.deques[widx].lock().expect("deque lock").push_back(node);
                sh.set_stop(StopCause::Witness);
                break;
            }
            // PGAV: park with its deterministic label.
            out.delta.pg_nodes += 1;
            let total = sh.pg.fetch_add(1, Ordering::Relaxed) + 1;
            if tel_on {
                ebuf.push(WEvent::Park {
                    depth,
                    pg_total: total,
                });
            }
            let mut label = node.key.clone();
            label.push(s);
            sh.pending.fetch_sub(1, Ordering::AcqRel);
            out.parked.push((label, node));
            continue;
        }

        // Generate (or re-generate) this node's transition list. One
        // store round-trip serves the whole expansion: Generate only
        // reads `st`, which then becomes the child's state if a
        // transition fires.
        let mut st = match sh.store.materialize(node.handle) {
            Ok(st) => st,
            Err(e) => {
                out.spill_faults.push(e.to_string());
                sh.deques[widx].lock().expect("deque lock").push_back(node);
                sh.set_stop(StopCause::Limit(InconclusiveReason::SpillFailure));
                break;
            }
        };
        out.delta.generates += 1;
        sh.ge.fetch_add(1, Ordering::Relaxed);
        let g0 = if timed { Some(Instant::now()) } else { None };
        match guard("generate", || machine.generate_into(&mut st, &env, &mut gen)) {
            Ok(()) => {}
            Err(e) if is_fatal(&e) => {
                sh.deques[widx].lock().expect("deque lock").push_back(node);
                sh.set_stop(StopCause::Fatal(e));
                break;
            }
            Err(e) => {
                if tel_on {
                    ebuf.push(WEvent::ErrorBranch { depth, kind: e.kind });
                    ebuf.push(WEvent::Generate {
                        depth,
                        fanout: 0,
                        incomplete: false,
                        lat_us: g0.map(|t| t.elapsed().as_secs_f64() * 1e6),
                    });
                }
                record_error(&mut out.spec_errors, &mut out.delta, e);
                sh.store.release(node.handle);
                sh.pending.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
        };
        let is_pg = gen.incomplete;
        gen.fireable
            .retain(|f| !node.tried.contains(f.trans) && !node.blocked.contains(f.trans));
        let untried = gen.fireable.len();
        if tel_on {
            ebuf.push(WEvent::Generate {
                depth,
                fanout: untried,
                incomplete: is_pg,
                lat_us: g0.map(|t| t.elapsed().as_secs_f64() * 1e6),
            });
        }
        if untried > 0 {
            out.delta.fanout_sum += untried as u64;
            out.delta.fanout_samples += 1;
        }

        if untried == 0 {
            if is_pg || !node.blocked.is_empty() {
                if sh.pg.load(Ordering::Relaxed) >= options.limits.max_pg_nodes as u64 {
                    sh.deques[widx].lock().expect("deque lock").push_back(node);
                    sh.set_stop(StopCause::Limit(InconclusiveReason::PgNodeLimit));
                    break;
                }
                out.delta.pg_nodes += 1;
                let total = sh.pg.fetch_add(1, Ordering::Relaxed) + 1;
                if tel_on {
                    ebuf.push(WEvent::Park {
                        depth,
                        pg_total: total,
                    });
                }
                let mut label = node.key.clone();
                label.push(s);
                sh.pending.fetch_sub(1, Ordering::AcqRel);
                out.parked.push((label, node));
            } else {
                sh.store.release(node.handle);
                sh.pending.fetch_sub(1, Ordering::AcqRel);
            }
            continue;
        }

        // Fire the first untried candidate on the materialized copy.
        let f = gen.fireable.swap_remove(0);
        node.tried.insert(f.trans);
        let mut child_state = st;
        env.restore(&node.cursors);
        let before = env.outstanding();
        out.delta.transitions_executed += 1;
        sh.te.fetch_add(1, Ordering::Relaxed);
        let f0 = if timed { Some(Instant::now()) } else { None };
        env.begin_fire();
        let fired = match guard("fire", || machine.fire(&mut child_state, &f, &mut env)) {
            Ok(FireOutcome::Completed) => env.end_fire(),
            Ok(FireOutcome::OutputRejected) => false,
            Err(e) if is_fatal(&e) => {
                sh.deques[widx].lock().expect("deque lock").push_back(node);
                sh.set_stop(StopCause::Fatal(e));
                break;
            }
            Err(e) => {
                if tel_on {
                    ebuf.push(WEvent::ErrorBranch { depth, kind: e.kind });
                }
                record_error(&mut out.spec_errors, &mut out.delta, e);
                false
            }
        };
        if tel_on {
            ebuf.push(WEvent::Fire {
                depth,
                trans: f.trans,
                fired,
                nanos: f0.map_or(0, |t| t.elapsed().as_nanos() as u64),
            });
        }
        if !fired && env.last_reject == Some(RejectReason::MayGrow) {
            node.tried.remove(f.trans);
            node.blocked.insert(f.trans);
        }

        let has_more = untried > 1 || is_pg || !node.blocked.is_empty();
        if fired {
            let child_barren = if env.outstanding() < before {
                0
            } else {
                node.barren + 1
            };
            let child_path = node.path.push(f.trans as u32);
            let mut child_key = node.key.clone();
            child_key.push(s);
            let mut child_opt = None;
            if child_barren > options.limits.max_barren_steps {
                out.delta.barren_prunes += 1;
                if tel_on {
                    ebuf.push(WEvent::Prune {
                        depth: child_path.len(),
                    });
                }
            } else {
                out.delta.saves += 1;
                sh.sa.fetch_add(1, Ordering::Relaxed);
                let h = sh.store.save(child_state);
                if tel_on {
                    ebuf.push(WEvent::Save {
                        depth: child_path.len(),
                        bytes: h.state_bytes,
                        resident: sh.store.resident_bytes(),
                    });
                }
                let child = PNode {
                    handle: h,
                    cursors: env.save(),
                    tried: TransSet::default(),
                    blocked: TransSet::default(),
                    barren: child_barren,
                    path: child_path,
                    key: child_key,
                    step: 0,
                };
                // Count the child before it becomes visible so `pending`
                // can never dip to zero while work remains.
                sh.pending.fetch_add(1, Ordering::AcqRel);
                child_opt = Some(child);
            }
            // Parent first, child last: the owner's next pop is the
            // child — the sequential loop's depth-first order, which
            // keeps the frontier (and the resident set) small.
            if has_more {
                sh.deques[widx].lock().expect("deque lock").push_back(node);
            } else {
                sh.store.release(node.handle);
                sh.pending.fetch_sub(1, Ordering::AcqRel);
            }
            if let Some(c) = child_opt {
                sh.deques[widx].lock().expect("deque lock").push_back(c);
            }
        } else if has_more {
            sh.deques[widx].lock().expect("deque lock").push_back(node);
        } else {
            sh.store.release(node.handle);
            sh.pending.fetch_sub(1, Ordering::AcqRel);
        }
        if ebuf.len() >= EVENT_FLUSH {
            flush(&events, widx, &mut ebuf);
        }
    }
    flush(&events, widx, &mut ebuf);
    out.busy = t_loop
        .elapsed()
        .saturating_sub(out.idle)
        .saturating_sub(out.steal);
    out
}

/// A clone of one burst-input node, taken before a post-eof burst
/// starts so a witness abort can replay the burst sequentially.
struct ReplaySeed {
    state: MachineState,
    cursors: Cursors,
    tried: TransSet,
    blocked: TransSet,
    barren: usize,
    path: SharedPath,
}

/// Freeze one parallel node into its checkpoint form (materializing its
/// snapshot out of the store).
fn pnode_to_ckpt(store: &ShardedStore, n: &PNode) -> Result<MdfsNodeCkpt, SpillError> {
    Ok(MdfsNodeCkpt {
        state: store.materialize(n.handle)?,
        cursors: n.cursors.clone(),
        tried: n.tried.0.clone(),
        blocked: n.blocked.0.clone(),
        barren: n.barren,
        path: n.path.to_indices(),
    })
}

/// Freeze the multi-worker front: every worker's leftover deque and the
/// nodes it parked in the stopped burst, plus the prior PG-list. A spill
/// read failure makes the stop un-checkpointable (recorded as a fault).
fn freeze_par(
    store: &ShardedStore,
    deques: &[Mutex<VecDeque<PNode>>],
    parked: &[Vec<PNode>],
    pg_list: &[PNode],
    eof: bool,
    spill_faults: &mut Vec<String>,
) -> Option<MdfsCheckpoint> {
    let fault = |e: SpillError, spill_faults: &mut Vec<String>| {
        spill_faults.push(format!("checkpoint save skipped: {}", e));
    };
    let mut workers = Vec::with_capacity(deques.len());
    for (i, dq) in deques.iter().enumerate() {
        let dq = dq.lock().expect("deque lock");
        let mut w = MdfsWorkerCkpt {
            deque: Vec::with_capacity(dq.len()),
            parked: Vec::with_capacity(parked[i].len()),
        };
        for n in dq.iter() {
            match pnode_to_ckpt(store, n) {
                Ok(c) => w.deque.push(c),
                Err(e) => {
                    fault(e, spill_faults);
                    return None;
                }
            }
        }
        for n in &parked[i] {
            match pnode_to_ckpt(store, n) {
                Ok(c) => w.parked.push(c),
                Err(e) => {
                    fault(e, spill_faults);
                    return None;
                }
            }
        }
        workers.push(w);
    }
    let mut pg_prior = Vec::with_capacity(pg_list.len());
    for n in pg_list {
        match pnode_to_ckpt(store, n) {
            Ok(c) => pg_prior.push(c),
            Err(e) => {
                fault(e, spill_faults);
                return None;
            }
        }
    }
    Some(MdfsCheckpoint {
        workers_at_save: deques.len() as u32,
        eof,
        workers,
        pg_prior,
    })
}

/// Replay a witness-aborted post-eof burst sequentially, from clones of
/// the burst's input nodes, resuming from the burst-start cumulative
/// stats. Telemetry events are suppressed (phase one already streamed
/// live) and the memory budget is skipped — the burst just ran inside
/// it, and the replay stops at the first witness, which is exactly the
/// witness (and counter total) the single-worker search reports.
#[allow(clippy::too_many_arguments)]
fn replay_burst(
    machine: &Machine,
    env: &mut TraceEnv,
    options: &AnalysisOptions,
    seeds: Vec<ReplaySeed>,
    mut stats: SearchStats,
    mut spec_errors: Vec<RuntimeError>,
    source: &dyn TraceSource,
    t0: Instant,
    base_wall: Duration,
    clocks: Vec<Clock>,
    cap: u64,
    deadline: Option<Instant>,
    spill_faults: Vec<String>,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, TangoError> {
    let mut gen = estelle_runtime::Generated::default();
    // Seeds arrive in sequential pop order; the stack pops from the end.
    let mut work: Vec<Node> = seeds
        .into_iter()
        .rev()
        .map(|s| Node::from_parts(s.state, s.cursors, s.tried, s.blocked, s.barren, s.path))
        .collect();
    let mut pg_list: Vec<Node> = Vec::new();

    loop {
        while let Some(mut node) = work.pop() {
            if stats.transitions_executed > cap {
                return Ok(finish(
                    Verdict::Inconclusive(InconclusiveReason::TransitionLimit),
                    None,
                    stats,
                    spec_errors,
                    source,
                    t0,
                    base_wall,
                    WorkerClocks::Par(clocks),
                    cap,
                    spill_faults,
                    None,
                    &env.trace,
                    tel,
                ));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(finish(
                    Verdict::Inconclusive(InconclusiveReason::TimeLimit),
                    None,
                    stats,
                    spec_errors,
                    source,
                    t0,
                    base_wall,
                    WorkerClocks::Par(clocks),
                    cap,
                    spill_faults,
                    None,
                    &env.trace,
                    tel,
                ));
            }
            stats.max_depth = stats.max_depth.max(node.path.len());
            env.restore(&node.cursors);
            stats.restores += 1;
            if env.all_done() {
                // eof holds throughout: the sequential-first witness.
                return Ok(finish(
                    Verdict::Valid,
                    Some(node.path.to_vec(machine)),
                    stats,
                    spec_errors,
                    source,
                    t0,
                    base_wall,
                    WorkerClocks::Par(clocks),
                    cap,
                    spill_faults,
                    None,
                    &env.trace,
                    tel,
                ));
            }
            let st = node.resident_state_mut();
            stats.generates += 1;
            match guard("generate", || machine.generate_into(st, env, &mut gen)) {
                Ok(()) => {}
                Err(e) if is_fatal(&e) => return Err(TangoError::Runtime(e)),
                Err(e) => {
                    record_error(&mut spec_errors, &mut stats, e);
                    continue;
                }
            };
            let is_pg = gen.incomplete;
            gen.fireable
                .retain(|f| !node.tried.contains(f.trans) && !node.blocked.contains(f.trans));
            let untried = gen.fireable.len();
            if untried > 0 {
                stats.fanout_sum += untried as u64;
                stats.fanout_samples += 1;
            }
            if untried == 0 {
                if is_pg || !node.blocked.is_empty() {
                    if pg_list.len() >= options.limits.max_pg_nodes {
                        return Ok(finish(
                            Verdict::Inconclusive(InconclusiveReason::PgNodeLimit),
                            None,
                            stats,
                            spec_errors,
                            source,
                            t0,
                            base_wall,
                            WorkerClocks::Par(clocks),
                            cap,
                            spill_faults,
                            None,
                            &env.trace,
                            tel,
                        ));
                    }
                    stats.pg_nodes += 1;
                    pg_list.push(node);
                }
                continue;
            }
            let f = gen.fireable.swap_remove(0);
            node.tried.insert(f.trans);
            let mut child_state = node.resident_state().snapshot();
            env.restore(&node.cursors);
            let before = env.outstanding();
            stats.transitions_executed += 1;
            env.begin_fire();
            let fired = match guard("fire", || machine.fire(&mut child_state, &f, env)) {
                Ok(FireOutcome::Completed) => env.end_fire(),
                Ok(FireOutcome::OutputRejected) => false,
                Err(e) if is_fatal(&e) => return Err(TangoError::Runtime(e)),
                Err(e) => {
                    record_error(&mut spec_errors, &mut stats, e);
                    false
                }
            };
            if !fired && env.last_reject == Some(RejectReason::MayGrow) {
                node.tried.remove(f.trans);
                node.blocked.insert(f.trans);
            }
            let has_more = untried > 1 || is_pg || !node.blocked.is_empty();
            if fired {
                let child_barren = if env.outstanding() < before {
                    0
                } else {
                    node.barren + 1
                };
                let child_path = node.path.push(f.trans as u32);
                if has_more {
                    work.push(node);
                }
                if child_barren > options.limits.max_barren_steps {
                    stats.barren_prunes += 1;
                } else {
                    stats.saves += 1;
                    work.push(Node::new(child_state, env.save(), child_barren, child_path));
                }
            } else if has_more {
                work.push(node);
            }
        }
        // Post-eof parks are theoretically impossible, but mirror the
        // sequential exhaustion logic defensively.
        if pg_list.is_empty() {
            return Ok(finish(
                Verdict::Invalid,
                None,
                stats,
                spec_errors,
                source,
                t0,
                base_wall,
                WorkerClocks::Par(clocks),
                cap,
                spill_faults,
                None,
                &env.trace,
                tel,
            ));
        }
        for n in pg_list.iter_mut() {
            n.blocked.clear();
        }
        work.append(&mut pg_list);
    }
}

/// Replay one worker's buffered telemetry batch through the real
/// (non-`Send`) handle, stamped with the worker id.
fn replay_events(tel: &mut Telemetry, machine: &Machine, worker: u16, batch: Vec<WEvent>) {
    tel.set_worker(worker);
    for ev in batch {
        match ev {
            WEvent::Generate {
                depth,
                fanout,
                incomplete,
                lat_us,
            } => tel.on_generate_dur(depth, fanout, incomplete, lat_us),
            WEvent::Fire {
                depth,
                trans,
                fired,
                nanos,
            } => {
                let observable = if tel.events_on() {
                    machine.transition_observable(trans)
                } else {
                    None
                };
                tel.on_fire_dur(
                    depth,
                    trans,
                    machine.transition_name(trans),
                    observable,
                    fired,
                    nanos,
                );
            }
            WEvent::Save {
                depth,
                bytes,
                resident,
            } => tel.on_save(depth, bytes, resident),
            WEvent::Restore { depth } => tel.on_restore(depth),
            WEvent::Park { depth, pg_total } => tel.on_park(depth, pg_total),
            WEvent::Prune { depth } => tel.on_prune(depth, PruneKind::Barren),
            WEvent::ErrorBranch { depth, kind } => tel.on_error_branch(depth, kind),
        }
    }
}

/// Drive the progress heartbeat mid-burst from the live atomics overlaid
/// on the cumulative base stats.
fn tick_par(tel: &mut Telemetry, base: &SearchStats, sh: &BurstShared<'_>, cap: u64) {
    let mut s = base.clone();
    s.transitions_executed = sh.te.load(Ordering::Relaxed);
    s.generates = sh.ge.load(Ordering::Relaxed);
    s.restores = sh.re.load(Ordering::Relaxed);
    s.saves = sh.sa.load(Ordering::Relaxed);
    s.max_depth = sh.depth.load(Ordering::Relaxed);
    s.snapshot_bytes = sh.store.resident_bytes();
    tel.tick(&s, cap);
}

/// The burst-barrier multi-worker MDFS loop (`workers = N ≥ 2`),
/// optionally seeded from a checkpoint.
#[allow(clippy::too_many_arguments)]
fn run_par(
    machine: &Machine,
    module: &AnalyzedModule,
    source: &mut dyn TraceSource,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
    n_workers: usize,
    seed: Option<MdfsSeed>,
) -> Result<AnalysisReport, TangoError> {
    let t0 = Instant::now();
    let deadline = options.limits.max_wall_time.map(|d| t0 + d);
    let cap = options.limits.max_transitions;
    let machine = machine.policy_view(options.policy);
    tel.set_workers(n_workers);

    let (mut stats, base_wall, trace0, eof0, seed_front) = match seed {
        Some(s) => {
            let bw = s.stats.wall_time;
            (s.stats, bw, s.trace, s.eof, Some((s.work, s.pg)))
        }
        None => (
            SearchStats::default(),
            Duration::ZERO,
            ResolvedTrace::empty(module.ips.len()),
            false,
            None,
        ),
    };
    let carry = CarryBase::of(&stats);
    let mut spec_errors: Vec<RuntimeError> = Vec::new();

    let mut env = TraceEnv::new(module, trace0, options, true)?;
    env.eof = eof0;

    // The sharded snapshot store: per-shard slot slabs + (optionally)
    // per-shard spill tiers, shared by every worker.
    let store = match ShardedStore::build(options, deadline) {
        Ok(s) => s,
        Err(e) => {
            return Ok(finish(
                Verdict::Inconclusive(InconclusiveReason::SpillFailure),
                None,
                stats,
                spec_errors,
                &*source,
                t0,
                base_wall,
                WorkerClocks::Par(vec![Clock::default(); n_workers]),
                cap,
                vec![e.to_string()],
                None,
                &env.trace,
                tel,
            ));
        }
    };
    let mut spill_faults: Vec<String> = store.take_warnings();
    let mut clocks: Vec<Clock> = vec![Clock::default(); n_workers];

    let mut work: Vec<PNode> = Vec::new();
    let mut pg_list: Vec<PNode> = Vec::new();

    let pnode_from_ckpt = |c: MdfsNodeCkpt| -> PNode {
        let h = store.save(c.state);
        PNode {
            handle: h,
            cursors: c.cursors,
            tried: TransSet::from_vec(c.tried),
            blocked: TransSet::from_vec(c.blocked),
            barren: c.barren,
            path: SharedPath::from_indices(&c.path),
            key: Vec::new(),
            step: 0,
        }
    };
    match seed_front {
        None => {
            let start = machine.initial_state()?;
            stats.saves += 1;
            let h = store.save(start);
            if tel.hot() {
                tel.on_save(0, h.state_bytes, store.resident_bytes());
            }
            work.push(PNode {
                handle: h,
                cursors: env.save(),
                tried: TransSet::default(),
                blocked: TransSet::default(),
                barren: 0,
                path: SharedPath::default(),
                key: vec![0],
                step: 0,
            });
        }
        Some((wseeds, pseeds)) => {
            work.extend(wseeds.into_iter().map(pnode_from_ckpt));
            pg_list.extend(pseeds.into_iter().map(pnode_from_ckpt));
        }
    }
    stamp_store(&mut stats, &carry, &store);

    // Revive parked PG-nodes (see the sequential `revive`).
    fn revive_p(work: &mut Vec<PNode>, pg_list: &mut Vec<PNode>, reorder: bool) {
        for n in pg_list.iter_mut() {
            n.blocked.clear();
        }
        if reorder {
            work.append(pg_list);
        } else {
            let rest = std::mem::take(work);
            work.append(pg_list);
            work.extend(rest);
        }
    }

    let mut last_status: Option<Verdict> = None;
    let tel_hot = tel.hot();
    let timed = tel.timer().is_some();

    loop {
        // Absorb anything the source produced (coordinator only).
        let poll = source.poll();
        let got_new = !poll.events.is_empty();
        for e in &poll.events {
            env.trace.push_event(e, module).map_err(TangoError::TraceResolve)?;
        }
        if poll.eof {
            env.eof = true;
        }
        if got_new || poll.eof {
            revive_p(&mut work, &mut pg_list, options.mdfs_reorder);
        }

        while !work.is_empty() {
            // ---- one burst: trace frozen, N workers drain the tree ----
            let mut inputs: Vec<PNode> = std::mem::take(&mut work);
            inputs.reverse(); // sequential pop order

            // Post-eof bursts may conclude Valid: clone the inputs now
            // so a witness abort can replay the burst sequentially.
            let mut replay_seeds: Option<Vec<ReplaySeed>> = None;
            let mut burst_base: Option<(SearchStats, Vec<RuntimeError>)> = None;
            if env.eof {
                let mut seeds = Vec::with_capacity(inputs.len());
                for n in &inputs {
                    match store.materialize(n.handle) {
                        Ok(state) => seeds.push(ReplaySeed {
                            state,
                            cursors: n.cursors.clone(),
                            tried: n.tried.clone(),
                            blocked: n.blocked.clone(),
                            barren: n.barren,
                            path: n.path.clone(),
                        }),
                        Err(e) => {
                            spill_faults.push(e.to_string());
                            stamp_store(&mut stats, &carry, &store);
                            return Ok(finish(
                                Verdict::Inconclusive(InconclusiveReason::SpillFailure),
                                None,
                                stats,
                                spec_errors,
                                &*source,
                                t0,
                                base_wall,
                                WorkerClocks::Par(clocks),
                                cap,
                                spill_faults,
                                None,
                                &env.trace,
                                tel,
                            ));
                        }
                    }
                }
                replay_seeds = Some(seeds);
                burst_base = Some((stats.clone(), spec_errors.clone()));
            }

            let n_inputs = inputs.len();
            let sh = BurstShared {
                deques: (0..n_workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                pending: AtomicUsize::new(n_inputs),
                stop: Mutex::new(None),
                stopped: AtomicBool::new(false),
                te: AtomicU64::new(stats.transitions_executed),
                ge: AtomicU64::new(stats.generates),
                re: AtomicU64::new(stats.restores),
                sa: AtomicU64::new(stats.saves),
                pg: AtomicU64::new(pg_list.len() as u64),
                depth: AtomicUsize::new(stats.max_depth),
                store: &store,
            };
            // Re-seed the park keys: input i (in sequential pop order)
            // gets key [i]. Distributed round-robin; pushed in reverse
            // so each owner pops its earliest input first.
            for (j, mut n) in inputs.into_iter().rev().enumerate() {
                let i = n_inputs - 1 - j;
                n.key.clear();
                n.key.push(i as u32);
                n.step = 0;
                sh.deques[i % n_workers]
                    .lock()
                    .expect("deque lock")
                    .push_back(n);
            }

            // Each worker gets its own cursor view over the frozen trace.
            let mut envs = Vec::with_capacity(n_workers);
            for _ in 0..n_workers {
                let mut e2 = TraceEnv::new(module, env.trace.clone(), options, true)?;
                e2.eof = env.eof;
                envs.push(e2);
            }

            // Workers send telemetry batches (when on) and hang up on
            // exit; the last hang-up ends the coordinator's wait at once.
            let (txo, rx) = mpsc::channel();

            let outs: Vec<WorkerOut> = std::thread::scope(|s| {
                let shr = &sh;
                let mref = &machine;
                let mut handles = Vec::with_capacity(n_workers);
                for (i, wenv) in envs.into_iter().enumerate() {
                    let tx = txo.clone();
                    handles.push(s.spawn(move || {
                        // Spec-level panics are already contained per
                        // step (`search::guard`); this backstop covers
                        // infrastructure panics, which would otherwise
                        // leave `pending` forever non-zero and spin the
                        // surviving workers. Flag the stop, then let the
                        // coordinator's join re-raise the panic.
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            burst_worker(i, mref, wenv, options, deadline, shr, tx, tel_hot, timed)
                        }));
                        match r {
                            Ok(o) => o,
                            Err(p) => {
                                shr.stopped.store(true, Ordering::Release);
                                std::panic::resume_unwind(p)
                            }
                        }
                    }));
                }
                drop(txo);
                loop {
                    match rx.recv_timeout(Duration::from_millis(25)) {
                        Ok((w, batch)) => replay_events(tel, &machine, w, batch),
                        Err(mpsc::RecvTimeoutError::Timeout) => tick_par(tel, &stats, &sh, cap),
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(o) => o,
                        Err(p) => std::panic::resume_unwind(p),
                    })
                    .collect()
            });
            tel.set_worker(0);

            let stop = sh.stop.lock().expect("stop lock").take();
            match stop {
                None => {
                    // Exhausted: the greedy per-worker deltas are exact.
                    let mut all_parked: Vec<(Vec<u32>, PNode)> = Vec::new();
                    for (i, o) in outs.into_iter().enumerate() {
                        clocks[i].busy += o.busy;
                        clocks[i].idle += o.idle;
                        clocks[i].steal += o.steal;
                        stats.absorb(&o.delta);
                        spec_errors.extend(o.spec_errors);
                        spill_faults.extend(o.spill_faults);
                        all_parked.extend(o.parked);
                    }
                    spec_errors.truncate(MAX_RECORDED_ERRORS);
                    // Deterministic park order (see `PNode::key`).
                    all_parked.sort_by(|a, b| a.0.cmp(&b.0));
                    pg_list.extend(all_parked.into_iter().map(|(_, n)| n));
                    stamp_store(&mut stats, &carry, &store);
                }
                Some(StopCause::Fatal(e)) => return Err(TangoError::Runtime(e)),
                Some(StopCause::Witness) => {
                    // Discard the burst's deltas; keep the honest clocks.
                    for (i, o) in outs.into_iter().enumerate() {
                        clocks[i].busy += o.busy;
                        clocks[i].idle += o.idle;
                        clocks[i].steal += o.steal;
                    }
                    let (mut bstats, berrors) =
                        burst_base.expect("witness stops only happen post-eof");
                    stamp_store(&mut bstats, &carry, &store);
                    let seeds = replay_seeds.expect("witness stops only happen post-eof");
                    return replay_burst(
                        &machine,
                        &mut env,
                        options,
                        seeds,
                        bstats,
                        berrors,
                        &*source,
                        t0,
                        base_wall,
                        clocks,
                        cap,
                        deadline,
                        spill_faults,
                        tel,
                    );
                }
                Some(StopCause::Limit(reason)) => {
                    // Completed steps are exact (tiling); freeze the rest.
                    let mut parked_by_worker: Vec<Vec<PNode>> = Vec::with_capacity(n_workers);
                    for (i, o) in outs.into_iter().enumerate() {
                        clocks[i].busy += o.busy;
                        clocks[i].idle += o.idle;
                        clocks[i].steal += o.steal;
                        stats.absorb(&o.delta);
                        spec_errors.extend(o.spec_errors);
                        spill_faults.extend(o.spill_faults);
                        parked_by_worker.push(o.parked.into_iter().map(|(_, n)| n).collect());
                    }
                    spec_errors.truncate(MAX_RECORDED_ERRORS);
                    let ckpt = if matches!(reason, InconclusiveReason::SpillFailure) {
                        if let Some(f) = store.take_fault() {
                            spill_faults.push(f.to_string());
                        }
                        None
                    } else {
                        freeze_par(
                            &store,
                            &sh.deques,
                            &parked_by_worker,
                            &pg_list,
                            env.eof,
                            &mut spill_faults,
                        )
                    };
                    stamp_store(&mut stats, &carry, &store);
                    return Ok(finish(
                        Verdict::Inconclusive(reason),
                        None,
                        stats,
                        spec_errors,
                        &*source,
                        t0,
                        base_wall,
                        WorkerClocks::Par(clocks),
                        cap,
                        spill_faults,
                        ckpt,
                        &env.trace,
                        tel,
                    ));
                }
            }
        }

        // The tree (as currently known) is exhausted.
        if env.eof {
            if pg_list.is_empty() {
                return Ok(finish(
                    Verdict::Invalid,
                    None,
                    stats,
                    spec_errors,
                    &*source,
                    t0,
                    base_wall,
                    WorkerClocks::Par(clocks),
                    cap,
                    spill_faults,
                    None,
                    &env.trace,
                    tel,
                ));
            }
            revive_p(&mut work, &mut pg_list, options.mdfs_reorder);
            continue;
        }
        if pg_list.is_empty() {
            return Ok(finish(
                Verdict::Invalid,
                None,
                stats,
                spec_errors,
                &*source,
                t0,
                base_wall,
                WorkerClocks::Par(clocks),
                cap,
                spill_faults,
                None,
                &env.trace,
                tel,
            ));
        }

        // Interim verdict: PGAV ⇒ valid so far, else likely invalid.
        let any_av = pg_list.iter().any(|n| {
            env.restore(&n.cursors);
            env.all_done()
        });
        let status = if any_av {
            Verdict::ValidSoFar
        } else {
            Verdict::LikelyInvalid
        };
        if last_status.as_ref() != Some(&status) {
            tel.on_interim_verdict(&status);
            last_status = Some(status.clone());
        }
        if !on_status(&status) {
            return Ok(finish(
                status,
                None,
                stats,
                spec_errors,
                &*source,
                t0,
                base_wall,
                WorkerClocks::Par(clocks),
                cap,
                spill_faults,
                None,
                &env.trace,
                tel,
            ));
        }

        // Idle-poll between bursts (coordinator only; workers are gone).
        let mut idle = Backoff::new(RetryPolicy::mdfs_poll());
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                let ckpt = {
                    let mut pg_prior = Vec::with_capacity(pg_list.len());
                    let mut ok = true;
                    for n in &pg_list {
                        match pnode_to_ckpt(&store, n) {
                            Ok(c) => pg_prior.push(c),
                            Err(e) => {
                                spill_faults.push(format!("checkpoint save skipped: {}", e));
                                ok = false;
                                break;
                            }
                        }
                    }
                    ok.then(|| MdfsCheckpoint {
                        workers_at_save: n_workers as u32,
                        eof: env.eof,
                        workers: (0..n_workers)
                            .map(|_| MdfsWorkerCkpt {
                                deque: Vec::new(),
                                parked: Vec::new(),
                            })
                            .collect(),
                        pg_prior,
                    })
                };
                return Ok(finish(
                    Verdict::Inconclusive(InconclusiveReason::TimeLimit),
                    None,
                    stats,
                    spec_errors,
                    &*source,
                    t0,
                    base_wall,
                    WorkerClocks::Par(clocks),
                    cap,
                    spill_faults,
                    ckpt,
                    &env.trace,
                    tel,
                ));
            }
            let p = source.poll();
            if !p.events.is_empty() || p.eof {
                for e in &p.events {
                    env.trace.push_event(e, module).map_err(TangoError::TraceResolve)?;
                }
                if p.eof {
                    env.eof = true;
                }
                revive_p(&mut work, &mut pg_list, options.mdfs_reorder);
                break;
            }
            let idle_sleep = idle.next_delay();
            let sleep = match deadline {
                Some(d) => idle_sleep.min(d.saturating_duration_since(Instant::now())),
                None => idle_sleep,
            };
            std::thread::sleep(sleep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle_frontend::sema::model::StateId;

    #[test]
    fn a_node_freezes_and_thaws_with_its_path_and_sorted_sets() {
        let state = MachineState {
            control: StateId(1),
            globals: Vec::new(),
            heap: Default::default(),
        };
        let cursors = Cursors {
            input: vec![1, 0],
            output: vec![0, 2],
        };
        let path = SharedPath::default().push(3).push(1);
        let mut node = Node::new(state, cursors, 2, path);
        for t in [7, 2, 7, 5] {
            node.tried.insert(t);
        }
        node.tried.remove(5);
        node.blocked.insert(9);
        node.blocked.insert(4);

        let frozen = node_to_ckpt(node);
        assert_eq!(frozen.path, [3, 1]);
        assert_eq!(frozen.tried, [2, 7], "freeze writes the set sorted");
        assert_eq!(frozen.blocked, [4, 9]);

        let thawed = node_from_ckpt(frozen);
        assert_eq!(thawed.path.len(), 2);
        assert_eq!(thawed.barren, 2);
        assert!(thawed.tried.contains(7) && !thawed.tried.contains(5));
        let again = node_to_ckpt(thawed);
        assert_eq!(again.path, [3, 1]);
        assert_eq!((again.tried, again.blocked), (vec![2, 7], vec![4, 9]));
        assert_eq!(again.cursors.output, [0, 2]);
    }
}
