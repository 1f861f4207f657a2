//! The search engine: the depth-first search of §2.2 and its on-line
//! generalisation, the multi-threaded DFS of §3.1.
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
//! # One engine, two expansion rules (DESIGN §6.13)
//!
//! One node record, [`Node`], one store ([`Stack`] with its charging rule
//! and spill eviction), one governance check, one `generate` and one
//! `fire` helper, one step record (`StepRecord`) into one [`Sink`], one
//! checkpoint body. Which rule expands a node depends only on whether the
//! trace was complete when the analysis started:
//!
//! * the **complete-trace rule** (static analysis, one worker) is DFS's
//!   in-place descent: Generate once per node, save a snapshot holding
//!   the remaining candidates ([`Pending`]) only when siblings remain,
//!   fire the first candidate on the live node itself, and restore once
//!   per sibling — so it counts the paper's TE/GE/RE/SA;
//! * the **on-line rule**, [`Lane::step`], re-generates a popped node and
//!   fires its first untried candidate on a copy. At `workers = 1` the
//!   plain loop [`drain`] runs it on the calling thread; at `workers =
//!   N ≥ 2` it runs in **bursts**: only the coordinator polls the source;
//!   each burst (the work between two polls) runs N scoped threads over
//!   per-worker work-stealing deques (owner pops LIFO, a dry worker claims
//!   the burst's next input node, thieves steal FIFO from the top, short
//!   parks when everything is empty); workers send their step records to
//!   the coordinator in batches, and it hands them to the telemetry
//!   handle.
//!
//! Determinism: within a burst the trace is frozen, so each node's
//! expansion is a pure function of (state, cursors, trace) and the search
//! *tree* is schedule-independent; per-worker counter deltas merged at
//! the barrier therefore equal the sequential totals exactly. Pre-eof
//! bursts can never conclude `Valid` (an all-done node pre-eof parks as a
//! PGAV), and parked nodes and best attempts are ordered by their
//! deterministic labels ([`Label`]), so interim verdicts and best-effort
//! localizations match too. A post-eof burst that finds a witness or
//! hits a limit discards its deltas and its step records and is
//! **replayed by the one-worker drain** from the burst's untouched input
//! nodes — recovering the exact witness, or the exact stop point and
//! front, the single-worker search would reach, so a resumed run ends
//! with the uninterrupted totals at any worker count. A post-eof burst's
//! records therefore reach the telemetry handle only at its barrier, and
//! only when it is not replayed; the replay's own records stream live.
//! An exhausted burst keeps the parallel deltas, which are exact by the
//! tiling argument: every popped node-step either runs to completion
//! (counters and records, children pushed) or the node is returned to a
//! deque untouched. So at every worker count the event stream and the
//! flight recorder count exactly TE/GE/RE/SA.
//!
//! Resource governance: the wall-clock deadline is checked both in the
//! search and in the idle polling loop, so a monitor fed by a stalled or
//! dead source stops with `Inconclusive(TimeLimit)` instead of wedging
//! silently. The snapshot-memory budget covers every saved node under one
//! charging rule: a node charges its state bytes plus its cursor bytes,
//! and the gauge is shared by every worker. Limit stops freeze the
//! surviving front into a [`SearchCheckpoint`]; static and eof-reached
//! on-line runs resume from it, the latter at any worker count. Whatever
//! the verdict, [`TraceSource::diagnostics`] is folded into
//! [`AnalysisReport::source_faults`] so feed-level faults (parse errors,
//! truncation, a dead feeder) survive into the report.

use crate::checkpoint::{Checkpoint, NodeCkpt, SearchCheckpoint};
use crate::env::{Cursors, EnvError, RejectReason, TraceEnv};
use crate::error::TangoError;
use crate::fault::{Backoff, RetryPolicy};
use crate::options::AnalysisOptions;
use crate::stats::SearchStats;
use crate::telemetry::{PruneKind, StepRecord, Telemetry};
use crate::trace::source::{Poll, TraceSource};
use crate::trace::ResolvedTrace;
use crate::verdict::{AnalysisReport, BestEffort, InconclusiveReason, Verdict};
use estelle_frontend::sema::model::{AnalyzedModule, StateId};
use estelle_runtime::{
    FireOutcome, Fireable, FxHasher, Generated, Machine, MachineState, RuntimeError,
};
use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use super::path::SharedPath;
use super::spill::{SpillCounters, SpillError, SpillTicket, SpillTier};
use super::{guard, is_fatal, record_error, MAX_RECORDED_ERRORS};

/// How long an idle thief sleeps before re-scanning the deques.
const IDLE_PARK: Duration = Duration::from_micros(100);
/// Buffered worker step records per flush. Every flush wakes the
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
#[derive(Clone, Default)]
struct Node {
    /// The node's snapshot: resident in RAM, or (under memory pressure,
    /// with a spill tier attached) parked in a segment file with the
    /// claim check in `ticket`.
    state: Option<MachineState>,
    /// Segment record holding this node's snapshot, once written.
    /// Snapshots are immutable, so re-evicting a ticketed node is
    /// write-free. Boxed: only spilled nodes have one, and every node
    /// record moves on each park and revive.
    ticket: Option<Box<SpillTicket>>,
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
    /// Complete-trace rule only: the node was saved for backtracking, and
    /// this is what remains of its one Generate.
    pending: Option<Pending>,
}

/// The candidates of a saved node's one Generate and the index of the
/// next one to fire — DFS's frame cursor.
#[derive(Clone)]
struct Pending {
    fireable: Vec<Fireable>,
    next: usize,
}

impl Node {
    fn new(state: MachineState, cursors: Cursors, barren: usize, path: SharedPath) -> Self {
        Node {
            state_bytes: state.approx_bytes(),
            state: Some(state),
            cursors,
            barren,
            path,
            ..Node::default()
        }
    }

    /// The complete-trace rule's live node: the trace cursors it stands
    /// at are the lane's, and it is never charged, so it records neither;
    /// a stop freezes it through [`Node::new`].
    fn live(state: MachineState, barren: usize, path: SharedPath) -> Self {
        Node {
            state: Some(state),
            barren,
            path,
            ..Node::default()
        }
    }

    /// Cursor bytes — always RAM-resident.
    fn meta_bytes(&self) -> usize {
        (self.cursors.input.len() + self.cursors.output.len()) * std::mem::size_of::<usize>()
    }

    /// Bytes currently charged against the RAM gauge for this node.
    fn charged(&self) -> usize {
        self.meta_bytes()
            + if self.state.is_some() {
                self.state_bytes
            } else {
                0
            }
    }

    /// The resident snapshot. The search faults a popped node in before
    /// expanding it, so this never observes a spilled node.
    fn resident_state(&self) -> &MachineState {
        self.state
            .as_ref()
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
        match tier.write_state(&state) {
            Ok(t) => node.ticket = Some(Box::new(t)),
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
    let ticket = node.ticket.as_ref().expect("a spilled node holds a ticket");
    node.state = Some(tier.read_state(ticket)?);
    Ok(node.state_bytes)
}

fn lock_tier(tier: &Mutex<SpillTier>) -> std::sync::MutexGuard<'_, SpillTier> {
    tier.lock().expect("spill tier lock")
}

/// Mirror the spill tier's counters and the disk gauge into the run's
/// stats, on top of the counters a resumed run carried in (`base`), so
/// cross-resume totals stay cumulative.
fn stamp_spill(stats: &mut SearchStats, base: &SearchStats, c: SpillCounters, gauge: &Gauge) {
    stats.spill_writes = base.spill_writes + c.writes;
    stats.spill_reads = base.spill_reads + c.reads;
    stats.spill_retries = base.spill_retries + c.retries;
    stats.spill_evictions = base.spill_evictions + c.evictions;
    stats.spill_giveups = base.spill_giveups + c.giveups;
    stats.spilled_bytes = gauge.disk;
    stats.peak_spilled_bytes = stats.peak_spilled_bytes.max(gauge.peak_disk);
}

/// The front's byte gauges: RAM-resident charges and spilled snapshot
/// bytes, each with its high-water mark.
#[derive(Clone, Copy, Default)]
struct Gauge {
    resident: usize,
    peak: usize,
    disk: usize,
    peak_disk: usize,
}

/// One worker's accumulated busy/idle/steal wall-clock split.
#[derive(Clone, Copy, Default)]
struct Clock {
    busy: Duration,
    idle: Duration,
    steal: Duration,
}

/// Terminal bookkeeping of one MDFS run: stamp the elapsed time and the
/// source's fault diagnostics + retry counters, report the per-worker
/// busy/idle(/steal) splits into the metrics registry (idle-poll and
/// steal-scan time is not search time), emit the verdict event and the
/// final heartbeat, attach the frozen checkpoint (limit stops only),
/// then assemble the report. One worker's busy time is its elapsed time
/// minus its idle-poll sleeps.
#[allow(clippy::too_many_arguments)]
fn finish(
    verdict: Verdict,
    witness: Option<Vec<String>>,
    mut stats: SearchStats,
    spec_errors: Vec<RuntimeError>,
    source: &dyn TraceSource,
    t0: Instant,
    base_wall: Duration,
    mut clocks: Vec<Clock>,
    cap: u64,
    spill_faults: Vec<String>,
    checkpoint: Option<SearchCheckpoint>,
    trace: &ResolvedTrace,
    tel: &mut Telemetry,
) -> AnalysisReport {
    let elapsed = t0.elapsed();
    stats.wall_time = base_wall + elapsed;
    stats.source_retries += source.fault_retries();
    stats.source_giveups += source.fault_giveups();
    if let Some(m) = tel.metrics_mut() {
        let one = clocks.len() == 1;
        if one {
            clocks[0].busy = elapsed.saturating_sub(clocks[0].idle);
        }
        for (i, c) in clocks.iter().enumerate() {
            m.set_gauge(
                &format!("mdfs.worker{}.busy_seconds", i),
                c.busy.as_secs_f64(),
            );
            m.set_gauge(
                &format!("mdfs.worker{}.idle_seconds", i),
                c.idle.as_secs_f64(),
            );
            if !one {
                m.set_gauge(
                    &format!("mdfs.worker{}.steal_seconds", i),
                    c.steal.as_secs_f64(),
                );
            }
        }
    }
    tel.on_verdict(&verdict, &stats, cap);
    let mut r = AnalysisReport::new(verdict, stats);
    r.witness = witness;
    r.spec_errors = spec_errors;
    r.source_faults = source.diagnostics();
    r.spill_faults = spill_faults;
    r.checkpoint = checkpoint.map(|search| {
        Box::new(Checkpoint {
            search,
            trace: trace.clone(),
            stats: r.stats.clone(),
        })
    });
    r
}

/// Freeze one node into its checkpoint form.
fn node_to_ckpt(n: Node) -> NodeCkpt {
    NodeCkpt {
        state: n.state.expect("nodes are faulted in before freezing"),
        cursors: n.cursors,
        tried: n.tried.0,
        blocked: n.blocked.0,
        barren: n.barren,
        path: n.path.to_indices(),
        pending: n.pending.map(|p| (p.fireable, p.next)),
    }
}

/// Thaw a checkpointed node.
fn node_from_ckpt(c: NodeCkpt) -> Node {
    let mut n = Node::new(
        c.state,
        c.cursors,
        c.barren,
        SharedPath::from_indices(&c.path),
    );
    n.tried = TransSet::from_vec(c.tried);
    n.blocked = TransSet::from_vec(c.blocked);
    n.pending = c.pending.map(|(fireable, next)| Pending { fireable, next });
    n
}

/// Hasher for the visited set. Its keys are already well-mixed 64-bit
/// content hashes; re-hashing them with SipHash would cost more than the
/// set operation itself.
type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash of (machine state, trace cursors) for the state-hashing visited
/// set: control, globals, heap and cursors. The heap feeds the hasher
/// from cached per-chunk digests, so hashing a state is O(chunks), not
/// O(cells); trace cursors are part of the key because the same state at
/// another trace position is another search node.
fn fingerprint(state: &MachineState, cursors: &Cursors) -> u64 {
    let mut h = FxHasher::default();
    state.control.hash(&mut h);
    state.globals.hash(&mut h);
    state.heap.hash(&mut h);
    cursors.hash(&mut h);
    h.finish()
}

/// The most-explaining attempt: how many events it explains and its
/// path. Inside a burst it also keeps the pop label of the node it was
/// read from, so ties break in sequential order whichever worker saw
/// them; a best carried in from earlier has no label and wins every tie.
#[derive(Clone, Default)]
struct Best {
    explained: usize,
    path: SharedPath,
    label: Option<Vec<u32>>,
}

impl Best {
    /// Whether an attempt explaining `explained` events, read at the pop
    /// label `at` (`key ++ [step]`, or `None` outside a burst), comes
    /// before this one.
    fn beaten_by(&self, explained: usize, at: Option<(&[u32], u32)>) -> bool {
        if explained != self.explained {
            return explained > self.explained;
        }
        match (at, &self.label) {
            (Some((key, step)), Some(best)) => {
                key.iter().copied().chain([step]).lt(best.iter().copied())
            }
            _ => false,
        }
    }
}

/// What a run starts from.
pub(crate) enum Start<'s> {
    /// A fresh on-line run: the trace arrives from the source.
    Online(&'s mut dyn TraceSource),
    /// A fresh static run over a complete trace, from this initial FSM
    /// state (`None`: the specification's).
    Static(ResolvedTrace, Option<StateId>),
    /// A stopped run, resumed under the rule it stopped in.
    Resume(Box<Checkpoint>),
}

/// The source behind a run that never waits for input: a static run, or
/// a resumed one. Only eof-reached on-line checkpoints are resumable (a
/// pre-eof source's read position cannot be re-established), so every
/// poll just re-asserts end-of-file.
struct EofSource;

impl TraceSource for EofSource {
    fn poll(&mut self) -> Poll {
        Poll {
            events: Vec::new(),
            eof: true,
        }
    }
}

/// Freeze the search front for a stop's checkpoint: the work stack,
/// with the complete-trace rule's live node on top, and the PG-list in
/// park order, with the lane's visited set, spec errors and best attempt.
/// The depth is DFS's under the complete-trace rule (the live node's, or
/// that of the node whose expansion last failed) and the deepest node's
/// on-line. Spilled nodes are faulted back in first (checkpoint files are
/// self-contained); a read failure makes the stop un-checkpointable and
/// is recorded as a spill fault instead.
fn freeze(
    stack: &mut Stack,
    live: &mut Option<Node>,
    lane: &Lane<'_>,
    complete: bool,
    workers: usize,
    spill_faults: &mut Vec<String>,
) -> Option<SearchCheckpoint> {
    // The live node freezes with its real record, uncharged.
    let live_depth = live.take().map(|n| {
        let depth = n.path.len();
        let state = n.state.expect("the live node is resident");
        let frozen = Node::new(state, lane.env.save(), n.barren, n.path);
        stack.work.push(frozen);
        depth
    });
    for n in stack.work.iter_mut().chain(stack.pg.iter_mut()) {
        if let Err(e) = lane.resident(n) {
            spill_faults.push(format!("checkpoint save skipped: {}", e));
            return None;
        }
    }
    let deepest = || {
        let nodes = stack.work.iter().chain(&stack.pg);
        nodes.map(|n| n.path.len()).max().unwrap_or(0)
    };
    let depth = live_depth.unwrap_or_else(|| if complete { lane.at } else { deepest() });
    let mut visited: Vec<u64> = lane.visited.iter().copied().collect();
    // Sorted for a deterministic encoding.
    visited.sort_unstable();
    Some(SearchCheckpoint {
        complete,
        workers_at_save: workers as u32,
        eof: lane.env.eof,
        work: stack.work.drain(..).map(node_to_ckpt).collect(),
        pg: stack.pg.drain(..).map(node_to_ckpt).collect(),
        visited,
        spec_errors: lane.spec_errors.clone(),
        best: (lane.best.explained, lane.best.path.to_indices()),
        events_total: lane.env.explained() + lane.env.outstanding(),
        depth,
    })
}

/// Where one lane's step records go: the [`Telemetry`] handle itself on
/// the calling thread, or a [`Buffered`] batch on a spawned worker.
trait Sink {
    /// Per-step progress tick.
    fn tick(&mut self, stats: &SearchStats, cap: u64);
    /// Start a step timer, when steps are timed.
    fn timer(&self) -> Option<Instant>;
    /// One search step, built once; `machine` resolves its names.
    fn record(&mut self, machine: &Machine, rec: StepRecord);
}

impl Sink for Telemetry {
    fn tick(&mut self, stats: &SearchStats, cap: u64) {
        Telemetry::tick(self, stats, cap);
    }

    fn timer(&self) -> Option<Instant> {
        Telemetry::timer(self)
    }

    #[inline]
    fn record(&mut self, machine: &Machine, rec: StepRecord) {
        if self.hot() {
            Telemetry::record(self, machine, 0, rec);
        }
    }
}

/// A spawned worker's sink: records batch up and go to the coordinator
/// every [`EVENT_FLUSH`] records and at the end of the burst. The
/// `Telemetry` handle is not `Send`; a record is plain data, and names
/// are resolved on the coordinator, only when the event stream is on.
/// `on` is whether the coordinator's handle wants records at all.
struct Buffered {
    tx: mpsc::Sender<(u16, Vec<StepRecord>)>,
    worker: u16,
    buf: Vec<StepRecord>,
    on: bool,
    timed: bool,
}

impl Buffered {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let _ = self.tx.send((self.worker, std::mem::take(&mut self.buf)));
        }
    }
}

/// Durations are only measured when the coordinator's handle times
/// steps, which implies `on`.
impl Sink for Buffered {
    fn tick(&mut self, _stats: &SearchStats, _cap: u64) {}

    fn timer(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    fn record(&mut self, _machine: &Machine, rec: StepRecord) {
        if self.on {
            self.buf.push(rec);
            if self.buf.len() >= EVENT_FLUSH {
                self.flush();
            }
        }
    }
}

/// Where a step's nodes go: the one-worker [`Stack`], or a worker's
/// handle on a burst's shared deques ([`Deques`]). A step uncharges the
/// node it pops; every place the node (or its child) lands charges it
/// again, so the gauge always holds the sum of the front's charges.
trait Front {
    /// Transitions executed so far, for the limit check.
    fn te(&self, local: &SearchStats) -> u64;
    /// The RAM gauge.
    fn resident(&self) -> usize;
    fn uncharge(&mut self, bytes: usize);
    /// Put a popped node back on this lane's work.
    fn push(&mut self, node: Node);
    /// The popped node's expansion starts (it consumes one pop).
    fn expanding(&mut self) {}
    /// The expanding node's pop label, `key ++ [step]`: only a burst
    /// worker has one.
    fn pop_label(&self) -> Option<(&[u32], u32)> {
        None
    }
    /// Push a fired child on top of its parent — or, when the parent has
    /// nothing left to explore (`None`), retire the parent. Returns the
    /// RAM gauge after the charges.
    fn push_child(&mut self, parent: Option<Node>, child: Node) -> usize;
    /// A popped node leaves the search for good.
    fn retire(&mut self);
    /// PG-nodes parked so far, for the `max_pg_nodes` limit.
    fn pg_len(&self) -> usize;
    /// Park a PG-node; returns the PG total the park event reports
    /// (`pg_nodes` is the lane's own count).
    fn park(&mut self, node: Node, pg_nodes: u64) -> u64;
    /// Under a spill tier: evict snapshots — parked PG-nodes first, then
    /// the coldest work — until `resident + need` fits `cap`, or nothing
    /// is left to evict.
    fn evict(&mut self, tier: &Mutex<SpillTier>, cap: usize, need: usize)
        -> Result<(), SpillError>;
    /// A spilled node was faulted back in: its bytes left the disk.
    fn unspill(&mut self, bytes: usize);
}

/// The one-worker front: the work stack (top = next pop), the PG-list in
/// park order, and the byte gauges. Between bursts it is also the
/// multi-worker search's front.
#[derive(Default)]
struct Stack {
    work: Vec<Node>,
    pg: Vec<Node>,
    gauge: Gauge,
    /// A spill write that failed while the complete-trace rule saved a
    /// node; the next step degrades the run.
    fault: Option<String>,
}

impl Stack {
    fn charge(&mut self, bytes: usize) -> usize {
        let g = &mut self.gauge;
        g.resident += bytes;
        g.peak = g.peak.max(g.resident);
        g.resident
    }

    /// Push a node the complete-trace rule saved, and return the RAM
    /// gauge. Under a spill tier the budget holds from the save on: the
    /// coldest nodes (this one last) are evicted before the high-water
    /// mark moves. A failed write leaves the node resident and is kept
    /// in `fault` for the next step.
    fn save(&mut self, node: Node, tier: Option<&Mutex<SpillTier>>, cap: Option<usize>) -> usize {
        self.gauge.resident += node.charged();
        self.work.push(node);
        if let (Some(tier), Some(cap)) = (tier, cap) {
            if let Err(e) = self.evict(tier, cap, 0) {
                self.fault = Some(e.to_string());
            }
        }
        self.charge(0)
    }

    /// Revive parked PG-nodes: fresh data may unblock output-blocked
    /// transitions, so their blocked sets are cleared. §3.1.3 dynamic
    /// node reordering: the revived nodes go on top of the LIFO work
    /// stack and are searched immediately, putting the rest of the known
    /// tree on hold.
    fn revive(&mut self) {
        for n in self.pg.iter_mut() {
            n.blocked.clear();
        }
        self.work.append(&mut self.pg);
    }
}

impl Front for Stack {
    fn te(&self, local: &SearchStats) -> u64 {
        local.transitions_executed
    }

    fn resident(&self) -> usize {
        self.gauge.resident
    }

    fn uncharge(&mut self, bytes: usize) {
        // The gauge is rebuilt from per-node charges across park/revive
        // cycles; saturate (and flag in debug builds) rather than ever
        // letting it wrap.
        debug_assert!(
            self.gauge.resident >= bytes,
            "snapshot byte accounting must never wrap"
        );
        self.gauge.resident = self.gauge.resident.saturating_sub(bytes);
    }

    fn push(&mut self, node: Node) {
        self.charge(node.charged());
        self.work.push(node);
    }

    fn push_child(&mut self, parent: Option<Node>, child: Node) -> usize {
        if let Some(p) = parent {
            self.push(p);
        }
        let resident = self.charge(child.charged());
        self.work.push(child);
        resident
    }

    fn retire(&mut self) {}

    fn pg_len(&self) -> usize {
        self.pg.len()
    }

    fn park(&mut self, node: Node, pg_nodes: u64) -> u64 {
        self.charge(node.charged());
        self.pg.push(node);
        pg_nodes
    }

    fn evict(
        &mut self,
        tier: &Mutex<SpillTier>,
        cap: usize,
        need: usize,
    ) -> Result<(), SpillError> {
        let mut tier = lock_tier(tier);
        let g = &mut self.gauge;
        for list in [&mut self.pg, &mut self.work] {
            for n in list.iter_mut() {
                if g.resident + need <= cap {
                    return Ok(());
                }
                let moved = spill_node(&mut tier, n)?;
                g.resident = g.resident.saturating_sub(moved);
                g.disk += moved;
                g.peak_disk = g.peak_disk.max(g.disk);
            }
        }
        Ok(())
    }

    fn unspill(&mut self, bytes: usize) {
        self.gauge.disk = self.gauge.disk.saturating_sub(bytes);
    }
}

/// Why a step ends its lane's loop, and why the one-worker loop or a
/// burst returned.
enum Halt {
    /// The known tree is exhausted.
    Drained,
    /// An all-done node after eof: its path is the witness (the first, in
    /// sequential order).
    Witness(SharedPath),
    /// A resource limit tripped before a node's expansion (for
    /// `PgNodeLimit`, instead of its park); the node is back on the
    /// front, which is intact.
    Stop(InconclusiveReason),
    /// A spill write or read failed; the stop is not checkpointable.
    SpillFailure(String),
    /// A fatal runtime error (engine bug class) — propagated as `Err`.
    Fatal(RuntimeError),
}

/// One search lane: the machine, the limits, a cursor view over the trace,
/// Generate scratch, and the counters its steps charge — cumulative on
/// the calling thread, a per-burst delta on a spawned worker.
struct Lane<'a> {
    machine: &'a Machine,
    options: &'a AnalysisOptions,
    tier: Option<&'a Mutex<SpillTier>>,
    deadline: Option<Instant>,
    env: TraceEnv,
    /// Per-lane *Generate* scratch, refilled in place by `generate_into`
    /// so every node expansion reuses one fireable buffer (filtered down
    /// to the untried candidates in place).
    gen: Generated,
    stats: SearchStats,
    spec_errors: Vec<RuntimeError>,
    best: Best,
    /// Complete-trace rule: fingerprints of the nodes already expanded
    /// (`state_hashing`).
    visited: HashSet<u64, FxBuildHasher>,
    /// Complete-trace rule: the depth of the live node, or of the node
    /// whose expansion last failed — where the next backtrack leaves from.
    at: usize,
}

impl<'a> Lane<'a> {
    /// A worker lane over its own cursor view, with zeroed counters.
    fn fork(&self, env: TraceEnv) -> Lane<'a> {
        Lane {
            machine: self.machine,
            options: self.options,
            tier: self.tier,
            deadline: self.deadline,
            env,
            gen: Generated::default(),
            stats: SearchStats::default(),
            spec_errors: Vec::new(),
            best: Best {
                label: None,
                ..self.best.clone()
            },
            visited: HashSet::default(),
            at: 0,
        }
    }

    /// The limits checked before every step, before it mutates anything,
    /// so a stop freezes an exactly resumable front. `need` is what the
    /// step is about to add to the resident set (a spilled node faulted
    /// back in). Under a spill tier the budget is a tiering policy, not a
    /// stop condition: evict until the resident set plus `need` fits. If
    /// the genuinely live set alone exceeds the budget there is nothing
    /// left to evict and the search continues over budget — the tier's
    /// contract is degradation, never a stop.
    fn govern<F: Front>(&self, front: &mut F, need: usize) -> Result<(), Halt> {
        let limits = &self.options.limits;
        if front.te(&self.stats) > limits.max_transitions {
            return Err(Halt::Stop(InconclusiveReason::TransitionLimit));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Halt::Stop(InconclusiveReason::TimeLimit));
        }
        if let Some(cap) = limits.max_state_bytes {
            if let Some(tier) = self.tier {
                front
                    .evict(tier, cap, need)
                    .map_err(|e| Halt::SpillFailure(e.to_string()))?;
            } else if front.resident() + need > cap {
                return Err(Halt::Stop(InconclusiveReason::MemoryLimit));
            }
        }
        Ok(())
    }

    /// Fault a spilled node's snapshot back in before it is expanded;
    /// `Ok(bytes)` moved from the disk gauge back to RAM.
    fn resident(&self, node: &mut Node) -> Result<usize, String> {
        if node.state.is_some() {
            return Ok(0);
        }
        let tier = self
            .tier
            .expect("spilled nodes only exist with a spill tier");
        fault_in(&mut lock_tier(tier), node).map_err(|e| e.to_string())
    }

    /// Record the node about to be expanded as the best attempt if it
    /// explains more events than any before it — or as many, earlier in
    /// sequential order. The lane's cursors stand at the node.
    fn note_best<F: Front>(&mut self, front: &F, path: &SharedPath) {
        let explained = self.env.explained();
        if explained < self.best.explained {
            return;
        }
        let at = front.pop_label();
        if self.best.beaten_by(explained, at) {
            self.best = Best {
                explained,
                path: path.clone(),
                label: at.map(|(key, step)| extend(key.to_vec(), step)),
            };
        }
    }

    /// *Generate* on `state` into the lane's scratch list, keeping the
    /// candidates whose transition `keep` accepts, and report the
    /// expansion. `Ok(false)`: Generate failed on a specification error,
    /// which is recorded and reported as an expansion with no candidates.
    fn generate<S: Sink>(
        &mut self,
        sink: &mut S,
        state: &mut MachineState,
        depth: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Result<bool, RuntimeError> {
        let machine = self.machine;
        self.stats.generates += 1;
        let t0 = sink.timer();
        let (env, gen) = (&self.env, &mut self.gen);
        if let Err(e) = guard("generate", || machine.generate_into(state, env, gen)) {
            if is_fatal(&e) {
                return Err(e);
            }
            sink.record(machine, StepRecord::error(depth, e.kind));
            record_error(&mut self.spec_errors, &mut self.stats, e);
            // Keep GE == generate-events: a failed expansion is an event
            // with zero fanout.
            sink.record(machine, StepRecord::generate(depth, 0, false, t0));
            return Ok(false);
        }
        self.gen.fireable.retain(|f| keep(f.trans));
        let fanout = self.gen.fireable.len();
        let incomplete = self.gen.incomplete;
        sink.record(machine, StepRecord::generate(depth, fanout, incomplete, t0));
        if fanout > 0 {
            self.stats.fanout_sum += fanout as u64;
            self.stats.fanout_samples += 1;
        }
        Ok(true)
    }

    /// Fire `f` on `state` from the lane's cursors; `Ok(true)` when the
    /// transition completed and all of its outputs were matched.
    fn fire<S: Sink>(
        &mut self,
        sink: &mut S,
        state: &mut MachineState,
        f: &Fireable,
        depth: usize,
    ) -> Result<bool, RuntimeError> {
        let machine = self.machine;
        self.stats.transitions_executed += 1;
        let t0 = sink.timer();
        self.env.begin_fire();
        let env = &mut self.env;
        let fired = match guard("fire", || machine.fire(state, f, env)) {
            Ok(FireOutcome::Completed) => self.env.end_fire(),
            Ok(FireOutcome::OutputRejected) => false,
            Err(e) if is_fatal(&e) => return Err(e),
            Err(e) => {
                sink.record(machine, StepRecord::error(depth, e.kind));
                record_error(&mut self.spec_errors, &mut self.stats, e);
                false
            }
        };
        sink.record(machine, StepRecord::fire(depth, f.trans, fired, t0));
        Ok(fired)
    }

    /// The on-line rule: govern, then expand, one popped node.
    fn step<F: Front, S: Sink>(
        &mut self,
        front: &mut F,
        sink: &mut S,
        mut node: Node,
    ) -> Result<(), Halt> {
        front.uncharge(node.charged());
        // The budget check counts the node as resident: it is about to be.
        let limit = match self.govern(front, node.meta_bytes() + node.state_bytes) {
            Err(Halt::Stop(reason)) => Some(reason),
            Err(h) => return Err(h),
            // Too deep to expand, unless everything is explained: a
            // witness, or a PGAV park, never descends.
            Ok(()) if node.path.len() >= self.options.limits.max_depth => {
                self.env.restore(&node.cursors);
                (!self.env.all_done()).then_some(InconclusiveReason::DepthLimit)
            }
            Ok(()) => None,
        };
        if let Some(reason) = limit {
            front.push(node);
            return Err(Halt::Stop(reason));
        }
        let moved = self.resident(&mut node).map_err(Halt::SpillFailure)?;
        front.unspill(moved);
        self.expand(front, sink, node)
    }

    /// Expand one governed, resident node: restore its cursors, park it
    /// or report it as a witness when everything is consumed, otherwise
    /// Generate on its own snapshot and fire the first untried candidate
    /// on a copy — the one copy an expansion makes.
    fn expand<F: Front, S: Sink>(
        &mut self,
        front: &mut F,
        sink: &mut S,
        mut node: Node,
    ) -> Result<(), Halt> {
        let limits = &self.options.limits;
        let depth = node.path.len();
        self.stats.max_depth = self.stats.max_depth.max(depth);
        front.expanding();
        self.env.restore(&node.cursors);
        self.stats.restores += 1;
        sink.record(self.machine, StepRecord::restore(depth));
        self.note_best(front, &node.path);

        if self.env.all_done() {
            if self.env.eof {
                return Err(Halt::Witness(node.path));
            }
            // PGAV: everything so far is explained; park the node.
            self.stats.pg_nodes += 1;
            let total = front.park(node, self.stats.pg_nodes);
            sink.record(self.machine, StepRecord::park(depth, total));
            return Ok(());
        }

        // Generate (or re-generate) this node's transition list,
        // directly on its snapshot: Generate never writes the state.
        let (tried, blocked) = (&node.tried, &node.blocked);
        let st = node
            .state
            .as_mut()
            .expect("node is faulted in before expansion");
        let keep = |t| !tried.contains(t) && !blocked.contains(t);
        if !self.generate(sink, st, depth, keep).map_err(Halt::Fatal)? {
            front.retire();
            return Ok(());
        }
        let is_pg = self.gen.incomplete;
        // Fanout as the search sees it: candidates not yet explored from
        // this node (a re-generate only offers what new input enabled).
        let untried = self.gen.fireable.len();

        if untried == 0 {
            if is_pg || !node.blocked.is_empty() {
                if front.pg_len() >= limits.max_pg_nodes {
                    front.push(node);
                    return Err(Halt::Stop(InconclusiveReason::PgNodeLimit));
                }
                self.stats.pg_nodes += 1;
                let total = front.park(node, self.stats.pg_nodes);
                sink.record(self.machine, StepRecord::park(depth, total));
            } else {
                front.retire();
            }
            return Ok(());
        }

        let f = self.gen.fireable.swap_remove(0);
        node.tried.insert(f.trans);
        let mut child_state = node.resident_state().snapshot();
        self.env.restore(&node.cursors);
        let before = self.env.outstanding();
        let fired = self
            .fire(sink, &mut child_state, &f, depth)
            .map_err(Halt::Fatal)?;
        if !fired && self.env.last_reject == Some(RejectReason::MayGrow) {
            // The failure was "output not in the trace *yet*": park it
            // as blocked and retry once data arrives.
            node.tried.remove(f.trans);
            node.blocked.insert(f.trans);
        }

        let has_more = untried > 1 || is_pg || !node.blocked.is_empty();
        let child_barren = if self.env.outstanding() < before {
            0
        } else {
            node.barren + 1
        };
        if !fired || child_barren > limits.max_barren_steps {
            if fired {
                self.stats.barren_prunes += 1;
                let rec = StepRecord::prune(depth + 1, PruneKind::Barren);
                sink.record(self.machine, rec);
            }
            if has_more {
                front.push(node);
            } else {
                front.retire();
            }
            return Ok(());
        }
        self.stats.saves += 1;
        let child = Node::new(
            child_state,
            self.env.save(),
            child_barren,
            node.path.push(f.trans as u32),
        );
        let bytes = child.charged();
        // Parent first, child last: the next pop is the child — the
        // depth-first order, which keeps the frontier (and the resident
        // set) small.
        let resident = front.push_child(has_more.then_some(node), child);
        sink.record(self.machine, StepRecord::save(depth + 1, bytes, resident));
        Ok(())
    }

    /// The complete-trace rule on the live node, whose cursors are the
    /// lane's: Generate once (GE), save a snapshot with the remaining
    /// candidates only when there are siblings (SA), and fire the first
    /// candidate in place. The node stays in `live`, so a step down the
    /// tree moves no node record.
    fn expand_live<S: Sink>(
        &mut self,
        stack: &mut Stack,
        sink: &mut S,
        live: &mut Option<Node>,
    ) -> Result<(), Halt> {
        let node = live.as_mut().expect("a live node to expand");
        let depth = node.path.len();
        self.at = depth;
        self.note_best(stack, &node.path);
        if self.env.all_done() {
            return Err(Halt::Witness(node.path.clone()));
        }
        if depth >= self.options.limits.max_depth {
            return Err(Halt::Stop(InconclusiveReason::DepthLimit));
        }
        let st = node.state.as_mut().expect("the live node is resident");
        if self.options.state_hashing && !self.visited.insert(fingerprint(st, &self.env.cursors)) {
            self.stats.hash_prunes += 1;
            sink.record(self.machine, StepRecord::prune(depth, PruneKind::Hash));
            *live = None;
            return Ok(());
        }
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let generated = self
            .generate(sink, st, depth, |_| true)
            .map_err(Halt::Fatal)?;
        let Some(first) = self.gen.fireable.first().filter(|_| generated).cloned() else {
            *live = None;
            return Ok(());
        };
        if self.gen.fireable.len() > 1 {
            self.stats.saves += 1;
            let path = node.path.clone();
            let mut saved = Node::new(st.snapshot(), self.env.save(), node.barren, path);
            saved.pending = Some(Pending {
                fireable: std::mem::take(&mut self.gen.fireable),
                next: 1,
            });
            let bytes = saved.charged();
            let resident = stack.save(saved, self.tier, self.options.limits.max_state_bytes);
            sink.record(self.machine, StepRecord::save(depth, bytes, resident));
        }
        self.descend(sink, live, &first, depth)
    }

    /// The complete-trace rule on the saved node on top of the stack (the
    /// caller faulted it in): one restore (RE) per sibling. The node stays
    /// on the stack while siblings remain; the last sibling takes its
    /// state instead of a copy.
    fn backtrack<S: Sink>(
        &mut self,
        stack: &mut Stack,
        sink: &mut S,
        live: &mut Option<Node>,
    ) -> Result<(), Halt> {
        self.stats.restores += 1;
        sink.record(self.machine, StepRecord::restore(self.at));
        let top = stack.work.last_mut().expect("a saved node to restore");
        let depth = top.path.len();
        self.at = depth;
        self.env.restore(&top.cursors);
        let p = top
            .pending
            .as_mut()
            .expect("a saved node holds its candidates");
        let f = p.fireable[p.next].clone();
        p.next += 1;
        *live = Some(if p.next < p.fireable.len() {
            let state = top.resident_state().snapshot();
            Node::live(state, top.barren, top.path.clone())
        } else {
            let mut node = stack.work.pop().expect("the top node");
            stack.uncharge(node.charged());
            node.pending = None;
            node
        });
        self.descend(sink, live, &f, depth)
    }

    /// Fire `f` in place on the live node, at `depth`; it stays live as
    /// its child when the fire completes within the barren bound, and
    /// dies otherwise.
    fn descend<S: Sink>(
        &mut self,
        sink: &mut S,
        live: &mut Option<Node>,
        f: &Fireable,
        depth: usize,
    ) -> Result<(), Halt> {
        let node = live.as_mut().expect("a live node to fire on");
        let before = self.env.outstanding();
        let st = node.state.as_mut().expect("the live node is resident");
        let fired = self.fire(sink, st, f, depth).map_err(Halt::Fatal)?;
        node.barren = if self.env.outstanding() < before {
            0
        } else {
            node.barren + 1
        };
        if !fired || node.barren > self.options.limits.max_barren_steps {
            if fired {
                self.stats.barren_prunes += 1;
                sink.record(self.machine, StepRecord::prune(depth, PruneKind::Barren));
            }
            *live = None;
            return Ok(());
        }
        node.path.extend(f.trans as u32);
        Ok(())
    }
}

/// The one-worker loop on the calling thread: step until the work stack
/// drains or a step halts the search.
///
/// With `live` it runs the complete-trace rule, the paper's §2.2 DFS:
/// each iteration is governed, then expands the live node or, when there
/// is none, backtracks to the saved node on top of the stack. Only saved
/// nodes are charged, and a stop leaves the live node in `live`. Without
/// `live` it runs the on-line rule, for `workers = 1` and for the replay
/// of an aborted burst.
fn drain<S: Sink>(
    lane: &mut Lane<'_>,
    stack: &mut Stack,
    sink: &mut S,
    carry: &SearchStats,
    mut live: Option<&mut Option<Node>>,
) -> Halt {
    let cap = lane.options.limits.max_transitions;
    loop {
        // The live views read residency from the ticked stats; the end
        // of the run stamps the same gauge.
        lane.stats.snapshot_bytes = stack.gauge.resident;
        let step = match live.as_deref_mut() {
            None => {
                let Some(node) = stack.work.pop() else {
                    return Halt::Drained;
                };
                sink.tick(&lane.stats, cap);
                lane.step(stack, sink, node)
            }
            Some(live) => {
                sink.tick(&lane.stats, cap);
                if let Some(msg) = stack.fault.take() {
                    return Halt::SpillFailure(msg);
                }
                // A spilled top is about to be faulted back in.
                let need = match (&*live, stack.work.last()) {
                    (None, Some(top)) if top.state.is_none() => top.state_bytes,
                    _ => 0,
                };
                if let Err(h) = lane.govern(stack, need) {
                    return h;
                }
                if live.is_some() {
                    lane.expand_live(stack, sink, live)
                } else {
                    let Some(top) = stack.work.last_mut() else {
                        return Halt::Drained;
                    };
                    // The top stays on the stack: faulting it in moves
                    // its state bytes back onto the RAM gauge.
                    match lane.resident(top) {
                        Ok(moved) => {
                            stack.unspill(moved);
                            stack.charge(moved);
                        }
                        Err(msg) => return Halt::SpillFailure(msg),
                    }
                    lane.backtrack(stack, sink, live)
                }
            }
        };
        if let Err(h) = step {
            return h;
        }
        if let Some(t) = lane.tier {
            let c = lock_tier(t).counters();
            stamp_spill(&mut lane.stats, carry, c, &stack.gauge);
        }
    }
}

/// A node's park label inside a burst. The burst's input `i` (in
/// sequential pop order) gets `key = [i]`, every pop of a node consumes
/// one `step`, and a child created at its parent's step `s` gets
/// `key = parent.key ++ [s]`. Sequential pop labels `key ++ [step]` are
/// lexicographically increasing (a child's subtree is fully explored
/// between its parent's pops `s` and `s+1`), so sorting by label
/// reproduces the one-worker order no matter which worker holds a node.
/// One worker never needs labels, so [`Node`] does not carry one.
#[derive(Default)]
struct Label {
    key: Vec<u32>,
    step: u32,
}

/// `key ++ [step]`: a full park label, or a child's key.
fn extend(mut key: Vec<u32>, step: u32) -> Vec<u32> {
    key.push(step);
    key
}

/// Shared state of one burst.
struct Burst {
    /// The burst's input nodes in sequential pop order. A worker whose
    /// deque runs dry claims the next one (input `i` has label `[i]`).
    /// After eof the originals stay in place and workers search copies,
    /// so a witness replay can restart from the untouched inputs.
    inputs: Vec<Mutex<Option<Node>>>,
    next_input: AtomicUsize,
    keep_inputs: bool,
    /// Per-worker deques: owner pushes/pops at the back (LIFO), thieves
    /// pop at the front (FIFO — the coldest, usually largest subtree).
    deques: Vec<Mutex<VecDeque<(Node, Label)>>>,
    /// The burst's parks with their park labels.
    parked: Mutex<Vec<(Vec<u32>, Node)>>,
    /// Nodes alive in deques or being processed. A thief that finds
    /// every deque empty checks this: zero means the burst is done
    /// (nodes in flight are still counted until retired or parked).
    pending: AtomicUsize,
    /// Why the burst stopped early: the first cause wins, except that a
    /// fatal error outranks every other.
    stop: Mutex<Option<Halt>>,
    stopped: AtomicBool,
    /// Live TE/GE/RE/SA counters (seeded from the cumulative stats at
    /// burst start) — the TE limit check and the progress heartbeat
    /// read these; the authoritative merge uses per-worker deltas.
    te: AtomicU64,
    ge: AtomicU64,
    re: AtomicU64,
    sa: AtomicU64,
    /// Cumulative PG-node count, for park events.
    pg: AtomicU64,
    depth: AtomicUsize,
    /// The shared byte gauges (see [`Gauge`]).
    resident: AtomicUsize,
    peak: AtomicUsize,
    disk: AtomicUsize,
    peak_disk: AtomicUsize,
}

impl Burst {
    fn new(
        workers: usize,
        inputs: Vec<Node>,
        keep_inputs: bool,
        stats: &SearchStats,
        g: &Gauge,
    ) -> Self {
        Burst {
            pending: AtomicUsize::new(inputs.len()),
            inputs: inputs.into_iter().map(|n| Mutex::new(Some(n))).collect(),
            next_input: AtomicUsize::new(0),
            keep_inputs,
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            parked: Mutex::new(Vec::new()),
            stop: Mutex::new(None),
            stopped: AtomicBool::new(false),
            te: AtomicU64::new(stats.transitions_executed),
            ge: AtomicU64::new(stats.generates),
            re: AtomicU64::new(stats.restores),
            sa: AtomicU64::new(stats.saves),
            pg: AtomicU64::new(stats.pg_nodes),
            depth: AtomicUsize::new(stats.max_depth),
            resident: AtomicUsize::new(g.resident),
            peak: AtomicUsize::new(g.peak),
            disk: AtomicUsize::new(g.disk),
            peak_disk: AtomicUsize::new(g.peak_disk),
        }
    }

    /// Claim the next input in sequential pop order, or a copy of it
    /// when the originals must survive for a witness replay.
    fn claim(&self) -> Option<(Node, Label)> {
        let i = self.next_input.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.inputs.get(i)?.lock().expect("input lock");
        let node = if self.keep_inputs {
            slot.clone()
        } else {
            slot.take()
        };
        let label = Label {
            key: vec![i as u32],
            step: 0,
        };
        Some((node.expect("each input is claimed once"), label))
    }

    fn set_stop(&self, cause: Halt) {
        let mut s = self.stop.lock().expect("stop lock");
        if s.is_none() || matches!(cause, Halt::Fatal(_)) {
            *s = Some(cause);
        }
        self.stopped.store(true, Ordering::Release);
    }

    fn charge(&self, bytes: usize) -> usize {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if now > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
        now
    }

    fn gauge(&self) -> Gauge {
        Gauge {
            resident: self.resident.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
            disk: self.disk.load(Ordering::Relaxed),
            peak_disk: self.peak_disk.load(Ordering::Relaxed),
        }
    }

    /// Evict one node (held under its list's lock) and move its bytes
    /// between the gauges.
    fn spill(&self, tier: &Mutex<SpillTier>, node: &mut Node) -> Result<(), SpillError> {
        let moved = spill_node(&mut lock_tier(tier), node)?;
        self.resident.fetch_sub(moved, Ordering::Relaxed);
        let disk = self.disk.fetch_add(moved, Ordering::Relaxed) + moved;
        self.peak_disk.fetch_max(disk, Ordering::Relaxed);
        Ok(())
    }
}

/// A worker's handle on the burst: its own deque for pushes, everyone's
/// for eviction, and the label of the node it is expanding.
struct Deques<'b> {
    sh: &'b Burst,
    widx: usize,
    label: Label,
}

impl Deques<'_> {
    fn own(&self) -> std::sync::MutexGuard<'_, VecDeque<(Node, Label)>> {
        self.sh.deques[self.widx].lock().expect("deque lock")
    }
}

impl Front for Deques<'_> {
    fn te(&self, _local: &SearchStats) -> u64 {
        self.sh.te.load(Ordering::Relaxed)
    }

    fn resident(&self) -> usize {
        self.sh.resident.load(Ordering::Relaxed)
    }

    fn uncharge(&mut self, bytes: usize) {
        self.sh.resident.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn push(&mut self, node: Node) {
        self.sh.charge(node.charged());
        let label = std::mem::take(&mut self.label);
        self.own().push_back((node, label));
    }

    fn expanding(&mut self) {
        self.label.step += 1;
    }

    fn pop_label(&self) -> Option<(&[u32], u32)> {
        Some((&self.label.key, self.label.step - 1))
    }

    fn push_child(&mut self, parent: Option<Node>, child: Node) -> usize {
        // Count the child before it becomes visible (and before its
        // parent retires) so `pending` never dips to zero while work
        // remains.
        self.sh.pending.fetch_add(1, Ordering::AcqRel);
        let mut label = std::mem::take(&mut self.label);
        let key = match parent {
            Some(_) => label.key.clone(),
            None => std::mem::take(&mut label.key),
        };
        let child_label = Label {
            key: extend(key, label.step - 1),
            step: 0,
        };
        let kept = parent.map(|p| {
            self.sh.charge(p.charged());
            (p, label)
        });
        let retired = kept.is_none();
        let resident = self.sh.charge(child.charged());
        {
            let mut own = self.own();
            own.extend(kept);
            own.push_back((child, child_label));
        }
        if retired {
            self.retire();
        }
        resident
    }

    fn retire(&mut self) {
        self.sh.pending.fetch_sub(1, Ordering::AcqRel);
    }

    fn pg_len(&self) -> usize {
        self.sh.parked.lock().expect("parked lock").len()
    }

    fn park(&mut self, node: Node, _pg_nodes: u64) -> u64 {
        self.sh.charge(node.charged());
        let label = std::mem::take(&mut self.label);
        let full = extend(label.key, label.step - 1);
        self.sh
            .parked
            .lock()
            .expect("parked lock")
            .push((full, node));
        self.sh.pending.fetch_sub(1, Ordering::AcqRel);
        self.sh.pg.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn evict(
        &mut self,
        tier: &Mutex<SpillTier>,
        cap: usize,
        need: usize,
    ) -> Result<(), SpillError> {
        let sh = self.sh;
        let fits = || sh.resident.load(Ordering::Relaxed) + need <= cap;
        for (_, n) in sh.parked.lock().expect("parked lock").iter_mut() {
            if fits() {
                return Ok(());
            }
            sh.spill(tier, n)?;
        }
        // Unclaimed inputs are the coldest work, the last one coldest.
        for (i, slot) in sh.inputs.iter().enumerate().rev() {
            if fits() {
                return Ok(());
            }
            let mut slot = slot.lock().expect("input lock");
            if i < sh.next_input.load(Ordering::Relaxed) {
                break;
            }
            if let Some(n) = slot.as_mut() {
                sh.spill(tier, n)?;
            }
        }
        // Each deque's front is its coldest end; it is reached under
        // that deque's lock, so its owner never sees a half-evicted node.
        for dq in &sh.deques {
            for (n, _) in dq.lock().expect("deque lock").iter_mut() {
                if fits() {
                    return Ok(());
                }
                sh.spill(tier, n)?;
            }
        }
        Ok(())
    }

    fn unspill(&mut self, bytes: usize) {
        self.sh.disk.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// What one worker brings back from a burst: its counter delta (zero
/// gauges — those live in the [`Burst`]), recorded spec errors and its
/// wall-clock split.
struct WorkerOut {
    delta: SearchStats,
    spec_errors: Vec<RuntimeError>,
    best: Best,
    clock: Clock,
}

/// One worker's burst loop: pop own-LIFO, else claim the next input,
/// else steal FIFO round-robin, park briefly when everything is empty,
/// and run [`Lane::step`] on each node.
/// A limit stop pushes its node back first, so the surviving front is
/// complete whichever cause wins the stop race. Dropping the event
/// sender at exit is what wakes the coordinator.
fn burst_worker(widx: usize, mut lane: Lane<'_>, sh: &Burst, mut sink: Buffered) -> WorkerOut {
    let n_workers = sh.deques.len();
    let mut front = Deques {
        sh,
        widx,
        label: Label::default(),
    };
    let mut clock = Clock::default();
    let mut depth = 0;
    let t_loop = Instant::now();
    loop {
        if sh.stopped.load(Ordering::Acquire) {
            break;
        }
        let popped = front.own().pop_back();
        let (node, label) = match popped.or_else(|| sh.claim()) {
            Some(e) => e,
            None => {
                // Steal-then-park: scan the other deques round-robin
                // from our right-hand neighbour, taking from the top.
                let t_steal = Instant::now();
                let stolen = (1..n_workers).find_map(|k| {
                    let v = (widx + k) % n_workers;
                    sh.deques[v].lock().expect("deque lock").pop_front()
                });
                clock.steal += t_steal.elapsed();
                match stolen {
                    Some(e) => {
                        lane.stats.steals += 1;
                        e
                    }
                    None => {
                        lane.stats.steal_failures += 1;
                        if sh.pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        let t_idle = Instant::now();
                        std::thread::sleep(IDLE_PARK);
                        clock.idle += t_idle.elapsed();
                        continue;
                    }
                }
            }
        };
        front.label = label;
        let before = lane.stats.counters();
        let step = lane.step(&mut front, &mut sink, node);
        let after = lane.stats.counters();
        for ((live, now), was) in [&sh.te, &sh.ge, &sh.re, &sh.sa]
            .into_iter()
            .zip(after)
            .zip(before)
        {
            if now > was {
                live.fetch_add(now - was, Ordering::Relaxed);
            }
        }
        if lane.stats.max_depth > depth {
            depth = lane.stats.max_depth;
            sh.depth.fetch_max(depth, Ordering::Relaxed);
        }
        if let Err(h) = step {
            sh.set_stop(h);
            break;
        }
    }
    sink.flush();
    clock.busy = t_loop
        .elapsed()
        .saturating_sub(clock.idle)
        .saturating_sub(clock.steal);
    WorkerOut {
        delta: lane.stats,
        spec_errors: lane.spec_errors,
        best: lane.best,
        clock,
    }
}

/// Pulse the live views mid-burst from the live atomics overlaid on the
/// cumulative base stats.
fn tick_par(tel: &mut Telemetry, base: &SearchStats, sh: &Burst, cap: u64) {
    let mut s = base.clone();
    s.transitions_executed = sh.te.load(Ordering::Relaxed);
    s.generates = sh.ge.load(Ordering::Relaxed);
    s.restores = sh.re.load(Ordering::Relaxed);
    s.saves = sh.sa.load(Ordering::Relaxed);
    s.max_depth = sh.depth.load(Ordering::Relaxed);
    s.snapshot_bytes = sh.resident.load(Ordering::Relaxed);
    tel.pulse(&s, cap);
}

/// One burst (`workers = N ≥ 2`): the trace is frozen while N scoped
/// threads drain the work stack. On return the burst's parks are on the
/// PG-list in sequential park order and, after a limit stop, the
/// surviving front is the work stack. After eof, a witness or a limit
/// stop hands the burst to the one-worker drain instead.
fn burst(
    lane: &mut Lane<'_>,
    stack: &mut Stack,
    module: &AnalyzedModule,
    tel: &mut Telemetry,
    clocks: &mut [Clock],
    carry: &SearchStats,
) -> Result<Halt, TangoError> {
    let n_workers = clocks.len();
    let cap = lane.options.limits.max_transitions;
    let mut inputs = std::mem::take(&mut stack.work);
    // The burst parks elsewhere: do not hold the revived PG-list's empty
    // buffer through it.
    stack.pg.shrink_to_fit();
    // Sequential pop order. A post-eof burst may find a witness: keep
    // its inputs, and the counters they start from, for the replay.
    inputs.reverse();
    let keep = lane.env.eof;
    let base = keep.then(|| (lane.stats.clone(), lane.spec_errors.clone()));
    let sh = Burst::new(n_workers, inputs, keep, &lane.stats, &stack.gauge);
    // Workers send record batches (when telemetry is on) and hang up on
    // exit; the last hang-up ends the coordinator's wait at once. A
    // post-eof burst may be redone by one worker, so its records reach
    // the handle only at the barrier, and only if it is not.
    let (tx, rx) = mpsc::channel();
    let mut held: Vec<(u16, Vec<StepRecord>)> = Vec::new();
    let machine = lane.machine;
    let mut lanes = Vec::with_capacity(n_workers);
    for w in 0..n_workers {
        let mut env = TraceEnv::new(module, lane.env.trace.clone(), lane.options)?;
        env.eof = lane.env.eof;
        let sink = Buffered {
            tx: tx.clone(),
            worker: w as u16,
            buf: Vec::new(),
            on: tel.hot(),
            timed: tel.timer().is_some(),
        };
        lanes.push((lane.fork(env), sink));
    }
    drop(tx);

    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let shr = &sh;
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(i, (wl, sink))| {
                s.spawn(move || {
                    // Spec-level panics are already contained per step
                    // (`search::guard`); this backstop covers
                    // infrastructure panics, which would otherwise leave
                    // `pending` forever non-zero and spin the surviving
                    // workers. Flag the stop, then let the coordinator's
                    // join re-raise the panic.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        burst_worker(i, wl, shr, sink)
                    }));
                    r.unwrap_or_else(|p| {
                        shr.stopped.store(true, Ordering::Release);
                        std::panic::resume_unwind(p)
                    })
                })
            })
            .collect();
        loop {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(batch) if keep => held.push(batch),
                Ok((w, batch)) => batch.into_iter().for_each(|r| tel.record(machine, w, r)),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    tick_par(tel, &lane.stats, shr, cap);
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            // A steady stream of batches may never time out: the live
            // views pulse by the clock on every wake-up.
            if tel.pulsing() {
                tick_par(tel, &lane.stats, shr, cap);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    for (c, o) in clocks.iter_mut().zip(&outs) {
        c.busy += o.clock.busy;
        c.idle += o.clock.idle;
        c.steal += o.clock.steal;
    }
    let gauge = sh.gauge();
    let claimed = sh.next_input.load(Ordering::Relaxed);
    let Burst {
        inputs,
        deques,
        parked,
        stop,
        ..
    } = sh;
    let inputs = inputs
        .into_iter()
        .map(|m| m.into_inner().expect("input lock"));
    let stop = match stop.into_inner().expect("stop lock") {
        // After eof, a witness or a limit stop hands the burst to one
        // worker: parallel workers may have searched past the first
        // witness, and that work must not be counted, nor may a front
        // they left be what a resume starts from. Discard the burst's
        // deltas, records and front, keep the honest clocks and peaks, and
        // replay the untouched inputs on one worker, which now holds
        // nothing else; its witness, or its stop point and front, and its
        // records are exactly the one-worker run's.
        Some(Halt::Witness(_) | Halt::Stop(_)) if keep => {
            drop((deques, parked, outs, held));
            let (stats, errors) = base.expect("inputs are kept after eof");
            lane.stats = stats;
            lane.spec_errors = errors;
            stack.work = inputs.rev().map(|n| n.expect("kept input")).collect();
            let held = || stack.work.iter().chain(&stack.pg);
            stack.gauge.resident = held().map(Node::charged).sum();
            stack.gauge.disk = held()
                .filter(|n| n.state.is_none())
                .map(|n| n.state_bytes)
                .sum();
            return Ok(drain(lane, stack, tel, carry, None));
        }
        other => other,
    };
    for (w, batch) in held {
        batch.into_iter().for_each(|r| tel.record(machine, w, r));
    }
    // Exhausted or limited: the greedy per-worker deltas are exact, and
    // the best attempts merge in sequential order.
    for o in outs {
        lane.stats.absorb(&o.delta);
        lane.spec_errors.extend(o.spec_errors);
        let at = o.best.label.as_deref().and_then(<[u32]>::split_last);
        if lane
            .best
            .beaten_by(o.best.explained, at.map(|(step, key)| (key, *step)))
        {
            lane.best = o.best;
        }
    }
    lane.best.label = None;
    lane.spec_errors.truncate(MAX_RECORDED_ERRORS);
    stack.gauge = gauge;
    let mut parked = parked.into_inner().expect("parked lock");
    parked.sort_by(|a, b| a.0.cmp(&b.0));
    stack.pg.extend(parked.into_iter().map(|(_, n)| n));
    Ok(match stop {
        None => Halt::Drained,
        Some(Halt::Stop(reason)) => {
            // A stop before eof: the front (every deque, plus the inputs
            // no worker claimed) is saved but cannot be resumed, so its
            // order does not matter.
            stack.work = deques
                .into_iter()
                .flat_map(|d| d.into_inner().expect("deque lock"))
                .map(|(n, _)| n)
                .chain(inputs.skip(claimed).flatten())
                .collect();
            Halt::Stop(reason)
        }
        Some(halt) => halt,
    })
}

/// One run of the engine, fresh or resumed. Over a trace that was
/// complete when the analysis started, the complete-trace rule descends
/// on one worker and no source is polled. Otherwise the on-line rule runs
/// at any worker count: poll, revive, search the known tree (one drain,
/// or bursts), then conclude, report an interim verdict, or wait for
/// input. `on_status` sees every change of the interim verdict;
/// returning `false` stops the analysis and reports the interim verdict.
/// An on-line run refuses state hashing: with two or more workers the
/// visited set would make the counters depend on the schedule.
pub(crate) fn run(
    machine: &Machine,
    module: &AnalyzedModule,
    start: Start<'_>,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, TangoError> {
    let t0 = Instant::now();
    let mut no_source = EofSource;
    let fresh = SearchStats::default;
    let (complete, source, trace, stats, init, front): (bool, &mut dyn TraceSource, _, _, _, _) =
        match start {
            Start::Online(s) => {
                let empty = ResolvedTrace::empty(module.ips.len());
                (false, s, empty, fresh(), None, None)
            }
            Start::Static(t, init) => (true, &mut no_source, t, fresh(), init, None),
            Start::Resume(c) => {
                let complete = c.search.complete;
                (
                    complete,
                    &mut no_source,
                    c.trace,
                    c.stats,
                    None,
                    Some(c.search),
                )
            }
        };
    if !complete && options.state_hashing {
        return Err(TangoError::Env(EnvError(
            "state hashing is a static-analysis option; on-line analysis does not support it"
                .into(),
        )));
    }
    let n_workers = if complete {
        1
    } else {
        options.resolved_workers().max(1)
    };
    let deadline = options.limits.max_wall_time.map(|d| t0 + d);
    let cap = options.limits.max_transitions;
    let machine = machine.policy_view(options.policy);
    if n_workers > 1 {
        tel.set_workers(n_workers);
    }
    let base_wall = stats.wall_time;
    let carry = stats.clone();
    let mut env = TraceEnv::new(module, trace, options)?;
    env.eof = complete || front.as_ref().is_some_and(|f| f.eof);
    // Per-worker clocks feed the on-line engine's busy/idle gauges; the
    // complete-trace rule reports none.
    let mut clocks = vec![Clock::default(); if complete { 0 } else { n_workers }];

    // Disk spill tier: under a memory budget, park cold node snapshots
    // in segment files instead of stopping `Inconclusive(MemoryLimit)`.
    // An unusable spill directory degrades the run before it searches.
    let (tier, mut tier_fault) = match options.spill.build_tier(options.limits.max_state_bytes) {
        // Spill retry sleeps honor the same wall-clock deadline the
        // search loop enforces.
        Ok(t) => (
            t.map(|mut t| {
                if let Some(d) = deadline {
                    t.set_deadline(d);
                }
                Mutex::new(t)
            }),
            None,
        ),
        Err(e) => (None, Some(e.to_string())),
    };
    let mut spill_faults: Vec<String> = Vec::new();

    let mut stack = Stack {
        gauge: Gauge {
            peak: stats.peak_snapshot_bytes,
            peak_disk: stats.peak_spilled_bytes,
            ..Gauge::default()
        },
        ..Stack::default()
    };
    let mut lane = Lane {
        machine: &machine,
        options,
        tier: tier.as_ref(),
        deadline,
        env,
        gen: Generated::default(),
        stats,
        spec_errors: Vec::new(),
        best: Best::default(),
        visited: HashSet::default(),
        at: 0,
    };
    // The complete-trace rule's live node: the node its descent stands
    // at, with the lane's cursors.
    let mut live: Option<Node> = None;
    match front {
        None => {
            let start = match init {
                Some(sid) => machine.initial_state_at(sid)?,
                None => machine.initial_state()?,
            };
            if complete {
                live = Some(Node::live(start, 0, SharedPath::default()));
            } else {
                lane.stats.saves += 1;
                let root = Node::new(start, lane.env.save(), 0, SharedPath::default());
                let bytes = root.charged();
                let resident = stack.push_child(None, root);
                Sink::record(tel, &machine, StepRecord::save(0, bytes, resident));
            }
        }
        Some(f) => {
            lane.visited = f.visited.into_iter().collect();
            lane.spec_errors = f.spec_errors;
            lane.best.explained = f.best.0;
            lane.best.path = SharedPath::from_indices(&f.best.1);
            lane.at = f.depth;
            let mut work: Vec<Node> = f.work.into_iter().map(node_from_ckpt).collect();
            // A static stop with a live node froze it on top, uncharged;
            // the lane stands at its cursors.
            if complete && work.last().is_some_and(|n| n.pending.is_none()) {
                live = work.pop();
                lane.env
                    .restore(&live.as_ref().expect("just popped").cursors);
            }
            // The resumed nodes arrive resident (the save faulted
            // everything in).
            for n in work {
                stack.push(n);
            }
            for c in f.pg {
                let n = node_from_ckpt(c);
                stack.charge(n.charged());
                stack.pg.push(n);
            }
        }
    }

    let mut last_status: Option<Verdict> = None;
    let (verdict, witness, checkpoint) = 'search: loop {
        if !complete {
            // Absorb anything the source produced.
            let poll = source.poll();
            let got_new = !poll.events.is_empty();
            for e in &poll.events {
                lane.env
                    .trace
                    .push_event(e, module)
                    .map_err(TangoError::TraceResolve)?;
            }
            if poll.eof {
                lane.env.eof = true;
            }
            if got_new || poll.eof {
                // Dynamic node reordering: PG-nodes jump the queue.
                stack.revive();
            }
        }

        // Search the known tree until it drains.
        let halt = if let Some(msg) = tier_fault.take() {
            Halt::SpillFailure(msg)
        } else if n_workers == 1 {
            let live = complete.then_some(&mut live);
            drain(&mut lane, &mut stack, tel, &carry, live)
        } else if !stack.work.is_empty() {
            burst(&mut lane, &mut stack, module, tel, &mut clocks, &carry)?
        } else {
            Halt::Drained
        };
        match halt {
            Halt::Drained => {}
            Halt::Witness(path) => break (Verdict::Valid, Some(path.to_vec(&machine)), None),
            Halt::Stop(reason) => {
                let ckpt = freeze(
                    &mut stack,
                    &mut live,
                    &lane,
                    complete,
                    n_workers,
                    &mut spill_faults,
                );
                break (Verdict::Inconclusive(reason), None, ckpt);
            }
            Halt::Fatal(e) => return Err(TangoError::Runtime(e)),
            Halt::SpillFailure(msg) => {
                spill_faults.push(msg);
                // Under the complete-trace rule the front survives a spill
                // failure (a node whose write failed stays resident, one
                // whose read failed is read again by the freeze), so the
                // stop still checkpoints; an on-line burst may have lost
                // nodes in flight.
                let ckpt = complete
                    .then(|| freeze(&mut stack, &mut live, &lane, true, 1, &mut spill_faults))
                    .flatten();
                let reason = InconclusiveReason::SpillFailure;
                break (Verdict::Inconclusive(reason), None, ckpt);
            }
        }

        // The tree (as currently known) is exhausted.
        if lane.env.eof {
            if stack.pg.is_empty() {
                break (Verdict::Invalid, None, None);
            }
            // EOF makes PG-nodes fully generated: process them once more.
            stack.revive();
            continue;
        }
        if stack.pg.is_empty() {
            // No PG-node can be revived by future input: conclusively
            // invalid even though the trace may keep growing (§3.1.2).
            break (Verdict::Invalid, None, None);
        }

        // Interim verdict: PGAV ⇒ valid so far, else likely invalid.
        let env = &mut lane.env;
        let any_av = stack.pg.iter().any(|n| {
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
            break (status, None, None);
        }

        // Block until the source has more to say — but never past the
        // deadline: a stalled source must not wedge the monitor. Polls
        // back off on the shared [`RetryPolicy::mdfs_poll`] schedule
        // (1ms doubling to 16ms) while the source stays silent; entering
        // this loop anew (i.e. after data arrived) starts over at the
        // minimum interval. Only the one-worker lane counts the sleeps
        // as its idle time; between bursts there are no workers.
        let mut idle = Backoff::new(RetryPolicy::mdfs_poll());
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                let ckpt = freeze(
                    &mut stack,
                    &mut live,
                    &lane,
                    complete,
                    n_workers,
                    &mut spill_faults,
                );
                break 'search (
                    Verdict::Inconclusive(InconclusiveReason::TimeLimit),
                    None,
                    ckpt,
                );
            }
            let p = source.poll();
            if !p.events.is_empty() || p.eof {
                for e in &p.events {
                    lane.env
                        .trace
                        .push_event(e, module)
                        .map_err(TangoError::TraceResolve)?;
                }
                if p.eof {
                    lane.env.eof = true;
                }
                stack.revive();
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
            if n_workers == 1 {
                clocks[0].idle += sleep;
            }
        }
    };

    let events_total = lane.env.explained() + lane.env.outstanding();
    let best_effort = (verdict == Verdict::Invalid && lane.env.eof).then(|| BestEffort {
        events_explained: lane.best.explained,
        events_total,
        path: lane.best.path.to_vec(&machine),
    });
    let Lane {
        env,
        mut stats,
        spec_errors,
        ..
    } = lane;
    stats.snapshot_bytes = stack.gauge.resident;
    stats.peak_snapshot_bytes = stats.peak_snapshot_bytes.max(stack.gauge.peak);
    if let Some(t) = tier.as_ref() {
        stamp_spill(&mut stats, &carry, lock_tier(t).counters(), &stack.gauge);
    }
    let mut report = finish(
        verdict,
        witness,
        stats,
        spec_errors,
        &*source,
        t0,
        base_wall,
        clocks,
        cap,
        spill_faults,
        checkpoint,
        &env.trace,
        tel,
    );
    report.best_effort = best_effort;
    Ok(report)
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

    #[test]
    fn fingerprint_separates_states_and_cursors_and_ignores_sharing() {
        let m = Machine::from_source(
            "specification s; module M process; end; body MB for M; \
             var n : integer; state S; initialize to S begin n := 0 end; end; end.",
        )
        .unwrap();
        let state_with = |n: i64| {
            let mut st = m.initial_state().unwrap();
            st.globals[0] = estelle_runtime::Value::Int(n);
            st
        };
        let at = |i: usize| Cursors {
            input: vec![i],
            output: vec![0],
        };
        let st = state_with(0);
        assert_ne!(
            fingerprint(&st, &at(0)),
            fingerprint(&state_with(1), &at(0))
        );
        assert_ne!(fingerprint(&st, &at(0)), fingerprint(&st, &at(1)));
        assert_eq!(
            fingerprint(&st, &at(0)),
            fingerprint(&st.snapshot(), &at(0)),
            "a copy-on-write snapshot shares chunks but hashes the same"
        );
    }
}
