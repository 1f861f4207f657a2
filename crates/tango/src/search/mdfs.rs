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
//! One node record, [`Node`], one store ([`Stack`] with its charging
//! rule), one governance check, one `generate` and one
//! `fire` helper, one step record (`StepRecord`) into one [`Sink`], one
//! checkpoint body. Which rule expands a node depends only on whether the
//! trace was complete when the analysis started:
//!
//! * the **complete-trace rule** (static analysis, one worker) is DFS's
//!   in-place descent: Generate once per node, save a node holding the
//!   remaining candidates ([`Pending`]) and a trail mark only when
//!   siblings remain, fire the first candidate on the live node itself,
//!   and restore once per sibling by undoing the trail to the mark — so
//!   it counts the paper's TE/GE/RE/SA;
//! * the **on-line rule**, [`Lane::step`], takes the candidate list a
//!   popped node kept when it last went back on the front, or runs
//!   Generate afresh when it kept none or the trace has since moved
//!   under it ([`Stack::revive`]), and fires its first untried
//!   candidate on a copy. The one loop [`drain`]
//!   runs it, at `workers = 1` on the calling thread, and at `workers =
//!   N ≥ 2` in **bursts**, the work between two polls of the source: N
//!   scoped threads each drain private stacks in ordered segments
//!   ([`Burst`]) and send their step records to the coordinator, which
//!   hands them to the telemetry handle.
//!
//! Determinism: within a burst the trace is frozen, so each node's
//! expansion is a pure function of (state, cursors, trace), the search
//! tree is schedule-independent, and the per-worker counter deltas sum
//! to the sequential totals. Pre-eof bursts never conclude `Valid` (an
//! all-done node parks as a PGAV), and segments merge in the one-worker
//! order, so the PG-list, interim verdicts and best-effort localizations
//! match too. A post-eof burst that finds a witness or hits a limit is
//! **replayed by the one-worker drain** from its untouched inputs, so a
//! resumed run ends with the uninterrupted totals at any worker count;
//! its records reach the telemetry handle only when it is not replayed,
//! so at every worker count the event stream and the flight recorder
//! count exactly TE/GE/RE/SA.
//!
//! Resource governance: the wall-clock deadline is checked both in the
//! search and in the idle polling loop, so a monitor fed by a stalled or
//! dead source stops with `Inconclusive(TimeLimit)` instead of wedging
//! silently. The snapshot-memory budget covers every saved node under one
//! charging rule: a node charges its state bytes plus its cursor bytes.
//! At `workers = N ≥ 2` each worker keeps its own counters and byte delta
//! and folds them into its tally slot on a stride ([`Slot`]); the limits
//! read the slots added up, and near a cap every worker folds on every
//! step, so no limit trips later than on shared counters. A limit stop
//! after eof, which every static stop is, freezes the surviving front
//! into a [`SearchCheckpoint`], which resumes at any worker count; after
//! eof nothing parks, so that front is the work stack alone. A stop
//! before eof, the idle-poll deadline's among them, freezes nothing: the
//! source's read position is not recorded, so no front frozen then could
//! be resumed. Whatever the verdict, [`TraceSource::diagnostics`] is
//! folded into [`AnalysisReport::source_faults`] so feed-level faults
//! (parse errors, truncation, a dead feeder) survive into the report.

use crate::checkpoint::{Checkpoint, NodeCkpt, SearchCheckpoint};
use crate::env::{Cursors, EnvError, RejectReason, TraceEnv};
use crate::error::TangoError;
use crate::options::{AnalysisOptions, SearchLimits};
use crate::stats::SearchStats;
use crate::telemetry::{PruneKind, StepRecord, Telemetry};
use crate::trace::source::{Poll, StaticSource, TraceSource};
use crate::trace::{ResolvedTrace, Trace};
use crate::verdict::{AnalysisReport, BestEffort, InconclusiveReason, Verdict};
use estelle_frontend::sema::model::{AnalyzedModule, StateId};
use estelle_runtime::{
    FireOutcome, Fireable, FxHasher, Generated, Heap, Machine, MachineState, RuntimeError, Trail,
};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::path::SharedPath;
use super::{guard, is_fatal, record_error, MAX_RECORDED_ERRORS};

/// How long a dry burst worker waits for a donation before it looks again.
const IDLE_PARK: Duration = Duration::from_micros(100);
/// Buffered worker step records per flush. Every flush wakes the
/// coordinator, which then competes with the workers for a core: at 64
/// events a flush, the flight recorder cost two workers on two cores
/// about 25% of their speed; at 1024 it costs a few percent.
const EVENT_FLUSH: usize = 1024;
/// Steps between two folds of a burst worker's tally into its [`Slot`].
/// Readers see a peer's work up to this many steps late, so a worker
/// near a cap folds on every step instead.
const FOLD: u64 = 256;
/// Spare buffers of each kind a lane keeps; it drops the rest.
const SPARES: usize = 4;

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
#[derive(Clone)]
struct Node {
    /// The node's snapshot. A node the complete-trace rule saved holds a
    /// trail mark instead, and an empty state here until [`freeze`]
    /// undoes the trail to the mark; one thawed from a checkpoint holds
    /// its state.
    state: MachineState,
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
    /// Snapshot bytes proper, measured once, on the live state when the
    /// node is a trail mark: a saved state is immutable.
    state_bytes: usize,
    /// The node's kept candidate list. Under the complete-trace rule the
    /// node was saved for backtracking, and this is what remains of its
    /// one Generate. Under the on-line rule it is its last Generate,
    /// kept until the trace moves under the node ([`Stack::revive`]).
    pending: Option<Pending>,
}

/// A node's kept candidates. Under the complete-trace rule, `next` is
/// the index of the next one to fire — DFS's frame cursor; under the
/// on-line rule, `incomplete` is its Generate's flag. No field of its
/// own for either: a larger [`Node`] slows the on-line search.
#[derive(Clone)]
struct Pending {
    fireable: Vec<Fireable>,
    next: u32,
    incomplete: bool,
}

impl Node {
    fn new(state: MachineState, cursors: Cursors, barren: usize, path: SharedPath) -> Self {
        Node {
            state_bytes: state.approx_bytes(),
            cursors,
            ..Node::live(state, barren, path)
        }
    }

    /// The complete-trace rule's live node: the trace cursors it stands
    /// at are the lane's, and it is never charged, so it records neither;
    /// a stop freezes it through [`Node::new`].
    fn live(state: MachineState, barren: usize, path: SharedPath) -> Self {
        Node {
            state,
            cursors: Cursors::default(),
            tried: TransSet::default(),
            blocked: TransSet::default(),
            barren,
            path,
            state_bytes: 0,
            pending: None,
        }
    }

    /// Bytes charged against the gauge for this node: its snapshot and
    /// its cursors.
    fn charged(&self) -> usize {
        self.state_bytes
            + (self.cursors.input.len() + self.cursors.output.len()) * std::mem::size_of::<usize>()
    }
}

/// Buffers of dead nodes, kept by a lane for its next copies: an on-line
/// child copy `clone_from`s the state into a spare state, a new node's
/// cursors go into spare cursors, and a saved node's candidate list
/// trades places with a spare list. A spare belongs to no node, so the
/// gauge never charges it and a checkpoint never freezes it.
#[derive(Default)]
struct Spares {
    states: Vec<MachineState>,
    cursors: Vec<Cursors>,
    lists: Vec<Vec<Fireable>>,
}

impl Spares {
    /// A copy of `state`, in a spare's buffers when there is one.
    fn state(&mut self, state: &MachineState) -> MachineState {
        match self.states.pop() {
            Some(mut spare) => {
                spare.clone_from(state);
                spare
            }
            None => state.clone(),
        }
    }

    /// A copy of `cursors`, in a spare's buffers when there is one.
    fn cursors(&mut self, cursors: &Cursors) -> Cursors {
        match self.cursors.pop() {
            Some(mut spare) => {
                spare.clone_from(cursors);
                spare
            }
            None => cursors.clone(),
        }
    }

    /// An empty candidate list, with a spare's capacity when there is one.
    fn list(&mut self) -> Vec<Fireable> {
        self.lists.pop().unwrap_or_default()
    }

    /// Keep a dead state's buffers. Its heap lets go of its chunks, so
    /// that no chunk looks shared on a spare's account and no write pays
    /// a copy-on-write break for it.
    fn keep_state(&mut self, mut state: MachineState) {
        if self.states.len() < SPARES {
            state.heap.clear();
            self.states.push(state);
        }
    }

    /// Keep a dead node's cursors (the live node's hold no buffer).
    fn keep_cursors(&mut self, cursors: Cursors) {
        if self.cursors.len() < SPARES && cursors.input.capacity() > 0 {
            self.cursors.push(cursors);
        }
    }

    fn keep_list(&mut self, mut list: Vec<Fireable>) {
        if self.lists.len() < SPARES && list.capacity() > 0 {
            list.clear();
            self.lists.push(list);
        }
    }

    /// Keep what a dead on-line node owns: its state, cursors and list.
    fn keep(&mut self, node: Node) {
        self.keep_state(node.state);
        self.keep_cursors(node.cursors);
        if let Some(p) = node.pending {
            self.keep_list(p.fireable);
        }
    }
}

/// The front's byte gauge: the sum of its charges and its high-water
/// mark.
#[derive(Clone, Copy, Default)]
struct Gauge {
    resident: usize,
    peak: usize,
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
/// final heartbeat, attach the frozen checkpoint (limit stops after eof),
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
            let split = [("busy", c.busy), ("idle", c.idle), ("steal", c.steal)];
            for (what, t) in &split[..if one { 2 } else { 3 }] {
                let name = format!("mdfs.worker{}.{}_seconds", i, what);
                m.set_gauge(&name, t.as_secs_f64());
            }
        }
    }
    tel.on_verdict(&verdict, &stats, cap);
    let mut r = AnalysisReport::new(verdict, stats);
    r.witness = witness;
    r.spec_errors = spec_errors;
    r.source_faults = source.diagnostics();
    r.checkpoint = checkpoint.map(|search| {
        Box::new(Checkpoint {
            search,
            trace: trace.clone(),
            stats: r.stats.clone(),
        })
    });
    r
}

/// Freeze one node into its checkpoint form. After eof no node holds
/// a blocked transition: an output blocks only while its stream may grow.
/// An on-line node's kept list is not frozen: thawed, the node
/// re-generates it.
fn node_to_ckpt(n: Node, complete: bool) -> NodeCkpt {
    debug_assert!(n.blocked.is_empty(), "a node blocks only before eof");
    NodeCkpt {
        state: n.state,
        cursors: n.cursors,
        tried: n.tried.0,
        barren: n.barren,
        path: n.path.to_indices(),
        pending: n
            .pending
            .filter(|_| complete)
            .map(|p| (p.fireable, p.next as usize)),
    }
}

/// The state field of a node the complete-trace rule saved: it holds a
/// trail mark instead, until [`freeze`] undoes the trail to it.
fn marked() -> MachineState {
    MachineState {
        control: StateId(0),
        globals: Vec::new(),
        heap: Heap::new(),
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
    n.pending = c.pending.map(|(fireable, next)| Pending {
        fireable,
        next: next as u32,
        incomplete: false,
    });
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
/// path. The first one in sequential order wins a tie.
#[derive(Clone, Default)]
struct Best {
    explained: usize,
    path: SharedPath,
}

/// What a run starts from.
pub(crate) enum Start<'s> {
    /// A fresh on-line run: the trace arrives from the source, and the
    /// callback sees every change of the interim verdict (returning
    /// `false` stops the analysis and reports the interim verdict).
    Online(&'s mut dyn TraceSource, &'s mut dyn FnMut(&Verdict) -> bool),
    /// A fresh static run over a complete trace, from this initial FSM
    /// state (`None`: the specification's).
    Static(ResolvedTrace, Option<StateId>),
    /// A stopped run, resumed under the rule it stopped in.
    Resume(Box<Checkpoint>),
}

/// Freeze the search front for a stop after eof: the work stack, with
/// the complete-trace rule's live node on top, and the lane's visited
/// set, spec errors and best attempt. The PG-list is empty: eof revived
/// it, and nothing parks after eof. The depth is DFS's under the
/// complete-trace rule (the live node's, or that of the node whose
/// expansion last failed) and the deepest node's on-line.
fn freeze(
    stack: &mut Stack,
    live: &mut Option<Node>,
    lane: &mut Lane<'_>,
    complete: bool,
    workers: usize,
) -> SearchCheckpoint {
    // The top `depth` saved nodes hold trail marks: each gets its state
    // by undoing the trail from the live state (or the dead one) down to
    // its mark, top of the stack first. The nodes under them were thawed
    // from a checkpoint and hold theirs.
    let marked = lane.trail.depth();
    if marked > 0 {
        let mut state = match live {
            Some(n) => n.state.clone(),
            None => lane.dead.take().expect("the live state died before the stop"),
        };
        let n = stack.work.len();
        for node in stack.work[n - marked..].iter_mut().rev() {
            lane.trail.undo(&mut state);
            lane.trail.pop_mark();
            node.state = state.clone();
        }
    }
    // The live node freezes with its real record, uncharged.
    let live_depth = live.take().map(|n| {
        let depth = n.path.len();
        let frozen = Node::new(n.state, lane.env.save(), n.barren, n.path);
        stack.work.push(frozen);
        depth
    });
    debug_assert!(lane.env.eof && stack.pg.is_empty(), "only a post-eof front freezes");
    let deepest = || stack.work.iter().map(|n| n.path.len()).max().unwrap_or(0);
    let depth = live_depth.unwrap_or_else(|| if complete { lane.at } else { deepest() });
    let mut visited: Vec<u64> = lane.visited.iter().copied().collect();
    // Sorted for a deterministic encoding.
    visited.sort_unstable();
    SearchCheckpoint {
        complete,
        workers_at_save: workers as u32,
        work: stack
            .work
            .drain(..)
            .map(|n| node_to_ckpt(n, complete))
            .collect(),
        visited,
        spec_errors: lane.spec_errors.clone(),
        best: (lane.best.explained, lane.best.path.to_indices()),
        events_total: lane.env.explained() + lane.env.outstanding(),
        depth,
    }
}

/// Where one lane's step records go: the [`Telemetry`] handle itself on
/// the calling thread, or a [`Buffered`] batch on a spawned worker.
trait Sink {
    /// Per-step progress tick. A burst worker's sink has none: its
    /// front folds the worker's progress into its tally slot.
    fn tick(&mut self, _stats: &SearchStats, _cap: u64) {}
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

/// A burst worker's sink: records batch up and go to the coordinator
/// every [`EVENT_FLUSH`] records and at the end of the burst. The
/// `Telemetry` handle is not `Send`; a record is plain data, and names
/// are resolved on the coordinator, only when the event stream is on.
/// `on` is whether the coordinator's handle wants records at all. Each
/// batch comes from the burst's spares, which the coordinator refills
/// with the batches it has emptied.
struct Buffered<'b> {
    sh: &'b Burst,
    tx: mpsc::Sender<(u16, Vec<StepRecord>)>,
    worker: u16,
    buf: Vec<StepRecord>,
    on: bool,
    timed: bool,
}

impl Buffered<'_> {
    fn flush(&mut self) {
        let full = std::mem::replace(&mut self.buf, self.sh.batch());
        let _ = self.tx.send((self.worker, full));
    }

    /// At the worker's exit: send the last batch, or give an empty one
    /// back.
    fn close(self) {
        if self.buf.is_empty() {
            self.sh.give_back(self.buf);
        } else {
            let _ = self.tx.send((self.worker, self.buf));
        }
    }
}

/// Durations are only measured when the coordinator's handle times
/// steps, which implies `on`.
impl Sink for Buffered<'_> {
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

/// Where a step's nodes go: the one-worker [`Stack`], or a burst
/// worker's private stack ([`Private`]). A step uncharges the node it
/// pops; every place the node (or its child) lands charges it again, so
/// the gauge always holds the sum of the front's charges.
trait Front {
    /// Per-step bookkeeping, before the step's pop: the one-worker
    /// stack stamps its gauge into the stats the live views read; a
    /// burst worker folds its tally and feeds a waiting peer.
    fn tick(&mut self, stats: &mut SearchStats);
    /// Transitions executed so far, for the limit check.
    fn te(&self, local: &SearchStats) -> u64;
    /// The snapshot gauge.
    fn resident(&self) -> usize;
    /// Add to the gauge; returns it.
    fn charge(&mut self, bytes: usize) -> usize;
    fn uncharge(&mut self, bytes: usize);
    /// The work stack (top = next pop).
    fn work(&mut self) -> &mut Vec<Node>;
    /// PG-nodes parked so far, for the `max_pg_nodes` limit.
    fn pg_len(&self) -> usize;
    /// Park a PG-node; returns the PG total the park event reports
    /// (`pg_nodes` is the lane's own count).
    fn park(&mut self, node: Node, pg_nodes: u64) -> u64;

    /// The next node to step, still charged; `None` when the front is dry.
    fn pop(&mut self) -> Option<Node> {
        self.work().pop()
    }

    /// Put a popped node back on the work.
    fn push(&mut self, node: Node) {
        self.charge(node.charged());
        self.work().push(node);
    }

    /// Push a fired child on top of its parent, if the parent has more to
    /// explore. Returns the gauge after the charges.
    fn push_child(&mut self, parent: Option<Node>, child: Node) -> usize {
        if let Some(p) = parent {
            self.push(p);
        }
        let resident = self.charge(child.charged());
        self.work().push(child);
        resident
    }
}

/// The one-worker front: the work stack (top = next pop), the PG-list in
/// park order, and the byte gauge. Between bursts it is also the
/// multi-worker search's front.
#[derive(Default)]
struct Stack {
    work: Vec<Node>,
    pg: Vec<Node>,
    gauge: Gauge,
}

impl Stack {
    /// Revive parked PG-nodes: fresh data may unblock output-blocked
    /// transitions, so their blocked sets are cleared. §3.1.3 dynamic
    /// node reordering: the revived nodes go on top of the LIFO work
    /// stack and are searched immediately, putting the rest of the known
    /// tree on hold.
    ///
    /// Then drop the kept lists the new events change. An appended event
    /// comes last, so it changes no queue head that is a message or that
    /// an order predicate empties (the predicates compare global
    /// positions); a head at a stream's end changes exactly when an
    /// input arrives on that stream. `was` holds each input stream's
    /// length before the poll. So a node whose input cursor stands at
    /// the old end of a stream that grew re-generates, and eof keeps
    /// every other list but makes it complete. A list filtered by a
    /// blocked set that is cleared lacks those transitions, so it goes
    /// too. Nodes revived by an earlier poll may still wait on the work
    /// stack: they are checked with the rest.
    fn revive(&mut self, trace: &ResolvedTrace, was: &[usize], eof: bool) {
        for n in self.pg.iter_mut() {
            if !n.blocked.is_empty() {
                n.blocked.clear();
                n.pending = None;
            }
        }
        self.work.append(&mut self.pg);
        for n in self.work.iter_mut() {
            let Some(p) = &mut n.pending else { continue };
            let mut streams = n.cursors.input.iter().zip(was).zip(&trace.inputs);
            if streams.any(|((&at, &end), now)| at == end && now.len() > end) {
                n.pending = None;
            } else if eof {
                p.incomplete = false;
            }
        }
    }
}

impl Front for Stack {
    fn tick(&mut self, stats: &mut SearchStats) {
        stats.snapshot_bytes = self.gauge.resident;
    }

    fn te(&self, local: &SearchStats) -> u64 {
        local.transitions_executed
    }

    fn resident(&self) -> usize {
        self.gauge.resident
    }

    fn charge(&mut self, bytes: usize) -> usize {
        let g = &mut self.gauge;
        g.resident += bytes;
        g.peak = g.peak.max(g.resident);
        g.resident
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

    fn work(&mut self) -> &mut Vec<Node> {
        &mut self.work
    }

    fn pg_len(&self) -> usize {
        self.pg.len()
    }

    fn park(&mut self, node: Node, pg_nodes: u64) -> u64 {
        self.charge(node.charged());
        self.pg.push(node);
        pg_nodes
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
    /// A fatal runtime error (engine bug class) — propagated as `Err`.
    Fatal(RuntimeError),
}

/// One search lane: the machine, the limits, a cursor view over the trace,
/// Generate scratch, and the counters its steps charge — cumulative on
/// the calling thread, a per-burst delta on a spawned worker.
struct Lane<'a> {
    machine: &'a Machine,
    options: &'a AnalysisOptions,
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
    /// Dead nodes' buffers, for the next save or child copy.
    spares: Spares,
    /// Complete-trace rule: the undo log of the live state. A node it
    /// saves holds a mark here, not a state (DESIGN §6.5).
    trail: Trail,
    /// Complete-trace rule: the state of the live node that died last,
    /// which the next backtrack restores in place.
    dead: Option<MachineState>,
}

impl<'a> Lane<'a> {
    /// A lane over `env` with zeroed counters and nothing recorded.
    fn new(
        machine: &'a Machine,
        options: &'a AnalysisOptions,
        deadline: Option<Instant>,
        env: TraceEnv,
    ) -> Self {
        Lane {
            machine,
            options,
            deadline,
            env,
            gen: Generated::default(),
            stats: SearchStats::default(),
            spec_errors: Vec::new(),
            best: Best::default(),
            visited: HashSet::default(),
            at: 0,
            spares: Spares::default(),
            trail: Trail::new(),
            dead: None,
        }
    }

    /// A worker lane over its own cursor view, with zeroed counters.
    fn fork(&self, env: TraceEnv) -> Lane<'a> {
        let best = self.best.clone();
        Lane { best, ..Lane::new(self.machine, self.options, self.deadline, env) }
    }

    /// The limits checked before every step, before it mutates anything,
    /// so a stop freezes an exactly resumable front. `need` is what the
    /// step is about to add to the resident set (the popped node, under
    /// the on-line rule).
    fn govern<F: Front>(&self, front: &F, need: usize) -> Result<(), Halt> {
        let limits = &self.options.limits;
        if front.te(&self.stats) > limits.max_transitions {
            return Err(Halt::Stop(InconclusiveReason::TransitionLimit));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Halt::Stop(InconclusiveReason::TimeLimit));
        }
        if limits
            .max_state_bytes
            .is_some_and(|cap| front.resident() + need > cap)
        {
            return Err(Halt::Stop(InconclusiveReason::MemoryLimit));
        }
        Ok(())
    }

    /// Record the node about to be expanded as the best attempt if it
    /// explains more events than any before it. The lane's cursors stand
    /// at the node.
    fn note_best(&mut self, path: &SharedPath) {
        let explained = self.env.explained();
        if explained > self.best.explained {
            self.best = Best {
                explained,
                path: path.clone(),
            };
        }
    }

    /// *Generate* on `state` into the lane's scratch list, keeping the
    /// candidates whose transition `keep` accepts, and report the
    /// expansion. A `kept` list (on-line rule) is the node's last
    /// Generate, which nothing it read has changed since: it is counted
    /// and reported as that Generate, not re-run. `Ok(false)`: Generate
    /// failed on a specification error, which is recorded and reported
    /// as an expansion with no candidates.
    fn generate<S: Sink>(
        &mut self,
        sink: &mut S,
        state: &mut MachineState,
        depth: usize,
        kept: Option<Pending>,
        keep: impl Fn(usize) -> bool,
    ) -> Result<bool, RuntimeError> {
        let machine = self.machine;
        self.stats.generates += 1;
        let t0 = sink.timer();
        #[cfg(debug_assertions)]
        let recalled = kept.is_some();
        if let Some(p) = kept {
            // Its buffer becomes the scratch; an empty one has none.
            if p.fireable.capacity() > 0 {
                let scratch = std::mem::replace(&mut self.gen.fireable, p.fireable);
                self.spares.keep_list(scratch);
            } else {
                self.gen.fireable.clear();
            }
            self.gen.incomplete = p.incomplete;
        } else {
            let (env, gen) = (&self.env, &mut self.gen);
            if let Err(e) = guard("generate", || machine.generate_into(state, env, gen)) {
                if is_fatal(&e) {
                    return Err(e);
                }
                sink.record(machine, StepRecord::error(depth, e.kind));
                record_error(&mut self.spec_errors, &mut self.stats, e);
                // Keep GE == generate-events: a failed expansion is an
                // event with zero fanout.
                sink.record(machine, StepRecord::generate(depth, 0, false, t0));
                return Ok(false);
            }
        }
        self.gen.fireable.retain(|f| keep(f.trans));
        #[cfg(debug_assertions)]
        if recalled {
            self.check_kept(state, keep);
        }
        let fanout = self.gen.fireable.len();
        let incomplete = self.gen.incomplete;
        sink.record(machine, StepRecord::generate(depth, fanout, incomplete, t0));
        if fanout > 0 {
            self.stats.fanout_sum += fanout as u64;
            self.stats.fanout_samples += 1;
        }
        Ok(true)
    }

    /// Debug builds: a kept list, filtered by `keep`, and its flag are
    /// what a fresh Generate gives. The check reuses one list per
    /// thread, so that it adds only what a Generate allocates.
    #[cfg(debug_assertions)]
    fn check_kept(&self, state: &mut MachineState, keep: impl Fn(usize) -> bool) {
        thread_local!(static FRESH: std::cell::RefCell<Generated> = Default::default());
        FRESH.with_borrow_mut(|fresh| {
            self.machine
                .generate_into(state, &self.env, fresh)
                .expect("a kept list's Generate succeeded");
            fresh.fireable.retain(|f| keep(f.trans));
            let same = |(a, b): (&Fireable, &Fireable)| {
                (a.trans, &a.params, a.fabricated) == (b.trans, &b.params, b.fabricated)
            };
            let kept = &self.gen.fireable;
            assert!(
                kept.len() == fresh.fireable.len() && kept.iter().zip(&fresh.fireable).all(same),
                "a kept list went stale: {:?}, fresh {:?}",
                kept,
                fresh.fireable
            );
            assert_eq!(
                self.gen.incomplete, fresh.incomplete,
                "a kept flag went stale"
            );
        });
    }

    /// Fire `f` on `state` from the lane's cursors; `Ok(true)` when the
    /// transition completed and all of its outputs were matched. The
    /// fire's writes go on the trail while it has a mark; the on-line
    /// rule never marks it, so its fires record nothing.
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
        let (env, trail) = (&mut self.env, &mut self.trail);
        let fired = match guard("fire", || machine.fire_trailed(state, Some(trail), f, env)) {
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
        node: Node,
    ) -> Result<(), Halt> {
        front.uncharge(node.charged());
        // The budget check counts the node as resident: it is about to be.
        let limit = match self.govern(front, node.charged()) {
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
        self.expand(front, sink, node)
    }

    /// Expand one governed node: restore its cursors, park it
    /// or report it as a witness when everything is consumed, otherwise
    /// Generate on its own snapshot, or take the list it kept, and fire
    /// the first untried candidate on a copy — the one copy an expansion
    /// makes. A node that goes back on the front keeps the list.
    fn expand<F: Front, S: Sink>(
        &mut self,
        front: &mut F,
        sink: &mut S,
        mut node: Node,
    ) -> Result<(), Halt> {
        let limits = &self.options.limits;
        let depth = node.path.len();
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.env.restore(&node.cursors);
        self.stats.restores += 1;
        sink.record(self.machine, StepRecord::restore(depth));
        self.note_best(&node.path);

        if self.env.all_done() {
            if self.env.eof {
                return Err(Halt::Witness(node.path));
            }
            // PGAV: everything so far is explained; park the node.
            debug_assert!(!self.env.eof, "nothing parks after eof");
            self.stats.pg_nodes += 1;
            let total = front.park(node, self.stats.pg_nodes);
            sink.record(self.machine, StepRecord::park(depth, total));
            return Ok(());
        }

        // Generate this node's transition list directly on its snapshot
        // (Generate never writes the state), unless it kept one.
        let kept = node.pending.take();
        let (tried, blocked) = (&node.tried, &node.blocked);
        let st = &mut node.state;
        let keep = |t| !tried.contains(t) && !blocked.contains(t);
        if !self
            .generate(sink, st, depth, kept, keep)
            .map_err(Halt::Fatal)?
        {
            self.spares.keep(node);
            return Ok(());
        }
        let is_pg = self.gen.incomplete;
        // Fanout as the search sees it: candidates not yet explored from
        // this node (a re-generate only offers what new input enabled).
        let untried = self.gen.fireable.len();

        if untried == 0 {
            if is_pg || !node.blocked.is_empty() {
                debug_assert!(!self.env.eof, "nothing parks after eof");
                if front.pg_len() >= limits.max_pg_nodes {
                    front.push(node);
                    return Err(Halt::Stop(InconclusiveReason::PgNodeLimit));
                }
                // Its list is empty; a revival that clears blocked
                // transitions drops it.
                node.pending = Some(Pending {
                    fireable: Vec::new(),
                    next: 0,
                    incomplete: is_pg,
                });
                self.stats.pg_nodes += 1;
                let total = front.park(node, self.stats.pg_nodes);
                sink.record(self.machine, StepRecord::park(depth, total));
            } else {
                self.spares.keep(node);
            }
            return Ok(());
        }

        // The first candidate, fired by reference; the list is the
        // lane's scratch and goes back to it.
        let candidates = std::mem::take(&mut self.gen.fireable);
        let f = &candidates[0];
        let trans = f.trans;
        node.tried.insert(trans);
        let mut child_state = self.spares.state(&node.state);
        let before = self.env.outstanding();
        let fired = self.fire(sink, &mut child_state, f, depth);
        self.gen.fireable = candidates;
        let fired = fired.map_err(Halt::Fatal)?;
        if !fired && self.env.last_reject == Some(RejectReason::MayGrow) {
            // The failure was "output not in the trace *yet*": park it
            // as blocked and retry once data arrives.
            node.tried.remove(trans);
            node.blocked.insert(trans);
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
            self.spares.keep_state(child_state);
            if has_more {
                self.keep_candidates(&mut node, is_pg);
                front.push(node);
            } else {
                self.spares.keep(node);
            }
            return Ok(());
        }
        self.stats.saves += 1;
        let child = Node::new(
            child_state,
            self.spares.cursors(&self.env.cursors),
            child_barren,
            node.path.push(trans as u32),
        );
        let bytes = child.charged();
        let parent = if has_more {
            self.keep_candidates(&mut node, is_pg);
            Some(node)
        } else {
            self.spares.keep(node);
            None
        };
        // Parent first, child last: the next pop is the child — the
        // depth-first order, which keeps the frontier (and the resident
        // set) small.
        let resident = front.push_child(parent, child);
        sink.record(self.machine, StepRecord::save(depth + 1, bytes, resident));
        Ok(())
    }

    /// Move the scratch list, this expansion's candidates, into the node
    /// that goes back on the front; the fired one is filtered out at its
    /// next pop, by `tried` or `blocked`. The scratch becomes a spare.
    fn keep_candidates(&mut self, node: &mut Node, incomplete: bool) {
        let fireable = std::mem::replace(&mut self.gen.fireable, self.spares.list());
        node.pending = Some(Pending {
            fireable,
            next: 0,
            incomplete,
        });
    }

    /// The complete-trace rule on the live node, whose cursors are the
    /// lane's: Generate once (GE), save a node with the remaining
    /// candidates only when there are siblings (SA), and fire the first
    /// candidate in place. The saved node holds a trail mark in place of
    /// a state and is charged the live state's bytes. The node stays in
    /// `live`, so a step down the tree moves no node record.
    fn expand_live<F: Front, S: Sink>(
        &mut self,
        stack: &mut F,
        sink: &mut S,
        live: &mut Option<Node>,
    ) -> Result<(), Halt> {
        let node = live.as_mut().expect("a live node to expand");
        let depth = node.path.len();
        self.at = depth;
        self.note_best(&node.path);
        if self.env.all_done() {
            return Err(Halt::Witness(node.path.clone()));
        }
        if depth >= self.options.limits.max_depth {
            return Err(Halt::Stop(InconclusiveReason::DepthLimit));
        }
        let st = &mut node.state;
        if self.options.state_hashing && !self.visited.insert(fingerprint(st, &self.env.cursors)) {
            self.stats.hash_prunes += 1;
            sink.record(self.machine, StepRecord::prune(depth, PruneKind::Hash));
            self.die(live);
            return Ok(());
        }
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let generated = self
            .generate(sink, st, depth, None, |_| true)
            .map_err(Halt::Fatal)?;
        if !generated || self.gen.fireable.is_empty() {
            self.die(live);
            return Ok(());
        }
        if self.gen.fireable.len() == 1 {
            // The first candidate, fired by reference; the list is the
            // lane's scratch and goes back to it.
            let candidates = std::mem::take(&mut self.gen.fireable);
            let r = self.descend(sink, live, &candidates[0], depth);
            self.gen.fireable = candidates;
            return r;
        }
        self.stats.saves += 1;
        // The candidates go with the saved node; Generate refills a spare.
        let fireable = std::mem::replace(&mut self.gen.fireable, self.spares.list());
        let saved = Node {
            state_bytes: st.approx_bytes(),
            cursors: self.spares.cursors(&self.env.cursors),
            pending: Some(Pending {
                fireable,
                next: 1,
                incomplete: false,
            }),
            ..Node::live(marked(), node.barren, node.path.clone())
        };
        self.trail.mark();
        let bytes = saved.charged();
        let resident = stack.charge(bytes);
        stack.work().push(saved);
        sink.record(self.machine, StepRecord::save(depth, bytes, resident));
        let saved = stack.work().last().expect("the node just saved");
        let first = &saved.pending.as_ref().expect("its candidates").fireable[0];
        self.descend(sink, live, first, depth)
    }

    /// The complete-trace rule on the saved node on top of the stack: one
    /// restore (RE) per sibling. The node stays on the stack while
    /// siblings remain; the last sibling takes its place as the live
    /// node, and its trail mark goes.
    fn backtrack<F: Front, S: Sink>(
        &mut self,
        stack: &mut F,
        sink: &mut S,
        live: &mut Option<Node>,
    ) -> Result<(), Halt> {
        self.stats.restores += 1;
        sink.record(self.machine, StepRecord::restore(self.at));
        let top = stack.work().last_mut().expect("a saved node to restore");
        let depth = top.path.len();
        self.at = depth;
        self.env.restore(&top.cursors);
        let p = top
            .pending
            .as_mut()
            .expect("a saved node holds its candidates");
        let i = p.next as usize;
        p.next += 1;
        if i + 1 < p.fireable.len() {
            let state = self.restored(&top.state);
            *live = Some(Node::live(state, top.barren, top.path.clone()));
            return self.descend(sink, live, &p.fireable[i], depth);
        }
        let mut node = stack.work().pop().expect("the top node");
        stack.uncharge(node.charged());
        let pending = node.pending.take().expect("a saved node holds its candidates");
        node.state = self.restored(&node.state);
        // Its mark goes, when it holds one.
        self.trail.pop_mark();
        // The live node's cursors are the lane's.
        self.spares.keep_cursors(std::mem::take(&mut node.cursors));
        *live = Some(node);
        let r = self.descend(sink, live, &pending.fireable[i], depth);
        self.spares.keep_list(pending.fireable);
        r
    }

    /// The state of the saved node on top of the stack, made from the
    /// dead live state: the trail undone to its mark or, for a node a
    /// checkpoint thawed (`saved` is then its full state), a copy.
    fn restored(&mut self, saved: &MachineState) -> MachineState {
        let dead = self.dead.take();
        if self.trail.is_marked() {
            let mut state = dead.expect("the live state died before its restore");
            self.trail.undo(&mut state);
            return state;
        }
        match dead {
            Some(mut state) => {
                state.clone_from(saved);
                state
            }
            None => saved.clone(),
        }
    }

    /// The live node dies: its state waits for the next restore.
    fn die(&mut self, live: &mut Option<Node>) {
        if let Some(node) = live.take() {
            self.dead = Some(node.state);
        }
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
        let fired = self.fire(sink, &mut node.state, f, depth).map_err(Halt::Fatal)?;
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
            self.die(live);
            return Ok(());
        }
        node.path.extend(f.trans as u32);
        Ok(())
    }
}

/// The one-worker loop: step until the work stack drains or a step halts
/// the search.
///
/// With `live` it runs the complete-trace rule, the paper's §2.2 DFS:
/// each iteration is governed, then expands the live node or, when there
/// is none, backtracks to the saved node on top of the stack. Only saved
/// nodes are charged, and a stop leaves the live node in `live`. Without
/// `live` it runs the on-line rule, for `workers = 1`, for the replay of
/// an aborted burst, and for each burst segment on a private stack.
fn drain<F: Front, S: Sink>(
    lane: &mut Lane<'_>,
    front: &mut F,
    sink: &mut S,
    mut live: Option<&mut Option<Node>>,
) -> Halt {
    let cap = lane.options.limits.max_transitions;
    loop {
        front.tick(&mut lane.stats);
        let step = match live.as_deref_mut() {
            None => {
                let Some(node) = front.pop() else {
                    return Halt::Drained;
                };
                sink.tick(&lane.stats, cap);
                lane.step(front, sink, node)
            }
            Some(live) => {
                sink.tick(&lane.stats, cap);
                if let Err(h) = lane.govern(front, 0) {
                    return h;
                }
                if live.is_some() {
                    lane.expand_live(front, sink, live)
                } else if front.work().is_empty() {
                    return Halt::Drained;
                } else {
                    lane.backtrack(front, sink, live)
                }
            }
        };
        if let Err(h) = step {
            return h;
        }
    }
}

/// What the workers of a burst share under one lock: the inputs not yet
/// claimed, in work-stack order, the donated stacks no one has taken,
/// with their segment ids, the count of workers holding work, and why
/// the burst stopped early.
#[derive(Default)]
struct Pool {
    inputs: Vec<Node>,
    /// Inputs claimed so far: the sequential position of the next claim.
    claimed: usize,
    stacks: Vec<(u32, Vec<Node>)>,
    busy: usize,
    /// The next donation's segment id; claims take the ids below the
    /// input count.
    next_id: u32,
    /// The first cause wins, except that a fatal error outranks every
    /// other.
    stop: Option<Halt>,
}

/// Shared state of one burst (`workers = N ≥ 2`), whose N threads
/// search the known tree in **ordered segments**: contiguous runs of the
/// one-worker pop order, each searched by one worker as a plain [`drain`]
/// of a private stack. A dry worker claims the next run of inputs, which
/// starts a segment whose id is its first input's position; when none is
/// left it waits for a donation. Between two steps, a busy worker with a
/// waiting peer hands over the bottom half of its stack: the plain drain
/// would pop everything above those nodes, children included, first, so
/// they are the tail of the donor's segment, and the new segment comes
/// right after the donor's current one, ahead of the segments earlier
/// donations split off it. [`merge`] concatenates the segments' parks,
/// spec errors and best attempts in that order: the one-worker order.
///
/// A step writes nothing another worker writes: each worker keeps its
/// counters, parks and byte delta to itself and folds them into its own
/// [`Slot`] every [`FOLD`] steps, at every segment end and before each
/// donation. Readers add the slots up.
#[derive(Default)]
struct Burst {
    workers: usize,
    pool: Mutex<Pool>,
    /// After eof the inputs stay in place and workers search copies, so
    /// a witness or limit replay can restart from them untouched.
    keep_inputs: bool,
    /// Wakes a waiting worker when a donation arrives or the burst ends.
    ready: Condvar,
    /// Workers waiting for a donation, and donations not yet taken: a
    /// busy worker donates while the first exceeds the second. Both
    /// change under the pool lock only; donors read them without it.
    hungry: AtomicUsize,
    offered: AtomicUsize,
    stopped: AtomicBool,
    /// Set by the first worker near a cap: from then on every worker
    /// folds on every step.
    near: AtomicBool,
    /// The TE, PG count and byte gauge the burst started from; the slots
    /// count on from them.
    te_start: u64,
    pg_start: u64,
    gauge: Gauge,
    slots: Vec<Slot>,
    /// Emptied record batches, for the workers' next flushes.
    spare: Mutex<Vec<Vec<StepRecord>>>,
}

/// One burst worker's tally as of its last fold: its TE/GE/RE/SA, its
/// deepest node, and the PG parks and net bytes it charged this burst,
/// with the highest gauge it has seen. Only its worker writes it, with
/// plain stores; readers add the slots up ([`Burst::tally`]). A slot has
/// 128 bytes to itself, so a fold invalidates no other worker's cache
/// line, nor the line an adjacent-line prefetch pairs with it.
#[derive(Default)]
#[repr(align(128))]
struct Slot {
    counters: [AtomicU64; 4],
    depth: AtomicUsize,
    parks: AtomicU64,
    bytes: AtomicIsize,
    peak: AtomicUsize,
    /// The worker is on the stride, so the slot may lag it by up to
    /// [`FOLD`] steps; clear while it is idle, gone, or near a cap.
    loose: AtomicBool,
}

/// Slots added up: the counters, parks and bytes summed, the depth and
/// the peak the highest.
#[derive(Clone, Copy, Default)]
struct Tally {
    counters: [u64; 4],
    depth: usize,
    parks: u64,
    bytes: isize,
    peak: usize,
}

impl Burst {
    /// A burst over `inputs`, in work-stack order.
    fn new(workers: usize, inputs: Vec<Node>, keep: bool, stats: &SearchStats, g: &Gauge) -> Self {
        let (next_id, busy) = (inputs.len() as u32, workers);
        Burst {
            workers,
            pool: Mutex::new(Pool { inputs, next_id, busy, ..Pool::default() }),
            keep_inputs: keep,
            te_start: stats.transitions_executed,
            pg_start: stats.pg_nodes,
            gauge: *g,
            slots: (0..workers).map(|_| Slot::default()).collect(),
            ..Burst::default()
        }
    }

    /// The slots added up, leaving out `skip`'s (a worker's own).
    fn tally(&self, skip: Option<usize>) -> Tally {
        let mut t = Tally::default();
        for (i, s) in self.slots.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            for (sum, c) in t.counters.iter_mut().zip(&s.counters) {
                *sum += c.load(Ordering::Relaxed);
            }
            t.depth = t.depth.max(s.depth.load(Ordering::Relaxed));
            t.parks += s.parks.load(Ordering::Relaxed);
            t.bytes += s.bytes.load(Ordering::Relaxed);
            t.peak = t.peak.max(s.peak.load(Ordering::Relaxed));
        }
        t
    }

    /// The gauge, `bytes` net charged since the burst started.
    fn resident(&self, bytes: isize) -> usize {
        (self.gauge.resident as isize + bytes).max(0) as usize
    }

    /// A batch for a worker's next records: a spare, or a new one.
    fn batch(&self) -> Vec<StepRecord> {
        let spare = self.spare.lock().expect("spare lock").pop();
        spare.unwrap_or_else(|| Vec::with_capacity(EVENT_FLUSH))
    }

    /// Keep an emptied batch for a later flush: up to two per worker and
    /// two more, as many as a burst has in flight.
    fn give_back(&self, mut batch: Vec<StepRecord>) {
        let mut spare = self.spare.lock().expect("spare lock");
        if batch.capacity() > 0 && spare.len() < 2 * self.workers + 2 {
            batch.clear();
            spare.push(batch);
        }
    }

    /// The next segment for a dry worker, onto its empty `work` stack: a
    /// claim of the next inputs in sequential order (a `1/(4N)` share of
    /// what is left, at least one), else a donation, which it waits for.
    /// `None` once the burst has stopped, or every worker is dry.
    fn next_segment(
        &self,
        work: &mut Vec<Node>,
        stats: &mut SearchStats,
        clock: &mut Clock,
    ) -> Option<u32> {
        let mut pool = self.pool.lock().expect("pool lock");
        let left = pool.inputs.len() - if self.keep_inputs { pool.claimed } else { 0 };
        if left > 0 && !self.stopped.load(Ordering::Acquire) {
            let run = (left / (4 * self.workers)).max(1);
            let id = pool.claimed as u32;
            pool.claimed += run;
            if self.keep_inputs {
                work.extend_from_slice(&pool.inputs[left - run..left]);
            } else {
                work.extend(pool.inputs.drain(left - run..));
            }
            return Some(id);
        }
        let t_idle = Instant::now();
        pool.busy -= 1;
        self.hungry.fetch_add(1, Ordering::Relaxed);
        let segment = loop {
            if self.stopped.load(Ordering::Acquire) {
                break None;
            }
            if let Some((id, donated)) = pool.stacks.pop() {
                pool.busy += 1;
                self.offered.fetch_sub(1, Ordering::Relaxed);
                stats.steals += 1;
                *work = donated;
                break Some(id);
            }
            if pool.busy == 0 {
                self.ready.notify_all();
                break None;
            }
            stats.steal_failures += 1;
            pool = self.ready.wait_timeout(pool, IDLE_PARK).expect("pool lock").0;
        };
        self.hungry.fetch_sub(1, Ordering::Relaxed);
        clock.idle += t_idle.elapsed();
        segment
    }

    fn set_stop(&self, cause: Halt) {
        let mut pool = self.pool.lock().expect("pool lock");
        if pool.stop.is_none() || matches!(cause, Halt::Fatal(_)) {
            pool.stop = Some(cause);
        }
        self.stopped.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// A burst worker's front: its current segment's private stack, parks
/// and the segments donated off it, in donation order; the worker's
/// time spent donating; and its tally, which it folds into its slot.
/// Its views of the burst's totals (TE, PG count, gauge) add the peers'
/// slots, as it read them at its last fold, to its own tally.
struct Private<'b> {
    sh: &'b Burst,
    /// This worker's slot.
    me: usize,
    limits: &'b SearchLimits,
    work: Vec<Node>,
    parks: Vec<Node>,
    donated: Vec<u32>,
    steal: Duration,
    /// The peers' slots, added up at the last fold.
    peers: Tally,
    /// PG parks and net bytes charged this burst.
    parked: u64,
    bytes: isize,
    /// The highest gauge this worker has seen, and its largest charge:
    /// what one step can add to the gauge, as far as it knows.
    high: usize,
    unit: usize,
    /// Steps since the last fold, and whether it folds on every step.
    steps: u64,
    near: bool,
}

impl<'b> Private<'b> {
    fn new(sh: &'b Burst, me: usize, limits: &'b SearchLimits) -> Self {
        Private {
            sh,
            me,
            limits,
            work: Vec::new(),
            parks: Vec::new(),
            donated: Vec::new(),
            steal: Duration::ZERO,
            peers: Tally::default(),
            parked: 0,
            bytes: 0,
            high: 0,
            unit: 0,
            steps: 0,
            near: false,
        }
    }

    /// Write the tally to the worker's slot, with plain stores and no
    /// read-modify-write, and read the peers' slots.
    fn fold(&mut self, stats: &SearchStats) {
        let slot = &self.sh.slots[self.me];
        for (c, v) in slot.counters.iter().zip(stats.counters()) {
            c.store(v, Ordering::Relaxed);
        }
        slot.depth.store(stats.max_depth, Ordering::Relaxed);
        slot.parks.store(self.parked, Ordering::Relaxed);
        slot.bytes.store(self.bytes, Ordering::Relaxed);
        slot.peak.store(self.high, Ordering::Relaxed);
        self.peers = self.sh.tally(Some(self.me));
        self.steps = 0;
    }

    /// Start a segment: on the stride, the slot lags from now on, unless
    /// this worker or a peer is near a cap. (Marking the slot before
    /// reading the flag, while [`Private::go_near`] sets the flag before
    /// reading the marks, means one of the two sees the other.)
    fn begin(&mut self, stats: &SearchStats) {
        let sh = self.sh;
        if !self.near {
            sh.slots[self.me].loose.store(true, Ordering::SeqCst);
            self.peers = sh.tally(Some(self.me));
            if sh.near.load(Ordering::SeqCst) || self.near_cap(stats) {
                self.go_near(stats);
            }
        }
    }

    /// End a segment, or leave the stride: fold, and mark the slot
    /// current. Clearing the mark releases the fold to a peer waiting in
    /// [`Private::go_near`], whose load of the mark acquires it.
    fn settle(&mut self, stats: &SearchStats) {
        self.fold(stats);
        self.sh.slots[self.me].loose.store(false, Ordering::SeqCst);
    }

    /// Fold on every step from now on, have every peer do the same, and
    /// wait for those still on the stride to fold: from then on each cap
    /// is checked against totals that miss only the peers' steps in
    /// flight. A peer on the stride steps on, or goes idle, or the burst
    /// stops, so the wait ends.
    fn go_near(&mut self, stats: &SearchStats) {
        let sh = self.sh;
        self.near = true;
        sh.near.store(true, Ordering::SeqCst);
        self.settle(stats);
        for (i, slot) in sh.slots.iter().enumerate() {
            while i != self.me
                && slot.loose.load(Ordering::SeqCst)
                && !sh.stopped.load(Ordering::Acquire)
            {
                std::thread::yield_now();
            }
        }
        self.peers = sh.tally(Some(self.me));
    }

    /// Whether this worker's view, fresh at a fold, is within
    /// `2N·FOLD` steps' worth of a cap. Each peer may have up to `FOLD`
    /// steps unfolded, and may fold another `FOLD` before this worker
    /// looks again; a step adds at most one transition, one park and one
    /// node's charge to the totals.
    fn near_cap(&self, stats: &SearchStats) -> bool {
        let (l, reach) = (self.limits, 2 * self.sh.workers as u64 * FOLD);
        let bytes = reach as usize * self.unit;
        self.te(stats).saturating_add(reach) > l.max_transitions
            || self.pg_len() as u64 + reach >= l.max_pg_nodes as u64
            || l.max_state_bytes
                .is_some_and(|cap| self.resident() + bytes > cap)
    }
}

impl Front for Private<'_> {
    /// Fold when due, and look for a cap then; then, while a peer waits,
    /// fold and hand it the bottom half of the stack as a new segment.
    fn tick(&mut self, stats: &mut SearchStats) {
        let sh = self.sh;
        self.steps += 1;
        if self.near {
            self.fold(stats);
        } else if sh.near.load(Ordering::Relaxed) {
            self.go_near(stats);
        } else if self.steps >= FOLD {
            self.fold(stats);
            if self.near_cap(stats) {
                self.go_near(stats);
            }
        }
        let hungry = || sh.hungry.load(Ordering::Relaxed) > sh.offered.load(Ordering::Relaxed);
        if self.work.len() >= 2 && hungry() {
            let t0 = Instant::now();
            let mut pool = sh.pool.lock().expect("pool lock");
            if hungry() {
                self.fold(stats);
                let (id, top) = (pool.next_id, self.work.split_off(self.work.len() / 2));
                pool.stacks
                    .push((id, std::mem::replace(&mut self.work, top)));
                pool.next_id += 1;
                self.donated.push(id);
                sh.offered.fetch_add(1, Ordering::Relaxed);
                sh.ready.notify_one();
            }
            drop(pool);
            self.steal += t0.elapsed();
        }
    }

    fn te(&self, local: &SearchStats) -> u64 {
        self.sh.te_start + self.peers.counters[0] + local.transitions_executed
    }

    fn resident(&self) -> usize {
        self.sh.resident(self.peers.bytes + self.bytes)
    }

    fn charge(&mut self, bytes: usize) -> usize {
        self.bytes += bytes as isize;
        self.unit = self.unit.max(bytes);
        let now = self.resident();
        self.high = self.high.max(now);
        now
    }

    fn uncharge(&mut self, bytes: usize) {
        self.bytes -= bytes as isize;
    }

    fn work(&mut self) -> &mut Vec<Node> {
        &mut self.work
    }

    /// Stop when the burst has.
    fn pop(&mut self) -> Option<Node> {
        if self.sh.stopped.load(Ordering::Acquire) {
            return None;
        }
        self.work.pop()
    }

    fn pg_len(&self) -> usize {
        (self.peers.parks + self.parked) as usize
    }

    fn park(&mut self, node: Node, pg_nodes: u64) -> u64 {
        self.charge(node.charged());
        self.parks.push(node);
        self.parked = pg_nodes;
        self.sh.pg_start + self.peers.parks + pg_nodes
    }
}

/// What one segment leaves for the barrier: its parks, its spec errors,
/// its best attempt (the one carried into the burst, unless it explained
/// more), and the segments donated off it.
struct Segment {
    parks: Vec<Node>,
    errors: Vec<RuntimeError>,
    best: Best,
    donated: Vec<u32>,
}

/// What one worker brings back from a burst: its counter delta (its
/// bytes are in its slot), its segments by id, and its wall-clock split.
struct WorkerOut {
    delta: SearchStats,
    segments: Vec<(u32, Segment)>,
    clock: Clock,
}

/// One worker's burst loop: take the next segment and [`drain`] it,
/// until the burst is over or a step halts it. What a stop leaves on its
/// private stack is dropped: before eof no front is kept, and after eof
/// the burst is replayed by one worker.
fn burst_worker<S: Sink>(mut lane: Lane<'_>, sh: &Burst, me: usize, sink: &mut S) -> WorkerOut {
    let carried = lane.best.clone();
    let options = lane.options;
    let mut front = Private::new(sh, me, &options.limits);
    let (mut segments, mut clock, t_loop) = (Vec::new(), Clock::default(), Instant::now());
    while let Some(id) = sh.next_segment(&mut front.work, &mut lane.stats, &mut clock) {
        front.begin(&lane.stats);
        let halt = drain(&mut lane, &mut front, sink, None);
        front.settle(&lane.stats);
        let segment = Segment {
            parks: std::mem::take(&mut front.parks),
            errors: std::mem::take(&mut lane.spec_errors),
            best: std::mem::replace(&mut lane.best, carried.clone()),
            donated: std::mem::take(&mut front.donated),
        };
        segments.push((id, segment));
        if !matches!(halt, Halt::Drained) {
            sh.set_stop(halt);
            break;
        }
    }
    clock.steal = front.steal;
    clock.busy = t_loop.elapsed().saturating_sub(clock.idle + clock.steal);
    WorkerOut {
        delta: lane.stats,
        segments,
        clock,
    }
}

/// The barrier of an exhausted or stopped burst: absorb the workers'
/// counter deltas and the gauge their slots add up to, and concatenate
/// the segments' parks, spec errors and best attempts in segment order —
/// the claims by first input, each followed by the segments donated off
/// it, the latest first, recursively. The work stack is left empty: an
/// exhausted burst has no front, and a stopped one is not resumed.
fn merge(lane: &mut Lane<'_>, stack: &mut Stack, sh: Burst, outs: Vec<WorkerOut>) {
    let all = sh.tally(None);
    let resident = sh.resident(all.bytes);
    stack.gauge = Gauge {
        resident,
        peak: sh.gauge.peak.max(all.peak).max(resident),
    };
    let deltas = outs.iter().map(|o| o.delta.counters());
    let summed = deltas.fold([0; 4], |a, d| std::array::from_fn(|i| a[i] + d[i]));
    debug_assert_eq!(summed, all.counters, "every worker folds its last step");
    let mut pool = sh.pool.into_inner().expect("pool lock");
    // The work stack gets back the buffer the burst took from it.
    pool.inputs.clear();
    stack.work = pool.inputs;
    let parks = outs.iter().flat_map(|o| &o.segments).map(|(_, s)| s.parks.len());
    stack.pg.reserve_exact(parks.sum());
    let mut segments = HashMap::new();
    for o in outs {
        lane.stats.absorb(&o.delta);
        segments.extend(o.segments);
    }
    // Segments still to merge, the next on top.
    let mut todo: Vec<u32> = (0..pool.claimed as u32).rev().collect();
    while let Some(id) = todo.pop() {
        let Some(mut seg) = segments.remove(&id) else {
            continue;
        };
        todo.extend_from_slice(&seg.donated);
        stack.pg.append(&mut seg.parks);
        lane.spec_errors.append(&mut seg.errors);
        if seg.best.explained > lane.best.explained {
            lane.best = seg.best;
        }
    }
    lane.spec_errors.truncate(MAX_RECORDED_ERRORS);
}

/// Pulse the live views mid-burst: the cumulative stats the burst
/// started from, plus the workers' slots.
fn tick_par(tel: &mut Telemetry, base: &SearchStats, sh: &Burst, cap: u64) {
    let all = sh.tally(None);
    let mut s = base.clone();
    let start = base.counters();
    [s.transitions_executed, s.generates, s.restores, s.saves] =
        std::array::from_fn(|i| start[i] + all.counters[i]);
    s.max_depth = s.max_depth.max(all.depth);
    s.pg_nodes += all.parks;
    s.snapshot_bytes = sh.resident(all.bytes);
    tel.pulse(&s, cap);
}

/// One burst (`workers = N ≥ 2`): the trace is frozen while N scoped
/// threads search the work stack in ordered segments ([`Burst`]). On
/// return the burst's parks are on the PG-list in sequential park order
/// and the work stack is empty. After eof, a witness or a limit stop
/// hands the burst to the one-worker drain instead, so that a stop
/// leaves the one-worker front. `spare` holds emptied record batches
/// from one burst to the next.
fn burst(
    lane: &mut Lane<'_>,
    stack: &mut Stack,
    module: &AnalyzedModule,
    tel: &mut Telemetry,
    clocks: &mut [Clock],
    spare: &mut Vec<Vec<StepRecord>>,
) -> Result<Halt, TangoError> {
    let n_workers = clocks.len();
    let cap = lane.options.limits.max_transitions;
    let inputs = std::mem::take(&mut stack.work);
    // The burst parks elsewhere: do not hold the revived PG-list's empty
    // buffer through it.
    stack.pg.shrink_to_fit();
    // A post-eof burst may find a witness: keep its inputs, and the
    // counters they start from, for the replay.
    let keep = lane.env.eof;
    let base = keep.then(|| (lane.stats.clone(), lane.spec_errors.clone()));
    let sh = Burst {
        spare: Mutex::new(std::mem::take(spare)),
        ..Burst::new(n_workers, inputs, keep, &lane.stats, &stack.gauge)
    };
    // Workers send record batches (when telemetry is on) and hang up on
    // exit; the last hang-up ends the coordinator's wait at once. A
    // post-eof burst may be redone by one worker, so its records reach
    // the handle only at the barrier, and only if it is not.
    let (tx, rx) = mpsc::channel();
    let mut held: Vec<(u16, Vec<StepRecord>)> = Vec::new();
    let machine = lane.machine;
    let (on, timed) = (tel.hot(), tel.timer().is_some());
    let mut lanes = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        let mut env = TraceEnv::new(module, lane.env.trace.clone(), lane.options)?;
        env.eof = lane.env.eof;
        lanes.push((lane.fork(env), tx.clone()));
    }
    drop(tx);

    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let shr = &sh;
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(i, (wl, tx))| {
                s.spawn(move || {
                    // Spec-level panics are contained per step (`guard`).
                    // An infrastructure panic flags the stop, so no worker
                    // waits for it, and the coordinator's join re-raises it.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut sink = Buffered {
                            sh: shr,
                            tx,
                            worker: i as u16,
                            buf: if on { shr.batch() } else { Vec::new() },
                            on,
                            timed,
                        };
                        let out = burst_worker(wl, shr, i, &mut sink);
                        sink.close();
                        out
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
                Ok((w, mut batch)) => {
                    batch.drain(..).for_each(|r| tel.record(machine, w, r));
                    shr.give_back(batch);
                }
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
    let stop = sh.pool.lock().expect("pool lock").stop.take();
    if keep && matches!(stop, Some(Halt::Witness(_) | Halt::Stop(_))) {
        // After eof, a witness or a limit stop hands the burst to one
        // worker: parallel workers may have searched past the first
        // witness, and a resume must not start from a front they left.
        // Discard their deltas, records and front, keep the clocks, and
        // replay the untouched inputs: the witness, or stop point and
        // front, and the records are exactly the one-worker run's.
        drop(outs);
        held.into_iter().for_each(|(_, batch)| sh.give_back(batch));
        *spare = std::mem::take(&mut *sh.spare.lock().expect("spare lock"));
        let (stats, errors) = base.expect("inputs are kept after eof");
        lane.stats = stats;
        lane.spec_errors = errors;
        stack.work = sh.pool.into_inner().expect("pool lock").inputs;
        stack.gauge.resident = stack.work.iter().map(Node::charged).sum();
        return Ok(drain(lane, stack, tel, None));
    }
    for (w, mut batch) in held {
        batch.drain(..).for_each(|r| tel.record(machine, w, r));
        sh.give_back(batch);
    }
    *spare = std::mem::take(&mut *sh.spare.lock().expect("spare lock"));
    merge(lane, stack, sh, outs);
    Ok(stop.unwrap_or(Halt::Drained))
}

/// Absorb one poll of the source into the trace: append its events, note
/// its eof, and when it brought either, revive the PG-nodes (dynamic node
/// reordering: they jump the queue). Returns whether it brought either.
fn absorb(
    poll: Poll,
    env: &mut TraceEnv,
    stack: &mut Stack,
    module: &AnalyzedModule,
) -> Result<bool, TangoError> {
    let news = !poll.events.is_empty() || poll.eof;
    if !news {
        return Ok(false);
    }
    let was: Vec<usize> = env.trace.inputs.iter().map(Vec::len).collect();
    for e in &poll.events {
        env.trace
            .push_event(e, module)
            .map_err(TangoError::TraceResolve)?;
    }
    env.eof |= poll.eof;
    stack.revive(&env.trace, &was, env.eof);
    Ok(true)
}

/// The on-line idle wait: call `input` until it reports input (`true`),
/// sleeping through `sleep` 1 ms after the first silent poll, doubling
/// to 16 ms while the source stays silent. Each wait starts again at
/// 1 ms, so a busy feed is picked up within a millisecond while a
/// long-idle monitor stops burning CPU. No sleep ends past `deadline`,
/// so the expiry check stays exact to within scheduler latency; returns
/// `false` once the deadline has passed.
fn idle_wait(
    deadline: Option<Instant>,
    input: &mut dyn FnMut() -> Result<bool, TangoError>,
    sleep: &mut dyn FnMut(Duration),
) -> Result<bool, TangoError> {
    let mut nap = Duration::from_millis(1);
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(false);
        }
        if input()? {
            return Ok(true);
        }
        sleep(deadline.map_or(nap, |d| {
            nap.min(d.saturating_duration_since(Instant::now()))
        }));
        nap = (nap * 2).min(Duration::from_millis(16));
    }
}

/// One run of the engine, fresh or resumed. Over a trace that was
/// complete when the analysis started, the complete-trace rule descends
/// on one worker and no source is polled. Otherwise the on-line rule runs
/// at any worker count: poll, revive, search the known tree (one drain,
/// or bursts), then conclude, report an interim verdict, or wait for
/// input. Only a fresh on-line run reports interim verdicts: the others
/// start at end-of-file. An on-line run refuses state hashing: with two
/// or more workers the visited set would make the counters depend on
/// the schedule.
pub(crate) fn run(
    machine: &Machine,
    module: &AnalyzedModule,
    start: Start<'_>,
    options: &AnalysisOptions,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, TangoError> {
    let t0 = Instant::now();
    // A static or resumed run never waits for input: its source is an
    // empty trace at end-of-file. Every checkpoint was frozen after eof.
    let online = matches!(start, Start::Online(..));
    let mut at_eof = StaticSource::new(Trace::new(Vec::new()));
    let no_source: &mut dyn TraceSource = &mut at_eof;
    let go_on: &mut dyn FnMut(&Verdict) -> bool = &mut |_| true;
    let fresh = SearchStats::default;
    let (complete, source, on_status, trace, stats, init, front) = match start {
        Start::Online(s, on_status) => {
            let empty = ResolvedTrace::empty(module.ips.len());
            (false, s, on_status, empty, fresh(), None, None)
        }
        Start::Static(t, init) => (true, no_source, go_on, t, fresh(), init, None),
        Start::Resume(c) => {
            let complete = c.search.complete;
            (complete, no_source, go_on, c.trace, c.stats, None, Some(c.search))
        }
    };
    tel.begin(if complete { "dfs" } else { "mdfs" }, &module.module_name);
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
    // A deadline the clock cannot represent is no deadline.
    let deadline = options.limits.max_wall_time.and_then(|d| t0.checked_add(d));
    let cap = options.limits.max_transitions;
    let machine = machine.policy_view(options.policy);
    if n_workers > 1 {
        tel.set_workers(n_workers);
    }
    let base_wall = stats.wall_time;
    let mut env = TraceEnv::new(module, trace, options)?;
    env.eof = !online;
    // Per-worker clocks feed the on-line engine's busy/idle gauges; the
    // complete-trace rule reports none.
    let mut clocks = vec![Clock::default(); if complete { 0 } else { n_workers }];
    let mut spare = Vec::new();

    let mut stack = Stack {
        gauge: Gauge {
            peak: stats.peak_snapshot_bytes,
            ..Gauge::default()
        },
        ..Stack::default()
    };
    let mut lane = Lane {
        stats,
        ..Lane::new(&machine, options, deadline, env)
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
            for n in work {
                stack.push(n);
            }
        }
    }

    let mut last_status: Option<Verdict> = None;
    let (verdict, witness, checkpoint) = loop {
        if !complete {
            absorb(source.poll(), &mut lane.env, &mut stack, module)?;
        }

        // Search the known tree until it drains.
        let halt = if n_workers == 1 {
            let live = complete.then_some(&mut live);
            drain(&mut lane, &mut stack, tel, live)
        } else if !stack.work.is_empty() {
            burst(&mut lane, &mut stack, module, tel, &mut clocks, &mut spare)?
        } else {
            Halt::Drained
        };
        match halt {
            Halt::Drained => {}
            Halt::Witness(path) => break (Verdict::Valid, Some(path.to_vec(&machine)), None),
            Halt::Stop(reason) => {
                let ckpt = lane
                    .env
                    .eof
                    .then(|| freeze(&mut stack, &mut live, &mut lane, complete, n_workers));
                break (Verdict::Inconclusive(reason), None, ckpt);
            }
            Halt::Fatal(e) => return Err(TangoError::Runtime(e)),
        }

        // The tree (as currently known) is exhausted. EOF made the
        // PG-nodes fully generated at the poll that brought it, and
        // nothing parks after it.
        if lane.env.eof {
            debug_assert!(stack.pg.is_empty(), "nothing parks after eof");
            break (Verdict::Invalid, None, None);
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
        // deadline: a stalled source must not wedge the monitor. The
        // deadline passes before eof, so it leaves no checkpoint. Only
        // the one-worker lane counts the sleeps as its idle time;
        // between bursts there are no workers.
        let input = idle_wait(
            deadline,
            &mut || absorb(source.poll(), &mut lane.env, &mut stack, module),
            &mut |nap| {
                std::thread::sleep(nap);
                if n_workers == 1 {
                    clocks[0].idle += nap;
                }
            },
        )?;
        if !input {
            break (Verdict::Inconclusive(InconclusiveReason::TimeLimit), None, None);
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
    use crate::trace::format::parse_trace;
    use estelle_frontend::sema::model::StateId;

    /// Three ways to consume each `x`: every path explains the same
    /// events, so order alone decides the PG-list and the best attempt.
    const FAN: &str = "specification fan; channel C(env, m); by env: x; end; \
        module M process; ip P : C(m); end; body MB for M; state S; \
        initialize to S begin end; trans \
        from S to S when P.x name A: begin end; \
        from S to S when P.x name B: begin end; \
        from S to S when P.x name C: begin end; end; end.";

    /// A sink that plays `waiters` peers who start waiting at step `at`
    /// and never take a donation: from then on the worker donates
    /// whenever its stack holds two nodes, off donated segments too.
    struct Hunger<'b>(&'b Burst, u64, u64, usize);

    impl Sink for Hunger<'_> {
        fn tick(&mut self, _stats: &SearchStats, _cap: u64) {
            self.1 += 1;
            if self.1 == self.2 {
                self.0.hungry.fetch_add(self.3, Ordering::Relaxed);
            }
        }

        fn timer(&self) -> Option<Instant> {
            None
        }

        fn record(&mut self, _machine: &Machine, _rec: StepRecord) {}
    }

    /// A burst whose one worker is made to donate from a chosen step on,
    /// splitting its segments there, merges to exactly the one-worker
    /// drain's PG-list (node by node), best attempt, counters and gauge
    /// on the same inputs.
    #[test]
    fn segments_merge_in_the_one_worker_order() {
        let machine = Machine::from_source(FAN).unwrap();
        let module = &machine.module.analyzed;
        let options = AnalysisOptions::default();
        let events = parse_trace(&"in P.x\n".repeat(3), Some(module)).unwrap();
        let trace = ResolvedTrace::resolve(&events, module).unwrap();
        let lane = || {
            let mut env = TraceEnv::new(module, trace.clone(), &options).unwrap();
            env.eof = false;
            Lane::new(&machine, &options, None, env)
        };
        // Four inputs that differ in what they have already tried, each
        // the root of a tree whose 27 leaves park before eof.
        let root = Node::new(machine.initial_state().unwrap(), lane().env.save(), 0, Default::default());
        let inputs: Vec<Node> = [vec![], vec![0], vec![2], vec![0, 1]]
            .map(|tried| Node { tried: TransSet(tried), ..root.clone() })
            .into();
        let mut one = lane();
        let mut want = Stack::default();
        inputs.iter().cloned().for_each(|n| want.push(n));
        let gauge = want.gauge;
        assert!(matches!(drain(&mut one, &mut want, &mut Telemetry::off(), None), Halt::Drained));
        let order = |stack: &Stack, best: &Best| {
            let pg = stack.pg.iter().map(|n| (n.path.to_indices(), n.tried.0.clone()));
            (pg.collect::<Vec<_>>(), best.explained, best.path.to_indices(), stack.gauge.resident)
        };
        let want = order(&want, &one.best);
        assert_eq!(want.0.len(), 27 + 18 + 18 + 9);

        let mut donations = Vec::new();
        for (at, waiters) in (1..=one.stats.restores).flat_map(|s| [(s, 1), (s, 3)]) {
            let sh = Burst::new(1, inputs.clone(), false, &SearchStats::default(), &gauge);
            let out = burst_worker(lane(), &sh, 0, &mut Hunger(&sh, 0, at, waiters));
            donations.push(out.delta.steals);
            let (mut merged, mut front) = (lane(), Stack::default());
            merge(&mut merged, &mut front, sh, vec![out]);
            assert_eq!(order(&front, &merged.best), want, "{} from step {}", waiters, at);
            assert_eq!(merged.stats.counters(), one.stats.counters());
            assert!(front.work.is_empty(), "an exhausted burst leaves no front");
        }
        let split = donations.iter().filter(|&&d| d > 0).count();
        assert!(split * 2 > donations.len(), "most steps split a segment: {:?}", donations);
        assert!(donations.iter().any(|&d| d > 3), "{:?}", donations);
    }

    /// A sink that notes how far the burst's slots lag the worker's
    /// restores at any step.
    struct Lag<'b>(&'b Burst, u64);

    impl Sink for Lag<'_> {
        fn tick(&mut self, stats: &SearchStats, _cap: u64) {
            let folded = self.0.tally(None).counters[2];
            self.1 = self.1.max(stats.restores - folded);
        }

        fn timer(&self) -> Option<Instant> {
            None
        }

        fn record(&mut self, _machine: &Machine, _rec: StepRecord) {}
    }

    /// A burst whose worker folds its slot at the edges of the stride —
    /// runs of 1, `FOLD − 1`, `FOLD` and `FOLD + 1` steps — merges to
    /// the counters, gauge and peak that `drain` gives on the same
    /// inputs, and its slot never lags the worker by a stride.
    #[test]
    fn folds_at_the_stride_edges_merge_to_the_drain_totals() {
        let machine = Machine::from_source(FAN).unwrap();
        let module = &machine.module.analyzed;
        let options = AnalysisOptions::default();
        let events = parse_trace("in P.x\n", Some(module)).unwrap();
        let trace = ResolvedTrace::resolve(&events, module).unwrap();
        let lane = || {
            let mut env = TraceEnv::new(module, trace.clone(), &options).unwrap();
            env.eof = false;
            Lane::new(&machine, &options, None, env)
        };
        // A root fires A, B and C, and each child, having explained the
        // one event, parks in one step: a done node.
        let root = Node::new(
            machine.initial_state().unwrap(),
            lane().env.save(),
            0,
            Default::default(),
        );
        let (mut probe, mut once) = (lane(), Stack::default());
        once.push(root.clone());
        assert!(matches!(
            drain(&mut probe, &mut once, &mut Telemetry::off(), None),
            Halt::Drained
        ));
        let (per_root, done) = (probe.stats.restores, once.pg[0].clone());

        for steps in [1, FOLD - 1, FOLD, FOLD + 1] {
            let roots = std::iter::repeat_n(root.clone(), (steps / per_root) as usize);
            let dones = std::iter::repeat_n(done.clone(), (steps % per_root) as usize);
            let inputs: Vec<Node> = roots.chain(dones).collect();
            let (mut one, mut want) = (lane(), Stack::default());
            inputs.iter().cloned().for_each(|n| want.push(n));
            let gauge = want.gauge;
            assert!(matches!(
                drain(&mut one, &mut want, &mut Telemetry::off(), None),
                Halt::Drained
            ));
            assert_eq!(one.stats.restores, steps);

            let sh = Burst::new(1, inputs, false, &SearchStats::default(), &gauge);
            let mut lag = Lag(&sh, 0);
            let out = burst_worker(lane(), &sh, 0, &mut lag);
            assert!(
                lag.1 < FOLD,
                "{} steps: the slot lagged {} steps",
                steps,
                lag.1
            );
            let (mut merged, mut front) = (lane(), Stack::default());
            merge(&mut merged, &mut front, sh, vec![out]);
            assert_eq!(
                merged.stats.counters(),
                one.stats.counters(),
                "{} steps",
                steps
            );
            assert_eq!(merged.stats.pg_nodes, one.stats.pg_nodes, "{} steps", steps);
            assert_eq!(front.pg.len(), want.pg.len(), "{} steps", steps);
            let g = |s: &Stack| (s.gauge.resident, s.gauge.peak);
            assert_eq!(g(&front), g(&want), "{} steps: gauge and peak", steps);
        }
    }

    /// A stop freezes every node the complete-trace rule saved with the
    /// state and cursors its path reaches from the initial state: the
    /// trail, undone from the top of the stack down, rebuilds what a
    /// snapshot would have held. Checked by replaying each frozen path,
    /// at stops all over an invalid TP0 search that allocates and
    /// disposes buffer cells, under both executors.
    #[test]
    fn a_stop_freezes_each_saved_node_with_the_state_its_path_reaches() {
        let tp0 = Machine::from_source(include_str!("../../../../specs/tp0.est")).unwrap();
        let module = &tp0.module.analyzed;
        let text = "in U.tconreq\nout L.cr_req\nin L.cc_ind\nout U.tconconf\n\
            in U.tdatreq(0)\nin U.tdatreq(1)\nout L.dt_req(0)\nout L.dt_req(4)\n\
            in L.dt_ind(7)\nin L.dt_ind(8)\nout U.tdatind(7)\nout U.tdatind(8)\n\
            in U.tdisreq\nout L.dr_req\n";
        let trace = ResolvedTrace::resolve(&parse_trace(text, Some(module)).unwrap(), module).unwrap();
        let mut options = AnalysisOptions::with_order(crate::options::OrderOptions::none());
        for exec in [estelle_runtime::ExecMode::Compiled, estelle_runtime::ExecMode::Interp] {
            let machine = tp0.exec_view(exec);
            let mut saved = 0;
            for cap in (0..1044).step_by(7) {
                options.limits.max_transitions = cap;
                let start = Start::Static(trace.clone(), None);
                let r = run(&machine, module, start, &options, &mut Telemetry::off()).unwrap();
                let cp = r.checkpoint.expect("a static stop freezes its front");
                for node in cp.search.work.iter().filter(|n| n.pending.is_some()) {
                    let mut env = TraceEnv::new(module, trace.clone(), &options).unwrap();
                    let mut st = machine.initial_state().unwrap();
                    for &t in &node.path {
                        let g = machine.generate(&mut st, &env).unwrap();
                        let f = g.fireable.iter().find(|f| f.trans == t as usize).unwrap();
                        env.begin_fire();
                        let fired = machine.fire(&mut st, f, &mut env).unwrap();
                        assert_eq!(fired, FireOutcome::Completed);
                        assert!(env.end_fire());
                    }
                    assert!(st == node.state, "cap {}: depth {}", cap, node.path.len());
                    assert_eq!(env.cursors, node.cursors, "cap {}", cap);
                    saved += 1;
                }
            }
            assert!(saved > 500, "{} saved nodes checked", saved);
        }
    }

    /// DESIGN §6.13 states the node record's size. A lane's spares live
    /// beside its nodes, not in them.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_node_record_is_at_most_248_bytes() {
        let size = std::mem::size_of::<Node>();
        assert!(size <= 248, "Node is {} bytes", size);
    }

    #[test]
    fn a_node_freezes_and_thaws_with_its_path_and_sorted_set() {
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

        let mut online = node.clone();
        online.pending = Some(Pending {
            fireable: Vec::new(),
            next: 0,
            incomplete: true,
        });
        let frozen = node_to_ckpt(online, false);
        assert!(frozen.pending.is_none(), "an on-line list is not frozen");

        let frozen = node_to_ckpt(node, true);
        assert_eq!(frozen.path, [3, 1]);
        assert_eq!(frozen.tried, [2, 7], "freeze writes the set sorted");

        let thawed = node_from_ckpt(frozen);
        assert_eq!(thawed.path.len(), 2);
        assert_eq!(thawed.barren, 2);
        assert!(thawed.tried.contains(7) && !thawed.tried.contains(5));
        let again = node_to_ckpt(thawed, true);
        assert_eq!(again.path, [3, 1]);
        assert_eq!(again.tried, [2, 7]);
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

    #[test]
    fn the_idle_wait_sleeps_1_ms_doubling_to_16_and_never_past_the_deadline() {
        let ms = Duration::from_millis;
        // A source silent for 10,000 polls: 1, 2, 4, 8, 16, then 16 ms
        // for as long as the silence lasts, with no overflow.
        let (mut polls, mut slept) = (0, Vec::new());
        let input = idle_wait(
            None,
            &mut || {
                polls += 1;
                Ok(polls == 10_001)
            },
            &mut |d| slept.push(d),
        );
        assert!(input.unwrap());
        assert_eq!(slept[..6], [ms(1), ms(2), ms(4), ms(8), ms(16), ms(16)]);
        assert_eq!(slept.len(), 10_000);
        assert!(slept[5..].iter().all(|&d| d == ms(16)));

        // The next wait starts again at 1 ms.
        let mut slept = Vec::new();
        let mut silent = true;
        let input = idle_wait(
            None,
            &mut || Ok(!std::mem::replace(&mut silent, false)),
            &mut |d| slept.push(d),
        );
        assert!(input.unwrap());
        assert_eq!(slept, [ms(1)]);

        // On a silent source the sleeps add up to no more than the time
        // left to the deadline, and the wait ends there.
        let (t0, mut slept) = (Instant::now(), Vec::new());
        let input = idle_wait(Some(t0 + ms(20)), &mut || Ok(false), &mut |d| {
            slept.push(d);
            std::thread::sleep(d);
        });
        assert!(!input.unwrap());
        assert!(t0.elapsed() >= ms(20));
        assert!(slept.iter().sum::<Duration>() <= ms(20), "{:?}", slept);
    }
}
