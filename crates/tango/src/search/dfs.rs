//! Depth-first search trace analysis (static mode, §2.2).
//!
//! The classic backtracking loop over the machine's four operations:
//! generate, update, save, restore. Counter semantics follow the paper's
//! tables: one *generate* (GE) per node expansion, one *transition
//! executed* (TE) per fire attempt, a *save* (SA) only when a node has
//! more than one fireable transition (nothing to come back for otherwise),
//! and a *restore* (RE) per actual backtrack.
//!
//! Extensions beyond the paper:
//!
//! * a visited-state hash table (flagged off by default) pruning
//!   re-exploration of identical (machine state, cursor) pairs — the
//!   approach §4.2 suggests as future work for taming the exponential
//!   analysis of invalid TP0 traces;
//! * copy-on-write *Save*/*Restore* through the [`super::snapshot`]
//!   store: saved states share heap chunks with the live state, so a
//!   save costs O(touched chunks) instead of O(state) — §3.2's dominant
//!   cost;
//! * resource governance: a wall-clock deadline and a snapshot-memory
//!   budget, checked cooperatively *before* each step mutates anything, so
//!   that stopping on any limit freezes an exactly resumable
//!   [`DfsCheckpoint`]. Resuming with raised limits continues the search
//!   where it stopped: no work is repeated and the TE/GE/RE/SA totals come
//!   out identical to an uninterrupted run.

use crate::env::TraceEnv;
use crate::error::TangoError;
use crate::options::AnalysisOptions;
use crate::stats::SearchStats;
use crate::telemetry::{PruneKind, Telemetry};
use crate::verdict::{InconclusiveReason, Verdict};
use estelle_runtime::{FireOutcome, Fireable, Machine, MachineState, RuntimeError};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use super::snapshot::{FxBuildHasher, FxHasher, SavedState, SnapshotStore};
use super::{guard, is_fatal, record_error};

/// Result of the raw search (before initial-state-search wrapping).
#[derive(Debug)]
pub struct DfsOutcome {
    pub verdict: Verdict,
    /// The valid path, as compiled-transition indices.
    pub witness: Option<Vec<u32>>,
    pub spec_errors: Vec<RuntimeError>,
    /// The most-explaining attempt: (events consumed+verified, its path
    /// as compiled-transition indices).
    pub best: (usize, Vec<u32>),
    /// Checkable events in the trace (outstanding at search start).
    pub total_events: usize,
    /// Present when the verdict is `Inconclusive`: the frozen search,
    /// resumable via [`resume_dfs`].
    pub checkpoint: Option<DfsCheckpoint>,
    /// Spill-tier faults: reopen warnings (torn crash tails) and, on
    /// `Inconclusive(SpillFailure)`, the unrecoverable error.
    pub spill_faults: Vec<String>,
}

#[derive(Clone, Debug)]
pub(crate) struct Frame {
    /// The saved state, held through the snapshot store.
    pub(crate) state: SavedState,
    pub(crate) cursors: crate::env::Cursors,
    pub(crate) fireable: Vec<Fireable>,
    pub(crate) next: usize,
    pub(crate) path_len: usize,
    /// Consecutive barren steps on the path up to this node.
    pub(crate) barren: usize,
}

/// The complete mutable state of a stopped [`search`], captured before
/// the step that would have exceeded a limit. Opaque outside the crate;
/// carried by [`crate::checkpoint::Checkpoint`].
#[derive(Clone, Debug)]
pub struct DfsCheckpoint {
    pub(crate) state: MachineState,
    pub(crate) cursors: crate::env::Cursors,
    /// Compiled-transition indices fired from the root.
    pub(crate) path: Vec<u32>,
    pub(crate) stack: Vec<Frame>,
    pub(crate) visited: HashSet<u64, FxBuildHasher>,
    pub(crate) spec_errors: Vec<RuntimeError>,
    /// The most-explaining attempt so far: (events explained, its path
    /// as transition indices).
    pub(crate) best: (usize, Vec<u32>),
    pub(crate) total_events: usize,
    pub(crate) barren: usize,
    pub(crate) at_node: bool,
}

impl DfsCheckpoint {
    /// Depth of the search path at the stop point.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Saved backtracking frames awaiting exploration.
    pub fn pending_frames(&self) -> usize {
        self.stack.len()
    }

    /// Checkable events in the trace under analysis.
    pub fn events_total(&self) -> usize {
        self.total_events
    }
}

enum Init {
    Fresh(MachineState),
    Resume(Box<DfsCheckpoint>),
}

/// Failure localization: the attempt that explained the most events.
/// Its path is a prefix of the live path until a backtrack cuts below
/// it, so it is recorded as a length into the live path and copied out
/// only at that cut — a long trace pays no per-step path copy.
#[derive(Default)]
struct Best {
    explained: usize,
    /// `Some(len)`: the best path is the live path's first `len` steps.
    live: Option<usize>,
    /// The best path once copied out (`live` is `None`).
    copied: Vec<u32>,
}

impl Best {
    fn record(&mut self, explained: usize, path_len: usize) {
        self.explained = explained;
        self.live = Some(path_len);
    }

    /// Called before `path` is truncated to `len`.
    fn before_truncate(&mut self, path: &[u32], len: usize) {
        if let Some(l) = self.live.filter(|&l| len < l) {
            self.copied.clear();
            self.copied.extend_from_slice(&path[..l]);
            self.live = None;
        }
    }

    /// The best attempt as (events explained, path indices).
    fn get(&self, path: &[u32]) -> (usize, Vec<u32>) {
        let steps = match self.live {
            Some(l) => path[..l].to_vec(),
            None => self.copied.clone(),
        };
        (self.explained, steps)
    }
}

/// Run a depth-first search from `start` against the trace in `env`.
pub fn run_dfs(
    machine: &Machine,
    env: &mut TraceEnv,
    start: MachineState,
    options: &AnalysisOptions,
    stats: &mut SearchStats,
    tel: &mut Telemetry,
) -> Result<DfsOutcome, TangoError> {
    let t0 = Instant::now();
    let result = search(machine, env, Init::Fresh(start), options, stats, tel);
    stats.wall_time += t0.elapsed();
    if let Ok(o) = &result {
        tel.on_verdict(&o.verdict, stats, options.limits.max_transitions);
    }
    result
}

/// Continue a search stopped on a resource limit. `stats` must be the
/// counters accumulated up to the stop (they continue, not restart), and
/// `env` a fresh environment over the same trace — the checkpoint
/// repositions its cursors. `options` should differ from the original run
/// only in its limits; changing checking options mid-search would make the
/// combined verdict meaningless.
pub fn resume_dfs(
    machine: &Machine,
    env: &mut TraceEnv,
    checkpoint: DfsCheckpoint,
    options: &AnalysisOptions,
    stats: &mut SearchStats,
    tel: &mut Telemetry,
) -> Result<DfsOutcome, TangoError> {
    let t0 = Instant::now();
    let result = search(
        machine,
        env,
        Init::Resume(Box::new(checkpoint)),
        options,
        stats,
        tel,
    );
    stats.wall_time += t0.elapsed();
    if let Ok(o) = &result {
        tel.on_verdict(&o.verdict, stats, options.limits.max_transitions);
    }
    result
}

fn search(
    machine: &Machine,
    env: &mut TraceEnv,
    init: Init,
    options: &AnalysisOptions,
    stats: &mut SearchStats,
    tel: &mut Telemetry,
) -> Result<DfsOutcome, TangoError> {
    let mut state;
    let mut path: Vec<u32>;
    let mut stack: Vec<Frame>;
    let mut visited: HashSet<u64, FxBuildHasher>;
    let mut spec_errors: Vec<RuntimeError>;
    let total_events;
    let mut best: Best;
    // Consecutive steps without observable progress on the current path.
    let mut barren: usize;
    // `true`: we just arrived at a (possibly new) node and must expand it;
    // `false`: the last expansion failed and we must backtrack.
    let mut at_node: bool;

    // The snapshot pool: owns every saved state on the stack and the
    // byte accounting the memory budget governs.
    let mut store: SnapshotStore;
    // Spill-tier faults accumulated over the run (reopen warnings, and
    // the terminal error when the run degrades to `SpillFailure`).
    let mut spill_faults: Vec<String> = Vec::new();
    // Set when the search broke mid-step on a spill read failure: the
    // loop variables are no longer a coherent stop point, so no
    // checkpoint is offered.
    let mut spill_broke_midstep = false;

    let budget = options.limits.max_state_bytes;
    // A resumed search gets a fresh wall-clock allowance. Computed before
    // the tier opens so spill retry sleeps are clamped to the same
    // deadline the search loop enforces.
    let deadline = options.limits.max_wall_time.map(|d| Instant::now() + d);
    let tier = match options.spill.build_tier(budget) {
        Ok(t) => t.map(|mut t| {
            if let Some(d) = deadline {
                t.set_deadline(d);
            }
            t
        }),
        Err(e) => {
            // The spill directory itself is unusable. Degrade before
            // touching anything; a resume keeps its checkpoint.
            let (total_events, checkpoint) = match init {
                Init::Fresh(_) => (env.outstanding(), None),
                Init::Resume(cp) => (cp.total_events, Some(*cp)),
            };
            return Ok(DfsOutcome {
                verdict: Verdict::Inconclusive(InconclusiveReason::SpillFailure),
                witness: None,
                spec_errors: Vec::new(),
                best: (0, Vec::new()),
                total_events,
                checkpoint,
                spill_faults: vec![e.to_string()],
            });
        }
    };

    match init {
        Init::Fresh(s) => {
            state = s;
            path = Vec::new();
            stack = Vec::new();
            visited = HashSet::default();
            spec_errors = Vec::new();
            total_events = env.outstanding();
            best = Best::default();
            barren = 0;
            at_node = true;
            store = match tier {
                Some(t) => SnapshotStore::new().with_spill(budget.unwrap_or(usize::MAX), t),
                None => SnapshotStore::new(),
            };
            stats.snapshot_bytes = 0;
        }
        Init::Resume(cp) => {
            let cp = *cp;
            env.restore(&cp.cursors);
            state = cp.state;
            path = cp.path;
            stack = cp.stack;
            visited = cp.visited;
            spec_errors = cp.spec_errors;
            total_events = cp.total_events;
            best = Best {
                explained: cp.best.0,
                live: None,
                copied: cp.best.1,
            };
            barren = cp.barren;
            at_node = cp.at_node;
            // Rebuild the pool (and the byte counter) from the surviving
            // frames; charges are re-derived, never blindly subtracted, so
            // the counter cannot wrap across stop/resume rounds.
            store = SnapshotStore::rebuild(stack.iter().map(|f| &f.state), budget, tier);
            stats.snapshot_bytes = store.resident_bytes();
        }
    }
    spill_faults.extend(store.take_spill_warnings());
    stats.peak_snapshot_bytes = stats.peak_snapshot_bytes.max(stats.snapshot_bytes);
    // Spill counters continue across stop/resume rounds: the tier counts
    // from zero each open, so the stats add onto what the round inherited.
    let spill_base = (
        stats.spill_writes,
        stats.spill_reads,
        stats.spill_retries,
        stats.spill_evictions,
        stats.spill_giveups,
    );

    // Per-search *Generate* scratch, refilled in place by `generate_into`:
    // single-child expansions (the overwhelmingly common case on valid
    // traces) reuse the same fireable buffer instead of allocating a fresh
    // `Generated` per node; only multi-child nodes move the buffer into
    // their backtracking frame.
    let mut gen = estelle_runtime::Generated::default();

    let reason = loop {
        sync_spill_stats(stats, &store, spill_base);
        tel.tick(stats, options.limits.max_transitions);
        // Governance, checked before the next step mutates anything: a
        // `break` here freezes the loop variables into an exactly
        // resumable checkpoint.
        if let Some(e) = store.take_spill_fault() {
            spill_faults.push(e.to_string());
            break InconclusiveReason::SpillFailure;
        }
        if stats.transitions_executed > options.limits.max_transitions {
            break InconclusiveReason::TransitionLimit;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break InconclusiveReason::TimeLimit;
        }
        // With a spill tier attached the budget is a tiering policy, not
        // a stop condition: eviction holds residency at the budget.
        if !store.spill_enabled()
            && options
                .limits
                .max_state_bytes
                .is_some_and(|cap| stats.snapshot_bytes > cap)
        {
            break InconclusiveReason::MemoryLimit;
        }

        if at_node {
            let explained = total_events - env.outstanding();
            if explained > best.explained {
                best.record(explained, path.len());
            }
            if env.all_done() {
                sync_spill_stats(stats, &store, spill_base);
                return Ok(DfsOutcome {
                    verdict: Verdict::Valid,
                    best: best.get(&path),
                    witness: Some(path),
                    spec_errors,
                    total_events,
                    checkpoint: None,
                    spill_faults,
                });
            }
            if path.len() >= options.limits.max_depth {
                break InconclusiveReason::DepthLimit;
            }
            if options.state_hashing {
                let key = fingerprint(&state, &env.cursors);
                if !visited.insert(key) {
                    stats.hash_prunes += 1;
                    tel.on_prune(path.len(), PruneKind::Hash);
                    at_node = false;
                    continue;
                }
            }
            stats.max_depth = stats.max_depth.max(path.len());

            stats.generates += 1;
            let gen_t0 = tel.timer();
            match guard("generate", || {
                machine.generate_into(&mut state, env, &mut gen)
            }) {
                Ok(()) => {}
                Err(e) if is_fatal(&e) => return Err(TangoError::Runtime(e)),
                Err(e) => {
                    tel.on_error_branch(path.len(), e.kind);
                    record_error(&mut spec_errors, stats, e);
                    // Keep the GE == generate-events invariant: the failed
                    // expansion is an event with zero fanout.
                    tel.on_generate(path.len(), 0, false, gen_t0);
                    at_node = false;
                    continue;
                }
            };
            tel.on_generate(path.len(), gen.fireable.len(), gen.incomplete, gen_t0);
            if gen.fireable.is_empty() {
                at_node = false;
                continue;
            }
            stats.fanout_sum += gen.fireable.len() as u64;
            stats.fanout_samples += 1;

            let first = gen.fireable[0].clone();
            if gen.fireable.len() > 1 {
                stats.saves += 1;
                let cursors = env.save();
                let meta_bytes = (cursors.input.len() + cursors.output.len())
                    * std::mem::size_of::<usize>();
                let snapshot = store.save(&state, meta_bytes);
                stats.snapshot_bytes = store.resident_bytes();
                stats.peak_snapshot_bytes =
                    stats.peak_snapshot_bytes.max(stats.snapshot_bytes);
                if tel.hot() {
                    tel.on_save(path.len(), snapshot.bytes(), stats.snapshot_bytes);
                }
                stack.push(Frame {
                    state: snapshot,
                    cursors,
                    fireable: std::mem::take(&mut gen.fireable),
                    next: 1,
                    path_len: path.len(),
                    barren,
                });
            }
            let before = env.outstanding();
            match try_fire(machine, &mut state, &first, env, stats, &mut spec_errors, tel, path.len())? {
                true => {
                    if env.outstanding() < before {
                        barren = 0;
                    } else {
                        barren += 1;
                    }
                    if barren > options.limits.max_barren_steps {
                        stats.barren_prunes += 1;
                        tel.on_prune(path.len(), PruneKind::Barren);
                        at_node = false;
                    } else {
                        path.push(first.trans as u32);
                    }
                }
                false => at_node = false,
            }
        } else {
            // Backtrack to the nearest frame with untried children.
            let Some(top) = stack.last_mut() else {
                sync_spill_stats(stats, &store, spill_base);
                return Ok(DfsOutcome {
                    verdict: Verdict::Invalid,
                    witness: None,
                    spec_errors,
                    best: best.get(&path),
                    total_events,
                    checkpoint: None,
                    spill_faults,
                });
            };
            if top.next >= top.fireable.len() {
                let frame = stack.pop().expect("stack non-empty");
                store.release(&frame.state);
                stats.snapshot_bytes = store.resident_bytes();
                continue;
            }
            stats.restores += 1;
            tel.on_restore(path.len());
            let last_child = top.next == top.fireable.len() - 1;
            let f;
            if last_child {
                let frame = stack.pop().expect("stack non-empty");
                store.release(&frame.state);
                stats.snapshot_bytes = store.resident_bytes();
                f = frame.fireable[frame.next].clone();
                state = match store.take(frame.state) {
                    Ok(s) => s,
                    Err(e) => {
                        // The snapshot's disk copy is unreadable and its
                        // RAM copy is gone: the loop variables are no
                        // longer a coherent stop point.
                        spill_faults.push(e.to_string());
                        spill_broke_midstep = true;
                        break InconclusiveReason::SpillFailure;
                    }
                };
                env.restore(&frame.cursors);
                best.before_truncate(&path, frame.path_len);
                path.truncate(frame.path_len);
                barren = frame.barren;
            } else {
                f = top.fireable[top.next].clone();
                top.next += 1;
                state = match store.materialize(&top.state) {
                    Ok(s) => s,
                    Err(e) => {
                        spill_faults.push(e.to_string());
                        spill_broke_midstep = true;
                        break InconclusiveReason::SpillFailure;
                    }
                };
                env.restore(&top.cursors);
                best.before_truncate(&path, top.path_len);
                path.truncate(top.path_len);
                barren = top.barren;
            }
            let before = env.outstanding();
            match try_fire(machine, &mut state, &f, env, stats, &mut spec_errors, tel, path.len())? {
                true => {
                    if env.outstanding() < before {
                        barren = 0;
                    } else {
                        barren += 1;
                    }
                    if barren > options.limits.max_barren_steps {
                        stats.barren_prunes += 1;
                        tel.on_prune(path.len(), PruneKind::Barren);
                        // stay backtracking
                    } else {
                        path.push(f.trans as u32);
                        at_node = true;
                    }
                }
                false => { /* stay backtracking */ }
            }
        }
    };

    sync_spill_stats(stats, &store, spill_base);
    let best = best.get(&path);
    // A checkpoint carries every frame's snapshot bytes inline, so
    // spilled frames are faulted back in first. A read failure here
    // costs the checkpoint (reported as a fault), never a panic.
    let checkpoint = if spill_broke_midstep {
        None
    } else if let Err(e) = store.ensure_resident_all(stack.iter().map(|fr| &fr.state)) {
        spill_faults.push(format!("checkpoint dropped: {}", e));
        None
    } else {
        Some(DfsCheckpoint {
            cursors: env.save(),
            state,
            path,
            stack,
            visited,
            spec_errors: spec_errors.clone(),
            best: best.clone(),
            total_events,
            barren,
            at_node,
        })
    };
    Ok(DfsOutcome {
        verdict: Verdict::Inconclusive(reason),
        witness: None,
        spec_errors,
        best,
        total_events,
        checkpoint,
        spill_faults,
    })
}

/// Mirror the spill tier's counters and gauges into the run's stats.
/// `base` holds the totals inherited from earlier stop/resume rounds —
/// the tier itself counts from zero each open. No-op without a tier, so
/// spill-off runs keep their exact pre-spill accounting.
fn sync_spill_stats(
    stats: &mut SearchStats,
    store: &SnapshotStore,
    base: (u64, u64, u64, u64, u64),
) {
    if !store.spill_enabled() {
        return;
    }
    let c = store.spill_counters();
    stats.spill_writes = base.0 + c.writes;
    stats.spill_reads = base.1 + c.reads;
    stats.spill_retries = base.2 + c.retries;
    stats.spill_evictions = base.3 + c.evictions;
    stats.spill_giveups = base.4 + c.giveups;
    stats.snapshot_bytes = store.resident_bytes();
    stats.peak_snapshot_bytes = stats.peak_snapshot_bytes.max(stats.snapshot_bytes);
    stats.spilled_bytes = store.spilled_bytes();
    stats.peak_spilled_bytes = stats.peak_spilled_bytes.max(stats.spilled_bytes);
}

/// Fire one candidate; `Ok(true)` when the transition completed and all of
/// its outputs were matched.
#[allow(clippy::too_many_arguments)]
fn try_fire(
    machine: &Machine,
    state: &mut MachineState,
    f: &Fireable,
    env: &mut TraceEnv,
    stats: &mut SearchStats,
    spec_errors: &mut Vec<RuntimeError>,
    tel: &mut Telemetry,
    depth: usize,
) -> Result<bool, TangoError> {
    stats.transitions_executed += 1;
    let t0 = tel.timer();
    env.begin_fire();
    let result = match guard("fire", || machine.fire(state, f, env)) {
        Ok(FireOutcome::Completed) => Ok(env.end_fire()),
        Ok(FireOutcome::OutputRejected) => Ok(false),
        Err(e) if is_fatal(&e) => Err(TangoError::Runtime(e)),
        Err(e) => {
            tel.on_error_branch(depth, e.kind);
            record_error(spec_errors, stats, e);
            Ok(false)
        }
    };
    if tel.hot() {
        let fired = matches!(result, Ok(true));
        let observable = if tel.events_on() {
            machine.transition_observable(f.trans)
        } else {
            None
        };
        tel.on_fire(
            depth,
            f.trans,
            machine.transition_name(f.trans),
            observable,
            fired,
            t0,
        );
    }
    result
}

/// Hash of (machine state, trace cursors) for the visited-set extension.
/// Uses the same fast content hasher as the spill record key.
pub fn fingerprint(state: &MachineState, cursors: &crate::env::Cursors) -> u64 {
    let mut h = FxHasher::default();
    state.control.hash(&mut h);
    state.globals.hash(&mut h);
    state.heap.hash(&mut h);
    cursors.hash(&mut h);
    h.finish()
}
