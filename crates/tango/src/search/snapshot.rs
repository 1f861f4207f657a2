//! Saved-state snapshot pool: copy-on-write *Save*/*Restore* with exact
//! byte accounting and an optional disk spill tier for bounded-memory
//! searches.
//!
//! The paper's §3.2 names Save/Restore as the dominant trace-analysis
//! cost. Two layers attack it:
//!
//! 1. **Copy-on-write snapshots** — [`MachineState::snapshot`] shares heap
//!    chunks with the live state, so *Save* costs O(globals + chunk
//!    table) and the deep copy happens lazily, only for chunks the search
//!    actually touches before backtracking. Each save charges its own
//!    snapshot's full size plus its cursor metadata to
//!    [`crate::SearchStats::snapshot_bytes`], and release returns exactly
//!    that charge.
//! 2. **Disk spill** — with a [`SpillTier`] attached, the
//!    `max_state_bytes` budget is a tiering policy instead of a kill
//!    switch: crossing it evicts the least-recently-touched snapshots to
//!    CRC-checksummed segment files instead of stopping the search. Every
//!    handle points at a shared [`Slot`] whose state is either resident or
//!    spilled (a [`SpillTicket`] claim check); a *Restore* of a spilled
//!    slot faults the snapshot back in — verifying its checksum — before
//!    use. Spilling changes **where bytes live, never what the search
//!    decides**: eviction order is driven by the budget alone, and a
//!    snapshot's bytes move between the RAM and disk gauges unchanged, so
//!    `snapshot_bytes + spilled_bytes` equals the all-RAM residency.
//!
//! Subtraction saturates (with a debug assertion) so a counter rebuilt by
//! checkpoint/resume can never wrap.

use crate::search::spill::{SpillCounters, SpillError, SpillTicket, SpillTier};
use estelle_runtime::MachineState;
use std::cell::{Cell, Ref, RefCell};
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::{Rc, Weak};

// The spill record key and the DFS visited-set fingerprint both use the
// runtime's fast content hasher; the heap side feeds it from cached
// per-chunk digests, so hashing a state is O(chunks), not O(cells).
pub(crate) use estelle_runtime::FxHasher;

/// Hasher for the visited set. Its keys are already well-mixed 64-bit
/// content hashes; re-hashing them with SipHash would cost more than the
/// set operation itself.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Content hash of a machine state (control + globals + heap) — the key
/// a spilled snapshot's segment record carries, which lets a reopened
/// tier adopt an identical record instead of rewriting it. Trace cursors
/// are excluded: they are not part of the spilled bytes.
pub(crate) fn state_key(state: &MachineState) -> u64 {
    let mut h = FxHasher::default();
    state.control.hash(&mut h);
    state.globals.hash(&mut h);
    state.heap.hash(&mut h);
    h.finish()
}

/// One saved snapshot's residency cell. `state` is `Some` while the
/// snapshot is in RAM and `None` while it lives only on disk; `ticket`
/// caches the segment record once written (snapshot content is
/// immutable, so re-evicting a slot whose bytes are already on disk is
/// write-free).
#[derive(Debug)]
struct Slot {
    /// Bytes of the snapshot itself (excluding per-save metadata) — the
    /// amount that moves between the RAM and disk gauges.
    state_bytes: usize,
    state: RefCell<Option<MachineState>>,
    ticket: Cell<Option<SpillTicket>>,
    /// Generation stamp of this slot's newest LRU queue entry; older
    /// queue entries for the slot are stale and skipped lazily.
    touched: Cell<u64>,
}

impl Slot {
    fn new(state: MachineState, state_bytes: usize) -> Rc<Slot> {
        Rc::new(Slot {
            state_bytes,
            state: RefCell::new(Some(state)),
            ticket: Cell::new(None),
            touched: Cell::new(0),
        })
    }

    fn is_resident(&self) -> bool {
        self.state.borrow().is_some()
    }

    fn ticket(&self) -> SpillTicket {
        self.ticket
            .get()
            .expect("a non-resident slot always holds a spill ticket")
    }
}

/// A handle onto one saved snapshot. Clone-cheap (`Rc`); carries the
/// bytes its save charged so release can return them.
#[derive(Clone, Debug)]
pub(crate) struct SavedState {
    slot: Rc<Slot>,
    bytes: usize,
}

impl SavedState {
    /// The bytes this handle charged at save time: the snapshot plus its
    /// cursor metadata.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The resident snapshot, if it is in RAM right now. The checkpoint
    /// codec encodes from here after the search made everything
    /// resident; `None` means a spill read-back failed.
    pub(crate) fn resident_state(&self) -> Option<Ref<'_, MachineState>> {
        Ref::filter_map(self.slot.state.borrow(), Option::as_ref).ok()
    }

    /// Rebuild a handle decoded from a checkpoint file, with the bytes
    /// its save charged in the checkpointing run.
    pub(crate) fn from_decoded(state: MachineState, bytes: usize) -> Self {
        let state_bytes = state.approx_bytes();
        SavedState {
            slot: Slot::new(state, state_bytes),
            bytes,
        }
    }
}

/// The search's pool of saved snapshots and the single source of truth
/// for [`crate::SearchStats::snapshot_bytes`] (RAM residency) and
/// [`crate::SearchStats::spilled_bytes`] (disk residency).
#[derive(Default)]
pub(crate) struct SnapshotStore {
    ram_bytes: usize,
    spilled_bytes: usize,
    /// RAM budget the spill tier enforces (the `--max-mem` value).
    budget: Option<usize>,
    spill: Option<SpillTier>,
    /// LRU queue of (slot, generation) touches, oldest first. Entries
    /// whose generation no longer matches the slot's `touched` stamp are
    /// stale and skipped; the queue is compacted amortizedly.
    lru: VecDeque<(Weak<Slot>, u64)>,
    lru_gen: u64,
    lru_live_hint: usize,
    /// First unrecoverable spill error: the store is poisoned, eviction
    /// stops, and the search degrades at its next governance check.
    fault: Option<SpillError>,
}

impl SnapshotStore {
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// Attach a spill tier: RAM residency above `budget` bytes is evicted
    /// to `tier`. Without this call the store is the pure in-RAM pool.
    pub fn with_spill(mut self, budget: usize, tier: SpillTier) -> Self {
        self.budget = Some(budget);
        self.spill = Some(tier);
        self
    }

    /// Whether a spill tier is attached (memory pressure degrades to
    /// disk instead of stopping the search).
    pub fn spill_enabled(&self) -> bool {
        self.spill.is_some()
    }

    /// Bytes of all RAM-resident snapshots plus every save's cursor
    /// metadata. Without a spill tier this is what the `max_state_bytes`
    /// budget governs; with one, it is held at the budget by eviction.
    pub fn resident_bytes(&self) -> usize {
        self.ram_bytes
    }

    /// Bytes of snapshots currently living only in spill segments.
    pub fn spilled_bytes(&self) -> usize {
        self.spilled_bytes
    }

    /// Spill activity counters (zero when no tier is attached).
    pub fn spill_counters(&self) -> SpillCounters {
        self.spill
            .as_ref()
            .map(SpillTier::counters)
            .unwrap_or_default()
    }

    /// Reopen warnings from the spill tier (torn crash tails etc.).
    pub fn take_spill_warnings(&mut self) -> Vec<String> {
        self.spill
            .as_mut()
            .map(SpillTier::take_warnings)
            .unwrap_or_default()
    }

    /// Take the poisoning spill fault, if one occurred. The search polls
    /// this at its governance check and degrades to
    /// `Inconclusive(SpillFailure)`.
    pub fn take_spill_fault(&mut self) -> Option<SpillError> {
        self.fault.take()
    }

    /// *Save* a copy-on-write snapshot of `state`, charging its size plus
    /// `extra_bytes` of per-save metadata (cursors).
    pub fn save(&mut self, state: &MachineState, extra_bytes: usize) -> SavedState {
        let state_bytes = state.approx_bytes();
        let bytes = state_bytes + extra_bytes;
        let slot = Slot::new(state.snapshot(), state_bytes);
        self.ram_bytes += bytes;
        self.lru_touch(&slot);
        self.maybe_evict();
        SavedState { slot, bytes }
    }

    /// Release one handle, returning its charged bytes: the metadata from
    /// RAM, the snapshot from whichever tier (RAM or disk) holds it.
    pub fn release(&mut self, saved: &SavedState) {
        let state_bytes = saved.slot.state_bytes;
        let from_ram = if saved.slot.is_resident() {
            saved.bytes
        } else {
            self.spilled_bytes = self.spilled_bytes.saturating_sub(state_bytes);
            saved.bytes.saturating_sub(state_bytes)
        };
        debug_assert!(
            self.ram_bytes >= from_ram,
            "snapshot byte accounting must never wrap (resident {} < released {})",
            self.ram_bytes,
            from_ram
        );
        self.ram_bytes = self.ram_bytes.saturating_sub(from_ram);
    }

    /// *Restore* into a working state without consuming the handle (the
    /// frame may have more children). Faults a spilled snapshot back in
    /// first; the copy is COW (O(chunk table)). Eviction runs after the
    /// copy, so the faulted-in slot may immediately spill back out under
    /// a tight budget — correct, if slow, which is the tier's contract.
    pub fn materialize(&mut self, saved: &SavedState) -> Result<MachineState, SpillError> {
        self.fault_in(&saved.slot)?;
        let out = saved
            .slot
            .state
            .borrow()
            .as_ref()
            .expect("just faulted in")
            .snapshot();
        self.maybe_evict();
        Ok(out)
    }

    /// *Restore* consuming the handle (last child of a frame): moves the
    /// state out without any copy when this was the only reference. Call
    /// [`SnapshotStore::release`] first. A spilled snapshot is read
    /// straight from its segment (release already settled the
    /// accounting).
    pub fn take(&mut self, saved: SavedState) -> Result<MachineState, SpillError> {
        let ticket = saved.slot.ticket.get();
        let resident = match Rc::try_unwrap(saved.slot) {
            Ok(slot) => slot.state.into_inner(),
            Err(shared) => shared.state.borrow().as_ref().map(MachineState::snapshot),
        };
        match resident {
            Some(state) => Ok(state),
            None => self.read_ticket(&ticket.expect("a spilled slot holds a ticket")),
        }
    }

    /// Make every handle's snapshot resident — the checkpoint path.
    /// Transiently overshooting the RAM budget here is fine: the store
    /// is about to be torn down or rebuilt.
    pub fn ensure_resident_all<'a>(
        &mut self,
        saved: impl Iterator<Item = &'a SavedState>,
    ) -> Result<(), SpillError> {
        for s in saved {
            self.fault_in(&s.slot)?;
        }
        Ok(())
    }

    fn fault_in(&mut self, slot: &Rc<Slot>) -> Result<(), SpillError> {
        if slot.is_resident() {
            self.lru_touch(slot);
            return Ok(());
        }
        let ticket = slot.ticket();
        let tier = self
            .spill
            .as_mut()
            .expect("spilled slots only exist with a spill tier");
        let state = tier.read_state(&ticket)?;
        *slot.state.borrow_mut() = Some(state);
        self.spilled_bytes = self.spilled_bytes.saturating_sub(slot.state_bytes);
        self.ram_bytes += slot.state_bytes;
        self.lru_touch(slot);
        Ok(())
    }

    fn read_ticket(&mut self, ticket: &SpillTicket) -> Result<MachineState, SpillError> {
        self.spill
            .as_mut()
            .expect("spill tickets only exist with a spill tier")
            .read_state(ticket)
    }

    /// Evict least-recently-touched snapshots until RAM residency is
    /// back under budget. A write failure (retries exhausted) poisons
    /// the store: the state stays resident, eviction stops, and the
    /// search degrades at its next governance check.
    fn maybe_evict(&mut self) {
        if self.fault.is_some() || self.spill.is_none() {
            return;
        }
        let Some(budget) = self.budget else { return };
        while self.ram_bytes > budget {
            let Some((weak, generation)) = self.lru.pop_front() else {
                break;
            };
            let Some(slot) = weak.upgrade() else { continue };
            if slot.touched.get() != generation {
                continue;
            }
            if !self.evict_slot(&slot) && self.fault.is_some() {
                break;
            }
        }
    }

    fn evict_slot(&mut self, slot: &Rc<Slot>) -> bool {
        let Some(resident) = slot.state.borrow_mut().take() else {
            return false;
        };
        if slot.ticket.get().is_none() {
            let tier = self.spill.as_mut().expect("eviction requires a tier");
            match tier.write_state(state_key(&resident), &resident) {
                Ok(ticket) => slot.ticket.set(Some(ticket)),
                Err(e) => {
                    *slot.state.borrow_mut() = Some(resident);
                    self.fault = Some(e);
                    return false;
                }
            }
        }
        drop(resident);
        self.ram_bytes = self.ram_bytes.saturating_sub(slot.state_bytes);
        self.spilled_bytes += slot.state_bytes;
        if let Some(tier) = self.spill.as_mut() {
            tier.counters_mut().evictions += 1;
        }
        true
    }

    fn lru_touch(&mut self, slot: &Rc<Slot>) {
        if self.spill.is_none() {
            return;
        }
        self.lru_gen += 1;
        slot.touched.set(self.lru_gen);
        self.lru.push_back((Rc::downgrade(slot), self.lru_gen));
        // Amortized compaction: stale entries (superseded touches, dead
        // slots) are dropped when they dominate the queue.
        if self.lru.len() > 1024 && self.lru.len() > 4 * self.lru_live_hint.max(256) {
            self.lru
                .retain(|(w, generation)| match w.upgrade() {
                    Some(s) => s.touched.get() == *generation,
                    None => false,
                });
            self.lru_live_hint = self.lru.len();
        }
    }

    /// Rebuild a store from the frames of a resumed checkpoint,
    /// re-deriving the resident byte total from what each handle's save
    /// charged. Decoded frames are all resident; any stale spill tickets
    /// from the checkpointing run are dropped, because `tier` (if any) is
    /// a fresh reopen whose adoption index makes re-eviction of unchanged
    /// states write-free.
    pub fn rebuild<'a>(
        saved: impl Iterator<Item = &'a SavedState>,
        budget: Option<usize>,
        tier: Option<SpillTier>,
    ) -> Self {
        let mut store = SnapshotStore {
            budget,
            spill: tier,
            ..SnapshotStore::default()
        };
        for s in saved {
            s.slot.ticket.set(None);
            store.ram_bytes += s.bytes;
            store.lru_touch(&s.slot);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::spill::FsSpillDir;
    use estelle_runtime::{Machine, Value};
    use std::path::PathBuf;

    const SPEC: &str = r#"
        specification s;
        module M process; end;
        body MB for M;
            var n : integer;
            state S;
            initialize to S begin n := 0 end;
        end;
        end.
    "#;

    fn some_state() -> MachineState {
        let m = Machine::from_source(SPEC).unwrap();
        let mut st = m.initial_state().unwrap();
        st.heap.alloc(Value::Int(7));
        st
    }

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tango-snapshot-spill-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tier(dir: &PathBuf) -> SpillTier {
        SpillTier::open(Box::new(FsSpillDir::new(dir)), 64 << 20, 3).unwrap()
    }

    #[test]
    fn each_save_charges_its_own_bytes() {
        let st = some_state();
        let mut store = SnapshotStore::new();
        let a = store.save(&st, 16);
        let one = st.approx_bytes() + 16;
        assert_eq!(a.bytes(), one);
        assert_eq!(store.resident_bytes(), one);

        // An identical state saved again is a second snapshot, charged in
        // full.
        let b = store.save(&st, 16);
        assert!(!Rc::ptr_eq(&a.slot, &b.slot));
        assert_eq!(store.resident_bytes(), 2 * one);

        store.release(&b);
        assert_eq!(store.resident_bytes(), one);
        store.release(&a);
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn take_moves_out_without_copy_after_release() {
        let st = some_state();
        let mut store = SnapshotStore::new();
        let a = store.save(&st, 0);
        store.release(&a);
        let restored = store.take(a).unwrap();
        assert_eq!(restored, st);
    }

    #[test]
    fn release_saturates_instead_of_wrapping() {
        let st = some_state();
        let mut fresh = SnapshotStore::new();
        let handle = SnapshotStore::new().save(&st, 8);
        // Releasing into a store that never charged must not wrap; the
        // debug assertion flags it in debug builds, release saturates.
        if !cfg!(debug_assertions) {
            fresh.release(&handle);
            assert_eq!(fresh.resident_bytes(), 0);
        }
    }

    #[test]
    fn rebuild_restores_the_accounting() {
        let st = some_state();
        let mut store = SnapshotStore::new();
        let a = store.save(&st, 4);
        let b = store.save(&st, 4);
        let total = store.resident_bytes();

        let rebuilt = SnapshotStore::rebuild([a, b].iter(), None, None);
        assert_eq!(rebuilt.resident_bytes(), total);
    }

    #[test]
    fn fx_hasher_separates_streams() {
        let st = some_state();
        let mut other = st.clone();
        other.globals[0] = Value::Int(1);
        assert_ne!(state_key(&st), state_key(&other));
        assert_eq!(state_key(&st), state_key(&st.snapshot()));
    }

    #[test]
    fn budget_pressure_evicts_to_disk_and_faults_back_in() {
        let dir = spill_dir("evict");
        let st = some_state();
        let mut variants = Vec::new();
        for n in 0..8 {
            let mut v = st.clone();
            v.globals[0] = Value::Int(n);
            variants.push(v);
        }
        // Budget below two snapshots: saving eight forces eviction.
        let budget = st.approx_bytes() * 2;
        let mut store = SnapshotStore::new().with_spill(budget, tier(&dir));
        let handles: Vec<_> = variants.iter().map(|v| store.save(v, 0)).collect();
        assert!(
            store.resident_bytes() <= budget,
            "eviction must hold RAM at the budget ({} > {})",
            store.resident_bytes(),
            budget
        );
        assert!(store.spilled_bytes() > 0);
        assert!(store.spill_counters().evictions > 0);
        // Eviction moves bytes between the gauges without changing them.
        let charged: usize = handles.iter().map(SavedState::bytes).sum();
        assert_eq!(store.resident_bytes() + store.spilled_bytes(), charged);
        // Every snapshot — resident or spilled — restores bit-identically.
        for (h, v) in handles.iter().zip(&variants) {
            assert_eq!(&store.materialize(h).unwrap(), v);
        }
        assert!(store.spill_counters().reads > 0);
        // Releasing everything returns both gauges to zero.
        for h in handles.iter().rev() {
            store.release(h);
        }
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.spilled_bytes(), 0);
        assert!(store.take_spill_fault().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn take_of_a_spilled_snapshot_reads_from_disk() {
        let dir = spill_dir("take");
        let st = some_state();
        let mut other = st.clone();
        other.globals[0] = Value::Int(5);
        let mut store = SnapshotStore::new().with_spill(1, tier(&dir));
        let a = store.save(&st, 0);
        let _b = store.save(&other, 0);
        // Budget 1: everything spills.
        assert_eq!(store.resident_bytes(), 0);
        store.release(&a);
        assert_eq!(store.take(a).unwrap(), st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_failure_poisons_the_store_and_keeps_the_state() {
        use crate::search::spill::{FaultySpillDir, SpillFaultPlan, SpillDir};
        let dir = spill_dir("poison");
        let plan = SpillFaultPlan {
            hard_writes_after: Some(0),
            ..SpillFaultPlan::default()
        };
        let inner: Box<dyn SpillDir> = Box::new(FsSpillDir::new(&dir));
        let faulty = FaultySpillDir::new(inner, plan);
        let tier = SpillTier::open(Box::new(faulty), 64 << 20, 1).unwrap();
        let st = some_state();
        let mut store = SnapshotStore::new().with_spill(1, tier);
        let a = store.save(&st, 0);
        let fault = store.take_spill_fault().expect("dead disk must poison");
        assert!(fault.to_string().contains("disk full"), "{}", fault);
        // The snapshot never left RAM, so the search can still checkpoint.
        assert_eq!(store.materialize(&a).unwrap(), st);
        assert!(store.resident_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
