//! Sharded, thread-safe snapshot store for the multi-worker MDFS.
//!
//! The single-threaded DFS holds its snapshots in
//! [`super::snapshot::SnapshotStore`], whose one LRU is owned by the
//! search loop. N true workers saving and restoring concurrently would
//! funnel every operation through one lock, so this store spreads saves
//! round-robin over 16 shards, each its own mutex guarding its own slot
//! slab, LRU clock queue and spill tier (rooted at `shard{i:02}/` under
//! the spill directory). Two workers touching different shards never
//! contend.
//!
//! Residency accounting is atomic and global: the `resident`/`spilled`
//! byte gauges and their high-water marks are plain atomics updated
//! under the owning shard's lock, readable lock-free from any worker
//! (the memory-budget check) and from the coordinator (heartbeats).
//! Each save charges its own snapshot's full size.
//!
//! Eviction under a budget stays **globally coldest-first**: with a
//! spill tier attached, every resident slot carries a stamp from one
//! shared logical clock; the evictor peeks each shard's LRU front and
//! evicts the minimum stamp, so the per-shard split does not change
//! *what* gets evicted, only which lock the eviction takes. Without a
//! tier nothing can be evicted, so saves and restores skip the LRU
//! queue. Re-evicting a slot whose snapshot is already on disk is
//! write-free (the segment record is immutable), and a write failure
//! poisons the store instead of returning an error mid-save: the
//! snapshot stays resident, eviction stops, and the search degrades to
//! `Inconclusive(SpillFailure)` at its next governance check, exactly
//! like the single-threaded store.

use super::snapshot::state_key;
use super::spill::{SpillCounters, SpillError, SpillTicket, SpillTier};
use crate::options::AnalysisOptions;
use estelle_runtime::MachineState;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Shard count. A power of two so the shard index is the low bits of the
/// save's clock stamp; 16 is comfortably above any worker count the
/// search spawns while keeping the fixed footprint trivial.
pub(crate) const SHARD_COUNT: usize = 16;

/// Reference to one stored snapshot. Plain `Send + Sync` data — nodes
/// carry handles across worker threads; the states themselves stay in
/// the store.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StoreHandle {
    shard: u8,
    slot: u32,
    /// Size of the referenced snapshot — what its save charged.
    pub(crate) state_bytes: usize,
}

struct SlotEntry {
    /// Resident snapshot; `None` while evicted to the shard's tier.
    state: Option<MachineState>,
    /// Claim check once the snapshot has ever been written to disk.
    ticket: Option<SpillTicket>,
    /// Bytes of the snapshot itself — what moves between gauges.
    bytes: usize,
    /// Last-touch stamp from the store's shared logical clock; older
    /// LRU queue entries for the slot are stale and skipped.
    stamp: u64,
}

struct Shard {
    slots: Vec<Option<SlotEntry>>,
    free: Vec<u32>,
    /// Cold-first eviction queue of `(slot, stamp)`; filled only when a
    /// spill tier is attached.
    lru: VecDeque<(u32, u64)>,
    tier: Option<SpillTier>,
}

impl Shard {
    fn new(tier: Option<SpillTier>) -> Self {
        Shard {
            slots: Vec::new(),
            free: Vec::new(),
            lru: VecDeque::new(),
            tier,
        }
    }

    fn slot(&self, idx: u32) -> &SlotEntry {
        self.slots[idx as usize]
            .as_ref()
            .expect("live handle references a live slot")
    }

    fn slot_mut(&mut self, idx: u32) -> &mut SlotEntry {
        self.slots[idx as usize]
            .as_mut()
            .expect("live handle references a live slot")
    }

    /// Front-of-LRU stamp after discarding stale entries, i.e. the
    /// coldness of this shard's coldest *resident* slot.
    fn coldest(&mut self) -> Option<u64> {
        while let Some(&(idx, stamp)) = self.lru.front() {
            let live = self.slots[idx as usize]
                .as_ref()
                .is_some_and(|s| s.stamp == stamp && s.state.is_some());
            if live {
                return Some(stamp);
            }
            self.lru.pop_front();
        }
        None
    }
}

/// The sharded snapshot store. All methods take `&self`; internal
/// per-shard mutexes plus atomics make it `Sync`.
pub(crate) struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    budget: Option<usize>,
    spill_enabled: bool,
    resident: AtomicUsize,
    spilled: AtomicUsize,
    peak_resident: AtomicUsize,
    peak_spilled: AtomicUsize,
    clock: AtomicU64,
    /// Set on the first unrecoverable spill write fault; checked
    /// lock-free by workers at their governance point.
    poisoned: AtomicBool,
    fault: Mutex<Option<SpillError>>,
}

impl ShardedStore {
    /// Build the store from the run's options. An unusable spill
    /// directory is reported as the earliest degradation point, exactly
    /// like [`super::spill::SpillOptions::build_tier`].
    pub(crate) fn build(
        options: &AnalysisOptions,
        deadline: Option<Instant>,
    ) -> Result<Self, SpillError> {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        let mut spill_enabled = false;
        for i in 0..SHARD_COUNT {
            let tier = options
                .spill
                .build_tier_at(options.limits.max_state_bytes, &format!("shard{:02}", i))?
                .map(|mut t| {
                    if let Some(d) = deadline {
                        t.set_deadline(d);
                    }
                    spill_enabled = true;
                    t
                });
            shards.push(Mutex::new(Shard::new(tier)));
        }
        Ok(ShardedStore {
            shards,
            budget: options.limits.max_state_bytes,
            spill_enabled,
            resident: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            peak_spilled: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            fault: Mutex::new(None),
        })
    }

    /// Whether memory pressure degrades to disk (any shard tier built).
    pub(crate) fn spill_enabled(&self) -> bool {
        self.spill_enabled
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn charge_resident(&self, bytes: usize) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
    }

    /// Save a snapshot into a fresh slot. Shards are picked round-robin
    /// off the logical clock so concurrent workers spread across locks.
    pub(crate) fn save(&self, state: MachineState) -> StoreHandle {
        let stamp = self.tick();
        let shard_idx = stamp as usize & (SHARD_COUNT - 1);
        let bytes = state.approx_bytes();
        let entry = SlotEntry {
            state: Some(state),
            ticket: None,
            bytes,
            stamp,
        };
        let mut shard = self.shards[shard_idx].lock().expect("store shard lock");
        let idx = match shard.free.pop() {
            Some(i) => {
                shard.slots[i as usize] = Some(entry);
                i
            }
            None => {
                shard.slots.push(Some(entry));
                (shard.slots.len() - 1) as u32
            }
        };
        if self.spill_enabled {
            shard.lru.push_back((idx, stamp));
        }
        // Settle the gauge before releasing the shard lock: the evictor
        // can see this slot the moment the lock drops, and its uncharge
        // must never land before our charge (the gauges are unsigned).
        self.charge_resident(bytes);
        drop(shard);
        StoreHandle {
            shard: shard_idx as u8,
            slot: idx,
            state_bytes: bytes,
        }
    }

    /// Fault the slot's snapshot back in from its shard tier if it is
    /// currently evicted. Call with the shard lock held; returns
    /// whether a fault-in happened (the caller settles the gauges
    /// before dropping the lock).
    fn fault_in(shard: &mut Shard, slot: u32) -> Result<bool, SpillError> {
        if shard.slot(slot).state.is_some() {
            return Ok(false);
        }
        let ticket = shard
            .slot(slot)
            .ticket
            .expect("an evicted slot always holds a spill ticket");
        let tier = shard
            .tier
            .as_mut()
            .expect("evicted slots only exist with a spill tier");
        let state = tier.read_state(&ticket)?;
        shard.slot_mut(slot).state = Some(state);
        Ok(true)
    }

    fn settle_fault_in(&self, bytes: usize) {
        self.charge_resident(bytes);
        self.spilled.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// A copy-on-write copy of the stored snapshot for expansion,
    /// faulting it back in from the shard's spill tier first when
    /// evicted.
    pub(crate) fn materialize(&self, h: StoreHandle) -> Result<MachineState, SpillError> {
        let stamp = if self.spill_enabled { self.tick() } else { 0 };
        let mut shard = self.shards[h.shard as usize]
            .lock()
            .expect("store shard lock");
        let faulted = Self::fault_in(&mut shard, h.slot)?;
        let entry = shard.slot_mut(h.slot);
        let copy = entry.state.as_ref().expect("faulted in above").snapshot();
        let bytes = entry.bytes;
        if self.spill_enabled {
            entry.stamp = stamp;
            shard.lru.push_back((h.slot, stamp));
        }
        if faulted {
            self.settle_fault_in(bytes);
        }
        drop(shard);
        Ok(copy)
    }

    /// Free the slot and uncharge its bytes from whichever gauge holds
    /// them.
    pub(crate) fn release(&self, h: StoreHandle) {
        let mut shard = self.shards[h.shard as usize]
            .lock()
            .expect("store shard lock");
        let entry = shard.slots[h.slot as usize]
            .take()
            .expect("live handle references a live slot");
        shard.free.push(h.slot);
        if entry.state.is_some() {
            self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
        } else {
            self.spilled.fetch_sub(entry.bytes, Ordering::Relaxed);
        }
        drop(shard);
    }

    /// Evict globally coldest slots until `resident + need` fits the
    /// budget. No-op without a budget or tiers; running out of
    /// evictable slots degrades gracefully (the search continues over
    /// budget — the tier's contract is degradation, never a stop). A
    /// write failure poisons the store: the snapshot stays resident and
    /// workers observe [`ShardedStore::is_poisoned`] at their next
    /// governance check.
    pub(crate) fn evict_to_budget(&self, need: usize) {
        let Some(budget) = self.budget else { return };
        self.evict_until(budget.saturating_sub(need));
    }

    fn evict_until(&self, target: usize) {
        if !self.spill_enabled || self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        while self.resident.load(Ordering::Relaxed) > target {
            // Globally coldest-first: min front stamp across shards.
            let mut coldest: Option<(usize, u64)> = None;
            for (i, m) in self.shards.iter().enumerate() {
                let mut shard = m.lock().expect("store shard lock");
                if let Some(stamp) = shard.coldest() {
                    if coldest.is_none_or(|(_, best)| stamp < best) {
                        coldest = Some((i, stamp));
                    }
                }
            }
            let Some((shard_idx, stamp)) = coldest else {
                return; // nothing evictable left; degrade gracefully
            };
            let mut shard = self.shards[shard_idx].lock().expect("store shard lock");
            // Re-validate under one continuous lock; the slot may have
            // been touched or freed since the peek.
            let Some(&(slot_idx, front_stamp)) = shard.lru.front() else {
                continue;
            };
            if front_stamp != stamp {
                continue;
            }
            shard.lru.pop_front();
            let live = shard.slots[slot_idx as usize]
                .as_ref()
                .is_some_and(|s| s.stamp == front_stamp && s.state.is_some());
            if !live {
                continue;
            }
            let state = shard
                .slot_mut(slot_idx)
                .state
                .take()
                .expect("checked resident");
            let bytes = shard.slot(slot_idx).bytes;
            if shard.slot(slot_idx).ticket.is_none() {
                let tier = shard.tier.as_mut().expect("spill_enabled checked");
                match tier.write_state(state_key(&state), &state) {
                    Ok(t) => shard.slot_mut(slot_idx).ticket = Some(t),
                    Err(e) => {
                        // Keep the snapshot resident; poison the store.
                        shard.slot_mut(slot_idx).state = Some(state);
                        drop(shard);
                        let mut fault = self.fault.lock().expect("store fault lock");
                        if fault.is_none() {
                            *fault = Some(e);
                        }
                        self.poisoned.store(true, Ordering::Release);
                        return;
                    }
                }
            }
            if let Some(t) = shard.tier.as_mut() {
                t.counters_mut().evictions += 1;
            }
            self.resident.fetch_sub(bytes, Ordering::Relaxed);
            let now = self.spilled.fetch_add(bytes, Ordering::Relaxed) + bytes;
            self.peak_spilled.fetch_max(now, Ordering::Relaxed);
            drop(shard);
        }
    }

    /// Whether an unrecoverable spill fault has occurred (lock-free).
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The poisoning spill fault, if one occurred.
    pub(crate) fn take_fault(&self) -> Option<SpillError> {
        self.fault.lock().expect("store fault lock").take()
    }

    /// Point-in-time RAM gauge (lock-free).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Point-in-time disk gauge (lock-free).
    pub(crate) fn spilled_bytes(&self) -> usize {
        self.spilled.load(Ordering::Relaxed)
    }

    pub(crate) fn peak_resident_bytes(&self) -> usize {
        self.peak_resident.load(Ordering::Relaxed)
    }

    pub(crate) fn peak_spilled_bytes(&self) -> usize {
        self.peak_spilled.load(Ordering::Relaxed)
    }

    /// Spill counters summed across every shard tier.
    pub(crate) fn spill_counters(&self) -> SpillCounters {
        let mut total = SpillCounters::default();
        for m in &self.shards {
            let shard = m.lock().expect("store shard lock");
            if let Some(t) = shard.tier.as_ref() {
                let c = t.counters();
                total.writes += c.writes;
                total.reads += c.reads;
                total.retries += c.retries;
                total.evictions += c.evictions;
                total.giveups += c.giveups;
            }
        }
        total
    }

    /// Degradation warnings accumulated by the shard tiers.
    pub(crate) fn take_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.shards {
            let mut shard = m.lock().expect("store shard lock");
            if let Some(t) = shard.tier.as_mut() {
                out.extend(t.take_warnings());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::spill::SpillMode;
    use estelle_runtime::{Machine, Value};

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

    fn state_with(n: i64) -> MachineState {
        let m = Machine::from_source(SPEC).unwrap();
        let mut st = m.initial_state().unwrap();
        st.globals[0] = Value::Int(n);
        st
    }

    fn store(budget: Option<usize>, dir: Option<std::path::PathBuf>) -> ShardedStore {
        let mut o = AnalysisOptions::default();
        o.limits.max_state_bytes = budget;
        if let Some(d) = dir {
            o.spill.mode = SpillMode::On;
            o.spill.dir = Some(d);
        }
        ShardedStore::build(&o, None).expect("store builds")
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tango-sharded-store-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn identical_saves_get_their_own_slots_and_charges() {
        for budget in [None, Some(usize::MAX)] {
            let st = store(budget, None);
            let a = st.save(state_with(7));
            let b = st.save(state_with(7));
            let both = a.state_bytes + b.state_bytes;
            assert_eq!(st.resident_bytes(), both, "budget {:?}", budget);
            assert_eq!(st.materialize(a).unwrap().globals[0], Value::Int(7));
            assert_eq!(st.materialize(b).unwrap().globals[0], Value::Int(7));
            st.release(a);
            assert_eq!(st.resident_bytes(), b.state_bytes);
            st.release(b);
            assert_eq!(st.resident_bytes(), 0);
            assert_eq!(st.peak_resident_bytes(), both);
        }
    }

    #[test]
    fn materialize_roundtrips_through_the_spill_tier() {
        let dir = tmpdir("roundtrip");
        let st = store(Some(1), Some(dir.clone()));
        let h = st.save(state_with(42));
        assert!(st.spill_enabled());
        assert!(st.resident_bytes() > 0);
        st.evict_to_budget(0);
        assert_eq!(st.resident_bytes(), 0, "the budget forces the slot out");
        assert!(st.spilled_bytes() > 0);
        assert!(st.spill_counters().evictions >= 1);
        let back = st.materialize(h).expect("faults back in");
        assert_eq!(back.globals[0], Value::Int(42));
        assert!(st.resident_bytes() > 0, "fault-in moves bytes back to RAM");
        assert_eq!(st.spilled_bytes(), 0);
        assert!(st.spill_counters().reads >= 1);
        assert!(!st.is_poisoned());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_is_globally_coldest_first_across_shards() {
        let dir = tmpdir("coldest");
        let st = store(Some(usize::MAX), Some(dir.clone()));
        // Distinct states land in different shards (very likely); the
        // least recently touched must go first regardless of shard.
        let handles: Vec<_> = (0..8).map(|i| st.save(state_with(i))).collect();
        // Touch everything but the first, making handle 0 the global LRU.
        for &h in &handles[1..] {
            let _ = st.materialize(h).unwrap();
        }
        let one = handles[0].state_bytes;
        st.evict_until(st.resident_bytes() - one);
        // The coldest handle is the evicted one: materializing it
        // registers a spill read.
        let reads_before = st.spill_counters().reads;
        let _ = st.materialize(handles[0]).unwrap();
        assert_eq!(st.spill_counters().reads, reads_before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn release_of_spilled_slot_clears_the_disk_gauge() {
        let dir = tmpdir("release-spilled");
        let st = store(Some(1), Some(dir.clone()));
        let h = st.save(state_with(9));
        st.evict_to_budget(0);
        assert!(st.spilled_bytes() > 0);
        st.release(h);
        assert_eq!(st.spilled_bytes(), 0);
        assert_eq!(st.resident_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peaks_track_high_water_marks() {
        let st = store(None, None);
        let a = st.save(state_with(1));
        let b = st.save(state_with(2));
        let peak = st.peak_resident_bytes();
        assert_eq!(peak, st.resident_bytes());
        st.release(a);
        st.release(b);
        assert_eq!(st.resident_bytes(), 0);
        assert_eq!(st.peak_resident_bytes(), peak, "peak survives releases");
    }

    #[test]
    fn write_failure_poisons_the_store_and_keeps_the_state() {
        use crate::search::spill::SpillFaultPlan;
        let dir = tmpdir("poison");
        let mut o = AnalysisOptions::default();
        o.limits.max_state_bytes = Some(1);
        o.spill.mode = SpillMode::On;
        o.spill.dir = Some(dir.clone());
        o.spill.fault_plan = Some(SpillFaultPlan {
            hard_writes_after: Some(0),
            ..SpillFaultPlan::default()
        });
        let st = ShardedStore::build(&o, None).expect("store builds");
        let h = st.save(state_with(3));
        st.evict_to_budget(0);
        assert!(st.is_poisoned(), "dead disk must poison");
        let fault = st.take_fault().expect("fault recorded");
        assert!(fault.to_string().contains("disk full"), "{}", fault);
        // The snapshot never left RAM; the search can still checkpoint.
        assert_eq!(st.materialize(h).unwrap().globals[0], Value::Int(3));
        assert!(st.resident_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
