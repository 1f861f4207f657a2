//! Estelle dynamic memory.
//!
//! `new`/`dispose` allocate and free cells in a per-machine [`Heap`]. The
//! heap is part of the TAM state (paper §2.3): depth-first search must be
//! able to *save* and *restore* it around backtracking — the cost §3.2.2
//! identifies as the dominant one for MDFS.
//!
//! Storage is **chunked and copy-on-write**: cells live in fixed-size
//! chunks behind [`Arc`]s, so cloning a heap (the paper's *Save*) copies
//! only the chunk table — O(slots / CHUNK_CELLS) pointer bumps — and
//! shares every chunk with the original. A chunk is deep-copied lazily,
//! the first time a *write* (`alloc`, `dispose`, `get_mut`) lands in a
//! chunk that is still shared with some snapshot. A search that saves a
//! state and then touches three cells pays for one chunk, not for the
//! whole heap. A search that saves by trail marks instead
//! ([`crate::trail`]) shares no chunk and copies none: `alloc` and
//! `dispose` have exact undos.
//!
//! References carry a generation counter so a dangling pointer (use after
//! `dispose`) is detected deterministically instead of reading stale data.

use crate::error::{RtResult, RuntimeError};
use crate::fxhash::FxHasher;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Cells per chunk. Small enough that a copy-on-write break after a
/// snapshot copies a handful of cells, large enough that the chunk table
/// stays short. 8 keeps the break cost near the "touched cells" ideal for
/// the pointer-linked protocol buffers the paper measures.
pub const CHUNK_CELLS: usize = 8;
const CHUNK_BITS: u32 = CHUNK_CELLS.trailing_zeros();
const CHUNK_MASK: u32 = CHUNK_CELLS as u32 - 1;

/// A checked reference into a [`Heap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HeapRef {
    index: u32,
    generation: u32,
}

impl fmt::Display for HeapRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}g{}", self.index, self.generation)
    }
}

impl HeapRef {
    /// The reference's raw (slot index, generation) pair, for the stable
    /// state codec. Safe to expose: a reconstructed ref is still checked
    /// against the cell's generation on every access.
    pub(crate) fn raw_parts(&self) -> (u32, u32) {
        (self.index, self.generation)
    }

    /// Rebuild a reference from its codec representation.
    pub(crate) fn from_raw_parts(index: u32, generation: u32) -> Self {
        HeapRef { index, generation }
    }
}

#[derive(Clone, Debug, Hash, PartialEq)]
enum Cell {
    Free { generation: u32 },
    Used { generation: u32, value: Value },
}

impl Cell {
    /// Bytes this cell's storage accounts for: its in-chunk slot plus
    /// whatever its value owns *out of line* (the value's inline portion
    /// already lives in the slot).
    fn approx_bytes(&self) -> usize {
        match self {
            Cell::Free { .. } => std::mem::size_of::<Cell>(),
            Cell::Used { value, .. } => {
                std::mem::size_of::<Cell>() + value.approx_bytes() - std::mem::size_of::<Value>()
            }
        }
    }
}

/// One storage chunk plus its cached content hash and byte count. The
/// caches make the *whole-heap* hash and byte estimate O(chunks) instead
/// of O(cells): only chunks written since they were last read are
/// rescanned. The byte count is read on every *Save* (the gauge's
/// charge), the hash only by state hashing, so each is computed on its
/// own.
#[derive(Clone, Debug)]
struct Chunk {
    cells: Arc<Vec<Cell>>,
    /// Cached content hash of `cells`; cleared by writes. Caches travel
    /// with clones (same content ⇒ same digest) and never cross them:
    /// invalidating one heap's cache leaves the snapshots sharing the
    /// chunk untouched.
    hash: std::cell::Cell<Option<u64>>,
    /// Cached approximate bytes of `cells`, 0 until measured (a chunk
    /// holding a cell measures more, and an empty one re-measures for
    /// free); cleared by writes.
    bytes: std::cell::Cell<usize>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            cells: Arc::new(Vec::with_capacity(CHUNK_CELLS)),
            hash: std::cell::Cell::new(None),
            bytes: std::cell::Cell::new(0),
        }
    }

    /// The cached content hash, recomputed only after a write cleared it.
    fn hash(&self) -> u64 {
        if let Some(h) = self.hash.get() {
            return h;
        }
        let mut h = FxHasher::default();
        for cell in self.cells.iter() {
            cell.hash(&mut h);
        }
        let h = h.finish();
        self.hash.set(Some(h));
        h
    }

    /// The cached byte count, recomputed only after a write cleared it.
    fn bytes(&self) -> usize {
        if self.bytes.get() == 0 {
            self.bytes
                .set(self.cells.iter().map(Cell::approx_bytes).sum());
        }
        self.bytes.get()
    }

    /// Mutable cell access: clears both caches and breaks sharing.
    fn cells_mut(&mut self) -> &mut Vec<Cell> {
        self.hash.set(None);
        self.bytes.set(0);
        Arc::make_mut(&mut self.cells)
    }
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells) || self.cells == other.cells
    }
}

/// The dynamic-memory store of one machine state. Cloning snapshots it in
/// O(chunk-table) time; the snapshot and the original then share chunks
/// copy-on-write. `clone_from` does the same into the chunk table and
/// free list the target already has, so a copy into a spare heap
/// allocates nothing.
#[derive(Debug, PartialEq, Default)]
pub struct Heap {
    chunks: Vec<Chunk>,
    free: Vec<u32>,
    live: usize,
    /// Total cells across all chunks (the last chunk may be partial).
    total: usize,
}

impl Clone for Heap {
    fn clone(&self) -> Self {
        Heap {
            chunks: self.chunks.clone(),
            free: self.free.clone(),
            live: self.live,
            total: self.total,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.chunks.clone_from(&source.chunks);
        self.free.clone_from(&source.free);
        self.live = source.live;
        self.total = source.total;
    }
}

/// Content hash via the per-chunk digest cache. Consistent with
/// `PartialEq`: equal heaps have equal cell contents, free lists and
/// counters, hence equal digests.
impl Hash for Heap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for chunk in &self.chunks {
            state.write_u64(chunk.hash());
        }
        self.free.hash(state);
        self.live.hash(state);
        self.total.hash(state);
    }
}

impl Heap {
    pub fn new() -> Self {
        Heap::default()
    }

    /// Empty the heap but keep its buffers: a spare that a later
    /// `clone_from` fills, and that meanwhile holds no chunk, so it
    /// makes no write elsewhere pay a copy-on-write break.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.free.clear();
        self.live = 0;
        self.total = 0;
    }

    /// Number of live allocations.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of storage chunks backing the heap.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks currently shared with at least one snapshot (a write into
    /// one of these pays a copy-on-write break).
    pub fn shared_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| Arc::strong_count(&c.cells) > 1)
            .count()
    }

    /// Approximate footprint in bytes of everything the heap owns,
    /// including out-of-line storage inside the cell values. Proportional
    /// rather than exact — used for the analyzer's snapshot-memory budget.
    /// Each cell's storage is counted exactly once: a cell contributes its
    /// in-chunk slot plus whatever its value owns *out of line* (the
    /// value's inline portion already lives in the slot). Chunks are
    /// counted whether shared or not, so the analyzer's budget charges
    /// every saved snapshot its full logical size.
    pub fn approx_bytes(&self) -> usize {
        let cells: usize = self.chunks.iter().map(Chunk::bytes).sum();
        cells
            + self.chunks.len() * std::mem::size_of::<Chunk>()
            + self.free.len() * std::mem::size_of::<u32>()
    }

    fn cell(&self, index: u32) -> Option<&Cell> {
        self.chunks
            .get((index >> CHUNK_BITS) as usize)?
            .cells
            .get((index & CHUNK_MASK) as usize)
    }

    /// Mutable access to a cell; breaks the containing chunk's sharing if
    /// a snapshot still holds it (the copy-on-write write barrier).
    fn cell_mut(&mut self, index: u32) -> Option<&mut Cell> {
        let chunk = self.chunks.get_mut((index >> CHUNK_BITS) as usize)?;
        chunk.cells_mut().get_mut((index & CHUNK_MASK) as usize)
    }

    /// Allocate a cell holding `value`, as `new(p)` does.
    pub fn alloc(&mut self, value: Value) -> HeapRef {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let cell = self.cell_mut(index).expect("free list holds valid slots");
            let generation = match cell {
                Cell::Free { generation } => *generation + 1,
                Cell::Used { .. } => unreachable!("free list holds only free cells"),
            };
            *cell = Cell::Used { generation, value };
            return HeapRef { index, generation };
        }
        let index = self.total as u32;
        if self.total.is_multiple_of(CHUNK_CELLS) {
            self.chunks.push(Chunk::new());
        }
        let last = self.chunks.last_mut().expect("chunk just ensured");
        last.cells_mut().push(Cell::Used {
            generation: 0,
            value,
        });
        self.total += 1;
        HeapRef {
            index,
            generation: 0,
        }
    }

    /// Free a cell, as `dispose(p)` does.
    pub fn dispose(&mut self, r: HeapRef) -> RtResult<()> {
        self.take(r).map(drop)
    }

    /// [`Heap::dispose`], handing back the value the cell held.
    pub(crate) fn take(&mut self, r: HeapRef) -> RtResult<Value> {
        match self.cell(r.index) {
            Some(Cell::Used { generation, .. }) if *generation == r.generation => {
                let cell = self.cell_mut(r.index).expect("cell just read");
                let freed = std::mem::replace(
                    cell,
                    Cell::Free {
                        generation: r.generation,
                    },
                );
                self.free.push(r.index);
                self.live -= 1;
                match freed {
                    Cell::Used { value, .. } => Ok(value),
                    Cell::Free { .. } => unreachable!("cell liveness checked above"),
                }
            }
            _ => Err(RuntimeError::dangling("dispose of a dangling pointer")),
        }
    }

    /// Undo the [`Heap::alloc`] that returned `r`, the heap's newest
    /// change. A fresh slot has generation 0 and is the last one; a
    /// reused slot has a higher generation and goes back on the free
    /// list, where it was last.
    pub(crate) fn undo_alloc(&mut self, r: HeapRef) {
        self.live -= 1;
        if r.generation == 0 {
            debug_assert_eq!(r.index as usize, self.total - 1, "a fresh slot is the last");
            let last = self.chunks.last_mut().expect("the slot's chunk");
            last.cells_mut().pop();
            self.total -= 1;
            if self.total.is_multiple_of(CHUNK_CELLS) {
                self.chunks.pop();
            }
        } else {
            *self.cell_mut(r.index).expect("an allocated slot") = Cell::Free {
                generation: r.generation - 1,
            };
            self.free.push(r.index);
        }
    }

    /// Undo the [`Heap::dispose`] of `r`, the heap's newest change,
    /// putting back the value the cell held.
    pub(crate) fn undo_dispose(&mut self, r: HeapRef, value: Value) {
        debug_assert_eq!(self.free.last(), Some(&r.index), "the freed slot is the last");
        self.free.pop();
        self.live += 1;
        *self.cell_mut(r.index).expect("a freed slot") = Cell::Used {
            generation: r.generation,
            value,
        };
    }

    /// Read a cell.
    pub fn get(&self, r: HeapRef) -> RtResult<&Value> {
        match self.cell(r.index) {
            Some(Cell::Used { generation, value }) if *generation == r.generation => Ok(value),
            _ => Err(RuntimeError::dangling("dereference of a dangling pointer")),
        }
    }

    /// Encode the heap for the durable-checkpoint codec: cells in slot
    /// order, then the free list (whose order decides future slot reuse
    /// and generation bumps, so it must survive exactly). Chunk
    /// boundaries are implied by [`CHUNK_CELLS`]; `live` and `total` are
    /// re-derived on decode. Copy-on-write sharing *between* heaps is
    /// intentionally not represented: a decoded heap owns all its chunks.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_u64(self.total as u64);
        for i in 0..self.total {
            match self.cell(i as u32).expect("slot within total") {
                Cell::Free { generation } => {
                    w.put_u8(0);
                    w.put_u32(*generation);
                }
                Cell::Used { generation, value } => {
                    w.put_u8(1);
                    w.put_u32(*generation);
                    crate::codec::encode_value(w, value);
                }
            }
        }
        w.put_u32(self.free.len() as u32);
        for idx in &self.free {
            w.put_u32(*idx);
        }
    }

    /// Decode a heap previously written by [`Heap::encode`]. Structural
    /// invariants are re-checked (free-list entries must name free,
    /// in-range slots), so a corrupt buffer yields a typed error instead
    /// of a heap that panics later.
    pub fn decode(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let total = r.get_usize("heap cell count")?;
        if total.saturating_mul(5) > r.remaining() {
            return Err(CodecError::Truncated {
                context: "heap cells",
            });
        }
        let mut heap = Heap::new();
        let mut free_cells = 0usize;
        for i in 0..total {
            if i.is_multiple_of(CHUNK_CELLS) {
                heap.chunks.push(Chunk::new());
            }
            let chunk = heap.chunks.last_mut().expect("chunk just ensured");
            let cell = match r.get_u8("heap cell tag")? {
                0 => {
                    free_cells += 1;
                    Cell::Free {
                        generation: r.get_u32("free cell generation")?,
                    }
                }
                1 => Cell::Used {
                    generation: r.get_u32("used cell generation")?,
                    value: crate::codec::decode_value(r)?,
                },
                other => {
                    return Err(CodecError::Malformed(format!(
                        "unknown heap cell tag {}",
                        other
                    )))
                }
            };
            chunk.cells_mut().push(cell);
        }
        heap.total = total;
        heap.live = total - free_cells;
        let free_len = r.get_len(4, "heap free list")?;
        if free_len != free_cells {
            return Err(CodecError::Malformed(format!(
                "free list length {} does not match {} free cell(s)",
                free_len, free_cells
            )));
        }
        let mut seen = vec![false; total];
        for _ in 0..free_len {
            let idx = r.get_u32("free list entry")?;
            match heap.cell(idx) {
                Some(Cell::Free { .. }) => {}
                _ => {
                    return Err(CodecError::Malformed(format!(
                        "free list names slot {} which is not a free cell",
                        idx
                    )))
                }
            }
            if std::mem::replace(&mut seen[idx as usize], true) {
                return Err(CodecError::Malformed(format!(
                    "free list names slot {} twice",
                    idx
                )));
            }
            heap.free.push(idx);
        }
        Ok(heap)
    }

    /// Write a cell.
    pub fn get_mut(&mut self, r: HeapRef) -> RtResult<&mut Value> {
        // Check liveness first on the shared view so a dangling write does
        // not pay (or cause) a copy-on-write break.
        match self.cell(r.index) {
            Some(Cell::Used { generation, .. }) if *generation == r.generation => {}
            _ => return Err(RuntimeError::dangling("dereference of a dangling pointer")),
        }
        match self.cell_mut(r.index) {
            Some(Cell::Used { value, .. }) => Ok(value),
            _ => unreachable!("cell liveness checked above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(7));
        assert_eq!(h.get(r).unwrap(), &Value::Int(7));
        *h.get_mut(r).unwrap() = Value::Int(8);
        assert_eq!(h.get(r).unwrap(), &Value::Int(8));
        assert_eq!(h.live(), 1);
    }

    #[test]
    fn dispose_then_use_is_dangling() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(1));
        h.dispose(r).unwrap();
        assert!(h.get(r).is_err());
        assert!(h.get_mut(r).is_err());
        assert!(h.dispose(r).is_err());
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut h = Heap::new();
        let a = h.alloc(Value::Int(1));
        h.dispose(a).unwrap();
        let b = h.alloc(Value::Int(2));
        // Same slot, different generation: the old ref stays dead.
        assert!(h.get(a).is_err());
        assert_eq!(h.get(b).unwrap(), &Value::Int(2));
        assert_eq!(h.total, 1);
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(1));
        let snapshot = h.clone();
        *h.get_mut(r).unwrap() = Value::Int(99);
        h.dispose(r).unwrap();
        // The snapshot still sees the original value.
        assert_eq!(snapshot.get(r).unwrap(), &Value::Int(1));
        assert_eq!(snapshot.live(), 1);
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn clone_shares_chunks_until_written() {
        let mut h = Heap::new();
        let refs: Vec<_> = (0..CHUNK_CELLS as i64 * 3)
            .map(|i| h.alloc(Value::Int(i)))
            .collect();
        let snapshot = h.clone();
        assert_eq!(h.chunk_count(), 3);
        assert_eq!(h.shared_chunks(), 3, "a fresh clone shares everything");

        // One write breaks exactly the containing chunk's sharing.
        *h.get_mut(refs[0]).unwrap() = Value::Int(-1);
        assert_eq!(h.shared_chunks(), 2);
        assert_eq!(snapshot.shared_chunks(), 2);
        // The other cells of the broken chunk were copied, not lost.
        assert_eq!(h.get(refs[1]).unwrap(), &Value::Int(1));
        assert_eq!(snapshot.get(refs[0]).unwrap(), &Value::Int(0));
    }

    #[test]
    fn clone_from_is_a_clone_into_the_targets_buffers() {
        let mut h = Heap::new();
        let refs: Vec<_> = (0..CHUNK_CELLS as i64 * 3)
            .map(|i| h.alloc(Value::Int(i)))
            .collect();
        h.dispose(refs[5]).unwrap();
        let shared_by_a_clone = {
            let _clone = h.clone();
            h.shared_chunks()
        };
        // A spare with room for the chunk table and the free list.
        let mut spare = Heap::new();
        let mut spare_refs: Vec<_> = (0..CHUNK_CELLS as i64 * 4)
            .map(|i| spare.alloc(Value::Int(-i)))
            .collect();
        for r in spare_refs.drain(..3) {
            spare.dispose(r).unwrap();
        }
        spare.clear();
        assert_eq!(spare.shared_chunks(), 0);
        let (table, free) = (spare.chunks.as_ptr(), spare.free.as_ptr());

        spare.clone_from(&h);
        assert_eq!(spare, h.clone());
        assert_eq!(h.shared_chunks(), shared_by_a_clone);
        assert_eq!(spare.shared_chunks(), shared_by_a_clone);
        assert_eq!(spare.chunks.as_ptr(), table, "the chunk table is reused");
        assert_eq!(spare.free.as_ptr(), free, "the free list is reused");

        // A write into either side leaves the other as it was.
        *spare.get_mut(refs[0]).unwrap() = Value::Int(100);
        *h.get_mut(refs[1]).unwrap() = Value::Int(101);
        spare.alloc(Value::Int(102));
        assert_eq!(h.get(refs[0]).unwrap(), &Value::Int(0));
        assert_eq!(spare.get(refs[1]).unwrap(), &Value::Int(1));
        assert_eq!(h.live(), CHUNK_CELLS * 3 - 1);
        assert_eq!(spare.live(), CHUNK_CELLS * 3);
    }

    #[test]
    fn dangling_write_does_not_break_sharing() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(1));
        h.dispose(r).unwrap();
        let _snapshot = h.clone();
        assert!(h.get_mut(r).is_err());
        assert_eq!(h.shared_chunks(), 1, "failed write must stay read-only");
    }

    #[test]
    fn approx_bytes_counts_cell_storage_once() {
        let mut h = Heap::new();
        let empty = h.approx_bytes();
        let r = h.alloc(Value::Array(vec![Value::Int(0); 4]));
        let with_cell = h.approx_bytes();
        // The cell contributes its slot plus the array's out-of-line
        // elements — not slot + (inline + elements), which double-counted
        // the inline portion.
        let expected = std::mem::size_of::<Cell>() + 4 * std::mem::size_of::<Value>();
        assert!(with_cell >= empty + expected);
        assert!(with_cell < empty + expected + 2 * std::mem::size_of::<Cell>());
        h.dispose(r).unwrap();
    }

    #[test]
    fn hash_and_eq_follow_content_not_sharing() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = Heap::new();
        h.alloc(Value::Int(3));
        let mut shared = h.clone();
        // The same content allocated afresh: a twin sharing no chunk.
        let mut fresh = Heap::new();
        fresh.alloc(Value::Int(3));
        assert_eq!(fresh.shared_chunks(), 0);
        let digest = |heap: &Heap| {
            let mut s = DefaultHasher::new();
            heap.hash(&mut s);
            s.finish()
        };
        assert_eq!(digest(&h), digest(&shared));
        assert_eq!(digest(&h), digest(&fresh));
        assert_eq!(shared, fresh);
        // Diverge one and the digests diverge too.
        shared.alloc(Value::Int(4));
        assert_ne!(digest(&h), digest(&shared));
        assert_ne!(shared, fresh);
    }
}
