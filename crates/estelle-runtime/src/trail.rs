//! The trail: *Save* as a mark, *Restore* as an undo.
//!
//! A depth-first search saves the state at every branching node and
//! restores it for every sibling (paper §2.2); §3.2.2 names those two
//! the dominant cost. When the saved nodes form a stack over one live
//! state, as in the complete-trace search, a save can instead push a
//! **mark**, every write made to the live state while a mark exists can
//! record how to undo itself, and a restore can unwind those records down
//! to the top mark: the trail of the CLP engines. Nothing is copied: a
//! write moves the value it overwrites into its record
//! (`std::mem::replace`), and the undo moves it back.
//!
//! The records are made at the write points both executors share through
//! [`crate::interp::Store`]: a component write (`write_resolved`), `new`
//! ([`crate::heap::Heap::alloc`]), `dispose`, and the control-state
//! change at the end of [`crate::Machine::fire_trailed`]. While no mark
//! exists no record is made.
//!
//! An undo to a mark needs only the oldest record of each place written
//! since the mark. For globals that is cheap to know: the marks, undos
//! and mark pops cut the trail into **segments**, and a whole-slot write
//! stamps its slot with the current segment when it records. Until the
//! next cut, every later write into that slot, whole or component,
//! records nothing: the stamped record already holds the slot as it
//! stood. (A specification body that writes `tmp := …` and then
//! `tmp := nil` records one write, not two.) Heap cells are not stamped.

use crate::heap::HeapRef;
use crate::interp::place::component_mut;
use crate::machine::MachineState;
use crate::value::Value;
use estelle_frontend::sema::model::StateId;

/// The root a trailed component write landed in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Written {
    Global(usize),
    Cell(HeapRef),
}

/// How to undo one write.
#[derive(Debug)]
enum Undo {
    /// The control state before a fire changed it.
    Control(StateId),
    /// The value a component write overwrote; its path inside the root
    /// is `positions[from..]` while it is the newest record.
    Write {
        at: Written,
        from: usize,
        old: Value,
    },
    /// A cell `new` allocated.
    Alloc(HeapRef),
    /// A cell `dispose` freed, with the value it held.
    Dispose(HeapRef, Value),
}

/// A log of undoable writes to one live [`MachineState`], cut by marks.
#[derive(Debug, Default)]
pub struct Trail {
    records: Vec<Undo>,
    /// Component paths of the `Write` records, end to end.
    positions: Vec<usize>,
    /// The record count at each mark, oldest first.
    marks: Vec<usize>,
    /// The current segment: bumped by every mark, undo and mark pop.
    segment: u64,
    /// Per global slot, the segment in which a whole-slot write of it
    /// was last recorded.
    stamps: Vec<u64>,
}

impl Trail {
    pub fn new() -> Self {
        Trail::default()
    }

    /// *Save*: from now on, writes record their undo back to this point.
    pub fn mark(&mut self) {
        self.marks.push(self.records.len());
        self.segment += 1;
    }

    /// Marks pushed and not popped.
    pub fn depth(&self) -> usize {
        self.marks.len()
    }

    /// Whether writes must be recorded: there is a mark to unwind to.
    pub fn is_marked(&self) -> bool {
        !self.marks.is_empty()
    }

    /// *Restore*: undo, newest first, every write made to `st` since the
    /// top mark, which stays. `st` must be the state those writes were
    /// made to.
    pub fn undo(&mut self, st: &mut MachineState) {
        let mark = *self.marks.last().expect("a mark to undo to");
        self.segment += 1;
        while self.records.len() > mark {
            match self.records.pop().expect("a record above the mark") {
                Undo::Control(control) => st.control = control,
                Undo::Write { at, from, old } => {
                    let root = match at {
                        Written::Global(slot) => &mut st.globals[slot],
                        Written::Cell(r) => st.heap.get_mut(r).expect("an undone cell is live"),
                    };
                    *component_mut(root, &self.positions[from..])
                        .expect("an undone write retraces its own path") = old;
                    self.positions.truncate(from);
                }
                Undo::Alloc(r) => st.heap.undo_alloc(r),
                Undo::Dispose(r, value) => st.heap.undo_dispose(r, value),
            }
        }
    }

    /// Forget the top mark, if there is one. Writes made since it stay
    /// undoable to the mark below; with the last mark, the trail
    /// empties.
    pub fn pop_mark(&mut self) {
        self.marks.pop();
        self.segment += 1;
        if self.marks.is_empty() {
            self.records.clear();
            self.positions.clear();
        }
    }

    pub(crate) fn control(&mut self, old: StateId) {
        self.records.push(Undo::Control(old));
    }

    /// Record a component write into `at`, unless its slot's value as of
    /// the segment's start is already recorded.
    pub(crate) fn write(&mut self, at: Written, path: &[usize], old: Value) {
        if let Written::Global(slot) = at {
            if self.stamps.get(slot) == Some(&self.segment) {
                return;
            }
            if path.is_empty() {
                if slot >= self.stamps.len() {
                    self.stamps.resize(slot + 1, 0);
                }
                self.stamps[slot] = self.segment;
            }
        }
        let from = self.positions.len();
        self.positions.extend_from_slice(path);
        self.records.push(Undo::Write { at, from, old });
    }

    pub(crate) fn alloc(&mut self, r: HeapRef) {
        self.records.push(Undo::Alloc(r));
    }

    pub(crate) fn dispose(&mut self, r: HeapRef, value: Value) {
        self.records.push(Undo::Dispose(r, value));
    }
}
