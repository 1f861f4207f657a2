//! Place (l-value) resolution.
//!
//! A [`CPlace`] resolves to a *root* (global slot, frame slot or heap cell)
//! plus a path of positions through nested arrays/records. Resolution
//! evaluates index expressions and checks bounds; navigation then borrows
//! the target value for reading or writing.

use super::{Interp, Store};
use crate::env::OutputSink;
use crate::error::{RtResult, RuntimeError};
use crate::heap::HeapRef;
use crate::ir::{CPlace, Slot};
use crate::trail::Written;
use crate::value::Value;

/// Where a resolved place lives.
#[derive(Clone, Debug)]
pub(crate) enum Root {
    Global(usize),
    Local(usize),
    Heap(HeapRef),
}

/// A fully resolved place: root storage plus element positions.
#[derive(Clone, Debug)]
pub(crate) struct ResolvedPlace {
    pub root: Root,
    pub path: Vec<usize>,
}

impl<'m> Interp<'m> {
    /// Resolve a place, evaluating indices and following pointers.
    pub(super) fn resolve_place(
        &self,
        place: &CPlace,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<ResolvedPlace> {
        match place {
            CPlace::Var(Slot::Global(i)) => Ok(ResolvedPlace {
                root: Root::Global(*i),
                path: Vec::new(),
            }),
            CPlace::Var(Slot::Local(i)) => Ok(ResolvedPlace {
                root: Root::Local(*i),
                path: Vec::new(),
            }),
            CPlace::Field(base, pos) => {
                let mut r = self.resolve_place(base, store, frame, sink, depth)?;
                r.path.push(*pos);
                Ok(r)
            }
            CPlace::Index {
                base,
                index,
                lo,
                len,
                span,
            } => {
                let mut r = self.resolve_place(base, store, frame, sink, depth)?;
                let iv = self.eval(index, store, frame, sink, depth)?;
                let ord = self.require_ordinal(&iv, *span)?;
                let off = ord - lo;
                if off < 0 || off as usize >= *len {
                    return Err(RuntimeError::bounds(format!(
                        "index {} outside bounds {}..{}",
                        ord,
                        lo,
                        lo + *len as i64 - 1
                    ))
                    .with_span(*span));
                }
                r.path.push(off as usize);
                Ok(r)
            }
            CPlace::Deref(base, span) => {
                let r = self.resolve_place(base, store, frame, sink, depth)?;
                let v = read_resolved(&r, store, frame)?;
                match v {
                    Value::Pointer(Some(href)) => Ok(ResolvedPlace {
                        root: Root::Heap(*href),
                        path: Vec::new(),
                    }),
                    Value::Pointer(None) => {
                        Err(RuntimeError::dangling("dereference of nil").with_span(*span))
                    }
                    Value::Undefined => Err(RuntimeError::undefined(
                        "dereference of an undefined pointer",
                    )
                    .with_span(*span)),
                    other => Err(RuntimeError::internal(format!(
                        "dereference of non-pointer value {}",
                        other
                    ))
                    .with_span(*span)),
                }
            }
        }
    }

    /// Read a place's current value (cloned).
    pub(super) fn read_place(
        &self,
        place: &CPlace,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<Value> {
        let r = self.resolve_place(place, store, frame, sink, depth)?;
        read_resolved(&r, store, frame).cloned()
    }

    /// Overwrite a place with `value`.
    pub(super) fn write_place(
        &self,
        place: &CPlace,
        value: Value,
        store: &mut Store<'_>,
        frame: &mut Vec<Value>,
        sink: &mut dyn OutputSink,
        depth: usize,
    ) -> RtResult<()> {
        let r = self.resolve_place(place, store, frame, sink, depth)?;
        write_resolved(&r, store, frame, value)
    }
}

/// Navigate to the value a resolved place denotes.
pub(crate) fn read_resolved<'v>(
    r: &ResolvedPlace,
    store: &'v Store<'_>,
    frame: &'v [Value],
) -> RtResult<&'v Value> {
    let mut v: &Value = match &r.root {
        Root::Global(i) => store
            .globals
            .get(*i)
            .ok_or_else(|| RuntimeError::internal("global slot out of range"))?,
        Root::Local(i) => frame
            .get(*i)
            .ok_or_else(|| RuntimeError::internal("frame slot out of range"))?,
        Root::Heap(href) => store.heap.get(*href)?,
    };
    for &pos in &r.path {
        v = match v {
            Value::Array(vs) | Value::Record(vs) => vs
                .get(pos)
                .ok_or_else(|| RuntimeError::internal("place path out of range"))?,
            Value::Undefined => {
                return Err(RuntimeError::undefined(
                    "component access inside an undefined composite",
                ))
            }
            other => {
                return Err(RuntimeError::internal(format!(
                    "place path through non-composite {}",
                    other
                )))
            }
        };
    }
    Ok(v)
}

/// Overwrite the value a resolved place denotes with `value`. A write
/// into a global or a heap cell moves the value it overwrites into the
/// store's trail, when it has one; a frame slot is never trailed.
pub(crate) fn write_resolved(
    r: &ResolvedPlace,
    store: &mut Store<'_>,
    frame: &mut [Value],
    value: Value,
) -> RtResult<()> {
    let Store {
        globals,
        heap,
        trail,
    } = store;
    let (root, at) = match &r.root {
        Root::Global(i) => (
            globals
                .get_mut(*i)
                .ok_or_else(|| RuntimeError::internal("global slot out of range"))?,
            Written::Global(*i),
        ),
        Root::Local(i) => {
            let slot = frame
                .get_mut(*i)
                .ok_or_else(|| RuntimeError::internal("frame slot out of range"))?;
            *component_mut(slot, &r.path)? = value;
            return Ok(());
        }
        Root::Heap(href) => (heap.get_mut(*href)?, Written::Cell(*href)),
    };
    let old = std::mem::replace(component_mut(root, &r.path)?, value);
    if let Some(trail) = trail {
        trail.write(at, &r.path, old);
    }
    Ok(())
}

/// Navigate from `v` down `path` to a mutable component.
pub(crate) fn component_mut<'v>(mut v: &'v mut Value, path: &[usize]) -> RtResult<&'v mut Value> {
    for &pos in path {
        v = match v {
            Value::Array(vs) | Value::Record(vs) => vs
                .get_mut(pos)
                .ok_or_else(|| RuntimeError::internal("place path out of range"))?,
            Value::Undefined => {
                return Err(RuntimeError::undefined(
                    "component assignment inside an undefined composite",
                ))
            }
            other => {
                return Err(RuntimeError::internal(format!(
                    "place path through non-composite {}",
                    other
                )))
            }
        };
    }
    Ok(v)
}
