//! Stable binary encoding of runtime state.
//!
//! The trace analyzer's durable checkpoints (see the `tango` crate's
//! checkpoint codec) must serialize [`MachineState`] — control state,
//! module variables, dynamic memory — so a limit-stopped analysis can be
//! resumed by a *different process*, possibly after the original one was
//! killed. This module provides the byte-level primitives and the
//! encode/decode of everything the runtime owns. It is deliberately
//! hand-rolled (no external serialization crates, matching the repo's
//! no-dependency rule) and **checksum-free**: integrity, versioning and
//! atomicity are the responsibility of the enclosing file format, which
//! frames these bytes in checksummed sections.
//!
//! Encoding conventions: all integers little-endian and fixed-width
//! (`u8`/`u32`/`u64`/`i64`), lengths as `u32` or `u64`, strings as
//! `u32` length + UTF-8 bytes, `Option`/enum variants as one tag byte.
//! The encoding is *stable*: changing it requires bumping the enclosing
//! checkpoint format's version number, never silently reinterpreting
//! bytes.
//!
//! Decoding is **total**: any byte sequence either decodes or returns a
//! typed [`CodecError`] — out-of-range tags, truncated input and
//! inconsistent internal lengths are errors, never panics, so a corrupt
//! checkpoint that slips past the outer checksums still cannot take the
//! process down.

use crate::heap::Heap;
use crate::machine::MachineState;
use crate::value::{SmallSet, Value};
use estelle_frontend::sema::model::StateId;
use estelle_frontend::sema::types::TypeId;
use std::fmt;

/// Why a decode failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The bytes are structurally invalid (unknown tag, length
    /// inconsistency, non-UTF-8 string …).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { context } => {
                write!(f, "truncated input while decoding {}", context)
            }
            CodecError::Malformed(m) => write!(f, "malformed encoding: {}", m),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink for encoding.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` travels as `u64` so 32- and 64-bit readers agree.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a byte slice for decoding. Every read is bounds-checked
/// and returns [`CodecError::Truncated`] past the end.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!(
                "bad boolean byte {} in {}",
                other, context
            ))),
        }
    }

    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn get_i64(&mut self, context: &'static str) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn get_usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.get_u64(context)?;
        usize::try_from(v)
            .map_err(|_| CodecError::Malformed(format!("{} does not fit usize in {}", v, context)))
    }

    /// A `u32`-prefixed length, additionally sanity-checked against the
    /// bytes actually remaining so a corrupt length cannot trigger a
    /// huge allocation before the inevitable truncation error.
    pub fn get_len(
        &mut self,
        per_item_floor: usize,
        context: &'static str,
    ) -> Result<usize, CodecError> {
        let n = self.get_u32(context)? as usize;
        if n.saturating_mul(per_item_floor.max(1)) > self.remaining() {
            return Err(CodecError::Truncated { context });
        }
        Ok(n)
    }

    pub fn get_str(&mut self, context: &'static str) -> Result<String, CodecError> {
        let n = self.get_len(1, context)?;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Malformed(format!("non-UTF-8 string in {}", context)))
    }
}

// Value variant tags. Appending is fine; renumbering requires a version
// bump of the enclosing checkpoint format.
const V_UNDEFINED: u8 = 0;
const V_INT: u8 = 1;
const V_BOOL: u8 = 2;
const V_ENUM: u8 = 3;
const V_SET: u8 = 4;
const V_ARRAY: u8 = 5;
const V_RECORD: u8 = 6;
const V_NIL: u8 = 7;
const V_POINTER: u8 = 8;

/// Encode one runtime value.
pub fn encode_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Undefined => w.put_u8(V_UNDEFINED),
        Value::Int(i) => {
            w.put_u8(V_INT);
            w.put_i64(*i);
        }
        Value::Bool(b) => {
            w.put_u8(V_BOOL);
            w.put_bool(*b);
        }
        Value::Enum(ty, ord) => {
            w.put_u8(V_ENUM);
            w.put_u32(ty.0);
            w.put_i64(*ord);
        }
        Value::Set(s) => {
            w.put_u8(V_SET);
            w.put_u32(s.len() as u32);
            for m in s.iter() {
                w.put_i64(m);
            }
        }
        Value::Array(vs) => {
            w.put_u8(V_ARRAY);
            w.put_u32(vs.len() as u32);
            for e in vs {
                encode_value(w, e);
            }
        }
        Value::Record(vs) => {
            w.put_u8(V_RECORD);
            w.put_u32(vs.len() as u32);
            for e in vs {
                encode_value(w, e);
            }
        }
        Value::Pointer(None) => w.put_u8(V_NIL),
        Value::Pointer(Some(r)) => {
            let (index, generation) = r.raw_parts();
            w.put_u8(V_POINTER);
            w.put_u32(index);
            w.put_u32(generation);
        }
    }
}

/// Decode one runtime value.
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, CodecError> {
    Ok(match r.get_u8("value tag")? {
        V_UNDEFINED => Value::Undefined,
        V_INT => Value::Int(r.get_i64("integer value")?),
        V_BOOL => Value::Bool(r.get_bool("boolean value")?),
        V_ENUM => {
            let ty = TypeId(r.get_u32("enum type")?);
            Value::Enum(ty, r.get_i64("enum ordinal")?)
        }
        V_SET => {
            let n = r.get_len(8, "set members")?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(r.get_i64("set member")?);
            }
            Value::Set(SmallSet::from_iter(members))
        }
        V_ARRAY => {
            let n = r.get_len(1, "array elements")?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(decode_value(r)?);
            }
            Value::Array(vs)
        }
        V_RECORD => {
            let n = r.get_len(1, "record fields")?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(decode_value(r)?);
            }
            Value::Record(vs)
        }
        V_NIL => Value::Pointer(None),
        V_POINTER => {
            let index = r.get_u32("pointer index")?;
            let generation = r.get_u32("pointer generation")?;
            Value::Pointer(Some(crate::heap::HeapRef::from_raw_parts(index, generation)))
        }
        other => {
            return Err(CodecError::Malformed(format!(
                "unknown value tag {}",
                other
            )))
        }
    })
}

/// Encode a complete machine state (§2.3: control state, module
/// variables, dynamic memory).
pub fn encode_state(w: &mut ByteWriter, st: &MachineState) {
    w.put_u32(st.control.0);
    w.put_u32(st.globals.len() as u32);
    for g in &st.globals {
        encode_value(w, g);
    }
    st.heap.encode(w);
}

/// Decode a machine state. The result is structurally valid (the heap's
/// free list is consistent) but semantically unchecked against any
/// specification — callers resuming a search must validate shapes
/// (transition indices, IP counts) against their compiled module.
pub fn decode_state(r: &mut ByteReader<'_>) -> Result<MachineState, CodecError> {
    let control = StateId(r.get_u32("control state")?);
    let n = r.get_len(1, "globals")?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        globals.push(decode_value(r)?);
    }
    let heap = Heap::decode(r)?;
    Ok(MachineState {
        control,
        globals,
        heap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn roundtrip_value(v: &Value) -> Value {
        let mut w = ByteWriter::new();
        encode_value(&mut w, v);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let out = decode_value(&mut r).expect("decodes");
        assert!(r.is_done(), "no trailing bytes");
        out
    }

    #[test]
    fn primitive_values_roundtrip() {
        for v in [
            Value::Undefined,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Bool(true),
            Value::Enum(TypeId(7), 3),
            Value::Pointer(None),
            Value::Set(SmallSet::from_iter([3, -1, 8])),
        ] {
            assert_eq!(roundtrip_value(&v), v);
        }
    }

    #[test]
    fn composite_values_roundtrip() {
        let v = Value::Record(vec![
            Value::Array(vec![Value::Int(1), Value::Undefined]),
            Value::Set(SmallSet::from_iter([2, 2, 5])),
            Value::Record(vec![]),
        ]);
        assert_eq!(roundtrip_value(&v), v);
    }

    #[test]
    fn pointer_values_roundtrip_through_a_heap() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(9));
        let v = Value::Pointer(Some(r));
        let back = roundtrip_value(&v);
        assert_eq!(back, v);
        // The decoded ref still dereferences in the original heap.
        match back {
            Value::Pointer(Some(r2)) => assert_eq!(h.get(r2).unwrap(), &Value::Int(9)),
            other => panic!("expected pointer, got {:?}", other),
        }
    }

    #[test]
    fn machine_state_roundtrips_with_heap_structure() {
        let m = Machine::from_source(
            r#"
            specification s;
            module M process; end;
            body MB for M;
                var n : integer;
                state S;
                initialize to S begin n := 41 end;
            end;
            end.
            "#,
        )
        .unwrap();
        let mut st = m.initial_state().unwrap();
        // Build heap structure with a hole so the free list matters.
        let a = st.heap.alloc(Value::Int(1));
        let b = st.heap.alloc(Value::Array(vec![Value::Int(2); 3]));
        st.heap.dispose(a).unwrap();
        st.globals[0] = Value::Int(41);

        let mut w = ByteWriter::new();
        encode_state(&mut w, &st);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut back = decode_state(&mut r).expect("state decodes");
        assert!(r.is_done());

        assert_eq!(back, st);
        assert_eq!(back.heap.live(), st.heap.live());
        assert_eq!(back.heap.slots(), st.heap.slots());
        // The dangling ref stays dead, the live one stays live.
        assert!(back.heap.get(a).is_err());
        assert_eq!(back.heap.get(b).unwrap(), st.heap.get(b).unwrap());
        // Free-list order survives: the next allocation reuses the same
        // slot with the same bumped generation in both heaps.
        let r1 = st.heap.alloc(Value::Int(5));
        let r2 = back.heap.alloc(Value::Int(5));
        assert_eq!(r1, r2);
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut w = ByteWriter::new();
        encode_value(&mut w, &Value::Array(vec![Value::Int(3); 4]));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                decode_value(&mut r).is_err(),
                "prefix of length {} must not decode",
                cut
            );
        }
    }

    #[test]
    fn unknown_tag_is_malformed() {
        let bytes = [0xEEu8];
        let mut r = ByteReader::new(&bytes);
        match decode_value(&mut r) {
            Err(CodecError::Malformed(m)) => assert!(m.contains("tag")),
            other => panic!("expected Malformed, got {:?}", other),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // A set claiming u32::MAX members in a 5-byte buffer.
        let mut w = ByteWriter::new();
        w.put_u8(V_SET);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            decode_value(&mut r),
            Err(CodecError::Truncated { .. })
        ));
    }
}
