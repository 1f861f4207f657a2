//! Disk spill tier for the snapshot store: degrade to disk bandwidth
//! under memory pressure instead of dying `Inconclusive(MemoryLimit)`.
//!
//! With a `--max-mem` budget and a spill directory, cold snapshots are
//! encoded with the stable [`estelle_runtime::codec`] into append-only
//! segment files and evicted from RAM; a later *Restore* faults the
//! snapshot back in, verifying its CRC32 before the search trusts it.
//! The tier changes **where bytes live, never what the search decides**:
//! verdicts and the paper's TE/GE/RE/SA counters are bit-identical to an
//! all-in-RAM run.
//!
//! Segment file layout (`spill-NNNNNNNN.seg`):
//!
//! ```text
//! +----------------+---------+
//! | magic (8B)     | version |   header (12 bytes)
//! | b"TANGOSPL"    |  u32 LE |
//! +----------------+---------+
//! | key u64 | len u32 | crc u32 | payload[len] |   one per record
//! +--------------------------------------------+
//! | ...                                        |
//! +--------------------------------------------+
//! ```
//!
//! The payload is one [`encode_state`] snapshot; `crc` is the CRC32 of
//! the payload alone, so a record is verifiable in isolation. There is
//! no trailer: a crash mid-append leaves a torn tail that the reopen
//! scan detects (record header or payload extending past end-of-file)
//! and steps over — every record before the tear is still readable.
//!
//! Fault tolerance, in order of escalation:
//!
//! * **transient I/O errors** (a failed append or read) retry with
//!   bounded exponential backoff; a failed append first truncates the
//!   segment back to its last committed length so no torn record is
//!   left behind, and rotates to a fresh segment if even the truncate
//!   fails;
//! * **unrecoverable failures** (retries exhausted — the ENOSPC case —
//!   or a checksum mismatch on read-back) surface as a typed
//!   [`SpillError`]; the search degrades to
//!   `Inconclusive(SpillFailure)` with a partial report instead of
//!   panicking;
//! * **reopen** (checkpoint resume, or a crashed process restarting)
//!   re-scans every segment, CRC-verifying each record into an
//!   in-memory content-key index; re-evicting a state whose identical
//!   bytes already sit in a segment is then write-free (*adoption*).
//!
//! Writes are deliberately **not** fsynced per record: the spill tier is
//! a cache of resident state, not the durability story — that is the
//! checkpoint's job. A lost spill segment costs re-derivable work only.
//!
//! [`FaultySpillDir`] wraps any [`SpillDir`] with a deterministic
//! [`SpillFaultPlan`] (error-on-Nth-write/read, short writes, bit
//! flips, hard disk-full) so every degradation path above is testable.

use estelle_runtime::codec::{decode_state, encode_state};
use estelle_runtime::{ByteReader, ByteWriter, MachineState};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::checkpoint::codec::crc32;
use crate::fault::RetryPolicy;

// The spill record key and the search's visited-set fingerprint both use
// the runtime's fast content hasher; the heap side feeds it from cached
// per-chunk digests, so hashing a state is O(chunks), not O(cells).
pub(crate) use estelle_runtime::FxHasher;

/// Hasher for the visited set. Its keys are already well-mixed 64-bit
/// content hashes; re-hashing them with SipHash would cost more than the
/// set operation itself.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Feed a machine state (control + globals + heap) into `h`.
pub(crate) fn hash_state(h: &mut FxHasher, state: &MachineState) {
    state.control.hash(h);
    state.globals.hash(h);
    state.heap.hash(h);
}

/// Content hash of a machine state — the key a spilled snapshot's
/// segment record carries, which lets a reopened tier adopt an identical
/// record instead of rewriting it. Trace cursors are excluded: they are
/// not part of the spilled bytes.
pub(crate) fn state_key(state: &MachineState) -> u64 {
    let mut h = FxHasher::default();
    hash_state(&mut h, state);
    h.finish()
}

/// First 8 bytes of every spill segment file.
pub const SPILL_MAGIC: [u8; 8] = *b"TANGOSPL";

/// Current segment format version. Bump on any layout change; readers
/// refuse every other version with [`SpillError::UnsupportedVersion`].
pub const SPILL_VERSION: u32 = 1;

/// Segment header length: magic + version.
const HEADER_LEN: u64 = 12;

/// Per-record header length: key + payload length + payload CRC32.
const RECORD_HEADER_LEN: u64 = 16;

// ------------------------------------------------------------ errors

/// Why a spill-tier operation failed. Every way a segment can be wrong
/// maps to a typed variant — never a panic.
#[derive(Debug)]
pub enum SpillError {
    /// The underlying I/O operation failed after exhausting retries.
    Io {
        context: String,
        error: io::Error,
    },
    /// A segment file does not start with the spill magic.
    BadMagic { segment: u32 },
    /// A segment's format version is not the one this build reads.
    UnsupportedVersion {
        segment: u32,
        found: u32,
        supported: u32,
    },
    /// A segment ends before its structure is complete.
    Truncated {
        segment: u32,
        context: &'static str,
    },
    /// A record fails its checksum or decodes to garbage.
    Corrupt {
        segment: u32,
        offset: u64,
        context: String,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io { context, error } => {
                write!(f, "spill I/O error while {}: {}", context, error)
            }
            SpillError::BadMagic { segment } => {
                write!(f, "spill segment {} is not a spill file (bad magic)", segment)
            }
            SpillError::UnsupportedVersion {
                segment,
                found,
                supported,
            } => write!(
                f,
                "spill segment {} has format version {} (this build reads only version {})",
                segment, found, supported
            ),
            SpillError::Truncated { segment, context } => {
                write!(f, "spill segment {} truncated while reading {}", segment, context)
            }
            SpillError::Corrupt {
                segment,
                offset,
                context,
            } => write!(
                f,
                "spill segment {} corrupt at byte {}: {}",
                segment, offset, context
            ),
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

// ----------------------------------------------------------- tickets

/// Claim check for one spilled snapshot: enough to read the record back
/// and verify it without trusting anything on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillTicket {
    /// Segment the record lives in.
    pub segment: u32,
    /// Byte offset of the record's *payload* within the segment.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Expected CRC32 of the payload.
    pub crc: u32,
    /// Content key of the snapshot (`state_key`), used for adoption.
    pub key: u64,
}

/// One CRC-verified record found by a segment scan.
#[derive(Clone, Copy, Debug)]
struct SegmentRecord {
    segment: u32,
    offset: u64,
    len: u32,
    crc: u32,
}

// ------------------------------------------------------ storage traits

/// One append-only segment: the minimal surface the tier needs, kept as
/// a trait so fault injection can sit between the tier and the
/// filesystem.
#[allow(clippy::len_without_is_empty)]
pub trait SpillMedium: Send {
    /// Append `data` at end-of-file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Read exactly `buf.len()` bytes starting at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Current length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// Cut the file back to `len` bytes (torn-tail repair).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// A directory of numbered segments.
pub trait SpillDir: Send {
    /// Open segment `id` for appending, creating it if absent.
    fn create_segment(&mut self, id: u32) -> io::Result<Box<dyn SpillMedium>>;
    /// Open an existing segment `id` for reading.
    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SpillMedium>>;
    /// All existing segment ids, ascending.
    fn list_segments(&mut self) -> io::Result<Vec<u32>>;
}

// ------------------------------------------------- filesystem backend

/// The real filesystem backend: `spill-NNNNNNNN.seg` files in one
/// directory (created on first use).
pub struct FsSpillDir {
    root: PathBuf,
}

impl FsSpillDir {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        FsSpillDir { root: root.into() }
    }

    fn segment_path(&self, id: u32) -> PathBuf {
        self.root.join(format!("spill-{:08}.seg", id))
    }
}

impl SpillDir for FsSpillDir {
    fn create_segment(&mut self, id: u32) -> io::Result<Box<dyn SpillMedium>> {
        fs::create_dir_all(&self.root)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.segment_path(id))?;
        Ok(Box::new(FsSegment { file }))
    }

    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SpillMedium>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.segment_path(id))?;
        Ok(Box::new(FsSegment { file }))
    }

    fn list_segments(&mut self) -> io::Result<Vec<u32>> {
        fs::create_dir_all(&self.root)?;
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("spill-")
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|digits| digits.parse::<u32>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

struct FsSegment {
    file: fs::File,
}

impl SpillMedium for FsSegment {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(data)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

// ------------------------------------------------------ fault injection

/// Which disk faults to inject, and how often, in a [`FaultySpillDir`].
///
/// Each `*_every` field counts in operations of that kind across all
/// segments of the directory; `0` disables that fault. The schedule is
/// deterministic, so spill fault-injection tests are exactly
/// reproducible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillFaultPlan {
    /// Fail every n-th append with a transient I/O error.
    pub write_error_every: u64,
    /// On every n-th append, write only half the data, then fail — the
    /// torn write of a crashing or out-of-space filesystem.
    pub short_write_every: u64,
    /// Fail every n-th read with a transient I/O error.
    pub read_error_every: u64,
    /// Flip one bit in the buffer of every n-th read — silent media
    /// corruption the CRC must catch.
    pub flip_bit_every: u64,
    /// After this many appends have been attempted, every further
    /// append fails permanently — the disk-full (ENOSPC) model that
    /// retries cannot save.
    pub hard_writes_after: Option<u64>,
}

#[derive(Default)]
struct FaultCounters {
    appends: u64,
    reads: u64,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("{} (injected)", what))
}

fn due(op: u64, every: u64) -> bool {
    every > 0 && op.is_multiple_of(every)
}

/// A fault-injecting [`SpillDir`] wrapper for robustness testing. The
/// operation counters are shared across every segment the directory
/// hands out, so a plan describes the whole device, not one file.
pub struct FaultySpillDir {
    inner: Box<dyn SpillDir>,
    plan: SpillFaultPlan,
    counters: Arc<Mutex<FaultCounters>>,
}

impl FaultySpillDir {
    pub fn new(inner: Box<dyn SpillDir>, plan: SpillFaultPlan) -> Self {
        FaultySpillDir {
            inner,
            plan,
            counters: Arc::new(Mutex::new(FaultCounters::default())),
        }
    }

    fn wrap(&self, medium: Box<dyn SpillMedium>) -> Box<dyn SpillMedium> {
        Box::new(FaultyMedium {
            inner: medium,
            plan: self.plan,
            counters: Arc::clone(&self.counters),
        })
    }
}

impl SpillDir for FaultySpillDir {
    fn create_segment(&mut self, id: u32) -> io::Result<Box<dyn SpillMedium>> {
        self.inner.create_segment(id).map(|m| self.wrap(m))
    }

    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SpillMedium>> {
        self.inner.open_segment(id).map(|m| self.wrap(m))
    }

    fn list_segments(&mut self) -> io::Result<Vec<u32>> {
        self.inner.list_segments()
    }
}

struct FaultyMedium {
    inner: Box<dyn SpillMedium>,
    plan: SpillFaultPlan,
    counters: Arc<Mutex<FaultCounters>>,
}

impl SpillMedium for FaultyMedium {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let op = {
            let mut c = self.counters.lock().expect("fault counter lock");
            c.appends += 1;
            c.appends
        };
        if let Some(after) = self.plan.hard_writes_after {
            if op > after {
                return Err(injected("disk full"));
            }
        }
        if due(op, self.plan.short_write_every) {
            self.inner.append(&data[..data.len() / 2])?;
            return Err(injected("short write"));
        }
        if due(op, self.plan.write_error_every) {
            return Err(injected("write I/O error"));
        }
        self.inner.append(data)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let op = {
            let mut c = self.counters.lock().expect("fault counter lock");
            c.reads += 1;
            c.reads
        };
        if due(op, self.plan.read_error_every) {
            return Err(injected("read I/O error"));
        }
        self.inner.read_at(offset, buf)?;
        if due(op, self.plan.flip_bit_every) && !buf.is_empty() {
            let mid = buf.len() / 2;
            buf[mid] ^= 0x01;
        }
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

// ---------------------------------------------------------- the tier

/// Spill activity counters, folded into
/// [`crate::SearchStats`] (`spill_*`) at telemetry sync points.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpillCounters {
    /// Snapshot records written to segments.
    pub writes: u64,
    /// Snapshot records read (and CRC-verified) back.
    pub reads: u64,
    /// Transient I/O errors absorbed by retry + backoff.
    pub retries: u64,
    /// Operations abandoned after exhausting the retry budget — the
    /// error then surfaces as a typed [`SpillError`] and the search
    /// degrades to `Inconclusive(SpillFailure)`.
    pub giveups: u64,
    /// Snapshots evicted from RAM (writes + write-free adoptions).
    pub evictions: u64,
    /// Evictions satisfied by an identical record already on disk.
    pub adopted: u64,
}

/// The disk tier itself: an append-only segment writer, a read-back
/// cache of open segments, and the adoption index rebuilt from segment
/// scans on reopen.
pub struct SpillTier {
    dir: Box<dyn SpillDir>,
    active_id: u32,
    active: Option<Box<dyn SpillMedium>>,
    /// Committed length of the active segment: bytes of fully appended
    /// records (and header). A failed append truncates back to this.
    active_len: u64,
    readers: HashMap<u32, Box<dyn SpillMedium>>,
    /// content key → CRC-verified records already on disk, for
    /// write-free re-eviction after a reopen.
    adopt: HashMap<u64, Vec<SegmentRecord>>,
    max_segment_bytes: u64,
    /// Transient-error retry schedule ([`RetryPolicy::spill`]: 2ms
    /// doubling to 16ms), deadline-armed when the search has a
    /// wall-clock budget.
    policy: RetryPolicy,
    counters: SpillCounters,
    warnings: Vec<String>,
}

impl SpillTier {
    /// Open (or reopen) a spill directory. Every existing segment is
    /// scanned and CRC-verified into the adoption index; per-segment
    /// damage (torn tails from a crash, corrupt records) degrades to a
    /// warning — those records are simply not adopted — while an
    /// unusable directory is a hard error.
    pub fn open(
        dir: Box<dyn SpillDir>,
        max_segment_bytes: usize,
        retries: u32,
    ) -> Result<SpillTier, SpillError> {
        let mut tier = SpillTier {
            dir,
            active_id: 0,
            active: None,
            active_len: 0,
            readers: HashMap::new(),
            adopt: HashMap::new(),
            max_segment_bytes: max_segment_bytes as u64,
            policy: RetryPolicy::spill(retries),
            counters: SpillCounters::default(),
            warnings: Vec::new(),
        };
        let ids = tier.dir.list_segments().map_err(|error| SpillError::Io {
            context: "listing spill segments".to_string(),
            error,
        })?;
        for id in ids {
            tier.active_id = tier.active_id.max(id + 1);
            match tier.dir.open_segment(id) {
                Ok(mut medium) => match scan_medium(medium.as_mut(), id, false) {
                    Ok((records, note)) => {
                        for (key, rec) in records {
                            tier.adopt.entry(key).or_default().push(rec);
                        }
                        if let Some(note) = note {
                            tier.warnings.push(format!("spill segment {}: {}", id, note));
                        }
                        tier.readers.insert(id, medium);
                    }
                    Err(e) => tier.warnings.push(format!("spill segment {} unusable: {}", id, e)),
                },
                Err(e) => tier
                    .warnings
                    .push(format!("spill segment {} unreadable: {}", id, e)),
            }
        }
        Ok(tier)
    }

    /// Records adopted from previous runs, by count (index size).
    pub fn adoptable_records(&self) -> usize {
        self.adopt.values().map(Vec::len).sum()
    }

    /// Problems found while reopening (torn tails, unreadable
    /// segments). Informational: the affected records are not adopted.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    pub fn counters(&self) -> SpillCounters {
        self.counters
    }

    /// Bound retry sleeps by the search's wall-clock deadline: a dying
    /// disk must not eat the time budget in backoff sleeps.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.policy = self.policy.with_deadline(deadline);
    }

    pub(crate) fn counters_mut(&mut self) -> &mut SpillCounters {
        &mut self.counters
    }

    /// Write one snapshot to the active segment (or adopt an identical
    /// record already on disk). Transient append failures retry with
    /// exponential backoff after truncating away the torn tail; the
    /// returned error means retries were exhausted.
    pub fn write_state(
        &mut self,
        key: u64,
        state: &MachineState,
    ) -> Result<SpillTicket, SpillError> {
        let mut w = ByteWriter::new();
        encode_state(&mut w, state);
        let payload = w.into_bytes();
        let len = payload.len() as u32;
        let crc = crc32(&payload);

        if let Some(records) = self.adopt.get(&key) {
            if let Some(r) = records.iter().find(|r| r.len == len && r.crc == crc) {
                self.counters.adopted += 1;
                return Ok(SpillTicket {
                    segment: r.segment,
                    offset: r.offset,
                    len,
                    crc,
                    key,
                });
            }
        }

        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&crc.to_le_bytes());
        record.extend_from_slice(&payload);

        let mut attempt = 0u32;
        loop {
            match self.try_append(&record) {
                Ok(offset) => {
                    self.counters.writes += 1;
                    return Ok(SpillTicket {
                        segment: self.active_id,
                        offset,
                        len,
                        crc,
                        key,
                    });
                }
                Err(e) => {
                    if attempt >= self.policy.max_retries || self.policy.expired() {
                        self.counters.giveups += 1;
                        return Err(e);
                    }
                    attempt += 1;
                    self.counters.retries += 1;
                    std::thread::sleep(self.policy.delay_for(attempt));
                }
            }
        }
    }

    /// Read one snapshot back, verifying its CRC32 before decoding.
    /// Transient read failures retry with backoff; a checksum or decode
    /// failure is corruption and fails immediately.
    pub fn read_state(&mut self, ticket: &SpillTicket) -> Result<MachineState, SpillError> {
        let mut buf = vec![0u8; ticket.len as usize];
        let mut attempt = 0u32;
        loop {
            match self.read_at_segment(ticket.segment, ticket.offset, &mut buf) {
                Ok(()) => break,
                Err(e) => {
                    if attempt >= self.policy.max_retries || self.policy.expired() {
                        self.counters.giveups += 1;
                        return Err(e);
                    }
                    attempt += 1;
                    self.counters.retries += 1;
                    std::thread::sleep(self.policy.delay_for(attempt));
                }
            }
        }
        if crc32(&buf) != ticket.crc {
            return Err(SpillError::Corrupt {
                segment: ticket.segment,
                offset: ticket.offset,
                context: "snapshot payload fails its checksum on read-back".to_string(),
            });
        }
        let mut r = ByteReader::new(&buf);
        let state = decode_state(&mut r).map_err(|e| SpillError::Corrupt {
            segment: ticket.segment,
            offset: ticket.offset,
            context: format!("snapshot payload undecodable: {}", e),
        })?;
        if !r.is_done() {
            return Err(SpillError::Corrupt {
                segment: ticket.segment,
                offset: ticket.offset,
                context: format!("{} trailing byte(s) after snapshot", r.remaining()),
            });
        }
        self.counters.reads += 1;
        Ok(state)
    }

    fn try_append(&mut self, record: &[u8]) -> Result<u64, SpillError> {
        self.ensure_active()?;
        if self.active_len > HEADER_LEN
            && self.active_len + record.len() as u64 > self.max_segment_bytes
        {
            self.rotate()?;
        }
        let id = self.active_id;
        let medium = self.active.as_mut().expect("ensure_active opened a segment");
        match medium.append(record) {
            Ok(()) => {
                let payload_offset = self.active_len + RECORD_HEADER_LEN;
                self.active_len += record.len() as u64;
                Ok(payload_offset)
            }
            Err(error) => {
                // Repair the torn tail so the segment stays well-formed
                // for any record already committed to it; if even the
                // repair fails, abandon the segment for a fresh one.
                if medium.truncate(self.active_len).is_err() {
                    self.abandon_active();
                }
                Err(SpillError::Io {
                    context: format!("appending to spill segment {}", id),
                    error,
                })
            }
        }
    }

    fn ensure_active(&mut self) -> Result<(), SpillError> {
        if self.active.is_some() {
            return Ok(());
        }
        let id = self.active_id;
        let mut medium = self.dir.create_segment(id).map_err(|error| SpillError::Io {
            context: format!("creating spill segment {}", id),
            error,
        })?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&SPILL_MAGIC);
        header.extend_from_slice(&SPILL_VERSION.to_le_bytes());
        if let Err(error) = medium.append(&header) {
            // A half-written header would poison the file for reopen
            // scans: erase it, or burn the id if even that fails.
            if medium.truncate(0).is_err() {
                self.active_id += 1;
            }
            return Err(SpillError::Io {
                context: format!("writing spill segment {} header", id),
                error,
            });
        }
        self.active = Some(medium);
        self.active_len = HEADER_LEN;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), SpillError> {
        if let Some(medium) = self.active.take() {
            self.readers.insert(self.active_id, medium);
        }
        self.active_id += 1;
        self.active_len = 0;
        self.ensure_active()
    }

    fn abandon_active(&mut self) {
        if let Some(medium) = self.active.take() {
            self.readers.insert(self.active_id, medium);
        }
        self.active_id += 1;
        self.active_len = 0;
    }

    fn read_at_segment(
        &mut self,
        segment: u32,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), SpillError> {
        let io_err = |error: io::Error| SpillError::Io {
            context: format!("reading spill segment {}", segment),
            error,
        };
        if segment == self.active_id {
            if let Some(medium) = self.active.as_mut() {
                return medium.read_at(offset, buf).map_err(io_err);
            }
        }
        if !self.readers.contains_key(&segment) {
            let medium = self.dir.open_segment(segment).map_err(io_err)?;
            self.readers.insert(segment, medium);
        }
        self.readers
            .get_mut(&segment)
            .expect("inserted above")
            .read_at(offset, buf)
            .map_err(io_err)
    }
}

// ------------------------------------------------------------- scans

/// Scan one segment: header checks are always hard errors; payload
/// problems (torn tail, checksum failure) stop the scan with a note in
/// lenient mode (`strict = false`) or become typed errors in strict
/// mode. The record length is validated against the bytes actually in
/// the file *before* any allocation, so a corrupt length field cannot
/// become an allocation bomb.
#[allow(clippy::type_complexity)]
fn scan_medium(
    medium: &mut dyn SpillMedium,
    segment: u32,
    strict: bool,
) -> Result<(Vec<(u64, SegmentRecord)>, Option<String>), SpillError> {
    let io_err = |error: io::Error| SpillError::Io {
        context: format!("scanning spill segment {}", segment),
        error,
    };
    let len = medium.len().map_err(io_err)?;
    if len == 0 {
        // Created but never written — empty, not damaged.
        return Ok((Vec::new(), None));
    }
    if len < HEADER_LEN {
        return Err(SpillError::Truncated {
            segment,
            context: "segment header",
        });
    }
    let mut header = [0u8; HEADER_LEN as usize];
    medium.read_at(0, &mut header).map_err(io_err)?;
    if header[..8] != SPILL_MAGIC {
        return Err(SpillError::BadMagic { segment });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != SPILL_VERSION {
        return Err(SpillError::UnsupportedVersion {
            segment,
            found: version,
            supported: SPILL_VERSION,
        });
    }

    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    let mut note = None;
    while pos < len {
        if len - pos < RECORD_HEADER_LEN {
            if strict {
                return Err(SpillError::Truncated {
                    segment,
                    context: "record header",
                });
            }
            note = Some(format!(
                "torn record header at byte {} (crash tail); {} record(s) recovered",
                pos,
                out.len()
            ));
            break;
        }
        let mut rec_header = [0u8; RECORD_HEADER_LEN as usize];
        medium.read_at(pos, &mut rec_header).map_err(io_err)?;
        let key = u64::from_le_bytes(rec_header[0..8].try_into().expect("8 bytes"));
        let rec_len = u32::from_le_bytes(rec_header[8..12].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rec_header[12..16].try_into().expect("4 bytes"));
        if len - pos - RECORD_HEADER_LEN < u64::from(rec_len) {
            if strict {
                return Err(SpillError::Truncated {
                    segment,
                    context: "record payload",
                });
            }
            note = Some(format!(
                "torn record payload at byte {} (crash tail); {} record(s) recovered",
                pos,
                out.len()
            ));
            break;
        }
        let offset = pos + RECORD_HEADER_LEN;
        let mut payload = vec![0u8; rec_len as usize];
        medium.read_at(offset, &mut payload).map_err(io_err)?;
        if crc32(&payload) != crc {
            if strict {
                return Err(SpillError::Corrupt {
                    segment,
                    offset,
                    context: "record fails its checksum".to_string(),
                });
            }
            note = Some(format!(
                "record at byte {} fails its checksum; {} record(s) recovered before it",
                pos,
                out.len()
            ));
            break;
        }
        out.push((
            key,
            SegmentRecord {
                segment,
                offset,
                len: rec_len,
                crc,
            },
        ));
        pos = offset + u64::from(rec_len);
    }
    Ok((out, note))
}

/// Strictly verify one segment file: magic, version, every record
/// header and checksum, and exact end-of-file alignment. Returns a
/// ticket per record, or the first typed [`SpillError`] — never a
/// panic, whatever the file contains.
pub fn verify_segment_file(path: &Path) -> Result<Vec<SpillTicket>, SpillError> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|error| SpillError::Io {
            context: format!("opening spill segment {}", path.display()),
            error,
        })?;
    let mut medium = FsSegment { file };
    let (records, note) = scan_medium(&mut medium, 0, true)?;
    debug_assert!(note.is_none(), "strict scans error instead of noting");
    Ok(records
        .into_iter()
        .map(|(key, r)| SpillTicket {
            segment: r.segment,
            offset: r.offset,
            len: r.len,
            crc: r.crc,
            key,
        })
        .collect())
}

// ----------------------------------------------------------- options

/// When the spill tier engages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillMode {
    /// Never spill: `--max-mem` is a kill switch, as before.
    Off,
    /// Always spill under a `--max-mem` budget (a directory is
    /// required: `--spill-dir`, or a per-process temp directory).
    On,
    /// Spill when both a `--max-mem` budget and a `--spill-dir` are
    /// configured — the default, so existing budget-only runs keep
    /// their stop-with-checkpoint behavior.
    #[default]
    Auto,
}

impl std::str::FromStr for SpillMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "on" => Ok(SpillMode::On),
            "off" => Ok(SpillMode::Off),
            "auto" => Ok(SpillMode::Auto),
            other => Err(format!("bad spill mode `{}` (expected on|off|auto)", other)),
        }
    }
}

/// Spill-tier configuration, carried in
/// [`crate::AnalysisOptions::spill`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpillOptions {
    pub mode: SpillMode,
    /// Where segments live. `None` with [`SpillMode::On`] falls back to
    /// a per-process directory under the system temp dir.
    pub dir: Option<PathBuf>,
    /// Rotate to a new segment past this size.
    pub max_segment_bytes: usize,
    /// Transient I/O errors absorbed per operation before giving up.
    pub retries: u32,
    /// Deterministic fault injection for tests; `None` in production.
    pub fault_plan: Option<SpillFaultPlan>,
}

impl Default for SpillOptions {
    fn default() -> Self {
        SpillOptions {
            mode: SpillMode::default(),
            dir: None,
            max_segment_bytes: 64 << 20,
            retries: 3,
            fault_plan: None,
        }
    }
}

impl SpillOptions {
    /// Whether these options enable spilling under the given
    /// `max_state_bytes` budget. No budget means nothing ever needs to
    /// leave RAM, whatever the mode.
    pub fn enabled(&self, max_state_bytes: Option<usize>) -> bool {
        max_state_bytes.is_some()
            && match self.mode {
                SpillMode::Off => false,
                SpillMode::On => true,
                SpillMode::Auto => self.dir.is_some(),
            }
    }

    /// Build the tier these options describe (when enabled). The
    /// `Err` case — an unusable spill directory — is the earliest
    /// `Inconclusive(SpillFailure)` degradation point.
    pub(crate) fn build_tier(
        &self,
        max_state_bytes: Option<usize>,
    ) -> Result<Option<SpillTier>, SpillError> {
        if !self.enabled(max_state_bytes) {
            return Ok(None);
        }
        let root = self.dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("tango-spill-{}", std::process::id()))
        });
        let fs_dir: Box<dyn SpillDir> = Box::new(FsSpillDir::new(root));
        let dir: Box<dyn SpillDir> = match self.fault_plan {
            Some(plan) => Box::new(FaultySpillDir::new(fs_dir, plan)),
            None => fs_dir,
        };
        SpillTier::open(dir, self.max_segment_bytes, self.retries).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tango-spill-unit-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fs_tier(root: &Path) -> SpillTier {
        SpillTier::open(Box::new(FsSpillDir::new(root)), 64 << 20, 3).unwrap()
    }

    #[test]
    fn state_key_separates_states_and_ignores_sharing() {
        let st = state_with(0);
        assert_ne!(state_key(&st), state_key(&state_with(1)));
        assert_eq!(state_key(&st), state_key(&st.snapshot()));
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut tier = fs_tier(&dir);
        let a = state_with(1);
        let b = state_with(2);
        let ta = tier.write_state(1, &a).unwrap();
        let tb = tier.write_state(2, &b).unwrap();
        assert_eq!(tier.read_state(&ta).unwrap(), a);
        assert_eq!(tier.read_state(&tb).unwrap(), b);
        assert_eq!(tier.counters().writes, 2);
        assert_eq!(tier.counters().reads, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_adopts_identical_records_without_rewriting() {
        let dir = tmpdir("adopt");
        let st = state_with(7);
        let first = {
            let mut tier = fs_tier(&dir);
            tier.write_state(42, &st).unwrap()
        };
        let mut tier = fs_tier(&dir);
        assert_eq!(tier.adoptable_records(), 1);
        let again = tier.write_state(42, &st).unwrap();
        assert_eq!(again, first, "adoption returns the on-disk record");
        assert_eq!(tier.counters().writes, 0);
        assert_eq!(tier.counters().adopted, 1);
        assert_eq!(tier.read_state(&again).unwrap(), st);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_rotation_at_size_cap() {
        let dir = tmpdir("rotate");
        let mut tier = SpillTier::open(Box::new(FsSpillDir::new(&dir)), 64, 0).unwrap();
        let mut tickets = Vec::new();
        for n in 0..6 {
            let st = state_with(n);
            tickets.push((tier.write_state(n as u64, &st).unwrap(), st));
        }
        assert!(
            tickets.iter().any(|(t, _)| t.segment > 0),
            "a 64-byte cap must force rotation"
        );
        for (t, st) in &tickets {
            assert_eq!(&tier.read_state(t).unwrap(), st, "reads span segments");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_write_errors_are_retried() {
        let dir = tmpdir("retry-write");
        let plan = SpillFaultPlan {
            write_error_every: 2,
            ..SpillFaultPlan::default()
        };
        let faulty = FaultySpillDir::new(Box::new(FsSpillDir::new(&dir)), plan);
        let mut tier = SpillTier::open(Box::new(faulty), 64 << 20, 3).unwrap();
        let mut tickets = Vec::new();
        for n in 0..8 {
            let st = state_with(n);
            tickets.push((tier.write_state(n as u64, &st).unwrap(), st));
        }
        assert!(tier.counters().retries > 0, "the plan must have fired");
        for (t, st) in &tickets {
            assert_eq!(&tier.read_state(t).unwrap(), st);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_writes_are_repaired_and_retried() {
        let dir = tmpdir("short-write");
        let plan = SpillFaultPlan {
            short_write_every: 3,
            ..SpillFaultPlan::default()
        };
        let faulty = FaultySpillDir::new(Box::new(FsSpillDir::new(&dir)), plan);
        let mut tier = SpillTier::open(Box::new(faulty), 64 << 20, 3).unwrap();
        let mut tickets = Vec::new();
        for n in 0..9 {
            let st = state_with(n);
            tickets.push((tier.write_state(n as u64, &st).unwrap(), st));
        }
        for (t, st) in &tickets {
            assert_eq!(&tier.read_state(t).unwrap(), st, "torn tails must be repaired");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_read_errors_are_retried() {
        let dir = tmpdir("retry-read");
        let plan = SpillFaultPlan {
            read_error_every: 2,
            ..SpillFaultPlan::default()
        };
        let faulty = FaultySpillDir::new(Box::new(FsSpillDir::new(&dir)), plan);
        let mut tier = SpillTier::open(Box::new(faulty), 64 << 20, 3).unwrap();
        let st = state_with(5);
        let t = tier.write_state(5, &st).unwrap();
        for _ in 0..4 {
            assert_eq!(tier.read_state(&t).unwrap(), st);
        }
        assert!(tier.counters().retries > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_full_exhausts_retries_into_a_typed_error() {
        let dir = tmpdir("enospc");
        let plan = SpillFaultPlan {
            hard_writes_after: Some(2),
            ..SpillFaultPlan::default()
        };
        let faulty = FaultySpillDir::new(Box::new(FsSpillDir::new(&dir)), plan);
        let mut tier = SpillTier::open(Box::new(faulty), 64 << 20, 2).unwrap();
        let a = tier.write_state(1, &state_with(1)).unwrap();
        match tier.write_state(2, &state_with(2)) {
            Err(SpillError::Io { error, .. }) => {
                assert!(error.to_string().contains("disk full"), "{}", error)
            }
            other => panic!("hard disk-full must be Io, got {:?}", other.map(|_| ())),
        }
        // The committed record before the failure is still readable.
        assert_eq!(tier.read_state(&a).unwrap(), state_with(1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_bit_on_read_is_caught_by_the_checksum() {
        let dir = tmpdir("flip");
        let plan = SpillFaultPlan {
            flip_bit_every: 1,
            ..SpillFaultPlan::default()
        };
        let faulty = FaultySpillDir::new(Box::new(FsSpillDir::new(&dir)), plan);
        let mut tier = SpillTier::open(Box::new(faulty), 64 << 20, 0).unwrap();
        let t = tier.write_state(9, &state_with(9)).unwrap();
        match tier.read_state(&t) {
            Err(SpillError::Corrupt { context, .. }) => {
                assert!(context.contains("checksum"), "{}", context)
            }
            other => panic!("bit flip must be Corrupt, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_steps_over_a_torn_tail_with_a_warning() {
        let dir = tmpdir("torn");
        let t = {
            let mut tier = fs_tier(&dir);
            let t = tier.write_state(3, &state_with(3)).unwrap();
            tier.write_state(4, &state_with(4)).unwrap();
            t
        };
        // Tear the second record's payload, as a crash mid-append would.
        let seg = dir.join("spill-00000000.seg");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let mut tier = fs_tier(&dir);
        let warnings = tier.take_warnings();
        assert_eq!(warnings.len(), 1, "{:?}", warnings);
        assert!(warnings[0].contains("torn"), "{}", warnings[0]);
        assert_eq!(tier.adoptable_records(), 1, "the intact record survives");
        assert_eq!(tier.read_state(&t).unwrap(), state_with(3));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_mode_parsing_and_enablement() {
        assert_eq!("on".parse::<SpillMode>().unwrap(), SpillMode::On);
        assert_eq!("OFF".parse::<SpillMode>().unwrap(), SpillMode::Off);
        assert_eq!("auto".parse::<SpillMode>().unwrap(), SpillMode::Auto);
        assert!("sideways".parse::<SpillMode>().is_err());

        let mut opts = SpillOptions::default();
        assert!(!opts.enabled(Some(1 << 20)), "auto without a dir is off");
        assert!(!opts.enabled(None), "no budget, nothing to spill");
        opts.dir = Some(PathBuf::from("/tmp/x"));
        assert!(opts.enabled(Some(1 << 20)), "auto + dir + budget is on");
        opts.mode = SpillMode::Off;
        assert!(!opts.enabled(Some(1 << 20)));
        opts.mode = SpillMode::On;
        opts.dir = None;
        assert!(opts.enabled(Some(1 << 20)));
    }
}
