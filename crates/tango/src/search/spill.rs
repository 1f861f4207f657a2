//! Disk spill tier for the search's saved states: degrade to disk
//! bandwidth under memory pressure instead of dying
//! `Inconclusive(MemoryLimit)`.
//!
//! With a `--max-mem` budget and a spill directory, cold snapshots are
//! encoded with the stable [`estelle_runtime::codec`], appended to
//! segment files (`spill-NNNNNNNN.seg`) and evicted from RAM; a later
//! *Restore* faults the snapshot back in, verifying its CRC32 before the
//! search trusts it. The tier changes **where bytes live, never what the
//! search decides**: verdicts and the paper's TE/GE/RE/SA counters are
//! bit-identical to an all-in-RAM run.
//!
//! A spill directory is scratch for one run. A segment is a bare run of
//! encoded snapshots with no header and no per-record framing: the
//! [`SpillTicket`] a node keeps in RAM (segment, offset, length, CRC32)
//! is the only index, so no byte on disk is ever parsed to find a
//! record. The tier creates its segments under ids no file holds yet,
//! never opens a file it did not create, and removes its segments when
//! it is dropped. Checkpoints carry every state inline, so no run needs
//! another run's segments: files a killed run left behind are never
//! opened and can be deleted.
//!
//! Fault tolerance, in order of escalation:
//!
//! * **transient I/O errors** (a failed append or read) retry with
//!   bounded exponential backoff; a failed append first truncates the
//!   segment back to its last committed length, so the next record lands
//!   at the offset its ticket names, and rotates to a fresh segment if
//!   even the truncate fails;
//! * **unrecoverable failures** (retries exhausted — the ENOSPC case —
//!   or a checksum mismatch on read-back) surface as a typed
//!   [`SpillError`]; the search degrades to
//!   `Inconclusive(SpillFailure)` with a partial report instead of
//!   panicking.
//!
//! Writes are deliberately **not** fsynced: the spill tier is a cache of
//! resident state, not the durability story — that is the checkpoint's
//! job.
//!
//! [`FaultySpillDir`] wraps any [`SpillDir`] with the spill rows of a
//! deterministic [`FaultPlan`] (error-on-Nth-write/read, short writes,
//! bit flips, hard disk-full) so every degradation path above is
//! testable.

use estelle_runtime::codec::{decode_state, encode_state};
use estelle_runtime::{ByteReader, ByteWriter, MachineState};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::checkpoint::codec::crc32;
use crate::fault::{Fault, FaultPlan, RetryPolicy};

/// Segment size past which appends rotate to a fresh segment.
const MAX_SEGMENT_BYTES: usize = 64 << 20;

/// Transient I/O errors absorbed per operation before giving up.
const RETRIES: u32 = 3;

// ------------------------------------------------------------ errors

/// Why a spill-tier operation failed. Every failure maps to a typed
/// variant — never a panic.
#[derive(Debug)]
pub enum SpillError {
    /// The underlying I/O operation failed after exhausting retries.
    Io { context: String, error: io::Error },
    /// A record read back fails its checksum or decodes to garbage.
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
            SpillError::Corrupt { .. } => None,
        }
    }
}

// ----------------------------------------------------------- tickets

/// Claim check for one spilled snapshot, and the only index of it: where
/// its bytes are and the checksum they must match when read back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillTicket {
    /// Segment the record lives in.
    pub segment: u32,
    /// Byte offset of the record within the segment.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u32,
    /// Expected CRC32 of the record.
    pub crc: u32,
}

// ------------------------------------------------------ storage traits

/// One append-only segment: the minimal surface the tier needs, kept as
/// a trait so fault injection can sit between the tier and the
/// filesystem.
pub trait SpillMedium: Send {
    /// Append `data` at end-of-file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Read exactly `buf.len()` bytes starting at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Cut the file back to `len` bytes (torn-tail repair).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// A directory of numbered segments.
pub trait SpillDir: Send {
    /// Create segment `id` as a new file, open for appending and
    /// reading; `Ok(None)` when a file of that name already exists.
    fn create_segment(&mut self, id: u32) -> io::Result<Option<Box<dyn SpillMedium>>>;
    /// Remove segment `id`, which [`SpillDir::create_segment`] created.
    fn remove_segment(&mut self, id: u32) -> io::Result<()>;
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
    fn create_segment(&mut self, id: u32) -> io::Result<Option<Box<dyn SpillMedium>>> {
        fs::create_dir_all(&self.root)?;
        match OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(self.segment_path(id))
        {
            Ok(file) => Ok(Some(Box::new(FsSegment { file }))),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn remove_segment(&mut self, id: u32) -> io::Result<()> {
        fs::remove_file(self.segment_path(id))
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

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

// ------------------------------------------------------ fault injection

#[derive(Default)]
struct FaultCounters {
    appends: u64,
    reads: u64,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("{} (injected)", what))
}

/// A fault-injecting [`SpillDir`] wrapper for robustness testing. The
/// operation counters are shared across every segment the directory
/// hands out, so a plan describes the whole device, not one file.
pub struct FaultySpillDir {
    inner: Box<dyn SpillDir>,
    plan: FaultPlan,
    counters: Arc<Mutex<FaultCounters>>,
}

impl FaultySpillDir {
    pub fn new(inner: Box<dyn SpillDir>, plan: FaultPlan) -> Self {
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
    fn create_segment(&mut self, id: u32) -> io::Result<Option<Box<dyn SpillMedium>>> {
        Ok(self.inner.create_segment(id)?.map(|m| self.wrap(m)))
    }

    fn remove_segment(&mut self, id: u32) -> io::Result<()> {
        self.inner.remove_segment(id)
    }
}

struct FaultyMedium {
    inner: Box<dyn SpillMedium>,
    plan: FaultPlan,
    counters: Arc<Mutex<FaultCounters>>,
}

impl SpillMedium for FaultyMedium {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let op = {
            let mut c = self.counters.lock().expect("fault counter lock");
            c.appends += 1;
            c.appends
        };
        if self.plan.due(Fault::SpillHardWrites, op) {
            return Err(injected("disk full"));
        }
        if self.plan.due(Fault::SpillShortWrite, op) {
            self.inner.append(&data[..data.len() / 2])?;
            return Err(injected("short write"));
        }
        if self.plan.due(Fault::SpillWriteError, op) {
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
        if self.plan.due(Fault::SpillReadError, op) {
            return Err(injected("read I/O error"));
        }
        self.inner.read_at(offset, buf)?;
        if self.plan.due(Fault::SpillFlipBit, op) && !buf.is_empty() {
            let mid = buf.len() / 2;
            buf[mid] ^= 0x01;
        }
        Ok(())
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
    /// Snapshots evicted from RAM: a write the first time a node
    /// leaves RAM, write-free after that (its record is still on disk).
    pub evictions: u64,
}

/// The disk tier itself: the segments one run created, an append
/// position in the newest, and the retry schedule.
pub struct SpillTier {
    dir: Box<dyn SpillDir>,
    /// Every segment this tier created: the segments its tickets name,
    /// and the files it removes when dropped.
    segments: HashMap<u32, Box<dyn SpillMedium>>,
    /// The segment appends go to, and its committed length: bytes of
    /// fully appended records. A failed append truncates back to it.
    /// `None` once the tier abandons a segment it could not repair.
    active: Option<(u32, u64)>,
    /// The lowest id not yet tried for a new segment.
    next_id: u32,
    max_segment_bytes: u64,
    /// Transient-error retry schedule ([`RetryPolicy::spill`]: 2ms
    /// doubling to 16ms), deadline-armed when the search has a
    /// wall-clock budget.
    policy: RetryPolicy,
    counters: SpillCounters,
}

impl SpillTier {
    /// Open a tier over `dir` and create its first segment, so an
    /// unusable directory fails here, before the search takes a step.
    /// Files already in the directory are never opened: the tier skips
    /// every segment id a file holds.
    pub fn open(
        dir: Box<dyn SpillDir>,
        max_segment_bytes: usize,
        retries: u32,
    ) -> Result<SpillTier, SpillError> {
        let mut tier = SpillTier {
            dir,
            segments: HashMap::new(),
            active: None,
            next_id: 0,
            max_segment_bytes: max_segment_bytes as u64,
            policy: RetryPolicy::spill(retries),
            counters: SpillCounters::default(),
        };
        tier.create_segment()?;
        Ok(tier)
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

    /// Write one snapshot to the active segment. Transient append
    /// failures retry with exponential backoff after truncating away the
    /// torn tail; the returned error means retries were exhausted.
    pub fn write_state(&mut self, state: &MachineState) -> Result<SpillTicket, SpillError> {
        let mut w = ByteWriter::new();
        encode_state(&mut w, state);
        let record = w.into_bytes();
        let mut attempt = 0;
        let (segment, offset) = loop {
            match self.try_append(&record) {
                Ok(at) => break at,
                Err(e) => self.retry(&mut attempt, e)?,
            }
        };
        self.counters.writes += 1;
        Ok(SpillTicket {
            segment,
            offset,
            len: record.len() as u32,
            crc: crc32(&record),
        })
    }

    /// Read one snapshot back, verifying its CRC32 before decoding.
    /// Transient read failures retry with backoff; a checksum or decode
    /// failure is corruption and fails immediately.
    pub fn read_state(&mut self, ticket: &SpillTicket) -> Result<MachineState, SpillError> {
        let mut buf = vec![0u8; ticket.len as usize];
        let mut attempt = 0;
        while let Err(e) = self.read_at(ticket, &mut buf) {
            self.retry(&mut attempt, e)?;
        }
        let corrupt = |context: String| SpillError::Corrupt {
            segment: ticket.segment,
            offset: ticket.offset,
            context,
        };
        if crc32(&buf) != ticket.crc {
            return Err(corrupt(
                "snapshot fails its checksum on read-back".to_string(),
            ));
        }
        let mut r = ByteReader::new(&buf);
        let state =
            decode_state(&mut r).map_err(|e| corrupt(format!("snapshot undecodable: {}", e)))?;
        if !r.is_done() {
            return Err(corrupt(format!(
                "{} trailing byte(s) after snapshot",
                r.remaining()
            )));
        }
        self.counters.reads += 1;
        Ok(state)
    }

    /// After failed attempt number `attempt`: back off and count a
    /// retry, or give up with `e` once the budget or the deadline is
    /// spent.
    fn retry(&mut self, attempt: &mut u32, e: SpillError) -> Result<(), SpillError> {
        if *attempt >= self.policy.max_retries || self.policy.expired() {
            self.counters.giveups += 1;
            return Err(e);
        }
        *attempt += 1;
        self.counters.retries += 1;
        std::thread::sleep(self.policy.delay_for(*attempt));
        Ok(())
    }

    /// Append one record; `Ok((segment, offset))` is where it landed.
    fn try_append(&mut self, record: &[u8]) -> Result<(u32, u64), SpillError> {
        let max = self.max_segment_bytes;
        let fits = |len: u64| len == 0 || len + record.len() as u64 <= max;
        let (id, len) = match self.active {
            Some((id, len)) if fits(len) => (id, len),
            _ => self.create_segment()?,
        };
        let medium = self
            .segments
            .get_mut(&id)
            .expect("the active segment is open");
        match medium.append(record) {
            Ok(()) => {
                self.active = Some((id, len + record.len() as u64));
                Ok((id, len))
            }
            Err(error) => {
                // Cut the torn tail so the next record lands at the
                // committed length; if even that fails, abandon the
                // segment for a fresh one.
                if medium.truncate(len).is_err() {
                    self.active = None;
                }
                Err(SpillError::Io {
                    context: format!("appending to spill segment {}", id),
                    error,
                })
            }
        }
    }

    /// Create a segment under the lowest id no file holds and make it
    /// the active one.
    fn create_segment(&mut self) -> Result<(u32, u64), SpillError> {
        loop {
            let id = self.next_id;
            let created = self
                .dir
                .create_segment(id)
                .map_err(|error| SpillError::Io {
                    context: format!("creating spill segment {}", id),
                    error,
                })?;
            if let Some(medium) = created {
                self.next_id = id.saturating_add(1);
                self.segments.insert(id, medium);
                self.active = Some((id, 0));
                return Ok((id, 0));
            }
            self.next_id = id.checked_add(1).ok_or_else(|| SpillError::Io {
                context: "creating a spill segment".to_string(),
                error: io::Error::other("every segment id is taken"),
            })?;
        }
    }

    fn read_at(&mut self, ticket: &SpillTicket, buf: &mut [u8]) -> Result<(), SpillError> {
        let io_err = |error: io::Error| SpillError::Io {
            context: format!("reading spill segment {}", ticket.segment),
            error,
        };
        let medium = self.segments.get_mut(&ticket.segment).ok_or_else(|| {
            io_err(io::Error::new(
                io::ErrorKind::NotFound,
                "not a segment of this tier",
            ))
        })?;
        medium.read_at(ticket.offset, buf).map_err(io_err)
    }
}

impl Drop for SpillTier {
    /// Remove every segment this tier created. A segment that cannot be
    /// removed stays behind; nothing ever opens it again.
    fn drop(&mut self) {
        // Each file is closed (its medium dropped) before it is removed.
        for id in std::mem::take(&mut self.segments).into_keys() {
            let _ = self.dir.remove_segment(id);
        }
    }
}

// ----------------------------------------------------------- options

/// Spill-tier configuration, carried in
/// [`crate::AnalysisOptions::spill`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpillOptions {
    /// Where the run's segments live (CLI `--spill-dir`). The tier is on
    /// exactly when this and a `limits.max_state_bytes` budget are both
    /// set.
    pub dir: Option<PathBuf>,
    /// Deterministic fault injection for tests; `None` in production.
    pub fault_plan: Option<FaultPlan>,
}

impl SpillOptions {
    /// Build the tier these options describe, when a directory and a
    /// `max_state_bytes` budget are both set. The `Err` case — an
    /// unusable spill directory — is the earliest
    /// `Inconclusive(SpillFailure)` degradation point.
    pub(crate) fn build_tier(
        &self,
        max_state_bytes: Option<usize>,
    ) -> Result<Option<SpillTier>, SpillError> {
        let (Some(root), Some(_)) = (&self.dir, max_state_bytes) else {
            return Ok(None);
        };
        let fs_dir: Box<dyn SpillDir> = Box::new(FsSpillDir::new(root));
        let dir: Box<dyn SpillDir> = match self.fault_plan {
            Some(plan) => Box::new(FaultySpillDir::new(fs_dir, plan)),
            None => fs_dir,
        };
        SpillTier::open(dir, MAX_SEGMENT_BYTES, RETRIES).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estelle_runtime::{Machine, Value};
    use std::path::Path;

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
        let dir =
            std::env::temp_dir().join(format!("tango-spill-unit-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn faulty_tier(root: &Path, plan: FaultPlan, retries: u32) -> SpillTier {
        let faulty = FaultySpillDir::new(Box::new(FsSpillDir::new(root)), plan);
        SpillTier::open(Box::new(faulty), 64 << 20, retries).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut tier = SpillTier::open(Box::new(FsSpillDir::new(&dir)), 64 << 20, 3).unwrap();
        let a = state_with(1);
        let b = state_with(2);
        let ta = tier.write_state(&a).unwrap();
        let tb = tier.write_state(&b).unwrap();
        assert_eq!(tier.read_state(&ta).unwrap(), a);
        assert_eq!(tier.read_state(&tb).unwrap(), b);
        assert_eq!(tier.counters().writes, 2);
        assert_eq!(tier.counters().reads, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_rotation_at_size_cap() {
        let dir = tmpdir("rotate");
        let mut tier = SpillTier::open(Box::new(FsSpillDir::new(&dir)), 64, 0).unwrap();
        let mut tickets = Vec::new();
        for n in 0..6 {
            let st = state_with(n);
            tickets.push((tier.write_state(&st).unwrap(), st));
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
        let plan = FaultPlan::default().with(Fault::SpillWriteError, 2);
        let mut tier = faulty_tier(&dir, plan, 3);
        let mut tickets = Vec::new();
        for n in 0..8 {
            let st = state_with(n);
            tickets.push((tier.write_state(&st).unwrap(), st));
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
        let plan = FaultPlan::default().with(Fault::SpillShortWrite, 3);
        let mut tier = faulty_tier(&dir, plan, 3);
        let mut tickets = Vec::new();
        for n in 0..9 {
            let st = state_with(n);
            tickets.push((tier.write_state(&st).unwrap(), st));
        }
        for (t, st) in &tickets {
            assert_eq!(
                &tier.read_state(t).unwrap(),
                st,
                "torn tails must be repaired"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_read_errors_are_retried() {
        let dir = tmpdir("retry-read");
        let plan = FaultPlan::default().with(Fault::SpillReadError, 2);
        let mut tier = faulty_tier(&dir, plan, 3);
        let st = state_with(5);
        let t = tier.write_state(&st).unwrap();
        for _ in 0..4 {
            assert_eq!(tier.read_state(&t).unwrap(), st);
        }
        assert!(tier.counters().retries > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_full_exhausts_retries_into_a_typed_error() {
        let dir = tmpdir("enospc");
        let plan = FaultPlan::default().with(Fault::SpillHardWrites, 1);
        let mut tier = faulty_tier(&dir, plan, 2);
        let a = tier.write_state(&state_with(1)).unwrap();
        match tier.write_state(&state_with(2)) {
            Err(SpillError::Io { error, .. }) => {
                assert!(error.to_string().contains("disk full"), "{}", error)
            }
            other => panic!("hard disk-full must be Io, got {:?}", other.map(|_| ())),
        }
        assert_eq!(tier.counters().giveups, 1);
        // The committed record before the failure is still readable.
        assert_eq!(tier.read_state(&a).unwrap(), state_with(1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_bit_on_read_is_caught_by_the_checksum() {
        let dir = tmpdir("flip");
        let plan = FaultPlan::default().with(Fault::SpillFlipBit, 1);
        let mut tier = faulty_tier(&dir, plan, 0);
        let t = tier.write_state(&state_with(9)).unwrap();
        match tier.read_state(&t) {
            Err(SpillError::Corrupt { context, .. }) => {
                assert!(context.contains("checksum"), "{}", context)
            }
            other => panic!("bit flip must be Corrupt, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_tier_needs_a_directory_and_a_budget_and_fails_early_on_a_bad_one() {
        let dir = tmpdir("engage");
        let mut opts = SpillOptions::default();
        assert!(
            opts.build_tier(Some(1 << 20)).unwrap().is_none(),
            "no directory"
        );
        opts.dir = Some(dir.clone());
        assert!(opts.build_tier(None).unwrap().is_none(), "no budget");
        let tier = opts.build_tier(Some(1 << 20)).unwrap();
        assert!(tier.is_some(), "a directory and a budget turn the tier on");
        drop(tier);

        // A regular file where the directory should be fails at open.
        fs::write(dir.join("not-a-dir"), b"").unwrap();
        opts.dir = Some(dir.join("not-a-dir"));
        assert!(matches!(
            opts.build_tier(Some(1 << 20)),
            Err(SpillError::Io { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
