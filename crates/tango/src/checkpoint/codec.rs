//! Durable on-disk encoding of [`Checkpoint`]s.
//!
//! A limit-stopped analysis survives process death by writing its
//! checkpoint to a file that a *different* process — possibly on a
//! machine restarted in between — can load and resume. The format is a
//! hand-rolled binary layout (no external serialization crates, matching
//! the repo's no-dependency rule):
//!
//! ```text
//! +----------------+---------+-----------+
//! | magic (8B)     | version | #sections |   header
//! | b"TANGOCKP"    |  u32 LE |  u32 LE   |
//! +----------------+---------+-----------+
//! | tag u32 | len u64 | payload | CRC32  |   one per section
//! +------------------------------------+-+
//! | ...                                  |
//! +--------------------------------------+
//! | CRC32 of everything above            |   whole-file digest
//! +--------------------------------------+
//! ```
//!
//! The framing is one `Container` (encoder and integrity-checking
//! parser), which post-mortem dumps (`telemetry::dump`) reuse under their
//! own magic, version and sections.
//!
//! Sections: `META` (progress numbers + [`SearchStats`] + the mode,
//! readable without touching the machine state), `TRACE` (the resolved
//! trace), then the frozen search itself: one `SEARCH` section for both
//! modes, holding the work stack as node records with their states
//! inline (a node saved for backtracking also carries its pending
//! candidates), then the visited set, the spec errors and the best
//! attempt. Each node's resident-byte charge is re-derived from its
//! state on reload, so the accounting continues exactly.
//!
//! **Failure is typed, never a panic.** Every way a file can be wrong —
//! empty, truncated, wrong magic, other version, flipped byte — maps to
//! a [`CheckpointError`] variant. Integrity checks run in a fixed order:
//! magic, version, structural walk (truncation), per-section CRC32 (so a
//! corrupt byte names its section), then the whole-file digest (covering
//! the headers between sections).
//!
//! **Writes are atomic.** [`Checkpoint::write_to`] writes a temp file in
//! the target directory, fsyncs it, renames it over the destination and
//! fsyncs the directory: a crash mid-write leaves the previous good
//! checkpoint intact, never a half-written one.

use super::{Checkpoint, NodeCkpt, SearchCheckpoint};
use crate::env::Cursors;
use crate::stats::SearchStats;
use crate::trace::{Dir, ResolvedEvent, ResolvedTrace};
use estelle_ast::Span;
use estelle_runtime::codec::{decode_state, decode_value, encode_state, encode_value};
use estelle_runtime::{
    ByteReader, ByteWriter, CodecError, Fireable, RuntimeError, RuntimeErrorKind,
};
use crate::fault::{Fault, FaultPlan};
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First 8 bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"TANGOCKP";

/// Current format version. Bump on any change to the byte layout; a
/// reader refuses every other version with
/// [`CheckpointError::UnsupportedVersion`] instead of misreading it.
/// Version 2 added the spill counters to the stats block and the
/// explicit charges-state flag to each DFS frame. Version 3 added the
/// per-site fault counters (source/checkpoint retries and giveups,
/// spill giveups) to the stats block. Version 4 added the work-stealing
/// counters to the stats block, the mode byte (+ per-worker load table)
/// to `META`, and the `MDFS` section for on-line checkpoints. Version 5
/// dropped the `STATES` table and each DFS frame's intern key and
/// charges-state flag: frames carry their states inline. Version 6
/// stores every path (the DFS path, the DFS best path and each MDFS
/// node's path) as `u32` compiled-transition indices instead of names,
/// and drops the DFS best-pending length: the best path is stored whole.
/// Version 7 has one search body for both modes: the `DFS` section is
/// gone, and the `SEARCH` section holds the work stack and the PG-list,
/// node records with the pending candidate list, followed by the visited
/// set, the spec errors and the best attempt; `META` counts the on-line
/// front as one (work, PG-list) pair. Version 8 drops the seven spill
/// fields from the stats block with the retired disk spill tier.
/// Version 9 holds only fronts frozen after eof, where nothing is parked
/// or blocked: `SEARCH` drops its eof flag, its PG-list and each node's
/// blocked set, and `META` its work and PG-list lengths.
pub const FORMAT_VERSION: u32 = 9;

const SEC_META: u32 = 1;
const SEC_TRACE: u32 = 2;
// Tag 3 is retired (the `STATES` table of versions <= 4), and tag 4 (the
// `DFS` section of versions <= 6); never reuse either.
const SEC_SEARCH: u32 = 5;

const MODE_DFS: u8 = 0;
const MODE_MDFS: u8 = 1;

/// The checkpoint file's layout.
const CHECKPOINT: Container = Container {
    magic: MAGIC,
    version: FORMAT_VERSION,
    names: &[
        (SEC_META, "meta"),
        (SEC_TRACE, "trace"),
        (SEC_SEARCH, "search"),
    ],
};

/// Why a checkpoint file could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file ends before the structure is complete.
    Truncated { context: String },
    /// A section's payload (or the file as a whole) fails its CRC32.
    ChecksumMismatch { section: &'static str },
    /// Structurally invalid content behind valid checksums (unknown tag,
    /// out-of-range index, inconsistent lengths …).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {}", e),
            CheckpointError::BadMagic => f.write_str("not a tango checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {} not supported (this build reads only version {})",
                found, supported
            ),
            CheckpointError::Truncated { context } => {
                write!(f, "checkpoint file truncated while reading {}", context)
            }
            CheckpointError::ChecksumMismatch { section } => {
                write!(f, "checkpoint checksum mismatch in {} section", section)
            }
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {}", m),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { context } => CheckpointError::Truncated {
                context: context.to_string(),
            },
            CodecError::Malformed(m) => CheckpointError::Malformed(m),
        }
    }
}

/// Progress summary decoded from a checkpoint's `META` section alone —
/// no machine state is loaded, so inspecting a multi-megabyte checkpoint
/// is O(header).
#[derive(Clone, Debug)]
pub struct CheckpointInfo {
    /// Format version of the file.
    pub version: u32,
    /// `"dfs"` for a static-mode checkpoint, `"mdfs"` for an on-line one.
    pub mode: &'static str,
    /// Depth of the search path at the stop point.
    pub depth: usize,
    /// Saved search nodes awaiting exploration (see
    /// [`Checkpoint::pending_frames`]).
    pub pending_frames: usize,
    /// Checkable events in the trace under analysis.
    pub events_total: usize,
    /// Worker count of the saving run (`mdfs` checkpoints only).
    pub workers_at_save: Option<u32>,
    /// Counters accumulated up to the stop.
    pub stats: SearchStats,
}

/// The sleeps before a failed write's retries: one attempt, then up to
/// three retries after 4, 8 and 16 ms.
const RETRY_SLEEPS: [Duration; 3] = [
    Duration::from_millis(4),
    Duration::from_millis(8),
    Duration::from_millis(16),
];

impl Checkpoint {
    /// Serialize this checkpoint and atomically replace `path` with it.
    /// On return the file is durable (fsynced); on error the previous
    /// contents of `path`, if any, are untouched. A failed attempt is
    /// retried up to three times, after 4, 8 and 16 ms.
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        self.write_to_with(path, &FaultPlan::default(), &mut 0)
    }

    /// [`Checkpoint::write_to`] with the checkpoint rows of `faults`
    /// deciding the fate of each write attempt (the chaos layer's
    /// checkpoint site). `attempts` counts write attempts, retries
    /// included; pass one counter across a run's saves so the schedule
    /// spans all of them. The attempts a save adds, minus one, are its
    /// retries: autosave feeds them to `SearchStats::checkpoint_retries`.
    /// Disk full outranks a short write, which outranks an I/O error.
    /// Injected short writes tear the temp file only — the destination
    /// keeps its previous contents, which is exactly the atomic-rename
    /// contract under test.
    pub fn write_to_with(
        &self,
        path: &Path,
        faults: &FaultPlan,
        attempts: &mut u64,
    ) -> Result<(), CheckpointError> {
        self.write_sleeping(path, faults, attempts, &mut std::thread::sleep)
    }

    /// [`Checkpoint::write_to_with`], sleeping through `sleep` before
    /// each retry.
    fn write_sleeping(
        &self,
        path: &Path,
        faults: &FaultPlan,
        attempts: &mut u64,
        sleep: &mut dyn FnMut(Duration),
    ) -> Result<(), CheckpointError> {
        let bytes = encode_checkpoint(self);
        let injected = |what: &str| Err(CheckpointError::Io(std::io::Error::other(what)));
        let mut naps = RETRY_SLEEPS.into_iter();
        loop {
            *attempts += 1;
            let result = if faults.due(Fault::CheckpointDiskFull, *attempts) {
                injected("no space left on device (injected)")
            } else if faults.due(Fault::CheckpointShortWrite, *attempts) {
                // The torn write of a crashing process: half the bytes
                // land in the temp file, the rename never happens.
                let _ = fs::write(tmp_path(path), &bytes[..bytes.len() / 2]);
                injected("checkpoint short write (injected)")
            } else if faults.due(Fault::CheckpointIoError, *attempts) {
                injected("checkpoint write I/O error (injected)")
            } else {
                write_atomic_once(path, &bytes)
            };
            match (result, naps.next()) {
                (Err(_), Some(nap)) => sleep(nap),
                (result, _) => return result,
            }
        }
    }

    /// Load a checkpoint written by [`Checkpoint::write_to`], verifying
    /// magic, version, per-section checksums and the whole-file digest.
    pub fn read_from(path: &Path) -> Result<Checkpoint, CheckpointError> {
        decode_checkpoint(&fs::read(path)?)
    }

    /// Verify the file's integrity and decode only its progress summary.
    pub fn read_info(path: &Path) -> Result<CheckpointInfo, CheckpointError> {
        let bytes = fs::read(path)?;
        let sections = CHECKPOINT.parse(&bytes)?;
        sections.read(SEC_META, |r| decode_meta(r, sections.version))
    }
}

// ---------------------------------------------------------------- CRC32

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the classic
/// bitwise formulation; checkpoint I/O is nowhere near hot enough to
/// justify a table.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ------------------------------------------------------------- encoding

fn encode_checkpoint(cp: &Checkpoint) -> Vec<u8> {
    CHECKPOINT.encode(&[
        (SEC_META, encode_meta(cp)),
        (SEC_TRACE, encode_trace(&cp.trace)),
        (SEC_SEARCH, encode_search(&cp.search)),
    ])
}

fn encode_meta(cp: &Checkpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(cp.depth());
    w.put_usize(cp.pending_frames());
    w.put_usize(cp.events_total());
    encode_stats(&mut w, &cp.stats);
    let m = &cp.search;
    if m.complete {
        w.put_u8(MODE_DFS);
    } else {
        w.put_u8(MODE_MDFS);
        w.put_u32(m.workers_at_save);
    }
    w.into_bytes()
}

/// Shared with the post-mortem dump format (`telemetry::dump`), whose
/// `STATS` section is exactly this block — one stats codec, two files.
pub(crate) fn encode_stats(w: &mut ByteWriter, s: &SearchStats) {
    w.put_u64(s.transitions_executed);
    w.put_u64(s.generates);
    w.put_u64(s.restores);
    w.put_u64(s.saves);
    // Nanosecond resolution in a u64 covers ~584 years of wall time.
    w.put_u64(s.wall_time.as_nanos() as u64);
    w.put_usize(s.max_depth);
    w.put_u64(s.fanout_sum);
    w.put_u64(s.fanout_samples);
    w.put_u64(s.pg_nodes);
    w.put_u64(s.error_branches);
    w.put_u64(s.hash_prunes);
    w.put_u64(s.barren_prunes);
    // Always 0; written so the block's layout stays fixed.
    w.put_u64(s.intern_hits);
    w.put_usize(s.snapshot_bytes);
    w.put_usize(s.peak_snapshot_bytes);
    w.put_u64(s.source_retries);
    w.put_u64(s.source_giveups);
    w.put_u64(s.checkpoint_retries);
    w.put_u64(s.checkpoint_giveups);
    w.put_u64(s.steals);
    w.put_u64(s.steal_failures);
}

fn encode_trace(trace: &ResolvedTrace) -> Vec<u8> {
    let mut w = ByteWriter::new();
    // Stream count (== IP count); the streams themselves are re-derived
    // from the event list on decode.
    w.put_u32(trace.inputs.len() as u32);
    w.put_u32(trace.events.len() as u32);
    for e in &trace.events {
        w.put_u8(match e.dir {
            Dir::In => 0,
            Dir::Out => 1,
        });
        w.put_u32(e.ip as u32);
        w.put_u32(e.interaction as u32);
        w.put_u32(e.params.len() as u32);
        for p in &e.params {
            encode_value(&mut w, p);
        }
    }
    w.into_bytes()
}

fn encode_cursors(w: &mut ByteWriter, c: &Cursors) {
    w.put_u32(c.input.len() as u32);
    for &v in &c.input {
        w.put_usize(v);
    }
    w.put_u32(c.output.len() as u32);
    for &v in &c.output {
        w.put_usize(v);
    }
}

fn encode_fireable(w: &mut ByteWriter, f: &Fireable) {
    w.put_usize(f.trans);
    w.put_bool(f.fabricated);
    w.put_u32(f.params.len() as u32);
    for p in &f.params {
        encode_value(w, p);
    }
}

pub(crate) fn kind_to_u8(k: RuntimeErrorKind) -> u8 {
    match k {
        RuntimeErrorKind::UndefinedValue => 0,
        RuntimeErrorKind::UndefinedControl => 1,
        RuntimeErrorKind::DanglingPointer => 2,
        RuntimeErrorKind::IndexOutOfBounds => 3,
        RuntimeErrorKind::DivisionByZero => 4,
        RuntimeErrorKind::Overflow => 5,
        RuntimeErrorKind::CallDepthExceeded => 6,
        RuntimeErrorKind::LoopLimitExceeded => 7,
        RuntimeErrorKind::OutputRejected => 8,
        RuntimeErrorKind::Internal => 9,
        RuntimeErrorKind::Panic => 10,
    }
}

fn kind_from_u8(b: u8) -> Result<RuntimeErrorKind, CodecError> {
    Ok(match b {
        0 => RuntimeErrorKind::UndefinedValue,
        1 => RuntimeErrorKind::UndefinedControl,
        2 => RuntimeErrorKind::DanglingPointer,
        3 => RuntimeErrorKind::IndexOutOfBounds,
        4 => RuntimeErrorKind::DivisionByZero,
        5 => RuntimeErrorKind::Overflow,
        6 => RuntimeErrorKind::CallDepthExceeded,
        7 => RuntimeErrorKind::LoopLimitExceeded,
        8 => RuntimeErrorKind::OutputRejected,
        9 => RuntimeErrorKind::Internal,
        10 => RuntimeErrorKind::Panic,
        other => {
            return Err(CodecError::Malformed(format!(
                "unknown runtime-error kind {}",
                other
            )))
        }
    })
}

fn encode_spec_error(w: &mut ByteWriter, e: &RuntimeError) {
    w.put_u8(kind_to_u8(e.kind));
    w.put_str(&e.message);
    match e.span {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_u32(s.start);
            w.put_u32(s.end);
        }
    }
}

fn encode_path(w: &mut ByteWriter, path: &[u32]) {
    w.put_u32(path.len() as u32);
    for &t in path {
        w.put_u32(t);
    }
}

fn encode_node(w: &mut ByteWriter, n: &NodeCkpt) {
    encode_state(w, &n.state);
    encode_cursors(w, &n.cursors);
    w.put_u32(n.tried.len() as u32);
    for &t in &n.tried {
        w.put_usize(t);
    }
    w.put_usize(n.barren);
    encode_path(w, &n.path);
    match &n.pending {
        None => w.put_bool(false),
        Some((fireable, next)) => {
            w.put_bool(true);
            w.put_u32(fireable.len() as u32);
            for f in fireable {
                encode_fireable(w, f);
            }
            w.put_usize(*next);
        }
    }
}

fn encode_nodes(w: &mut ByteWriter, nodes: &[NodeCkpt]) {
    w.put_u32(nodes.len() as u32);
    for n in nodes {
        encode_node(w, n);
    }
}

/// The frozen search front, states inline per node.
fn encode_search(m: &SearchCheckpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_nodes(&mut w, &m.work);
    w.put_u32(m.visited.len() as u32);
    for &v in &m.visited {
        w.put_u64(v);
    }
    w.put_u32(m.spec_errors.len() as u32);
    for e in &m.spec_errors {
        encode_spec_error(&mut w, e);
    }
    w.put_usize(m.best.0);
    encode_path(&mut w, &m.best.1);
    w.into_bytes()
}

// ------------------------------------------------------------ container

/// A sectioned file, the layout checkpoints and post-mortem dumps share
/// (`telemetry::dump`): a header of `magic`, `version` and the section
/// count, then per section its tag, length, payload and CRC32, then the
/// CRC32 of everything before it. `names` names each tag in errors.
pub(crate) struct Container {
    pub magic: [u8; 8],
    pub version: u32,
    pub names: &'static [(u32, &'static str)],
}

fn section_name(names: &[(u32, &'static str)], tag: u32) -> &'static str {
    names
        .iter()
        .find(|(t, _)| *t == tag)
        .map_or("unknown", |(_, n)| *n)
}

impl Container {
    pub(crate) fn encode(&self, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (tag, payload) in sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let digest = crc32(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Structural walk + integrity checks. When this returns `Ok`, every
    /// payload's CRC and the whole-file digest have been verified.
    pub(crate) fn parse<'a>(&self, bytes: &'a [u8]) -> Result<Sections<'a>, CheckpointError> {
        let truncated = |context: &str| CheckpointError::Truncated {
            context: context.to_string(),
        };
        let magic = self.magic.len();
        if bytes.len() < magic {
            return Err(truncated("magic"));
        }
        if bytes[..magic] != self.magic {
            return Err(CheckpointError::BadMagic);
        }
        let mut pos = magic;
        let mut take = |n: usize, context: &str| {
            if bytes.len() - pos < n {
                return Err(truncated(context));
            }
            pos += n;
            Ok(&bytes[pos - n..pos])
        };
        let get_u32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4 bytes"));

        let version = get_u32(take(4, "format version")?);
        if version != self.version {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: self.version,
            });
        }
        let nsections = get_u32(take(4, "section count")?) as usize;
        let mut sections: Vec<(u32, &[u8], u32)> = Vec::new();
        for _ in 0..nsections {
            let tag = get_u32(take(4, "section tag")?);
            let len = u64::from_le_bytes(take(8, "section length")?.try_into().expect("8 bytes"));
            let len = usize::try_from(len).map_err(|_| truncated("section payload"))?;
            let payload = take(len, "section payload")?;
            let stored = get_u32(take(4, "section checksum")?);
            sections.push((tag, payload, stored));
        }
        let stored_digest = get_u32(take(4, "file digest")?);
        if pos != bytes.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing byte(s) after file digest",
                bytes.len() - pos
            )));
        }

        // Per-section checksums first, so a flipped payload byte names
        // its section; the whole-file digest then covers the headers in
        // between.
        for &(tag, payload, stored) in &sections {
            if crc32(payload) != stored {
                return Err(CheckpointError::ChecksumMismatch {
                    section: section_name(self.names, tag),
                });
            }
        }
        if crc32(&bytes[..pos - 4]) != stored_digest {
            return Err(CheckpointError::ChecksumMismatch { section: "file" });
        }
        Ok(Sections {
            version,
            list: sections.into_iter().map(|(t, p, _)| (t, p)).collect(),
            names: self.names,
        })
    }
}

/// A parsed file's version and its checksum-verified `(tag, payload)`
/// sections, in file order.
pub(crate) struct Sections<'a> {
    pub version: u32,
    list: Vec<(u32, &'a [u8])>,
    names: &'static [(u32, &'static str)],
}

impl<'a> Sections<'a> {
    /// Decode section `tag` with `decode`, which must consume it whole.
    pub(crate) fn read<T, E: From<CheckpointError>>(
        &self,
        tag: u32,
        decode: impl FnOnce(&mut ByteReader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let name = section_name(self.names, tag);
        let Some(&(_, payload)) = self.list.iter().find(|(t, _)| *t == tag) else {
            return Err(CheckpointError::Malformed(format!("missing {} section", name)).into());
        };
        let mut r = ByteReader::new(payload);
        let value = decode(&mut r)?;
        if !r.is_done() {
            let trailing = format!("{} trailing byte(s) in {} section", r.remaining(), name);
            return Err(CheckpointError::Malformed(trailing).into());
        }
        Ok(value)
    }
}

// ------------------------------------------------------------- decoding

fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let sections = CHECKPOINT.parse(bytes)?;
    let info = sections.read(SEC_META, |r| decode_meta(r, sections.version))?;
    let trace = sections.read(SEC_TRACE, decode_trace)?;
    let search = sections.read(SEC_SEARCH, |r| decode_search(r, &info))?;
    Ok(Checkpoint {
        search,
        trace,
        stats: info.stats,
    })
}

fn decode_meta(r: &mut ByteReader<'_>, version: u32) -> Result<CheckpointInfo, CheckpointError> {
    let depth = r.get_usize("depth")?;
    let pending_frames = r.get_usize("pending frames")?;
    let events_total = r.get_usize("events total")?;
    let stats = decode_stats(r)?;
    let (mode, workers_at_save) = match r.get_u8("mode")? {
        MODE_DFS => ("dfs", None),
        MODE_MDFS => ("mdfs", Some(r.get_u32("workers at save")?)),
        other => {
            return Err(CheckpointError::Malformed(format!(
                "unknown checkpoint mode {}",
                other
            )))
        }
    };
    Ok(CheckpointInfo {
        version,
        mode,
        depth,
        pending_frames,
        events_total,
        workers_at_save,
        stats,
    })
}

pub(crate) fn decode_stats(r: &mut ByteReader<'_>) -> Result<SearchStats, CodecError> {
    Ok(SearchStats {
        transitions_executed: r.get_u64("TE")?,
        generates: r.get_u64("GE")?,
        restores: r.get_u64("RE")?,
        saves: r.get_u64("SA")?,
        wall_time: Duration::from_nanos(r.get_u64("wall time")?),
        max_depth: r.get_usize("max depth")?,
        fanout_sum: r.get_u64("fanout sum")?,
        fanout_samples: r.get_u64("fanout samples")?,
        pg_nodes: r.get_u64("pg nodes")?,
        error_branches: r.get_u64("error branches")?,
        hash_prunes: r.get_u64("hash prunes")?,
        barren_prunes: r.get_u64("barren prunes")?,
        intern_hits: r.get_u64("intern hits")?,
        snapshot_bytes: r.get_usize("snapshot bytes")?,
        peak_snapshot_bytes: r.get_usize("peak snapshot bytes")?,
        source_retries: r.get_u64("source retries")?,
        source_giveups: r.get_u64("source giveups")?,
        checkpoint_retries: r.get_u64("checkpoint retries")?,
        checkpoint_giveups: r.get_u64("checkpoint giveups")?,
        steals: r.get_u64("steals")?,
        steal_failures: r.get_u64("steal failures")?,
    })
}

fn decode_trace(r: &mut ByteReader<'_>) -> Result<ResolvedTrace, CheckpointError> {
    let ip_count = r.get_u32("stream count")? as usize;
    let mut out = ResolvedTrace::empty(ip_count);
    let n = r.get_len(6, "trace events")?;
    for index in 0..n {
        let dir = match r.get_u8("event direction")? {
            0 => Dir::In,
            1 => Dir::Out,
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "unknown event direction tag {}",
                    other
                )))
            }
        };
        let ip = r.get_u32("event ip")? as usize;
        if ip >= ip_count {
            return Err(CheckpointError::Malformed(format!(
                "event {} references ip {} of {}",
                index, ip, ip_count
            )));
        }
        let interaction = r.get_u32("event interaction")? as usize;
        let np = r.get_u32("event params")? as usize;
        let mut params = Vec::with_capacity(np.min(64));
        for _ in 0..np {
            params.push(decode_value(r)?);
        }
        match dir {
            Dir::In => out.inputs[ip].push(index),
            Dir::Out => out.outputs[ip].push(index),
        }
        out.events.push(ResolvedEvent {
            dir,
            ip,
            interaction,
            params,
            index,
        });
    }
    Ok(out)
}

fn decode_cursors(r: &mut ByteReader<'_>) -> Result<Cursors, CodecError> {
    let ni = r.get_u32("input cursors")? as usize;
    let mut input = Vec::with_capacity(ni.min(1024));
    for _ in 0..ni {
        input.push(r.get_usize("input cursor")?);
    }
    let no = r.get_u32("output cursors")? as usize;
    let mut output = Vec::with_capacity(no.min(1024));
    for _ in 0..no {
        output.push(r.get_usize("output cursor")?);
    }
    Ok(Cursors { input, output })
}

fn decode_fireable(r: &mut ByteReader<'_>) -> Result<Fireable, CodecError> {
    let trans = r.get_usize("fireable transition")?;
    let fabricated = r.get_bool("fireable fabricated flag")?;
    let np = r.get_u32("fireable params")? as usize;
    let mut params = Vec::with_capacity(np.min(64));
    for _ in 0..np {
        params.push(decode_value(r)?);
    }
    Ok(Fireable {
        trans,
        params,
        fabricated,
    })
}

fn decode_spec_error(r: &mut ByteReader<'_>) -> Result<RuntimeError, CodecError> {
    let kind = kind_from_u8(r.get_u8("error kind")?)?;
    let message = r.get_str("error message")?;
    let span = match r.get_u8("error span tag")? {
        0 => None,
        1 => {
            let start = r.get_u32("span start")?;
            let end = r.get_u32("span end")?;
            if start > end {
                return Err(CodecError::Malformed(format!(
                    "inverted span {}..{}",
                    start, end
                )));
            }
            Some(Span::new(start, end))
        }
        other => {
            return Err(CodecError::Malformed(format!(
                "unknown span tag {}",
                other
            )))
        }
    };
    Ok(RuntimeError {
        kind,
        message: message.into(),
        span,
    })
}

fn decode_path(r: &mut ByteReader<'_>) -> Result<Vec<u32>, CodecError> {
    let n = r.get_len(4, "path")?;
    let mut path = Vec::with_capacity(n);
    for _ in 0..n {
        path.push(r.get_u32("path step")?);
    }
    Ok(path)
}

fn decode_node(r: &mut ByteReader<'_>) -> Result<NodeCkpt, CheckpointError> {
    let state = decode_state(r)?;
    let cursors = decode_cursors(r)?;
    let nt = r.get_u32("tried count")? as usize;
    let mut tried = Vec::with_capacity(nt.min(1024));
    for _ in 0..nt {
        tried.push(r.get_usize("tried transition")?);
    }
    let barren = r.get_usize("node barren count")?;
    let path = decode_path(r)?;
    let pending = if r.get_bool("pending flag")? {
        let nf = r.get_u32("pending count")? as usize;
        let mut fireable = Vec::with_capacity(nf.min(64));
        for _ in 0..nf {
            fireable.push(decode_fireable(r)?);
        }
        let next = r.get_usize("pending next")?;
        if next >= fireable.len() {
            return Err(CheckpointError::Malformed(format!(
                "pending cursor {} past its {} candidates",
                next,
                fireable.len()
            )));
        }
        Some((fireable, next))
    } else {
        None
    };
    Ok(NodeCkpt {
        state,
        cursors,
        tried,
        barren,
        path,
        pending,
    })
}

fn decode_nodes(r: &mut ByteReader<'_>) -> Result<Vec<NodeCkpt>, CheckpointError> {
    let n = r.get_u32("node count")? as usize;
    let mut nodes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        nodes.push(decode_node(r)?);
    }
    Ok(nodes)
}

/// The frozen search; its mode, progress numbers and saving worker count
/// come from `META`.
fn decode_search(
    r: &mut ByteReader<'_>,
    info: &CheckpointInfo,
) -> Result<SearchCheckpoint, CheckpointError> {
    let work = decode_nodes(r)?;
    let nv = r.get_len(8, "visited set")?;
    let mut visited = Vec::with_capacity(nv);
    for _ in 0..nv {
        visited.push(r.get_u64("visited hash")?);
    }
    let ne = r.get_u32("spec error count")? as usize;
    let mut spec_errors = Vec::with_capacity(ne.min(1024));
    for _ in 0..ne {
        spec_errors.push(decode_spec_error(r)?);
    }
    let best_explained = r.get_usize("best explained")?;
    let best_path = decode_path(r)?;
    Ok(SearchCheckpoint {
        complete: info.mode == "dfs",
        workers_at_save: info.workers_at_save.unwrap_or(1),
        work,
        visited,
        spec_errors,
        best: (best_explained, best_path),
        events_total: info.events_total,
        depth: info.depth,
    })
}

// --------------------------------------------------------- atomic write

/// The temp-file sibling one atomic write stages into before the rename
/// (pid-suffixed so concurrent writers to the same path cannot collide).
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(tmp_name)
}

/// One write attempt: temp file in the same directory, fsync, rename
/// over the destination, fsync the directory. A crash at any point
/// leaves either the old file or the new one, never a mix. Retries are
/// the caller's job ([`Checkpoint::write_to_with`]) — each attempt is
/// this full sequence, so a retry never observes a half-written file.
pub(crate) fn write_atomic_once(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = tmp_path(path);
    let result = (|| -> Result<(), CheckpointError> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is a
        // best-effort POSIX-ism; opening a directory read-only fails on
        // some platforms, and the rename is already atomic without it.
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_vector() {
        // The classic CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"tango"), crc32(b"tangp"));
    }

    #[test]
    fn stats_roundtrip() {
        let s = SearchStats {
            transitions_executed: 12345,
            generates: 678,
            restores: 90,
            saves: 91,
            wall_time: Duration::from_micros(987_654),
            max_depth: 42,
            fanout_sum: 100,
            fanout_samples: 40,
            pg_nodes: 7,
            error_branches: 3,
            hash_prunes: 11,
            barren_prunes: 2,
            intern_hits: 19,
            snapshot_bytes: 4096,
            peak_snapshot_bytes: 8192,
            source_retries: 5,
            source_giveups: 1,
            checkpoint_retries: 4,
            checkpoint_giveups: 2,
            steals: 31,
            steal_failures: 6,
        };
        let mut w = ByteWriter::new();
        encode_stats(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_stats(&mut r).expect("decodes");
        assert!(r.is_done());
        assert_eq!(back.transitions_executed, s.transitions_executed);
        assert_eq!(back.wall_time, s.wall_time);
        assert_eq!(back.peak_snapshot_bytes, s.peak_snapshot_bytes);
        assert_eq!(back.source_retries, s.source_retries);
        assert_eq!(back.source_giveups, s.source_giveups);
        assert_eq!(back.checkpoint_retries, s.checkpoint_retries);
        assert_eq!(back.checkpoint_giveups, s.checkpoint_giveups);
        assert_eq!(back.steals, s.steals);
        assert_eq!(back.steal_failures, s.steal_failures);
    }

    /// A checkpoint with an empty front: enough to exercise the writer.
    fn empty_checkpoint() -> Checkpoint {
        Checkpoint {
            search: SearchCheckpoint {
                complete: true,
                workers_at_save: 1,
                work: Vec::new(),
                visited: Vec::new(),
                spec_errors: Vec::new(),
                best: (0, Vec::new()),
                events_total: 0,
                depth: 0,
            },
            trace: ResolvedTrace::default(),
            stats: SearchStats::default(),
        }
    }

    #[test]
    fn injected_faults_follow_the_plan_across_saves() {
        let dir = std::env::temp_dir().join(format!("tango-ckpt-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.bin");
        let cp = empty_checkpoint();
        let io_error = |e: Result<(), CheckpointError>| match e {
            Err(CheckpointError::Io(e)) => e.to_string(),
            other => panic!("expected an injected I/O error, got {:?}", other),
        };

        // Every 2nd attempt fails, counted across saves: attempts
        // pass, fail, pass, fail, pass.
        let plan = FaultPlan::default().with(Fault::CheckpointIoError, 2);
        let mut attempts = 0;
        for (retries, after) in [(0, 1), (1, 3), (1, 5)] {
            let before = attempts;
            let out = cp.write_to_with(&path, &plan, &mut attempts);
            assert!(out.is_ok());
            assert_eq!((attempts - before - 1, attempts), (retries, after));
        }

        // Disk full outranks a short write: from the 2nd attempt on
        // every attempt is ENOSPC and no torn temp file appears.
        let plan = FaultPlan::default()
            .with(Fault::CheckpointDiskFull, 1)
            .with(Fault::CheckpointShortWrite, 2);
        let mut attempts = 0;
        assert!(cp.write_to_with(&path, &plan, &mut attempts).is_ok());
        let before = attempts;
        let out = cp.write_to_with(&path, &plan, &mut attempts);
        assert_eq!(io_error(out), "no space left on device (injected)");
        assert_eq!(
            (attempts - before - 1, attempts),
            (3, 5),
            "1 try + 3 retries"
        );
        assert!(!tmp_path(&path).exists(), "disk full must not tear a temp file");

        // A short write outranks an I/O error: the temp file is torn,
        // the destination keeps the last good save.
        let plan = FaultPlan::default()
            .with(Fault::CheckpointShortWrite, 1)
            .with(Fault::CheckpointIoError, 1);
        let out = cp.write_to_with(&path, &plan, &mut 0);
        assert_eq!(io_error(out), "checkpoint short write (injected)");
        assert!(tmp_path(&path).exists(), "the short write tears the temp file");
        assert!(Checkpoint::read_from(&path).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_save_retries_three_times_after_4_8_and_16_ms() {
        let dir = std::env::temp_dir().join(format!("tango-ckpt-retry-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.bin");
        let cp = empty_checkpoint();
        let ms = Duration::from_millis;

        // Two transient failures are absorbed: attempts 3 (an I/O
        // error) and 4 (a short write) fail, the retry after 4 and 8 ms
        // succeeds.
        let plan = FaultPlan::default()
            .with(Fault::CheckpointIoError, 3)
            .with(Fault::CheckpointShortWrite, 2);
        let (mut attempts, mut slept) = (2, Vec::new());
        let out = cp.write_sleeping(&path, &plan, &mut attempts, &mut |d| slept.push(d));
        assert!(out.is_ok(), "{:?}", out);
        assert_eq!((attempts, slept), (5, vec![ms(4), ms(8)]), "two retries");
        assert!(
            !tmp_path(&path).exists(),
            "the good attempt renames the torn temp file away"
        );

        // A persistent failure surfaces after 1 try + 3 retries, the
        // sleeps doubling from 4 ms.
        let plan = FaultPlan::default().with(Fault::CheckpointDiskFull, 0);
        let (mut attempts, mut slept) = (0, Vec::new());
        match cp.write_sleeping(&path, &plan, &mut attempts, &mut |d| slept.push(d)) {
            Err(CheckpointError::Io(e)) => assert!(e.to_string().contains("no space left")),
            other => panic!("persistent failure must surface as Io, got {:?}", other),
        }
        assert_eq!((attempts, slept), (4, vec![ms(4), ms(8), ms(16)]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_kind_mapping_is_total_and_injective() {
        let kinds = [
            RuntimeErrorKind::UndefinedValue,
            RuntimeErrorKind::UndefinedControl,
            RuntimeErrorKind::DanglingPointer,
            RuntimeErrorKind::IndexOutOfBounds,
            RuntimeErrorKind::DivisionByZero,
            RuntimeErrorKind::Overflow,
            RuntimeErrorKind::CallDepthExceeded,
            RuntimeErrorKind::LoopLimitExceeded,
            RuntimeErrorKind::OutputRejected,
            RuntimeErrorKind::Internal,
            RuntimeErrorKind::Panic,
        ];
        for (i, &k) in kinds.iter().enumerate() {
            assert_eq!(kind_to_u8(k), i as u8);
            assert_eq!(kind_from_u8(i as u8).expect("maps back"), k);
        }
        assert!(kind_from_u8(kinds.len() as u8).is_err());
    }
}
