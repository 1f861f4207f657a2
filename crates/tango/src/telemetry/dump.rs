//! Post-mortem `.tangodump` files: what the black box writes down when
//! a run ends badly.
//!
//! Any non-Completed outcome — every [`InconclusiveReason`], a fault
//! site that gave up after its retries, a panic-isolated branch — is
//! worth a durable artifact that explains itself *after* the process is
//! gone (GenTra4CP's self-describing-trace principle). The dump captures
//! the flight recorder's retained tail, the final [`SearchStats`], the
//! top-K transition hot spots, the armed chaos plan and the path of the
//! newest autosaved checkpoint, so the triage loop is: read the dump,
//! see where the time and memory went, resume from the checkpoint it
//! names.
//!
//! The byte format is the checkpoint codec's sectioned container under
//! the dump's own magic, version and sections (DESIGN §6.12 holds the
//! section table):
//!
//! ```text
//! +----------------+---------+-----------+
//! | magic (8B)     | version | #sections |   header
//! | b"TANGODMP"    |  u32 LE |  u32 LE   |
//! +----------------+---------+-----------+
//! | tag u32 | len u64 | payload | CRC32  |   META | STATS | RING |
//! +------------------------------------+-+   HOTSPOTS | PLAN
//! | CRC32 of everything above            |   whole-file digest
//! +--------------------------------------+
//! ```
//!
//! The `STATS` payload is byte-for-byte the checkpoint codec's stats
//! block (one codec, two formats), integrity failures map to the typed
//! [`DumpError`] (never a panic — pinned by `tests/flight_recorder.rs`),
//! and writes go through the same atomic temp+fsync+rename sequence as
//! checkpoints, so a crash mid-dump never leaves a torn file.
//!
//! [`InconclusiveReason`]: crate::verdict::InconclusiveReason

use super::recorder::{kind_name, FlightRecord, KIND_COUNT};
use super::Telemetry;
use crate::checkpoint::codec::{
    decode_stats, encode_stats, write_atomic_once, CheckpointError, Container,
};
use crate::fault::FaultPlan;
use crate::stats::SearchStats;
use crate::telemetry::event::json_escape;
use crate::verdict::{AnalysisReport, Verdict};
use estelle_runtime::{ByteWriter, RuntimeErrorKind};
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// First 8 bytes of every dump file.
pub const DUMP_MAGIC: [u8; 8] = *b"TANGODMP";

/// Current dump format version. Bump on any change to the byte layout;
/// a reader refuses every other version instead of misreading it.
/// Version 2 drops the disk-tier byte gauge from `META`, and its `STATS`
/// block is the checkpoint codec's version-8 block.
pub const DUMP_FORMAT_VERSION: u32 = 2;

/// Hot-spot rows captured per dump — enough to see where the time went
/// without embedding the whole profile of a large specification.
pub const HOTSPOT_TOP_K: usize = 16;

/// Fault diagnostics retained per category (source/checkpoint):
/// the first few tell the story; a thousand repeats of "no space left"
/// do not.
const FAULTS_CAP: usize = 8;

const SEC_META: u32 = 1;
const SEC_STATS: u32 = 2;
const SEC_RING: u32 = 3;
const SEC_HOTSPOTS: u32 = 4;
const SEC_PLAN: u32 = 5;

/// The dump file's layout: the checkpoint codec's container under the
/// dump's own magic, version and sections.
const DUMP: Container = Container {
    magic: DUMP_MAGIC,
    version: DUMP_FORMAT_VERSION,
    names: &[
        (SEC_META, "meta"),
        (SEC_STATS, "stats"),
        (SEC_RING, "ring"),
        (SEC_HOTSPOTS, "hotspots"),
        (SEC_PLAN, "plan"),
    ],
};

/// Why a dump file could not be written or read. Mirrors
/// [`CheckpointError`] variant-for-variant — the shared container reports
/// its failures as that type, and `From` renames them — so the two
/// post-crash artifact formats fail the same way.
#[derive(Debug)]
pub enum DumpError {
    Io(std::io::Error),
    /// The file does not start with the dump magic — not a dump at all.
    BadMagic,
    UnsupportedVersion { found: u32, supported: u32 },
    Truncated { context: String },
    ChecksumMismatch { section: &'static str },
    Malformed(String),
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::Io(e) => write!(f, "dump I/O error: {}", e),
            DumpError::BadMagic => f.write_str("not a tango post-mortem dump (bad magic)"),
            DumpError::UnsupportedVersion { found, supported } => write!(
                f,
                "dump format version {} not supported (this build reads only version {})",
                found, supported
            ),
            DumpError::Truncated { context } => {
                write!(f, "dump file truncated while reading {}", context)
            }
            DumpError::ChecksumMismatch { section } => {
                write!(f, "dump checksum mismatch in {} section", section)
            }
            DumpError::Malformed(m) => write!(f, "malformed dump: {}", m),
        }
    }
}

impl std::error::Error for DumpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DumpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DumpError {
    fn from(e: std::io::Error) -> Self {
        DumpError::Io(e)
    }
}

impl From<CheckpointError> for DumpError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => DumpError::Io(e),
            CheckpointError::BadMagic => DumpError::BadMagic,
            CheckpointError::UnsupportedVersion { found, supported } => {
                DumpError::UnsupportedVersion { found, supported }
            }
            CheckpointError::Truncated { context } => DumpError::Truncated { context },
            CheckpointError::ChecksumMismatch { section } => {
                DumpError::ChecksumMismatch { section }
            }
            CheckpointError::Malformed(m) => DumpError::Malformed(m),
        }
    }
}

/// One hot-spot row: a transition's profile counters with its name
/// resolved at capture time (the ring itself stores only indices).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotspotRow {
    pub trans: u32,
    pub name: String,
    pub fires: u64,
    pub fails: u64,
    pub nanos: u64,
}

impl HotspotRow {
    /// The row as JSON fields, as `/profile` and `dump-info --jsonl`
    /// show it.
    pub(crate) fn json_fields(&self) -> String {
        format!(
            "\"trans\":{},\"name\":\"{}\",\"fires\":{},\"fails\":{},\"nanos\":{}",
            self.trans,
            json_escape(&self.name),
            self.fires,
            self.fails,
            self.nanos
        )
    }
}

/// The flight recorder's state frozen into a dump: lifetime accounting
/// plus the retained tail, oldest record first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RingCapture {
    pub capacity: u32,
    pub seen: u64,
    pub counts: [u64; KIND_COUNT],
    pub records: Vec<FlightRecord>,
}

/// The armed chaos plan at dump time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanCapture {
    pub seed: u64,
    pub spec: String,
}

/// A complete in-memory post-mortem dump — what `capture` assembles,
/// `write_to` persists and `read_from` recovers.
#[derive(Clone, Debug)]
pub struct PostMortemDump {
    /// Format version of the file this was read from (or the current
    /// version for a fresh capture).
    pub version: u32,
    /// Search mode (`dfs` or `mdfs`) and specification module name.
    pub mode: String,
    pub spec: String,
    /// The verdict line — why this dump exists.
    pub reason: String,
    /// The snapshot gauge at capture.
    pub resident_bytes: u64,
    /// Path of the newest autosaved checkpoint, when one exists — the
    /// resume handle this dump points its reader at.
    pub checkpoint_path: Option<String>,
    /// First few fault diagnostics per site (source, checkpoint).
    pub faults: Vec<String>,
    /// Final cumulative counters.
    pub stats: SearchStats,
    pub ring: RingCapture,
    /// Top-K transitions by cumulative fire time.
    pub hotspots: Vec<HotspotRow>,
    /// The armed fault plan, `None` when the run was chaos-free.
    pub plan: Option<PlanCapture>,
}

/// Whether `report` is a dump-worthy outcome: any `Inconclusive`
/// verdict, any fault site that gave up, or a panic isolated on an
/// abandoned branch. Conclusive, fault-free runs produce no dump.
pub fn should_dump(report: &AnalysisReport) -> bool {
    matches!(report.verdict, Verdict::Inconclusive(_))
        || report.stats.total_fault_giveups() > 0
        || report
            .spec_errors
            .iter()
            .any(|e| e.kind == RuntimeErrorKind::Panic)
}

fn capped_faults(report: &AnalysisReport) -> Vec<String> {
    let mut out = Vec::new();
    for (site, list) in [
        ("source", &report.source_faults),
        ("checkpoint", &report.checkpoint_faults),
    ] {
        for f in list.iter().take(FAULTS_CAP) {
            out.push(format!("{}: {}", site, f));
        }
        if list.len() > FAULTS_CAP {
            out.push(format!(
                "{}: … {} more fault(s) elided",
                site,
                list.len() - FAULTS_CAP
            ));
        }
    }
    out
}

impl PostMortemDump {
    /// Freeze the black box: assemble a dump from the final report, the
    /// telemetry handle (flight recorder, profile, remembered mode/spec
    /// and transition names), the newest checkpoint path and the armed
    /// fault plan. Pure in-memory; pair with [`PostMortemDump::write_to`].
    pub fn capture(
        report: &AnalysisReport,
        tel: &Telemetry,
        checkpoint_path: Option<&Path>,
        plan: Option<&FaultPlan>,
    ) -> PostMortemDump {
        let ring = match tel.recorder() {
            Some(r) => RingCapture {
                capacity: r.capacity() as u32,
                seen: r.seen(),
                counts: *r.counts(),
                records: r.records(),
            },
            None => RingCapture::default(),
        };
        let hotspots = tel.hotspots(HOTSPOT_TOP_K);
        PostMortemDump {
            version: DUMP_FORMAT_VERSION,
            mode: tel.mode().to_string(),
            spec: tel.spec().to_string(),
            reason: report.verdict.to_string(),
            resident_bytes: report.stats.snapshot_bytes as u64,
            checkpoint_path: checkpoint_path.map(|p| p.display().to_string()),
            faults: capped_faults(report),
            stats: report.stats.clone(),
            ring,
            hotspots,
            plan: plan.filter(|p| p.is_armed()).map(|p| PlanCapture {
                seed: p.seed,
                spec: p.describe(),
            }),
        }
    }

    /// Serialize and atomically replace `path` (temp + fsync + rename,
    /// like a checkpoint: a crash mid-dump leaves no torn file).
    pub fn write_to(&self, path: &Path) -> Result<(), DumpError> {
        Ok(write_atomic_once(path, &self.encode())?)
    }

    /// Load a dump written by [`PostMortemDump::write_to`], verifying
    /// magic, version, per-section checksums and the whole-file digest.
    pub fn read_from(path: &Path) -> Result<PostMortemDump, DumpError> {
        decode_dump(&fs::read(path)?)
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut stats = ByteWriter::new();
        encode_stats(&mut stats, &self.stats);
        DUMP.encode(&[
            (SEC_META, self.encode_meta()),
            (SEC_STATS, stats.into_bytes()),
            (SEC_RING, self.encode_ring()),
            (SEC_HOTSPOTS, self.encode_hotspots()),
            (SEC_PLAN, self.encode_plan()),
        ])
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.mode);
        w.put_str(&self.spec);
        w.put_str(&self.reason);
        w.put_u64(self.resident_bytes);
        match &self.checkpoint_path {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                w.put_str(p);
            }
        }
        w.put_u32(self.faults.len() as u32);
        for f in &self.faults {
            w.put_str(f);
        }
        w.into_bytes()
    }

    fn encode_ring(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.ring.capacity);
        w.put_u64(self.ring.seen);
        for c in &self.ring.counts {
            w.put_u64(*c);
        }
        w.put_u32(self.ring.records.len() as u32);
        for r in &self.ring.records {
            r.encode(&mut w);
        }
        w.into_bytes()
    }

    /// The encoded `RING` payload alone — what the determinism test
    /// compares byte-for-byte across same-seed runs.
    pub fn ring_section_bytes(&self) -> Vec<u8> {
        self.encode_ring()
    }

    fn encode_hotspots(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.hotspots.len() as u32);
        for h in &self.hotspots {
            w.put_u32(h.trans);
            w.put_str(&h.name);
            w.put_u64(h.fires);
            w.put_u64(h.fails);
            w.put_u64(h.nanos);
        }
        w.into_bytes()
    }

    fn encode_plan(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match &self.plan {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                w.put_u64(p.seed);
                w.put_str(&p.spec);
            }
        }
        w.into_bytes()
    }

    /// Render the human-facing triage view (`tango dump-info`).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "tango post-mortem dump (format v{})", self.version);
        let _ = writeln!(out, "  mode: {}  spec: {}", self.mode, self.spec);
        let _ = writeln!(out, "  reason: {}", self.reason);
        let _ = writeln!(out, "  stats: {}", self.stats);
        let _ = writeln!(
            out,
            "  memory: resident={}B (peak {}B)",
            self.resident_bytes, self.stats.peak_snapshot_bytes
        );
        let _ = writeln!(
            out,
            "  faults: retries={} giveups={}",
            self.stats.total_fault_retries(),
            self.stats.total_fault_giveups()
        );
        for f in &self.faults {
            let _ = writeln!(out, "    {}", f);
        }
        match &self.checkpoint_path {
            Some(p) => {
                let _ = writeln!(out, "  resume from: {}", p);
            }
            None => {
                let _ = writeln!(out, "  resume from: (no checkpoint recorded)");
            }
        }
        match &self.plan {
            Some(p) => {
                let _ = writeln!(out, "  chaos: seed={} plan={}", p.seed, p.spec);
            }
            None => {
                let _ = writeln!(out, "  chaos: unarmed");
            }
        }
        let _ = writeln!(
            out,
            "  flight recorder: {} record(s) retained of {} seen (capacity {})",
            self.ring.records.len(),
            self.ring.seen,
            self.ring.capacity
        );
        let _ = writeln!(
            out,
            "    lifetime counts: fire={} generate={} restore={} save={} \
             (final TE={} GE={} RE={} SA={})",
            self.ring.counts[super::recorder::KIND_FIRE as usize],
            self.ring.counts[super::recorder::KIND_GENERATE as usize],
            self.ring.counts[super::recorder::KIND_RESTORE as usize],
            self.ring.counts[super::recorder::KIND_SAVE as usize],
            self.stats.transitions_executed,
            self.stats.generates,
            self.stats.restores,
            self.stats.saves
        );
        if !self.hotspots.is_empty() {
            let _ = writeln!(out, "  hot transitions:");
            for (rank, h) in self.hotspots.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    {:>2}. {:<24} fires={} fails={} total={:.3}ms",
                    rank + 1,
                    h.name,
                    h.fires,
                    h.fails,
                    h.nanos as f64 / 1e6
                );
            }
        }
        let tail = 10.min(self.ring.records.len());
        if tail > 0 {
            let _ = writeln!(out, "  last {} record(s):", tail);
            for r in &self.ring.records[self.ring.records.len() - tail..] {
                let _ = writeln!(
                    out,
                    "    seq={} {} flag={} depth={} trans={} a={} b={}",
                    r.seq,
                    kind_name(r.kind),
                    r.flag,
                    r.depth,
                    r.trans,
                    r.a,
                    r.b
                );
            }
        }
        out
    }

    /// Render the machine-facing view: one `tango-dump` header line then
    /// one line per retained flight record, every line a JSON document
    /// (validated by `bench/json_check --jsonl`).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"tango-dump\",\"version\":{},\"mode\":\"{}\",\"spec\":\"{}\",\
             \"reason\":\"{}\",\"te\":{},\"ge\":{},\"re\":{},\"sa\":{},\
             \"resident_bytes\":{},\"retries\":{},\"giveups\":{},\
             \"ring_seen\":{},\"ring_retained\":{},\"ring_capacity\":{}",
            self.version,
            json_escape(&self.mode),
            json_escape(&self.spec),
            json_escape(&self.reason),
            self.stats.transitions_executed,
            self.stats.generates,
            self.stats.restores,
            self.stats.saves,
            self.resident_bytes,
            self.stats.total_fault_retries(),
            self.stats.total_fault_giveups(),
            self.ring.seen,
            self.ring.records.len(),
            self.ring.capacity
        );
        if let Some(p) = &self.checkpoint_path {
            let _ = write!(out, ",\"checkpoint\":\"{}\"", json_escape(p));
        }
        if let Some(p) = &self.plan {
            let _ = write!(
                out,
                ",\"chaos_seed\":{},\"chaos_plan\":\"{}\"",
                p.seed,
                json_escape(&p.spec)
            );
        }
        out.push_str("}\n");
        for h in &self.hotspots {
            let _ = writeln!(out, "{{\"schema\":\"tango-dump-hotspot\",{}}}", h.json_fields());
        }
        for r in &self.ring.records {
            let _ = writeln!(
                out,
                "{{\"schema\":\"tango-dump-record\",\"seq\":{},\"kind\":\"{}\",\"flag\":{},\
                 \"depth\":{},\"trans\":{},\"a\":{},\"b\":{}}}",
                r.seq,
                kind_name(r.kind),
                r.flag,
                r.depth,
                r.trans,
                r.a,
                r.b
            );
        }
        out
    }
}

// ------------------------------------------------------------- decoding

fn decode_dump(bytes: &[u8]) -> Result<PostMortemDump, DumpError> {
    let sections = DUMP.parse(bytes)?;
    // Fields are read in declaration order, which is the META layout.
    let mut dump = sections.read(SEC_META, |r| -> Result<_, CheckpointError> {
        Ok(PostMortemDump {
            version: sections.version,
            mode: r.get_str("dump mode")?,
            spec: r.get_str("dump spec")?,
            reason: r.get_str("dump reason")?,
            resident_bytes: r.get_u64("resident bytes")?,
            checkpoint_path: if r.get_bool("checkpoint-path tag")? {
                Some(r.get_str("checkpoint path")?)
            } else {
                None
            },
            faults: {
                let n = r.get_u32("fault count")? as usize;
                let mut faults = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    faults.push(r.get_str("fault diagnostic")?);
                }
                faults
            },
            stats: SearchStats::default(),
            ring: RingCapture::default(),
            hotspots: Vec::new(),
            plan: None,
        })
    })?;
    dump.stats = sections.read(SEC_STATS, |r| decode_stats(r).map_err(CheckpointError::from))?;
    dump.ring = sections.read(SEC_RING, |r| -> Result<_, CheckpointError> {
        let capacity = r.get_u32("ring capacity")?;
        let seen = r.get_u64("ring seen")?;
        let mut counts = [0u64; KIND_COUNT];
        for c in &mut counts {
            *c = r.get_u64("ring kind count")?;
        }
        let nrecords = r.get_u32("ring record count")? as usize;
        if nrecords > capacity as usize {
            return Err(CheckpointError::Malformed(format!(
                "ring holds {} records over its capacity {}",
                nrecords, capacity
            )));
        }
        let mut records = Vec::with_capacity(nrecords.min(65_536));
        for _ in 0..nrecords {
            records.push(FlightRecord::decode(r)?);
        }
        Ok(RingCapture {
            capacity,
            seen,
            counts,
            records,
        })
    })?;
    dump.hotspots = sections.read(SEC_HOTSPOTS, |r| -> Result<_, CheckpointError> {
        let nhot = r.get_u32("hotspot count")? as usize;
        let mut hotspots = Vec::with_capacity(nhot.min(1024));
        for _ in 0..nhot {
            hotspots.push(HotspotRow {
                trans: r.get_u32("hotspot transition")?,
                name: r.get_str("hotspot name")?,
                fires: r.get_u64("hotspot fires")?,
                fails: r.get_u64("hotspot fails")?,
                nanos: r.get_u64("hotspot nanos")?,
            });
        }
        Ok(hotspots)
    })?;
    dump.plan = sections.read(SEC_PLAN, |r| -> Result<_, CheckpointError> {
        if !r.get_bool("plan tag")? {
            return Ok(None);
        }
        Ok(Some(PlanCapture {
            seed: r.get_u64("plan seed")?,
            spec: r.get_str("plan spec")?,
        }))
    })?;
    Ok(dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::InconclusiveReason;

    fn sample_dump() -> PostMortemDump {
        PostMortemDump {
            version: DUMP_FORMAT_VERSION,
            mode: "dfs".to_string(),
            spec: "tp0".to_string(),
            reason: "inconclusive (TransitionLimit)".to_string(),
            resident_bytes: 4096,
            checkpoint_path: Some("out/tp0.ckpt".to_string()),
            faults: vec!["checkpoint: injected I/O error".to_string()],
            stats: SearchStats {
                transitions_executed: 100,
                generates: 60,
                restores: 40,
                saves: 40,
                ..Default::default()
            },
            ring: RingCapture {
                capacity: 4,
                seen: 9,
                counts: {
                    let mut c = [0u64; KIND_COUNT];
                    c[super::super::recorder::KIND_FIRE as usize] = 9;
                    c
                },
                records: vec![
                    FlightRecord {
                        seq: 7,
                        kind: super::super::recorder::KIND_FIRE,
                        flag: 1,
                        depth: 3,
                        trans: 2,
                        a: 0,
                        b: 0,
                    };
                    4
                ],
            },
            hotspots: vec![HotspotRow {
                trans: 2,
                name: "T3".to_string(),
                fires: 9,
                fails: 1,
                nanos: 12_345,
            }],
            plan: Some(PlanCapture {
                seed: 42,
                spec: "seed=42,checkpoint.io_error_every=2".to_string(),
            }),
        }
    }

    #[test]
    fn dump_round_trips_byte_exact() {
        let d = sample_dump();
        let bytes = d.encode();
        let back = decode_dump(&bytes).expect("decodes");
        assert_eq!(back.mode, d.mode);
        assert_eq!(back.reason, d.reason);
        assert_eq!(back.checkpoint_path, d.checkpoint_path);
        assert_eq!(back.faults, d.faults);
        assert_eq!(back.stats.transitions_executed, 100);
        assert_eq!(back.ring, d.ring);
        assert_eq!(back.hotspots, d.hotspots);
        assert_eq!(back.plan, d.plan);
        assert_eq!(back.encode(), bytes, "re-encoding is byte-identical");
    }

    #[test]
    fn corruption_is_typed_never_a_panic() {
        let good = sample_dump().encode();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode_dump(&bad_magic), Err(DumpError::BadMagic)));

        let mut future = good.clone();
        future[8] = 0xEE;
        assert!(matches!(
            decode_dump(&future),
            Err(DumpError::UnsupportedVersion { .. })
        ));

        // Version 1 carried one more META gauge: refused, not misread.
        let mut v1 = good.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_dump(&v1),
            Err(DumpError::UnsupportedVersion {
                found: 1,
                supported: 2
            })
        ));

        assert!(matches!(
            decode_dump(&good[..good.len() / 2]),
            Err(DumpError::Truncated { .. })
        ));

        // Flip a byte inside the META payload (header 16B + tag 4B +
        // len 8B, then the mode string's length prefix and bytes): the
        // per-section CRC must name the section.
        let mut flipped = good.clone();
        flipped[32] ^= 0x01;
        assert!(matches!(
            decode_dump(&flipped),
            Err(DumpError::ChecksumMismatch { section: "meta" })
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            decode_dump(&trailing),
            Err(DumpError::Malformed(_))
        ));
    }

    #[test]
    fn should_dump_covers_every_non_completed_outcome() {
        use estelle_runtime::RuntimeError;
        for reason in [
            InconclusiveReason::TransitionLimit,
            InconclusiveReason::DepthLimit,
            InconclusiveReason::PgNodeLimit,
            InconclusiveReason::TimeLimit,
            InconclusiveReason::MemoryLimit,
        ] {
            let r = AnalysisReport::new(Verdict::Inconclusive(reason), SearchStats::default());
            assert!(should_dump(&r), "{:?} must dump", reason);
        }
        let clean = AnalysisReport::new(Verdict::Valid, SearchStats::default());
        assert!(!should_dump(&clean), "clean completion must not dump");

        let mut giveup = AnalysisReport::new(Verdict::Valid, SearchStats::default());
        giveup.stats.checkpoint_giveups = 1;
        assert!(should_dump(&giveup), "a chaos giveup dumps even when valid");

        let mut panicked = AnalysisReport::new(Verdict::Invalid, SearchStats::default());
        panicked.spec_errors.push(RuntimeError {
            kind: RuntimeErrorKind::Panic,
            message: "isolated".into(),
            span: None,
        });
        assert!(should_dump(&panicked), "an isolated panic dumps");
        panicked.spec_errors[0].kind = RuntimeErrorKind::DivisionByZero;
        assert!(
            !should_dump(&panicked),
            "ordinary spec errors are part of a conclusive verdict"
        );
    }

    #[test]
    fn fault_lists_are_capped_in_the_dump() {
        let mut r = AnalysisReport::new(
            Verdict::Inconclusive(InconclusiveReason::MemoryLimit),
            SearchStats::default(),
        );
        r.checkpoint_faults = (0..20).map(|i| format!("fault {}", i)).collect();
        let faults = capped_faults(&r);
        assert_eq!(faults.len(), FAULTS_CAP + 1);
        assert!(faults.last().unwrap().contains("12 more fault(s) elided"));
    }

    #[test]
    fn jsonl_rendering_is_line_per_document(
    ) {
        let text = sample_dump().render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 1 + 4, "header + hotspot + 4 records");
        assert!(lines[0].starts_with("{\"schema\":\"tango-dump\""));
        assert!(lines[0].contains("\"chaos_seed\":42"));
        assert!(lines[1].starts_with("{\"schema\":\"tango-dump-hotspot\""));
        assert!(lines[2].contains("\"kind\":\"fire\""));
    }

    #[test]
    fn human_rendering_names_the_resume_checkpoint() {
        let text = sample_dump().render_human();
        assert!(text.contains("resume from: out/tp0.ckpt"), "{}", text);
        assert!(text.contains("reason: inconclusive (TransitionLimit)"));
        assert!(text.contains("chaos: seed=42"));
    }
}
