//! The flight recorder: an always-affordable black box for searches.
//!
//! Unlike the opt-in facilities in this module, the recorder is designed
//! to be **default on**: a fixed-capacity ring of the search's own step
//! records (`StepRecord`, stored as is under their sequence numbers)
//! plus fault/retry deltas. Its storage is fully pre-allocated at
//! construction — recording one step is a bounds-masked store into a
//! `Vec<FlightRecord>` (no allocation, no clock read, no formatting), so
//! a multi-hour run pays the same few nanoseconds per step from first
//! event to last.
//!
//! The ring retains the *tail* of the run — the part that explains a
//! verdict — while lifetime per-kind counters retain the whole story in
//! aggregate: after any non-resumed analysis, `fires()` equals the final
//! TE, `generates()` GE, `restores()` RE and `saves()` SA, which is the
//! cross-check `dump-info` prints next to the dumped `SearchStats`.
//! [`super::dump`] freezes the ring into the `RING` section of a
//! `.tangodump` post-mortem file.

use super::event::{PruneKind, SearchEvent};
use crate::checkpoint::codec::kind_to_u8;
use crate::stats::SearchStats;
use estelle_runtime::{ByteReader, ByteWriter, CodecError, Machine, RuntimeErrorKind};
use std::time::Instant;

/// Default ring capacity (records), used by the CLI's always-on
/// recorder. 2048 compact records cover the last few thousand search
/// steps in ~64 KiB.
pub const DEFAULT_RING_CAPACITY: usize = 2048;

/// Record kinds. These are *recorder* codes, not the event-stream
/// schema: the ring additionally records error branches and fault
/// retries, which the JSONL stream does not carry.
pub const KIND_META: u8 = 0;
pub const KIND_GENERATE: u8 = 1;
pub const KIND_FIRE: u8 = 2;
pub const KIND_SAVE: u8 = 3;
pub const KIND_RESTORE: u8 = 4;
pub const KIND_PRUNE: u8 = 5;
pub const KIND_PARK: u8 = 6;
pub const KIND_CHECKPOINT: u8 = 7;
pub const KIND_VERDICT: u8 = 8;
pub const KIND_ERROR: u8 = 9;
pub const KIND_FAULT: u8 = 10;
/// Number of distinct record kinds (size of the per-kind count table).
pub const KIND_COUNT: usize = 11;

/// Fault sites for [`KIND_FAULT`] records (`flag` field).
pub const FAULT_SITE_SOURCE: u8 = 1;
// Site 2 is retired (the disk spill tier); never reuse it.
pub const FAULT_SITE_CHECKPOINT: u8 = 3;

pub(crate) fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_META => "meta",
        KIND_GENERATE => "generate",
        KIND_FIRE => "fire",
        KIND_SAVE => "save",
        KIND_RESTORE => "restore",
        KIND_PRUNE => "prune",
        KIND_PARK => "park",
        KIND_CHECKPOINT => "checkpoint",
        KIND_VERDICT => "verdict",
        KIND_ERROR => "error",
        KIND_FAULT => "fault",
        _ => "unknown",
    }
}

/// One compact, fixed-size flight record. Strings never enter the ring
/// (that would allocate on the hot path); transitions are recorded by
/// index and resolved to names at dump-rendering time.
///
/// Field meaning by kind:
///
/// | kind       | `flag`            | `trans` | `a`            | `b`        |
/// |------------|-------------------|---------|----------------|------------|
/// | meta       | —                 | —       | —              | —          |
/// | generate   | incomplete        | —       | fanout         | —          |
/// | fire       | fired             | index   | —              | —          |
/// | save       | reserved, 0       | —       | bytes          | resident   |
/// | restore    | —                 | —       | —              | —          |
/// | prune      | 0=hash 1=barren   | —       | —              | —          |
/// | park       | —                 | —       | pg_nodes       | —          |
/// | checkpoint | —                 | —       | TE at save     | —          |
/// | verdict    | —                 | —       | TE             | GE         |
/// | error      | runtime-error kind| —       | —              | —          |
/// | fault      | site (1/2/3)      | —       | retries delta  | giveups Δ  |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightRecord {
    pub seq: u64,
    pub kind: u8,
    pub flag: u8,
    pub depth: u32,
    pub trans: u32,
    pub a: u64,
    pub b: u64,
}

impl FlightRecord {
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.seq);
        w.put_u8(self.kind);
        w.put_u8(self.flag);
        w.put_u32(self.depth);
        w.put_u32(self.trans);
        w.put_u64(self.a);
        w.put_u64(self.b);
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<FlightRecord, CodecError> {
        Ok(FlightRecord {
            seq: r.get_u64("flight record seq")?,
            kind: r.get_u8("flight record kind")?,
            flag: r.get_u8("flight record flag")?,
            depth: r.get_u32("flight record depth")?,
            trans: r.get_u32("flight record trans")?,
            a: r.get_u64("flight record a")?,
            b: r.get_u64("flight record b")?,
        })
    }
}

/// One search step as the search reports it: a [`FlightRecord`] without
/// its sequence number, plus the step's duration. The search builds one
/// per step — on the calling thread, or on a spawned worker that sends
/// it to the coordinator in a batch — and every view projects from it:
/// the ring stores it, the metrics and the profile read it, and the
/// JSONL stream renders it. Fields mean what they mean in the ring.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct StepRecord {
    pub kind: u8,
    pub flag: u8,
    pub depth: u32,
    pub trans: u32,
    pub a: u64,
    pub b: u64,
    /// A Generate's or a Fire's duration, measured only when the profile
    /// or the metrics time steps (0 otherwise).
    pub nanos: u64,
}

/// Nanoseconds since a step timer started; 0 when none did.
fn since(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

impl StepRecord {
    fn new(kind: u8, depth: usize, flag: u8, a: u64, b: u64) -> Self {
        StepRecord {
            kind,
            flag,
            depth: depth as u32,
            a,
            b,
            ..StepRecord::default()
        }
    }

    pub(crate) fn generate(
        depth: usize,
        fanout: usize,
        incomplete: bool,
        t0: Option<Instant>,
    ) -> Self {
        StepRecord {
            nanos: since(t0),
            ..Self::new(KIND_GENERATE, depth, u8::from(incomplete), fanout as u64, 0)
        }
    }

    pub(crate) fn fire(depth: usize, trans: usize, fired: bool, t0: Option<Instant>) -> Self {
        StepRecord {
            trans: trans as u32,
            nanos: since(t0),
            ..Self::new(KIND_FIRE, depth, u8::from(fired), 0, 0)
        }
    }

    /// `flag` is reserved, 0: dump format v1 fixes the record layout.
    pub(crate) fn save(depth: usize, bytes: usize, resident: usize) -> Self {
        Self::new(KIND_SAVE, depth, 0, bytes as u64, resident as u64)
    }

    pub(crate) fn restore(depth: usize) -> Self {
        Self::new(KIND_RESTORE, depth, 0, 0, 0)
    }

    /// `flag`: 0 for a hash prune, 1 for a barren one.
    pub(crate) fn prune(depth: usize, kind: PruneKind) -> Self {
        let flag = u8::from(kind == PruneKind::Barren);
        Self::new(KIND_PRUNE, depth, flag, 0, 0)
    }

    pub(crate) fn park(depth: usize, pg_nodes: u64) -> Self {
        Self::new(KIND_PARK, depth, 0, pg_nodes, 0)
    }

    /// A branch abandoned on a runtime error (including isolated panics).
    pub(crate) fn error(depth: usize, kind: RuntimeErrorKind) -> Self {
        Self::new(KIND_ERROR, depth, kind_to_u8(kind), 0, 0)
    }

    /// The ring's records of the stream events that are not search steps.
    pub(crate) fn meta() -> Self {
        Self::new(KIND_META, 0, 0, 0, 0)
    }

    pub(crate) fn checkpoint(te: u64) -> Self {
        Self::new(KIND_CHECKPOINT, 0, 0, te, 0)
    }

    pub(crate) fn verdict(te: u64, ge: u64) -> Self {
        Self::new(KIND_VERDICT, 0, 0, te, ge)
    }

    /// The JSONL event of a search step, with the transition's name and
    /// observable resolved from `machine`. Error branches have none: the
    /// stream's schema does not carry them.
    pub(crate) fn event<'m>(&self, machine: &'m Machine) -> Option<SearchEvent<'m>> {
        let depth = self.depth as usize;
        Some(match self.kind {
            KIND_GENERATE => SearchEvent::Generate {
                depth,
                fanout: self.a as usize,
                incomplete: self.flag != 0,
            },
            KIND_FIRE => {
                let trans = self.trans as usize;
                SearchEvent::Fire {
                    depth,
                    trans,
                    name: machine.transition_name(trans),
                    observable: machine.transition_observable(trans),
                    fired: self.flag != 0,
                }
            }
            KIND_SAVE => SearchEvent::Save {
                depth,
                bytes: self.a as usize,
                resident: self.b as usize,
            },
            KIND_RESTORE => SearchEvent::Restore { depth },
            KIND_PRUNE => SearchEvent::Prune {
                depth,
                kind: if self.flag == 0 {
                    PruneKind::Hash
                } else {
                    PruneKind::Barren
                },
            },
            KIND_PARK => SearchEvent::Park {
                depth,
                pg_nodes: self.a,
            },
            _ => return None,
        })
    }
}

/// The fixed-capacity event ring plus lifetime per-kind counters.
pub struct FlightRecorder {
    /// Pre-allocated ring storage; `len <= capacity` during warm-up,
    /// then a plain overwrite at `head`.
    ring: Vec<FlightRecord>,
    capacity: usize,
    /// Next write position (== oldest record once the ring is full).
    head: usize,
    /// Records written over the recorder's lifetime (including
    /// overwritten ones).
    seen: u64,
    /// Lifetime counts per record kind — the TE/GE/RE/SA cross-check.
    counts: [u64; KIND_COUNT],
    /// Last-observed per-site fault counters, so the recorder can turn
    /// the monotone `SearchStats` counters into delta records without
    /// hooks inside the retry loops themselves.
    last_faults: [(u64, u64); 3],
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            seen: 0,
            counts: [0; KIND_COUNT],
            last_faults: [(0, 0); 3],
        }
    }

    #[inline]
    fn push(&mut self, rec: FlightRecord) {
        self.seen += 1;
        self.counts[usize::from(rec.kind.min(KIND_COUNT as u8 - 1))] += 1;
        if self.ring.len() < self.capacity {
            // Warm-up: the only allocations the recorder ever performs
            // happen while filling the pre-reserved ring the first time.
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
        }
        // A compare, not a `%`: this runs once per search event.
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
    }

    /// Store one record under its merge-order sequence number (called
    /// from [`super::Telemetry`], which assigns it). The step's duration
    /// stays behind: the ring holds no clock values.
    #[inline]
    pub(crate) fn record(&mut self, seq: u64, rec: &StepRecord) {
        self.push(FlightRecord {
            seq,
            kind: rec.kind,
            flag: rec.flag,
            depth: rec.depth,
            trans: rec.trans,
            a: rec.a,
            b: rec.b,
        });
    }

    /// Fold the monotone fault counters of `stats` into delta records —
    /// one per site whose retries or giveups advanced since the last
    /// call. Called from the per-step tick, so the cost when nothing
    /// changed is four integer compares. Returns how many records were
    /// pushed (the caller advances its sequence counter by this).
    pub(crate) fn note_faults(&mut self, mut seq: u64, stats: &SearchStats) -> u64 {
        let start = seq;
        let sites = [
            (FAULT_SITE_SOURCE, stats.source_retries, stats.source_giveups),
            (
                FAULT_SITE_CHECKPOINT,
                stats.checkpoint_retries,
                stats.checkpoint_giveups,
            ),
        ];
        for (site, retries, giveups) in sites {
            let slot = &mut self.last_faults[usize::from(site) - 1];
            if retries > slot.0 || giveups > slot.1 {
                let rec = FlightRecord {
                    seq,
                    kind: KIND_FAULT,
                    flag: site,
                    a: retries - slot.0,
                    b: giveups - slot.1,
                    ..FlightRecord::default()
                };
                *slot = (retries, giveups);
                self.push(rec);
                seq += 1;
            }
        }
        seq - start
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records written over the recorder's lifetime, including those the
    /// ring has already overwritten.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Lifetime count of one record kind.
    pub fn count(&self, kind: u8) -> u64 {
        self.counts[usize::from(kind.min(KIND_COUNT as u8 - 1))]
    }

    /// Lifetime fire records — equals the final TE of a non-resumed
    /// analysis (a run resumed from an on-disk checkpoint carries TE
    /// from before this process, which the recorder never saw).
    pub fn fires(&self) -> u64 {
        self.count(KIND_FIRE)
    }

    pub fn generates(&self) -> u64 {
        self.count(KIND_GENERATE)
    }

    pub fn restores(&self) -> u64 {
        self.count(KIND_RESTORE)
    }

    pub fn saves(&self) -> u64 {
        self.count(KIND_SAVE)
    }

    /// The per-kind lifetime count table, indexed by record kind.
    pub fn counts(&self) -> &[u64; KIND_COUNT] {
        &self.counts
    }

    /// The retained tail, oldest record first.
    pub fn records(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() < self.capacity {
            out.extend_from_slice(&self.ring);
        } else {
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(seq: u64, depth: usize) -> StepRecord {
        StepRecord::fire(depth, seq as usize, true, None)
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_lifetime_counts() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(i, &fire(i, i as usize));
        }
        assert_eq!(r.seen(), 10);
        assert_eq!(r.fires(), 10);
        let recs = r.records();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].seq, 6, "oldest retained record");
        assert_eq!(recs[3].seq, 9, "newest record");
    }

    #[test]
    fn a_step_record_reaches_the_ring_without_its_duration() {
        let mut r = FlightRecorder::new(2);
        let rec = StepRecord {
            nanos: 12_345,
            ..StepRecord::fire(4, 7, true, None)
        };
        r.record(3, &rec);
        let want = FlightRecord {
            seq: 3,
            kind: KIND_FIRE,
            flag: 1,
            depth: 4,
            trans: 7,
            a: 0,
            b: 0,
        };
        assert_eq!(r.records(), [want]);
    }

    #[test]
    fn warm_up_fills_in_order_without_wrap() {
        let mut r = FlightRecorder::new(8);
        for i in 0..3 {
            r.record(i, &StepRecord::restore(i as usize));
        }
        let recs = r.records();
        assert_eq!(recs.len(), 3);
        assert_eq!((recs[0].seq, recs[2].seq), (0, 2));
        assert_eq!(r.restores(), 3);
    }

    #[test]
    fn fault_deltas_recorded_once_per_advance() {
        let mut r = FlightRecorder::new(8);
        let mut s = SearchStats::default();
        r.note_faults(0, &s);
        assert_eq!(r.count(KIND_FAULT), 0, "no change, no record");
        s.source_retries = 3;
        r.note_faults(1, &s);
        r.note_faults(2, &s);
        assert_eq!(r.count(KIND_FAULT), 1, "idempotent until counters move");
        let rec = r.records()[0];
        assert_eq!(rec.flag, FAULT_SITE_SOURCE);
        assert_eq!(rec.a, 3, "delta, not absolute");
        s.source_retries = 5;
        s.checkpoint_giveups = 1;
        r.note_faults(3, &s);
        assert_eq!(r.count(KIND_FAULT), 3);
    }

    #[test]
    fn record_round_trips_through_the_codec() {
        let rec = FlightRecord {
            seq: 7,
            kind: KIND_SAVE,
            flag: 1,
            depth: 12,
            trans: 0,
            a: 4096,
            b: 65536,
        };
        let mut w = ByteWriter::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(FlightRecord::decode(&mut r).unwrap(), rec);
        assert_eq!(r.remaining(), 0);
    }
}
