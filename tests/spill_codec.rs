//! The spill tier's contract with the disk: a spill directory is scratch
//! for one run.
//!
//! A segment is a bare run of encoded snapshots; the ticket each spilled
//! node keeps in RAM is the only index, and its CRC32 is checked on every
//! read. These tests damage a segment under a live tier — truncation at
//! every byte boundary, flipped payload bytes, bit flips injected through
//! the public fault plan — and require a *typed* [`SpillError`], never a
//! panic, never garbage accepted as a snapshot. They also pin what the
//! tier does to files it did not create (nothing: it never opens them
//! and writes its own segments under fresh ids) and to those it did (it
//! removes them when the run ends).

mod common;

use estelle_runtime::{Machine, MachineState, Value};
use protocols::tp0;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tango::spill::{
    FaultySpillDir, FsSpillDir, SpillDir, SpillError, SpillFaultPlan, SpillTicket, SpillTier,
};
use tango::{AnalysisOptions, Verdict};

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

/// A tier with no retries (a damaged file fails at once) and three
/// records in its first segment; returns (tier, segment path, tickets).
fn seeded_tier(root: &Path) -> (SpillTier, PathBuf, Vec<SpillTicket>) {
    let mut tier = SpillTier::open(Box::new(FsSpillDir::new(root)), 64 << 20, 0).unwrap();
    let tickets: Vec<SpillTicket> = (0..3)
        .map(|n| tier.write_state(&state_with(n)).unwrap())
        .collect();
    assert!(tickets.iter().all(|t| t.segment == 0));
    (tier, root.join("spill-00000000.seg"), tickets)
}

/// Every file in `dir`, by name, with its bytes.
fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

/// The invalid 4+4 TP0 trace, all in RAM and then spilled into `dir`
/// under a budget small enough that nearly every snapshot leaves RAM.
fn all_ram_and_spilled(dir: &Path) -> (tango::AnalysisReport, tango::AnalysisReport) {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(4, 4, 1);
    let all_ram = a.analyze(&bad, &AnalysisOptions::default()).unwrap();
    let mut o = AnalysisOptions::default();
    o.limits.max_state_bytes = Some(256);
    o.spill.dir = Some(dir.to_path_buf());
    let spilled = a.analyze(&bad, &o).unwrap();
    assert!(
        spilled.stats.spill_writes > 0,
        "the budget must force writes"
    );
    assert!(
        spilled.spill_faults.is_empty(),
        "{:?}",
        spilled.spill_faults
    );
    (all_ram, spilled)
}

#[test]
fn intact_segment_verifies_and_reads_back() {
    let dir = common::scratch_dir("intact");
    let (mut tier, seg, tickets) = seeded_tier(&dir);
    for (n, t) in tickets.iter().enumerate() {
        assert_eq!(tier.read_state(t).unwrap(), state_with(n as i64));
    }
    // No header, no framing: the segment is the records back to back,
    // exactly where the tickets say.
    let bytes = std::fs::read(&seg).unwrap();
    let mut at = 0;
    for t in &tickets {
        assert_eq!(t.offset, at);
        at += u64::from(t.len);
    }
    assert_eq!(bytes.len() as u64, at);
    drop(tier);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error_or_a_clean_shorter_file() {
    let dir = common::scratch_dir("trunc");
    let (mut tier, seg, tickets) = seeded_tier(&dir);
    let bytes = std::fs::read(&seg).unwrap();

    // Every byte boundary of the first record, then sparse samples
    // through the rest so the matrix stays fast.
    let first_end = tickets[0].len as usize;
    let cuts = (0..=first_end)
        .chain((first_end..bytes.len()).step_by(7))
        .chain(std::iter::once(bytes.len() - 1));
    for cut in cuts {
        std::fs::write(&seg, &bytes[..cut]).unwrap();
        for (n, t) in tickets.iter().enumerate() {
            let whole = t.offset + u64::from(t.len) <= cut as u64;
            match tier.read_state(t) {
                Ok(st) => {
                    assert!(whole, "cut at {}: record {} must not read back", cut, n);
                    assert_eq!(st, state_with(n as i64));
                }
                Err(SpillError::Io { .. }) => {
                    assert!(!whole, "cut at {}: intact record {} must read back", cut, n)
                }
                Err(other) => panic!("cut at {}: record {}: unexpected error {}", cut, n, other),
            }
        }
    }
    drop(tier);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_payload_bytes_fail_the_checksum() {
    let dir = common::scratch_dir("flip-payload");
    let (mut tier, seg, tickets) = seeded_tier(&dir);
    let bytes = std::fs::read(&seg).unwrap();
    let t = tickets[1];
    for i in (t.offset..t.offset + u64::from(t.len)).step_by(3) {
        let mut damaged = bytes.clone();
        damaged[i as usize] ^= 0x40;
        std::fs::write(&seg, &damaged).unwrap();
        match tier.read_state(&t) {
            Err(SpillError::Corrupt { offset, .. }) => {
                assert_eq!(offset, t.offset, "corruption localizes to the record")
            }
            other => panic!(
                "payload flip at byte {} must be Corrupt, got {:?}",
                i,
                other.map(|_| ())
            ),
        }
        // The records around it are untouched and still read back.
        assert_eq!(tier.read_state(&tickets[0]).unwrap(), state_with(0));
        assert_eq!(tier.read_state(&tickets[2]).unwrap(), state_with(2));
    }
    drop(tier);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_bit_flips_through_the_public_fault_plan_are_typed() {
    let dir = common::scratch_dir("fault-plan");
    // Armed through the unified composable plan (the CLI's
    // `--fault-plan` language); the site-local SpillFaultPlan it carries
    // is what the tier consumes.
    let unified = tango::FaultPlan::parse("seed=0,spill.flip_bit_every=2").unwrap();
    let plan = unified.spill.expect("spill site armed");
    assert_eq!(
        plan,
        SpillFaultPlan {
            flip_bit_every: 2,
            ..SpillFaultPlan::default()
        }
    );
    let faulty: Box<dyn SpillDir> =
        Box::new(FaultySpillDir::new(Box::new(FsSpillDir::new(&dir)), plan));
    let mut tier = SpillTier::open(faulty, 64 << 20, 0).unwrap();
    let t = tier.write_state(&state_with(1)).unwrap();
    // Every second read is flipped: over a few attempts both the clean
    // and the corrupt path must appear, and the corrupt one is typed.
    let mut corrupt = 0;
    let mut clean = 0;
    for _ in 0..6 {
        match tier.read_state(&t) {
            Ok(st) => {
                assert_eq!(st, state_with(1));
                clean += 1;
            }
            Err(SpillError::Corrupt { context, .. }) => {
                assert!(context.contains("checksum"), "{}", context);
                corrupt += 1;
            }
            Err(other) => panic!("bit flip must surface as Corrupt, got {}", other),
        }
    }
    assert!(
        clean > 0 && corrupt > 0,
        "clean={} corrupt={}",
        clean,
        corrupt
    );
    drop(tier);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn files_the_tier_did_not_create_are_never_touched() {
    let dir = common::scratch_dir("foreign");
    // An intact segment another run wrote, a torn one, and garbage
    // wearing a segment name — the leftovers of a killed run and worse.
    let intact = {
        let (tier, seg, _) = seeded_tier(&dir);
        let bytes = std::fs::read(seg).unwrap();
        drop(tier);
        bytes
    };
    std::fs::write(dir.join("spill-00000000.seg"), &intact).unwrap();
    std::fs::write(dir.join("spill-00000001.seg"), &intact[..intact.len() - 3]).unwrap();
    std::fs::write(
        dir.join("spill-00000002.seg"),
        b"not a segment, just text\n",
    )
    .unwrap();
    let before = contents(&dir);

    // A tier in that directory writes under fresh ids, rotating through
    // several segments, and reads its own records back.
    let mut tier = SpillTier::open(Box::new(FsSpillDir::new(&dir)), 64, 0).unwrap();
    let tickets: Vec<SpillTicket> = (0..6)
        .map(|n| tier.write_state(&state_with(n)).unwrap())
        .collect();
    assert!(tickets.iter().all(|t| t.segment > 2), "{:?}", tickets);
    assert!(
        tickets.iter().any(|t| t.segment > 3),
        "the 64-byte cap rotates"
    );
    for (n, t) in tickets.iter().enumerate() {
        assert_eq!(tier.read_state(t).unwrap(), state_with(n as i64));
    }
    drop(tier);
    assert_eq!(contents(&dir), before, "foreign files stay byte-identical");

    // A whole analysis spilled into the same directory.
    let (all_ram, spilled) = all_ram_and_spilled(&dir);
    assert_eq!(spilled.verdict, Verdict::Invalid);
    assert_eq!(spilled.verdict, all_ram.verdict);
    assert_eq!(spilled.stats.counters(), all_ram.stats.counters());
    assert_eq!(contents(&dir), before, "foreign files stay byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_completed_spilled_analysis_leaves_no_segments() {
    let dir = common::scratch_dir("cleanup");
    let (all_ram, spilled) = all_ram_and_spilled(&dir);
    assert_eq!(spilled.stats.counters(), all_ram.stats.counters());
    assert!(
        contents(&dir).is_empty(),
        "segments left behind: {:?}",
        contents(&dir).keys().collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&dir).ok();
}
