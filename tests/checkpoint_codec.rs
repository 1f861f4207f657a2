//! Corruption matrix for the durable checkpoint codec.
//!
//! A checkpoint file can be damaged in every way a filesystem and an
//! unlucky crash allow: truncated at any point, a single bit flipped in
//! any section, replaced by a different file format, written by a future
//! version of the tool, or empty. Each case must surface as the *right*
//! typed [`CheckpointError`] — never a panic, and never a silent partial
//! load that would resume a half-real search.

mod common;

use protocols::tp0;
use std::path::PathBuf;
use tango::{AnalysisOptions, Checkpoint, CheckpointError, Verdict};

/// Produce a real limit-stopped checkpoint (with frames and their
/// states, a resolved trace and non-trivial counters) and its file.
fn stopped_checkpoint() -> Checkpoint {
    let a = tp0::analyzer();
    let bad = tp0::invalid_trace(3, 3, 1);
    let full = a.analyze(&bad, &AnalysisOptions::default()).unwrap();
    let mut limited = AnalysisOptions::default();
    limited.limits.max_transitions = (full.stats.transitions_executed / 2).max(1);
    let stopped = a.analyze(&bad, &limited).unwrap();
    assert!(matches!(stopped.verdict, Verdict::Inconclusive(_)));
    *stopped.checkpoint.expect("limit stop must carry a checkpoint")
}

fn checkpoint_bytes(tag: &str) -> (Checkpoint, Vec<u8>, PathBuf) {
    let cp = stopped_checkpoint();
    let path = common::scratch_dir(tag).join("checkpoint.bin");
    cp.write_to(&path).expect("checkpoint writes");
    let bytes = std::fs::read(&path).expect("checkpoint file exists");
    (cp, bytes, path)
}

#[test]
fn roundtrip_preserves_progress_and_stats() {
    let (cp, _, path) = checkpoint_bytes("roundtrip");
    let back = Checkpoint::read_from(&path).expect("clean file reads");
    assert_eq!(back.depth(), cp.depth());
    assert_eq!(back.pending_frames(), cp.pending_frames());
    assert_eq!(back.events_total(), cp.events_total());
    assert_eq!(
        back.stats().transitions_executed,
        cp.stats().transitions_executed
    );
    assert_eq!(back.stats().saves, cp.stats().saves);
    assert_eq!(back.stats().wall_time, cp.stats().wall_time);
    assert_eq!(back.stats().snapshot_bytes, cp.stats().snapshot_bytes);

    let info = Checkpoint::read_info(&path).expect("info reads");
    assert_eq!(info.depth, cp.depth());
    assert_eq!(info.pending_frames, cp.pending_frames());
    assert_eq!(info.events_total, cp.events_total());
    assert_eq!(info.stats.restores, cp.stats().restores);
}

#[test]
fn deterministic_encoding() {
    let (cp, bytes, path) = checkpoint_bytes("deterministic");
    cp.write_to(&path).expect("rewrite");
    assert_eq!(
        bytes,
        std::fs::read(&path).unwrap(),
        "the same checkpoint must always produce the same bytes"
    );
}

#[test]
fn zero_length_file_is_a_typed_error() {
    let path = common::scratch_dir("zero").join("checkpoint.bin");
    std::fs::write(&path, b"").unwrap();
    match Checkpoint::read_from(&path) {
        Err(CheckpointError::Truncated { .. }) => {}
        other => panic!("zero-length file must be Truncated, got {:?}", other.err()),
    }
    assert!(Checkpoint::read_info(&path).is_err());
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let (_, mut bytes, path) = checkpoint_bytes("magic");
    bytes[..8].copy_from_slice(b"NOTTANGO");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Checkpoint::read_from(&path),
        Err(CheckpointError::BadMagic)
    ));
    assert!(matches!(
        Checkpoint::read_info(&path),
        Err(CheckpointError::BadMagic)
    ));
}

#[test]
fn future_version_is_refused_not_misread() {
    let (_, mut bytes, path) = checkpoint_bytes("version");
    // The version field sits right after the 8-byte magic.
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match Checkpoint::read_from(&path) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 999);
            assert!(supported < 999);
        }
        other => panic!("future version must be refused, got {:?}", other.err()),
    }
}

#[test]
fn previous_version_is_refused_not_misread() {
    // Version 8's search body carries an eof flag, a PG-list and a
    // blocked set per node, and its META the front's lengths; its files
    // are refused, not decoded with the v9 layout.
    let (_, mut bytes, path) = checkpoint_bytes("v8");
    bytes[8..12].copy_from_slice(&8u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = Checkpoint::read_from(&path).err();
    assert!(
        matches!(
            err,
            Some(CheckpointError::UnsupportedVersion {
                found: 8,
                supported: 9
            })
        ),
        "v8 must be refused, got {:?}",
        err
    );
    assert!(err
        .unwrap()
        .to_string()
        .contains("this build reads only version 9"));
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let (_, bytes, path) = checkpoint_bytes("truncate");
    // Every strict prefix: step through short prefixes exhaustively and
    // longer ones sparsely to keep the test fast.
    let mut lengths: Vec<usize> = (0..bytes.len().min(64)).collect();
    lengths.extend((64..bytes.len()).step_by(97));
    lengths.push(bytes.len() - 1);
    for n in lengths {
        std::fs::write(&path, &bytes[..n]).unwrap();
        match Checkpoint::read_from(&path) {
            Err(
                CheckpointError::Truncated { .. }
                | CheckpointError::BadMagic
                | CheckpointError::ChecksumMismatch { .. },
            ) => {}
            Err(other) => panic!("prefix of {} bytes: unexpected error {:?}", n, other),
            Ok(_) => panic!("prefix of {} bytes decoded successfully", n),
        }
        assert!(Checkpoint::read_info(&path).is_err());
    }
}

#[test]
fn flipped_byte_in_each_section_is_caught_by_its_checksum() {
    let (_, bytes, path) = checkpoint_bytes("flip");
    // Walk the real section table so each corruption lands squarely
    // inside one section's payload.
    let sections = walk_sections(&bytes);
    assert_eq!(sections.len(), 3, "META, TRACE, SEARCH");
    for (name, start, len) in &sections {
        if *len == 0 {
            continue;
        }
        let mut corrupt = bytes.clone();
        let target = start + len / 2;
        corrupt[target] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        match Checkpoint::read_from(&path) {
            Err(CheckpointError::ChecksumMismatch { section }) => {
                assert_eq!(
                    &section, name,
                    "flip at {} must be pinned to the {} section",
                    target, name
                );
            }
            other => panic!(
                "flip in {} must be a checksum mismatch, got {:?}",
                name,
                other.err()
            ),
        }
    }
}

#[test]
fn flipped_section_header_byte_is_still_a_typed_error() {
    let (_, bytes, path) = checkpoint_bytes("header-flip");
    let sections = walk_sections(&bytes);
    // The tag of the first section lives 12 bytes into the header region
    // that per-section CRCs do not cover; the whole-file digest must.
    let first_payload_start = sections[0].1;
    let tag_byte = first_payload_start - 12;
    let mut corrupt = bytes.clone();
    corrupt[tag_byte] ^= 0x08;
    std::fs::write(&path, &corrupt).unwrap();
    match Checkpoint::read_from(&path) {
        Err(
            CheckpointError::ChecksumMismatch { .. }
            | CheckpointError::Truncated { .. }
            | CheckpointError::Malformed(_),
        ) => {}
        other => panic!("header flip must be a typed error, got {:?}", other.err()),
    }
}

#[test]
fn flipped_file_digest_is_caught() {
    let (_, mut bytes, path) = checkpoint_bytes("digest-flip");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    match Checkpoint::read_from(&path) {
        Err(CheckpointError::ChecksumMismatch { section }) => assert_eq!(section, "file"),
        other => panic!("digest flip must be caught, got {:?}", other.err()),
    }
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_specification() {
    let (cp, _, path) = checkpoint_bytes("cross-spec");
    drop(cp);
    let cp = Checkpoint::read_from(&path).unwrap();
    // A different machine: one IP, different transitions. Resuming the
    // TP0 checkpoint into it must be an error, not an out-of-range panic
    // deep inside the search.
    let other = tango::Tango::generate(
        r#"
        specification mini;
        channel C(user, station); by user: a; by station: b; end;
        module M process; ip P : C(station); end;
        body MB for M;
            state S;
            initialize to S begin end;
            trans from S to same when P.a begin output P.b end;
        end;
        end.
        "#,
    )
    .expect("mini spec is valid");
    let err = other
        .resume(cp, &AnalysisOptions::default())
        .expect_err("cross-spec resume must be refused");
    assert!(
        err.to_string().contains("resume"),
        "error should point at the resume validation: {}",
        err
    );
}

/// CRC-32 (IEEE), written out independently of the codec's.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A spec whose DFS path is recognizable in the file: three dead
/// transitions first, so the live ones fire as indices 3, 4, 5, 6.
const INDEXED: &str = r#"
    specification indexed;
    channel C(user, station); by user: a; end;
    module M process; ip P : C(station); end;
    body MB for M;
        state S0, S1, S2, S3, Dead;
        initialize to S0 begin end;
        trans
        from Dead to Dead when P.a name X0: begin end;
        from Dead to Dead when P.a name X1: begin end;
        from Dead to Dead when P.a name X2: begin end;
        from S0 to S1 when P.a name A: begin end;
        from S1 to S2 when P.a name B: begin end;
        from S2 to S3 when P.a name C: begin end;
        from S3 to S3 when P.a name D: begin end;
    end;
    end.
"#;

#[test]
fn out_of_range_path_index_is_refused_at_resume() {
    let analyzer = tango::Tango::generate(INDEXED).unwrap();
    let trace = "in P.a\n".repeat(6);
    let mut limited = AnalysisOptions::default();
    limited.limits.max_transitions = 3;
    let stopped = analyzer.analyze_text(&trace, &limited).unwrap();
    assert!(matches!(stopped.verdict, Verdict::Inconclusive(_)));
    let cp = stopped
        .checkpoint
        .expect("limit stop must carry a checkpoint");
    assert_eq!(cp.depth(), 4);
    let path = common::scratch_dir("path-index").join("checkpoint.bin");
    cp.write_to(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    // A node's path is stored as its length then one u32 per step.
    let words: Vec<u8> = [4u32, 3, 4, 5, 6]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let (_, offset, len) = walk_sections(&bytes)
        .into_iter()
        .find(|s| s.0 == "search")
        .unwrap();
    let payload = &bytes[offset..offset + len];
    let at = (0..payload.len() - words.len())
        .find(|&i| payload[i..i + words.len()] == words[..])
        .expect("the path [3, 4, 5, 6] is in the search section");
    let step = offset + at + 4;
    bytes[step..step + 4].copy_from_slice(&999u32.to_le_bytes());
    // Re-seal: the section CRC follows its payload, the file digest
    // closes the file.
    let crc = crc32(&bytes[offset..offset + len]);
    bytes[offset + len..offset + len + 4].copy_from_slice(&crc.to_le_bytes());
    let end = bytes.len() - 4;
    let digest = crc32(&bytes[..end]);
    bytes[end..].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let cp = Checkpoint::read_from(&path).expect("a well-formed file decodes");
    let err = analyzer
        .resume(cp, &AnalysisOptions::default())
        .expect_err("an out-of-range path index must be refused");
    let msg = err.to_string();
    assert!(
        msg.contains("resume") && msg.contains("transition 999 of 7"),
        "error should name the bad index: {}",
        msg
    );
}

/// Independently parse the file structure: `(section name, payload
/// offset, payload length)` for each section. Kept deliberately separate
/// from the production decoder so a decoder bug cannot hide a layout bug.
fn walk_sections(bytes: &[u8]) -> Vec<(&'static str, usize, usize)> {
    let u32_at = |p: usize| u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
    let u64_at = |p: usize| u64::from_le_bytes(bytes[p..p + 8].try_into().unwrap());
    assert_eq!(&bytes[..8], b"TANGOCKP");
    let nsections = u32_at(12) as usize;
    let mut pos = 16;
    let mut out = Vec::new();
    for _ in 0..nsections {
        let tag = u32_at(pos);
        let len = u64_at(pos + 4) as usize;
        let name = match tag {
            1 => "meta",
            2 => "trace",
            5 => "search",
            _ => "unknown",
        };
        out.push((name, pos + 12, len));
        pos += 12 + len + 4;
    }
    assert_eq!(pos + 4, bytes.len(), "file digest must close the file");
    out
}
