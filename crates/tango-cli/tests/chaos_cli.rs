//! End-to-end chaos: `--chaos-seed`/`--fault-plan` through the real
//! binary, including a SIGKILL mid-run with faulty autosaves.
//!
//! The reproduction contract under test: a chaos run echoes its full
//! plan on stderr (`chaos: plan=…`), and feeding either the same
//! `--chaos-seed` or that echoed line back through `--fault-plan`
//! replays the identical analysis — same verdict, same TE/GE/RE/SA.
#![cfg(unix)]

mod common;

use common::{bin, parse_counters, scratch_dir, stderr_of, stdout_of, write_inputs};
use std::os::unix::process::ExitStatusExt;
use std::process::{Output, Stdio};
use std::time::{Duration, Instant};

#[test]
fn chaos_seed_replays_identically_and_by_its_echoed_plan() {
    let dir = scratch_dir("repro");
    let (spec, trace) = write_inputs(&dir, 6);

    let run = |args: &[&str]| -> Output {
        bin()
            .arg("analyze")
            .arg(&spec)
            .arg(&trace)
            .args(args)
            .output()
            .expect("run analyzer")
    };

    let first = run(&["--chaos-seed", "5"]);
    let second = run(&["--chaos-seed", "5"]);
    assert_eq!(
        first.status.code(),
        second.status.code(),
        "same seed, same exit code"
    );
    assert_eq!(
        parse_counters(&stdout_of(&first)),
        parse_counters(&stdout_of(&second)),
        "same seed must replay the identical analysis"
    );

    // The echoed plan line is a complete reproduction recipe.
    let err = stderr_of(&first);
    let plan_line = err
        .lines()
        .find_map(|l| l.strip_prefix("chaos: plan="))
        .unwrap_or_else(|| panic!("chaos run must echo its plan: {}", err));
    let replayed = run(&[&format!("--fault-plan={}", plan_line)]);
    assert_eq!(first.status.code(), replayed.status.code());
    assert_eq!(
        parse_counters(&stdout_of(&first)),
        parse_counters(&stdout_of(&replayed)),
        "--fault-plan '<echoed line>' must replay the --chaos-seed run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_fault_plan_is_a_typed_cli_error() {
    let dir = scratch_dir("badplan");
    let (spec, trace) = write_inputs(&dir, 2);
    let out = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--fault-plan", "source.frobnicate_every=3"])
        .output()
        .expect("run analyzer");
    assert_eq!(out.status.code(), Some(3), "usage errors exit 3");
    assert!(
        stderr_of(&out).contains("frobnicate"),
        "the error must name the bad key: {}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL the analyzer mid-run while its autosaves fight injected
/// checkpoint I/O errors, then resume fault-free from the last save
/// that landed: the totals must match an untouched run exactly.
#[test]
fn sigkill_under_checkpoint_faults_then_resume_reconverges() {
    let dir = scratch_dir("kill");
    let (spec, trace) = write_inputs(&dir, 19);

    let baseline = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .output()
        .expect("run baseline");
    let base_text = stdout_of(&baseline);
    assert_eq!(baseline.status.code(), Some(1), "{}", base_text);
    let base_counters = parse_counters(&base_text);

    let ckpt = dir.join("autosave.bin");
    let _ = std::fs::remove_file(&ckpt);
    // Every second checkpoint write attempt fails: each autosave still
    // lands after the shared policy's retries, so the file keeps
    // appearing — just never on the first try.
    let mut child = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args([
            "--checkpoint-every",
            "2000",
            "--fault-plan",
            "seed=9,checkpoint.io_error_every=2",
        ])
        .arg("--checkpoint-file")
        .arg(&ckpt)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn analyzer");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if ckpt.exists() && std::fs::metadata(&ckpt).map(|m| m.len() > 0).unwrap_or(false) {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!(
                "analyzer finished (status {:?}) before the first autosave",
                status
            );
        }
        assert!(Instant::now() < deadline, "no autosave within 60s");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(150));

    child.kill().expect("SIGKILL the analyzer");
    let status = child.wait().expect("reap the killed analyzer");
    assert_eq!(status.signal(), Some(9), "died by SIGKILL: {:?}", status);

    // Whatever instant the kill (or an injected fault) hit, the file on
    // disk must be a complete, checksummed checkpoint.
    let info = bin()
        .arg("checkpoint-info")
        .arg(&ckpt)
        .output()
        .expect("run checkpoint-info");
    assert!(
        info.status.success(),
        "autosaved checkpoint failed verification: {}{}",
        stdout_of(&info),
        stderr_of(&info)
    );

    let resumed = bin()
        .arg("analyze")
        .arg(&spec)
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("run resume");
    let text = stdout_of(&resumed);
    assert_eq!(resumed.status.code(), Some(1), "{}", text);
    assert!(text.contains("verdict: invalid"), "{}", text);
    assert_eq!(
        parse_counters(&text),
        base_counters,
        "kill-9 under checkpoint faults + resume must reproduce the totals"
    );
    std::fs::remove_dir_all(&dir).ok();
}
