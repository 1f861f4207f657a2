//! Crash-injection harness: SIGKILL the analyzer mid-search, resume from
//! the autosaved checkpoint, and require the exact verdict and
//! TE/GE/RE/SA totals of an uninterrupted run.
//!
//! This is the cross-process version of the stop/resume equivalence the
//! library tests pin in-memory: here the first process is killed with no
//! chance to clean up (SIGKILL cannot be caught), so everything the
//! resumed run knows comes from the last atomically written autosave.
//! Work done between that autosave and the kill is simply redone — and
//! counted once — which is why the totals still come out identical.
#![cfg(unix)]

mod common;

use common::{bin, parse_counters, scratch_dir, stderr_of, stdout_of, write_inputs};
use std::os::unix::process::ExitStatusExt;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Forker pings per trace: the doubling tree makes the run long enough
/// (seconds, debug profile) to kill reliably mid-flight.
const PINGS: usize = 19;

/// Kill the analysis once the checkpoint file exists, then resume from
/// the checkpoint; returns the resumed run's output and counters.
fn crash_and_resume(tag: &str) -> (String, [u64; 4]) {
    let dir = scratch_dir(tag);
    let (spec, trace) = write_inputs(&dir, PINGS);
    let ckpt = dir.join("autosave.bin");
    let _ = std::fs::remove_file(&ckpt);

    let mut child = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--checkpoint-every", "2000"])
        .arg("--checkpoint-file")
        .arg(&ckpt)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn analyzer");

    // Wait for the first autosave to land, then let a little more work
    // happen so the kill strikes between autosaves, not at one.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if ckpt.exists() && std::fs::metadata(&ckpt).map(|m| m.len() > 0).unwrap_or(false) {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!(
                "analyzer finished (status {:?}) before the first autosave; \
                 raise PINGS to lengthen the run",
                status
            );
        }
        assert!(Instant::now() < deadline, "no autosave within 60s");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(150));

    child.kill().expect("SIGKILL the analyzer");
    let status = child.wait().expect("reap the killed analyzer");
    assert_eq!(
        status.signal(),
        Some(libc_sigkill()),
        "the analyzer must have died by SIGKILL, not exited: {:?}",
        status
    );

    // The autosave was written atomically: whatever instant the kill
    // hit, the file on disk must be a complete, checksummed checkpoint.
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
    assert!(stdout_of(&info).contains("pending frames:"));

    let resumed = bin()
        .arg("analyze")
        .arg(&spec)
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("run resume");
    let text = stdout_of(&resumed);
    assert_eq!(
        resumed.status.code(),
        Some(1),
        "the forker trace is conclusively invalid: {}",
        text
    );
    let counters = parse_counters(&text);
    (text, counters)
}

fn libc_sigkill() -> i32 {
    9
}

#[test]
fn sigkill_mid_analysis_then_resume_matches_uninterrupted_run() {
    let dir = scratch_dir("baseline");
    let (spec, trace) = write_inputs(&dir, PINGS);
    let baseline = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .output()
        .expect("run baseline");
    let base_text = stdout_of(&baseline);
    assert_eq!(baseline.status.code(), Some(1), "{}", base_text);
    assert!(base_text.contains("verdict: invalid"), "{}", base_text);
    let base_counters = parse_counters(&base_text);

    let (text, counters) = crash_and_resume("kill-default");
    assert!(text.contains("verdict: invalid"), "{}", text);
    assert_eq!(
        counters, base_counters,
        "kill-9 + resume must reproduce the uninterrupted TE/GE/RE/SA totals"
    );
}
