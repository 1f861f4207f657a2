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

use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tango"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-crash-recovery-{}-{}",
        tag,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two observationally identical transitions per consumed `ping`: the
/// search tree doubles at every event, so `PINGS` events give a run long
/// enough (seconds, debug profile) to kill reliably mid-flight, while
/// the trailing never-produced `out U.pong` makes the verdict a
/// conclusive `invalid` that requires exhausting the whole tree.
const FORK_SPEC: &str = r#"
specification forker;
channel C(user, station);
    by user: ping;
    by station: pong;
end;
module M process;
    ip U : C(station);
end;
body MB for M;
    state s0;
    initialize to s0 begin end;
    trans
    from s0 to same when U.ping name ta: begin end;
    from s0 to same when U.ping name tb: begin end;
end;
end.
"#;

const PINGS: usize = 19;

fn write_inputs(dir: &Path) -> (PathBuf, PathBuf) {
    let spec = dir.join("forker.est");
    std::fs::write(&spec, FORK_SPEC).unwrap();
    let mut trace = String::new();
    for _ in 0..PINGS {
        trace.push_str("in U.ping\n");
    }
    trace.push_str("out U.pong\n");
    let trace_path = dir.join("trace.txt");
    std::fs::write(&trace_path, trace).unwrap();
    (spec, trace_path)
}

/// The paper-table counters from the report line:
/// `verdict: ... [CPUT=0.123s TE=1 GE=2 RE=3 SA=4]`.
fn parse_counters(stdout: &str) -> (u64, u64, u64, u64) {
    let grab = |key: &str| -> u64 {
        let at = stdout
            .find(key)
            .unwrap_or_else(|| panic!("`{}` missing in output: {}", key, stdout));
        stdout[at + key.len()..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    (grab("TE="), grab("GE="), grab("RE="), grab("SA="))
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// Kill the analysis once the checkpoint file exists (and, with
/// `spill_dir`, while a segment file is in it), then resume from the
/// checkpoint; returns the resumed run's output and counters, and the
/// segment files the killed run left in `spill_dir`.
fn crash_and_resume(
    tag: &str,
    extra: &[&str],
    spill_dir: Option<&Path>,
) -> (String, (u64, u64, u64, u64), SegmentFiles) {
    let dir = tmpdir(tag);
    let (spec, trace) = write_inputs(&dir);
    let ckpt = dir.join("autosave.bin");
    let _ = std::fs::remove_file(&ckpt);

    let mut child = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--checkpoint-every", "2000"])
        .args(extra)
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
    // A round's segments exist from its start to its end; strike inside
    // one, not between rounds.
    if let Some(d) = spill_dir {
        while segment_files(d).is_empty() {
            assert!(Instant::now() < deadline, "no spill segment within 60s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    child.kill().expect("SIGKILL the analyzer");
    let status = child.wait().expect("reap the killed analyzer");
    assert_eq!(
        status.signal(),
        Some(libc_sigkill()),
        "the analyzer must have died by SIGKILL, not exited: {:?}",
        status
    );
    let leftovers = spill_dir.map(segment_files).unwrap_or_default();

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
        String::from_utf8_lossy(&info.stderr)
    );
    assert!(stdout_of(&info).contains("pending frames:"));

    let resumed = bin()
        .arg("analyze")
        .arg(&spec)
        .arg("--resume")
        .arg(&ckpt)
        .args(extra)
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
    (text, counters, leftovers)
}

fn libc_sigkill() -> i32 {
    9
}

#[test]
fn sigkill_mid_analysis_then_resume_matches_uninterrupted_run() {
    let dir = tmpdir("baseline");
    let (spec, trace) = write_inputs(&dir);
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

    let (text, counters, _) = crash_and_resume("kill-default", &[], None);
    assert!(text.contains("verdict: invalid"), "{}", text);
    assert_eq!(
        counters, base_counters,
        "kill-9 + resume must reproduce the uninterrupted TE/GE/RE/SA totals"
    );
}

#[test]
fn sigkill_mid_spill_then_disk_resume_matches_uninterrupted_run() {
    let dir = tmpdir("spill-baseline");
    let (spec, trace) = write_inputs(&dir);
    let baseline = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .output()
        .expect("run baseline");
    let base_text = stdout_of(&baseline);
    assert_eq!(baseline.status.code(), Some(1), "{}", base_text);
    let base_counters = parse_counters(&base_text);

    // Under a tight budget the analyzer spills snapshots to segment
    // files as it runs, and SIGKILL leaves them behind, possibly with a
    // torn tail. The resumed process shares the spill directory but
    // never opens those files: everything it resumes from is in the
    // checkpoint. It writes its own segments under fresh ids, removes
    // them when it ends, and must still reproduce the uninterrupted
    // totals exactly — the tier changes where bytes live, never what
    // the search decides.
    let spill_dir = tmpdir("spill-segments");
    let spill = spill_dir.to_str().unwrap();
    let metrics = dir.join("resumed-metrics.json");
    let metrics_arg = metrics.to_str().unwrap();
    let extra = [
        "--max-mem",
        "256",
        "--spill-dir",
        spill,
        "--metrics-out",
        metrics_arg,
    ];
    let (text, counters, leftovers) = crash_and_resume("kill-spill", &extra, Some(&spill_dir));
    assert!(!leftovers.is_empty(), "the kill strikes inside a round");
    assert!(text.contains("verdict: invalid"), "{}", text);
    assert_eq!(
        counters, base_counters,
        "kill-9 mid-spill + disk resume must reproduce the uninterrupted totals"
    );
    let doc = std::fs::read_to_string(&metrics).expect("resumed run writes its metrics");
    let writes: u64 = doc
        .split("\"spill.writes\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no spill.writes in {}", doc));
    assert!(writes > 0, "the budget must actually have forced spilling");
    assert_eq!(
        segment_files(&spill_dir),
        leftovers,
        "the killed run's segments stay byte-identical, and the resumed run leaves none"
    );
}

/// Spill segment files by name, with their bytes.
type SegmentFiles = Vec<(String, Vec<u8>)>;

/// Every `.seg` file in `dir`, sorted by name.
fn segment_files(dir: &Path) -> SegmentFiles {
    let mut files: SegmentFiles = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .map(|e| {
            let bytes = std::fs::read(e.path()).unwrap();
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}
