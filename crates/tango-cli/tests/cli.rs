//! Integration tests driving the `tango` binary.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tango"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_file(dir: &std::path::Path, name: &str, contents: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const ACK_SPEC: &str = r#"
specification ackspec;
channel ChA(env, m); by env: x; by m: ack; end;
channel ChB(env, m); by env: y; end;
module M process;
    ip A : ChA(m);
    ip B : ChB(m);
end;
body MB for M;
    state S1, S2;
    initialize to S1 begin end;
    trans
    from S1 to S1 when A.x name T1: begin end;
    from S1 to S2 when A.x name T2: begin end;
    from S2 to S1 when B.y name T3: begin output A.ack; end;
end;
end.
"#;

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn check_prints_model_summary() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let out = bin().arg("check").arg(&spec).output().unwrap();
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("module M"));
    assert!(text.contains("states: S1, S2"));
    assert!(text.contains("3 transition declaration(s)"));
}

#[test]
fn analyze_valid_trace_exits_zero() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "good.trace", "in A.x\nin B.y\nout A.ack\n");
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .args(["--order", "nr"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("verdict: valid"));
    assert!(stdout(&out).contains("witness:"));
}

#[test]
fn analyze_invalid_trace_exits_one() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "bad.trace", "in A.x\nout A.ack\n");
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("verdict: invalid"));
}

#[test]
fn syntax_errors_are_rendered_with_carets() {
    let dir = tmpdir();
    let spec = write_file(&dir, "broken.est", "specification x; module end.");
    let out = bin().arg("check").arg(&spec).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error (parse)"), "stderr: {}", err);
    assert!(err.contains('^'));
}

#[test]
fn unknown_flags_are_rejected() {
    let out = bin()
        .args(["analyze", "a.est", "b.trace", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--frobnicate"));
}

#[test]
fn normalize_emits_reparsable_estelle() {
    let dir = tmpdir();
    let branchy = r#"
specification b;
channel C(env, m); by env: put(n : integer); by m: lo; hi; end;
module M process; ip P : C(m); end;
body MB for M;
    state S;
    initialize to S begin end;
    trans
    from S to S when P.put name T:
    begin
        if n < 10 then output P.lo else output P.hi;
    end;
end;
end.
"#;
    let spec = write_file(&dir, "branchy.est", branchy);
    let out = bin().arg("normalize").arg(&spec).output().unwrap();
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("T_nf1"));
    assert!(text.contains("T_nf2"));
    // The normal form must itself be a valid specification.
    let round = write_file(&dir, "normalized.est", &text);
    let out = bin().arg("check").arg(&round).output().unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn online_mode_follows_a_growing_file() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace_path = dir.join("live.trace");
    std::fs::write(&trace_path, "in A.x\n").unwrap();

    let child = bin()
        .args(["online"])
        .arg(&spec)
        .arg(&trace_path)
        .args(["--order", "nr"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // Feed the rest of the paper scenario, then close the trace.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&trace_path)
        .unwrap();
    writeln!(f, "in B.y\nout A.ack\neof").unwrap();
    drop(f);

    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("verdict: valid"));
}

/// The visited set would make on-line counters depend on the worker
/// schedule, so `online --state-hashing` is refused with an option error
/// instead of being silently ignored.
#[test]
fn online_mode_refuses_state_hashing() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "done.trace", "in A.x\nin B.y\nout A.ack\neof\n");
    let out = bin()
        .arg("online")
        .arg(&spec)
        .arg(&trace)
        .arg("--state-hashing")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("state hashing"), "{}", err);
    assert!(!stdout(&out).contains("verdict"), "{}", stdout(&out));
}

#[test]
fn disable_ip_flag_is_honored() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    // Without the ack output the trace is invalid...
    let trace = write_file(&dir, "quiet.trace", "in A.x\nin B.y\n");
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // ... unless outputs at A are disabled.
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .args(["--disable-ip", "A"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn graph_emits_dot() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let out = bin().arg("graph").arg(&spec).output().unwrap();
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph M {"));
    assert!(text.contains("when A.x"));
    assert!(text.contains("/ A.ack"));
}

const ECHO_SPEC: &str = r#"
specification echo;
channel C(env, m); by env: req(n : integer); by m: rsp(n : integer); end;
module M process; ip P : C(m); end;
body MB for M;
    state S;
    initialize to S begin end;
    trans
    from S to S when P.req begin output P.rsp(n + 1) end;
end;
end.
"#;

#[test]
fn generate_round_trips_through_analyze() {
    let dir = tmpdir();
    let spec = write_file(&dir, "echo.est", ECHO_SPEC);
    let script = write_file(&dir, "script.txt", "in P.req(1)\nin P.req(5)\nin P.req(9)\n");
    let out = bin()
        .args(["generate"])
        .arg(&spec)
        .arg(&script)
        .args(["--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let trace_text = stdout(&out);
    assert!(trace_text.trim_end().ends_with("eof"));

    // The generated trace must be valid against the same spec.
    let trace = write_file(&dir, "generated.trace", &trace_text);
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .args(["--order", "full"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn generate_rejects_out_lines_in_scripts() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let script = write_file(&dir, "bad_script.txt", "in A.x\nout A.ack\n");
    let out = bin().args(["generate"]).arg(&spec).arg(&script).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("`in` lines"));
}

/// A reader that goes away before the report is printed
/// (`tango analyze … | head -1`) ends the output quietly: no panic, and
/// the exit code is still the verdict's.
#[test]
fn a_closed_stdout_ends_quietly_with_the_verdicts_exit_code() {
    use std::process::Stdio;
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "bad.trace", "in A.x\nout A.ack\n");
    // A pipe whose only reader has exited: a usage error never reads it.
    let mut gone = bin().stdin(Stdio::piped()).stderr(Stdio::null()).spawn().unwrap();
    let closed = gone.stdin.take().unwrap();
    gone.wait().unwrap();
    let out = bin().arg("analyze").arg(&spec).arg(&trace).stdout(closed).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{}", stderr);
    assert!(!stderr.contains("panicked"), "{}", stderr);
}

/// An on-line checkpoint save that fails is counted like a failed
/// autosave: it reaches the report's checkpoint giveups, and the dump.
#[test]
fn a_failed_online_checkpoint_save_is_counted_and_dumped() {
    let dir = tmpdir();
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "done.trace", "in A.x\nin B.y\nout A.ack\neof\n");
    let (metrics, dump) = (dir.join("online.json"), dir.join("online.tangodump"));
    let out = bin()
        .args(["online".as_ref(), spec.as_os_str(), trace.as_os_str()])
        .args(["--order", "nr", "--max-transitions", "1"])
        .arg("--checkpoint-file")
        .arg(dir.join("no-such-dir").join("online.ckpt"))
        .args(["--metrics-out".as_ref(), metrics.as_os_str()])
        .args(["--dump-file".as_ref(), dump.as_os_str()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"fault.checkpoint.giveups\": 1,"), "{}", doc);
    let info = stdout(&bin().arg("dump-info").arg(&dump).output().unwrap());
    assert!(info.contains("    checkpoint: save to "), "{}", info);
}
