//! Integration tests driving the `tango` binary.

mod common;

use common::{bin, scratch_dir, stderr_of, stdout_of};
use std::io::Write;
use std::path::PathBuf;

fn write_file(dir: &std::path::Path, name: &str, contents: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const ACK_SPEC: &str = include_str!("../../../specs/ack.est");

#[test]
fn check_prints_model_summary() {
    let dir = scratch_dir("check_prints_model_summary");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let out = bin().arg("check").arg(&spec).output().unwrap();
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(text.contains("module M"));
    assert!(text.contains("states: S1, S2"));
    assert!(text.contains("3 transition declaration(s)"));
}

#[test]
fn analyze_valid_trace_exits_zero() {
    let dir = scratch_dir("analyze_valid_trace_exits_zero");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "good.trace", "in A.x\nin B.y\nout A.ack\n");
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .args(["--order", "nr"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
    assert!(stdout_of(&out).contains("verdict: valid"));
    assert!(stdout_of(&out).contains("witness:"));
}

#[test]
fn analyze_invalid_trace_exits_one() {
    let dir = scratch_dir("analyze_invalid_trace_exits_one");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "bad.trace", "in A.x\nout A.ack\n");
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(stdout_of(&out).contains("verdict: invalid"));
}

#[test]
fn syntax_errors_are_rendered_with_carets() {
    let dir = scratch_dir("syntax_errors_are_rendered_with_carets");
    let spec = write_file(&dir, "broken.est", "specification x; module end.");
    let out = bin().arg("check").arg(&spec).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
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
    assert!(stderr_of(&out).contains("--frobnicate"));
}

#[test]
fn normalize_emits_reparsable_estelle() {
    let dir = scratch_dir("normalize_emits_reparsable_estelle");
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
    let text = stdout_of(&out);
    assert!(text.contains("T_nf1"));
    assert!(text.contains("T_nf2"));
    // The normal form must itself be a valid specification.
    let round = write_file(&dir, "normalized.est", &text);
    let out = bin().arg("check").arg(&round).output().unwrap();
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn online_mode_follows_a_growing_file() {
    let dir = scratch_dir("online_mode_follows_a_growing_file");
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
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
    assert!(stdout_of(&out).contains("verdict: valid"));
}

/// The visited set would make on-line counters depend on the worker
/// schedule, so `online --state-hashing` is refused with an option error
/// instead of being silently ignored.
#[test]
fn online_mode_refuses_state_hashing() {
    let dir = scratch_dir("online_mode_refuses_state_hashing");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "done.trace", "in A.x\nin B.y\nout A.ack\neof\n");
    let out = bin()
        .arg("online")
        .arg(&spec)
        .arg(&trace)
        .arg("--state-hashing")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", stdout_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("state hashing"), "{}", err);
    assert!(!stdout_of(&out).contains("verdict"), "{}", stdout_of(&out));
}

#[test]
fn disable_ip_flag_is_honored() {
    let dir = scratch_dir("disable_ip_flag_is_honored");
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
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
}

#[test]
fn graph_emits_dot() {
    let dir = scratch_dir("graph_emits_dot");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let out = bin().arg("graph").arg(&spec).output().unwrap();
    assert!(out.status.success());
    let text = stdout_of(&out);
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
    let dir = scratch_dir("generate_round_trips_through_analyze");
    let spec = write_file(&dir, "echo.est", ECHO_SPEC);
    let script = write_file(&dir, "script.txt", "in P.req(1)\nin P.req(5)\nin P.req(9)\n");
    let out = bin()
        .args(["generate"])
        .arg(&spec)
        .arg(&script)
        .args(["--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr_of(&out));
    let trace_text = stdout_of(&out);
    assert!(trace_text.trim_end().ends_with("eof"));
    // `--seed=7` is the same flag as `--seed 7`.
    let inline = bin()
        .args(["generate"])
        .arg(&spec)
        .arg(&script)
        .arg("--seed=7")
        .output()
        .unwrap();
    assert_eq!(stdout_of(&inline), trace_text, "{}", stderr_of(&inline));

    // The generated trace must be valid against the same spec.
    let trace = write_file(&dir, "generated.trace", &trace_text);
    let out = bin()
        .args(["analyze"])
        .arg(&spec)
        .arg(&trace)
        .args(["--order", "full"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
}

#[test]
fn generate_rejects_out_lines_in_scripts() {
    let dir = scratch_dir("generate_rejects_out_lines_in_scripts");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let script = write_file(&dir, "bad_script.txt", "in A.x\nout A.ack\n");
    let out = bin().args(["generate"]).arg(&spec).arg(&script).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr_of(&out).contains("`in` lines"));
}

/// A reader that goes away before the report is printed
/// (`tango analyze … | head -1`) ends the output quietly: no panic, and
/// the exit code is still the verdict's.
#[test]
fn a_closed_stdout_ends_quietly_with_the_verdicts_exit_code() {
    use std::process::Stdio;
    let dir = scratch_dir("a_closed_stdout_ends_quietly_with_the_verdicts_exit_code");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "bad.trace", "in A.x\nout A.ack\n");
    // A pipe whose only reader has exited: a usage error never reads it.
    let mut gone = bin().stdin(Stdio::piped()).stderr(Stdio::null()).spawn().unwrap();
    let closed = gone.stdin.take().unwrap();
    gone.wait().unwrap();
    let out = bin().arg("analyze").arg(&spec).arg(&trace).stdout(closed).output().unwrap();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{}", stderr);
    assert!(!stderr.contains("panicked"), "{}", stderr);
}

/// An on-line checkpoint save that fails is counted like a failed
/// autosave: it reaches the report's checkpoint giveups, and the dump.
/// Neither the stop note nor the dump names the file as one to resume.
#[test]
fn a_failed_online_checkpoint_save_is_counted_and_dumped() {
    let dir = scratch_dir("a_failed_online_checkpoint_save_is_counted_and_dumped");
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
    assert_eq!(out.status.code(), Some(2), "{}", stdout_of(&out));
    let stderr = stderr_of(&out);
    assert!(!stderr.contains("checkpoint saved to"), "{}", stderr);
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"fault.checkpoint.giveups\": 1,"), "{}", doc);
    let info = stdout_of(&bin().arg("dump-info").arg(&dump).output().unwrap());
    assert!(info.contains("    checkpoint: save to "), "{}", info);
    assert!(info.contains("resume from: (no checkpoint recorded)"), "{}", info);
}

/// The verdict word and TE/GE/RE/SA of a report on stdout.
fn verdict_and_counters(out: &std::process::Output) -> (String, [u64; 4]) {
    let text = stdout_of(out);
    let verdict = text
        .lines()
        .find_map(|l| l.strip_prefix("verdict: "))
        .unwrap_or_else(|| panic!("no verdict line in: {}", text));
    let word = verdict.split_whitespace().next().unwrap().to_string();
    (word, common::parse_counters(verdict))
}

/// Either subcommand resumes either kind of checkpoint, under the rule
/// the checkpoint records: an on-line stop after eof resumes through
/// `analyze --resume`, a static stop through `online --resume`, and each
/// prints the uninterrupted run's verdict and counters.
#[test]
fn either_subcommand_resumes_either_kind_of_checkpoint() {
    let dir = scratch_dir("either_subcommand_resumes_either_kind_of_checkpoint");
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let cases = [
        (
            "lapd",
            "in U.dl_est_req\nin L.ua\nin U.dl_data_req(0)\nin U.dl_data_req(1)\n",
            ["online", "analyze"],
            &["--workers", "2"][..],
        ),
        (
            "tp0",
            "in U.tconreq\nin L.cc_ind\nin U.tdatreq(0)\nin U.tdatreq(1)\nin U.tdisreq\n",
            ["analyze", "online"],
            &[][..],
        ),
    ];
    for (name, script, [stop_with, resume_with], extra) in cases {
        let spec = specs.join(format!("{}.est", name));
        let script = write_file(&dir, &format!("{}-script.txt", name), script);
        let generated = bin().arg("generate").arg(&spec).arg(&script).output().unwrap();
        assert!(generated.status.success(), "{}", stderr_of(&generated));
        let trace = write_file(&dir, &format!("{}.trace", name), &stdout_of(&generated));
        let ckpt = dir.join(format!("{}.ckpt", name));
        let analysis = |cmd: &str| {
            let mut c = bin();
            c.arg(cmd).arg(&spec).args(extra);
            c
        };

        let whole = analysis(stop_with).arg(&trace).output().unwrap();
        assert!(stdout_of(&whole).contains("verdict: valid"), "{}", stdout_of(&whole));
        let stopped = analysis(stop_with)
            .arg(&trace)
            .args(["--max-transitions", "5", "--flight-recorder", "off"])
            .arg("--checkpoint-file")
            .arg(&ckpt)
            .output()
            .unwrap();
        assert_eq!(stopped.status.code(), Some(2), "{}: {}", name, stdout_of(&stopped));
        let resumed = analysis(resume_with).arg("--resume").arg(&ckpt).output().unwrap();
        assert_eq!(resumed.status.code(), Some(0), "{}: {}", name, stderr_of(&resumed));
        assert_eq!(
            verdict_and_counters(&resumed),
            verdict_and_counters(&whole),
            "{}",
            name
        );
    }
}

/// A complete trace is searched on one worker, so a worker count other
/// than 1 is refused, with exit 3 and a pointer to `tango online`: on a
/// fresh `analyze` of a trace file, and on the resume of a static
/// checkpoint under either subcommand.
#[test]
fn workers_are_refused_on_complete_trace_runs() {
    let dir = scratch_dir("workers_are_refused_on_complete_trace_runs");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "good.trace", "in A.x\nin B.y\nout A.ack\n");
    let ckpt = dir.join("ack.ckpt");
    let refused = |out: std::process::Output| {
        assert_eq!(out.status.code(), Some(3), "{}", stdout_of(&out));
        assert!(
            stderr_of(&out).contains("`tango online`"),
            "{}",
            stderr_of(&out)
        );
        assert!(stdout_of(&out).is_empty(), "{}", stdout_of(&out));
    };
    for n in ["2", "0"] {
        let mut fresh = bin();
        fresh
            .arg("analyze")
            .arg(&spec)
            .arg(&trace)
            .args(["--workers", n]);
        refused(fresh.output().unwrap());
    }
    let one = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--workers", "1"])
        .output()
        .unwrap();
    assert_eq!(one.status.code(), Some(0), "{}", stderr_of(&one));

    let stopped = bin()
        .arg("analyze")
        .arg(&spec)
        .arg(&trace)
        .args(["--order", "nr", "--max-transitions", "1"])
        .args(["--flight-recorder", "off", "--checkpoint-file"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(stopped.status.code(), Some(2), "{}", stdout_of(&stopped));
    for cmd in ["analyze", "online"] {
        let mut resume = bin();
        resume
            .arg(cmd)
            .arg(&spec)
            .arg("--resume")
            .arg(&ckpt)
            .args(["--workers", "2"]);
        refused(resume.output().unwrap());
    }
}

/// An on-line stop before the trace's eof marker cannot be resumed (the
/// rest of the trace is unknown), so the CLI neither saves its front nor
/// tells the user to resume it, and says why instead.
#[test]
fn a_pre_eof_online_stop_saves_no_checkpoint_and_says_why() {
    let dir = scratch_dir("a_pre_eof_online_stop_saves_no_checkpoint_and_says_why");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "live.trace", "in A.x\n");
    let ckpt = dir.join("pre.ckpt");
    let out = bin()
        .args(["online".as_ref(), spec.as_os_str(), trace.as_os_str()])
        .args(["--max-seconds", "0.2", "--checkpoint-file"])
        .arg(&ckpt)
        .arg("--dump-file")
        .arg(dir.join("pre.tangodump"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("inconclusive (TimeLimit)"),
        "{}",
        stdout_of(&out)
    );
    let stderr = stderr_of(&out);
    assert!(!ckpt.exists(), "a pre-eof front was saved: {}", stderr);
    assert!(!stderr.contains("--resume"), "{}", stderr);
    assert!(
        stderr.contains("before the trace reached its eof marker; no checkpoint was saved"),
        "{}",
        stderr
    );
}

/// A limit stop inside a round of the §2.4.1 initial-state search saves
/// no checkpoint (a resume could not re-enter the rounds), and the CLI
/// says so instead of staying silent.
#[test]
fn an_initial_state_round_stop_saves_no_checkpoint_and_says_why() {
    let dir = scratch_dir("an_initial_state_round_stop_saves_no_checkpoint_and_says_why");
    let spec = write_file(&dir, "lapd.est", include_str!("../../../specs/lapd.est"));
    // Inexplicable from the default state at its first event, without a
    // transition; a release from MF_EST explains it.
    let trace = write_file(&dir, "release.trace", "in U.dl_rel_req\nout L.disc\n");
    let ckpt = dir.join("ck0.ckpt");
    let out = bin()
        .args(["analyze".as_ref(), spec.as_os_str(), trace.as_os_str()])
        .args(["--initial-state-search", "--max-transitions", "0"])
        .arg("--checkpoint-file")
        .arg(&ckpt)
        .arg("--dump-file")
        .arg(dir.join("ck0.tangodump"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stdout_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("inconclusive (TransitionLimit)"), "{}", stdout);
    assert!(stdout.contains("TE=1 "), "{}", stdout);
    let stderr = stderr_of(&out);
    assert!(!ckpt.exists(), "{}", stderr);
    assert!(!stderr.contains("--resume"), "{}", stderr);
    assert!(
        stderr.contains("inside an initial-state search round; no checkpoint was saved"),
        "{}",
        stderr
    );
}

/// A checkpoint the analyzer refuses is reported as such, not as an
/// option error, with the usage/spec exit code.
#[test]
fn a_refused_resume_names_the_checkpoint() {
    let dir = scratch_dir("a_refused_resume_names_the_checkpoint");
    let spec = write_file(&dir, "ack.est", ACK_SPEC);
    let trace = write_file(&dir, "done.trace", "in A.x\nin B.y\nout A.ack\neof\n");
    let ckpt = dir.join("ack.ckpt");
    let stopped = bin()
        .args(["online".as_ref(), spec.as_os_str(), trace.as_os_str()])
        .args([
            "--order",
            "nr",
            "--max-transitions",
            "1",
            "--checkpoint-file",
        ])
        .arg(&ckpt)
        .arg("--dump-file")
        .arg(dir.join("ack.tangodump"))
        .output()
        .unwrap();
    assert_eq!(stopped.status.code(), Some(2), "{}", stderr_of(&stopped));
    assert!(ckpt.exists(), "{}", stderr_of(&stopped));
    // One IP where the checkpoint's trace has two.
    let other = write_file(
        &dir,
        "one.est",
        "specification one; channel C(env, m); by env: x; end; \
         module M process; ip P : C(m); end; body MB for M; state S; \
         initialize to S begin end; trans from S to S when P.x begin end; end; end.",
    );
    let out = bin()
        .arg("analyze")
        .arg(&other)
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", stdout_of(&out));
    assert_eq!(
        stderr_of(&out),
        "error: cannot resume the checkpoint: checkpoint trace has 2 IP stream(s), \
         specification has 1\n"
    );
}
