//! Harness helpers shared by the CLI's integration suites. Each suite
//! compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

pub fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tango"))
}

/// A fresh, empty directory for one test's files under the system temp
/// dir, named after the suite, `tag` and the process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-cli-{}-{}-{}",
        env!("CARGO_CRATE_NAME"),
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two observationally identical transitions per consumed `ping`: the
/// search tree doubles at every event, and the trailing never-produced
/// `out U.pong` makes the verdict a conclusive `invalid` that requires
/// exhausting the whole tree.
pub const FORK_SPEC: &str = r#"
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

/// Write `forker.est` and a trace of `pings` pings and the missing pong
/// into `dir`; returns (spec, trace).
pub fn write_inputs(dir: &Path, pings: usize) -> (PathBuf, PathBuf) {
    let spec = dir.join("forker.est");
    std::fs::write(&spec, FORK_SPEC).unwrap();
    let mut trace = String::new();
    for _ in 0..pings {
        trace.push_str("in U.ping\n");
    }
    trace.push_str("out U.pong\n");
    let trace_path = dir.join("trace.txt");
    std::fs::write(&trace_path, trace).unwrap();
    (spec, trace_path)
}

pub fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

pub fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// TE, GE, RE, SA from the report line:
/// `verdict: ... [CPUT=0.123s TE=1 GE=2 RE=3 SA=4]`.
pub fn parse_counters(stdout: &str) -> [u64; 4] {
    ["TE=", "GE=", "RE=", "SA="].map(|key| {
        let at = stdout
            .find(key)
            .unwrap_or_else(|| panic!("`{}` missing in output: {}", key, stdout));
        stdout[at + key.len()..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    })
}
