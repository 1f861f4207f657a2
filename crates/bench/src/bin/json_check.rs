//! Validate hand-rolled JSON artifacts: metrics documents and JSONL
//! event streams.
//!
//! The workspace vendors no JSON crate, so everything the tools emit —
//! `tango analyze --metrics-out`, `--trace-out`, `/status` — is
//! written by hand and kept honest by `bench::json::validate`. This
//! binary is the command-line face of that checker for CI:
//!
//! ```sh
//! cargo run -p bench --bin json_check -- metrics.json          # one document
//! cargo run -p bench --bin json_check -- --jsonl events.jsonl  # one per line
//! ```
//!
//! Exits non-zero on the first malformed document, naming the file (and
//! line, for `--jsonl`) that failed.

use bench::json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jsonl = false;
    let mut files = Vec::new();
    for a in &args {
        match a.as_str() {
            "--jsonl" => jsonl = true,
            "-h" | "--help" => {
                eprintln!("usage: json_check [--jsonl] FILE...");
                return ExitCode::FAILURE;
            }
            f => files.push(f),
        }
    }
    if files.is_empty() {
        eprintln!("usage: json_check [--jsonl] FILE...");
        return ExitCode::FAILURE;
    }
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("json_check: cannot read {}: {}", path, e);
                return ExitCode::FAILURE;
            }
        };
        if jsonl {
            let mut n = 0usize;
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                if let Err(e) = json::validate(line) {
                    eprintln!("json_check: {}:{}: {}", path, i + 1, e);
                    return ExitCode::FAILURE;
                }
                n += 1;
            }
            println!("{}: {} well-formed JSONL line(s)", path, n);
        } else {
            if let Err(e) = json::validate(&text) {
                eprintln!("json_check: {}: {}", path, e);
                return ExitCode::FAILURE;
            }
            println!("{}: well-formed JSON", path);
        }
    }
    ExitCode::SUCCESS
}
