//! `tango` — command-line trace analyzer generator for Estelle
//! specifications.
//!
//! Subcommands:
//!
//! ```text
//! tango check <spec.est>
//!     Parse and analyze a specification; print its model summary.
//!
//! tango analyze <spec.est> <trace.txt> [--order nr|io|ip|full]
//!     [--disable-ip NAME]... [--unobserved-ip NAME]...
//!     [--initial-state-search] [--state-hashing]
//!     Analyze a static trace file; exit code 0 = valid, 1 = invalid,
//!     2 = inconclusive.
//!
//! tango online <spec.est> <trace.txt> [--order ...]
//!     Follow a growing trace file (dynamic mode, MDFS) until its `eof`
//!     marker; interim verdicts are printed as they change.
//!
//! tango normalize <spec.est>
//!     Print the §5.3 normal form of the specification.
//!
//! tango generate <spec.est> <script.txt> [--seed N]
//!     Implementation-generation mode (§4.1): execute the specification
//!     against the scripted inputs (`in IP.interaction(args)` lines) and
//!     print the resulting valid trace.
//!
//! tango graph <spec.est>
//!     Emit a Graphviz `dot` rendering of the compiled EFSM.
//!
//! tango checkpoint-info <checkpoint.bin>
//!     Verify a checkpoint file's integrity and print its progress
//!     summary (depth, pending frames, events, counters) without
//!     loading any machine state.
//!
//! tango dump-info [--jsonl] <file.tangodump>
//!     Verify a post-mortem dump and render it human-readable (or as
//!     JSONL documents with --jsonl).
//!
//! tango http-get <host:port[/path]>
//!     Fetch one URL from a running `--listen` endpoint and print the
//!     body — a curl substitute for scripts and CI.
//! ```
//!
//! Durable analysis: `--checkpoint-file PATH` saves the search
//! atomically on any limit stop, and in static mode also every
//! `--checkpoint-every N` executed transitions, so a killed process loses
//! at most one interval of work. `--resume PATH` continues from such a
//! file with the counters intact, under the rule the checkpoint records:
//! either subcommand resumes either kind.
//!
//! Black box (both modes): the flight recorder is on by default
//! (`--flight-recorder off` disables it) and costs a bounded ring of
//! compact records. Any non-completed outcome — an inconclusive verdict,
//! a fault giveup, an isolated specification panic — writes a post-mortem
//! dump (`--dump-file PATH`, default `tango-postmortem.tangodump`)
//! readable with `tango dump-info`. `--listen ADDR` additionally serves
//! live `/status`, `/metrics` and `/profile` JSON over HTTP while the
//! analysis runs.

use estelle_frontend::parse_specification;
use estelle_runtime::normal_form::normalize_specification;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use tango::{
    should_dump, AnalysisOptions, AnalysisReport, Checkpoint, FaultPlan, FollowFileSource,
    InconclusiveReason, IntrospectionServer, JsonlSink, OrderOptions, PostMortemDump,
    ProgressMode, ProgressReporter, RecoveryPolicy, SearchStats, Tango, Telemetry, TraceAnalyzer,
    TraceSource, Verdict, DEFAULT_RING_CAPACITY,
};

/// Poll budget for draining a fault-injected source on a static chaos
/// run; generous enough for any plan `FaultPlan::random` can emit.
const CHAOS_MAX_POLLS: usize = 1_000_000;

/// Where the post-mortem dump lands unless `--dump-file` says otherwise.
const DEFAULT_DUMP_FILE: &str = "tango-postmortem.tangodump";

/// Write to standard output, the one path every stdout byte takes. A
/// reader that went away (`tango analyze … | head -1`) is not an error:
/// the write is dropped, and the command still ends with its own exit
/// code. Any other write failure is.
fn out(args: fmt::Arguments) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {}", e))
        }
        _ => Ok(()),
    }
}

/// `print!` and `println!` through [`out`]; a write error returns from
/// the enclosing function.
macro_rules! out {
    ($($arg:tt)*) => { out(format_args!($($arg)*))? };
}
macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!("{}\n", format_args!($($arg)*)))? };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {}", msg);
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "check" => check(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "analyze" => analyze(&args[1..], false),
        "online" => analyze(&args[1..], true),
        "normalize" => normalize(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "graph" => graph(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "generate" => generate(&args[1..]),
        "checkpoint-info" => checkpoint_info(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "dump-info" => dump_info(&args[1..]),
        "http-get" => http_get(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "--help" | "-h" | "help" => {
            outln!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{}`\n{}", other, usage())),
    }
}

fn usage() -> String {
    "usage: tango <check|analyze|online|normalize|graph|generate|checkpoint-info\
     |dump-info|http-get> \
     <spec.est|checkpoint.bin|file.tangodump|host:port/path> \
     [trace.txt|script.txt] [--order nr|io|ip|full] [--disable-ip NAME] \
     [--unobserved-ip NAME] [--initial-state-search] [--state-hashing] \
     [--workers N (on-line; default 1, 0 = one per core)] \
     [--max-seconds F] [--max-mem N[k|m|g][b]] \
     [--max-transitions N] [--checkpoint-file PATH] [--checkpoint-every N] \
     [--resume PATH] [--on-truncate restart|fail] [--seed N] \
     [--trace-out PATH] [--metrics-out PATH] [--progress SECS|jsonl[:SECS]] \
     [--profile] [--profile-dot PATH] \
     [--chaos-seed N] [--fault-plan SPEC] \
     [--flight-recorder on|off] [--dump-file PATH] [--listen ADDR] [--jsonl]"
        .to_string()
}

/// Parse a byte budget like `64k`, `16m`, `1g`, `64mb` or a plain byte
/// count. Rejects multiplier overflow instead of silently wrapping.
fn parse_bytes(s: &str) -> Result<usize, String> {
    let bad = || format!("bad memory budget `{}`", s);
    let lower = s.to_ascii_lowercase();
    // An optional trailing `b` (`64mb`, `10kb`) is accepted and ignored —
    // but a bare `b` is not a number.
    let trimmed = match lower.strip_suffix('b') {
        Some(rest) if !rest.is_empty() => rest,
        Some(_) => return Err(bad()),
        None => lower.as_str(),
    };
    let (digits, shift) = match trimmed.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match trimmed.as_bytes()[trimmed.len() - 1] {
                b'k' => 10u32,
                b'm' => 20,
                _ => 30,
            },
        ),
        None => (trimmed, 0),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_mul(1usize << shift).ok_or_else(bad)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {}", path, e))
}

fn check(spec_path: &str) -> Result<ExitCode, String> {
    let source = read(spec_path)?;
    let analyzer = match Tango::generate(&source) {
        Ok(a) => a,
        Err(tango::TangoError::Build(estelle_runtime::BuildError::Frontend(e))) => {
            eprintln!("{}", e.render(&source));
            return Ok(ExitCode::from(1));
        }
        Err(e) => return Err(e.to_string()),
    };
    let m = analyzer.module();
    outln!("specification {} / module {}", m.spec_name, m.module_name);
    outln!("  states: {}", m.states.join(", "));
    for ip in &m.ips {
        outln!(
            "  ip {}: {} receivable, {} sendable interaction(s)",
            ip.name,
            ip.inputs.len(),
            ip.outputs.len()
        );
    }
    outln!(
        "  {} transition declaration(s), {} compiled transition(s)",
        m.declared_transition_count(),
        analyzer.machine.module.transition_count()
    );
    for w in &m.warnings {
        outln!("  warning: {}", w);
    }
    Ok(ExitCode::SUCCESS)
}

/// Implementation-generation mode (§4.1): run the spec against scripted
/// inputs and print the trace it produces.
fn generate(args: &[String]) -> Result<ExitCode, String> {
    let mut seed: Option<u64> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = split_flag(a);
        match flag {
            "--seed" => {
                let v = flag_value(flag, inline, &mut it, "a value")?;
                seed = Some(v.parse().map_err(|_| format!("bad seed `{}`", v))?);
            }
            _ if flag.starts_with("--") => {
                return Err(format!("unknown flag `{}`", a));
            }
            _ => positional.push(a.clone()),
        }
    }
    let [spec_path, script_path] = positional.as_slice() else {
        return Err(usage());
    };
    let source = read(spec_path)?;
    let analyzer = Tango::generate(&source).map_err(|e| e.to_string())?;

    // The script reuses the trace format; only `in` lines are accepted.
    let script_text = read(script_path)?;
    let script_trace = tango::parse_trace(&script_text, Some(analyzer.module()))
        .map_err(|e| e.to_string())?;
    let mut script = Vec::new();
    for e in &script_trace.events {
        if e.dir != tango::Dir::In {
            return Err(format!(
                "script may only contain `in` lines; found `out {}.{}`",
                e.ip, e.interaction
            ));
        }
        script.push(tango::ScriptedInput {
            ip: e.ip.clone(),
            interaction: e.interaction.clone(),
            params: e.params.clone(),
        });
    }

    let choice = match seed {
        Some(s) => tango::ChoicePolicy::Random(s),
        None => tango::ChoicePolicy::First,
    };
    let trace = analyzer
        .generate_trace(&script, choice, 10_000_000)
        .map_err(|e| e.to_string())?;
    out!(
        "{}",
        tango::render_trace(&trace, Some(analyzer.module()), true)
    );
    Ok(ExitCode::SUCCESS)
}

/// Emit a Graphviz rendering of the compiled EFSM.
fn graph(spec_path: &str) -> Result<ExitCode, String> {
    let source = read(spec_path)?;
    let analyzer = Tango::generate(&source).map_err(|e| e.to_string())?;
    out!("{}", estelle_runtime::graph::to_dot(&analyzer.machine.module));
    Ok(ExitCode::SUCCESS)
}

fn normalize(spec_path: &str) -> Result<ExitCode, String> {
    let source = read(spec_path)?;
    let spec = parse_specification(&source).map_err(|e| e.render(&source))?;
    let normalized = normalize_specification(&spec).map_err(|e| e.to_string())?;
    out!("{}", estelle_ast::print::print_specification(&normalized));
    Ok(ExitCode::SUCCESS)
}

/// Durable-analysis flags (`--checkpoint-every` is static-only).
#[derive(Debug, Default)]
struct CheckpointFlags {
    /// Where to (auto)save the search when it stops on a limit.
    file: Option<PathBuf>,
    /// A previously saved checkpoint to continue from.
    resume: Option<PathBuf>,
    /// Autosave interval, in executed transitions.
    every: Option<u64>,
}

/// Telemetry flags (both modes): structured event stream, metrics
/// export, live progress heartbeats, per-transition profile.
#[derive(Debug, Default)]
struct TelemetryFlags {
    /// Write the JSONL search-event stream here.
    trace_out: Option<PathBuf>,
    /// Write the metrics-registry JSON document here after the run.
    metrics_out: Option<PathBuf>,
    /// Heartbeat mode and interval (`--progress SECS` or `jsonl[:SECS]`).
    progress: Option<(ProgressMode, Duration)>,
    /// Print the hot-transition table after the report.
    profile: bool,
    /// Write the Graphviz heat overlay here.
    profile_dot: Option<PathBuf>,
    /// `--flight-recorder off`: disable the always-on black box (the
    /// recorder is the default; this exists for A/B timing and for
    /// proving the recorder changes nothing but the dump).
    recorder_off: bool,
    /// Post-mortem dump destination (`--dump-file`; defaults to
    /// [`DEFAULT_DUMP_FILE`] in the working directory).
    dump_file: Option<PathBuf>,
    /// Serve live `/status`, `/metrics`, `/profile` here (`--listen`).
    listen: Option<String>,
}

impl TelemetryFlags {
    /// Build the analysis telemetry handle these flags ask for, plus the
    /// live introspection server when `--listen` is set (kept alive by
    /// the caller for the duration of the run; dropping it frees the
    /// port).
    fn build(
        &self,
        analyzer: &TraceAnalyzer,
    ) -> Result<(Telemetry, Option<IntrospectionServer>), String> {
        let transition_count = analyzer.machine.module.transition_count();
        let mut tel = Telemetry::off();
        if let Some(path) = &self.trace_out {
            let f = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {}", path.display(), e))?;
            tel = tel.with_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f))));
        }
        if self.metrics_out.is_some() || self.listen.is_some() {
            tel = tel.with_metrics();
        }
        if self.profile || self.profile_dot.is_some() || self.listen.is_some() {
            tel = tel.with_profile(transition_count);
        }
        if let Some((mode, every)) = self.progress {
            tel = tel.with_progress(ProgressReporter::stderr(mode, every));
        }
        if !self.recorder_off {
            tel = tel.with_recorder(DEFAULT_RING_CAPACITY);
        }
        let mut server = None;
        if let Some(addr) = &self.listen {
            let s = IntrospectionServer::bind(addr)
                .map_err(|e| format!("cannot listen on {}: {}", addr, e))?;
            eprintln!("introspect: listening on http://{}/", s.local_addr());
            tel = tel.with_introspection(s.handle());
            server = Some(s);
        }
        if !self.recorder_off || self.listen.is_some() {
            tel = tel.with_transition_names(analyzer.transition_names());
        }
        Ok((tel, server))
    }

    /// The dump destination these flags select.
    fn dump_path(&self) -> PathBuf {
        self.dump_file
            .clone()
            .unwrap_or_else(|| PathBuf::from(DEFAULT_DUMP_FILE))
    }
}

/// Parse the `--flight-recorder` mode: `on` (the default) or `off`.
fn parse_recorder(v: &str) -> Result<bool, String> {
    match v.to_ascii_lowercase().as_str() {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!(
            "bad --flight-recorder mode `{}` (expected on|off)",
            other
        )),
    }
}

/// Parse a `--progress` spec: `SECS` (human heartbeats) or `jsonl`
/// (machine-readable, default interval) or `jsonl:SECS`.
fn parse_progress(v: &str) -> Result<(ProgressMode, Duration), String> {
    let bad = || format!("bad --progress value `{}` (expected SECS or jsonl[:SECS])", v);
    let lower = v.to_ascii_lowercase();
    let (mode, secs_str) = match lower.strip_prefix("jsonl") {
        Some("") => return Ok((ProgressMode::Jsonl, Duration::from_secs(2))),
        Some(rest) => (ProgressMode::Jsonl, rest.strip_prefix(':').ok_or_else(bad)?),
        None => (ProgressMode::Human, lower.as_str()),
    };
    let secs: f64 = secs_str.parse().map_err(|_| bad())?;
    Ok((mode, Duration::try_from_secs_f64(secs).map_err(|_| bad())?))
}

/// What `analyze` and `online` take from their command line.
#[derive(Debug)]
struct ParsedArgs {
    options: AnalysisOptions,
    recovery: RecoveryPolicy,
    ckpt: CheckpointFlags,
    tflags: TelemetryFlags,
    positional: Vec<String>,
    chaos: Option<FaultPlan>,
}

/// Split `--name=value` into the flag and its inline value; any other
/// argument comes back whole. Every value flag takes both `--name value`
/// and `--name=value`.
fn split_flag(a: &str) -> (&str, Option<&str>) {
    match a.split_once('=') {
        Some((flag, v)) if flag.starts_with("--") => (flag, Some(v)),
        _ => (a, None),
    }
}

/// The value of a value flag: its `=value` part, or else the next
/// argument.
fn flag_value<'a>(
    flag: &str,
    inline: Option<&'a str>,
    rest: &mut std::slice::Iter<'a, String>,
    need: &str,
) -> Result<&'a str, String> {
    inline
        .or_else(|| rest.next().map(String::as_str))
        .ok_or_else(|| format!("{} needs {}", flag, need))
}

fn parse_options(args: &[String]) -> Result<ParsedArgs, String> {
    let mut options = AnalysisOptions::default();
    let mut recovery = RecoveryPolicy::default();
    let mut ckpt = CheckpointFlags::default();
    let mut tflags = TelemetryFlags::default();
    let mut chaos: Option<FaultPlan> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = split_flag(a);
        let mut value = |need: &str| flag_value(flag, inline, &mut it, need);
        match flag {
            "--profile" | "--initial-state-search" | "--state-hashing" if inline.is_some() => {
                return Err(format!("{} takes no value", flag));
            }
            "--checkpoint-file" => ckpt.file = Some(PathBuf::from(value("a path")?)),
            "--resume" => ckpt.resume = Some(PathBuf::from(value("a path")?)),
            "--checkpoint-every" => {
                let v = value("a value")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --checkpoint-every value `{}`", v))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".to_string());
                }
                ckpt.every = Some(n);
            }
            "--max-transitions" => {
                let v = value("a value")?;
                options.limits.max_transitions = v
                    .parse()
                    .map_err(|_| format!("bad --max-transitions value `{}`", v))?;
            }
            "--max-seconds" => {
                let v = value("a value")?;
                let bad = || format!("bad --max-seconds value `{}`", v);
                let secs: f64 = v.parse().map_err(|_| bad())?;
                let d = Duration::try_from_secs_f64(secs).ok().filter(|_| secs > 0.0);
                options.limits.max_wall_time = Some(d.ok_or_else(bad)?);
            }
            "--max-mem" => options.limits.max_state_bytes = Some(parse_bytes(value("a value")?)?),
            "--on-truncate" => {
                recovery = match value("a value")?.to_ascii_lowercase().as_str() {
                    "restart" => RecoveryPolicy::Restart,
                    "fail" => RecoveryPolicy::Fail,
                    other => return Err(format!("unknown truncation policy `{}`", other)),
                };
            }
            "--order" => {
                options.order = match value("a value")?.to_ascii_lowercase().as_str() {
                    "nr" | "none" => OrderOptions::none(),
                    "io" => OrderOptions::io(),
                    "ip" => OrderOptions::ip(),
                    "full" => OrderOptions::full(),
                    other => return Err(format!("unknown order mode `{}`", other)),
                };
            }
            "--disable-ip" => {
                options.disabled_ips.insert(value("a name")?.to_ascii_lowercase());
            }
            "--unobserved-ip" => {
                options.unobserved_ips.insert(value("a name")?.to_ascii_lowercase());
                options.policy = estelle_runtime::UndefinedPolicy::Propagate;
            }
            "--trace-out" => tflags.trace_out = Some(PathBuf::from(value("a path")?)),
            "--metrics-out" => tflags.metrics_out = Some(PathBuf::from(value("a path")?)),
            "--progress" => {
                tflags.progress = Some(parse_progress(value("SECS or jsonl[:SECS]")?)?);
            }
            "--profile" => tflags.profile = true,
            "--profile-dot" => tflags.profile_dot = Some(PathBuf::from(value("a path")?)),
            "--chaos-seed" => {
                let v = value("a value")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --chaos-seed value `{}`", v))?;
                chaos = Some(FaultPlan::random(n));
            }
            "--fault-plan" => {
                chaos = Some(FaultPlan::parse(value("a plan spec")?).map_err(|e| e.to_string())?);
            }
            "--flight-recorder" => tflags.recorder_off = !parse_recorder(value("on|off")?)?,
            "--dump-file" => tflags.dump_file = Some(PathBuf::from(value("a path")?)),
            "--listen" => {
                tflags.listen = Some(value("an address (host:port)")?.to_string());
            }
            "--initial-state-search" => options.initial_state_search = true,
            "--state-hashing" => options.state_hashing = true,
            "--workers" => {
                let v = value("a count (0 = one per core)")?;
                options.workers = v
                    .parse()
                    .map_err(|_| format!("bad --workers value `{}`", v))?;
            }
            _ if flag.starts_with("--") => {
                return Err(format!("unknown flag `{}`", a));
            }
            _ => positional.push(a.clone()),
        }
    }
    Ok(ParsedArgs {
        options,
        recovery,
        ckpt,
        tflags,
        positional,
        chaos,
    })
}

fn analyze(args: &[String], online: bool) -> Result<ExitCode, String> {
    let parsed = parse_options(args)?;
    let ParsedArgs {
        ckpt,
        tflags,
        positional,
        chaos,
        ..
    } = &parsed;
    if online {
        // On-line mode runs one worker unless `--workers` asks for more
        // (`--workers 0` = one per core); on two cores, two workers run
        // the TP0 on-line benchmark in 134.2 ms per analysis (median)
        // against one worker's 160.5 ms. `--checkpoint-file`/`--resume`
        // work on-line too (a stop before eof returns no checkpoint, so
        // it saves nothing); only the autosave rounds and the chaos flags
        // are static-only.
        if ckpt.every.is_some() {
            return Err("--checkpoint-every applies to static `analyze` only".to_string());
        }
        if chaos.is_some() {
            return Err(
                "--chaos-seed/--fault-plan apply to static `analyze` only".to_string(),
            );
        }
    }
    if let Some(plan) = chaos {
        // Echo the full plan so any chaos run is reproducible from its
        // log alone: `--fault-plan '<this line>'` re-arms it exactly.
        eprintln!("chaos: plan={}", plan.describe());
    }
    // With --resume the trace travels inside the checkpoint, so only the
    // specification is required (it is not serialized — the checkpoint is
    // validated against it on load instead).
    let (spec_path, trace_path) = match positional.as_slice() {
        [s, t] => (s, Some(t.as_str())),
        [s] if ckpt.resume.is_some() => (s, None),
        _ => return Err(usage()),
    };
    let source = read(spec_path)?;
    let analyzer = match Tango::generate(&source) {
        Ok(a) => a,
        Err(tango::TangoError::Build(estelle_runtime::BuildError::Frontend(e))) => {
            eprintln!("{}", e.render(&source));
            return Ok(ExitCode::from(3));
        }
        Err(e) => return Err(e.to_string()),
    };

    // `_server` must outlive the analysis: it serves /status, /metrics
    // and /profile until the final (done=true) push lands in finalize.
    let (mut tel, _server) = tflags.build(&analyzer)?;
    let (report, saved) = search(&analyzer, &parsed, online, trace_path, &mut tel)?;

    // Fold the cumulative counters into the metrics registry and flush
    // the event stream, then write the requested artifacts.
    tel.finalize(&report.stats);
    // The file a rerun can resume from: named only when this run stopped
    // with a checkpoint and a save to it succeeded.
    let stopped = report.checkpoint.is_some();
    let saved_to = ckpt.file.as_deref().filter(|_| saved && stopped);

    // Black box: any non-completed outcome gets a post-mortem dump. The
    // autosave path is named inside the dump so `dump-info` can point
    // straight at the file to resume from.
    if tel.recorder().is_some() && should_dump(&report) {
        let dump_path = tflags.dump_path();
        let dump = PostMortemDump::capture(&report, &tel, saved_to, chaos.as_ref());
        match dump.write_to(&dump_path) {
            Ok(()) => eprintln!(
                "note: post-mortem dump written to {}; inspect with \
                 `tango dump-info {}`",
                dump_path.display(),
                dump_path.display()
            ),
            Err(e) => eprintln!(
                "warning: post-mortem dump to {} failed: {}",
                dump_path.display(),
                e
            ),
        }
    }

    if let Some(path) = &tflags.metrics_out {
        let doc = tel.metrics().expect("metrics enabled by flag").to_json();
        std::fs::write(path, doc)
            .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
    }
    if let Some(path) = &tflags.profile_dot {
        let p = tel.profile().expect("profile enabled by flag");
        let dot = estelle_runtime::graph::to_dot_with_heat(
            &analyzer.machine.module,
            &p.heat_weights(),
            &p.heat_labels(),
            analyzer.machine.exec.name(),
        );
        std::fs::write(path, dot)
            .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
    }

    outln!("{}", report);
    if tflags.profile {
        let p = tel.profile().expect("profile enabled by flag");
        out!(
            "{}",
            p.render_table(&|i| analyzer.machine.transition_name(i).to_string())
        );
    }
    if let Some(w) = &report.witness {
        outln!("witness: {}", w.join(" -> "));
    }
    for e in report.spec_errors.iter().take(3) {
        outln!("note: branch abandoned with {}", e);
    }
    for fault in &report.source_faults {
        eprintln!("source fault: {}", fault);
    }
    for fault in &report.checkpoint_faults {
        eprintln!("checkpoint fault: {}", fault);
    }
    if stopped {
        match saved_to {
            Some(path) => eprintln!(
                "note: search stopped on a resource limit; checkpoint saved to {}; \
                 rerun with --resume {} and raised limits to continue",
                path.display(),
                path.display()
            ),
            None => eprintln!(
                "note: search stopped on a resource limit; no checkpoint was saved; \
                 rerun with higher --max-seconds/--max-mem limits to continue"
            ),
        }
    } else if online && matches!(report.verdict, Verdict::Inconclusive(_)) {
        eprintln!(
            "note: search stopped on a resource limit before the trace reached its \
             eof marker; no checkpoint was saved, because an on-line search resumes \
             only after eof (the rest of the trace is unknown); rerun with higher \
             limits to continue"
        );
    } else if parsed.options.initial_state_search
        && matches!(report.verdict, Verdict::Inconclusive(_))
    {
        // A static stop without a checkpoint is one inside a round of
        // the initial-state search after the default state's.
        eprintln!(
            "note: search stopped on a resource limit inside an initial-state search \
             round; no checkpoint was saved, because a resume cannot re-enter the \
             initial-state search; rerun with higher limits to continue"
        );
    }
    Ok(match report.verdict {
        Verdict::Valid => ExitCode::SUCCESS,
        Verdict::Invalid => ExitCode::from(1),
        _ => ExitCode::from(2),
    })
}

/// The analysis with durable checkpointing. The first report comes from
/// one of four starts: a resumed checkpoint (of either kind, under either
/// subcommand), a fresh on-line run, a chaos static run, or a plain
/// static one. Then one loop saves the search on every limit stop, and
/// with `--checkpoint-every` continues it in rounds: each round ends on a
/// *synthetic* transition cap, the frozen checkpoint is written
/// atomically, and the search resumes in-process — the same stop/resume
/// path a crashed process recovers through, so the totals are identical
/// either way. Returns the final report and whether any save succeeded.
fn search(
    analyzer: &TraceAnalyzer,
    args: &ParsedArgs,
    online: bool,
    trace_path: Option<&str>,
    tel: &mut Telemetry,
) -> Result<(AnalysisReport, bool), String> {
    let ckpt = &args.ckpt;
    let user_cap = args.options.limits.max_transitions;
    // Chaos bookkeeping lives outside the round loop: the search rounds
    // replace `report`, but source faults happen once (at drain) and
    // checkpoint faults accumulate across every autosave, so both fold
    // into whichever report turns out to be final.
    let chaos_plan = args.chaos.unwrap_or_default();
    let mut ckpt_attempts = 0;
    let mut counts = SearchStats::default();
    let mut source_faults: Vec<String> = Vec::new();
    let mut ck_faults: Vec<String> = Vec::new();
    let mut saved = false;
    // One search round: cap TE at the next autosave point, never above
    // the user's own limit.
    let round_options = |done: u64| {
        let mut o = args.options.clone();
        if let Some(every) = ckpt.every {
            o.limits.max_transitions = user_cap.min(done.saturating_add(every));
        }
        o
    };
    // The complete-trace rule searches on one worker (ROADMAP item 10):
    // refuse a worker count it would ignore.
    let one_worker = || match args.options.workers {
        1 => Ok(()),
        n => Err(format!(
            "--workers {} is refused: a complete-trace search (static `analyze`, \
             or the resume of its checkpoint) runs on one worker; to search on \
             several, run `tango online` on the trace",
            n
        )),
    };

    let mut report = match (&ckpt.resume, trace_path) {
        (Some(path), _) => {
            let cp = Checkpoint::read_from(path).map_err(|e| e.to_string())?;
            if cp.mode() == "dfs" {
                one_worker()?;
            }
            let done = cp.stats().transitions_executed;
            analyzer.resume_with(cp, &round_options(done), tel)
        }
        (None, None) => return Err(usage()),
        (None, Some(trace_path)) if online => {
            let mut on_status = |v: &Verdict| {
                // A failed write here resurfaces when the report is written.
                let _ = out(format_args!("interim: {}\n", v));
                true
            };
            let mut src = FollowFileSource::new(trace_path, Some(analyzer.module().clone()))
                .with_recovery(args.recovery);
            let report =
                analyzer.analyze_online_with(&mut src, &round_options(0), &mut on_status, tel);
            if src.skipped_lines() > 0 {
                eprintln!(
                    "warning: {} unparseable trace line(s) skipped",
                    src.skipped_lines()
                );
            }
            report
        }
        (None, Some(trace_path)) => {
            one_worker()?;
            let text = read(trace_path)?;
            let module = Some(analyzer.module().clone());
            match args.chaos.and_then(|p| p.build_source(&text, module)) {
                Some(mut src) => {
                    // Source site armed: the whole trace is read through
                    // the injector first, then the search analyzes what
                    // the degraded feed actually delivered.
                    let (trace, faults) =
                        tango::fault::drain_source(&mut src, CHAOS_MAX_POLLS)
                            .map_err(|e| e.to_string())?;
                    source_faults = faults;
                    counts.source_retries = src.fault_retries();
                    counts.source_giveups = src.fault_giveups();
                    analyzer.analyze_with(&trace, &round_options(0), tel)
                }
                None => analyzer.analyze_text_with(&text, &round_options(0), tel),
            }
        }
    }
    .map_err(|e| e.to_string())?;

    loop {
        // Autosave on every limit stop that froze a checkpoint, synthetic
        // or genuine.
        if let (Some(path), Some(cp)) = (&ckpt.file, report.checkpoint.as_deref()) {
            saved |= save_checkpoint(
                cp,
                path,
                &chaos_plan,
                &mut ckpt_attempts,
                tel,
                &mut counts,
                &mut ck_faults,
            );
        }
        // A synthetic stop is a transition-limit stop below the user's
        // own cap: continue the next round in-process. Anything else —
        // conclusive verdict, genuine limit — is the final report.
        let synthetic = ckpt.every.is_some()
            && matches!(
                report.verdict,
                Verdict::Inconclusive(InconclusiveReason::TransitionLimit)
            )
            && report.stats.transitions_executed < user_cap
            && report.checkpoint.is_some();
        if !synthetic {
            report.stats.source_retries += counts.source_retries;
            report.stats.source_giveups += counts.source_giveups;
            report.stats.checkpoint_retries += counts.checkpoint_retries;
            report.stats.checkpoint_giveups += counts.checkpoint_giveups;
            if !source_faults.is_empty() {
                report.source_faults = source_faults;
            }
            report.checkpoint_faults = ck_faults;
            return Ok((report, saved));
        }
        let cp = *report.checkpoint.take().expect("checked above");
        let done = cp.stats().transitions_executed;
        report = analyzer
            .resume_with(cp, &round_options(done), tel)
            .map_err(|e| e.to_string())?;
    }
}

/// Save `cp` to `path` atomically on the checkpoint retry schedule, with
/// the checkpoint rows of `plan` deciding each attempt's fate on a
/// chaos run (`attempts` counts them across saves). The retries
/// and a giveup are counted in `stats` and a failure's text is added to
/// `faults`: a failed save costs the durability of this save, not the
/// analysis. Returns whether the save succeeded.
fn save_checkpoint(
    cp: &Checkpoint,
    path: &Path,
    plan: &FaultPlan,
    attempts: &mut u64,
    tel: &mut Telemetry,
    stats: &mut SearchStats,
    faults: &mut Vec<String>,
) -> bool {
    let te = cp.stats().transitions_executed;
    let before = *attempts;
    let out = cp.write_to_with(path, plan, attempts);
    stats.checkpoint_retries += *attempts - before - 1;
    match out {
        Ok(()) => {
            tel.on_checkpoint(te, &path.display().to_string());
            true
        }
        Err(e) => {
            stats.checkpoint_giveups += 1;
            let fault = format!("save to {} at TE={} failed: {}", path.display(), te, e);
            eprintln!(
                "warning: checkpoint {}; a rerun cannot resume past the last good save",
                fault
            );
            faults.push(fault);
            false
        }
    }
}

/// Verify a checkpoint file and print its progress summary. Decodes only
/// the META section: no machine state, trace or search stack is loaded.
fn checkpoint_info(path: &str) -> Result<ExitCode, String> {
    let info = Checkpoint::read_info(std::path::Path::new(path))
        .map_err(|e| format!("{}: {}", path, e))?;
    outln!("checkpoint: {}", path);
    outln!("  format version: {}", info.version);
    outln!("  mode: {}", info.mode);
    if let Some(n) = info.workers_at_save {
        outln!("  workers at save: {}", n);
    }
    outln!("  depth: {}", info.depth);
    outln!("  pending frames: {}", info.pending_frames);
    outln!("  events: {}", info.events_total);
    outln!("  {}", info.stats);
    // The stats block carries the fault story; show it so a resumed
    // run's operator knows what the interrupted one survived.
    let s = &info.stats;
    outln!(
        "  source faults: retries={} giveups={}",
        s.source_retries, s.source_giveups
    );
    outln!(
        "  checkpoint faults: retries={} giveups={}",
        s.checkpoint_retries, s.checkpoint_giveups
    );
    outln!("  peak memory: resident={} bytes", s.peak_snapshot_bytes);
    Ok(ExitCode::SUCCESS)
}

/// Verify a post-mortem dump (magic, version, per-section and whole-file
/// checksums) and render it.
fn dump_info(args: &[String]) -> Result<ExitCode, String> {
    let mut jsonl = false;
    let mut path: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--jsonl" => jsonl = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{}` (dump-info takes --jsonl)", flag));
            }
            p => {
                if path.replace(p).is_some() {
                    return Err(usage());
                }
            }
        }
    }
    let path = path.ok_or_else(usage)?;
    let dump = PostMortemDump::read_from(std::path::Path::new(path))
        .map_err(|e| format!("{}: {}", path, e))?;
    if jsonl {
        out!("{}", dump.render_jsonl());
    } else {
        outln!("dump: {}", path);
        out!("{}", dump.render_human());
    }
    Ok(ExitCode::SUCCESS)
}

/// Minimal HTTP/1.1 GET over a plain `TcpStream` — enough to fetch the
/// `--listen` endpoints from `sh` scripts without curl. Prints the
/// response body; exits 0 only on a 200.
fn http_get(target: &str) -> Result<ExitCode, String> {
    use std::io::{Read, Write};
    let target = target.strip_prefix("http://").unwrap_or(target);
    let (addr, path) = match target.find('/') {
        Some(i) => (&target[..i], &target[i..]),
        None => (target, "/"),
    };
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {}: {}", addr, e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!(
                "GET {} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
                path, addr
            )
            .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {}: {}", addr, e))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("cannot read response from {}: {}", addr, e))?;
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {}", addr))?;
    let status_line = head.lines().next().unwrap_or("");
    let ok = status_line.split_whitespace().nth(1) == Some("200");
    if !ok {
        eprintln!("http-get: {}", status_line);
    }
    out!("{}", body);
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bytes_plain_and_suffixed() {
        assert_eq!(parse_bytes("128").unwrap(), 128);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("16m").unwrap(), 16 << 20);
        assert_eq!(parse_bytes("1g").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("2G").unwrap(), 2 << 30);
    }

    #[test]
    fn parse_bytes_accepts_trailing_b() {
        assert_eq!(parse_bytes("64mb").unwrap(), 64 << 20);
        assert_eq!(parse_bytes("10KB").unwrap(), 10 << 10);
        assert_eq!(parse_bytes("1gb").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("7b").unwrap(), 7);
    }

    #[test]
    fn parse_bytes_rejects_multiplier_overflow() {
        // usize::MAX with a `g` suffix used to wrap via unchecked
        // multiplication; it must be an error.
        assert!(parse_bytes(&format!("{}g", usize::MAX)).is_err());
        assert!(parse_bytes(&format!("{}k", usize::MAX)).is_err());
        assert!(parse_bytes(&format!("{}gb", usize::MAX / 2)).is_err());
        // The largest representable budgets still parse.
        assert_eq!(parse_bytes(&format!("{}", usize::MAX)).unwrap(), usize::MAX);
        assert_eq!(
            parse_bytes(&format!("{}k", usize::MAX >> 10)).unwrap(),
            (usize::MAX >> 10) << 10
        );
    }

    #[test]
    fn parse_bytes_rejects_garbage() {
        for bad in ["", "b", "kb", "12q", "k12", "-5k", "1.5m", "64 m"] {
            assert!(parse_bytes(bad).is_err(), "`{}` must not parse", bad);
        }
    }

    #[test]
    fn executor_flags_are_unknown() {
        // The VM is the only production executor: there is no flag to
        // pick another one or to feed it a profile. Copy-on-write is the
        // only snapshot policy, so there is no flag to turn it off.
        for args in [
            vec!["--exec=interp", "x"],
            vec!["--pgo-in", "x", "y"],
            vec!["--pgo-out", "x", "y"],
            vec!["--cow=off", "x"],
            vec!["--cow", "on", "x"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = parse_options(&args).unwrap_err();
            assert_eq!(e, format!("unknown flag `{}`", args[0]));
        }
    }

    #[test]
    fn flight_recorder_flag_both_spellings_and_default_on() {
        let tflags = parse_options(&["x".to_string()]).unwrap().tflags;
        assert!(!tflags.recorder_off, "the black box is on by default");

        let tflags =
            parse_options(&["--flight-recorder=off".to_string(), "x".to_string()]).unwrap().tflags;
        assert!(tflags.recorder_off);
        let tflags = parse_options(&[
            "--flight-recorder".to_string(),
            "on".to_string(),
            "x".to_string(),
        ])
        .unwrap()
        .tflags;
        assert!(!tflags.recorder_off);
        assert!(parse_options(&["--flight-recorder=maybe".to_string()]).is_err());
        assert!(parse_options(&["--flight-recorder".to_string()]).is_err());
    }

    #[test]
    fn dump_file_and_listen_flags_parse() {
        let args: Vec<String> = ["--dump-file=/tmp/d.tangodump", "--listen", "127.0.0.1:0", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let tflags = parse_options(&args).unwrap().tflags;
        assert_eq!(
            tflags.dump_path(),
            PathBuf::from("/tmp/d.tangodump"),
            "--dump-file overrides the default destination"
        );
        assert_eq!(tflags.listen.as_deref(), Some("127.0.0.1:0"));

        let tflags = parse_options(&["x".to_string()]).unwrap().tflags;
        assert_eq!(tflags.dump_path(), PathBuf::from(DEFAULT_DUMP_FILE));
        assert!(tflags.listen.is_none());
        assert!(parse_options(&["--dump-file".to_string()]).is_err());
        assert!(parse_options(&["--listen".to_string()]).is_err());
    }

    #[test]
    fn chaos_flags_parse_and_round_trip() {
        // --chaos-seed derives the same plan the library derives.
        let args: Vec<String> = ["--chaos-seed", "7", "x"].iter().map(|s| s.to_string()).collect();
        let chaos = parse_options(&args).unwrap().chaos;
        let plan = chaos.expect("plan armed");
        assert_eq!(plan, FaultPlan::random(7));

        // The echoed describe() line re-arms the identical plan through
        // --fault-plan: log line → exact reproduction.
        let spec = plan.describe();
        let chaos =
            parse_options(&[format!("--fault-plan={}", spec), "x".to_string()]).unwrap().chaos;
        assert_eq!(chaos.unwrap(), plan);

        let chaos = parse_options(&["x".to_string()]).unwrap().chaos;
        assert!(chaos.is_none(), "unarmed by default");
        assert!(parse_options(&["--chaos-seed".to_string()]).is_err());
        assert!(parse_options(&["--chaos-seed=pi".to_string()]).is_err());
        assert!(parse_options(&["--fault-plan=bogus.knob=1".to_string()]).is_err());
    }

    #[test]
    fn durations_out_of_range_are_bad_values() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for v in ["1e300", "inf", "NaN", "0", "-1"] {
            let e = parse_options(&args(&["--max-seconds", v, "x"])).unwrap_err();
            assert_eq!(e, format!("bad --max-seconds value `{}`", v));
        }
        for v in ["1e300", "jsonl:1e300", "-1", "jsonl:inf"] {
            let e = parse_options(&args(&["--progress", v, "x"])).unwrap_err();
            assert_eq!(
                e,
                format!("bad --progress value `{}` (expected SECS or jsonl[:SECS])", v)
            );
        }
        // The largest representable values still parse.
        let p = parse_options(&args(&["--max-seconds=1e19", "--progress=jsonl:1e19", "x"]));
        let p = p.unwrap();
        assert_eq!(p.options.limits.max_wall_time, Some(Duration::from_secs(10u64.pow(19))));
        assert_eq!(p.tflags.progress.map(|(_, d)| d), Some(Duration::from_secs(10u64.pow(19))));
    }

    #[test]
    fn every_value_flag_takes_an_inline_value_and_no_switch_does() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let p = parse_options(&args(&["--max-transitions=5", "--order=full", "x"])).unwrap();
        assert_eq!(p.options.limits.max_transitions, 5);
        assert_eq!(p.options.order, OrderOptions::full());
        assert_eq!(p.positional, ["x"]);
        let e = parse_options(&args(&["--max-transitions=five", "x"])).unwrap_err();
        assert_eq!(e, "bad --max-transitions value `five`");
        for switch in ["--profile", "--initial-state-search", "--state-hashing"] {
            let e = parse_options(&args(&[&format!("{}=1", switch), "x"])).unwrap_err();
            assert_eq!(e, format!("{} takes no value", switch));
        }
    }
}
