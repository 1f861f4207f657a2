//! The repository benchmark: spec-to-verdict metrics on the paper's
//! workloads, plus a traced per-layer run.
//!
//! ```sh
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-tp0-nr --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Each workload is one client in a closed
//! loop: it hands the library one analysis (trace text in, verdict out),
//! waits for the verdict, then sends the next, for `--seconds`. Inputs are
//! generated from `--seed` (see `inputs.rs`) and every analysis is checked
//! against its known answer. Options are what a CLI user gets by default:
//! `AnalysisOptions::default()` with the workload's order preset, and the
//! flight recorder on.
//!
//! `--trace 0` reports the end-to-end metrics, with times corrected for
//! the shared host's speed (see `speed.rs`); `--trace 1` runs an
//! untraced pass (recorder on and off, alternating) and a traced pass, and
//! reports the per-layer metrics with a layer table whose rows plus the
//! remainder sum to search wall time. The traced pass's spans are written
//! to `$CARGO_TARGET_DIR/perfbench-spans/` (default `perfbench/target`).
//!
//! Standard output lists host facts and every metric by name, unit and
//! sample count; its last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! when every analysis matched its known answer, 1 otherwise, 2 on a usage
//! error.

mod feed;
mod inputs;
mod layers;
mod report;
mod speed;

use feed::{OnePerPoll, PollClock};
use inputs::{Case, Counters, Engine, Workload};
use layers::{attribute, ClockSink, SinkState, Split};
use report::{median, Metric};
use speed::HostSpeed;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};
use tango::trace::ResolvedTrace;
use tango::{
    parse_trace, AnalysisOptions, AnalysisReport, Tango, Telemetry, TraceAnalyzer,
    DEFAULT_RING_CAPACITY,
};

const USAGE: &str =
    "usage: perfbench --workload <fig4-tp0-nr|fig3-lapd800|online-tp0-w1|online-tp0-w2> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is timed by repeating the build at least this often and for at
/// least this long, and taking the median: one build is under a
/// millisecond.
const SETUP_MIN_BUILDS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Builds between two host-speed readings are this short, so that the
/// set-up median rests on many readings.
const SETUP_BLOCK_S: f64 = 0.01;

/// Warm-up analyses before the timed loop, so that code and allocator
/// arenas are faulted in.
const WARMUP_OPS: usize = 2;

/// Share of a traced run spent on the untraced recorder on/off pass; the
/// rest is the traced pass.
const UNTRACED_SHARE: f64 = 0.4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{}`", value))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {}", e))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{}`", value))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{}` (0 or 1)", value)),
                }
            }
            _ => return Err(format!("unknown argument `{}`", flag)),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}\n{}", e, USAGE);
            std::process::exit(2);
        }
    };
    let correct = run(&args);
    std::process::exit(if correct { 0 } else { 1 });
}

/// The telemetry a CLI user gets by default: the flight recorder only.
fn cli_telemetry() -> Telemetry {
    Telemetry::off().with_recorder(DEFAULT_RING_CAPACITY)
}

/// One analysis, timed from trace text in to verdict out.
struct Op {
    start: Instant,
    events: usize,
    ms: f64,
    parse_s: f64,
    resolve_s: f64,
    search_s: f64,
    report: AnalysisReport,
}

/// `parse_trace` → `ResolvedTrace::resolve` → search. The on-line engine
/// resolves each event as its feed delivers it, inside the search.
fn run_op(
    analyzer: &TraceAnalyzer,
    text: &str,
    engine: Engine,
    options: &AnalysisOptions,
    tel: &mut Telemetry,
    polls: &Rc<PollClock>,
) -> Result<Op, String> {
    let t0 = Instant::now();
    let trace = parse_trace(text, Some(analyzer.module())).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let events = trace.len();
    let (t2, report) = match engine {
        Engine::Dfs => {
            let resolved =
                ResolvedTrace::resolve(&trace, analyzer.module()).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            (t2, analyzer.analyze_resolved_with(resolved, options, tel))
        }
        Engine::Mdfs(_) => {
            let mut feed = OnePerPoll::new(trace.events, polls.clone());
            (
                t1,
                analyzer.analyze_online_with(&mut feed, options, &mut |_| true, tel),
            )
        }
    };
    let t3 = Instant::now();
    Ok(Op {
        start: t0,
        events,
        ms: (t3 - t0).as_secs_f64() * 1e3,
        parse_s: (t1 - t0).as_secs_f64(),
        resolve_s: (t2 - t1).as_secs_f64(),
        search_s: (t3 - t2).as_secs_f64(),
        report: report.map_err(|e| e.to_string())?,
    })
}

struct Bench {
    workload: Workload,
    analyzer: TraceAnalyzer,
    cases: Vec<Case>,
    /// Counters of the first analysis of each case on the workload's own
    /// engine; later analyses must repeat them exactly.
    seen: Vec<Option<Counters>>,
    polls: Rc<PollClock>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Bench {
    fn options(&self, case: usize, engine: Engine) -> AnalysisOptions {
        let mut o = AnalysisOptions::with_order(self.cases[case].order);
        if let Engine::Mdfs(workers) = engine {
            o.workers = workers;
        }
        o
    }

    /// Analyze case `i` on `engine` and check the result against the
    /// known answer; `None` if the analysis failed.
    fn analyze(&mut self, i: usize, engine: Engine, tel: &mut Telemetry) -> Option<Op> {
        self.attempted += 1;
        let options = self.options(i, engine);
        let own = engine == self.workload.engine();
        let outcome = run_op(
            &self.analyzer,
            &self.cases[i].text,
            engine,
            &options,
            tel,
            &self.polls,
        )
        .and_then(|op| {
            let mut seen = self.seen[i];
            let got = Counters::of(&op.report.stats);
            self.cases[i]
                .expect
                .check(&op.report.verdict, got, &mut seen)?;
            if own {
                self.seen[i] = seen;
            }
            Ok(op)
        });
        match outcome {
            Ok(op) => Some(op),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures
                        .push(format!("{} on {:?}: {}", self.cases[i].label, engine, e));
                }
                None
            }
        }
    }

    /// The on-line workloads must give identical counters at one and two
    /// workers: analyze every case once on the other worker count and
    /// compare with this run's counters.
    fn cross_check_workers(&mut self) {
        let own = self.workload.engine();
        let other = match own {
            Engine::Dfs => return,
            Engine::Mdfs(1) => Engine::Mdfs(2),
            Engine::Mdfs(_) => Engine::Mdfs(1),
        };
        for i in 0..self.cases.len() {
            if self.seen[i].is_none() {
                self.analyze(i, own, &mut cli_telemetry());
            }
            self.analyze(i, other, &mut cli_telemetry());
        }
    }

    fn transitions(&self) -> usize {
        self.analyzer.machine.module.transition_count()
    }
}

/// Build the analyzer from spec text repeatedly; the per-build seconds,
/// raw and corrected for host speed.
fn time_setup(spec: &str) -> (Vec<f64>, Vec<f64>) {
    let mut builds = Vec::new();
    let mut speed = HostSpeed::start(SETUP_BLOCK_S);
    let start = Instant::now();
    while builds.len() < SETUP_MIN_BUILDS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let t0 = Instant::now();
        let analyzer = Tango::generate(spec).expect("the workload's specification builds");
        builds.push(t0.elapsed().as_secs_f64());
        speed.tick();
        std::hint::black_box(analyzer);
    }
    let (factors, _) = speed.finish();
    let corrected = builds.iter().zip(&factors).map(|(b, f)| b * f).collect();
    (builds, corrected)
}

/// The same build as a chain of public calls, one timer per step:
/// parse, sema, IR lowering, bytecode and dispatch index.
fn time_setup_chain(spec: &str) -> [Vec<f64>; 4] {
    let mut steps: [Vec<f64>; 4] = Default::default();
    let start = Instant::now();
    while steps[0].len() < SETUP_MIN_BUILDS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let t0 = Instant::now();
        let ast = estelle_frontend::parse_specification(spec).expect("spec parses");
        let t1 = Instant::now();
        let module = estelle_frontend::analyze_spec(&ast, estelle_frontend::SemaOptions::default())
            .expect("spec checks");
        let t2 = Instant::now();
        let compiled = estelle_runtime::compile(module).expect("spec lowers");
        let t3 = Instant::now();
        let analyzer = TraceAnalyzer::from_machine(estelle_runtime::Machine::new(compiled));
        let t4 = Instant::now();
        std::hint::black_box(analyzer);
        for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)]
            .into_iter()
            .enumerate()
        {
            steps[k].push((b - a).as_secs_f64());
        }
    }
    steps
}

fn run(args: &Args) -> bool {
    let w = args.workload;
    let root = Path::new(".");
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "host: nproc={} profile={} commit={} source={}",
        report::nproc(),
        report::build_profile(),
        report::commit(root).unwrap_or_else(|| "unknown".into()),
        report::source_digest(root)
    );

    let spec = w.spec_text();
    let setup = time_setup(&spec);
    let analyzer = Tango::generate(&spec).expect("the workload's specification builds");
    let cases = inputs::cases(w, args.seed, &analyzer);
    let known = cases.iter().filter(|c| c.expect.counters.is_some()).count();
    println!(
        "inputs: {} traces, engine {:?}, one client in a closed loop; {} with counters known in advance",
        cases.len(),
        w.engine(),
        known
    );
    if w == Workload::Fig4Tp0Nr {
        println!(
            "known answers: mutated L.dt_req must read the paper's {:?}; mutated U.tdatind \
             (the class of the fig4_tp0 binary's seed 13) must read {:?}",
            inputs::PAPER_FIG4_NR,
            inputs::FIG4_NR_TDATIND
        );
    }
    let mut b = Bench {
        workload: w,
        analyzer,
        seen: vec![None; cases.len()],
        cases,
        polls: Rc::new(PollClock::default()),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for i in 0..WARMUP_OPS.min(b.cases.len()) {
        b.analyze(i, w.engine(), &mut cli_telemetry());
    }

    let metrics = if args.trace {
        traced_run(&mut b, args)
    } else {
        end_to_end(&mut b, args.seconds, &setup)
    };
    b.cross_check_workers();

    let correct = b.failed == 0 && b.attempted > 0;
    report::print_metrics(&metrics);
    println!(
        "metric {:<32} {:>16} {:<6} n={}  ({} of {} analyses failed)",
        "failure_ratio",
        format!("{:.6}", b.failed as f64 / b.attempted.max(1) as f64),
        "ratio",
        b.attempted,
        b.failed,
        b.attempted
    );
    for f in &b.failures {
        println!("failure: {}", f);
    }
    println!(
        "{}",
        report::result_json(correct, b.attempted, b.failed, &metrics)
    );
    correct
}

/// The untraced closed loop and the end-to-end metrics. Times are
/// corrected for host speed (see `speed.rs`); the raw values are printed
/// beside them.
fn end_to_end(b: &mut Bench, seconds: f64, setup: &(Vec<f64>, Vec<f64>)) -> Vec<Metric> {
    let engine = b.workload.engine();
    // (case, analysis seconds, search seconds, TE) of each analysis.
    let mut ops: Vec<(usize, f64, f64, u64)> = Vec::new();
    let mut peak_bytes = 0usize;
    let mut speed = HostSpeed::start(speed::BLOCK_S);
    let start = Instant::now();
    let mut next = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let case = next % b.cases.len();
        next += 1;
        if let Some(op) = b.analyze(case, engine, &mut cli_telemetry()) {
            let te = op.report.stats.transitions_executed;
            ops.push((case, op.ms / 1e3, op.search_s, te));
            peak_bytes = peak_bytes.max(op.report.stats.peak_snapshot_bytes);
            speed.tick();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let (factors, kernel_s) = speed.finish();
    let n = ops.len() as u64;
    let mut ms = Vec::with_capacity(ops.len());
    let mut by_case = vec![Vec::new(); b.cases.len()];
    let mut raw_by_case = vec![Vec::new(); b.cases.len()];
    let (mut te, mut op_s, mut search_s, mut raw_search_s) = (0u64, 0.0, 0.0, 0.0);
    for (&(case, secs, search, t), f) in ops.iter().zip(&factors) {
        ms.push(secs * f * 1e3);
        by_case[case].push(secs * f * 1e3);
        raw_by_case[case].push(secs * 1e3);
        te += t;
        op_s += secs * f;
        search_s += search * f;
        raw_search_s += search;
    }
    let (p, tail_ms, beyond) = report::tail(&ms, b.workload.tail_percentile());
    let rss = report::peak_rss_mb().unwrap_or(0.0);
    // The median over inputs of each input's median time. Over all
    // samples, a pool of inputs of very different cost (fig3's DI 5 to
    // 100) puts the median on the boundary between two inputs, where the
    // input the loop happened to stop on decides the value.
    let per_input = |v: &[Vec<f64>]| -> Vec<f64> {
        v.iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect()
    };
    let (p50, raw_p50) = (per_input(&by_case), per_input(&raw_by_case));
    let (setup_raw, setup_corrected) = setup;
    println!(
        "host speed: reference kernel {:.3} ms median over {} readings (nominal {:.3} ms, \
         min {:.3}, max {:.3})",
        median(&kernel_s) * 1e3,
        kernel_s.len(),
        speed::NOMINAL_S * 1e3,
        kernel_s.iter().cloned().fold(f64::INFINITY, f64::min) * 1e3,
        kernel_s.iter().cloned().fold(0.0, f64::max) * 1e3,
    );
    println!(
        "raw: analysis_ms_p50 {:.6} ms, te_per_s {:.1}, setup_s {:.9} s; \
         {} analyses in {:.3} s of wall time",
        median(&raw_p50),
        te as f64 / raw_search_s.max(f64::MIN_POSITIVE),
        median(setup_raw),
        n,
        wall
    );
    vec![
        Metric::new("analysis_ms_p50", median(&p50), "ms", n).note(format!(
            "median over {} inputs of each input's median",
            p50.len()
        )),
        Metric::new("analysis_ms_tail", tail_ms, "ms", n)
            .note(format!("p{} with {} samples beyond", p, beyond)),
        Metric::new(
            "analyses_per_s",
            n as f64 / op_s.max(f64::MIN_POSITIVE),
            "1/s",
            n,
        )
        .note(format!("{} analyses in {:.3} s of analysis time", n, op_s)),
        Metric::new(
            "te_per_s",
            te as f64 / search_s.max(f64::MIN_POSITIVE),
            "1/s",
            n,
        )
        .note(format!("{} TE in {:.3} s of search", te, search_s)),
        Metric::new(
            "setup_s",
            median(setup_corrected),
            "s",
            setup_corrected.len() as u64,
        )
        .note("median of repeated spec-text-to-analyzer builds"),
        Metric::new("peak_snapshot_bytes", peak_bytes as f64, "bytes", n)
            .note("highest per-analysis snapshot high-water mark"),
        Metric::new("peak_rss_mb", rss, "MB", 1).note("VmHWM of this process"),
    ]
}

/// Per-analysis layer quantities of the traced pass, summed over its
/// analyses.
#[derive(Default)]
struct Layers {
    ops: f64,
    parse_s: f64,
    resolve_s: f64,
    events: f64,
    wall: f64,
    /// The search wall time laid out by [`attribute`]: the [`ROWS`]
    /// followed by the remainder.
    rows: [f64; ROWS.len() + 1],
    generate_s: f64,
    generate_n: f64,
    fire_s: f64,
    fire_n: f64,
    fire_ok: f64,
    save_n: f64,
    restore_n: f64,
    te: f64,
    intern_hits: f64,
    fanout_sum: f64,
    fanout_samples: f64,
    busy: f64,
    idle: f64,
    steal: f64,
    coord: f64,
    outside: f64,
    worker_wall: f64,
    steals: f64,
    steal_failures: f64,
    pg_nodes: f64,
    polls: f64,
    deliveries: f64,
    poll_s: f64,
    telemetry_events: f64,
}

const ROWS: [&str; 7] = [
    "search.generate",
    "search.fire",
    "search.save",
    "search.restore",
    "source.poll",
    "mdfs.coord",
    "search.outside_engine",
];

impl Layers {
    /// Fold one traced analysis in.
    fn add(&mut self, engine: Engine, op: &Op, tel: &Telemetry, sink: &SinkState, polls: [f64; 3]) {
        let stats = &op.report.stats;
        let m = tel.metrics().expect("the traced pass enables metrics");
        let (gen_s, gen_n) = m
            .histogram("search.generate_latency_us")
            .map_or((0.0, 0.0), |h| (h.sum() / 1e6, h.count() as f64));
        let profile = tel.profile().expect("the traced pass enables the profile");
        let (mut fire_s, mut fire_n, mut fire_ok) = (0.0, 0.0, 0.0);
        for e in profile.entries() {
            fire_s += e.nanos as f64 / 1e9;
            fire_n += e.attempts() as f64;
            fire_ok += e.fires as f64;
        }
        let workers = match engine {
            Engine::Dfs => 1,
            Engine::Mdfs(n) => n,
        };
        let gauge = |what: &str| -> Vec<f64> {
            (0..workers)
                .map(|i| {
                    m.gauge(&format!("mdfs.worker{}.{}_seconds", i, what))
                        .unwrap_or(0.0)
                })
                .collect()
        };
        // The static DFS is one worker, busy for the whole engine run.
        let busy = match engine {
            Engine::Dfs => vec![stats.wall_time.as_secs_f64()],
            Engine::Mdfs(_) => gauge("busy"),
        };
        let busy_sum: f64 = busy.iter().sum();
        let busiest = busy.iter().cloned().fold(0.0, f64::max);
        // By the engine's own clock: time its busiest worker was not busy
        // (barriers, deal, replay, idle polling) ...
        let engine_wall = stats.wall_time.as_secs_f64();
        let coord = (engine_wall - busiest).max(0.0);
        // ... and around it: building the search before the clock starts
        // and dropping it after the clock stops.
        let outside = (op.search_s - engine_wall).max(0.0);
        let [n_polls, deliveries, poll_s] = polls;
        let split = if workers == 1 {
            sink.intervals
                .split(gen_s / gen_n.max(1.0), fire_s / fire_n.max(1.0))
        } else {
            // The parallel engine buffers each worker's events and replays
            // them after the burst, so event intervals say nothing about
            // the work; scale the measured Generate and Fire time to the
            // busiest worker's share instead, and leave Save and Restore
            // to the remainder.
            let k = if busy_sum > 0.0 {
                busiest / busy_sum
            } else {
                0.0
            };
            Split {
                generate: gen_s * k,
                fire: fire_s * k,
                save: 0.0,
                restore: 0.0,
            }
        };
        let (rows, rest) = attribute(
            op.search_s,
            &[
                split.generate,
                split.fire,
                split.save,
                split.restore,
                poll_s,
                coord,
                outside,
            ],
        );
        for (acc, v) in self.rows.iter_mut().zip(rows.iter().chain([rest].iter())) {
            *acc += v;
        }
        self.ops += 1.0;
        self.parse_s += op.parse_s;
        self.resolve_s += op.resolve_s;
        self.wall += op.search_s;
        self.generate_s += gen_s;
        self.generate_n += gen_n;
        self.fire_s += fire_s;
        self.fire_n += fire_n;
        self.fire_ok += fire_ok;
        self.save_n += stats.saves as f64;
        self.restore_n += stats.restores as f64;
        self.te += stats.transitions_executed as f64;
        self.intern_hits += stats.intern_hits as f64;
        self.fanout_sum += stats.fanout_sum as f64;
        self.fanout_samples += stats.fanout_samples as f64;
        self.busy += busy_sum;
        if engine != Engine::Dfs {
            self.idle += gauge("idle").iter().sum::<f64>();
            self.steal += gauge("steal").iter().sum::<f64>();
        }
        self.coord += coord;
        self.outside += outside;
        self.worker_wall += op.search_s * workers as f64;
        self.steals += stats.steals as f64;
        self.steal_failures += stats.steal_failures as f64;
        self.pg_nodes += stats.pg_nodes as f64;
        self.polls += n_polls;
        self.deliveries += deliveries;
        self.poll_s += poll_s;
        self.telemetry_events += sink.events as f64;
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Where the traced pass writes its spans.
fn spans_path(w: Workload, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", w.name(), seed))
}

/// The traced run: an untraced pass alternating the recorder on and off,
/// then a traced pass; the per-layer metrics.
fn traced_run(b: &mut Bench, args: &Args) -> Vec<Metric> {
    let engine = b.workload.engine();
    let run_start = Instant::now();
    let chain = time_setup_chain(&b.workload.spec_text());

    // Untraced: recorder on and off on the same inputs, alternating.
    let mut untraced_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let (mut on, mut off, mut pairs) = ((0u64, 0.0), (0u64, 0.0), 0u64);
    let t = Instant::now();
    let mut next = 0;
    while t.elapsed().as_secs_f64() < args.seconds * UNTRACED_SHARE || next < b.cases.len() {
        let case = next % b.cases.len();
        next += 1;
        if let Some(op) = b.analyze(case, engine, &mut cli_telemetry()) {
            untraced_ms.entry(case).or_default().push(op.ms);
            on.0 += op.report.stats.transitions_executed;
            on.1 += op.search_s;
        }
        if let Some(op) = b.analyze(case, engine, &mut Telemetry::off()) {
            off.0 += op.report.stats.transitions_executed;
            off.1 += op.search_s;
            pairs += 1;
        }
    }

    // Traced: a timestamping sink, the metrics registry and the profile.
    let mut layers = Layers::default();
    let mut traced_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut spans = String::new();
    let t = Instant::now();
    let mut next = 0;
    while t.elapsed().as_secs_f64() < args.seconds * (1.0 - UNTRACED_SHARE) || next < b.cases.len()
    {
        let case = next % b.cases.len();
        next += 1;
        let sink = Rc::new(RefCell::new(SinkState::default()));
        let before = (
            b.polls.polls.get(),
            b.polls.deliveries.get(),
            b.polls.total.get(),
        );
        b.polls.take_pending();
        let mut tel = cli_telemetry()
            .with_sink(Box::new(ClockSink::new(sink.clone(), b.polls.clone())))
            .with_metrics()
            .with_profile(b.transitions());
        let Some(op) = b.analyze(case, engine, &mut tel) else {
            continue;
        };
        let polls = [
            (b.polls.polls.get() - before.0) as f64,
            (b.polls.deliveries.get() - before.1) as f64,
            (b.polls.total.get() - before.2).as_secs_f64(),
        ];
        layers.add(engine, &op, &tel, &sink.borrow(), polls);
        traced_ms.entry(case).or_default().push(op.ms);
        layers.events += op.events as f64;
        // The on-line engine resolves inside the search; time the same
        // resolution on its own so every workload reports it.
        if engine != Engine::Dfs {
            let trace = parse_trace(&b.cases[case].text, Some(b.analyzer.module()))
                .expect("trace text parsed a moment ago");
            let r0 = Instant::now();
            let resolved = ResolvedTrace::resolve(&trace, b.analyzer.module());
            layers.resolve_s += r0.elapsed().as_secs_f64();
            std::hint::black_box(resolved.is_ok());
        }
        let rel = |at: Instant| at.duration_since(run_start).as_nanos();
        let op_id = layers.ops as u64;
        let mut at = op.start;
        let _ = writeln!(
            spans,
            "{{\"op\":{},\"case\":{},\"span\":\"op\",\"parent\":null,\"start_ns\":{},\"end_ns\":{}}}",
            op_id,
            case,
            rel(at),
            rel(at + Duration::from_secs_f64(op.ms / 1e3))
        );
        for (name, secs) in [
            ("trace.parse", op.parse_s),
            ("trace.resolve", op.resolve_s),
            ("search", op.search_s),
        ] {
            let end = at + Duration::from_secs_f64(secs);
            let _ = writeln!(
                spans,
                "{{\"op\":{},\"case\":{},\"span\":\"{}\",\"parent\":\"op\",\"start_ns\":{},\"end_ns\":{}}}",
                op_id,
                case,
                name,
                rel(at),
                rel(end)
            );
            at = end;
        }
    }
    let path = spans_path(b.workload, args.seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(&path, &spans));
    match written {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {}",
            path.display(),
            e
        ),
    }

    // Tracing overhead: traced against untraced on the same inputs.
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let (mut traced, mut untraced, mut matched) = (0.0, 0.0, 0.0);
    for (case, ms) in &traced_ms {
        if let Some(u) = untraced_ms.get(case) {
            traced += mean(ms);
            untraced += mean(u);
            matched += 1.0;
        }
    }
    let overhead = ratio(traced, untraced);
    let recorder_cost = ratio(ratio(off.0 as f64, off.1), ratio(on.0 as f64, on.1));

    print_layer_table(
        b,
        &layers,
        overhead,
        ratio(traced, matched),
        ratio(untraced, matched),
    );

    let l = &layers;
    let n = l.ops.max(1.0);
    let per_op = |x: f64| x / n;
    let samples = l.ops as u64;
    let setup_n = chain[0].len() as u64;
    vec![
        Metric::new("frontend.parse_s", median(&chain[0]), "s", setup_n),
        Metric::new("frontend.sema_s", median(&chain[1]), "s", setup_n),
        Metric::new("lower.ir_s", median(&chain[2]), "s", setup_n),
        Metric::new("lower.bytecode_s", median(&chain[3]), "s", setup_n),
        Metric::new("lower.transitions", b.transitions() as f64, "count", 1),
        Metric::new("trace.parse_s", per_op(l.parse_s), "s", samples),
        Metric::new("trace.resolve_s", per_op(l.resolve_s), "s", samples),
        Metric::new("trace.events", per_op(l.events), "count", samples),
        Metric::new("search.wall_s", per_op(l.wall), "s", samples),
        Metric::new("search.generate_s", per_op(l.rows[0]), "s", samples),
        Metric::new(
            "search.generate_count",
            per_op(l.generate_n),
            "count",
            samples,
        ),
        Metric::new(
            "search.generate_us_mean",
            ratio(l.generate_s * 1e6, l.generate_n),
            "us",
            samples,
        ),
        Metric::new("search.fire_s", per_op(l.rows[1]), "s", samples),
        Metric::new("search.fire_count", per_op(l.fire_n), "count", samples),
        Metric::new(
            "search.fire_useful_ratio",
            ratio(l.fire_ok, l.fire_n),
            "ratio",
            samples,
        ),
        Metric::new(
            "search.save_share",
            ratio(l.rows[2], l.wall),
            "ratio",
            samples,
        ),
        Metric::new("search.save_count", per_op(l.save_n), "count", samples),
        Metric::new(
            "search.restore_share",
            ratio(l.rows[3], l.wall),
            "ratio",
            samples,
        ),
        Metric::new(
            "search.restore_count",
            per_op(l.restore_n),
            "count",
            samples,
        ),
        Metric::new(
            "search.backtrack_ratio",
            ratio(l.restore_n, l.te),
            "ratio",
            samples,
        ),
        Metric::new(
            "store.intern_hit_ratio",
            ratio(l.intern_hits, l.save_n),
            "ratio",
            samples,
        ),
        Metric::new(
            "search.fanout_avg",
            ratio(l.fanout_sum, l.fanout_samples),
            "count",
            samples,
        ),
        Metric::new("search.outside_s", per_op(l.outside), "s", samples),
        Metric::new("search.other_s", per_op(l.rows[ROWS.len()]), "s", samples),
        Metric::new("mdfs.busy_s", per_op(l.busy), "s", samples),
        Metric::new(
            "mdfs.idle_share",
            ratio(l.idle, l.worker_wall),
            "ratio",
            samples,
        ),
        Metric::new(
            "mdfs.steal_share",
            ratio(l.steal, l.worker_wall),
            "ratio",
            samples,
        ),
        Metric::new("mdfs.coord_share", ratio(l.coord, l.wall), "ratio", samples),
        Metric::new(
            "mdfs.utilization",
            ratio(l.busy, l.worker_wall),
            "ratio",
            samples,
        ),
        Metric::new("mdfs.steals", per_op(l.steals), "count", samples),
        Metric::new(
            "mdfs.steal_fail_ratio",
            ratio(l.steal_failures, l.steals + l.steal_failures),
            "ratio",
            samples,
        ),
        Metric::new("mdfs.pg_nodes", per_op(l.pg_nodes), "count", samples),
        Metric::new("mdfs.bursts", per_op(l.deliveries), "count", samples),
        Metric::new("source.polls", per_op(l.polls), "count", samples),
        Metric::new(
            "source.poll_share",
            ratio(l.poll_s, l.wall),
            "ratio",
            samples,
        ),
        Metric::new(
            "telemetry.events",
            per_op(l.telemetry_events),
            "count",
            samples,
        ),
        Metric::new(
            "telemetry.recorder_cost_ratio",
            recorder_cost,
            "ratio",
            pairs,
        )
        .note("te_per_s recorder off / on, alternating untraced analyses"),
        Metric::new(
            "telemetry.tracing_overhead_ratio",
            overhead,
            "ratio",
            samples,
        )
        .note("traced / untraced ms per analysis, same inputs"),
    ]
}

fn print_layer_table(b: &Bench, l: &Layers, overhead: f64, traced: f64, untraced: f64) {
    let n = l.ops.max(1.0);
    println!(
        "per-layer table: {} traced analyses, seconds per analysis; rows + remainder = search wall time",
        l.ops
    );
    let names = ROWS.iter().copied().chain(["search.other (remainder)"]);
    for (name, secs) in names.zip(l.rows.iter()) {
        println!(
            "  {:<26} {:>12.6} s {:>7.2}%",
            name,
            secs / n,
            100.0 * ratio(*secs, l.wall)
        );
    }
    let sum: f64 = l.rows.iter().sum();
    println!(
        "  {:<26} {:>12.6} s {:>7.2}%  (search wall {:.6} s)",
        "sum",
        sum / n,
        100.0 * ratio(sum, l.wall),
        l.wall / n
    );
    if let Engine::Mdfs(workers) = b.workload.engine() {
        println!(
            "  mdfs workers={}: busy {:.6} s, idle {:.6} s, steal {:.6} s per analysis (sums over workers)",
            workers,
            l.busy / n,
            l.idle / n,
            l.steal / n
        );
        if workers > 1 {
            println!(
                "  (events are replayed after each burst: Generate and Fire are scaled to the \
                 busiest worker's share; Save and Restore stay in the remainder)"
            );
        }
    }
    println!(
        "  outside search: trace.parse {:.6} s, trace.resolve {:.6} s per analysis",
        l.parse_s / n,
        l.resolve_s / n
    );
    println!(
        "tracing overhead: {:.3} ms traced vs {:.3} ms untraced per analysis on the same inputs (x{:.3})",
        traced,
        untraced,
        overhead
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let a = args("--workload fig3-lapd800 --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Fig3Lapd800);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload fig4-tp0-nr").is_err(), "seed is required");
        assert!(args("--workload fig4-tp0-nr --seed 1 --seconds 0").is_err());
        assert!(args("--workload fig4-tp0-nr --seed 1 --trace 2").is_err());
        assert!(args("--workload fig4-tp0-nr --seed").is_err());
    }
}
