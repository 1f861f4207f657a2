//! The paper's evaluation, computed: every table of EXPERIMENTS.md.
//!
//! [`experiments`] runs each experiment and returns its tables in the
//! document's own markdown layout. The `experiments` binary prints them
//! and checks the timing claims; `tests/experiments_doc.rs` compares
//! every counter cell with EXPERIMENTS.md, so the document cannot drift
//! from the code. Time cells are printed but never compared.

use estelle_runtime::ExecMode;
use protocols::synthetic::SyntheticSpec;
use protocols::{ip3, lapd, tp0};
use std::fmt;
use std::time::{Duration, Instant};
use tango::{
    AnalysisOptions, AnalysisReport, ChannelSource, ChoicePolicy, Event, Feed, InconclusiveReason,
    OrderOptions, StaticSource, Trace, TraceAnalyzer, Verdict,
};

pub mod json;

/// Interleaving seed of every invalid TP0 trace. At 3+3 its last data
/// output is an `L.dt_req`, the class whose NR search reproduces the
/// paper's Figure 4 counters exactly (mutating the last `U.tdatind`
/// instead grows a different tree).
const SEED: u64 = 20;

/// Transition cap of the invalid TP0 searches: above the 9.8M of NR at
/// 4+4, below what plain NR needs at 5+5.
const CAP: u64 = 20_000_000;

/// One table cell.
pub enum Cell {
    /// A deterministic value: a counter, a verdict, a parameter. The pin
    /// test compares it with EXPERIMENTS.md.
    Count(String),
    /// A measured time or rate. Printed, never compared.
    Time(String),
}

impl Cell {
    fn text(&self) -> &str {
        match self {
            Cell::Count(s) | Cell::Time(s) => s,
        }
    }
}

/// One EXPERIMENTS.md table. In the document it follows the line
/// `<!-- experiments: NAME -->`.
pub struct Table {
    pub name: &'static str,
    pub header: Vec<&'static str>,
    /// `None` for a row whose search is too slow for a debug build.
    pub rows: Vec<Option<Vec<Cell>>>,
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "<!-- experiments: {} -->", self.name)?;
        writeln!(f, "| {} |", self.header.join(" | "))?;
        writeln!(f, "|{}", "---|".repeat(self.header.len()))?;
        for row in &self.rows {
            match row {
                Some(cells) => {
                    let cells: Vec<&str> = cells.iter().map(Cell::text).collect();
                    writeln!(f, "| {} |", cells.join(" | "))?
                }
                None => writeln!(f, "| (not run in a debug build) |")?,
            }
        }
        Ok(())
    }
}

/// Every table, and the two measurements the `experiments` binary gates.
pub struct Experiments {
    pub tables: Vec<Table>,
    /// The VM's transitions/sec over the tree walker's on LAPD-800.
    pub lapd800_speedup: f64,
    /// Wall seconds of the on-line MDFS run at each worker count.
    pub mdfs_wall: Vec<(usize, f64)>,
}

/// Run every experiment. Without `full` the searches of a million
/// transitions or more are skipped (their rows are `None`) and the
/// throughput columns come from one run instead of a timed loop, so a
/// debug build finishes in seconds.
pub fn experiments(full: bool) -> Experiments {
    let tp0 = tp0::analyzer();
    // The NR searches over the invalid 3+3 and 4+4 traces each feed
    // several tables; they run once.
    let nr3 = analyze(&tp0, &tp0::invalid_trace(3, 3, SEED), OrderOptions::none(), false);
    let nr4 = full.then(|| analyze(&tp0, &tp0::invalid_trace(4, 4, SEED), OrderOptions::none(), false));
    let (sweep, lapd800_speedup) = spec_size_sweep(full);
    let (mdfs, mdfs_wall) = mdfs_workers(full);
    Experiments {
        tables: vec![
            paper_fig4(),
            fig4(&tp0, &nr3),
            fig4_longer(&tp0),
            fig3(),
            sweep,
            tp0_valid(),
            fig2(),
            ablation_hashing(&tp0, &nr3, nr4.as_ref()),
            heap_cost(&nr3, nr4.as_ref()),
            mdfs,
            spill_ladder(&tp0, nr4.as_ref()),
        ],
        lapd800_speedup,
        mdfs_wall,
    }
}

fn count(x: impl ToString) -> Cell {
    Cell::Count(x.to_string())
}

fn seconds(r: &AnalysisReport) -> Cell {
    Cell::Time(format!("{:.3}", r.stats.wall_time.as_secs_f64()))
}

fn te_ge_re_sa(r: &AnalysisReport) -> [Cell; 4] {
    r.stats.counters().map(count)
}

fn analyze(a: &TraceAnalyzer, trace: &Trace, order: OrderOptions, hashing: bool) -> AnalysisReport {
    let mut options = AnalysisOptions::with_order(order);
    options.state_hashing = hashing;
    options.limits.max_transitions = CAP;
    a.analyze(trace, &options).expect("analysis runs")
}

/// The four presets in the order the paper's Figure 3 lists them.
fn order_presets() -> [(OrderOptions, &'static str); 4] {
    [
        (OrderOptions::none(), "NR"),
        (OrderOptions::io(), "IO"),
        (OrderOptions::ip(), "IP"),
        (OrderOptions::full(), "FULL"),
    ]
}

/// Figure 4 as published (depth 13, SUN 4 seconds).
fn paper_fig4() -> Table {
    let rows = [
        ("None", "1469.5", [88329, 36687, 51642, 34440]),
        ("IO+OI", "1.3", [173, 104, 69, 69]),
        ("IP", "6.7", [984, 495, 489, 428]),
        ("Full", "0.9", [173, 104, 69, 69]),
    ];
    Table {
        name: "fig4-paper",
        header: vec!["RCM", "CPUT (s)", "TE", "GE", "RE", "SA"],
        rows: rows
            .into_iter()
            .map(|(mode, cput, counters)| {
                Some(
                    [count(mode), count(cput)]
                        .into_iter()
                        .chain(counters.map(count))
                        .collect(),
                )
            })
            .collect(),
    }
}

/// Figure 4: the invalid 3+3 trace under the four checking modes, with
/// §4.2's average fanout.
fn fig4(tp0: &TraceAnalyzer, nr3: &AnalysisReport) -> Table {
    let rows = order_presets()
        .into_iter()
        .map(|(order, label)| {
            let other;
            let r = if label == "NR" {
                nr3
            } else {
                other = analyze(tp0, &tp0::invalid_trace(3, 3, SEED), order, false);
                &other
            };
            let mut row = vec![count(label), seconds(r)];
            row.extend(te_ge_re_sa(r));
            row.push(count(format!("{:.2}", r.stats.average_fanout())));
            Some(row)
        })
        .collect();
    Table {
        name: "fig4",
        header: vec!["RCM", "CPUT (s)", "TE", "GE", "RE", "SA", "fanout"],
        rows,
    }
}

/// Figure 4's longer invalid traces under FULL, next to the paper's.
fn fig4_longer(tp0: &TraceAnalyzer) -> Table {
    let rows = [(3, 13, 173), (5, 21, 4021), (7, 29, 122202)]
        .into_iter()
        .map(|(n, depth, paper_te)| {
            let r = analyze(tp0, &tp0::invalid_trace(n, n, SEED), OrderOptions::full(), false);
            Some(vec![
                count(format!("{n}+{n}")),
                count(depth),
                count(paper_te),
                count(r.stats.transitions_executed),
            ])
        })
        .collect();
    Table {
        name: "fig4-longer",
        header: vec!["data", "paper depth", "paper TE", "measured TE"],
        rows,
    }
}

/// One row per `(key, trace)`: the key, then TE / RE under each
/// checking mode.
fn te_re_by_mode(
    name: &'static str,
    key: &'static str,
    analyzer: &TraceAnalyzer,
    traces: impl Iterator<Item = (String, Trace)>,
) -> Table {
    let rows = traces
        .map(|(k, trace)| {
            let mut row = vec![count(k)];
            for (order, _) in order_presets() {
                let r = analyze(analyzer, &trace, order, false);
                row.push(count(format!(
                    "{} / {}",
                    r.stats.transitions_executed, r.stats.restores
                )));
            }
            Some(row)
        })
        .collect();
    let header = vec![
        key,
        "NR: TE / RE",
        "IO: TE / RE",
        "IP: TE / RE",
        "FULL: TE / RE",
    ];
    Table { name, header, rows }
}

/// Figure 3: valid LAPD traces, DI data interactions each way (the peer
/// sends I-frames too, so the piggybacked-ack nondeterminism is live).
/// One seed per DI plays the role of the paper's seven runs of the
/// generated implementation.
fn fig3() -> Table {
    let traces = [5usize, 10, 15, 25, 50, 75, 100]
        .into_iter()
        .map(|di| (di.to_string(), lapd::valid_trace(di, di, di as u64)));
    te_re_by_mode("fig3", "DI", &lapd::analyzer(), traces)
}

/// The analysis's report and its transitions per second under NR: the
/// fastest of three passes that each loop the analysis for at least
/// 200 ms, or one run without `full`. Scheduler noise only ever slows a
/// run down, and the loop keeps sub-millisecond rows above timer noise.
fn throughput(analyzer: &TraceAnalyzer, trace: &Trace, full: bool) -> (AnalysisReport, f64) {
    let options = AnalysisOptions::with_order(OrderOptions::none());
    let report = analyzer.analyze(trace, &options).expect("analysis runs");
    let (passes, min_total) = if full {
        (3, Duration::from_millis(200))
    } else {
        (1, Duration::ZERO)
    };
    let mut best = 0.0f64;
    for _ in 0..passes {
        let (mut total, mut te) = (Duration::ZERO, 0u64);
        while te == 0 || total < min_total {
            let r = analyzer.analyze(trace, &options).expect("analysis runs");
            total += r.stats.wall_time;
            te += r.stats.transitions_executed;
        }
        best = best.max(te as f64 / total.as_secs_f64().max(1e-9));
    }
    (report, best)
}

/// §4: transitions per second against specification size, on the
/// bytecode VM and on the tree walker. Synthetic ring specs give the
/// declaration sweep; TP0, LAPD and LAPD-800 are reference points.
/// Returns the table and the VM's speedup on LAPD-800.
fn spec_size_sweep(full: bool) -> (Table, f64) {
    let mut rows = Vec::new();
    let mut lapd800_speedup = 0.0;
    let mut measure = |spec: &str, decls: usize, analyzer: &TraceAnalyzer, trace: &Trace| {
        let vm = TraceAnalyzer::from_machine(analyzer.machine.exec_view(ExecMode::Compiled));
        let walker = TraceAnalyzer::from_machine(analyzer.machine.exec_view(ExecMode::Interp));
        let (vm_report, vm_tps) = throughput(&vm, trace, full);
        let (walker_report, walker_tps) = throughput(&walker, trace, full);
        assert_eq!(
            (&vm_report.verdict, vm_report.stats.counters()),
            (&walker_report.verdict, walker_report.stats.counters()),
            "{spec}: both executors must do identical search work"
        );
        let speedup = vm_tps / walker_tps.max(1e-9);
        if spec == "lapd-800" {
            lapd800_speedup = speedup;
        }
        rows.push(Some(vec![
            count(spec),
            count(decls),
            count(vm_report.stats.transitions_executed),
            Cell::Time(format!("{vm_tps:.0}")),
            Cell::Time(format!("{walker_tps:.0}")),
            Cell::Time(format!("{speedup:.2}")),
        ]));
    };
    for decls in [5, 19, 50, 100, 200, 400, 800] {
        let spec = SyntheticSpec::new(4, decls);
        let analyzer = spec.analyzer();
        let trace = analyzer
            .generate_trace(&spec.workload(400), ChoicePolicy::First, 100_000)
            .expect("workload runs");
        measure("synthetic", decls, &analyzer, &trace);
    }
    let tp0 = tp0::analyzer();
    let decls = tp0.module().declared_transition_count();
    measure("tp0", decls, &tp0, &tp0::valid_trace(60, 60, 4));
    let lapd = lapd::analyzer();
    let decls = lapd.module().declared_transition_count();
    measure("lapd", decls, &lapd, &lapd::valid_trace(60, 0, 4));
    // The paper's LAPD size class: 800+ compiled transitions.
    let lapd800 = lapd::analyzer_expanded();
    let decls = lapd800.machine.module.transition_count();
    measure("lapd-800", decls, &lapd800, &lapd::valid_trace(60, 0, 4));
    let table = Table {
        name: "spec-size",
        header: vec![
            "spec",
            "declarations",
            "TE",
            "VM trans/sec",
            "walker trans/sec",
            "VM ÷ walker",
        ],
        rows,
    };
    (table, lapd800_speedup)
}

/// §4.2: valid TP0 traces, `n` data interactions each way, under every
/// mode.
fn tp0_valid() -> Table {
    let traces = [5usize, 10, 20, 40, 80, 160]
        .into_iter()
        .map(|n| (format!("{n}+{n}"), tp0::valid_trace(n, n, n as u64)));
    te_re_by_mode("tp0-valid", "data", &tp0::analyzer(), traces)
}

/// Figure 2 / §3.1.2 on-line: an `x` input and a traced `o` output, then
/// relayed B/C data. Under `ip3'` (t1–t3) the `o` can never be explained,
/// so every status is "likely invalid"; under `ip3` a `finished` at B
/// resolves it through t4 and t5.
fn fig2() -> Table {
    fn relay(tx: &std::sync::mpsc::Sender<Feed>) {
        tx.send(Feed::Event(Event::input("B", "data", vec![])))
            .expect("source open");
        tx.send(Feed::Event(Event::output("C", "data", vec![])))
            .expect("source open");
    }
    fn scenario(tx: &std::sync::mpsc::Sender<Feed>) {
        tx.send(Feed::Event(Event::input("A", "x", vec![])))
            .expect("source open");
        tx.send(Feed::Event(Event::output("A", "o", vec![])))
            .expect("source open");
        (0..3).for_each(|_| relay(tx));
    }
    fn final_line(r: &AnalysisReport) -> String {
        let [te, ge, re, sa] = r.stats.counters();
        format!("final: {}, TE={te} GE={ge} RE={re} SA={sa}", r.verdict)
    }
    let options = AnalysisOptions::with_order(OrderOptions::none());
    let mut printed: Vec<(&str, String)> = Vec::new();

    let (tx, mut source) = ChannelSource::pair();
    scenario(&tx);
    let mut drains = 0;
    let report = ip3::analyzer_prime()
        .analyze_online(&mut source, &options, &mut |v| {
            drains += 1;
            printed.push(("ip3′", format!("status after drain {drains}: {v}")));
            // More relayed data arrives; the verdict cannot improve.
            relay(&tx);
            drains < 3
        })
        .expect("online analysis runs");
    assert_eq!(report.verdict, Verdict::LikelyInvalid);
    printed.push(("ip3′", final_line(&report)));

    let (tx, mut source) = ChannelSource::pair();
    scenario(&tx);
    let mut sent = false;
    let report = ip3::analyzer_full()
        .analyze_online(&mut source, &options, &mut |v| {
            printed.push(("ip3", format!("status: {v}")));
            if !sent {
                sent = true;
                tx.send(Feed::Event(Event::input("B", "finished", vec![])))
                    .expect("source open");
                tx.send(Feed::Eof).expect("source open");
            }
            true
        })
        .expect("online analysis runs");
    assert_eq!(report.verdict, Verdict::Valid);
    printed.push(("ip3", final_line(&report)));
    let witness = report.witness.expect("a valid verdict has a witness");
    printed.push(("ip3", format!("witness: {}", witness.join(" -> "))));

    Table {
        name: "fig2",
        header: vec!["spec", "prints"],
        rows: printed
            .into_iter()
            .map(|(spec, line)| Some(vec![count(spec), count(line)]))
            .collect(),
    }
}

/// §4.2's future-work hash table: invalid TP0 traces with the visited
/// set off and on, under NR and FULL.
fn ablation_hashing(
    tp0: &TraceAnalyzer,
    nr3: &AnalysisReport,
    nr4: Option<&AnalysisReport>,
) -> Table {
    let mut rows = Vec::new();
    for (order, label) in [(OrderOptions::none(), "NR"), (OrderOptions::full(), "FULL")] {
        for n in [2usize, 3, 4, 5] {
            let fresh;
            let plain = match (label, n, nr4) {
                ("NR", 4 | 5, None) => {
                    rows.push(None);
                    continue;
                }
                ("NR", 3, _) => nr3,
                ("NR", 4, Some(nr4)) => nr4,
                _ => {
                    fresh = analyze(tp0, &tp0::invalid_trace(n, n, SEED), order, false);
                    &fresh
                }
            };
            let hashed = analyze(tp0, &tp0::invalid_trace(n, n, SEED), order, true);
            let capped =
                plain.verdict == Verdict::Inconclusive(InconclusiveReason::TransitionLimit);
            let (te_plain, ratio) = if capped {
                (
                    format!(">{}M (capped)", CAP / 1_000_000),
                    "conclusive vs. not".to_string(),
                )
            } else {
                let (p, h) = (
                    plain.stats.transitions_executed,
                    hashed.stats.transitions_executed,
                );
                (p.to_string(), format!("{:.1}×", p as f64 / h as f64))
            };
            rows.push(Some(vec![
                count(label),
                count(format!("{n}+{n}")),
                count(te_plain),
                count(hashed.stats.transitions_executed),
                count(hashed.stats.hash_prunes),
                count(ratio),
            ]));
        }
    }
    Table {
        name: "ablation-hashing",
        header: vec![
            "mode",
            "data",
            "TE plain",
            "TE hashed",
            "states pruned",
            "TE ratio",
        ],
        rows,
    }
}

/// §3.2.2: two trace-equivalent TP0 variants, pointer-linked heap
/// buffers against a bounded array, on the same invalid NR searches.
fn heap_cost(nr3: &AnalysisReport, nr4: Option<&AnalysisReport>) -> Table {
    let bounded = tp0::analyzer_bounded();
    let mut rows = Vec::new();
    for (n, heap) in [(3usize, Some(nr3)), (4, nr4)] {
        let Some(heap) = heap else {
            rows.extend([None, None]);
            continue;
        };
        let array = analyze(&bounded, &tp0::invalid_trace(n, n, SEED), OrderOptions::none(), false);
        for (variant, r) in [("heap", heap), ("array", &array)] {
            let [te, _, _, sa] = r.stats.counters();
            rows.push(Some(vec![
                count(variant),
                count(format!("{n}+{n}")),
                count(te),
                count(sa),
                seconds(r),
            ]));
        }
    }
    Table {
        name: "heap-cost",
        header: vec!["variant", "data", "TE", "SA", "CPUT (s)"],
        rows,
    }
}

/// On-line MDFS over the invalid 4+4 trace, delivered in one poll, at
/// 1, 2, 4 and 8 workers. Counters must be identical at every worker
/// count. Returns the table and each row's wall seconds.
fn mdfs_workers(full: bool) -> (Table, Vec<(usize, f64)>) {
    let analyzer = tp0::analyzer();
    let trace = tp0::invalid_trace(4, 4, SEED);
    let mut rows = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<AnalysisReport> = None;
    for n in [1usize, 2, 4, 8] {
        if !full {
            rows.push(None);
            continue;
        }
        let mut options = AnalysisOptions::with_order(OrderOptions::none());
        options.workers = n;
        let start = Instant::now();
        let r = analyzer
            .analyze_online(&mut StaticSource::new(trace.clone()), &options, &mut |_| {
                true
            })
            .expect("analysis runs");
        let wall = start.elapsed().as_secs_f64();
        let base = first.get_or_insert_with(|| r.clone());
        assert_eq!(
            (&r.verdict, r.stats.counters()),
            (&base.verdict, base.stats.counters()),
            "{n} workers changed the verdict or a TE/GE/RE/SA counter"
        );
        let mut row = vec![count(n)];
        row.extend(te_ge_re_sa(&r));
        row.push(count(&r.verdict));
        row.push(Cell::Time(format!("{wall:.3}")));
        row.push(Cell::Time(format!(
            "{:.0}",
            r.stats.transitions_executed as f64 / wall
        )));
        rows.push(Some(row));
        walls.push((n, wall));
    }
    let table = Table {
        name: "mdfs-workers",
        header: vec![
            "workers", "TE", "GE", "RE", "SA", "verdict", "wall (s)", "TE/s",
        ],
        rows,
    };
    (table, walls)
}

/// The spill tier under pressure: the all-RAM NR search over the invalid
/// 4+4 trace, then snapshot budgets of 50/25/10/5% of its peak with the
/// tier on, then the tightest budget with the tier off, which must stop
/// `Inconclusive(MemoryLimit)`.
fn spill_ladder(tp0: &TraceAnalyzer, baseline: Option<&AnalysisReport>) -> Table {
    let header = vec![
        "row",
        "budget (bytes)",
        "peak RAM (bytes)",
        "peak disk (bytes)",
        "evictions",
        "TE",
        "verdict",
        "CPUT (s)",
    ];
    let Some(baseline) = baseline else {
        return Table {
            name: "spill",
            header,
            rows: (0..6).map(|_| None).collect(),
        };
    };
    let trace = tp0::invalid_trace(4, 4, SEED);
    let row = |label: &str, budget: Option<usize>, r: &AnalysisReport| {
        let s = &r.stats;
        Some(vec![
            count(label),
            count(budget.map_or("-".to_string(), |b| b.to_string())),
            count(s.peak_snapshot_bytes),
            count(s.peak_spilled_bytes),
            count(s.spill_evictions),
            count(s.transitions_executed),
            count(&r.verdict),
            seconds(r),
        ])
    };
    let run = |budget: usize, spill: bool| {
        let dir =
            std::env::temp_dir().join(format!("tango-experiments-spill-{}", std::process::id()));
        let mut options = AnalysisOptions::with_order(OrderOptions::none());
        options.limits.max_state_bytes = Some(budget);
        if spill {
            options.spill.dir = Some(dir.clone());
        }
        let r = tp0.analyze(&trace, &options).expect("analysis runs");
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            r.spill_faults.is_empty(),
            "a healthy disk must not fault: {:?}",
            r.spill_faults
        );
        r
    };
    let mut rows = vec![row("all-ram", None, baseline)];
    let mut tightest = 0;
    for pct in [50, 25, 10, 5] {
        tightest = (baseline.stats.peak_snapshot_bytes * pct / 100).max(1);
        let r = run(tightest, true);
        assert_eq!(
            (&r.verdict, r.stats.counters()),
            (&baseline.verdict, baseline.stats.counters()),
            "the tier must not change the verdict or TE/GE/RE/SA"
        );
        rows.push(row(&format!("spill-{pct}%"), Some(tightest), &r));
    }
    let died = run(tightest, false);
    assert_eq!(
        died.verdict,
        Verdict::Inconclusive(InconclusiveReason::MemoryLimit)
    );
    rows.push(row("no-spill", Some(tightest), &died));
    Table {
        name: "spill",
        header,
        rows,
    }
}
