//! Dynamic trace sources for on-line analysis.
//!
//! In dynamic mode (§3) the trace file grows while the analyzer runs: "at
//! any time, another process independent of Tango can append data to a
//! dynamic trace file, which the TAM must check periodically for more data
//! to read". A [`TraceSource`] is that periodic check. Implementations
//! cover the paper's use cases plus fault-tolerant operation:
//!
//! * [`StaticSource`] — a complete trace, immediately at end-of-file;
//! * [`ChannelSource`] — events pushed from another thread over a
//!   standard-library channel (interfacing a live IUT monitor); a feeder
//!   that dies without sending `eof` is reported as a diagnostic rather
//!   than hanging the monitor;
//! * [`FollowFileSource`] — a trace file on disk that another process
//!   appends to, polled for new lines, with truncation/rotation detection
//!   ([`RecoveryPolicy`]) and a bounded parse-error buffer;
//! * [`FaultySource`] — a fault-injection wrapper for testing: corrupts
//!   lines, stalls, duplicates events and truncates lines mid-way
//!   according to the source rows of a deterministic
//!   [`crate::fault::FaultPlan`].

use super::format::{parse_line, Line};
use super::{Event, Trace};
use crate::fault::{Fault, FaultPlan};
use estelle_frontend::sema::model::AnalyzedModule;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};

/// What one poll of a dynamic source produced.
#[derive(Debug, Default, Clone)]
pub struct Poll {
    /// Events appended since the previous poll.
    pub events: Vec<Event>,
    /// True once the source has signalled there will be no more data — the
    /// paper's "end-of-file" marker that forces a conclusive verdict.
    pub eof: bool,
}

/// A possibly growing supply of trace events.
pub trait TraceSource {
    /// Collect any newly available events. Non-blocking.
    fn poll(&mut self) -> Poll;

    /// Faults observed while feeding (parse errors, truncation, a dead
    /// feeder, …). Collected into [`crate::AnalysisReport::source_faults`]
    /// when the analysis ends so operators see *why* a feed degraded
    /// instead of losing the information with the source.
    fn diagnostics(&self) -> Vec<String> {
        Vec::new()
    }

    /// Faults this source absorbed losslessly by retrying (injected read
    /// errors under [`RecoveryPolicy::Restart`], rotations re-read from
    /// the start). Flows into `SearchStats::source_retries` and the
    /// `fault.source.retries` metric.
    fn fault_retries(&self) -> u64 {
        0
    }

    /// Faults this source gave up on — the feed degraded (early eof,
    /// partial data) instead of recovering. Flows into
    /// `SearchStats::source_giveups` and the `fault.source.giveups`
    /// metric.
    fn fault_giveups(&self) -> u64 {
        0
    }
}

/// A static trace presented through the dynamic interface: everything on
/// the first poll, then eof.
#[derive(Debug)]
pub struct StaticSource {
    trace: Option<Trace>,
}

impl StaticSource {
    pub fn new(trace: Trace) -> Self {
        StaticSource { trace: Some(trace) }
    }
}

impl TraceSource for StaticSource {
    fn poll(&mut self) -> Poll {
        Poll {
            events: self.trace.take().map(|t| t.events).unwrap_or_default(),
            eof: true,
        }
    }
}

/// Messages a live feeder can push to a [`ChannelSource`].
#[derive(Debug, Clone)]
pub enum Feed {
    Event(Event),
    /// No more events will ever arrive.
    Eof,
}

/// Events pushed from another thread.
pub struct ChannelSource {
    rx: Receiver<Feed>,
    eof: bool,
    /// The feeder hung up without an explicit [`Feed::Eof`] — most likely
    /// it crashed. Treated as end-of-trace so the analysis terminates, but
    /// surfaced as a diagnostic since the trace may be incomplete.
    disconnected: bool,
}

impl ChannelSource {
    pub fn new(rx: Receiver<Feed>) -> Self {
        ChannelSource {
            rx,
            eof: false,
            disconnected: false,
        }
    }

    /// A connected (feeder, source) pair: push [`Feed`] messages from any
    /// thread, analyze on this one.
    pub fn pair() -> (Sender<Feed>, ChannelSource) {
        let (tx, rx) = std::sync::mpsc::channel();
        (tx, ChannelSource::new(rx))
    }
}

impl TraceSource for ChannelSource {
    fn poll(&mut self) -> Poll {
        let mut out = Poll {
            events: Vec::new(),
            eof: self.eof,
        };
        loop {
            match self.rx.try_recv() {
                Ok(Feed::Event(e)) => out.events.push(e),
                Ok(Feed::Eof) => {
                    self.eof = true;
                    out.eof = true;
                    return out;
                }
                Err(TryRecvError::Disconnected) => {
                    // A dead feeder must read as EOF-with-diagnostic, not
                    // as a silent hang waiting for data that cannot come.
                    if !self.eof {
                        self.disconnected = true;
                    }
                    self.eof = true;
                    out.eof = true;
                    return out;
                }
                Err(TryRecvError::Empty) => return out,
            }
        }
    }

    fn diagnostics(&self) -> Vec<String> {
        if self.disconnected {
            vec![
                "feeder channel disconnected without an eof marker; \
                 the trace may be incomplete"
                    .to_string(),
            ]
        } else {
            Vec::new()
        }
    }
}

/// What a [`FollowFileSource`] does when the file it follows shrinks below
/// the read offset (log rotation or truncation by the writer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Re-read the file from the beginning: the writer rotated the log and
    /// started a fresh trace. The analysis sees the new content appended
    /// after the old (the search itself is not reset), which is right when
    /// rotation only ever happens at trace boundaries.
    Restart,
    /// Treat the truncation as end-of-trace with a diagnostic. The safe
    /// default: a shrinking trace file usually means the observation is no
    /// longer trustworthy.
    #[default]
    Fail,
}

/// Cap on buffered per-line diagnostics in follow/faulty sources. The
/// first `MAX_SOURCE_ERRORS` are kept verbatim; the rest only counted, so
/// a corrupt feed cannot grow memory without bound.
const MAX_SOURCE_ERRORS: usize = 64;

/// Bounded error buffer shared by the file-backed sources.
#[derive(Debug, Default)]
struct ErrorBuf {
    kept: Vec<String>,
    dropped: u64,
}

impl ErrorBuf {
    fn push(&mut self, msg: String) {
        if self.kept.len() < MAX_SOURCE_ERRORS {
            self.kept.push(msg);
        } else {
            self.dropped += 1;
        }
    }

    fn total(&self) -> u64 {
        self.kept.len() as u64 + self.dropped
    }

    /// Read one trace `line` (newline included) into `out`: an event
    /// that resolves against `module` is delivered and an `eof` line
    /// sets `out.eof`. A line that does not parse, or an event that does
    /// not resolve (an interaction the channel does not define, wrong
    /// arity), is a glitch like any other: skipped with a diagnostic
    /// here rather than wedging the monitor.
    fn read_line(&mut self, line: &str, module: Option<&AnalyzedModule>, out: &mut Poll) {
        match parse_line(line, module) {
            Ok(Line::Blank) => {}
            Ok(Line::Eof) => out.eof = true,
            Ok(Line::Event(e)) => match module.map(|m| e.check_against(m)) {
                None | Some(Ok(())) => out.events.push(e),
                Some(Err(msg)) => self.push(msg),
            },
            Err(msg) => self.push(msg),
        }
    }

    fn render(&self) -> Vec<String> {
        let mut out = self.kept.clone();
        if self.dropped > 0 {
            out.push(format!(
                "... and {} further error(s) dropped (buffer capped at {})",
                self.dropped, MAX_SOURCE_ERRORS
            ));
        }
        out
    }
}

/// Follows a trace file that another process appends to. Partial trailing
/// lines (a writer mid-append) are left in the file until complete.
///
/// Fault tolerance:
/// * file truncation/rotation (length below the saved offset) is detected
///   from metadata and handled per [`RecoveryPolicy`];
/// * every poll looks at the file: pacing idle polls is the caller's
///   job (the on-line engine backs off 1 ms → 16 ms while the feed is
///   silent);
/// * parse errors are skipped (one glitch must not wedge the monitor) and
///   recorded in a bounded buffer with a dropped-count.
pub struct FollowFileSource {
    path: PathBuf,
    offset: u64,
    module: Option<AnalyzedModule>,
    eof: bool,
    recovery: RecoveryPolicy,
    errors: ErrorBuf,
    /// Times the file was observed truncated/rotated.
    rotations: u64,
    /// Rotations recovered by re-reading ([`RecoveryPolicy::Restart`]).
    retries: u64,
    /// Rotations that ended the feed ([`RecoveryPolicy::Fail`]).
    giveups: u64,
}

impl FollowFileSource {
    pub fn new(path: impl Into<PathBuf>, module: Option<AnalyzedModule>) -> Self {
        FollowFileSource {
            path: path.into(),
            offset: 0,
            module,
            eof: false,
            recovery: RecoveryPolicy::default(),
            errors: ErrorBuf::default(),
            rotations: 0,
            retries: 0,
            giveups: 0,
        }
    }

    /// Select what to do when the followed file shrinks (default:
    /// [`RecoveryPolicy::Fail`]).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Total lines skipped because they failed to parse, including ones
    /// whose messages were dropped from the bounded buffer.
    pub fn skipped_lines(&self) -> u64 {
        self.errors.total()
    }

    /// Times the followed file was observed truncated or rotated.
    pub fn rotations_seen(&self) -> u64 {
        self.rotations
    }
}

impl TraceSource for FollowFileSource {
    fn poll(&mut self) -> Poll {
        let mut out = Poll {
            events: Vec::new(),
            eof: self.eof,
        };
        if self.eof {
            return out;
        }
        let Ok(mut f) = File::open(&self.path) else {
            return out; // not created yet — keep polling
        };
        // Truncation/rotation detection: a file shorter than our offset
        // cannot be the one we were reading. Seeking there would either
        // read nothing forever or, after the writer catches back up, read
        // from the middle of unrelated content.
        match f.metadata() {
            Ok(md) if md.len() < self.offset => {
                self.rotations += 1;
                match self.recovery {
                    RecoveryPolicy::Restart => {
                        self.errors.push(format!(
                            "file truncated below offset {} (rotation?); \
                             restarting from the beginning",
                            self.offset
                        ));
                        self.offset = 0;
                        self.retries += 1;
                    }
                    RecoveryPolicy::Fail => {
                        self.errors.push(format!(
                            "file truncated below offset {}; treating as \
                             end-of-trace (RecoveryPolicy::Fail)",
                            self.offset
                        ));
                        self.giveups += 1;
                        self.eof = true;
                        out.eof = true;
                        return out;
                    }
                }
            }
            Ok(_) => {}
            Err(_) => return out,
        }
        if f.seek(SeekFrom::Start(self.offset)).is_err() {
            return out;
        }
        let mut reader = BufReader::new(f);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(n) => {
                    if !line.ends_with('\n') {
                        // Incomplete trailing line: re-read next poll.
                        break;
                    }
                    self.offset += n as u64;
                    self.errors.read_line(&line, self.module.as_ref(), &mut out);
                    if out.eof {
                        self.eof = true;
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        out
    }

    fn diagnostics(&self) -> Vec<String> {
        let mut out = self.errors.render();
        if self.errors.total() > 0 {
            out.push(format!(
                "skipped {} unparseable line(s) while following {}",
                self.errors.total(),
                self.path.display()
            ));
        }
        out
    }

    fn fault_retries(&self) -> u64 {
        self.retries
    }

    fn fault_giveups(&self) -> u64 {
        self.giveups
    }
}

/// A fault-injecting [`TraceSource`] for robustness testing.
///
/// Feeds the lines of a rendered trace one per poll, mangling them per
/// the source rows of a [`FaultPlan`]: corrupt lines, stalls, duplicated
/// events, mid-line truncation, read errors and short reads, recovered
/// per the plan's [`RecoveryPolicy`]. Line faults count delivered lines,
/// read faults count read attempts (so retried reads advance them).
/// Lines are parsed exactly the way
/// [`FollowFileSource`] parses a followed file, with the same bounded
/// error buffer, so the whole skip-and-diagnose path is exercised end to
/// end.
pub struct FaultySource {
    lines: VecDeque<String>,
    module: Option<AnalyzedModule>,
    plan: FaultPlan,
    /// Lines delivered so far.
    delivered: u64,
    stall_left: u64,
    eof: bool,
    errors: ErrorBuf,
    /// Read-level fault diagnostics, kept apart from `errors` so
    /// [`Self::skipped_lines`] keeps counting only unparseable lines.
    read_faults: ErrorBuf,
    recovery: RecoveryPolicy,
    /// Read attempts so far (polls that reached the backing store).
    read_attempts: u64,
    /// Injected read faults recovered by retrying (Restart).
    retries: u64,
    /// Injected read faults that degraded the feed (Fail).
    giveups: u64,
}

impl FaultySource {
    /// Build from trace text (one event per line, as rendered by
    /// [`crate::render_trace`]). An `eof` line is appended if missing so
    /// the analysis always terminates.
    pub fn new(trace_text: &str, module: Option<AnalyzedModule>, plan: FaultPlan) -> Self {
        let mut lines: VecDeque<String> = trace_text
            .lines()
            .map(|l| l.to_string())
            .collect();
        if !lines.iter().any(|l| l.trim() == "eof") {
            lines.push_back("eof".to_string());
        }
        FaultySource {
            lines,
            module,
            plan,
            delivered: 0,
            stall_left: 0,
            eof: false,
            errors: ErrorBuf::default(),
            read_faults: ErrorBuf::default(),
            recovery: plan.recovery.unwrap_or_default(),
            read_attempts: 0,
            retries: 0,
            giveups: 0,
        }
    }

    /// Total lines skipped as unparseable.
    pub fn skipped_lines(&self) -> u64 {
        self.errors.total()
    }

    fn parse_into(&mut self, line: &str, out: &mut Poll) {
        self.errors
            .read_line(&format!("{}\n", line), self.module.as_ref(), out);
        self.eof |= out.eof;
    }
}

/// The last char boundary at or before the middle of `line`.
fn half(line: &str) -> usize {
    (0..=line.len() / 2)
        .rev()
        .find(|&i| line.is_char_boundary(i))
        .unwrap_or(0)
}

impl TraceSource for FaultySource {
    fn poll(&mut self) -> Poll {
        let mut out = Poll {
            events: Vec::new(),
            eof: self.eof,
        };
        if self.eof {
            return out;
        }
        if self.stall_left > 0 {
            self.stall_left -= 1;
            return out;
        }
        let Some(line) = self.lines.pop_front() else {
            self.eof = true;
            out.eof = true;
            return out;
        };
        self.read_attempts += 1;
        // Read-level faults fire before the line-level ones: a read that
        // errors never yields a line to corrupt or duplicate.
        if self.plan.due(Fault::SourceReadError, self.read_attempts) {
            match self.recovery {
                RecoveryPolicy::Restart => {
                    self.read_faults.push(format!(
                        "injected read error at attempt {}; retrying \
                         (RecoveryPolicy::Restart)",
                        self.read_attempts
                    ));
                    self.retries += 1;
                    self.lines.push_front(line);
                    return out;
                }
                RecoveryPolicy::Fail => {
                    self.read_faults.push(format!(
                        "injected read error at attempt {}; treating as \
                         end-of-trace (RecoveryPolicy::Fail)",
                        self.read_attempts
                    ));
                    self.giveups += 1;
                    self.eof = true;
                    out.eof = true;
                    return out;
                }
            }
        }
        let short_read = (self.plan.due(Fault::SourceShortRead, self.read_attempts)
            && line.len() >= 2
            && line.trim() != "eof")
            .then(|| half(&line));
        if let Some(mid) = short_read {
            match self.recovery {
                RecoveryPolicy::Restart => {
                    self.read_faults.push(format!(
                        "injected short read at attempt {} ({} of {} bytes); \
                         retrying (RecoveryPolicy::Restart)",
                        self.read_attempts,
                        mid,
                        line.len()
                    ));
                    self.retries += 1;
                    self.lines.push_front(line);
                    return out;
                }
                RecoveryPolicy::Fail => {
                    self.read_faults.push(format!(
                        "injected short read at attempt {} ({} of {} bytes); \
                         delivering partial data (RecoveryPolicy::Fail)",
                        self.read_attempts,
                        mid,
                        line.len()
                    ));
                    self.giveups += 1;
                }
            }
        }
        self.delivered += 1;
        let op = self.delivered;
        if let Some(mid) = short_read {
            self.parse_into(&line[..mid], &mut out);
        } else if self.plan.due(Fault::SourceCorrupt, op) {
            self.parse_into("§§ corrupted line %%%", &mut out);
        } else if self.plan.due(Fault::SourceTruncate, op)
            && line.len() >= 2
            && line.trim() != "eof"
        {
            let (a, b) = line.split_at(half(&line));
            self.parse_into(a, &mut out);
            self.parse_into(b, &mut out);
        } else if self.plan.due(Fault::SourceDuplicate, op) && line.trim() != "eof" {
            self.parse_into(&line, &mut out);
            self.parse_into(&line, &mut out);
        } else {
            self.parse_into(&line, &mut out);
        }
        // Stalls keep their historical phase, one line early: a stall
        // follows each line whose successor is an n-th line.
        if self.plan.due(Fault::SourceStall, op + 1) {
            self.stall_left = self.plan.get(Fault::SourceStallPolls).unwrap_or(0);
        }
        out
    }

    fn diagnostics(&self) -> Vec<String> {
        let mut out = self.errors.render();
        out.extend(self.read_faults.render());
        out
    }

    fn fault_retries(&self) -> u64 {
        self.retries
    }

    fn fault_giveups(&self) -> u64 {
        self.giveups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Dir;
    use std::io::Write;
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tango-src-test-{}-{}",
            tag,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn static_source_drains_once() {
        let t = Trace::new(vec![Event::input("A", "x", vec![])]);
        let mut s = StaticSource::new(t);
        let p = s.poll();
        assert_eq!(p.events.len(), 1);
        assert!(p.eof);
        let p2 = s.poll();
        assert!(p2.events.is_empty());
        assert!(p2.eof);
    }

    #[test]
    fn channel_source_streams_until_eof() {
        let (tx, mut s) = ChannelSource::pair();
        assert!(s.poll().events.is_empty());
        tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
        tx.send(Feed::Event(Event::output("A", "y", vec![]))).unwrap();
        let p = s.poll();
        assert_eq!(p.events.len(), 2);
        assert!(!p.eof);
        tx.send(Feed::Eof).unwrap();
        assert!(s.poll().eof);
        // A clean eof is not a fault.
        assert!(s.diagnostics().is_empty());
    }

    #[test]
    fn dropped_sender_counts_as_eof_with_diagnostic() {
        let (tx, mut s) = ChannelSource::pair();
        drop(tx);
        assert!(s.poll().eof);
        assert_eq!(s.diagnostics().len(), 1);
    }

    #[test]
    fn follow_file_reads_appends_and_skips_partial_lines() {
        let dir = tmpdir("follow");
        let path = dir.join("follow.trace");
        std::fs::write(&path, "in A.x\n").unwrap();

        let mut s = FollowFileSource::new(&path, None);
        let p = s.poll();
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].dir, Dir::In);

        // Append one full line and one partial line.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "out A.y\nin A").unwrap();
        drop(f);
        let p = s.poll();
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].interaction, "y");

        // Complete the partial line and close the trace.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, ".x\neof").unwrap();
        drop(f);
        let p = s.poll();
        assert_eq!(p.events.len(), 1);
        assert!(p.eof);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_fails_by_default() {
        let dir = tmpdir("trunc-fail");
        let path = dir.join("t.trace");
        std::fs::write(&path, "in A.x\nin A.x\n").unwrap();
        let mut s = FollowFileSource::new(&path, None);
        assert_eq!(s.poll().events.len(), 2);
        // Rotate: replace with a shorter file.
        std::fs::write(&path, "in A.y\n").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let p = s.poll();
        assert!(p.eof, "truncation under Fail must read as eof");
        assert_eq!(s.rotations_seen(), 1);
        assert!(!s.diagnostics().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_restarts_under_restart_policy() {
        let dir = tmpdir("trunc-restart");
        let path = dir.join("t.trace");
        std::fs::write(&path, "in A.x\nin A.x\n").unwrap();
        let mut s =
            FollowFileSource::new(&path, None).with_recovery(RecoveryPolicy::Restart);
        assert_eq!(s.poll().events.len(), 2);
        std::fs::write(&path, "in A.y\neof\n").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let p = s.poll();
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].interaction, "y");
        assert!(p.eof);
        assert_eq!(s.rotations_seen(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_buffer_is_capped() {
        let mut garbage = String::new();
        for i in 0..(MAX_SOURCE_ERRORS + 40) {
            garbage.push_str(&format!("?!bad line {}\n", i));
        }
        garbage.push_str("eof\n");
        let mut s = FaultySource::new(&garbage, None, FaultPlan::default());
        loop {
            if s.poll().eof {
                break;
            }
        }
        assert_eq!(s.skipped_lines(), (MAX_SOURCE_ERRORS + 40) as u64);
        let d = s.diagnostics();
        // kept lines + "dropped" summary line.
        assert_eq!(d.len(), MAX_SOURCE_ERRORS + 1);
        assert!(d.last().unwrap().contains("dropped"));
    }

    #[test]
    fn faulty_source_duplicates_and_corrupts_deterministically() {
        let text = "in A.x\nin A.x\nin A.x\nin A.x\neof\n";
        let plan = FaultPlan::default()
            .with(Fault::SourceCorrupt, 3)
            .with(Fault::SourceDuplicate, 2);
        let run = || {
            let mut s = FaultySource::new(text, None, plan);
            let mut events = 0;
            let mut polls = 0;
            loop {
                let p = s.poll();
                events += p.events.len();
                polls += 1;
                if p.eof {
                    break;
                }
                assert!(polls < 100, "source must terminate");
            }
            (events, s.skipped_lines())
        };
        let (e1, s1) = run();
        let (e2, s2) = run();
        assert_eq!((e1, s1), (e2, s2), "fault schedule must be deterministic");
        assert!(s1 > 0, "corruption must surface as skipped lines");
        assert!(e1 > 4, "duplication must add events");
    }

    #[test]
    fn faulty_source_stalls() {
        let plan = FaultPlan::default()
            .with(Fault::SourceStall, 1)
            .with(Fault::SourceStallPolls, 2);
        let mut s = FaultySource::new("in A.x\neof\n", None, plan);
        assert_eq!(s.poll().events.len(), 1); // line 1 delivered, stall armed
        assert!(s.poll().events.is_empty()); // stall 1
        assert!(s.poll().events.is_empty()); // stall 2
        assert!(s.poll().eof); // eof line

        // The historical phase: every 2nd stall follows lines 1, 3, ...
        let plan = FaultPlan::default()
            .with(Fault::SourceStall, 2)
            .with(Fault::SourceStallPolls, 1);
        let mut s = FaultySource::new("in A.x\nin A.x\nin A.x\neof\n", None, plan);
        let polls: Vec<(usize, bool)> = (0..6)
            .map(|_| {
                let p = s.poll();
                (p.events.len(), p.eof)
            })
            .collect();
        let (line, stall) = ((1, false), (0, false));
        assert_eq!(polls, vec![line, stall, line, line, stall, (0, true)]);
    }

    #[test]
    fn faulty_source_truncates_midline() {
        let plan = FaultPlan::default().with(Fault::SourceTruncate, 1);
        // Midpoint falls before the dot, so neither half is a legal line:
        // `in Alpha` lacks the interaction, `betical.x` lacks a direction.
        let mut s = FaultySource::new("in Alphabetical.x\neof\n", None, plan);
        let p = s.poll();
        // Both halves fail to parse; nothing delivered, two errors kept.
        assert!(p.events.is_empty());
        assert_eq!(s.skipped_lines(), 2);
        assert!(s.poll().eof);
    }
}
