//! Tango — an automatic trace-analysis tool generator for Estelle
//! specifications.
//!
//! A from-scratch Rust reproduction of the system in Ezust & Bochmann,
//! *"An Automatic Trace Analysis Tool Generator for Estelle
//! Specifications"* (SIGCOMM '95). [`Tango::generate`] turns a
//! single-module Estelle specification into a [`TraceAnalyzer`] that
//! checks execution traces by backtracking state-space search, with the
//! paper's full set of runtime options:
//!
//! * relative-order checking presets NR / IO / IP / FULL (§2.4.2);
//! * IP disabling (§2.4.3) and the initial-state search (§2.4.1);
//! * one search engine: static-mode DFS over a complete trace, and
//!   on-line multi-threaded DFS with PG-nodes and dynamic node
//!   reordering (§3) over a trace that is still arriving;
//! * partial-trace analysis with undefined values and unobserved IPs (§5);
//! * implementation-generation mode to produce valid traces from the
//!   specification itself (§4.1's methodology).
//!
//! ```
//! use tango::{Tango, AnalysisOptions};
//!
//! let analyzer = Tango::generate(r#"
//!     specification echo;
//!     channel C(env, m);
//!         by env: req(n : integer);
//!         by m: rsp(n : integer);
//!     end;
//!     module M process; ip P : C(m); end;
//!     body MB for M;
//!         state S;
//!         initialize to S begin end;
//!         trans
//!         from S to S when P.req begin output P.rsp(n + 1) end;
//!     end;
//!     end.
//! "#).expect("valid specification");
//!
//! let report = analyzer
//!     .analyze_text("in P.req(1)\nout P.rsp(2)\n", &AnalysisOptions::default())
//!     .expect("trace analyzable");
//! assert!(report.verdict.is_valid());
//!
//! let bad = analyzer
//!     .analyze_text("in P.req(1)\nout P.rsp(3)\n", &AnalysisOptions::default())
//!     .expect("trace analyzable");
//! assert!(!bad.verdict.is_valid());
//! ```

pub mod analyzer;
pub mod checkpoint;
pub mod env;
pub mod error;
pub mod fault;
pub mod genimpl;
pub mod options;
pub mod rng;
pub mod search;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod verdict;

pub use analyzer::{Tango, TraceAnalyzer};
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointInfo};
pub use error::TangoError;
/// The unified chaos layer: the composable [`FaultPlan`] (one schedule
/// slot per injectable [`Fault`], arming source and checkpoint
/// fault sites in one run).
pub use fault::{Fault, FaultError, FaultPlan, Site};
pub use genimpl::{ChoicePolicy, ScriptedInput};
pub use options::{AnalysisOptions, OrderOptions, SearchLimits};
pub use stats::SearchStats;
pub use telemetry::{
    should_dump, DumpError, EventSink, FlightRecorder, IntrospectHandle, IntrospectionServer,
    JsonlSink, MetricsRegistry, PostMortemDump, ProgressMode,
    ProgressReporter, SearchEvent, Telemetry, TransitionProfile,
    DEFAULT_RING_CAPACITY,
};
pub use trace::format::{parse_trace, render_trace};
pub use trace::source::{
    ChannelSource, FaultySource, Feed, FollowFileSource, RecoveryPolicy, StaticSource,
    TraceSource,
};
pub use trace::{Dir, Event, Trace};
pub use verdict::{AnalysisReport, InconclusiveReason, Verdict};
