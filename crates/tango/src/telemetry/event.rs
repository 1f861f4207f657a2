//! The structured search-event stream: schema and JSONL rendering.
//!
//! Every observable step of a search — generate, fire, save, restore,
//! prune, park, checkpoint, verdict — is one event. The stream is the
//! complete, replayable story of how a verdict was reached (after
//! Ducassé's "rigorous tracer" criterion: the trace is specified, not
//! ad hoc), and it is versioned like the durable checkpoint format so
//! downstream analyzers can evolve independently of the searches
//! (DESIGN §6.8 holds the schema table).
//!
//! Rendering is deliberately integer-only and key-ordered: the same
//! search produces a byte-identical stream on every run (pinned by
//! `tests/telemetry.rs`), so streams can be diffed, content-addressed
//! and replayed. Wall-clock data never enters the stream; timing lives
//! in the metrics registry and the progress heartbeats instead.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Bumped on any change to event kinds, field names or field order.
/// Consumers must refuse streams whose `meta` line names a newer version.
/// Version 2 dropped the `interned` field from `save` events.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Why a search path was cut before exhausting its children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneKind {
    /// The (state, cursor) pair was already visited (`--state-hashing`).
    Hash,
    /// The consecutive-barren-steps bound fired.
    Barren,
}

impl PruneKind {
    fn label(self) -> &'static str {
        match self {
            PruneKind::Hash => "hash",
            PruneKind::Barren => "barren",
        }
    }
}

/// One structured search event. Borrowed fields keep emission
/// allocation-free on the hot path; sinks render or copy as needed.
#[derive(Clone, Debug)]
pub enum SearchEvent<'a> {
    /// First line of every stream: schema identification plus the search
    /// mode (`dfs` or `mdfs`) and the specification module name.
    Meta { mode: &'a str, spec: &'a str },
    /// One fireable-list computation (GE). `fanout` is the candidate
    /// count offered to the search (post-filter for MDFS re-generates);
    /// `incomplete` marks a PG transition list (§3.1.1).
    Generate {
        depth: usize,
        fanout: usize,
        incomplete: bool,
    },
    /// One *Update* attempt (TE). `name` is borrowed except for an `any`
    /// instance, whose name is rendered for the event; `observable` is
    /// the when-clause `ip.interaction` driving the transition, empty for
    /// spontaneous ones; `fired` is whether the transition completed with
    /// all outputs matched.
    Fire {
        depth: usize,
        trans: usize,
        name: Cow<'a, str>,
        observable: Option<(&'a str, &'a str)>,
        fired: bool,
    },
    /// One *Save* (SA) with its byte accounting: `bytes` is what this
    /// save charged against the memory budget, `resident` the pool
    /// total after the save.
    Save {
        depth: usize,
        bytes: usize,
        resident: usize,
    },
    /// One *Restore* (RE): the search backtracked (DFS) or switched to
    /// a saved node (MDFS).
    Restore { depth: usize },
    /// A path cut by an extension bound rather than by search failure.
    Prune { depth: usize, kind: PruneKind },
    /// MDFS only: a node parked on the PG-list to be revived when more
    /// trace data arrives.
    Park { depth: usize, pg_nodes: u64 },
    /// A durable checkpoint was written (CLI autosave or limit stop).
    Checkpoint { te: u64, path: &'a str },
    /// Terminal line of one search: the verdict plus the paper's
    /// counters, letting a consumer cross-check the stream against the
    /// final `SearchStats` (TE == fire events, GE == generate events,
    /// RE == restore events, SA == save events).
    Verdict {
        verdict: &'a str,
        te: u64,
        ge: u64,
        re: u64,
        sa: u64,
    },
}

/// Escape a string for embedding in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl SearchEvent<'_> {
    /// The event's kind tag as it appears in the `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            SearchEvent::Meta { .. } => "meta",
            SearchEvent::Generate { .. } => "generate",
            SearchEvent::Fire { .. } => "fire",
            SearchEvent::Save { .. } => "save",
            SearchEvent::Restore { .. } => "restore",
            SearchEvent::Prune { .. } => "prune",
            SearchEvent::Park { .. } => "park",
            SearchEvent::Checkpoint { .. } => "checkpoint",
            SearchEvent::Verdict { .. } => "verdict",
        }
    }

    /// Render one JSONL line (no trailing newline) with the merge-order
    /// sequence number and worker id every event carries. Key order is
    /// fixed; output is deterministic for a deterministic search.
    pub fn render(&self, seq: u64, worker: u16, out: &mut String) {
        let _ = write!(out, "{{\"seq\":{},\"w\":{},\"ev\":\"{}\"", seq, worker, self.kind());
        match self {
            SearchEvent::Meta { mode, spec } => {
                let _ = write!(
                    out,
                    ",\"schema\":\"tango-trace\",\"version\":{},\"mode\":\"{}\",\"spec\":\"{}\"",
                    TRACE_SCHEMA_VERSION,
                    json_escape(mode),
                    json_escape(spec)
                );
            }
            SearchEvent::Generate {
                depth,
                fanout,
                incomplete,
            } => {
                let _ = write!(
                    out,
                    ",\"depth\":{},\"fanout\":{},\"incomplete\":{}",
                    depth, fanout, incomplete
                );
            }
            SearchEvent::Fire {
                depth,
                trans,
                name,
                observable,
                fired,
            } => {
                let _ = write!(
                    out,
                    ",\"depth\":{},\"trans\":{},\"name\":\"{}\"",
                    depth,
                    trans,
                    json_escape(name)
                );
                if let Some((ip, interaction)) = observable {
                    let _ = write!(
                        out,
                        ",\"observable\":\"{}.{}\"",
                        json_escape(ip),
                        json_escape(interaction)
                    );
                }
                let _ = write!(out, ",\"fired\":{}", fired);
            }
            SearchEvent::Save {
                depth,
                bytes,
                resident,
            } => {
                let _ = write!(
                    out,
                    ",\"depth\":{},\"bytes\":{},\"resident\":{}",
                    depth, bytes, resident
                );
            }
            SearchEvent::Restore { depth } => {
                let _ = write!(out, ",\"depth\":{}", depth);
            }
            SearchEvent::Prune { depth, kind } => {
                let _ = write!(out, ",\"depth\":{},\"kind\":\"{}\"", depth, kind.label());
            }
            SearchEvent::Park { depth, pg_nodes } => {
                let _ = write!(out, ",\"depth\":{},\"pg_nodes\":{}", depth, pg_nodes);
            }
            SearchEvent::Checkpoint { te, path } => {
                let _ = write!(out, ",\"te\":{},\"path\":\"{}\"", te, json_escape(path));
            }
            SearchEvent::Verdict {
                verdict,
                te,
                ge,
                re,
                sa,
            } => {
                let _ = write!(
                    out,
                    ",\"verdict\":\"{}\",\"te\":{},\"ge\":{},\"re\":{},\"sa\":{}",
                    json_escape(verdict),
                    te,
                    ge,
                    re,
                    sa
                );
            }
        }
        out.push('}');
    }

    /// Convenience: render to an owned line.
    pub fn to_jsonl(&self, seq: u64, worker: u16) -> String {
        let mut s = String::with_capacity(96);
        self.render(seq, worker, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable_and_key_ordered() {
        let ev = SearchEvent::Fire {
            depth: 3,
            trans: 7,
            name: "t10".into(),
            observable: Some(("U", "tconreq")),
            fired: true,
        };
        assert_eq!(
            ev.to_jsonl(12, 0),
            "{\"seq\":12,\"w\":0,\"ev\":\"fire\",\"depth\":3,\"trans\":7,\
             \"name\":\"t10\",\"observable\":\"U.tconreq\",\"fired\":true}"
        );
    }

    #[test]
    fn meta_carries_schema_version() {
        let line = SearchEvent::Meta {
            mode: "dfs",
            spec: "tp0",
        }
        .to_jsonl(0, 0);
        assert!(line.contains("\"schema\":\"tango-trace\""));
        assert!(line.contains(&format!("\"version\":{}", TRACE_SCHEMA_VERSION)));
    }

    #[test]
    fn strings_are_escaped() {
        let line = SearchEvent::Checkpoint {
            te: 5,
            path: "a\"b\\c\n",
        }
        .to_jsonl(1, 0);
        assert!(line.contains("a\\\"b\\\\c\\n"));
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn spontaneous_fire_omits_observable() {
        let line = SearchEvent::Fire {
            depth: 0,
            trans: 0,
            name: "Init".into(),
            observable: None,
            fired: false,
        }
        .to_jsonl(0, 0);
        assert!(!line.contains("observable"));
        assert!(line.contains("\"fired\":false"));
    }
}
