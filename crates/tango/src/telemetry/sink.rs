//! Pluggable event sinks.
//!
//! A sink receives every [`SearchEvent`] the searches emit, already
//! stamped with a monotonically increasing sequence number and a worker
//! id — sinks see events in merge order and never reorder them. The one
//! implementation that ships, [`JsonlSink`], streams rendered lines into
//! any writer (a file for `--trace-out`, a `Vec<u8>` in tests). A sink
//! sees the JSONL view of the search's step records: each event is built
//! from one record only when a sink is attached. (The always-on black box
//! over the records themselves is the [`super::recorder::FlightRecorder`],
//! which needs no sink at all.)

use super::event::SearchEvent;
use std::io::Write;

/// Receives the stamped event stream. Implementations must be cheap per
/// call: the searches emit on their hot path.
pub trait EventSink {
    /// One event, in merge order.
    fn emit(&mut self, seq: u64, worker: u16, event: &SearchEvent<'_>);

    /// Push any buffered output to its destination. Called when a search
    /// ends and by [`super::Telemetry::flush`].
    fn flush(&mut self) {}
}

/// Streams rendered JSONL lines into a writer (buffered by the caller's
/// writer choice; `--trace-out` wraps a `BufWriter<File>`).
pub struct JsonlSink<W: Write> {
    out: W,
    buf: String,
    /// First write error, reported once on flush-by-drop paths instead
    /// of panicking the search.
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: String::with_capacity(128),
            error: None,
        }
    }

    /// The first I/O error the sink swallowed, if any.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flush and hand back the writer (tests read the bytes out).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, seq: u64, worker: u16, event: &SearchEvent<'_>) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        event.render(seq, worker, &mut self.buf);
        self.buf.push('\n');
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(depth: usize) -> SearchEvent<'static> {
        SearchEvent::Restore { depth }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(0, 0, &ev(1));
        sink.emit(1, 0, &ev(2));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"depth\":2"));
    }

    #[test]
    fn jsonl_sink_swallows_io_errors_once() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.emit(0, 0, &ev(0));
        sink.emit(1, 0, &ev(1));
        assert!(sink.io_error().is_some());
    }
}
