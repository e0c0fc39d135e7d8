//! Event sinks: where telemetry goes.
//!
//! The control path holds a `dyn EventSink` and checks
//! [`EventSink::enabled`] before building an event, so the disabled
//! ([`NullSink`]) path costs one virtual call returning a constant —
//! instrumentation never perturbs results either way, because sinks only
//! observe.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::event::Event;

/// A destination for telemetry events.
///
/// Implementations must be cheap to call and must never influence the
/// computation they observe. `emit` takes `&self`: sinks use interior
/// mutability so one sink can be shared across the runtime, the cache,
/// and the pool.
pub trait EventSink: Send + Sync + std::fmt::Debug {
    /// Records one event.
    fn emit(&self, event: &Event);

    /// Whether emitting is worthwhile at all. Instrumented code gates
    /// event *construction* on this, so a disabled sink skips even the
    /// field gathering.
    fn enabled(&self) -> bool {
        true
    }

    /// Forces buffered events out (a no-op for unbuffered sinks).
    fn flush(&self) {}
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything emitted so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous emitter panicked while holding the lock.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("sink lock poisoned").clone()
    }

    /// The emitted events matching `keep`.
    #[must_use]
    pub fn events_where(&self, keep: impl Fn(&Event) -> bool) -> Vec<Event> {
        self.events().into_iter().filter(keep).collect()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().expect("sink lock poisoned").push(event.clone());
    }
}

/// A buffered JSONL file sink: one event per line, flushed after every
/// emit so a crash (or the global sink never being dropped at process
/// exit) cannot truncate mid-line or lose the tail. Event rate on the
/// instrumented path is per-window, not per-iteration, so the flush cost
/// is irrelevant.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`. Its directory must
    /// exist: a mistyped path fails here and leaves nothing behind.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self { path, writer: Mutex::new(BufWriter::new(file)) })
    }

    /// Where this sink writes.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut w = self.writer.lock().expect("sink lock poisoned");
        // Failures (disk full, closed fd) must never fail the observed
        // computation; telemetry is best-effort by contract.
        let _ = writeln!(w, "{}", event.to_jsonl());
        let _ = w.flush();
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("sink lock poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(&Event::Cache { hit: true, key: "k".into() });
        sink.flush();
    }

    fn pool_sample() -> Event {
        Event::Pool { maps: 1, chunks: 2, threads: 3, isa: "scalar".into(), simd: false }
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        assert!(sink.enabled());
        sink.emit(&pool_sample());
        sink.emit(&Event::Cache { hit: false, key: "x".into() });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], pool_sample());
        assert_eq!(sink.events_where(|e| matches!(e, Event::Cache { .. })).len(), 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("rumba-obs-sink-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        let events = [
            Event::Cache { hit: true, key: "a".into() },
            Event::Calibration { samples: 10, sanitized: 1, threshold: 0.25 },
        ];
        for e in &events {
            sink.emit(e);
        }
        sink.flush();
        let text = std::fs::read_to_string(sink.path()).unwrap();
        let parsed: Vec<Event> =
            text.lines().map(|l| Event::parse(l).expect("valid line")).collect();
        assert_eq!(parsed, events);
        let _ = std::fs::remove_file(&path);
    }
}
