//! `rumba-obs` — deterministic control-loop telemetry for the Rumba
//! workspace.
//!
//! Rumba's contribution is an *online* loop (threshold tuner, recovery
//! queue, per-window quality estimate); this crate is how you watch it
//! run. It is std-only and strictly observational:
//!
//! - **Typed events** ([`Event`]): `window_end`, `cache`, `pool`,
//!   `calibration`, `run_summary` — one JSON object per line, with a
//!   bit-exact float codec ([`Event::parse`] inverts [`Event::to_jsonl`]).
//! - **Sinks** ([`EventSink`]): the control path holds a `dyn` sink and
//!   gates event construction on [`EventSink::enabled`], so the default
//!   [`NullSink`] path costs one constant-returning virtual call and the
//!   numeric results are byte-identical with telemetry on or off (the
//!   sink only observes — enforced by the `ci/fig10.golden` gate).
//! - **Metrics** ([`MetricsRegistry`]): cumulative counters, gauges, and
//!   histograms ([`metrics`] is the process-wide registry).
//! - **Spans** ([`span`]): scoped wall-clock timers feeding registry
//!   histograms only — never the event stream, which stays a pure
//!   function of the computation.
//! - **Report** ([`Report`]): folds a JSONL stream back into the
//!   per-window quality trace, threshold trajectory, fire rate, and
//!   cache/pool stats (`rumba report`).
//! - **Words** ([`words::WordReader`]): the one bounds-checked reader for
//!   the `u64` word streams that trained models and session snapshots
//!   are stored in.
//!
//! # The global sink
//!
//! Library code emits through [`global_sink`], which initializes lazily:
//! if `RUMBA_METRICS_OUT=<path.jsonl>` is set in the environment the
//! global sink is a [`JsonlSink`] on that path, otherwise a [`NullSink`].
//! The CLI's `--metrics-out` flag installs the same thing explicitly via
//! [`set_global_sink`]. Call [`finish_run`] (or hold a [`guard`]) to emit
//! the pool summary and flush before exit.
//!
//! # Examples
//!
//! ```
//! use rumba_obs::{Event, MemorySink, EventSink};
//!
//! let sink = MemorySink::new();
//! sink.emit(&Event::Cache { hit: true, key: "gaussian-s42".into() });
//! let line = sink.events()[0].to_jsonl();
//! assert_eq!(Event::parse(&line).unwrap(), sink.events()[0]);
//! ```

pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;
pub mod words;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

pub use event::Event;
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use report::{sparkline, Report};
pub use sink::{EventSink, JsonlSink, MemorySink, NullSink};
pub use span::{span, Span};

/// Environment variable that points the global sink at a JSONL file.
pub const METRICS_OUT_ENV: &str = "RUMBA_METRICS_OUT";

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: OnceLock<RwLock<Arc<dyn EventSink>>> = OnceLock::new();
static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Whether the global sink wants events. Instrumented code checks this
/// (one relaxed atomic load) before gathering event fields or touching
/// the registry, so disabled telemetry costs effectively nothing.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn sink_from_env() -> Arc<dyn EventSink> {
    match std::env::var(METRICS_OUT_ENV) {
        Ok(path) if !path.trim().is_empty() => match JsonlSink::create(path.trim()) {
            Ok(sink) => Arc::new(sink),
            Err(e) => {
                eprintln!("[obs] cannot open {METRICS_OUT_ENV}={path}: {e}; telemetry disabled");
                Arc::new(NullSink)
            }
        },
        _ => Arc::new(NullSink),
    }
}

fn sink_cell() -> &'static RwLock<Arc<dyn EventSink>> {
    SINK.get_or_init(|| {
        let sink = sink_from_env();
        ENABLED.store(sink.enabled(), Ordering::Relaxed);
        RwLock::new(sink)
    })
}

/// The process-wide event sink (shared handle). First use initializes
/// from `RUMBA_METRICS_OUT`; see the crate docs.
#[must_use]
pub fn global_sink() -> Arc<dyn EventSink> {
    sink_cell().read().expect("sink lock poisoned").clone()
}

/// Replaces the process-wide sink (the CLI's `--metrics-out`, tests).
pub fn set_global_sink(sink: Arc<dyn EventSink>) {
    let cell = sink_cell();
    ENABLED.store(sink.enabled(), Ordering::Relaxed);
    *cell.write().expect("sink lock poisoned") = sink;
}

/// Forces environment-based initialization of the global sink without
/// emitting anything. Binaries that never construct a `RumbaSystem` (the
/// figure harness) call this — or hold a [`guard`] — so
/// `RUMBA_METRICS_OUT` works for them too.
pub fn init_from_env() {
    let _ = sink_cell();
}

/// Emits the pool-usage summary event (from the metrics registry) and
/// flushes the global sink. Call once at the end of an instrumented
/// process; a no-op when telemetry is disabled.
pub fn finish_run() {
    let sink = global_sink();
    if !sink.enabled() {
        return;
    }
    let snap = metrics().snapshot();
    // The batched kernels record the dispatched ISA as a numeric gauge
    // (0 scalar / 1 avx2 / 2 neon — `rumba_nn::Isa::code`); a process that
    // never dispatched a batched kernel reports the scalar default.
    let isa = match snap.gauge("pool.simd_isa").unwrap_or(0.0) as u8 {
        1 => "avx2",
        2 => "neon",
        _ => "scalar",
    };
    sink.emit(&Event::Pool {
        maps: snap.counter("pool.maps"),
        chunks: snap.counter("pool.chunks"),
        threads: snap.gauge("pool.threads").unwrap_or(0.0) as u64,
        isa: isa.to_owned(),
        simd: isa != "scalar",
    });
    sink.flush();
}

/// RAII handle around [`init_from_env`] / [`finish_run`]: construct one
/// at the top of `main` and telemetry is initialized now and finalized
/// when it drops.
#[derive(Debug)]
#[must_use = "bind the guard to a variable so finish_run fires at scope end"]
pub struct ObsGuard(());

impl Drop for ObsGuard {
    fn drop(&mut self) {
        finish_run();
    }
}

/// Initializes telemetry from the environment and returns the guard that
/// finalizes it.
pub fn guard() -> ObsGuard {
    init_from_env();
    ObsGuard(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All global-state assertions live in this one test: parallel test
    /// threads would race on the process-wide enabled flag otherwise.
    #[test]
    fn global_sink_spans_and_finish_run() {
        // Default (no RUMBA_METRICS_OUT in the test environment): Null,
        // disabled, spans inert.
        init_from_env();
        assert!(!enabled());
        {
            let s = span("lib.test");
            assert_eq!(s.elapsed_ms(), None);
        }
        assert!(!metrics().snapshot().histograms.contains_key("span.lib.test.ms"));
        finish_run(); // no-op while disabled
                      // Install a memory sink: enabled flips, spans measure, finish_run
                      // emits the pool summary.
        let memory = Arc::new(MemorySink::new());
        set_global_sink(memory.clone());
        assert!(enabled());
        {
            let s = span("lib.test");
            assert!(s.elapsed_ms().is_some());
        }
        assert!(metrics().snapshot().histograms["span.lib.test.ms"].count >= 1);
        metrics().add("pool.maps", 3);
        metrics().add("pool.chunks", 12);
        metrics().set_gauge("pool.threads", 2.0);
        finish_run();
        let pools = memory.events_where(|e| matches!(e, Event::Pool { .. }));
        assert!(!pools.is_empty());
        if let Event::Pool { maps, chunks, threads, ref isa, simd } = pools[pools.len() - 1] {
            assert!(maps >= 3 && chunks >= 12);
            assert_eq!(threads, 2);
            // No batched kernel ran in this test, so the gauge is unset
            // and the summary reports the scalar default.
            assert_eq!(isa, "scalar");
            assert!(!simd);
        }
        // Restore the disabled default for any test scheduled after.
        set_global_sink(Arc::new(NullSink));
        assert!(!enabled());
    }
}
