//! Seeded multi-tenant workload replay behind `rumba bench-serve`.
//!
//! [`run_trace`] drives the full NDJSON protocol with a deterministic
//! interleaved workload and returns the response stream verbatim — that
//! stream is the conformance artifact (`ci/serve_trace.golden`): every
//! float in it is shortest-round-trip formatted, so a byte-diff against
//! the golden file is a bitwise conformance check of the whole serving
//! layer at any thread count. [`run_net_trace`] replays the same schedule
//! over real TCP (`ci/serve_net.golden`). Timing is kept out of both; the
//! repository's benchmark of record lives in `perfbench/`.

use std::fmt::Write as _;

use rumba_apps::{kernel_by_name, Split};
use rumba_core::event_sim::QueueConfig;
use rumba_core::tuner::TuningMode;
use rumba_faults::FaultPlan;
use rumba_obs::json::JsonWriter;

use crate::client::Client;
use crate::config::{open_line, AdmissionPolicy, CheckerKind, SessionConfig};
use crate::protocol::handle_line;
use crate::registry::ServeRuntime;
use crate::transport::NetServer;
use crate::ServeError;

/// Workload shape for one trace replay.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Master seed: datasets, schedule shuffle and injected faults.
    pub seed: u64,
    /// Number of concurrent tenants (sessions).
    pub tenants: usize,
    /// Requests submitted per tenant.
    pub requests: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self { seed: 7, tenants: 3, requests: 40 }
    }
}

/// Deterministic side-channel counters collected while replaying a trace
/// (the trace itself stays the source of truth for conformance).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Requests submitted across all tenants.
    pub submitted: u64,
    /// Requests that completed the pipeline.
    pub processed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that forced a blocking drain.
    pub blocked: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The benchmark's tenant profiles: three deliberately different
/// configurations so the trace exercises shed and block admission, both
/// tuning families, distinct checkers, and per-session fault isolation
/// (only the third profile injects faults).
#[must_use]
pub fn profile(tenant: usize, seed: u64) -> SessionConfig {
    let (checker, mode, queue, admission) = match tenant % 3 {
        0 => {
            (CheckerKind::Tree, TuningMode::TargetQuality { toq: 0.95 }, 12, AdmissionPolicy::Shed)
        }
        1 => {
            (CheckerKind::Linear, TuningMode::EnergyBudget { budget: 6 }, 4, AdmissionPolicy::Block)
        }
        _ => (CheckerKind::Ema, TuningMode::TargetQuality { toq: 0.9 }, 6, AdmissionPolicy::Shed),
    };
    // The third profile's queue-pressure fault collapses its queue bound
    // mid-stream, so 503-style sheds deterministically appear in the
    // conformance trace.
    let spec = "non_finite=0.05,queue_pressure=16:5";
    let faults = (tenant % 3 == 2).then(|| FaultPlan::parse(seed, spec).expect("a valid spec"));
    SessionConfig {
        seed,
        checker,
        mode,
        window: 16,
        queue: QueueConfig { input_capacity: queue, ..QueueConfig::default() },
        admission,
        faults,
        ..SessionConfig::default()
    }
}

fn invoke_line(tenant: usize, input: &[f64]) -> String {
    let mut w = JsonWriter::request();
    w.string("op", "invoke").string("session", &format!("tenant-{tenant}")).floats("input", input);
    w.finish()
}

/// Drives the seeded workload: opens every tenant, submits the shuffled
/// request schedule with periodic drains, then queries stats and shuts
/// down. `send(client, line, op)` delivers one request for the named
/// client (global ops go through client 0) and returns its responses.
fn drive_workload(
    cfg: BenchConfig,
    mut send: impl FnMut(usize, &str, &str) -> Result<Vec<String>, ServeError>,
) -> Result<(), ServeError> {
    let kernel = kernel_by_name("gaussian")
        .ok_or_else(|| ServeError::UnknownKernel("gaussian".to_owned()))?;
    let dataset = kernel.generate(Split::Test, cfg.seed);
    let n = dataset.len();

    for t in 0..cfg.tenants {
        let lines = send(t, &open_line(&format!("tenant-{t}"), &profile(t, cfg.seed)), "open")?;
        if lines.first().is_some_and(|l| l.starts_with("{\"type\":\"error\"")) {
            return Err(ServeError::InvalidConfig(lines[0].clone()));
        }
    }

    // Deterministic interleave: each tenant appears exactly `requests`
    // times; Fisher–Yates over the schedule keyed off the seed.
    let mut schedule: Vec<usize> =
        (0..cfg.tenants * cfg.requests).map(|i| i % cfg.tenants).collect();
    for i in (1..schedule.len()).rev() {
        let j = (splitmix(cfg.seed ^ (i as u64).wrapping_mul(0x9E37)) % (i as u64 + 1)) as usize;
        schedule.swap(i, j);
    }

    let mut next_row = vec![0usize; cfg.tenants];
    for (step, &tenant) in schedule.iter().enumerate() {
        let row = (tenant * 997 + next_row[tenant]) % n.max(1);
        next_row[tenant] += 1;
        send(tenant, &invoke_line(tenant, dataset.input(row)), "invoke")?;
        // Multiplexed scheduling round every nine submissions — slow
        // enough that bursts fill the smaller tenant queues, so shed and
        // block admission both appear in the conformance trace — plus a
        // solo drain of tenant 0 on a coprime cadence so both scheduler
        // paths stay covered.
        if step % 9 == 8 {
            send(0, "{\"op\":\"drain\"}", "drain")?;
        } else if step % 13 == 12 {
            send(0, "{\"op\":\"drain\",\"session\":\"tenant-0\"}", "drain")?;
        }
    }

    for t in 0..cfg.tenants {
        send(t, &format!("{{\"op\":\"stats\",\"session\":\"tenant-{t}\"}}"), "stats")?;
    }
    send(0, "{\"op\":\"shutdown\"}", "shutdown")?;
    Ok(())
}

/// Replays the seeded workload through the protocol layer, appending every
/// response line to the returned trace.
///
/// # Errors
///
/// Fails only if a tenant cannot be opened (trace-level errors surface as
/// `error` response lines instead, so they land in the golden diff).
pub fn run_trace(cfg: BenchConfig) -> Result<(String, TraceStats), ServeError> {
    let mut rt = ServeRuntime::new();
    let mut trace = String::new();
    let mut stats = TraceStats::default();
    drive_workload(cfg, |_, line, op| {
        match op {
            "invoke" => stats.submitted += 1,
            // Shutdown drains the remainder; fold those into `processed`
            // so the side-channel counters match the closed lines.
            "shutdown" => {
                for t in 0..cfg.tenants {
                    if let Some(session) = rt.session(&format!("tenant-{t}")) {
                        let s = session.stats();
                        stats.processed += s.processed + session.queue_depth() as u64;
                        stats.shed += s.shed;
                        stats.blocked += s.blocked;
                    }
                }
            }
            _ => {}
        }
        let (lines, _) = handle_line(&mut rt, line);
        for line in &lines {
            trace.push_str(line);
            trace.push('\n');
        }
        Ok(lines)
    })?;
    Ok((trace, stats))
}

fn net_io(e: std::io::Error) -> ServeError {
    ServeError::Runtime(format!("net bench I/O: {e}"))
}

/// Replays the [`run_trace`] workload over real TCP: one in-process
/// sharded [`NetServer`], one client connection per tenant, the same
/// seeded schedule driven in lockstep (global ops go through client 0).
/// Each response line is prefixed with `[c<i>] ` naming the connection
/// that observed it — stripped of prefixes, the trace is byte-identical
/// to the in-process [`run_trace`] trace at any shard count, which is
/// what `ci/serve_net.golden` pins.
///
/// # Errors
///
/// Fails on connection errors or when a tenant cannot be opened.
pub fn run_net_trace(cfg: BenchConfig, shards: usize) -> Result<String, ServeError> {
    let server = NetServer::bind_tcp("127.0.0.1:0", shards).map_err(net_io)?;
    let addr = server.addr().to_owned();
    let mut clients = Vec::with_capacity(cfg.tenants);
    for _ in 0..cfg.tenants.max(1) {
        clients.push(Client::connect(&addr).map_err(net_io)?);
    }

    let mut trace = String::new();
    drive_workload(cfg, |client, line, op| {
        let lines = clients[client].request(line, op).map_err(net_io)?;
        for line in &lines {
            let _ = writeln!(trace, "[c{client}] {line}");
        }
        Ok(lines)
    })?;

    drop(clients);
    server.join().map_err(net_io)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible_for_a_seed() {
        let cfg = BenchConfig { seed: 11, tenants: 2, requests: 8 };
        let (a, stats_a) = run_trace(cfg).unwrap();
        let (b, stats_b) = run_trace(cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "JSONL shape");
        assert!(!a.contains("\"type\":\"error\""), "clean trace:\n{a}");
    }

    #[test]
    fn different_seeds_change_the_trace() {
        let (a, _) = run_trace(BenchConfig { seed: 1, tenants: 2, requests: 6 }).unwrap();
        let (b, _) = run_trace(BenchConfig { seed: 2, tenants: 2, requests: 6 }).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn every_submitted_request_is_processed_or_shed() {
        let cfg = BenchConfig { seed: 7, tenants: 3, requests: 20 };
        let (trace, stats) = run_trace(cfg).unwrap();
        assert_eq!(stats.submitted, (cfg.tenants * cfg.requests) as u64);
        assert_eq!(stats.processed + stats.shed, stats.submitted, "trace:\n{trace}");
        assert!(trace.contains("\"type\":\"closed\""));
    }

    #[test]
    fn net_trace_matches_the_solo_trace_at_any_shard_count() {
        let cfg = BenchConfig { seed: 11, tenants: 2, requests: 8 };
        let (solo, _) = run_trace(cfg).unwrap();
        for shards in [1, 2] {
            let net = run_net_trace(cfg, shards).unwrap();
            let stripped: String = net
                .lines()
                .map(|l| l.split_once(' ').expect("prefixed line").1)
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
            assert_eq!(stripped, solo, "shards={shards}");
        }
    }
}
