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
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use rumba_apps::{kernel_by_name, Split};
use rumba_obs::json::JsonWriter;

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
fn open_line(tenant: usize, seed: u64) -> String {
    let name = format!("tenant-{tenant}");
    match tenant % 3 {
        0 => format!(
            "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":{seed},\
             \"checker\":\"tree\",\"mode\":\"toq\",\"toq\":0.95,\"window\":16,\"queue\":12,\
             \"admission\":\"shed\"}}"
        ),
        1 => format!(
            "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":{seed},\
             \"checker\":\"linear\",\"mode\":\"energy\",\"budget\":6,\"window\":16,\"queue\":4,\
             \"admission\":\"block\"}}"
        ),
        // The third profile's queue-pressure fault collapses its queue
        // bound mid-stream, so 503-style sheds deterministically appear
        // in the conformance trace.
        _ => format!(
            "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":{seed},\
             \"checker\":\"ema\",\"mode\":\"toq\",\"toq\":0.9,\"window\":16,\"queue\":6,\
             \"admission\":\"shed\",\"faults\":\"non_finite=0.05,queue_pressure=16:5\",\
             \"fault_seed\":{seed}}}"
        ),
    }
}

fn invoke_line(tenant: usize, input: &[f64]) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "invoke").string("session", &format!("tenant-{tenant}")).floats("input", input);
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

/// Replays the seeded workload through the protocol layer, appending every
/// response line to the returned trace.
///
/// # Errors
///
/// Fails only if a tenant cannot be opened (trace-level errors surface as
/// `error` response lines instead, so they land in the golden diff).
pub fn run_trace(cfg: BenchConfig) -> Result<(String, TraceStats), ServeError> {
    let kernel = kernel_by_name("gaussian")
        .ok_or_else(|| ServeError::UnknownKernel("gaussian".to_owned()))?;
    let dataset = kernel.generate(Split::Test, cfg.seed);
    let n = dataset.len();

    let mut rt = ServeRuntime::new();
    let mut trace = String::new();
    let mut stats = TraceStats::default();
    let emit = |trace: &mut String, lines: Vec<String>| {
        for line in lines {
            trace.push_str(&line);
            trace.push('\n');
        }
    };

    for t in 0..cfg.tenants {
        let (lines, _) = handle_line(&mut rt, &open_line(t, cfg.seed));
        if lines.first().is_some_and(|l| l.starts_with("{\"type\":\"error\"")) {
            return Err(ServeError::InvalidConfig(lines[0].clone()));
        }
        emit(&mut trace, lines);
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
        let (lines, _) = handle_line(&mut rt, &invoke_line(tenant, dataset.input(row)));
        emit(&mut trace, lines);
        stats.submitted += 1;
        // Multiplexed scheduling round every nine submissions — slow
        // enough that bursts fill the smaller tenant queues, so shed and
        // block admission both appear in the conformance trace — plus a
        // solo drain of tenant 0 on a coprime cadence so both scheduler
        // paths stay covered.
        if step % 9 == 8 {
            let (lines, _) = handle_line(&mut rt, "{\"op\":\"drain\"}");
            emit(&mut trace, lines);
        } else if step % 13 == 12 {
            let (lines, _) = handle_line(&mut rt, "{\"op\":\"drain\",\"session\":\"tenant-0\"}");
            emit(&mut trace, lines);
        }
    }

    for t in 0..cfg.tenants {
        let line = format!("{{\"op\":\"stats\",\"session\":\"tenant-{t}\"}}");
        let (lines, _) = handle_line(&mut rt, &line);
        emit(&mut trace, lines);
        if let Some(session) = rt.session(&format!("tenant-{t}")) {
            let s = session.stats();
            stats.processed += s.processed;
            stats.shed += s.shed;
            stats.blocked += s.blocked;
        }
    }
    // Shutdown drains the remainder; fold those into `processed` so the
    // side-channel counters match the closed lines in the trace.
    let queued: u64 = (0..cfg.tenants)
        .filter_map(|t| rt.session(&format!("tenant-{t}")))
        .map(|s| s.queue_depth() as u64)
        .sum();
    stats.processed += queued;
    let (lines, _) = handle_line(&mut rt, "{\"op\":\"shutdown\"}");
    emit(&mut trace, lines);

    Ok((trace, stats))
}

/// One lockstep TCP client in a [`run_net_trace`] replay: sends a request
/// line and reads the complete response group before the driver moves on,
/// so the multi-connection trace is exactly as deterministic as the
/// in-process one.
struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl NetClient {
    fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: stream })
    }

    /// Sends one request and reads its full response group. Most ops
    /// answer with exactly one line; `drain`, `close` and `shutdown`
    /// stream result lines first, so their replies are read up to the
    /// op's terminal line (route-level failures answer with a single
    /// `error` line instead).
    fn request(&mut self, line: &str, op: &str) -> std::io::Result<Vec<String>> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut lines: Vec<String> = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Ok(lines);
            }
            let line = buf.trim_end_matches(['\n', '\r']).to_owned();
            let first_is_error = lines.is_empty() && line.starts_with("{\"type\":\"error\"");
            let terminal = match op {
                "drain" => line.starts_with("{\"type\":\"ack\",\"op\":\"drain\""),
                "close" => line.starts_with("{\"type\":\"closed\""),
                "shutdown" => line.starts_with("{\"type\":\"ack\",\"op\":\"shutdown\""),
                _ => true,
            };
            lines.push(line);
            if terminal || first_is_error {
                return Ok(lines);
            }
        }
    }
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
    let kernel = kernel_by_name("gaussian")
        .ok_or_else(|| ServeError::UnknownKernel("gaussian".to_owned()))?;
    let dataset = kernel.generate(Split::Test, cfg.seed);
    let n = dataset.len();

    let server = NetServer::bind_tcp("127.0.0.1:0", shards).map_err(net_io)?;
    let addr = server.addr().to_owned();
    let mut clients: Vec<NetClient> = Vec::with_capacity(cfg.tenants);
    for _ in 0..cfg.tenants.max(1) {
        clients.push(NetClient::connect(&addr).map_err(net_io)?);
    }

    let mut trace = String::new();
    let emit = |trace: &mut String, client: usize, lines: &[String]| {
        for line in lines {
            let _ = writeln!(trace, "[c{client}] {line}");
        }
    };

    for (t, client) in clients.iter_mut().enumerate().take(cfg.tenants) {
        let lines = client.request(&open_line(t, cfg.seed), "open").map_err(net_io)?;
        if lines.first().is_some_and(|l| l.starts_with("{\"type\":\"error\"")) {
            return Err(ServeError::InvalidConfig(lines[0].clone()));
        }
        emit(&mut trace, t, &lines);
    }

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
        let lines = clients[tenant]
            .request(&invoke_line(tenant, dataset.input(row)), "invoke")
            .map_err(net_io)?;
        emit(&mut trace, tenant, &lines);
        if step % 9 == 8 {
            let lines = clients[0].request("{\"op\":\"drain\"}", "drain").map_err(net_io)?;
            emit(&mut trace, 0, &lines);
        } else if step % 13 == 12 {
            let lines = clients[0]
                .request("{\"op\":\"drain\",\"session\":\"tenant-0\"}", "drain")
                .map_err(net_io)?;
            emit(&mut trace, 0, &lines);
        }
    }

    for (t, client) in clients.iter_mut().enumerate().take(cfg.tenants) {
        let line = format!("{{\"op\":\"stats\",\"session\":\"tenant-{t}\"}}");
        let lines = client.request(&line, "stats").map_err(net_io)?;
        emit(&mut trace, t, &lines);
    }
    let lines = clients[0].request("{\"op\":\"shutdown\"}", "shutdown").map_err(net_io)?;
    emit(&mut trace, 0, &lines);

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
