//! Request execution for the serve workloads: one transport (in-process
//! `handle_line` or one lockstep TCP connection), per-invoke latency from
//! send to the drain that returned its result, lifecycle-op latency, and
//! the client-side output checks.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use rumba_obs::json::{parse_object, ObjectExt};
use rumba_serve::protocol::handle_line;
use rumba_serve::ServeRuntime;

use crate::gen::{render, restore_line, Op, Pool};
use crate::stats::Fnv;

/// Where request lines go.
pub trait Transport {
    /// Sends one request line and returns its complete response group.
    ///
    /// # Errors
    ///
    /// I/O failures of a socket transport.
    fn request(&mut self, line: &str, op: &str) -> io::Result<Vec<String>>;
}

/// The in-process transport: `handle_line` on one runtime.
#[derive(Debug, Default)]
pub struct InProc {
    pub rt: ServeRuntime,
}

impl Transport for InProc {
    fn request(&mut self, line: &str, _op: &str) -> io::Result<Vec<String>> {
        Ok(handle_line(&mut self.rt, line).0)
    }
}

/// One lockstep TCP connection: send a line, read its whole response
/// group, and only then send the next.
pub struct Tcp {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Tcp {
    /// Connects with Nagle off (every request is one small write).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }
}

impl Transport for Tcp {
    fn request(&mut self, line: &str, op: &str) -> io::Result<Vec<String>> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        let mut lines: Vec<String> = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"));
            }
            let line = buf.trim_end_matches(['\n', '\r']).to_owned();
            let first_is_error = lines.is_empty() && line.starts_with("{\"type\":\"error\"");
            // Multi-line groups end with the op's terminal line.
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

/// Per-session client state for the output checks.
#[derive(Debug, Default)]
struct Book {
    pool: usize,
    /// Pool row of every invoke sent, by stream index.
    rows: Vec<u32>,
    /// Results received so far (the next expected stream index).
    received: usize,
}

/// Everything the runs of a workload accumulate.
#[derive(Debug, Default)]
pub struct Tally {
    /// Invokes sent.
    pub attempted: u64,
    pub results: u64,
    pub shed: u64,
    /// Error lines answering invokes.
    pub invoke_errors: u64,
    /// Error lines answering any other op (never expected).
    pub other_errors: u64,
    /// Result lines out of their session's sequence, for an unknown
    /// session, or of the wrong output width.
    pub bad_results: u64,
    /// Invoke latencies, µs.
    pub latency_us: Vec<f64>,
    /// Lifecycle-op latencies (open, snapshot, restore, close), ms.
    pub lifecycle_ms: Vec<f64>,
    /// Quality accounting over the fixed prefix of units.
    pub quality_results: u64,
    pub quality_fired: u64,
    pub quality_error_sum: f64,
    /// Hash of every response line, in order.
    pub hash: Fnv,
    /// Per-unit (invocations, seconds), for the median-of-blocks rate.
    pub units: Vec<(u64, f64)>,
    /// Summed request time (send to full response) over every op.
    pub op_secs: f64,
}

impl Tally {
    /// Invokes that never got a result, were shed, or failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.results)
    }

    /// Whether results + shed + errors account for every invoke.
    #[must_use]
    pub fn identity_holds(&self) -> bool {
        self.results + self.shed + self.invoke_errors == self.attempted
    }
}

/// Drives op streams through a transport and checks what comes back.
#[derive(Debug)]
pub struct LoadGen {
    epoch: Instant,
    books: HashMap<String, Book>,
    /// Send times (µs since the run epoch) of invokes not yet drained;
    /// ordered, so a global drain books its latencies in a fixed order.
    pending: BTreeMap<String, Vec<f64>>,
    snapshots: HashMap<String, String>,
    pub tally: Tally,
}

impl Default for LoadGen {
    fn default() -> Self {
        Self::new()
    }
}

/// The stream index, `fired` flag and session of a result line, read
/// without a full JSON parse (the line starts
/// `{"type":"result","session":"NAME","index":N,"fired":B,`).
fn result_head(line: &str) -> Option<(&str, usize, bool)> {
    let rest = line.strip_prefix("{\"type\":\"result\",\"session\":\"")?;
    let (session, rest) = rest.split_once("\",\"index\":")?;
    let (index, rest) = rest.split_once(",\"fired\":")?;
    Some((session, index.parse().ok()?, rest.starts_with("true")))
}

impl LoadGen {
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            books: HashMap::new(),
            pending: BTreeMap::new(),
            snapshots: HashMap::new(),
            tally: Tally::default(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `ops` as one unit. With `quality` set, every result's output
    /// is checked against the exact kernel output and scored with the
    /// kernel's own metric (outside the timed span).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn run_unit(
        &mut self,
        tr: &mut dyn Transport,
        ops: &[Op],
        pools: &[Pool],
        quality: bool,
    ) -> io::Result<()> {
        let lines: Vec<Option<String>> = ops.iter().map(|op| render(op, pools)).collect();
        let mut responses: Vec<Vec<String>> = Vec::with_capacity(ops.len());
        let mut invokes = 0u64;
        let start = Instant::now();
        for (op, line) in ops.iter().zip(&lines) {
            let restore;
            let line = match (op, line) {
                (_, Some(line)) => line.as_str(),
                (Op::Restore { session, from }, None) => {
                    let state = self.snapshots.get(from).map_or("", String::as_str);
                    restore = restore_line(session, state);
                    restore.as_str()
                }
                _ => unreachable!("only restores render late"),
            };
            let sent = self.now_us();
            let reply = tr.request(line, op.kind())?;
            let done = self.now_us();
            self.tally.op_secs += (done - sent) / 1e6;
            self.after(op, sent, done, &reply);
            if let Op::Invoke { .. } = op {
                invokes += 1;
            }
            responses.push(reply);
        }
        self.tally.units.push((invokes, start.elapsed().as_secs_f64()));
        self.check(ops, &responses, pools, quality);
        Ok(())
    }

    /// Timing bookkeeping right after one op returns.
    fn after(&mut self, op: &Op, sent: f64, done: f64, reply: &[String]) {
        match op {
            Op::Invoke { session, .. } => {
                self.pending.entry(session.clone()).or_default().push(sent);
                self.tally.attempted += 1;
            }
            Op::Drain { session } => {
                let lat = &mut self.tally.latency_us;
                let settle = |pending: &mut Vec<f64>| {
                    lat.extend(pending.drain(..).map(|t| done - t));
                };
                match session {
                    Some(s) => self.pending.get_mut(s).into_iter().for_each(settle),
                    None => self.pending.values_mut().for_each(settle),
                }
            }
            _ => {
                self.tally.lifecycle_ms.push((done - sent) / 1e3);
                if let Op::Snapshot { session } = op {
                    let state = reply
                        .first()
                        .and_then(|l| parse_object(l).ok())
                        .and_then(|obj| obj.string("state").map(str::to_owned));
                    self.snapshots.insert(session.clone(), state.unwrap_or_default());
                }
            }
        }
    }

    /// Accounting, ordering and (optionally) quality checks over one
    /// unit's responses.
    fn check(&mut self, ops: &[Op], responses: &[Vec<String>], pools: &[Pool], quality: bool) {
        let mut exact = Vec::new();
        for (op, reply) in ops.iter().zip(responses) {
            match op {
                Op::Invoke { session, pool, row } => {
                    let book = self.books.entry(session.clone()).or_default();
                    book.pool = *pool;
                    book.rows.push(*row as u32);
                }
                // The restored session continues the source's stream:
                // same rows, same next index.
                Op::Restore { session, from } => {
                    if let Some(book) = self.books.remove(from) {
                        self.books.insert(session.clone(), book);
                    }
                    self.snapshots.remove(from);
                }
                _ => {}
            }
            for line in reply {
                self.tally.hash.line(line.as_bytes());
                if let Some((session, index, fired)) = result_head(line) {
                    self.tally.results += 1;
                    let Some(book) = self.books.get_mut(session) else {
                        self.tally.bad_results += 1;
                        continue;
                    };
                    if index != book.received || index >= book.rows.len() {
                        self.tally.bad_results += 1;
                        continue;
                    }
                    book.received += 1;
                    if quality {
                        let pool = &pools[book.pool];
                        let input = pool.data.input(book.rows[index] as usize);
                        exact.resize(pool.kernel.output_dim(), 0.0);
                        pool.kernel.compute(input, &mut exact);
                        let output = parse_object(line)
                            .ok()
                            .and_then(|obj| obj.numbers("output"))
                            .unwrap_or_default();
                        if output.len() != exact.len() {
                            self.tally.bad_results += 1;
                            continue;
                        }
                        self.tally.quality_results += 1;
                        self.tally.quality_fired += u64::from(fired);
                        self.tally.quality_error_sum +=
                            pool.kernel.metric().invocation_error(&exact, &output);
                    }
                } else if line.starts_with("{\"type\":\"shed\"") {
                    self.tally.shed += 1;
                } else if line.starts_with("{\"type\":\"error\"") {
                    if matches!(op, Op::Invoke { .. }) {
                        self.tally.invoke_errors += 1;
                    } else {
                        self.tally.other_errors += 1;
                    }
                }
            }
        }
    }

    /// Whether every session's results so far match its invokes one for
    /// one (nothing outstanding, nothing out of order).
    #[must_use]
    pub fn settled(&self) -> bool {
        self.tally.bad_results == 0
            && self.books.values().all(|b| b.received == b.rows.len())
            && self.pending.values().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_heads_parse_without_json() {
        let line = "{\"type\":\"result\",\"session\":\"a-1\",\"index\":12,\"fired\":true,\"predicted\":0.1}";
        assert_eq!(result_head(line), Some(("a-1", 12, true)));
        assert_eq!(result_head("{\"type\":\"ack\",\"op\":\"drain\"}"), None);
    }

    #[test]
    fn accounting_identity_counts_every_invoke() {
        let mut t =
            Tally { attempted: 10, results: 7, shed: 2, invoke_errors: 1, ..Tally::default() };
        assert!(t.identity_holds());
        assert_eq!(t.failed(), 3);
        t.results = 6;
        assert!(!t.identity_holds(), "an invoke with no outcome breaks the identity");
    }
}
