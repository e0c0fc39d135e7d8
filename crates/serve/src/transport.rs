//! Network transports for `rumba serve`: TCP and Unix-socket listeners
//! that fan client connections into the shard pool.
//!
//! Both transports share one path: a non-blocking acceptor thread polls
//! the listener and spawns a detached thread per connection; each
//! connection thread reads newline-delimited requests with a hard line
//! cap ([`MAX_LINE`]) and forwards them to the shared [`Router`], so a
//! malformed, oversized or torn line costs only its own connection —
//! never the shard or other clients. The same request loop serves
//! `rumba serve` on stdio and writes each request's responses at once.
//!
//! The Unix transport owns its socket file via an RAII guard: the path
//! is unlinked when the server is joined or dropped (including on error
//! paths), so a clean `shutdown` no longer leaves a stale socket behind.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rumba_obs::Event;

use crate::protocol::error_line;
use crate::shard::Router;

/// Hard cap on one request line, in bytes (newline excluded). Longer
/// lines are consumed and answered with a single `error` response
/// instead of buffering without bound.
pub const MAX_LINE: usize = 256 * 1024;

/// Outcome of reading one capped line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line within the cap (terminator stripped).
    Line(String),
    /// The stream ended mid-line: the unterminated tail (an abrupt
    /// client disconnect on sockets; a final line without `\n` on stdin).
    Partial(String),
    /// The line exceeded `cap` bytes; its payload was consumed and
    /// discarded up to and including the next newline (or EOF).
    Oversized,
    /// Clean end of stream at a line boundary.
    Eof,
}

/// Reads one `\n`-terminated line of at most `cap` bytes. A trailing
/// `\r` is stripped (matching [`BufRead::lines`]), and oversized input
/// is drained rather than buffered, so a hostile client cannot grow
/// server memory past the cap.
///
/// # Errors
///
/// Propagates reader I/O failures other than `Interrupted`.
pub fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF.
            if oversized {
                return Ok(LineRead::Oversized);
            }
            if buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            strip_cr(&mut buf);
            return Ok(LineRead::Partial(String::from_utf8_lossy(&buf).into_owned()));
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if !oversized && buf.len() + pos <= cap {
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                strip_cr(&mut buf);
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            reader.consume(pos + 1);
            return Ok(LineRead::Oversized);
        }
        let len = chunk.len();
        if !oversized {
            if buf.len() + len > cap {
                oversized = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        reader.consume(len);
    }
}

fn strip_cr(buf: &mut Vec<u8>) {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
}

/// What [`request_loop`] does with a final line that has no newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TornTail {
    /// Execute it, like [`BufRead::lines`] (stdin scripts).
    Execute,
    /// Discard it: on a socket it is a request torn by a disconnect.
    Discard,
}

/// Answers newline-delimited requests from `reader` with `handle` until
/// EOF, an I/O failure, or `handle` returns `true` (stop). Returns the
/// number of requests answered and whether `handle` stopped the loop.
/// Oversized lines are answered in-band; blank lines are skipped.
///
/// Each request's responses (an ack, or all result lines plus the drain
/// ack) go out in one `write_all` right after it is handled, so a
/// lockstep client gets each whole response in one write.
///
/// # Errors
///
/// Propagates I/O failures from the reader or writer.
pub(crate) fn request_loop(
    reader: impl Read,
    writer: &mut impl Write,
    torn_tail: TornTail,
    mut handle: impl FnMut(&str) -> (Vec<String>, bool),
) -> io::Result<(u64, bool)> {
    let mut reader = BufReader::new(reader);
    let mut out: Vec<u8> = Vec::new();
    let (mut requests, mut stopped, mut last) = (0u64, false, false);
    while !(stopped || last) {
        let read = read_line_capped(&mut reader, MAX_LINE)?;
        last = matches!(read, LineRead::Partial(_));
        let responses = match read {
            LineRead::Eof => break,
            LineRead::Partial(_) if torn_tail == TornTail::Discard => break,
            LineRead::Oversized => {
                vec![error_line("parse", &format!("line exceeds {MAX_LINE} bytes"))]
            }
            LineRead::Line(line) | LineRead::Partial(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let (responses, stop) = handle(&line);
                stopped = stop;
                responses
            }
        };
        requests += 1;
        out.clear();
        for response in &responses {
            out.extend_from_slice(response.as_bytes());
            out.push(b'\n');
        }
        writer.write_all(&out)?;
        writer.flush()?;
    }
    Ok((requests, stopped))
}

/// Unlinks the Unix socket path when the server winds down, including on
/// panic and error paths.
#[derive(Debug)]
struct SocketGuard(PathBuf);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A running network server: acceptor thread + shard pool behind one
/// [`Router`].
#[derive(Debug)]
pub struct NetServer {
    addr: String,
    router: Arc<Router>,
    acceptor: JoinHandle<io::Result<u64>>,
    socket_guard: Option<SocketGuard>,
}

impl NetServer {
    /// Binds a TCP listener (use port `:0` for an ephemeral port; the
    /// resolved address is [`NetServer::addr`]) over `shards` shard
    /// threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_tcp(addr: &str, shards: usize) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        let router = Arc::new(Router::new(shards));
        let acceptor = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                accept_loop(&router, "tcp", || match listener.accept() {
                    Ok((stream, _)) => {
                        // Request/response round trips on a Nagle'd socket
                        // stall ~40ms each on the delayed-ACK timer.
                        stream.set_nodelay(true)?;
                        let reader = stream.try_clone()?;
                        Ok(Some((reader, stream)))
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                    Err(e) => Err(e),
                })
            })
        };
        Ok(Self { addr, router, acceptor, socket_guard: None })
    }

    /// Binds a Unix-socket listener at `path` over `shards` shard
    /// threads. A stale socket file from a crashed predecessor is
    /// unlinked before binding, and the file is removed again when the
    /// server winds down.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_unix(path: &str, shards: usize) -> io::Result<Self> {
        // Rebind fallback: clear a stale socket left by a crashed server.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let guard = SocketGuard(PathBuf::from(path));
        listener.set_nonblocking(true)?;
        let router = Arc::new(Router::new(shards));
        let acceptor = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                accept_loop(&router, "unix", || match listener.accept() {
                    Ok((stream, _)) => {
                        let reader = stream.try_clone()?;
                        Ok(Some((reader, stream)))
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                    Err(e) => Err(e),
                })
            })
        };
        Ok(Self { addr: path.to_owned(), router, acceptor, socket_guard: Some(guard) })
    }

    /// The bound address: `host:port` for TCP, the socket path for Unix.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The shared router (e.g. for in-process requests or tests).
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Waits for the acceptor to stop (a client sent `shutdown`) and
    /// returns the number of connections served. The Unix socket file, if
    /// any, is unlinked here.
    ///
    /// # Errors
    ///
    /// Propagates listener I/O failures from the acceptor thread.
    pub fn join(self) -> io::Result<u64> {
        let served =
            self.acceptor.join().map_err(|_| io::Error::other("acceptor thread panicked"))??;
        drop(self.socket_guard);
        Ok(served)
    }
}

/// Polls `accept` until the router closes (a `shutdown` was processed),
/// spawning a detached thread per connection. Returns the number of
/// connections accepted.
fn accept_loop<S, F>(
    router: &Arc<Router>,
    transport: &'static str,
    mut accept: F,
) -> io::Result<u64>
where
    S: Read + Write + Send + 'static,
    F: FnMut() -> io::Result<Option<(S, S)>>,
{
    static CONNECTION_ID: AtomicU64 = AtomicU64::new(0);
    let mut served = 0u64;
    while !router.is_closed() {
        match accept()? {
            Some((reader, writer)) => {
                served += 1;
                let id = CONNECTION_ID.fetch_add(1, Ordering::Relaxed);
                let router = Arc::clone(router);
                std::thread::spawn(move || {
                    if rumba_obs::enabled() {
                        rumba_obs::global_sink().emit(&Event::Connection {
                            id,
                            transport: transport.to_owned(),
                            action: "accept".to_owned(),
                            requests: 0,
                        });
                    }
                    let mut writer = writer;
                    let requests = request_loop(reader, &mut writer, TornTail::Discard, |line| {
                        (router.route(line), false)
                    })
                    .map_or(0, |(requests, _)| requests);
                    if rumba_obs::enabled() {
                        rumba_obs::global_sink().emit(&Event::Connection {
                            id,
                            transport: transport.to_owned(),
                            action: "close".to_owned(),
                            requests,
                        });
                    }
                });
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::os::unix::net::UnixStream;
    use std::rc::Rc;

    use super::*;
    use crate::client::Client;

    fn read_all(input: &str, cap: usize) -> Vec<LineRead> {
        let mut reader = io::BufReader::new(input.as_bytes());
        let mut out = Vec::new();
        loop {
            let item = read_line_capped(&mut reader, cap).unwrap();
            let done = item == LineRead::Eof;
            out.push(item);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn capped_reader_matches_lines_for_well_formed_input() {
        let got = read_all("alpha\nbeta\r\n\ngamma", 64);
        assert_eq!(
            got,
            vec![
                LineRead::Line("alpha".into()),
                LineRead::Line("beta".into()),
                LineRead::Line(String::new()),
                LineRead::Partial("gamma".into()),
                LineRead::Eof,
            ]
        );
    }

    #[test]
    fn oversized_lines_are_drained_not_buffered() {
        let long = "x".repeat(100);
        let input = format!("{long}\nshort\n");
        let got = read_all(&input, 16);
        assert_eq!(got, vec![LineRead::Oversized, LineRead::Line("short".into()), LineRead::Eof]);
        // Oversized tail without a newline drains to EOF.
        assert_eq!(read_all(&long, 16), vec![LineRead::Oversized, LineRead::Eof]);
        // Exactly at the cap still passes.
        assert_eq!(read_all("abcd\n", 4), vec![LineRead::Line("abcd".into()), LineRead::Eof]);
        // One past the cap does not.
        assert_eq!(read_all("abcde\n", 4), vec![LineRead::Oversized, LineRead::Eof]);
    }

    /// What the loop did, in order: a `read` returning that many bytes,
    /// or one `write` call with its bytes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Io {
        Read(usize),
        Write(String),
    }

    /// Hands out one scripted chunk per `read` call (a chunk larger than
    /// the caller's buffer takes several), logging each read.
    struct Chunks {
        chunks: VecDeque<Vec<u8>>,
        log: Rc<RefCell<Vec<Io>>>,
    }

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = match self.chunks.front_mut() {
                None => 0,
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.pop_front();
                    }
                    n
                }
            };
            self.log.borrow_mut().push(Io::Read(n));
            Ok(n)
        }
    }

    /// Logs every `write` call, accepting all of its bytes.
    struct Counting(Rc<RefCell<Vec<Io>>>);

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().push(Io::Write(String::from_utf8_lossy(buf).into_owned()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Runs the request loop over `chunks` and returns its result and the
    /// read/write log.
    fn run_loop(
        chunks: &[&str],
        torn_tail: TornTail,
        handle: impl FnMut(&str) -> (Vec<String>, bool),
    ) -> ((u64, bool), Vec<Io>) {
        let log = Rc::default();
        let reader = Chunks {
            chunks: chunks.iter().map(|c| c.as_bytes().to_vec()).collect(),
            log: Rc::clone(&log),
        };
        let mut writer = Counting(Rc::clone(&log));
        let result = request_loop(reader, &mut writer, torn_tail, handle).unwrap();
        (result, log.take())
    }

    fn echo(line: &str) -> (Vec<String>, bool) {
        (vec![format!("re:{line}")], false)
    }

    fn invoke_line(session: &str, input: &[f64]) -> String {
        let mut w = rumba_obs::json::JsonWriter::object("request");
        w.string("op", "invoke").string("session", session).floats("input", input);
        w.finish().replacen("\"type\":\"request\",", "", 1)
    }

    #[test]
    fn lockstep_requests_get_one_write_each() {
        use crate::protocol::handle_line;
        use crate::registry::ServeRuntime;
        let open = "{\"op\":\"open\",\"session\":\"t0\",\"kernel\":\"gaussian\",\"seed\":7,\
                    \"window\":16,\"queue\":32}";
        let mut reference = ServeRuntime::new();
        handle_line(&mut reference, open);
        let dim = reference.session("t0").unwrap().input_dim();
        let mut script: Vec<String> =
            (0..18).map(|i| invoke_line("t0", &vec![0.05 * f64::from(i); dim])).collect();
        script.push("{\"op\":\"drain\",\"session\":\"t0\"}".to_owned());
        script.push("{\"op\":\"stats\",\"session\":\"t0\"}".to_owned());

        // Expected: each request's response group, as one write.
        let mut expected = Vec::new();
        for line in &script {
            expected.push(Io::Read(line.len() + 1));
            let mut bytes = String::new();
            for response in handle_line(&mut reference, line).0 {
                bytes.push_str(&response);
                bytes.push('\n');
            }
            expected.push(Io::Write(bytes));
        }
        expected.push(Io::Read(0));
        let drain = &expected[2 * 18 + 1];
        assert!(
            matches!(drain, Io::Write(w) if w.matches("\"type\":\"result\"").count() >= 16),
            "the drain must return at least 16 results: {drain:?}"
        );

        let mut rt = ServeRuntime::new();
        handle_line(&mut rt, open);
        let chunks: Vec<String> = script.iter().map(|l| format!("{l}\n")).collect();
        let chunks: Vec<&str> = chunks.iter().map(String::as_str).collect();
        let (result, log) = run_loop(&chunks, TornTail::Discard, |l| handle_line(&mut rt, l));
        assert_eq!(result, (script.len() as u64, false));
        assert_eq!(log, expected);
    }

    #[test]
    fn buffered_lines_get_one_write_each_in_request_order() {
        let (result, log) = run_loop(&["a\nb\n\nc\n"], TornTail::Discard, echo);
        assert_eq!(result, (3, false));
        assert_eq!(
            log,
            vec![
                Io::Read(7),
                Io::Write("re:a\n".into()),
                Io::Write("re:b\n".into()),
                Io::Write("re:c\n".into()),
                Io::Read(0),
            ]
        );
    }

    #[test]
    fn a_complete_line_is_answered_before_reading_the_rest_of_a_partial_one() {
        let (result, log) = run_loop(&["a\nb", "c\n"], TornTail::Discard, echo);
        assert_eq!(result, (2, false));
        assert_eq!(
            log,
            vec![
                Io::Read(3),
                Io::Write("re:a\n".into()),
                Io::Read(2),
                Io::Write("re:bc\n".into()),
                Io::Read(0),
            ]
        );
    }

    #[test]
    fn torn_tails_are_discarded_on_sockets_and_executed_on_stdin() {
        let mut seen = Vec::new();
        let (result, log) = run_loop(&["a\nb"], TornTail::Discard, |l| {
            seen.push(l.to_owned());
            echo(l)
        });
        assert_eq!(result, (1, false));
        assert_eq!(seen, ["a"], "a torn request must never run");
        assert_eq!(log, vec![Io::Read(3), Io::Write("re:a\n".into()), Io::Read(0)]);

        // Stdin runs the unterminated final line, then stops reading.
        let (result, log) = run_loop(&["a\nb"], TornTail::Execute, echo);
        assert_eq!(result, (2, false));
        assert_eq!(
            log,
            vec![Io::Read(3), Io::Write("re:a\n".into()), Io::Read(0), Io::Write("re:b\n".into())]
        );
    }

    #[test]
    fn oversized_lines_are_answered_in_band_after_earlier_responses() {
        let huge = format!("{}\n", "x".repeat(MAX_LINE + 1));
        let mut seen = Vec::new();
        let (result, log) = run_loop(&["a\n", &huge, "b\n"], TornTail::Discard, |l| {
            seen.push(l.to_owned());
            echo(l)
        });
        assert_eq!(result, (3, false));
        assert_eq!(seen, ["a", "b"]);
        let writes: Vec<&str> = log
            .iter()
            .filter_map(|e| match e {
                Io::Write(w) => Some(w.as_str()),
                Io::Read(_) => None,
            })
            .collect();
        let error = format!("{}\n", error_line("parse", &format!("line exceeds {MAX_LINE} bytes")));
        assert_eq!(writes, ["re:a\n", error.as_str(), "re:b\n"]);
        // "a" was answered before the loop read into the oversized line.
        assert_eq!(log[..3], [Io::Read(2), Io::Write("re:a\n".into()), Io::Read(8192)]);
    }

    #[test]
    fn tcp_server_round_trips_and_shuts_down() {
        let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let open = "{\"op\":\"open\",\"session\":\"t0\",\"kernel\":\"gaussian\",\"seed\":7,\
                    \"window\":16,\"queue\":4}";
        let ack = client.request(open, "open").unwrap();
        assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"open\""), "{ack:?}");
        let down = client.request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
        assert!(down.last().is_some_and(|l| l.contains("\"op\":\"shutdown\"")), "{down:?}");
        assert!(server.join().unwrap() >= 1);
    }

    #[test]
    fn unix_socket_file_is_unlinked_on_join() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rumba-transport-test-{}.sock", std::process::id()));
        let path_str = path.to_str().unwrap().to_owned();
        let server = NetServer::bind_unix(&path_str, 1).unwrap();
        assert!(path.exists());
        let mut client = Client::new(UnixStream::connect(&path).unwrap());
        let down = client.request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
        assert!(down[0].contains("\"op\":\"shutdown\""), "{down:?}");
        server.join().unwrap();
        assert!(!path.exists(), "stale socket file left behind");
    }
}
