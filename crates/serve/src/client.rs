//! A line client for the socket and TCP transports: the one place that
//! knows where an op's response group ends.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// One client connection over any byte stream (`TcpStream`,
/// `UnixStream`). [`Client::request`] sends a line and reads its whole
/// response group before returning, so a driver that waits on every
/// request sees a stream exactly as deterministic as the in-process
/// protocol. [`Client::send`] and [`Client::read_group`] split the two
/// halves for pipelined or malformed input.
pub struct Client<S> {
    stream: BufReader<S>,
}

impl Client<TcpStream> {
    /// Connects to a TCP server with Nagle off, so each request leaves in
    /// one segment.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::new(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps a connected stream (set any timeouts on it first).
    pub fn new(stream: S) -> Self {
        Self { stream: BufReader::new(stream) }
    }

    /// Writes raw bytes with one `write_all`: whole lines, a burst of
    /// them, or a fragment.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.get_mut().write_all(bytes)
    }

    /// Reads the response group of one request whose op is `op`. Most ops
    /// answer with exactly one line; `drain`, `close` and `shutdown`
    /// stream result lines first, so their group runs up to the op's
    /// terminal line, unless the first line is an `error` (a route-level
    /// failure answers with that line alone). Returns what was read so
    /// far if the server closes the connection.
    ///
    /// # Errors
    ///
    /// Propagates read errors (a read timeout included).
    pub fn read_group(&mut self, op: &str) -> io::Result<Vec<String>> {
        let mut lines: Vec<String> = Vec::new();
        loop {
            let mut buf = String::new();
            if self.stream.read_line(&mut buf)? == 0 {
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

    /// Sends one request line and reads its full response group.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn request(&mut self, line: &str, op: &str) -> io::Result<Vec<String>> {
        // One write per request: with Nagle off, writing the newline on
        // its own would send it as a second segment.
        self.send(format!("{line}\n").as_bytes())?;
        self.read_group(op)
    }
}
