//! Shard threads and the session-placement router.
//!
//! The network layer fans client connections into N *shards*. Each shard
//! thread owns a private [`ServeRuntime`] — a disjoint set of sessions —
//! and processes its mailbox strictly in arrival order, so per-shard
//! state never needs a lock and the per-shard stream is exactly the solo
//! protocol stream. Placement is [`shard_of`], a pure FNV-1a hash of the
//! session name: reproducible across runs, processes, and shard pools,
//! which is what lets a snapshot restored under the same name land on
//! the same shard (and one restored under a new name migrate).
//!
//! The [`Router`] is the only shared object: it decodes each request line
//! once (with the protocol's reader, so an `invoke` builds no map), picks
//! the shard from the decoded `session`, hands the decoded request to that
//! shard, and blocks on the reply — so a connection
//! observes its own requests in order while different connections
//! proceed in parallel on different shards. Shards never see raw lines.
//! The two global operations are handled here instead of in a shard:
//!
//! - **global `drain`** broadcasts to every shard and reorders the
//!   per-session result groups by *global session-open order*, making
//!   the merged response byte-identical at any shard count;
//! - **`shutdown`** broadcasts a close-all, merges the same way, joins
//!   every shard thread (all in-flight work finishes before the ack),
//!   and flushes the telemetry sink.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

use rumba_obs::json::{JsonObject, ObjectExt};
use rumba_obs::Event;

use crate::protocol::{
    closed_line, error_line, handle_request, invoke, read_request, result_line, Request,
};
use crate::registry::ServeRuntime;

/// Which shard owns a session: FNV-1a over the session name, mod the
/// shard count. A pure function — placement is reproducible and carries
/// no state, so it holds across restarts and snapshot migration.
#[must_use]
pub fn shard_of(session: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in session.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Per-session response-line groups, tagged with the session name so the
/// router can reorder them into global open order.
type Groups = Vec<(String, Vec<String>)>;

enum ShardMsg {
    /// One decoded `invoke` on a session this shard owns.
    Invoke { session: String, input: Vec<f64>, reply: Sender<Vec<String>> },
    /// Any other parsed protocol request for a session this shard owns
    /// (or a sessionless single-line op; those are shard-independent).
    Request { op: String, obj: JsonObject, reply: Sender<Vec<String>> },
    /// Global drain: run one multiplexed scheduling round over this
    /// shard's sessions and return their result lines, grouped.
    DrainAll { reply: Sender<Groups> },
    /// Shutdown: close every session (draining it) and exit the thread.
    CloseAll { reply: Sender<Groups> },
}

fn shard_loop(index: u64, rx: &Receiver<ShardMsg>) {
    let mut rt = ServeRuntime::new();
    let mut requests = 0u64;
    if rumba_obs::enabled() {
        rumba_obs::global_sink().emit(&Event::Shard {
            shard: index,
            action: "start".to_owned(),
            sessions: 0,
            requests: 0,
        });
    }
    while let Ok(msg) = rx.recv() {
        requests += 1;
        match msg {
            ShardMsg::Invoke { session, input, reply } => {
                let _ = reply.send(vec![invoke(&mut rt, &session, &input)]);
            }
            ShardMsg::Request { op, obj, reply } => {
                let (lines, _) = handle_request(&mut rt, &op, &obj);
                let _ = reply.send(lines);
            }
            ShardMsg::DrainAll { reply } => {
                let groups = match rt.drain_all() {
                    Ok(()) => rt
                        .take_all_results()
                        .into_iter()
                        .map(|(name, results)| {
                            let lines = results.iter().map(|r| result_line(&name, r)).collect();
                            (name, lines)
                        })
                        .collect(),
                    Err(e) => vec![(String::new(), vec![error_line("drain", &e.to_string())])],
                };
                let _ = reply.send(groups);
            }
            ShardMsg::CloseAll { reply } => {
                let owned = rt.len() as u64;
                let groups = match rt.close_all() {
                    Ok(closed) => closed
                        .into_iter()
                        .map(|(name, stats, results)| {
                            let mut lines: Vec<String> =
                                results.iter().map(|r| result_line(&name, r)).collect();
                            lines.push(closed_line(&name, &stats));
                            (name, lines)
                        })
                        .collect(),
                    Err(e) => vec![(String::new(), vec![error_line("shutdown", &e.to_string())])],
                };
                let _ = reply.send(groups);
                if rumba_obs::enabled() {
                    rumba_obs::global_sink().emit(&Event::Shard {
                        shard: index,
                        action: "stop".to_owned(),
                        sessions: owned,
                        requests,
                    });
                }
                return;
            }
        }
    }
}

/// The shared fan-in point: owns the shard threads and routes request
/// lines to the shard that owns their session.
///
/// # Determinism contract
///
/// For a fixed request schedule, every response is byte-identical at any
/// shard count (and any `RUMBA_THREADS`/`RUMBA_SIMD` setting): per-shard
/// streams are solo protocol streams over disjoint sessions, and the two
/// cross-shard responses (global drain, shutdown) are merged in global
/// session-open order rather than shard order.
#[derive(Debug)]
pub struct Router {
    senders: Vec<Sender<ShardMsg>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Global session-open order (open/restore acks append, close
    /// removes) — the merge key for cross-shard responses.
    open_seq: Mutex<Vec<String>>,
    closed: AtomicBool,
}

impl Router {
    /// Spawns `shards` shard threads (at least one).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for index in 0..shards {
            let (tx, rx) = channel();
            senders.push(tx);
            handles.push(std::thread::spawn(move || shard_loop(index as u64, &rx)));
        }
        Self {
            senders,
            handles: Mutex::new(handles),
            open_seq: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Whether `shutdown` has been processed (the acceptor's stop signal).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Routes one request line and returns its response lines, in order:
    /// byte for byte what [`crate::protocol::handle_line`] answers on a
    /// solo runtime. The line is decoded here, once (an `invoke` by the
    /// same borrowed reader as `handle_line`, without a map); a line that
    /// fails to decode is answered here, and any other request goes to its
    /// shard already decoded. Blocks until the owning shard has processed the request,
    /// so each connection sees its own requests answered strictly in
    /// order.
    pub fn route(&self, line: &str) -> Vec<String> {
        if self.is_closed() {
            return vec![error_line("route", "server is shutting down")];
        }
        // An invoke's floats go to the shard in a vector of their own;
        // the router never builds a map for one.
        let mut input = Vec::new();
        let (op, obj) = match read_request(line, &mut input) {
            Ok(Request::Invoke { session }) => {
                let shard = shard_of(&session, self.senders.len());
                let session = session.into_owned();
                return self.ask(shard, "invoke", |reply| ShardMsg::Invoke {
                    session,
                    input,
                    reply,
                });
            }
            Ok(Request::Other { op, obj }) => (op, obj),
            Err(error) => return vec![error],
        };
        let session = obj.string("session").filter(|s| !s.is_empty()).map(str::to_owned);
        match (op.as_str(), &session) {
            ("shutdown", _) => self.shutdown(),
            ("drain", None) => self.drain_all(),
            _ => {
                // Session ops go to the owning shard; sessionless ops of
                // the single-line kind fail identically on any shard, so
                // shard 0 answers them.
                let shard = session.as_deref().map_or(0, |s| shard_of(s, self.senders.len()));
                let lines =
                    self.ask(shard, &op, |reply| ShardMsg::Request { op: op.clone(), obj, reply });
                self.note_effect(&op, session.as_deref(), &lines);
                lines
            }
        }
    }

    /// Sends one request to `shard` and blocks on its response lines.
    fn ask(
        &self,
        shard: usize,
        op: &str,
        msg: impl FnOnce(Sender<Vec<String>>) -> ShardMsg,
    ) -> Vec<String> {
        let (tx, rx) = channel();
        if self.senders[shard].send(msg(tx)).is_ok() {
            if let Ok(lines) = rx.recv() {
                return lines;
            }
        }
        vec![error_line(op, "server is shutting down")]
    }

    /// Tracks session lifecycle from response shapes: successful opens and
    /// restores append to the open order, successful closes remove.
    fn note_effect(&self, op: &str, session: Option<&str>, lines: &[String]) {
        let Some(name) = session else { return };
        match op {
            "open" | "restore"
                if lines.first().is_some_and(|l| l.starts_with("{\"type\":\"ack\"")) =>
            {
                self.open_seq.lock().expect("open_seq lock").push(name.to_owned());
            }
            "close" if lines.last().is_some_and(|l| l.starts_with("{\"type\":\"closed\"")) => {
                self.open_seq.lock().expect("open_seq lock").retain(|n| n != name);
            }
            _ => {}
        }
    }

    /// Broadcasts a message constructor to every shard and collects the
    /// groups in shard order (the caller re-orders them globally).
    fn broadcast(&self, make: impl Fn(Sender<Groups>) -> ShardMsg) -> Groups {
        let receivers: Vec<_> = self
            .senders
            .iter()
            .filter_map(|s| {
                let (tx, rx) = channel();
                s.send(make(tx)).ok().map(|()| rx)
            })
            .collect();
        let mut groups = Groups::new();
        for rx in receivers {
            if let Ok(g) = rx.recv() {
                groups.extend(g);
            }
        }
        groups
    }

    /// Flattens per-session groups into global session-open order — the
    /// step that makes cross-shard responses shard-count invariant. Groups
    /// without an open-order entry (shard-level errors) come last, in
    /// shard order.
    fn merge(&self, mut groups: Groups) -> Vec<String> {
        let mut lines = Vec::new();
        {
            let seq = self.open_seq.lock().expect("open_seq lock");
            for name in seq.iter() {
                if let Some(pos) = groups.iter().position(|(n, _)| n == name) {
                    lines.extend(groups.remove(pos).1);
                }
            }
        }
        for (_, g) in groups {
            lines.extend(g);
        }
        lines
    }

    fn drain_all(&self) -> Vec<String> {
        let mut lines = self.merge(self.broadcast(|reply| ShardMsg::DrainAll { reply }));
        let total = lines.iter().filter(|l| l.starts_with("{\"type\":\"result\"")).count() as u64;
        let mut w = rumba_obs::json::JsonWriter::object("ack");
        w.string("op", "drain").count("results", total);
        lines.push(w.finish());
        lines
    }

    fn shutdown(&self) -> Vec<String> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return vec![error_line("shutdown", "server is shutting down")];
        }
        let groups = self.broadcast(|reply| ShardMsg::CloseAll { reply });
        let sessions = groups.iter().filter(|(name, _)| !name.is_empty()).count() as u64;
        let mut lines = self.merge(groups);
        // Every shard thread has answered CloseAll and exited its loop;
        // joining here makes the ack a completion barrier: all sessions
        // drained, all telemetry emitted.
        for handle in self.handles.lock().expect("handles lock").drain(..) {
            let _ = handle.join();
        }
        self.open_seq.lock().expect("open_seq lock").clear();
        let mut w = rumba_obs::json::JsonWriter::object("ack");
        w.string("op", "shutdown").count("sessions", sessions);
        lines.push(w.finish());
        rumba_obs::global_sink().flush();
        lines
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Dropping the senders hangs up every shard mailbox; threads not
        // already stopped by `shutdown` exit their recv loop.
        self.senders.clear();
        for handle in self.handles.lock().expect("handles lock").drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{open_line, small_session};

    fn open_req(name: &str) -> String {
        open_line(name, &small_session(4))
    }

    #[test]
    fn placement_is_pure_and_spread() {
        assert_eq!(shard_of("tenant-0", 4), shard_of("tenant-0", 4));
        assert_eq!(shard_of("anything", 1), 0);
        // FNV-1a spreads consecutive tenant names across a small pool.
        let owners: Vec<usize> = (0..8).map(|t| shard_of(&format!("tenant-{t}"), 2)).collect();
        assert!(owners.contains(&0) && owners.contains(&1), "{owners:?}");
    }

    #[test]
    fn router_is_a_protocol_endpoint() {
        let router = Router::new(2);
        let open = router.route(&open_req("a"));
        assert!(open[0].starts_with("{\"type\":\"ack\",\"op\":\"open\""), "{open:?}");
        let bad = router.route("not json");
        assert!(bad[0].starts_with("{\"type\":\"error\""), "{bad:?}");
        let missing = router.route("{\"op\":\"stats\",\"session\":\"ghost\"}");
        assert!(missing[0].contains("no open session"), "{missing:?}");
        let down = router.route("{\"op\":\"shutdown\"}");
        assert!(down.last().unwrap().contains("\"op\":\"shutdown\",\"sessions\":1"), "{down:?}");
        let after = router.route("{\"op\":\"stats\",\"session\":\"a\"}");
        assert!(after[0].contains("shutting down"), "{after:?}");
    }

    #[test]
    fn duplicate_names_are_rejected_across_the_pool() {
        let router = Router::new(3);
        let line = open_req("dup");
        assert!(router.route(&line)[0].starts_with("{\"type\":\"ack\""));
        // Same name hashes to the same shard, whose runtime rejects it.
        let again = router.route(&line);
        assert!(again[0].contains("already open"), "{again:?}");
        router.route("{\"op\":\"shutdown\"}");
    }
}
