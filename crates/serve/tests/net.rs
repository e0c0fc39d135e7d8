//! Sharded multi-client network serving: the conformance promises of the
//! TCP transport layered on the serving layer's determinism contract.
//!
//! * Multiplexing clients over a sharded TCP server changes *nothing*:
//!   each session's responses are bit-identical to its solo stream, and
//!   the full multi-client trace is byte-identical at any shard count.
//! * A `snapshot` → `restore` → continue run is bitwise identical to the
//!   uninterrupted run, including online checker state, armed fault
//!   plans and the watchdog — and restoring under a new name migrates a
//!   session to a different shard without perturbing its stream.
//! * Protocol error paths (malformed NDJSON, oversized lines, abrupt
//!   disconnects mid-line) cost exactly one connection-scoped error and
//!   never poison the shard or other clients.
//! * The router answers every request byte for byte like the solo
//!   protocol, and a client that pipelines a burst over TCP or a Unix
//!   socket gets the same responses, each sent as soon as it is ready.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use rumba_apps::{kernel_by_name, Split};
use rumba_nn::NnDataset;
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};
use rumba_serve::bench::{run_net_trace, run_trace, BenchConfig};
use rumba_serve::protocol::handle_line;
use rumba_serve::shard::{shard_of, Router};
use rumba_serve::transport::NetServer;
use rumba_serve::{Client, ServeRuntime};

fn workload() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let kernel = kernel_by_name("gaussian").unwrap();
        kernel.generate(Split::Test, 42)
    })
}

fn open_req(name: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":42,\
         \"checker\":\"ema\",\"mode\":\"toq\",\"toq\":0.9,\"window\":8,\"queue\":8,\
         \"admission\":\"shed\",\"faults\":\"non_finite=0.05\",\"fault_seed\":42,\
         \"watchdog\":true}}"
    )
}

fn invoke_req(name: &str, input: &[f64]) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "invoke").string("session", name).floats("input", input);
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

/// The per-session op script the multi-client/solo comparison runs: the
/// session's own stream, independent of any other tenant.
fn session_script(name: &str, rows_base: usize) -> Vec<(String, &'static str)> {
    let data = workload();
    let mut script = vec![(open_req(name), "open")];
    for k in 0..12 {
        let row = (rows_base + k * 7) % data.len();
        script.push((invoke_req(name, data.input(row)), "invoke"));
        if k % 4 == 3 {
            script.push((format!("{{\"op\":\"drain\",\"session\":\"{name}\"}}"), "drain"));
        }
    }
    script.push((format!("{{\"op\":\"stats\",\"session\":\"{name}\"}}"), "stats"));
    script.push((format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"), "close"));
    script
}

#[test]
fn net_trace_is_shard_count_invariant_and_matches_solo() {
    let cfg = BenchConfig { seed: 7, tenants: 3, requests: 18 };
    let (solo, _) = run_trace(cfg).unwrap();
    let one = run_net_trace(cfg, 1).unwrap();
    let two = run_net_trace(cfg, 2).unwrap();
    assert_eq!(one, two, "trace must not depend on the shard count");
    let stripped: String = one.lines().fold(String::new(), |mut acc, l| {
        acc.push_str(l.split_once(' ').expect("[cN] prefix").1);
        acc.push('\n');
        acc
    });
    assert_eq!(stripped, solo, "multi-client payloads must match the in-process trace");
}

#[test]
fn each_client_sees_its_solo_stream_bit_for_bit() {
    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let addr = server.addr().to_owned();
    let names = ["tenant-a", "tenant-b", "tenant-c"];
    let mut clients: Vec<Client<TcpStream>> =
        names.iter().map(|_| Client::connect(&addr).unwrap()).collect();
    let scripts: Vec<_> =
        names.iter().enumerate().map(|(t, n)| session_script(n, t * 31)).collect();

    // Interleave the three clients round-robin, one request per turn —
    // every session is multiplexed against the other two the whole time.
    let mut observed: Vec<Vec<String>> = vec![Vec::new(); names.len()];
    let longest = scripts.iter().map(Vec::len).max().unwrap();
    for step in 0..longest {
        for (t, script) in scripts.iter().enumerate() {
            if let Some((line, op)) = script.get(step) {
                observed[t].extend(clients[t].request(line, op).unwrap());
            }
        }
    }
    clients[0].request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
    drop(clients);
    server.join().unwrap();

    // Reference: each session's script alone on a fresh in-process runtime.
    for (t, script) in scripts.iter().enumerate() {
        let mut rt = ServeRuntime::new();
        let mut expected = Vec::new();
        for (line, _) in script {
            let (lines, _) = handle_line(&mut rt, line);
            expected.extend(lines);
        }
        assert_eq!(observed[t], expected, "session {} diverged from its solo stream", names[t]);
    }
}

/// Runs `script` through `rt`, collecting every response line.
fn replay(rt: &mut ServeRuntime, script: &[(String, &str)]) -> Vec<String> {
    let mut out = Vec::new();
    for (line, _) in script {
        let (lines, _) = handle_line(rt, line);
        out.extend(lines);
    }
    out
}

fn continuation_script(name: &str) -> Vec<(String, &'static str)> {
    let data = workload();
    let mut script = Vec::new();
    for k in 10..20 {
        let row = (k * 7) % data.len();
        script.push((invoke_req(name, data.input(row)), "invoke"));
        if k % 4 == 3 {
            script.push((format!("{{\"op\":\"drain\",\"session\":\"{name}\"}}"), "drain"));
        }
    }
    script.push((format!("{{\"op\":\"stats\",\"session\":\"{name}\"}}"), "stats"));
    script.push((format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"), "close"));
    script
}

#[test]
fn snapshot_restore_continue_is_bitwise_identical() {
    let data = workload();
    // Head: open (ema checker + fault plan + watchdog) and run 10 requests
    // with interleaved drains, leaving two requests queued at the cut.
    let mut head: Vec<(String, &str)> = vec![(open_req("t0"), "open")];
    for k in 0..10 {
        let row = (k * 7) % data.len();
        head.push((invoke_req("t0", data.input(row)), "invoke"));
        if k % 4 == 3 {
            head.push(("{\"op\":\"drain\",\"session\":\"t0\"}".to_owned(), "drain"));
        }
    }
    let tail = continuation_script("t0");

    // Uninterrupted reference.
    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let expected = replay(&mut rt, &tail);

    // Interrupted run: snapshot at the cut, "crash" (drop the runtime),
    // restore into a fresh one, continue.
    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let (snap_lines, _) = handle_line(&mut rt, "{\"op\":\"snapshot\",\"session\":\"t0\"}");
    assert!(snap_lines[0].starts_with("{\"type\":\"snapshot\""), "{snap_lines:?}");
    let state =
        parse_object(&snap_lines[0]).unwrap().string("state").expect("state field").to_owned();
    drop(rt);

    let mut rt = ServeRuntime::new();
    let mut w = JsonWriter::object("request");
    w.string("op", "restore").string("session", "t0").string("state", &state);
    let restore_req = w.finish().replacen("\"type\":\"request\",", "", 1);
    let (ack, _) = handle_line(&mut rt, &restore_req);
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");

    // The restored session's own snapshot is the exact same config-word
    // line — the codec is a fixed point under restore.
    let (resnap, _) = handle_line(&mut rt, "{\"op\":\"snapshot\",\"session\":\"t0\"}");
    let restate = parse_object(&resnap[0]).unwrap().string("state").unwrap().to_owned();
    assert_eq!(restate, state, "snapshot must round-trip bit-exactly through restore");

    let continued = replay(&mut rt, &tail);
    assert_eq!(continued, expected, "restored session diverged from the uninterrupted run");
}

#[test]
fn snapshot_migrates_to_another_shard_under_a_new_name() {
    let old = "alice";
    // A new name that lands on the other shard of a 2-shard pool.
    let new = ["bob", "carol", "dave", "erin"]
        .into_iter()
        .find(|n| shard_of(n, 2) != shard_of(old, 2))
        .expect("some candidate hashes to the other shard");

    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let addr = server.addr().to_owned();
    let data = workload();
    let mut client = Client::connect(&addr).unwrap();

    // Uninterrupted reference, solo and in-process.
    let mut head: Vec<(String, &str)> = vec![(open_req(old), "open")];
    for k in 0..10 {
        head.push((invoke_req(old, data.input((k * 7) % data.len())), "invoke"));
        if k % 4 == 3 {
            head.push((format!("{{\"op\":\"drain\",\"session\":\"{old}\"}}"), "drain"));
        }
    }
    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let expected = replay(&mut rt, &continuation_script(old));

    // Networked run: same head on `old`'s shard, snapshot, close the
    // original, restore under `new` — which hashes to the *other* shard —
    // and continue there.
    for (line, op) in &head {
        client.request(line, op).unwrap();
    }
    let snap = client
        .request(&format!("{{\"op\":\"snapshot\",\"session\":\"{old}\"}}"), "snapshot")
        .unwrap();
    let state = parse_object(&snap[0]).unwrap().string("state").expect("state").to_owned();
    client.request(&format!("{{\"op\":\"close\",\"session\":\"{old}\"}}"), "close").unwrap();

    let mut w = JsonWriter::object("request");
    w.string("op", "restore").string("session", new).string("state", &state);
    let restore_req = w.finish().replacen("\"type\":\"request\",", "", 1);
    let ack = client.request(&restore_req, "restore").unwrap();
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");

    let mut migrated = Vec::new();
    for (line, op) in &continuation_script(new) {
        migrated.extend(client.request(line, op).unwrap());
    }
    client.request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
    drop(client);
    server.join().unwrap();

    // Identical streams modulo the session's name.
    let renamed: Vec<String> = migrated
        .iter()
        .map(|l| l.replace(&format!("\"session\":\"{new}\""), &format!("\"session\":\"{old}\"")))
        .collect();
    assert_eq!(renamed, expected, "migrated session diverged from the uninterrupted run");
}

#[test]
fn malformed_and_oversized_lines_stay_connection_scoped() {
    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let addr = server.addr().to_owned();
    let data = workload();
    let mut bad = Client::connect(&addr).unwrap();
    let mut good = Client::connect(&addr).unwrap();

    good.request(&open_req("steady"), "open").unwrap();

    // Malformed NDJSON answers with one error line on the bad connection.
    let err = bad.request("this is not json", "garbage").unwrap();
    assert_eq!(err.len(), 1);
    assert!(err[0].starts_with("{\"type\":\"error\""), "{err:?}");

    // Oversized line: consumed, answered in-band, connection survives.
    let huge = format!("{}\n", "x".repeat(300 * 1024));
    bad.send(huge.as_bytes()).unwrap();
    let err = bad.read_group("oversized").unwrap();
    assert!(err[0].contains("exceeds"), "{err:?}");
    let after = bad.request("{\"op\":\"stats\",\"session\":\"steady\"}", "stats").unwrap();
    assert!(after[0].starts_with("{\"type\":\"stats\""), "bad connection poisoned: {after:?}");

    // The well-behaved client's session is untouched throughout.
    let ack = good.request(&invoke_req("steady", data.input(0)), "invoke").unwrap();
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"invoke\""), "{ack:?}");
    let drained = good.request("{\"op\":\"drain\",\"session\":\"steady\"}", "drain").unwrap();
    assert!(drained.iter().any(|l| l.starts_with("{\"type\":\"result\"")), "{drained:?}");

    good.request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
    drop((bad, good));
    server.join().unwrap();
}

#[test]
fn oversized_open_is_rejected_in_band_and_the_server_keeps_serving() {
    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let addr = server.addr().to_owned();
    let mut client = Client::connect(&addr).unwrap();
    // Names on both shards, so each shard's thread sees a rejection.
    let (a, b) = split_names();
    for name in [a, b] {
        for size in ["\"queue\":1000000000000", "\"queue\":1e300", "\"zoo\":1000000000000"] {
            let line = format!("{{\"op\":\"open\",\"session\":\"{name}\",{size}}}");
            let err = client.request(&line, "open").unwrap();
            assert_eq!(err.len(), 1, "{err:?}");
            assert!(err[0].starts_with("{\"type\":\"error\",\"op\":\"open\""), "{err:?}");
            assert!(err[0].contains("must be in"), "{err:?}");
        }
        let ack = client.request(&open_req(name), "open").unwrap();
        assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"open\""), "{ack:?}");
    }
    client.request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
    drop(client);
    server.join().unwrap();
}

#[test]
fn abrupt_disconnect_mid_line_never_executes_the_torn_request() {
    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let addr = server.addr().to_owned();
    let data = workload();

    let mut doomed = Client::connect(&addr).unwrap();
    doomed.request(&open_req("orphan"), "open").unwrap();
    doomed.request(&invoke_req("orphan", data.input(3)), "invoke").unwrap();
    // A torn request: half a close op, no newline, then a hard drop. The
    // tail must be discarded — were it executed, `orphan` would close.
    doomed.send(b"{\"op\":\"close\",\"session\":\"orp").unwrap();
    drop(doomed);

    let mut good = Client::connect(&addr).unwrap();
    good.request(&open_req("steady"), "open").unwrap();
    good.request(&invoke_req("steady", data.input(0)), "invoke").unwrap();
    let drained = good.request("{\"op\":\"drain\",\"session\":\"steady\"}", "drain").unwrap();
    assert!(drained.iter().any(|l| l.starts_with("{\"type\":\"result\"")), "{drained:?}");

    // Shutdown drains the orphaned session: it was opened, never closed,
    // and still owns one queued request — its shard is alive and flushes
    // it on the way out.
    let down = good.request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
    assert!(
        down.iter().any(|l| l.starts_with("{\"type\":\"closed\",\"session\":\"orphan\"")),
        "torn connection poisoned its shard: {down:?}"
    );
    assert!(
        down.iter().any(|l| l.starts_with("{\"type\":\"result\",\"session\":\"orphan\"")),
        "orphaned in-flight request was not drained: {down:?}"
    );
    drop(good);
    server.join().unwrap();
}

/// Two session names that live on different shards of a 2-shard pool.
fn split_names() -> (&'static str, &'static str) {
    let a = "tenant-a";
    let b = ["tenant-b", "tenant-c", "tenant-d", "tenant-e"]
        .into_iter()
        .find(|n| shard_of(n, 2) != shard_of(a, 2))
        .expect("some candidate hashes to the other shard");
    (a, b)
}

/// A fixed request corpus crossing both shards of a 2-shard pool: every
/// op but `shutdown`, unparsable and op-less lines, an unknown op, an
/// empty session name, drains with and without a session, and restores
/// with a bad, a missing and a good state (the last one migrating a
/// snapshot to a new name).
fn corpus() -> Vec<String> {
    let data = workload();
    let (a, b) = split_names();
    let mut lines = vec![open_req(a), open_req(b), open_req(a), open_req("")];
    for k in 0..5 {
        lines.push(invoke_req(a, data.input(k * 11)));
        lines.push(invoke_req(b, data.input(k * 13 + 1)));
    }
    lines.extend([
        "this is not json".to_owned(),
        format!("{{\"session\":\"{a}\"}}"),
        format!("{{\"op\":\"warp\",\"session\":\"{a}\"}}"),
        "{\"op\":\"warp\"}".to_owned(),
        "{\"op\":\"stats\",\"session\":\"\"}".to_owned(),
        format!("{{\"op\":\"drain\",\"session\":\"{a}\"}}"),
        "{\"op\":\"drain\"}".to_owned(),
    ]);
    for k in 0..3 {
        lines.push(invoke_req(a, data.input(k * 17 + 2)));
        lines.push(invoke_req(b, data.input(k * 19 + 3)));
    }
    lines.push("{\"op\":\"drain\",\"session\":\"\"}".to_owned());
    lines.push(format!("{{\"op\":\"stats\",\"session\":\"{a}\"}}"));
    lines.push(format!("{{\"op\":\"snapshot\",\"session\":\"{b}\"}}"));

    // The good restore carries the snapshot the prefix above produces.
    let mut rt = ServeRuntime::new();
    let snap = lines.iter().map(|l| handle_line(&mut rt, l).0).last().expect("non-empty corpus");
    let state = parse_object(&snap[0]).unwrap().string("state").expect("state").to_owned();
    let restore = |name: &str, state: Option<&str>| {
        let mut w = JsonWriter::object("request");
        w.string("op", "restore").string("session", name);
        if let Some(state) = state {
            w.string("state", state);
        }
        w.finish().replacen("\"type\":\"request\",", "", 1)
    };
    lines.push(restore("migrant", Some("rumba-session-snapshot v0 garbage")));
    lines.push(restore("migrant", None));
    lines.push(restore("migrant", Some(&state)));
    lines.push(invoke_req("migrant", data.input(5)));
    lines.push("{\"op\":\"drain\",\"session\":\"migrant\"}".to_owned());
    lines.push(invoke_req("ghost", data.input(0)));
    lines.push(format!("{{\"op\":\"close\",\"session\":\"{a}\"}}"));
    lines.push(format!("{{\"op\":\"close\",\"session\":\"{a}\"}}"));
    lines.push(invoke_req(b, data.input(7)));
    lines
}

/// The router answers every request of the corpus with exactly the bytes
/// `handle_line` gives on one solo runtime, in sequence, at 1 and 2
/// shards: parsing once in the router changes no response.
#[test]
fn router_answers_the_corpus_byte_for_byte_like_handle_line() {
    let mut corpus = corpus();
    corpus.push("{\"op\":\"shutdown\"}".to_owned());
    let mut rt = ServeRuntime::new();
    let expected: Vec<Vec<String>> = corpus.iter().map(|l| handle_line(&mut rt, l).0).collect();
    assert!(expected
        .iter()
        .flatten()
        .any(|l| l.starts_with("{\"type\":\"ack\",\"op\":\"restore\"")));
    for shards in [1, 2] {
        let router = Router::new(shards);
        for (line, want) in corpus.iter().zip(&expected) {
            assert_eq!(&router.route(line), want, "shards={shards}, request {line}");
        }
        assert!(router.is_closed());
    }
}

/// Reads one response line: an op outside the multi-line set has a
/// one-line group.
fn next_line<S: Read + Write>(client: &mut Client<S>) -> String {
    let group = client.read_group("").expect("response before the read timeout");
    assert_eq!(group.len(), 1, "connection closed before the response");
    group.into_iter().next().unwrap()
}

/// Sends the corpus in one write, reads the responses back, then checks
/// that a request is answered while the next is still half sent.
fn pipelined_session<S: Read + Write>(mut client: Client<S>) {
    let corpus = corpus();
    let mut rt = ServeRuntime::new();
    let expected: Vec<String> = corpus.iter().flat_map(|l| handle_line(&mut rt, l).0).collect();
    let mut burst = corpus.join("\n");
    burst.push('\n');
    client.send(burst.as_bytes()).unwrap();
    let got: Vec<String> = expected.iter().map(|_| next_line(&mut client)).collect();
    assert_eq!(got, expected, "pipelined responses differ from the in-process replay");

    // A complete request followed by half of the next: the first response
    // must arrive while the second request is still incomplete.
    let (a, b) = split_names();
    let first = format!("{{\"op\":\"stats\",\"session\":\"{b}\"}}\n");
    let second = format!("{{\"op\":\"stats\",\"session\":\"{a}\"}}\n");
    let (head, tail) = second.split_at(second.len() / 2);
    client.send(format!("{first}{head}").as_bytes()).unwrap();
    assert_eq!(next_line(&mut client), handle_line(&mut rt, first.trim_end()).0[0]);
    client.send(tail.as_bytes()).unwrap();
    assert_eq!(next_line(&mut client), handle_line(&mut rt, second.trim_end()).0[0]);

    let closing = handle_line(&mut rt, "{\"op\":\"shutdown\"}").0;
    assert_eq!(client.request("{\"op\":\"shutdown\"}", "shutdown").unwrap(), closing);
}

/// Long enough for a debug build to answer the whole corpus; a server
/// that held responses back would fail here instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn pipelined_requests_over_tcp_match_the_in_process_replay() {
    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    pipelined_session(Client::new(stream));
    server.join().unwrap();
}

#[test]
fn pipelined_requests_over_a_unix_socket_match_the_in_process_replay() {
    let path = std::env::temp_dir().join(format!("rumba-net-pipeline-{}.sock", std::process::id()));
    let server = NetServer::bind_unix(path.to_str().unwrap(), 2).unwrap();
    let stream = UnixStream::connect(&path).unwrap();
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    pipelined_session(Client::new(stream));
    server.join().unwrap();
}

/// The compensating variant of [`open_req`]: flagged invocations whose
/// predicted error sits at or below `band` are repaired in place instead
/// of queued for CPU re-execution.
fn open_compensate_req(name: &str, band: f64) -> String {
    open_req(name).replacen(
        "\"watchdog\":true}",
        &format!("\"watchdog\":true,\"fix\":\"compensate\",\"band\":{band}}}"),
        1,
    )
}

/// [`open_compensate_req`] at a quality target tight enough that the
/// firing threshold lands inside the checker's score range: ordinary
/// finite scores then actually flag, giving the band something to
/// compensate (at `toq = 0.9` only fault-injected non-finite scores fire,
/// and those always sit above any band).
fn open_compensate_tight_req(name: &str, band: f64) -> String {
    open_compensate_req(name, band).replacen("\"toq\":0.9,", "\"toq\":0.995,", 1)
}

/// A compensating session survives snapshot → restore → continue bit for
/// bit: the band travels in the config line, the compensation counter in
/// the runtime state, and the continuation replays identically to the
/// uninterrupted run.
#[test]
fn compensating_snapshot_restore_continue_is_bitwise_identical() {
    let data = workload();
    let mut head: Vec<(String, &str)> = vec![(open_compensate_tight_req("t0", 5.0), "open")];
    for k in 0..10 {
        head.push((invoke_req("t0", data.input((k * 7) % data.len())), "invoke"));
        if k % 4 == 3 {
            head.push(("{\"op\":\"drain\",\"session\":\"t0\"}".to_owned(), "drain"));
        }
    }
    let tail = continuation_script("t0");

    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let expected = replay(&mut rt, &tail);

    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let (snap, _) = handle_line(&mut rt, "{\"op\":\"snapshot\",\"session\":\"t0\"}");
    let state = parse_object(&snap[0]).unwrap().string("state").expect("state").to_owned();
    drop(rt);

    let mut rt = ServeRuntime::new();
    let mut w = JsonWriter::object("request");
    w.string("op", "restore").string("session", "t0").string("state", &state);
    let restore_req = w.finish().replacen("\"type\":\"request\",", "", 1);
    let (ack, _) = handle_line(&mut rt, &restore_req);
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");
    let continued = replay(&mut rt, &tail);
    assert_eq!(continued, expected, "restored compensating session diverged");

    // The run repaired something in place — the invariance above is not
    // vacuous — and the closed line reports it.
    let closed = expected.last().unwrap();
    assert!(closed.contains("\"compensated\":"), "no compensation happened: {closed}");
}

/// Compensation decisions live on the deterministic quality path: the
/// same compensating script produces byte-identical response streams at
/// one and four workers, scalar and vector kernels, and over a sharded
/// TCP server at one and two shards.
#[test]
fn compensation_is_thread_simd_and_shard_invariant() {
    use rumba_nn::SimdMode;

    let mut script = session_script("t0", 5);
    script[0] = (open_compensate_tight_req("t0", 5.0), "open");

    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_parallel::set_thread_override(Some(threads));
            rumba_nn::set_simd_override(Some(mode));
            let mut rt = ServeRuntime::new();
            traces.push(replay(&mut rt, &script));
        }
    }
    rumba_nn::set_simd_override(None);
    rumba_parallel::set_thread_override(None);
    for other in &traces[1..] {
        assert_eq!(&traces[0], other, "compensation moved across threads/SIMD");
    }

    for shards in [1usize, 2] {
        let server = NetServer::bind_tcp("127.0.0.1:0", shards).unwrap();
        let addr = server.addr().to_owned();
        let mut client = Client::connect(&addr).unwrap();
        let mut observed = Vec::new();
        for (line, op) in &script {
            observed.extend(client.request(line, op).unwrap());
        }
        client.request("{\"op\":\"shutdown\"}", "shutdown").unwrap();
        drop(client);
        server.join().unwrap();
        assert_eq!(observed, traces[0], "compensation moved across the net at {shards} shard(s)");
    }
}

/// Printable-ASCII garbage derived from a seed (the vendored proptest
/// shim has no string strategies): everything from empty lines to brace
/// soup that almost parses.
fn garbage_line(seed: u64) -> String {
    let len = (seed % 61) as usize;
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            char::from(32 + ((x >> 33) % 95) as u8)
        })
        .collect()
}

proptest! {
    /// Arbitrary garbage lines between valid requests never poison the
    /// shard: every garbage line gets exactly one error response and the
    /// session's stream continues bit-identically to a garbage-free run.
    #[test]
    fn garbage_lines_never_poison_the_shard(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..6),
        interleave in proptest::collection::vec(0u64..4, 6),
    ) {
        let garbage: Vec<String> = seeds.iter().map(|&s| garbage_line(s)).collect();
        let script = session_script("t0", 0);

        let mut clean_rt = ServeRuntime::new();
        let clean = replay(&mut clean_rt, &script);

        let mut rt = ServeRuntime::new();
        let mut observed = Vec::new();
        let mut g = 0usize;
        for (i, (line, _)) in script.iter().enumerate() {
            if interleave.get(i % interleave.len()).is_some_and(|&k| k == 0) && g < garbage.len() {
                // Garbage that parses as a valid request would mutate the
                // session; the grammar makes that practically impossible,
                // but guard the invariant explicitly.
                let (lines, shutdown) = handle_line(&mut rt, &garbage[g]);
                g += 1;
                if !garbage[g - 1].trim().is_empty() {
                    prop_assert!(!shutdown);
                    prop_assert_eq!(lines.len(), 1);
                    prop_assert!(
                        lines[0].starts_with("{\"type\":\"error\""),
                        "garbage produced a non-error: {:?}", lines
                    );
                }
            }
            let (lines, _) = handle_line(&mut rt, line);
            observed.extend(lines);
        }
        prop_assert_eq!(observed, clean);
    }

    /// `fix=compensate` with an empty band is the re-execution-only
    /// policy bit for bit, over arbitrary request streams and drain
    /// points: a vanishing band clamps up to the firing threshold, where
    /// `threshold < predicted <= band` has no solutions, so the
    /// compensation machinery must be pure scaffolding until the band
    /// actually opens.
    #[test]
    fn empty_compensation_band_is_bitwise_reexecute_only(
        rows in proptest::collection::vec(0usize..512, 8..20),
        drains in proptest::collection::vec(proptest::bool::ANY, 20),
    ) {
        let data = workload();
        let build = |open: String| {
            let mut script: Vec<(String, &'static str)> = vec![(open, "open")];
            for (k, &r) in rows.iter().enumerate() {
                script.push((invoke_req("t0", data.input(r % data.len())), "invoke"));
                if drains.get(k).copied().unwrap_or(false) {
                    script.push(("{\"op\":\"drain\",\"session\":\"t0\"}".to_owned(), "drain"));
                }
            }
            script.push(("{\"op\":\"stats\",\"session\":\"t0\"}".to_owned(), "stats"));
            script.push(("{\"op\":\"close\",\"session\":\"t0\"}".to_owned(), "close"));
            script
        };
        let mut rt = ServeRuntime::new();
        let reexec = replay(&mut rt, &build(open_req("t0")));
        let mut rt = ServeRuntime::new();
        let comp = replay(&mut rt, &build(open_compensate_req("t0", 1e-12)));
        prop_assert_eq!(comp, reexec);
    }
}
