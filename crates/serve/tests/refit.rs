//! Serving-layer conformance of the opt-in online checker re-fit
//! (`"refit":true` at open): the refit machinery's state — audit
//! accumulators, bounded reservoir, refit epoch, re-fit model words —
//! travels in the session snapshot, so a snapshot → restore → continue
//! run is bitwise identical to the uninterrupted stream even when the
//! cut lands mid-refit with the reservoir partially filled, and a
//! snapshot restored under a new name migrates to a different shard of a
//! TCP pool without perturbing the stream.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

use rumba_apps::{kernel_by_name, Split};
use rumba_nn::NnDataset;
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};
use rumba_serve::protocol::handle_line;
use rumba_serve::shard::shard_of;
use rumba_serve::transport::NetServer;
use rumba_serve::ServeRuntime;

fn workload() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let kernel = kernel_by_name("gaussian").unwrap();
        kernel.generate(Split::Test, 42)
    })
}

/// An open request arming the refit channel under a ramped `InputDrift`
/// plan and the default watchdog — the open-world serving scenario the
/// refit rung exists for.
fn open_refit_req(name: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":42,\
         \"checker\":\"tree\",\"mode\":\"toq\",\"toq\":0.9,\"window\":8,\"queue\":8,\
         \"admission\":\"shed\",\"faults\":\"input_drift=8:16:2.0\",\"fault_seed\":42,\
         \"watchdog\":true,\"refit\":true}}"
    )
}

fn invoke_req(name: &str, input: &[f64]) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "invoke").string("session", name).floats("input", input);
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

fn drain_req(name: &str) -> String {
    format!("{{\"op\":\"drain\",\"session\":\"{name}\"}}")
}

/// `count` invokes starting at stream step `base`, a drain every fourth.
fn invoke_script(name: &str, base: usize, count: usize) -> Vec<(String, &'static str)> {
    let data = workload();
    let mut script = Vec::new();
    for k in base..base + count {
        script.push((invoke_req(name, data.input((k * 7) % data.len())), "invoke"));
        if k % 4 == 3 {
            script.push((drain_req(name), "drain"));
        }
    }
    script
}

fn closing_script(name: &str) -> Vec<(String, &'static str)> {
    vec![
        (format!("{{\"op\":\"stats\",\"session\":\"{name}\"}}"), "stats"),
        (format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"), "close"),
    ]
}

fn replay(rt: &mut ServeRuntime, script: &[(String, &str)]) -> Vec<String> {
    let mut out = Vec::new();
    for (line, _) in script {
        let (lines, _) = handle_line(rt, line);
        out.extend(lines);
    }
    out
}

fn snapshot_state(rt: &mut ServeRuntime, name: &str) -> String {
    let (lines, _) = handle_line(rt, &format!("{{\"op\":\"snapshot\",\"session\":\"{name}\"}}"));
    assert!(lines[0].starts_with("{\"type\":\"snapshot\""), "{lines:?}");
    parse_object(&lines[0]).unwrap().string("state").expect("state field").to_owned()
}

fn restore_req(name: &str, state: &str) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "restore").string("session", name).string("state", state);
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

/// Word count of the snapshot. The scripts below leave no queued rows
/// or uncollected results at a snapshot, so the count moves only with
/// the runtime state — which grows as the refit reservoir accrues rows.
fn snapshot_words(state: &str) -> usize {
    state.split(' ').count()
}

#[test]
fn mid_refit_snapshot_restore_continue_is_bitwise_identical() {
    // Head: 40 drifted invocations — the audit channel has sampled exact
    // results into the reservoir by the cut, so the snapshot is taken
    // mid-refit with the reservoir partially filled.
    let head: Vec<(String, &str)> =
        std::iter::once((open_refit_req("t0"), "open")).chain(invoke_script("t0", 0, 40)).collect();
    let tail: Vec<(String, &str)> =
        invoke_script("t0", 40, 24).into_iter().chain(closing_script("t0")).collect();

    // Uninterrupted reference.
    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let expected = replay(&mut rt, &tail);

    // Interrupted run: snapshot at the cut, "crash", restore, continue.
    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let state = snapshot_state(&mut rt, "t0");
    drop(rt);

    let mut rt = ServeRuntime::new();
    let (ack, _) = handle_line(&mut rt, &restore_req("t0", &state));
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");

    // The restored session re-snapshots to the exact same line: the refit
    // tail (epoch, audit sums, model words, reservoir rows) is a fixed
    // point of the codec.
    assert_eq!(snapshot_state(&mut rt, "t0"), state, "snapshot must round-trip bit-exactly");

    let continued = replay(&mut rt, &tail);
    assert_eq!(continued, expected, "restored mid-refit session diverged");
}

#[test]
fn reservoir_rows_accrue_in_the_snapshot_and_refit_off_stays_fixed_width() {
    // Refit-on: the snapshot grows between an early and a late
    // snapshot — audited rows are entering the reservoir and traveling.
    let mut rt = ServeRuntime::new();
    replay(
        &mut rt,
        &std::iter::once((open_refit_req("t0"), "open"))
            .chain(invoke_script("t0", 0, 8))
            .collect::<Vec<_>>(),
    );
    let early = snapshot_words(&snapshot_state(&mut rt, "t0"));
    replay(&mut rt, &invoke_script("t0", 8, 48));
    let late = snapshot_words(&snapshot_state(&mut rt, "t0"));
    assert!(late > early, "reservoir rows must accrue in the snapshot: {early} -> {late}");

    // Refit-off control under the identical script: the snapshot stays
    // one fixed width throughout.
    let open_off = open_refit_req("t1").replace(",\"refit\":true", "");
    let mut rt = ServeRuntime::new();
    replay(
        &mut rt,
        &std::iter::once((open_off, "open")).chain(invoke_script("t1", 0, 8)).collect::<Vec<_>>(),
    );
    let early_off = snapshot_words(&snapshot_state(&mut rt, "t1"));
    replay(&mut rt, &invoke_script("t1", 8, 48));
    let late_off = snapshot_words(&snapshot_state(&mut rt, "t1"));
    assert_eq!(early_off, late_off, "refit-off snapshot must stay fixed width");
}

/// One lockstep client connection (the `net.rs` idiom): sends a request
/// line and reads the complete response group.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Self { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn request(&mut self, line: &str, op: &str) -> Vec<String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
        let mut lines: Vec<String> = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf).unwrap() == 0 {
                return lines;
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
                return lines;
            }
        }
    }
}

#[test]
fn mid_refit_snapshot_migrates_across_tcp_shards() {
    let old = "alice";
    // A restore name that lands on the other shard of a 2-shard pool.
    let new = ["bob", "carol", "dave", "erin"]
        .into_iter()
        .find(|n| shard_of(n, 2) != shard_of(old, 2))
        .expect("some candidate hashes to the other shard");

    // Uninterrupted in-process reference.
    let head: Vec<(String, &str)> =
        std::iter::once((open_refit_req(old), "open")).chain(invoke_script(old, 0, 40)).collect();
    let tail = |name: &str| -> Vec<(String, &'static str)> {
        invoke_script(name, 40, 24).into_iter().chain(closing_script(name)).collect()
    };
    let mut rt = ServeRuntime::new();
    replay(&mut rt, &head);
    let expected = replay(&mut rt, &tail(old));

    // Networked run: same head on `old`'s shard, snapshot mid-refit,
    // close the original, restore under `new` on the *other* shard,
    // continue there.
    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let addr = server.addr().to_owned();
    let mut client = Client::connect(&addr);
    for (line, op) in &head {
        client.request(line, op);
    }
    let snap =
        client.request(&format!("{{\"op\":\"snapshot\",\"session\":\"{old}\"}}"), "snapshot");
    let state = parse_object(&snap[0]).unwrap().string("state").expect("state").to_owned();
    client.request(&format!("{{\"op\":\"close\",\"session\":\"{old}\"}}"), "close");

    let ack = client.request(&restore_req(new, &state), "restore");
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");

    let mut migrated = Vec::new();
    for (line, op) in &tail(new) {
        migrated.extend(client.request(line, op));
    }
    client.request("{\"op\":\"shutdown\"}", "shutdown");
    drop(client);
    server.join().unwrap();

    // Identical streams modulo the session's name.
    let renamed: Vec<String> = migrated
        .iter()
        .map(|l| l.replace(&format!("\"session\":\"{new}\""), &format!("\"session\":\"{old}\"")))
        .collect();
    assert_eq!(renamed, expected, "migrated mid-refit session diverged");
}
