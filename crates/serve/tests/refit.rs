//! Serving-layer conformance of the opt-in online checker re-fit
//! (`"refit":true` at open): the refit machinery's state — audit
//! accumulators, bounded reservoir, refit epoch, re-fit model words —
//! travels in the session snapshot, so a snapshot → restore → continue
//! run is bitwise identical to the uninterrupted stream even when the
//! cut lands after a committed refit with the reservoir refilling, and a
//! snapshot restored under a new name migrates to a different shard of a
//! TCP pool without perturbing the stream.
//!
//! The protocol's `"watchdog":true` arms the default watchdog, which a
//! short drifted stream never pushes to a refit. The mid-refit sessions
//! are therefore opened in process through [`SessionConfig`] with a
//! strict watchdog, the shape the snapshot mutation suite uses, and every
//! request after the open goes through the protocol.

use std::sync::OnceLock;

use rumba_apps::{kernel_by_name, Split};
use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::WatchdogConfig;
use rumba_core::tuner::TuningMode;
use rumba_faults::FaultPlan;
use rumba_nn::NnDataset;
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};
use rumba_serve::config::open_line;
use rumba_serve::protocol::handle_line;
use rumba_serve::shard::shard_of;
use rumba_serve::transport::NetServer;
use rumba_serve::{Client, ServeRuntime, SessionConfig};

fn workload() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let kernel = kernel_by_name("gaussian").unwrap();
        kernel.generate(Split::Test, 42)
    })
}

/// An open request under a ramped `InputDrift` plan and the default
/// watchdog — the open-world serving scenario the refit rung exists for —
/// with the refit channel armed or not.
fn open_drift_req(name: &str, refit: bool) -> String {
    let config = SessionConfig {
        window: 8,
        queue: QueueConfig { input_capacity: 8, ..QueueConfig::default() },
        faults: Some(FaultPlan::parse(42, "input_drift=8:16:2.0").unwrap()),
        watchdog: Some(WatchdogConfig::default()),
        refit,
        ..SessionConfig::default()
    };
    open_line(name, &config)
}

/// A tree-checked session under a tight target, a ramped input drift and
/// a strict watchdog: dirty windows reach the `Recalibrated` rung, where
/// the reservoir's rows re-fit the checker.
fn strict_refit_config() -> SessionConfig {
    SessionConfig {
        mode: TuningMode::TargetQuality { toq: 0.99 },
        window: 16,
        queue: QueueConfig { input_capacity: 8, ..QueueConfig::default() },
        faults: Some(FaultPlan::parse(42, "input_drift=32:32:1.0").unwrap()),
        watchdog: Some(WatchdogConfig {
            quality_limit: 0.02,
            patience: 2,
            fallback_patience: 1000,
        }),
        refit: true,
        ..SessionConfig::default()
    }
}

/// Opens `name` under [`strict_refit_config`] and serves the invoke
/// script until a refit has committed, a few rows past a drain. Returns
/// the number of invokes served, where the continuation picks up.
fn serve_until_refit(rt: &mut ServeRuntime, name: &str) -> usize {
    rt.open(name, strict_refit_config()).unwrap();
    let mut k = 0;
    while rt.session(name).unwrap().refit_epoch() == 0 {
        assert!(k < 4000, "the session never committed a refit");
        replay(rt, &invoke_script(name, k, 4));
        k += 4;
    }
    // Two invokes past the drain: the cut also carries queued rows.
    replay(rt, &invoke_script(name, k, 2));
    k + 2
}

fn invoke_req(name: &str, input: &[f64]) -> String {
    let mut w = JsonWriter::request();
    w.string("op", "invoke").string("session", name).floats("input", input);
    w.finish()
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
    let mut w = JsonWriter::request();
    w.string("op", "restore").string("session", name).string("state", state);
    w.finish()
}

/// Word count of the snapshot. The scripts below leave no queued rows
/// or uncollected results at a snapshot, so the count moves only with
/// the runtime state — which grows as the refit reservoir accrues rows.
fn snapshot_words(state: &str) -> usize {
    state.split(' ').count()
}

#[test]
fn mid_refit_snapshot_restore_continue_is_bitwise_identical() {
    let tail = |base: usize| -> Vec<(String, &'static str)> {
        invoke_script("t0", base, 24).into_iter().chain(closing_script("t0")).collect()
    };

    // Uninterrupted reference.
    let mut rt = ServeRuntime::new();
    let cut = serve_until_refit(&mut rt, "t0");
    let expected = replay(&mut rt, &tail(cut));

    // Interrupted run: snapshot at the cut, "crash", restore, continue.
    let mut rt = ServeRuntime::new();
    assert_eq!(serve_until_refit(&mut rt, "t0"), cut);
    let state = snapshot_state(&mut rt, "t0");
    assert!(rt.session("t0").unwrap().refit_epoch() >= 1, "the cut follows a committed refit");
    drop(rt);

    let mut rt = ServeRuntime::new();
    let (ack, _) = handle_line(&mut rt, &restore_req("t0", &state));
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");
    assert!(rt.session("t0").unwrap().refit_epoch() >= 1, "the refit epoch travels");

    // The restored session re-snapshots to the exact same line: the refit
    // tail (epoch, audit sums, re-fitted model words, reservoir rows) is a
    // fixed point of the codec.
    assert_eq!(snapshot_state(&mut rt, "t0"), state, "snapshot must round-trip bit-exactly");

    let continued = replay(&mut rt, &tail(cut));
    assert_eq!(continued, expected, "restored mid-refit session diverged");
}

#[test]
fn reservoir_rows_accrue_in_the_snapshot_and_refit_off_stays_fixed_width() {
    // Refit-on: the snapshot grows between an early and a late
    // snapshot — audited rows are entering the reservoir and traveling.
    let mut rt = ServeRuntime::new();
    replay(
        &mut rt,
        &std::iter::once((open_drift_req("t0", true), "open"))
            .chain(invoke_script("t0", 0, 8))
            .collect::<Vec<_>>(),
    );
    let early = snapshot_words(&snapshot_state(&mut rt, "t0"));
    replay(&mut rt, &invoke_script("t0", 8, 48));
    let late = snapshot_words(&snapshot_state(&mut rt, "t0"));
    assert!(late > early, "reservoir rows must accrue in the snapshot: {early} -> {late}");

    // Refit-off control under the identical script: the snapshot stays
    // one fixed width throughout.
    let open_off = open_drift_req("t1", false);
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

#[test]
fn mid_refit_snapshot_migrates_across_tcp_shards() {
    let old = "alice";
    // A restore name that lands on the other shard of a 2-shard pool.
    let new = ["bob", "carol", "dave", "erin"]
        .into_iter()
        .find(|n| shard_of(n, 2) != shard_of(old, 2))
        .expect("some candidate hashes to the other shard");
    let tail = |name: &str, base: usize| -> Vec<(String, &'static str)> {
        invoke_script(name, base, 24).into_iter().chain(closing_script(name)).collect()
    };

    // Uninterrupted in-process reference.
    let mut rt = ServeRuntime::new();
    let cut = serve_until_refit(&mut rt, old);
    let expected = replay(&mut rt, &tail(old, cut));

    // The same head in process, cut after a committed refit.
    let mut rt = ServeRuntime::new();
    serve_until_refit(&mut rt, old);
    let state = snapshot_state(&mut rt, old);
    assert!(rt.session(old).unwrap().refit_epoch() >= 1, "the cut follows a committed refit");
    drop(rt);

    // Networked run: restore on `old`'s shard, snapshot over the wire,
    // close the original, restore under `new` on the *other* shard,
    // continue there.
    let server = NetServer::bind_tcp("127.0.0.1:0", 2).unwrap();
    let addr = server.addr().to_owned();
    let mut client = Client::connect(&addr).unwrap();
    let ack = client.request(&restore_req(old, &state), "restore").unwrap();
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");
    let snap = client
        .request(&format!("{{\"op\":\"snapshot\",\"session\":\"{old}\"}}"), "snapshot")
        .unwrap();
    let wired = parse_object(&snap[0]).unwrap().string("state").expect("state").to_owned();
    assert_eq!(wired, state, "the snapshot crosses the wire and a shard unchanged");
    client.request(&format!("{{\"op\":\"close\",\"session\":\"{old}\"}}"), "close").unwrap();

    let ack = client.request(&restore_req(new, &wired), "restore").unwrap();
    assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");

    let mut migrated = Vec::new();
    for (line, op) in &tail(new, cut) {
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
    assert_eq!(renamed, expected, "migrated mid-refit session diverged");
}
