//! Model-zoo serving conformance: routing a session's invocations across
//! a quality/energy ladder must not weaken any serving promise.
//!
//! * Router dispatch lives on the deterministic quality path: the same
//!   zoo-enabled script is byte-identical at one and four workers, scalar
//!   and vector kernels, in-process and over a sharded TCP server.
//! * A zoo of size 1 is the pre-zoo single-model path byte for byte —
//!   the top tier carries the app's own accelerator and a one-tier zoo
//!   has no routing choice.
//! * Queue-pressure degradation slides traffic toward cheaper tiers
//!   *before* shedding and never violates the session's TOQ over the
//!   seeded trace.

use std::sync::OnceLock;

use proptest::prelude::*;
use rumba_apps::{kernel_by_name, Split};
use rumba_core::event_sim::QueueConfig;
use rumba_core::tuner::TuningMode;
use rumba_faults::{FaultModel, FaultPlan};
use rumba_nn::NnDataset;
use rumba_obs::json::JsonWriter;
use rumba_serve::protocol::handle_line;
use rumba_serve::transport::NetServer;
use rumba_serve::{AdmissionPolicy, CheckerKind, Client, ServeRuntime, SessionConfig};

fn workload() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let kernel = kernel_by_name("gaussian").unwrap();
        kernel.generate(Split::Test, 42)
    })
}

/// An `open` request for a zoo-routed session; `tiers == 0` opens the
/// plain single-model session with the byte-identical remaining config.
fn open_zoo_req(name: &str, tiers: usize) -> String {
    let zoo = if tiers > 0 { format!(",\"zoo\":{tiers}") } else { String::new() };
    format!(
        "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":42,\
         \"checker\":\"tree\",\"mode\":\"toq\",\"toq\":0.95,\"window\":8,\"queue\":16,\
         \"admission\":\"shed\"{zoo}}}"
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

/// The session's request stream: `rows[k]` picks the workload row of
/// request `k`, `drains[k]` inserts a drain after it, and the script
/// always ends with stats + close so the full quality trajectory (fires,
/// threshold, mean error) lands in the response stream.
fn zoo_script(
    name: &str,
    tiers: usize,
    rows: &[usize],
    drains: &[bool],
) -> Vec<(String, &'static str)> {
    let data = workload();
    let mut script = vec![(open_zoo_req(name, tiers), "open")];
    for (k, &row) in rows.iter().enumerate() {
        script.push((invoke_req(name, data.input(row % data.len())), "invoke"));
        if drains.get(k).copied().unwrap_or(false) {
            script.push((drain_req(name), "drain"));
        }
    }
    script.push((format!("{{\"op\":\"stats\",\"session\":\"{name}\"}}"), "stats"));
    script.push((format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"), "close"));
    script
}

/// Runs `script` through an in-process runtime, collecting every response
/// line.
fn replay(script: &[(String, &'static str)]) -> Vec<String> {
    let mut rt = ServeRuntime::new();
    let mut out = Vec::new();
    for (line, _) in script {
        let (lines, _) = handle_line(&mut rt, line);
        out.extend(lines);
    }
    out
}

/// The seeded trace the invariance tests share: enough rows to cross
/// several tuning windows, drains at irregular points so batch shapes
/// vary, and a three-tier ladder so the router actually has choices.
fn reference_script() -> Vec<(String, &'static str)> {
    let rows: Vec<usize> = (0..24).map(|k| (k * 37 + 11) % 512).collect();
    let drains: Vec<bool> = (0..24).map(|k| k % 5 == 3).collect();
    zoo_script("t0", 3, &rows, &drains)
}

/// Router dispatch is pure input × bar: the same zoo-routed script
/// produces byte-identical response streams at one and four workers,
/// scalar and vector kernels, and over a sharded TCP server at one and
/// two shards.
#[test]
fn zoo_routing_is_thread_simd_and_shard_invariant() {
    use rumba_nn::SimdMode;

    let script = reference_script();
    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_parallel::set_thread_override(Some(threads));
            rumba_nn::set_simd_override(Some(mode));
            traces.push(replay(&script));
        }
    }
    rumba_nn::set_simd_override(None);
    rumba_parallel::set_thread_override(None);
    for other in &traces[1..] {
        assert_eq!(&traces[0], other, "router dispatch moved across threads/SIMD");
    }
    // The invariance is not vacuous: the trace really routed and fired.
    assert!(traces[0].iter().any(|l| l.starts_with("{\"type\":\"result\"")), "no results");

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
        assert_eq!(observed, traces[0], "router dispatch moved over TCP at {shards} shard(s)");
    }
}

proptest! {
    /// Over arbitrary request streams and drain points, zoo-routed
    /// serving is bitwise identical at every thread-count × SIMD-mode
    /// combination — per-invocation tier decisions, outputs, fires and
    /// the closing stats all ride the deterministic quality path.
    #[test]
    fn zoo_dispatch_is_bitwise_identical_across_threads_and_simd(
        rows in proptest::collection::vec(0usize..512, 6..14),
        drains in proptest::collection::vec(proptest::bool::ANY, 14),
    ) {
        use rumba_nn::SimdMode;

        let script = zoo_script("t0", 2, &rows, &drains);
        let mut traces = Vec::new();
        for threads in [1usize, 4] {
            for mode in [SimdMode::Off, SimdMode::On] {
                rumba_parallel::set_thread_override(Some(threads));
                rumba_nn::set_simd_override(Some(mode));
                traces.push(replay(&script));
            }
        }
        rumba_nn::set_simd_override(None);
        rumba_parallel::set_thread_override(None);
        for other in &traces[1..] {
            prop_assert_eq!(&traces[0], other);
        }
    }

    /// A zoo of size 1 is the pre-zoo path byte for byte: the top tier
    /// reuses the app's own accelerator and a one-tier zoo has no routing
    /// choice, so the full response stream — outputs, fires, predicted
    /// errors, thresholds, closing stats — matches a zoo-less session
    /// exactly, over arbitrary request streams and drain points.
    #[test]
    fn a_zoo_of_one_is_byte_identical_to_the_pre_zoo_path(
        rows in proptest::collection::vec(0usize..512, 6..16),
        drains in proptest::collection::vec(proptest::bool::ANY, 16),
    ) {
        let plain = replay(&zoo_script("t0", 0, &rows, &drains));
        let single = replay(&zoo_script("t0", 1, &rows, &drains));
        prop_assert_eq!(single, plain);
    }
}

/// Config for the queue-pressure degradation trace: a three-tier zoo on a
/// small queue, with a fault plan that steals most of the queue partway
/// through the stream.
fn pressured_config(pressured: bool) -> SessionConfig {
    let mut config = SessionConfig {
        kernel: "gaussian".to_owned(),
        seed: 42,
        checker: CheckerKind::Tree,
        mode: TuningMode::TargetQuality { toq: 0.98 },
        window: 8,
        queue: QueueConfig { input_capacity: 8, ..QueueConfig::default() },
        admission: AdmissionPolicy::Shed,
        zoo: 3,
        ..SessionConfig::default()
    };
    if pressured {
        config.faults =
            Some(FaultPlan::new(7).with(FaultModel::QueuePressure { start: 16, slots: 6 }));
    }
    config
}

/// Runs the seeded degradation trace: submit 64 requests, draining every
/// time the queue rejects one (and every 8th otherwise), recording the
/// highest pressure rung the session reaches.
fn run_pressured_trace(pressured: bool) -> (u32, Vec<u64>, f64, u64) {
    let data = workload();
    let mut rt = ServeRuntime::new();
    rt.open("t", pressured_config(pressured)).unwrap();
    let mut peak_rung = 0u32;
    for k in 0..64usize {
        let input = data.input((k * 37 + 11) % data.len());
        let shed = matches!(rt.submit("t", input).unwrap(), rumba_serve::Submit::Shed);
        peak_rung = peak_rung.max(rt.session("t").unwrap().zoo_pressure());
        if shed || k % 8 == 7 {
            rt.drain("t").unwrap();
        }
    }
    let session = rt.session("t").unwrap();
    let tiers = session.stream_tiers().to_vec();
    let shed = session.stats().shed;
    let (stats, _results) = rt.close("t").unwrap();
    (peak_rung, tiers, stats.mean_error(), shed)
}

/// Queue pressure degrades service quality before it degrades
/// availability: full-queue events climb the zoo's pressure rungs, the
/// widened bar routes more traffic to cheaper tiers than the fault-free
/// run — and the whole degraded trace still lands inside the session's
/// TOQ budget, because the checker keeps vouching for every routed row.
#[test]
fn queue_pressure_degrades_to_cheaper_tiers_without_violating_the_toq() {
    let (calm_rung, calm_tiers, calm_error, _calm_shed) = run_pressured_trace(false);
    let (peak_rung, hot_tiers, hot_error, _hot_shed) = run_pressured_trace(true);

    assert_eq!(calm_rung, 0, "no pressure without the fault plan");
    assert!(peak_rung > 0, "the seeded trace must actually climb the pressure rungs");

    // Degradation shifted the mix toward the cheap end of the ladder: the
    // traffic-weighted mean tier (exact CPU = most expensive) drops under
    // pressure. Shares, not counts — the pressured queue sheds some
    // requests, so the two traces process different volumes.
    assert_eq!(calm_tiers.len(), 4, "3 model tiers + exact CPU");
    assert_eq!(hot_tiers.len(), 4);
    let mean_tier = |tiers: &[u64]| {
        let total: u64 = tiers.iter().sum();
        let weighted: u64 = tiers.iter().enumerate().map(|(t, &n)| t as u64 * n).sum();
        weighted as f64 / total as f64
    };
    assert!(
        mean_tier(&hot_tiers) < mean_tier(&calm_tiers),
        "pressure must route more traffic to cheaper tiers: calm {calm_tiers:?}, hot {hot_tiers:?}"
    );

    // Availability degraded last and quality never left the contract:
    // both traces hold the session's TOQ budget.
    let budget = 1.0 - 0.98;
    assert!(calm_error <= budget, "fault-free trace broke the TOQ: {calm_error} > {budget}");
    assert!(hot_error <= budget, "degraded trace broke the TOQ: {hot_error} > {budget}");
}
