//! The serving oracle computes each row's exact result at most once.
//!
//! Every served row reports its `"error"` against the exact kernel output.
//! Rows the runtime already executed exactly — fired re-executions
//! (quarantined rows included) and rows the zoo routed to the exact CPU
//! tier — reuse their merged output as that exact result instead of
//! computing it again. The reuse is only sound if those outputs really are
//! the kernel's bits, so these tests pin it against an independent oracle
//! that recomputes every row:
//!
//! * every fired row's output equals `kernel.compute(input)` bitwise, and
//!   so does every CPU-routed row's;
//! * every row's error is bitwise the error against a fresh
//!   `kernel.compute(input)` — the every-row oracle the serving layer used
//!   to run — which also proves compensated rows, whose output is *not*
//!   exact, still get a real oracle call.

use rumba_apps::{kernel_by_name, Split};
use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::{FaultModel, FaultPlan};
use rumba_serve::{
    AdmissionPolicy, CheckerKind, ServeRuntime, SessionConfig, SessionResult, SessionStats, Submit,
};

/// What one served trace left behind.
struct Served {
    /// Accepted inputs, by stream index.
    inputs: Vec<Vec<f64>>,
    results: Vec<SessionResult>,
    stats: SessionStats,
    /// Whole-stream per-tier routing counts (last = exact CPU; empty
    /// without a zoo).
    tiers: Vec<u64>,
}

/// Serves `rows` test-split rows of the config's kernel through one
/// session, draining whenever the queue sheds a request and after every
/// `drain_every`-th submission, then closes it.
fn serve(config: SessionConfig, rows: usize, drain_every: usize) -> Served {
    let data = kernel_by_name(&config.kernel).unwrap().generate(Split::Test, 42);
    let mut rt = ServeRuntime::new();
    rt.open("t", config).unwrap();
    let mut inputs = Vec::new();
    let mut results = Vec::new();
    for k in 0..rows {
        let input = data.input((k * 37 + 11) % data.len());
        let shed = match rt.submit("t", input).unwrap() {
            Submit::Accepted { .. } => {
                inputs.push(input.to_vec());
                false
            }
            Submit::Shed => true,
        };
        if shed || k % drain_every == drain_every - 1 {
            results.extend(rt.drain("t").unwrap());
        }
    }
    let tiers = rt.session("t").unwrap().stream_tiers().to_vec();
    let (stats, rest) = rt.close("t").unwrap();
    results.extend(rest);
    Served { inputs, results, stats, tiers }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Checks every row against a fresh exact computation and returns how
/// many unfired rows came back bit-exact (CPU-routed rows among them).
fn check_against_fresh_oracle(kernel_name: &str, served: &Served) -> usize {
    let kernel = kernel_by_name(kernel_name).unwrap();
    let metric = kernel.metric();
    assert_eq!(served.results.len(), served.inputs.len(), "every accepted row completes");
    let mut exact = vec![0.0; kernel.output_dim()];
    let mut exact_unfired = 0;
    for r in &served.results {
        kernel.compute(&served.inputs[r.index], &mut exact);
        let oracle = metric.invocation_error(&exact, &r.output);
        assert_eq!(
            r.measured_error.to_bits(),
            oracle.to_bits(),
            "row {}: error {} is not the every-row oracle's {oracle}",
            r.index,
            r.measured_error
        );
        let is_exact = bits(&r.output) == bits(&exact);
        if r.fired {
            assert!(is_exact, "row {}: fired output is not the kernel's exact result", r.index);
        } else if is_exact {
            exact_unfired += 1;
        }
    }
    exact_unfired
}

#[test]
fn jpeg_tree_session_errors_match_the_every_row_oracle() {
    let config = SessionConfig {
        kernel: "jpeg".to_owned(),
        seed: 42,
        checker: CheckerKind::Tree,
        mode: TuningMode::TargetQuality { toq: 0.9 },
        window: 32,
        queue: QueueConfig { input_capacity: 64, ..QueueConfig::default() },
        ..SessionConfig::default()
    };
    let served = serve(config, 192, 24);
    check_against_fresh_oracle("jpeg", &served);
    assert!(served.stats.fixes > 0, "the trace must re-execute some rows");
    assert!(served.results.iter().any(|r| !r.fired && r.measured_error > 0.0));
}

#[test]
fn compensated_rows_still_get_a_real_oracle_call() {
    let config = SessionConfig {
        kernel: "gaussian".to_owned(),
        seed: 42,
        checker: CheckerKind::Ema,
        mode: TuningMode::TargetQuality { toq: 0.995 },
        window: 8,
        queue: QueueConfig { input_capacity: 8, ..QueueConfig::default() },
        admission: AdmissionPolicy::Shed,
        faults: Some(FaultPlan::parse(42, "non_finite=0.05").unwrap()),
        watchdog: Some(WatchdogConfig::default()),
        fix_policy: FixPolicy::Compensate { band: 5.0 },
        ..SessionConfig::default()
    };
    let served = serve(config, 160, 6);
    check_against_fresh_oracle("gaussian", &served);
    // Compensated outputs are repaired approximations, not exact results:
    // had the oracle reused them, their errors would read 0 and the
    // bitwise comparison above would have failed.
    assert!(served.stats.compensated > 0, "the trace must compensate some rows");
    assert!(served.stats.fixes > 0, "quarantined non-finite rows re-execute");
}

#[test]
fn cpu_routed_zoo_rows_under_queue_pressure_are_exact() {
    let config = SessionConfig {
        kernel: "gaussian".to_owned(),
        seed: 42,
        checker: CheckerKind::Tree,
        mode: TuningMode::TargetQuality { toq: 0.98 },
        window: 8,
        queue: QueueConfig { input_capacity: 8, ..QueueConfig::default() },
        admission: AdmissionPolicy::Shed,
        faults: Some(FaultPlan::new(7).with(FaultModel::QueuePressure { start: 16, slots: 6 })),
        zoo: 3,
        ..SessionConfig::default()
    };
    let served = serve(config, 96, 8);
    let exact_unfired = check_against_fresh_oracle("gaussian", &served);
    assert_eq!(served.tiers.len(), 4, "3 model tiers + exact CPU");
    let cpu_routed = *served.tiers.last().unwrap() as usize;
    assert!(cpu_routed > 0, "the trace must route some rows to the exact CPU tier");
    // CPU-routed rows never fire, so they are among the unfired rows that
    // came back bit-exact.
    assert!(
        exact_unfired >= cpu_routed,
        "{cpu_routed} CPU-routed rows but only {exact_unfired} unfired exact outputs"
    );
    assert!(served.stats.shed > 0, "the pressured queue must shed");
}
