//! Cross-session isolation: the serving layer's core promise is that
//! multiplexing N tenants over the shared accelerator changes *nothing*
//! for any one of them. Random interleavings of submissions and drains
//! must leave every session's merged outputs, fixes and final threshold
//! bit-identical to running that session's stream alone, and a fault plan
//! armed in one session must leave every other session's event stream
//! untouched.

use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

use proptest::prelude::*;
use rumba_apps::{kernel_by_name, Split};
use rumba_core::event_sim::QueueConfig;
use rumba_core::tuner::TuningMode;
use rumba_faults::{FaultModel, FaultPlan};
use rumba_nn::NnDataset;
use rumba_obs::{Event, MemorySink, NullSink};
use rumba_serve::{
    AdmissionPolicy, CheckerKind, ServeRuntime, SessionConfig, SessionResult, SessionStats,
};

/// The global event sink is process-wide, so a test that installs one
/// holds this lock exclusively: every other test here opens sessions that
/// emit events too, and holds it shared so none of its events land in
/// another test's sink.
static SINK_LOCK: RwLock<()> = RwLock::new(());

/// Held by every test that does not install a sink; see [`SINK_LOCK`].
fn sink_quiet() -> RwLockReadGuard<'static, ()> {
    SINK_LOCK.read().unwrap_or_else(PoisonError::into_inner)
}

fn with_memory_sink<R>(f: impl FnOnce() -> R) -> (Vec<Event>, R) {
    let _guard = SINK_LOCK.write().unwrap_or_else(PoisonError::into_inner);
    let sink = Arc::new(MemorySink::new());
    rumba_obs::set_global_sink(sink.clone());
    let result = f();
    rumba_obs::set_global_sink(Arc::new(NullSink));
    (sink.events(), result)
}

fn workload() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let kernel = kernel_by_name("gaussian").unwrap();
        let full = kernel.generate(Split::Test, 42);
        let indices: Vec<usize> = (0..full.len().min(256)).collect();
        full.subset(&indices)
    })
}

/// Deliberately heterogeneous tenant profiles: different checkers, tuning
/// families and windows, so isolation is not an artifact of symmetric
/// configuration. Capacity is large enough that admission never sheds —
/// shedding policy interplay has its own tests in `backpressure.rs`.
fn profile(tenant: usize, faulty: bool) -> SessionConfig {
    let mut config = SessionConfig {
        kernel: "gaussian".to_owned(),
        seed: 42,
        checker: [CheckerKind::Tree, CheckerKind::Linear, CheckerKind::Ema][tenant % 3],
        mode: match tenant % 3 {
            0 => TuningMode::TargetQuality { toq: 0.95 },
            1 => TuningMode::EnergyBudget { budget: 4 },
            _ => TuningMode::TargetQuality { toq: 0.9 },
        },
        window: [8, 12, 16][tenant % 3],
        queue: QueueConfig { input_capacity: 256, ..QueueConfig::default() },
        admission: AdmissionPolicy::Shed,
        faults: None,
        watchdog: None,
        ..SessionConfig::default()
    };
    if faulty {
        config.faults = Some(
            FaultPlan::new(99)
                .with(FaultModel::NonFinite { rate: 0.05 })
                .with(FaultModel::BitFlip { rate: 0.02 }),
        );
    }
    config
}

fn tenant_name(tenant: usize) -> String {
    format!("tenant-{tenant}")
}

/// Row of the shared workload that request `k` of `tenant` carries; the
/// per-tenant offset keeps streams distinct.
fn request_row(tenant: usize, k: usize) -> usize {
    (tenant * 61 + k) % workload().len()
}

/// The baseline: one session alone on the runtime, requests in order,
/// drained only at close.
fn run_solo(tenant: usize, requests: usize, faulty: bool) -> (SessionStats, Vec<SessionResult>) {
    let mut rt = ServeRuntime::new();
    let name = tenant_name(tenant);
    rt.open(&name, profile(tenant, faulty)).unwrap();
    for k in 0..requests {
        rt.submit(&name, workload().input(request_row(tenant, k))).unwrap();
    }
    rt.close(&name).unwrap()
}

/// N sessions multiplexed: the `schedule` interleaves every tenant's
/// submissions; `drain_mask[i]` triggers a multiplexed scheduling round
/// after submission `i`.
fn run_multiplexed(
    tenants: usize,
    requests: usize,
    faulty_tenant: Option<usize>,
    schedule: &[usize],
    drain_mask: &[bool],
) -> Vec<(SessionStats, Vec<SessionResult>)> {
    let mut rt = ServeRuntime::new();
    for t in 0..tenants {
        rt.open(&tenant_name(t), profile(t, faulty_tenant == Some(t))).unwrap();
    }
    let mut next = vec![0usize; tenants];
    for (i, &t) in schedule.iter().enumerate() {
        let k = next[t];
        next[t] += 1;
        rt.submit(&tenant_name(t), workload().input(request_row(t, k))).unwrap();
        if drain_mask.get(i).copied().unwrap_or(false) {
            rt.drain_all().unwrap();
        }
    }
    assert!(next.iter().all(|&n| n == requests), "schedule covers every request");
    (0..tenants).map(|t| rt.close(&tenant_name(t)).unwrap()).collect()
}

/// Builds a schedule where each of `tenants` appears exactly `requests`
/// times, ordered by the proptest-drawn priorities.
fn schedule_from(tenants: usize, requests: usize, priorities: &[u64]) -> Vec<usize> {
    let mut slots: Vec<(u64, usize)> = (0..tenants * requests)
        .map(|i| (priorities.get(i).copied().unwrap_or(i as u64), i % tenants))
        .collect();
    slots.sort();
    slots.into_iter().map(|(_, t)| t).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_identical(
    solo: &(SessionStats, Vec<SessionResult>),
    multi: &(SessionStats, Vec<SessionResult>),
) {
    let (solo_stats, solo_results) = solo;
    let (multi_stats, multi_results) = multi;
    assert_eq!(solo_results.len(), multi_results.len());
    for (a, b) in solo_results.iter().zip(multi_results) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.fired, b.fired);
        assert_eq!(bits(&a.output), bits(&b.output));
        assert_eq!(a.predicted_error.to_bits(), b.predicted_error.to_bits());
        assert_eq!(a.measured_error.to_bits(), b.measured_error.to_bits());
    }
    assert_eq!(solo_stats.fixes, multi_stats.fixes);
    assert_eq!(solo_stats.processed, multi_stats.processed);
    assert_eq!(solo_stats.final_threshold.to_bits(), multi_stats.final_threshold.to_bits());
}

proptest! {
    /// Any interleaving of three tenants' requests — with multiplexed
    /// scheduling rounds at arbitrary points — is invisible to each
    /// tenant: outputs, firing decisions, fixes and the tuner's final
    /// threshold match the solo run bitwise.
    #[test]
    fn interleaving_is_invisible_to_every_session(
        priorities in proptest::collection::vec(0u64..1_000_000, 54),
        drains in proptest::collection::vec(proptest::bool::ANY, 54),
    ) {
        let _quiet = sink_quiet();
        let (tenants, requests) = (3, 18);
        let schedule = schedule_from(tenants, requests, &priorities);
        let multi = run_multiplexed(tenants, requests, None, &schedule, &drains);
        for (t, session) in multi.iter().enumerate() {
            let solo = run_solo(t, requests, false);
            assert_identical(&solo, session);
        }
    }

    /// A fault plan armed in one session never leaks into another: the
    /// clean tenants still match their clean solo runs bitwise, while the
    /// faulty tenant matches its faulty solo run.
    #[test]
    fn faults_in_one_session_never_move_another(
        priorities in proptest::collection::vec(0u64..1_000_000, 36),
        drains in proptest::collection::vec(proptest::bool::ANY, 36),
        faulty in 0usize..3,
    ) {
        let _quiet = sink_quiet();
        let (tenants, requests) = (3, 12);
        let schedule = schedule_from(tenants, requests, &priorities);
        let multi = run_multiplexed(tenants, requests, Some(faulty), &schedule, &drains);
        for (t, session) in multi.iter().enumerate() {
            let solo = run_solo(t, requests, t == faulty);
            assert_identical(&solo, session);
        }
    }
}

/// The multiplexed scheduler's fan-out phase must be thread-invariant:
/// one worker and four workers produce bitwise-identical sessions.
#[test]
fn multiplexed_serving_is_thread_invariant() {
    let _quiet = sink_quiet();
    let schedule = schedule_from(3, 16, &[]);
    let drains: Vec<bool> = (0..48).map(|i| i % 5 == 4).collect();

    rumba_parallel::set_thread_override(Some(1));
    let single = run_multiplexed(3, 16, Some(2), &schedule, &drains);
    rumba_parallel::set_thread_override(Some(4));
    let quad = run_multiplexed(3, 16, Some(2), &schedule, &drains);
    rumba_parallel::set_thread_override(None);

    for (a, b) in single.iter().zip(&quad) {
        assert_identical(a, b);
    }
}

/// The lane-reduction contract reaches the serving layer: forcing the
/// scalar kernels and forcing the vector kernels (at one and at four
/// workers) all produce bitwise-identical sessions, so the committed
/// serve trace stays valid on any hardware and any `RUMBA_SIMD` setting.
#[test]
fn multiplexed_serving_is_simd_invariant() {
    use rumba_nn::SimdMode;

    let _quiet = sink_quiet();
    let schedule = schedule_from(3, 16, &[]);
    let drains: Vec<bool> = (0..48).map(|i| i % 5 == 4).collect();

    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_parallel::set_thread_override(Some(threads));
            rumba_nn::set_simd_override(Some(mode));
            traces.push(run_multiplexed(3, 16, Some(2), &schedule, &drains));
        }
    }
    rumba_nn::set_simd_override(None);
    rumba_parallel::set_thread_override(None);

    for other in &traces[1..] {
        for (a, b) in traces[0].iter().zip(other) {
            assert_identical(a, b);
        }
    }
}

/// Event-stream isolation, down to the telemetry layer: with a fault plan
/// armed in one session, every event tagged with a *clean* session's
/// label is identical to the events that session emits when it runs the
/// same stream alone — no fault, degrade or admission event crosses the
/// session boundary.
#[test]
fn fault_events_stay_inside_the_faulty_session() {
    let requests = 24;
    let schedule = schedule_from(2, requests, &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]);
    let drains: Vec<bool> = (0..2 * requests).map(|i| i % 7 == 6).collect();

    // Run summaries are excluded: their cpu_utilization comes from the
    // event-level pipeline timing, which legitimately depends on drain
    // batching (the quality path — outputs, thresholds, fixes — is
    // covered bitwise by the proptests above).
    let tagged = |events: &[Event], name: &str| -> Vec<String> {
        events
            .iter()
            .filter(|e| e.session() == Some(name) && !matches!(e, Event::RunSummary { .. }))
            .map(rumba_obs::Event::to_jsonl)
            .collect()
    };

    let (multi_events, _) =
        with_memory_sink(|| run_multiplexed(2, requests, Some(1), &schedule, &drains));
    let (solo_clean_events, _) = with_memory_sink(|| run_solo(0, requests, false));
    let (solo_faulty_events, _) = with_memory_sink(|| run_solo(1, requests, true));

    // The clean tenant's event stream is untouched by its neighbour's
    // faults (and the faulty tenant's stream matches its solo faults).
    assert_eq!(tagged(&multi_events, "tenant-0"), tagged(&solo_clean_events, "tenant-0"));
    assert_eq!(tagged(&multi_events, "tenant-1"), tagged(&solo_faulty_events, "tenant-1"));

    // The faulty session did observably fault — the isolation claim is
    // not vacuous.
    let faults_in = |events: &[Event], name: &str| {
        events
            .iter()
            .filter(|e| matches!(e, Event::Fault { .. }) && e.session() == Some(name))
            .count()
    };
    assert!(faults_in(&multi_events, "tenant-1") > 0, "fault plan must actually fire");
    assert_eq!(faults_in(&multi_events, "tenant-0"), 0, "clean session saw a fault event");
}
