//! Mutation property over real session snapshots. Every edit of a
//! snapshot line — truncation at any word, any single hex-digit flip, any
//! word set to `0`, `u64::MAX` or `1 << 62`, the kernel token swapped —
//! is either rejected by `Session::restore` or restores a session whose
//! own snapshot is byte-identical to the edited line. Nothing panics: the
//! suite runs in a debug build (overflow checks on) and again in release
//! (wrapping arithmetic), where a missing bound would decode silently.
//!
//! Five session shapes cover every optional part of the stream: plain;
//! model zoo; refit after a committed refit epoch; predict-and-compensate;
//! a six-model fault plan under the watchdog with block admission.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;
use rumba_apps::{all_kernels, kernel_by_name, Split};
use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::FaultPlan;
use rumba_serve::{AdmissionPolicy, CheckerKind, ServeRuntime, Session, SessionConfig};

/// Header tokens before the first word: magic, version, `kernel=<name>`.
const HEADER_TOKENS: usize = 3;

fn base_config() -> SessionConfig {
    SessionConfig {
        window: 8,
        queue: QueueConfig { input_capacity: 8, ..QueueConfig::default() },
        ..SessionConfig::default()
    }
}

/// Opens `config` and serves rows (drained every fourth, earlier results
/// collected) until `done` holds, then queues two more: the snapshot
/// carries runtime state, stats, queued rows and uncollected results.
fn snapshot_after(config: SessionConfig, done: impl Fn(&Session, usize) -> bool) -> String {
    let data = kernel_by_name(&config.kernel).unwrap().generate(Split::Test, 42);
    let mut rt = ServeRuntime::new();
    rt.open("s", config).unwrap();
    let mut k = 0;
    while !done(rt.session("s").unwrap(), k) {
        assert!(k < 4000, "the session never reached its snapshot point");
        rt.submit("s", data.input((k * 7) % data.len())).unwrap();
        if k % 4 == 3 {
            rt.take_all_results();
            rt.drain_all().unwrap();
        }
        k += 1;
    }
    for j in 0..2 {
        rt.submit("s", data.input(j)).unwrap();
    }
    rt.session("s").unwrap().snapshot()
}

fn shapes() -> &'static [String; 5] {
    static SHAPES: OnceLock<[String; 5]> = OnceLock::new();
    SHAPES.get_or_init(|| {
        let rows = |n: usize| move |_: &Session, k: usize| k >= n;
        let faults = "non_finite=0.05,bit_flip=0.01,stuck_at=12:0.5,input_drift=4:8:0.3,\
                      checker_blind=0.02,queue_pressure=16:2";
        [
            snapshot_after(base_config(), rows(24)),
            snapshot_after(SessionConfig { zoo: 2, ..base_config() }, rows(24)),
            // A strict watchdog under a tight target and a ramped drift:
            // dirty windows reach the `Recalibrated` rung, where the
            // reservoir's rows re-fit the tree checker.
            snapshot_after(
                SessionConfig {
                    mode: TuningMode::TargetQuality { toq: 0.99 },
                    window: 16,
                    faults: Some(FaultPlan::parse(42, "input_drift=32:32:1.0").unwrap()),
                    watchdog: Some(WatchdogConfig {
                        quality_limit: 0.02,
                        patience: 2,
                        fallback_patience: 1000,
                    }),
                    refit: true,
                    ..base_config()
                },
                |s, _| s.refit_epoch() >= 1,
            ),
            snapshot_after(
                SessionConfig {
                    checker: CheckerKind::Linear,
                    mode: TuningMode::TargetQuality { toq: 0.995 },
                    fix_policy: FixPolicy::Compensate { band: 5.0 },
                    ..base_config()
                },
                rows(24),
            ),
            snapshot_after(
                SessionConfig {
                    checker: CheckerKind::Ema,
                    mode: TuningMode::EnergyBudget { budget: 2 },
                    admission: AdmissionPolicy::Block,
                    faults: Some(FaultPlan::parse(7, faults).unwrap()),
                    watchdog: Some(WatchdogConfig::default()),
                    ..base_config()
                },
                rows(24),
            ),
        ]
    })
}

/// One edit of `base`, chosen by `kind`: truncation, hex-digit flip, word
/// overwrite, kernel swap. `at` picks the word (or kernel), `digit` and
/// `nibble` the flip, `value` the overwrite.
fn mutate(base: &str, kind: usize, at: u64, digit: usize, nibble: u64, value: usize) -> String {
    let mut tokens: Vec<String> = base.split(' ').map(str::to_owned).collect();
    let words = tokens.len() - HEADER_TOKENS;
    let word = HEADER_TOKENS + (at % words as u64) as usize;
    match kind {
        0 => tokens.truncate(word),
        1 => {
            let old = u64::from_str_radix(&tokens[word], 16).unwrap();
            tokens[word] = format!("{:016x}", old ^ (nibble << (4 * digit)));
        }
        2 => tokens[word] = format!("{:016x}", [0, u64::MAX, 1 << 62][value]),
        _ => {
            let others: Vec<&str> = all_kernels().iter().map(|k| k.name()).collect();
            tokens[HEADER_TOKENS - 1] = format!("kernel={}", others[at as usize % others.len()]);
        }
    }
    tokens.join(" ")
}

fn check(shape: usize, kind: usize, at: u64, digit: usize, nibble: u64, value: usize) {
    let mutated = mutate(&shapes()[shape], kind, at, digit, nibble, value);
    let restored = catch_unwind(AssertUnwindSafe(|| {
        Session::restore("m", &mutated).map(|session| session.snapshot())
    }));
    match restored {
        Err(_) => panic!("restore panicked on mutation {kind} of shape {shape}: {mutated}"),
        Ok(Err(_)) => {}
        Ok(Ok(again)) => {
            assert!(again == mutated, "accepted mutation {kind} of shape {shape} re-encodes differently:\n  in:  {mutated}\n  out: {again}");
        }
    }
}

#[test]
fn every_shape_restores_to_its_own_snapshot() {
    for (shape, base) in shapes().iter().enumerate() {
        let session = Session::restore("m", base).unwrap();
        assert_eq!(&session.snapshot(), base, "shape {shape}");
    }
    let refit = Session::restore("m", &shapes()[2]).unwrap();
    assert!(refit.refit_epoch() >= 1, "the refit shape is taken after a committed refit");
}

proptest! {
    #[test]
    fn mutated_plain_snapshots_restore_identically_or_not_at_all(
        kind in 0usize..4, at in 0u64..u64::MAX, digit in 0usize..16, nibble in 1u64..16, value in 0usize..3,
    ) {
        check(0, kind, at, digit, nibble, value);
    }

    #[test]
    fn mutated_zoo_snapshots_restore_identically_or_not_at_all(
        kind in 0usize..4, at in 0u64..u64::MAX, digit in 0usize..16, nibble in 1u64..16, value in 0usize..3,
    ) {
        check(1, kind, at, digit, nibble, value);
    }

    #[test]
    fn mutated_refit_snapshots_restore_identically_or_not_at_all(
        kind in 0usize..4, at in 0u64..u64::MAX, digit in 0usize..16, nibble in 1u64..16, value in 0usize..3,
    ) {
        check(2, kind, at, digit, nibble, value);
    }

    #[test]
    fn mutated_compensate_snapshots_restore_identically_or_not_at_all(
        kind in 0usize..4, at in 0u64..u64::MAX, digit in 0usize..16, nibble in 1u64..16, value in 0usize..3,
    ) {
        check(3, kind, at, digit, nibble, value);
    }

    #[test]
    fn mutated_fault_snapshots_restore_identically_or_not_at_all(
        kind in 0usize..4, at in 0u64..u64::MAX, digit in 0usize..16, nibble in 1u64..16, value in 0usize..3,
    ) {
        check(4, kind, at, digit, nibble, value);
    }
}
