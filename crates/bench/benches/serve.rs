//! Wall-clock cost of the serving layer: one multiplexed scheduling
//! round versus per-session serial drains, and the full seeded workload
//! replay at each tenant count. The end-to-end serving numbers of record
//! come from `perfbench/` (`python3 perfbench/run.py`).

use criterion::{criterion_group, criterion_main, Criterion};
use rumba_apps::{kernel_by_name, Split};
use rumba_core::event_sim::QueueConfig;
use rumba_core::tuner::TuningMode;
use rumba_serve::bench::{run_net_trace, run_trace, BenchConfig};
use rumba_serve::{AdmissionPolicy, CheckerKind, ServeRuntime, SessionConfig};
use std::hint::black_box;

fn profile(tenant: usize) -> SessionConfig {
    SessionConfig {
        kernel: "gaussian".to_owned(),
        seed: 42,
        checker: [CheckerKind::Tree, CheckerKind::Linear, CheckerKind::Ema][tenant % 3],
        mode: TuningMode::TargetQuality { toq: 0.9 },
        window: 32,
        queue: QueueConfig { input_capacity: 64, ..QueueConfig::default() },
        admission: AdmissionPolicy::Shed,
        faults: None,
        watchdog: None,
        ..SessionConfig::default()
    }
}

fn bench_drain(c: &mut Criterion) {
    let kernel = kernel_by_name("gaussian").expect("registered");
    let data = kernel.generate(Split::Test, 42);
    let batch = 32usize;

    let mut group = c.benchmark_group("serve_drain");
    for tenants in [1usize, 3] {
        group.bench_function(&format!("drain_all x{tenants}"), |b| {
            let mut rt = ServeRuntime::new();
            for t in 0..tenants {
                rt.open(&format!("t{t}"), profile(t)).expect("opens");
            }
            b.iter(|| {
                for t in 0..tenants {
                    let name = format!("t{t}");
                    for k in 0..batch {
                        rt.submit(&name, data.input((t * 61 + k) % data.len())).expect("admits");
                    }
                }
                rt.drain_all().expect("drains");
                for t in 0..tenants {
                    black_box(rt.take_all_results());
                    let _ = t;
                }
            });
        });
    }
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_trace");
    for tenants in [1usize, 3] {
        group.bench_function(&format!("replay x{tenants}"), |b| {
            b.iter(|| {
                black_box(
                    run_trace(BenchConfig { seed: 7, tenants, requests: 20 }).expect("replays"),
                )
            });
        });
    }
    group.finish();
}

fn bench_net(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_net");
    // Lockstep multi-client TCP replay per shard count — the shard
    // fan-out overhead on top of the in-process `replay` baseline.
    for shards in [1usize, 2] {
        group.bench_function(&format!("tcp replay shards={shards}"), |b| {
            b.iter(|| {
                black_box(
                    run_net_trace(BenchConfig { seed: 7, tenants: 3, requests: 20 }, shards)
                        .expect("replays"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_drain, bench_trace, bench_net);
criterion_main!(benches);
