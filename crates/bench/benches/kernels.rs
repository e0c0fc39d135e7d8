//! Wall-clock cost of one *exact* invocation of each Table-1 kernel on the
//! host: what a fired re-execution, a CPU-routed row or a serving oracle
//! call costs this implementation. `cpu_cycles()` is not derived from these
//! timings — it models the paper's x86 core (DESIGN.md §5) — so the two
//! need not agree.

use criterion::{criterion_group, criterion_main, Criterion};
use rumba_apps::{all_kernels, Split};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_kernel");
    for kernel in all_kernels() {
        let data = kernel.generate(Split::Train, 7);
        let input = data.input(data.len() / 2).to_vec();
        let mut output = vec![0.0; kernel.output_dim()];
        group.bench_function(kernel.name(), |b| {
            b.iter(|| {
                kernel.compute(black_box(&input), &mut output);
                black_box(output[0])
            });
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels
}
criterion_main!(benches);
