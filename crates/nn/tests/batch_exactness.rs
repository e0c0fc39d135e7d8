//! Property tests pinning the batched matrix paths bit-exact against the
//! per-sample reference loops, across random topologies, batch sizes,
//! seeds, quantization grids, and thread counts.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rumba_nn::{
    Activation, Matrix, MatrixView, Mlp, Normalizer, Scratch, SimdMode, TrainedModel, TILE_ROWS,
};

/// Serializes every test that flips the process-wide SIMD override, so a
/// concurrently scheduled case never observes a mid-run mode change.
fn simd_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

fn random_inputs(n: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-5.0..5.0)).collect()
}

fn topology(in_dim: usize, hidden: &[usize], out_dim: usize) -> Vec<usize> {
    let mut t = vec![in_dim];
    t.extend_from_slice(hidden);
    t.push(out_dim);
    t
}

fn row_bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// Builds a model whose normalizers were fitted on real value ranges, so
/// the batched staging + inversion paths do nontrivial arithmetic.
fn model_for(topo: &[usize], seed: u64) -> TrainedModel {
    let mlp = Mlp::new(topo, Activation::Sigmoid, seed).unwrap();
    let in_dim = topo[0];
    let out_dim = *topo.last().unwrap();
    let in_rows = random_inputs(16, in_dim, seed ^ 0x11);
    let out_rows = random_inputs(16, out_dim, seed ^ 0x22);
    let input_norm = Normalizer::fit(in_rows.chunks(in_dim), in_dim, 0.0, 1.0);
    let output_norm = Normalizer::fit(out_rows.chunks(out_dim), out_dim, 0.0, 1.0);
    TrainedModel::from_parts(mlp, input_norm, output_norm)
}

proptest! {
    #[test]
    fn forward_batch_matches_per_row_forward_bitwise(
        in_dim in 1usize..5,
        hidden in proptest::collection::vec(1usize..7, 1..3),
        out_dim in 1usize..4,
        n in 0usize..48,
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let topo = topology(in_dim, &hidden, out_dim);
        let mlp = Mlp::new(&topo, Activation::Sigmoid, seed).unwrap();
        let flat = random_inputs(n, in_dim, seed ^ 0xbeef);
        let inputs = MatrixView::new(&flat, n, in_dim);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        rumba_parallel::set_thread_override(Some(threads));
        let result = mlp.forward_batch(inputs, &mut scratch, &mut out);
        rumba_parallel::set_thread_override(None);
        result.unwrap();
        prop_assert_eq!(out.rows(), n);
        for i in 0..n {
            let serial = mlp.forward(inputs.row(i)).unwrap();
            prop_assert_eq!(row_bits(out.row(i)), row_bits(&serial));
        }
    }

    #[test]
    fn quantized_batch_matches_per_row_quantized_bitwise(
        in_dim in 1usize..5,
        hidden in proptest::collection::vec(1usize..7, 1..3),
        out_dim in 1usize..4,
        n in 0usize..48,
        seed in 0u64..1_000,
        bits in 0u32..12,
        threads in 1usize..5,
    ) {
        let topo = topology(in_dim, &hidden, out_dim);
        let mlp = Mlp::new(&topo, Activation::Tanh, seed).unwrap();
        let flat = random_inputs(n, in_dim, seed ^ 0x5151);
        let inputs = MatrixView::new(&flat, n, in_dim);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        rumba_parallel::set_thread_override(Some(threads));
        let result = mlp.forward_batch_quantized(inputs, bits, &mut scratch, &mut out);
        rumba_parallel::set_thread_override(None);
        result.unwrap();
        for i in 0..n {
            let serial = mlp.forward_quantized(inputs.row(i), bits).unwrap();
            prop_assert_eq!(row_bits(out.row(i)), row_bits(&serial));
        }
    }

    #[test]
    fn predict_batch_matches_per_row_predict_bitwise(
        in_dim in 1usize..5,
        hidden in proptest::collection::vec(1usize..7, 1..3),
        out_dim in 1usize..4,
        n in 0usize..48,
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let topo = topology(in_dim, &hidden, out_dim);
        let model = model_for(&topo, seed);
        let flat = random_inputs(n, in_dim, seed ^ 0x77);
        let inputs = MatrixView::new(&flat, n, in_dim);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        rumba_parallel::set_thread_override(Some(threads));
        let result = model.predict_batch(inputs, &mut scratch, &mut out);
        rumba_parallel::set_thread_override(None);
        result.unwrap();
        for i in 0..n {
            let serial = model.predict(inputs.row(i)).unwrap();
            prop_assert_eq!(row_bits(out.row(i)), row_bits(&serial));
        }
    }

    #[test]
    fn quantized_predict_batch_matches_per_row_bitwise(
        in_dim in 1usize..5,
        hidden in proptest::collection::vec(1usize..7, 1..3),
        out_dim in 1usize..4,
        n in 0usize..32,
        seed in 0u64..1_000,
        bits in 0u32..12,
        threads in 1usize..5,
    ) {
        let topo = topology(in_dim, &hidden, out_dim);
        let model = model_for(&topo, seed);
        let flat = random_inputs(n, in_dim, seed ^ 0x99);
        let inputs = MatrixView::new(&flat, n, in_dim);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        rumba_parallel::set_thread_override(Some(threads));
        let result = model.predict_batch_quantized(inputs, bits, &mut scratch, &mut out);
        rumba_parallel::set_thread_override(None);
        result.unwrap();
        for i in 0..n {
            let serial = model.predict_quantized(inputs.row(i), bits).unwrap();
            prop_assert_eq!(row_bits(out.row(i)), row_bits(&serial));
        }
    }
}

/// Independent reference for the fixed-point datapath, built from the
/// model's public accessors: Q-format `i16` weights/activations at scale
/// `2^frac_bits`, `i32` biases at the squared scale, wrapping `i32`
/// accumulation, activation through `f64`. Any divergence between the
/// shipped kernels (scalar or SIMD) and this loop is a bug.
fn reference_fixed_predict(model: &TrainedModel, frac_bits: u32, input: &[f64]) -> Vec<f64> {
    let s = f64::from(1u32 << frac_bits.clamp(1, 14));
    let q16 = |v: f64| (v * s).round() as i16;
    let q32 = |v: f64| (v * s * s).round() as i32;
    let mut x = input.to_vec();
    model.input_norm().apply(&mut x);
    let mut act: Vec<i16> = x.iter().map(|&v| q16(v)).collect();
    let layers = model.mlp().layers();
    let last = layers.len() - 1;
    let mut out = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        let (ind, outd) = (layer.in_dim(), layer.out_dim());
        let mut next = vec![0i16; outd];
        for (o, slot) in next.iter_mut().enumerate() {
            let mut acc = q32(layer.biases()[o]);
            for (k, &a) in act.iter().enumerate().take(ind) {
                let w = i32::from(q16(layer.weights()[o * ind + k]));
                acc = acc.wrapping_add(w.wrapping_mul(i32::from(a)));
            }
            let v = layer.activation().apply(f64::from(acc) / (s * s));
            if li == last {
                out.push(v);
            } else {
                *slot = q16(v);
            }
        }
        act = next;
    }
    model.output_norm().invert(&mut out);
    out
}

/// Independent reference for the f64 quantized forward, written the way
/// the pre-hoist kernel computed it — quantization scale re-derived at
/// every element. Pins the hoisted per-layer `q(w)`/`q(b)` tables to the
/// original per-element semantics bit for bit.
fn reference_quantized_forward(mlp: &Mlp, bits: u32, input: &[f64]) -> Vec<f64> {
    let mut x = input.to_vec();
    for layer in mlp.layers() {
        let (ind, outd) = (layer.in_dim(), layer.out_dim());
        let mut next = vec![0.0; outd];
        for (o, slot) in next.iter_mut().enumerate() {
            let scale = f64::from(1u32 << bits.min(30));
            let mut acc = (layer.biases()[o] * scale).round() / scale;
            for (k, &xv) in x.iter().enumerate().take(ind) {
                let scale = f64::from(1u32 << bits.min(30));
                let w = (layer.weights()[o * ind + k] * scale).round() / scale;
                acc += w * xv;
            }
            let scale = f64::from(1u32 << bits.min(30));
            *slot = (layer.activation().apply(acc) * scale).round() / scale;
        }
        x = next;
    }
    x
}

proptest! {
    /// Tentpole contract: forcing the vector kernels and forcing the
    /// scalar kernels produce bitwise-identical batches across random
    /// topologies, ragged tail sizes (n % lane-width != 0), the 64-row
    /// tile boundary, and 1/4 worker threads — and both match the
    /// per-row serial loop.
    #[test]
    fn forward_batch_is_simd_invariant(
        in_dim in 1usize..6,
        hidden in proptest::collection::vec(1usize..9, 1..3),
        out_dim in 1usize..5,
        n in 0usize..70,
        seed in 0u64..1_000,
        threads_idx in 0usize..2,
    ) {
        let _guard = simd_lock();
        let threads = [1usize, 4][threads_idx];
        let topo = topology(in_dim, &hidden, out_dim);
        let mlp = Mlp::new(&topo, Activation::Sigmoid, seed).unwrap();
        let flat = random_inputs(n, in_dim, seed ^ 0xabcd);
        let inputs = MatrixView::new(&flat, n, in_dim);
        rumba_parallel::set_thread_override(Some(threads));
        let mut per_mode = Vec::new();
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_nn::set_simd_override(Some(mode));
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            mlp.forward_batch(inputs, &mut scratch, &mut out).unwrap();
            per_mode.push(out);
        }
        rumba_nn::set_simd_override(None);
        rumba_parallel::set_thread_override(None);
        let (off, on) = (&per_mode[0], &per_mode[1]);
        for i in 0..n {
            prop_assert_eq!(row_bits(off.row(i)), row_bits(on.row(i)));
            let serial = mlp.forward(inputs.row(i)).unwrap();
            prop_assert_eq!(row_bits(on.row(i)), row_bits(&serial));
        }
    }

    /// The same contract for the f64 quantized path, which additionally
    /// pins the hoisted per-layer quantized-parameter tables against a
    /// reference that re-derives the scale per element (the pre-hoist
    /// code shape).
    #[test]
    fn quantized_batch_is_simd_invariant_and_matches_prehoist_reference(
        in_dim in 1usize..6,
        hidden in proptest::collection::vec(1usize..9, 1..3),
        out_dim in 1usize..5,
        n in 0usize..70,
        seed in 0u64..1_000,
        bits in 0u32..12,
        threads_idx in 0usize..2,
    ) {
        let _guard = simd_lock();
        let threads = [1usize, 4][threads_idx];
        let topo = topology(in_dim, &hidden, out_dim);
        let mlp = Mlp::new(&topo, Activation::Tanh, seed).unwrap();
        let flat = random_inputs(n, in_dim, seed ^ 0x1177);
        let inputs = MatrixView::new(&flat, n, in_dim);
        rumba_parallel::set_thread_override(Some(threads));
        let mut per_mode = Vec::new();
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_nn::set_simd_override(Some(mode));
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            mlp.forward_batch_quantized(inputs, bits, &mut scratch, &mut out).unwrap();
            per_mode.push(out);
        }
        rumba_nn::set_simd_override(None);
        rumba_parallel::set_thread_override(None);
        let (off, on) = (&per_mode[0], &per_mode[1]);
        for i in 0..n {
            prop_assert_eq!(row_bits(off.row(i)), row_bits(on.row(i)));
            let reference = reference_quantized_forward(&mlp, bits, inputs.row(i));
            prop_assert_eq!(row_bits(on.row(i)), row_bits(&reference));
        }
    }

    /// End-to-end SIMD invariance for the full model path (normalizers,
    /// staging, inversion), at 1 and 4 worker threads.
    #[test]
    fn predict_batch_is_simd_invariant(
        in_dim in 1usize..5,
        hidden in proptest::collection::vec(1usize..7, 1..3),
        out_dim in 1usize..4,
        n in 0usize..48,
        seed in 0u64..1_000,
        threads_idx in 0usize..2,
    ) {
        let _guard = simd_lock();
        let threads = [1usize, 4][threads_idx];
        let topo = topology(in_dim, &hidden, out_dim);
        let model = model_for(&topo, seed);
        let flat = random_inputs(n, in_dim, seed ^ 0x3344);
        let inputs = MatrixView::new(&flat, n, in_dim);
        rumba_parallel::set_thread_override(Some(threads));
        let mut per_mode = Vec::new();
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_nn::set_simd_override(Some(mode));
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            model.predict_batch(inputs, &mut scratch, &mut out).unwrap();
            per_mode.push(out);
        }
        rumba_nn::set_simd_override(None);
        rumba_parallel::set_thread_override(None);
        for i in 0..n {
            prop_assert_eq!(row_bits(per_mode[0].row(i)), row_bits(per_mode[1].row(i)));
        }
    }

    /// The i16/i32 fixed-point path, pinned against the independent
    /// integer reference loop above — serial, batched, scalar, SIMD, and
    /// 1/4 threads all bit-identical.
    #[test]
    fn fixed_point_batch_matches_reference_integer_loop(
        in_dim in 1usize..5,
        hidden in proptest::collection::vec(1usize..7, 1..3),
        out_dim in 1usize..4,
        n in 0usize..48,
        seed in 0u64..1_000,
        frac_bits in 0u32..16,
        threads_idx in 0usize..2,
    ) {
        let _guard = simd_lock();
        let threads = [1usize, 4][threads_idx];
        let topo = topology(in_dim, &hidden, out_dim);
        let model = model_for(&topo, seed);
        let fixed = model.prepare_fixed(frac_bits);
        let flat = random_inputs(n, in_dim, seed ^ 0x5566);
        let inputs = MatrixView::new(&flat, n, in_dim);
        rumba_parallel::set_thread_override(Some(threads));
        let mut per_mode = Vec::new();
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_nn::set_simd_override(Some(mode));
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            fixed.predict_batch(inputs, &mut scratch, &mut out).unwrap();
            per_mode.push(out);
        }
        rumba_nn::set_simd_override(None);
        rumba_parallel::set_thread_override(None);
        for i in 0..n {
            prop_assert_eq!(row_bits(per_mode[0].row(i)), row_bits(per_mode[1].row(i)));
            let serial = fixed.predict(inputs.row(i)).unwrap();
            prop_assert_eq!(row_bits(per_mode[1].row(i)), row_bits(&serial));
            let reference = reference_fixed_predict(&model, frac_bits, inputs.row(i));
            prop_assert_eq!(row_bits(&serial), row_bits(&reference));
        }
    }
}

/// Deterministic regression for the hoisted quantization scale: the
/// batched quantized path must reproduce the per-element re-derivation
/// semantics exactly, including at the widths where rounding actually
/// bites (low bit counts).
#[test]
fn quantized_hoist_is_bitwise_identical_to_per_element_rederivation() {
    let _guard = simd_lock();
    let mlp = Mlp::new(&[3, 9, 5, 2], Activation::Sigmoid, 71).unwrap();
    let flat = random_inputs(37, 3, 0xfeed);
    let inputs = MatrixView::new(&flat, 37, 3);
    for bits in [0u32, 1, 2, 4, 8, 16, 31] {
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_nn::set_simd_override(Some(mode));
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            mlp.forward_batch_quantized(inputs, bits, &mut scratch, &mut out).unwrap();
            for i in 0..37 {
                let reference = reference_quantized_forward(&mlp, bits, inputs.row(i));
                assert_eq!(
                    row_bits(out.row(i)),
                    row_bits(&reference),
                    "bits {bits} mode {mode:?} row {i}"
                );
            }
        }
    }
    rumba_nn::set_simd_override(None);
}

#[test]
fn batch_apis_reject_wrong_width() {
    let mlp = Mlp::new(&[3, 4, 2], Activation::Sigmoid, 1).unwrap();
    let flat = vec![0.0; 8];
    let inputs = MatrixView::new(&flat, 4, 2);
    let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
    assert!(mlp.forward_batch(inputs, &mut scratch, &mut out).is_err());
    let model = model_for(&[3, 4, 2], 1);
    assert!(model.predict_batch(inputs, &mut scratch, &mut out).is_err());
}

#[test]
fn reused_scratch_survives_shape_changes() {
    // Shrinking then growing the batch must stay correct (grow-only
    // buffers are an internal detail, not a correctness hazard).
    let mlp = Mlp::new(&[2, 5, 1], Activation::Sigmoid, 3).unwrap();
    let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
    for &n in &[64usize, 1, 17, 64, 0, 33] {
        let flat = random_inputs(n, 2, n as u64);
        let inputs = MatrixView::new(&flat, n, 2);
        mlp.forward_batch(inputs, &mut scratch, &mut out).unwrap();
        assert_eq!(out.rows(), n);
        for i in 0..n {
            let serial = mlp.forward(inputs.row(i)).unwrap();
            assert_eq!(row_bits(out.row(i)), row_bits(&serial));
        }
    }
}

/// The row-tile walk at its edges: batches one short of, at and one past
/// a tile and past two tiles, hidden layers wider than a tile, and an
/// input feature that was constant when the normalizer was fitted (its
/// zero-span branch), for every batched path, bitwise against the per-row
/// paths under forced scalar and forced vector dispatch at 1 and 4
/// threads. The edited path is pinned against `predict` on the edited row.
#[test]
fn tile_edges_match_the_per_row_paths_bitwise() {
    let _guard = simd_lock();
    let t = TILE_ROWS;
    let edit = |row: usize, values: &mut [f64]| values[values.len() - 1] -= row as f64 * 0.01;
    for (seed, topo) in
        [[3usize, 70, 2].as_slice(), &[4, 9, 80, 3], &[64, 16, 64]].iter().enumerate()
    {
        let seed = seed as u64;
        let (in_dim, out_dim) = (topo[0], topo[topo.len() - 1]);
        let mlp = Mlp::new(topo, Activation::Sigmoid, seed).unwrap();
        let mut mins = vec![-5.0; in_dim];
        let mut maxs = vec![5.0; in_dim];
        (mins[0], maxs[0]) = (1.5, 1.5);
        let output_norm =
            Normalizer::fit(random_inputs(16, out_dim, seed).chunks(out_dim), out_dim, 0.0, 1.0);
        let model = TrainedModel::from_parts(
            mlp.clone(),
            Normalizer::from_bounds(mins, maxs, 0.0, 1.0),
            output_norm,
        );
        let fixed = model.prepare_fixed(11);
        for n in [t - 1, t, t + 1, 2 * t + 3] {
            let flat = random_inputs(n, in_dim, seed ^ n as u64);
            let inputs = MatrixView::new(&flat, n, in_dim);
            for (mode, threads) in
                [(SimdMode::Off, 1), (SimdMode::On, 1), (SimdMode::Off, 4), (SimdMode::On, 4)]
            {
                rumba_nn::set_simd_override(Some(mode));
                rumba_parallel::set_thread_override(Some(threads));
                let mut batches = [(); 6].map(|()| Matrix::default());
                let mut scratch = Scratch::new();
                let [fwd, fwd_q, pred, pred_q, pred_fixed, pred_edit] = &mut batches;
                mlp.forward_batch(inputs, &mut scratch, fwd).unwrap();
                mlp.forward_batch_quantized(inputs, 6, &mut scratch, fwd_q).unwrap();
                model.predict_batch(inputs, &mut scratch, pred).unwrap();
                model.predict_batch_quantized(inputs, 6, &mut scratch, pred_q).unwrap();
                fixed.predict_batch(inputs, &mut scratch, pred_fixed).unwrap();
                model
                    .predict_batch_with(inputs, None, Some(&edit), &mut scratch, pred_edit)
                    .unwrap();
                rumba_parallel::set_thread_override(None);
                for i in 0..n {
                    let row = inputs.row(i);
                    let mut edited = row.to_vec();
                    edit(i, &mut edited);
                    let want = [
                        mlp.forward(row).unwrap(),
                        mlp.forward_quantized(row, 6).unwrap(),
                        model.predict(row).unwrap(),
                        model.predict_quantized(row, 6).unwrap(),
                        fixed.predict(row).unwrap(),
                        model.predict(&edited).unwrap(),
                    ];
                    for (path, (got, want)) in batches.iter().zip(&want).enumerate() {
                        assert_eq!(
                            row_bits(got.row(i)),
                            row_bits(want),
                            "{topo:?} n {n} {mode:?} threads {threads} path {path} row {i}"
                        );
                    }
                }
            }
        }
    }
    rumba_nn::set_simd_override(None);
}
