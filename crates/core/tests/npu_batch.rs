//! Every trained accelerator's batched invocation is its per-row
//! invocation, bit for bit: for all seven kernels, the app's Rumba
//! accelerator and every tier of a three-tier zoo (float and fixed-point
//! datapaths) over the whole test split, under scalar and vector
//! dispatch — clean, and with a fault plan whose input drift and output
//! flips are keyed on stream positions, through both position-keyed
//! batch entry points.
//!
//! Lives in its own integration-test binary because it overrides the
//! process-wide SIMD mode.

use rumba_accel::Npu;
use rumba_apps::Split;
use rumba_core::trainer::{train_app, OfflineConfig};
use rumba_core::zoo::train_zoo;
use rumba_faults::{FaultModel, FaultPlan};
use rumba_nn::{Matrix, MatrixView, Scratch, SimdMode};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `npu`'s batched entry points against `invoke_at` on every row of
/// `inputs`: `invoke_batch_at` from stream position `base`, and
/// `invoke_rows_at` with the positions reversed.
fn assert_batch_is_per_row(name: &str, npu: &Npu, inputs: MatrixView<'_>, base: usize) {
    let n = inputs.rows();
    let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
    npu.invoke_batch_at(base, inputs, &mut scratch, &mut out).unwrap();
    for i in 0..n {
        let want = npu.invoke_at(base + i, inputs.row(i)).unwrap().outputs;
        assert_eq!(bits(out.row(i)), bits(&want), "{name}: invoke_batch_at row {i}");
    }
    let positions: Vec<usize> = (0..n).rev().map(|p| base + p).collect();
    npu.invoke_rows_at(&positions, inputs, &mut scratch, &mut out).unwrap();
    for (i, &p) in positions.iter().enumerate() {
        let want = npu.invoke_at(p, inputs.row(i)).unwrap().outputs;
        assert_eq!(bits(out.row(i)), bits(&want), "{name}: invoke_rows_at row {i}");
    }
}

#[test]
fn every_trained_accelerator_batches_bit_exactly() {
    let cfg = OfflineConfig::default();
    let plan = FaultPlan::new(0xba7c)
        .with(FaultModel::BitFlip { rate: 0.05 })
        .with(FaultModel::InputDrift { start: 40, ramp: 90, magnitude: 0.2 });
    for kernel in rumba_apps::all_kernels() {
        let kernel = kernel.as_ref();
        let app = train_app(kernel, &cfg).unwrap();
        let zoo = train_zoo(kernel, &app, &cfg, 3).unwrap();
        let test = kernel.generate(Split::Test, cfg.seed);
        let inputs = test.inputs_view();
        let mut npus = vec![("rumba_npu".to_owned(), app.rumba_npu.clone())];
        for (t, tier) in zoo.tiers().iter().enumerate() {
            npus.push((format!("zoo tier {t}"), tier.npu.clone()));
        }
        for mode in [SimdMode::Off, SimdMode::On] {
            rumba_nn::set_simd_override(Some(mode));
            for (label, npu) in &npus {
                let name = format!("{} {label} {mode:?}", kernel.name());
                assert_batch_is_per_row(&name, npu, inputs, 0);
                let faulty = npu.clone().with_fault_plan(plan.clone());
                assert_batch_is_per_row(&format!("{name} faulted"), &faulty, inputs, 7);
            }
        }
    }
    rumba_nn::set_simd_override(None);
}
