//! The offline half of Figure 4: the accelerator trainer and the error
//! predictor trainer.
//!
//! Given a benchmark kernel, [`train_app`] fits two accelerators (the
//! Rumba topology and the unchecked-NPU topology from Table 1), replays the
//! Rumba accelerator over the training split to observe its per-invocation
//! errors, and fits the three trainable checkers on those errors. The
//! resulting [`TrainedApp`] is everything the online system (and every
//! evaluation figure) needs; its parameters are what the paper embeds in
//! the application binary.

use rumba_accel::{Npu, NpuParams};
use rumba_apps::Kernel;
use rumba_nn::{Activation, Matrix, NnDataset, Scratch, TrainParams, TrainedModel};
use rumba_predict::{
    DecisionTree, ErrorEstimator, EvpErrors, LinearErrors, LinearModel, TreeErrors, TreeParams,
};

use crate::cache::{CachedModels, TrainedModelCache};
use crate::tuner::calibrate_threshold;
use crate::{Result, RumbaError};

/// Settings for the offline pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineConfig {
    /// Master seed for dataset generation and network initialization.
    pub seed: u64,
    /// Accelerator microarchitecture.
    pub npu_params: NpuParams,
    /// Decision-tree hyper-parameters (paper: depth ≤ 7).
    pub tree_params: TreeParams,
    /// Ridge damping for the linear trainers.
    pub ridge: f64,
    /// EMA history length `N` (§3.2.3).
    pub ema_window: usize,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            npu_params: NpuParams::default(),
            tree_params: TreeParams::default(),
            ridge: 1e-6,
            ema_window: 8,
        }
    }
}

/// Everything the offline trainers produce for one benchmark.
#[derive(Debug)]
pub struct TrainedApp {
    /// Benchmark name (Table 1).
    pub name: String,
    /// Accelerator configured with the Rumba topology.
    pub rumba_npu: Npu,
    /// Accelerator configured with the unchecked-NPU topology (the §5
    /// baseline).
    pub baseline_npu: Npu,
    /// Trained linear error checker (magnitude model for detection, plus a
    /// signed-error fit for the compensation path).
    pub linear: LinearErrors,
    /// Trained decision-tree error checker (magnitude tree plus a signed
    /// fit, as for `linear`).
    pub tree: TreeErrors,
    /// Trained value-prediction (EVP) checker.
    pub evp: EvpErrors,
    /// EMA history length to instantiate online EMA detectors with.
    pub ema_window: usize,
    /// Per-invocation errors of the Rumba accelerator on the train split
    /// (the predictor-trainer's targets; kept for threshold calibration).
    pub train_errors: Vec<f64>,
}

impl TrainedApp {
    /// Calibrates a deployed checker's initial firing threshold: replays
    /// the Rumba accelerator over `train` (the app's train split), has
    /// `probe` estimate each invocation's error, and places the threshold
    /// whose firing rate meets `target_error` on [`TrainedApp::train_errors`]
    /// ([`calibrate_threshold`]). Returns the per-invocation predictions
    /// with the threshold, so callers can reuse them on the same split.
    ///
    /// # Errors
    ///
    /// Propagates accelerator dimension errors.
    pub fn calibrate(
        &self,
        probe: &mut dyn ErrorEstimator,
        train: &NnDataset,
        target_error: f64,
    ) -> Result<(Vec<f64>, f64)> {
        let mut scratch = Scratch::new();
        let mut approx = Matrix::default();
        self.rumba_npu.invoke_batch(train.inputs_view(), &mut scratch, &mut approx)?;
        let predicted: Vec<f64> =
            (0..train.len()).map(|i| probe.estimate(train.input(i), approx.row(i))).collect();
        let threshold = calibrate_threshold(&predicted, &self.train_errors, target_error);
        Ok((predicted, threshold))
    }
}

/// Neural-network training hyper-parameters per benchmark.
///
/// Epoch counts are deliberately modest: the paper's accelerators are
/// *approximate* (their unchecked output error averages ≈20 %), so the
/// goal is a faithful — not a maximally accurate — surrogate.
#[must_use]
pub fn nn_params_for(kernel: &dyn Kernel) -> TrainParams {
    match kernel.name() {
        // Classification over 18 inputs: bigger batches, gentler steps.
        "jmeint" => TrainParams {
            epochs: 120,
            learning_rate: 0.15,
            batch_size: 32,
            ..TrainParams::default()
        },
        // 64->16->64 autoencoder shape: few epochs suffice and keep the
        // harness fast.
        "jpeg" => {
            TrainParams { epochs: 2, learning_rate: 0.05, batch_size: 32, ..TrainParams::default() }
        }
        // The image kernels converge fast on their own training images;
        // modest epoch counts land the accelerators in the paper's
        // approximate-but-useful regime.
        "sobel" => TrainParams { epochs: 2, ..TrainParams::default() },
        "kmeans" => TrainParams { epochs: 6, ..TrainParams::default() },
        // The arm kernel's loss surface is noisy under the harness init
        // stream; this point keeps the surrogate in the paper's ~15-20 %
        // unchecked-error regime with a well-ranked tree checker.
        "inversek2j" => TrainParams { epochs: 40, learning_rate: 0.11, ..TrainParams::default() },
        _ => TrainParams { epochs: 60, ..TrainParams::default() },
    }
}

/// Runs the full offline pipeline for one kernel, consulting the
/// environment-configured [`TrainedModelCache`] so repeated harness
/// binaries train each kernel at most once (set `RUMBA_CACHE=0` to force
/// retraining).
///
/// # Errors
///
/// Propagates network-training and checker-training failures; an empty
/// generated train split yields [`RumbaError::EmptyWorkload`].
pub fn train_app(kernel: &dyn Kernel, cfg: &OfflineConfig) -> Result<TrainedApp> {
    train_app_with_cache(kernel, cfg, &TrainedModelCache::from_env())
}

/// [`train_app`] with an explicit cache (tests inject temp directories and
/// [`TrainedModelCache::disabled`]).
///
/// A cache hit loads every model, the signed-error fits included, and
/// generates no train split; a miss fits them all and stores them.
///
/// # Errors
///
/// Propagates network-training and checker-training failures; an empty
/// generated train split yields [`RumbaError::EmptyWorkload`].
pub fn train_app_with_cache(
    kernel: &dyn Kernel,
    cfg: &OfflineConfig,
    cache: &TrainedModelCache,
) -> Result<TrainedApp> {
    let nn_params = nn_params_for(kernel);
    let rumba_topo = kernel.rumba_topology();
    let npu_topo = kernel.npu_topology();
    let topologies = (rumba_topo.as_slice(), npu_topo.as_slice());

    // The cached config-words are bit-exact, so a hit serves exactly what
    // a fresh training run would.
    let models = match cache.load(kernel.name(), topologies, cfg, &nn_params) {
        Some(models) => models,
        None => {
            let models = fit_models(kernel, cfg, &nn_params)?;
            cache.store(kernel.name(), topologies, cfg, &nn_params, &models);
            models
        }
    };
    Ok(TrainedApp {
        name: kernel.name().to_owned(),
        rumba_npu: Npu::new(models.rumba_model, cfg.npu_params),
        baseline_npu: Npu::new(models.baseline_model, cfg.npu_params),
        linear: models.linear.with_signed_model(models.signed_linear),
        tree: models.tree.with_signed_tree(models.signed_tree),
        evp: models.evp,
        ema_window: cfg.ema_window,
        train_errors: models.train_errors,
    })
}

/// The offline pipeline proper (the cache-miss path): fits both
/// accelerators on the train split, replays the Rumba accelerator over it
/// once, and fits the checkers on what that replay observed — magnitude
/// models on the kernel metric's per-invocation errors, and the *signed*
/// models the compensation path subtracts on the per-row mean signed
/// output error `mean_j(approx[j] − exact[j])`.
fn fit_models(
    kernel: &dyn Kernel,
    cfg: &OfflineConfig,
    nn_params: &TrainParams,
) -> Result<CachedModels> {
    let train = kernel.generate(rumba_apps::Split::Train, cfg.seed);
    if train.is_empty() {
        return Err(RumbaError::EmptyWorkload);
    }
    let rumba_model = TrainedModel::fit(
        &kernel.rumba_topology(),
        Activation::Sigmoid,
        &train,
        nn_params,
        cfg.seed ^ 0xace1,
    )?;
    let baseline_model = TrainedModel::fit(
        &kernel.npu_topology(),
        Activation::Sigmoid,
        &train,
        nn_params,
        cfg.seed ^ 0xace2,
    )?;

    let out_dim = rumba_model.mlp().output_dim();
    let approx = approximate_outputs(&Npu::new(rumba_model.clone(), cfg.npu_params), &train)?;
    let approx_row = |i: usize| &approx[i * out_dim..(i + 1) * out_dim];
    let metric = kernel.metric();
    let train_errors: Vec<f64> =
        (0..train.len()).map(|i| metric.invocation_error(train.target(i), approx_row(i))).collect();
    let signed: Vec<f64> = (0..train.len())
        .map(|i| {
            let exact = train.target(i);
            approx_row(i).iter().zip(exact).map(|(a, e)| a - e).sum::<f64>() / out_dim as f64
        })
        .collect();

    let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
    let exact_rows: Vec<&[f64]> = (0..train.len()).map(|i| train.target(i)).collect();
    Ok(CachedModels {
        linear: LinearErrors::train(&rows, &train_errors, cfg.ridge)?,
        tree: TreeErrors::train(&rows, &train_errors, &cfg.tree_params)?,
        evp: EvpErrors::train(&rows, &exact_rows, cfg.ridge)?,
        signed_linear: LinearModel::fit(&rows, &signed, cfg.ridge)?,
        signed_tree: DecisionTree::fit(&rows, &signed, &cfg.tree_params)?,
        rumba_model,
        baseline_model,
        train_errors,
    })
}

/// Replays an accelerator over a dataset and scores each invocation with
/// the kernel's metric against the exact targets.
///
/// # Errors
///
/// Propagates accelerator dimension errors.
pub fn invocation_errors(kernel: &dyn Kernel, npu: &Npu, data: &NnDataset) -> Result<Vec<f64>> {
    let metric = kernel.metric();
    // One batched invocation replaces the per-row loop; each row is
    // bit-identical to `Npu::invoke` at any thread count.
    let mut scratch = Scratch::new();
    let mut approx = Matrix::default();
    npu.invoke_batch(data.inputs_view(), &mut scratch, &mut approx)?;
    Ok((0..data.len()).map(|i| metric.invocation_error(data.target(i), approx.row(i))).collect())
}

/// Replays an accelerator over a dataset, returning the flat approximate
/// output stream.
///
/// # Errors
///
/// Propagates accelerator dimension errors.
pub fn approximate_outputs(npu: &Npu, data: &NnDataset) -> Result<Vec<f64>> {
    let mut scratch = Scratch::new();
    let mut out = Matrix::default();
    npu.invoke_batch(data.inputs_view(), &mut scratch, &mut out)?;
    Ok(out.into_flat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumba_apps::kernel_by_name;

    #[test]
    fn trains_the_gaussian_kernel_end_to_end() {
        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        assert_eq!(app.name, "gaussian");
        assert_eq!(app.rumba_npu.input_dim(), 1);
        assert_eq!(app.train_errors.len(), 2_000);
        // The tiny 1->2->1 network cannot be exact: some train error exists.
        let mean: f64 = app.train_errors.iter().sum::<f64>() / app.train_errors.len() as f64;
        assert!(mean > 1e-4, "mean train error {mean}");
    }

    #[test]
    fn rumba_accelerator_is_never_slower_than_baseline() {
        let kernel = kernel_by_name("inversek2j").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        assert!(app.rumba_npu.cycles_per_invocation() <= app.baseline_npu.cycles_per_invocation());
    }

    #[test]
    fn training_is_deterministic() {
        let kernel = kernel_by_name("gaussian").unwrap();
        let a = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let b = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        assert_eq!(a.train_errors, b.train_errors);
    }

    /// A kernel that counts how often its data split is generated.
    #[derive(Debug)]
    struct CountingKernel {
        inner: Box<dyn Kernel>,
        generated: std::sync::atomic::AtomicUsize,
    }

    impl Kernel for CountingKernel {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn domain(&self) -> &'static str {
            self.inner.domain()
        }
        fn input_dim(&self) -> usize {
            self.inner.input_dim()
        }
        fn output_dim(&self) -> usize {
            self.inner.output_dim()
        }
        fn compute(&self, input: &[f64], output: &mut [f64]) {
            self.inner.compute(input, output);
        }
        fn metric(&self) -> rumba_apps::ErrorMetric {
            self.inner.metric()
        }
        fn rumba_topology(&self) -> Vec<usize> {
            self.inner.rumba_topology()
        }
        fn npu_topology(&self) -> Vec<usize> {
            self.inner.npu_topology()
        }
        fn generate(&self, split: rumba_apps::Split, seed: u64) -> NnDataset {
            self.generated.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.generate(split, seed)
        }
        fn cpu_cycles(&self) -> f64 {
            self.inner.cpu_cycles()
        }
        fn kernel_fraction(&self) -> f64 {
            self.inner.kernel_fraction()
        }
        fn train_data_desc(&self) -> &'static str {
            self.inner.train_data_desc()
        }
        fn test_data_desc(&self) -> &'static str {
            self.inner.test_data_desc()
        }
    }

    #[test]
    fn signed_fits_are_attached_on_fresh_and_cached_paths() {
        use crate::cache::TrainedModelCache;
        use rumba_predict::ErrorEstimator;
        use std::sync::atomic::Ordering;
        let kernel = CountingKernel {
            inner: kernel_by_name("gaussian").unwrap(),
            generated: Default::default(),
        };
        let dir =
            std::env::temp_dir().join(format!("rumba-signed-fit-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TrainedModelCache::with_dir(&dir);
        let cfg = OfflineConfig::default();

        let fresh = train_app_with_cache(&kernel, &cfg, &cache).unwrap();
        assert!(fresh.linear.signed_model().is_some());
        assert!(fresh.tree.signed_tree().is_some());
        assert_eq!(kernel.generated.load(Ordering::Relaxed), 1, "a miss generates the split once");

        // The cache-hit path loads the stored signed models: no train
        // split, and estimates bit-identical to the fresh fit.
        let cached = train_app_with_cache(&kernel, &cfg, &cache).unwrap();
        assert_eq!(kernel.generated.load(Ordering::Relaxed), 1, "a hit generates no split");
        assert_eq!(cached.linear, fresh.linear);
        assert_eq!(cached.tree, fresh.tree);
        let probe = kernel.inner.generate(rumba_apps::Split::Test, 42);
        for i in (0..probe.len()).step_by(97) {
            let input = probe.input(i);
            assert_eq!(
                fresh.linear.estimate_signed(input, &[], 0.0).to_bits(),
                cached.linear.estimate_signed(input, &[], 0.0).to_bits(),
            );
            assert_eq!(
                fresh.tree.estimate_signed(input, &[], 0.0).to_bits(),
                cached.tree.estimate_signed(input, &[], 0.0).to_bits(),
            );
        }
        // The signed fit carries sign information the magnitude model
        // cannot: over the train split at least one estimate is negative.
        let train = kernel.inner.generate(rumba_apps::Split::Train, 42);
        let any_negative =
            (0..train.len()).any(|i| fresh.linear.estimate_signed(train.input(i), &[], 0.0) < 0.0);
        assert!(any_negative, "a signed fit must be able to go negative");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_nonnegative() {
        let kernel = kernel_by_name("fft").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        assert!(app.train_errors.iter().all(|&e| e >= 0.0));
    }
}
