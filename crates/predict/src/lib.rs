//! Light-weight approximation-error predictors — Rumba's "checkers" (§3.2).
//!
//! A dynamic checker never sees the exact result; it must predict, for every
//! accelerator invocation, how large the approximation error will be, using
//! either the accelerator's *inputs* (input-based methods) or its
//! approximate *outputs* (output-based methods):
//!
//! - [`LinearErrors`] — §3.2.1's linear model over the inputs (EEP),
//! - [`TreeErrors`] — §3.2.2's decision tree of depth ≤ 7 (EEP),
//! - [`EmaDetector`] — §3.2.3's exponential moving average (output-based),
//! - [`EvpErrors`] — the Errors-by-Value-Prediction alternative (predict the
//!   output, then difference it against the accelerator output) the paper
//!   evaluates against EEP and rejects.
//!
//! All checkers expose a [`CheckerCost`] describing the hardware work one
//! prediction costs (multiply-accumulates, comparisons, table reads), which
//! the accelerator and energy models consume.
//!
//! # Examples
//!
//! Train a decision-tree checker on observed errors and query it:
//!
//! ```
//! use rumba_predict::{ErrorEstimator, TreeErrors, TreeParams};
//!
//! // Error is high exactly when the (single) input is negative.
//! let inputs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 100.0 - 1.0]).collect();
//! let errors: Vec<f64> = inputs.iter().map(|x| if x[0] < 0.0 { 0.8 } else { 0.05 }).collect();
//! let rows: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
//! let mut tree = TreeErrors::train(&rows, &errors, &TreeParams::default()).unwrap();
//! assert!(tree.estimate(&[-0.5], &[]) > 0.5);
//! assert!(tree.estimate(&[0.5], &[]) < 0.2);
//! ```

mod cost;
mod ema;
mod ensemble;
mod evp;
pub mod linalg;
mod linear;
mod table;
mod tree;

use std::error::Error;
use std::fmt;

use rumba_obs::words::WordReader;

pub use cost::CheckerCost;
pub use ema::EmaDetector;
pub use ensemble::MaxEnsemble;
pub use evp::{decode_evp, encode_evp, EvpErrors, EVP_MAGIC};
pub use linear::{decode_linear, encode_linear, LinearErrors, LinearModel, LINEAR_MAGIC};
pub use table::{TableErrors, TableParams};
pub use tree::{
    decode_tree, encode_tree, DecisionTree, TreeErrors, TreeParams, MAX_DECODE_DEPTH, TREE_MAGIC,
};

/// Errors produced while training predictors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PredictError {
    /// No training rows were supplied.
    EmptyTrainingSet,
    /// Training rows disagree on feature width, or targets have a different
    /// length than the inputs.
    ShapeMismatch {
        /// Description of the disagreement.
        detail: String,
    },
    /// The normal-equations system was singular even after ridge damping.
    SingularSystem,
    /// A hyper-parameter was out of range.
    InvalidParam {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value rendered as text.
        value: String,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::EmptyTrainingSet => write!(f, "training set contains no rows"),
            PredictError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            PredictError::SingularSystem => {
                write!(f, "normal equations are singular; increase the ridge term")
            }
            PredictError::InvalidParam { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
        }
    }
}

impl Error for PredictError {}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, PredictError>;

/// A dynamic checker: predicts the approximation error of one invocation.
///
/// Input-based estimators (linear, tree, EVP) look only at `input`;
/// output-based estimators (EMA) look only at `approx_output`. The estimate
/// is on the same scale as the application's invocation error metric, so
/// the detection module can compare it directly against the tuning
/// threshold.
///
/// Estimators take `&mut self` because output-based methods carry online
/// state (the moving average); [`ErrorEstimator::reset`] clears that state
/// between runs.
pub trait ErrorEstimator: fmt::Debug + Send {
    /// Short scheme name as used in the paper's figures, e.g.
    /// `"linearErrors"`.
    fn name(&self) -> &'static str;

    /// Predicts the invocation's approximation error.
    fn estimate(&mut self, input: &[f64], approx_output: &[f64]) -> f64;

    /// Predicts the invocation's *signed* output-space error — the mean of
    /// `approx[j] − exact[j]` over the output elements — so the runtime can
    /// compensate by subtracting it from the approximate output in place.
    ///
    /// `magnitude` is the value [`ErrorEstimator::estimate`] returned for
    /// this same invocation; the default implementation echoes it back
    /// (magnitude-only checkers compensate as if the error were positive).
    /// Implementations must be pure (`&self`): the runtime calls this only
    /// *after* `estimate` for the row, and it must not advance any online
    /// state — compensated rows follow the same quarantine discipline as
    /// forced-exact ones.
    fn estimate_signed(&self, input: &[f64], approx_output: &[f64], magnitude: f64) -> f64 {
        let _ = (input, approx_output);
        magnitude
    }

    /// Scores `n` invocations from flat row-major buffers, appending one
    /// estimate per row to `scores` (cleared first). `inputs` is
    /// `n × input_dim` and `approx_outputs` is `n × output_dim`; a width of
    /// zero means "no data on that port" and hands every row an empty
    /// slice. Rows are scored in ascending order, so stateful estimators
    /// see the same sequence as a per-row loop — the default implementation
    /// *is* that loop, and implementors must preserve its bit-exact
    /// behaviour.
    fn estimate_batch(
        &mut self,
        n: usize,
        inputs: &[f64],
        input_dim: usize,
        approx_outputs: &[f64],
        output_dim: usize,
        scores: &mut Vec<f64>,
    ) {
        debug_assert_eq!(inputs.len(), n * input_dim);
        debug_assert_eq!(approx_outputs.len(), n * output_dim);
        scores.clear();
        scores.reserve(n);
        for i in 0..n {
            let x =
                if input_dim == 0 { &[][..] } else { &inputs[i * input_dim..(i + 1) * input_dim] };
            let a = if output_dim == 0 {
                &[][..]
            } else {
                &approx_outputs[i * output_dim..(i + 1) * output_dim]
            };
            scores.push(self.estimate(x, a));
        }
    }

    /// Hardware work one prediction costs.
    fn cost(&self) -> CheckerCost;

    /// Clears any online state. Stateless estimators need not override.
    fn reset(&mut self) {}

    /// Serializes the estimator's *online* state (not its trained
    /// coefficients) as plain `u64` config-words — the currency of the
    /// serving layer's session snapshots. Stateless estimators (linear,
    /// tree, EVP: everything they know is in the trained model) return an
    /// empty word list; only online detectors like the EMA override.
    fn export_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state previously produced by
    /// [`ErrorEstimator::export_state`] on an identically configured
    /// estimator, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `words` does not decode
    /// for this estimator's configuration. Stateless estimators accept
    /// only an empty word list.
    fn import_state(&mut self, words: &[u64]) -> std::result::Result<(), String> {
        if words.is_empty() {
            Ok(())
        } else {
            Err(format!("{} carries no online state, got {} words", self.name(), words.len()))
        }
    }

    /// Re-fits the estimator's *trained* model — and its signed companion —
    /// from ground truth collected online: `rows` are accelerator input
    /// rows, `targets` the observed invocation-error magnitudes, and
    /// `signed_targets` the per-row mean signed output errors
    /// (`mean_j(approx[j] − exact[j])`). The runtime's watchdog calls this
    /// at the `Recalibrated` rung with the rows its recovery reservoir
    /// accumulated, so a checker trained before an input-distribution
    /// shift can re-learn the drifted regime without an offline pass.
    ///
    /// The default declines: output-based detectors (EMA) and composite
    /// estimators carry no refittable model, and the runtime falls back to
    /// its reset-only recalibration when refit is unsupported.
    ///
    /// # Errors
    ///
    /// Returns a description of why the refit was refused or failed; on
    /// error the estimator's trained model is unchanged.
    fn refit(
        &mut self,
        rows: &[&[f64]],
        targets: &[f64],
        signed_targets: &[f64],
    ) -> std::result::Result<(), String> {
        let _ = (rows, targets, signed_targets);
        Err(format!("{} does not support online refit", self.name()))
    }

    /// Serializes the estimator's *trained* model as `u64` config-words —
    /// its config stream (the layout the trained-model cache stores), then
    /// a `0|1` flag and the signed companion model when present — so a
    /// session snapshot can migrate a checker that was re-fitted online —
    /// [`ErrorEstimator::export_state`] deliberately covers only online
    /// state and assumes the trained model is reproducible from the
    /// offline pipeline, which stops being true after the first
    /// [`ErrorEstimator::refit`]. Returns `None` for estimators without
    /// refit support (their trained state never diverges from offline
    /// training).
    fn export_model_words(&self) -> Option<Vec<u64>> {
        None
    }

    /// Restores a trained model previously produced by
    /// [`ErrorEstimator::export_model_words`], bit for bit. `input_dim` is
    /// the width of the input rows the model will be evaluated on; a model
    /// that reads beyond it is rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `words` does not decode
    /// for this estimator kind, or when the estimator does not support
    /// trained-model transport at all.
    fn import_model_words(
        &mut self,
        words: &[u64],
        input_dim: usize,
    ) -> std::result::Result<(), String> {
        let _ = (words, input_dim);
        Err(format!("{} does not support trained-model import", self.name()))
    }

    /// A deterministic fingerprint of the estimator's *configuration* —
    /// kind plus the shape parameters that govern how
    /// [`ErrorEstimator::export_state`] words decode (EMA alpha window and
    /// slot count, model widths, tree size). Two estimators whose state
    /// words are interchangeable bit-for-bit must agree on this word; two
    /// whose word counts merely coincide (an EMA under a different alpha, a
    /// linear snapshot restored as tree) must not. The serving layer stores
    /// it alongside the state words and rejects restores onto a
    /// differently-configured checker.
    fn state_config_word(&self) -> u64 {
        config_fingerprint(self.name(), &[])
    }

    /// Whether the estimator reads accelerator inputs (true) or approximate
    /// outputs (false) — §3.5's placement constraint: only input-based
    /// detectors can run before/parallel to the accelerator.
    fn is_input_based(&self) -> bool;
}

/// Reads a config stream's magic word.
fn read_magic(r: &mut WordReader, label: &str, magic: f64) -> std::result::Result<(), String> {
    match r.u64(label)? {
        word if word == magic.to_bits() => Ok(()),
        word => Err(format!("{label}: {} is not this checker's magic word", f64::from_bits(word))),
    }
}

/// Ridge damping used by [`ErrorEstimator::refit`] implementations.
/// Stiffer than the offline trainer's default because refit reservoirs
/// are small and biased toward fired rows, which leaves the normal
/// equations ill-conditioned under the offline damping.
pub const REFIT_RIDGE: f64 = 1e-4;

/// FNV-1a over the estimator name and its shape parameters — the default
/// currency of [`ErrorEstimator::state_config_word`].
#[must_use]
pub fn config_fingerprint(name: &str, params: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &p in params {
        for b in p.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase() {
        for e in [
            PredictError::EmptyTrainingSet,
            PredictError::ShapeMismatch { detail: "x".into() },
            PredictError::SingularSystem,
            PredictError::InvalidParam { name: "depth", value: "0".into() },
        ] {
            let s = e.to_string();
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<PredictError>();
    }
}
