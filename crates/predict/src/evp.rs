//! Errors by Value Prediction (EVP) — the alternative §3.2 evaluates and
//! rejects in favor of direct error prediction (EEP).
//!
//! EVP predicts the *output* with a model, then derives the error estimate
//! by differencing the prediction against the accelerator's approximate
//! output. The paper measures EVP's estimates to be ~2.5× farther from the
//! true errors than EEP's on the Gaussian example; the `evp_eep` harness
//! binary reproduces that comparison.

use rumba_obs::words::read_all;

use crate::{read_magic, CheckerCost, ErrorEstimator, LinearModel, PredictError, Result};

/// Magic word marking an EVP-checker config stream.
pub const EVP_MAGIC: f64 = 0x45_56_50 as f64; // "EVP"

/// An input-based estimator that predicts each output element with a linear
/// model and scores an invocation by the mean relative distance between the
/// predicted and the approximate outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct EvpErrors {
    models: Vec<LinearModel>,
    eps: f64,
}

impl EvpErrors {
    /// Trains one value model per output element from `(input row, exact
    /// output row)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::EmptyTrainingSet`] / shape errors from the
    /// underlying solver, and [`PredictError::ShapeMismatch`] if output rows
    /// are ragged.
    pub fn train(rows: &[&[f64]], exact_outputs: &[&[f64]], ridge: f64) -> Result<Self> {
        if rows.is_empty() {
            return Err(PredictError::EmptyTrainingSet);
        }
        if rows.len() != exact_outputs.len() {
            return Err(PredictError::ShapeMismatch {
                detail: format!("{} rows vs {} output rows", rows.len(), exact_outputs.len()),
            });
        }
        let out_dim = exact_outputs[0].len();
        if out_dim == 0 || exact_outputs.iter().any(|r| r.len() != out_dim) {
            return Err(PredictError::ShapeMismatch { detail: "ragged output rows".into() });
        }
        let mut models = Vec::with_capacity(out_dim);
        for j in 0..out_dim {
            let targets: Vec<f64> = exact_outputs.iter().map(|r| r[j]).collect();
            models.push(LinearModel::fit(rows, &targets, ridge)?);
        }
        Ok(Self { models, eps: 0.05 })
    }

    /// The per-output value models.
    #[must_use]
    pub fn models(&self) -> &[LinearModel] {
        &self.models
    }

    /// Rebuilds a checker from its components (the config-stream decoder's
    /// constructor).
    #[must_use]
    pub fn from_parts(models: Vec<LinearModel>, eps: f64) -> Self {
        Self { models, eps }
    }

    /// The relative-error denominator guard.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }
}

/// Serializes an EVP checker as its config stream, `[EVP_MAGIC, n_models,
/// eps, models...]`: one value model per output element (each in the
/// [`LinearModel::write_words`] layout) plus the relative-error
/// denominator guard.
#[must_use]
pub fn encode_evp(checker: &EvpErrors) -> Vec<u64> {
    let mut words = vec![EVP_MAGIC.to_bits(), (checker.models.len() as f64).to_bits()];
    words.push(checker.eps.to_bits());
    for model in &checker.models {
        model.write_words(&mut words);
    }
    words
}

/// Reconstructs an EVP checker from [`encode_evp`] output.
///
/// # Errors
///
/// Names the first malformed field or reports trailing words.
pub fn decode_evp(words: &[u64]) -> std::result::Result<EvpErrors, String> {
    read_all(words, "evp", |r| {
        read_magic(r, "evp.magic", EVP_MAGIC)?;
        // Every value model takes at least two words.
        let n_models = r.f64_count("evp.models", r.remaining() / 2)?;
        let eps = r.f64("evp.eps")?;
        let models = (0..n_models)
            .map(|_| LinearModel::read_words(r))
            .collect::<std::result::Result<_, _>>()?;
        Ok(EvpErrors { models, eps })
    })
}

impl ErrorEstimator for EvpErrors {
    fn name(&self) -> &'static str {
        "EVP"
    }

    fn estimate(&mut self, input: &[f64], approx_output: &[f64]) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for (model, &a) in self.models.iter().zip(approx_output) {
            let predicted = model.predict(input);
            total += (a - predicted).abs() / predicted.abs().max(self.eps);
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    fn estimate_signed(&self, input: &[f64], approx_output: &[f64], magnitude: f64) -> f64 {
        // EVP's output-difference is already signed: the mean of
        // `approx[j] − predicted[j]` over the output elements.
        let mut total = 0.0;
        let mut counted = 0usize;
        for (model, &a) in self.models.iter().zip(approx_output) {
            total += a - model.predict(input);
            counted += 1;
        }
        if counted == 0 {
            magnitude
        } else {
            total / counted as f64
        }
    }

    fn state_config_word(&self) -> u64 {
        let mut params = vec![self.models.len() as u64, self.eps.to_bits()];
        params.extend(self.models.iter().map(|m| m.weights().len() as u64));
        crate::config_fingerprint(self.name(), &params)
    }

    fn cost(&self) -> CheckerCost {
        let per_model = self.models.first().map_or(0, |m| m.weights().len() + 1);
        CheckerCost {
            // Value MACs plus the differencing subtract per output.
            macs: self.models.len() * (per_model + 1),
            comparisons: 1,
            table_reads: self.models.len() * per_model,
        }
    }

    fn is_input_based(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_world() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 80.0]).collect();
        let outs: Vec<Vec<f64>> = rows.iter().map(|r| vec![2.0 * r[0], 1.0 - r[0]]).collect();
        (rows, outs)
    }

    #[test]
    fn perfect_value_model_scores_exact_output_as_zero() {
        let (rows, outs) = linear_world();
        let r: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let o: Vec<&[f64]> = outs.iter().map(Vec::as_slice).collect();
        let mut evp = EvpErrors::train(&r, &o, 1e-9).unwrap();
        // The accelerator output equals the true (linear) output: EVP sees
        // almost no deviation.
        let score = evp.estimate(&[0.5], &[1.0, 0.5]);
        assert!(score < 1e-6, "score {score}");
    }

    #[test]
    fn deviating_output_scores_high() {
        let (rows, outs) = linear_world();
        let r: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let o: Vec<&[f64]> = outs.iter().map(Vec::as_slice).collect();
        let mut evp = EvpErrors::train(&r, &o, 1e-9).unwrap();
        let good = evp.estimate(&[0.5], &[1.0, 0.5]);
        let bad = evp.estimate(&[0.5], &[2.0, 0.5]);
        assert!(bad > good + 0.3);
    }

    #[test]
    fn validates_shapes() {
        let rows: Vec<&[f64]> = vec![&[1.0]];
        let outs: Vec<&[f64]> = vec![&[1.0], &[2.0]];
        assert!(matches!(
            EvpErrors::train(&rows, &outs, 1e-6),
            Err(PredictError::ShapeMismatch { .. })
        ));
        assert!(matches!(EvpErrors::train(&[], &[], 1e-6), Err(PredictError::EmptyTrainingSet)));
    }

    #[test]
    fn cost_exceeds_plain_linear_checker() {
        let (rows, outs) = linear_world();
        let r: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let o: Vec<&[f64]> = outs.iter().map(Vec::as_slice).collect();
        let evp = EvpErrors::train(&r, &o, 1e-9).unwrap();
        // Two output models of width 1: EVP costs more MACs than one EEP
        // linear model would (2 weights + bias = 3 MACs there).
        assert!(evp.cost().macs > 3);
        assert!(evp.is_input_based());
        assert_eq!(evp.name(), "EVP");
    }

    fn trained_evp() -> EvpErrors {
        let rows: Vec<Vec<f64>> =
            (0..120).map(|i| vec![i as f64 / 120.0, (i % 5) as f64 / 5.0]).collect();
        let outs: Vec<Vec<f64>> =
            rows.iter().map(|r| vec![2.0 * r[0] + r[1], 1.0 - r[0], r[1] * 0.5]).collect();
        let r: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let o: Vec<&[f64]> = outs.iter().map(Vec::as_slice).collect();
        EvpErrors::train(&r, &o, 1e-9).unwrap()
    }

    #[test]
    fn config_stream_round_trip_is_exact() {
        let evp = trained_evp();
        let words = encode_evp(&evp);
        let mut restored = decode_evp(&words).unwrap();
        assert_eq!(encode_evp(&restored), words);
        let mut original = evp;
        for i in 0..30 {
            let x = [i as f64 / 30.0, (i % 4) as f64 / 4.0];
            let a = [x[0] * 1.9, 1.0 - x[0] * 1.1, x[1] * 0.4];
            assert_eq!(
                original.estimate(&x, &a).to_bits(),
                restored.estimate(&x, &a).to_bits(),
                "row {i}"
            );
        }
        for cut in [words.len() - 1, 2, 3] {
            assert!(decode_evp(&words[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = words;
        trailing.push(0.25f64.to_bits());
        assert!(decode_evp(&trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn huge_model_count_is_rejected_without_allocating() {
        let mut words = encode_evp(&trained_evp());
        words[1] = 999_999_999f64.to_bits();
        assert!(decode_evp(&words).unwrap_err().starts_with("evp.models"));
    }

    #[test]
    fn each_decoder_rejects_the_other_checkers_streams() {
        use crate::{decode_linear, decode_tree, encode_linear, encode_tree};
        use crate::{LinearErrors, TreeErrors, TreeParams};
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 64.0]).collect();
        let errors: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 0.4 } else { 0.0 }).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let linear = encode_linear(&LinearErrors::train(&refs, &errors, 1e-6).unwrap());
        let tree = encode_tree(&TreeErrors::train(&refs, &errors, &TreeParams::default()).unwrap());
        let evp = encode_evp(&trained_evp());
        assert!(decode_linear(&tree).unwrap_err().starts_with("linear.magic"));
        assert!(decode_linear(&evp).unwrap_err().starts_with("linear.magic"));
        assert!(decode_tree(&linear, 2).unwrap_err().starts_with("tree.magic"));
        assert!(decode_tree(&evp, 2).unwrap_err().starts_with("tree.magic"));
        assert!(decode_evp(&linear).unwrap_err().starts_with("evp.magic"));
        assert!(decode_evp(&tree).unwrap_err().starts_with("evp.magic"));
    }
}
