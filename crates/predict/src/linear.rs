//! §3.2.1 — error prediction using a linear model.
//!
//! `err = w0*x0 + w1*x1 + ... + w(N-1)*x(N-1) + c` (Equation 1), with the
//! weights and constant determined by offline ridge least squares on
//! training errors. One online prediction costs `N` multiply-adds plus one
//! threshold comparison.

use rumba_obs::words::{push_f64s, read_all, WordReader};

use crate::linalg::ridge_fit;
use crate::{read_magic, CheckerCost, ErrorEstimator, Result, REFIT_RIDGE};

/// Magic word marking a linear-checker config stream.
pub const LINEAR_MAGIC: f64 = 0x4C_49_4E as f64; // "LIN"

/// A plain affine function `w · x + c`, reusable for value prediction (EVP)
/// as well as error prediction (EEP).
///
/// # Examples
///
/// ```
/// use rumba_predict::LinearModel;
///
/// let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 1.0).collect();
/// let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
/// let m = LinearModel::fit(&refs, &ys, 1e-9).unwrap();
/// assert!((m.predict(&[10.0]) - 21.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearModel {
    /// Fits the model by ridge least squares.
    ///
    /// # Errors
    ///
    /// Propagates shape and singularity errors from the solver.
    pub fn fit(rows: &[&[f64]], targets: &[f64], ridge: f64) -> Result<Self> {
        let w = ridge_fit(rows, targets, ridge)?;
        let (bias, weights) = w.split_last().expect("solver output is dim+1 wide");
        Ok(Self { weights: weights.to_vec(), bias: *bias })
    }

    /// Evaluates `w · x + c`. Extra trailing features are ignored; missing
    /// ones are treated as zero, mirroring a fixed-width hardware MAC chain.
    #[must_use]
    pub fn predict(&self, input: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (w, x) in self.weights.iter().zip(input) {
            acc += w * x;
        }
        acc
    }

    /// Rebuilds a model from raw coefficients (the config-stream decoder's
    /// constructor).
    #[must_use]
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// Fitted feature weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted constant term.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Appends the model as config words `[n_weights, weights..., bias]`
    /// (the layout of a linear checker after its magic word, of each EVP
    /// value model and of each zoo router).
    pub fn write_words(&self, out: &mut Vec<u64>) {
        out.push((self.weights.len() as f64).to_bits());
        push_f64s(out, &self.weights);
        out.push(self.bias.to_bits());
    }

    /// Reads one model written by [`LinearModel::write_words`].
    ///
    /// # Errors
    ///
    /// Names the first malformed field; non-finite coefficients are
    /// rejected.
    pub fn read_words(r: &mut WordReader) -> std::result::Result<Self, String> {
        let width = r.f64_count("linear.width", r.remaining().saturating_sub(1))?;
        let weights = r.f64s("linear.weights", width)?;
        let bias = r.f64("linear.bias")?;
        if weights.iter().chain([&bias]).any(|v| !v.is_finite()) {
            return Err("linear.weights: non-finite coefficients".to_owned());
        }
        Ok(Self { weights, bias })
    }
}

/// The `linearErrors` checker: an input-based EEP estimator backed by one
/// [`LinearModel`] trained directly on observed invocation errors, plus an
/// optional second model fit on *signed* output-space errors for the
/// compensation path.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearErrors {
    model: LinearModel,
    signed: Option<LinearModel>,
}

impl LinearErrors {
    /// Trains on `(input row, observed invocation error)` pairs gathered by
    /// the offline trainer.
    ///
    /// # Errors
    ///
    /// Propagates shape and singularity errors from the solver.
    pub fn train(rows: &[&[f64]], errors: &[f64], ridge: f64) -> Result<Self> {
        Ok(Self { model: LinearModel::fit(rows, errors, ridge)?, signed: None })
    }

    /// Wraps an already-built model (the config-stream decoder's
    /// constructor).
    #[must_use]
    pub fn from_model(model: LinearModel) -> Self {
        Self { model, signed: None }
    }

    /// Attaches a model fit on signed output-space errors (mean of
    /// `approx[j] − exact[j]` per row); [`ErrorEstimator::estimate_signed`]
    /// evaluates it unclamped.
    #[must_use]
    pub fn with_signed_model(mut self, signed: LinearModel) -> Self {
        self.signed = Some(signed);
        self
    }

    /// The underlying affine model (weights feed the coefficient buffer).
    #[must_use]
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// The signed-error model, when one was attached.
    #[must_use]
    pub fn signed_model(&self) -> Option<&LinearModel> {
        self.signed.as_ref()
    }
}

/// Serializes a linear checker's trained model as its config stream,
/// `[LINEAR_MAGIC, n_weights, weights..., bias]`.
///
/// # Examples
///
/// ```
/// use rumba_predict::{decode_linear, encode_linear, ErrorEstimator, LinearErrors};
///
/// let rows = [vec![0.0], vec![1.0]];
/// let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
/// let le = LinearErrors::train(&refs, &[0.0, 0.5], 1e-9).unwrap();
/// let mut restored = decode_linear(&encode_linear(&le)).unwrap();
/// assert!((restored.estimate(&[0.5], &[]) - 0.25).abs() < 1e-6);
/// ```
#[must_use]
pub fn encode_linear(checker: &LinearErrors) -> Vec<u64> {
    let mut words = vec![LINEAR_MAGIC.to_bits()];
    checker.model.write_words(&mut words);
    words
}

/// Reconstructs a linear checker from [`encode_linear`] output.
///
/// # Errors
///
/// Names the first malformed field (magic word, width, coefficients) or
/// reports trailing words.
pub fn decode_linear(words: &[u64]) -> std::result::Result<LinearErrors, String> {
    read_all(words, "linear", read_linear).map(LinearErrors::from_model)
}

fn read_linear(r: &mut WordReader) -> std::result::Result<LinearModel, String> {
    read_magic(r, "linear.magic", LINEAR_MAGIC)?;
    LinearModel::read_words(r)
}

impl ErrorEstimator for LinearErrors {
    fn name(&self) -> &'static str {
        "linearErrors"
    }

    fn estimate(&mut self, input: &[f64], _approx_output: &[f64]) -> f64 {
        // Magnitude estimates stay nonnegative; clamp the affine output.
        // The signed path below is deliberately unclamped.
        self.model.predict(input).max(0.0)
    }

    fn estimate_signed(&self, input: &[f64], _approx_output: &[f64], magnitude: f64) -> f64 {
        match &self.signed {
            Some(m) => m.predict(input),
            None => magnitude,
        }
    }

    fn state_config_word(&self) -> u64 {
        crate::config_fingerprint(
            self.name(),
            &[self.model.weights().len() as u64, u64::from(self.signed.is_some())],
        )
    }

    fn cost(&self) -> CheckerCost {
        CheckerCost {
            macs: self.model.weights().len() + 1,
            comparisons: 1,
            table_reads: self.model.weights().len() + 1,
        }
    }

    fn refit(
        &mut self,
        rows: &[&[f64]],
        targets: &[f64],
        signed_targets: &[f64],
    ) -> std::result::Result<(), String> {
        // Fit both models before swapping either, so a failed signed fit
        // cannot leave a half-replaced checker behind.
        let model = LinearModel::fit(rows, targets, REFIT_RIDGE).map_err(|e| e.to_string())?;
        let signed =
            LinearModel::fit(rows, signed_targets, REFIT_RIDGE).map_err(|e| e.to_string())?;
        self.model = model;
        self.signed = Some(signed);
        Ok(())
    }

    fn export_model_words(&self) -> Option<Vec<u64>> {
        let mut out = encode_linear(self);
        out.push(u64::from(self.signed.is_some()));
        if let Some(signed) = &self.signed {
            signed.write_words(&mut out);
        }
        Some(out)
    }

    fn import_model_words(
        &mut self,
        words: &[u64],
        _input_dim: usize,
    ) -> std::result::Result<(), String> {
        let (model, signed) = read_all(words, "linear", |r| {
            let model = read_linear(r)?;
            let signed =
                r.flag("linear.signed")?.then(|| LinearModel::read_words(r)).transpose()?;
            Ok((model, signed))
        })?;
        self.model = model;
        self.signed = signed;
        Ok(())
    }

    fn is_input_based(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn affine_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![i as f64 / n as f64, ((i * 37) % n) as f64 / n as f64]).collect();
        let ys = rows.iter().map(|r| 0.3 * r[0] - 0.1 * r[1] + 0.5).collect();
        (rows, ys)
    }

    #[test]
    fn recovers_affine_coefficients() {
        let (rows, ys) = affine_rows(64);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let m = LinearModel::fit(&refs, &ys, 1e-9).unwrap();
        assert!((m.weights()[0] - 0.3).abs() < 1e-6);
        assert!((m.weights()[1] + 0.1).abs() < 1e-6);
        assert!((m.bias() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn estimate_is_clamped_nonnegative() {
        let rows = [vec![0.0], vec![1.0]];
        let errors = [0.0, -0.0];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut le = LinearErrors::train(&refs, &errors, 1e-6).unwrap();
        assert!(le.estimate(&[-100.0], &[]) >= 0.0);
    }

    #[test]
    fn cost_scales_with_input_width() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64; 5]).collect();
        let errors: Vec<f64> = (0..10).map(|i| i as f64 * 0.01).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let le = LinearErrors::train(&refs, &errors, 1e-3).unwrap();
        assert_eq!(le.cost().macs, 6);
        assert!(le.is_input_based());
    }

    #[test]
    fn name_matches_paper_label() {
        let rows = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let le = LinearErrors::train(&refs, &[0.1, 0.2], 1e-6).unwrap();
        assert_eq!(le.name(), "linearErrors");
    }

    #[test]
    fn refit_replaces_both_models_deterministically() {
        let (rows, ys) = affine_rows(64);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut le = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        assert!(le.signed_model().is_none());
        let new_targets: Vec<f64> = rows.iter().map(|r| 0.9 * r[0] + 0.2).collect();
        let signed: Vec<f64> = rows.iter().map(|r| 0.5 * r[1] - 0.1).collect();
        le.refit(&refs, &new_targets, &signed).unwrap();
        assert!((le.model().predict(&[1.0, 0.0]) - 1.1).abs() < 1e-3);
        assert!(le.signed_model().is_some());
        let mut again = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        again.refit(&refs, &new_targets, &signed).unwrap();
        assert_eq!(le.model().weights(), again.model().weights());
    }

    #[test]
    fn model_words_round_trip_bit_for_bit() {
        let (rows, ys) = affine_rows(32);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let signed: Vec<f64> = rows.iter().map(|r| r[0] - r[1]).collect();
        let mut le = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        le.refit(&refs, &ys, &signed).unwrap();
        let words = le.export_model_words().unwrap();
        let mut other = LinearErrors::train(&refs, &signed, 1e-6).unwrap();
        other.import_model_words(&words, 2).unwrap();
        assert_eq!(other.export_model_words().unwrap(), words);
        assert_eq!(
            le.model().predict(&[0.3, 0.7]).to_bits(),
            other.model().predict(&[0.3, 0.7]).to_bits()
        );
        // The snapshot words are the config stream, then the signed pair.
        let stream = encode_linear(&le);
        assert_eq!(words[..stream.len()], stream[..]);
        assert_eq!(words[stream.len()], 1);
        // Truncated and garbage streams are rejected.
        assert!(other.import_model_words(&words[..words.len() - 1], 2).is_err());
        assert!(other.import_model_words(&[u64::MAX], 2).is_err());
    }

    #[test]
    fn config_stream_round_trips_and_rejects_malformed_words() {
        let (rows, ys) = affine_rows(16);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let le = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        let words = encode_linear(&le);
        assert_eq!(decode_linear(&words).unwrap().model(), le.model());
        assert!(decode_linear(&words[..words.len() - 1]).is_err());
        let mut trailing = words.clone();
        trailing.push(0);
        assert!(decode_linear(&trailing).unwrap_err().contains("trailing"));
        let mut huge = words.clone();
        huge[1] = 1e9f64.to_bits();
        assert!(decode_linear(&huge).unwrap_err().starts_with("linear.width"));
        let mut nan = words;
        nan[2] = f64::NAN.to_bits();
        assert!(decode_linear(&nan).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn predict_tolerates_width_mismatch() {
        let m = LinearModel { weights: vec![1.0, 2.0], bias: 0.0 };
        assert_eq!(m.predict(&[1.0]), 1.0);
        assert_eq!(m.predict(&[1.0, 1.0, 9.0]), 3.0);
    }
}
