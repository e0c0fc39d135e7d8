use crate::{
    Activation, Matrix, MatrixView, Mlp, NnDataset, Normalizer, Result, RowEdit, Scratch,
    TrainParams, TrainReport, Trainer,
};

/// A trained network bundled with the input/output normalizers fitted on its
/// training data, so callers evaluate it in *application units*.
///
/// This is the artifact the offline "accelerator trainer" produces and the
/// accelerator model consumes.
///
/// # Examples
///
/// ```
/// use rumba_nn::{Activation, NnDataset, TrainedModel, TrainParams};
///
/// # fn main() -> Result<(), rumba_nn::NnError> {
/// let data = NnDataset::from_fn(1, 1, 128, |i, x, y| {
///     x[0] = i as f64; // raw units, not normalized
///     y[0] = 3.0 * x[0] + 40.0;
/// })?;
/// let model = TrainedModel::fit(&[1, 4, 1], Activation::Sigmoid, &data,
///                               &TrainParams::default(), 5)?;
/// let out = model.predict(&[64.0])?;
/// assert!((out[0] - (3.0 * 64.0 + 40.0)).abs() < 15.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    mlp: Mlp,
    input_norm: Normalizer,
    output_norm: Normalizer,
    train_loss: f64,
}

impl TrainedModel {
    /// Fits normalizers on `data`, trains a fresh network of the given
    /// topology on the normalized data, and bundles the result.
    ///
    /// # Errors
    ///
    /// Propagates construction and training errors from [`Mlp::new`] and
    /// [`Trainer::train`].
    pub fn fit(
        topology: &[usize],
        hidden_act: Activation,
        data: &NnDataset,
        params: &TrainParams,
        seed: u64,
    ) -> Result<Self> {
        let (model, _report) = Self::fit_with_report(topology, hidden_act, data, params, seed)?;
        Ok(model)
    }

    /// Like [`TrainedModel::fit`] but also returns the training report.
    ///
    /// # Errors
    ///
    /// Propagates construction and training errors from [`Mlp::new`] and
    /// [`Trainer::train`].
    pub fn fit_with_report(
        topology: &[usize],
        hidden_act: Activation,
        data: &NnDataset,
        params: &TrainParams,
        seed: u64,
    ) -> Result<(Self, TrainReport)> {
        let input_norm =
            Normalizer::fit((0..data.len()).map(|i| data.input(i)), data.input_dim(), 0.0, 1.0);
        let output_norm =
            Normalizer::fit((0..data.len()).map(|i| data.target(i)), data.output_dim(), 0.0, 1.0);
        let scaled = Normalizer::normalize_dataset(&input_norm, &output_norm, data);
        let mut mlp = Mlp::new(topology, hidden_act, seed)?;
        let report = Trainer::new(params.clone()).train(&mut mlp, &scaled)?;
        let train_loss = report.final_loss();
        Ok((Self { mlp, input_norm, output_norm, train_loss }, report))
    }

    /// Evaluates the model in application units.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::DimensionMismatch`] if `input` has the wrong
    /// width.
    pub fn predict(&self, input: &[f64]) -> Result<Vec<f64>> {
        let mut x = input.to_vec();
        self.input_norm.apply(&mut x);
        let mut y = self.mlp.forward(&x)?;
        self.output_norm.invert(&mut y);
        Ok(y)
    }

    /// Evaluates the model on many input rows in application units,
    /// walking tiles of [`crate::TILE_ROWS`] rows through the normalizers
    /// and every layer, with row chunks fanned out over the deterministic
    /// pool. Each row's result is bit-identical to
    /// [`TrainedModel::predict`] — at any thread count — and with a reused
    /// `scratch`/`out` pair the single-thread path allocates nothing in
    /// steady state.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::DimensionMismatch`] if `inputs` has the
    /// wrong width.
    pub fn predict_batch(
        &self,
        inputs: MatrixView<'_>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        self.predict_batch_with(inputs, None, None, scratch, out)
    }

    /// Batched counterpart of [`TrainedModel::predict_quantized`];
    /// bit-identical to the per-row quantized path.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::DimensionMismatch`] if `inputs` has the
    /// wrong width.
    pub fn predict_batch_quantized(
        &self,
        inputs: MatrixView<'_>,
        bits: u32,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        self.predict_batch_with(inputs, Some(bits), None, scratch, out)
    }

    /// [`TrainedModel::predict_batch`] (`bits: None`) or
    /// [`TrainedModel::predict_batch_quantized`] (`Some(bits)`) with an
    /// optional per-row `edit` applied to each input row before the input
    /// normalizer. Row `i` is bit-identical to the per-row path on
    /// `inputs.row(i)` after `edit(i, ..)`, and the edit costs no batch-sized
    /// copy: each row is edited in a one-row staging buffer as its tile is
    /// loaded.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::DimensionMismatch`] if `inputs` has the
    /// wrong width.
    pub fn predict_batch_with(
        &self,
        inputs: MatrixView<'_>,
        bits: Option<u32>,
        edit: Option<&RowEdit<'_>>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        let norms = Some((&self.input_norm, &self.output_norm));
        self.mlp.walk_batch(inputs, bits, norms, edit, scratch, out)
    }

    /// Rebuilds a model from its components (the config-stream decoder's
    /// constructor; training loss is not part of the wire format and reads
    /// as zero on the reconstructed model).
    #[must_use]
    pub fn from_parts(mlp: Mlp, input_norm: Normalizer, output_norm: Normalizer) -> Self {
        Self { mlp, input_norm, output_norm, train_loss: 0.0 }
    }

    /// Evaluates the model on a limited-precision datapath (see
    /// [`Mlp::forward_quantized`]) in application units.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::DimensionMismatch`] if `input` has the
    /// wrong width.
    pub fn predict_quantized(&self, input: &[f64], bits: u32) -> Result<Vec<f64>> {
        let mut x = input.to_vec();
        self.input_norm.apply(&mut x);
        let mut y = self.mlp.forward_quantized(&x, bits)?;
        self.output_norm.invert(&mut y);
        Ok(y)
    }

    /// The underlying network.
    #[must_use]
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Normalizer applied to inputs before the network sees them.
    #[must_use]
    pub fn input_norm(&self) -> &Normalizer {
        &self.input_norm
    }

    /// Normalizer inverted on network outputs.
    #[must_use]
    pub fn output_norm(&self) -> &Normalizer {
        &self.output_norm
    }

    /// Final normalized-space training loss.
    #[must_use]
    pub fn train_loss(&self) -> f64 {
        self.train_loss
    }

    /// Mean relative error of the model over a dataset in application units,
    /// with relative error per element defined as
    /// `|approx - exact| / max(|exact|, eps)` and `eps = 0.01` guarding tiny
    /// denominators.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `data` does not match the model.
    pub fn mean_relative_error(&self, data: &NnDataset) -> Result<f64> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for (x, y) in data.iter() {
            let approx = self.predict(x)?;
            for (a, e) in approx.iter().zip(y) {
                total += (a - e).abs() / e.abs().max(0.01);
                count += 1;
            }
        }
        Ok(total / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> NnDataset {
        NnDataset::from_fn(1, 1, 200, |i, x, y| {
            x[0] = i as f64 * 0.5;
            y[0] = 200.0 - x[0];
        })
        .unwrap()
    }

    #[test]
    fn fits_a_raw_units_line() {
        let data = line_data();
        let model =
            TrainedModel::fit(&[1, 4, 1], Activation::Sigmoid, &data, &TrainParams::default(), 3)
                .unwrap();
        let out = model.predict(&[50.0]).unwrap()[0];
        assert!((out - 150.0).abs() < 7.5, "predicted {out}");
    }

    #[test]
    fn mean_relative_error_is_small_on_train_set() {
        let data = line_data();
        let model =
            TrainedModel::fit(&[1, 4, 1], Activation::Sigmoid, &data, &TrainParams::default(), 3)
                .unwrap();
        let mre = model.mean_relative_error(&data).unwrap();
        assert!(mre < 0.1, "mre {mre}");
    }

    #[test]
    fn empty_dataset_has_zero_error() {
        let data = line_data();
        let model =
            TrainedModel::fit(&[1, 4, 1], Activation::Sigmoid, &data, &TrainParams::default(), 3)
                .unwrap();
        let empty = NnDataset::new(1, 1).unwrap();
        assert_eq!(model.mean_relative_error(&empty).unwrap(), 0.0);
    }

    #[test]
    fn predict_checks_width() {
        let data = line_data();
        let model =
            TrainedModel::fit(&[1, 4, 1], Activation::Sigmoid, &data, &TrainParams::default(), 3)
                .unwrap();
        assert!(model.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn fit_is_deterministic() {
        let data = line_data();
        let fit = || {
            TrainedModel::fit(&[1, 4, 1], Activation::Sigmoid, &data, &TrainParams::default(), 3)
                .unwrap()
        };
        assert_eq!(fit(), fit());
    }
}
