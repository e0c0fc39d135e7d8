//! i16/i32 fixed-point batched forward path for quantized models.
//!
//! The f64 quantized path (`predict_batch_quantized`) *simulates* a
//! limited-precision datapath by rounding every parameter and activation to
//! a `2^-bits` grid while still accumulating in floating point. This module
//! goes the rest of the way and *is* one: weights and activations are
//! Q-format `i16` at scale `2^frac_bits`, biases and accumulators are `i32`
//! at the squared scale, and products are summed with wrapping adds.
//! Mod-2^32 addition is exactly associative, so lane order is irrelevant and
//! the SIMD kernels (`vpmaddwd` on AVX2, widening multiplies on NEON) are
//! trivially bit-exact against the serial reference loop — the easy half of
//! the lane-reduction contract in DESIGN.md §11.
//!
//! Between layers the accumulator is rescaled through `f64` for the
//! activation function (the accelerator's lookup-table stage), then
//! re-quantized; the output layer leaves application-unit `f64`s.

use crate::simd::{self, Isa};
use crate::walk::{input_row, TileScratch, TILE_ROWS};
use crate::{
    Activation, Matrix, MatrixView, NnError, Normalizer, Result, RowEdit, Scratch, TrainedModel,
};

/// Widest usable Q-format fraction: 14 fractional bits keeps `i16` weights
/// in `(-4, 4)` with headroom and the `i32` bias scale at `2^28`.
pub const MAX_FRAC_BITS: u32 = 14;

/// Rounds to the nearest representable Q-value, saturating at the `i16`
/// range (non-finite inputs collapse to zero, matching Rust's saturating
/// float casts).
fn quant16(v: f64, s: f64) -> i16 {
    (v * s).round() as i16
}

/// Bias quantizer: `i32` at the squared scale so it adds directly onto the
/// product accumulator.
fn quant32(v: f64, s: f64) -> i32 {
    (v * s * s).round() as i32
}

fn ensure_len_i16(buf: &mut Vec<i16>, len: usize) -> &mut [i16] {
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// One dense layer in Q-format: `i16` weights at scale `2^frac_bits`,
/// `i32` biases at the squared scale.
#[derive(Debug, Clone, PartialEq)]
struct FixedLayer {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<i16>,
    biases: Vec<i32>,
    activation: Activation,
}

impl FixedLayer {
    /// Accumulates one output neuron for one row: bias plus the wrapping
    /// product sum. Wrapping arithmetic makes this independent of
    /// summation order, so the dispatched kernel matches the serial loop
    /// bit for bit.
    fn accumulate(&self, o: usize, xrow: &[i16], isa: Isa) -> i32 {
        let wrow = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
        simd::dot_i16_dispatch(isa, wrow, xrow).wrapping_add(self.biases[o])
    }

    /// Hidden-layer kernel: rows in, re-quantized rows out.
    fn forward_rows_q(&self, n: usize, input: &[i16], output: &mut [i16], isa: Isa, s: f64) {
        let s2 = s * s;
        for r in 0..n {
            let xrow = &input[r * self.in_dim..(r + 1) * self.in_dim];
            let orow = &mut output[r * self.out_dim..(r + 1) * self.out_dim];
            for (o, out_val) in orow.iter_mut().enumerate() {
                let acc = self.accumulate(o, xrow, isa);
                *out_val = quant16(self.activation.apply(f64::from(acc) / s2), s);
            }
        }
    }

    /// Output-layer kernel: rows in, normalized-space `f64` rows out.
    fn forward_rows_f64(&self, n: usize, input: &[i16], output: &mut [f64], isa: Isa, s: f64) {
        let s2 = s * s;
        for r in 0..n {
            let xrow = &input[r * self.in_dim..(r + 1) * self.in_dim];
            let orow = &mut output[r * self.out_dim..(r + 1) * self.out_dim];
            for (o, out_val) in orow.iter_mut().enumerate() {
                let acc = self.accumulate(o, xrow, isa);
                *out_val = self.activation.apply(f64::from(acc) / s2);
            }
        }
    }
}

/// A [`TrainedModel`] lowered onto an integer datapath: `i16` weights and
/// activations, `i32` accumulation, per-layer activation through `f64`.
///
/// Prepared once (the quantization cost is paid at construction, not per
/// invocation) and evaluated in application units like the source model.
///
/// # Examples
///
/// ```
/// use rumba_nn::{Activation, FixedModel, Matrix, MatrixView, NnDataset, Scratch,
///                TrainParams, TrainedModel};
///
/// # fn main() -> Result<(), rumba_nn::NnError> {
/// let data = NnDataset::from_fn(1, 1, 64, |i, x, y| {
///     x[0] = i as f64 / 64.0;
///     y[0] = 2.0 * x[0];
/// })?;
/// let params = TrainParams { epochs: 10, ..TrainParams::default() };
/// let model = TrainedModel::fit(&[1, 4, 1], Activation::Sigmoid, &data, &params, 1)?;
/// let fixed = model.prepare_fixed(12);
/// let serial = fixed.predict(&[0.5])?;
/// let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
/// let rows = [0.5, 0.25];
/// fixed.predict_batch(MatrixView::new(&rows, 2, 1), &mut scratch, &mut out)?;
/// assert_eq!(out.row(0), serial.as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FixedModel {
    layers: Vec<FixedLayer>,
    input_norm: Normalizer,
    output_norm: Normalizer,
    input_dim: usize,
    output_dim: usize,
    frac_bits: u32,
}

impl TrainedModel {
    /// Lowers this model onto the `i16`/`i32` fixed-point datapath with
    /// `frac_bits` fractional bits (clamped to `1..=`[`MAX_FRAC_BITS`]).
    #[must_use]
    pub fn prepare_fixed(&self, frac_bits: u32) -> FixedModel {
        FixedModel::prepare(self, frac_bits)
    }
}

impl FixedModel {
    /// Quantizes every layer of `model` at scale `2^frac_bits` (clamped to
    /// `1..=`[`MAX_FRAC_BITS`]; weights saturate at the `i16` range).
    #[must_use]
    pub fn prepare(model: &TrainedModel, frac_bits: u32) -> Self {
        let frac_bits = frac_bits.clamp(1, MAX_FRAC_BITS);
        let s = f64::from(1u32 << frac_bits);
        let layers = model
            .mlp()
            .layers()
            .iter()
            .map(|layer| FixedLayer {
                in_dim: layer.in_dim(),
                out_dim: layer.out_dim(),
                weights: layer.weights().iter().map(|&w| quant16(w, s)).collect(),
                biases: layer.biases().iter().map(|&b| quant32(b, s)).collect(),
                activation: layer.activation(),
            })
            .collect();
        Self {
            layers,
            input_norm: model.input_norm().clone(),
            output_norm: model.output_norm().clone(),
            input_dim: model.mlp().input_dim(),
            output_dim: model.mlp().output_dim(),
            frac_bits,
        }
    }

    /// The effective fractional-bit width (after clamping).
    #[must_use]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Input width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn scale(&self) -> f64 {
        f64::from(1u32 << self.frac_bits)
    }

    /// Evaluates one row in application units — the serial reference the
    /// batched path is pinned against bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::DimensionMismatch`] if `input` has the
    /// wrong width.
    pub fn predict(&self, input: &[f64]) -> Result<Vec<f64>> {
        if input.len() != self.input_dim {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim,
                actual: input.len(),
                port: "network input",
            });
        }
        let s = self.scale();
        let mut x = input.to_vec();
        self.input_norm.apply(&mut x);
        let mut qa: Vec<i16> = x.iter().map(|&v| quant16(v, s)).collect();
        let mut qb: Vec<i16> = Vec::new();
        let mut out = vec![0.0; self.output_dim];
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            if li == last {
                layer.forward_rows_f64(1, &qa, &mut out, Isa::Scalar, s);
            } else {
                qb.resize(layer.out_dim, 0);
                layer.forward_rows_q(1, &qa, &mut qb, Isa::Scalar, s);
                std::mem::swap(&mut qa, &mut qb);
            }
        }
        self.output_norm.invert(&mut out);
        Ok(out)
    }

    /// Batched counterpart of [`FixedModel::predict`]: tiles of
    /// [`crate::TILE_ROWS`] rows walk through every layer, row chunks fan
    /// out over the deterministic pool, every row is bit-identical to the
    /// serial path at any thread count and under any SIMD dispatch, and a
    /// reused `scratch`/`out` pair allocates nothing in steady state on
    /// the single-thread path.
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
        self.predict_batch_with(inputs, None, scratch, out)
    }

    /// [`FixedModel::predict_batch`] with an optional per-row `edit`
    /// applied to each input row before the input normalizer, as
    /// [`TrainedModel::predict_batch_with`] does.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::DimensionMismatch`] if `inputs` has the
    /// wrong width.
    pub fn predict_batch_with(
        &self,
        inputs: MatrixView<'_>,
        edit: Option<&RowEdit<'_>>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        if inputs.cols() != self.input_dim {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim,
                actual: inputs.cols(),
                port: "network input",
            });
        }
        let n = inputs.rows();
        out.resize(n, self.output_dim);
        let isa = simd::active_isa();
        simd::note_dispatch(isa);
        let pool = rumba_parallel::ThreadPool::new();
        if pool.threads() <= 1 {
            self.predict_rows_into(inputs, 0, edit, isa, &mut scratch.tiles, out.as_mut_slice());
        } else {
            let out_dim = self.output_dim;
            pool.par_chunks_mut(out.as_mut_slice(), out_dim, |_c, range, chunk_out| {
                let sub = inputs.rows_range(range.start, range.end);
                let mut local = TileScratch::default();
                self.predict_rows_into(sub, range.start, edit, isa, &mut local, chunk_out);
            });
        }
        Ok(())
    }

    /// Serial batched path over the batch rows from `base` on, one tile of
    /// [`TILE_ROWS`] rows at a time: edit, normalize and quantize the
    /// tile's input rows, ping-pong the `i16` activations through the
    /// layers, devolve the output layer to `f64`, invert the output
    /// normalizer.
    fn predict_rows_into(
        &self,
        inputs: MatrixView<'_>,
        base: usize,
        edit: Option<&RowEdit<'_>>,
        isa: Isa,
        tiles: &mut TileScratch,
        out: &mut [f64],
    ) {
        let s = self.scale();
        let n = inputs.rows();
        let widest = self.layers.iter().map(|l| l.out_dim).fold(self.input_dim, usize::max);
        let TileScratch { qa, qb, staged, .. } = tiles;
        let cap = n.min(TILE_ROWS) * widest;
        let (mut cur, mut nxt) = (ensure_len_i16(qa, cap), ensure_len_i16(qb, cap));
        let last = self.layers.len() - 1;
        for r0 in (0..n).step_by(TILE_ROWS) {
            let rows = (n - r0).min(TILE_ROWS);
            for (r, dst) in
                cur[..rows * self.input_dim].chunks_exact_mut(self.input_dim).enumerate()
            {
                let row = input_row(inputs, r0 + r, base, edit, Some(&self.input_norm), staged);
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d = quant16(v, s);
                }
            }
            let tile_out = &mut out[r0 * self.output_dim..(r0 + rows) * self.output_dim];
            for (li, layer) in self.layers.iter().enumerate() {
                let src = &cur[..rows * layer.in_dim];
                if li == last {
                    layer.forward_rows_f64(rows, src, tile_out, isa, s);
                } else {
                    layer.forward_rows_q(rows, src, &mut nxt[..rows * layer.out_dim], isa, s);
                    std::mem::swap(&mut cur, &mut nxt);
                }
            }
            for row in tile_out.chunks_mut(self.output_dim) {
                self.output_norm.invert(row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NnDataset, TrainParams};

    fn toy_model() -> TrainedModel {
        let data = NnDataset::from_fn(2, 2, 48, |i, x, y| {
            let t = i as f64 / 48.0;
            x[0] = t;
            x[1] = 1.0 - t;
            y[0] = t * 2.0;
            y[1] = (t * 3.0).sin();
        })
        .unwrap();
        let params = TrainParams { epochs: 8, ..TrainParams::default() };
        TrainedModel::fit(&[2, 6, 2], Activation::Sigmoid, &data, &params, 5).unwrap()
    }

    #[test]
    fn quantizers_saturate_and_zero_non_finite() {
        assert_eq!(quant16(1e9, 16.0), i16::MAX);
        assert_eq!(quant16(-1e9, 16.0), i16::MIN);
        assert_eq!(quant16(f64::NAN, 16.0), 0);
        assert_eq!(quant16(0.5, 16.0), 8);
        assert_eq!(quant32(1.0, 16.0), 256);
    }

    #[test]
    fn frac_bits_are_clamped() {
        let model = toy_model();
        assert_eq!(model.prepare_fixed(0).frac_bits(), 1);
        assert_eq!(model.prepare_fixed(99).frac_bits(), MAX_FRAC_BITS);
        assert_eq!(model.prepare_fixed(10).frac_bits(), 10);
    }

    #[test]
    fn predict_checks_width() {
        let fixed = toy_model().prepare_fixed(12);
        assert!(fixed.predict(&[1.0]).is_err());
        assert!(fixed.predict(&[0.2, 0.4]).is_ok());
    }

    #[test]
    fn fixed_point_tracks_the_float_model_at_high_precision() {
        let model = toy_model();
        let fixed = model.prepare_fixed(14);
        let coarse = model.prepare_fixed(4);
        let x = [0.31, 0.62];
        let exact = model.predict(&x).unwrap();
        let fine_out = fixed.predict(&x).unwrap();
        let coarse_out = coarse.predict(&x).unwrap();
        let dist = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| (p - q).abs()).sum::<f64>();
        assert!(dist(&fine_out, &exact) < dist(&coarse_out, &exact) + 1e-12);
        assert!(dist(&fine_out, &exact) < 0.05, "14-bit grid stays close: {fine_out:?} {exact:?}");
    }

    #[test]
    fn batch_matches_serial_bitwise() {
        let fixed = toy_model().prepare_fixed(12);
        let flat: Vec<f64> = (0..26).map(|i| f64::from(i) / 13.0).collect();
        let inputs = MatrixView::new(&flat, 13, 2);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        fixed.predict_batch(inputs, &mut scratch, &mut out).unwrap();
        for r in 0..13 {
            let serial = fixed.predict(inputs.row(r)).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out.row(r)), bits(&serial), "row {r}");
        }
    }

    #[test]
    fn prepared_model_is_deterministic() {
        let model = toy_model();
        assert_eq!(model.prepare_fixed(12), model.prepare_fixed(12));
    }
}
