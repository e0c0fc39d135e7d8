use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::LaneScratch;
use crate::simd::{self, Isa};
use crate::walk::{FloatWalk, Grid, RowEdit, TileScratch};
use crate::{Activation, Matrix, MatrixView, NnError, Normalizer, Result, Scratch};

/// Cache-block tile sizes for the trainer's batched layer kernel:
/// `ROW_BLOCK` batch rows × `COL_BLOCK` output neurons per tile, sized so
/// one tile's weight rows and input rows stay resident in L1 while they
/// are reused.
const ROW_BLOCK: usize = 32;
const COL_BLOCK: usize = 16;

/// Weights plus biases of a dense network with these layer sizes, `None`
/// on overflow.
pub(crate) fn param_count(layers: &[usize]) -> Option<usize> {
    layers
        .windows(2)
        .try_fold(0usize, |acc, w| w[0].checked_mul(w[1])?.checked_add(w[1])?.checked_add(acc))
}

/// One dense layer: `outputs = act(W * inputs + b)` with `W` stored row-major
/// (`out_dim × in_dim`).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform initialization keeps sigmoid layers out of
        // saturation at the start of training.
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weights = (0..in_dim * out_dim).map(|_| rng.gen_range(-bound..bound)).collect();
        let biases = vec![0.0; out_dim];
        Self { in_dim, out_dim, weights, biases, activation }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width (number of neurons).
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// This layer's activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Row-major weight matrix (`out_dim × in_dim`).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Bias vector (`out_dim`).
    #[must_use]
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Number of multiply-accumulate operations one evaluation performs.
    #[must_use]
    pub fn mac_count(&self) -> usize {
        self.in_dim * self.out_dim
    }

    fn forward_into(&self, input: &[f64], output: &mut [f64]) {
        self.forward_batch_into(1, input, output, Isa::Scalar, &mut LaneScratch::default());
    }

    /// Evaluates one layer on a limited-precision datapath: weights, biases,
    /// and the activated outputs are all rounded to a `2^-bits` grid — the
    /// behaviour of an analog or reduced-width digital implementation.
    fn forward_into_quantized(&self, input: &[f64], output: &mut [f64], bits: u32) {
        let scale = f64::from(1u32 << bits.min(30));
        let q = |v: f64| (v * scale).round() / scale;
        for (o, out_val) in output.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = q(self.biases[o]);
            for (&w, x) in row.iter().zip(input) {
                acc += q(w) * x;
            }
            *out_val = q(self.activation.apply(acc));
        }
    }

    /// The trainer's cache-blocked batched evaluation of `n` rows (`input`
    /// is flat row-major `n × in_dim`, `output` `n × out_dim`); inference
    /// walks row tiles through all layers instead (`walk.rs`).
    ///
    /// Blocking only reorders *which* `(row, neuron)` output element is
    /// produced when; each element's inner dot product is the exact serial
    /// loop (bias first, then ascending input index), so every output is
    /// bit-identical to the per-sample path regardless of tile shape. The
    /// SIMD path keeps the same contract by mapping vector lanes to batch
    /// rows (one whole accumulator per lane — see `simd`), so dispatching
    /// on `isa` never changes the produced bits, only the speed.
    pub(crate) fn forward_batch_into(
        &self,
        n: usize,
        input: &[f64],
        output: &mut [f64],
        isa: Isa,
        lanes: &mut LaneScratch,
    ) {
        debug_assert_eq!(input.len(), n * self.in_dim);
        debug_assert_eq!(output.len(), n * self.out_dim);
        if isa.lanes_f64() > 1 && n >= isa.lanes_f64() {
            tile_lanes(self, n, input, output, isa, lanes);
            return;
        }
        for r0 in (0..n).step_by(ROW_BLOCK) {
            let r1 = (r0 + ROW_BLOCK).min(n);
            for o0 in (0..self.out_dim).step_by(COL_BLOCK) {
                let o1 = (o0 + COL_BLOCK).min(self.out_dim);
                for r in r0..r1 {
                    let input_row = &input[r * self.in_dim..(r + 1) * self.in_dim];
                    let output_row = &mut output[r * self.out_dim..(r + 1) * self.out_dim];
                    for (o, out_val) in (o0..).zip(output_row[o0..o1].iter_mut()) {
                        let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
                        let mut acc = self.biases[o];
                        for (w, x) in row.iter().zip(input_row) {
                            acc += w * x;
                        }
                        *out_val = self.activation.apply(acc);
                    }
                }
            }
        }
    }
}

/// The trainer's SIMD batched layer kernel: lanes are batch rows.
///
/// Each `ROW_BLOCK` tile of input rows is transpose-packed into `xt`
/// (feature-major, rows padded to the lane width), then every output
/// neuron is evaluated across all tile rows at once — per row the exact
/// serial reduction (`bias`, then one multiply-then-add per feature,
/// ascending). Padding lanes compute finite garbage that is never
/// unpacked.
fn tile_lanes(
    layer: &Layer,
    n: usize,
    input: &[f64],
    output: &mut [f64],
    isa: Isa,
    lanes: &mut LaneScratch,
) {
    let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
    let lw = isa.lanes_f64();
    let LaneScratch { xt, yt } = lanes;
    for r0 in (0..n).step_by(ROW_BLOCK) {
        let r1 = (r0 + ROW_BLOCK).min(n);
        let rows = r1 - r0;
        let rp = rows.next_multiple_of(lw);
        let xt = simd::ensure_len(xt, in_dim * rp);
        for (k, col) in xt.chunks_exact_mut(rp).enumerate() {
            for (r, c) in col[..rows].iter_mut().enumerate() {
                *c = input[(r0 + r) * in_dim + k];
            }
            for c in &mut col[rows..] {
                *c = 0.0;
            }
        }
        let yt = simd::ensure_len(yt, rp);
        for (o, (wrow, &bias)) in layer.weights.chunks_exact(in_dim).zip(&layer.biases).enumerate()
        {
            simd::neuron_rows_dispatch(isa, wrow, bias, xt, rp, yt);
            for (r, &acc) in yt[..rows].iter().enumerate() {
                output[(r0 + r) * out_dim + o] = layer.activation.apply(acc);
            }
        }
    }
}

/// A dense feed-forward network (multi-layer perceptron).
///
/// Construction is seeded; two networks built with the same topology,
/// activation, and seed are identical.
///
/// # Examples
///
/// ```
/// use rumba_nn::{Activation, Mlp};
///
/// # fn main() -> Result<(), rumba_nn::NnError> {
/// let mlp = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 42)?;
/// let out = mlp.forward(&[0.1, 0.9])?;
/// assert_eq!(out.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    topology: Vec<usize>,
}

impl Mlp {
    /// Builds a network with the given layer sizes, e.g. `&[6, 8, 4, 1]` for
    /// the paper's `6->8->4->1` notation. Hidden layers use `hidden_act`;
    /// the output layer is always [`Activation::Identity`] so the network
    /// can regress outside `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTopology`] if fewer than two layer sizes are
    /// given or any size is zero.
    pub fn new(layers: &[usize], hidden_act: Activation, seed: u64) -> Result<Self> {
        if layers.len() < 2 || layers.contains(&0) {
            return Err(NnError::InvalidTopology { layers: layers.to_vec() });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut built = Vec::with_capacity(layers.len() - 1);
        for w in layers.windows(2) {
            let is_output = built.len() == layers.len() - 2;
            let act = if is_output { Activation::Identity } else { hidden_act };
            built.push(Layer::new(w[0], w[1], act, &mut rng));
        }
        Ok(Self { layers: built, topology: layers.to_vec() })
    }

    /// Builds a network with the given layer sizes directly from
    /// [`Mlp::to_flat_params`] output — what [`Mlp::new`] followed by
    /// [`Mlp::set_flat_params`] produces, without drawing initial weights
    /// that are overwritten at once (the config-stream decoder's
    /// constructor).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTopology`] as [`Mlp::new`] does, and
    /// [`NnError::DimensionMismatch`] if `flat` has the wrong length for
    /// the topology.
    pub fn from_flat_params(
        layers: &[usize],
        hidden_act: Activation,
        flat: &[f64],
    ) -> Result<Self> {
        if layers.len() < 2 || layers.contains(&0) {
            return Err(NnError::InvalidTopology { layers: layers.to_vec() });
        }
        let expected = param_count(layers);
        if expected != Some(flat.len()) {
            return Err(NnError::DimensionMismatch {
                expected: expected.unwrap_or(usize::MAX),
                actual: flat.len(),
                port: "flat parameter vector",
            });
        }
        let mut rest = flat;
        let built = layers
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let (in_dim, out_dim) = (w[0], w[1]);
                let activation =
                    if i == layers.len() - 2 { Activation::Identity } else { hidden_act };
                let (weights, tail) = rest.split_at(in_dim * out_dim);
                let (biases, tail) = tail.split_at(out_dim);
                rest = tail;
                Layer {
                    in_dim,
                    out_dim,
                    weights: weights.to_vec(),
                    biases: biases.to_vec(),
                    activation,
                }
            })
            .collect();
        Ok(Self { layers: built, topology: layers.to_vec() })
    }

    /// The layer sizes this network was constructed with.
    #[must_use]
    pub fn topology(&self) -> &[usize] {
        &self.topology
    }

    /// The paper's arrow notation for the topology, e.g. `"6->8->4->1"`.
    #[must_use]
    pub fn topology_string(&self) -> String {
        self.topology.iter().map(ToString::to_string).collect::<Vec<_>>().join("->")
    }

    /// Input width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.topology[0]
    }

    /// Output width.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        *self.topology.last().expect("topology has at least two entries")
    }

    /// The network's layers, input side first.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total number of trainable parameters (weights + biases).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len() + l.biases.len()).sum()
    }

    /// Total multiply-accumulates per evaluation; the accelerator cycle
    /// model is built on this.
    #[must_use]
    pub fn mac_count(&self) -> usize {
        self.layers.iter().map(Layer::mac_count).sum()
    }

    /// Evaluates the network on one input row.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `input` has the wrong width.
    pub fn forward(&self, input: &[f64]) -> Result<Vec<f64>> {
        if input.len() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim(),
                actual: input.len(),
                port: "network input",
            });
        }
        let mut cur = input.to_vec();
        for layer in &self.layers {
            let mut next = vec![0.0; layer.out_dim];
            layer.forward_into(&cur, &mut next);
            cur = next;
        }
        Ok(cur)
    }

    /// Evaluates the network on many input rows, walking tiles of
    /// [`crate::TILE_ROWS`] rows through every layer, with row chunks
    /// fanned out over the deterministic pool.
    ///
    /// `scratch` holds the reusable tile workspace: once it has seen the
    /// call's largest tile, repeated calls perform no heap allocation (on
    /// the single-thread path; the threaded path allocates one tile-bounded
    /// workspace per chunk). Each row's result is bit-identical to
    /// [`Mlp::forward`] — at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `inputs` has the wrong
    /// width.
    ///
    /// # Examples
    ///
    /// ```
    /// use rumba_nn::{Activation, Matrix, MatrixView, Mlp, Scratch};
    ///
    /// # fn main() -> Result<(), rumba_nn::NnError> {
    /// let mlp = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 42)?;
    /// let rows = [0.1, 0.9, 0.5, 0.5];
    /// let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
    /// mlp.forward_batch(MatrixView::new(&rows, 2, 2), &mut scratch, &mut out)?;
    /// assert_eq!(out.row(0), mlp.forward(&rows[..2])?.as_slice());
    /// # Ok(())
    /// # }
    /// ```
    pub fn forward_batch(
        &self,
        inputs: MatrixView<'_>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        self.walk_batch(inputs, None, None, None, scratch, out)
    }

    /// Batched counterpart of [`Mlp::forward_quantized`]; bit-identical to
    /// the per-row quantized path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `inputs` has the wrong
    /// width.
    pub fn forward_batch_quantized(
        &self,
        inputs: MatrixView<'_>,
        bits: u32,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        self.walk_batch(inputs, Some(bits), None, None, scratch, out)
    }

    /// Every batched float inference path: the width check, one ISA
    /// resolution (recorded in telemetry; dispatch never changes the
    /// produced bits), the quantized path's grid-rounded parameters hoisted
    /// once, then the row-tile walker (`walk.rs`) over the batch — serially
    /// through `scratch`, or per pool chunk with a private tile workspace.
    /// `norms` are the input and output normalizers around the network;
    /// `edit` sees each row's batch index.
    pub(crate) fn walk_batch(
        &self,
        inputs: MatrixView<'_>,
        quant: Option<u32>,
        norms: Option<(&Normalizer, &Normalizer)>,
        edit: Option<&RowEdit<'_>>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        if inputs.cols() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim(),
                actual: inputs.cols(),
                port: "network input",
            });
        }
        let out_dim = self.output_dim();
        out.resize(inputs.rows(), out_dim);
        let isa = simd::active_isa();
        simd::note_dispatch(isa);
        let Scratch { tiles, grid_weights, grid_biases } = scratch;
        let grid = quant.map(|bits| {
            let scale = f64::from(1u32 << bits.min(30));
            let q = |v: f64| (v * scale).round() / scale;
            grid_weights.clear();
            grid_biases.clear();
            for layer in &self.layers {
                grid_weights.extend(layer.weights.iter().map(|&w| q(w)));
                grid_biases.extend(layer.biases.iter().map(|&b| q(b)));
            }
            Grid { weights: grid_weights, biases: grid_biases, scale }
        });
        let walk = FloatWalk {
            layers: &self.layers,
            grid,
            input_norm: norms.map(|(input, _)| input),
            output_norm: norms.map(|(_, output)| output),
            edit,
            isa,
        };
        let pool = rumba_parallel::ThreadPool::new();
        if pool.threads() <= 1 {
            walk.rows(inputs, 0, tiles, out.as_mut_slice());
        } else {
            // Rows are independent, so chunking over them is bit-exact at
            // any thread count.
            pool.par_chunks_mut(out.as_mut_slice(), out_dim, |_c, range, chunk_out| {
                let sub = inputs.rows_range(range.start, range.end);
                walk.rows(sub, range.start, &mut TileScratch::default(), chunk_out);
            });
        }
        Ok(())
    }

    /// Evaluates the network on a limited-precision datapath: every weight,
    /// bias, and activation is rounded to a `2^-bits` grid, modeling an
    /// analog or reduced-width accelerator implementation (St. Amant et
    /// al.'s limited-precision analog NPU is the paper's cited example).
    ///
    /// `bits = 0` collapses everything to integers; large values converge
    /// to [`Mlp::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `input` has the wrong width.
    pub fn forward_quantized(&self, input: &[f64], bits: u32) -> Result<Vec<f64>> {
        if input.len() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim(),
                actual: input.len(),
                port: "network input",
            });
        }
        let mut cur = input.to_vec();
        for layer in &self.layers {
            let mut next = vec![0.0; layer.out_dim];
            layer.forward_into_quantized(&cur, &mut next, bits);
            cur = next;
        }
        Ok(cur)
    }

    /// Evaluates the network keeping every layer's activated output; index 0
    /// is the input itself. The production trainer traces whole batches
    /// through the blocked kernel; this per-sample version remains the
    /// reference implementation the bit-exactness tests compare against.
    #[cfg(test)]
    pub(crate) fn forward_trace(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for layer in &self.layers {
            let mut next = vec![0.0; layer.out_dim];
            layer.forward_into(acts.last().expect("nonempty"), &mut next);
            acts.push(next);
        }
        acts
    }

    pub(crate) fn apply_gradients(
        &mut self,
        grads_w: &[Vec<f64>],
        grads_b: &[Vec<f64>],
        vel_w: &mut [Vec<f64>],
        vel_b: &mut [Vec<f64>],
        lr: f64,
        momentum: f64,
    ) {
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (w, (g, v)) in
                layer.weights.iter_mut().zip(grads_w[li].iter().zip(vel_w[li].iter_mut()))
            {
                *v = momentum * *v - lr * g;
                *w += *v;
            }
            for (b, (g, v)) in
                layer.biases.iter_mut().zip(grads_b[li].iter().zip(vel_b[li].iter_mut()))
            {
                *v = momentum * *v - lr * g;
                *b += *v;
            }
        }
    }

    /// Serializes all parameters into one flat vector (layer by layer,
    /// weights then biases) — the format the accelerator's config queue and
    /// coefficient buffers consume.
    #[must_use]
    pub fn to_flat_params(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            flat.extend_from_slice(&layer.weights);
            flat.extend_from_slice(&layer.biases);
        }
        flat
    }

    /// Restores parameters from [`Mlp::to_flat_params`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `flat` has the wrong length
    /// for this topology.
    pub fn set_flat_params(&mut self, flat: &[f64]) -> Result<()> {
        if flat.len() != self.param_count() {
            return Err(NnError::DimensionMismatch {
                expected: self.param_count(),
                actual: flat.len(),
                port: "flat parameter vector",
            });
        }
        let mut off = 0;
        for layer in &mut self.layers {
            let wn = layer.weights.len();
            layer.weights.copy_from_slice(&flat[off..off + wn]);
            off += wn;
            let bn = layer.biases.len();
            layer.biases.copy_from_slice(&flat[off..off + bn]);
            off += bn;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_topologies() {
        assert!(Mlp::new(&[], Activation::Sigmoid, 0).is_err());
        assert!(Mlp::new(&[3], Activation::Sigmoid, 0).is_err());
        assert!(Mlp::new(&[3, 0, 1], Activation::Sigmoid, 0).is_err());
    }

    #[test]
    fn same_seed_same_network() {
        let a = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 9).unwrap();
        let b = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 9).unwrap();
        assert_eq!(a, b);
        let c = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn from_flat_params_matches_new_then_set_flat_params() {
        for (topo, act) in [
            (&[2, 4, 1][..], Activation::Sigmoid),
            (&[3, 8, 8, 2][..], Activation::Tanh),
            (&[1, 1][..], Activation::Identity),
        ] {
            let trained = Mlp::new(topo, act, 7).unwrap();
            let flat: Vec<f64> =
                trained.to_flat_params().iter().enumerate().map(|(i, w)| w + i as f64).collect();
            let mut expected = Mlp::new(topo, act, 0).unwrap();
            expected.set_flat_params(&flat).unwrap();
            let built = Mlp::from_flat_params(topo, act, &flat).unwrap();
            assert_eq!(built, expected, "{topo:?}");
            assert_eq!(built.to_flat_params(), flat);
        }
        assert!(Mlp::from_flat_params(&[2, 0, 1], Activation::Sigmoid, &[]).is_err());
        assert!(Mlp::from_flat_params(&[2], Activation::Sigmoid, &[]).is_err());
        // [2, 4, 1] takes 2*4 + 4 + 4 + 1 = 17 parameters.
        assert!(Mlp::from_flat_params(&[2, 4, 1], Activation::Sigmoid, &[0.0; 16]).is_err());
        assert!(Mlp::from_flat_params(&[2, 4, 1], Activation::Sigmoid, &[0.0; 18]).is_err());
        assert!(Mlp::from_flat_params(&[usize::MAX, 2, 1], Activation::Sigmoid, &[]).is_err());
    }

    #[test]
    fn forward_checks_width() {
        let mlp = Mlp::new(&[2, 3, 1], Activation::Sigmoid, 0).unwrap();
        assert!(mlp.forward(&[1.0]).is_err());
        assert_eq!(mlp.forward(&[1.0, 2.0]).unwrap().len(), 1);
    }

    #[test]
    fn param_and_mac_counts() {
        let mlp = Mlp::new(&[3, 8, 8, 1], Activation::Sigmoid, 0).unwrap();
        // (3*8 + 8) + (8*8 + 8) + (8*1 + 1)
        assert_eq!(mlp.param_count(), 32 + 72 + 9);
        assert_eq!(mlp.mac_count(), 24 + 64 + 8);
    }

    #[test]
    fn topology_string_uses_arrow_notation() {
        let mlp = Mlp::new(&[6, 8, 4, 1], Activation::Sigmoid, 0).unwrap();
        assert_eq!(mlp.topology_string(), "6->8->4->1");
    }

    #[test]
    fn flat_params_round_trip() {
        let src = Mlp::new(&[2, 5, 2], Activation::Tanh, 3).unwrap();
        let mut dst = Mlp::new(&[2, 5, 2], Activation::Tanh, 99).unwrap();
        assert_ne!(src, dst);
        dst.set_flat_params(&src.to_flat_params()).unwrap();
        assert_eq!(src.forward(&[0.1, 0.2]).unwrap(), dst.forward(&[0.1, 0.2]).unwrap());
    }

    #[test]
    fn set_flat_params_checks_length() {
        let mut mlp = Mlp::new(&[2, 2, 1], Activation::Sigmoid, 0).unwrap();
        assert!(mlp.set_flat_params(&[0.0; 3]).is_err());
    }

    #[test]
    fn output_layer_is_identity() {
        let mlp = Mlp::new(&[1, 4, 1], Activation::Sigmoid, 1).unwrap();
        assert_eq!(mlp.layers().last().unwrap().activation(), Activation::Identity);
    }

    #[test]
    fn quantized_forward_converges_to_exact() {
        let mlp = Mlp::new(&[2, 6, 2], Activation::Sigmoid, 8).unwrap();
        let x = [0.31, -0.57];
        let exact = mlp.forward(&x).unwrap();
        let coarse = mlp.forward_quantized(&x, 3).unwrap();
        let fine = mlp.forward_quantized(&x, 24).unwrap();
        let dist = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| (p - q).abs()).sum::<f64>();
        assert!(dist(&fine, &exact) < dist(&coarse, &exact));
        assert!(dist(&fine, &exact) < 1e-5, "24-bit grid is near-exact");
        assert!(dist(&coarse, &exact) > 0.0, "3-bit grid must actually perturb");
    }

    #[test]
    fn quantized_forward_checks_width() {
        let mlp = Mlp::new(&[2, 3, 1], Activation::Sigmoid, 0).unwrap();
        assert!(mlp.forward_quantized(&[1.0], 8).is_err());
    }

    #[test]
    fn quantized_forward_is_deterministic() {
        let mlp = Mlp::new(&[1, 4, 1], Activation::Tanh, 2).unwrap();
        assert_eq!(
            mlp.forward_quantized(&[0.4], 6).unwrap(),
            mlp.forward_quantized(&[0.4], 6).unwrap()
        );
    }

    #[test]
    fn forward_trace_layers_match_forward() {
        let mlp = Mlp::new(&[2, 3, 2], Activation::Sigmoid, 5).unwrap();
        let x = [0.3, -0.4];
        let trace = mlp.forward_trace(&x);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.last().unwrap(), &mlp.forward(&x).unwrap());
    }
}
