//! The row-tile walker behind every batched inference path.
//!
//! A batch is cut into tiles of [`TILE_ROWS`] rows, and each tile goes
//! through the whole network before the next one starts — the way the
//! accelerator moves one invocation through all its layers inside its PE
//! buffers. The float walker (plain and grid-quantized) keeps a tile
//! lane-major, `x[k * rp + r]` for feature `k` of tile row `r` with `rp`
//! the tile's rows padded to the vector width: each row is edited and
//! normalized in a one-row staging buffer as it is transposed in, every
//! layer's neurons run across the tile's lanes with
//! `simd::neuron_rows_dispatch`, activations are applied in place on each
//! neuron's lane column (which is the next layer's input as it stands),
//! and the last layer's lanes are scattered into the row-major result,
//! where the output normalizer is inverted row by row. A one-row tile
//! runs its neurons four at a time instead of through padded lanes.
//! The fixed-point path (`fixed.rs`) walks the same tiles row-major in
//! `i16`.
//!
//! Per row the operation sequence is the per-row reference's: bias first,
//! then one multiply and one add per input in ascending order (no FMA),
//! the same scalar activation, the same normalizer formulas — so tiling
//! and lane dispatch never change a bit (DESIGN.md §11). The workspace is
//! tile-bounded: it grows to `min(rows, TILE_ROWS)` rows of the widest
//! layer and no further, whatever the batch size.

use crate::simd::{self, Isa};
use crate::{Activation, Layer, MatrixView, Normalizer};

/// Rows per tile of the batched inference walk. A constant of the design,
/// not a tuning knob: 64 rows of the widest layer in the workspace
/// (`64 × 64` `f64`s, 32 KiB per buffer) stay cache-resident across all
/// layers of the tile.
pub const TILE_ROWS: usize = 64;

/// A per-row edit applied to each input row, in application units, before
/// the input normalizer: `edit(row, values)`, where `row` is the row's
/// index in the batch. The accelerator keys its input-drift fault on it.
pub type RowEdit<'a> = dyn Fn(usize, &mut [f64]) + Sync + 'a;

/// Tile-bounded workspace of one walk: the float path's two lane-major
/// activation tiles, the fixed-point path's two `i16` row tiles, and a
/// staging row for edited and normalized inputs. Grow-only, sized by the
/// rows one tile holds, never by the batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileScratch {
    xa: Vec<f64>,
    xb: Vec<f64>,
    pub(crate) qa: Vec<i16>,
    pub(crate) qb: Vec<i16>,
    pub(crate) staged: Vec<f64>,
}

/// Row `r` of `inputs` as the network's first layer receives it: with an
/// `edit` (`base + r` is the row's batch index, `base` the offset of
/// `inputs` in the batch) or an input normalizer, its edited and
/// normalized copy in the one-row `staged`; otherwise the row itself.
pub(crate) fn input_row<'s>(
    inputs: MatrixView<'s>,
    r: usize,
    base: usize,
    edit: Option<&RowEdit<'_>>,
    norm: Option<&Normalizer>,
    staged: &'s mut Vec<f64>,
) -> &'s [f64] {
    let row = inputs.row(r);
    if edit.is_none() && norm.is_none() {
        return row;
    }
    let staged = simd::ensure_len(staged, row.len());
    staged.copy_from_slice(row);
    if let Some(edit) = edit {
        edit(base + r, staged);
    }
    if let Some(norm) = norm {
        norm.apply(staged);
    }
    staged
}

/// Grid-rounded copies of every layer's weights and biases, concatenated
/// in layer order, and the grid scale: the quantized datapath's
/// parameters, hoisted once per call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid<'a> {
    pub(crate) weights: &'a [f64],
    pub(crate) biases: &'a [f64],
    pub(crate) scale: f64,
}

/// One batched float evaluation: the layers with the parameters they run
/// on, the normalizers around them, the input edit, and the resolved ISA.
pub(crate) struct FloatWalk<'a> {
    pub(crate) layers: &'a [Layer],
    pub(crate) grid: Option<Grid<'a>>,
    pub(crate) input_norm: Option<&'a Normalizer>,
    pub(crate) output_norm: Option<&'a Normalizer>,
    pub(crate) edit: Option<&'a RowEdit<'a>>,
    pub(crate) isa: Isa,
}

/// Every neuron of a layer on a one-row tile `x`, writing neuron `o`'s
/// accumulator to `acc[o]`: `bias`, then every input ascending, the
/// per-row kernel's loop. Four neurons run side by side so their
/// independent addition chains overlap; each chain's own order is
/// unchanged.
fn row_neurons(weights: &[f64], biases: &[f64], x: &[f64], acc: &mut [f64]) {
    let ind = x.len();
    let quads = biases.len() / 4 * 4;
    for (o, dst) in (0..quads).step_by(4).zip(acc.chunks_exact_mut(4)) {
        let w = &weights[o * ind..(o + 4) * ind];
        let (w0, w) = w.split_at(ind);
        let (w1, w) = w.split_at(ind);
        let (w2, w3) = w.split_at(ind);
        let mut s = [biases[o], biases[o + 1], biases[o + 2], biases[o + 3]];
        for k in 0..ind {
            let v = x[k];
            s[0] += w0[k] * v;
            s[1] += w1[k] * v;
            s[2] += w2[k] * v;
            s[3] += w3[k] * v;
        }
        dst.copy_from_slice(&s);
    }
    for o in quads..biases.len() {
        let mut s = biases[o];
        for (&w, &v) in weights[o * ind..(o + 1) * ind].iter().zip(x) {
            s += w * v;
        }
        acc[o] = s;
    }
}

/// A neuron's activated output, rounded to the grid on the quantized
/// path.
fn activate(act: Activation, scale: Option<f64>, acc: f64) -> f64 {
    let y = act.apply(acc);
    match scale {
        None => y,
        Some(s) => (y * s).round() / s,
    }
}

impl FloatWalk<'_> {
    /// The ISA and padded lane count for a tile of `rows` rows: a single
    /// row runs through [`row_neurons`] instead of a padded vector
    /// (bit-identical either way).
    fn lanes(&self, rows: usize) -> (Isa, usize) {
        if rows == 1 {
            (Isa::Scalar, 1)
        } else {
            (self.isa, rows.next_multiple_of(self.isa.lanes_f64()))
        }
    }

    /// Evaluates every row of `inputs` (the batch rows from `base` on)
    /// into the flat row-major `out`, one tile at a time.
    pub(crate) fn rows(
        &self,
        inputs: MatrixView<'_>,
        base: usize,
        tiles: &mut TileScratch,
        out: &mut [f64],
    ) {
        let n = inputs.rows();
        let in_dim = inputs.cols();
        let out_dim = self.layers.last().map_or(0, Layer::out_dim);
        debug_assert_eq!(out.len(), n * out_dim);
        let widest = self.layers.iter().map(Layer::out_dim).fold(in_dim, usize::max);
        let cap = self.lanes(n.min(TILE_ROWS)).1 * widest;
        let TileScratch { xa, xb, staged, .. } = tiles;
        let (mut cur, mut nxt) = (simd::ensure_len(xa, cap), simd::ensure_len(xb, cap));
        let scale = self.grid.map(|g| g.scale);
        let last = self.layers.len() - 1;
        for r0 in (0..n).step_by(TILE_ROWS) {
            let rows = (n - r0).min(TILE_ROWS);
            let (isa, rp) = self.lanes(rows);
            // Transpose the tile in, normalized; padding lanes read zeros.
            for r in 0..rows {
                let row = input_row(inputs, r0 + r, base, self.edit, self.input_norm, staged);
                for (k, &v) in row.iter().enumerate() {
                    cur[k * rp + r] = v;
                }
            }
            if rows < rp {
                for col in cur[..in_dim * rp].chunks_exact_mut(rp) {
                    col[rows..].fill(0.0);
                }
            }
            let (mut wo, mut bo) = (0, 0);
            for (li, layer) in self.layers.iter().enumerate() {
                let (ind, outd) = (layer.in_dim(), layer.out_dim());
                let (weights, biases) = match self.grid {
                    None => (layer.weights(), layer.biases()),
                    Some(g) => (&g.weights[wo..wo + ind * outd], &g.biases[bo..bo + outd]),
                };
                (wo, bo) = (wo + ind * outd, bo + outd);
                let act = layer.activation();
                let src = &cur[..ind * rp];
                if rp == 1 {
                    // One row: the lane-major tile is the row itself.
                    let acc = &mut nxt[..outd];
                    row_neurons(weights, biases, src, acc);
                    if li < last {
                        for y in acc {
                            *y = activate(act, scale, *y);
                        }
                    } else {
                        let dst = &mut out[r0 * outd..][..outd];
                        for (d, &y) in dst.iter_mut().zip(&*acc) {
                            *d = activate(act, scale, y);
                        }
                    }
                    std::mem::swap(&mut cur, &mut nxt);
                    continue;
                }
                for (o, (wrow, &bias)) in weights.chunks_exact(ind).zip(biases).enumerate() {
                    let col = &mut nxt[o * rp..(o + 1) * rp];
                    simd::neuron_rows_dispatch(isa, wrow, bias, src, rp, col);
                    let (live, pad) = col.split_at_mut(rows);
                    if li < last {
                        for v in live {
                            *v = activate(act, scale, *v);
                        }
                        // Padding lanes go back to zero rather than
                        // through the activation: nobody reads them, and
                        // zeros keep every layer's padding finite.
                        if !pad.is_empty() {
                            pad.fill(0.0);
                        }
                    } else {
                        for (r, &acc) in live.iter().enumerate() {
                            out[(r0 + r) * outd + o] = activate(act, scale, acc);
                        }
                    }
                }
                std::mem::swap(&mut cur, &mut nxt);
            }
            if let Some(norm) = self.output_norm {
                for row in out[r0 * out_dim..(r0 + rows) * out_dim].chunks_exact_mut(out_dim) {
                    norm.invert(row);
                }
            }
        }
    }
}
