//! `jpeg` — lossy 8×8 block codec path (compression).
//!
//! One invocation pushes one 8×8 pixel block through the JPEG luminance
//! path: level shift → 2-D DCT-II → quantize → dequantize → inverse DCT →
//! clamp. The network learns the whole 64-in/64-out block transform
//! (`64->16->64`, an autoencoder-shaped topology as in the paper).
//!
//! Training blocks come from a 216×200 synthetic image (the paper's 220×200
//! rounded down to whole blocks); test blocks from a different 512×512
//! image.

use std::f64::consts::{FRAC_1_SQRT_2, PI};
use std::sync::OnceLock;

use rumba_nn::NnDataset;

use crate::image::Image;
use crate::{dataset_from_inputs, ErrorMetric, Kernel, Split};

/// Standard JPEG luminance quantization table (Annex K), quality 50.
pub const QUANT_TABLE: [f64; 64] = [
    16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0, //
    12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0, //
    14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0, //
    14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0, //
    18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0, //
    24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0, //
    49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0, //
    72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0,
];

/// The `jpeg` benchmark kernel. See the module-level docs above.
///
/// # Examples
///
/// ```
/// use rumba_apps::kernels::Jpeg;
/// use rumba_apps::Kernel;
///
/// let k = Jpeg::new();
/// let flat_block = [0.5; 64];
/// let out = k.compute_vec(&flat_block);
/// // A flat block survives quantization nearly unchanged.
/// assert!(out.iter().all(|&p| (p - 0.5).abs() < 0.02));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Jpeg;

impl Jpeg {
    /// Creates the kernel.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// `cos((2n + 1)·k·π / 16)` at `[k][n]` for `k, n < 8`, built once, each
/// entry with the very expression the per-term transform evaluated, so the
/// table holds the same bits those `cos()` calls returned.
fn cos_table() -> &'static [[f64; 8]; 8] {
    static TABLE: OnceLock<[[f64; 8]; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|k| {
            std::array::from_fn(|n| ((2 * n + 1) as f64 * k as f64 * PI / 16.0).cos())
        })
    })
}

/// 2-D orthonormal DCT-II of an 8×8 block.
///
/// Each coefficient is the direct double sum over `(y, x)` in row-major
/// order of `(block · cos_x) · cos_y`, rounded term by term exactly as the
/// textbook formula reads. The first product, `block · cos_x`, does not
/// depend on `v`, so it is formed once per pixel and `u`; each `v` row then
/// accumulates its eight `u` outputs in independent accumulators. No
/// factorisation, no fused multiply-add and no reassociation, so the
/// result is bit-for-bit the per-term evaluation (DESIGN.md, "Optimising
/// exact kernels").
#[must_use]
#[allow(clippy::needless_range_loop)] // fixed 8×8 index loops unroll fully
pub fn dct2_8x8(block: &[f64; 64]) -> [f64; 64] {
    let table = cos_table();
    let mut weighted = [[0.0; 8]; 64];
    for y in 0..8 {
        for x in 0..8 {
            for u in 0..8 {
                weighted[y * 8 + x][u] = block[y * 8 + x] * table[u][x];
            }
        }
    }
    let mut out = [0.0; 64];
    for v in 0..8 {
        let mut acc = [0.0; 8];
        for y in 0..8 {
            let cos_y = table[v][y];
            for x in 0..8 {
                for u in 0..8 {
                    acc[u] += weighted[y * 8 + x][u] * cos_y;
                }
            }
        }
        let cv = if v == 0 { FRAC_1_SQRT_2 } else { 1.0 };
        for u in 0..8 {
            let cu = if u == 0 { FRAC_1_SQRT_2 } else { 1.0 };
            out[v * 8 + u] = 0.25 * cu * cv * acc[u];
        }
    }
    out
}

/// 2-D inverse DCT (DCT-III) of an 8×8 coefficient block.
///
/// Each pixel is the direct double sum over `(u, v)` in row-major order of
/// `((cu · cv · coeff) · cos_x) · cos_y`; every coefficient's pass feeds
/// all 64 pixels in independent accumulators. Bit-for-bit the per-term
/// evaluation, for the same reasons as [`dct2_8x8`].
///
/// Quantization zeroes most coefficients, and every term of a zero
/// coefficient is `±0`, so those terms are skipped. That is exact: adding
/// `±0` leaves an accumulator unchanged unless it holds `-0`, and none can
/// — each starts at `+0`, and a round-to-nearest sum is `-0` only when
/// both operands are.
#[must_use]
#[allow(clippy::needless_range_loop)] // fixed 8×8 index loops unroll fully
pub fn idct2_8x8(coeffs: &[f64; 64]) -> [f64; 64] {
    let table = cos_table();
    let mut acc = [[0.0; 8]; 8];
    for u in 0..8 {
        let cu = if u == 0 { FRAC_1_SQRT_2 } else { 1.0 };
        for v in 0..8 {
            let cv = if v == 0 { FRAC_1_SQRT_2 } else { 1.0 };
            let scaled = cu * cv * coeffs[v * 8 + u];
            if scaled == 0.0 {
                continue;
            }
            for y in 0..8 {
                let cos_y = table[v][y];
                for x in 0..8 {
                    acc[y][x] += scaled * table[u][x] * cos_y;
                }
            }
        }
    }
    let mut out = [0.0; 64];
    for y in 0..8 {
        for x in 0..8 {
            out[y * 8 + x] = 0.25 * acc[y][x];
        }
    }
    out
}

/// The full lossy path for one block of `[0, 1]` pixels.
#[must_use]
pub fn codec_block(block: &[f64; 64]) -> [f64; 64] {
    // Level shift to the codec's signed range.
    let mut shifted = [0.0; 64];
    for (s, &p) in shifted.iter_mut().zip(block) {
        *s = p * 255.0 - 128.0;
    }
    let mut coeffs = dct2_8x8(&shifted);
    for (c, q) in coeffs.iter_mut().zip(QUANT_TABLE) {
        // Quality ≈ 30: the Annex-K table scaled up, the aggressive setting
        // an approximation-tolerant pipeline would pick.
        let q = q * 2.0;
        *c = (*c / q).round() * q;
    }
    let spatial = idct2_8x8(&coeffs);
    let mut out = [0.0; 64];
    for (o, &s) in out.iter_mut().zip(&spatial) {
        *o = ((s + 128.0) / 255.0).clamp(0.0, 1.0);
    }
    out
}

fn blocks_of(image: &Image) -> Vec<f64> {
    let mut flat = Vec::new();
    for block in image.blocks8() {
        flat.extend_from_slice(&block);
    }
    flat
}

impl Kernel for Jpeg {
    fn name(&self) -> &'static str {
        "jpeg"
    }

    fn domain(&self) -> &'static str {
        "Compression"
    }

    fn input_dim(&self) -> usize {
        64
    }

    fn output_dim(&self) -> usize {
        64
    }

    fn compute(&self, input: &[f64], output: &mut [f64]) {
        let block: [f64; 64] = input.try_into().expect("jpeg blocks are 64 pixels");
        output.copy_from_slice(&codec_block(&block));
    }

    fn metric(&self) -> ErrorMetric {
        // Pixels are in [0, 1], so scale 1.0 is full range.
        ErrorMetric::MeanAbsoluteError { scale: 1.0 }
    }

    fn rumba_topology(&self) -> Vec<usize> {
        vec![64, 16, 64]
    }

    fn npu_topology(&self) -> Vec<usize> {
        vec![64, 16, 64]
    }

    fn generate(&self, split: Split, seed: u64) -> NnDataset {
        // Train on a lightly textured profiling image, test on a strongly
        // textured one (the paper's Challenge II distribution shift).
        let image = match split {
            Split::Train => Image::synthetic_with_texture(216, 200, seed ^ 0x9999, 0.15),
            Split::Test => Image::synthetic_with_texture(512, 512, seed ^ 0xaaaa, 0.65),
        };
        dataset_from_inputs(self, &blocks_of(&image))
    }

    fn cpu_cycles(&self) -> f64 {
        // Separable DCT/IDCT (~2k MACs) plus quantization on 64 pixels.
        5_600.0
    }

    fn kernel_fraction(&self) -> f64 {
        0.85
    }

    fn train_data_desc(&self) -> &'static str {
        "220x200 pixel image"
    }

    fn test_data_desc(&self) -> &'static str {
        "512x512 pixel image"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let block = [1.0; 64];
        let coeffs = dct2_8x8(&block);
        assert!((coeffs[0] - 8.0).abs() < 1e-9, "dc {}", coeffs[0]);
        assert!(coeffs[1..].iter().all(|c| c.abs() < 1e-9));
    }

    #[test]
    fn dct_idct_round_trip_is_identity() {
        let mut block = [0.0; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 64) as f64 / 64.0;
        }
        let restored = idct2_8x8(&dct2_8x8(&block));
        for (a, b) in restored.iter().zip(&block) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn dct_preserves_energy() {
        // Orthonormal transform: Parseval holds.
        let mut block = [0.0; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as f64 * 0.7).sin();
        }
        let coeffs = dct2_8x8(&block);
        let e_in: f64 = block.iter().map(|v| v * v).sum();
        let e_out: f64 = coeffs.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() < 1e-6);
    }

    #[test]
    fn codec_degrades_gracefully() {
        let k = Jpeg::new();
        let data = k.generate(Split::Train, 0);
        let m = k.metric();
        let mut total = 0.0;
        for (x, y) in data.iter() {
            // The codec is lossy but close: reconstruction error per block
            // stays small relative to full scale.
            total += m.invocation_error(x, y);
        }
        let avg = total / data.len() as f64;
        assert!(avg < 0.1, "codec loss {avg}");
        assert!(avg > 0.0, "codec must actually be lossy");
    }

    #[test]
    fn outputs_stay_in_pixel_range() {
        let k = Jpeg::new();
        let data = k.generate(Split::Test, 1);
        for (_, y) in data.iter().take(128) {
            assert!(y.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn dataset_sizes_match_block_counts() {
        let k = Jpeg::new();
        assert_eq!(k.generate(Split::Train, 0).len(), 27 * 25);
        assert_eq!(k.generate(Split::Test, 0).len(), 64 * 64);
    }
}
