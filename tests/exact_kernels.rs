//! Reference equivalence for the table-driven jpeg transform.
//!
//! The jpeg kernel's DCT/IDCT read their cosines from a table built once
//! and accumulate eight outputs per pass; the textbook version below calls
//! `cos()` for every term. Both must produce the same bits — not merely
//! close values — because the exact kernel feeds every training target,
//! every re-executed row and every oracle error, and the committed goldens
//! pin all of them. Each comparison is on `f64::to_bits`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rumba_apps::kernels::{codec_block, dct2_8x8, idct2_8x8, Jpeg, QUANT_TABLE};
use rumba_apps::{Kernel, Split};

/// The per-term reference transforms, kept verbatim from the original
/// kernel.
mod reference {
    use rumba_apps::kernels::QUANT_TABLE;

    pub fn dct2_8x8(block: &[f64; 64]) -> [f64; 64] {
        let mut out = [0.0; 64];
        for u in 0..8 {
            for v in 0..8 {
                let cu = if u == 0 { std::f64::consts::FRAC_1_SQRT_2 } else { 1.0 };
                let cv = if v == 0 { std::f64::consts::FRAC_1_SQRT_2 } else { 1.0 };
                let mut acc = 0.0;
                for y in 0..8 {
                    for x in 0..8 {
                        acc += block[y * 8 + x]
                            * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                            * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                    }
                }
                out[v * 8 + u] = 0.25 * cu * cv * acc;
            }
        }
        out
    }

    pub fn idct2_8x8(coeffs: &[f64; 64]) -> [f64; 64] {
        let mut out = [0.0; 64];
        for y in 0..8 {
            for x in 0..8 {
                let mut acc = 0.0;
                for u in 0..8 {
                    for v in 0..8 {
                        let cu = if u == 0 { std::f64::consts::FRAC_1_SQRT_2 } else { 1.0 };
                        let cv = if v == 0 { std::f64::consts::FRAC_1_SQRT_2 } else { 1.0 };
                        acc += cu
                            * cv
                            * coeffs[v * 8 + u]
                            * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                            * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                    }
                }
                out[y * 8 + x] = 0.25 * acc;
            }
        }
        out
    }

    pub fn codec_block(block: &[f64; 64]) -> [f64; 64] {
        let mut shifted = [0.0; 64];
        for (s, &p) in shifted.iter_mut().zip(block) {
            *s = p * 255.0 - 128.0;
        }
        let mut coeffs = dct2_8x8(&shifted);
        for (c, q) in coeffs.iter_mut().zip(QUANT_TABLE) {
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
}

fn bits(block: &[f64]) -> Vec<u64> {
    block.iter().map(|v| v.to_bits()).collect()
}

/// Bit mismatches of all three public functions against the reference on
/// one pixel block (0 when identical), plus one more if `target` is given
/// and differs from the reference codec. The DCT is compared on the
/// level-shifted block and the IDCT on the quantized coefficients — the
/// inputs the codec feeds them.
fn pixel_block_mismatches(block: &[f64; 64], target: Option<&[f64]>) -> usize {
    let shifted: [f64; 64] = std::array::from_fn(|i| block[i] * 255.0 - 128.0);
    let mut quantized = reference::dct2_8x8(&shifted);
    let dct_differs = bits(&dct2_8x8(&shifted)) != bits(&quantized);
    for (c, q) in quantized.iter_mut().zip(QUANT_TABLE) {
        let q = q * 2.0;
        *c = (*c / q).round() * q;
    }
    let idct_differs = bits(&idct2_8x8(&quantized)) != bits(&reference::idct2_8x8(&quantized));
    let expected = bits(&reference::codec_block(block));
    let codec_differs = bits(&codec_block(block)) != expected;
    let target_differs = target.is_some_and(|t| bits(t) != expected);
    [dct_differs, idct_differs, codec_differs, target_differs].into_iter().filter(|&d| d).count()
}

/// Every block of the jpeg train or test split at seeds 0..8, and the
/// split's stored targets, match the reference bit for bit. The seeds run
/// on their own threads: the per-term reference is slow in a debug build.
fn split_matches_reference(split: Split) {
    let per_seed: Vec<(usize, usize)> = std::thread::scope(|scope| {
        // Spawn every seed before joining any.
        let mut workers = Vec::new();
        for seed in 0..8 {
            workers.push(scope.spawn(move || {
                let data = Jpeg::new().generate(split, seed);
                let mut mismatches = 0usize;
                for (input, target) in data.iter() {
                    let block: [f64; 64] = input.try_into().expect("jpeg blocks are 64 pixels");
                    mismatches += pixel_block_mismatches(&block, Some(target));
                }
                (data.len(), mismatches)
            }));
        }
        workers.into_iter().map(|w| w.join().expect("seed worker panicked")).collect()
    });
    let blocks: usize = per_seed.iter().map(|&(n, _)| n).sum();
    let mismatches: usize = per_seed.iter().map(|&(_, m)| m).sum();
    assert!(blocks > 0, "the split generated no blocks");
    assert_eq!(mismatches, 0, "{mismatches} bit mismatches over {blocks} {split:?} blocks");
}

#[test]
fn train_splits_match_the_per_term_reference_bit_for_bit() {
    split_matches_reference(Split::Train);
}

#[test]
fn test_splits_match_the_per_term_reference_bit_for_bit() {
    split_matches_reference(Split::Test);
}

/// A 64-entry block of `[0, 1]` pixels.
struct PixelBlock;

impl Strategy for PixelBlock {
    type Value = Vec<f64>;
    fn generate(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..64).map(|_| rng.gen_range(0.0..1.0)).collect()
    }
}

/// A raw 64-entry coefficient block: signed zeros, quantization-grid
/// multiples and arbitrary magnitudes up to ±2048, mixed per entry, so the
/// IDCT sees the sparse blocks quantization leaves as well as dense ones.
struct CoeffBlock;

impl Strategy for CoeffBlock {
    type Value = Vec<f64>;
    fn generate(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..64)
            .map(|i| match rng.gen_range(0u8..6) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from(rng.gen_range(-16i32..17)) * QUANT_TABLE[i] * 2.0,
                3 => {
                    if rng.gen_range(0u8..2) == 0 {
                        2048.0
                    } else {
                        -2048.0
                    }
                }
                _ => rng.gen_range(-2048.0..2048.0),
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn random_pixel_blocks_match_the_reference(block in PixelBlock) {
        let block: [f64; 64] = block.try_into().unwrap();
        prop_assert_eq!(pixel_block_mismatches(&block, None), 0);
    }

    #[test]
    fn random_coefficient_blocks_match_the_reference(coeffs in CoeffBlock) {
        let coeffs: [f64; 64] = coeffs.try_into().unwrap();
        prop_assert_eq!(bits(&idct2_8x8(&coeffs)), bits(&reference::idct2_8x8(&coeffs)));
        // The same blocks as DCT input exercise the forward transform off
        // the pixel range.
        prop_assert_eq!(bits(&dct2_8x8(&coeffs)), bits(&reference::dct2_8x8(&coeffs)));
    }
}
