//! Runtime SIMD dispatch for the batched layer kernels, pinned to a fixed
//! lane-reduction contract.
//!
//! The contract (DESIGN.md §11): SIMD lanes are mapped to *independent batch
//! rows*, never to the `k` dimension of a dot product. Each output element's
//! reduction therefore keeps the exact serial shape of the scalar kernel —
//! accumulator seeded with the bias, then one fused-nothing
//! multiply-then-add per input index, ascending — regardless of ISA width.
//! A lane is a whole accumulator, not a partial of one, so the AVX2, NEON,
//! and scalar builds produce bit-identical `f64` streams and the committed
//! goldens hold under `RUMBA_SIMD=0` and `=1` alike.
//!
//! Dispatch is runtime-selected: `RUMBA_SIMD=0|1|auto` (or the `--simd` CLI
//! flag, which installs a process-wide override the same way
//! `RUMBA_THREADS`/`--threads` does) picks between the scalar path and the
//! widest ISA the host supports. Forcing `1` on hardware without AVX2/NEON
//! silently falls back to scalar — the output is identical either way, so
//! the override only ever changes speed.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// SIMD dispatch policy, mirroring how `RUMBA_THREADS` selects a thread
/// count: an explicit process-wide override beats the `RUMBA_SIMD`
/// environment variable, which beats the `Auto` default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Always run the scalar kernels.
    Off,
    /// Use vector kernels when the host supports them (falls back to
    /// scalar on hardware without AVX2/NEON — never an error).
    On,
    /// Same dispatch as [`SimdMode::On`]; the default policy.
    Auto,
}

impl SimdMode {
    /// Parses a `RUMBA_SIMD` / `--simd` value. Accepts `0`/`off`/`scalar`,
    /// `1`/`on`/`simd`, and `auto` (case-insensitive).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "scalar" => Some(Self::Off),
            "1" | "on" | "simd" => Some(Self::On),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }
}

/// The instruction set a batched kernel dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar kernels (also the fallback when SIMD is off or
    /// unsupported).
    Scalar,
    /// x86-64 AVX2: 4 × `f64` / 16 × `i16` per vector.
    Avx2,
    /// AArch64 NEON: 2 × `f64` / 8 × `i16` per vector.
    Neon,
}

impl Isa {
    /// Stable lowercase name (`scalar` / `avx2` / `neon`) — the string the
    /// `pool` telemetry event carries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Neon => "neon",
        }
    }

    /// Numeric code for the telemetry gauge (`0`/`1`/`2`); `finish_run`
    /// maps it back to [`Isa::name`].
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::Scalar => 0,
            Self::Avx2 => 1,
            Self::Neon => 2,
        }
    }

    /// `f64` lanes one vector register holds on this ISA.
    #[must_use]
    pub(crate) fn lanes_f64(self) -> usize {
        match self {
            Self::Scalar => 1,
            Self::Avx2 => 4,
            Self::Neon => 2,
        }
    }
}

/// Process-wide override slot: 0 = unset, 1 = Off, 2 = On, 3 = Auto.
static SIMD_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Installs (or clears, with `None`) a process-wide SIMD policy override
/// that beats the `RUMBA_SIMD` environment variable — the `--simd` CLI
/// flag's hook, mirroring `rumba_parallel::set_thread_override`.
pub fn set_simd_override(mode: Option<SimdMode>) {
    let slot = match mode {
        None => 0,
        Some(SimdMode::Off) => 1,
        Some(SimdMode::On) => 2,
        Some(SimdMode::Auto) => 3,
    };
    SIMD_OVERRIDE.store(slot, Ordering::Relaxed);
}

fn env_mode() -> SimdMode {
    static ENV: OnceLock<SimdMode> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RUMBA_SIMD").ok().and_then(|v| SimdMode::parse(&v)).unwrap_or(SimdMode::Auto)
    })
}

/// The effective SIMD policy: override, then `RUMBA_SIMD`, then `Auto`.
#[must_use]
pub fn simd_mode() -> SimdMode {
    match SIMD_OVERRIDE.load(Ordering::Relaxed) {
        1 => SimdMode::Off,
        2 => SimdMode::On,
        3 => SimdMode::Auto,
        _ => env_mode(),
    }
}

/// The widest ISA this host supports (detected once, cached).
#[must_use]
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON is architecturally mandatory on AArch64.
            return Isa::Neon;
        }
        #[allow(unreachable_code)]
        Isa::Scalar
    })
}

/// The ISA the batched kernels dispatch to under the current policy.
#[must_use]
pub fn active_isa() -> Isa {
    match simd_mode() {
        SimdMode::Off => Isa::Scalar,
        SimdMode::On | SimdMode::Auto => detected_isa(),
    }
}

/// Records the dispatched ISA in the telemetry registry (surfaced by the
/// `pool` event). One relaxed load when telemetry is disabled.
pub(crate) fn note_dispatch(isa: Isa) {
    if rumba_obs::enabled() {
        rumba_obs::metrics().set_gauge("pool.simd_isa", f64::from(isa.code()));
    }
}

/// Grows `buf` to at least `len` (never shrinking the allocation) and
/// returns the leading `len` elements. Freshly grown elements are zero;
/// callers overwrite whatever region they read.
pub(crate) fn ensure_len(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

// ---------------------------------------------------------------------------
// Row-lane f64 kernels.
//
// `xt` is a transpose-packed input tile: `rp` batch rows (padded to a lane
// multiple) × `in_dim` features, stored feature-major so `xt[k * rp + r]`
// is row `r`'s feature `k` and the `r` axis is contiguous. One call
// computes a single output neuron across all `rp` rows:
//
//     acc[r] = bias;  for k ascending:  acc[r] += w[k] * xt[k * rp + r]
//
// which is, per row, the scalar kernel's exact operation sequence
// (multiply rounds, then add rounds — no FMA, which would fuse them into
// one rounding and change the bits). Padding rows compute harmless finite
// garbage that the caller never unpacks.
// ---------------------------------------------------------------------------

/// Scalar reference of the packed-tile kernel (also documents the lane
/// semantics the vector versions must reproduce).
#[cfg(test)]
pub(crate) fn neuron_rows_scalar(wrow: &[f64], bias: f64, xt: &[f64], rp: usize, yt: &mut [f64]) {
    for (r, acc_out) in yt[..rp].iter_mut().enumerate() {
        let mut acc = bias;
        for (k, &w) in wrow.iter().enumerate() {
            acc += w * xt[k * rp + r];
        }
        *acc_out = acc;
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// One output neuron across a transpose-packed tile of `rp` rows
    /// (`rp % 4 == 0`). Per lane this is `bias; += w[k] * x[k]` ascending —
    /// `mul` then `add`, two roundings, exactly the scalar kernel.
    ///
    /// Safety: caller must ensure AVX2 is available, `xt.len() >=
    /// wrow.len() * rp`, `yt.len() >= rp`, and `rp % 4 == 0`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn neuron_rows(
        wrow: &[f64],
        bias: f64,
        xt: &[f64],
        rp: usize,
        yt: &mut [f64],
    ) {
        debug_assert_eq!(rp % 4, 0);
        debug_assert!(xt.len() >= wrow.len() * rp);
        debug_assert!(yt.len() >= rp);
        let mut rg = 0;
        // Four independent accumulators (16 rows) per pass: rows are
        // independent lanes, so unrolling across row groups hides the
        // add-latency chain without touching any row's reduction order.
        while rg + 16 <= rp {
            let mut acc0 = _mm256_set1_pd(bias);
            let mut acc1 = acc0;
            let mut acc2 = acc0;
            let mut acc3 = acc0;
            for (k, &w) in wrow.iter().enumerate() {
                let wv = _mm256_set1_pd(w);
                let base = xt.as_ptr().add(k * rp + rg);
                // No FMA: the scalar path rounds the product and the sum
                // separately, so the vector path must too.
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(wv, _mm256_loadu_pd(base)));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(wv, _mm256_loadu_pd(base.add(4))));
                acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(wv, _mm256_loadu_pd(base.add(8))));
                acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(wv, _mm256_loadu_pd(base.add(12))));
            }
            let out = yt.as_mut_ptr().add(rg);
            _mm256_storeu_pd(out, acc0);
            _mm256_storeu_pd(out.add(4), acc1);
            _mm256_storeu_pd(out.add(8), acc2);
            _mm256_storeu_pd(out.add(12), acc3);
            rg += 16;
        }
        while rg < rp {
            let mut acc = _mm256_set1_pd(bias);
            for (k, &w) in wrow.iter().enumerate() {
                let x = _mm256_loadu_pd(xt.as_ptr().add(k * rp + rg));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(w), x));
            }
            _mm256_storeu_pd(yt.as_mut_ptr().add(rg), acc);
            rg += 4;
        }
    }

    /// `dst[i] += a * xs[i]` — the gradient-accumulation primitive
    /// (`gw[row + j] += dv * x[j]`), per element identical to the scalar
    /// loop. Ragged tail handled scalar, same operations.
    ///
    /// Safety: caller must ensure AVX2 is available and
    /// `dst.len() == xs.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn axpy(a: f64, xs: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(xs.len(), dst.len());
        let n = xs.len();
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(xs.as_ptr().add(i));
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(d, _mm256_mul_pd(av, x)));
            i += 4;
        }
        while i < n {
            *dst.get_unchecked_mut(i) += a * xs.get_unchecked(i);
            i += 1;
        }
    }

    /// `dst[i] += xs[i] * a` — operand order of the backpropagated-delta
    /// accumulation (`pd[j] += w[o * in + j] * dv`), kept distinct from
    /// [`axpy`] so NaN payload propagation matches the scalar loops
    /// operand-for-operand.
    ///
    /// Safety: caller must ensure AVX2 is available and
    /// `dst.len() == xs.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn xpay(a: f64, xs: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(xs.len(), dst.len());
        let n = xs.len();
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(xs.as_ptr().add(i));
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(d, _mm256_mul_pd(x, av)));
            i += 4;
        }
        while i < n {
            *dst.get_unchecked_mut(i) += xs.get_unchecked(i) * a;
            i += 1;
        }
    }

    /// Wrapping i32 dot product of two i16 vectors via `vpmaddwd`
    /// (pairwise i16×i16→i32 multiply-add, wrap-around). Mod-2^32
    /// addition is exactly associative, so any lane order — including the
    /// pairwise one — is bit-identical to the serial reference loop.
    ///
    /// Safety: caller must ensure AVX2 is available and
    /// `w.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dot_i16(w: &[i16], x: &[i16]) -> i32 {
        debug_assert_eq!(w.len(), x.len());
        let n = w.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let wv = _mm256_loadu_si256(w.as_ptr().add(i).cast());
            let xv = _mm256_loadu_si256(x.as_ptr().add(i).cast());
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wv, xv));
            i += 16;
        }
        // horizontal wrapping sum of the 8 i32 lanes
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total = 0i32;
        for l in lanes {
            total = total.wrapping_add(l);
        }
        while i < n {
            total = total.wrapping_add(
                i32::from(*w.get_unchecked(i)).wrapping_mul(i32::from(*x.get_unchecked(i))),
            );
            i += 1;
        }
        total
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod arm {
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// NEON mirror of the AVX2 packed-tile kernel: 2 × `f64` lanes,
    /// same per-lane operation sequence (`vmulq` then `vaddq` — no fused
    /// `vfmaq`, which would change the rounding).
    ///
    /// Safety: caller must ensure `xt.len() >= wrow.len() * rp`,
    /// `yt.len() >= rp`, and `rp % 2 == 0`.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn neuron_rows(
        wrow: &[f64],
        bias: f64,
        xt: &[f64],
        rp: usize,
        yt: &mut [f64],
    ) {
        debug_assert_eq!(rp % 2, 0);
        let mut rg = 0;
        // Four independent accumulators (8 rows) per pass — row groups are
        // independent lanes, so this hides the add-latency chain without
        // touching any row's reduction order.
        while rg + 8 <= rp {
            let mut acc0 = vdupq_n_f64(bias);
            let mut acc1 = acc0;
            let mut acc2 = acc0;
            let mut acc3 = acc0;
            for (k, &w) in wrow.iter().enumerate() {
                let wv = vdupq_n_f64(w);
                let base = xt.as_ptr().add(k * rp + rg);
                acc0 = vaddq_f64(acc0, vmulq_f64(wv, vld1q_f64(base)));
                acc1 = vaddq_f64(acc1, vmulq_f64(wv, vld1q_f64(base.add(2))));
                acc2 = vaddq_f64(acc2, vmulq_f64(wv, vld1q_f64(base.add(4))));
                acc3 = vaddq_f64(acc3, vmulq_f64(wv, vld1q_f64(base.add(6))));
            }
            let out = yt.as_mut_ptr().add(rg);
            vst1q_f64(out, acc0);
            vst1q_f64(out.add(2), acc1);
            vst1q_f64(out.add(4), acc2);
            vst1q_f64(out.add(6), acc3);
            rg += 8;
        }
        while rg < rp {
            let mut acc = vdupq_n_f64(bias);
            for (k, &w) in wrow.iter().enumerate() {
                let x = vld1q_f64(xt.as_ptr().add(k * rp + rg));
                acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(w), x));
            }
            vst1q_f64(yt.as_mut_ptr().add(rg), acc);
            rg += 2;
        }
    }

    /// `dst[i] += a * xs[i]`; see the AVX2 twin for the contract.
    ///
    /// Safety: caller must ensure `dst.len() == xs.len()`.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn axpy(a: f64, xs: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(xs.len(), dst.len());
        let n = xs.len();
        let av = vdupq_n_f64(a);
        let mut i = 0;
        while i + 2 <= n {
            let x = vld1q_f64(xs.as_ptr().add(i));
            let d = vld1q_f64(dst.as_ptr().add(i));
            vst1q_f64(dst.as_mut_ptr().add(i), vaddq_f64(d, vmulq_f64(av, x)));
            i += 2;
        }
        while i < n {
            *dst.get_unchecked_mut(i) += a * xs.get_unchecked(i);
            i += 1;
        }
    }

    /// `dst[i] += xs[i] * a`; see the AVX2 twin for the contract.
    ///
    /// Safety: caller must ensure `dst.len() == xs.len()`.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn xpay(a: f64, xs: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(xs.len(), dst.len());
        let n = xs.len();
        let av = vdupq_n_f64(a);
        let mut i = 0;
        while i + 2 <= n {
            let x = vld1q_f64(xs.as_ptr().add(i));
            let d = vld1q_f64(dst.as_ptr().add(i));
            vst1q_f64(dst.as_mut_ptr().add(i), vaddq_f64(d, vmulq_f64(x, av)));
            i += 2;
        }
        while i < n {
            *dst.get_unchecked_mut(i) += xs.get_unchecked(i) * a;
            i += 1;
        }
    }

    /// Wrapping i32 dot product of two i16 vectors: widening multiplies
    /// plus wrapping i32 adds — exactly associative, so bit-identical to
    /// the serial reference loop.
    ///
    /// Safety: caller must ensure `w.len() == x.len()`.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn dot_i16(w: &[i16], x: &[i16]) -> i32 {
        debug_assert_eq!(w.len(), x.len());
        let n = w.len();
        let mut acc = vdupq_n_s32(0);
        let mut i = 0;
        while i + 8 <= n {
            let wv = vld1q_s16(w.as_ptr().add(i));
            let xv = vld1q_s16(x.as_ptr().add(i));
            acc = vaddq_s32(acc, vmull_s16(vget_low_s16(wv), vget_low_s16(xv)));
            acc = vaddq_s32(acc, vmull_high_s16(wv, xv));
            i += 8;
        }
        let mut lanes = [0i32; 4];
        vst1q_s32(lanes.as_mut_ptr(), acc);
        let mut total = 0i32;
        for l in lanes {
            total = total.wrapping_add(l);
        }
        while i < n {
            total = total.wrapping_add(
                i32::from(*w.get_unchecked(i)).wrapping_mul(i32::from(*x.get_unchecked(i))),
            );
            i += 1;
        }
        total
    }
}

/// Dispatches the packed-tile neuron kernel for `isa`. `rp` must be a
/// multiple of [`Isa::lanes_f64`]. On [`Isa::Scalar`] (one-row lanes, any
/// `rp`) the loop runs feature-major, `yt[r] += w[k] * xt[k * rp + r]`
/// for each `k` in turn — per row still `bias`, then every feature
/// ascending.
pub(crate) fn neuron_rows_dispatch(
    isa: Isa,
    wrow: &[f64],
    bias: f64,
    xt: &[f64],
    rp: usize,
    yt: &mut [f64],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` only reports Avx2 after runtime detection;
        // buffer bounds are the caller's packed-tile invariants.
        Isa::Avx2 => unsafe { x86::neuron_rows(wrow, bias, xt, rp, yt) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64.
        Isa::Neon => unsafe { arm::neuron_rows(wrow, bias, xt, rp, yt) },
        _ => {
            let yt = &mut yt[..rp];
            yt.fill(bias);
            for (&w, col) in wrow.iter().zip(xt.chunks_exact(rp)) {
                for (acc, &x) in yt.iter_mut().zip(col) {
                    *acc += w * x;
                }
            }
        }
    }
}

/// Dispatched `dst[i] += a * xs[i]`.
pub(crate) fn axpy_dispatch(isa: Isa, a: f64, xs: &[f64], dst: &mut [f64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection passed; lengths equal.
        Isa::Avx2 => unsafe { x86::axpy(a, xs, dst) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64.
        Isa::Neon => unsafe { arm::axpy(a, xs, dst) },
        _ => {
            for (d, &x) in dst.iter_mut().zip(xs) {
                *d += a * x;
            }
        }
    }
}

/// Dispatched `dst[i] += xs[i] * a`.
pub(crate) fn xpay_dispatch(isa: Isa, a: f64, xs: &[f64], dst: &mut [f64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection passed; lengths equal.
        Isa::Avx2 => unsafe { x86::xpay(a, xs, dst) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64.
        Isa::Neon => unsafe { arm::xpay(a, xs, dst) },
        _ => {
            for (d, &x) in dst.iter_mut().zip(xs) {
                *d += x * a;
            }
        }
    }
}

/// Dispatched wrapping-i32 dot product of two i16 slices. Integer
/// accumulation is exactly associative, so every ISA returns the same
/// bits as the serial reference loop.
pub(crate) fn dot_i16_dispatch(isa: Isa, w: &[i16], x: &[i16]) -> i32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection passed; lengths equal.
        Isa::Avx2 => unsafe { x86::dot_i16(w, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64.
        Isa::Neon => unsafe { arm::dot_i16(w, x) },
        _ => {
            let mut total = 0i32;
            for (&wv, &xv) in w.iter().zip(x) {
                total = total.wrapping_add(i32::from(wv).wrapping_mul(i32::from(xv)));
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_spellings() {
        for (text, want) in [
            ("0", SimdMode::Off),
            ("off", SimdMode::Off),
            ("SCALAR", SimdMode::Off),
            ("1", SimdMode::On),
            ("on", SimdMode::On),
            ("simd", SimdMode::On),
            (" auto ", SimdMode::Auto),
        ] {
            assert_eq!(SimdMode::parse(text), Some(want), "{text:?}");
        }
        assert_eq!(SimdMode::parse("maybe"), None);
        assert_eq!(SimdMode::parse(""), None);
    }

    #[test]
    fn isa_names_and_codes_are_stable() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Neon] {
            assert!(!isa.name().is_empty());
        }
        assert_eq!(Isa::Scalar.code(), 0);
        assert_eq!(Isa::Avx2.code(), 1);
        assert_eq!(Isa::Neon.code(), 2);
        assert_eq!(Isa::Scalar.lanes_f64(), 1);
    }

    #[test]
    fn off_override_forces_scalar() {
        set_simd_override(Some(SimdMode::Off));
        assert_eq!(active_isa(), Isa::Scalar);
        set_simd_override(Some(SimdMode::On));
        assert_eq!(active_isa(), detected_isa());
        set_simd_override(None);
    }

    #[test]
    fn vector_neuron_rows_match_scalar_bitwise() {
        // Deterministic pseudo-random tile, ragged weight lengths.
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for in_dim in [1usize, 3, 8, 17] {
            let rp = 8; // multiple of every lane width
            let xt: Vec<f64> = (0..in_dim * rp).map(|_| next()).collect();
            let wrow: Vec<f64> = (0..in_dim).map(|_| next()).collect();
            let bias = next();
            let mut want = vec![0.0; rp];
            neuron_rows_scalar(&wrow, bias, &xt, rp, &mut want);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for isa in [Isa::Scalar, detected_isa()] {
                let mut got = vec![0.0; rp];
                neuron_rows_dispatch(isa, &wrow, bias, &xt, rp, &mut got);
                assert_eq!(bits(&got), bits(&want), "{isa:?} in_dim {in_dim}");
            }
            // One-row lanes take any tile height.
            let mut want = vec![0.0; 5];
            neuron_rows_scalar(&wrow, bias, &xt[..in_dim * 5], 5, &mut want);
            let mut got = vec![0.0; 5];
            neuron_rows_dispatch(Isa::Scalar, &wrow, bias, &xt[..in_dim * 5], 5, &mut got);
            assert_eq!(bits(&got), bits(&want), "scalar in_dim {in_dim}");
        }
    }

    #[test]
    fn vector_axpy_matches_scalar_bitwise() {
        let xs: Vec<f64> = (0..23).map(|i| (i as f64).sin()).collect();
        for a in [0.37, -1.25e3, 0.0] {
            let mut want: Vec<f64> = (0..23).map(|i| (i as f64).cos()).collect();
            let mut got = want.clone();
            for (d, &x) in want.iter_mut().zip(&xs) {
                *d += a * x;
            }
            axpy_dispatch(detected_isa(), a, &xs, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            let mut want2: Vec<f64> = (0..23).map(|i| (i as f64).cos()).collect();
            let mut got2 = want2.clone();
            for (d, &x) in want2.iter_mut().zip(&xs) {
                *d += x * a;
            }
            xpay_dispatch(detected_isa(), a, &xs, &mut got2);
            assert_eq!(bits(&got2), bits(&want2));
        }
    }

    #[test]
    fn vector_dot_i16_matches_reference_wrapping_loop() {
        // Includes values big enough to wrap the i32 accumulator.
        let w: Vec<i16> = (0..37).map(|i| ((i * 7919) % 65536 - 32768) as i16).collect();
        let x: Vec<i16> = (0..37).map(|i| ((i * 104729) % 65536 - 32768) as i16).collect();
        let mut want = 0i32;
        for (&wv, &xv) in w.iter().zip(&x) {
            want = want.wrapping_add(i32::from(wv).wrapping_mul(i32::from(xv)));
        }
        assert_eq!(dot_i16_dispatch(detected_isa(), &w, &x), want);
        assert_eq!(dot_i16_dispatch(Isa::Scalar, &w, &x), want);
    }
}
