//! Small measurement helpers: percentiles, medians, a stable hash for
//! output comparison, and the process's peak resident set size.

use std::time::Instant;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks (the "R-7" rule: position `q * (n - 1)` in the
/// sorted sample). `None` for an empty sample.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (`None` when empty).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// FNV-1a over byte strings: the benchmark compares whole response
/// streams by hash instead of holding them in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` plus a terminator into the hash.
    pub fn line(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the IEEE-754 bits of `values`.
    pub fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.line(&v.to_bits().to_le_bytes());
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds elapsed since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.5));
        assert!((percentile(&v, 0.9).unwrap() - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let a = [9.0, 2.0, 5.0, 1.0, 7.0];
        let b = [1.0, 2.0, 5.0, 7.0, 9.0];
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
        assert_eq!(median(&a), Some(5.0));
    }

    #[test]
    fn fnv_separates_line_boundaries() {
        let mut a = Fnv::default();
        a.line(b"ab");
        a.line(b"c");
        let mut b = Fnv::default();
        b.line(b"a");
        b.line(b"bc");
        assert_ne!(a, b);
    }
}
