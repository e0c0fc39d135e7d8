//! §3.2.3 — error prediction using an exponential moving average.
//!
//! The only *output-based* method: it watches the stream of approximate
//! outputs and flags elements that deviate sharply from the recent trend,
//! `EMA = e·α + EMA·(1-α)` with `α = 2/(1+N)` (Equation 2). It needs no
//! offline training, but it can only run after the accelerator produces its
//! output (§3.5).

use rumba_obs::words::read_all;

use crate::{CheckerCost, ErrorEstimator, PredictError, Result};

/// The `EMA` checker.
///
/// One average is tracked per output element position so multi-output
/// kernels (e.g. `fft`'s cos/sin pair) don't smear unrelated channels
/// together. The estimate for an invocation is the mean relative deviation
/// of its outputs from their averages.
///
/// # Examples
///
/// ```
/// use rumba_predict::{EmaDetector, ErrorEstimator};
///
/// let mut ema = EmaDetector::new(8, 1).unwrap();
/// // Warm up on a steady stream...
/// for _ in 0..20 {
///     let _ = ema.estimate(&[], &[1.0]);
/// }
/// // ...then an outlier scores far higher than the steady state.
/// let steady = ema.estimate(&[], &[1.0]);
/// let outlier = ema.estimate(&[], &[3.0]);
/// assert!(outlier > 10.0 * steady.max(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmaDetector {
    alpha: f64,
    history_len: usize,
    state: Vec<Option<f64>>,
    eps: f64,
    skipped_non_finite: u64,
}

impl EmaDetector {
    /// Creates a detector with an `N`-element history window
    /// (`α = 2 / (1 + N)`) tracking `output_dim` element positions.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidParam`] if `history_len` or
    /// `output_dim` is zero.
    pub fn new(history_len: usize, output_dim: usize) -> Result<Self> {
        if history_len == 0 {
            return Err(PredictError::InvalidParam { name: "history_len", value: "0".into() });
        }
        if output_dim == 0 {
            return Err(PredictError::InvalidParam { name: "output_dim", value: "0".into() });
        }
        Ok(Self {
            alpha: 2.0 / (1.0 + history_len as f64),
            history_len,
            state: vec![None; output_dim],
            eps: 0.05,
            skipped_non_finite: 0,
        })
    }

    /// Non-finite output samples skipped (never folded into the moving
    /// average) since construction or the last [`ErrorEstimator::reset`].
    #[must_use]
    pub fn skipped_non_finite(&self) -> u64 {
        self.skipped_non_finite
    }

    /// The smoothing factor `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The history window length `N` this detector was built with.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// Current moving average for output position `i`, if one element has
    /// been seen.
    #[must_use]
    pub fn current(&self, i: usize) -> Option<f64> {
        self.state.get(i).copied().flatten()
    }
}

impl ErrorEstimator for EmaDetector {
    fn name(&self) -> &'static str {
        "EMA"
    }

    fn estimate(&mut self, _input: &[f64], approx_output: &[f64]) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        let mut poisoned = false;
        for (slot, &e) in self.state.iter_mut().zip(approx_output) {
            if !e.is_finite() {
                // A NaN/Inf sample must never reach the recurrence: folding
                // it in makes the average NaN forever, and every later
                // estimate for this element silently stops firing.
                self.skipped_non_finite += 1;
                poisoned = true;
                continue;
            }
            match slot {
                Some(ema) => {
                    total += (e - *ema).abs() / ema.abs().max(self.eps);
                    counted += 1;
                    *ema = e * self.alpha + *ema * (1.0 - self.alpha);
                }
                None => {
                    // First sample: no history yet, deviation defined as 0.
                    *slot = Some(e);
                    counted += 1;
                }
            }
        }
        if poisoned {
            // A non-finite output is the largest possible deviation: fire
            // unconditionally (matches the calibrator's sanitization rule).
            f64::INFINITY
        } else if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    fn estimate_signed(&self, _input: &[f64], approx_output: &[f64], magnitude: f64) -> f64 {
        // Signed deviation from the moving trend, in output space. Pure:
        // the averages were already advanced by the paired `estimate` call
        // and must not move again. Unseeded or non-finite slots contribute
        // nothing; with no usable slot, fall back to the magnitude.
        let mut total = 0.0;
        let mut counted = 0usize;
        for (slot, &e) in self.state.iter().zip(approx_output) {
            if let Some(ema) = slot {
                if e.is_finite() {
                    total += e - *ema;
                    counted += 1;
                }
            }
        }
        if counted == 0 {
            magnitude
        } else {
            total / counted as f64
        }
    }

    fn state_config_word(&self) -> u64 {
        crate::config_fingerprint(
            self.name(),
            &[self.history_len as u64, self.state.len() as u64, self.eps.to_bits()],
        )
    }

    fn cost(&self) -> CheckerCost {
        // Per element: one multiply-add to update the average, one
        // subtract/compare against the threshold.
        CheckerCost { macs: 2 * self.state.len(), comparisons: self.state.len(), table_reads: 1 }
    }

    fn reset(&mut self) {
        for slot in &mut self.state {
            *slot = None;
        }
        self.skipped_non_finite = 0;
    }

    fn export_state(&self) -> Vec<u64> {
        // (flag, bits) per slot: a NaN sentinel could not distinguish
        // "never seen" from a genuinely poisoned average, so seededness is
        // its own word. The skip counter rides along at the end.
        let mut words = Vec::with_capacity(2 * self.state.len() + 1);
        for slot in &self.state {
            words.extend([u64::from(slot.is_some()), slot.map_or(0, f64::to_bits)]);
        }
        words.push(self.skipped_non_finite);
        words
    }

    fn import_state(&mut self, words: &[u64]) -> std::result::Result<(), String> {
        let (state, skipped) = read_all(words, "ema", |r| {
            let state = (0..self.state.len())
                .map(|_| match (r.flag("ema.seeded")?, r.u64("ema.average")?) {
                    (true, bits) => Ok(Some(f64::from_bits(bits))),
                    (false, 0) => Ok(None),
                    (false, bits) => Err(format!("ema.average: unseeded slot holds {bits:#x}")),
                })
                .collect::<std::result::Result<Vec<_>, String>>()?;
            Ok((state, r.u64("ema.skipped")?))
        })?;
        self.state = state;
        self.skipped_non_finite = skipped;
        Ok(())
    }

    fn is_input_based(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_follows_equation_2() {
        let ema = EmaDetector::new(9, 1).unwrap();
        assert!((ema.alpha() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(EmaDetector::new(0, 1).is_err());
        assert!(EmaDetector::new(4, 0).is_err());
    }

    #[test]
    fn first_sample_scores_zero() {
        let mut ema = EmaDetector::new(4, 2).unwrap();
        assert_eq!(ema.estimate(&[], &[0.7, -0.3]), 0.0);
    }

    #[test]
    fn constant_stream_scores_zero() {
        let mut ema = EmaDetector::new(4, 1).unwrap();
        for _ in 0..10 {
            assert!(ema.estimate(&[], &[2.5]) < 1e-12);
        }
    }

    #[test]
    fn update_follows_the_recurrence() {
        let mut ema = EmaDetector::new(3, 1).unwrap(); // α = 0.5
        let _ = ema.estimate(&[], &[1.0]);
        let _ = ema.estimate(&[], &[3.0]);
        // EMA = 3*0.5 + 1*0.5 = 2.0
        assert!((ema.current(0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn state_round_trips_bit_for_bit() {
        let mut ema = EmaDetector::new(5, 3).unwrap();
        let _ = ema.estimate(&[], &[0.3, f64::NAN, 0.9]);
        let _ = ema.estimate(&[], &[0.7, 0.1, 1.1]);
        let words = ema.export_state();
        let mut fresh = EmaDetector::new(5, 3).unwrap();
        fresh.import_state(&words).unwrap();
        assert_eq!(fresh, ema);
        // The restored detector scores the next sample identically.
        let next = [0.4, 0.2, 0.8];
        assert_eq!(ema.estimate(&[], &next).to_bits(), fresh.estimate(&[], &next).to_bits());
    }

    #[test]
    fn import_rejects_malformed_words() {
        let mut ema = EmaDetector::new(4, 2).unwrap();
        assert!(ema.import_state(&[1, 0, 0]).is_err()); // wrong length
        assert!(ema.import_state(&[2, 0, 0, 0, 0]).is_err()); // bad flag
        assert!(ema.import_state(&[0, 7, 0, 0, 0]).is_err()); // unseeded slot with bits
    }

    #[test]
    fn reset_clears_history() {
        let mut ema = EmaDetector::new(4, 1).unwrap();
        let _ = ema.estimate(&[], &[5.0]);
        ema.reset();
        assert_eq!(ema.current(0), None);
        assert_eq!(ema.estimate(&[], &[100.0]), 0.0);
    }

    #[test]
    fn per_channel_averages_are_independent() {
        let mut ema = EmaDetector::new(8, 2).unwrap();
        for _ in 0..20 {
            let _ = ema.estimate(&[], &[1.0, -1.0]);
        }
        // Channel 0 jumps, channel 1 steady: score reflects only the jump.
        let score = ema.estimate(&[], &[2.0, -1.0]);
        assert!(score > 0.4 && score < 0.6, "score {score}");
    }

    #[test]
    fn non_finite_sample_never_poisons_the_state() {
        // Regression: before the fix, one NaN made `state[0]` NaN forever —
        // every later estimate was NaN, so the element never fired again.
        let mut ema = EmaDetector::new(4, 1).unwrap();
        for _ in 0..10 {
            let _ = ema.estimate(&[], &[1.0]);
        }
        let steady_state = ema.current(0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let score = ema.estimate(&[], &[bad]);
            assert_eq!(score, f64::INFINITY, "non-finite sample must fire unconditionally");
        }
        assert_eq!(ema.skipped_non_finite(), 3);
        assert_eq!(ema.current(0), Some(steady_state), "state untouched by bad samples");
        // The detector still works: a steady sample scores near zero, an
        // outlier still scores high and finite.
        assert!(ema.estimate(&[], &[1.0]) < 1e-9);
        let outlier = ema.estimate(&[], &[5.0]);
        assert!(outlier.is_finite() && outlier > 1.0, "outlier {outlier}");
    }

    #[test]
    fn non_finite_first_sample_leaves_slot_unseeded() {
        let mut ema = EmaDetector::new(4, 2).unwrap();
        let score = ema.estimate(&[], &[f64::NAN, 2.0]);
        assert_eq!(score, f64::INFINITY);
        assert_eq!(ema.current(0), None, "NaN must not seed the average");
        assert_eq!(ema.current(1), Some(2.0));
    }

    #[test]
    fn reset_clears_the_skip_counter() {
        let mut ema = EmaDetector::new(4, 1).unwrap();
        let _ = ema.estimate(&[], &[f64::NAN]);
        assert_eq!(ema.skipped_non_finite(), 1);
        ema.reset();
        assert_eq!(ema.skipped_non_finite(), 0);
    }

    #[test]
    fn is_output_based() {
        let ema = EmaDetector::new(4, 1).unwrap();
        assert!(!ema.is_input_based());
        assert_eq!(ema.name(), "EMA");
    }
}
