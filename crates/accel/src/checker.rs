//! The error-predictor hardware added to the accelerator (Figure 7): a
//! coefficient buffer fed through the config queue plus a small datapath
//! (MAC chain for the linear model, comparator walk for the tree, one
//! multiply-add for the EMA).

use rumba_obs::words::WordReader;
use rumba_predict::{CheckerCost, ErrorEstimator};

/// A checker datapath wrapping an [`ErrorEstimator`] with a hardware cycle
/// model.
///
/// The cycle model is deliberately conservative: one cycle per MAC, one per
/// comparison, and coefficient reads overlapped with compute (they stream
/// from a dedicated circular buffer, Figure 7), plus a fixed one-cycle fire
/// decision.
///
/// # Examples
///
/// ```
/// use rumba_accel::CheckerUnit;
/// use rumba_predict::{EmaDetector, ErrorEstimator};
///
/// let ema = EmaDetector::new(8, 1).unwrap();
/// let mut unit = CheckerUnit::new(Box::new(ema));
/// let score = unit.predict(&[], &[0.5]);
/// assert!(score >= 0.0);
/// assert!(unit.cycles_per_prediction() >= 1);
/// ```
#[derive(Debug)]
pub struct CheckerUnit {
    estimator: Box<dyn ErrorEstimator>,
    cycles: u64,
    predictions: u64,
}

impl CheckerUnit {
    /// Wraps an estimator in the hardware model.
    #[must_use]
    pub fn new(estimator: Box<dyn ErrorEstimator>) -> Self {
        let cycles = cycles_of(estimator.cost());
        Self { estimator, cycles, predictions: 0 }
    }

    /// Runs one prediction through the datapath.
    pub fn predict(&mut self, input: &[f64], approx_output: &[f64]) -> f64 {
        self.predictions += 1;
        self.estimator.estimate(input, approx_output)
    }

    /// Signed output-space error estimate for the invocation most recently
    /// scored by [`CheckerUnit::predict`] (`magnitude` is that score). Pure:
    /// no counter bump, no estimator state change — the compensation path
    /// reuses the datapath pass the magnitude prediction already paid for.
    #[must_use]
    pub fn predict_signed(&self, input: &[f64], approx_output: &[f64], magnitude: f64) -> f64 {
        self.estimator.estimate_signed(input, approx_output, magnitude)
    }

    /// Cycles one prediction occupies the checker datapath.
    #[must_use]
    pub fn cycles_per_prediction(&self) -> u64 {
        self.cycles
    }

    /// Hardware work one prediction performs.
    #[must_use]
    pub fn cost(&self) -> CheckerCost {
        self.estimator.cost()
    }

    /// The wrapped estimator's paper-facing name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.estimator.name()
    }

    /// Whether the wrapped estimator is input-based (§3.5 placement rules).
    #[must_use]
    pub fn is_input_based(&self) -> bool {
        self.estimator.is_input_based()
    }

    /// Number of predictions issued since construction or the last reset.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Clears online estimator state (EMA history) and the prediction
    /// counter.
    pub fn reset(&mut self) {
        self.estimator.reset();
        self.predictions = 0;
    }

    /// Direct access to the wrapped estimator.
    #[must_use]
    pub fn estimator(&self) -> &dyn ErrorEstimator {
        self.estimator.as_ref()
    }

    /// Re-fits the wrapped estimator's trained model from online ground
    /// truth (see [`ErrorEstimator::refit`]). The datapath cycle model is
    /// refreshed afterwards: a refit tree may change depth, and the energy
    /// model must charge the new walk length.
    ///
    /// # Errors
    ///
    /// Propagates the estimator's refusal (output-based detectors carry no
    /// refittable model); the estimator is unchanged on error.
    pub fn refit(
        &mut self,
        rows: &[&[f64]],
        targets: &[f64],
        signed_targets: &[f64],
    ) -> Result<(), String> {
        self.estimator.refit(rows, targets, signed_targets)?;
        self.cycles = cycles_of(self.estimator.cost());
        Ok(())
    }

    /// Scores one row for *calibration* (threshold re-fitting) without
    /// bumping the prediction counter: calibration probes are not datapath
    /// traffic, so they must not show up in the energy accounting. Only
    /// meaningful for stateless input-based estimators — the refit path
    /// never reaches here for online (EMA-style) detectors.
    pub fn probe(&mut self, input: &[f64], approx_output: &[f64]) -> f64 {
        self.estimator.estimate(input, approx_output)
    }

    /// The wrapped estimator's trained-model words (see
    /// [`ErrorEstimator::export_model_words`]); `None` when the estimator
    /// kind does not support trained-model transport.
    #[must_use]
    pub fn export_model(&self) -> Option<Vec<u64>> {
        self.estimator.export_model_words()
    }

    /// Restores trained-model words produced by
    /// [`CheckerUnit::export_model`] for input rows `input_dim` wide,
    /// refreshing the cycle model.
    ///
    /// # Errors
    ///
    /// Propagates the estimator's decode errors.
    pub fn import_model(&mut self, words: &[u64], input_dim: usize) -> Result<(), String> {
        self.estimator.import_model_words(words, input_dim)?;
        self.cycles = cycles_of(self.estimator.cost());
        Ok(())
    }

    /// Serializes the datapath's online state (prediction counter, the
    /// estimator's configuration fingerprint, then the estimator's own
    /// words) for session snapshots.
    #[must_use]
    pub fn export_state(&self) -> Vec<u64> {
        let mut words = vec![self.predictions, self.estimator.state_config_word()];
        words.extend(self.estimator.export_state());
        words
    }

    /// Restores state exported by [`CheckerUnit::export_state`] onto an
    /// identically configured unit.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when the words do not decode,
    /// or when the embedded configuration fingerprint disagrees with this
    /// unit's estimator — state words from a differently-configured checker
    /// (another kind, another EMA window, another model shape) can share a
    /// word count and would otherwise corrupt online state silently.
    pub fn import_state(&mut self, words: &[u64]) -> Result<(), String> {
        let mut r = WordReader::new(words);
        let predictions = r.u64("checker.predictions")?;
        let config_word = r.u64("checker.config")?;
        let expected = self.estimator.state_config_word();
        if config_word != expected {
            return Err(format!(
                "checker config mismatch: snapshot was taken under {config_word:#018x}, \
                 this session's {} checker is {expected:#018x}",
                self.estimator.name()
            ));
        }
        self.estimator.import_state(r.words("checker.state", r.remaining())?)?;
        self.predictions = predictions;
        Ok(())
    }
}

fn cycles_of(cost: CheckerCost) -> u64 {
    // +1: the fire comparison against the tuning threshold.
    (cost.macs + cost.comparisons) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumba_predict::{EmaDetector, LinearErrors, TreeErrors, TreeParams};

    fn linear_unit(dim: usize) -> CheckerUnit {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0; dim]).collect();
        let errors: Vec<f64> = (0..20).map(|i| i as f64 * 0.01).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        CheckerUnit::new(Box::new(LinearErrors::train(&refs, &errors, 1e-3).unwrap()))
    }

    #[test]
    fn linear_cycles_scale_with_width() {
        assert!(linear_unit(9).cycles_per_prediction() > linear_unit(2).cycles_per_prediction());
    }

    #[test]
    fn tree_checker_is_cheap() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let errors: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 0.5 } else { 0.0 }).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let unit = CheckerUnit::new(Box::new(
            TreeErrors::train(&refs, &errors, &TreeParams::default()).unwrap(),
        ));
        // Depth ≤ 7 → at most 8 comparisons + fire = 9 cycles.
        assert!(unit.cycles_per_prediction() <= 9);
    }

    #[test]
    fn prediction_counter_and_reset() {
        let ema = EmaDetector::new(4, 1).unwrap();
        let mut unit = CheckerUnit::new(Box::new(ema));
        let _ = unit.predict(&[], &[1.0]);
        let _ = unit.predict(&[], &[1.0]);
        assert_eq!(unit.predictions(), 2);
        unit.reset();
        assert_eq!(unit.predictions(), 0);
        // EMA history cleared: the next sample scores zero again.
        assert_eq!(unit.predict(&[], &[42.0]), 0.0);
    }

    #[test]
    fn name_and_placement_pass_through() {
        let unit = linear_unit(3);
        assert_eq!(unit.name(), "linearErrors");
        assert!(unit.is_input_based());
    }

    #[test]
    fn state_round_trips_through_the_config_word() {
        let mut unit = CheckerUnit::new(Box::new(EmaDetector::new(4, 2).unwrap()));
        let _ = unit.predict(&[], &[1.0, 2.0]);
        let words = unit.export_state();
        let mut fresh = CheckerUnit::new(Box::new(EmaDetector::new(4, 2).unwrap()));
        fresh.import_state(&words).unwrap();
        assert_eq!(fresh.predictions(), 1);
        assert_eq!(fresh.export_state(), words);
    }

    #[test]
    fn refit_passes_through_and_refreshes_the_cycle_model() {
        // Train a stump, refit into a deeper tree: the comparator-walk
        // cycle count must grow with the new depth.
        let rows: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64 / 128.0]).collect();
        let flat: Vec<f64> = vec![0.1; 128];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut unit = CheckerUnit::new(Box::new(
            TreeErrors::train(&refs, &flat, &TreeParams::default()).unwrap(),
        ));
        let before = unit.cycles_per_prediction();
        let wavy: Vec<f64> = rows.iter().map(|r| (r[0] * 20.0).sin().abs()).collect();
        let signed: Vec<f64> = rows.iter().map(|r| r[0] - 0.5).collect();
        unit.refit(&refs, &wavy, &signed).unwrap();
        assert!(unit.cycles_per_prediction() > before);

        // Probing does not count as datapath traffic.
        let n = unit.predictions();
        let _ = unit.probe(&[0.5], &[]);
        assert_eq!(unit.predictions(), n);

        // Model words migrate the refit checker onto a fresh unit.
        let words = unit.export_model().unwrap();
        let mut fresh = CheckerUnit::new(Box::new(
            TreeErrors::train(&refs, &flat, &TreeParams::default()).unwrap(),
        ));
        fresh.import_model(&words, 1).unwrap();
        assert_eq!(fresh.export_model().unwrap(), words);
        assert_eq!(fresh.cycles_per_prediction(), unit.cycles_per_prediction());

        // Output-based detectors decline the whole surface.
        let mut ema = CheckerUnit::new(Box::new(EmaDetector::new(4, 1).unwrap()));
        assert!(ema.refit(&refs, &wavy, &signed).is_err());
        assert!(ema.export_model().is_none());
        assert!(ema.import_model(&words, 1).is_err());
    }

    #[test]
    fn import_rejects_a_differently_configured_checker() {
        // Same output_dim → identical estimator word counts; only the
        // config fingerprint tells an 8-window EMA from a 4-window one.
        let unit = CheckerUnit::new(Box::new(EmaDetector::new(8, 1).unwrap()));
        let words = unit.export_state();
        let mut other_alpha = CheckerUnit::new(Box::new(EmaDetector::new(4, 1).unwrap()));
        let err = other_alpha.import_state(&words).unwrap_err();
        assert!(err.contains("config mismatch"), "{err}");

        // Cross-kind: linear state under a tree checker.
        let linear = linear_unit(1);
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let errors: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 0.5 } else { 0.0 }).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut tree = CheckerUnit::new(Box::new(
            TreeErrors::train(&refs, &errors, &TreeParams::default()).unwrap(),
        ));
        assert!(tree.import_state(&linear.export_state()).unwrap_err().contains("mismatch"));
    }
}
