//! The fault taxonomy: what can go wrong, and where it strikes.

use std::fmt;

/// Fixed-point fractional bits of the modeled NPU datapath. Bit flips are
/// injected on this 16.16 grid (sign + 15 integer + 16 fractional bits),
/// matching the limited-precision datapath `NpuParams::precision_bits`
/// models: a strike flips a latch in the output register, not an abstract
/// IEEE-754 bit (whole-exponent flips would be unrealistically loud).
pub const DATAPATH_FRACTIONAL_BITS: u32 = 16;

/// Width in bits of the modeled output register.
pub const DATAPATH_BITS: u32 = 32;

/// One family of injected faults. Every model is parameterized so a plan
/// can compose several at once; all decisions are pure functions of
/// `(plan seed, model slot, invocation, element)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// Transient single-bit upsets on the quantized NPU output datapath:
    /// each output element is struck with probability `rate`, flipping one
    /// uniformly chosen bit of its 16.16 fixed-point representation. The
    /// corrupted value is always finite.
    BitFlip {
        /// Per-element strike probability.
        rate: f64,
    },
    /// Output corruption to a non-finite value (NaN, `+inf`, or `-inf`,
    /// chosen uniformly): models a datapath fault that escapes the number
    /// system entirely — the case the runtime must quarantine.
    NonFinite {
        /// Per-element strike probability.
        rate: f64,
    },
    /// A permanent stuck-at fault: from invocation `start` onward, one
    /// output element position (chosen by the plan seed) always reads
    /// `value` regardless of what the accelerator computed.
    StuckAt {
        /// First affected invocation.
        start: usize,
        /// The value the stuck line reads.
        value: f64,
    },
    /// Input-distribution drift: from invocation `start`, every input
    /// element is shifted by `magnitude × min(1, elapsed / ramp)` — a
    /// saturating ramp that pushes the accelerator (and any input-based
    /// checker) off its training distribution. The CPU's exact
    /// re-execution reads the pristine input from memory, so drift is an
    /// accelerator-side corruption the checkers must catch.
    InputDrift {
        /// First drifting invocation.
        start: usize,
        /// Invocations over which the shift ramps to full magnitude
        /// (zero means the full shift applies immediately).
        ramp: usize,
        /// Full additive shift applied to every input element.
        magnitude: f64,
    },
    /// Checker staleness/misprediction: with probability `rate` per
    /// invocation the checker's score is suppressed to zero — the
    /// detection that should have fired silently does not. This is how
    /// escaped faults are manufactured on purpose.
    CheckerBlind {
        /// Per-invocation suppression probability.
        rate: f64,
    },
    /// Recovery-queue pressure: from invocation `start`, `slots` entries
    /// of the recovery queue behave as permanently occupied (a stuck
    /// consumer), shrinking the effective capacity and forcing earlier
    /// back-pressure.
    QueuePressure {
        /// First affected invocation.
        start: usize,
        /// Phantom-occupied slots.
        slots: usize,
    },
}

impl FaultModel {
    /// The taxonomy tag of this model.
    #[must_use]
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultModel::BitFlip { .. } => FaultKind::BitFlip,
            FaultModel::NonFinite { .. } => FaultKind::NonFinite,
            FaultModel::StuckAt { .. } => FaultKind::StuckAt,
            FaultModel::InputDrift { .. } => FaultKind::InputDrift,
            FaultModel::CheckerBlind { .. } => FaultKind::CheckerBlind,
            FaultModel::QueuePressure { .. } => FaultKind::QueuePressure,
        }
    }

    /// Whether this model corrupts accelerator *outputs*.
    #[must_use]
    pub fn strikes_outputs(&self) -> bool {
        matches!(
            self,
            FaultModel::BitFlip { .. } | FaultModel::NonFinite { .. } | FaultModel::StuckAt { .. }
        )
    }

    /// Whether this model corrupts accelerator *inputs*.
    #[must_use]
    pub fn strikes_inputs(&self) -> bool {
        matches!(self, FaultModel::InputDrift { .. })
    }

    /// The one range check every way of building a plan runs: a strike
    /// probability must lie in `[0, 1]` (NaN is rejected), and a stuck
    /// value or drift magnitude must be finite (a NaN would make the plan
    /// unequal to itself).
    ///
    /// # Errors
    ///
    /// Returns a description naming the out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        let label = self.kind().label();
        match *self {
            FaultModel::BitFlip { rate }
            | FaultModel::NonFinite { rate }
            | FaultModel::CheckerBlind { rate }
                if !(0.0..=1.0).contains(&rate) =>
            {
                Err(format!("{label} rate {rate} outside [0, 1]"))
            }
            FaultModel::StuckAt { value, .. } if !value.is_finite() => {
                Err(format!("{label} value {value} is not finite"))
            }
            FaultModel::InputDrift { magnitude, .. } if !magnitude.is_finite() => {
                Err(format!("{label} magnitude {magnitude} is not finite"))
            }
            _ => Ok(()),
        }
    }
}

/// The fault taxonomy tag — the `kind` field of `fault` telemetry events
/// and the row label of the `rumba faults` coverage table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Transient bit flip on the output datapath.
    BitFlip,
    /// Non-finite output corruption.
    NonFinite,
    /// Permanent stuck-at output element.
    StuckAt,
    /// Input-distribution drift.
    InputDrift,
    /// Suppressed checker detection.
    CheckerBlind,
    /// Recovery-queue pressure.
    QueuePressure,
}

impl FaultKind {
    /// Stable snake_case label (telemetry schema; do not repurpose).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit_flip",
            FaultKind::NonFinite => "non_finite",
            FaultKind::StuckAt => "stuck_at",
            FaultKind::InputDrift => "input_drift",
            FaultKind::CheckerBlind => "checker_blind",
            FaultKind::QueuePressure => "queue_pressure",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Flips one bit of `v`'s 16.16 fixed-point datapath representation.
/// `bit` is taken modulo [`DATAPATH_BITS`]. Always returns a finite value.
#[must_use]
pub fn flip_datapath_bit(v: f64, bit: u32) -> f64 {
    let scale = f64::from(1u32 << DATAPATH_FRACTIONAL_BITS);
    let scaled = (v * scale).round().clamp(f64::from(i32::MIN), f64::from(i32::MAX));
    // The clamp above keeps the cast in range.
    #[allow(clippy::cast_possible_truncation)]
    let word = scaled as i32;
    // Bit 31 is the register's sign bit; `1i32 << 31` is exactly that mask.
    let flipped = word ^ (1i32 << (bit % DATAPATH_BITS));
    f64::from(flipped) / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flips_stay_finite_and_move_the_value() {
        for bit in 0..DATAPATH_BITS {
            let flipped = flip_datapath_bit(0.731, bit);
            assert!(flipped.is_finite(), "bit {bit}");
            assert_ne!(flipped, 0.731, "bit {bit} must change the value");
        }
    }

    #[test]
    fn low_bits_are_quiet_high_bits_are_loud() {
        let small = (flip_datapath_bit(1.0, 0) - 1.0).abs();
        let large = (flip_datapath_bit(1.0, 30) - 1.0).abs();
        assert!(small < 1e-4, "LSB flip {small}");
        assert!(large > 1e3, "MSB flip {large}");
    }

    #[test]
    fn sign_bit_flip_negates_the_register() {
        let v = flip_datapath_bit(2.0, 31);
        assert!(v < 0.0, "sign flip of 2.0 gave {v}");
    }

    #[test]
    fn flip_is_an_involution_on_grid_values() {
        // A value already on the 2^-16 grid round-trips: flipping the same
        // bit twice restores it exactly.
        let v = 1234.0 / 65536.0;
        for bit in [0, 7, 19, 31] {
            let twice = flip_datapath_bit(flip_datapath_bit(v, bit), bit);
            assert_eq!(twice, v, "bit {bit}");
        }
    }

    #[test]
    fn kinds_and_targets_are_consistent() {
        let models = [
            FaultModel::BitFlip { rate: 0.1 },
            FaultModel::NonFinite { rate: 0.1 },
            FaultModel::StuckAt { start: 0, value: 0.0 },
            FaultModel::InputDrift { start: 0, ramp: 10, magnitude: 0.5 },
            FaultModel::CheckerBlind { rate: 0.1 },
            FaultModel::QueuePressure { start: 0, slots: 4 },
        ];
        let output_kinds = [FaultKind::BitFlip, FaultKind::NonFinite, FaultKind::StuckAt];
        for m in models {
            assert_eq!(m.strikes_outputs(), output_kinds.contains(&m.kind()), "{:?}", m.kind());
            assert_eq!(m.strikes_inputs(), m.kind() == FaultKind::InputDrift);
            assert!(!m.kind().label().contains(' '));
        }
    }
}
