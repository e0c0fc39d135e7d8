//! `rumba-faults` — seed-deterministic fault injection for the Rumba
//! runtime.
//!
//! The paper's §6.5 observes that the same checkers that catch large
//! approximation errors also catch *hardware faults* in the accelerator
//! datapath for free. This crate makes that claim testable: a
//! [`FaultPlan`] composes seeded [`FaultModel`]s — transient bit flips on
//! the quantized datapath, non-finite output corruption, stuck-at output
//! lines, input-distribution drift, checker staleness, recovery-queue
//! pressure — and injects them into the accelerator and runtime hooks
//! (`Npu::invoke_batch`, `RumbaSystem::run`/`process`, the event
//! simulator).
//!
//! # Determinism contract
//!
//! Every decision is a **pure function** of `(plan seed, model slot,
//! invocation index, element index)` — no shared RNG stream, no
//! interior mutability. Two consequences:
//!
//! - Injected runs are bit-reproducible at any thread count (the same
//!   contract `rumba-parallel` keeps for chunked work): corrupting row
//!   500 never depends on the order rows 0..499 were visited.
//! - Any observer can *replay* the plan's decisions without touching
//!   data — [`FaultPlan::output_fault_events`] recounts exactly what
//!   [`FaultPlan::corrupt_output`] injected, which is how the runtime
//!   attributes detections to injections without plumbing state through
//!   the parallel batch path.
//!
//! The crate is std-only and dependency-free; telemetry emission stays
//! with the (serial) call sites in `rumba-core` so event order is
//! deterministic too.
//!
//! # Examples
//!
//! ```
//! use rumba_faults::{FaultModel, FaultPlan};
//!
//! let plan = FaultPlan::new(0xfa17).with(FaultModel::NonFinite { rate: 0.5 });
//! let mut row = [1.0, 2.0, 3.0, 4.0];
//! let injected = plan.corrupt_output(7, &mut row);
//! // Bit-reproducible: the same (seed, invocation) corrupts identically.
//! let mut again = [1.0, 2.0, 3.0, 4.0];
//! assert_eq!(plan.corrupt_output(7, &mut again), injected);
//! assert_eq!(row.map(f64::to_bits), again.map(f64::to_bits));
//! ```

mod model;
mod rng;

pub use model::{
    flip_datapath_bit, FaultKind, FaultModel, DATAPATH_BITS, DATAPATH_FRACTIONAL_BITS,
};
pub use rng::{decision, splitmix64, unit};

/// One fault the plan injected (or would inject) at a specific site;
/// the runtime turns these into `fault` telemetry events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Which model struck.
    pub kind: FaultKind,
    /// Output-element index the strike landed on (0 for whole-invocation
    /// faults such as checker blinding).
    pub element: usize,
}

/// Cumulative injection/degradation accounting for one run. The runtime
/// fills this while replaying its serial decision loop and reports it in
/// `RunOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Output elements corrupted (bit flips + non-finite + stuck-at).
    pub injected_outputs: u64,
    /// Invocations whose inputs were drifted.
    pub drifted_inputs: u64,
    /// Invocations whose checker score was suppressed.
    pub checker_blinded: u64,
    /// Invocations quarantined for non-finite accelerator output.
    pub quarantined: u64,
    /// Faulted invocations that fired the checker (detected).
    pub detected: u64,
    /// Faulted invocations that neither fired nor were quarantined.
    pub escaped: u64,
    /// Watchdog recalibrations triggered.
    pub recalibrations: u64,
    /// Watchdog full-CPU fallbacks triggered.
    pub fallbacks: u64,
}

impl FaultStats {
    /// Whether any fault was injected or any degradation action taken.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// A composition of seeded fault models, attachable to the accelerator
/// (`Npu::with_fault_plan`) and the runtime (`RumbaSystem::set_fault_plan`).
///
/// An empty plan injects nothing; hooks check [`FaultPlan::is_empty`] (or
/// hold `Option<FaultPlan>`) so the fault-off path costs nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    models: Vec<FaultModel>,
}

impl FaultPlan {
    /// An empty plan with the given seed; add models with [`FaultPlan::with`].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed, models: Vec::new() }
    }

    /// Adds one fault model (builder style). Models occupy consecutive
    /// slots; the slot index is mixed into every decision, so two
    /// identical models in one plan strike independently.
    #[must_use]
    pub fn with(mut self, model: FaultModel) -> Self {
        self.models.push(model);
        self
    }

    /// Parses a compact fault-spec string into a plan — the wire format of
    /// the serving protocol's `"faults"` field and the bench drivers.
    ///
    /// The spec is a comma-separated list of `kind=params` entries, where
    /// multi-value params are `:`-separated:
    ///
    /// | entry | model |
    /// |---|---|
    /// | `bit_flip=RATE` | [`FaultModel::BitFlip`] |
    /// | `non_finite=RATE` | [`FaultModel::NonFinite`] |
    /// | `stuck_at=START:VALUE` | [`FaultModel::StuckAt`] |
    /// | `input_drift=START:RAMP:MAGNITUDE` | [`FaultModel::InputDrift`] |
    /// | `checker_blind=RATE` | [`FaultModel::CheckerBlind`] |
    /// | `queue_pressure=START:SLOTS` | [`FaultModel::QueuePressure`] |
    ///
    /// An empty (or all-whitespace) spec parses to an empty plan, which
    /// every attachment point normalizes to "no plan".
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed entry.
    pub fn parse(seed: u64, spec: &str) -> Result<Self, String> {
        let mut plan = Self::new(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, params) =
                entry.split_once('=').ok_or_else(|| format!("'{entry}': expected kind=params"))?;
            let parts: Vec<&str> = params.split(':').map(str::trim).collect();
            let arity = |n: usize| {
                if parts.len() == n {
                    Ok(())
                } else {
                    Err(format!("'{entry}': expected {n} ':'-separated parameter(s)"))
                }
            };
            let rate = |s: &str| -> Result<f64, String> {
                s.parse().map_err(|e| format!("'{entry}': bad rate '{s}' ({e})"))
            };
            let num = |s: &str| -> Result<f64, String> {
                s.parse().map_err(|e| format!("'{entry}': bad number '{s}' ({e})"))
            };
            let index = |s: &str| -> Result<usize, String> {
                s.parse().map_err(|e| format!("'{entry}': bad index '{s}' ({e})"))
            };
            let model = match kind.trim() {
                "bit_flip" => {
                    arity(1)?;
                    FaultModel::BitFlip { rate: rate(parts[0])? }
                }
                "non_finite" => {
                    arity(1)?;
                    FaultModel::NonFinite { rate: rate(parts[0])? }
                }
                "stuck_at" => {
                    arity(2)?;
                    FaultModel::StuckAt { start: index(parts[0])?, value: num(parts[1])? }
                }
                "input_drift" => {
                    arity(3)?;
                    FaultModel::InputDrift {
                        start: index(parts[0])?,
                        ramp: index(parts[1])?,
                        magnitude: num(parts[2])?,
                    }
                }
                "checker_blind" => {
                    arity(1)?;
                    FaultModel::CheckerBlind { rate: rate(parts[0])? }
                }
                "queue_pressure" => {
                    arity(2)?;
                    FaultModel::QueuePressure { start: index(parts[0])?, slots: index(parts[1])? }
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            model.validate().map_err(|e| format!("'{entry}': {e}"))?;
            plan = plan.with(model);
        }
        Ok(plan)
    }

    /// The spec string [`FaultPlan::parse`] reads back into this plan's
    /// models (the seed travels separately). Numbers are written in Rust's
    /// shortest round-trip form, so every finite parameter parses back to
    /// the same bits.
    #[must_use]
    pub fn spec(&self) -> String {
        let entries: Vec<String> = self
            .models
            .iter()
            .map(|model| {
                let kind = model.kind();
                match *model {
                    FaultModel::BitFlip { rate }
                    | FaultModel::NonFinite { rate }
                    | FaultModel::CheckerBlind { rate } => format!("{kind}={rate:?}"),
                    FaultModel::StuckAt { start, value } => format!("{kind}={start}:{value:?}"),
                    FaultModel::InputDrift { start, ramp, magnitude } => {
                        format!("{kind}={start}:{ramp}:{magnitude:?}")
                    }
                    FaultModel::QueuePressure { start, slots } => format!("{kind}={start}:{slots}"),
                }
            })
            .collect();
        entries.join(",")
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The composed models, in slot order.
    #[must_use]
    pub fn models(&self) -> &[FaultModel] {
        &self.models
    }

    /// Whether the plan has no models at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Whether any model corrupts accelerator outputs.
    #[must_use]
    pub fn has_output_faults(&self) -> bool {
        self.models.iter().any(FaultModel::strikes_outputs)
    }

    /// Whether any model corrupts accelerator inputs.
    #[must_use]
    pub fn has_input_faults(&self) -> bool {
        self.models.iter().any(FaultModel::strikes_inputs)
    }

    /// The output element a [`FaultModel::StuckAt`] slot pins, for a given
    /// output width (chosen by the plan seed, stable across invocations).
    fn stuck_element(&self, slot: usize, out_dim: usize) -> usize {
        (decision(self.seed, slot as u64, u64::MAX, u64::MAX) % out_dim.max(1) as u64) as usize
    }

    /// Applies every output-side model to one invocation's output row,
    /// in slot order. Returns the number of corrupted elements.
    pub fn corrupt_output(&self, invocation: usize, out: &mut [f64]) -> usize {
        let mut injected = 0usize;
        for (slot, model) in self.models.iter().enumerate() {
            match *model {
                FaultModel::BitFlip { rate } => {
                    for (e, v) in out.iter_mut().enumerate() {
                        let h = decision(self.seed, slot as u64, invocation as u64, e as u64);
                        if unit(h) < rate {
                            *v = flip_datapath_bit(*v, (splitmix64(h) % 64) as u32);
                            injected += 1;
                        }
                    }
                }
                FaultModel::NonFinite { rate } => {
                    for (e, v) in out.iter_mut().enumerate() {
                        let h = decision(self.seed, slot as u64, invocation as u64, e as u64);
                        if unit(h) < rate {
                            *v = match splitmix64(h) % 3 {
                                0 => f64::NAN,
                                1 => f64::INFINITY,
                                _ => f64::NEG_INFINITY,
                            };
                            injected += 1;
                        }
                    }
                }
                FaultModel::StuckAt { start, value } if invocation >= start && !out.is_empty() => {
                    out[self.stuck_element(slot, out.len())] = value;
                    injected += 1;
                }
                _ => {}
            }
        }
        injected
    }

    /// Replays [`FaultPlan::corrupt_output`]'s decisions without data,
    /// appending one [`InjectedFault`] per *newsworthy* strike to `log`
    /// (cleared first): every rate-based strike, but a stuck-at line only
    /// on its first affected invocation — a persistent fault is one event,
    /// not one per invocation. Returns the total corrupted-element count
    /// for this invocation (stuck-at counted every invocation).
    pub fn output_fault_events(
        &self,
        invocation: usize,
        out_dim: usize,
        log: &mut Vec<InjectedFault>,
    ) -> usize {
        log.clear();
        let mut injected = 0usize;
        for (slot, model) in self.models.iter().enumerate() {
            match *model {
                FaultModel::BitFlip { rate } | FaultModel::NonFinite { rate } => {
                    for e in 0..out_dim {
                        let h = decision(self.seed, slot as u64, invocation as u64, e as u64);
                        if unit(h) < rate {
                            log.push(InjectedFault { kind: model.kind(), element: e });
                            injected += 1;
                        }
                    }
                }
                FaultModel::StuckAt { start, .. } if invocation >= start && out_dim > 0 => {
                    injected += 1;
                    if invocation == start {
                        log.push(InjectedFault {
                            kind: FaultKind::StuckAt,
                            element: self.stuck_element(slot, out_dim),
                        });
                    }
                }
                _ => {}
            }
        }
        injected
    }

    /// Applies input-drift models to one invocation's input row. Returns
    /// whether the row was modified.
    pub fn drift_input(&self, invocation: usize, input: &mut [f64]) -> bool {
        let mut drifted = false;
        for model in &self.models {
            if let FaultModel::InputDrift { start, ramp, magnitude } = *model {
                if invocation >= start {
                    let elapsed = (invocation - start + 1) as f64;
                    let shift = magnitude * (elapsed / ramp.max(1) as f64).min(1.0);
                    for v in input.iter_mut() {
                        *v += shift;
                    }
                    drifted = true;
                }
            }
        }
        drifted
    }

    /// Whether any checker-staleness model suppresses the checker's score
    /// for this invocation.
    #[must_use]
    pub fn blind_checker(&self, invocation: usize) -> bool {
        self.models.iter().enumerate().any(|(slot, model)| match *model {
            FaultModel::CheckerBlind { rate } => {
                unit(decision(self.seed, slot as u64, invocation as u64, 0)) < rate
            }
            _ => false,
        })
    }

    /// Phantom recovery-queue occupancy at this invocation (summed over
    /// queue-pressure models).
    #[must_use]
    pub fn queue_pressure(&self, invocation: usize) -> usize {
        self.models
            .iter()
            .map(|model| match *model {
                FaultModel::QueuePressure { start, slots } if invocation >= start => slots,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_models() -> Vec<FaultModel> {
        vec![
            FaultModel::BitFlip { rate: 0.05 },
            FaultModel::NonFinite { rate: 0.05 },
            FaultModel::StuckAt { start: 10, value: -1.0 },
            FaultModel::InputDrift { start: 20, ramp: 8, magnitude: 0.25 },
            FaultModel::CheckerBlind { rate: 0.1 },
            FaultModel::QueuePressure { start: 5, slots: 3 },
        ]
    }

    #[test]
    fn parses_the_full_spec_grammar() {
        let plan = FaultPlan::parse(
            9,
            "bit_flip=0.05, non_finite=0.05, stuck_at=10:-1.0, \
             input_drift=20:8:0.25, checker_blind=0.1, queue_pressure=5:3",
        )
        .unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.models(), all_models().as_slice());
    }

    #[test]
    fn spec_is_the_inverse_of_parse() {
        let plan = all_models().into_iter().fold(FaultPlan::new(9), FaultPlan::with);
        assert_eq!(
            plan.spec(),
            "bit_flip=0.05,non_finite=0.05,stuck_at=10:-1.0,input_drift=20:8:0.25,\
             checker_blind=0.1,queue_pressure=5:3"
        );
        assert_eq!(FaultPlan::parse(9, &plan.spec()).unwrap(), plan);
        assert_eq!(FaultPlan::new(3).spec(), "");
    }

    #[test]
    fn empty_spec_is_an_empty_plan() {
        for spec in ["", "   ", ",", " , "] {
            let plan = FaultPlan::parse(1, spec).unwrap();
            assert!(plan.is_empty(), "{spec:?}");
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "martian=0.1",
            "bit_flip",
            "bit_flip=1.5",
            "bit_flip=-0.1",
            "bit_flip=x",
            "stuck_at=10",
            "stuck_at=10:1:2",
            "input_drift=1:2",
            "queue_pressure=1:-3",
            "non_finite=NaN",
            "checker_blind=2",
            "stuck_at=0:NaN",
            "stuck_at=0:-inf",
            "input_drift=1:1:inf",
            "input_drift=1:1:NaN",
        ] {
            assert!(FaultPlan::parse(0, bad).is_err(), "accepted {bad:?}");
        }
        // The spec parser and `FaultModel::validate` are one check.
        let err = FaultPlan::parse(0, "bit_flip=1.5").unwrap_err();
        assert_eq!(err, format!("'bit_flip=1.5': {}", bit_flip(1.5).validate().unwrap_err()));
        assert!(bit_flip(1.0).validate().is_ok() && bit_flip(0.0).validate().is_ok());
        let err = FaultPlan::parse(0, "stuck_at=0:NaN").unwrap_err();
        assert_eq!(err, "'stuck_at=0:NaN': stuck_at value NaN is not finite");
        let err = FaultPlan::parse(0, "input_drift=1:1:inf").unwrap_err();
        assert_eq!(err, "'input_drift=1:1:inf': input_drift magnitude inf is not finite");
        let stuck = |value| FaultModel::StuckAt { start: 0, value };
        assert!(stuck(-1e300).validate().is_ok() && stuck(0.0).validate().is_ok());
        let drift = |magnitude| FaultModel::InputDrift { start: 0, ramp: 0, magnitude };
        assert!(drift(-2.5).validate().is_ok() && drift(f64::NEG_INFINITY).validate().is_err());
    }

    fn bit_flip(rate: f64) -> FaultModel {
        FaultModel::BitFlip { rate }
    }

    #[test]
    fn empty_plan_touches_nothing() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        let mut out = [0.5, -0.5];
        assert_eq!(plan.corrupt_output(3, &mut out), 0);
        assert_eq!(out, [0.5, -0.5]);
        let mut input = [1.0];
        assert!(!plan.drift_input(3, &mut input));
        assert!(!plan.blind_checker(3));
        assert_eq!(plan.queue_pressure(3), 0);
    }

    #[test]
    fn stuck_at_pins_one_element_from_its_start() {
        let plan = FaultPlan::new(9).with(FaultModel::StuckAt { start: 4, value: 7.5 });
        let mut before = [0.0, 1.0, 2.0];
        assert_eq!(plan.corrupt_output(3, &mut before), 0);
        let mut a = [0.0, 1.0, 2.0];
        let mut b = [9.0, 8.0, 7.0];
        assert_eq!(plan.corrupt_output(4, &mut a), 1);
        assert_eq!(plan.corrupt_output(400, &mut b), 1);
        let pos_a = a.iter().position(|&v| v == 7.5).unwrap();
        let pos_b = b.iter().position(|&v| v == 7.5).unwrap();
        assert_eq!(pos_a, pos_b, "stuck element is stable across invocations");
    }

    #[test]
    fn drift_ramps_and_saturates() {
        let plan =
            FaultPlan::new(2).with(FaultModel::InputDrift { start: 10, ramp: 10, magnitude: 1.0 });
        let shift_at = |inv: usize| {
            let mut x = [0.0];
            plan.drift_input(inv, &mut x);
            x[0]
        };
        assert_eq!(shift_at(9), 0.0, "before start");
        let early = shift_at(10);
        let mid = shift_at(14);
        let full = shift_at(19);
        assert!(early > 0.0 && early < mid && mid < full, "{early} {mid} {full}");
        assert_eq!(full, 1.0);
        assert_eq!(shift_at(500), 1.0, "saturated");
    }

    #[test]
    fn event_replay_matches_injection() {
        let plan = FaultPlan::new(77)
            .with(FaultModel::NonFinite { rate: 0.2 })
            .with(FaultModel::BitFlip { rate: 0.2 });
        let mut log = Vec::new();
        for inv in 0..200 {
            let mut out = [1.0, 2.0, 3.0];
            let injected = plan.corrupt_output(inv, &mut out);
            let replayed = plan.output_fault_events(inv, out.len(), &mut log);
            assert_eq!(injected, replayed, "invocation {inv}");
            assert_eq!(log.len(), injected, "rate-based strikes all log");
            // Every logged non-finite strike corresponds to a corrupted
            // slot — unless a later-slot bit flip re-struck the same
            // element (the fixed-point datapath quantizes NaN back to a
            // finite word).
            for f in &log {
                let restruck =
                    log.iter().any(|g| g.kind == FaultKind::BitFlip && g.element == f.element);
                if f.kind == FaultKind::NonFinite && !restruck {
                    assert!(!out[f.element].is_finite(), "invocation {inv} element {}", f.element);
                }
            }
        }
    }

    #[test]
    fn stuck_at_logs_only_once() {
        let plan = FaultPlan::new(4).with(FaultModel::StuckAt { start: 3, value: 0.0 });
        let mut log = Vec::new();
        assert_eq!(plan.output_fault_events(2, 2, &mut log), 0);
        assert!(log.is_empty());
        assert_eq!(plan.output_fault_events(3, 2, &mut log), 1);
        assert_eq!(log.len(), 1, "first affected invocation logs");
        assert_eq!(plan.output_fault_events(4, 2, &mut log), 1);
        assert!(log.is_empty(), "persistent fault is one event, not one per invocation");
    }

    #[test]
    fn queue_pressure_and_blinding_activate() {
        let plan = FaultPlan::new(3)
            .with(FaultModel::QueuePressure { start: 5, slots: 3 })
            .with(FaultModel::CheckerBlind { rate: 0.5 });
        assert_eq!(plan.queue_pressure(4), 0);
        assert_eq!(plan.queue_pressure(5), 3);
        let blinded = (0..1000).filter(|&i| plan.blind_checker(i)).count();
        assert!((350..650).contains(&blinded), "blinded {blinded}");
    }

    #[test]
    fn composed_plan_reports_its_surfaces() {
        let mut plan = FaultPlan::new(0);
        for m in all_models() {
            plan = plan.with(m);
        }
        assert!(plan.has_output_faults() && plan.has_input_faults());
        assert_eq!(plan.models().len(), 6);
    }

    proptest! {
        #[test]
        fn decisions_are_order_and_history_independent(
            seed in 0u64..1_000_000,
            inv in 0usize..10_000,
            dim in 1usize..9,
        ) {
            let plan = FaultPlan::new(seed)
                .with(FaultModel::BitFlip { rate: 0.3 })
                .with(FaultModel::NonFinite { rate: 0.3 })
                .with(FaultModel::StuckAt { start: 100, value: 0.25 });
            // Visiting rows in any order (or skipping all others) yields
            // the same corruption for row `inv`.
            let mut direct: Vec<f64> = (0..dim).map(|e| e as f64 * 0.125).collect();
            plan.corrupt_output(inv, &mut direct);
            let mut after_history: Vec<f64> = (0..dim).map(|e| e as f64 * 0.125).collect();
            for other in (0..50).rev() {
                let mut scratch = vec![0.5; dim];
                plan.corrupt_output(other, &mut scratch);
            }
            plan.corrupt_output(inv, &mut after_history);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&direct), bits(&after_history));
        }

        #[test]
        fn bit_flip_corruption_is_always_finite(
            seed in 0u64..1_000_000,
            inv in 0usize..10_000,
        ) {
            let plan = FaultPlan::new(seed).with(FaultModel::BitFlip { rate: 1.0 });
            let mut out = [0.123, -4.56, 1e4, 0.0];
            let injected = plan.corrupt_output(inv, &mut out);
            prop_assert_eq!(injected, out.len());
            prop_assert!(out.iter().all(|v| v.is_finite()));
        }
    }
}
