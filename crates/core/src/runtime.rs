//! The online Rumba system (Figure 4's execution subsystem): accelerator +
//! checker + recovery queue + output merger + online tuner, processing an
//! invocation stream end to end.
//!
//! Batch runs ([`RumbaSystem::run`]), streaming ([`RumbaSystem::process`])
//! and the serving scheduler share one three-step pipeline: *route* a
//! block of rows to zoo tiers ([`RumbaSystem::route_rows`]), *approximate*
//! them with one pure batched accelerator call ([`approximate`]), and
//! *replay* the stateful decision path serially, row by row, in stream
//! order ([`RumbaSystem::replay`]).

use rumba_accel::{CheckerUnit, Npu, Placement};
use rumba_apps::Kernel;
use rumba_energy::SchemeActivity;
use rumba_faults::{FaultKind, FaultPlan, FaultStats};
use rumba_nn::{Matrix, MatrixView, NnDataset, NnError, Scratch};
use rumba_obs::words::{push_block, WordReader};

use crate::openworld::{Reservoir, ReservoirRow};
use crate::pipeline::{simulate, PipelineRun};
use crate::tuner::{calibrate_threshold, Tuner, WindowStats};
use crate::zoo::ModelZoo;
use crate::{Result, RumbaError};

/// How a fired check is repaired.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FixPolicy {
    /// Every fired check re-executes the invocation exactly on the CPU
    /// (the paper's recovery path, and the default).
    #[default]
    Reexecute,
    /// Predict-and-compensate: a fired check whose predicted error is at
    /// most `band` is repaired in place by subtracting the checker's
    /// *signed* error estimate from the approximate output — no recovery-
    /// queue slot, no CPU re-execution. Predictions above the band still
    /// re-execute. The band co-adapts with the firing threshold (the
    /// tuner's second knob) and is clamped to stay at or above it.
    Compensate {
        /// Upper edge of the compensable |error| band.
        band: f64,
    },
}

/// Configuration of the online system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Iterations per tuning window (one "accelerator invocation" in the
    /// paper's sense — e.g. one image's worth of pixels).
    pub window: usize,
    /// Recovery-queue capacity in iterations.
    pub recovery_queue_capacity: usize,
    /// Detector placement (§3.5). Output-based checkers always behave as
    /// serialized-after-accelerator regardless of this setting.
    pub placement: Placement,
    /// Quality watchdog for graceful degradation under sustained drift;
    /// `None` (the default) disables the watchdog entirely, keeping the
    /// fault-off control loop byte-identical to builds without it.
    pub watchdog: Option<WatchdogConfig>,
    /// Recovery mix for fired checks. [`FixPolicy::Reexecute`] (the
    /// default) keeps the control loop byte-identical to builds without
    /// the compensation path.
    pub fix_policy: FixPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            window: 256,
            recovery_queue_capacity: 64,
            placement: Placement::Parallel,
            watchdog: None,
            fix_policy: FixPolicy::Reexecute,
        }
    }
}

/// Thresholds of the degradation watchdog. A window is *dirty* when its
/// online quality estimate exceeds `quality_limit` or at least a quarter
/// of its invocations were quarantined for non-finite accelerator output.
/// `patience` consecutive dirty windows trigger a recalibration (checker
/// state cleared, threshold snapped back to its calibrated starting
/// point); if the streak continues to `fallback_patience` the accelerator
/// is abandoned and every remaining invocation runs on the CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Mean-unfixed-prediction level above which a window counts as dirty.
    pub quality_limit: f64,
    /// Consecutive dirty windows before recalibration.
    pub patience: u32,
    /// Consecutive dirty windows before full-CPU fallback.
    pub fallback_patience: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { quality_limit: 0.2, patience: 3, fallback_patience: 6 }
    }
}

/// Configuration of the online checker re-fit armed by
/// [`RumbaSystem::arm_refit`] — the machinery that makes the watchdog's
/// `Recalibrated` rung *adapt* instead of merely resetting.
///
/// When armed, the runtime audits every `audit_period`-th invocation by
/// also computing the exact result (measurement only — the merged output
/// is untouched), folds the measured merged-stream error into the
/// watchdog's dirty signal, and accumulates the audited and re-executed
/// `(input, exact, approx)` triples in a bounded deterministic
/// [`Reservoir`]. At the `Recalibrated` rung the checker — and its signed
/// companion — is re-fitted on the reservoir's clean rows and the firing
/// threshold re-calibrated on the refreshed fit, so a checker trained
/// before an input-distribution shift re-learns the drifted regime
/// online. Rows captured while a `checker_blind` or `non_finite` fault
/// was active are held with a poisoned provenance tag and never trained
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitConfig {
    /// Reservoir capacity in rows.
    pub capacity: usize,
    /// Clean (non-poisoned) rows required before a refit replaces the
    /// reset-only recalibration.
    pub min_rows: usize,
    /// Every `audit_period`-th invocation is audited: the exact result is
    /// computed alongside the approximate one to measure true merged
    /// quality and feed the reservoir.
    pub audit_period: usize,
    /// Target error the refreshed threshold is calibrated for (the
    /// session's error budget, `1 − TOQ`).
    pub quality_budget: f64,
}

impl Default for RefitConfig {
    fn default() -> Self {
        Self { capacity: 256, min_rows: 32, audit_period: 16, quality_budget: 0.1 }
    }
}

/// Streaming state of the armed online re-fit.
#[derive(Debug)]
struct RefitState {
    cfg: RefitConfig,
    reservoir: Reservoir,
    // Committed refits since `begin_stream` (stamps telemetry and the
    // session snapshot, so a restored stream resumes the same epoch).
    epoch: u64,
    // Measured merged-stream error over this window's audited rows — the
    // ground-truth dirty signal a stale (under-predicting) checker cannot
    // fake, unlike the prediction mass the base watchdog watches.
    window_audit_sum: f64,
    window_audit_count: usize,
}

/// Where the degradation ladder currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeStage {
    /// Accelerator in use, no intervention.
    Normal,
    /// Checker state and threshold were reset after sustained drift.
    Recalibrated,
    /// Accelerator abandoned; every invocation runs exactly on the CPU.
    CpuFallback,
}

/// Everything one online run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Final merged outputs (approximate, with fixed iterations replaced by
    /// exact re-computations), flat row-major.
    pub merged_outputs: Vec<f64>,
    /// Which iterations fired (and, budget permitting, were re-executed).
    pub fired: Vec<bool>,
    /// Number of iterations actually re-executed.
    pub fixes: usize,
    /// Number of iterations repaired in place by subtracting the signed
    /// error estimate (always 0 under [`FixPolicy::Reexecute`]).
    pub compensated: usize,
    /// Measured output error of the merged stream against the exact
    /// targets.
    pub output_error: f64,
    /// Measured error of every merged invocation (telemetry for quality-
    /// tracking plots; its mean is `output_error`).
    pub invocation_errors: Vec<f64>,
    /// Activity summary for the energy model.
    pub activity: SchemeActivity,
    /// Timing of the kernel phase under the Figure-8 overlap.
    pub pipeline: PipelineRun,
    /// Threshold after each window (tuner telemetry).
    pub threshold_history: Vec<f64>,
    /// Invocations quarantined for non-finite accelerator output.
    pub quarantined: usize,
    /// Fault-injection/degradation accounting (all zeros when no
    /// [`FaultPlan`] is attached and the watchdog never acted).
    pub fault_stats: FaultStats,
    /// Degradation stage at end of run.
    pub degrade_stage: DegradeStage,
}

/// What [`RumbaSystem::replay`] did for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamOutcome {
    /// Whether the check fired and the iteration was re-executed exactly.
    pub fired: bool,
    /// Whether the iteration was repaired in place with the signed
    /// estimate instead of re-executing (mutually exclusive with `fired`).
    pub compensated: bool,
    /// Whether the zoo routed the iteration to the exact-CPU tier, so it
    /// was computed exactly without a check (mutually exclusive with
    /// `fired` and `compensated`).
    pub cpu_routed: bool,
    /// The checker's predicted error for this invocation.
    pub predicted_error: f64,
}

impl RunOutcome {
    /// Mean measured output error per tuning window of length `window` —
    /// the quality trace a TOQ deployment would chart over time.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn window_errors(&self, window: usize) -> Vec<f64> {
        assert!(window > 0, "window must be nonzero");
        let n = self.invocation_errors.len();
        let mut errors = Vec::with_capacity(n.div_ceil(window));
        let mut start = 0;
        while start < n {
            // Clamp the final partial window instead of indexing past the
            // end: a 7-element stream with window 4 has windows [0,4) and
            // [4,7), never [4,8).
            let end = (start + window).min(n);
            let slice = &self.invocation_errors[start..end];
            errors.push(slice.iter().sum::<f64>() / slice.len() as f64);
            start = end;
        }
        errors
    }
}

/// The online system: drives one kernel's invocation stream through
/// detection, recovery, merging, and tuning.
#[derive(Debug)]
pub struct RumbaSystem {
    npu: Npu,
    checker: CheckerUnit,
    tuner: Tuner,
    config: RuntimeConfig,
    // The runtime's view of the fault plan (mirrors the NPU's copy) for
    // checker blinding, queue pressure, and fault-event attribution.
    fault_plan: Option<FaultPlan>,
    // Calibrated starting threshold, the recalibration target.
    initial_threshold: f64,
    // Streaming window state (reset by `begin_stream`).
    window_fired: usize,
    window_suppressed: usize,
    window_pred_sum: f64,
    window_len: usize,
    window_queue_depth: u64,
    window_quarantined: usize,
    window_compensated: usize,
    windows_flushed: u64,
    stream_fixes: usize,
    stream_compensations: usize,
    stream_invocations: usize,
    // Degradation-ladder state.
    stage: DegradeStage,
    dirty_windows: u32,
    fault_stats: FaultStats,
    // Reusable scratch for replaying the plan's per-invocation strikes.
    fault_log: Vec<rumba_faults::InjectedFault>,
    // Serving-session label stamped on every emitted telemetry event;
    // empty (the default) keeps single-tenant streams on the pre-serving
    // wire format exactly.
    session_label: String,
    // Model-zoo routing state (None = the pre-zoo single-model path,
    // byte-identical to builds without the zoo compiled in).
    zoo_state: Option<ZooState>,
    // Online-refit state (None = the reset-only recalibration path,
    // byte-identical to builds without the refit machinery compiled in).
    refit_state: Option<RefitState>,
    // Reusable one-row accelerator workspace for `process`.
    scratch: Scratch,
    approx: Matrix,
}

/// Cap on the queue-pressure exponent: each degradation step doubles the
/// routing bar, and five doublings already push any sane budget past the
/// widest tier.
pub const MAX_ZOO_PRESSURE: u32 = 5;

/// Streaming state of the attached model zoo.
#[derive(Debug)]
struct ZooState {
    zoo: ModelZoo,
    // The session's error budget (1 - TOQ); the routing bar is this times
    // the tuner's tier scale, widened by queue-pressure degradation.
    quality_budget: f64,
    // Serving-layer degradation rung: each step doubles the routing bar so
    // traffic slides to cheaper tiers before any request is shed.
    pressure: u32,
    // Widest bar queue-pressure degradation may reach (infinite until the
    // serving layer installs its calibrated ceiling); the rung widening
    // saturates here so degraded routing stays inside what the
    // checker/recovery loop can vouch for.
    pressure_ceiling: f64,
    // Per-tier invocation counts, `zoo.len() + 1` long (last = exact CPU).
    window_tiers: Vec<u64>,
    stream_tiers: Vec<u64>,
    // Accelerator cycles actually spent across routed model-tier rows —
    // what the energy model uses instead of `invocations × top cycles`.
    tier_cycles_total: f64,
}

impl RumbaSystem {
    /// Assembles a system.
    ///
    /// # Errors
    ///
    /// Returns [`RumbaError::InvalidConfig`] for a zero window or queue
    /// capacity.
    pub fn new(
        npu: Npu,
        checker: CheckerUnit,
        tuner: Tuner,
        config: RuntimeConfig,
    ) -> Result<Self> {
        if config.window == 0 {
            return Err(RumbaError::InvalidConfig { name: "window", value: "0".into() });
        }
        if config.recovery_queue_capacity == 0 {
            return Err(RumbaError::InvalidConfig {
                name: "recovery_queue_capacity",
                value: "0".into(),
            });
        }
        // The compensation band lives in the tuner (it co-adapts with the
        // threshold); a degenerate band is rejected here, at assembly.
        let tuner = match config.fix_policy {
            FixPolicy::Reexecute => tuner,
            FixPolicy::Compensate { band } => tuner.with_compensation_band(band)?,
        };
        let initial_threshold = tuner.threshold();
        let fault_plan = npu.fault_plan().cloned();
        Ok(Self {
            npu,
            checker,
            tuner,
            config,
            fault_plan,
            initial_threshold,
            window_fired: 0,
            window_suppressed: 0,
            window_pred_sum: 0.0,
            window_len: 0,
            window_queue_depth: 0,
            window_quarantined: 0,
            window_compensated: 0,
            windows_flushed: 0,
            stream_fixes: 0,
            stream_compensations: 0,
            stream_invocations: 0,
            stage: DegradeStage::Normal,
            dirty_windows: 0,
            fault_stats: FaultStats::default(),
            fault_log: Vec::new(),
            session_label: String::new(),
            zoo_state: None,
            refit_state: None,
            scratch: Scratch::new(),
            approx: Matrix::default(),
        })
    }

    /// Arms the online checker re-fit (see [`RefitConfig`]). Opt-in: an
    /// unarmed system keeps the reset-only `Recalibrated` rung and its
    /// exported state layout byte-identical to pre-refit builds.
    ///
    /// # Errors
    ///
    /// Returns [`RumbaError::InvalidConfig`] for a zero capacity or audit
    /// period, fewer than two minimum rows (a one-row fit is degenerate),
    /// a minimum exceeding the capacity, or a non-finite/non-positive
    /// quality budget.
    pub fn arm_refit(&mut self, cfg: RefitConfig) -> Result<()> {
        if cfg.capacity == 0 {
            return Err(RumbaError::InvalidConfig { name: "refit capacity", value: "0".into() });
        }
        if cfg.min_rows < 2 || cfg.min_rows > cfg.capacity {
            return Err(RumbaError::InvalidConfig {
                name: "refit min_rows",
                value: cfg.min_rows.to_string(),
            });
        }
        if cfg.audit_period == 0 {
            return Err(RumbaError::InvalidConfig {
                name: "refit audit_period",
                value: "0".into(),
            });
        }
        if !(cfg.quality_budget > 0.0 && cfg.quality_budget.is_finite()) {
            return Err(RumbaError::InvalidConfig {
                name: "refit quality_budget",
                value: cfg.quality_budget.to_string(),
            });
        }
        self.refit_state = Some(RefitState {
            reservoir: Reservoir::new(cfg.capacity),
            cfg,
            epoch: 0,
            window_audit_sum: 0.0,
            window_audit_count: 0,
        });
        Ok(())
    }

    /// Whether the online re-fit is armed.
    #[must_use]
    pub fn refit_armed(&self) -> bool {
        self.refit_state.is_some()
    }

    /// Committed refits since [`RumbaSystem::begin_stream`] (0 when the
    /// refit is unarmed or has not fired).
    #[must_use]
    pub fn refit_epoch(&self) -> u64 {
        self.refit_state.as_ref().map_or(0, |rs| rs.epoch)
    }

    /// The refit reservoir, when armed (tests and telemetry).
    #[must_use]
    pub fn refit_reservoir(&self) -> Option<&Reservoir> {
        self.refit_state.as_ref().map(|rs| &rs.reservoir)
    }

    /// Arms per-invocation model-zoo routing: every invocation is
    /// dispatched to the cheapest tier whose predicted error meets the
    /// routing bar (`quality_budget × tier scale`, doubled per
    /// queue-pressure rung), with exact CPU as the final tier. Also arms
    /// the tuner's tier knob at scale 1.0, so the bar co-adapts with the
    /// threshold between windows. The checker/recovery loop still guards
    /// every model-tier row, so the TOQ contract is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`RumbaError::InvalidConfig`] for a non-finite or
    /// nonpositive quality budget, or a zoo whose top tier does not match
    /// this system's accelerator dimensions.
    pub fn attach_zoo(&mut self, zoo: ModelZoo, quality_budget: f64) -> Result<()> {
        if !(quality_budget > 0.0 && quality_budget.is_finite()) {
            return Err(RumbaError::InvalidConfig {
                name: "zoo quality_budget",
                value: quality_budget.to_string(),
            });
        }
        let top = &zoo.tier(zoo.len() - 1).npu;
        if top.input_dim() != self.npu.input_dim() || top.output_dim() != self.npu.output_dim() {
            return Err(RumbaError::InvalidConfig {
                name: "zoo dimensions",
                value: format!("{}x{}", top.input_dim(), top.output_dim()),
            });
        }
        self.tuner.set_tier_scale_raw(Some(1.0));
        let counts = zoo.len() + 1;
        self.zoo_state = Some(ZooState {
            zoo,
            quality_budget,
            pressure: 0,
            pressure_ceiling: f64::INFINITY,
            window_tiers: vec![0; counts],
            stream_tiers: vec![0; counts],
            tier_cycles_total: 0.0,
        });
        Ok(())
    }

    /// The attached model zoo, if routing is armed.
    #[must_use]
    pub fn zoo(&self) -> Option<&ModelZoo> {
        self.zoo_state.as_ref().map(|z| &z.zoo)
    }

    /// The current queue-pressure degradation rung (0 = no degradation).
    #[must_use]
    pub fn zoo_pressure(&self) -> u32 {
        self.zoo_state.as_ref().map_or(0, |z| z.pressure)
    }

    /// Sets the degradation rung (clamped to [`MAX_ZOO_PRESSURE`]). The
    /// serving layer raises it under queue pressure — each rung doubles
    /// the routing bar so traffic slides toward cheaper tiers before any
    /// request is shed — and lowers it as the queue drains. No-op without
    /// an attached zoo.
    pub fn set_zoo_pressure(&mut self, pressure: u32) {
        if let Some(zs) = self.zoo_state.as_mut() {
            zs.pressure = pressure.min(MAX_ZOO_PRESSURE);
        }
    }

    /// Caps how far queue-pressure degradation may widen the routing bar.
    /// The rung widening saturates at `ceiling` (never below the base
    /// budget — a ceiling under the base bar would invert the routing
    /// semantics), so degraded traffic stays inside the widest bar the
    /// caller's calibration can still vouch for. Non-finite or
    /// non-positive ceilings are ignored; no-op without an attached zoo.
    pub fn set_zoo_pressure_ceiling(&mut self, ceiling: f64) {
        if let Some(zs) = self.zoo_state.as_mut() {
            if ceiling.is_finite() && ceiling > 0.0 {
                zs.pressure_ceiling = ceiling.max(zs.quality_budget);
            }
        }
    }

    /// Per-tier invocation counts since [`RumbaSystem::begin_stream`]
    /// (`zoo.len() + 1` entries, last = exact CPU); empty without a zoo.
    #[must_use]
    pub fn stream_tiers(&self) -> &[u64] {
        self.zoo_state.as_ref().map_or(&[], |z| &z.stream_tiers)
    }

    /// The current routing bar — the predicted-error cut a tier must meet
    /// to take an invocation — or `None` when no zoo is attached. Pure in
    /// the tuner/pressure state: it only moves at window flushes and
    /// explicit pressure changes, never mid-window.
    #[must_use]
    pub fn routing_bar(&self) -> Option<f64> {
        let zs = self.zoo_state.as_ref()?;
        let scale = self.tuner.tier_scale().unwrap_or(1.0);
        let widened = zs.quality_budget * f64::from(1u32 << zs.pressure.min(MAX_ZOO_PRESSURE));
        Some(widened.min(zs.pressure_ceiling) * scale)
    }

    /// Labels every telemetry event this system emits with a serving
    /// session name (the multi-tenant attribution the serving layer needs
    /// to keep per-tenant event streams separable). An empty label — the
    /// default — leaves the wire format byte-identical to the
    /// single-tenant schema.
    pub fn set_session_label(&mut self, label: impl Into<String>) {
        self.session_label = label.into();
    }

    /// The serving-session label (empty outside the serving layer).
    #[must_use]
    pub fn session_label(&self) -> &str {
        &self.session_label
    }

    /// The accelerator this system drives — the serving scheduler invokes
    /// it directly for mid-stream drain batches.
    #[must_use]
    pub fn npu(&self) -> &Npu {
        &self.npu
    }

    /// Attaches or detaches a fault-injection plan, arming both the
    /// accelerator's datapath hooks and the runtime's detection
    /// attribution. Passing `None` (or an empty plan) restores the
    /// fault-off path exactly.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        let plan = plan.filter(|p| !p.is_empty());
        self.npu.set_fault_plan(plan.clone());
        self.fault_plan = plan;
    }

    /// Cumulative fault/degradation accounting since
    /// [`RumbaSystem::begin_stream`].
    #[must_use]
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Where the degradation ladder currently stands.
    #[must_use]
    pub fn degrade_stage(&self) -> DegradeStage {
        self.stage
    }

    /// The tuner (for inspecting threshold history after a run).
    #[must_use]
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// Serializes the system's *streaming* state — tuner threshold,
    /// calibration anchor, window counters, degradation-ladder position,
    /// fault accounting, the checker's online words, and the zoo and refit
    /// state when armed — as plain `u64` words, read back field by field
    /// by [`RumbaSystem::import_state`]. Together with the
    /// construction-time configuration (which the serving layer's snapshot
    /// records separately) this is everything needed to resume a stream
    /// bit-for-bit on a freshly built system.
    #[must_use]
    pub fn export_state(&self) -> Vec<u64> {
        let stage = match self.stage {
            DegradeStage::Normal => 0,
            DegradeStage::Recalibrated => 1,
            DegradeStage::CpuFallback => 2,
        };
        let f = &self.fault_stats;
        let mut words = vec![
            self.tuner.threshold().to_bits(),
            self.initial_threshold.to_bits(),
            self.window_fired as u64,
            self.window_suppressed as u64,
            self.window_pred_sum.to_bits(),
            self.window_len as u64,
            self.window_queue_depth,
            self.window_quarantined as u64,
            self.window_compensated as u64,
            self.windows_flushed,
            self.stream_fixes as u64,
            self.stream_compensations as u64,
            self.stream_invocations as u64,
            stage,
            u64::from(self.dirty_windows),
            f.injected_outputs,
            f.drifted_inputs,
            f.checker_blinded,
            f.quarantined,
            f.detected,
            f.escaped,
            f.recalibrations,
            f.fallbacks,
        ];
        match self.tuner.compensation_band() {
            Some(band) => words.extend([1, band.to_bits()]),
            None => words.push(0),
        }
        push_block(&mut words, &self.checker.export_state());
        if let Some(zs) = &self.zoo_state {
            words.push(self.tuner.tier_scale().unwrap_or(1.0).to_bits());
            words.push(u64::from(zs.pressure));
            words.extend_from_slice(&zs.window_tiers);
            words.extend_from_slice(&zs.stream_tiers);
            words.push(zs.tier_cycles_total.to_bits());
        }
        // The checker's trained model travels with the refit state: after
        // the first online refit the model is no longer reproducible from
        // the offline pipeline, so a restore must transplant the
        // coefficients, not retrain them.
        if let Some(rs) = &self.refit_state {
            words.extend([rs.epoch, rs.window_audit_sum.to_bits(), rs.window_audit_count as u64]);
            push_block(&mut words, &self.checker.export_model().unwrap_or_default());
            rs.reservoir.to_words(&mut words);
        }
        words
    }

    /// Restores streaming state exported by [`RumbaSystem::export_state`]
    /// onto an identically configured system (same kernel, checker kind,
    /// tuning mode, window, queue configuration, zoo and refit arming).
    /// The zoo and refit words are read exactly when this system arms
    /// them. The tuner is rebuilt at the exported threshold, so the next
    /// `replay` behaves exactly as it would have on the exporting system.
    /// Out-of-range values are rejected, never clamped, so an accepted
    /// state re-exports to the same words.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed word when the state
    /// does not decode for this system's configuration; the system must
    /// then be rebuilt before reuse.
    pub fn import_state(&mut self, words: &[u64]) -> std::result::Result<(), String> {
        let mut r = WordReader::new(words);
        let any = usize::MAX;
        let window = self.config.window;
        let threshold = r.f64("runtime.threshold")?;
        let mut tuner = Tuner::new(self.tuner.mode(), threshold)
            .map_err(|e| format!("runtime.threshold: {e}"))?;
        self.initial_threshold = r.f64("runtime.initial_threshold")?;
        self.window_fired = r.count("runtime.window_fired", window)?;
        self.window_suppressed = r.count("runtime.window_suppressed", window)?;
        self.window_pred_sum = r.f64("runtime.window_pred_sum")?;
        self.window_len = r.count("runtime.window_len", window)?;
        self.window_queue_depth = r.u64("runtime.window_queue_depth")?;
        self.window_quarantined = r.count("runtime.window_quarantined", window)?;
        self.window_compensated = r.count("runtime.window_compensated", window)?;
        self.windows_flushed = r.u64("runtime.windows_flushed")?;
        self.stream_fixes = r.count("runtime.stream_fixes", any)?;
        self.stream_compensations = r.count("runtime.stream_compensations", any)?;
        self.stream_invocations = r.count("runtime.stream_invocations", any)?;
        self.stage = match r.count("runtime.stage", 2)? {
            0 => DegradeStage::Normal,
            1 => DegradeStage::Recalibrated,
            _ => DegradeStage::CpuFallback,
        };
        self.dirty_windows = r.count("runtime.dirty_windows", u32::MAX as usize)? as u32;
        self.fault_stats = FaultStats {
            injected_outputs: r.u64("runtime.faults.injected_outputs")?,
            drifted_inputs: r.u64("runtime.faults.drifted_inputs")?,
            checker_blinded: r.u64("runtime.faults.checker_blinded")?,
            quarantined: r.u64("runtime.faults.quarantined")?,
            detected: r.u64("runtime.faults.detected")?,
            escaped: r.u64("runtime.faults.escaped")?,
            recalibrations: r.u64("runtime.faults.recalibrations")?,
            fallbacks: r.u64("runtime.faults.fallbacks")?,
        };
        // Restored verbatim, not re-validated/re-clamped: the exporting
        // tuner already evolved this band, and re-clamping would change it.
        let band = r.flag("runtime.band_armed")?.then(|| r.f64("runtime.band")).transpose()?;
        tuner.set_compensation_band_raw(band);
        let checker = r.block("runtime.checker")?;
        if let Some(zs) = self.zoo_state.as_mut() {
            let scale = r.f64("runtime.zoo.tier_scale")?;
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(format!("runtime.zoo.tier_scale: {scale} is not a positive scale"));
            }
            tuner.set_tier_scale_raw(Some(scale));
            zs.pressure = r.count("runtime.zoo.pressure", MAX_ZOO_PRESSURE as usize)? as u32;
            let counts = zs.window_tiers.len();
            zs.window_tiers = r.words("runtime.zoo.window_tiers", counts)?.to_vec();
            zs.stream_tiers = r.words("runtime.zoo.stream_tiers", counts)?.to_vec();
            zs.tier_cycles_total = r.f64("runtime.zoo.tier_cycles")?;
            if !(zs.tier_cycles_total >= 0.0 && zs.tier_cycles_total.is_finite()) {
                return Err(format!("runtime.zoo.tier_cycles: {} rejected", zs.tier_cycles_total));
            }
        }
        self.tuner = tuner;
        if let Some(rs) = self.refit_state.as_mut() {
            rs.epoch = r.u64("runtime.refit.epoch")?;
            rs.window_audit_sum = r.f64("runtime.refit.audit_sum")?;
            if !rs.window_audit_sum.is_finite() {
                return Err(format!("runtime.refit.audit_sum: {} rejected", rs.window_audit_sum));
            }
            rs.window_audit_count = r.count("runtime.refit.audit_count", any)?;
            // The trained model must land before the checker's online
            // words: a refitted tree/signed pair changes the state-config
            // fingerprint, and the checker's import verifies it.
            let model = r.block("runtime.refit.model")?;
            if !model.is_empty() {
                self.checker
                    .import_model(model, self.npu.input_dim())
                    .map_err(|e| format!("runtime.refit.model: {e}"))?;
            }
            let (input_dim, output_dim) = (self.npu.input_dim(), self.npu.output_dim());
            rs.reservoir = Reservoir::read(rs.cfg.capacity, input_dim, output_dim, &mut r)?;
        }
        self.checker.import_state(checker).map_err(|e| format!("runtime.checker: {e}"))?;
        r.finish("runtime")
    }

    /// Resets streaming state for a fresh invocation stream (clears the
    /// checker's online history and the tuning-window counters).
    pub fn begin_stream(&mut self) {
        self.checker.reset();
        self.window_fired = 0;
        self.window_suppressed = 0;
        self.window_pred_sum = 0.0;
        self.window_len = 0;
        self.window_queue_depth = 0;
        self.window_quarantined = 0;
        self.window_compensated = 0;
        self.windows_flushed = 0;
        self.stream_fixes = 0;
        self.stream_compensations = 0;
        self.stream_invocations = 0;
        self.stage = DegradeStage::Normal;
        self.dirty_windows = 0;
        self.fault_stats = FaultStats::default();
        if let Some(zs) = self.zoo_state.as_mut() {
            zs.window_tiers.fill(0);
            zs.stream_tiers.fill(0);
            zs.tier_cycles_total = 0.0;
        }
        if let Some(rs) = self.refit_state.as_mut() {
            rs.reservoir.clear();
            rs.epoch = 0;
            rs.window_audit_sum = 0.0;
            rs.window_audit_count = 0;
        }
    }

    /// The pipeline's *route* step: the zoo tier of every row of
    /// `inputs` at the current [`RumbaSystem::routing_bar`], or `None`
    /// when no zoo is attached (the single model is a one-tier ladder
    /// whose router is skipped). The bar moves only at window flushes and
    /// explicit pressure changes, so a block that does not straddle a
    /// flush routes exactly as its rows would one at a time.
    #[must_use]
    pub fn route_rows(&self, inputs: MatrixView<'_>) -> Option<Vec<usize>> {
        let bar = self.routing_bar()?;
        let zoo = &self.zoo_state.as_ref()?.zoo;
        Some((0..inputs.rows()).map(|r| zoo.route(inputs.row(r), bar)).collect())
    }

    /// Processes one invocation in streaming mode: routes it, runs the
    /// accelerator, and replays the checked decision path
    /// ([`RumbaSystem::replay`]) — the same three steps
    /// [`RumbaSystem::run`] takes over a whole block — writing the merged
    /// result into `output`.
    ///
    /// Call [`RumbaSystem::begin_stream`] before the first invocation of a
    /// stream. Use this interface to slot the managed accelerator into a
    /// whole application (see `rumba_apps::pipelines`).
    ///
    /// # Errors
    ///
    /// Propagates accelerator dimension errors.
    ///
    /// # Panics
    ///
    /// Panics if `output` is narrower than the kernel's output width.
    pub fn process(
        &mut self,
        kernel: &dyn Kernel,
        input: &[f64],
        output: &mut [f64],
    ) -> Result<StreamOutcome> {
        let inputs = MatrixView::new(input, 1, input.len());
        let routes = self.route_rows(inputs);
        // The stream index keys the fault decisions, so a streaming run is
        // corrupted bit-identically to a batched `run` over the same rows.
        approximate(
            &self.npu,
            self.zoo_state.as_ref().map(|zs| &zs.zoo),
            self.stream_invocations,
            inputs,
            routes.as_deref(),
            &mut self.scratch,
            &mut self.approx,
        )?;
        let approx = std::mem::take(&mut self.approx);
        let outcome = self.replay(kernel, input, routes.map(|r| r[0]), approx.row(0), output);
        self.approx = approx;
        Ok(outcome)
    }

    /// The pipeline's *replay* step for one row: the stateful decision
    /// path — tier accounting, non-finite screen, checker, threshold,
    /// recovery or compensation, merge — writing the merged result into
    /// `output` and advancing the tuning window. `tier` is the row's
    /// [`RumbaSystem::route_rows`] decision (`None` without a zoo) and
    /// `approx_output` its [`approximate`] output. [`RumbaSystem::run`],
    /// [`RumbaSystem::process`] and the serving scheduler all replay
    /// through here, serially and in stream order, which keeps batch,
    /// streaming and multiplexed serving bit-identical.
    ///
    /// A row routed to the exact-CPU tier is computed exactly and its
    /// `approx_output` ignored. Scheduled exact execution is not recovery:
    /// no checker runs, the row consumes no re-execution budget, adds
    /// nothing to the tuner's unfixed-prediction mass, and is neither
    /// audited for the refit nor attributed to a fault.
    ///
    /// `approx_output` must be the accelerator's output for stream
    /// position [`RumbaSystem::stream_invocations`] (i.e. rows are
    /// replayed in arrival order with no gaps), or fault attribution and
    /// the determinism contract break.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is given without an attached zoo or is out of
    /// range, or if `output` is narrower than the kernel's output width.
    pub fn replay(
        &mut self,
        kernel: &dyn Kernel,
        input: &[f64],
        tier: Option<usize>,
        approx_output: &[f64],
        output: &mut [f64],
    ) -> StreamOutcome {
        let mut cpu_routed = false;
        if let Some(tier) = tier {
            let zs = self.zoo_state.as_mut().expect("a routed row requires an attached zoo");
            zs.window_tiers[tier] += 1;
            zs.stream_tiers[tier] += 1;
            if tier < zs.zoo.len() {
                zs.tier_cycles_total += zs.zoo.tier_cycles(tier) as f64;
            } else {
                cpu_routed = true;
            }
        }
        let outcome = if cpu_routed {
            kernel.compute(input, output);
            StreamOutcome { cpu_routed, ..StreamOutcome::default() }
        } else {
            self.check_row(kernel, input, approx_output, output)
        };
        self.window_len += 1;
        self.stream_invocations += 1;
        if self.window_len == self.config.window {
            self.flush_window(kernel);
        }
        outcome
    }

    /// The checked half of [`RumbaSystem::replay`] for a row the
    /// accelerator produced: non-finite screen, checker, threshold,
    /// recovery or compensation, merge, refit capture and fault
    /// attribution.
    fn check_row(
        &mut self,
        kernel: &dyn Kernel,
        input: &[f64],
        approx_output: &[f64],
        output: &mut [f64],
    ) -> StreamOutcome {
        let invocation = self.stream_invocations;

        // Non-finite screen, *before* the checker runs: a NaN/Inf row must
        // never reach the checker state, the tuner mean, or the merged
        // stream. Quarantine forces an exact CPU re-execution outside the
        // re-execution budget (correctness is not negotiable on overflow).
        let quarantined = !approx_output.iter().all(|v| v.is_finite());
        // Past the fallback rung of the ladder, the accelerator is
        // abandoned entirely.
        let cpu_forced = quarantined || self.stage == DegradeStage::CpuFallback;

        let (fired, compensated, predicted) = if cpu_forced {
            kernel.compute(input, output);
            self.stream_fixes += 1;
            if quarantined {
                self.window_quarantined += 1;
                self.fault_stats.quarantined += 1;
            }
            (true, false, f64::INFINITY)
        } else {
            let mut predicted = self.checker.predict(input, approx_output);
            let blinded =
                self.fault_plan.as_ref().is_some_and(|plan| plan.blind_checker(invocation));
            if blinded {
                self.fault_stats.checker_blinded += 1;
                predicted = 0.0;
            }
            let cap = self.tuner.reexec_cap(self.cpu_capacity_per_window(kernel).0);
            let budget_left = cap.is_none_or(|c| self.window_fired < c);
            let wants_fire = predicted > self.tuner.threshold();
            // Predict-and-compensate split: a fired check inside the band
            // (threshold < predicted <= band) is repaired in place; only
            // the worst offenders above the band still re-execute. The
            // decision is a pure function of (predicted, tuner state), so
            // it replays bit-identically at any threads × shards × SIMD.
            let compensable =
                wants_fire && self.tuner.compensation_band().is_some_and(|band| predicted <= band);
            let fired = wants_fire && !compensable && budget_left;
            if fired {
                kernel.compute(input, output);
                self.window_fired += 1;
                self.stream_fixes += 1;
            } else if compensable {
                // Same quarantine discipline as forced-exact rows: the
                // repaired row contributes nothing to `window_pred_sum`
                // (its residual is not the prediction), consumes no
                // re-execution budget, and takes no recovery-queue slot.
                // The paired `predict` call above already advanced any
                // online checker state; `predict_signed` is pure.
                let signed = self.checker.predict_signed(input, approx_output, predicted);
                let signed = if signed.is_finite() { signed } else { 0.0 };
                for (out, &approx) in output[..approx_output.len()].iter_mut().zip(approx_output) {
                    *out = approx - signed;
                }
                self.window_compensated += 1;
                self.stream_compensations += 1;
            } else {
                if wants_fire {
                    // Check fired but the re-execution budget for this window
                    // is spent (§3.4's hard cap) — telemetry only.
                    self.window_suppressed += 1;
                }
                output[..approx_output.len()].copy_from_slice(approx_output);
                self.window_pred_sum += predicted;
            }
            (fired, compensable, predicted)
        };

        self.capture_refit_row(
            kernel,
            invocation,
            input,
            approx_output,
            output,
            quarantined,
            fired,
        );
        self.note_faults(invocation, approx_output.len(), quarantined, fired);
        if fired {
            // The CPU takes each recovery bit as soon as it is queued, so
            // the queue holds that one bit plus whatever slots a
            // queue-pressure fault occupies (the queue's timing is the
            // pipeline simulation's business). Recorded before the row
            // can close its window, so the depth lands in the right one.
            let pressure =
                self.fault_plan.as_ref().map_or(0, |plan| plan.queue_pressure(invocation));
            self.window_queue_depth = self.window_queue_depth.max(1 + pressure as u64);
        }
        StreamOutcome { fired, compensated, cpu_routed: false, predicted_error: predicted }
    }

    /// The armed refit's ground-truth capture for one processed row:
    /// audited rows (every `audit_period`-th invocation) and rows whose
    /// exact result was paid for anyway (quarantined or fired) are offered
    /// to the reservoir, and audited rows fold their measured
    /// merged-stream error into the watchdog's dirty signal. Pure in the
    /// stream position, so capture replays bit-identically at any
    /// threads × SIMD × shards — and a no-op (not even a branch into the
    /// kernel) when the refit is unarmed or the ladder has abandoned the
    /// accelerator.
    #[allow(clippy::too_many_arguments)]
    fn capture_refit_row(
        &mut self,
        kernel: &dyn Kernel,
        invocation: usize,
        input: &[f64],
        approx_output: &[f64],
        merged: &[f64],
        quarantined: bool,
        fired: bool,
    ) {
        if self.refit_state.is_none() || self.stage == DegradeStage::CpuFallback {
            return;
        }
        let audit =
            invocation.is_multiple_of(self.refit_state.as_ref().expect("checked").cfg.audit_period);
        // Quarantined and fired rows already computed the exact result
        // into the merged output; only an audited soft row pays for one.
        let exact_known = quarantined || fired;
        if !audit && !exact_known {
            return;
        }
        let out_w = approx_output.len();
        let exact: Vec<f64> = if exact_known {
            merged[..out_w].to_vec()
        } else {
            let mut exact = vec![0.0; out_w];
            kernel.compute(input, &mut exact);
            exact
        };
        // Provenance: a row produced while the checker was blinded or the
        // datapath emitted non-finite values must never train the refit.
        let poisoned = quarantined
            || self.fault_plan.as_ref().is_some_and(|plan| plan.blind_checker(invocation));
        let rs = self.refit_state.as_mut().expect("checked");
        if audit {
            // The audit measures the *merged* stream (what the tenant
            // receives): rows fixed exactly contribute zero, unfixed and
            // compensated rows their true residual error.
            let merged_err = if exact_known {
                0.0
            } else {
                kernel.metric().invocation_error(&exact, &merged[..out_w])
            };
            rs.window_audit_sum += merged_err;
            rs.window_audit_count += 1;
        }
        rs.reservoir.offer(ReservoirRow {
            input: input.to_vec(),
            exact,
            approx: approx_output.to_vec(),
            poisoned,
        });
    }

    /// Replays the plan's decisions for one invocation to attribute every
    /// injected fault to a detection outcome and emit `fault` telemetry.
    /// Runs only on the serial decision path, so event order is
    /// deterministic.
    fn note_faults(&mut self, invocation: usize, out_dim: usize, quarantined: bool, fired: bool) {
        let Some(plan) = self.fault_plan.take() else {
            return;
        };
        let mut log = std::mem::take(&mut self.fault_log);
        let injected = plan.output_fault_events(invocation, out_dim, &mut log);
        if plan.drift_input(invocation, &mut []) {
            self.fault_stats.drifted_inputs += 1;
        }
        if injected > 0 {
            self.fault_stats.injected_outputs += injected as u64;
            if quarantined {
                // Counted once per quarantined invocation in `process_result`.
            } else if fired {
                self.fault_stats.detected += 1;
            } else {
                self.fault_stats.escaped += 1;
            }
        }
        if rumba_obs::enabled() {
            let outcome = if quarantined {
                "quarantined"
            } else if fired {
                "detected"
            } else {
                "escaped"
            };
            let sink = rumba_obs::global_sink();
            for fault in &log {
                sink.emit(&rumba_obs::Event::Fault {
                    invocation: invocation as u64,
                    kind: fault.kind.label().to_owned(),
                    element: fault.element as u64,
                    outcome: outcome.to_owned(),
                    session: self.session_label.clone(),
                });
            }
            if !quarantined
                && self.stage != DegradeStage::CpuFallback
                && plan.blind_checker(invocation)
            {
                sink.emit(&rumba_obs::Event::Fault {
                    invocation: invocation as u64,
                    kind: FaultKind::CheckerBlind.label().to_owned(),
                    element: 0,
                    outcome: "injected".to_owned(),
                    session: self.session_label.clone(),
                });
            }
        }
        self.fault_log = log;
        self.fault_plan = Some(plan);
    }

    /// Total re-executions since [`RumbaSystem::begin_stream`].
    #[must_use]
    pub fn stream_fixes(&self) -> usize {
        self.stream_fixes
    }

    /// Total in-place compensations since [`RumbaSystem::begin_stream`].
    #[must_use]
    pub fn stream_compensations(&self) -> usize {
        self.stream_compensations
    }

    /// Total invocations since [`RumbaSystem::begin_stream`].
    #[must_use]
    pub fn stream_invocations(&self) -> usize {
        self.stream_invocations
    }

    /// Re-executions the CPU can overlap with one window of accelerator
    /// time, and whether the raw figure floored to zero. A zero capacity
    /// would permanently suppress all recovery in the capacity-driven
    /// modes with no signal, so it is clamped up to 1 (one fix per window
    /// always fits — the invocation simply waits) and the clamp is
    /// surfaced in `window_end` telemetry.
    fn cpu_capacity_per_window(&self, kernel: &dyn Kernel) -> (usize, bool) {
        let raw = ((self.config.window as f64 * self.npu.cycles_per_invocation() as f64)
            / kernel.cpu_cycles())
        .floor() as usize;
        (raw.max(1), raw == 0)
    }

    /// Tuning windows completed since [`RumbaSystem::begin_stream`].
    #[must_use]
    pub fn windows_flushed(&self) -> u64 {
        self.windows_flushed
    }

    /// Ends a streaming run: flushes the final partial tuning window (if
    /// any), exactly as [`RumbaSystem::run`] does for batch runs. Long-
    /// running streaming deployments (the serving layer's session close)
    /// call this so the tail of the stream still reaches the tuner and the
    /// `window_end` telemetry.
    pub fn end_stream(&mut self, kernel: &dyn Kernel) {
        self.flush_window(kernel);
    }

    fn flush_window(&mut self, kernel: &dyn Kernel) {
        if self.window_len == 0 {
            return;
        }
        let (cpu_capacity, capacity_clamped) = self.cpu_capacity_per_window(kernel);
        // Window quality estimate: fixed iterations are exact, so the
        // window's predicted output error is the unfixed prediction mass
        // over the whole window. Quarantined iterations were re-executed
        // exactly and never contributed to `window_pred_sum`.
        let mean_unfixed_pred = self.window_pred_sum / self.window_len as f64;
        self.tuner.observe_window(WindowStats {
            window_len: self.window_len,
            fired: self.window_fired,
            mean_unfixed_predicted_error: mean_unfixed_pred,
            cpu_capacity,
        });
        if rumba_obs::enabled() {
            // The threshold reported is the post-adjustment one, matching
            // the entries `Tuner::history` records per window.
            rumba_obs::global_sink().emit(&rumba_obs::Event::WindowEnd {
                window: self.windows_flushed,
                threshold: self.tuner.threshold(),
                fired: self.window_fired as u64,
                suppressed_by_budget: self.window_suppressed as u64,
                mean_unfixed_pred,
                cpu_capacity: cpu_capacity as u64,
                queue_depth_max: self.window_queue_depth,
                quarantined: self.window_quarantined as u64,
                capacity_clamped,
                compensated: self.window_compensated as u64,
                tiers: self.zoo_state.as_ref().map(|z| z.window_tiers.clone()).unwrap_or_default(),
                session: self.session_label.clone(),
            });
        }
        self.observe_watchdog(kernel, mean_unfixed_pred);
        self.windows_flushed += 1;
        self.window_fired = 0;
        self.window_suppressed = 0;
        self.window_pred_sum = 0.0;
        self.window_len = 0;
        self.window_queue_depth = 0;
        self.window_quarantined = 0;
        self.window_compensated = 0;
        if let Some(zs) = self.zoo_state.as_mut() {
            zs.window_tiers.fill(0);
        }
        if let Some(rs) = self.refit_state.as_mut() {
            rs.window_audit_sum = 0.0;
            rs.window_audit_count = 0;
        }
    }

    /// The degradation ladder, evaluated once per completed window:
    /// `patience` consecutive dirty windows → recalibrate (clear checker
    /// state, snap the threshold back to its calibrated start); a streak
    /// reaching `fallback_patience` → abandon the accelerator for the rest
    /// of the stream; one clean window after a recalibration → recovered.
    fn observe_watchdog(&mut self, kernel: &dyn Kernel, mean_unfixed_pred: f64) {
        let Some(wd) = self.config.watchdog else {
            return;
        };
        if self.stage == DegradeStage::CpuFallback {
            return;
        }
        // The armed refit's audit channel measures the *true* merged
        // error of sampled rows, so a stale checker that under-predicts a
        // drifted regime (and therefore keeps the prediction mass low)
        // still drives the window dirty.
        let audit_dirty = self.refit_state.as_ref().is_some_and(|rs| {
            rs.window_audit_count > 0
                && rs.window_audit_sum / rs.window_audit_count as f64 > wd.quality_limit
        });
        let dirty = mean_unfixed_pred > wd.quality_limit
            || self.window_quarantined * 4 >= self.window_len
            || audit_dirty;
        if !dirty {
            if self.stage == DegradeStage::Recalibrated {
                self.stage = DegradeStage::Normal;
                self.emit_degrade("recovered", "clean window after recalibration");
            }
            self.dirty_windows = 0;
            return;
        }
        self.dirty_windows += 1;
        let detail = format!(
            "{} consecutive dirty windows, quality est {:.4}, quarantined {}/{}",
            self.dirty_windows, mean_unfixed_pred, self.window_quarantined, self.window_len
        );
        if self.stage == DegradeStage::Normal && self.dirty_windows >= wd.patience {
            self.checker.reset();
            self.tuner.reset_to(self.initial_threshold);
            self.stage = DegradeStage::Recalibrated;
            self.fault_stats.recalibrations += 1;
            self.emit_degrade("recalibrate", &detail);
            self.try_refit(kernel);
        } else if self.stage == DegradeStage::Recalibrated
            && self.dirty_windows >= wd.fallback_patience
        {
            self.stage = DegradeStage::CpuFallback;
            self.fault_stats.fallbacks += 1;
            self.emit_degrade("cpu_fallback", &detail);
        } else if self.stage == DegradeStage::Recalibrated {
            // Still dirty but not yet at the fallback rung: keep adapting
            // — each window's audits add drifted-regime rows, so a refit
            // that missed the moving target gets another shot before the
            // accelerator is abandoned.
            self.try_refit(kernel);
        }
    }

    /// The `Recalibrated` rung's online re-fit: trains the checker (and
    /// its signed companion) on the reservoir's clean rows and
    /// re-calibrates the firing threshold on the refreshed fit. The
    /// per-row targets fan out over the deterministic `rumba-parallel`
    /// pool; the model swap and threshold commit happen serially here, at
    /// the window boundary, so the stream's decision sequence stays a
    /// pure function of (seed, window). A no-op when the refit is
    /// unarmed, the reservoir holds too few clean rows, or the checker
    /// kind does not support refit (the reset-only recalibration already
    /// performed then stands).
    fn try_refit(&mut self, kernel: &dyn Kernel) {
        let Some(rs) = self.refit_state.as_ref() else {
            return;
        };
        let clean = rs.reservoir.clean_indices();
        let excluded = rs.reservoir.len() - clean.len();
        if clean.len() < rs.cfg.min_rows {
            return;
        }
        let quality_budget = rs.cfg.quality_budget;
        let (inputs, approxes): (Vec<Vec<f64>>, Vec<Vec<f64>>) = clean
            .iter()
            .map(|&i| {
                let row = &rs.reservoir.rows()[i];
                (row.input.clone(), row.approx.clone())
            })
            .unzip();
        let metric = kernel.metric();
        let rows = &rs.reservoir.rows();
        let clean_ref = &clean;
        // (magnitude, signed) targets per clean row, fanned over the
        // deterministic pool — bit-identical at any thread count.
        let targets: Vec<(f64, f64)> = rumba_parallel::par_map_range(clean.len(), |i| {
            let row = &rows[clean_ref[i]];
            let magnitude = metric.invocation_error(&row.exact, &row.approx);
            let signed = row.approx.iter().zip(&row.exact).map(|(a, e)| a - e).sum::<f64>()
                / row.exact.len().max(1) as f64;
            (magnitude, signed)
        });
        let magnitudes: Vec<f64> = targets.iter().map(|t| t.0).collect();
        let signed: Vec<f64> = targets.iter().map(|t| t.1).collect();
        let row_refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        if self.checker.refit(&row_refs, &magnitudes, &signed).is_err() {
            // Unsupported checker kind (EMA, ensembles): the reset-only
            // recalibration already applied is the whole remedy.
            return;
        }
        // Re-run the offline calibration recipe on the refreshed fit:
        // probe (counter-free) predictions over the reservoir vs its
        // measured errors.
        let predictions: Vec<f64> = inputs
            .iter()
            .zip(&approxes)
            .map(|(input, approx)| self.checker.probe(input, approx))
            .collect();
        let threshold = calibrate_threshold(&predictions, &magnitudes, quality_budget);
        self.tuner.reset_to(threshold);
        let rs = self.refit_state.as_mut().expect("refit state checked above");
        rs.epoch += 1;
        if rumba_obs::enabled() {
            rumba_obs::global_sink().emit(&rumba_obs::Event::Refit {
                window: self.windows_flushed,
                epoch: rs.epoch,
                rows: inputs.len() as u64,
                excluded: excluded as u64,
                threshold,
                session: self.session_label.clone(),
            });
        }
    }

    fn emit_degrade(&self, action: &str, detail: &str) {
        if rumba_obs::enabled() {
            rumba_obs::global_sink().emit(&rumba_obs::Event::Degrade {
                window: self.windows_flushed,
                action: action.to_owned(),
                detail: detail.to_owned(),
                session: self.session_label.clone(),
            });
        }
    }

    /// Processes every invocation in `data`, returning the merged outputs
    /// and full telemetry.
    ///
    /// The rows go through the same route → approximate → replay steps as
    /// [`RumbaSystem::process`], a chunk at a time: the accelerator is
    /// pure, so each chunk's outputs are one cache-blocked batched
    /// invocation (rows fan out over the deterministic pool), and the
    /// stateful replay then runs serially over the chunk's rows, which
    /// keeps every decision — and the merged stream — bit-identical to
    /// streaming the rows one at a time. Without a zoo one chunk covers
    /// the whole stream; with a zoo the chunks are the tuning windows,
    /// because the routing bar only moves at window flushes.
    ///
    /// # Errors
    ///
    /// Returns [`RumbaError::EmptyWorkload`] for an empty dataset and
    /// propagates accelerator dimension errors.
    pub fn run(&mut self, kernel: &dyn Kernel, data: &NnDataset) -> Result<RunOutcome> {
        if data.is_empty() {
            return Err(RumbaError::EmptyWorkload);
        }
        let _span = rumba_obs::span("core.run");
        let n = data.len();
        let out_dim = self.npu.output_dim();
        let chunk = if self.zoo_state.is_some() { self.config.window } else { n };

        self.begin_stream();
        let mut merged = vec![0.0; n * out_dim];
        let mut fired = vec![false; n];
        // Rows the CPU executes exactly — checker-fired recoveries plus
        // rows routed to the exact tier; this is what the pipeline overlap
        // must see.
        let mut cpu_rows = vec![false; n];
        let mut scratch = Scratch::new();
        let mut approx = Matrix::default();
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            let inputs = data.inputs_view().rows_range(start, end);
            let routes = self.route_rows(inputs);
            let zoo = self.zoo_state.as_ref().map(|zs| &zs.zoo);
            approximate(
                &self.npu,
                zoo,
                start,
                inputs,
                routes.as_deref(),
                &mut scratch,
                &mut approx,
            )?;
            for i in start..end {
                let tier = routes.as_ref().map(|r| r[i - start]);
                let output = &mut merged[i * out_dim..(i + 1) * out_dim];
                let outcome =
                    self.replay(kernel, data.input(i), tier, approx.row(i - start), output);
                fired[i] = outcome.fired;
                cpu_rows[i] = outcome.fired || outcome.cpu_routed;
            }
        }
        // Flush the final partial window.
        self.end_stream(kernel);

        // Measured quality of the merged stream (pure per invocation, so
        // the scoring also fans out).
        let metric = kernel.metric();
        let merged_ref = &merged;
        let invocation_errors: Vec<f64> = rumba_parallel::par_map_range(n, |i| {
            metric.invocation_error(data.target(i), &merged_ref[i * out_dim..(i + 1) * out_dim])
        });
        let output_error = invocation_errors.iter().sum::<f64>() / n as f64;

        let serial_detector_cycles = match (self.config.placement, self.checker.is_input_based()) {
            (Placement::BeforeAccelerator, true) => {
                n as f64 * self.checker.cycles_per_prediction() as f64
            }
            _ => 0.0,
        };
        let npu_cycles = self.npu.cycles_per_invocation();
        let pipeline = simulate(n, npu_cycles as f64, kernel.cpu_cycles(), &cpu_rows);
        let fixes = self.stream_fixes;
        let tiers = self.stream_tiers().to_vec();
        let cpu_routed = tiers.last().map_or(0, |&c| c as usize);
        if rumba_obs::enabled() {
            rumba_obs::global_sink().emit(&rumba_obs::Event::RunSummary {
                kernel: kernel.name().to_owned(),
                invocations: n as u64,
                fixes: fixes as u64,
                compensated: self.stream_compensations as u64,
                output_error,
                windows: self.windows_flushed,
                cpu_utilization: pipeline.cpu_utilization,
                final_threshold: self.tuner.threshold(),
                tiers,
                session: self.session_label.clone(),
            });
        }
        // Exact-tier rows cost the CPU what a re-execution costs, but only
        // model-tier rows touch the accelerator, its I/O, or the checker;
        // with a zoo the accelerator stream's cycle total is the routed
        // per-tier sum.
        let activity = SchemeActivity {
            accelerator_invocations: n - cpu_routed,
            npu_cycles_per_invocation: npu_cycles,
            io_words_per_invocation: self.npu.input_dim() + self.npu.output_dim(),
            checker_invocations: n - cpu_routed,
            checker_cost: self.checker.cost(),
            reexecutions: fixes + cpu_routed,
            compensations: self.stream_compensations,
            serial_detector_cycles,
            tiered_accelerator_cycles: self
                .zoo_state
                .as_ref()
                .map_or(0.0, |zs| zs.tier_cycles_total),
        };

        Ok(RunOutcome {
            merged_outputs: merged,
            fired,
            fixes,
            compensated: self.stream_compensations,
            output_error,
            invocation_errors,
            activity,
            pipeline,
            threshold_history: self.tuner.history().to_vec(),
            quarantined: self.fault_stats.quarantined as usize,
            fault_stats: self.fault_stats,
            degrade_stage: self.stage,
        })
    }
}

/// The pipeline's *approximate* step: the accelerator outputs for a block
/// of rows whose first row is stream position `base`, one output row per
/// input row in `out`. Without `routes` this is one batched
/// [`Npu::invoke_batch_at`] call on `npu`. With per-row tier decisions
/// (from [`RumbaSystem::route_rows`]) the rows are gathered into one
/// sub-batch per model tier of `zoo` and run through
/// [`Npu::invoke_rows_at`], so each tier's SIMD/flat-matrix path still
/// runs over contiguous rows and every row keeps the bits of a per-row
/// invocation at its stream position. Rows routed to the exact-CPU tier
/// are left as they are; the replay computes them exactly.
///
/// Pure, and free-standing so the serving scheduler's parallel phase can
/// call it from `&Npu` / `&ModelZoo` alone.
///
/// # Errors
///
/// Propagates accelerator dimension errors.
pub fn approximate(
    npu: &Npu,
    zoo: Option<&ModelZoo>,
    base: usize,
    inputs: MatrixView<'_>,
    routes: Option<&[usize]>,
    scratch: &mut Scratch,
    out: &mut Matrix,
) -> std::result::Result<(), NnError> {
    let (Some(routes), Some(zoo)) = (routes, zoo) else {
        npu.invoke_batch_at(base, inputs, scratch, out)?;
        return Ok(());
    };
    out.resize(inputs.rows(), npu.output_dim());
    let mut gathered = Vec::new();
    let mut positions = Vec::new();
    let mut tier_out = Matrix::default();
    for t in 0..zoo.len() {
        gathered.clear();
        positions.clear();
        for (r, _) in routes.iter().enumerate().filter(|&(_, &route)| route == t) {
            gathered.extend_from_slice(inputs.row(r));
            positions.push(base + r);
        }
        if positions.is_empty() {
            continue;
        }
        let view = MatrixView::new(&gathered, positions.len(), inputs.cols());
        zoo.tier(t).npu.invoke_rows_at(&positions, view, scratch, &mut tier_out)?;
        for (g, &position) in positions.iter().enumerate() {
            out.row_mut(position - base).copy_from_slice(tier_out.row(g));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_app, OfflineConfig};
    use crate::tuner::{calibrate_threshold, TuningMode};
    use rumba_apps::{kernel_by_name, Split};
    use rumba_predict::ErrorEstimator;

    fn build_system(mode: TuningMode) -> (Box<dyn Kernel>, RumbaSystem, NnDataset) {
        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let train = kernel.generate(Split::Train, 42);
        // One probe serves the whole sweep: the tree checker is stateless,
        // and cloning per row would rebuild the boxed checker each time.
        let mut probe = app.tree.clone();
        let predicted: Vec<f64> =
            (0..train.len()).map(|i| probe.estimate(train.input(i), &[])).collect();
        let threshold = calibrate_threshold(&predicted, &app.train_errors, 0.02);
        let system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(mode, threshold).unwrap(),
            RuntimeConfig::default(),
        )
        .unwrap();
        let test = kernel.generate(Split::Test, 42);
        (kernel, system, test)
    }

    #[test]
    fn managed_run_beats_unchecked_error() {
        let (kernel, mut system, test) = build_system(TuningMode::TargetQuality { toq: 0.98 });
        let outcome = system.run(kernel.as_ref(), &test).unwrap();

        // Unchecked error of the same accelerator.
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let unchecked = crate::trainer::invocation_errors(kernel.as_ref(), &app.rumba_npu, &test)
            .unwrap()
            .iter()
            .sum::<f64>()
            / test.len() as f64;

        assert!(outcome.fixes > 0, "some checks must fire");
        assert!(
            outcome.output_error < unchecked,
            "managed {} vs unchecked {unchecked}",
            outcome.output_error
        );
    }

    #[test]
    fn merged_outputs_are_exact_where_fired() {
        let (kernel, mut system, test) = build_system(TuningMode::TargetQuality { toq: 0.98 });
        let outcome = system.run(kernel.as_ref(), &test).unwrap();
        let out_dim = kernel.output_dim();
        for (i, &f) in outcome.fired.iter().enumerate() {
            if f {
                let merged = &outcome.merged_outputs[i * out_dim..(i + 1) * out_dim];
                assert_eq!(merged, test.target(i), "iteration {i} must be exact");
            }
        }
    }

    #[test]
    fn energy_mode_respects_budget_per_window() {
        let (kernel, _, test) = build_system(TuningMode::BestQuality);
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let budget = 5usize;
        let mut system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(TuningMode::EnergyBudget { budget }, 1e-6).unwrap(),
            RuntimeConfig { window: 100, ..RuntimeConfig::default() },
        )
        .unwrap();
        let outcome = system.run(kernel.as_ref(), &test).unwrap();
        let windows = test.len().div_ceil(100);
        assert!(
            outcome.fixes <= budget * windows,
            "fixes {} exceed budget {budget} x {windows}",
            outcome.fixes
        );
    }

    #[test]
    fn rejects_degenerate_config() {
        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let bad = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(TuningMode::BestQuality, 0.1).unwrap(),
            RuntimeConfig { window: 0, ..RuntimeConfig::default() },
        );
        assert!(bad.is_err());
    }

    #[test]
    fn window_errors_average_back_to_output_error() {
        let (kernel, mut system, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        let outcome = system.run(kernel.as_ref(), &test).unwrap();
        assert_eq!(outcome.invocation_errors.len(), test.len());
        let windows = outcome.window_errors(256);
        assert_eq!(windows.len(), test.len().div_ceil(256));
        // Weighted mean of window means equals the overall error.
        let weighted: f64 = outcome
            .invocation_errors
            .chunks(256)
            .zip(&windows)
            .map(|(c, &w)| w * c.len() as f64)
            .sum::<f64>()
            / test.len() as f64;
        assert!((weighted - outcome.output_error).abs() < 1e-12);
    }

    #[test]
    fn window_errors_clamps_the_final_partial_window() {
        // Regression: a 7-element stream with window 4 must yield exactly
        // two windows — [0,4) and the clamped [4,7) — instead of reading
        // past the end of the stream.
        let outcome = RunOutcome {
            merged_outputs: vec![0.0; 7],
            fired: vec![false; 7],
            fixes: 0,
            compensated: 0,
            output_error: 4.0,
            invocation_errors: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            activity: SchemeActivity::default(),
            pipeline: simulate(7, 1.0, 1.0, &[false; 7]),
            threshold_history: vec![0.1],
            quarantined: 0,
            fault_stats: FaultStats::default(),
            degrade_stage: DegradeStage::Normal,
        };
        let windows = outcome.window_errors(4);
        assert_eq!(windows.len(), 2);
        assert!((windows[0] - 2.5).abs() < 1e-12, "{windows:?}");
        assert!((windows[1] - 6.0).abs() < 1e-12, "mean of the 3-element tail: {windows:?}");
        // Window longer than the stream: one clamped window, the plain mean.
        let whole = outcome.window_errors(100);
        assert_eq!(whole.len(), 1);
        assert!((whole[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_matches_batch_run() {
        // `run` and an external `process` loop must agree bit for bit:
        // single-model, a one-tier zoo, and a three-tier zoo whose tight
        // budget sends some rows to the exact-CPU tier.
        use crate::cache::TrainedModelCache;
        use crate::zoo::train_zoo_with_cache;

        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let zoo = |tiers| {
            train_zoo_with_cache(
                kernel.as_ref(),
                &app,
                &OfflineConfig::default(),
                tiers,
                &TrainedModelCache::disabled(),
            )
            .unwrap()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for armed in [None, Some((zoo(1), 0.05)), Some((zoo(3), 0.01))] {
            let (_, mut batch_system, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
            let (_, mut stream_system, _) = build_system(TuningMode::TargetQuality { toq: 0.95 });
            let tiers = armed.as_ref().map_or(0, |(z, _)| z.len());
            if let Some((zoo, budget)) = armed {
                batch_system.attach_zoo(zoo.clone(), budget).unwrap();
                stream_system.attach_zoo(zoo, budget).unwrap();
            }
            let batch = batch_system.run(kernel.as_ref(), &test).unwrap();

            stream_system.begin_stream();
            let out_dim = kernel.output_dim();
            let mut merged = Vec::with_capacity(test.len() * out_dim);
            let mut buf = vec![0.0; out_dim];
            let mut fixes = 0usize;
            for i in 0..test.len() {
                let outcome =
                    stream_system.process(kernel.as_ref(), test.input(i), &mut buf).unwrap();
                if outcome.fired {
                    fixes += 1;
                }
                merged.extend_from_slice(&buf);
            }
            stream_system.end_stream(kernel.as_ref());

            assert_eq!(bits(&merged), bits(&batch.merged_outputs), "zoo={tiers}");
            assert_eq!(fixes, batch.fixes, "zoo={tiers}");
            assert_eq!(stream_system.stream_fixes(), batch.fixes, "zoo={tiers}");
            assert_eq!(stream_system.stream_compensations(), batch.compensated, "zoo={tiers}");
            assert_eq!(stream_system.stream_tiers(), batch_system.stream_tiers(), "zoo={tiers}");
            assert_eq!(
                bits(stream_system.tuner().history()),
                bits(&batch.threshold_history),
                "zoo={tiers}"
            );
            if tiers == 3 {
                let counts = batch_system.stream_tiers();
                assert!(counts[3] > 0, "the tight budget must route some rows to CPU: {counts:?}");
                assert!(counts[..3].iter().sum::<u64>() > 0, "and some to a model: {counts:?}");
            }
        }
    }

    #[test]
    fn run_outcomes_satisfy_the_accounting_identities() {
        use crate::cache::TrainedModelCache;
        use crate::zoo::train_zoo_with_cache;

        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let test = kernel.generate(Split::Test, 42);
        let n = test.len();
        let build = |fix_policy| {
            RumbaSystem::new(
                app.rumba_npu.clone(),
                CheckerUnit::new(Box::new(app.tree.clone())),
                Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, 0.02).unwrap(),
                RuntimeConfig { fix_policy, ..RuntimeConfig::default() },
            )
            .unwrap()
        };
        let single = build(FixPolicy::Reexecute);
        let compensate = build(FixPolicy::Compensate { band: 0.5 });
        let mut zoo = build(FixPolicy::Reexecute);
        let tiers = train_zoo_with_cache(
            kernel.as_ref(),
            &app,
            &OfflineConfig::default(),
            3,
            &TrainedModelCache::disabled(),
        )
        .unwrap();
        zoo.attach_zoo(tiers, 0.01).unwrap();

        for (label, mut system) in [("single", single), ("compensate", compensate), ("zoo=3", zoo)]
        {
            let outcome = system.run(kernel.as_ref(), &test).unwrap();
            let counts = system.stream_tiers();
            let cpu_routed = counts.last().map_or(0, |&c| c as usize);
            let activity = &outcome.activity;
            assert_eq!(outcome.fixes, outcome.fired.iter().filter(|&&f| f).count(), "{label}");
            assert!(outcome.fixes + outcome.compensated + cpu_routed <= n, "{label}");
            assert_eq!(activity.accelerator_invocations, n - cpu_routed, "{label}");
            assert_eq!(activity.checker_invocations, n - cpu_routed, "{label}");
            assert_eq!(activity.reexecutions, outcome.fixes + cpu_routed, "{label}");
            if system.zoo().is_some() {
                assert_eq!(counts.iter().sum::<u64>(), n as u64, "{label}: tiers {counts:?}");
                assert!(cpu_routed > 0, "{label}: the budget must route some rows to CPU");
            } else {
                assert!(counts.is_empty(), "{label}");
            }
            if label == "compensate" {
                assert!(outcome.compensated > 0, "band 0.5 must compensate");
            }
        }
    }

    #[test]
    fn exported_state_resumes_a_stream_bit_for_bit() {
        // Run the reference stream start to finish, then replay it with a
        // mid-stream export onto a freshly built system: the resumed tail
        // must reproduce the reference outputs and counters exactly.
        let (kernel, mut reference, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        reference.begin_stream();
        let out_dim = kernel.output_dim();
        let mut buf = vec![0.0; out_dim];
        let mut expected = Vec::with_capacity(test.len() * out_dim);
        for i in 0..test.len() {
            reference.process(kernel.as_ref(), test.input(i), &mut buf).unwrap();
            expected.extend_from_slice(&buf);
        }
        reference.end_stream(kernel.as_ref());

        let cut = test.len() / 2;
        let (_, mut head, _) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        head.begin_stream();
        let mut merged = Vec::with_capacity(test.len() * out_dim);
        for i in 0..cut {
            head.process(kernel.as_ref(), test.input(i), &mut buf).unwrap();
            merged.extend_from_slice(&buf);
        }
        let words = head.export_state();

        let (_, mut tail, _) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        tail.begin_stream();
        tail.import_state(&words).unwrap();
        // The NPU's fault stream is keyed on stream position, which
        // `import_state` restored via `stream_invocations`; continue.
        for i in cut..test.len() {
            tail.process(kernel.as_ref(), test.input(i), &mut buf).unwrap();
            merged.extend_from_slice(&buf);
        }
        tail.end_stream(kernel.as_ref());

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&merged), bits(&expected));
        assert_eq!(tail.stream_fixes(), reference.stream_fixes());
        assert_eq!(tail.windows_flushed(), reference.windows_flushed());
        assert_eq!(tail.tuner().threshold().to_bits(), reference.tuner().threshold().to_bits());
    }

    #[test]
    fn import_state_rejects_malformed_words() {
        let (_, mut system, _) = build_system(TuningMode::BestQuality);
        assert!(system.import_state(&[0; 5]).is_err());
        let mut words = system.export_state();
        let stage = 13; // the degrade-stage tag follows 13 counter words
        words[stage] = 9;
        assert!(system.import_state(&words).unwrap_err().starts_with("runtime.stage:"));
        let mut truncated = system.export_state();
        truncated.pop();
        assert!(system.import_state(&truncated).is_err());
    }

    /// A checker length word near `u64::MAX` used to overflow the offset
    /// sum (a debug-build panic); every huge length is now checked against
    /// the words that remain and rejected in-band.
    #[test]
    fn import_state_rejects_huge_lengths_without_panicking() {
        let (_, mut system, _) = build_system(TuningMode::BestQuality);
        let words = system.export_state();
        // Unarmed (no zoo, no refit), the checker block ends the state.
        let at = words.len() - system.checker.export_state().len() - 1;
        for huge in [u64::MAX - 25, u64::MAX, 1 << 62] {
            let mut bad = words.clone();
            bad[at] = huge;
            let err = system.import_state(&bad).unwrap_err();
            assert!(err.starts_with("runtime.checker:"), "{err}");
        }
    }

    /// An accepted state re-exports to the same words, so an out-of-range
    /// zoo pressure is rejected rather than clamped.
    #[test]
    fn zoo_pressure_above_the_cap_is_rejected_not_clamped() {
        let (kernel, mut system, _) = build_system(TuningMode::BestQuality);
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let zoo =
            crate::zoo::train_zoo(kernel.as_ref(), &app, &OfflineConfig::default(), 1).unwrap();
        system.attach_zoo(zoo, 0.1).unwrap();
        system.set_zoo_pressure(MAX_ZOO_PRESSURE);
        let words = system.export_state();
        system.import_state(&words).unwrap();
        assert_eq!(system.export_state(), words);
        // The pressure word precedes both tier-count arrays and the cycles.
        let pressure = words.len() - 2 - 2 * system.stream_tiers().len();
        assert_eq!(words[pressure], u64::from(MAX_ZOO_PRESSURE));
        let mut over = words.clone();
        over[pressure] += 1;
        let err = system.import_state(&over).unwrap_err();
        assert!(err.starts_with("runtime.zoo.pressure:"), "{err}");
    }

    #[test]
    fn empty_workload_rejected() {
        let (kernel, mut system, _) = build_system(TuningMode::BestQuality);
        let empty = NnDataset::new(kernel.input_dim(), kernel.output_dim()).unwrap();
        assert!(matches!(system.run(kernel.as_ref(), &empty), Err(RumbaError::EmptyWorkload)));
    }

    #[test]
    fn cpu_capacity_never_floors_to_zero() {
        // Regression: gaussian's CPU kernel costs ~90 cycles and its NPU
        // ~35, so a 2-iteration window has a raw capacity of
        // floor(2*35/90) = 0 — before the clamp, capacity-driven modes
        // could then never re-execute anything, silently, forever.
        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree.clone())),
            Tuner::new(TuningMode::BestQuality, 0.1).unwrap(),
            RuntimeConfig { window: 2, ..RuntimeConfig::default() },
        )
        .unwrap();
        let (capacity, clamped) = system.cpu_capacity_per_window(kernel.as_ref());
        assert_eq!(capacity, 1, "zero capacity must clamp to one fix per window");
        assert!(clamped, "the clamp must be surfaced for telemetry");

        // A fired check can therefore actually fix something: with a
        // near-zero threshold every check wants to fire, and the clamped
        // capacity admits one fix per 2-iteration window.
        let mut system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(TuningMode::BestQuality, 1e-6).unwrap(),
            RuntimeConfig { window: 2, ..RuntimeConfig::default() },
        )
        .unwrap();
        let test = kernel.generate(Split::Test, 42);
        let outcome = system.run(kernel.as_ref(), &test).unwrap();
        assert!(outcome.fixes > 0, "clamped capacity must permit recovery");
    }

    #[test]
    fn non_finite_outputs_are_quarantined_and_merged_stream_stays_finite() {
        use rumba_faults::{FaultModel, FaultPlan};
        let (kernel, mut system, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        system
            .set_fault_plan(Some(FaultPlan::new(0xbad).with(FaultModel::NonFinite { rate: 1e-2 })));
        let outcome = system.run(kernel.as_ref(), &test).unwrap();
        assert!(outcome.quarantined > 0, "1% NaN rate over {} rows must strike", test.len());
        assert!(
            outcome.merged_outputs.iter().all(|v| v.is_finite()),
            "every quarantined row must be re-executed exactly"
        );
        assert_eq!(outcome.fault_stats.quarantined as usize, outcome.quarantined);
        assert!(outcome.fixes <= test.len());
    }

    #[test]
    fn quarantine_outranks_the_energy_budget() {
        // Even with a zero-fire budget the non-finite screen must force
        // CPU re-execution: correctness is not subject to the energy cap.
        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let mut system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(TuningMode::EnergyBudget { budget: 0 }, 1e6).unwrap(),
            RuntimeConfig::default(),
        )
        .unwrap();
        system.set_fault_plan(Some(
            rumba_faults::FaultPlan::new(7)
                .with(rumba_faults::FaultModel::NonFinite { rate: 5e-3 }),
        ));
        let test = kernel.generate(Split::Test, 42);
        let outcome = system.run(kernel.as_ref(), &test).unwrap();
        assert!(outcome.quarantined > 0);
        assert!(outcome.merged_outputs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn watchdog_escalates_recalibration_then_cpu_fallback() {
        use rumba_faults::{FaultModel, FaultPlan};
        let (kernel, _, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let watchdog = WatchdogConfig { quality_limit: 0.05, patience: 2, fallback_patience: 4 };
        let mut system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, 0.05).unwrap(),
            RuntimeConfig { window: 64, watchdog: Some(watchdog), ..RuntimeConfig::default() },
        )
        .unwrap();
        // Saturate every window with quarantines: all-NaN outputs make
        // every window dirty, so the ladder must walk Normal →
        // Recalibrated → CpuFallback.
        system.set_fault_plan(Some(FaultPlan::new(1).with(FaultModel::NonFinite { rate: 1.0 })));
        let outcome = system.run(kernel.as_ref(), &test).unwrap();
        assert_eq!(outcome.degrade_stage, DegradeStage::CpuFallback);
        assert_eq!(outcome.fault_stats.recalibrations, 1);
        assert_eq!(outcome.fault_stats.fallbacks, 1);
        assert_eq!(outcome.fixes, test.len(), "fallback runs everything on the CPU");
        assert!(outcome.merged_outputs.iter().all(|v| v.is_finite()));
        assert!((outcome.output_error).abs() < 1e-12, "all-CPU stream is exact");
    }

    #[test]
    fn compensation_band_at_threshold_is_bitwise_reexecute_only() {
        // Satellite (4a) as a unit test: a band clamped down to the firing
        // threshold makes the compensable set empty (threshold < p <= band
        // has no solutions), so the whole run — outputs, fixes, threshold
        // trajectory — must be bit-identical to the re-execution-only path.
        let (kernel, mut plain, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        let reference = plain.run(kernel.as_ref(), &test).unwrap();

        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let threshold = plain.initial_threshold;
        let mut banded = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, threshold).unwrap(),
            RuntimeConfig {
                fix_policy: FixPolicy::Compensate { band: threshold * 1e-3 },
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // The degenerate band clamps up to the threshold and stays there.
        assert_eq!(banded.tuner().compensation_band(), Some(threshold));
        let outcome = banded.run(kernel.as_ref(), &test).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&outcome.merged_outputs), bits(&reference.merged_outputs));
        assert_eq!(outcome.fixes, reference.fixes);
        assert_eq!(outcome.compensated, 0);
        assert_eq!(outcome.threshold_history, reference.threshold_history);
    }

    #[test]
    fn wide_band_trades_reexecutions_for_compensations() {
        let (kernel, mut plain, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        let reference = plain.run(kernel.as_ref(), &test).unwrap();
        let threshold = plain.initial_threshold;

        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let mut banded = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree)),
            Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, threshold).unwrap(),
            RuntimeConfig {
                fix_policy: FixPolicy::Compensate { band: 1e6 },
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let outcome = banded.run(kernel.as_ref(), &test).unwrap();
        assert!(outcome.compensated > 0, "a wide band must compensate something");
        assert!(
            outcome.fixes < reference.fixes,
            "compensated rows must come out of the re-execution count: {} vs {}",
            outcome.fixes,
            reference.fixes
        );
        assert_eq!(outcome.activity.compensations, outcome.compensated);
        assert!(outcome.merged_outputs.iter().all(|v| v.is_finite()));
        // The unchecked accelerator's error is the bar compensation must
        // still clear: subtracting the predicted error must help, not hurt.
        let unchecked = crate::trainer::invocation_errors(kernel.as_ref(), &app.rumba_npu, &test)
            .unwrap()
            .iter()
            .sum::<f64>()
            / test.len() as f64;
        assert!(
            outcome.output_error < unchecked,
            "compensated {} vs unchecked {unchecked}",
            outcome.output_error
        );
    }

    #[test]
    fn exported_state_with_a_band_resumes_bit_for_bit() {
        // The satellite-4c shape as a unit test: snapshot mid-stream with a
        // nonzero compensation band and live compensation counters, restore
        // onto a fresh system, and the tail must match the uncut reference.
        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let config = RuntimeConfig {
            window: 64,
            fix_policy: FixPolicy::Compensate { band: 0.5 },
            ..RuntimeConfig::default()
        };
        let build = || {
            RumbaSystem::new(
                app.rumba_npu.clone(),
                CheckerUnit::new(Box::new(app.tree.clone())),
                Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, 0.02).unwrap(),
                config,
            )
            .unwrap()
        };
        let test = kernel.generate(Split::Test, 42);
        let out_dim = kernel.output_dim();
        let mut buf = vec![0.0; out_dim];

        let mut reference = build();
        reference.begin_stream();
        let mut expected = Vec::with_capacity(test.len() * out_dim);
        for i in 0..test.len() {
            reference.process(kernel.as_ref(), test.input(i), &mut buf).unwrap();
            expected.extend_from_slice(&buf);
        }
        reference.end_stream(kernel.as_ref());
        assert!(reference.stream_compensations() > 0, "band 0.5 must compensate");

        let cut = test.len() / 3;
        let mut head = build();
        head.begin_stream();
        let mut merged = Vec::with_capacity(test.len() * out_dim);
        for i in 0..cut {
            head.process(kernel.as_ref(), test.input(i), &mut buf).unwrap();
            merged.extend_from_slice(&buf);
        }
        let words = head.export_state();

        let mut tail = build();
        tail.begin_stream();
        tail.import_state(&words).unwrap();
        assert_eq!(tail.tuner().compensation_band(), head.tuner().compensation_band());
        for i in cut..test.len() {
            tail.process(kernel.as_ref(), test.input(i), &mut buf).unwrap();
            merged.extend_from_slice(&buf);
        }
        tail.end_stream(kernel.as_ref());

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&merged), bits(&expected));
        assert_eq!(tail.stream_fixes(), reference.stream_fixes());
        assert_eq!(tail.stream_compensations(), reference.stream_compensations());
        assert_eq!(tail.tuner().threshold().to_bits(), reference.tuner().threshold().to_bits());
        assert_eq!(tail.tuner().compensation_band(), reference.tuner().compensation_band());
    }

    #[test]
    fn rejects_degenerate_compensation_band() {
        let kernel = kernel_by_name("gaussian").unwrap();
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        for band in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = RumbaSystem::new(
                app.rumba_npu.clone(),
                CheckerUnit::new(Box::new(app.tree.clone())),
                Tuner::new(TuningMode::BestQuality, 0.1).unwrap(),
                RuntimeConfig {
                    fix_policy: FixPolicy::Compensate { band },
                    ..RuntimeConfig::default()
                },
            );
            assert!(bad.is_err(), "band {band} must be rejected");
        }
    }

    #[test]
    fn fault_off_run_is_bit_identical_with_hooks_armed_then_disarmed() {
        let (kernel, mut baseline, test) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        let clean = baseline.run(kernel.as_ref(), &test).unwrap();
        let (_, mut hooked, _) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        hooked.set_fault_plan(Some(rumba_faults::FaultPlan::new(9)));
        assert!(hooked.fault_plan.is_none(), "empty plan must normalize to off");
        let rerun = hooked.run(kernel.as_ref(), &test).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&clean.merged_outputs), bits(&rerun.merged_outputs));
        assert_eq!(clean.fixes, rerun.fixes);
        assert!(!rerun.fault_stats.any());
    }

    #[test]
    fn pressure_widening_saturates_at_the_calibrated_ceiling() {
        use crate::cache::TrainedModelCache;
        use crate::zoo::train_zoo_with_cache;

        let (kernel, mut system, _) = build_system(TuningMode::TargetQuality { toq: 0.95 });
        let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
        let zoo = train_zoo_with_cache(
            kernel.as_ref(),
            &app,
            &OfflineConfig::default(),
            2,
            &TrainedModelCache::disabled(),
        )
        .unwrap();
        system.attach_zoo(zoo, 0.05).unwrap();
        let bar = |s: &RumbaSystem| s.routing_bar().unwrap();
        assert_eq!(bar(&system), 0.05);

        // Unbounded by default: each rung doubles the bar.
        system.set_zoo_pressure(MAX_ZOO_PRESSURE);
        assert_eq!(bar(&system), 0.05 * 32.0);

        // The ceiling caps the widening, not the base bar.
        system.set_zoo_pressure_ceiling(0.2);
        assert_eq!(bar(&system), 0.2);
        system.set_zoo_pressure(1);
        assert_eq!(bar(&system), 0.1);
        system.set_zoo_pressure(0);
        assert_eq!(bar(&system), 0.05);

        // A ceiling below the base budget clamps up to it (it would
        // invert the routing semantics), and degenerate ceilings are
        // ignored outright.
        system.set_zoo_pressure_ceiling(0.01);
        system.set_zoo_pressure(MAX_ZOO_PRESSURE);
        assert_eq!(bar(&system), 0.05);
        system.set_zoo_pressure_ceiling(f64::NAN);
        system.set_zoo_pressure_ceiling(f64::INFINITY);
        system.set_zoo_pressure_ceiling(-1.0);
        assert_eq!(bar(&system), 0.05, "degenerate ceilings must leave the cap untouched");
    }
}
