//! One tenant of the serving layer: a calibrated Rumba pipeline behind a
//! bounded request queue.

use std::collections::VecDeque;

use rumba_accel::{CheckerUnit, Npu};
use rumba_apps::{kernel_by_name, Kernel, Split};
use rumba_core::event_sim::{simulate_detailed_with_faults, QueueConfig};
use rumba_core::runtime::MAX_ZOO_PRESSURE;
use rumba_core::runtime::{
    approximate, FixPolicy, RefitConfig, RumbaSystem, RuntimeConfig, WatchdogConfig,
};
use rumba_core::trainer::{invocation_errors, train_app, OfflineConfig, TrainedApp};
use rumba_core::tuner::{Tuner, TuningMode};
use rumba_core::zoo::{train_zoo, ModelZoo};
use rumba_faults::{FaultModel, FaultPlan};
use rumba_nn::{Matrix, MatrixView, NnDataset, Scratch};
use rumba_obs::words::WordReader;
use rumba_obs::Event;
use rumba_predict::{EmaDetector, ErrorEstimator};

use crate::{snapshot, ServeError};

/// Largest `window` (iterations per tuning window) a session accepts.
pub(crate) const MAX_WINDOW: usize = 1 << 20;
/// Largest request-queue capacity a session accepts: the queue's rows are
/// allocated when the session opens.
pub(crate) const MAX_QUEUE: usize = 1 << 14;
/// Largest model zoo a session accepts: every tier is trained at open,
/// and by the eighth level down each hidden layer has shrunk to one unit.
pub(crate) const MAX_ZOO: usize = 8;

/// Which online checker a session runs. Mirrors the CLI's checker choice,
/// restricted to the schemes that need no extra training pass at session
/// open (the serving layer opens sessions on the request path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckerKind {
    /// Linear per-output error model.
    Linear,
    /// Decision-tree error model (the paper's default).
    #[default]
    Tree,
    /// Exponential-moving-average output-drift detector.
    Ema,
    /// Error value prediction (EVP).
    Evp,
}

impl CheckerKind {
    /// Parses the protocol spelling (`"linear"`, `"tree"`, `"ema"`,
    /// `"evp"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        match text {
            "linear" => Ok(Self::Linear),
            "tree" => Ok(Self::Tree),
            "ema" => Ok(Self::Ema),
            "evp" => Ok(Self::Evp),
            other => Err(ServeError::InvalidConfig(format!(
                "unknown checker {other:?} (expected linear, tree, ema or evp)"
            ))),
        }
    }

    /// Protocol spelling of this checker.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Linear => "linear",
            Self::Tree => "tree",
            Self::Ema => "ema",
            Self::Evp => "evp",
        }
    }
}

/// What happens when a request arrives and the session's bounded queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Reject the request (503-style). The caller is told and the
    /// rejection is counted; nothing enters the pipeline.
    #[default]
    Shed,
    /// Drain the session's queue through the pipeline first, then admit.
    /// Trades latency for completeness; the queue bound still holds.
    Block,
}

impl AdmissionPolicy {
    /// Parses the protocol spelling (`"shed"` or `"block"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        match text {
            "shed" => Ok(Self::Shed),
            "block" => Ok(Self::Block),
            other => Err(ServeError::InvalidConfig(format!(
                "unknown admission policy {other:?} (expected shed or block)"
            ))),
        }
    }

    /// Protocol spelling of this policy.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Shed => "shed",
            Self::Block => "block",
        }
    }
}

/// Everything needed to open a session. The calibration flow mirrors
/// `rumba run`: train (or cache-load) the app, probe the checker on the
/// train split, calibrate the firing threshold against the mode's error
/// target.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Benchmark kernel name (Table 1 of the paper).
    pub kernel: String,
    /// Master seed for training, calibration and fault injection.
    pub seed: u64,
    /// Online checker scheme.
    pub checker: CheckerKind,
    /// Tuning mode (TOQ / energy budget / best quality).
    pub mode: TuningMode,
    /// Iterations per tuning window.
    pub window: usize,
    /// Pipeline queue bounds; `input_capacity` is also the session's
    /// request-queue bound for admission control.
    pub queue: QueueConfig,
    /// Full-queue behaviour.
    pub admission: AdmissionPolicy,
    /// Optional deterministic fault plan, scoped to this session only.
    pub faults: Option<FaultPlan>,
    /// Optional quality watchdog for graceful degradation.
    pub watchdog: Option<WatchdogConfig>,
    /// What flagged invocations get: CPU re-execution (the default) or
    /// in-place compensation for the mildly wrong band.
    pub fix_policy: FixPolicy,
    /// Model-zoo size: 0 (the default) serves the single Rumba
    /// accelerator exactly as before; `N > 0` trains an `N`-tier
    /// quality/energy ladder and routes every request to the cheapest
    /// tier predicted to meet the session's quality target (exact CPU as
    /// the last resort). Under queue pressure the session degrades to
    /// cheaper tiers before any request is shed.
    pub zoo: usize,
    /// Opt-in online checker re-fit (`false`, the default, serves exactly
    /// as before, byte for byte): when set, the session arms the
    /// runtime's refit machinery — an exact-result audit channel feeding
    /// a bounded deterministic reservoir, re-fit and threshold
    /// re-calibration at the watchdog's `Recalibrated` rung — with the
    /// session's own quality budget as the re-calibration target. The
    /// reservoir and refit epoch travel in the snapshot, so a mid-refit
    /// migration continues bit-for-bit.
    pub refit: bool,
}

impl SessionConfig {
    /// The one validator behind `open` and `restore`, run before any
    /// training: every size a request line can set must lie within the
    /// limits, so one line can neither exhaust the server's memory nor
    /// make it train an unbounded ladder, and every fault rate must pass
    /// [`FaultModel::validate`], the check the fault-spec parser runs.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        let limits = [
            ("window", self.window, 1, MAX_WINDOW),
            ("queue capacity", self.queue.input_capacity, 1, MAX_QUEUE),
            ("zoo", self.zoo, 0, MAX_ZOO),
        ];
        for (what, value, min, max) in limits {
            if !(min..=max).contains(&value) {
                return Err(ServeError::InvalidConfig(format!(
                    "{what} must be in {min}..={max}, got {value}"
                )));
            }
        }
        self.faults
            .iter()
            .flat_map(FaultPlan::models)
            .try_for_each(FaultModel::validate)
            .map_err(ServeError::InvalidConfig)
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            kernel: "gaussian".to_owned(),
            seed: 42,
            checker: CheckerKind::default(),
            mode: TuningMode::TargetQuality { toq: 0.9 },
            window: 64,
            queue: QueueConfig::default(),
            admission: AdmissionPolicy::default(),
            faults: None,
            watchdog: None,
            fix_policy: FixPolicy::default(),
            zoo: 0,
            refit: false,
        }
    }
}

/// One completed request, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Stream position (0-based invocation index within the session).
    pub index: usize,
    /// Merged output: accelerator result, or the exact CPU re-execution
    /// when the check fired.
    pub output: Vec<f64>,
    /// Whether the check fired and the invocation was re-executed.
    pub fired: bool,
    /// The checker's predicted error for this invocation.
    pub predicted_error: f64,
    /// True error of the merged output against the exact computation —
    /// the conformance harness's oracle.
    pub measured_error: f64,
}

/// Running counters for one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that went through the pipeline.
    pub processed: u64,
    /// Invocations re-executed on the CPU.
    pub fixes: u64,
    /// Invocations compensated in place (predicted error subtracted; no
    /// CPU re-execution).
    pub compensated: u64,
    /// Requests rejected by the shed policy.
    pub shed: u64,
    /// Requests that forced a blocking drain before admission.
    pub blocked: u64,
    /// Highest request-queue depth observed.
    pub queue_high_water: usize,
    /// Sum of measured output errors over processed requests.
    pub error_sum: f64,
    /// Pipeline drains executed.
    pub drains: u64,
    /// Drains whose event-level simulation saw accelerator back-pressure.
    pub back_pressured_drains: u64,
    /// Highest recovery-queue occupancy across all drains.
    pub recovery_high_water: usize,
    /// Total simulated pipeline cycles across all drains.
    pub total_cycles: f64,
    /// Simulated CPU re-execution cycles across all drains.
    pub cpu_busy_cycles: f64,
    /// Tuner threshold after the final window flush (set at close; 0
    /// while the session is live — read [`Session::threshold`] instead).
    pub final_threshold: f64,
}

impl SessionStats {
    /// Mean measured output error over processed requests (NaN before the
    /// first request completes).
    #[must_use]
    pub fn mean_error(&self) -> f64 {
        if self.processed == 0 {
            f64::NAN
        } else {
            self.error_sum / self.processed as f64
        }
    }

    /// Simulated CPU utilization across all drains (0 before the first).
    #[must_use]
    pub fn cpu_utilization(&self) -> f64 {
        if self.total_cycles > 0.0 {
            self.cpu_busy_cycles / self.total_cycles
        } else {
            0.0
        }
    }
}

/// Outcome of a submission attempt (see [`AdmissionPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Queued; the payload is the new queue depth.
    Accepted(usize),
    /// Rejected under the shed policy.
    Shed,
    /// Queue full under the block policy — the caller must drain this
    /// session and retry.
    MustDrain,
}

/// A session's pending requests, detached for batch compute. `base` is the
/// stream position of row 0, so offset batch invocation reproduces the
/// per-row fault stream bit-exactly.
#[derive(Debug)]
pub(crate) struct PendingBatch {
    pub(crate) base: usize,
    pub(crate) rows: usize,
    pub(crate) inputs: Vec<f64>,
    /// Per-row zoo tier decisions, fixed serially at detach time from the
    /// session's routing bar (`None` without a zoo). Routing before the
    /// parallel phase keeps the decision a pure function of (input,
    /// session state), independent of worker count.
    pub(crate) routes: Option<Vec<usize>>,
}

impl PendingBatch {
    /// The queued inputs as a `rows × input_dim` matrix view.
    pub(crate) fn view(&self, input_dim: usize) -> MatrixView<'_> {
        MatrixView::new(&self.inputs, self.rows, input_dim)
    }
}

/// One tenant: calibrated pipeline, bounded request queue, completed
/// results, counters.
#[derive(Debug)]
pub struct Session {
    name: String,
    kernel: Box<dyn Kernel>,
    system: RumbaSystem,
    admission: AdmissionPolicy,
    queue: QueueConfig,
    fault_plan: Option<FaultPlan>,
    /// The full opening configuration, kept verbatim so a snapshot can
    /// reproduce this session on any shard or process.
    config: SessionConfig,
    cpu_cycles: f64,
    /// Flat row-major request queue (depth = `pending_rows`).
    pending_inputs: Vec<f64>,
    pending_rows: usize,
    completed: VecDeque<SessionResult>,
    scratch: Scratch,
    batch_out: Matrix,
    out_buf: Vec<f64>,
    exact_buf: Vec<f64>,
    stats: SessionStats,
}

impl Session {
    /// Opens a session: trains (or cache-loads) the app, calibrates the
    /// checker threshold exactly as `rumba run` does, and arms the
    /// per-session fault plan and watchdog.
    ///
    /// # Errors
    ///
    /// Fails on unknown kernels, invalid configuration, or offline
    /// training failures.
    pub fn open(name: &str, config: SessionConfig) -> Result<Self, ServeError> {
        let kernel = Self::checked_kernel(&config)?;
        let app = train_app(kernel.as_ref(), &offline_config(&config))?;
        let calibration = Calibration::run(&app, &config, kernel.as_ref())?;
        let threshold = calibration.threshold;
        let session = Self::assemble(name, config, kernel, &app, threshold, Some(calibration))?;
        session.emit_session_event("open");
        Ok(session)
    }

    /// Rebuilds a session from a [`Session::snapshot`] line under `name`
    /// (which need not match the snapshotted session's name — placement is
    /// a pure hash of the name, so restoring under a new name migrates the
    /// stream to whatever shard owns it). The restored session continues
    /// bit-for-bit where the snapshot was taken: same tuner threshold,
    /// checker history, fault-stream position, queued inputs, and
    /// uncollected results. Everything but the runtime block's contents
    /// is read and checked before any training is paid for.
    ///
    /// # Errors
    ///
    /// Fails on malformed snapshot text, a configuration `open` would
    /// reject, unknown kernels, or offline training failures.
    pub fn restore(name: &str, text: &str) -> Result<Self, ServeError> {
        let malformed = |e: String| ServeError::InvalidConfig(format!("snapshot: {e}"));
        let (kernel, words) = snapshot::decode(text).map_err(malformed)?;
        let mut r = WordReader::new(&words);
        let config = snapshot::read_config(kernel, &mut r).map_err(malformed)?;
        let kernel = Self::checked_kernel(&config)?;
        let state = snapshot::read_state(&mut r, &config, kernel.as_ref()).map_err(malformed)?;
        let app = train_app(kernel.as_ref(), &offline_config(&config))?;
        // The placeholder threshold never fires: `import_state` rebuilds
        // the tuner at the snapshotted threshold (and the calibration
        // anchor), so the calibration probe is skipped unless a zoo's
        // bars need it.
        let mut session = Self::assemble(name, config, kernel, &app, 1.0, None)?;
        session.system.import_state(state.runtime).map_err(malformed)?;
        session.stats = state.stats;
        session.pending_inputs.extend(state.inputs.iter().map(|&w| f64::from_bits(w)));
        session.pending_rows = state.rows;
        session.completed = state.completed;
        session.emit_session_event("restore");
        Ok(session)
    }

    /// The check `open` and `restore` share before any training: a known
    /// kernel and a configuration [`SessionConfig::validate`] accepts.
    fn checked_kernel(config: &SessionConfig) -> Result<Box<dyn Kernel>, ServeError> {
        let kernel = kernel_by_name(&config.kernel)
            .ok_or_else(|| ServeError::UnknownKernel(config.kernel.clone()))?;
        config.validate()?;
        Ok(kernel)
    }

    /// Serializes the session's full live state as one plain-text line of
    /// hex words (see [`crate::snapshot`] for the format). The session
    /// keeps running; the snapshot is a copy, not a detach.
    #[must_use]
    pub fn snapshot(&self) -> String {
        let inputs = &self.pending_inputs[..self.pending_rows * self.kernel.input_dim()];
        let runtime = self.system.export_state();
        let mut words = Vec::with_capacity(64 + runtime.len() + inputs.len());
        snapshot::write_config(&self.config, &mut words);
        snapshot::write_state(
            &mut words,
            &runtime,
            &self.stats,
            self.pending_rows,
            inputs,
            &self.completed,
        );
        snapshot::encode(&self.config.kernel, &words)
    }

    /// Shared construction path of [`Session::open`] and
    /// [`Session::restore`]: assembles the pipeline for a validated
    /// configuration around an already-trained app at the given threshold.
    /// A zoo's bars reuse `calibration` when the caller already ran it
    /// and run it here otherwise.
    fn assemble(
        name: &str,
        config: SessionConfig,
        kernel: Box<dyn Kernel>,
        app: &TrainedApp,
        threshold: f64,
        calibration: Option<Calibration>,
    ) -> Result<Self, ServeError> {
        let checker = build_checker(config.checker, app, kernel.as_ref())?;
        let runtime = RuntimeConfig {
            window: config.window,
            recovery_queue_capacity: config.queue.recovery_capacity,
            watchdog: config.watchdog,
            fix_policy: config.fix_policy,
            ..RuntimeConfig::default()
        };
        let mut system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(checker),
            Tuner::new(config.mode, threshold)?,
            runtime,
        )?;
        system.set_session_label(name);
        system.set_fault_plan(config.faults.clone());
        if config.zoo > 0 {
            let zoo = train_zoo(kernel.as_ref(), app, &offline_config(&config), config.zoo)?;
            // The bar base is calibrated on the train split under the same
            // mean-error contract as the firing threshold (a raw 1 - toq
            // per-invocation cut would over-route to exact CPU).
            let Calibration { train, predicted, threshold: fire_threshold } = match calibration {
                Some(calibration) => calibration,
                None => Calibration::run(app, &config, kernel.as_ref())?,
            };
            // A tenth of the budget is held back as generalization margin
            // (the tiers and routers were fit on this same split).
            let budget = 0.9 * quality_budget(config.mode);
            let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
            // The top tier is the app's own accelerator, whose errors on
            // this split the app already carries.
            let mut tier_errors: Vec<Vec<f64>> = zoo
                .tiers()
                .iter()
                .map(|t| {
                    if t.npu == app.rumba_npu {
                        Ok(app.train_errors.clone())
                    } else {
                        invocation_errors(kernel.as_ref(), &t.npu, &train)
                    }
                })
                .collect::<Result<_, _>>()?;
            let bar = zoo.calibrate_bar(&rows, &tier_errors, budget);
            // Queue-pressure degradation may widen the bar only as far as
            // the checker/recovery loop can still vouch for the budget:
            // rows the checker flags re-execute exactly at every tier, so
            // they are credited as zero error and the same calibration run
            // again gives the widest safe bar. The mask uses the
            // calibration-time threshold — a pure function of the config,
            // not the tuner's adaptive state — so `restore` rebuilds the
            // identical ceiling.
            for errors in &mut tier_errors {
                for (e, p) in errors.iter_mut().zip(&predicted) {
                    if *p > fire_threshold {
                        *e = 0.0;
                    }
                }
            }
            let ceiling = zoo.calibrate_bar(&rows, &tier_errors, budget);
            system.attach_zoo(zoo, bar)?;
            system.set_zoo_pressure_ceiling(ceiling);
        }
        // Armed before `begin_stream` (and thus before any `restore`
        // imports state), so a snapshot's refit tail — epoch, audit
        // accumulators, re-fit model words, reservoir — parses and lands
        // in an already-armed runtime.
        if config.refit {
            system.arm_refit(RefitConfig {
                quality_budget: quality_budget(config.mode),
                ..RefitConfig::default()
            })?;
        }
        system.begin_stream();

        let (input_dim, output_dim) = (kernel.input_dim(), kernel.output_dim());
        let cpu_cycles = kernel.cpu_cycles();
        Ok(Self {
            name: name.to_owned(),
            kernel,
            system,
            admission: config.admission,
            queue: config.queue,
            fault_plan: config.faults.clone(),
            cpu_cycles,
            pending_inputs: Vec::with_capacity(config.queue.input_capacity * input_dim),
            pending_rows: 0,
            completed: VecDeque::new(),
            scratch: Scratch::new(),
            batch_out: Matrix::default(),
            out_buf: vec![0.0; output_dim],
            exact_buf: vec![0.0; output_dim],
            stats: SessionStats::default(),
            config,
        })
    }

    fn emit_session_event(&self, action: &str) {
        if rumba_obs::enabled() {
            rumba_obs::global_sink().emit(&Event::Session {
                session: self.name.clone(),
                action: action.to_owned(),
                kernel: self.kernel.name().to_owned(),
                invocations: self.stats.processed,
                fixes: self.stats.fixes,
                shed: self.stats.shed,
                threshold: self.system.tuner().threshold(),
            });
        }
    }

    /// Session name (the telemetry label).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Kernel name served by this session.
    #[must_use]
    pub fn kernel_name(&self) -> &str {
        self.kernel.name()
    }

    /// Request payload width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.kernel.input_dim()
    }

    /// Current request-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.pending_rows
    }

    /// Configured request-queue bound (before fault-induced pressure).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.queue.input_capacity
    }

    /// Completed results waiting to be collected.
    #[must_use]
    pub fn results_ready(&self) -> usize {
        self.completed.len()
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Current firing threshold of the session's tuner.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.system.tuner().threshold()
    }

    /// Admission policy.
    #[must_use]
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// This drain's NPU (shared-topology accelerator state is immutable
    /// during serving, so the scheduler can borrow it across threads).
    #[must_use]
    pub(crate) fn npu(&self) -> &Npu {
        self.system.npu()
    }

    /// The session's model zoo, if one is attached (immutable during
    /// serving, so the scheduler can borrow it across threads like the
    /// NPU).
    #[must_use]
    pub(crate) fn zoo(&self) -> Option<&ModelZoo> {
        self.system.zoo()
    }

    /// The session's current queue-pressure degradation rung (0 = no
    /// degradation; meaningful only with a zoo attached).
    #[must_use]
    pub fn zoo_pressure(&self) -> u32 {
        self.system.zoo_pressure()
    }

    /// Online checker refits committed so far (0 unless the session was
    /// opened with `refit`).
    #[must_use]
    pub fn refit_epoch(&self) -> u64 {
        self.system.refit_epoch()
    }

    /// Whole-stream per-tier routing counts (`zoo + 1` slots, last =
    /// exact CPU; empty without a zoo).
    #[must_use]
    pub fn stream_tiers(&self) -> &[u64] {
        self.system.stream_tiers()
    }

    /// Queue bound after `QueuePressure` faults shrink it — never below 1,
    /// so a pressured session degrades to request-at-a-time service
    /// instead of deadlocking.
    #[must_use]
    pub fn effective_capacity(&self) -> usize {
        let cap = self.queue.input_capacity;
        match &self.fault_plan {
            Some(plan) => {
                let pressured = cap.saturating_sub(
                    plan.queue_pressure(self.system.stream_invocations() + self.pending_rows),
                );
                pressured.max(1)
            }
            None => cap,
        }
    }

    /// Attempts to queue one request. Does not run the pipeline; the
    /// `Block` full-queue case is reported as [`Admit::MustDrain`] for the
    /// registry to resolve (draining needs the scheduler).
    pub(crate) fn try_submit(&mut self, input: &[f64]) -> Result<Admit, ServeError> {
        let dim = self.kernel.input_dim();
        if input.len() != dim {
            return Err(ServeError::InvalidInput(format!(
                "kernel {} expects {dim} inputs, got {}",
                self.kernel.name(),
                input.len()
            )));
        }
        if self.pending_rows >= self.effective_capacity() {
            // Degrade before shedding: every full-queue event raises the
            // zoo's pressure rung (doubling the routing bar), sliding
            // subsequent traffic toward cheaper tiers so drains finish
            // sooner. The rung decays as drains run under-capacity.
            let rung = self.system.zoo_pressure();
            if self.system.zoo().is_some() && rung < MAX_ZOO_PRESSURE {
                self.system.set_zoo_pressure(rung + 1);
            }
            return match self.admission {
                AdmissionPolicy::Shed => {
                    self.stats.shed += 1;
                    self.emit_admission();
                    Ok(Admit::Shed)
                }
                AdmissionPolicy::Block => Ok(Admit::MustDrain),
            };
        }
        self.pending_inputs.extend_from_slice(input);
        self.pending_rows += 1;
        self.stats.submitted += 1;
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.pending_rows);
        Ok(Admit::Accepted(self.pending_rows))
    }

    /// Counts a blocking admission and emits its telemetry; the registry
    /// calls this right before the forced drain.
    pub(crate) fn note_blocked(&mut self) {
        self.stats.blocked += 1;
        self.emit_admission();
    }

    fn emit_admission(&self) {
        if rumba_obs::enabled() {
            rumba_obs::global_sink().emit(&Event::Admission {
                session: self.name.clone(),
                policy: self.admission.label().to_owned(),
                queue_depth: self.pending_rows as u64,
                capacity: self.effective_capacity() as u64,
                shed_total: self.stats.shed,
            });
        }
    }

    /// Detaches the pending queue as a batch for compute, stamped with its
    /// stream base position.
    pub(crate) fn take_pending(&mut self) -> Option<PendingBatch> {
        if self.pending_rows == 0 {
            return None;
        }
        let mut batch = PendingBatch {
            base: self.system.stream_invocations(),
            rows: self.pending_rows,
            inputs: std::mem::take(&mut self.pending_inputs),
            routes: None,
        };
        // Route the whole batch serially at the drain-time bar (which only
        // moves at window flushes and pressure changes), before any
        // parallel compute sees it.
        batch.routes = self.system.route_rows(batch.view(self.kernel.input_dim()));
        self.pending_rows = 0;
        Some(batch)
    }

    /// Replays a computed batch through the stateful decision path —
    /// checker, threshold, recovery, merge, window tuning — in arrival
    /// order, exactly as a solo stream would, and accounts the drain's
    /// event-level pipeline timing.
    pub(crate) fn absorb(&mut self, batch: PendingBatch, approx: Matrix) -> usize {
        let dim = self.kernel.input_dim();
        let out_dim = self.kernel.output_dim();
        let metric = self.kernel.metric();
        let mut fired = vec![false; batch.rows];
        for (i, fired_slot) in fired.iter_mut().enumerate() {
            let input = &batch.inputs[i * dim..(i + 1) * dim];
            let tier = batch.routes.as_ref().map(|r| r[i]);
            let outcome =
                self.system.replay(&*self.kernel, input, tier, approx.row(i), &mut self.out_buf);
            // CPU-routed rows occupy the CPU lane of the drain's pipeline
            // simulation exactly like a fired re-execution does.
            *fired_slot = outcome.fired || outcome.cpu_routed;
            // Fired (re-executed, never compensated) and CPU-routed rows
            // already hold the exact result; the kernel is pure, so the
            // oracle reuses it instead of computing it a second time.
            if *fired_slot {
                self.exact_buf.copy_from_slice(&self.out_buf[..out_dim]);
            } else {
                self.kernel.compute(input, &mut self.exact_buf);
            }
            let err = metric.invocation_error(&self.exact_buf, &self.out_buf[..out_dim]);
            self.stats.processed += 1;
            self.stats.error_sum += err;
            self.completed.push_back(SessionResult {
                index: batch.base + i,
                output: self.out_buf[..out_dim].to_vec(),
                fired: outcome.fired,
                predicted_error: outcome.predicted_error,
                measured_error: err,
            });
        }
        self.stats.fixes = self.system.stream_fixes() as u64;
        self.stats.compensated = self.system.stream_compensations() as u64;

        let run = simulate_detailed_with_faults(
            batch.rows,
            self.system.npu().cycles_per_invocation() as f64,
            self.cpu_cycles,
            &fired,
            self.queue,
            self.fault_plan.as_ref(),
        );
        self.stats.drains += 1;
        if run.back_pressured() {
            self.stats.back_pressured_drains += 1;
        }
        self.stats.recovery_high_water =
            self.stats.recovery_high_water.max(run.recovery_high_water);
        self.stats.total_cycles += run.total_cycles;
        self.stats.cpu_busy_cycles += run.cpu_busy_cycles;

        // Under-capacity drains release queue-pressure degradation one
        // rung at a time, the inverse of the full-queue raise (a no-op
        // without a zoo).
        if batch.rows * 2 < self.effective_capacity() {
            let rung = self.system.zoo_pressure();
            self.system.set_zoo_pressure(rung.saturating_sub(1));
        }

        // Hand the (now larger-capacity) buffers back for reuse.
        if self.pending_inputs.capacity() < batch.inputs.capacity() {
            self.pending_inputs = batch.inputs;
            self.pending_inputs.clear();
        }
        self.batch_out = approx;
        batch.rows
    }

    /// Drains this session's queue through the pipeline serially (the
    /// single-tenant path; the registry's `drain_all` fans compute out
    /// instead).
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn drain(&mut self) -> Result<usize, ServeError> {
        let Some(batch) = self.take_pending() else { return Ok(0) };
        let mut out = std::mem::take(&mut self.batch_out);
        approximate(
            self.system.npu(),
            self.system.zoo(),
            batch.base,
            batch.view(self.kernel.input_dim()),
            batch.routes.as_deref(),
            &mut self.scratch,
            &mut out,
        )?;
        Ok(self.absorb(batch, out))
    }

    /// Collects all completed results in submission order.
    pub fn take_results(&mut self) -> Vec<SessionResult> {
        self.completed.drain(..).collect()
    }

    /// Closes the session: drains whatever is still queued, flushes the
    /// final partial tuning window, and emits the session-tagged run
    /// summary plus the close marker.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures from the final drain.
    pub fn finish(mut self) -> Result<(SessionStats, Vec<SessionResult>), ServeError> {
        self.drain()?;
        self.system.end_stream(&*self.kernel);
        self.stats.final_threshold = self.system.tuner().threshold();
        if rumba_obs::enabled() {
            let sink = rumba_obs::global_sink();
            sink.emit(&Event::RunSummary {
                kernel: self.kernel.name().to_owned(),
                invocations: self.stats.processed,
                fixes: self.stats.fixes,
                compensated: self.stats.compensated,
                output_error: self.stats.mean_error(),
                windows: self.system.windows_flushed(),
                cpu_utilization: self.stats.cpu_utilization(),
                final_threshold: self.system.tuner().threshold(),
                tiers: self.system.stream_tiers().to_vec(),
                session: self.name.clone(),
            });
            sink.emit(&Event::Session {
                session: self.name.clone(),
                action: "close".to_owned(),
                kernel: self.kernel.name().to_owned(),
                invocations: self.stats.processed,
                fixes: self.stats.fixes,
                shed: self.stats.shed,
                threshold: self.system.tuner().threshold(),
            });
        }
        let results = self.completed.into_iter().collect();
        Ok((self.stats, results))
    }
}

fn offline_config(config: &SessionConfig) -> OfflineConfig {
    OfflineConfig { seed: config.seed, ..OfflineConfig::default() }
}

fn build_checker(
    kind: CheckerKind,
    app: &TrainedApp,
    kernel: &dyn Kernel,
) -> Result<Box<dyn ErrorEstimator>, ServeError> {
    Ok(match kind {
        CheckerKind::Linear => Box::new(app.linear.clone()),
        CheckerKind::Tree => Box::new(app.tree.clone()),
        CheckerKind::Ema => Box::new(EmaDetector::new(app.ema_window, kernel.output_dim())?),
        CheckerKind::Evp => Box::new(app.evp.clone()),
    })
}

/// One pass over the train split: the split itself, a fresh checker's
/// per-invocation error predictions over the accelerator's outputs on it,
/// and the firing threshold whose rate meets the mode's error target on
/// the training errors (identical to `rumba run`). Pure in the app and
/// config, so `open` and `restore` reproduce it bit-for-bit; the zoo's
/// bars are calibrated on the same split and predictions.
struct Calibration {
    train: NnDataset,
    predicted: Vec<f64>,
    threshold: f64,
}

impl Calibration {
    fn run(
        app: &TrainedApp,
        config: &SessionConfig,
        kernel: &dyn Kernel,
    ) -> Result<Self, ServeError> {
        let train = kernel.generate(Split::Train, config.seed);
        let mut probe = build_checker(config.checker, app, kernel)?;
        let (predicted, threshold) =
            app.calibrate(probe.as_mut(), &train, quality_budget(config.mode))?;
        Ok(Self { train, predicted, threshold })
    }
}

/// The session's mean-error budget: the threshold calibration target,
/// and — when a zoo is attached — the budget
/// [`ModelZoo::calibrate_bar`] fits the routing bar to.
fn quality_budget(mode: TuningMode) -> f64 {
    match mode {
        TuningMode::TargetQuality { toq } => 1.0 - toq,
        _ => 0.10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zoo session's routing bar and pressure ceiling, recomputed the
    /// long way: every tier replayed over a freshly generated split and
    /// the checker probed again. `open` and `restore` must land on the
    /// same bits while reusing one calibration pass and the app's own
    /// train errors for the top tier.
    #[test]
    fn zoo_bars_match_a_recomputation_from_fresh_replays() {
        for name in ["gaussian", "fft"] {
            let config = SessionConfig { kernel: name.to_owned(), zoo: 3, ..Default::default() };
            let kernel = kernel_by_name(name).unwrap();
            let offline = offline_config(&config);
            let app = train_app(kernel.as_ref(), &offline).unwrap();
            let zoo = train_zoo(kernel.as_ref(), &app, &offline, config.zoo).unwrap();
            let train = kernel.generate(Split::Train, config.seed);
            let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
            let mut tier_errors: Vec<Vec<f64>> = zoo
                .tiers()
                .iter()
                .map(|t| invocation_errors(kernel.as_ref(), &t.npu, &train).unwrap())
                .collect();
            let budget = 0.9 * quality_budget(config.mode);
            let bar = zoo.calibrate_bar(&rows, &tier_errors, budget);
            let Calibration { predicted, threshold, .. } =
                Calibration::run(&app, &config, kernel.as_ref()).unwrap();
            for errors in &mut tier_errors {
                for (e, p) in errors.iter_mut().zip(&predicted) {
                    if *p > threshold {
                        *e = 0.0;
                    }
                }
            }
            let ceiling = zoo.calibrate_bar(&rows, &tier_errors, budget).max(bar);

            let opened = Session::open("a", config.clone()).unwrap();
            let restored = Session::restore("b", &opened.snapshot()).unwrap();
            for mut session in [opened, restored] {
                let scale = session.system.tuner().tier_scale().unwrap_or(1.0);
                let bits = |s: &Session| s.system.routing_bar().unwrap().to_bits();
                assert_eq!(bits(&session), (bar * scale).to_bits(), "{name} base bar");
                session.system.set_zoo_pressure(MAX_ZOO_PRESSURE);
                let widest = (bar * f64::from(1u32 << MAX_ZOO_PRESSURE)).min(ceiling) * scale;
                assert_eq!(bits(&session), widest.to_bits(), "{name} pressured bar");
            }
        }
    }
}
