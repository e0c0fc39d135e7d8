//! The `offline` workload: for each Table-1 kernel, `RumbaSystem::run`
//! over its test split single-model and with a 3-tier zoo, plus one
//! seeded drift scenario streamed through `RumbaSystem::process` with the
//! re-fit armed.

use std::io;
use std::time::Instant;

use rumba_accel::CheckerUnit;
use rumba_apps::{Kernel, Split};
use rumba_core::openworld::{scenarios, ScenarioStream};
use rumba_core::runtime::{RefitConfig, RumbaSystem, RuntimeConfig, WatchdogConfig};
use rumba_core::trainer::{invocation_errors, train_app, OfflineConfig, TrainedApp};
use rumba_core::tuner::{calibrate_threshold, Tuner, TuningMode};
use rumba_core::zoo::{train_zoo, ModelZoo};
use rumba_faults::FaultPlan;
use rumba_nn::{Matrix, Scratch};
use rumba_predict::ErrorEstimator;

use crate::engine::Tally;
use crate::gen::{all_pools, Pool, MODEL_SEED};
use crate::report::{end_to_end, Report};
use crate::serve::SETUP_REPS;
use crate::stats::{secs, Fnv};

/// Target output quality of the batch runs.
pub const TOQ: f64 = 0.9;
/// Zoo tiers of the zoo half.
pub const TIERS: usize = 3;
/// Streamed invocations per drift scenario (the drift ramps in from
/// invocation 256 over 256 more).
pub const STREAM_ROWS: usize = 768;
/// Tuning window of the drift streams.
pub const STREAM_WINDOW: usize = 64;

/// One kernel, trained, calibrated and ready to run.
pub struct Rig {
    pub pool: Pool,
    pub app: TrainedApp,
    pub threshold: f64,
    pub zoo: ModelZoo,
    pub bar: f64,
    pub stream_inputs: Vec<Vec<f64>>,
    pub stream_plan: Option<FaultPlan>,
    pub stream_threshold: f64,
    pub stream_limit: f64,
    pub stream_budget: f64,
}

/// Tree-checker predictions over the train split's accelerator outputs.
fn train_predictions(kernel: &dyn Kernel, app: &TrainedApp) -> io::Result<Vec<f64>> {
    let train = kernel.generate(Split::Train, MODEL_SEED);
    let mut probe = app.tree.clone();
    let mut scratch = Scratch::new();
    let mut approx = Matrix::default();
    app.rumba_npu
        .invoke_batch(train.inputs_view(), &mut scratch, &mut approx)
        .map_err(io::Error::other)?;
    Ok((0..train.len()).map(|i| probe.estimate(train.input(i), approx.row(i))).collect())
}

impl Rig {
    /// Loads (warm cache) and calibrates one kernel exactly as `rumba run`
    /// and `rumba zoo` do, and builds its drift stream from `pool`.
    ///
    /// # Errors
    ///
    /// Training or calibration failures.
    pub fn new(pool: Pool, seed: u64) -> io::Result<Self> {
        let kernel = pool.kernel.as_ref();
        let cfg = OfflineConfig { seed: MODEL_SEED, ..OfflineConfig::default() };
        let app = train_app(kernel, &cfg).map_err(io::Error::other)?;
        let zoo = train_zoo(kernel, &app, &cfg, TIERS).map_err(io::Error::other)?;
        let predicted = train_predictions(kernel, &app)?;
        let budget = 1.0 - TOQ;
        let threshold = calibrate_threshold(&predicted, &app.train_errors, budget);

        // The routing bar, as `rumba zoo` calibrates it: rows the checker
        // fires on re-execute exactly, so they count as zero error.
        let train = kernel.generate(Split::Train, MODEL_SEED);
        let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
        let mut tier_errors = Vec::with_capacity(zoo.len());
        for tier in zoo.tiers() {
            let mut errs =
                invocation_errors(kernel, &tier.npu, &train).map_err(io::Error::other)?;
            for (e, p) in errs.iter_mut().zip(&predicted) {
                if *p > threshold {
                    *e = 0.0;
                }
            }
            tier_errors.push(errs);
        }
        let bar = zoo.calibrate_bar(&rows, &tier_errors, 0.9 * budget);

        // The drift stream, scaled to the kernel as `rumba drift` does.
        let clean =
            invocation_errors(kernel, &app.rumba_npu, &pool.data).map_err(io::Error::other)?;
        let mean = clean.iter().sum::<f64>() / clean.len().max(1) as f64;
        let stream_limit = (2.0 * mean).max(1e-9);
        let stream_budget = (0.5 * mean).max(1e-9);
        let stream_threshold = calibrate_threshold(&predicted, &app.train_errors, stream_budget);
        let drift = scenarios().into_iter().find(|s| s.name == "drift").expect("drift scenario");
        let stream = ScenarioStream::new(&pool.data, seed, drift);
        let stream_inputs = stream.inputs(STREAM_ROWS);
        let stream_plan = stream.fault_plan();
        Ok(Self {
            pool,
            app,
            threshold,
            zoo,
            bar,
            stream_inputs,
            stream_plan,
            stream_threshold,
            stream_limit,
            stream_budget,
        })
    }

    fn kernel(&self) -> &dyn Kernel {
        self.pool.kernel.as_ref()
    }

    /// A fresh single-model system (zoo attached when `zoo`).
    ///
    /// # Errors
    ///
    /// Construction failures.
    pub fn batch_system(&self, zoo: bool) -> io::Result<RumbaSystem> {
        let mut system = RumbaSystem::new(
            self.app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(self.app.tree.clone())),
            Tuner::new(TuningMode::TargetQuality { toq: TOQ }, self.threshold)
                .map_err(io::Error::other)?,
            RuntimeConfig::default(),
        )
        .map_err(io::Error::other)?;
        if zoo {
            system.attach_zoo(self.zoo.clone(), self.bar).map_err(io::Error::other)?;
        }
        Ok(system)
    }

    /// A fresh drift-stream system: watchdog, re-fit armed, drift plan.
    ///
    /// # Errors
    ///
    /// Construction failures.
    pub fn stream_system(&self) -> io::Result<RumbaSystem> {
        let mut system = RumbaSystem::new(
            self.app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(self.app.tree.clone())),
            Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, self.stream_threshold)
                .map_err(io::Error::other)?,
            RuntimeConfig {
                window: STREAM_WINDOW,
                watchdog: Some(WatchdogConfig {
                    quality_limit: self.stream_limit,
                    patience: 2,
                    fallback_patience: 8,
                }),
                ..RuntimeConfig::default()
            },
        )
        .map_err(io::Error::other)?;
        system
            .arm_refit(RefitConfig {
                capacity: 192,
                min_rows: 24,
                audit_period: 8,
                quality_budget: self.stream_budget,
            })
            .map_err(io::Error::other)?;
        system.set_fault_plan(self.stream_plan.clone());
        Ok(system)
    }
}

/// Which of a kernel's three calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Run,
    RunZoo,
    Stream,
}

/// What one call returned.
pub struct CallOut {
    pub secs: f64,
    pub rows: usize,
    pub merged: Vec<f64>,
    pub fired: Vec<bool>,
}

/// Executes one call on a fresh system; only the call itself is timed.
///
/// # Errors
///
/// Pipeline failures.
pub fn call(rig: &Rig, which: Call) -> io::Result<CallOut> {
    let kernel = rig.kernel();
    match which {
        Call::Run | Call::RunZoo => {
            let mut system = rig.batch_system(which == Call::RunZoo)?;
            let t = Instant::now();
            let out = system.run(kernel, &rig.pool.data).map_err(io::Error::other)?;
            let secs = secs(t);
            Ok(CallOut {
                secs,
                rows: rig.pool.data.len(),
                merged: out.merged_outputs,
                fired: out.fired,
            })
        }
        Call::Stream => {
            let mut system = rig.stream_system()?;
            let out_dim = kernel.output_dim();
            let mut merged = vec![0.0; rig.stream_inputs.len() * out_dim];
            let mut fired = Vec::with_capacity(rig.stream_inputs.len());
            let t = Instant::now();
            system.begin_stream();
            for (input, out) in rig.stream_inputs.iter().zip(merged.chunks_mut(out_dim)) {
                let outcome = system.process(kernel, input, out).map_err(io::Error::other)?;
                fired.push(outcome.fired);
            }
            system.end_stream(kernel);
            let secs = secs(t);
            Ok(CallOut { secs, rows: rig.stream_inputs.len(), merged, fired })
        }
    }
}

/// The calls of one unit, in order.
pub const CALLS: [Call; 3] = [Call::Run, Call::RunZoo, Call::Stream];

/// Exact outputs of every row a unit's calls return, in call order.
fn exact_outputs(rigs: &[Rig]) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for rig in rigs {
        let kernel = rig.kernel();
        for which in CALLS {
            match which {
                Call::Run | Call::RunZoo => {
                    let data = &rig.pool.data;
                    out.push((0..data.len()).flat_map(|i| data.target(i).to_vec()).collect());
                }
                Call::Stream => {
                    out.push(rig.stream_inputs.iter().flat_map(|x| kernel.compute_vec(x)).collect())
                }
            }
        }
    }
    out
}

/// Builds every kernel's rig.
///
/// # Errors
///
/// Training or calibration failures.
pub fn setup(seed: u64) -> io::Result<Vec<Rig>> {
    all_pools(seed).into_iter().map(|pool| Rig::new(pool, seed)).collect()
}

/// One pass over every kernel's calls: per-call outputs hashed into
/// `hash`, timings and counts into `tally`, quality scored against
/// `exact` when given.
fn unit(
    rigs: &[Rig],
    tally: &mut Tally,
    hash: &mut Fnv,
    exact: Option<&[Vec<f64>]>,
) -> io::Result<()> {
    let (mut rows, mut secs_sum) = (0u64, 0.0);
    let mut k = 0;
    for rig in rigs {
        let out_dim = rig.kernel().output_dim();
        let metric = rig.kernel().metric();
        for which in CALLS {
            let out = call(rig, which)?;
            tally.latency_us.push(out.secs * 1e6);
            tally.attempted += out.rows as u64;
            let returned = out.merged.len() / out_dim;
            tally.results += returned.min(out.rows) as u64;
            rows += out.rows as u64;
            secs_sum += out.secs;
            hash.floats(&out.merged);
            hash.line(&out.fired.iter().map(|&f| u8::from(f)).collect::<Vec<_>>());
            if let Some(exact) = exact {
                let exact = &exact[k];
                for (i, (e, m)) in exact.chunks(out_dim).zip(out.merged.chunks(out_dim)).enumerate()
                {
                    tally.quality_error_sum += metric.invocation_error(e, m);
                    tally.quality_fired += u64::from(out.fired.get(i).copied().unwrap_or(false));
                    tally.quality_results += 1;
                }
            }
            k += 1;
        }
    }
    tally.units.push((rows, secs_sum));
    Ok(())
}

/// `offline`: the fixed call sequence, repeated for `seconds`.
///
/// # Errors
///
/// Setup or pipeline failures.
pub fn offline(seed: u64, seconds: f64) -> io::Result<Report> {
    let mut setups = Vec::new();
    let mut rigs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut rigs));
        let t = Instant::now();
        rigs = setup(seed)?;
        setups.push(secs(t));
    }
    let exact = exact_outputs(&rigs);
    let mut tally = Tally::default();
    let mut first = None;
    let mut drifted = 0usize;
    let start = Instant::now();
    let mut units = 0u64;
    while units < 2 || secs(start) < seconds {
        let mut hash = Fnv::default();
        unit(&rigs, &mut tally, &mut hash, (units == 0).then_some(exact.as_slice()))?;
        match first {
            None => first = Some(hash),
            Some(h) if h != hash => drifted += 1,
            Some(_) => {}
        }
        units += 1;
    }

    // The merged outputs must not depend on the worker count: one pass at
    // the other of {1, the machine's default (at least 2)}.
    let measured = rumba_parallel::max_threads();
    rumba_parallel::set_thread_override(None);
    let default = rumba_parallel::max_threads().max(2);
    let other = if measured == 1 { default } else { 1 };
    rumba_parallel::set_thread_override(Some(other));
    let mut again = Fnv::default();
    let again_run = unit(&rigs, &mut Tally::default(), &mut again, None);
    rumba_parallel::set_thread_override(Some(measured));
    again_run?;

    let mut report = Report::default();
    report.require(drifted == 0, format!("{drifted} repeated units gave different outputs"));
    report.require(
        Some(again) == first,
        format!("merged outputs at {other} threads differ from {measured}"),
    );
    report.require(
        tally.results == tally.attempted,
        format!("{} rows returned of {} attempted", tally.results, tally.attempted),
    );
    end_to_end(&mut report, &tally, &setups, false);
    Ok(report)
}
