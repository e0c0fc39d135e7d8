//! Subcommand implementations. Each returns its output as a `String` so
//! tests can assert on it; `main` just prints.

use rumba_accel::CheckerUnit;
use rumba_apps::{all_kernels, kernel_by_name, Kernel, Split};
use rumba_core::context::AppContext;
use rumba_core::openworld::{scenarios, ScenarioStream};
use rumba_core::report::RunReport;
use rumba_core::runtime::{RefitConfig, RumbaSystem, RuntimeConfig, WatchdogConfig};
use rumba_core::scheme::SchemeKind;
use rumba_core::trainer::{invocation_errors, train_app, OfflineConfig, TrainedApp};
use rumba_core::tuner::{Tuner, TuningMode};
use rumba_core::zoo::train_zoo;
use rumba_energy::{EnergyParams, SystemModel, WorkloadProfile};
use rumba_faults::{FaultModel, FaultPlan};
use rumba_nn::encode_model;
use rumba_predict::{EmaDetector, ErrorEstimator, MaxEnsemble, TableErrors, TableParams};

use crate::args::{CheckerChoice, ModeChoice};

/// Error type for command execution: a human-readable message.
#[derive(Debug)]
pub struct CommandError(pub String);

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CommandError {}

macro_rules! wrap_error {
    ($($source:ty),+ $(,)?) => {
        $(impl From<$source> for CommandError {
            fn from(e: $source) -> Self {
                CommandError(e.to_string())
            }
        })+
    };
}

wrap_error!(
    rumba_core::RumbaError,
    rumba_nn::NnError,
    rumba_predict::PredictError,
    rumba_apps::purity::PurityViolation,
);

fn resolve(kernel: &str) -> Result<Box<dyn Kernel>, CommandError> {
    kernel_by_name(kernel)
        .ok_or_else(|| CommandError(format!("unknown benchmark '{kernel}' (try 'rumba list')")))
}

/// `rumba list`.
#[must_use]
pub fn list() -> String {
    let mut out = String::from("available benchmarks (Table 1):\n");
    for k in all_kernels() {
        out.push_str(&format!(
            "  {:<14} {:<20} {} -> {} | {}\n",
            k.name(),
            k.domain(),
            k.input_dim(),
            k.output_dim(),
            k.metric().paper_name()
        ));
    }
    out.push_str("  gaussian       Didactic (Figure 5)\n");
    out
}

/// `rumba train <kernel>`.
///
/// # Errors
///
/// Returns a [`CommandError`] for unknown benchmarks or training failures.
pub fn train(kernel: &str, seed: u64) -> Result<String, CommandError> {
    let kernel = resolve(kernel)?;
    let cfg = OfflineConfig { seed, ..OfflineConfig::default() };
    let app = train_app(kernel.as_ref(), &cfg)?;
    let mean_err = app.train_errors.iter().sum::<f64>() / app.train_errors.len().max(1) as f64;
    let image_words = encode_model(app.rumba_npu.model()).len();
    Ok(format!(
        "trained {}\n  accelerator      {} ({} cycles/invocation, {} MACs)\n  baseline (NPU)   {} ({} cycles/invocation)\n  train error      {:.2}% mean over {} invocations\n  tree checker     depth {}, {} nodes\n  config image     {} words\n",
        app.name,
        app.rumba_npu.model().mlp().topology_string(),
        app.rumba_npu.cycles_per_invocation(),
        app.rumba_npu.macs_per_invocation(),
        app.baseline_npu.model().mlp().topology_string(),
        app.baseline_npu.cycles_per_invocation(),
        mean_err * 100.0,
        app.train_errors.len(),
        app.tree.tree().depth(),
        app.tree.tree().node_count(),
        image_words,
    ))
}

fn build_checker(
    choice: CheckerChoice,
    app: &TrainedApp,
    kernel: &dyn Kernel,
    seed: u64,
) -> Result<Box<dyn ErrorEstimator>, CommandError> {
    Ok(match choice {
        CheckerChoice::Linear => Box::new(app.linear.clone()),
        CheckerChoice::Tree => Box::new(app.tree.clone()),
        CheckerChoice::Ema => Box::new(EmaDetector::new(app.ema_window, kernel.output_dim())?),
        CheckerChoice::Evp => Box::new(app.evp.clone()),
        CheckerChoice::Table => {
            let train = kernel.generate(Split::Train, seed);
            let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
            Box::new(TableErrors::train(&rows, &app.train_errors, &TableParams::default())?)
        }
        CheckerChoice::Ensemble => Box::new(MaxEnsemble::new(
            Box::new(app.tree.clone()),
            Box::new(EmaDetector::new(app.ema_window, kernel.output_dim())?),
        )),
    })
}

/// `rumba run <kernel> ...`.
///
/// # Errors
///
/// Returns a [`CommandError`] for unknown benchmarks, bad configurations,
/// or execution failures.
pub fn run(
    kernel: &str,
    seed: u64,
    checker: CheckerChoice,
    mode: ModeChoice,
    window: usize,
) -> Result<String, CommandError> {
    let kernel = resolve(kernel)?;
    let cfg = OfflineConfig { seed, ..OfflineConfig::default() };
    let app = train_app(kernel.as_ref(), &cfg)?;

    // Calibrate the initial threshold on the train split with the deployed
    // checker itself.
    let train = kernel.generate(Split::Train, seed);
    let mut probe = build_checker(checker, &app, kernel.as_ref(), seed)?;
    let target = match mode {
        ModeChoice::Toq(q) => 1.0 - q,
        _ => 0.10,
    };
    let (_, threshold) = app.calibrate(probe.as_mut(), &train, target)?;

    let tuning = match mode {
        ModeChoice::Toq(q) => TuningMode::TargetQuality { toq: q },
        ModeChoice::Energy(budget) => TuningMode::EnergyBudget { budget },
        ModeChoice::Quality => TuningMode::BestQuality,
    };
    let mut system = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(build_checker(checker, &app, kernel.as_ref(), seed)?),
        Tuner::new(tuning, threshold)?,
        RuntimeConfig { window, ..RuntimeConfig::default() },
    )?;

    let test = kernel.generate(Split::Test, seed);
    let outcome = system.run(kernel.as_ref(), &test)?;
    let workload = WorkloadProfile {
        invocations: test.len(),
        cpu_cycles_per_invocation: kernel.cpu_cycles(),
        kernel_fraction: kernel.kernel_fraction(),
    };
    let unchecked: f64 = {
        let errs = rumba_core::trainer::invocation_errors(kernel.as_ref(), &app.rumba_npu, &test)?;
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    Ok(format!(
        "unchecked output error: {:.2}%\n{}\n",
        unchecked * 100.0,
        RunReport::new(kernel.name(), &outcome, &workload)
    ))
}

/// Checkers the coverage table evaluates (the §3.2 taxonomy heads:
/// input-based linear/tree, output-based EMA).
const COVERAGE_CHECKERS: [CheckerChoice; 3] =
    [CheckerChoice::Linear, CheckerChoice::Tree, CheckerChoice::Ema];

/// Per-element injection rate for the coverage table. Fixed (rather than
/// tied to `--rate`) so the table always has enough strikes to report a
/// meaningful fraction; `--rate` governs the managed run below it.
const TABLE_RATE: f64 = 2e-2;

/// 95th percentile of the finite values (the clean-stream firing point
/// each checker is held to in the coverage table).
fn percentile95(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    // The 95th-percentile order statistic: the smallest element with at
    // least 95% of the sample at or below it, so under the strict `>`
    // firing rule at most 5% of clean scores fire. The old `len * 95 /
    // 100` cut overshot by one rank whenever 95·len divided evenly,
    // silently halving the clean firing rate at round sample sizes.
    v[(v.len() * 95).div_ceil(100) - 1]
}

/// One kernel's section of the `rumba faults` sweep: clean thresholds,
/// the detection-coverage table, and a managed NaN-injection run.
fn sweep_kernel(name: &str, seed: u64, rate: f64, window: usize) -> Result<String, CommandError> {
    let kernel = resolve(name)?;
    let cfg = OfflineConfig { seed, ..OfflineConfig::default() };
    let app = train_app(kernel.as_ref(), &cfg)?;
    let test = kernel.generate(Split::Test, seed);
    let n = test.len();
    let out_dim = kernel.output_dim();

    // Clean accelerator outputs and, per checker, the clean 95th-percentile
    // prediction — the threshold the coverage table holds each checker to.
    let mut scratch = rumba_nn::Scratch::new();
    let mut clean = rumba_nn::Matrix::default();
    app.rumba_npu.invoke_batch(test.inputs_view(), &mut scratch, &mut clean)?;
    let mut thresholds = Vec::new();
    for choice in COVERAGE_CHECKERS {
        let mut checker = build_checker(choice, &app, kernel.as_ref(), seed)?;
        let preds: Vec<f64> =
            (0..n).map(|i| checker.estimate(test.input(i), clean.row(i))).collect();
        thresholds.push(percentile95(&preds));
    }

    let mut out = format!("== {name} ({n} test invocations, output dim {out_dim}) ==\n");
    out.push_str(&format!(
        "  clean 95th-pct thresholds: linear {:.4}  tree {:.4}  ema {:.4}\n",
        thresholds[0], thresholds[1], thresholds[2]
    ));
    out.push_str(&format!("  detection coverage (injection rate {TABLE_RATE}):\n"));
    out.push_str("    model          injected    linear      tree       ema\n");

    let models = [
        ("bit_flip", FaultModel::BitFlip { rate: TABLE_RATE }),
        ("non_finite", FaultModel::NonFinite { rate: TABLE_RATE }),
        ("stuck_at", FaultModel::StuckAt { start: n / 2, value: 0.0 }),
        ("input_drift", FaultModel::InputDrift { start: n / 2, ramp: 128, magnitude: 0.5 }),
    ];
    for (label, model) in models {
        let plan = FaultPlan::new(seed).with(model);
        let npu = app.rumba_npu.clone().with_fault_plan(plan.clone());
        let mut faulted = rumba_nn::Matrix::default();
        npu.invoke_batch(test.inputs_view(), &mut scratch, &mut faulted)?;

        // Which invocations were actually struck (pure replay of the
        // plan's decisions — no dependence on the data).
        let mut log = Vec::new();
        let injected: Vec<bool> = (0..n)
            .map(|i| {
                if plan.has_output_faults() {
                    plan.output_fault_events(i, out_dim, &mut log) > 0
                } else {
                    plan.drift_input(i, &mut [])
                }
            })
            .collect();
        let struck = injected.iter().filter(|&&s| s).count();

        out.push_str(&format!("    {label:<14} {struck:>8}"));
        for (c, choice) in COVERAGE_CHECKERS.into_iter().enumerate() {
            let mut checker = build_checker(choice, &app, kernel.as_ref(), seed)?;
            let mut detected = 0usize;
            for (i, &struck_here) in injected.iter().enumerate() {
                let pred = checker.estimate(test.input(i), faulted.row(i));
                if struck_here && pred > thresholds[c] {
                    detected += 1;
                }
            }
            if struck == 0 {
                out.push_str("        --");
            } else {
                out.push_str(&format!("   {:>6.1}%", 100.0 * detected as f64 / struck as f64));
            }
        }
        out.push('\n');
    }

    // Managed NaN-injection run: the full online loop (tree checker,
    // watchdog armed) under `--rate` NaN corruption. Quarantine must keep
    // the merged stream finite — a non-finite output is a hard failure so
    // CI can gate on the exit code.
    let plan = FaultPlan::new(seed).with(FaultModel::NonFinite { rate });
    let mut system = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(build_checker(CheckerChoice::Tree, &app, kernel.as_ref(), seed)?),
        Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, thresholds[1].max(1e-9))?,
        RuntimeConfig {
            window,
            watchdog: Some(WatchdogConfig::default()),
            ..RuntimeConfig::default()
        },
    )?;
    system.set_fault_plan(Some(plan));
    let outcome = system.run(kernel.as_ref(), &test)?;
    if !outcome.merged_outputs.iter().all(|v| v.is_finite()) {
        return Err(CommandError(format!(
            "{name}: managed run leaked a non-finite merged output (quarantine failed)"
        )));
    }
    let s = &outcome.fault_stats;
    out.push_str(&format!(
        "  managed NaN run (tree checker, watchdog on, rate {rate:e}):\n    fixes {}  quarantined {}  detected {}  escaped {}  recalibrations {}  fallbacks {}  stage {:?}\n    output error {:.2}%  merged outputs: all finite\n",
        outcome.fixes,
        s.quarantined,
        s.detected,
        s.escaped,
        s.recalibrations,
        s.fallbacks,
        outcome.degrade_stage,
        outcome.output_error * 100.0,
    ));
    Ok(out)
}

/// `rumba faults [flags]` — fault-injection sweep: a Fig.-13-style
/// detection-coverage table (checker x fault model) per kernel, then a
/// managed NaN-injection run demonstrating quarantine and the degradation
/// watchdog. Fails if any managed run leaks a non-finite merged output.
///
/// # Errors
///
/// Returns a [`CommandError`] for unknown benchmarks, training or
/// execution failures, or a leaked non-finite output.
pub fn faults(
    kernels: &[String],
    seed: u64,
    rate: f64,
    window: usize,
) -> Result<String, CommandError> {
    let names: Vec<String> =
        if kernels.is_empty() { vec!["gaussian".into(), "fft".into()] } else { kernels.to_vec() };
    let mut out = format!("rumba faults: seed {seed}, managed-run rate {rate:e}\n\n");
    for name in &names {
        out.push_str(&sweep_kernel(name, seed, rate, window)?);
        out.push('\n');
    }
    Ok(out)
}

/// One kernel's section of the `rumba compensate` sweep: for each
/// Compensate scheme, the re-execution-only fix count that meets the TOQ,
/// the cheapest compensate/re-execute split that still meets it, and the
/// energy per repaired invocation of both. Returns whether the kernel met
/// the TOQ with at least 25% fewer CPU re-executions under either scheme.
fn compensate_kernel(
    name: &str,
    seed: u64,
    toq: f64,
    out: &mut String,
) -> Result<bool, CommandError> {
    use std::fmt::Write;

    let kernel = resolve(name)?;
    let ctx = AppContext::build(kernel.as_ref(), seed)?;
    let n = ctx.len();
    let out_dim = kernel.output_dim();
    // The target is relative to the accelerator's own quality loss: a TOQ
    // of 0.9 obliges recovery to erase 90% of the unchecked output error.
    // (An absolute cut would be vacuous for kernels whose approximation is
    // already tighter than 1 - toq.)
    let target = (1.0 - toq) * ctx.unchecked_output_error();
    let metric = ctx.metric();
    let test = ctx.test_data();
    let model = SystemModel::new(EnergyParams::default());
    let workload = ctx.workload();
    let total_err: f64 = ctx.true_errors().iter().sum();

    let _ = writeln!(
        out,
        "== {name} ({n} test invocations, unchecked error {:.2}%, target {:.2}%) ==",
        ctx.unchecked_output_error() * 100.0,
        target * 100.0,
    );

    let mut kernel_meets = false;
    for scheme in [SchemeKind::CompensateLinear, SchemeKind::CompensateTree] {
        let base = scheme.detection_base();
        let scores = ctx.scores(base);
        let Some(k_re) = ctx.fixes_for_target_error(base, target) else {
            let _ = writeln!(out, "  {:<17} cannot reach the target at any budget", scheme.label());
            continue;
        };
        if k_re == 0 {
            let _ = writeln!(out, "  {:<17} meets the target with no fixes at all", scheme.label());
            kernel_meets = true;
            continue;
        }

        // The compensable repair of every invocation: subtract the
        // checker's signed estimate from every output word. The gain of
        // compensating a row is how much of its true error the repair
        // erases (negative when the signed estimate points the wrong way).
        let signed_est: &dyn ErrorEstimator = match base {
            SchemeKind::LinearErrors => &ctx.trained().linear,
            _ => &ctx.trained().tree,
        };
        let order = scores.fix_order();
        let gain: Vec<f64> = order
            .iter()
            .map(|&i| {
                let approx = &ctx.approx_outputs()[i * out_dim..(i + 1) * out_dim];
                let s = signed_est.estimate_signed(test.input(i), approx, scores.scores()[i]);
                let repaired: Vec<f64> = approx.iter().map(|a| a - s).collect();
                ctx.true_errors()[i] - metric.invocation_error(test.target(i), &repaired)
            })
            .collect();

        // The mixed policy mirrors the runtime's band mechanism: in score
        // order, the worst `m` rows re-execute on the CPU (score above the
        // band), the next `c` rows are compensated in place (score inside
        // the band), everything below the threshold is left alone. For a
        // given m the best band extends to whatever prefix of the
        // remaining rows maximizes the erased error mass; the minimal m
        // meeting the target always exists because m = k_re with an empty
        // band is exactly re-execution-only.
        let mut gain_prefix = vec![0.0f64; n + 1];
        for (j, g) in gain.iter().enumerate() {
            gain_prefix[j + 1] = gain_prefix[j] + g;
        }
        let mut best_to_right = vec![(0.0f64, 0usize); n + 1];
        best_to_right[n] = (gain_prefix[n], n);
        for j in (0..n).rev() {
            // Ties keep the smaller band end: same erased mass, fewer
            // compensations.
            best_to_right[j] = if gain_prefix[j] >= best_to_right[j + 1].0 {
                (gain_prefix[j], j)
            } else {
                best_to_right[j + 1]
            };
        }
        let mut true_prefix = vec![0.0f64; n + 1];
        for (j, &i) in order.iter().enumerate() {
            true_prefix[j + 1] = true_prefix[j] + ctx.true_errors()[i];
        }
        let band_mass = |m: usize| best_to_right[m].0 - gain_prefix[m];
        let mixed_error = |m: usize| (total_err - true_prefix[m] - band_mass(m)) / n as f64;
        let m = (0..=k_re)
            .find(|&m| mixed_error(m) <= target)
            .expect("m = k_re with an empty band is re-execution-only");
        let compensated = best_to_right[m].1 - m;

        let reexec_error = ctx.error_after_fixing(base, k_re);
        let reduction = 100.0 * (k_re - m) as f64 / k_re as f64;
        let cost_re = model.accelerated(&workload, &ctx.scheme_activity(base, k_re));
        let mut mixed_activity = ctx.scheme_activity(base, m);
        mixed_activity.compensations = compensated;
        let (cost_mix, breakdown) = model.accelerated_detailed(&workload, &mixed_activity);

        let _ = writeln!(
            out,
            "  {:<17} reexec-only: {k_re} fixes -> {:.2}% error, {:.0} nJ/fix",
            scheme.label(),
            reexec_error * 100.0,
            cost_re.energy_nj / k_re as f64,
        );
        let _ = writeln!(
            out,
            "  {:<17} mixed: {m} reexec + {compensated} compensated -> {:.2}% error, {:.0} nJ/fix",
            "",
            mixed_error(m) * 100.0,
            cost_mix.energy_nj / (m + compensated).max(1) as f64,
        );
        let _ = writeln!(
            out,
            "  {:<17} {reduction:.1}% fewer CPU re-executions (compensation energy {:.1} nJ)",
            "", breakdown.compensation_nj,
        );
        if reduction >= 25.0 {
            kernel_meets = true;
        }
    }
    Ok(kernel_meets)
}

/// `rumba compensate [flags]` — predict-and-compensate sweep over the
/// offline analysis: how much CPU re-execution the signed-error
/// compensation path saves at equal output quality, and what it costs in
/// energy.
///
/// # Errors
///
/// Returns a [`CommandError`] for unknown benchmarks or training failures.
pub fn compensate(kernels: &[String], seed: u64, toq: f64) -> Result<String, CommandError> {
    let names: Vec<String> = if kernels.is_empty() {
        vec!["gaussian".into(), "fft".into(), "inversek2j".into()]
    } else {
        kernels.to_vec()
    };
    let mut out = format!("rumba compensate: seed {seed}, target output quality {toq}\n\n");
    let mut met = 0usize;
    for name in &names {
        if compensate_kernel(name, seed, toq, &mut out)? {
            met += 1;
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{met} of {} kernels meet the target with >=25% fewer CPU re-executions\n",
        names.len()
    ));
    Ok(out)
}

/// One kernel's section of the `rumba zoo` sweep: train the tier ladder,
/// run the test stream once through the single-model system and once
/// through the zoo-routed system at the same TOQ, and compare modeled
/// energy. Returns whether the routed run met the TOQ at strictly lower
/// modeled energy than the single-model baseline.
fn zoo_kernel(
    name: &str,
    seed: u64,
    toq: f64,
    tiers: usize,
    out: &mut String,
) -> Result<bool, CommandError> {
    use std::fmt::Write;

    let kernel = resolve(name)?;
    let cfg = OfflineConfig { seed, ..OfflineConfig::default() };
    let app = train_app(kernel.as_ref(), &cfg)?;
    let ladder = train_zoo(kernel.as_ref(), &app, &cfg, tiers)?;

    // Calibrate the firing threshold exactly as `rumba run --toq` does:
    // tree checker probed on the train split, budgeted at 1 - toq.
    let train = kernel.generate(Split::Train, seed);
    let budget = 1.0 - toq;
    let (predicted, threshold) = app.calibrate(&mut app.tree.clone(), &train, budget)?;

    let build = || -> Result<RumbaSystem, CommandError> {
        Ok(RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(Box::new(app.tree.clone())),
            Tuner::new(TuningMode::TargetQuality { toq }, threshold)?,
            RuntimeConfig::default(),
        )?)
    };

    let test = kernel.generate(Split::Test, seed);
    let n = test.len();
    let workload = WorkloadProfile {
        invocations: n,
        cpu_cycles_per_invocation: kernel.cpu_cycles(),
        kernel_fraction: kernel.kernel_fraction(),
    };
    let model = SystemModel::new(EnergyParams::default());

    let mut single = build()?;
    let base = single.run(kernel.as_ref(), &test)?;
    let base_cost = model.accelerated(&workload, &base.activity);

    // The routing bar is calibrated on the train split with the same
    // mean-error contract as the firing threshold: the widest bar whose
    // routed mean measured error still fits 1 - toq. Rows the checker
    // fires on are masked to zero error first — the tree checker is
    // input-based, so its fire set is the same whichever tier computed
    // the row, and a fired row re-executes exactly. Routing those rows
    // cheap is free, and masking them lets the bar widen to where the
    // cheap tiers carry real traffic.
    let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
    let tier_errors: Vec<Vec<f64>> = ladder
        .tiers()
        .iter()
        .map(|t| {
            let mut errs = invocation_errors(kernel.as_ref(), &t.npu, &train)?;
            for (e, p) in errs.iter_mut().zip(&predicted) {
                if *p > threshold {
                    *e = 0.0;
                }
            }
            Ok(errs)
        })
        .collect::<Result<_, CommandError>>()?;
    // A tenth of the budget is held back as generalization margin: the
    // tiers and routers were fit on these same rows, so a bar calibrated
    // to the full budget sits exactly at the train-split edge.
    let bar = ladder.calibrate_bar(&rows, &tier_errors, 0.9 * budget);
    let mut routed_sys = build()?;
    routed_sys.attach_zoo(ladder.clone(), bar)?;
    let routed = routed_sys.run(kernel.as_ref(), &test)?;
    let routed_cost = model.accelerated(&workload, &routed.activity);
    let mix = routed_sys.stream_tiers().to_vec();

    let _ = writeln!(out, "== {name} ({n} test invocations, TOQ {toq}) ==");
    let ladder_desc: Vec<String> = ladder
        .tiers()
        .iter()
        .enumerate()
        .map(|(t, tier)| {
            format!(
                "t{t} {} cyc ({:.2}% train err)",
                tier.npu.cycles_per_invocation(),
                tier.train_error * 100.0,
            )
        })
        .collect();
    let _ = writeln!(out, "  ladder: {} + exact CPU", ladder_desc.join("  "));
    let _ = writeln!(
        out,
        "  single-model: error {:.2}%  fixes {}  energy {:.0} nJ",
        base.output_error * 100.0,
        base.fixes,
        base_cost.energy_nj,
    );
    let _ = writeln!(
        out,
        "  zoo-routed:   error {:.2}%  fixes {}  energy {:.0} nJ",
        routed.output_error * 100.0,
        routed.fixes,
        routed_cost.energy_nj,
    );
    let (cpu, models) = mix.split_last().expect("tier counts non-empty");
    let mix_desc: Vec<String> =
        models.iter().enumerate().map(|(t, c)| format!("t{t}:{c}")).collect();
    let _ = writeln!(out, "  tier mix: {} cpu:{cpu}", mix_desc.join(" "));

    let meets_toq = routed.output_error <= budget;
    let saves = routed_cost.energy_nj < base_cost.energy_nj;
    let saved = 100.0 * (base_cost.energy_nj - routed_cost.energy_nj) / base_cost.energy_nj;
    let _ = writeln!(
        out,
        "  energy saved: {saved:.1}%  (TOQ {})",
        if meets_toq { "met" } else { "missed" },
    );
    Ok(meets_toq && saves)
}

/// `rumba zoo [flags]` — the model-zoo sweep: per kernel, train an
/// `n`-tier approximator ladder with a per-tier input-feature router and
/// report the modeled energy the router saves at equal target output
/// quality versus the single-model system.
///
/// # Errors
///
/// Returns a [`CommandError`] for unknown benchmarks or training
/// failures.
pub fn zoo(kernels: &[String], seed: u64, toq: f64, tiers: usize) -> Result<String, CommandError> {
    let names: Vec<String> = if kernels.is_empty() {
        vec!["gaussian".into(), "fft".into(), "inversek2j".into()]
    } else {
        kernels.to_vec()
    };
    let mut out = format!("rumba zoo: seed {seed}, TOQ {toq}, {tiers} tier(s)\n\n");
    let mut met = 0usize;
    for name in &names {
        if zoo_kernel(name, seed, toq, tiers, &mut out)? {
            met += 1;
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{met} of {} kernels meet the TOQ at lower modeled energy than the single model\n",
        names.len()
    ));
    Ok(out)
}

/// What one streamed open-world run measured: detection coverage over
/// the settled back half of the stream (of the invocations whose raw
/// accelerator output — under this run's fault plan — errs past the
/// quality limit, the share the checker fired on), plus the watchdog and
/// refit activity behind it.
struct DriftRun {
    /// `None` when the settled tail produced no bad rows.
    coverage: Option<f64>,
    bad: usize,
    recalibrations: u64,
    refit_epoch: u64,
}

/// Streams `n` scenario invocations through a freshly assembled system
/// and measures its tail detection coverage against the raw (unchecked)
/// accelerator outputs under the same fault plan.
#[allow(clippy::too_many_arguments)]
fn drift_run(
    kernel: &dyn Kernel,
    app: &TrainedApp,
    threshold: f64,
    window: usize,
    limit: f64,
    budget: f64,
    stream: &ScenarioStream<'_>,
    n: usize,
    faulted: bool,
    refit: bool,
) -> Result<DriftRun, CommandError> {
    let mut system = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(Box::new(app.tree.clone())),
        Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, threshold)?,
        RuntimeConfig {
            window,
            watchdog: Some(WatchdogConfig {
                quality_limit: limit,
                patience: 2,
                fallback_patience: 8,
            }),
            ..RuntimeConfig::default()
        },
    )?;
    if refit {
        system.arm_refit(RefitConfig {
            capacity: 192,
            min_rows: 24,
            audit_period: 8,
            quality_budget: budget,
        })?;
    }
    let plan = if faulted { stream.fault_plan() } else { None };
    system.set_fault_plan(plan.clone());
    system.begin_stream();

    // The ground truth for "bad": what the tenant would consume with no
    // checker at all — the same accelerator under the same plan.
    let mut raw_npu = app.rumba_npu.clone();
    raw_npu.set_fault_plan(plan);

    let metric = kernel.metric();
    let out_dim = kernel.output_dim();
    let mut out = vec![0.0; out_dim];
    let mut exact = vec![0.0; out_dim];
    let tail = n / 2;
    let (mut bad, mut detected) = (0usize, 0usize);
    for i in 0..n {
        let input = stream.input(i);
        let outcome = system.process(kernel, &input, &mut out)?;
        if i < tail {
            continue; // ramp-up half: the regime is still changing
        }
        let raw = raw_npu.invoke_at(i, &input)?;
        kernel.compute(&input, &mut exact);
        if metric.invocation_error(&exact, &raw.outputs) > limit {
            bad += 1;
            if outcome.fired {
                detected += 1;
            }
        }
    }
    system.end_stream(kernel);
    Ok(DriftRun {
        coverage: (bad > 0).then(|| detected as f64 / bad as f64),
        bad,
        recalibrations: system.fault_stats().recalibrations,
        refit_epoch: system.refit_epoch(),
    })
}

fn coverage_cell(run: &DriftRun) -> String {
    run.coverage.map_or_else(|| "     --".into(), |c| format!("{c:.4} "))
}

/// One kernel's section of the `rumba drift` sweep. Returns
/// `(recovered, scenarios)`: how many scenarios the online refit
/// recovered (refit-on coverage at or above the clean-stream baseline
/// while reset-only sits below it) out of how many were swept.
fn drift_kernel(
    name: &str,
    seed: u64,
    window: usize,
    out: &mut String,
) -> Result<(usize, usize), CommandError> {
    use std::fmt::Write;

    let kernel = resolve(name)?;
    let cfg = OfflineConfig { seed, ..OfflineConfig::default() };
    let app = train_app(kernel.as_ref(), &cfg)?;
    let pool = kernel.generate(Split::Test, seed);
    let n = 11 * window;

    // Scale the quality knobs to the kernel: "bad" is raw error past
    // twice the accelerator's clean mean, the refit re-calibrates to
    // half of it, and the firing threshold starts where the train split
    // says that budget is met.
    let clean_errs = invocation_errors(kernel.as_ref(), &app.rumba_npu, &pool)?;
    let mean_err = clean_errs.iter().sum::<f64>() / clean_errs.len().max(1) as f64;
    let limit = (2.0 * mean_err).max(1e-9);
    let budget = (0.5 * mean_err).max(1e-9);

    let train = kernel.generate(Split::Train, seed);
    let (_, threshold) = app.calibrate(&mut app.tree.clone(), &train, budget)?;

    let _ = writeln!(
        out,
        "== {name} ({n} stream invocations, quality limit {limit:.4}, refit budget {budget:.4}) =="
    );

    // Clean-stream baseline: the steady scenario, no fault plan, no
    // refit — the coverage a freshly calibrated checker delivers when
    // the world has not moved.
    let steady = scenarios().into_iter().find(|s| s.name == "steady").expect("steady scenario");
    let baseline_stream = ScenarioStream::new(&pool, seed, steady);
    let baseline = drift_run(
        kernel.as_ref(),
        &app,
        threshold,
        window,
        limit,
        budget,
        &baseline_stream,
        n,
        false,
        false,
    )?;
    let _ = writeln!(
        out,
        "  clean-stream baseline: tail coverage {} ({} bad tail rows)",
        coverage_cell(&baseline).trim_end(),
        baseline.bad,
    );

    let _ = writeln!(out, "  scenario      bad   refit-off   refit-on   recals  epoch  verdict");
    let (mut recovered, mut swept) = (0usize, 0usize);
    for scenario in scenarios() {
        let stream = ScenarioStream::new(&pool, seed, scenario);
        let off = drift_run(
            kernel.as_ref(),
            &app,
            threshold,
            window,
            limit,
            budget,
            &stream,
            n,
            true,
            false,
        )?;
        let on = drift_run(
            kernel.as_ref(),
            &app,
            threshold,
            window,
            limit,
            budget,
            &stream,
            n,
            true,
            true,
        )?;
        swept += 1;
        let verdict = match (baseline.coverage, off.coverage, on.coverage) {
            (Some(base), Some(o), Some(r)) if r >= base && o < base => {
                recovered += 1;
                "recovered"
            }
            (Some(base), _, Some(r)) if r >= base => "holds",
            _ => "--",
        };
        let _ = writeln!(
            out,
            "  {:<11} {:>5}   {:>9}   {:>8}   {:>2}/{:<2}  {:>5}  {verdict}",
            scenario.name,
            on.bad,
            coverage_cell(&off).trim_end(),
            coverage_cell(&on).trim_end(),
            off.recalibrations,
            on.recalibrations,
            on.refit_epoch,
        );
    }
    Ok((recovered, swept))
}

/// `rumba drift [flags]` — the open-world sweep: per kernel × generative
/// scenario, compare the detection coverage of the clean-stream
/// baseline, the reset-only watchdog, and the online checker re-fit.
///
/// # Errors
///
/// Returns a [`CommandError`] for unknown benchmarks or training
/// failures.
pub fn drift(kernels: &[String], seed: u64, window: usize) -> Result<String, CommandError> {
    let names: Vec<String> =
        if kernels.is_empty() { vec!["gaussian".into(), "fft".into()] } else { kernels.to_vec() };
    let mut out = format!("rumba drift: seed {seed}, window {window}\n\n");
    let (mut recovered, mut swept) = (0usize, 0usize);
    for name in &names {
        let (r, s) = drift_kernel(name, seed, window, &mut out)?;
        recovered += r;
        swept += s;
        out.push('\n');
    }
    out.push_str(&format!(
        "{recovered} of {swept} kernel x scenario combos: online refit restores detection \
         coverage to at least the clean-stream baseline where reset-only falls below it\n"
    ));
    Ok(out)
}

/// `rumba report <path.jsonl>` — summarize a telemetry stream produced
/// with `--metrics-out` (or `RUMBA_METRICS_OUT`).
///
/// # Errors
///
/// Returns a [`CommandError`] when the file cannot be read.
pub fn report(path: &str) -> Result<String, CommandError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CommandError(format!("cannot read {path}: {e}")))?;
    let report = rumba_obs::Report::from_lines(&text);
    Ok(format!("telemetry: {path}\n{report}"))
}

/// `rumba purity <kernel>`.
///
/// # Errors
///
/// Returns a [`CommandError`] for unknown benchmarks or detected purity
/// violations.
pub fn purity(kernel: &str) -> Result<String, CommandError> {
    let kernel = resolve(kernel)?;
    rumba_apps::purity::verify_purity(kernel.as_ref(), 50, 42)?;
    Ok(format!(
        "{}: pure — safe for selective re-execution (50 probes: deterministic,\noutput-buffer independent, isolated across invocations)\n",
        kernel.name()
    ))
}

/// `rumba serve [--socket PATH | --tcp HOST:PORT] [--shards N]`: runs the
/// multi-tenant NDJSON loop over stdin/stdout, or serves concurrent
/// connections on a Unix socket / TCP listener fanned into `shards`
/// shard threads until a client sends the `shutdown` op. Shutdown drains
/// every shard's in-flight sessions, unlinks the socket file and flushes
/// telemetry before the process exits.
///
/// # Errors
///
/// Returns a [`CommandError`] for socket or stream I/O failures, or when
/// both `--socket` and `--tcp` are given.
pub fn serve(
    socket: Option<&str>,
    tcp: Option<&str>,
    shards: usize,
) -> Result<String, CommandError> {
    let server = match (socket, tcp) {
        (Some(_), Some(_)) => {
            return Err(CommandError("choose one transport: --socket or --tcp".into()))
        }
        (None, None) => {
            let mut rt = rumba_serve::ServeRuntime::new();
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            rumba_serve::protocol::serve_loop(&mut rt, stdin.lock(), &mut out)
                .map_err(|e| CommandError(format!("serve: {e}")))?;
            return Ok(String::new());
        }
        (Some(path), None) => rumba_serve::transport::NetServer::bind_unix(path, shards)
            .map_err(|e| CommandError(format!("cannot bind {path}: {e}")))?,
        (None, Some(addr)) => rumba_serve::transport::NetServer::bind_tcp(addr, shards)
            .map_err(|e| CommandError(format!("cannot bind {addr}: {e}")))?,
    };
    let addr = server.addr().to_owned();
    eprintln!("serving on {addr} ({shards} shard(s))");
    let served = server.join().map_err(|e| CommandError(format!("serve on {addr}: {e}")))?;
    Ok(format!("served {served} connection(s) on {addr}\n"))
}

/// `rumba bench-serve`: replays the seeded multi-tenant workload and
/// returns the canonical protocol response trace (the serving
/// conformance artifact). With `shards`, the same workload runs over
/// real TCP through a sharded server, one lockstep connection per
/// tenant (the `ci/serve_net.golden` artifact).
///
/// # Errors
///
/// Returns a [`CommandError`] if the workload cannot be opened.
pub fn bench_serve(
    seed: u64,
    tenants: usize,
    requests: usize,
    shards: Option<usize>,
) -> Result<String, CommandError> {
    let cfg = rumba_serve::bench::BenchConfig { seed, tenants, requests };
    let trace = match shards {
        Some(shards) => rumba_serve::bench::run_net_trace(cfg, shards),
        None => rumba_serve::bench::run_trace(cfg).map(|(trace, _)| trace),
    };
    trace.map_err(|e| CommandError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_mentions_every_benchmark() {
        let text = list();
        for name in ["blackscholes", "fft", "inversek2j", "jmeint", "jpeg", "kmeans", "sobel"] {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn unknown_kernel_is_a_clean_error() {
        let e = train("doom", 1).unwrap_err();
        assert!(e.to_string().contains("doom"));
    }

    #[test]
    fn train_reports_topology_and_image() {
        let text = train("gaussian", 42).unwrap();
        assert!(text.contains("1->2->1"));
        assert!(text.contains("config image"));
    }

    #[test]
    fn run_produces_a_report() {
        let text = run("gaussian", 42, CheckerChoice::Tree, ModeChoice::Toq(0.95), 256).unwrap();
        assert!(text.contains("unchecked output error"));
        assert!(text.contains("rumba run: gaussian"));
        assert!(text.contains("speedup"));
    }

    #[test]
    fn run_supports_every_checker() {
        for checker in [
            CheckerChoice::Linear,
            CheckerChoice::Ema,
            CheckerChoice::Table,
            CheckerChoice::Ensemble,
        ] {
            let text = run("gaussian", 42, checker, ModeChoice::Quality, 128).unwrap();
            assert!(text.contains("rumba run"), "{checker:?}");
        }
    }

    #[test]
    fn faults_sweep_reports_coverage_and_stays_finite() {
        let text = faults(&["gaussian".into()], 42, 1e-3, 128).unwrap();
        assert!(text.contains("detection coverage"), "{text}");
        for model in ["bit_flip", "non_finite", "stuck_at", "input_drift"] {
            assert!(text.contains(model), "missing {model} row:\n{text}");
        }
        assert!(text.contains("managed NaN run"), "{text}");
        assert!(text.contains("all finite"), "{text}");
    }

    #[test]
    fn percentile95_leaves_five_percent_strictly_above_the_cut() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let cut = percentile95(&v);
        assert_eq!(cut, 95.0);
        assert_eq!(v.iter().filter(|&&x| x > cut).count(), 5);
        // Duplicated scores collapse onto the cut, not past it: under the
        // strict `>` rule none of them fire.
        let dup = vec![1.0; 40];
        assert_eq!(percentile95(&dup), 1.0);
        assert_eq!(dup.iter().filter(|&&x| x > percentile95(&dup)).count(), 0);
        assert_eq!(percentile95(&[]), 0.0);
        assert_eq!(percentile95(&[f64::INFINITY, 3.0]), 3.0);
    }

    #[test]
    fn compensate_sweep_reports_both_recovery_mixes() {
        let text = compensate(&["gaussian".into()], 42, 0.9).unwrap();
        assert!(text.contains("rumba compensate"), "{text}");
        assert!(text.contains("compensateLinear"), "{text}");
        assert!(text.contains("compensateTree"), "{text}");
        assert!(text.contains("reexec-only"), "{text}");
        assert!(text.contains("fewer CPU re-executions"), "{text}");
        // Deterministic: the sweep is golden-able.
        assert_eq!(text, compensate(&["gaussian".into()], 42, 0.9).unwrap());
    }

    #[test]
    fn zoo_sweep_reports_the_ladder_and_tier_mix() {
        let text = zoo(&["gaussian".into()], 42, 0.95, 2).unwrap();
        assert!(text.contains("rumba zoo"), "{text}");
        assert!(text.contains("== gaussian"), "{text}");
        assert!(text.contains("ladder:"), "{text}");
        assert!(text.contains("single-model:"), "{text}");
        assert!(text.contains("zoo-routed:"), "{text}");
        assert!(text.contains("tier mix:"), "{text}");
        assert!(text.contains("kernels meet the TOQ"), "{text}");
        // Deterministic: the sweep is golden-able.
        assert_eq!(text, zoo(&["gaussian".into()], 42, 0.95, 2).unwrap());
    }

    #[test]
    fn drift_sweep_recovers_coverage_and_is_deterministic() {
        // The acceptance contract: at seed 7 at least one kernel ×
        // scenario must come out "recovered" — online refit restores
        // detection coverage to at least the clean-stream baseline while
        // the reset-only watchdog sits below it.
        let text = drift(&["gaussian".into()], 7, 128).unwrap();
        assert!(text.contains("rumba drift"), "{text}");
        assert!(text.contains("== gaussian"), "{text}");
        assert!(text.contains("clean-stream baseline"), "{text}");
        for scenario in ["steady", "drift", "diurnal", "burst"] {
            assert!(text.contains(scenario), "missing {scenario} row:\n{text}");
        }
        assert!(text.contains("recovered"), "{text}");
        // Deterministic: the sweep is golden-able.
        assert_eq!(text, drift(&["gaussian".into()], 7, 128).unwrap());
    }

    #[test]
    fn drift_rejects_unknown_kernels() {
        let e = drift(&["doom".into()], 1, 128).unwrap_err();
        assert!(e.to_string().contains("doom"));
    }

    #[test]
    fn zoo_rejects_unknown_kernels() {
        let e = zoo(&["doom".into()], 1, 0.95, 2).unwrap_err();
        assert!(e.to_string().contains("doom"));
    }

    #[test]
    fn compensate_rejects_unknown_kernels() {
        let e = compensate(&["doom".into()], 1, 0.9).unwrap_err();
        assert!(e.to_string().contains("doom"));
    }

    #[test]
    fn faults_rejects_unknown_kernels() {
        let e = faults(&["doom".into()], 1, 1e-3, 128).unwrap_err();
        assert!(e.to_string().contains("doom"));
    }

    #[test]
    fn purity_passes_for_shipped_kernels() {
        let text = purity("sobel").unwrap();
        assert!(text.contains("pure"));
    }

    #[test]
    fn report_summarizes_a_jsonl_file() {
        use rumba_obs::Event;
        let path = std::env::temp_dir().join(format!("rumba-report-{}.jsonl", std::process::id()));
        let lines = [
            Event::WindowEnd {
                window: 0,
                threshold: 0.1,
                fired: 7,
                suppressed_by_budget: 0,
                mean_unfixed_pred: 0.01,
                cpu_capacity: 12,
                queue_depth_max: 1,
                quarantined: 0,
                capacity_clamped: false,
                compensated: 0,
                tiers: Vec::new(),
                session: String::new(),
            }
            .to_jsonl(),
            Event::Cache { hit: true, key: "gaussian-s42".into() }.to_jsonl(),
        ]
        .join("\n");
        std::fs::write(&path, lines).unwrap();
        let text = report(path.to_str().unwrap()).unwrap();
        assert!(text.contains("windows: 1"), "{text}");
        assert!(text.contains("cache: 1 hits, 0 misses"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_on_missing_file_is_a_clean_error() {
        let e = report("/nonexistent/rumba.jsonl").unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }

    #[test]
    fn bench_serve_trace_is_reproducible_and_clean() {
        let a = bench_serve(7, 2, 6, None).unwrap();
        let b = bench_serve(7, 2, 6, None).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"op\":\"open\""));
        assert!(a.contains("\"type\":\"closed\""));
        assert!(!a.contains("\"type\":\"error\""), "trace must be clean:\n{a}");
        // The sharded TCP replay carries the same payloads, prefixed with
        // the observing connection.
        let net = bench_serve(7, 2, 6, Some(2)).unwrap();
        let stripped: String = net.lines().fold(String::new(), |mut acc, l| {
            acc.push_str(l.split_once(' ').expect("prefixed line").1);
            acc.push('\n');
            acc
        });
        assert_eq!(stripped, a);
    }
}
