//! The invocation-driven model zoo and quality/energy router.
//!
//! A single trained accelerator gives the tuner exactly one quality/energy
//! operating point per kernel; the whole trade space is the firing
//! threshold. Following the invocation-driven zoo line of work (and the
//! autoAx-style offline sweep), [`ModelZoo`] trains *several* approximators
//! per kernel at distinct quality/energy points — smaller hidden layers
//! found by [`TopologySearch`], lowered to the true fixed-point datapath
//! with fewer fractional bits — and a cheap per-tier linear **router**
//! predicts, from the input features alone, each tier's invocation error.
//! Per invocation the runtime then picks the cheapest tier predicted to
//! meet the session's quality budget, with exact CPU execution as the
//! final tier when even the full-quality model is predicted to miss.
//!
//! Every routing decision is a pure function of `(input, routing bar)`:
//! the runtime replays decisions serially (the same discipline as the
//! checker/tuner loop), so routed streams are bit-identical at any
//! threads × SIMD × shards combination.

use rumba_accel::{Npu, NpuParams};
use rumba_apps::Kernel;
use rumba_nn::TopologySearch;
use rumba_predict::LinearModel;

use crate::cache::TrainedModelCache;
use crate::trainer::{invocation_errors, nn_params_for, OfflineConfig, TrainedApp};
use crate::{Result, RumbaError};

/// One quality/energy point of the zoo: an accelerator plus the router's
/// error predictor for it.
#[derive(Debug, Clone)]
pub struct ZooTier {
    /// The accelerator evaluating this tier's model.
    pub npu: Npu,
    /// Linear fit `input features -> this tier's invocation error` — the
    /// router's per-tier quality forecast (pure, stateless).
    pub router: LinearModel,
    /// Mean invocation error of this tier on the train split.
    pub train_error: f64,
}

/// The per-kernel menu of approximators, cheapest first; the last model
/// tier is always the full-quality Rumba accelerator, and index
/// [`ModelZoo::cpu_tier`] denotes exact CPU execution.
#[derive(Debug, Clone)]
pub struct ModelZoo {
    tiers: Vec<ZooTier>,
}

impl ModelZoo {
    /// Builds a zoo from pre-trained tiers (cheapest first). Used by the
    /// cache decode path; [`train_zoo`] is the normal constructor.
    ///
    /// # Errors
    ///
    /// Rejects an empty tier list.
    pub fn from_tiers(tiers: Vec<ZooTier>) -> Result<Self> {
        if tiers.is_empty() {
            return Err(RumbaError::InvalidConfig { name: "zoo tiers", value: "0".into() });
        }
        Ok(Self { tiers })
    }

    /// Number of model tiers (excluding the exact-CPU tier).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// A zoo always has at least one tier.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The model tiers, cheapest first.
    #[must_use]
    pub fn tiers(&self) -> &[ZooTier] {
        &self.tiers
    }

    /// One tier by index.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a model-tier index.
    #[must_use]
    pub fn tier(&self, t: usize) -> &ZooTier {
        &self.tiers[t]
    }

    /// The index denoting exact CPU execution (one past the model tiers).
    #[must_use]
    pub fn cpu_tier(&self) -> usize {
        self.tiers.len()
    }

    /// Routes one invocation: the cheapest model tier whose predicted
    /// invocation error is at or under `bar`, falling back to exact CPU
    /// execution ([`ModelZoo::cpu_tier`]) when every model tier is
    /// predicted to miss. Pure — safe to evaluate from any thread, and
    /// bit-identical wherever it is evaluated.
    ///
    /// A single-tier zoo has no routing choice: it always dispatches its
    /// one model, which makes a zoo of size 1 decision-for-decision
    /// identical to the pre-zoo single-model path (the checker/recovery
    /// loop remains the quality guard, exactly as before).
    #[must_use]
    pub fn route(&self, input: &[f64], bar: f64) -> usize {
        if self.tiers.len() == 1 {
            return 0;
        }
        for (t, tier) in self.tiers.iter().enumerate() {
            if tier.router.predict(input) <= bar {
                return t;
            }
        }
        self.cpu_tier()
    }

    /// Accelerator cycles one invocation of tier `t` costs (the per-tier
    /// figure the energy model aggregates).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a model-tier index.
    #[must_use]
    pub fn tier_cycles(&self, t: usize) -> u64 {
        self.tiers[t].npu.cycles_per_invocation()
    }

    /// Calibrates the session's base routing bar on the train split: the
    /// widest bar (drawn from the per-tier router predictions on `rows`)
    /// whose routed **mean** true invocation error still fits `budget`.
    /// `tier_errors[t][r]` is model tier `t`'s measured error on row `r`
    /// (exact-CPU rows contribute zero error). This is the same
    /// mean-error contract [`crate::tuner::calibrate_threshold`] uses for
    /// the firing threshold — a per-invocation cut of `budget` itself
    /// would be far stricter than the TOQ (which bounds the mean),
    /// starving the cheap tiers on easy kernels and over-routing to exact
    /// CPU on hard ones. Calibrating against the measured errors rather
    /// than the routers' own predictions keeps an optimistic router from
    /// widening the bar past what the tiers actually deliver.
    ///
    /// Falls back to `budget` for a single-tier zoo (no routing choice),
    /// empty rows, or mismatched `tier_errors`.
    #[must_use]
    pub fn calibrate_bar(&self, rows: &[&[f64]], tier_errors: &[Vec<f64>], budget: f64) -> f64 {
        let preds: Vec<f64> =
            rows.iter().flat_map(|row| self.tiers.iter().map(|t| t.router.predict(row))).collect();
        routed_bar(self.tiers.len(), &preds, tier_errors, budget)
    }
}

/// [`ModelZoo::calibrate_bar`] on router predictions `preds`, row-major
/// `n × tiers`.
///
/// Candidate bars are a quantile grid of the finite positive predictions
/// plus `budget` itself; the widest candidate whose routed mean error
/// fits `budget` on both halves of the rows wins. The routed mean is not
/// exactly monotone in the bar once true errors replace predictions, so
/// every candidate is scored. A bar is feasible only when BOTH halves of
/// the split fit the budget independently: the routers were fit on these
/// same rows, so a bar whose budget only balances across the full split is
/// a router-overfit artifact that will not survive unseen inputs.
///
/// A row's routed error is a step function of the bar: tier `t` serves it
/// from the smallest bar at or above the lowest prediction among tiers
/// `0..=t` until a cheaper tier takes over, and exact CPU (zero error)
/// below every prediction. So each row finds its at most `tiers + 1`
/// pieces of the sorted grid by binary search and adds its error to every
/// candidate's sum, row by row: each candidate's sum sees exactly the
/// additions, in the same order and from the same neutral element, that
/// summing its routed errors over the half would.
fn routed_bar(tiers: usize, preds: &[f64], tier_errors: &[Vec<f64>], budget: f64) -> f64 {
    let n = preds.len() / tiers.max(1);
    if tiers <= 1
        || n == 0
        || tier_errors.len() != tiers
        || tier_errors.iter().any(|e| e.len() != n)
    {
        return budget;
    }
    let mut candidates: Vec<f64> =
        preds.iter().copied().filter(|p| p.is_finite() && *p > 0.0).collect();
    candidates.sort_by(f64::total_cmp);
    candidates.dedup();
    const GRID: usize = 512;
    let step = candidates.len().div_ceil(GRID).max(1);
    let grid: Vec<f64> = candidates.into_iter().step_by(step).collect();

    // One sum per candidate and half; slot `grid.len()` scores `budget`,
    // which need not lie on the sorted grid and is routed directly.
    let half = n / 2;
    let neutral = std::iter::empty::<f64>().sum::<f64>();
    let mut sums = [vec![neutral; grid.len() + 1], vec![neutral; grid.len() + 1]];
    for (r, p) in preds.chunks_exact(tiers).enumerate() {
        let sums = &mut sums[usize::from(r >= half)];
        let (on_grid, at_budget) = sums.split_at_mut(grid.len());
        // `lowest` is the least non-NaN prediction of tiers `0..=t` (NaN
        // while there is none): a bar routes to tier `t` or cheaper
        // exactly when it is at or above it.
        let mut lowest = f64::NAN;
        let mut end = grid.len();
        for (t, &pred) in p.iter().enumerate() {
            lowest = lowest.min(pred);
            let start = if lowest.is_nan() { end } else { grid.partition_point(|&g| g < lowest) };
            let error = tier_errors[t][r];
            for sum in &mut on_grid[start..end] {
                *sum += error;
            }
            end = start;
        }
        // Bars below every prediction route to exact CPU, which adds a
        // zero (not a no-op on a `-0.0` sum).
        for sum in &mut on_grid[..end] {
            *sum += 0.0;
        }
        at_budget[0] += p.iter().position(|&q| q <= budget).map_or(0.0, |t| tier_errors[t][r]);
    }

    let fits = |k: usize| {
        sums[0][k] / half.max(1) as f64 <= budget && sums[1][k] / (n - half).max(1) as f64 <= budget
    };
    let mut best = 0.0f64;
    for (k, &bar) in grid.iter().chain([&budget]).enumerate() {
        if bar > best && fits(k) {
            best = bar;
        }
    }
    // No feasible positive bar: an (effectively) all-CPU bar is always
    // quality-safe.
    if best > 0.0 {
        best
    } else {
        f64::MIN_POSITIVE
    }
}

/// Trains an `n_tiers` zoo for one kernel, consulting the
/// environment-configured [`TrainedModelCache`].
///
/// # Errors
///
/// Rejects `n_tiers == 0`; propagates training failures.
pub fn train_zoo(
    kernel: &dyn Kernel,
    app: &TrainedApp,
    cfg: &OfflineConfig,
    n_tiers: usize,
) -> Result<ModelZoo> {
    train_zoo_with_cache(kernel, app, cfg, n_tiers, &TrainedModelCache::from_env())
}

/// [`train_zoo`] with an explicit cache (tests inject temp directories).
///
/// The top tier reuses the app's already-trained Rumba accelerator
/// verbatim, so a zoo of size 1 carries bit-identical weights to the
/// single-model path. Each cheaper tier runs a [`TopologySearch`] over
/// halved hidden sizes with a relaxed error cap and is lowered onto the
/// fixed-point datapath with fewer fractional bits; per tier, a linear
/// router fit maps input features to that tier's observed invocation
/// error on the train split.
///
/// # Errors
///
/// Rejects `n_tiers == 0`; propagates training failures.
pub fn train_zoo_with_cache(
    kernel: &dyn Kernel,
    app: &TrainedApp,
    cfg: &OfflineConfig,
    n_tiers: usize,
    cache: &TrainedModelCache,
) -> Result<ModelZoo> {
    if n_tiers == 0 {
        return Err(RumbaError::InvalidConfig { name: "zoo tiers", value: "0".into() });
    }
    let nn_params = nn_params_for(kernel);
    if let Some(zoo) = cache.load_zoo(kernel.name(), cfg, n_tiers, &nn_params) {
        return Ok(zoo);
    }
    let train = kernel.generate(rumba_apps::Split::Train, cfg.seed);
    if train.is_empty() {
        return Err(RumbaError::EmptyWorkload);
    }
    let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
    let fit_tier = |npu: Npu| -> Result<ZooTier> {
        let errors = invocation_errors(kernel, &npu, &train)?;
        let train_error = errors.iter().sum::<f64>() / errors.len() as f64;
        let router = LinearModel::fit(&rows, &errors, cfg.ridge)?;
        Ok(ZooTier { npu, router, train_error })
    };

    let top = fit_tier(app.rumba_npu.clone())?;
    let topology = kernel.rumba_topology();
    let hidden = &topology[1..topology.len() - 1];
    let mut cheap: Vec<ZooTier> = Vec::new();
    // Level 1 is one step below the full model, level `n_tiers - 1` the
    // cheapest; candidates shrink the full topology's hidden widths by
    // 2^level and the datapath loses two fractional bits per level.
    for level in 1..n_tiers {
        let mut sizes: Vec<usize> = hidden.iter().map(|&h| (h >> level).max(1)).collect();
        sizes.push(1);
        sizes.sort_unstable();
        sizes.dedup();
        // The cap relaxes with the level: each step down tolerates twice
        // the full model's training error, so the search can actually pick
        // a smaller network instead of falling back to the biggest one.
        let cap = (top.train_error.max(1e-6)) * (1u64 << level) as f64;
        let search = TopologySearch::new(cap)
            .with_hidden_sizes(&sizes)
            .with_max_hidden_layers(1)
            .with_train_params(nn_params.clone());
        let (model, _report) = search.run(&train, cfg.seed ^ (0x5a00 + level as u64))?;
        let frac_bits = 12u32.saturating_sub(2 * level as u32).max(4);
        let params =
            NpuParams { precision_bits: Some(frac_bits), fixed_point: true, ..cfg.npu_params };
        cheap.push(fit_tier(Npu::new(model, params))?);
    }
    // Cheapest first; a "cheap" tier that came out at least as expensive as
    // the full model is off the Pareto front and is dropped.
    cheap.retain(|t| t.npu.cycles_per_invocation() < top.npu.cycles_per_invocation());
    cheap.sort_by_key(|t| t.npu.cycles_per_invocation());
    let mut tiers = cheap;
    tiers.push(top);
    let zoo = ModelZoo::from_tiers(tiers)?;
    cache.store_zoo(kernel.name(), cfg, n_tiers, &nn_params, &zoo);
    Ok(zoo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_app;
    use proptest::prelude::*;
    use rumba_apps::kernel_by_name;

    fn gaussian_zoo(n: usize) -> (Box<dyn Kernel>, TrainedApp, ModelZoo) {
        let kernel = kernel_by_name("gaussian").unwrap();
        let cfg = OfflineConfig::default();
        let app = train_app(kernel.as_ref(), &cfg).unwrap();
        let zoo =
            train_zoo_with_cache(kernel.as_ref(), &app, &cfg, n, &TrainedModelCache::disabled())
                .unwrap();
        (kernel, app, zoo)
    }

    #[test]
    fn zoo_of_one_is_the_rumba_accelerator_verbatim() {
        let (_, app, zoo) = gaussian_zoo(1);
        assert_eq!(zoo.len(), 1);
        assert_eq!(zoo.tier(0).npu, app.rumba_npu);
        // No routing choice exists, so every input routes to tier 0 even
        // with an impossible bar.
        assert_eq!(zoo.route(&[0.5], -1.0), 0);
    }

    #[test]
    fn tiers_are_cheapest_first_and_top_is_the_full_model() {
        let (_, app, zoo) = gaussian_zoo(3);
        assert!(zoo.len() >= 2, "gaussian must yield at least one cheaper tier");
        let cycles: Vec<u64> = (0..zoo.len()).map(|t| zoo.tier_cycles(t)).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
        assert_eq!(zoo.tier(zoo.len() - 1).npu, app.rumba_npu);
        assert!(
            cycles[0] < *cycles.last().unwrap(),
            "the cheapest tier must actually be cheaper: {cycles:?}"
        );
    }

    #[test]
    fn routing_is_monotone_in_the_bar() {
        let (kernel, _, zoo) = gaussian_zoo(3);
        let test = kernel.generate(rumba_apps::Split::Test, 42);
        let mut saw_cheap = false;
        let mut saw_cpu = false;
        for i in (0..test.len()).step_by(41) {
            let input = test.input(i);
            // An infinite bar always admits the cheapest tier; an
            // impossible bar always falls through to exact CPU.
            assert_eq!(zoo.route(input, f64::INFINITY), 0);
            assert_eq!(zoo.route(input, -1.0), zoo.cpu_tier());
            let mid = zoo.route(input, 0.1);
            assert!(mid <= zoo.cpu_tier());
            saw_cheap |= mid < zoo.len() - 1;
            saw_cpu |= mid == zoo.cpu_tier();
            // Widening the bar can only move the decision cheaper.
            assert!(zoo.route(input, 0.4) <= mid);
        }
        assert!(saw_cheap || saw_cpu, "a 0.1 bar must exercise some routing spread");
    }

    #[test]
    fn calibrated_bar_keeps_the_routed_mean_train_error_inside_the_budget() {
        let (kernel, _, zoo) = gaussian_zoo(3);
        let train = kernel.generate(rumba_apps::Split::Train, 42);
        let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
        let tier_errors: Vec<Vec<f64>> = (0..zoo.len())
            .map(|t| invocation_errors(kernel.as_ref(), &zoo.tier(t).npu, &train).unwrap())
            .collect();
        for budget in [0.01, 0.05, 0.2] {
            let bar = zoo.calibrate_bar(&rows, &tier_errors, budget);
            assert!(bar > 0.0, "bar must stay positive (budget {budget})");
            // The routed mean measured error at the calibrated bar fits
            // the budget (CPU rows contribute zero).
            let mean = rows
                .iter()
                .enumerate()
                .map(|(r, row)| {
                    let t = zoo.route(row, bar);
                    if t == zoo.cpu_tier() {
                        0.0
                    } else {
                        tier_errors[t][r]
                    }
                })
                .sum::<f64>()
                / rows.len() as f64;
            assert!(mean <= budget + 1e-12, "mean {mean} over budget {budget} at bar {bar}");
        }
        // Wider budgets can only widen the bar.
        let narrow = zoo.calibrate_bar(&rows, &tier_errors, 0.01);
        let wide = zoo.calibrate_bar(&rows, &tier_errors, 0.2);
        assert!(wide >= narrow, "{wide} < {narrow}");
        // Degenerate shapes fall back to the budget: a single-tier zoo has
        // no routing choice, and mismatched inputs never calibrate.
        let (_, _, solo) = gaussian_zoo(1);
        assert_eq!(solo.calibrate_bar(&rows, &tier_errors[..1], 0.05), 0.05);
        assert_eq!(zoo.calibrate_bar(&[], &[], 0.05), 0.05);
        assert_eq!(zoo.calibrate_bar(&rows, &[], 0.05), 0.05);
    }

    /// The per-candidate calibration [`routed_bar`] replaced, kept as its
    /// oracle: `preds[r][t]` is tier `t`'s router prediction on row `r`,
    /// and every grid candidate rescans every row.
    fn reference_bar(
        tiers: usize,
        preds: &[Vec<f64>],
        tier_errors: &[Vec<f64>],
        budget: f64,
    ) -> f64 {
        let n = preds.len();
        if tiers == 1
            || n == 0
            || tier_errors.len() != tiers
            || tier_errors.iter().any(|e| e.len() != n)
        {
            return budget;
        }
        let mut candidates: Vec<f64> =
            preds.iter().flatten().copied().filter(|p| p.is_finite() && *p > 0.0).collect();
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();
        const GRID: usize = 512;
        let step = candidates.len().div_ceil(GRID).max(1);
        let half = n / 2;
        let mean_over = |bar: f64, range: std::ops::Range<usize>| -> f64 {
            let len = range.len().max(1);
            range
                .map(|r| match preds[r].iter().position(|&p| p <= bar) {
                    Some(t) => tier_errors[t][r],
                    None => 0.0,
                })
                .sum::<f64>()
                / len as f64
        };
        let fits = |bar: f64| -> bool {
            mean_over(bar, 0..half) <= budget && mean_over(bar, half..n) <= budget
        };
        let mut best = 0.0f64;
        for bar in candidates.iter().copied().step_by(step).chain(std::iter::once(budget)) {
            if bar > best && fits(bar) {
                best = bar;
            }
        }
        if best > 0.0 {
            best
        } else {
            f64::MIN_POSITIVE
        }
    }

    /// Random calibration inputs `(tiers, flat row-major predictions,
    /// per-tier errors, budget)` of up to `max_rows` rows. Values are drawn
    /// with ties, both zeros, negatives and every non-finite kind, and one
    /// error list in eight has a row too many or too few.
    struct BarInputs {
        max_rows: usize,
    }

    fn awkward(rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::Rng;
        const TIES: [f64; 6] = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5];
        const ODD: [f64; 7] =
            [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e300];
        match rng.gen_range(0..9u32) {
            0..=3 => TIES[rng.gen_range(0..TIES.len())],
            4..=6 => rng.gen_range(0.0..0.3),
            7 => -rng.gen_range(0.0..0.3),
            _ => ODD[rng.gen_range(0..ODD.len())],
        }
    }

    impl Strategy for BarInputs {
        type Value = (usize, Vec<f64>, Vec<Vec<f64>>, f64);
        fn generate(&self, rng: &mut rand::rngs::StdRng) -> Self::Value {
            use rand::Rng;
            let tiers = rng.gen_range(1..5usize);
            let n = rng.gen_range(0..self.max_rows + 1);
            let preds = (0..n * tiers).map(|_| awkward(rng)).collect();
            let errors = (0..tiers)
                .map(|_| {
                    let len = if rng.gen_range(0..8u32) == 0 {
                        n + 1 - rng.gen_range(0..3usize).min(n + 1)
                    } else {
                        n
                    };
                    (0..len).map(|_| awkward(rng)).collect()
                })
                .collect();
            (tiers, preds, errors, awkward(rng))
        }
    }

    fn same_bar(tiers: usize, preds: &[f64], tier_errors: &[Vec<f64>], budget: f64) {
        let rows: Vec<Vec<f64>> = preds.chunks(tiers.max(1)).map(<[f64]>::to_vec).collect();
        let want = reference_bar(tiers, &rows, tier_errors, budget);
        let got = routed_bar(tiers, preds, tier_errors, budget);
        assert_eq!(got.to_bits(), want.to_bits(), "routed {got} vs reference {want}");
    }

    proptest! {
        #[test]
        fn routed_bar_matches_the_per_candidate_reference(case in BarInputs { max_rows: 48 }) {
            let (tiers, preds, tier_errors, budget) = case;
            same_bar(tiers, &preds, &tier_errors, budget);
        }

        #[test]
        fn routed_bar_matches_the_reference_on_a_subsampled_grid(
            case in BarInputs { max_rows: 400 },
        ) {
            // Past 512 distinct positive predictions the grid keeps every
            // `step`-th candidate.
            let (tiers, preds, tier_errors, budget) = case;
            same_bar(tiers, &preds, &tier_errors, budget.abs() % 0.2);
        }
    }

    #[test]
    fn routed_bar_matches_the_reference_on_hand_picked_shapes() {
        let e = |v: &[f64]| v.to_vec();
        // No tiers, a single tier, no rows, and mismatched error lists.
        same_bar(0, &[], &[], 0.1);
        same_bar(1, &[0.1, 0.2], &[e(&[0.1, 0.2])], 0.1);
        same_bar(2, &[], &[e(&[]), e(&[])], 0.1);
        same_bar(2, &[0.1, 0.2], &[e(&[0.1])], 0.1);
        same_bar(2, &[0.1, 0.2], &[e(&[0.1]), e(&[0.1, 0.2])], 0.1);
        // All-tied predictions, all-NaN predictions, and a row whose
        // cheap tier is NaN and whose full tier is -inf.
        same_bar(2, &[0.1; 8], &[e(&[0.05; 4]), e(&[0.01; 4])], 0.06);
        same_bar(2, &[f64::NAN; 8], &[e(&[0.05; 4]), e(&[0.01; 4])], 0.06);
        same_bar(
            2,
            &[f64::NAN, f64::NEG_INFINITY, 0.2, 0.1],
            &[e(&[0.3, 0.2]), e(&[0.1, 0.0])],
            0.1,
        );
        // One row: the first half is empty.
        same_bar(3, &[0.3, 0.2, 0.1], &[e(&[0.2]), e(&[0.1]), e(&[0.05])], 0.1);
        // Negative and -0.0 errors, and budgets of every kind.
        for budget in [0.0, -0.0, -0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-300] {
            same_bar(2, &[0.1, 0.2, 0.3, 0.05], &[e(&[-0.0, -0.1]), e(&[0.0, 0.2])], budget);
        }
    }

    #[test]
    fn every_kernels_three_tier_bar_matches_the_reference() {
        let cfg = OfflineConfig::default();
        for kernel in rumba_apps::all_kernels() {
            let kernel = kernel.as_ref();
            let app = train_app(kernel, &cfg).unwrap();
            let zoo = train_zoo(kernel, &app, &cfg, 3).unwrap();
            let train = kernel.generate(rumba_apps::Split::Train, cfg.seed);
            let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
            let tier_errors: Vec<Vec<f64>> = zoo
                .tiers()
                .iter()
                .map(|t| invocation_errors(kernel, &t.npu, &train).unwrap())
                .collect();
            let preds: Vec<Vec<f64>> = rows
                .iter()
                .map(|row| zoo.tiers().iter().map(|t| t.router.predict(row)).collect())
                .collect();
            // The top tier is the app's accelerator on the same split, so
            // its errors are the app's train errors (sessions reuse them).
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(zoo.tier(zoo.len() - 1).npu, app.rumba_npu, "{}", kernel.name());
            assert_eq!(bits(&tier_errors[zoo.len() - 1]), bits(&app.train_errors));
            for budget in [0.01, 0.09, 0.2] {
                let want = reference_bar(zoo.len(), &preds, &tier_errors, budget);
                let got = zoo.calibrate_bar(&rows, &tier_errors, budget);
                assert_eq!(got.to_bits(), want.to_bits(), "{} at budget {budget}", kernel.name());
            }
        }
    }

    #[test]
    fn zero_tier_zoo_is_rejected() {
        let kernel = kernel_by_name("gaussian").unwrap();
        let cfg = OfflineConfig::default();
        let app = train_app(kernel.as_ref(), &cfg).unwrap();
        assert!(train_zoo_with_cache(
            kernel.as_ref(),
            &app,
            &cfg,
            0,
            &TrainedModelCache::disabled()
        )
        .is_err());
        assert!(ModelZoo::from_tiers(Vec::new()).is_err());
    }

    #[test]
    fn zoo_cache_round_trip_is_bit_exact() {
        let kernel = kernel_by_name("gaussian").unwrap();
        let cfg = OfflineConfig::default();
        let app = train_app(kernel.as_ref(), &cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("rumba-zoo-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TrainedModelCache::with_dir(&dir);
        let fresh = train_zoo_with_cache(kernel.as_ref(), &app, &cfg, 3, &cache).unwrap();
        let reloaded = train_zoo_with_cache(kernel.as_ref(), &app, &cfg, 3, &cache).unwrap();
        assert_eq!(fresh.len(), reloaded.len());
        let test = kernel.generate(rumba_apps::Split::Test, 42);
        for t in 0..fresh.len() {
            assert_eq!(fresh.tier_cycles(t), reloaded.tier_cycles(t));
            assert_eq!(fresh.tier(t).train_error.to_bits(), reloaded.tier(t).train_error.to_bits());
            for i in (0..test.len()).step_by(97) {
                let input = test.input(i);
                assert_eq!(
                    fresh.tier(t).router.predict(input).to_bits(),
                    reloaded.tier(t).router.predict(input).to_bits(),
                    "tier {t} row {i}"
                );
                let a = fresh.tier(t).npu.invoke(input).unwrap().outputs;
                let b = reloaded.tier(t).npu.invoke(input).unwrap().outputs;
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "tier {t} row {i}");
            }
        }
        // A different tier count must miss (distinct entries).
        let nn_params = nn_params_for(kernel.as_ref());
        assert!(cache.load_zoo(kernel.name(), &cfg, 2, &nn_params).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
