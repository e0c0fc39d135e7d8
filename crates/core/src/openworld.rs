//! Open-world streaming workloads and the online-refit reservoir.
//!
//! Every evaluation path elsewhere in the workspace replays a fixed
//! Table-1 dataset. This module closes the remaining gap to the paper's
//! *online* claim: seeded generative streams whose input distribution
//! changes mid-run — ramped drift, diurnal load curves, correlated
//! multi-tenant bursts — layered atop the existing `InputDrift` fault
//! model, plus the bounded [`Reservoir`] of ground-truth triples the
//! watchdog's `Recalibrated` rung re-fits the checker from.
//!
//! # Determinism contract
//!
//! Every sample a [`ScenarioStream`] emits is a **pure function** of
//! `(seed, scenario, tenant, invocation)` — the same hash discipline as
//! `rumba-faults` (`decision`/`splitmix64`), with the scenario name
//! FNV-folded into the seed. No shared RNG stream exists, so a scenario
//! stream is bit-identical at any threads × SIMD × shards combination,
//! and any invocation can be regenerated in isolation.
//!
//! The reservoir keeps the same discipline: whether the *k*-th offered
//! row is kept (and which slot it evicts) depends only on *k*, never on
//! row content or visit timing, so two runs that offer the same row
//! sequence hold identical reservoirs — which is what makes a mid-refit
//! session snapshot migratable bit-for-bit.

use rumba_faults::{decision, splitmix64, FaultModel, FaultPlan};
use rumba_nn::NnDataset;

use rumba_obs::words::{push_f64s, WordReader};

/// How a scenario's input distribution moves over the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regime {
    /// No regime change: i.i.d. draws from the dataset (the clean-stream
    /// baseline every drift scenario is scored against).
    Steady,
    /// Ramped additive input drift, injected through
    /// [`rumba_faults::FaultModel::InputDrift`] so the accelerator sees
    /// drifted rows while exact re-executions read pristine inputs. The
    /// magnitude is *relative* to the dataset's input scale.
    Drift {
        /// First drifted invocation.
        start: usize,
        /// Invocations over which the shift ramps to full magnitude.
        ramp: usize,
        /// Full shift as a fraction of the dataset's max |input|.
        relative_magnitude: f64,
    },
    /// A diurnal load curve: input amplitude swings by ±`amplitude`
    /// around 1 on a triangle wave of `period` invocations, carrying the
    /// distribution in and out of the training envelope twice per cycle.
    Diurnal {
        /// Invocations per full swing (day length).
        period: usize,
        /// Peak relative amplitude deviation.
        amplitude: f64,
    },
    /// Correlated multi-tenant bursts: for the first `width` invocations
    /// of every `period`, *all* tenants replay the same burst-keyed row,
    /// amplified by `1 + magnitude` — the thundering-herd shape where one
    /// hot item floods every session at once.
    Burst {
        /// Invocations per burst cycle.
        period: usize,
        /// Burst length at the head of each cycle.
        width: usize,
        /// Relative amplification of burst rows.
        magnitude: f64,
    },
}

/// A named regime — the unit of the `rumba drift` sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Stable scenario label (folded into every sample hash).
    pub name: &'static str,
    /// The distribution change this scenario applies.
    pub regime: Regime,
}

/// The canonical open-world sweep: the clean baseline plus one scenario
/// per regime family, with shapes sized for multi-window CLI/CI streams.
#[must_use]
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario { name: "steady", regime: Regime::Steady },
        Scenario {
            name: "drift",
            regime: Regime::Drift { start: 256, ramp: 256, relative_magnitude: 0.5 },
        },
        Scenario { name: "diurnal", regime: Regime::Diurnal { period: 512, amplitude: 0.6 } },
        Scenario {
            name: "burst",
            regime: Regime::Burst { period: 256, width: 64, magnitude: 0.8 },
        },
    ]
}

/// FNV-1a over a scenario name — folds the scenario identity into the
/// sample hashes so two scenarios sharing a seed emit unrelated streams.
#[must_use]
pub fn scenario_tag(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A seeded generative stream over one kernel's dataset under one
/// [`Scenario`]. See the module docs for the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioStream<'a> {
    data: &'a NnDataset,
    seed: u64,
    tag: u64,
    scenario: Scenario,
    input_scale: f64,
}

impl<'a> ScenarioStream<'a> {
    /// Builds a stream over `data` (the draw pool — typically the test
    /// split). The dataset's input scale (max |element|) is folded in
    /// once so relative drift magnitudes mean the same thing on a [0, 1]
    /// image kernel and a ±π robotics kernel.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    #[must_use]
    pub fn new(data: &'a NnDataset, seed: u64, scenario: Scenario) -> Self {
        assert!(!data.is_empty(), "scenario stream needs a nonempty draw pool");
        let mut scale = 0.0f64;
        for i in 0..data.len() {
            for &v in data.input(i) {
                scale = scale.max(v.abs());
            }
        }
        Self {
            data,
            seed,
            tag: scenario_tag(scenario.name),
            scenario,
            input_scale: scale.max(1e-12),
        }
    }

    /// The scenario this stream plays.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The dataset's max |input| — the unit for relative drift magnitudes.
    #[must_use]
    pub fn input_scale(&self) -> f64 {
        self.input_scale
    }

    /// The input row tenant 0 sees at `invocation` (pure).
    #[must_use]
    pub fn input(&self, invocation: usize) -> Vec<f64> {
        self.tenant_input(0, invocation)
    }

    /// The input row one tenant sees at `invocation` — a pure function of
    /// `(seed, scenario, tenant, invocation)`. Outside bursts, tenants
    /// draw independently; inside a burst window every tenant replays the
    /// same burst-keyed row (that is the correlation under test).
    #[must_use]
    pub fn tenant_input(&self, tenant: usize, invocation: usize) -> Vec<f64> {
        let n = self.data.len() as u64;
        let pick = |slot: u64, key: u64| {
            let idx = (decision(self.seed ^ self.tag, slot, key, tenant as u64) % n) as usize;
            self.data.input(idx).to_vec()
        };
        match self.scenario.regime {
            // Drift rides the fault plan (the accelerator's input hook),
            // so the draw itself is the steady stream.
            Regime::Steady | Regime::Drift { .. } => pick(0, invocation as u64),
            Regime::Diurnal { period, amplitude } => {
                let mut row = pick(1, invocation as u64);
                let phase = (invocation % period.max(1)) as f64 / period.max(1) as f64;
                let swing = 1.0 + amplitude * 4.0f64.mul_add(-(phase - 0.5).abs(), 1.0);
                for v in &mut row {
                    *v *= swing;
                }
                row
            }
            Regime::Burst { period, width, magnitude } => {
                let period = period.max(1);
                if invocation % period < width {
                    // Burst-ordinal key, tenant lane zeroed: correlated.
                    let burst = (invocation / period) as u64;
                    let idx = (decision(self.seed ^ self.tag, 2, burst, 0) % n) as usize;
                    let mut row = self.data.input(idx).to_vec();
                    for v in &mut row {
                        *v *= 1.0 + magnitude;
                    }
                    row
                } else {
                    pick(3, invocation as u64)
                }
            }
        }
    }

    /// The first `n` rows of tenant 0's stream, fanned over the
    /// deterministic pool (bit-identical to a serial loop at any thread
    /// count — each row is regenerated from its index alone).
    #[must_use]
    pub fn inputs(&self, n: usize) -> Vec<Vec<f64>> {
        rumba_parallel::par_map_range(n, |i| self.input(i))
    }

    /// The fault plan this scenario layers onto the runtime (`None` for
    /// regimes that change only the drawn inputs): drift scenarios become
    /// an [`rumba_faults::FaultModel::InputDrift`] whose absolute
    /// magnitude is the relative magnitude times the dataset input scale.
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        match self.scenario.regime {
            Regime::Drift { start, ramp, relative_magnitude } => {
                Some(FaultPlan::new(self.seed ^ self.tag).with(FaultModel::InputDrift {
                    start,
                    ramp,
                    magnitude: relative_magnitude * self.input_scale,
                }))
            }
            _ => None,
        }
    }
}

/// One ground-truth triple held by the refit [`Reservoir`]: the input the
/// runtime saw, the exact CPU result it paid for (quarantine or fired
/// re-execution), and the accelerator's approximate row.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirRow {
    /// Accelerator input row (post-drift — the distribution the checker
    /// must learn).
    pub input: Vec<f64>,
    /// Exact CPU output for that input.
    pub exact: Vec<f64>,
    /// Approximate accelerator output (non-finite for quarantined rows).
    pub approx: Vec<f64>,
    /// Provenance tag: `true` when a `CheckerBlind` or `NonFinite` fault
    /// was active on the producing invocation — such rows are *held* (for
    /// accounting and byte-exact migration) but never trained on.
    pub poisoned: bool,
}

/// Salt folded into every reservoir keep/evict decision.
const RESERVOIR_SALT: u64 = 0x5eed_0fd1_5c0b_ee55;

/// A bounded deterministic reservoir of [`ReservoirRow`]s — classic
/// reservoir sampling with the random draw replaced by a pure hash of the
/// offer ordinal, so reservoir content is a function of the offered row
/// sequence alone (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    capacity: usize,
    offered: u64,
    rows: Vec<ReservoirRow>,
}

impl Reservoir {
    /// An empty reservoir holding at most `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be nonzero");
        Self { capacity, offered: 0, rows: Vec::new() }
    }

    /// Maximum rows held.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total rows ever offered (kept or not).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The held rows, in slot order.
    #[must_use]
    pub fn rows(&self) -> &[ReservoirRow] {
        &self.rows
    }

    /// Offers one row. The first `capacity` offers always stick; offer
    /// `k > capacity` replaces a hash-chosen slot with probability
    /// `capacity / k` — uniform reservoir sampling, decided purely by the
    /// offer ordinal.
    pub fn offer(&mut self, row: ReservoirRow) {
        self.offered += 1;
        if self.rows.len() < self.capacity {
            self.rows.push(row);
            return;
        }
        let j = splitmix64(RESERVOIR_SALT ^ self.offered) % self.offered;
        if (j as usize) < self.capacity {
            self.rows[j as usize] = row;
        }
    }

    /// Indices of rows eligible for refit training (not poisoned).
    #[must_use]
    pub fn clean_indices(&self) -> Vec<usize> {
        (0..self.rows.len()).filter(|&i| !self.rows[i].poisoned).collect()
    }

    /// Drops every row and the offer count (stream restart).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.offered = 0;
    }

    /// Appends the reservoir as `u64` words: `[offered, row_count, then
    /// per row: poisoned, input bits…, exact bits…, approx bits…]`. Rows
    /// are fixed-width (the kernel's input and output widths), so no
    /// lengths are written.
    pub fn to_words(&self, out: &mut Vec<u64>) {
        out.push(self.offered);
        out.push(self.rows.len() as u64);
        for row in &self.rows {
            out.push(u64::from(row.poisoned));
            for vec in [&row.input, &row.exact, &row.approx] {
                push_f64s(out, vec);
            }
        }
    }

    /// Reads a block written by [`Reservoir::to_words`] into a reservoir
    /// of the given capacity whose rows are `input_dim` inputs and
    /// `output_dim` outputs wide (construction config, not part of the
    /// words).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed word.
    pub fn read(
        capacity: usize,
        input_dim: usize,
        output_dim: usize,
        r: &mut WordReader,
    ) -> std::result::Result<Self, String> {
        let offered = r.u64("reservoir.offered")?;
        let count = r.count("reservoir.rows", capacity)?;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(ReservoirRow {
                poisoned: r.flag("reservoir.poisoned")?,
                input: r.f64s("reservoir.input", input_dim)?,
                exact: r.f64s("reservoir.exact", output_dim)?,
                approx: r.f64s("reservoir.approx", output_dim)?,
            });
        }
        Ok(Self { capacity, offered, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumba_nn::NnDataset;
    use rumba_obs::words::read_all;

    fn pool(n: usize, dim: usize) -> NnDataset {
        NnDataset::from_fn(dim, 1, n, |i, x, y| {
            for (d, v) in x.iter_mut().enumerate() {
                *v = ((i * dim + d) as f64).sin();
            }
            y[0] = i as f64 / n as f64;
        })
        .unwrap()
    }

    fn row(tag: u64, poisoned: bool) -> ReservoirRow {
        ReservoirRow {
            input: vec![tag as f64, 0.5],
            exact: vec![tag as f64 * 2.0],
            approx: vec![tag as f64 * 2.0 + 0.125],
            poisoned,
        }
    }

    #[test]
    fn samples_are_pure_in_seed_scenario_and_invocation() {
        let data = pool(64, 3);
        for scenario in scenarios() {
            let a = ScenarioStream::new(&data, 7, scenario);
            let b = ScenarioStream::new(&data, 7, scenario);
            for inv in [0usize, 1, 100, 4096] {
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(a.input(inv)),
                    bits(b.input(inv)),
                    "{} invocation {inv}",
                    scenario.name
                );
            }
            // Different seeds fork the stream.
            let c = ScenarioStream::new(&data, 8, scenario);
            assert!((0..64).any(|i| a.input(i) != c.input(i)), "{}", scenario.name);
        }
    }

    #[test]
    fn scenarios_with_one_seed_emit_distinct_streams() {
        let data = pool(64, 2);
        let s = scenarios();
        let steady = ScenarioStream::new(&data, 11, s[0]);
        let diurnal = ScenarioStream::new(&data, 11, s[2]);
        assert!((0..64).any(|i| steady.input(i) != diurnal.input(i)));
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let data = pool(128, 2);
        for scenario in scenarios() {
            let stream = ScenarioStream::new(&data, 3, scenario);
            let fanned = stream.inputs(500);
            let serial: Vec<Vec<f64>> = (0..500).map(|i| stream.input(i)).collect();
            assert_eq!(fanned, serial, "{}", scenario.name);
        }
    }

    #[test]
    fn bursts_are_correlated_across_tenants_and_quiet_periods_are_not() {
        let data = pool(256, 2);
        let scenario = Scenario {
            name: "burst",
            regime: Regime::Burst { period: 16, width: 4, magnitude: 0.5 },
        };
        let stream = ScenarioStream::new(&data, 5, scenario);
        // Inside the burst window every tenant sees the same row.
        assert_eq!(stream.tenant_input(0, 0), stream.tenant_input(7, 0));
        assert_eq!(stream.tenant_input(1, 18 * 16 + 3), stream.tenant_input(4, 18 * 16 + 3));
        // Outside it, tenants draw independently (some invocation differs).
        assert!((4..16).any(|i| stream.tenant_input(0, i) != stream.tenant_input(1, i)));
    }

    #[test]
    fn drift_scenarios_carry_an_input_drift_plan_scaled_to_the_pool() {
        let data = pool(64, 2);
        let scenario = Scenario {
            name: "drift",
            regime: Regime::Drift { start: 10, ramp: 5, relative_magnitude: 0.5 },
        };
        let stream = ScenarioStream::new(&data, 7, scenario);
        let plan = stream.fault_plan().unwrap();
        let mut x = vec![0.0, 0.0];
        assert!(plan.drift_input(100, &mut x));
        assert!((x[0] - 0.5 * stream.input_scale()).abs() < 1e-12);
        let steady = ScenarioStream::new(&data, 7, scenarios()[0]);
        assert!(steady.fault_plan().is_none());
    }

    #[test]
    fn reservoir_keeps_everything_until_capacity_then_samples() {
        let mut r = Reservoir::new(4);
        for k in 0..4 {
            r.offer(row(k, false));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.offered(), 4);
        let before = r.rows().to_vec();
        for k in 4..1000 {
            r.offer(row(k, false));
        }
        assert_eq!(r.len(), 4, "bounded");
        assert_ne!(r.rows(), before.as_slice(), "late rows do get sampled in");
        // Late offers still have a chance: some held row has a high tag.
        assert!(r.rows().iter().any(|row| row.input[0] >= 500.0));
    }

    #[test]
    fn reservoir_content_is_a_pure_function_of_the_offer_sequence() {
        let mut a = Reservoir::new(8);
        let mut b = Reservoir::new(8);
        for k in 0..300 {
            a.offer(row(k, k % 7 == 0));
        }
        for k in 0..300 {
            b.offer(row(k, k % 7 == 0));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn clean_indices_exclude_poisoned_rows() {
        let mut r = Reservoir::new(8);
        r.offer(row(0, false));
        r.offer(row(1, true));
        r.offer(row(2, false));
        assert_eq!(r.clean_indices(), vec![0, 2]);
    }

    #[test]
    fn words_round_trip_bit_for_bit() {
        let mut r = Reservoir::new(6);
        for k in 0..40 {
            r.offer(row(k, k % 5 == 0));
        }
        let mut words = Vec::new();
        r.to_words(&mut words);
        let mut reader = WordReader::new(&words);
        let back = Reservoir::read(6, 2, 1, &mut reader).unwrap();
        reader.finish("end").expect("whole block consumed");
        assert_eq!(back, r);
        let mut rewords = Vec::new();
        back.to_words(&mut rewords);
        assert_eq!(rewords, words);

        // Rows are fixed-width: a flag and the three vectors, no lengths.
        assert_eq!(words.len(), 2 + 6 * (1 + 2 + 1 + 1));
        // Truncated and corrupt blocks are rejected, and so is a block
        // read at another row width.
        let read = |capacity, words: &[u64]| {
            read_all(words, "reservoir", |r| Reservoir::read(capacity, 2, 1, r))
        };
        assert!(read(6, &words[..words.len() - 1]).is_err());
        assert!(read_all(&words, "reservoir", |r| Reservoir::read(6, 3, 1, r)).is_err());
        let mut corrupt = words.clone();
        corrupt[2] = 9; // poison flag of row 0
        assert!(read(6, &corrupt).unwrap_err().contains("reservoir.poisoned"));
        // Over-capacity decode is rejected.
        assert!(read(2, &words).unwrap_err().contains("reservoir.rows"));
    }
}
