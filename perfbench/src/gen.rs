//! Seeded workload generation: tenant profiles, input pools and the
//! per-unit request streams.
//!
//! Everything here is a pure function of the `--seed` argument, so one
//! seed always yields byte-identical request lines. The seed picks the
//! inputs (each kernel's generated test split, the row every invoke
//! draws, the interleaving of tenants, the drift fault stream); the
//! models themselves are trained once at [`MODEL_SEED`], like a deployed
//! application binary, so changing the seed never retrains anything.

use rumba_apps::{kernel_by_name, Kernel, Split};
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::FaultPlan;
use rumba_nn::NnDataset;
use rumba_obs::json::JsonWriter;
use rumba_serve::{CheckerKind, SessionConfig};

/// Training and calibration seed of every session and offline system.
pub const MODEL_SEED: u64 = 42;

/// The seven Table-1 kernels, in the paper's order.
pub const KERNELS: [&str; 7] =
    ["blackscholes", "fft", "inversek2j", "jmeint", "jpeg", "kmeans", "sobel"];

/// `serve-inproc`'s tenant kernels, in tenant order.
pub const INPROC_KERNELS: [&str; 4] = ["jpeg", "blackscholes", "sobel", "inversek2j"];

/// `serve-tcp`'s cheap tenant kernels, in tenant order.
pub const TCP_KERNELS: [&str; 4] = ["blackscholes", "fft", "kmeans", "inversek2j"];

/// Invokes each tenant submits per round.
pub const PER_TENANT: usize = 16;

/// Generated test splits per input pool. Several splits (several images,
/// for the image kernels) keep the quality figures from hanging on the
/// content of one generated input.
pub const SPLITS: u64 = 4;

/// SplitMix64 finalizer: the benchmark's only source of randomness.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A session's tuning mode, in protocol terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Target output quality.
    Toq(f64),
    /// Re-execution budget per window.
    Energy(usize),
}

/// Everything an `open` request carries. Renders both the NDJSON line and
/// the equivalent [`SessionConfig`], so a mirror runtime can be driven
/// directly with the same session.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpec {
    pub kernel: &'static str,
    pub checker: &'static str,
    pub mode: Mode,
    pub window: usize,
    pub queue: usize,
    pub faults: Option<String>,
    pub fault_seed: u64,
    pub watchdog: bool,
    pub band: Option<f64>,
    pub zoo: usize,
    pub refit: bool,
}

impl OpenSpec {
    /// A tree-checked TOQ-0.9 session with a queue no round can fill.
    #[must_use]
    pub fn plain(kernel: &'static str) -> Self {
        Self {
            kernel,
            checker: "tree",
            mode: Mode::Toq(0.9),
            window: 32,
            queue: 4 * PER_TENANT,
            faults: None,
            fault_seed: 0,
            watchdog: false,
            band: None,
            zoo: 0,
            refit: false,
        }
    }

    /// The `open` request line.
    #[must_use]
    pub fn line(&self, session: &str) -> String {
        let mut w = JsonWriter::object("request");
        w.string("op", "open")
            .string("session", session)
            .string("kernel", self.kernel)
            .count("seed", MODEL_SEED)
            .string("checker", self.checker);
        match self.mode {
            Mode::Toq(toq) => w.string("mode", "toq").float("toq", toq),
            Mode::Energy(budget) => w.string("mode", "energy").count("budget", budget as u64),
        };
        w.count("window", self.window as u64).count("queue", self.queue as u64);
        if let Some(spec) = &self.faults {
            w.string("faults", spec).count("fault_seed", self.fault_seed);
        }
        if self.watchdog {
            w.boolean("watchdog", true);
        }
        if let Some(band) = self.band {
            w.string("fix", "compensate").float("band", band);
        }
        if self.zoo > 0 {
            w.count("zoo", self.zoo as u64);
        }
        if self.refit {
            w.boolean("refit", true);
        }
        request(w)
    }

    /// The [`SessionConfig`] the protocol builds from [`OpenSpec::line`].
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec (specs are constants of this crate).
    #[must_use]
    pub fn config(&self) -> SessionConfig {
        let mut config = SessionConfig {
            kernel: self.kernel.to_owned(),
            seed: MODEL_SEED,
            checker: CheckerKind::parse(self.checker).expect("known checker"),
            mode: match self.mode {
                Mode::Toq(toq) => TuningMode::TargetQuality { toq },
                Mode::Energy(budget) => TuningMode::EnergyBudget { budget },
            },
            window: self.window,
            watchdog: self.watchdog.then(WatchdogConfig::default),
            zoo: self.zoo,
            refit: self.refit,
            ..SessionConfig::default()
        };
        config.queue.input_capacity = self.queue;
        if let Some(spec) = &self.faults {
            let plan = FaultPlan::parse(self.fault_seed, spec).expect("valid fault spec");
            config.faults = (!plan.is_empty()).then_some(plan);
        }
        if let Some(band) = self.band {
            config.fix_policy = FixPolicy::Compensate { band };
        }
        config
    }
}

/// Strips the writer's mandatory `type` tag: requests carry `op` only.
fn request(w: JsonWriter) -> String {
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

/// One request, before rendering. Restores name the session whose latest
/// snapshot they replay, because the state is only known at run time.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Open { session: String, spec: OpenSpec },
    Invoke { session: String, pool: usize, row: usize },
    Drain { session: Option<String> },
    Snapshot { session: String },
    Restore { session: String, from: String },
    Close { session: String },
}

impl Op {
    /// The protocol op name.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Open { .. } => "open",
            Self::Invoke { .. } => "invoke",
            Self::Drain { .. } => "drain",
            Self::Snapshot { .. } => "snapshot",
            Self::Restore { .. } => "restore",
            Self::Close { .. } => "close",
        }
    }
}

/// The `invoke` request line.
#[must_use]
pub fn invoke_line(session: &str, input: &[f64]) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "invoke").string("session", session).floats("input", input);
    request(w)
}

/// The `drain` request line (`None` drains every session).
#[must_use]
pub fn drain_line(session: Option<&str>) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "drain");
    if let Some(s) = session {
        w.string("session", s);
    }
    request(w)
}

/// A single-field session request line (`snapshot`, `close`, `stats`).
#[must_use]
pub fn session_line(op: &str, session: &str) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", op).string("session", session);
    request(w)
}

/// The `restore` request line.
#[must_use]
pub fn restore_line(session: &str, state: &str) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "restore").string("session", session).string("state", state);
    request(w)
}

/// The seeded input pool of one kernel: [`SPLITS`] generated test splits.
#[derive(Debug)]
pub struct Pool {
    pub kernel: Box<dyn Kernel>,
    pub data: NnDataset,
}

impl Pool {
    /// Generates `kernel`'s test splits at seeds `seed * SPLITS + k`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown kernel name.
    #[must_use]
    pub fn new(kernel: &str, seed: u64) -> Self {
        let kernel = kernel_by_name(kernel).expect("known kernel");
        let mut data =
            NnDataset::new(kernel.input_dim(), kernel.output_dim()).expect("nonzero dimensions");
        for k in 0..SPLITS {
            let split = kernel.generate(Split::Test, seed.wrapping_mul(SPLITS).wrapping_add(k));
            for (x, y) in split.iter() {
                data.push(x, y).expect("matching dimensions");
            }
        }
        Self { kernel, data }
    }

    /// Largest input magnitude in the pool (the drift fault's scale).
    #[must_use]
    pub fn input_scale(&self) -> f64 {
        (0..self.data.len())
            .flat_map(|i| self.data.input(i).iter().map(|x| x.abs()))
            .fold(0.0, f64::max)
    }
}

/// Renders an op whose line needs no run-time state (everything except
/// `restore`).
#[must_use]
pub fn render(op: &Op, pools: &[Pool]) -> Option<String> {
    Some(match op {
        Op::Open { session, spec } => spec.line(session),
        Op::Invoke { session, pool, row } => invoke_line(session, pools[*pool].data.input(*row)),
        Op::Drain { session } => drain_line(session.as_deref()),
        Op::Snapshot { session } => session_line("snapshot", session),
        Op::Close { session } => session_line("close", session),
        Op::Restore { .. } => return None,
    })
}

/// A long-lived tenant of the serve workloads.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub pool: usize,
    pub spec: OpenSpec,
}

/// Deterministic row choice: the `k`-th invoke of stream `tag`.
#[must_use]
pub fn row_for(seed: u64, tag: u64, k: u64, rows: usize) -> usize {
    (splitmix64(seed ^ splitmix64(tag ^ splitmix64(k))) % rows.max(1) as u64) as usize
}

/// Seeded Fisher–Yates interleave of `tenants` × [`PER_TENANT`] slots for
/// round `round`.
#[must_use]
pub fn interleave(seed: u64, round: u64, tenants: usize) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..tenants * PER_TENANT).map(|i| i % tenants).collect();
    for i in (1..slots.len()).rev() {
        let j = (splitmix64(seed ^ splitmix64(round) ^ (i as u64).wrapping_mul(0x9E37))
            % (i as u64 + 1)) as usize;
        slots.swap(i, j);
    }
    slots
}

/// How a round of the long-lived-tenant workloads ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPlan {
    /// One global `drain` (a multiplexed scheduling round).
    Global,
    /// One `drain` per session, in tenant order.
    PerSession,
}

/// One round: every tenant's [`PER_TENANT`] invokes, seeded-interleaved,
/// then the drains. `counters[t]` is tenant `t`'s invoke count so far.
pub fn tenant_round(
    seed: u64,
    round: u64,
    tenants: &[Tenant],
    pools: &[Pool],
    counters: &mut [u64],
    drains: DrainPlan,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(tenants.len() * (PER_TENANT + 1));
    for t in interleave(seed, round, tenants.len()) {
        let tenant = &tenants[t];
        let rows = pools[tenant.pool].data.len();
        let row = row_for(seed, t as u64, counters[t], rows);
        counters[t] += 1;
        ops.push(Op::Invoke { session: tenant.name.clone(), pool: tenant.pool, row });
    }
    match drains {
        DrainPlan::Global => ops.push(Op::Drain { session: None }),
        DrainPlan::PerSession => {
            ops.extend(tenants.iter().map(|t| Op::Drain { session: Some(t.name.clone()) }))
        }
    }
    ops
}

/// Pools for `kernels`, in order.
#[must_use]
pub fn pools(seed: u64, kernels: &[&str]) -> Vec<Pool> {
    kernels.iter().map(|k| Pool::new(k, seed)).collect()
}

/// Pools for the seven kernels, in [`KERNELS`] order.
#[must_use]
pub fn all_pools(seed: u64) -> Vec<Pool> {
    pools(seed, &KERNELS)
}

/// `serve-inproc`'s four tenants over `pools(seed, &INPROC_KERNELS)`.
#[must_use]
pub fn inproc_tenants(seed: u64, pools: &[Pool]) -> Vec<Tenant> {
    // Drift at half the input scale, ramped in over a few hundred rounds
    // of the tenant's own stream.
    let drift = 0.5 * pools[3].input_scale();
    let jpeg = OpenSpec { queue: 64, ..OpenSpec::plain("jpeg") };
    let blackscholes = OpenSpec {
        checker: "linear",
        band: Some(0.05),
        queue: 64,
        ..OpenSpec::plain("blackscholes")
    };
    let sobel = OpenSpec { zoo: 3, queue: 64, ..OpenSpec::plain("sobel") };
    let inversek2j = OpenSpec {
        checker: "ema",
        mode: Mode::Energy(8),
        watchdog: true,
        refit: true,
        faults: Some(format!("input_drift=512:2048:{drift}")),
        fault_seed: seed,
        queue: 64,
        ..OpenSpec::plain("inversek2j")
    };
    [jpeg, blackscholes, sobel, inversek2j]
        .into_iter()
        .enumerate()
        .map(|(pool, spec)| Tenant { name: format!("{}-0", spec.kernel), pool, spec })
        .collect()
}

/// `serve-tcp`'s four tenants over `pools(seed, &TCP_KERNELS)`, named so
/// that [`rumba_serve::shard::shard_of`] places two on each of `shards` =
/// 2.
#[must_use]
pub fn tcp_tenants(shards: usize) -> Vec<Tenant> {
    TCP_KERNELS
        .iter()
        .enumerate()
        .map(|(pool, kernel)| {
            let want = pool % shards.max(1);
            let name = (0u32..)
                .map(|k| format!("{kernel}-{k}"))
                .find(|n| rumba_serve::shard::shard_of(n, shards) == want)
                .expect("some suffix hashes to every shard");
            Tenant { name, pool, spec: OpenSpec { queue: 64, ..OpenSpec::plain(kernel) } }
        })
        .collect()
}

/// Sessions per `session-churn` unit: every kernel once with a zoo and
/// once with refit armed, so each unit has the same lifecycle mix.
pub const CHURN_SESSIONS: usize = 2 * KERNELS.len();

/// One `session-churn` unit: [`CHURN_SESSIONS`] sessions, each opened,
/// run for two rounds, snapshotted, closed, restored under a new name,
/// run two more rounds and closed. Sessions alternate between a zoo and
/// an armed re-fit; with an odd kernel count, each kernel gets both.
#[must_use]
pub fn churn_unit(seed: u64, unit: u64, pools: &[Pool]) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..CHURN_SESSIONS {
        let pool = i % KERNELS.len();
        let id = unit * CHURN_SESSIONS as u64 + i as u64;
        let zoo = i.is_multiple_of(2);
        let spec = OpenSpec {
            zoo: if zoo { 3 } else { 0 },
            refit: !zoo,
            watchdog: !zoo,
            ..OpenSpec::plain(KERNELS[pool])
        };
        let first = format!("churn-{id}");
        let second = format!("churn-{id}-r");
        let rows = pools[pool].data.len();
        let mut k = 0u64;
        let mut round = |ops: &mut Vec<Op>, session: &str| {
            for _ in 0..2 {
                for _ in 0..PER_TENANT {
                    let row = row_for(seed, id, k, rows);
                    k += 1;
                    ops.push(Op::Invoke { session: session.to_owned(), pool, row });
                }
                ops.push(Op::Drain { session: Some(session.to_owned()) });
            }
        };
        ops.push(Op::Open { session: first.clone(), spec });
        round(&mut ops, &first);
        ops.push(Op::Snapshot { session: first.clone() });
        ops.push(Op::Close { session: first.clone() });
        ops.push(Op::Restore { session: second.clone(), from: first });
        round(&mut ops, &second);
        ops.push(Op::Close { session: second });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ops: &[Op], pools: &[Pool]) -> Vec<String> {
        ops.iter().map(|op| render(op, pools).unwrap_or_else(|| format!("{op:?}"))).collect()
    }

    #[test]
    fn generator_is_byte_identical_for_a_seed() {
        let a = pools(5, &INPROC_KERNELS);
        let b = pools(5, &INPROC_KERNELS);
        let ta = inproc_tenants(5, &a);
        let tb = inproc_tenants(5, &b);
        let opens_a: Vec<String> = ta.iter().map(|t| t.spec.line(&t.name)).collect();
        let opens_b: Vec<String> = tb.iter().map(|t| t.spec.line(&t.name)).collect();
        assert_eq!(opens_a, opens_b);
        let (mut ca, mut cb) = (vec![0; 4], vec![0; 4]);
        for r in 0..3 {
            let ra = tenant_round(5, r, &ta, &a, &mut ca, DrainPlan::Global);
            let rb = tenant_round(5, r, &tb, &b, &mut cb, DrainPlan::Global);
            assert_eq!(lines(&ra, &a), lines(&rb, &b));
        }
        let (a, b) = (all_pools(5), all_pools(5));
        assert_eq!(lines(&churn_unit(5, 1, &a), &a), lines(&churn_unit(5, 1, &b), &b));
    }

    #[test]
    fn different_seeds_change_the_inputs() {
        let a = pools(1, &INPROC_KERNELS);
        let b = pools(2, &INPROC_KERNELS);
        let ta = inproc_tenants(1, &a);
        let tb = inproc_tenants(2, &b);
        let ra = tenant_round(1, 0, &ta, &a, &mut [0; 4], DrainPlan::Global);
        let rb = tenant_round(2, 0, &tb, &b, &mut [0; 4], DrainPlan::Global);
        assert_ne!(lines(&ra, &a), lines(&rb, &b));
    }

    #[test]
    fn rounds_give_every_tenant_its_share() {
        let slots = interleave(9, 4, 4);
        for t in 0..4 {
            assert_eq!(slots.iter().filter(|&&s| s == t).count(), PER_TENANT);
        }
    }

    #[test]
    fn tcp_tenants_split_evenly_over_two_shards() {
        let tenants = tcp_tenants(2);
        let on_zero =
            tenants.iter().filter(|t| rumba_serve::shard::shard_of(&t.name, 2) == 0).count();
        assert_eq!(on_zero, 2);
    }

    #[test]
    fn open_lines_parse_into_the_mirrored_config() {
        let pools = pools(3, &INPROC_KERNELS);
        for t in inproc_tenants(3, &pools) {
            let line = t.spec.line(&t.name);
            let obj = rumba_obs::json::parse_object(&line).unwrap();
            use rumba_obs::json::ObjectExt;
            assert_eq!(obj.string("kernel"), Some(t.spec.kernel));
            assert_eq!(t.spec.config().kernel, t.spec.kernel);
        }
    }
}
