//! The session-config grammar: [`SessionConfig`] with its enums and
//! limits, the `open` line ([`read_open`], [`open_line`]) and the
//! snapshot's config words ([`write_words`], [`read_words`]). Each `open`
//! key is spelled once, in the key table `KEYS` with its JSON type, and
//! each enum spelling once, in its enum's table, whose order is also the
//! enum's snapshot word tag.

use std::mem::discriminant;

use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::{FaultModel, FaultPlan};
use rumba_obs::json::{JsonObject, JsonValue, JsonWriter, ObjectExt};
use rumba_obs::words::WordReader;

use crate::ServeError;

/// Largest `window` (iterations per tuning window) a session accepts.
pub(crate) const MAX_WINDOW: usize = 1 << 20;
/// Largest request-queue capacity a session accepts: the queue's rows are
/// allocated when the session opens.
pub(crate) const MAX_QUEUE: usize = 1 << 14;
/// Largest model zoo a session accepts: every tier is trained at open,
/// and by the eighth level down each hidden layer has shrunk to one unit.
pub(crate) const MAX_ZOO: usize = 8;

/// The JSON type of an `open` key, as an error names it. A count is a
/// non-negative integer below 2^53, past which a JSON number (a double)
/// names no one integer.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    String,
    Count,
    Number,
    Boolean,
}

/// An `open` key: its spelling and its JSON type.
#[derive(Clone, Copy)]
struct Key(&'static str, Kind);

const OP: Key = Key("op", Kind::String);
const SESSION: Key = Key("session", Kind::String);
const KERNEL: Key = Key("kernel", Kind::String);
const SEED: Key = Key("seed", Kind::Count);
const CHECKER: Key = Key("checker", Kind::String);
const MODE: Key = Key("mode", Kind::String);
const TOQ: Key = Key("toq", Kind::Number);
const BUDGET: Key = Key("budget", Kind::Count);
const WINDOW: Key = Key("window", Kind::Count);
const QUEUE: Key = Key("queue", Kind::Count);
const ADMISSION: Key = Key("admission", Kind::String);
const FAULTS: Key = Key("faults", Kind::String);
const FAULT_SEED: Key = Key("fault_seed", Kind::Count);
const WATCHDOG: Key = Key("watchdog", Kind::Boolean);
const FIX: Key = Key("fix", Kind::String);
const BAND: Key = Key("band", Kind::Number);
const ZOO: Key = Key("zoo", Kind::Count);
const REFIT: Key = Key("refit", Kind::Boolean);

/// The key table: every key an `open` line may hold, in the canonical
/// line's order.
const KEYS: [Key; 18] = [
    OP, SESSION, KERNEL, SEED, CHECKER, MODE, TOQ, BUDGET, WINDOW, QUEUE, ADMISSION, FAULTS,
    FAULT_SEED, WATCHDOG, FIX, BAND, ZOO, REFIT,
];

// Each enum's spellings, in snapshot word-tag order. A variant that
// carries a value holds its `open` default (a compensation band has none).
const CHECKER_KINDS: &[(CheckerKind, &str)] = &[
    (CheckerKind::Linear, "linear"),
    (CheckerKind::Tree, "tree"),
    (CheckerKind::Ema, "ema"),
    (CheckerKind::Evp, "evp"),
];
const ADMISSION_POLICIES: &[(AdmissionPolicy, &str)] =
    &[(AdmissionPolicy::Shed, "shed"), (AdmissionPolicy::Block, "block")];
const TUNING_MODES: &[(TuningMode, &str)] = &[
    (TuningMode::TargetQuality { toq: 0.9 }, TOQ.0),
    (TuningMode::EnergyBudget { budget: 8 }, "energy"),
    (TuningMode::BestQuality, "best"),
];
const FIX_POLICIES: &[(FixPolicy, &str)] =
    &[(FixPolicy::Reexecute, "reexecute"), (FixPolicy::Compensate { band: 0.0 }, "compensate")];

/// The word tag and spelling of `value`'s variant in its enum's `table`.
fn spelling<T>(table: &[(T, &'static str)], value: &T) -> (usize, &'static str) {
    let tag = table.iter().position(|(v, _)| discriminant(v) == discriminant(value));
    let tag = tag.expect("every variant is spelled");
    (tag, table[tag].1)
}

fn parse_spelling<T: Copy>(key: Key, table: &[(T, &str)], text: &str) -> Result<T, ServeError> {
    let found = table.iter().find(|(_, name)| *name == text).map(|&(value, _)| value);
    found.ok_or_else(|| {
        let names: Vec<&str> = table.iter().map(|&(_, name)| name).collect();
        invalid(format!("key {:?} must be one of {}, got {text:?}", key.0, names.join(", ")))
    })
}

fn invalid(message: String) -> ServeError {
    ServeError::InvalidConfig(message)
}

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
    /// Parses the protocol spelling.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        parse_spelling(CHECKER, CHECKER_KINDS, text)
    }

    /// Protocol spelling of this checker.
    #[must_use]
    pub fn label(self) -> &'static str {
        spelling(CHECKER_KINDS, &self).1
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
    /// Protocol spelling of this policy.
    #[must_use]
    pub fn label(self) -> &'static str {
        spelling(ADMISSION_POLICIES, &self).1
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
    /// accelerator; `N > 0` trains an `N`-tier quality/energy ladder and
    /// routes every request to the cheapest tier predicted to meet the
    /// session's quality target, degrading under queue pressure before
    /// any request is shed.
    pub zoo: usize,
    /// Opt-in online checker re-fit: an exact-result audit channel feeds a
    /// bounded reservoir, and the watchdog's `Recalibrated` rung re-fits
    /// the checker against the session's own quality budget. The
    /// reservoir and refit epoch travel in the snapshot.
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
            (WINDOW.0, self.window, 1, MAX_WINDOW),
            ("queue capacity", self.queue.input_capacity, 1, MAX_QUEUE),
            (ZOO.0, self.zoo, 0, MAX_ZOO),
        ];
        for (what, value, min, max) in limits {
            if !(min..=max).contains(&value) {
                return Err(invalid(format!("{what} must be in {min}..={max}, got {value}")));
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
            mode: TUNING_MODES[0].0, // toq mode at its default target
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

/// Checks every key of an `open` request against [`KEYS`]: it must be in
/// the table, and its value must have the key's type.
fn check_keys(obj: &JsonObject) -> Result<(), ServeError> {
    for (name, value) in obj {
        let Some(&Key(_, kind)) = KEYS.iter().find(|key| key.0 == name) else {
            return Err(invalid(format!("unknown key {name:?}")));
        };
        let fits = match value {
            JsonValue::Str(_) => kind == Kind::String,
            JsonValue::Bool(_) => kind == Kind::Boolean,
            JsonValue::Num(n) if kind == Kind::Count => {
                n.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(n)
            }
            JsonValue::Num(_) => kind == Kind::Number,
            JsonValue::Null | JsonValue::Arr(_) => false,
        };
        if !fits {
            let names = ["a string", "an integer in 0..=9007199254740991", "a number", "a boolean"];
            return Err(invalid(format!("key {name:?} must be {}", names[kind as usize])));
        }
    }
    Ok(())
}

/// The variant spelled at `key`, if the key is present.
fn spelled<T: Copy>(
    obj: &JsonObject,
    key: Key,
    table: &[(T, &str)],
) -> Result<Option<T>, ServeError> {
    obj.string(key.0).map(|text| parse_spelling(key, table, text)).transpose()
}

/// Reads the config of an `open` request; keys the line leaves out take
/// their defaults, and sizes are left to `SessionConfig::validate`.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] naming the first key that is unknown,
/// holds a value of the wrong type or spelling, or is not used by the
/// chosen mode, fix or fault setting; or a malformed fault spec.
pub fn read_open(obj: &JsonObject) -> Result<SessionConfig, ServeError> {
    check_keys(obj)?;
    // A size past the address space saturates, and `validate` refuses it.
    let size = |key: Key| obj.count(key.0).map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let mut c = SessionConfig::default();
    c.kernel = obj.string(KERNEL.0).map_or(c.kernel, str::to_owned);
    c.seed = obj.count(SEED.0).unwrap_or(c.seed);
    c.checker = spelled(obj, CHECKER, CHECKER_KINDS)?.unwrap_or(c.checker);
    c.mode = match spelled(obj, MODE, TUNING_MODES)?.unwrap_or(c.mode) {
        TuningMode::TargetQuality { toq } => {
            TuningMode::TargetQuality { toq: obj.number(TOQ.0).unwrap_or(toq) }
        }
        TuningMode::EnergyBudget { budget } => {
            TuningMode::EnergyBudget { budget: size(BUDGET).unwrap_or(budget) }
        }
        best => best,
    };
    c.window = size(WINDOW).unwrap_or(c.window);
    c.queue.input_capacity = size(QUEUE).unwrap_or(c.queue.input_capacity);
    c.admission = spelled(obj, ADMISSION, ADMISSION_POLICIES)?.unwrap_or(c.admission);
    if let Some(spec) = obj.string(FAULTS.0) {
        let seed = obj.count(FAULT_SEED.0).unwrap_or(c.seed);
        let plan = FaultPlan::parse(seed, spec).map_err(invalid)?;
        c.faults = (!plan.is_empty()).then_some(plan);
    }
    c.watchdog = obj.boolean(WATCHDOG.0).unwrap_or(false).then(WatchdogConfig::default);
    if let Some(FixPolicy::Compensate { .. }) = spelled(obj, FIX, FIX_POLICIES)? {
        let missing = || invalid(format!("key {:?} is required with this {:?}", BAND.0, FIX.0));
        c.fix_policy = FixPolicy::Compensate { band: obj.number(BAND.0).ok_or_else(missing)? };
    }
    c.zoo = size(ZOO).unwrap_or(c.zoo);
    c.refit = obj.boolean(REFIT.0).unwrap_or(c.refit);
    let unused = [
        (TOQ, matches!(c.mode, TuningMode::TargetQuality { .. })),
        (BUDGET, matches!(c.mode, TuningMode::EnergyBudget { .. })),
        (BAND, matches!(c.fix_policy, FixPolicy::Compensate { .. })),
        (FAULT_SEED, obj.contains_key(FAULTS.0)),
    ];
    match unused.into_iter().find(|&(key, used)| !used && obj.contains_key(key.0)) {
        Some((key, _)) => {
            Err(invalid(format!("key {:?} is not used by the mode, fix or faults", key.0)))
        }
        None => Ok(c),
    }
}

/// The canonical `open` line for `config`: every key its settings use, in
/// `KEYS` order, so [`read_open`] reads it back as `config`. It speaks
/// for what `open` can set: any watchdog is written as `true` (the
/// default watchdog), the queue as its input bound, and a fault plan
/// without models as none.
#[must_use]
pub fn open_line(session: &str, c: &SessionConfig) -> String {
    let mut w = JsonWriter::request();
    w.string(OP.0, "open")
        .string(SESSION.0, session)
        .string(KERNEL.0, &c.kernel)
        .count(SEED.0, c.seed)
        .string(CHECKER.0, c.checker.label())
        .string(MODE.0, spelling(TUNING_MODES, &c.mode).1);
    match c.mode {
        TuningMode::TargetQuality { toq } => w.float(TOQ.0, toq),
        TuningMode::EnergyBudget { budget } => w.count(BUDGET.0, budget as u64),
        TuningMode::BestQuality => &mut w,
    };
    w.count(WINDOW.0, c.window as u64)
        .count(QUEUE.0, c.queue.input_capacity as u64)
        .string(ADMISSION.0, c.admission.label());
    if let Some(plan) = c.faults.as_ref().filter(|plan| !plan.is_empty()) {
        w.string(FAULTS.0, &plan.spec()).count(FAULT_SEED.0, plan.seed());
    }
    w.boolean(WATCHDOG.0, c.watchdog.is_some())
        .string(FIX.0, spelling(FIX_POLICIES, &c.fix_policy).1);
    if let FixPolicy::Compensate { band } = c.fix_policy {
        w.float(BAND.0, band);
    }
    w.count(ZOO.0, c.zoo as u64).boolean(REFIT.0, c.refit);
    w.finish()
}

/// Appends the snapshot's config words — everything `Session::open` needs
/// but the kernel name, which the snapshot header carries: seed, mode tag
/// and parameter, window, queue bounds, admission and checker tags, fix
/// tag and band, zoo, refit flag, fault plan and watchdog. Optional parts
/// are a `0|1` flag followed, when set, by their words.
pub fn write_words(c: &SessionConfig, out: &mut Vec<u64>) {
    out.extend([c.seed, spelling(TUNING_MODES, &c.mode).0 as u64]);
    match c.mode {
        TuningMode::TargetQuality { toq } => out.push(toq.to_bits()),
        TuningMode::EnergyBudget { budget } => out.push(budget as u64),
        TuningMode::BestQuality => {}
    }
    let q = &c.queue;
    out.extend(
        [c.window, q.input_capacity, q.output_capacity, q.recovery_capacity].map(|n| n as u64),
    );
    let admission = spelling(ADMISSION_POLICIES, &c.admission).0;
    let fix = spelling(FIX_POLICIES, &c.fix_policy).0;
    out.extend([admission, spelling(CHECKER_KINDS, &c.checker).0, fix].map(|tag| tag as u64));
    if let FixPolicy::Compensate { band } = c.fix_policy {
        out.push(band.to_bits());
    }
    out.extend([c.zoo as u64, u64::from(c.refit)]);
    match &c.faults {
        Some(plan) => {
            out.extend([1, plan.seed(), plan.models().len() as u64]);
            for model in plan.models() {
                match *model {
                    FaultModel::BitFlip { rate } => out.extend([0, rate.to_bits()]),
                    FaultModel::NonFinite { rate } => out.extend([1, rate.to_bits()]),
                    FaultModel::StuckAt { start, value } => {
                        out.extend([2, start as u64, value.to_bits()]);
                    }
                    FaultModel::InputDrift { start, ramp, magnitude } => {
                        out.extend([3, start as u64, ramp as u64, magnitude.to_bits()]);
                    }
                    FaultModel::CheckerBlind { rate } => out.extend([4, rate.to_bits()]),
                    FaultModel::QueuePressure { start, slots } => {
                        out.extend([5, start as u64, slots as u64]);
                    }
                }
            }
        }
        None => out.push(0),
    }
    match &c.watchdog {
        Some(w) => out.extend([
            1,
            w.quality_limit.to_bits(),
            u64::from(w.patience),
            u64::from(w.fallback_patience),
        ]),
        None => out.push(0),
    }
}

/// Reads the config words [`write_words`] wrote. Range limits are left to
/// `SessionConfig::validate`, the validator `open` runs too.
///
/// # Errors
///
/// A message naming the first word that is missing or out of its range.
pub fn read_words(kernel: &str, r: &mut WordReader) -> Result<SessionConfig, String> {
    let any = usize::MAX;
    let u32_max = u32::MAX as usize;
    Ok(SessionConfig {
        kernel: kernel.to_owned(),
        seed: r.u64("config.seed")?,
        mode: match read_tag(r, "config.mode", TUNING_MODES)? {
            TuningMode::TargetQuality { .. } => {
                TuningMode::TargetQuality { toq: r.f64("config.toq")? }
            }
            TuningMode::EnergyBudget { .. } => {
                TuningMode::EnergyBudget { budget: r.count("config.budget", any)? }
            }
            best => best,
        },
        window: r.count("config.window", any)?,
        queue: QueueConfig {
            input_capacity: r.count("config.queue.input", any)?,
            output_capacity: r.count("config.queue.output", any)?,
            recovery_capacity: r.count("config.queue.recovery", any)?,
        },
        admission: read_tag(r, "config.admission", ADMISSION_POLICIES)?,
        checker: read_tag(r, "config.checker", CHECKER_KINDS)?,
        fix_policy: match read_tag(r, "config.fix", FIX_POLICIES)? {
            FixPolicy::Compensate { .. } => {
                FixPolicy::Compensate { band: r.f64("config.fix.band")? }
            }
            reexecute => reexecute,
        },
        zoo: r.count("config.zoo", any)?,
        refit: r.flag("config.refit")?,
        faults: match r.flag("config.faults")? {
            false => None,
            true => {
                let mut plan = FaultPlan::new(r.u64("config.faults.seed")?);
                for _ in 0..r.count("config.faults.models", r.remaining())? {
                    plan = plan.with(match r.count("config.faults.kind", 5)? {
                        0 => FaultModel::BitFlip { rate: r.f64("config.faults.rate")? },
                        1 => FaultModel::NonFinite { rate: r.f64("config.faults.rate")? },
                        2 => FaultModel::StuckAt {
                            start: r.count("config.faults.start", any)?,
                            value: r.f64("config.faults.value")?,
                        },
                        3 => FaultModel::InputDrift {
                            start: r.count("config.faults.start", any)?,
                            ramp: r.count("config.faults.ramp", any)?,
                            magnitude: r.f64("config.faults.magnitude")?,
                        },
                        4 => FaultModel::CheckerBlind { rate: r.f64("config.faults.rate")? },
                        _ => FaultModel::QueuePressure {
                            start: r.count("config.faults.start", any)?,
                            slots: r.count("config.faults.slots", any)?,
                        },
                    });
                }
                Some(plan)
            }
        },
        watchdog: match r.flag("config.watchdog")? {
            false => None,
            true => Some(WatchdogConfig {
                quality_limit: r.f64("config.watchdog.quality_limit")?,
                patience: r.count("config.watchdog.patience", u32_max)? as u32,
                fallback_patience: r.count("config.watchdog.fallback_patience", u32_max)? as u32,
            }),
        },
    })
}

/// The variant whose word tag in `table` the next word holds.
fn read_tag<T: Copy>(r: &mut WordReader, field: &str, table: &[(T, &str)]) -> Result<T, String> {
    Ok(table[r.count(field, table.len() - 1)?].0)
}

#[cfg(test)]
/// A small gaussian session for unit tests: seed 7, window 16 and
/// `queue` request slots.
pub(crate) fn small_session(queue: usize) -> SessionConfig {
    let queue = QueueConfig { input_capacity: queue, ..QueueConfig::default() };
    SessionConfig { seed: 7, window: 16, queue, ..SessionConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decode, encode};

    fn rich_config() -> SessionConfig {
        SessionConfig {
            kernel: "gaussian".to_owned(),
            seed: 9,
            checker: CheckerKind::Ema,
            mode: TuningMode::TargetQuality { toq: 0.93 },
            window: 16,
            queue: QueueConfig { input_capacity: 6, ..QueueConfig::default() },
            admission: AdmissionPolicy::Block,
            faults: Some(
                FaultPlan::new(11)
                    .with(FaultModel::NonFinite { rate: 0.05 })
                    .with(FaultModel::StuckAt { start: 3, value: -2.5 })
                    .with(FaultModel::InputDrift { start: 1, ramp: 4, magnitude: 0.25 })
                    .with(FaultModel::BitFlip { rate: 0.01 })
                    .with(FaultModel::CheckerBlind { rate: 0.02 })
                    .with(FaultModel::QueuePressure { start: 8, slots: 2 }),
            ),
            watchdog: Some(WatchdogConfig::default()),
            fix_policy: FixPolicy::Compensate { band: 0.125 },
            zoo: 2,
            refit: true,
        }
    }

    /// Every config shape round-trips through the words and the text form
    /// bit for bit, and re-encodes to the same bytes.
    #[test]
    fn configs_round_trip_exactly() {
        let mut configs = vec![SessionConfig::default(), rich_config()];
        for (i, &(checker, _)) in CHECKER_KINDS.iter().enumerate() {
            let mode = [
                TuningMode::BestQuality,
                TuningMode::EnergyBudget { budget: 5 },
                TuningMode::TargetQuality { toq: 0.8 },
                TuningMode::BestQuality,
            ][i];
            configs.push(SessionConfig { checker, mode, ..SessionConfig::default() });
        }
        configs.push(SessionConfig { faults: Some(FaultPlan::new(3)), ..SessionConfig::default() });
        for config in configs {
            let mut words = Vec::new();
            write_words(&config, &mut words);
            words.push(u64::MAX);
            let text = encode(&config.kernel, &words);
            assert!(!text.contains('\n'));
            let (kernel, back_words) = decode(&text).unwrap();
            assert_eq!(back_words, words);
            let mut r = WordReader::new(&back_words);
            let back = read_words(kernel, &mut r).unwrap();
            assert_eq!(r.u64("tail").unwrap(), u64::MAX);
            r.finish("end").unwrap();
            assert_eq!(back, config);
        }
    }

    /// A live session's snapshot carries its whole opening configuration,
    /// the compensation band and the refit flag included, so `restore`
    /// rebuilds the same pipeline.
    #[test]
    fn a_live_snapshot_carries_its_configuration() {
        let config = SessionConfig {
            fix_policy: FixPolicy::Compensate { band: 0.3 },
            watchdog: Some(WatchdogConfig::default()),
            refit: true,
            ..SessionConfig::default()
        };
        let session = crate::Session::open("t0", config.clone()).unwrap();
        assert_eq!(crate::snapshot::config_of(&session.snapshot()), config);
    }

    /// Fault rates outside [0, 1] decode (the words are well formed) but
    /// fail the shared validator, which `restore` runs like `open`.
    #[test]
    fn out_of_range_fault_rates_fail_the_shared_validator() {
        let config = SessionConfig {
            faults: Some(FaultPlan::new(1).with(FaultModel::BitFlip { rate: 5.0 })),
            ..SessionConfig::default()
        };
        let mut words = Vec::new();
        write_words(&config, &mut words);
        let back = read_words("gaussian", &mut WordReader::new(&words)).unwrap();
        assert!(back.validate().unwrap_err().to_string().contains("outside [0, 1]"));
    }

    /// A fault section that declares 2^62 models is rejected before any
    /// model is read: the count is bounded by the words that remain.
    #[test]
    fn a_huge_fault_model_count_is_rejected_without_panicking() {
        let config = SessionConfig {
            faults: Some(FaultPlan::new(1).with(FaultModel::BitFlip { rate: 0.5 })),
            ..SessionConfig::default()
        };
        let (mut plain, mut words) = (Vec::new(), Vec::new());
        write_words(&SessionConfig::default(), &mut plain);
        write_words(&config, &mut words);
        // Both end in the faults flag and the watchdog flag; the faulted
        // config's flag is followed by the plan seed and the model count.
        let count = plain.len();
        assert_eq!(words[count], 1, "the model count word");
        words[count] = 1 << 62;
        let err = read_words("gaussian", &mut WordReader::new(&words)).unwrap_err();
        assert!(err.starts_with("config.faults.models:"), "{err}");
    }
}
