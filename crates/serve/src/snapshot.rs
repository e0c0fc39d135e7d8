//! Session snapshot codec: one line of hex words.
//!
//! A snapshot is the serialized form of a live serving session — its
//! opening configuration plus every piece of online state (tuner
//! threshold, checker history, window counters, fault accounting, zoo and
//! refit state, session stats, queued inputs, uncollected results). After
//! a versioned header naming the kernel, everything is one stream of
//! `u64` words, each written as 16 lowercase hex digits (floats as their
//! IEEE-754 bits, so round-trips are bit-exact):
//!
//! ```text
//! rumba-session-snapshot v3 kernel=gaussian 000000000000002a 0000000000000000
//!     3feccccccccccccd 0000000000000010 ...
//! ```
//!
//! (wrapped here for readability). The stream is read back in order by
//! one [`WordReader`]: first the [`SessionConfig`] (`write_config`'s
//! layout), then the session state (`write_state`'s layout) — the
//! runtime's `export_state` words as a length-prefixed block, 14 stats
//! words, the queued rows and the completed results. A refit-armed
//! runtime block carries the re-fitted checker as its config stream —
//! the words the trained-model cache stores for that checker — followed
//! by the signed flag and the signed companion. Every field is
//! checked as it is read, so a malformed or edited snapshot is rejected
//! with the name of the field, and an accepted one re-snapshots to the
//! same bytes.
//!
//! The session *name* is deliberately not part of the snapshot: `restore`
//! names the session, which is what lets a snapshot migrate to a
//! different shard — placement is a pure hash of the name — or to a
//! differently named session entirely.

use std::collections::VecDeque;

use rumba_apps::Kernel;
use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::{FaultModel, FaultPlan};
use rumba_obs::words::{push_block, WordReader};

use crate::session::{AdmissionPolicy, CheckerKind, SessionConfig, SessionResult, SessionStats};

/// Leading tokens of every snapshot; bump the version when the word
/// layout changes.
pub const FORMAT_HEADER: &str = "rumba-session-snapshot v3";

/// Checker kinds by their word tag (declaration order of [`CheckerKind`]).
const CHECKERS: [CheckerKind; 4] =
    [CheckerKind::Linear, CheckerKind::Tree, CheckerKind::Ema, CheckerKind::Evp];
/// Admission policies by their word tag.
const ADMISSIONS: [AdmissionPolicy; 2] = [AdmissionPolicy::Shed, AdmissionPolicy::Block];

/// Renders the header and `words` as the one-line text form.
pub(crate) fn encode(kernel: &str, words: &[u64]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(FORMAT_HEADER.len() + 8 + kernel.len() + 17 * words.len());
    out.extend_from_slice(FORMAT_HEADER.as_bytes());
    out.extend_from_slice(b" kernel=");
    out.extend_from_slice(kernel.as_bytes());
    for &word in words {
        out.push(b' ');
        out.extend((0..16).rev().map(|nibble| HEX[(word >> (4 * nibble)) as usize & 0xf]));
    }
    String::from_utf8(out).expect("the header, a str and hex digits are UTF-8")
}

/// Splits the text form into its kernel name and word stream — the
/// inverse of [`encode`]. Only the canonical spelling is accepted: single
/// spaces, exactly 16 lowercase hex digits per word.
pub(crate) fn decode(text: &str) -> Result<(&str, Vec<u64>), String> {
    let rest = text
        .strip_prefix(FORMAT_HEADER)
        .and_then(|rest| rest.strip_prefix(" kernel="))
        .ok_or_else(|| format!("not a {FORMAT_HEADER}"))?;
    let mut tokens = rest.split(' ');
    let kernel = tokens.next().unwrap_or_default();
    let words = tokens
        .enumerate()
        .map(|(i, hex)| {
            let bad = || format!("word {i}: {hex:?} is not 16 lowercase hex digits");
            if hex.len() != 16 {
                return Err(bad());
            }
            hex.bytes().try_fold(0u64, |word, b| {
                let digit = match b {
                    b'0'..=b'9' => b - b'0',
                    b'a'..=b'f' => b - b'a' + 10,
                    _ => return Err(bad()),
                };
                Ok(word << 4 | u64::from(digit))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((kernel, words))
}

/// Appends everything `Session::open` needs except the kernel name (which
/// the header carries): seed, mode tag and parameter, window, queue
/// bounds, admission, checker, fix tag and band, zoo, refit flag, fault
/// plan and watchdog. Optional parts are a `0|1` flag followed, when set,
/// by their words.
pub(crate) fn write_config(c: &SessionConfig, out: &mut Vec<u64>) {
    out.push(c.seed);
    match c.mode {
        TuningMode::TargetQuality { toq } => out.extend([0, toq.to_bits()]),
        TuningMode::EnergyBudget { budget } => out.extend([1, budget as u64]),
        TuningMode::BestQuality => out.push(2),
    }
    let q = &c.queue;
    out.extend(
        [c.window, q.input_capacity, q.output_capacity, q.recovery_capacity].map(|n| n as u64),
    );
    out.extend([c.admission as u64, c.checker as u64]);
    match c.fix_policy {
        FixPolicy::Reexecute => out.push(0),
        FixPolicy::Compensate { band } => out.extend([1, band.to_bits()]),
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

/// Reads the configuration [`write_config`] wrote. Range limits are left
/// to `SessionConfig::validate`, the validator `open` runs too.
pub(crate) fn read_config(kernel: &str, r: &mut WordReader) -> Result<SessionConfig, String> {
    let any = usize::MAX;
    let u32_max = u32::MAX as usize;
    Ok(SessionConfig {
        kernel: kernel.to_owned(),
        seed: r.u64("config.seed")?,
        mode: match r.count("config.mode", 2)? {
            0 => TuningMode::TargetQuality { toq: r.f64("config.toq")? },
            1 => TuningMode::EnergyBudget { budget: r.count("config.budget", any)? },
            _ => TuningMode::BestQuality,
        },
        window: r.count("config.window", any)?,
        queue: QueueConfig {
            input_capacity: r.count("config.queue.input", any)?,
            output_capacity: r.count("config.queue.output", any)?,
            recovery_capacity: r.count("config.queue.recovery", any)?,
        },
        admission: ADMISSIONS[r.count("config.admission", ADMISSIONS.len() - 1)?],
        checker: CHECKERS[r.count("config.checker", CHECKERS.len() - 1)?],
        fix_policy: match r.flag("config.fix")? {
            false => FixPolicy::Reexecute,
            true => FixPolicy::Compensate { band: r.f64("config.fix.band")? },
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

/// The session state a snapshot carries after its configuration.
pub(crate) struct SessionState<'a> {
    /// `RumbaSystem::export_state` words, decoded once the session is
    /// assembled (their layout depends on the armed zoo and refit).
    pub(crate) runtime: &'a [u64],
    pub(crate) stats: SessionStats,
    pub(crate) rows: usize,
    pub(crate) inputs: &'a [u64],
    pub(crate) completed: VecDeque<SessionResult>,
}

/// Appends a session's state: the runtime words as a block, the stats,
/// the queued rows, the uncollected results.
pub(crate) fn write_state(
    out: &mut Vec<u64>,
    runtime: &[u64],
    s: &SessionStats,
    rows: usize,
    inputs: &[f64],
    completed: &VecDeque<SessionResult>,
) {
    push_block(out, runtime);
    out.extend([
        s.submitted,
        s.processed,
        s.fixes,
        s.compensated,
        s.shed,
        s.blocked,
        s.queue_high_water as u64,
        s.error_sum.to_bits(),
        s.drains,
        s.back_pressured_drains,
        s.recovery_high_water as u64,
        s.total_cycles.to_bits(),
        s.cpu_busy_cycles.to_bits(),
        s.final_threshold.to_bits(),
    ]);
    out.push(rows as u64);
    out.extend(inputs.iter().map(|x| x.to_bits()));
    out.push(completed.len() as u64);
    for r in completed {
        out.extend([
            r.index as u64,
            u64::from(r.fired),
            r.predicted_error.to_bits(),
            r.measured_error.to_bits(),
        ]);
        out.extend(r.output.iter().map(|x| x.to_bits()));
    }
}

/// Reads what [`write_state`] wrote, bounded by the validated config's
/// queue capacity and the kernel's dimensions, and rejects trailing
/// words.
pub(crate) fn read_state<'a>(
    r: &mut WordReader<'a>,
    config: &SessionConfig,
    kernel: &dyn Kernel,
) -> Result<SessionState<'a>, String> {
    let any = usize::MAX;
    let capacity = config.queue.input_capacity;
    let runtime = r.block("runtime")?;
    let stats = SessionStats {
        submitted: r.u64("stats.submitted")?,
        processed: r.u64("stats.processed")?,
        fixes: r.u64("stats.fixes")?,
        compensated: r.u64("stats.compensated")?,
        shed: r.u64("stats.shed")?,
        blocked: r.u64("stats.blocked")?,
        queue_high_water: r.count("stats.queue_high_water", capacity)?,
        error_sum: r.f64("stats.error_sum")?,
        drains: r.u64("stats.drains")?,
        back_pressured_drains: r.u64("stats.back_pressured_drains")?,
        recovery_high_water: r.count("stats.recovery_high_water", any)?,
        total_cycles: r.f64("stats.total_cycles")?,
        cpu_busy_cycles: r.f64("stats.cpu_busy_cycles")?,
        final_threshold: r.f64("stats.final_threshold")?,
    };
    let rows = r.count("queue.rows", capacity)?;
    let inputs = r.words("queue.inputs", rows * kernel.input_dim())?;
    let out_dim = kernel.output_dim();
    let count = r.count("completed.count", r.remaining() / (4 + out_dim))?;
    let completed = (0..count)
        .map(|_| {
            Ok(SessionResult {
                index: r.count("completed.index", any)?,
                fired: r.flag("completed.fired")?,
                predicted_error: r.f64("completed.predicted")?,
                measured_error: r.f64("completed.measured")?,
                output: r
                    .words("completed.output", out_dim)?
                    .iter()
                    .map(|&w| f64::from_bits(w))
                    .collect(),
            })
        })
        .collect::<Result<_, String>>()?;
    r.finish("stream")?;
    Ok(SessionState { runtime, stats, rows, inputs, completed })
}

/// Re-encodes `text` with its configuration edited by `edit` and every
/// state word kept — how tests prove that `restore` refuses what `open`
/// refuses, and that state taken under one configuration does not load
/// under another.
#[cfg(test)]
pub(crate) fn edit_config(text: &str, edit: impl FnOnce(&mut SessionConfig)) -> String {
    let (kernel, words) = decode(text).unwrap();
    let mut r = WordReader::new(&words);
    let mut config = read_config(kernel, &mut r).unwrap();
    edit(&mut config);
    let mut edited = Vec::new();
    write_config(&config, &mut edited);
    edited.extend_from_slice(r.words("state", r.remaining()).unwrap());
    encode(&config.kernel, &edited)
}

/// The configuration a snapshot carries.
#[cfg(test)]
pub(crate) fn config_of(text: &str) -> SessionConfig {
    let (kernel, words) = decode(text).unwrap();
    read_config(kernel, &mut WordReader::new(&words)).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for (i, checker) in CHECKERS.into_iter().enumerate() {
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
            write_config(&config, &mut words);
            words.push(u64::MAX);
            let text = encode(&config.kernel, &words);
            assert!(!text.contains('\n'));
            let (kernel, back_words) = decode(&text).unwrap();
            assert_eq!(back_words, words);
            let mut r = WordReader::new(&back_words);
            let back = read_config(kernel, &mut r).unwrap();
            assert_eq!(r.u64("tail").unwrap(), u64::MAX);
            r.finish("end").unwrap();
            assert_eq!(back, config);
        }
    }

    #[test]
    fn text_form_is_strict() {
        let text = encode("gaussian", &[0x2a, 0xdead_beef]);
        assert_eq!(
            text,
            "rumba-session-snapshot v3 kernel=gaussian 000000000000002a 00000000deadbeef"
        );
        assert_eq!(decode(&text).unwrap(), ("gaussian", vec![0x2a, 0xdead_beef]));
        for bad in [
            "rumba-trained-model-cache v1".to_owned(),
            text.replace("v3", "v2"),
            text.replace("beef", "BEEF"),
            text.replace(" 00000000", "  00000000"),
            text.replace("002a", "02a"),
            text.replace("002a", "+02a"),
            format!("{text} "),
            format!("{text}\n"),
        ] {
            assert!(decode(&bad).is_err(), "accepted {bad:?}");
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
        assert_eq!(config_of(&session.snapshot()), config);
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
        write_config(&config, &mut words);
        let back = read_config("gaussian", &mut WordReader::new(&words)).unwrap();
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
        write_config(&SessionConfig::default(), &mut plain);
        write_config(&config, &mut words);
        // Both end in the faults flag and the watchdog flag; the faulted
        // config's flag is followed by the plan seed and the model count.
        let count = plain.len();
        assert_eq!(words[count], 1, "the model count word");
        words[count] = 1 << 62;
        let err = read_config("gaussian", &mut WordReader::new(&words)).unwrap_err();
        assert!(err.starts_with("config.faults.models:"), "{err}");
    }
}
