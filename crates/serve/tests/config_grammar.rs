//! The session-config grammar behind `open`: every config `open` can
//! express round-trips through the canonical line and through the
//! snapshot's config words, and every mutant of a real `open` line is
//! either rejected in-band — the server still serving — or opens a
//! session whose canonical line holds every key the mutant sent, with the
//! same value.

use std::collections::HashMap;

use proptest::prelude::*;
use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::{FaultModel, FaultPlan};
use rumba_obs::json::{parse_object, JsonObject, JsonValue, JsonWriter};
use rumba_obs::words::WordReader;
use rumba_serve::bench::profile;
use rumba_serve::config::{open_line, read_open, read_words, write_words};
use rumba_serve::protocol::handle_line;
use rumba_serve::{AdmissionPolicy, CheckerKind, ServeRuntime, SessionConfig};

/// Counts below 2^53 are what a JSON number names exactly.
const COUNT_LIMIT: u64 = 1 << 53;

/// A SplitMix64 stream: the property's configs are drawn from its seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A count: small most of the time, anywhere below 2^53 otherwise.
    fn count(&mut self) -> u64 {
        if self.below(2) == 0 {
            self.below(100)
        } else {
            self.below(COUNT_LIMIT)
        }
    }

    /// Any finite float: a random bit pattern, retried until finite.
    fn float(&mut self) -> f64 {
        loop {
            let v = f64::from_bits(self.next());
            if v.is_finite() {
                return v;
            }
        }
    }

    fn rate(&mut self) -> f64 {
        self.below(1 << 20) as f64 / f64::from(1 << 20)
    }
}

/// A config `open` can express: any watchdog is the default one, the
/// queue's output and recovery bounds are the defaults, and a fault plan
/// has at least one model. Sizes are not bounded here: `open`'s reader
/// leaves them to the validator.
fn expressible(d: &mut Draw) -> SessionConfig {
    let kernels = ["gaussian", "fft", "sobel", "jpeg", "inversek2j", "a \"quoted\" name"];
    let mode = match d.below(3) {
        0 => TuningMode::TargetQuality { toq: d.float() },
        1 => TuningMode::EnergyBudget { budget: d.count() as usize },
        _ => TuningMode::BestQuality,
    };
    let faults = (d.below(2) == 0).then(|| {
        let mut plan = FaultPlan::new(d.count());
        for _ in 0..=d.below(4) {
            plan = plan.with(match d.below(6) {
                0 => FaultModel::BitFlip { rate: d.rate() },
                1 => FaultModel::NonFinite { rate: d.rate() },
                2 => FaultModel::StuckAt { start: d.count() as usize, value: d.float() },
                3 => FaultModel::InputDrift {
                    start: d.count() as usize,
                    ramp: d.count() as usize,
                    magnitude: d.float(),
                },
                4 => FaultModel::CheckerBlind { rate: d.rate() },
                _ => FaultModel::QueuePressure {
                    start: d.count() as usize,
                    slots: d.count() as usize,
                },
            });
        }
        plan
    });
    SessionConfig {
        kernel: kernels[d.below(kernels.len() as u64) as usize].to_owned(),
        seed: d.count(),
        checker: [CheckerKind::Linear, CheckerKind::Tree, CheckerKind::Ema, CheckerKind::Evp]
            [d.below(4) as usize],
        mode,
        window: d.count() as usize,
        queue: QueueConfig { input_capacity: d.count() as usize, ..QueueConfig::default() },
        admission: [AdmissionPolicy::Shed, AdmissionPolicy::Block][d.below(2) as usize],
        faults,
        watchdog: (d.below(2) == 0).then(WatchdogConfig::default),
        fix_policy: match d.below(2) {
            0 => FixPolicy::Reexecute,
            _ => FixPolicy::Compensate { band: d.float() },
        },
        zoo: d.count() as usize,
        refit: d.below(2) == 0,
    }
}

proptest! {
    #[test]
    fn expressible_configs_round_trip_through_the_line_and_the_words(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        for _ in 0..32 {
            let config = expressible(&mut d);
            let line = open_line("s", &config);
            let obj = parse_object(&line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            let back = read_open(&obj).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            prop_assert_eq!(&back, &config);
            // The canonical line is a fixed point of reading and writing.
            prop_assert_eq!(open_line("s", &back), line);

            let mut words = Vec::new();
            write_words(&config, &mut words);
            let mut r = WordReader::new(&words);
            let back = read_words(&config.kernel, &mut r).map_err(TestCaseError::fail)?;
            prop_assert!(r.finish("config").is_ok(), "trailing words");
            prop_assert_eq!(back, config);
        }
    }
}

/// Renders `fields` in order as one request line, duplicates included.
fn render(fields: &[(String, JsonValue)]) -> String {
    let mut w = JsonWriter::request();
    for (key, value) in fields {
        match value {
            JsonValue::Str(s) => w.string(key, s),
            JsonValue::Num(v) => w.float(key, *v),
            JsonValue::Bool(b) => w.boolean(key, *b),
            JsonValue::Null => w.float(key, f64::NAN),
            JsonValue::Arr(_) => w.floats(key, &[1.0]),
        };
    }
    w.finish()
}

/// Values of other JSON types than `value`, and — for a whole number —
/// numbers that are no count: a fraction, a negative, and one past 2^53.
fn type_swaps(value: &JsonValue) -> Vec<JsonValue> {
    let mut swaps = vec![JsonValue::Null, JsonValue::Arr(vec![JsonValue::Num(1.0)])];
    match value {
        JsonValue::Str(_) => swaps.extend([JsonValue::Num(7.0), JsonValue::Bool(true)]),
        JsonValue::Bool(b) => swaps.extend([JsonValue::Num(1.0), JsonValue::Str(b.to_string())]),
        JsonValue::Num(v) => {
            swaps.extend([JsonValue::Str(v.to_string()), JsonValue::Bool(true)]);
            if v.fract() == 0.0 {
                swaps.extend([v + 0.5, -v - 1.0, 9_007_199_254_740_994.0].map(JsonValue::Num));
            }
        }
        JsonValue::Null | JsonValue::Arr(_) => {}
    }
    swaps
}

/// The real `open` lines the sweep starts from: the bench trace's three
/// tenant profiles, the README's serving examples, and a line shaped like
/// perfbench's zoo + refit + compensate sessions.
fn real_lines() -> Vec<String> {
    let mut lines: Vec<String> =
        (0..3).map(|t| open_line(&format!("tenant-{t}"), &profile(t, 7))).collect();
    let readme = include_str!("../../../README.md");
    for line in readme.lines().filter(|l| l.contains("{\"op\":\"open\"")) {
        let line = &line[line.find('{').unwrap()..];
        if !lines.iter().any(|l| l == line) {
            lines.push(line.to_owned());
        }
    }
    assert!(lines.len() >= 5, "the README's open examples went missing: {lines:?}");
    lines.push(
        "{\"op\":\"open\",\"session\":\"churn-0\",\"kernel\":\"gaussian\",\"seed\":42,\
         \"checker\":\"linear\",\"mode\":\"energy\",\"budget\":8,\"window\":32,\"queue\":64,\
         \"faults\":\"input_drift=512:2048:0.5\",\"fault_seed\":3,\"watchdog\":true,\
         \"fix\":\"compensate\",\"band\":0.05,\"zoo\":2,\"refit\":true}"
            .to_owned(),
    );
    lines
}

/// Every mutant of `line`: the line itself, each key renamed (to a typo
/// and to every key in `vocabulary`), each value swapped for another
/// type, each key dropped or duplicated, and a foreign key added.
fn mutants(line: &str, vocabulary: &[String]) -> Vec<String> {
    let fields: Vec<(String, JsonValue)> = parse_object(line).unwrap().into_iter().collect();
    let mut out = vec![line.to_owned()];
    let with = |i: usize, field: Option<(String, JsonValue)>| {
        let mut f = fields.clone();
        match field {
            Some(field) => f[i] = field,
            None => drop(f.remove(i)),
        }
        render(&f)
    };
    for (i, (key, value)) in fields.iter().enumerate() {
        for name in vocabulary.iter().chain([&format!("{key}x")]).filter(|n| *n != key) {
            out.push(with(i, Some((name.clone(), value.clone()))));
        }
        out.extend(type_swaps(value).into_iter().map(|v| with(i, Some((key.clone(), v)))));
        out.push(with(i, None));
        let mut twice = fields.clone();
        twice.push((key.clone(), value.clone()));
        out.push(render(&twice));
    }
    for foreign in [("tqo", JsonValue::Num(0.5)), ("type", JsonValue::Str("open".into()))] {
        let mut f = fields.clone();
        f.push((foreign.0.to_owned(), foreign.1));
        out.push(render(&f));
    }
    out
}

fn is_error(lines: &[String]) -> bool {
    lines.len() == 1 && lines[0].starts_with("{\"type\":\"error\"")
}

#[test]
fn mutated_open_lines_are_rejected_in_band_or_round_trip() {
    let lines = real_lines();
    let mut vocabulary: Vec<String> =
        lines.iter().flat_map(|l| parse_object(l).unwrap().into_keys()).collect();
    vocabulary.sort();
    vocabulary.dedup();
    assert_eq!(vocabulary.len(), 18, "the real lines use every key: {vocabulary:?}");

    let mut rt = ServeRuntime::new();
    let sentinel = SessionConfig { window: 8, ..SessionConfig::default() };
    assert!(!is_error(&handle_line(&mut rt, &open_line("sentinel", &sentinel)).0));
    // Whether the server opened a config (sessions are pure in it), keyed
    // by the config's canonical line under one name.
    let mut opened: HashMap<String, bool> = HashMap::new();
    let (mut rejected, mut accepted) = (0, 0);
    for line in &lines {
        for mutant in mutants(line, &vocabulary) {
            let parsed = parse_object(&mutant);
            let config = parsed.as_ref().ok().and_then(|obj| read_open(obj).ok());
            let canonical = config.as_ref().map(|c| open_line("probe", c));
            let served = match canonical.as_ref().and_then(|c| opened.get(c)) {
                Some(&open) => open,
                None => {
                    let (responses, shutdown) = handle_line(&mut rt, &mutant);
                    assert!(!shutdown, "{mutant} shut the server down");
                    let open = !is_error(&responses);
                    if open {
                        let name = parsed.as_ref().unwrap()["session"].clone();
                        let JsonValue::Str(name) = name else { panic!("{mutant}") };
                        let close = format!("{{\"op\":\"close\",\"session\":{name:?}}}");
                        assert!(!is_error(&handle_line(&mut rt, &close).0), "{mutant}");
                    }
                    if let Some(canonical) = &canonical {
                        opened.insert(canonical.clone(), open);
                    }
                    open
                }
            };
            if !served {
                rejected += 1;
                let stats = handle_line(&mut rt, "{\"op\":\"stats\",\"session\":\"sentinel\"}").0;
                assert!(stats[0].starts_with("{\"type\":\"stats\""), "after {mutant}: {stats:?}");
                continue;
            }
            accepted += 1;
            let obj: JsonObject = parsed.unwrap();
            let canonical = parse_object(&open_line("", config.as_ref().unwrap())).unwrap();
            for (key, value) in &obj {
                if key != "session" {
                    assert_eq!(canonical.get(key), Some(value), "{key} of {mutant}");
                }
            }
        }
    }
    assert!(rejected > 1000 && accepted > 50, "{rejected} rejected, {accepted} accepted");
}

/// The lines that motivated the strict reader each used to open a default
/// session; now each gets one error that names its key.
#[test]
fn lines_that_opened_a_default_session_now_name_their_key() {
    let base = "{\"op\":\"open\",\"session\":\"a\",\"kernel\":\"fft\"";
    let integer = "must be an integer in 0..=9007199254740991";
    let cases = [
        (",\"tqo\":0.5,\"seed\":\"7\",\"watchdog\":\"yes\"}", format!("key \"seed\" {integer}")),
        (",\"tqo\":0.5}", "unknown key \"tqo\"".to_owned()),
        (",\"watchdog\":\"yes\"}", "key \"watchdog\" must be a boolean".to_owned()),
        (",\"window\":1.5,\"queue\":-3}", format!("key \"queue\" {integer}")),
        (",\"window\":1.5}", format!("key \"window\" {integer}")),
        (",\"refit\":1}", "key \"refit\" must be a boolean".to_owned()),
        (",\"mode\":\"energy\",\"toq\":0.5}", "key \"toq\" is not used".to_owned()),
        (",\"seed\":9007199254740993}", format!("key \"seed\" {integer}")),
        (",\"budget\":4}", "key \"budget\" is not used".to_owned()),
        (",\"band\":0.1}", "key \"band\" is not used".to_owned()),
        (",\"fix\":\"reexecute\",\"band\":0.1}", "key \"band\" is not used".to_owned()),
        (",\"fault_seed\":3}", "key \"fault_seed\" is not used".to_owned()),
        (",\"fix\":\"compensate\"}", "key \"band\" is required".to_owned()),
        (",\"mode\":\"fast\"}", "key \"mode\" must be one of toq, energy, best".to_owned()),
    ];
    let mut rt = ServeRuntime::new();
    for (tail, reason) in cases {
        let line = format!("{base}{tail}");
        let (lines, shutdown) = handle_line(&mut rt, &line);
        assert!(!shutdown && is_error(&lines), "{line}: {lines:?}");
        let message = parse_object(&lines[0]).unwrap()["message"].clone();
        let JsonValue::Str(message) = message else { panic!("{lines:?}") };
        assert!(message.contains(&reason), "{line}: {message:?} lacks {reason:?}");
    }
    assert!(rt.is_empty());
}

/// A stuck value or drift magnitude that is not finite is refused like an
/// out-of-range rate: a NaN would make the config unequal to itself.
#[test]
fn non_finite_fault_parameters_are_rejected_in_band() {
    let mut rt = ServeRuntime::new();
    for spec in [
        "stuck_at=0:NaN",
        "stuck_at=3:inf",
        "input_drift=1:1:inf",
        "input_drift=0:4:-inf",
        "input_drift=0:4:NaN",
        "bit_flip=0.01,stuck_at=0:-inf",
    ] {
        let mut w = JsonWriter::request();
        w.string("op", "open").string("session", "a").string("faults", spec);
        let (lines, shutdown) = handle_line(&mut rt, &w.finish());
        assert!(!shutdown && is_error(&lines), "{spec}: {lines:?}");
        assert!(lines[0].contains("is not finite"), "{spec}: {lines:?}");
    }
    assert!(rt.is_empty());
}

/// Lines of known keys with values of the right type open exactly the
/// config they opened before the reader turned strict: the bench trace's
/// hand-written lines are its profiles, and an empty fault spec is still
/// no fault plan.
#[test]
fn well_formed_lines_keep_their_config() {
    let old_bench_lines = [
        "{\"op\":\"open\",\"session\":\"tenant-0\",\"kernel\":\"gaussian\",\"seed\":7,\
         \"checker\":\"tree\",\"mode\":\"toq\",\"toq\":0.95,\"window\":16,\"queue\":12,\
         \"admission\":\"shed\"}",
        "{\"op\":\"open\",\"session\":\"tenant-1\",\"kernel\":\"gaussian\",\"seed\":7,\
         \"checker\":\"linear\",\"mode\":\"energy\",\"budget\":6,\"window\":16,\"queue\":4,\
         \"admission\":\"block\"}",
        "{\"op\":\"open\",\"session\":\"tenant-2\",\"kernel\":\"gaussian\",\"seed\":7,\
         \"checker\":\"ema\",\"mode\":\"toq\",\"toq\":0.9,\"window\":16,\"queue\":6,\
         \"admission\":\"shed\",\"faults\":\"non_finite=0.05,queue_pressure=16:5\",\
         \"fault_seed\":7}",
    ];
    for (t, line) in old_bench_lines.iter().enumerate() {
        assert_eq!(read_open(&parse_object(line).unwrap()).unwrap(), profile(t, 7), "{line}");
    }
    let read = |line: &str| read_open(&parse_object(line).unwrap()).unwrap();
    let plain = SessionConfig::default();
    assert_eq!(read("{\"op\":\"open\",\"session\":\"a\"}"), plain);
    assert_eq!(read("{\"op\":\"open\",\"session\":\"a\",\"faults\":\"\",\"fault_seed\":3}"), plain);
    assert_eq!(
        read("{\"op\":\"open\",\"session\":\"a\",\"seed\":9007199254740991}").seed,
        (1 << 53) - 1
    );
}
