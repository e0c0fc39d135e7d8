//! The wire codec behind `rumba serve` and the telemetry stream.
//!
//! - The float writer is byte-identical to `format!("{v:?}")`: structured
//!   edge sets plus seeded random bit patterns here, and 50M more in the
//!   `#[ignore]`d release run that `ci.sh` makes.
//! - Writer output parses back to bit-identical floats and equal strings.
//! - Numbers follow the JSON grammar and must be finite: `01`, `1.`,
//!   `-.5` and `1e5000` are rejected in-band.
//! - Mutated request lines never panic the parser or the protocol; they
//!   are rejected in-band, or parse to an object that round-trips.

use proptest::collection;
use proptest::prelude::*;
use rumba::serve::protocol::handle_line;
use rumba::serve::ServeRuntime;
use rumba_obs::json::{parse_object, JsonObject, JsonValue, JsonWriter, ObjectExt};

mod request_corpus;
use request_corpus::{mutants, request_lines};

/// SplitMix64: a seeded stream of uniformly random 64-bit patterns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Writes `values` through [`JsonWriter::floats`] and counts the elements
/// whose text differs from `{:?}` (non-finite values must read `null`).
fn mismatches(values: &[f64]) -> usize {
    let mut bad = 0;
    for chunk in values.chunks(4096) {
        let mut w = JsonWriter::object("t");
        w.floats("v", chunk);
        let line = w.finish();
        let body = &line[line.find('[').expect("array") + 1..line.rfind(']').expect("array")];
        let texts: Vec<&str> = body.split(',').collect();
        assert_eq!(texts.len(), chunk.len(), "{line}");
        for (&value, &text) in chunk.iter().zip(&texts) {
            let want = if value.is_finite() { format!("{value:?}") } else { "null".to_owned() };
            if text != want {
                if bad < 8 {
                    eprintln!("bits {:#018x}: wrote {text}, {{:?}} is {want}", value.to_bits());
                }
                bad += 1;
            }
        }
    }
    bad
}

fn with_neighbours(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    values.into_iter().flat_map(|v| [v.next_down(), v, v.next_up(), -v]).collect()
}

fn edge_values() -> Vec<f64> {
    let mut values = vec![0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON, f64::NAN];
    values.extend([f64::INFINITY, f64::NEG_INFINITY, 5e-324, 1.0, 0.1, 1.0 / 3.0]);
    // Subnormals: every power of two, the largest, and one per bit count.
    let max_subnormal = f64::from_bits((1 << 52) - 1);
    values.extend((0..52).map(|k| f64::from_bits(1 << k)));
    values.extend((1..=52).map(|k| f64::from_bits((1u64 << k) - 1)));
    values.push(max_subnormal);
    // Every power of two, with its neighbours and sign.
    values.extend(with_neighbours((-1074..=1023).map(|e| 2f64.powi(e))));
    // Every power of ten, and d × 10^p around the layout thresholds.
    values.extend(with_neighbours((-323..=308).map(|p| format!("1e{p}").parse().unwrap())));
    for p in (-8..=-2).chain(13..=18) {
        for d in [1.0, 1.5, 2.0, 5.0, 9.0, 9.5, 9.99, 9.999_999_999_999_998, 123.0, 99_999.0] {
            values
                .extend(with_neighbours([d * 10f64.powi(p), format!("{d}e{p}").parse().unwrap()]));
        }
    }
    // Integers up to 2^63: around powers of two and ten.
    for k in 0..=63 {
        let p = 1u64 << k;
        values.extend([p - 1, p, p + 1].map(|n| n as f64));
    }
    for k in 0..=19 {
        let p = 10u64.pow(k);
        values.extend([p - 1, p, p + 1].map(|n| n as f64));
    }
    // Exact ties between two 17-digit candidates, which `{:?}` rounds up:
    // a quarter or three quarters past an integer in [2^50, 2^51). Halves
    // there and in [2^51, 2^52) need all 17 digits and sit beside them.
    values.push(f64::from_bits(0x4317_9085_685d_83c9));
    let mut rng = SplitMix(17);
    for _ in 0..2000 {
        let n = (1u64 << 50) + rng.next() % (1 << 50);
        values.extend([0.25, 0.5, 0.75].map(|f| n as f64 + f));
        let m = (1u64 << 51) + rng.next() % (1 << 51);
        values.push(m as f64 + 0.5);
    }
    values
}

#[test]
fn float_writer_matches_debug_on_edge_values() {
    let values = edge_values();
    assert!(values.len() > 10_000, "{}", values.len());
    assert_eq!(mismatches(&values), 0);
    let tie = f64::from_bits(0x4317_9085_685d_83c9);
    let mut w = JsonWriter::object("t");
    w.float("v", tie);
    assert_eq!(w.finish(), "{\"type\":\"t\",\"v\":1658206780088562.3}");
}

#[test]
fn float_writer_matches_debug_on_random_bit_patterns() {
    let mut rng = SplitMix(0x5eed);
    let values: Vec<f64> = (0..250_000).map(|_| f64::from_bits(rng.next())).collect();
    assert_eq!(mismatches(&values), 0);
    // Random integers up to 2^63, where `{:?}` still prints every digit.
    let ints: Vec<f64> =
        (0..50_000).map(|_| (rng.next() >> (rng.next() % 63 + 1)) as f64).collect();
    assert_eq!(mismatches(&ints), 0);
}

/// The release-build sweep `ci.sh` runs: `cargo test --release --test
/// json_codec -- --ignored`.
#[test]
#[ignore = "50M values; run in release"]
fn float_writer_matches_debug_on_fifty_million_bit_patterns() {
    let mut rng = SplitMix(0xc0de_c0de);
    let mut bad = 0;
    let mut chunk = vec![0.0; 1 << 16];
    let mut total = 0;
    while total < 50_000_000 {
        chunk.iter_mut().for_each(|v| *v = f64::from_bits(rng.next()));
        bad += mismatches(&chunk);
        total += chunk.len();
    }
    println!("{total} random bit patterns, {bad} mismatches against {{:?}}");
    assert_eq!(bad, 0);
}

/// Characters that stress the string codec: every control character,
/// quotes, backslashes, a slash, JSON punctuation and multi-byte UTF-8.
const ALPHABET: [char; 48] = {
    let mut chars = ['\0'; 48];
    let mut i = 0;
    while i < 32 {
        chars[i] = i as u8 as char;
        i += 1;
    }
    let rest = [
        '"', '\\', '/', 'a', ' ', ',', ':', '{', '}', '\u{7f}', 'é', '€', '\u{2028}', '𝄞', '😀',
        '\u{ffff}',
    ];
    let mut j = 0;
    while j < rest.len() {
        chars[32 + j] = rest[j];
        j += 1;
    }
    chars
};

fn text(picks: &[usize]) -> String {
    picks.iter().map(|&i| ALPHABET[i]).collect()
}

proptest! {
    #[test]
    fn writer_output_parses_back_bit_exactly(
        bits in collection::vec(0u64..u64::MAX, 0..24),
        single in 0u64..u64::MAX,
        key in collection::vec(0usize..48, 0..12),
        value in collection::vec(0usize..48, 0..40),
        wide in collection::vec(0x80u32..0x11_0000, 0..6),
    ) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let single = f64::from_bits(single);
        let key = format!("k{}", text(&key));
        let mut value = text(&value);
        value.extend(wide.iter().filter_map(|&c| char::from_u32(c)));
        let mut w = JsonWriter::object("t");
        w.floats("v", &values).float("x", single).string(&key, &value).string("s", &value);
        let line = w.finish();
        prop_assert!(!line.contains('\n'), "one line: {line:?}");
        let obj = parse_object(&line).map_err(|e| TestCaseError::fail(format!("{e}: {line:?}")))?;
        let read = obj.numbers("v").expect("numbers");
        prop_assert_eq!(read.len(), values.len());
        for (&r, &v) in read.iter().zip(&values) {
            prop_assert!(r.to_bits() == v.to_bits() || (!v.is_finite() && r.is_nan()), "{v:?} read {r:?}");
        }
        let x = obj.number("x").expect("x");
        prop_assert!(x.to_bits() == single.to_bits() || (!single.is_finite() && x.is_nan()));
        prop_assert_eq!(obj.string(&key), Some(value.as_str()));
        prop_assert_eq!(obj.string("s"), Some(value.as_str()));
    }
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    let read = |s: &str| {
        parse_object(&format!("{{\"k\":\"{s}\"}}")).map(|o| o.string("k").map(str::to_owned))
    };
    assert_eq!(read("\\u0041\\u00e9\\u20AC").unwrap().as_deref(), Some("Aé€"));
    for bad in
        ["\\u+041", "\\u-041", "\\u 041", "\\u04g1", "\\u041", "\\u00", "\\u", "\\ué041", "\\ud834"]
    {
        assert!(read(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn numbers_follow_the_json_grammar_and_stay_finite() {
    let read = |s: &str| parse_object(&format!("{{\"n\":{s}}}")).map(|o| o.number("n"));
    for (good, want) in [
        ("0", 0.0),
        ("-0", -0.0),
        ("7", 7.0),
        ("-12.5", -12.5),
        ("0.25", 0.25),
        ("1e5", 1e5),
        ("1E+2", 100.0),
        ("2.5e-3", 2.5e-3),
        ("-0.0e0", -0.0),
        ("1.7976931348623157e308", f64::MAX),
        ("1e-400", 0.0),
    ] {
        let v = read(good).unwrap().unwrap_or_else(|| panic!("{good} is no number"));
        assert_eq!(v.to_bits(), want.to_bits(), "{good}");
    }
    for bad in [
        "01", "-01", "00", "1.", "-.5", ".5", "+1", "-", "1e", "1e+", "1.e3", "1.5.3", "1e5000",
        "-1e5000", "1.8e308", "0x10", "1_0", "--1",
    ] {
        assert!(read(bad).is_err(), "accepted {bad:?}");
    }
    // Arrays take the same grammar, element by element.
    assert!(parse_object("{\"v\":[1,01]}").is_err());
    assert!(parse_object("{\"v\":[1e999]}").is_err());
    // A request carrying an out-of-grammar number is answered in-band.
    let mut rt = ServeRuntime::new();
    let (lines, shutdown) =
        handle_line(&mut rt, "{\"op\":\"stats\",\"session\":\"s\",\"n\":1e5000}");
    assert!(!shutdown);
    assert!(lines[0].starts_with("{\"type\":\"error\""), "{lines:?}");
    assert!(lines[0].contains("bad number"), "{lines:?}");
}

/// Re-writes a parsed object (when its values are in the writer's
/// vocabulary) so a mutated line that still parses can be checked to
/// round-trip. The writer's leading `type` tag is the object's own `type`
/// when it has one, so no key is written twice.
fn rewrite(obj: &JsonObject) -> Option<String> {
    let tag = match obj.get("type") {
        None => "t",
        Some(JsonValue::Str(tag)) => tag,
        Some(_) => return None,
    };
    let mut w = JsonWriter::object(tag);
    for (key, value) in obj.iter().filter(|(key, _)| *key != "type") {
        match value {
            JsonValue::Str(s) => w.string(key, s),
            JsonValue::Num(v) => w.float(key, *v),
            JsonValue::Null => w.float(key, f64::NAN),
            JsonValue::Bool(b) => w.boolean(key, *b),
            JsonValue::Arr(_) => w.floats(key, &obj.numbers(key)?),
        };
    }
    Some(w.finish())
}

/// The property every mutated line must keep: no panic anywhere, and
/// either an in-band rejection or an object that re-writes to itself. A
/// line the protocol can act on without opening a session is also served,
/// and every response must be a JSON object with a `type`.
fn check_mutant(rt: &mut ServeRuntime, line: &str) {
    match parse_object(line) {
        Err(_) => {}
        Ok(obj) => {
            if let Some(again) = rewrite(&obj) {
                let mut reparsed = parse_object(&again).expect("the writer's output parses");
                if !obj.contains_key("type") {
                    reparsed.remove("type");
                }
                assert_eq!(reparsed, obj, "{line:?} → {again:?}");
            }
            if matches!(obj.string("op"), Some("open" | "restore" | "shutdown")) {
                return;
            }
        }
    }
    let (responses, _) = handle_line(rt, line);
    assert!(!responses.is_empty(), "{line:?}");
    for response in &responses {
        let obj = parse_object(response).unwrap_or_else(|e| panic!("{e}: {response:?}"));
        assert!(obj.string("type").is_some(), "{response:?}");
    }
}

#[test]
fn mutated_request_lines_are_rejected_in_band() {
    let lines = request_lines();
    for line in &lines {
        assert!(parse_object(line).is_ok(), "{line}");
        // Every proper prefix loses the closing brace.
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            assert!(parse_object(&line[..cut]).is_err(), "accepted prefix {:?}", &line[..cut]);
        }
    }
    let mutants = mutants(&lines);
    let mut rt = ServeRuntime::new();
    for mutant in &mutants {
        check_mutant(&mut rt, mutant);
    }
    assert!(mutants.len() > 1000, "{} mutants", mutants.len());
    assert!(rt.is_empty(), "no mutant may open a session");
}

/// A key that appears twice is a parse error, not last-wins: the second
/// `op` of this open line used to close every session and shut the
/// server down.
#[test]
fn duplicate_keys_are_rejected_in_band() {
    let line = r#"{"op":"open","session":"b","op":"shutdown"}"#;
    assert_eq!(parse_object(line), Err("duplicate key \"op\"".to_owned()));
    for line in [r#"{"a":1,"a":1}"#, r#"{ "a" : 1 , "b" : 2 , "a" : "x" }"#, r#"{"a":1,"a":2}"#] {
        assert_eq!(parse_object(line), Err("duplicate key \"a\"".to_owned()), "{line}");
    }
    let mut rt = ServeRuntime::new();
    let (lines, shutdown) = handle_line(&mut rt, line);
    assert!(!shutdown, "{lines:?}");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"type\":\"error\",\"op\":\"parse\""), "{lines:?}");
}
