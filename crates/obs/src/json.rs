//! The minimal flat-JSON dialect the event codec speaks: one object per
//! line, values limited to strings, finite numbers, booleans, `null`, and
//! flat arrays of those scalars (the serving protocol's `"input":[...]`
//! payloads; arrays never nest). Hand-rolled so the workspace stays
//! std-only; the writer and parser are exact inverses for everything
//! [`crate::Event`] emits (`f64` fields are written in the bytes of Rust's
//! shortest round-trip `{:?}`, so `write → parse` is bit-exact).
//!
//! There is one scanner. [`read_object`] walks an object's fields in text
//! order and hands each value to a visitor as a [`JsonField`], refusing a
//! repeated key; [`parse_object`] is the visitor that collects every field
//! into a map, and a hot-path reader (the serving protocol's `invoke`)
//! reads only the fields it needs, borrowing strings from the line and
//! decoding number arrays straight into a buffer it reuses.

mod dtoa;

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string.
    Str(String),
    /// A number (JSON has one numeric type; `null` also parses here as NaN
    /// when read through [`JsonObject::number`]).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// A flat array of scalars (no nesting — the serving protocol only
    /// ever ships number vectors).
    Arr(Vec<JsonValue>),
}

/// A parsed single-level JSON object, field order normalized.
pub type JsonObject = BTreeMap<String, JsonValue>;

/// Field accessors used by the event decoder.
pub trait ObjectExt {
    /// The string field `key`, if present and a string.
    fn string(&self, key: &str) -> Option<&str>;
    /// The numeric field `key`; `null` reads as NaN (the writer encodes
    /// non-finite floats as `null`).
    fn number(&self, key: &str) -> Option<f64>;
    /// The numeric field `key`, truncated to an integer count.
    fn count(&self, key: &str) -> Option<u64>;
    /// The boolean field `key`, if present and a boolean.
    fn boolean(&self, key: &str) -> Option<bool>;
    /// The array field `key` decoded as an `f64` vector; `null` elements
    /// read as NaN (the writer encodes non-finite floats as `null`).
    fn numbers(&self, key: &str) -> Option<Vec<f64>>;
    /// The array field `key` decoded as integer counts; any negative or
    /// fractional element poisons the read.
    fn counts_array(&self, key: &str) -> Option<Vec<u64>>;
}

impl ObjectExt for JsonObject {
    fn string(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn number(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    fn count(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    fn boolean(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn numbers(&self, key: &str) -> Option<Vec<f64>> {
        match self.get(key)? {
            JsonValue::Arr(items) => items
                .iter()
                .map(|v| match v {
                    JsonValue::Num(x) => Some(*x),
                    JsonValue::Null => Some(f64::NAN),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }

    fn counts_array(&self, key: &str) -> Option<Vec<u64>> {
        match self.get(key)? {
            JsonValue::Arr(items) => items
                .iter()
                .map(|v| match v {
                    JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
}

/// Incremental writer for one flat JSON object.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// Starts an object with its `type` tag as the first field.
    #[must_use]
    pub fn object(tag: &str) -> Self {
        Self::with_capacity(tag, 128)
    }

    /// Starts a request object: no `type` tag, since a request names its
    /// `op` as an ordinary field.
    #[must_use]
    pub fn request() -> Self {
        let mut w = Self { out: String::with_capacity(128) };
        w.out.push('{');
        w
    }

    /// [`JsonWriter::object`] with room for `bytes` of text, for callers
    /// that know their line is longer than the default 128 bytes.
    #[must_use]
    pub fn with_capacity(tag: &str, bytes: usize) -> Self {
        let mut w = Self { out: String::with_capacity(bytes) };
        w.out.push('{');
        w.raw_key("type");
        w.raw_string(tag);
        w
    }

    fn raw_key(&mut self, key: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        self.raw_string(key);
        self.out.push(':');
    }

    /// Quotes `s`, copying each run of bytes that needs no escape in one
    /// piece (escapes are ASCII, so every run ends on a char boundary).
    fn raw_string(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    self.out.push_str("\\u00");
                    self.out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                    self.out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
                }
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// A finite value in Rust's shortest round-trip `{:?}` bytes; a
    /// non-finite one as `null` (JSON has no NaN/inf).
    fn raw_float(&mut self, value: f64) {
        if value.is_finite() {
            dtoa::push_f64(&mut self.out, value);
        } else {
            self.out.push_str("null");
        }
    }

    /// Appends a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw_key(key);
        self.raw_string(value);
        self
    }

    /// Appends a float field. Finite values are written exactly as
    /// `format!("{value:?}")` writes them (shortest round-trip digits,
    /// bit-exact through the parser); non-finite values become `null`.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw_key(key);
        self.raw_float(value);
        self
    }

    /// Appends an integer count field.
    pub fn count(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw_key(key);
        dtoa::push_u64(&mut self.out, value);
        self
    }

    /// Appends a boolean field.
    pub fn boolean(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw_key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a flat number-array field. Elements follow the same
    /// formatting contract as [`JsonWriter::float`].
    pub fn floats(&mut self, key: &str, values: &[f64]) -> &mut Self {
        self.raw_key(key);
        self.out.push('[');
        for (i, &value) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.raw_float(value);
        }
        self.out.push(']');
        self
    }

    /// Appends a flat integer-count array field.
    pub fn counts(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.raw_key(key);
        self.out.push('[');
        for (i, &value) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            dtoa::push_u64(&mut self.out, value);
        }
        self.out.push(']');
        self
    }

    /// Closes the object and returns the JSON text (no trailing newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Parses one flat JSON object (as written by [`JsonWriter`], but accepts
/// arbitrary whitespace and field order). Nested objects/arrays are not in
/// the event dialect and are rejected, and so is a key that appears twice.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax problem.
pub fn parse_object(text: &str) -> Result<JsonObject, String> {
    let mut obj = JsonObject::new();
    read_object(text, |key, field| {
        obj.insert(key.to_owned(), field.value()?);
        Ok(())
    })?;
    Ok(obj)
}

/// Checks one flat JSON object against the grammar [`parse_object`]
/// accepts and calls `visit` with each field's key and value, in text
/// order. A value the visitor leaves unread is checked and skipped. Keys
/// are unescaped before the visitor sees them, and a key that appears
/// twice fails the read (`duplicate key "k"`) once its second value has
/// been read, so a syntax error inside that value is reported first.
///
/// # Errors
///
/// The first syntax problem or repeated key, or the first error `visit`
/// returns.
pub fn read_object<'a>(
    text: &'a str,
    mut visit: impl FnMut(&str, JsonField<'_, 'a>) -> Result<(), String>,
) -> Result<(), String> {
    let mut p = Parser { text, pos: 0 };
    let mut keys = KeySet::default();
    p.skip_ws();
    p.expect(b'{')?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_str()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let start = p.pos;
            visit(&key, JsonField { parser: &mut p })?;
            // Every value is at least one byte, so an unmoved parser means
            // an unread value.
            if p.pos == start {
                p.skip_value()?;
            }
            keys.insert(key)?;
            p.skip_ws();
            match p.next() {
                Some(b',') => {}
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(())
}

/// One field's value, positioned for [`read_object`]'s visitor. Each
/// reader consumes it and checks the whole value against the grammar,
/// whatever it returns.
pub struct JsonField<'p, 'a> {
    parser: &'p mut Parser<'a>,
}

impl<'a> JsonField<'_, 'a> {
    /// The value, parsed.
    ///
    /// # Errors
    ///
    /// The value's first syntax problem.
    pub fn value(self) -> Result<JsonValue, String> {
        self.parser.parse_value()
    }

    /// The value if it is a string, borrowed from the text unless it holds
    /// an escape; any other value reads as `None`.
    ///
    /// # Errors
    ///
    /// The value's first syntax problem.
    pub fn string(self) -> Result<Option<Cow<'a, str>>, String> {
        if self.parser.peek() == Some(b'"') {
            self.parser.parse_str().map(Some)
        } else {
            self.parser.skip_value().map(|()| None)
        }
    }

    /// Appends the value's elements to `out` and returns `true` when it is
    /// an array of numbers; `null` elements read as NaN, as in
    /// [`ObjectExt::numbers`]. Any other value returns `false`, and what
    /// it appended to `out` is no row.
    ///
    /// # Errors
    ///
    /// The value's first syntax problem.
    pub fn numbers_into(self, out: &mut Vec<f64>) -> Result<bool, String> {
        let p = self.parser;
        if p.peek() != Some(b'[') {
            return p.skip_value().map(|()| false);
        }
        // A reused buffer keeps its room; a fresh one is sized once.
        if out.len() == out.capacity() {
            out.reserve(p.array_len_hint());
        }
        let mut numbers = true;
        p.array(|p| {
            match p.peek() {
                Some(b'-' | b'0'..=b'9') => out.push(p.parse_number()?),
                Some(b'n') => {
                    p.parse_literal("null", JsonValue::Null)?;
                    out.push(f64::NAN);
                }
                _ => {
                    p.skip_value()?;
                    numbers = false;
                }
            }
            Ok(())
        })?;
        Ok(numbers)
    }
}

/// The keys an object has shown so far: a short list searched in place
/// (requests carry a handful), then a set, so a line of many keys costs
/// `O(n log n)`. Borrowed keys allocate nothing.
#[derive(Default)]
struct KeySet<'a> {
    few: [Cow<'a, str>; 8],
    len: usize,
    many: BTreeSet<Cow<'a, str>>,
}

impl<'a> KeySet<'a> {
    fn insert(&mut self, key: Cow<'a, str>) -> Result<(), String> {
        if self.few[..self.len].contains(&key) || self.many.contains(&key) {
            return Err(format!("duplicate key {key:?}"));
        }
        if self.len < self.few.len() {
            self.few[self.len] = key;
            self.len += 1;
        } else {
            self.many.insert(key);
        }
        Ok(())
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected '{}', got {other:?}", want as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_str()?.into_owned())),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number().map(JsonValue::Num),
            Some(b'[') => {
                let mut items = Vec::with_capacity(self.array_len_hint());
                self.array(|p| {
                    items.push(p.parse_value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Arr(items))
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    /// Checks one value and discards it; only a string with an escape
    /// allocates.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.parse_str().map(drop),
            Some(b'[') => self.array(Self::skip_value),
            _ => self.parse_value().map(drop),
        }
    }

    /// The element count of the array starting here, from the commas
    /// before the first ']': exact for the number vectors the protocol
    /// ships, an over-estimate bounded by the line length when a string
    /// element holds commas.
    fn array_len_hint(&self) -> usize {
        let rest = &self.text.as_bytes()[self.pos..];
        let span = rest.iter().position(|&b| b == b']').unwrap_or(rest.len());
        rest[..span].iter().filter(|&&b| b == b',').count() + 1
    }

    /// A flat array, handing `item` the parser at each element; nested
    /// arrays stay outside the dialect and are rejected.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() == Some(b'[') {
                return Err("nested arrays are not in the event dialect".into());
            }
            item(self)?;
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b']') => return Ok(()),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    /// A number in the JSON grammar, `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`,
    /// checked in the one scan that finds its end. A number that overflows
    /// to infinity is rejected: the writer could only echo it as `null`.
    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        // The scanned bytes are ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) if ok && v.is_finite() => Ok(v),
            _ => Err(format!("bad number '{text}'")),
        }
    }

    /// Skips a run of ASCII digits, returning its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A quoted string, borrowed from the text when no escape comes
    /// before the closing quote; otherwise the text between escapes is
    /// copied run by run. Quotes and backslashes are ASCII and never occur
    /// inside a multi-byte character, so every run is a `str` slice.
    fn parse_str(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let stop = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        self.pos += stop;
        if self.next() == Some(b'"') {
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::with_capacity(stop + 16);
        out.push_str(&self.text[start..self.pos - 1]);
        out.push(self.parse_escape()?);
        let mut run = self.pos;
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos - 1]);
                    out.push(self.parse_escape()?);
                    run = self.pos;
                }
                Some(_) => {}
            }
        }
        out.push_str(&self.text[run..self.pos - 1]);
        Ok(Cow::Owned(out))
    }

    /// The character an escape stands for; the backslash is consumed.
    fn parse_escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                // Exactly four ASCII hex digits: no sign, no shorter form.
                let hex = self.text.as_bytes().get(self.pos..self.pos + 4);
                let hex = hex.ok_or("truncated \\u escape")?;
                let mut code = 0;
                for &b in hex {
                    let digit = char::from(b).to_digit(16);
                    code = code << 4 | digit.ok_or_else(|| format!("bad \\u escape {hex:?}"))?;
                }
                self.pos += 4;
                char::from_u32(code).ok_or("invalid \\u code point")?
            }
            other => return Err(format!("bad escape {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_every_value_kind() {
        let mut w = JsonWriter::object("demo");
        w.string("s", "a \"quoted\"\nline")
            .float("x", 0.1)
            .float("nan", f64::NAN)
            .count("n", 42)
            .boolean("b", true);
        let line = w.finish();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj.string("type"), Some("demo"));
        assert_eq!(obj.string("s"), Some("a \"quoted\"\nline"));
        assert_eq!(obj.number("x"), Some(0.1));
        assert!(obj.number("nan").unwrap().is_nan());
        assert_eq!(obj.count("n"), Some(42));
        assert_eq!(obj.boolean("b"), Some(true));
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        for v in [0.1, 1.0 / 3.0, 1e-6, 123456.789, f64::MIN_POSITIVE, -0.0] {
            let mut w = JsonWriter::object("t");
            w.float("v", v);
            let obj = parse_object(&w.finish()).unwrap();
            assert_eq!(obj.number("v").unwrap().to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["", "{", "{\"a\":}", "{\"a\":1,}", "{\"a\":1}x", "[1,2]", "{\"a\":{}}"] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn number_arrays_round_trip_bit_exactly() {
        let values = [0.1, -2.5e3, 1.0 / 3.0, f64::NAN, 0.0];
        let mut w = JsonWriter::object("t");
        w.floats("input", &values).floats("empty", &[]);
        let line = w.finish();
        assert!(line.contains("\"empty\":[]"), "{line}");
        let obj = parse_object(&line).unwrap();
        let parsed = obj.numbers("input").unwrap();
        assert_eq!(parsed.len(), values.len());
        for (a, b) in parsed.iter().zip(&values) {
            assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()), "{a} vs {b}");
        }
        assert_eq!(obj.numbers("empty"), Some(Vec::new()));
        assert_eq!(obj.numbers("type"), None, "scalars are not arrays");
    }

    #[test]
    fn count_arrays_round_trip_and_reject_non_integers() {
        let mut w = JsonWriter::object("t");
        w.counts("tiers", &[3, 0, u64::from(u32::MAX) + 7]).counts("none", &[]);
        let line = w.finish();
        assert!(line.contains("\"tiers\":[3,0,4294967302]"), "{line}");
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj.counts_array("tiers"), Some(vec![3, 0, 4_294_967_302]));
        assert_eq!(obj.counts_array("none"), Some(Vec::new()));
        let mixed = parse_object("{\"a\":[1,2.5],\"b\":[-1],\"c\":1}").unwrap();
        assert_eq!(mixed.counts_array("a"), None, "fractional element poisons the read");
        assert_eq!(mixed.counts_array("b"), None, "negative element poisons the read");
        assert_eq!(mixed.counts_array("c"), None, "scalars are not arrays");
    }

    #[test]
    fn rejects_nested_containers_inside_arrays() {
        for bad in ["{\"a\":[[1]]}", "{\"a\":[{\"b\":1}]}", "{\"a\":[1,]}", "{\"a\":[1"] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
        let obj = parse_object("{\"a\":[ 1 , null , \"s\" , true ]}").unwrap();
        match obj.get("a") {
            Some(JsonValue::Arr(items)) => assert_eq!(items.len(), 4),
            other => panic!("{other:?}"),
        }
        assert_eq!(obj.numbers("a"), None, "strings/bools poison a numbers() read");
    }

    #[test]
    fn accepts_whitespace_and_unicode_escapes() {
        let obj = parse_object("  { \"k\" : \"\\u00e9\\u0001\" , \"n\" : -2.5e3 }  ").unwrap();
        assert_eq!(obj.string("k"), Some("é\u{1}"));
        assert_eq!(obj.number("n"), Some(-2500.0));
    }
}
