//! The borrowed `invoke` reader against the map-based decode it replaced.
//!
//! `handle_line` reads an `invoke` without a map: the session name is
//! borrowed from the line and the `input` floats go straight into a reused
//! buffer. The reference below is a copy of the map-based `invoke` arm
//! (`parse_object`, then `numbers("input")`). Two runtimes with the
//! same sessions take the same lines, one through each; every response
//! must be byte-equal and every session must snapshot to the same bytes
//! after every line. The lines are the request-line mutation corpus plus
//! mutants of a live invoke, and seeded random invoke lines: permuted
//! field order, whitespace, escaped keys and names, `null` and non-number
//! elements, nested arrays, extra and repeated keys, `-0`, `1e400`, wrong
//! widths.

use rumba::serve::config::open_line;
use rumba::serve::protocol::handle_line;
use rumba::serve::{AdmissionPolicy, ServeRuntime, SessionConfig, Submit};
use rumba_core::event_sim::QueueConfig;
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};

mod request_corpus;
use request_corpus::{mutants, request_lines};

fn error_line(op: &str, message: &str) -> String {
    let mut w = JsonWriter::object("error");
    w.string("op", op).string("message", message);
    w.finish()
}

/// The decode `invoke` had before the borrowed reader: the whole line into
/// a map, then the `invoke` arm's reads. Every other op goes to
/// `handle_line`, whose path for them is unchanged.
fn reference(rt: &mut ServeRuntime, line: &str) -> (Vec<String>, bool) {
    let obj = match parse_object(line) {
        Ok(obj) => obj,
        Err(msg) => return (vec![error_line("parse", &msg)], false),
    };
    let Some(op) = obj.string("op") else {
        return (vec![error_line("none", "request is missing the \"op\" field")], false);
    };
    if op != "invoke" {
        return handle_line(rt, line);
    }
    let Some(name) = obj.string("session").filter(|s| !s.is_empty()) else {
        return (vec![error_line(op, "op \"invoke\" requires a \"session\" field")], false);
    };
    let Some(input) = obj.numbers("input") else {
        return (vec![error_line(op, "op \"invoke\" requires an \"input\" number array")], false);
    };
    let response = match rt.submit(name, &input) {
        Ok(Submit::Accepted { depth, blocked }) => {
            let mut w = JsonWriter::object("ack");
            w.string("op", "invoke")
                .string("session", name)
                .count("queued", depth as u64)
                .boolean("blocked", blocked);
            w.finish()
        }
        Ok(Submit::Shed) => {
            let shed_total = rt.session(name).map_or(0, |s| s.stats().shed);
            let mut w = JsonWriter::object("shed");
            w.string("session", name).count("code", 503).count("shed_total", shed_total);
            w.finish()
        }
        Err(e) => error_line(op, &e.to_string()),
    };
    (vec![response], false)
}

/// Two runtimes that must stay equal: `new` takes every line through
/// `handle_line`, `old` through [`reference`].
struct Pair {
    new: ServeRuntime,
    old: ServeRuntime,
    names: Vec<String>,
    lines: usize,
}

impl Pair {
    /// Opens a shed session (four slots) and a block session (three) on a
    /// three-input kernel. The first name is the corpus invoke's session.
    fn open() -> Self {
        let mut pair = Self {
            new: ServeRuntime::new(),
            old: ServeRuntime::new(),
            names: Vec::new(),
            lines: 0,
        };
        for (name, queue, admission) in
            [("s-é\"q\\", 4, AdmissionPolicy::Shed), ("blk\t2", 3, AdmissionPolicy::Block)]
        {
            let config = SessionConfig {
                kernel: "blackscholes".to_owned(),
                window: 16,
                queue: QueueConfig { input_capacity: queue, ..QueueConfig::default() },
                admission,
                ..SessionConfig::default()
            };
            let line = open_line(name, &config);
            let (a, b) = (handle_line(&mut pair.new, &line), handle_line(&mut pair.old, &line));
            assert_eq!(a, b);
            assert!(a.0[0].starts_with("{\"type\":\"ack\""), "{a:?}");
            pair.names.push(name.to_owned());
        }
        assert_eq!(pair.dim(), 3, "the corpus invoke carries three inputs");
        pair
    }

    fn dim(&self) -> usize {
        self.new.session(&self.names[0]).expect("open").input_dim()
    }

    /// Sends `line` to both runtimes, checks the responses and every
    /// session's state, and returns the response lines.
    fn check(&mut self, line: &str) -> Vec<String> {
        let new = handle_line(&mut self.new, line);
        let old = reference(&mut self.old, line);
        assert_eq!(new, old, "{line:?}");
        for name in &self.names {
            let a = self.new.session(name).map(|s| s.snapshot());
            let b = self.old.session(name).map(|s| s.snapshot());
            assert!(a == b, "session {name:?} diverged after {line:?}");
        }
        self.lines += 1;
        new.0
    }

    /// Drains one session in both runtimes, so later invokes are admitted.
    fn drain(&mut self, name: &str) {
        let mut w = JsonWriter::request();
        w.string("op", "drain").string("session", name);
        self.check(&w.finish());
    }
}

#[test]
fn mutated_request_lines_read_as_before() {
    let mut pair = Pair::open();
    let mut lines = request_lines();
    // A live invoke on the shed session: its mutants reach `submit`.
    let mut w = JsonWriter::request();
    w.string("op", "invoke").string("session", &pair.names[0]).floats("input", &[0.5, -0.0, 2.0]);
    lines.push(w.finish());
    let mutants = mutants(&lines);
    let first = pair.names[0].clone();
    for (i, mutant) in mutants.iter().enumerate() {
        // `open`, `restore` and `shutdown` would change the session set,
        // and their path is the same on both sides.
        if parse_object(mutant)
            .is_ok_and(|obj| matches!(obj.string("op"), Some("open" | "restore" | "shutdown")))
        {
            continue;
        }
        pair.check(mutant);
        if i % 8 == 7 {
            pair.drain(&first);
        }
    }
    assert!(pair.lines > 1000, "{} lines", pair.lines);
}

/// SplitMix64: the seeded stream the random lines are drawn from.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\t", "\n ", "\r\n"])
    }

    /// `text` as a JSON string, with one character written as a `\u`
    /// escape now and then.
    fn quoted(&mut self, text: &str) -> String {
        let mut w = JsonWriter::request();
        w.string("k", text);
        let plain = w.finish()["{\"k\":".len()..].trim_end_matches('}').to_owned();
        if text.is_empty() || self.below(4) != 0 {
            return plain;
        }
        let chars: Vec<char> = text.chars().collect();
        let at = self.below(chars.len());
        let mut out = String::from("\"");
        for (i, &c) in chars.iter().enumerate() {
            match c {
                _ if i == at && u32::from(c) <= 0xffff => {
                    out.push_str(&format!("\\u{:04x}", u32::from(c)));
                }
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn number(&mut self) -> String {
        match self.below(48) {
            0 => "-0".to_owned(),
            1 => "1e400".to_owned(),
            2 => "1e-400".to_owned(),
            3 => self.pick(&["-0.0", "1E2", "2.5e-3", "0", "-12", "7e+0"]).to_owned(),
            4 => self.pick(&["01", "1.", "-.5", "+1", "0x1"]).to_owned(),
            _ => {
                let v = (self.next() % 2_000_001) as f64 / 1000.0 - 1000.0;
                format!("{v:?}")
            }
        }
    }

    fn element(&mut self) -> String {
        match self.below(64) {
            0 => "null".to_owned(),
            1 => self.pick(&["\"x\"", "\"1\"", "true", "false", "\"\\u00e9\""]).to_owned(),
            2 => self.pick(&["[1]", "[]", "{}", "nul", "\"open"]).to_owned(),
            _ => self.number(),
        }
    }

    fn input(&mut self, dim: usize) -> String {
        if self.below(16) == 0 {
            return self.pick(&["5", "null", "\"[1,2,3]\"", "true", "{}"]).to_owned();
        }
        let width = match self.below(10) {
            0 => 0,
            1 => dim + 1,
            2 => dim - 1,
            _ => dim,
        };
        let items: Vec<String> =
            (0..width).map(|_| format!("{}{}{}", self.ws(), self.element(), self.ws())).collect();
        format!("[{}]", items.join(","))
    }

    fn session(&mut self, names: &[String]) -> String {
        match self.below(12) {
            0 => "\"\"".to_owned(),
            1 => self.quoted("ghost"),
            2 => self.pick(&["7", "null", "[\"s\"]", "true"]).to_owned(),
            _ => {
                let name = names[self.below(names.len())].clone();
                self.quoted(&name)
            }
        }
    }

    fn op(&mut self) -> String {
        match self.below(16) {
            0 => self.pick(&["\"stats\"", "\"drain\"", "\"Invoke\"", "7", "null"]).to_owned(),
            _ => self.quoted("invoke"),
        }
    }

    /// One random invoke-shaped line for sessions `names` of width `dim`.
    fn line(&mut self, names: &[String], dim: usize) -> String {
        let mut fields: Vec<(String, String)> = Vec::new();
        if self.below(12) != 0 {
            fields.push(("op".to_owned(), self.op()));
        }
        if self.below(12) != 0 {
            fields.push(("session".to_owned(), self.session(names)));
        }
        if self.below(12) != 0 {
            fields.push(("input".to_owned(), self.input(dim)));
        }
        for _ in 0..self.below(3) {
            let key = self.pick(&["type", "note", "inputs", "Op", "", "x\u{e9}"]).to_owned();
            let value = self.pick(&["1", "\"request\"", "[1,null]", "false", "null"]).to_owned();
            fields.push((key, value));
        }
        if !fields.is_empty() && self.below(10) == 0 {
            let again = fields[self.below(fields.len())].clone();
            fields.push(again);
        }
        for i in (1..fields.len()).rev() {
            fields.swap(i, self.below(i + 1));
        }
        let mut line = format!("{}{{", self.ws());
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let key = self.quoted(key);
            line.push_str(&format!(
                "{}{key}{}:{}{value}{}",
                self.ws(),
                self.ws(),
                self.ws(),
                self.ws()
            ));
        }
        line.push('}');
        line.push_str(self.ws());
        line
    }
}

#[test]
fn random_invoke_lines_read_as_before() {
    let mut pair = Pair::open();
    let (names, dim) = (pair.names.clone(), pair.dim());
    let mut draw = Draw(0x5eed_1e55);
    // Responses that open with an invoke ack, a shed and an error; the
    // few lines whose op is not `invoke` answer otherwise.
    let heads =
        ["{\"type\":\"ack\",\"op\":\"invoke\"", "{\"type\":\"shed\"", "{\"type\":\"error\""];
    let mut seen = [0usize; 3];
    for i in 0..3000 {
        let response = pair.check(&draw.line(&names, dim));
        if let Some(kind) = heads.iter().position(|head| response[0].starts_with(head)) {
            seen[kind] += 1;
        }
        if i % 12 == 11 {
            pair.drain(&names[draw.below(names.len())]);
        }
    }
    // The draw must reach every outcome: accepted, shed and refused lines.
    assert!(seen.iter().all(|&n| n > 50), "ack, shed, error: {seen:?}");
}
