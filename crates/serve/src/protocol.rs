//! Newline-delimited JSON request/response protocol for `rumba serve`.
//!
//! Requests are flat JSON objects with an `"op"` field; every request
//! produces one or more flat JSON response lines whose `"type"` field
//! names the response kind (`ack`, `result`, `shed`, `stats`, `closed`,
//! `error`). The dialect reuses the observability crate's codec, so the
//! wire format shares its bit-exact float round-trip guarantees.
//!
//! Every line is decoded by [`read_request`], the one reader behind
//! [`handle_line`] and the TCP router. An `invoke` is read field by field
//! with [`read_object`], without a map: `op` and `session` are borrowed
//! from the line (owned only when they hold an escape), and the `input`
//! floats are decoded straight into a buffer the [`ServeRuntime`] reuses,
//! so a steady-state invoke allocates only its response. Every other op
//! is collected into a [`JsonObject`] by [`parse_object`] (the same
//! scanner) and handled from the map. The reader accepts and answers what
//! the map path did: any field order, `null` elements as NaN, extra keys
//! ignored, a repeated key refused, and the same error bytes in the same
//! order (syntax or repeated key, then `op`, `session`, `input`, then the
//! submit error).
//!
//! Operations:
//!
//! | op         | fields                                                            |
//! |------------|-------------------------------------------------------------------|
//! | `open`     | `session` (required) plus the keys of the session-config key table in [`crate::config`], each with one JSON type; missing keys take their defaults. Strict: an unknown key, a value of the wrong type, or a key that the chosen mode, fix or fault setting does not use is one `error` naming the key, and sizes are checked by `SessionConfig::validate` before any training |
//! | `invoke`   | `session`, `input` (number array)                                 |
//! | `drain`    | `session` (optional — omitted drains **all** sessions through one multiplexed scheduling round) |
//! | `stats`    | `session`                                                         |
//! | `close`    | `session`                                                         |
//! | `snapshot` | `session` — serialize the session's config and live state as one line of hex words (`rumba-session-snapshot v3`, see [`crate::snapshot`]) |
//! | `restore`  | `session`, `state` (a `snapshot` payload) — rebuild the session, bit-for-bit; the snapshot's config passes `open`'s validator (sizes, fault rates) and every word is checked before training |
//! | `shutdown` | —                                                                 |

use std::borrow::Cow;
use std::io::{Read, Write};

use rumba_obs::json::{parse_object, read_object, JsonObject, JsonWriter, ObjectExt};

use crate::config;
use crate::registry::{ServeRuntime, Submit};
use crate::session::{SessionResult, SessionStats};
use crate::transport::{request_loop, TornTail};
use crate::ServeError;

pub(crate) fn error_line(op: &str, message: &str) -> String {
    let mut w = JsonWriter::object("error");
    w.string("op", op).string("message", message);
    w.finish()
}

pub(crate) fn result_line(session: &str, r: &SessionResult) -> String {
    // The fixed fields take under 100 bytes; a float under 25 with its comma.
    let bytes = 100 + session.len() + 25 * r.output.len();
    let mut w = JsonWriter::with_capacity("result", bytes);
    w.string("session", session)
        .count("index", r.index as u64)
        .boolean("fired", r.fired)
        .float("predicted", r.predicted_error)
        .float("error", r.measured_error)
        .floats("output", &r.output);
    w.finish()
}

pub(crate) fn closed_line(session: &str, stats: &SessionStats) -> String {
    let mut w = JsonWriter::object("closed");
    w.string("session", session).count("processed", stats.processed).count("fixes", stats.fixes);
    // Like the telemetry events, the compensated count is omitted when
    // zero so re-execution-only transcripts are byte-identical to the
    // pre-compensation wire format.
    if stats.compensated > 0 {
        w.count("compensated", stats.compensated);
    }
    w.count("shed", stats.shed)
        .count("blocked", stats.blocked)
        .float("mean_error", stats.mean_error())
        .float("cpu_utilization", stats.cpu_utilization())
        .float("threshold", stats.final_threshold);
    w.finish()
}

fn required_session<'a>(obj: &'a JsonObject, op: &str) -> Result<&'a str, String> {
    obj.string("session").filter(|s| !s.is_empty()).ok_or_else(|| missing_session(op))
}

fn missing_session(op: &str) -> String {
    format!("op {op:?} requires a \"session\" field")
}

/// Handles one request line against the runtime. Returns the response
/// lines plus a flag that is true when the request asked for shutdown
/// (all sessions are closed before the flag is returned).
pub fn handle_line(rt: &mut ServeRuntime, line: &str) -> (Vec<String>, bool) {
    let mut input = std::mem::take(&mut rt.request_input);
    let response = match read_request(line, &mut input) {
        Ok(Request::Invoke { session }) => (vec![invoke(rt, &session, &input)], false),
        Ok(Request::Other { op, obj }) => handle_request(rt, &op, &obj),
        Err(error) => (vec![error], false),
    };
    rt.request_input = input;
    response
}

/// One request line, decoded by [`read_request`].
pub(crate) enum Request<'a> {
    /// An `invoke` on a named session; its `input` row is in the buffer
    /// the line was read with.
    Invoke {
        /// The session name, borrowed from the line unless it holds an
        /// escape.
        session: Cow<'a, str>,
    },
    /// Any other op, with the line's fields as a map.
    Other {
        /// The op name.
        op: String,
        /// Every field of the line.
        obj: JsonObject,
    },
}

/// Decodes one request line. An `invoke` is read without a map: its
/// session name is borrowed and its `input` floats are decoded into
/// `input` (cleared first), so a caller that reuses the buffer allocates
/// nothing here. Any other op is collected into a [`JsonObject`].
///
/// # Errors
///
/// The one `error` response line of a request that fails here, in this
/// order: a syntax error or repeated key, a missing string `op`, then for
/// an `invoke` a missing or empty `session` and a missing `input` number
/// array.
pub(crate) fn read_request<'a>(line: &'a str, input: &mut Vec<f64>) -> Result<Request<'a>, String> {
    let (mut op, mut session, mut numbers) = (None, None, false);
    input.clear();
    read_object(line, |key, field| {
        match key {
            "op" => op = field.string()?,
            "session" => session = field.string()?,
            "input" => numbers = field.numbers_into(input)?,
            _ => {}
        }
        Ok(())
    })
    .map_err(|msg| error_line("parse", &msg))?;
    let Some(op) = op else {
        return Err(error_line("none", "request is missing the \"op\" field"));
    };
    if op != "invoke" {
        // The line already passed the same scanner, so this cannot fail.
        let obj = parse_object(line).map_err(|msg| error_line("parse", &msg))?;
        return Ok(Request::Other { op: op.into_owned(), obj });
    }
    let session = session
        .filter(|s| !s.is_empty())
        .ok_or_else(|| error_line("invoke", &missing_session("invoke")))?;
    if !numbers {
        return Err(error_line("invoke", "op \"invoke\" requires an \"input\" number array"));
    }
    Ok(Request::Invoke { session })
}

/// Submits one decoded `invoke` and renders its one response line: an
/// `ack`, a `shed`, or the submit error.
pub(crate) fn invoke(rt: &mut ServeRuntime, name: &str, input: &[f64]) -> String {
    match rt.submit(name, input) {
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
        Err(e) => error_line("invoke", &e.to_string()),
    }
}

/// Handles one request that [`read_request`] collected into a map; the
/// result is [`handle_line`]'s for the line it was read from.
pub(crate) fn handle_request(
    rt: &mut ServeRuntime,
    op: &str,
    obj: &JsonObject,
) -> (Vec<String>, bool) {
    handle_op(rt, op, obj).unwrap_or_else(|msg| (vec![error_line(op, &msg)], false))
}

#[allow(clippy::too_many_lines)]
fn handle_op(
    rt: &mut ServeRuntime,
    op: &str,
    obj: &JsonObject,
) -> Result<(Vec<String>, bool), String> {
    match op {
        "open" => {
            let name = required_session(obj, op)?;
            let config = config::read_open(obj).map_err(|e| e.to_string())?;
            let threshold = rt.open(name, config).map_err(|e| e.to_string())?;
            let session = rt.session(name).expect("opened session is open");
            let mut w = JsonWriter::object("ack");
            w.string("op", "open")
                .string("session", name)
                .string("kernel", session.kernel_name())
                .string("checker", session.checker().label())
                .float("threshold", threshold);
            Ok((vec![w.finish()], false))
        }
        "drain" => {
            let mut lines = Vec::new();
            let mut total = 0u64;
            if let Some(name) = obj.string("session").filter(|s| !s.is_empty()) {
                let results = rt.drain(name).map_err(|e| e.to_string())?;
                total += results.len() as u64;
                lines.extend(results.iter().map(|r| result_line(name, r)));
            } else {
                rt.drain_all().map_err(|e| e.to_string())?;
                for (name, results) in rt.take_all_results() {
                    total += results.len() as u64;
                    lines.extend(results.iter().map(|r| result_line(&name, r)));
                }
            }
            let mut w = JsonWriter::object("ack");
            w.string("op", "drain").count("results", total);
            lines.push(w.finish());
            Ok((lines, false))
        }
        "stats" => {
            let name = required_session(obj, op)?;
            let session = rt
                .session(name)
                .ok_or_else(|| ServeError::UnknownSession(name.to_owned()).to_string())?;
            let stats = session.stats();
            let mut w = JsonWriter::object("stats");
            w.string("session", name)
                .string("kernel", session.kernel_name())
                .count("queue_depth", session.queue_depth() as u64)
                .count("capacity", session.effective_capacity() as u64)
                .count("processed", stats.processed)
                .count("fixes", stats.fixes);
            if stats.compensated > 0 {
                w.count("compensated", stats.compensated);
            }
            w.count("shed", stats.shed)
                .count("blocked", stats.blocked)
                .count("queue_high_water", stats.queue_high_water as u64)
                .float("mean_error", stats.mean_error())
                .float("threshold", session.threshold())
                .boolean("back_pressured", stats.back_pressured_drains > 0);
            Ok((vec![w.finish()], false))
        }
        "close" => {
            let name = required_session(obj, op)?;
            let (stats, results) = rt.close(name).map_err(|e| e.to_string())?;
            let mut lines: Vec<String> = results.iter().map(|r| result_line(name, r)).collect();
            lines.push(closed_line(name, &stats));
            Ok((lines, false))
        }
        "snapshot" => {
            let name = required_session(obj, op)?;
            let session = rt
                .session(name)
                .ok_or_else(|| ServeError::UnknownSession(name.to_owned()).to_string())?;
            let mut w = JsonWriter::object("snapshot");
            w.string("session", name).string("state", &session.snapshot());
            Ok((vec![w.finish()], false))
        }
        "restore" => {
            let name = required_session(obj, op)?;
            let state = obj
                .string("state")
                .ok_or_else(|| "op \"restore\" requires a \"state\" string".to_owned())?;
            let threshold = rt.restore(name, state).map_err(|e| e.to_string())?;
            let session = rt.session(name).expect("restored session is open");
            let mut w = JsonWriter::object("ack");
            w.string("op", "restore")
                .string("session", name)
                .string("kernel", session.kernel_name())
                .float("threshold", threshold);
            Ok((vec![w.finish()], false))
        }
        "shutdown" => {
            let closed = rt.close_all().map_err(|e| e.to_string())?;
            let mut lines = Vec::new();
            for (name, stats, results) in &closed {
                lines.extend(results.iter().map(|r| result_line(name, r)));
                lines.push(closed_line(name, stats));
            }
            let mut w = JsonWriter::object("ack");
            w.string("op", "shutdown").count("sessions", closed.len() as u64);
            lines.push(w.finish());
            Ok((lines, true))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Runs the request/response loop until EOF or a `shutdown` op, and
/// returns `true` when a `shutdown` ended it. Each request's responses
/// are written at once (see [`crate::transport`]); an
/// oversized line costs one in-band `error` response, and a final line
/// without a terminator is executed (matching [`std::io::BufRead::lines`]
/// on stdin scripts).
///
/// # Errors
///
/// Propagates I/O failures from the reader or writer.
pub fn serve_loop(
    rt: &mut ServeRuntime,
    reader: impl Read,
    writer: &mut impl Write,
) -> std::io::Result<bool> {
    request_loop(reader, writer, TornTail::Execute, |line| handle_line(rt, line))
        .map(|(_, shutdown)| shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{small_session, CheckerKind, SessionConfig};
    use crate::snapshot;
    use rumba_faults::{FaultModel, FaultPlan};

    fn open_line(name: &str) -> String {
        config::open_line(name, &small_session(4))
    }

    fn restore_line(name: &str, state: &str) -> String {
        let mut w = JsonWriter::request();
        w.string("op", "restore").string("session", name).string("state", state);
        w.finish()
    }

    fn invoke_line(name: &str, input: &[f64]) -> String {
        let mut w = JsonWriter::request();
        w.string("op", "invoke").string("session", name).floats("input", input);
        w.finish()
    }

    #[test]
    fn open_invoke_drain_close_round_trip() {
        let mut rt = ServeRuntime::new();
        let (lines, _) = handle_line(&mut rt, &open_line("t0"));
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("{\"type\":\"ack\",\"op\":\"open\""), "{}", lines[0]);

        let dim = rt.session("t0").unwrap().input_dim();
        let (lines, _) = handle_line(&mut rt, &invoke_line("t0", &vec![0.25; dim]));
        assert!(lines[0].contains("\"queued\":1"), "{}", lines[0]);

        let (lines, _) = handle_line(&mut rt, "{\"op\":\"drain\",\"session\":\"t0\"}");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("{\"type\":\"result\""), "{}", lines[0]);
        assert!(lines[1].contains("\"results\":1"), "{}", lines[1]);

        let (lines, shutdown) = handle_line(&mut rt, "{\"op\":\"close\",\"session\":\"t0\"}");
        assert!(!shutdown);
        assert!(lines.last().unwrap().starts_with("{\"type\":\"closed\""));
        assert!(rt.is_empty());
    }

    #[test]
    fn malformed_lines_yield_error_responses() {
        let mut rt = ServeRuntime::new();
        let (lines, _) = handle_line(&mut rt, "not json");
        assert!(lines[0].starts_with("{\"type\":\"error\""), "{}", lines[0]);
        let (lines, _) = handle_line(&mut rt, "{\"session\":\"x\"}");
        assert!(lines[0].contains("missing the \\\"op\\\" field"), "{}", lines[0]);
        let (lines, _) =
            handle_line(&mut rt, "{\"op\":\"invoke\",\"session\":\"ghost\",\"input\":[1]}");
        assert!(lines[0].contains("no open session"), "{}", lines[0]);
        let (lines, _) = handle_line(&mut rt, "{\"op\":\"warp\"}");
        assert!(lines[0].contains("unknown op"), "{}", lines[0]);
    }

    #[test]
    fn shed_responses_carry_the_503_code() {
        let mut rt = ServeRuntime::new();
        handle_line(&mut rt, &open_line("t0"));
        let dim = rt.session("t0").unwrap().input_dim();
        let payload = vec![0.5; dim];
        for _ in 0..4 {
            let (lines, _) = handle_line(&mut rt, &invoke_line("t0", &payload));
            assert!(lines[0].starts_with("{\"type\":\"ack\""), "{}", lines[0]);
        }
        let (lines, _) = handle_line(&mut rt, &invoke_line("t0", &payload));
        assert!(lines[0].contains("\"code\":503"), "{}", lines[0]);
        assert!(lines[0].contains("\"shed_total\":1"), "{}", lines[0]);
    }

    #[test]
    fn oversized_sessions_are_rejected_in_band() {
        let mut rt = ServeRuntime::new();
        let open = |extra: &str| {
            format!("{{\"op\":\"open\",\"session\":\"big\",\"kernel\":\"gaussian\",{extra}}}")
        };
        // A count past 2^53 is not a count at all: the key is named.
        let huge = |key: &str| format!("key \\\"{key}\\\" must be an integer in 0..=");
        for (extra, reason) in [
            ("\"queue\":1000000000000", "must be in".to_owned()),
            ("\"queue\":1e300", huge("queue")),
            ("\"queue\":16385", "must be in".to_owned()),
            ("\"window\":1e300", huge("window")),
            ("\"zoo\":1000000000000", "must be in".to_owned()),
            ("\"zoo\":9", "must be in".to_owned()),
        ] {
            let (lines, shutdown) = handle_line(&mut rt, &open(extra));
            assert!(!shutdown);
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(lines[0].starts_with("{\"type\":\"error\",\"op\":\"open\""), "{}", lines[0]);
            assert!(lines[0].contains(&reason), "{} lacks {reason}", lines[0]);
        }
        assert!(rt.is_empty());

        // The runtime still serves, and `restore` shares the limits.
        let (lines, _) = handle_line(&mut rt, &open_line("t0"));
        assert!(lines[0].starts_with("{\"type\":\"ack\""), "{}", lines[0]);
        let (lines, _) = handle_line(&mut rt, "{\"op\":\"snapshot\",\"session\":\"t0\"}");
        let state = parse_object(&lines[0]).unwrap().string("state").unwrap().to_owned();
        let edits: [fn(&mut SessionConfig); 3] = [
            |c| c.queue.input_capacity = 1_000_000_000_000,
            |c| c.window = 100_000_000_000,
            |c| c.zoo = 9,
        ];
        for edit in edits {
            let edited = snapshot::edit_config(&state, edit);
            assert_ne!(edited, state);
            let (lines, _) = handle_line(&mut rt, &restore_line("t1", &edited));
            assert!(lines[0].contains("must be in"), "{}", lines[0]);
        }
        // A fault rate `open` refuses is refused on restore too.
        let (lines, _) = handle_line(&mut rt, &open(r#""faults":"bit_flip=5.0""#));
        assert!(lines[0].contains("outside [0, 1]"), "{}", lines[0]);
        let edited = snapshot::edit_config(&state, |c| {
            c.faults = Some(FaultPlan::new(1).with(FaultModel::BitFlip { rate: 5.0 }));
        });
        let (lines, _) = handle_line(&mut rt, &restore_line("t1", &edited));
        assert!(lines[0].contains("outside [0, 1]"), "{}", lines[0]);
        // So is a non-finite stuck value or drift magnitude.
        for model in [
            FaultModel::StuckAt { start: 0, value: f64::NAN },
            FaultModel::InputDrift { start: 1, ramp: 1, magnitude: f64::INFINITY },
        ] {
            let edited = snapshot::edit_config(&state, |c| {
                c.faults = Some(FaultPlan::new(1).with(model));
            });
            let (lines, _) = handle_line(&mut rt, &restore_line("t1", &edited));
            assert!(lines[0].contains("is not finite"), "{}", lines[0]);
        }
        let (lines, _) = handle_line(&mut rt, "{\"op\":\"stats\",\"session\":\"t0\"}");
        assert!(lines[0].starts_with("{\"type\":\"stats\""), "{}", lines[0]);
        assert!(rt.session("t1").is_none());
    }

    /// Restoring a snapshot onto a differently-configured checker fails
    /// in-band: the config word embedded in the exported checker state
    /// detects the mismatch before any coefficients are imported, instead
    /// of silently priming an incompatible predictor with another model's
    /// state. The rejection is clean: the runtime still takes the
    /// untampered snapshot afterwards.
    #[test]
    fn restore_under_a_different_checker_is_rejected_in_band() {
        let mut rt = ServeRuntime::new();
        let ema = SessionConfig { checker: CheckerKind::Ema, ..small_session(4) };
        handle_line(&mut rt, &config::open_line("t0", &ema));
        let dim = rt.session("t0").unwrap().input_dim();
        for k in 0..3 {
            handle_line(&mut rt, &invoke_line("t0", &vec![0.2 * k as f64; dim]));
        }
        handle_line(&mut rt, "{\"op\":\"drain\",\"session\":\"t0\"}");
        let (lines, _) = handle_line(&mut rt, "{\"op\":\"snapshot\",\"session\":\"t0\"}");
        let state = parse_object(&lines[0]).unwrap().string("state").unwrap().to_owned();
        assert_eq!(snapshot::config_of(&state).checker, CheckerKind::Ema);

        let tampered = snapshot::edit_config(&state, |c| c.checker = CheckerKind::Tree);
        let (lines, shutdown) = handle_line(&mut rt, &restore_line("t1", &tampered));
        assert!(!shutdown);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("{\"type\":\"error\""), "{lines:?}");
        assert!(lines[0].contains("checker config mismatch"), "{lines:?}");

        let (lines, _) = handle_line(&mut rt, &restore_line("t1", &state));
        assert!(lines[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{lines:?}");
    }

    #[test]
    fn serve_loop_stops_at_shutdown_and_flushes_responses() {
        let mut rt = ServeRuntime::new();
        let script = format!("{}\n{}\n", open_line("t0"), "{\"op\":\"shutdown\"}");
        let mut out = Vec::new();
        assert!(serve_loop(&mut rt, script.as_bytes(), &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"op\":\"open\""), "{text}");
        assert!(lines.last().unwrap().contains("\"op\":\"shutdown\""), "{text}");
        assert!(rt.is_empty());
    }
}
