//! The request-line mutation corpus: a few real request lines and their
//! mutants (every prefix, a byte inserted or deleted beside every quote,
//! backslash and multi-byte character, and heads spliced onto tails).
//! Shared by the codec tests and the invoke-reader differential test.

use rumba_obs::json::JsonWriter;

/// The lines the mutants are made from. The writer's `type` tag stays on
/// three of them: an extra key every reader must ignore.
pub fn request_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let mut w = JsonWriter::object("request");
    w.string("op", "invoke").string("session", "s-é\"q\\").floats("input", &[0.25, -1.5e-7, 3.0]);
    lines.push(w.finish());
    let mut w = JsonWriter::object("request");
    w.string("op", "stats").string("session", "😀 \t\u{1}/");
    lines.push(w.finish());
    let mut w = JsonWriter::object("request");
    w.string("op", "drain").string("note", "a,b:{c}[d]");
    lines.push(w.finish());
    lines.push("{\"op\":\"close\",\"session\":\"\\u00e9\\\"x\\\\\"}".to_owned());
    lines.push("{\"op\":\"snapshot\",\"session\":\"€\",\"n\":[1,2,null],\"b\":true}".to_owned());
    lines
}

/// Positions next to the bytes a mutation should hit: quotes,
/// backslashes and multi-byte characters (char boundaries only, since a
/// request line is a `&str`).
fn hot_spots(line: &str) -> Vec<usize> {
    let mut spots = Vec::new();
    for (i, c) in line.char_indices() {
        if matches!(c, '"' | '\\') || c.len_utf8() > 1 {
            spots.extend([i, i + c.len_utf8()]);
        }
    }
    spots
}

/// Every mutant of `lines`, in a fixed order.
pub fn mutants(lines: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for line in lines {
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            out.push(line[..cut].to_owned());
        }
        for at in hot_spots(line) {
            for insert in ["\"", "\\", "é", "\\u", "\\u00", "\u{1}", "}", ",", "[", "😀"] {
                out.push(format!("{}{insert}{}", &line[..at], &line[at..]));
            }
            if let Some(c) = line[at..].chars().next() {
                out.push(format!("{}{}", &line[..at], &line[at + c.len_utf8()..]));
            }
        }
        for other in lines {
            for (a, b) in hot_spots(line).into_iter().zip(hot_spots(other).into_iter().rev()) {
                out.push(format!("{}{}", &line[..a], &other[b..]));
            }
        }
    }
    out
}
