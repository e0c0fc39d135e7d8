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
//! one [`WordReader`]: first the session config
//! ([`crate::config::write_words`]' layout), then the session state (`write_state`'s layout) — the
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
use rumba_obs::words::{push_block, WordReader};

use crate::session::{SessionResult, SessionStats};

/// Leading tokens of every snapshot; bump the version when the word
/// layout changes.
pub const FORMAT_HEADER: &str = "rumba-session-snapshot v3";

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
/// queue `capacity` and the kernel's dimensions, and rejects trailing
/// words.
pub(crate) fn read_state<'a>(
    r: &mut WordReader<'a>,
    capacity: usize,
    kernel: &dyn Kernel,
) -> Result<SessionState<'a>, String> {
    let any = usize::MAX;
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
pub(crate) fn edit_config(text: &str, edit: impl FnOnce(&mut crate::SessionConfig)) -> String {
    let (kernel, words) = decode(text).unwrap();
    let mut r = WordReader::new(&words);
    let mut config = crate::config::read_words(kernel, &mut r).unwrap();
    edit(&mut config);
    let mut edited = Vec::new();
    crate::config::write_words(&config, &mut edited);
    edited.extend_from_slice(r.words("state", r.remaining()).unwrap());
    encode(&config.kernel, &edited)
}

/// The configuration a snapshot carries.
#[cfg(test)]
pub(crate) fn config_of(text: &str) -> crate::SessionConfig {
    let (kernel, words) = decode(text).unwrap();
    crate::config::read_words(kernel, &mut WordReader::new(&words)).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
