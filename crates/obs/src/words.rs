//! One bounds-checked reader for `u64` word streams.
//!
//! Two kinds of state travel as plain `u64` words (floats as their
//! IEEE-754 bits): trained models — the config-word streams the paper
//! ships to the accelerator and checker over the config queue, which the
//! trained-model cache stores and refit snapshots carry — and the online
//! state a session snapshot must keep (tuner and window counters,
//! checker history, zoo and refit state, session stats, queued rows).
//! Both are read back in order through a [`WordReader`]. Every read names
//! its field, every length is checked against the words that remain
//! before anything is allocated, and [`WordReader::finish`] rejects
//! trailing words, so a decoder built on the reader is total: a malformed
//! stream yields an error naming the field, never a panic or an oversized
//! allocation.
//!
//! Config-word streams follow the config-queue convention: every word is
//! an `f64`, so a count rides as a whole-numbered float
//! ([`WordReader::f64_count`]). Snapshot state stores counts as plain
//! integers ([`WordReader::count`]).

/// A sequential reader over a word stream. Errors are `"<label>: <what
/// went wrong>"`, where the label names the field being read (for
/// example `"runtime.window_fired"`).
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// A reader positioned at the first word.
    #[must_use]
    pub fn new(words: &'a [u64]) -> Self {
        Self { words, pos: 0 }
    }

    /// Words not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// The next raw word.
    ///
    /// # Errors
    ///
    /// Fails when the stream has ended.
    pub fn u64(&mut self, label: &str) -> Result<u64, String> {
        let word = *self
            .words
            .get(self.pos)
            .ok_or_else(|| format!("{label}: the stream ended at word {}", self.pos))?;
        self.pos += 1;
        Ok(word)
    }

    /// The next word as the bits of an `f64`.
    ///
    /// # Errors
    ///
    /// Fails when the stream has ended.
    pub fn f64(&mut self, label: &str) -> Result<f64, String> {
        self.u64(label).map(f64::from_bits)
    }

    /// The next word as a `0|1` flag.
    ///
    /// # Errors
    ///
    /// Fails when the stream has ended or the word is neither 0 nor 1.
    pub fn flag(&mut self, label: &str) -> Result<bool, String> {
        match self.u64(label)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("{label}: flag must be 0|1, got {other}")),
        }
    }

    /// The next word as a count (or tag) no larger than `max`.
    ///
    /// # Errors
    ///
    /// Fails when the stream has ended or the word exceeds `max`.
    pub fn count(&mut self, label: &str, max: usize) -> Result<usize, String> {
        let word = self.u64(label)?;
        usize::try_from(word)
            .ok()
            .filter(|&n| n <= max)
            .ok_or_else(|| format!("{label}: {word} exceeds the limit {max}"))
    }

    /// The next word as a count in the config-queue convention: an `f64`
    /// holding a whole number no larger than `max`, in the one bit pattern
    /// `n as f64` writes (so `-0.0`, fractions and NaN are rejected, and an
    /// accepted count re-encodes to the same word).
    ///
    /// # Errors
    ///
    /// Fails when the stream has ended or the word is not such a count.
    pub fn f64_count(&mut self, label: &str, max: usize) -> Result<usize, String> {
        let word = self.u64(label)?;
        whole(word, max).ok_or_else(|| {
            format!("{label}: {} is not a whole count up to {max}", f64::from_bits(word))
        })
    }

    /// The next `len` words as `f64` bits.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `len` words remain.
    pub fn f64s(&mut self, label: &str, len: usize) -> Result<Vec<f64>, String> {
        Ok(self.words(label, len)?.iter().map(|&w| f64::from_bits(w)).collect())
    }

    /// The next `len` words, borrowed.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `len` words remain.
    pub fn words(&mut self, label: &str, len: usize) -> Result<&'a [u64], String> {
        let rest = &self.words[self.pos..];
        if len > rest.len() {
            return Err(format!("{label}: wants {len} words, {} remain", rest.len()));
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    /// A length-prefixed block: one length word, then that many words.
    ///
    /// # Errors
    ///
    /// Fails when the stream ends before the block does.
    pub fn block(&mut self, label: &str) -> Result<&'a [u64], String> {
        let len = self.u64(label)?;
        self.words(label, usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// Fails when words remain unread.
    pub fn finish(&self, label: &str) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{label}: {n} trailing words")),
        }
    }
}

/// Reads all of `words` with `read`, then rejects trailing words.
///
/// # Errors
///
/// Propagates `read`'s error, or fails when words remain unread.
pub fn read_all<'a, T>(
    words: &'a [u64],
    label: &str,
    read: impl FnOnce(&mut WordReader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut r = WordReader::new(words);
    let value = read(&mut r)?;
    r.finish(label)?;
    Ok(value)
}

/// `word` as a config-queue count: the bits of a whole `f64` no larger
/// than `max`, exactly as `n as f64` writes it.
#[must_use]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn whole(word: u64, max: usize) -> Option<usize> {
    // The cast saturates (NaN reads as 0); the round trip then rejects
    // everything that is not a canonical whole number.
    let n = f64::from_bits(word) as usize;
    (n <= max && (n as f64).to_bits() == word).then_some(n)
}

/// Appends `values` as their `f64` bits, the inverse of
/// [`WordReader::f64s`].
pub fn push_f64s(out: &mut Vec<u64>, values: &[f64]) {
    out.extend(values.iter().map(|v| v.to_bits()));
}

/// Appends a length-prefixed block, the inverse of [`WordReader::block`].
pub fn push_block(out: &mut Vec<u64>, block: &[u64]) {
    out.push(block.len() as u64);
    out.extend_from_slice(block);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_order_and_finishes_clean() {
        let mut words = vec![7, 1.5f64.to_bits(), 1, 3];
        push_block(&mut words, &[10, 11]);
        let mut r = WordReader::new(&words);
        assert_eq!(r.u64("a").unwrap(), 7);
        assert_eq!(r.f64("b").unwrap(), 1.5);
        assert!(r.flag("c").unwrap());
        assert_eq!(r.count("d", 3).unwrap(), 3);
        assert_eq!(r.block("e").unwrap(), &[10, 11]);
        r.finish("end").unwrap();

        let mut words = vec![4f64.to_bits()];
        push_f64s(&mut words, &[0.5, -2.0]);
        let back = read_all(&words, "f", |r| Ok((r.f64_count("n", 4)?, r.f64s("v", 2)?))).unwrap();
        assert_eq!(back, (4, vec![0.5, -2.0]));
        assert!(read_all(&words, "f", |r| r.f64_count("n", 4)).unwrap_err().contains("trailing"));
    }

    #[test]
    fn f64_counts_are_whole_canonical_and_bounded() {
        for n in [0usize, 1, 7, 1 << 40] {
            assert_eq!(whole((n as f64).to_bits(), n), Some(n));
        }
        let max = 1_000_000;
        for bad in [-0.0, -1.0, 2.5, 1e6 + 1.0, 1e9, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(whole(bad.to_bits(), max), None, "{bad}");
        }
        assert_eq!(whole(u64::MAX, usize::MAX), None, "NaN bits");
        let err = WordReader::new(&[1e9f64.to_bits()]).f64_count("x.n", 8).unwrap_err();
        assert!(err.starts_with("x.n:"), "{err}");
    }

    #[test]
    fn every_read_rejects_in_band_and_names_its_field() {
        let err = |words: &[u64], read: fn(&mut WordReader) -> Result<(), String>| {
            read(&mut WordReader::new(words)).unwrap_err()
        };
        assert!(err(&[], |r| r.u64("x.end").map(drop)).starts_with("x.end:"));
        assert!(err(&[2], |r| r.flag("x.flag").map(drop)).contains("0|1"));
        assert!(err(&[9], |r| r.count("x.count", 8).map(drop)).contains("x.count"));
        assert!(err(&[u64::MAX], |r| r.count("x.big", usize::MAX - 1).map(drop)).contains("x.big"));
        // Lengths are checked against the remaining words before any
        // slice is taken, including lengths near the top of the range.
        for len in [3, 1 << 62, u64::MAX, u64::MAX - 25] {
            assert!(err(&[len, 0, 0], |r| r.block("x.block").map(drop)).contains("x.block"));
        }
        assert!(err(&[1, 2], |r| r.words("x.words", usize::MAX).map(drop)).contains("x.words"));
        assert!(err(&[1, 2], |r| r.f64s("x.f64s", 3).map(drop)).contains("x.f64s"));
        let mut r = WordReader::new(&[1, 2]);
        r.u64("first").unwrap();
        assert_eq!(r.finish("x.tail").unwrap_err(), "x.tail: 1 trailing words");
    }
}
