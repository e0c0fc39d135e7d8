//! One bounds-checked reader for `u64` state words.
//!
//! Online state that must survive a session snapshot — tuner and window
//! counters, checker history, zoo and refit state, session stats, queued
//! rows — is written as a plain `Vec<u64>` (floats as their IEEE-754
//! bits) and read back in the same order through a [`WordReader`]. Every
//! read names its field, every length is checked against the words that
//! remain before anything is allocated, and [`WordReader::finish`]
//! rejects trailing words, so a decoder built on the reader is total: a
//! malformed stream yields an error naming the field, never a panic or an
//! oversized allocation.

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
        let mut r = WordReader::new(&[1, 2]);
        r.u64("first").unwrap();
        assert_eq!(r.finish("x.tail").unwrap_err(), "x.tail: 1 trailing words");
    }
}
