//! Mutation property over real trained-model cache entries. Every open
//! and restore decodes a cache file, and a malformed file must read as a
//! miss: each edit of a real app entry (its signed-error companions
//! included) and a real three-tier zoo entry — truncation at any line,
//! any single hex-digit flip, a count word or a section's declared count
//! set to 0, 1e9 or `u64::MAX` bits — either loads as `None` or loads
//! models that store back to the edited text byte for byte. An accepted
//! entry must then serve one estimate from every checker and companion
//! and one accelerator prediction on a kernel row without panicking.
//! The suite runs in a debug build (overflow checks on) and again in
//! release, where a missing bound would decode silently.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use rumba_apps::{kernel_by_name, Kernel, Split};
use rumba_core::cache::{CachedModels, TrainedModelCache};
use rumba_core::trainer::{nn_params_for, train_app, OfflineConfig};
use rumba_core::zoo::train_zoo;
use rumba_predict::ErrorEstimator;

const KERNEL: &str = "gaussian";
const TIERS: usize = 3;

fn kernel() -> Box<dyn Kernel> {
    kernel_by_name(KERNEL).unwrap()
}

fn cfg() -> OfflineConfig {
    OfflineConfig { seed: 42, ..OfflineConfig::default() }
}

/// A scratch cache directory of its own for each test (tests run on
/// parallel threads and each rewrites its entry file).
fn scratch_cache(test: &str) -> TrainedModelCache {
    let dir =
        std::env::temp_dir().join(format!("rumba-cache-mutation-{}-{test}", std::process::id()));
    TrainedModelCache::with_dir(dir)
}

/// The kernel row every accepted entry serves.
fn row() -> &'static [f64] {
    static ROW: OnceLock<Vec<f64>> = OnceLock::new();
    ROW.get_or_init(|| kernel().generate(Split::Test, 42).input(0).to_vec())
}

/// One entry kind under test.
#[derive(Clone, Copy)]
enum Entry {
    App,
    Zoo,
}

impl Entry {
    fn path(self, cache: &TrainedModelCache) -> PathBuf {
        let k = kernel();
        let (rumba, npu) = (k.rumba_topology(), k.npu_topology());
        match self {
            Entry::App => cache.entry_path(KERNEL, (&rumba, &npu), &cfg(), &nn_params_for(&*k)),
            Entry::Zoo => cache.zoo_entry_path(KERNEL, &cfg(), TIERS, &nn_params_for(&*k)),
        }
    }

    /// The entry's text as the cache writes it for the real models.
    fn base(self) -> &'static str {
        static TEXTS: OnceLock<[String; 2]> = OnceLock::new();
        let texts = TEXTS.get_or_init(|| {
            let k = kernel();
            let app = train_app(&*k, &cfg()).unwrap();
            let models = CachedModels {
                rumba_model: app.rumba_npu.model().clone(),
                baseline_model: app.baseline_npu.model().clone(),
                linear: app.linear.clone(),
                tree: app.tree.clone(),
                evp: app.evp.clone(),
                train_errors: app.train_errors.clone(),
                signed_linear: app.linear.signed_model().unwrap().clone(),
                signed_tree: app.tree.signed_tree().unwrap().clone(),
            };
            let zoo = train_zoo(&*k, &app, &cfg(), TIERS).unwrap();
            let scratch = scratch_cache("base");
            let (rumba, npu) = (k.rumba_topology(), k.npu_topology());
            let nn = nn_params_for(&*k);
            scratch.store(KERNEL, (&rumba, &npu), &cfg(), &nn, &models);
            scratch.store_zoo(KERNEL, &cfg(), TIERS, &nn, &zoo);
            let read = |entry: Entry| fs::read_to_string(entry.path(&scratch)).unwrap();
            let texts = [read(Entry::App), read(Entry::Zoo)];
            let _ = fs::remove_dir_all(Entry::App.path(&scratch).parent().unwrap());
            texts
        });
        match self {
            Entry::App => &texts[0],
            Entry::Zoo => &texts[1],
        }
    }

    /// Writes `text` as the entry, loads it, and — when it loads — stores
    /// the loaded models back and serves one row through them. Returns
    /// the stored-back text, or `None` for a miss. The scratch directory
    /// is removed afterwards.
    fn load_and_serve(self, cache: &TrainedModelCache, text: &str) -> Option<String> {
        let path = self.path(cache);
        let dir = path.parent().unwrap();
        fs::create_dir_all(dir).unwrap();
        fs::write(&path, text).unwrap();
        let stored = self.serve(cache).map(|()| fs::read_to_string(&path).unwrap());
        let _ = fs::remove_dir_all(dir);
        stored
    }

    fn serve(self, cache: &TrainedModelCache) -> Option<()> {
        let k = kernel();
        let (rumba, npu) = (k.rumba_topology(), k.npu_topology());
        let nn = nn_params_for(&*k);
        let row = row();
        match self {
            Entry::App => {
                let mut models = cache.load(KERNEL, (&rumba, &npu), &cfg(), &nn)?;
                let approx = models.rumba_model.predict(row).unwrap_or_default();
                let _ = models.baseline_model.predict(row);
                let _ = models.linear.estimate(row, &approx);
                let _ = models.tree.estimate(row, &approx);
                let _ = models.evp.estimate(row, &approx);
                let _ = models.signed_linear.predict(row);
                let _ = models.signed_tree.predict(row);
                cache.store(KERNEL, (&rumba, &npu), &cfg(), &nn, &models);
            }
            Entry::Zoo => {
                let zoo = cache.load_zoo(KERNEL, &cfg(), TIERS, &nn)?;
                for tier in zoo.tiers() {
                    let _ = tier.npu.invoke(row);
                    let _ = tier.router.predict(row);
                }
                cache.store_zoo(KERNEL, &cfg(), TIERS, &nn, &zoo);
            }
        }
        Some(())
    }
}

/// Where each word of a section body sits: `(line, token)`.
fn word_positions(lines: &[&str]) -> Vec<(String, Vec<(usize, usize)>)> {
    let mut sections: Vec<(String, Vec<(usize, usize)>)> = Vec::new();
    for (i, line) in lines.iter().enumerate().skip(2) {
        if let Some(rest) = line.strip_prefix("section ") {
            sections.push((rest.split(' ').next().unwrap().to_owned(), Vec::new()));
        } else if let Some((_, words)) = sections.last_mut() {
            words.extend((0..line.split(' ').count()).map(|t| (i, t)));
        }
    }
    sections
}

/// Indices of the count words within one section's words, by layout.
fn count_indices(name: &str, words: &[u64]) -> Vec<usize> {
    let f = |i: usize| f64::from_bits(words[i]) as usize;
    let mut at = Vec::new();
    if name.ends_with("model") || name.starts_with("zoo_model_") {
        // [magic, input_dim, output_dim, n_layers, sizes...]
        at.extend(1..4 + f(3));
    } else if name == "tree" || name == "signed_tree" {
        // [magic,] n_nodes, nodes...: each split's feature index is a
        // count too.
        let mut pos = usize::from(name == "tree");
        at.push(pos);
        pos += 1;
        while pos < words.len() {
            if f(pos) == 1 {
                at.push(pos + 1);
            }
            pos += 2 + f(pos);
        }
    } else if name == "linear" || name == "evp" {
        at.push(1);
        if name == "evp" {
            let mut pos = 3;
            while pos < words.len() {
                at.push(pos);
                pos += f(pos) + 2;
            }
        }
    } else if name == "zoo_spec" || name.starts_with("zoo_router_") || name == "signed_linear" {
        at.push(0);
    }
    at
}

/// The words of one section, parsed from the text.
fn section_words(lines: &[&str], positions: &[(usize, usize)]) -> Vec<u64> {
    positions
        .iter()
        .map(|&(l, t)| u64::from_str_radix(lines[l].split(' ').nth(t).unwrap(), 16).unwrap())
        .collect()
}

fn replace_token(lines: &[&str], line: usize, token: usize, word: &str) -> String {
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        if i == line {
            let mut tokens: Vec<&str> = l.split(' ').collect();
            tokens[token] = word;
            out.push_str(&tokens.join(" "));
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    out
}

const OVERWRITES: [u64; 3] = [0, 0x41cd_cd65_0000_0000, u64::MAX];

/// Every truncation of `entry` short of the whole file.
fn truncations(entry: Entry) -> Vec<String> {
    let lines: Vec<&str> = entry.base().lines().collect();
    (0..lines.len()).map(|cut| lines[..cut].iter().map(|l| format!("{l}\n")).collect()).collect()
}

/// Every count word of `entry` and every section's declared count, each
/// overwritten with 0, 1e9 and `u64::MAX` bits.
fn count_overwrites(entry: Entry) -> Vec<String> {
    assert_eq!(f64::from_bits(OVERWRITES[1]), 1e9);
    let lines: Vec<&str> = entry.base().lines().collect();
    let mut mutants = Vec::new();
    for (name, positions) in word_positions(&lines) {
        let words = section_words(&lines, &positions);
        for i in count_indices(&name, &words) {
            let (line, token) = positions[i];
            for value in OVERWRITES {
                mutants.push(replace_token(&lines, line, token, &format!("{value:016x}")));
            }
        }
    }
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("section ") {
            for value in ["0", "1000000000", "18446744073709551615"] {
                mutants.push(replace_token(&lines, i, 2, value));
            }
        }
    }
    mutants
}

/// A single hex-digit flip of the `pick`-th body word of `entry`.
fn flipped(entry: Entry, pick: usize, digit: usize, nibble: u64) -> String {
    flipped_in(entry, |_| true, pick, digit, nibble)
}

/// A single hex-digit flip of the `pick`-th body word among the sections
/// of `entry` that `name` accepts.
fn flipped_in(
    entry: Entry,
    name: impl Fn(&str) -> bool,
    pick: usize,
    digit: usize,
    nibble: u64,
) -> String {
    let lines: Vec<&str> = entry.base().lines().collect();
    let all: Vec<(usize, usize)> = word_positions(&lines)
        .into_iter()
        .filter(|(n, _)| name(n))
        .flat_map(|(_, positions)| positions)
        .collect();
    let (line, token) = all[pick % all.len()];
    let old = u64::from_str_radix(lines[line].split(' ').nth(token).unwrap(), 16).unwrap();
    replace_token(&lines, line, token, &format!("{:016x}", old ^ (nibble << (4 * digit))))
}

/// Loads `mutant`; returns whether it was accepted.
fn check(entry: Entry, cache: &TrainedModelCache, mutant: &str) -> bool {
    let loaded = catch_unwind(AssertUnwindSafe(|| entry.load_and_serve(cache, mutant)));
    match loaded {
        Err(_) => panic!("loading or serving panicked on the mutant:\n{mutant}"),
        Ok(None) => false,
        Ok(Some(again)) => {
            assert!(again == mutant, "accepted mutant stores back differently:\n{mutant}");
            true
        }
    }
}

fn sweep(entry: Entry, test: &str) {
    let cache = scratch_cache(test);
    // The unedited entry is a hit and a fixed point.
    assert!(check(entry, &cache, entry.base()), "the unedited entry must load");
    for mutant in truncations(entry) {
        assert!(!check(entry, &cache, &mutant), "a truncated entry loaded:\n{mutant}");
    }
    let overwrites = count_overwrites(entry);
    assert!(overwrites.len() >= 30, "{} count overwrites", overwrites.len());
    for mutant in &overwrites {
        check(entry, &cache, mutant);
    }
}

#[test]
fn every_truncation_and_count_overwrite_of_an_app_entry_misses_or_round_trips() {
    sweep(Entry::App, "app-sweep");
}

#[test]
fn every_truncation_and_count_overwrite_of_a_zoo_entry_misses_or_round_trips() {
    sweep(Entry::Zoo, "zoo-sweep");
}

#[test]
fn a_root_split_beyond_the_input_width_reads_as_a_miss() {
    let entry = Entry::App;
    let lines: Vec<&str> = entry.base().lines().collect();
    let width = kernel().input_dim() as f64;
    // The checker tree's root sits after its magic and node count, the
    // signed companion's after its node count alone.
    for (name, root) in [("tree", 2), ("signed_tree", 1)] {
        let (_, tree) = word_positions(&lines).into_iter().find(|(n, _)| n == name).unwrap();
        assert_eq!(section_words(&lines, &tree)[root], 1f64.to_bits(), "{name}'s root is a split");
        let (line, token) = tree[root + 1];
        for feature in [width, width + 1.0, 99.0] {
            let word = format!("{:016x}", feature.to_bits());
            let mutant = replace_token(&lines, line, token, &word);
            assert!(!check(entry, &scratch_cache("feature"), &mutant), "{name} feature {feature}");
        }
    }
}

/// `text` with section `name`'s words replaced by `words`, written the
/// way the cache writes sections (16 hex words per line).
fn with_section(text: &str, name: &str, words: &[u64]) -> String {
    let mut out = String::new();
    let mut skipping = false;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("section ") {
            skipping = rest.split(' ').next() == Some(name);
            if skipping {
                out.push_str(&format!("section {name} {}\n", words.len()));
                for chunk in words.chunks(16) {
                    let hex: Vec<String> = chunk.iter().map(|w| format!("{w:016x}")).collect();
                    out.push_str(&format!("{}\n", hex.join(" ")));
                }
                continue;
            }
        }
        if !skipping {
            out.push_str(&format!("{line}\n"));
        }
    }
    out
}

#[test]
fn streams_that_crashed_a_decoder_read_as_misses() {
    let f = |v: f64| v.to_bits();
    let cache = scratch_cache("crash");
    let base = Entry::App.base();
    let lines: Vec<&str> = base.lines().collect();
    let sections = word_positions(&lines);
    let words = |name: &str| {
        let (_, at) = sections.iter().find(|(n, _)| n == name).unwrap();
        section_words(&lines, at)
    };
    // A model declaring 1e9 layers, and one declaring [in, 1e8, out]
    // with nothing behind it.
    let mut model = words("rumba_model");
    model[3] = f(1e9);
    assert!(!check(Entry::App, &cache, &with_section(base, "rumba_model", &model)));
    let (input, output) = (words("rumba_model")[1], words("rumba_model")[2]);
    let hollow = [f(rumba_nn::MODEL_MAGIC), input, output, f(3.0), input, f(1e8), output, f(0.0)];
    assert!(!check(Entry::App, &cache, &with_section(base, "rumba_model", &hollow)));
    // Tree and EVP counts near 1e9.
    for name in ["tree", "evp"] {
        let mut checker = words(name);
        checker[1] = f(999_999_999.0);
        assert!(!check(Entry::App, &cache, &with_section(base, name, &checker)));
    }
    // A chain of 100 000 nested splits.
    let splits = 100_000usize;
    let mut chain = vec![f(rumba_predict::TREE_MAGIC), f((2 * splits + 1) as f64)];
    for _ in 0..splits {
        chain.extend([f(1.0), f(0.0), f(0.5)]);
    }
    for _ in 0..=splits {
        chain.extend([f(0.0), f(0.25)]);
    }
    assert!(!check(Entry::App, &cache, &with_section(base, "tree", &chain)));
    assert!(!check(Entry::App, &cache, &with_section(base, "signed_tree", &chain[1..])));
    // A signed linear fit declaring 1e9 weights.
    let mut linear = words("signed_linear");
    linear[0] = f(1e9);
    assert!(!check(Entry::App, &cache, &with_section(base, "signed_linear", &linear)));
}

proptest! {
    #[test]
    fn app_entry_digit_flips_miss_or_round_trip(
        pick in 0usize..100_000, digit in 0usize..16, nibble in 1u64..16,
    ) {
        check(Entry::App, &scratch_cache("app-flip"), &flipped(Entry::App, pick, digit, nibble));
    }

    #[test]
    fn signed_companion_digit_flips_miss_or_round_trip(
        pick in 0usize..100_000, digit in 0usize..16, nibble in 1u64..16,
    ) {
        let signed = |name: &str| name.starts_with("signed_");
        let mutant = flipped_in(Entry::App, signed, pick, digit, nibble);
        check(Entry::App, &scratch_cache("signed-flip"), &mutant);
    }

    #[test]
    fn zoo_entry_digit_flips_miss_or_round_trip(
        pick in 0usize..100_000, digit in 0usize..16, nibble in 1u64..16,
    ) {
        check(Entry::Zoo, &scratch_cache("zoo-flip"), &flipped(Entry::Zoo, pick, digit, nibble));
    }
}
