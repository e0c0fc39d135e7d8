//! [`TrainedModelCache`] — persistent storage for offline training results.
//!
//! Every figure binary in the evaluation harness trains the same per-kernel
//! accelerators and checkers from scratch. Since the offline pipeline is a
//! pure function of the kernel and the [`OfflineConfig`](crate::trainer::OfflineConfig),
//! its outputs can be cached on disk and shared across binaries: the first
//! run trains and stores, every later run decodes.
//!
//! The cache stores exactly what the paper embeds in an application binary —
//! the accelerator and checker **config-words** — as plain text, with each
//! `f64` word written as the hex of its bit pattern so a round-trip is
//! bit-exact. A cache hit therefore produces byte-identical downstream
//! results to a fresh training run, and needs neither the train split nor
//! any fit.
//!
//! An app entry is the header, a `kernel <name>` line and these counted
//! sections, in order:
//! - `rumba_model`, `baseline_model`: the two accelerators' config words;
//! - `linear`, `tree`, `evp`: the three checkers' config streams;
//! - `train_errors`: the Rumba accelerator's per-invocation errors on the
//!   train split (the threshold calibration's targets);
//! - `signed_linear`, `signed_tree`: the linear and tree checkers'
//!   signed-error companions for the compensation path, in the
//!   [`LinearModel::write_words`] / [`DecisionTree::write_words`] layout a
//!   refit snapshot carries after its signed flag.
//!
//! Sections are found by name: a reader ignores sections it does not
//! know, and an entry that lacks one it needs (one written before the
//! signed companions were stored, say) is a miss, so the next training
//! run rewrites it. The zoo entry's sections are listed at
//! `write_zoo_entry`.
//!
//! Any malformed file reads as a miss (and retrains). That holds because
//! each section is decoded by its model's one config-stream decoder
//! ([`decode_model`], [`decode_linear`], [`decode_tree`], [`decode_evp`],
//! [`LinearModel::read_words`] for zoo routers and the signed linear fit,
//! [`DecisionTree::read_words`] for the signed tree), all reading through
//! one [`WordReader`]:
//! - a section's words are collected as they are parsed, so its declared
//!   count never sizes an allocation, and must match what was parsed;
//! - every count word must be a whole `f64` no larger than the words that
//!   remain behind it (a network's parameter count is computed with
//!   checked arithmetic and compared before the network is built);
//! - tags, flags and activation codes must be their exact canonical
//!   words, so an accepted section re-encodes to the same words;
//! - a tree split (checker or signed companion) must read a feature
//!   inside the accelerator's input width, and splits may nest at most
//!   [`MAX_DECODE_DEPTH`](rumba_predict::MAX_DECODE_DEPTH) deep;
//! - trailing words in any section are rejected.
//!
//! Keys combine the kernel name, its accelerator topologies, the full
//! offline configuration (seed included), and the per-kernel training
//! hyper-parameters; changing any of these — most importantly the seed —
//! misses the cache and retrains.
//!
//! Controls:
//! - `RUMBA_CACHE=0` disables the cache entirely.
//! - `RUMBA_CACHE_DIR` overrides the default `target/rumba-cache` location.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use rumba_accel::{Npu, NpuParams};
use rumba_nn::{decode_model, encode_model, TrainParams, TrainedModel};
use rumba_obs::words::{push_f64s, read_all, whole, WordReader};
use rumba_predict::{
    decode_evp, decode_linear, decode_tree, encode_evp, encode_linear, encode_tree, DecisionTree,
    EvpErrors, LinearErrors, LinearModel, TreeErrors,
};

use crate::trainer::OfflineConfig;
use crate::zoo::{ModelZoo, ZooTier};

const FORMAT_HEADER: &str = "rumba-trained-model-cache v1";

/// The decoded contents of one cache entry: everything `train_app` fits
/// with a neural network or a closed-form solver. Entries written before
/// the EVP or the signed-fit sections existed simply miss (a missing
/// section is a malformed entry) and retrain.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedModels {
    /// The Rumba-topology accelerator model.
    pub rumba_model: TrainedModel,
    /// The unchecked-NPU-topology baseline model.
    pub baseline_model: TrainedModel,
    /// The trained linear checker.
    pub linear: LinearErrors,
    /// The trained decision-tree checker.
    pub tree: TreeErrors,
    /// The trained value-prediction (EVP) checker.
    pub evp: EvpErrors,
    /// Per-invocation accelerator errors on the train split.
    pub train_errors: Vec<f64>,
    /// The linear checker's signed-error companion (the compensation
    /// path's fit on per-row mean signed output errors).
    pub signed_linear: LinearModel,
    /// The tree checker's signed-error companion.
    pub signed_tree: DecisionTree,
}

/// A directory of plain-text config-word files keyed by kernel, topology,
/// seed, and training configuration.
#[derive(Debug, Clone)]
pub struct TrainedModelCache {
    dir: PathBuf,
    enabled: bool,
}

impl TrainedModelCache {
    /// The environment-configured cache: `<workspace root>/target/rumba-cache`
    /// (or `RUMBA_CACHE_DIR`), disabled entirely by `RUMBA_CACHE=0`.
    ///
    /// The default directory used to be the *cwd-relative* path
    /// `target/rumba-cache`, so every binary invoked from a different
    /// working directory silently kept its own cold cache (and `rumba` run
    /// from `/tmp` would scatter `target/` directories around the
    /// filesystem). It is now anchored to the workspace root — the nearest
    /// ancestor of the executable, the build-time manifest directory, or
    /// the cwd that contains a `Cargo.lock` — falling back to the old
    /// cwd-relative behavior only when no root is found.
    #[must_use]
    pub fn from_env() -> Self {
        let enabled = std::env::var("RUMBA_CACHE").map_or(true, |v| v.trim() != "0");
        let dir =
            std::env::var("RUMBA_CACHE_DIR").map_or_else(|_| default_cache_dir(), PathBuf::from);
        Self { dir, enabled }
    }

    /// A cache rooted at an explicit directory (used by tests).
    #[must_use]
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), enabled: true }
    }

    /// A cache that never hits and never stores.
    #[must_use]
    pub fn disabled() -> Self {
        Self { dir: PathBuf::new(), enabled: false }
    }

    /// Whether this cache participates at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The file a given training problem would be cached under.
    #[must_use]
    pub fn entry_path(
        &self,
        kernel_name: &str,
        topologies: (&[usize], &[usize]),
        cfg: &OfflineConfig,
        nn_params: &TrainParams,
    ) -> PathBuf {
        let key = cache_key(kernel_name, topologies, cfg, nn_params);
        self.dir.join(format!("{kernel_name}-s{}-{key:016x}.words", cfg.seed))
    }

    /// Loads and decodes the entry for this training problem, if present
    /// and well-formed. Any malformed or stale file reads as a miss.
    #[must_use]
    pub fn load(
        &self,
        kernel_name: &str,
        topologies: (&[usize], &[usize]),
        cfg: &OfflineConfig,
        nn_params: &TrainParams,
    ) -> Option<CachedModels> {
        if !self.enabled {
            return None;
        }
        let path = self.entry_path(kernel_name, topologies, cfg, nn_params);
        // `entry_path` always produces a well-formed name, so the key is
        // always present — but going through `entry_key` (instead of the
        // old `file_stem().unwrap_or_default()`) guarantees a degenerate
        // path can never masquerade as the empty-string key.
        let key = entry_key(&path).expect("entry_path produces a keyed .words name");
        let models = fs::read_to_string(&path).ok().as_deref().and_then(parse_entry);
        emit_cache_event(models.is_some(), &key);
        if models.is_some() {
            eprintln!("[cache] hit: {kernel_name} (seed {}) from {}", cfg.seed, path.display());
        }
        models
    }

    /// Enumerates the cache directory: entry keys for every well-formed
    /// `.words` file, and a count of stray files that were skipped.
    ///
    /// Before `entry_key` existed, a stemless file (e.g. a literal
    /// `.words`, or an editor's dotfile) mapped to the empty-string key via
    /// `unwrap_or_default`, so any number of strays silently collided onto
    /// one phantom entry. Strays are now skipped, counted here, and
    /// reported on the `cache.skipped_files` metrics counter.
    #[must_use]
    pub fn scan(&self) -> CacheScan {
        let mut scan = CacheScan::default();
        if !self.enabled {
            return scan;
        }
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return scan;
        };
        for entry in dir.flatten() {
            match entry_key(&entry.path()) {
                Some(key) => scan.entries.push(key),
                None => scan.skipped += 1,
            }
        }
        scan.entries.sort_unstable();
        if scan.skipped > 0 && rumba_obs::enabled() {
            rumba_obs::metrics().add("cache.skipped_files", scan.skipped as u64);
        }
        scan
    }

    /// Encodes and persists one training result. Failures (e.g. a read-only
    /// disk) are reported on stderr but never fail the caller: the cache is
    /// an accelerator, not a dependency.
    pub fn store(
        &self,
        kernel_name: &str,
        topologies: (&[usize], &[usize]),
        cfg: &OfflineConfig,
        nn_params: &TrainParams,
        models: &CachedModels,
    ) {
        if !self.enabled {
            return;
        }
        let path = self.entry_path(kernel_name, topologies, cfg, nn_params);
        if let Err(e) = write_entry(&path, kernel_name, models) {
            eprintln!("[cache] store failed for {kernel_name}: {e}");
        }
    }

    /// The file a model zoo for this training problem would be cached
    /// under. The requested tier count is part of both the visible name
    /// and the key, so zoos of different depth never collide.
    #[must_use]
    pub fn zoo_entry_path(
        &self,
        kernel_name: &str,
        cfg: &OfflineConfig,
        n_tiers: usize,
        nn_params: &TrainParams,
    ) -> PathBuf {
        let key = cache_key(kernel_name, (&[n_tiers], &[]), cfg, nn_params);
        self.dir.join(format!("{kernel_name}-zoo{n_tiers}-s{}-{key:016x}.words", cfg.seed))
    }

    /// Loads and decodes a cached model zoo, if present and well-formed.
    /// Any malformed or stale file reads as a miss (and retrains).
    #[must_use]
    pub fn load_zoo(
        &self,
        kernel_name: &str,
        cfg: &OfflineConfig,
        n_tiers: usize,
        nn_params: &TrainParams,
    ) -> Option<ModelZoo> {
        if !self.enabled {
            return None;
        }
        let path = self.zoo_entry_path(kernel_name, cfg, n_tiers, nn_params);
        let key = entry_key(&path).expect("zoo_entry_path produces a keyed .words name");
        let zoo = fs::read_to_string(&path)
            .ok()
            .as_deref()
            .and_then(|text| parse_zoo_entry(text, &cfg.npu_params));
        emit_cache_event(zoo.is_some(), &key);
        if zoo.is_some() {
            eprintln!("[cache] hit: {kernel_name} zoo (seed {}) from {}", cfg.seed, path.display());
        }
        zoo
    }

    /// Encodes and persists a trained model zoo. Like [`Self::store`],
    /// failures are reported but never propagate.
    pub fn store_zoo(
        &self,
        kernel_name: &str,
        cfg: &OfflineConfig,
        n_tiers: usize,
        nn_params: &TrainParams,
        zoo: &ModelZoo,
    ) {
        if !self.enabled {
            return;
        }
        let path = self.zoo_entry_path(kernel_name, cfg, n_tiers, nn_params);
        if let Err(e) = write_zoo_entry(&path, kernel_name, zoo) {
            eprintln!("[cache] zoo store failed for {kernel_name}: {e}");
        }
    }
}

/// What [`TrainedModelCache::scan`] found in the cache directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheScan {
    /// Keys (file stems) of well-formed `.words` entries, sorted.
    pub entries: Vec<String>,
    /// Files skipped for not being keyed `.words` entries (wrong
    /// extension, or no stem to key on).
    pub skipped: usize,
}

/// The cache key a file would be loaded under: its non-empty stem, and
/// only for `.words` files. Everything else — a stemless `.words` dotfile
/// (whose "stem" is the literal `.words`), temp files, READMEs — is not a
/// cache entry and yields `None` instead of a colliding default key.
fn entry_key(path: &Path) -> Option<String> {
    if path.extension()?.to_str()? != "words" {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    if stem.is_empty() {
        return None;
    }
    Some(stem.to_owned())
}

/// The default cache directory: `target/rumba-cache` under the workspace
/// root when one can be found, otherwise the legacy cwd-relative path.
fn default_cache_dir() -> PathBuf {
    workspace_root().unwrap_or_else(|| PathBuf::from(".")).join("target").join("rumba-cache")
}

/// Locates the workspace root as the nearest `Cargo.lock`-bearing ancestor
/// of (in priority order) the running executable, the compile-time
/// manifest directory, and the current working directory.
fn workspace_root() -> Option<PathBuf> {
    if let Ok(exe) = std::env::current_exe() {
        if let Some(root) = root_above(&exe) {
            return Some(root);
        }
    }
    if let Some(root) = root_above(Path::new(env!("CARGO_MANIFEST_DIR"))) {
        return Some(root);
    }
    std::env::current_dir().ok().and_then(|cwd| root_above(&cwd))
}

/// The nearest ancestor of `start` (inclusive) containing a `Cargo.lock`.
fn root_above(start: &Path) -> Option<PathBuf> {
    start.ancestors().find(|dir| dir.join("Cargo.lock").is_file()).map(Path::to_path_buf)
}

/// Reports a cache probe to telemetry (event stream + hit/miss counters).
fn emit_cache_event(hit: bool, key: &str) {
    if rumba_obs::enabled() {
        rumba_obs::global_sink().emit(&rumba_obs::Event::Cache { hit, key: key.to_owned() });
        rumba_obs::metrics().inc(if hit { "cache.hits" } else { "cache.misses" });
    }
}

/// FNV-1a over every ingredient that affects the training result.
fn cache_key(
    kernel_name: &str,
    topologies: (&[usize], &[usize]),
    cfg: &OfflineConfig,
    nn_params: &TrainParams,
) -> u64 {
    // Debug formatting covers every field of both config structs; any new
    // field automatically invalidates old entries.
    let ingredients =
        format!("{kernel_name}|{:?}|{:?}|{cfg:?}|{nn_params:?}", topologies.0, topologies.1);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in ingredients.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_section(out: &mut String, name: &str, words: &[u64]) {
    let _ = writeln!(out, "section {name} {}", words.len());
    for chunk in words.chunks(16) {
        let line: Vec<String> = chunk.iter().map(|w| format!("{w:016x}")).collect();
        let _ = writeln!(out, "{}", line.join(" "));
    }
}

/// The envelope's first two lines.
fn entry_head(kernel_name: &str) -> String {
    format!("{FORMAT_HEADER}\nkernel {kernel_name}\n")
}

fn write_entry(path: &Path, kernel_name: &str, models: &CachedModels) -> std::io::Result<()> {
    let mut text = entry_head(kernel_name);
    push_section(&mut text, "rumba_model", &encode_model(&models.rumba_model));
    push_section(&mut text, "baseline_model", &encode_model(&models.baseline_model));
    push_section(&mut text, "linear", &encode_linear(&models.linear));
    push_section(&mut text, "tree", &encode_tree(&models.tree));
    push_section(&mut text, "evp", &encode_evp(&models.evp));
    let mut errors = Vec::new();
    push_f64s(&mut errors, &models.train_errors);
    push_section(&mut text, "train_errors", &errors);
    let mut signed = Vec::new();
    models.signed_linear.write_words(&mut signed);
    push_section(&mut text, "signed_linear", &signed);
    signed.clear();
    models.signed_tree.write_words(&mut signed);
    push_section(&mut text, "signed_tree", &signed);
    write_atomically(path, &text)
}

/// Write-then-rename so a concurrently reading binary never sees a
/// half-written entry; the counter keeps concurrent writers within one
/// process (test threads) off each other's temp files.
fn write_atomically(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    static WRITE_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = WRITE_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{serial}", std::process::id()));
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Parses the shared envelope — format header, `kernel <name>` line, and
/// the counted hex-word sections — that both the per-app entry and the
/// zoo entry use. Returns `None` for any malformed line or count. Words
/// are collected as they are parsed, so a section's declared count never
/// sizes an allocation.
fn parse_sections(text: &str) -> Option<Vec<(String, Vec<u64>)>> {
    let mut lines = text.lines();
    if lines.next()? != FORMAT_HEADER {
        return None;
    }
    let _kernel = lines.next()?.strip_prefix("kernel ")?;

    let mut sections: Vec<(String, Vec<u64>)> = Vec::new();
    let mut current: Option<(String, usize, Vec<u64>)> = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("section ") {
            if let Some((name, expected, words)) = current.take() {
                if words.len() != expected {
                    return None;
                }
                sections.push((name, words));
            }
            let (name, count) = rest.split_once(' ')?;
            current = Some((name.to_owned(), count.parse().ok()?, Vec::new()));
        } else if let Some((_, _, words)) = current.as_mut() {
            for tok in line.split_whitespace() {
                words.push(u64::from_str_radix(tok, 16).ok()?);
            }
        } else if !line.trim().is_empty() {
            return None;
        }
    }
    if let Some((name, expected, words)) = current.take() {
        if words.len() != expected {
            return None;
        }
        sections.push((name, words));
    }
    Some(sections)
}

fn parse_entry(text: &str) -> Option<CachedModels> {
    let sections = parse_sections(text)?;
    let find = |name: &str| sections.iter().find(|(n, _)| n == name).map(|(_, w)| w.as_slice());
    let rumba_model = decode_model(find("rumba_model")?).ok()?;
    // Both trees read the accelerator's input rows.
    let input_dim = rumba_model.mlp().input_dim();
    let read_signed_tree = |r: &mut WordReader| DecisionTree::read_words(r, input_dim);
    Some(CachedModels {
        baseline_model: decode_model(find("baseline_model")?).ok()?,
        linear: decode_linear(find("linear")?).ok()?,
        tree: decode_tree(find("tree")?, input_dim).ok()?,
        evp: decode_evp(find("evp")?).ok()?,
        train_errors: find("train_errors")?.iter().map(|&w| f64::from_bits(w)).collect(),
        signed_linear: read_all(find("signed_linear")?, "signed_linear", LinearModel::read_words)
            .ok()?,
        signed_tree: read_all(find("signed_tree")?, "signed_tree", read_signed_tree).ok()?,
        rumba_model,
    })
}

/// The `zoo_spec` word for a tier without a limited-precision datapath.
const NO_PRECISION: f64 = -1.0;

/// The zoo entry reuses the v1 envelope with a `zoo_spec` section — the
/// stored tier count followed by `[precision_bits (-1 for none),
/// fixed_point flag, train_error]` per tier — plus per-tier `zoo_model_i`
/// (accelerator config-words) and `zoo_router_i` (a [`LinearModel`]'s
/// `[n_weights, weights..., bias]`) sections. Per-tier datapath settings
/// live in the spec; everything else in `NpuParams` comes from the
/// caller's [`OfflineConfig`], matching how the tier was built.
fn write_zoo_entry(path: &Path, kernel_name: &str, zoo: &ModelZoo) -> std::io::Result<()> {
    let mut text = entry_head(kernel_name);
    let mut spec = vec![(zoo.len() as f64).to_bits()];
    for tier in zoo.tiers() {
        let params = tier.npu.params();
        let precision = params.precision_bits.map_or(NO_PRECISION, f64::from);
        push_f64s(
            &mut spec,
            &[precision, f64::from(u8::from(params.fixed_point)), tier.train_error],
        );
    }
    push_section(&mut text, "zoo_spec", &spec);
    for (i, tier) in zoo.tiers().iter().enumerate() {
        push_section(&mut text, &format!("zoo_model_{i}"), &encode_model(tier.npu.model()));
        let mut router = Vec::new();
        tier.router.write_words(&mut router);
        push_section(&mut text, &format!("zoo_router_{i}"), &router);
    }
    write_atomically(path, &text)
}

fn parse_zoo_entry(text: &str, base_params: &NpuParams) -> Option<ModelZoo> {
    let sections = parse_sections(text)?;
    let find = |name: &str| sections.iter().find(|(n, _)| n == name).map(|(_, w)| w.as_slice());
    let specs = read_all(find("zoo_spec")?, "zoo_spec", |r| {
        // Every tier takes three spec words.
        let n = r.f64_count("zoo_spec.tiers", r.remaining() / 3)?;
        (0..n).map(|_| read_tier_spec(r)).collect::<Result<Vec<_>, String>>()
    })
    .ok()?;
    let tiers = specs
        .into_iter()
        .enumerate()
        .map(|(i, (precision_bits, fixed_point, train_error))| {
            let model = decode_model(find(&format!("zoo_model_{i}"))?).ok()?;
            let router = find(&format!("zoo_router_{i}"))?;
            let router = read_all(router, "zoo_router", LinearModel::read_words).ok()?;
            let params = NpuParams { precision_bits, fixed_point, ..*base_params };
            Some(ZooTier { npu: Npu::new(model, params), router, train_error })
        })
        .collect::<Option<Vec<_>>>()?;
    ModelZoo::from_tiers(tiers).ok()
}

/// One tier's `[precision_bits (-1 for none), fixed_point, train_error]`.
fn read_tier_spec(r: &mut WordReader) -> Result<(Option<u32>, bool, f64), String> {
    let word = r.u64("zoo_spec.precision")?;
    let precision = if word == NO_PRECISION.to_bits() {
        None
    } else {
        let bits = whole(word, u32::MAX as usize).and_then(|n| u32::try_from(n).ok());
        Some(bits.ok_or("zoo_spec.precision: neither -1 nor a bit count")?)
    };
    Ok((precision, r.f64_count("zoo_spec.fixed_point", 1)? == 1, r.f64("zoo_spec.train_error")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{nn_params_for, train_app_with_cache};
    use rumba_apps::kernel_by_name;

    fn temp_cache(tag: &str) -> TrainedModelCache {
        let dir =
            std::env::temp_dir().join(format!("rumba-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TrainedModelCache::with_dir(dir)
    }

    #[test]
    fn round_trip_is_bit_exact_and_invalidates_on_seed_change() {
        let kernel = kernel_by_name("gaussian").unwrap();
        let cache = temp_cache("roundtrip");
        let cfg = OfflineConfig::default();
        let rumba_topo = kernel.rumba_topology();
        let npu_topo = kernel.npu_topology();
        let topologies = (rumba_topo.as_slice(), npu_topo.as_slice());
        let nn_params = nn_params_for(kernel.as_ref());

        let trained = train_app_with_cache(kernel.as_ref(), &cfg, &cache).unwrap();
        let loaded =
            cache.load(kernel.name(), topologies, &cfg, &nn_params).expect("entry was just stored");

        // Bit-exact: the persisted config-words decode to models whose
        // encodings (and error lists) match the fresh ones word for word.
        let bits = |words: &[f64]| words.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(encode_model(&loaded.rumba_model), encode_model(trained.rumba_npu.model()));
        assert_eq!(
            encode_model(&loaded.baseline_model),
            encode_model(trained.baseline_npu.model())
        );
        assert_eq!(encode_linear(&loaded.linear), encode_linear(&trained.linear));
        assert_eq!(encode_tree(&loaded.tree), encode_tree(&trained.tree));
        assert_eq!(encode_evp(&loaded.evp), encode_evp(&trained.evp));
        assert_eq!(bits(&loaded.train_errors), bits(&trained.train_errors));
        assert_eq!(Some(&loaded.signed_linear), trained.linear.signed_model());
        assert_eq!(Some(&loaded.signed_tree), trained.tree.signed_tree());

        // A different seed must miss.
        let other = OfflineConfig { seed: cfg.seed + 1, ..cfg };
        assert!(cache.load(kernel.name(), topologies, &other, &nn_params).is_none());
        let _ = fs::remove_dir_all(cache.dir);
    }

    /// Trains gaussian into `cache` and returns the entry's path and text.
    fn stored_gaussian_entry(cache: &TrainedModelCache) -> (PathBuf, String) {
        let kernel = kernel_by_name("gaussian").unwrap();
        let cfg = OfflineConfig::default();
        train_app_with_cache(kernel.as_ref(), &cfg, cache).unwrap();
        let (rumba, npu) = (kernel.rumba_topology(), kernel.npu_topology());
        let path =
            cache.entry_path(kernel.name(), (&rumba, &npu), &cfg, &nn_params_for(kernel.as_ref()));
        let text = fs::read_to_string(&path).unwrap();
        (path, text)
    }

    fn load_gaussian(cache: &TrainedModelCache) -> Option<CachedModels> {
        let kernel = kernel_by_name("gaussian").unwrap();
        let (rumba, npu) = (kernel.rumba_topology(), kernel.npu_topology());
        let nn_params = nn_params_for(kernel.as_ref());
        cache.load(kernel.name(), (&rumba, &npu), &OfflineConfig::default(), &nn_params)
    }

    #[test]
    fn an_entry_without_the_signed_sections_misses_and_is_rewritten_whole() {
        let cache = temp_cache("unsigned");
        let (path, full) = stored_gaussian_entry(&cache);
        // The entry as it was written before the signed companions were
        // stored: the same sections, with the last two cut off.
        let cut = full.find("section signed_linear ").expect("the signed sections are stored");
        assert!(full[cut..].contains("\nsection signed_tree "));
        fs::write(&path, &full[..cut]).unwrap();
        assert!(load_gaussian(&cache).is_none(), "an entry lacking the signed fits is a miss");
        // The next training run retrains and rewrites the identical entry.
        let kernel = kernel_by_name("gaussian").unwrap();
        train_app_with_cache(kernel.as_ref(), &OfflineConfig::default(), &cache).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), full);
        assert!(load_gaussian(&cache).is_some());
        let _ = fs::remove_dir_all(cache.dir);
    }

    #[test]
    fn an_entry_with_an_unknown_section_still_loads() {
        // Sections are found by name, which is what lets a reader that
        // predates a section keep hitting entries that carry it.
        let cache = temp_cache("extra-section");
        let (path, full) = stored_gaussian_entry(&cache);
        let expected = load_gaussian(&cache).expect("the stored entry loads");
        let mut extra = full.clone();
        push_section(&mut extra, "from_a_later_format", &[1, 2, 3]);
        let mut ahead = entry_head("gaussian");
        push_section(&mut ahead, "another_one", &[]);
        ahead.push_str(full.strip_prefix(entry_head("gaussian").as_str()).unwrap());
        for text in [extra, ahead] {
            fs::write(&path, &text).unwrap();
            assert_eq!(load_gaussian(&cache).as_ref(), Some(&expected), "{text}");
        }
        let _ = fs::remove_dir_all(cache.dir);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = TrainedModelCache::disabled();
        let kernel = kernel_by_name("gaussian").unwrap();
        let cfg = OfflineConfig::default();
        let _ = train_app_with_cache(kernel.as_ref(), &cfg, &cache).unwrap();
        assert!(!cache.is_enabled());
    }

    #[test]
    fn stray_files_are_skipped_not_collided_onto_the_empty_key() {
        // Regression: `file_stem().unwrap_or_default()` keyed every
        // stemless stray as "" — two unrelated files were one phantom
        // entry. `entry_key` must reject everything that isn't a keyed
        // `.words` file.
        assert_eq!(
            entry_key(Path::new("gaussian-s42-0123.words")).as_deref(),
            Some("gaussian-s42-0123")
        );
        assert_eq!(entry_key(Path::new(".words")), None, "stemless dotfile");
        assert_eq!(entry_key(Path::new("README.txt")), None, "wrong extension");
        assert_eq!(entry_key(Path::new("noext")), None, "no extension");
        assert_eq!(entry_key(Path::new("entry.tmp.123.4")), None, "in-flight temp file");

        let cache = temp_cache("scan");
        fs::create_dir_all(&cache.dir).unwrap();
        fs::write(cache.dir.join("fft-s7-abcd.words"), "x").unwrap();
        fs::write(cache.dir.join("gaussian-s42-1234.words"), "x").unwrap();
        fs::write(cache.dir.join(".words"), "stray one").unwrap();
        fs::write(cache.dir.join("README.txt"), "stray two").unwrap();
        let scan = cache.scan();
        assert_eq!(scan.entries, vec!["fft-s7-abcd".to_owned(), "gaussian-s42-1234".to_owned()]);
        assert_eq!(scan.skipped, 2, "both strays counted, neither keyed");
        let _ = fs::remove_dir_all(cache.dir);
    }

    #[test]
    fn scan_of_missing_or_disabled_cache_is_empty() {
        assert_eq!(TrainedModelCache::disabled().scan(), CacheScan::default());
        assert_eq!(temp_cache("scan-missing").scan(), CacheScan::default());
    }

    #[test]
    fn root_above_finds_the_nearest_lockfile_ancestor() {
        let base = std::env::temp_dir().join(format!("rumba-root-test-{}", std::process::id()));
        let nested = base.join("a").join("b").join("c");
        fs::create_dir_all(&nested).unwrap();
        fs::write(base.join("Cargo.lock"), "").unwrap();
        // An inner lockfile shadows the outer one (nearest wins).
        fs::write(base.join("a").join("Cargo.lock"), "").unwrap();
        assert_eq!(root_above(&nested), Some(base.join("a")));
        assert_eq!(root_above(&base), Some(base.clone()));
        // Files walk up through their parent directory.
        let file = nested.join("rumba");
        fs::write(&file, "").unwrap();
        assert_eq!(root_above(&file), Some(base.join("a")));
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn default_cache_dir_is_anchored_under_a_workspace_root() {
        let dir = default_cache_dir();
        assert!(dir.ends_with(Path::new("target").join("rumba-cache")), "{}", dir.display());
        // Running under cargo, some anchor (manifest dir at minimum) must
        // resolve, so the path is absolute rather than cwd-relative.
        assert!(dir.is_absolute(), "{}", dir.display());
    }
}
