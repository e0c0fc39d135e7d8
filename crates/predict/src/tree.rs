//! §3.2.2 — error prediction using a decision tree.
//!
//! A CART-style regression tree over the accelerator inputs: decision nodes
//! compare one input against a trained constant, leaf nodes store the
//! predicted error. Only comparisons are needed online, so the checker is
//! cheap; the paper caps the depth at 7 and so does [`TreeParams::default`].

use std::sync::Arc;

use rumba_obs::words::{push_f64s, read_all, WordReader};

use crate::{read_magic, CheckerCost, ErrorEstimator, PredictError, Result};

/// Magic word marking a tree-checker config stream.
pub const TREE_MAGIC: f64 = 0x54_52_45 as f64; // "TRE"

/// Deepest tree the config-stream decoder accepts. It sits far above any
/// trained depth (the paper caps checkers at 7, the depth ablation trains
/// up to 9) and bounds the decoder's recursion.
pub const MAX_DECODE_DEPTH: usize = 64;

/// Training hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0). The paper limits this to 7.
    pub max_depth: usize,
    /// Minimum training rows a leaf may hold.
    pub min_samples_leaf: usize,
    /// Candidate split thresholds evaluated per feature (quantile grid).
    pub candidate_splits: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 7, min_samples_leaf: 8, candidate_splits: 16 }
    }
}

impl TreeParams {
    fn validate(&self) -> Result<()> {
        if self.max_depth == 0 {
            return Err(PredictError::InvalidParam { name: "max_depth", value: "0".into() });
        }
        if self.min_samples_leaf == 0 {
            return Err(PredictError::InvalidParam { name: "min_samples_leaf", value: "0".into() });
        }
        if self.candidate_splits < 2 {
            return Err(PredictError::InvalidParam {
                name: "candidate_splits",
                value: self.candidate_splits.to_string(),
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A regression tree trained by variance-reduction CART.
///
/// # Examples
///
/// ```
/// use rumba_predict::{DecisionTree, TreeParams};
///
/// let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
/// let ys: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 }).collect();
/// let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
/// let tree = DecisionTree::fit(&refs, &ys, &TreeParams::default()).unwrap();
/// assert!(tree.predict(&[0.9]) > 0.9);
/// assert!(tree.predict(&[0.1]) < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    depth: usize,
    node_count: usize,
}

impl DecisionTree {
    /// Trains a tree on `(input row, target)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::EmptyTrainingSet`] for no rows,
    /// [`PredictError::ShapeMismatch`] for ragged rows or target-length
    /// disagreement, and [`PredictError::InvalidParam`] for bad parameters.
    pub fn fit(rows: &[&[f64]], targets: &[f64], params: &TreeParams) -> Result<Self> {
        params.validate()?;
        if rows.is_empty() {
            return Err(PredictError::EmptyTrainingSet);
        }
        if rows.len() != targets.len() {
            return Err(PredictError::ShapeMismatch {
                detail: format!("{} rows vs {} targets", rows.len(), targets.len()),
            });
        }
        let dim = rows[0].len();
        if rows.iter().any(|r| r.len() != dim) {
            return Err(PredictError::ShapeMismatch { detail: "ragged feature rows".into() });
        }

        let indices: Vec<usize> = (0..rows.len()).collect();
        let root = build(rows, targets, &indices, params, 0);
        let (depth, node_count) = measure(&root);
        Ok(Self { root, depth, node_count })
    }

    /// Evaluates the tree on one input row.
    ///
    /// # Panics
    ///
    /// Panics if `input` is narrower than a feature index the tree tests.
    #[must_use]
    pub fn predict(&self, input: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if input[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Actual depth of the trained tree (a root-only tree has depth 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Appends the tree as config words `[n_nodes, nodes...]` in
    /// preorder, each node either `[0, value]` (leaf) or `[1, feature,
    /// threshold]` (decision) — the coefficient-buffer image the config
    /// queue ships.
    pub fn write_words(&self, out: &mut Vec<u64>) {
        out.push((self.node_count as f64).to_bits());
        write_node(&self.root, out);
    }

    /// Reads one tree written by [`DecisionTree::write_words`] for inputs
    /// `input_dim` wide.
    ///
    /// # Errors
    ///
    /// Names the first malformed field: a node tag other than 0|1, a
    /// split on a feature at or beyond `input_dim`, splits nested deeper
    /// than [`MAX_DECODE_DEPTH`], a truncated stream, or a node count that
    /// disagrees with the nodes read.
    pub fn read_words(r: &mut WordReader, input_dim: usize) -> std::result::Result<Self, String> {
        // Every node takes at least two words.
        let declared = r.f64_count("tree.nodes", r.remaining() / 2)?;
        let root = read_node(r, input_dim, 0)?;
        let (depth, node_count) = measure(&root);
        if node_count != declared {
            return Err(format!(
                "tree.nodes: declares {declared} nodes, the stream has {node_count}"
            ));
        }
        Ok(Self { root, depth, node_count })
    }

    /// Total number of nodes, decision and leaf.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

fn mean(targets: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| targets[i]).sum::<f64>() / idx.len() as f64
}

fn sse(targets: &[f64], idx: &[usize]) -> f64 {
    let m = mean(targets, idx);
    idx.iter().map(|&i| (targets[i] - m) * (targets[i] - m)).sum()
}

fn build(
    rows: &[&[f64]],
    targets: &[f64],
    idx: &[usize],
    params: &TreeParams,
    depth: usize,
) -> Node {
    let leaf = Node::Leaf { value: mean(targets, idx) };
    if depth >= params.max_depth || idx.len() < 2 * params.min_samples_leaf {
        return leaf;
    }
    let parent_sse = sse(targets, idx);
    if parent_sse < 1e-12 {
        return leaf;
    }

    let dim = rows[0].len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    let mut values: Vec<f64> = Vec::with_capacity(idx.len());
    #[allow(clippy::needless_range_loop)] // `feature` is semantically an index into every row
    for feature in 0..dim {
        values.clear();
        values.extend(idx.iter().map(|&i| rows[i][feature]));
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        for k in 1..params.candidate_splits {
            let q = k * (values.len() - 1) / params.candidate_splits;
            let threshold = values[q];
            if threshold >= *values.last().expect("nonempty") {
                continue; // everything would go left
            }
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for &i in idx {
                if rows[i][feature] <= threshold {
                    left.push(i);
                } else {
                    right.push(i);
                }
            }
            if left.len() < params.min_samples_leaf || right.len() < params.min_samples_leaf {
                continue;
            }
            let split_sse = sse(targets, &left) + sse(targets, &right);
            if best.is_none_or(|(_, _, b)| split_sse < b) {
                best = Some((feature, threshold, split_sse));
            }
        }
    }

    match best {
        Some((feature, threshold, split_sse)) if split_sse < parent_sse - 1e-12 => {
            let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
            for &i in idx {
                if rows[i][feature] <= threshold {
                    left_idx.push(i);
                } else {
                    right_idx.push(i);
                }
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(rows, targets, &left_idx, params, depth + 1)),
                right: Box::new(build(rows, targets, &right_idx, params, depth + 1)),
            }
        }
        _ => leaf,
    }
}

fn write_node(node: &Node, out: &mut Vec<u64>) {
    match node {
        Node::Leaf { value } => push_f64s(out, &[0.0, *value]),
        Node::Split { feature, threshold, left, right } => {
            push_f64s(out, &[1.0, *feature as f64, *threshold]);
            write_node(left, out);
            write_node(right, out);
        }
    }
}

fn read_node(
    r: &mut WordReader,
    input_dim: usize,
    depth: usize,
) -> std::result::Result<Node, String> {
    if r.f64_count("tree.tag", 1)? == 0 {
        return Ok(Node::Leaf { value: r.f64("tree.leaf")? });
    }
    if depth == MAX_DECODE_DEPTH {
        return Err(format!("tree.depth: splits nest deeper than {MAX_DECODE_DEPTH}"));
    }
    let feature = r.f64_count("tree.feature", usize::MAX)?;
    if feature >= input_dim {
        return Err(format!("tree.feature: {feature} is outside the {input_dim}-wide input"));
    }
    let threshold = r.f64("tree.threshold")?;
    let left = Box::new(read_node(r, input_dim, depth + 1)?);
    let right = Box::new(read_node(r, input_dim, depth + 1)?);
    Ok(Node::Split { feature, threshold, left, right })
}

fn measure(node: &Node) -> (usize, usize) {
    match node {
        Node::Leaf { .. } => (0, 1),
        Node::Split { left, right, .. } => {
            let (dl, nl) = measure(left);
            let (dr, nr) = measure(right);
            (dl.max(dr) + 1, nl + nr + 1)
        }
    }
}

/// Serializes a tree checker's trained tree as its config stream,
/// `[TREE_MAGIC, n_nodes, nodes...]` (see [`DecisionTree::write_words`]).
#[must_use]
pub fn encode_tree(checker: &TreeErrors) -> Vec<u64> {
    let mut words = vec![TREE_MAGIC.to_bits()];
    checker.tree.write_words(&mut words);
    words
}

/// Reconstructs a tree checker from [`encode_tree`] output, for inputs
/// `input_dim` wide.
///
/// # Errors
///
/// Names the first malformed field (see [`DecisionTree::read_words`]) or
/// reports trailing words.
pub fn decode_tree(words: &[u64], input_dim: usize) -> std::result::Result<TreeErrors, String> {
    read_all(words, "tree", |r| read_tree(r, input_dim)).map(TreeErrors::from_tree)
}

fn read_tree(r: &mut WordReader, input_dim: usize) -> std::result::Result<DecisionTree, String> {
    read_magic(r, "tree.magic", TREE_MAGIC)?;
    DecisionTree::read_words(r, input_dim)
}

/// The `treeErrors` checker: an input-based EEP estimator backed by a
/// [`DecisionTree`] trained directly on observed invocation errors.
///
/// The tree lives behind an [`Arc`], so cloning a trained checker — which
/// the runtime does whenever it stamps out per-scheme probes — shares the
/// node structure instead of deep-copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeErrors {
    tree: Arc<DecisionTree>,
    signed: Option<Arc<DecisionTree>>,
}

impl TreeErrors {
    /// Trains on `(input row, observed invocation error)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates [`DecisionTree::fit`] errors.
    pub fn train(rows: &[&[f64]], errors: &[f64], params: &TreeParams) -> Result<Self> {
        Ok(Self::from_tree(DecisionTree::fit(rows, errors, params)?))
    }

    /// Wraps an already-built tree (the config-stream decoder's
    /// constructor).
    #[must_use]
    pub fn from_tree(tree: DecisionTree) -> Self {
        Self { tree: Arc::new(tree), signed: None }
    }

    /// Attaches a tree fit on signed output-space errors (mean of
    /// `approx[j] − exact[j]` per row); [`ErrorEstimator::estimate_signed`]
    /// evaluates it unclamped.
    #[must_use]
    pub fn with_signed_tree(mut self, signed: DecisionTree) -> Self {
        self.signed = Some(Arc::new(signed));
        self
    }

    /// The trained tree (structure feeds the coefficient buffer).
    #[must_use]
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// The signed-error tree, when one was attached.
    #[must_use]
    pub fn signed_tree(&self) -> Option<&DecisionTree> {
        self.signed.as_deref()
    }
}

impl ErrorEstimator for TreeErrors {
    fn name(&self) -> &'static str {
        "treeErrors"
    }

    fn estimate(&mut self, input: &[f64], _approx_output: &[f64]) -> f64 {
        self.tree.predict(input).max(0.0)
    }

    fn estimate_signed(&self, input: &[f64], _approx_output: &[f64], magnitude: f64) -> f64 {
        match &self.signed {
            Some(t) => t.predict(input),
            None => magnitude,
        }
    }

    fn state_config_word(&self) -> u64 {
        crate::config_fingerprint(
            self.name(),
            &[self.tree.node_count() as u64, u64::from(self.signed.is_some())],
        )
    }

    fn cost(&self) -> CheckerCost {
        // One comparison per level walked plus the firing comparison;
        // coefficient reads fetch the node constants.
        CheckerCost {
            macs: 0,
            comparisons: self.tree.depth() + 1,
            table_reads: self.tree.depth() + 1,
        }
    }

    fn refit(
        &mut self,
        rows: &[&[f64]],
        targets: &[f64],
        signed_targets: &[f64],
    ) -> std::result::Result<(), String> {
        let params = TreeParams::default();
        // Fit both trees before swapping either, so a failed signed fit
        // cannot leave a half-replaced checker behind.
        let tree = DecisionTree::fit(rows, targets, &params).map_err(|e| e.to_string())?;
        let signed = DecisionTree::fit(rows, signed_targets, &params).map_err(|e| e.to_string())?;
        self.tree = Arc::new(tree);
        self.signed = Some(Arc::new(signed));
        Ok(())
    }

    fn export_model_words(&self) -> Option<Vec<u64>> {
        let mut out = encode_tree(self);
        out.push(u64::from(self.signed.is_some()));
        if let Some(signed) = &self.signed {
            signed.write_words(&mut out);
        }
        Some(out)
    }

    fn import_model_words(
        &mut self,
        words: &[u64],
        input_dim: usize,
    ) -> std::result::Result<(), String> {
        let (tree, signed) = read_all(words, "tree", |r| {
            let tree = read_tree(r, input_dim)?;
            let signed = r
                .flag("tree.signed")?
                .then(|| DecisionTree::read_words(r, input_dim))
                .transpose()?;
            Ok((tree, signed))
        })?;
        self.tree = Arc::new(tree);
        self.signed = signed.map(Arc::new);
        Ok(())
    }

    fn is_input_based(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0, 0.5]).collect();
        let ys = rows.iter().map(|r| if r[0] > 0.6 { 0.9 } else { 0.1 }).collect();
        (rows, ys)
    }

    #[test]
    fn learns_a_step_function() {
        let (rows, ys) = step_data();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let tree = DecisionTree::fit(&refs, &ys, &TreeParams::default()).unwrap();
        assert!((tree.predict(&[0.9, 0.5]) - 0.9).abs() < 1e-9);
        assert!((tree.predict(&[0.1, 0.5]) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn depth_respects_cap() {
        let (rows, ys) = step_data();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        for cap in [1, 3, 7] {
            let params = TreeParams { max_depth: cap, ..TreeParams::default() };
            let tree = DecisionTree::fit(&refs, &ys, &params).unwrap();
            assert!(tree.depth() <= cap, "depth {} > cap {cap}", tree.depth());
        }
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys = vec![0.25; 50];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let tree = DecisionTree::fit(&refs, &ys, &TreeParams::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[1000.0]), 0.25);
    }

    #[test]
    fn validates_inputs() {
        let row: &[f64] = &[1.0];
        assert!(matches!(
            DecisionTree::fit(&[], &[], &TreeParams::default()),
            Err(PredictError::EmptyTrainingSet)
        ));
        assert!(matches!(
            DecisionTree::fit(&[row], &[1.0, 2.0], &TreeParams::default()),
            Err(PredictError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            DecisionTree::fit(
                &[row],
                &[1.0],
                &TreeParams { max_depth: 0, ..TreeParams::default() }
            ),
            Err(PredictError::InvalidParam { .. })
        ));
    }

    #[test]
    fn tree_errors_cost_counts_comparisons_only() {
        let (rows, ys) = step_data();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let te = TreeErrors::train(&refs, &ys, &TreeParams::default()).unwrap();
        let cost = te.cost();
        assert_eq!(cost.macs, 0);
        assert!(cost.comparisons >= 2);
        assert!(te.is_input_based());
        assert_eq!(te.name(), "treeErrors");
    }

    #[test]
    fn refit_replaces_the_tree_and_model_words_round_trip() {
        let (rows, ys) = step_data();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut te = TreeErrors::train(&refs, &ys, &TreeParams::default()).unwrap();
        assert!(te.signed_tree().is_none());
        // New regime: the step flips sides; the refit tree must track it.
        let flipped: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 0.1 } else { 0.9 }).collect();
        let signed: Vec<f64> = rows.iter().map(|r| r[0] - 0.5).collect();
        te.refit(&refs, &flipped, &signed).unwrap();
        assert!(te.tree().predict(&[0.1, 0.5]) > 0.5);
        assert!(te.signed_tree().is_some());

        let words = te.export_model_words().unwrap();
        let mut other = TreeErrors::train(&refs, &ys, &TreeParams::default()).unwrap();
        other.import_model_words(&words, 2).unwrap();
        assert_eq!(other.export_model_words().unwrap(), words);
        assert_eq!(
            other.tree().predict(&[0.3, 0.9]).to_bits(),
            te.tree().predict(&[0.3, 0.9]).to_bits()
        );
        // The snapshot words are the config stream, then the signed pair.
        let stream = encode_tree(&te);
        assert_eq!(words[..stream.len()], stream[..]);
        assert_eq!(words[stream.len()], 1);
        assert!(other.import_model_words(&words[..words.len() - 2], 2).is_err());
        assert!(other.import_model_words(&[7], 2).is_err());
    }

    fn f(v: f64) -> u64 {
        v.to_bits()
    }

    fn trained() -> TreeErrors {
        let rows: Vec<Vec<f64>> =
            (0..200).map(|i| vec![i as f64 / 200.0, (i % 13) as f64 / 13.0]).collect();
        let errors: Vec<f64> =
            rows.iter().map(|r| if r[0] > 0.6 { 0.4 + r[1] * 0.1 } else { 0.02 }).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        TreeErrors::train(&refs, &errors, &TreeParams::default()).unwrap()
    }

    #[test]
    fn config_stream_round_trip_is_exact() {
        let tree = trained();
        let words = encode_tree(&tree);
        let mut restored = decode_tree(&words, 2).unwrap();
        assert_eq!(encode_tree(&restored), words);
        let mut original = tree;
        for i in 0..50 {
            let x = [i as f64 / 50.0, (i % 7) as f64 / 7.0];
            assert_eq!(original.estimate(&x, &[]), restored.estimate(&x, &[]));
        }
        assert_eq!(original.tree().depth(), restored.tree().depth());
        assert_eq!(original.tree().node_count(), restored.tree().node_count());
        assert!(decode_tree(&words[..words.len() - 1], 2).is_err());
        let mut trailing = words;
        trailing.push(f(0.5));
        assert!(decode_tree(&trailing, 2).unwrap_err().contains("trailing"));
    }

    #[test]
    fn node_tags_and_counts_must_be_canonical() {
        let words = encode_tree(&trained());
        let with = |at: usize, word: u64| {
            let mut w = words.clone();
            w[at] = word;
            decode_tree(&w, 2).unwrap_err()
        };
        // [magic, n_nodes, root tag, root feature, root threshold, ...]
        assert!(with(0, f(1.0)).starts_with("tree.magic"));
        assert!(with(1, f(3.0)).starts_with("tree.nodes"));
        assert!(with(2, f(2.0)).starts_with("tree.tag"));
        assert!(with(2, f(-0.0)).starts_with("tree.tag"));
        assert!(with(3, f(0.5)).starts_with("tree.feature"));
    }

    #[test]
    fn split_beyond_the_input_width_is_rejected() {
        // Without the width check, a root split on feature 99 of a 2-wide
        // input decodes and then panics in `predict` indexing `input[99]`.
        let tree = trained();
        let mut words = encode_tree(&tree);
        assert_eq!(words[2], f(1.0), "the root is a split");
        words[3] = f(99.0);
        assert!(decode_tree(&words, 2).unwrap_err().starts_with("tree.feature"));
        let mut snapshot = tree.export_model_words().unwrap();
        snapshot[3] = f(99.0);
        let mut other = tree;
        assert!(other.import_model_words(&snapshot, 2).unwrap_err().starts_with("tree.feature"));
        // The width is the caller's: the same words fit a 100-wide input.
        assert!(decode_tree(&words, 100).is_ok());
    }

    #[test]
    fn huge_node_count_is_rejected_without_allocating() {
        // A decoder that reserves `n_nodes` slots up front asks for 24 GB.
        let mut words = encode_tree(&trained());
        words[1] = f(999_999_999.0);
        assert!(decode_tree(&words, 2).unwrap_err().starts_with("tree.nodes"));
    }

    #[test]
    fn deep_split_chain_is_rejected_without_recursing_through_it() {
        // 200 000 splits, each the left child of the one before: a
        // recursive decoder without a depth bound overflows the stack.
        let splits = 200_000usize;
        let mut words = vec![f(TREE_MAGIC), f((2 * splits + 1) as f64)];
        for _ in 0..splits {
            words.extend([f(1.0), f(0.0), f(0.5)]);
        }
        for _ in 0..=splits {
            words.extend([f(0.0), f(0.25)]);
        }
        assert!(decode_tree(&words, 1).unwrap_err().starts_with("tree.depth"));
        // A chain exactly at the limit still decodes.
        let mut at_limit = vec![f(TREE_MAGIC), f((2 * MAX_DECODE_DEPTH + 1) as f64)];
        for _ in 0..MAX_DECODE_DEPTH {
            at_limit.extend([f(1.0), f(0.0), f(0.5)]);
        }
        for _ in 0..=MAX_DECODE_DEPTH {
            at_limit.extend([f(0.0), f(0.25)]);
        }
        assert_eq!(decode_tree(&at_limit, 1).unwrap().tree().depth(), MAX_DECODE_DEPTH);
    }

    proptest! {
        #[test]
        fn predictions_bounded_by_target_range(seed in 0u64..200) {
            // Leaf values are means, so predictions can never leave the
            // convex hull of the training targets.
            let mut state = seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000) as f64 / 1_000.0
            };
            let rows: Vec<Vec<f64>> = (0..100).map(|_| vec![next(), next()]).collect();
            let ys: Vec<f64> = (0..100).map(|_| next()).collect();
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let tree = DecisionTree::fit(&refs, &ys, &TreeParams::default()).unwrap();
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for _ in 0..20 {
                let p = tree.predict(&[next() * 2.0 - 0.5, next() * 2.0 - 0.5]);
                prop_assert!(p >= lo - 1e-12 && p <= hi + 1e-12);
            }
        }

        #[test]
        fn deeper_trees_never_fit_worse(seed in 0u64..50) {
            let mut state = seed.wrapping_add(3).wrapping_mul(0x45d9_f3b3);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000) as f64 / 1_000.0
            };
            let rows: Vec<Vec<f64>> = (0..150).map(|_| vec![next()]).collect();
            let ys: Vec<f64> = rows.iter().map(|r| (r[0] * 10.0).sin().abs()).collect();
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let sse_of = |depth: usize| {
                let params = TreeParams { max_depth: depth, ..TreeParams::default() };
                let tree = DecisionTree::fit(&refs, &ys, &params).unwrap();
                refs.iter().zip(&ys).map(|(r, y)| {
                    let p = tree.predict(r);
                    (p - y) * (p - y)
                }).sum::<f64>()
            };
            prop_assert!(sse_of(7) <= sse_of(2) + 1e-9);
            prop_assert!(sse_of(2) <= sse_of(1) + 1e-9);
        }
    }
}
