//! §3.2.2 — error prediction using a decision tree.
//!
//! A CART-style regression tree over the accelerator inputs: decision nodes
//! compare one input against a trained constant, leaf nodes store the
//! predicted error. Only comparisons are needed online, so the checker is
//! cheap; the paper caps the depth at 7 and so does [`TreeParams::default`].

use std::sync::Arc;

use crate::{CheckerCost, ErrorEstimator, PredictError, Result};

/// Appends one tree as `[node_count, then per node: tag, feature, bits]`
/// in preorder (`tag` 0 = leaf with `bits` = value, 1 = split on
/// `feature` at threshold `bits`).
fn push_tree_words(out: &mut Vec<u64>, tree: &DecisionTree) {
    let nodes = tree.to_node_words();
    out.push(nodes.len() as u64);
    for node in nodes {
        match node {
            TreeNodeWord::Leaf { value } => {
                out.push(0);
                out.push(0);
                out.push(value.to_bits());
            }
            TreeNodeWord::Split { feature, threshold } => {
                out.push(1);
                out.push(feature as u64);
                out.push(threshold.to_bits());
            }
        }
    }
}

/// Parses one tree written by [`push_tree_words`], advancing `pos`.
fn parse_tree_words(words: &[u64], pos: &mut usize) -> std::result::Result<DecisionTree, String> {
    let count = *words.get(*pos).ok_or("tree model words ended before the node count")? as usize;
    if count >= words.len() {
        return Err(format!("tree model claims {count} nodes, only {} words", words.len()));
    }
    let end = *pos + 1 + 3 * count;
    if words.len() < end {
        return Err(format!("tree model wants {count} nodes, words ran out"));
    }
    let mut nodes = Vec::with_capacity(count);
    for i in 0..count {
        let base = *pos + 1 + 3 * i;
        let value = f64::from_bits(words[base + 2]);
        nodes.push(match (words[base], words[base + 1]) {
            (0, 0) => TreeNodeWord::Leaf { value },
            (1, feature) => TreeNodeWord::Split { feature: feature as usize, threshold: value },
            (tag, feature) => {
                return Err(format!("tree node must be (0, 0, value) or (1, feature, threshold), got ({tag}, {feature}, ..)"))
            }
        });
    }
    *pos = end;
    DecisionTree::from_node_words(&nodes).map_err(|e| e.to_string())
}

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

    /// Flattens the tree into preorder node words (the coefficient-buffer
    /// image the config queue ships, see [`crate::encode_tree`]).
    #[must_use]
    pub fn to_node_words(&self) -> Vec<TreeNodeWord> {
        let mut out = Vec::with_capacity(self.node_count);
        flatten(&self.root, &mut out);
        out
    }

    /// Rebuilds a tree from preorder node words.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ShapeMismatch`] if the stream does not
    /// describe exactly one complete tree.
    pub fn from_node_words(words: &[TreeNodeWord]) -> Result<Self> {
        let mut pos = 0usize;
        let root = unflatten(words, &mut pos)?;
        if pos != words.len() {
            return Err(PredictError::ShapeMismatch {
                detail: format!("{} unused node words", words.len() - pos),
            });
        }
        let (depth, node_count) = measure(&root);
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

/// One node of a flattened tree, as shipped through the config queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeNodeWord {
    /// A leaf carrying the predicted error.
    Leaf {
        /// Predicted error stored at the leaf.
        value: f64,
    },
    /// A decision node comparing one input against a trained constant.
    Split {
        /// Input index the node tests.
        feature: usize,
        /// Trained comparison constant.
        threshold: f64,
    },
}

fn flatten(node: &Node, out: &mut Vec<TreeNodeWord>) {
    match node {
        Node::Leaf { value } => out.push(TreeNodeWord::Leaf { value: *value }),
        Node::Split { feature, threshold, left, right } => {
            out.push(TreeNodeWord::Split { feature: *feature, threshold: *threshold });
            flatten(left, out);
            flatten(right, out);
        }
    }
}

fn unflatten(words: &[TreeNodeWord], pos: &mut usize) -> Result<Node> {
    let word = words.get(*pos).ok_or_else(|| PredictError::ShapeMismatch {
        detail: "node stream ended mid-tree".to_owned(),
    })?;
    *pos += 1;
    match *word {
        TreeNodeWord::Leaf { value } => Ok(Node::Leaf { value }),
        TreeNodeWord::Split { feature, threshold } => {
            let left = Box::new(unflatten(words, pos)?);
            let right = Box::new(unflatten(words, pos)?);
            Ok(Node::Split { feature, threshold, left, right })
        }
    }
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
        let mut out = Vec::new();
        push_tree_words(&mut out, &self.tree);
        match &self.signed {
            Some(signed) => {
                out.push(1);
                push_tree_words(&mut out, signed);
            }
            None => out.push(0),
        }
        Some(out)
    }

    fn import_model_words(&mut self, words: &[u64]) -> std::result::Result<(), String> {
        let mut pos = 0usize;
        let tree = parse_tree_words(words, &mut pos)?;
        let signed = match words.get(pos).copied() {
            Some(0) => {
                pos += 1;
                None
            }
            Some(1) => {
                pos += 1;
                Some(Arc::new(parse_tree_words(words, &mut pos)?))
            }
            other => return Err(format!("tree signed flag must be 0|1, got {other:?}")),
        };
        if pos != words.len() {
            return Err(format!("{} unused tree model words", words.len() - pos));
        }
        self.tree = Arc::new(tree);
        self.signed = signed;
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
        other.import_model_words(&words).unwrap();
        assert_eq!(other.export_model_words().unwrap(), words);
        assert_eq!(
            other.tree().predict(&[0.3, 0.9]).to_bits(),
            te.tree().predict(&[0.3, 0.9]).to_bits()
        );
        assert!(other.import_model_words(&words[..words.len() - 2]).is_err());
        assert!(other.import_model_words(&[7]).is_err());
        // A leaf's feature word is always written as 0; any other value
        // would not re-export, so it is rejected.
        let leaf = words.iter().skip(1).step_by(3).position(|&tag| tag == 0).unwrap();
        let mut stray = words.clone();
        stray[1 + 3 * leaf + 1] = 5;
        assert!(other.import_model_words(&stray).is_err());
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
