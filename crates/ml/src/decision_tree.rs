//! Cost-sensitive CART decision trees.
//!
//! The Exhaustive Feature Subsets classifiers of Level 2 are decision trees
//! trained per feature subset (the paper cites Quinlan's induction of
//! decision trees). Because mislabeling input *i* as configuration *j* costs
//! the performance (and accuracy-penalty) difference `C_ij`, the tree
//! minimizes *expected misclassification cost* rather than plain error: leaf
//! predictions pick `argmin_j Σ_i C[label_i][j]`, and splits greedily reduce
//! total leaf cost (with a small Gini tie-breaker so that cost plateaus do
//! not stall induction).
//!
//! Split search. At each node, each feature's `(value, label)` pairs are
//! sorted once. The candidate thresholds are midpoints between
//! consecutive distinct values, at most [`TreeOptions::max_thresholds`]
//! of them, spread evenly over the distinct values. They are swept in
//! ascending order: each row is added to the left counts once, as the
//! threshold passes it, and the right counts are the node's counts minus
//! the left ones. A candidate's cost is computed only over the classes
//! present at the node. The first strictly cheapest split wins (features
//! in order, then thresholds ascending), and it is taken only if it
//! lowers the node's cost by more than `1e-12`.
//!
//! NaN feature values. A row whose value is NaN goes right at every
//! threshold, in training and in [`DecisionTree::predict`], since
//! `NaN <= t` is false. Thresholds come from the non-NaN values only. The
//! midpoint of −∞ and +∞ is NaN: that threshold sends every row right.

use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeOptions {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_split: usize,
    /// Minimum samples in each child of a split.
    pub min_leaf: usize,
    /// Maximum number of candidate thresholds (quantile-spaced) examined
    /// per feature per node: it bounds how many splits are costed per
    /// feature per node. Whatever its value, each node's column is sorted
    /// and swept once.
    pub max_thresholds: usize,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            max_depth: 12,
            min_split: 4,
            min_leaf: 1,
            max_thresholds: 32,
        }
    }
}

/// Buffers of the split search, allocated once per [`DecisionTree::fit`]
/// and reused by every node (a node finishes its search before its
/// children start theirs).
struct Scratch {
    /// The node's `(value, label)` pairs for one feature, NaN rows left
    /// out, sorted by value.
    pairs: Vec<(f64, usize)>,
    /// The distinct values of `pairs`; candidate thresholds are midpoints
    /// of consecutive ones.
    values: Vec<f64>,
    /// The node's classes with a nonzero count, ascending.
    present: Vec<usize>,
    /// Per-class counts of the node, its left side and its right side.
    counts: Vec<f64>,
    left: Vec<f64>,
    right: Vec<f64>,
    /// Column sums of [`DecisionTree::node_cost`], one per class.
    col: Vec<f64>,
}

impl Scratch {
    fn new(samples: usize, num_classes: usize) -> Self {
        Scratch {
            pairs: Vec::with_capacity(samples),
            values: Vec::with_capacity(samples),
            present: Vec::with_capacity(num_classes),
            counts: vec![0.0; num_classes],
            left: vec![0.0; num_classes],
            right: vec![0.0; num_classes],
            col: vec![0.0; num_classes],
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted cost-sensitive decision tree over dense `f64` features and
/// `usize` class labels. Serializable: trained trees ship inside model
/// artifacts (`intune_serve`) and reload bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    num_classes: usize,
    num_features: usize,
}

impl DecisionTree {
    /// Fits a tree on `x` (rows = samples) and `labels` (`0..num_classes`),
    /// minimizing expected cost under `cost` — a `num_classes × num_classes`
    /// matrix where `cost[i][j]` is the penalty for predicting `j` on a
    /// sample labeled `i`. Pass a 0/1 matrix for plain accuracy.
    ///
    /// # Panics
    /// Panics if `x` is empty, row lengths differ, labels are out of range,
    /// or `cost` is not `num_classes × num_classes`.
    pub fn fit(
        x: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        cost: &[Vec<f64>],
        opts: TreeOptions,
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree on no samples");
        assert_eq!(x.len(), labels.len(), "x/labels length mismatch");
        let num_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == num_features),
            "inconsistent feature dimensions"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        assert_eq!(cost.len(), num_classes, "cost matrix rows");
        assert!(
            cost.iter().all(|r| r.len() == num_classes),
            "cost matrix cols"
        );

        let idx: Vec<usize> = (0..x.len()).collect();
        let mut scratch = Scratch::new(x.len(), num_classes);
        let root = Self::build(x, labels, cost, &idx, 0, &opts, &mut scratch);
        DecisionTree {
            root,
            num_classes,
            num_features,
        }
    }

    /// Convenience: fit with the 0/1 cost matrix (plain misclassification).
    pub fn fit_plain(
        x: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        opts: TreeOptions,
    ) -> Self {
        let cost: Vec<Vec<f64>> = (0..num_classes)
            .map(|i| {
                (0..num_classes)
                    .map(|j| if i == j { 0.0 } else { 1.0 })
                    .collect()
            })
            .collect();
        Self::fit(x, labels, num_classes, &cost, opts)
    }

    /// Expected cost of the best single prediction for a node, plus that
    /// prediction. Gini impurity is blended in at 1e-6 weight to break ties.
    ///
    /// `counts` is read only at the classes in `present` (ascending);
    /// every other class must have count zero. Zero-count rows of the cost
    /// matrix are left out: each would add `0 · C_ij`, which for finite
    /// costs changes no column sum (at most the sign of a zero), so the
    /// result equals the full K×K sum in the same summation order. `col`
    /// is scratch, one slot per predicted class.
    fn node_cost(
        counts: &[f64],
        present: &[usize],
        cost: &[Vec<f64>],
        col: &mut [f64],
    ) -> (f64, usize) {
        col.fill(0.0);
        let mut total = 0.0;
        for &i in present {
            let n = counts[i];
            if n == 0.0 {
                continue;
            }
            total += n;
            for (c, &w) in col.iter_mut().zip(&cost[i]) {
                *c += n * w;
            }
        }
        let mut best = (f64::INFINITY, 0usize);
        for (j, &c) in col.iter().enumerate() {
            if c < best.0 {
                best = (c, j);
            }
        }
        if total > 0.0 {
            let gini: f64 = 1.0
                - present
                    .iter()
                    .map(|&i| {
                        let p = counts[i] / total;
                        p * p
                    })
                    .sum::<f64>();
            best.0 += 1e-6 * gini * total;
        }
        best
    }

    fn build(
        x: &[Vec<f64>],
        labels: &[usize],
        cost: &[Vec<f64>],
        idx: &[usize],
        depth: usize,
        opts: &TreeOptions,
        s: &mut Scratch,
    ) -> Node {
        s.counts.fill(0.0);
        for &i in idx {
            s.counts[labels[i]] += 1.0;
        }
        s.present.clear();
        s.present
            .extend((0..s.counts.len()).filter(|&c| s.counts[c] > 0.0));
        let (parent_cost, majority) = Self::node_cost(&s.counts, &s.present, cost, &mut s.col);
        if s.present.len() <= 1 || depth >= opts.max_depth || idx.len() < opts.min_split {
            return Node::Leaf { class: majority };
        }

        let num_features = x[0].len();
        // Best split so far: (cost, feature, threshold). `f` below is a
        // column index into every row of `x`, not into one slice.
        let mut best: Option<(f64, usize, f64)> = None;
        #[allow(clippy::needless_range_loop)]
        for f in 0..num_features {
            // NaN rows never satisfy `x <= t`: they stay out of the sweep
            // and are counted right (right = parent − left).
            s.pairs.clear();
            s.pairs.extend(
                idx.iter()
                    .map(|&i| (x[i][f], labels[i]))
                    .filter(|(v, _)| !v.is_nan()),
            );
            s.pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            s.values.clear();
            s.values.extend(s.pairs.iter().map(|&(v, _)| v));
            s.values.dedup();
            if s.values.len() < 2 {
                continue;
            }
            // Quantile-spaced candidate thresholds (midpoints), ascending:
            // rounding is monotone, so each threshold's left side extends
            // the previous one's and one sweep over `pairs` serves them
            // all. The one NaN midpoint (−∞ next to +∞) is the first and
            // only threshold of its column; it passes no row, as `x <= t`.
            let step = ((s.values.len() - 1) as f64 / opts.max_thresholds as f64).max(1.0);
            s.left.fill(0.0);
            let mut left_n = 0usize;
            let mut t = 0.0;
            while (t as usize) < s.values.len() - 1 {
                let v = t as usize;
                let threshold = (s.values[v] + s.values[v + 1]) / 2.0;
                t += step;

                while left_n < s.pairs.len() && s.pairs[left_n].0 <= threshold {
                    s.left[s.pairs[left_n].1] += 1.0;
                    left_n += 1;
                }
                let right_n = idx.len() - left_n;
                if left_n < opts.min_leaf || right_n < opts.min_leaf {
                    continue;
                }
                // Counts are integers in f64, so the difference is exact.
                for &c in &s.present {
                    s.right[c] = s.counts[c] - s.left[c];
                }
                let (lc, _) = Self::node_cost(&s.left, &s.present, cost, &mut s.col);
                let (rc, _) = Self::node_cost(&s.right, &s.present, cost, &mut s.col);
                let split_cost = lc + rc;
                if best.is_none_or(|(b, _, _)| split_cost < b) {
                    best = Some((split_cost, f, threshold));
                }
            }
        }

        match best {
            Some((split_cost, feature, threshold)) if split_cost < parent_cost - 1e-12 => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x[i][feature] <= threshold);
                let left = Self::build(x, labels, cost, &left_idx, depth + 1, opts, s);
                let right = Self::build(x, labels, cost, &right_idx, depth + 1, opts, s);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            _ => Node::Leaf { class: majority },
        }
    }

    /// Predicts the class of one sample.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the training dimensionality.
    pub fn predict(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.num_features, "dimension mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Compiles the tree into the array-indexed
    /// [`FlatTree`](crate::FlatTree) layout for hot-path inference;
    /// predictions are bit-identical to [`DecisionTree::predict`].
    pub fn flatten(&self) -> crate::FlatTree {
        crate::FlatTree::build(self, self.num_classes, self.num_features)
    }

    /// Root access for the flattener (layout-only consumer).
    pub(crate) fn root_for_flatten(&self) -> &Node {
        &self.root
    }

    /// Number of classes the tree was trained with.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of input features the tree expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of leaves (model-complexity diagnostic).
    pub fn num_leaves(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The direct split search: every candidate threshold re-scans the
    /// node's rows into fresh count vectors and costs both sides over all
    /// K×K cells. Test-only oracle of
    /// `sweep_search_grows_the_reference_tree`; valid for NaN-free
    /// features.
    // `j` and `f` index the columns of the cost matrix and of `x`.
    #[allow(clippy::needless_range_loop)]
    fn reference_fit(
        x: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        cost: &[Vec<f64>],
        opts: TreeOptions,
    ) -> DecisionTree {
        fn node_cost(counts: &[f64], cost: &[Vec<f64>]) -> (f64, usize) {
            let total: f64 = counts.iter().sum();
            let mut best = (f64::INFINITY, 0usize);
            for j in 0..counts.len() {
                let c: f64 = counts.iter().enumerate().map(|(i, n)| n * cost[i][j]).sum();
                if c < best.0 {
                    best = (c, j);
                }
            }
            if total > 0.0 {
                let gini: f64 = 1.0
                    - counts
                        .iter()
                        .map(|n| {
                            let p = n / total;
                            p * p
                        })
                        .sum::<f64>();
                best.0 += 1e-6 * gini * total;
            }
            best
        }

        fn build(
            x: &[Vec<f64>],
            labels: &[usize],
            num_classes: usize,
            cost: &[Vec<f64>],
            idx: &[usize],
            depth: usize,
            opts: &TreeOptions,
        ) -> Node {
            let mut counts = vec![0.0; num_classes];
            for &i in idx {
                counts[labels[i]] += 1.0;
            }
            let (parent_cost, majority) = node_cost(&counts, cost);
            let pure = counts.iter().filter(|&&c| c > 0.0).count() <= 1;
            if pure || depth >= opts.max_depth || idx.len() < opts.min_split {
                return Node::Leaf { class: majority };
            }
            let mut best: Option<(f64, usize, f64)> = None;
            for f in 0..x[0].len() {
                let mut values: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
                values.sort_by(|a, b| a.partial_cmp(b).unwrap());
                values.dedup();
                if values.len() < 2 {
                    continue;
                }
                let step = ((values.len() - 1) as f64 / opts.max_thresholds as f64).max(1.0);
                let mut t = 0.0;
                while (t as usize) < values.len() - 1 {
                    let v = t as usize;
                    let threshold = (values[v] + values[v + 1]) / 2.0;
                    t += step;
                    let mut left_counts = vec![0.0; num_classes];
                    let mut right_counts = vec![0.0; num_classes];
                    let mut left_n = 0usize;
                    for &i in idx {
                        if x[i][f] <= threshold {
                            left_counts[labels[i]] += 1.0;
                            left_n += 1;
                        } else {
                            right_counts[labels[i]] += 1.0;
                        }
                    }
                    let right_n = idx.len() - left_n;
                    if left_n < opts.min_leaf || right_n < opts.min_leaf {
                        continue;
                    }
                    let split_cost =
                        node_cost(&left_counts, cost).0 + node_cost(&right_counts, cost).0;
                    if best.is_none_or(|(b, _, _)| split_cost < b) {
                        best = Some((split_cost, f, threshold));
                    }
                }
            }
            match best {
                Some((split_cost, feature, threshold)) if split_cost < parent_cost - 1e-12 => {
                    let (l, r): (Vec<usize>, Vec<usize>) =
                        idx.iter().partition(|&&i| x[i][feature] <= threshold);
                    Node::Split {
                        feature,
                        threshold,
                        left: Box::new(build(x, labels, num_classes, cost, &l, depth + 1, opts)),
                        right: Box::new(build(x, labels, num_classes, cost, &r, depth + 1, opts)),
                    }
                }
                _ => Node::Leaf { class: majority },
            }
        }

        let idx: Vec<usize> = (0..x.len()).collect();
        DecisionTree {
            root: build(x, labels, num_classes, cost, &idx, 0, &opts),
            num_classes,
            num_features: x[0].len(),
        }
    }

    /// A random NaN-free training problem built to hit the split search's
    /// edge cases: features drawn from a small value pool (heavy ties),
    /// duplicated rows, adjacent floats, signed zeros, ±∞, midpoints that
    /// overflow, labels over a random subset of the `k` classes (the rest
    /// are empty), and 0/1, integer (tied) or real cost matrices with
    /// all-zero rows.
    fn random_problem(
        rng: &mut StdRng,
        n: usize,
        d: usize,
        k: usize,
    ) -> (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>) {
        let a: f64 = rng.gen_range(-4.0..4.0);
        let special = [
            a,
            a.next_up(),
            a.next_up().next_up(),
            a.next_down(),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            -5e-324,
            1.0,
            -1.0,
        ];
        let pool: Vec<f64> = (0..rng.gen_range(1..24))
            .map(|_| match rng.gen_range(0..3) {
                0 => special[rng.gen_range(0..special.len())],
                1 => rng.gen_range(-3i32..4) as f64,
                _ => rng.gen_range(-100.0..100.0),
            })
            .collect();
        let mut x: Vec<Vec<f64>> = Vec::with_capacity(n);
        for _ in 0..n {
            if !x.is_empty() && rng.gen_bool(0.2) {
                let dup = x[rng.gen_range(0..x.len())].clone();
                x.push(dup);
            } else {
                x.push((0..d).map(|_| pool[rng.gen_range(0..pool.len())]).collect());
            }
        }
        let used: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.6)).collect();
        let labels: Vec<usize> = (0..n)
            .map(|_| match used.len() {
                0 => rng.gen_range(0..k),
                m => used[rng.gen_range(0..m)],
            })
            .collect();
        let kind = rng.gen_range(0..3);
        let cost: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                let zero_row = kind != 0 && rng.gen_bool(0.2);
                (0..k)
                    .map(|j| match kind {
                        _ if i == j || zero_row => 0.0,
                        0 => 1.0,
                        1 => rng.gen_range(0..4) as f64,
                        _ => rng.gen_range(0.0..10.0),
                    })
                    .collect()
            })
            .collect();
        (x, labels, cost)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sort-and-sweep search grows exactly the tree the per-threshold
        /// re-scan grew, for every shape and option the search branches on.
        #[test]
        fn sweep_search_grows_the_reference_tree(
            shape in (1usize..61, 1usize..5, 1usize..13),
            max_depth in 0usize..13,
            min_split in 0usize..9,
            min_leaf in 0usize..4,
            max_thresholds in 1usize..41,
            seed in 0u64..u64::MAX,
        ) {
            let (n, d, k) = shape;
            let mut rng = StdRng::seed_from_u64(seed);
            let (x, labels, cost) = random_problem(&mut rng, n, d, k);
            let opts = TreeOptions { max_depth, min_split, min_leaf, max_thresholds };
            let tree = DecisionTree::fit(&x, &labels, k, &cost, opts);
            prop_assert_eq!(tree, reference_fit(&x, &labels, k, &cost, opts));
        }
    }

    #[test]
    fn nan_features_train_and_route_right() {
        // Feature 0 separates the classes at 9.5 and is NaN on four
        // class-1 rows; feature 1 is all NaN; feature 2 is NaN on every
        // other row and holds −∞/+∞ (a NaN midpoint) on the rest.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..24 {
            let v = if i >= 20 { f64::NAN } else { i as f64 };
            let inf = match i % 4 {
                0 => f64::NEG_INFINITY,
                2 => f64::INFINITY,
                _ => f64::NAN,
            };
            x.push(vec![v, f64::NAN, inf]);
            y.push(usize::from(i >= 10));
        }
        let t = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default());
        match &t.root {
            Node::Split {
                feature, threshold, ..
            } => {
                assert_eq!(*feature, 0);
                assert_eq!(*threshold, 9.5);
            }
            leaf => panic!("expected a split, got {leaf:?}"),
        }
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(t.predict(row), label);
        }
        assert_eq!(t.predict(&[f64::NAN, f64::NAN, f64::NAN]), 1);
        assert_eq!(t.predict(&[3.0, f64::NAN, f64::NAN]), 0);
    }

    /// Two clearly separable classes on feature 0.
    fn separable() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64;
            x.push(vec![v, (i % 7) as f64]);
            y.push(if v < 20.0 { 0 } else { 1 });
        }
        (x, y)
    }

    #[test]
    fn learns_separable_data_perfectly() {
        let (x, y) = separable();
        let t = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default());
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(t.predict(row), label);
        }
        assert!(t.depth() >= 1);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let t = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default());
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn max_depth_zero_gives_majority_stump() {
        let (x, y) = separable();
        let t = DecisionTree::fit_plain(
            &x,
            &y,
            2,
            TreeOptions {
                max_depth: 0,
                ..TreeOptions::default()
            },
        );
        assert_eq!(t.num_leaves(), 1);
    }

    #[test]
    fn cost_matrix_biases_leaf_prediction() {
        // 70% class 0, 30% class 1 — but predicting 0 on a true 1 is 10x
        // worse than the reverse, so the cost-optimal stump predicts 1.
        let x: Vec<Vec<f64>> = (0..10).map(|_| vec![0.0]).collect();
        let y = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1];
        let cost = vec![vec![0.0, 1.0], vec![10.0, 0.0]];
        let t = DecisionTree::fit(
            &x,
            &y,
            2,
            &cost,
            TreeOptions {
                max_depth: 0,
                ..TreeOptions::default()
            },
        );
        assert_eq!(t.predict(&[0.0]), 1);
    }

    #[test]
    fn irrelevant_feature_ignored() {
        // Feature 1 is constant; the split must be on feature 0.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 5.0]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let t = DecisionTree::fit_plain(&x, &y, 2, TreeOptions::default());
        assert_eq!(t.predict(&[3.0, 5.0]), 0);
        assert_eq!(t.predict(&[15.0, 5.0]), 1);
    }

    #[test]
    fn multiclass_checkerboard() {
        // Four quadrants, four classes.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                x.push(vec![i as f64, j as f64]);
                y.push(usize::from(i >= 6) * 2 + usize::from(j >= 6));
            }
        }
        let t = DecisionTree::fit_plain(&x, &y, 4, TreeOptions::default());
        let errors = x
            .iter()
            .zip(&y)
            .filter(|(row, &l)| t.predict(row) != l)
            .count();
        assert_eq!(errors, 0);
        assert!(t.num_leaves() >= 4);
    }

    #[test]
    fn min_leaf_respected() {
        let (x, y) = separable();
        let t = DecisionTree::fit_plain(
            &x,
            &y,
            2,
            TreeOptions {
                min_leaf: 40, // cannot split without starving a side
                ..TreeOptions::default()
            },
        );
        assert_eq!(t.num_leaves(), 1);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = DecisionTree::fit_plain(&[vec![0.0]], &[5], 2, TreeOptions::default());
    }
}
