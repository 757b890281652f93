//! From-scratch random-forest regression (CART + bagging).
//!
//! The paper trains "a lightweight random forest model which predicts the
//! execution time of a given batch" (§3.6.1) on profiles collected through
//! Vidur's harness. This module implements that learner from first
//! principles: variance-reduction CART trees grown on bootstrap resamples
//! with per-split feature subsampling, averaged at prediction time.
//!
//! The implementation is generic over feature dimension at runtime (rows
//! are `&[f64]` slices) so it can be reused beyond the 4-feature batch
//! profile.

use qoserve_sim::{Rng, SliceRandom};

/// Number of trees in the ensemble.
pub(crate) const NUM_TREES: usize = 24;
/// Maximum tree depth.
pub(crate) const MAX_DEPTH: usize = 12;
/// Minimum samples a leaf may hold.
pub(crate) const MIN_LEAF: usize = 4;
/// Number of candidate thresholds per feature per split. Every split
/// tries every feature (in a shuffled order).
pub(crate) const THRESHOLDS_PER_FEATURE: usize = 16;

/// A trained random-forest regressor.
///
/// # Example
///
/// ```
/// use qoserve_perf::RandomForest;
/// use qoserve_sim::SeedStream;
///
/// // y = 3x (one feature); the forest should interpolate well in-range.
/// let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0]).collect();
/// let mut rng = SeedStream::new(1).derive("forest");
/// let forest = RandomForest::fit(&xs, &ys, &mut rng).unwrap();
/// let pred = forest.predict(&[100.0]);
/// assert!((pred - 300.0).abs() < 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<Tree>,
    num_features: usize,
}

/// Errors from forest training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// No training rows were supplied.
    EmptyTrainingSet,
    /// Rows have inconsistent feature counts, or labels don't match rows.
    ShapeMismatch {
        /// What was expected.
        expected: usize,
        /// What was found.
        found: usize,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::EmptyTrainingSet => write!(f, "training set is empty"),
            FitError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// One CART regression tree stored as a flat node array.
#[derive(Debug, Clone, PartialEq)]
struct Tree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Internal split: go left when `features[feature] <= threshold`.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Terminal node predicting the mean of its training labels.
    Leaf { value: f64 },
}

impl Tree {
    fn predict(&self, features: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn depth_from(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => {
                1 + self.depth_from(*left).max(self.depth_from(*right))
            }
        }
    }
}

impl RandomForest {
    /// Trains a forest of 24 trees on `rows` (each a feature slice)
    /// against `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyTrainingSet`] when `rows` is empty and
    /// [`FitError::ShapeMismatch`] when row lengths differ from each other
    /// or `labels.len() != rows.len()`.
    pub fn fit<R: Rng + ?Sized, Row: AsRef<[f64]>>(
        rows: &[Row],
        labels: &[f64],
        rng: &mut R,
    ) -> Result<RandomForest, FitError> {
        if rows.is_empty() {
            return Err(FitError::EmptyTrainingSet);
        }
        if labels.len() != rows.len() {
            return Err(FitError::ShapeMismatch {
                expected: rows.len(),
                found: labels.len(),
            });
        }
        let num_features = rows[0].as_ref().len();
        for row in rows {
            if row.as_ref().len() != num_features {
                return Err(FitError::ShapeMismatch {
                    expected: num_features,
                    found: row.as_ref().len(),
                });
            }
        }

        let mut trees = Vec::with_capacity(NUM_TREES);
        for _ in 0..NUM_TREES {
            // Bootstrap resample.
            let indices: Vec<usize> = (0..rows.len())
                .map(|_| rng.gen_range(0..rows.len()))
                .collect();
            let mut builder = TreeBuilder {
                rows,
                labels,
                num_features,
                nodes: Vec::new(),
            };
            builder.grow(indices, 0, rng);
            trees.push(Tree {
                nodes: builder.nodes,
            });
        }

        Ok(RandomForest {
            trees,
            num_features,
        })
    }

    /// Ensemble prediction: mean of all trees.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature count.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.num_features,
            "feature count mismatch: trained on {}, got {}",
            self.num_features,
            features.len()
        );
        let sum: f64 = self.trees.iter().map(|t| t.predict(features)).sum();
        sum / self.trees.len() as f64
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Feature dimensionality the forest was trained with.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Maximum depth over all trees (diagnostic).
    pub fn max_depth(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.depth_from(0))
            .max()
            .unwrap_or(0)
    }

    /// Mean absolute percentage error on a labelled evaluation set; skips
    /// rows whose label is ~0.
    pub fn mape<Row: AsRef<[f64]>>(&self, rows: &[Row], labels: &[f64]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (row, &y) in rows.iter().zip(labels) {
            if y.abs() < 1e-9 {
                continue;
            }
            total += ((self.predict(row.as_ref()) - y) / y).abs();
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

struct TreeBuilder<'a, Row: AsRef<[f64]>> {
    rows: &'a [Row],
    labels: &'a [f64],
    num_features: usize,
    nodes: Vec<Node>,
}

impl<'a, Row: AsRef<[f64]>> TreeBuilder<'a, Row> {
    /// Grows a subtree over `indices`; returns the node index.
    fn grow<R: Rng + ?Sized>(&mut self, indices: Vec<usize>, depth: usize, rng: &mut R) -> usize {
        let mean = self.mean_label(&indices);

        if depth >= MAX_DEPTH || indices.len() < 2 * MIN_LEAF || self.is_pure(&indices) {
            return self.push(Node::Leaf { value: mean });
        }

        match self.best_split(&indices, rng) {
            None => self.push(Node::Leaf { value: mean }),
            Some((feature, threshold)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .into_iter()
                    .partition(|&i| self.rows[i].as_ref()[feature] <= threshold);
                if left_idx.len() < MIN_LEAF || right_idx.len() < MIN_LEAF {
                    return self.push(Node::Leaf { value: mean });
                }
                // Reserve the split slot before growing children so child
                // indices are known.
                let slot = self.push(Node::Leaf { value: mean });
                let left = self.grow(left_idx, depth + 1, rng);
                let right = self.grow(right_idx, depth + 1, rng);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn mean_label(&self, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        indices.iter().map(|&i| self.labels[i]).sum::<f64>() / indices.len() as f64
    }

    fn is_pure(&self, indices: &[usize]) -> bool {
        let first = self.labels[indices[0]];
        indices
            .iter()
            .all(|&i| (self.labels[i] - first).abs() < 1e-12)
    }

    /// Finds the (feature, threshold) minimizing weighted child SSE over
    /// every feature, in a shuffled order, and sampled thresholds.
    fn best_split<R: Rng + ?Sized>(&self, indices: &[usize], rng: &mut R) -> Option<(usize, f64)> {
        let mut candidate_features: Vec<usize> = (0..self.num_features).collect();
        candidate_features.shuffle(rng);

        let parent_sse = self.sse(indices);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)

        for &feature in &candidate_features {
            let mut values: Vec<f64> = indices
                .iter()
                .map(|&i| self.rows[i].as_ref()[feature])
                .collect();
            qoserve_sim::float::sort_f64(&mut values);
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            let step = (values.len() / THRESHOLDS_PER_FEATURE).max(1);
            for w in values.windows(2).step_by(step) {
                let threshold = (w[0] + w[1]) / 2.0;
                let sse = self.split_sse(indices, feature, threshold);
                if sse < best.map_or(parent_sse, |(_, _, s)| s) {
                    best = Some((feature, threshold, sse));
                }
            }
        }

        best.map(|(f, t, _)| (f, t))
    }

    fn sse(&self, indices: &[usize]) -> f64 {
        let mean = self.mean_label(indices);
        indices
            .iter()
            .map(|&i| (self.labels[i] - mean).powi(2))
            .sum()
    }

    fn split_sse(&self, indices: &[usize], feature: usize, threshold: f64) -> f64 {
        let mut left = SseAcc::default();
        let mut right = SseAcc::default();
        for &i in indices {
            if self.rows[i].as_ref()[feature] <= threshold {
                left.push(self.labels[i]);
            } else {
                right.push(self.labels[i]);
            }
        }
        left.sse() + right.sse()
    }
}

/// Single-pass SSE accumulator (Welford).
#[derive(Default)]
struct SseAcc {
    n: f64,
    mean: f64,
    m2: f64,
}

impl SseAcc {
    fn push(&mut self, x: f64) {
        self.n += 1.0;
        let d = x - self.mean;
        self.mean += d / self.n;
        self.m2 += d * (x - self.mean);
    }

    fn sse(&self) -> f64 {
        self.m2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_sim::{SeedStream, SimRng};

    fn rng() -> SimRng {
        SeedStream::new(42).derive("forest")
    }

    #[test]
    fn fit_rejects_empty() {
        let rows: Vec<Vec<f64>> = vec![];
        let err = RandomForest::fit(&rows, &[], &mut rng());
        assert_eq!(err.unwrap_err(), FitError::EmptyTrainingSet);
    }

    #[test]
    fn fit_rejects_label_mismatch() {
        let rows = vec![vec![1.0], vec![2.0]];
        let err = RandomForest::fit(&rows, &[1.0], &mut rng());
        assert!(matches!(err.unwrap_err(), FitError::ShapeMismatch { .. }));
    }

    #[test]
    fn fit_rejects_ragged_rows() {
        let rows = vec![vec![1.0], vec![2.0, 3.0]];
        let err = RandomForest::fit(&rows, &[1.0, 2.0], &mut rng());
        assert!(matches!(err.unwrap_err(), FitError::ShapeMismatch { .. }));
    }

    #[test]
    fn constant_labels_predict_constant() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let labels = vec![7.5; 50];
        let f = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        assert!((f.predict(&[25.0]) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn learns_linear_function() {
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![i as f64]).collect();
        let labels: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 10.0).collect();
        let f = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        for x in [50.0, 123.0, 250.0, 444.0] {
            let pred = f.predict(&[x]);
            let truth = 2.0 * x + 10.0;
            assert!(
                (pred - truth).abs() / truth < 0.10,
                "x={x}: predicted {pred}, truth {truth}"
            );
        }
    }

    #[test]
    fn learns_multivariate_interaction() {
        let mut r = rng();
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|_| vec![r.gen_range(0.0..10.0), r.gen_range(0.0..10.0)])
            .collect();
        let labels: Vec<f64> = rows.iter().map(|x| x[0] * x[1] + 5.0).collect();
        let f = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        let mape = f.mape(&rows, &labels);
        assert!(mape < 0.10, "in-sample MAPE should be small, got {mape}");
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let labels: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let f = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        // MAX_DEPTH splits plus the leaf level.
        assert!(
            f.max_depth() <= MAX_DEPTH + 1,
            "depth {} exceeds limit",
            f.max_depth()
        );
    }

    #[test]
    fn deterministic_given_same_rng_seed() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64, (i * 7 % 13) as f64])
            .collect();
        let labels: Vec<f64> = rows.iter().map(|r| r[0] + r[1]).collect();
        let f1 = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        let f2 = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_panics_on_wrong_arity() {
        let rows = vec![vec![1.0, 2.0]; 20];
        let labels = vec![1.0; 20];
        let f = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        let _ = f.predict(&[1.0]);
    }

    #[test]
    fn num_trees_matches_config() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![0.0, 1.0, 2.0, 3.0];
        let f = RandomForest::fit(&rows, &labels, &mut rng()).unwrap();
        assert_eq!(f.num_trees(), NUM_TREES);
        assert_eq!(f.num_features(), 1);
    }
}
