//! Seeded stratified k-fold cross-validation.
//!
//! The paper evaluates every classifier with 3-fold cross-validation
//! ("two folds were used for training and the third for testing", §6.3.1)
//! and reports per-fold stability via confidence intervals. Stratification
//! keeps the 12/88 class ratio in every fold, which matters with only 167
//! legitimate examples.

use crate::metrics::{ConfidenceInterval, EvalSummary};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Produces `k` stratified folds: each inner `Vec` holds the *test*
/// indices of one fold. Every index appears in exactly one fold, and each
/// fold approximates the global class ratio.
///
/// # Panics
/// Panics if `k < 2` or `k > labels.len()`.
pub fn stratified_folds(labels: &[bool], k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(k <= labels.len(), "more folds than instances");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let mut neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut folds = vec![Vec::new(); k];
    for (pos_in_class, &i) in pos.iter().chain(neg.iter()).enumerate() {
        folds[pos_in_class % k].push(i);
    }
    for fold in &mut folds {
        fold.sort_unstable();
    }
    folds
}

/// A reusable stratified k-fold split: per-fold test indices *and* their
/// precomputed training complements.
///
/// [`stratified_folds`] returns only the test side; every consumer then
/// rebuilt the training side with an `O(n · k)` membership scan per fold.
/// `FoldSplit` does that complement computation once, so the split can be
/// shared as a cached artifact across every pipeline that uses the same
/// `(labels, k, seed)` — the fold assignment is the backbone of the whole
/// evaluation and must be bit-identical everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldSplit {
    test: Vec<Vec<usize>>,
    train: Vec<Vec<usize>>,
}

impl FoldSplit {
    /// Builds the stratified split (see [`stratified_folds`]) and its
    /// training complements. Both sides are in ascending index order.
    ///
    /// # Panics
    /// Panics if `k < 2` or `k > labels.len()` (via [`stratified_folds`]).
    pub fn stratified(labels: &[bool], k: usize, seed: u64) -> FoldSplit {
        let test = stratified_folds(labels, k, seed);
        let n = labels.len();
        let train = test
            .iter()
            .map(|fold| {
                let mut in_test = vec![false; n];
                for &i in fold {
                    in_test[i] = true;
                }
                (0..n).filter(|&i| !in_test[i]).collect()
            })
            .collect();
        FoldSplit { test, train }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.test.len()
    }

    /// Test indices of fold `f`, ascending.
    pub fn test(&self, f: usize) -> &[usize] {
        &self.test[f]
    }

    /// Training indices of fold `f` (the complement of [`FoldSplit::test`]),
    /// ascending.
    pub fn train(&self, f: usize) -> &[usize] {
        &self.train[f]
    }

    /// All test folds, in fold order.
    pub fn test_folds(&self) -> &[Vec<usize>] {
        &self.test
    }

    /// Iterates `(fold, train indices, test indices)` in fold order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize], &[usize])> {
        self.train
            .iter()
            .zip(&self.test)
            .enumerate()
            .map(|(f, (train, test))| (f, train.as_slice(), test.as_slice()))
    }
}

/// The measurements of one cross-validation fold.
#[derive(Debug, Clone)]
pub struct FoldOutcome {
    /// All summary measures on this fold's test instances.
    pub summary: EvalSummary,
    /// Positive-class scores of the test instances, in test-index order.
    pub scores: Vec<f64>,
    /// True labels of the test instances, in test-index order.
    pub labels: Vec<bool>,
}

/// Aggregated cross-validation results.
#[derive(Debug, Clone)]
pub struct CvOutcome {
    /// Per-fold measurements.
    pub folds: Vec<FoldOutcome>,
}

impl CvOutcome {
    /// The mean of every measure across folds — how the paper's tables
    /// report each configuration.
    pub fn aggregate(&self) -> EvalSummary {
        let n = self.folds.len().max(1) as f64;
        let mut agg = EvalSummary::default();
        for f in &self.folds {
            agg.accuracy += f.summary.accuracy / n;
            agg.auc += f.summary.auc / n;
            agg.legitimate.precision += f.summary.legitimate.precision / n;
            agg.legitimate.recall += f.summary.legitimate.recall / n;
            agg.legitimate.f1 += f.summary.legitimate.f1 / n;
            agg.illegitimate.precision += f.summary.illegitimate.precision / n;
            agg.illegitimate.recall += f.summary.illegitimate.recall / n;
            agg.illegitimate.f1 += f.summary.illegitimate.f1 / n;
        }
        agg
    }

    /// 95% confidence interval of fold accuracy (§6.3's stability check).
    pub fn accuracy_interval(&self) -> Option<ConfidenceInterval> {
        let samples: Vec<f64> = self.folds.iter().map(|f| f.summary.accuracy).collect();
        ConfidenceInterval::from_samples(&samples)
    }

    /// All test scores and labels pooled across folds (every instance of
    /// the dataset appears exactly once) — the input to ranking metrics.
    pub fn pooled(&self) -> (Vec<f64>, Vec<bool>) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for f in &self.folds {
            scores.extend_from_slice(&f.scores);
            labels.extend_from_slice(&f.labels);
        }
        (scores, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n_pos: usize, n_neg: usize) -> Vec<bool> {
        (0..n_pos + n_neg).map(|i| i < n_pos).collect()
    }

    #[test]
    fn folds_partition_all_indices() {
        let y = labels(12, 88);
        let folds = stratified_folds(&y, 3, 1);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn folds_are_stratified() {
        let y = labels(12, 88);
        for fold in stratified_folds(&y, 3, 1) {
            let pos = fold.iter().filter(|&&i| y[i]).count();
            assert!((3..=5).contains(&pos), "fold has {pos} positives");
        }
    }

    #[test]
    fn folds_deterministic_per_seed() {
        let y = labels(10, 20);
        assert_eq!(stratified_folds(&y, 3, 7), stratified_folds(&y, 3, 7));
        assert_ne!(stratified_folds(&y, 3, 7), stratified_folds(&y, 3, 8));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_fold_panics() {
        stratified_folds(&labels(2, 2), 1, 0);
    }

    #[test]
    fn fold_split_matches_stratified_folds() {
        let y = labels(12, 88);
        let split = FoldSplit::stratified(&y, 3, 7);
        assert_eq!(split.test_folds(), &stratified_folds(&y, 3, 7)[..]);
        assert_eq!(split.k(), 3);
    }

    #[test]
    fn fold_split_train_is_the_sorted_complement() {
        let y = labels(10, 20);
        let split = FoldSplit::stratified(&y, 3, 1);
        for (f, train, test) in split.iter() {
            let rebuilt: Vec<usize> = (0..y.len()).filter(|i| !test.contains(i)).collect();
            assert_eq!(train, &rebuilt[..], "fold {f}");
            assert!(train.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(train.len() + test.len(), y.len());
        }
    }

    #[test]
    fn outcome_aggregates_fold_means() {
        let fold = |accuracy: f64| FoldOutcome {
            summary: EvalSummary {
                accuracy,
                auc: 0.5,
                ..EvalSummary::default()
            },
            scores: vec![accuracy],
            labels: vec![accuracy > 0.85],
        };
        let outcome = CvOutcome {
            folds: vec![fold(0.8), fold(0.9), fold(1.0)],
        };
        let agg = outcome.aggregate();
        assert!((agg.accuracy - 0.9).abs() < 1e-12, "{}", agg.accuracy);
        assert!((agg.auc - 0.5).abs() < 1e-12);
        let ci = outcome.accuracy_interval().unwrap();
        assert!((ci.mean - 0.9).abs() < 1e-12);
        assert!(ci.half_width > 0.0);
        assert_eq!(
            outcome.pooled(),
            (vec![0.8, 0.9, 1.0], vec![false, true, true])
        );
    }
}
