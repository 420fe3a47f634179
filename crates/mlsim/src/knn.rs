//! A second teacher family: k-nearest-neighbour classification, behind
//! the [`Classifier`] trait.
//!
//! The consensus protocol is agnostic to how teachers form their votes;
//! the trait makes that explicit, and k-NN provides a hyperparameter-free
//! sanity teacher — useful for checking that pipeline effects (retention,
//! consensus rates) are properties of the *vote distribution*, not of the
//! SGD training loop.

use crate::dataset::Dataset;
use crate::model::SoftmaxRegression;

/// Anything that can vote on an instance.
///
/// Implemented by [`SoftmaxRegression`] and [`KnnClassifier`]; ensemble
/// helpers that only need votes can take `&dyn Classifier` or generics
/// over this trait.
pub trait Classifier {
    /// Number of classes the classifier votes over.
    fn num_classes(&self) -> usize;

    /// Class-probability vector for one instance.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Hard prediction: the argmax class (first max wins).
    fn predict(&self, x: &[f64]) -> usize {
        let probs = self.predict_proba(x);
        let mut best = 0;
        for (i, &p) in probs.iter().enumerate() {
            if p > probs[best] {
                best = i;
            }
        }
        best
    }

    /// One-hot vote vector.
    fn predict_onehot(&self, x: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; self.num_classes()];
        v[self.predict(x)] = 1.0;
        v
    }

    /// Accuracy on a labeled dataset (0 for an empty one).
    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct =
            data.features.iter().zip(&data.labels).filter(|(x, &y)| self.predict(x) == y).count();
        correct as f64 / data.len() as f64
    }
}

impl Classifier for SoftmaxRegression {
    fn num_classes(&self) -> usize {
        SoftmaxRegression::num_classes(self)
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        SoftmaxRegression::predict_proba(self, x)
    }

    fn predict(&self, x: &[f64]) -> usize {
        SoftmaxRegression::predict(self, x)
    }
}

/// A k-nearest-neighbour classifier over the training shard (L2 metric).
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl KnnClassifier {
    /// Stores the training shard; `k` is clamped to the shard size.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `k == 0`.
    pub fn fit(data: &Dataset, k: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit k-NN on an empty dataset");
        assert!(k > 0, "k must be positive");
        KnnClassifier {
            k: k.min(data.len()),
            features: data.features.clone(),
            labels: data.labels.clone(),
            num_classes: data.num_classes,
        }
    }

    /// The (clamped) neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Indices of the `k` nearest training points to `x`.
    fn neighbours(&self, x: &[f64]) -> Vec<usize> {
        let mut dists: Vec<(f64, usize)> = self
            .features
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d: f64 = p.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, i)
            })
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        dists.into_iter().take(self.k).map(|(_, i)| i).collect()
    }
}

impl Classifier for KnnClassifier {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0; self.num_classes];
        for i in self.neighbours(x) {
            votes[self.labels[i]] += 1.0;
        }
        let total: f64 = votes.iter().sum();
        if total > 0.0 {
            for v in votes.iter_mut() {
                *v /= total;
            }
        }
        votes
    }
}

/// An ensemble of arbitrary classifiers — the trait-generic counterpart
/// of [`crate::teacher::TeacherEnsemble`], for workloads that mix
/// families.
#[derive(Debug, Clone)]
pub struct GenericEnsemble<C> {
    teachers: Vec<C>,
}

impl<C: Classifier> GenericEnsemble<C> {
    /// Wraps trained classifiers.
    pub fn new(teachers: Vec<C>) -> Self {
        GenericEnsemble { teachers }
    }

    /// Number of teachers.
    pub fn len(&self) -> usize {
        self.teachers.len()
    }

    /// Whether the ensemble is empty.
    pub fn is_empty(&self) -> bool {
        self.teachers.is_empty()
    }

    /// Borrow the teachers.
    pub fn teachers(&self) -> &[C] {
        &self.teachers
    }

    /// One-hot votes from every teacher.
    pub fn votes_onehot(&self, x: &[f64]) -> Vec<Vec<f64>> {
        self.teachers.iter().map(|t| t.predict_onehot(x)).collect()
    }

    /// Plain vote counts.
    pub fn vote_counts(&self, x: &[f64]) -> Vec<f64> {
        let k = self.teachers.first().map_or(0, |t| t.num_classes());
        let mut counts = vec![0.0; k];
        for t in &self.teachers {
            counts[t.predict(x)] += 1.0;
        }
        counts
    }

    /// Mean accuracy across teachers.
    pub fn mean_accuracy(&self, test: &Dataset) -> f64 {
        if self.teachers.is_empty() {
            return 0.0;
        }
        self.teachers.iter().map(|t| t.accuracy(test)).sum::<f64>() / self.teachers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainConfig;
    use crate::partition::even_split;
    use crate::synthetic::GaussianMixtureSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data(seed: u64) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = GaussianMixtureSpec::mnist_like();
        (spec.generate(600, &mut rng), spec.generate(200, &mut rng))
    }

    #[test]
    fn knn_learns_the_mixture() {
        let (train, test) = data(1);
        let knn = KnnClassifier::fit(&train, 5);
        assert!(Classifier::accuracy(&knn, &test) > 0.85, "k-NN on easy mixture");
        assert_eq!(knn.k(), 5);
    }

    #[test]
    fn proba_is_a_distribution() {
        let (train, test) = data(2);
        let knn = KnnClassifier::fit(&train, 7);
        for x in test.features.iter().take(10) {
            let p = knn.predict_proba(x);
            assert_eq!(p.len(), 10);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn k_clamps_to_shard_size() {
        let (train, _) = data(3);
        let tiny = train.subset(&[0, 1, 2]);
        let knn = KnnClassifier::fit(&tiny, 50);
        assert_eq!(knn.k(), 3);
    }

    #[test]
    fn one_nearest_neighbour_memorizes_training_points() {
        let (train, _) = data(4);
        let knn = KnnClassifier::fit(&train, 1);
        for i in (0..train.len()).step_by(37) {
            assert_eq!(knn.predict(&train.features[i]), train.labels[i]);
        }
    }

    #[test]
    fn trait_objects_vote_interchangeably() {
        let (train, test) = data(5);
        let mut rng = StdRng::seed_from_u64(6);
        let softmax = SoftmaxRegression::train(&train, &TrainConfig::default(), &mut rng);
        let knn = KnnClassifier::fit(&train, 5);
        let teachers: Vec<Box<dyn Classifier>> = vec![Box::new(softmax), Box::new(knn)];
        for t in &teachers {
            assert_eq!(t.num_classes(), 10);
            let onehot = t.predict_onehot(&test.features[0]);
            assert_eq!(onehot.iter().sum::<f64>(), 1.0);
            assert!(t.accuracy(&test) > 0.7);
        }
    }

    #[test]
    fn generic_ensemble_counts_knn_votes() {
        let (train, test) = data(7);
        let mut rng = StdRng::seed_from_u64(8);
        let partition = even_split(train.len(), 4, &mut rng);
        let teachers: Vec<KnnClassifier> =
            (0..4).map(|u| KnnClassifier::fit(&partition.shard(&train, u), 3)).collect();
        let ensemble = GenericEnsemble::new(teachers);
        assert_eq!(ensemble.len(), 4);
        let counts = ensemble.vote_counts(&test.features[0]);
        assert_eq!(counts.iter().sum::<f64>(), 4.0);
        assert!(ensemble.mean_accuracy(&test) > 0.6);
        let votes = ensemble.votes_onehot(&test.features[0]);
        assert!(votes.iter().all(|v| v.iter().sum::<f64>() == 1.0));
    }

    #[test]
    fn knn_and_softmax_vote_distributions_are_comparable() {
        // The pipeline property the trait exists for: either family's
        // votes feed the consensus machinery identically.
        let (train, test) = data(9);
        let mut rng = StdRng::seed_from_u64(10);
        let partition = even_split(train.len(), 6, &mut rng);
        let knn_teachers: Vec<KnnClassifier> =
            (0..6).map(|u| KnnClassifier::fit(&partition.shard(&train, u), 3)).collect();
        let sgd_teachers: Vec<SoftmaxRegression> = (0..6)
            .map(|u| {
                SoftmaxRegression::train(
                    &partition.shard(&train, u),
                    &TrainConfig::default(),
                    &mut rng,
                )
            })
            .collect();
        let knn_ens = GenericEnsemble::new(knn_teachers);
        let sgd_ens = GenericEnsemble::new(sgd_teachers);
        // Both ensembles give the plurality to the true label on a clear
        // majority of test points.
        let plurality_acc = |counts_fn: &dyn Fn(&[f64]) -> Vec<f64>| {
            let mut correct = 0;
            for (x, &y) in test.features.iter().zip(&test.labels) {
                let counts = counts_fn(x);
                let mut best = 0;
                for (i, &c) in counts.iter().enumerate() {
                    if c > counts[best] {
                        best = i;
                    }
                }
                if best == y {
                    correct += 1;
                }
            }
            correct as f64 / test.len() as f64
        };
        let knn_acc = plurality_acc(&|x| knn_ens.vote_counts(x));
        let sgd_acc = plurality_acc(&|x| sgd_ens.vote_counts(x));
        assert!(knn_acc > 0.8, "k-NN plurality {knn_acc}");
        assert!(sgd_acc > 0.8, "softmax plurality {sgd_acc}");
    }
}
