//! Linear models trained by SGD: softmax regression for single-label
//! classification and a one-vs-all logistic bank for the multi-label
//! (CelebA-like) family.

use rand::Rng;

use crate::dataset::{Dataset, MultiLabelDataset};

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the data.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 30, learning_rate: 0.08, l2: 1e-4 }
    }
}

/// Multinomial logistic regression (`K` classes, dense weights + bias).
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxRegression {
    /// `weights[k]` is class `k`'s weight vector.
    weights: Vec<Vec<f64>>,
    /// Per-class bias.
    bias: Vec<f64>,
}

/// Numerically stable softmax.
fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

fn shuffled<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

impl SoftmaxRegression {
    /// Trains on `data` with plain SGD over shuffled epochs.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train<R: Rng + ?Sized>(data: &Dataset, config: &TrainConfig, rng: &mut R) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let k = data.num_classes;
        let d = data.dim();
        let mut model = SoftmaxRegression { weights: vec![vec![0.0; d]; k], bias: vec![0.0; k] };
        for _ in 0..config.epochs {
            for &i in &shuffled(data.len(), rng) {
                model.sgd_step(&data.features[i], data.labels[i], config);
            }
        }
        model
    }

    fn sgd_step(&mut self, x: &[f64], label: usize, config: &TrainConfig) {
        let probs = self.predict_proba(x);
        for (k, p) in probs.iter().enumerate() {
            let grad = p - if k == label { 1.0 } else { 0.0 };
            let w = &mut self.weights[k];
            for (wj, &xj) in w.iter_mut().zip(x) {
                *wj -= config.learning_rate * (grad * xj + config.l2 * *wj);
            }
            self.bias[k] -= config.learning_rate * grad;
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// Class-probability vector for one instance (softmax output).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let logits: Vec<f64> = self
            .weights
            .iter()
            .zip(&self.bias)
            .map(|(w, &b)| {
                assert_eq!(w.len(), x.len(), "feature dimensionality mismatch");
                w.iter().zip(x).map(|(wj, xj)| wj * xj).sum::<f64>() + b
            })
            .collect();
        softmax(&logits)
    }

    /// Hard prediction: the argmax class.
    pub fn predict(&self, x: &[f64]) -> usize {
        let probs = self.predict_proba(x);
        let mut best = 0;
        for (i, &p) in probs.iter().enumerate() {
            if p > probs[best] {
                best = i;
            }
        }
        best
    }

    /// One-hot vote vector for one instance.
    pub fn predict_onehot(&self, x: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; self.num_classes()];
        v[self.predict(x)] = 1.0;
        v
    }

    /// Accuracy on a labeled dataset (0 for an empty one).
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct =
            data.features.iter().zip(&data.labels).filter(|(x, &y)| self.predict(x) == y).count();
        correct as f64 / data.len() as f64
    }
}

/// A bank of independent binary logistic regressions — one per attribute
/// of a multi-label dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticBank {
    weights: Vec<Vec<f64>>,
    bias: Vec<f64>,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticBank {
    /// Trains one logistic head per attribute with SGD.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train<R: Rng + ?Sized>(
        data: &MultiLabelDataset,
        config: &TrainConfig,
        rng: &mut R,
    ) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let m = data.num_attributes;
        let d = data.dim();
        let mut bank = LogisticBank { weights: vec![vec![0.0; d]; m], bias: vec![0.0; m] };
        for _ in 0..config.epochs {
            for &i in &shuffled(data.len(), rng) {
                let x = &data.features[i];
                for (j, &target) in data.attributes[i].iter().enumerate() {
                    let z = bank.weights[j].iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
                        + bank.bias[j];
                    let grad = sigmoid(z) - target as u8 as f64;
                    let w = &mut bank.weights[j];
                    for (wj, &xj) in w.iter_mut().zip(x) {
                        *wj -= config.learning_rate * (grad * xj + config.l2 * *wj);
                    }
                    bank.bias[j] -= config.learning_rate * grad;
                }
            }
        }
        bank
    }

    /// Number of attribute heads.
    pub fn num_attributes(&self) -> usize {
        self.weights.len()
    }

    /// Per-attribute positive probabilities for one instance.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.bias)
            .map(|(w, &b)| {
                assert_eq!(w.len(), x.len(), "feature dimensionality mismatch");
                sigmoid(w.iter().zip(x).map(|(wj, xj)| wj * xj).sum::<f64>() + b)
            })
            .collect()
    }

    /// Hard attribute predictions at threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> Vec<bool> {
        self.predict_proba(x).iter().map(|&p| p >= 0.5).collect()
    }

    /// Mean per-attribute accuracy on a dataset (0 for an empty one).
    pub fn accuracy(&self, data: &MultiLabelDataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for (x, attrs) in data.features.iter().zip(&data.attributes) {
            let pred = self.predict(x);
            correct += pred.iter().zip(attrs).filter(|(p, a)| p == a).count();
        }
        correct as f64 / (data.len() * data.num_attributes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{GaussianMixtureSpec, SparseAttributeSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability under large logits.
        let q = softmax(&[1000.0, 1000.0]);
        assert!((q[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn learns_separable_mixture() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = GaussianMixtureSpec::mnist_like();
        let train = spec.generate(1500, &mut rng);
        let test = spec.generate(500, &mut rng);
        let model = SoftmaxRegression::train(&train, &TrainConfig::default(), &mut rng);
        let acc = model.accuracy(&test);
        assert!(acc > 0.85, "mnist-like accuracy {acc}");
    }

    #[test]
    fn accuracy_grows_with_data() {
        // The learning-curve property every figure relies on.
        let mut rng = StdRng::seed_from_u64(2);
        let spec = GaussianMixtureSpec::svhn_like();
        let test = spec.generate(800, &mut rng);
        let small = spec.generate(30, &mut rng);
        let large = spec.generate(2000, &mut rng);
        let acc_small =
            SoftmaxRegression::train(&small, &TrainConfig::default(), &mut rng).accuracy(&test);
        let acc_large =
            SoftmaxRegression::train(&large, &TrainConfig::default(), &mut rng).accuracy(&test);
        assert!(
            acc_large > acc_small + 0.05,
            "learning curve: small {acc_small}, large {acc_large}"
        );
    }

    #[test]
    fn onehot_matches_argmax_of_proba() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = GaussianMixtureSpec::mnist_like();
        let data = spec.generate(200, &mut rng);
        let model = SoftmaxRegression::train(&data, &TrainConfig::default(), &mut rng);
        for x in data.features.iter().take(20) {
            let onehot = model.predict_onehot(x);
            assert_eq!(onehot.iter().sum::<f64>(), 1.0);
            assert_eq!(onehot.iter().position(|&v| v == 1.0).unwrap(), model.predict(x));
        }
    }

    #[test]
    fn logistic_bank_beats_majority_baseline() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = SparseAttributeSpec::celeba_like();
        let train = spec.generate(1500, &mut rng);
        let test = spec.generate(500, &mut rng);
        let bank = LogisticBank::train(&train, &TrainConfig::default(), &mut rng);
        let acc = bank.accuracy(&test);
        // Majority (all-negative) baseline sits at 1 − positive_rate ≈ 0.85.
        let majority = 1.0 - test.positive_rate();
        assert!(acc > majority + 0.02, "bank {acc} vs majority {majority}");
    }

    #[test]
    fn proba_vectors_have_model_arity() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = GaussianMixtureSpec::mnist_like().generate(100, &mut rng);
        let model = SoftmaxRegression::train(&data, &TrainConfig::default(), &mut rng);
        assert_eq!(model.num_classes(), 10);
        assert_eq!(model.predict_proba(&data.features[0]).len(), 10);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_panics() {
        let empty = Dataset::new(vec![], vec![], 3);
        let _ = SoftmaxRegression::train(
            &empty,
            &TrainConfig::default(),
            &mut StdRng::seed_from_u64(0),
        );
    }
}
