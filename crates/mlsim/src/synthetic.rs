//! Synthetic dataset generators.
//!
//! Substitutes for the paper's MNIST/SVHN/CelebA (see DESIGN.md §4). The
//! knobs that matter for the consensus experiments are the *classification
//! margin* (how fast teacher accuracy falls with shrinking shards) and,
//! for the multi-label family, *attribute sparsity* (which drives the
//! CelebA consensus-loss effect of Fig. 6).

use rand::Rng;

use crate::dataset::{Dataset, MultiLabelDataset};

/// Draws one standard normal via Box–Muller (self-contained so `mlsim`
/// does not depend on the `dp` crate).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0f64..1.0);
        let v: f64 = rng.gen_range(-1.0f64..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Spec for a Gaussian-mixture classification dataset: one isotropic
/// Gaussian cluster per class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMixtureSpec {
    /// Number of classes `K`.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Norm of each class center (larger = easier).
    pub center_scale: f64,
    /// Within-class standard deviation (larger = harder).
    pub cluster_spread: f64,
    /// Probability a training label is flipped to a random class.
    pub label_noise: f64,
    /// Seed that fixes the class centers, so independently generated
    /// train/test sets share the same geometry.
    pub center_seed: u64,
}

impl GaussianMixtureSpec {
    /// Easy-margin 10-class problem — the MNIST surrogate.
    pub fn mnist_like() -> Self {
        GaussianMixtureSpec {
            num_classes: 10,
            dim: 24,
            center_scale: 3.9,
            cluster_spread: 1.0,
            label_noise: 0.0,
            center_seed: 0x6d6e_6973, // "mnis"
        }
    }

    /// Noisy-margin 10-class problem — the SVHN surrogate (lower teacher
    /// accuracy, larger inter-teacher disagreement).
    pub fn svhn_like() -> Self {
        GaussianMixtureSpec {
            num_classes: 10,
            dim: 24,
            center_scale: 2.6,
            cluster_spread: 1.25,
            label_noise: 0.03,
            center_seed: 0x7376_686e, // "svhn"
        }
    }

    /// The fixed class centers implied by `center_seed`.
    pub fn centers(&self) -> Vec<Vec<f64>> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(self.center_seed);
        (0..self.num_classes)
            .map(|_| {
                let raw: Vec<f64> = (0..self.dim).map(|_| standard_normal(&mut rng)).collect();
                let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
                raw.iter().map(|x| x / norm * self.center_scale).collect()
            })
            .collect()
    }

    /// Generates `n` labeled instances.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero classes or dimensions.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        assert!(self.num_classes > 0 && self.dim > 0, "degenerate spec");
        let centers = self.centers();
        let mut features = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let class = rng.gen_range(0..self.num_classes);
            let x: Vec<f64> = centers[class]
                .iter()
                .map(|&c| c + self.cluster_spread * standard_normal(rng))
                .collect();
            let label = if self.label_noise > 0.0 && rng.gen_bool(self.label_noise) {
                rng.gen_range(0..self.num_classes)
            } else {
                class
            };
            features.push(x);
            labels.push(label);
        }
        Dataset::new(features, labels, self.num_classes)
    }
}

/// Spec for a sparse binary-attribute dataset — the CelebA surrogate.
///
/// Instances are generated from a latent vector; each attribute is a
/// noisy linear threshold of the latent, with the threshold placed so
/// positives are rare ([`MultiLabelDataset::positive_rate`] ≈
/// `positive_rate`). Features are a noisy linear expansion of the latent,
/// so attributes are learnable but not trivially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseAttributeSpec {
    /// Number of binary attributes.
    pub num_attributes: usize,
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Observed feature dimensionality.
    pub feature_dim: usize,
    /// Target marginal positive rate per attribute.
    pub positive_rate: f64,
    /// Observation noise on features.
    pub feature_noise: f64,
    /// Seed fixing the attribute weights and feature map.
    pub structure_seed: u64,
}

impl SparseAttributeSpec {
    /// 40 sparse attributes — the CelebA surrogate.
    pub fn celeba_like() -> Self {
        SparseAttributeSpec {
            num_attributes: 40,
            latent_dim: 12,
            feature_dim: 24,
            positive_rate: 0.15,
            feature_noise: 0.45,
            structure_seed: 0x6365_6c65, // "cele"
        }
    }

    /// The fixed attribute weight matrix and feature map.
    fn structure(&self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(self.structure_seed);
        let attr_weights: Vec<Vec<f64>> = (0..self.num_attributes)
            .map(|_| (0..self.latent_dim).map(|_| standard_normal(&mut rng)).collect())
            .collect();
        let feature_map: Vec<Vec<f64>> = (0..self.feature_dim)
            .map(|_| (0..self.latent_dim).map(|_| standard_normal(&mut rng)).collect())
            .collect();
        (attr_weights, feature_map)
    }

    /// Generates `n` instances.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec or `positive_rate` outside `(0, 1)`.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> MultiLabelDataset {
        assert!(self.num_attributes > 0 && self.latent_dim > 0 && self.feature_dim > 0);
        assert!(self.positive_rate > 0.0 && self.positive_rate < 1.0);
        let (attr_weights, feature_map) = self.structure();
        // A linear score w·z with ‖w‖²·Var(z) has std ≈ sqrt(latent_dim);
        // place the threshold at the (1−p) quantile of that Gaussian.
        let score_std = (self.latent_dim as f64).sqrt();
        let threshold = score_std * inverse_normal_cdf(1.0 - self.positive_rate);

        let mut features = Vec::with_capacity(n);
        let mut attributes = Vec::with_capacity(n);
        for _ in 0..n {
            let z: Vec<f64> = (0..self.latent_dim).map(|_| standard_normal(rng)).collect();
            let attrs: Vec<bool> = attr_weights
                .iter()
                .map(|w| w.iter().zip(&z).map(|(a, b)| a * b).sum::<f64>() > threshold)
                .collect();
            let x: Vec<f64> = feature_map
                .iter()
                .map(|row| {
                    row.iter().zip(&z).map(|(a, b)| a * b).sum::<f64>()
                        + self.feature_noise * standard_normal(rng)
                })
                .collect();
            features.push(x);
            attributes.push(attrs);
        }
        MultiLabelDataset::new(features, attributes, self.num_attributes)
    }
}

/// Acklam-style rational approximation of the standard normal inverse
/// CDF, accurate to ~1e-9 — good enough for placing sparsity thresholds.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile outside (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixture_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = GaussianMixtureSpec::mnist_like().generate(100, &mut rng);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 24);
        assert_eq!(d.num_classes, 10);
    }

    #[test]
    fn centers_are_deterministic_per_spec() {
        let a = GaussianMixtureSpec::mnist_like().centers();
        let b = GaussianMixtureSpec::mnist_like().centers();
        assert_eq!(a, b);
        let c = GaussianMixtureSpec::svhn_like().centers();
        assert_ne!(a, c, "different seeds give different geometry");
    }

    #[test]
    fn centers_have_requested_norm() {
        let spec = GaussianMixtureSpec::mnist_like();
        for c in spec.centers() {
            let norm = c.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - spec.center_scale).abs() < 1e-9);
        }
    }

    #[test]
    fn all_classes_appear() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = GaussianMixtureSpec::mnist_like().generate(2000, &mut rng);
        assert!(d.class_counts().iter().all(|&c| c > 100), "{:?}", d.class_counts());
    }

    #[test]
    fn svhn_is_harder_than_mnist() {
        // Bayes-style 1-NN-to-center accuracy must be lower for the
        // svhn-like spec.
        let rng = StdRng::seed_from_u64(3);
        let acc = |spec: GaussianMixtureSpec| {
            let d = spec.generate(2000, &mut rng.clone());
            let centers = spec.centers();
            let correct = d
                .features
                .iter()
                .zip(&d.labels)
                .filter(|(x, &l)| {
                    let nearest = centers
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            let da: f64 =
                                a.iter().zip(x.iter()).map(|(c, v)| (c - v) * (c - v)).sum();
                            let db: f64 =
                                b.iter().zip(x.iter()).map(|(c, v)| (c - v) * (c - v)).sum();
                            da.partial_cmp(&db).expect("finite")
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    nearest == l
                })
                .count();
            correct as f64 / d.len() as f64
        };
        let mnist_acc = acc(GaussianMixtureSpec::mnist_like());
        let svhn_acc = acc(GaussianMixtureSpec::svhn_like());
        assert!(mnist_acc > svhn_acc + 0.05, "mnist {mnist_acc} vs svhn {svhn_acc}");
        assert!(mnist_acc > 0.9, "mnist surrogate should be easy: {mnist_acc}");
    }

    #[test]
    fn celeba_attributes_are_sparse() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = SparseAttributeSpec::celeba_like().generate(3000, &mut rng);
        let rate = d.positive_rate();
        assert!((rate - 0.15).abs() < 0.03, "positive rate {rate}");
        assert_eq!(d.num_attributes, 40);
        assert_eq!(d.dim(), 24);
    }

    #[test]
    fn inverse_cdf_sane() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!(inverse_normal_cdf(0.999) > 3.0);
    }

    #[test]
    fn attributes_correlate_with_features() {
        // A linear probe on the features should beat chance on attribute 0.
        let mut rng = StdRng::seed_from_u64(5);
        let spec = SparseAttributeSpec::celeba_like();
        let d = spec.generate(4000, &mut rng);
        // Simple centroid classifier: mean feature of positives vs negatives.
        let dim = d.dim();
        let mut pos = vec![0.0; dim];
        let mut neg = vec![0.0; dim];
        let (mut np, mut nn) = (0usize, 0usize);
        for (x, a) in d.features.iter().zip(&d.attributes) {
            let (acc, n) = if a[0] { (&mut pos, &mut np) } else { (&mut neg, &mut nn) };
            for (s, v) in acc.iter_mut().zip(x) {
                *s += v;
            }
            *n += 1;
        }
        assert!(np > 10 && nn > 10);
        for v in pos.iter_mut() {
            *v /= np as f64;
        }
        for v in neg.iter_mut() {
            *v /= nn as f64;
        }
        let sep: f64 = pos.iter().zip(&neg).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(sep > 0.3, "attribute signal too weak: {sep}");
    }
}
