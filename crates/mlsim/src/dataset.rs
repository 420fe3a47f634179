//! Dataset containers.

/// A single-label classification dataset: dense feature vectors and one
/// class label per instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, row per instance.
    pub features: Vec<Vec<f64>>,
    /// Class label per instance, in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes `K`.
    pub num_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shape consistency.
    ///
    /// # Panics
    ///
    /// Panics if rows/labels disagree in length, rows have uneven widths,
    /// or a label is out of range.
    pub fn new(features: Vec<Vec<f64>>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.len(), labels.len(), "features/labels length mismatch");
        if let Some(first) = features.first() {
            let d = first.len();
            assert!(features.iter().all(|r| r.len() == d), "ragged feature rows");
        }
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        Dataset { features, labels, num_classes }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// The subset at the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Splits off the first `n` instances as one dataset and the rest as
    /// another.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        assert!(n <= self.len(), "split beyond dataset size");
        let head = Dataset {
            features: self.features[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
            num_classes: self.num_classes,
        };
        let tail = Dataset {
            features: self.features[n..].to_vec(),
            labels: self.labels[n..].to_vec(),
            num_classes: self.num_classes,
        };
        (head, tail)
    }

    /// Per-class instance counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

/// A multi-label dataset: each instance carries a vector of binary
/// attributes (the CelebA-like family).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLabelDataset {
    /// Feature matrix, row per instance.
    pub features: Vec<Vec<f64>>,
    /// Binary attribute vector per instance.
    pub attributes: Vec<Vec<bool>>,
    /// Number of attributes.
    pub num_attributes: usize,
}

impl MultiLabelDataset {
    /// Creates a multi-label dataset, validating shape consistency.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or mismatched lengths.
    pub fn new(features: Vec<Vec<f64>>, attributes: Vec<Vec<bool>>, num_attributes: usize) -> Self {
        assert_eq!(features.len(), attributes.len(), "features/attributes length mismatch");
        assert!(
            attributes.iter().all(|a| a.len() == num_attributes),
            "attribute rows must have num_attributes entries"
        );
        MultiLabelDataset { features, attributes, num_attributes }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// The subset at the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> MultiLabelDataset {
        MultiLabelDataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            attributes: indices.iter().map(|&i| self.attributes[i].clone()).collect(),
            num_attributes: self.num_attributes,
        }
    }

    /// Splits off the first `n` instances.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn split_at(&self, n: usize) -> (MultiLabelDataset, MultiLabelDataset) {
        assert!(n <= self.len(), "split beyond dataset size");
        (
            MultiLabelDataset {
                features: self.features[..n].to_vec(),
                attributes: self.attributes[..n].to_vec(),
                num_attributes: self.num_attributes,
            },
            MultiLabelDataset {
                features: self.features[n..].to_vec(),
                attributes: self.attributes[n..].to_vec(),
                num_attributes: self.num_attributes,
            },
        )
    }

    /// Fraction of positive attribute values across the dataset
    /// (CelebA-like data is *sparse*: this should be well below 0.5).
    pub fn positive_rate(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let positives: usize =
            self.attributes.iter().map(|a| a.iter().filter(|&&b| b).count()).sum();
        positives as f64 / (self.len() * self.num_attributes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5], vec![2.0, 2.0]],
            vec![0, 1, 0, 2],
            3,
        )
    }

    #[test]
    fn shape_accessors() {
        let d = tiny();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.class_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn subset_selects_rows() {
        let d = tiny();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.labels, vec![2, 0]);
        assert_eq!(s.features[0], vec![2.0, 2.0]);
    }

    #[test]
    fn split_at_partitions() {
        let d = tiny();
        let (head, tail) = d.split_at(1);
        assert_eq!(head.len(), 1);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.labels, vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_rejected() {
        let _ = Dataset::new(vec![vec![0.0]], vec![5], 3);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Dataset::new(vec![vec![0.0], vec![0.0, 1.0]], vec![0, 0], 1);
    }

    #[test]
    fn multilabel_positive_rate() {
        let d = MultiLabelDataset::new(
            vec![vec![0.0]; 2],
            vec![vec![true, false, false, false], vec![false, false, true, false]],
            4,
        );
        assert_eq!(d.positive_rate(), 0.25);
        assert_eq!(d.len(), 2);
        let (h, t) = d.split_at(1);
        assert_eq!(h.len(), 1);
        assert!(t.attributes[0][2]);
    }
}
