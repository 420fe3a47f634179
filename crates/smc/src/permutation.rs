//! Uniformly random permutations and their algebra.

use rand::Rng;
use std::fmt;

/// A permutation of `{0, …, K−1}`, stored as the image list: element at
/// input position `i` moves to output position `perm.apply_index(i)`.
///
/// Concretely, `apply(&xs)[j] = xs[indices[j]]` — `indices[j]` names which
/// input lands at output slot `j`.
///
/// # Examples
///
/// ```
/// use smc::Permutation;
///
/// let p = Permutation::from_indices(vec![2, 0, 1]).unwrap();
/// assert_eq!(p.apply(&['a', 'b', 'c']), vec!['c', 'a', 'b']);
/// let inv = p.inverse();
/// assert_eq!(inv.apply(&p.apply(&[10, 20, 30])), vec![10, 20, 30]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    /// `indices[j]` = the input position that lands at output slot `j`.
    indices: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `k` elements.
    pub fn identity(k: usize) -> Self {
        Permutation { indices: (0..k).collect() }
    }

    /// Samples a uniform permutation on `k` elements (Fisher–Yates).
    pub fn random<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        let mut indices: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = rng.gen_range(0..=i);
            indices.swap(i, j);
        }
        Permutation { indices }
    }

    /// Builds from an explicit image list; returns `None` if it is not a
    /// permutation of `0..len`.
    pub fn from_indices(indices: Vec<usize>) -> Option<Self> {
        let mut seen = vec![false; indices.len()];
        for &i in &indices {
            if i >= indices.len() || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        Some(Permutation { indices })
    }

    /// The number of elements permuted.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether this permutes zero elements.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The raw image list.
    pub fn as_indices(&self) -> &[usize] {
        &self.indices
    }

    /// Applies to a slice, producing the permuted vector.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != self.len()`.
    pub fn apply<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        assert_eq!(xs.len(), self.len(), "length mismatch");
        self.indices.iter().map(|&i| xs[i].clone()).collect()
    }

    /// Where input position `i` ends up in the output.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn apply_index(&self, i: usize) -> usize {
        self.indices.iter().position(|&x| x == i).expect("index within permutation size")
    }

    /// Which input position feeds output slot `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len`.
    pub fn preimage_of(&self, j: usize) -> usize {
        self.indices[j]
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.len()];
        for (j, &i) in self.indices.iter().enumerate() {
            inv[i] = j;
        }
        Permutation { indices: inv }
    }

    /// Composition: `(self ∘ other)` applies `other` first, then `self`
    /// (matching `self.apply(&other.apply(xs))`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "length mismatch");
        Permutation { indices: self.indices.iter().map(|&j| other.indices[j]).collect() }
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π{:?}", self.indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(4);
        assert_eq!(p.apply(&[1, 2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(p.apply_index(2), 2);
    }

    #[test]
    fn apply_moves_elements() {
        let p = Permutation::from_indices(vec![1, 2, 0]).unwrap();
        // output[0]=xs[1], output[1]=xs[2], output[2]=xs[0]
        assert_eq!(p.apply(&[10, 20, 30]), vec![20, 30, 10]);
        assert_eq!(p.apply_index(0), 2);
        assert_eq!(p.preimage_of(0), 1);
    }

    #[test]
    fn inverse_undoes() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1usize, 2, 5, 10] {
            let p = Permutation::random(k, &mut rng);
            let xs: Vec<usize> = (0..k).collect();
            assert_eq!(p.inverse().apply(&p.apply(&xs)), xs);
            assert_eq!(p.compose(&p.inverse()), Permutation::identity(k));
        }
    }

    #[test]
    fn compose_matches_sequential_application() {
        let mut rng = StdRng::seed_from_u64(6);
        let p1 = Permutation::random(6, &mut rng);
        let p2 = Permutation::random(6, &mut rng);
        let xs: Vec<u32> = (0..6).collect();
        assert_eq!(p1.compose(&p2).apply(&xs), p1.apply(&p2.apply(&xs)));
    }

    #[test]
    fn apply_index_consistent_with_apply() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Permutation::random(8, &mut rng);
        let xs: Vec<usize> = (0..8).collect();
        let ys = p.apply(&xs);
        for i in 0..8 {
            assert_eq!(ys[p.apply_index(i)], i);
        }
    }

    #[test]
    fn invalid_indices_rejected() {
        assert!(Permutation::from_indices(vec![0, 0]).is_none());
        assert!(Permutation::from_indices(vec![0, 2]).is_none());
        assert!(Permutation::from_indices(vec![]).is_some());
    }

    #[test]
    fn random_covers_all_orderings() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(Permutation::random(3, &mut rng).indices.clone());
        }
        assert_eq!(seen.len(), 6, "all 3! orderings should appear");
    }

    #[test]
    fn empty_and_singleton() {
        let e = Permutation::random(0, &mut StdRng::seed_from_u64(9));
        assert!(e.is_empty());
        let s = Permutation::random(1, &mut StdRng::seed_from_u64(9));
        assert_eq!(s.apply(&[42]), vec![42]);
    }
}
