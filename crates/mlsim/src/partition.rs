//! Data partitioners — the paper's even and `x–(10−x)` division splits.
//!
//! "Division 2-8 represents that 20% of the data is held by 80% of the
//! users" (§VI-C): the *majority* group (80% of users) shares 20% of the
//! data in small shards, while the *minority* group (20% of users) holds
//! the remaining 80% in large shards.

use rand::Rng;

use crate::dataset::{Dataset, MultiLabelDataset};

/// An uneven division `data_percent`–`user_percent` in the paper's
/// naming: `data_percent·10%` of the data goes to `user_percent·10%` of
/// the users... expressed here as fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Division {
    /// Fraction of the data shared by the majority user group.
    pub minority_data_fraction: f64,
    /// Fraction of users in the majority group.
    pub majority_user_fraction: f64,
}

impl Division {
    /// Division 2-8: 20% of data across 80% of users.
    pub const D28: Division = Division { minority_data_fraction: 0.2, majority_user_fraction: 0.8 };
    /// Division 3-7: 30% of data across 70% of users.
    pub const D37: Division = Division { minority_data_fraction: 0.3, majority_user_fraction: 0.7 };
    /// Division 4-6: 40% of data across 60% of users.
    pub const D46: Division = Division { minority_data_fraction: 0.4, majority_user_fraction: 0.6 };

    /// The paper's three divisions, in order.
    pub const ALL: [Division; 3] = [Division::D28, Division::D37, Division::D46];

    /// The paper's name for the division, e.g. `"2-8"`.
    pub fn name(&self) -> String {
        format!(
            "{}-{}",
            (self.minority_data_fraction * 10.0).round() as u32,
            (self.majority_user_fraction * 10.0).round() as u32
        )
    }
}

/// Assignment of instances to users, plus group bookkeeping for the
/// majority/minority accuracy split of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// `assignments[u]` = indices of instances owned by user `u`.
    pub assignments: Vec<Vec<usize>>,
    /// Users in the majority group (small shards); empty for even splits.
    pub majority_users: Vec<usize>,
    /// Users in the minority group (large shards); empty for even splits.
    pub minority_users: Vec<usize>,
}

impl Partition {
    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.assignments.len()
    }

    /// Materializes user `u`'s shard of a single-label dataset.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn shard(&self, dataset: &Dataset, u: usize) -> Dataset {
        dataset.subset(&self.assignments[u])
    }

    /// Materializes user `u`'s shard of a multi-label dataset.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn shard_multilabel(&self, dataset: &MultiLabelDataset, u: usize) -> MultiLabelDataset {
        dataset.subset(&self.assignments[u])
    }
}

/// Shuffled indices of `0..n`.
fn shuffled_indices<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Distributes `indices` round-robin over `groups` slots.
fn deal(indices: &[usize], groups: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::with_capacity(indices.len() / groups.max(1) + 1); groups];
    for (pos, &i) in indices.iter().enumerate() {
        out[pos % groups].push(i);
    }
    out
}

/// Even split: every user receives an equal (±1) random shard.
///
/// # Panics
///
/// Panics if `num_users == 0`.
pub fn even_split<R: Rng + ?Sized>(n_instances: usize, num_users: usize, rng: &mut R) -> Partition {
    assert!(num_users > 0, "need at least one user");
    let idx = shuffled_indices(n_instances, rng);
    Partition {
        assignments: deal(&idx, num_users),
        majority_users: Vec::new(),
        minority_users: Vec::new(),
    }
}

/// Uneven split per [`Division`]: the majority user group shares the
/// minority data fraction; the minority user group shares the rest.
///
/// # Panics
///
/// Panics if `num_users == 0` or the division would leave either group
/// without users.
pub fn division_split<R: Rng + ?Sized>(
    n_instances: usize,
    num_users: usize,
    division: Division,
    rng: &mut R,
) -> Partition {
    assert!(num_users > 0, "need at least one user");
    let majority_count = ((num_users as f64) * division.majority_user_fraction).round() as usize;
    let majority_count = majority_count.clamp(1, num_users - 1);
    let minority_count = num_users - majority_count;
    let small_data = ((n_instances as f64) * division.minority_data_fraction).round() as usize;

    let idx = shuffled_indices(n_instances, rng);
    let (small_pool, large_pool) = idx.split_at(small_data);

    let majority_shards = deal(small_pool, majority_count);
    let minority_shards = deal(large_pool, minority_count);

    let mut assignments = Vec::with_capacity(num_users);
    assignments.extend(majority_shards);
    assignments.extend(minority_shards);
    Partition {
        assignments,
        majority_users: (0..majority_count).collect(),
        minority_users: (majority_count..num_users).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn division_names() {
        assert_eq!(Division::D28.name(), "2-8");
        assert_eq!(Division::D37.name(), "3-7");
        assert_eq!(Division::D46.name(), "4-6");
    }

    #[test]
    fn even_split_is_balanced_and_complete() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = even_split(103, 10, &mut rng);
        assert_eq!(p.num_users(), 10);
        let sizes: Vec<usize> = p.assignments.iter().map(Vec::len).collect();
        assert!(sizes.iter().all(|&s| s == 10 || s == 11), "{sizes:?}");
        let mut all: Vec<usize> = p.assignments.concat();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>(), "every instance assigned once");
        assert!(p.majority_users.is_empty());
    }

    #[test]
    fn division_2_8_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = division_split(1000, 10, Division::D28, &mut rng);
        assert_eq!(p.majority_users.len(), 8);
        assert_eq!(p.minority_users.len(), 2);
        // Majority users share 200 instances → 25 each; minority share
        // 800 → 400 each.
        for &u in &p.majority_users {
            assert_eq!(p.assignments[u].len(), 25);
        }
        for &u in &p.minority_users {
            assert_eq!(p.assignments[u].len(), 400);
        }
        let mut all: Vec<usize> = p.assignments.concat();
        all.sort_unstable();
        assert_eq!(all.len(), 1000);
        all.dedup();
        assert_eq!(all.len(), 1000, "no duplicates");
    }

    #[test]
    fn minority_shards_are_larger_for_all_divisions() {
        let mut rng = StdRng::seed_from_u64(3);
        for div in Division::ALL {
            let p = division_split(600, 20, div, &mut rng);
            let maj_avg: f64 =
                p.majority_users.iter().map(|&u| p.assignments[u].len()).sum::<usize>() as f64
                    / p.majority_users.len() as f64;
            let min_avg: f64 =
                p.minority_users.iter().map(|&u| p.assignments[u].len()).sum::<usize>() as f64
                    / p.minority_users.len() as f64;
            assert!(min_avg > 2.0 * maj_avg, "{}: {maj_avg} vs {min_avg}", div.name());
        }
    }

    #[test]
    fn shard_materialization() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = crate::synthetic::GaussianMixtureSpec::mnist_like().generate(50, &mut rng);
        let p = even_split(d.len(), 5, &mut rng);
        let shard = p.shard(&d, 0);
        assert_eq!(shard.len(), 10);
        assert_eq!(shard.num_classes, 10);
    }

    #[test]
    fn tiny_user_counts_stay_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = division_split(100, 2, Division::D28, &mut rng);
        assert_eq!(p.majority_users.len() + p.minority_users.len(), 2);
        assert!(p.assignments.iter().all(|a| !a.is_empty()));
    }
}
