//! A faithful reimplementation of **HashRF** (Sul & Williams 2008), the
//! paper's primary comparator.
//!
//! HashRF computes the all-vs-all RF matrix of **one** collection (Q is R —
//! the restriction the paper criticizes) using two universal hash
//! functions over the bipartition bit vector:
//!
//! * `h1` selects a bucket in a table sized ~`n·r`;
//! * `h2` is a **compressed ID** stored in the bucket instead of the full
//!   bit vector.
//!
//! Two distinct bipartitions that agree on `(h1, h2)` are silently merged —
//! the collision-induced RF error the paper's §III.C discusses. The ID
//! width is configurable here ([`HashRfConfig::id_bits`]); at 64 bits
//! collisions are practically absent (the "options to reduce collisions"
//! setting the paper ran), at 16–24 bits the error becomes measurable,
//! which the `ablation_idwidth` bench quantifies.
//!
//! Memory is dominated by the `r × r` matrix, `O(n² r²)` overall — this is
//! the implementation whose kernel kills at `r = 100000` the paper
//! reports; we enforce the same failure deterministically through
//! [`HashRfConfig::memory_budget_bytes`].

use crate::matrix::TriMatrix;
use crate::CoreError;
use phylo::{TaxonSet, Tree};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Tuning knobs for [`HashRf::compute`].
#[derive(Debug, Clone)]
pub struct HashRfConfig {
    /// Width of the compressed bipartition ID in bits (1..=64). 64
    /// reproduces the collision-minimizing configuration.
    pub id_bits: u32,
    /// Hash-table bucket count override; `None` derives `~(n·r)` rounded
    /// to a power of two.
    pub buckets: Option<usize>,
    /// Seed for the universal-hash coefficient vectors.
    pub seed: u64,
    /// Refuse to allocate an RF matrix larger than this many bytes.
    pub memory_budget_bytes: usize,
}

impl Default for HashRfConfig {
    fn default() -> Self {
        HashRfConfig {
            id_bits: 64,
            buckets: None,
            seed: 0x4A5F_9E37_79B9_u64,
            memory_budget_bytes: 6 << 30, // 6 GiB, paper-box-like guard
        }
    }
}

/// The computed all-vs-all RF matrix plus bookkeeping.
#[derive(Debug)]
pub struct HashRf {
    matrix: TriMatrix,
    splits_per_tree: Vec<u16>,
}

impl HashRf {
    /// Run HashRF over a single collection (`Q` is `R`).
    pub fn compute(
        trees: &[Tree],
        taxa: &TaxonSet,
        config: &HashRfConfig,
    ) -> Result<Self, CoreError> {
        if !(1..=64).contains(&config.id_bits) {
            return Err(CoreError::Structure(format!(
                "id_bits must be in 1..=64, got {}",
                config.id_bits
            )));
        }
        if trees.is_empty() {
            return Err(CoreError::EmptyReference);
        }
        let r = trees.len();
        let n = taxa.len();
        let need = TriMatrix::required_bytes(r);
        if need > config.memory_budget_bytes {
            return Err(CoreError::ResourceLimit(format!(
                "HashRF matrix for r={r} needs {need} bytes > budget {} \
                 (the original implementation is OOM-killed here)",
                config.memory_budget_bytes
            )));
        }
        let buckets = config
            .buckets
            .unwrap_or_else(|| (n * r).next_power_of_two().clamp(1 << 10, 1 << 26));
        let bucket_mask = buckets - 1;
        debug_assert!(buckets.is_power_of_two());
        let id_mask = if config.id_bits == 64 {
            u64::MAX
        } else {
            (1u64 << config.id_bits) - 1
        };

        // Universal-hash coefficients: one random word per taxon for each
        // hash function, mirroring HashRF's m1/m2 scheme.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let a: Vec<u64> = (0..n).map(|_| rng.random_range(0..u64::MAX)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.random_range(0..u64::MAX)).collect();

        // Fill the table with (compressed id, tree index) records.
        let mut table: Vec<Vec<(u64, u32)>> = vec![Vec::new(); buckets];
        let mut splits_per_tree = vec![0u16; r];
        for (t_idx, tree) in trees.iter().enumerate() {
            for bp in tree.bipartitions(taxa) {
                let mut h1 = 0u64;
                let mut h2 = 0u64;
                for i in bp.bits().iter_ones() {
                    h1 = h1.wrapping_add(a[i]);
                    h2 = h2.wrapping_add(b[i]);
                }
                let bucket = (h1 as usize) & bucket_mask;
                table[bucket].push((h2 & id_mask, t_idx as u32));
                splits_per_tree[t_idx] += 1;
            }
        }

        // Count pairwise co-occurrences per (bucket, id) group. Distinct
        // bipartitions colliding on (h1, h2) are merged here — exactly the
        // original's behaviour.
        let mut shared = TriMatrix::zeroed(r);
        for bucket in &mut table {
            bucket.sort_unstable();
            let mut start = 0;
            while start < bucket.len() {
                let id = bucket[start].0;
                let mut end = start + 1;
                while end < bucket.len() && bucket[end].0 == id {
                    end += 1;
                }
                let group = &bucket[start..end];
                for (k, &(_, i)) in group.iter().enumerate() {
                    for &(_, j) in &group[k + 1..] {
                        if i != j {
                            shared.add(i as usize, j as usize, 1);
                        }
                    }
                }
                start = end;
            }
        }

        // shared counts → RF distances. Collisions can push "shared" above
        // the true value; clamp at zero like the original's unsigned math
        // would underflow otherwise.
        let mut matrix = shared;
        for j in 1..r {
            for i in 0..j {
                let s = matrix.get(i, j);
                let total = splits_per_tree[i] + splits_per_tree[j];
                let rf = total.saturating_sub(2 * s.min(total / 2));
                matrix.set(i, j, rf);
            }
        }
        Ok(HashRf {
            matrix,
            splits_per_tree,
        })
    }

    /// Rough bytes a [`HashRf::compute`] run over `r` trees of `n` taxa
    /// will allocate: the `r × r` triangle plus the bucket table with its
    /// `(id, tree)` records. Used by degradation logic to decide *before*
    /// running whether HashRF fits a budget.
    pub fn estimate_bytes(r: usize, n: usize, config: &HashRfConfig) -> usize {
        let matrix = TriMatrix::required_bytes(r);
        let buckets = config
            .buckets
            .unwrap_or_else(|| (n * r).next_power_of_two().clamp(1 << 10, 1 << 26));
        // one Vec header per bucket + ~(n − 3) records of (u64, u32) per tree
        let table = buckets * std::mem::size_of::<Vec<(u64, u32)>>()
            + r.saturating_mul(n.saturating_sub(3))
                .saturating_mul(std::mem::size_of::<(u64, u32)>());
        matrix.saturating_add(table)
    }

    /// RF distance between trees `i` and `j`.
    pub fn rf(&self, i: usize, j: usize) -> u16 {
        self.matrix.get(i, j)
    }

    /// The full matrix.
    pub fn matrix(&self) -> &TriMatrix {
        &self.matrix
    }

    /// Per-tree average over the whole collection (self included), the
    /// quantity compared against BFHRF.
    pub fn averages(&self) -> Vec<f64> {
        (0..self.matrix.size())
            .map(|i| self.matrix.row_mean(i))
            .collect()
    }

    /// Number of non-trivial splits recorded per tree.
    pub fn splits_per_tree(&self) -> &[u16] {
        &self.splits_per_tree
    }

    /// Fraction of matrix entries differing from an exact matrix — the
    /// collision error rate for the ablation study.
    pub fn error_rate_against(&self, exact: &TriMatrix) -> f64 {
        let r = self.matrix.size();
        assert_eq!(r, exact.size());
        if r < 2 {
            return 0.0;
        }
        let mut wrong = 0usize;
        let mut total = 0usize;
        for j in 1..r {
            for i in 0..j {
                total += 1;
                if self.matrix.get(i, j) != exact.get(i, j) {
                    wrong += 1;
                }
            }
        }
        wrong as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::rf_matrix_exact;
    use crate::Comparator as _;
    use phylo::TreeCollection;

    fn collection() -> TreeCollection {
        TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,E),(D,F)));\n((A,B),((C,D),(E,F)));",
        )
        .unwrap()
    }

    #[test]
    fn wide_ids_match_exact_matrix() {
        let coll = collection();
        let exact = rf_matrix_exact(&coll.trees, &coll.taxa, usize::MAX).unwrap();
        let h = HashRf::compute(&coll.trees, &coll.taxa, &HashRfConfig::default()).unwrap();
        assert_eq!(h.error_rate_against(&exact), 0.0);
        for i in 0..coll.len() {
            for j in 0..coll.len() {
                assert_eq!(h.rf(i, j), exact.get(i, j));
            }
        }
    }

    #[test]
    fn averages_match_bfhrf() {
        let coll = collection();
        let h = HashRf::compute(&coll.trees, &coll.taxa, &HashRfConfig::default()).unwrap();
        let frozen = crate::Bfh::build(&coll.trees, &coll.taxa).freeze();
        let scores = crate::FrozenComparator::new(&frozen, &coll.taxa)
            .average_all(&coll.trees)
            .unwrap();
        let avgs = h.averages();
        for s in scores {
            assert!((avgs[s.index] - s.rf.average()).abs() < 1e-12);
        }
    }

    #[test]
    fn narrow_ids_can_collide() {
        // With a 1-bit ID every other bipartition collides; on a spread of
        // random-ish trees the matrix must differ from exact somewhere.
        let coll = collection();
        let exact = rf_matrix_exact(&coll.trees, &coll.taxa, usize::MAX).unwrap();
        let cfg = HashRfConfig {
            id_bits: 1,
            buckets: Some(2), // force heavy bucket sharing as well
            ..HashRfConfig::default()
        };
        let h = HashRf::compute(&coll.trees, &coll.taxa, &cfg).unwrap();
        assert!(
            h.error_rate_against(&exact) > 0.0,
            "1-bit IDs in 2 buckets must produce collision errors"
        );
    }

    #[test]
    fn memory_budget_refuses_large_matrices() {
        let coll = collection();
        let cfg = HashRfConfig {
            memory_budget_bytes: 1,
            ..HashRfConfig::default()
        };
        assert!(matches!(
            HashRf::compute(&coll.trees, &coll.taxa, &cfg).unwrap_err(),
            CoreError::ResourceLimit(_)
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let coll = collection();
        let cfg = HashRfConfig::default();
        let h1 = HashRf::compute(&coll.trees, &coll.taxa, &cfg).unwrap();
        let h2 = HashRf::compute(&coll.trees, &coll.taxa, &cfg).unwrap();
        for i in 0..coll.len() {
            for j in 0..coll.len() {
                assert_eq!(h1.rf(i, j), h2.rf(i, j));
            }
        }
    }

    #[test]
    fn splits_counted_per_tree() {
        let coll = collection();
        let h = HashRf::compute(&coll.trees, &coll.taxa, &HashRfConfig::default()).unwrap();
        // all members are binary 6-leaf trees: n - 3 = 3 splits each
        assert!(h.splits_per_tree().iter().all(|&s| s == 3));
    }

    #[test]
    fn empty_collection_errors() {
        let taxa = phylo::TaxonSet::new();
        assert_eq!(
            HashRf::compute(&[], &taxa, &HashRfConfig::default()).unwrap_err(),
            CoreError::EmptyReference
        );
    }
}
