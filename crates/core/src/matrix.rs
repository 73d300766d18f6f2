//! All-vs-all RF matrices.
//!
//! HashRF-style methods answer clustering workloads by materializing the
//! full `r × r` RF matrix. The matrix is symmetric with a zero diagonal, so
//! only the strict upper triangle is stored ([`TriMatrix`]) — still
//! `O(r²)` memory, which is exactly the scaling the paper's Tables III/V
//! show blowing up. [`rf_matrix_exact`] computes the matrix collision-free
//! via a bipartition inverted index; the [`crate::hashrf`] baseline shares
//! the same pair-counting core but goes through compressed IDs.

use crate::guard::{isolate, RunBudget, RunGuard};
use crate::CoreError;
use phylo::{BipartitionScratch, TaxonSet, Tree};
use phylo_bitset::{bits_map_with_capacity, map_get_words_mut, words_for, Bits, BitsMap};
use rayon::prelude::*;

/// Strict-upper-triangle symmetric matrix of `u16` counts with a zero
/// diagonal. Entry type is `u16` because every stored quantity (shared
/// split counts, RF distances) is bounded by `2(n−3)` and the paper's
/// largest `n` is 1000.
#[derive(Debug, Clone)]
pub struct TriMatrix {
    size: usize,
    data: Vec<u16>,
}

impl TriMatrix {
    /// Bytes the triangle for `size` trees will occupy — callers check
    /// this against their memory budget *before* allocating (the paper's
    /// equivalent runs were OOM-killed by the kernel instead).
    pub fn required_bytes(size: usize) -> usize {
        size * (size.saturating_sub(1)) / 2 * std::mem::size_of::<u16>()
    }

    /// Allocate a zeroed triangle.
    pub fn zeroed(size: usize) -> Self {
        TriMatrix {
            size,
            data: vec![0u16; size * size.saturating_sub(1) / 2],
        }
    }

    /// Number of rows/columns.
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.size);
        j * (j - 1) / 2 + i
    }

    /// Entry `(i, j)`; the diagonal reads zero.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u16 {
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Less => self.data[self.index(i, j)],
            std::cmp::Ordering::Greater => self.data[self.index(j, i)],
        }
    }

    /// Set entry `(i, j)`, `i != j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: u16) {
        let idx = if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        };
        self.data[idx] = value;
    }

    /// Saturating in-place increment of entry `(i, j)`, `i != j`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, delta: u16) {
        let idx = if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        };
        self.data[idx] = self.data[idx].saturating_add(delta);
    }

    /// Mean of row `i` over all `size` entries (diagonal included), the
    /// quantity HashRF users average to get per-tree collective distance.
    pub fn row_mean(&self, i: usize) -> f64 {
        let total: u64 = (0..self.size).map(|j| u64::from(self.get(i, j))).sum();
        total as f64 / self.size as f64
    }
}

/// The exact RF matrix of one collection (Q is R), computed through a
/// collision-free inverted index: `bipartition → trees containing it`,
/// then one shared-count increment per co-occurrence.
///
/// `memory_budget_bytes` guards the triangle allocation; exceeding it
/// returns [`CoreError::ResourceLimit`].
pub fn rf_matrix_exact(
    trees: &[Tree],
    taxa: &TaxonSet,
    memory_budget_bytes: usize,
) -> Result<TriMatrix, CoreError> {
    let guard = RunGuard::with_budget(RunBudget {
        max_bytes: (memory_budget_bytes != usize::MAX).then_some(memory_budget_bytes),
        deadline: None,
    });
    rf_matrix_exact_guarded(trees, taxa, &guard)
}

/// [`rf_matrix_exact`] under a full [`RunGuard`]: the triangle allocation
/// is budget-checked up front and cancellation/deadline are polled at tree
/// granularity during the fill.
pub fn rf_matrix_exact_guarded(
    trees: &[Tree],
    taxa: &TaxonSet,
    guard: &RunGuard,
) -> Result<TriMatrix, CoreError> {
    if trees.is_empty() {
        return Err(CoreError::EmptyReference);
    }
    let r = trees.len();
    guard.check_alloc("RF matrix", TriMatrix::required_bytes(r))?;
    // inverted index and per-tree split counts; extraction runs through one
    // reused arena, so only novel splits allocate keys
    let mut index: BitsMap<Vec<u32>> = bits_map_with_capacity(r);
    let mut splits = vec![0u16; r];
    let mut scratch = BipartitionScratch::new();
    for (t_idx, tree) in trees.iter().enumerate() {
        guard.checkpoint("RF matrix index fill")?;
        scratch.for_each_split(tree, taxa, |w| {
            match map_get_words_mut(&mut index, w) {
                Some(list) => list.push(t_idx as u32),
                None => {
                    index.insert(Bits::from_words(taxa.len(), w), vec![t_idx as u32]);
                }
            }
            splits[t_idx] += 1;
        });
    }
    finish_matrix(&index, &splits, r, guard)
}

/// Shared tail of the exact-matrix builds: pair-count co-occurrences from
/// the inverted index, then convert shared counts to RF distances.
fn finish_matrix(
    index: &BitsMap<Vec<u32>>,
    splits: &[u16],
    r: usize,
    guard: &RunGuard,
) -> Result<TriMatrix, CoreError> {
    let mut shared = TriMatrix::zeroed(r);
    for (_, list) in index.iter() {
        for (k, &i) in list.iter().enumerate() {
            for &j in &list[k + 1..] {
                shared.add(i as usize, j as usize, 1);
            }
        }
    }
    // convert shared counts to RF distances in place
    let mut out = shared;
    for j in 1..r {
        guard.checkpoint("RF matrix conversion")?;
        for i in 0..j {
            let s = out.get(i, j);
            let rf = splits[i] + splits[j] - 2 * s;
            out.set(i, j, rf);
        }
    }
    Ok(out)
}

/// [`rf_matrix_exact`] with the extraction phase parallelized: workers
/// spill each chunk's canonical masks into a flat buffer (per-worker
/// scratch arena, no shared state), and the spills are folded into the
/// inverted index sequentially in tree order — so the resulting index, and
/// therefore the matrix, is identical to the sequential build's. Pair
/// counting stays sequential (it is write-heavy on one triangle).
pub fn rf_matrix_exact_parallel_guarded(
    trees: &[Tree],
    taxa: &TaxonSet,
    guard: &RunGuard,
) -> Result<TriMatrix, CoreError> {
    if trees.is_empty() {
        return Err(CoreError::EmptyReference);
    }
    let r = trees.len();
    guard.check_alloc("RF matrix", TriMatrix::required_bytes(r))?;
    let words = words_for(taxa.len());
    let chunk = r.div_ceil(rayon::current_num_threads()).max(1);
    let spills: Vec<(Vec<u64>, Vec<u16>)> = trees
        .par_chunks(chunk)
        .map(|qs| {
            isolate("RF matrix extract worker", || {
                let mut scratch = BipartitionScratch::new();
                let mut masks = Vec::new();
                let mut counts = Vec::with_capacity(qs.len());
                for tree in qs {
                    guard.checkpoint("RF matrix index fill")?;
                    let mut c = 0u16;
                    scratch.for_each_split(tree, taxa, |w| {
                        masks.extend_from_slice(w);
                        c += 1;
                    });
                    counts.push(c);
                }
                Ok((masks, counts))
            })
        })
        .collect::<Result<_, CoreError>>()?;
    let mut index: BitsMap<Vec<u32>> = bits_map_with_capacity(r);
    let mut splits = vec![0u16; r];
    let mut t_idx = 0usize;
    for (masks, counts) in &spills {
        let mut off = 0usize;
        for &c in counts {
            for _ in 0..c {
                let w = &masks[off..off + words];
                off += words;
                match map_get_words_mut(&mut index, w) {
                    Some(list) => list.push(t_idx as u32),
                    None => {
                        index.insert(Bits::from_words(taxa.len(), w), vec![t_idx as u32]);
                    }
                }
            }
            splits[t_idx] = c;
            t_idx += 1;
        }
    }
    finish_matrix(&index, &splits, r, guard)
}

/// The exact RF matrix computed pairwise with Day's O(n) algorithm —
/// `O(n r²)` total, no hash tables. Slower than [`rf_matrix_exact`] on
/// shared-split-heavy collections but with perfectly predictable per-pair
/// cost; mostly useful as yet another independent oracle and for the
/// pairwise ablation bench.
pub fn rf_matrix_day(
    trees: &[Tree],
    taxa: &TaxonSet,
    memory_budget_bytes: usize,
) -> Result<TriMatrix, CoreError> {
    let guard = RunGuard::with_budget(RunBudget {
        max_bytes: (memory_budget_bytes != usize::MAX).then_some(memory_budget_bytes),
        deadline: None,
    });
    rf_matrix_day_guarded(trees, taxa, &guard)
}

/// [`rf_matrix_day`] under a full [`RunGuard`], polled once per tree row.
pub fn rf_matrix_day_guarded(
    trees: &[Tree],
    taxa: &TaxonSet,
    guard: &RunGuard,
) -> Result<TriMatrix, CoreError> {
    if trees.is_empty() {
        return Err(CoreError::EmptyReference);
    }
    let r = trees.len();
    guard.check_alloc("RF matrix", TriMatrix::required_bytes(r))?;
    let mut out = TriMatrix::zeroed(r);
    for j in 1..r {
        guard.checkpoint("Day RF matrix")?;
        for i in 0..j {
            let d = crate::day::day_rf(&trees[i], &trees[j], taxa);
            let d16 = u16::try_from(d).map_err(|_| {
                CoreError::Structure(format!(
                    "RF distance {d} between trees {i} and {j} exceeds u16 range"
                ))
            })?;
            out.set(i, j, d16);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::{BipartitionSet, TreeCollection};

    #[test]
    fn trimatrix_symmetry_and_diagonal() {
        let mut m = TriMatrix::zeroed(4);
        m.set(1, 3, 7);
        m.add(3, 1, 2);
        assert_eq!(m.get(1, 3), 9);
        assert_eq!(m.get(3, 1), 9);
        assert_eq!(m.get(2, 2), 0);
        assert_eq!(m.get(0, 1), 0);
    }

    #[test]
    fn trimatrix_bytes_and_saturation() {
        assert_eq!(TriMatrix::required_bytes(1000), 1000 * 999 / 2 * 2);
        assert_eq!(TriMatrix::required_bytes(0), 0);
        let mut m = TriMatrix::zeroed(2);
        m.set(0, 1, u16::MAX);
        m.add(0, 1, 5);
        assert_eq!(m.get(0, 1), u16::MAX, "saturating add");
    }

    #[test]
    fn exact_matrix_matches_pairwise_sets() {
        let coll = TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,E),(D,F)));",
        )
        .unwrap();
        let m = rf_matrix_exact(&coll.trees, &coll.taxa, usize::MAX).unwrap();
        let sets: Vec<BipartitionSet> = coll
            .trees
            .iter()
            .map(|t| BipartitionSet::from_tree(t, &coll.taxa))
            .collect();
        for i in 0..coll.len() {
            for j in 0..coll.len() {
                assert_eq!(
                    m.get(i, j) as usize,
                    sets[i].rf_distance(&sets[j]),
                    "entry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn row_means_match_bfhrf_self_average() {
        use crate::{Bfh, Comparator, FrozenComparator};
        let coll = TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));",
        )
        .unwrap();
        let m = rf_matrix_exact(&coll.trees, &coll.taxa, usize::MAX).unwrap();
        let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
        let scores = FrozenComparator::new(&frozen, &coll.taxa)
            .average_all(&coll.trees)
            .unwrap();
        for s in scores {
            assert!(
                (m.row_mean(s.index) - s.rf.average()).abs() < 1e-12,
                "row {} mean",
                s.index
            );
        }
    }

    #[test]
    fn day_matrix_equals_inverted_index_matrix() {
        let coll = TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,E),(D,F)));",
        )
        .unwrap();
        let a = rf_matrix_exact(&coll.trees, &coll.taxa, usize::MAX).unwrap();
        let b = rf_matrix_day(&coll.trees, &coll.taxa, usize::MAX).unwrap();
        for i in 0..coll.len() {
            for j in 0..coll.len() {
                assert_eq!(a.get(i, j), b.get(i, j), "entry ({i},{j})");
            }
        }
        assert!(rf_matrix_day(&coll.trees, &coll.taxa, 1).is_err());
    }

    #[test]
    fn parallel_extraction_matches_sequential_exactly() {
        let spec = phylo_sim::DatasetSpec::new("matrix-par", 40, 60, 11);
        let coll = phylo_sim::generate(&spec);
        let guard = RunGuard::default();
        let seq = rf_matrix_exact_guarded(&coll.trees, &coll.taxa, &guard).unwrap();
        let par = rf_matrix_exact_parallel_guarded(&coll.trees, &coll.taxa, &guard).unwrap();
        for i in 0..coll.len() {
            for j in 0..coll.len() {
                assert_eq!(seq.get(i, j), par.get(i, j), "entry ({i},{j})");
            }
        }
        let cancelled = RunGuard::default();
        cancelled.cancel.cancel();
        assert!(matches!(
            rf_matrix_exact_parallel_guarded(&coll.trees, &coll.taxa, &cancelled).unwrap_err(),
            CoreError::Cancelled(_)
        ));
    }

    #[test]
    fn memory_budget_is_enforced() {
        let coll = TreeCollection::parse("((A,B),(C,D));\n((A,C),(B,D));").unwrap();
        let err = rf_matrix_exact(&coll.trees, &coll.taxa, 0).unwrap_err();
        assert!(matches!(err, CoreError::ResourceLimit(_)));
    }

    #[test]
    fn empty_collection_errors() {
        let taxa = phylo::TaxonSet::new();
        assert_eq!(
            rf_matrix_exact(&[], &taxa, usize::MAX).unwrap_err(),
            CoreError::EmptyReference
        );
    }
}
