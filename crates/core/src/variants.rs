//! Generalized and variant RF computations.
//!
//! The paper's extensibility claim (§VII.F) is that because the frequency
//! hash stores untransformed bipartitions, any RF variant expressible as
//! per-split preprocessing or weighting works on the hash exactly as it
//! would on the traditional pairwise computation. This module provides:
//!
//! * [`SplitWeight`] + [`GeneralizedRf`] — weighted average RF against the
//!   hash, with [`UnitWeight`] (recovers standard RF) and
//!   [`PhyloInfoWeight`] (split phylogenetic information content, the
//!   "information content" modification the paper cites from Wilkinson and
//!   Smith);
//! * [`SizeFilteredRf`] — bipartition-size filtering, the variant the
//!   paper implements to demonstrate flexibility;
//! * [`normalized_average`] — RF normalized to `[0, 1]` by the maximum
//!   `2(n−3)`;
//! * [`branch_score`] — pairwise Kuhner–Felsenstein branch-score distance
//!   (weighted RF with per-tree branch lengths).

use crate::bfh::Bfh;
use crate::frozen::FrozenBfh;
use crate::rf::RfAverage;
use phylo::{BipartitionScratch, TaxonSet, Tree};
use phylo_bitset::Bits;

/// A per-split weight used by [`GeneralizedRf`]. Weights must depend only
/// on the split itself (not on which tree it came from) — that is exactly
/// the class of variants the frequency hash supports losslessly.
pub trait SplitWeight: Sync {
    /// Weight of the canonical split `bits` over `n_taxa` taxa.
    fn weight(&self, bits: &Bits, n_taxa: usize) -> f64;
}

/// Unit weights: every split counts 1, recovering standard RF.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitWeight;

impl SplitWeight for UnitWeight {
    #[inline]
    fn weight(&self, _bits: &Bits, _n_taxa: usize) -> f64 {
        1.0
    }
}

/// Split phylogenetic information content: `−log₂ P(split)`, where
/// `P(split)` is the probability that a uniformly random unrooted binary
/// tree on `n` taxa contains the split. For side sizes `a` and `b`:
///
/// ```text
/// P = (2a−3)!! (2b−3)!! / (2n−5)!!
/// ```
///
/// Balanced splits are rarer, hence more informative — disagreeing on them
/// costs more than disagreeing on a cherry.
#[derive(Debug, Clone)]
pub struct PhyloInfoWeight {
    /// `log2_ddf[k]` = log₂ k‼ for odd k (index k), precomputed to 2n.
    log2_ddf: Vec<f64>,
}

impl PhyloInfoWeight {
    /// Precompute tables for an `n_taxa`-wide namespace.
    pub fn new(n_taxa: usize) -> Self {
        let top = 2 * n_taxa.max(3);
        let mut log2_ddf = vec![0.0f64; top + 1];
        for k in 2..=top {
            // k!! = k · (k−2)!!
            log2_ddf[k] = (k as f64).log2() + log2_ddf[k - 2];
        }
        PhyloInfoWeight { log2_ddf }
    }

    fn l2ddf(&self, k: isize) -> f64 {
        if k <= 1 {
            0.0 // (−1)!! = 1!! = 1
        } else {
            self.log2_ddf[k as usize]
        }
    }
}

impl SplitWeight for PhyloInfoWeight {
    fn weight(&self, bits: &Bits, n_taxa: usize) -> f64 {
        let a = bits.count_ones() as isize;
        let b = n_taxa as isize - a;
        let n = n_taxa as isize;
        self.l2ddf(2 * n - 5) - self.l2ddf(2 * a - 3) - self.l2ddf(2 * b - 3)
    }
}

/// Weighted average RF of query trees against a [`Bfh`].
///
/// The arithmetic mirrors Algorithm 2 with weights folded in:
/// `left = Σ_b freq(b)·w(b) − Σ_{b′} freq(b′)·w(b′)` and
/// `right = Σ_{b′} (r − freq(b′))·w(b′)`.
pub struct GeneralizedRf<'a, W: SplitWeight> {
    bfh: &'a Bfh,
    weight: W,
    weighted_sum: f64,
}

impl<'a, W: SplitWeight> GeneralizedRf<'a, W> {
    /// Wrap a hash with a weighting scheme (one pass to compute the
    /// weighted total).
    pub fn new(bfh: &'a Bfh, weight: W) -> Self {
        let n = bfh.n_taxa();
        let weighted_sum = bfh
            .iter()
            .map(|(bits, count)| f64::from(count) * weight.weight(bits, n))
            .sum();
        GeneralizedRf {
            bfh,
            weight,
            weighted_sum,
        }
    }

    /// Total weight over all reference occurrences (weighted `sumBFHR`).
    pub fn weighted_sum(&self) -> f64 {
        self.weighted_sum
    }

    /// Weighted average distance of `query` to the collection.
    pub fn average(&self, query: &Tree, taxa: &TaxonSet) -> f64 {
        assert!(self.bfh.n_trees() > 0, "empty reference collection");
        let r = self.bfh.n_trees() as f64;
        let n = taxa.len();
        let mut probe_sum = 0.0; // Σ freq(b′)·w(b′)
        let mut query_weight = 0.0; // Σ w(b′)
        for bp in query.bipartitions(taxa) {
            let w = self.weight.weight(bp.bits(), n);
            probe_sum += f64::from(self.bfh.frequency_of(&bp)) * w;
            query_weight += w;
        }
        let left = self.weighted_sum - probe_sum;
        let right = query_weight * r - probe_sum;
        (left + right) / r
    }
}

/// Bipartition-size-filtered average RF — the paper's demonstration
/// variant: splits whose smaller side is outside `[min_side, max_side]`
/// are ignored on both the reference and the query side.
pub struct SizeFilteredRf {
    frozen: FrozenBfh,
    min_side: usize,
    max_side: usize,
}

impl SizeFilteredRf {
    /// Build the hash over the references, drop the out-of-band splits,
    /// and freeze what survives.
    pub fn new(refs: &[Tree], taxa: &TaxonSet, min_side: usize, max_side: usize) -> Self {
        let n = taxa.len();
        let mut bfh = Bfh::build(refs, taxa);
        bfh.retain(|bits, _| {
            let side = (bits.count_ones() as usize).min(n - bits.count_ones() as usize);
            (min_side..=max_side).contains(&side)
        });
        SizeFilteredRf {
            frozen: bfh.freeze(),
            min_side,
            max_side,
        }
    }

    /// Filtered average RF for one query tree.
    pub fn average(&self, query: &Tree, taxa: &TaxonSet) -> RfAverage {
        let frozen = &self.frozen;
        assert!(frozen.n_trees() > 0, "empty reference collection");
        let n = taxa.len();
        let r = frozen.n_trees() as u64;
        let mut freq_sum = 0u64;
        let mut q_splits = 0u64;
        BipartitionScratch::new().for_each_split(query, taxa, |w| {
            let ones = w.iter().map(|x| x.count_ones() as usize).sum::<usize>();
            if (self.min_side..=self.max_side).contains(&ones.min(n - ones)) {
                freq_sum += u64::from(frozen.frequency_words(w));
                q_splits += 1;
            }
        });
        RfAverage {
            left: frozen.sum() - freq_sum,
            right: q_splits * r - freq_sum,
            n_refs: frozen.n_trees(),
        }
    }
}

/// Normalize an average RF to `[0, 1]` by its maximum `2(n−3)` for binary
/// trees on `n` taxa.
pub fn normalized_average(rf: &RfAverage, n_taxa: usize) -> f64 {
    assert!(n_taxa >= 4, "normalization needs n ≥ 4");
    rf.average() / (2.0 * (n_taxa as f64 - 3.0))
}

/// Kuhner–Felsenstein branch-score distance between two trees: the
/// Euclidean distance between their split-indexed branch-length vectors
/// (splits absent from a tree contribute length 0).
///
/// Unlike count-based variants this depends on *which tree* a split came
/// from, so it is pairwise-only — it cannot be folded into a frequency
/// hash, and the paper makes no claim that it can.
pub fn branch_score(t1: &Tree, t2: &Tree, taxa: &TaxonSet) -> f64 {
    let w1 = t1.weighted_bipartitions(taxa);
    let w2 = t2.weighted_bipartitions(taxa);
    let mut sum = 0.0f64;
    for (bits, &l1) in w1.iter() {
        let l2 = w2.get(bits).copied().unwrap_or(0.0);
        sum += (l1 - l2) * (l1 - l2);
    }
    for (bits, &l2) in w2.iter() {
        if !w1.contains_key(bits) {
            sum += l2 * l2;
        }
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comparator, DayComparator};
    use phylo::{read_trees_from_str, TaxaPolicy, TreeCollection};

    fn setup() -> (TreeCollection, Vec<Tree>) {
        let mut refs = TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));",
        )
        .unwrap();
        let queries = read_trees_from_str(
            "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));",
            &mut refs.taxa,
            TaxaPolicy::Require,
        )
        .unwrap();
        (refs, queries)
    }

    #[test]
    fn unit_weight_recovers_standard_rf() {
        let (refs, queries) = setup();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let gen = GeneralizedRf::new(&bfh, UnitWeight);
        let day = DayComparator::new(&refs.trees, &refs.taxa);
        for q in &queries {
            let exact = day.average(q).unwrap();
            assert!(
                (gen.average(q, &refs.taxa) - exact.average()).abs() < 1e-9,
                "unit-weighted generalized RF must equal standard RF"
            );
        }
    }

    #[test]
    fn phylo_info_weight_values() {
        // n=6: P(cherry, a=2) = 1·(2·4−3)!!/(2·6−5)!! = 5!!/7!! = 1/7
        let w = PhyloInfoWeight::new(6);
        let cherry = Bits::from_indices(6, [0, 1]);
        let info = w.weight(&cherry, 6);
        assert!((info - (7.0f64).log2()).abs() < 1e-12, "got {info}");
        // balanced split a=b=3: P = 3!!·3!!/7!! = 9/105 = 3/35
        let balanced = Bits::from_indices(6, [0, 1, 2]);
        let info_b = w.weight(&balanced, 6);
        assert!(
            (info_b - (35.0f64 / 3.0).log2()).abs() < 1e-12,
            "got {info_b}"
        );
        assert!(
            info_b > info,
            "balanced splits carry more information than cherries"
        );
    }

    #[test]
    fn info_weighted_rf_orders_disagreements() {
        let (refs, queries) = setup();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let gen = GeneralizedRf::new(&bfh, PhyloInfoWeight::new(refs.taxa.len()));
        let d_same = gen.average(&queries[0], &refs.taxa);
        let d_diff = gen.average(&queries[1], &refs.taxa);
        assert!(d_same < d_diff);
        assert!(d_same >= 0.0);
    }

    #[test]
    fn size_filter_keeps_only_requested_band() {
        let (refs, queries) = setup();
        // only cherries (smaller side exactly 2)
        let filt = SizeFilteredRf::new(&refs.trees, &refs.taxa, 2, 2);
        assert!(filt.frozen.distinct() > 0);
        for mask in filt.frozen.pool_lane().chunks(filt.frozen.words()) {
            let ones = mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
            assert_eq!(ones.min(6 - ones), 2);
        }
        let a = filt.average(&queries[0], &refs.taxa);
        // the scratch-extracted query side keeps exactly the splits the
        // tree-walking filter keeps
        for q in &queries {
            let kept = q.bipartitions_filtered(&refs.taxa, |b| b.smaller_side(6) == 2);
            let hits: u64 = kept
                .iter()
                .map(|b| u64::from(filt.frozen.frequency(b.bits())))
                .sum();
            let got = filt.average(q, &refs.taxa);
            assert_eq!(got.right, kept.len() as u64 * 3 - hits);
            assert_eq!(got.left, filt.frozen.sum() - hits);
        }
        // filtered distances are bounded by unfiltered ones
        let day = DayComparator::new(&refs.trees, &refs.taxa);
        let full = day.average(&queries[0]).unwrap();
        assert!(a.total() <= full.total());
    }

    #[test]
    fn size_filter_full_band_is_identity() {
        let (refs, queries) = setup();
        let filt = SizeFilteredRf::new(&refs.trees, &refs.taxa, 2, 4);
        let day = DayComparator::new(&refs.trees, &refs.taxa);
        for q in &queries {
            assert_eq!(filt.average(q, &refs.taxa), day.average(q).unwrap());
        }
    }

    #[test]
    fn normalization_bounds() {
        let (refs, queries) = setup();
        let day = DayComparator::new(&refs.trees, &refs.taxa);
        for q in &queries {
            let rf = day.average(q).unwrap();
            let norm = normalized_average(&rf, refs.taxa.len());
            assert!(
                (0.0..=1.0).contains(&norm),
                "normalized {norm} out of range"
            );
        }
    }

    #[test]
    fn branch_score_basics() {
        let mut taxa = phylo::TaxonSet::new();
        let trees = read_trees_from_str(
            "((A:1,B:1):0.5,(C:1,D:1):0.5);\n((A:1,B:1):0.7,(C:1,D:1):0.7);\n((A:1,C:1):0.5,(B:1,D:1):0.5);",
            &mut taxa,
            TaxaPolicy::Grow,
        )
        .unwrap();
        // identical topology & lengths → 0
        assert_eq!(branch_score(&trees[0], &trees[0], &taxa), 0.0);
        // same topology, internal edge 1.0 vs 1.4 → |Δ| = 0.4
        let d01 = branch_score(&trees[0], &trees[1], &taxa);
        assert!((d01 - 0.4).abs() < 1e-12, "got {d01}");
        // different topology: sqrt(1² + 1²) with both internal edges = 1.0
        let d02 = branch_score(&trees[0], &trees[2], &taxa);
        assert!((d02 - (2.0f64).sqrt()).abs() < 1e-12, "got {d02}");
        // symmetry
        assert_eq!(d02, branch_score(&trees[2], &trees[0], &taxa));
    }
}
