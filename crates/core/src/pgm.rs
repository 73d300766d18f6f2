//! A PGM-Hashed-style pairwise comparator (Pattengale, Gottlieb & Moret
//! 2007, "Efficiently computing the Robinson-Foulds metric").
//!
//! The paper's related-work section names PGM-Hashed alongside HashRF as
//! the state of the art it improves on: both "use hash functions with
//! compression to speed up computations while allowing for collisions",
//! and both remain 1-versus-1 — `q × r` comparisons happen even though
//! each comparison is fast.
//!
//! The scheme: every taxon draws a random `b`-bit vector; a bipartition's
//! signature is the wrapping sum of its member vectors, canonicalized to
//! the lesser of (sum, complement-sum) so the two sides of a split agree.
//! A tree becomes a **sorted signature list**, and the RF of two trees is
//! a linear merge of their lists. Distinct splits collide with probability
//! `≈ (#splits)² / 2^b` — real collisions at small `b`, vanishing at 64
//! bits, mirroring the original's accuracy/width trade-off (and HashRF's).

use phylo::{TaxonSet, Tree};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shared randomness: the per-taxon vectors every signature sums over.
#[derive(Debug, Clone)]
pub struct PgmHasher {
    taxon_vectors: Vec<u64>,
    mask: u64,
}

/// One tree preprocessed into its sorted signature list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSignature {
    signatures: Vec<u64>,
}

impl PgmHasher {
    /// Draw per-taxon vectors for an `n_taxa` namespace with `bits`-wide
    /// signatures (1..=64).
    pub fn new(n_taxa: usize, bits: u32, seed: u64) -> Self {
        assert!((1..=64).contains(&bits), "signature width must be 1..=64");
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        PgmHasher {
            taxon_vectors: (0..n_taxa).map(|_| rng.random_range(0..u64::MAX)).collect(),
            mask,
        }
    }

    /// Preprocess one tree: signature per non-trivial split, sorted.
    pub fn signature(&self, tree: &Tree, taxa: &TaxonSet) -> TreeSignature {
        assert_eq!(taxa.len(), self.taxon_vectors.len(), "namespace mismatch");
        // total = Σ over ALL taxa, to derive the complement sum cheaply
        let total: u64 = self
            .taxon_vectors
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_add(v));
        let mut signatures: Vec<u64> = tree
            .bipartitions(taxa)
            .into_iter()
            .map(|bp| {
                let side: u64 = bp
                    .bits()
                    .iter_ones()
                    .fold(0u64, |acc, i| acc.wrapping_add(self.taxon_vectors[i]));
                let co = total.wrapping_sub(side);
                // orientation-free: take the lesser masked sum
                (side & self.mask).min(co & self.mask)
            })
            .collect();
        signatures.sort_unstable();
        TreeSignature { signatures }
    }

    /// RF distance of two preprocessed trees: symmetric difference of the
    /// sorted signature multisets by linear merge.
    pub fn rf(&self, a: &TreeSignature, b: &TreeSignature) -> usize {
        let (x, y) = (&a.signatures, &b.signatures);
        let mut i = 0;
        let mut j = 0;
        let mut shared = 0usize;
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        x.len() + y.len() - 2 * shared
    }

    /// Average RF of one query against preprocessed references — the
    /// 1-versus-1 loop the paper contrasts with BFHRF's single hash probe.
    pub fn average_rf(&self, query: &TreeSignature, refs: &[TreeSignature]) -> f64 {
        assert!(!refs.is_empty(), "empty reference collection");
        let total: usize = refs.iter().map(|r| self.rf(query, r)).sum();
        total as f64 / refs.len() as f64
    }
}

impl TreeSignature {
    /// Number of non-trivial splits signed.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether the tree had no non-trivial splits.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Comparator as _;
    use phylo::{BipartitionSet, TreeCollection};

    fn collection() -> TreeCollection {
        TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,E),(D,F)));",
        )
        .unwrap()
    }

    #[test]
    fn wide_signatures_match_exact_rf() {
        let coll = collection();
        let h = PgmHasher::new(coll.taxa.len(), 64, 42);
        let sigs: Vec<_> = coll
            .trees
            .iter()
            .map(|t| h.signature(t, &coll.taxa))
            .collect();
        let sets: Vec<_> = coll
            .trees
            .iter()
            .map(|t| BipartitionSet::from_tree(t, &coll.taxa))
            .collect();
        for i in 0..coll.len() {
            for j in 0..coll.len() {
                assert_eq!(
                    h.rf(&sigs[i], &sigs[j]),
                    sets[i].rf_distance(&sets[j]),
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn orientation_free_signatures() {
        // the same unrooted tree rooted differently must sign identically
        let mut taxa = phylo::TaxonSet::new();
        let trees = phylo::read_trees_from_str(
            "(((A,B),C),(D,(E,F)));\n((A,B),(C,(D,(E,F))));",
            &mut taxa,
            phylo::TaxaPolicy::Grow,
        )
        .unwrap();
        let h = PgmHasher::new(taxa.len(), 64, 7);
        assert_eq!(h.signature(&trees[0], &taxa), h.signature(&trees[1], &taxa));
    }

    #[test]
    fn average_matches_bfhrf() {
        let coll = collection();
        let h = PgmHasher::new(coll.taxa.len(), 64, 11);
        let sigs: Vec<_> = coll
            .trees
            .iter()
            .map(|t| h.signature(t, &coll.taxa))
            .collect();
        let frozen = crate::Bfh::build(&coll.trees, &coll.taxa).freeze();
        let scores = crate::FrozenComparator::new(&frozen, &coll.taxa)
            .average_all(&coll.trees)
            .unwrap();
        for s in &scores {
            let pgm = h.average_rf(&sigs[s.index], &sigs);
            assert!((pgm - s.rf.average()).abs() < 1e-12, "tree {}", s.index);
        }
    }

    #[test]
    fn narrow_signatures_collide() {
        // 2-bit signatures on a 12-split collection must conflate splits
        let coll = collection();
        let h = PgmHasher::new(coll.taxa.len(), 2, 3);
        let sigs: Vec<_> = coll
            .trees
            .iter()
            .map(|t| h.signature(t, &coll.taxa))
            .collect();
        let sets: Vec<_> = coll
            .trees
            .iter()
            .map(|t| BipartitionSet::from_tree(t, &coll.taxa))
            .collect();
        let mut wrong = 0;
        for i in 0..coll.len() {
            for j in 0..coll.len() {
                if h.rf(&sigs[i], &sigs[j]) != sets[i].rf_distance(&sets[j]) {
                    wrong += 1;
                }
            }
        }
        assert!(wrong > 0, "2-bit signatures should err somewhere");
    }

    #[test]
    fn deterministic_given_seed() {
        let coll = collection();
        let h1 = PgmHasher::new(coll.taxa.len(), 64, 5);
        let h2 = PgmHasher::new(coll.taxa.len(), 64, 5);
        for t in &coll.trees {
            assert_eq!(h1.signature(t, &coll.taxa), h2.signature(t, &coll.taxa));
        }
    }

    #[test]
    fn empty_and_small_trees() {
        let mut taxa = phylo::TaxonSet::new();
        let t = phylo::parse_newick("((A,B),C);", &mut taxa, phylo::TaxaPolicy::Grow).unwrap();
        let h = PgmHasher::new(taxa.len(), 64, 1);
        let sig = h.signature(&t, &taxa);
        assert!(sig.is_empty(), "3-leaf trees have no non-trivial splits");
        assert_eq!(h.rf(&sig, &sig), 0);
    }
}
