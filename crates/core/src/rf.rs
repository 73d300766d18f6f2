//! The BFHRF query results — the paper's Algorithm 2, second loop.
//!
//! Each query tree is compared against the frequency hash once, in
//! `O(n²)`, independently of `r` and of every other query. The probe loop
//! itself lives on the frozen table ([`FrozenBfh::average_batch`]); this
//! module holds its result types and the streaming entry point. Totals are
//! accumulated in integers; division by `r` happens only in
//! [`RfAverage::average`], so results are exact and deterministic
//! regardless of parallel scheduling.

use crate::frozen::FrozenBfh;
use crate::CoreError;
use phylo::{BipartitionScratch, IngestPolicy, NewickReader, TaxaPolicy, TaxonSet};
use std::io::BufRead;

/// Exact average-RF result for one query tree against a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfAverage {
    /// Σ_T |B(T) \ B(T′)| — reference splits absent from the query
    /// (the paper's `RF_left`).
    pub left: u64,
    /// Σ_T |B(T′) \ B(T)| — query splits absent from each reference
    /// (the paper's `RF_right`).
    pub right: u64,
    /// Number of reference trees `r`.
    pub n_refs: usize,
}

impl RfAverage {
    /// Total RF distance summed over all reference trees.
    #[inline]
    pub fn total(&self) -> u64 {
        self.left + self.right
    }

    /// The average RF distance, `total / r`.
    #[inline]
    pub fn average(&self) -> f64 {
        self.total() as f64 / self.n_refs as f64
    }

    /// The average of the "divide by 2" RF convention some tools report
    /// (paper §II.C: "often defined with a divide by 2").
    #[inline]
    pub fn average_halved(&self) -> f64 {
        self.average() / 2.0
    }
}

/// One query's index and score, as produced by the batch entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryScore {
    /// Position of the query tree in its collection.
    pub index: usize,
    /// Exact average-RF result.
    pub rf: RfAverage,
}

/// Average RF of every query tree read from a Newick stream, without ever
/// holding more than one query in memory. Labels must resolve against
/// `taxa` (the namespace the table was built over).
pub fn bfhrf_streaming<R: BufRead>(
    reader: R,
    taxa: &mut TaxonSet,
    frozen: &FrozenBfh,
) -> Result<Vec<QueryScore>, CoreError> {
    if frozen.n_trees() == 0 {
        return Err(CoreError::EmptyReference);
    }
    let mut stream = NewickReader::new(reader, TaxaPolicy::Require, IngestPolicy::Strict);
    let mut scratch = BipartitionScratch::new();
    let mut out = Vec::new();
    while let Some(tree) = stream.next_tree(taxa)? {
        out.push(QueryScore {
            index: out.len(),
            rf: frozen.average_scratch(&tree, taxa, &mut scratch),
        });
    }
    if out.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bfh, Comparator, FrozenComparator};
    use phylo::{Tree, TreeCollection};

    fn setup(refs: &str, queries: &str) -> (TreeCollection, Vec<Tree>, FrozenBfh) {
        // Parse refs growing the namespace, then queries against it so the
        // bit layout is shared.
        let mut refs_coll = TreeCollection::parse(refs).unwrap();
        let queries =
            phylo::read_trees_from_str(queries, &mut refs_coll.taxa, TaxaPolicy::Require).unwrap();
        let frozen = Bfh::build(&refs_coll.trees, &refs_coll.taxa).freeze();
        (refs_coll, queries, frozen)
    }

    fn average(query: &Tree, taxa: &TaxonSet, frozen: &FrozenBfh) -> RfAverage {
        FrozenComparator::new(frozen, taxa).average(query).unwrap()
    }

    #[test]
    fn paper_worked_example() {
        // R = {((A,B),(C,D)) ×2, ((A,C),(B,D))}; query ((A,B),(C,D)):
        // distances 0, 0, 2 → left 1, right 1, avg 2/3.
        let (refs, queries, frozen) = setup(
            "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));",
            "((A,B),(C,D));",
        );
        let avg = average(&queries[0], &refs.taxa, &frozen);
        assert_eq!(avg.left, 1);
        assert_eq!(avg.right, 1);
        assert_eq!(avg.total(), 2);
        assert!((avg.average() - 2.0 / 3.0).abs() < 1e-15);
        assert!((avg.average_halved() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn identical_collection_gives_zero() {
        let (refs, queries, frozen) = setup("((A,B),(C,D));", "((A,B),(C,D));");
        let avg = average(&queries[0], &refs.taxa, &frozen);
        assert_eq!(avg.total(), 0);
        assert_eq!(avg.average(), 0.0);
    }

    #[test]
    fn disjoint_splits_give_maximum() {
        // 4-taxa trees with different internal splits: RF = 2 each.
        let (refs, queries, frozen) = setup("((A,B),(C,D));\n((A,B),(C,D));", "((A,C),(B,D));");
        let avg = average(&queries[0], &refs.taxa, &frozen);
        assert_eq!(avg.total(), 4);
        assert_eq!(avg.average(), 2.0);
    }

    #[test]
    fn all_and_parallel_comparator_agree() {
        let refs = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));";
        let queries = "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));";
        let (refs_coll, qs, frozen) = setup(refs, queries);
        let seq = FrozenComparator::new(&frozen, &refs_coll.taxa)
            .average_all(&qs)
            .unwrap();
        let par = FrozenComparator::new(&frozen, &refs_coll.taxa)
            .parallel(true)
            .average_all(&qs)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].index, 0);
        assert_eq!(seq[1].index, 1);
    }

    #[test]
    fn streaming_matches_batch() {
        let refs = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));";
        let queries = "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));";
        let (mut refs_coll, qs, frozen) = setup(refs, queries);
        let batch = FrozenComparator::new(&frozen, &refs_coll.taxa)
            .average_all(&qs)
            .unwrap();
        let streamed = bfhrf_streaming(queries.as_bytes(), &mut refs_coll.taxa, &frozen).unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let (mut refs, _, frozen) = setup("((A,B),(C,D));", "((A,C),(B,D));");
        assert_eq!(
            bfhrf_streaming(&b""[..], &mut refs.taxa, &frozen).unwrap_err(),
            CoreError::EmptyQuery
        );
        let empty = Bfh::empty(refs.taxa.len()).freeze();
        assert_eq!(
            bfhrf_streaming(&b"((A,C),(B,D));"[..], &mut refs.taxa, &empty).unwrap_err(),
            CoreError::EmptyReference
        );
    }

    #[test]
    fn q_equals_r_self_average() {
        // When Q is R (the paper's experimental setting), each tree's
        // average includes its own zero distance.
        let text = "((A,B),(C,D));\n((A,C),(B,D));";
        let refs = TreeCollection::parse(text).unwrap();
        let frozen = Bfh::build(&refs.trees, &refs.taxa).freeze();
        let scores = FrozenComparator::new(&frozen, &refs.taxa)
            .average_all(&refs.trees)
            .unwrap();
        // each tree: distance 0 to itself, 2 to the other → avg 1
        for s in &scores {
            assert_eq!(s.rf.total(), 2);
            assert_eq!(s.rf.average(), 1.0);
        }
    }

    #[test]
    fn multifurcating_queries_are_supported() {
        // A star query has no internal splits: left = sumBFHR, right = 0.
        let (refs, qs, frozen) = setup("((A,B),(C,D));\n((A,C),(B,D));", "(A,B,C,D);");
        let avg = average(&qs[0], &refs.taxa, &frozen);
        assert_eq!(avg.left, frozen.sum());
        assert_eq!(avg.right, 0);
    }
}
