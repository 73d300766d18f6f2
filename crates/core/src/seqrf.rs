//! The sequential baselines — the paper's Algorithm 1.
//!
//! `DendropySingle` (DS) precomputes the bipartition sets of every
//! reference tree, then runs the `q × r` double loop of symmetric set
//! differences. `DendropySingleMP` (DSMP) is the same computation with the
//! query loop parallelized at the tree level. Both are `O(n²qr)` time and
//! `O(n²r)` space, and exist here to reproduce the paper's comparisons —
//! use [`crate::FrozenComparator`] for real work.

use crate::rf::{QueryScore, RfAverage};
use crate::CoreError;
use phylo::{BipartitionSet, TaxonSet, Tree};

fn check(queries: &[Tree], refs: &[Tree]) -> Result<(), CoreError> {
    if refs.is_empty() {
        return Err(CoreError::EmptyReference);
    }
    if queries.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    Ok(())
}

fn score_against(
    index: usize,
    query: &Tree,
    taxa: &TaxonSet,
    ref_sets: &[BipartitionSet],
) -> QueryScore {
    let q_set = BipartitionSet::from_tree(query, taxa);
    let mut left = 0u64;
    let mut right = 0u64;
    for r_set in ref_sets {
        // split the symmetric difference into the paper's two terms so the
        // result is field-by-field comparable with BFHRF output
        let shared = if q_set.len() <= r_set.len() {
            q_set
                .iter()
                .filter(|b| {
                    // probe the larger set through the public membership API
                    r_set.contains_bits(b)
                })
                .count()
        } else {
            r_set.iter().filter(|b| q_set.contains_bits(b)).count()
        };
        left += (r_set.len() - shared) as u64;
        right += (q_set.len() - shared) as u64;
    }
    QueryScore {
        index,
        rf: RfAverage {
            left,
            right,
            n_refs: ref_sets.len(),
        },
    }
}

/// Algorithm 1 (DS): sequential average RF of each query against all
/// references.
pub fn sequential_rf(
    queries: &[Tree],
    refs: &[Tree],
    taxa: &TaxonSet,
) -> Result<Vec<QueryScore>, CoreError> {
    check(queries, refs)?;
    let ref_sets: Vec<BipartitionSet> = refs
        .iter()
        .map(|t| BipartitionSet::from_tree(t, taxa))
        .collect();
    Ok(queries
        .iter()
        .enumerate()
        .map(|(i, q)| score_against(i, q, taxa, &ref_sets))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfh::Bfh;
    use crate::{Comparator, FrozenComparator};
    use phylo::TreeCollection;

    fn six_taxa_collections() -> (TreeCollection, Vec<Tree>) {
        let mut refs = TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,E),(D,F)));",
        )
        .unwrap();
        let queries = phylo::read_trees_from_str(
            "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));\n(((A,B),C),((D,E),F));",
            &mut refs.taxa,
            phylo::TaxaPolicy::Require,
        )
        .unwrap();
        (refs, queries)
    }

    #[test]
    fn ds_matches_bfhrf_exactly() {
        let (refs, queries) = six_taxa_collections();
        let ds = sequential_rf(&queries, &refs.trees, &refs.taxa).unwrap();
        let frozen = Bfh::build(&refs.trees, &refs.taxa).freeze();
        let fast = FrozenComparator::new(&frozen, &refs.taxa)
            .average_all(&queries)
            .unwrap();
        assert_eq!(
            ds, fast,
            "Algorithm 1 and Algorithm 2 must agree field-by-field"
        );
    }

    #[test]
    fn dsmp_comparator_matches_ds() {
        let (refs, queries) = six_taxa_collections();
        let ds = sequential_rf(&queries, &refs.trees, &refs.taxa).unwrap();
        let dsmp = crate::SetComparator::new(&refs.trees, &refs.taxa)
            .parallel(true)
            .average_all(&queries)
            .unwrap();
        assert_eq!(ds, dsmp);
    }

    #[test]
    fn empty_collections_error() {
        let (refs, queries) = six_taxa_collections();
        assert_eq!(
            sequential_rf(&[], &refs.trees, &refs.taxa).unwrap_err(),
            CoreError::EmptyQuery
        );
        assert_eq!(
            sequential_rf(&queries, &[], &refs.taxa).unwrap_err(),
            CoreError::EmptyReference
        );
    }
}
