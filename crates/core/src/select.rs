//! Best-query-tree selection.
//!
//! The paper's motivating workload (§I): given query trees `Q` and
//! references `R`, find the query with the lowest collective RF distance —
//! the most-parsimonious representative under the RF criterion.

use crate::rf::QueryScore;

/// The query with minimal total RF; ties break to the lowest index so the
/// answer is deterministic. `None` iff `scores` is empty.
pub fn best_query(scores: &[QueryScore]) -> Option<&QueryScore> {
    scores
        .iter()
        .min_by(|a, b| a.rf.total().cmp(&b.rf.total()).then(a.index.cmp(&b.index)))
}

/// Indices sorted by ascending total RF (ties by index): a full ranking of
/// the query collection.
pub fn rank_queries(scores: &[QueryScore]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&x, &y| {
        scores[x]
            .rf
            .total()
            .cmp(&scores[y].rf.total())
            .then(scores[x].index.cmp(&scores[y].index))
    });
    order.into_iter().map(|i| scores[i].index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::RfAverage;

    fn score(index: usize, left: u64, right: u64) -> QueryScore {
        QueryScore {
            index,
            rf: RfAverage {
                left,
                right,
                n_refs: 10,
            },
        }
    }

    #[test]
    fn picks_minimum_total() {
        let scores = vec![score(0, 5, 5), score(1, 1, 2), score(2, 4, 0)];
        assert_eq!(best_query(&scores).unwrap().index, 1);
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let scores = vec![score(0, 2, 2), score(1, 1, 3), score(2, 4, 0)];
        assert_eq!(best_query(&scores).unwrap().index, 0);
    }

    #[test]
    fn empty_is_none() {
        assert!(best_query(&[]).is_none());
        assert!(rank_queries(&[]).is_empty());
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let scores = vec![score(0, 9, 9), score(1, 0, 0), score(2, 3, 3)];
        assert_eq!(rank_queries(&scores), vec![1, 2, 0]);
    }

    #[test]
    fn end_to_end_selection() {
        use crate::{Bfh, Comparator, FrozenComparator};
        let mut refs = phylo::TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,B),((C,E),(D,F)));",
        )
        .unwrap();
        let queries = phylo::read_trees_from_str(
            "((A,E),((C,D),(B,F)));\n((A,B),((C,D),(E,F)));",
            &mut refs.taxa,
            phylo::TaxaPolicy::Require,
        )
        .unwrap();
        let frozen = Bfh::build(&refs.trees, &refs.taxa).freeze();
        let scores = FrozenComparator::new(&frozen, &refs.taxa)
            .average_all(&queries)
            .unwrap();
        // query 1 matches the majority topology: it must win
        assert_eq!(best_query(&scores).unwrap().index, 1);
    }
}
