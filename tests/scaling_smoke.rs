//! Medium-scale smoke tests: the properties the paper's evaluation rests
//! on must already be visible at test-suite-friendly sizes.

use bfhrf::{Bfh, Comparator, FrozenComparator, QueryScore, SetComparator};
use phylo::{TaxonSet, Tree};
use phylo_sim::DatasetSpec;

/// BFHRF scores of `queries`: freeze `bfh`, then score in parallel — the
/// path `bfhrf avgrf` runs.
fn bfhrf_scores(bfh: &Bfh, taxa: &TaxonSet, queries: &[Tree]) -> Vec<QueryScore> {
    FrozenComparator::from_owned(bfh.freeze(), taxa)
        .parallel(true)
        .average_all(queries)
        .unwrap()
}

/// §VII.C: the number of distinct splits saturates as r grows (repeat
/// splits only bump counters), while sumBFHR grows linearly.
#[test]
fn hash_growth_saturates_in_r() {
    let mut spec = DatasetSpec::new("growth", 32, 1200, 3);
    spec.pop_scale = 0.2; // concordant collection: few distinct splits
    let coll = phylo_sim::generate(&spec);
    let b300 = Bfh::build(&coll.trees[..300], &coll.taxa);
    let b600 = Bfh::build(&coll.trees[..600], &coll.taxa);
    let b1200 = Bfh::build(&coll.trees, &coll.taxa);
    // occurrences grow exactly linearly (every binary tree has n-3 splits)
    assert_eq!(b600.sum(), 2 * b300.sum());
    assert_eq!(b1200.sum(), 4 * b300.sum());
    // distinct splits grow sublinearly — the *per-tree* rate of new
    // splits falls as the common splits are already present
    let first = (b600.distinct() - b300.distinct()) as f64 / 300.0;
    let second = (b1200.distinct() - b600.distinct()) as f64 / 600.0;
    assert!(
        second < first,
        "new-split rate should decelerate: {first:.2}/tree then {second:.2}/tree"
    );
    assert!(
        b1200.distinct() < b1200.sum() as usize / 4,
        "concordant collection must share heavily"
    );
}

/// The self-average (Q is R) of a perfectly concordant collection is 0,
/// and grows with discordance.
#[test]
fn self_average_tracks_discordance() {
    let mean_self = |pop_scale: f64| {
        let mut spec = DatasetSpec::new("disc", 16, 150, 8);
        spec.pop_scale = pop_scale;
        let coll = phylo_sim::generate(&spec);
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        let scores = bfhrf_scores(&bfh, &coll.taxa, &coll.trees);
        scores.iter().map(|s| s.rf.average()).sum::<f64>() / scores.len() as f64
    };
    let low = mean_self(1e-4);
    let mid = mean_self(0.5);
    let high = mean_self(50.0);
    assert!(low < 0.05, "near-zero ILS → near-zero distances, got {low}");
    assert!(low < mid && mid < high, "{low} < {mid} < {high} expected");
    // distances are bounded by 2(n-3)
    assert!(high <= 2.0 * 13.0);
}

/// Exact equality of BFHRF and the naive baseline at a scale where the
/// naive loop is still feasible (r=400 → 160k pairwise comparisons).
#[test]
fn medium_scale_exact_agreement() {
    let coll = phylo_sim::generate(&DatasetSpec::new("medium", 50, 400, 17));
    let bfh = Bfh::build_sharded(&coll.trees, &coll.taxa, 8);
    let fast = bfhrf_scores(&bfh, &coll.taxa, &coll.trees);
    let slow = SetComparator::new(&coll.trees, &coll.taxa)
        .parallel(true)
        .average_all(&coll.trees)
        .unwrap();
    assert_eq!(fast, slow);
    // the matrix route agrees too
    let m = bfhrf::matrix::rf_matrix_exact(&coll.trees, &coll.taxa, usize::MAX).unwrap();
    for s in fast.iter().step_by(37) {
        assert!((m.row_mean(s.index) - s.rf.average()).abs() < 1e-9);
    }
}

/// Duplicate-heavy input: a collection made of one topology repeated must
/// produce zero distances and a single-entry-per-split hash.
#[test]
fn degenerate_duplicate_collection() {
    let coll = phylo_sim::generate(&DatasetSpec::new("dup", 20, 1, 5));
    let tree = coll.trees[0].clone();
    let trees: Vec<_> = (0..100).map(|_| tree.clone()).collect();
    let bfh = Bfh::build(&trees, &coll.taxa);
    assert_eq!(bfh.distinct(), 17, "n-3 distinct splits");
    assert_eq!(bfh.sum(), 1700);
    let scores = bfhrf_scores(&bfh, &coll.taxa, &trees);
    assert!(scores.iter().all(|s| s.rf.total() == 0));
}
