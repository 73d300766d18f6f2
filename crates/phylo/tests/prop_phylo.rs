//! Property-based tests for the phylo substrate: random binary trees must
//! satisfy the textbook invariants (split counts, round-trips, edit-move
//! distances) for every topology, not just hand-picked examples.

mod reference_newick;

use phylo::{parse_newick, write_newick, PhyloError, TaxaPolicy, TaxonSet, Tree};
use phylo_bitset::Bits;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Build a uniform-ish random binary tree on `n` taxa by sequential leaf
/// insertion: each new leaf subdivides a uniformly chosen existing edge.
fn random_binary_tree(n: usize, seed: u64) -> (Tree, TaxonSet) {
    assert!(n >= 2);
    let taxa = TaxonSet::with_numbered("t", n);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut t, root) = Tree::with_root();
    t.add_leaf(root, phylo::TaxonId(0));
    t.add_leaf(root, phylo::TaxonId(1));
    for i in 2..n {
        // collect current edges (parent, child)
        let edges: Vec<_> = t.edges().collect();
        let (p, c) = edges[rng.random_range(0..edges.len())];
        t.detach_child(p, c);
        let mid = t.add_child(p);
        t.attach_child(mid, c);
        t.add_leaf(mid, phylo::TaxonId(i as u32));
    }
    (t, taxa)
}

fn split_set(t: &Tree, taxa: &TaxonSet) -> Vec<Bits> {
    let mut v: Vec<Bits> = t
        .bipartitions(taxa)
        .into_iter()
        .map(|b| b.into_bits())
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_trees_have_n_minus_3_splits(n in 4usize..60, seed in any::<u64>()) {
        let (t, taxa) = random_binary_tree(n, seed);
        prop_assert!(t.is_binary());
        prop_assert_eq!(t.validate(&taxa).unwrap(), n);
        prop_assert_eq!(t.bipartitions(&taxa).len(), n - 3);
    }

    #[test]
    fn newick_roundtrip_preserves_splits(n in 4usize..50, seed in any::<u64>()) {
        let (t, taxa) = random_binary_tree(n, seed);
        let text = write_newick(&t, &taxa);
        let mut taxa2 = taxa.clone();
        let t2 = parse_newick(&text, &mut taxa2, TaxaPolicy::Require).unwrap();
        prop_assert_eq!(taxa2.len(), taxa.len());
        prop_assert_eq!(split_set(&t2, &taxa2), split_set(&t, &taxa));
    }

    #[test]
    fn compaction_preserves_splits(n in 4usize..40, seed in any::<u64>()) {
        let (t, taxa) = random_binary_tree(n, seed);
        let c = t.compacted();
        prop_assert_eq!(c.num_nodes(), 2 * n - 1);
        prop_assert_eq!(split_set(&c, &taxa), split_set(&t, &taxa));
    }

    #[test]
    fn nni_move_is_rf_two(n in 5usize..40, seed in any::<u64>(), pick in any::<u64>()) {
        let (mut t, taxa) = random_binary_tree(n, seed);
        let before = split_set(&t, &taxa);
        let edges = t.nni_edges();
        prop_assume!(!edges.is_empty());
        let (p, c) = edges[(pick as usize) % edges.len()];
        t.nni(p, c, (pick as usize / 7) % 2, 0).unwrap();
        prop_assert!(t.validate(&taxa).is_ok());
        prop_assert!(t.is_binary());
        let after = split_set(&t, &taxa);
        let removed = before.iter().filter(|b| !after.contains(b)).count();
        let added = after.iter().filter(|b| !before.contains(b)).count();
        // an NNI replaces exactly one internal split
        prop_assert_eq!((removed, added), (1, 1));
    }

    #[test]
    fn restriction_is_valid_and_monotone(n in 6usize..40, seed in any::<u64>(), mask_seed in any::<u64>()) {
        let (t, taxa) = random_binary_tree(n, seed);
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let mut keep = Bits::zeros(n);
        for i in 0..n {
            if rng.random_range(0..3) != 0 {
                keep.set(i);
            }
        }
        prop_assume!(keep.count_ones() >= 1);
        let r = t.restricted(&keep).unwrap();
        prop_assert_eq!(r.leaf_count() as u32, keep.count_ones());
        prop_assert!(r.validate(&taxa).is_ok());
        // every split of the restriction is the restriction of some split
        let leafset = t.leafset(n);
        let restricted_originals: Vec<Bits> = t
            .bipartitions(&taxa)
            .iter()
            .map(|b| {
                let side = b.bits().intersection(&keep);
                // canonicalize within the kept leafset
                let kept_leaves = leafset.intersection(&keep);
                let anchor = kept_leaves.first_one().unwrap();
                if side.get(anchor) { side } else { kept_leaves.difference(&side) }
            })
            .collect();
        for split in r.bipartitions(&taxa) {
            prop_assert!(
                restricted_originals.contains(split.bits()),
                "split {} of restriction not induced by any original split",
                split
            );
        }
    }

    #[test]
    fn spr_keeps_tree_valid(n in 6usize..40, seed in any::<u64>(), pick in any::<u64>()) {
        let (mut t, taxa) = random_binary_tree(n, seed);
        let root = t.root().unwrap();
        let nodes: Vec<_> = t
            .postorder()
            .into_iter()
            .filter(|&x| x != root)
            .collect();
        let prune = nodes[(pick as usize) % nodes.len()];
        let target = nodes[(pick as usize / 13) % nodes.len()];
        match t.spr(prune, target) {
            Ok(()) => {
                let t = t.compacted();
                prop_assert!(t.validate(&taxa).is_ok());
                prop_assert_eq!(t.leaf_count(), n);
                prop_assert!(t.is_binary());
            }
            Err(_) => {
                // rejected moves must not corrupt arithmetic invariants:
                // the tree may have been partially modified only in ways
                // that keep it a valid tree
                prop_assert!(t.compacted().validate(&taxa).is_ok());
            }
        }
    }

    #[test]
    fn rf_distance_is_a_metric_on_samples(
        n in 4usize..30,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
    ) {
        use phylo::BipartitionSet;
        let (t1, taxa) = random_binary_tree(n, s1);
        let (t2, _) = random_binary_tree(n, s2);
        let (t3, _) = random_binary_tree(n, s3);
        let b1 = BipartitionSet::from_tree(&t1, &taxa);
        let b2 = BipartitionSet::from_tree(&t2, &taxa);
        let b3 = BipartitionSet::from_tree(&t3, &taxa);
        // identity, symmetry, triangle inequality
        prop_assert_eq!(b1.rf_distance(&b1), 0);
        prop_assert_eq!(b1.rf_distance(&b2), b2.rf_distance(&b1));
        prop_assert!(b1.rf_distance(&b3) <= b1.rf_distance(&b2) + b2.rf_distance(&b3));
        // bound: at most (n-3) + (n-3)
        prop_assert!(b1.rf_distance(&b2) <= 2 * (n - 3));
    }
}

// ---------------------------------------------------------------------------
// Split-extraction drivers vs the `Tree::bipartitions` oracle.
// ---------------------------------------------------------------------------

use phylo::{parse_newick_readonly, BipartitionScratch, SplitBatch, TaxonId};
use phylo_bitset::split_hash128;

/// Namespace widths around the one-word/multi-word boundaries.
const WIDTHS: [usize; 6] = [15, 63, 64, 65, 128, 129];

/// A namespace of `n` labels, some of which only Newick quoting (with
/// `''` escapes) can carry.
fn awkward_taxa(n: usize) -> TaxonSet {
    let mut taxa = TaxonSet::new();
    for i in 0..n {
        if i % 7 == 3 {
            taxa.intern(&format!("sp {i}'s (x)"));
        } else {
            taxa.intern(&format!("t{i}"));
        }
    }
    taxa
}

/// A random tree over a random subset (1..=width taxa) of an awkward
/// namespace: multifurcations up to 5 children, unary chains, edge
/// lengths, and — when `ghosts` — taxonless internal subtrees, which only
/// a hand-built arena can hold.
fn random_shaped_tree(width: usize, seed: u64, ghosts: bool) -> (Tree, TaxonSet) {
    let taxa = awkward_taxa(width);
    let mut rng = StdRng::seed_from_u64(seed);
    let want = match rng.random_range(0..4) {
        0 => rng.random_range(1..=3.min(width)),
        1 => width,
        _ => rng.random_range(1..=width),
    };
    let mut ids: Vec<u32> = (0..width as u32).collect();
    for i in 0..want {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(want);
    let (mut tree, root) = Tree::with_root();
    let mut todo = vec![(root, ids)];
    while let Some((node, part)) = todo.pop() {
        if rng.random_range(0..3) == 0 {
            tree.set_length(node, Some(rng.random_range(0..10_000) as f64 / 64.0));
        }
        if part.len() == 1 {
            // A leaf, sometimes under a unary chain.
            let mut at = node;
            for _ in 0..rng.random_range(0..3) / 2 {
                at = tree.add_child(at);
            }
            tree.add_leaf(at, TaxonId(part[0]));
            continue;
        }
        if ghosts && rng.random_range(0..6) == 0 {
            let ghost = tree.add_child(node);
            tree.add_child(ghost);
        }
        if rng.random_range(0..8) == 0 {
            let unary = tree.add_child(node);
            todo.push((unary, part));
            continue;
        }
        let groups = rng.random_range(2..=5.min(part.len()));
        let mut cuts: Vec<usize> = (1..part.len()).collect();
        for i in 0..groups - 1 {
            let j = rng.random_range(i..cuts.len());
            cuts.swap(i, j);
        }
        let mut cuts = cuts[..groups - 1].to_vec();
        cuts.sort_unstable();
        cuts.push(part.len());
        let mut start = 0;
        for cut in cuts {
            let child = tree.add_child(node);
            todo.push((child, part[start..cut].to_vec()));
            start = cut;
        }
    }
    (tree, taxa)
}

/// Length spellings beyond the tree's own value: signs, exponents,
/// `inf`, and digit runs that end before, at and after an 8-byte word.
const ODD_LENGTHS: [&str; 10] = [
    "1e-3",
    "+0.5",
    "inf",
    "-0",
    "2.5E+10",
    "1234567",
    "12345678",
    "123456789.0123456",
    "0.23073479096515997",
    "7.",
];

/// Newick text of `tree` with every dialect feature the parser accepts:
/// quoted labels (always where needed, sometimes where not), comments
/// (sometimes nested), internal labels, and edge lengths — the tree's
/// own, or sometimes an [`ODD_LENGTHS`] spelling.
fn noisy_newick(tree: &Tree, taxa: &TaxonSet, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut out = String::new();
    let node_tail = |out: &mut String, node: phylo::NodeId, rng: &mut StdRng| {
        if let Some(len) = tree.length(node) {
            if rng.random_range(0..4) == 0 {
                out.push(':');
                out.push_str(ODD_LENGTHS[rng.random_range(0..ODD_LENGTHS.len())]);
            } else {
                out.push_str(&format!(":{len}"));
            }
        }
        match rng.random_range(0..10) {
            0 | 1 => out.push_str("[&c=1]"),
            2 => out.push_str(" [a [nested; 'comment'] ]\n"),
            _ => {}
        }
    };
    enum Step {
        Enter(phylo::NodeId),
        Sep,
        Exit(phylo::NodeId),
    }
    let mut stack = vec![Step::Enter(tree.root().expect("rooted"))];
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(n) if tree.is_leaf(n) => {
                let label = taxa.label(tree.taxon(n).expect("leaves carry taxa"));
                if label.contains(' ') || rng.random_range(0..4) == 0 {
                    out.push_str(&format!("'{}'", label.replace('\'', "''")));
                } else {
                    out.push_str(label);
                }
                node_tail(&mut out, n, &mut rng);
            }
            Step::Enter(n) => {
                out.push('(');
                stack.push(Step::Exit(n));
                for (i, &c) in tree.children(n).iter().enumerate().rev() {
                    stack.push(Step::Enter(c));
                    if i > 0 {
                        stack.push(Step::Sep);
                    }
                }
            }
            Step::Sep => out.push_str(if rng.random_range(0..3) == 0 {
                " , "
            } else {
                ","
            }),
            Step::Exit(n) => {
                out.push(')');
                match rng.random_range(0..4) {
                    0 => out.push_str(&format!("n{}", n.0)),
                    1 => out.push_str("'0.95 support'"),
                    _ => {}
                }
                node_tail(&mut out, n, &mut rng);
            }
        }
    }
    out.push(';');
    out
}

/// The oracle's masks and hashes, in its order.
fn oracle(tree: &Tree, taxa: &TaxonSet) -> Vec<(Vec<u64>, u128)> {
    tree.bipartitions(taxa)
        .into_iter()
        .map(|b| {
            let w = b.bits().words().to_vec();
            let h = split_hash128(&w);
            (w, h)
        })
        .collect()
}

fn batch_rows(batch: &SplitBatch<'_>) -> Vec<(Vec<u64>, u128)> {
    (0..batch.len())
        .map(|i| (batch.mask(i).to_vec(), batch.hash(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tree_walk_matches_oracle_in_order(w in 0usize..6, seed in any::<u64>()) {
        let (tree, taxa) = random_shaped_tree(WIDTHS[w], seed, true);
        let want = oracle(&tree, &taxa);
        let mut scratch = BipartitionScratch::new();
        prop_assert_eq!(batch_rows(&scratch.batch_splits(&tree, &taxa)), want.clone());
        let mut visited = Vec::new();
        scratch.for_each_split(&tree, &taxa, |m| visited.push(m.to_vec()));
        let masks: Vec<Vec<u64>> = want.iter().map(|(m, _)| m.clone()).collect();
        prop_assert_eq!(visited, masks);
        prop_assert_eq!(scratch.split_count(&tree, &taxa), want.len());
    }

    #[test]
    fn newick_driver_matches_oracle_in_order(w in 0usize..6, seed in any::<u64>()) {
        let (tree, taxa) = random_shaped_tree(WIDTHS[w], seed, false);
        let text = noisy_newick(&tree, &taxa, seed);
        let parsed = parse_newick_readonly(&text, &taxa).expect("rendered text parses");
        let want = oracle(&parsed, &taxa);
        prop_assert_eq!(&want, &oracle(&tree, &taxa), "render lost a split: {}", text);
        let mut scratch = BipartitionScratch::new();
        let got = batch_rows(&scratch.batch_newick(&text, &taxa).expect("streams"));
        prop_assert_eq!(got, want, "{}", text);
        same_newick_outcome(&text, &taxa);
    }

    #[test]
    fn newick_driver_errors_like_the_parser_on_soup(
        s in "[(),;:A-Ea-e0-9.'\\[\\] _-]{0,160}",
    ) {
        let taxa = TaxonSet::with_numbered("", 0);
        let mut taxa = taxa;
        for l in ["A", "B", "C", "D", "E", "a", "b"] {
            taxa.intern(l);
        }
        same_newick_outcome(&s, &taxa);
    }

    #[test]
    fn newick_driver_errors_like_the_parser_on_mutations(
        w in 0usize..6,
        seed in any::<u64>(),
        at in any::<usize>(),
        cut in any::<usize>(),
        replacement in "[(),;:'\\[\\]A-D0-9. ]",
    ) {
        let (tree, taxa) = random_shaped_tree(WIDTHS[w], seed, false);
        let text = noisy_newick(&tree, &taxa, seed);
        let mut bytes = text.clone().into_bytes();
        let i = at % bytes.len();
        bytes[i] = replacement.as_bytes()[0];
        if let Ok(s) = std::str::from_utf8(&bytes) {
            same_newick_outcome(s, &taxa);
        }
        same_newick_outcome(&text[..cut % (text.len() + 1)], &taxa);
    }
}

/// The parser (`parse_newick_readonly`) and the fused split extractor
/// (`batch_newick`) both accept exactly what the independent reference
/// parser accepts, with the same error; on success the parser builds the
/// reference's tree (lengths included) and the extractor yields the tree
/// walk's splits of it. (Corruption can repeat a taxon, which the
/// oracle's seen-set handles differently; the two must still agree.)
fn same_newick_outcome(s: &str, taxa: &TaxonSet) {
    let mut scratch = BipartitionScratch::new();
    let mut walk = BipartitionScratch::new();
    let reference = reference_newick::parse_readonly(s, taxa);
    let parsed = parse_newick_readonly(s, taxa);
    match (&reference, &parsed) {
        (Ok(want), Ok(got)) => {
            assert_eq!(write_newick(got, taxa), write_newick(want, taxa), "{s:?}")
        }
        (Err(want), Err(got)) => assert_eq!(got, want, "{s:?}"),
        _ => panic!("{s:?}: reference {reference:?} vs parser {parsed:?}"),
    }
    match (reference, scratch.batch_newick(s, taxa)) {
        (Ok(tree), Ok(batch)) => {
            let want = batch_rows(&walk.batch_splits(&tree, taxa));
            assert_eq!(batch_rows(&batch), want, "{s:?}")
        }
        (Err(a), Err(b)) => assert_eq!(b, a, "{s:?}"),
        (a, b) => panic!(
            "{s:?}: reference {a:?} vs extractor {:?}",
            b.map(|b| b.len())
        ),
    }
}

fn abcd() -> TaxonSet {
    let mut taxa = TaxonSet::new();
    for l in ["A", "B", "C", "D", "it's"] {
        taxa.intern(l);
    }
    taxa
}

#[test]
fn malformed_corpus_errors_like_the_reference() {
    let taxa = abcd();
    for c in [
        "((A,B);",
        "(A,B));",
        "(A,,B);",
        "(A,B)",
        "(A,B); junk",
        "(A:x,B);",
        "('A,B);",
        "[(A,B);",
        "(A B,C);",
        ",A;",
        "(A,B)(C,D);",
        "();",
    ] {
        assert!(reference_newick::parse_readonly(c, &taxa).is_err(), "{c:?}");
        same_newick_outcome(c, &taxa);
    }
}

/// One input per error the parser can raise, with its exact offset and
/// message. ("invalid UTF-8 in label" has no input: a bare token starts
/// and ends next to ASCII bytes, so a `&str` slice of it is always
/// valid.)
#[test]
fn every_error_site_has_its_reference_offset_and_message() {
    let taxa = abcd();
    let p = PhyloError::parse;
    let goldens = [
        ("(A,B)[x [y]", p(5, "unterminated comment")),
        ("(A,B)", p(5, "unexpected end of input")),
        ("(A: [c] ", p(8, "unexpected end of input")),
        ("('A,B);", p(1, "unterminated quoted label")),
        ("(A:'x,B);", p(3, "unterminated quoted label")),
        ("(A:x,B);", p(3, "invalid branch length \"x\"")),
        ("(A:1.5e,B);", p(3, "invalid branch length \"1.5e\"")),
        ("(A,B); junk", p(7, "trailing content after ';'")),
        ("(A(B,C));", p(2, "unexpected '(' after label")),
        ("(A,B)(C,D);", p(5, "unexpected '(': node already closed")),
        (",A;", p(0, "',' outside parentheses")),
        ("(A,,B);", p(3, "leaf without a label")),
        ("(A,B));", p(5, "unbalanced ')'")),
        ("(A:1:2,B);", p(4, "duplicate branch length")),
        ("((A,B):1,C):2:3;", p(13, "duplicate branch length")),
        ("(A:,B);", p(2, "expected branch length after ':'")),
        ("(A:'1',B);", p(2, "expected branch length after ':'")),
        ("((A,B);", p(6, "unbalanced '(': tree ended early")),
        ("(A B,C);", p(3, "unexpected second label \"B\"")),
        ("(A 'it''s',C);", p(3, "unexpected second label \"it's\"")),
        ("(A,X);", PhyloError::UnknownTaxon("X".into())),
        (
            "(A,'\u{e9}');",
            PhyloError::UnknownTaxon("\u{c3}\u{a9}".into()),
        ),
    ];
    for (input, want) in goldens {
        assert_eq!(
            reference_newick::parse_readonly(input, &taxa).err(),
            Some(want.clone()),
            "reference on {input:?}"
        );
        assert_eq!(
            parse_newick_readonly(input, &taxa).err(),
            Some(want.clone()),
            "parser on {input:?}"
        );
        let mut scratch = BipartitionScratch::new();
        assert_eq!(
            scratch.batch_newick(input, &taxa).err(),
            Some(want),
            "extractor on {input:?}"
        );
    }
}
