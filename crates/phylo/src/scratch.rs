//! Tree-free split extraction: one explicit-stack sink, three drivers.
//!
//! [`Tree::bipartitions`] allocates one [`Bits`] per node, a seen-set for
//! deduplication, and one `Bipartition` per emitted split. That is fine for
//! one tree, but the BFH build and batched RF queries extract B(T) for
//! *thousands* of trees in a row. [`BipartitionScratch`] is the reusable
//! alternative, and it does not need a [`Tree`] at all: its [`SplitSink`]
//! consumes a tree as a preorder stream of [`TreeSink`] events —
//! `open`, `taxon`, `close` — and keeps only the masks of the nodes that
//! are currently open, one `words`-wide row per depth of an explicit
//! stack. Three drivers feed it:
//!
//! * **a `Tree` walk** ([`BipartitionScratch::batch_splits`],
//!   [`BipartitionScratch::for_each_split`]) — an iterative walk of the
//!   arena, for callers that already hold trees (the BFH build, matrices,
//!   offline scoring);
//! * **Newick text** ([`BipartitionScratch::batch_newick`]) — the same
//!   event-emitting parser [`crate::parse_newick_readonly`] uses, with the
//!   same checks and errors, but no arena;
//! * **phylo-wire records** (`phylo_wire::decode_splits_exact`, through
//!   [`BipartitionScratch::batch_from`]) — the record decoder's topology
//!   bits and preorder leaf ids, after the decoder's full validation.
//!
//! When a node closes, its mask ORs into its parent's row, its popcount is
//! taken once, and the node becomes a *candidate* split if it passes the
//! first dedup rule below. A leaf never gets a row of its own: its taxon
//! bit goes straight into the parent's row, which is zeroed lazily when
//! the first child closes into it. Candidates are stored unoriented; when
//! the stream ends, [`SplitSink`] drops the trivial ones and the second
//! dedup rule's duplicate, orients every survivor by the tree's own
//! anchor taxon (a branch-free conditional flip, [`orient_words`]) and,
//! for a [`SplitBatch`], hashes each once. Callers that need an owned key
//! (a fresh map insert) rebuild a [`Bits`] from the borrowed slice;
//! callers that only probe (queries) pass the batch straight to the
//! batched probe kernels.
//!
//! # Equivalence with `Tree::bipartitions`
//!
//! Every driver yields exactly the canonical masks `bipartitions` would
//! return, in the same (postorder) order — the order nodes close in. The
//! seen-set is replaced by two structural rules, both decided as nodes
//! close. Two non-root internal nodes yield the same canonical mask only
//! if
//!
//! 1. one is an ancestor of the other through nodes of equal leaf count
//!    (unary chains, or interior nodes whose other children carry no taxa):
//!    a closing node is skipped when a child's popcount equals its own —
//!    since a child's mask is a subset of its parent's, equal popcount
//!    means equal mask, and the chain-*bottom* (first to close, the one
//!    `bipartitions` keeps) has no such child. Each closing node records
//!    which candidate its chain bottoms out in; or
//! 2. their masks are complements inside the leafset: only possible when
//!    the root has exactly two leaf-bearing children whose leaf counts sum
//!    to the whole leafset. The sink notes the leaf count and chain-bottom
//!    candidate of the first two leaf-bearing root children as they close,
//!    and drops the second one's candidate once the leafset is known.

use crate::newick::parse_readonly_into;
use crate::taxa::{TaxonId, TaxonSet};
use crate::tree::{NodeId, Tree, TreeSink};
use crate::PhyloError;
use phylo_bitset::{
    orient_words, popcount_words, split_hash128, union_words, words_for, Bits, WORD_BITS,
};

/// One query tree's canonical splits with their 128-bit hashes, borrowed
/// from the [`BipartitionScratch`] that extracted them.
///
/// Masks are packed contiguously at stride [`words`](Self::words) in visit
/// order; `hashes[i]` is `split_hash128` of `mask(i)`. Frozen probe tables
/// consume the whole batch in one pipelined loop instead of re-hashing
/// split by split.
#[derive(Debug, Clone, Copy)]
pub struct SplitBatch<'a> {
    words: usize,
    masks: &'a [u64],
    hashes: &'a [u128],
}

impl<'a> SplitBatch<'a> {
    /// Assemble a batch from caller-owned buffers: `masks` packed at stride
    /// `words` in split order, `hashes[i]` the `split_hash128` of mask `i`.
    /// Lets callers that cache extracted splits (benchmarks, repeated
    /// scoring of a fixed query set) re-enter the batched probe kernel
    /// without re-extracting.
    ///
    /// # Panics
    /// Panics if `masks.len() != hashes.len() * words`.
    pub fn from_parts(words: usize, masks: &'a [u64], hashes: &'a [u128]) -> SplitBatch<'a> {
        assert_eq!(
            masks.len(),
            hashes.len() * words,
            "masks must pack one stride-{words} mask per hash"
        );
        SplitBatch {
            words,
            masks,
            hashes,
        }
    }

    /// Number of splits in the batch (|B(T)|).
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the query tree had no non-trivial splits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Words per mask (`words_for(n_taxa)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The `i`-th canonical mask as a word slice.
    #[inline]
    pub fn mask(&self, i: usize) -> &'a [u64] {
        &self.masks[i * self.words..(i + 1) * self.words]
    }

    /// The `i`-th mask's stable 128-bit split hash.
    #[inline]
    pub fn hash(&self, i: usize) -> u128 {
        self.hashes[i]
    }

    /// All hashes, in visit order.
    #[inline]
    pub fn hashes(&self) -> &'a [u128] {
        self.hashes
    }
}

/// "No candidate / no taxon" marker in the sink's `u32` slots.
const NONE: u32 = u32::MAX;

/// Bookkeeping for one open node of the [`SplitSink`] stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The node's own taxon bit, or [`NONE`].
    own: u32,
    /// Whether a child has closed into this node — i.e. whether its mask
    /// row on the stack is live.
    internal: bool,
    /// Largest popcount among the closed children.
    max_child: u32,
    /// Chain-bottom candidate of the first child reaching `max_child`.
    chain: u32,
    /// Complement duplicate (rule 2) found at or below that child.
    dup: u32,
    /// `(popcount, chain-bottom candidate)` of the first two leaf-bearing
    /// children, and how many there were (counting stops at 3).
    bearing: [(u32, u32); 2],
    n_bearing: u8,
}

impl Frame {
    const OPEN: Frame = Frame {
        own: NONE,
        internal: false,
        max_child: 0,
        chain: NONE,
        dup: NONE,
        bearing: [(0, NONE); 2],
        n_bearing: 0,
    };
}

/// The explicit-stack split extractor: a [`TreeSink`] that turns one
/// tree's event stream into its canonical splits.
///
/// Obtained through [`BipartitionScratch::batch_from`], which resets it,
/// lets a driver emit one tree's events into it, and collects the batch.
/// Event contract: one root, every `open` closed, `taxon` at most once per
/// node with an id below the namespace width.
#[derive(Debug, Default)]
pub struct SplitSink {
    words: usize,
    n_bits: usize,
    /// Open-node mask rows, depth-major: depth `d` owns
    /// `masks[d*words .. (d+1)*words]` while its frame is `internal`.
    /// Row 0 is the root's, and holds the tree's leafset once it closes.
    masks: Vec<u64>,
    /// Frames of the open nodes that have (had) a child, root first.
    frames: Vec<Frame>,
    depth: usize,
    /// Whether the innermost open node has seen no child yet. It gets a
    /// frame only when a child opens, so a leaf never costs one.
    pending: bool,
    /// The pending node's taxon bit, or [`NONE`].
    pending_own: u32,
    /// Popcount of the root once it has closed (the tree's leaf count).
    root_ones: u32,
    /// The root's complement duplicate (rule 2), once it has closed.
    skip: u32,
    /// Unoriented candidate masks, packed at stride `words`.
    cands: Vec<u64>,
    /// Popcount of each candidate.
    cand_ones: Vec<u32>,
    /// Canonical (oriented) masks of the last finished tree.
    batch: Vec<u64>,
    /// 128-bit split hashes parallel to `batch`.
    hashes: Vec<u128>,
}

impl SplitSink {
    fn reset(&mut self, n_taxa: usize) {
        self.words = words_for(n_taxa);
        self.n_bits = n_taxa;
        self.depth = 0;
        self.pending = false;
        self.root_ones = 0;
        self.skip = NONE;
        self.cands.clear();
        self.cand_ones.clear();
    }

    /// Give the pending node its frame: a child of it is opening.
    fn push_frame(&mut self) {
        let d = self.depth;
        let f = Frame {
            own: self.pending_own,
            ..Frame::OPEN
        };
        if self.frames.len() == d {
            self.frames.push(f);
        } else {
            self.frames[d] = f;
        }
        let need = (d + 1) * self.words;
        if self.masks.len() < need {
            self.masks.resize(need, 0);
        }
        self.depth = d + 1;
    }

    /// The live mask row of depth `d`, zeroed (plus the node's own taxon
    /// bit) the first time a child closes into it.
    fn live_row(&mut self, d: usize) -> &mut [u64] {
        let w = self.words;
        let f = &mut self.frames[d];
        let row = &mut self.masks[d * w..(d + 1) * w];
        if !f.internal {
            f.internal = true;
            row.fill(0);
            if f.own != NONE {
                let b = f.own as usize;
                row[b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
            }
        }
        row
    }

    /// Fold a closed child's popcount, chain-bottom candidate and
    /// complement duplicate into its parent's frame at depth `p`.
    fn child_closed(&mut self, p: usize, ones: u32, chain: u32, dup: u32) {
        let parent = &mut self.frames[p];
        if ones > parent.max_child {
            parent.max_child = ones;
            parent.chain = chain;
            parent.dup = dup;
        }
        if ones > 0 && parent.n_bearing < 3 {
            if let Some(slot) = parent.bearing.get_mut(usize::from(parent.n_bearing)) {
                *slot = (ones, chain);
            }
            parent.n_bearing += 1;
        }
    }

    /// Drop trivial candidates and the complement duplicate (rule 2),
    /// orient the survivors by the tree's anchor taxon into `batch`, and
    /// hash them if `hash`. Returns the number of splits.
    fn finish(&mut self, hash: bool) -> usize {
        debug_assert_eq!(self.depth, 0, "unbalanced tree events");
        self.batch.clear();
        self.hashes.clear();
        let n_leaves = self.root_ones;
        if n_leaves < 4 {
            return 0; // no non-trivial splits possible
        }
        let w = self.words;
        let leafset = &self.masks[..w];
        // Anchor: the lowest taxon present in this tree (not the
        // namespace), mirroring `Bipartition::new`'s `leafset.first_one()`.
        let anchor = leafset
            .iter()
            .enumerate()
            .find(|(_, &x)| x != 0)
            .map(|(wi, &x)| wi * WORD_BITS + x.trailing_zeros() as usize)
            .expect("n_leaves >= 4 implies a set bit");
        let (aw, ab) = (anchor / WORD_BITS, anchor % WORD_BITS);
        let skip = self.skip;
        let hi = n_leaves - 2;
        self.batch.resize(self.cand_ones.len() * w, 0);
        let mut kept = 0;
        for (i, &ones) in self.cand_ones.iter().enumerate() {
            if ones > hi || i as u32 == skip {
                continue;
            }
            let mask = &self.cands[i * w..(i + 1) * w];
            // Branch-free orientation: anchor bit set → flip = 0 and the
            // mask copies through; clear → flip = !0 and the mask
            // complements inside the leafset.
            let flip = ((mask[aw] >> ab) & 1).wrapping_sub(1);
            let out = &mut self.batch[kept * w..(kept + 1) * w];
            orient_words(out, leafset, mask, flip);
            if hash {
                self.hashes.push(split_hash128(out));
            }
            kept += 1;
        }
        self.batch.truncate(kept * w);
        kept
    }

    fn batch(&self) -> SplitBatch<'_> {
        SplitBatch {
            words: self.words,
            masks: &self.batch,
            hashes: &self.hashes,
        }
    }
}

impl TreeSink for SplitSink {
    const READS_LENGTHS: bool = false;

    #[inline]
    fn open(&mut self) {
        if self.pending {
            self.push_frame();
        }
        self.pending = true;
        self.pending_own = NONE;
    }

    /// # Panics
    /// Panics if `id` is out of range for the namespace (the same contract
    /// as [`Tree::bipartitions`]).
    #[inline]
    fn taxon(&mut self, id: TaxonId) {
        let b = id.index();
        assert!(
            b < self.n_bits,
            "taxon id {b} out of range for namespace of {}",
            self.n_bits
        );
        if self.pending {
            self.pending_own = b as u32;
        } else {
            // Back at a node whose child closed: its row is live.
            let row = self.live_row(self.depth - 1);
            row[b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
        }
    }

    #[inline]
    fn length(&mut self, _len: f64) {}

    #[inline]
    fn close(&mut self) {
        if self.pending {
            // A leaf: its taxon bit goes straight into the parent's row.
            self.pending = false;
            let Some(p) = self.depth.checked_sub(1) else {
                return; // a one-node tree has no splits
            };
            let own = self.pending_own;
            let row = self.live_row(p);
            let ones = if own == NONE {
                0
            } else {
                let b = own as usize;
                row[b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
                1
            };
            self.child_closed(p, ones, NONE, NONE);
            return;
        }
        // A node with children: its row is live.
        let d = self.depth - 1;
        let w = self.words;
        let f = self.frames[d];
        let row = &self.masks[d * w..(d + 1) * w];
        let ones = popcount_words(row);
        let (chain, dup) = if f.max_child == ones {
            // Rule 1: a child carries the same mask.
            (f.chain, f.dup)
        } else {
            // Rule 2: when two leaf-bearing children split this node's
            // leaves and the node turns out to span the whole tree, the
            // second one's split repeats the first's.
            let [(s1, _), (s2, chain2)] = f.bearing;
            let dup = if f.n_bearing == 2 && s1 + s2 == ones {
                chain2
            } else {
                NONE
            };
            let chain = if d > 0 && ones >= 2 {
                self.cands.extend_from_slice(row);
                self.cand_ones.push(ones);
                (self.cand_ones.len() - 1) as u32
            } else {
                NONE
            };
            (chain, dup)
        };
        self.depth = d;
        let Some(p) = d.checked_sub(1) else {
            self.root_ones = ones;
            self.skip = dup;
            return;
        };
        self.live_row(p);
        let (lo, hi) = self.masks.split_at_mut(d * w);
        union_words(&mut lo[p * w..], &hi[..w]);
        self.child_closed(p, ones, chain, dup);
    }
}

/// Reusable arena for allocation-free bipartition extraction.
///
/// Create once, extract per tree. All buffers are retained between calls,
/// so after the first (largest) tree no further allocation happens.
#[derive(Debug, Default)]
pub struct BipartitionScratch {
    sink: SplitSink,
    /// The `Tree` walk's explicit stack: `(node, next child position)`.
    walk: Vec<(NodeId, u32)>,
}

impl BipartitionScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed `tree` into the reset sink as events, without recursion.
    fn walk_tree(&mut self, tree: &Tree, n_taxa: usize) {
        let sink = &mut self.sink;
        sink.reset(n_taxa);
        let Some(root) = tree.root() else { return };
        let enter = |sink: &mut SplitSink, n: NodeId| {
            sink.open();
            if let Some(t) = tree.taxon(n) {
                sink.taxon(t);
            }
        };
        self.walk.clear();
        enter(sink, root);
        self.walk.push((root, 0));
        while let Some(top) = self.walk.last_mut() {
            match tree.children(top.0).get(top.1 as usize) {
                Some(&c) => {
                    top.1 += 1;
                    enter(sink, c);
                    if tree.is_leaf(c) {
                        sink.close();
                    } else {
                        self.walk.push((c, 0));
                    }
                }
                None => {
                    sink.close();
                    self.walk.pop();
                }
            }
        }
    }

    /// Visit every non-trivial canonical bipartition mask of `tree`, encoded
    /// over `taxa`, as a borrowed word slice of length
    /// `words_for(taxa.len())`.
    ///
    /// The slice honors the canonical padding invariant and the visited
    /// multiset equals `tree.bipartitions(taxa)` (same masks, same order).
    /// The slice is only valid for the duration of the call; clone into a
    /// [`Bits`] (via [`Bits::from_words`]) to keep it.
    ///
    /// # Panics
    /// Panics if a leaf's taxon id is out of range for `taxa` (the same
    /// contract as [`Tree::bipartitions`]).
    pub fn for_each_split<F: FnMut(&[u64])>(&mut self, tree: &Tree, taxa: &TaxonSet, visit: F) {
        self.walk_tree(tree, taxa.len());
        if self.sink.finish(false) > 0 {
            self.sink
                .batch
                .chunks_exact(self.sink.words)
                .for_each(visit);
        }
    }

    /// Extract every canonical split of `tree` **and** its 128-bit split
    /// hash, returning a borrowed [`SplitBatch`] (same masks and order as
    /// [`Self::for_each_split`]). Each mask is hashed exactly once, while
    /// its words are still cache-hot. The batch stays valid until the next
    /// extraction call on this scratch.
    pub fn batch_splits(&mut self, tree: &Tree, taxa: &TaxonSet) -> SplitBatch<'_> {
        self.walk_tree(tree, taxa.len());
        self.sink.finish(true);
        self.sink.batch()
    }

    /// The split batch of one Newick tree, straight from its text: the
    /// parser behind [`crate::parse_newick_readonly`] feeds the sink
    /// instead of an arena. Accepts and rejects exactly the inputs that
    /// function does, with the same errors; on success the batch equals
    /// `batch_splits(&parse_newick_readonly(input, taxa)?, taxa)`.
    pub fn batch_newick(
        &mut self,
        input: &str,
        taxa: &TaxonSet,
    ) -> Result<SplitBatch<'_>, PhyloError> {
        self.batch_from(taxa.len(), |sink| parse_readonly_into(input, taxa, sink))
    }

    /// The split batch of whatever tree `drive` emits into the sink, over
    /// an `n_taxa`-wide namespace. This is how front ends outside this
    /// crate (the phylo-wire record decoder) reuse the extractor: `drive`
    /// validates its input and emits one tree's events, or returns its own
    /// error, which is passed through.
    pub fn batch_from<E>(
        &mut self,
        n_taxa: usize,
        drive: impl FnOnce(&mut SplitSink) -> Result<(), E>,
    ) -> Result<SplitBatch<'_>, E> {
        self.sink.reset(n_taxa);
        drive(&mut self.sink)?;
        self.sink.finish(true);
        Ok(self.sink.batch())
    }

    /// Number of non-trivial splits of `tree` (|B(T)|), without materializing
    /// them.
    pub fn split_count(&mut self, tree: &Tree, taxa: &TaxonSet) -> usize {
        self.walk_tree(tree, taxa.len());
        self.sink.finish(false)
    }

    /// Owned canonical masks, in visit order. Convenience for callers (and
    /// tests) that want the allocation anyway.
    pub fn splits(&mut self, tree: &Tree, taxa: &TaxonSet) -> Vec<Bits> {
        let mut out = Vec::new();
        self.for_each_split(tree, taxa, |w| out.push(Bits::from_words(taxa.len(), w)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::{parse_newick, TaxaPolicy};

    /// Sorted owned masks from the reference extractor.
    fn reference(tree: &Tree, taxa: &TaxonSet) -> Vec<Bits> {
        let mut v: Vec<Bits> = tree
            .bipartitions(taxa)
            .into_iter()
            .map(|b| b.bits().clone())
            .collect();
        v.sort();
        v
    }

    fn assert_matches(tree: &Tree, taxa: &TaxonSet, scratch: &mut BipartitionScratch) {
        let mut got = scratch.splits(tree, taxa);
        got.sort();
        assert_eq!(got, reference(tree, taxa));
    }

    #[test]
    fn matches_reference_on_parsed_trees() {
        let cases = [
            "((A,B),(C,D));",                 // the paper's 4-taxon example
            "(A,B,(C,D));",                   // unrooted-style trifurcating root
            "((A,B),(C,D),(E,F));",           // 3 leaf-bearing root children
            "(((A,B),C),((D,E),(F,G)));",     // deeper binary
            "((A,B,C,D),(E,F));",             // polytomy
            "(((((A,B),C),D),E),F);",         // caterpillar
            "((A,(B,(C,(D,E)))),(F,(G,H)));", // mixed
            "((((A,B),(C,D))));",             // unary chain above the root split
            "(A,B,C);",                       // too few taxa: no splits
            "((A,B),C);",
        ];
        let mut scratch = BipartitionScratch::new();
        for nwk in cases {
            let mut taxa = TaxonSet::new();
            let t = parse_newick(nwk, &mut taxa, TaxaPolicy::Grow).unwrap();
            assert_matches(&t, &taxa, &mut scratch);
        }
    }

    #[test]
    fn rooting_invariance_matches_reference() {
        // The same unrooted tree under different rootings: the scratch
        // extractor must agree with the reference on every rooting.
        let mut taxa = TaxonSet::new();
        let rootings = [
            "((A,B),(C,D),E);",
            "(A,(B,((C,D),E)));",
            "((((A,B),E),C),D);",
        ];
        let mut scratch = BipartitionScratch::new();
        let mut canonical: Option<Vec<Bits>> = None;
        for nwk in rootings {
            let t = parse_newick(nwk, &mut taxa, TaxaPolicy::Grow).unwrap();
            assert_matches(&t, &taxa, &mut scratch);
            let mut got = scratch.splits(&t, &taxa);
            got.sort();
            match &canonical {
                None => canonical = Some(got),
                Some(c) => assert_eq!(&got, c, "rooting changed split set"),
            }
        }
    }

    #[test]
    fn partial_namespace_uses_tree_leafset_anchor() {
        // Namespace holds A..H but the tree only mentions C..H: the anchor
        // is C (lowest taxon *in the tree*), exactly as the reference does.
        let mut taxa = TaxonSet::new();
        let _full =
            parse_newick("(A,B,(C,(D,(E,(F,(G,H))))));", &mut taxa, TaxaPolicy::Grow).unwrap();
        let sub = parse_newick("((C,D),((E,F),(G,H)));", &mut taxa, TaxaPolicy::Require).unwrap();
        let mut scratch = BipartitionScratch::new();
        assert_matches(&sub, &taxa, &mut scratch);
        assert!(scratch.split_count(&sub, &taxa) > 0);
    }

    #[test]
    fn unary_chains_and_empty_subtrees() {
        // Hand-build pathologies `parse_newick` never produces: unary
        // chains above internal nodes and an internal subtree bearing no
        // taxa at all. The structural dedup must still match the seen-set.
        let mut taxa = TaxonSet::new();
        let ids: Vec<_> = ["A", "B", "C", "D", "E"]
            .iter()
            .map(|l| taxa.intern(l))
            .collect();

        let (mut t, root) = Tree::with_root();
        // left: unary -> unary -> (A,B)
        let u1 = t.add_child(root);
        let u2 = t.add_child(u1);
        let ab = t.add_child(u2);
        for &i in &ids[..2] {
            let l = t.add_child(ab);
            t.set_taxon(l, Some(i));
        }
        // right: ((C,D),E) with a taxonless sibling subtree hanging off it
        let right = t.add_child(root);
        let cd = t.add_child(right);
        for &i in &ids[2..4] {
            let l = t.add_child(cd);
            t.set_taxon(l, Some(i));
        }
        let e = t.add_child(right);
        t.set_taxon(e, Some(ids[4]));
        let ghost = t.add_child(right); // internal, no taxa anywhere below
        let _ghost_child = t.add_child(ghost);

        let mut scratch = BipartitionScratch::new();
        assert_matches(&t, &taxa, &mut scratch);
    }

    #[test]
    fn scratch_reuse_is_clean_across_trees() {
        // A big tree followed by a small one: stale arena contents must not
        // leak into the second extraction.
        let mut taxa = TaxonSet::new();
        let big = parse_newick(
            "(((A,B),(C,D)),((E,F),(G,(H,I))));",
            &mut taxa,
            TaxaPolicy::Grow,
        )
        .unwrap();
        let small = parse_newick("((A,B),(C,D));", &mut taxa, TaxaPolicy::Require).unwrap();
        let mut scratch = BipartitionScratch::new();
        assert_matches(&big, &taxa, &mut scratch);
        assert_matches(&small, &taxa, &mut scratch);
        assert_matches(&big, &taxa, &mut scratch);
    }

    #[test]
    fn batch_splits_matches_visitor_and_hashes_correctly() {
        let cases = [
            "((A,B),(C,D));",
            "(((A,B),C),((D,E),(F,G)));",
            "((A,(B,(C,(D,E)))),(F,(G,H)));",
            "(A,B,C);", // no splits → empty batch
        ];
        let mut scratch = BipartitionScratch::new();
        for nwk in cases {
            let mut taxa = TaxonSet::new();
            let t = parse_newick(nwk, &mut taxa, TaxaPolicy::Grow).unwrap();
            let expected = scratch.splits(&t, &taxa);
            let batch = scratch.batch_splits(&t, &taxa);
            assert_eq!(batch.len(), expected.len());
            assert_eq!(batch.is_empty(), expected.is_empty());
            for (i, bits) in expected.iter().enumerate() {
                assert_eq!(batch.mask(i), bits.words(), "{nwk} split {i}");
                assert_eq!(
                    batch.hash(i),
                    phylo_bitset::split_hash128(bits.words()),
                    "{nwk} hash {i}"
                );
            }
        }
    }

    #[test]
    fn batch_from_parts_round_trips_and_checks_stride() {
        let mut taxa = TaxonSet::new();
        let t = parse_newick("(((A,B),C),((D,E),(F,G)));", &mut taxa, TaxaPolicy::Grow).unwrap();
        let mut scratch = BipartitionScratch::new();
        let extracted = scratch.batch_splits(&t, &taxa);
        let words = extracted.words();
        let masks: Vec<u64> = (0..extracted.len())
            .flat_map(|i| extracted.mask(i).iter().copied())
            .collect();
        let hashes = extracted.hashes().to_vec();
        let rebuilt = SplitBatch::from_parts(words, &masks, &hashes);
        assert_eq!(rebuilt.len(), extracted.len());
        for i in 0..rebuilt.len() {
            assert_eq!(rebuilt.mask(i), extracted.mask(i));
            assert_eq!(rebuilt.hash(i), extracted.hash(i));
        }
        let bad = std::panic::catch_unwind(|| SplitBatch::from_parts(words, &masks[1..], &hashes));
        assert!(bad.is_err(), "stride mismatch must panic");
    }

    #[test]
    fn newick_and_tree_drivers_are_bit_identical() {
        // Streaming the text through the sink must reproduce the walk of
        // the parsed tree exactly: same masks, same hashes, same order —
        // including on shapes (polytomies, caterpillars, internal labels,
        // lengths, comments) where orientation flips cluster.
        let cases = [
            "((A,B),(C,D));",
            "(A,B,(C,D));",
            "((A,B),(C,D),(E,F));",
            "(((A:1,B:2)x:3,C),((D,E)'y z',(F,G)));",
            "((A,B,C,D),(E,F));",
            "(((((A,B),C),D),E),F)[root];",
            "((A,(B,(C,(D,E)))),(F,(G,H)));",
            "(A,B,C);",
            "A;",
        ];
        let mut walk = BipartitionScratch::new();
        let mut text = BipartitionScratch::new();
        for nwk in cases {
            let mut taxa = TaxonSet::new();
            let t = parse_newick(nwk, &mut taxa, TaxaPolicy::Grow).unwrap();
            let w = walk.batch_splits(&t, &taxa);
            let s = text.batch_newick(nwk, &taxa).unwrap();
            assert_eq!(s.len(), w.len(), "{nwk}");
            for i in 0..w.len() {
                assert_eq!(s.mask(i), w.mask(i), "{nwk} split {i}");
                assert_eq!(s.hash(i), w.hash(i), "{nwk} hash {i}");
            }
        }
    }

    #[test]
    fn split_count_matches_reference_len() {
        let mut taxa = TaxonSet::new();
        let t = parse_newick("(((A,B),C),((D,E),(F,G)));", &mut taxa, TaxaPolicy::Grow).unwrap();
        let mut scratch = BipartitionScratch::new();
        assert_eq!(scratch.split_count(&t, &taxa), reference(&t, &taxa).len());
    }
}
