//! [`BfhBuilder`] — one front door for every way of constructing a
//! [`Bfh`].
//!
//! The hash once grew a constructor per strategy, each with its own error
//! behavior. The builder replaces that zoo: pick the knobs, then call one
//! of the `from_*` terminals, and get a `Result` instead of a panic on bad
//! input.
//!
//! ```
//! use bfhrf::BfhBuilder;
//! use phylo::TreeCollection;
//!
//! let refs = TreeCollection::parse(
//!     "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
//! let bfh = BfhBuilder::new()
//!     .shards(4)
//!     .from_trees(&refs.trees, &refs.taxa)
//!     .unwrap();
//! assert_eq!(bfh.n_trees(), 3);
//! assert_eq!(bfh.n_shards(), 4);
//! ```

use crate::bfh::Bfh;
use crate::error::CoreError;
use crate::guard::{CancelToken, RunBudget, RunGuard};
use phylo::{
    BipartitionScratch, IngestPolicy, IngestReport, NewickReader, TaxaPolicy, TaxonSet, Tree,
};
use std::io::BufRead;

/// Configurable [`Bfh`] construction. See the module docs for an example.
#[derive(Debug, Clone)]
pub struct BfhBuilder {
    parallel: bool,
    shards: usize,
    guard: RunGuard,
}

impl Default for BfhBuilder {
    fn default() -> Self {
        BfhBuilder {
            parallel: false,
            shards: 1,
            guard: RunGuard::default(),
        }
    }
}

impl BfhBuilder {
    /// A builder with the defaults: sequential, single shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parallelize the build across rayon workers. With one shard this is
    /// the fold-merge strategy; with several it is the two-phase sharded
    /// pipeline (workers per tree chunk, then per shard).
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Partition the hash into `k` independent shard maps. `k = 1` (the
    /// default) keeps a single map and skips routing on every probe.
    ///
    /// Values land in [`BfhBuilder::from_trees`]'s error path rather than
    /// panicking: `k = 0` is rejected there.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// Run the build under `budget`: the spill-buffer footprint is checked
    /// before allocating and the deadline is polled at tree granularity.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.guard.budget = budget;
        self
    }

    /// Make the build cancellable through `token` — any clone of it can
    /// stop the build from another thread, yielding
    /// [`CoreError::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.guard.cancel = token;
        self
    }

    /// Run the build under a fully custom [`RunGuard`] (budget + token +
    /// shared degradation log).
    pub fn guard(mut self, guard: RunGuard) -> Self {
        self.guard = guard;
        self
    }

    fn validate(&self, trees: &[Tree], taxa: &TaxonSet) -> Result<(), CoreError> {
        if self.shards == 0 {
            return Err(CoreError::Structure(
                "shard count must be at least 1".into(),
            ));
        }
        // Surface out-of-namespace leaves as a typed error instead of the
        // extraction assert.
        for (ti, tree) in trees.iter().enumerate() {
            for leaf in tree.leaves() {
                if let Some(t) = tree.taxon(leaf) {
                    if t.index() >= taxa.len() {
                        return Err(CoreError::TaxaMismatch(format!(
                            "tree {ti} references taxon id {} but the namespace has {} taxa",
                            t.index(),
                            taxa.len()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Build from an in-memory collection encoded over `taxa`. Every
    /// strategy honours the configured guard: sequential builds poll it
    /// per tree, parallel builds per tree inside panic-isolated workers.
    pub fn from_trees(&self, trees: &[Tree], taxa: &TaxonSet) -> Result<Bfh, CoreError> {
        let start = std::time::Instant::now();
        self.validate(trees, taxa)?;
        let bfh = match (self.shards, self.parallel) {
            (1, false) => {
                let mut bfh = Bfh::empty(taxa.len());
                let mut scratch = BipartitionScratch::new();
                for tree in trees {
                    self.guard.checkpoint("BFH build")?;
                    bfh.add_tree_with(tree, taxa, &mut scratch);
                }
                bfh
            }
            // Parallel one-shard runs the two-phase pipeline with k = 1:
            // counts are bitwise-identical to the fold-merge strategy, and
            // the pipeline is the guarded, panic-isolated path.
            (k, _) => Bfh::try_build_sharded(trees, taxa, k, &self.guard)?,
        };
        record_build_metrics(&bfh, start.elapsed());
        Ok(bfh)
    }

    /// Parse a Newick stream and build from it. With [`TaxaPolicy::Grow`]
    /// the namespace widens as labels appear; with [`TaxaPolicy::Require`]
    /// unknown labels are a parse error. A parse error carries its
    /// absolute byte offset in the stream and leaves `taxa` as it was.
    /// Trees are materialized before the build so the configured strategy
    /// (parallel/sharded) applies; for constant-memory sequential folding
    /// of huge files, stream trees manually into [`Bfh::add_tree_with`].
    pub fn from_newick_reader<R: BufRead>(
        &self,
        reader: R,
        taxa: &mut TaxonSet,
        policy: TaxaPolicy,
    ) -> Result<Bfh, CoreError> {
        let mark = taxa.len();
        let (trees, _) = phylo::ingest::read_trees(reader, taxa, policy, IngestPolicy::Strict)
            .inspect_err(|_| taxa.truncate(mark))?;
        self.from_trees(&trees, taxa)
    }

    /// Like [`BfhBuilder::from_newick_reader`] but with error recovery:
    /// malformed records are skipped under [`IngestPolicy::Lenient`] and
    /// described in the returned [`IngestReport`] instead of aborting the
    /// build.
    pub fn from_ingest<R: BufRead>(
        &self,
        reader: R,
        taxa: &mut TaxonSet,
        taxa_policy: TaxaPolicy,
        ingest_policy: IngestPolicy,
    ) -> Result<(Bfh, IngestReport), CoreError> {
        let mut stream = NewickReader::new(reader, taxa_policy, ingest_policy);
        let mut trees = Vec::new();
        while let Some(t) = stream.next_tree(taxa)? {
            self.guard.checkpoint("ingest")?;
            trees.push(t);
        }
        let bfh = self.from_trees(&trees, taxa)?;
        Ok((bfh, stream.into_report()))
    }
}

/// Publish one finished build's throughput and balance into the global
/// registry: duration histogram, tree/split totals, last-build rate gauges,
/// and the shard skew (max/mean distinct entries, scaled by 1000 — 1000
/// means perfectly balanced routing).
fn record_build_metrics(bfh: &Bfh, elapsed: std::time::Duration) {
    let reg = phylo_obs::global();
    reg.histogram("build_ns", &[]).record_duration(elapsed);
    reg.counter("build_trees_total", &[])
        .add(bfh.n_trees() as u64);
    reg.counter("build_splits_total", &[]).add(bfh.sum());
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        reg.gauge("build_trees_per_s", &[])
            .set((bfh.n_trees() as f64 / secs) as i64);
        reg.gauge("build_splits_per_s", &[])
            .set((bfh.sum() as f64 / secs) as i64);
    }
    let sizes = bfh.shard_sizes();
    let total: usize = sizes.iter().sum();
    if sizes.len() > 1 && total > 0 {
        let mean = total as f64 / sizes.len() as f64;
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        reg.gauge("build_shard_skew_permille", &[])
            .set((max / mean * 1000.0) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::TreeCollection;

    fn coll(text: &str) -> TreeCollection {
        TreeCollection::parse(text).unwrap()
    }

    #[test]
    fn builder_strategies_agree() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(20));
        let base = BfhBuilder::new().from_trees(&c.trees, &c.taxa).unwrap();
        for builder in [
            BfhBuilder::new().parallel(true),
            BfhBuilder::new().shards(4),
            BfhBuilder::new().parallel(true).shards(4),
        ] {
            let b = builder.from_trees(&c.trees, &c.taxa).unwrap();
            assert_eq!(b.sum(), base.sum());
            assert_eq!(b.distinct(), base.distinct());
            for (bits, count) in base.iter() {
                assert_eq!(b.frequency(bits), count);
            }
        }
    }

    #[test]
    fn zero_shards_is_an_error_not_a_panic() {
        let c = coll("((A,B),(C,D));");
        let err = BfhBuilder::new()
            .shards(0)
            .from_trees(&c.trees, &c.taxa)
            .unwrap_err();
        assert!(matches!(err, CoreError::Structure(_)));
    }

    #[test]
    fn out_of_namespace_taxa_is_a_typed_error() {
        let c = coll("((A,B),(C,D));");
        let narrow = TaxonSet::new(); // empty namespace: every leaf is out of range
        let err = BfhBuilder::new().from_trees(&c.trees, &narrow).unwrap_err();
        assert!(matches!(err, CoreError::TaxaMismatch(_)));
    }

    #[test]
    fn from_newick_reader_grows_and_requires() {
        let text = "((A,B),(C,D));\n((A,C),(B,D));\n";
        let mut taxa = TaxonSet::new();
        let grown = BfhBuilder::new()
            .shards(2)
            .from_newick_reader(text.as_bytes(), &mut taxa, TaxaPolicy::Grow)
            .unwrap();
        assert_eq!(grown.n_trees(), 2);
        assert_eq!(taxa.len(), 4);

        // Unknown label under Require surfaces as a CoreError (from parse).
        let mut known = TaxonSet::new();
        let err = BfhBuilder::new()
            .from_newick_reader(text.as_bytes(), &mut known, TaxaPolicy::Require)
            .unwrap_err();
        assert!(matches!(err, CoreError::Phylo(_)));
    }

    #[test]
    fn from_newick_reader_errors_point_into_the_file_and_leave_taxa() {
        // The unterminated second record (file bytes 15..25) fails at the
        // end of the file, not at its own byte 10.
        let text = "((A,B),(C,D));\n(E,F,(G,H)";
        let mut taxa = TaxonSet::new();
        taxa.intern("A");
        let err = BfhBuilder::new()
            .from_newick_reader(text.as_bytes(), &mut taxa, TaxaPolicy::Grow)
            .unwrap_err();
        let CoreError::Phylo(phylo::PhyloError::Parse { offset, .. }) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(offset, text.len());
        assert_eq!(taxa.to_string(), "TaxonSet[1]{A}");
    }
}
