//! Streaming BFHRF over a large on-disk collection — the memory story.
//!
//! The paper's headline memory result (Table III: 1.3 GB where baselines
//! need 27–37 GB) comes from never materializing the collection: the hash
//! is built from a stream and queries are answered from a stream. This
//! example writes a 20k-tree collection to disk, then runs the whole
//! analysis from the file with only the hash resident.
//!
//! ```text
//! cargo run --release --example streaming_large
//! ```

use bfhrf::rf::bfhrf_streaming;
use bfhrf::Bfh;
use phylo::{BipartitionScratch, IngestPolicy, NewickReader, TaxaPolicy, TaxonSet};
use phylo_sim::datasets::{write_collection, DatasetSpec};
use std::io::BufReader;
use std::time::Instant;

fn main() {
    let n_taxa = 100;
    let n_trees = 20_000;
    let path = std::env::temp_dir().join("bfhrf-streaming-demo.nwk");

    // Materialize once, to disk (this is the dataset, not the algorithm).
    let spec = DatasetSpec::new("streaming-demo", n_taxa, n_trees, 42);
    let coll = phylo_sim::generate(&spec);
    write_collection(&path, &coll).expect("write dataset");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "dataset: {n_trees} trees / {n_taxa} taxa, {:.1} MB on disk",
        bytes as f64 / 1e6
    );
    drop(coll); // nothing of the collection stays in memory

    // Phase 1: stream the references into the hash, one tree at a time,
    // through a single reused extraction arena — only the hash (plus the
    // current tree) is ever resident.
    let mut taxa = TaxonSet::with_numbered("t", n_taxa);
    let t0 = Instant::now();
    let file = std::fs::File::open(&path).expect("open refs");
    let mut stream = NewickReader::new(
        BufReader::new(file),
        TaxaPolicy::Require,
        IngestPolicy::Strict,
    );
    let mut bfh = Bfh::empty(n_taxa);
    let mut scratch = BipartitionScratch::new();
    while let Some(tree) = stream.next_tree(&mut taxa).expect("parse refs") {
        bfh.add_tree_with(&tree, &taxa, &mut scratch);
    }
    println!(
        "hash built in {:.2}s: {} distinct splits from {} trees (approx {:.1} MB resident)",
        t0.elapsed().as_secs_f64(),
        bfh.distinct(),
        bfh.n_trees(),
        bfh.approx_bytes() as f64 / 1e6
    );

    // Phase 2: freeze, drop the live map, stream the queries (Q is R).
    let t1 = Instant::now();
    let frozen = bfh.freeze();
    drop(bfh);
    let file = std::fs::File::open(&path).expect("open queries");
    let scores = bfhrf_streaming(BufReader::new(file), &mut taxa, &frozen).expect("score queries");
    let mean: f64 = scores.iter().map(|s| s.rf.average()).sum::<f64>() / scores.len() as f64;
    println!(
        "scored {} queries in {:.2}s; mean average RF = {:.3}",
        scores.len(),
        t1.elapsed().as_secs_f64(),
        mean
    );

    std::fs::remove_file(&path).ok();
}
