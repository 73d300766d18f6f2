//! Workspace-level acceptance for the persistent index + query daemon:
//!
//! 1. An index built by `bfhrf index build` loads back a hash that is
//!    *bitwise identical* to an in-memory build from the same Newick —
//!    same counters, same per-split frequencies, same `average_all`.
//! 2. A served `avgrf` answer over that index is byte-identical to the
//!    offline `bfhrf avgrf` report on the same files.

use bfhrf::{Comparator as _, FrozenComparator};
use bfhrf_cli::server::{ServeConfig, Server};
use bfhrf_cli::{run_full, EXIT_OK};
use phylo::write_newick;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfhrf-suite-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn runv(parts: &[&str]) -> bfhrf_cli::CmdOutcome {
    let out = run_full(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
    assert_eq!(out.code, EXIT_OK, "{:?}", out.notes);
    out
}

#[test]
fn snapshot_load_serves_offline_identical_answers() {
    let dir = scratch("accept");

    // Simulated reference collection + a query set drawn from the same
    // namespace (a handful of the references, so the answers are non-trivial).
    let refs_path = dir.join("refs.nwk");
    runv(&[
        "simulate",
        "--taxa",
        "24",
        "--trees",
        "60",
        "--out",
        refs_path.to_str().unwrap(),
        "--seed",
        "4077",
    ]);
    let collection = phylo_sim::datasets::read_collection(&refs_path).unwrap();
    let queries_path = dir.join("queries.nwk");
    let queries_newick: String = collection
        .trees
        .iter()
        .step_by(11)
        .map(|t| format!("{}\n", write_newick(t, &collection.taxa)))
        .collect();
    std::fs::write(&queries_path, &queries_newick).unwrap();
    let query_trees: Vec<phylo::Tree> = collection.trees.iter().step_by(11).cloned().collect();

    // Build the on-disk index through the CLI, then load it back and
    // compare against a fresh in-memory build: the acceptance bar is
    // bitwise equality, not statistical agreement.
    let index_dir = dir.join("index");
    runv(&[
        "index",
        "build",
        "--refs",
        refs_path.to_str().unwrap(),
        "--out",
        index_dir.to_str().unwrap(),
    ]);
    let fresh = bfhrf::Bfh::build(&collection.trees, &collection.taxa);
    let index = phylo_index::Index::open(&index_dir).unwrap();
    let loaded = index.bfh();
    assert_eq!(loaded.n_taxa(), fresh.n_taxa());
    assert_eq!(loaded.n_trees(), fresh.n_trees());
    assert_eq!(loaded.sum(), fresh.sum());
    assert_eq!(loaded.distinct(), fresh.distinct());
    for (bits, freq) in fresh.iter() {
        assert_eq!(loaded.frequency(bits), freq, "split dropped or rescored");
    }
    for (bits, freq) in loaded.iter() {
        assert_eq!(fresh.frequency(bits), freq, "split invented by the loader");
    }

    // average_all over the loaded hash matches the in-memory hash exactly
    // (integer RF sums, so equality is well-defined).
    let from_fresh = FrozenComparator::from_owned(fresh.freeze(), &collection.taxa)
        .average_all(&query_trees)
        .unwrap();
    let from_loaded = FrozenComparator::from_owned(loaded.freeze(), index.taxa())
        .average_all(&query_trees)
        .unwrap();
    assert_eq!(from_fresh.len(), from_loaded.len());
    for (a, b) in from_fresh.iter().zip(&from_loaded) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.rf.left, b.rf.left);
        assert_eq!(a.rf.right, b.rf.right);
        assert_eq!(a.rf.n_refs, b.rf.n_refs);
    }
    drop(index);

    // Serve the index and close the loop: `bfhrf query` against the daemon
    // must print the exact bytes `bfhrf avgrf` prints offline.
    let srv = Server::bind(&ServeConfig {
        index_dir: index_dir.clone(),
        addr: "127.0.0.1:0".into(),
        threads: 2,
        mem_budget: None,
        timeout_ms: None,
        catalog_dir: None,
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    let handle = std::thread::spawn(move || srv.run().unwrap());

    let offline = runv(&[
        "avgrf",
        "--refs",
        refs_path.to_str().unwrap(),
        "--queries",
        queries_path.to_str().unwrap(),
    ]);
    let served = runv(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        queries_path.to_str().unwrap(),
    ]);
    assert_eq!(served.stdout, offline.stdout, "served answers diverged");

    let best_offline = runv(&[
        "best",
        "--refs",
        refs_path.to_str().unwrap(),
        "--queries",
        queries_path.to_str().unwrap(),
    ]);
    let best_served = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "best-query",
        "--queries",
        queries_path.to_str().unwrap(),
    ]);
    assert_eq!(best_served.stdout, best_offline.stdout);

    let bye = runv(&["query", "--addr", &addr, "--op", "shutdown"]);
    assert_eq!(bye.stdout, "shutdown\tok\n");
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
