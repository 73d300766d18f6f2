//! Integration tests driving the CLI layer against generated files — the
//! user-facing surface the paper advertises ("easy to use installation and
//! interface").

use std::path::PathBuf;

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("bfhrf-cli-integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(parts: &[&str]) -> Result<String, String> {
    bfhrf_cli::run(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

#[test]
fn simulate_then_analyze_roundtrip() {
    let dir = workdir();
    let data = dir.join("cli-sim.nwk");
    let msg = run(&[
        "simulate",
        "--taxa",
        "20",
        "--trees",
        "50",
        "--out",
        data.to_str().unwrap(),
        "--seed",
        "11",
    ])
    .unwrap();
    assert!(msg.contains("wrote 50 trees"));

    // self average-RF over the simulated file
    let table = run(&["avgrf", "--refs", data.to_str().unwrap()]).unwrap();
    assert_eq!(table.lines().count(), 51, "header + one row per query");
    // all four algorithm selections agree line-for-line
    for alg in ["bfhrf-seq", "ds", "dsmp"] {
        let other = run(&[
            "avgrf",
            "--refs",
            data.to_str().unwrap(),
            "--algorithm",
            alg,
        ])
        .unwrap();
        assert_eq!(table, other, "algorithm {alg} diverged");
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn consensus_output_reparses_and_matrix_is_symmetric() {
    let dir = workdir();
    let data = dir.join("cli-cons.nwk");
    run(&[
        "simulate",
        "--taxa",
        "12",
        "--trees",
        "30",
        "--out",
        data.to_str().unwrap(),
        "--seed",
        "5",
        "--pop-scale",
        "0.1",
    ])
    .unwrap();

    let newick = run(&["consensus", "--refs", data.to_str().unwrap()]).unwrap();
    let reparsed = phylo::TreeCollection::parse(&newick).unwrap();
    assert_eq!(reparsed.len(), 1);
    assert_eq!(reparsed.taxa.len(), 12);

    let matrix = run(&["matrix", "--refs", data.to_str().unwrap()]).unwrap();
    let rows: Vec<Vec<u32>> = matrix
        .lines()
        .map(|l| l.split('\t').map(|c| c.parse().unwrap()).collect())
        .collect();
    assert_eq!(rows.len(), 30);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[i], 0);
        for (j, &cell) in row.iter().enumerate() {
            assert_eq!(cell, rows[j][i]);
        }
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn best_query_against_separate_reference_file() {
    let dir = workdir();
    let refs = dir.join("cli-refs.nwk");
    run(&[
        "simulate",
        "--taxa",
        "16",
        "--trees",
        "80",
        "--out",
        refs.to_str().unwrap(),
        "--seed",
        "21",
        "--pop-scale",
        "0.05",
    ])
    .unwrap();
    // queries: the consensus (a strong candidate) + a random-ish tree
    let consensus = run(&["consensus", "--refs", refs.to_str().unwrap()]).unwrap();
    let shuffled = {
        // a deliberately bad candidate: caterpillar over the same labels
        let coll = phylo_sim::datasets::read_collection(&refs).unwrap();
        let labels: Vec<&str> = coll.taxa.iter().map(|(_, l)| l).collect();
        let mut s = labels[0].to_string();
        for l in &labels[1..] {
            s = format!("({s},{l})");
        }
        format!("{s};")
    };
    let queries = dir.join("cli-queries.nwk");
    std::fs::write(&queries, format!("{shuffled}\n{consensus}")).unwrap();
    let out = run(&[
        "best",
        "--refs",
        refs.to_str().unwrap(),
        "--queries",
        queries.to_str().unwrap(),
    ])
    .unwrap();
    assert!(
        out.contains("best_query\t1"),
        "consensus must beat the caterpillar: {out}"
    );
    std::fs::remove_file(&refs).ok();
    std::fs::remove_file(&queries).ok();
}

#[test]
fn lenient_exit_codes_and_report_on_corrupted_file() {
    use bfhrf_cli::{run_full, EXIT_ERROR, EXIT_OK, EXIT_PARTIAL};
    let dir = workdir();
    let data = dir.join("cli-corrupt-src.nwk");
    run(&[
        "simulate",
        "--taxa",
        "14",
        "--trees",
        "60",
        "--out",
        data.to_str().unwrap(),
        "--seed",
        "9",
    ])
    .unwrap();
    // Corrupt 3 of 60 records (5%) by stripping their closing parens;
    // the records stay ';'-terminated so the lenient reader can resync.
    let text = std::fs::read_to_string(&data).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 60);
    let bad = [7usize, 23, 41];
    let mut dirty = String::new();
    let mut clean = String::new();
    for (i, l) in lines.iter().enumerate() {
        if bad.contains(&i) {
            dirty.push_str(&l.replace(')', ""));
            dirty.push('\n');
        } else {
            dirty.push_str(l);
            dirty.push('\n');
            clean.push_str(l);
            clean.push('\n');
        }
    }
    let dirty_p = dir.join("cli-corrupt-dirty.nwk");
    let clean_p = dir.join("cli-corrupt-clean.nwk");
    std::fs::write(&dirty_p, dirty).unwrap();
    std::fs::write(&clean_p, clean).unwrap();

    let argv = |parts: &[&str]| parts.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let want = run_full(&argv(&["avgrf", "--refs", clean_p.to_str().unwrap()])).unwrap();
    assert_eq!(want.code, EXIT_OK);

    let got = run_full(&argv(&[
        "avgrf",
        "--refs",
        dirty_p.to_str().unwrap(),
        "--lenient",
    ]))
    .unwrap();
    assert_eq!(got.code, EXIT_PARTIAL, "skips must exit 2");
    assert_eq!(
        got.stdout, want.stdout,
        "lenient run must match the pre-cleaned file exactly"
    );
    assert!(
        got.notes
            .iter()
            .any(|n| n.contains("60 records, 57 accepted, 3 skipped")),
        "{:?}",
        got.notes
    );
    assert_eq!(
        got.notes
            .iter()
            .filter(|n| n.contains("skipped record"))
            .count(),
        3,
        "every skipped record is listed: {:?}",
        got.notes
    );

    let err = run_full(&argv(&["avgrf", "--refs", dirty_p.to_str().unwrap()])).unwrap_err();
    assert_eq!(err.code, EXIT_ERROR, "strict run on corrupt input exits 1");

    for p in [&data, &dirty_p, &clean_p] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn cli_surfaces_parse_errors_with_location() {
    let dir = workdir();
    let bad = dir.join("bad.nwk");
    std::fs::write(&bad, "((A,B),(C,D);\n").unwrap();
    let err = run(&["avgrf", "--refs", bad.to_str().unwrap()]).unwrap_err();
    assert!(err.contains("parse error"), "got: {err}");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn mem_budget_covers_the_frozen_table_not_just_the_build() {
    use bfhrf_cli::{run_full, EXIT_BUDGET, EXIT_OK};
    // Uniform trees share few splits, so the frozen table (two 17-byte
    // slots per distinct split, plus the mask pool) is several times the
    // build's r·(n−3)·8-byte spill buffers. A budget between the two
    // passes the build; the freeze must still be refused, typed, exit 3.
    let dir = workdir();
    let data = dir.join("cli-freeze-budget.nwk");
    let coll = phylo_sim::perturb::random_collection(32, 400, 23);
    phylo_sim::datasets::write_collection(&data, &coll).unwrap();
    let n = coll.taxa.len();
    let spill = coll.len() * (n - 3) * 8;
    let distinct = bfhrf::Bfh::build(&coll.trees, &coll.taxa).distinct();
    let table = bfhrf::FrozenBfh::bytes_for(n, distinct);
    assert!(2 * spill < table, "spill {spill} vs table {table}");

    let argv = |budget: usize, algorithm: &str| -> Vec<String> {
        let budget = budget.to_string();
        let parts = [
            "avgrf",
            "--refs",
            data.to_str().unwrap(),
            "--mem-budget",
            &budget,
        ];
        let mut v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        v.extend(["--algorithm".to_string(), algorithm.to_string()]);
        v
    };
    let between = (spill + table) / 2;
    // bfhrf and bfhrf-seq freeze after their build; hashrf degrades to the
    // same build + freeze under the same budget.
    for algorithm in ["bfhrf", "bfhrf-seq", "hashrf"] {
        let err = run_full(&argv(between, algorithm)).unwrap_err();
        assert_eq!(err.code, EXIT_BUDGET, "{algorithm}: {}", err.message);
        assert!(
            err.message.contains("resource limit") && err.message.contains("frozen"),
            "{algorithm}: {}",
            err.message
        );
    }
    // At the table's own size the run goes through and answers as if
    // unbudgeted.
    let free = run(&["avgrf", "--refs", data.to_str().unwrap()]).unwrap();
    let ok = run_full(&argv(table, "bfhrf")).unwrap();
    assert_eq!(ok.code, EXIT_OK);
    assert_eq!(ok.stdout, free);
    std::fs::remove_file(&data).ok();
}
