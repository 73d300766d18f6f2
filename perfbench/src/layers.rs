//! The per-layer replay of the traced run: each layer's public call, timed
//! from outside on the exact inputs of the workload — the refs file the
//! index was built from, the payloads and frames the readers sent, the
//! trees the writer added and removed.

use bfhrf::{BfhBuilder, Comparator, FrozenComparator, RunGuard};
use bfhrf_cli::proto::{self, Response, ScoreRow};
use phylo::{BipartitionScratch, IngestPolicy, SplitBatch, Tree};
use phylo_index::Index;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Inputs of the replay.
pub struct Replay<'a> {
    pub refs_path: &'a Path,
    /// A clean index of the refs (built by `bfhrf index build`, never served).
    pub index_dir: &'a Path,
    /// The per-query payload strings the readers sent (Newick or base64).
    pub query_payload: &'a [String],
    pub writer_newick: &'a [String],
    /// The rendered `batch` frames.
    pub frames: &'a [String],
    /// Expected answers of the served queries (for the render replay).
    pub expected: &'a [bfhrf::RfAverage],
    /// Whether the payloads are binary records.
    pub bin: bool,
    /// Whether the offline solve scores the references themselves (Q = R).
    pub offline_queries: bool,
}

pub struct Replayed {
    pub metrics: Vec<(&'static str, f64)>,
    /// Replayed server-side stage time of one frame: proto parse, payload
    /// decode, scoring and response render.
    pub frame_stage_ms: f64,
    /// Replayed stage time of one offline solve: load, build, freeze and
    /// scoring every query.
    pub offline_stage_s: f64,
}

/// Threads of the benchmark's offline solve (`avgrf --threads 2`).
const THREADS: usize = 2;
/// Each timed pass repeats until this much time has passed (and at least
/// three times); the median pass is reported.
const MIN_REPLAY_S: f64 = 0.2;
/// Interleaved rounds of the fan-out comparison.
const FANOUT_ROUNDS: usize = 21;

/// Median seconds of one call of `pass`.
fn timed<T>(mut pass: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed().as_secs_f64() < MIN_REPLAY_S {
        let t = Instant::now();
        black_box(pass());
        times.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&times).expect("at least three passes")
}

fn once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

pub fn replay(r: &Replay<'_>) -> Result<Replayed, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let guard = RunGuard::default();

    // phylo / phylo-wire: the refs file, as the CLI and index build read it.
    let (loaded, load_s) = once(|| {
        let file = std::fs::File::open(r.refs_path).map_err(|e| format!("open refs: {e}"))?;
        phylo_wire::read_collection_sniffed(std::io::BufReader::new(file), IngestPolicy::Strict)
            .map_err(|e| format!("read refs: {e}"))
    });
    let coll = loaded?.0;
    let taxa = &coll.taxa;
    m.push(("phylo.load_s", load_s));

    // Payload decode: Newick parse, or base64 + record decode.
    let nq = r.query_payload.len() as f64;
    let us_per_query = |secs: f64| secs * 1e6 / nq;
    let (queries, parse_us, b64_us, record_us): (Vec<Tree>, f64, f64, f64) = if r.bin {
        let decode = |s: &String| phylo_wire::b64::decode(s).map_err(|e| format!("base64: {e}"));
        let bytes = r
            .query_payload
            .iter()
            .map(decode)
            .collect::<Result<Vec<_>, _>>()?;
        let record = |b: &Vec<u8>| {
            phylo_wire::decode_tree_exact(b, taxa.len()).map_err(|e| format!("record: {e}"))
        };
        let trees = bytes.iter().map(record).collect::<Result<Vec<_>, _>>()?;
        let b64 = timed(|| {
            r.query_payload
                .iter()
                .filter(|s| black_box(decode(s)).is_ok())
                .count()
        });
        let rec = timed(|| {
            bytes
                .iter()
                .filter(|b| black_box(record(b)).is_ok())
                .count()
        });
        (trees, 0.0, us_per_query(b64), us_per_query(rec))
    } else {
        let parse =
            |s: &String| phylo::parse_newick_readonly(s, taxa).map_err(|e| format!("newick: {e}"));
        let trees = r
            .query_payload
            .iter()
            .map(parse)
            .collect::<Result<Vec<_>, _>>()?;
        let secs = timed(|| {
            r.query_payload
                .iter()
                .filter(|s| black_box(parse(s)).is_ok())
                .count()
        });
        (trees, us_per_query(secs), 0.0, 0.0)
    };
    m.push(("phylo.newick_parse_us", parse_us));
    m.push(("wire.b64_decode_us", b64_us));
    m.push(("wire.record_decode_us", record_us));

    // Split extraction, keeping owned copies of the batches for the probe.
    let mut scratch = BipartitionScratch::new();
    let extract = timed(|| {
        queries
            .iter()
            .map(|q| scratch.batch_splits(q, taxa).len())
            .sum::<usize>()
    });
    let mut batches: Vec<(Vec<u64>, Vec<u128>)> = Vec::with_capacity(queries.len());
    let mut words = 0;
    for q in &queries {
        let b = scratch.batch_splits(q, taxa);
        words = b.words();
        let masks = (0..b.len())
            .flat_map(|i| b.mask(i).iter().copied())
            .collect();
        batches.push((masks, b.hashes().to_vec()));
    }
    let n_splits: usize = batches.iter().map(|(_, h)| h.len()).sum();
    m.push(("phylo.extract_us", us_per_query(extract)));
    m.push(("phylo.splits_per_tree", n_splits as f64 / nq));

    // bfhrf: sharded build, freeze, probe, score.
    let (built, build_s) = once(|| {
        pool.install(|| {
            BfhBuilder::new()
                .parallel(true)
                .shards(THREADS)
                .from_trees(&coll.trees, taxa)
        })
    });
    let bfh = built.map_err(|e| format!("build: {e}"))?;
    let (frozen, freeze_s) = once(|| bfh.freeze());
    m.push(("bfhrf.build_s", build_s));
    m.push(("bfhrf.distinct_splits", bfh.distinct() as f64));
    m.push(("bfhrf.freeze_ms", freeze_s * 1e3));
    m.push((
        "bfhrf.table_mb",
        frozen.approx_bytes() as f64 / (1024.0 * 1024.0),
    ));
    let probe = timed(|| {
        batches
            .iter()
            .map(|(masks, hashes)| {
                frozen.frequency_sum_batch(&SplitBatch::from_parts(words, masks, hashes))
            })
            .sum::<u64>()
    });
    m.push(("bfhrf.probe_ns", probe * 1e9 / n_splits as f64));
    let hits = batches
        .iter()
        .flat_map(|(masks, _)| masks.chunks_exact(words))
        .filter(|w| frozen.frequency_words(w) > 0)
        .count();
    m.push(("bfhrf.probe_hit_ratio", hits as f64 / n_splits as f64));
    let cmp = FrozenComparator::new(&frozen, taxa);
    let score = timed(|| cmp.average_all_scratch_guarded(&queries, &guard, &mut scratch));
    m.push(("bfhrf.score_us", us_per_query(score)));
    let frame: Vec<Tree> = queries
        .iter()
        .take(crate::gen::FRAME_QUERIES)
        .cloned()
        .collect();
    let par_cmp = FrozenComparator::new(&frozen, taxa).parallel(true);
    let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
    for _ in 0..FANOUT_ROUNDS {
        seq_s.push(once(|| cmp.average_all_scratch_guarded(&frame, &guard, &mut scratch)).1);
        par_s.push(once(|| pool.install(|| par_cmp.average_all_guarded(&frame, &guard))).1);
    }
    let median = |xs: &[f64]| crate::stats::median(xs).expect("fan-out rounds ran");
    m.push(("bfhrf.fanout_ratio", median(&par_s) / median(&seq_s)));
    let score_all_s = if r.offline_queries {
        let par_all = FrozenComparator::new(&frozen, taxa).parallel(true);
        once(|| pool.install(|| par_all.average_all_guarded(&coll.trees, &guard))).1
    } else {
        0.0
    };
    drop(frozen);
    drop(bfh);

    // phylo-index: what the daemon does at bind and on each write.
    let (fo, open_frozen_s) = once(|| Index::open_frozen(r.index_dir));
    fo.map_err(|e| format!("open_frozen: {e}"))?;
    let (idx, open_s) = once(|| Index::open(r.index_dir));
    let mut index = idx.map_err(|e| format!("open: {e}"))?;
    index.view();
    m.push(("index.open_s", open_s));
    m.push(("index.open_frozen_s", open_frozen_s));
    let writer = r
        .writer_newick
        .iter()
        .map(|s| {
            phylo::parse_newick_readonly(s, index.taxa()).map_err(|e| format!("writer tree: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (mut append_us, mut publish_ms) = (Vec::new(), Vec::new());
    for t in &writer {
        let (res, s) = once(|| index.append_add_bin(t));
        res.map_err(|e| format!("append add: {e}"))?;
        append_us.push(s * 1e6);
    }
    publish_ms.push(once(|| index.view()).1 * 1e3);
    let (dry, dryrun_s) = once(|| {
        let mut probe = index.bfh().clone();
        writer
            .iter()
            .try_for_each(|t| probe.remove_tree(t, index.taxa()))
    });
    dry.map_err(|e| format!("remove dry run: {e}"))?;
    for t in &writer {
        let (res, s) = once(|| index.append_remove_bin(t));
        res.map_err(|e| format!("append remove: {e}"))?;
        append_us.push(s * 1e6);
    }
    publish_ms.push(once(|| index.view()).1 * 1e3);
    m.push(("index.wal_append_us", median(&append_us)));
    m.push(("index.publish_ms", median(&publish_ms)));
    m.push(("index.remove_dryrun_ms", dryrun_s * 1e3));

    // bfhrf-cli proto: the exact request frames and a response of one frame.
    let nf = r.frames.len() as f64;
    let parse = timed(|| {
        r.frames
            .iter()
            .filter(|f| black_box(proto::parse_request(f.trim_end())).is_ok())
            .count()
    });
    let proto_parse_us = parse * 1e6 / nf;
    let rows = r.expected[..crate::gen::FRAME_QUERIES]
        .iter()
        .enumerate()
        .map(|(index, a)| ScoreRow {
            index,
            left: a.left,
            right: a.right,
            n_refs: a.n_refs,
            avg: a.average(),
        })
        .collect();
    let resp = Response::Scores {
        n_taxa: taxa.len(),
        generation: 0,
        snap: 0,
        scores: rows,
        notes: vec![],
    };
    let proto_render_us = timed(|| resp.to_json(Some(0)).to_string().len()) * 1e6;
    let frame_bytes: usize = r.frames.iter().map(String::len).sum();
    m.push(("cli.proto_parse_us", proto_parse_us));
    m.push(("cli.proto_render_us", proto_render_us));
    m.push(("cli.frame_kb", frame_bytes as f64 / nf / 1024.0));

    let per_query_us = parse_us + b64_us + record_us + us_per_query(score);
    let frame_stage_ms =
        (proto_parse_us + crate::gen::FRAME_QUERIES as f64 * per_query_us + proto_render_us) / 1e3;
    Ok(Replayed {
        metrics: m,
        frame_stage_ms,
        offline_stage_s: load_s + build_s + freeze_s + score_all_s,
    })
}
