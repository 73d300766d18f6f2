//! One benchmark run: generate, check, set up, measure, report.

use crate::check;
use crate::daemon::{self, Conn, Daemon};
use crate::gen::{self, Inputs, Workload, FRAME_QUERIES};
use crate::layers::{self, Replay};
use crate::load::{self, ReaderReport, Reads, Schedule, WriterReport};
use crate::stats::{median, tail};
use crate::trace;
use crate::{Opts, END_TO_END, PER_LAYER};
use bfhrf::{Bfh, Comparator, DayComparator, RfAverage};
use bfhrf_bench::peak_alloc::GLOBAL;
use bfhrf_cli::json::Json;
use bfhrf_cli::proto::{Request, WireEncoding};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What `main` prints.
pub struct Output {
    pub provenance: Json,
    pub result: Json,
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-workload knobs.
struct Plan {
    /// Share of `--seconds` spent on repeated offline solves, and the
    /// fewest solves that run however long they take.
    solve_share: f64,
    min_solves: usize,
    /// Share of `--seconds` spent in the served read window.
    serve_share: f64,
    /// Reader connections, each keeping one frame in flight.
    readers: usize,
    /// Encoding of the read and write sessions.
    encoding: Option<WireEncoding>,
    /// `Some(rate)`: an open-loop writer at `rate` operations per second
    /// during the read window.
    writer_rate: Option<f64>,
    /// Add/remove pairs the traced run times after the read window when
    /// there is no writer during it.
    after_pairs: usize,
}

fn plan(w: Workload) -> Plan {
    match w {
        Workload::AvianAvgrf => Plan {
            solve_share: 0.35,
            min_solves: 3,
            serve_share: 0.35,
            readers: 2,
            encoding: None,
            writer_rate: None,
            after_pairs: 8,
        },
        Workload::ServeNewick => Plan {
            solve_share: 0.0,
            min_solves: 6,
            serve_share: 0.75,
            readers: 2,
            encoding: None,
            writer_rate: None,
            after_pairs: 4,
        },
        Workload::ServeBinMixed => Plan {
            solve_share: 0.4,
            min_solves: 3,
            serve_share: 0.8,
            readers: 1,
            encoding: Some(WireEncoding::Bin),
            // ~30 ms of daemon CPU per write at r=1500: at 10/s about a
            // third of the frames overlap a write, so the frame median sits
            // clear of the boundary between overlapped and free frames.
            writer_rate: Some(10.0),
            after_pairs: 0,
        },
    }
}

/// Set-ups per run: the median of three is reported as `setup_s`. The
/// traced run needs one daemon plus one clean index for the replays.
const SETUPS: usize = 3;
const TRACED_SETUPS: usize = 2;
/// Unrecorded read traffic before the timed window.
const WARMUP: Duration = Duration::from_millis(800);
/// Slices of the read window behind `read_qps`.
const QPS_SLICES: usize = 8;
/// Avian queries checked against Day's O(n) oracle.
const DAY_SAMPLE: usize = 8;
/// Idle-connection pings behind `server.ping_ms_p50`.
const PINGS: usize = 200;

pub fn run(o: &Opts) -> Result<Output, String> {
    let w = o.workload;
    let p = plan(w);
    let work = o.work.join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // ---- inputs and expected answers (not timed) ----
    let shape = gen::shape(w, o.scale, o.seed);
    let inp = gen::generate(&shape, w);
    let refs_path = work.join("refs.nwk");
    gen::write_refs(&refs_path, &inp.refs, &inp.taxa).map_err(|e| format!("write refs: {e}"))?;
    let base_bfh = Bfh::build(&inp.refs, &inp.taxa);
    let frozen_bytes = base_bfh.freeze().approx_bytes();
    let base = check::expected_from(&base_bfh, &inp.taxa, &inp.queries);
    let plus = if p.writer_rate.is_some() {
        let mut b = base_bfh.clone();
        for t in &inp.writer {
            b.add_tree(t, &inp.taxa);
        }
        check::expected_from(&b, &inp.taxa, &inp.queries)
    } else {
        base.clone()
    };
    let mut solve_args = vec![
        "avgrf".to_string(),
        "--refs".into(),
        path_arg(&refs_path),
        "--threads".into(),
        "2".into(),
    ];
    let solve_report = if w == Workload::AvianAvgrf {
        // Q = R: the report covers every reference tree.
        let all = check::expected_from(&base_bfh, &inp.taxa, &inp.refs);
        check_day_sample(&inp, &all, o.seed)?;
        check::render_report(&all)
    } else {
        let q_path = work.join("queries.nwk");
        gen::write_refs(&q_path, &inp.queries, &inp.taxa)
            .map_err(|e| format!("write queries: {e}"))?;
        solve_args.extend(["--queries".into(), path_arg(&q_path)]);
        check::render_report(&base)
    };
    let distinct = base_bfh.distinct();
    drop(base_bfh);

    // ---- set-up: index build + daemon spawn to first ping ----
    let setups = if o.trace { TRACED_SETUPS } else { SETUPS };
    let (mut setup_s, mut rss) = (Vec::new(), Vec::new());
    let mut daemon: Option<Daemon> = None;
    for i in 0..setups {
        let dir = work.join(format!("idx{i}"));
        let build = daemon::index_build(&o.bin, &refs_path, &dir)?;
        let (d, spawn) = Daemon::spawn(&o.bin, &dir, &work)?;
        setup_s.push(build + spawn);
        rss.push(d.rss_mib()?);
        if let Some(prev) = daemon.replace(d) {
            prev.shutdown()?;
            // The untraced run needs only the live index; dropping the
            // others before writeback spares the disk their pages.
            if !o.trace {
                let _ = std::fs::remove_dir_all(work.join(format!("idx{}", i - 1)));
            }
        }
    }
    let daemon = daemon.expect("at least one set-up");
    m.insert("setup_s", median(&setup_s).expect("set-ups ran"));
    // The serving footprint: the index loaded and frozen, before per-thread
    // arenas of reads and writes make the resident set timing-dependent.
    m.insert("serve_rss_mb", median(&rss).expect("set-ups ran"));
    // Flush what set-up wrote, so writeback lands in no timed phase (the
    // writers' WAL fsyncs would wait on it).
    sync_files(&work);

    // ---- served reads (and writes) ----
    let addr = daemon.addr.clone();
    let server_labels = Conn::connect(&addr)?.taxa()?;
    let payload = |trees: &[phylo::Tree]| match p.encoding {
        Some(WireEncoding::Bin) => gen::binary(trees, &inp.taxa, &server_labels),
        _ => gen::newick(trees, &inp.taxa),
    };
    let query_payload = payload(&inp.queries);
    let writer_payload = payload(&inp.writer);
    let frames: Vec<String> = query_payload
        .chunks(FRAME_QUERIES)
        .enumerate()
        .map(|(k, chunk)| {
            daemon::frame(
                Request::Batch {
                    queries: chunk.to_vec(),
                    flags: Default::default(),
                    collection: None,
                },
                Some(k as u64),
            )
        })
        .collect();
    let reads = Reads {
        frames: &frames,
        frame_len: FRAME_QUERIES,
        tables: [&base, &plus],
        encoding: p.encoding,
    };
    let window = Duration::from_secs_f64(p.serve_share * o.seconds);
    load::read_loop(&addr, &reads, p.readers, Instant::now(), WARMUP, false)?;
    let stats_before = Conn::connect(&addr)?.metrics()?;
    let (untraced, traced_window) = if o.trace {
        (window / 2, Some(window / 2))
    } else {
        (window, None)
    };
    let (readers, mut writer) = serve_window(
        &addr,
        &reads,
        &p,
        &writer_payload,
        inp.refs.len(),
        untraced,
        false,
    )?;
    let mut frame_ms: Vec<f64> = Vec::new();
    for r in &readers {
        frame_ms.extend(&r.frame_ms);
        attempted += r.attempted;
        failed += r.failed;
    }
    if p.writer_rate.is_some() && readers.iter().map(|r| r.odd_snaps).sum::<u64>() == 0 {
        return Err("no read frame was answered from a snapshot holding the writer trees".into());
    }
    let p50 = median(&frame_ms).ok_or("no read frame was answered")?;
    // The median slice rate: a stall in one slice (another tenant of the
    // host, say) cannot drag the whole window's figure.
    let rates = load::slice_rates(&readers, FRAME_QUERIES, untraced, QPS_SLICES);
    m.insert("read_qps", median(&rates).expect("slices"));
    m.insert("frame_ms_p50", p50);

    let mut spans = Vec::new();
    if let Some(tw) = traced_window {
        let (traced, traced_writer) =
            serve_window(&addr, &reads, &p, &writer_payload, inp.refs.len(), tw, true)?;
        // The writer is not traced; its two windows form one sample.
        if let (Some(a), Some(b)) = (writer.as_mut(), traced_writer) {
            a.op_ms.extend(b.op_ms);
            a.attempted += b.attempted;
            a.failed += b.failed;
            a.max_lag_ms = a.max_lag_ms.max(b.max_lag_ms);
        }
        let mut traced_ms = Vec::new();
        for r in traced {
            traced_ms.extend(&r.frame_ms);
            frame_ms.extend(&r.frame_ms);
            attempted += r.attempted;
            failed += r.failed;
            spans.extend(r.spans);
        }
        let traced_p50 = median(&traced_ms).ok_or("no traced frame was answered")?;
        m.insert("trace.overhead_frac", traced_p50 / p50 - 1.0);
        // Both halves together; tracing adds ~1% to a frame. A per-layer
        // tail the sample cannot support reads 0 rather than failing the run.
        let p99 = tail(&frame_ms, 99.0).unwrap_or_else(|e| {
            eprintln!("perfbench: frame_ms_p99 not reported: {e}");
            0.0
        });
        m.insert("frame_ms_p99", p99);
    }

    // Without a writer in the window, the traced run times isolated pairs.
    let writes = match writer {
        Some(wr) => Some(wr),
        None if o.trace => Some(load::write_loop(
            &addr,
            p.encoding,
            &writer_payload,
            inp.refs.len(),
            Instant::now(),
            Schedule::Pairs(p.after_pairs),
        )?),
        None => None,
    };
    if let Some(wr) = &writes {
        attempted += wr.attempted;
        failed += wr.failed;
    }

    let mut provenance_extra = Vec::new();
    if o.trace {
        let mut c = Conn::connect(&addr)?;
        let mut ping_ms = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t = Instant::now();
            c.ping()?;
            ping_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        m.insert("server.ping_ms_p50", median(&ping_ms).expect("pings ran"));
        let stats_after = c.metrics()?;
        drop(c);
        server_metrics(&mut m, &stats_before, &stats_after, p.encoding)?;
        for (name, span) in [
            ("client.send_us_p50", "send"),
            ("client.decode_us_p50", "decode"),
            ("client.check_us_p50", "check"),
        ] {
            let v = median(&trace::self_times_of(&spans, span)).unwrap_or(0.0) / 1e3;
            m.insert(name, v);
        }
        let wait = median(&trace::self_times_of(&spans, "wait")).unwrap_or(0.0) / 1e6;
        m.insert("client.wait_ms_p50", wait);
        let writes = writes.expect("the traced run always writes");
        m.insert(
            "write_ms_p50",
            median(&writes.pair_ms()).ok_or("no write pair completed")?,
        );
        m.insert("write.add_ms_p50", median(&writes.add_ms()).unwrap_or(0.0));
        m.insert(
            "write.remove_ms_p50",
            median(&writes.remove_ms()).unwrap_or(0.0),
        );
        // Only the open-loop writer collects enough writes for a p90.
        m.insert("write_ms_p90", tail(&writes.op_ms, 90.0).unwrap_or(0.0));
        m.insert(
            "writer.lag_ms_max",
            if p.writer_rate.is_some() {
                writes.max_lag_ms
            } else {
                0.0
            },
        );
        trace::write_tsv(
            &o.work.join(format!("trace-{}-{}.tsv", w.name(), o.seed)),
            &spans,
        )
        .map_err(|e| format!("write trace: {e}"))?;
    }
    daemon.shutdown()?;

    // ---- offline solves: the CLI avgrf path, in process, after the
    // served phase so their heap churn cannot disturb it ----
    if w == Workload::AvianAvgrf {
        // bfhrf-seq must render the identical report (and so the same mean).
        let mut seq = solve_args.clone();
        seq.extend(["--algorithm".into(), "bfhrf-seq".into()]);
        let out = bfhrf_cli::run_full(&seq).map_err(|e| format!("bfhrf-seq: {}", e.message))?;
        if out.stdout != solve_report {
            return Err("bfhrf-seq report differs from the expected answers".into());
        }
    }
    let (mut solve_s, mut heap) = (Vec::new(), Vec::new());
    let solve_start = Instant::now();
    loop {
        let live = GLOBAL.current_bytes();
        GLOBAL.reset_peak();
        let t = Instant::now();
        let out = bfhrf_cli::run_full(&solve_args).map_err(|e| format!("avgrf: {}", e.message))?;
        solve_s.push(t.elapsed().as_secs_f64());
        heap.push(GLOBAL.peak_bytes().saturating_sub(live) as f64 / MIB);
        attempted += 1;
        if out.code != 0 || out.stdout != solve_report {
            return Err("avgrf report differs from the expected answers".into());
        }
        if solve_s.len() >= p.min_solves
            && solve_start.elapsed().as_secs_f64() >= p.solve_share * o.seconds
        {
            break;
        }
    }
    m.insert("solve_s", median(&solve_s).expect("a solve ran"));
    m.insert("peak_heap_mb", median(&heap).expect("a solve ran"));

    if o.trace {
        let replay = Replay {
            refs_path: &refs_path,
            index_dir: &work.join("idx0"),
            query_payload: &query_payload,
            writer_newick: &gen::newick(&inp.writer, &inp.taxa),
            frames: &frames,
            expected: &base,
            bin: p.encoding == Some(WireEncoding::Bin),
            offline_queries: w == Workload::AvianAvgrf,
        };
        let replayed = layers::replay(&replay)?;
        for (k, v) in &replayed.metrics {
            m.insert(k, *v);
        }
        let ledger = if w == Workload::AvianAvgrf {
            1.0 - replayed.offline_stage_s / m["solve_s"]
        } else {
            1.0 - replayed.frame_stage_ms / m["server.batch_ms_p50"]
        };
        m.insert("ledger.unaccounted_frac", ledger);
        m.insert("fail_frac", failed as f64 / attempted as f64);
        provenance_extra.push(("frame_stage_ms", Json::from(replayed.frame_stage_ms)));
    }

    let names = if o.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let v = *m
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        metrics.push((
            name.to_string(),
            Json::obj(vec![("value", v.into()), ("unit", unit.into())]),
        ));
    }
    let result = Json::obj(vec![
        ("correct", true.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    let mut prov = provenance(o, &shape, distinct, frozen_bytes);
    if let Json::Obj(fields) = &mut prov {
        fields.extend(
            provenance_extra
                .into_iter()
                .map(|(k, v)| (k.to_string(), v)),
        );
    }
    Ok(Output {
        provenance: prov,
        result,
    })
}

const MIB: f64 = 1024.0 * 1024.0;

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// One read window: the readers, plus the open-loop writer when the
/// workload has one.
fn serve_window(
    addr: &str,
    reads: &Reads<'_>,
    p: &Plan,
    writer_payload: &[String],
    base_trees: usize,
    window: Duration,
    tracing: bool,
) -> Result<(Vec<ReaderReport>, Option<WriterReport>), String> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let writer = p.writer_rate.map(|rate| {
            s.spawn(move || {
                let schedule = Schedule::Rate { rate, window };
                load::write_loop(
                    addr,
                    p.encoding,
                    writer_payload,
                    base_trees,
                    start,
                    schedule,
                )
            })
        });
        let readers = load::read_loop(addr, reads, p.readers, start, window, tracing);
        let writer = writer
            .map(|h| h.join().expect("writer thread panicked"))
            .transpose();
        Ok((readers?, writer?))
    })
}

/// `fsync` every file under `dir`.
fn sync_files(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            sync_files(&path);
        } else if let Ok(f) = std::fs::File::open(&path) {
            let _ = f.sync_all();
        }
    }
}

/// Avian: a seeded sample of queries against Day's O(n) oracle.
fn check_day_sample(inp: &Inputs, all: &[RfAverage], seed: u64) -> Result<(), String> {
    let day = DayComparator::new(&inp.refs, &inp.taxa);
    let mut x = seed;
    for _ in 0..DAY_SAMPLE {
        x = gen::mix(x);
        let i = (x % inp.refs.len() as u64) as usize;
        let want = day
            .average(&inp.refs[i])
            .map_err(|e| format!("Day's oracle failed on query {i}: {e}"))?;
        if want != all[i] {
            return Err(format!(
                "query {i}: BFHRF answered {:?}, Day's oracle {want:?}",
                all[i]
            ));
        }
    }
    Ok(())
}

/// Server-side metrics from two `stats` snapshots taken around the
/// served part of the run.
fn server_metrics(
    m: &mut HashMap<&'static str, f64>,
    before: &Json,
    after: &Json,
    encoding: Option<WireEncoding>,
) -> Result<(), String> {
    let delta = |name: &str, label: (&str, &str)| -> Result<Vec<(u64, u64)>, String> {
        let get = |doc: &Json| {
            daemon::histogram(doc, name, label)
                .ok_or_else(|| format!("stats has no {name}{{{}={}}}", label.0, label.1))
        };
        Ok(daemon::histogram_delta(&get(before)?, &get(after)?))
    };
    use crate::stats::bucket_quantile as q;
    m.insert(
        "server.batch_ms_p50",
        q(&delta("serve_request_ns", ("op", "batch"))?, 0.5) / 1e6,
    );
    let mut writes = delta("serve_request_ns", ("op", "add"))?;
    writes.extend(delta("serve_request_ns", ("op", "remove"))?);
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (le, n) in writes {
        match merged.iter_mut().find(|(l, _)| *l == le) {
            Some(e) => e.1 += n,
            None => merged.push((le, n)),
        }
    }
    m.insert("server.write_ms_p50", q(&merged, 0.5) / 1e6);
    let enc = encoding.unwrap_or_default().as_str();
    m.insert(
        "server.decode_ms_p50",
        q(&delta("wire_decode_ns", ("encoding", enc))?, 0.5) / 1e6,
    );
    m.insert(
        "server.snapshot_wait_us_p99",
        q(&delta("serve_queue_wait_ns", ("lock", "snapshot"))?, 0.99) / 1e3,
    );
    Ok(())
}

/// Where and on what the numbers were measured.
fn provenance(o: &Opts, shape: &gen::Shape, distinct: usize, frozen_bytes: usize) -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let level = read(&format!("{base}/level"));
        if level.is_empty() {
            break;
        }
        let kind = read(&format!("{base}/type"));
        if kind.trim() != "Instruction" {
            caches.push(format!(
                "L{}:{}",
                level.trim(),
                read(&format!("{base}/size")).trim()
            ));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("workload", o.workload.name().into()),
        ("seed", o.seed.into()),
        (
            "commit",
            std::env::var("PERFBENCH_COMMIT")
                .unwrap_or_else(|_| "unknown".into())
                .into(),
        ),
        ("nproc", nproc.into()),
        ("cpu", cpu.into()),
        ("caches", caches.join(" ").into()),
        ("n_taxa", shape.spec.n_taxa.into()),
        ("r", shape.refs.into()),
        ("served_queries", shape.queries.into()),
        ("distinct_splits", distinct.into()),
        ("frozen_bytes", frozen_bytes.into()),
        ("seconds", o.seconds.into()),
        ("trace", o.trace.into()),
    ])
}
