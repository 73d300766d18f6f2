//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bfhrf BIN --work DIR [--scale smoke]
//! ```
//!
//! `perfbench/run.py` builds this binary and the `bfhrf` release binary
//! from source and passes `--bfhrf` and `--work`. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A wrong answer anywhere aborts the run with exit code 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod daemon;
mod gen;
mod layers;
mod load;
mod run;
mod stats;
mod trace;

use bfhrf_bench::peak_alloc::InstallPeakAlloc;
use gen::{Scale, Workload};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: InstallPeakAlloc = InstallPeakAlloc;

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("frame_ms_p50", "ms"),
    ("serve_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phylo.load_s", "s"),
    ("phylo.newick_parse_us", "us"),
    ("phylo.extract_us", "us"),
    ("phylo.splits_per_tree", "count"),
    ("wire.b64_decode_us", "us"),
    ("wire.record_decode_us", "us"),
    ("bfhrf.build_s", "s"),
    ("bfhrf.distinct_splits", "count"),
    ("bfhrf.freeze_ms", "ms"),
    ("bfhrf.table_mb", "MiB"),
    ("bfhrf.probe_ns", "ns"),
    ("bfhrf.probe_hit_ratio", "ratio"),
    ("bfhrf.score_us", "us"),
    ("bfhrf.fanout_ratio", "ratio"),
    ("index.open_s", "s"),
    ("index.open_frozen_s", "s"),
    ("index.wal_append_us", "us"),
    ("index.publish_ms", "ms"),
    ("index.remove_dryrun_ms", "ms"),
    ("cli.proto_parse_us", "us"),
    ("cli.proto_render_us", "us"),
    ("cli.frame_kb", "KiB"),
    ("read_qps", "queries/s"),
    ("frame_ms_p99", "ms"),
    ("write_ms_p50", "ms"),
    ("server.batch_ms_p50", "ms"),
    ("server.write_ms_p50", "ms"),
    ("server.decode_ms_p50", "ms"),
    ("server.snapshot_wait_us_p99", "us"),
    ("server.ping_ms_p50", "ms"),
    ("client.send_us_p50", "us"),
    ("client.wait_ms_p50", "ms"),
    ("client.decode_us_p50", "us"),
    ("client.check_us_p50", "us"),
    ("write.add_ms_p50", "ms"),
    ("write.remove_ms_p50", "ms"),
    ("write_ms_p90", "ms"),
    ("writer.lag_ms_max", "ms"),
    ("fail_frac", "ratio"),
    ("ledger.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin: PathBuf,
    pub work: PathBuf,
    pub scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |s: String, flag: &str| -> Result<f64, String> {
        s.parse::<f64>()
            .map_err(|_| format!("{flag} expects a number, got {s:?}"))
    };
    let seconds = num(get("--seconds")?, "--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let scale = match get("--scale") {
        Err(_) => Scale::Full,
        Ok(s) if s == "smoke" => Scale::Smoke,
        Ok(s) => return Err(format!("unknown --scale {s:?}")),
    };
    Ok(Opts {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed expects an unsigned integer".to_string())?,
        seconds,
        trace,
        bin: PathBuf::from(get("--bfhrf")?),
        work: PathBuf::from(get("--work")?),
        scale,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run::run(&opts) {
        Ok(out) => {
            println!("provenance {}", out.provenance);
            println!("{}", out.result);
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfhrf_cli::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&argv(
            "--workload avian-avgrf --seed 3 --seconds 10 --trace 1 --bfhrf b --work w",
        ))
        .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.trace),
            (Workload::AvianAvgrf, 3, true)
        );
        assert!(parse_args(&argv(
            "--workload nope --seed 3 --seconds 1 --trace 0 --bfhrf b --work w"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload avian-avgrf --seed 3 --seconds 1 --trace 2 --bfhrf b --work w"
        ))
        .is_err());
    }
}
