#!/usr/bin/env python3
"""Run the traced benchmark on each workload and print the per-query stage
split of a served `batch` frame (the layer ledger), for the Newick and the
binary encoding, next to the daemon's own per-frame time.

    python3 perfbench/ledger.py [SEED ...]

Run from the repository root. Each seed runs every workload once with
`--trace 1`; the table shows one column per workload and seed.
"""

import json
import subprocess
import sys


def traced(workload, seed, bench):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(out.stderr)
    lines = out.stdout.strip().splitlines()
    prov = json.loads(lines[-2].split(" ", 1)[1])
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return prov, metrics


def split(m, frame=64):
    """Per-query microseconds of each replayed stage of a served frame."""
    probe = m["bfhrf.probe_ns"] * m["phylo.splits_per_tree"] / 1e3
    rows = {
        "proto parse (frame / 64)": m["cli.proto_parse_us"] / frame,
        "newick parse": m["phylo.newick_parse_us"],
        "base64 decode": m["wire.b64_decode_us"],
        "record decode": m["wire.record_decode_us"],
        "split extraction": m["phylo.extract_us"],
        "probe": probe,
        "rest of scoring": m["bfhrf.score_us"] - m["phylo.extract_us"] - probe,
        "response render (frame / 64)": m["cli.proto_render_us"] / frame,
    }
    served = m["server.batch_ms_p50"] * 1e3 / frame
    rows["daemon batch p50 (frame / 64)"] = served
    rows["unaccounted"] = served - sum(v for k, v in rows.items() if k != "daemon batch p50 (frame / 64)")
    return rows


def main():
    seeds = [int(s) for s in sys.argv[1:]] or [301]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    columns = []
    for seed in seeds:
        for w in bench["workloads"]:
            prov, m = traced(w["name"], seed, bench)
            columns.append((f"{w['name']}@{seed}", prov, m))
            print(f"# {w['name']} seed {seed}: provenance {json.dumps(prov)}", flush=True)
            print(f"# metrics {json.dumps(m)}", flush=True)
    names = list(split(columns[0][2]))
    print("| µs per query | " + " | ".join(c[0] for c in columns) + " |")
    print("|---|" + "---|" * len(columns))
    for n in names:
        print(f"| {n} | " + " | ".join(f"{split(c[2])[n]:.1f}" for c in columns) + " |")
    for key in ("ledger.unaccounted_frac", "bfhrf.fanout_ratio", "trace.overhead_frac",
                "server.ping_ms_p50", "read_qps", "frame_ms_p99", "write_ms_p50", "write_ms_p90"):
        print(f"| {key} | " + " | ".join(f"{c[2][key]:.4g}" for c in columns) + " |")


if __name__ == "__main__":
    main()
