#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
spread: the distance between its first and third quartiles as a share of
its median, beside the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py WORKLOAD [RUNS [FIRST_SEED]]

Run from the repository root. Prints one line per run and a table at the
end; exits 1 if any spread (other than setup_s) reaches a third of its
bound.
"""

import json
import statistics
import subprocess
import sys


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        prov = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
        assert result["correct"], result
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(seed, prov["distinct_splits"], {k: round(v[-1], 4) for k, v in values.items()},
              flush=True)
    steady = True
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:14} median {med:12.4f} spread {spread:7.4f} "
              f"bound {m['bound']:.2f} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
