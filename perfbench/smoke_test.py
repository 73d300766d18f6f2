#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, on the
small `--scale smoke` inputs. Checks that each run exits 0 and prints, as
its last line, a correct result carrying exactly the metrics BENCHMARK.json
names for that mode.

    python3 perfbench/smoke_test.py

Run from the repository root; takes about three minutes.
"""

import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "11",
                                      "--seconds", str(bench["run_seconds"]), "--trace", trace,
                                      "--scale", "smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            label = f"{w['name']} --trace {trace}"
            if out.returncode != 0:
                print(f"FAIL {label}: exit {out.returncode}\n{out.stderr}")
                failures += 1
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']}")
            if got != want:
                problems.append(f"metrics differ: {sorted(set(got) ^ set(want))}")
            if key == "end_to_end":
                zero = [k for k, v in result["metrics"].items() if v["value"] <= 0]
                if zero:
                    problems.append(f"non-positive end-to-end metrics {zero}")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                failures += 1
            else:
                print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
