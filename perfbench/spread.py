#!/usr/bin/env python3
"""Run the benchmark on consecutive seeds and report, for every end-to-end
metric, the median and the interquartile spread as a share of the median,
next to the bound in BENCHMARK.json, and the same spread for the unscaled
raw.* times the runs print beside them.  Run from the repository root:

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--out FILE] [workload ...]
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


RAW = re.compile(r"^(raw\.\S+)\s+(\S+) \S+ \(not in the JSON\)$", re.M)


def summary(v):
    """Median and interquartile distance over the median."""
    q = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return med, ((q[2] - q[0]) / med if med else 0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every measured value here as JSON")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    record = {}
    ok = True
    for w in workloads:
        values = {}
        for k in range(args.runs):
            seed = str(args.first_seed + k)
            cmd = bench["command"] + ["--workload", w, "--seed", seed,
                                      "--seconds", seconds, "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: incorrect or failed jobs", file=sys.stderr)
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in RAW.findall(out.stdout):
                values.setdefault(name, []).append(float(v))
        record[w] = values
        for m in bench["end_to_end"]:
            med, spread = summary(values[m["name"]])
            steady = spread < m["bound"] / 3
            if m["name"] == "setup_s":
                # A few milliseconds of process start, so one run's median
                # of fifteen still spreads; only its median across runs is
                # held to the bound.
                verdict = "median only"
            else:
                ok = ok and steady
                verdict = "ok" if steady else "WIDE"
            print(f"{w:12} {m['name']:15} median {med:12.6g} spread {spread:7.4f}"
                  f" bound {m['bound']:5.3f} {verdict}", flush=True)
        for name in sorted(n for n in values if n.startswith("raw.")):
            med, spread = summary(values[name])
            print(f"{w:12} {name:15} median {med:12.6g} spread {spread:7.4f}"
                  " (unscaled, not bounded)", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
