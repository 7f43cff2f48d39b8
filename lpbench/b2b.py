#!/usr/bin/env python3
"""Build-to-build check for the all-cold workload.

Builds the lpbench binary twice -- as is, and with -tags altimport, which adds
one import nothing uses (alt_import.go) -- and runs all-cold on both,
alternating which binary goes first. Prints each binary's median and
quartiles of computed_p50_ms and cpu_s (untraced runs) and of
sched.optimal.ns_per_node (traced runs), and the shift between the two
medians as a share of the first, next to the bounds in BENCHMARK.json.

    python3 lpbench/b2b.py --pairs 5

--seconds defaults to run_seconds in BENCHMARK.json.

Run it from the checkout root; it writes only under .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(tags, seed, seconds, trace):
    env = dict(os.environ)
    env.pop("LPBENCH_TAGS", None)
    if tags:
        env["LPBENCH_TAGS"] = tags
    out = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", "all-cold",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit("all-cold run failed its output checks")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    builds = {"plain": "", "altimport": "altimport"}
    vals = {b: {"computed_p50_ms": [], "cpu_s": [], "sched.optimal.ns_per_node": []} for b in builds}
    for i in range(args.pairs):
        order = list(builds) if i % 2 == 0 else list(reversed(list(builds)))
        for b in order:
            m = run(builds[b], 100 + i, args.seconds, 0)
            vals[b]["computed_p50_ms"].append(m["computed_p50_ms"])
            vals[b]["cpu_s"].append(m["cpu_s"])
            t = run(builds[b], 100 + i, args.seconds, 1)
            vals[b]["sched.optimal.ns_per_node"].append(t["sched.optimal.ns_per_node"])
            print(f"pair {i} {b}: computed_p50_ms {m['computed_p50_ms']:.0f} cpu_s {m['cpu_s']:.2f} "
                  f"ns_per_node {t['sched.optimal.ns_per_node']:.0f}", flush=True)
    for name in vals["plain"]:
        meds = {}
        for b in builds:
            v = vals[b][name]
            q = statistics.quantiles(v, n=4)
            meds[b] = statistics.median(v)
            print(f"{name:28s} {b:10s} median {meds[b]:12.1f}  quartiles {q[0]:.1f} .. {q[2]:.1f}")
        shift = (meds["altimport"] - meds["plain"]) / meds["plain"]
        bound = bounds.get(name)
        verdict = "" if bound is None else f" (bound {bound}: {'within' if abs(shift) <= bound else 'OUTSIDE'})"
        print(f"{name:28s} shift {shift:+.3f}{verdict}")


if __name__ == "__main__":
    main()
