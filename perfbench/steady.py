#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the workloads repeatedly through perfbench/run.py, alternating their
order between rounds, and prints for each (workload, metric) the median,
the quartiles and the relative IQR (IQR / median). It flags

  * a host metric (a time, a rate per host second or an RSS) whose
    relative IQR exceeds its bound in BENCHMARK.json, and
  * a simulated metric (every other metric, per-layer ones included with
    --trace 1), or the attempted/failed counts, that differs at all
    between runs of the same seed.

Examples, from the repository root:

    # ten seeds, one run each: the spread a regression check sees
    python3 perfbench/steady.py --seeds 1-10
    # three rounds of two seeds: same-seed repeats plus a second seed
    python3 perfbench/steady.py --seeds 7,8 --rounds 3 --workloads kv-update

Exit status: 0 when nothing is flagged, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_UNITS = ("s", "ms", "us", "1/s", "Mcycles/s", "MB")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({done.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's result here")
    ap.add_argument("--load", help="analyse earlier --json files (comma-"
                    "separated, one round each) instead of running")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metric_defs = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_defs}

    runs = {w: [] for w in workloads}
    if args.load:
        files = args.load.split(",")
        args.rounds = len(files)
        for path in files:
            with open(path) as f:
                for w, entries in json.load(f).items():
                    if w in runs:
                        runs[w].extend(tuple(e) for e in entries)
    for rnd in range(0 if args.load else args.rounds):
        for seed in seeds:
            order = workloads if (rnd + seed) % 2 == 0 else workloads[::-1]
            for w in order:
                res = run_once(w, seed, args.seconds, args.trace)
                if not res["correct"]:
                    raise SystemExit(f"{w} seed {seed}: correct=false")
                runs[w].append((seed, res))
                print(f"round {rnd} seed {seed} {w}: attempted "
                      f"{res['attempted']} failed {res['failed']}, "
                      f"{res['wall_s']:.1f} s", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)

    flagged = 0
    for w in workloads:
        walls = [r["wall_s"] for _, r in runs[w] if "wall_s" in r]
        print(f"\n{w} ({len(runs[w])} runs"
              + (f", {statistics.mean(walls):.1f} s each" if walls else "")
              + ")")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'rel_iqr':>8}")
        for m in metric_defs:
            name = m["name"]
            values = [r["metrics"][name]["value"] for _, r in runs[w]]
            med, q1, q3, rel = spread(values)
            note = ""
            if m["unit"] in HOST_UNITS:
                bound = bounds.get(name)
                if bound is not None and rel > bound:
                    note = f"  SPREAD > bound {bound}"
                elif bound is not None and rel > bound / 3:
                    note = f"  (above bound/3 = {bound / 3:.3f})"
            else:
                by_seed = {}
                for seed, r in runs[w]:
                    by_seed.setdefault(seed, set()).add(
                        r["metrics"][name]["value"])
                if any(len(v) > 1 for v in by_seed.values()):
                    note = "  DIFFERS AT A FIXED SEED"
            if args.rounds > 1 and m.get("bound") is not None:
                # The regression check: last round's median against the
                # first round's, in the metric's worse direction.
                n = len(values) // args.rounds
                first = statistics.median(values[:n])
                last = statistics.median(values[-n:])
                worse = (first - last if m["better"] == "higher"
                         else last - first)
                if first and worse / first > m["bound"]:
                    note += f"  ROUND MEDIAN WORSE by {worse / first:.3f}"
            flagged += ("SPREAD" in note or "DIFFERS" in note or
                        "WORSE" in note)
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{rel:8.4f}{note}")
        counts = {}
        for seed, r in runs[w]:
            counts.setdefault(seed, set()).add((r["attempted"], r["failed"]))
        if any(len(v) > 1 for v in counts.values()):
            print("  attempted/failed DIFFER AT A FIXED SEED")
            flagged += 1
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
