#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed and prints, for every metric, the
median over the runs and the spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. Run from the repository root, e.g.

    python3 perfbench/spread.py --workload fleet-saturate --seeds 1-10

With --bench BENCHMARK.json it also compares each end-to-end spread
with the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bench", help="BENCHMARK.json, to compare spreads with bounds")
    args = ap.parse_args()

    bounds = {}
    if args.bench:
        with open(args.bench) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = m["bound"]

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        start = time.time()
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {lines[-1]}")
        brief = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: {time.time() - start:.1f}s wall, {res['attempted']} ops, {res['failed']} failed; {brief}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    worst = 0.0
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        sp = (q3 - q1) / abs(med) if med else 0.0
        line = f"{name:28s} median {med:14.4f} {units[name]:9s} q1 {q1:12.4f} q3 {q3:12.4f} spread {100 * sp:6.2f}%"
        if name in bounds:
            line += f"  bound {100 * bounds[name]:.0f}% ({'ok' if sp <= bounds[name] / 3 else 'WIDE'})"
            if name != "setup_s":
                worst = max(worst, sp / bounds[name])
        print(line)
    if bounds:
        print(f"widest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
