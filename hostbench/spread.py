#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread on this host.

Runs every workload (or those named) once per seed, untraced, and prints
for each end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the interquartile range as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 hostbench/spread.py --seeds 10 [--workloads serve_mix,...]

For serve_mix it also prints the share of answers each cache tier
(X-Cache hit, disk, miss, shared) gave, as median and range over the
seeds, so the traffic the bounds cover is recorded with them.

Run it from the repository root. Exits 1 if any run fails or any spread
reaches its bound.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


# A serve_mix summary line: "tier hit      1234 answers (0.5678 of all), ...".
TIER = re.compile(r"^\s*tier (\w+)\s+\d+ answers \(([0-9.]+) of all\)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        values, tiers = {}, {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(p.stdout + p.stderr)
                print(f"{name} seed {seed}: exit {p.returncode}")
                ok = False
                continue
            for line in p.stdout.splitlines():
                m = TIER.match(line)
                if m:
                    tiers.setdefault(m.group(1), []).append(float(m.group(2)))
            res = json.loads(last)
            ok = ok and res["correct"]
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())),
                  flush=True)
        print(f"\n{name}: {args.seeds} seeds from {args.first_seed}")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for e in bench["end_to_end"]:
            v = values.get(e["name"], [])
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / q2 if q2 else float("inf")
            flag = ""
            if share >= e["bound"]:
                flag, ok = " OVER", False
            elif share >= e["bound"] / 3:
                flag = " >bound/3"
            print(f"  {e['name']:16} {q2:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {e['bound']:6.2f}{flag}")
        for tier, v in tiers.items():
            print(f"  tier {tier:6} share of answers: median {statistics.median(v):.4f}, "
                  f"range {min(v):.4f} - {max(v):.4f}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
