#!/usr/bin/env python3
"""Steadiness self-check of the end-to-end benchmark.

    python3 perfbench/steadiness.py

Run from the repository root. Makes two sets of ten runs of
perfbench/run.py on every workload of BENCHMARK.json, at its run_seconds,
with seeds 1..10 in both sets, and reports, for every end-to-end metric,
each set's median and quartiles, the spread (Q3 - Q1) / median, and the
second median's change against the first. Exits 1 when a spread exceeds
the metric's bound, when a median worsens by more than the bound, or when
any run reports a failed operation.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def one_set(workload, seconds):
    values = {}
    for seed in SEEDS:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                             f"{result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [one_set(workload, seconds) for _ in range(2)]
        print(f"{workload} ({len(SEEDS)} runs per set, seeds {SEEDS.start}.."
              f"{SEEDS.stop - 1}, {seconds} s each)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = summary(sets[0][name])
            second = summary(sets[1][name])
            change = (second[0] - first[0]) / first[0]
            worse = change if metric["better"] == "lower" else -change
            verdict = [f"{label} spread over bound"
                       for label, (_, _, _, spread) in (("set 1", first),
                                                        ("set 2", second))
                       if spread > bound]
            if worse > bound:
                verdict.append("median worse by more than bound")
            ok &= not verdict
            print(f"  {name:12s} bound {bound:.2f}")
            for label, (med, q1, q3, spread), values in (
                    ("set 1", first, sets[0][name]),
                    ("set 2", second, sets[1][name])):
                print(f"    {label}: median {med:.6g}  Q1 {q1:.6g}  "
                      f"Q3 {q3:.6g}  spread {spread:.4f}")
                print("      by seed: " + " ".join(f"{v:.4g}" for v in values))
            print(f"    median change {change:+.4f}  "
                  + ("; ".join(verdict) if verdict else "ok"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
