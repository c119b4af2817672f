#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, and the gain rule.

    python3 tools/abpairs.py PARENT CHANGE --workload sweep --pairs 10 --seconds 25 --seed 401

PARENT and CHANGE are the roots of two source checkouts.  Each pair runs
``bench/run.py --workload W --seed N --seconds S --trace 0`` once in each
checkout, one after the other in a fresh interpreter; the parent runs first
in even pairs and second in odd ones, so drift of the host's speed hits both
sides alike.  The end-to-end metrics, their direction and their bounds come
from CHANGE's ``BENCHMARK.json``.

For each metric it prints each side's median and quartiles, the pairs the
change won (ties count for neither side), and two verdicts, then, as its
last line, one JSON object with every run's metrics and each verdict:

- gain: the change won at least nine tenths of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- bound: the change's median is worse than the parent's by no more than the
  metric's bound, a fraction of the parent's median.  Where the parent's
  interquartile range is wider than that bound, the runs cannot tell, and the
  bound column reads "unresolved" instead, unless every change run is better
  than every parent run.

A run that exits non-zero, or reports an incorrect output or a failed
operation, stops the tool with exit code 1.  Nothing under ``bench/`` is read
or written apart from running ``bench/run.py`` and its ``bench/out/`` record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

GAIN_SHARE = 0.9
RUN_TIMEOUT_S = 900


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    """Gain rule and bound check for one metric over paired runs.

    parent[i] and change[i] come from pair i; better is "higher" or "lower".
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (cq[1] - pq[1]) + 0.0  # > 0 when the change's median is better; no -0.0
    iqr = pq[2] - pq[0]
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "parent": pq, "change": cq, "won": won, "lost": lost, "pairs": len(parent),
        "gap": gap, "parent_iqr": iqr,
        "gain": won >= math.ceil(GAIN_SHARE * len(parent)) and gap > iqr,
        "within_bound": -gap <= bound * abs(pq[1]),
        "unresolved": iqr > bound * abs(pq[1]) and not every_run_better,
    }


def run_bench(root: str, workload: str, seconds: float, seed: int) -> dict:
    """The last stdout line of one bench/run.py run in checkout root, as JSON."""
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: bench/run.py exited {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root}: {result['failed']} of {result['attempted']} operations failed")
    return result


def end_to_end(root: str) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def verdicts(metrics: list[dict], runs: dict) -> dict:
    """{metric name: verdict} for runs = {"parent": [result, ...], "change": [...]}."""
    return {m["name"]: verdict([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                               [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                               m["better"], m["bound"]) for m in metrics}


def _bound_column(v: dict) -> str:
    if v["unresolved"]:
        return "unresolved"
    return "ok" if v["within_bound"] else "WORSE"


def report(metrics: list[dict], runs: dict) -> list[str]:
    """Printed lines for runs = {"parent": [result, ...], "change": [...]}."""
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
             f" {'won':>6} {'gap':>10} {'IQR':>10}  gain  bound"]
    for name, v in verdicts(metrics, runs).items():

        def side(q):
            return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

        lines.append(f"{name:<14} {side(v['parent']):>34} {side(v['change']):>34}"
                     f" {v['won']:>3}/{v['pairs']:<2} {v['gap']:>10.4g} {v['parent_iqr']:>10.4g}"
                     f"  {'yes' if v['gain'] else 'no':<5} {_bound_column(v)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Alternating benchmark pairs on two checkouts.")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(roots[side], args.workload, args.seconds, args.seed))
            print(f"pair {i + 1}: " + ", ".join(
                f"{side} items_per_s {runs[side][-1]['metrics']['items_per_s']['value']:.6g}"
                for side in order), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = end_to_end(roots["change"])
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(report(metrics, runs)))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "parent_first": [i % 2 == 0 for i in range(args.pairs)],
        "runs": {side: [{k: v["value"] for k, v in r["metrics"].items()} for r in rs]
                 for side, rs in runs.items()},
        "verdicts": verdicts(metrics, runs),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
