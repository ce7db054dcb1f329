"""Compare the benchmark's end-to-end metrics of two checkouts in
alternating pairs of runs.

    python3 scripts/ab_pairs.py --parent DIR --change DIR --workload W
                                --seed N [--pairs 10]

Each pair runs `perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each checkout, each in a fresh process, and the side
that runs first alternates from pair to pair.  S is `run_seconds` of the
change's `BENCHMARK.json`, whose `end_to_end` list names the metrics,
their better direction and their bound.  Per metric the script prints each
side's median and quartiles, the pairs in which the change is better,
whether the change passes the rule for a claimed gain (better in at least
9 of 10 pairs, and a median that differs from the parent's, in the better
direction, by more than the parent's interquartile range), and one
no-regression verdict:

- `worse than bound`: the change's median is worse than the parent's by
  more than bound × the parent's median;
- `unresolved`: otherwise, the parent's interquartile range exceeds
  bound × its median, unless every change run beats every parent run;
- `within bound`: otherwise.

It exits 1 if a run does not report `correct` or a metric is worse than
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: share of pairs the change must win for a claimed gain
WIN_SHARE = 0.9

#: the no-regression verdicts
WITHIN, WORSE, UNRESOLVED = "within bound", "worse than bound", "unresolved"


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON object on the last stdout line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: Sequence[Dict[str, float]],
              change: Sequence[Dict[str, float]],
              metrics: Sequence[dict]) -> List[dict]:
    """One row per metric of `metrics` (each {"name", "better", "bound"},
    better "lower" or "higher") from the parent's and the change's metric
    values, run i of each side making pair i."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        pq, cq = _quartiles(p), _quartiles(c)
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        gap = sign * (pq[1] - cq[1])
        allowed = m["bound"] * abs(pq[1])
        if -gap > allowed:
            verdict = WORSE
        elif pq[2] - pq[0] > allowed and \
                max(sign * x for x in c) >= min(sign * x for x in p):
            verdict = UNRESOLVED
        else:
            verdict = WITHIN
        rows.append({"name": name, "parent": pq, "change": cq,
                     "wins": wins, "pairs": len(p),
                     "gain": wins >= WIN_SHARE * len(p)
                     and gap > pq[2] - pq[0], "verdict": verdict})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            doc = run_once(getattr(args, side), args.workload, args.seed,
                           seconds)
            if not doc["correct"]:
                print(f"error: pair {i + 1}: the {side} run is not correct",
                      file=sys.stderr)
                return 1
            sides[side].append({k: v["value"]
                                for k, v in doc["metrics"].items()})
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs; quartiles q1 / median / q3")
    rows = summarize(sides["parent"], sides["change"], bench["end_to_end"])
    for row in rows:
        p, c = row["parent"], row["change"]
        rel = (c[1] - p[1]) / p[1] if p[1] else 0.0
        print(f"  {row['name']:<13} parent {p[0]:.5g} / {p[1]:.5g} / "
              f"{p[2]:.5g}  change {c[0]:.5g} / {c[1]:.5g} / {c[2]:.5g}  "
              f"({rel:+.1%})  change better in "
              f"{row['wins']}/{row['pairs']}  gain "
              f"{'holds' if row['gain'] else 'does not hold'}  "
              f"{row['verdict']}")
    return int(any(row["verdict"] == WORSE for row in rows))


if __name__ == "__main__":
    sys.exit(main())
