"""Print every end-to-end metric of every workload, with units and the
output-check results; each workload runs in its own fresh process.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

With `--trace` the per-layer metrics of a traced run are printed instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from warmup import MODULES

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    trace = int(args.trace)
    status = 0
    for workload in MODULES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: run failed (exit {proc.returncode})\n"
                  f"{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        report = json.loads(
            (HERE / "out" / f"report-{workload}-trace{trace}.json").read_text())
        checks = report["checks"]
        print(f"{workload}  ({report['tasks']} tasks, seed {args.seed}; "
              f"checks: {checks['ok']} ok, {checks['wrong']} wrong, "
              f"{checks['crash']} crashed; correct={result['correct']})")
        for name, m in result["metrics"].items():
            print(f"  {name:<40} {m['value']:16.6g} {m['unit']}")
        if not trace:
            t = report["task_tail"]
            print(f"  {'failed_frac':<40} {report['failed_frac']:16.6g} ratio")
            print(f"  {'(task_tail_ms percentile)':<40} "
                  f"{t['percentile']:16.4g} p, {t['beyond']} of "
                  f"{t['samples']} tasks beyond")
        for problem in checks["problems"]:
            print(f"  check failure: {problem}")
    return status


if __name__ == "__main__":
    sys.exit(main())
