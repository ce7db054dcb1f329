"""The closed loop: run tasks through `skewweyl.cli.run` and judge their
outputs; the speed probes that tell how fast the machine ran meanwhile."""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

#: a probe runs PROBE_REPEATS times between tasks, at most every
#: PROBE_EVERY_S seconds, and at least once a pass; about 6 % of a run
PROBE_EVERY_S = 0.25
PROBE_REPEATS = 3
#: seconds either probe takes on the machine the benchmark was written on
#: (2-core x86-64 container, Python 3.11) at its faster speed; times are
#: reported at that speed
PROBE_REF_S = 0.005


@dataclass
class Call:
    code: Optional[int]  # None when an exception escaped cli.run
    out: str
    err: str


def invoke(run, argv: List[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception as exc:  # an escaped exception is a failed task
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Call(None, out.getvalue(),
                    f"{type(exc).__name__}: {exc} "
                    f"({Path(where.filename).name}:{where.lineno})")
    return Call(code, out.getvalue(), err.getvalue())


def execute(task, argv: List[str], chained_path: Path) -> List[Call]:
    """Run one task; a `chain` task classifies the basis its closure
    returned."""
    from skewweyl import cli

    calls = [invoke(cli.run, argv)]
    if task.kind == "chain" and calls[0].code == 0:
        doc = json.loads(calls[0].out)
        if doc["outcome"] == "finite":
            chained_path.write_text(json.dumps(doc["basis"]))
            calls.append(invoke(cli.run, ["classify", "--basis",
                                          str(chained_path)]))
    return calls


def clear_sympy_cache() -> None:
    """sympy memoises results in a process-wide cache.  A user's CLI call
    runs in a fresh process, so each task starts with that cache empty; a
    task's time then does not depend on the tasks before it."""
    cache = sys.modules.get("sympy.core.cache")
    if cache is not None:
        cache.clear_cache()


def python_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that calls nothing of
    the program: small Fraction, integer and dict arithmetic, the kind of
    work the exact half of skewweyl does.  The garbage collector is off
    meanwhile, so the size of the program's heap does not show in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(1, 1001):
            f = Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 5 + 1) + 1
            key = (i % 17, i % 5)
            table[key] = table.get(key, 0) + f.numerator * i % 11
            acc += i * i % 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


@functools.lru_cache(maxsize=None)
def _numpy_matrices():
    import numpy as np

    a = np.random.default_rng(0).standard_normal((96, 96)) * (1 + 1j)
    return a, np.eye(96, dtype=complex)


def numpy_probe() -> float:
    """Seconds for 35 Runge–Kutta-like stages k = -i A (U + h k) on fixed
    96 x 96 complex matrices: dense products and element-wise arrays, the
    kind of work `simulate` spends its time on."""
    a, u = _numpy_matrices()
    t0 = time.perf_counter()
    k = u
    for _ in range(35):
        k = -1j * (a @ (u + 5e-4 * k))
    return time.perf_counter() - t0


#: the probe doing the kind of work each workload spends its time on
PROBES = {"glossary": python_probe, "chains": python_probe,
          "verdicts": python_probe, "dynamics": numpy_probe}


def speed_factor(probes: List[float]) -> float:
    """Factor that brings times taken while a probe read `probes` to the
    reference speed.  The shared machine's speed drifts by up to a factor
    of two over minutes and slows a probe and the program's work of the
    same kind alike.  A task's time sums its slow and fast moments, and so
    does the mean probe; across runs it followed the program's times more
    closely than the median probe."""
    return PROBE_REF_S / statistics.fmean(probes)


def run_pass(tasks, argvs, workdir: Path, tracer=None, probe=None,
             probes=None):
    """Closed loop over the task list; returns (calls, latencies).  With a
    `probe`, it runs between tasks as PROBE_EVERY_S and PROBE_REPEATS say,
    and its times are appended to `probes`; they are in no latency."""
    results, latencies = [], []
    last, probed = time.perf_counter(), False
    for idx, (task, argv) in enumerate(zip(tasks, argvs)):
        chained = workdir / f"t{idx}-closed.json"
        clear_sympy_cache()
        if tracer is None:
            t0 = time.perf_counter()
            calls = execute(task, argv, chained)
            latencies.append(time.perf_counter() - t0)
        else:
            root = tracer.begin_task(idx)
            calls = execute(task, argv, chained)
            tracer.end_task(root)
            latencies.append(root[2] - root[1])
            tracer.counts["out_bytes"] += sum(len(c.out) for c in calls)
        results.append(calls)
        if probe is not None and (
                time.perf_counter() - last >= PROBE_EVERY_S
                or idx == len(tasks) - 1 and not probed):
            probes += [probe() for _ in range(PROBE_REPEATS)]
            last, probed = time.perf_counter(), True
    return results, latencies


def timed_passes(tasks, argvs, workdir: Path, seconds: float, probe,
                 min_passes: int = 2):
    """Passes over the task list, at least `min_passes`, until the next one
    would probably end after `seconds`, with `probe` between tasks.
    Returns (results, latencies, probes): per pass, each task's calls and
    latency, and the probe times.  A later pass's calls that equal the
    first pass's are stored as the first pass's, so memory does not grow
    with the number of passes."""
    results, latencies, probes = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls, lat = run_pass(tasks, argvs, workdir, probe=probe,
                              probes=probes)
        if results:
            calls = [c if c != first else first
                     for c, first in zip(calls, results[0])]
        results.append(calls)
        latencies.append(lat)
        now = time.perf_counter()
        if len(results) >= min_passes and now + (now - t0) - start > seconds:
            return results, latencies, probes


def verdict(task, calls: List[Call], check) -> tuple:
    """("ok" | "crash" | "wrong", reason)."""
    for c in calls:
        if c.code is None:
            return "crash", c.err
        if c.code != 0:
            return "wrong", f"exit code {c.code}: {c.err.strip()}"
    try:
        docs = [json.loads(c.out) for c in calls]
    except json.JSONDecodeError as exc:
        return "wrong", f"output is not JSON: {exc}"
    reason = check(task, docs)
    return ("ok", None) if reason is None else ("wrong", reason)


def per_task_medians(latencies: List[List[float]]) -> List[float]:
    """Each task's median latency over the passes."""
    return [statistics.median(xs) for xs in zip(*latencies)]


def tail(latencies: List[float]) -> dict:
    """The highest nearest-rank percentile with at least ten samples beyond
    it.  Below 21 tasks that percentile would not lie above the median, so
    the maximum is given instead, with zero samples beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 20:
        return {"value": xs[n - 11], "percentile": 100 * (n - 10) / n,
                "beyond": 10, "samples": n}
    return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "samples": n}
