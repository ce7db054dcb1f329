"""skewweyl benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload {glossary,chains,verdicts,dynamics}
                             --seed N --seconds S --trace {0,1}

Every task is an in-process call to `skewweyl.cli.run(argv)` with stdout
captured, on input files generated from the seed before timing starts; the
next task starts when the previous one returns.  With `--trace 0` the task
list runs in passes for `--seconds`, and the last line of stdout is a JSON
object with the end-to-end metrics: medians over the passes, brought to the
reference machine speed by a speed probe run between tasks.  With
`--trace 1` the list runs once untraced and once traced, and the object
holds the per-layer metrics.  Outputs are checked after the timed region.
The lines before the object are a readable report; `perfbench/out/`
receives the full report and, for traced runs, the spans.  See
perfbench/README.md.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads; the enumeration thread pool
# stays at its default of one worker
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("WEYL_LIE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Tuple  # noqa: E402

from warmup import MODULES  # noqa: E402

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("task_p50_ms", "ms"),
              ("task_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def measure_setup(workload: str) -> List[Tuple[float, float]]:
    """(set-up seconds, mean speed probe) samples, each from a fresh
    interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "warmup.py"), workload],
            capture_output=True, text=True, timeout=120, check=True)
        elapsed, probe = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(elapsed), float(probe)))
    return out


def environment() -> dict:
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "WEYL_LIE_THREADS": os.environ.get("WEYL_LIE_THREADS", "unset"),
        "clients": 1,
        "loop": "closed",
    }


def source_info() -> dict:
    """Source LOC under src/ and the runtime dependencies: information,
    not gated metrics."""
    import tomllib

    files = sorted(SRC.rglob("*.py"))
    lines = [p.read_text().splitlines() for p in files]
    deps = None
    pyproject = ROOT / "pyproject.toml"
    if pyproject.is_file():
        with open(pyproject, "rb") as fh:
            deps = tomllib.load(fh).get("project", {}).get("dependencies")
    return {"files": len(files), "lines": sum(len(x) for x in lines),
            "nonblank_lines": sum(1 for x in lines for ln in x if ln.strip()),
            "dependencies": deps}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "skewweyl" / "__init__.py").is_file():
        print(f"error: no skewweyl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skewweyl

    if Path(skewweyl.__file__).resolve().parent != SRC / "skewweyl":
        print(f"error: imported skewweyl from {skewweyl.__file__}",
              file=sys.stderr)
        return 2

    import checks
    import warmup
    import workloads
    from harness import (PROBE_REF_S, PROBES, per_task_medians, run_pass,
                         speed_factor, tail, timed_passes, verdict)
    from tracing import PER_LAYER, Tracer

    setup = measure_setup(args.workload)
    warmup.warm(args.workload)
    tasks = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-",
                                    dir=OUT))
    try:
        argvs = workloads.materialise(tasks, workdir)
        tracer = None
        if args.trace:
            results, lat = run_pass(tasks, argvs, workdir)
            passes, latencies, probes = [results], [lat], []
        else:
            passes, latencies, probes = timed_passes(
                tasks, argvs, workdir, args.seconds, PROBES[args.workload])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                results, traced = run_pass(tasks, argvs, workdir, tracer)
                passes.append(results)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # output checks, outside the timed region; identical outputs of
    # different passes are checked once
    seen = {}
    status = {"ok": 0, "crash": 0, "wrong": 0}
    problems = []
    for results in passes:
        for idx, (task, calls) in enumerate(zip(tasks, results)):
            key = (idx, tuple((c.code, c.out, c.err) for c in calls))
            if key not in seen:
                seen[key] = verdict(task, calls, checks.check)
            kind, reason = seen[key]
            status[kind] += 1
            if reason is not None and len(problems) < 10:
                problems.append(f"task {idx} ({task.kind} "
                                f"{' '.join(tasks[idx].argv[1:])}): {kind}: "
                                f"{reason}")
    attempted = sum(status.values())
    failed = status["crash"] + status["wrong"]

    walls = [sum(lat) for lat in latencies]
    medians = per_task_medians(latencies)
    tl = tail(medians)
    unscaled = {
        "setup_s": statistics.median(t for t, _ in setup),
        "wall_s": statistics.median(walls),
        "task_p50_ms": 1e3 * statistics.median(medians),
        "task_tail_ms": 1e3 * tl["value"],
    }
    # times at the reference speed: the run's probes scale its passes, and
    # each set-up interpreter's probes scale its set-up time
    factor = speed_factor(probes) if probes else 1.0
    e2e = {
        "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setup),
        **{k: factor * unscaled[k]
           for k in ("wall_s", "task_p50_ms", "task_tail_ms")},
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tasks": len(tasks),
        "passes": len(latencies),
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in e2e.items()},
        "unscaled": unscaled,
        "speed_factor": factor,
        "failed_frac": failed / attempted,
        "task_tail": {**tl, "value_ms": 1e3 * tl["value"]},
        "setup_samples_s": [t for t, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "pass_walls_s": walls,
        "latencies_s": latencies,
        "probe_s": probes,
        "checks": {**status, "problems": problems},
        "environment": environment(),
        "source": source_info(),
    }

    lines = [f"skewweyl benchmark: workload {args.workload}, seed {args.seed}, "
             f"{len(tasks)} tasks x {len(latencies)} passes, "
             f"trace {args.trace}"]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<14} {e2e[name]:14.4f} {unit}"
                     + (f"   (unscaled {unscaled[name]:.4f})"
                        if name in unscaled else ""))
    lines[-2] += (f"   (p{tl['percentile']:.1f}, {tl['beyond']} of "
                  f"{tl['samples']} tasks beyond)")
    lines.append(f"  {'failed_frac':<14} {failed / attempted:14.4f} ratio"
                 f"   ({status['crash']} crashed, {status['wrong']} wrong, "
                 f"of {attempted} attempted)")
    lines += [f"  check failure: {msg}" for msg in problems]

    if tracer is not None:
        layers = tracer.layer_metrics(sum(traced) - walls[0])
        units = dict(PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        report["per_layer"] = metrics
        report["trace_self_sum_error_s"] = tracer.self_sum_error()
        report["spans"] = len(tracer.spans)
        tracer.write(OUT / f"spans-{args.workload}.csv.gz")
        lines.append(f"  traced wall_s {sum(traced):.4f} s; "
                     f"{len(tracer.spans)} spans; largest gap between a "
                     f"task's self-time sum and its duration "
                     f"{report['trace_self_sum_error_s']:.3g} s")
        lines += [f"  {k:<40} {v:16.6g} {units[k]}" for k, v in layers.items()]
    else:
        metrics = report["end_to_end"]

    env, src = report["environment"], report["source"]
    lines.append(f"  env: python {env['python']}, numpy {env['numpy']}, "
                 f"scipy {env['scipy']}, sympy {env['sympy']}, nproc "
                 f"{env['nproc']}, BLAS threads 1, WEYL_LIE_THREADS "
                 f"{env['WEYL_LIE_THREADS']}")
    lines.append(f"  src: {src['lines']} lines in {src['files']} files; "
                 f"dependencies {src['dependencies']}")
    if probes:
        lines.append(f"  {PROBES[args.workload].__name__} mean "
                     f"{statistics.fmean(probes):.5f} s, reference "
                     f"{PROBE_REF_S} s: times scaled by {factor:.4f}")
    report["run_elapsed_s"] = time.perf_counter() - STARTED
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2))
    print("\n".join(lines))
    print(json.dumps({"correct": status["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
