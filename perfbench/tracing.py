"""Traced runs: spans and counters at the public boundary of each module.

`Tracer.install()` wraps the functions below in every `skewweyl` module
namespace that binds them (``from .lie_engine import bracket`` copies the
name into `classify`, `enumerate` and `cli`), and the methods on their
classes.  A span is ``[name, start, end, parent, task]``; spans stay in
memory and are written out once the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
one task's spans add up to the duration of its root span ``task``.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

TRACED_MODULES = ("cli", "classify", "enumerate", "fock_oracle", "igusa",
           "lie_engine", "wei_norman", "weyl_core")

RULES = ("finite", "inconclusive", "ChainDegreeGrowth", "MixedEqAndQuad",
         "MonomialGlossaryViolation", "PerpWithFreeHam", "IgusaCertificate")

#: every per-layer metric with its unit, in report order
PER_LAYER: List[Tuple[str, str]] = [
    ("weyl_core.mul_calls", "count"),
    ("weyl_core.mul_self_s", "s"),
    ("weyl_core.mul_term_pairs", "count"),
    ("weyl_core.convert_calls", "count"),
    ("weyl_core.convert_self_s", "s"),
    ("lie_engine.bracket_calls", "count"),
    ("lie_engine.bracket_self_s", "s"),
    ("lie_engine.bracket_zero_frac", "ratio"),
    ("lie_engine.span_insert_calls", "count"),
    ("lie_engine.span_insert_grew_frac", "ratio"),
    ("lie_engine.span_self_s", "s"),
    ("lie_engine.closure_calls", "count"),
    ("lie_engine.closure_self_s", "s"),
    *[(f"lie_engine.rule.{r}", "count") for r in RULES],
    ("lie_engine.coordinates_calls", "count"),
    ("lie_engine.coordinates_self_s", "s"),
    ("classify.identify_calls", "count"),
    ("classify.identify_self_s", "s"),
    ("classify.structure_constants_calls", "count"),
    ("classify.structure_constants_self_s", "s"),
    ("classify.fingerprint_calls", "count"),
    ("enumerate.calls", "count"),
    ("enumerate.self_s", "s"),
    ("enumerate.closures_per_span", "ratio"),
    ("igusa.search_calls", "count"),
    ("igusa.search_self_s", "s"),
    ("igusa.transform_calls", "count"),
    ("igusa.certified_frac", "ratio"),
    ("wei_norman.factors_calls", "count"),
    ("wei_norman.factors_self_s", "s"),
    ("wei_norman.expm_calls", "count"),
    ("wei_norman.expm_self_s", "s"),
    ("wei_norman.residual_self_s", "s"),
    ("wei_norman.factored_propagator_self_s", "s"),
    ("fock_oracle.direct_calls", "count"),
    ("fock_oracle.direct_self_s", "s"),
    ("fock_oracle.rk4_steps", "count"),
    ("fock_oracle.direct_flops", "flop-computed"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("trace.overhead_s", "s"),
]


# -- counting hooks: (counts, args, kwargs, result) -------------------------

def _mul_pairs(counts, args, kwargs, result):
    counts["mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _bracket_zero(counts, args, kwargs, result):
    counts["bracket_zero"] += not result


def _insert(counts, args, kwargs, result):
    counts["insert_calls"] += 1
    counts["insert_grew"] += bool(result)


def _rule(counts, args, kwargs, result):
    name = result.witness.rule if result.witness is not None else result.outcome
    counts[f"rule.{name}"] += 1


def _records(counts, args, kwargs, result):
    counts["enumerated_spans"] += len(result)


def _certified(counts, args, kwargs, result):
    counts["certified"] += result is not None


def _rk4(counts, args, kwargs, result):
    spec, n = args[0], args[1]
    substeps = kwargs.get("substeps", args[3] if len(args) > 3 else 4)
    upto = kwargs.get("upto", args[2] if len(args) > 2 else None)
    h = spec.h / max(1, substeps)
    t_final = spec.h * spec.n_steps if upto is None else upto
    steps = int(round(t_final / h))
    counts["rk4_steps"] += steps
    counts["direct_flops"] += steps * 4 * 8 * n ** 3


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.task = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_task(self, task: int) -> list:
        """Open the root span of one task; close it with `end_task`."""
        self.task = task
        rec = ["task", 0.0, 0.0, -1, task]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def end_task(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()
        self.task = -1

    # -- installation -------------------------------------------------------
    def _patch_function(self, module, attr: str, wrapper_of) -> None:
        orig = getattr(module, attr)
        wrapper = wrapper_of(orig)
        for name in TRACED_MODULES:
            mod = sys.modules[f"skewweyl.{name}"]
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper_of) -> None:
        raw = cls.__dict__[attr]
        static = isinstance(raw, staticmethod)
        wrapper = wrapper_of(raw.__func__ if static else raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def install(self) -> None:
        m = {name: importlib.import_module(f"skewweyl.{name}")
             for name in TRACED_MODULES}
        span, count = self._span, self._count
        for cls, attr, name, after in (
                (m["weyl_core"].WeylPoly, "__mul__", "weyl_core.mul", _mul_pairs),
                (m["weyl_core"].SkewPoly, "to_weyl", "weyl_core.convert", None),
                (m["weyl_core"].SkewPoly, "from_weyl", "weyl_core.convert", None),
                (m["lie_engine"].LieSpan, "insert", "lie_engine.span", _insert),
                (m["lie_engine"].LieSpan, "contains", "lie_engine.span", None),
                (m["lie_engine"].LieSpan, "coordinates",
                 "lie_engine.coordinates", None),
                (m["classify"].StructureConstants, "from_span",
                 "classify.structure_constants", None)):
            self._patch_method(cls, attr,
                               lambda fn, n=name, a=after: span(n, fn, a))
        for mod, attr, name, after in (
                ("lie_engine", "bracket", "lie_engine.bracket", _bracket_zero),
                ("lie_engine", "lie_closure", "lie_engine.closure", _rule),
                ("classify", "identify", "classify.identify", None),
                ("enumerate", "enumerate_subalgebras", "enumerate", _records),
                ("igusa", "symplectic_search", "igusa.search", _certified),
                ("wei_norman", "wh2_factors", "wei_norman.factors", None),
                ("wei_norman", "schrodinger_factors", "wei_norman.factors", None),
                ("wei_norman", "expm", "wei_norman.expm", None),
                ("wei_norman", "residual_check", "wei_norman.residual", None),
                ("wei_norman", "factored_propagator",
                 "wei_norman.factored_propagator", None),
                ("fock_oracle", "direct_propagator", "fock_oracle.direct", _rk4),
                ("cli", "run", "cli", None)):
            self._patch_function(m[mod], attr,
                                 lambda fn, n=name, a=after: span(n, fn, a))
        # counted without a span: their work stays in the caller's self time
        self._patch_function(m["classify"], "_fingerprint_from_sc",
                             lambda fn: count("fingerprint_calls", fn))
        self._patch_function(m["igusa"], "transform",
                             lambda fn: count("transform_calls", fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------
    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, task in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent, task) in enumerate(self.spans)]

    def self_sum_error(self) -> float:
        """Largest gap, over tasks, between the sum of the task's self times
        and the duration of its root span."""
        own = self.self_times()
        total: Dict[int, float] = defaultdict(float)
        root: Dict[int, float] = {}
        for (name, start, end, parent, task), s in zip(self.spans, own):
            total[task] += s
            if name == "task":
                root[task] = end - start
        return max((abs(total[t] - d) for t, d in root.items()), default=0.0)

    def layer_metrics(self, overhead_s: float) -> Dict[str, float]:
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        in_enumerate = 0
        for (name, start, end, parent, task), s in zip(self.spans, own):
            calls[name] += 1
            self_s[name] += s
            if (name == "lie_engine.closure" and parent >= 0
                    and self.spans[parent][0] == "enumerate"):
                in_enumerate += 1
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        return {
            "weyl_core.mul_calls": calls["weyl_core.mul"],
            "weyl_core.mul_self_s": self_s["weyl_core.mul"],
            "weyl_core.mul_term_pairs": c["mul_term_pairs"],
            "weyl_core.convert_calls": calls["weyl_core.convert"],
            "weyl_core.convert_self_s": self_s["weyl_core.convert"],
            "lie_engine.bracket_calls": calls["lie_engine.bracket"],
            "lie_engine.bracket_self_s": self_s["lie_engine.bracket"],
            "lie_engine.bracket_zero_frac": frac(c["bracket_zero"],
                                                 calls["lie_engine.bracket"]),
            "lie_engine.span_insert_calls": c["insert_calls"],
            "lie_engine.span_insert_grew_frac": frac(c["insert_grew"],
                                                     c["insert_calls"]),
            "lie_engine.span_self_s": self_s["lie_engine.span"],
            "lie_engine.closure_calls": calls["lie_engine.closure"],
            "lie_engine.closure_self_s": self_s["lie_engine.closure"],
            **{f"lie_engine.rule.{r}": c[f"rule.{r}"] for r in RULES},
            "lie_engine.coordinates_calls": calls["lie_engine.coordinates"],
            "lie_engine.coordinates_self_s": self_s["lie_engine.coordinates"],
            "classify.identify_calls": calls["classify.identify"],
            "classify.identify_self_s": self_s["classify.identify"],
            "classify.structure_constants_calls":
                calls["classify.structure_constants"],
            "classify.structure_constants_self_s":
                self_s["classify.structure_constants"],
            "classify.fingerprint_calls": c["fingerprint_calls"],
            "enumerate.calls": calls["enumerate"],
            "enumerate.self_s": self_s["enumerate"],
            "enumerate.closures_per_span": frac(in_enumerate,
                                                c["enumerated_spans"]),
            "igusa.search_calls": calls["igusa.search"],
            "igusa.search_self_s": self_s["igusa.search"],
            "igusa.transform_calls": c["transform_calls"],
            "igusa.certified_frac": frac(c["certified"], calls["igusa.search"]),
            "wei_norman.factors_calls": calls["wei_norman.factors"],
            "wei_norman.factors_self_s": self_s["wei_norman.factors"],
            "wei_norman.expm_calls": calls["wei_norman.expm"],
            "wei_norman.expm_self_s": self_s["wei_norman.expm"],
            "wei_norman.residual_self_s": self_s["wei_norman.residual"],
            "wei_norman.factored_propagator_self_s":
                self_s["wei_norman.factored_propagator"],
            "fock_oracle.direct_calls": calls["fock_oracle.direct"],
            "fock_oracle.direct_self_s": self_s["fock_oracle.direct"],
            "fock_oracle.rk4_steps": c["rk4_steps"],
            "fock_oracle.direct_flops": c["direct_flops"],
            "cli.calls": calls["cli"],
            "cli.self_s": self_s["cli"],
            "cli.out_bytes": c["out_bytes"],
            "trace.overhead_s": overhead_s,
        }

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("name", "start_s", "end_s", "parent", "task"))
            for name, start, end, parent, task in self.spans:
                w.writerow((name, repr(start - t0), repr(end - t0),
                            parent, task))
