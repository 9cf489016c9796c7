"""Outside-in span tracing of stepfdr's modules, and self-time analysis.

`Tracer` replaces a module attribute (for example ``stepfdr.stepup.bh_plus``)
with a wrapper that records one span per call: its name, start, end and the
span that was open when it began.  Callers inside the package look these
functions up through the same module attributes at call time, so internal
calls are caught as well as the benchmark's own.  Spans stay in memory and
are written out once, by `Tracer.dump`, when a traced run ends.

`self_times` and `layer_metrics` turn a dump into per-layer numbers.  They
import numpy but not stepfdr, so the benchmark's parent process can read
traces without loading the program it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The attribute is the one callers use:
# pvalue reaches the null-table constructors through its own globals, and
# stepup's step-ups reach build_max_cdf and bh_plus the same way.
WRAPPED = (
    ("stepfdr.cli", "main", "cli.main"),
    ("stepfdr.ingest", "load_counts", "ingest.load_counts"),
    ("stepfdr.ingest", "analyze", "ingest.analyze"),
    ("stepfdr.ingest", "pvalue_tables", "ingest.pvalue_tables"),
    ("stepfdr.ingest", "report_rows", "ingest.report_rows"),
    ("stepfdr.ingest", "report_summary", "ingest.report_summary"),
    ("stepfdr.pvalue", "bt_outcome_pvalues", "pvalue.bt_outcome_pvalues"),
    ("stepfdr.pvalue", "fet_outcome_pvalues", "pvalue.fet_outcome_pvalues"),
    ("stepfdr.pvalue", "bt_support", "pvalue.bt_support"),
    ("stepfdr.pvalue", "fet_support", "pvalue.fet_support"),
    ("stepfdr.pvalue", "binomial_null", "dist.binomial_null"),
    ("stepfdr.pvalue", "hypergeometric_null", "dist.hypergeometric_null"),
    ("stepfdr.stepup", "build_max_cdf", "stepup.build_max_cdf"),
    ("stepfdr.stepup", "critical_values", "stepup.critical_values"),
    ("stepfdr.stepup", "bh", "stepup.bh"),
    ("stepfdr.stepup", "bh_plus", "stepup.bh_plus"),
    ("stepfdr.stepup", "mid_vs_conventional", "stepup.mid_vs_conventional"),
    ("stepfdr.sim", "run_grid", "sim.run_grid"),
    ("stepfdr.sim", "gen_poisson_pair", "sim.gen_poisson_pair"),
    ("stepfdr.sim", "gen_copula_uniforms", "sim.gen_copula_uniforms"),
)

LAYERS = ("cli", "ingest", "pvalue", "dist", "stepup", "sim")


class Tracer:
    """Wraps module attributes and keeps one span per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts = {"rows_loaded": 0, "unique_supports": 0,
                       "grid_points": 0, "sim_totals": set()}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, func, span_name: str):
        code = len(self.names)
        self.names.append(span_name)
        observe = _OBSERVERS.get(span_name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span and count recorded so far to `path` (.npz)."""
        counts = dict(self.counts)
        counts["sim_totals"] = len(counts["sim_totals"])
        np.savez(path,
                 name_of=np.asarray(self.name_of, dtype=np.int32),
                 start=np.asarray(self.start, dtype=np.float64),
                 end=np.asarray(self.end, dtype=np.float64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 names=np.asarray(json.dumps(self.names)),
                 counts=np.asarray(json.dumps(counts)))


def _seen_rows(counts, args, kwargs, result) -> None:
    counts["rows_loaded"] += len(result)


def _seen_max_cdf(counts, args, kwargs, result) -> None:
    supports = args[0] if args else kwargs["supports"]
    counts["unique_supports"] = max(counts["unique_supports"],
                                    len({id(s) for s in supports}))
    counts["grid_points"] = max(counts["grid_points"], int(result.grid.size))


def _seen_sim_counts(counts, args, kwargs, result) -> None:
    c = result[1]
    counts["sim_totals"].update((c[:, 0] + c[:, 1]).tolist())


_OBSERVERS = {
    "ingest.load_counts": _seen_rows,
    "stepup.build_max_cdf": _seen_max_cdf,
    "sim.gen_poisson_pair": _seen_sim_counts,
}


def load(path: Path) -> dict:
    with np.load(path) as data:
        return {
            "names": json.loads(str(data["names"])),
            "counts": json.loads(str(data["counts"])),
            "name_of": data["name_of"],
            "start": data["start"],
            "end": data["end"],
            "parent": data["parent"],
        }


def self_times(trace: dict) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Calls run on one thread and nest, so a span's children are disjoint and
    the time they cover is the sum of their durations.
    """
    duration = trace["end"] - trace["start"]
    covered = np.zeros_like(duration)
    has_parent = trace["parent"] >= 0
    np.add.at(covered, trace["parent"][has_parent], duration[has_parent])
    return duration - covered


def layer_metrics(trace: dict, distinct_margins: int | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced operation (see perfbench/README.md).

    distinct_margins comes from the workload's inputs; when None it is the
    number of distinct totals the simulation generated, seen at the
    gen_poisson_pair wrapper.
    """
    names = trace["names"]
    counts = trace["counts"]
    name_of = trace["name_of"]
    duration = trace["end"] - trace["start"]
    own = self_times(trace)

    def pick(*span_names):
        codes = [names.index(n) for n in span_names]
        return np.isin(name_of, codes)

    def total(*span_names):
        return float(duration[pick(*span_names)].sum())

    def self_of(*span_names):
        return float(own[pick(*span_names)].sum())

    def calls(*span_names):
        return int(np.count_nonzero(pick(*span_names)))

    roots = trace["parent"] < 0
    wall = float(duration[roots].sum())
    load_s = total("ingest.load_counts")
    bh_plus_ms = duration[pick("stepup.bh_plus")] * 1e3
    if distinct_margins is None:
        distinct_margins = counts["sim_totals"]
    null_calls = calls("dist.binomial_null", "dist.hypergeometric_null")
    layer = np.array([n.split(".", 1)[0] for n in names])[name_of]

    metrics = {
        "trace.wall_s": wall,
        "cli.self_s": self_of("cli.main"),
        "ingest.load_counts.s": load_s,
        "ingest.load_counts.rows_per_s": counts["rows_loaded"] / load_s if load_s else 0.0,
        "ingest.pvalue_tables.self_s": self_of("ingest.pvalue_tables"),
        "ingest.report_rows.s": total("ingest.report_rows"),
        "ingest.analyze.self_s": self_of("ingest.analyze"),
        "pvalue.outcome_pvalues.calls": calls("pvalue.bt_outcome_pvalues",
                                              "pvalue.fet_outcome_pvalues"),
        "pvalue.outcome_pvalues.self_s": self_of("pvalue.bt_outcome_pvalues",
                                                 "pvalue.fet_outcome_pvalues"),
        "pvalue.support.calls": calls("pvalue.bt_support", "pvalue.fet_support"),
        "pvalue.support.s": total("pvalue.bt_support", "pvalue.fet_support"),
        "pvalue.distinct_margins": distinct_margins,
        "pvalue.null_builds_per_margin": null_calls / distinct_margins if distinct_margins else 0.0,
        "dist.null_table.calls": null_calls,
        "dist.null_table.s": total("dist.binomial_null", "dist.hypergeometric_null"),
        "stepup.bh_plus.calls": bh_plus_ms.size,
        "stepup.bh_plus.self_s": self_of("stepup.bh_plus"),
        "stepup.bh_plus.call_ms.p50": float(np.percentile(bh_plus_ms, 50)) if bh_plus_ms.size else 0.0,
        "stepup.bh_plus.call_ms.p99": float(np.percentile(bh_plus_ms, 99)) if bh_plus_ms.size else 0.0,
        "stepup.build_max_cdf.s": total("stepup.build_max_cdf"),
        "stepup.build_max_cdf.unique_supports": counts["unique_supports"],
        "stepup.max_cdf.grid_points": counts["grid_points"],
        "stepup.critical_values.s": total("stepup.critical_values"),
        "stepup.bh.s": total("stepup.bh"),
        "stepup.mid_vs_conventional.self_s": self_of("stepup.mid_vs_conventional"),
        "sim.gen.s": total("sim.gen_poisson_pair"),
        "sim.gen_copula_uniforms.s": total("sim.gen_copula_uniforms"),
        "sim.run_grid.self_s": self_of("sim.run_grid"),
    }
    # The six layers' self times partition the traced wall time.
    for name in LAYERS:
        metrics[f"layer.{name}.self_s"] = float(own[layer == name].sum())
    return metrics
