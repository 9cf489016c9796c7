"""The traced benchmark run wraps stepfdr functions by module attribute name.

`perfbench/spans.py` lists them in `WRAPPED` and looks each one up with
`getattr`, so a rename or deletion in `src/` breaks `--trace 1` runs.  Its
observers also read return values and arguments (`len()` of what
`load_counts` returns, the first argument given to `build_max_cdf`).  The
benchmark's own tests are outside this suite, so the list is checked here
and one traced `analyze` runs end to end.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from stepfdr import pvalue, sim
from stepfdr.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
FIXTURE = ROOT / "fixtures" / "methylation_synthetic.csv"
FET_FIXTURE = ROOT / "fixtures" / "hiv_synthetic.csv"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(spans):
    assert spans.WRAPPED
    missing = [f"{module}.{attr}" for module, attr, _ in spans.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_analyze_gives_finite_layer_metrics(spans, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = main(["analyze", "--input", str(FIXTURE), "--test", "bt",
                     "--details-out", str(tmp_path / "details.csv"),
                     "--output", str(tmp_path / "summary.json")])
    finally:
        tracer.remove()
    assert code == 0
    tracer.dump(tmp_path / "trace.npz")
    trace = spans.load(tmp_path / "trace.npz")
    rows = len(FIXTURE.read_text(encoding="utf-8").splitlines()) - 1
    assert trace["counts"]["rows_loaded"] == rows
    metrics = spans.layer_metrics(trace)
    assert metrics["ingest.report_rows.s"] > 0.0
    assert [name for name, value in metrics.items() if not math.isfinite(value)] == []


def test_traced_fet_analyze_builds_both_flavors_in_one_pass(spans, tmp_path):
    """One `pvalue_tables` call serves BH, BH+ and MidPBH+, and each margin's
    null is built once for both flavors."""
    rows = [line.split(",") for line in
            FET_FIXTURE.read_text(encoding="utf-8").splitlines()[1:]]
    margins = {(n1, n2, int(c1) + int(c2)) for _, c1, c2, n1, n2 in rows}
    pvalue._margins.clear()   # so every margin is built in the traced run
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = main(["analyze", "--input", str(FET_FIXTURE), "--test", "fet",
                     "--pvalue", "both",
                     "--output", str(tmp_path / "summary.json")])
    finally:
        tracer.remove()
    assert code == 0
    tracer.dump(tmp_path / "trace.npz")
    trace = spans.load(tmp_path / "trace.npz")
    code_of = trace["names"].index("ingest.pvalue_tables")
    assert int((trace["name_of"] == code_of).sum()) == 1
    metrics = spans.layer_metrics(trace, distinct_margins=len(margins))
    assert metrics["pvalue.null_builds_per_margin"] == 1.0


def test_traced_block_grid_measures_generation(spans, tmp_path):
    """Generation runs once per block of replications (one block per cell
    here), and the sim spans still time it and see every replication's
    counts."""
    grid = dict(pi0s=(0.5, 0.9), etas=(3.0,), m=20, dependence="block",
                reps=3, seed=4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sim.run_grid("bt", **grid)
    finally:
        tracer.remove()
    tracer.dump(tmp_path / "trace.npz")
    trace = spans.load(tmp_path / "trace.npz")
    code_of = trace["names"].index("sim.gen_poisson_pair")
    assert int((trace["name_of"] == code_of).sum()) == len(grid["pi0s"])
    metrics = spans.layer_metrics(trace)
    assert metrics["sim.gen.s"] > 0.0 and metrics["sim.gen_copula_uniforms.s"] > 0.0
    totals = set()
    for pi0 in grid["pi0s"]:
        config = sim.SimConfig(test="bt", pi0=pi0, alpha=0.05, eta=3.0, m=20,
                               dependence="block", reps=3, seed=4)
        for r in range(config.reps):
            _, counts = sim.gen_poisson_pair(config, np.random.default_rng([4, r]))
            totals.update((counts[:, 0] + counts[:, 1]).tolist())
    assert metrics["pvalue.distinct_margins"] == len(totals)
