"""Tests of the benchmark itself: tiny smoke runs, failure counting, checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    outcome = bench.run_workload(workload, seed=5, seconds=0.1, trace=trace,
                                 scale=bench.TINY)
    assert outcome.tally.attempted >= 1
    assert outcome.tally.failed == 0, outcome.notes
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        value, unit = outcome.metrics[metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(value)
    assert len(outcome.metrics) == len(wanted)
    if not trace:
        assert all(value > 0 for value, _ in outcome.metrics.values())


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    def table(seed):
        return bench.generate_fet(np.random.default_rng([seed, 1]), 50)

    assert table(3) == table(3)
    assert table(3) != table(4)
    rows = bench.generate_bt(np.random.default_rng([3, 0]), 1000)
    assert len(rows) == 1000 and len({r["id"] for r in rows}) == 1000


@pytest.fixture(scope="module")
def clean_op(tmp_path_factory):
    work = tmp_path_factory.mktemp("negative")
    op = bench.prepare_analyze("bt", 7, bench.TINY, work)
    out = work / "clean"
    proc = bench.run_cli(op, out)
    assert bench.judge_analyze(op, proc.exit, out, proc.stderr, {}) == []
    return op, out


def _corrupt(op, clean: Path, dest: Path, edit) -> Path:
    shutil.copytree(clean, dest)
    path = dest / "details.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    edit(lines, header)
    path.write_text("".join(lines), encoding="utf-8")
    return dest


def _edit_cell(lines, header, row, column, change):
    cells = lines[row + 1].rstrip("\n").split(",")
    j = header.index(column)
    cells[j] = change(cells[j])
    lines[row + 1] = ",".join(cells) + "\n"


def test_corrupted_pvalue_counts_as_failed_op(clean_op, tmp_path):
    op, clean = clean_op
    row = op.sample[0]
    out = _corrupt(op, clean, tmp_path / "bad", lambda lines, header: _edit_cell(
        lines, header, row, "p_conv", lambda s: repr(math.nextafter(float(s), 0.0))))
    tally, notes = bench.Tally(), []
    tally.record(bench.judge_analyze(op, 0, out, "", {}), notes)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any("exact" in note for note in notes)


def test_flipped_rejection_flag_counts_as_failed_op(clean_op, tmp_path):
    op, clean = clean_op
    out = _corrupt(op, clean, tmp_path / "bad", lambda lines, header: _edit_cell(
        lines, header, 0, "reject_bh", lambda s: "0" if s == "1" else "1"))
    tally, notes = bench.Tally(), []
    tally.record(bench.judge_analyze(op, 0, out, "", {}), notes)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any("BH" in note for note in notes)


def test_rejected_input_counts_as_failed_op(clean_op, tmp_path):
    op, _ = clean_op
    bad_input = tmp_path / "input.csv"
    bad_input.write_text("id,c1,c2\nr0,1,x\n", encoding="utf-8")
    bad = bench.AnalyzeOp(op.test, op.rows, bad_input, op.sample, op.margins)
    proc = bench.run_cli(bad, tmp_path / "out")
    assert proc.exit == 2
    problems = bench.judge_analyze(bad, proc.exit, tmp_path / "out", proc.stderr, {})
    assert problems and problems[0].startswith("exit 2")


def test_exact_pvalues_by_hand():
    # Binomial(2, 1/2): masses 1, 2, 1 over 4.  c1 = 0 ties with c1 = 2.
    assert checks.bt_exact(0, 2) == (0.5, 0.25)
    assert checks.bt_exact(1, 1) == (1.0, 0.75)
    assert checks.bt_exact(0, 0) == (1.0, 0.5)
    # Hypergeometric n1 = n2 = 1, total 1: masses 1, 1 over 2, one tie class.
    assert checks.fet_exact(1, 0, 1, 1) == (1.0, 0.5)


def test_bh_flags_by_hand():
    assert checks.bh_flags([0.01, 0.04, 0.5], 0.1) == [True, True, False]
    assert checks.bh_flags([0.2, 0.3], 0.1) == [False, False]
    # p_(2) = 0.05 <= 0.1 * 2 / 2 pulls in p_(1) = 0.06 > 0.1 / 2.
    assert checks.bh_flags([0.06, 0.05], 0.1) == [True, True]


def test_parse_importtime_attributes_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        200 |       numpy.linalg",
        "import time:       300 |        500 |     scipy.stats",
        "import time:        50 |        650 |   scipy",
        "import time:        40 |         40 |   click",
        "import time:        30 |        720 | stepfdr.sim",
        "import time:        20 |        740 | stepfdr",
    ])
    assert bench.parse_importtime(text) == {
        "import.scipy_s": 650e-6, "import.click_s": 40e-6,
        "import.stepfdr_self_s": 50e-6}


def test_self_time_subtracts_children():
    trace = {"start": np.array([0.0, 1.0, 2.0, 5.0]),
             "end": np.array([10.0, 2.5, 2.4, 6.0]),
             "parent": np.array([-1, 0, 1, 0])}
    assert spans.self_times(trace).tolist() == pytest.approx([7.5, 1.1, 0.4, 1.0])


def _checkout(dest: Path, with_program: bool) -> Path:
    """BENCHMARK.json and perfbench/, and src/ when `with_program`."""
    shutil.copy(bench.ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache")
    shutil.copytree(bench.HERE, dest / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(bench.ROOT / "src", dest / "src", ignore=skip)
    return dest


def _run(checkout: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=120)


def test_missing_program_exits_2_without_result(tmp_path):
    proc = _run(_checkout(tmp_path, with_program=False), "analyze-bt-1e5", 0)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_broken_import_counts_as_failed_ops(tmp_path, trace):
    checkout = _checkout(tmp_path, with_program=True)
    init = checkout / "src" / "stepfdr" / "__init__.py"
    init.write_text(init.read_text(encoding="utf-8")
                    + "\nraise ImportError('broken on purpose')\n", encoding="utf-8")
    proc = _run(checkout, "sim-bt-block", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1 + bench.FULL.setup_samples
    assert "broken on purpose" in proc.stdout
