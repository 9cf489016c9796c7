"""Workloads, measurement loops and metrics of the stepfdr benchmark.

Three seeded workloads (see README.md for why each exists):

- analyze-bt-1e5: ``stepfdr analyze --test bt`` on 1e5 rows from the
  paper's Poisson model; large m, about 100 distinct totals.
- analyze-fet-margins: ``stepfdr analyze --test fet`` on 5,000 rows whose
  group sizes change from row to row, so nearly every row has its own null.
- sim-bt-block: ``stepfdr.sim.run_grid("bt", dependence="block")`` on a
  four-cell sub-grid, at workers = 1 and workers = 2.

An untraced run (trace=False) measures the end-to-end metrics; a traced run
wraps the package's module attributes (spans.py) and reports per-layer
numbers.  Every operation's output is checked (checks.py); an operation
fails on a non-zero exit, an exception or a failed check.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
ALPHA = 0.05
CHILD_TIMEOUT_S = 150.0
# The sim sub-grid: four cells of run_grid's default (pi0, eta) grid.
SIM_PI0S = (0.5, 0.9)
SIM_ETAS = (3.0, 6.0)


@dataclass(frozen=True)
class Scale:
    """Input sizes and sample counts; TINY exists for the benchmark's tests."""

    bt_rows: int = 100_000
    fet_rows: int = 5_000
    exact_sample: int = 200
    sim_reps: int = 50
    setup_samples: int = 7
    min_ops: int = 3
    min_trace_pairs: int = 2


FULL = Scale()
TINY = replace(FULL, bt_rows=400, fet_rows=60, exact_sample=60, sim_reps=2,
               setup_samples=1, min_ops=1, min_trace_pairs=1)

WORKLOADS = ("analyze-bt-1e5", "analyze-fet-margins", "sim-bt-block")


class ProgramMissing(RuntimeError):
    """The checkout holds no stepfdr sources to measure."""


def program_dir() -> Path:
    package = ROOT / "src" / "stepfdr"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no stepfdr sources under {package}")
    return package


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------- inputs

def generate_bt(rng: np.random.Generator, m: int) -> list[dict]:
    """The paper's binomial-test model: base mean from Pareto(4.5, 5), 10%
    alternatives with one side enriched by U(3, 5.5), Poisson counts."""
    m0 = m - m // 10
    m1 = m - m0
    base = 4.5 * (1.0 - rng.random(m)) ** (-1.0 / 5.0)
    enrich = rng.uniform(3.0, 5.5, m1)
    theta = np.stack([base, base], axis=1)
    k = m1 // 2
    theta[m0:m0 + k, 1] *= enrich[:k]
    theta[m0 + k:, 0] *= enrich[k:]
    counts = rng.poisson(theta)[rng.permutation(m)]
    return [{"id": f"r{i:06d}", "c1": str(c1), "c2": str(c2)}
            for i, (c1, c2) in enumerate(counts.tolist())]


def generate_fet(rng: np.random.Generator, m: int) -> list[dict]:
    """Fisher tables with per-row depth: n1, n2 from 50..400, rates from
    U(0.01, 0.2); nulls share one rate, 10% alternatives draw one per group."""
    m0 = m - m // 10
    n = rng.integers(50, 401, size=(m, 2))
    rate = rng.uniform(0.01, 0.2, size=(m, 2))
    rate[:m0, 1] = rate[:m0, 0]
    counts = rng.binomial(n, rate)
    order = rng.permutation(m)
    return [{"id": f"s{i:05d}", "c1": str(c1), "c2": str(c2),
             "n1": str(n1), "n2": str(n2)}
            for i, (c1, c2, n1, n2) in enumerate(
                np.column_stack([counts, n])[order].tolist())]


def write_table(rows: list[dict], path: Path) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def distinct_margins(rows: list[dict], test: str) -> int:
    if test == "bt":
        return len({int(r["c1"]) + int(r["c2"]) for r in rows})
    return len({(r["n1"], r["n2"], int(r["c1"]) + int(r["c2"])) for r in rows})


# ------------------------------------------------------------ processes

@dataclass
class Proc:
    exit: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def spawn(argv: list[str], stderr_path: Path, timeout: float = CHILD_TIMEOUT_S) -> Proc:
    """Run argv to completion; wall time and peak RSS (its own and that of
    any children it waited for) come from wait4, so nothing is polled."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                stderr_path.read_text(encoding="utf-8", errors="replace"))


def parse_importtime(text: str) -> dict[str, float]:
    """scipy and click: cumulative time of their outermost import entries
    (so modules they pull in count as theirs); stepfdr: self time only."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(self_us), int(cumulative_us)))
    totals = {"import.scipy_s": 0, "import.click_s": 0, "import.stepfdr_self_s": 0}
    stack: list[str] = []
    # Lines come children first; reversed, each entry follows its parent.
    for depth, name, self_us, cumulative_us in reversed(entries):
        del stack[depth:]
        top = name.split(".", 1)[0]
        inside = {n.split(".", 1)[0] for n in stack}
        if top in ("scipy", "click") and top not in inside:
            totals[f"import.{top}_s"] += cumulative_us
        if top == "stepfdr":
            totals["import.stepfdr_self_s"] += self_us
        stack.append(name)
    return {key: value / 1e6 for key, value in totals.items()}


# ------------------------------------------------------------- results

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str], log: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            log.extend(problems)


class Setup:
    """The set-up samples of one run: fresh interpreters importing the entry
    module, taken between the ops so that they see the same host speed.
    Each sample is an operation, and it fails if the import fails."""

    def __init__(self, module: str, trace: bool, work: Path, tally: Tally,
                 notes: list[str]) -> None:
        self.module, self.trace, self.work = module, trace, work
        self.tally, self.notes = tally, notes
        self.attempted = 0
        self.passed: list[Proc] = []

    def argv(self) -> list[str]:
        """A fresh interpreter importing the module, under ``-X importtime``
        when traced."""
        flags = ["-X", "importtime"] if self.trace else []
        return [sys.executable, *flags, "-c", f"import {self.module}"]

    def sample(self) -> None:
        self.add(spawn(self.argv(), self.work / "setup.err"))

    def add(self, proc: Proc) -> None:
        self.attempted += 1
        problems = [] if proc.exit == 0 else [
            f"import {self.module}: exit {proc.exit}: {proc.stderr.strip()[-400:]}"]
        self.tally.record(problems, self.notes)
        if not problems:
            self.passed.append(proc)

    def top_up(self, samples: int) -> None:
        while self.attempted < samples:
            self.sample()

    def times(self) -> list[float]:
        return [proc.wall_s for proc in self.passed]

    def imports(self) -> dict[str, float]:
        """Median seconds spent importing scipy, click and stepfdr's own
        modules, from the traced samples."""
        runs = [parse_importtime(proc.stderr) for proc in self.passed]
        keys = parse_importtime("")
        return {key: _median([r[key] for r in runs]) for key in keys}


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return None


@dataclass
class Outcome:
    tally: Tally
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    samples: dict[str, tuple[list[float], str]]


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _fastest(times: list[float]) -> float:
    """The gated timing of a run.  On a shared 2-vCPU host, other tenants
    slow an operation down by up to ~50% for seconds at a time and never
    speed it up, so the fastest operation is the least disturbed one; over
    ten seeds it varied less from run to run than the median did."""
    return min(times, default=0.0)


# -------------------------------------------------------------- analyze

@dataclass(frozen=True)
class AnalyzeOp:
    """Inputs of one analyze workload, shared by every op of a run."""

    test: str
    rows: list
    input_path: Path
    sample: list
    margins: int

    def argv(self, out: Path) -> list[str]:
        return ["analyze", "--input", str(self.input_path), "--test", self.test,
                "--pvalue", "both", "--alpha", repr(ALPHA),
                "--output", str(out / "summary.json"),
                "--details-out", str(out / "details.csv")]


def judge_analyze(op: AnalyzeOp, exit_code: int, out: Path, stderr: str,
                  verdicts: dict) -> list[str]:
    """Problems with one analyze op; byte-identical outputs share a verdict."""
    if exit_code != 0:
        return [f"exit {exit_code}: {stderr.strip()[-400:]}"]
    try:
        key = ((out / "details.csv").read_bytes(), (out / "summary.json").read_bytes())
    except OSError as exc:
        return [f"missing output: {exc}"]
    if key not in verdicts:
        verdicts[key] = checks.check_analyze(op.rows, out / "details.csv",
                                             out / "summary.json", op.test,
                                             ALPHA, op.sample)
    return verdicts[key]


def prepare_analyze(test: str, seed: int, scale: Scale, work: Path) -> AnalyzeOp:
    rng = np.random.default_rng([seed, 0 if test == "bt" else 1])
    if test == "bt":
        rows = generate_bt(rng, scale.bt_rows)
    else:
        rows = generate_fet(rng, scale.fet_rows)
    path = work / "input.csv"
    write_table(rows, path)
    sample = sorted(rng.choice(len(rows), size=min(len(rows), scale.exact_sample),
                               replace=False).tolist())
    return AnalyzeOp(test, rows, path, sample, distinct_margins(rows, test))


CLI_ENTRY = "import sys; from stepfdr.cli import main; sys.exit(main())"


def run_cli(op: AnalyzeOp, out: Path) -> Proc:
    """One ``stepfdr analyze`` process, started the way the console script
    starts it; outputs go to `out`."""
    out.mkdir()
    return spawn([sys.executable, "-c", CLI_ENTRY, *op.argv(out)], out / "stderr")


def run_analyze(test: str, seed: int, seconds: float, trace: bool,
                scale: Scale, work: Path) -> Outcome:
    op = prepare_analyze(test, seed, scale, work)
    tally, notes, verdicts = Tally(), [], {}
    setup = Setup("stepfdr.cli", trace, work, tally, notes)
    if trace:
        return _trace_analyze(op, seconds, scale, work, setup, verdicts)
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < scale.min_ops or time.perf_counter() < deadline:
        setup.sample()
        out = work / f"op{k}"
        proc = run_cli(op, out)
        walls.append(proc.wall_s)
        rss.append(proc.peak_rss_mb)
        tally.record(judge_analyze(op, proc.exit, out, proc.stderr, verdicts), notes)
        k += 1
    setup.top_up(scale.setup_samples)
    metrics = {"setup_s": _fastest(setup.times()), "wall_s": _fastest(walls),
               "peak_rss_mb": _median(rss)}
    return Outcome(tally, _with_units(metrics), notes,
                   {"setup_s": (setup.times(), "s"), "analyze_wall_s": (walls, "s"),
                    "peak_rss_mb": (rss, "MB")})


def _child(spec: dict, work: Path, tag: str) -> tuple[Proc, dict | None]:
    spec = dict(spec, result=str(work / f"{tag}.result.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # A sim child measures for spec["seconds"] before its last round ends.
    proc = spawn([sys.executable, str(HERE / "child.py"), str(spec_path)],
                 work / f"{tag}.stderr",
                 timeout=CHILD_TIMEOUT_S + spec.get("seconds", 0.0))
    try:
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = None
    return proc, result


def _trace_analyze(op: AnalyzeOp, seconds: float, scale: Scale, work: Path,
                   setup: Setup, verdicts: dict) -> Outcome:
    tally, notes = setup.tally, setup.notes
    walls = {True: [], False: []}
    layers = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 * scale.min_trace_pairs or time.perf_counter() < deadline:
        traced = k % 2 == 0
        setup.sample()
        out = work / f"op{k}"
        out.mkdir()
        spec = {"mode": "analyze", "argv": op.argv(out), "trace": traced,
                "spans": str(out / "spans.npz")}
        proc, result = _child(spec, work, f"op{k}")
        if proc.exit != 0 or result is None:
            problems = [f"exit {proc.exit}: {proc.stderr.strip()[-400:]}"]
        else:
            problems = judge_analyze(op, result["exit"], out, proc.stderr, verdicts)
        tally.record(problems, notes)
        if not problems:
            walls[traced].append(result["wall_s"])
            if traced:
                layers.append(spans.layer_metrics(spans.load(out / "spans.npz"),
                                                  op.margins))
        k += 1
    setup.top_up(scale.setup_samples)
    metrics = _layer_medians(layers)
    metrics.update(setup.imports())
    metrics["sim.pool_speedup"] = 0.0
    metrics["trace.overhead_ratio"] = _ratio(walls[True], walls[False])
    return Outcome(tally, _with_units(metrics), notes,
                   {"traced_wall_s": (walls[True], "s"),
                    "untraced_wall_s": (walls[False], "s")})


# ------------------------------------------------------------------ sim

def sim_grid(seed: int, scale: Scale) -> dict:
    return {"pi0s": list(SIM_PI0S), "etas": list(SIM_ETAS),
            "dependence": "block", "reps": scale.sim_reps, "seed": seed}


def run_sim(seed: int, seconds: float, trace: bool, scale: Scale,
            work: Path) -> Outcome:
    tally, notes = Tally(), []
    setup = Setup("stepfdr.sim", trace, work, tally, notes)
    cells = len(SIM_PI0S) * len(SIM_ETAS)
    alphas = 4  # run_grid's default alpha grid
    reps = cells * scale.sim_reps
    if trace:
        rounds = [(1, True), (1, False), (2, False)]
    else:
        # workers = 2 runs once a round: it is checked, and reported as
        # reps_per_s_w2, but only the workers = 1 time is an end-to-end metric.
        rounds = [(1, False), (1, False), (1, False), (2, False)]
    spec = {"mode": "sim", "grid": sim_grid(seed, scale), "seconds": seconds,
            "min_rounds": scale.min_ops, "round": rounds, "out_dir": str(work),
            "setup_argv": setup.argv()}
    proc, result = _child(spec, work, "sim")
    if proc.exit != 0 or result is None:
        tally.record([f"exit {proc.exit}: {proc.stderr.strip()[-400:]}"], notes)
        result = {"warmup": None, "ops": [], "spans": [], "setup": []}
    for sample in result["setup"]:
        setup.add(Proc(**sample))
    setup.top_up(scale.setup_samples)
    walls = {(w, t): [] for w, t in rounds}
    if result["warmup"] is not None:
        reference = Path(result["warmup"]["csv"]).read_bytes()
        tally.record(checks.check_grid(result["warmup"]["csv"], cells, alphas), notes)
        for entry in result["ops"]:
            same = Path(entry["csv"]).read_bytes() == reference
            tally.record([] if same else [
                f"workers={entry['workers']} traced={entry['traced']}: grid CSV "
                "differs from the workers=1 reference"], notes)
            walls[(entry["workers"], entry["traced"])].append(entry["wall_s"])
    w1, w2 = walls[(1, False)], walls[(2, False)]
    if trace:
        layers = [spans.layer_metrics(spans.load(Path(p))) for p in result["spans"]]
        metrics = _layer_medians(layers)
        metrics.update(setup.imports())
        metrics["sim.pool_speedup"] = _ratio(w1, w2)
        metrics["trace.overhead_ratio"] = _ratio(walls[(1, True)], w1)
        return Outcome(tally, _with_units(metrics), notes,
                       {"traced_wall_s": (walls[(1, True)], "s"),
                        "untraced_wall_s": (w1, "s"), "w2_wall_s": (w2, "s")})
    metrics = {"setup_s": _fastest(setup.times()), "wall_s": _fastest(w1),
               "peak_rss_mb": proc.peak_rss_mb}
    return Outcome(tally, _with_units(metrics), notes,
                   {"setup_s": (setup.times(), "s"), "wall_s": (w1, "s"),
                    "reps_per_s": ([reps / w for w in w1], "1/s"),
                    "reps_per_s_w2": ([reps / w for w in w2], "1/s")})


# ---------------------------------------------------------------- shared

def _with_units(metrics: dict[str, float]) -> dict[str, tuple[float, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: (value, units[name]) for name, value in metrics.items()}


def _layer_medians(layers: list[dict]) -> dict[str, float]:
    if not layers:
        return {}
    return {key: float(statistics.median(m[key] for m in layers)) for key in layers[0]}


def _ratio(numerator: list[float], denominator: list[float]) -> float:
    if not numerator or not denominator:
        return 0.0
    return _median(numerator) / _median(denominator)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL) -> Outcome:
    """Generate the workload's inputs from `seed`, measure, check outputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    program_dir()
    # Only the latest run's outputs and spans are kept, to bound disk use.
    shutil.rmtree(WORK, ignore_errors=True)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True)
    if name == "sim-bt-block":
        return run_sim(seed, seconds, trace, scale, work)
    test = "bt" if name == "analyze-bt-1e5" else "fet"
    return run_analyze(test, seed, seconds, trace, scale, work)
