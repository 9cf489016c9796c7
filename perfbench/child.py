"""In-process runner for one measured stepfdr process.

Usage: python3 perfbench/child.py SPEC.json

SPEC names a mode and where to write results:

- ``analyze``: call ``stepfdr.cli.main(argv)`` once, traced or not, and
  record its wall time and exit code.  A fresh process per call keeps the
  p-value caches as cold as they are for a CLI user.
- ``sim``: run ``stepfdr.sim.run_grid`` on one sub-grid, first once to fill
  the caches, then in rounds until ``seconds`` have passed.  Each round
  starts with one set-up sample (a fresh interpreter running SPEC's
  ``setup_argv``), then runs the ops listed in SPEC (workers 1 or 2, traced
  or not) and writes each op's grid CSV for the parent to check.  Tracing
  is only ever asked for at workers = 1.

The result JSON holds per-op wall times, the set-up samples and the span
files written.  The parent process checks every output and turns spans into
metrics.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

from bench import spawn
from spans import Tracer


def _grid_csv(sim, summaries) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=sim.SIM_ROW_FIELDS,
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(sim.summaries_to_rows(summaries))
    return buffer.getvalue()


def run_analyze(spec: dict) -> dict:
    from stepfdr import cli

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - t0
    if tracer:
        tracer.remove()
        tracer.dump(Path(spec["spans"]))
    return {"exit": code, "wall_s": wall}


def run_sim(spec: dict) -> dict:
    from stepfdr import sim

    out_dir = Path(spec["out_dir"])
    grid = spec["grid"]

    def one(workers: int, tracer: Tracer | None, tag: str) -> dict:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        summaries = sim.run_grid("bt", workers=workers, **grid)
        wall = time.perf_counter() - t0
        if tracer:
            tracer.remove()
        path = out_dir / f"{tag}.csv"
        path.write_text(_grid_csv(sim, summaries), encoding="utf-8")
        return {"workers": workers, "traced": tracer is not None,
                "wall_s": wall, "csv": str(path)}

    warm = one(1, None, "warmup")
    ops = []
    deadline = time.perf_counter() + spec["seconds"]
    spans = []
    setup = []
    rounds = 0
    while rounds < spec["min_rounds"] or time.perf_counter() < deadline:
        proc = spawn(spec["setup_argv"], out_dir / "setup.err")
        setup.append(dataclasses.asdict(proc))
        for workers, traced in spec["round"]:
            tracer = Tracer() if traced else None
            tag = f"r{rounds}-w{workers}{'-t' if traced else ''}"
            ops.append(one(workers, tracer, tag))
            if tracer:
                path = out_dir / f"{tag}.npz"
                tracer.dump(path)
                spans.append(str(path))
        rounds += 1
    return {"warmup": warm, "ops": ops, "spans": spans, "setup": setup}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    runner = {"analyze": run_analyze, "sim": run_sim}[spec["mode"]]
    result = runner(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
