"""What each entry point loads.  The command line loads the simulation
module only for `simulate`, and the package re-exports its modules' names
on first use, so no module pays for another's imports.  Each probe runs in
a fresh interpreter, as this one has loaded every module already."""

import json
import os
import pathlib
import subprocess
import sys

import stepfdr

SRC = str(pathlib.Path(stepfdr.__file__).resolve().parents[1])
HIV = str(pathlib.Path(__file__).parent.parent / "fixtures" / "hiv_synthetic.csv")


def probe(code: str, *args: str):
    """The JSON that `code`, run in a fresh interpreter, prints last."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('stepfdr'))))"


def test_cli_import_leaves_sim_unloaded():
    loaded = probe("import stepfdr.cli; " + LOADED)
    assert "stepfdr.cli" in loaded and "stepfdr.sim" not in loaded


def test_sim_import_leaves_ingest_and_cli_unloaded():
    loaded = probe("import stepfdr.sim; " + LOADED)
    assert "stepfdr.sim" in loaded
    assert "stepfdr.ingest" not in loaded and "stepfdr.cli" not in loaded


def test_analyze_runs_without_loading_sim(tmp_path):
    summary = tmp_path / "summary.json"
    loaded = probe("import sys; from stepfdr.cli import main; "
                   "assert main(sys.argv[1:]) == 0; " + LOADED,
                   "analyze", "--input", HIV, "--test", "fet", "--details-out",
                   str(tmp_path / "details.csv"), "--output", str(summary))
    assert "stepfdr.ingest" in loaded and "stepfdr.sim" not in loaded
    assert json.loads(summary.read_text())["m"] > 0


def test_star_import_binds_every_exported_name():
    names, missing = probe("import json, stepfdr; namespace = {}; "
                           "exec('from stepfdr import *', namespace); "
                           "print(json.dumps([stepfdr.__all__, "
                           "[n for n in stepfdr.__all__ if n not in namespace]]))")
    assert names == sorted(stepfdr.__all__) and missing == []
    assert {"pvalue_table", "run_grid", "analyze", "DataError"} <= set(names)
