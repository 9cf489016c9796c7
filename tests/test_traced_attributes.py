"""The traced benchmark run wraps stepfdr functions by module attribute name.

`perfbench/spans.py` lists them in `WRAPPED` and looks each one up with
`getattr`, so a rename or deletion in `src/` breaks `--trace 1` runs.  The
benchmark's own tests are outside this suite, so the list is checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_attribute_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [f"{module}.{attr}" for module, attr, _ in spans.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
