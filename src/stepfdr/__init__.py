"""Adaptive FDR step-up procedures for discrete exact tests.

The package computes exact conventional and mid two-sided p-values for the
binomial test and Fisher's exact test, builds their attainable-value
supports and null CDFs, and runs step-up multiple-testing procedures whose
critical values adapt to the pooled null CDF.  A Monte Carlo harness and
count-table ingestion pipelines sit on top, exposed through the ``stepfdr``
command-line tool.  Each module, and each public name, loads on first use.
"""

import importlib

__version__ = "0.1.0"

# In the order a name is looked for, so that no analysis name loads `sim`.
_MODULES = ("dist", "errors", "pvalue", "stepup", "ingest", "sim")


def __getattr__(name: str):
    """A module, a name from the `__all__` of the module that defines it, or
    `__all__`, the union of theirs, imported on first use (PEP 562)."""
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    modules = map(__getattr__, _MODULES)
    if name == "__all__":
        return sorted({attr for module in modules for attr in module.__all__})
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
