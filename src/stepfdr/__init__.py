"""Adaptive FDR step-up procedures for discrete exact tests.

The package computes exact conventional and mid two-sided p-values for the
binomial test and Fisher's exact test, builds their attainable-value
supports and null CDFs, and runs step-up multiple-testing procedures whose
critical values adapt to the pooled null CDF.  A Monte Carlo harness and
count-table ingestion pipelines sit on top, exposed through the ``stepfdr``
command-line tool.
"""

from . import dist, errors, ingest, pvalue, sim, stepup
from .dist import *
from .errors import *
from .ingest import *
from .pvalue import *
from .sim import *
from .stepup import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (dist, errors, ingest, pvalue, sim, stepup)
                  for name in module.__all__})
