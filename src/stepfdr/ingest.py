"""Loading, filtering and analysis of two-group count tables.

Input files are CSV or TSV with header ``id,c1,c2`` (binomial-test data) or
``id,c1,c2,n1,n2`` (Fisher-exact data with per-group trial totals).  Records
flow through an optional application filter and into the step-up procedures;
the report helpers flatten results for CSV and JSON emission.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import pvalue, stepup
from .errors import DataError
from .pvalue import PValueFlavor

__all__ = [
    "CountRecord",
    "load_counts",
    "filter_methylation",
    "filter_hiv",
    "AnalysisReport",
    "analyze",
    "pvalue_tables",
    "report_rows",
    "report_summary",
    "DETAIL_FIELDS",
    "SUMMARY_FIELDS",
    "PROCEDURE_CHOICES",
]

PROCEDURE_CHOICES = ("BH", "BH+", "MidPBH+")


@dataclass(frozen=True)
class CountRecord:
    """One hypothesis: a pair of counts, optionally with trial totals."""

    id: str
    c1: int
    c2: int
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self) -> None:
        if self.c1 < 0 or self.c2 < 0:
            raise DataError(f"record {self.id!r}: counts must be >= 0")
        if (self.n1 is None) != (self.n2 is None):
            raise DataError(
                f"record {self.id!r}: trial totals must come in pairs")
        if self.n1 is not None:
            if self.n1 < 0 or self.n2 < 0:
                raise DataError(
                    f"record {self.id!r}: trial totals must be >= 0")
            if self.c1 > self.n1 or self.c2 > self.n2:
                raise DataError(
                    f"record {self.id!r}: count exceeds its trial total")

    @property
    def total(self) -> int:
        return self.c1 + self.c2


_BARE_HEADER = ("id", "c1", "c2")
_TOTALS_HEADER = ("id", "c1", "c2", "n1", "n2")


def _parse_count(raw: str, column: str, where: str) -> int:
    text = raw.strip()
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"{where}: column {column!r} is not an integer: {text!r}") from None
    if value < 0:
        raise DataError(f"{where}: column {column!r} must be >= 0, got {value}")
    return value


def load_counts(path: str, fmt: str | None = None) -> list[CountRecord]:
    """Parse a count table, reporting malformed rows by file and line number.

    fmt is "csv" or "tsv"; None infers from the filename extension
    (".tsv" means tab-delimited, anything else comma-delimited).
    """
    if fmt is None:
        fmt = "tsv" if str(path).lower().endswith(".tsv") else "csv"
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"format must be 'csv' or 'tsv', got {fmt!r}")
    delimiter = "\t" if fmt == "tsv" else ","
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}:1: empty file, expected a header row") from None
        names = tuple(cell.strip().lower() for cell in header)
        if names == _TOTALS_HEADER:
            with_totals = True
        elif names == _BARE_HEADER:
            with_totals = False
        else:
            raise DataError(
                f"{path}:1: header must be 'id,c1,c2' or 'id,c1,c2,n1,n2', "
                f"got {','.join(names)!r}")
        records: list[CountRecord] = []
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names):
                raise DataError(
                    f"{where}: expected {len(names)} fields, got {len(row)}")
            rid = row[0].strip()
            if not rid:
                raise DataError(f"{where}: empty id")
            c1 = _parse_count(row[1], "c1", where)
            c2 = _parse_count(row[2], "c2", where)
            if with_totals:
                n1 = _parse_count(row[3], "n1", where)
                n2 = _parse_count(row[4], "n2", where)
                if c1 > n1 or c2 > n2:
                    raise DataError(f"{where}: count exceeds its trial total")
                records.append(CountRecord(rid, c1, c2, n1, n2))
            else:
                records.append(CountRecord(rid, c1, c2))
    return records


def filter_methylation(records: list[CountRecord]) -> list[CountRecord]:
    """Keep records with total count above 10 and both counts at most 25."""
    return [r for r in records if r.total > 10 and r.c1 <= 25 and r.c2 <= 25]


def filter_hiv(records: list[CountRecord]) -> list[CountRecord]:
    """Keep records whose total count is at least 5."""
    return [r for r in records if r.total >= 5]


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Per-hypothesis p-values and step-up results for one analysis run."""

    test: str
    alpha: float
    procedures: tuple[str, ...]
    ids: tuple[str, ...]
    p_conv: np.ndarray | None
    p_mid: np.ndarray | None
    results: dict[str, stepup.StepUpResult]
    comparison: stepup.MidComparison | None

    @property
    def m(self) -> int:
        return len(self.ids)

    def rejected_mask(self, procedure: str) -> np.ndarray:
        mask = np.zeros(self.m, dtype=bool)
        mask[self.results[procedure].rejected] = True
        return mask


def pvalue_tables(records: list[CountRecord], test: str,
                  flavor: PValueFlavor) -> pvalue.PValueTable:
    """The p-value table of `records` under `test` ("bt" or "fet")."""
    m = len(records)
    c1 = np.fromiter((r.c1 for r in records), dtype=np.int64, count=m)
    c2 = np.fromiter((r.c2 for r in records), dtype=np.int64, count=m)
    if test == "bt":
        return pvalue.pvalue_table(flavor, c1, c2)
    for r in records:
        if r.n1 is None:
            raise DataError(
                f"record {r.id!r}: Fisher-exact analysis needs trial totals")
    n1 = np.fromiter((r.n1 for r in records), dtype=np.int64, count=m)
    n2 = np.fromiter((r.n2 for r in records), dtype=np.int64, count=m)
    return pvalue.pvalue_table(flavor, c1, c2, n1, n2)


def analyze(records: list[CountRecord], test: str, alpha: float,
            procedures: tuple[str, ...] = PROCEDURE_CHOICES) -> AnalysisReport:
    """Compute exact p-values and run the requested step-up procedures.

    "BH" and "BH+" run on conventional p-values, "MidPBH+" on mid p-values.
    When both "BH+" and "MidPBH+" are requested, the report also carries the
    rejection-count comparison between the two runs.
    """
    if test not in ("bt", "fet"):
        raise ValueError(f"test must be 'bt' or 'fet', got {test!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not procedures:
        raise ValueError("at least one procedure is required")
    bad = [name for name in procedures if name not in PROCEDURE_CHOICES]
    if bad:
        raise ValueError(f"unknown procedure {bad[0]!r}")
    procedures = tuple(name for name in PROCEDURE_CHOICES if name in procedures)
    if not records:
        raise DataError("no hypotheses to test")

    conv = mid = None
    if "BH" in procedures or "BH+" in procedures:
        conv = pvalue_tables(records, test, PValueFlavor.CONVENTIONAL)
    if "MidPBH+" in procedures:
        mid = pvalue_tables(records, test, PValueFlavor.MID)

    results: dict[str, stepup.StepUpResult] = {}
    if "BH" in procedures:
        results["BH"] = stepup.bh(conv.p, alpha)
    if "BH+" in procedures:
        results["BH+"] = stepup.bh_plus(conv.p, conv, alpha)
    comparison = None
    if "MidPBH+" in procedures:
        if "BH+" in procedures:
            comparison = stepup.mid_vs_conventional(
                results["BH+"], mid, mid.p, alpha)
            results["MidPBH+"] = comparison.mid_result
        else:
            results["MidPBH+"] = stepup.bh_plus(mid.p, mid, alpha)

    return AnalysisReport(
        test=test, alpha=alpha, procedures=procedures,
        ids=tuple(r.id for r in records),
        p_conv=None if conv is None else conv.p,
        p_mid=None if mid is None else mid.p,
        results=results, comparison=comparison)


DETAIL_FIELDS = ("id", "p_conv", "p_mid", "reject_bh", "reject_bhplus",
                 "reject_midpbhplus")
SUMMARY_FIELDS = ("test", "alpha", "m", "procedure", "rejections", "threshold")

_FLAG_COLUMN = {"BH": "reject_bh", "BH+": "reject_bhplus",
                "MidPBH+": "reject_midpbhplus"}


def report_rows(report: AnalysisReport) -> list[dict]:
    """One dict per hypothesis with frozen column names.

    Columns for flavors or procedures that did not run are left empty.
    """
    masks = {name: report.rejected_mask(name) for name in report.procedures}
    rows = []
    for i, rid in enumerate(report.ids):
        row = {
            "id": rid,
            "p_conv": repr(float(report.p_conv[i])) if report.p_conv is not None else "",
            "p_mid": repr(float(report.p_mid[i])) if report.p_mid is not None else "",
        }
        for name, column in _FLAG_COLUMN.items():
            row[column] = int(masks[name][i]) if name in masks else ""
        rows.append(row)
    return rows


def report_summary(report: AnalysisReport) -> dict:
    """JSON-ready summary: counts, level, and per-procedure outcomes."""
    procedures = {}
    for name in report.procedures:
        result = report.results[name]
        procedures[name] = {
            "rejections": result.rejection_count,
            "threshold": result.threshold,
        }
    summary = {
        "schema_version": 1,
        "test": report.test,
        "alpha": report.alpha,
        "m": report.m,
        "procedures": procedures,
    }
    if report.comparison is not None:
        summary["mid_vs_conventional"] = {
            "condition_holds": report.comparison.condition_holds,
            "r_cp": report.comparison.r_cp,
            "r_mp": report.comparison.r_mp,
        }
    return summary
