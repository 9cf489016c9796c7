"""Loading, filtering and analysis of two-group count tables.

Input files are CSV or TSV with header ``id,c1,c2`` (binomial-test data) or
``id,c1,c2,n1,n2`` (Fisher-exact data with per-group trial totals).  A file
loads into one columnar `CountTable`, which an optional application filter
masks and the step-up procedures read column by column; the report helpers
flatten results for CSV and JSON emission.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import pvalue, stepup
from .errors import DataError
from .pvalue import count_column, count_total

__all__ = [
    "CountTable",
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
]


@dataclass(frozen=True, eq=False)
class CountTable:
    """m hypotheses in columns: ids, count pairs and optional trial totals.

    The constructor checks structure only: integer columns with one entry
    per id, and n1 and n2 given together.  Count ranges are checked by
    `load_counts` for file input and by `pvalue.pvalue_table` for tables
    built by hand.
    """

    ids: tuple[str, ...]
    c1: np.ndarray
    c2: np.ndarray
    n1: np.ndarray | None = None
    n2: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        if (self.n1 is None) != (self.n2 is None):
            raise ValueError("trial totals n1 and n2 must be given together")
        for name in ("c1", "c2", "n1", "n2"):
            if getattr(self, name) is None:
                continue
            column = count_column(name, getattr(self, name)).copy()
            if column.shape != (len(self.ids),):
                raise ValueError(f"column {name} must hold one entry per id")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def total(self) -> np.ndarray:
        """c1 + c2, or a ValueError naming a row where it reaches 2**63."""
        return count_total(self.c1, self.c2, self.ids)

    def select(self, mask) -> "CountTable":
        """The rows where the boolean `mask` is true, in their original order."""
        mask = np.asarray(mask, dtype=bool)
        columns = [None if col is None else col[mask]
                   for col in (self.c1, self.c2, self.n1, self.n2)]
        return CountTable(tuple(compress(self.ids, mask.tolist())), *columns)


_BARE_HEADER = ("id", "c1", "c2")
_TOTALS_HEADER = ("id", "c1", "c2", "n1", "n2")


def _bad_cell(names: tuple[str, ...], row: list[str], where: str) -> DataError:
    """The error for the first count cell of `row` that is not an integer >= 0."""
    for column, raw in zip(names[1:], row[1:]):
        text = raw.strip()
        try:
            value = int(text)
        except ValueError:
            return DataError(f"{where}: column {column!r} is not an integer: {text!r}")
        if value < 0:
            return DataError(f"{where}: column {column!r} must be >= 0, got {value}")
    raise AssertionError("no bad count cell in row")


def load_counts(path: str, fmt: str | None = None) -> CountTable:
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
        if names not in (_BARE_HEADER, _TOTALS_HEADER):
            raise DataError(
                f"{path}:1: header must be 'id,c1,c2' or 'id,c1,c2,n1,n2', "
                f"got {','.join(names)!r}")
        width, with_totals = len(names), names == _TOTALS_HEADER
        ids: list[str] = []
        counts: list[int] = []   # row-major, width - 1 cells per row
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise DataError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            rid = row[0].strip()
            if not rid:
                raise DataError(f"{path}:{lineno}: empty id")
            try:
                cells = [int(cell) for cell in row[1:]]
            except ValueError:
                raise _bad_cell(names, row, f"{path}:{lineno}") from None
            if min(cells) < 0:
                raise _bad_cell(names, row, f"{path}:{lineno}")
            if cells[0] + cells[1] >= 2**63 or with_totals and max(cells) >= 2**63:
                raise DataError(
                    f"{path}:{lineno}: counts and c1 + c2 must be below 2**63")
            if with_totals and (cells[0] > cells[2] or cells[1] > cells[3]):
                raise DataError(f"{path}:{lineno}: count exceeds its trial total")
            ids.append(rid)
            counts.extend(cells)
    columns = np.array(counts, dtype=np.int64).reshape(len(ids), width - 1).T
    return CountTable(tuple(ids), *columns)


def filter_methylation(table: CountTable) -> np.ndarray:
    """Mask of the rows with total count above 10 and both counts at most 25."""
    return (table.total > 10) & (table.c1 <= 25) & (table.c2 <= 25)


def filter_hiv(table: CountTable) -> np.ndarray:
    """Mask of the rows whose total count is at least 5."""
    return table.total >= 5


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


def pvalue_tables(table: CountTable,
                  test: str) -> tuple[pvalue.PValueTable, pvalue.PValueTable]:
    """The conventional and mid p-value tables of `table` under `test`
    ("bt" or "fet"), built in one pass.

    The one place that rejects an empty table and Fisher-exact input
    without trial totals.
    """
    if not len(table):
        raise DataError("no hypotheses to test")
    if test == "bt":
        return pvalue.pvalue_table(table.c1, table.c2)
    if table.n1 is None:
        raise DataError("Fisher-exact analysis needs trial totals (columns n1, n2)")
    return pvalue.pvalue_table(table.c1, table.c2, table.n1, table.n2)


def analyze(table: CountTable, test: str, alpha: float,
            procedures: tuple[str, ...] = stepup.PROCEDURES) -> AnalysisReport:
    """Compute exact p-values and run the step-up procedures.

    All three run, through `stepup.run_procedures`, so every call checks both
    of its invariants; `procedures` selects what the report holds, with the
    p-values of each flavor they read (`stepup.PROCEDURE_FLAVORS`).  When both
    "BH+" and "MidPBH+" are requested, the report also carries the
    rejection-count comparison between the two runs.
    """
    if test not in ("bt", "fet"):
        raise ValueError(f"test must be 'bt' or 'fet', got {test!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not procedures:
        raise ValueError("at least one procedure is required")
    bad = [name for name in procedures if name not in stepup.PROCEDURES]
    if bad:
        raise ValueError(f"unknown procedure {bad[0]!r}")
    procedures = tuple(name for name in stepup.PROCEDURES if name in procedures)

    conv, mid = pvalue_tables(table, test)
    results, comparison = stepup.run_procedures(conv, mid, alpha)
    read = {stepup.PROCEDURE_FLAVORS[name] for name in procedures}
    return AnalysisReport(
        test=test, alpha=alpha, procedures=procedures, ids=table.ids,
        p_conv=conv.p if pvalue.PValueFlavor.CONVENTIONAL in read else None,
        p_mid=mid.p if pvalue.PValueFlavor.MID in read else None,
        results={name: results[name] for name in procedures},
        comparison=comparison if {"BH+", "MidPBH+"} <= set(procedures) else None)


DETAIL_FIELDS = ("id", "p_conv", "p_mid", "reject_bh", "reject_bhplus",
                 "reject_midpbhplus")
SUMMARY_FIELDS = ("test", "alpha", "m", "procedure", "rejections", "threshold")


_QUOTED = (",", '"', "\r", "\n")   # characters csv.writer may quote


def _plain(rid) -> bool:
    """Whether `rid` is a str holding none of `_QUOTED`, which csv.writer
    writes as it is."""
    return type(rid) is str and not any(map(rid.__contains__, _QUOTED))


def _id_cells(ids) -> list[str]:
    """Each id as csv.writer writes it in the first cell of a row.

    A plain id is written as it is.  Every other id goes through csv.writer
    itself, as the row (id, ""), whose trailing ",\n" is cut off, so
    csv.writer stays the one quoting rule on any Python version.
    """
    cells = list(ids)
    if set(map(type, cells)) <= {str} and _plain("".join(cells)):
        return cells
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for i, rid in enumerate(cells):
        if not _plain(rid):
            buffer.seek(0)
            buffer.truncate()
            writer.writerow((rid, ""))
            cells[i] = buffer.getvalue()[:-2]
    return cells


def report_rows(report: AnalysisReport) -> list[str]:
    """The details CSV's data lines: one "\n"-terminated line per hypothesis,
    its cells in `DETAIL_FIELDS` order, as csv.writer(lineterminator="\n")
    writes them.

    Columns for flavors or procedures that did not run are left empty.  Each
    other column is a few distinct texts and one code per row: the p-values'
    distinct floats, or "0" and "1" for a rejection flag.  The rows' distinct
    code tuples are formatted once, as the lines' tails after the id cell.
    """
    columns = []   # (texts, codes) per non-id column
    for p in (report.p_conv, report.p_mid):
        if p is None:
            columns.append((("",), 0))
            continue
        # Unique on the bits, not the floats, so 0.0 and -0.0 keep their reprs.
        bits, codes = np.unique(np.asarray(p, dtype=np.float64).view(np.int64),
                                return_inverse=True)
        columns.append((list(map(repr, bits.view(np.float64).tolist())), codes))
    for name in stepup.PROCEDURES:   # the order of the reject_* fields
        columns.append((("0", "1"), report.rejected_mask(name))
                       if name in report.procedures else (("",), 0))
    # Mixed radix: every code is below m, so a key is below 8 m**2, which
    # fits int64 for every m below 2**30; a table that large would hold
    # 2**30 id strings, over 50 GB by themselves.
    key = np.zeros(report.m, dtype=np.int64)
    for texts, codes in columns:
        key = key * len(texts) + codes
    keys, row_key = np.unique(key, return_inverse=True)
    cells = []
    for texts, _ in reversed(columns):
        keys, codes = np.divmod(keys, len(texts))
        cells.append(map(texts.__getitem__, codes.tolist()))
    # No p-value repr or flag holds a character csv.writer would quote.
    tails = [",".join(("", *row)) + "\n" for row in zip(*reversed(cells))]
    return [cell + tails[k] for cell, k in zip(_id_cells(report.ids), row_key.tolist())]


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
