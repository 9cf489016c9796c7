"""Loading, filtering and analysis of two-group count tables.

Input files are CSV or TSV with header ``id,c1,c2`` (binomial-test data) or
``id,c1,c2,n1,n2`` (Fisher-exact data with per-group trial totals).  A file
loads into one columnar `CountTable`, which an optional application filter
masks and the step-up procedures read column by column; the report helpers
flatten results for CSV and JSON emission.
"""

from __future__ import annotations

import codecs
import csv
import io
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, islice

import numpy as np

from . import pvalue, stepup
from .errors import DataError
from .pvalue import count_column

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

    The constructor takes integer columns with one entry per id, and n1 and
    n2 together, and checks the count range rules once
    (`pvalue.checked_total`, naming a failing row by its id), keeping the
    read-only `total` c1 + c2 it returns.
    """

    ids: tuple[str, ...]
    c1: np.ndarray
    c2: np.ndarray
    n1: np.ndarray | None = None
    n2: np.ndarray | None = None
    total: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        for name in ("c1", "c2", "n1", "n2"):
            if getattr(self, name) is None:
                continue
            column = count_column(name, getattr(self, name)).copy()
            if column.shape != (len(self.ids),):
                raise ValueError(f"column {name} must hold one entry per id")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        total = pvalue.checked_total(self.c1, self.c2, self.n1, self.n2, self.ids)
        total.flags.writeable = False
        object.__setattr__(self, "total", total)

    def __len__(self) -> int:
        return len(self.ids)

    def select(self, mask) -> "CountTable":
        """The rows where the boolean `mask` is true, in their original order:
        read-only slices of the checked columns, not cast or checked again."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self),):
            raise ValueError("mask must be a boolean array with one entry per row")
        kept = object.__new__(CountTable)
        object.__setattr__(kept, "ids", tuple(compress(self.ids, mask.tolist())))
        for name in ("c1", "c2", "n1", "n2", "total"):
            column = getattr(self, name)
            if column is not None:
                column = column[mask]
                column.flags.writeable = False
            object.__setattr__(kept, name, column)
        return kept


_BARE_HEADER = ("id", "c1", "c2")
_TOTALS_HEADER = ("id", "c1", "c2", "n1", "n2")
_LINES = 1024   # body lines split at a time


def _bad_cell(names: tuple[str, ...], row: list[str], where: str) -> DataError:
    """The error for the first count cell of `row` that is not an integer."""
    for column, raw in zip(names[1:], row[1:]):
        text = raw.strip()
        try:
            int(text)
        except ValueError:
            return DataError(f"{where}: column {column!r} is not an integer: {text!r}")
    raise AssertionError("no bad count cell in row")


def _split(lines: list[str], delimiter: str, width: int, ids: list, counts: list) -> bool:
    """Append a block's rows to `ids` and `counts` if it passes `load_counts`'s gate."""
    text = "".join(lines)
    # Each "\n" moves into the next line's first cell: each line holds width - 1
    # delimiters iff there are width cells a line and every "\n" is in an id cell.
    cells = text.removesuffix("\n").replace("\n", delimiter + "\n").split(delimiter)
    block = cells[::width]
    if ('"' in text or "\r" in text or "\0" in text
            or len(text) > (limit := csv.field_size_limit()) and max(map(len, lines)) > limit
            or len(cells) != width * len(lines) or "".join(block).count("\n") != len(lines) - 1
            or not all(block := list(map(str.strip, block)))):
        return False
    del cells[::width]
    try:
        cells = list(map(int, cells))
    except ValueError:
        return False
    ids += block
    counts += cells
    return True


def load_counts(path: str, fmt: str | None = None) -> CountTable:
    """Parse a count table, reporting malformed rows by file and line number.

    fmt is "csv" or "tsv"; None infers from the filename extension
    (".tsv" means tab-delimited, anything else comma-delimited).  The body is
    read `_LINES` lines at a time, and a block with no '"', CR or NUL (which
    Python 3.10's csv.reader refuses), whose lines hold width - 1 delimiters
    and at most `csv.field_size_limit()` characters, is split whole if no id
    is empty and `int()` takes each count: csv.reader splits it alike, as it
    quotes nothing and ends lines at "\n" alone.  From the first other block,
    csv.reader and the row loop read each line; the int64 cast and the
    `CountTable` check the rest, and the first bad line in file order is named.
    """
    if fmt is None:
        fmt = "tsv" if str(path).lower().endswith(".tsv") else "csv"
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"format must be 'csv' or 'tsv', got {fmt!r}")
    delimiter = "\t" if fmt == "tsv" else ","
    with open(path, newline="", encoding="utf-8-sig") as handle:   # a leading BOM is dropped
        try:
            header = next(csv.reader(handle, delimiter=delimiter))
        except StopIteration:
            raise DataError(f"{path}:1: empty file, expected a header row") from None
        names = tuple(cell.strip().lower() for cell in header)
        if names not in (_BARE_HEADER, _TOTALS_HEADER):
            raise DataError(
                f"{path}:1: header must be 'id,c1,c2' or 'id,c1,c2,n1,n2', "
                f"got {','.join(names)!r}")
        width = len(names)
        ids: list[str] = []
        counts: list[int] = []   # row-major, width - 1 cells per row
        skipped: list[int] = []  # per skipped blank line, the rows read before it
        fault = None             # the error of the first malformed line
        lines, rest = [], handle  # the block the gate declines, and the lines after it
        try:   # extend keeps the lines read before a decoding error
            while (lines.extend(islice(handle, _LINES)) or lines) and _split(
                    lines, delimiter, width, ids, counts):
                lines = []
        except UnicodeDecodeError as error:   # the row loop meets it where csv.reader did
            rest = map(codecs.strict_errors, [error])   # which raises it
        reader = csv.reader(chain(lines, rest), delimiter=delimiter)
        try:
            for lineno, row in enumerate(reader, start=2 + len(ids)):
                if len(row) != width:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        skipped.append(len(ids))
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
                ids.append(rid)
                counts.extend(cells)
        except (DataError, csv.Error) as error:
            fault = error

    def line(k: int) -> int:   # of row k: past the header and the blank lines before it
        return k + 2 + bisect_right(skipped, k)

    try:
        columns = np.array(counts, dtype=np.int64)
    except OverflowError:   # a cell past int64 comes before any fault found so far
        j = next(j for j, cell in enumerate(counts) if not -2**63 <= cell < 2**63)
        k, c = divmod(j, width - 1)
        fault = DataError(f"{path}:{line(k)}: column {names[c + 1]!r} must hold "
                          f"integers of magnitude below 2**63, got {counts[j]}")
        del ids[k:], counts[k * (width - 1):]
        columns = np.array(counts, dtype=np.int64)
    try:   # the rows before the first malformed line, whose errors come first
        table = CountTable(tuple(ids), *columns.reshape(len(ids), width - 1).T)
    except ValueError as error:
        raise DataError(f"{path}:{line(error.row)}: {error.rule}") from None
    if fault is not None:
        raise fault
    return table


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
    ("bt" or "fet"), built in one pass from its checked columns.

    The one place that checks `test` and rejects an empty table and
    Fisher-exact input without trial totals.
    """
    if test not in ("bt", "fet"):
        raise ValueError(f"test must be 'bt' or 'fet', got {test!r}")
    if not len(table):
        raise DataError("no hypotheses to test")
    if test == "bt":
        return pvalue._tables(table.c1, table.total)
    if table.n1 is None:
        raise DataError("Fisher-exact analysis needs trial totals (columns n1, n2)")
    return pvalue._tables(table.c1, table.total, table.n1, table.n2)


def analyze(table: CountTable, test: str, alpha: float,
            procedures: tuple[str, ...] = stepup.PROCEDURES) -> AnalysisReport:
    """Compute exact p-values and run the step-up procedures.

    All three run, through `stepup.run_procedures`, so every call checks both
    of its invariants; `procedures` selects what the report holds, with the
    p-values of each flavor they read (`stepup.PROCEDURE_FLAVORS`).  When both
    "BH+" and "MidPBH+" are requested, the report also carries the
    rejection-count comparison between the two runs.
    """
    if not procedures:
        raise ValueError("at least one procedure is required")
    bad = [name for name in procedures if name not in stepup.PROCEDURES]
    if bad:
        raise ValueError(f"unknown procedure {bad[0]!r}")
    procedures = tuple(name for name in stepup.PROCEDURES if name in procedures)

    conv, mid = pvalue_tables(table, test)
    results, comparison = stepup.run_procedures(conv, mid, (alpha,)).results(conv, mid)
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
_BLOCK_ROWS = 2**10   # details lines formatted and written at a time
_BLANK = np.array([""])          # the values of a column that did not run
_FLAGS = np.array(["0", "1"])    # the values of a reject_* column


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


def _tails(keys, columns) -> list[str]:
    """The lines' tails after the id cell, one per row key in `keys`.  A cell
    is its column's value under "%s", which for a float is its repr; no
    p-value repr or flag holds a character csv.writer would quote."""
    cells = []
    for values in reversed(columns):
        keys, codes = np.divmod(keys, len(values))
        cells.append(values[codes].tolist())
    template = ",%s" * len(columns) + "\n"
    return [template % row for row in zip(*reversed(cells))]


def report_rows(report: AnalysisReport, out: io.TextIOBase) -> None:
    """Write the details CSV's data lines to the text handle `out`: one
    "\n"-terminated line per hypothesis, its cells in `DETAIL_FIELDS` order,
    as csv.writer(lineterminator="\n") writes them.

    Columns for flavors or procedures that did not run are left empty.  Each
    other column is a few distinct values and one code per row: the p-values'
    distinct floats, or "0" and "1" for a rejection flag.  A code tuple that
    several rows share is formatted once, as the lines' tail after the id
    cell; one that a single row holds is formatted with the block of
    `_BLOCK_ROWS` rows that holds it, so nothing but a few 8-byte columns
    grows with m.
    """
    # A row's key is its code tuple in mixed radix: every code is below m, so
    # a key is below 8 m**2, which fits int64 for every m below 2**30; a table
    # that large would hold 2**30 id strings, over 50 GB by themselves.
    columns = []   # the distinct values of each non-id column
    key = np.zeros(report.m, dtype=np.int64)
    for p in (report.p_conv, report.p_mid):
        if p is None:
            values, codes = _BLANK, 0
        else:
            # Unique on the bits, not the floats, so 0.0 and -0.0 keep their reprs.
            bits, codes = np.unique(np.asarray(p, dtype=np.float64).view(np.int64),
                                    return_inverse=True)
            values = bits.view(np.float64)
        columns.append(values)
        key = key * len(values) + codes
    for name in stepup.PROCEDURES:   # the order of the reject_* fields
        values, codes = ((_FLAGS, report.rejected_mask(name))
                         if name in report.procedures else (_BLANK, 0))
        columns.append(values)
        key = key * len(values) + codes
    keys, row_key, counts = np.unique(key, return_inverse=True, return_counts=True)
    tails = np.empty(len(keys), dtype=object)
    shared = counts > 1
    tails[shared] = _tails(keys[shared], columns)
    for start in range(0, report.m, _BLOCK_ROWS):
        block = row_key[start:start + _BLOCK_ROWS]
        lines = tails[block]
        once = ~shared[block]
        lines[once] = _tails(keys[block[once]], columns)
        out.write("".join(chain.from_iterable(
            zip(_id_cells(report.ids[start:start + _BLOCK_ROWS]), lines.tolist()))))


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
