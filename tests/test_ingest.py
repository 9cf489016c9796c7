"""Tests for count-table loading, application filters, and analysis reports."""

import csv
import io
import os
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_oracle import exact_pvalues
from stepfdr import ingest, stepup
from stepfdr.dist import binomial_null, hypergeometric_null
from stepfdr.errors import DataError
from stepfdr.ingest import (
    CountTable,
    analyze,
    filter_hiv,
    filter_methylation,
    load_counts,
    report_rows,
    report_summary,
)
from stepfdr.pvalue import pvalue_table


def table(*rows):
    """A CountTable of (id, c1, c2) or (id, c1, c2, n1, n2) rows."""
    ids, *columns = zip(*rows)
    return CountTable(ids, *columns)


def rows_of(counts):
    """The rows of a CountTable as tuples, for comparison with `table`'s input."""
    columns = [c.tolist() for c in (counts.c1, counts.c2, counts.n1, counts.n2)
               if c is not None]
    return list(zip(counts.ids, *columns))


def parse_lines(lines):
    """The cells of each details line, as csv.reader reads them."""
    return list(csv.reader(io.StringIO("".join(lines))))


def details_text(report):
    """The data lines `report_rows` writes for `report`, as one str."""
    buffer = io.StringIO()
    report_rows(report, buffer)
    return buffer.getvalue()


def old_layout(report):
    """One tuple of cells per hypothesis, in `DETAIL_FIELDS` order: the
    layout csv.writer was given before `report_rows` formatted lines."""
    blank = ("",) * report.m
    columns = [report.ids]
    for p in (report.p_conv, report.p_mid):
        columns.append(blank if p is None else [repr(float(x)) for x in p])
    for name in stepup.PROCEDURES:
        columns.append(report.rejected_mask(name).astype(int).tolist()
                       if name in report.procedures else blank)
    return list(zip(*columns))


def writer_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


# Ids that need quoting, or nearly do: separators, quotes, both line ends,
# spaces and non-ASCII text.
ID_TEXT = st.text(alphabet=st.sampled_from(',"\r\n \tab\'é日'), max_size=5)

# (c1, c2) count pairs: the fixed ones recur across rows, so their code
# tuples are shared; drawn ones mostly occur once.
SHARED_OR_NOT = (st.sampled_from(((3, 3), (9, 0), (0, 4)))
                 | st.tuples(st.integers(0, 30), st.integers(0, 30)))
PROCEDURE_SETS = [names for k in range(1, len(stepup.PROCEDURES) + 1)
                  for names in combinations(stepup.PROCEDURES, k)]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCounts:
    def test_csv_roundtrip(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2\nx,3,0\ny,0,7\n")
        assert rows_of(load_counts(path)) == [("x", 3, 0), ("y", 0, 7)]

    def test_tsv_inferred_from_extension(self, tmp_path):
        path = write(tmp_path, "a.tsv", "id\tc1\tc2\tn1\tn2\nx\t3\t0\t5\t5\n")
        assert rows_of(load_counts(path)) == [("x", 3, 0, 5, 5)]

    def test_explicit_fmt_overrides_extension(self, tmp_path):
        path = write(tmp_path, "a.txt", "id\tc1\tc2\nx\t1\t2\n")
        assert rows_of(load_counts(path, fmt="tsv")) == [("x", 1, 2)]

    def test_bad_fmt_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2\n")
        with pytest.raises(ValueError):
            load_counts(path, fmt="xlsx")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2\nx,1,2\n\n  \ny,3,4\n")
        assert load_counts(path).ids == ("x", "y")

    def test_header_case_and_spacing_normalized(self, tmp_path):
        path = write(tmp_path, "a.csv", " ID , C1 , C2 \nx,1,2\n")
        assert rows_of(load_counts(path)) == [("x", 1, 2)]

    @pytest.mark.parametrize("name, text", [("a.csv", "id,c1,c2\nx,1,2\n"),
                                            ("a.tsv", "id\tc1\tc2\nx\t1\t2\n")],
                             ids=["csv", "tsv"])
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, name, text):
        """Excel's "CSV UTF-8" starts the file with U+FEFF, which is no part
        of the header; a byte that is not UTF-8 still fails as the codec's."""
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert rows_of(load_counts(str(path))) == [("x", 1, 2)]
        path.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"y\xe9" + text[-5:].encode())
        with pytest.raises(UnicodeDecodeError, match="^'utf-8' codec can't decode byte 0xe9"):
            load_counts(str(path))

    def test_bad_header_lists_location(self, tmp_path):
        path = write(tmp_path, "a.csv", "name,a,b\nx,1,2\n")
        with pytest.raises(DataError, match=r"a\.csv:1"):
            load_counts(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "")
        with pytest.raises(DataError, match=r"a\.csv:1"):
            load_counts(path)

    def test_noninteger_count_reports_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2\nx,1,2\ny,one,2\n")
        with pytest.raises(DataError, match=r"a\.csv:3.*c1"):
            load_counts(path)

    def test_negative_count_reports_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2\nx,-1,2\n")
        with pytest.raises(DataError, match=r"a\.csv:2"):
            load_counts(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2\nx,1\n")
        with pytest.raises(DataError, match=r"a\.csv:2.*fields"):
            load_counts(path)

    def test_empty_id_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2\n ,1,2\n")
        with pytest.raises(DataError, match="empty id"):
            load_counts(path)

    @pytest.mark.parametrize("body", [
        "id,c1,c2\ny,1,2\nx,99999999999999999999,3\n",
        "id,c1,c2\ny,1,2\nx,4611686018427387904,4611686018427387904\n",
        "id,c1,c2,n1,n2\ny,1,2,3,4\nx,1,2,9223372036854775808,5\n",
    ], ids=["cell-past-int64", "total-past-int64", "trial-total-past-int64"])
    def test_count_or_total_past_int64_reports_line(self, tmp_path, body):
        """Such a row once crashed the int64 cast with an OverflowError, or
        wrapped c1 + c2 to a negative total."""
        path = write(tmp_path, "a.csv", body)
        with pytest.raises(DataError, match=r"a\.csv:3: .*below 2\*\*63"):
            load_counts(path)

    @pytest.mark.parametrize("body, message", [
        ("id,c1,c2\nx,-1,2\ny,one,2\n", "2: column 'c1' must hold counts >= 0, got -1"),
        ("id,c1,c2,n1,n2\nx,6,0,5,5\ny,1,2,9223372036854775808,5\n",
         "2: count exceeds its trial total"),
        ("id,c1,c2\nx,one,2\ny,-1,2\n", "2: column 'c1' is not an integer: 'one'"),
        ("id,c1,c2\n\nx,1,2\n \ny,1,-2\nz,one,2\n",
         "5: column 'c2' must hold counts >= 0, got -2"),
        ("id,c1,c2\nx,99999999999999999999,2\ny,-1,2\n",
         "2: column 'c1' must hold integers of magnitude below 2**63, got 99999999999999999999"),
        ("id,c1,c2\nx,1,2\n\ny,1,-99999999999999999999\nz,one,2\n",
         "4: column 'c2' must hold integers of magnitude below 2**63, "
         "got -99999999999999999999"),
    ], ids=["range-then-cell", "range-then-int64", "cell-then-range", "after-blank-lines",
            "int64-then-range", "int64-then-cell"])
    def test_first_bad_line_in_file_order_is_reported(self, tmp_path, body, message):
        """The range rules run on the columns once the file is read, yet the
        first bad line is the one reported, under its own line number."""
        path = write(tmp_path, "a.csv", body)
        with pytest.raises(DataError) as error:
            load_counts(path)
        assert str(error.value) == f"{path}:{message}"

    def test_count_above_total_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,c1,c2,n1,n2\nx,6,0,5,5\n")
        with pytest.raises(DataError, match=r"a\.csv:2"):
            load_counts(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_counts(str(tmp_path / "nope.csv"))


class TestCountTable:
    def test_totals_must_pair(self):
        with pytest.raises(ValueError, match="together"):
            CountTable(("x",), [1], [2], n1=[5])

    def test_columns_must_match_ids(self):
        with pytest.raises(ValueError, match="one entry per id"):
            CountTable(("x", "y"), [1, 2], [3])

    def test_negative_counts_rejected(self):
        # The constructor checks the count range rules, once.
        with pytest.raises(ValueError, match=">= 0"):
            ingest.pvalue_tables(table(("x", -1, 2)), "bt")

    @pytest.mark.parametrize("rows, message", [
        ((("a", 1, 2), ("b", 3, -4)), "row 'b': column 'c2' must hold counts >= 0, got -4"),
        ((("a", 1, 2, 3, 3), ("b", 1, 2, -3, 3)),
         "row 'b': column 'n1' must hold counts >= 0, got -3"),
        ((("a", 1, 2), ("b", 2**62, 2**62)),
         "row 'b': total c1 + c2 must be below 2**63, got 9223372036854775808"),
        ((("a", 1, 2, 3, 3), ("b", 1, 4, 3, 3)), "row 'b': count exceeds its trial total"),
    ], ids=["negative-count", "negative-trial-total", "wrapping-total", "above-trial-total"])
    def test_bad_counts_are_refused_when_built(self, rows, message):
        """Once, such a table was built, and its counts were refused only when
        a filter read `total` or the p-value tables were made."""
        with pytest.raises(ValueError) as error:
            table(*rows)
        assert str(error.value) == message

    def test_total_property(self):
        assert table(("x", 3, 4)).total.tolist() == [7]
        counts = table(("x", 3, 4), ("y", 2, 0), ("z", 9, 1))
        assert counts.select(np.array([True, False, True])).total.tolist() == [7, 10]

    def test_columns_are_read_only(self):
        counts = table(("x", 3, 4, 5, 5))
        for column in (counts.c1, counts.c2, counts.n1, counts.n2):
            with pytest.raises(ValueError):
                column[0] = 0


RANGE_RULES = {"negative": "must hold counts >= 0",
               "wrapping": "total c1 + c2 must be below 2**63",
               "above-trial-total": "count exceeds its trial total"}
COUNT = st.integers(0, 2**62 - 1)   # two of them never wrap


@st.composite
def one_bad_row(draw):
    """Columns c1, c2 and, or not, n1, n2 of int64 rows, row k of which
    breaks the range rule `kind` (and later rows may break any rule), as
    (rows, k, kind)."""
    with_totals = draw(st.booleans())
    kinds = list(RANGE_RULES)[:3 if with_totals else 2]

    def row(kind=None):
        c1, c2 = draw(COUNT), draw(COUNT)
        if kind == "wrapping":
            c1 = draw(st.integers(1, 2**63 - 1))
            c2 = draw(st.integers(2**63 - c1, 2**63 - 1))
        cells = [c1, c2]
        if with_totals:
            cells += [draw(st.integers(c, 2**63 - 1)) for c in cells]
        if kind == "negative":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.integers(-2**63 + 1, -1))
        if kind == "above-trial-total":
            j = draw(st.integers(0, 1))
            cells[j] = max(cells[j], 1)
            cells[j + 2] = draw(st.integers(0, cells[j] - 1))
        return cells

    m = draw(st.integers(1, 6))
    k = draw(st.integers(0, m - 1))
    kind = draw(st.sampled_from(kinds))
    rows = [row() for _ in range(k)] + [row(kind)]
    rows += [row(draw(st.sampled_from([None, *kinds]))) for _ in range(k + 1, m)]
    return rows, k, kind


@settings(max_examples=60, deadline=None)
@given(case=one_bad_row())
def test_a_bad_row_is_named_alike_by_every_entry(tmp_path_factory, case):
    """A file, a hand-built table and the p-value tables name the first bad
    row, each in its own terms (line, id, index), with one rule text."""
    rows, k, kind = case
    path = tmp_path_factory.getbasetemp() / "one_bad_row.csv"
    header = "id,c1,c2,n1,n2" if len(rows[0]) == 4 else "id,c1,c2"
    path.write_text("\n".join([header] + [",".join(map(str, (f"r{i}", *cells)))
                                          for i, cells in enumerate(rows)]) + "\n")
    errors = []
    for build in (lambda: load_counts(str(path)),
                  lambda: CountTable([f"r{i}" for i in range(len(rows))], *zip(*rows)),
                  lambda: pvalue_table(*zip(*rows))):
        with pytest.raises(ValueError) as error:
            build()
        errors.append(str(error.value))
    rule = errors[2].removeprefix(f"row {k}: ")
    assert RANGE_RULES[kind] in rule
    assert errors == [f"{path}:{k + 2}: {rule}", f"row 'r{k}': {rule}", f"row {k}: {rule}"]


def loaded(path, fmt=None):
    """What `load_counts` gives: the table's ids and column bytes, or the
    class and text of the error it raises."""
    try:
        counts = load_counts(path, fmt)
    except (DataError, csv.Error, UnicodeDecodeError) as error:
        return type(error).__name__, str(error)
    return counts.ids, [None if column is None else column.tobytes() for column in
                        (counts.c1, counts.c2, counts.n1, counts.n2, counts.total)]


def loaded_by_the_row_loop(path, fmt=None):
    """What `load_counts` gives with every block declined by the gate."""
    with mock.patch.object(ingest, "_split", return_value=False):
        return loaded(path, fmt)


ODD_IDS = ('"q"', '"a,b"', '"a\tb"', 'q"t', "", "  ", " x ", "a b", "a,b", "a\tb", "n\x00l",
           "v\x0bt", "u\u2028s", "L" * 20)
ODD_COUNTS = ("+5", "1_0", " 7 ", "\t7", "\u0663", "\uff17", "-1", "one", "", '"3"', "3\x00",
              str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1), "9" * 25)
ODD_ENDINGS = ("\r\n", "\r", "")   # "" joins the row to the next line


@st.composite
def count_file(draw):
    """(text, fmt) of a small count file: plain rows, then up to three odd
    edits, each an id, a count, a line ending, an inserted blank,
    whitespace-only, short or long line, or a missing final newline."""
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    width = draw(st.sampled_from([3, 5]))
    rows = [["id", "c1", "c2", "n1", "n2"][:width] + ["\n"]]   # cells, then the ending
    for i in range(draw(st.integers(0, 8))):
        counts = [draw(st.integers(0, 20)) for _ in range(2)]
        counts += [draw(st.integers(20, 40)) for _ in range(width - 3)]
        rows.append([f"r{i}", *map(str, counts), "\n"])
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, len(rows)))
        edit = draw(st.sampled_from(["id", "count", "ending", "line", "end"]
                                    if k < len(rows) else ["line"]))
        if edit == "id":
            rows[k][0] = draw(st.sampled_from(ODD_IDS))
        elif edit == "count" and len(rows[k]) > 2:
            rows[k][draw(st.integers(1, len(rows[k]) - 2))] = draw(st.sampled_from(ODD_COUNTS))
        elif edit == "ending":
            rows[k][-1] = draw(st.sampled_from(ODD_ENDINGS))
        elif edit == "line":   # numeric cells, so a short and a long line may realign
            cells = draw(st.sampled_from([[""], ["  "], ["7"] + ["1"] * (width - 2),
                                          ["7"] + ["1"] * width]))
            rows.insert(k, cells + ["\n"])
        elif edit == "end":
            rows[-1][-1] = rows[-1][-1].removesuffix("\n")
    delimiter = "," if fmt == "csv" else "\t"
    return "".join(delimiter.join(row[:-1]) + row[-1] for row in rows), fmt


@settings(max_examples=300, deadline=None, database=None)
@given(case=count_file(), block=st.sampled_from([1, 2, 3, 4096]),
       limit=st.sampled_from([None, 10, 16]))
@example(case=('id,c1,c2\n"q",1,2\n', "csv"), block=4096, limit=None)
@example(case=("id,c1,c2\n7,1\n7,1,1,1\n", "csv"), block=4096, limit=None)   # realigned
@example(case=("id\tc1\tc2\n" + "L" * 20 + "\t1\t2\n", "tsv"), block=4096, limit=16)
def test_the_gate_loads_what_the_row_loop_loads(tmp_path_factory, case, block, limit):
    """Blocks split whole give the table, or the error, that the row loop
    alone gives: csv and tsv, odd ids and counts, CR endings, blank and
    short lines, a missing final newline, counts at and past 2**63, fields
    past a lowered field size limit, and faults on either side of a seam."""
    text, fmt = case
    path = tmp_path_factory.getbasetemp() / "gate.txt"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    old_limit = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        with mock.patch.object(ingest, "_LINES", block):
            assert loaded(path, fmt) == loaded_by_the_row_loop(path, fmt)
    finally:
        csv.field_size_limit(old_limit)


def reader_spy(monkeypatch):
    """The lines csv.reader reads in `load_counts` from now on, as a list."""
    seen, reader = [], csv.reader

    def spy(lines, **kwargs):
        return reader(map(lambda line: seen.append(line) or line, lines), **kwargs)

    monkeypatch.setattr(ingest.csv, "reader", spy)
    return seen


def test_a_block_with_nul_is_read_by_csv_reader(tmp_path, monkeypatch):
    """NUL stays csv.reader's to judge: Python 3.10's refuses it (exit 2),
    later ones read it as a character."""
    path = write(tmp_path, "a.csv", "id,c1,c2\na,1,2\nb\x00,3,4\nc,5,6\n")
    expected = loaded_by_the_row_loop(path)
    seen = reader_spy(monkeypatch)
    monkeypatch.setattr(ingest, "_LINES", 1)
    assert loaded(path) == expected
    assert seen == ["id,c1,c2\n", "b\x00,3,4\n", "c,5,6\n"]


def test_plain_blocks_skip_csv_reader(tmp_path, monkeypatch):
    path = write(tmp_path, "a.tsv", "id\tc1\tc2\tn1\tn2\n" + "x \t+1\t 2\t3_0\t4\n" * 5)
    seen = reader_spy(monkeypatch)
    monkeypatch.setattr(ingest, "_LINES", 2)
    assert rows_of(load_counts(path)) == [("x", 1, 2, 30, 4)] * 5
    assert seen == ["id\tc1\tc2\tn1\tn2\n"]


@pytest.mark.parametrize("first", ["x,one,2\n", "x,1,2\n"], ids=["fault-first", "plain"])
def test_a_decoding_error_comes_where_the_row_loop_meets_it(tmp_path, monkeypatch, first):
    """A byte that is not UTF-8 in the block after a malformed row does not
    hide that row's error, and one after plain rows is raised as before."""
    monkeypatch.setattr(ingest, "_LINES", 4096)   # one block, read past 8 KB chunks
    path = tmp_path / "a.csv"
    path.write_bytes(b"id,c1,c2\n" + first.encode() + b"y,1,2\n" * 3000 + b"z\xe9,1,2\n")
    assert loaded(path) == loaded_by_the_row_loop(path)
    assert loaded(path)[0] == ("DataError" if first == "x,one,2\n" else "UnicodeDecodeError")


class TestFilters:
    def test_methylation_boundaries(self):
        kept = ("k", 11, 0)
        at_cap = ("c", 25, 1)
        low_total = ("l", 5, 5)
        over_cap = ("o", 26, 0)
        counts = table(kept, at_cap, low_total, over_cap)
        out = counts.select(filter_methylation(counts))
        assert rows_of(out) == [kept, at_cap]

    def test_hiv_boundaries(self):
        drop = ("d", 2, 2, 73, 73)
        keep = ("k", 2, 3, 73, 73)
        counts = table(drop, keep)
        assert rows_of(counts.select(filter_hiv(counts))) == [keep]

    @pytest.mark.parametrize("mask", [[0, 1], [1, 1], np.array([1.0, 0.0]), [True],
                                      [[True, False]]],
                             ids=["indices", "ones", "floats", "short", "2-d"])
    def test_select_takes_only_a_boolean_mask_per_row(self, mask):
        """The indices [0, 1] were once cast to the mask [False, True]."""
        counts = table(("a", 1, 3), ("b", 2, 4))
        with pytest.raises(ValueError, match="boolean array with one entry per row"):
            counts.select(mask)
        assert rows_of(counts.select([True, False])) == [("a", 1, 3)]

    def test_filters_preserve_order_and_are_idempotent(self):
        counts = table(*[(f"r{i}", 10 + i, 3) for i in range(5)])
        once = counts.select(filter_methylation(counts))
        assert rows_of(once.select(filter_methylation(once))) == rows_of(once)
        assert list(once.ids) == sorted(once.ids)

    @pytest.mark.parametrize("row", [("big", 2**62, 2**62), ("big", 2**63 - 1, 1),
                                     ("big", 1, 2**63 - 1)])
    @pytest.mark.parametrize("keep", [filter_hiv, filter_methylation])
    def test_total_past_int64_is_named_not_dropped(self, keep, row):
        """A hand-built row whose c1 + c2 wraps in int64 once read as a
        negative total, so both filters silently dropped it; the table now
        refuses it when it is built."""
        with pytest.raises(ValueError,
                           match=r"row 'big': total c1 \+ c2 must be below 2\*\*63, "
                                 r"got 9223372036854775808"):
            keep(table(("small", 3, 4), row, ("after", 30, 1)))
        edge = table(("edge", 2**62, 2**62 - 1))   # 2**63 - 1 still fits
        assert edge.total.tolist() == [2**63 - 1]


class TestAnalyze:
    def records_bt(self):
        return table(("a", 14, 0), ("b", 6, 5), ("c", 0, 12), ("d", 4, 4))

    def records_fet(self):
        return table(("a", 9, 0, 10, 10), ("b", 4, 5, 10, 10),
                     ("c", 1, 10, 12, 12))

    def test_bt_pvalues_match_direct_computation(self):
        records = self.records_bt()
        report = analyze(records, "bt", 0.05)
        for i, (_, c1, c2) in enumerate(rows_of(records)):
            conv, mid = exact_pvalues(binomial_null(c1 + c2))[c1]
            assert report.p_conv[i] == float(conv)
            assert report.p_mid[i] == float(mid)

    def test_fet_pvalues_match_direct_computation(self):
        records = self.records_fet()
        report = analyze(records, "fet", 0.05)
        for i, (_, c1, c2, n1, n2) in enumerate(rows_of(records)):
            conv, mid = exact_pvalues(hypergeometric_null(n1, n2, c1 + c2))[c1]
            assert report.p_conv[i] == float(conv)
            assert report.p_mid[i] == float(mid)

    def test_rejected_mask_matches_results(self):
        report = analyze(self.records_bt(), "bt", 0.1)
        for name in report.procedures:
            mask = report.rejected_mask(name)
            assert mask.sum() == report.results[name].rejection_count
            assert np.array_equal(np.flatnonzero(mask),
                                  np.sort(report.results[name].rejected))

    def test_comparison_present_only_with_both_adaptive_runs(self):
        records = self.records_bt()
        full = analyze(records, "bt", 0.05)
        assert full.comparison is not None
        assert full.comparison.r_mp == full.results["MidPBH+"].rejection_count
        conv_only = analyze(records, "bt", 0.05, procedures=("BH", "BH+"))
        assert conv_only.comparison is None
        assert "MidPBH+" not in conv_only.results
        assert conv_only.p_mid is None
        mid_only = analyze(records, "bt", 0.05, procedures=("MidPBH+",))
        assert mid_only.comparison is None
        assert mid_only.p_conv is None
        assert set(mid_only.results) == {"MidPBH+"}

    def test_procedure_order_canonicalized(self):
        report = analyze(self.records_bt(), "bt", 0.05,
                         procedures=("MidPBH+", "BH+", "BH"))
        assert report.procedures == ("BH", "BH+", "MidPBH+")

    def test_unknown_procedure_rejected(self):
        with pytest.raises(ValueError, match="unknown procedure"):
            analyze(self.records_bt(), "bt", 0.05, procedures=("BY",))

    def test_empty_procedures_rejected(self):
        with pytest.raises(ValueError):
            analyze(self.records_bt(), "bt", 0.05, procedures=())

    def test_empty_records_rejected(self):
        with pytest.raises(DataError, match="no hypotheses"):
            analyze(CountTable((), [], []), "bt", 0.05)

    def test_fet_requires_totals(self):
        with pytest.raises(DataError, match="trial totals"):
            analyze(table(("a", 3, 0)), "fet", 0.05)

    def test_bad_alpha_and_test(self):
        with pytest.raises(ValueError):
            analyze(self.records_bt(), "bt", 1.5)
        with pytest.raises(ValueError):
            analyze(self.records_bt(), "chisq", 0.05)

    @pytest.mark.parametrize("rows, test", [
        ((("a", 3, 0),), "BT"),
        ((("a", 3, 0, 5, 5),), "xyz"),
    ], ids=["bt-table-BT", "fet-table-xyz"])
    def test_pvalue_tables_checks_test(self, rows, test):
        """"BT" once raised the data error asking for trial totals, and "xyz"
        on a table with trial totals ran Fisher's exact test."""
        with pytest.raises(ValueError) as error:
            ingest.pvalue_tables(table(*rows), test)
        assert type(error.value) is ValueError
        assert str(error.value) == f"test must be 'bt' or 'fet', got {test!r}"

    def test_mid_count_ordering_matches_condition_flag(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            m = int(rng.integers(2, 18))
            records = table(*[(f"t{i}", int(rng.integers(0, 15)),
                               int(rng.integers(0, 15))) for i in range(m)])
            report = analyze(records, "bt", float(rng.uniform(0.05, 0.25)))
            cmp_res = report.comparison
            assert cmp_res.condition_holds == (cmp_res.r_mp >= cmp_res.r_cp)


class TestReports:
    def test_report_rows_layout_and_flags(self):
        report = analyze(table(("a", 14, 0), ("b", 6, 5)), "bt", 0.05)
        lines = details_text(report).splitlines(keepends=True)
        assert all(line.endswith("\n") for line in lines)
        rows = parse_lines(lines)
        assert [r[0] for r in rows] == ["a", "b"]
        for i, cells in enumerate(rows):
            assert len(cells) == len(ingest.DETAIL_FIELDS)
            row = dict(zip(ingest.DETAIL_FIELDS, cells))
            assert row["p_conv"] == repr(float(report.p_conv[i]))
            assert row["p_mid"] == repr(float(report.p_mid[i]))
            for name, col in (("BH", "reject_bh"), ("BH+", "reject_bhplus"),
                              ("MidPBH+", "reject_midpbhplus")):
                assert row[col] == str(int(report.rejected_mask(name)[i]))

    def test_report_rows_blank_for_skipped_procedures(self):
        report = analyze(table(("a", 14, 0)), "bt", 0.05, procedures=("BH",))
        [cells] = parse_lines(details_text(report))
        assert len(cells) == len(ingest.DETAIL_FIELDS)
        row = dict(zip(ingest.DETAIL_FIELDS, cells))
        assert row["p_conv"] == repr(float(report.p_conv[0]))
        assert row["p_mid"] == ""
        assert row["reject_bhplus"] == ""
        assert row["reject_midpbhplus"] == ""
        assert row["reject_bh"] in ("0", "1")

    @settings(max_examples=60, deadline=None, database=None)
    @given(rows=st.lists(st.tuples(ID_TEXT, SHARED_OR_NOT), min_size=1, max_size=9),
           big=st.tuples(ID_TEXT, st.integers(1076, 1200)),
           block=st.sampled_from((1, 2, 3, ingest._BLOCK_ROWS)))
    def test_report_lines_are_what_csv_writer_writes(self, rows, big, block):
        """Every set of procedures, written in blocks of 1, 2 or 3 rows or of
        the default size: lines cross block seams, and code tuples that
        several rows share sit beside ones a single row holds.  One row's
        total is above 1075, and all of it is in c1, so its p-values are at
        most 2**-1075 and print as 0.0."""
        records = table(*[(rid, *pair) for rid, pair in rows], (big[0], big[1], 0))
        for procedures in PROCEDURE_SETS:
            report = analyze(records, "bt", 0.05, procedures=procedures)
            with mock.patch.object(ingest, "_BLOCK_ROWS", block):
                text = details_text(report)
            assert text == writer_text(old_layout(report))
            assert ",0.0," in text

    def test_report_lines_quote_ids_as_csv_writer_does(self):
        """Ids `load_counts` never gives (empty, not a str, a str subclass),
        and carriage returns, which csv.writer leaves unquoted on some
        Python versions."""
        class Name(str):
            pass

        ids = ("", 7, None, 2.5, Name("x,y"), Name("plain"), "a\rb", "a\r\nb",
               'q"', " lead", "naïve-日本")
        counts = CountTable(ids, [3 * i for i in range(len(ids))],
                            [12 - i for i in range(len(ids))])
        report = analyze(counts, "bt", 0.05)
        assert details_text(report) == writer_text(old_layout(report))

    def test_writing_details_peaks_below_100_bytes_a_row(self):
        """10**5 bt rows drawn as the benchmark's analyze-bt-1e5 draws them:
        Pareto(4.5, 5) base means, 10% of rows with one side enriched by
        U(3, 5.5), Poisson counts.  Writing their details holds a few 8-byte
        columns and one block of lines at a time."""
        rng = np.random.default_rng(29)
        m = 10**5
        theta = np.repeat(4.5 * (1.0 - rng.random((m, 1))) ** -0.2, 2, axis=1)
        theta[: m // 20, 0] *= rng.uniform(3.0, 5.5, m // 20)
        theta[m // 20: m // 10, 1] *= rng.uniform(3.0, 5.5, m // 20)
        c1, c2 = rng.poisson(theta)[rng.permutation(m)].T
        report = analyze(CountTable([f"r{i:06d}" for i in range(m)], c1, c2), "bt", 0.05)
        with open(os.devnull, "w", encoding="utf-8", newline="") as sink:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                report_rows(report, sink)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak <= 100 * m

    def test_report_summary_structure(self):
        report = analyze(table(("a", 14, 0), ("b", 6, 5)), "bt", 0.05)
        summary = report_summary(report)
        assert summary["schema_version"] == 1
        assert summary["test"] == "bt"
        assert summary["alpha"] == 0.05
        assert summary["m"] == 2
        assert set(summary["procedures"]) == {"BH", "BH+", "MidPBH+"}
        for name, block in summary["procedures"].items():
            assert block["rejections"] == report.results[name].rejection_count
        cmp_block = summary["mid_vs_conventional"]
        assert cmp_block["condition_holds"] == report.comparison.condition_holds
        assert cmp_block["r_cp"] == report.comparison.r_cp
        assert cmp_block["r_mp"] == report.comparison.r_mp

    def test_report_summary_omits_comparison_without_both_runs(self):
        report = analyze(table(("a", 14, 0)), "bt", 0.05, procedures=("BH",))
        summary = report_summary(report)
        assert "mid_vs_conventional" not in summary
