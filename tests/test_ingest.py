"""Tests for count-table loading, application filters, and analysis reports."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
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


def old_layout(report):
    """One tuple of cells per hypothesis, in `DETAIL_FIELDS` order: the
    layout csv.writer was given before `report_rows` returned lines."""
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
        # The constructor checks structure only; pvalue_table guards the range.
        with pytest.raises(ValueError, match=">= 0"):
            ingest.pvalue_tables(table(("x", -1, 2)), "bt")

    def test_total_property(self):
        assert table(("x", 3, 4)).total.tolist() == [7]

    def test_columns_are_read_only(self):
        counts = table(("x", 3, 4, 5, 5))
        for column in (counts.c1, counts.c2, counts.n1, counts.n2):
            with pytest.raises(ValueError):
                column[0] = 0


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
        negative total, so both filters silently dropped it."""
        counts = table(("small", 3, 4), row, ("after", 30, 1))
        with pytest.raises(ValueError,
                           match=r"row 'big': total c1 \+ c2 must be below 2\*\*63, "
                                 r"got 9223372036854775808"):
            keep(counts)
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
        lines = report_rows(report)
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
        [cells] = parse_lines(report_rows(report))
        assert len(cells) == len(ingest.DETAIL_FIELDS)
        row = dict(zip(ingest.DETAIL_FIELDS, cells))
        assert row["p_conv"] == repr(float(report.p_conv[0]))
        assert row["p_mid"] == ""
        assert row["reject_bhplus"] == ""
        assert row["reject_midpbhplus"] == ""
        assert row["reject_bh"] in ("0", "1")

    @settings(max_examples=60, deadline=None, database=None)
    @given(rows=st.lists(st.tuples(ID_TEXT, st.integers(0, 30), st.integers(0, 30)),
                         min_size=1, max_size=8),
           big=st.tuples(ID_TEXT, st.integers(1076, 1200)),
           procedures=st.sets(st.sampled_from(stepup.PROCEDURES), min_size=1))
    def test_report_lines_are_what_csv_writer_writes(self, rows, big, procedures):
        """One row's total is above 1075, and all of it is in c1, so its
        p-values are at most 2**-1075 and print as 0.0."""
        report = analyze(table(*rows, (big[0], big[1], 0)), "bt", 0.05,
                         procedures=tuple(procedures))
        text = "".join(report_rows(report))
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
        assert "".join(report_rows(report)) == writer_text(old_layout(report))

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
