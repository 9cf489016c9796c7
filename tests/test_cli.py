"""End-to-end tests of the command line interface.

Golden files under tests/golden/ hold byte-exact expected outputs; the
deterministic kernels and fixed serialization make exact comparison safe.
"""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import stepfdr
from exact_oracle import exact_pvalues
from stepfdr import ingest, stepup
from stepfdr.cli import main
from stepfdr.dist import binomial_null
from stepfdr.errors import InvariantViolation

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden"
FIXTURES = HERE.parent / "fixtures"

METH = str(FIXTURES / "methylation_synthetic.csv")
HIV = str(FIXTURES / "hiv_synthetic.csv")
SAFETY = str(FIXTURES / "safety_synthetic.csv")

TINY = "id,c1,c2\na,2,0\nb,0,3\nc,1,1\n"


def golden_bytes(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def run_to_file(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_bytes()


class TestGoldenOutputs:
    def test_analyze_methylation_json(self, tmp_path):
        code, data = run_to_file(
            ["analyze", "--input", METH, "--test", "bt", "--alpha", "0.05",
             "--filter", "methylation", "--format", "json"], tmp_path)
        assert code == 0
        assert data == golden_bytes("analyze_methylation.json")

    def test_analyze_hiv_json(self, tmp_path):
        code, data = run_to_file(
            ["analyze", "--input", HIV, "--test", "fet", "--alpha", "0.05",
             "--filter", "hiv", "--format", "json"], tmp_path)
        assert code == 0
        assert data == golden_bytes("analyze_hiv.json")

    def test_analyze_safety_csv(self, tmp_path):
        code, data = run_to_file(
            ["analyze", "--input", SAFETY, "--test", "fet", "--alpha", "0.05",
             "--format", "csv"], tmp_path)
        assert code == 0
        assert data == golden_bytes("analyze_safety.csv")

    def test_analyze_details_out(self, tmp_path):
        details = tmp_path / "details.csv"
        code = main(["analyze", "--input", METH, "--test", "bt",
                     "--alpha", "0.05", "--filter", "methylation",
                     "--format", "json", "--output", str(tmp_path / "s.json"),
                     "--details-out", str(details)])
        assert code == 0
        assert details.read_bytes() == golden_bytes("details_methylation.csv")

    def test_simulate_cell_csv(self, tmp_path):
        code, data = run_to_file(
            ["simulate", "--test", "fet", "--pi0", "0.8", "--alpha", "0.1",
             "--n", "10", "--reps", "5", "--seed", "3"], tmp_path)
        assert code == 0
        assert data == golden_bytes("simulate_cell.csv")

    def test_support_tiny_csv(self, tmp_path):
        src = tmp_path / "tiny.csv"
        src.write_text(TINY, encoding="utf-8")
        code, data = run_to_file(
            ["support", "--input", str(src), "--test", "bt",
             "--pvalue", "conventional", "--format", "csv"], tmp_path)
        assert code == 0
        assert data == golden_bytes("support_tiny.csv")

    def test_compare_hiv_json(self, tmp_path):
        code, data = run_to_file(
            ["compare", "--input", HIV, "--test", "fet", "--alpha", "0.05"],
            tmp_path)
        assert code == 0
        assert data == golden_bytes("compare_hiv.json")

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        args = ["analyze", "--input", HIV, "--test", "fet", "--alpha", "0.05",
                "--filter", "hiv", "--format", "json"]
        code = main(args + ["--output", "-"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.encode() == golden_bytes("analyze_hiv.json")

    def test_repeated_runs_identical(self, tmp_path):
        args = ["simulate", "--test", "bt", "--pi0", "0.5", "--alpha", "0.05",
                "--eta", "3.0", "--m", "20", "--reps", "3", "--seed", "7"]
        _, first = run_to_file(args, tmp_path, "a.csv")
        _, second = run_to_file(args, tmp_path, "b.csv")
        assert first == second


class TestExitCodes:
    def test_bare_invocation_prints_help(self, capsys):
        assert main([]) == 0
        captured = capsys.readouterr()
        assert "Usage" in captured.out
        assert captured.err == ""

    def test_usage_error_bad_alpha(self, capsys):
        code = main(["analyze", "--input", METH, "--test", "bt",
                     "--alpha", "1.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("stepfdr: error: usage:")
        assert "\n" not in captured.err.rstrip("\n")

    def test_usage_error_unknown_option(self, capsys):
        assert main(["analyze", "--frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("stepfdr: error: usage:")

    def test_usage_error_grid_with_pi0(self, capsys):
        code = main(["simulate", "--test", "fet", "--grid", "--pi0", "0.5"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--pi0", "0.5", "--alpha", "0.05"],
                                      ["--grid"]], ids=["cell", "grid"])
    @pytest.mark.parametrize("family", [["bt", "--eta", "3", "--n", "10"],
                                        ["fet", "--n", "10", "--eta", "3"]],
                             ids=["bt-n", "fet-eta"])
    def test_usage_error_other_family_parameter(self, capsys, family, mode):
        """Both modes reject the other family's parameter (a grid run once
        ignored it and ran)."""
        test, *params = family
        code = main(["simulate", "--test", test, *params, *mode,
                     "--m", "10", "--reps", "1", "--output", os.devnull])
        assert code == 1
        assert capsys.readouterr().err == (
            f"stepfdr: error: usage: --test {test} takes no {params[2]}\n")

    def test_usage_error_zero_reps(self, capsys):
        code = main(["simulate", "--test", "fet", "--pi0", "0.5",
                     "--alpha", "0.05", "--n", "10", "--reps", "0"])
        assert code == 1

    def test_data_error_missing_file(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "nope.csv"),
                     "--test", "bt"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("stepfdr: error: data:")

    def test_data_error_bad_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,x,y\nr,1,2\n", encoding="utf-8")
        code = main(["analyze", "--input", str(bad), "--test", "bt"])
        captured = capsys.readouterr()
        assert code == 2
        assert "header" in captured.err

    def test_data_error_count_over_total(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,c1,c2,n1,n2\nr,6,0,5,5\n", encoding="utf-8")
        code = main(["analyze", "--input", str(bad), "--test", "fet"])
        assert code == 2

    @pytest.mark.parametrize("row", [
        "a,99999999999999999999,3",
        "a,4611686018427387904,4611686018427387904",
    ], ids=["cell-past-int64", "total-past-int64"])
    def test_data_error_count_past_int64(self, tmp_path, capsys, row):
        """The first row once ended in an uncaught OverflowError, the second
        exited 3 on the wrapped total -9223372036854775808."""
        bad = tmp_path / "big.csv"
        bad.write_text(f"id,c1,c2\n{row}\n", encoding="utf-8")
        code = main(["analyze", "--input", str(bad), "--test", "bt"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"stepfdr: error: data: {bad}:2:")

    def test_data_error_filter_removes_everything(self, tmp_path, capsys):
        src = tmp_path / "thin.csv"
        src.write_text("id,c1,c2\nr,1,1\n", encoding="utf-8")
        code = main(["analyze", "--input", str(src), "--test", "bt",
                     "--filter", "methylation"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no hypotheses" in captured.err

    def test_data_error_fet_without_totals(self, tmp_path, capsys):
        src = tmp_path / "bare.csv"
        src.write_text(TINY, encoding="utf-8")
        code = main(["analyze", "--input", str(src), "--test", "fet"])
        captured = capsys.readouterr()
        assert code == 2
        assert "trial totals" in captured.err

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantViolation("rejection sets out of order")

        monkeypatch.setattr(ingest, "analyze", boom)
        code = main(["analyze", "--input", METH, "--test", "bt"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("stepfdr: error: internal:")

    def test_over_rejecting_bh_is_an_internal_error(self, capsys, monkeypatch):
        """Every analyze call checks BH's set against BH+'s, whichever
        flavor it reports, and names alpha when they are out of order."""
        bh = stepup.bh

        def over_rejecting(pvalues, alpha):   # rejects all m
            return bh([0.0] * len(pvalues), alpha)

        monkeypatch.setattr(stepup, "bh", over_rejecting)
        with pytest.raises(InvariantViolation, match="alpha=0.05"):
            ingest.analyze(ingest.load_counts(METH), "bt", 0.05, ("MidPBH+",))
        for flavor in ("conventional", "mid", "both"):
            code = main(["analyze", "--input", METH, "--test", "bt",
                         "--pvalue", flavor, "--output", os.devnull])
            assert code == 3
            assert capsys.readouterr().err.startswith(
                "stepfdr: error: internal: adaptive step-up did not contain "
                "the classical rejection set at alpha=0.05")

    def test_library_value_error_is_internal(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("alpha must lie in (0, 1), got 2.0")

        monkeypatch.setattr(ingest, "analyze", boom)
        code = main(["analyze", "--input", METH, "--test", "bt"])
        assert code == 3
        assert capsys.readouterr().err.startswith("stepfdr: error: internal:")

    @pytest.mark.parametrize("body", [b"m\xe9,1,2\n", b"x" * 200_000 + b",1,2\n"],
                             ids=["not-utf8", "oversized-field"])
    def test_data_error_unreadable_input(self, tmp_path, capsys, body):
        src = tmp_path / "unreadable.csv"
        src.write_bytes(b"id,c1,c2\n" + body)
        code = main(["analyze", "--input", str(src), "--test", "bt"])
        assert code == 2
        assert capsys.readouterr().err.startswith("stepfdr: error: data:")

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["analyze", "--help"]) == 0
        assert "Usage" in capsys.readouterr().out


class TestSimulateCli:
    def test_grid_respects_workers_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STEPFDR_WORKERS", "2")
        out = tmp_path / "grid.csv"
        code = main(["simulate", "--test", "fet", "--grid", "--n", "10",
                     "--m", "20", "--reps", "2", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        # 5 pi0 values x 1 n x 4 alphas x 3 procedures + header.
        assert len(lines) == 61

    @pytest.mark.parametrize("raw, problem", [
        ("abc", "must be an integer, got 'abc'"),
        ("0", "must be >= 1, got 0"),
        ("-3", "must be >= 1, got -3"),
    ], ids=["abc", "zero", "negative"])
    def test_bad_workers_env_is_named(self, monkeypatch, capsys, raw, problem):
        monkeypatch.setenv("STEPFDR_WORKERS", raw)
        code = main(["simulate", "--test", "bt", "--grid", "--eta", "3",
                     "--m", "10", "--reps", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"stepfdr: error: usage: STEPFDR_WORKERS {problem}\n")

    def test_block_dependence_flag(self, tmp_path):
        code, data = run_to_file(
            ["simulate", "--test", "bt", "--pi0", "0.5", "--alpha", "0.05",
             "--eta", "3.0", "--reps", "2", "--seed", "1",
             "--dependence", "block", "--copula-sharing", "per-group"],
            tmp_path)
        assert code == 0
        assert b"bt,block,per-group,200" in data

    @pytest.mark.parametrize("m, code", [(20, 0), (100, 0), (22, 1)])
    def test_block_dependence_needs_m_divisible_by_blocks(self, capsys, m, code):
        """The 5 blocks take m / 5 tests each, so m must be a multiple of 5."""
        assert main(["simulate", "--test", "bt", "--pi0", "0.5",
                     "--alpha", "0.05", "--eta", "3.0", "--m", str(m),
                     "--reps", "2", "--dependence", "block",
                     "--output", os.devnull]) == code
        if code:
            assert "blocks must be >= 1 and divide m = 22" in capsys.readouterr().err

    def test_alpha_must_accompany_single_cell(self, capsys):
        code = main(["simulate", "--test", "fet", "--n", "10"])
        assert code == 1
        assert "usage" in capsys.readouterr().err


class TestSupportCli:
    def test_json_structure(self, tmp_path):
        src = tmp_path / "tiny.csv"
        src.write_text(TINY, encoding="utf-8")
        out = tmp_path / "sup.json"
        code = main(["support", "--input", str(src), "--test", "bt",
                     "--pvalue", "mid", "--format", "json",
                     "--output", str(out)])
        assert code == 0
        import json
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["pvalue"] == "mid"
        assert doc["m"] == 3
        assert [s["id"] for s in doc["supports"]] == ["a", "b", "c"]
        assert doc["max_cdf"]["grid"] == sorted(doc["max_cdf"]["grid"])

    @pytest.mark.parametrize("command", ["support", "compare"])
    def test_empty_table_is_a_data_error(self, tmp_path, capsys, command):
        src = tmp_path / "empty.csv"
        src.write_text("id,c1,c2\n", encoding="utf-8")
        code = main([command, "--input", str(src), "--test", "bt"])
        assert code == 2
        assert "no hypotheses" in capsys.readouterr().err

    def test_fet_support_needs_totals(self, tmp_path, capsys):
        src = tmp_path / "tiny.csv"
        src.write_text(TINY, encoding="utf-8")
        code = main(["support", "--input", str(src), "--test", "fet"])
        assert code == 2
        assert "trial totals" in capsys.readouterr().err


class TestLargeTotals:
    """Exact p-values of at most 2**-1075 are reported as 0.0 (exit 0).

    At these totals the smallest tie classes of the null round to 0.0,
    which used to make the support build fail for every row.
    """

    @pytest.mark.parametrize("flavor", ["conventional", "mid", "both"])
    @pytest.mark.parametrize("rows", [[(600, 475)], [(1000, 1000)],
                                      [(600, 475), (1100, 0), (3, 4)]],
                             ids=["total-1075", "total-2000", "mixed"])
    def test_analyze_exits_zero_with_exact_pvalues(self, tmp_path, flavor, rows):
        src = tmp_path / "big.csv"
        src.write_text("id,c1,c2\n" + "".join(
            f"g{i},{c1},{c2}\n" for i, (c1, c2) in enumerate(rows)), encoding="utf-8")
        details = tmp_path / "details.csv"
        code = main(["analyze", "--input", str(src), "--test", "bt",
                     "--pvalue", flavor, "--details-out", str(details),
                     "--output", str(tmp_path / "summary.json")])
        assert code == 0
        with open(details, newline="", encoding="utf-8") as handle:
            got = list(csv.DictReader(handle))
        assert len(got) == len(rows)
        for row, (c1, c2) in zip(got, rows):
            p_conv, p_mid = map(float, exact_pvalues(binomial_null(c1 + c2))[c1])
            assert row["p_conv"] == ("" if flavor == "mid" else repr(p_conv))
            assert row["p_mid"] == ("" if flavor == "conventional" else repr(p_mid))
        if len(rows) > 1:
            assert got[1]["p_conv" if flavor != "mid" else "p_mid"] == "0.0"
        # A single flavor reports what --pvalue both reports for its procedures.
        both = tmp_path / "both.csv"
        assert main(["analyze", "--input", str(src), "--test", "bt",
                     "--details-out", str(both),
                     "--output", str(tmp_path / "both.json")]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())["procedures"]
        full = json.loads((tmp_path / "both.json").read_text())["procedures"]
        assert list(summary) == {"conventional": ["BH", "BH+"], "mid": ["MidPBH+"],
                                 "both": ["BH", "BH+", "MidPBH+"]}[flavor]
        assert summary == {name: full[name] for name in summary}
        with open(both, newline="", encoding="utf-8") as handle:
            for row, ref in zip(got, csv.DictReader(handle)):
                assert {k: v for k, v in row.items() if v != ""} == \
                    {k: ref[k] for k, v in row.items() if v != ""}

    def test_total_20000_matches_exact_tail_sums(self, tmp_path):
        """The binomial null is symmetric, so for c1 = 10,123 of n = 20,000
        the outcomes at most as likely are x <= 9,877 and x >= 10,123: P and
        Q follow from one exact tail sum of binomial coefficients."""
        n, c1 = 20000, 10123
        src = tmp_path / "big.csv"
        src.write_text(f"id,c1,c2\nbig,{c1},{n - c1}\n", encoding="utf-8")
        details = tmp_path / "details.csv"
        code = main(["analyze", "--input", str(src), "--test", "bt",
                     "--details-out", str(details),
                     "--output", str(tmp_path / "summary.json")])
        assert code == 0
        tail, coef = 0, 1   # sum of C(n, x) for x < n - c1, then C(n, n - c1)
        for x in range(n - c1):
            tail, coef = tail + coef, coef * (n - x) // (x + 1)
        with open(details, newline="", encoding="utf-8") as handle:
            row = next(csv.DictReader(handle))
        assert row["p_conv"] == repr(float(Fraction(2 * tail + 2 * coef, 2**n)))
        assert row["p_mid"] == repr(float(Fraction(2 * tail + coef, 2**n)))


class TestDetailsCsv:
    IDS = ["plain", "comma,inside", 'say "hi"', "naïve-日本", "two\nlines",
           "'single'"]

    def test_ids_needing_quotes_match_dictwriter_and_round_trip(self, tmp_path):
        src = tmp_path / "odd.csv"
        with open(src, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "c1", "c2"])
            for i, rid in enumerate(self.IDS):
                writer.writerow([rid, 3 * i, 12 - i])
        details = tmp_path / "details.csv"
        code = main(["analyze", "--input", str(src), "--test", "bt",
                     "--details-out", str(details),
                     "--output", str(tmp_path / "summary.json")])
        assert code == 0
        report = ingest.analyze(ingest.load_counts(str(src)), "bt", 0.05)
        masks = [report.rejected_mask(name) for name in stepup.PROCEDURES]
        reference = io.StringIO()
        writer = csv.DictWriter(reference, fieldnames=ingest.DETAIL_FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        for i, rid in enumerate(report.ids):
            row = {"id": rid, "p_conv": repr(float(report.p_conv[i])),
                   "p_mid": repr(float(report.p_mid[i]))}
            for column, mask in zip(ingest.DETAIL_FIELDS[3:], masks):
                row[column] = int(mask[i])
            writer.writerow(row)
        assert details.read_bytes() == reference.getvalue().encode("utf-8")
        with open(details, newline="", encoding="utf-8") as handle:
            parsed = list(csv.reader(handle))
        assert [row[0] for row in parsed[1:]] == self.IDS


def test_cli_import_leaves_scipy_unloaded():
    """Only the block-dependence simulation needs scipy, and only a worker
    pool needs multiprocessing, so importing the command line loads neither.
    A bt or fet block grid loads `scipy.special` but not `scipy.stats`."""
    src = str(pathlib.Path(stepfdr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probes = {
        "import sys, stepfdr.cli; "
        "print([m in sys.modules for m in ('scipy', 'multiprocessing')])":
            "[False, False]",
        "import sys, stepfdr.cli; "
        "stepfdr.sim.run_grid('bt', dependence='block', reps=2, m=20); "
        "print([m in sys.modules for m in ('scipy.special', 'scipy.stats')])":
            "[True, False]",
        "import sys, stepfdr.cli; "
        "stepfdr.sim.run_grid('fet', dependence='block', reps=2, m=20); "
        "print([m in sys.modules for m in ('scipy.special', 'scipy.stats')])":
            "[True, False]",
    }
    for probe, want in probes.items():
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want
