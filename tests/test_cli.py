"""End-to-end tests of the command line interface.

Golden files under tests/golden/ hold byte-exact expected outputs; the
deterministic kernels and fixed serialization make exact comparison safe.
"""

import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import stepfdr
from exact_oracle import exact_pvalues
from stepfdr import ingest, pvalue, stepup
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


def main_in_limited_child(args) -> subprocess.CompletedProcess:
    """`main(args)` in a child process limited to 1.5 GB of address space."""
    probe = ("import resource, sys; from stepfdr.cli import main; "
             "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
             f"sys.exit(main({args!r}))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(stepfdr.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)


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

    def test_details_on_stdout_are_the_details_file(self, tmp_path, capsys):
        """2,500 rows, so the details are written in several blocks; every
        seventh id needs quoting."""
        source = tmp_path / "counts.csv"
        with open(source, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "c1", "c2"))
            writer.writerows((f"r{i}" if i % 7 else f'r,"{i}"', i % 23, i % 11)
                             for i in range(2500))
        args = ["analyze", "--input", str(source), "--test", "bt",
                "--output", str(tmp_path / "summary.json"), "--details-out"]
        assert main(args + [str(tmp_path / "details.csv")]) == 0
        assert main(args + ["-"]) == 0
        assert capsys.readouterr().out.encode() == (tmp_path / "details.csv").read_bytes()

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

    @pytest.mark.parametrize("command", [
        ["analyze", "--input", METH, "--test", "bt"],
        ["compare", "--input", METH, "--test", "bt"],
        ["simulate", "--test", "bt", "--pi0", "0.5", "--m", "10", "--reps", "1"],
    ], ids=["analyze", "compare", "simulate"])
    def test_usage_error_nan_alpha(self, capsys, command):
        """NaN passes a range test made of two comparisons, since it compares
        false with both ends, so analyze and compare once ran it into an
        internal error."""
        assert main([*command, "--alpha", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("stepfdr: error: usage: Invalid value for '--alpha': "
                                "nan is not in the range 0.0<x<1.0.\n")

    def test_usage_error_alpha_not_a_number(self, capsys):
        assert main(["analyze", "--input", METH, "--test", "bt", "--alpha", "abc"]) == 1
        assert capsys.readouterr().err == ("stepfdr: error: usage: Invalid value for "
                                           "'--alpha': 'abc' is not a valid float.\n")

    def test_usage_error_unknown_option(self, capsys):
        """An unknown option, and a known one abbreviated, which is no option
        and is named before the --input it leaves missing."""
        for args in (["--frobnicate"], ["--inp", METH, "--test", "bt"]):
            assert main(["analyze", *args]) == 1
            err = capsys.readouterr().err
            assert err.startswith("stepfdr: error: usage:")
            assert "\n" not in err.rstrip("\n")
        assert err.endswith(f"unrecognized arguments: --inp {METH}\n")

    @pytest.mark.parametrize("bad, problem", [
        (["--n", "0"], "n must be >= 1, got 0"),
        (["--n", "10", "--pi0", "1.5"], "pi0 must lie in [0, 1], got 1.5"),
    ], ids=["n", "pi0"])
    def test_usage_error_fet_cell_range(self, capsys, bad, problem):
        """SimConfig's check of each range is the command line's."""
        code = main(["simulate", "--test", "fet", "--pi0", "0.5", "--alpha", "0.05", *bad])
        assert code == 1
        assert capsys.readouterr().err == f"stepfdr: error: usage: {problem}\n"

    def test_interrupt_is_a_usage_abort(self, capsys, monkeypatch):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "load_counts", interrupted)
        assert main(["analyze", "--input", METH, "--test", "bt"]) == 1
        assert capsys.readouterr().err.endswith("stepfdr: error: usage: aborted\n")

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
        scan, scans = stepup._scan, []

        def over_rejecting(p, f, thresholds, steps=None):
            """BH, each run's first scan, rejects all m."""
            r, threshold, rejected = scan(p, f, thresholds, steps)
            if len(scans) % 3 == 0:
                r[...] = rejected[...] = thresholds.shape[-1]
                threshold[...] = 1.0
            scans.append(1)
            return r, threshold, rejected

        monkeypatch.setattr(stepup, "_scan", over_rejecting)
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

    def test_out_of_memory_is_internal(self, tmp_path, capsys, monkeypatch):
        def boom(margins, keys=None, spans=None):
            raise MemoryError(f"margin {tuple(margins[0].tolist())}: out of memory")

        src = tmp_path / "one.csv"
        src.write_text("id,c1,c2\na,3,4\n")
        monkeypatch.setattr(pvalue, "_margins", {})   # so the margin is built
        monkeypatch.setattr(pvalue, "_build", boom)
        code = main(["analyze", "--input", str(src), "--test", "bt"])
        assert code == 3
        assert capsys.readouterr().err == "stepfdr: error: internal: margin (7,): out of memory\n"

    def test_a_build_past_an_address_space_limit_is_internal(self, tmp_path):
        """One schema-valid bt row whose class buffers need about 2 GB, in a
        child process limited to 1.5 GB of address space.  numpy reserves
        the buffers without touching their pages, so the child stays small."""
        src = tmp_path / "huge.csv"
        src.write_text("id,c1,c2\nhuge,50000000,50000000\n")
        proc = main_in_limited_child(["analyze", "--input", str(src), "--test", "bt"])
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("stepfdr: error: internal: margin (100000000,): out of memory "
                               "building its batch's 100000001 outcomes\n")

    def test_an_outcome_count_past_int64_is_out_of_memory(self, tmp_path):
        """Total 2**63 - 1 has 2**63 outcomes, which an int64 width would
        wrap to 0; the build is refused up front with the true count."""
        src = tmp_path / "widest.csv"
        src.write_text(f"id,c1,c2\nwidest,{2**63 - 1},0\n")
        proc = main_in_limited_child(["analyze", "--input", str(src), "--test", "bt"])
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (f"stepfdr: error: internal: margin ({2**63 - 1},): out of "
                               f"memory building its batch's {2**63} outcomes\n")

    def test_a_batch_whose_outcomes_sum_past_int64_is_out_of_memory(self):
        """eta = 1e17 draws bt totals near 10**18, ten of which in one batch
        sum past 2**63, which an int64 cumsum would wrap negative."""
        proc = main_in_limited_child(["simulate", "--test", "bt", "--pi0", "0.5",
                                      "--alpha", "0.1", "--eta", "1e17", "--m", "10",
                                      "--reps", "2", "--dependence", "block"])
        assert (proc.returncode, proc.stdout) == (3, "")
        found = re.fullmatch(r"stepfdr: error: internal: margin \((\d+),\): out of memory "
                             r"building its batch's (\d+) outcomes\n", proc.stderr)
        assert found and int(found[2]) >= 2**63 > int(found[1])

    @pytest.mark.parametrize("body", [b"m\xe9,1,2\n", b"x" * 200_000 + b",1,2\n"],
                             ids=["not-utf8", "oversized-field"])
    def test_data_error_unreadable_input(self, tmp_path, capsys, body):
        src = tmp_path / "unreadable.csv"
        src.write_bytes(b"id,c1,c2\n" + body)
        code = main(["analyze", "--input", str(src), "--test", "bt"])
        assert code == 2
        assert capsys.readouterr().err.startswith("stepfdr: error: data:")

    def test_a_margin_no_buffer_holds_is_refused_at_once(self, tmp_path, capsys):
        """Total 2**61 is refused before its outcomes are counted out."""
        src = tmp_path / "wide.csv"
        src.write_text(f"id,c1,c2\nwide,0,{2**61}\n")
        assert main(["analyze", "--input", str(src), "--test", "bt"]) == 3
        assert capsys.readouterr().err == (
            f"stepfdr: error: internal: margin ({2**61},): out of memory building its "
            f"batch's {2**61 + 1} outcomes\n")
    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["analyze", "--help"]) == 0
        assert "Usage" in capsys.readouterr().out

    @pytest.mark.parametrize("command, options", [
        ("analyze", "--input --test --alpha --pvalue --filter --format --output --details-out"),
        ("simulate", "--test --grid --pi0 --alpha --eta --n --dependence --copula-sharing "
                     "--m --reps --seed --output"),
        ("support", "--input --test --pvalue --format --output"),
        ("compare", "--input --test --alpha --output"),
    ])
    def test_subcommand_help_names_every_option(self, capsys, command, options):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        named = set(re.findall(r"(?<![\w-])--[\w-]+", out)) - {"--help"}
        assert named == set(options.split())


# Each help text as argparse 3.11 lays it out at 80 columns, before the
# parser built only the named command's options.
HELP_TEXTS = {
    '': (
        'Usage: stepfdr [-h] COMMAND ...\n'
        '\n'
        'Adaptive FDR step-up procedures for exact two-group count tests.\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '\n'
        'commands:\n'
        '  COMMAND\n'
        '    analyze   Run the step-up procedures on a two-group count table.\n'
        '    simulate  Estimate FDR and power of BH, BH+ and MidPBH+ by Monte Carlo.\n'
        "    support   Dump each hypothesis's p-value support and the pooled max-CDF.\n"
        '    compare   Report mid versus conventional rejection counts and the count-\n'
        '              ordering condition.\n'),
    'analyze': (
        'Usage: stepfdr analyze [-h] --input PATH --test {bt,fet} [--alpha ALPHA]\n'
        '                       [--pvalue {conventional,mid,both}]\n'
        '                       [--filter {methylation,hiv,none}] [--format {json,csv}]\n'
        '                       [--output OUTPUT] [--details-out DETAILS_OUT]\n'
        '\n'
        'Run the step-up procedures on a two-group count table.\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input PATH          Count table (CSV, or TSV by .tsv extension).\n'
        "  --test {bt,fet}       bt: exact binomial test; fet: Fisher's exact test.\n"
        '  --alpha ALPHA         Nominal FDR level. [default: 0.05]\n'
        '  --pvalue {conventional,mid,both}\n'
        '                        conventional runs BH and BH+; mid runs MidPBH+; both\n'
        '                        runs all three. [default: both]\n'
        '  --filter {methylation,hiv,none}\n'
        '                        Application filter applied before the analysis.\n'
        '                        [default: none]\n'
        '  --format {json,csv}   Summary format. [default: json]\n'
        "  --output OUTPUT       Summary destination ('-' for standard output).\n"
        '                        [default: -]\n'
        '  --details-out DETAILS_OUT\n'
        '                        Optional per-hypothesis CSV destination.\n'),
    'simulate': (
        'Usage: stepfdr simulate [-h] --test {bt,fet} [--grid] [--pi0 PI0]\n'
        '                        [--alpha ALPHA] [--eta ETA] [--n N_TRIALS]\n'
        '                        [--dependence {indep,block}]\n'
        '                        [--copula-sharing {shared,per-group}] [--m M]\n'
        '                        [--reps REPS] [--seed SEED] [--output OUTPUT]\n'
        '\n'
        'Estimate FDR and power of BH, BH+ and MidPBH+ by Monte Carlo. Worker-count\n'
        'override: set STEPFDR_WORKERS to parallelize --grid runs across processes (the\n'
        'output is identical for any worker count).\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        "  --test {bt,fet}       bt: exact binomial test; fet: Fisher's exact test.\n"
        '  --grid                Run the full factorial study for the chosen test.\n'
        '  --pi0 PI0             True-null proportion (single-cell mode).\n'
        '  --alpha ALPHA         Nominal FDR level (single-cell mode).\n'
        '  --eta ETA             Pareto scale of the mean law (bt only).\n'
        '  --n N_TRIALS          Per-group trial count (fet only).\n'
        '  --dependence {indep,block}\n'
        '                        [default: indep]\n'
        '  --copula-sharing {shared,per-group}\n'
        '                        Under block dependence, reuse one uniform draw for\n'
        '                        both count columns or draw per column. [default:\n'
        '                        shared]\n'
        '  --m M                 Hypotheses per replication. [default: 200]\n'
        '  --reps REPS           [default: 300]\n'
        '  --seed SEED           [default: 0]\n'
        '  --output OUTPUT       [default: -]\n'),
    'support': (
        'Usage: stepfdr support [-h] --input PATH --test {bt,fet}\n'
        '                       [--pvalue {conventional,mid}] [--format {json,csv}]\n'
        '                       [--output OUTPUT]\n'
        '\n'
        "Dump each hypothesis's p-value support and the pooled max-CDF.\n"
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input PATH          Count table (CSV, or TSV by .tsv extension).\n'
        "  --test {bt,fet}       bt: exact binomial test; fet: Fisher's exact test.\n"
        '  --pvalue {conventional,mid}\n'
        '                        [default: conventional]\n'
        '  --format {json,csv}   [default: json]\n'
        '  --output OUTPUT       [default: -]\n'),
    'compare': (
        'Usage: stepfdr compare [-h] --input PATH --test {bt,fet} [--alpha ALPHA]\n'
        '                       [--output OUTPUT]\n'
        '\n'
        'Report mid versus conventional rejection counts and the count-ordering\n'
        'condition.\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --input PATH     Count table (CSV, or TSV by .tsv extension).\n'
        "  --test {bt,fet}  bt: exact binomial test; fet: Fisher's exact test.\n"
        '  --alpha ALPHA    [default: 0.05]\n'
        '  --output OUTPUT  [default: -]\n'),
}


@pytest.mark.parametrize("command", list(HELP_TEXTS), ids=["top", *list(HELP_TEXTS)[1:]])
def test_help_texts_are_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]


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

    @pytest.mark.parametrize("test, param, values", [
        ("bt", "eta", ["3.0", "4.5", "6.0"]),
        ("fet", "n", ["10", "20", "30"]),
    ])
    def test_grid_without_eta_or_n_takes_the_default_grid(self, tmp_path, test, param,
                                                           values):
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--test", test, "--grid", "--m", "10", "--reps", "1",
                     "--output", str(out)]) == 0
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        # 5 pi0 values x 3 parameter values x 4 alphas x 3 procedures.
        assert len(rows) == 180
        assert list(dict.fromkeys(row[param] for row in rows)) == values

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

    @pytest.mark.parametrize("mode", [["--pi0", "0.5", "--alpha", "0.05"],
                                      ["--grid"]], ids=["cell", "grid"])
    @pytest.mark.parametrize("bad, problem", [
        (["--eta", "-1"], "eta must be > 0, got -1.0"),
        (["--eta", "inf"], "eta must be finite, got inf"),
        (["--eta", "inf", "--dependence", "block"], "eta must be finite, got inf"),
        (["--eta", "1e19"], "eta must be below 2**63, got 1e+19"),
        (["--eta", "1e19", "--dependence", "block"], "eta must be below 2**63, got 1e+19"),
        (["--eta", "3", "--m", "22", "--dependence", "block"],
         "blocks must be >= 1 and divide m = 22, got 5"),
        (["--eta", "3", "--m", "0"], "m must be >= 1, got 0"),
        (["--eta", "3", "--reps", "0"], "reps must be >= 1, got 0"),
        (["--eta", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["eta", "eta-inf", "eta-inf-block", "eta-huge", "eta-huge-block", "blocks",
            "m", "reps", "seed"])
    def test_bad_parameters_are_usage_errors(self, capsys, mode, bad, problem):
        code = main(["simulate", "--test", "bt", "--reps", "1", *mode, *bad,
                     "--output", os.devnull])
        assert code == 1
        assert capsys.readouterr().err == f"stepfdr: error: usage: {problem}\n"

    @pytest.mark.parametrize("mode", [["--pi0", "0.5", "--alpha", "0.05"],
                                      ["--grid"]], ids=["cell", "grid"])
    def test_library_error_mid_run_is_internal(self, capsys, monkeypatch, mode):
        """A ValueError raised while replications run is our bug: exit 3."""
        def boom(*args, **kwargs):
            raise ValueError("alpha must lie in (0, 1), got 2.0")

        monkeypatch.setattr(stepup, "run_procedures", boom)
        code = main(["simulate", "--test", "bt", "--eta", "3", *mode,
                     "--m", "10", "--reps", "1", "--output", os.devnull])
        assert code == 3
        assert capsys.readouterr().err == (
            "stepfdr: error: internal: alpha must lie in (0, 1), got 2.0\n")

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reads_the_tables_supports_once(self, monkeypatch, fmt):
        """`supports` builds a tuple over every slot on each read, so one
        read per table keeps the command linear in m."""
        reads = []
        supports = pvalue.PValueTable.supports
        monkeypatch.setattr(pvalue.PValueTable, "supports",
                            property(lambda table: reads.append(table) or supports.fget(table)))
        assert main(["support", "--input", HIV, "--test", "fet", "--format", fmt,
                     "--output", os.devnull]) == 0
        assert len(reads) == 1

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


@pytest.mark.parametrize("fixture, test, keep", [
    (METH, "bt", "none"), (HIV, "bt", "none"), (HIV, "fet", "none"), (SAFETY, "bt", "none"),
    (SAFETY, "fet", "none"), (METH, "bt", "methylation"), (HIV, "bt", "hiv"),
    (HIV, "fet", "hiv"),
], ids=["methylation-bt", "hiv-bt", "hiv-fet", "safety-bt", "safety-fet",
        "methylation-bt-filtered", "hiv-bt-filtered", "hiv-fet-filtered"])
def test_analyze_range_checks_the_counts_once(monkeypatch, fixture, test, keep):
    """`load_counts` runs the count range rules on the file's columns, and
    neither a `--filter` (`CountTable.select`) nor the p-value tables run
    them again."""
    calls = []
    check, tables = pvalue.checked_total, ingest.pvalue_tables
    monkeypatch.setattr(pvalue, "checked_total",
                        lambda *args, **kwargs: calls.append("check") or check(*args, **kwargs))

    def traced(*args):
        calls.append("pvalue_tables")
        result = tables(*args)
        calls.append("built")
        return result

    monkeypatch.setattr(ingest, "pvalue_tables", traced)
    code = main(["analyze", "--input", fixture, "--test", test, "--filter", keep,
                 "--output", os.devnull])
    assert code == 0
    assert calls == ["check", "pvalue_tables", "built"]


def test_cli_import_leaves_scipy_unloaded():
    """Only the block-dependence simulation needs scipy, and only a worker
    pool needs multiprocessing, so importing the command line loads neither,
    nor click, which no path uses.
    A bt or fet block grid loads `scipy.special` but not `scipy.stats`."""
    src = str(pathlib.Path(stepfdr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probes = {
        "import sys, stepfdr.cli; "
        "print([m in sys.modules for m in ('scipy', 'multiprocessing', 'click')])":
            "[False, False, False]",
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
