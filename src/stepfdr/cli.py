"""Command-line front end.

Subcommands: analyze (count table in, rejection report out), simulate
(Monte Carlo cells or the full study grid), support (p-value supports and
the pooled max-CDF of a dataset), compare (mid versus conventional
rejection counts).  Exit codes: 0 success, 1 usage error, 2 data error,
3 internal error (an invariant violation or any other ValueError from the
library).  Identical inputs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import sys

import click

from . import ingest, sim, stepup
from .errors import DataError, InvariantViolation
from .pvalue import PValueFlavor

_LEVEL = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)

_FLAVOR_PROCEDURES = {   # --pvalue choice -> the procedures that read it
    **{flavor.value: tuple(name for name, read in stepup.PROCEDURE_FLAVORS.items()
                           if read is flavor) for flavor in PValueFlavor},
    "both": stepup.PROCEDURES,
}


@click.group(name="stepfdr")
def cli() -> None:
    """Adaptive FDR step-up procedures for exact two-group count tests."""


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _csv_text(fieldnames, rows) -> str:
    """A header line and one line per row; each row lists its cells in field order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


@cli.command()
@click.option("--input", "input_path", required=True,
              help="Count table (CSV, or TSV by .tsv extension).")
@click.option("--test", type=click.Choice(["bt", "fet"]), required=True,
              help="bt: exact binomial test; fet: Fisher's exact test.")
@click.option("--alpha", type=_LEVEL, default=0.05, show_default=True,
              help="Nominal FDR level.")
@click.option("--pvalue", "flavor", type=click.Choice(list(_FLAVOR_PROCEDURES)),
              default="both", show_default=True,
              help="conventional runs BH and BH+; mid runs MidPBH+; both runs all three.")
@click.option("--filter", "filter_name",
              type=click.Choice(["methylation", "hiv", "none"]),
              default="none", show_default=True,
              help="Application filter applied before the analysis.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True, help="Summary format.")
@click.option("--output", default="-", show_default=True,
              help="Summary destination ('-' for standard output).")
@click.option("--details-out", default=None,
              help="Optional per-hypothesis CSV destination.")
def analyze(input_path, test, alpha, flavor, filter_name, fmt, output,
            details_out) -> None:
    """Run the step-up procedures on a two-group count table."""
    table = ingest.load_counts(input_path)
    loaded = len(table)
    if filter_name == "methylation":
        table = table.select(ingest.filter_methylation(table))
    elif filter_name == "hiv":
        table = table.select(ingest.filter_hiv(table))
    report = ingest.analyze(table, test, alpha, _FLAVOR_PROCEDURES[flavor])
    if details_out is not None:
        _write_output(details_out, _csv_text(ingest.DETAIL_FIELDS, ())
                      + "".join(ingest.report_rows(report)))
    if fmt == "json":
        summary = ingest.report_summary(report)
        summary["filter"] = filter_name
        summary["records_loaded"] = loaded
        text = _json_text(summary)
    else:
        rows = []
        for name in report.procedures:
            result = report.results[name]
            rows.append((report.test, report.alpha, report.m, name,
                         result.rejection_count,
                         "" if result.threshold is None else repr(result.threshold)))
        text = _csv_text(ingest.SUMMARY_FIELDS, rows)
    _write_output(output, text)


@cli.command()
@click.option("--test", type=click.Choice(["bt", "fet"]), required=True)
@click.option("--grid", is_flag=True,
              help="Run the full factorial study for the chosen test.")
@click.option("--pi0", type=click.FloatRange(0.0, 1.0), default=None,
              help="True-null proportion (single-cell mode).")
@click.option("--alpha", type=_LEVEL, default=None,
              help="Nominal FDR level (single-cell mode).")
@click.option("--eta", type=float, default=None,
              help="Pareto scale of the mean law (bt only).")
@click.option("--n", "n_trials", type=click.IntRange(min=1), default=None,
              help="Per-group trial count (fet only).")
@click.option("--dependence", type=click.Choice(["indep", "block"]),
              default="indep", show_default=True)
@click.option("--copula-sharing", type=click.Choice(["shared", "per-group"]),
              default="shared", show_default=True,
              help="Under block dependence, reuse one uniform draw for both count columns or draw per column.")
@click.option("--m", "m", type=click.IntRange(min=1), default=200,
              show_default=True, help="Hypotheses per replication.")
@click.option("--reps", type=click.IntRange(min=1), default=300,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--output", default="-", show_default=True)
def simulate(test, grid, pi0, alpha, eta, n_trials, dependence,
             copula_sharing, m, reps, seed, output) -> None:
    """Estimate FDR and power of BH, BH+ and MidPBH+ by Monte Carlo.

    Worker-count override: set STEPFDR_WORKERS to parallelize --grid runs
    across processes (the output is identical for any worker count).
    """
    dependence = {"indep": "independent", "block": "block"}[dependence]
    other, value = ("--n", n_trials) if test == "bt" else ("--eta", eta)
    if value is not None:
        raise click.UsageError(f"--test {test} takes no {other}")
    try:
        if grid:
            if pi0 is not None or alpha is not None:
                raise click.UsageError("--grid uses the built-in pi0/alpha grids; "
                                       "drop --pi0/--alpha")
            try:
                workers = int(raw := os.environ.get("STEPFDR_WORKERS", "1"))
            except ValueError:
                raise ValueError(f"STEPFDR_WORKERS must be an integer, got {raw!r}")
            if workers < 1:
                raise ValueError(f"STEPFDR_WORKERS must be >= 1, got {workers}")
            etas = sim.DEFAULT_ETAS if eta is None else (eta,)
            ns = sim.DEFAULT_NS if n_trials is None else (n_trials,)
            summaries = sim.run_grid(
                test, etas=etas, ns=ns, m=m, dependence=dependence,
                reps=reps, seed=seed, copula_sharing=copula_sharing,
                workers=workers)
        else:
            if pi0 is None or alpha is None:
                raise click.UsageError("single-cell mode needs --pi0 and --alpha "
                                       "(or pass --grid)")
            config = sim.SimConfig(
                test=test, pi0=pi0, alpha=alpha, m=m, eta=eta, n=n_trials,
                dependence=dependence, rho=0.2, reps=reps, seed=seed,
                copula_sharing=copula_sharing)
            summaries = [sim.run_cell(config)]
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    cells = operator.itemgetter(*sim.SIM_ROW_FIELDS)
    _write_output(output, _csv_text(sim.SIM_ROW_FIELDS,
                                    map(cells, sim.summaries_to_rows(summaries))))


@cli.command()
@click.option("--input", "input_path", required=True)
@click.option("--test", type=click.Choice(["bt", "fet"]), required=True)
@click.option("--pvalue", "flavor", type=click.Choice(["conventional", "mid"]),
              default="conventional", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--output", default="-", show_default=True)
def support(input_path, test, flavor, fmt, output) -> None:
    """Dump each hypothesis's p-value support and the pooled max-CDF."""
    counts = ingest.load_counts(input_path)
    conv, mid = ingest.pvalue_tables(counts, test)
    table = mid if flavor == "mid" else conv
    max_cdf = stepup.build_max_cdf(table.supports)
    supports = [table.supports[j] for j in table.support_index]
    if fmt == "json":
        payload = {
            "schema_version": 1,
            "test": test,
            "pvalue": flavor,
            "m": len(counts),
            "supports": [
                {
                    "id": rid,
                    "points": [float(x) for x in sup.points],
                    "cdf": [float(x) for x in sup.cdf_values],
                }
                for rid, sup in zip(counts.ids, supports)
            ],
            "max_cdf": {
                "grid": [float(x) for x in max_cdf.grid],
                "values": [float(x) for x in max_cdf.values],
            },
        }
        text = _json_text(payload)
    else:
        rows = []
        for rid, sup in zip(counts.ids, supports):
            for point, value in zip(sup.points, sup.cdf_values):
                rows.append(("support", rid, repr(float(point)), repr(float(value))))
        for point, value in zip(max_cdf.grid, max_cdf.values):
            rows.append(("max_cdf", "", repr(float(point)), repr(float(value))))
        text = _csv_text(("kind", "id", "point", "cdf"), rows)
    _write_output(output, text)


@cli.command()
@click.option("--input", "input_path", required=True)
@click.option("--test", type=click.Choice(["bt", "fet"]), required=True)
@click.option("--alpha", type=_LEVEL, default=0.05, show_default=True)
@click.option("--output", default="-", show_default=True)
def compare(input_path, test, alpha, output) -> None:
    """Report mid versus conventional rejection counts and the count-ordering condition."""
    report = ingest.analyze(ingest.load_counts(input_path), test, alpha,
                            ("BH+", "MidPBH+"))
    comparison = report.comparison
    payload = {
        "schema_version": 1,
        "test": test,
        "alpha": alpha,
        "m": report.m,
        "r_cp": comparison.r_cp,
        "r_mp": comparison.r_mp,
        "condition_holds": comparison.condition_holds,
    }
    _write_output(output, _json_text(payload))


def _diagnostic(category: str, message: str) -> str:
    return f"stepfdr: error: {category}: " + " ".join(str(message).split())


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping error classes to documented exit codes."""
    try:
        cli.main(args=argv, prog_name="stepfdr", standalone_mode=False)
    except click.exceptions.NoArgsIsHelpError as exc:
        print(exc.format_message())
        return 0
    except click.exceptions.Abort:
        print(_diagnostic("usage", "aborted"), file=sys.stderr)
        return 1
    except click.ClickException as exc:
        print(_diagnostic("usage", exc.format_message()), file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError, csv.Error) as exc:
        print(_diagnostic("data", str(exc)), file=sys.stderr)
        return 2
    except (InvariantViolation, ValueError) as exc:
        print(_diagnostic("internal", str(exc)), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
