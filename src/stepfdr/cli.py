"""Command-line front end.

Subcommands: analyze (count table in, rejection report out), simulate
(Monte Carlo cells or the full study grid), support (p-value supports and
the pooled max-CDF of a dataset), compare (mid versus conventional
rejection counts).  Exit codes: 0 success, 1 usage error, 2 data error,
3 internal error (an invariant violation, any other ValueError from the
library, or a MemoryError).  Identical inputs and seeds produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

# pvalue first: compiled before its importers, it lowers the peak of an uncached import.
from .pvalue import PValueFlavor
from .dist import _check_int
from .errors import DataError, InvariantViolation
from . import ingest, stepup


_FLAVOR_PROCEDURES = {   # --pvalue choice -> the procedures that read it
    **{flavor.value: tuple(name for name, read in stepup.PROCEDURE_FLAVORS.items()
                           if read is flavor) for flavor in PValueFlavor},
    "both": stepup.PROCEDURES,
}
_FILTERS = {"methylation": ingest.filter_methylation, "hiv": ingest.filter_hiv}


def _level(text: str) -> float:
    """A level strictly between 0 and 1; NaN compares false with both, so it fails."""
    try:
        level = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid float.") from None
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"{level} is not in the range 0.0<x<1.0.")
    return level


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as an ArgumentError instead of exiting."""

    def __init__(self, **kwargs):   # no abbreviated options: --inp is no --input
        super().__init__(**kwargs, exit_on_error=False, allow_abbrev=False)

    def error(self, message):
        raise argparse.ArgumentError(None, message)

    def format_help(self):
        return super().format_help().replace("usage: ", "Usage: ", 1)


@contextlib.contextmanager
def _output(path: str):
    """The text handle to write `path` through: standard output for "-",
    otherwise the file, opened once and closed on leaving."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _csv_writer(handle, fieldnames):
    """A csv.writer on `handle` that has written the header line."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(fieldnames)
    return writer


def _write_json(path: str, payload) -> None:
    with _output(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def analyze(input_path, test, alpha, flavor, filter_name, fmt, output,
            details_out) -> None:
    """Run the step-up procedures on a two-group count table."""
    table = ingest.load_counts(input_path)
    loaded = len(table)
    if filter_name in _FILTERS:
        table = table.select(_FILTERS[filter_name](table))
    report = ingest.analyze(table, test, alpha, _FLAVOR_PROCEDURES[flavor])
    if details_out is not None:
        with _output(details_out) as handle:
            _csv_writer(handle, ingest.DETAIL_FIELDS)
            ingest.report_rows(report, handle)
    if fmt == "json":
        summary = ingest.report_summary(report)
        summary["filter"] = filter_name
        summary["records_loaded"] = loaded
        _write_json(output, summary)
    else:
        with _output(output) as handle:
            _csv_writer(handle, ingest.SUMMARY_FIELDS).writerows(
                (report.test, report.alpha, report.m, name, result.rejection_count,
                 "" if result.threshold is None else repr(result.threshold))
                for name, result in report.results.items())


def simulate(test, grid, pi0, alpha, eta, n_trials, dependence,
             copula_sharing, m, reps, seed, output) -> None:
    """Estimate FDR and power of BH, BH+ and MidPBH+ by Monte Carlo.

    Worker-count override: set STEPFDR_WORKERS to parallelize --grid runs
    across processes (the output is identical for any worker count).
    """
    from . import sim   # only this command needs the simulation
    workers = 1
    try:   # only checking the parameters is a usage matter
        other, value = ("--n", n_trials) if test == "bt" else ("--eta", eta)
        if value is not None:
            raise ValueError(f"--test {test} takes no {other}")
        param = eta if test == "bt" else n_trials
        pi0s, alphas, params = (pi0,), (alpha,), (param,)   # one cell, unless --grid
        if grid:
            if pi0 is not None or alpha is not None:
                raise ValueError("--grid uses the built-in pi0/alpha grids; drop --pi0/--alpha")
            try:
                workers = int(raw := os.environ.get("STEPFDR_WORKERS", "1"))
            except ValueError:
                raise ValueError(f"STEPFDR_WORKERS must be an integer, got {raw!r}")
            _check_int(workers, "STEPFDR_WORKERS", 1)
            pi0s, alphas = sim.DEFAULT_PI0S, sim.DEFAULT_ALPHAS
            if param is None:
                params = sim.DEFAULT_ETAS if test == "bt" else sim.DEFAULT_NS
        elif pi0 is None or alpha is None:
            raise ValueError("single-cell mode needs --pi0 and --alpha (or pass --grid)")
        cells = sim._cells(test, pi0s, alphas, params, m=m, reps=reps, seed=seed,
                           dependence={"indep": "independent", "block": "block"}[dependence],
                           copula_sharing=copula_sharing)
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from exc
    summaries = sim._run_cells(cells, workers)
    with _output(output) as handle:
        writer = csv.DictWriter(handle, sim.SIM_ROW_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(sim.summaries_to_rows(summaries))


def support(input_path, test, flavor, fmt, output) -> None:
    """Dump each hypothesis's p-value support and the pooled max-CDF."""
    counts = ingest.load_counts(input_path)
    conv, mid = ingest.pvalue_tables(counts, test)
    table = mid if flavor == "mid" else conv
    slots = table.supports   # a property that builds its tuple on each read
    max_cdf = stepup.build_max_cdf(table)
    supports = [slots[j] for j in table.support_index]
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
        _write_json(output, payload)
    else:
        with _output(output) as handle:
            writer = _csv_writer(handle, ("kind", "id", "point", "cdf"))
            for rid, sup in zip(counts.ids, supports):
                writer.writerows(("support", rid, repr(float(point)), repr(float(value)))
                                 for point, value in zip(sup.points, sup.cdf_values))
            writer.writerows(("max_cdf", "", repr(float(point)), repr(float(value)))
                             for point, value in zip(max_cdf.grid, max_cdf.values))


def compare(input_path, test, alpha, output) -> None:
    """Report mid versus conventional rejection counts and the count-ordering condition."""
    summary = ingest.report_summary(ingest.analyze(ingest.load_counts(input_path), test,
                                                   alpha, ("BH+", "MidPBH+")))
    fields = {**summary, **summary["mid_vs_conventional"]}
    _write_json(output, {key: fields[key] for key in (
        "schema_version", "test", "alpha", "m", "r_cp", "r_mp", "condition_holds")})


def _parser(argv: list[str], required: bool = True) -> _Parser:
    """The command line: one subparser per command, which sets `run` to it; only the
    command `argv` names gets its options, and with `required` false none is required."""
    parser = _Parser(prog="stepfdr", description="Adaptive FDR step-up procedures "
                     "for exact two-group count tests.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=required)
    named = next((arg for arg in argv if not arg.startswith("-")), None)

    def command(run, *, table=True):
        """The option adder of `run`'s subparser, given --input (for a `table`) and --test."""
        sub = commands.add_parser(run.__name__, help=run.__doc__.split("\n")[0],
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        def option(*flags, help="", **kwargs):   # each default shown as "[default: ...]"
            tail = " [default: %(default)s]" if "default" in kwargs else ""
            if run.__name__ == named:
                sub.add_argument(*flags, **kwargs, help=help + tail)
        if table:
            option("--input", dest="input_path", metavar="PATH", required=required,
                   help="Count table (CSV, or TSV by .tsv extension).")
        option("--test", choices=("bt", "fet"), required=required,
               help="bt: exact binomial test; fet: Fisher's exact test.")
        return option

    option = command(analyze)
    option("--alpha", type=_level, default=0.05, help="Nominal FDR level.")
    option("--pvalue", dest="flavor", choices=tuple(_FLAVOR_PROCEDURES), default="both",
           help="conventional runs BH and BH+; mid runs MidPBH+; both runs all three.")
    option("--filter", dest="filter_name", choices=(*_FILTERS, "none"),
           default="none", help="Application filter applied before the analysis.")
    option("--format", dest="fmt", choices=("json", "csv"), default="json",
           help="Summary format.")
    option("--output", default="-", help="Summary destination ('-' for standard output).")
    option("--details-out", help="Optional per-hypothesis CSV destination.")
    option = command(simulate, table=False)
    option("--grid", action="store_true",
           help="Run the full factorial study for the chosen test.")
    option("--pi0", type=float, help="True-null proportion (single-cell mode).")
    option("--alpha", type=_level, help="Nominal FDR level (single-cell mode).")
    option("--eta", type=float, help="Pareto scale of the mean law (bt only).")
    option("--n", dest="n_trials", type=int, help="Per-group trial count (fet only).")
    option("--dependence", choices=("indep", "block"), default="indep")
    option("--copula-sharing", choices=("shared", "per-group"), default="shared",
           help="Under block dependence, reuse one uniform draw for both count "
                "columns or draw per column.")
    option("--m", type=int, default=200, help="Hypotheses per replication.")
    option("--reps", type=int, default=300)
    option("--seed", type=int, default=0)
    option("--output", default="-")
    option = command(support)
    option("--pvalue", dest="flavor", choices=tuple(flavor.value for flavor in PValueFlavor),
           default="conventional")
    option("--format", dest="fmt", choices=("json", "csv"), default="json")
    option("--output", default="-")
    option = command(compare)
    option("--alpha", type=_level, default=0.05)
    option("--output", default="-")
    return parser


def _fail(code: int, category: str, message) -> int:
    print(f"stepfdr: error: {category}: " + " ".join(str(message).split()), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping error classes to documented exit codes."""
    argv = (sys.argv[1:] if argv is None else argv) or ["--help"]   # a bare stepfdr prints the help
    try:
        args = vars(_parser(argv).parse_args(argv))
        args.pop("run")(**args)
    except SystemExit as exc:   # --help, after printing the help
        return exc.code
    except argparse.ArgumentError as exc:
        name, message = exc.argument_name, exc.message
        if message.startswith("the following arguments are required"):   # unknown ones first
            extras = _parser(argv, required=False).parse_known_args(argv)[1]
            message = f"unrecognized arguments: {' '.join(extras)}" if extras else message
        return _fail(1, "usage", f"Invalid value for '{name}': {message}" if name else message)
    except KeyboardInterrupt:
        return _fail(1, "usage", "aborted")
    except (DataError, OSError, UnicodeDecodeError, csv.Error) as exc:
        return _fail(2, "data", exc)
    except (InvariantViolation, ValueError, MemoryError) as exc:
        return _fail(3, "internal", str(exc) or "out of memory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
