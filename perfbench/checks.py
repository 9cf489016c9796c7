"""Output checks that recompute results without stepfdr's code.

Each check returns a list of problems; an empty list means the output is
correct.  p-values are recomputed exactly with `fractions.Fraction` and
`math.comb`, and the BH set is recomputed from the reported p-values, so a
defect in stepfdr's p-value or step-up code cannot also hide in its check.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

MAX_PROBLEMS = 5


def exact_pvalues(masses: list[int], observed: int) -> tuple[float, float]:
    """Conventional and mid two-sided p-values of outcome index `observed`.

    P = l + e and Q = l + e / 2, where l is the null mass of outcomes less
    likely than the observed one and e the mass of its tie class.
    """
    den = sum(masses)
    f0 = masses[observed]
    at_most = sum(w for w in masses if w <= f0)
    tie = sum(w for w in masses if w == f0)
    return float(Fraction(at_most, den)), float(Fraction(2 * at_most - tie, 2 * den))


def bt_exact(c1: int, c2: int) -> tuple[float, float]:
    n = c1 + c2
    return exact_pvalues([math.comb(n, x) for x in range(n + 1)], c1)


def fet_exact(c1: int, c2: int, n1: int, n2: int) -> tuple[float, float]:
    t = c1 + c2
    lo, hi = max(0, t - n2), min(n1, t)
    masses = [math.comb(n1, x) * math.comb(n2, t - x) for x in range(lo, hi + 1)]
    return exact_pvalues(masses, c1 - lo)


def bh_flags(p: list[float], alpha: float) -> list[bool]:
    """Benjamini-Hochberg rejections: p <= alpha * R / m for the largest
    R with p_(R) <= alpha * R / m (critical values formed as in stepfdr,
    alpha * k first, then / m)."""
    m = len(p)
    r = 0
    for k, value in enumerate(sorted(p), start=1):
        if value <= alpha * k / m:
            r = k
    if r == 0:
        return [False] * m
    threshold = alpha * r / m
    return [value <= threshold for value in p]


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_analyze(rows: list[dict], details_path, summary_path, test: str,
                  alpha: float, sample: list[int]) -> list[str]:
    """Check one `analyze --pvalue both --details-out` run against its input.

    rows are the input table as dicts of strings; sample lists the row
    indices whose p-values are recomputed exactly.
    """
    problems: list[str] = []
    try:
        details = read_rows(details_path)
        with open(summary_path, encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    m = len(rows)
    if len(details) != m or summary.get("m") != m:
        return [f"expected {m} rows, got {len(details)} details and m={summary.get('m')}"]
    try:
        p_conv = [float(d["p_conv"]) for d in details]
        p_mid = [float(d["p_mid"]) for d in details]
        flags = {name: [d[column] == "1" for d in details]
                 for name, column in (("BH", "reject_bh"), ("BH+", "reject_bhplus"),
                                      ("MidPBH+", "reject_midpbhplus"))}
        reported = {name: summary["procedures"][name]["rejections"] for name in flags}
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]

    if [d["id"] for d in details] != [r["id"] for r in rows]:
        problems.append("detail ids differ from the input ids")
    for i in sample:
        r = rows[i]
        c1, c2 = int(r["c1"]), int(r["c2"])
        want = (bt_exact(c1, c2) if test == "bt"
                else fet_exact(c1, c2, int(r["n1"]), int(r["n2"])))
        if (p_conv[i], p_mid[i]) != want:
            problems.append(f"row {r['id']}: p-values {(p_conv[i], p_mid[i])} != exact {want}")
    if not all(0.0 < q < p <= 1.0 for p, q in zip(p_conv, p_mid)):
        problems.append("p-values outside 0 < p_mid < p_conv <= 1")
    if flags["BH"] != bh_flags(p_conv, alpha):
        problems.append("BH flags differ from BH recomputed on the reported p-values")
    if flags["BH+"] != flags["BH"]:
        problems.append("BH+ flags differ from BH flags")
    if any(mid and not conv for mid, conv in zip(flags["MidPBH+"], flags["BH+"])):
        problems.append("MidPBH+ rejects a hypothesis BH+ keeps")
    for name, column in flags.items():
        if reported[name] != sum(column):
            problems.append(f"{name}: reported {reported[name]} rejections, "
                            f"flags sum to {sum(column)}")
    return problems[:MAX_PROBLEMS]


def check_grid(path, cells: int, alphas: int) -> list[str]:
    """Check a block-dependence grid CSV: shape, ranges, BH+ equal to BH,
    and MidPBH+ power at most BH+ power in every (cell, alpha)."""
    try:
        rows = read_rows(path)
        by_key = {}
        for row in rows:
            key = (row["pi0"], row["eta"], row["alpha"])
            by_key.setdefault(key, {})[row["procedure"]] = {
                field: float(row[field]) for field in ("fdr", "fdp_sd", "power", "tdp_sd")}
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable grid: {exc!r}"]
    problems = []
    if len(rows) != cells * alphas * 3 or len(by_key) != cells * alphas:
        problems.append(f"expected {cells * alphas * 3} rows, got {len(rows)}")
    for key, stats in by_key.items():
        if set(stats) != {"BH", "BH+", "MidPBH+"}:
            problems.append(f"{key}: procedures {sorted(stats)}")
            continue
        if not all(0.0 <= s["fdr"] <= 1.0 and 0.0 <= s["power"] <= 1.0
                   for s in stats.values()):
            problems.append(f"{key}: FDR or power outside [0, 1]")
        if stats["BH+"] != stats["BH"]:
            problems.append(f"{key}: BH+ estimates differ from BH")
        if stats["MidPBH+"]["power"] > stats["BH+"]["power"]:
            problems.append(f"{key}: MidPBH+ power exceeds BH+ power")
    return problems[:MAX_PROBLEMS]
