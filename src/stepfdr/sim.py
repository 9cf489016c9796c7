"""Monte Carlo harness for the power and FDR study of the step-up procedures.

Each replication simulates m paired counts, forms exact two-sided p-values
for every test, runs the classical step-up (BH), the adaptive step-up on
conventional p-values (BH+), and the adaptive step-up on mid p-values
(MidPBH+), and records the false discovery proportion and true discovery
proportion of each.  Replication r draws from a fresh generator seeded by
(config.seed, r), so results do not depend on execution order or worker
count.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from itertools import chain, starmap

import numpy as np

from . import pvalue, stepup
from .dist import Pareto, _check_int
from .errors import InvariantViolation

__all__ = [
    "SimConfig",
    "ProcedureStats",
    "SimSummary",
    "gen_copula_uniforms",
    "gen_poisson_pair",
    "gen_binomial_pair",
    "run_cell",
    "run_grid",
    "summaries_to_rows",
    "SIM_ROW_FIELDS",
]

# Default parameter grids of the simulation study.
DEFAULT_PI0S = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_ALPHAS = (0.05, 0.1, 0.15, 0.2)
DEFAULT_ETAS = (3.0, 4.5, 6.0)
DEFAULT_NS = (10, 20, 30)

_BLOCK = 4096   # tests per block of replications, which bounds its arrays


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell.

    test selects the data model: "bt" simulates Poisson pairs tested with
    the exact binomial test, "fet" simulates Binomial pairs tested with
    Fisher's exact test.  Exactly one of eta (bt: Pareto scale of the mean
    law) and n (fet: per-group trial count) must be set.  Under "block"
    dependence, counts are driven through a Gaussian copula with
    equicorrelation rho inside each of `blocks` equal blocks, which must
    divide m; copula_sharing chooses whether both count columns reuse one
    uniform vector ("shared") or draw their own ("per-group").
    """

    test: str
    pi0: float
    alpha: float
    m: int = 200
    eta: float | None = None
    n: int | None = None
    dependence: str = "independent"
    blocks: int = 5
    rho: float = 0.2
    reps: int = 300
    seed: int = 0
    copula_sharing: str = "shared"

    def __post_init__(self) -> None:
        if self.test not in ("bt", "fet"):
            raise ValueError(f"test must be 'bt' or 'fet', got {self.test!r}")
        for name in ("m", "n", "blocks", "reps", "seed"):
            value = getattr(self, name)
            if not (name == "n" and value is None):   # bt cells take no n
                _check_int(value, name)
        for name in ("pi0", "alpha", "eta", "rho"):
            value = getattr(self, name)
            if name == "eta" and value is None:   # fet cells take no eta
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.test == "bt":
            if self.eta is None or self.n is not None:
                raise ValueError("bt cells take eta and no n")
            if not self.eta > 0:
                raise ValueError(f"eta must be > 0, got {self.eta}")
            if self.eta == np.inf:
                raise ValueError(f"eta must be finite, got {self.eta}")
            if self.eta >= 2**63:   # every Pareto mean is >= eta, and counts are int64
                raise ValueError(f"eta must be below 2**63, got {self.eta}")
        else:
            if self.n is None or self.eta is not None:
                raise ValueError("fet cells take n and no eta")
            if self.n < 1:
                raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError(f"pi0 must lie in [0, 1], got {self.pi0}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        m0 = self.pi0 * self.m
        if abs(m0 - round(m0)) > 1e-9:
            raise ValueError(f"pi0 * m must be an integer, got {m0}")
        stepup._check_alpha(self.alpha)
        if self.dependence not in ("independent", "block"):
            raise ValueError(
                f"dependence must be 'independent' or 'block', got {self.dependence!r}")
        if self.dependence == "block":
            if self.blocks < 1 or self.m % self.blocks:
                raise ValueError(f"blocks must be >= 1 and divide m = {self.m}, "
                                 f"got {self.blocks}")
            if not 0.0 <= self.rho < 1.0:
                raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.copula_sharing not in ("shared", "per-group"):
            raise ValueError(
                f"copula_sharing must be 'shared' or 'per-group', "
                f"got {self.copula_sharing!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def m0(self) -> int:
        return int(round(self.pi0 * self.m))

    @property
    def m1(self) -> int:
        return self.m - self.m0


def _generators(rng) -> list[np.random.Generator]:
    return [rng] if isinstance(rng, np.random.Generator) else list(rng)


def gen_copula_uniforms(blocks: int, block_size: int, rho: float,
                        rng) -> np.ndarray:
    """Draws from a block-equicorrelated Gaussian copula, as uniforms.

    Inside each block, latent normals share one factor:
    z = sqrt(rho) * g_block + sqrt(1 - rho) * eps, mapped through the normal
    CDF.  Distinct blocks are independent.  rng is one generator, or a
    sequence of them giving one row each, in order; each only draws normals.
    """
    if _check_int(blocks, "blocks") < 1 or _check_int(block_size, "block_size") < 1:
        raise ValueError("blocks and block_size must be >= 1")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    from scipy import special  # only the block-dependence path needs scipy

    rngs = _generators(rng)
    normals = np.empty((len(rngs), blocks * (block_size + 1)))
    for g, row in zip(rngs, normals):
        g.standard_normal(out=row)   # the block factors g, then eps
    z = (np.sqrt(rho) * np.repeat(normals[:, :blocks], block_size, axis=1)
         + np.sqrt(1.0 - rho) * normals[:, blocks:])
    u = special.ndtr(z)
    return u[0] if isinstance(rng, np.random.Generator) else u


def _counts(config: SimConfig, rngs: list, theta: np.ndarray, draw) -> np.ndarray:
    """The (len(rngs) * m, 2) counts of stacked replications with means or
    proportions theta: `draw(generator, theta)` per replication under
    independence, else one `_count_ppf` call on all their copula uniforms,
    where a row with equal (u, theta) in both columns (every null row of a
    shared copula) inverts column 0 only."""
    if config.dependence == "independent":
        return np.concatenate(list(map(draw, rngs, np.split(theta, len(rngs)))),
                              dtype=np.int64)
    copies = 1 if config.copula_sharing == "shared" else 2   # per-group: u1, then u2
    u = gen_copula_uniforms(config.blocks, config.m // config.blocks, config.rho,
                            [g for g in rngs for _ in range(copies)])
    u = u.reshape(len(rngs), copies, -1)
    u0, u1 = u[:, 0].ravel(), u[:, -1].ravel()   # equal when shared
    apart = (u0 != u1) | (theta[:, 0] != theta[:, 1])
    k = _count_ppf(np.append(u0, u1[apart]), np.append(theta[:, 0], theta[apart, 1]),
                   config.n)
    counts = np.repeat(k[:len(theta), None], 2, axis=1)
    counts[apart, 1] = k[len(theta):]
    return counts


def gen_poisson_pair(config: SimConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Means and Poisson counts, each (m, 2), of a binomial-test replication.

    Every test draws a base mean from Pareto(eta, 5); alternatives multiply
    one side by an enrichment factor from Uniform(3, 5.5), the first half of
    them in column 2 and the rest in column 1.  A sequence of generators
    gives their replications stacked in order, each bit-identical to the
    call on its generator alone.
    """
    if config.test != "bt":
        raise ValueError("gen_poisson_pair requires a bt config")
    m0, m1, rngs = config.m0, config.m1, _generators(rng)
    draws = [(g.random(config.m), g.uniform(3.0, 5.5, m1)) for g in rngs]
    base = Pareto(config.eta, 5.0).quantile(np.array([u for u, _ in draws]))
    enrich = np.array([e for _, e in draws])
    k = m1 // 2
    theta = np.stack([base, base], axis=-1)
    theta[:, m0:m0 + k, 1] = enrich[:, :k] * base[:, m0:m0 + k]
    theta[:, m0 + k:, 0] = enrich[:, k:] * base[:, m0 + k:]
    theta = theta.reshape(-1, 2)
    return theta, _counts(config, rngs, theta, np.random.Generator.poisson)


def _count_ppf(u: np.ndarray, theta: np.ndarray, n: int | None = None) -> np.ndarray:
    """The inverse CDF of Poisson(theta) counts when n is None, else of
    Binomial(n, theta) counts, by its definition: for each entry of the 1-D
    u and theta, the smallest integer k >= 0 with cdf(k) >= u, as int64,
    where cdf is the cephes pdtr(k, theta) or bdtr(k, n, theta).

    The Cornish-Fisher start floor(mean + sd z + (z^2 - 1) skew / 6 + 1/2),
    z = ndtri(u) clipped to a finite range and skew = kappa3 / kappa2 (1 for
    Poisson, 1 - 2 theta for binomial), clipped to [0, n], is within a step
    or two of k; the entries still off walk down while cdf(k - 1) >= u, then
    up while cdf(k) < u.  The CDF reaches exactly 1.0 (bdtr at k = n; it is
    nan beyond), so u = 1 gives a finite k, and u = 0 gives 0.
    """
    from scipy import special  # only the block-dependence path needs scipy

    if n is None:
        cdf, mean, var, skew = special.pdtr, theta, theta, 1.0
    else:
        def cdf(k, p):
            return special.bdtr(k, n, p)
        mean, var, skew = n * theta, n * theta * (1.0 - theta), 1.0 - 2.0 * theta
    z = np.clip(special.ndtri(u), -10.0, 10.0)   # ndtri is -inf at 0, +inf at 1
    start = np.clip(np.floor(mean + np.sqrt(var) * z + (z * z - 1.0) * skew / 6.0 + 0.5),
                    0.0, n)
    if not np.all(start < 2.0 ** 63):   # NaN fails too
        raise ValueError("counts must stay below 2**63, but the largest mean is "
                         f"{float(np.max(mean))!r}")
    k = start.astype(np.int64)
    walk = np.flatnonzero(k > 0)
    while walk.size:
        walk = walk[cdf(k[walk] - 1, theta[walk]) >= u[walk]]
        k[walk] -= 1
        walk = walk[k[walk] > 0]
    walk = np.flatnonzero(cdf(k, theta) < u)
    while walk.size:
        k[walk] += 1
        walk = walk[cdf(k[walk], theta[walk]) < u[walk]]
    return k


def gen_binomial_pair(config: SimConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Proportions and Binomial counts, each (m, 2), of a Fisher-exact
    replication, stacked over a sequence of generators as `gen_poisson_pair`.

    Null tests share one proportion drawn from Uniform(0.2, 0.3);
    alternatives use (0.3, 0.75) for their first half and (0.75, 0.3) for
    the rest.
    """
    if config.test != "fet":
        raise ValueError("gen_binomial_pair requires a fet config")
    m0, m1, rngs = config.m0, config.m1, _generators(rng)
    theta = np.empty((len(rngs), config.m, 2))
    theta[:, :m0, 0] = theta[:, :m0, 1] = [g.uniform(0.2, 0.3, m0) for g in rngs]
    k = m1 // 2
    theta[:, m0:m0 + k] = (0.3, 0.75)
    theta[:, m0 + k:] = (0.75, 0.3)
    theta = theta.reshape(-1, 2)
    return theta, _counts(config, rngs, theta, lambda g, t: g.binomial(config.n, t))


def _fdp_tdp(runs, tables: dict, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
    """FDP and TDP of each of `stepup.PROCEDURES` (rows) for every
    replication and alpha of `stepup.run_procedures`' `runs` on `tables`
    (keyed by flavor); the true nulls are each replication's first m0 tests."""
    fdp, tdp = [], []
    for flavor, r, threshold in zip(stepup.PROCEDURE_FLAVORS.values(),
                                    runs.rejection_count, runs.threshold):
        p = tables[flavor].p.reshape(r.shape[0], 1, -1)
        false = np.count_nonzero(p[..., :m0] <= threshold[..., None], axis=-1)
        fdp.append(false / np.maximum(r, 1))
        tdp.append((r - false) / m1 if m1 else np.zeros(r.shape))
    return np.stack(fdp), np.stack(tdp)


@dataclass(frozen=True)
class ProcedureStats:
    """Monte Carlo estimates for one procedure in one cell."""

    fdr: float
    fdp_sd: float
    power: float
    tdp_sd: float


@dataclass(frozen=True, eq=False)
class SimSummary:
    """All procedure estimates for one cell, keyed by procedure name."""

    config: SimConfig
    stats: dict[str, ProcedureStats]


def _summarize(config: SimConfig, fdp: np.ndarray, tdp: np.ndarray) -> SimSummary:
    """Each procedure's stats from its row of `fdp` and `tdp`, each
    (procedures, replications): one mean and one sd reduction per array."""
    def sd(x):
        return np.std(x, axis=1, ddof=1) if config.reps > 1 else np.zeros(len(x))
    rows = np.column_stack([np.mean(fdp, axis=1), sd(fdp), np.mean(tdp, axis=1), sd(tdp)])
    return SimSummary(config=config, stats={
        name: ProcedureStats(*row) for name, row in zip(stepup.PROCEDURES, rows.tolist())})


def _block(base: SimConfig, alphas: tuple[float, ...], reps: range):
    """FDP and TDP, each (procedure, replication, alpha), of the replications
    `reps` of cell `base`: one generation call for all of them, one
    `pvalue_table` call on their stacked counts and one
    `stepup.run_procedures` call for every alpha.

    An InvariantViolation is re-raised with the replication index and every
    config field (alpha the failing one) appended as ``[replication=r
    field=repr ...]``, enough to regenerate that replication's data.
    """
    gen = gen_poisson_pair if base.test == "bt" else gen_binomial_pair
    counts = gen(base, [np.random.default_rng([base.seed, r]) for r in reps])[1]
    tables = dict(zip(pvalue.PValueFlavor, pvalue.pvalue_table(
        counts[:, 0], counts[:, 1], base.n, base.n)))
    try:
        runs = stepup.run_procedures(*tables.values(), alphas, len(reps))
    except InvariantViolation as exc:
        r, a = exc.pair
        fields = dataclasses.asdict(dataclasses.replace(base, alpha=alphas[a]))
        where = " ".join(f"{k}={v!r}" for k, v in fields.items())
        raise InvariantViolation(f"{exc} [replication={reps[r]} {where}]") from exc
    return _fdp_tdp(runs, tables, base.m0, base.m1)


def _run_alphas(base: SimConfig, alphas: tuple[float, ...]) -> list[SimSummary]:
    """Run one data cell, evaluating every alpha on the same replications.

    Valid because generation consumes no alpha-dependent randomness: the
    summaries are bit-identical to independent run_cell calls per alpha.
    Replications run in blocks of about `_BLOCK` tests, which bounds the
    stacked arrays and changes no output.
    """
    fdp = np.empty((len(alphas), 3, base.reps))
    tdp = np.empty((len(alphas), 3, base.reps))
    block = max(1, _BLOCK // base.m)
    for start in range(0, base.reps, block):
        reps = range(start, min(start + block, base.reps))
        for out, rates in zip((fdp, tdp), _block(base, alphas, reps)):
            out[..., reps.start:reps.stop] = rates.transpose(2, 0, 1)
    return [_summarize(dataclasses.replace(base, alpha=alpha), fdp[a], tdp[a])
            for a, alpha in enumerate(alphas)]


def run_cell(config: SimConfig) -> SimSummary:
    """Monte Carlo estimates of FDR and power for one cell."""
    return _run_alphas(config, (config.alpha,))[0]


def _cells(test: str, pi0s, alphas, params, **fields) -> list[tuple[SimConfig, tuple]]:
    """run_grid's data cells in (pi0, eta-or-n) order, each a SimConfig at
    the first alpha, checked on construction, with every alpha, each
    checked before any cell runs."""
    alphas, pi0s, params = tuple(alphas), tuple(pi0s), tuple(params)
    param = "eta" if test == "bt" else "n"
    for name, grid in (("alpha", alphas), ("pi0", pi0s), (param, params)):
        if not grid:
            raise ValueError(f"the {name} grid must not be empty")
    for alpha in alphas:
        stepup._check_alpha(alpha)
    return [(SimConfig(test=test, pi0=pi0, alpha=alphas[0], **{param: value}, **fields),
             alphas) for pi0 in pi0s for value in params]


def _run_cells(cells: list[tuple[SimConfig, tuple]], workers: int) -> list[SimSummary]:
    """Summaries of `cells` in their order, alphas inner; `workers` > 1 fans
    the cells out to a process pool without changing any output."""
    if _check_int(workers, "workers") < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and len(cells) > 1:
        from multiprocessing import get_context  # only a pool needs it
        with get_context("fork").Pool(min(workers, len(cells))) as pool:
            results = pool.starmap(_run_alphas, cells)
    else:
        results = starmap(_run_alphas, cells)
    return list(chain.from_iterable(results))


def run_grid(test: str, *, pi0s=DEFAULT_PI0S, alphas=DEFAULT_ALPHAS,
             etas=DEFAULT_ETAS, ns=DEFAULT_NS, m: int = 200,
             dependence: str = "independent", blocks: int = 5,
             rho: float = 0.2, reps: int = 300,
             seed: int = 0, copula_sharing: str = "shared",
             workers: int = 1) -> list[SimSummary]:
    """Full factorial over pi0 x (eta | n) x alpha, one test family.

    Returns summaries ordered by (pi0, eta-or-n, alpha).  Data generation is
    shared across alpha within each cell; `workers` > 1 fans data cells out
    to a process pool without changing any output.
    """
    params = tuple(etas) if test == "bt" else tuple(ns)
    return _run_cells(_cells(test, pi0s, alphas, params, m=m, dependence=dependence,
                             blocks=blocks, rho=rho, reps=reps, seed=seed,
                             copula_sharing=copula_sharing), workers)


SIM_ROW_FIELDS = ("test", "dependence", "copula_sharing", "m", "pi0", "alpha",
                  "eta", "n", "reps", "seed", "procedure", "fdr", "fdp_sd",
                  "power", "tdp_sd")


def summaries_to_rows(summaries) -> list[dict]:
    """Flatten summaries to one row per (cell, procedure) for CSV emission:
    the `SIM_ROW_FIELDS` of the cell's config, the procedure and its stats,
    with an unset eta or n left empty."""
    rows = []
    for summary in summaries:
        config = dataclasses.asdict(summary.config)
        for name in stepup.PROCEDURES:
            cells = {**config, "procedure": name, **dataclasses.asdict(summary.stats[name])}
            rows.append({key: "" if cells[key] is None else cells[key]
                         for key in SIM_ROW_FIELDS})
    return rows
