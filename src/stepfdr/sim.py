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
    "PROCEDURES",
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

PROCEDURES = stepup.PROCEDURES

# Default parameter grids of the simulation study.
DEFAULT_PI0S = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_ALPHAS = (0.05, 0.1, 0.15, 0.2)
DEFAULT_ETAS = (3.0, 4.5, 6.0)
DEFAULT_NS = (10, 20, 30)


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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
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


def gen_copula_uniforms(blocks: int, block_size: int, rho: float,
                        rng: np.random.Generator) -> np.ndarray:
    """One draw from a block-equicorrelated Gaussian copula, as uniforms.

    Inside each block, latent normals share one factor:
    z = sqrt(rho) * g_block + sqrt(1 - rho) * eps, mapped through the normal
    CDF.  Distinct blocks are independent.
    """
    if blocks < 1 or block_size < 1:
        raise ValueError("blocks and block_size must be >= 1")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    from scipy import special  # only the block-dependence path needs scipy

    g = rng.standard_normal(blocks)
    eps = rng.standard_normal(blocks * block_size)
    z = np.sqrt(rho) * np.repeat(g, block_size) + np.sqrt(1.0 - rho) * eps
    return special.ndtr(z)


def _copula_matrix(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    block_size = config.m // config.blocks
    u1 = gen_copula_uniforms(config.blocks, block_size, config.rho, rng)
    if config.copula_sharing == "shared":
        return np.stack([u1, u1], axis=1)
    u2 = gen_copula_uniforms(config.blocks, block_size, config.rho, rng)
    return np.stack([u1, u2], axis=1)


def gen_poisson_pair(config: SimConfig,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Means and Poisson counts for one binomial-test replication.

    Every test draws a base mean from Pareto(eta, 5); alternatives multiply
    one side by an enrichment factor from Uniform(3, 5.5), the first half of
    them in column 2 and the rest in column 1.
    """
    if config.test != "bt":
        raise ValueError("gen_poisson_pair requires a bt config")
    m, m0, m1 = config.m, config.m0, config.m1
    base = Pareto(config.eta, 5.0).quantile(rng.random(m))
    enrich = rng.uniform(3.0, 5.5, m1)
    k = m1 // 2
    theta = np.stack([base, base.copy()], axis=1)
    theta[m0:m0 + k, 1] = enrich[:k] * base[m0:m0 + k]
    theta[m0 + k:, 0] = enrich[k:] * base[m0 + k:]
    if config.dependence == "independent":
        counts = rng.poisson(theta)
    else:
        counts = _count_ppf(_copula_matrix(config, rng), theta)
    return theta, counts.astype(np.int64)


def _count_ppf(u: np.ndarray, theta: np.ndarray, n: int | None = None) -> np.ndarray:
    """The inverse CDF of Poisson(theta) counts when n is None, else of
    Binomial(n, theta) counts, by its definition: elementwise, the smallest
    integer k >= 0 with cdf(k) >= u, as int64, where cdf is the cephes
    pdtr(k, theta) or bdtr(k, n, theta).

    The Cornish-Fisher start floor(mean + sd z + (z^2 - 1) skew / 6 + 1/2),
    z = ndtri(u) clipped to a finite range and skew = kappa3 / kappa2 (1 for
    Poisson, 1 - 2 theta for binomial), clipped to [0, n], is within a step
    or two of k; the entries still off walk down while cdf(k - 1) >= u, then
    up while cdf(k) < u.  The CDF reaches exactly 1.0 (bdtr at k = n; it is
    nan beyond), so u = 1 gives a finite k, and u = 0 gives 0.
    """
    from scipy import special  # only the block-dependence path needs scipy

    shape = np.shape(u)
    u, theta = np.ravel(u), np.ravel(theta)
    if n is None:
        cdf, mean, var, skew = special.pdtr, theta, theta, 1.0
    else:
        def cdf(k, p):
            return special.bdtr(k, n, p)
        mean, var, skew = n * theta, n * theta * (1.0 - theta), 1.0 - 2.0 * theta
    z = np.clip(special.ndtri(u), -10.0, 10.0)   # ndtri is -inf at 0, +inf at 1
    start = np.floor(mean + np.sqrt(var) * z + (z * z - 1.0) * skew / 6.0 + 0.5)
    k = np.clip(start, 0.0, n).astype(np.int64)
    walk = np.flatnonzero(k > 0)
    while walk.size:
        walk = walk[cdf(k[walk] - 1, theta[walk]) >= u[walk]]
        k[walk] -= 1
        walk = walk[k[walk] > 0]
    walk = np.flatnonzero(cdf(k, theta) < u)
    while walk.size:
        k[walk] += 1
        walk = walk[cdf(k[walk], theta[walk]) < u[walk]]
    return k.reshape(shape)


def gen_binomial_pair(config: SimConfig,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Proportions and Binomial counts for one Fisher-exact replication.

    Null tests share one proportion drawn from Uniform(0.2, 0.3);
    alternatives use (0.3, 0.75) for their first half and (0.75, 0.3) for
    the rest.
    """
    if config.test != "fet":
        raise ValueError("gen_binomial_pair requires a fet config")
    m, m0, m1 = config.m, config.m0, config.m1
    theta = np.empty((m, 2))
    theta[:m0, 0] = theta[:m0, 1] = rng.uniform(0.2, 0.3, m0)
    k = m1 // 2
    theta[m0:m0 + k] = (0.3, 0.75)
    theta[m0 + k:] = (0.75, 0.3)
    if config.dependence == "independent":
        counts = rng.binomial(config.n, theta)
    else:
        counts = _count_ppf(_copula_matrix(config, rng), theta, config.n)
    return theta, counts.astype(np.int64)


def _generate(config: SimConfig, rng: np.random.Generator):
    """Counts of one replication, and its (conv, mid, mc_conv, mc_mid)
    p-value tables and max-CDFs: bt when config.n is None, else fet."""
    gen = gen_poisson_pair if config.test == "bt" else gen_binomial_pair
    _, counts = gen(config, rng)
    conv, mid = pvalue.pvalue_table(counts[:, 0], counts[:, 1], config.n, config.n)
    return counts, (conv, mid, stepup.build_max_cdf(conv.supports),
                    stepup.build_max_cdf(mid.supports))


def _fdp_tdp(rejected: np.ndarray, m0: int, m1: int) -> tuple[float, float]:
    r = int(rejected.size)
    false = int(np.count_nonzero(rejected < m0))
    fdp = false / max(r, 1)
    tdp = (r - false) / m1 if m1 else 0.0
    return fdp, tdp


def _evaluate(tables, config: SimConfig,
              alpha: float) -> tuple[tuple[float, float], ...]:
    """FDP and TDP of each of `PROCEDURES` on one replication's
    (conv, mid, mc_conv, mc_mid) tables.

    The true nulls are the first config.m0 tests.
    """
    conv, mid, mc_conv, mc_mid = tables
    results, _ = stepup.run_procedures(conv, mid, alpha, max_cdfs=(mc_conv, mc_mid))
    return tuple(_fdp_tdp(results[name].rejected, config.m0, config.m1)
                 for name in PROCEDURES)


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
    stats = {}
    for j, name in enumerate(PROCEDURES):
        fdp_sd = float(np.std(fdp[j], ddof=1)) if config.reps > 1 else 0.0
        tdp_sd = float(np.std(tdp[j], ddof=1)) if config.reps > 1 else 0.0
        stats[name] = ProcedureStats(fdr=float(np.mean(fdp[j])), fdp_sd=fdp_sd,
                                     power=float(np.mean(tdp[j])), tdp_sd=tdp_sd)
    return SimSummary(config=config, stats=stats)


def _run_alphas(base: SimConfig, alphas: tuple[float, ...]) -> list[SimSummary]:
    """Run one data cell, evaluating every alpha on the same replications.

    Valid because generation consumes no alpha-dependent randomness: the
    summaries are bit-identical to independent run_cell calls per alpha.
    An InvariantViolation is re-raised with the replication index and every
    config field (alpha the failing one) appended as ``[replication=r
    field=repr ...]``, enough to regenerate that replication's data.
    """
    n_alpha = len(alphas)
    fdp = np.empty((n_alpha, 3, base.reps))
    tdp = np.empty((n_alpha, 3, base.reps))
    for r in range(base.reps):
        rng = np.random.default_rng([base.seed, r])
        _, tables = _generate(base, rng)
        for a, alpha in enumerate(alphas):
            try:
                result = _evaluate(tables, base, alpha)
            except InvariantViolation as exc:
                fields = dataclasses.asdict(dataclasses.replace(base, alpha=alpha))
                where = " ".join(f"{k}={v!r}" for k, v in fields.items())
                raise InvariantViolation(
                    f"{exc} [replication={r} {where}]") from exc
            for j, (f, t) in enumerate(result):
                fdp[a, j, r] = f
                tdp[a, j, r] = t
    return [_summarize(dataclasses.replace(base, alpha=alpha), fdp[a], tdp[a])
            for a, alpha in enumerate(alphas)]


def run_cell(config: SimConfig) -> SimSummary:
    """Monte Carlo estimates of FDR and power for one cell."""
    return _run_alphas(config, (config.alpha,))[0]


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
    alphas = tuple(alphas)
    tasks = []
    for pi0 in pi0s:
        for param in params:
            base = SimConfig(
                test=test, pi0=pi0, alpha=alphas[0], m=m,
                eta=param if test == "bt" else None,
                n=param if test == "fet" else None,
                dependence=dependence, blocks=blocks, rho=rho, reps=reps,
                seed=seed, copula_sharing=copula_sharing)
            tasks.append((base, alphas))
    if workers > 1 and len(tasks) > 1:
        from multiprocessing import get_context  # only a pool needs it
        with get_context("fork").Pool(min(workers, len(tasks))) as pool:
            results = pool.starmap(_run_alphas, tasks)
    else:
        results = starmap(_run_alphas, tasks)
    return list(chain.from_iterable(results))


SIM_ROW_FIELDS = ("test", "dependence", "copula_sharing", "m", "pi0", "alpha",
                  "eta", "n", "reps", "seed", "procedure", "fdr", "fdp_sd",
                  "power", "tdp_sd")


def summaries_to_rows(summaries) -> list[dict]:
    """Flatten summaries to one row per (cell, procedure) for CSV emission."""
    rows = []
    for summary in summaries:
        config = summary.config
        for name in PROCEDURES:
            stats = summary.stats[name]
            rows.append({
                "test": config.test,
                "dependence": config.dependence,
                "copula_sharing": config.copula_sharing,
                "m": config.m,
                "pi0": config.pi0,
                "alpha": config.alpha,
                "eta": "" if config.eta is None else config.eta,
                "n": "" if config.n is None else config.n,
                "reps": config.reps,
                "seed": config.seed,
                "procedure": name,
                "fdr": stats.fdr,
                "fdp_sd": stats.fdp_sd,
                "power": stats.power,
                "tdp_sd": stats.tdp_sd,
            })
    return rows
