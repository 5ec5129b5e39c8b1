"""Simulator for the coupled-prior Bayes change problem and its small-p limit.

A head start r0 is drawn from the chosen law and coupled to the prior weight
pi0 so that the Bayes statistic starts exactly at r0:

    pi0 = p (r0 + 1) / (q + p (r0 + 1)),        q = 1 - p,

which inverts pi0 q / ((1 - pi0) p) - 1 = r0 and satisfies pi0/p -> r0 + 1 as
p -> 0.  Given pi0 the change time has P(nu = 1) = pi0 and
P(nu = n) = (1 - pi0) p (1 - p)^(n-2) for n >= 2.  The Bayes rule is the
threshold rule on

    R_{q,n} = (R_{q,n-1} + 1) * lr(X_n) / q,    R_{q,0} = r0,

stopping at the first n >= 0 with R_{q,n} >= A, and its risk is

    risk = P(N < nu - 1) + c E(N - nu + 1)^+.

The module estimates (1 - risk)/p along a decreasing p grid, extrapolates the
p -> 0 limit, and compares the intercept against the two competing closed
forms (:func:`qdetect.formulas.c_limit_eq3` / ``c_limit_eq4``), which
:func:`limit_predictions` evaluates exactly, without simulation, so the
intercept's standard error alone sets the z-scores.  It also
checks that the law of r0 conditioned on {nu = 1} approaches the size-biased
transform of the unconditional law, not the unconditional law itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

import numpy as np

from . import formulas
from . import montecarlo as mc
from . import rng as qrng
from .errors import ConfigurationError, UndefinedConditionalError
from .headstart import HeadStartLaw, sr_exact, yakir_mean


@dataclass(frozen=True)
class BayesConfig:
    """Parameters of one coupled Bayes simulation."""

    p: float
    c: float
    A: float
    law: HeadStartLaw

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ConfigurationError(f"p must lie in (0, 1), got {self.p}")
        if not (0.0 <= self.c < math.inf):
            raise ConfigurationError(f"cost c must be finite and nonnegative, got {self.c}")
        if not (0.0 < self.A < math.inf):
            raise ConfigurationError(f"threshold A must be finite and positive, got {self.A}")


def couple_pi0(p: float, r0) -> np.ndarray:
    """The unique pi0 that starts the Bayes statistic at r0."""
    if not (0.0 < p < 1.0):
        raise ConfigurationError(f"p must lie in (0, 1), got {p}")
    r0 = np.asarray(r0, dtype=float) if np.ndim(r0) else float(r0)
    if np.any(np.asarray(r0) < 0):
        raise ConfigurationError("head start must be nonnegative")
    q = 1.0 - p
    return p * (r0 + 1.0) / (q + p * (r0 + 1.0))


def implied_headstart(p: float, pi0) -> np.ndarray:
    """Inverse of :func:`couple_pi0`: pi0 q / ((1 - pi0) p) - 1."""
    q = 1.0 - p
    return pi0 * q / ((1.0 - pi0) * p) - 1.0


def coupling_round_trip(seed: int) -> tuple[bool, float]:
    """``(worst <= 1e-12, worst)``, worst the largest relative error of r0 ->
    pi0 -> r0 over 500 random (p, r0) from ``SeedSequence([seed, 2])``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    ps = rng.uniform(1e-4, 0.99, 500)
    r0s = rng.uniform(0.0, 50.0, 500)
    back = np.array([implied_headstart(p, couple_pi0(p, r)) for p, r in zip(ps, r0s)])
    worst = float(np.max(np.abs(back - r0s) / np.maximum(1.0, r0s)))
    return worst <= 1e-12, worst


def _start_chunk(rng: np.random.Generator, count: int, *, p: float,
                 law: HeadStartLaw):
    """Draw ``count`` head starts r0 and their coupled change times nu."""
    r0 = np.asarray(law.sample(rng, count), dtype=float)
    pi0 = couple_pi0(p, r0)
    u1 = rng.random(count)
    u2 = rng.random(count)
    nu = np.where(u1 < pi0, 1,
                  2 + np.floor(np.log1p(-u2) / math.log1p(-p)).astype(np.int64))
    return r0, nu


def _bayes_runs(rng: np.random.Generator, count: int, config: BayesConfig):
    """Simulate ``count`` Bayes-rule replications on one derived stream;
    returns the arrays (r0, nu, n_stop, truncated)."""
    r0, nu = _start_chunk(rng, count, p=config.p, law=config.law)
    n_stop, truncated = mc._stop_times(rng, r0, config.A, nu, 1.0 - config.p,
                                       mc.DEFAULT_MAX_STEPS)
    return r0, nu, n_stop, truncated


def _bayes_chunk(rng: np.random.Generator, count: int, config: BayesConfig):
    """One row (n, sum risk, sum risk^2, sum miss, truncated) of a chunk."""
    _, nu, n_stop, truncated = _bayes_runs(rng, count, config)
    miss = (n_stop < nu - 1).astype(float)
    dp = np.maximum(0, n_stop - nu + 1).astype(float)
    risk = miss + config.c * dp
    return (np.array([[count, risk.sum(), (risk * risk).sum(), miss.sum(),
                       float(truncated.sum())]]),)


def _identity_chunk(rng: np.random.Generator, count: int, config: BayesConfig):
    """How many replications of a chunk break cond - c dp == cond (1 - c dp)."""
    _, nu, n_stop, _ = _bayes_runs(rng, count, config)
    cond = (n_stop >= nu - 1).astype(float)
    dp = np.maximum(0, n_stop - nu + 1).astype(float)
    broken = cond - config.c * dp != cond * (1.0 - config.c * dp)
    return (np.array([np.count_nonzero(broken)]),)


def risk_identity_exact(config: BayesConfig, reps: int, seed: int, workers: int,
                        tag: str) -> bool:
    """Whether cond - c dp == cond (1 - c dp) bitwise in every replication,
    with cond = 1{N >= nu - 1} and dp = (N - nu + 1)^+."""
    broken = qrng.run_chunked(partial(_identity_chunk, config=config), reps, seed, tag,
                              workers=workers)[0]
    return not broken.any()


@dataclass(frozen=True)
class BayesRiskEstimate:
    """Plug-in risk estimate with its components, all from one replication set."""

    risk: mc.McEstimate
    cond_prob: float        # P_hat(N >= nu - 1)


def estimate_bayes_risk(config: BayesConfig, reps: int, seed: int,
                        workers: int = 1, tag: str = "bayes-risk") -> BayesRiskEstimate:
    """Monte Carlo estimate of risk = P(N < nu - 1) + c E(N - nu + 1)^+."""
    mc.check_reps(reps)
    rows = qrng.run_chunked(partial(_bayes_chunk, config=config), reps, seed, tag,
                            workers=workers)[0]
    n, risk, risk2, miss, trunc = rows.sum(axis=0)
    return BayesRiskEstimate(
        risk=mc.mc_estimate(n, risk, risk2, truncation_count=int(trunc)),
        cond_prob=1.0 - miss / n,
    )


@dataclass(frozen=True)
class LimitRow:
    """One p-grid point of the limit diagnostic."""

    p: float
    reps: int
    ratio: float          # (1 - risk_hat)/p
    stderr: float
    truncation_count: int


@dataclass(frozen=True)
class LimitDiagnostic:
    """The p-grid table plus the linear-in-p extrapolation to p = 0."""

    rows: List[LimitRow]
    intercept: float
    intercept_se: float


def limit_diagnostic(A: float, law: HeadStartLaw, c_star: float,
                     p_grid: Sequence[float], reps: Sequence[int], seed: int,
                     workers: int = 1) -> LimitDiagnostic:
    """Estimate (1 - risk)/p along the grid and extrapolate to p = 0.

    ``p_grid`` holds at least 2 points, and ``reps[j]`` replications run at
    ``p_grid[j]``.  Grid points use independent derived streams, so the
    weighted-least-squares standard error of the intercept is valid.
    """
    p_grid = list(p_grid)
    if len(p_grid) < 2:
        raise ConfigurationError(f"p_grid needs at least 2 points, got {len(p_grid)}")
    if any(p2 >= p1 for p1, p2 in zip(p_grid, p_grid[1:])):
        raise ConfigurationError("p_grid must be strictly decreasing")
    if np.ndim(reps) != 1 or len(reps) != len(p_grid):
        raise ConfigurationError("reps needs one count per p_grid point")
    rows = []
    for j, (p, n_reps) in enumerate(zip(p_grid, map(int, reps))):
        config = BayesConfig(p=p, c=c_star, A=A, law=law)
        est = estimate_bayes_risk(config, n_reps, seed, workers,
                                  tag=f"bayes-limit/{j}")
        if est.risk.stderr == 0:
            # wls_line weights by 1/se^2; a zero SE would read as certainty
            raise ConfigurationError(
                f"zero standard error at p={p} with {n_reps} reps; increase reps")
        rows.append(LimitRow(
            p=p, reps=n_reps,
            ratio=(1.0 - est.risk.mean) / p,
            stderr=est.risk.stderr / p,
            truncation_count=est.risk.truncation_count,
        ))
    intercept, int_se = wls_line(
        np.array([r.p for r in rows]),
        np.array([r.ratio for r in rows]),
        np.array([r.stderr for r in rows]))
    return LimitDiagnostic(rows=rows, intercept=intercept, intercept_se=int_se)


def wls_line(x: np.ndarray, y: np.ndarray, se: np.ndarray):
    """Weighted least squares fit y = a + b x; returns (a, se_a)."""
    w = 1.0 / np.square(se)
    design = np.column_stack([np.ones_like(x), x])
    xtwx = design.T @ (w[:, None] * design)
    cov = np.linalg.inv(xtwx)
    beta = cov @ (design.T @ (w * y))
    return float(beta[0]), float(math.sqrt(cov[0, 0]))


@dataclass(frozen=True)
class LimitVerdict:
    """Which closed-form prediction the extrapolated intercept matches."""

    verdict: str          # "eq3" | "eq4" | "coincide" | "inconclusive"
    z_eq3: float
    z_eq4: float
    gap: float


def compare_limit(diag: LimitDiagnostic, eq3: float, eq4: float) -> LimitVerdict:
    """Score the extrapolated intercept against the two exact predictions."""
    gap = abs(eq3 - eq4)
    z3 = abs(diag.intercept - eq3) / diag.intercept_se
    z4 = abs(diag.intercept - eq4) / diag.intercept_se
    if gap < 1e-12:
        verdict = "coincide"
    elif gap < diag.intercept_se:
        verdict = "inconclusive"
    elif z4 <= 4.0 < z3:
        verdict = "eq4"
    elif z3 <= 4.0 < z4:
        verdict = "eq3"
    else:
        verdict = "inconclusive"
    return LimitVerdict(verdict=verdict, z_eq3=z3, z_eq4=z4, gap=gap)


def limit_predictions(A: float, c_star: float) -> tuple[float, float]:
    """Exact ``(eq3, eq4)`` for the uniform-product head start at ``A``."""
    e1, cross, arl = sr_exact(A)
    e_r0 = yakir_mean(A)
    return (formulas.c_limit_eq3(e_r0, e1, arl, c_star),
            formulas.c_limit_eq4(e_r0, e1, arl, cross, c_star))


@dataclass(frozen=True)
class ConditionalHeadStartReport:
    """Comparison of law(r0 | nu = 1) against the size-biased transform."""

    n_conditional: int
    conditional_mean: float
    conditional_se: float
    l1_vs_size_biased: float
    l1_vs_unconditional: float


def conditional_headstart_diagnostic(law: HeadStartLaw, p: float, reps: int,
                                     seed: int, workers: int = 1
                                     ) -> ConditionalHeadStartReport:
    """Check that conditioning on {nu = 1} size-biases the head start law.

    Neither r0 nor nu depends on the stopping rule, so no run is simulated.
    Bins are widened automatically when the conditional sample is small
    (nu = 1 is rare for small p); the achieved conditional count is reported
    so callers can judge the power of the comparison.
    """
    if not (0.0 < p <= 0.01):
        raise ConfigurationError(f"diagnostic is meaningful for 0 < p <= 0.01, got {p}")
    mc.check_reps(reps)
    r0, nu = qrng.run_chunked(partial(_start_chunk, p=p, law=law), reps, seed,
                              "bayes-cond", workers=workers)
    sel = nu == 1
    cond_r0 = r0[sel]
    m = int(cond_r0.size)
    if m < 2:
        raise UndefinedConditionalError(
            f"only {m} replications had nu = 1; increase reps", rejected=reps - m)
    n_bins = int(min(40, max(5, m // 200)))
    hi = max(float(max(r0.max(), cond_r0.max())), 1e-9)
    edges = np.linspace(0.0, hi * (1 + 1e-9), n_bins + 1)
    cond_hist, _ = np.histogram(cond_r0, bins=edges)
    cond_hist = cond_hist / m
    # size-biased reference from the unconditional sample, weights (x + 1)
    weights = r0 + 1.0
    sb_hist, _ = np.histogram(r0, bins=edges, weights=weights)
    sb_hist = sb_hist / weights.sum()
    un_hist, _ = np.histogram(r0, bins=edges)
    un_hist = un_hist / r0.size
    return ConditionalHeadStartReport(
        n_conditional=m,
        conditional_mean=float(cond_r0.mean()),
        conditional_se=float(cond_r0.std(ddof=1) / math.sqrt(m)),
        l1_vs_size_biased=float(np.abs(cond_hist - sb_hist).sum()),
        l1_vs_unconditional=float(np.abs(cond_hist - un_hist).sum()),
    )
