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
forms (:func:`qdetect.formulas.c_limit_eq3` / ``c_limit_eq4``).  It also
checks that the law of r0 conditioned on {nu = 1} approaches the size-biased
transform of the unconditional law, not the unconditional law itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from . import formulas
from . import montecarlo as mc
from . import rng as qrng
from .errors import ConfigurationError, UndefinedConditionalError
from .headstart import HeadStartLaw, LawKind, size_biased_mean, yakir_mean


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
        if self.c < 0:
            raise ConfigurationError(f"cost c must be nonnegative, got {self.c}")
        if self.A <= 0:
            raise ConfigurationError(f"threshold A must be positive, got {self.A}")


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


# column layout of the reduced per-chunk statistics
_COLS = ["n", "risk", "risk2", "miss", "dp", "trunc"]


def _bayes_chunk(rng: np.random.Generator, count: int, *, p: float, c: float,
                 A: float, law: HeadStartLaw, max_steps: int, collect: str):
    """Simulate ``count`` Bayes-rule replications on one derived stream.

    ``collect="moments"`` returns a single reduced-statistics row;
    ``collect="arrays"`` additionally returns the raw per-replication arrays
    (r0, nu, n_stop, truncated).
    """
    r0 = np.asarray(law.sample(rng, count), dtype=float)
    pi0 = couple_pi0(p, r0)
    u1 = rng.random(count)
    u2 = rng.random(count)
    nu = np.where(u1 < pi0, 1,
                  2 + np.floor(np.log1p(-u2) / math.log1p(-p)).astype(np.int64))
    n_stop, truncated = mc._stop_times(rng, r0, A, nu, 1.0 - p, max_steps)
    miss = (n_stop < nu - 1).astype(float)
    dp = np.maximum(0, n_stop - nu + 1).astype(float)
    risk = miss + c * dp
    row = np.array([[count, risk.sum(), (risk * risk).sum(), miss.sum(),
                     dp.sum(), float(truncated.sum())]])
    if collect == "moments":
        return (row,)
    return row, r0, nu, n_stop, truncated


def _risk_sums(config: BayesConfig, reps: int, seed: int, workers: int,
               tag: str, collect: str = "moments"):
    kernel = partial(_bayes_chunk, p=config.p, c=config.c, A=config.A,
                     law=config.law, max_steps=mc.DEFAULT_MAX_STEPS, collect=collect)
    out = qrng.run_chunked(kernel, reps, seed, tag, workers=workers)
    sums = out[0].sum(axis=0)
    stats = dict(zip(_COLS, sums))
    return (stats, *out[1:])


@dataclass(frozen=True)
class BayesRiskEstimate:
    """Plug-in risk estimate with its components, all from one replication set."""

    risk: mc.McEstimate
    cond_prob: float        # P_hat(N >= nu - 1)
    cond_delay_mean: float  # E_hat(N - nu + 1 | N >= nu - 1); nan if no such run


def estimate_bayes_risk(config: BayesConfig, reps: int, seed: int,
                        workers: int = 1, tag: str = "bayes-risk") -> BayesRiskEstimate:
    """Monte Carlo estimate of risk = P(N < nu - 1) + c E(N - nu + 1)^+."""
    mc.check_reps(reps)
    stats = _risk_sums(config, reps, seed, workers, tag)[0]
    n = stats["n"]
    risk_mean = stats["risk"] / n
    risk_var = max(stats["risk2"] - n * risk_mean * risk_mean, 0.0) / (n - 1.0)
    n_cond = n - stats["miss"]
    return BayesRiskEstimate(
        risk=mc.McEstimate(mean=risk_mean, stderr=math.sqrt(risk_var / n), reps=int(n),
                           seed=seed, truncation_count=int(stats["trunc"])),
        cond_prob=1.0 - stats["miss"] / n,
        cond_delay_mean=stats["dp"] / n_cond if n_cond > 0 else float("nan"),
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
    slope: Optional[float] = None
    slope_se: Optional[float] = None
    single_point: bool = False


def limit_diagnostic(A: float, law: HeadStartLaw, c_star: float,
                     p_grid: Sequence[float], reps, seed: int,
                     workers: int = 1) -> LimitDiagnostic:
    """Estimate (1 - risk)/p along the grid and extrapolate to p = 0.

    ``reps`` may be an integer (same count everywhere) or a sequence matched
    to ``p_grid``.  Grid points use independent derived streams, so the
    weighted-least-squares standard error of the intercept is valid.
    """
    p_grid = list(p_grid)
    if not p_grid:
        raise ConfigurationError("p_grid must be nonempty")
    if any(p2 >= p1 for p1, p2 in zip(p_grid, p_grid[1:])):
        raise ConfigurationError("p_grid must be strictly decreasing")
    if isinstance(reps, (int, np.integer)):
        reps_list = [int(reps)] * len(p_grid)
    else:
        reps_list = [int(r) for r in reps]
        if len(reps_list) != len(p_grid):
            raise ConfigurationError("reps sequence must match p_grid length")
    rows = []
    for j, (p, n_reps) in enumerate(zip(p_grid, reps_list)):
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
    if len(rows) == 1:
        r = rows[0]
        return LimitDiagnostic(rows=rows, intercept=r.ratio,
                               intercept_se=r.stderr, single_point=True)
    intercept, int_se, slope, slope_se = wls_line(
        np.array([r.p for r in rows]),
        np.array([r.ratio for r in rows]),
        np.array([r.stderr for r in rows]))
    return LimitDiagnostic(rows=rows, intercept=intercept, intercept_se=int_se,
                           slope=slope, slope_se=slope_se)


def wls_line(x: np.ndarray, y: np.ndarray, se: np.ndarray):
    """Weighted least squares fit y = a + b x; returns (a, se_a, b, se_b)."""
    w = 1.0 / np.square(se)
    design = np.column_stack([np.ones_like(x), x])
    xtwx = design.T @ (w[:, None] * design)
    cov = np.linalg.inv(xtwx)
    beta = cov @ (design.T @ (w * y))
    return float(beta[0]), float(math.sqrt(cov[0, 0])), \
        float(beta[1]), float(math.sqrt(cov[1, 1]))


@dataclass(frozen=True)
class LimitVerdict:
    """Which closed-form prediction the extrapolated intercept matches."""

    verdict: str          # "eq3" | "eq4" | "coincide" | "inconclusive"
    z_eq3: float
    z_eq4: float
    gap: float
    intercept: float
    intercept_se: float
    eq3: float
    eq4: float


def compare_limit(diag: LimitDiagnostic, eq3: float, eq4: float,
                  eq3_se: float = 0.0, eq4_se: float = 0.0) -> LimitVerdict:
    """Score the extrapolated intercept against the two predictions."""
    gap = abs(eq3 - eq4)
    se3 = math.hypot(diag.intercept_se, eq3_se)
    se4 = math.hypot(diag.intercept_se, eq4_se)
    z3 = abs(diag.intercept - eq3) / se3 if se3 > 0 else math.inf
    z4 = abs(diag.intercept - eq4) / se4 if se4 > 0 else math.inf
    if gap < 1e-12:
        verdict = "coincide"
    elif gap < diag.intercept_se or diag.single_point:
        verdict = "inconclusive"
    elif z4 <= 4.0 < z3:
        verdict = "eq4"
    elif z3 <= 4.0 < z4:
        verdict = "eq3"
    else:
        verdict = "inconclusive"
    return LimitVerdict(verdict=verdict, z_eq3=z3, z_eq4=z4, gap=gap,
                        intercept=diag.intercept, intercept_se=diag.intercept_se,
                        eq3=eq3, eq4=eq4)


@dataclass(frozen=True)
class LimitPredictions:
    """The eq3 and eq4 limits fed by measured SR expectations, with their SEs."""

    e1: mc.McEstimate     # E_1 N
    cross: mc.McEstimate  # E_1(R_0 N), same replications as e1
    arl: mc.McEstimate    # E_inf N
    e_r0: float           # E R_0, exact
    eq3: float
    eq3_se: float
    eq4: float
    eq4_se: float
    gap: float            # c* |E_1(R_0 N) - E_1 N * E R_0| = |eq3 - eq4|


def limit_predictions(A: float, c_star: float, reps: int, seed: int,
                      workers: int = 1) -> LimitPredictions:
    """eq3 and eq4 for the uniform-product head start at ``A``; the SEs carry the
    Monte Carlo errors through the closed forms to first order."""
    law = HeadStartLaw.yakir(A)
    e1, cross = mc.estimate_e1_and_cross(A, law, reps, seed, workers)
    arl = mc.estimate_arl_false(A, law, reps, seed, workers)
    e_r0 = yakir_mean(A)
    eq4 = formulas.c_limit_eq4(e_r0, e1.mean, arl.mean, cross.mean, c_star)
    eq3 = formulas.c_limit_eq3(e_r0, e1.mean, arl.mean, c_star)
    arl_term = ((1.0 - c_star * e1.mean) * arl.stderr) ** 2
    eq4_se = math.sqrt(arl_term + (c_star * cross.stderr) ** 2
                       + (c_star * (1.0 + arl.mean) * e1.stderr) ** 2)
    eq3_se = math.sqrt(arl_term
                       + (c_star * (e_r0 + 1.0 + arl.mean) * e1.stderr) ** 2)
    return LimitPredictions(
        e1=e1, cross=cross, arl=arl, e_r0=e_r0,
        eq3=eq3, eq3_se=eq3_se, eq4=eq4, eq4_se=eq4_se,
        gap=c_star * abs(cross.mean - e1.mean * e_r0))


@dataclass(frozen=True)
class ConditionalHeadStartReport:
    """Comparison of law(r0 | nu = 1) against the size-biased transform."""

    p: float
    reps: int
    n_conditional: int
    n_bins: int
    conditional_mean: float
    conditional_se: float
    unconditional_mean: float
    unconditional_se: float
    size_biased_mean: float
    l1_vs_size_biased: float
    l1_vs_unconditional: float


def conditional_headstart_diagnostic(A: float, law: HeadStartLaw, p: float,
                                     reps: int, seed: int, workers: int = 1
                                     ) -> ConditionalHeadStartReport:
    """Check that conditioning on {nu = 1} size-biases the head start law.

    Bins are widened automatically when the conditional sample is small
    (nu = 1 is rare for small p); the achieved conditional count is reported
    so callers can judge the power of the comparison.
    """
    if p > 0.01:
        raise ConfigurationError(f"diagnostic is meaningful for p <= 0.01, got {p}")
    mc.check_reps(reps)
    config = BayesConfig(p=p, c=0.0, A=A, law=law)
    _, r0, nu, _, _ = _risk_sums(config, reps, seed, workers,
                                 tag="bayes-cond", collect="arrays")
    sel = nu == 1
    cond_r0 = r0[sel]
    m = int(cond_r0.size)
    if m < 2:
        raise UndefinedConditionalError(
            f"only {m} replications had nu = 1; increase reps")
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
    if law.kind is LawKind.YAKIR_UNIFORM_PRODUCT:
        sb_mean = size_biased_mean(law.a_param)
        e_r0 = yakir_mean(law.a_param)
    elif law.kind is LawKind.POINT_MASS:
        sb_mean = law.r0
        e_r0 = law.r0
    else:
        sb_mean = float((r0 * weights).sum() / weights.sum())
        e_r0 = float(r0.mean())
    return ConditionalHeadStartReport(
        p=p, reps=reps, n_conditional=m, n_bins=n_bins,
        conditional_mean=float(cond_r0.mean()),
        conditional_se=float(cond_r0.std(ddof=1) / math.sqrt(m)),
        unconditional_mean=float(e_r0),
        unconditional_se=float(r0.std(ddof=1) / math.sqrt(r0.size)),
        size_biased_mean=float(sb_mean),
        l1_vs_size_biased=float(np.abs(cond_hist - sb_hist).sum()),
        l1_vs_unconditional=float(np.abs(cond_hist - un_hist).sum()),
    )
