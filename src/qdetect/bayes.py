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
intercept's standard error alone sets the z-scores.  The two forms differ
only in their c-linear part, and so does what is simulated: 1 - risk splits
into the exact probability of no miss and c times a simulated delay cost
(below), the c = 0 limit is exact (:func:`_zero_cost_limit`), and only the
cost part is extrapolated, by a weighted quadratic in p (:func:`wls_line`).
A line through the grid would carry an O(p^2) curvature bias; a quadratic
through three points interpolates them, and its bias is O(p^3).  Its
intercept weighs the points by the Lagrange weights (1/3, -2, 8/3) on the
grid 0.02, 0.01, 0.005, which would add up three independent noises; so
every grid point steps the same runs (common random numbers, Asmussen &
Glynn, Stochastic Simulation, 2007, ch. V), their costs correlate at about
0.98 to 0.995, and the intercept's standard error reads the covariance of
the point means (:func:`_shared_run_scores`).  The module also checks that the mean of r0
conditioned on {nu = 1} is the mean of the size-biased transform of the
unconditional law, not the unconditional mean.

The risk estimate simulates only what it cannot compute (conditional Monte
Carlo, Asmussen & Glynn, ch. V: each score has the run's mean and no larger
variance), with the rank-one facts of :mod:`qdetect.exact`.  A run from
r0 >= A stops at N = 0 and draws nothing (P(R_0 >= A) = 0.542 at A = 1.5
under the uniform product law); each chunk steps exactly round(count mass)
runs below A, mass = P(R_0 < A) (:meth:`HeadStartLaw.sample` at A), and the
estimate weighs their mean by the exact mass (proportional stratification,
:func:`qdetect.montecarlo.stratified_estimate`).  A run below A steps only
its pre-change chain, to its stopping index N: given the path, a change
after step N is missed, one at step N is caught at once, and one at step
m < N costs on average the post-change delay D_q(R_m)
(:func:`qdetect.exact.d_q`).  So each run scores

    Y = sum_{m=0}^{N} P(nu - 1 = m | r0) (1 - c D_q(R_m) 1{R_m < A}) = Y0 - c Z,

Y0 = P(N >= nu - 1 | path) its probability of no miss and Z its delay cost
(:func:`_bayes_chunk`).  The mean of Y0 is one exact law integral
(:func:`_no_miss_probability`), so the kernels carry Z alone and the
estimate is E[Y0] - c Z_bar (a control variate).  At A = 1.5 and c = 0.1
the per-run SD of (1 - risk)/p is then 0.097 to 0.105 on the grid 0.02,
0.01, 0.005, against 0.66 to 0.72 when Y is simulated whole and 7.8 to
16.3 when each run steps through a drawn change time.  The score needs the
law's tail integral and a threshold below 2, as :class:`BayesConfig`
checks.  The brute-force runs of :func:`identity_checks`, which draw every
change time and step through it, are the reference for the score and for
the exact E[Y0].

Each chunk runs in a workspace borrowed from :mod:`qdetect.rng` and reduces
to one moment row per grid point (the joint kernel,
:func:`qdetect.joint._joint_chunk`, adds the points' cross sums), so each
estimate holds one row per chunk and grid point, whatever ``reps`` is.  The
risk kernel holds four chunk-sized 8-byte buffers (head starts, likelihood
ratios, 1 - pi0 and the running cost) and a mask.  The
conditional-mean and identity kernels draw every head start
(:meth:`HeadStartLaw.sample` at ``A = math.inf``) and its change time
(:func:`_change_times`), float64 and integer-valued, since at a small p it
can pass 2^63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

import numpy as np

from . import exact, formulas
from . import montecarlo as mc
from . import rng as qrng
from .errors import ConfigurationError
from .exact import sr_exact
from .headstart import HeadStartLaw, LawKind, check_head_start, yakir_mean
from .joint import _joint_chunk


def check_p(p: float) -> None:
    """Raise unless the per-step change probability satisfies ``0 < p < 1``
    and ``q = 1 - p`` differs from 1 in float64 (p above about 5.6e-17)."""
    if not (0.0 < p < 1.0):
        raise ConfigurationError(f"p must lie in (0, 1), got {p}")
    if 1.0 - p == 1.0:
        raise ConfigurationError(
            f"p = {p} is below the float64 resolution of q = 1 - p, which rounds to 1")


def check_cost(c: float) -> None:
    """Raise unless the delay cost ``c`` is finite and nonnegative."""
    if not (0.0 <= c < math.inf):
        raise ConfigurationError(f"cost c must be finite and nonnegative, got {c}")


def check_p_grid(p_grid: Sequence[float]) -> List[float]:
    """``p_grid`` as a list if it holds >= 3 valid ``p``, strictly decreasing:
    the extrapolation to p = 0 fits a quadratic in p (:func:`wls_line`)."""
    p_grid = list(p_grid)
    if len(p_grid) < 3:
        raise ConfigurationError(f"p_grid needs at least 3 points, got {len(p_grid)}")
    for p in p_grid:
        check_p(p)
    if any(p2 >= p1 for p1, p2 in zip(p_grid, p_grid[1:])):
        raise ConfigurationError("p_grid must be strictly decreasing")
    return p_grid


@dataclass(frozen=True)
class BayesConfig:
    """Parameters of one coupled Bayes simulation."""

    p: float
    c: float
    A: float
    law: HeadStartLaw

    def __post_init__(self):
        check_p(self.p)
        check_cost(self.c)
        exact.check_threshold(self.A)  # where the post-change delay D_q is rank one
        if self.law.kind is LawKind.CUSTOM:  # the risk needs its tail integral
            raise ConfigurationError(
                "the Bayes simulation needs a point mass or the uniform product "
                "head start, not a custom law")


def couple_pi0(p: float, r0) -> np.ndarray:
    """The unique pi0 that starts the Bayes statistic at r0."""
    check_p(p)
    r0 = np.asarray(r0, dtype=float) if np.ndim(r0) else float(r0)
    check_head_start(r0)
    return _couple(p, r0)


def _couple(p: float, r0, out=None, tmp=None):
    """:func:`couple_pi0` unchecked, into ``out`` with the temporary ``tmp``."""
    w = np.multiply(np.add(r0, 1.0, out=out), p, out=out)
    return np.divide(w, np.add(w, 1.0 - p, out=tmp), out=out)


def implied_headstart(p: float, pi0) -> np.ndarray:
    """Inverse of :func:`couple_pi0`: pi0 q / ((1 - pi0) p) - 1."""
    q = 1.0 - p
    return pi0 * q / ((1.0 - pi0) * p) - 1.0


def coupling_round_trip(seed: int) -> tuple[bool, float]:
    """``(worst <= 1e-12, worst)``, worst the largest relative error of r0 ->
    pi0 -> r0 over 500 random (p, r0) from ``derive_rng(seed, "pi0-round-trip", 0)``."""
    rng = qrng.derive_rng(seed, "pi0-round-trip", 0)
    ps = rng.uniform(1e-4, 0.99, 500)
    r0s = rng.uniform(0.0, 50.0, 500)
    back = np.array([implied_headstart(p, couple_pi0(p, r)) for p, r in zip(ps, r0s)])
    worst = float(np.max(np.abs(back - r0s) / np.maximum(1.0, r0s)))
    return worst <= 1e-12, worst


def _change_times(rng: np.random.Generator, r0: np.ndarray, *, p: float,
                  ws: qrng.Workspace) -> np.ndarray:
    """The change times nu coupled to the head starts ``r0``.

    Draws one uniform u1 per head start, in order, and takes nu = 1 where
    u1 < pi0; then one geometric uniform u2 per head start, in order, and
    takes nu = 2 + floor(log1p(-u2)/log1p(-p)) elsewhere.  A caller that
    reads only {nu = 1} reads bits that the first uniforms alone set.  nu
    is a float64 view of the workspace ``ws`` (its ``carry`` buffer; ``lr``
    and ``mask`` hold temporaries), integer-valued and never cast: at a
    small p the geometric part can pass 2^63.  Every sum it feeds is over
    change times at most ``DEFAULT_MAX_STEPS``, so it stays an exact
    integer.  Head starts are nonnegative by construction, so pi0 skips
    :func:`couple_pi0`'s checks.
    """
    count = r0.size
    nu, lr = ws.array("carry", float, count), ws.array("lr", float, count)
    pi0 = _couple(p, r0, nu, lr)
    first = np.less(rng.random(count, out=lr), pi0, out=ws.array("mask", bool, count))
    rng.random(count, out=nu)
    np.negative(nu, out=nu)
    np.log1p(nu, out=nu)
    nu /= math.log1p(-p)
    np.floor(nu, out=nu)
    nu += 2.0
    np.copyto(nu, 1.0, where=first)
    return nu


def _no_miss_probability(config: BayesConfig) -> float:
    """E[Y0] = P(N >= nu - 1), exact: the part of the mean score 1 - risk
    that the cost does not touch, one law integral
    (:mod:`qdetect.exact`).  A run that stops at 0 scores pi0
    (:meth:`HeadStartLaw.tail_mean`); from r0 < A the chain survives its
    first step with probability a_q(r0) and each later one with rho_q, so

        E[Y0 | r0] = pi0 + (1 - pi0) p (1 + q a_q(r0) / (1 - q rho_q)),

    integrated over the runs below A (:meth:`HeadStartLaw.mean_below`).
    """
    p, A, law = config.p, config.A, config.law
    q = 1.0 - p
    rho = exact.rho_q(A, q)

    def stepped(r0):
        pi0 = _couple(p, r0)
        return pi0 + (1.0 - pi0) * p * (1.0 + q * exact.a_q(A, q, r0) / (1.0 - q * rho))
    return law.mean_below(stepped, A) + law.tail_mean(partial(_couple, p), A)


def _zero_cost_limit(A: float, law: HeadStartLaw) -> float:
    """lim_{p -> 0} E[Y0]/p = E R_0 + 1 + E_inf N, exact: the intercept at
    c = 0, where eq3 and eq4 agree, with E R_0 the law integral of r and
    E_inf N :func:`qdetect.exact.sr_exact`'s at ``law``."""
    e_r0 = law.mean_below(lambda r: r, A) + law.tail_mean(lambda r: r, A)
    return e_r0 + 1.0 + sr_exact(A, law)[2]


def _bayes_chunk(rng: np.random.Generator, count: int, config: BayesConfig):
    """One row (count, m, sum Z, sum Z^2, truncated) of a chunk, with
    Y0 - c Z the exact 1 - risk of a run given its head start and
    pre-change path and Z summed over the m runs below A.

    Only the round(count P(R_0 < A)) runs below A are drawn
    (:meth:`HeadStartLaw.sample` at A); the others stop at N = 0 with
    Z = 0, and E[Y0] holds their exact share.  Each steps only its
    pre-change chain R_0 .. R_N.  With theta = nu - 1, P(theta = 0) = pi0
    and P(theta = m) = w p q^(m-1) for m >= 1, w = 1 - pi0, the run's
    no-miss probability and cost are

        Y0 = sum_{m=0}^{N} P(theta = m) = pi0 + w (1 - q^N),
        Z = sum_{m=0}^{N} P(theta = m) D_q(R_m) 1{R_m < A},

    with D_q(r) = 1 + d_q/(1 + r)^2 (:func:`qdetect.exact.d_q`).  The row
    reads no cost: the estimate takes E[Y0] exactly
    (:func:`_no_miss_probability`) and simulates only Z.

    The per-run w and the running cost Z ride in the kernel's ``carry``;
    the factor p q^(m-1) is one scalar per step.  Step m adds the increment
    t of each run that takes it to sum Z and t (2 Z + t) to sum Z^2.
    """
    p, A = config.p, config.A
    q = 1.0 - p
    d = exact.d_q(A, q)
    trunc = 0
    with qrng.workspace() as ws:
        r = config.law.sample(rng, count, A, ws)
        n = r.size
        # w = 1 - pi0 = q / (1 + p r0), and Z = pi0 D_q(r0) before a step
        w = np.multiply(r, p, out=ws.array("carry", float, n))
        w += 1.0
        np.divide(q, w, out=w)
        t = np.add(r, 1.0, out=ws.array("lr", float, n))
        t *= t
        np.divide(d, t, out=t)
        t += 1.0
        z = np.subtract(1.0, w, out=ws.array("score", float, n))
        z *= t
        z_sum, z_sq = mc.moment_sums(z)
        for step, r_m, below, w_m, z_m in mc._stop_times(
                rng, r, A, math.inf, q, mc.DEFAULT_MAX_STEPS, ws, (w, z)):
            s = p * q ** (step - 1)
            # t = s w D_q(R_m) 1{R_m < A}; the mask multiplies, since a
            # masked write on a mask this close to random costs ten passes
            t = np.add(r_m, 1.0, out=ws.array("lr", float, r_m.size))
            t *= t
            np.divide(s * d, t, out=t)
            t += s
            t *= below
            t *= w_m
            z_sum += t.sum()
            z_sq += 2.0 * np.einsum("i,i->", t, z_m) + np.einsum("i,i->", t, t)
            z_m += t
            if step == mc.DEFAULT_MAX_STEPS:
                trunc = np.count_nonzero(below)
    return (np.array([[count, n, z_sum, z_sq, trunc]]),)


def _brute_force_runs(rng: np.random.Generator, count: int, config: BayesConfig,
                      ws: qrng.Workspace):
    """Every head start and its change time nu (:func:`_change_times`), and the
    runs below A stepped through the change: yields ``(N - nu + 1, truncated)``
    of the runs that stop at 0, then at each step, then after step
    ``DEFAULT_MAX_STEPS`` of those still running, truncated."""
    r0 = config.law.sample(rng, count, math.inf, ws)
    nu = _change_times(rng, r0, p=config.p, ws=ws)
    yield 1.0 - nu[r0 >= config.A], False
    n = mc._running(r0, config.A, ws, nu)
    for step, r, below in mc._stop_times(
            rng, r0[:n], config.A, nu[:n], 1.0 - config.p, mc.DEFAULT_MAX_STEPS, ws):
        nu_s = nu[:r.size]  # the kernel compacts nu with the runs
        yield step + 1.0 - nu_s[~below], False
        if step == mc.DEFAULT_MAX_STEPS:
            yield step + 1.0 - nu_s[below], True


def _identity_chunk(rng: np.random.Generator, count: int, config: BayesConfig):
    """The exact int64 row ``(n, misses, sum dp, sum dp^2, truncated)`` of the
    chunk's brute-force runs (:func:`_brute_force_runs`), dp = (N - nu + 1)^+.

    A run misses (N < nu - 1) or pays dp, never both, so at any cost c the
    risk sums are misses + c sum dp and misses + c^2 sum dp^2: the row
    serves every cost, and it reads no exact formula.
    """
    row = np.array([[count, 0, 0, 0, 0]], dtype=np.int64)
    with qrng.workspace() as ws:
        for late, truncated in _brute_force_runs(rng, count, config, ws):
            dp = np.maximum(late, 0.0).astype(np.int64)
            row[0, 1:] += (np.count_nonzero(late < 0), dp.sum(), np.einsum("i,i->", dp, dp),
                           truncated * late.size)
    return (row,)


def identity_checks(A: float, c: float, reps: int, seed: int, workers: int) -> list:
    """The four identity checks, one ``(name, ok, margin, detail)`` tuple each.

    ``risk-vs-brute-force``: at p = 0.01, with the uniform product head
    start at ``A`` and cost ``c``, the risk of ``min(reps, 100_000)``
    brute-force runs, each of which draws its change time and steps through
    it (:func:`_identity_chunk`, on the stream tag ``risk-identity``),
    against the score 1 - (E[Y0] - c Z_bar), with standard error
    c se(Z_bar), Z_bar the mean cost of ``min(reps, 25_000)`` runs on the
    path of :func:`limit_diagnostic` (:func:`_shared_run_scores`, on the
    stream tag ``bayes-limit/0:<runs>``), within 4 combined standard
    errors (margin: |z|).  ``miss-probability-exact``: the
    same brute-force runs' share of misses against the exact
    1 - E[Y0] (:func:`_no_miss_probability`), within 4 binomial standard
    errors (margin: |z|); this keeps checked the half of the score that the
    estimate no longer simulates.  ``pi0-round-trip``
    (:func:`coupling_round_trip`) and ``eq3-eq4-difference``
    (:func:`formulas.limit_difference_identity`) hold to 1e-12 relative
    (margin: the largest relative error).
    """
    config = BayesConfig(p=0.01, c=c, A=A, law=HeadStartLaw.yakir(A))
    rows = qrng.run_chunked(partial(_identity_chunk, config=config), min(reps, 100_000),
                            seed, "risk-identity", workers=workers)[0]
    n, misses, dp_sum, dp_sq, trunc = (int(v) for v in rows.sum(axis=0))
    brute = mc.mc_estimate(n, misses + c * dp_sum, misses + c * c * dp_sq, trunc)
    (cost,), _ = _shared_run_scores([config], [min(reps, 25_000)], seed, workers)
    no_miss = _no_miss_probability(config)
    score, score_se = 1.0 - (no_miss - c * cost.mean), c * cost.stderr
    miss = 1.0 - no_miss
    z = abs(score - brute.mean) / math.hypot(score_se, brute.stderr)
    z_miss = abs(misses / n - miss) / math.sqrt(miss * (1.0 - miss) / n)
    round_ok, round_err = coupling_round_trip(seed)
    diff_ok, diff_err = formulas.limit_difference_identity(seed)
    return [("risk-vs-brute-force", z <= 4.0, z,
             f"|z|={z:.2f} brute={brute.mean:.5f}+-{brute.stderr:.5f} "
             f"score={score:.5f}+-{score_se:.5f}"),
            ("miss-probability-exact", z_miss <= 4.0, z_miss,
             f"|z|={z_miss:.2f} brute={misses / n:.5f} exact={miss:.5f}"),
            ("pi0-round-trip", round_ok, round_err, f"max rel error {round_err:.2e}"),
            ("eq3-eq4-difference", diff_ok, diff_err, f"max rel error {diff_err:.2e}")]


@dataclass(frozen=True)
class LimitRow:
    """One p-grid point of the limit diagnostic."""

    p: float
    reps: int
    ratio: float          # (1 - risk_hat)/p = (E[Y0] - c Z_bar)/p
    stderr: float         # c se(Z_bar)/p
    truncation_count: int


@dataclass(frozen=True)
class LimitDiagnostic:
    """The p-grid table plus the quadratic-in-p extrapolation to p = 0."""

    rows: List[LimitRow]
    intercept: float
    intercept_se: float


def limit_diagnostic(A: float, law: HeadStartLaw, c_star: float,
                     p_grid: Sequence[float], reps: Sequence[int], seed: int,
                     workers: int = qrng.DEFAULT_WORKERS) -> LimitDiagnostic:
    """Estimate (1 - risk)/p along the grid and its p -> 0 limit.

    Each score splits as Y0 - c Z (:func:`_bayes_chunk`), and only the cost
    part Z is simulated.  Row j prints (E[Y0](p_j) - c Z_bar_j)/p_j, with
    the exact E[Y0] (:func:`_no_miss_probability`) and the standard error
    c se(Z_bar_j)/p_j.  The intercept is the exact c = 0 limit
    (:func:`_zero_cost_limit`) less c times the intercept of a weighted
    quadratic in p through Z_bar/p (:func:`wls_line`), and its standard
    error is c times the fit's.  The c = 0 part is not extrapolated: on the
    grid 0.02, 0.01, 0.005 the quadratic's bias there is -6.2e-5, against
    +1.6e-6 in the cost part.  At c = 0 the intercept is exact, with SE 0.

    ``p_grid`` passes :func:`check_p_grid` (at least three points), and
    ``reps[j]`` replications run at ``p_grid[j]``: the first ``reps[j]``
    runs of one run sequence, which every grid point steps on the same head
    starts and uniforms (common random numbers, :func:`_shared_run_scores`).
    So the Z_bar_j correlate, and the fit's standard error reads their
    covariance.  A row, an intercept or a standard error that is not finite
    in float64 (a cost near the float64 limit) raises
    :class:`ConfigurationError`.
    """
    p_grid = check_p_grid(p_grid)
    if np.ndim(reps) != 1 or len(reps) != len(p_grid):
        raise ConfigurationError("reps needs one count per p_grid point")
    reps = [mc.check_reps(n) for n in reps]  # all of them, before any simulation
    configs = [BayesConfig(p=p, c=c_star, A=A, law=law) for p in p_grid]
    costs, corr = _shared_run_scores(configs, reps, seed, workers)
    rows = [LimitRow(p=config.p, reps=n_reps,
                     ratio=(_no_miss_probability(config) - c_star * cost.mean) / config.p,
                     stderr=c_star * cost.stderr / config.p,
                     truncation_count=cost.truncation_count)
            for config, n_reps, cost in zip(configs, reps, costs)]
    x = np.array(p_grid)
    fit, fit_se = wls_line(x, np.array([cost.mean for cost in costs]) / x,
                           np.array([cost.stderr for cost in costs]) / x, corr)
    diag = LimitDiagnostic(rows=rows, intercept=_zero_cost_limit(A, law) - c_star * fit,
                           intercept_se=c_star * fit_se)
    if not all(math.isfinite(v) for v in (diag.intercept, diag.intercept_se,
                                          *(f for r in rows for f in (r.ratio, r.stderr)))):
        raise ConfigurationError(
            f"at c* = {c_star} the limit's ratios or standard errors are not finite "
            "in float64")
    return diag


def _shared_run_scores(configs: Sequence[BayesConfig], reps: Sequence[int], seed: int,
                       workers: int) -> Tuple[List[mc.McEstimate], np.ndarray]:
    """The mean cost Z of each point ``configs[j]`` (:func:`_bayes_chunk`)
    over the first ``reps[j]`` runs of one run sequence, and the
    correlations of the means.

    The sequence runs in tiers, one between each two consecutive distinct
    counts of ``reps``, each a :func:`qdetect.rng.run_chunked` call on its
    own stream tag ``bayes-limit/<first>:<end>`` (the tier's runs).  A
    tier's runs step one chain for each point that covers them
    (:func:`qdetect.joint._joint_chunk`), or :func:`_bayes_chunk`'s one
    chain where a single point does; either kernel steps the same
    round(count P(R_0 < A)) runs below A of a chunk.  Each mean is
    stratified on the stop-at-0 split with offset 0
    (:func:`qdetect.montecarlo.stratified_estimate`: a run that stops at 0
    has Z = 0), so only the stepped runs carry noise: the points j and k
    share their first m_jk stepped runs, and with c_jk the covariance of
    Z_j and Z_k over those runs and m_j, m_k each point's stepped runs,
    Cov(mean_j, mean_k) = mass^2 c_jk m_jk / (m_j m_k).  A mean with a
    zero standard error, which the stratified estimate leaves only when no
    head start lies below A and every run stops at 0, raises
    :class:`ConfigurationError`: the fit weighs the points by 1/se^2.
    """
    k = len(configs)
    mass = configs[0].law.mass_below(configs[0].A)  # the law and A are every point's
    levels = sorted(set(reps))
    # per tier, each point's row and the cross sums over the tier's stepped
    # runs (zero where a point does not cover them), then summed up to each level
    rows, cross = np.zeros((len(levels), k, 5)), np.zeros((len(levels), k, k))
    for tier, (first, end) in enumerate(zip([0] + levels, levels)):
        on = [j for j in range(k) if reps[j] >= end]
        tag = f"bayes-limit/{first}:{end}"
        if len(on) == 1:
            kernel = partial(_bayes_chunk, config=configs[on[0]])
            (part,) = qrng.run_chunked(kernel, end - first, seed, tag, workers=workers)
            part_cross = part[:, 3]  # sum Z^2
        else:
            kernel = partial(_joint_chunk, configs=[configs[j] for j in on])
            part, part_cross = qrng.run_chunked(kernel, end - first, seed, tag,
                                                workers=workers)
        rows[tier, on] = part.reshape(-1, len(on), 5).sum(axis=0)
        cross[tier][np.ix_(on, on)] = part_cross.reshape(-1, len(on), len(on)).sum(axis=0)
    rows, cross = np.cumsum(rows, axis=0), np.cumsum(cross, axis=0)
    costs, stepped = [], []
    for j, (config, n_reps) in enumerate(zip(configs, reps)):
        count, m, z_sum, z_sq, trunc = rows[levels.index(n_reps), j]
        cost = mc.stratified_estimate(count, m, z_sum, z_sq, mass, 0.0, int(trunc))
        if cost.stderr == 0:
            raise ConfigurationError(
                f"zero standard error at p={config.p}: no head start lies below "
                f"A = {config.A}, so every run stops at 0")
        costs.append(cost)
        stepped.append(m)
    corr = np.eye(k)
    for i in range(k):
        for j in range(i):
            level = levels.index(min(reps[i], reps[j]))
            m_ij, sum_i, sum_j = rows[level, i, 1], rows[level, i, 2], rows[level, j, 2]
            c_ij = (cross[level, i, j] - sum_i * sum_j / m_ij) / (m_ij - 1.0)
            corr[i, j] = corr[j, i] = (mass * mass * c_ij * m_ij / (stepped[i] * stepped[j])
                                       / (costs[i].stderr * costs[j].stderr))
    return costs, corr


def wls_line(x: np.ndarray, y: np.ndarray, se: np.ndarray, corr: np.ndarray):
    """Weighted least squares fit y = a + b x + c x^2 (weights w = 1/se^2);
    returns (a, se_a).  The weights run relative to the smallest SE, so that
    their products neither under- nor overflow, and se_a is scaled back.

    The fit is linear in y, a = sum_k beta_k y_k, and its standard error is
    se_a = sqrt(beta^T C beta), with C the covariance of the y_k,
    C_jk = se_j se_k ``corr[j][k]`` (the identity for independent y_k).  A
    variance that is not finite or not positive raises
    :class:`ConfigurationError`.

    The 3 x 3 normal equations are solved in closed form, so no BLAS or
    LAPACK routine runs.  By Cauchy-Binet their cofactors are sums over the
    pairs of points with no cancelling terms, and beta_k = l_k / det, with

        l_k = w_k sum_{i<j} w_i w_j x_i x_j (x_i - x_j)^2 (x_i - x_k)(x_j - x_k),
        det = sum_k l_k,

    each an ``einsum`` over the points.  Through three points the fit
    interpolates: beta_k is then the Lagrange weight of y_k at x = 0,
    whatever the weights are.
    """
    se_min = se.min()
    w = np.square(se_min / se)
    dx = np.subtract.outer(x, x)
    pair = np.einsum("i,j,i,j,ij,ij->ij", w, w, x, x, dx, dx) / 2.0
    lam = np.einsum("ij,ik,jk,k->k", pair, dx, dx, w)
    det = lam.sum()
    b = lam / det * (se / se_min)  # beta, times each SE over the smallest
    var = np.einsum("j,jk,k->", b, corr, b)
    if not 0.0 < var < math.inf:
        raise ConfigurationError("the intercept's variance is not positive and finite")
    return float(np.einsum("k,k->", lam, y) / det), float(se_min * math.sqrt(var))


@dataclass(frozen=True)
class LimitVerdict:
    """Which closed-form prediction the extrapolated intercept matches."""

    verdict: str          # "eq3" | "eq4" | "coincide" | "inconclusive"
    z_eq3: float
    z_eq4: float
    gap: float


def compare_limit(diag: LimitDiagnostic, eq3: float, eq4: float) -> LimitVerdict:
    """Score the extrapolated intercept against the two exact predictions.

    Predictions within 1e-12 of each other coincide, whatever the SE.  An
    exact intercept (SE 0, as at c = 0) then has z 0 against a prediction
    it matches to 1e-12 and inf against one it misses; with predictions
    apart, a zero SE cannot score them and raises
    :class:`ConfigurationError`, as does a prediction that is not finite
    in float64 (eq3 at a cost near the float64 limit).
    """
    if not (math.isfinite(eq3) and math.isfinite(eq4)):
        raise ConfigurationError(f"a prediction is not finite in float64 (eq3={eq3}, "
                                 f"eq4={eq4})")
    gap = abs(eq3 - eq4)
    se = diag.intercept_se
    if se == 0.0 and gap >= 1e-12:
        raise ConfigurationError(
            f"an intercept with zero standard error cannot tell eq3 from eq4 (gap {gap:.3g})")

    def z(target):
        miss = abs(diag.intercept - target)
        if se > 0.0:
            return miss / se
        return 0.0 if miss < 1e-12 else math.inf
    z3, z4 = z(eq3), z(eq4)
    if gap < 1e-12:
        verdict = "coincide"
    elif gap < se:
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


def _conditional_chunk(rng: np.random.Generator, count: int, *, p: float,
                       law: HeadStartLaw):
    """One row (count, m, sum r0, sum r0^2) over the m draws of a chunk with nu = 1."""
    with qrng.workspace() as ws:
        r0 = law.sample(rng, count, math.inf, ws)
        nu = _change_times(rng, r0, p=p, ws=ws)
        cond = r0.take(np.flatnonzero(np.equal(nu, 1.0, out=ws.array("mask", bool, count))))
        return (np.array([[count, cond.size, *mc.moment_sums(cond)]]),)


def conditional_headstart_diagnostic(law: HeadStartLaw, p: float, reps: int, seed: int,
                                     workers: int = qrng.DEFAULT_WORKERS
                                     ) -> mc.McEstimate:
    """The mean of r0 conditioned on {nu = 1}, with its standard error.

    Conditioning on a change at time 1 size-biases the head-start law, so
    this estimates the size-biased mean, not the unconditional one; the
    estimate's ``rejected`` counts the draws with nu > 1.  Neither r0 nor nu
    depends on the stopping rule, so no run is simulated.
    """
    if not (0.0 < p <= 0.01):
        raise ConfigurationError(f"diagnostic is meaningful for 0 < p <= 0.01, got {p}")
    reps = mc.check_reps(reps)
    rows = qrng.run_chunked(partial(_conditional_chunk, p=p, law=law), reps, seed,
                            "bayes-cond", workers=workers)[0]
    count, m, total, total_sq = rows.sum(axis=0)
    return mc.mc_estimate(m, total, total_sq, rejected=int(count - m))
