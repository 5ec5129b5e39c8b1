"""Head-start distributions for the modified Shiryaev-Roberts procedure.

The main law is the uniform product construction for the exponential example:
R_0 = (R + 1) Z with (R, Z) uniform on [0, A] x [0, 2], valid for 0 < A < 2.
Its closed-form functionals

    p0 = P(R_0 >= A) = 1 - log(A + 1)/2,      mu0 = E(R_0 | R_0 < A) = A/2,

are exposed together with two independent oracles, a Gauss-Legendre quadrature
of the density and a Monte Carlo estimate.
A historically published (and wrong) variant of p0, 1 - log(A)/2, is kept
purely so regression tests can show it fails the oracles.

The law with parameter a is quasi-stationary for the pre-change chain
(Pollak, Ann. Statist. 1985): for a threshold A <= 2 its density below A is
the constant log(1 + a)/(2a), so P(R_0 < A) = A log(1 + a)/(2a) and
R_0 | R_0 < A ~ U[0, A).  The simulation kernels use both sides of the
split at A: :meth:`HeadStartLaw.mass_below` gives its exact mass below A,
:meth:`HeadStartLaw.sample` returns only the head starts below the
threshold it is given, drawn directly and a fixed share of a chunk's runs
(proportional stratification), and :meth:`HeadStartLaw.mean_below` and
:meth:`HeadStartLaw.tail_mean` integrate over the runs below A and over
the ones at or above A, which stop at 0: the two parts of every exact
functional of :mod:`qdetect.exact`.  The oracles, which check these facts,
draw the whole law: they pass ``A = math.inf``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from . import rng as qrng
from .montecarlo import _running, check_threshold, mc_estimate, moment_sums

#: Fewest draws :func:`functionals_oracle` accepts.
ORACLE_MIN_REPS = 10**4

#: Pass rules of the oracle checks: largest |exact - quadrature|, largest
#: |exact - Monte Carlo| in standard errors, and the fewest standard errors
#: by which the erratum p0 must miss the Monte Carlo p0.
ORACLE_QUAD_TOL = 1e-10
ORACLE_Z_LIMIT = 4.0
ERRATUM_MIN_Z = 20.0


class LawKind(enum.Enum):
    POINT_MASS = "point_mass"
    YAKIR_UNIFORM_PRODUCT = "yakir_uniform_product"
    CUSTOM = "custom"


@dataclass(frozen=True)
class HeadStartLaw:
    """Distribution of the head start R_0 chosen by the statistician.

    For CUSTOM laws, ``sampler(rng, size)`` must return ``size`` nonnegative
    draws, an array of shape ``(size,)``.
    """

    kind: LawKind
    r0: Optional[float] = None
    a_param: Optional[float] = None
    sampler: Optional[Callable] = None

    @classmethod
    def point_mass(cls, r0: float) -> "HeadStartLaw":
        check_head_start(r0)
        return cls(kind=LawKind.POINT_MASS, r0=float(r0))

    @classmethod
    def yakir(cls, A: float) -> "HeadStartLaw":
        _check_threshold(A)
        return cls(kind=LawKind.YAKIR_UNIFORM_PRODUCT, a_param=float(A))

    @classmethod
    def custom(cls, sampler) -> "HeadStartLaw":
        return cls(kind=LawKind.CUSTOM, sampler=sampler)

    def mass_below(self, A: float) -> Optional[float]:
        """P(R_0 < A), exact: the share of runs that step, the others stop at 0.

        A point mass gives 1 or 0.  For ``yakir(a)`` and A <= 2 the density
        below A is the constant log(1 + a)/(2a), so the mass is
        A log(1 + a)/(2a); above 2 it is 1 minus the tail mass
        (:meth:`HeadStartLaw.tail_mean` of 1).  A custom law has no tail integral and
        gives ``None``.
        """
        if self.kind is LawKind.POINT_MASS:
            return 1.0 if self.r0 < A else 0.0
        if self.kind is LawKind.CUSTOM:
            return None
        if A <= 2.0:
            return A * math.log1p(self.a_param) / (2.0 * self.a_param)
        return 1.0 - self.tail_mean(np.ones_like, A)

    def sample_below(self, rng: np.random.Generator, m: int, A: float,
                     ws: qrng.Workspace) -> np.ndarray:
        """``m`` head starts of a point mass below ``A``, or of ``yakir(a)``
        given R_0 < A <= 2, in the ``"r0"`` buffer of the workspace ``ws``.

        A point mass draws nothing.  ``yakir(a)`` is uniform on [0, A)
        there (:meth:`HeadStartLaw.mass_below`), and draws ``rng.random(m) * A``.
        """
        out = ws.array("r0", float, m)
        if self.kind is LawKind.POINT_MASS:
            out.fill(self.r0)
            return out
        rng.random(m, out=out)
        out *= A
        return out

    def sample(self, rng: np.random.Generator, count: int, A: float,
               ws: qrng.Workspace) -> np.ndarray:
        """The head starts of the runs of ``count`` that start below ``A``;
        the others stop at 0.  ``A = math.inf`` returns every run.

        They land in the ``"r0"`` buffer of the workspace ``ws``, in
        replication order.  A point mass, and ``yakir(a)`` at A <= 2,
        return exactly ``round(count * mass)`` runs below A, with the mass
        of :meth:`HeadStartLaw.mass_below` (proportional stratification: the count is
        not drawn): every run of a point mass below A or none, and
        ``rng.random(round(count * mass)) * A`` for ``yakir(a)``
        (:meth:`HeadStartLaw.sample_below`).  So at every A the uniform product law's
        head starts are the same uniforms, scaled by A, for as many runs
        as both thresholds draw.  Any other law draws every run, the
        uniform product (its ``"lr"`` buffer holds a temporary) or a
        custom sampler's draws, which must have shape ``(count,)`` and pass
        :func:`check_head_start`; then, for a finite A, it drops the runs
        at or above A (:func:`qdetect.montecarlo._running`, on the
        workspace's ``mask``), so their count is random.
        """
        if self.kind is LawKind.POINT_MASS or (
                self.kind is LawKind.YAKIR_UNIFORM_PRODUCT and A <= 2.0):
            return self.sample_below(rng, round(count * self.mass_below(A)), A, ws)
        r0 = ws.array("r0", float, count)
        if self.kind is LawKind.YAKIR_UNIFORM_PRODUCT:
            # (U(0, a) + 1) U(0, 2), in place: uniform(0, a) is 0 + a u
            rng.random(count, out=r0)
            r0 *= self.a_param
            r0 += 1.0
            z = rng.random(count, out=ws.array("lr", float, count))
            z *= 2.0
            r0 *= z
        else:
            draws = np.asarray(self.sampler(rng, count))
            if draws.shape != (count,):  # numpy would broadcast a scalar to a point mass
                raise ConfigurationError(
                    f"a custom sampler must return shape ({count},), got {draws.shape}")
            r0[...] = draws
            check_head_start(r0)
        return r0 if A == math.inf else r0[:_running(r0, A, ws)]

    def mean_below(self, fn: Callable, A: float) -> float:
        """E[fn(R_0); R_0 < A] over the runs that step, the mirror of
        :meth:`HeadStartLaw.tail_mean`: a point mass's exact value, or for
        the uniform product law at A <= 2 its constant density below A,
        P(R_0 < A)/A, times the Gauss-Legendre rule of ``fn`` on [0, A).  A
        custom law, or a threshold above 2, raises :class:`ConfigurationError`."""
        if self.kind is LawKind.POINT_MASS:
            return float(fn(np.array([self.r0]))[0]) if self.r0 < A else 0.0
        if self.kind is LawKind.CUSTOM or A > 2.0:
            raise ConfigurationError(f"no integral below A = {A} of a {self.kind.value} law")
        return self.mass_below(A) / A * _gauss_legendre(fn, [0.0, A])

    def tail_mean(self, fn: Callable, A: float) -> float:
        """E[fn(R_0); R_0 >= A], the mean of ``fn`` over the runs that stop at 0.

        ``fn`` maps an array of head starts to an array of values.  A point
        mass gives its exact value; the uniform product law integrates
        ``fn`` times its density by the Gauss-Legendre rule
        (:func:`_gauss_legendre`) on the smooth pieces of [A, 2(a + 1)],
        split at 2 (the density is 0 beyond 2(a + 1), so a threshold there
        gives 0).  A custom law has no density here, and raises
        :class:`ConfigurationError`.
        """
        if self.kind is LawKind.POINT_MASS:
            return float(fn(np.array([self.r0]))[0]) if self.r0 >= A else 0.0
        if self.kind is LawKind.CUSTOM:
            raise ConfigurationError("a custom head-start law has no tail integral")
        a = self.a_param
        top = 2.0 * (a + 1.0)
        return _gauss_legendre(lambda x: fn(x) * yakir_density(a, x),
                               [A, 2.0, top] if A < 2.0 else [A, top])


def check_head_start(r0) -> None:
    """Raise unless every head start in ``r0`` (a number or an array) is finite
    and nonnegative.  Two reductions, no temporary: it runs on every chunk of
    a custom law."""
    for x in (np.min(r0, initial=0.0), np.max(r0, initial=0.0)):
        if not (0.0 <= x < math.inf):
            raise ConfigurationError(f"head start must be finite and nonnegative, got {x}")


def check_oracle_reps(reps: int) -> int:
    """``reps`` as an ``int`` if it is a whole number >= :data:`ORACLE_MIN_REPS`."""
    return qrng.check_count(reps, "oracle reps", ORACLE_MIN_REPS)


def _check_threshold(A: float) -> None:
    if not (0.0 < A < 2.0):
        raise ConfigurationError(f"the uniform product law needs 0 < A < 2, got {A}")


def p0_exact(A: float) -> float:
    """P(R_0 >= A) = 1 - log(A + 1)/2 under the uniform product law."""
    _check_threshold(A)
    return 1.0 - math.log(A + 1.0) / 2.0


def p0_erratum(A: float) -> float:
    """The wrong published form 1 - log(A)/2.

    Kept only as a disconfirmation target for the oracle regression tests;
    never used in any estimate.
    """
    _check_threshold(A)
    return 1.0 - math.log(A) / 2.0


def mu0_exact(A: float) -> float:
    """E(R_0 | R_0 < A) = A/2 under the uniform product law."""
    _check_threshold(A)
    return A / 2.0


def yakir_density(A: float, x) -> np.ndarray:
    """Unconditional density of R_0 = (R + 1)Z on (0, 2(A+1)).

    phi0(x) = log(2(A+1)/max(x, 2)) / (2A), obtained by integrating the
    product over R ~ U[0, A].
    """
    _check_threshold(A)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(arr)
    inside = (arr > 0) & (arr < 2.0 * (A + 1.0))
    xm = np.maximum(arr[inside], 2.0)
    out[inside] = np.log(2.0 * (A + 1.0) / xm) / (2.0 * A)
    return out if np.ndim(x) else float(out[0])


def yakir_mean(A: float) -> float:
    """E R_0 = A/2 + 1."""
    _check_threshold(A)
    return A / 2.0 + 1.0


def size_biased_mean(A: float) -> float:
    """Mean of the size-biased law (x+1) phi0(x) / (E R_0 + 1)."""
    m1 = yakir_mean(A)
    # E R_0^2 = E(R+1)^2 E Z^2 = ((A+1)^3 - 1)/(3A) * 4/3
    m2 = ((A + 1.0) ** 3 - 1.0) / (3.0 * A) * (4.0 / 3.0)
    return (m2 + m1) / (m1 + 1.0)


#: Gauss-Legendre nodes per smooth piece of an integrand; the rule is exact
#: for polynomials of degree up to 2 * 48 - 1 = 95 on each piece.
GAUSS_LEGENDRE_NODES = 48


@cache
def _legendre_rule() -> tuple:
    """Nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1],
    built once per process.

    Newton's method on the three-term recurrence of the Legendre polynomial
    P_n, from the cosine guesses cos(pi (k - 1/4) / (n + 1/2)), finds the n
    roots elementwise, with no eigen-solve; the weights are
    2 / ((1 - x^2) P_n'(x)^2).  As in numpy's ``leggauss``, the nodes and
    weights are then made symmetric and the weights scaled to sum to 2.
    """
    n = GAUSS_LEGENDRE_NODES

    def legendre(x):
        # (P_n(x), P_n'(x)), with j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-16:
            break
    dp = legendre(x)[1]
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    x = (x - x[::-1]) / 2.0
    weights = (weights + weights[::-1]) / 2.0
    return x, weights * (2.0 / math.fsum(weights))


def _gauss_legendre(fn: Callable, breaks: Sequence[float]) -> float:
    """Integral of ``fn`` from ``breaks[0]`` to ``breaks[-1]``.

    ``fn`` maps an array of points to an array of values and must be smooth
    between consecutive breakpoints; each such piece gets the
    :data:`GAUSS_LEGENDRE_NODES`-node Gauss-Legendre rule.  The weighted sums
    are einsum reductions, not BLAS dots, and the pieces add with ``fsum``.
    """
    nodes, weights = _legendre_rule()
    pieces = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = (hi - lo) / 2.0
        values = fn(half * nodes + (lo + hi) / 2.0)
        pieces.append(half * np.einsum("i,i->", weights, values))
    return math.fsum(pieces)


def p0_quadrature(A: float) -> float:
    """Tail mass P(R_0 >= A): the tail mean of 1 at A
    (:meth:`HeadStartLaw.tail_mean`), the density integrated by the
    Gauss-Legendre rule on its smooth pieces [A, 2] and [2, 2(A+1)]."""
    return HeadStartLaw.yakir(A).tail_mean(np.ones_like, A)


def mu0_quadrature(A: float) -> float:
    """Conditional mean E(R_0 | R_0 < A): the first moment and the mass of the
    density on [0, A], one smooth piece, each by the Gauss-Legendre rule."""
    _check_threshold(A)
    num = _gauss_legendre(lambda x: x * yakir_density(A, x), [0.0, A])
    return num / _gauss_legendre(partial(yakir_density, A), [0.0, A])


def _oracle_chunk(rng: np.random.Generator, count: int, *, law: HeadStartLaw,
                  A: float):
    """The row ``(count, m, sum c, sum c^2, sum r0, sum r0^2)`` of ``count``
    head starts ``r0``, of which the ``m`` draws ``c`` lie below ``A``.

    The draws are summed, then the ones below ``A`` move to the front of
    their buffer (:func:`qdetect.montecarlo._running`) and are summed there,
    all in a borrowed workspace; only the row is new.
    """
    with qrng.workspace() as ws:
        r0 = law.sample(rng, count, math.inf, ws)
        r0_sums = moment_sums(r0)
        m = _running(r0, A, ws)
        return (np.array([[count, m, *moment_sums(r0[:m]), *r0_sums]]),)


def functionals_oracle(law: HeadStartLaw, A: float, reps: int, seed: int,
                       workers: int = qrng.DEFAULT_WORKERS) -> dict:
    """Brute-force Monte Carlo estimates of p0, mu0 and the mean of R_0.

    Returns a dict of :class:`qdetect.montecarlo.McEstimate` under the keys
    ``p0``, ``mu0`` and ``mean``.  The threshold must satisfy 0 < A < inf.
    The conditional mean uses rejection on {R_0 < A} and raises
    :class:`UndefinedConditionalError` if fewer than 2 draws land there.
    The ``reps`` draws run in chunks on the streams of the tag
    ``oracle/A=<float(A)!r>``, one per threshold, on ``workers`` threads, and
    each chunk leaves only its :func:`_oracle_chunk` row, so memory is
    bounded by the chunk.
    """
    check_threshold(A)
    reps = check_oracle_reps(reps)
    rows = qrng.run_chunked(partial(_oracle_chunk, law=law, A=A), reps, seed,
                            f"oracle/A={float(A)!r}", workers=workers)[0]
    count, m, cond_sum, cond_sq, r0_sum, r0_sq = rows.sum(axis=0)
    hits = int(count - m)
    return {"p0": mc_estimate(reps, hits, hits),
            "mu0": mc_estimate(int(m), cond_sum, cond_sq, rejected=hits),
            "mean": mc_estimate(reps, r0_sum, r0_sq)}


def oracle_checks(A: float, reps: int, seed: int,
                  workers: int = qrng.DEFAULT_WORKERS) -> list:
    """The six oracle checks of the closed forms at ``A``, one
    ``(name, ok, margin, detail)`` tuple each.

    ``p0`` and ``mu0`` must match their quadratures to
    :data:`ORACLE_QUAD_TOL` (margin: the absolute error); ``p0``, ``mu0`` and
    the mean must match :func:`functionals_oracle` with ``reps`` draws within
    :data:`ORACLE_Z_LIMIT` standard errors, and the erratum ``p0`` must miss
    its Monte Carlo ``p0`` by more than :data:`ERRATUM_MIN_Z` (margin: the
    distance in standard errors).  The draws are those of
    ``functionals_oracle(HeadStartLaw.yakir(A), A, reps, seed, workers)``,
    chunked on the streams of the tag ``oracle/A=<float(A)!r>``.
    """
    o = functionals_oracle(HeadStartLaw.yakir(A), A, reps, seed, workers)
    exact = {"p0": p0_exact(A), "mu0": mu0_exact(A), "mean": yakir_mean(A)}
    quad = {"p0": p0_quadrature(A), "mu0": mu0_quadrature(A)}
    checks = []
    for key in ("p0", "mu0"):
        err = abs(exact[key] - quad[key])
        checks.append((f"{key}-quadrature A={A}", err <= ORACLE_QUAD_TOL, err,
                       f"exact={exact[key]:.12f} quad={quad[key]:.12f}"))
    for key in ("p0", "mu0", "mean"):
        hat, se = o[key].mean, o[key].stderr
        z = abs(exact[key] - hat) / se
        detail = f"exact={exact[key]:.6f} hat={hat:.6f}"
        if key != "mean":
            detail += f" se={se:.6f}"
        checks.append((f"{key}-oracle A={A}", z <= ORACLE_Z_LIMIT, z, detail))
    gap, se = abs(p0_erratum(A) - o["p0"].mean), o["p0"].stderr
    checks.append((f"erratum-rejected A={A}", gap / se > ERRATUM_MIN_Z, gap / se,
                   f"|erratum-hat|={gap:.4f} ({ERRATUM_MIN_Z:g} SE = {ERRATUM_MIN_Z * se:.4f})"))
    return checks
