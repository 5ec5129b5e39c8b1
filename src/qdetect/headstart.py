"""Head-start distributions for the modified Shiryaev-Roberts procedure.

The main law is the uniform product construction for the exponential example:
R_0 = (R + 1) Z with (R, Z) uniform on [0, A] x [0, 2], valid for 0 < A < 2.
Its closed-form functionals

    p0 = P(R_0 >= A) = 1 - log(A + 1)/2,      mu0 = E(R_0 | R_0 < A) = A/2,

are exposed together with independent quadrature and Monte Carlo oracles, as
are the exact SR expectations E_1 N, E_1(R_0 N) and E_inf N (:func:`sr_exact`).
A historically published (and wrong) variant of p0, 1 - log(A)/2, is kept
purely so regression tests can show it fails the oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .errors import ConfigurationError
from .montecarlo import check_threshold, mc_estimate
from .rng import check_count, check_seed

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

    For CUSTOM laws, ``sampler(rng, size)`` must return nonnegative draws.
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

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Draw from the law; draw-count per replication is fixed per kind."""
        if self.kind is LawKind.POINT_MASS:
            return np.full(size, self.r0) if size is not None else self.r0
        if self.kind is LawKind.YAKIR_UNIFORM_PRODUCT:
            # (U(0, a) + 1) U(0, 2), in place: uniform(0, a) is 0 + a u
            r0 = rng.random(size)
            r0 *= self.a_param
            r0 += 1.0
            z = rng.random(size)
            z *= 2.0
            r0 *= z
            return r0
        return self.sampler(rng, size)


def check_head_start(r0) -> None:
    """Raise unless every head start in ``r0`` (a number or an array) is finite
    and nonnegative.  Two reductions, no temporary: it runs on every chunk."""
    for x in (np.min(r0, initial=0.0), np.max(r0, initial=0.0)):
        if not (0.0 <= x < math.inf):
            raise ConfigurationError(f"head start must be finite and nonnegative, got {x}")


def check_oracle_reps(reps: int) -> int:
    """``reps`` as an ``int`` if it is a whole number >= :data:`ORACLE_MIN_REPS`."""
    return check_count(reps, "oracle reps", ORACLE_MIN_REPS)


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


def sr_exact(A: float) -> tuple[float, float, float]:
    """Exact ``(E_1 N, E_1(R_0 N), E_inf N)`` under the uniform product law.

    For A < 2 the renewal equations of Moustakides, Polunchenko & Tartakovsky
    (Statistica Sinica 21, 2011) are rank one: from a head start r < A,
    E_1[N | r] = 1 + D/(2(1+r)^2) and E_inf[N | r] = 1 + C/(2(1+r)), and N = 0
    for r >= A.  The head-start density is the constant log(1+A)/(2A) on
    [0, A), so each expectation integrates in closed form.
    """
    _check_threshold(A)
    log1a = math.log1p(A)
    c0 = log1a / (2.0 * A)
    i_term = log1a + 1.0 / (1.0 + A) - 1.0
    d = (A * A / 2.0) / (1.0 - i_term / 2.0)
    c = A / (1.0 - log1a / 2.0)
    return (c0 * (A + d * A / (2.0 * (1.0 + A))),
            c0 * (A * A / 2.0 + d * i_term / 2.0),
            c0 * (A + c * log1a / 2.0))


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


def p0_quadrature(A: float) -> float:
    """Tail mass P(R_0 >= A) by numerical integration of the density."""
    _check_threshold(A)
    val, _ = integrate.quad(lambda x: yakir_density(A, x), A, 2.0 * (A + 1.0),
                            points=[2.0], limit=200)
    return val


def mu0_quadrature(A: float) -> float:
    """Conditional mean E(R_0 | R_0 < A) by numerical integration."""
    _check_threshold(A)
    num, _ = integrate.quad(lambda x: x * yakir_density(A, x), 0.0, A, limit=200)
    den, _ = integrate.quad(lambda x: yakir_density(A, x), 0.0, A, limit=200)
    return num / den


def functionals_oracle(law: HeadStartLaw, A: float, reps: int,
                       rng: np.random.Generator) -> dict:
    """Brute-force Monte Carlo estimates of p0, mu0 and the mean of R_0.

    Returns a dict with keys ``p0_hat``, ``p0_se``, ``mu0_hat``, ``mu0_se``,
    ``mean_hat`` and ``mean_se``.  The threshold must satisfy 0 < A < inf.
    The conditional mean uses rejection on {R_0 < A} and raises
    :class:`UndefinedConditionalError` if fewer than 2 draws land there.
    """
    check_threshold(A)
    reps = check_oracle_reps(reps)
    draws = np.asarray(law.sample(rng, reps), dtype=float)
    cond = draws[draws < A]
    hits = reps - cond.size
    p0 = mc_estimate(reps, hits, hits)
    mu0 = mc_estimate(cond.size, cond.sum(), cond @ cond, rejected=hits)
    mean = mc_estimate(reps, draws.sum(), draws @ draws)
    return {"p0_hat": p0.mean, "p0_se": p0.stderr, "mu0_hat": mu0.mean,
            "mu0_se": mu0.stderr, "mean_hat": mean.mean, "mean_se": mean.stderr}


def oracle_comparison(A: float, reps: int, seed: int) -> dict:
    """:func:`functionals_oracle` of the uniform product law, seeded by
    ``SeedSequence([seed, int(A * 1000)])``, plus the exact ``p0``, ``mu0`` and
    ``mean``, the quadratures ``p0_quad``, ``mu0_quad`` and ``p0_erratum``."""
    rng = np.random.default_rng(np.random.SeedSequence([check_seed(seed), int(A * 1000)]))
    out = functionals_oracle(HeadStartLaw.yakir(A), A, reps, rng)
    out.update(p0=p0_exact(A), mu0=mu0_exact(A), mean=yakir_mean(A),
               p0_quad=p0_quadrature(A), mu0_quad=mu0_quadrature(A),
               p0_erratum=p0_erratum(A))
    return out
