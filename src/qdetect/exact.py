"""The rank-one chain below a threshold 0 < A < 2, and its exact functionals.

Below A < 2 the SR renewal equations are rank one (Moustakides, Polunchenko
& Tartakovsky, Statistica Sinica 21, 2011).  With q = 1 - p (q = 1 for the
SR problems), a pre-change step from r < A, R' = (1 + r) 2U/q with U
uniform on [0, 1], survives (R' < A) with probability a_q(r) (:func:`a_q`)
and lands uniform on [0, A), whatever r was, so each later step survives
with rho_q (:func:`rho_q`).  A post-change step, R' = (1 + r) 2 sqrt(U)/q,
survives with a_q(r)^2 and lands with density 2x/A^2 on [0, A), where each
later step survives with q^2 I/2 (:func:`i_term`); so the expected
post-change delay from r is D_q(r) = 1 + d_q/(1 + r)^2 (:func:`d_q`).

A run from a head start at or above A stops at N = 0, so every exact
functional of a run is one law integral: the value from r < A over the runs
that step (:meth:`HeadStartLaw.mean_below`) plus the value of a run that
stops at 0 over the others (:meth:`HeadStartLaw.tail_mean`).  So are
:func:`sr_exact` and the Bayes score's no-miss probability and zero-cost
limit (:func:`qdetect.bayes._no_miss_probability`,
:func:`qdetect.bayes._zero_cost_limit`).
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import ConfigurationError
from .headstart import HeadStartLaw


def check_threshold(A: float) -> None:
    """Raise unless 0 < A < 2, where the renewal equations are rank one."""
    if not (0.0 < A < 2.0):
        raise ConfigurationError(
            f"the rank-one chain needs a threshold above 0 and below 2, got {A}")


def i_term(A: float) -> float:
    """I = log(1 + A) + 1/(1 + A) - 1."""
    return math.log1p(A) + 1.0 / (1.0 + A) - 1.0


def rho_q(A: float, q: float) -> float:
    """rho_q = q log(1 + A)/2."""
    return q * math.log1p(A) / 2.0


def a_q(A: float, q: float, r):
    """a_q(r) = q A/(2 (1 + r)), for a number or an array ``r``."""
    return q * A / (2.0 * (1.0 + r))


def d_q(A: float, q: float) -> float:
    """d_q = (q^2 A^2/4)/(1 - q^2 I/2), of the delay D_q(r) = 1 + d_q/(1 + r)^2."""
    return ((q * A) ** 2 / 4.0) / (1.0 - q * q * i_term(A) / 2.0)


def sr_exact(A: float, law: Optional[HeadStartLaw] = None) -> tuple[float, float, float]:
    """Exact ``(E_1 N, E_1(R_0 N), E_inf N)`` from the head-start law ``law``
    (a point mass or ``yakir(a)``; ``yakir(A)`` if omitted), for 0 < A < 2.

    From r < A, E_1[N | r] = D_1(r) and E_inf[N | r] = 1 + a_1(r)/(1 - rho_1)
    (:func:`d_q`, :func:`a_q`, :func:`rho_q`), each integrated over the
    runs below A (:meth:`HeadStartLaw.mean_below`); a run from r >= A has
    N = 0 and adds nothing.
    """
    check_threshold(A)
    law = HeadStartLaw.yakir(A) if law is None else law
    d, rho = d_q(A, 1.0), rho_q(A, 1.0)

    def e1(r):
        return 1.0 + d / (1.0 + r) ** 2
    return (law.mean_below(e1, A), law.mean_below(lambda r: r * e1(r), A),
            law.mean_below(lambda r: 1.0 + a_q(A, 1.0, r) / (1.0 - rho), A))
