"""Closed-form evaluators for the competing delay and Bayes-limit expressions.

Two closed forms for E_1 N are compared: the historical prediction

    yakir_e1:  (mu0 + 1)(1 - p0) / (p0 (mu0 + 1) + 1)

and the corrected one that carries the cross moment E_1(R_0 N):

    mei_e1:    (mu0 + 1)(1 - p0) - p0 * E_1(R_0 N).

For the small-p Bayes limit C = lim (1 - risk)/p the historical claim and the
corrected theorem read

    c_limit_eq3:  (1 - c* E_1 N) [E R_0 + 1 + E_inf N]
    c_limit_eq4:  [E R_0 + 1 + E_inf N]
                  - c* [E_1(R_0 N) + (E_1 N)(1 + E_inf N)]

whose difference is identically c* (E_1(R_0 N) - E_1 N * E R_0).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .rng import derive_rng


def _check_prob(p0: float) -> None:
    if not (0.0 <= p0 <= 1.0):
        raise ConfigurationError(f"p0 must be a probability, got {p0}")


def yakir_e1(p0: float, mu0: float) -> float:
    """The refuted closed form for E_1 N (retained for disconfirmation)."""
    _check_prob(p0)
    return (mu0 + 1.0) * (1.0 - p0) / (p0 * (mu0 + 1.0) + 1.0)


def mei_e1(p0: float, mu0: float, cross_term: float) -> float:
    """The corrected closed form for E_1 N, using the cross moment."""
    _check_prob(p0)
    return (mu0 + 1.0) * (1.0 - p0) - p0 * cross_term


def c_limit_eq4(e_r0: float, e1_delay: float, arl_false: float,
                cross_term: float, c_star: float) -> float:
    """Corrected small-p limit of (1 - risk)/p for the SR rule."""
    return (e_r0 + 1.0 + arl_false) - c_star * (
        cross_term + e1_delay * (1.0 + arl_false))


def c_limit_eq3(e_r0: float, e1_delay: float, arl_false: float,
                c_star: float) -> float:
    """The refuted small-p limit (evaluated for comparison only)."""
    return (1.0 - c_star * e1_delay) * (e_r0 + 1.0 + arl_false)


def limit_difference_identity(seed: int) -> tuple[bool, float]:
    """``(worst <= 1e-12, worst)``, worst the largest relative error of the
    difference identity over 500 random inputs from the stream
    ``derive_rng(seed, "eq3-eq4-difference", 0)``."""
    rng = derive_rng(seed, "eq3-eq4-difference", 0)
    e_r0, e1d, arl, cross, c_star = rng.uniform(0.01, 5.0, (5, 500))
    lhs = c_limit_eq3(e_r0, e1d, arl, c_star) - c_limit_eq4(e_r0, e1d, arl, cross, c_star)
    rhs = c_star * (cross - e1d * e_r0)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
    return worst <= 1e-12, worst


def c_lower_bound_eq11(e_r0: float, arl_false: float, cross_term_n: float,
                       delay_sup_n: float, c_star: float) -> float:
    """Lower bound on the limit for an arbitrary stopping time.

    Equality holds for the SR rule itself because its conditional delay
    profile is flat (equalizer), in which case this coincides with
    :func:`c_limit_eq4`.
    """
    return (e_r0 + 1.0 - c_star * cross_term_n + arl_false
            - c_star * delay_sup_n * (arl_false + 1.0))
