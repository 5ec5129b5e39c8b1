"""The rank-one chain of ``qdetect.exact`` against independent routes: the
constants against ``conftest.reference_post_change_d`` and their defining
formulas, the law integrals against the law's own closed forms, and
``sr_exact`` at several head-start laws against a Nyström solution of the
two renewal equations and against the SR estimators."""

import math

import numpy as np
import pytest

from conftest import reference_post_change_d

from qdetect import (
    ConfigurationError,
    HeadStartLaw,
    estimate_arl_false,
    estimate_e1_and_cross,
    sr_exact,
    yakir_density,
    yakir_mean,
)
from qdetect import bayes, exact

SEED = 20240824

#: Gauss-Legendre nodes of the Nyström route on [0, A).
NYSTROM_NODES = 16


def _nystrom(A, law):
    """``(E_1 N, E_1(R_0 N), E_inf N)`` from ``law`` (a point mass or
    ``yakir(a)``, at A < 2), from a Nyström solution of the renewal equations.

    A run from r < A steps to R' = (1 + r) L; it stops if R' >= A, else it
    goes on from R'.  So E[N | r] = 1 + int_0^A E[N | x] k(r, x) dx, with k
    the density of R' on [0, A): 1/(2 (1 + r)) before the change (L = 2U)
    and x/(2 (1 + r)^2) after it (L = 2 sqrt(U)).  The equation is solved at
    the nodes of a 16-node Gauss-Legendre rule (numpy's ``leggauss``) and
    extended to any r by the Nyström interpolant; a run from r >= A has
    N = 0.  A point mass reads the interpolant, and ``yakir(a)`` integrates
    the values at the nodes by the same rule against its density.
    """
    t, w = np.polynomial.legendre.leggauss(NYSTROM_NODES)
    x, w = A / 2.0 * (t + 1.0), A / 2.0 * w

    def solve(kernel):
        at_nodes = np.linalg.solve(np.eye(x.size) - kernel(x[:, None], x) * w, np.ones(x.size))
        return lambda r: 1.0 + np.sum(kernel(np.asarray(r)[..., None], x) * w * at_nodes,
                                      axis=-1)

    e1 = solve(lambda r, y: y / (2.0 * (1.0 + r) ** 2))
    arl = solve(lambda r, y: np.ones_like(y) / (2.0 * (1.0 + r)))
    if law.r0 is not None:
        r = law.r0
        return (float(e1(r)), float(r * e1(r)), float(arl(r))) if r < A else (0.0, 0.0, 0.0)
    density = w * yakir_density(law.a_param, x)
    return tuple(float(np.sum(density * v)) for v in (e1(x), x * e1(x), arl(x)))


LAWS = {"point-mass-0.5": HeadStartLaw.point_mass(0.5), "yakir-0.5": HeadStartLaw.yakir(0.5),
        "yakir-1.9": HeadStartLaw.yakir(1.9)}


class TestConstants:
    @pytest.mark.parametrize("a", [0.3, 1.0, 1.5, 1.98])
    @pytest.mark.parametrize("q", [1.0, 0.98, 0.5])
    def test_d_q_matches_reference(self, a, q):
        assert exact.d_q(a, q) == pytest.approx(reference_post_change_d(a, q), rel=1e-15)

    def test_values_at_1_5(self):
        # I = log 2.5 + 0.4 - 1, rho_q = q log(2.5)/2, a_q(0.5) = 1.5 q/3
        assert exact.i_term(1.5) == pytest.approx(math.log(2.5) - 0.6, rel=1e-15)
        assert exact.rho_q(1.5, 0.7) == pytest.approx(0.35 * math.log(2.5), rel=1e-15)
        np.testing.assert_allclose(exact.a_q(1.5, 0.7, np.array([0.5, 0.0])),
                                   [0.35, 0.525], rtol=1e-15)

    @pytest.mark.parametrize("a", [0.0, -1.0, 2.0, math.nan, math.inf])
    def test_threshold_outside_the_rank_one_range_rejected(self, a):
        with pytest.raises(ConfigurationError, match="below 2"):
            sr_exact(a, HeadStartLaw.point_mass(0.5))


class TestMeanBelow:
    @pytest.mark.parametrize("a, a_stop", [(1.5, 1.5), (0.3, 0.3), (1.98, 1.98), (0.5, 1.5),
                                           (1.9, 0.2)])
    def test_two_parts_make_the_whole_law(self, a, a_stop):
        # the mass and the mean of yakir(a), each split at the threshold
        law = HeadStartLaw.yakir(a)
        for fn, want in ((np.ones_like, 1.0), (lambda r: r, yakir_mean(a))):
            assert law.mean_below(fn, a_stop) + law.tail_mean(fn, a_stop) == pytest.approx(
                want, rel=1e-14)
        assert law.mean_below(np.ones_like, a_stop) == pytest.approx(law.mass_below(a_stop),
                                                                     rel=1e-15)

    @pytest.mark.parametrize("r0, want", [(0.5, 2.0 / 3.0), (1.5, 0.0), (2.0, 0.0)])
    def test_point_mass(self, r0, want):
        # the value of 1/(1 + r) at r0 if r0 < A, and 0 at or above A
        law = HeadStartLaw.point_mass(r0)
        assert law.mean_below(lambda r: 1.0 / (1.0 + r), 1.5) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("law, a_stop", [
        (HeadStartLaw.custom(lambda rng, size: rng.random(size)), 1.5),
        (HeadStartLaw.yakir(1.5), 2.5),
    ], ids=["custom", "above-2"])
    def test_no_integral_rejected(self, law, a_stop):
        with pytest.raises(ConfigurationError, match="no integral below"):
            law.mean_below(np.ones_like, a_stop)


class TestNystrom:
    """``sr_exact`` against the Nyström route, which shares no formula with it."""

    @pytest.mark.parametrize("name", LAWS)
    def test_matches_at_a_law(self, name):
        assert sr_exact(1.5, LAWS[name]) == pytest.approx(_nystrom(1.5, LAWS[name]),
                                                          rel=0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.3, 1.98])
    def test_matches_at_yakir_a(self, a):
        assert sr_exact(a) == pytest.approx(_nystrom(a, HeadStartLaw.yakir(a)), rel=0,
                                            abs=1e-12)

    @pytest.mark.parametrize("name", ["point-mass-0.5", "yakir-0.5"])
    def test_estimators_within_4_se(self, name):
        # E_1 N and E_1(R_0 N) from one set of runs, and E_inf N
        law = LAWS[name]
        e1, cross, arl = _nystrom(1.5, law)
        est_e1, est_cross = estimate_e1_and_cross(1.5, law, 200_000, SEED)
        est_arl = estimate_arl_false(1.5, law, 200_000, SEED)
        for est, want in ((est_e1, e1), (est_cross, cross), (est_arl, arl)):
            assert abs(est.mean - want) <= 4.0 * est.stderr, (est, want)

    def test_zero_cost_limit_at_another_law(self):
        # lim E[Y0]/p = E R_0 + 1 + E_inf N, with yakir(0.5)'s own E R_0
        want = yakir_mean(0.5) + 1.0 + _nystrom(1.5, LAWS["yakir-0.5"])[2]
        assert bayes._zero_cost_limit(1.5, LAWS["yakir-0.5"]) == pytest.approx(want, rel=1e-14)
