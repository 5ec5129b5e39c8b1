import math

import numpy as np
import pytest
from numpy.polynomial import Legendre
from scipy import integrate, stats

from conftest import reference_post_change_d

from qdetect import (
    ConfigurationError,
    HeadStartLaw,
    UndefinedConditionalError,
    conditional_headstart_diagnostic,
    estimate_e1_delay,
    functionals_oracle,
    identity_checks,
    oracle_checks,
    mu0_exact,
    mu0_quadrature,
    p0_exact,
    p0_quadrature,
    sr_exact,
    yakir_density,
    yakir_mean,
)
from qdetect.headstart import GAUSS_LEGENDRE_NODES, _gauss_legendre, _legendre_rule
from qdetect.rng import Workspace

A_GRID = [1.5, 1.6, 1.7, 1.8, 1.9, 1.98]


class TestClosedForms:
    def test_p0_reference_values(self):
        assert p0_exact(1.5) == pytest.approx(1.0 - math.log(2.5) / 2.0)
        assert p0_exact(1.5) == pytest.approx(0.541855, abs=1e-6)
        assert p0_exact(1.98) == pytest.approx(0.454038, abs=1e-6)

    def test_p0_tends_to_one_at_small_threshold(self):
        assert p0_exact(1e-9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a, expected", [(1.8, 0.9), (1.5, 0.75)])
    def test_mu0_values(self, a, expected):
        assert mu0_exact(a) == expected

    @pytest.mark.parametrize("a", [-1.0, 0.0, 2.0, 2.5])
    def test_domain_errors(self, a):
        with pytest.raises(ConfigurationError):
            p0_exact(a)
        with pytest.raises(ConfigurationError):
            mu0_exact(a)
        with pytest.raises(ConfigurationError):
            sr_exact(a)

    def test_density_normalizes(self):
        for a in (1.5, 1.9):
            xs = np.linspace(1e-9, 2 * (a + 1), 200001)
            mass = np.trapezoid(yakir_density(a, xs), xs)
            assert mass == pytest.approx(1.0, abs=1e-6)


def _renewal_quadrature(a):
    """E_1 N, E_1(R_0 N), E_inf N: the rank-one renewal solutions for a head
    start r < a, integrated numerically against the head-start density; the
    delay from r is 1 + d/(2 (1 + r)^2) = D_1(r), so d = 2 d_1."""
    d = 2.0 * reference_post_change_d(a, 1.0)
    c = a / (1.0 - math.log1p(a) / 2.0)

    def integral(fn):
        val, _ = integrate.quad(lambda r: fn(r) * yakir_density(a, r), 0.0, a,
                                epsabs=1e-14, epsrel=1e-13, limit=200)
        return val

    e1 = integral(lambda r: 1.0 + d / (2.0 * (1.0 + r) ** 2))
    cross = integral(lambda r: r * (1.0 + d / (2.0 * (1.0 + r) ** 2)))
    arl = integral(lambda r: 1.0 + c / (2.0 * (1.0 + r)))
    return e1, cross, arl


class TestSrExact:
    def test_reference_values(self):
        assert sr_exact(1.5) == pytest.approx((0.58059, 0.40816, 0.84551), abs=5e-6)

    @pytest.mark.parametrize("a", A_GRID)
    def test_matches_quadrature(self, a):
        assert sr_exact(a) == pytest.approx(_renewal_quadrature(a), rel=0, abs=1e-12)


#: thresholds from near 0 to near 2, where the piece [A, 2] all but vanishes
QUAD_GRID = [*np.linspace(0.01, 1.999, 25).tolist(), 1.9999999]
#: well inside ORACLE_QUAD_TOL (1e-10), so the oracle checks cannot pass by slack
QUAD_ABS = 1e-13


def _scipy_quadratures(a):
    """p0 and mu0 by adaptive quadrature, the helper's independent oracle."""
    def quad(fn, lo, hi, **kw):
        return integrate.quad(fn, lo, hi, limit=200, **kw)[0]
    p0 = quad(lambda x: yakir_density(a, x), a, 2.0 * (a + 1.0), points=[2.0])
    mu0 = quad(lambda x: x * yakir_density(a, x), 0.0, a) / quad(
        lambda x: yakir_density(a, x), 0.0, a)
    return p0, mu0


class TestQuadrature:
    @pytest.mark.parametrize("a", QUAD_GRID)
    def test_matches_closed_forms(self, a):
        assert p0_quadrature(a) == pytest.approx(p0_exact(a), rel=0, abs=QUAD_ABS)
        assert mu0_quadrature(a) == pytest.approx(mu0_exact(a), rel=0, abs=QUAD_ABS)

    @pytest.mark.parametrize("a", QUAD_GRID)
    def test_matches_adaptive_quadrature(self, a):
        p0, mu0 = _scipy_quadratures(a)
        assert p0_quadrature(a) == pytest.approx(p0, rel=0, abs=QUAD_ABS)
        assert mu0_quadrature(a) == pytest.approx(mu0, rel=0, abs=QUAD_ABS)

    def test_each_piece_exact_to_degree_95(self):
        # one Legendre series of degree 2 * nodes - 1 per piece; the integral
        # of a series over its own domain is the domain's length times c_0
        degree = 2 * GAUSS_LEGENDRE_NODES - 1
        rng = np.random.default_rng(95)
        left, right = rng.standard_normal((2, degree + 1))
        p_left = Legendre(left, domain=[0.3, 1.0])
        p_right = Legendre(right, domain=[1.0, 2.5])
        value = _gauss_legendre(lambda x: np.where(x < 1.0, p_left(x), p_right(x)),
                                [0.3, 1.0, 2.5])
        assert value == pytest.approx(0.7 * left[0] + 1.5 * right[0], rel=0, abs=QUAD_ABS)

    def test_rule_matches_numpy_leggauss(self):
        # Newton's method on the recurrence, against numpy's eigen-solve
        nodes, weights = _legendre_rule()
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_NODES)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-11, atol=0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.all(np.diff(nodes) > 0)
        assert math.fsum(weights) == 2.0

    def test_degree_96_is_not_exact(self):
        # with the test above, pins the rule at 48 nodes: more would integrate this too
        p96 = Legendre.basis(2 * GAUSS_LEGENDRE_NODES, domain=[0.3, 1.0])
        assert abs(_gauss_legendre(p96, [0.3, 1.0])) > 1e-3


class TestSampling:
    def test_point_mass_is_constant(self):
        law = HeadStartLaw.point_mass(0.0)
        rng = np.random.default_rng(0)
        assert (law.sample(rng, 10, math.inf, Workspace()) == 0.0).all()

    def test_yakir_range(self):
        law = HeadStartLaw.yakir(1.5)
        draws = law.sample(np.random.default_rng(1), 10**5, math.inf, Workspace())
        assert draws.min() >= 0.0
        assert draws.max() <= 2.0 * 2.5

    def test_yakir_mean(self):
        law = HeadStartLaw.yakir(1.7)
        draws = law.sample(np.random.default_rng(2), 10**6, math.inf, Workspace())
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - yakir_mean(1.7)) <= 4.0 * se

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            HeadStartLaw.yakir(2.0)

    def test_negative_point_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            HeadStartLaw.point_mass(-1.0)

    @pytest.mark.parametrize("r0", [math.nan, math.inf])
    def test_non_finite_point_mass_rejected(self, r0):
        with pytest.raises(ConfigurationError):
            HeadStartLaw.point_mass(r0)

    @pytest.mark.parametrize("r0", [math.nan, -0.5])
    def test_bad_custom_draws_rejected(self, r0):
        # unchecked, nan draws give E_1 N = 0 with a zero standard error
        law = HeadStartLaw.custom(lambda rng, size: np.full(size, r0))
        with pytest.raises(ConfigurationError):
            estimate_e1_delay(1.5, law, 1000, 1)
        with pytest.raises(ConfigurationError):
            functionals_oracle(law, 1.5, 10**4, 7)

    @pytest.mark.parametrize("sampler", [
        lambda rng, size: np.full(size - 1, 0.3),  # numpy: a bare broadcast ValueError
        lambda rng, size: 0.3,  # numpy: broadcast silently to a point mass
    ], ids=["one-short", "scalar"])
    def test_custom_draws_of_the_wrong_shape_rejected(self, sampler):
        law = HeadStartLaw.custom(sampler)
        with pytest.raises(ConfigurationError, match="shape"):
            estimate_e1_delay(1.5, law, 1000, 1)
        with pytest.raises(ConfigurationError, match="shape"):
            functionals_oracle(law, 1.5, 10**4, 7)


class TestSampleBelow:
    """``sample`` at a threshold A has the law of the whole law's draws
    (``sample`` at ``math.inf``) then ``montecarlo._running``."""

    N = 10**6

    @pytest.mark.parametrize("a, a_stop", [(0.3, 0.3), (1.5, 1.5), (1.98, 1.98), (1.5, 1.9)])
    def test_yakir_matches_sample_then_running(self, a, a_stop):
        law = HeadStartLaw.yakir(a)
        below = law.sample(np.random.default_rng(11), self.N, a_stop, Workspace()).copy()
        # the count below A is fixed: N times the density integrated on [0, A)
        mass = integrate.quad(lambda x: yakir_density(a, x), 0.0, a_stop)[0]
        assert below.size == round(self.N * mass)
        assert law.mass_below(a_stop) == pytest.approx(mass, rel=1e-12, abs=0)
        draws = law.sample(np.random.default_rng(12), self.N, math.inf, Workspace())
        assert stats.ks_2samp(below, draws[draws < a_stop]).pvalue > 1e-3

    @pytest.mark.parametrize("r0, kept", [(1.0, N), (2.0, 0)])
    def test_point_mass_keeps_every_run_or_none(self, r0, kept):
        rng = np.random.default_rng(13)
        below = HeadStartLaw.point_mass(r0).sample(rng, self.N, 1.5, Workspace())
        assert below.size == kept and (below == r0).all()
        assert rng.bit_generator.state == np.random.default_rng(13).bit_generator.state

    @pytest.mark.parametrize("law, a_stop", [
        (HeadStartLaw.yakir(1.5), 3.0),
        (HeadStartLaw.custom(lambda rng, size: 4.0 * rng.random(size)), 1.5),
    ], ids=["yakir-A>2", "custom"])
    def test_other_laws_draw_sample_then_running(self, law, a_stop):
        below = law.sample(np.random.default_rng(14), 10**4, a_stop, Workspace())
        draws = law.sample(np.random.default_rng(14), 10**4, math.inf, Workspace())
        assert 0 < below.size < 10**4 and np.array_equal(below, draws[draws < a_stop])


class TestTailMean:
    @pytest.mark.parametrize("a, a_stop", [(1.5, 1.5), (0.3, 0.3), (1.5, 1.9), (1.5, 2.5)])
    def test_yakir_matches_adaptive_quadrature(self, a, a_stop):
        def fn(x):
            return np.exp(-x) / (1.0 + x)
        want = integrate.quad(lambda x: fn(x) * yakir_density(a, x), a_stop, 2.0 * (a + 1.0),
                              points=[2.0] if a_stop < 2.0 else None, limit=200)[0]
        got = HeadStartLaw.yakir(a).tail_mean(fn, a_stop)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_yakir_with_no_mass_at_or_above_a(self):
        assert HeadStartLaw.yakir(1.5).tail_mean(np.ones_like, 5.0) == 0.0

    @pytest.mark.parametrize("r0, want", [(2.0, 1.0 / 3.0), (1.5, 0.4), (1.0, 0.0)])
    def test_point_mass_is_exact(self, r0, want):
        assert HeadStartLaw.point_mass(r0).tail_mean(lambda x: 1.0 / (1.0 + x), 1.5) == want

    def test_custom_law_has_no_tail_integral(self):
        law = HeadStartLaw.custom(lambda rng, size: rng.random(size))
        with pytest.raises(ConfigurationError, match="custom"):
            law.tail_mean(np.ones_like, 1.5)


class TestOraclesDrawTheFullLaw:
    def test_oracles_sample_at_infinite_threshold(self, monkeypatch):
        # the p0 and mu0 oracles check the fact that sample draws from below
        # a threshold, so they, the conditional mean and the identity check
        # draw the whole law, at A = inf
        thresholds = []
        sample = HeadStartLaw.sample

        def recording(law, rng, count, a_stop, ws):
            thresholds.append(a_stop)
            return sample(law, rng, count, a_stop, ws)

        monkeypatch.setattr(HeadStartLaw, "sample", recording)
        assert all(ok for _, ok, _, _ in oracle_checks(1.5, 10**5, 3, workers=1))
        conditional_headstart_diagnostic(HeadStartLaw.yakir(1.5), 0.01, 10**5, 3, workers=1)
        assert thresholds and all(a_stop == math.inf for a_stop in thresholds)
        # the identity check's brute-force chunk draws the whole law; the
        # score estimate it is compared with then draws below A
        thresholds.clear()
        assert all(ok for _, ok, _, _ in identity_checks(1.5, 0.1, 10**4, 3, workers=1))
        assert thresholds == [math.inf, 1.5]


class TestOracle:
    @pytest.mark.parametrize("a", A_GRID)
    def test_oracle_matches_closed_forms(self, a):
        law = HeadStartLaw.yakir(a)
        oracle = functionals_oracle(law, a, 10**5, int(a * 100))
        for key, exact in (("p0", p0_exact(a)), ("mu0", mu0_exact(a)),
                           ("mean", yakir_mean(a))):
            assert abs(oracle[key].mean - exact) <= 4.0 * oracle[key].stderr

    def test_point_mass_below_threshold(self):
        law = HeadStartLaw.point_mass(0.4)
        oracle = functionals_oracle(law, 1.5, 10**4, 4)
        assert oracle["p0"].mean == 0.0
        assert oracle["mu0"].mean == pytest.approx(0.4)

    def test_single_draw_below_threshold(self):
        # one draw below A leaves mu0 without a standard error
        law = HeadStartLaw.custom(
            lambda rng, size: np.where(np.arange(size) == 0, 0.4, 3.0))
        with pytest.raises(UndefinedConditionalError):
            functionals_oracle(law, 1.5, 10**4, 5)

    def test_zero_conditioning_mass(self):
        law = HeadStartLaw.point_mass(3.0)
        with pytest.raises(UndefinedConditionalError):
            functionals_oracle(law, 1.5, 10**4, 5)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -1.0])
    def test_threshold_must_be_finite_and_positive(self, a):
        with pytest.raises(ConfigurationError):
            functionals_oracle(HeadStartLaw.point_mass(0.4), a, 10**4, 6)

    def test_reps_floor(self):
        with pytest.raises(ConfigurationError):
            functionals_oracle(HeadStartLaw.yakir(1.5), 1.5, 10, 6)
