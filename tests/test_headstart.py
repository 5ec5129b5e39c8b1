import math

import numpy as np
import pytest
from scipy import integrate

from qdetect import (
    ConfigurationError,
    HeadStartLaw,
    UndefinedConditionalError,
    functionals_oracle,
    mu0_exact,
    p0_exact,
    sr_exact,
    yakir_density,
    yakir_mean,
)

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
    start r < a, integrated numerically against the head-start density."""
    log1a = math.log1p(a)
    i_term = log1a + 1.0 / (1.0 + a) - 1.0
    d = (a * a / 2.0) / (1.0 - i_term / 2.0)
    c = a / (1.0 - log1a / 2.0)

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


class TestSampling:
    def test_point_mass_is_constant(self):
        law = HeadStartLaw.point_mass(0.0)
        rng = np.random.default_rng(0)
        assert law.sample(rng) == 0.0
        assert (law.sample(rng, 10) == 0.0).all()

    def test_yakir_range(self):
        law = HeadStartLaw.yakir(1.5)
        draws = law.sample(np.random.default_rng(1), 10**5)
        assert draws.min() >= 0.0
        assert draws.max() <= 2.0 * 2.5

    def test_yakir_mean(self):
        law = HeadStartLaw.yakir(1.7)
        draws = law.sample(np.random.default_rng(2), 10**6)
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


class TestOracle:
    @pytest.mark.parametrize("a", A_GRID)
    def test_oracle_matches_closed_forms(self, a):
        law = HeadStartLaw.yakir(a)
        oracle = functionals_oracle(law, a, 10**5, np.random.default_rng(int(a * 100)))
        assert abs(oracle["p0_hat"] - p0_exact(a)) <= 4.0 * oracle["p0_se"]
        assert abs(oracle["mu0_hat"] - mu0_exact(a)) <= 4.0 * oracle["mu0_se"]
        assert abs(oracle["mean_hat"] - yakir_mean(a)) <= 4.0 * oracle["mean_se"]

    def test_point_mass_below_threshold(self):
        law = HeadStartLaw.point_mass(0.4)
        oracle = functionals_oracle(law, 1.5, 10**4, np.random.default_rng(4))
        assert oracle["p0_hat"] == 0.0
        assert oracle["mu0_hat"] == pytest.approx(0.4)

    def test_single_draw_below_threshold(self):
        # one draw below A leaves mu0 without a standard error
        law = HeadStartLaw.custom(
            lambda rng, size: np.where(np.arange(size) == 0, 0.4, 3.0))
        with pytest.raises(UndefinedConditionalError):
            functionals_oracle(law, 1.5, 10**4, np.random.default_rng(5))

    def test_zero_conditioning_mass(self):
        law = HeadStartLaw.point_mass(3.0)
        with pytest.raises(UndefinedConditionalError):
            functionals_oracle(law, 1.5, 10**4, np.random.default_rng(5))

    def test_reps_floor(self):
        with pytest.raises(ConfigurationError):
            functionals_oracle(HeadStartLaw.yakir(1.5), 1.5, 10, np.random.default_rng(6))
