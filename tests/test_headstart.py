import math

import numpy as np
import pytest

from qdetect import (
    ConfigurationError,
    DomainError,
    HeadStartLaw,
    UndefinedConditionalError,
    functionals_oracle,
    mu0_exact,
    mu0_quadrature,
    p0_erratum,
    p0_exact,
    p0_quadrature,
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

    @pytest.mark.parametrize("a", A_GRID)
    def test_quadrature_agreement(self, a):
        assert abs(p0_exact(a) - p0_quadrature(a)) <= 1e-10
        assert abs(mu0_exact(a) - mu0_quadrature(a)) <= 1e-10

    @pytest.mark.parametrize("a, expected", [(1.8, 0.9), (1.5, 0.75)])
    def test_mu0_values(self, a, expected):
        assert mu0_exact(a) == expected

    @pytest.mark.parametrize("a", [-1.0, 0.0, 2.0, 2.5])
    def test_domain_errors(self, a):
        with pytest.raises(DomainError):
            p0_exact(a)
        with pytest.raises(DomainError):
            mu0_exact(a)

    def test_density_normalizes(self):
        for a in (1.5, 1.9):
            xs = np.linspace(1e-9, 2 * (a + 1), 200001)
            mass = np.trapezoid(yakir_density(a, xs), xs)
            assert mass == pytest.approx(1.0, abs=1e-6)


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
        with pytest.raises(DomainError):
            HeadStartLaw.yakir(2.0)

    def test_negative_point_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            HeadStartLaw.point_mass(-1.0)


class TestOracle:
    @pytest.mark.parametrize("a", A_GRID)
    def test_oracle_matches_closed_forms(self, a):
        law = HeadStartLaw.yakir(a)
        oracle = functionals_oracle(law, a, 10**5, np.random.default_rng(int(a * 100)))
        assert abs(oracle["p0_hat"] - p0_exact(a)) <= 4.0 * oracle["p0_se"]
        assert abs(oracle["mu0_hat"] - mu0_exact(a)) <= 4.0 * oracle["mu0_se"]
        assert abs(oracle["mean_hat"] - yakir_mean(a)) <= 4.0 * oracle["mean_se"]

    def test_erratum_form_fails_oracle(self):
        # regression guard: the corrected p0, not 1 - log(A)/2, matches data
        law = HeadStartLaw.yakir(1.5)
        oracle = functionals_oracle(law, 1.5, 10**6, np.random.default_rng(3))
        assert abs(oracle["p0_hat"] - p0_erratum(1.5)) > 20.0 * oracle["p0_se"]
        assert abs(oracle["p0_hat"] - p0_exact(1.5)) <= 4.0 * oracle["p0_se"]

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
