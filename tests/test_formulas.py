import pytest
from hypothesis import given, strategies as st

from qdetect import (
    DomainError,
    c_limit_eq3,
    c_limit_eq4,
    c_lower_bound_eq11,
    mei_e1,
    p0_exact,
    yakir_e1,
)

pos = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


class TestYakirE1:
    def test_degenerate_p0_zero(self):
        assert yakir_e1(0.0, 0.75) == pytest.approx(1.75)

    def test_reference_rows(self):
        assert yakir_e1(p0_exact(1.5), 0.75) == pytest.approx(0.4115, abs=5e-5)
        assert yakir_e1(p0_exact(1.7), 0.85) == pytest.approx(0.4757, abs=5e-5)

    def test_invalid_probability(self):
        with pytest.raises(DomainError):
            yakir_e1(1.2, 0.5)


class TestMeiE1:
    def test_reference_row(self):
        value = mei_e1(p0_exact(1.5), 0.75, 0.4079)
        assert value == pytest.approx(0.5806, abs=5e-4)

    @given(pos)
    def test_agrees_with_refuted_form_when_p0_zero(self, mu0):
        assert mei_e1(0.0, mu0, 1.23) == pytest.approx(yakir_e1(0.0, mu0))

    @given(st.floats(min_value=0.0, max_value=1.0), pos)
    def test_zero_cross_term(self, p0, mu0):
        assert mei_e1(p0, mu0, 0.0) == pytest.approx((mu0 + 1.0) * (1.0 - p0))


class TestLimitFormulas:
    @given(pos, pos, pos)
    def test_zero_cost_collapses_both(self, e_r0, e1d, arl):
        base = e_r0 + 1.0 + arl
        assert c_limit_eq3(e_r0, e1d, arl, 0.0) == pytest.approx(base)
        assert c_limit_eq4(e_r0, e1d, arl, 0.7, 0.0) == pytest.approx(base)

    @given(pos, pos, pos, pos, pos)
    def test_symbolic_difference_identity(self, e_r0, e1d, arl, cross, c_star):
        lhs = c_limit_eq3(e_r0, e1d, arl, c_star) - c_limit_eq4(e_r0, e1d, arl, cross, c_star)
        rhs = c_star * (cross - e1d * e_r0)
        assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-12)

    def test_formulas_disagree_for_correlated_inputs(self):
        # measured-style inputs where the cross moment is not E1 N * E R0
        eq3 = c_limit_eq3(1.75, 0.58, 0.846, 0.1)
        eq4 = c_limit_eq4(1.75, 0.58, 0.846, 0.408, 0.1)
        assert abs(eq3 - eq4) > 0.05

    @given(pos, pos, pos, pos)
    def test_eq11_equals_eq4_for_flat_delay_profile(self, e_r0, e1d, arl, cross):
        # equalizer: sup-delay equals E1 N, making the bound an equality
        bound = c_lower_bound_eq11(e_r0, arl, cross, e1d, 0.1)
        assert bound == pytest.approx(c_limit_eq4(e_r0, e1d, arl, cross, 0.1))

    def test_eq11_fixed_time_rule_factorizes(self):
        # a data-blind rule N = m is independent of the head start
        e_r0, m = 1.75, 4.0
        cross_n = e_r0 * m
        bound = c_lower_bound_eq11(e_r0, m, cross_n, m, 0.1)
        assert bound == pytest.approx(
            e_r0 + 1.0 - 0.1 * e_r0 * m + m - 0.1 * m * (m + 1.0))

