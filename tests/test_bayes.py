import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdetect import (
    BayesConfig,
    ConfigurationError,
    HeadStartLaw,
    compare_limit,
    conditional_headstart_diagnostic,
    couple_pi0,
    estimate_bayes_risk,
    estimate_e1_delay,
    implied_headstart,
    limit_diagnostic,
    limit_predictions,
    size_biased_mean,
    yakir_mean,
)
from qdetect.bayes import _risk_sums, wls_line

A = 1.5
LAW = HeadStartLaw.yakir(A)
SEED = 20240824


class TestCoupling:
    def test_reference_value(self):
        assert couple_pi0(0.5, 0.0) == pytest.approx(0.5)

    def test_small_p_limit(self):
        # pi0/p -> r0 + 1
        assert couple_pi0(0.001, 2.0) / 0.001 == pytest.approx(3.0 / 1.002)

    @given(st.floats(min_value=1e-4, max_value=0.999),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200)
    def test_round_trip(self, p, r0):
        back = implied_headstart(p, couple_pi0(p, r0))
        assert back == pytest.approx(r0, abs=1e-9, rel=1e-9)

    def test_vectorized(self):
        r0 = np.array([0.0, 1.0, 5.0])
        pi0 = couple_pi0(0.01, r0)
        assert pi0.shape == (3,)
        assert np.all((pi0 > 0) & (pi0 < 1))

    def test_invalid_p(self):
        with pytest.raises(ConfigurationError):
            couple_pi0(1.5, 0.0)


class TestChangeTimePrior:
    def test_histogram_matches_formula(self):
        # a point-mass head start fixes pi0 for every replication
        p, pi0, n = 0.3, 0.4, 10**5
        law = HeadStartLaw.point_mass(implied_headstart(p, pi0))
        config = BayesConfig(p=p, c=0.1, A=A, law=law)
        _, _, draws, _, _ = _risk_sums(config, n, SEED, 1, tag="test-nu",
                                       collect="arrays")
        for k in range(1, 11):
            target = pi0 if k == 1 else (1 - pi0) * p * (1 - p) ** (k - 2)
            hat = (draws == k).mean()
            se = math.sqrt(target * (1 - target) / n)
            assert abs(hat - target) <= 4.0 * se


class TestBayesRule:
    def test_head_start_at_threshold_stops_at_zero(self):
        config = BayesConfig(p=0.3, c=0.1, A=A, law=HeadStartLaw.point_mass(2.0))
        stats, _, nu, n_stop, _ = _risk_sums(config, 1000, SEED, 1,
                                             tag="test-stop0", collect="arrays")
        assert (n_stop == 0).all()
        assert stats["miss"] == (nu > 1).sum()
        assert stats["dp"] == 0.0

    def test_outcome_invariants(self):
        config = BayesConfig(p=0.05, c=0.1, A=A, law=LAW)
        stats, _, nu, n_stop, truncated = _risk_sums(
            config, 20_000, SEED, 1, tag="test-invariants", collect="arrays")
        delay_plus = np.maximum(0, n_stop - nu + 1)
        missed = n_stop < nu - 1
        assert (nu >= 1).all() and (n_stop >= 0).all() and not truncated.any()
        assert not (missed & (delay_plus > 0)).any()
        assert stats["n"] == 20_000
        assert stats["miss"] == missed.sum()
        assert stats["dp"] == delay_plus.sum()

    def test_inverse_q_factor_doubles_growth(self):
        # with p = 0.5 each step multiplies by 1/q = 2 relative to the SR recursion
        xs = [0.4, 1.2, 0.9]
        q = 0.5
        r_sr, r_bayes = 0.3, 0.3
        for x in xs:
            lr = 2.0 * math.exp(-x)
            r_sr = (1.0 + r_sr) * lr
            r_bayes = (1.0 + r_bayes) * lr / q
            assert r_bayes > r_sr

    def test_small_p_recursion_approaches_sr(self):
        # on a fixed observation sequence the two statistics converge as p -> 0
        rng = np.random.default_rng(5)
        xs = -np.log(rng.random(50))
        for p in (1e-3, 1e-5):
            q = 1.0 - p
            r_sr = r_b = 0.0
            for x in xs:
                lr = 2.0 * math.exp(-x)
                r_sr = (1.0 + r_sr) * lr
                r_b = (1.0 + r_b) * lr / q
                assert r_b >= r_sr
            assert r_b == pytest.approx(r_sr, rel=60 * p)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            BayesConfig(p=0.0, c=0.1, A=A, law=LAW)
        with pytest.raises(ConfigurationError):
            BayesConfig(p=0.5, c=-1.0, A=A, law=LAW)


class TestRiskEstimate:
    def test_single_rep_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_bayes_risk(BayesConfig(p=0.02, c=0.1, A=A, law=LAW), 1, SEED)

    def test_stop_at_zero_rule_risk_is_miss_mass(self):
        # head start above A: N = 0, risk reduces to P(nu >= 2) = 1 - pi0
        r0 = 4.0
        p = 0.2
        config = BayesConfig(p=p, c=0.0, A=A, law=HeadStartLaw.point_mass(r0))
        est = estimate_bayes_risk(config, 100_000, SEED)
        expected = 1.0 - float(couple_pi0(p, r0))
        assert abs(est.risk.mean - expected) <= 4.0 * max(est.risk.stderr, 1e-12)

    def test_determinism_across_workers(self):
        config = BayesConfig(p=0.01, c=0.1, A=A, law=LAW)
        a = estimate_bayes_risk(config, 600_000, SEED, workers=1)
        b = estimate_bayes_risk(config, 600_000, SEED, workers=2)
        assert a == b

    def test_per_sample_risk_identity_exact(self):
        # cond - c*dp == cond*(1 - c*dp) holds bitwise replication by replication
        config = BayesConfig(p=0.01, c=0.1, A=A, law=LAW)
        _, _, nu, n_stop, _ = _risk_sums(config, 100_000, SEED, 1,
                                         tag="test-eq5", collect="arrays")
        cond = (n_stop >= nu - 1).astype(float)
        dp = np.maximum(0, n_stop - nu + 1).astype(float)
        assert np.array_equal(cond - 0.1 * dp, cond * (1.0 - 0.1 * dp))

    def test_aggregate_identity_from_shared_replications(self):
        config = BayesConfig(p=0.02, c=0.1, A=A, law=LAW)
        est = estimate_bayes_risk(config, 200_000, SEED)
        lhs = (1.0 - est.risk.mean) / config.p
        rhs = (est.cond_prob / config.p) * (1.0 - config.c * est.cond_delay_mean)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLimitDiagnostic:
    def test_wls_recovers_exact_line(self):
        x = np.array([0.02, 0.01, 0.005])
        y = 3.0 - 7.0 * x
        a, sa, b, _ = wls_line(x, y, np.full(3, 0.01))
        assert a == pytest.approx(3.0, abs=1e-9)
        assert b == pytest.approx(-7.0, abs=1e-6)
        assert sa > 0

    def test_rows_and_extrapolation(self):
        diag = limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], 100_000, SEED)
        assert [r.p for r in diag.rows] == [0.02, 0.01, 0.005]
        assert diag.intercept > max(r.ratio for r in diag.rows)
        assert diag.slope < 0

    def test_single_point_disables_extrapolation(self):
        diag = limit_diagnostic(A, LAW, 0.1, [0.5], 50_000, SEED)
        assert diag.single_point
        assert diag.intercept == diag.rows[0].ratio

    def test_zero_stderr_rejected(self):
        # a head start above A stops every run at 0, and at tiny p every
        # change comes later: each replication has risk exactly 1
        law = HeadStartLaw.point_mass(4.0)
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, law, 0.1, [2e-6, 1e-6], 100, SEED)

    def test_nondecreasing_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, LAW, 0.1, [0.01, 0.02], 1000, SEED)

    def test_zero_cost_verdict_coincides(self):
        diag = limit_diagnostic(A, LAW, 0.0, [0.02, 0.01], 50_000, SEED)
        base = yakir_mean(A) + 1.0 + 0.85
        verdict = compare_limit(diag, base, base)
        assert verdict.verdict == "coincide"

    def test_zero_cost_matches_false_alarm_identity(self):
        # intercept of P(N >= nu - 1)/p tends to E R_0 + 1 + E_inf N
        diag = limit_diagnostic(A, LAW, 0.0, [0.02, 0.01, 0.005],
                                [400_000, 800_000, 1_600_000], SEED)
        target = yakir_mean(A) + 1.0 + 0.8453
        assert abs(diag.intercept - target) <= 4.0 * math.hypot(diag.intercept_se, 0.002)


class TestLimitPredictions:
    def test_shares_replications_with_the_estimators(self):
        pred = limit_predictions(A, 0.1, 50_000, SEED)
        assert pred.e1 == estimate_e1_delay(A, LAW, 50_000, SEED)

    def test_gap_is_distance_between_predictions(self):
        pred = limit_predictions(A, 0.1, 50_000, SEED)
        assert pred.gap == pytest.approx(abs(pred.eq3 - pred.eq4), rel=1e-12)


class TestConditionalHeadStart:
    def test_point_mass_size_biasing_is_identity(self):
        law = HeadStartLaw.point_mass(0.7)
        report = conditional_headstart_diagnostic(A, law, 0.01, 400_000, SEED)
        assert report.conditional_mean == pytest.approx(0.7)
        assert report.size_biased_mean == 0.7
        assert report.l1_vs_size_biased == pytest.approx(0.0, abs=1e-9)

    def test_size_biasing_detected(self):
        report = conditional_headstart_diagnostic(A, LAW, 0.005, 400_000, SEED)
        assert abs(report.conditional_mean - report.size_biased_mean) \
            <= 4.0 * report.conditional_se
        assert abs(report.conditional_mean - report.unconditional_mean) \
            > 4.0 * report.conditional_se
        assert report.l1_vs_size_biased < report.l1_vs_unconditional

    def test_size_biased_mean_exceeds_plain_mean(self):
        assert size_biased_mean(A) > yakir_mean(A)

    def test_large_p_rejected(self):
        with pytest.raises(ConfigurationError):
            conditional_headstart_diagnostic(A, LAW, 0.5, 1000, SEED)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        with pytest.raises(ConfigurationError):
            conditional_headstart_diagnostic(A, LAW, 0.005, reps, SEED)
