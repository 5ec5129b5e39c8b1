import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import kernel_paths

from qdetect import (
    BayesConfig,
    ConfigurationError,
    HeadStartLaw,
    compare_limit,
    conditional_headstart_diagnostic,
    couple_pi0,
    estimate_bayes_risk,
    implied_headstart,
    limit_diagnostic,
    limit_predictions,
    size_biased_mean,
    sr_exact,
    yakir_mean,
)
from qdetect import montecarlo, rng as qrng
from qdetect.bayes import _bayes_chunk, _bayes_runs, wls_line
from qdetect.rng import derive_rng

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
        _, draws, _, _ = _bayes_runs(derive_rng(SEED, "test-nu", 0), n, config)
        for k in range(1, 11):
            target = pi0 if k == 1 else (1 - pi0) * p * (1 - p) ** (k - 2)
            hat = (draws == k).mean()
            se = math.sqrt(target * (1 - target) / n)
            assert abs(hat - target) <= 4.0 * se


class TestBayesRule:
    def test_head_start_at_threshold_stops_at_zero(self):
        config = BayesConfig(p=0.3, c=0.1, A=A, law=HeadStartLaw.point_mass(2.0))
        _, nu, n_stop, _ = _bayes_runs(derive_rng(SEED, "test-stop0", 0), 1000, config)
        _, risk, _, miss, _ = _bayes_chunk(derive_rng(SEED, "test-stop0", 0), 1000,
                                           config)[0][0]
        assert (n_stop == 0).all()
        assert miss == (nu > 1).sum()
        assert risk == miss  # no delay cost at N = 0

    def test_outcome_invariants(self):
        config = BayesConfig(p=0.05, c=0.1, A=A, law=LAW)
        _, nu, n_stop, truncated = _bayes_runs(derive_rng(SEED, "test-invariants", 0),
                                               20_000, config)
        delay_plus = np.maximum(0, n_stop - nu + 1)
        missed = n_stop < nu - 1
        assert (nu >= 1).all() and (n_stop >= 0).all() and not truncated.any()
        assert not (missed & (delay_plus > 0)).any()
        # the reduced row of the same stream is the sums of these arrays
        risk = missed + 0.1 * delay_plus
        row = _bayes_chunk(derive_rng(SEED, "test-invariants", 0), 20_000, config)[0]
        np.testing.assert_allclose(
            row, [[20_000, risk.sum(), (risk * risk).sum(), missed.sum(), 0]], rtol=1e-12)

    def test_inverse_q_factor_doubles_growth(self):
        # with p = 0.5 each step multiplies by 1/q = 2 relative to the SR recursion
        r_sr, r_bayes = kernel_paths(0.3, 3, 1.0, 3, 5), kernel_paths(0.3, 3, 0.5, 3, 5)
        assert (r_bayes > r_sr).all()
        # the SR path gives each step's likelihood ratio
        lr = r_sr / (np.vstack([np.full(3, 0.3), r_sr[:-1]]) + 1.0)
        prev = np.vstack([np.full(3, 0.3), r_bayes[:-1]])
        np.testing.assert_allclose(r_bayes, (prev + 1.0) * lr * 2.0, rtol=1e-12)

    def test_small_p_recursion_approaches_sr(self):
        # on the same observations the two statistics converge as p -> 0
        r_sr = kernel_paths(0.0, 100, 1.0, 50, 5)
        for p in (1e-3, 1e-5):
            r_b = kernel_paths(0.0, 100, 1.0 - p, 50, 5)
            assert (r_b >= r_sr).all()
            np.testing.assert_allclose(r_b[-1], r_sr[-1], rtol=60 * p, atol=0.0)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            BayesConfig(p=0.0, c=0.1, A=A, law=LAW)
        with pytest.raises(ConfigurationError):
            BayesConfig(p=0.5, c=-1.0, A=A, law=LAW)

    @pytest.mark.parametrize("c, a", [(math.nan, A), (math.inf, A), (0.1, math.nan),
                                      (0.1, math.inf), (math.nan, math.nan)])
    def test_non_finite_config(self, c, a):
        with pytest.raises(ConfigurationError):
            BayesConfig(p=0.02, c=c, A=a, law=LAW)


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


class TestLimitDiagnostic:
    def test_wls_recovers_exact_line(self):
        x = np.array([0.02, 0.01, 0.005])
        y = 3.0 - 7.0 * x
        a, sa = wls_line(x, y, np.full(3, 0.01))
        assert a == pytest.approx(3.0, abs=1e-9)
        assert sa > 0

    def test_rows_and_extrapolation(self):
        diag = limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [100_000] * 3, SEED)
        assert [r.p for r in diag.rows] == [0.02, 0.01, 0.005]
        assert diag.intercept > max(r.ratio for r in diag.rows)

    @pytest.mark.parametrize("p_grid, reps", [
        ([0.5], [50_000]),              # one point: nothing to extrapolate
        ([0.02, 0.01], 50_000),         # one count for the whole grid
        ([0.02, 0.01], [50_000]),       # fewer counts than points
    ])
    def test_grid_and_reps_shape_rejected(self, p_grid, reps, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated before rejecting the grid")
        monkeypatch.setattr(qrng, "run_chunked", fail)
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, LAW, 0.1, p_grid, reps, SEED)

    def test_zero_stderr_rejected(self):
        # a head start above A stops every run at 0, and at tiny p every
        # change comes later: each replication has risk exactly 1
        law = HeadStartLaw.point_mass(4.0)
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, law, 0.1, [2e-6, 1e-6], [100, 100], SEED)

    def test_nondecreasing_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, LAW, 0.1, [0.01, 0.02], [1000, 1000], SEED)

    def test_zero_cost_verdict_coincides(self):
        diag = limit_diagnostic(A, LAW, 0.0, [0.02, 0.01], [50_000] * 2, SEED)
        base = yakir_mean(A) + 1.0 + 0.85
        verdict = compare_limit(diag, base, base)
        assert verdict.verdict == "coincide"

    def test_zero_cost_matches_false_alarm_identity(self):
        # intercept of P(N >= nu - 1)/p tends to E R_0 + 1 + E_inf N
        diag = limit_diagnostic(A, LAW, 0.0, [0.02, 0.01, 0.005],
                                [400_000, 800_000, 1_600_000], SEED)
        target = yakir_mean(A) + 1.0 + sr_exact(A)[2]
        assert abs(diag.intercept - target) <= 4.0 * diag.intercept_se


class TestLimitPredictions:
    def test_reference_values(self):
        eq3, eq4 = limit_predictions(A, 0.1)
        assert eq3 == pytest.approx(3.38676, abs=5e-6)
        assert eq4 == pytest.approx(3.44755, abs=5e-6)

    def test_runs_no_simulation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("limit_predictions simulated")
        monkeypatch.setattr(montecarlo, "sr_replications", fail)
        monkeypatch.setattr(qrng, "run_chunked", fail)
        limit_predictions(A, 0.1)

    def test_gap_is_distance_between_predictions(self):
        eq3, eq4 = limit_predictions(A, 0.1)
        diag = limit_diagnostic(A, LAW, 0.1, [0.02, 0.01], [50_000] * 2, SEED)
        verdict = compare_limit(diag, eq3, eq4)
        e1, cross, _ = sr_exact(A)
        assert verdict.gap == pytest.approx(0.1 * abs(cross - e1 * yakir_mean(A)),
                                            rel=1e-12)
        assert verdict.z_eq4 == abs(diag.intercept - eq4) / diag.intercept_se


class TestConditionalHeadStart:
    def test_point_mass_size_biasing_is_identity(self):
        law = HeadStartLaw.point_mass(0.7)
        report = conditional_headstart_diagnostic(law, 0.01, 400_000, SEED)
        assert report.conditional_mean == pytest.approx(0.7)
        assert report.l1_vs_size_biased == pytest.approx(0.0, abs=1e-9)

    def test_size_biasing_detected(self):
        report = conditional_headstart_diagnostic(LAW, 0.005, 400_000, SEED)
        assert report.l1_vs_size_biased < report.l1_vs_unconditional

    def test_size_biased_mean_exceeds_plain_mean(self):
        assert size_biased_mean(A) > yakir_mean(A)

    def test_large_p_rejected(self):
        for p in (0.5, 0.0):
            with pytest.raises(ConfigurationError):
                conditional_headstart_diagnostic(LAW, p, 1000, SEED)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        with pytest.raises(ConfigurationError):
            conditional_headstart_diagnostic(LAW, 0.005, reps, SEED)
