import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from conftest import assert_risk_row, kernel_paths, reference_bayes_runs

from qdetect import (
    BayesConfig,
    ConfigurationError,
    HeadStartLaw,
    compare_limit,
    conditional_headstart_diagnostic,
    couple_pi0,
    estimate_bayes_risk,
    identity_checks,
    implied_headstart,
    limit_diagnostic,
    limit_predictions,
    size_biased_mean,
    sr_exact,
    yakir_density,
    yakir_mean,
)
from qdetect import rng as qrng
from qdetect import montecarlo as mc
from qdetect.bayes import (_bayes_chunk, _change_times, _identity_chunk, _stop_at_zero_risk,
                           wls_line)
from qdetect.montecarlo import DEFAULT_MAX_STEPS
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

    @pytest.mark.parametrize("r0", [math.nan, math.inf, np.array([0.5, math.nan])])
    def test_non_finite_head_start_rejected(self, r0):
        # unchecked, a nan head start gives a nan pi0
        with pytest.raises(ConfigurationError):
            couple_pi0(0.1, r0)


class TestChangeTimePrior:
    def test_histogram_matches_formula(self):
        # a point-mass head start fixes pi0 for every replication
        p, pi0, n = 0.3, 0.4, 10**5
        law = HeadStartLaw.point_mass(implied_headstart(p, pi0))
        rng, ws = derive_rng(SEED, "test-nu", 0), qrng.Workspace()
        draws = _change_times(rng, law.sample(rng, n, math.inf, ws), p=p, ws=ws)
        for k in range(1, 11):
            target = pi0 if k == 1 else (1 - pi0) * p * (1 - p) ** (k - 2)
            hat = (draws == k).mean()
            se = math.sqrt(target * (1 - target) / n)
            assert abs(hat - target) <= 4.0 * se

    def test_change_times_past_int64_stay_integers(self):
        # at p = 1e-19 the geometric part reaches about 4e20, past 2^63,
        # where a cast to int64 overflows
        rng, ws = derive_rng(SEED, "test-nu-small-p", 0), qrng.Workspace()
        r0 = HeadStartLaw.yakir(1.5).sample(rng, 10**4, math.inf, ws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu = _change_times(rng, r0, p=1e-19, ws=ws)
        assert np.isfinite(nu).all() and (nu >= 1).all()
        assert np.array_equal(nu, np.floor(nu)) and nu.max() > 2.0**63


def _brute_force_chunk(rng: np.random.Generator, count: int, config: BayesConfig):
    """The row (n, sum risk, sum risk^2) of ``count`` Bayes runs scored by their
    own drawn change times: every run draws nu, and a run that stops at 0
    scores 1{nu >= 2}."""
    with qrng.workspace() as ws:
        r0 = config.law.sample(rng, count, math.inf, ws)
        nu = _change_times(rng, r0, p=config.p, ws=ws)
        stepped = r0 < config.A
        risks = [(nu[~stepped] > 1).astype(float)]  # the runs that stop at 0
        for step, _, nu_s, _, below in mc._stop_times(
                rng, r0[stepped], config.A, nu[stepped], 1.0 - config.p,
                DEFAULT_MAX_STEPS, ws):
            late = step + 1 - nu_s[~below]
            risks.append((late < 0) + config.c * np.maximum(late, 0))
        risk = np.concatenate(risks)
    return (np.array([[risk.size, *mc.moment_sums(risk)]]),)


class TestBayesRule:
    def test_head_start_at_threshold_stops_at_zero(self):
        # every run stops at 0 and scores 1 - pi0, and none draws a uniform
        p, count = 0.3, 1000
        config = BayesConfig(p=p, c=0.1, A=A, law=HeadStartLaw.point_mass(2.0))
        rng = derive_rng(SEED, "test-stop0", 0)
        n, risk, risk_sq, miss, trunc = _bayes_chunk(
            rng, count, config, _stop_at_zero_risk(config))[0][0]
        assert (rng.bit_generator.state
                == derive_rng(SEED, "test-stop0", 0).bit_generator.state)
        miss_prob = 1.0 - float(couple_pi0(p, 2.0))
        assert (n, trunc) == (count, 0)
        np.testing.assert_allclose([risk, miss], count * miss_prob, rtol=1e-12)
        np.testing.assert_allclose(risk_sq, count * miss_prob ** 2, rtol=1e-12)

    def test_outcome_invariants(self):
        # the stepped runs of chunk 0 of the stream, in the Bayes chunk's draw order
        p = 0.05
        _, nu, n_stop, truncated, _ = reference_bayes_runs(
            derive_rng(SEED, "test-invariants", 0), LAW, 20_000, A, p, DEFAULT_MAX_STEPS)
        delay_plus = np.maximum(0, n_stop - nu + 1)
        missed = n_stop < nu - 1
        assert (nu >= 1).all() and (n_stop >= 1).all() and not truncated.any()
        assert not (missed & (delay_plus > 0)).any()
        for c in (0.1, 0.0):
            # the reduced row of the same stream, against these runs' row
            config = BayesConfig(p=p, c=c, A=A, law=LAW)
            (row,) = _bayes_chunk(derive_rng(SEED, "test-invariants", 0), 20_000, config,
                                  _stop_at_zero_risk(config))
            assert_risk_row(row, 20_000, nu, n_stop, truncated, config)
            if c == 0:
                assert row[0, 1] == row[0, 3]  # the risk is the miss probability

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


class TestStopAtZeroRisk:
    @pytest.mark.parametrize("a, a_stop, p", [(1.5, 1.5, 0.005), (1.5, 1.5, 0.3),
                                              (0.3, 0.3, 0.02), (1.98, 1.98, 0.01),
                                              (1.5, 1.9, 0.05)])
    def test_matches_adaptive_quadrature(self, a, a_stop, p):
        # E[1 - pi0(R_0) | R_0 >= A], both tail integrals split at the kink x = 2
        def tail(fn):
            return integrate.quad(lambda x: fn(x) * yakir_density(a, x), a_stop,
                                  2.0 * (a + 1.0), points=[2.0], limit=200,
                                  epsabs=0.0, epsrel=1e-13)[0]
        want = tail(lambda x: 1.0 - couple_pi0(p, x)) / tail(lambda x: 1.0)
        config = BayesConfig(p=p, c=0.1, A=a_stop, law=HeadStartLaw.yakir(a))
        assert _stop_at_zero_risk(config) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("r0, want", [(2.0, 0.7 / 1.6), (1.0, 0.0)])
    def test_point_mass(self, r0, want):
        # every run at or above A scores 1 - pi0(r0); with none there, h is 0
        config = BayesConfig(p=0.3, c=0.1, A=A, law=HeadStartLaw.point_mass(r0))
        assert _stop_at_zero_risk(config) == pytest.approx(want, rel=1e-15)

    def test_custom_law_rejected(self):
        law = HeadStartLaw.custom(lambda rng, size: rng.random(size))
        with pytest.raises(ConfigurationError, match="custom"):
            BayesConfig(p=0.02, c=0.1, A=A, law=law)


class TestRiskEstimate:
    def test_single_rep_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_bayes_risk(BayesConfig(p=0.02, c=0.1, A=A, law=LAW), 1, SEED)

    def test_identity_check_needs_a_replication(self):
        with pytest.raises(ConfigurationError):
            identity_checks(A, 0.1, 0, SEED, 1)

    @pytest.mark.parametrize("max_steps", [1, 2, DEFAULT_MAX_STEPS])
    def test_identity_check_evaluates_every_replication(self, max_steps, monkeypatch):
        # the runs that stop at 0, at each step and at truncation, all of them
        monkeypatch.setattr(mc, "DEFAULT_MAX_STEPS", max_steps)
        config = BayesConfig(p=0.01, c=0.1, A=A, law=LAW)
        (row,) = _identity_chunk(derive_rng(SEED, "test-identity", 0), 20_000, config)
        assert row.tolist() == [[0, 20_000]]

    def test_stop_at_zero_rule_risk_is_miss_mass(self):
        # head start above A: N = 0, risk reduces to P(nu >= 2) = 1 - pi0
        r0 = 4.0
        p = 0.2
        config = BayesConfig(p=p, c=0.0, A=A, law=HeadStartLaw.point_mass(r0))
        est = estimate_bayes_risk(config, 100_000, SEED)
        expected = 1.0 - float(couple_pi0(p, r0))
        assert abs(est.risk.mean - expected) <= 4.0 * max(est.risk.stderr, 1e-12)

    def test_exact_stop_at_zero_score_is_unbiased_and_cuts_variance(self):
        # against brute force, which scores the runs that stop at 0 by their
        # drawn nu: the same mean within 4 combined SE, on independent
        # streams of the same seed, and a smaller per-rep SD (equal reps)
        config = BayesConfig(p=0.02, c=0.1, A=A, law=LAW)
        reps = 1_000_000
        rows = qrng.run_chunked(partial(_brute_force_chunk, config=config), reps, SEED,
                                "test-brute-force")[0]
        brute = mc.mc_estimate(*rows.sum(axis=0))
        est = estimate_bayes_risk(config, reps, SEED).risk
        assert abs(est.mean - brute.mean) <= 4.0 * math.hypot(est.stderr, brute.stderr)
        assert est.stderr < 0.75 * brute.stderr


class TestLimitDiagnostic:
    def test_wls_recovers_exact_line(self):
        x = np.array([0.02, 0.01, 0.005])
        y = 3.0 - 7.0 * x
        a, sa = wls_line(x, y, np.full(3, 0.01))
        assert a == pytest.approx(3.0, abs=1e-9)
        assert sa > 0

    @pytest.mark.parametrize("x", [[0.02, 0.01, 0.005], [0.3, 0.2],
                                   [0.05, 0.04, 0.02, 0.01]])
    def test_wls_matches_least_squares(self, x):
        # the closed form against LAPACK's solution of the sqrt(w)-scaled system
        rng = derive_rng(SEED, "wls", len(x))
        x = np.array(x)
        y, se = 3.4 + rng.normal(0, 0.1, x.size), rng.uniform(0.005, 0.05, x.size)
        design = np.column_stack([np.ones_like(x), x]) / se[:, None]
        beta = np.linalg.lstsq(design, y / se, rcond=None)[0]
        cov = np.linalg.inv(design.T @ design)
        np.testing.assert_allclose(wls_line(x, y, se), [beta[0], math.sqrt(cov[0, 0])],
                                   rtol=1e-12, atol=0.0)

    def test_rows_and_extrapolation(self):
        diag = limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [100_000] * 3, SEED)
        assert [r.p for r in diag.rows] == [0.02, 0.01, 0.005]
        assert diag.intercept > max(r.ratio for r in diag.rows)

    @pytest.mark.parametrize("p_grid, reps", [
        ([0.5], [50_000]),              # one point: nothing to extrapolate
        ([0.02, 0.01], 50_000),         # one count for the whole grid
        ([0.02, 0.01], [50_000]),       # fewer counts than points
        ([0.02, 0.01], [1000, 1000.5]),  # a fractional count
    ])
    def test_grid_and_reps_shape_rejected(self, p_grid, reps, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated before rejecting the grid")
        monkeypatch.setattr(qrng, "run_chunked", fail)
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, LAW, 0.1, p_grid, reps, SEED)

    def test_zero_stderr_rejected(self):
        # a head start above A stops every run at 0, and each replication
        # scores the same exact risk 1 - pi0; at 1000 reps the sum of squares
        # of those equal scores leaves a rounding residue, which is no spread
        law = HeadStartLaw.point_mass(4.0)
        for p_grid, reps, seed in (([2e-6, 1e-6], [100, 100], SEED),
                                   ([0.3, 0.2], [1000, 1000], 1)):
            with pytest.raises(ConfigurationError):
                limit_diagnostic(A, law, 0.1, p_grid, reps, seed)

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
        est = conditional_headstart_diagnostic(law, 0.01, 400_000, SEED)
        assert est.mean == pytest.approx(0.7)
        assert est.reps + est.rejected == 400_000

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
