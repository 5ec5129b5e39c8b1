import ast
import math
import pathlib
import warnings
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.stats import chi2

from conftest import assert_risk_row, kernel_paths, reference_bayes_runs, reference_post_change_d
from test_acceptance import LIMIT_P_GRID, LIMIT_REPS, exact_conditional_mean

from qdetect import (
    BayesConfig,
    ConfigurationError,
    HeadStartLaw,
    compare_limit,
    conditional_headstart_diagnostic,
    couple_pi0,
    identity_checks,
    implied_headstart,
    limit_diagnostic,
    limit_predictions,
    size_biased_mean,
    sr_exact,
    yakir_density,
    yakir_mean,
)
from qdetect import bayes
from qdetect import rng as qrng
from qdetect import montecarlo as mc
from qdetect.bayes import (_bayes_chunk, _brute_force_runs, _change_times, _identity_chunk,
                           _shared_run_scores, wls_line)
from qdetect.cli import DEFAULT_P_GRID, DEFAULT_REPS, EXIT_OK, main
from qdetect.headstart import _gauss_legendre
from qdetect.montecarlo import DEFAULT_MAX_STEPS
from qdetect.rng import CHUNK_SIZE, DEFAULT_WORKERS, derive_rng

A = 1.5
LAW = HeadStartLaw.yakir(A)
SEED = 20240824
ROOT = pathlib.Path(__file__).resolve().parent.parent


def exact_ratio(A, c, p):
    """E[1 - risk]/p exactly, for the uniform product head start at A < 2.

    Given a head start r0 < A the pre-change chain survives its first step
    with probability a_q(r0) = qA/(2(1 + r0)) and each later one with
    rho_q = q log(1 + A)/2, and a surviving R is uniform on [0, A).  So

        E[1 - risk | r0] = pi0 (1 - c D_q(r0))
                           + (1 - pi0) p [1 + (q - c Dbar_q) a_q(r0)/(1 - q rho_q)],

    with D_q(r) = 1 + d_q/(1 + r)^2 and its mean Dbar_q = 1 + d_q/(1 + A)
    over [0, A) (``conftest.reference_post_change_d``); at or above A it is
    pi0.  The first part is integrated by the
    Gauss-Legendre rule on [0, A), the second is the law's tail mean.
    """
    q = 1.0 - p
    d = reference_post_change_d(A, q)
    rho, d_bar = q * math.log1p(A) / 2.0, 1.0 + d / (1.0 + A)

    def below(r0):
        pi0, a = couple_pi0(p, r0), q * A / (2.0 * (1.0 + r0))
        score = (pi0 * (1.0 - c * (1.0 + d / (1.0 + r0) ** 2))
                 + (1.0 - pi0) * p * (1.0 + (q - c * d_bar) * a / (1.0 - q * rho)))
        return score * yakir_density(A, r0)

    law = HeadStartLaw.yakir(A)
    return (_gauss_legendre(below, [0.0, A])
            + law.tail_mean(lambda r0: couple_pi0(p, r0), A)) / p


def _workload_limit_grid():
    """The p grid and reps of the ``bayes-limit`` benchmark workload, read
    from ``perfbench/workloads.py`` by ``ast``, without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    values = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    reps = next(k.value for k in values["FULL"].keywords if k.arg == "limit_reps")
    return list(ast.literal_eval(values["P_GRID"])), list(ast.literal_eval(reps))


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


class TestBayesRule:
    def test_head_start_at_threshold_stops_at_zero(self):
        # every run stops at 0 and none draws a uniform or adds to the row;
        # its cost is 0, exactly, with SE 0, and the exact E[Y0] scores it
        # pi0 = 1 - h
        p, count = 0.3, 1000
        config = BayesConfig(p=p, c=0.1, A=A, law=HeadStartLaw.point_mass(2.0))
        rng = derive_rng(SEED, "test-stop0", 0)
        (row,) = _bayes_chunk(rng, count, config)
        assert (rng.bit_generator.state
                == derive_rng(SEED, "test-stop0", 0).bit_generator.state)
        assert row.tolist() == [[count, 0, 0, 0, 0]]
        cost = mc.stratified_estimate(*row[0, :4], config.law.mass_below(A), 0.0)
        assert (cost.mean, cost.stderr) == (0.0, 0.0)
        assert bayes._no_miss_probability(config) == pytest.approx(float(couple_pi0(p, 2.0)),
                                                                   rel=1e-12)

    def test_outcome_invariants(self):
        # the runs of chunk 0 of the stream, in the brute-force draw order
        p = 0.05
        r0, nu, n_stop, truncated, _ = reference_bayes_runs(
            derive_rng(SEED, "test-invariants", 0), LAW, 20_000, A, p, DEFAULT_MAX_STEPS)
        delay_plus = np.maximum(0, n_stop - nu + 1)
        missed = n_stop < nu - 1
        assert (nu >= 1).all() and np.array_equal(n_stop == 0, r0 >= A)
        assert not truncated.any() and not (missed & (delay_plus > 0)).any()
        # the reduced row of the same stream, against these runs' row
        (row,) = _identity_chunk(derive_rng(SEED, "test-invariants", 0), 20_000,
                                 BayesConfig(p=p, c=0.1, A=A, law=LAW))
        assert_risk_row(row, nu, n_stop, truncated)
        rows = [_bayes_chunk(derive_rng(SEED, "test-invariants", 0), 20_000,
                             BayesConfig(p=p, c=c, A=A, law=LAW))[0] for c in (0.1, 0.0)]
        # the row reads no cost, and the stepped runs' cost is positive
        assert np.array_equal(*rows)
        ((count, m, z_sum, _, _),) = rows[0]
        assert 0 < m < count and z_sum > 0

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
        # the post-change delay of the score is rank one only below 2
        with pytest.raises(ConfigurationError, match="below 2"):
            BayesConfig(p=0.02, c=0.1, A=2.0, law=HeadStartLaw.point_mass(0.5))

    @pytest.mark.parametrize("p", [1e-19, 5e-17])
    def test_p_below_float_resolution_rejected(self, p):
        # q = 1 - p rounds to 1, and every run would score pi0 with no change
        assert 1.0 - p == 1.0
        with pytest.raises(ConfigurationError, match="resolution"):
            BayesConfig(p=p, c=0.1, A=A, law=LAW)
        BayesConfig(p=2.0**-53, c=0.1, A=A, law=LAW)  # q is then the float just below 1

    @pytest.mark.parametrize("c, a", [(math.nan, A), (math.inf, A), (0.1, math.nan),
                                      (0.1, math.inf), (math.nan, math.nan)])
    def test_non_finite_config(self, c, a):
        with pytest.raises(ConfigurationError):
            BayesConfig(p=0.02, c=c, A=a, law=LAW)


class TestStopAtZeroRisk:
    """The exact share of the runs that stop at 0 in E[Y0], the tail mean of
    pi0 (:func:`bayes._no_miss_probability`), against its own integrals."""

    @pytest.mark.parametrize("a, a_stop, p", [(1.5, 1.5, 0.005), (1.5, 1.5, 0.3),
                                              (0.3, 0.3, 0.02), (1.98, 1.98, 0.01),
                                              (1.5, 1.9, 0.05)])
    def test_matches_adaptive_quadrature(self, a, a_stop, p):
        # E[pi0(R_0); R_0 >= A], the tail integral split at the kink x = 2
        want = integrate.quad(lambda x: couple_pi0(p, x) * yakir_density(a, x), a_stop,
                              2.0 * (a + 1.0), points=[2.0], limit=200,
                              epsabs=0.0, epsrel=1e-13)[0]
        got = HeadStartLaw.yakir(a).tail_mean(partial(couple_pi0, p), a_stop)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("r0, want", [(2.0, 0.7 / 1.6), (1.0, 0.0)])
    def test_point_mass(self, r0, want):
        # a run at or above A risks 1 - pi0(r0) = want and scores pi0(r0);
        # with none there, both shares are 0
        law = HeadStartLaw.point_mass(r0)
        assert law.tail_mean(lambda x: 1.0 - couple_pi0(0.3, x), A) == pytest.approx(
            want, rel=1e-15)
        assert law.tail_mean(partial(couple_pi0, 0.3), A) == pytest.approx(
            float(r0 >= A) - want, rel=1e-15)

    def test_custom_law_rejected(self):
        law = HeadStartLaw.custom(lambda rng, size: rng.random(size))
        with pytest.raises(ConfigurationError, match="custom"):
            BayesConfig(p=0.02, c=0.1, A=A, law=law)


class TestRiskEstimate:
    def test_single_rep_rejected(self):
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [1000, 1000, 1], SEED)

    def test_identity_check_needs_a_replication(self):
        with pytest.raises(ConfigurationError):
            identity_checks(A, 0.1, 0, SEED, 1)

    @pytest.mark.parametrize("max_steps", [1, 2, DEFAULT_MAX_STEPS])
    def test_identity_check_evaluates_every_replication(self, max_steps, monkeypatch):
        # the runs that stop at 0, at each step and at truncation, all of
        # them, in the brute-force row of the identity check
        monkeypatch.setattr(mc, "DEFAULT_MAX_STEPS", max_steps)
        config = BayesConfig(p=0.01, c=0.1, A=A, law=LAW)
        (row,) = _identity_chunk(derive_rng(SEED, "test-identity", 0), 20_000, config)
        _, nu, n_stop, truncated, _ = reference_bayes_runs(
            derive_rng(SEED, "test-identity", 0), LAW, 20_000, A, config.p, max_steps)
        assert_risk_row(row, nu, n_stop, truncated)
        assert truncated.any() == (max_steps <= 2)

    def test_identity_chunk_evaluates_each_runs_own_delay(self):
        # the identity holds for any integer delay, so only the delays the
        # runs yield show that each run is paired with its own change time
        config, count, tag = BayesConfig(p=0.01, c=0.1, A=A, law=LAW), 1 << 14, "test-late"
        late = np.concatenate([late for late, _ in _brute_force_runs(
            derive_rng(SEED, tag, 0), count, config, qrng.Workspace())])
        _, nu, n_stop, _, _ = reference_bayes_runs(derive_rng(SEED, tag, 0), LAW, count, A,
                                                   config.p, DEFAULT_MAX_STEPS)
        assert np.array_equal(np.sort(late), np.sort(n_stop - nu + 1))

    def test_exact_score_matches_brute_force(self, monkeypatch):
        # at c = 0.1 the comparison is the identity check's line (props and
        # criterion 7): it passes, and it fails once the brute-force runs
        # lose their own change times (reversed, times 7)
        def line():
            return next(check for check in identity_checks(A, 0.1, 100_000, SEED,
                                                           DEFAULT_WORKERS)
                        if check[0] == "risk-vs-brute-force")
        _, ok, z, detail = line()
        assert ok and z <= 4.0, detail
        change_times = bayes._change_times
        monkeypatch.setattr(bayes, "_change_times",
                            lambda *args, **kwargs: 7.0 * change_times(*args, **kwargs)[::-1])
        assert not line()[1]
        monkeypatch.undo()
        # at c = 0 the risk is the miss probability, exact, with SE 0: brute
        # force reads no exact formula, and gives the same mean within 4 SE
        n, misses, dp_sum, dp_sq, trunc = _brute_force_row()
        brute = mc.mc_estimate(n, misses, misses, trunc)
        config = BayesConfig(p=0.02, c=0.0, A=A, law=LAW)
        row = limit_diagnostic(A, LAW, 0.0, [0.02, 0.01, 0.005], [50_000] * 3, SEED).rows[0]
        assert row.stderr == 0.0
        assert row.ratio == bayes._no_miss_probability(config) / 0.02
        assert abs(1.0 - bayes._no_miss_probability(config) - brute.mean) <= 4.0 * brute.stderr

    def test_miss_probability_line_fails_on_a_wrong_exact_value(self, monkeypatch):
        # the exact 1 - E[Y0] against the brute-force misses (props and
        # criterion 7): it passes, and it fails once E[Y0] drops the exact
        # share of the runs that stop at 0, the law's tail mean of pi0
        def line():
            return next(check for check in identity_checks(A, 0.1, 100_000, SEED,
                                                           DEFAULT_WORKERS)
                        if check[0] == "miss-probability-exact")
        _, ok, z, detail = line()
        assert ok and z <= 4.0, detail
        monkeypatch.setattr(HeadStartLaw, "tail_mean", lambda law, fn, A: 0.0)
        assert not line()[1]

    def test_exact_stop_at_zero_share_is_unbiased_and_cuts_variance(self):
        # against brute force, which scores the runs that stop at 0 by their
        # drawn nu: the same mean within 4 combined SE, on independent
        # streams of the same seed, and a smaller per-rep SD
        n, misses, dp_sum, dp_sq, trunc = _brute_force_row()
        brute = mc.mc_estimate(n, misses + 0.1 * dp_sum, misses + 0.01 * dp_sq, trunc)
        config = BayesConfig(p=0.02, c=0.1, A=A, law=LAW)
        (cost,), _ = _shared_run_scores([config], [1_000_000], SEED, DEFAULT_WORKERS)
        risk, se = 1.0 - (bayes._no_miss_probability(config) - 0.1 * cost.mean), 0.1 * cost.stderr
        assert abs(risk - brute.mean) <= 4.0 * math.hypot(se, brute.stderr)
        assert se * math.sqrt(cost.reps) < 0.75 * brute.stderr * math.sqrt(brute.reps)


@cache
def _brute_force_row():
    """``(n, misses, sum dp, sum dp^2, truncated)`` of 5 M brute-force runs at
    p = 0.02 on ``"test-brute-force"``; the row serves every cost, so the
    tests above share one pass."""
    config = BayesConfig(p=0.02, c=0.1, A=A, law=LAW)
    rows = qrng.run_chunked(partial(_identity_chunk, config=config), 5_000_000,
                            SEED, "test-brute-force")[0]
    return tuple(int(v) for v in rows.sum(axis=0))


class TestExactRatio:
    """``exact_ratio`` against its pinned values, and the estimator and the
    extrapolation against it."""

    @pytest.mark.parametrize("p, want", [(0.02, 3.28444), (0.01, 3.36390),
                                         (0.005, 3.40518)])
    def test_reference_values(self, p, want):
        assert exact_ratio(A, 0.1, p) == pytest.approx(want, abs=5e-6)

    def test_zero_cost_limit_is_the_false_alarm_identity(self):
        # at c = 0 the ratio tends to E R_0 + 1 + E_inf N
        target = yakir_mean(A) + 1.0 + sr_exact(A)[2]
        assert exact_ratio(A, 0.0, 1e-7) == pytest.approx(target, abs=1e-5)

    @pytest.mark.parametrize("p", [0.3, 0.02, 0.005])
    def test_estimate_within_4_se(self, p):
        config = BayesConfig(p=p, c=0.1, A=A, law=LAW)
        (cost,), _ = _shared_run_scores([config], [1_000_000], SEED, DEFAULT_WORKERS)
        ratio = (bayes._no_miss_probability(config) - 0.1 * cost.mean) / p
        assert abs(ratio - exact_ratio(A, 0.1, p)) <= 4.0 * 0.1 * cost.stderr / p

    @pytest.mark.parametrize("grid, reps", [
        (LIMIT_P_GRID, LIMIT_REPS),
        (DEFAULT_P_GRID, [DEFAULT_REPS] * len(DEFAULT_P_GRID)),
        _workload_limit_grid(),
    ], ids=["criterion-5", "cli-default", "workload"])
    def test_quadratic_fit_bias_under_a_quarter_se(self, grid, reps):
        # the intercept is the exact c = 0 limit less the fit of the cost
        # part c E[Z]/p, which misses eq4 by its curvature bias alone; at
        # each grid's reps that is under a quarter of the intercept SE.
        # That SE is here a lower bound: a per-rep SD of 0.09 for c Z/p (it
        # is 0.097-0.105 on this grid) and a correlation of 0.995 between
        # the points on their shared runs (0.98-0.995), which lower it most
        cost = np.array([exact_ratio(A, 0.0, p) - exact_ratio(A, 0.1, p) for p in grid])
        se = 0.09 / np.sqrt(np.array(reps, dtype=float))
        fit, fit_se = wls_line(np.array(grid), cost, se, _shared_run_corr(reps, 0.995))
        intercept = bayes._zero_cost_limit(A, LAW) - fit
        assert abs(intercept - limit_predictions(A, 0.1)[1]) <= 0.25 * fit_se

    @pytest.mark.parametrize("p", [0.3, 0.02, 0.005])
    def test_no_miss_probability_is_the_zero_cost_ratio(self, p):
        # E[Y0] = E[1 - risk] at c = 0, against the test's own integral
        config = BayesConfig(p=p, c=0.1, A=A, law=LAW)
        assert bayes._no_miss_probability(config) == pytest.approx(exact_ratio(A, 0.0, p) * p,
                                                                   rel=1e-12, abs=0)

    @pytest.mark.parametrize("r0, want", [
        # at p = 0.3 from r0 = 0.5: pi0 = 0.45/1.15, the first step survives
        # with a_q = 0.7 * 1.5/3 = 0.35 and each later one with
        # rho_q = 0.7 log(2.5)/2
        (0.5, 0.45 / 1.15 + 0.7 / 1.15 * 0.3
         * (1.0 + 0.7 * 0.35 / (1.0 - 0.49 * math.log(2.5) / 2.0))),
        # from r0 = 2 >= A the run stops at 0 and scores pi0
        (2.0, 0.9 / 1.6),
    ])
    def test_no_miss_probability_of_a_point_mass(self, r0, want):
        config = BayesConfig(p=0.3, c=0.1, A=A, law=HeadStartLaw.point_mass(r0))
        assert bayes._no_miss_probability(config) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("law, want", [
        (LAW, yakir_mean(A) + 1.0 + sr_exact(A)[2]),
        # E_inf N = 1 + a_1/(1 - rho_1) from r0 = 0.5: a_1 = 1.5/3, rho_1 = log(2.5)/2
        (HeadStartLaw.point_mass(0.5), 0.5 + 2.0 + 0.5 / (1.0 - math.log(2.5) / 2.0)),
        (HeadStartLaw.point_mass(2.0), 3.0),
    ], ids=["yakir", "point-mass-below", "point-mass-above"])
    def test_zero_cost_limit(self, law, want):
        # lim E[Y0]/p = E R_0 + 1 + E_inf N
        assert bayes._zero_cost_limit(A, law) == pytest.approx(want, rel=1e-14, abs=0)


def _shared_run_corr(reps, rho):
    """The correlations of grid means whose first min(n_j, n_k) runs are
    shared, with correlation ``rho`` between two points' scores of a run:
    rho min(n_j, n_k) / sqrt(n_j n_k)."""
    n = np.array(reps, dtype=float)
    corr = rho * np.minimum.outer(n, n) / np.sqrt(np.outer(n, n))
    np.fill_diagonal(corr, 1.0)
    return corr


class TestLimitDiagnostic:
    def test_wls_recovers_exact_line(self):
        # the quadratic fit recovers a quadratic, and so a line, exactly
        x = np.array([0.02, 0.01, 0.005])
        for y in (3.0 - 7.0 * x, 3.0 - 7.0 * x + 40.0 * x * x):
            a, sa = wls_line(x, y, np.full(3, 0.01), np.eye(3))
            assert a == pytest.approx(3.0, abs=1e-9)
            assert sa > 0

    def test_wls_is_scale_free(self):
        # at se near 1e78, weights of 1/se^2 underflow in their products
        x, y = np.array([0.02, 0.01, 0.005]), np.array([3.284, 3.364, 3.405])
        se = np.array([0.0035, 0.0025, 0.0018])
        a, se_a = wls_line(x, y, se, np.eye(3))
        np.testing.assert_allclose(wls_line(x, y * 1e80, se * 1e80, np.eye(3)),
                                   [a * 1e80, se_a * 1e80],
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("x", [[0.02, 0.01, 0.005], [0.3, 0.2, 0.1],
                                   [0.05, 0.04, 0.02, 0.01]])
    def test_wls_matches_least_squares(self, x):
        # the closed form against LAPACK's solution of the sqrt(w)-scaled
        # quadratic system, and the SE from its pseudo-inverse (SVD)
        rng = derive_rng(SEED, "wls", len(x))
        x = np.array(x)
        y, se = 3.4 + rng.normal(0, 0.1, x.size), rng.uniform(0.005, 0.05, x.size)
        design = np.column_stack([np.ones_like(x), x, x * x]) / se[:, None]
        beta = np.linalg.lstsq(design, y / se, rcond=None)[0]
        se_a = math.sqrt(math.fsum(np.linalg.pinv(design)[0] ** 2))
        np.testing.assert_allclose(wls_line(x, y, se, np.eye(x.size)), [beta[0], se_a],
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [[0.02, 0.01, 0.005], [0.05, 0.04, 0.02, 0.01]])
    def test_wls_se_reads_the_covariance(self, x):
        # the intercept is linear in y, a = beta^T y, with beta the first row
        # of the pseudo-inverse of the sqrt(w)-scaled design; its variance
        # under a covariance C is beta^T C beta
        rng = derive_rng(SEED, "wls-cov", len(x))
        x = np.array(x)
        y, se = 3.4 + rng.normal(0, 0.1, x.size), rng.uniform(0.005, 0.05, x.size)
        design = np.column_stack([np.ones_like(x), x, x * x]) / se[:, None]
        beta = np.linalg.pinv(design)[0] / se
        corr = _shared_run_corr(np.arange(1, x.size + 1) * 1000, 0.97)
        cov = corr * np.outer(se, se)
        np.testing.assert_allclose(wls_line(x, y, se, corr)[1],
                                   math.sqrt(beta @ cov @ beta), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("corr", [np.zeros((3, 3)), -np.ones((3, 3)),
                                      np.full((3, 3), math.nan), np.full((3, 3), math.inf)],
                             ids=["zero", "negative", "nan", "inf"])
    def test_wls_variance_not_positive_and_finite_rejected(self, corr):
        # never a sqrt ValueError, a zero SE that divides, or a NaN SE
        x, y = np.array([0.02, 0.01, 0.005]), np.array([3.284, 3.364, 3.405])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in the sum
            with pytest.raises(ConfigurationError, match="variance"):
                wls_line(x, y, np.array([0.0035, 0.0025, 0.0018]), corr)

    def test_joint_points_within_4_se_of_exact(self):
        # every point of one joint run, its chains on shared draws, against
        # its exact ratio, and its mean cost Z_bar against
        # E[Z] = (E[Y0] - p E[1 - risk]/p)/c; the points' means correlate as
        # their costs do
        grid = [0.02, 0.01, 0.005]
        diag = limit_diagnostic(A, LAW, 0.1, grid, [1_000_000] * 3, SEED)
        for row in diag.rows:
            assert abs(row.ratio - exact_ratio(A, 0.1, row.p)) <= 4.0 * row.stderr
        configs = [BayesConfig(p=p, c=0.1, A=A, law=LAW) for p in grid]
        costs, corr = _shared_run_scores(configs, [1_000_000] * 3, SEED, DEFAULT_WORKERS)
        for config, cost in zip(configs, costs):
            want = (bayes._no_miss_probability(config) - config.p * exact_ratio(A, 0.1, config.p))
            assert abs(cost.mean - want / 0.1) <= 4.0 * cost.stderr
        assert np.array_equal(corr, corr.T) and (np.diag(corr) == 1.0).all()
        assert 0.95 < corr[np.triu_indices(3, 1)].min() < corr.max() == 1.0

    def test_one_point_tier_is_the_one_point_kernel(self, monkeypatch):
        # the runs past the second count step the smallest p alone: their
        # tier is _bayes_chunk on the tier's stream, bit for bit
        config = BayesConfig(p=0.005, c=0.1, A=A, law=LAW)
        seen = {}
        run_chunked = qrng.run_chunked

        def recording(kernel, reps, seed, tag, workers):
            seen[tag] = run_chunked(kernel, reps, seed, tag, workers)
            return seen[tag]
        monkeypatch.setattr(qrng, "run_chunked", recording)
        limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [2000, 4000, 50_000], SEED)
        assert sorted(seen) == ["bayes-limit/0:2000", "bayes-limit/2000:4000",
                                "bayes-limit/4000:50000"]
        tier = seen["bayes-limit/4000:50000"]
        alone = run_chunked(partial(_bayes_chunk, config=config), 46_000, SEED,
                            "bayes-limit/4000:50000", 1)
        assert len(tier) == 1 and np.array_equal(alone[0], tier[0])
        assert tier[0].shape == (1, 5)

    def test_nested_reps_do_not_depend_on_workers(self):
        # three tiers over several chunks: three points, two, then one
        reps = [CHUNK_SIZE + 1000, 2 * CHUNK_SIZE + 1, 3 * CHUNK_SIZE]
        serial = limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], reps, SEED, workers=1)
        for workers in (2, 3):
            assert limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], reps, SEED,
                                    workers=workers) == serial

    @pytest.mark.parametrize("reps", [[60_000, 120_000, 240_000], [100_000] * 3],
                             ids=["nested", "equal"])
    def test_intercept_se_reads_the_covariance(self, reps):
        # over 40 seeds, the intercept's z against the exact c = 0 limit less
        # the quadratic fit of the exact cost part c E[Z]/p (no curvature
        # bias): the mean z^2 lies in its chi^2 band at 99.9%; scored with a
        # diagonal covariance, the same runs overstate the SE 2-3 times and
        # fall below that band
        grid = [0.02, 0.01, 0.005]
        x = np.array(grid)
        cost = np.array([exact_ratio(A, 0.0, p) - exact_ratio(A, 0.1, p) for p in grid])
        target = bayes._zero_cost_limit(A, LAW) - wls_line(
            x, cost, 0.09 / np.sqrt(np.array(reps, dtype=float)), np.eye(3))[0]
        seeds = range(40)
        z_sq, z_sq_diagonal = [], []
        for seed in seeds:
            diag = limit_diagnostic(A, LAW, 0.1, grid, reps, seed)
            ratio, se = (np.array([getattr(r, f) for r in diag.rows]) for f in ("ratio", "stderr"))
            z_sq.append(((diag.intercept - target) / diag.intercept_se) ** 2)
            diagonal_se = wls_line(x, ratio, se, np.eye(3))[1]
            z_sq_diagonal.append(((diag.intercept - target) / diagonal_se) ** 2)
        low, high = (chi2.ppf(q, len(seeds)) / len(seeds) for q in (0.0005, 0.9995))
        assert low < np.mean(z_sq) < high
        assert np.mean(z_sq_diagonal) < low

    def test_rows_and_extrapolation(self):
        diag = limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [100_000] * 3, SEED)
        assert [r.p for r in diag.rows] == [0.02, 0.01, 0.005]
        assert diag.intercept > max(r.ratio for r in diag.rows)

    @pytest.mark.parametrize("p_grid, reps", [
        ([0.5], [50_000]),              # one point: nothing to extrapolate
        ([0.02, 0.01, 0.005], 50_000),  # one count for the whole grid
        ([0.02, 0.01, 0.005], [50_000, 50_000]),  # fewer counts than points
        ([0.02, 0.01, 0.005], [1000, 1000, 1000.5]),  # a fractional count
        ([0.02, 0.01], [50_000] * 2),   # two points: no quadratic through them
    ])
    def test_grid_and_reps_shape_rejected(self, p_grid, reps, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated before rejecting the grid")
        monkeypatch.setattr(qrng, "run_chunked", fail)
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, LAW, 0.1, p_grid, reps, SEED)

    def test_zero_stderr_rejected(self):
        # a head start above A leaves the law no mass below A: every run
        # stops at 0 and draws nothing, so each point's cost is exactly 0
        # with SE 0, and the fit, which weighs the points by 1/se^2, cannot
        # use it; more reps cannot help, and the message names the cause
        law = HeadStartLaw.point_mass(4.0)
        for p_grid, reps, seed in (([3e-6, 2e-6, 1e-6], [100] * 3, SEED),
                                   ([0.3, 0.2, 0.1], [1000] * 3, 1)):
            with pytest.raises(ConfigurationError, match="no head start lies below A"):
                limit_diagnostic(A, law, 0.1, p_grid, reps, seed)

    def test_nondecreasing_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            limit_diagnostic(A, LAW, 0.1, [0.02, 0.005, 0.01], [1000] * 3, SEED)

    def test_zero_cost_verdict_coincides(self, capsys):
        # at c = 0 eq3 and eq4 coincide, and the intercept is their common
        # value, exact, with SE 0: the command exits 0 and divides by no SE
        target = yakir_mean(A) + 1.0 + sr_exact(A)[2]
        assert main(["bayes-limit", "--c-star", "0", "--reps", "50000",
                     "--seed", str(SEED)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# verdict=coincide\n" in out
        assert f"# intercept={target:.4f} intercept_se=0.0000\n" in out

    def test_zero_cost_matches_false_alarm_identity(self):
        # P(N >= nu - 1)/p tends to E R_0 + 1 + E_inf N, which the
        # intercept takes exactly; each row is the exact E[Y0]/p
        grid = [0.02, 0.01, 0.005]
        diag = limit_diagnostic(A, LAW, 0.0, grid, [50_000] * 3, SEED)
        target = yakir_mean(A) + 1.0 + sr_exact(A)[2]
        assert diag.intercept == pytest.approx(target, rel=0, abs=1e-12)
        assert diag.intercept_se == 0.0
        for row in diag.rows:
            assert row.stderr == 0.0
            assert row.ratio == pytest.approx(exact_ratio(A, 0.0, row.p), rel=1e-12, abs=0)
        verdict = compare_limit(diag, *limit_predictions(A, 0.0))
        assert (verdict.verdict, verdict.z_eq3, verdict.z_eq4) == ("coincide", 0.0, 0.0)

    def test_zero_se_with_apart_predictions_rejected(self):
        # an exact intercept cannot score predictions that differ
        diag = limit_diagnostic(A, LAW, 0.0, [0.02, 0.01, 0.005], [50_000] * 3, SEED)
        with pytest.raises(ConfigurationError, match="zero standard error"):
            compare_limit(diag, *limit_predictions(A, 0.1))


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
        diag = limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [50_000] * 3, SEED)
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

    def test_exact_conditional_mean(self):
        # criterion 6's exact E[r0 | nu = 1] at p = 0.005, two law integrals,
        # against adaptive quadrature over the whole density; it is below
        # the p -> 0 size-biased mean, 2.212121
        p = 0.005

        def whole(fn):
            return integrate.quad(lambda x: fn(x) * yakir_density(A, x), 0.0, 2.0 * (A + 1.0),
                                  points=[A, 2.0], limit=200, epsabs=0.0, epsrel=1e-13)[0]
        want = whole(lambda x: x * couple_pi0(p, x)) / whole(partial(couple_pi0, p))
        assert exact_conditional_mean(LAW, A, p) == pytest.approx(want, rel=1e-12)
        assert exact_conditional_mean(LAW, A, p) == pytest.approx(2.205717, abs=5e-7)
        assert size_biased_mean(A) == pytest.approx(2.212121, abs=5e-7)

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
