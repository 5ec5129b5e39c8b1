import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from qdetect import (
    BayesConfig,
    ConfigurationError,
    HeadStartLaw,
    UndefinedConditionalError,
    conditional_headstart_diagnostic,
    delay_profile,
    estimate_arl_false,
    estimate_conditional_delay,
    estimate_cross_term,
    estimate_e1_and_cross,
    estimate_e1_delay,
    limit_diagnostic,
    martingale_checks,
    oracle_checks,
    sr_exact,
)
from qdetect import exact, rng as qrng
from qdetect.bayes import _shared_run_scores
from qdetect.montecarlo import (McEstimate, _sr_moments, mc_estimate, moment_sums,
                                stratified_estimate)
from qdetect.rng import CHUNK_SIZE, chunk_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

A = 1.5
LAW = HeadStartLaw.yakir(A)
SEED = 20240824


class TestTrivialCases:
    def test_point_mass_at_threshold_stops_immediately(self):
        law = HeadStartLaw.point_mass(2.0)
        est = estimate_e1_delay(A, law, 10**4, SEED)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_cross_term_zero_head_start(self):
        est = estimate_cross_term(A, HeadStartLaw.point_mass(0.0), 10**4, SEED)
        assert est.mean == 0.0

    def test_cross_term_above_threshold(self):
        est = estimate_cross_term(A, HeadStartLaw.point_mass(3.0), 10**4, SEED)
        assert est.mean == 0.0

    def test_arl_point_mass_above_threshold(self):
        est = estimate_arl_false(A, HeadStartLaw.point_mass(1.6), 10**4, SEED)
        assert est.mean == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            estimate_e1_delay(-1.0, LAW, 100, SEED)

    def test_non_finite_threshold(self):
        # unchecked, a nan threshold stops every run at 0 and an infinite one never
        for a in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                estimate_e1_delay(a, HeadStartLaw.point_mass(0.0), 100, 1)

    def test_invalid_reps(self):
        # one replication would report a zero standard error, and a fractional
        # count would be truncated
        for reps in (0, 1, 1000.7):
            with pytest.raises(ConfigurationError):
                estimate_e1_delay(A, LAW, reps, SEED)


class TestSharedReplications:
    def test_pair_equals_the_separate_estimators(self):
        e1, cross = estimate_e1_and_cross(A, LAW, 50_000, SEED)
        assert e1 == estimate_e1_delay(A, LAW, 50_000, SEED)
        assert cross == estimate_cross_term(A, LAW, 50_000, SEED)


class TestDeterminism:
    def test_pool_sized_to_chunks(self, monkeypatch):
        sizes = []

        class RecordingPool(qrng.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(qrng, "ThreadPoolExecutor", RecordingPool)
        reps = CHUNK_SIZE + 1  # two chunks
        parallel = estimate_e1_delay(A, LAW, reps, SEED, workers=8)
        assert sizes == [2]
        assert parallel == estimate_e1_delay(A, LAW, reps, SEED, workers=1)

    def test_unpicklable_law_runs_on_workers(self):
        law = HeadStartLaw.custom(lambda rng, size: rng.uniform(0.0, 2.0, size))
        reps = CHUNK_SIZE + 1  # two chunks, so two workers run a pool
        assert (estimate_e1_delay(A, law, reps, SEED, workers=2)
                == estimate_e1_delay(A, law, reps, SEED, workers=1))

    def test_workers_start_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("a worker started a process")
        monkeypatch.setattr(os, "fork", no_fork)
        reps = CHUNK_SIZE + 1  # two chunks
        assert (estimate_e1_delay(A, LAW, reps, SEED, workers=2)
                == estimate_e1_delay(A, LAW, reps, SEED, workers=1))
        assert (limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [reps] * 3, SEED, workers=2)
                == limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [reps] * 3, SEED,
                                    workers=1))

    def test_default_workers_are_the_usable_cores(self):
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        assert qrng.DEFAULT_WORKERS == cores
        assert qrng.FREE_LIST_MAX == max(cores, 2)

    def test_defaults_run_on_the_usable_cores(self, monkeypatch):
        # at their default arguments, estimators reach run_chunked with an int
        # worker count, DEFAULT_WORKERS, and give the serial bits
        reps = 2 * CHUNK_SIZE + 1  # three chunks
        grid, grid_reps = [0.02, 0.01, 0.005], [reps, CHUNK_SIZE + 1, 1000]
        serial = (estimate_e1_and_cross(A, LAW, reps, SEED, workers=1),
                  limit_diagnostic(A, LAW, 0.1, grid, grid_reps, SEED, workers=1))
        seen = []
        run_chunked = qrng.run_chunked

        def recording(kernel, reps, seed, tag, workers):
            seen.append(workers)
            return run_chunked(kernel, reps, seed, tag, workers)
        monkeypatch.setattr(qrng, "run_chunked", recording)
        assert (estimate_e1_and_cross(A, LAW, reps, SEED),
                limit_diagnostic(A, LAW, 0.1, grid, grid_reps, SEED)) == serial
        assert seen == [qrng.DEFAULT_WORKERS] * 4
        assert all(type(w) is int for w in seen)

    def test_oracle_margins_do_not_depend_on_workers(self):
        reps = 2 * CHUNK_SIZE + 1  # three chunks
        serial = oracle_checks(A, reps, SEED, 1)
        assert oracle_checks(A, reps, SEED, 2) == serial
        assert oracle_checks(A, reps, SEED, 3) == serial

    def test_seed_changes_result(self):
        a = estimate_e1_delay(A, LAW, 50_000, SEED)
        b = estimate_e1_delay(A, LAW, 50_000, SEED + 1)
        assert a.mean != b.mean

    def test_seeds_do_not_alias(self):
        # a seed is not reduced mod 2^64: 2^64 and 0 draw different streams
        a = estimate_e1_delay(A, LAW, 10_000, 0)
        b = estimate_e1_delay(A, LAW, 10_000, 2**64)
        assert a.mean != b.mean

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_e1_delay(A, LAW, 10_000, -1)

    @pytest.mark.parametrize("seed, workers", [(1.5, 1), (SEED, 0), (SEED, -1)])
    def test_seed_and_workers_are_whole_counts(self, seed, workers):
        # seed 1.5 would run seed 1, and a worker count below 1 serially
        with pytest.raises(ConfigurationError):
            estimate_e1_delay(A, LAW, 1000, seed, workers)

    def test_integral_float_seed_shares_the_stream(self):
        assert (estimate_e1_delay(A, LAW, 10_000, 1.0)
                == estimate_e1_delay(A, LAW, 10_000, 1))

    @pytest.mark.parametrize("args, first_draws", [
        ((0, "sr/k=1", 0),
         [0.8859670704085393, 0.9668856328135474, 0.8007399281738856,
          0.4136732671770441]),
        ((2**64, "bayes-limit/0", 3),
         [0.09798766562122163, 0.9796706987806912, 0.45423460680568284,
          0.09787920948264872]),
    ])
    def test_golden_streams(self, args, first_draws):
        # a change of generator or seeding moves every Monte Carlo output
        rng = qrng.derive_rng(*args)
        assert isinstance(rng.bit_generator, np.random.PCG64DXSM)
        assert rng.random(4).tolist() == first_draws


class TestMartingaleStructure:
    def test_arl_agrees_with_optional_stopping(self):
        # E(R_N - R_0) = E_inf N: the optional-stopping check, at 400 000 reps
        _, ok, _, detail = next(check for check in martingale_checks(A, LAW, 400_000, SEED, 1)
                                if check[0] == "optional-stopping")
        assert ok, detail

    def test_optional_stopping_with_no_run_below_a_is_exact(self):
        # every run stops at 0 and D = 0: the estimate is exactly 0 with SE 0,
        # and z reads 0 rather than dividing by that SE
        _, ok, z, detail = martingale_checks(A, HeadStartLaw.point_mass(2.0), 10_000, 1, 1)[1]
        assert ok and z == 0.0 and detail.startswith("exact"), detail

    def test_higher_threshold_longer_runs(self):
        lo = estimate_arl_false(1.5, LAW, 200_000, SEED)
        hi = estimate_arl_false(1.9, LAW, 200_000, SEED)
        assert hi.mean > lo.mean


class TestStderrCalibration:
    def test_batch_means_consistent_with_stderr(self):
        # ten moment rows of 10^4 runs each, on the first ten sr/k=1 streams;
        # each steps its runs below A, the same count, and its stratified
        # mean mass * sum N / m varies as mass^2 sigma^2 / m, sigma^2 the
        # variance of N over the runs below A
        rows = np.array([
            _sr_moments(qrng.derive_rng(SEED, "sr/k=1", i), 10_000, A=A, law=LAW,
                        change_index=1)[0][0]
            for i in range(10)])
        _, stepped, _, n_sum, n_sq, _ = rows.sum(axis=0)
        m = rows[0, 1]
        assert (rows[:, 1] == m).all() and m == round(10_000 * math.log1p(A) / 2.0)
        mass = math.log1p(A) / 2.0
        batches = mass * rows[:, 3] / m
        mean_below = n_sum / stepped
        sigma2 = (n_sq - stepped * mean_below * mean_below) / (stepped - 1)
        chi2 = ((batches - mass * mean_below) ** 2).sum() / (mass * mass * sigma2 / m)
        lo, hi = stats.chi2.ppf([0.005, 0.995], df=9)
        assert lo <= chi2 <= hi

    @pytest.mark.parametrize("total, total_sq", [(1e200, math.inf), (-math.inf, math.nan)])
    def test_sum_past_the_float64_range_rejected(self, total, total_sq):
        # the spread would be inf - inf, which reads as a zero standard error
        with pytest.raises(ConfigurationError, match="of 20000 values are not finite"):
            mc_estimate(np.float64(20_000), total, total_sq)


def _stratified_e1_se(a, reps):
    """``(stratified, plain)``: the exact SE of E_1 N over ``reps`` runs of
    ``yakir(a)`` at A = a, stratified on the stop-at-0 split and not.  From
    r < A, N = 1 + Bernoulli(b(r)) G with b(r) = (A/(2(1 + r)))^2 and G
    geometric on {1, 2, ...} of survival sigma = I/2, so
    E[N | r] = 1 + b/(1 - sigma) and
    E[N^2 | r] = 1 + 2b/(1 - sigma) + b(1 + sigma)/(1 - sigma)^2; the
    head start is uniform on [0, A) with mass log(1 + A)/2 there."""
    log1a = math.log1p(a)
    sigma = (log1a + 1.0 / (1.0 + a) - 1.0) / 2.0
    b = lambda r: (a / (2.0 * (1.0 + r))) ** 2
    first = integrate.quad(lambda r: 1.0 + b(r) / (1.0 - sigma), 0.0, a)[0] / a
    second = integrate.quad(lambda r: 1.0 + 2.0 * b(r) / (1.0 - sigma)
                            + b(r) * (1.0 + sigma) / (1.0 - sigma) ** 2, 0.0, a)[0] / a
    mass = log1a / 2.0
    stratified = mass * math.sqrt((second - first ** 2) / (reps * mass))
    plain = math.sqrt((mass * second - (mass * first) ** 2) / reps)
    return stratified, plain


class TestStratifiedEstimate:
    @pytest.mark.parametrize("a, want_se", [(1.5, 0.000368), (1.98, 0.000507)])
    def test_e1_at_the_exact_stratified_se(self, a, want_se):
        # 1 M runs: E_1 N within 4 SE of the exact value, and its SE within
        # 5% of the exact stratified SE, about half the plain one
        se, plain_se = _stratified_e1_se(a, 10**6)
        assert se == pytest.approx(want_se, abs=5e-7) and se < 0.6 * plain_se
        est = estimate_e1_delay(a, HeadStartLaw.yakir(a), 10**6, SEED)
        assert abs(est.mean - sr_exact(a)[0]) <= 4.0 * est.stderr
        assert est.stderr == pytest.approx(se, rel=0.05)
        assert est.reps == 10**6

    def test_weighs_the_stepped_runs_by_the_mass(self):
        # four stepped values 1, 2, 3, 4 of ten runs, half the mass below A
        est = stratified_estimate(10, 4, 10.0, 30.0, 0.5, offset=0.2, truncation_count=1)
        assert (est.mean, est.reps, est.truncation_count) == (0.2 + 0.5 * 2.5, 10, 1)
        assert est.stderr == pytest.approx(0.5 * math.sqrt(5.0 / 3.0) / 2.0, rel=1e-15)

    def test_no_mass_below_is_exact(self):
        assert stratified_estimate(10, 0, 0.0, 0.0, 0.0, offset=0.3) == McEstimate(0.3, 0.0, 10)

    def test_custom_law_is_a_plain_mean(self):
        # no exact mass: the runs at or above A count as zeros
        assert stratified_estimate(10, 4, 10.0, 30.0, None) == mc_estimate(10, 10.0, 30.0)

    @pytest.mark.parametrize("m, total, total_sq", [(1, 1.0, 1.0), (3, 3.0, 3.0)],
                             ids=["one-run", "no-spread"])
    def test_no_standard_error_rejected(self, m, total, total_sq):
        # with runs on both sides of the split the estimate is not exact, so
        # stepped runs that leave no spread must not read as certainty
        with pytest.raises(ConfigurationError, match="no standard error"):
            stratified_estimate(10, m, total, total_sq, 0.5)


class TestConditionalDelay:
    def test_k1_equals_e1_exactly(self):
        # same streams, no rejection possible: identical replication sets,
        # and the same stratified estimate, bit for bit
        direct = estimate_e1_delay(A, LAW, 50_000, SEED)
        cond = estimate_conditional_delay(A, LAW, 1, 50_000, SEED)
        assert cond == direct
        assert cond.rejected == 0

    def test_undefined_conditioning(self):
        law = HeadStartLaw.point_mass(2.0)
        with pytest.raises(UndefinedConditionalError):
            estimate_conditional_delay(A, law, 2, 10**4, SEED)

    def test_single_survivor_has_no_stderr(self):
        # a k at which one of 4 runs survives N >= k - 1 (3 rejected), from
        # the estimator's own streams (at seed 1 k = 1 has no standard
        # error: its two runs below A stop together, see test_cli)
        ones = [k for k, rejected in delay_profile(A, LAW, 10, 4, 2).undefined.items()
                if rejected == 3]
        assert ones
        with pytest.raises(UndefinedConditionalError) as info:
            estimate_conditional_delay(A, LAW, ones[0], 4, 2)
        assert info.value.rejected == 3

    def test_rejection_counted(self):
        est = estimate_conditional_delay(A, LAW, 3, 50_000, SEED)
        assert est.rejected > 0
        assert est.reps + est.rejected == 50_000

    def test_integral_float_index_shares_the_stream(self):
        assert (estimate_conditional_delay(A, LAW, 2.0, 20_000, 1)
                == estimate_conditional_delay(A, LAW, 2, 20_000, 1))

    def test_each_k_is_its_row_of_the_profile(self):
        # one code path: the branch for k draws before pre-change step k, so
        # a row does not depend on how far the pass goes; two chunks
        profile = delay_profile(A, LAW, 10, 300_000, SEED)
        assert sorted(profile.entries) == list(range(1, 11))
        for k, entry in profile.entries.items():
            assert estimate_conditional_delay(A, LAW, k, 300_000, SEED) == entry

    def test_invalid_change_index(self):
        for k in (0, 1.5):
            with pytest.raises(ConfigurationError):
                estimate_conditional_delay(A, LAW, k, 100, SEED)


class TestDelayProfile:
    def test_point_mass_above_threshold_profile(self):
        law = HeadStartLaw.point_mass(2.0)
        profile = delay_profile(A, law, 3, 10**4, SEED)
        assert profile.entries[1].mean == 0.0
        assert 2 in profile.undefined and 3 in profile.undefined
        assert profile.deviations() == {1: 0.0}  # zero SE: the floor, not 0/0

    def test_k_max_must_be_positive(self):
        # an empty profile has no k = 1 for deviations() to compare against
        with pytest.raises(ConfigurationError):
            delay_profile(A, LAW, 0, 10**4, SEED)

    def test_one_pass_for_every_k_from_2(self, monkeypatch):
        # the work budget: k = 1 on its own stream, and one pass for k >= 2,
        # whose every chunk draws its head starts once, at A
        tags, thresholds = [], []
        run_chunked, sample = qrng.run_chunked, HeadStartLaw.sample

        def recording_run(kernel, reps, seed, tag, workers):
            tags.append(tag)
            return run_chunked(kernel, reps, seed, tag, workers)

        def recording_sample(law, rng, count, a_stop, ws):
            thresholds.append(a_stop)
            return sample(law, rng, count, a_stop, ws)

        monkeypatch.setattr(qrng, "run_chunked", recording_run)
        monkeypatch.setattr(HeadStartLaw, "sample", recording_sample)
        delay_profile(A, LAW, 10, CHUNK_SIZE + 1000, SEED, 1)  # two chunks a pass
        assert tags == ["sr/k=1", "sr/profile"]
        assert thresholds == [A] * 4

    def test_kept_counts_are_binomial(self):
        # under yakir(A) a chunk steps round(count mass) runs, each pre-change
        # step from U[0, A) survives with rho_1 = L/2 and lands in U[0, A)
        # again, so row k keeps Binomial(m, rho_1^(k - 2)) of the m runs: an
        # exact check of the shared pre-change chain
        reps = 10**6
        profile = delay_profile(A, LAW, 10, reps, SEED)
        m = sum(round(count * LAW.mass_below(A)) for _, count in chunk_spec(reps))
        assert profile.entries[2].reps == m and profile.entries[2].rejected == reps - m
        rho = exact.rho_q(A, 1.0)
        for k in range(3, 11):
            p = rho ** (k - 2)
            kept = profile.entries[k].reps
            assert abs(kept - m * p) <= 4.0 * math.sqrt(m * p * (1.0 - p)), k


class TestAgainstExact:
    @pytest.mark.parametrize("a", [1.5, 1.98])
    def test_estimators_within_4_se(self, a):
        law = HeadStartLaw.yakir(a)
        e1, cross, arl = sr_exact(a)
        e1_hat, cross_hat = estimate_e1_and_cross(a, law, 200_000, SEED)
        arl_hat = estimate_arl_false(a, law, 200_000, SEED)
        for est, exact in ((e1_hat, e1), (cross_hat, cross), (arl_hat, arl)):
            assert abs(est.mean - exact) <= 4.0 * est.stderr

    @pytest.mark.parametrize("k", [1, 3])
    def test_conditional_delay_within_5_se(self, k):
        est = estimate_conditional_delay(A, LAW, k, 200_000, SEED)
        assert abs(est.mean - sr_exact(A)[0]) <= 5.0 * est.stderr

    def test_profile_z_scores_are_calibrated(self):
        # over 100 seeds the mean z^2 of each row k >= 2 against the exact
        # E_1 N is chi^2_100 / 100 for unbiased means with honest standard
        # errors; a bias of one SE would double it.  The rows share their
        # runs within a seed, so each gets its own band, two-sided 0.1%
        seeds, e1 = 100, sr_exact(A)[0]
        z2 = np.zeros((seeds, 9))
        for seed in range(seeds):
            entries = delay_profile(A, LAW, 10, 200_000, seed).entries
            z2[seed] = [((entries[k].mean - e1) / entries[k].stderr) ** 2 for k in range(2, 11)]
        lo, hi = stats.chi2.ppf([0.0005, 0.9995], df=seeds) / seeds
        means = z2.mean(axis=0)
        assert ((lo <= means) & (means <= hi)).all(), means.round(3)


class TestGoldenOutputs:
    """Every estimator's output, bit for bit, at 300 000 reps (two chunks).

    Any change to a sample path, a selection or a reduction moves one of
    these values; a change that must move them is a recorded output change.
    """

    REPS = 300_000

    @staticmethod
    def _hex(est):
        return est.mean.hex(), est.stderr.hex(), est.truncation_count, est.rejected

    def test_sr_estimators(self):
        e1, cross = estimate_e1_and_cross(A, LAW, self.REPS, SEED)
        arl = estimate_arl_false(A, LAW, self.REPS, SEED)
        assert self._hex(e1) == ("0x1.298a87670b3c4p-1", "0x1.621319c3fcbd0p-11", 0, 0)
        # per-step float sums of R_0 and R_0^2, added in step and chunk order
        assert self._hex(cross) == ("0x1.a203260b1f71ap-2", "0x1.8405d371b18d5p-11", 0, 0)
        assert self._hex(arl) == ("0x1.b0da935cd9180p-1", "0x1.93cab212e0e1ap-10", 0, 0)

    def test_delay_profile(self):
        # k = 1 on "sr/k=1", the estimate above; k >= 2 the rows of one pass
        # on "sr/profile"
        profile = delay_profile(A, LAW, 4, self.REPS, SEED)
        assert {k: self._hex(e) for k, e in profile.entries.items()} == {
            1: ("0x1.298a87670b3c4p-1", "0x1.621319c3fcbd0p-11", 0, 0),
            2: ("0x1.292e7b82dd594p-1", "0x1.03946baa85939p-9", 0, 162556),
            3: ("0x1.296504665d348p-1", "0x1.7ebd87c0abf05p-9", 0, 237278),
            4: ("0x1.29d5bf39501a5p-1", "0x1.19fb22b1d89c9p-8", 0, 271221),
        }

    @pytest.mark.parametrize("p, cost_hex", [
        (0.3, ("0x1.0281f7ac842ebp-2", "0x1.503540ff6e6dfp-13", 0, 0)),
        (0.005, ("0x1.df81b9957fb24p-8", "0x1.425741304dafdp-17", 0, 0)),
    ], ids=["p=0.3", "p=0.005"])
    def test_bayes_risk(self, p, cost_hex):
        # the one-point score path on "bayes-limit/0:300000": the mean delay
        # cost Z_bar, the only simulated part of 1 - risk = E[Y0] - c Z_bar
        (cost,), _ = _shared_run_scores([BayesConfig(p=p, c=0.1, A=A, law=LAW)], [self.REPS],
                                        SEED, qrng.DEFAULT_WORKERS)
        assert self._hex(cost) == cost_hex

    def test_conditional_headstart(self):
        # per-chunk sums of the nu = 1 head starts, added in chunk order
        est = conditional_headstart_diagnostic(LAW, 0.005, self.REPS, SEED)
        assert (est.mean.hex(), est.stderr.hex(), est.reps, est.rejected) == (
            "0x1.18e60bd8ac1e1p+1", "0x1.281ef7c617296p-6", 3992, 296008)

    @staticmethod
    def _oracle_margins(reps):
        # the margins, in standard errors, of the checks that read the draws
        margins = {name: float(margin).hex()
                   for name, _, margin, _ in oracle_checks(A, reps, SEED)}
        return {name: margins[f"{name} A=1.5"] for name in (
            "p0-oracle", "mu0-oracle", "mean-oracle", "erratum-rejected")}

    def test_oracle_comparison(self):
        # one chunk of 10^5 draws
        assert self._oracle_margins(10**5) == {
            "p0-oracle": "0x1.3ca97204edd09p-1", "mu0-oracle": "0x1.d3cd0d5cf75c0p-8",
            "mean-oracle": "0x1.71281245b851fp-4", "erratum-rejected": "0x1.4565257a0acf5p+7",
        }

    def test_oracle_comparison_over_chunks(self):
        # per-chunk sums of the draws, added in chunk order
        assert self._oracle_margins(self.REPS) == {
            "p0-oracle": "0x1.6967112663e00p-1", "mu0-oracle": "0x1.15efd5e5490f7p-1",
            "mean-oracle": "0x1.2087e97d04bc1p+0", "erratum-rejected": "0x1.1819b8f4c8284p+8",
        }


def _run_python(code, **env_changes):
    """Run ``code`` in a fresh interpreter with the package on its path, the
    environment changed by ``env_changes`` (``None`` unsets a variable);
    returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name, value in env_changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNoBlas:
    """No reduction calls BLAS, whose thread split moves the last bits of a
    sum with the host's BLAS thread count, and whose spinning threads take
    the cores of the chunk pool."""

    GOLDEN = f"""
from qdetect import (HeadStartLaw, conditional_headstart_diagnostic,
                     estimate_e1_and_cross, martingale_checks, oracle_checks)
A, LAW, SEED = {A!r}, HeadStartLaw.yakir({A!r}), {SEED!r}
hexes = lambda est: [est.mean.hex(), est.stderr.hex()]
print(hexes(estimate_e1_and_cross(A, LAW, 300_000, SEED)[1]))
print(hexes(conditional_headstart_diagnostic(LAW, 0.005, 300_000, SEED)))
for checks in (oracle_checks(A, 300_000, SEED), martingale_checks(A, LAW, 300_000, SEED, 1)):
    print([(name, float(margin).hex()) for name, _, margin, _ in checks])
"""

    def test_moment_sums_match_exact_sums(self):
        x = qrng.derive_rng(SEED, "moment-sums", 0).random(CHUNK_SIZE) * 3.0
        total, total_sq = moment_sums(x)
        assert total == pytest.approx(math.fsum(x), rel=1e-12)
        assert total_sq == pytest.approx(math.fsum(x * x), rel=1e-12)

    def test_bits_do_not_depend_on_blas_threads(self):
        # the cross term, the conditional head start, the oracle margins and
        # the optional-stopping z, with BLAS on one thread and at its default
        # (one thread per core), whatever the environment asked for
        one = _run_python(self.GOLDEN, OPENBLAS_NUM_THREADS="1")
        default = _run_python(self.GOLDEN, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None)
        assert one == default

    def test_serial_estimate_uses_one_core(self):
        # a single thread cannot run more than its wall time, up to timer jitter.
        # OpenBLAS's helper threads spin through `import numpy` and for some
        # 20 ms after it, whether or not anything calls BLAS; the window opens
        # only once they have gone quiet (or after 5 s), so it times the calls
        out = _run_python(f"""
import os, time
from qdetect import HeadStartLaw, estimate_e1_and_cross, martingale_checks, oracle_checks
from qdetect.rng import CHUNK_SIZE
A, LAW, SEED = {A!r}, HeadStartLaw.yakir({A!r}), {SEED!r}
def calls(reps, oracle_reps):
    estimate_e1_and_cross(A, LAW, reps, SEED, 1)
    oracle_checks(A, oracle_reps, 1, workers=1)
    martingale_checks(A, LAW, reps, SEED, 1)
def helper_ticks():
    # user + system clock ticks of every thread but the main one (tid = pid)
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            try:
                with open(f"/proc/self/task/{{tid}}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except FileNotFoundError:  # the thread ended
                continue
            total += int(fields[11]) + int(fields[12])
    return total
calls(10**4, 10**4)
if os.path.isdir("/proc/self/task"):
    deadline, ticks = time.monotonic() + 5.0, helper_ticks()
    while time.monotonic() < deadline:
        time.sleep(0.05)
        ticks, before = helper_ticks(), ticks
        if ticks == before:
            break
wall, cpu = time.perf_counter(), time.process_time()
calls(4 * CHUNK_SIZE, 10**6)
print((time.process_time() - cpu) / (time.perf_counter() - wall))
""", OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None)
        assert float(out) <= 1.25


class TestImports:
    def test_package_loads_no_scipy(self):
        # scipy is a test-only dependency: the package's own quadrature is numpy's
        out = _run_python(f"""
import sys
import qdetect, qdetect.cli
from qdetect import HeadStartLaw, estimate_e1_and_cross, oracle_checks
from qdetect.headstart import ORACLE_MIN_REPS
estimate_e1_and_cross({A!r}, HeadStartLaw.yakir({A!r}), ORACLE_MIN_REPS, {SEED!r})
assert all(check[1] for check in oracle_checks({A!r}, ORACLE_MIN_REPS, {SEED!r}))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
""")
        assert out.strip() == "[]"
