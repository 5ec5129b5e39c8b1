import math
import os

import numpy as np
import pytest
from scipy import stats

from qdetect import (
    BayesConfig,
    ConfigurationError,
    HeadStartLaw,
    UndefinedConditionalError,
    delay_profile,
    estimate_arl_false,
    estimate_bayes_risk,
    estimate_conditional_delay,
    estimate_cross_term,
    estimate_e1_and_cross,
    estimate_e1_delay,
    sr_exact,
    sr_replications,
    yakir_mean,
)
from qdetect import rng as qrng
from qdetect.rng import CHUNK_SIZE

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
        config = BayesConfig(p=0.01, c=0.1, A=A, law=LAW)
        assert (estimate_e1_delay(A, LAW, reps, SEED, workers=2)
                == estimate_e1_delay(A, LAW, reps, SEED, workers=1))
        assert (estimate_bayes_risk(config, reps, SEED, workers=2)
                == estimate_bayes_risk(config, reps, SEED, workers=1))

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
        est = estimate_arl_false(A, LAW, 400_000, SEED)
        _, r0, final, _ = sr_replications(A, LAW, None, 400_000, SEED)
        overshoot_mean = (final - r0).mean()
        overshoot_se = (final - r0).std(ddof=1) / math.sqrt(final.size)
        combined = math.hypot(est.stderr, overshoot_se)
        assert abs(est.mean - overshoot_mean) <= 4.0 * combined

    def test_higher_threshold_longer_runs(self):
        lo = estimate_arl_false(1.5, LAW, 200_000, SEED)
        hi = estimate_arl_false(1.9, LAW, 200_000, SEED)
        assert hi.mean > lo.mean


class TestStderrCalibration:
    def test_batch_means_consistent_with_stderr(self):
        n_stop, _, _, _ = sr_replications(A, LAW, 1, 100_000, SEED)
        values = n_stop.astype(float)
        batches = values.reshape(10, -1).mean(axis=1)
        sigma2 = values.var(ddof=1)
        chi2 = ((batches - values.mean()) ** 2).sum() / (sigma2 / 10_000)
        lo, hi = stats.chi2.ppf([0.005, 0.995], df=9)
        assert lo <= chi2 <= hi


class TestConditionalDelay:
    def test_k1_equals_e1_exactly(self):
        # same streams, no rejection possible: identical replication sets
        direct = estimate_e1_delay(A, LAW, 50_000, SEED)
        cond = estimate_conditional_delay(A, LAW, 1, 50_000, SEED)
        assert cond.mean == direct.mean
        assert cond.rejected == 0

    def test_undefined_conditioning(self):
        law = HeadStartLaw.point_mass(2.0)
        with pytest.raises(UndefinedConditionalError):
            estimate_conditional_delay(A, law, 2, 10**4, SEED)

    def test_single_survivor_has_no_stderr(self):
        # a k at which one of 4 runs survives N >= k - 1, from the estimator's
        # own streams
        ones = [k for k in range(2, 11)
                if (sr_replications(A, LAW, k, 4, 1)[0] >= k - 1).sum() == 1]
        assert ones
        with pytest.raises(UndefinedConditionalError) as info:
            estimate_conditional_delay(A, LAW, ones[0], 4, 1)
        assert info.value.rejected == 3

    def test_rejection_counted(self):
        est = estimate_conditional_delay(A, LAW, 3, 50_000, SEED)
        assert est.rejected > 0
        assert est.reps + est.rejected == 50_000

    def test_integral_float_index_shares_the_stream(self):
        for a, b in zip(sr_replications(A, LAW, 2.0, 20_000, 1),
                        sr_replications(A, LAW, 2, 20_000, 1)):
            assert np.array_equal(a, b)
        assert (estimate_conditional_delay(A, LAW, 2.0, 20_000, 1)
                == estimate_conditional_delay(A, LAW, 2, 20_000, 1))

    def test_invalid_change_index(self):
        for k in (0, 1.5):
            with pytest.raises(ConfigurationError):
                sr_replications(A, LAW, k, 100, SEED)
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


class TestAgainstClosedForms:
    def test_mean_head_start(self):
        _, r0, _, _ = sr_replications(A, LAW, 1, 400_000, SEED)
        se = r0.std(ddof=1) / math.sqrt(r0.size)
        assert abs(r0.mean() - yakir_mean(A)) <= 4.0 * se


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
