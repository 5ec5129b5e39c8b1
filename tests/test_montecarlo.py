import math

import numpy as np
import pytest
from scipy import stats

from qdetect import (
    ConfigurationError,
    HeadStartLaw,
    UndefinedConditionalError,
    delay_profile,
    estimate_arl_false,
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
        # one replication would report a zero standard error
        for reps in (0, 1):
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

        class RecordingPool(qrng.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(qrng, "ProcessPoolExecutor", RecordingPool)
        reps = CHUNK_SIZE + 1  # two chunks
        parallel = estimate_e1_delay(A, LAW, reps, SEED, workers=8)
        assert sizes == [2]
        assert parallel == estimate_e1_delay(A, LAW, reps, SEED, workers=1)

    def test_unpicklable_law_needs_one_worker(self):
        law = HeadStartLaw.custom(lambda rng, size: rng.uniform(0.0, 2.0, size))
        reps = CHUNK_SIZE + 1  # two chunks, so two workers would start a pool
        with pytest.raises(ConfigurationError):
            estimate_e1_delay(A, law, reps, SEED, workers=2)
        assert estimate_e1_delay(A, law, reps, SEED, workers=1).reps == reps

    def test_seed_changes_result(self):
        a = estimate_e1_delay(A, LAW, 50_000, SEED)
        b = estimate_e1_delay(A, LAW, 50_000, SEED + 1)
        assert a.mean != b.mean


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
        # at this seed one of 4 runs survives N >= 2
        n_stop = sr_replications(A, LAW, 3, 4, 1)[0]
        assert (n_stop >= 2).sum() == 1
        with pytest.raises(UndefinedConditionalError) as info:
            estimate_conditional_delay(A, LAW, 3, 4, 1)
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
