"""The recursion kernel against its scalar reference, path by path.

``conftest.reference_stop_times`` runs the modified SR recursion (``q = 1``)
or the Bayes recursion (``q = 1 - p``) one replication at a time with
``math`` arithmetic, drawing the uniforms as ``montecarlo._stop_times`` does.
``conftest.record_runs`` records every run the kernel yields, and the two
are matched by head start, which is unique under the uniform-product law.
The runs follow the draw order of the chunk kernels: only the head starts
below A are drawn (``HeadStartLaw.sample`` at A).  The Bayes risk kernel
steps them with no change (``conftest.reference_bayes_scores``), and its
row is checked here against the exact conditional costs of the reference
paths.  The brute-force runs (``bayes._brute_force_runs``) draw every head
start and its change time before the runs below A step
(``conftest.reference_bayes_runs``), which checks per-run change indices.
The SR moment row is checked in ``test_workspace.py``.
``TestStreamContract`` checks the head-start and change-time draws against
their textbook forms.
"""

import math

import numpy as np
import pytest

from conftest import (assert_risk_row, assert_score_row, record_runs, reference_bayes_runs,
                      reference_bayes_scores, reference_change_times, reference_joint_scores,
                      reference_stop_times)

from qdetect import (BayesConfig, HeadStartLaw, estimate_arl_false, estimate_conditional_delay,
                     estimate_e1_and_cross, identity_checks, martingale_checks, montecarlo)
from qdetect import rng as qrng
from qdetect.bayes import _bayes_chunk, _change_times, _identity_chunk, _shared_run_scores
from qdetect.joint import _joint_chunk
from qdetect.montecarlo import DEFAULT_MAX_STEPS, _stop_times
from qdetect.rng import CHUNK_SIZE, Workspace, derive_rng

SEED = 20240824
COUNT = 1 << 14
A = 1.5
LAW = HeadStartLaw.yakir(A)


def _mass_below(law):
    """P(R_0 < A), restated apart from ``HeadStartLaw.mass_below``: 1 or 0 for
    a point mass, and A log(1 + a)/(2a) for ``yakir(a)``, whose density below
    A <= 2 is the constant log(1 + a)/(2a)."""
    if law.r0 is not None:
        return float(law.r0 < A)
    return A * math.log1p(law.a_param) / (2.0 * law.a_param)


def _reference_runs(tag, max_steps, change_index=None):
    """The head starts below A of chunk 0 of ``tag``, in the draw order of
    ``montecarlo._sr_runs``, the kernel's recorded SR runs on them, and the
    reference's ``(n_stop, truncated, final)`` of the same runs, in
    replication order."""
    rng = derive_rng(SEED, tag, 0)
    r0 = LAW.sample(rng, COUNT, A, Workspace()).copy()
    nu = math.inf if change_index is None else change_index
    recorded = record_runs(rng, r0, A, nu, 1.0, max_steps)
    rng = derive_rng(SEED, tag, 0)
    LAW.sample(rng, COUNT, A, Workspace())
    return r0, recorded, reference_stop_times(rng, r0, A, nu, 1.0, max_steps)


def _bayes_runs(tag, p, max_steps):
    """The Bayes runs of chunk 0 of ``tag`` in the draw order of
    ``_bayes_chunk``: the head starts below A, the kernel's recorded
    pre-change runs of those, and the reference's
    ``(n_stop, truncated, final, cost)`` of the same runs."""
    stepped, *ref = reference_bayes_scores(derive_rng(SEED, tag, 0), LAW, COUNT, A, p,
                                           max_steps)
    rng = derive_rng(SEED, tag, 0)
    LAW.sample(rng, COUNT, A, Workspace())
    recorded = record_runs(rng, stepped, A, math.inf, 1.0 - p, max_steps)
    return stepped, recorded, ref


def _brute_force_runs(tag, p, max_steps):
    """The brute-force Bayes runs of chunk 0 of ``tag`` in the draw order of
    ``bayes._brute_force_runs``: the change times and the reference's
    ``(n_stop, truncated, final)`` of every run, and ``(r0, recorded, ref)``
    of the runs below A, with the kernel's recorded runs."""
    r0, nu, *ref = reference_bayes_runs(derive_rng(SEED, tag, 0), LAW, COUNT, A, p,
                                        max_steps)
    rng = derive_rng(SEED, tag, 0)
    LAW.sample(rng, COUNT, math.inf, Workspace())
    rng.random(2 * COUNT)  # the two uniforms behind each change time
    stepped = r0 < A
    recorded = record_runs(rng, r0[stepped], A, nu[stepped], 1.0 - p, max_steps)
    return nu, ref, (r0[stepped], recorded, [a[stepped] for a in ref])


def _assert_paths_match(r0, recorded, ref):
    order = np.argsort(r0, kind="stable")
    assert np.unique(r0).size == r0.size  # the matching key is unique
    rec_r0, rec_n, rec_trunc, rec_final = recorded
    ref_n, ref_trunc, ref_final = (a[order] for a in ref)
    assert np.array_equal(rec_r0, r0[order])
    assert np.array_equal(rec_n, ref_n)
    assert np.array_equal(rec_trunc, ref_trunc)
    np.testing.assert_allclose(rec_final, ref_final, rtol=1e-12, atol=0.0)


def _assert_bayes_rows_match(tag, p, ref):
    """The row of the chunk against the exact costs of the reference's runs
    (``conftest.assert_score_row``), the same row at c = 0.1 and at c = 0:
    the kernel reads no cost."""
    _, truncated, _, cost = ref
    rows = [_bayes_chunk(derive_rng(SEED, tag, 0), COUNT, BayesConfig(p=p, c=c, A=A, law=LAW))[0]
            for c in (0.1, 0.0)]
    assert np.array_equal(*rows)
    assert_score_row(rows[0], COUNT, cost, truncated)


def _assert_brute_force_rows_match(tag, p, nu, ref):
    """The brute-force row of the chunk against the row of the reference's
    runs (``conftest.assert_risk_row``)."""
    config = BayesConfig(p=p, c=0.1, A=A, law=LAW)
    assert_risk_row(_identity_chunk(derive_rng(SEED, tag, 0), COUNT, config)[0], nu, *ref[:2])


class TestKernelsMatchReference:
    @pytest.mark.parametrize("max_steps", [1, 2, DEFAULT_MAX_STEPS])
    @pytest.mark.parametrize("change_index", [1, 3, None])
    def test_sr_chunk(self, change_index, max_steps):
        tag = f"ref/sr/{change_index}/{max_steps}"
        r0, recorded, ref = _reference_runs(tag, max_steps, change_index)
        _assert_paths_match(r0, recorded, ref)
        if max_steps <= 2:
            assert ref[1].any()

    @pytest.mark.parametrize("p", [0.3, 0.005])
    def test_bayes_chunk(self, p):
        tag = f"ref/bayes/{p}"
        stepped, recorded, ref = _bayes_runs(tag, p, DEFAULT_MAX_STEPS)
        _assert_paths_match(stepped, recorded, ref[:3])
        _assert_bayes_rows_match(tag, p, ref)
        assert (ref[0] > 1).any() and 0 < stepped.size < COUNT

    @pytest.mark.parametrize("p", [0.3, 0.005])
    def test_brute_force_reference_chunk(self, p):
        tag = f"ref/brute/{p}"
        nu, ref, stepped = _brute_force_runs(tag, p, DEFAULT_MAX_STEPS)
        _assert_paths_match(*stepped)
        _assert_brute_force_rows_match(tag, p, nu, ref)
        assert (nu > 1).any() and (nu == 1).any() and 0 < stepped[0].size < COUNT

    @pytest.mark.parametrize("max_steps", [1, 2])
    @pytest.mark.parametrize("p", [0.3, 0.005])
    def test_bayes_truncation(self, p, max_steps, monkeypatch):
        # both Bayes kernels, cut off after one or two steps: the score
        # kernel with no change, the brute-force one with per-replication
        # change indices
        tag = f"ref/bayes/{p}/{max_steps}"
        stepped, recorded, ref = _bayes_runs(tag, p, max_steps)
        _assert_paths_match(stepped, recorded, ref[:3])
        nu, ref_bf, stepped_bf = _brute_force_runs(tag, p, max_steps)
        _assert_paths_match(*stepped_bf)
        monkeypatch.setattr(montecarlo, "DEFAULT_MAX_STEPS", max_steps)
        _assert_bayes_rows_match(tag, p, ref)
        _assert_brute_force_rows_match(tag, p, nu, ref_bf)
        assert ref[1].any() and ref_bf[1].any() and (nu <= max_steps).any()

    @pytest.mark.parametrize("max_steps", [1, 2, DEFAULT_MAX_STEPS])
    @pytest.mark.parametrize("law, ps", [(LAW, (0.3, 0.1, 0.02)), (LAW, (0.02, 0.01, 0.005)),
                                         (HeadStartLaw.point_mass(0.5), (0.1, 0.05)),
                                         (LAW, (0.01,))],
                             ids=["yakir-wide", "yakir-grid", "point-mass", "one-point"])
    def test_joint_chunk(self, law, ps, max_steps, monkeypatch):
        # one chain per p on each run's one uniform a step, in a block that
        # the chunk's draws refill many times at this chunk size: the
        # kernel's rows and cross sums against the reference's scores, on
        # the same draws, and the same rows and cross sums at c = 0.1 and
        # at c = 0: the kernel reads no cost
        monkeypatch.setattr(qrng, "CHUNK_SIZE", 4096)
        monkeypatch.setattr(montecarlo, "DEFAULT_MAX_STEPS", max_steps)
        tag = f"ref/joint/{ps[0]}/{max_steps}"
        rng, ref_rng = derive_rng(SEED, tag, 0), derive_rng(SEED, tag, 0)
        rows, cross = _joint_chunk(rng, COUNT, [BayesConfig(p=p, c=0.1, A=A, law=law)
                                                for p in ps])
        free = _joint_chunk(derive_rng(SEED, tag, 0), COUNT,
                            [BayesConfig(p=p, c=0.0, A=A, law=law) for p in ps])
        assert np.array_equal(rows, free[0]) and np.array_equal(cross, free[1])
        stepped = round(COUNT * _mass_below(law))
        n_stop, truncated, cost = reference_joint_scores(ref_rng, law, stepped, A, ps, max_steps)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rows[:, :2].tolist() == [[COUNT, stepped]] * len(ps)
        assert rows[:, 4].tolist() == truncated.sum(axis=1).tolist()
        np.testing.assert_allclose(rows[:, 2:4].T, [cost.sum(axis=1), (cost * cost).sum(axis=1)],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(cross, cost @ cost.T, rtol=1e-12, atol=0.0)
        # on shared draws a larger p never stops later, and here some stop sooner
        assert (n_stop[:-1] <= n_stop[1:]).all()
        assert (n_stop[0] < n_stop[-1]).any() == (max_steps > 1 and len(ps) > 1)
        assert stepped > qrng.CHUNK_SIZE and truncated.any() == (max_steps <= 2)

    @pytest.mark.parametrize("law", [LAW, HeadStartLaw.point_mass(0.5)],
                             ids=["yakir", "point-mass"])
    def test_joint_and_one_point_chunks_step_the_same_runs(self, law):
        # a count that is no multiple of the joint block, whose batches of
        # free columns can be one wide: both kernels step exactly
        # round(count * mass) runs below A
        count = 5 * (CHUNK_SIZE // 8) + 3
        configs = [BayesConfig(p=p, c=0.1, A=A, law=law) for p in (0.02, 0.01, 0.005)]
        stepped = round(count * _mass_below(law))
        rows, _ = _joint_chunk(derive_rng(SEED, "same-runs", 0), count, configs)
        (row,) = _bayes_chunk(derive_rng(SEED, "same-runs", 0), count, configs[0])
        assert rows[:, :2].tolist() == [[count, stepped]] * 3
        assert row[0, :2].tolist() == [count, stepped]

    def test_single_step_in_place(self):
        # the martingale-drift form: no run can stop, and max_steps = 1 ends it
        rng = derive_rng(SEED, "ref/in-place", 0)
        r0 = LAW.sample(rng, COUNT, math.inf, Workspace())
        steps = list(_stop_times(rng, r0.copy(), math.inf, math.inf, 1.0, 1, Workspace(),
                                 (r0.copy(),)))
        rng = derive_rng(SEED, "ref/in-place", 0)
        LAW.sample(rng, COUNT, math.inf, Workspace())
        assert len(steps) == 1
        step, r, below, r0_s = steps[0]
        assert step == 1 and below.all()
        assert np.array_equal(r0_s, r0)
        assert np.array_equal(r, (r0 + 1.0) * (2.0 * rng.random(COUNT)))


class TestStopAtZeroSplit:
    """The runs at or above A stop at 0: one helper drops them, and the kernel
    only ever steps runs below A."""

    def test_running_keeps_order_and_moves_carry(self):
        # over several compaction blocks, against a boolean selection
        r = derive_rng(SEED, "split", 0).random(3 * montecarlo._BLOCK + 5) * 3.0
        tag = np.arange(r.size)
        want_r, want_tag = r[r < A], tag[r < A]
        n = montecarlo._running(r, A, Workspace(), tag)
        assert n == want_r.size
        assert np.array_equal(r[:n], want_r) and np.array_equal(tag[:n], want_tag)

    @pytest.mark.parametrize("a, kept", [(0.05, 0), (5.0, 4)])
    def test_running_with_no_run_or_every_run_below(self, a, kept):
        r, tag = np.array([0.5, 2.0, 0.1, 1.5]), np.arange(4)
        assert montecarlo._running(r, a, Workspace(), tag) == kept
        assert r.tolist() == [0.5, 2.0, 0.1, 1.5] and tag.tolist() == [0, 1, 2, 3]

    def test_every_kernel_call_gets_runs_below_a(self, monkeypatch):
        calls = []
        stop_times = montecarlo._stop_times

        def recording(rng, r, a, *args, **kwargs):
            calls.append((r.size, bool(np.all(r < a))))
            return stop_times(rng, r, a, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_stop_times", recording)
        estimate_e1_and_cross(A, LAW, 2000, SEED, 1)
        estimate_arl_false(A, LAW, 2000, SEED, 1)
        estimate_conditional_delay(A, LAW, 3, 2000, SEED, 1)
        _shared_run_scores([BayesConfig(p=0.05, c=0.1, A=A, law=LAW)], [2000], SEED, 1)
        identity_checks(A, 0.1, 2000, SEED, 1)
        martingale_checks(A, LAW, 2000, SEED, 1)
        # one call per chunk: one per estimator, the identity check's
        # brute-force and score chunks, and martingale_checks' drift paths
        # (A = inf) besides its optional-stopping chunk; the conditional
        # delay at k = 3 steps its pre-change chain and branches off it
        # post-change at k = 2 and at k = 3, one call each
        assert len(calls) == 10 and all(below for _, below in calls)
        # the yakir law starts about half the runs at or above A: they were
        # never drawn (SR, Bayes risk) or were dropped (identity check), and
        # a branch takes only the runs still below A
        assert sum(size < 2000 for size, _ in calls) == 9

    def test_every_chunk_samples_once_at_its_threshold(self, monkeypatch):
        # the benchmark's head-start metrics wrap HeadStartLaw.sample by name,
        # so each SR and Bayes risk chunk draws through it, once, at its A
        thresholds = []
        sample = HeadStartLaw.sample

        def recording(law, rng, count, a_stop, ws):
            thresholds.append(a_stop)
            return sample(law, rng, count, a_stop, ws)

        monkeypatch.setattr(HeadStartLaw, "sample", recording)
        reps = CHUNK_SIZE + 1000  # two chunks
        for estimate in (
                lambda: estimate_e1_and_cross(A, LAW, reps, SEED, 1),
                lambda: estimate_arl_false(A, LAW, reps, SEED, 1),
                lambda: _shared_run_scores([BayesConfig(p=0.05, c=0.1, A=A, law=LAW)],
                                           [reps], SEED, 1)):
            thresholds.clear()
            estimate()
            assert thresholds == [A, A]


class TestStreamContract:
    """The head-start and change-time draws, against their textbook forms."""

    @pytest.mark.parametrize("a", [0.3, 1.5, 1.98])
    def test_head_start_sample(self, a):
        tag = f"contract/sample/{a}"
        sample = HeadStartLaw.yakir(a).sample(derive_rng(SEED, tag, 0), COUNT, math.inf,
                                              Workspace())
        rng = derive_rng(SEED, tag, 0)
        ref = (rng.uniform(0, a, COUNT) + 1) * rng.uniform(0, 2, COUNT)
        assert np.array_equal(sample, ref)

    @pytest.mark.parametrize("a, a_stop", [(0.3, 0.3), (1.5, 1.5), (1.98, 1.98), (1.5, 1.9)])
    def test_head_start_sample_at_threshold(self, a, a_stop):
        # the count below A is fixed, round(COUNT * mass), with the mass of
        # the law's constant density log(1 + a)/(2a) below A; then that many
        # uniforms on [0, A), and nothing else
        tag = f"contract/below/{a}/{a_stop}"
        rng = derive_rng(SEED, tag, 0)
        below = HeadStartLaw.yakir(a).sample(rng, COUNT, a_stop, Workspace())
        m = round(COUNT * a_stop * math.log1p(a) / (2.0 * a))
        ref_rng = derive_rng(SEED, tag, 0)
        assert np.array_equal(below, ref_rng.random(m) * a_stop)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("p", [0.3, 0.005])
    def test_change_time(self, p):
        law = HeadStartLaw.yakir(1.5)
        tag = f"contract/nu/{p}"
        rng, ws = derive_rng(SEED, tag, 0), Workspace()
        r0 = law.sample(rng, COUNT, math.inf, ws)
        nu = _change_times(rng, r0, p=p, ws=ws)
        rng = derive_rng(SEED, tag, 0)
        # _change_times leaves the head starts it reads intact
        assert np.array_equal(law.sample(rng, COUNT, math.inf, Workspace()), r0)
        ref = reference_change_times(rng, r0, p)
        assert np.array_equal(nu, ref) and np.array_equal(nu, np.floor(nu))
        assert (nu == 1).any() and (nu > 2).any()


def _run(r0, A, change_index, seed, max_steps=DEFAULT_MAX_STEPS):
    """One replication on its own generator: (n_stop, truncated, final)."""
    n, trunc, final = reference_stop_times(np.random.default_rng(seed), [r0], A,
                                           change_index, 1.0, max_steps)
    return int(n[0]), bool(trunc[0]), float(final[0])


class TestRunModifiedSr:
    def test_stops_at_zero_when_head_start_crosses(self):
        assert _run(1.5, 1.5, math.inf, 0) == (0, False, 1.5)

    def test_one_step_stop_iff_lr_crosses(self):
        # with r0 = 0 and A = 0.5, stopping at n = 1 happens iff lr(X_1) >= 0.5
        for seed in range(50):
            x1 = -math.log(np.random.default_rng(seed).random())
            n_stop, _, _ = _run(0.0, 0.5, math.inf, seed)
            assert n_stop >= 1
            assert (n_stop == 1) == (2.0 * math.exp(-x1) >= 0.5)

    def test_truncation_flagged(self):
        n_stop, truncated, final = _run(0.0, 1.9, math.inf, 4, max_steps=1)
        if truncated:
            assert n_stop == 1 and final < 1.9
        else:
            assert final >= 1.9

    def test_threshold_monotonicity_pathwise(self):
        # same stream: a higher threshold can only stop later
        for seed in range(30):
            assert _run(0.0, 1.8, 1, seed)[0] >= _run(0.0, 1.2, 1, seed)[0]

    def test_head_start_domination_pathwise(self):
        # a positive head start is dominated by the r0 = 0 run on the same stream
        for seed in range(30):
            assert _run(1.0, 1.8, math.inf, seed)[0] <= _run(0.0, 1.8, math.inf, seed)[0]
