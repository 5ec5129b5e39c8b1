"""Scalar reference for the detection recursion, checked against the kernels.

``reference_stop_times`` runs the modified SR recursion (``q = 1``) or the
Bayes recursion (``q = 1 - p``) one replication at a time with ``math``
arithmetic.  It draws the uniforms exactly as ``montecarlo._stop_times``
does, one per running replication per step and in replication order, so fed
from the same generator it must reproduce the vector kernels path by path.
"""

import math

import numpy as np
import pytest

from qdetect import BayesConfig, HeadStartLaw
from qdetect.bayes import _bayes_runs
from qdetect.montecarlo import DEFAULT_MAX_STEPS, _sr_chunk
from qdetect.rng import derive_rng

SEED = 20240824
COUNT = 1 << 14


def reference_stop_times(rng, r0, A, nu, q, max_steps):
    """Returns (n_stop, truncated, final) arrays; ``nu`` is a scalar or per rep."""
    nus = list(nu) if np.ndim(nu) else [nu] * len(r0)
    r = [float(v) for v in r0]
    n_stop = [0] * len(r)
    truncated = [False] * len(r)
    active = [i for i in range(len(r)) if r[i] < A]
    step = 0
    while active:
        step += 1
        if step > max_steps:
            for i in active:
                n_stop[i], truncated[i] = max_steps, True
            break
        running = []
        for i, u in zip(active, rng.random(len(active))):
            x = -math.log(u) * (0.5 if step >= nus[i] else 1.0)
            r[i] = (r[i] + 1.0) * 2.0 * math.exp(-x) / q
            if r[i] >= A:
                n_stop[i] = step
            else:
                running.append(i)
        active = running
    return np.array(n_stop), np.array(truncated), np.array(r)


def _assert_paths_match(n_stop, truncated, final, ref):
    ref_n, ref_trunc, ref_final = ref
    assert np.array_equal(n_stop, ref_n)
    assert np.array_equal(truncated, ref_trunc)
    if final is not None:
        assert np.allclose(final, ref_final, rtol=1e-12, atol=0.0)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("max_steps", [1, 2, DEFAULT_MAX_STEPS])
    @pytest.mark.parametrize("change_index", [1, 3, None])
    def test_sr_chunk(self, change_index, max_steps):
        A, law = 1.5, HeadStartLaw.yakir(1.5)
        tag = f"ref/sr/{change_index}/{max_steps}"
        n_stop, r0, final, truncated = _sr_chunk(
            derive_rng(SEED, tag, 0), COUNT, A=A, law=law,
            change_index=change_index, max_steps=max_steps)
        rng = derive_rng(SEED, tag, 0)
        assert np.array_equal(law.sample(rng, COUNT), r0)
        nu = math.inf if change_index is None else change_index
        ref = reference_stop_times(rng, r0, A, nu, 1.0, max_steps)
        _assert_paths_match(n_stop, truncated, final, ref)
        if max_steps <= 2:
            assert truncated.any()

    @pytest.mark.parametrize("p", [0.3, 0.005])
    def test_bayes_chunk(self, p):
        A, law = 1.5, HeadStartLaw.yakir(1.5)
        tag = f"ref/bayes/{p}"
        r0, nu, n_stop, truncated = _bayes_runs(
            derive_rng(SEED, tag, 0), COUNT, BayesConfig(p=p, c=0.1, A=A, law=law))
        rng = derive_rng(SEED, tag, 0)
        law.sample(rng, COUNT)
        rng.random(COUNT)  # the two uniforms behind each change time
        rng.random(COUNT)
        ref = reference_stop_times(rng, r0, A, nu, 1.0 - p, DEFAULT_MAX_STEPS)
        _assert_paths_match(n_stop, truncated, None, ref)
        assert (nu > 1).any() and (nu == 1).any()


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
