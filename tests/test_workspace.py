"""Chunk kernels reduce in place, in workspaces reused across chunks and calls.

A warm estimator call holds one workspace per worker plus one moment row per
chunk, whatever ``reps`` is; a workspace holds a few chunk-sized buffers; no
kernel returns a view of a borrowed workspace; and a moment row holds the
sums of the replications (of the scalar reference) or draws it replaces,
its integers exactly.
"""

import math
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import reference_stop_times

from qdetect import (
    BayesConfig,
    HeadStartLaw,
    conditional_headstart_diagnostic,
    delay_profile,
    estimate_conditional_delay,
    estimate_e1_and_cross,
    limit_diagnostic,
    martingale_checks,
    oracle_checks,
)
from qdetect import montecarlo, rng as qrng
from qdetect.bayes import _shared_run_scores
from qdetect.headstart import _oracle_chunk
from qdetect.montecarlo import DEFAULT_MAX_STEPS, _profile_moments, _sr_moments, moment_sums
from qdetect.rng import CHUNK_SIZE, Workspace, chunk_spec, derive_rng, run_chunked

A = 1.5
LAW = HeadStartLaw.yakir(A)
SEED = 20240824

ESTIMATORS = {
    "e1-and-cross": lambda reps, workers: estimate_e1_and_cross(A, LAW, reps, SEED, workers),
    "conditional-k3": lambda reps, workers: estimate_conditional_delay(
        A, LAW, 3, reps, SEED, workers),
    "delay-profile": lambda reps, workers: delay_profile(A, LAW, 10, reps, SEED, workers),
    "bayes-risk": lambda reps, workers: _shared_run_scores(
        [BayesConfig(p=0.01, c=0.1, A=A, law=LAW)], [reps], SEED, workers),
    "conditional-headstart": lambda reps, workers: conditional_headstart_diagnostic(
        LAW, 0.005, reps, SEED, workers),
    "limit-diagnostic": lambda reps, workers: limit_diagnostic(
        A, LAW, 0.1, [0.02, 0.01, 0.005], [reps // 4, reps // 2, reps], SEED, workers),
    "oracle-checks": lambda reps, workers: oracle_checks(A, reps, SEED, workers),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_warm_call_memory_is_bounded_by_the_chunk(name, workers):
    # 8 chunks of replications; one float64 array of one chunk alone is 2 MiB
    call, reps = ESTIMATORS[name], 8 * CHUNK_SIZE
    call(reps, workers)  # the workspaces of the free-list get their buffers
    tracemalloc.start()
    try:
        call(reps, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak / 2**20:.2f} MiB traced"


def test_workspace_holds_a_few_chunk_buffers(monkeypatch):
    # the SR and Bayes kernels, the profile pass, the joint Bayes kernel of
    # the limit diagnostic and the martingale checks, on fresh workspaces:
    # each holds four 8-byte buffers of one chunk (the head starts, which
    # the kernel steps in place, the likelihood ratios, the Bayes runs'
    # 1 - pi0, the SR kernels' copy of the head starts or the profile's
    # post-change branch, and the Bayes runs' scores; with K grid points,
    # up to K + 1 rows of each for a 2 (K + 1)-th of a chunk) and one or two
    # masks, at most 8.5 MiB, and no per-replication record of the stops
    monkeypatch.setattr(qrng, "_free_workspaces", [])
    estimate_e1_and_cross(A, LAW, CHUNK_SIZE, SEED, 2)
    delay_profile(A, LAW, 10, 2 * CHUNK_SIZE, SEED, 2)
    _shared_run_scores([BayesConfig(p=0.01, c=0.1, A=A, law=LAW)], [2 * CHUNK_SIZE], SEED, 2)
    limit_diagnostic(A, LAW, 0.1, [0.02, 0.01, 0.005], [CHUNK_SIZE, CHUNK_SIZE, 2 * CHUNK_SIZE],
                     SEED, 2)
    # every run of a point mass below A steps: the block stays full
    limit_diagnostic(A, HeadStartLaw.point_mass(0.0), 0.1, [0.02, 0.01, 0.005], [CHUNK_SIZE] * 3,
                     SEED, 2)
    martingale_checks(A, LAW, CHUNK_SIZE, SEED, 2)
    held = [sum(buf.nbytes for buf in ws._buffers.values())
            for ws in qrng._free_workspaces]
    assert held and max(held) < 9 << 20, [f"{b / 2**20:.2f} MiB" for b in held]


def test_a_name_asked_for_at_another_dtype_gets_that_dtype():
    ws = Workspace()
    floats = ws.array("carry", float, 10)
    ints = ws.array("carry", np.int64, 10)
    assert floats.dtype == np.float64 and ints.dtype == np.int64
    # the same dtype again reuses the buffer the name holds
    assert ws.array("carry", np.int64, 5).base is ints.base


KERNELS = [partial(_sr_moments, A=A, law=LAW, change_index=1),
           partial(_profile_moments, A=A, law=LAW, k_max=10),
           partial(_oracle_chunk, law=LAW, A=A)]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("kernel", KERNELS, ids=["sr", "profile", "oracle"])
def test_chunk_outputs_are_not_workspace_views(kernel, workers):
    reps = 2 * CHUNK_SIZE + 1000  # three chunks
    got = run_chunked(kernel, reps, SEED, "alias", workers)
    parts = [kernel(derive_rng(SEED, "alias", i), count) for i, count in chunk_spec(reps)]
    assert len(got) == len(parts[0])
    for column, chunks in zip(got, zip(*parts)):
        assert np.array_equal(column, np.concatenate(chunks))


def test_free_list_lends_each_workspace_to_one_chunk_at_a_time():
    # more threads than cores, switching often: a workspace lent to two
    # chunks at once would mix their runs
    reps = 6 * CHUNK_SIZE
    serial = estimate_e1_and_cross(A, LAW, reps, SEED, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert estimate_e1_and_cross(A, LAW, reps, SEED, 4) == serial
    finally:
        sys.setswitchinterval(interval)
    free = qrng._free_workspaces
    assert len({id(ws) for ws in free}) == len(free)


def test_free_list_keeps_at_most_its_cap(monkeypatch):
    # a pool wider than the cap: the extra workspaces are dropped, not kept
    monkeypatch.setattr(qrng, "FREE_LIST_MAX", 1)
    serial = estimate_e1_and_cross(A, LAW, 3 * CHUNK_SIZE, SEED, 1)
    assert estimate_e1_and_cross(A, LAW, 3 * CHUNK_SIZE, SEED, 3) == serial
    assert len(qrng._free_workspaces) == 1


class TestMomentRows:
    COUNT = 1 << 14

    @pytest.mark.parametrize("max_steps", [1, 2, DEFAULT_MAX_STEPS])
    @pytest.mark.parametrize("change_index", [1, None])
    def test_row_holds_the_sums_of_the_runs(self, change_index, max_steps, monkeypatch):
        # the runs of the scalar reference, on the kernel's own stream
        tag = f"rows/{change_index}/{max_steps}"
        monkeypatch.setattr(montecarlo, "DEFAULT_MAX_STEPS", max_steps)
        ints, floats = _sr_moments(derive_rng(SEED, tag, 0), self.COUNT, A=A, law=LAW,
                                   change_index=change_index)
        # only the runs below A are drawn, and the row counts them; the
        # others stop at 0 and add nothing but their count
        rng = derive_rng(SEED, tag, 0)
        r0 = LAW.sample(rng, self.COUNT, A, Workspace()).copy()
        nu = math.inf if change_index is None else change_index
        n_stop, truncated, _ = reference_stop_times(rng, r0, A, nu, 1.0, max_steps)
        assert 0 < r0.size < self.COUNT
        assert ints.tolist() == [[self.COUNT, r0.size, self.COUNT, n_stop.sum(), n_stop @ n_stop,
                                  truncated.sum()]]
        if max_steps == 1:
            assert truncated.any()
        # the kernel adds R_0 and (2s - 1) R_0^2 at each step s: the same
        # sums up to their order
        x = r0 * n_stop
        np.testing.assert_allclose(floats, [moment_sums(x)], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("max_steps", [1, 2, DEFAULT_MAX_STEPS])
    @pytest.mark.parametrize("k_max", [4, 10])
    def test_profile_rows_hold_the_sums_of_the_runs(self, k_max, max_steps, monkeypatch):
        # the runs of the scalar reference on the pass's own draws: the
        # pre-change chain one step at a time, and right after step k - 1,
        # before step k draws, the post-change branch of the runs still
        # below A, to its end
        tag = f"rows/profile/{k_max}/{max_steps}"
        monkeypatch.setattr(montecarlo, "DEFAULT_MAX_STEPS", max_steps)
        (row,) = _profile_moments(derive_rng(SEED, tag, 0), self.COUNT, A=A, law=LAW,
                                  k_max=k_max)
        rng = derive_rng(SEED, tag, 0)
        r = LAW.sample(rng, self.COUNT, A, Workspace()).copy()
        m, want = r.size, []
        for step in range(1, k_max):  # row k = step + 1
            if step > max_steps:  # no run takes step k - 1: row k keeps none
                want.append([self.COUNT, m, 0, 0, 0, 0])
                continue
            kept = r.size
            # one step; the runs it leaves below A read as truncated at 1
            _, going_on, r = reference_stop_times(rng, r, A, math.inf, 1.0, 1)
            r = r[going_on]
            # d = N - k + 1 is 0 for a run that stops at step k - 1, else its
            # branch's steps; a truncated run counts only if it is kept, and
            # every branch run is
            d, truncated, _ = reference_stop_times(rng, r, A, 1, 1.0, max_steps - step)
            want.append([self.COUNT, m, kept, d.sum(), d @ d, truncated.sum()])
        assert 0 < m < self.COUNT
        assert row.reshape(-1, 6).tolist() == want
        if max_steps < k_max - 1:
            assert want[max_steps - 1][5] > 0 and want[-1][2] == 0

    @pytest.mark.parametrize("a", [0.3, 1.98])
    def test_oracle_row_holds_the_sums_of_the_draws(self, a):
        tag = f"rows/oracle/{a}"
        law = HeadStartLaw.yakir(a)
        (row,) = _oracle_chunk(derive_rng(SEED, tag, 0), self.COUNT, law=law, A=a)
        r0 = law.sample(derive_rng(SEED, tag, 0), self.COUNT, math.inf, Workspace())
        cond = r0[r0 < a]
        assert 0 < cond.size < self.COUNT
        assert row.tolist() == [[self.COUNT, cond.size, *moment_sums(cond),
                                 *moment_sums(r0)]]
