"""Replication engine for the modified SR procedure under the exponential pair.

Produces the estimates behind the numerical study: the post-change delay
E_1 N, the false-alarm run length E_inf N, the cross moment E_1(R_0 N), and
conditional delays E_k(N - k + 1 | N >= k - 1) for a grid of change times.
The conditional delays of every k >= 2 come from one pass
(:func:`_profile_moments`): its runs step their pre-change chain once, and
right after step k - 1 the runs still below the threshold branch off it
post-change, before step k draws, so row k is the rejection estimate of
E_k and does not depend on how far the pass goes.  k = 1 is E_1 N, on its
own stream.

All estimators simulate the worked example densities f0 = Exp(1),
f1 = Exp(2), keeping only the running statistic.  An observation enters
only through its likelihood ratio, which each step draws directly from one
uniform U: lr = 2U before the change and 2 sqrt(U) after it, the values
2 exp(-X) takes when X = -log U (Exp(1)) or X = -log(U)/2 (Exp(2)).
Replications are chunked onto per-chunk PCG64DXSM streams (see
:mod:`qdetect.rng`), so a fixed ``(seed, reps, config)`` gives bit-identical
output for any worker count.

A run whose head start is at or above the threshold stops at N = 0, and
:func:`_stop_times` steps only the others.  The SR and Bayes risk kernels
draw only those others (:meth:`HeadStartLaw.sample` at the threshold): for
a point mass and for the uniform product law below 2, exactly
round(count P(R_0 < A)) of a chunk's runs, uniforms below the threshold
for the latter, with no count drawn.  The estimators weigh the stepped
runs by that exact mass and give the runs that stop at 0 their exact
value, 0 for every SR quantity (proportional stratification,
:func:`stratified_estimate`), so no estimate carries the noise of how many
runs start below the threshold.  Any other law draws every run and drops
the ones at or above the threshold through one helper, :func:`_running`,
and a kernel that must see every head start, as the oracles do, draws at
``A = math.inf`` and calls it itself.  The kernel reduces as it steps: it
yields each step's running runs, and a chunk kernel adds what it needs of
them to its sums.  A stopping index counts the steps a run took, so a sum
over stopping indices is a sum over steps, and no run's stop is stored.  The
runs still below the threshold move to the front of the running arrays by
integer index: no replication-sized array is selected by a boolean mask,
because the mask of the runs that stop at a step is close to random, and
numpy's masked selection on such a mask costs several times ``nonzero`` plus
``take``.

The estimators read moment rows, not replications.  Each chunk kernel
reduces its runs to one row of exact int64 sums (the count, the runs
stepped, the runs kept by the conditioning, the sums of their delay and
its square, and how many of them were truncated) and float sums of
``R_0 N`` and its square
(:func:`_sr_moments`, :func:`_profile_moments`), and an estimator adds the
rows in chunk order.  Every
float sum of squares comes from :func:`moment_sums`, in numpy's own loop on
the chunk's thread, never from BLAS: BLAS splits a long sum over its own
threads, one per core, so the bits would depend on the host, and those
threads spin on the cores the chunk pool needs.  A chunk's arrays live in a
workspace borrowed from the free-list of :mod:`qdetect.rng`: the kernel
writes each one through ``out=``, compacts them in place a block of
:data:`_BLOCK` entries at a time, and returns only the row, so a warm chunk
allocates nothing chunk-sized.  The kernel steps the running statistics in
the head starts' own buffer and compacts only the per-run arrays its caller
passes; the SR kernels pass a copy of the head starts below the threshold,
for the cross term, so an SR chunk holds three chunk-sized float buffers
and a mask; the profile pass carries no copy, and steps its post-change
branches in that third buffer.  A
replication leaves its chunk only as part of a row: :func:`_sr_sums` is the
one driver of the SR chunk kernels, and it returns their rows summed over
the chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from . import rng as qrng
from .errors import ConfigurationError, UndefinedConditionalError

if TYPE_CHECKING:  # headstart imports mc_estimate from here
    from .headstart import HeadStartLaw

DEFAULT_MAX_STEPS = 10**7

#: Truncation fraction above which an estimate is flagged as unreliable.
TRUNCATION_FLAG_LEVEL = 1e-4

#: Largest deviation from E_1 N, in combined standard errors, of a flat profile.
FLATNESS_LIMIT = 5.0


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    reps: int
    truncation_count: int = 0
    rejected: int = 0

    @property
    def truncation_fraction(self) -> float:
        return self.truncation_count / max(self.reps + self.rejected, 1)


@dataclass(frozen=True)
class DelayProfile:
    """Conditional delay estimates indexed by change time k."""

    entries: Dict[int, McEstimate]
    undefined: Dict[int, int] = field(default_factory=dict)

    def deviations(self) -> Dict[int, float]:
        """|E_k - E_1| / hypot(se_k, se_1), floored at 1e-12, for each defined k."""
        base = self.entries[1]
        return {k: abs(e.mean - base.mean) / max(math.hypot(e.stderr, base.stderr), 1e-12)
                for k, e in self.entries.items()}


#: The share of the sum of squares that a spread must pass to be more than rounding.
SPREAD_FLOOR = 1e-12


def mc_estimate(n, total, total_sq, truncation_count: int = 0,
                rejected: int = 0) -> McEstimate:
    """Mean and standard error of ``n`` values from their sum and sum of
    squares; fewer than 2 values have no SE, a sum that is not finite is a
    configuration error, and a spread within :data:`SPREAD_FLOOR` of the sum
    of squares, the rounding residue of equal values, is none."""
    if n < 2:
        raise UndefinedConditionalError(
            f"{n} replication(s) survived conditioning; a standard error needs 2",
            rejected=rejected)
    if not (math.isfinite(total) and math.isfinite(total_sq)):
        raise ConfigurationError(f"the sums of {int(n)} values are not finite in float64")
    mean = total / n
    spread = total_sq - n * mean * mean
    var = spread / (n - 1.0) if spread > SPREAD_FLOOR * abs(total_sq) else 0.0
    return McEstimate(mean=float(mean), stderr=math.sqrt(var / n), reps=int(n),
                      truncation_count=truncation_count, rejected=rejected)


def stratified_estimate(count, m, total, total_sq, mass: Optional[float],
                        offset: float = 0.0, truncation_count: int = 0) -> McEstimate:
    """The mean over ``count`` runs, of which the ``m`` below the threshold
    were stepped and summed (``total``, ``total_sq``), and the others stop
    at 0 and add their exact share ``offset`` of the mean:
    ``offset + mass * total / m``, with the standard error
    ``mass * SD / sqrt(m)``, SD that of the ``m`` stepped values
    (proportional stratification, Asmussen & Glynn, Stochastic Simulation,
    2007, ch. V).  Its ``reps`` is ``count``.

    ``mass`` is the law's exact ``P(R_0 < A)``
    (:meth:`qdetect.headstart.HeadStartLaw.mass_below`).  With no mass
    below the threshold the estimate is ``offset``, exact, with SE 0.  A
    custom law (``mass`` None) has no exact mass: its ``count - m`` runs
    at or above the threshold each add 0 (``offset`` is 0), and the
    estimate is the plain mean over all ``count``.  Fewer than 2 stepped
    runs, or stepped runs whose spread is within the rounding floor of
    :func:`mc_estimate`, leave no standard error (a zero SE would read as
    certainty, and with runs on both sides of the split the estimate is not
    exact): :class:`ConfigurationError`, whose message names which.
    """
    if mass is None:
        return mc_estimate(count, total, total_sq, truncation_count)
    if mass == 0.0:
        return McEstimate(mean=float(offset), stderr=0.0, reps=int(count),
                          truncation_count=truncation_count)
    if m < 2:
        raise ConfigurationError(
            f"the {int(m)} of {int(count)} runs that start below the threshold leave "
            "no standard error: increase reps")
    below = mc_estimate(m, total, total_sq)
    if below.stderr == 0.0 and mass < 1.0:
        raise ConfigurationError(
            f"the {int(m)} runs that start below the threshold spread by "
            f"{total_sq - total * total / m:.2g}, within the rounding floor "
            f"{SPREAD_FLOOR * abs(total_sq):.2g} of their sum of squares, and leave no "
            "standard error; both scale with the run count, so more reps cannot help")
    return McEstimate(mean=offset + mass * below.mean, stderr=mass * below.stderr,
                      reps=int(count), truncation_count=truncation_count)


#: Entries per block when the kernel compacts its running arrays: a block's
#: index array (64 KiB) is small enough to come from the heap.
_BLOCK = 8192


def moment_sums(x: np.ndarray) -> Tuple[float, float]:
    """``(sum x, sum x^2)`` of a 1-D float array, both on the calling thread.

    The sum of squares is not ``x @ x``: numpy hands a float ``@`` to BLAS,
    which splits a long sum over one thread per core.  The split makes the
    last bits of the sum depend on the host's BLAS thread count, and the
    BLAS threads spin after each call, taking the cores that
    :func:`qdetect.rng.run_chunked`'s threads run on.  ``einsum`` (without
    ``optimize``) sums in numpy's own loop, with no temporary.
    """
    return x.sum(), np.einsum("i,i->", x, x)


def _compact(keep: np.ndarray, *arrays: np.ndarray, block_size: int = _BLOCK) -> None:
    """Move the entries of each array where ``keep`` holds to its front, in
    order and in place, ``block_size`` entries at a time.  In place is safe:
    a block's kept entries end no later than it does, so the blocks after
    it are intact.  A block whose kept entries land wholly before it is
    taken straight into place; one that overlaps its landing place is taken
    whole before any of it is overwritten."""
    n = 0
    for start in range(0, keep.size, block_size):
        kept = keep[start:start + block_size].nonzero()[0]
        end = n + kept.size
        for a in arrays:
            block = a[start:start + block_size]
            if end <= start:  # mode="clip" writes to ``out`` with no buffer
                block.take(kept, out=a[n:end], mode="clip")
            else:
                a[n:end] = block.take(kept)
        n = end


def _running(r: np.ndarray, A: float, ws: qrng.Workspace, *carry: np.ndarray) -> int:
    """Move the runs of ``r`` below ``A``, and their entries of each array of
    ``carry``, to the front in order and in place (:func:`_compact`, on the
    workspace's ``mask``); return how many there are.  The others stop at 0."""
    below = np.less(r, A, out=ws.array("mask", bool, r.size))
    _compact(below, r, *carry)
    return np.count_nonzero(below)


def _stop_times(rng: np.random.Generator, r: np.ndarray, A: float, nu, q: float,
                max_steps: int, ws: qrng.Workspace, carry: tuple = ()):
    """Run ``R_n = (R_{n-1} + 1) lr(X_n) / q`` from ``R_0 = r`` until ``R_n >= A``,
    stepping ``r`` in place and yielding ``(n, r, below, *carry)`` at each
    step ``n``.

    Every run of ``r`` starts below ``A``: a run at or above it stops at 0
    and takes no step, so a caller drops it first (:func:`_running`).
    Observation ``n`` is post-change when ``n >= nu``; ``nu`` is one change
    index for every replication (``math.inf``: never) or an array with one
    per replication.  Each step draws one uniform ``U`` per running
    replication, in replication order, takes ``lr = 2U`` before the change
    and ``2 sqrt(U)`` after it, and updates the running statistics in place.
    The yielded arrays are views of the runs that took step ``n``: ``r``
    holds ``R_n``, ``below`` whether ``R_n < A``, and then one view of each
    per-run array of ``carry``.  The runs not below stop at ``N = n``; after
    step ``max_steps`` the runs still below are truncated there.

    After each step the runs still below ``A`` move to the front of ``r``, a
    per-replication ``nu`` and each array of ``carry``, in place
    (:func:`_compact`).  Only those arrays move, so a caller that reads
    ``R_0`` as the runs step carries a copy of it, and a caller that reads
    the change indices of a step's runs reads the first ``r.size`` entries
    of its own ``nu``.  The kernel's own arrays live in the workspace ``ws``
    (its buffers ``lr``, ``mask``, and ``post`` for a per-replication
    ``nu``).  Between steps a caller may overwrite the ``lr`` buffer; it may
    also step a second chain of its own, in other arrays and on the same
    ``lr`` and ``mask`` buffers, if it then puts ``below`` back as
    ``R_n < A``, which the kernel reads again before the next step.
    """
    n = r.size
    per_rep = np.ndim(nu) > 0
    running = (r, nu, *carry) if per_rep else (r, *carry)
    below_buf = ws.array("mask", bool, n)
    lr_buf = ws.array("lr", float, n)
    post_buf = ws.array("post", bool, n) if per_rep else None
    for step in range(1, max_steps + 1):
        if not n:
            return
        r_n, lr = r[:n], rng.random(n, out=lr_buf[:n])
        if per_rep:
            np.sqrt(lr, out=lr, where=np.less_equal(nu[:n], step, out=post_buf[:n]))
        elif step >= nu:
            np.sqrt(lr, out=lr)
        lr *= 2.0 / q
        r_n += 1.0
        r_n *= lr
        below = np.less(r_n, A, out=below_buf[:n])
        yield (step, r_n, below, *(a[:n] for a in carry))
        kept = np.count_nonzero(below)
        if kept < n:
            _compact(below, *(a[:n] for a in running))
            n = kept


def _sr_runs(rng: np.random.Generator, count: int, law: HeadStartLaw, A: float, nu,
             ws: qrng.Workspace):
    """:func:`_stop_times` over the SR runs of ``count`` head starts from
    ``law`` that start below ``A``, stepped in the head starts' own buffer;
    each step's tuple ends with the runs' ``R_0``, from a copy in the
    workspace's ``carry`` buffer.  Only the runs below ``A`` are drawn
    (:meth:`HeadStartLaw.sample` at ``A``): the others stop at 0, and every
    SR sum gets nothing from them."""
    r = law.sample(rng, count, A, ws)
    r0 = ws.array("carry", float, r.size)
    np.copyto(r0, r)
    return _stop_times(rng, r, A, nu, 1.0, DEFAULT_MAX_STEPS, ws, (r0,))


def _sr_moments(rng: np.random.Generator, count: int, *, A: float, law: HeadStartLaw,
                change_index: Optional[int]):
    """The moment row of ``count`` SR runs with every observation post-change
    (``change_index`` 1) or none (``None``), as ``(ints, floats)`` of shape
    (1, 6) and (1, 2).

    ``ints`` holds the exact int64 ``(count, m, count, sum N, sum N^2,
    truncated)``, with ``m`` the runs below A that were stepped (the others
    stop at 0 and add nothing): the layout of a profile row
    (:func:`_profile_moments`), here keeping every run.  ``floats`` holds
    ``(sum R_0 N, sum (R_0 N)^2)``.  Each sum adds up as the runs step:
    with ``n_s`` runs taking step ``s``, ``sum N = sum_s n_s`` and
    ``sum N^2 = sum_s (2s - 1) n_s``, and a run adds ``R_0`` and
    ``(2s - 1) R_0^2`` at each step ``s`` it takes.  The runs live in a
    borrowed workspace; only the two rows are new.
    """
    nu = math.inf if change_index is None else change_index
    m = n_sum = n_sq = trunc = 0
    x_sum = x_sq = 0.0
    with qrng.workspace() as ws:
        for step, r, below, r0_s in _sr_runs(rng, count, law, A, nu, ws):
            n = r.size
            if step == 1:
                m = n
            n_sum += n
            n_sq += (2 * step - 1) * n
            s1, s2 = moment_sums(r0_s)
            x_sum += s1
            x_sq += (2 * step - 1) * s2
            if step == DEFAULT_MAX_STEPS:
                trunc = np.count_nonzero(below)
    return (np.array([[count, m, count, n_sum, n_sq, trunc]], dtype=np.int64),
            np.array([[x_sum, x_sq]]))


def _profile_moments(rng: np.random.Generator, count: int, *, A: float, law: HeadStartLaw,
                     k_max: int):
    """The moment rows of the change indices k = 2..k_max from one set of
    ``count`` SR runs, as one int64 row of shape (1, 6 (k_max - 1)): row k's
    exact ``(count, m, kept, sum d, sum d^2, truncated and kept)``, in order
    of k.

    The ``m`` runs below A (:meth:`HeadStartLaw.sample` at ``A``; the others
    stop at 0, and every k >= 2 rejects them) step their pre-change chain
    once (:func:`_stop_times`, no change), up to step k_max - 1.  Row k
    keeps the runs that take step k - 1, those with ``N >= k - 1``, and
    their delay is ``d = N - k + 1``: 0 for the runs that stop at step
    k - 1, and for the runs still below A the steps of a post-change branch
    from ``R_{k-1}``.  The branch runs right after pre-change step k - 1,
    before step k draws, so a row reads the same draws whatever ``k_max``
    is.  It steps a copy of its runs in the workspace's ``carry`` buffer,
    on the ``lr`` and ``mask`` buffers of the suspended pre-change chain,
    whose mask it then puts back; so the pass holds the buffers of an SR
    chunk, and no more.  A run still below A after step
    :data:`DEFAULT_MAX_STEPS`, before the change or after it, is truncated
    there.  With ``n_t`` runs taking branch step ``t``,
    ``sum d = sum_t n_t`` and ``sum d^2 = sum_t (2t - 1) n_t``.
    """
    max_steps = DEFAULT_MAX_STEPS
    with qrng.workspace() as ws:
        r = law.sample(rng, count, A, ws)
        rows = [[count, r.size, 0, 0, 0, 0] for _ in range(k_max - 1)]
        branch = ws.array("carry", float, r.size)
        for step, r_s, below in _stop_times(rng, r, A, math.inf, 1.0,
                                            min(k_max - 1, max_steps), ws):
            row = rows[step - 1]  # k = step + 1
            row[2] = r_s.size
            n = np.count_nonzero(below)
            if step == max_steps:  # the runs still below A are truncated, with d = 0
                row[5] = n
                continue
            go_on = branch[:r_s.size]
            np.copyto(go_on, r_s)
            _compact(below, go_on)
            left = max_steps - step
            for t, r_t, below_t in _stop_times(rng, go_on[:n], A, 1, 1.0, left, ws):
                row[3] += r_t.size
                row[4] += (2 * t - 1) * r_t.size
                if t == left:
                    row[5] = np.count_nonzero(below_t)
            np.less(r_s, A, out=below)  # the branch stepped in the chain's mask
    return (np.array(rows, dtype=np.int64).reshape(1, -1),)


def _optional_stopping_chunk(rng: np.random.Generator, count: int, *, A: float,
                             law: HeadStartLaw, change_index: Optional[int]):
    """The row ``(count, m, sum D, sum D^2, truncated)`` of ``count`` SR runs,
    of which ``m`` below A were stepped, with ``D = R_N - R_0 - N``: 0 for a
    run that stops at 0, and summed over the runs that stop at each step,
    the truncated ones at ``DEFAULT_MAX_STEPS``."""
    nu = math.inf if change_index is None else change_index
    d_sum = d_sq = 0.0
    m = trunc = 0
    with qrng.workspace() as ws:
        for step, r, below, r0_s in _sr_runs(rng, count, law, A, nu, ws):
            if step == 1:
                m = r.size
            d = np.subtract(r, r0_s, out=ws.array("lr", float, r.size))
            d -= step
            if step < DEFAULT_MAX_STEPS:
                np.copyto(d, 0.0, where=below)  # the runs that go on add nothing yet
            else:
                trunc = np.count_nonzero(below)
            s1, s2 = moment_sums(d)
            d_sum += s1
            d_sq += s2
    return (np.array([[count, m, d_sum, d_sq, trunc]]),)


def check_reps(reps: int) -> int:
    """``reps`` as an ``int`` if it is a whole number >= 2, for a standard error."""
    return qrng.check_count(reps, "reps", 2)


def check_threshold(A: float) -> None:
    """Raise unless the threshold satisfies ``0 < A < inf``."""
    if not (0.0 < A < math.inf):
        raise ConfigurationError(f"threshold A must be finite and positive, got {A}")


def _sr_sums(kernel, tag: str, A: float, law: HeadStartLaw, reps: int, seed: int,
             workers: int, **params) -> tuple:
    """The rows of an SR chunk kernel (:func:`_sr_moments`,
    :func:`_optional_stopping_chunk` or :func:`_profile_moments`, given
    ``params``), each summed over the chunks of the stream tag ``tag``.

    The tags are ``sr/k=1`` (every observation post-change), ``sr/k=None``
    (no change) and ``sr/profile`` (the change indices k >= 2 of
    :func:`delay_profile`).  A tag encodes the scenario but not the
    threshold, so runs at different ``A`` with the same seed start from the
    same generator state.  For ``yakir(A)`` at each ``A`` they share their
    head starts' uniforms, scaled by ``A``, for as many runs as both
    thresholds step (:meth:`HeadStartLaw.sample`), but not their steps:
    the count of runs below ``A`` depends on ``A``, so the step draws after
    the head starts fall out of step.
    """
    check_threshold(A)
    reps = check_reps(reps)
    kernel = partial(kernel, A=A, law=law, **params)
    rows = qrng.run_chunked(kernel, reps, seed, tag, workers=workers)
    return tuple(r.sum(axis=0) for r in rows)


def _delay_estimate(ints: np.ndarray, A: float, law: HeadStartLaw,
                    change_index: Optional[int]) -> McEstimate:
    """The delay estimate of an SR ``ints`` row summed over the chunks
    (:func:`_sr_moments`, :func:`_profile_moments`).  With no lag (change
    index 1 or no change) it is stratified on the stop-at-0 split
    (:func:`stratified_estimate`: a run at or above A has N = 0); a later
    change index keeps the runs with N >= k - 1 by rejection."""
    count, m, kept, d_sum, d_sq, trunc = ints
    if change_index in (None, 1):
        return stratified_estimate(count, m, d_sum, d_sq, law.mass_below(A),
                                   truncation_count=int(trunc))
    return mc_estimate(kept, d_sum, d_sq, int(trunc), int(count - kept))


def estimate_e1_and_cross(A: float, law: HeadStartLaw, reps: int, seed: int,
                          workers: int = qrng.DEFAULT_WORKERS
                          ) -> Tuple[McEstimate, McEstimate]:
    """E_1 N and E_1(R_0 N) from one set of replications (common random
    numbers), each stratified on the stop-at-0 split, where both are 0."""
    ints, (x_sum, x_sq) = _sr_sums(_sr_moments, "sr/k=1", A, law, reps, seed, workers,
                                   change_index=1)
    return (_delay_estimate(ints, A, law, 1),
            stratified_estimate(ints[0], ints[1], x_sum, x_sq, law.mass_below(A),
                                truncation_count=int(ints[5])))


def estimate_e1_delay(A: float, law: HeadStartLaw, reps: int, seed: int,
                      workers: int = qrng.DEFAULT_WORKERS) -> McEstimate:
    """E_1 N: expected stopping index when every observation is post-change."""
    return estimate_e1_and_cross(A, law, reps, seed, workers)[0]


def estimate_cross_term(A: float, law: HeadStartLaw, reps: int, seed: int,
                        workers: int = qrng.DEFAULT_WORKERS) -> McEstimate:
    """E_1(R_0 N): cross moment of head start and stopping index under P_1."""
    return estimate_e1_and_cross(A, law, reps, seed, workers)[1]


def estimate_arl_false(A: float, law: HeadStartLaw, reps: int, seed: int,
                       workers: int = qrng.DEFAULT_WORKERS) -> McEstimate:
    """E_inf N: expected stopping index when the change never happens."""
    ints = _sr_sums(_sr_moments, "sr/k=None", A, law, reps, seed, workers,
                    change_index=None)[0]
    return _delay_estimate(ints, A, law, None)


def _profile_rows(A: float, law: HeadStartLaw, k_max: int, reps: int, seed: int,
                  workers: int) -> np.ndarray:
    """The int64 rows of the change indices k = 2..k_max (k_max >= 2) of one
    pre-change pass on the tag ``sr/profile`` (:func:`_profile_moments`),
    summed over the chunks: shape (k_max - 1, 6), row k at index k - 2."""
    (row,) = _sr_sums(_profile_moments, "sr/profile", A, law, reps, seed, workers,
                      k_max=k_max)
    return row.reshape(k_max - 1, 6)


def estimate_conditional_delay(A: float, law: HeadStartLaw, k: int, reps: int, seed: int,
                               workers: int = qrng.DEFAULT_WORKERS) -> McEstimate:
    """E_k(N - k + 1 | N >= k - 1) by rejection of runs stopping too early;
    a truncated run counts only if it is kept.  At k = 1 nothing is
    rejected, and the estimate is :func:`estimate_e1_delay`'s; at k >= 2 it
    is row k of :func:`delay_profile`'s pass, bit for bit, at any
    ``k_max >= k``."""
    k = qrng.check_count(k, "change index", 1)
    if k == 1:
        return estimate_e1_delay(A, law, reps, seed, workers)
    return _delay_estimate(_profile_rows(A, law, k, reps, seed, workers)[-1], A, law, k)


def delay_profile(A: float, law: HeadStartLaw, k_max: int, reps: int, seed: int,
                  workers: int = qrng.DEFAULT_WORKERS) -> DelayProfile:
    """Conditional delays for k = 1..k_max (k_max >= 1); ``undefined`` maps each
    k with fewer than 2 survivors to the number of runs its conditioning rejected.

    k = 1 is :func:`estimate_e1_delay`, on the tag ``sr/k=1``.  Every k >= 2
    comes from one pass of ``reps`` runs on the tag ``sr/profile``
    (:func:`_profile_moments`): the runs step their pre-change chain once,
    and those still below A after step k - 1 branch off it post-change.  So
    the rows k >= 2 share their runs (common random numbers, Asmussen &
    Glynn, Stochastic Simulation, 2007, ch. V), and none shares a draw with
    k = 1, whose standard error :meth:`DelayProfile.deviations` combines
    with theirs as independent.
    """
    k_max = qrng.check_count(k_max, "k_max", 1)
    entries = {1: estimate_e1_delay(A, law, reps, seed, workers)}
    undefined: Dict[int, int] = {}
    rows = _profile_rows(A, law, k_max, reps, seed, workers) if k_max > 1 else ()
    for k, ints in enumerate(rows, 2):
        try:
            entries[k] = _delay_estimate(ints, A, law, k)
        except UndefinedConditionalError as exc:
            undefined[k] = exc.rejected
    return DelayProfile(entries=entries, undefined=undefined)


def martingale_checks(A: float, law: HeadStartLaw, reps: int, seed: int,
                      workers: int) -> list:
    """The two martingale checks, one ``(name, ok, margin, detail)`` tuple each.

    ``martingale-drift``: with no change, E R_n = n from R_0 = 0, within 4
    standard errors at every n <= 20 of 50 000 paths (margin: the largest
    |z|).  ``optional-stopping``: E(R_N - R_0) = E_inf N over ``reps``
    no-change runs from ``law``, within 4 standard errors and with no run
    truncated (margin: |z|); a law with no mass below A stops every run at
    0, where the estimate is exactly 0 with SE 0, and z reads 0.
    """
    rng = qrng.derive_rng(seed, "martingale-drift", 0)
    n_paths, horizon = 50_000, 20
    worst = 0.0
    with qrng.workspace() as ws:
        # no run reaches A = inf, so every path takes every step of the horizon
        for n, r, _ in _stop_times(rng, np.zeros(n_paths), math.inf, math.inf, 1.0,
                                   horizon, ws):
            est = mc_estimate(n_paths, *moment_sums(r))
            worst = max(worst, abs(est.mean - n) / est.stderr)

    # the replications of estimate_arl_false, read as per-chunk sums of D
    count, m, d_sum, d_sq, trunc = _sr_sums(_optional_stopping_chunk, "sr/k=None", A, law,
                                            reps, seed, workers, change_index=None)[0]
    est = stratified_estimate(count, m, d_sum, d_sq, law.mass_below(A))
    truncated = int(trunc)
    if est.stderr == 0.0 and est.mean == 0.0:  # no run below A: every D is 0
        z, detail = 0.0, f"exact: no run starts below A, truncated={truncated}"
    else:
        z = abs(est.mean) / est.stderr if est.stderr else math.inf
        detail = f"|z|={z:.2f} truncated={truncated}"
    return [("martingale-drift", worst <= 4.0, worst, f"max |z| over n<=20: {worst:.2f}"),
            ("optional-stopping", z <= 4.0 and truncated == 0, z, detail)]
