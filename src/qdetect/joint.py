"""The Bayes risk kernel of a p grid whose points step the same runs.

:func:`qdetect.bayes.limit_diagnostic` runs every point of its p grid on
one run sequence (common random numbers): each run steps one chain per
point, all on the run's one uniform a step, and a chunk reduces to each
point's moment row of :func:`qdetect.bayes._bayes_chunk` and to the cross
sums of the points' delay costs Z, from which the limit's standard error
reads the covariance of the point means.  The kernel runs at any number of
points, one included, where :func:`qdetect.bayes._bayes_chunk` is faster.  The kernel is a module of its own because,
compiled as part of :mod:`qdetect.bayes`, it left the interpreter holding
about 0.5 MB more after import: the compiler's peak, which the allocator
kept.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import montecarlo as mc
from . import rng as qrng
from . import exact


def _joint_chunk(rng: np.random.Generator, count: int, configs: Sequence):
    """The rows of :func:`qdetect.bayes._bayes_chunk` of the K points
    ``configs`` (:class:`qdetect.bayes.BayesConfig`, which differ only in
    p) over the chunk's ``count`` shared runs, (K, 5), and their cross sums
    sum Z_j Z_k of the costs over the stepped runs, (K, K).

    The chunk steps exactly the runs that ``_bayes_chunk`` steps, the
    round(count P(R_0 < A)) runs below A
    (:meth:`qdetect.headstart.HeadStartLaw.mass_below`), fixed once for the
    chunk however its draws are batched; the others stop at 0 and add
    nothing.  Each run draws one head start and one uniform U a step, and
    steps one chain per point on them, R_{k,m} = (R_{k,m-1} + 1) U 2/q_k.
    A chain stops for good at its first R_{k,m} >= A, and a run steps while
    any of its chains is below A.  A smaller q grows faster from the same
    values, so a chain at a larger p stops no later than one at a smaller
    p on the same run.  Each chain scores as in
    :func:`qdetect.bayes._bayes_chunk`, through the weight
    W = (1 - pi0) p q^(m-1) of its next step m, which rides with the run:
    step m adds W D_q(R_m) 1{R_m < A} to the chain's cost Z (d_q of
    :func:`qdetect.exact.d_q`) and leaves W q, or 0 once the chain has
    stopped.  A run that has stopped adds its final costs to sum Z and
    their products to the cross sums.  The kernel reads no cost c.

    The runs step in a block of ``CHUNK_SIZE // (2 (K + 1))`` columns, one
    row per point: its rows and the head starts, which land in the first
    row of ``"r0"`` (:meth:`qdetect.headstart.HeadStartLaw.sample_below`,
    which touches no other buffer), span half of each of the workspace's
    chunk-sized buffers, about the part that one point's runs below
    A = 1.5 touch.  Before each step the block takes the chunk's next runs
    below A, as many as it has free columns and the chunk has left, so
    that the chunk's runs step together whenever they were drawn and only
    its last few take its last steps; the runs that stop then leave it in
    one compaction.  A run records the step it joined at, and is truncated
    after ``DEFAULT_MAX_STEPS`` steps of its own.
    """
    k = len(configs)
    A, law = configs[0].A, configs[0].law
    p = np.array([[config.p] for config in configs])
    q = 1.0 - p
    scale = 2.0 / q
    d = np.array([[exact.d_q(A, q_k)] for q_k in q[:, 0]])
    size = qrng.CHUNK_SIZE // (2 * (k + 1))
    max_steps = mc.DEFAULT_MAX_STEPS
    total = round(count * law.mass_below(A))  # as HeadStartLaw.sample draws them
    z_sum, trunc, cross = np.zeros(k), np.zeros(k), np.zeros((k, k))
    n = drawn = step = 0
    with qrng.workspace() as ws:
        r = ws.array("r0", float, (k + 1) * size).reshape(k + 1, size)[1:]
        carry = ws.array("carry", float, (k + 1) * size).reshape(k + 1, size)
        w, joined = carry[:k], carry[k]
        z = ws.array("score", float, k * size).reshape(k, size)
        # the flags hold each chain's below-A mask, or two rows of run flags
        tmp, flags = ws.array("lr", float, k * size), ws.array("mask", bool, max(k, 2) * size)
        while n or drawn < total:
            if drawn < total and n < size:
                m = min(size - n, total - drawn)
                r0 = law.sample_below(rng, m, A, ws)
                drawn += m
                new = slice(n, n + m)
                r[:, new] = r0
                # w = 1 - pi0 = q / (1 + p r0), and Z = pi0 D_q(r0) before a step
                w_new = np.multiply(r0, p, out=w[:, new])
                w_new += 1.0
                np.divide(q, w_new, out=w_new)
                t = np.add(r[:, new], 1.0, out=tmp[:k * m].reshape(k, m))
                t *= t
                np.divide(d, t, out=t)
                t += 1.0
                z_new = np.subtract(1.0, w_new, out=z[:, new])
                z_new *= t
                w_new *= p
                joined[new] = step + 1
                n += m
            step += 1
            r_n, w_n, z_n = r[:, :n], w[:, :n], z[:, :n]
            r_n += 1.0
            r_n *= rng.random(n, out=tmp[:n])
            r_n *= scale
            below = np.less(r_n, A, out=flags[:k * n].reshape(k, n))
            # the step adds W D_q(R_m) 1{R_m < A} to Z; W = 0 marks a chain
            # that has stopped (a running chain's W stays positive: it could
            # underflow only on a path of probability q^m < 1e-300)
            w_n *= below
            t = np.add(r_n, 1.0, out=tmp[:k * n].reshape(k, n))
            t *= t
            np.divide(d, t, out=t)
            t += 1.0
            t *= w_n
            z_n += t
            w_n *= q
            keep = np.logical_or.reduce(w_n, axis=0, out=flags[:n])
            if step >= max_steps:  # the runs that joined max_steps - 1 steps ago end here
                last = np.less_equal(joined[:n], step + 1 - max_steps, out=flags[n:2 * n])
                last &= keep
                trunc += np.count_nonzero(w_n[:, last], axis=1)
                keep &= ~last
            done = np.flatnonzero(np.logical_not(keep, out=flags[n:2 * n]))
            if done.size:
                final = tmp[:k * done.size].reshape(k, done.size)
                for z_j, final_j in zip(z_n, final):  # a 2-D take would copy z_n whole
                    z_j.take(done, out=final_j, mode="clip")
                z_sum += final.sum(axis=1)
                cross += np.einsum("ji,ki->jk", final, final)
                mc._compact(keep, *r_n, *w_n, joined[:n], *z_n, block_size=size)
                n -= done.size
    rows = np.column_stack([np.full(k, count), np.full(k, total), z_sum, cross.diagonal(),
                            trunc])
    return rows, cross
