"""Shared pytest wiring: surfaces the acceptance checklist in the summary,
and holds the scalar references of the recursion kernel and of the Bayes
risk rows with the consumers that read the kernel's runs for the tests.

The Bayes risk has two references here.  ``reference_bayes_scores`` scores
each pre-change path by its exact conditional 1 - risk, one run at a time,
as ``bayes._bayes_chunk`` does in bulk.  ``reference_bayes_chunk`` is the
brute-force estimator the package used before: each run below A draws its
change time and steps through it, so it checks the exact score with no
use of the post-change delay ``D_q``."""

import math

import numpy as np

from qdetect import bayes, couple_pi0, montecarlo, rng as qrng
from qdetect.bayes import _change_times

acceptance_report = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report:
            terminalreporter.write_line(line)


def reference_stop_times(rng, r0, A, nu, q, max_steps, paths=None):
    """The scalar reference of ``montecarlo._stop_times``: (n_stop, truncated,
    final) arrays in replication order; ``nu`` is a scalar or per rep.  A
    list ``paths`` gets each run's R_0, R_1, ... as a list of its own.

    It runs the recursion one replication at a time with ``math`` arithmetic
    and draws the uniforms as the kernel does, one per running replication
    per step and in replication order, so fed from the same generator it
    must reproduce the kernel path by path.  It keeps the textbook update
    ``lr = 2 exp(-x)`` with ``x = -log u`` (halved after the change), so it
    checks the kernel's direct draw of ``2u`` and ``2 sqrt(u)`` independently.
    """
    nus = list(nu) if np.ndim(nu) else [nu] * len(r0)
    r = [float(v) for v in r0]
    path = [[v] for v in r]
    if paths is not None:
        paths.extend(path)
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
            path[i].append(r[i])
            if r[i] >= A:
                n_stop[i] = step
            else:
                running.append(i)
        active = running
    return np.array(n_stop), np.array(truncated), np.array(r)


def reference_change_times(rng, r0, p):
    """The change times of the head starts ``r0`` in their textbook form,
    ``nu = 1`` if ``u1 < pi0(r0)`` and else ``2 + floor(log(1 - u2) / log(1 - p))``,
    drawn as the Bayes kernels draw them: one ``u1`` per head start, then one
    ``u2`` per head start, in order."""
    u1, u2 = rng.random(len(r0)), rng.random(len(r0))
    return np.array([1 if a < couple_pi0(p, float(r)) else
                     2 + math.floor(math.log1p(-b) / math.log1p(-p))
                     for r, a, b in zip(r0, u1, u2)], dtype=np.int64)


def reference_bayes_runs(rng, law, count, A, p, max_steps):
    """The brute-force Bayes runs of ``count`` head starts from ``law`` in the
    draw order of :func:`reference_bayes_chunk`:
    ``(stepped, nu, n_stop, truncated, final)``.

    Only the head starts below ``A`` are drawn (``law.sample`` at ``A``, in
    replication order); they draw change times and step, and ``nu`` and
    the reference's stopping indices are theirs.  The other runs of
    ``count`` stop at 0 with no draw.
    """
    stepped = law.sample(rng, count, A, qrng.Workspace()).copy()
    nu = reference_change_times(rng, stepped, p)
    return (stepped, nu, *reference_stop_times(rng, stepped, A, nu, 1.0 - p, max_steps))


def reference_bayes_chunk(rng: np.random.Generator, count: int, config, h: float):
    """The brute-force Bayes risk row (n, sum risk, sum risk^2, sum miss,
    truncated) of a chunk, in the draw order of :func:`reference_bayes_runs`.

    Only the runs whose head start is below A are drawn; they draw their
    change times (``bayes._change_times``) in replication order and step
    through the change.  Each of the other ``count - n`` runs stops at
    N = 0 and scores its conditional risk given that, ``h``
    (``bayes._stop_at_zero_risk``).  A stepped run either misses
    (N < nu - 1) or pays the delay dp = N - nu + 1 > 0, never both, so
    risk = miss + c dp and risk^2 = miss + c^2 dp^2, with exact integer
    counts and delay sums.  They add up as the runs step: a run does not
    miss if nu = 1 or if it takes step nu - 1, and its dp and
    dp^2 = sum (2s + 1 - 2 nu) count the post-change steps s it takes.
    """
    p, A, c = config.p, config.A, config.c
    dp_sum = dp_sq = trunc = 0
    with qrng.workspace() as ws:
        r0 = config.law.sample(rng, count, A, ws)
        n = r0.size
        nu = _change_times(rng, r0, p=p, ws=ws)
        hits = np.count_nonzero(np.equal(nu, 1, out=ws.array("mask", bool, n)))
        for step, r, below in montecarlo._stop_times(
                rng, r0, A, nu, 1.0 - p, montecarlo.DEFAULT_MAX_STEPS, ws):
            nu_s = nu[:r.size]  # the kernel compacts nu with the runs
            post = nu_s <= step
            late = np.count_nonzero(post)
            dp_sum += late
            dp_sq += (2 * step + 1) * late - 2 * int(np.sum(nu_s, where=post))
            hits += np.count_nonzero(np.equal(nu_s, step + 1, out=post))
            if step == montecarlo.DEFAULT_MAX_STEPS:
                trunc = np.count_nonzero(below)
    # miss, dp_sum and dp_sq are exact Python ints, and exact floats below 2**53
    miss, at_zero = n - hits, count - n
    return (np.array([[count, miss + at_zero * h + c * dp_sum,
                       miss + at_zero * h * h + c * c * dp_sq, miss + at_zero * h, trunc]],
                     dtype=float),)


def reference_bayes_scores(rng, law, count, A, p, c, max_steps):
    """The pre-change Bayes runs of ``count`` head starts from ``law`` in the
    draw order of ``bayes._bayes_chunk``, each scored by its exact
    conditional 1 - risk: ``(stepped, n_stop, truncated, final, score,
    no_miss)``.

    Only the head starts below ``A`` are drawn (``law.sample`` at ``A``),
    and they step with no change.  With theta = nu - 1 a run scores
    ``sum_{m=0}^{N} P(theta = m) (1 - c D(R_m) 1{R_m < A})`` and, at c = 0,
    ``pi0 + (1 - pi0)(1 - q^N)``; here P(theta = 0) = pi0,
    P(theta = m) = (1 - pi0) p q^(m-1), and D(r) = 1 + d/(1 + r)^2 is the
    expected post-change delay from r < A, d = (q^2 A^2/4)/(1 - q^2 I/2)
    with I = log(1 + A) + 1/(1 + A) - 1, restated here term by term.
    """
    q = 1.0 - p
    i_term = math.log(1.0 + A) + 1.0 / (1.0 + A) - 1.0
    d = (q * q * A * A / 4.0) / (1.0 - q * q * i_term / 2.0)
    stepped = law.sample(rng, count, A, qrng.Workspace()).copy()
    paths = []
    n_stop, truncated, final = reference_stop_times(rng, stepped, A, math.inf, q, max_steps,
                                                    paths)
    score, no_miss = [], []
    for r0, path, n in zip(stepped, paths, n_stop):
        pi0 = float(couple_pi0(p, float(r0)))
        prior = [pi0] + [(1.0 - pi0) * p * q ** (m - 1) for m in range(1, n + 1)]
        score.append(math.fsum(
            w * (1.0 - c * (1.0 + d / (1.0 + r) ** 2) * (r < A))
            for w, r in zip(prior, path)))
        no_miss.append(pi0 + (1.0 - pi0) * (1.0 - q ** n))
    return stepped, n_stop, truncated, final, np.array(score), np.array(no_miss)


def assert_score_row(row, count, score, no_miss, truncated, h):
    """The Bayes score row ``(n, sum Y, sum Y^2, sum Y at c = 0, truncated)`` of
    a chunk of ``count`` runs against the runs of
    :func:`reference_bayes_scores`; the ``count - n`` runs that stop at 0
    add ``1 - h`` each to the score sums and ``(1 - h)^2`` to the square
    sum.  The count and truncations must match exactly, the sums to 1e-12
    relative."""
    at_zero = count - score.size
    ((n, y_sum, y_sq, cond_sum, trunc),) = row.tolist()
    assert (n, trunc) == (count, truncated.sum())
    np.testing.assert_allclose(
        [y_sum, y_sq, cond_sum],
        [math.fsum(score) + at_zero * (1.0 - h), math.fsum(score * score)
         + at_zero * (1.0 - h) ** 2, math.fsum(no_miss) + at_zero * (1.0 - h)],
        rtol=1e-12, atol=0.0)


def assert_risk_row(row, count, nu, n_stop, truncated, config):
    """The brute-force Bayes risk row ``(n, sum risk, sum risk^2, sum miss,
    truncated)`` of :func:`reference_bayes_chunk` on a chunk of ``count``
    runs against the stepped runs of :func:`reference_bayes_runs`.

    A stepped run adds its miss and ``c`` times its delay; the ``count - n``
    runs that stop at 0 add ``(count - n) h`` to the risk and miss sums and
    ``(count - n) h^2`` to the risk^2 sum, with ``h`` the mean of
    ``1 - pi0`` over the head starts at or above ``A``
    (``bayes._stop_at_zero_risk``).  The count and truncations must match
    exactly, the sums to 1e-12 relative: on sums below 1e5 that is far
    below the 0.01 that one miss or one unit of delay moves them by at
    c = 0.1, so the misses and delay sums of the stepped runs are pinned
    exactly too.
    """
    late = n_stop - nu + 1
    miss, dp = np.count_nonzero(late < 0), np.maximum(late, 0)
    h, c = bayes._stop_at_zero_risk(config), config.c
    at_zero = count - nu.size
    ((n, risk, risk_sq, miss_sum, trunc),) = row.tolist()
    assert (n, trunc) == (count, truncated.sum())
    np.testing.assert_allclose(
        [risk, risk_sq, miss_sum],
        [miss + at_zero * h + c * int(dp.sum()), miss + at_zero * h * h + c * c * int(dp @ dp),
         miss + at_zero * h],
        rtol=1e-12, atol=0.0)


def record_runs(rng, r0, A, nu, q, max_steps):
    """Every run of ``montecarlo._stop_times`` from the head starts ``r0``, all
    below ``A``, as the arrays ``(r0, n_stop, truncated, final)`` sorted by
    head start.

    A recording consumer: it reads the runs that stop at each step as the
    kernel yields them, and the truncated runs at the last step.  ``r0``
    and a per-run ``nu``, which the kernel compacts, are left as they are.
    """
    r0 = np.array(r0, dtype=float)
    assert (r0 < A).all()  # the kernel takes only the runs below A
    nu = np.array(nu) if np.ndim(nu) else nu

    def runs(r0_s, n_stop, truncated, final):
        return r0_s, np.full(r0_s.size, n_stop), np.full(r0_s.size, truncated), final

    parts = []
    for step, r, below, r0_s in montecarlo._stop_times(
            rng, r0.copy(), A, nu, q, max_steps, qrng.Workspace(), (r0.copy(),)):
        parts.append(runs(r0_s[~below], step, False, r[~below]))
        if step == max_steps:
            parts.append(runs(r0_s[below], step, True, r[below]))
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")
    return tuple(col[order] for col in cols)


def kernel_paths(r0, n_paths, q, steps, seed):
    """R_1..R_steps (one row per step) of ``n_paths`` kernel runs from ``r0``
    with every observation pre-change.  A = inf stops no run, so every run
    takes all the steps, and one seed gives every q the same observations."""
    rng = np.random.default_rng(seed)
    return np.array([r.copy() for _, r, *_ in montecarlo._stop_times(
        rng, np.full(n_paths, r0, dtype=float), math.inf, math.inf, q, steps,
        qrng.Workspace())])
