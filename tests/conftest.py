"""Shared pytest wiring: surfaces the acceptance checklist in the summary,
and holds the scalar references of the recursion kernel and of the Bayes
risk row with the consumers that read the kernel's runs for the tests."""

import math

import numpy as np

from qdetect import bayes, couple_pi0, montecarlo, rng as qrng

acceptance_report = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report:
            terminalreporter.write_line(line)


def reference_stop_times(rng, r0, A, nu, q, max_steps):
    """The scalar reference of ``montecarlo._stop_times``: (n_stop, truncated,
    final) arrays in replication order; ``nu`` is a scalar or per rep.

    It runs the recursion one replication at a time with ``math`` arithmetic
    and draws the uniforms as the kernel does, one per running replication
    per step and in replication order, so fed from the same generator it
    must reproduce the kernel path by path.  It keeps the textbook update
    ``lr = 2 exp(-x)`` with ``x = -log u`` (halved after the change), so it
    checks the kernel's direct draw of ``2u`` and ``2 sqrt(u)`` independently.
    """
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
    """The Bayes runs of ``count`` head starts from ``law`` in the draw order of
    ``bayes._bayes_chunk``: ``(stepped, nu, n_stop, truncated, final)``.

    Only the head starts below ``A`` are drawn (``law.sample`` at ``A``, in
    replication order); they draw change times and step, and ``nu`` and
    the reference's stopping indices are theirs.  The other runs of
    ``count`` stop at 0 with no draw.
    """
    stepped = law.sample(rng, count, A, qrng.Workspace()).copy()
    nu = reference_change_times(rng, stepped, p)
    return (stepped, nu, *reference_stop_times(rng, stepped, A, nu, 1.0 - p, max_steps))


def assert_risk_row(row, count, nu, n_stop, truncated, config):
    """The Bayes risk row ``(n, sum risk, sum risk^2, sum miss, truncated)``
    of a chunk of ``count`` runs against the stepped runs of
    :func:`reference_bayes_runs`.

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
    for step, r, _, _, below, r0_s in montecarlo._stop_times(
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
