"""Shared pytest wiring: surfaces the acceptance checklist in the summary,
and holds the scalar reference of the recursion kernel with the consumers
that read the kernel's runs for the tests."""

import math

import numpy as np

from qdetect import montecarlo, rng as qrng

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


def record_runs(rng, r0, A, nu, q, max_steps):
    """Every run of ``montecarlo._stop_times`` from the head starts ``r0``, as
    the arrays ``(r0, n_stop, truncated, final)`` sorted by head start.

    A recording consumer: it reads the runs that stop at 0 before it
    iterates, the runs that stop at each step as the kernel yields them, and
    the truncated runs at the last step.  ``r0`` itself is left as it is.
    """
    r0 = np.array(r0, dtype=float)
    nu = np.array(nu) if np.ndim(nu) else nu

    def runs(r0_s, n_stop, truncated, final):
        return r0_s, np.full(r0_s.size, n_stop), np.full(r0_s.size, truncated), final

    at_zero = r0 >= A
    parts = [runs(r0[at_zero], 0, False, r0[at_zero])]
    for step, r, _, _, below, r0_s in montecarlo._stop_times(
            rng, r0.copy(), A, nu, q, max_steps, qrng.Workspace(), (r0,)):
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
