"""Shared pytest wiring: surfaces the acceptance checklist in the summary,
and steps the recursion kernel for the tests of its pre-change dynamics."""

import math

import numpy as np

from qdetect import montecarlo, rng as qrng

acceptance_report = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report:
            terminalreporter.write_line(line)


def kernel_paths(r0, n_paths, q, steps, seed):
    """R_1..R_steps (one row per step) of ``n_paths`` kernel runs from ``r0``
    with every observation pre-change.  A = inf stops no run, so each call
    with max_steps = 1 is one step, and one seed gives every q the same
    observations."""
    rng = np.random.default_rng(seed)
    r = np.full(n_paths, r0, dtype=float)
    path = []
    ws = qrng.Workspace()
    for _ in range(steps):
        montecarlo._stop_times(rng, r, math.inf, math.inf, q, 1, r, ws)
        path.append(r.copy())
    return np.array(path)
