"""Shared pytest wiring: surfaces the acceptance checklist in the summary,
and holds the scalar references of the recursion kernel and of the Bayes
risk rows with the consumers that read the kernel's runs for the tests.

The Bayes risk has two references.  ``reference_bayes_scores`` here
scores each pre-change path by the simulated part of its exact
conditional 1 - risk = Y0 - c Z, the delay cost Z, one run at a time, as
``bayes._bayes_chunk`` does in bulk (the mean of the probability of no
miss Y0 is exact).  The identity check's
row, ``bayes._identity_chunk``, reduces the runs of
``bayes._brute_force_runs``, in which every run draws its change time and
steps through it, so it checks the exact score without reading any exact
formula; ``assert_risk_row`` checks that row against the scalar runs of
``reference_bayes_runs``."""

import math

import numpy as np

from qdetect import couple_pi0, montecarlo, rng as qrng

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
    pi0 = couple_pi0(p, np.asarray(r0, dtype=float))
    return np.array([1 if a < pi else 2 + math.floor(math.log1p(-b) / math.log1p(-p))
                     for pi, a, b in zip(pi0.tolist(), u1, u2)], dtype=np.int64)


def reference_post_change_d(A, q):
    """d_q = (q^2 A^2/4)/(1 - q^2 I/2), I = log(1 + A) + 1/(1 + A) - 1: from
    r < A < 2 the q-scaled post-change chain stops after D_q(r) = 1 + d_q/(1 + r)^2
    steps on average.  Restated here, apart from ``exact.d_q``."""
    i_term = math.log1p(A) + 1.0 / (1.0 + A) - 1.0
    return (q * q * A * A / 4.0) / (1.0 - q * q * i_term / 2.0)


def reference_bayes_runs(rng, law, count, A, p, max_steps):
    """``(r0, nu, n_stop, truncated, final)`` of ``count`` brute-force Bayes
    runs from ``law``, in replication order and in the draw order of
    ``bayes._brute_force_runs``: every head start (``law.sample`` at
    ``math.inf``), then every change time; the runs at or above A stop at 0."""
    r0 = law.sample(rng, count, math.inf, qrng.Workspace()).copy()
    nu = reference_change_times(rng, r0, p)
    return (r0, nu, *reference_stop_times(rng, r0, A, nu, 1.0 - p, max_steps))


def _reference_cost(p, A, path, n):
    """The cost Z of one pre-change path ``R_0 .. R_n``, theta = nu - 1 with
    P(theta = 0) = pi0 and P(theta = m) = (1 - pi0) p q^(m-1):
    ``sum_{m<=n} P(theta = m) D_q(R_m) 1{R_m < A}``, with
    D_q(r) = 1 + d_q/(1 + r)^2 (:func:`reference_post_change_d`)."""
    q = 1.0 - p
    d = reference_post_change_d(A, q)
    pi0 = float(couple_pi0(p, path[0]))
    prior = [pi0] + [(1.0 - pi0) * p * q ** (m - 1) for m in range(1, n + 1)]
    return math.fsum(w * (1.0 + d / (1.0 + r) ** 2) * (r < A) for w, r in zip(prior, path))


def reference_bayes_scores(rng, law, count, A, p, max_steps):
    """The pre-change Bayes runs of ``count`` head starts from ``law`` in the
    draw order of ``bayes._bayes_chunk``, each scored by the cost Z of its
    exact conditional 1 - risk = Y0 - c Z: ``(stepped, n_stop, truncated,
    final, cost)``.  Only the head starts below ``A`` are drawn
    (``law.sample`` at ``A``), and they step with no change.  With
    theta = nu - 1 a run's cost is
    ``Z = sum_{m=0}^{N} P(theta = m) D_q(R_m) 1{R_m < A}``
    (:func:`_reference_cost`).
    """
    stepped = law.sample(rng, count, A, qrng.Workspace()).copy()
    paths = []
    n_stop, truncated, final = reference_stop_times(rng, stepped, A, math.inf, 1.0 - p,
                                                    max_steps, paths)
    cost = np.array([_reference_cost(p, A, path, n) for path, n in zip(paths, n_stop)])
    return stepped, n_stop, truncated, final, cost


def reference_joint_scores(rng, law, stepped, A, ps, max_steps):
    """The ``stepped`` runs below ``A`` of a chunk from ``law`` in the draw
    order of ``joint._joint_chunk``, one chain per p of ``ps`` on each run's
    one uniform a step, each chain scored as in
    :func:`reference_bayes_scores`: ``(n_stop, truncated, cost)``, each
    (K, stepped) in draw order.

    Before each step the block of ``CHUNK_SIZE // (2 (K + 1))`` runs takes the
    chunk's next runs, as many as it has free places and the chunk has left
    (``law.sample_below`` at A); then each of its runs, oldest first, draws
    one uniform ``u`` and steps ``R = ((R + 1) u) (2 / q)`` in each chain
    still below ``A``.  A chain stops for good at its first ``R >= A``, a
    run leaves the block once all its chains have stopped, and after
    ``max_steps`` steps of its own it leaves with the chains still below
    ``A`` truncated.  Nothing here assumes that the chains stop in any
    order."""
    k, size = len(ps), qrng.CHUNK_SIZE // (2 * (len(ps) + 1))
    runs, block, drawn = [], [], 0
    while block or drawn < stepped:
        if drawn < stepped and len(block) < size:
            take = min(size - len(block), stepped - drawn)
            for r0 in law.sample_below(rng, take, A, qrng.Workspace()).tolist():
                run = {"paths": [[r0] for _ in ps], "n_stop": [0] * k, "trunc": [False] * k,
                       "age": 0}
                runs.append(run)
                block.append(run)
            drawn += take
        for run, u in zip(block, rng.random(len(block)).tolist()):
            run["age"] += 1
            for j, (p, path) in enumerate(zip(ps, run["paths"])):
                if path[-1] < A:
                    path.append((path[-1] + 1.0) * u * (2.0 / (1.0 - p)))
                    run["n_stop"][j] = run["age"]
                    run["trunc"][j] = path[-1] < A and run["age"] == max_steps
        block = [run for run in block if run["age"] < max_steps
                 and any(path[-1] < A for path in run["paths"])]
    cost = np.zeros((k, len(runs)))
    for j, p in enumerate(ps):
        for i, run in enumerate(runs):
            cost[j, i] = _reference_cost(p, A, run["paths"][j], run["n_stop"][j])
    n_stop = np.array([run["n_stop"] for run in runs], dtype=np.int64).T.reshape(k, -1)
    truncated = np.array([run["trunc"] for run in runs], dtype=bool).T.reshape(k, -1)
    return n_stop, truncated, cost


def assert_score_row(row, count, cost, truncated):
    """The Bayes row ``(count, m, sum Z, sum Z^2, truncated)`` of a chunk of
    ``count`` runs against the costs Z of the ``m`` runs below A of
    :func:`reference_bayes_scores`; the runs that stop at 0 add nothing.
    The counts and truncations must match exactly, the sums to 1e-12
    relative."""
    ((n, m, z_sum, z_sq, trunc),) = row.tolist()
    assert (n, m, trunc) == (count, cost.size, truncated.sum())
    np.testing.assert_allclose([z_sum, z_sq], [math.fsum(cost), math.fsum(cost * cost)],
                               rtol=1e-12, atol=0.0)


def assert_risk_row(row, nu, n_stop, truncated):
    """The brute-force row of ``bayes._identity_chunk`` equals the row of
    the runs of :func:`reference_bayes_runs`, entry for entry."""
    late = n_stop - nu + 1
    dp = np.maximum(late, 0)
    assert row.tolist() == [[nu.size, np.count_nonzero(late < 0), dp.sum(), dp @ dp,
                             truncated.sum()]]


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
