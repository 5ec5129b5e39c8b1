"""Replication engine for the modified SR procedure under the exponential pair.

Produces the estimates behind the numerical study: the post-change delay
E_1 N, the false-alarm run length E_inf N, the cross moment E_1(R_0 N), and
conditional delays E_k(N - k + 1 | N >= k - 1) for a grid of change times.

All estimators simulate the worked example densities f0 = Exp(1),
f1 = Exp(2), keeping only the running statistic.  An observation enters
only through its likelihood ratio, which each step draws directly from one
uniform U: lr = 2U before the change and 2 sqrt(U) after it, the values
2 exp(-X) takes when X = -log U (Exp(1)) or X = -log(U)/2 (Exp(2)).
Replications are chunked onto per-chunk PCG64DXSM streams (see
:mod:`qdetect.rng`), so a fixed ``(seed, reps, config)`` gives bit-identical
output for any worker count.

Stops are recorded by index scatter: each step writes its number to every
running replication, and the runs still below the threshold are kept by
integer index.  The kernel and the reductions select no replication-sized
array by a boolean mask, because the mask of the runs that stop at a step is
close to random, and numpy's masked selection on such a mask costs several
times an index scatter or ``flatnonzero`` plus ``take``.
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


def mc_estimate(n, total, total_sq, truncation_count: int = 0,
                rejected: int = 0) -> McEstimate:
    """Mean and standard error of ``n`` values from their sum and sum of
    squares; fewer than 2 values have no SE."""
    if n < 2:
        raise UndefinedConditionalError(
            f"{n} replication(s) survived conditioning; a standard error needs 2",
            rejected=rejected)
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1.0)
    return McEstimate(mean=float(mean), stderr=math.sqrt(var / n), reps=int(n),
                      truncation_count=truncation_count, rejected=rejected)


def _estimate(values: np.ndarray, truncation_count: int, rejected: int = 0) -> McEstimate:
    return mc_estimate(values.size, values.sum(), values @ values,
                       truncation_count, rejected)


def _stop_times(rng: np.random.Generator, r0: np.ndarray, A: float, nu, q: float,
                max_steps: int, final: Optional[np.ndarray] = None):
    """Run ``R_n = (R_{n-1} + 1) lr(X_n) / q`` from ``R_0 = r0`` until ``R_n >= A``.

    Observation ``n`` is post-change when ``n >= nu``; ``nu`` is either one
    change index for every replication (``math.inf``: never) or an array with
    one per replication.  Each step draws one uniform ``U`` per running
    replication, in replication order, takes ``lr = 2U`` before the change
    and ``2 sqrt(U)`` after it, and updates the running statistics in place.
    Returns ``(n_stop, truncated)``: runs starting at or above ``A`` stop at
    0, and runs still below ``A`` after ``max_steps`` steps stop there,
    truncated.  If given, ``final`` receives ``R_n`` at stopping for the runs
    that took a step; it is left as it is for the others.

    Every step scatters the step number, and ``R_n`` into ``final``, to all
    running replications by index, so the last write a run gets is its
    stopping step and statistic; the runs still below ``A`` stay by the
    integer index ``flatnonzero(R_n < A)``.  No array is selected by the
    near-random boolean mask of the runs that stopped (see the module
    docstring for why).
    """
    n_stop = np.zeros(r0.size, dtype=np.int64)
    truncated = np.zeros(r0.size, dtype=bool)
    per_rep = np.ndim(nu) > 0
    idx = np.flatnonzero(r0 < A)
    r = r0.take(idx)
    nu_act = nu.take(idx) if per_rep else nu
    step = 0
    while idx.size:
        step += 1
        if step > max_steps:  # n_stop and final already hold step max_steps
            truncated[idx] = True
            break
        lr = rng.random(idx.size)
        if per_rep:
            np.sqrt(lr, out=lr, where=step >= nu_act)
        elif step >= nu:
            np.sqrt(lr, out=lr)
        lr *= 2.0
        r += 1.0
        r *= lr
        if q != 1.0:
            r /= q
        n_stop[idx] = step
        if final is not None:
            final[idx] = r
        keep = np.flatnonzero(r < A)
        if keep.size < idx.size:
            idx = idx.take(keep)
            r = r.take(keep)
            if per_rep:
                nu_act = nu_act.take(keep)
    return n_stop, truncated


def _sr_chunk(rng: np.random.Generator, count: int, *, A: float, law: HeadStartLaw,
              change_index: Optional[int], max_steps: int):
    """Simulate ``count`` SR runs; returns (n_stop, r0, final_stat, truncated).

    ``change_index`` is the 1-based observation index of the change; ``None``
    means the change never happens (all draws pre-change).
    """
    r0 = np.asarray(law.sample(rng, count), dtype=float)
    final = r0.copy()
    nu = math.inf if change_index is None else change_index
    n_stop, truncated = _stop_times(rng, r0, A, nu, 1.0, max_steps, final)
    return n_stop, r0, final, truncated


def check_reps(reps: int) -> int:
    """``reps`` as an ``int`` if it is a whole number >= 2, for a standard error."""
    return qrng.check_count(reps, "reps", 2)


def check_threshold(A: float) -> None:
    """Raise unless the threshold satisfies ``0 < A < inf``."""
    if not (0.0 < A < math.inf):
        raise ConfigurationError(f"threshold A must be finite and positive, got {A}")


def sr_replications(A: float, law: HeadStartLaw, change_index: Optional[int],
                    reps: int, seed: int, workers: int = 1,
                    max_steps: int = DEFAULT_MAX_STEPS, tag: str = "sr"):
    """Raw replication arrays (n_stop, r0, final_stat, truncated).

    ``change_index`` is a positive integer, or ``None`` for no change.  The
    stream tag encodes the scenario but deliberately not the threshold,
    so runs at different ``A`` with the same seed share head starts and can
    be compared under common random numbers at the estimator level.
    """
    check_threshold(A)
    reps = check_reps(reps)
    if change_index is not None:  # the tag spells the int: 2.0 and 2 share a stream
        change_index = qrng.check_count(change_index, "change index", 1)
    kernel = partial(_sr_chunk, A=A, law=law, change_index=change_index,
                     max_steps=max_steps)
    full_tag = f"{tag}/k={change_index}"
    return qrng.run_chunked(kernel, reps, seed, full_tag, workers=workers)


def estimate_e1_and_cross(A: float, law: HeadStartLaw, reps: int, seed: int,
                          workers: int = 1) -> Tuple[McEstimate, McEstimate]:
    """E_1 N and E_1(R_0 N) from one set of replications (common random numbers)."""
    n_stop, r0, _, trunc = sr_replications(A, law, 1, reps, seed, workers)
    truncated = int(trunc.sum())
    return _estimate(n_stop, truncated), _estimate(r0 * n_stop, truncated)


def estimate_e1_delay(A: float, law: HeadStartLaw, reps: int, seed: int,
                      workers: int = 1) -> McEstimate:
    """E_1 N: expected stopping index when every observation is post-change."""
    return estimate_e1_and_cross(A, law, reps, seed, workers)[0]


def estimate_cross_term(A: float, law: HeadStartLaw, reps: int, seed: int,
                        workers: int = 1) -> McEstimate:
    """E_1(R_0 N): cross moment of head start and stopping index under P_1."""
    return estimate_e1_and_cross(A, law, reps, seed, workers)[1]


def estimate_arl_false(A: float, law: HeadStartLaw, reps: int, seed: int,
                       workers: int = 1) -> McEstimate:
    """E_inf N: expected stopping index when the change never happens."""
    n_stop, _, _, trunc = sr_replications(A, law, None, reps, seed, workers)
    return _estimate(n_stop, int(trunc.sum()))


def estimate_conditional_delay(A: float, law: HeadStartLaw, k: int, reps: int,
                               seed: int, workers: int = 1) -> McEstimate:
    """E_k(N - k + 1 | N >= k - 1) by rejection of runs stopping too early."""
    n_stop, _, _, trunc = sr_replications(A, law, k, reps, seed, workers)
    keep = np.flatnonzero(n_stop >= k - 1)
    kept = n_stop.take(keep)
    return _estimate(kept - (k - 1), int(trunc.take(keep).sum()),
                     n_stop.size - kept.size)


def delay_profile(A: float, law: HeadStartLaw, k_max: int, reps: int, seed: int,
                  workers: int = 1) -> DelayProfile:
    """Conditional delays for k = 1..k_max (k_max >= 1); ``undefined`` maps each
    k with fewer than 2 survivors to the number of runs its conditioning rejected."""
    entries: Dict[int, McEstimate] = {}
    undefined: Dict[int, int] = {}
    for k in range(1, qrng.check_count(k_max, "k_max", 1) + 1):
        try:
            entries[k] = estimate_conditional_delay(A, law, k, reps, seed, workers)
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
    truncated (margin: |z|).
    """
    rng = qrng.derive_rng(seed, "martingale-drift", 0)
    n_paths, horizon = 50_000, 20
    r = np.zeros(n_paths)
    worst = 0.0
    for n in range(1, horizon + 1):
        # one kernel step in place: no run reaches A = inf, max_steps = 1 ends it
        _stop_times(rng, r, math.inf, math.inf, 1.0, 1, r)
        est = mc_estimate(n_paths, r.sum(), r @ r)
        worst = max(worst, abs(est.mean - n) / est.stderr)

    n_stop, r0, final, trunc = sr_replications(A, law, None, reps, seed, workers)
    diff = (final - r0) - n_stop
    est = mc_estimate(diff.size, diff.sum(), diff @ diff)
    z = abs(est.mean) / est.stderr
    truncated = int(trunc.sum())
    return [("martingale-drift", worst <= 4.0, worst, f"max |z| over n<=20: {worst:.2f}"),
            ("optional-stopping", z <= 4.0 and truncated == 0, z,
             f"|z|={z:.2f} truncated={truncated}")]
