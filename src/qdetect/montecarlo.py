"""Replication engine for the modified SR procedure under the exponential pair.

Produces the estimates behind the numerical study: the post-change delay
E_1 N, the false-alarm run length E_inf N, the cross moment E_1(R_0 N), and
conditional delays E_k(N - k + 1 | N >= k - 1) for a grid of change times.

All estimators simulate the worked example densities f0 = Exp(1),
f1 = Exp(2) by inverse transform, one lazy observation per step, keeping
only the running statistic.  Replications are chunked onto derived Philox
streams (see :mod:`qdetect.rng`), so a fixed ``(seed, reps, config)`` gives
bit-identical output for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from . import rng as qrng
from .errors import ConfigurationError, UndefinedConditionalError
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
    one per replication.  Each step draws one uniform per running replication,
    in replication order.  Returns ``(n_stop, truncated)``: runs starting at or
    above ``A`` stop at 0, and runs still below ``A`` after ``max_steps``
    steps stop there, truncated.  If given, ``final`` receives ``R_n`` at
    stopping for the runs that started below ``A``.
    """
    n_stop = np.zeros(r0.size, dtype=np.int64)
    truncated = np.zeros(r0.size, dtype=bool)
    per_rep = np.ndim(nu) > 0
    idx = np.nonzero(r0 < A)[0]
    r = r0[idx]
    nu_act = nu[idx] if per_rep else nu
    step = 0
    while idx.size:
        step += 1
        if step > max_steps:
            truncated[idx] = True
            n_stop[idx] = max_steps
            if final is not None:
                final[idx] = r
            break
        x = -np.log(rng.random(idx.size))
        # post-change draws come from Exp(2)
        if per_rep:
            x[step >= nu_act] *= 0.5
        elif step >= nu:
            x *= 0.5
        r = (r + 1.0) * (2.0 * np.exp(-x))
        if q != 1.0:
            r /= q
        done = r >= A
        if done.any():
            keep = ~done
            sel = idx[done]
            n_stop[sel] = step
            if final is not None:
                final[sel] = r[done]
            idx = idx[keep]
            r = r[keep]
            if per_rep:
                nu_act = nu_act[keep]
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


def check_reps(reps: int) -> None:
    """Raise unless ``reps`` is large enough for a standard error (>= 2)."""
    if reps < 2:
        raise ConfigurationError(
            f"reps must be >= 2 for a standard error, got {reps}")


def _validate(A: float, reps: int) -> None:
    if not (0.0 < A < math.inf):
        raise ConfigurationError(f"threshold A must be finite and positive, got {A}")
    check_reps(reps)


def sr_replications(A: float, law: HeadStartLaw, change_index: Optional[int],
                    reps: int, seed: int, workers: int = 1,
                    max_steps: int = DEFAULT_MAX_STEPS, tag: str = "sr"):
    """Raw replication arrays (n_stop, r0, final_stat, truncated).

    ``change_index`` is a positive integer, or ``None`` for no change.  The
    stream tag encodes the scenario but deliberately not the threshold,
    so runs at different ``A`` with the same seed share head starts and can
    be compared under common random numbers at the estimator level.
    """
    _validate(A, reps)
    if change_index is not None:
        if not (1 <= change_index < math.inf) or int(change_index) != change_index:
            raise ConfigurationError(
                f"change index must be a positive integer, got {change_index}")
        change_index = int(change_index)  # the tag spells it: 2.0 and 2 share a stream
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
    keep = n_stop >= k - 1
    kept = n_stop[keep]
    return _estimate(kept - k + 1, int(trunc[keep].sum()), int(reps - kept.size))


def delay_profile(A: float, law: HeadStartLaw, k_max: int, reps: int, seed: int,
                  workers: int = 1) -> DelayProfile:
    """Conditional delays for k = 1..k_max; ``undefined`` maps each k with fewer
    than 2 survivors to the number of runs its conditioning rejected."""
    entries: Dict[int, McEstimate] = {}
    undefined: Dict[int, int] = {}
    for k in range(1, k_max + 1):
        try:
            entries[k] = estimate_conditional_delay(A, law, k, reps, seed, workers)
        except UndefinedConditionalError as exc:
            undefined[k] = exc.rejected
    return DelayProfile(entries=entries, undefined=undefined)
