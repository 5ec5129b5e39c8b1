"""Reproducible random streams for replication-parallel simulation.

Every Monte Carlo estimator in this package partitions its replications into
fixed-size chunks and seeds an independent PCG64DXSM stream for each chunk
from ``SeedSequence((master_seed, purpose_tag, chunk_index))``.  Chunk
boundaries never depend on the number of workers, so results are
bit-identical for any worker count and any scheduling order.

With ``workers > 1`` the chunks run on a thread pool.  Each chunk owns its
generator and its arrays, kernels and head-start laws are immutable, and
numpy releases the GIL in ``Generator.random``, in ufunc loops and in
indexing, where a chunk spends its time; so the threads share nothing, and
no kernel or law needs to be picklable.  They overlap only in part, since a
chunk holds the GIL between those calls, so two threads run a call well
short of twice as fast.  The pool's threads are the package's only
parallelism: nothing calls BLAS
(see :func:`qdetect.montecarlo.moment_sums`), whose own threads would split
a sum by the host's core count, so that its last bits depend on the host,
and would spin after each call on the cores the pool runs on.

Every estimator runs on :data:`DEFAULT_WORKERS` threads, the cores this
process may run on, unless its caller passes ``workers``; ``workers=1``
keeps a caller serial.

A chunk kernel writes its chunk-sized arrays into a :class:`Workspace`, a set
of named buffers that it borrows for the length of one chunk from a small
locked free-list (:func:`workspace`); :func:`run_chunked` still calls it as
``kernel(rng, count)``.  The free-list outlives the pool's threads and keeps
as many workspaces as chunks ever ran at once, up to :data:`FREE_LIST_MAX`,
so a warm chunk allocates nothing chunk-sized.  A workspace holds at most
four 8-byte chunk-sized buffers and two masks (8.5 MiB at
:data:`CHUNK_SIZE`): the head starts (in the SR and Bayes risk kernels only
the ones below the threshold, the only ones drawn), which become the
running statistics where nothing reads them after the first step; the
likelihood ratios; the caller's per-run arrays (in the Bayes risk kernel
1 - pi0 and the running delay cost of each run below the threshold, in the
SR kernels a copy of the head starts, in the profile pass the runs of a
post-change branch, in the identity check the change times); and the
running and post-change masks.  The joint Bayes kernel of
a K-point grid (:func:`qdetect.joint._joint_chunk`) steps a block of a
2 (K + 1)-th of a chunk's runs in the first half of the same buffers, up to
K + 1 rows each: the
head starts it draws and the K chains' statistics; the uniforms and the
chains' cost increments; each chain's step weight and the step each run
joined at; the chains' delay costs; and the chains' running masks and their
comparison with the threshold.  Every kernel of the package returns
one moment row per chunk, so memory is those workspaces plus the rows, not
a multiple of ``reps``.  The kept workspaces stay held after a call
returns, until the process exits.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  only perfbench/tracer.py reads it
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError

#: Replications per derived stream.  Fixed: changing it changes the sample path.
CHUNK_SIZE = 1 << 18


def tag_entropy(tag: str) -> int:
    """Stable 64-bit entropy word for a purpose tag string."""
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an ``int`` if it is a whole number ``>= minimum`` (``2.0``
    reads as ``2``), else :class:`ConfigurationError`: the one count rule."""
    if not (minimum <= value < math.inf) or int(value) != value:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def check_seed(seed: int) -> int:
    """``seed`` as an ``int`` if it is a whole number >= 0: the seed rule of
    every stream :func:`derive_rng` makes."""
    return check_count(seed, "seed", 0)


def check_workers(workers: int) -> int:
    """``workers`` as an ``int`` if it is a whole number >= 1."""
    return check_count(workers, "workers", 1)


def derive_rng(seed: int, tag: str, chunk_index: int) -> np.random.Generator:
    """PCG64DXSM generator for one chunk of one named estimation run.

    ``seed`` is any nonnegative integer; distinct seeds give distinct streams.
    """
    entropy = (check_seed(seed), tag_entropy(tag), int(chunk_index))
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(entropy)))


def chunk_spec(reps: int) -> list[tuple[int, int]]:
    """List of ``(chunk_index, count)`` pairs covering ``reps`` replications."""
    full, rem = divmod(check_count(reps, "reps", 1), CHUNK_SIZE)
    spec = [(i, CHUNK_SIZE) for i in range(full)]
    if rem:
        spec.append((full, rem))
    return spec


class Workspace:
    """Named reusable buffers for one chunk at a time.

    Each name holds one typed buffer, made on first use with room for at
    least :data:`CHUNK_SIZE` entries, so that a chunk's arrays of any length
    fit it, and made again only when a larger size or another dtype is
    asked for.  ``array(name, dtype, size)`` is a view of its first ``size``
    entries; its contents are whatever the last user left.  Callers share a
    name only between arrays whose lifetimes do not overlap, or that alias
    on purpose.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, name: str, dtype, size: int) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(max(size, CHUNK_SIZE), dtype)
        return buf[:size]


#: Threads an estimator runs its chunks on unless told otherwise: one per
#: core this process may run on (its CPU affinity, where the platform has
#: one, else the host's core count).  The bits do not depend on it (see
#: :func:`run_chunked`).
DEFAULT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

#: Workspaces the free-list keeps, one per default worker (at least two):
#: threads beyond the cores run no faster, so a wider pool's extra
#: workspaces are dropped when their chunk ends, and made afresh on its
#: next call.
FREE_LIST_MAX = max(DEFAULT_WORKERS, 2)

_free_workspaces: list = []
_free_lock = threading.Lock()


@contextmanager
def workspace() -> Iterator[Workspace]:
    """Borrow a :class:`Workspace` from the free-list for one chunk.

    The free-list makes a workspace only when every one it holds is lent
    out, and takes one back only while it holds fewer than
    :data:`FREE_LIST_MAX`.  Nothing a kernel returns may be a view of a
    borrowed workspace.
    """
    with _free_lock:
        ws = _free_workspaces.pop() if _free_workspaces else Workspace()
    try:
        yield ws
    finally:
        with _free_lock:
            if len(_free_workspaces) < FREE_LIST_MAX:
                _free_workspaces.append(ws)


def run_chunked(
    kernel: Callable[[np.random.Generator, int], Sequence[np.ndarray]],
    reps: int,
    seed: int,
    tag: str,
    workers: int = DEFAULT_WORKERS,
) -> list[np.ndarray]:
    """Run ``kernel(rng, count)`` over all chunks and concatenate its outputs.

    The kernel returns a tuple of arrays; outputs are concatenated column-wise
    in chunk order, so the result is independent of ``workers``.  A kernel
    that reduces its chunk to one row of moments returns ``(1, m)`` arrays,
    and the result then holds one row per chunk.  With more
    than one worker and chunk, the chunks run on ``min(workers, chunks)``
    threads of one process; a kernel must only not share mutable state
    between its calls.  A seed or worker count that breaks its rule raises
    :class:`ConfigurationError` before any chunk runs.
    """
    seed, workers = check_seed(seed), check_workers(workers)

    def run_chunk(spec):
        chunk_index, count = spec
        return kernel(derive_rng(seed, tag, chunk_index), count)

    specs = chunk_spec(reps)
    if workers == 1 or len(specs) == 1:
        parts = [run_chunk(spec) for spec in specs]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(specs))) as pool:
            parts = list(pool.map(run_chunk, specs))
    return [np.concatenate(cols) for cols in zip(*parts)]
