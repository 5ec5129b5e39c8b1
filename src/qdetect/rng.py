"""Reproducible random streams for replication-parallel simulation.

Every Monte Carlo estimator in this package partitions its replications into
fixed-size chunks and seeds an independent PCG64DXSM stream for each chunk
from ``SeedSequence((master_seed, purpose_tag, chunk_index))``.  Chunk
boundaries never depend on the number of workers, so results are
bit-identical for any worker count and any scheduling order.

With ``workers > 1`` the chunks run on a thread pool.  Each chunk owns its
generator and its arrays, kernels and head-start laws are immutable, and
numpy releases the GIL in ``Generator.random``, in ufunc loops and in
indexing, where a chunk spends its time; so the threads share nothing and
really run in parallel, and no kernel or law needs to be picklable.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  only perfbench/tracer.py reads it
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

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
    """``seed`` as an ``int`` if it is a whole number >= 0: the seed rule of the
    chunk streams and of the checks that seed their own ``SeedSequence``."""
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


def run_chunked(
    kernel: Callable[[np.random.Generator, int], Sequence[np.ndarray]],
    reps: int,
    seed: int,
    tag: str,
    workers: int = 1,
) -> list[np.ndarray]:
    """Run ``kernel(rng, count)`` over all chunks and concatenate its outputs.

    The kernel returns a tuple of arrays; outputs are concatenated column-wise
    in chunk order, so the result is independent of ``workers``.  With more
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
