"""Reproducible random streams for replication-parallel simulation.

Every Monte Carlo estimator in this package partitions its replications into
fixed-size chunks and seeds an independent PCG64DXSM stream for each chunk
from ``SeedSequence((master_seed, purpose_tag, chunk_index))``.  Chunk
boundaries never depend on the number of workers, so results are
bit-identical for any worker count and any scheduling order.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError

#: Replications per derived stream.  Fixed: changing it changes the sample path.
CHUNK_SIZE = 1 << 18


def tag_entropy(tag: str) -> int:
    """Stable 64-bit entropy word for a purpose tag string."""
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def check_seed(seed: int) -> None:
    """Raise unless ``seed`` is nonnegative: the one seed rule of the chunk
    streams and of the checks that seed their own ``SeedSequence``."""
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")


def derive_rng(seed: int, tag: str, chunk_index: int) -> np.random.Generator:
    """PCG64DXSM generator for one chunk of one named estimation run.

    ``seed`` is any nonnegative integer; distinct seeds give distinct streams.
    """
    check_seed(seed)
    entropy = (int(seed), tag_entropy(tag), int(chunk_index))
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(entropy)))


def chunk_spec(reps: int) -> list[tuple[int, int]]:
    """List of ``(chunk_index, count)`` pairs covering ``reps`` replications."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    full, rem = divmod(int(reps), CHUNK_SIZE)
    spec = [(i, CHUNK_SIZE) for i in range(full)]
    if rem:
        spec.append((full, rem))
    return spec


def _exec_chunk(args):
    kernel, seed, tag, chunk_index, count = args
    return kernel(derive_rng(seed, tag, chunk_index), count)


def run_chunked(
    kernel: Callable[[np.random.Generator, int], Sequence[np.ndarray]],
    reps: int,
    seed: int,
    tag: str,
    workers: int = 1,
) -> list[np.ndarray]:
    """Run ``kernel(rng, count)`` over all chunks and concatenate its outputs.

    The kernel returns a tuple of arrays; outputs are concatenated column-wise
    in chunk order, so the result is independent of ``workers``.  Kernels used
    with ``workers > 1`` must be picklable (module-level functions or partials
    of them); one that is not raises :class:`ConfigurationError` before any
    worker starts.
    """
    jobs = [(kernel, seed, tag, idx, count) for idx, count in chunk_spec(reps)]
    if workers <= 1 or len(jobs) == 1:
        parts = [_exec_chunk(job) for job in jobs]
    else:
        try:
            pickle.dumps(kernel)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ConfigurationError(
                f"workers > 1 needs a picklable kernel and head-start law "
                f"(module-level functions, not lambdas): {exc}") from exc
        # a fork pool starts every worker at the first submit; extra ones idle
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            parts = list(pool.map(_exec_chunk, jobs))
    return [np.concatenate(cols) for cols in zip(*parts)]
