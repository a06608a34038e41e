"""Counter-based random-number streams for reproducible parallel work.

Every consumer of randomness in this package derives its generator from a
64-bit master seed plus a small integer path, e.g. ``(BOOTSTRAP, b, s)`` for
bootstrap replicate ``b`` of series ``s``.  Streams are backed by Philox
(a counter-based generator) keyed through ``numpy.random.SeedSequence`` spawn
keys, so any two distinct paths give statistically independent streams and
the values drawn never depend on scheduling: serial and parallel execution,
or requesting extra statistics from the same run, always see identical
draws.
"""

from __future__ import annotations

import numpy as np

# Stream domains.  Keep these stable: changing them changes every result
# derived from a given master seed.
BOOTSTRAP = 1
MONTE_CARLO = 2
FIT = 3


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator at ``(master_seed, *path)``.

    Distinct paths yield independent streams; equal paths yield identical
    streams, regardless of creation order or thread placement.
    """
    seed = int(master_seed)
    if seed < 0:
        raise ValueError("master seed must be a nonnegative integer")
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
