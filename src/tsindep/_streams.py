"""Counter-based random-number streams for reproducible parallel work.

Every consumer of randomness in this package derives its generator from a
64-bit master seed plus a small integer path, e.g. ``(BOOTSTRAP, b, s)`` for
bootstrap replicate ``b`` of series ``s``.  Streams are backed by Philox
(a counter-based generator) keyed through ``numpy.random.SeedSequence`` spawn
keys, so any two distinct paths give statistically independent streams and
the values drawn never depend on scheduling: serial and parallel execution,
or requesting extra statistics from the same run, always see identical
draws.

:func:`substream` builds the generator of one path.  :func:`path_keys`
derives the Philox keys of a run of paths at once, in numpy array
arithmetic that restates ``SeedSequence``'s hash, so a caller can re-key
one generator per path (counter 0, empty buffer) and draw exactly what
:func:`substream` would give, at a fraction of its set-up cost.

The bootstrap's draws from such a path are ``Generator.integers(0, m)``:
index ``(u * m) >> 32`` for u the next 32-bit half of a raw Philox word,
low half first (Lemire's bounded map).  It computes them from the raw words
of a whole block at once and redraws a path through ``Generator.integers``
only when some u falls in the map's rejection zone; a test pins this to
``Generator.integers`` on the installed numpy
(``tsindep.bootstrap._resample_indices``).
"""

from __future__ import annotations

import numpy as np

# Stream domains.  Keep these stable: changing them changes every result
# derived from a given master seed.
BOOTSTRAP = 1
MONTE_CARLO = 2
FIT = 3

# SeedSequence's hash constants (numpy.random.bit_generator), its pool of
# four 32-bit words, and the mask that keeps arithmetic on uint64 arrays
# modulo 2**32.  Arrays wrap silently where numpy scalars warn.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def _hash_consts(init: int, mult: int, count: int) -> list:
    """The (xor, multiplier) pairs of ``count`` successive hash calls."""
    pairs = []
    for _ in range(count):
        nxt = (init * mult) & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return pairs


def _hashmix(value, xor, mult):
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> 16)


def path_keys(master_seed: int, paths) -> np.ndarray:
    """Philox keys, (k, 2) uint64, of the streams ``substream(master_seed, *p)``
    for each row ``p`` of the (k, q) integer array ``paths``.

    Row ``i`` equals ``SeedSequence(master_seed, spawn_key=tuple(paths[i]))
    .generate_state(2, np.uint64)``, the key that ``Philox`` takes from that
    seed sequence.  Supports master seeds below 2**64 (one or two 32-bit
    words) and path entries below 2**32, with q >= 1.
    """
    seed = int(master_seed)
    if not 0 <= seed < 2**64:
        raise ValueError("master seed must be a nonnegative integer below 2**64")
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.shape[1] == 0 or paths.dtype.kind not in "iu":
        raise ValueError("paths must be a (k, q) integer array with q >= 1")
    if paths.size and (paths.min() < 0 or paths.max() > _MASK32):
        raise ValueError("path entries must lie in [0, 2**32)")
    # The assembled entropy: the seed's words padded to the pool size, then
    # the path words.  The pool is mixed from the seed alone in Python ints,
    # and each path column then folds into all four pool words at once.
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    words += [0] * (_POOL_SIZE - len(words))
    n_calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * paths.shape[1]
    consts = iter(_hash_consts(_INIT_A, _MULT_A, n_calls))
    pool = [_hashmix(w, *next(consts)) for w in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    mixer = np.array(pool, dtype=np.uint64)[:, None]
    for column in paths.T.astype(np.uint64):
        xor, mult = np.array([next(consts) for _ in range(_POOL_SIZE)], dtype=np.uint64).T
        mixer = _mix(mixer, _hashmix(column, xor[:, None], mult[:, None]))
    # generate_state(2, uint64): four uint32 words, one per pool word, read
    # as two little-endian uint64s.
    xor, mult = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL_SIZE), dtype=np.uint64).T
    state = _hashmix(mixer, xor[:, None], mult[:, None])
    return np.stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], axis=1)
