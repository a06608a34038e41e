"""HSIC V-statistics and the single / joint test statistics built on them.

Given paired innovation estimates ``eta1`` (n x d1) and ``eta2`` (n x d2),
the single statistic at lag ``m >= 0`` measures dependence between

- direction 1: ``eta1[t]`` and ``eta2[t + m]``  (series 1 leading), and
- direction 2: ``eta1[t + m]`` and ``eta2[t]``  (series 2 leading),

over the N = n - m overlapping pairs; the joint statistic sums the single
statistics over lags 0..M.  Under independence the scaled statistics
``n * stat`` are stochastically bounded, which is what the residual
bootstrap (see :mod:`tsindep.bootstrap`) calibrates against.

At lag m the leading series enters through the leading window
``G[:N, :N]`` of its Gram matrix and the other through the trailing
window ``G[m:, m:]``.  Every statistic is evaluated in one defined order,
which fixes its bits.  A window's column sums are row-local: the
pairwise sum of each row of the whole Gram (``np.add.reduce`` along the
row), less the window's edge rows, added from the matrix edge inward
(see :func:`_lag_terms`).  The cross term reads the upper triangle of
both windows in blocks of ``_CROSS_BLOCK`` rows (see :func:`hsic_v`).
Gram matrices must therefore be exactly symmetric, as
:func:`~tsindep.kernels.gram_matrix` makes them.  At lag 0 a single
statistic is :func:`hsic_v` on the two Grams; at m > 0 it agrees with
``hsic_v`` on the two windows copied out up to the rounding of the
window sums.  :func:`stat_from_grams` takes one config or a sequence of
them, and evaluates every lag of both directions that the sequence
needs in one pass, whose row sums serve every lag.

The Python cost of a pass does not grow with its lags and row tiles:

- the values of every lag are assembled once over the lag axis, from
  four reductions per lag (:func:`_lag_stats`);
- a direction's lead windows all hold row 0 of their Gram, and its
  trailing windows all hold row n - 1 of theirs, so one O(n) test of
  those two rows rules out a constant window at every lag, and the exact
  per-lag check runs only when it cannot;
- the row sums, row dots and window sums run as one list of ufunc calls
  on views of the two Gram buffers (:func:`_tile_calls`,
  :func:`_edge_calls`).  A caller that refills one pair of buffers builds
  the list once with :func:`_pass_calls` and passes it with each refill;
  :mod:`tsindep.bootstrap` keeps one per stack depth of a replicate
  block.  Other callers' passes make their own calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .kernels import GramMatrix, KernelSpec, as_points, gram_matrix

_REFERENCE_MAX_N = 50
# Rows of one block of the split cross term (see hsic_v); a power of two.
# It is part of the definition of the result's bits: block edges sit at
# fixed rows of each window, whatever the tiling of the pass.  Each block
# but the last costs a second dot call per row, which pays only when the
# skipped products would come from beyond the cache, so windows of up to
# 256 rows stay in one block.
_CROSS_BLOCK = 256
# Bytes of one row tile of a Gram in the multi-lag pass (see _lag_terms).
# Any value gives the same bits.
_TILE_BYTES = 512 * 1024


@dataclass(frozen=True)
class PairedResiduals:
    """Two residual series observed on a common time axis."""

    eta1: np.ndarray
    eta2: np.ndarray

    def __post_init__(self) -> None:
        e1 = as_points(self.eta1)
        e2 = as_points(self.eta2)
        if e1.shape[0] != e2.shape[0]:
            raise DataError(
                f"residual series have different lengths: {e1.shape[0]} vs {e2.shape[0]}"
            )
        object.__setattr__(self, "eta1", e1)
        object.__setattr__(self, "eta2", e2)

    @property
    def n(self) -> int:
        return self.eta1.shape[0]


@dataclass(frozen=True)
class LagConfig:
    """One HSIC test: a single lag ``m`` or all lags up to ``max_lag``.

    ``direction`` 1 pairs series-1 values at t with series-2 values at
    t + m; direction 2 is the reverse.  Exactly one of ``m`` / ``max_lag``
    must be given.
    """

    direction: int
    m: int | None = None
    max_lag: int | None = None

    def __post_init__(self) -> None:
        if self.direction not in (1, 2):
            raise ValueError("direction must be 1 or 2")
        if (self.m is None) == (self.max_lag is None):
            raise ValueError("set exactly one of m (single) or max_lag (joint)")
        lag = self.m if self.m is not None else self.max_lag
        if lag < 0:
            raise ValueError("lags must be nonnegative")

    @property
    def is_joint(self) -> bool:
        return self.max_lag is not None

    @property
    def lag(self) -> int:
        return self.max_lag if self.is_joint else self.m

    @property
    def label(self) -> str:
        family = "J" if self.is_joint else "S"
        return f"{family}{self.direction}({self.lag})"


def _gram_values(g) -> np.ndarray:
    if isinstance(g, GramMatrix):
        return g.values
    arr = np.asarray(g, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise DataError("Gram matrix must be square")
    return arr


def hsic_v(K, L) -> float | np.ndarray:
    """Biased (V-statistic) HSIC estimate from two symmetric Gram matrices.

    Equals trace(K H L H) / N^2 with H the centering matrix.  With the
    column sums c_K = 1'K and c_L = 1'L (equal to the row sums, since Gram
    matrices are symmetric) it is evaluated as

        sum_i K_i . L_i / N^2 + sum(c_K) sum(c_L) / N^4 - 2 c_K . c_L / N^3

    so neither H nor any other N x N temporary is formed.  ``K`` and
    ``L`` must be exactly symmetric, and a :class:`DataError` is raised
    otherwise: the row sums stand in for the column sums, and the cross
    term reads one triangle only.  The sums are taken in this order:

    - c_K and c_L are the row sums of ``K`` and ``L``, each row summed
      pairwise on its own (``np.add.reduce`` along the row);
    - sum(c_K), sum(c_L) and sum_i K_i . L_i are pairwise sums too, and
      c_K . c_L is one BLAS dot;
    - the cross term splits the rows into blocks of S = ``_CROSS_BLOCK``.
      Row i of block b (rows ``[bS, (b+1)S)``) contributes
      ``2 K[i, (b+1)S:] . L[i, (b+1)S:] + K[i, bS:(b+1)S] . L[i, bS:(b+1)S]``,
      one BLAS dot product for each part, so only the upper triangle and
      the diagonal blocks are read.  For N <= S this is one dot per row.

    None of these depends on the memory layout or the buffer's alignment,
    so a transposed matrix or a principal-submatrix view gives the same
    bits as a contiguous copy of it.  This is the lag-0 case of the
    multi-lag pass of :func:`stat_from_grams`; at m > 0 the pass takes the
    windows' sums from the whole Grams' rows (see :func:`single_from_grams`).
    When either Gram matrix is constant the result is exactly 0.0;
    otherwise it is nonnegative up to roundoff whenever both kernels are
    positive definite.

    Two (nb, N, N) stacks give the (nb,) values of their item pairs, each
    with the bits of that pair alone; two N x N matrices give a float.
    """
    k = _gram_values(K)
    l = _gram_values(L)
    if k.shape != l.shape:
        raise DataError(f"Gram size mismatch: {k.shape} vs {l.shape}")
    if k.shape[-1] < 2:
        raise DataError("need at least 2 points")
    for g in (k, l):
        if not np.array_equal(g, g.swapaxes(-1, -2)):
            raise DataError("Gram matrix is not exactly symmetric")
    # Unit-stride rows: numpy sums a row pairwise only along a unit-stride axis.
    k, l = (g if g.strides[-1] == g.itemsize else np.ascontiguousarray(g) for g in (k, l))
    return single_from_grams(k, l, 0, 1)


def _row_dots(k: np.ndarray, l: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``k[..., i, :] . l[..., i, :]`` for every row i, one BLAS dot per row."""
    if out is None:
        out = np.empty(k.shape[:-1])
    np.matmul(k[..., None, :], l[..., :, None], out=out[..., None, None])
    return out


def hsic_v_reference(K, L) -> float:
    """Literal three-sum form of the HSIC V-statistic (test oracle).

    Materializes every term k_ij * l_qr of

        (1/N^2) sum_{ij} k_ij l_ij + (1/N^4) sum_{ijqr} k_ij l_qr
        - (2/N^3) sum_{ijq} k_ij l_iq

    so it is O(N^4) and limited to N <= 50.  Kept deliberately independent
    of the centered fast path in :func:`hsic_v`.
    """
    k = _gram_values(K)
    l = _gram_values(L)
    if k.shape != l.shape:
        raise DataError(f"Gram size mismatch: {k.shape} vs {l.shape}")
    n = k.shape[0]
    if n < 2:
        raise DataError("need at least 2 points")
    if n > _REFERENCE_MAX_N:
        raise DataError(f"reference estimator supports N <= {_REFERENCE_MAX_N}")
    term1 = (k * l).sum() / n**2
    term2 = (k[:, :, None, None] * l[None, None, :, :]).sum() / n**4
    term3 = 2.0 * (k[:, :, None] * l[:, None, :]).sum() / n**3
    return float(term1 + term2 - term3)


def single_stat(
    res: PairedResiduals,
    m: int,
    direction: int,
    kernel_k: KernelSpec,
    kernel_l: KernelSpec,
) -> float:
    """Single-lag HSIC statistic on the lag-aligned residual pairs.

    Evaluated on windows of the full Gram matrices, as :func:`joint_stat`
    is; both directions share one code path, so the two direction variants
    at m = 0 coincide bit for bit.
    """
    if m < 0:
        raise DataError("lag must be nonnegative")
    g1 = gram_matrix(kernel_k, res.eta1).values
    g2 = gram_matrix(kernel_l, res.eta2).values
    return stat_from_grams(g1, g2, LagConfig(direction, m=m))


def joint_stat(
    res: PairedResiduals,
    max_lag: int,
    direction: int,
    kernel_k: KernelSpec,
    kernel_l: KernelSpec,
) -> float:
    """Sum of single-lag statistics over m = 0..max_lag (ascending order)."""
    if res.n - max_lag < 2:
        raise DataError(f"max_lag {max_lag} infeasible for n={res.n}")
    g1 = gram_matrix(kernel_k, res.eta1).values
    g2 = gram_matrix(kernel_l, res.eta2).values
    return stat_from_grams(g1, g2, LagConfig(direction, max_lag=max_lag))


def scaled_stat(stat: float, n: int) -> float:
    """Scale a raw statistic by the full residual sample size n."""
    if n < 2:
        raise DataError("sample size must be at least 2")
    return float(n * stat)


def _window_offsets(m: int, direction: int) -> tuple[int, int]:
    """First row (and column) of the ``g1`` and ``g2`` windows at lag m."""
    if direction == 1:
        return 0, m
    if direction == 2:
        return m, 0
    raise ValueError("direction must be 1 or 2")


def single_from_grams(g1: np.ndarray, g2: np.ndarray, m: int, direction: int) -> float | np.ndarray:
    """Single-lag statistic from precomputed full n x n Gram matrices.

    ``g1[i, j] = k(eta1_i, eta1_j)`` and likewise ``g2``; the lagged pairing
    only selects a contiguous principal submatrix of each, so one Gram
    computation per series serves every lag.  Both must be exactly
    symmetric, as :func:`~tsindep.kernels.gram_matrix` makes them; this is
    not checked here.  In direction 1 the lead window is ``g1[:n-m, :n-m]``
    and the trailing one ``g2[m:, m:]``; direction 2 swaps the roles of
    ``g1`` and ``g2``.  The value is ``hsic_v(lead window, trailing
    window)`` with each window's sums taken from the whole Gram's row sums
    (see :func:`_lag_terms`), so for m > 0 it agrees with ``hsic_v`` on
    the copied windows up to the rounding of those sums, and at m = 0 it
    is ``hsic_v(g1, g2)`` bit for bit, in either direction.
    Entry-identical to :func:`single_stat` on the same residuals.

    This is the one-lag case of the pass of :func:`stat_from_grams`, and
    its value is assembled by the same code (see :func:`_lag_stats`).  Two
    (nb, n, n) stacks give (nb,) values, as in :func:`hsic_v`.
    """
    n = g1.shape[-1]
    if n - m < 2:
        raise DataError(f"lag m={m} leaves fewer than 2 pairs (n={n})")
    lags = {direction if m else 1: [m]}
    stat = _lag_stats(g1, g2, lags, _lag_terms(g1, g2, lags))[..., 0]
    return stat if g1.ndim == 3 else float(stat)


def _keys(lags: dict) -> list:
    """The (direction, m) of a pass's singles, in the order of its buffers."""
    return [(direction, m) for direction, ms in lags.items() for m in ms]


def _tile_calls(g1: np.ndarray, g2: np.ndarray, keys, rows: np.ndarray, dots: np.ndarray):
    """The calls that make :func:`_lag_terms`' row sums and row dots, in
    sweep order.

    ``rows`` is a (2, ..., n) buffer that receives the row sums of ``g1``
    and of ``g2``, and ``dots`` a (..., len(keys), n) buffer whose row j
    receives the n - m row dots of ``keys[j] = (direction, m)`` in its
    first n - m entries.  Each call is ``(f, args, part)``, run as
    ``f(*args)``, in sweep order: row tiles of ``_TILE_BYTES`` across the
    whole stack; within a tile, the tile's row sums of both Grams
    (``np.add.reduce`` along each row), then the keys, then the tile's
    rows of each ``_CROSS_BLOCK`` block within a key.  So each tile of
    both stacks stays in cache across both directions and every lag.  A
    row dot call is ``np.matmul`` with one BLAS dot per row: of a diagonal
    block straight into ``dots`` (``part`` is None), or of the part right
    of it into a scratch row, which is then doubled and added to
    ``part``.  Row i of block b thus gets the split cross term that
    :func:`hsic_v` defines, and only the upper triangle and the diagonal
    blocks of each window are read.  A row's sum and its dots do not
    depend on the tile that holds it.
    """
    n = g1.shape[-1]
    # A tile holds the same rows of every item, so its bytes grow with the
    # stack.  Its rows are whole blocks or a power of two dividing one, so
    # that no tile straddles a block edge and splits its dots into more calls.
    tile = max(1, _TILE_BYTES // (8 * g1[..., 0, :].size))
    if tile < n:
        tile = tile - tile % _CROSS_BLOCK or 1 << (tile.bit_length() - 1)
    upper = np.empty(g1.shape[:-2] + (min(tile, _CROSS_BLOCK, n), 1, 1))
    windows = []
    for direction, m in keys:
        big = n - m
        ko, lo = _window_offsets(m, direction)
        windows.append((big, g1[..., ko : ko + big, ko : ko + big], g2[..., lo : lo + big, lo : lo + big]))
    for r0 in range(0, n, tile):
        for g, out in zip((g1, g2), rows):
            tile_rows = slice(r0, r0 + tile)
            yield np.add.reduce, (g[..., tile_rows, :], -1, None, out[..., tile_rows]), None
        for j, (big, k, l) in enumerate(windows):
            r1 = min(r0 + tile, big)
            if r0 >= r1:
                continue
            for b0 in range(r0 - r0 % _CROSS_BLOCK, r1, _CROSS_BLOCK):
                b1 = min(b0 + _CROSS_BLOCK, big)
                a, e = max(r0, b0), min(r1, b1)
                part = dots[..., j, a:e, None, None]
                yield np.matmul, (k[..., a:e, None, b0:b1], l[..., a:e, b0:b1, None], part), None
                if b1 < big:
                    scratch = upper[..., : e - a, :, :]
                    yield np.matmul, (k[..., a:e, None, b1:], l[..., a:e, b1:, None], scratch), part


def _edge_calls(g1: np.ndarray, g2: np.ndarray, lags: dict, rows: np.ndarray, sums: np.ndarray):
    """The calls that turn the row sums into each window's sums, and the
    ``(c_k, c_l)`` of every key, views of ``rows`` and ``sums``.

    ``sums`` is a (2, ..., len(keys), n) buffer: row j of ``sums[0]``
    receives the window sums of ``g1`` for key j, and of ``sums[1]`` those
    of ``g2``, in their first n - m entries.  By symmetry a window's
    column sums are its rows' sums over the window's columns: the whole
    row sum less the entries of the edge rows outside the window.  The
    lead window ``[0, n - m)`` thus takes the row sums less rows n - 1,
    n - 2, ..., n - m, and the trailing window ``[m, n)`` less rows 0, 1,
    ..., m - 1.  Each direction adds its edge rows one by one from the
    matrix edge inward, from the edge row itself, so the edge sum of lag
    m depends on m alone; each lag then makes one subtraction per Gram.
    At lag 0 the sums are the row sums themselves.
    """
    n = g1.shape[-1]
    calls, terms = [], {}
    j = 0
    for direction, ms in lags.items():
        # The Gram of each role: g1 (0) leads in direction 1, g2 (1) in 2.
        grams = (0, 1) if direction == 1 else (1, 0)
        lead, trail = ((g1, g2)[g] for g in grams)
        top = ms[-1]
        # edges[0][k] adds lead rows n - 1, ..., n - 1 - k, edges[1][k]
        # trailing rows 0, ..., k.
        edges = [lead[..., n - 1, :]], [trail[..., 0, :]]
        acc = np.empty((2,) + g1.shape[:-2] + (max(top - 1, 0), n))
        for k in range(1, top):
            for role, row in ((0, lead[..., n - 1 - k, :]), (1, trail[..., k, :])):
                calls.append((np.add, (edges[role][-1], row, acc[role][..., k - 1, :]), None))
                edges[role].append(acc[role][..., k - 1, :])
        for m in ms:
            c = [rows[0], rows[1]]
            if m:
                for role, cols in ((0, slice(0, n - m)), (1, slice(m, n))):
                    g = grams[role]
                    c[g] = sums[g][..., j, : n - m]
                    edge = edges[role][m - 1][..., cols]
                    calls.append((np.subtract, (rows[g][..., cols], edge, c[g]), None))
            terms[direction, m] = tuple(c)
            j += 1
    return calls, terms


class _Pass:
    """One pass's buffers and calls on one pair of Gram arrays (see
    :func:`_lag_terms`).

    ``calls`` is the list of the pass's calls, in order; a kept pass
    (:func:`_pass_calls`) runs it again with each refill of ``g1`` and
    ``g2``.  ``terms`` maps each (direction, m) to its ``(c_k, c_l,
    dots)``, views of the buffers that the calls fill.
    """

    def __init__(self, g1: np.ndarray, g2: np.ndarray, lags: dict):
        keys = _keys(lags)
        rows = np.empty((2,) + g1.shape[:-1])
        sums = np.empty((2,) + g1.shape[:-2] + (len(keys), g1.shape[-1]))
        dots = np.empty(g1.shape[:-2] + (len(keys), g1.shape[-1]))
        sweep = _tile_calls(g1, g2, keys, rows, dots)
        edge_calls, window_sums = _edge_calls(g1, g2, lags, rows, sums)
        self.g1, self.g2, self.lags = g1, g2, lags
        self.calls = [*sweep, *edge_calls]
        self.terms = {
            key: (*window_sums[key], dots[..., j, : g1.shape[-1] - key[1]])
            for j, key in enumerate(keys)
        }


def _lag_terms(g1: np.ndarray, g2: np.ndarray, lags: dict, *, calls=None) -> dict:
    """:func:`hsic_v`'s ``(c_k, c_l, dots)`` for every lag of both
    directions in one pass.

    ``g1`` and ``g2`` are two exactly symmetric n x n matrices or two
    (nb, n, n) stacks; a stack's terms carry its axis first.  ``lags``
    maps each direction to its lags, in ascending order, and the terms
    are keyed by (direction, m).  At lag m one Gram enters through its
    leading window ``G[:n-m, :n-m]`` (``g1`` in direction 1, ``g2`` in
    direction 2) and the other through its trailing window ``G[m:, m:]``.

    Each window's column sums are restated row-locally: one pairwise row
    sum per Gram (``np.add.reduce`` along each row) serves both directions
    and every lag, less the sum of the window's edge rows, added from the
    matrix edge inward (see :func:`_edge_calls`).  So the sums of all lags
    cost one read of each Gram, made tile by tile in the same sweep as
    the row dots of every lag of both directions (:func:`_tile_calls`).
    Every term of a stack item depends only on its own lag, direction and
    item, whatever the other lags and the tile size.  At lag 0 the terms
    are :func:`hsic_v`'s on ``g1, g2``; at m > 0 the row dots are
    :func:`hsic_v`'s on the two windows, but the sums differ from those of
    the copied windows in the last bits, since a row sum adds entries
    outside the window that the edge subtraction then removes.

    ``calls`` is internal plumbing: the :func:`_pass_calls` of these same
    arrays and lags, whose kept calls then run instead of new calls made
    for this pass.  The terms returned are views of the pass's buffers,
    valid until it runs again.  A pass built for other arrays or lags
    raises ValueError.
    """
    if g1.ndim not in (2, 3) or g1.shape != g2.shape or g1.shape[-1] != g1.shape[-2]:
        raise DataError(f"Gram size mismatch: {g1.shape} vs {g2.shape}")
    if calls is None:
        calls = _Pass(g1, g2, lags)
    elif calls.g1 is not g1 or calls.g2 is not g2 or calls.lags != lags:
        raise ValueError("the pass was built for other Gram arrays or lags")
    for f, args, part in calls.calls:
        f(*args)
        if part is not None:
            upper = args[-1]
            upper *= 2.0
            part += upper
    return calls.terms


def _lag_stats(g1: np.ndarray, g2: np.ndarray, lags: dict, terms: dict) -> np.ndarray:
    """:func:`hsic_v` of every lag's two windows from their ``(c_k, c_l, dots)``.

    The result carries the stack axes of ``g1`` and ``g2``, if any, then
    one value per (direction, m) of ``lags``, in the order of
    :func:`_keys`.  The four reductions that fix a value's bits are made
    one call per key, as :func:`hsic_v` defines them: the row dots, c_K
    and c_L each summed pairwise over the window, and c_K . c_L as one
    BLAS dot.  The arithmetic that combines them into
    ``sum(dots) / N^2 + sum(c_K) sum(c_L) / N^4 - 2 c_K . c_L / N^3`` runs
    once over the key axis, with N^2, N^3 and N^4 the floats of exact
    integers.

    A pair with a constant window reads exactly 0.0.  A direction's lead
    windows ``[0, n - m)`` are nested and all hold row 0, and its
    trailing windows ``[m, n)`` all hold row n - 1.  So a constant window
    at any lag makes the lead Gram's row 0 constant over ``[0, n - M)``
    or the trailing Gram's row n - 1 constant over ``[M, n)``, M the
    direction's largest lag.  When neither O(n) screen fires, no window
    is constant; otherwise each lag's windows whose own edge row is
    constant get the exact O(N^2) check.
    """
    n = g1.shape[-1]
    keys = _keys(lags)
    dot_sum, k_sum, l_sum, cross = np.empty((4,) + g1.shape[:-2] + (len(keys),))
    for j, key in enumerate(keys):
        c_k, c_l, dots = terms[key]
        np.add.reduce(dots, axis=-1, out=dot_sum[..., j])
        np.add.reduce(c_k, axis=-1, out=k_sum[..., j])
        np.add.reduce(c_l, axis=-1, out=l_sum[..., j])
        _row_dots(c_k, c_l, cross[..., j])
    n2, n3, n4 = (np.array([float((n - m) ** p) for _, m in keys]) for p in (2, 3, 4))
    stat = dot_sum / n2 + k_sum * l_sum / n4 - 2.0 * cross / n3
    j = 0
    for direction, ms in lags.items():
        lead, trail = (g1, g2) if direction == 1 else (g2, g1)
        top = ms[-1]
        screens = lead[..., 0, : n - top], trail[..., n - 1, top:]
        if not any((row == row[..., :1]).all(axis=-1).any() for row in screens):
            j += len(ms)
            continue
        for m in ms:
            windows = lead[..., : n - m, : n - m], trail[..., m:, m:]
            for g, row in zip(windows, (windows[0][..., 0, :], windows[1][..., -1, :])):
                maybe = (row == row[..., :1]).all(axis=-1)
                if maybe.any():
                    constant = maybe & (g == g[..., :1, :1]).all(axis=(-2, -1))
                    stat[..., j] = np.where(constant, 0.0, stat[..., j])
            j += 1
    return stat


def _singles(cfg) -> tuple:
    """``(cfgs, keys, lags)`` of the statistics of ``cfg``.

    ``cfgs`` is the sequence of configs, ``keys`` the (direction, m) of
    the singles each config sums, in ascending m, and ``lags`` maps each
    direction to the lags it computes, in ascending order.  Lag 0 is
    direction 1's (see :func:`single_from_grams`).
    """
    cfgs = (cfg,) if isinstance(cfg, LagConfig) else tuple(cfg)
    keys = [
        [(c.direction if m else 1, m) for m in (range(c.max_lag + 1) if c.is_joint else (c.m,))]
        for c in cfgs
    ]
    lags = {}
    for d, m in sorted({key for ks in keys for key in ks}):
        lags.setdefault(d, []).append(m)
    return cfgs, keys, lags


def _pass_calls(g1: np.ndarray, g2: np.ndarray, cfg) -> _Pass:
    """The kept pass of ``stat_from_grams(g1, g2, cfg)``.

    Internal plumbing for callers that refill the same pair of C-contiguous
    float Gram arrays and pass the result as ``calls=`` with each refill
    (see :func:`stat_from_grams`).  It holds the pass's buffers and the
    list of its calls (:func:`_tile_calls` and :func:`_edge_calls`) on
    these arrays, about half a kilobyte of views per call, and serves
    exactly these two array objects: the same buffers seen through other
    array objects need a pass of their own.  It keeps its buffers alive,
    and its runs overwrite them, so it belongs to one caller and thread.
    """
    return _Pass(g1, g2, _singles(cfg)[2])


def stat_from_grams(g1: np.ndarray, g2: np.ndarray, cfg, *, calls=None) -> float | np.ndarray:
    """Raw single or joint statistics from full Gram matrices (see above).

    ``g1`` and ``g2`` are two exactly symmetric n x n matrices, which give
    a float, or two (nb, n, n) stacks of them, which give the (nb,)
    statistics of their item pairs in one pass; item ``i`` has the bits
    of the pair ``g1[i], g2[i]`` alone.  Symmetry is not checked here:
    :func:`~tsindep.kernels.gram_matrix` guarantees it, and on other
    input the result is silently wrong.

    ``cfg`` is one :class:`LagConfig` or a sequence of them.  A sequence
    adds a trailing axis with one value per config: (n_cfgs,) values for
    two matrices, (nb, n_cfgs) for two stacks.  Every distinct single the
    configs need is computed once, and the lags of both directions come
    from one :func:`_lag_terms` pass and one assembly over them
    (:func:`_lag_stats`); lag 0 belongs to direction 1.  Joint sums add
    their singles in ascending m, so each value has the bits it has when
    its config is passed alone, and the bits of :func:`single_from_grams`
    on each lag.

    ``calls`` is internal plumbing: the pass that :func:`_pass_calls`
    built on these same arrays for this ``cfg``.  A caller that refills
    one pair of Gram arrays passes it with every refill, and the pass
    then runs without building its calls again.  Without ``calls`` each
    pass builds its own.
    """
    cfgs, keys, lags = _singles(cfg)
    # A copy of anything but C-contiguous floats, so that the kept calls'
    # arrays are the ones the caller passes.
    g1, g2 = np.ascontiguousarray(g1, dtype=float), np.ascontiguousarray(g2, dtype=float)
    n = g1.shape[-1]
    for ms in lags.values():
        if n - ms[-1] < 2:
            m = next(m for m in ms if n - m < 2)
            raise DataError(f"lag m={m} leaves fewer than 2 pairs (n={n})")
    values = _lag_stats(g1, g2, lags, _lag_terms(g1, g2, lags, calls=calls))
    singles = {key: values[..., j] for j, key in enumerate(_keys(lags))}
    out = np.empty(g1.shape[:-2] + (len(cfgs),))
    for i, (c, ks) in enumerate(zip(cfgs, keys)):
        out[..., i] = sum(singles[key] for key in ks) if c.is_joint else singles[ks[0]]
    if isinstance(cfg, LagConfig):
        return out[..., 0] if g1.ndim == 3 else float(out[0])
    return out
