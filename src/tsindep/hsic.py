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
which fixes its bits (see :func:`hsic_v`): the leading window's column
sums add its rows top-down, the trailing window's add them bottom-up,
and the cross term reads the upper triangle of both windows in blocks of
``_CROSS_BLOCK`` rows.  Gram matrices must therefore be exactly
symmetric, as :func:`~tsindep.kernels.gram_matrix` makes them.  The
multi-lag pass shares one top-down and one bottom-up accumulation across
all lags and reproduces these bits exactly.  :func:`stat_from_grams`
takes one config or a sequence of them, and evaluates every lag the
sequence needs in one such pass per direction.

The Python cost of a pass does not grow with its lags and row tiles:

- each direction's values are assembled once over the lag axis, from
  four reductions per lag (:func:`_lag_stats`);
- a direction's lead windows are nested, and so are its trailing
  windows, so one column-sum test on the largest lag's windows rules out
  a constant window at every lag, and the per-lag check runs only when
  it cannot;
- the row dots run as a list of matmul calls on views of the two Gram
  buffers (:func:`_tile_calls`).  A caller that refills one pair of
  buffers builds the lists once with :func:`_pass_calls` and passes them
  with each refill; :mod:`tsindep.bootstrap` keeps one per stack depth
  of a replicate block.  Other callers' passes make their own calls.
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
    otherwise: the column sums stand in for the row sums, and the cross
    term reads one triangle only.  The sums are taken in this order:

    - c_K adds the rows of ``K`` top-down and c_L adds the rows of ``L``
      bottom-up;
    - the cross term splits the rows into blocks of S = ``_CROSS_BLOCK``.
      Row i of block b (rows ``[bS, (b+1)S)``) contributes
      ``2 K[i, (b+1)S:] . L[i, (b+1)S:] + K[i, bS:(b+1)S] . L[i, bS:(b+1)S]``,
      one BLAS dot product for each part, so only the upper triangle and
      the diagonal blocks are read.  For N <= S this is one dot per row.

    None of these depends on the memory layout or the buffer's alignment,
    so a transposed matrix or a principal-submatrix view gives the same
    bits as a contiguous copy of it.  This is the lag-0 case of the multi-lag
    pass of :func:`stat_from_grams`: a single statistic equals
    ``hsic_v(lead window, trailing window)`` (see :func:`single_from_grams`).
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
    # Rows must be contiguous for the column sums to add them in order.
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
    not checked here.  The value has the bits of
    ``hsic_v(lead window, trailing window)``: in direction 1 the lead
    window is ``g1[:n-m, :n-m]`` and the trailing one ``g2[m:, m:]``, and
    direction 2 swaps the roles of ``g1`` and ``g2``.  At m = 0 both
    directions take direction 1's order, so they agree bit for bit.
    Entry-identical to :func:`single_stat` on the same residuals.

    This is the one-lag case of the pass of :func:`stat_from_grams`, and
    its value is assembled by the same code (see :func:`_lag_stats`).  Two
    (nb, n, n) stacks give (nb,) values, as in :func:`hsic_v`.
    """
    n = g1.shape[-1]
    if n - m < 2:
        raise DataError(f"lag m={m} leaves fewer than 2 pairs (n={n})")
    if m == 0:
        direction = 1
    stat = _lag_stats(g1, g2, direction, [m], _lag_terms(g1, g2, direction, [m]))[..., 0]
    return stat if g1.ndim == 3 else float(stat)


def _source(g1: np.ndarray, g2: np.ndarray, direction: int, lags) -> tuple:
    """The buffers, layout, direction and lags that a call list serves."""
    layout = (g1.shape, g1.strides, g2.strides)
    return (g1.ctypes.data, g2.ctypes.data, layout, direction, tuple(lags))


def _tile_calls(g1: np.ndarray, g2: np.ndarray, direction: int, lags, dots: np.ndarray):
    """The matmul calls that make :func:`_lag_terms`' row dots, in sweep order.

    ``dots`` is a (..., len(lags), n) buffer whose row j receives the
    n - m row dots of lag ``lags[j]`` in its first n - m entries.  Each
    call is ``(a, b, out, part)``, in sweep order: row tiles of
    ``_TILE_BYTES`` across the whole stack, the lags within a tile, and
    the tile's rows of each ``_CROSS_BLOCK`` block within a lag, so each
    tile of both stacks stays in cache across the lags.
    ``np.matmul(a, b, out=out)`` takes one BLAS dot per row: of a diagonal
    block straight into ``dots`` (``part`` is None), or of the part right
    of it into a scratch row, which is then doubled and added to
    ``part``.  Row i of block b thus gets the split cross term that
    :func:`hsic_v` defines, and only the upper triangle and the diagonal
    blocks of each window are read.

    The calls are views of ``g1``, ``g2``, ``dots`` and the scratch row,
    so they read whatever ``g1`` and ``g2`` hold when they run.  A single
    pass runs them as they are made; :func:`_pass_calls` keeps them in a
    list for callers that refill the same buffers.
    """
    n = g1.shape[-1]
    # A tile holds the same rows of every item, so its bytes grow with the
    # stack.  Its rows are whole blocks or a power of two dividing one, so
    # that no tile straddles a block edge and splits its dots into more calls.
    rows = max(1, _TILE_BYTES // (8 * g1[..., 0, :].size))
    if rows < n:
        rows = rows - rows % _CROSS_BLOCK or 1 << (rows.bit_length() - 1)
    upper = np.empty(g1.shape[:-2] + (min(rows, _CROSS_BLOCK, n), 1, 1))
    for r0 in range(0, n, rows):
        for j, m in enumerate(lags):
            big = n - m
            r1 = min(r0 + rows, big)
            if r0 >= r1:
                continue
            ko, lo = _window_offsets(m, direction)
            k = g1[..., ko : ko + big, ko : ko + big]
            l = g2[..., lo : lo + big, lo : lo + big]
            for b0 in range(r0 - r0 % _CROSS_BLOCK, r1, _CROSS_BLOCK):
                b1 = min(b0 + _CROSS_BLOCK, big)
                a, e = max(r0, b0), min(r1, b1)
                part = dots[..., j, a:e, None, None]
                yield k[..., a:e, None, b0:b1], l[..., a:e, b0:b1, None], part, None
                if b1 < big:
                    scratch = upper[..., : e - a, :, :]
                    yield k[..., a:e, None, b1:], l[..., a:e, b1:, None], scratch, part


def _lag_terms(g1: np.ndarray, g2: np.ndarray, direction: int, lags, *, calls=None) -> dict:
    """:func:`hsic_v`'s ``(c_k, c_l, dots)`` for every lag in one pass.

    ``g1`` and ``g2`` are two exactly symmetric n x n matrices or two
    (nb, n, n) stacks; a stack's terms carry its axis first.  At lag m
    one Gram enters through its leading window ``G[:n-m, :n-m]`` (``g1``
    in direction 1, ``g2`` in direction 2) and the other through its
    trailing window ``G[m:, m:]``.  The leading windows' column sums are
    prefixes of one top-down accumulation over the rows, and the trailing
    windows' column sums are suffixes of one bottom-up accumulation, so
    the sums of all lags cost one pass over each Gram.  The row dots of
    every lag come from one sweep over row tiles of the whole stack: the
    matmul calls that :func:`_tile_calls` makes for these buffers and
    lags.  Every term of a stack item has the bits :func:`hsic_v` gives
    on the lead and the trailing window of that item alone, whatever the
    tile size.

    ``calls`` is internal plumbing: this direction's entry of
    :func:`_pass_calls` on these same buffers and lags, whose kept call
    list then runs instead of new calls made for this pass.  The
    ``dots`` returned are views of its buffer, valid until it runs again.
    A list built for other buffers or lags raises ValueError.
    """
    if g1.ndim not in (2, 3) or g1.shape != g2.shape or g1.shape[-1] != g1.shape[-2]:
        raise DataError(f"Gram size mismatch: {g1.shape} vs {g2.shape}")
    n = g1.shape[-1]
    lead, trail = (g1, g2) if direction == 1 else (g2, g1)
    ordered = sorted(lags, reverse=True)
    top, bottom = n - ordered[0], ordered[0]
    down = lead[..., :top, :].sum(axis=-2)
    up = trail[..., bottom:, :][..., ::-1, :].sum(axis=-2)
    sums = {}
    for m in ordered:
        for r in range(top, n - m):
            down += lead[..., r, :]
        for r in range(bottom - 1, m - 1, -1):
            up += trail[..., r, :]
        top, bottom = n - m, m
        sums[m] = (down[..., :top].copy(), up[..., m:].copy())
    if calls is None:
        dots = np.empty(g1.shape[:-2] + (len(lags), n))
        sweep = _tile_calls(g1, g2, direction, lags, dots)
    elif calls[0] == _source(g1, g2, direction, lags):
        _, dots, sweep = calls
    else:
        raise ValueError("the call list was built for other Gram buffers or lags")
    for a, b, out, part in sweep:
        np.matmul(a, b, out=out)
        if part is not None:
            out *= 2.0
            part += out
    terms = {}
    for j, m in enumerate(lags):
        lead_sums, trail_sums = sums[m]
        c_k, c_l = (lead_sums, trail_sums) if direction == 1 else (trail_sums, lead_sums)
        terms[m] = (c_k, c_l, dots[..., j, : n - m])
    return terms


def _lag_stats(g1: np.ndarray, g2: np.ndarray, direction: int, lags, terms: dict) -> np.ndarray:
    """:func:`hsic_v` of every lag's two windows from their ``(c_k, c_l, dots)``.

    The result carries the stack axes of ``g1`` and ``g2``, if any, then
    one value per lag.  The four reductions that fix a value's bits are
    made one call per lag, as :func:`hsic_v` defines them: the row dots,
    c_K and c_L each summed pairwise over the window, and c_K . c_L as
    one BLAS dot.  The arithmetic that combines them into
    ``sum(dots) / N^2 + sum(c_K) sum(c_L) / N^4 - 2 c_K . c_L / N^3`` runs
    once over the lag axis, with N^2, N^3 and N^4 the floats of exact
    integers.

    A pair with a constant window reads exactly 0.0.  A direction's lead
    windows are nested, and so are its trailing windows, and a constant
    window has equal column sums, as has every window inside it.  So when
    neither window of the largest lag has equal column sums, no window of
    any lag is constant, and the exact O(N^2) check runs only otherwise.
    """
    n = g1.shape[-1]
    dot_sum, k_sum, l_sum, cross = np.empty((4,) + g1.shape[:-2] + (len(lags),))
    for j, m in enumerate(lags):
        c_k, c_l, dots = terms[m]
        np.add.reduce(dots, axis=-1, out=dot_sum[..., j])
        np.add.reduce(c_k, axis=-1, out=k_sum[..., j])
        np.add.reduce(c_l, axis=-1, out=l_sum[..., j])
        _row_dots(c_k, c_l, cross[..., j])
    n2, n3, n4 = (np.array([float((n - m) ** p) for m in lags]) for p in (2, 3, 4))
    stat = dot_sum / n2 + k_sum * l_sum / n4 - 2.0 * cross / n3
    if not any((c == c[..., :1]).all(axis=-1).any() for c in terms[max(lags)][:2]):
        return stat
    for j, m in enumerate(lags):
        big = n - m
        ko, lo = _window_offsets(m, direction)
        windows = g1[..., ko : ko + big, ko : ko + big], g2[..., lo : lo + big, lo : lo + big]
        for g, c in zip(windows, terms[m]):
            # Equal column sums are necessary for a constant matrix and cost
            # O(N) to test; only then is the full O(N^2) comparison made.
            maybe = (c == c[..., :1]).all(axis=-1)
            if maybe.any():
                constant = maybe & (g == g[..., :1, :1]).all(axis=(-2, -1))
                stat[..., j] = np.where(constant, 0.0, stat[..., j])
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


def _pass_calls(g1: np.ndarray, g2: np.ndarray, cfg) -> dict:
    """The call lists of ``stat_from_grams(g1, g2, cfg)``, one per direction.

    Internal plumbing for callers that refill the same pair of C-contiguous
    float Gram buffers and pass the result as ``calls=`` with each refill
    (see :func:`stat_from_grams`).  Each direction maps to ``(source,
    dots, calls)``: what the list serves (see :func:`_source`), the
    (..., len(lags), n) buffer of its row dots, and the list of
    :func:`_tile_calls` on these buffers, about half a kilobyte of views
    per call.  A list keeps its buffers alive, and its runs overwrite
    ``dots``, so it belongs to one caller and thread.
    """
    calls = {}
    for direction, lags in _singles(cfg)[2].items():
        dots = np.empty(g1.shape[:-2] + (len(lags), g1.shape[-1]))
        sweep = list(_tile_calls(g1, g2, direction, lags, dots))
        calls[direction] = _source(g1, g2, direction, lags), dots, sweep
    return calls


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
    configs need is computed once: each direction's lags come from one
    :func:`_lag_terms` pass and one assembly over the lag axis
    (:func:`_lag_stats`), and lag 0 belongs to direction 1.  Joint sums
    add their singles in ascending m, so each value has the bits it has
    when its config is passed alone, and the bits of
    :func:`single_from_grams` on each lag.

    ``calls`` is internal plumbing: the call lists that :func:`_pass_calls`
    built on these same buffers for this ``cfg``.  A caller that refills
    one pair of Gram buffers passes them with every refill, and the pass
    then runs its row dots without building the calls again.  Without
    ``calls`` each pass builds its own.
    """
    cfgs, keys, lags = _singles(cfg)
    # Row-major layout, so that every window's column sums add the rows in
    # the order hsic_v adds them.
    g1, g2 = np.ascontiguousarray(g1, dtype=float), np.ascontiguousarray(g2, dtype=float)
    n = g1.shape[-1]
    singles = {}
    for direction, ms in lags.items():
        if n - ms[-1] < 2:
            m = next(m for m in ms if n - m < 2)
            raise DataError(f"lag m={m} leaves fewer than 2 pairs (n={n})")
        terms = _lag_terms(g1, g2, direction, ms, calls=calls[direction] if calls else None)
        values = _lag_stats(g1, g2, direction, ms, terms)
        singles.update(((direction, m), values[..., j]) for j, m in enumerate(ms))
    out = np.empty(g1.shape[:-2] + (len(cfgs),))
    for i, (c, ks) in enumerate(zip(cfgs, keys)):
        out[..., i] = sum(singles[key] for key in ks) if c.is_joint else singles[ks[0]]
    if isinstance(cfg, LagConfig):
        return out[..., 0] if g1.ndim == 3 else float(out[0])
    return out
