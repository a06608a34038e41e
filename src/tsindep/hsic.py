"""HSIC V-statistics and the single / joint test statistics built on them.

Given paired innovation estimates ``eta1`` (n x d1) and ``eta2`` (n x d2),
the single statistic at lag ``m >= 0`` measures dependence between

- direction 1: ``eta1[t]`` and ``eta2[t + m]``  (series 1 leading), and
- direction 2: ``eta1[t + m]`` and ``eta2[t]``  (series 2 leading),

over the N = n - m overlapping pairs; the joint statistic sums the single
statistics over lags 0..M.  Under independence the scaled statistics
``n * stat`` are stochastically bounded, which is what the residual
bootstrap (see :mod:`tsindep.bootstrap`) calibrates against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .kernels import GramMatrix, KernelSpec, as_points, gram_matrix

_REFERENCE_MAX_N = 50
# Bytes of one row tile of a Gram in the multi-lag pass (see _lag_terms).
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

    so neither H nor any other N x N temporary is formed.  The column sums
    add the rows top-down, and the cross term takes one BLAS dot product
    per pair of rows K_i, L_i.  For row-major input neither depends on the
    row stride or the buffer's alignment, so a principal-submatrix view
    gives the same bits as a contiguous copy of it, and
    :func:`stat_from_grams` reproduces this value exactly from sums it
    shares across lags.  When either Gram matrix is constant the
    result is exactly 0.0; otherwise it is nonnegative up to roundoff
    whenever both kernels are positive definite.

    Two (nb, N, N) stacks give the (nb,) values of their item pairs, each
    with the bits of that pair alone; two N x N matrices give a float.
    """
    k = _gram_values(K)
    l = _gram_values(L)
    if k.shape != l.shape:
        raise DataError(f"Gram size mismatch: {k.shape} vs {l.shape}")
    if k.shape[-1] < 2:
        raise DataError("need at least 2 points")
    stat = _hsic_from_terms(k, l, (k.sum(axis=-2), l.sum(axis=-2), _row_dots(k, l)))
    return stat if k.ndim == 3 else float(stat)


def _row_dots(k: np.ndarray, l: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``k[..., i, :] . l[..., i, :]`` for every row i, one BLAS dot per row."""
    if out is None:
        out = np.empty(k.shape[:-1])
    np.matmul(k[..., None, :], l[..., :, None], out=out[..., None, None])
    return out


def _hsic_from_terms(k: np.ndarray, l: np.ndarray, terms):
    """:func:`hsic_v` from its column sums and row dots ``(c_k, c_l, dots)``.

    Each term carries the stack axes of ``k`` and ``l``, if any, first,
    and so does the result.
    """
    c_k, c_l, dots = terms
    n = k.shape[-1]
    stat = (
        dots.sum(axis=-1) / n**2
        + c_k.sum(axis=-1) * c_l.sum(axis=-1) / n**4
        - 2.0 * _row_dots(c_k, c_l) / n**3
    )
    for g, c in ((k, c_k), (l, c_l)):
        # Equal column sums are necessary for a constant matrix and cost
        # O(N) to test; only then is the full O(N^2) comparison made.
        maybe = (c == c[..., :1]).all(axis=-1)
        if maybe.any():
            stat = np.where(maybe & (g == g[..., :1, :1]).all(axis=(-2, -1)), 0.0, stat)
    return stat


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


def single_from_grams(
    g1: np.ndarray, g2: np.ndarray, m: int, direction: int, terms=None
) -> float | np.ndarray:
    """Single-lag statistic from precomputed full n x n Gram matrices.

    ``g1[i, j] = k(eta1_i, eta1_j)`` and likewise ``g2``; the lagged pairing
    only selects a contiguous principal submatrix of each, so one Gram
    computation per series serves every lag.  Entry-identical to
    :func:`single_stat` on the same residuals.  ``terms`` optionally holds
    the submatrices' ``(c_k, c_l, dots)`` as :func:`_lag_terms` computes
    them, which gives the same bits as computing them here.  Two
    (nb, n, n) stacks give (nb,) values, as in :func:`hsic_v`.
    """
    n = g1.shape[-1]
    big = n - m
    if big < 2:
        raise DataError(f"lag m={m} leaves fewer than 2 pairs (n={n})")
    ko, lo = _window_offsets(m, direction)
    k, l = g1[..., ko : ko + big, ko : ko + big], g2[..., lo : lo + big, lo : lo + big]
    if terms is None:
        return hsic_v(k, l)
    stat = _hsic_from_terms(k, l, terms)
    return stat if g1.ndim == 3 else float(stat)


def _lag_terms(g1: np.ndarray, g2: np.ndarray, direction: int, lags) -> dict:
    """:func:`hsic_v`'s ``(c_k, c_l, dots)`` for every lag in one pass.

    ``g1`` and ``g2`` are two n x n matrices or two (nb, n, n) stacks; a
    stack's terms carry its axis first.  At lag m one Gram enters through
    its leading window ``G[:n-m, :n-m]`` (``g1`` in direction 1, ``g2`` in
    direction 2) and the other through its trailing window ``G[m:, m:]``.
    The leading windows' column sums are prefixes of one top-down
    accumulation over the rows, so the sums of all lags cost one pass;
    the trailing windows start at different rows and keep their own sums.
    The row dots of every lag are computed in one sweep over row tiles of
    ``_TILE_BYTES`` across the whole stack, so each tile of both stacks
    stays in cache across the lags.  Every term of a stack item has the
    bits :func:`hsic_v` gives on the two windows of that item alone.
    """
    if g1.ndim not in (2, 3) or g1.shape != g2.shape or g1.shape[-1] != g1.shape[-2]:
        raise DataError(f"Gram size mismatch: {g1.shape} vs {g2.shape}")
    n = g1.shape[-1]
    lead, trail = (g1, g2) if direction == 1 else (g2, g1)
    top = n - max(lags)
    acc = lead[..., :top, :].sum(axis=-2)
    lead_sums = {}
    for m in sorted(lags, reverse=True):
        for r in range(top, n - m):
            acc += lead[..., r, :]
        top = n - m
        lead_sums[m] = acc[..., :top].copy()
    dots = {m: np.empty(g1.shape[:-2] + (n - m,)) for m in lags}
    # A tile holds the same rows of every item, so its bytes grow with the stack.
    rows = max(1, _TILE_BYTES // (8 * g1[..., 0, :].size))
    for r0 in range(0, n, rows):
        for m in lags:
            big = n - m
            r1 = min(r0 + rows, big)
            if r0 < r1:
                ko, lo = _window_offsets(m, direction)
                k = g1[..., ko + r0 : ko + r1, ko : ko + big]
                l = g2[..., lo + r0 : lo + r1, lo : lo + big]
                _row_dots(k, l, dots[m][..., r0:r1])
    terms = {}
    for m in lags:
        trail_sums = trail[..., m:, m:].sum(axis=-2)
        c_k, c_l = (lead_sums[m], trail_sums) if direction == 1 else (trail_sums, lead_sums[m])
        terms[m] = (c_k, c_l, dots[m])
    return terms


def stat_from_grams(
    g1: np.ndarray, g2: np.ndarray, cfg: LagConfig, singles: dict | None = None
) -> float | np.ndarray:
    """Raw single or joint statistic from full Gram matrices (see above).

    ``g1`` and ``g2`` are two n x n matrices, which give a float, or two
    (nb, n, n) stacks, which give the (nb,) statistics of their item
    pairs in one pass; item ``i`` has the bits of the pair
    ``g1[i], g2[i]`` alone.

    ``singles`` optionally maps ``(direction, m)`` to the value of
    :func:`single_from_grams` at that lag; missing entries are computed
    and added.  Several configs evaluated on the same ``g1, g2`` then
    compute each distinct single once.  The dict belongs to that one pair
    of Grams (or stacks): pass a fresh one for every new pair.  At m = 0
    both directions evaluate :func:`hsic_v` on the same two full
    matrices, so they share the key ``(1, 0)``.  The missing lags of one
    config are computed in one pass (:func:`_lag_terms`), and joint sums
    still add the singles in ascending m, so every config gets the same
    bits with or without the dict.
    """
    if singles is None:
        singles = {}
    # Row-major layout, so that every window's column sums add top-down.
    g1, g2 = np.ascontiguousarray(g1, dtype=float), np.ascontiguousarray(g2, dtype=float)
    lags = range(cfg.max_lag + 1) if cfg.is_joint else [cfg.m]
    keys = {m: (cfg.direction if m else 1, m) for m in lags}
    missing = [m for m in lags if keys[m] not in singles]
    # Infeasible lags get no terms, so single_from_grams reports them.
    feasible = [m for m in missing if g1.shape[-1] - m >= 2]
    terms = _lag_terms(g1, g2, cfg.direction, feasible) if feasible else {}
    for m in missing:
        singles[keys[m]] = single_from_grams(g1, g2, m, cfg.direction, terms.get(m))
    if not cfg.is_joint:
        return singles[keys[cfg.m]]
    total = sum(singles[keys[m]] for m in lags)
    return total if g1.ndim == 3 else float(total)
