"""Kernel functions and Gram matrices for the RKHS dependence measures.

Four stationary kernel families are supported.  With ``r = ||u - v||``
(Euclidean norm):

- ``gaussian``:             k(u, v) = exp(-r^2 / (2 sigma^2))
- ``laplace``:              k(u, v) = exp(-r / sigma)
- ``inverse_multiquadric``: k(u, v) = (beta + r)^(-alpha)
- ``fbm``:                  k(u, v) = (||u||^2h + ||v||^2h - r^2h) / 2

The first three are bounded, characteristic and translation invariant; the
fractional Brownian motion kernel is unbounded and is included for
completeness (it falls outside the regularity conditions the bootstrap
tests rely on, and the CLI warns when it is selected there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .exceptions import DataError

FAMILIES = ("gaussian", "laplace", "inverse_multiquadric", "fbm")
# Rows of one tile of a Gram build (see gram_matrix); any value gives the
# same bits.  Grams of up to two tiles' rows are one tile, since a short
# second tile costs more in calls than it saves.
_GRAM_TILE_ROWS = 128


@dataclass(frozen=True)
class KernelSpec:
    """Descriptor of one kernel family plus its parameters.

    Exactly the parameters of the declared family must be set: ``sigma``
    for gaussian/laplace, ``alpha`` and ``beta`` for inverse_multiquadric,
    ``hurst`` for fbm.
    """

    family: str
    sigma: float | None = None
    alpha: float | None = None
    beta: float | None = None
    hurst: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        required = {
            "gaussian": ("sigma",),
            "laplace": ("sigma",),
            "inverse_multiquadric": ("alpha", "beta"),
            "fbm": ("hurst",),
        }[self.family]
        for name in ("sigma", "alpha", "beta", "hurst"):
            value = getattr(self, name)
            if name in required:
                if value is None or not np.isfinite(value):
                    raise ValueError(f"{self.family} kernel requires finite {name}")
            elif value is not None:
                raise ValueError(f"{self.family} kernel does not take {name}")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.hurst is not None and not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "KernelSpec":
        return cls("gaussian", sigma=float(sigma))

    @classmethod
    def laplace(cls, sigma: float = 1.0) -> "KernelSpec":
        return cls("laplace", sigma=float(sigma))

    @classmethod
    def inverse_multiquadric(cls, alpha: float = 1.0, beta: float = 1.0) -> "KernelSpec":
        return cls("inverse_multiquadric", alpha=float(alpha), beta=float(beta))

    @classmethod
    def fbm(cls, hurst: float = 0.5) -> "KernelSpec":
        return cls("fbm", hurst=float(hurst))

    def diagonal_value(self) -> float | None:
        """k(u, u), which is constant for all families except fbm."""
        if self.family in ("gaussian", "laplace"):
            return 1.0
        if self.family == "inverse_multiquadric":
            return float(self.beta ** -self.alpha)
        return None


@dataclass(frozen=True)
class GramMatrix:
    """An N x N matrix of kernel evaluations over all sample pairs.

    ``values`` may carry a leading stack axis, (nb, N, N): item ``i`` is
    then the Gram matrix of the i-th point set of a stack.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim not in (2, 3) or v.shape[-1] != v.shape[-2]:
            raise ValueError("Gram matrix must be square")

    @property
    def n_points(self) -> int:
        return self.values.shape[-1]


def as_points(x, min_rows: int = 1) -> np.ndarray:
    """Coerce ``x`` to a finite n x d float matrix (1-D input becomes n x 1)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise DataError(f"expected an n x d matrix, got ndim={pts.ndim}")
    if pts.shape[0] < min_rows:
        raise DataError(f"need at least {min_rows} rows, got {pts.shape[0]}")
    if pts.shape[1] == 0:
        raise DataError("points have no coordinates")
    if not np.all(np.isfinite(pts)):
        raise DataError("non-finite values in input points")
    return pts


def _exponent_scale(spec: KernelSpec) -> float:
    """The factor that turns r^2 (gaussian) or r (laplace) into the exponent.

    A multiply by this reciprocal gives the bits of a divide by ``-2 sigma^2``
    (``-sigma``) whenever that divisor is a power of two, as at sigma = 1,
    and is within one rounding of it otherwise.
    """
    if spec.family == "gaussian":
        return -1.0 / (2.0 * spec.sigma**2)
    return -1.0 / spec.sigma


def eval_kernel(spec: KernelSpec, u, v) -> float:
    """Evaluate k(u, v) for a single pair of points."""
    uu = np.asarray(u, dtype=float).ravel()
    vv = np.asarray(v, dtype=float).ravel()
    if uu.shape != vv.shape:
        raise DataError(f"dimension mismatch: {uu.shape} vs {vv.shape}")
    if not (np.all(np.isfinite(uu)) and np.all(np.isfinite(vv))):
        raise DataError("non-finite input to kernel evaluation")
    diff = uu - vv
    sq = float(diff @ diff)
    if spec.family == "gaussian":
        return float(np.exp(sq * _exponent_scale(spec)))
    if spec.family == "laplace":
        return float(np.exp(np.sqrt(sq) * _exponent_scale(spec)))
    if spec.family == "inverse_multiquadric":
        return float((spec.beta + np.sqrt(sq)) ** -spec.alpha)
    h = spec.hurst
    nu = float(uu @ uu) ** h
    nv = float(vv @ vv) ** h
    return 0.5 * (nu + nv - sq**h)


def _apply_kernel(spec: KernelSpec, vals: np.ndarray, norms, r0: int = 0, out=None) -> None:
    """Turn squared distances into kernel values.

    ``vals`` holds rows ``[r0, r0 + rows)`` and columns ``[r0, n)`` of a
    squared-distance matrix (or a stack of them); ``norms`` holds the
    ||u||^2h of all n points for fbm and is ``None`` otherwise.  The steps
    run in place on ``vals`` but the last, which writes the values into
    ``out`` (an array of ``vals``' shape, by default ``vals`` itself).
    That step is the same ufunc whatever ``out`` is, so the bits do not
    depend on it.
    """
    if out is None:
        out = vals
    if spec.family == "gaussian":
        vals *= _exponent_scale(spec)
        np.exp(vals, out=out)
    elif spec.family == "laplace":
        np.sqrt(vals, out=vals)
        vals *= _exponent_scale(spec)
        np.exp(vals, out=out)
    elif spec.family == "inverse_multiquadric":
        np.sqrt(vals, out=vals)
        vals += spec.beta
        np.power(vals, -spec.alpha, out=out)
    else:
        vals **= spec.hurst
        rows = norms[..., r0 : r0 + vals.shape[-2]]
        np.subtract(rows[..., :, None] + norms[..., None, r0:], vals, out=vals)
        np.multiply(vals, 0.5, out=out)


def gram_matrix(spec: KernelSpec, points, out: np.ndarray | None = None) -> GramMatrix:
    """Gram matrix of ``points`` (rows are observations) under ``spec``.

    ``points`` is one n x d point set or an (nb, n, d) stack of them; a
    stack gives (nb, n, n) values whose item ``i`` has the bits of the
    Gram matrix of ``points[i]`` alone.  The values are written into
    ``out`` if given (a C-contiguous float buffer of their shape, which
    lets a caller reuse one buffer across calls), else into a fresh
    array.

    The build runs in row tiles.  Tile ``[r0, r1)`` writes the squared
    distances of its upper block ``[r0:r1, r0:]`` (scipy's ``sqeuclidean``
    loop, which adds ``(u_k - v_k)**2`` coordinate by coordinate, so every
    entry is nonnegative and accurate), turns them into kernel values over
    the whole stack at once, and mirrors the part right of its diagonal
    block into the lower triangle, which halves the distance and kernel
    work.  When n is at most ``2 * _GRAM_TILE_ROWS`` one tile holds all
    rows: the distances go straight into ``out`` and the kernel runs in
    place.  Larger Grams take tiles of ``_GRAM_TILE_ROWS`` rows through a
    scratch buffer, whose kernel step writes the values into their block
    of the Gram.  Each entry is the same elementwise function of a sum of
    ``(a - b)**2`` terms, and those sums are equal for (i, j) and (j, i),
    so any tile size gives the same bits and the Gram matrix is exactly
    symmetric.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        pts = as_points(pts)
    elif 0 in pts.shape:
        raise DataError(f"empty point stack of shape {pts.shape}")
    elif not np.isfinite(pts).all():
        raise DataError("non-finite values in input points")
    n = pts.shape[-2]
    shape = pts.shape[:-1] + (n,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float array of shape {shape}")
    norms = None
    if spec.family == "fbm":
        flat = pts.reshape(-1, pts.shape[-1])
        norms = (np.einsum("ij,ij->i", flat, flat) ** spec.hurst).reshape(pts.shape[:-1])
    items = pts.reshape((-1,) + pts.shape[-2:])
    rows = n if n <= 2 * _GRAM_TILE_ROWS else _GRAM_TILE_ROWS
    scratch = None if rows == n else np.empty(rows * out.size // n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        values = out[..., r0:r1, r0:]
        sq = values if scratch is None else scratch[: values.size].reshape(values.shape)
        dists = sq.reshape((-1,) + sq.shape[-2:])
        for head, tail, item in zip(items[:, r0:r1], items[:, r0:], dists):
            cdist(head, tail, "sqeuclidean", out=item)
        _apply_kernel(spec, sq, norms, r0, out=values)
        if r1 < n:
            out[..., r1:, r0:r1] = values[..., r1 - r0 :].swapaxes(-1, -2)
    return GramMatrix(values=out)


def median_heuristic_sigma(points) -> float:
    """Bandwidth heuristic: median pairwise distance divided by sqrt(2).

    Offered as an option for real data; the tests in this package default
    to a fixed ``sigma = 1``.
    """
    pts = as_points(points, min_rows=2)
    dists = np.sqrt(pdist(pts, "sqeuclidean"))
    med = float(np.median(dists))
    if med <= 0.0:
        raise DataError("median pairwise distance is zero; cannot set bandwidth")
    return med / np.sqrt(2.0)
