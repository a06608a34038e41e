"""Upper-tail probabilities needed to turn test statistics into p-values.

Thin wrappers over :mod:`scipy.special` (``chdtrc``, ``ndtr``,
``chdtri``) that reject invalid input with :class:`DataError` and return
Python floats.
"""

from __future__ import annotations

import math

from scipy.special import chdtrc, chdtri, ndtr

from .exceptions import DataError


def _check_df(df) -> None:
    if not 1 <= df < math.inf:
        raise DataError("degrees of freedom must be >= 1")


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-square with ``df`` degrees of freedom."""
    _check_df(df)
    if not math.isfinite(x):
        raise DataError("non-finite chi-square statistic")
    if x < 0.0:
        raise DataError("chi-square statistic must be nonnegative")
    return float(chdtrc(df, x))


def norm_sf(z: float) -> float:
    """P(Z > z) for standard normal Z."""
    if not math.isfinite(z):
        raise DataError("non-finite normal statistic")
    return float(ndtr(-z))


def chi2_quantile(p: float, df: int) -> float:
    """Inverse of the chi-square CDF at probability ``p``."""
    if not 0.0 < p < 1.0:
        raise DataError("quantile probability must lie in (0, 1)")
    _check_df(df)
    return float(chdtri(df, 1.0 - p))
