"""Cross-correlation based independence tests with asymptotic references.

Four families, all operating on residual series:

- G: portmanteau sum of quadratic forms of cross-correlation matrices over
  lags -M..M, chi-square reference with (2M+1) d1 d2 degrees of freedom.
- W: spectral statistic weighting squared cross-correlation quadratic
  forms over all lags with the squared Daniell kernel, standard normal
  reference.  Operates on raw series prewhitened by VAR(p) fits.
- L: the G statistic on the squared-norm transform q_t = eta_t' eta_t
  (scalar), chi-square with 2M+1 degrees of freedom.
- T: the G statistic on the half-vectorized outer products vech(eta eta'),
  chi-square with (2M+1) d1* d2*, ds* = ds (ds + 1) / 2.

G, L and T share one engine, :func:`_correlation_quadratics`: each lag's
quadratic form n vec(R12(m))' [R22(0)^-1 kron R11(0)^-1] vec(R12(m)) on
column-equilibrated correlations (El Himdi and Roy, Canadian Journal of
Statistics 25(2), 1997), so none of them depends on the columns' units.
Variant 2 of each test applies the small-sample lag weights n/(n-|m|).

Cross-covariances subtract full-sample column means and divide by n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, SingularityError
from .hsic import PairedResiduals
from .kernels import as_points
from .models import _COND_LIMIT, _sym_cond, fit_var
from .results import TestOutcome
from .special import chi2_sf, norm_sf

# What each portmanteau family correlates, for error messages.
_SERIES = {"G": "series", "L": "squared-norm series", "T": "vech transform"}


# ---------------------------------------------------------------------------
# Cross-covariances
# ---------------------------------------------------------------------------


def cross_cov(a, b, m: int) -> np.ndarray:
    """Lag-m sample cross-covariance matrix between series ``a`` and ``b``.

    Averages ``(a_t - abar)(b_{t+m} - bbar)'`` over the valid t, divided by
    the full length n.  Negative lags are defined through the reflection
    identity ``cross_cov(a, b, -m) = cross_cov(b, a, m)'``, which therefore
    holds exactly.
    """
    x = as_points(a)
    y = as_points(b)
    n = x.shape[0]
    if y.shape[0] != n:
        raise DataError("series must have equal length")
    if abs(m) >= n:
        raise DataError(f"|lag| {abs(m)} must be < n = {n}")
    if m < 0:
        return cross_cov(b, a, -m).T
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    return xc[: n - m].T @ yc[m:] / n


@dataclass(frozen=True)
class CrossCovSet:
    """Cross-covariance matrices for every lag in [-max_lag, max_lag]."""

    matrices: dict
    n: int
    max_lag: int

    def __getitem__(self, m: int) -> np.ndarray:
        return self.matrices[m]


def cross_cov_set(a, b, max_lag: int) -> CrossCovSet:
    mats = {m: cross_cov(a, b, m) for m in range(-max_lag, max_lag + 1)}
    return CrossCovSet(matrices=mats, n=as_points(a).shape[0], max_lag=max_lag)


def _inv_sym(mat: np.ndarray, what: str) -> np.ndarray:
    cond = _sym_cond(mat)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularityError(f"{what} is numerically singular (cond={cond:.3g})")
    return np.linalg.inv(mat)


def _corr_normalizers(r0: np.ndarray, what: str) -> np.ndarray:
    d = np.diag(r0)
    if (d <= 0).any():
        raise SingularityError(f"a component of {what} has zero variance")
    return 1.0 / np.sqrt(d)


# ---------------------------------------------------------------------------
# G: portmanteau on residual cross-correlations
# ---------------------------------------------------------------------------


def _lag0_correlations(e1: np.ndarray, e2: np.ndarray, what: str = "series"):
    """Column scalings ``s = 1 / sd`` and inverse lag-zero correlation
    matrices of both series: ``(s1, s2, R11(0)^-1, R22(0)^-1)``.  ``what``
    names the series in error messages."""
    c11 = cross_cov(e1, e1, 0)
    c22 = cross_cov(e2, e2, 0)
    s1 = _corr_normalizers(c11, f"{what} 1")
    s2 = _corr_normalizers(c22, f"{what} 2")
    r11_inv = _inv_sym(s1[:, None] * c11 * s1[None, :], f"lag-zero correlation of {what} 1")
    r22_inv = _inv_sym(s2[:, None] * c22 * s2[None, :], f"lag-zero correlation of {what} 2")
    return s1, s2, r11_inv, r22_inv


def _correlation_quadratics(
    x1: np.ndarray, x2: np.ndarray, lags, what: str = "series"
) -> np.ndarray:
    """n * vec(R12(m))' [R22(0)^-1 kron R11(0)^-1] vec(R12(m)) per lag.

    Both series are centred once; each lag's cross-covariance is the
    expression of :func:`cross_cov`, reflection for m < 0 included, so
    every value has the bits of one built through it.  ``what`` names the
    series in error messages.
    """
    n = x1.shape[0]
    s1, s2, r11_inv, r22_inv = _lag0_correlations(x1, x2, what)
    xc = x1 - x1.mean(axis=0)
    yc = x2 - x2.mean(axis=0)
    out = np.empty(len(lags))
    for i, m in enumerate(lags):
        c12 = xc[: n - m].T @ yc[m:] / n if m >= 0 else (yc[: n + m].T @ xc[-m:] / n).T
        r12 = s1[:, None] * c12 * s2[None, :]
        out[i] = n * float(np.einsum("ab,ac,cd,bd->", r12, r11_inv, r12, r22_inv))
    return out


def _portmanteau_n(res: PairedResiduals, max_lag: int, variant: int) -> int:
    """``res.n``, once the variant is 1 or 2 and lags -M..M leave two rows."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    n = res.n
    if max_lag >= n - 1:
        raise DataError(f"max_lag {max_lag} infeasible for n={n}")
    return n


def _chi2_outcome(family: str, stat, df: int, n: int, max_lag: int, variant: int) -> TestOutcome:
    """The :class:`TestOutcome` of a G, L or T portmanteau against chi2(df)."""
    stat = float(stat)
    return TestOutcome(
        name=f"{family}{variant}({max_lag})",
        statistic=stat,
        scaled=stat,
        p_value=chi2_sf(stat, df),
        reference=f"chi2({df})",
        n=n,
        lag=max_lag,
        variant=variant,
        df=df,
    )


def _portmanteau(
    family: str, x1: np.ndarray, x2: np.ndarray, n: int, max_lag: int, variant: int
) -> TestOutcome:
    """G's statistic on the series ``x1``, ``x2`` over lags -M..M, against
    chi2((2M+1) d1 d2) with the widths d1, d2 of the two series."""
    lags = list(range(-max_lag, max_lag + 1))
    z = _correlation_quadratics(x1, x2, lags, _SERIES[family])
    if variant == 2:
        weights = np.array([n / (n - abs(m)) for m in lags])
        z = z * weights
    df = (2 * max_lag + 1) * x1.shape[1] * x2.shape[1]
    return _chi2_outcome(family, z.sum(), df, n, max_lag, variant)


def g_test(res: PairedResiduals, max_lag: int, variant: int = 1) -> TestOutcome:
    """Cross-correlation portmanteau test over lags -M..M."""
    n = _portmanteau_n(res, max_lag, variant)
    return _portmanteau("G", res.eta1, res.eta2, n, max_lag, variant)


# ---------------------------------------------------------------------------
# W: spectral test with the Daniell kernel
# ---------------------------------------------------------------------------


def daniell(z) -> np.ndarray | float:
    """The Daniell kernel sin(pi z) / (pi z), with value 1 at z = 0."""
    return np.sinc(z)


def bandwidth_rule(rule: str, n: int) -> int:
    """Bandwidths h1 = [log n], h2 = [3 n^0.2], h3 = [3 n^0.3]."""
    if n < 8:
        raise DataError("bandwidth rules require n >= 8")
    if rule == "h1":
        return int(np.log(n))
    if rule == "h2":
        return int(3.0 * n**0.2)
    if rule == "h3":
        return int(3.0 * n**0.3)
    raise ValueError("rule must be one of 'h1', 'h2', 'h3'")


def _daniell_finite_sample_constants(n: int, h: float):
    m = np.arange(1 - n, n)
    k2 = np.sinc(m / h) ** 2
    a1n = float(((1.0 - np.abs(m) / n) * k2).sum())
    b1n = float(((1.0 - np.abs(m) / n) * (1.0 - (np.abs(m) + 1.0) / n) * k2**2).sum())
    return a1n, b1n


def _all_lag_quadratics(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Correlation quadratic forms for every lag 1-n..n-1, in lag order."""
    n, d1 = e1.shape
    d2 = e2.shape[1]
    s1, s2, r11_inv, r22_inv = _lag0_correlations(e1, e2)
    xc = (e1 - e1.mean(axis=0)) * s1[None, :]
    yc = (e2 - e2.mean(axis=0)) * s2[None, :]
    # r12[m] for m >= 0 via one correlation pass per component pair
    r_pos = np.empty((n, d1, d2))
    r_neg = np.empty((n, d1, d2))
    for i in range(d1):
        for j in range(d2):
            full = np.correlate(yc[:, j], xc[:, i], mode="full") / n
            # full[k] = sum_t xc[t] yc[t + k - (n-1)]
            r_pos[:, i, j] = full[n - 1 :]
            r_neg[:, i, j] = full[: n][::-1]
    quad_pos = n * np.einsum("mab,ac,mcd,bd->m", r_pos, r11_inv, r_pos, r22_inv)
    quad_neg = n * np.einsum("mab,ac,mcd,bd->m", r_neg, r11_inv, r_neg, r22_inv)
    return np.concatenate([quad_neg[1:][::-1], quad_pos])  # lags 1-n .. n-1


def _prewhitening_order(n: int) -> int:
    """VAR order :func:`w_test` prewhitens n rows with by default."""
    return 3 if n <= 150 else 6


def w_test(
    raw_data1,
    raw_data2,
    p: int | None = None,
    h: float | str = "h1",
    variant: int = 1,
) -> TestOutcome:
    """Spectral cross-correlation test on VAR(p)-prewhitened raw series.

    ``p`` defaults to 3 for n <= 150 and 6 above.  ``h`` may be a bandwidth
    or one of the rules ``'h1'/'h2'/'h3'``.  Variant 1 standardizes with
    the finite-sample constants A1n(h), B1n(h); variant 2 with their limits
    h * A1 and 2h * B1 (A1 = 1, B1 = 2/3 for the Daniell kernel).
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    y1 = as_points(raw_data1)
    y2 = as_points(raw_data2)
    if y1.shape[0] != y2.shape[0]:
        raise DataError("series must have equal length")
    if p is None:
        p = _prewhitening_order(y1.shape[0])
    fit1 = fit_var(y1, p=p, intercept=True)
    fit2 = fit_var(y2, p=p, intercept=True)
    e1 = fit1.effective_residuals
    e2 = fit2.effective_residuals
    n = e1.shape[0]
    if isinstance(h, str):
        h = bandwidth_rule(h, n)
    h = float(h)
    if not 1 <= h < n:
        raise DataError(
            f"bandwidth h={h} must lie in [1, n) for n={n} prewhitened residual rows"
        )
    d1 = e1.shape[1]
    d2 = e2.shape[1]
    quads = _all_lag_quadratics(e1, e2)
    m = np.arange(1 - n, n)
    k2 = np.sinc(m / h) ** 2
    weighted = float((k2 * quads).sum())
    if variant == 1:
        a1n, b1n = _daniell_finite_sample_constants(n, h)
        stat = (weighted - d1 * d2 * a1n) / np.sqrt(2.0 * d1 * d2 * b1n)
    else:
        stat = (weighted - h * d1 * d2 * 1.0) / np.sqrt(2.0 * h * d1 * d2 * (2.0 / 3.0))
    stat = float(stat)
    return TestOutcome(
        name=f"W{variant}({int(h)})",
        statistic=stat,
        scaled=stat,
        p_value=norm_sf(stat),
        reference="normal",
        n=n,
        lag=int(h),
        variant=variant,
    )


# ---------------------------------------------------------------------------
# L and T: tests on transformed residuals
# ---------------------------------------------------------------------------


def _squared_norms(res: PairedResiduals):
    """The squared-norm series ``(q1, q2)`` as n x 1 columns, once neither
    is constant."""
    q1 = np.einsum("ti,ti->t", res.eta1, res.eta1)[:, None]
    q2 = np.einsum("ti,ti->t", res.eta2, res.eta2)[:, None]
    for q in (q1, q2):
        v = cross_cov(q, q, 0)[0, 0]
        if v <= 1e-18 * max(1.0, float(np.mean(q)) ** 2):
            raise DataError("squared-norm series is constant; L statistic undefined")
    return q1, q2


def l_test(res: PairedResiduals, max_lag: int, variant: int = 1) -> TestOutcome:
    """Portmanteau on cross-correlations of squared residual norms."""
    n = _portmanteau_n(res, max_lag, variant)
    return _portmanteau("L", *_squared_norms(res), n, max_lag, variant)


def _vech(eta: np.ndarray) -> np.ndarray:
    """Half-vectorization of the per-observation outer products."""
    d = eta.shape[1]
    rows, cols = np.tril_indices(d)
    return eta[:, rows] * eta[:, cols]


def t_test(res: PairedResiduals, max_lag: int, variant: int = 1) -> TestOutcome:
    """Portmanteau on cross-correlations of vech(eta eta') transforms."""
    n = _portmanteau_n(res, max_lag, variant)
    return _portmanteau("T", _vech(res.eta1), _vech(res.eta2), n, max_lag, variant)


def _single_lag_scan(res: PairedResiduals, lags, family: str, direction: int = 1):
    """L or T statistics at the lags ``m`` in ``lags`` of one direction, with
    their chi-square degrees of freedom: ``(values, df)``.

    Direction 1 uses lag +m, direction 2 lag -m.  One engine call serves
    every lag, and each value has the bits of a call for its lag alone.
    """
    if family not in ("L", "T"):
        raise ValueError("family must be 'L' or 'T'")
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    n = res.n
    if max(lags) >= n - 1:
        raise DataError(f"lag {max(lags)} infeasible for n={n}")
    if family == "L":
        x1, x2 = _squared_norms(res)
    else:
        x1, x2 = _vech(res.eta1), _vech(res.eta2)
    signed = [m if direction == 1 else -m for m in lags]
    z = _correlation_quadratics(x1, x2, signed, _SERIES[family])
    return z, x1.shape[1] * x2.shape[1]


def single_lag_stat(res: PairedResiduals, m: int, family: str, direction: int = 1):
    """One-lag L or T statistic with its chi-square degrees of freedom.

    Direction 1 uses lag +m, direction 2 lag -m; summing both directions
    over 0..M (counting lag 0 once) reproduces the joint statistics.
    """
    z, df = _single_lag_scan(res, [m], family, direction)
    return float(z[0]), df
