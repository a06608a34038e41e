"""Cross-correlation based independence tests with asymptotic references.

Four families, all operating on residual series:

- G: portmanteau sum of quadratic forms of cross-correlation matrices over
  lags -M..M, chi-square reference with (2M+1) d1 d2 degrees of freedom.
- W: spectral statistic weighting squared cross-correlation quadratic
  forms over all lags with the squared Daniell kernel, standard normal
  reference.  Operates on raw series prewhitened by VAR(p) fits.
- L: portmanteau on the squared-norm transform q_t = eta_t' eta_t
  (scalar), chi-square with 2M+1 degrees of freedom.
- T: portmanteau on the half-vectorized outer products vech(eta eta'),
  chi-square with (2M+1) d1* d2*, ds* = ds (ds + 1) / 2.

Variant 2 of each test applies the small-sample lag weights n/(n-|m|)
(G) or n^2/(n-|m|) in place of n (L, T).

Cross-covariances subtract full-sample column means and divide by n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, SingularityError
from .hsic import PairedResiduals
from .kernels import as_points
from .models import fit_var
from .results import TestOutcome
from .special import chi2_sf, norm_sf

_COND_LIMIT = 1e12


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
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularityError(f"{what} is numerically singular (cond={cond:.3g})")
    return np.linalg.inv(mat)


def _corr_normalizers(r0: np.ndarray) -> np.ndarray:
    d = np.diag(r0)
    if (d <= 0).any():
        raise SingularityError("a residual component has zero variance")
    return 1.0 / np.sqrt(d)


# ---------------------------------------------------------------------------
# G: portmanteau on residual cross-correlations
# ---------------------------------------------------------------------------


def _lag0_correlations(e1: np.ndarray, e2: np.ndarray):
    """Column scalings ``s = 1 / sd`` and inverse lag-zero correlation
    matrices of both series: ``(s1, s2, R11(0)^-1, R22(0)^-1)``."""
    c11 = cross_cov(e1, e1, 0)
    c22 = cross_cov(e2, e2, 0)
    s1 = _corr_normalizers(c11)
    s2 = _corr_normalizers(c22)
    r11_inv = _inv_sym(s1[:, None] * c11 * s1[None, :], "lag-zero correlation of series 1")
    r22_inv = _inv_sym(s2[:, None] * c22 * s2[None, :], "lag-zero correlation of series 2")
    return s1, s2, r11_inv, r22_inv


def _correlation_quadratics(e1: np.ndarray, e2: np.ndarray, lags) -> np.ndarray:
    """n * vec(R12(m))' [R22(0)^-1 kron R11(0)^-1] vec(R12(m)) per lag."""
    n = e1.shape[0]
    s1, s2, r11_inv, r22_inv = _lag0_correlations(e1, e2)
    out = np.empty(len(lags))
    for i, m in enumerate(lags):
        r12 = s1[:, None] * cross_cov(e1, e2, m) * s2[None, :]
        out[i] = n * float(np.einsum("ab,ac,cd,bd->", r12, r11_inv, r12, r22_inv))
    return out


def g_test(res: PairedResiduals, max_lag: int, variant: int = 1) -> TestOutcome:
    """Cross-correlation portmanteau test over lags -M..M."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    n = res.n
    if max_lag >= n - 1:
        raise DataError(f"max_lag {max_lag} infeasible for n={n}")
    lags = list(range(-max_lag, max_lag + 1))
    z = _correlation_quadratics(res.eta1, res.eta2, lags)
    if variant == 2:
        weights = np.array([n / (n - abs(m)) for m in lags])
        z = z * weights
    stat = float(z.sum())
    d1 = res.eta1.shape[1]
    d2 = res.eta2.shape[1]
    df = (2 * max_lag + 1) * d1 * d2
    return TestOutcome(
        name=f"G{variant}({max_lag})",
        statistic=stat,
        scaled=stat,
        p_value=chi2_sf(stat, df),
        reference=f"chi2({df})",
        n=n,
        lag=max_lag,
        variant=variant,
        df=df,
    )


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
        p = 3 if y1.shape[0] <= 150 else 6
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


def _squared_norms(eta: np.ndarray) -> np.ndarray:
    return np.einsum("ti,ti->t", eta, eta)


def _l_setup(res: PairedResiduals):
    """Squared-norm series ``(q1, q2)`` and the product of their standard
    deviations, the denominator of every lag's correlation."""
    q1 = _squared_norms(res.eta1)
    q2 = _squared_norms(res.eta2)
    v1 = cross_cov(q1[:, None], q1[:, None], 0)[0, 0]
    v2 = cross_cov(q2[:, None], q2[:, None], 0)[0, 0]
    for q, v in ((q1, v1), (q2, v2)):
        if v <= 1e-18 * max(1.0, float(np.mean(q)) ** 2):
            raise DataError("squared-norm series is constant; L statistic undefined")
    return q1, q2, np.sqrt(v1 * v2)


def _l_term(q1: np.ndarray, q2: np.ndarray, m: int, scale) -> float:
    """Lag-m cross-correlation of the squared-norm series."""
    return float(cross_cov(q1[:, None], q2[:, None], m)[0, 0] / scale)


def l_test(res: PairedResiduals, max_lag: int, variant: int = 1) -> TestOutcome:
    """Portmanteau on cross-correlations of squared residual norms."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    n = res.n
    if max_lag >= n - 1:
        raise DataError(f"max_lag {max_lag} infeasible for n={n}")
    q1, q2, scale = _l_setup(res)
    stat = 0.0
    for m in range(-max_lag, max_lag + 1):
        rho = _l_term(q1, q2, m, scale)
        weight = n if variant == 1 else n * n / (n - abs(m))
        stat += weight * rho * rho
    df = 2 * max_lag + 1
    stat = float(stat)
    return TestOutcome(
        name=f"L{variant}({max_lag})",
        statistic=stat,
        scaled=stat,
        p_value=chi2_sf(stat, df),
        reference=f"chi2({df})",
        n=n,
        lag=max_lag,
        variant=variant,
        df=df,
    )


def _vech(eta: np.ndarray) -> np.ndarray:
    """Half-vectorization of the per-observation outer products."""
    d = eta.shape[1]
    rows, cols = np.tril_indices(d)
    return eta[:, rows] * eta[:, cols]


def _t_setup(res: PairedResiduals):
    """vech transforms ``(phi1, phi2)`` and their inverse lag-zero covariances."""
    phi1 = _vech(res.eta1)
    phi2 = _vech(res.eta2)
    c11_inv = _inv_sym(cross_cov(phi1, phi1, 0), "lag-zero covariance of vech transform (1)")
    c22_inv = _inv_sym(cross_cov(phi2, phi2, 0), "lag-zero covariance of vech transform (2)")
    return phi1, phi2, c11_inv, c22_inv


def _t_term(phi1: np.ndarray, phi2: np.ndarray, m: int, c11_inv, c22_inv) -> float:
    c12 = cross_cov(phi1, phi2, m)
    return float(np.trace(c12.T @ c11_inv @ c12 @ c22_inv))


def t_test(res: PairedResiduals, max_lag: int, variant: int = 1) -> TestOutcome:
    """Portmanteau on cross-covariances of vech(eta eta') transforms."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    n = res.n
    if max_lag >= n - 1:
        raise DataError(f"max_lag {max_lag} infeasible for n={n}")
    phi1, phi2, c11_inv, c22_inv = _t_setup(res)
    stat = 0.0
    for m in range(-max_lag, max_lag + 1):
        weight = n if variant == 1 else n * n / (n - abs(m))
        stat += weight * _t_term(phi1, phi2, m, c11_inv, c22_inv)
    d1s = phi1.shape[1]
    d2s = phi2.shape[1]
    df = (2 * max_lag + 1) * d1s * d2s
    stat = float(stat)
    return TestOutcome(
        name=f"T{variant}({max_lag})",
        statistic=stat,
        scaled=stat,
        p_value=chi2_sf(stat, df),
        reference=f"chi2({df})",
        n=n,
        lag=max_lag,
        variant=variant,
        df=df,
    )


def single_lag_stat(res: PairedResiduals, m: int, family: str, direction: int = 1):
    """One-lag L or T statistic with its chi-square degrees of freedom.

    Direction 1 uses lag +m, direction 2 lag -m; summing both directions
    over 0..M (counting lag 0 once) reproduces the joint statistics.
    """
    if family not in ("L", "T"):
        raise ValueError("family must be 'L' or 'T'")
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    n = res.n
    if m >= n - 1:
        raise DataError(f"lag {m} infeasible for n={n}")
    lag = m if direction == 1 else -m
    if family == "L":
        q1, q2, scale = _l_setup(res)
        rho = _l_term(q1, q2, lag, scale)
        return float(n * rho * rho), 1
    phi1, phi2, c11_inv, c22_inv = _t_setup(res)
    df = phi1.shape[1] * phi2.shape[1]
    return float(n * _t_term(phi1, phi2, lag, c11_inv, c22_inv)), df
