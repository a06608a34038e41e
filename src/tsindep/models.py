"""Time-series models: fitting, residuals, forward simulation, influence.

Two model kinds are supported:

- ``var``: a d-dimensional VAR(p) estimated by multivariate least squares.
  Residuals are defined for t > p; the first p rows of the stored residual
  (and influence) matrices are zero-filled and excluded from everything
  downstream via ``FitResult.effective_residuals``.
- ``ccc_garch``: a bivariate GARCH(1,1) with constant conditional
  correlation in its standard form ``Y_t = D_t^{1/2} eps_t``, where
  ``D_t = diag(v_t,1, v_t,2)``, each component follows
  ``v_t,i = omega_i + alpha_i * Y_{t-1,i}^2 + beta_i * v_{t-1,i}``, and the
  i.i.d. innovations ``eps_t`` have unit variances and constant correlation
  ``rho`` (so the conditional covariance is ``v_t,12 = rho sqrt(v_t,1 v_t,2)``
  and the Gaussian quasi-likelihood is the usual CCC one).  Residuals are
  the component-wise standardized ``eps_hat_t = D_t^{-1/2} Y_t``; their
  sample correlation estimates ``rho``.

Every fit records per-observation influence values: the averaged influence
evaluated on a new sample is the one-step estimator update used by the
fast bootstrap.  For least squares the influence of observation t is
``vec(eta_t x_t' Gamma^{-1})`` (row-major vec, matching the parameter
layout); for the QMLE it is ``H^{-1} s_t`` with ``s_t`` the per-observation
score and ``H`` the observed information (minus the averaged Hessian of
the log-likelihood), so the one-step update is a Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.special import expit

from ._streams import FIT, substream
from .exceptions import BoundaryError, DataError, FitError, SingularityError
from .hsic import PairedResiduals
from .kernels import as_points

_COND_LIMIT = 1e12
_PSD_NEG_TOL = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Model kind plus structural options.

    ``p`` and ``intercept`` apply to ``var`` only; the GARCH order is fixed
    at (1, 1).
    """

    kind: str
    p: int = 1
    intercept: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("var", "ccc_garch"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "var" and self.p < 1:
            raise ValueError("VAR order p must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """A fitted model: estimates, residuals, influence values, init state.

    ``theta`` layout: for ``var``, the row-major stacking of the d x q
    coefficient matrix ``[intercept | A_1 | ... | A_p]``; for ``ccc_garch``,
    ``(omega1, alpha1, beta1, omega2, alpha2, beta2, rho)``.
    """

    model: ModelSpec
    theta: np.ndarray
    residuals: np.ndarray
    influence: np.ndarray
    n_obs: int
    presample: int
    init_values: Any
    loglik: float | None = None
    coef: np.ndarray | None = None
    gamma_inv: np.ndarray | None = None
    info_inv: np.ndarray | None = None
    x_hat: np.ndarray | None = None
    xinfo_inv: np.ndarray | None = None

    @property
    def effective_residuals(self) -> np.ndarray:
        return self.residuals[self.presample :]

    @property
    def effective_influence(self) -> np.ndarray:
        return self.influence[self.presample :]


# ---------------------------------------------------------------------------
# Symmetric PSD square roots
# ---------------------------------------------------------------------------


def psd_sqrt(V) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-_PSD_NEG_TOL * max|w|, 0)`` are clipped to zero; a
    more negative one raises :class:`SingularityError`.
    """
    mat = np.asarray(V, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DataError("psd_sqrt expects a square matrix")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(mat).max()))):
        raise DataError("psd_sqrt expects a symmetric matrix")
    w, u = np.linalg.eigh(0.5 * (mat + mat.T))
    scale = max(float(np.abs(w).max()), 1e-300)
    if w.min() < -_PSD_NEG_TOL * scale:
        raise SingularityError(f"matrix has a materially negative eigenvalue: {w.min():g}")
    w = np.clip(w, 0.0, None)
    root = (u * np.sqrt(w)) @ u.T
    return 0.5 * (root + root.T)


def _sqrt2x2(v1, v2, v12):
    """Entries (s11, s22, s12) of the symmetric sqrt of [[v1, v12], [v12, v2]].

    Closed form for PSD 2x2: (V + sqrt(det) I) / sqrt(trace + 2 sqrt(det)).
    Vectorized over leading dimensions.
    """
    det = v1 * v2 - v12 * v12
    s = np.sqrt(np.maximum(det, 0.0))
    t = np.sqrt(v1 + v2 + 2.0 * s)
    return (v1 + s) / t, (v2 + s) / t, v12 / t


# ---------------------------------------------------------------------------
# VAR(p) least squares
# ---------------------------------------------------------------------------


def _var_design(data: np.ndarray, p: int, intercept: bool):
    """Target rows and regressors ``[1 | y_{t-1} | ... | y_{t-p}]`` of a (..., n, d) stack."""
    n = data.shape[-2]
    cols = [data[..., p - j : n - j, :] for j in range(1, p + 1)]
    if intercept:
        cols.insert(0, np.ones(data.shape[:-2] + (n - p, 1)))
    return data[..., p:, :], np.concatenate(cols, axis=-1)


def _sym_cond(mat: np.ndarray):
    """2-norm condition number of each symmetric matrix of a (..., q, q)
    stack that should be positive definite: the ratio of its extreme
    eigenvalues, or inf when the smallest is <= 0."""
    w = np.linalg.eigvalsh(mat)
    lo, hi = w[..., 0], w[..., -1]
    return np.divide(hi, lo, out=np.full(lo.shape, np.inf), where=lo > 0)[()]


def _fit_var_batch(data: np.ndarray, p: int, intercept: bool):
    """VAR(p) least squares on every path of a (..., n, d) stack.

    Returns ``(coef, resid, valid, cond, gram)``: coefficients (..., d, q)
    laid out as ``[intercept | A_1 | ... | A_p]``, residuals (..., n - p, d),
    validity and the condition number (both (...,)), and the Gram X'X
    (..., q, q).  ``cond`` is that of the column-equilibrated Gram
    ``D^-1/2 X'X D^-1/2`` with ``D = diag(X'X)``, from its eigenvalues
    (:func:`_sym_cond`), so it measures collinearity and not the data's
    units: rescaling a series leaves it unchanged up to rounding.  A path
    is valid iff ``cond < _COND_LIMIT``; a path whose Gram is not finite
    (an overflowed path) or has a zero diagonal entry gets ``cond = inf``.
    The solve uses the raw Gram.  An invalid path is solved against the
    identity as a placeholder and neither raises nor warns, so bootstrap
    callers can count it against the failure budget.  Each path gets the bits that a
    stack of that one path gives, which is how :func:`fit_var` calls it.
    """
    target, design = _var_design(data, p, intercept)
    design_t = np.swapaxes(design, -1, -2)
    eye = np.eye(design.shape[-1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gram = design_t @ design
        xty = design_t @ target
        diag = np.diagonal(gram, axis1=-2, axis2=-1)
        usable = np.isfinite(gram).all(axis=(-2, -1)) & (diag > 0).all(axis=-1)
        inv_root = 1.0 / np.sqrt(diag)
        scaled = gram * inv_root[..., :, None] * inv_root[..., None, :]
        # The eigensolver does not converge on a non-finite matrix.
        cond = _sym_cond(np.where(usable[..., None, None], scaled, eye))
        cond = np.where(usable, cond, np.inf)
        valid = cond < _COND_LIMIT
        coef_t = np.linalg.solve(np.where(valid[..., None, None], gram, eye), xty)
        resid = target - design @ coef_t
    return np.swapaxes(coef_t, -1, -2), resid, valid, cond, gram


def _var_influence(coef, gamma_inv, data, p: int, intercept: bool):
    """Influence rows ``vec(eta_t x_t' Gamma^{-1})`` at ``coef`` on a (..., n, d) stack.

    ``eta_t`` is the residual at ``coef``; the result is (..., n - p, d q).
    """
    target, design = _var_design(data, p, intercept)
    resid = target - design @ np.swapaxes(coef, -1, -2)
    scaled = design @ gamma_inv
    return (resid[..., :, None] * scaled[..., None, :]).reshape(resid.shape[:-1] + (-1,))


def fit_var(data, p: int = 1, intercept: bool = False) -> FitResult:
    """Multivariate least squares for a VAR(p).

    Requires strictly more effective observations than parameters per
    equation, and a full-rank regressor matrix: the condition number of
    the column-equilibrated Gram ``D^-1/2 X'X D^-1/2`` (``D = diag(X'X)``)
    must be below 1e12, so the check does not depend on the data's units.
    Otherwise raises :class:`SingularityError`.
    """
    y = as_points(data, min_rows=2)
    n, d = y.shape
    q = d * p + (1 if intercept else 0)
    if n - p < q + 1:
        raise DataError(
            f"insufficient observations: n={n} leaves {n - p} rows for {q} regressors"
        )
    coef, resid, valid, cond, gram = (a[0] for a in _fit_var_batch(y[None], p, intercept))
    if not valid:
        raise SingularityError(f"rank-deficient VAR design (cond={cond:.3g})")
    gamma_inv = np.linalg.inv(gram / (n - p))
    residuals = np.zeros((n, d))
    residuals[p:] = resid
    influence = np.zeros((n, d * q))
    influence[p:] = _var_influence(coef, gamma_inv, y, p, intercept)
    return FitResult(
        model=ModelSpec("var", p=p, intercept=intercept),
        theta=coef.ravel().copy(),
        residuals=residuals,
        influence=influence,
        n_obs=n,
        presample=p,
        init_values=y[:p].copy(),
        coef=coef,
        gamma_inv=gamma_inv,
    )


def _var_companion(coef, p: int, intercept: bool) -> np.ndarray:
    """Companion matrix of the VAR(p) with coefficients ``[c | A_1 | ... | A_p]``."""
    d = coef.shape[0]
    companion = np.eye(d * p, k=-d)
    companion[:d] = coef[:, (1 if intercept else 0) :]
    return companion


# Rows per chunk of the VAR scan: the fastest of 12..32 for 1, 7 and 64
# paths of 600 and 1000 rows at d = 2 (2-core x86-64, one OpenBLAS thread).
_SCAN_CHUNK = 24


def _simulate_var(coef, p, intercept, innovations, init=None):
    """VAR(p) paths ``y_t = c + sum_j A_j y_{t-j} + e_t`` as a chunked linear scan.

    ``innovations`` is (n, d) or a stack (nb, n, d); ``init`` holds the p
    presample rows oldest first, so ``init[-1]`` is ``y_0`` (zeros by
    default).  With the companion matrix F and ``Phi_k = (F^k)[:d]``, the
    rows of a chunk of L = max(_SCAN_CHUNK, p) rows are the block-Toeplitz
    sum of the impulse responses ``Psi_k = Phi_k[:, :d]`` over ``e + c``
    (all chunks in one matmul) plus the previous chunk's last p rows carried
    in through ``Phi_1..Phi_L``; only that carry runs once per chunk.
    """
    e = np.asarray(innovations, dtype=float)
    d = e.shape[-1]
    n_out = e.shape[-2]
    batched = e.ndim == 3
    if not batched:
        e = e[None]
    nb = e.shape[0]
    if init is None:
        init = np.zeros((p, d))
    init = np.asarray(init, dtype=float)
    if init.shape != (p, d):
        raise DataError(f"init state must be {p} x {d}")
    if intercept:
        e = e + coef[:, 0]
    dp = d * p
    L = max(_SCAN_CHUNK, p)
    companion = _var_companion(coef, p, intercept)
    phi = np.empty((L + 1, d, dp))
    phi[0] = np.eye(d, dp)
    for k in range(L):
        phi[k + 1] = phi[k] @ companion
    # Row vectors: toep[j*d + a, k*d + b] = Psi_{k-j}[b, a] for k >= j, else 0,
    # and carry[r*d + a, k*d + b] = Phi_{k+1}[b, (p-1-r)*d + a] for state row r.
    lag = np.arange(L) - np.arange(L)[:, None]
    psi_t = np.concatenate([np.swapaxes(phi[:L, :, :d], 1, 2), np.zeros((1, d, d))])
    toep = psi_t[np.where(lag < 0, L, lag)].transpose(0, 2, 1, 3).reshape(L * d, L * d)
    carry = phi[1:].reshape(L, d, p, d)[:, :, ::-1].transpose(2, 3, 0, 1).reshape(dp, L * d)
    n_full, rest = divmod(n_out, L)
    out = np.zeros((nb, n_full + (rest > 0), L * d))
    np.matmul(e[:, : n_full * L].reshape(nb, n_full, L * d), toep, out=out[:, :n_full])
    if rest:
        tail = e[:, n_full * L :].reshape(nb, rest * d)
        out[:, n_full, : rest * d] = tail @ toep[: rest * d, : rest * d]
    state = init.reshape(dp)
    for k in range(out.shape[1]):
        out[:, k] += state @ carry
        state = out[:, k, -dp:]
    out = out.reshape(nb, out.shape[1] * L, d)[:, :n_out]
    return out if batched else out[0]


def _var_onestep_batch(fit: FitResult, data: np.ndarray):
    """One-step update of (nb, n, d) paths and the residuals at it.

    The update is the fit's coefficients plus the mean influence row.  With
    E the m residual rows at the fit and X their regressors, that mean is
    ``(E' X) Gamma^{-1} / m``, so no influence row is formed.
    """
    target, design = _var_design(data, fit.model.p, fit.model.intercept)
    resid = target - design @ np.swapaxes(fit.coef, -1, -2)
    coef = fit.coef + np.swapaxes(resid, -1, -2) @ design @ fit.gamma_inv / resid.shape[-2]
    return coef, target - design @ np.swapaxes(coef, -1, -2)


# ---------------------------------------------------------------------------
# CCC-GARCH(1,1) by Gaussian QMLE
# ---------------------------------------------------------------------------

_LOG_2PI = float(np.log(2.0 * np.pi))


def _garch_check_theta(theta, allow_explosive: bool = False) -> None:
    th = np.asarray(theta, dtype=float)
    if th.shape != (7,):
        raise DataError("ccc_garch theta must have 7 entries")
    w1, a1, b1, w2, a2, b2, rho = th
    if w1 <= 0 or w2 <= 0:
        raise DataError("omega parameters must be positive")
    if min(a1, b1, a2, b2) < 0:
        raise DataError("alpha/beta parameters must be nonnegative")
    if abs(rho) >= 1:
        raise DataError("|rho| must be < 1")
    if not allow_explosive and (a1 + b1 >= 1 or a2 + b2 >= 1):
        raise DataError("explosive parameters (alpha + beta >= 1); pass allow_explosive")


def _first_order_recursion(x: np.ndarray, c) -> None:
    """Run ``x_t <- x_t + c x_{t-1}``, t = 1..n-1, in place along the last axis.

    ``x`` is a C-contiguous float array (..., n); ``c`` is one coefficient
    for every row, or one per row (broadcast against ``x.shape[:-1]``).
    The recursion is the unit lower-bidiagonal solve with ``-c`` below the
    diagonal, done by one LAPACK ``dtbtrs`` call: a shared ``c`` makes the
    rows the right-hand sides of one system, per-row coefficients stack the
    rows into one system with a zero coupling at each row start.  The BLAS
    applies each step as one multiply-add, rounded once where it fuses them
    (OpenBLAS on x86-64 does).  Since inf * 0 is NaN, a row that ends
    non-finite would spoil the start of the next stacked row; any row whose
    start does not keep its bits is solved again alone.  So the bits of a
    row never depend on the other rows, and both forms agree.
    """
    n = x.shape[-1]
    if n < 2 or x.size == 0:
        return
    if not (x.flags.c_contiguous and x.dtype == np.float64):
        raise ValueError("x must be a C-contiguous float64 array")
    rows = x.reshape(-1, n)
    c = np.asarray(c, dtype=float)
    # The band (2, length) is built in Fortran order, as the transpose of a
    # (length, 2) array, so that the wrapper does not copy it.
    if c.ndim == 0:
        band = np.empty((n, 2))
        band[:, 0] = 1.0
        band[:, 1] = -c
        dtbtrs(band.T, rows.T, uplo="L", diag="U", overwrite_b=1)
        return
    coef = np.broadcast_to(c, x.shape[:-1]).reshape(-1)
    band = np.empty(rows.shape + (2,))
    band[..., 0] = 1.0
    np.negative(coef[:, None], out=band[..., 1])
    band[:, -1, 1] = 0.0
    original = rows.copy()
    dtbtrs(band.reshape(-1, 2).T, rows.reshape(-1, 1), uplo="L", diag="U", overwrite_b=1)
    for r in np.flatnonzero(rows[:, 0].view(np.uint64) != original[:, 0].view(np.uint64)):
        rows[r] = original[r]
        _first_order_recursion(rows[r], coef[r])


def _beta_filter(drives, beta: float) -> np.ndarray:
    """Stack of ``x_t = drive_{t-1} + beta x_{t-1}`` from ``x_1 = 0``, one
    row block per array of ``drives`` (all of one shape, time last)."""
    x = np.empty((len(drives),) + drives[0].shape)
    x[..., 0] = 0.0
    for row, drive in zip(x, drives):
        row[..., 1:] = drive[..., :-1]
    _first_order_recursion(x, beta)
    return x


def _garch_variances(theta, y2: np.ndarray, v_init) -> np.ndarray:
    """Variances (2, ..., n), component first, of squared data ``y2`` (..., n, 2)
    from ``v_init`` (..., 2), for a shared (7,) or per-path (nb, 7) theta.

    Each component row gets the drive ``omega + alpha y_{t-1}^2``; then one
    stacked solve of :func:`_first_order_recursion` over all component rows
    adds ``beta v_{t-1}``, for a shared and a per-path theta alike.  Each
    step is one multiply-add, rounded once where the BLAS fuses it (a step
    loop rounds the product and the sum apart, see the tests' oracle), and
    a path's bits depend neither on the other paths nor on whether its
    theta was shared.
    """
    th = np.asarray(theta, dtype=float)
    # omega, alpha, beta component first, (2, <paths of theta>), with unit
    # axes for the path axes theta lacks and for time.
    lead = (1,) * (y2.ndim - th.ndim)
    w, a, b = (th[..., k:6:3].transpose(-1, *range(th.ndim - 1)) for k in range(3))
    v = np.empty((2,) + y2.shape[:-1])
    v_init = np.asarray(v_init, dtype=float)
    v[..., 0] = v_init.transpose(-1, *range(v_init.ndim - 1))
    y2_prev = y2[..., :-1, :].transpose(-1, *range(y2.ndim - 1))
    v[..., 1:] = w.reshape(w.shape + lead) + a.reshape(a.shape + lead) * y2_prev
    _first_order_recursion(v, b.reshape(b.shape + lead[1:]))
    return v


def garch_loglik_terms(theta, data, v_init=None) -> np.ndarray:
    """Per-observation Gaussian log-likelihood contributions."""
    y = as_points(data)
    if y.shape[1] != 2:
        raise DataError("ccc_garch supports bivariate series only")
    if v_init is None:
        v_init = y.var(axis=0)
    return _garch_terms(theta, y, v_init)


def _garch_terms(theta, y: np.ndarray, v_init, grad: bool = False, hess: bool = False):
    """Log-likelihood terms (..., n) of paths ``y`` (..., n, 2) that share
    ``theta``, each started at its own ``v_init`` (..., 2).

    With ``grad``, also returns the exact per-observation scores
    (..., n, 7).  The variance derivatives obey the differentiated
    recursion ``dv_t/d(omega, alpha, beta) = (1, y_{t-1}^2, v_{t-1}) +
    beta dv_{t-1}``, started at zero because ``v_1 = v_init`` does not
    depend on theta.

    With ``hess``, returns ``(terms, scores, hessian)``, the last being the
    exact Hessian of the summed terms (..., 7, 7).  Differentiating the
    recursion once more gives the same beta-filter driven by
    ``(dv_{t-1}/domega, dv_{t-1}/dalpha, 2 dv_{t-1}/dbeta)`` for the
    (omega, beta), (alpha, beta) and (beta, beta) second derivatives of
    ``v_t``; the other second derivatives vanish.

    All these filters, like the variances, run through
    :func:`_first_order_recursion`, one solve per component and order with
    the derivative coordinates stacked as rows.
    """
    th = np.asarray(theta, dtype=float)
    y2 = y**2
    v = _garch_variances(th, y2, v_init)
    if not (v > 0).all():
        raise FitError("nonpositive conditional variance along the path")
    rho = th[6]
    z1 = y[..., 0] / np.sqrt(v[0])
    z2 = y[..., 1] / np.sqrt(v[1])
    one_m = 1.0 - rho * rho
    quad = (z1**2 - 2.0 * rho * z1 * z2 + z2**2) / one_m
    terms = -0.5 * (np.log(v[0]) + np.log(v[1]) + np.log(one_m) + quad) - _LOG_2PI
    if not (grad or hess):
        return terms
    cross = z1 * z2
    scores = np.empty(terms.shape + (7,))
    dvs, dll_dvs = [], []
    for i, z in enumerate((z1, z2)):
        dll_dv = -(1.0 - (z * z - rho * cross) / one_m) / (2.0 * v[i])
        dv = _beta_filter((np.ones_like(v[i]), y2[..., i], v[i]), th[3 * i + 2])
        scores[..., 3 * i : 3 * i + 3] = (dv * dll_dv).transpose(*range(1, dv.ndim), 0)
        dvs.append(dv)
        dll_dvs.append(dll_dv)
    scores[..., 6] = rho / one_m + (cross * (1.0 + rho * rho) - rho * (z1**2 + z2**2)) / one_m**2
    if not hess:
        return terms, scores

    # Second derivatives of each term in (v1, v2, rho).  On huge data the
    # products of variances overflow; the fit rejects a non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (z1 * z1, z2 * z2)
        one_p = 1.0 + rho * rho
        lin = cross * one_p - rho * (sq[0] + sq[1])
        d2_rr = (one_p + 2.0 * rho * cross - sq[0] - sq[1]) / one_m**2 + 4.0 * rho * lin / one_m**3
        d2_12 = rho * cross / (4.0 * one_m * v[0] * v[1])
        out = np.empty(terms.shape[:-1] + (7, 7))
        for i in range(2):
            blk = slice(3 * i, 3 * i + 3)
            dv = dvs[i]
            d2_vv = (1.0 - (2.0 * sq[i] - 1.5 * rho * cross) / one_m) / (2.0 * v[i] ** 2)
            d2_vr = (2.0 * rho * sq[i] - one_p * cross) / (2.0 * v[i] * one_m**2)
            # The filter is linear, so 2 dv/dbeta is applied as a final factor 2.
            d2v = _beta_filter(dv, th[3 * i + 2])
            curv = np.einsum("a...t,...t->...a", d2v, dll_dvs[i])  # (wb, ab, bb / 2)
            h = np.einsum("a...t,b...t->...ab", dv * d2_vv, dv)
            h[..., :2, 2] += curv[..., :2]
            h[..., 2, :2] += curv[..., :2]
            h[..., 2, 2] += 2.0 * curv[..., 2]
            out[..., blk, blk] = h
            out[..., blk, 6] = out[..., 6, blk] = np.einsum("a...t,...t->...a", dv, d2_vr)
        out[..., :3, 3:6] = np.einsum("a...t,b...t->...ab", dvs[0] * d2_12, dvs[1])
        out[..., 3:6, :3] = np.swapaxes(out[..., :3, 3:6], -1, -2)
        out[..., 6, 6] = d2_rr.sum(axis=-1)
    return terms, scores, out


def _garch_pack(theta: np.ndarray) -> np.ndarray:
    def logit(p):
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        return np.log(p / (1.0 - p))

    x = np.empty(7)
    for i in range(2):
        w, a, b = theta[3 * i : 3 * i + 3]
        s = a + b
        frac = a / s if s > 0 else 0.5
        x[3 * i] = np.log(w)
        x[3 * i + 1] = logit(frac)
        x[3 * i + 2] = logit(s)
    x[6] = np.arctanh(min(max(theta[6], -1.0 + 1e-12), 1.0 - 1e-12))
    return x


def _garch_unpack(x) -> np.ndarray:
    """Parameters ``theta`` of unconstrained coordinates ``x``, over (..., 7) stacks."""
    x = np.asarray(x, dtype=float)
    theta = np.empty(x.shape)
    for i in range(2):
        frac = expit(x[..., 3 * i + 1])
        s = expit(x[..., 3 * i + 2])
        theta[..., 3 * i] = np.exp(x[..., 3 * i])
        theta[..., 3 * i + 1] = frac * s
        theta[..., 3 * i + 2] = (1.0 - frac) * s
    theta[..., 6] = np.tanh(x[..., 6])
    return theta


def _garch_unpack_jacobian(x: np.ndarray) -> np.ndarray:
    """Jacobian d theta / d x of :func:`_garch_unpack` (block diagonal)."""
    jac = np.zeros((7, 7))
    for i in range(2):
        frac = expit(x[3 * i + 1])
        s = expit(x[3 * i + 2])
        dfrac = frac * (1.0 - frac) * s
        ds = s * (1.0 - s)
        jac[3 * i, 3 * i] = np.exp(x[3 * i])
        jac[3 * i + 1, 3 * i + 1 : 3 * i + 3] = dfrac, frac * ds
        jac[3 * i + 2, 3 * i + 1 : 3 * i + 3] = -dfrac, (1.0 - frac) * ds
    jac[6, 6] = 1.0 - np.tanh(x[6]) ** 2
    return jac


def _garch_xspace_derivs(x: np.ndarray, grad: np.ndarray, hess: np.ndarray):
    """Gradient ``J' g`` and Hessian ``J' H J + sum_k g_k d2theta_k/dx2`` in
    the unconstrained coordinates, from the gradient ``g`` and Hessian
    ``H`` in theta at ``theta = _garch_unpack(x)``."""
    jac = _garch_unpack_jacobian(x)
    hx = jac.T @ hess @ jac
    for i in range(2):
        k = 3 * i
        frac = expit(x[k + 1])
        s = expit(x[k + 2])
        dfrac = frac * (1.0 - frac)
        ds = s * (1.0 - s)
        g_a, g_b = grad[k + 1], grad[k + 2]
        hx[k, k] += grad[k] * np.exp(x[k])
        hx[k + 1, k + 1] += (g_a - g_b) * dfrac * (1.0 - 2.0 * frac) * s
        mixed = (g_a - g_b) * dfrac * ds
        hx[k + 1, k + 2] += mixed
        hx[k + 2, k + 1] += mixed
        hx[k + 2, k + 2] += (g_a * frac + g_b * (1.0 - frac)) * ds * (1.0 - 2.0 * s)
    rho = np.tanh(x[6])
    hx[6, 6] -= 2.0 * grad[6] * rho * (1.0 - rho * rho)
    return grad @ jac, hx


def _floored_information(hess: np.ndarray, n: int) -> np.ndarray:
    """Observed information ``-hess / n`` of a summed log-likelihood Hessian.

    Eigenvalues are floored at 1e-8 of the largest so saturated (flat)
    coordinates stay harmless.
    """
    info = -0.5 * (hess + hess.T) / n
    w, u = np.linalg.eigh(info)
    top = float(w.max())
    if top <= 0.0:
        raise SingularityError("log-likelihood curvature is not positive definite")
    w = np.maximum(w, 1e-8 * top)
    return (u * w) @ u.T


def _garch_curvature(theta, data, v_init) -> np.ndarray:
    """Observed information: minus the per-observation-averaged exact
    Hessian of the log-likelihood, eigenvalues floored as above."""
    y = as_points(data)
    return _floored_information(_garch_terms(theta, y, v_init, hess=True)[2], y.shape[0])


def _garch_scores(theta, data, v_init) -> np.ndarray:
    """Exact per-observation scores (n x 7)."""
    return _garch_terms(theta, as_points(data), v_init, grad=True)[1]


def _garch_starts(y: np.ndarray, seed: int, n_starts: int) -> list:
    """Starting points in the unconstrained coordinates: a method-of-moments
    guess, then perturbations of it drawn from the fit's substream."""
    col_var = y.var(axis=0)
    corr = float(np.corrcoef(y[:, 0], y[:, 1])[0, 1])
    theta0 = np.array(
        [
            col_var[0] * 0.3, 0.10, 0.60,
            col_var[1] * 0.3, 0.10, 0.60,
            min(max(corr, -0.9), 0.9),
        ]
    )
    x0 = _garch_pack(theta0)
    rng = substream(seed, FIT)
    return [x0 if start == 0 else x0 + 0.3 * rng.standard_normal(7) for start in range(max(1, n_starts))]


# Backtracking gives up once the step is this small a fraction of Newton's.
_MIN_STEP = 1e-10


def _garch_newton(objective, value, x: np.ndarray, gtol: float, maxiter: int):
    """Damped Newton descent on ``objective(x) -> (value, gradient, Hessian)``.

    Each step uses the Hessian with its eigenvalues replaced by their
    absolute values, floored at 1e-8 of the largest, so it always points
    downhill.  Armijo backtracking halves the step until the decrease is
    sufficient; a trial point with a nonpositive variance (:class:`FitError`)
    or a non-finite value, gradient or Hessian also halves it.  A trial's
    value comes first, from ``value(x)``, which must have the bits of
    ``objective(x)[0]``; the derivatives are taken only at a trial that
    passes the Armijo test.
    Stops when the largest gradient entry is at most ``gtol``, after
    ``maxiter`` steps, or when backtracking fails.  Returns ``(value,
    gradient, x)`` at the last accepted point.
    """
    f, g, h = objective(x)
    for _ in range(maxiter):
        if np.max(np.abs(g)) <= gtol:
            break
        w, u = np.linalg.eigh(h)
        w = np.abs(w)
        step = -u @ ((u.T @ g) / np.maximum(w, 1e-8 * w.max()))
        slope = float(g @ step)
        t = 1.0
        while t >= _MIN_STEP:
            trial = x + t * step
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    ft = value(trial)
                    if ft <= f + 1e-4 * t * slope:
                        gt, ht = objective(trial)[1:]
                        if np.isfinite(gt).all() and np.isfinite(ht).all():
                            break
            except FitError:
                pass
            t *= 0.5
        else:
            break
        x, f, g, h = trial, ft, gt, ht
    return f, g, x


# Starting points, Newton steps per start and the gradient stopping rule of the fit.
_N_STARTS, _MAXITER, _GTOL = 3, 500, 1e-7
# Fewest rows the GARCH fit accepts.
_GARCH_MIN_ROWS = 50


def fit_ccc_garch(data, seed: int = 0) -> FitResult:
    """Gaussian QMLE of the bivariate constant-correlation GARCH(1,1).

    Minimizes the average negative log-likelihood over an unconstrained
    reparameterization (log omega, logistic alpha-fraction and persistence,
    atanh rho) by damped Newton with the exact gradient and Hessian (see
    :func:`_garch_newton`), from ``_N_STARTS`` perturbed method-of-moments
    starting points; a start counts as converged when its largest gradient
    entry is below 1e-5, and the best converged start wins.  Boundary
    solutions (alpha + beta within 1e-6 of 1) raise :class:`BoundaryError`;
    non-convergence of all starts raises :class:`FitError`.
    """
    y = as_points(data, min_rows=_GARCH_MIN_ROWS)
    n, d = y.shape
    if d != 2:
        raise DataError("ccc_garch requires a bivariate series")
    with np.errstate(over="ignore", invalid="ignore"):
        col_var = y.var(axis=0)
        # Relative to each column's own magnitude, so the rule does not
        # depend on the data's units; zero and constant columns fail it.
        floor = 1e-12 * np.abs(y).max(axis=0) ** 2
    if not np.isfinite(col_var).all():
        raise FitError("sample variance overflows: the data are too large for the QMLE")
    if (col_var <= floor).any():
        raise FitError("degenerate likelihood: a component has (near-)zero variance")
    v_init = col_var.copy()

    def negll(x):
        terms, scores, hess = _garch_terms(_garch_unpack(x), y, v_init, hess=True)
        grad, hx = _garch_xspace_derivs(x, scores.sum(axis=0), hess)
        return -float(terms.mean()), -grad / n, -hx / n

    def negll_value(x):
        # The terms of the full call, without its derivatives.
        return -float(_garch_terms(_garch_unpack(x), y, v_init).mean())

    candidates = []
    for x_start in _garch_starts(y, seed, _N_STARTS):
        fun, jac, x = _garch_newton(negll, negll_value, x_start, _GTOL, _MAXITER)
        gnorm = float(np.max(np.abs(jac)))
        if np.isfinite(fun) and gnorm < 1e-5:
            candidates.append((fun, gnorm, x))
    if not candidates:
        raise FitError("QMLE did not converge from any starting point")
    candidates.sort(key=lambda c: c[0])
    x_hat = candidates[0][2]
    theta = _garch_unpack(x_hat)

    for i in range(2):
        if theta[3 * i + 1] + theta[3 * i + 2] >= 1.0 - 1e-6:
            raise BoundaryError(
                f"component {i + 1} persistence alpha + beta = "
                f"{theta[3 * i + 1] + theta[3 * i + 2]:.8f} is at the boundary"
            )

    residuals = _garch_residuals_batch(theta, y, v_init)[0]
    terms, scores, hess = _garch_terms(theta, y, v_init, hess=True)
    info = _floored_information(hess, n)
    cond = np.linalg.cond(info)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularityError(f"information matrix is singular (cond={cond:.3g})")
    info_inv = np.linalg.inv(info)
    influence = scores @ info_inv
    # Minus the averaged exact Hessian in the unconstrained coordinates,
    # floored the same way: the metric of the bootstrap's one-step update.
    hx = _garch_xspace_derivs(x_hat, scores.sum(axis=0), hess)[1]
    xinfo_inv = np.linalg.inv(_floored_information(hx, n))
    return FitResult(
        model=ModelSpec("ccc_garch"),
        theta=theta,
        residuals=residuals,
        influence=influence,
        n_obs=n,
        presample=0,
        init_values=v_init,
        loglik=float(terms.sum()),
        info_inv=info_inv,
        x_hat=x_hat.copy(),
        xinfo_inv=xinfo_inv,
    )


# Rows per chunk of the GARCH variance scan (see _variance_scan): 12..32
# were within 8% of each other for 7 and 64 paths of 600, 700 and 2500
# rows (2-core x86-64), and 20 was never more than 2% off the fastest.
_GARCH_SCAN_CHUNK = 20


def _variance_scan(w, a, b, eps: np.ndarray, v0, out: np.ndarray) -> None:
    """Write ``v_t = w + (a eps_{t-1}^2 + b) v_{t-1}`` from ``v_0 = v0`` into ``out``.

    ``eps`` and ``out`` are time-major (n, ...) and may be strided views;
    ``v0`` is one row and ``w``, ``a``, ``b`` broadcast against a row.  The
    recurrence for t = 1..m (m = n - 1) runs as a chunked scan: row t = kL
    + j + 1 is row j of chunk k, L = ``_GARCH_SCAN_CHUNK``, and the chunks
    sit side by side, so each step below is one contiguous update of all
    chunks and paths.  With ``c_t = a eps_{t-1}^2 + b``, the products ``P_j
    = c_{kL+1} ... c_{kL+j+1}`` and the offsets ``u_j = w + c_{kL+j+1}
    u_{j-1}`` (``u_{-1} = 0``) take L steps; then ``v_{kL+j+1} = u_j + P_j
    v_{kL}``, where ``v_{kL}`` takes one carry step per chunk.  Nothing is
    divided by a partial product, so a tiny coefficient (b -> 0) or an
    underflowing product only shrinks the carried term it scales.  Every
    operation is elementwise along the trailing axes, so the bits of each
    path do not depend on the others.
    """
    out[0] = v0
    m = eps.shape[0] - 1
    if m <= 0:
        return
    tail = eps.shape[1:]
    chunk = _GARCH_SCAN_CHUNK
    full, rest = divmod(m, chunk)
    n_chunks = full + (rest > 0)

    def rows(x):
        return np.broadcast_to(x, (n_chunks,) + tail).copy()

    # c as (L, chunks, ...); rows of the last chunk past m get c = b.
    c = np.empty((chunk, n_chunks) + tail)
    np.square(eps[: full * chunk].reshape((full, chunk) + tail).swapaxes(0, 1), out=c[:, :full])
    if rest:
        np.square(eps[full * chunk : m], out=c[:rest, full])
        c[rest:, full] = 0.0
    c *= rows(a)
    c += rows(b)
    drift = rows(w)
    # Step j reads row j of c for the offsets, then overwrites it with the
    # product P_j (a cumprod along this axis costs more than the loop).
    off = np.empty_like(c)
    off[0] = drift
    for j in range(1, chunk):
        np.multiply(off[j - 1], c[j], out=off[j])
        off[j] += drift
        c[j] *= c[j - 1]
    prod = c
    carry = np.empty(c.shape[1:])
    carry[0] = v0
    for k in range(1, n_chunks):
        carry[k] = off[-1, k - 1] + prod[-1, k - 1] * carry[k - 1]
    prod *= carry
    prod += off
    out[1 : 1 + full * chunk].reshape((full, chunk) + tail)[:] = prod[:, :full].swapaxes(0, 1)
    if rest:
        out[1 + full * chunk :] = prod[:rest, full]


def _simulate_garch(theta, innovations, v_init=None, allow_explosive=False, *, mixed=False):
    """CCC-GARCH(1,1) paths driven by ``innovations`` (n, 2) or a stack (nb, n, 2).

    Each component variance follows ``v_t = omega + alpha Y_{t-1}^2 +
    beta v_{t-1}`` from ``v_init`` (the stationary variances
    ``omega / (1 - alpha - beta)`` by default), one output row per
    innovation row.  Two output forms share that recursion:

    - the standard form ``Y_t = D_t^{1/2} eps_t`` (default): the supplied
      innovations carry the (constant) cross-component correlation and the
      recursion only scales each component.  Then ``Y_{t-1}^2 = v_{t-1}
      eps_{t-1}^2``, so ``v_t = omega + (alpha eps_{t-1}^2 + beta) v_{t-1}``
      is linear in v with known coefficients and runs as the chunked scan
      of :func:`_variance_scan`;
    - with ``mixed``, ``Y_t = V_t^{1/2} eta_t`` with the symmetric PSD root
      of the full conditional covariance (``v_t,12 = rho sqrt(v_t,1 v_t,2)``),
      which mixes the innovation components through rho.  This is the
      generating form of the benchmark system in :mod:`tsindep.simlab`.
      It is not linear in v and runs as a step loop.
    """
    e = np.asarray(innovations, dtype=float)
    _garch_check_theta(theta, allow_explosive)
    th = np.asarray(theta, dtype=float)
    w, a, b, rho = th[0:6:3], th[1:6:3], th[2:6:3], th[6]
    batched = e.ndim == 3
    if not batched:
        e = e[None]
    nb, n_out, d = e.shape
    if d != 2:
        raise DataError("ccc_garch innovations must be bivariate")
    if v_init is None:
        v_init = w / (1.0 - a - b)
    w, a, b = w[:, None], a[:, None], b[:, None]
    v0 = np.broadcast_to(np.asarray(v_init, dtype=float)[:, None], (2, nb))
    if not mixed:
        out = np.empty((nb, n_out, 2))
        if n_out:
            # Time-major (n, 2, nb) views of the innovations and the output.
            _variance_scan(w, a, b, e.transpose(1, 2, 0), v0, out.transpose(1, 2, 0))
        np.sqrt(out, out=out)
        out *= e
        return out if batched else out[0]
    # Time-major buffers with the path axis innermost, so every step is one
    # (2, nb) update with the coefficients broadcast along contiguous rows.
    steps = np.ascontiguousarray(e.transpose(1, 2, 0))
    out = np.empty((n_out, 2, nb))
    v = v0
    for t in range(n_out):
        if t > 0:
            v = w + a * out[t - 1] ** 2 + b * v
        s11, s22, s12 = _sqrt2x2(v[0], v[1], rho * np.sqrt(v[0] * v[1]))
        out[t, 0] = s11 * steps[t, 0] + s12 * steps[t, 1]
        out[t, 1] = s12 * steps[t, 0] + s22 * steps[t, 1]
    out = np.ascontiguousarray(out.transpose(2, 0, 1))
    return out if batched else out[0]


def _garch_xspace_scores_batch(x_hat: np.ndarray, y: np.ndarray, v_init: np.ndarray) -> np.ndarray:
    """Total log-likelihood gradient per path in the unconstrained coordinates.

    The summed exact scores times the Jacobian of the unpacking transform.
    """
    x = np.asarray(x_hat, dtype=float)
    scores = _garch_terms(_garch_unpack(x), y, v_init, grad=True)[1]
    return scores.sum(axis=-2) @ _garch_unpack_jacobian(x)


def _garch_residuals_batch(theta, y: np.ndarray, v_init):
    """Residuals ``(eta, valid)`` of paths ``y`` (..., n, 2) under a shared or
    per-path theta (see :func:`_garch_variances`).

    A path with a nonpositive variance, |rho| >= 1 (as can happen after a
    one-step update) or a non-finite residual is flagged, not raised.
    """
    th = np.asarray(theta, dtype=float)
    v = _garch_variances(th, y**2, v_init)
    v = v.transpose(*range(1, v.ndim), 0)
    positive = v > 0
    valid = (np.abs(th[..., 6]) < 1.0) & positive.all(axis=(-2, -1))
    eta = y / np.sqrt(np.where(positive, v, 1.0))
    return eta, valid & np.isfinite(eta).all(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Shared model-level operations
# ---------------------------------------------------------------------------


def _eval_data(fit: FitResult, data) -> np.ndarray:
    """``data`` as points with the fit's column count and, for a VAR(p), more than p rows."""
    y = as_points(data)
    d = fit.coef.shape[0] if fit.model.kind == "var" else 2
    if y.shape[1] != d:
        raise DataError(f"data has {y.shape[1]} columns but the fitted model has {d}")
    if y.shape[0] <= fit.presample:
        raise DataError(f"a VAR({fit.presample}) needs more than {fit.presample} rows, got {y.shape[0]}")
    return y


def residuals(fit: FitResult, data) -> np.ndarray:
    """Residuals of ``fit`` applied to (possibly new) data of the same shape.

    VAR residual rows for t <= p are zero-filled, matching the fit; the
    GARCH variance recursion is initialized at the sample variances of the
    data being processed, mirroring the original fit.
    """
    y = _eval_data(fit, data)
    if fit.model.kind == "var":
        p = fit.model.p
        target, design = _var_design(y, p, fit.model.intercept)
        out = np.zeros_like(y)
        out[p:] = target - design @ fit.coef.T
        return out
    eta, valid = _garch_residuals_batch(fit.theta, y, y.var(axis=0))
    if not valid:
        raise FitError("invalid parameters for residual extraction")
    return eta


def influence_values(fit: FitResult, data) -> np.ndarray:
    """Per-observation influence values of ``fit`` evaluated on new data.

    Rows average to the one-step estimator update for that data set.
    Presample rows (VAR) are zero-filled as in the fit.
    """
    y = _eval_data(fit, data)
    if fit.model.kind == "var":
        p = fit.model.p
        out = np.zeros((y.shape[0], fit.coef.size))
        out[p:] = _var_influence(fit.coef, fit.gamma_inv, y, p, fit.model.intercept)
        return out
    return _garch_scores(fit.theta, y, y.var(axis=0)) @ fit.info_inv


def simulate(fit_or_spec, innovations, init_state=None, allow_explosive: bool = False):
    """Forward recursion of the model driven by the supplied innovations.

    One output row per innovation row, conditional on ``init_state`` (the
    presample rows for VAR; the initial component variances for GARCH).
    Defaults: zeros for VAR, the stationary variances for GARCH.  Callers
    wanting an approximately stationary draw should pass extra innovations
    and discard a burn-in themselves (the bootstrap and the simulation lab
    discard 500 rows).
    """
    if isinstance(fit_or_spec, FitResult):
        spec, theta = fit_or_spec.model, fit_or_spec.theta
        coef = fit_or_spec.coef
    else:
        spec, theta = fit_or_spec
        theta = np.asarray(theta, dtype=float)
        coef = None
    if spec.kind == "var":
        e = np.asarray(innovations, dtype=float)
        d = e.shape[-1]
        q = d * spec.p + (1 if spec.intercept else 0)
        if coef is None:
            coef = theta.reshape(d, q)
        return _simulate_var(coef, spec.p, spec.intercept, e, init=init_state)
    return _simulate_garch(theta, innovations, v_init=init_state, allow_explosive=allow_explosive)


def _align(e1: np.ndarray, p1: int, e2: np.ndarray, p2: int):
    """Trim residuals that start at observations ``p1`` and ``p2`` to a common start.

    Row i along axis -2 of ``e1`` is observation ``p1 + i``, and likewise
    for ``e2``; the head of whichever series starts earlier is cut so both
    start at ``max(p1, p2)``.  Works on single series and on stacks.
    """
    start = max(p1, p2)
    return e1[..., start - p1 :, :], e2[..., start - p2 :, :]


def paired_residuals(fit1: FitResult, fit2: FitResult) -> PairedResiduals:
    """Two fits' effective residuals on a common time axis (see :func:`_align`)."""
    e1, e2 = _align(
        fit1.effective_residuals, fit1.presample, fit2.effective_residuals, fit2.presample
    )
    if e1.shape[0] != e2.shape[0]:
        raise DataError(
            f"residual series do not align: {e1.shape[0]} vs {e2.shape[0]} rows"
        )
    return PairedResiduals(eta1=e1, eta2=e2)
