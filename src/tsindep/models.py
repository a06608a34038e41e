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
from scipy.signal import lfilter
from scipy.special import expit

from ._streams import FIT, substream
from .exceptions import BoundaryError, DataError, FitError, SingularityError
from .hsic import PairedResiduals
from .kernels import as_points

_COND_LIMIT = 1e12


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


def psd_sqrt(V, *, clip_tol: float = 1e-10, error_tol: float = 1e-8) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-clip_tol * ||V||, 0)`` are clipped to zero; anything
    materially negative (below ``-error_tol * ||V||``) raises.
    """
    mat = np.asarray(V, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DataError("psd_sqrt expects a square matrix")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(mat).max()))):
        raise DataError("psd_sqrt expects a symmetric matrix")
    w, u = np.linalg.eigh(0.5 * (mat + mat.T))
    scale = max(float(np.abs(w).max()), 1e-300)
    if w.min() < -error_tol * scale:
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


def fit_var(data, p: int = 1, intercept: bool = False) -> FitResult:
    """Multivariate least squares for a VAR(p).

    Requires a full-rank regressor matrix and strictly more effective
    observations than parameters per equation.
    """
    y = as_points(data, min_rows=2)
    n, d = y.shape
    q = d * p + (1 if intercept else 0)
    if n - p < q + 1:
        raise DataError(
            f"insufficient observations: n={n} leaves {n - p} rows for {q} regressors"
        )
    target, design = _var_design(y, p, intercept)
    gram = design.T @ design
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularityError(f"rank-deficient VAR design (cond={cond:.3g})")
    coef_t = np.linalg.solve(gram, design.T @ target)  # (q, d)
    coef = coef_t.T  # (d, q) = [intercept | A_1 | ... | A_p]
    resid_eff = target - design @ coef_t
    n_eff = n - p
    gamma_inv = np.linalg.inv(gram / n_eff)
    scaled_x = design @ gamma_inv  # rows Gamma^{-1} x_t
    infl_eff = (resid_eff[:, :, None] * scaled_x[:, None, :]).reshape(n_eff, d * q)
    residuals = np.zeros((n, d))
    residuals[p:] = resid_eff
    influence = np.zeros((n, d * q))
    influence[p:] = infl_eff
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


def _var_residuals(coef: np.ndarray, data: np.ndarray, p: int, intercept: bool) -> np.ndarray:
    n, d = data.shape
    target, design = _var_design(data, p, intercept)
    out = np.zeros((n, d))
    out[p:] = target - design @ coef.T
    return out


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
    companion = np.eye(dp, k=-d)
    companion[:d] = coef[:, (1 if intercept else 0) :]
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


def _fit_var_batch(data: np.ndarray, p: int, intercept: bool):
    """Least-squares refit of many paths at once.

    Returns ``(coef, residuals, valid)``; paths with a (numerically)
    singular design are flagged invalid rather than raising, so bootstrap
    callers can count them against the failure budget.
    """
    target, design = _var_design(data, p, intercept)
    gram = np.einsum("bti,btj->bij", design, design)
    xty = np.einsum("bti,btk->bik", design, target)
    # The SVD inside cond does not converge on an overflowed path's gram.
    eye = np.eye(gram.shape[1])[None]
    finite = np.isfinite(gram).all(axis=(1, 2))
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(np.where(finite[:, None, None], gram, eye))
    valid = finite & np.isfinite(cond) & (cond < _COND_LIMIT)
    safe_gram = np.where(valid[:, None, None], gram, eye)
    coef_t = np.linalg.solve(safe_gram, xty)  # (nb, q, d)
    resid = target - np.einsum("btq,bqk->btk", design, coef_t)
    return np.swapaxes(coef_t, 1, 2), resid, valid


def _var_onestep_batch(fit: FitResult, data: np.ndarray):
    """One-step parameter update and residuals at the updated estimate."""
    p, intercept = fit.model.p, fit.model.intercept
    target, design = _var_design(data, p, intercept)
    resid_at_hat = target - np.einsum("btq,kq->btk", design, fit.coef)
    scaled = np.einsum("btq,qr->btr", design, fit.gamma_inv)
    mean_infl = np.einsum("btk,btr->bkr", resid_at_hat, scaled) / target.shape[1]
    coef = fit.coef[None] + mean_infl
    resid = target - np.einsum("btq,bkq->btk", design, coef)
    return coef, resid


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


def _garch_component_path(omega: float, alpha: float, beta: float, y2: np.ndarray, v0):
    """Variance recursion v_t = omega + alpha y_{t-1}^2 + beta v_{t-1}, v_1 = v0.

    Runs along the last axis of ``y2``; ``v0`` is a scalar or broadcasts
    against the leading axes.
    """
    v = np.empty(y2.shape)
    v[..., 0] = v0
    if y2.shape[-1] > 1:
        drive = omega + alpha * y2[..., :-1]
        zi = np.broadcast_to(beta * np.asarray(v0, dtype=float), y2.shape[:-1])[..., None]
        v[..., 1:] = lfilter([1.0], [1.0, -beta], drive, axis=-1, zi=zi)[0]
    return v


def garch_variance_path(theta, data, v_init=None) -> np.ndarray:
    """Per-component conditional variance paths (n x 2) for given data.

    ``v_init`` defaults to the per-column sample variances of ``data``
    (divisor n), the same initialization the fit uses.
    """
    y = as_points(data)
    if y.shape[1] != 2:
        raise DataError("ccc_garch supports bivariate series only")
    th = np.asarray(theta, dtype=float)
    if v_init is None:
        v_init = y.var(axis=0)
    v_init = np.asarray(v_init, dtype=float)
    y2 = y**2
    v = np.empty_like(y)
    for i in range(2):
        w, a, b = th[3 * i : 3 * i + 3]
        v[:, i] = _garch_component_path(w, a, b, y2[:, i], v_init[i])
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
    """
    th = np.asarray(theta, dtype=float)
    v_init = np.asarray(v_init, dtype=float)
    y2 = y**2
    v = [_garch_component_path(*th[3 * i : 3 * i + 3], y2[..., i], v_init[..., i]) for i in range(2)]
    if not all((vi > 0).all() for vi in v):
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
        drive = np.stack([np.ones_like(v[i]), y2[..., i], v[i]])
        dv = _garch_component_path(0.0, 1.0, th[3 * i + 2], drive, 0.0)
        scores[..., 3 * i : 3 * i + 3] = np.moveaxis(dv * dll_dv, 0, -1)
        dvs.append(dv)
        dll_dvs.append(dll_dv)
    scores[..., 6] = rho / one_m + (cross * (1.0 + rho * rho) - rho * (z1**2 + z2**2)) / one_m**2
    if not hess:
        return terms, scores

    # Second derivatives of each term in (v1, v2, rho).
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
        d2v = _garch_component_path(0.0, 1.0, th[3 * i + 2], dv, 0.0)
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


def _garch_newton(objective, x: np.ndarray, gtol: float, maxiter: int):
    """Damped Newton descent on ``objective(x) -> (value, gradient, Hessian)``.

    Each step uses the Hessian with its eigenvalues replaced by their
    absolute values, floored at 1e-8 of the largest, so it always points
    downhill.  Armijo backtracking halves the step until the decrease is
    sufficient; a trial point with a nonpositive variance (:class:`FitError`)
    or a non-finite value also halves it.  Stops when the largest gradient
    entry is at most ``gtol``, after ``maxiter`` steps, or when backtracking
    fails.  Returns ``(value, gradient, x)`` at the last accepted point.
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
                    ft, gt, ht = objective(trial)
            except FitError:
                ft = np.inf
            if ft <= f + 1e-4 * t * slope and np.isfinite(gt).all() and np.isfinite(ht).all():
                break
            t *= 0.5
        else:
            break
        x, f, g, h = trial, ft, gt, ht
    return f, g, x


def fit_ccc_garch(
    data,
    seed: int = 0,
    n_starts: int = 3,
    maxiter: int = 500,
    gtol: float = 1e-7,
) -> FitResult:
    """Gaussian QMLE of the bivariate constant-correlation GARCH(1,1).

    Minimizes the average negative log-likelihood over an unconstrained
    reparameterization (log omega, logistic alpha-fraction and persistence,
    atanh rho) by damped Newton with the exact gradient and Hessian (see
    :func:`_garch_newton`), from ``n_starts`` perturbed method-of-moments
    starting points; a start counts as converged when its largest gradient
    entry is below 1e-5, and the best converged start wins.  Boundary
    solutions (alpha + beta within 1e-6 of 1) raise :class:`BoundaryError`;
    non-convergence of all starts raises :class:`FitError`.
    """
    y = as_points(data, min_rows=50)
    n, d = y.shape
    if d != 2:
        raise DataError("ccc_garch requires a bivariate series")
    col_var = y.var(axis=0)
    if (col_var < 1e-12 * max(1.0, float(np.abs(y).max()) ** 2)).any():
        raise FitError("degenerate likelihood: a component has (near-)zero variance")
    v_init = col_var.copy()

    def negll(x):
        terms, scores, hess = _garch_terms(_garch_unpack(x), y, v_init, hess=True)
        grad, hx = _garch_xspace_derivs(x, scores.sum(axis=0), hess)
        return -float(terms.mean()), -grad / n, -hx / n

    candidates = []
    for x_start in _garch_starts(y, seed, n_starts):
        fun, jac, x = _garch_newton(negll, x_start, gtol, maxiter)
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

    v = garch_variance_path(theta, y, v_init)
    residuals = y / np.sqrt(v)
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


def _garch_residuals(theta, data, v_init=None) -> np.ndarray:
    y = as_points(data)
    th = np.asarray(theta, dtype=float)
    v = garch_variance_path(th, y, v_init)
    if not np.all(v > 0) or abs(th[6]) >= 1:
        raise FitError("invalid parameters for residual extraction")
    return y / np.sqrt(v)


def _simulate_garch(theta, innovations, v_init=None, allow_explosive=False, *, mixed=False):
    """CCC-GARCH(1,1) paths driven by ``innovations`` (n, 2) or a stack (nb, n, 2).

    Each component variance follows ``v_t = omega + alpha Y_{t-1}^2 +
    beta v_{t-1}`` from ``v_init`` (the stationary variances
    ``omega / (1 - alpha - beta)`` by default), one output row per
    innovation row.  Two output forms share that recursion:

    - the standard form ``Y_t = D_t^{1/2} eps_t`` (default): the supplied
      innovations carry the (constant) cross-component correlation and the
      recursion only scales each component;
    - with ``mixed``, ``Y_t = V_t^{1/2} eta_t`` with the symmetric PSD root
      of the full conditional covariance (``v_t,12 = rho sqrt(v_t,1 v_t,2)``),
      which mixes the innovation components through rho.  This is the
      generating form of the benchmark system in :mod:`tsindep.simlab`.
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
    # Time-major buffer with the path axis innermost, so every step is one
    # (2, nb) update with the coefficients broadcast along contiguous rows.
    w, a, b = w[:, None], a[:, None], b[:, None]
    steps = np.ascontiguousarray(e.transpose(1, 2, 0))
    out = np.empty((n_out, 2, nb))
    v = np.broadcast_to(np.asarray(v_init, dtype=float)[:, None], (2, nb))
    for t in range(n_out):
        if t > 0:
            v = w + a * out[t - 1] ** 2 + b * v
        if mixed:
            s11, s22, s12 = _sqrt2x2(v[0], v[1], rho * np.sqrt(v[0] * v[1]))
            out[t, 0] = s11 * steps[t, 0] + s12 * steps[t, 1]
            out[t, 1] = s12 * steps[t, 0] + s22 * steps[t, 1]
        else:
            out[t] = np.sqrt(v) * steps[t]
    out = np.ascontiguousarray(out.transpose(2, 0, 1))
    return out if batched else out[0]


def _garch_xspace_scores_batch(x_hat: np.ndarray, y: np.ndarray, v_init: np.ndarray) -> np.ndarray:
    """Total log-likelihood gradient per path in the unconstrained coordinates.

    The summed exact scores times the Jacobian of the unpacking transform.
    """
    x = np.asarray(x_hat, dtype=float)
    scores = _garch_terms(_garch_unpack(x), y, v_init, grad=True)[1]
    return scores.sum(axis=-2) @ _garch_unpack_jacobian(x)


def _garch_residuals_batch(theta_b: np.ndarray, y: np.ndarray, v_init: np.ndarray):
    """Residual extraction with per-path parameters.

    Returns ``(eta, valid)`` where invalid paths (nonpositive variances or
    |rho| >= 1, as can happen after a one-step update) are flagged rather
    than raising.
    """
    nb, n = y.shape[:2]
    # Time-major (n, 2, nb), so each step updates both components of every
    # path in one operation along contiguous rows.
    y2 = np.ascontiguousarray((y**2).transpose(1, 2, 0))
    w, a, b = theta_b[:, :6].T.reshape(2, 3, nb).transpose(1, 0, 2)
    v = np.empty(y2.shape)
    v[0] = v_init.T
    for t in range(1, n):
        v[t] = w + a * y2[t - 1] + b * v[t - 1]
    v = v.transpose(2, 0, 1)
    valid = (np.abs(theta_b[:, 6]) < 1.0) & (v > 0).all(axis=(1, 2))
    eta = y / np.sqrt(np.where(v > 0, v, 1.0))
    valid &= np.isfinite(eta).reshape(nb, -1).all(axis=1)
    return eta, valid


# ---------------------------------------------------------------------------
# Shared model-level operations
# ---------------------------------------------------------------------------


def residuals(fit: FitResult, data) -> np.ndarray:
    """Residuals of ``fit`` applied to (possibly new) data of the same shape.

    VAR residual rows for t <= p are zero-filled, matching the fit; the
    GARCH variance recursion is initialized at the sample variances of the
    data being processed, mirroring the original fit.
    """
    y = as_points(data)
    if fit.model.kind == "var":
        if y.shape[1] != fit.coef.shape[0]:
            raise DataError("data dimension does not match the fitted model")
        return _var_residuals(fit.coef, y, fit.model.p, fit.model.intercept)
    return _garch_residuals(fit.theta, y)


def influence_values(fit: FitResult, data) -> np.ndarray:
    """Per-observation influence values of ``fit`` evaluated on new data.

    Rows average to the one-step estimator update for that data set.
    Presample rows (VAR) are zero-filled as in the fit.
    """
    y = as_points(data)
    if fit.model.kind == "var":
        p, intercept = fit.model.p, fit.model.intercept
        target, design = _var_design(y, p, intercept)
        resid = target - design @ fit.coef.T
        scaled = design @ fit.gamma_inv
        d, q = fit.coef.shape
        infl = (resid[:, :, None] * scaled[:, None, :]).reshape(y.shape[0] - p, d * q)
        out = np.zeros((y.shape[0], d * q))
        out[p:] = infl
        return out
    v_init = y.var(axis=0)
    return _garch_scores(fit.theta, y, v_init) @ fit.info_inv


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


def paired_residuals(fit1: FitResult, fit2: FitResult) -> PairedResiduals:
    """Align two fits' effective residuals on a common time axis.

    Residual row i of a fit corresponds to observation time ``presample + i``;
    the head of whichever series starts earlier is trimmed so both start at
    ``max(presample_1, presample_2)``.
    """
    start = max(fit1.presample, fit2.presample)
    e1 = fit1.effective_residuals[start - fit1.presample :]
    e2 = fit2.effective_residuals[start - fit2.presample :]
    if e1.shape[0] != e2.shape[0]:
        raise DataError(
            f"residual series do not align: {e1.shape[0]} vs {e2.shape[0]} rows"
        )
    return PairedResiduals(eta1=e1, eta2=e2)
