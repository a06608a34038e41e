"""Residual bootstrap critical values for the HSIC test statistics.

One bootstrap replicate, for each series independently:

1. resample (with replacement) from the standardized empirical residuals,
2. simulate a fresh path through the fitted dynamics (500-row burn-in),
3. re-estimate the model on that path: a full refit, or the one-step
   update ``theta + mean(influence on the path at theta)``, which avoids
   re-optimizing and is the default for the GARCH model,
4. extract the path's residuals at the re-estimated parameters,

then the scaled statistics ``n * S`` / ``n * J`` are computed on the pair
of bootstrap residual series.  Resampling the two series from independent
streams is what enforces the independence null in the bootstrap world.

Replicate ``b`` of series ``s`` draws from the stream derived from
``(master_seed, b, s)``, so results are bit-identical for any thread
count and do not depend on which statistics are requested.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._streams import BOOTSTRAP, substream
from .exceptions import BootstrapError, DataError, FitError, SingularityError
from .hsic import LagConfig, stat_from_grams
from .kernels import KernelSpec, as_points, gram_matrix
from .models import (
    FitResult,
    _fit_var_batch,
    _garch_residuals_batch,
    _garch_unpack,
    _garch_xspace_scores_batch,
    _simulate_garch,
    _simulate_var,
    _var_onestep_batch,
    fit_ccc_garch,
    fit_var,
)
from .results import TestOutcome

STANDARDIZE_MODES = ("whiten", "center", "none")
ESTIMATOR_MODES = ("auto", "full_refit", "one_step")

_BLOCK = 64
_FAILURE_BUDGET = 0.02


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs for one bootstrap run.

    ``estimator_mode='auto'`` resolves per model kind: full refit for VAR
    (closed form, cheap) and the one-step update for the GARCH model.
    ``standardize`` controls the treatment of the residual pool before
    resampling: ``'center'`` subtracts column means (the default),
    ``'whiten'`` additionally rescales to identity sample covariance,
    ``'none'`` resamples the raw residuals.
    """

    n_replicates: int = 199
    alphas: tuple = (0.01, 0.05, 0.10)
    estimator_mode: str = "auto"
    master_seed: int = 0
    standardize: str = "center"
    burn_in: int = 500
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ValueError("need at least one bootstrap replicate")
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("significance levels must lie in (0, 1)")
        if self.estimator_mode not in ESTIMATOR_MODES:
            raise ValueError(f"estimator_mode must be one of {ESTIMATOR_MODES}")
        if self.standardize not in STANDARDIZE_MODES:
            raise ValueError(f"standardize must be one of {STANDARDIZE_MODES}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap distribution and decision quantities for one statistic."""

    label: str
    observed: float
    replicate_stats: np.ndarray
    critical_values: dict
    p_value: float
    n_replicates: int
    n_failed: int

    def rejects(self, alpha: float) -> bool:
        return self.p_value <= alpha


def standardize_residuals(res, mode: str = "whiten") -> np.ndarray:
    """Center residuals and, for ``mode='whiten'``, rescale them so the
    sample covariance (divisor n) is the identity."""
    if mode not in STANDARDIZE_MODES:
        raise ValueError(f"mode must be one of {STANDARDIZE_MODES}")
    x = as_points(res, min_rows=2)
    if mode == "none":
        return x.copy()
    centered = x - x.mean(axis=0)
    if mode == "center":
        return centered
    n, d = x.shape
    if n <= d:
        raise DataError("whitening needs more rows than columns")
    cov = centered.T @ centered / n
    w, u = np.linalg.eigh(cov)
    if w.min() <= 1e-12 * max(w.max(), 1e-300):
        raise SingularityError("sample covariance of residuals is singular")
    inv_root = (u / np.sqrt(w)) @ u.T
    return centered @ inv_root


def resample_innovations(res, n_out: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_out`` rows i.i.d. uniformly with replacement from ``res``."""
    pool = as_points(res, min_rows=1)
    if n_out < 1:
        raise ValueError("n_out must be positive")
    idx = rng.integers(0, pool.shape[0], size=int(n_out))
    return pool[idx]


def _resolve_mode(mode: str, kind: str) -> str:
    if mode != "auto":
        return mode
    return "full_refit" if kind == "var" else "one_step"


def bootstrap_estimate(fit: FitResult, boot_data, mode: str = "auto") -> np.ndarray:
    """Parameter estimate for one bootstrap path.

    ``full_refit`` re-runs the estimator on the path; ``one_step`` returns
    the original estimate plus the averaged influence values evaluated on
    the path at that estimate.  For the GARCH model the one-step update is
    taken in the unconstrained optimization coordinates (a Newton step
    there), which keeps the result inside the valid parameter region; to
    first order this is the same update as adding the mean parameter-space
    influence.
    """
    mode = _resolve_mode(mode, fit.model.kind)
    data = as_points(boot_data)
    if mode == "full_refit":
        if fit.model.kind == "var":
            return fit_var(data, p=fit.model.p, intercept=fit.model.intercept).theta
        return fit_ccc_garch(data).theta
    if mode != "one_step":
        raise ValueError(f"unknown estimator mode {mode!r}")
    if fit.model.kind == "ccc_garch":
        return _garch_onestep(fit, data[None], data.var(axis=0)[None])[0]
    coef, _ = _var_onestep_batch(fit, data[None])
    return coef[0].ravel()


# Coordinate caps keep unpacked parameters strictly inside the valid region
# (tanh(8) < 1 - 1e-7) while leaving the logistic coordinates free to
# saturate harmlessly.
_X_CAP = np.array([40.0, 40.0, 40.0, 40.0, 40.0, 40.0, 8.0])


def _garch_onestep(fit: FitResult, paths: np.ndarray, v_init: np.ndarray) -> np.ndarray:
    """One Newton step per path from ``fit.x_hat`` in the unconstrained
    optimization coordinates, mapped back to (nb, 7) parameters.

    The transform geometry keeps the updated parameters in the valid
    region, mirroring the constrained refit estimator.
    """
    scores = _garch_xspace_scores_batch(fit.x_hat, paths, v_init)
    x = fit.x_hat + scores @ fit.xinfo_inv / paths.shape[1]
    return _garch_unpack(np.clip(x, -_X_CAP, _X_CAP))


# ---------------------------------------------------------------------------
# Replicate machinery
# ---------------------------------------------------------------------------


def _draw_innovations(pool: np.ndarray, n_sim: int, master_seed: int, b0: int, nb: int, series: int):
    d = pool.shape[1]
    out = np.empty((nb, n_sim, d))
    for i in range(nb):
        rng = substream(master_seed, BOOTSTRAP, b0 + i, series)
        out[i] = pool[rng.integers(0, pool.shape[0], size=n_sim)]
    return out


def _series_block(fit: FitResult, pool: np.ndarray, cfg: BootstrapConfig, b0: int, nb: int, series: int):
    """Simulate, re-estimate and extract residuals for one replicate block.

    Returns ``(residuals, valid)`` with residuals of shape (nb, n_res, d).
    """
    kind = fit.model.kind
    mode = _resolve_mode(cfg.estimator_mode, kind)
    n_sim = fit.n_obs + cfg.burn_in
    innov = _draw_innovations(pool, n_sim, cfg.master_seed, b0, nb, series)
    if kind == "var":
        paths = _simulate_var(fit.coef, fit.model.p, fit.model.intercept, innov)
        paths = paths[:, cfg.burn_in :]
        if mode == "full_refit":
            _, resid, valid = _fit_var_batch(paths, fit.model.p, fit.model.intercept)
        else:
            _, resid = _var_onestep_batch(fit, paths)
            valid = np.ones(nb, dtype=bool)
        valid &= np.isfinite(resid).reshape(nb, -1).all(axis=1)
        return resid, valid
    paths = _simulate_garch(fit.theta, innov)[:, cfg.burn_in :]
    v_init_b = paths.var(axis=1)
    if mode == "one_step":
        return _garch_residuals_batch(_garch_onestep(fit, paths, v_init_b), paths, v_init_b)
    resid = np.zeros_like(paths)
    valid = np.zeros(nb, dtype=bool)
    for i in range(nb):
        try:
            refit = fit_ccc_garch(paths[i])
        except (FitError, SingularityError, DataError):
            continue
        resid[i] = refit.residuals
        valid[i] = True
    return resid, valid


def _scaled_stats(g1, g2, lag_cfgs, n_scale) -> list[float]:
    """``n_scale * stat`` for every config on one pair of Grams.

    Joint configs are evaluated first: each computes its missing lags in
    one multi-lag pass, and the single-lag configs then read those lags
    from the shared dict.  The values do not depend on the order.
    """
    singles = {}
    out = [0.0] * len(lag_cfgs)
    for c in sorted(range(len(lag_cfgs)), key=lambda c: not lag_cfgs[c].is_joint):
        out[c] = n_scale * stat_from_grams(g1, g2, lag_cfgs[c], singles)
    return out


def _stats_block(
    fit1, fit2, pool1, pool2, lag_cfgs, kernel_k, kernel_l, cfg, n_scale, b0, nb
):
    res1, ok1 = _series_block(fit1, pool1, cfg, b0, nb, series=1)
    res2, ok2 = _series_block(fit2, pool2, cfg, b0, nb, series=2)
    p1, p2 = fit1.presample, fit2.presample
    start = max(p1, p2)
    stats = np.full((nb, len(lag_cfgs)), np.nan)
    valid = ok1 & ok2
    for i in range(nb):
        if not valid[i]:
            continue
        e1 = res1[i, start:] if p1 == 0 else res1[i, start - p1 :]
        e2 = res2[i, start:] if p2 == 0 else res2[i, start - p2 :]
        g1 = gram_matrix(kernel_k, e1).values
        g2 = gram_matrix(kernel_l, e2).values
        stats[i] = _scaled_stats(g1, g2, lag_cfgs, n_scale)
    valid &= np.isfinite(stats).all(axis=1)
    return stats, valid


def _critical_value(sorted_stats: np.ndarray, alpha: float) -> float:
    b_eff = sorted_stats.shape[0]
    k = math.ceil((1.0 - alpha) * (b_eff + 1))
    return float(sorted_stats[min(k, b_eff) - 1])


def bootstrap_run(
    fit1: FitResult,
    fit2: FitResult,
    lag_cfgs,
    kernel_k: KernelSpec | None = None,
    kernel_l: KernelSpec | None = None,
    cfg: BootstrapConfig | None = None,
) -> list[BootstrapResult]:
    """Run one residual bootstrap and evaluate every requested statistic.

    All statistics share the same replicate paths, so adding statistics to
    a run never changes the others' results.  Replicate failures are
    dropped (and counted) up to a 2% budget; beyond that the run aborts.
    """
    cfg = cfg or BootstrapConfig()
    kernel_k = kernel_k or KernelSpec.gaussian(1.0)
    kernel_l = kernel_l or KernelSpec.gaussian(1.0)
    lag_cfgs = list(lag_cfgs)
    if not lag_cfgs:
        raise ValueError("no statistics requested")

    # Residual alignment (presample trimming) mirrors models.paired_residuals.
    p1, p2 = fit1.presample, fit2.presample
    start = max(p1, p2)
    e1 = fit1.effective_residuals[start - p1 :]
    e2 = fit2.effective_residuals[start - p2 :]
    if e1.shape[0] != e2.shape[0]:
        raise DataError("fitted residual series do not align")
    n_scale = e1.shape[0]
    for lag_cfg in lag_cfgs:
        if n_scale - lag_cfg.lag < 2:
            raise DataError(f"lag {lag_cfg.lag} infeasible for n={n_scale}")

    g1 = gram_matrix(kernel_k, e1).values
    g2 = gram_matrix(kernel_l, e2).values
    observed = _scaled_stats(g1, g2, lag_cfgs, n_scale)

    pool1 = standardize_residuals(fit1.effective_residuals, cfg.standardize)
    pool2 = standardize_residuals(fit2.effective_residuals, cfg.standardize)

    b_total = cfg.n_replicates
    blocks = [(b0, min(_BLOCK, b_total - b0)) for b0 in range(0, b_total, _BLOCK)]

    def work(block):
        b0, nb = block
        return _stats_block(
            fit1, fit2, pool1, pool2, lag_cfgs, kernel_k, kernel_l, cfg, n_scale, b0, nb
        )

    if cfg.threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            pieces = list(pool.map(work, blocks))
    else:
        pieces = [work(block) for block in blocks]

    stats = np.concatenate([p[0] for p in pieces], axis=0)
    valid = np.concatenate([p[1] for p in pieces], axis=0)
    n_failed = int(b_total - valid.sum())
    if n_failed > int(_FAILURE_BUDGET * b_total):
        raise BootstrapError(
            f"{n_failed} of {b_total} bootstrap replicates failed "
            f"(budget {_FAILURE_BUDGET:.0%}); first failures at indices "
            f"{np.flatnonzero(~valid)[:5].tolist()}"
        )
    stats = stats[valid]
    b_eff = stats.shape[0]

    results = []
    for c, lag_cfg in enumerate(lag_cfgs):
        col = stats[:, c]
        ordered = np.sort(col)
        crit = {float(a): _critical_value(ordered, float(a)) for a in cfg.alphas}
        p_val = (1.0 + float((col >= observed[c]).sum())) / (b_eff + 1.0)
        results.append(
            BootstrapResult(
                label=lag_cfg.label,
                observed=float(observed[c]),
                replicate_stats=col.copy(),
                critical_values=crit,
                p_value=p_val,
                n_replicates=b_total,
                n_failed=n_failed,
            )
        )
    return results


def bootstrap_test(
    fit1: FitResult,
    fit2: FitResult,
    lag_cfg: LagConfig,
    kernel_k: KernelSpec | None = None,
    kernel_l: KernelSpec | None = None,
    cfg: BootstrapConfig | None = None,
) -> BootstrapResult:
    """Bootstrap p-value and critical values for a single statistic."""
    return bootstrap_run(fit1, fit2, [lag_cfg], kernel_k, kernel_l, cfg)[0]


def hsic_test_suite(
    fit1: FitResult,
    fit2: FitResult,
    lag_cfgs,
    kernel_k: KernelSpec | None = None,
    kernel_l: KernelSpec | None = None,
    cfg: BootstrapConfig | None = None,
    keep_replicates: bool = False,
) -> list[TestOutcome]:
    """Bootstrap-calibrated HSIC tests packaged as :class:`TestOutcome`."""
    cfg = cfg or BootstrapConfig()
    lag_cfgs = list(lag_cfgs)
    raw = bootstrap_run(fit1, fit2, lag_cfgs, kernel_k, kernel_l, cfg)
    start = max(fit1.presample, fit2.presample)
    n = fit1.n_obs - start
    outcomes = []
    for lag_cfg, res in zip(lag_cfgs, raw):
        outcomes.append(
            TestOutcome(
                name=lag_cfg.label,
                statistic=res.observed / n,
                scaled=res.observed,
                p_value=res.p_value,
                reference=f"bootstrap(B={res.n_replicates})",
                n=n,
                lag=lag_cfg.lag,
                direction=lag_cfg.direction,
                n_effective=n - lag_cfg.lag,
                critical_values=res.critical_values,
                replicates=res.replicate_stats if keep_replicates else None,
                n_failed=res.n_failed,
            )
        )
    return outcomes
