"""Residual bootstrap critical values for the HSIC test statistics.

One bootstrap replicate, for each series independently:

1. resample (with replacement) from the standardized empirical residuals,
2. simulate a fresh path through the fitted dynamics, after a burn-in
   sized by the fit's memory (see below),
3. re-estimate the model on that path: a full refit, or the one-step
   update ``theta + mean(influence on the path at theta)``, which avoids
   re-optimizing and is the default for the GARCH model,
4. extract the path's residuals at the re-estimated parameters,

then the scaled statistics ``n * S`` / ``n * J`` are computed on the pair
of bootstrap residual series.  Resampling the two series from independent
streams is what enforces the independence null in the bootstrap world.

Replicate ``b`` of series ``s`` draws from the stream derived from
``(master_seed, b, s)``, so results are bit-identical for any thread
count and do not depend on which statistics are requested.  A draw is
the index ``(u * m) >> 32`` into the pool of m rows, for u the next
32-bit half of a raw Philox word, low half first, by Lemire's bounded
map.  A path whose u hits the map's rejection zone (about 1e-8 per draw
at m = 100) is drawn again whole by ``Generator.integers``, which rejects
and moves on to the next half.  So the draws are those of
``Generator.integers(0, m)`` on the stream, and a test pins them to it on
the installed numpy.  The run derives all B keys of each series at once
(:func:`_replicate_keys`), and a block takes each path's words in one call
and maps them in one array step (:func:`_resample_indices`).

A path starts at y = 0 (VAR) or at the stationary variances (GARCH) and
runs ``L`` burn-in rows before its n kept rows.  ``L`` comes from the
fit: with rho the spectral radius of the VAR companion matrix (intercept
left out), or the larger ``alpha + beta`` of the GARCH fit, the start's
influence decays like rho^L, and ``L = ceil(log 2^-53 / log rho)`` takes
it below float64 rounding, clamped to [50, 500] (:func:`_burn_in`).  At
the cap a share rho^500 of the start's offset from the mean can remain
(0.66 of a mean of 100 at rho = 0.99), so a VAR path whose ``L`` is at
the cap starts at the fit's stationary mean instead of 0.  A
fit with rho >= 1 has no stationary path to simulate and raises
:class:`~tsindep.exceptions.FitError` before any replicate runs.  A
replicate draws its n + L rows from its stream; the first n feed the kept
rows and the last L the burn-in, backwards from the first kept row, so
the kept rows' draws do not depend on L, and neither do the burn-in
rows nearest to them.

Replicates run in blocks of ``_BLOCK``, one block per task of the thread
pool.  A block draws, simulates and re-estimates all of its paths of
both series at once (:func:`_series_block`).  Its valid replicates then
go through the Gram matrices and the multi-lag HSIC pass in stacks
(:func:`_stack_stats`): one :func:`~tsindep.kernels.gram_matrix` call per
series and one :func:`~tsindep.hsic.stat_from_grams` call for all
statistics serve a whole stack, whose Grams take at most
``_STACK_BYTES`` per series (6 replicates at n = 100, 2 at n = 150, and
one from n = 182 on).  One pair of Gram buffers serves every stack of a
block, and the pass's call list on them
(:func:`~tsindep.hsic._pass_calls`) is built once per stack depth per
block: at most twice, since only a block's last stack can be shallower.
A block owns its buffers and lists, so no two threads share one, and
they go with the block.  Each replicate's statistics have the bits they
have when computed alone.

The observed statistics take the same path, as a stack of one whose
buffers are gone before the first block allocates its own.  A run thus
holds at most one pair of n x n Gram buffers, 16 n^2 bytes, per worker
thread that is running a block: about 64 MB at n = 2000 and 400 MB at
n = 5000.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._streams import _MASK32, BOOTSTRAP, path_keys, substream
from .exceptions import BootstrapError, DataError, FitError, SingularityError
from .hsic import _TILE_BYTES, LagConfig, _pass_calls, stat_from_grams
from .kernels import KernelSpec, as_points, gram_matrix
from .models import (
    FitResult,
    _align,
    _eval_data,
    _fit_var_batch,
    _garch_residuals_batch,
    _garch_unpack,
    _garch_xspace_scores_batch,
    _simulate_garch,
    _simulate_var,
    _var_companion,
    _var_onestep_batch,
    fit_ccc_garch,
    fit_var,
    paired_residuals,
)
from .results import TestOutcome

STANDARDIZE_MODES = ("whiten", "center", "none")
ESTIMATOR_MODES = ("auto", "full_refit", "one_step")

_BLOCK = 64
# Bytes of one stack of replicate Grams (see _stats_block), the pass's tile
# size: a stack of several replicates (n <= 181) is then one tile of the
# pass, and the two stacks of a block fit a 2 MB L2 cache together.  From
# n = 182 on a stack is one replicate, whose Grams the pass reads in row
# tiles that do not straddle a hsic._CROSS_BLOCK edge.
_STACK_BYTES = _TILE_BYTES
_FAILURE_BUDGET = 0.02
# Burn-in rows of a bootstrap path: enough for the start to decay below
# _BURN_IN_TOL at the fit's memory rate, within [_BURN_IN_MIN, _BURN_IN_MAX].
_BURN_IN_TOL = 2.0**-53
_BURN_IN_MIN = 50
_BURN_IN_MAX = 500


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs for one bootstrap run.

    ``estimator_mode='auto'`` resolves per model kind: full refit for VAR
    (closed form, cheap) and the one-step update for the GARCH model.
    ``standardize`` controls the treatment of the residual pool before
    resampling: ``'center'`` subtracts column means (the default),
    ``'whiten'`` additionally rescales to identity sample covariance,
    ``'none'`` resamples the raw residuals.  ``alphas`` are stored as
    distinct floats in ascending order, so a level given twice is one level.
    """

    n_replicates: int = 199
    alphas: tuple = (0.01, 0.05, 0.10)
    estimator_mode: str = "auto"
    master_seed: int = 0
    standardize: str = "center"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ValueError("need at least one bootstrap replicate")
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("significance levels must lie in (0, 1)")
        object.__setattr__(self, "alphas", tuple(sorted({float(a) for a in self.alphas})))
        if self.estimator_mode not in ESTIMATOR_MODES:
            raise ValueError(f"estimator_mode must be one of {ESTIMATOR_MODES}")
        if self.standardize not in STANDARDIZE_MODES:
            raise ValueError(f"standardize must be one of {STANDARDIZE_MODES}")
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
    return pool.take(idx, axis=0)


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
    data = _eval_data(fit, boot_data)
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


def _burn_in(fit: FitResult) -> int:
    """Burn-in rows for bootstrap paths of ``fit``.

    A path forgets its start at the rate rho: the spectral radius of the VAR
    companion matrix (intercept column left out), or the larger ``alpha +
    beta`` of a CCC-GARCH fit.  The rows are ``ceil(log _BURN_IN_TOL / log
    rho)`` within [_BURN_IN_MIN, _BURN_IN_MAX]; rho = 0 gives the floor.
    Raises :class:`FitError` when rho >= 1: the fit has no stationary path.
    """
    if fit.model.kind == "ccc_garch":
        th = fit.theta
        rho, what = float(max(th[1] + th[2], th[4] + th[5])), "alpha + beta"
    else:
        companion = _var_companion(fit.coef, fit.model.p, fit.model.intercept)
        rho = float(np.abs(np.linalg.eigvals(companion)).max())
        what = "VAR companion spectral radius"
    if not rho < 1.0:
        raise FitError(f"bootstrap needs a stationary fit; its {what} is rho = {rho:.6g} >= 1")
    if rho == 0.0:
        return _BURN_IN_MIN
    rows = math.ceil(math.log(_BURN_IN_TOL) / math.log(rho))
    return min(_BURN_IN_MAX, max(_BURN_IN_MIN, rows))


def _var_mean_start(fit: FitResult):
    """The p start rows of a VAR path at the fit's stationary mean ``(I -
    sum_k A_k)^-1 c``, or None (the zero start) for a fit without an
    intercept, whose mean is 0."""
    if not fit.model.intercept:
        return None
    d, p = fit.coef.shape[0], fit.model.p
    a_sum = fit.coef[:, 1:].reshape(d, p, d).sum(axis=1)
    mean = np.linalg.solve(np.eye(d) - a_sum, fit.coef[:, 0])
    return np.tile(mean, (p, 1))


def _replicate_keys(master_seed: int, b0: int, nb: int, series: int) -> np.ndarray:
    """Philox keys, (nb, 2) uint64, of the streams of replicates ``b0 ..
    b0 + nb - 1`` of ``series``: row i keys ``substream(master_seed,
    BOOTSTRAP, b0 + i, series)``."""
    b = np.arange(b0, b0 + nb)
    return path_keys(master_seed, np.column_stack([np.full(nb, BOOTSTRAP), b, np.full(nb, series)]))


def _resample_indices(rng: np.random.Generator, keys: np.ndarray, n_sim: int, size: int):
    """Indices in ``[0, size)``, (len(keys), n_sim) int64, one row per key.

    Row i is what ``rng.integers(0, size, size=n_sim)`` draws after ``rng``
    is re-keyed to ``keys[i]`` (counter 0, empty buffers), for a Philox
    ``rng``.  numpy draws each index from the next 32-bit half of a raw
    Philox word, low half first: u maps to ``(u * size) >> 32``, and u is
    rejected in favour of the next half when the low 32 bits of ``u *
    size`` fall below ``(2**32 - size) % size`` (Lemire's rule).  Here a
    path takes its ceil(n_sim / 2) raw words in one call, and the block is
    mapped in one array step.  A path with a half in the rejection zone,
    about 1e-8 per draw at size 100, is drawn again through
    ``rng.integers`` itself, as is every path when size > 2**32, where
    numpy maps 64-bit words instead.
    """
    bitgen = rng.bit_generator
    fresh = bitgen.state
    nb, n_words = len(keys), -(-n_sim // 2)
    words = np.empty((nb, n_words), dtype=np.uint64)
    for i, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        words[i] = bitgen.random_raw(n_words)
    # The halves by arithmetic, so their order does not depend on byte order.
    scaled = np.empty((nb, 2 * n_words), dtype=np.uint64)
    np.bitwise_and(words, _MASK32, out=scaled[:, 0::2])
    np.right_shift(words, 32, out=scaled[:, 1::2])
    scaled = scaled[:, :n_sim]
    if size > 2**32:
        redraw = range(nb)
    else:
        scaled *= np.uint64(size)
        redraw = np.flatnonzero(((scaled & _MASK32) < (2**32 - size) % size).any(axis=1))
    idx = (scaled >> 32).astype(np.int64)
    for i in redraw:
        fresh["state"]["key"] = keys[i]
        bitgen.state = fresh
        idx[i] = rng.integers(0, size, size=n_sim)
    return idx


def _draw_innovations(
    pool: np.ndarray, n: int, burn: int, master_seed: int, b0: int, keys, series: int
):
    """Rows of ``pool`` resampled for the paths of replicates ``b0 .. b0 +
    nb - 1`` of ``series``, (nb, burn + n, d) in path order.

    ``keys`` holds the replicates' Philox keys, rows ``b0 ..`` of
    :func:`_replicate_keys`.  Replicate ``b`` takes ``n + burn`` draws from
    ``substream(master_seed, BOOTSTRAP, b, series)``: its first ``n``
    draws give the kept rows, the last ``burn`` the burn-in rows, backwards
    from the first kept row.  One generator, that of replicate ``b0``,
    is re-keyed to each replicate's stream in turn
    (:func:`_resample_indices`), and the rows are gathered in one take.
    """
    rng = substream(master_seed, BOOTSTRAP, b0, series)
    idx = _resample_indices(rng, keys, n + burn, pool.shape[0])
    idx = np.concatenate([idx[:, n:][:, ::-1], idx[:, :n]], axis=1)
    return pool.take(idx, axis=0)


def _series_block(
    fit: FitResult, pool: np.ndarray, burn: int, cfg: BootstrapConfig, b0: int, keys, series: int
):
    """Simulate, re-estimate and extract residuals for one replicate block.

    ``keys`` holds the Philox keys of replicates ``b0 .. b0 + nb - 1``
    (:func:`_replicate_keys`).  Returns ``(residuals, valid)`` with
    residuals of shape (nb, n_res, d).  A replicate's first n draws drive
    its kept rows and its last ``burn`` draws the burn-in rows, backwards
    from the first kept row.  A VAR path whose burn-in is at the cap starts
    at the fit's stationary mean (:func:`_var_mean_start`).
    """
    kind = fit.model.kind
    mode = _resolve_mode(cfg.estimator_mode, kind)
    n, nb = fit.n_obs, len(keys)
    innov = _draw_innovations(pool, n, burn, cfg.master_seed, b0, keys, series)
    if kind == "var":
        init = _var_mean_start(fit) if burn == _BURN_IN_MAX else None
        paths = _simulate_var(fit.coef, fit.model.p, fit.model.intercept, innov, init)
        paths = paths[:, burn:]
        if mode == "full_refit":
            _, resid, valid, _, _ = _fit_var_batch(paths, fit.model.p, fit.model.intercept)
        else:
            _, resid = _var_onestep_batch(fit, paths)
            valid = np.ones(nb, dtype=bool)
        valid &= np.isfinite(resid).reshape(nb, -1).all(axis=1)
        return resid, valid
    paths = _simulate_garch(fit.theta, innov)[:, burn:]
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


def _stack_stats(e1, e2, items, lag_cfgs, kernel_k, kernel_l):
    """Raw statistics of the point-set pairs ``e1[i], e2[i]`` for ``i`` in
    ``items``, one row per item and one column per config.

    The pairs go through the Grams and the pass in stacks of at most
    ``_STACK_BYTES`` per Gram stack, and at least one pair.  One pair of
    buffers serves every stack: fresh stack-sized arrays would go back to
    the system when freed and fault their pages in again for the next
    stack.  A kept pass is bound to the array objects it was built on, so
    each stack depth keeps one pass on one view of each buffer, and the
    Grams of every stack of that depth go into those views; passes, views
    and buffers go when this returns.  Each row has the bits of
    ``stat_from_grams`` on the Grams of its pair alone.
    """
    n = e1.shape[1]
    depth = max(1, _STACK_BYTES // (8 * n**2))
    buf1, buf2 = np.empty((2, min(depth, len(items)), n, n))
    calls = {}
    stats = np.empty((len(items), len(lag_cfgs)))
    for s0 in range(0, len(items), depth):
        stack = items[s0 : s0 + depth]
        if len(stack) not in calls:
            calls[len(stack)] = _pass_calls(buf1[: len(stack)], buf2[: len(stack)], lag_cfgs)
        kept = calls[len(stack)]
        g1 = gram_matrix(kernel_k, e1[stack], out=kept.g1).values
        g2 = gram_matrix(kernel_l, e2[stack], out=kept.g2).values
        stats[s0 : s0 + depth] = stat_from_grams(g1, g2, lag_cfgs, calls=kept)
    return stats


def _stats_block(
    fit1, fit2, pool1, pool2, burns, keys, lag_cfgs, kernel_k, kernel_l, cfg, n_scale, b0, nb
):
    res1, ok1 = _series_block(fit1, pool1, burns[0], cfg, b0, keys[0][b0 : b0 + nb], series=1)
    res2, ok2 = _series_block(fit2, pool2, burns[1], cfg, b0, keys[1][b0 : b0 + nb], series=2)
    e1, e2 = _align(res1, fit1.presample, res2, fit2.presample)
    stats = np.full((nb, len(lag_cfgs)), np.nan)
    valid = ok1 & ok2
    todo = np.flatnonzero(valid)
    stats[todo] = n_scale * _stack_stats(e1, e2, todo, lag_cfgs, kernel_k, kernel_l)
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
    A fit with no stationary path (rho >= 1, see :func:`_burn_in`) raises
    :class:`FitError` before any replicate runs.
    """
    cfg = cfg or BootstrapConfig()
    kernel_k = kernel_k or KernelSpec.gaussian(1.0)
    kernel_l = kernel_l or KernelSpec.gaussian(1.0)
    lag_cfgs = list(lag_cfgs)
    if not lag_cfgs:
        raise ValueError("no statistics requested")

    pair = paired_residuals(fit1, fit2)
    n_scale = pair.n
    # A fit with no stationary path fails here, before any block runs.
    burns = (_burn_in(fit1), _burn_in(fit2))
    for lag_cfg in lag_cfgs:
        if n_scale - lag_cfg.lag < 2:
            raise DataError(f"lag {lag_cfg.lag} infeasible for n={n_scale}")

    # The observed pair is a stack of one, whose Grams are gone before the
    # first block builds its own.
    observed = n_scale * _stack_stats(
        pair.eta1[None], pair.eta2[None], [0], lag_cfgs, kernel_k, kernel_l
    )[0]

    pool1 = standardize_residuals(fit1.effective_residuals, cfg.standardize)
    pool2 = standardize_residuals(fit2.effective_residuals, cfg.standardize)

    b_total = cfg.n_replicates
    blocks = [(b0, min(_BLOCK, b_total - b0)) for b0 in range(0, b_total, _BLOCK)]
    keys = [_replicate_keys(cfg.master_seed, 0, b_total, series) for series in (1, 2)]

    def work(block):
        b0, nb = block
        return _stats_block(
            fit1, fit2, pool1, pool2, burns, keys, lag_cfgs, kernel_k, kernel_l, cfg, n_scale,
            b0, nb,
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
        crit = {a: _critical_value(ordered, a) for a in cfg.alphas}
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
    n = paired_residuals(fit1, fit2).n
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
