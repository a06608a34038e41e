import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsindep import (
    DataError,
    FitError,
    LagConfig,
    ModelSpec,
    SingularityError,
    bootstrap,
    fit_var,
    influence_values,
    paired_residuals,
    psd_sqrt,
    residuals,
    simulate,
    write_csv,
)
from tsindep.bootstrap import BootstrapConfig, _burn_in, _draw_innovations, _replicate_keys
from tsindep.cli import main
from bounds import cond_gap_bound, correlation_with_cond, onestep_gap_bound
from tsindep.models import (
    _COND_LIMIT,
    _SCAN_CHUNK,
    _fit_var_batch,
    _simulate_var,
    _var_design,
    _var_onestep_batch,
)


def make_var1_data(rng, n, coef, scale=1.0, burn=200):
    e = scale * rng.normal(size=(n + burn, coef.shape[0]))
    path = _simulate_var(coef, 1, False, e)
    return path[burn:]


class TestPsdSqrt:
    def test_identity(self):
        assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            v = a @ a.T
            root = psd_sqrt(v)
            assert_allclose(root @ root, v, rtol=1e-10, atol=1e-12)
            assert np.array_equal(root, root.T)

    def test_materially_negative_raises(self):
        with pytest.raises(Exception):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_tiny_negative_clipped(self):
        v = np.diag([1.0, -1e-14])
        root = psd_sqrt(v)
        assert root[1, 1] == 0.0


class TestFitVar:
    def test_near_noiseless_recovery(self):
        # Simulate-then-fit oracle: an O(1) transient with 1e-6 innovations
        # pins the coefficients almost exactly.
        rng = np.random.default_rng(1)
        coef = np.array([[0.5, 0.1], [-0.2, 0.3]])
        e = 1e-6 * rng.normal(size=(500, 2))
        data = np.vstack([[1.0, -1.0], _simulate_var(coef, 1, False, e, init=[[1.0, -1.0]])])
        fit = fit_var(data, p=1, intercept=False)
        assert_allclose(fit.coef, coef, atol=1e-3)

    def test_iid_data_gives_small_coefficients(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2000, 2))
        fit = fit_var(data, p=1, intercept=False)
        assert np.abs(fit.coef).max() < 0.1

    def test_too_few_observations(self):
        with pytest.raises(DataError):
            fit_var(np.zeros((2, 2)), p=1, intercept=False)

    def test_rank_deficient_design(self):
        data = np.ones((50, 2))  # constant columns, collinear with intercept
        with pytest.raises(Exception):
            fit_var(data, p=1, intercept=True)

    def test_overflowed_design_is_singular_without_warning(self):
        # 1e160**2 overflows: the Gram is not finite, so cond is inf.
        data = 1e160 * np.random.default_rng(0).normal(size=(60, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="cond=inf"):
                fit_var(data, p=1, intercept=True)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(200, 2))
        fit = fit_var(data, p=2, intercept=True)
        target = data[2:]
        cols = [np.ones((198, 1)), data[1:199], data[0:198]]
        design = np.hstack(cols)
        cross = design.T @ fit.effective_residuals
        scale = np.abs(design).max() * np.abs(data).max()
        assert np.abs(cross).max() <= 1e-8 * scale

    def test_presample_rows_zero(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(100, 2))
        fit = fit_var(data, p=3, intercept=False)
        assert_allclose(fit.residuals[:3], 0.0)
        assert fit.presample == 3
        assert fit.effective_residuals.shape == (97, 2)

    def test_theta_layout_row_major(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(100, 2))
        fit = fit_var(data, p=1, intercept=True)
        assert fit.theta.shape == (6,)
        assert_allclose(fit.theta.reshape(2, 3), fit.coef)

    def test_influence_mean_zero_on_training_data(self):
        # Exact by the normal equations.
        rng = np.random.default_rng(6)
        data = rng.normal(size=(300, 2))
        fit = fit_var(data, p=1, intercept=False)
        mean = fit.effective_influence.mean(axis=0)
        sd = fit.effective_influence.std(axis=0)
        assert (np.abs(mean) <= 5.0 * sd / np.sqrt(299) + 1e-12).all()
        assert np.abs(mean).max() < 1e-12


class TestResidualsOp:
    def test_residuals_match_training(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(150, 2))
        fit = fit_var(data, p=1, intercept=True)
        again = residuals(fit, data)
        assert_allclose(again, fit.residuals, atol=1e-12)

    def test_zero_coefficient_var_returns_data(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(100, 2))
        fit = fit_var(data, p=1, intercept=False)
        zero_fit = fit.__class__(
            model=fit.model,
            theta=np.zeros_like(fit.theta),
            residuals=fit.residuals,
            influence=fit.influence,
            n_obs=fit.n_obs,
            presample=fit.presample,
            init_values=fit.init_values,
            coef=np.zeros_like(fit.coef),
            gamma_inv=fit.gamma_inv,
        )
        out = residuals(zero_fit, data)
        assert_allclose(out[1:], data[1:], atol=1e-14)


class TestSimulate:
    def test_zero_coefficients_identity(self):
        rng = np.random.default_rng(9)
        e = rng.normal(size=(50, 2))
        spec = ModelSpec("var", p=1, intercept=False)
        out = simulate((spec, np.zeros(4)), e)
        assert_allclose(out, e, atol=1e-15)

    def test_simulate_residual_roundtrip(self):
        rng = np.random.default_rng(10)
        data = make_var1_data(rng, 300, np.array([[0.4, 0.1], [-0.3, 0.2]]))
        fit = fit_var(data, p=1, intercept=False)
        rebuilt = simulate(fit, fit.effective_residuals, init_state=fit.init_values)
        assert_allclose(rebuilt, data[1:], rtol=1e-8, atol=1e-10)

    def test_simulate_then_refit(self):
        rng = np.random.default_rng(11)
        coef = np.array([[0.4, 0.1], [-1.0, 0.5]])
        data = make_var1_data(rng, 2000, coef)
        fit = fit_var(data, p=1, intercept=False)
        assert_allclose(fit.coef, coef, atol=0.1)


class TestBatchHelpers:
    def test_batch_sim_matches_single(self):
        rng = np.random.default_rng(12)
        coef = np.array([[0.4, 0.1], [-0.2, 0.5]])
        e = rng.normal(size=(5, 60, 2))
        batch = _simulate_var(coef, 1, False, e)
        for b in range(5):
            solo = _simulate_var(coef, 1, False, e[b])
            assert_allclose(batch[b], solo, rtol=1e-12, atol=1e-14)

    def test_batch_fit_matches_single(self):
        # One least-squares core: a path in a stack gets the single fit's bits.
        rng = np.random.default_rng(13)
        for nb in (1, 7, 64):
            for p in (1, 2, 3):
                for intercept in (False, True):
                    for d in (1, 2, 3):
                        data = rng.normal(size=(nb, 120, d))
                        coefs, resid, valid, _, _ = _fit_var_batch(data, p, intercept)
                        assert valid.all()
                        for b in range(nb):
                            fit = fit_var(data[b], p, intercept)
                            assert np.array_equal(coefs[b], fit.coef)
                            assert np.array_equal(resid[b], fit.effective_residuals)

    def test_onestep_close_to_refit(self):
        # Both estimators are root-n consistent; on a fresh path from the
        # fitted dynamics they agree to a few hundredths at n=1000.
        rng = np.random.default_rng(14)
        coef = np.array([[0.4, 0.1], [-1.0, 0.5]])
        hits = 0
        for seed in range(20):
            local = np.random.default_rng(seed)
            data = make_var1_data(local, 1000, coef)
            fit = fit_var(data, p=1, intercept=False)
            e = local.normal(size=(1, 1500, 2))
            path = _simulate_var(fit.coef, 1, False, e)[:, 500:]
            refit_coef = _fit_var_batch(path, 1, False)[0]
            onestep_coef, _ = _var_onestep_batch(fit, path)
            if np.abs(refit_coef[0] - onestep_coef[0]).max() <= 0.05:
                hits += 1
        assert hits >= 18

    def test_onestep_zero_influence_returns_theta(self):
        rng = np.random.default_rng(15)
        data = make_var1_data(rng, 200, np.array([[0.3, 0.0], [0.0, 0.3]]))
        fit = fit_var(data, p=1, intercept=False)
        # A path that follows the fitted dynamics exactly has zero residuals
        # at theta-hat, hence zero influence values.
        exact = _simulate_var(fit.coef, 1, False, np.zeros((1, 100, 2)), init=np.ones((1, 2)) * 0.5)
        coef_b, _ = _var_onestep_batch(fit, exact)
        assert_allclose(coef_b[0], fit.coef, atol=1e-12)

    @pytest.mark.parametrize("nb", [1, 7])
    def test_onestep_is_mean_influence(self, nb):
        # The update is the mean of influence_values' rows within
        # onestep_gap_bound (the closed form (E'X) Gamma^-1 / m sums in
        # another order), and the residuals are those of residuals() at the
        # updated coefficients, bit for bit.
        rng = np.random.default_rng(20)
        shapes = ((2, 1, False), (2, 2, True), (1, 1, False), (1, 2, True), (3, 6, True))
        for d, p, intercept in shapes:
            fit = fit_var(rng.normal(size=(150, d)), p, intercept)
            paths = rng.normal(size=(nb, 120, d))
            coef_b, resid_b = _var_onestep_batch(fit, paths)
            for b in range(nb):
                mean = influence_values(fit, paths[b])[p:].mean(0)
                want = fit.coef + mean.reshape(fit.coef.shape)
                assert (np.abs(coef_b[b] - want) <= onestep_gap_bound(fit, paths[b])).all()
                moved = replace(fit, coef=coef_b[b])
                assert np.array_equal(resid_b[b], residuals(moved, paths[b])[p:])

    def test_onestep_never_forms_every_influence_row(self):
        # 16 paths x 1994 rows x 57 influence columns are 14.5 MB at once;
        # forming them all and then taking the mean peaks at 1.7 times that.
        rng = np.random.default_rng(21)
        fit = fit_var(rng.normal(size=(300, 3)), 6, True)
        paths = rng.normal(size=(16, 2000, 3))
        full = 8 * paths.shape[0] * (2000 - 6) * fit.coef.size
        tracemalloc.start()
        try:
            _var_onestep_batch(fit, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full


def fit_var_batch_einsum(data, p, intercept):
    """Oracle: the VAR batch refit as einsum products, as before the stacked core.

    The rank check is on the Gram rescaled to a unit diagonal.
    """
    target, design = _var_design(data, p, intercept)
    gram = np.einsum("bti,btj->bij", design, design)
    xty = np.einsum("bti,btk->bik", design, target)
    eye = np.eye(gram.shape[1])[None]
    diag = np.einsum("bii->bi", gram)
    usable = np.isfinite(gram).all(axis=(1, 2)) & (diag > 0).all(axis=1)
    with np.errstate(all="ignore"):
        unit = gram / np.sqrt(np.einsum("bi,bj->bij", diag, diag))
        cond = np.linalg.cond(np.where(usable[:, None, None], unit, eye))
    valid = usable & np.isfinite(cond) & (cond < _COND_LIMIT)
    safe_gram = np.where(valid[:, None, None], gram, eye)
    coef_t = np.linalg.solve(safe_gram, xty)
    resid = target - np.einsum("btq,bqk->btk", design, coef_t)
    return np.swapaxes(coef_t, 1, 2), resid, valid


def row_norm(m):
    """Max-row-sum norm of each matrix in a stack."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def ls_term_scale(data, p, intercept, coef):
    """Per path, the size of the terms behind least-squares coefficients and residuals.

    With ``G = X'X`` and ``B`` the (q, d) coefficients, in max-row-sum norms,
    ``s_B = ||G^-1|| (|| |X|'|Y| || + || |X|'|X| || ||B||)``: a relative
    rounding error u in every product of X'X and X'Y, in any summation
    order, moves B by at most about ``u s_B``, and the residuals Y - XB by
    at most about ``u (||X|| s_B + ||Y|| + ||X|| ||B||)``.  Returns both scales.
    """
    target, design = _var_design(data, p, intercept)
    abs_xt = np.swapaxes(np.abs(design), 1, 2)
    gram = np.swapaxes(design, 1, 2) @ design
    norm_x, norm_b = row_norm(design), row_norm(np.swapaxes(coef, 1, 2))
    s_coef = row_norm(np.linalg.inv(gram)) * (
        row_norm(abs_xt @ np.abs(target)) + row_norm(abs_xt @ np.abs(design)) * norm_b
    )
    return s_coef, norm_x * s_coef + row_norm(target) + norm_x * norm_b


def step_loop(coef, p, intercept, innovations, init=None):
    """Oracle: the VAR recursion one row at a time, as before the chunked scan."""
    e = np.asarray(innovations, dtype=float)
    d = e.shape[-1]
    batched = e.ndim == 3
    if not batched:
        e = e[None]
    buf = np.empty((e.shape[0], p + e.shape[1], d))
    buf[:, :p] = np.zeros((p, d)) if init is None else init
    c = coef[:, 0] if intercept else np.zeros(d)
    offset = 1 if intercept else 0
    mats = [coef[:, offset + j * d : offset + (j + 1) * d] for j in range(p)]
    for t in range(e.shape[1]):
        acc = e[:, t] + c
        for j, a in enumerate(mats):
            acc = acc + buf[:, p + t - 1 - j] @ a.T
        buf[:, p + t] = acc
    out = buf[:, p:]
    return out if batched else out[0]


def no_blocks(*args, **kwargs):
    raise AssertionError("a replicate block ran")


def coef_with_radius(rng, d, p, rho):
    """Random [A_1 | ... | A_p] whose companion matrix has spectral radius rho."""
    a = rng.normal(size=(d, d * p))
    companion = np.eye(d * p, k=-d)
    companion[:d] = a
    s = rho / np.abs(np.linalg.eigvals(companion)).max()
    # Scaling A_j by s**j scales every companion eigenvalue by s.
    return a * np.repeat(s ** np.arange(1, p + 1), d)


def term_scale(coef, p, intercept, innovations, init):
    """Per row, the summed size of the terms that make up y_t.

    ``sum_j |Psi_{t-j}| |e_j + c| + |Phi_{t+1}| |init|`` in max norms, with
    ``Phi_k = (F^k)[:d]`` and ``Psi_k = Phi_k[:, :d]``: the scale of the
    rounding error of any summation order.  For a stable VAR it is of the
    order of |y_t|; an explosive path can stay O(1) only by cancellation
    among terms of size rho**k, and then it is much larger.
    """
    e = np.asarray(innovations, dtype=float)
    d, n = e.shape[-1], e.shape[-2]
    companion = np.eye(d * p, k=-d)
    companion[:d] = coef[:, 1:] if intercept else coef
    phi = [np.eye(d, d * p)]
    for _ in range(n):
        phi.append(phi[-1] @ companion)
    phi_norm = np.array([np.abs(f).sum(axis=1).max() for f in phi])
    psi_norm = np.array([np.abs(f[:, :d]).sum(axis=1).max() for f in phi])
    drive = np.abs(e + (coef[:, 0] if intercept else 0.0)).max(axis=-1).reshape(-1, n)
    conv = np.array([np.convolve(psi_norm[:n], u)[:n] for u in drive]).reshape(e.shape[:-1])
    return conv + phi_norm[1:] * np.abs(init).max()


def scan_gap(got, ref, scale):
    """Largest row error of ``got`` against ``ref`` relative to ``scale``."""
    return float((np.abs(got - ref).max(axis=-1) / scale).max())


class TestChunkedScan:
    # Relative to term_scale, which is of the order of |y_t| for stable paths.
    RTOL = 1e-12

    def assert_matches_loop(self, coef, p, intercept, e, init=None):
        got = _simulate_var(coef, p, intercept, e, init=init)
        ref = step_loop(coef, p, intercept, e, init=init)
        assert got.shape == ref.shape
        if ref.size:
            scale = term_scale(coef, p, intercept, e, np.zeros(1) if init is None else init)
            assert scan_gap(got, ref, scale) <= self.RTOL

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_step_loop(self, p, d, intercept):
        rng = np.random.default_rng(100 * p + 10 * d + intercept)
        L = _SCAN_CHUNK
        for rho in (0.5, 0.9, 0.99, 1.5):
            coef = coef_with_radius(rng, d, p, rho)
            if intercept:
                coef = np.hstack([rng.normal(size=(d, 1)), coef])
            init = rng.normal(size=(p, d))
            for n_out in sorted({0, 1, p, L - 1, L, L + 1, 600}):
                for shape in ((n_out, d), (1, n_out, d), (7, n_out, d), (64, n_out, d)):
                    self.assert_matches_loop(coef, p, intercept, rng.normal(size=shape), init)
            self.assert_matches_loop(coef, p, intercept, rng.normal(size=(3, 600, d)))

    def test_order_above_chunk_length(self):
        rng = np.random.default_rng(7)
        p = _SCAN_CHUNK + 6
        coef = coef_with_radius(rng, 2, p, 0.9)
        init = rng.normal(size=(p, 2))
        self.assert_matches_loop(coef, p, False, rng.normal(size=(3, 200, 2)), init)

    def test_overflow_marks_the_same_paths(self):
        # rho = 4: a path overflows within 600 rows only if its first nonzero
        # innovation comes early enough (4**512 > 1.8e308).
        rng = np.random.default_rng(8)
        coef = coef_with_radius(rng, 2, 1, 4.0)
        e = rng.normal(size=(12, 600, 2))
        for b, start in enumerate(np.linspace(0, 550, 12).astype(int)):
            e[b, :start] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            got = _simulate_var(coef, 1, False, e)
            ref = step_loop(coef, 1, False, e)
        finite = np.isfinite(ref).all(axis=(1, 2))
        assert finite.any() and not finite.all()
        assert np.array_equal(np.isfinite(got).all(axis=(1, 2)), finite)

    @pytest.mark.parametrize("mode", ["full_refit", "one_step"])
    def test_series_block_flags_overflowed_replicates(self, monkeypatch, tmp_path, capfd, mode):
        rng = np.random.default_rng(9)
        data = make_var1_data(rng, 100, np.array([[0.3, 0.0], [0.0, 0.3]]))
        coef = coef_with_radius(rng, 2, 1, 4.0)
        fit = replace(fit_var(data, 1, False), coef=coef, theta=coef.ravel())
        pool = fit.effective_residuals
        innov = _draw_innovations(pool, 600, 0, 5, 0, _replicate_keys(5, 0, 64, 1), 1)
        with np.errstate(all="ignore"):
            got = _simulate_var(coef, 1, False, innov)
            ref = step_loop(coef, 1, False, innov)
        # Every one of the 600-row paths overflows, with the scan as with the loop.
        assert not np.isfinite(got).all(axis=(1, 2)).any()
        assert not np.isfinite(ref).all(axis=(1, 2)).any()
        # The bootstrap refuses such a fit before it simulates a path.
        with pytest.raises(FitError, match=r"spectral radius is rho = 4 >= 1"):
            _burn_in(fit)
        monkeypatch.setattr(bootstrap, "_series_block", no_blocks)
        cfg = BootstrapConfig(n_replicates=64, estimator_mode=mode, master_seed=5)
        stable = fit_var(data, 1, False)
        for pair in ((fit, stable), (stable, fit)):
            with pytest.raises(FitError, match=r"spectral radius is rho = 4 >= 1"):
                bootstrap.bootstrap_run(*pair, [LagConfig(1, m=0)], cfg=cfg)
        # From the CLI: a VAR(1) path with coefficient 1.1 fits an explosive model.
        paths = []
        for name in ("a.csv", "b.csv"):
            paths.append(str(tmp_path / name))
            write_csv(paths[-1], make_var1_data(rng, 80, 1.1 * np.eye(2), burn=0))
        argv = ["test", "--series1", paths[0], "--series2", paths[1], "-B", "9"]
        if mode == "one_step":
            argv += ["--estimator-mode", "one-step"]
        assert main(argv) == 3
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: bootstrap needs a stationary fit;")
        assert re.search(r"spectral radius is rho = 1\.\d+ >= 1$", err.strip())


class TestLeastSquaresOracle:
    # Relative to ls_term_scale, as TestChunkedScan is to term_scale.
    RTOL = 1e-12

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_einsum_batch(self, p, d, intercept):
        rng = np.random.default_rng(100 * p + 10 * d + intercept)
        coef = coef_with_radius(rng, d, p, 0.9)
        for nb, n in ((1, 60), (7, 200), (64, 500)):
            e = rng.normal(size=(nb, n + 100, d))
            data = _simulate_var(coef, p, False, e)[:, 100:]
            got_coef, got_resid, got_valid, _, _ = _fit_var_batch(data, p, intercept)
            ref_coef, ref_resid, ref_valid = fit_var_batch_einsum(data, p, intercept)
            assert got_valid.all() and ref_valid.all()
            coef_scale, resid_scale = ls_term_scale(data, p, intercept, ref_coef)
            assert (np.abs(got_coef - ref_coef).max(axis=(1, 2)) <= self.RTOL * coef_scale).all()
            assert (np.abs(got_resid - ref_resid).max(axis=(1, 2)) <= self.RTOL * resid_scale).all()

    def test_same_paths_invalid_without_warning(self):
        # Constant, collinear and overflowed paths fail under both forms.
        rng = np.random.default_rng(21)
        data = rng.normal(size=(6, 100, 2))
        data[1] = 1.0
        data[3, :, 1] = 2.0 * data[3, :, 0]
        data[5] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _fit_var_batch(data, 1, True)[2]
            _, _, ref = fit_var_batch_einsum(data, 1, True)
        assert got.tolist() == ref.tolist() == [True, False, True, False, True, False]


class TestUnitFreeFit:
    # Relative to ls_term_scale of the unscaled, unshifted data.
    RTOL = 1e-12
    COEF = np.array([[0.5, 0.1], [-0.2, 0.3]])

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e6, 1e8])
    def test_residuals_scale_with_the_data(self, c, p, intercept):
        y = make_var1_data(np.random.default_rng(31), 500, self.COEF)
        ref = fit_var(y, p, intercept)
        got = fit_var(c * y, p, intercept)
        # Rescaling scales every term of the fit, and its rounding, by c.
        scale = c * ls_term_scale(y[None], p, intercept, ref.coef[None])[1][0]
        gap = np.abs(got.effective_residuals - c * ref.effective_residuals).max()
        assert gap <= self.RTOL * scale

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("m", [1e2, 1e3])
    def test_level_shift_leaves_residuals(self, m, p):
        y = make_var1_data(np.random.default_rng(32), 500, self.COEF)
        ref = fit_var(y, p, True)
        got = fit_var(m + y, p, True)
        # The shift makes the data columns nearly collinear with the intercept
        # column; that cancellation amplifies rounding by at most the
        # equilibrated condition number.
        cond = _fit_var_batch((m + y)[None], p, True)[3][0]
        scale = cond * ls_term_scale(y[None], p, True, ref.coef[None])[1][0]
        gap = np.abs(got.effective_residuals - ref.effective_residuals).max()
        assert gap <= self.RTOL * scale

    def test_condition_number_ignores_units(self):
        y = np.random.default_rng(33).normal(size=(500, 2))
        conds = [_fit_var_batch(c * y[None], 1, True)[3][0] for c in (1e-8, 1.0, 1e8)]
        assert_allclose(conds, conds[1], rtol=1e-8)
        assert conds[1] < 2.0


def design_with_cond(rng, m, d, kappa):
    """(m + 1, d) data whose VAR(1) design ``X = data[:-1]`` has ``X'X`` a
    correlation matrix whose condition number is near ``kappa``: X is an
    orthonormal basis times the Cholesky factor of that matrix."""
    z, _ = np.linalg.qr(rng.normal(size=(m, d)))
    corr = correlation_with_cond(rng, d, kappa)
    return np.vstack([z @ np.linalg.cholesky(corr).T, np.zeros((1, d))])


class TestEquilibratedCondition:
    """``_fit_var_batch``'s condition number from eigenvalues against the SVD's."""

    @staticmethod
    def equilibrated(gram):
        # The same operations as the fit, so both sides read one matrix.
        inv_root = 1.0 / np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
        return gram * inv_root[..., :, None] * inv_root[..., None, :]

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_matches_svd_condition(self, d):
        rng = np.random.default_rng(40 + d)
        data = np.stack([design_with_cond(rng, 80, d, k) for k in np.geomspace(1.0, 1e11, 12)])
        _, _, valid, cond, gram = _fit_var_batch(data, 1, False)
        scaled = self.equilibrated(gram)
        want = np.linalg.cond(scaled)
        bound = np.array([cond_gap_bound(mat) for mat in scaled])
        assert valid.all()
        assert (np.abs(cond - want) <= bound * want).all()

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_same_verdict_on_both_sides_of_the_limit(self, d):
        rng = np.random.default_rng(50 + d)
        kappas = (1e3, 1e9, 1e11, 3e13, 1e15)
        data = np.stack([design_with_cond(rng, 80, d, k) for k in kappas])
        _, _, valid, cond, gram = _fit_var_batch(data, 1, False)
        svd_cond = np.linalg.cond(self.equilibrated(gram))
        # Every case sits a factor 10^0.5 or more from the limit, on each side.
        assert (np.abs(np.log10(svd_cond / _COND_LIMIT)) > 0.5).all()
        assert valid.tolist() == (svd_cond < _COND_LIMIT).tolist() == [True] * 3 + [False] * 2
        assert (cond[~valid] >= _COND_LIMIT).all()


class TestPairedResidualsAlignment:
    def test_same_order_alignment(self):
        rng = np.random.default_rng(16)
        data1 = rng.normal(size=(100, 2))
        data2 = rng.normal(size=(100, 2))
        pair = paired_residuals(fit_var(data1, 1, False), fit_var(data2, 1, False))
        assert pair.n == 99

    def test_different_orders_trim_to_common_start(self):
        rng = np.random.default_rng(17)
        data1 = rng.normal(size=(100, 2))
        data2 = rng.normal(size=(100, 2))
        fit1 = fit_var(data1, 1, False)
        fit2 = fit_var(data2, 3, False)
        pair = paired_residuals(fit1, fit2)
        assert pair.n == 97
        assert_allclose(pair.eta1, fit1.effective_residuals[2:])
        assert_allclose(pair.eta2, fit2.effective_residuals)

    def test_influence_values_on_new_data(self):
        rng = np.random.default_rng(18)
        data = rng.normal(size=(150, 2))
        fit = fit_var(data, 1, False)
        fresh = rng.normal(size=(150, 2))
        infl = influence_values(fit, fresh)
        resid_new = residuals(fit, fresh)[1:]
        target, design = fresh[1:], fresh[:-1]
        expected_mean = (
            (resid_new[:, :, None] * (design @ fit.gamma_inv)[:, None, :]).reshape(149, 4).mean(0)
        )
        assert_allclose(infl[1:].mean(0), expected_mean, rtol=1e-10)
