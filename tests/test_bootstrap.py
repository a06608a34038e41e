import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tsindep.bootstrap as bootstrap_module
from tsindep import (
    BootstrapConfig,
    DataError,
    FitError,
    KernelSpec,
    LagConfig,
    ModelSpec,
    SingularityError,
    bootstrap_estimate,
    bootstrap_run,
    bootstrap_test,
    fit_ccc_garch,
    fit_var,
    gram_matrix,
    hsic_test_suite,
    influence_values,
    paired_residuals,
    resample_innovations,
    residuals,
    single_stat,
    standardize_residuals,
    stat_from_grams,
)
from tsindep._streams import BOOTSTRAP, substream
from tsindep.models import _simulate_garch, _simulate_var


ALL_FAMILIES = [
    KernelSpec.gaussian(1.0),
    KernelSpec.laplace(1.5),
    KernelSpec.inverse_multiquadric(1.0, 1.0),
    KernelSpec.fbm(0.5),
]


def var_fit_pair(seed=0, n=80, phi=0.3):
    rng = np.random.default_rng(seed)
    coef = np.array([[phi, 0.0], [0.0, phi]])
    e1 = rng.normal(size=(n + 100, 2))
    e2 = rng.normal(size=(n + 100, 2))
    y1 = _simulate_var(coef, 1, False, e1)[100:]
    y2 = _simulate_var(coef, 1, False, e2)[100:]
    return fit_var(y1, 1, False), fit_var(y2, 1, False)


class TestStandardize:
    def test_centering_only(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2)) + np.array([5.0, 5.0])
        out = standardize_residuals(x, "center")
        assert np.abs(out.mean(axis=0)).max() < 1e-13

    def test_whitening_gives_identity_covariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 3)) @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 2.0]])
        out = standardize_residuals(x, "whiten")
        cov = out.T @ out / 200
        assert_allclose(cov, np.eye(3), atol=1e-10)
        assert np.abs(out.mean(axis=0)).max() < 1e-13

    def test_whitening_idempotent_up_to_numerics(self):
        rng = np.random.default_rng(2)
        x = standardize_residuals(rng.normal(size=(100, 2)), "whiten")
        again = standardize_residuals(x, "whiten")
        cov = again.T @ again / 100
        assert_allclose(cov, np.eye(2), atol=1e-10)

    def test_singular_covariance_rejected(self):
        x = np.column_stack([np.arange(20.0), np.arange(20.0)])
        with pytest.raises(SingularityError):
            standardize_residuals(x, "whiten")

    def test_none_mode_returns_copy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        out = standardize_residuals(x, "none")
        assert np.array_equal(out, x)
        assert out is not x


class TestResample:
    def test_single_row_pool(self):
        pool = np.array([[1.5, -2.0]])
        rng = substream(0, 1)
        out = resample_innovations(pool, 10, rng)
        assert_allclose(out, np.tile(pool, (10, 1)))

    def test_fixed_seed_bit_identical(self):
        pool = np.random.default_rng(4).normal(size=(50, 2))
        a = resample_innovations(pool, 100, substream(7, 1, 2))
        b = resample_innovations(pool, 100, substream(7, 1, 2))
        assert np.array_equal(a, b)

    def test_multinomial_concentration(self):
        # Each of 100 distinct rows should appear with frequency ~1/100.
        pool = np.arange(100.0)[:, None]
        out = resample_innovations(pool, 10_000, substream(9, 1))
        counts = np.bincount(out[:, 0].astype(int), minlength=100)
        freq = counts / 10_000
        assert freq.min() >= 0.005
        assert freq.max() <= 0.015


    def test_draws_are_the_fancy_indexed_rows(self):
        pool = np.random.default_rng(3).normal(size=(600, 2))
        keys = bootstrap_module._replicate_keys(5, 10, 3, 2)
        out = bootstrap_module._draw_innovations(pool, 700, 0, 5, 10, keys, 2)
        for i in range(3):
            idx = substream(5, BOOTSTRAP, 10 + i, 2).integers(0, 600, size=700)
            assert np.array_equal(out[i], pool[idx])
        idx = substream(7, 1, 2).integers(0, 600, size=50)
        assert np.array_equal(resample_innovations(pool, 50, substream(7, 1, 2)), pool[idx])


class TestBootstrapEstimate:
    def test_var_full_refit_satisfies_normal_equations(self):
        fit, _ = var_fit_pair()
        rng = np.random.default_rng(5)
        path = rng.normal(size=(80, 2))
        theta = bootstrap_estimate(fit, path, mode="full_refit")
        refit = fit_var(path, 1, False)
        assert_allclose(theta, refit.theta, rtol=1e-12)

    def test_var_one_step_zero_influence(self):
        fit, _ = var_fit_pair()
        # A path following the fitted dynamics exactly has zero residuals at
        # theta-hat, so the one-step update vanishes.
        path = _simulate_var(fit.coef, 1, False, np.zeros((60, 2)), init=np.full((1, 2), 0.3))
        theta = bootstrap_estimate(fit, path, mode="one_step")
        assert_allclose(theta, fit.theta, atol=1e-12)

    def test_garch_one_step_stays_valid(self):
        rng = np.random.default_rng(6)
        theta0 = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])
        mix = np.linalg.cholesky(np.array([[1.0, 0.4], [0.4, 1.0]]))
        e = rng.normal(size=(700, 2)) @ mix.T
        data = _simulate_garch(theta0, e)[500:]
        fit = fit_ccc_garch(data, seed=0)
        fresh = _simulate_garch(fit.theta, rng.normal(size=(700, 2)) @ mix.T)[500:]
        theta = bootstrap_estimate(fit, fresh, mode="one_step")
        assert theta[0] > 0 and theta[3] > 0
        assert theta[1] + theta[2] < 1 and theta[4] + theta[5] < 1
        assert abs(theta[6]) < 1


@pytest.fixture(scope="module")
def fits():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(120, 2))
    theta0 = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])
    garch = fit_ccc_garch(_simulate_garch(theta0, rng.normal(size=(700, 2)))[500:], seed=0)
    return {"var1": fit_var(y, 1, False), "var2": fit_var(y, 2, True), "garch": garch}


EVALUATIONS = {
    "residuals": residuals,
    "influence": influence_values,
    "one_step": lambda fit, y: bootstrap_estimate(fit, y, mode="one_step"),
    "full_refit": lambda fit, y: bootstrap_estimate(fit, y, mode="full_refit"),
}


class TestNewDataChecked:
    # Evaluating a fit on data it cannot describe is a DataError.
    @pytest.mark.parametrize(
        "model, evaluation",
        [
            ("var1", "influence"),
            ("var1", "one_step"),
            ("var1", "full_refit"),
            ("garch", "influence"),
            ("garch", "one_step"),
        ],
    )
    def test_wrong_column_count(self, fits, model, evaluation):
        y = np.random.default_rng(9).normal(size=(100, 3))
        with pytest.raises(DataError, match="3 columns"):
            EVALUATIONS[evaluation](fits[model], y)

    @pytest.mark.parametrize("evaluation", ["residuals", "influence", "one_step"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_var_path_no_longer_than_order(self, fits, evaluation, rows):
        y = np.random.default_rng(10).normal(size=(rows, 2))
        with pytest.raises(DataError, match="more than 2 rows"):
            EVALUATIONS[evaluation](fits["var2"], y)


class TestBootstrapRun:
    def test_determinism_and_thread_invariance(self):
        fit1, fit2 = var_fit_pair(seed=10)
        cfgs = [LagConfig(direction=1, m=0), LagConfig(direction=2, m=2), LagConfig(direction=1, max_lag=2)]
        base = BootstrapConfig(n_replicates=67, master_seed=42, threads=1)
        runs = [bootstrap_run(fit1, fit2, cfgs, cfg=base)]
        for threads in (4, 8):
            cfg = BootstrapConfig(n_replicates=67, master_seed=42, threads=threads)
            runs.append(bootstrap_run(fit1, fit2, cfgs, cfg=cfg))
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a.replicate_stats, b.replicate_stats)
                assert a.p_value == b.p_value
                assert a.critical_values == b.critical_values

    def test_replicates_independent_of_requested_stats(self):
        # Asking for more statistics must not change the others' results.
        fit1, fit2 = var_fit_pair(seed=11)
        cfg = BootstrapConfig(n_replicates=33, master_seed=3)
        solo = bootstrap_test(fit1, fit2, LagConfig(direction=1, m=0), cfg=cfg)
        multi = bootstrap_run(
            fit1, fit2, [LagConfig(direction=1, m=0), LagConfig(direction=2, m=1)], cfg=cfg
        )
        assert np.array_equal(solo.replicate_stats, multi[0].replicate_stats)
        assert solo.p_value == multi[0].p_value

    def test_pvalue_conventions(self):
        fit1, fit2 = var_fit_pair(seed=12)
        cfg = BootstrapConfig(n_replicates=1, master_seed=0)
        res = bootstrap_test(fit1, fit2, LagConfig(direction=1, m=0), cfg=cfg)
        assert res.p_value in (0.5, 1.0)

    def test_pvalue_critical_value_coherence(self):
        fit1, fit2 = var_fit_pair(seed=13)
        cfg = BootstrapConfig(n_replicates=99, alphas=(0.05, 0.10), master_seed=5)
        for lag_cfg in (LagConfig(direction=1, m=0), LagConfig(direction=1, max_lag=2)):
            res = bootstrap_test(fit1, fit2, lag_cfg, cfg=cfg)
            for alpha, crit in res.critical_values.items():
                assert (res.p_value <= alpha) == (res.observed > crit), (
                    f"incoherent at alpha={alpha}: p={res.p_value}, obs={res.observed}, c={crit}"
                )

    def test_repeated_levels_count_once(self):
        fit1, fit2 = var_fit_pair(seed=14)
        cfg = BootstrapConfig(n_replicates=19, alphas=(0.10, 0.05, 0.05), master_seed=6)
        assert cfg.alphas == (0.05, 0.10)
        res = bootstrap_test(fit1, fit2, LagConfig(direction=1, m=0), cfg=cfg)
        assert list(res.critical_values) == [0.05, 0.10]

    def test_critical_values_monotone(self):
        fit1, fit2 = var_fit_pair(seed=14)
        cfg = BootstrapConfig(n_replicates=99, alphas=(0.01, 0.05, 0.10), master_seed=6)
        res = bootstrap_test(fit1, fit2, LagConfig(direction=1, m=0), cfg=cfg)
        assert res.critical_values[0.01] >= res.critical_values[0.05] >= res.critical_values[0.10]

    def test_replicate_stats_nonnegative_and_finite(self):
        fit1, fit2 = var_fit_pair(seed=15)
        res = bootstrap_test(
            fit1, fit2, LagConfig(direction=1, m=0), cfg=BootstrapConfig(n_replicates=50, master_seed=1)
        )
        assert np.isfinite(res.replicate_stats).all()
        assert (res.replicate_stats >= -1e-9).all()

    def test_observed_zero_gives_pvalue_one(self):
        # Constant residuals on one side force the observed statistic to 0;
        # every replicate statistic is >= 0, so the p-value is exactly 1.
        fit1, fit2 = var_fit_pair(seed=16)
        const = np.full_like(fit2.residuals, 0.7)
        frozen = fit2.__class__(
            model=fit2.model, theta=fit2.theta, residuals=const, influence=fit2.influence,
            n_obs=fit2.n_obs, presample=fit2.presample, init_values=fit2.init_values,
            coef=fit2.coef, gamma_inv=fit2.gamma_inv,
        )
        res = bootstrap_test(
            fit1, frozen, LagConfig(direction=1, m=0),
            cfg=BootstrapConfig(
                n_replicates=19, master_seed=2, standardize="none", estimator_mode="one_step"
            ),
        )
        assert abs(res.observed) < 1e-12
        assert res.p_value == 1.0

    def test_infeasible_lag_rejected(self):
        fit1, fit2 = var_fit_pair(seed=17)
        with pytest.raises(DataError):
            bootstrap_test(fit1, fit2, LagConfig(direction=1, m=200))

    def test_scaled_stats_bounded_in_n(self):
        # Median of replicate statistics moves by less than 1.5x when the
        # sample doubles (stochastic boundedness of n * S under the null),
        # on the independence benchmark system.
        from tsindep import EgpSpec, egp_innovations, gen_var_pair

        medians = {}
        for n in (100, 200):
            e = egp_innovations(EgpSpec.from_id(1), n + 500, substream(n, 77))
            y1, y2 = gen_var_pair(e, 500)
            fit1, fit2 = fit_var(y1, 1, False), fit_var(y2, 1, False)
            res = bootstrap_test(
                fit1, fit2, LagConfig(direction=1, m=0),
                cfg=BootstrapConfig(n_replicates=99, master_seed=0),
            )
            medians[n] = np.median(res.replicate_stats)
        ratio = medians[200] / medians[100]
        assert 1 / 1.5 < ratio < 1.5


class TestSuiteWrapper:
    def test_outcome_fields(self):
        fit1, fit2 = var_fit_pair(seed=18)
        cfg = BootstrapConfig(n_replicates=39, master_seed=4)
        outcomes = hsic_test_suite(
            fit1, fit2,
            [LagConfig(direction=1, m=0), LagConfig(direction=2, max_lag=3)],
            cfg=cfg, keep_replicates=True,
        )
        s, j = outcomes
        assert s.name == "S1(0)" and j.name == "J2(3)"
        assert s.n == 79 and s.n_effective == 79
        assert j.n_effective == 76
        assert s.replicates.shape == (39,)
        assert s.reference == "bootstrap(B=39)"
        assert_allclose(s.scaled, s.statistic * s.n, rtol=1e-12)


class TestUnequalPresamples:
    """A VAR(3) x VAR(1) pair: the VAR(1) residuals lose their first two rows,
    in the observed statistic and in every replicate."""

    KERNEL = KernelSpec.gaussian(1.0)

    @pytest.mark.parametrize("mode", ["one_step", "full_refit"])
    def test_statistic_and_replicates_on_the_paired_rows(self, monkeypatch, mode):
        rng = np.random.default_rng(7)
        coef = np.array([[0.3, 0.1], [0.0, 0.3]])
        y1, y2 = (_simulate_var(coef, 1, False, rng.normal(size=(180, 2)))[100:] for _ in "12")
        fit1, fit2 = fit_var(y1, 3, False), fit_var(y2, 1, False)
        pair = paired_residuals(fit1, fit2)
        assert pair.n == 77

        grams = []
        real = bootstrap_module.gram_matrix

        def recording(*args, **kwargs):
            gram = real(*args, **kwargs)
            grams.append(gram.values.shape)
            return gram

        monkeypatch.setattr(bootstrap_module, "gram_matrix", recording)
        cfg = BootstrapConfig(n_replicates=19, estimator_mode=mode, master_seed=3)
        (outcome,) = hsic_test_suite(
            fit1, fit2, [LagConfig(direction=1, m=1)], self.KERNEL, self.KERNEL, cfg
        )
        assert outcome.n == pair.n
        assert outcome.n_failed == 0
        assert outcome.scaled == pair.n * single_stat(pair, 1, 1, self.KERNEL, self.KERNEL)
        # Two observed Grams, a stack of one each, then the replicate stacks
        # of both series.
        assert grams[:2] == [(1, pair.n, pair.n)] * 2
        replicate = grams[2:]
        assert sum(shape[0] for shape in replicate) == 2 * 19
        assert {shape[1:] for shape in replicate} == {(pair.n, pair.n)}


@pytest.fixture(scope="module")
def observed_fits():
    """VAR(1) and CCC-GARCH fit pairs with 101 and 301 paired residual rows."""
    rng = np.random.default_rng(13)
    coef = np.array([[0.3, 0.1], [0.0, 0.3]])
    theta0 = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])
    out = {}
    for n in (101, 301):
        var = [_simulate_var(coef, 1, False, rng.normal(size=(n + 101, 2)))[100:] for _ in "12"]
        garch = [_simulate_garch(theta0, rng.normal(size=(n + 500, 2)))[500:] for _ in "12"]
        out["var", n] = [fit_var(y, 1, False) for y in var]
        out["garch", n] = [fit_ccc_garch(y, seed=0) for y in garch]
    return out


class TestObservedStatistics:
    """The observed statistics go through the replicates' stack code as a
    stack of one, and keep the bits of the Grams and the pass alone."""

    CFGS = [
        LagConfig(1, m=0), LagConfig(1, m=2), LagConfig(2, m=2),
        LagConfig(1, max_lag=4), LagConfig(2, max_lag=4),
    ]

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [101, 301])
    @pytest.mark.parametrize("model", ["var", "garch"])
    def test_equal_to_the_pass_on_the_observed_grams(self, observed_fits, spec, n, model):
        fit1, fit2 = observed_fits[model, n]
        pair = paired_residuals(fit1, fit2)
        assert pair.n == n
        g1 = gram_matrix(spec, pair.eta1).values
        g2 = gram_matrix(spec, pair.eta2).values
        cfg = BootstrapConfig(n_replicates=1, master_seed=n)
        results = bootstrap_run(fit1, fit2, self.CFGS, spec, spec, cfg)
        for lag_cfg, res in zip(self.CFGS, results):
            assert res.observed == n * stat_from_grams(g1, g2, lag_cfg)


class TestStackedBlock:
    """``_stats_block`` on stacks of replicates against one replicate at a time."""

    CFGS = [LagConfig(1, m=0), LagConfig(2, m=2), LagConfig(1, max_lag=3)]
    KERNEL = KernelSpec.gaussian(1.0)

    def prepare(self, monkeypatch, n, nb, invalid=()):
        """Fix the replicate residuals of a VAR(1) pair of length n.

        Returns ``(block, oracle)``: calls that give ``_stats_block``'s
        ``(stats, valid)`` and the per-replicate stats.  The replicates in
        ``invalid`` are marked failed in series 1.
        """
        fits = var_fit_pair(seed=n, n=n)
        cfg = BootstrapConfig(n_replicates=nb, master_seed=n)
        pools = [standardize_residuals(f.effective_residuals, "center") for f in fits]
        burns = [bootstrap_module._burn_in(f) for f in fits]
        keys = [bootstrap_module._replicate_keys(n, 0, nb, s) for s in (1, 2)]
        replicates = [
            bootstrap_module._series_block(f, pool, burn, cfg, 0, keys[s - 1], series=s)
            for s, f, pool, burn in zip((1, 2), fits, pools, burns)
        ]
        replicates[0][1][list(invalid)] = False
        monkeypatch.setattr(
            bootstrap_module, "_series_block",
            lambda fit, pool, burn, cfg, b0, keys, series: replicates[series - 1],
        )
        args = (*fits, *pools, burns, keys, self.CFGS, self.KERNEL, self.KERNEL, cfg, n - 1, 0, nb)
        return (lambda: bootstrap_module._stats_block(*args)), (
            lambda: self.one_by_one(replicates, n - 1)
        )

    def one_by_one(self, replicates, n_scale):
        """Oracle: each valid replicate's Grams and statistics on their own."""
        (res1, ok1), (res2, ok2) = replicates
        out = np.full((res1.shape[0], len(self.CFGS)), np.nan)
        for i in np.flatnonzero(ok1 & ok2):
            g1 = gram_matrix(self.KERNEL, res1[i]).values
            g2 = gram_matrix(self.KERNEL, res2[i]).values
            out[i] = [n_scale * stat_from_grams(g1, g2, cfg) for cfg in self.CFGS]
        return out

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"gram_matrix": [], "stat_from_grams": []}
        for name, record in calls.items():
            real = getattr(bootstrap_module, name)

            def wrapper(*args, _real=real, _record=record, **kwargs):
                _record.append(np.shape(args[1]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(bootstrap_module, name, wrapper)
        return calls

    @pytest.mark.parametrize(
        "n, nb, invalid",
        [pytest.param(n, nb, (), id=f"{n}-{nb}") for n, nb in
         [(101, 64), (41, 7), (151, 9), (501, 2), (301, 3), (700, 3)]]
        + [pytest.param(101, 64, (1, 2, 40), id="101-64-three_invalid")],
    )
    def test_equals_one_replicate_at_a_time(self, monkeypatch, n, nb, invalid):
        # From n = 301 on a stack is one replicate whose Grams the pass reads
        # in several row tiles, and every stack of the block refills the
        # same buffer pair.  With 61 valid replicates at n = 101 the stacks
        # are ten of 6 and a last one of 1.
        block, oracle = self.prepare(monkeypatch, n, nb, invalid)
        want = oracle()
        calls = self.count_calls(monkeypatch)
        builds = []
        real = bootstrap_module._pass_calls

        def building(g1, g2, cfg):
            builds.append(g1.shape[0])
            return real(g1, g2, cfg)

        monkeypatch.setattr(bootstrap_module, "_pass_calls", building)
        stats, valid = block()
        assert np.flatnonzero(~valid).tolist() == list(invalid)
        assert np.array_equal(stats[valid], want[valid])
        # One call list per stack depth of the block.
        depths = [shape[0] for shape in calls["stat_from_grams"]]
        assert builds == list(dict.fromkeys(depths))
        if invalid:
            assert depths == [6] * 10 + [1]

    @pytest.mark.parametrize("n, nb", [(101, 64), (301, 3)])
    def test_block_lets_go_of_its_buffers(self, monkeypatch, n, nb):
        # The call lists hold views of the block's Gram buffers; they go
        # with the block, and so do the buffers.
        block, _ = self.prepare(monkeypatch, n, nb)
        refs = []
        real = bootstrap_module.gram_matrix

        def recording(spec, points, out=None):
            refs.append(weakref.ref(out.base))
            return real(spec, points, out=out)

        monkeypatch.setattr(bootstrap_module, "gram_matrix", recording)
        stats, valid = block()
        assert valid.all() and refs
        assert all(ref() is None for ref in refs)

    def test_invalid_replicates_stay_out_of_the_stacks(self, monkeypatch):
        invalid = [0, 5, 6, 20, 63]
        block, oracle = self.prepare(monkeypatch, 101, 64, invalid)
        want = oracle()
        calls = self.count_calls(monkeypatch)
        stats, valid = block()
        assert np.flatnonzero(~valid).tolist() == invalid
        assert np.isnan(stats[invalid]).all()
        assert np.array_equal(stats[valid], want[valid])
        assert sum(shape[0] for shape in calls["gram_matrix"]) == 2 * (64 - len(invalid))

    def test_one_traced_call_per_stack(self, monkeypatch):
        # The benchmark's tracer times bootstrap.gram_matrix and
        # bootstrap.stat_from_grams; each call is one stack, and one
        # stat_from_grams call serves every config.  A 100 x 100 Gram is
        # 80 000 bytes, so a 512 KiB stack holds 6 of them.
        block, _ = self.prepare(monkeypatch, 101, 64)
        calls = self.count_calls(monkeypatch)
        block()
        assert bootstrap_module._STACK_BYTES // 80_000 == 6
        depths = [6] * 10 + [4]
        assert [shape[0] for shape in calls["gram_matrix"]] == [d for d in depths for _ in (1, 2)]
        assert calls["gram_matrix"][0] == (6, 100, 2)
        assert [shape[0] for shape in calls["stat_from_grams"]] == depths

    @staticmethod
    def peak_bytes(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_at_n_500_no_higher_than_one_by_one(self, monkeypatch):
        # A 500 x 500 Gram is 2 MB, over the stack budget: stacks of one.
        block, oracle = self.prepare(monkeypatch, 501, 4)
        assert self.peak_bytes(block) <= self.peak_bytes(oracle)

    @pytest.mark.parametrize("budget", [None, 4 * 80_000], ids=["default", "four_grams"])
    def test_memory_at_n_100_follows_the_budget(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(bootstrap_module, "_STACK_BYTES", budget)
        block, _ = self.prepare(monkeypatch, 101, 64)
        peak = self.peak_bytes(block)
        calls = self.count_calls(monkeypatch)
        block()
        depth = bootstrap_module._STACK_BYTES // 80_000
        assert max(shape[0] for shape in calls["gram_matrix"]) == depth
        # Two stacks of Grams live at once, and little else grows with them.
        assert 2 * depth * 80_000 <= peak <= 2 * bootstrap_module._STACK_BYTES + 256 * 1024

    def test_run_holds_one_pair_of_grams(self):
        # The observed Grams are a stack of one, gone before the first block
        # builds its pair, so a run holds 2 * 8n^2 bytes of Grams at a time
        # and not 4 * 8n^2.
        fits = var_fit_pair(seed=12, n=1201)
        n = paired_residuals(*fits).n
        cfg = BootstrapConfig(n_replicates=9, master_seed=12, threads=1)
        peak = self.peak_bytes(lambda: bootstrap_run(*fits, self.CFGS, cfg=cfg))
        assert 2 * 8 * n**2 <= peak <= 3 * 8 * n**2


def fit_with(model, coef=None, theta=None, n=120, seed=0):
    """A fit on white noise whose parameters are replaced: VAR ``coef``
    ([c | A_1 | ... | A_p] for ``model = (p, intercept)``), or a CCC-GARCH
    ``theta`` when ``model`` is ``"garch"``."""
    data = np.random.default_rng(seed).normal(size=(n, 2))
    if model == "garch":
        fit = fit_var(data, 1, False)
        return replace(fit, model=ModelSpec("ccc_garch"), theta=np.asarray(theta, dtype=float))
    p, intercept = model
    return replace(fit_var(data, p, intercept), coef=coef, theta=coef.ravel())


def capture(monkeypatch, name):
    """Replace ``bootstrap.<name>`` by a wrapper that records each call's
    positional arguments and result."""
    calls = []
    original = getattr(bootstrap_module, name)

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(bootstrap_module, name, recorded)
    return calls


def burn_in_gap_bound(rho, burn, start):
    """Largest change of a kept row when ``burn`` more burn-in rows precede
    the ``burn`` nearest ones, for a VAR(1) whose A is symmetric with
    spectral radius ``rho``.

    The two paths share every draw after the longer path's first ``burn``
    rows; there its state is ``start`` and the shorter path's is 0.  The
    gap then evolves as ``delta_t = A delta_{t-1}``, so at kept row t it is
    ``A^(burn + t + 1) start``, and ``|A^k s| <= rho^k |s|`` in 2-norm for
    symmetric A.  Per path, the largest is at t = 0.
    """
    return rho ** (burn + 1) * np.linalg.norm(start, axis=-1)


class TestBurnIn:
    # A of a VAR(2) with A_1 = 0.2 I, A_2 = 0.48 I: companion eigenvalues
    # solve l^2 = 0.2 l + 0.48, so they are 0.8 and -0.6.
    VAR2 = np.hstack([np.full((2, 1), 5.0), 0.2 * np.eye(2), 0.48 * np.eye(2)])

    @pytest.mark.parametrize(
        "model, params, rows",
        [
            ((1, False), np.zeros((2, 2)), 50),  # rho = 0: the floor
            ((1, False), np.diag([0.3, -0.1]), 50),  # 30.5 rows: the floor
            ((1, True), np.array([[9.0, 0.56, 0.0], [-9.0, 0.0, 0.28]]), 64),  # 63.4
            ((2, True), VAR2, 165),  # rho = 0.8: 164.6
            ((1, False), np.diag([-0.9, 0.5]), 349),  # 348.7
            ((1, False), np.diag([0.95, 0.0]), 500),  # 716.2 rows: the cap
            ("garch", [0.2, 0.1, 0.8, 0.2, 0.06, 0.5, 0.3], 349),  # alpha + beta = 0.9
            ("garch", [0.2, 0.06, 0.5, 0.2, 0.15, 0.8, 0.3], 500),  # 0.95: the cap
        ],
    )
    def test_rows_from_memory_radius(self, model, params, rows):
        fit = fit_with(model, coef=params) if model != "garch" else fit_with(model, theta=params)
        assert bootstrap_module._burn_in(fit) == rows

    def test_nonstationary_garch_fit_is_refused(self):
        fit = fit_with("garch", theta=[0.2, 0.1, 0.5, 0.2, 0.3, 0.7, 0.3])
        with pytest.raises(FitError, match=r"alpha \+ beta is rho = 1 >= 1"):
            bootstrap_module._burn_in(fit)

    @pytest.mark.parametrize("series", [1, 2])
    def test_kept_rows_take_the_first_draws(self, monkeypatch, series):
        sims = capture(monkeypatch, "_simulate_var")
        cfg = BootstrapConfig(n_replicates=9, master_seed=17)
        for coef, burn in ((np.diag([0.3, 0.1]), 50), (np.diag([0.9, 0.2]), 349)):
            fit = fit_with((1, False), coef=coef)
            assert bootstrap_module._burn_in(fit) == burn
            n, pool = fit.n_obs, fit.effective_residuals
            keys = bootstrap_module._replicate_keys(17, 3, 4, series)
            bootstrap_module._series_block(fit, pool, burn, cfg, 3, keys, series=series)
            innov = sims[-1][0][3]
            assert innov.shape == (4, burn + n, 2)
            for i in range(4):
                stream = (17, BOOTSTRAP, 3 + i, series)
                kept = pool[substream(*stream).integers(0, len(pool), size=n)]
                assert np.array_equal(innov[i, burn:], kept)
                # The burn-in takes the next draws, nearest row first.
                drawn = pool[substream(*stream).integers(0, len(pool), size=n + burn)]
                assert np.array_equal(innov[i, :burn], drawn[n:][::-1])

    def test_capped_var_path_starts_at_the_fitted_mean(self, monkeypatch):
        # rho = 0.99 asks for 3652 rows, over the cap.  Zero innovations keep
        # a path that starts at the mean, about (100, 0), there; from y = 0
        # its first kept row would still be 100 * 0.99^501 = 0.66 short.
        fit = fit_with((1, True), coef=np.array([[1.0, 0.99, 0.0], [0.0, 0.0, 0.5]]))
        burn = bootstrap_module._burn_in(fit)
        assert burn == bootstrap_module._BURN_IN_MAX
        mean = np.linalg.solve(np.eye(2) - fit.coef[:, 1:], fit.coef[:, 0])
        assert np.array_equal(bootstrap_module._var_mean_start(fit), mean[None])
        sims = capture(monkeypatch, "_simulate_var")
        cfg = BootstrapConfig(n_replicates=4, master_seed=1)
        pool = np.zeros((fit.n_obs - 1, 2))
        keys = bootstrap_module._replicate_keys(1, 0, 4, 1)
        bootstrap_module._series_block(fit, pool, burn, cfg, 0, keys, series=1)
        kept = sims[-1][1][:, burn:]
        assert np.abs(kept - mean).max() <= 1e-12 * np.abs(mean).max()
        from_zero = _simulate_var(fit.coef, 1, True, np.zeros((burn + fit.n_obs, 2)))[burn:]
        assert 0.6 < mean[0] - from_zero[0, 0] < 0.7

    def test_uncapped_var_path_starts_at_zero(self, monkeypatch):
        # Below the cap the start stays y = 0, so such fits keep their bits.
        fit = fit_with((1, True), coef=np.array([[1.0, 0.9, 0.0], [0.0, 0.0, 0.5]]))
        burn = bootstrap_module._burn_in(fit)
        assert burn == 349
        sims = capture(monkeypatch, "_simulate_var")
        cfg = BootstrapConfig(n_replicates=4, master_seed=1)
        keys = bootstrap_module._replicate_keys(1, 0, 4, 1)
        bootstrap_module._series_block(fit, fit.effective_residuals, burn, cfg, 0, keys, series=1)
        args, paths = sims[-1]
        assert args[4] is None
        assert np.array_equal(paths, _simulate_var(fit.coef, 1, True, args[3]))

    @pytest.mark.parametrize("burn", [6, 12, None])
    def test_doubled_burn_in_moves_kept_rows_by_rho_power(self, monkeypatch, burn):
        # A symmetric A with spectral radius 0.5606 and an intercept, so both
        # the innovations and the mean offset of the start must decay.
        coef = np.array([[1.0, 0.5, 0.2], [-2.0, 0.2, -0.1]])
        rho = float(np.abs(np.linalg.eigvalsh(coef[:, 1:])).max())
        fit = fit_with((1, True), coef=coef)
        if burn is None:
            burn = bootstrap_module._burn_in(fit)
            assert burn == 64
        cfg = BootstrapConfig(n_replicates=64, master_seed=3)
        sims = capture(monkeypatch, "_simulate_var")
        keys = bootstrap_module._replicate_keys(3, 0, 64, 1)
        paths = []
        for rows in (burn, 2 * burn):
            bootstrap_module._series_block(fit, fit.effective_residuals, rows, cfg, 0, keys, series=1)
            paths.append(sims[-1][1])
        short, long = paths[0][:, burn:], paths[1][:, 2 * burn :]
        gap = np.linalg.norm(short - long, axis=-1).max(axis=1)
        bound = burn_in_gap_bound(rho, burn, paths[1][:, burn - 1])
        # Rounding of the two scans, relative to the paths' size.
        slack = 1e-12 * np.abs(paths[1]).max()
        assert (gap <= bound + slack).all()
        if rho**burn > 1e-3:
            # A short burn-in leaves a visible trace, so the paths differ.
            assert (gap > slack).all()
