import importlib

import numpy as np
import pytest

import tsindep

# The public names are part of the contract: private helpers may merge or
# go, but every name below stays importable from the package.
PUBLIC_NAMES = [
    "BootstrapConfig", "BootstrapError", "BootstrapResult", "BoundaryError", "CrossCovSet",
    "DataError", "EgpSpec", "FitError", "FitResult", "GramMatrix", "KernelSpec", "LagConfig",
    "McConfig", "McSummary", "ModelSpec", "NumericalError", "PairedResiduals",
    "SingularityError", "TestOutcome", "TestSpec", "TsindepError", "__version__",
    "bandwidth_rule", "bootstrap_estimate", "bootstrap_run", "bootstrap_test",
    "chi2_quantile", "chi2_sf", "cross_cov", "cross_cov_set", "daniell", "egp_innovations",
    "eval_kernel", "fit_ccc_garch", "fit_var", "g_test", "gen_garch_pair", "gen_var_pair",
    "gram_matrix", "hsic_test_suite", "hsic_v", "hsic_v_reference", "influence_values",
    "joint_stat", "l_test", "log_returns", "median_heuristic_sigma", "norm_sf",
    "paired_residuals", "psd_sqrt", "read_csv", "resample_innovations", "residuals",
    "run_monte_carlo", "scaled_stat", "simulate", "single_lag_stat", "single_stat",
    "standardize_residuals", "stat_from_grams", "t_test", "w_test", "write_csv",
]


def test_public_names_are_frozen():
    assert len(PUBLIC_NAMES) == 63
    assert sorted(tsindep.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(tsindep, name) is not None, name


# Module attributes that the benchmark's layer tracer replaces with timed
# wrappers.  Renaming or dropping one silently removes its layer from a
# traced run, so a refactor that moves one must update the tracer as well.
TRACED_ATTRIBUTES = {
    "tsindep.bootstrap": [
        "_draw_innovations", "_fit_var_batch", "_garch_residuals_batch",
        "_garch_xspace_scores_batch", "_simulate_garch", "_simulate_var", "_var_onestep_batch",
        "bootstrap_run", "fit_ccc_garch", "gram_matrix", "stat_from_grams", "substream",
    ],
    "tsindep.hsic": ["gram_matrix", "single_from_grams"],
    "tsindep.models": ["_garch_curvature", "_garch_scores", "garch_loglik_terms", "substream"],
    "tsindep.cli": [
        "_emit", "_json_text", "fit_ccc_garch", "g_test", "l_test", "read_csv", "t_test", "w_test",
    ],
    "tsindep.simlab": [
        "_simulate_var", "bootstrap_run", "egp_innovations", "fit_ccc_garch", "fit_var", "g_test",
        "gen_garch_pair", "gen_var_pair", "l_test", "substream", "t_test", "w_test",
    ],
}


def test_traced_attributes_exist():
    for module, names in TRACED_ATTRIBUTES.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("kind", ["var", "ccc_garch"])
def test_bootstrap_run_enters_traced_boundaries(monkeypatch, kind):
    # A traced run reports a layer only if a call went through its
    # attribute; a call that bypasses one drops that metric from the run.
    import tsindep.bootstrap as boot

    names = ["gram_matrix", "stat_from_grams", "_draw_innovations"]
    if kind == "var":
        names.append("_simulate_var")
        rng = np.random.default_rng(3)
        fits = [tsindep.fit_var(rng.normal(size=(80, 2)), 1, True) for _ in range(2)]
    else:
        names += ["_simulate_garch", "_garch_xspace_scores_batch"]
        rng = np.random.default_rng(8)
        theta = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])
        paths = [boot._simulate_garch(theta, rng.normal(size=(700, 2)))[500:] for _ in range(2)]
        fits = [tsindep.fit_ccc_garch(y, seed=0) for y in paths]
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(boot, name, counted(name, getattr(boot, name)))
    cfg = tsindep.BootstrapConfig(n_replicates=9, master_seed=1)
    boot.bootstrap_run(*fits, [tsindep.LagConfig(1, m=0)], cfg=cfg)
    assert all(calls.values()), calls
