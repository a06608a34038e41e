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
