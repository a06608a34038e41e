import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsindep import (
    BootstrapConfig,
    EgpSpec,
    McConfig,
    TestSpec,
    egp_innovations,
    fit_ccc_garch,
    fit_var,
    gen_garch_pair,
    gen_var_pair,
    run_monte_carlo,
)
from tsindep._streams import substream
from tsindep.simlab import VAR_PAIR_COEF


class TestEgpSpec:
    def test_from_id_parameters(self):
        assert EgpSpec.from_id(1).rho4 == 0.0
        assert EgpSpec.from_id(2).rho4 == 0.3
        assert EgpSpec.from_id(5).rho1 == 0.8
        assert EgpSpec.from_id(3).rho1 == 0.0
        with pytest.raises(ValueError):
            EgpSpec.from_id(7)

    def test_omega_psd_for_all_specs(self):
        for egp_id in range(1, 7):
            omega = EgpSpec.from_id(egp_id).omega()
            assert np.array_equal(omega, omega.T)
            assert np.linalg.eigvalsh(omega).min() >= -1e-10

    def test_omega_blocks(self):
        om = EgpSpec.from_id(2).omega()
        assert_allclose(om[2:4, 2:4], [[1.0, 0.5], [0.5, 1.0]])
        assert_allclose(om[4:6, 4:6], [[1.0, 0.75], [0.75, 1.0]])
        assert_allclose(om[2:4, 4:6], 0.3 * np.ones((2, 2)))
        assert_allclose(om[0:2, 2:6], 0.0)


class TestEgpInnovations:
    def test_unit_variances_all_egps(self):
        for egp_id in range(1, 7):
            e1, e2 = egp_innovations(EgpSpec.from_id(egp_id), 10_000, substream(0, egp_id))
            assert np.abs(e1.var(axis=0) - 1.0).max() < 0.1
            assert np.abs(e2.var(axis=0) - 1.0).max() < 0.1

    def test_egp1_independent_at_lag_zero(self):
        e1, e2 = egp_innovations(EgpSpec.from_id(1), 5000, substream(1, 1))
        cc = np.corrcoef(np.hstack([e1, e2]).T)[:2, 2:]
        assert np.abs(cc).max() < 0.05

    def test_egp2_lag_zero_cross_correlation(self):
        # All four entries of the lag-0 cross-correlation matrix are ~0.3
        # (the cross block of the auxiliary covariance is a constant block),
        # and other lags carry none.
        e1, e2 = egp_innovations(EgpSpec.from_id(2), 5000, substream(1, 2))
        cc = np.corrcoef(np.hstack([e1, e2]).T)[:2, 2:]
        assert np.abs(cc - 0.3).max() < 0.05
        lag1 = np.corrcoef(np.hstack([e1[:-1], e2[1:]]).T)[:2, 2:]
        assert np.abs(lag1).max() < 0.05

    def test_egp3_unit_variance_shape_factor(self):
        # E[((u^2 + 1) / sqrt(6))^2] = (3 + 2 + 1) / 6 = 1 for standard normal u.
        rng = substream(2, 3)
        u = rng.standard_normal(200_000)
        factor = (u**2 + 1.0) / np.sqrt(6.0)
        assert abs((factor**2).mean() - 1.0) < 0.02

    def test_egp4_dependence_at_designed_lag(self):
        spec = EgpSpec.from_id(4)
        e1, e2 = egp_innovations(spec, 5000, substream(3, 4))
        q1 = (e1**2).sum(axis=1)
        q2 = (e2**2).sum(axis=1)
        lead = np.corrcoef(q1[3:], q2[:-3])[0, 1]  # eta1_{t+3} vs eta2_t
        contemporaneous = np.corrcoef(q1, q2)[0, 1]
        assert lead > 0.1
        assert abs(contemporaneous) < 0.05

    def test_egp5_egp6_dependence_through_cofactors(self):
        for egp_id in (5, 6):
            e1, e2 = egp_innovations(EgpSpec.from_id(egp_id), 5000, substream(4, egp_id))
            q1 = (e1**2).sum(axis=1)
            q2 = (e2**2).sum(axis=1)
            assert abs(np.corrcoef(q1, q2)[0, 1]) > 0.05


class TestGenerators:
    def test_var_pair_coefficients_stable(self):
        # Both systems must satisfy the stationarity condition.
        for coef in VAR_PAIR_COEF:
            radius = np.abs(np.linalg.eigvals(coef)).max()
            assert radius < 1.0

    def test_var_pair_zero_innovations_decay(self):
        e = (np.zeros((600, 2)), np.zeros((600, 2)))
        y1, y2 = gen_var_pair(e, 500)
        assert_allclose(y1, 0.0, atol=1e-30)
        assert_allclose(y2, 0.0, atol=1e-30)

    def test_var_pair_simulate_then_fit(self):
        e = egp_innovations(EgpSpec.from_id(1), 2500, substream(5, 1))
        y1, y2 = gen_var_pair(e, 500)
        fit1 = fit_var(y1, 1, False)
        fit2 = fit_var(y2, 1, False)
        assert np.abs(fit1.coef - VAR_PAIR_COEF[0]).max() < 0.1
        assert np.abs(fit2.coef - VAR_PAIR_COEF[1]).max() < 0.1

    def test_garch_pair_unconditional_variance(self):
        # With unit-variance uncorrelated innovations the first system's
        # component variances approach omega / (1 - alpha - beta) = 0.5.
        rng = substream(6, 1)
        e = (rng.standard_normal((100_500, 2)), rng.standard_normal((100_500, 2)))
        y1, _ = gen_garch_pair(e, 500)
        assert np.abs(y1.var(axis=0) - 0.5).max() < 0.05

    def test_garch_pair_simulate_then_fit(self):
        # Under white innovations the conditional covariance equals V, so
        # the QMLE recovers the generating theta (rho included).  Correlated
        # innovation components would shift the implied conditional
        # correlation instead.
        rng = substream(7, 1)
        e = (rng.standard_normal((2500, 2)), rng.standard_normal((2500, 2)))
        y1, _ = gen_garch_pair(e, 500)
        fit1 = fit_ccc_garch(y1, seed=0)
        assert abs(fit1.theta[6] - 0.5) < 0.1

    def test_length_validation(self):
        with pytest.raises(Exception):
            gen_var_pair((np.zeros((100, 2)), np.zeros((100, 2))), 500)


class TestTestSpec:
    def test_labels(self):
        assert TestSpec("hsic_single", 2, 3).label == "S2(3)"
        assert TestSpec("hsic_joint", 1, 6).label == "J1(6)"
        assert TestSpec("g", lag=3, variant=2).label == "G2(3)"
        assert TestSpec("w", variant=1, bandwidth="h2").label == "W1(h2)"

    def test_parse(self):
        assert TestSpec.parse("S1:0") == TestSpec("hsic_single", 1, 0)
        assert TestSpec.parse("J2:3") == TestSpec("hsic_joint", 2, 3)
        assert TestSpec.parse("G1:6") == TestSpec("g", variant=1, lag=6)
        assert TestSpec.parse("W2:h3") == TestSpec("w", variant=2, bandwidth="h3")
        assert TestSpec.parse("L2:3") == TestSpec("l", variant=2, lag=3)
        assert TestSpec.parse("T1:9") == TestSpec("t", variant=1, lag=9)
        with pytest.raises(ValueError):
            TestSpec.parse("X1:0")


def small_config(**kw):
    defaults = dict(
        dgp="var",
        egp=EgpSpec.from_id(1),
        n=60,
        replications=4,
        tests=(TestSpec("hsic_single", 1, 0), TestSpec("g", lag=2)),
        bootstrap=BootstrapConfig(n_replicates=19, master_seed=0),
        master_seed=11,
    )
    defaults.update(kw)
    return McConfig(**defaults)


class TestRunMonteCarlo:
    def test_single_replication_rates_are_binary(self):
        summary = run_monte_carlo(small_config(replications=1))
        for row in summary.rows:
            assert row.rate in (0.0, 1.0)

    def test_same_seed_identical(self):
        a = run_monte_carlo(small_config())
        b = run_monte_carlo(small_config())
        assert a == b

    def test_workers_do_not_change_results(self):
        a = run_monte_carlo(small_config())
        b = run_monte_carlo(small_config(workers=4))
        assert a == b

    def test_rejection_counts_consistent(self):
        summary = run_monte_carlo(small_config(replications=6))
        for row in summary.rows:
            assert 0 <= row.rejections <= 6
            assert row.n_effective == 6
            assert_allclose(row.rate, row.rejections / 6)

    def test_csv_and_json_shapes(self):
        summary = run_monte_carlo(small_config())
        text = summary.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "test,alpha,rejection_rate,mc_se,replicates"
        assert len(lines) == 1 + 2 * 3  # two tests x three alphas
        blob = summary.to_json_dict()
        assert blob["replications"] == 4
        assert len(blob["rows"]) == 6

    def test_repeated_level_is_one_row(self):
        # BootstrapConfig keeps one copy of each level, so the library call
        # writes one row per test and level, as the CLI does.
        boot = BootstrapConfig(n_replicates=19, alphas=(0.05, 0.05), master_seed=0)
        summary = run_monte_carlo(small_config(replications=1, bootstrap=boot))
        rows = [(row.label, row.alpha) for row in summary.rows]
        assert rows == [("S1(0)", 0.05), ("G1(2)", 0.05)]

    def test_infeasible_lag_rejected(self):
        with pytest.raises(ValueError):
            small_config(tests=(TestSpec("hsic_single", 1, 59),))

    @pytest.mark.parametrize("n, rows", [(30, 27), (151, 145)])
    def test_w_bandwidth_fits_the_prewhitened_rows(self, n, rows):
        # VAR(3) prewhitening leaves n - 3 rows up to n = 150, VAR(6) n - 6 above.
        widest = (TestSpec("w", bandwidth=str(rows - 1)),)
        summary = run_monte_carlo(small_config(n=n, replications=1, tests=widest))
        assert summary.failures == 0
        with pytest.raises(ValueError, match=f"must lie in \\[1, {rows}\\)"):
            small_config(n=n, tests=(TestSpec("w", bandwidth=str(rows)),))

    def test_garch_needs_the_rows_its_fit_needs(self):
        small_config(dgp="ccc_garch", n=50)
        with pytest.raises(ValueError, match="needs n >= 50"):
            small_config(dgp="ccc_garch", n=49)


class TestMonteCarloFailureCauses:
    """A replication that fails reports the class of its error, and an
    aborted run names the causes and the first replications they hit."""

    @staticmethod
    def failing_fit(monkeypatch, errors):
        # Each replication fits its two series in order, so call k belongs
        # to replication k // 2 when the replications run in one process.
        # Only the second fit fails, so every replication makes both calls.
        import tsindep.simlab as simlab

        calls = itertools.count()
        real = simlab.fit_var

        def fit(y, p=1):
            rep, series = divmod(next(calls), 2)
            if series == 1 and rep in errors:
                raise errors[rep]("forced failure")
            return real(y, p=p)

        monkeypatch.setattr(simlab, "fit_var", fit)

    def config(self, replications):
        return small_config(replications=replications, tests=(TestSpec("g", lag=2),))

    def test_abort_names_causes_and_first_replications(self, monkeypatch):
        from tsindep import BoundaryError, NumericalError, SingularityError

        errors = {r: BoundaryError for r in (3, 18, 20, 41, 44, 47)}
        errors[9] = SingularityError
        self.failing_fit(monkeypatch, errors)
        with pytest.raises(NumericalError) as info:
            run_monte_carlo(self.config(50))
        assert str(info.value) == (
            "7 of 50 Monte Carlo replications failed (budget 2%): "
            "BoundaryError x6, SingularityError x1 at replications [3, 9, 18, 20, 41]"
        )

    def test_replication_returns_the_error_class(self, monkeypatch):
        from tsindep import BoundaryError
        from tsindep.simlab import _mc_replication

        self.failing_fit(monkeypatch, {0: BoundaryError})
        assert _mc_replication(self.config(1), 0) == "BoundaryError"

    def test_failures_within_budget_are_dropped(self, monkeypatch):
        from tsindep import BoundaryError

        self.failing_fit(monkeypatch, {4: BoundaryError, 60: BoundaryError})
        summary = run_monte_carlo(self.config(100))
        assert summary.failures == 2
        assert all(row.n_effective == 98 for row in summary.rows)

    def test_explosive_fit_fails_its_replication(self, monkeypatch):
        # A replication whose fit has companion spectral radius >= 1 fails
        # in the bootstrap with FitError and counts against the budget.
        import tsindep.simlab as simlab
        from tsindep import NumericalError

        calls = itertools.count()
        real = simlab.fit_var

        def fit(y, p=1):
            out = real(y, p=p)
            if next(calls) == 3:  # replication 1, series 2
                coef = np.diag([1.5, 0.2])
                out = dataclasses.replace(out, coef=coef, theta=coef.ravel())
            return out

        monkeypatch.setattr(simlab, "fit_var", fit)
        cfg = small_config(replications=2, tests=(TestSpec("hsic_single", 1, 0),))
        with pytest.raises(NumericalError, match=r"1 of 2 .*: FitError x1 at replications \[1\]"):
            run_monte_carlo(cfg)

    def test_cli_exits_3_and_names_the_causes(self, monkeypatch, tmp_path, capsys):
        from tsindep import BoundaryError
        from tsindep.cli import main

        self.failing_fit(monkeypatch, {1: BoundaryError})
        argv = ["simulate", "--dgp", "var", "--egp", "1", "-n", "60", "--replications", "2",
                "--tests", "G1:2", "--output", str(tmp_path / "s.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "numerical failure: 1 of 2 Monte Carlo replications failed (budget 2%): "
            "BoundaryError x1 at replications [1]\n"
        )
        assert not (tmp_path / "s.json").exists()

    def test_garch_cell_at_n100_aborts_on_boundary_fits(self, tmp_path, capsys):
        # At n = 100 the Gaussian QMLE reaches the persistence boundary
        # often enough that a GARCH cell exceeds the 2% budget.
        from tsindep.cli import main

        argv = ["simulate", "--dgp", "ccc-garch", "--egp", "2", "-n", "100", "--replications", "6",
                "-B", "19", "--seed", "0", "--output", str(tmp_path / "s.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "numerical failure: 2 of 6 Monte Carlo replications failed (budget 2%): "
            "BoundaryError x2 at replications [2, 5]\n"
        )
        assert not (tmp_path / "s.json").exists()
