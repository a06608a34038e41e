import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsindep import (
    DataError,
    PairedResiduals,
    bandwidth_rule,
    cross_cov,
    cross_cov_set,
    daniell,
    g_test,
    l_test,
    single_lag_stat,
    t_test,
    w_test,
)
from tsindep.crosscorr import _all_lag_quadratics, _correlation_quadratics, _daniell_finite_sample_constants


class TestCrossCov:
    def test_lag_zero_self_is_covariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(500, 2))
        c = cross_cov(a, a, 0)
        centered = a - a.mean(axis=0)
        assert_allclose(c, centered.T @ centered / 500, rtol=1e-12)

    def test_reflection_identity_exact(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(60, 2))
        b = rng.normal(size=(60, 3))
        for m in range(0, 5):
            assert np.array_equal(cross_cov(a, b, -m), cross_cov(b, a, m).T)

    def test_independent_series_small_cross_cov(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5000, 1))
        b = rng.normal(size=(5000, 1))
        assert abs(cross_cov(a, b, 1)[0, 0]) <= 0.05

    def test_lag_bounds(self):
        with pytest.raises(DataError):
            cross_cov(np.zeros((5, 1)), np.zeros((5, 1)), 5)

    def test_manual_lag_value(self):
        a = np.arange(6.0)[:, None]
        b = np.arange(6.0)[:, None] ** 2
        m = 2
        ac = a - a.mean()
        bc = b - b.mean()
        expected = (ac[:4] * bc[2:]).sum() / 6.0
        assert_allclose(cross_cov(a, b, m)[0, 0], expected, rtol=1e-12)

    def test_cross_cov_set(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2))
        cs = cross_cov_set(a, b, 3)
        assert cs.n == 50
        for m in range(-3, 4):
            assert_allclose(cs[m], cross_cov(a, b, m), rtol=1e-14)


def orthogonal_pair(n=64):
    """Residual pair with exactly zero cross-covariance at every lag."""
    t = np.arange(n)
    e1 = np.column_stack([np.cos(2 * np.pi * t * 3 / n), np.sin(2 * np.pi * t * 3 / n)])
    e2 = np.column_stack([np.cos(2 * np.pi * t * 11 / n), np.sin(2 * np.pi * t * 11 / n)])
    return PairedResiduals(e1, e2)


class TestGTest:
    def test_orthogonal_case_statistic_zero(self):
        # Distinct Fourier frequencies over full periods have exactly zero
        # lag-0 cross-covariance.
        res = orthogonal_pair()
        out = g_test(res, 0, variant=1)
        assert abs(out.statistic) < 1e-18 * res.n
        assert out.p_value > 0.999999

    def test_variants_match_at_lag_zero(self):
        rng = np.random.default_rng(4)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        v1 = g_test(res, 0, variant=1)
        v2 = g_test(res, 0, variant=2)
        assert_allclose(v1.statistic, v2.statistic, rtol=1e-14)

    def test_variant_two_dominates(self):
        rng = np.random.default_rng(5)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        assert g_test(res, 3, variant=2).statistic >= g_test(res, 3, variant=1).statistic

    def test_df(self):
        rng = np.random.default_rng(6)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert g_test(res, 3).df == 28

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            res = PairedResiduals(rng.normal(size=(60, 2)), rng.normal(size=(60, 2)))
            assert g_test(res, 2).statistic >= 0.0


class TestDaniellHelpers:
    def test_bandwidth_rules(self):
        assert bandwidth_rule("h1", 100) == 4
        assert bandwidth_rule("h2", 100) == 7
        assert bandwidth_rule("h3", 200) == 14
        with pytest.raises(ValueError):
            bandwidth_rule("h4", 100)
        with pytest.raises(DataError):
            bandwidth_rule("h1", 4)

    def test_finite_sample_constants_definition(self):
        n, h = 100, 5.0
        a1n, b1n = _daniell_finite_sample_constants(n, h)
        a_direct = sum(
            (1 - abs(m) / n) * daniell(m / h) ** 2 for m in range(1 - n, n)
        )
        b_direct = sum(
            (1 - abs(m) / n) * (1 - (abs(m) + 1) / n) * daniell(m / h) ** 4
            for m in range(1 - n, n)
        )
        assert abs(a1n - a_direct) < 1e-12
        assert abs(b1n - b_direct) < 1e-12


class TestWTest:
    def test_all_lag_quadratics_match_per_lag(self):
        rng = np.random.default_rng(8)
        e1 = rng.normal(size=(40, 2))
        e2 = rng.normal(size=(40, 2))
        quads = _all_lag_quadratics(e1, e2)
        lags = list(range(1 - 40, 40))
        direct = _correlation_quadratics(e1, e2, lags)
        assert_allclose(quads, direct, rtol=1e-9, atol=1e-10)

    def test_variants_converge_large_n(self):
        rng = np.random.default_rng(9)
        y1 = rng.normal(size=(2000, 2))
        y2 = rng.normal(size=(2000, 2))
        w1 = w_test(y1, y2, h="h1", variant=1)
        w2 = w_test(y1, y2, h="h1", variant=2)
        assert abs(w1.statistic - w2.statistic) <= 0.5

    def test_null_statistic_moderate(self):
        rng = np.random.default_rng(10)
        y1 = rng.normal(size=(200, 2))
        y2 = rng.normal(size=(200, 2))
        out = w_test(y1, y2)
        assert abs(out.statistic) < 4.0
        assert out.reference == "normal"

    def test_bandwidth_validation(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(100, 2))
        with pytest.raises(DataError):
            w_test(y, y.copy(), h=0.5)


def scalar_cross_corr_loop(q1, q2, m):
    """Oracle: one lag's squared-norm correlation, recomputing both variances
    and the constant-series check at every lag."""
    c = cross_cov(q1[:, None], q2[:, None], m)[0, 0]
    v1 = cross_cov(q1[:, None], q1[:, None], 0)[0, 0]
    v2 = cross_cov(q2[:, None], q2[:, None], 0)[0, 0]
    for q, v in ((q1, v1), (q2, v2)):
        if v <= 1e-18 * max(1.0, float(np.mean(q)) ** 2):
            raise DataError("squared-norm series is constant; L statistic undefined")
    return float(c / np.sqrt(v1 * v2))


def l_stat_loop(res, max_lag, variant):
    """Oracle: the L statistic as a sum of per-lag correlations."""
    n = res.n
    q1 = np.einsum("ti,ti->t", res.eta1, res.eta1)
    q2 = np.einsum("ti,ti->t", res.eta2, res.eta2)
    stat = 0.0
    for m in range(-max_lag, max_lag + 1):
        rho = scalar_cross_corr_loop(q1, q2, m)
        weight = n if variant == 1 else n * n / (n - abs(m))
        stat += weight * rho * rho
    return float(stat)


def t_lag_loop(res, lag):
    """Oracle: one lag's T term with its own inverse lag-zero covariances."""
    rows1, cols1 = np.tril_indices(res.eta1.shape[1])
    rows2, cols2 = np.tril_indices(res.eta2.shape[1])
    phi1 = res.eta1[:, rows1] * res.eta1[:, cols1]
    phi2 = res.eta2[:, rows2] * res.eta2[:, cols2]
    c11_inv = np.linalg.inv(cross_cov(phi1, phi1, 0))
    c22_inv = np.linalg.inv(cross_cov(phi2, phi2, 0))
    c12 = cross_cov(phi1, phi2, lag)
    return float(res.n * float(np.trace(c12.T @ c11_inv @ c12 @ c22_inv)))


def correlation_quadratics_loop(e1, e2, lags):
    """Oracle: the G quadratic forms with the lag-zero covariances built twice."""
    n = e1.shape[0]
    s1 = 1.0 / np.sqrt(np.diag(cross_cov(e1, e1, 0)))
    s2 = 1.0 / np.sqrt(np.diag(cross_cov(e2, e2, 0)))
    r11_inv = np.linalg.inv(s1[:, None] * cross_cov(e1, e1, 0) * s1[None, :])
    r22_inv = np.linalg.inv(s2[:, None] * cross_cov(e2, e2, 0) * s2[None, :])
    out = np.empty(len(lags))
    for i, m in enumerate(lags):
        r12 = s1[:, None] * cross_cov(e1, e2, m) * s2[None, :]
        out[i] = n * float(np.einsum("ab,ac,cd,bd->", r12, r11_inv, r12, r22_inv))
    return out


class TestPerLagOracles:
    # The per-call setup is shared across lags; every per-lag value keeps
    # the bits of the loop that rebuilt it at each lag.
    @pytest.fixture(scope="class")
    def res(self):
        rng = np.random.default_rng(22)
        return PairedResiduals(rng.normal(size=(90, 2)), rng.normal(size=(90, 3)))

    @pytest.mark.parametrize("variant", [1, 2])
    def test_l_statistic(self, res, variant):
        for max_lag in (0, 3, 20, 88):
            assert l_test(res, max_lag, variant).statistic == l_stat_loop(res, max_lag, variant)

    def test_single_lag_values(self, res):
        q1 = np.einsum("ti,ti->t", res.eta1, res.eta1)
        q2 = np.einsum("ti,ti->t", res.eta2, res.eta2)
        for m in range(89):
            for direction, lag in ((1, m), (2, -m)):
                rho = scalar_cross_corr_loop(q1, q2, lag)
                assert single_lag_stat(res, m, "L", direction)[0] == float(res.n * rho * rho)
                assert single_lag_stat(res, m, "T", direction)[0] == t_lag_loop(res, lag)

    def test_g_quadratics(self, res):
        lags = list(range(-88, 89))
        quads = _correlation_quadratics(res.eta1, res.eta2, lags)
        assert (quads == correlation_quadratics_loop(res.eta1, res.eta2, lags)).all()


class TestLTest:
    def test_variants_match_at_lag_zero(self):
        rng = np.random.default_rng(12)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert_allclose(
            l_test(res, 0, 1).statistic, l_test(res, 0, 2).statistic, rtol=1e-14
        )

    def test_constant_norms_rejected(self):
        t = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
        e1 = np.column_stack([np.cos(t), np.sin(t)])  # unit norm every row
        rng = np.random.default_rng(13)
        res = PairedResiduals(e1, rng.normal(size=(50, 2)))
        with pytest.raises(DataError):
            l_test(res, 1)

    def test_df(self):
        rng = np.random.default_rng(14)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert l_test(res, 3).df == 7

    def test_single_lag_sums_to_joint(self):
        rng = np.random.default_rng(15)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        total = single_lag_stat(res, 0, "L")[0]
        for m in range(1, 4):
            total += single_lag_stat(res, m, "L", direction=1)[0]
            total += single_lag_stat(res, m, "L", direction=2)[0]
        assert_allclose(total, l_test(res, 3, 1).statistic, rtol=1e-10)


class TestTTest:
    def test_df_for_bivariate(self):
        rng = np.random.default_rng(16)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert t_test(res, 3).df == 63  # (2M+1) * 3 * 3

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            res = PairedResiduals(rng.normal(size=(70, 2)), rng.normal(size=(70, 2)))
            assert t_test(res, 2).statistic >= 0.0

    def test_variant_two_dominates(self):
        rng = np.random.default_rng(18)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        assert t_test(res, 3, 2).statistic >= t_test(res, 3, 1).statistic

    def test_single_lag_sums_to_joint(self):
        rng = np.random.default_rng(19)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        total = single_lag_stat(res, 0, "T")[0]
        for m in range(1, 3):
            total += single_lag_stat(res, m, "T", direction=1)[0]
            total += single_lag_stat(res, m, "T", direction=2)[0]
        assert_allclose(total, t_test(res, 2, 1).statistic, rtol=1e-10)

    def test_single_lag_df(self):
        rng = np.random.default_rng(20)
        res = PairedResiduals(rng.normal(size=(60, 2)), rng.normal(size=(60, 2)))
        assert single_lag_stat(res, 1, "L")[1] == 1
        assert single_lag_stat(res, 1, "T")[1] == 9

    def test_lag_zero_directions_equal(self):
        rng = np.random.default_rng(21)
        res = PairedResiduals(rng.normal(size=(60, 2)), rng.normal(size=(60, 2)))
        for family in ("L", "T"):
            one = single_lag_stat(res, 0, family, direction=1)[0]
            two = single_lag_stat(res, 0, family, direction=2)[0]
            assert one == two


class TestNullUniformity:
    def test_pvalues_approximately_uniform(self):
        # Under independent residuals the G/L/T p-values should be close to
        # uniform; check the Kolmogorov-Smirnov distance over 500 draws.
        rng = np.random.default_rng(22)
        pvals = {"G": [], "L": [], "T": []}
        for _ in range(500):
            res = PairedResiduals(rng.normal(size=(2000, 2)), rng.normal(size=(2000, 2)))
            pvals["G"].append(g_test(res, 3).p_value)
            pvals["L"].append(l_test(res, 3).p_value)
            pvals["T"].append(t_test(res, 3).p_value)
        for name, values in pvals.items():
            sorted_p = np.sort(values)
            grid = np.arange(1, 501) / 500.0
            ks = np.max(np.abs(sorted_p - grid))
            assert ks <= 0.1, f"{name} p-values far from uniform (KS={ks:.3f})"
